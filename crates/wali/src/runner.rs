//! The WALI process runtime.
//!
//! Implements the paper's process-model spectrum (§3.1, Fig. 4) on top of
//! the deterministic kernel: every Wasm instance is one kernel task
//! (1-to-1 identity), multiple tasks are multiplexed cooperatively onto
//! one host thread (the N-to-1 "lightweight process" execution), and the
//! control-transferring syscalls are realized with engine primitives:
//!
//! * `fork` — snapshot the suspended [`wasm::Thread`], deep-copy linear
//!   memory, resume the parent with the child pid and the child with 0;
//! * `clone(CLONE_VM)` — same snapshot but *sharing* linear memory, the
//!   instance-per-thread model (fresh globals/table per instance);
//! * `execve` — swap in a program registered under the target path;
//! * blocking syscalls — the task parks on the kernel waitqueues
//!   ([`vkernel::wait`]) and re-enters the run queue only when its wait
//!   channel fires or its deadline lapses. Every blocked call parks, so
//!   the run queue holds only runnable work: when it is empty the
//!   scheduler advances the virtual clock straight to the earliest
//!   deadline, and a blocked call with neither a channel nor a deadline
//!   surfaces as a [`RunnerError::Deadlock`] instead of being busy-polled.
//!
//! Set `WALI_WORKERS=N` (or [`WaliRunner::set_workers`]) to interpret
//! runnable tasks on `N` host worker threads (`0`/`auto` selects
//! `min(cores, 8)`). The default, `1`, keeps the deterministic
//! single-threaded schedule every test and benchmark in the repository
//! is pinned to; `N > 1` trades that determinism for true parallelism —
//! see `crates/wali/src/exec.rs` and DESIGN.md "Concurrency".

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vkernel::{Kernel, TaskState, Tid};
use wali_abi::Errno;
use wasm::host::{Caller, HostFn, HostOutcome, Linker};
use wasm::interp::{Instance, RunResult, Thread, Value};
use wasm::prep::Program;
use wasm::{Module, SafepointScheme, Trap};

use crate::context::{KernelRef, WaliContext};
use crate::registry::{build_linker, WaliSuspend};
use crate::trace::Trace;

/// How a task ended.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskEnd {
    /// Normal exit with this code.
    Exited(i32),
    /// Died on a trap.
    Trapped(Trap),
}

/// Scheduler accounting for one run (waitqueue observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Times a task was parked on a wait channel or deadline.
    pub parks: u64,
    /// Parked tasks re-queued by a kernel wakeup.
    pub wakeups: u64,
    /// Idle steps: the clock jumped to the earliest deadline.
    pub idle_advances: u64,
    /// Blocked-syscall retry attempts that blocked again without running
    /// any wasm: spurious wakeups and lapsed deadlines whose call is still
    /// not ready. Bounded by parks, since every retry follows a wake.
    pub blocked_retries: u64,
}

/// Lock-free accumulator behind [`SchedStats`]: SMP workers bump these
/// concurrently; [`AtomicSched::take`] folds them into the plain struct
/// a finished run reports. `Relaxed` suffices — counters, not
/// synchronization.
#[derive(Debug, Default)]
pub(crate) struct AtomicSched {
    pub(crate) parks: AtomicU64,
    pub(crate) wakeups: AtomicU64,
    pub(crate) idle_advances: AtomicU64,
    pub(crate) blocked_retries: AtomicU64,
}

impl AtomicSched {
    fn take(&self) -> SchedStats {
        SchedStats {
            parks: self.parks.swap(0, Ordering::Relaxed),
            wakeups: self.wakeups.swap(0, Ordering::Relaxed),
            idle_advances: self.idle_advances.swap(0, Ordering::Relaxed),
            blocked_retries: self.blocked_retries.swap(0, Ordering::Relaxed),
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Exit status of the first spawned task.
    pub main_exit: Option<TaskEnd>,
    /// Per-task endings in completion order.
    pub ends: Vec<(Tid, TaskEnd)>,
    /// Captured console output.
    pub console: Vec<u8>,
    /// Merged trace across all tasks.
    pub trace: Trace,
    /// Peak linear-memory pages over all instances (the grow watermark —
    /// address-space footprint).
    pub peak_memory_pages: u32,
    /// Peak *resident* (host-allocated) pages over all instances. With the
    /// paged backing this counts touched pages only; the flat baseline
    /// materializes its whole reservation, so the two differ exactly by
    /// the lazy-allocation win.
    pub peak_resident_pages: u32,
    /// Scheduler accounting.
    pub sched: SchedStats,
}

impl RunOutcome {
    /// Console output as UTF-8 (lossy).
    pub fn stdout(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// The main task's exit code, if it exited normally.
    pub fn exit_code(&self) -> Option<i32> {
        match self.main_exit {
            Some(TaskEnd::Exited(code)) => Some(code),
            _ => None,
        }
    }

    /// Per-tier dispatch counts `(stack, regir)`: ops executed by the
    /// fused stack loop vs. the tier-2 register loop ([`wasm::regir`]).
    pub fn dispatches(&self) -> (u64, u64) {
        let reg = self.trace.reg_steps;
        (self.trace.wasm_steps.saturating_sub(reg), reg)
    }

    /// The order-insensitive summary of this run (toggle-equivalence
    /// comparison across schedulers).
    pub fn observables(&self) -> Observables {
        let mut console_lines: Vec<String> = self.stdout().lines().map(str::to_owned).collect();
        console_lines.sort();
        let mut ends: Vec<String> = self.ends.iter().map(|(_, e)| format!("{e:?}")).collect();
        ends.sort();
        Observables {
            main_exit: self.main_exit.as_ref().map(|e| format!("{e:?}")),
            console_lines,
            ends,
        }
    }
}

/// What every correct scheduler must agree on, regardless of worker
/// count or toggle settings: the main task's ending, the *multiset* of
/// console lines, and the *multiset* of task endings. Interleaving-
/// dependent data (completion order, sched counters, syscall totals —
/// a retry after a spurious wake re-invokes its handler) is deliberately
/// excluded; the bit-determinism oracle compares those separately on
/// `WALI_WORKERS=1` pairs, where they must match exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observables {
    /// The main task's ending (`Debug`-rendered), if it ended.
    pub main_exit: Option<String>,
    /// Console lines, sorted (a multiset — line identity must hold, line
    /// interleaving may differ across schedulers).
    pub console_lines: Vec<String>,
    /// Task endings (`Debug`-rendered), sorted. Tids are excluded: tid
    /// assignment is deterministic, but which fork branch gets which tid
    /// is an ordering artifact under SMP.
    pub ends: Vec<String>,
}

/// A scheduling error.
#[derive(Debug)]
pub enum RunnerError {
    /// A module failed to link.
    Link(wasm::prep::LinkError),
    /// Instantiation failed.
    Instantiate(Trap),
    /// The entry export is missing.
    NoEntry(&'static str),
    /// All live tasks are blocked with no wake-up source. Each entry
    /// describes one stuck task: pending work, scheduler position,
    /// kernel state.
    Deadlock(Vec<(Tid, String)>),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Link(e) => write!(f, "link error: {e}"),
            RunnerError::Instantiate(t) => write!(f, "instantiation failed: {t}"),
            RunnerError::NoEntry(n) => write!(f, "module exports no `{n}`"),
            RunnerError::Deadlock(tasks) => write!(f, "deadlock: {tasks:?}"),
        }
    }
}

impl std::error::Error for RunnerError {}

pub(crate) enum Pending {
    Start {
        func: u32,
        args: Vec<Value>,
    },
    Resume(Vec<Value>),
    Retry {
        module: &'static str,
        import: &'static str,
        sysno: Option<u16>,
        args: Vec<Value>,
        deadline: Option<u64>,
    },
}

/// Ops per scheduling slice before a busy task is preempted.
pub(crate) const FUEL_SLICE: u64 = 1 << 20;

/// Virtual nanoseconds one exhausted fuel slice accounts for (a ~1 GIPS
/// virtual CPU: 2^20 ops ≈ 1 ms). Without this, a pure-compute spin loop
/// would stall virtual time: parked tasks issue no syscalls, so their
/// ticks cannot advance the clock. The scheduler advances it here and at
/// idle steps instead, so parked deadlines lapse while a spinner runs.
pub(crate) const SLICE_QUANTUM_NS: u64 = 1_000_000;

pub(crate) struct Slot {
    pub(crate) tid: Tid,
    pub(crate) instance: Instance<WaliContext>,
    pub(crate) thread: Thread,
    pub(crate) ctx: WaliContext,
    pub(crate) pending: Option<Pending>,
}

/// Counts a park as a voluntary context switch in `tid`'s rusage. A
/// plain kernel update, outside every syscall and so outside the
/// layer ledger: the single loop and the SMP workers both call it.
pub(crate) fn count_voluntary_switch(k: &mut Kernel, tid: Tid) {
    if let Ok(t) = k.task_mut(tid) {
        t.rusage.nvcsw += 1;
    }
}

/// Whether the sharded syscall fast path is on by default (the
/// `WALI_NO_SHARD` escape hatch routes every syscall through the big
/// kernel lock — the A/B baseline the equivalence oracle compares
/// against).
pub fn shard_default() -> bool {
    std::env::var_os("WALI_NO_SHARD").is_none()
}

/// Whether batched syscall rings are on by default (the `WALI_NO_RING`
/// escape hatch makes `wali_ring_enter` return `-ENOSYS`, so guests
/// fall back to the synchronous per-op ABI — the A/B baseline the
/// equivalence oracle compares against).
pub fn ring_default() -> bool {
    std::env::var_os("WALI_NO_RING").is_none()
}

/// Worker-pool width selected by the `WALI_WORKERS` environment
/// variable: a number, or `0`/`auto` for `min(cores, 8)`. Unset — or
/// unparsable — means 1: the deterministic single-threaded schedule.
pub fn workers_default() -> usize {
    match std::env::var("WALI_WORKERS") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("auto") => auto_workers(),
        Ok(v) => v.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => 1,
    }
}

/// `min(cores, 8)`: enough to saturate the scheduler benchmarks without
/// oversubscribing small CI machines.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The runtime.
pub struct WaliRunner {
    /// The kernel all tasks share.
    pub kernel: KernelRef,
    pub(crate) linker: Linker<WaliContext>,
    /// Dense syscall handler table indexed by `wali_abi::spec::sysno`,
    /// pre-resolved from the linker at [`WaliRunner::register_program`]
    /// time so blocked-syscall retries skip the by-name registry lookup.
    pub(crate) handlers: Vec<Option<HostFn<WaliContext>>>,
    pub(crate) programs: HashMap<String, Arc<Program<WaliContext>>>,
    pub(crate) scheme: SafepointScheme,
    /// Superinstruction fusion override; `None` follows
    /// [`wasm::prep::fuse_default`].
    fuse: Option<bool>,
    /// Tier-2 register-IR override; `None` follows
    /// [`wasm::regir::regir_default`] (`WALI_NO_REGIR=1` selects the
    /// fused stack tier).
    regir: Option<bool>,
    /// Paged copy-on-write memory override; `None` follows
    /// [`wasm::mem::cow_default`] (`WALI_NO_COW=1` selects the flat
    /// eager-zero / deep-copy-fork baseline).
    cow: Option<bool>,
    /// Sharded-fast-path override; `None` follows [`shard_default`].
    shard: Option<bool>,
    /// Batched-syscall-ring override; `None` follows [`ring_default`].
    ring: Option<bool>,
    /// Worker-pool width override; `None` follows [`workers_default`].
    workers: Option<usize>,
    /// Set when `linker_mut` may have changed registrations since the
    /// handler table was built.
    handlers_dirty: bool,
    /// Every live task, keyed by kernel tid (deterministic order).
    pub(crate) tasks: BTreeMap<Tid, Slot>,
    /// Runnable tasks, round-robin FIFO.
    pub(crate) run_queue: VecDeque<Tid>,
    /// Blocked tasks parked off the run queue, with their optional wake
    /// deadline (virtual mono ns). Invariant: every live task is either
    /// queued or parked, never both.
    pub(crate) parked: BTreeMap<Tid, Option<u64>>,
    /// Index of parked deadlines: the scheduler compares its minimum
    /// against the clock every round, so deadline-parked tasks wake on
    /// time even while other tasks keep the run queue busy (syscall
    /// ticks advance the virtual clock too, not just idle steps). Kept
    /// in lock-step with `parked`. A hierarchical timer wheel
    /// ([`crate::timer::TimerWheel`]): O(1) arm/disarm per park/unpark,
    /// exact minimum for the idle clock jump.
    pub(crate) deadlines: crate::timer::TimerWheel,
    /// `vfork` parents suspended until their child execs or exits, keyed
    /// by child tid. These tasks sit on neither the run queue nor the
    /// parked map; the child's exec/exit requeues them.
    pub(crate) vfork_waiters: HashMap<Tid, Tid>,
    spawned_any: bool,
    pub(crate) main_tid: Option<Tid>,
    pub(crate) outcome: RunOutcome,
    /// Concurrent scheduler counters (folded into `outcome.sched`).
    pub(crate) stats: AtomicSched,
    /// Lock-free virtual-clock handle (shares the kernel's counter).
    clock: vkernel::Clock,
    /// Lock-free mirror of "the kernel has undrained wakeups".
    woken_hint: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// The wakeup drain's reusable buffer.
    woken_buf: Vec<Tid>,
}

impl WaliRunner {
    /// Creates a runtime with a fresh kernel and the full WALI linker.
    pub fn new(scheme: SafepointScheme) -> WaliRunner {
        let kernel = Kernel::new();
        let clock = kernel.clock.clone();
        let woken_hint = kernel.woken_hint();
        WaliRunner {
            kernel: crate::context::new_kernel_ref(kernel),
            linker: build_linker(),
            handlers: Vec::new(),
            programs: HashMap::new(),
            scheme,
            fuse: None,
            regir: None,
            cow: None,
            shard: None,
            ring: None,
            workers: None,
            handlers_dirty: true,
            tasks: BTreeMap::new(),
            run_queue: VecDeque::new(),
            parked: BTreeMap::new(),
            deadlines: crate::timer::TimerWheel::default(),
            vfork_waiters: HashMap::new(),
            spawned_any: false,
            main_tid: None,
            outcome: RunOutcome::default(),
            stats: AtomicSched::default(),
            clock,
            woken_hint,
            woken_buf: Vec::new(),
        }
    }

    /// Default runtime: loop-header safepoints (the paper's choice).
    pub fn new_default() -> WaliRunner {
        Self::new(SafepointScheme::LoopHeaders)
    }

    /// The safepoint scheme in use.
    pub fn scheme(&self) -> SafepointScheme {
        self.scheme
    }

    /// Mutable access to the linker, so higher-level APIs (e.g. the WASI
    /// layer) can register additional host modules **before** programs are
    /// registered.
    pub fn linker_mut(&mut self) -> &mut Linker<WaliContext> {
        self.handlers_dirty = true;
        &mut self.linker
    }

    /// Overrides superinstruction fusion for subsequently registered
    /// programs (A/B measurement; default follows
    /// [`wasm::prep::fuse_default`]).
    pub fn set_fuse(&mut self, fuse: bool) {
        self.fuse = Some(fuse);
    }

    /// Overrides the tier-2 register IR for subsequently registered
    /// programs (A/B measurement; default follows
    /// [`wasm::regir::regir_default`]). `false` falls back to the fused
    /// stack tier.
    pub fn set_regir(&mut self, on: bool) {
        self.regir = Some(on);
    }

    /// Overrides the paged copy-on-write memory backing (A/B measurement;
    /// default follows [`wasm::mem::cow_default`]). `false` selects the
    /// flat eager-zero backing whose `fork` deep-copies the memory.
    pub fn set_cow(&mut self, on: bool) {
        self.cow = Some(on);
    }

    pub(crate) fn cow_on(&self) -> bool {
        self.cow.unwrap_or_else(wasm::mem::cow_default)
    }

    /// Overrides the sharded syscall fast path (A/B measurement; default
    /// follows [`shard_default`]). `false` routes pipe/socket I/O through
    /// the big kernel lock like the pre-shard runtime.
    pub fn set_shard(&mut self, on: bool) {
        self.shard = Some(on);
    }

    pub(crate) fn shard_on(&self) -> bool {
        self.shard.unwrap_or_else(shard_default)
    }

    /// Overrides batched syscall rings (A/B measurement; default follows
    /// [`ring_default`]). `false` makes `wali_ring_enter` return
    /// `-ENOSYS` so guests take their synchronous per-op fallback.
    pub fn set_ring(&mut self, on: bool) {
        self.ring = Some(on);
    }

    pub(crate) fn ring_on(&self) -> bool {
        self.ring.unwrap_or_else(ring_default)
    }

    /// Overrides the epoll ready-ring (A/B measurement; default follows
    /// the kernel's `WALI_NO_READY` environment check). `false` falls
    /// back to the full interest-list scan per `epoll_wait`. Takes
    /// effect immediately — kernel state, not a registration-time flag —
    /// so set it before spawning.
    pub fn set_ready(&mut self, on: bool) {
        self.kernel.lock_ok().set_ready(on);
    }

    /// Whether the epoll ready-ring path is on.
    pub fn ready_on(&self) -> bool {
        self.kernel.lock_ok().ready_on()
    }

    /// Overrides the worker-pool width (A/B measurement; default follows
    /// [`workers_default`]). `1` pins the deterministic single-threaded
    /// schedule; `n > 1` runs tasks on `n` host workers.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = Some(n.max(1));
    }

    /// The effective worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(workers_default)
    }

    /// Audits kernel state for leaked resources — call after [`run`]
    /// returns. Clean means every fd-backed resource slot was released
    /// and no task or wait subscription was stranded; see
    /// [`vkernel::LeakReport`]. The fuzzer's liveness oracle asserts
    /// `is_clean()` on every scenario.
    ///
    /// [`run`]: WaliRunner::run
    pub fn leak_audit(&self) -> vkernel::LeakReport {
        self.kernel.lock_ok().leak_audit()
    }

    /// Adjusts the context of a spawned (not yet finished) task — used to
    /// attach layered-API state such as WASI preopens.
    pub fn configure_ctx(&mut self, tid: Tid, f: impl FnOnce(&mut WaliContext)) {
        if let Some(slot) = self.tasks.get_mut(&tid) {
            f(&mut slot.ctx);
        }
    }

    /// Links `module` and registers it as the executable at `path`
    /// (`execve` target). Also materializes a stub file in the VFS so
    /// `access`/`stat` on the path behave.
    pub fn register_program(&mut self, path: &str, module: &Module) -> Result<(), RunnerError> {
        let fuse = self.fuse.unwrap_or_else(wasm::prep::fuse_default);
        let regir = self.regir.unwrap_or_else(wasm::regir::regir_default);
        let program = Program::link_tiered(module, &self.linker, self.scheme, fuse, regir)
            .map_err(RunnerError::Link)?;
        let _ = self
            .kernel
            .lock_ok()
            .vfs
            .write_file(path, b"\0asm\x01\0\0\0");
        self.programs.insert(path.to_string(), Arc::new(program));
        // (Re)build the dense handler table, but only when the linker
        // could have changed since the last build.
        if self.handlers_dirty {
            self.handlers = wali_abi::spec::SPEC
                .iter()
                .map(|s| {
                    self.linker
                        .resolve(crate::WALI_MODULE, &s.import_name())
                        .cloned()
                })
                .collect();
            self.handlers_dirty = false;
        }
        Ok(())
    }

    /// Spawns a process running the program registered at `path`.
    pub fn spawn(&mut self, path: &str, args: &[&str], env: &[&str]) -> Result<Tid, RunnerError> {
        let program = self
            .programs
            .get(path)
            .cloned()
            .ok_or(RunnerError::NoEntry("program not registered"))?;
        let tid = self.kernel.lock_ok().spawn_process();
        let instance = Instance::new_with_cow(program.clone(), self.cow_on())
            .map_err(RunnerError::Instantiate)?;
        let entry = instance
            .export_func("_start")
            .or_else(|| instance.export_func("main"))
            .ok_or(RunnerError::NoEntry("_start"))?;
        let mut ctx = WaliContext::new(self.kernel.clone(), tid, program.data_end());
        ctx.shard = self.shard_on();
        ctx.ring = self.ring_on();
        ctx.args = std::iter::once(path.to_string())
            .chain(args.iter().map(|s| s.to_string()))
            .collect();
        ctx.env = env.iter().map(|s| s.to_string()).collect();
        if !self.spawned_any {
            self.main_tid = Some(tid);
            self.spawned_any = true;
        }
        self.admit(Slot {
            tid,
            instance,
            thread: Thread::new(),
            ctx,
            pending: Some(Pending::Start {
                func: entry,
                args: Vec::new(),
            }),
        });
        Ok(tid)
    }

    /// Spawns with a seccomp-like policy attached (§3.6 layering).
    pub fn spawn_with_policy(
        &mut self,
        path: &str,
        args: &[&str],
        env: &[&str],
        policy: crate::policy::Policy,
    ) -> Result<Tid, RunnerError> {
        let tid = self.spawn(path, args, env)?;
        if let Some(slot) = self.tasks.get_mut(&tid) {
            slot.ctx.policy = Some(policy);
        }
        Ok(tid)
    }

    /// Registers a new task and queues it to run.
    fn admit(&mut self, slot: Slot) {
        let tid = slot.tid;
        self.tasks.insert(tid, slot);
        self.run_queue.push_back(tid);
    }

    /// Runs until every task finishes.
    ///
    /// The scheduler loop: drain kernel wakeups into the run queue, run
    /// the queue round-robin, and when it is empty take an idle step —
    /// jump the virtual clock to the earliest deadline, fire timers, and
    /// unpark whatever that woke. Every blocked call parks, so an empty
    /// queue is exactly "nothing runnable". Wakeup cost is independent of
    /// the number of parked tasks: a transition posts to exactly the tasks
    /// subscribed to its channel.
    pub fn run(&mut self) -> Result<RunOutcome, RunnerError> {
        let workers = self.workers();
        if workers > 1 {
            return self.run_smp(workers);
        }
        self.run_single()
    }

    /// The deterministic single-threaded scheduler (`WALI_WORKERS=1`):
    /// byte-for-byte the pre-SMP behaviour, kept as the baseline every
    /// test and benchmark can pin.
    fn run_single(&mut self) -> Result<RunOutcome, RunnerError> {
        while !self.tasks.is_empty() {
            self.drain_wakeups();
            // Syscall ticks advance the clock while the queue stays busy;
            // wake parked deadlines the moment they lapse, not only at
            // idle steps.
            if let Some(d) = self.deadlines.next_deadline() {
                let now = self.clock.monotonic_ns();
                if now >= d {
                    self.wake_lapsed(now);
                }
            }
            let Some(tid) = self.run_queue.pop_front() else {
                self.idle_advance()?;
                continue;
            };
            self.attempt(tid)?;
        }
        self.finish_outcome()
    }

    /// Folds the concurrent counters and captured console into the
    /// outcome of a completed run.
    pub(crate) fn finish_outcome(&mut self) -> Result<RunOutcome, RunnerError> {
        let mut outcome = std::mem::take(&mut self.outcome);
        outcome.sched = self.stats.take();
        outcome.console = self.kernel.lock_ok().take_console();
        Ok(outcome)
    }

    /// Parks a blocked task off the run queue.
    fn park(&mut self, tid: Tid, deadline: Option<u64>) {
        self.stats.parks.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = deadline {
            self.deadlines.insert(d, tid);
        }
        self.parked.insert(tid, deadline);
    }

    /// Removes a task from the parked set (and the deadline index);
    /// returns whether it was parked.
    fn unpark(&mut self, tid: Tid) -> bool {
        match self.parked.remove(&tid) {
            Some(deadline) => {
                if let Some(d) = deadline {
                    self.deadlines.cancel(d, tid);
                }
                true
            }
            None => false,
        }
    }

    /// Moves kernel-woken tasks from the parked set to the run queue.
    fn drain_wakeups(&mut self) {
        // Lock-free gate: the hint mirrors `has_woken`, so the kernel
        // lock is taken only when there is something to drain.
        if !self.woken_hint.load(Ordering::Acquire) {
            return;
        }
        let mut woken = std::mem::take(&mut self.woken_buf);
        self.kernel.lock_ok().drain_woken(&mut woken);
        for &tid in &woken {
            if self.unpark(tid) {
                self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                self.run_queue.push_back(tid);
            }
            // Wakeups for queued/running tasks are redundant: they will
            // observe the new state on their own next attempt.
        }
        woken.clear();
        self.woken_buf = woken;
    }

    /// Nothing is runnable: advance the virtual clock to the earliest
    /// wake-up source (parked deadlines, kernel timers), fire timers, and
    /// unpark deadline-lapsed tasks; error out when no wake-up source
    /// exists.
    fn idle_advance(&mut self) -> Result<(), RunnerError> {
        let parked_min = self.deadlines.next_deadline();
        let timer_min = self.kernel.lock_ok().next_timer_deadline();
        let Some(deadline) = [parked_min, timer_min].into_iter().flatten().min() else {
            return Err(RunnerError::Deadlock(self.blocked_report()));
        };
        let now = {
            let mut k = self.kernel.lock_ok();
            k.clock.advance_to(deadline);
            k.fire_timers();
            k.clock.monotonic_ns()
        };
        self.stats.idle_advances.fetch_add(1, Ordering::Relaxed);
        self.wake_lapsed(now);
        self.drain_wakeups();
        Ok(())
    }

    /// Accounts one exhausted fuel slice of virtual CPU time and fires
    /// whatever that made due (timers, parked deadlines).
    fn tick_slice(&mut self) {
        let now = {
            let mut k = self.kernel.lock_ok();
            k.clock.advance(SLICE_QUANTUM_NS);
            k.fire_timers();
            k.clock.monotonic_ns()
        };
        self.wake_lapsed(now);
    }

    /// Re-queues parked tasks whose deadline has lapsed. The kernel-side
    /// subscriptions are cancelled: this wake bypasses the waitqueue, so
    /// leaving them would let a later post spuriously wake the task out
    /// of an unrelated park.
    fn wake_lapsed(&mut self, now: u64) {
        for (_, tid) in self.deadlines.advance_to(now) {
            self.parked.remove(&tid);
            self.kernel.lock_ok().wait_cancel(tid);
            self.run_queue.push_back(tid);
        }
    }

    /// The blocked-task table for the deadlock report.
    fn blocked_report(&self) -> Vec<(Tid, String)> {
        let name_of = |s: &Slot| match &s.pending {
            Some(Pending::Retry { import, .. }) => format!("retry {import}"),
            Some(Pending::Start { .. }) => "start".into(),
            Some(Pending::Resume(_)) => "resume".into(),
            None => "no pending".into(),
        };
        self.parked
            .keys()
            .filter_map(|tid| self.tasks.get(tid).map(|s| (*tid, name_of(s))))
            // vfork parents are not parked; a stuck child must
            // not hide its suspended parent from the diagnostic.
            .chain(
                self.vfork_waiters
                    .values()
                    .filter(|p| self.tasks.contains_key(p))
                    .map(|p| (*p, "vfork (waiting on child)".into())),
            )
            .collect()
    }

    /// Runs a single registered program to completion (convenience).
    pub fn run_to_exit(
        module: &Module,
        args: &[&str],
        env: &[&str],
    ) -> Result<RunOutcome, RunnerError> {
        let mut runner = WaliRunner::new_default();
        runner.register_program("/usr/bin/app", module)?;
        runner.spawn("/usr/bin/app", args, env)?;
        runner.run()
    }

    /// Runs one scheduling slice of `tid` and applies the resulting
    /// scheduling decision.
    fn attempt(&mut self, tid: Tid) -> Result<(), RunnerError> {
        let Some(pending) = self.tasks.get_mut(&tid).and_then(|s| s.pending.take()) else {
            return Ok(());
        };

        // A task whose kernel identity died (killed by a sibling) is
        // finalized without running. Gated on the task's signal hint:
        // every external termination path raises it, so the common case
        // skips the kernel lock entirely.
        let hinted = self
            .tasks
            .get(&tid)
            .map(|s| s.ctx.hint_raised())
            .unwrap_or(true);
        if hinted && self.task_killed(tid) {
            self.finish_task(tid, None);
            return Ok(());
        }
        let result = {
            let slot = self.tasks.get_mut(&tid).expect("live task");
            let t0 = Instant::now();
            let steps0 = slot.thread.steps;
            let reg0 = slot.thread.reg_steps;
            slot.thread.refuel(Some(FUEL_SLICE));
            let r = match pending {
                Pending::Start { func, args } => {
                    slot.thread
                        .call(&mut slot.instance, &mut slot.ctx, func, &args)
                }
                Pending::Resume(values) => {
                    slot.thread
                        .resume(&mut slot.instance, &mut slot.ctx, &values)
                }
                Pending::Retry {
                    module,
                    import,
                    sysno,
                    args,
                    deadline,
                } => {
                    slot.ctx.retry_deadline = deadline;
                    // Fast path: WALI syscalls retry through the dense
                    // pre-resolved handler table; other modules (layered
                    // APIs) fall back to the by-name registry.
                    let f = match sysno.filter(|_| module == crate::WALI_MODULE) {
                        Some(no) => self
                            .handlers
                            .get(no as usize)
                            .and_then(|h| h.clone())
                            .expect("retry of a registered syscall"),
                        None => self
                            .linker
                            .resolve(module, import)
                            .expect("retry of a registered function")
                            .clone(),
                    };
                    let mut caller = Caller {
                        instance: &slot.instance,
                        data: &mut slot.ctx,
                    };
                    match f(&mut caller, &args) {
                        Ok(values) => {
                            slot.thread
                                .resume(&mut slot.instance, &mut slot.ctx, &values)
                        }
                        Err(HostOutcome::Trap(t)) => RunResult::Trapped(t),
                        Err(HostOutcome::Suspend(s)) => RunResult::Suspended(s),
                    }
                }
            };
            slot.ctx.trace.add_slice(t0.elapsed());
            slot.ctx.trace.wasm_steps += slot.thread.steps - steps0;
            slot.ctx.trace.reg_steps += slot.thread.reg_steps - reg0;
            (r, slot.thread.steps != steps0)
        };
        let (result, ran_wasm) = result;

        match result {
            RunResult::Done(values) => {
                let code = values.first().and_then(Value::as_i32).unwrap_or(0);
                let already = self.tasks.get(&tid).and_then(|s| s.ctx.exited);
                if already.is_none() {
                    let _ = self.kernel.lock_ok().sys_exit_group(tid, code);
                }
                self.finish_task(tid, Some(TaskEnd::Exited(already.unwrap_or(code))));
                Ok(())
            }
            RunResult::Trapped(Trap::Aborted) => {
                self.finish_task(tid, None);
                Ok(())
            }
            RunResult::Trapped(t) => {
                let _ = self.kernel.lock_ok().sys_exit_group(tid, 128);
                self.finish_task(tid, Some(TaskEnd::Trapped(t)));
                Ok(())
            }
            RunResult::Suspended(s) => match s.downcast::<WaliSuspend>() {
                Ok(payload) => self.handle_suspend(tid, *payload, ran_wasm),
                Err(s) => {
                    if s.downcast::<wasm::interp::Preempted>().is_ok() {
                        // Fuel slice expired: reschedule fairly and account
                        // the slice's virtual CPU time.
                        self.requeue(tid, Pending::Resume(Vec::new()));
                        self.tick_slice();
                        Ok(())
                    } else {
                        Err(RunnerError::NoEntry("unknown suspension payload"))
                    }
                }
            },
        }
    }

    /// Puts a live task back on the run queue with its next pending step.
    fn requeue(&mut self, tid: Tid, pending: Pending) {
        if let Some(slot) = self.tasks.get_mut(&tid) {
            slot.pending = Some(pending);
            self.run_queue.push_back(tid);
        }
    }

    fn handle_suspend(
        &mut self,
        tid: Tid,
        payload: WaliSuspend,
        ran_wasm: bool,
    ) -> Result<(), RunnerError> {
        match payload {
            WaliSuspend::Exit { code } => {
                self.finish_task(tid, Some(TaskEnd::Exited(code)));
                Ok(())
            }
            WaliSuspend::Blocked {
                module,
                import,
                sysno,
                args,
                deadline,
            } => {
                // A retry that re-blocked without running any wasm was a
                // wasted attempt (a spurious wake or a lapsed deadline
                // whose call is still not ready).
                if !ran_wasm {
                    self.stats.blocked_retries.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(slot) = self.tasks.get_mut(&tid) {
                    slot.pending = Some(Pending::Retry {
                        module,
                        import,
                        sysno,
                        args,
                        deadline,
                    });
                    count_voluntary_switch(&mut self.kernel.lock_ok(), tid);
                }
                // Park on the kernel waitqueues / deadline. A blocked call
                // that neither subscribed a channel nor set a deadline has
                // no wake source: it parks anyway, and once nothing else
                // can run the idle step names it in the deadlock report.
                self.park(tid, deadline);
                Ok(())
            }
            WaliSuspend::Fork { child_tid, vfork } => {
                // `vfork` on the COW backing shares the parent's pages
                // outright (no snapshot); the parent is suspended until
                // the child execs or exits — the Linux contract. On the
                // `WALI_NO_COW` baseline vfork degrades to fork, exactly
                // the old behavior.
                let share = vfork && self.cow_on();
                let child = {
                    let slot = self.tasks.get(&tid).expect("live task");
                    Slot {
                        tid: child_tid,
                        instance: if share {
                            slot.instance.thread_clone()
                        } else {
                            slot.instance.fork_clone()
                        },
                        thread: slot.thread.clone(),
                        ctx: slot.ctx.fork_child(child_tid),
                        pending: Some(Pending::Resume(vec![Value::I64(0)])),
                    }
                };
                self.admit(child);
                if share {
                    // Park the parent off every queue; the child's
                    // exec/exit requeues it with the child pid.
                    self.vfork_waiters.insert(child_tid, tid);
                    if let Some(slot) = self.tasks.get_mut(&tid) {
                        slot.pending = Some(Pending::Resume(vec![Value::I64(child_tid as i64)]));
                    }
                } else {
                    self.requeue(tid, Pending::Resume(vec![Value::I64(child_tid as i64)]));
                }
                Ok(())
            }
            WaliSuspend::Clone {
                child_tid,
                share_vm,
                thread,
            } => {
                let child = {
                    let slot = self.tasks.get(&tid).expect("live task");
                    let instance = if share_vm {
                        slot.instance.thread_clone()
                    } else {
                        slot.instance.fork_clone()
                    };
                    let ctx = if thread {
                        slot.ctx.thread_sibling(child_tid)
                    } else {
                        slot.ctx.fork_child(child_tid)
                    };
                    Slot {
                        tid: child_tid,
                        instance,
                        thread: slot.thread.clone(),
                        ctx,
                        pending: Some(Pending::Resume(vec![Value::I64(0)])),
                    }
                };
                self.admit(child);
                self.requeue(tid, Pending::Resume(vec![Value::I64(child_tid as i64)]));
                Ok(())
            }
            WaliSuspend::Exec { path, argv, envp } => {
                let Some(program) = self.programs.get(&path).cloned() else {
                    self.requeue(
                        tid,
                        Pending::Resume(vec![Value::I64(Errno::Enoent.as_ret())]),
                    );
                    return Ok(());
                };
                {
                    let mut k = self.kernel.lock_ok();
                    let _ = k.sys_execve(tid);
                }
                // A fresh private memory: replacing the old instance below
                // drops its page references eagerly, so a vfork/COW parent
                // regains exclusive ownership of the shared pages.
                let instance = Instance::new_with_cow(program.clone(), self.cow_on())
                    .map_err(RunnerError::Instantiate)?;
                let entry = instance
                    .export_func("_start")
                    .or_else(|| instance.export_func("main"))
                    .ok_or(RunnerError::NoEntry("_start"))?;
                let old_trace = self
                    .tasks
                    .get(&tid)
                    .map(|s| s.ctx.trace.clone())
                    .unwrap_or_default();
                let mut ctx = WaliContext::new(self.kernel.clone(), tid, program.data_end());
                ctx.shard = self.shard_on();
                ctx.ring = self.ring_on();
                ctx.args = if argv.is_empty() {
                    vec![path.clone()]
                } else {
                    argv
                };
                ctx.env = envp;
                ctx.trace = old_trace;
                let slot = self.tasks.get_mut(&tid).expect("live task");
                slot.instance = instance;
                slot.thread = Thread::new();
                slot.ctx = ctx;
                slot.pending = Some(Pending::Start {
                    func: entry,
                    args: Vec::new(),
                });
                self.run_queue.push_back(tid);
                // execve releases a vfork parent waiting on this child.
                self.release_vfork_parent(tid);
                Ok(())
            }
        }
    }

    fn task_killed(&self, tid: Tid) -> bool {
        let k = self.kernel.lock_ok();
        k.task(tid).map(|t| t.exited()).unwrap_or(true)
    }

    /// Requeues the vfork parent suspended on `child`, if any (called at
    /// the child's execve and at its exit).
    fn release_vfork_parent(&mut self, child: Tid) {
        if let Some(parent) = self.vfork_waiters.remove(&child) {
            if self.tasks.contains_key(&parent) {
                self.run_queue.push_back(parent);
            }
        }
    }

    fn finish_task(&mut self, tid: Tid, end: Option<TaskEnd>) {
        let Some(slot) = self.tasks.remove(&tid) else {
            return;
        };
        self.unpark(tid);
        self.release_vfork_parent(tid);
        // A task killed mid-slice may have re-blocked (and re-subscribed)
        // between the fatal signal and the runner noticing the death:
        // EINTR resumes its wasm, which can reach the next blocking
        // syscall before any safepoint unwinds it. Finalization is the
        // task's last word, so its wait subscriptions go with it.
        self.kernel.lock_ok().wait_cancel(tid);
        let end = end.unwrap_or_else(|| {
            // Pull the status from the kernel (killed by signal or exited
            // by a sibling thread).
            let k = self.kernel.lock_ok();
            match k.task(slot.tid).map(|t| t.state.clone()) {
                Ok(TaskState::Zombie(status)) if wali_abi::flags::wifsignaled(status) => {
                    TaskEnd::Exited(128 + wali_abi::flags::wtermsig(status))
                }
                Ok(TaskState::Zombie(status)) => {
                    TaskEnd::Exited(wali_abi::flags::wexitstatus(status))
                }
                _ => TaskEnd::Exited(slot.ctx.exited.unwrap_or(0)),
            }
        });
        self.outcome.peak_memory_pages = self
            .outcome
            .peak_memory_pages
            .max(slot.instance.memory.peak_pages());
        self.outcome.peak_resident_pages = self
            .outcome
            .peak_resident_pages
            .max(slot.instance.memory.peak_resident_pages());
        self.outcome.trace.merge(&slot.ctx.trace);
        if Some(slot.tid) == self.main_tid {
            self.outcome.main_exit = Some(end.clone());
        }
        self.outcome.ends.push((slot.tid, end));
    }
}
