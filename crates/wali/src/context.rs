//! Per-task WALI execution context.
//!
//! One [`WaliContext`] exists per kernel task (per Wasm instance in the
//! 1-to-1 model). It owns the engine-side state the paper enumerates as
//! WALI's bookkeeping: the virtual sigtable, the mmap pool base, the `brk`
//! watermark, argv/env, the trace, and the seccomp-like policy layer.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use vkernel::kernel::{KernelHandles, SignalDelivery};
use vkernel::{shared, HintFlag, Kernel, LockClass, MmId, MutexExt, Shared, Tid, Tracked};
use wali_abi::signals::SigSet;
use wasm::error::Trap;
use wasm::host::{HostCtx, PendingCall};
use wasm::interp::Value;

use crate::mmap::MmapPool;
use crate::policy::Policy;
use crate::sigtable::SigTable;
use crate::trace::Trace;

/// Shared handle to the kernel model.
///
/// The kernel core sits behind one mutex; the independently lockable
/// shards (per-task fd tables, open file descriptions, signal handler
/// tables, the atomic virtual clock and the waitqueue woken hint) hang
/// off it as their own `Arc`s, so the hot paths that touch only a shard
/// never contend on this lock.
pub type KernelRef = Arc<Tracked<Kernel>>;

/// Wraps a freshly built kernel in the shared, lock-order-tracked
/// handle every context and worker clones.
pub fn new_kernel_ref(kernel: Kernel) -> KernelRef {
    Arc::new(Tracked::new(LockClass::Kernel, kernel))
}

/// The embedder context threaded through every WALI host call.
pub struct WaliContext {
    /// The kernel this task runs against.
    pub kernel: KernelRef,
    /// Kernel task id.
    pub tid: Tid,
    /// Address-space identity (for futex keys).
    pub mm: MmId,
    /// Virtual signal table (shared between threads of a process).
    pub sigtable: Shared<SigTable>,
    /// Memory-mapping pool (shared between threads of a process).
    pub mmap: Shared<MmapPool>,
    /// Current program break (shared between threads of a process;
    /// atomic because sibling threads may run on different workers).
    pub brk: Arc<AtomicU32>,
    /// Initial program break (floor for shrinking).
    pub brk_start: u32,
    /// Command-line arguments (§3.4: owned by the engine, copied into the
    /// sandbox on request).
    pub args: Vec<String>,
    /// Environment variables as `KEY=VALUE` strings.
    pub env: Vec<String>,
    /// Syscall trace.
    pub trace: Trace,
    /// Optional syscall policy layered over the interface (§3.6).
    pub policy: Option<Policy>,
    /// Deadline handed back by the runner when retrying a blocked call.
    pub retry_deadline: Option<u64>,
    /// Cloneable handles to the kernel's independently lockable shards
    /// (pipe/socket slabs, the waitqueue, the process index). The
    /// sharded syscall fast path goes through these without ever
    /// touching the kernel lock.
    pub(crate) handles: KernelHandles,
    /// Whether the sharded fast path is enabled for this task
    /// (`WALI_NO_SHARD=1` routes everything through the kernel lock).
    pub(crate) shard: bool,
    /// Lazily cached fast-path handles (fd table + signal hint) for
    /// this task; filled on the first sharded syscall, reset whenever a
    /// fresh context is built (spawn, fork, thread, exec).
    pub(crate) hot_cache: Option<crate::fastpath::HotCache>,
    /// Whether batched syscall rings are enabled for this task
    /// (`WALI_NO_RING=1` makes `wali_ring_enter` return `-ENOSYS` so
    /// guests fall back to the synchronous per-op ABI).
    pub(crate) ring: bool,
    /// SQEs consumed from a ring but still blocked in flight: the
    /// parked `wali_ring_enter` re-attempts these on every retry and
    /// posts their CQEs from the wakeup path. Never inherited — a fork
    /// or exec starts with no in-flight ring operations.
    pub(crate) ring_pending: Vec<wali_abi::ring::WaliSqe>,
    /// Fast-path signal hint shared with the kernel task.
    sig_hint: HintFlag,
    /// Lock-free syscall meter: clock + entry counter handles, cloned
    /// from the kernel once so [`WaliContext::tick_syscall`] never takes
    /// the kernel lock.
    meter: (vkernel::Clock, std::sync::Arc<AtomicU64>),
    /// Masks to restore when nested signal handlers return (§3.3).
    handler_masks: Vec<SigSet>,
    /// Exit status once the task is terminated.
    pub exited: Option<i32>,
    /// Opaque state slot for APIs layered over WALI (e.g. the WASI
    /// capability tables). Not inherited across fork/exec. `Send` so the
    /// owning task can migrate between workers at safepoints.
    pub ext: Option<Box<dyn std::any::Any + Send>>,
}

impl WaliContext {
    /// Creates the context for an existing kernel task.
    ///
    /// `heap_base` is the first address past the module's static data; the
    /// `brk` heap starts there and the mmap pool above it (1 MiB of brk
    /// headroom).
    pub fn new(kernel: KernelRef, tid: Tid, heap_base: u32) -> WaliContext {
        let (mm, sig_hint, meter, handles) = {
            let k = kernel.lock_ok();
            let task = k.task(tid).expect("task exists");
            (
                task.mm,
                task.sig_hint.clone(),
                k.syscall_meter(),
                k.handles(),
            )
        };
        let brk_start = (heap_base + 15) & !15;
        let pool_base = brk_start + (1 << 20);
        WaliContext {
            kernel,
            tid,
            mm,
            sigtable: shared(SigTable::new()),
            mmap: shared(MmapPool::new(pool_base)),
            brk: Arc::new(AtomicU32::new(brk_start)),
            brk_start,
            args: Vec::new(),
            env: Vec::new(),
            trace: Trace::for_task(tid),
            policy: None,
            retry_deadline: None,
            handles,
            shard: crate::runner::shard_default(),
            hot_cache: None,
            ring: crate::runner::ring_default(),
            ring_pending: Vec::new(),
            sig_hint,
            meter,
            handler_masks: Vec::new(),
            exited: None,
            ext: None,
        }
    }

    /// Derives a sibling context for a `CLONE_THREAD` child: shares the
    /// sigtable, mmap pool and brk (one address space), fresh trace.
    pub fn thread_sibling(&self, tid: Tid) -> WaliContext {
        let (mm, sig_hint) = {
            let k = self.kernel.lock_ok();
            let task = k.task(tid).expect("task exists");
            (task.mm, task.sig_hint.clone())
        };
        let meter = self.meter.clone();
        WaliContext {
            kernel: self.kernel.clone(),
            tid,
            mm,
            sigtable: self.sigtable.clone(),
            mmap: self.mmap.clone(),
            brk: self.brk.clone(),
            brk_start: self.brk_start,
            args: self.args.clone(),
            env: self.env.clone(),
            trace: self.child_trace(tid),
            policy: self.policy.clone(),
            retry_deadline: None,
            handles: self.handles.clone(),
            shard: self.shard,
            hot_cache: None,
            ring: self.ring,
            ring_pending: Vec::new(),
            sig_hint,
            meter,
            handler_masks: Vec::new(),
            exited: None,
            ext: None,
        }
    }

    /// Derives a child context for `fork`: private copies of the sigtable,
    /// pool and brk (fresh address space with identical content).
    pub fn fork_child(&self, tid: Tid) -> WaliContext {
        let (mm, sig_hint) = {
            let k = self.kernel.lock_ok();
            let task = k.task(tid).expect("task exists");
            (task.mm, task.sig_hint.clone())
        };
        let meter = self.meter.clone();
        WaliContext {
            kernel: self.kernel.clone(),
            tid,
            mm,
            sigtable: shared(self.sigtable.lock_ok().clone()),
            mmap: shared(self.mmap.lock_ok().clone()),
            brk: Arc::new(AtomicU32::new(self.brk.load(Ordering::Relaxed))),
            brk_start: self.brk_start,
            args: self.args.clone(),
            env: self.env.clone(),
            trace: self.child_trace(tid),
            policy: self.policy.clone(),
            retry_deadline: None,
            handles: self.handles.clone(),
            shard: self.shard,
            hot_cache: None,
            ring: self.ring,
            ring_pending: Vec::new(),
            sig_hint,
            meter,
            handler_masks: Vec::new(),
            exited: None,
            ext: None,
        }
    }

    /// A fresh trace for a child task that keeps this task's ledger
    /// period.
    fn child_trace(&self, tid: Tid) -> Trace {
        let mut trace = Trace::for_task(tid);
        trace.ledger.set_period(self.trace.ledger.period());
        trace
    }

    /// Runs `f` against the kernel. Inside a syscall the ledger times,
    /// the elapsed time goes to the kernel layer (Fig. 7 accounting);
    /// otherwise nothing reads the clock.
    pub fn with_kernel<R>(&mut self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        let t0 = self.trace.ledger.kernel_begin();
        let r = f(&mut self.kernel.lock_ok());
        self.trace.ledger.kernel_end(t0);
        r
    }

    /// Fast-path read of the kernel's signal/termination hint for this
    /// task: the scheduler gates its killed-by-a-sibling check on it
    /// (every external termination path raises the hint before the state
    /// change becomes observable).
    #[inline]
    pub(crate) fn hint_raised(&self) -> bool {
        self.sig_hint.get()
    }

    /// Per-syscall-entry bookkeeping (clock tick + counter), without the
    /// layer-timing wrap: the tick is constant-time and timing it would
    /// charge the timer's own overhead to the kernel layer (Fig. 7) on
    /// every single syscall.
    #[inline]
    pub fn tick_syscall(&mut self) {
        self.meter.0.tick();
        self.meter.1.fetch_add(1, Ordering::Relaxed);
    }
}

impl HostCtx for WaliContext {
    fn poll_signal(&mut self) -> Option<PendingCall> {
        // Fast path: nothing flagged for this task.
        if !self.sig_hint.get() {
            return None;
        }
        let delivery = {
            let mut k = self.kernel.lock_ok();
            let d = k.next_signal(self.tid);
            if d.is_none() {
                // Drained (or the hint was for an already-consumed
                // process-wide signal another thread took).
                if !k.has_pending_signal(self.tid) {
                    self.sig_hint.set(false);
                }
            }
            d
        }?;
        match delivery {
            SignalDelivery::Handler {
                signo, old_mask, ..
            } => {
                let entry = self.sigtable.lock_ok().get(signo)?;
                self.handler_masks.push(old_mask);
                Some(PendingCall {
                    func: entry.func_index,
                    args: vec![Value::I32(signo)],
                })
            }
            SignalDelivery::Killed { signo } => {
                self.exited = Some(128 + signo);
                None
            }
        }
    }

    fn check_abort(&mut self) -> Option<Trap> {
        if self.exited.is_some() {
            return Some(Trap::Aborted);
        }
        if self.sig_hint.get() {
            // Another task may have terminated our process.
            let k = self.kernel.lock_ok();
            if let Ok(task) = k.task(self.tid) {
                if task.exited() {
                    drop(k);
                    self.exited = Some(0);
                    return Some(Trap::Aborted);
                }
            }
        }
        None
    }

    fn signal_return(&mut self) {
        if let Some(mask) = self.handler_masks.pop() {
            self.kernel.lock_ok().signal_return(self.tid, mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> WaliContext {
        let kernel = new_kernel_ref(Kernel::new());
        let tid = kernel.lock_ok().spawn_process();
        WaliContext::new(kernel, tid, 4096)
    }

    #[test]
    fn layout_of_heap_and_pool() {
        let c = ctx();
        assert_eq!(c.brk.load(Ordering::Relaxed), 4096);
        assert!(c.mmap.lock_ok().base() >= c.brk.load(Ordering::Relaxed) + (1 << 20));
    }

    #[test]
    fn poll_without_signals_is_cheap_none() {
        let mut c = ctx();
        assert_eq!(c.poll_signal(), None);
        assert!(c.check_abort().is_none());
    }

    #[test]
    fn fatal_signal_aborts_via_hint() {
        let mut c = ctx();
        let tid = c.tid;
        c.kernel.lock_ok().sys_kill(tid, tid, 15).unwrap();
        assert_eq!(
            c.poll_signal(),
            None,
            "default SIGTERM kills, no handler call"
        );
        assert_eq!(c.check_abort(), Some(Trap::Aborted));
        assert_eq!(c.exited, Some(128 + 15));
    }

    #[test]
    fn handler_delivery_and_mask_restore() {
        use crate::sigtable::SigEntry;
        use wali_abi::layout::WaliSigaction;
        let mut c = ctx();
        let tid = c.tid;
        c.sigtable.lock_ok().set(
            10,
            Some(SigEntry {
                table_index: 2,
                func_index: 42,
            }),
        );
        c.kernel
            .lock_ok()
            .sys_rt_sigaction(
                tid,
                10,
                Some(WaliSigaction {
                    handler: 2,
                    flags: 0,
                    mask: 0,
                }),
            )
            .unwrap();
        c.kernel.lock_ok().sys_kill(tid, tid, 10).unwrap();
        let call = c.poll_signal().expect("handler call");
        assert_eq!(call.func, 42);
        assert_eq!(call.args, vec![Value::I32(10)]);
        // During the handler the signal is masked; same signal stays
        // pending rather than delivering.
        c.kernel.lock_ok().sys_kill(tid, tid, 10).unwrap();
        assert_eq!(c.poll_signal(), None);
        // Handler returns: mask restored, second delivery happens.
        c.signal_return();
        assert!(c.poll_signal().is_some());
    }

    #[test]
    fn fork_child_gets_private_state() {
        let c = ctx();
        let child_tid = {
            let tid = c.tid;
            c.kernel.lock_ok().sys_fork(tid).unwrap() as Tid
        };
        let child = c.fork_child(child_tid);
        child.brk.store(999, Ordering::Relaxed);
        assert_ne!(
            c.brk.load(Ordering::Relaxed),
            999,
            "brk not shared across fork"
        );
        assert_ne!(c.mm, child.mm);
    }

    #[test]
    fn thread_sibling_shares_address_space_state() {
        let c = ctx();
        let t2 = {
            let tid = c.tid;
            c.kernel
                .lock_ok()
                .sys_clone(tid, wali_abi::flags::CLONE_PTHREAD)
                .unwrap() as Tid
        };
        let sib = c.thread_sibling(t2);
        sib.brk.store(777, Ordering::Relaxed);
        assert_eq!(
            c.brk.load(Ordering::Relaxed),
            777,
            "brk shared between threads"
        );
        assert_eq!(c.mm, sib.mm);
    }
}
