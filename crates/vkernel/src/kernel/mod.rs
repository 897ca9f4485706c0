//! The kernel object: tasks, processes, signals, timers and scheduling
//! hooks. File, socket and memory syscalls live in the sibling submodules
//! as further `impl Kernel` blocks.

pub mod epoll;
pub mod fs;
pub mod sock;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use wali_abi::flags::{
    w_exitcode, w_termsig, CLONE_FILES, CLONE_FS, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM, WNOHANG,
};
use wali_abi::layout::{WaliSigaction, WaliUtsname};
use wali_abi::signals::{SigSet, Signal, SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK};
use wali_abi::Errno;

use crate::clock::Clock;
use crate::fd::{FdTable, FileKind, FileRef, OpenFile};
use crate::hash::{FastMap, SeededState};
use crate::lockorder::LockClass;
use crate::pipe::Pipe;
use crate::proc::{ProcIndex, TaskHot};
use crate::signal::{disposition, Disposition, PendingSet, SigHandlers};
use crate::slab::ObjSlab;
use crate::socket::{AddrKey, Socket};
use crate::sync::{shared, HintFlag, MutexExt};
use crate::task::{FsInfo, Pid, Rusage, Task, TaskState, Tid};
use crate::vfs::{Vfs, VfsShard};
use crate::wait::{Channel, WaitShard, WaitStats};
use crate::{block, block_until, MmId, SysResult};

/// What the embedder must do about a deliverable signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalDelivery {
    /// Run the registered handler (Wasm function index in the action),
    /// with the given signal number; the mask to restore afterwards is
    /// included.
    Handler {
        /// Signal number.
        signo: i32,
        /// The registered action.
        action: WaliSigaction,
        /// Mask to restore when the handler returns.
        old_mask: SigSet,
    },
    /// The whole process was killed by this signal; stop executing it.
    Killed {
        /// Signal number.
        signo: i32,
    },
}

/// The deterministic Linux model.
pub struct Kernel {
    /// The filesystem, behind its reader/writer shard.
    pub vfs: VfsShard,
    /// Virtual time.
    pub clock: Clock,
    tasks: BTreeMap<Tid, Task>,
    next_tid: Tid,
    next_mm: u64,
    pub(crate) pipes: ObjSlab<Pipe>,
    pub(crate) sockets: ObjSlab<Socket>,
    pub(crate) epolls: ObjSlab<epoll::Epoll>,
    pub(crate) addr_registry: HashMap<AddrKey, usize>,
    /// Futex wait queues by `(address space, word address)`; the seeded
    /// hash keeps guest-chosen addresses from being made to collide.
    futexes: FastMap<(MmId, u32), VecDeque<Tid>>,
    /// Waitqueues: blocked tasks parked on wait channels, behind their
    /// own shard lock (innermost in the ordering DAG).
    pub(crate) waits: WaitShard,
    /// The sharded tid → hot-state mirror (maintained on spawn/fork/
    /// clone/reap; read lock-cheaply by the embedder's fast paths).
    pub(crate) procs: ProcIndex,
    rng_state: u64,
    /// Captured console (tty) output.
    pub console: Vec<u8>,
    /// Count of syscalls entered (all tasks). Atomic and `Arc`-shared so
    /// the per-syscall tick ([`Kernel::syscall_meter`]) never takes the
    /// kernel lock.
    pub syscalls: Arc<std::sync::atomic::AtomicU64>,
    /// Epoll ready-ring mode: readiness transitions are routed to
    /// per-instance ready rings and `epoll_wait` pops O(ready) entries.
    /// Off (`WALI_NO_READY=1` / [`Kernel::set_ready`]) falls back to
    /// the full interest-list scan.
    pub(crate) ready: bool,
    /// Recycled buffers of the epoll ready-ring pop (candidates and one
    /// registration's wait channels), so a pop allocates only its
    /// reports.
    pub(crate) pop_scratch: Vec<epoll::PopCand>,
    pub(crate) chan_scratch: Vec<Channel>,
}

/// Cloneable handles onto the kernel's shards: everything the
/// embedder's uncontended fast path needs to run a pipe/socket syscall
/// without the big kernel lock. Fetched once per context
/// ([`Kernel::handles`]) while the kernel lock is already held.
#[derive(Clone, Debug)]
pub struct KernelHandles {
    /// The pipe slab.
    pub pipes: ObjSlab<Pipe>,
    /// The socket slab.
    pub socks: ObjSlab<Socket>,
    /// The waitqueue shard.
    pub waits: WaitShard,
    /// The process index.
    pub procs: ProcIndex,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Boots a kernel with the standard filesystem layout and an init
    /// task (pid 1).
    pub fn new() -> Kernel {
        let vfs = Vfs::with_std_layout();
        let init = Task::init(vfs.root);
        let mut tasks = BTreeMap::new();
        tasks.insert(1, init);
        // One hash seed for every map the kernel's hot paths probe.
        let hasher = SeededState::new();
        let k = Kernel {
            vfs: VfsShard::new(vfs),
            clock: Clock::new(),
            tasks,
            next_tid: 2,
            next_mm: 2,
            pipes: ObjSlab::new(LockClass::Object),
            sockets: ObjSlab::new(LockClass::Object),
            epolls: ObjSlab::new(LockClass::Epoll),
            addr_registry: HashMap::new(),
            futexes: FastMap::with_hasher(hasher),
            waits: WaitShard::with_hasher(hasher),
            procs: ProcIndex::with_hasher(hasher),
            rng_state: 0x9e37_79b9_7f4a_7c15,
            console: Vec::new(),
            syscalls: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            ready: std::env::var_os("WALI_NO_READY").is_none(),
            pop_scratch: Vec::new(),
            chan_scratch: Vec::new(),
        };
        // The waitqueue's readiness router resolves epoll ids against
        // the slab directly (hub → ring push without the kernel lock).
        k.waits.set_epolls(k.epolls.clone());
        k.register_hot(1);
        k
    }

    /// Toggles the epoll ready-ring (`true` = ring, `false` = the
    /// fallback full scan). Flip only while no `epoll_wait` is parked:
    /// the two modes subscribe different wakeup channels.
    pub fn set_ready(&mut self, on: bool) {
        self.ready = on;
    }

    /// Whether the epoll ready-ring path is on.
    pub fn ready_on(&self) -> bool {
        self.ready
    }

    /// Cloneable handles onto the kernel's shards (for the embedder's
    /// uncontended fast path). Cheap: five `Arc` clones.
    pub fn handles(&self) -> KernelHandles {
        KernelHandles {
            pipes: self.pipes.clone(),
            socks: self.sockets.clone(),
            waits: self.waits.clone(),
            procs: self.procs.clone(),
        }
    }

    /// Mirrors `tid`'s hot state into the sharded process index.
    fn register_hot(&self, tid: Tid) {
        if let Some(t) = self.tasks.get(&tid) {
            self.procs.insert(
                tid,
                TaskHot {
                    tgid: t.tgid,
                    fdtable: t.fdtable.clone(),
                    sig_hint: t.sig_hint.clone(),
                    mm: t.mm,
                },
            );
        }
    }

    /// Per-syscall bookkeeping: tick the clock and count the entry.
    /// Both pieces are lock-free shards; embedders on the hot path use
    /// [`Kernel::syscall_meter`] to tick without the kernel lock at all.
    pub fn enter_syscall(&self) {
        self.clock.tick();
        self.syscalls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Hands out `(clock, counter)` handles for lock-free per-syscall
    /// ticking — the clock shard in action: one atomic add each, no
    /// kernel lock on any syscall entry.
    pub fn syscall_meter(&self) -> (Clock, Arc<std::sync::atomic::AtomicU64>) {
        (self.clock.clone(), self.syscalls.clone())
    }

    /// Count of syscalls entered (all tasks).
    pub fn syscall_count(&self) -> u64 {
        self.syscalls.load(std::sync::atomic::Ordering::Relaxed)
    }

    // --- Waitqueues --------------------------------------------------------

    /// Subscribes `tid` to a wait channel (embedder-visible for layered
    /// APIs that block on kernel state, e.g. `poll`/`epoll_wait`).
    pub fn wait_subscribe(&mut self, tid: Tid, ch: Channel) {
        self.waits.subscribe(tid, ch);
    }

    /// Posts a wakeup on a channel (mostly internal; public so layered
    /// subsystems can participate in the protocol).
    pub fn wait_post(&mut self, ch: Channel) -> usize {
        self.waits.post(ch)
    }

    /// Drains the tasks woken since the last drain, in wake order.
    pub fn take_woken(&mut self) -> Vec<Tid> {
        self.waits.take_woken()
    }

    /// Same, appended to `out` (a scheduler's reusable buffer).
    pub fn drain_woken(&mut self, out: &mut Vec<Tid>) {
        self.waits.drain_woken(out);
    }

    /// Drains the channels whose posts woke `tid` since its last drain
    /// (empty for direct wakes — callers treat that as "re-check
    /// everything"). Batched-syscall retries use this to complete the
    /// operations whose wakeup actually arrived first, so ring CQE
    /// order follows the wakeup path rather than submission order.
    pub fn take_fired(&mut self, tid: Tid) -> Vec<Channel> {
        self.waits.take_fired(tid)
    }

    /// Arms fired-channel recording for `tid` until its next
    /// [`Kernel::take_fired`] drain. Only armed tasks pay the per-wake
    /// fired-log bookkeeping, so `wali_ring_enter` calls this each time
    /// it parks and everyone else's wakes stay record-free.
    pub fn track_fired(&mut self, tid: Tid) {
        self.waits.track_fired(tid);
    }

    /// Drops every wait subscription of `tid` without waking it. The
    /// embedder calls this when it re-queues a task for a reason the
    /// kernel cannot see (deadline lapse), so no stale channel entry can
    /// fire a spurious wakeup into a later, unrelated park.
    pub fn wait_cancel(&mut self, tid: Tid) {
        self.waits.unsubscribe(tid);
    }

    /// True when `tid` parked on at least one wait channel.
    pub fn task_waits(&self, tid: Tid) -> bool {
        self.waits.is_subscribed(tid)
    }

    /// True when a posted wakeup is waiting to be drained.
    pub fn has_woken(&self) -> bool {
        self.waits.has_woken()
    }

    /// Waitqueue counters (benchmarks and tests).
    pub fn wait_stats(&self) -> WaitStats {
        self.waits.stats()
    }

    /// Lock-free handle onto the waitqueue's woken hint: SMP workers
    /// poll it between slices without taking the kernel lock and drain
    /// [`Kernel::take_woken`] (under the lock) only when it reads true.
    pub fn woken_hint(&self) -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        self.waits.woken_hint()
    }

    /// Subscribes `tid` to the readiness channels of each `(fd, events)`
    /// pair — the blocking half of `poll`/`select`/`epoll_wait`. Unknown
    /// or always-ready fd kinds contribute no channel (the caller's
    /// readiness scan already returned their state). A signal wakes the
    /// poller too, like the EINTR path on Linux.
    pub fn wait_on_fds(&mut self, tid: Tid, fds: &[(i32, i16)]) {
        let mut chans: Vec<Channel> = Vec::new();
        for &(fd, events) in fds {
            self.fd_wait_channels(tid, fd, events, &mut chans);
        }
        for ch in chans {
            self.waits.subscribe(tid, ch);
        }
        self.waits.subscribe(tid, Channel::Signal(tid));
    }

    /// Collects the wait channels that can change fd readiness for the
    /// given `poll`-style event mask. Always-ready kinds (regular files,
    /// directories) contribute nothing.
    pub(crate) fn fd_wait_channels(&self, tid: Tid, fd: i32, events: i16, out: &mut Vec<Channel>) {
        let Ok(task) = self.task(tid) else { return };
        let file = {
            let table = task.fdtable.lock_ok();
            let Ok(entry) = table.get(fd) else { return };
            entry.file.clone()
        };
        self.desc_wait_channels(&file, events, out);
    }

    /// Same, addressed by open file description (the epoll interest list
    /// is description-keyed, so its channel walk must not depend on fd
    /// numbers still being open).
    pub(crate) fn desc_wait_channels(&self, file: &FileRef, events: i16, out: &mut Vec<Channel>) {
        use wali_abi::flags::{POLLIN, POLLOUT};
        let kind = file.lock_ok().kind.clone();
        let file_key = Arc::as_ptr(file) as usize;
        match kind {
            // POLLHUP/POLLERR are reported regardless of the requested
            // events (a zero mask is the classic watch-for-hangup idiom),
            // and hangups post on the same channels as data transitions —
            // so pipe/socket pollers subscribe unconditionally. A data
            // wakeup the poller did not ask for is merely spurious: the
            // retry re-scans readiness and re-parks.
            FileKind::PipeRead(id) => {
                out.push(Channel::PipeReadable(id));
            }
            FileKind::PipeWrite(id) => {
                out.push(Channel::PipeWritable(id));
            }
            FileKind::Socket(id) => {
                out.push(Channel::SockReadable(id));
                out.push(Channel::SockSpace(id));
                if events & POLLOUT != 0 {
                    // Writability = space in the peer's receive buffer.
                    if let Ok(Some(peer)) = self.with_sock(id, |s| match s.state {
                        crate::socket::SockState::Connected { peer } => Some(peer),
                        _ => None,
                    }) {
                        out.push(Channel::SockSpace(peer));
                    }
                }
            }
            FileKind::EventFd if events & POLLIN != 0 => {
                out.push(Channel::EventFd(file_key));
            }
            FileKind::Epoll(id) => {
                if self.ready {
                    // Ring mode: every readiness transition of the
                    // interest set is routed to the instance's ready
                    // channel by the hub — one channel, any size.
                    out.push(Channel::EpollReady(id));
                } else {
                    // Polling an epoll fd: ready when its interest set
                    // is; interest-list edits change that too.
                    let descs = self.epoll_interest_descs(id);
                    for (ifile, ievents) in &descs {
                        self.desc_wait_channels(ifile, *ievents, out);
                    }
                    self.epoll_descs_recycle(id, descs);
                    out.push(Channel::EpollCtl(id));
                }
            }
            _ => {}
        }
    }

    /// Sum of the event generations of the wait channels behind a
    /// description for the given poll-events — moves whenever a new
    /// transition (post) happened on any of them. Edge-triggered epoll
    /// uses it as its re-arm signal.
    pub(crate) fn desc_event_gen(&self, file: &FileRef, events: i16) -> u64 {
        let mut chans: Vec<Channel> = Vec::new();
        self.desc_wait_channels(file, events, &mut chans);
        chans.into_iter().map(|ch| self.waits.generation(ch)).sum()
    }

    /// Closes a dying task's descriptors eagerly (Linux closes fds at
    /// exit, not at reap): drops this task's reference to its fd table
    /// and, when it was the last holder, releases every description so
    /// pipe/socket peers observe EOF/EPIPE — and get their wakeups.
    fn release_task_files(&mut self, tid: Tid) {
        // Drop the fast-path index entry first: it holds a clone of the
        // fd-table `Arc`, and the last-holder unwrap below must see this
        // task's reference count only.
        self.procs.remove(tid);
        let Some(task) = self.tasks.get_mut(&tid) else {
            return;
        };
        let table = std::mem::replace(&mut task.fdtable, shared(FdTable::new()));
        if let Ok(cell) = Arc::try_unwrap(table) {
            let mut table = cell.into_inner().unwrap_or_else(|p| p.into_inner());
            for entry in table.drain() {
                self.release_if_last(entry);
            }
        }
    }

    /// Fetches a task.
    pub fn task(&self, tid: Tid) -> Result<&Task, Errno> {
        self.tasks.get(&tid).ok_or(Errno::Esrch)
    }

    /// Fetches a task mutably.
    pub fn task_mut(&mut self, tid: Tid) -> Result<&mut Task, Errno> {
        self.tasks.get_mut(&tid).ok_or(Errno::Esrch)
    }

    /// All live tids (diagnostics, schedulers).
    pub fn tids(&self) -> Vec<Tid> {
        self.tasks.keys().copied().collect()
    }

    /// Spawns a fresh process (child of init) with stdio wired to the
    /// console tty. This is how the WALI runner creates an application's
    /// initial process.
    pub fn spawn_process(&mut self) -> Tid {
        let tid = self.next_tid;
        self.next_tid += 1;
        let mm = MmId(self.next_mm);
        self.next_mm += 1;

        let mut fdtable = FdTable::new();
        let tty = self
            .vfs
            .resolve(self.vfs.root, "/dev/tty", true)
            .ok()
            .and_then(|r| r.inode)
            .expect("std layout has /dev/tty");
        for _ in 0..3 {
            let file: FileRef = Arc::new(Mutex::new(OpenFile::new(FileKind::CharDev(tty), 0)));
            fdtable.alloc(file, false).expect("empty table");
        }

        let task = Task {
            tid,
            tgid: tid,
            ppid: 1,
            pgid: tid,
            sid: 1,
            state: TaskState::Running,
            fdtable: shared(fdtable),
            fs: shared(FsInfo {
                cwd: self.vfs.root,
                umask: 0o022,
            }),
            sighand: shared(SigHandlers::new()),
            shared_pending: shared(PendingSet::default()),
            pending: PendingSet::default(),
            sigmask: SigSet::EMPTY,
            saved_sigmask: None,
            mm,
            uid: 1000,
            euid: 1000,
            gid: 1000,
            egid: 1000,
            children: Vec::new(),
            clear_child_tid: 0,
            rusage: Rusage::default(),
            alarm_deadline: None,
            futex_woken: false,
            exit_code: None,
            sig_hint: HintFlag::new(),
        };
        self.tasks.get_mut(&1).expect("init").children.push(tid);
        self.tasks.insert(tid, task);
        self.register_hot(tid);
        tid
    }

    // --- Process lifecycle -------------------------------------------------

    /// `fork`: new process duplicating the caller (fd table copied with
    /// shared descriptions, fresh address space id).
    pub fn sys_fork(&mut self, tid: Tid) -> SysResult {
        let parent = self.task(tid)?.clone();
        let child_tid = self.next_tid;
        self.next_tid += 1;
        let mm = MmId(self.next_mm);
        self.next_mm += 1;

        let child = Task {
            tid: child_tid,
            tgid: child_tid,
            ppid: parent.tgid,
            pgid: parent.pgid,
            sid: parent.sid,
            state: TaskState::Running,
            fdtable: shared(parent.fdtable.lock_ok().fork_copy()),
            fs: shared(parent.fs.lock_ok().clone()),
            sighand: shared(parent.sighand.lock_ok().clone()),
            shared_pending: shared(PendingSet::default()),
            pending: PendingSet::default(),
            sigmask: parent.sigmask,
            saved_sigmask: None,
            mm,
            uid: parent.uid,
            euid: parent.euid,
            gid: parent.gid,
            egid: parent.egid,
            children: Vec::new(),
            clear_child_tid: 0,
            rusage: Rusage::default(),
            alarm_deadline: None,
            futex_woken: false,
            exit_code: None,
            sig_hint: HintFlag::new(),
        };
        self.tasks.insert(child_tid, child);
        self.task_mut(tid)?.children.push(child_tid);
        self.register_hot(child_tid);
        Ok(child_tid as i64)
    }

    /// `clone`: thread or process creation per the flag set (§3.1). The
    /// embedder decides what to do with the engine-side state; the kernel
    /// only manages task identity and sharing.
    pub fn sys_clone(&mut self, tid: Tid, flags: u64) -> SysResult {
        let parent = self.task(tid)?.clone();
        let child_tid = self.next_tid;
        self.next_tid += 1;

        let is_thread = flags & CLONE_THREAD != 0;
        if is_thread && flags & (CLONE_VM | CLONE_SIGHAND) != (CLONE_VM | CLONE_SIGHAND) {
            // Linux requires CLONE_THREAD ⊆ CLONE_SIGHAND ⊆ CLONE_VM.
            return Err(Errno::Einval.into());
        }

        let mm = if flags & CLONE_VM != 0 {
            parent.mm
        } else {
            let mm = MmId(self.next_mm);
            self.next_mm += 1;
            mm
        };
        let fdtable = if flags & CLONE_FILES != 0 {
            parent.fdtable.clone()
        } else {
            shared(parent.fdtable.lock_ok().fork_copy())
        };
        let fs = if flags & CLONE_FS != 0 {
            parent.fs.clone()
        } else {
            shared(parent.fs.lock_ok().clone())
        };
        let sighand = if flags & CLONE_SIGHAND != 0 {
            parent.sighand.clone()
        } else {
            shared(parent.sighand.lock_ok().clone())
        };
        let (tgid, ppid, shared_pending) = if is_thread {
            (parent.tgid, parent.ppid, parent.shared_pending.clone())
        } else {
            (child_tid, parent.tgid, shared(PendingSet::default()))
        };

        let child = Task {
            tid: child_tid,
            tgid,
            ppid,
            pgid: parent.pgid,
            sid: parent.sid,
            state: TaskState::Running,
            fdtable,
            fs,
            sighand,
            shared_pending,
            pending: PendingSet::default(),
            sigmask: parent.sigmask,
            saved_sigmask: None,
            mm,
            uid: parent.uid,
            euid: parent.euid,
            gid: parent.gid,
            egid: parent.egid,
            children: Vec::new(),
            clear_child_tid: 0,
            rusage: Rusage::default(),
            alarm_deadline: None,
            futex_woken: false,
            exit_code: None,
            sig_hint: HintFlag::new(),
        };
        self.tasks.insert(child_tid, child);
        if !is_thread {
            self.task_mut(tid)?.children.push(child_tid);
        }
        self.register_hot(child_tid);
        Ok(child_tid as i64)
    }

    /// `exit_group`: terminates every task in the caller's thread group.
    pub fn sys_exit_group(&mut self, tid: Tid, code: i32) -> SysResult {
        let tgid = self.task(tid)?.tgid;
        self.terminate_group(tgid, w_exitcode(code), Some(code));
        Ok(0)
    }

    /// `exit`: terminates one thread (whole group if it is the last).
    pub fn sys_exit_thread(&mut self, tid: Tid, code: i32) -> SysResult {
        let tgid = self.task(tid)?.tgid;
        let group: Vec<Tid> = self.group_tids(tgid);
        // Futex-wake the clear_child_tid word (pthread_join protocol).
        let (ctid, mm) = {
            let t = self.task(tid)?;
            (t.clear_child_tid, t.mm)
        };
        if ctid != 0 {
            self.futex_wake_at(mm, ctid, usize::MAX);
        }
        if group.len() == 1 {
            self.terminate_group(tgid, w_exitcode(code), Some(code));
        } else {
            let t = self.task_mut(tid)?;
            t.state = TaskState::Dead;
            t.exit_code = Some(code);
            // Drop the thread's fd-table reference (shared tables survive
            // until the last thread exits) and its wait subscriptions.
            self.release_task_files(tid);
            self.waits.unsubscribe(tid);
        }
        Ok(0)
    }

    fn group_tids(&self, tgid: Pid) -> Vec<Tid> {
        self.tasks
            .values()
            .filter(|t| t.tgid == tgid && !matches!(t.state, TaskState::Dead))
            .map(|t| t.tid)
            .collect()
    }

    /// Marks a whole thread group zombie with `status` and signals the
    /// parent with SIGCHLD; children are reparented to init. Every dying
    /// task's descriptors are released (peers observe EOF/EPIPE and their
    /// waitqueues fire), parked siblings are woken so the embedder can
    /// finalize them, and the parent's `wait4` channel is posted.
    fn terminate_group(&mut self, tgid: Pid, status: i32, code: Option<i32>) {
        let tids = self.group_tids(tgid);
        for t in &tids {
            if let Some(task) = self.tasks.get(t) {
                task.sig_hint.set(true);
            }
        }
        let mut ppid = 1;
        let mut orphans = Vec::new();
        for t in &tids {
            if let Some(task) = self.tasks.get_mut(t) {
                if *t == tgid {
                    task.state = TaskState::Zombie(status);
                    ppid = task.ppid;
                    task.exit_code = code;
                    orphans.append(&mut task.children);
                } else {
                    task.state = TaskState::Dead;
                }
            }
        }
        for orphan in orphans {
            if let Some(t) = self.tasks.get_mut(&orphan) {
                t.ppid = 1;
            }
            self.tasks.get_mut(&1).expect("init").children.push(orphan);
        }
        for t in &tids {
            self.release_task_files(*t);
        }
        for t in &tids {
            self.waits.wake(*t);
        }
        self.waits.post(Channel::Child(ppid));
        let _ = self.send_signal_to_process(ppid, Signal::Sigchld.number());
    }

    /// `wait4(pid, options)`: reaps a zombie child; returns
    /// `(pid, status)`. Blocks unless `WNOHANG`.
    pub fn sys_wait4(&mut self, tid: Tid, pid: i32, options: i32) -> SysResult<(Pid, i32)> {
        let me = self.task(tid)?.tgid;
        let children = self.task(tid)?.children.clone();
        if children.is_empty() {
            return Err(Errno::Echild.into());
        }
        let candidates: Vec<Pid> = children
            .iter()
            .copied()
            .filter(|&c| match pid {
                -1 => true,
                0 => self.tasks.get(&c).map(|t| t.pgid) == self.tasks.get(&me).map(|t| t.pgid),
                p if p > 0 => c == p,
                pg => self.tasks.get(&c).map(|t| t.pgid == -pg).unwrap_or(false),
            })
            .collect();
        if candidates.is_empty() {
            return Err(Errno::Echild.into());
        }
        for c in &candidates {
            if let Some(TaskState::Zombie(status)) = self.tasks.get(c).map(|t| t.state.clone()) {
                // Reap: remove the zombie and its dead siblings.
                let dead: Vec<Tid> = self
                    .tasks
                    .values()
                    .filter(|t| t.tgid == *c)
                    .map(|t| t.tid)
                    .collect();
                for d in dead {
                    self.tasks.remove(&d);
                    self.procs.remove(d);
                }
                self.task_mut(tid)?.children.retain(|x| x != c);
                return Ok((*c, status));
            }
        }
        if options & WNOHANG != 0 {
            return Ok((0, 0));
        }
        // Park until a child changes state or a signal arrives.
        self.waits.subscribe(tid, Channel::Child(me));
        self.waits.subscribe(tid, Channel::Signal(tid));
        Err(block())
    }

    /// `execve` kernel-side effects: CLOEXEC fds closed, caught signal
    /// handlers reset. (The engine swaps the program.) The swept entries
    /// are released like any close — pipe/socket peers observe the
    /// hangup and their waitqueues fire.
    pub fn sys_execve(&mut self, tid: Tid) -> SysResult {
        let task = self.task(tid)?;
        let swept = task.fdtable.lock_ok().close_cloexec();
        task.sighand.lock_ok().reset_for_exec();
        for entry in swept {
            self.release_if_last(entry);
        }
        Ok(0)
    }

    // --- Identity ----------------------------------------------------------

    /// `getpid`.
    pub fn sys_getpid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.tgid as i64)
    }

    /// `getppid`.
    pub fn sys_getppid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.ppid as i64)
    }

    /// `gettid`.
    pub fn sys_gettid(&self, tid: Tid) -> SysResult {
        Ok(self.task(tid)?.tid as i64)
    }

    /// `setpgid`.
    pub fn sys_setpgid(&mut self, tid: Tid, pid: i32, pgid: i32) -> SysResult {
        let target = if pid == 0 { self.task(tid)?.tgid } else { pid };
        let pgid = if pgid == 0 { target } else { pgid };
        if pgid < 0 {
            return Err(Errno::Einval.into());
        }
        let t = self.task_mut(target)?;
        t.pgid = pgid;
        Ok(0)
    }

    /// `getpgid`.
    pub fn sys_getpgid(&self, tid: Tid, pid: i32) -> SysResult {
        let target = if pid == 0 { tid } else { pid };
        Ok(self.task(target)?.pgid as i64)
    }

    /// `setsid`.
    pub fn sys_setsid(&mut self, tid: Tid) -> SysResult {
        let t = self.task_mut(tid)?;
        if t.pgid == t.tgid {
            return Err(Errno::Eperm.into());
        }
        t.sid = t.tgid;
        t.pgid = t.tgid;
        Ok(t.sid as i64)
    }

    /// `getsid`.
    pub fn sys_getsid(&self, tid: Tid, pid: i32) -> SysResult {
        let target = if pid == 0 { tid } else { pid };
        Ok(self.task(target)?.sid as i64)
    }

    /// `set_tid_address`.
    pub fn sys_set_tid_address(&mut self, tid: Tid, addr: u32) -> SysResult {
        let t = self.task_mut(tid)?;
        t.clear_child_tid = addr;
        Ok(t.tid as i64)
    }

    // --- Signals -----------------------------------------------------------

    /// `rt_sigaction`: stores the action, returns the previous one.
    pub fn sys_rt_sigaction(
        &mut self,
        tid: Tid,
        signo: i32,
        new: Option<WaliSigaction>,
    ) -> SysResult<WaliSigaction> {
        let sig = Signal::from_number(signo);
        if (!(1..64).contains(&signo) || sig.map(|s| !s.catchable()).unwrap_or(false))
            && new.is_some()
        {
            return Err(Errno::Einval.into());
        }
        let task = self.task(tid)?;
        let mut handlers = task.sighand.lock_ok();
        let old = handlers.get(signo);
        if let Some(action) = new {
            if sig.map(|s| !s.catchable()).unwrap_or(false) {
                return Err(Errno::Einval.into());
            }
            handlers.set(signo, action);
        }
        Ok(old)
    }

    /// `rt_sigprocmask`.
    pub fn sys_rt_sigprocmask(
        &mut self,
        tid: Tid,
        how: i32,
        set: Option<SigSet>,
    ) -> SysResult<SigSet> {
        let task = self.task_mut(tid)?;
        let old = task.sigmask;
        if let Some(arg) = set {
            if ![SIG_BLOCK, SIG_UNBLOCK, SIG_SETMASK].contains(&how) {
                return Err(Errno::Einval.into());
            }
            task.sigmask = old.apply(how, arg).ok_or(Errno::Einval)?;
            // Unblocking may expose pending signals; re-raise the hint so
            // the safepoint right after this syscall delivers them
            // (paper §3.3: the extra post-sigprocmask safepoint).
            if !task.pending.is_empty() || !task.shared_pending.lock_ok().is_empty() {
                task.sig_hint.set(true);
            }
        }
        Ok(old)
    }

    /// Applies the temporary signal mask of `ppoll`/`epoll_pwait`
    /// atomically with respect to the wait: the first entry of the call
    /// saves the caller's mask and installs `mask`; blocked-call retries
    /// (a saved mask is already present) leave both untouched, so the
    /// swap happens exactly once per wait no matter how often the task
    /// re-parks. Signals the temporary mask newly unblocks raise the
    /// delivery hint immediately, like the post-`sigprocmask` safepoint.
    pub fn sigmask_swap_for_wait(&mut self, tid: Tid, mask: SigSet) {
        let Ok(task) = self.task_mut(tid) else { return };
        if task.saved_sigmask.is_some() {
            return;
        }
        task.saved_sigmask = Some(task.sigmask);
        task.sigmask = mask;
        if !task.pending.is_empty() || !task.shared_pending.lock_ok().is_empty() {
            task.sig_hint.set(true);
        }
    }

    /// Restores the mask saved by [`Kernel::sigmask_swap_for_wait`] when
    /// the wait returns (ready, timeout or error — any non-`Block`
    /// outcome). A signal that arrived masked during the wait becomes
    /// deliverable here, at the safepoint straight after the syscall —
    /// exactly once, exactly after return, the `ppoll` contract.
    pub fn sigmask_restore_after_wait(&mut self, tid: Tid) {
        let Ok(task) = self.task_mut(tid) else { return };
        let Some(old) = task.saved_sigmask.take() else {
            return;
        };
        task.sigmask = old;
        if !task.pending.is_empty() || !task.shared_pending.lock_ok().is_empty() {
            task.sig_hint.set(true);
        }
    }

    /// `rt_sigpending`.
    pub fn sys_rt_sigpending(&self, tid: Tid) -> SysResult<SigSet> {
        let t = self.task(tid)?;
        Ok(SigSet(
            t.pending.mask().0 | t.shared_pending.lock_ok().mask().0,
        ))
    }

    /// `kill(pid, sig)`.
    pub fn sys_kill(&mut self, _tid: Tid, pid: i32, signo: i32) -> SysResult {
        if signo == 0 {
            // Existence probe.
            return if self.tasks.values().any(|t| t.tgid == pid && !t.exited()) {
                Ok(0)
            } else {
                Err(Errno::Esrch.into())
            };
        }
        if !(1..64).contains(&signo) {
            return Err(Errno::Einval.into());
        }
        if pid > 0 {
            self.send_signal_to_process(pid, signo)?;
        } else if pid == -1 {
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.tgid != 1 && !t.exited())
                .map(|t| t.tgid)
                .collect();
            for t in targets {
                let _ = self.send_signal_to_process(t, signo);
            }
        } else {
            // Process group.
            let pgid = if pid == 0 {
                self.task(_tid)?.pgid
            } else {
                -pid
            };
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.pgid == pgid && !t.exited())
                .map(|t| t.tgid)
                .collect();
            if targets.is_empty() {
                return Err(Errno::Esrch.into());
            }
            for t in targets {
                let _ = self.send_signal_to_process(t, signo);
            }
        }
        Ok(0)
    }

    /// `tgkill(tgid, tid, sig)`: thread-directed signal.
    pub fn sys_tgkill(&mut self, _me: Tid, tgid: Pid, tid: Tid, signo: i32) -> SysResult {
        let t = self.task_mut(tid)?;
        if t.tgid != tgid {
            return Err(Errno::Esrch.into());
        }
        if !(1..64).contains(&signo) {
            return Err(Errno::Einval.into());
        }
        t.pending.add(signo);
        t.sig_hint.set(true);
        self.waits.post(Channel::Signal(tid));
        Ok(0)
    }

    /// Generates `signo` for process `pid` (stage 2 of the lifecycle).
    pub fn send_signal_to_process(&mut self, pid: Pid, signo: i32) -> Result<(), Errno> {
        let main = self.tasks.get(&pid).ok_or(Errno::Esrch)?;
        if main.tgid != pid || main.exited() {
            return Err(Errno::Esrch);
        }
        main.shared_pending.lock_ok().add(signo);
        for t in self.group_tids(pid) {
            if let Some(task) = self.tasks.get(&t) {
                task.sig_hint.set(true);
            }
            // Signal arrival is a wake-up source: parked EINTR-able calls
            // and `pause`/`sigtimedwait` waiters must retry.
            self.waits.post(Channel::Signal(t));
        }
        // SIGCONT resumes stopped tasks at generation time, like Linux.
        if signo == Signal::Sigcont.number() {
            let tids = self.group_tids(pid);
            for t in tids {
                if let Some(task) = self.tasks.get_mut(&t) {
                    if task.state == TaskState::Stopped {
                        task.state = TaskState::Running;
                    }
                }
            }
        }
        Ok(())
    }

    /// Picks the next deliverable signal for `tid`, applying dispositions:
    /// ignored signals are consumed silently; fatal ones terminate the
    /// process; stop/continue adjust task states; handlers are returned to
    /// the embedder for execution at a safepoint (§3.3 stage 4).
    pub fn next_signal(&mut self, tid: Tid) -> Option<SignalDelivery> {
        loop {
            let (signo, action, old_mask) = {
                let task = self.tasks.get_mut(&tid)?;
                if task.exited() {
                    return None;
                }
                let mask = task.sigmask;
                let signo = task
                    .pending
                    .take_deliverable(mask)
                    .or_else(|| task.shared_pending.lock_ok().take_deliverable(mask))?;
                let action = task.sighand.lock_ok().get(signo);
                (signo, action, mask)
            };
            match disposition(signo, action) {
                Disposition::Ignore => continue,
                Disposition::Continue => continue,
                Disposition::Stop => {
                    let tgid = self.tasks.get(&tid)?.tgid;
                    for t in self.group_tids(tgid) {
                        if let Some(task) = self.tasks.get_mut(&t) {
                            task.state = TaskState::Stopped;
                        }
                    }
                    continue;
                }
                Disposition::Kill => {
                    let tgid = self.tasks.get(&tid)?.tgid;
                    self.terminate_group(tgid, w_termsig(signo), None);
                    return Some(SignalDelivery::Killed { signo });
                }
                Disposition::Handler(action) => {
                    let task = self.tasks.get_mut(&tid)?;
                    // Block the handler's mask plus the signal itself
                    // (unless SA_NODEFER) for the handler's duration.
                    let mut during = SigSet(old_mask.0 | action.mask);
                    if action.flags & wali_abi::signals::SA_NODEFER == 0 {
                        during.insert(signo);
                    }
                    task.sigmask = during;
                    if action.flags & wali_abi::signals::SA_RESETHAND != 0 {
                        task.sighand.lock_ok().set(signo, WaliSigaction::default());
                    }
                    return Some(SignalDelivery::Handler {
                        signo,
                        action,
                        old_mask,
                    });
                }
            }
        }
    }

    /// Restores the mask after a handler completes.
    pub fn signal_return(&mut self, tid: Tid, old_mask: SigSet) {
        if let Some(task) = self.tasks.get_mut(&tid) {
            task.sigmask = old_mask;
            // Previously-masked pending signals may now be deliverable.
            if !task.pending.is_empty() || !task.shared_pending.lock_ok().is_empty() {
                task.sig_hint.set(true);
            }
        }
    }

    /// True if an unblocked signal is pending (EINTR condition for
    /// blocking syscalls).
    pub fn has_pending_signal(&self, tid: Tid) -> bool {
        let Ok(task) = self.task(tid) else {
            return false;
        };
        let mask = task.sigmask;
        let pend = SigSet(task.pending.mask().0 | task.shared_pending.lock_ok().mask().0);
        SigSet(pend.0 & !mask.0).lowest().is_some()
    }

    /// `pause`: blocks until a signal arrives.
    pub fn sys_pause(&mut self, tid: Tid) -> SysResult {
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        self.waits.subscribe(tid, Channel::Signal(tid));
        Err(block())
    }

    /// `alarm(seconds)`: schedules SIGALRM; returns remaining seconds of a
    /// previous alarm.
    pub fn sys_alarm(&mut self, tid: Tid, seconds: u32) -> SysResult {
        let now = self.clock.monotonic_ns();
        let task = self.task_mut(tid)?;
        let prev = task
            .alarm_deadline
            .map(|d| d.saturating_sub(now).div_ceil(1_000_000_000))
            .unwrap_or(0);
        task.alarm_deadline = if seconds == 0 {
            None
        } else {
            Some(now + seconds as u64 * 1_000_000_000)
        };
        Ok(prev as i64)
    }

    /// Fires expired timers; the scheduler calls this after advancing the
    /// clock.
    pub fn fire_timers(&mut self) {
        let now = self.clock.monotonic_ns();
        let expired: Vec<Pid> = self
            .tasks
            .values()
            .filter(|t| t.alarm_deadline.map(|d| d <= now).unwrap_or(false))
            .map(|t| t.tgid)
            .collect();
        for pid in expired {
            for t in self.group_tids(pid) {
                if let Some(task) = self.tasks.get_mut(&t) {
                    task.alarm_deadline = None;
                }
            }
            let _ = self.send_signal_to_process(pid, Signal::Sigalrm.number());
        }
    }

    /// Earliest wake-up deadline over all tasks (sleep or alarm), used by
    /// the scheduler when everything is blocked.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.tasks.values().filter_map(|t| t.alarm_deadline).min()
    }

    // --- Futex -------------------------------------------------------------

    /// `futex(FUTEX_WAIT)`: the embedder has already compared the word
    /// (cooperative scheduling makes the check race-free) and passes
    /// whether it matched.
    pub fn sys_futex_wait(
        &mut self,
        tid: Tid,
        mm: MmId,
        addr: u32,
        value_matches: bool,
        deadline: Option<u64>,
    ) -> SysResult {
        let task = self.task_mut(tid)?;
        if task.futex_woken {
            task.futex_woken = false;
            if let Some(q) = self.futexes.get_mut(&(mm, addr)) {
                q.retain(|t| *t != tid)
            }
            return Ok(0);
        }
        if !value_matches {
            return Err(Errno::Eagain.into());
        }
        if let Some(d) = deadline {
            if self.clock.monotonic_ns() >= d {
                if let Some(q) = self.futexes.get_mut(&(mm, addr)) {
                    q.retain(|t| *t != tid)
                }
                return Err(Errno::Etimedout.into());
            }
        }
        let q = self.futexes.entry((mm, addr)).or_default();
        if !q.contains(&tid) {
            q.push_back(tid);
        }
        self.waits.subscribe(tid, Channel::Futex(mm, addr));
        // Parity with every other blocking site: signal generation
        // re-queues the waiter (its retry re-parks if the word is still
        // unchanged, but killed/terminated tasks get finalized promptly).
        self.waits.subscribe(tid, Channel::Signal(tid));
        Err(match deadline {
            Some(d) => block_until(d),
            None => block(),
        })
    }

    /// `futex(FUTEX_WAKE)`: wakes up to `count` waiters, returns the
    /// number woken.
    pub fn sys_futex_wake(&mut self, mm: MmId, addr: u32, count: usize) -> SysResult {
        Ok(self.futex_wake_at(mm, addr, count) as i64)
    }

    fn futex_wake_at(&mut self, mm: MmId, addr: u32, count: usize) -> usize {
        let Some(q) = self.futexes.get_mut(&(mm, addr)) else {
            return 0;
        };
        let mut woken = 0;
        let mut wake_tids = Vec::new();
        while woken < count {
            let Some(t) = q.pop_front() else { break };
            if let Some(task) = self.tasks.get_mut(&t) {
                task.futex_woken = true;
                woken += 1;
                wake_tids.push(t);
            }
        }
        for t in wake_tids {
            self.waits.wake(t);
        }
        woken
    }

    // --- Time --------------------------------------------------------------

    /// `clock_gettime`.
    pub fn sys_clock_gettime(&self, clock_id: i32) -> SysResult<u64> {
        use wali_abi::flags::*;
        match clock_id {
            CLOCK_REALTIME => Ok(self.clock.realtime_ns()),
            CLOCK_MONOTONIC
            | CLOCK_MONOTONIC_RAW
            | CLOCK_PROCESS_CPUTIME_ID
            | CLOCK_THREAD_CPUTIME_ID => Ok(self.clock.monotonic_ns()),
            _ => Err(Errno::Einval.into()),
        }
    }

    /// `nanosleep`: blocks until the virtual deadline.
    pub fn sys_nanosleep(&mut self, tid: Tid, duration_ns: u64) -> SysResult {
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        let deadline = self.clock.monotonic_ns() + duration_ns;
        // The deadline is the primary wake-up; a signal ends the sleep
        // early (EINTR on the retry).
        self.waits.subscribe(tid, Channel::Signal(tid));
        Err(block_until(deadline))
    }

    /// Retry entry for `nanosleep`: completes once the deadline passed.
    pub fn sys_nanosleep_retry(&mut self, tid: Tid, deadline: u64) -> SysResult {
        if self.clock.monotonic_ns() >= deadline {
            return Ok(0);
        }
        if self.has_pending_signal(tid) {
            return Err(Errno::Eintr.into());
        }
        self.waits.subscribe(tid, Channel::Signal(tid));
        Err(block_until(deadline))
    }

    // --- Misc --------------------------------------------------------------

    /// `uname`.
    pub fn sys_uname(&self) -> WaliUtsname {
        WaliUtsname {
            sysname: "Linux".into(),
            nodename: "wali-vm".into(),
            release: "6.1.0-wali".into(),
            version: "#1 SMP wali-rs".into(),
            machine: "wasm32".into(),
            domainname: "(none)".into(),
        }
    }

    /// `getrandom`: deterministic xorshift stream.
    pub fn sys_getrandom(&mut self, out: &mut [u8]) -> SysResult {
        for chunk in out.chunks_mut(8) {
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            let bytes = self.rng_state.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Ok(out.len() as i64)
    }

    /// Virtual CPU-time accounting hook for `getrusage`/`times`.
    pub fn account_user_time(&mut self, tid: Tid, ns: u64) {
        if let Ok(t) = self.task_mut(tid) {
            t.rusage.utime_ns += ns;
        }
    }

    /// Snapshot of a task's accounting.
    pub fn rusage_of(&self, tid: Tid) -> Rusage {
        self.task(tid).map(|t| t.rusage).unwrap_or_default()
    }

    /// Takes the captured console output.
    pub fn take_console(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console)
    }

    pub(crate) fn alloc_pipe(&mut self) -> usize {
        self.pipes.insert(Pipe::new())
    }

    /// Runs `f` under the per-pipe lock (first-free-slot reuse keeps the
    /// ids bit-identical to the pre-shard `Vec<Option<Pipe>>` table).
    /// Takes `&self`: the closure may subscribe waiters through
    /// `self.waits` (Object rank 20 → Waits rank 40), but must not call
    /// back into pipe/socket accessors (equal rank is a violation).
    pub(crate) fn with_pipe<R>(
        &self,
        id: usize,
        f: impl FnOnce(&mut Pipe) -> R,
    ) -> Result<R, Errno> {
        self.pipes.with(id, f).ok_or(Errno::Ebadf)
    }

    pub(crate) fn alloc_socket(&mut self, sock: Socket) -> usize {
        self.sockets.insert(sock)
    }

    /// Runs `f` under the per-socket lock. Same rules as
    /// [`Kernel::with_pipe`]; two-socket flows (send to a connected
    /// peer) must take the locks one after the other, never nested.
    pub(crate) fn with_sock<R>(
        &self,
        id: usize,
        f: impl FnOnce(&mut Socket) -> R,
    ) -> Result<R, Errno> {
        self.sockets.with(id, f).ok_or(Errno::Ebadf)
    }

    // --- Teardown audit ----------------------------------------------------

    /// Audits kernel state after a full run, for leak detection.
    ///
    /// Every task exit releases its descriptor table
    /// (`Kernel::release_task_files`), which frees pipe/socket/epoll
    /// slots when the last reference drops; `wait4` removes reaped tasks
    /// from the task map; wakeups unsubscribe their waiters. So once the
    /// embedder has run a workload to completion, the kernel should hold
    /// nothing but init and unreaped zombie groups (the embedder never
    /// reaps the main process — its status *is* the run outcome). Any
    /// other residue is a leak: a pipe slot still allocated, a wait
    /// subscription never dropped, a live futex waiter stranded on a
    /// word. The fuzzer's liveness oracle calls this at reap.
    pub fn leak_audit(&self) -> LeakReport {
        let live_tasks: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.tid != 1 && !t.exited())
            .map(|t| t.tid)
            .collect();
        let zombie_tasks: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.exited())
            .map(|t| t.tid)
            .collect();
        // Futex queues may retain tids of tasks that died while queued
        // (a later wake pops and skips them); only entries for tasks
        // that still exist and have not exited indicate a stranded
        // waiter.
        let futex_waiters = self
            .futexes
            .values()
            .flatten()
            .filter(|t| {
                self.tasks
                    .get(t)
                    .map(|task| !task.exited())
                    .unwrap_or(false)
            })
            .count();
        LeakReport {
            live_tasks,
            zombie_tasks,
            open_pipes: self.pipes.live(),
            open_sockets: self.sockets.live(),
            open_epolls: self.epolls.live(),
            wait_subscriptions: self.waits.subscribed_count(),
            undrained_wakeups: self.waits.has_woken(),
            futex_waiters,
            hub_watchers: self.waits.hub_entries(),
        }
    }
}

/// What [`Kernel::leak_audit`] found still allocated at teardown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeakReport {
    /// Non-init tasks still running or stopped (never exited).
    pub live_tasks: Vec<Tid>,
    /// Zombie/dead tasks still in the task map (unreaped). The main
    /// process's group is expected here; anything else means a parent
    /// exited without reaping — informational, not counted as a leak.
    pub zombie_tasks: Vec<Tid>,
    /// Pipe slots still allocated.
    pub open_pipes: usize,
    /// Socket slots still allocated.
    pub open_sockets: usize,
    /// Epoll instances still allocated.
    pub open_epolls: usize,
    /// Wait-channel subscriptions never unsubscribed.
    pub wait_subscriptions: usize,
    /// Posted wakeups the embedder never drained (informational: the
    /// final exit can post wakes the run loop has no reason to drain).
    pub undrained_wakeups: bool,
    /// Futex-queue entries whose waiter is still a live task.
    pub futex_waiters: usize,
    /// Ready-hub routing entries never unregistered (every epoll
    /// registration removes its channel wiring at CTL_DEL/close/sweep;
    /// residue means a ring push could target a freed instance).
    pub hub_watchers: usize,
}

impl LeakReport {
    /// True when nothing leaked: no live task stranded, no fd-backed
    /// resource slot allocated, no wait subscription or live futex
    /// waiter left behind. Unreaped zombies and undrained wakeups are
    /// tolerated (see the field docs).
    pub fn is_clean(&self) -> bool {
        self.live_tasks.is_empty()
            && self.open_pipes == 0
            && self.open_sockets == 0
            && self.open_epolls == 0
            && self.wait_subscriptions == 0
            && self.futex_waiters == 0
            && self.hub_watchers == 0
    }

    /// Human-readable one-line summary of what leaked (empty if clean).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if !self.live_tasks.is_empty() {
            parts.push(format!("live tasks {:?}", self.live_tasks));
        }
        if self.open_pipes != 0 {
            parts.push(format!("{} pipe(s)", self.open_pipes));
        }
        if self.open_sockets != 0 {
            parts.push(format!("{} socket(s)", self.open_sockets));
        }
        if self.open_epolls != 0 {
            parts.push(format!("{} epoll(s)", self.open_epolls));
        }
        if self.wait_subscriptions != 0 {
            parts.push(format!("{} wait subscription(s)", self.wait_subscriptions));
        }
        if self.futex_waiters != 0 {
            parts.push(format!("{} futex waiter(s)", self.futex_waiters));
        }
        if self.hub_watchers != 0 {
            parts.push(format!("{} ready-hub watcher(s)", self.hub_watchers));
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SysError;
    use wali_abi::flags::{wexitstatus, wifexited, wifsignaled, wtermsig, CLONE_PTHREAD};
    use wali_abi::signals::SIG_IGN;

    fn kernel_with_proc() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    #[test]
    fn spawn_process_has_stdio() {
        let (k, tid) = kernel_with_proc();
        let t = k.task(tid).unwrap();
        assert_eq!(t.fdtable.lock_ok().open_count(), 3);
        assert_eq!(t.tgid, tid);
        assert_eq!(t.ppid, 1);
    }

    #[test]
    fn fork_wait_reaps_zombie() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        // Child exits 7; parent waits.
        k.sys_exit_group(child, 7).unwrap();
        let (pid, status) = k.sys_wait4(tid, -1, 0).unwrap();
        assert_eq!(pid, child);
        assert!(wifexited(status));
        assert_eq!(wexitstatus(status), 7);
        // Child is gone.
        assert!(k.task(child).is_err());
        // Second wait: no children left.
        assert_eq!(k.sys_wait4(tid, -1, 0), Err(SysError::Err(Errno::Echild)));
    }

    #[test]
    fn wait_blocks_until_child_exits() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        assert!(matches!(
            k.sys_wait4(tid, child, 0),
            Err(SysError::Block(_))
        ));
        assert_eq!(k.sys_wait4(tid, child, WNOHANG).unwrap(), (0, 0));
        k.sys_exit_group(child, 0).unwrap();
        assert_eq!(k.sys_wait4(tid, child, 0).unwrap().0, child);
    }

    #[test]
    fn parent_gets_sigchld() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        k.sys_exit_group(child, 0).unwrap();
        let pending = k.sys_rt_sigpending(tid).unwrap();
        assert!(pending.contains(Signal::Sigchld.number()));
        // Default disposition ignores it silently.
        assert_eq!(k.next_signal(tid), None);
    }

    #[test]
    fn clone_thread_shares_fdtable_and_tgid() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        assert_eq!(k.task(t2).unwrap().tgid, tid);
        // fd opened by one thread is visible in the other.
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        assert!(k.task(t2).unwrap().fdtable.lock_ok().get(r).is_ok());
    }

    #[test]
    fn clone_process_does_not_share_fdtable() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_clone(tid, 0).unwrap() as Tid;
        assert_ne!(k.task(child).unwrap().tgid, tid);
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        assert!(k.task(child).unwrap().fdtable.lock_ok().get(r).is_err());
    }

    #[test]
    fn clone_thread_requires_vm_and_sighand() {
        let (mut k, tid) = kernel_with_proc();
        assert_eq!(
            k.sys_clone(tid, CLONE_THREAD),
            Err(SysError::Err(Errno::Einval)),
            "CLONE_THREAD without CLONE_VM|CLONE_SIGHAND is EINVAL"
        );
    }

    #[test]
    fn fatal_signal_kills_process() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_kill(tid, tid, Signal::Sigterm.number()).unwrap();
        match k.next_signal(tid) {
            Some(SignalDelivery::Killed { signo }) => assert_eq!(signo, 15),
            other => panic!("{other:?}"),
        }
        assert!(k.task(tid).unwrap().exited());
        // Parent (init) can reap with the termsig status.
        let (pid, status) = k.sys_wait4(1, tid, 0).unwrap();
        assert_eq!(pid, tid);
        assert!(wifsignaled(status));
        assert_eq!(wtermsig(status), 15);
    }

    #[test]
    fn ignored_signal_is_consumed() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_rt_sigaction(
            tid,
            Signal::Sigterm.number(),
            Some(WaliSigaction {
                handler: SIG_IGN,
                flags: 0,
                mask: 0,
            }),
        )
        .unwrap();
        k.sys_kill(tid, tid, Signal::Sigterm.number()).unwrap();
        assert_eq!(k.next_signal(tid), None);
        assert!(!k.task(tid).unwrap().exited());
    }

    #[test]
    fn handler_delivery_blocks_signal_until_return() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 42,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 10, Some(action)).unwrap();
        k.sys_kill(tid, tid, 10).unwrap();
        let old_mask = match k.next_signal(tid) {
            Some(SignalDelivery::Handler {
                signo,
                action: a,
                old_mask,
            }) => {
                assert_eq!(signo, 10);
                assert_eq!(a.handler, 42);
                old_mask
            }
            other => panic!("{other:?}"),
        };
        // The signal itself is blocked during its handler (no SA_NODEFER):
        k.sys_kill(tid, tid, 10).unwrap();
        assert_eq!(k.next_signal(tid), None, "deferred during handler");
        k.signal_return(tid, old_mask);
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { .. })
        ));
    }

    #[test]
    fn sigprocmask_blocks_and_unblocks() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 7,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 12, Some(action)).unwrap();
        let mut set = SigSet::EMPTY;
        set.insert(12);
        k.sys_rt_sigprocmask(tid, SIG_BLOCK, Some(set)).unwrap();
        k.sys_kill(tid, tid, 12).unwrap();
        assert_eq!(k.next_signal(tid), None, "blocked");
        assert!(k.sys_rt_sigpending(tid).unwrap().contains(12));
        k.sys_rt_sigprocmask(tid, SIG_UNBLOCK, Some(set)).unwrap();
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { .. })
        ));
    }

    #[test]
    fn wait_sigmask_swap_is_idempotent_and_restores_once() {
        // The ppoll/epoll_pwait mask protocol: entry swaps once (retries
        // are no-ops), restore returns the original mask and raises the
        // delivery hint for signals that became deliverable.
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 5,
            flags: 0,
            mask: 0,
        };
        k.sys_rt_sigaction(tid, 10, Some(action)).unwrap();
        let mut temp = SigSet::EMPTY;
        temp.insert(10);
        k.sigmask_swap_for_wait(tid, temp);
        // A retry must not clobber the saved mask with the temp one.
        k.sigmask_swap_for_wait(tid, temp);
        assert_eq!(k.task(tid).unwrap().sigmask, temp);
        // Signal 10 arrives during the wait: masked, stays pending.
        k.sys_kill(tid, tid, 10).unwrap();
        assert_eq!(k.next_signal(tid), None, "masked during the wait");
        // The wait returns: original (empty) mask restored, delivery due.
        k.sigmask_restore_after_wait(tid);
        assert_eq!(k.task(tid).unwrap().sigmask, SigSet::EMPTY);
        assert!(k.task(tid).unwrap().sig_hint.get(), "delivery hinted");
        // A second restore without a swap is a no-op.
        k.sigmask_restore_after_wait(tid);
        assert_eq!(k.task(tid).unwrap().sigmask, SigSet::EMPTY);
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Handler { signo: 10, .. })
        ));
        assert_eq!(k.next_signal(tid), None, "delivered exactly once");
    }

    #[test]
    fn sigkill_cannot_be_caught() {
        let (mut k, tid) = kernel_with_proc();
        let action = WaliSigaction {
            handler: 9,
            flags: 0,
            mask: 0,
        };
        assert_eq!(
            k.sys_rt_sigaction(tid, Signal::Sigkill.number(), Some(action)),
            Err(SysError::Err(Errno::Einval))
        );
    }

    #[test]
    fn alarm_fires_sigalrm_after_deadline() {
        let (mut k, tid) = kernel_with_proc();
        k.sys_alarm(tid, 1).unwrap();
        assert!(k.next_timer_deadline().is_some());
        k.clock.advance(2_000_000_000);
        k.fire_timers();
        assert!(k
            .sys_rt_sigpending(tid)
            .unwrap()
            .contains(Signal::Sigalrm.number()));
        // Default SIGALRM kills.
        assert!(matches!(
            k.next_signal(tid),
            Some(SignalDelivery::Killed { signo: 14 })
        ));
    }

    #[test]
    fn futex_wait_wake_protocol() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        let mm = k.task(tid).unwrap().mm;
        // t2 waits (value matched).
        assert!(matches!(
            k.sys_futex_wait(t2, mm, 0x1000, true, None),
            Err(SysError::Block(_))
        ));
        // Waker wakes one.
        assert_eq!(k.sys_futex_wake(mm, 0x1000, 1).unwrap(), 1);
        // Retry completes.
        assert_eq!(k.sys_futex_wait(t2, mm, 0x1000, true, None).unwrap(), 0);
        // Mismatched value is EAGAIN.
        assert_eq!(
            k.sys_futex_wait(t2, mm, 0x1000, false, None),
            Err(SysError::Err(Errno::Eagain))
        );
    }

    #[test]
    fn exit_thread_wakes_joiner_via_clear_child_tid() {
        let (mut k, tid) = kernel_with_proc();
        let t2 = k.sys_clone(tid, CLONE_PTHREAD).unwrap() as Tid;
        let mm = k.task(tid).unwrap().mm;
        k.sys_set_tid_address(t2, 0x2000).unwrap();
        // Main waits on the tid word.
        assert!(matches!(
            k.sys_futex_wait(tid, mm, 0x2000, true, None),
            Err(SysError::Block(_))
        ));
        k.sys_exit_thread(t2, 0).unwrap();
        // Woken now.
        assert_eq!(k.sys_futex_wait(tid, mm, 0x2000, true, None).unwrap(), 0);
    }

    #[test]
    fn nanosleep_blocks_until_virtual_deadline() {
        let (mut k, tid) = kernel_with_proc();
        let r = k.sys_nanosleep(tid, 1_000_000);
        let deadline = match r {
            Err(SysError::Block(b)) => b.deadline.unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            k.sys_nanosleep_retry(tid, deadline),
            Err(SysError::Block(_))
        ));
        k.clock.advance_to(deadline);
        assert_eq!(k.sys_nanosleep_retry(tid, deadline).unwrap(), 0);
    }

    #[test]
    fn getrandom_is_deterministic() {
        let mut k1 = Kernel::new();
        let mut k2 = Kernel::new();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        k1.sys_getrandom(&mut a).unwrap();
        k2.sys_getrandom(&mut b).unwrap();
        assert_eq!(a, b);
        let mut c = [0u8; 16];
        k1.sys_getrandom(&mut c).unwrap();
        assert_ne!(a, c, "stream advances");
    }

    #[test]
    fn setsid_and_pgid() {
        let (mut k, tid) = kernel_with_proc();
        // Leader of its own group: setsid fails.
        assert_eq!(k.sys_setsid(tid), Err(SysError::Err(Errno::Eperm)));
        let child = k.sys_fork(tid).unwrap() as Tid;
        assert_eq!(k.sys_getpgid(child, 0).unwrap(), tid as i64);
        let sid = k.sys_setsid(child).unwrap();
        assert_eq!(sid, child as i64);
        assert_eq!(k.sys_getpgid(child, 0).unwrap(), child as i64);
    }

    #[test]
    fn leak_audit_clean_after_full_lifecycle() {
        let (mut k, tid) = kernel_with_proc();
        // Open a pipe, fork, exchange a byte, close everything, reap.
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let child = k.sys_fork(tid).unwrap() as Tid;
        k.sys_write(child, w, b"x").unwrap();
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_exit_group(child, 0).unwrap();
        k.sys_wait4(tid, child, 0).unwrap();
        k.sys_close(tid, r).unwrap();
        k.sys_close(tid, w).unwrap();
        k.sys_exit_group(tid, 0).unwrap();
        let report = k.leak_audit();
        assert!(report.is_clean(), "leaks: {}", report.describe());
        // The main process's zombie group is expected residue.
        assert_eq!(report.zombie_tasks, vec![tid]);
    }

    #[test]
    fn leak_audit_flags_open_pipe_and_live_task() {
        let (mut k, tid) = kernel_with_proc();
        let (_r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let report = k.leak_audit();
        assert!(!report.is_clean());
        assert_eq!(report.open_pipes, 1);
        assert_eq!(report.live_tasks, vec![tid]);
        assert!(report.describe().contains("pipe"));
    }

    #[test]
    fn leak_audit_flags_stranded_futex_waiter() {
        let (mut k, tid) = kernel_with_proc();
        let mm = k.task(tid).unwrap().mm;
        assert!(matches!(
            k.sys_futex_wait(tid, mm, 0x1000, true, None),
            Err(SysError::Block(_))
        ));
        let report = k.leak_audit();
        assert_eq!(report.futex_waiters, 1);
        assert!(report.wait_subscriptions > 0);
        // Once the task exits, the stale queue entry no longer counts.
        k.sys_exit_group(tid, 0).unwrap();
        assert_eq!(k.leak_audit().futex_waiters, 0);
    }

    #[test]
    fn orphans_are_reparented_to_init() {
        let (mut k, tid) = kernel_with_proc();
        let child = k.sys_fork(tid).unwrap() as Tid;
        let grandchild = k.sys_fork(child).unwrap() as Tid;
        k.sys_exit_group(child, 0).unwrap();
        assert_eq!(k.task(grandchild).unwrap().ppid, 1);
    }
}
