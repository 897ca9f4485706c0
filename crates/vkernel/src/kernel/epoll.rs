//! `epoll`: scalable readiness notification.
//!
//! A thin, deterministic model of the Linux epoll family, layered over the
//! same readiness logic as `poll` (`Kernel::poll_one`) and the same
//! waitqueues as every other blocking call:
//!
//! * the interest list is keyed by descriptor number but each
//!   registration is pinned to its **open file description** identity
//!   (`EpollReg::file`) — a closed fd whose slot number is reused by a
//!   new file does not inherit the old registration, a registration
//!   stays reportable while any `dup`/fork duplicate keeps its
//!   description open, and fully-closed registrations are swept on the
//!   next scan (Linux's description-keyed semantics, man epoll Q6);
//! * delivery is level-triggered by default; `EPOLLET` reports on a
//!   not-ready→ready edge or when a new transition (waitqueue post)
//!   arrived since the last report — Linux's re-arm-on-new-event
//!   semantics, tracked through per-channel event generations — and
//!   `EPOLLONESHOT` disarms a registration after one report until
//!   `EPOLL_CTL_MOD` re-arms it;
//! * a blocked `epoll_wait` parks on the union of the interest list's wait
//!   channels (see [`Kernel::wait_on_fds`]) and is woken by the first
//!   transition on any of them.
//!
//! # The ready ring (`WALI_NO_READY` toggles it off)
//!
//! The scan path above is O(interest) per wakeup: a 100k-registration
//! server pays for every idle connection on every event. In ready-ring
//! mode (the default), readiness flows the other way, like Linux:
//!
//! * `epoll_ctl` registers each interest entry's wait channels in the
//!   waitqueue's [`crate::wait::ReadyHub`];
//! * every waitqueue post routes through the hub, pushing the watching
//!   registrations onto their instance's `Epoll::ready` ring (the
//!   `queued` flag keeps an entry on the ring at most once) and posting
//!   [`Channel::EpollReady`] for freshly queued entries;
//! * `epoll_wait` drains the ring and re-verifies only the popped
//!   entries — O(ready), not O(interest) — re-queuing still-ready
//!   level-triggered entries; a parked waiter subscribes the single
//!   `EpollReady` channel instead of the whole interest union.
//!
//! ET edge memory, ONESHOT disarm and the description-keyed sweep use
//! the same state and formulas on both paths, so the two modes stay
//! observably identical (pinned by the adversarial tests below, the
//! `WALI_NO_READY=1` CI gate and a fuzzer oracle leg).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, Weak};

use wali_abi::flags::{
    EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLL_CLOEXEC, EPOLL_CTL_ADD,
    EPOLL_CTL_DEL, EPOLL_CTL_MOD, POLLERR, POLLHUP, POLLIN, POLLOUT,
};
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef, OpenFile};
use crate::lockorder::Tracked;
use crate::sync::MutexExt;
use crate::wait::Channel;
use crate::{SysResult, Tid};

use super::Kernel;

/// One interest-list registration. Like Linux, the registration key is
/// the `(fd number, open file description)` *pair*: the `file` identity
/// pins it to the description that was registered, so a closed-and-reused
/// fd number neither inherits nor displaces a registration whose
/// description is still alive through a duplicate.
#[derive(Clone, Debug)]
pub(crate) struct EpollReg {
    pub(crate) fd: i32,
    pub(crate) events: u32,
    pub(crate) data: u64,
    pub(crate) file: Weak<Mutex<OpenFile>>,
    /// `EPOLLET` state: the readiness mask the previous scan observed.
    /// A bit reports when it rises, or when the registration's event
    /// generation moved (a new transition arrived — Linux re-notifies
    /// ET on new data even while the level stays high). Level-triggered
    /// registrations ignore this field.
    pub(crate) prev_ready: u32,
    /// `EPOLLET` state: sum of the wait-channel event generations at
    /// the previous scan.
    pub(crate) prev_gen: u64,
    /// `EPOLLONESHOT` state: cleared after one report; `EPOLL_CTL_MOD`
    /// re-arms. Disarmed registrations neither report nor contribute
    /// wait channels.
    pub(crate) armed: bool,
    /// Ready-ring state: true while this registration sits on
    /// [`Epoll::ready`] (keeps it on the ring at most once).
    pub(crate) queued: bool,
    /// The wait channels this registration is registered for in the
    /// [`crate::wait::ReadyHub`] (ring mode only; empty on the scan
    /// path). Kept exact so `EPOLL_CTL_DEL`/`MOD`, the dead-description
    /// sweep and instance release can unregister precisely.
    pub(crate) hub_chans: Vec<Channel>,
}

/// One epoll instance: the interest list and its ready ring.
#[derive(Clone, Debug, Default)]
pub struct Epoll {
    /// Registrations keyed by a monotone insertion key (key order ==
    /// registration order, so scans and ring pops report
    /// deterministically); entries whose description is fully closed are
    /// swept on the next scan/pop. Several entries may share an fd
    /// number when a slot was reused while a dup keeps the old
    /// description alive — exactly Linux's (fd, file) pair keying.
    pub(crate) interest: BTreeMap<u64, EpollReg>,
    /// Next insertion key.
    pub(crate) next_key: u64,
    /// The ready ring: keys pushed by readiness transitions, popped by
    /// `epoll_wait`. May hold keys whose registration has since been
    /// deleted (pops skip unknown keys).
    pub(crate) ready: VecDeque<u64>,
    /// fd number → registration keys (the `epoll_ctl` lookup index; a
    /// number maps to several keys when a reused slot coexists with a
    /// dup-kept registration).
    pub(crate) by_fd: HashMap<i32, Vec<u64>>,
    /// Recycled buffer for the fallback path's interest snapshot
    /// ([`Kernel::epoll_interest_descs`]): kills the per-scan `Vec`
    /// allocation.
    pub(crate) scratch: Vec<(FileRef, i16)>,
}

impl Epoll {
    /// Queues registration `key` on the ready ring. Returns `true` iff
    /// the registration exists, is armed and was not already queued —
    /// i.e. iff the caller should post [`Channel::EpollReady`].
    /// Idempotent: racing pushes of the same key enqueue it once.
    pub(crate) fn ring_push(&mut self, key: u64) -> bool {
        let Some(reg) = self.interest.get_mut(&key) else {
            return false;
        };
        if !reg.armed || reg.queued {
            return false;
        }
        reg.queued = true;
        self.ready.push_back(key);
        true
    }

    /// Inserts a registration under a fresh key, maintaining the fd
    /// index.
    fn insert_reg(&mut self, reg: EpollReg) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.by_fd.entry(reg.fd).or_default().push(key);
        self.interest.insert(key, reg);
        key
    }

    /// Removes registration `key`, maintaining the fd index. A stale
    /// copy of the key may remain on the ready ring; pops skip it.
    fn remove_reg(&mut self, key: u64) -> Option<EpollReg> {
        let reg = self.interest.remove(&key)?;
        if let Some(keys) = self.by_fd.get_mut(&reg.fd) {
            keys.retain(|&k| k != key);
            if keys.is_empty() {
                self.by_fd.remove(&reg.fd);
            }
        }
        Some(reg)
    }

    /// The key registered for the `(fd, description)` pair, if any.
    fn find(&self, fd: i32, target: &Option<FileRef>) -> Option<u64> {
        let keys = self.by_fd.get(&fd)?;
        keys.iter().copied().find(|k| {
            self.interest.get(k).is_some_and(|reg| {
                reg.file
                    .upgrade()
                    .zip(target.clone())
                    .map(|(a, b)| Arc::ptr_eq(&a, &b))
                    .unwrap_or(false)
            })
        })
    }

    /// Removes every registration whose description is fully closed,
    /// returning them so the caller can unregister their hub channels.
    fn sweep_dead(&mut self) -> Vec<(u64, EpollReg)> {
        let dead: Vec<u64> = self
            .interest
            .iter()
            .filter(|(_, r)| r.file.strong_count() == 0)
            .map(|(k, _)| *k)
            .collect();
        dead.into_iter()
            .filter_map(|k| self.remove_reg(k).map(|r| (k, r)))
            .collect()
    }
}

/// One entry the ready-ring pop drained, verified outside the epoll
/// lock: a copy of the registration's scalar state (the description is
/// a `Weak` handle, its clone a reference-count bump).
#[derive(Debug)]
pub(crate) struct PopCand {
    key: u64,
    file: Weak<Mutex<OpenFile>>,
    events: u32,
    data: u64,
    prev_ready: u32,
    prev_gen: u64,
    outcome: PopOutcome,
}

/// What verification decided for a [`PopCand`].
#[derive(Clone, Copy, Debug)]
enum PopOutcome {
    /// Past the caller's budget: back onto the ring as it was.
    Unverified,
    /// The description is fully closed: sweep the registration.
    Dead,
    /// Probed: the edge state to store, and whether to disarm
    /// (`EPOLLONESHOT`) and re-queue (level-triggered and still ready).
    Verified {
        ready: u32,
        gen: u64,
        disarm: bool,
        requeue: bool,
    },
}

/// Converts an epoll interest mask to the `poll` events to probe.
fn epoll_to_poll(events: u32) -> i16 {
    let mut ev = 0i16;
    if events & EPOLLIN != 0 {
        ev |= POLLIN;
    }
    if events & EPOLLOUT != 0 {
        ev |= POLLOUT;
    }
    ev
}

/// Converts `poll` revents back to an epoll report mask, filtered by the
/// registered interest (ERR/HUP are always reported, like Linux).
fn poll_to_epoll(revents: i16, interest: u32) -> u32 {
    let mut ev = 0u32;
    if revents & POLLIN != 0 && interest & EPOLLIN != 0 {
        ev |= EPOLLIN;
    }
    if revents & POLLOUT != 0 && interest & EPOLLOUT != 0 {
        ev |= EPOLLOUT;
    }
    if revents & POLLERR != 0 {
        ev |= EPOLLERR;
    }
    if revents & POLLHUP != 0 {
        ev |= EPOLLHUP;
    }
    ev
}

impl Kernel {
    fn alloc_epoll(&mut self) -> usize {
        self.epolls.insert(Epoll::default())
    }

    /// Runs `f` under epoll instance `id`'s own lock (rank
    /// [`LockClass::Epoll`](crate::lockorder::LockClass), below the
    /// pipe/socket object rank so a scan may look at objects while the
    /// interest list is held — though the scan paths below deliberately
    /// snapshot first and never do).
    pub(crate) fn with_epoll<R>(
        &self,
        id: usize,
        f: impl FnOnce(&mut Epoll) -> R,
    ) -> Result<R, Errno> {
        self.epolls.with(id, f).ok_or(Errno::Ebadf)
    }

    /// Resolves `epfd` to its epoll instance id (`EBADF` for a closed
    /// fd, `EINVAL` for a non-epoll one). A blocking `epoll_wait`
    /// resolves once per attempt and passes the id to the pop, the
    /// subscribe and the recheck.
    pub fn epoll_of_fd(&self, tid: Tid, epfd: i32) -> Result<usize, Errno> {
        let task = self.task(tid)?;
        let table = task.fdtable.lock_ok();
        let file = table.get(epfd)?.file.lock_ok();
        match file.kind {
            FileKind::Epoll(id) => Ok(id),
            _ => Err(Errno::Einval),
        }
    }

    /// The live interest list of epoll instance `id` as `(description,
    /// poll-events)` pairs (readiness + waitqueue subscription helper).
    /// Registrations whose description has been fully closed are skipped.
    ///
    /// The returned buffer is the instance's recycled scratch — return
    /// it via [`Kernel::epoll_descs_recycle`] when done so repeated
    /// fallback scans allocate nothing.
    pub(crate) fn epoll_interest_descs(&self, id: usize) -> Vec<(FileRef, i16)> {
        self.with_epoll(id, |e| {
            let mut buf = std::mem::take(&mut e.scratch);
            buf.clear();
            for reg in e.interest.values().filter(|r| r.armed) {
                if let Some(f) = reg.file.upgrade() {
                    buf.push((f, epoll_to_poll(reg.events)));
                }
            }
            buf
        })
        .unwrap_or_default()
    }

    /// Hands an [`Kernel::epoll_interest_descs`] buffer back to the
    /// instance for reuse (drops the description refs it held).
    pub(crate) fn epoll_descs_recycle(&self, id: usize, mut buf: Vec<(FileRef, i16)>) {
        buf.clear();
        let _ = self.with_epoll(id, |e| {
            if e.scratch.capacity() < buf.capacity() {
                e.scratch = std::mem::take(&mut buf);
            }
        });
    }

    /// Frees an epoll instance when its last descriptor closes,
    /// unregistering every ready-hub channel its registrations held.
    pub(crate) fn release_epoll(&mut self, id: usize) {
        let Some(ep) = self.epolls.free(id) else {
            return;
        };
        let chans: Vec<(Channel, u64)> = {
            let g = ep.lock_ok();
            g.interest
                .iter()
                .flat_map(|(k, r)| r.hub_chans.iter().map(move |c| (*c, *k)))
                .collect()
        };
        for (ch, key) in chans {
            self.waits.hub_unregister(ch, id, key);
        }
        self.waits
            .forget(&[Channel::EpollCtl(id), Channel::EpollReady(id)]);
    }

    /// `epoll_create1(flags)`: allocates an instance and its fd.
    pub fn sys_epoll_create1(&mut self, tid: Tid, flags: i32) -> SysResult<i32> {
        if flags & !EPOLL_CLOEXEC != 0 {
            return Err(Errno::Einval.into());
        }
        let id = self.alloc_epoll();
        let file: FileRef = Arc::new(Mutex::new(OpenFile::new(FileKind::Epoll(id), 0)));
        let task = self.task(tid)?;
        let fd = task
            .fdtable
            .lock_ok()
            .alloc(file, flags & EPOLL_CLOEXEC != 0)?;
        Ok(fd)
    }

    /// `epoll_ctl(epfd, op, fd, event)`.
    pub fn sys_epoll_ctl(
        &mut self,
        tid: Tid,
        epfd: i32,
        op: i32,
        fd: i32,
        events: u32,
        data: u64,
    ) -> SysResult {
        let id = self.epoll_of_fd(tid, epfd)?;
        // The target must be an open descriptor of the caller.
        let (kind, file) = {
            let task = self.task(tid)?;
            let table = task.fdtable.lock_ok();
            let entry = table.get(fd)?;
            let pair = (
                entry.file.lock_ok().kind.clone(),
                Arc::downgrade(&entry.file),
            );
            pair
        };
        if matches!(kind, FileKind::Epoll(_)) {
            // Nested epoll instances would make the wait-channel walk
            // cyclic; Linux reports closed loops the same way.
            return Err(Errno::Eloop.into());
        }
        let target = file.upgrade();
        // What happened under the epoll lock (hub bookkeeping and the
        // readiness probe run after it drops: they take locks that rank
        // below/above the epoll class).
        enum Edit {
            Added(u64),
            Modified(u64, Vec<Channel>),
            Deleted(Vec<Channel>, u64),
        }
        let edit = self.with_epoll(id, |ep| {
            // The registration key is the (fd, description) pair: a stale
            // entry for the same fd number but a different (or dead)
            // description does not count as "present".
            let existing = ep.find(fd, &target);
            match (op, existing) {
                (EPOLL_CTL_ADD, Some(_)) => Err(Errno::Eexist),
                (EPOLL_CTL_ADD, None) => Ok(Edit::Added(ep.insert_reg(EpollReg {
                    fd,
                    events,
                    data,
                    file: file.clone(),
                    prev_ready: 0,
                    prev_gen: 0,
                    armed: true,
                    queued: false,
                    hub_chans: Vec::new(),
                }))),
                // MOD re-arms a ONESHOT-disarmed registration and resets
                // the edge-trigger state (Linux re-arms on modify).
                (EPOLL_CTL_MOD, Some(key)) => {
                    let reg = ep.interest.get_mut(&key).expect("found key is live");
                    let old_chans = std::mem::take(&mut reg.hub_chans);
                    reg.events = events;
                    reg.data = data;
                    reg.prev_ready = 0;
                    reg.prev_gen = 0;
                    reg.armed = true;
                    Ok(Edit::Modified(key, old_chans))
                }
                (EPOLL_CTL_DEL, Some(key)) => {
                    let reg = ep.remove_reg(key).expect("found key is live");
                    Ok(Edit::Deleted(reg.hub_chans, key))
                }
                (EPOLL_CTL_MOD | EPOLL_CTL_DEL, None) => Err(Errno::Enoent),
                _ => Err(Errno::Einval),
            }
        })??;
        if !self.ready {
            // Scan mode: a parked epoll_wait waiter holds a snapshot of
            // the old interest list; wake it to re-scan (the added or
            // changed fd may already be ready), like Linux's
            // interest-change wakeups.
            self.wait_post(Channel::EpollCtl(id));
            return Ok(0);
        }
        match edit {
            Edit::Added(key) => {
                if let Some(f) = target {
                    self.ring_arm(tid, id, key, &f, events, Vec::new())?;
                }
            }
            Edit::Modified(key, old_chans) => {
                if let Some(f) = target {
                    self.ring_arm(tid, id, key, &f, events, old_chans)?;
                }
            }
            Edit::Deleted(chans, key) => {
                // No wakeup: a waiter that no longer matches this entry
                // simply never sees it (a stale ring key is skipped at
                // the next pop).
                for ch in chans {
                    self.waits.hub_unregister(ch, id, key);
                }
            }
        }
        Ok(0)
    }

    /// Ring mode: (re)wires registration `key`'s hub channels and, when
    /// the description is report-worthy right now, queues it and posts
    /// the wakeup. Registration happens *before* the readiness probe so
    /// a transition landing after the probe is guaranteed to route —
    /// and, unlike the scan path's unconditional `EpollCtl` post, a
    /// not-ready `EPOLL_CTL_ADD` wakes nobody.
    fn ring_arm(
        &mut self,
        tid: Tid,
        id: usize,
        key: u64,
        file: &FileRef,
        events: u32,
        old_chans: Vec<Channel>,
    ) -> SysResult {
        let mut chans = Vec::new();
        self.desc_wait_channels(file, epoll_to_poll(events), &mut chans);
        for &ch in &chans {
            self.waits.hub_register(ch, id, key);
        }
        for ch in old_chans {
            if !chans.contains(&ch) {
                self.waits.hub_unregister(ch, id, key);
            }
        }
        self.with_epoll(id, |ep| {
            if let Some(reg) = ep.interest.get_mut(&key) {
                reg.hub_chans = chans;
            }
        })?;
        let revents = self.poll_desc(tid, file, epoll_to_poll(events))?;
        if poll_to_epoll(revents, events) != 0 {
            let pushed = self.with_epoll(id, |ep| ep.ring_push(key))?;
            if pushed {
                self.wait_post(Channel::EpollReady(id));
            }
        }
        Ok(0)
    }

    /// Level-triggered readiness scan for `epoll_wait`: up to `max` ready
    /// `(events, data)` reports, in registration order. A registration stays live
    /// as long as *any* duplicate of its open file description exists
    /// (`dup`/fork copies keep it reportable even after the registering
    /// fd number is closed — Linux's description-keyed semantics); it is
    /// swept once the description is fully closed. Never blocks — the
    /// embedder handles timeout and parking, exactly as for `poll`.
    pub fn sys_epoll_ready(
        &mut self,
        tid: Tid,
        id: usize,
        max: usize,
    ) -> SysResult<Vec<(u32, u64)>> {
        if self.ready {
            self.epoll_ready_ring(tid, id, max)
        } else {
            self.epoll_ready_scan(tid, id, max)
        }
    }

    /// The fallback full scan (`WALI_NO_READY=1`): walks the whole
    /// interest list, O(interest) per call.
    fn epoll_ready_scan(&mut self, tid: Tid, id: usize, max: usize) -> SysResult<Vec<(u32, u64)>> {
        // Snapshot the interest list so no epoll guard is held across the
        // `poll_desc` scans below (which take pipe/socket object locks).
        let interest: Vec<(u64, EpollReg)> = self.with_epoll(id, |e| {
            e.interest.iter().map(|(k, r)| (*k, r.clone())).collect()
        })?;
        let mut out = Vec::new();
        let mut swept = false;
        // Deferred per-registration state updates (ET edge/generation
        // memory, ONESHOT disarm), applied after the scan: `poll_desc`
        // needs `&mut self`, so the loop runs over a snapshot.
        let mut updates: Vec<(u64, u32, u64, bool)> = Vec::new();
        for (key, reg) in interest {
            if out.len() >= max.max(1) {
                break;
            }
            let Some(file) = reg.file.upgrade() else {
                swept = true;
                continue;
            };
            if !reg.armed {
                // ONESHOT fired and not yet re-armed by EPOLL_CTL_MOD.
                continue;
            }
            let revents = self.poll_desc(tid, &file, epoll_to_poll(reg.events))?;
            let ready = poll_to_epoll(revents, reg.events);
            let et = reg.events & EPOLLET != 0;
            let gen = if et {
                self.desc_event_gen(&file, epoll_to_poll(reg.events))
            } else {
                0
            };
            let report = if et {
                // Edge-triggered: report bits that rose since the
                // previous scan, or everything ready when a new
                // transition arrived in between (generation moved) —
                // data written between a drain and this scan must
                // re-notify, like Linux ET re-arming on new events.
                (ready & !reg.prev_ready) | if gen != reg.prev_gen { ready } else { 0 }
            } else {
                ready
            };
            let disarm = reg.events & EPOLLONESHOT != 0 && report != 0;
            if reg.prev_ready != ready || reg.prev_gen != gen || disarm {
                updates.push((key, ready, gen, disarm));
            }
            if report != 0 {
                out.push((report, reg.data));
            }
        }
        let removed = self.with_epoll(id, |ep| {
            for (key, prev_ready, prev_gen, disarm) in &updates {
                if let Some(reg) = ep.interest.get_mut(key) {
                    reg.prev_ready = *prev_ready;
                    reg.prev_gen = *prev_gen;
                    if *disarm {
                        reg.armed = false;
                    }
                }
            }
            if swept {
                ep.sweep_dead()
            } else {
                Vec::new()
            }
        })?;
        self.hub_unregister_regs(id, removed);
        Ok(out)
    }

    /// The ready-ring pop (`epoll_wait`'s default path): drains the
    /// ring, re-verifies only the popped entries — O(ready) — and
    /// re-queues still-ready level-triggered entries plus anything past
    /// the caller's budget.
    ///
    /// The candidates and the channel list live in buffers the kernel
    /// keeps between pops, and each candidate carries only the scalar
    /// registration state it needs: an empty pop allocates nothing, and
    /// a pop that finds its entries no longer ready allocates nothing
    /// either. Only the reports themselves, a sweep and a rewire
    /// allocate.
    fn epoll_ready_ring(&mut self, tid: Tid, id: usize, max: usize) -> SysResult<Vec<(u32, u64)>> {
        let max = max.max(1);
        // One slab lookup per pop: every phase locks the same handle.
        let ep = self.epolls.get(id).ok_or(Errno::Ebadf)?;
        let mut cands = std::mem::take(&mut self.pop_scratch);
        let mut chans = std::mem::take(&mut self.chan_scratch);
        let r = self.pop_ring(tid, id, &ep, max, &mut cands, &mut chans);
        cands.clear();
        chans.clear();
        self.pop_scratch = cands;
        self.chan_scratch = chans;
        r
    }

    fn pop_ring(
        &mut self,
        tid: Tid,
        id: usize,
        ep: &Tracked<Epoll>,
        max: usize,
        cands: &mut Vec<PopCand>,
        chans: &mut Vec<Channel>,
    ) -> SysResult<Vec<(u32, u64)>> {
        // Phase 1: drain the whole ring under the epoll lock. `queued`
        // clears now: a transition racing the verification below
        // re-pushes and is seen by the next pop. A key is on the ring at
        // most once while queued, so the flag also drops any stale
        // duplicate. Candidates are sorted so reports come out in
        // registration order, exactly like the scan path (single-worker
        // runs stay bit-deterministic).
        {
            let mut ep = ep.lock_ok();
            let ep = &mut *ep;
            while let Some(k) = ep.ready.pop_front() {
                // Unknown key: deleted after it was queued — dropped.
                let Some(reg) = ep.interest.get_mut(&k) else {
                    continue;
                };
                if !std::mem::take(&mut reg.queued) || !reg.armed {
                    continue;
                }
                cands.push(PopCand {
                    key: k,
                    file: reg.file.clone(),
                    events: reg.events,
                    data: reg.data,
                    prev_ready: reg.prev_ready,
                    prev_gen: reg.prev_gen,
                    outcome: PopOutcome::Unverified,
                });
            }
        }
        if cands.is_empty() {
            return Ok(Vec::new());
        }
        cands.sort_unstable_by_key(|c| c.key);
        // Phase 2: verify with no epoll lock held (readiness probes and
        // channel walks take slab/object locks).
        let mut out = Vec::new();
        let mut rewire: Vec<(u64, Vec<Channel>, Vec<Channel>)> = Vec::new();
        for c in cands.iter_mut() {
            if out.len() >= max {
                // Past the caller's budget: re-queue unverified, their
                // transitions are still unconsumed.
                break;
            }
            let Some(file) = c.file.upgrade() else {
                c.outcome = PopOutcome::Dead;
                continue;
            };
            // Refresh the hub wiring first: a description's readiness
            // channels can change (a socket that connected gained its
            // peer's space channel), and registering *before* the probe
            // closes the missed-transition window. Wiring changes only
            // under the kernel lock, which this pop holds, so comparing
            // against the live registration is exact.
            chans.clear();
            self.desc_wait_channels(&file, epoll_to_poll(c.events), chans);
            let stale = ep
                .lock_ok()
                .interest
                .get(&c.key)
                .filter(|reg| reg.hub_chans != *chans)
                .map(|reg| reg.hub_chans.clone());
            if let Some(old) = stale {
                for &ch in chans.iter() {
                    if !old.contains(&ch) {
                        self.waits.hub_register(ch, id, c.key);
                    }
                }
                let removed = old.into_iter().filter(|ch| !chans.contains(ch)).collect();
                rewire.push((c.key, chans.clone(), removed));
            }
            let revents = self.poll_desc(tid, &file, epoll_to_poll(c.events))?;
            let ready = poll_to_epoll(revents, c.events);
            let et = c.events & EPOLLET != 0;
            let gen = if et {
                self.desc_event_gen(&file, epoll_to_poll(c.events))
            } else {
                0
            };
            // Same report formula as the scan path, verbatim.
            let report = if et {
                (ready & !c.prev_ready) | if gen != c.prev_gen { ready } else { 0 }
            } else {
                ready
            };
            let disarm = c.events & EPOLLONESHOT != 0 && report != 0;
            if report != 0 {
                out.push((report, c.data));
            }
            c.outcome = PopOutcome::Verified {
                ready,
                gen,
                disarm,
                // Level-triggered readiness persists until drained:
                // re-queue so the next pop re-verifies it.
                requeue: report != 0 && !et && !disarm,
            };
        }
        // Phase 3: apply under the epoll lock (ring_push is idempotent
        // against pushes that raced the verification).
        let swept = {
            let mut ep = ep.lock_ok();
            let mut swept = Vec::new();
            for c in cands.iter() {
                match c.outcome {
                    PopOutcome::Unverified => {
                        ep.ring_push(c.key);
                    }
                    PopOutcome::Dead => {
                        if let Some(reg) = ep.remove_reg(c.key) {
                            swept.push((c.key, reg));
                        }
                    }
                    PopOutcome::Verified {
                        ready,
                        gen,
                        disarm,
                        requeue,
                    } => {
                        if let Some(reg) = ep.interest.get_mut(&c.key) {
                            reg.prev_ready = ready;
                            reg.prev_gen = gen;
                            if disarm {
                                reg.armed = false;
                            }
                        }
                        if requeue {
                            ep.ring_push(c.key);
                        }
                    }
                }
            }
            for (key, chans, _) in &rewire {
                if let Some(reg) = ep.interest.get_mut(key) {
                    reg.hub_chans = chans.clone();
                }
            }
            swept
        };
        self.hub_unregister_regs(id, swept);
        for (key, _, removed) in rewire {
            for ch in removed {
                self.waits.hub_unregister(ch, id, key);
            }
        }
        Ok(out)
    }

    /// Unregisters the hub channels of removed registrations (called
    /// with no epoll lock held).
    fn hub_unregister_regs(&mut self, id: usize, removed: Vec<(u64, EpollReg)>) {
        for (key, reg) in removed {
            for ch in reg.hub_chans {
                self.waits.hub_unregister(ch, id, key);
            }
        }
    }

    /// Readiness scan addressed by epoll fd (the `epoll_wait` entry).
    pub fn sys_epoll_wait_ready(
        &mut self,
        tid: Tid,
        epfd: i32,
        max: usize,
    ) -> SysResult<Vec<(u32, u64)>> {
        let id = self.epoll_of_fd(tid, epfd)?;
        self.sys_epoll_ready(tid, id, max)
    }

    /// Parks `tid` for the blocking half of `epoll_wait` on instance
    /// `id` (see [`Kernel::epoll_of_fd`]).
    ///
    /// Ring mode subscribes exactly two channels — the instance's ready
    /// ring and the task's signal channel — regardless of interest-list
    /// size; the hub routes every relevant readiness transition to
    /// [`Channel::EpollReady`]. The fallback scan subscribes the union
    /// of every registration's wait channels, as before.
    pub fn epoll_subscribe(&mut self, tid: Tid, id: usize) -> SysResult {
        if self.ready {
            self.wait_subscribe(tid, Channel::EpollReady(id));
            self.wait_subscribe(tid, Channel::Signal(tid));
            return Ok(0);
        }
        let mut chans = Vec::new();
        let descs = self.epoll_interest_descs(id);
        for (file, events) in &descs {
            self.desc_wait_channels(file, *events, &mut chans);
        }
        self.epoll_descs_recycle(id, descs);
        for ch in chans {
            self.wait_subscribe(tid, ch);
        }
        // Interest-list edits and signals end the wait too.
        self.wait_subscribe(tid, Channel::EpollCtl(id));
        self.wait_subscribe(tid, Channel::Signal(tid));
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Channel;
    use crate::SysError;
    use wali_abi::flags::{AF_INET, SOCK_STREAM};
    use wali_abi::layout::WaliSockaddr;

    fn kp() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    #[test]
    fn create_ctl_wait_round_trip_on_pipes() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, r as u64)
            .unwrap();
        // Nothing ready yet.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Data arrives: level-triggered readiness until drained.
        k.sys_write(tid, w, b"x").unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready, vec![(EPOLLIN, r as u64)]);
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready.len(), 1, "level-triggered: still ready");
        let mut buf = [0u8; 4];
        k.sys_read(tid, r, &mut buf).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn ctl_errors_match_linux() {
        let (mut k, tid) = kp();
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        // MOD/DEL before ADD: ENOENT.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN, 0),
            Err(SysError::Err(Errno::Enoent))
        );
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_DEL, r, 0, 0),
            Err(SysError::Err(Errno::Enoent))
        );
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        // Double ADD: EEXIST.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0),
            Err(SysError::Err(Errno::Eexist))
        );
        // Bad target fd: EBADF; epoll-in-epoll: ELOOP.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, 99, EPOLLIN, 0),
            Err(SysError::Err(Errno::Ebadf))
        );
        let ep2 = k.sys_epoll_create1(tid, 0).unwrap();
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, ep2, EPOLLIN, 0),
            Err(SysError::Err(Errno::Eloop))
        );
        // Not an epoll fd: EINVAL.
        assert_eq!(
            k.sys_epoll_ctl(tid, r, EPOLL_CTL_ADD, ep, EPOLLIN, 0),
            Err(SysError::Err(Errno::Einval))
        );
    }

    #[test]
    fn listener_readiness_reports_epollin_on_pending_accept() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        let addr = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 9090,
        };
        k.sys_bind(tid, srv, addr.clone()).unwrap();
        k.sys_listen(tid, srv, 8).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, srv, EPOLLIN, 7)
            .unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, addr).unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
    }

    #[test]
    fn closed_fd_is_swept_from_interest() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        k.sys_write(tid, w, b"y").unwrap();
        k.sys_close(tid, r).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // The registration is gone: MOD now reports ENOENT (slot reused
        // by a fresh pipe).
        let (r2, _w2) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(r2, r, "lowest slot reused");
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r2, EPOLLIN, 2),
            Err(SysError::Err(Errno::Enoent))
        );
    }

    #[test]
    fn registration_survives_fd_close_while_a_dup_is_open() {
        // man epoll Q6: closing the registered fd does not drop the
        // registration while a duplicate keeps the description open.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xCAFE)
            .unwrap();
        let dup = k.sys_dup(tid, r).unwrap() as i32;
        k.sys_close(tid, r).unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0xCAFE)],
            "description alive via the dup: still reported"
        );
        // Last duplicate closes: the registration is swept.
        k.sys_close(tid, dup).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn reused_fd_slot_coexists_with_a_dup_kept_registration() {
        // Linux keys registrations by (fd, description) pair: after the
        // registered fd is closed but kept alive by a dup, the reused fd
        // number can be registered for the *new* description and both
        // registrations report independently.
        let (mut k, tid) = kp();
        let (ra, wa) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, ra, EPOLLIN, 0xA)
            .unwrap();
        let _dup = k.sys_dup(tid, ra).unwrap() as i32;
        k.sys_close(tid, ra).unwrap();
        // Pipe B reuses fd slot `ra`.
        let (rb, wb) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(rb, ra);
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, rb, EPOLLIN, 0xB)
            .unwrap();
        k.sys_write(tid, wa, b"a").unwrap();
        k.sys_write(tid, wb, b"b").unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(
            ready,
            vec![(EPOLLIN, 0xA), (EPOLLIN, 0xB)],
            "both pairs live"
        );
    }

    #[test]
    fn reused_fd_slot_does_not_inherit_a_stale_registration() {
        // Close a registered fd, reuse its slot with a *ready* file, and
        // scan: the stale registration must not report the new file
        // under the old data cookie.
        let (mut k, tid) = kp();
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xAAAA)
            .unwrap();
        k.sys_close(tid, r).unwrap();
        // Reuse the slot with a pipe that has readable data.
        let (r2, w2) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(r2, r, "lowest slot reused");
        k.sys_write(tid, w2, b"new").unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "stale registration must be swept, not matched to the new file"
        );
        // The new description can be registered fresh (ADD, not EEXIST).
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r2, EPOLLIN, 0xBBBB)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0xBBBB)]
        );
    }

    #[test]
    fn hangup_is_reported_without_interest() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, 0, 5).unwrap();
        k.sys_close(tid, w).unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready.len(), 1);
        assert_ne!(ready[0].0 & EPOLLHUP, 0);
    }

    #[test]
    fn epoll_subscribe_parks_on_interest_channels_and_write_wakes() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        let id = k.epoll_of_fd(tid, ep).unwrap();
        k.epoll_subscribe(tid, id).unwrap();
        assert!(k.task_waits(tid));
        k.sys_write(tid, w, b"wake").unwrap();
        assert_eq!(k.take_woken(), vec![tid]);
        assert!(!k.task_waits(tid), "wake clears all subscriptions");
        // Channel bookkeeping: nothing dangling.
        let _ = Channel::PipeReadable(0);
    }

    #[test]
    fn edge_triggered_reports_once_per_rising_edge() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 9)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 9)],
            "rising edge reported"
        );
        // Regression: unread data must NOT re-notify an ET registration.
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "no spurious re-notification while the level stays high"
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Drain (edge re-arms once observed clear), then write again.
        let mut buf = [0u8; 4];
        k.sys_read(tid, r, &mut buf).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        k.sys_write(tid, w, b"y").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 9)],
            "next rising edge reported again"
        );
    }

    #[test]
    fn edge_triggered_rearms_on_new_data_between_scans() {
        // Regression (SMP review): data written between a drain and the
        // next scan must re-notify an ET registration even though every
        // scan observed the level high — Linux ET re-arms on the new
        // event, not on an observed-clear scan. Without the generation
        // re-arm the waiter would park forever.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 1)
            .unwrap();
        k.sys_write(tid, w, b"a").unwrap();
        assert_eq!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().len(), 1);
        // Drain, then new data arrives BEFORE any scan observes the
        // level clear.
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_write(tid, w, b"b").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 1)],
            "new transition re-arms the edge"
        );
        // And new data while STILL ready also re-notifies (Linux ET).
        k.sys_write(tid, w, b"c").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 1)],
            "new data re-arms even while the level stays high"
        );
        // No new transition: stays quiet.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn level_triggered_still_re_reports() {
        // The ET change must not leak into default registrations.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        for _ in 0..3 {
            assert_eq!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().len(), 1);
        }
    }

    #[test]
    fn oneshot_disarms_until_ctl_mod_rearms() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 3)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 3)]
        );
        // Regression: a fired ONESHOT registration must stay silent even
        // with the level still high and across further writes.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        k.sys_write(tid, w, b"more").unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Disarmed registrations contribute no wait channels either.
        let id = k.epoll_of_fd(tid, ep).unwrap();
        k.epoll_subscribe(tid, id).unwrap();
        assert!(k.task_waits(tid), "still parked on ctl/signal channels");
        k.wait_cancel(tid);
        // MOD re-arms; the pending level is reported again.
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 4)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 4)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn oneshot_edge_combo_reports_exactly_once() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(
            tid,
            ep,
            EPOLL_CTL_ADD,
            r,
            EPOLLIN | EPOLLET | EPOLLONESHOT,
            7,
        )
        .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_write(tid, w, b"y").unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "new edge suppressed while disarmed"
        );
    }

    #[test]
    fn epoll_fd_is_pollable() {
        use wali_abi::flags::POLLIN;
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        assert_eq!(k.poll_check(tid, &[(ep, POLLIN)]).unwrap(), vec![0]);
        k.sys_write(tid, w, b"z").unwrap();
        assert_eq!(k.poll_check(tid, &[(ep, POLLIN)]).unwrap(), vec![POLLIN]);
    }

    // --- Adversarial ready-ring cases, run both toggle ways ------------

    /// Runs `body` twice: once with the ready ring on, once on the
    /// fallback scan — the two paths must agree on everything the body
    /// asserts. The mode is set before the body runs (registrations wire
    /// the hub at ctl time, so flipping mid-instance is not supported).
    fn both_modes(body: impl Fn(&mut Kernel, Tid)) {
        for ring in [true, false] {
            let (mut k, tid) = kp();
            k.set_ready(ring);
            body(&mut k, tid);
        }
    }

    #[test]
    fn ctl_del_with_a_queued_ready_entry_drops_it() {
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xD)
                .unwrap();
            // The write queues a ring entry (ring mode) — then the
            // registration is deleted before anyone pops it.
            k.sys_write(tid, w, b"x").unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_DEL, r, 0, 0).unwrap();
            assert!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
                "stale queued entry for a deleted registration must not report"
            );
            // The hub wiring went with the registration.
            assert_eq!(k.leak_audit().hub_watchers, 0);
        });
    }

    #[test]
    fn ctl_mod_racing_a_pending_push_reports_the_new_mask() {
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
                .unwrap();
            // Queue a push for EPOLLIN, then narrow the mask to
            // hangup-only before the pop: the queued entry re-verifies
            // against the *current* mask and reports nothing.
            k.sys_write(tid, w, b"x").unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, 0, 2).unwrap();
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
            // Widen it back: the still-buffered byte reports under the
            // new cookie.
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN, 3)
                .unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 3)]
            );
        });
    }

    #[test]
    fn et_rearm_is_observed_through_ring_pops_alone() {
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 7)
                .unwrap();
            k.sys_write(tid, w, b"a").unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 7)]
            );
            assert!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
                "edge consumed; no level re-report"
            );
            // New data without draining: a fresh edge must re-arm purely
            // via the transition push — no interest scan runs in ring
            // mode to notice it as a side effect.
            k.sys_write(tid, w, b"b").unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 7)]
            );
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        });
    }

    #[test]
    fn oneshot_rearm_after_a_stale_ring_entry() {
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 11)
                .unwrap();
            k.sys_write(tid, w, b"a").unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 11)]
            );
            // Disarmed: further transitions must neither report nor
            // resurrect the registration via a stale queued entry.
            k.sys_write(tid, w, b"b").unwrap();
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
            // MOD re-arms while data is still buffered: exactly one
            // report, then disarmed again.
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 12)
                .unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 12)]
            );
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        });
    }

    #[test]
    fn oneshot_rearm_with_an_undrained_queued_entry_reports_once() {
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 21)
                .unwrap();
            // Push queued but never popped; MOD re-arms on top of it
            // (the re-arm probe pushes again — the queued flag must
            // dedupe, not double-report).
            k.sys_write(tid, w, b"a").unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 22)
                .unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 22)]
            );
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        });
    }

    #[test]
    fn dup_kept_description_keeps_its_ring_wiring() {
        // man epoll Q6 through the ring: the registration (and its hub
        // wiring) follows the description, not the fd number.
        both_modes(|k, tid| {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0x96u64)
                .unwrap();
            let dup = k.sys_dup(tid, r).unwrap() as i32;
            k.sys_close(tid, r).unwrap();
            // The transition arrives *after* the registered fd closed:
            // the push must still route via the dup-kept description.
            k.sys_write(tid, w, b"x").unwrap();
            assert_eq!(
                k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
                vec![(EPOLLIN, 0x96u64)]
            );
            // Last holder closes: the sweep unhooks the hub wiring.
            k.sys_close(tid, dup).unwrap();
            assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
            assert_eq!(k.leak_audit().hub_watchers, 0);
        });
    }

    #[test]
    fn closing_the_epoll_fd_unhooks_all_hub_wiring() {
        both_modes(|k, tid| {
            let mut pipes = Vec::new();
            let ep = k.sys_epoll_create1(tid, 0).unwrap();
            for i in 0..8 {
                let (r, w) = k.sys_pipe2(tid, 0).unwrap();
                k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, i)
                    .unwrap();
                pipes.push((r, w));
            }
            k.sys_close(tid, ep).unwrap();
            assert_eq!(
                k.leak_audit().hub_watchers,
                0,
                "release_epoll must unregister every channel route"
            );
            // Transitions after release must not touch the freed slot.
            for &(_, w) in &pipes {
                k.sys_write(tid, w, b"x").unwrap();
            }
        });
    }

    #[test]
    fn ring_park_subscribes_only_the_ready_channel() {
        let (mut k, tid) = kp();
        k.set_ready(true);
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        let mut writers = Vec::new();
        for i in 0..32 {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, i)
                .unwrap();
            writers.push(w);
        }
        let before = k.wait_stats().subscribes;
        let id = k.epoll_of_fd(tid, ep).unwrap();
        k.epoll_subscribe(tid, id).unwrap();
        assert_eq!(
            k.wait_stats().subscribes - before,
            2,
            "ready ring + signal channel only, independent of interest size"
        );
        // And the two channels suffice: any member's transition wakes.
        k.sys_write(tid, writers[17], b"x").unwrap();
        assert_eq!(k.take_woken(), vec![tid]);
    }
}
