//! Kernel waitqueues: event-driven blocking.
//!
//! The original runner retried every blocked task on every scheduler pass
//! (O(blocked × passes)). The paper's server workloads (§6: memcached,
//! paho-mqtt) are readiness-driven, so blocked tasks now park on *wait
//! channels* and are woken by the exact state transition that unblocks
//! them:
//!
//! * a blocking syscall subscribes the calling task to the channel(s) it
//!   is waiting on, *then* returns [`crate::SysError::Block`];
//! * every kernel transition that can unblock a task (pipe write/close,
//!   socket send/accept, futex wake, `exit_group`, signal generation)
//!   posts a wakeup on the matching channel;
//! * the embedder drains [`WaitSet::take_woken`] each scheduling round
//!   and re-queues only the woken tasks.
//!
//! Wakeups are **edge-triggered and may be spurious**: a woken task simply
//! retries its syscall (the classic retry convention, see `lib.rs`), and
//! re-subscribes if it blocks again. The invariant that matters is the
//! converse — a task never misses the transition it waits on — which holds
//! because the kernel is single-threaded and subscription happens before
//! the `Block` return reaches the scheduler.

use std::collections::hash_map::Entry;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::hash::{FastMap, FastSet, SeededState};
use crate::kernel::epoll::Epoll;
use crate::lockorder::{LockClass, Tracked};
use crate::slab::ObjSlab;
use crate::{MmId, Pid, Tid};

/// A wait channel: the kernel-side event a blocked task parks on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Pipe `id` may have become readable (data written or writers gone).
    PipeReadable(usize),
    /// Pipe `id` may have become writable (space freed or readers gone).
    PipeWritable(usize),
    /// Socket `id` may have become readable: stream bytes or a datagram
    /// arrived, a pending connection was queued on a listener, or the
    /// peer vanished (EOF is a readable condition).
    SockReadable(usize),
    /// Space may have opened in socket `id`'s receive buffer (the channel
    /// a *peer's* blocked sender waits on), or the connection broke.
    SockSpace(usize),
    /// The eventfd description at this address became signalled. Keyed by
    /// the `Arc` pointer of the open file description (stable for the
    /// description's lifetime; never dereferenced).
    EventFd(usize),
    /// A `FUTEX_WAKE` may have hit this `(address-space, address)` word.
    Futex(MmId, u32),
    /// A child of process `pid` changed state (`wait4` wake-up).
    Child(Pid),
    /// A signal was generated for task `tid` (EINTR / `pause` wake-up).
    Signal(Tid),
    /// The interest list of epoll instance `id` changed (`epoll_ctl`
    /// while another task is parked in `epoll_wait`): the waiter must
    /// re-scan and re-subscribe against the new list, since an added fd
    /// may already be level-triggered ready.
    EpollCtl(usize),
    /// Epoll instance `id`'s ready ring received at least one entry: a
    /// parked `epoll_wait` waiter can pop instead of re-scanning. Posted
    /// by the [`ReadyHub`] router whenever a readiness transition pushes
    /// a registration onto the ring (and by `epoll_ctl` when a freshly
    /// added fd is already ready).
    EpollReady(usize),
}

/// Aggregate counters (observability + bench assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Channel subscriptions recorded.
    pub subscribes: u64,
    /// Posts that found at least one waiter.
    pub posts_hit: u64,
    /// Posts on channels nobody was waiting on (dropped, near-free).
    pub posts_miss: u64,
    /// Tasks moved to the woken list (by post or direct wake).
    pub wakeups: u64,
}

/// Slots of the ready hub's watcher filter ([`WaitShard::post`]).
const HUB_SLOTS: usize = 64;

/// Emptied waiter and subscription lists kept for reuse, at most this
/// many of each: every park fills one list per channel and one per task,
/// and every wake empties them again.
const SPARE_LISTS: usize = 64;

/// The kernel's waitqueue table.
///
/// The maps hash with the kernel's seeded [`crate::hash::FastHasher`]:
/// they are probed on every park, post and wake.
#[derive(Debug)]
pub struct WaitSet {
    /// Channel → subscribed tasks, in subscription order.
    waiters: FastMap<Channel, Vec<Tid>>,
    /// Channel → number of posts ever (hit or miss): the event
    /// generation. Edge-triggered epoll re-arms a registration when the
    /// generation of any of its channels moved — i.e. when a new
    /// transition happened since the last report, which is Linux's ET
    /// re-arm condition (new data re-notifies even while still ready).
    /// The entries of an eventfd, pipe, socket or epoll instance are
    /// dropped when it is released ([`WaitSet::forget`]).
    gens: FastMap<Channel, u64>,
    /// Reverse index: task → channels it is subscribed to.
    subscribed: FastMap<Tid, Vec<Channel>>,
    /// Woken tasks in wake order, deduplicated.
    woken: Vec<Tid>,
    woken_set: FastSet<Tid>,
    /// Lock-free mirror of `!woken.is_empty()`: SMP workers poll this
    /// between slices without taking the kernel lock (the authoritative
    /// drain still happens under it, via [`WaitSet::take_woken`]).
    woken_hint: Arc<AtomicBool>,
    /// Task → channels whose posts woke it since its last
    /// [`WaitSet::take_fired`] drain, in fire order. Batched-syscall
    /// retries (`wali_ring_enter`) consult this to re-attempt the
    /// operations whose channel actually fired first, so CQE order
    /// reflects wakeup order rather than submission order.
    fired: FastMap<Tid, Vec<Channel>>,
    /// Tasks that armed fired-channel recording for their next wakeups
    /// ([`WaitSet::track_fired`], one-shot until the next drain). Only
    /// batched-syscall parks need the record, so only they pay the
    /// per-wake bookkeeping; everyone else's wakes skip it entirely.
    tracked: FastSet<Tid>,
    /// Emptied `waiters` lists, reused by the next subscription.
    spare_tids: Vec<Vec<Tid>>,
    /// Emptied `subscribed` lists, reused by the next subscription.
    spare_chans: Vec<Vec<Channel>>,
    /// Counters.
    pub stats: WaitStats,
}

impl Default for WaitSet {
    fn default() -> WaitSet {
        WaitSet::with_hasher(SeededState::new())
    }
}

/// Returns an emptied list to its spare pool.
fn recycle<T>(pool: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    if pool.len() < SPARE_LISTS {
        list.clear();
        pool.push(list);
    }
}

impl WaitSet {
    /// Creates an empty waitqueue table.
    pub fn new() -> WaitSet {
        WaitSet::default()
    }

    /// Creates an empty waitqueue table whose maps hash with `state`.
    pub fn with_hasher(state: SeededState) -> WaitSet {
        WaitSet {
            waiters: FastMap::with_hasher(state),
            gens: FastMap::with_hasher(state),
            subscribed: FastMap::with_hasher(state),
            woken: Vec::new(),
            woken_set: FastSet::with_hasher(state),
            woken_hint: Arc::default(),
            fired: FastMap::with_hasher(state),
            tracked: FastSet::with_hasher(state),
            spare_tids: Vec::new(),
            spare_chans: Vec::new(),
            stats: WaitStats::default(),
        }
    }

    /// Subscribes `tid` to `ch`. Idempotent per `(tid, ch)` pair.
    pub fn subscribe(&mut self, tid: Tid, ch: Channel) {
        let chans = match self.subscribed.entry(tid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.spare_chans.pop().unwrap_or_default()),
        };
        if chans.contains(&ch) {
            return;
        }
        chans.push(ch);
        match self.waiters.entry(ch) {
            Entry::Occupied(e) => e.into_mut().push(tid),
            Entry::Vacant(e) => e
                .insert(self.spare_tids.pop().unwrap_or_default())
                .push(tid),
        }
        self.stats.subscribes += 1;
    }

    /// Posts a wakeup on `ch`: every subscriber moves to the woken list
    /// and is unsubscribed from *all* its channels (a woken task either
    /// completes or re-subscribes on its retry).
    pub fn post(&mut self, ch: Channel) -> usize {
        *self.gens.entry(ch).or_default() += 1;
        let Some(tids) = self.waiters.remove(&ch) else {
            self.stats.posts_miss += 1;
            return 0;
        };
        self.stats.posts_hit += 1;
        let n = tids.len();
        for &tid in &tids {
            self.wake_inner(tid, Some(ch));
        }
        recycle(&mut self.spare_tids, tids);
        n
    }

    /// Wakes one task directly (futex wake, task termination).
    pub fn wake(&mut self, tid: Tid) {
        self.unsubscribe(tid);
        self.wake_inner(tid, None);
    }

    /// Removes `tid` from the waiter lists of `chans`, except `skip`
    /// (already removed by the post that woke it).
    fn leave(&mut self, tid: Tid, chans: &[Channel], skip: Option<Channel>) {
        for &ch in chans {
            if Some(ch) == skip {
                continue;
            }
            if let Entry::Occupied(mut q) = self.waiters.entry(ch) {
                q.get_mut().retain(|t| *t != tid);
                if q.get().is_empty() {
                    recycle(&mut self.spare_tids, q.remove());
                }
            }
        }
    }

    fn wake_inner(&mut self, tid: Tid, via: Option<Channel>) {
        // Drop the task's other subscriptions (already removed from `via`).
        if let Some(chans) = self.subscribed.remove(&tid) {
            self.leave(tid, &chans, via);
            recycle(&mut self.spare_chans, chans);
        }
        if let Some(ch) = via {
            if !self.tracked.is_empty() && self.tracked.contains(&tid) {
                let log = self.fired.entry(tid).or_default();
                if !log.contains(&ch) {
                    log.push(ch);
                }
            }
        }
        if self.woken_set.insert(tid) {
            self.woken.push(tid);
            self.woken_hint.store(true, Ordering::Release);
            self.stats.wakeups += 1;
        }
    }

    /// Arms fired-channel recording for `tid`'s next wakeups, until its
    /// next [`WaitSet::take_fired`] drain or unsubscription. Called by
    /// `wali_ring_enter` each time it parks; a wake that lands before
    /// the arm merely yields an empty record (submission-order retry),
    /// which callers already treat as "re-check everything".
    pub fn track_fired(&mut self, tid: Tid) {
        self.tracked.insert(tid);
    }

    /// Removes every subscription of `tid` without waking it (task exit).
    pub fn unsubscribe(&mut self, tid: Tid) {
        self.tracked.remove(&tid);
        self.fired.remove(&tid);
        if let Some(chans) = self.subscribed.remove(&tid) {
            self.leave(tid, &chans, None);
            recycle(&mut self.spare_chans, chans);
        }
    }

    /// Drops the event generation of `ch`: its object was released, and
    /// an object that later reuses the id (or the address, for
    /// [`Channel::EventFd`]) starts from zero instead of inheriting it.
    pub fn forget(&mut self, ch: Channel) {
        self.gens.remove(&ch);
    }

    /// Number of channels with an event generation (leak diagnostics).
    pub fn generations(&self) -> usize {
        self.gens.len()
    }

    /// True when `tid` is subscribed to at least one channel.
    pub fn is_subscribed(&self, tid: Tid) -> bool {
        self.subscribed.contains_key(&tid)
    }

    /// Drains the woken list in wake order.
    pub fn take_woken(&mut self) -> Vec<Tid> {
        let mut out = Vec::new();
        self.drain_woken(&mut out);
        out
    }

    /// Drains the woken list in wake order onto the end of `out` (the
    /// scheduler's drain, which reuses one buffer).
    pub fn drain_woken(&mut self, out: &mut Vec<Tid>) {
        self.woken_set.clear();
        self.woken_hint.store(false, Ordering::Release);
        out.append(&mut self.woken);
    }

    /// Drains the channels whose posts woke `tid` since its last drain,
    /// in fire order. Empty for direct wakes (futex wake, deadline
    /// lapse) — callers must treat an empty answer as "re-check
    /// everything", never "nothing fired".
    pub fn take_fired(&mut self, tid: Tid) -> Vec<Channel> {
        self.tracked.remove(&tid);
        self.fired.remove(&tid).unwrap_or_default()
    }

    /// A shared handle onto the woken hint, checkable without any lock.
    pub fn woken_hint(&self) -> Arc<AtomicBool> {
        self.woken_hint.clone()
    }

    /// The event generation of `ch`: how many posts it has ever seen.
    pub fn generation(&self, ch: Channel) -> u64 {
        self.gens.get(&ch).copied().unwrap_or(0)
    }

    /// True when at least one task has been woken and not yet drained.
    pub fn has_woken(&self) -> bool {
        !self.woken.is_empty()
    }

    /// Number of distinct subscribed tasks (diagnostics).
    pub fn subscribed_count(&self) -> usize {
        self.subscribed.len()
    }

    /// The subscription table itself (leak diagnostics).
    pub fn subscribed_channels(&self) -> Vec<(Tid, Vec<Channel>)> {
        self.subscribed
            .iter()
            .map(|(t, chs)| (*t, chs.clone()))
            .collect()
    }
}

/// The ready-ring router's lookup table: wait channel → epoll
/// registrations whose readiness that channel's transitions may change.
///
/// Kept outside the [`WaitSet`] lock so the common post (no epoll
/// watcher on its channel) pays one hash and one atomic load, and locked at
/// [`LockClass::ReadyHub`] — *below* the slab and epoll classes — so
/// the router can look up targets and then take each target's epoll
/// lock without inverting the DAG.
#[derive(Debug, Default)]
pub struct ReadyHub {
    /// Channel → `(epoll id, registration key)` watchers.
    watchers: FastMap<Channel, Vec<(usize, u64)>>,
}

impl ReadyHub {
    /// Adds a watcher; returns `true` if it was not already present.
    fn register(&mut self, ch: Channel, eid: usize, key: u64) -> bool {
        let v = self.watchers.entry(ch).or_default();
        if v.contains(&(eid, key)) {
            return false;
        }
        v.push((eid, key));
        true
    }

    /// Removes a watcher; returns `true` if it was present.
    fn unregister(&mut self, ch: Channel, eid: usize, key: u64) -> bool {
        let Some(v) = self.watchers.get_mut(&ch) else {
            return false;
        };
        let before = v.len();
        v.retain(|&e| e != (eid, key));
        let hit = v.len() != before;
        if v.is_empty() {
            self.watchers.remove(&ch);
        }
        hit
    }
}

/// The waitqueue table behind its own shard lock.
///
/// With the big kernel lock sharded, producers (a fast-path pipe write
/// on one worker) and consumers (a subscribe-then-block on another)
/// touch the waitqueues concurrently. `WaitShard` wraps [`WaitSet`] in
/// a [`Tracked`] lock of class [`LockClass::Waits`] — the *innermost*
/// class, because the never-miss-a-wakeup protocol subscribes while
/// holding the object lock of the pipe/socket being waited on:
///
/// * consumers check object state and subscribe under the object lock;
/// * producers mutate under the object lock and post *after* releasing
///   it, so either the consumer saw the new state, or its subscription
///   was visible when the post ran.
#[derive(Clone, Debug)]
pub struct WaitShard {
    inner: Arc<Tracked<WaitSet>>,
    /// Ready-ring routing table (see [`ReadyHub`]).
    hub: Arc<Tracked<ReadyHub>>,
    /// A counting filter over the hub: slot `hash(ch) % HUB_SLOTS`
    /// counts the watcher entries whose channel hashes there. A post
    /// whose slot reads zero has no watcher and skips the hub lock
    /// entirely (scan mode, no epoll registrations, or — the common case
    /// on a busy server — a channel no epoll instance watches).
    hub_filter: Arc<[AtomicUsize; HUB_SLOTS]>,
    /// The kernel's hash seed, which places channels in the filter.
    hasher: SeededState,
    /// The kernel's epoll slab, wired once at kernel construction so
    /// the router can push onto ready rings. Posts that race the wiring
    /// window simply skip routing (no epoll exists yet to watch).
    epolls: Arc<OnceLock<ObjSlab<Epoll>>>,
}

impl Default for WaitShard {
    fn default() -> WaitShard {
        WaitShard::new()
    }
}

impl WaitShard {
    /// A fresh, empty waitqueue shard with its own hash seed.
    pub fn new() -> WaitShard {
        WaitShard::with_hasher(SeededState::new())
    }

    /// A fresh, empty waitqueue shard whose tables hash with `state`
    /// (the kernel shares one seed among all its maps).
    pub fn with_hasher(state: SeededState) -> WaitShard {
        WaitShard {
            inner: Arc::new(Tracked::new(LockClass::Waits, WaitSet::with_hasher(state))),
            hub: Arc::new(Tracked::new(
                LockClass::ReadyHub,
                ReadyHub {
                    watchers: FastMap::with_hasher(state),
                },
            )),
            hub_filter: Arc::new(std::array::from_fn(|_| AtomicUsize::new(0))),
            hasher: state,
            epolls: Arc::new(OnceLock::new()),
        }
    }

    /// Wires the kernel's epoll slab into the router (called once at
    /// kernel construction; later calls are no-ops).
    pub fn set_epolls(&self, slab: ObjSlab<Epoll>) {
        let _ = self.epolls.set(slab);
    }

    /// Registers epoll `eid`'s registration `key` as a watcher of `ch`.
    /// Must not be called while holding a lock of rank ≥
    /// [`LockClass::ReadyHub`] (notably the epoll lock itself).
    pub fn hub_register(&self, ch: Channel, eid: usize, key: u64) {
        if self.hub.lock_ok().register(ch, eid, key) {
            self.hub_slot(ch).fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Removes a watcher added by [`WaitShard::hub_register`].
    pub fn hub_unregister(&self, ch: Channel, eid: usize, key: u64) {
        if self.hub.lock_ok().unregister(ch, eid, key) {
            self.hub_slot(ch).fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// The filter slot counting the watchers of `ch`.
    fn hub_slot(&self, ch: Channel) -> &AtomicUsize {
        &self.hub_filter[self.hasher.hash_one(ch) as usize % HUB_SLOTS]
    }

    /// Total watcher entries currently in the hub (leak audits).
    pub fn hub_entries(&self) -> usize {
        self.hub_filter
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .sum()
    }

    /// See [`WaitSet::subscribe`].
    pub fn subscribe(&self, tid: Tid, ch: Channel) {
        self.inner.lock_ok().subscribe(tid, ch);
    }

    /// See [`WaitSet::post`], plus ready-ring routing: if any epoll
    /// registration watches `ch`, push it onto that instance's ready
    /// ring and post [`Channel::EpollReady`] for freshly queued entries.
    ///
    /// Locking: the waitqueue lock is released before the hub lock. The
    /// ring pushes run under the hub lock, each taking the slab and then
    /// the epoll lock, which rank above it; nothing takes the hub lock
    /// while holding either, so the nesting is rank-legal and no watcher
    /// list is copied. The hub lock is released before the recursive
    /// `EpollReady` posts, which take it again. Every acquisition starts
    /// from at most the caller's held ranks (≤ `Kernel`), so the sequence
    /// is rank-legal from every post site. Recursion terminates because a
    /// push only reports "freshly queued" once per pop cycle.
    pub fn post(&self, ch: Channel) -> usize {
        let n = self.inner.lock_ok().post(ch);
        if self.hub_slot(ch).load(Ordering::Acquire) == 0 {
            return n;
        }
        let Some(epolls) = self.epolls.get() else {
            return n;
        };
        // Instances whose ring gained an entry; a post reaches a handful
        // of watchers, so the list lives on the stack unless it spills.
        let mut fresh = [0usize; 8];
        let mut fresh_len = 0;
        let mut spilled = Vec::new();
        {
            let hub = self.hub.lock_ok();
            let Some(targets) = hub.watchers.get(&ch) else {
                return n;
            };
            for &(eid, key) in targets {
                if epolls.with(eid, |ep| ep.ring_push(key)) == Some(true) {
                    match fresh.get_mut(fresh_len) {
                        Some(slot) => {
                            *slot = eid;
                            fresh_len += 1;
                        }
                        None => spilled.push(eid),
                    }
                }
            }
        }
        for &eid in fresh[..fresh_len].iter().chain(&spilled) {
            self.post(Channel::EpollReady(eid));
        }
        n
    }

    /// See [`WaitSet::wake`].
    pub fn wake(&self, tid: Tid) {
        self.inner.lock_ok().wake(tid);
    }

    /// See [`WaitSet::unsubscribe`].
    pub fn unsubscribe(&self, tid: Tid) {
        self.inner.lock_ok().unsubscribe(tid);
    }

    /// See [`WaitSet::is_subscribed`].
    pub fn is_subscribed(&self, tid: Tid) -> bool {
        self.inner.lock_ok().is_subscribed(tid)
    }

    /// See [`WaitSet::take_woken`].
    pub fn take_woken(&self) -> Vec<Tid> {
        self.inner.lock_ok().take_woken()
    }

    /// See [`WaitSet::drain_woken`].
    pub fn drain_woken(&self, out: &mut Vec<Tid>) {
        self.inner.lock_ok().drain_woken(out);
    }

    /// [`WaitSet::forget`] for each of `chans`, under one lock.
    pub fn forget(&self, chans: &[Channel]) {
        let mut w = self.inner.lock_ok();
        for &ch in chans {
            w.forget(ch);
        }
    }

    /// See [`WaitSet::generations`].
    pub fn generations(&self) -> usize {
        self.inner.lock_ok().generations()
    }

    /// See [`WaitSet::track_fired`].
    pub fn track_fired(&self, tid: Tid) {
        self.inner.lock_ok().track_fired(tid);
    }

    /// See [`WaitSet::take_fired`].
    pub fn take_fired(&self, tid: Tid) -> Vec<Channel> {
        self.inner.lock_ok().take_fired(tid)
    }

    /// See [`WaitSet::woken_hint`].
    pub fn woken_hint(&self) -> Arc<AtomicBool> {
        self.inner.lock_ok().woken_hint()
    }

    /// See [`WaitSet::generation`].
    pub fn generation(&self, ch: Channel) -> u64 {
        self.inner.lock_ok().generation(ch)
    }

    /// See [`WaitSet::has_woken`].
    pub fn has_woken(&self) -> bool {
        self.inner.lock_ok().has_woken()
    }

    /// See [`WaitSet::subscribed_count`].
    pub fn subscribed_count(&self) -> usize {
        self.inner.lock_ok().subscribed_count()
    }

    /// See [`WaitSet::subscribed_channels`].
    pub fn subscribed_channels(&self) -> Vec<(Tid, Vec<Channel>)> {
        self.inner.lock_ok().subscribed_channels()
    }

    /// A copy of the aggregate counters.
    pub fn stats(&self) -> WaitStats {
        self.inner.lock_ok().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_post_wakes_in_order() {
        let mut w = WaitSet::new();
        w.subscribe(3, Channel::PipeReadable(0));
        w.subscribe(5, Channel::PipeReadable(0));
        w.subscribe(4, Channel::PipeWritable(0));
        assert_eq!(w.post(Channel::PipeReadable(0)), 2);
        assert_eq!(w.take_woken(), vec![3, 5]);
        assert!(w.is_subscribed(4), "other channel untouched");
        assert!(!w.is_subscribed(3));
    }

    #[test]
    fn post_without_waiters_is_a_miss() {
        let mut w = WaitSet::new();
        assert_eq!(w.post(Channel::SockReadable(9)), 0);
        assert_eq!(w.stats.posts_miss, 1);
        assert!(w.take_woken().is_empty());
    }

    #[test]
    fn multi_channel_subscription_is_fully_cleared_on_wake() {
        let mut w = WaitSet::new();
        // A poll-style waiter parks on several channels at once.
        w.subscribe(7, Channel::SockReadable(1));
        w.subscribe(7, Channel::SockReadable(2));
        w.subscribe(7, Channel::Signal(7));
        w.post(Channel::SockReadable(2));
        assert_eq!(w.take_woken(), vec![7]);
        // The other subscriptions are gone: posting them is a miss.
        assert_eq!(w.post(Channel::SockReadable(1)), 0);
        assert_eq!(w.post(Channel::Signal(7)), 0);
    }

    #[test]
    fn wake_is_deduplicated() {
        let mut w = WaitSet::new();
        w.subscribe(2, Channel::Futex(MmId(1), 64));
        w.wake(2);
        w.wake(2);
        assert_eq!(w.take_woken(), vec![2]);
        assert_eq!(w.stats.wakeups, 1);
    }

    #[test]
    fn subscribe_is_idempotent() {
        let mut w = WaitSet::new();
        w.subscribe(1, Channel::Child(1));
        w.subscribe(1, Channel::Child(1));
        assert_eq!(w.post(Channel::Child(1)), 1);
        assert_eq!(w.take_woken(), vec![1]);
    }

    #[test]
    fn fired_channels_record_wake_order_and_drain() {
        let mut w = WaitSet::new();
        w.subscribe(1, Channel::PipeReadable(3));
        w.subscribe(1, Channel::PipeWritable(4));
        w.track_fired(1);
        w.post(Channel::PipeReadable(3));
        // The retry re-subscribes the still-blocked channel; a second
        // post appends to the same undrained log (tracking is still
        // armed: only a drain or unsubscription disarms it).
        w.subscribe(1, Channel::PipeWritable(4));
        w.post(Channel::PipeWritable(4));
        assert_eq!(
            w.take_fired(1),
            vec![Channel::PipeReadable(3), Channel::PipeWritable(4)]
        );
        assert!(w.take_fired(1).is_empty(), "drain clears the log");
        // Direct wakes record no channel: an empty answer means
        // "re-check everything", so futex wakes must not fabricate one.
        w.subscribe(1, Channel::PipeReadable(3));
        w.wake(1);
        assert!(w.take_fired(1).is_empty());
        // Unsubscribe (task exit, deadline cancel) discards the log.
        w.subscribe(2, Channel::Child(9));
        w.track_fired(2);
        w.post(Channel::Child(9));
        w.unsubscribe(2);
        assert!(w.take_fired(2).is_empty());
        // A task that never armed tracking records nothing: ordinary
        // blocked retries pay no fired-log bookkeeping on their wakes.
        w.subscribe(3, Channel::Child(1));
        w.post(Channel::Child(1));
        assert!(w.take_fired(3).is_empty());
    }

    #[test]
    fn unsubscribe_drops_without_waking() {
        let mut w = WaitSet::new();
        w.subscribe(6, Channel::EventFd(0xdead));
        w.unsubscribe(6);
        assert_eq!(w.post(Channel::EventFd(0xdead)), 0);
        assert!(w.take_woken().is_empty());
    }
}
