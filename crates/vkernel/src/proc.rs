//! The sharded process index: lock-cheap access to hot per-task state.
//!
//! The full [`crate::task::Task`] lives in the kernel's task table,
//! under the big kernel lock. But the embedder's hottest paths need
//! only a handful of per-task handles — the fd table, the signal hint,
//! the address-space id, the thread-group id — and taking the kernel
//! lock just to copy those out (as `fork`/`clone` child setup and every
//! fast-path syscall would) recreates the serialization this PR
//! removes.
//!
//! [`ProcIndex`] mirrors exactly that hot subset into 16 hash-map
//! shards keyed by `tid & 15`, hashed with the kernel's seeded
//! [`crate::hash::FastHasher`]. The kernel maintains the mirror under
//! its own lock (insert on spawn/fork/clone, remove on reap), so a
//! lookup is one shard lock — uncontended unless two workers touch
//! tids in the same shard simultaneously.

use crate::fd::FdTable;
use crate::hash::{FastMap, SeededState};
use crate::lockorder::{LockClass, Tracked};
use crate::sync::{HintFlag, Shared};
use crate::task::{Pid, Tid};
use crate::MmId;
use std::sync::Arc;

/// The hot, lock-cheap subset of a task's state.
#[derive(Clone, Debug)]
pub struct TaskHot {
    /// Thread-group (process) id.
    pub tgid: Pid,
    /// The task's fd table (shared across the thread group).
    pub fdtable: Shared<FdTable>,
    /// The task's signal-pending hint flag.
    pub sig_hint: HintFlag,
    /// The task's address space.
    pub mm: MmId,
}

const SHARDS: usize = 16;

/// A cloneable, sharded tid → [`TaskHot`] index.
#[derive(Clone, Debug)]
pub struct ProcIndex {
    shards: Arc<[Tracked<FastMap<Tid, TaskHot>>; SHARDS]>,
}

impl Default for ProcIndex {
    fn default() -> ProcIndex {
        ProcIndex::new()
    }
}

impl ProcIndex {
    /// An empty index with its own hash seed.
    pub fn new() -> ProcIndex {
        ProcIndex::with_hasher(SeededState::new())
    }

    /// An empty index whose shards hash with `state`.
    pub fn with_hasher(state: SeededState) -> ProcIndex {
        ProcIndex {
            shards: Arc::new(std::array::from_fn(|_| {
                Tracked::new(LockClass::Proc, FastMap::with_hasher(state))
            })),
        }
    }

    fn shard(&self, tid: Tid) -> &Tracked<FastMap<Tid, TaskHot>> {
        &self.shards[(tid as usize) & (SHARDS - 1)]
    }

    /// Registers (or refreshes) the hot state of `tid`.
    pub fn insert(&self, tid: Tid, hot: TaskHot) {
        self.shard(tid).lock_ok().insert(tid, hot);
    }

    /// Drops `tid` from the index (reap).
    pub fn remove(&self, tid: Tid) {
        self.shard(tid).lock_ok().remove(&tid);
    }

    /// The hot state of `tid`, if registered.
    pub fn get(&self, tid: Tid) -> Option<TaskHot> {
        self.shard(tid).lock_ok().get(&tid).cloned()
    }

    /// Number of registered tasks (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock_ok().len()).sum()
    }

    /// True when no task is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::shared;

    fn hot(tgid: Pid) -> TaskHot {
        TaskHot {
            tgid,
            fdtable: shared(FdTable::new()),
            sig_hint: HintFlag::new(),
            mm: MmId(7),
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let idx = ProcIndex::new();
        idx.insert(1, hot(1));
        idx.insert(17, hot(1)); // same shard as tid 1
        assert_eq!(idx.get(1).unwrap().tgid, 1);
        assert_eq!(idx.len(), 2);
        idx.remove(1);
        assert!(idx.get(1).is_none());
        assert_eq!(idx.get(17).unwrap().mm, MmId(7));
    }

    #[test]
    fn clones_share_the_index() {
        let a = ProcIndex::new();
        let b = a.clone();
        a.insert(5, hot(5));
        assert_eq!(b.get(5).unwrap().tgid, 5);
    }
}
