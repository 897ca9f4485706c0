//! Id-keyed slabs of independently lockable kernel objects.
//!
//! Pipes, sockets and epoll instances used to live in `Vec<Option<T>>`
//! fields of the kernel, reachable only under the big kernel lock. An
//! [`ObjSlab`] gives each object its own [`Tracked`] lock and makes the
//! id → object lookup a cloneable handle, so the embedder's uncontended
//! fast path can reach a pipe or socket without taking the kernel lock
//! at all.
//!
//! The slot table itself hides behind an `RwLock`: lookups (the hot
//! path, including concurrent lookups from several workers) take the
//! read side and never contend with each other; only allocation and
//! teardown take the write side. Slot ids are reused exactly like the
//! old `Vec<Option<T>>` (first free slot), which keeps single-worker
//! runs bit-deterministic across the shard/no-shard toggle.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::lockorder::{note_contention, LockClass, OrderToken, Tracked};

/// One slab slot: the object behind its own [`Tracked`] lock.
type Slot<T> = Option<Arc<Tracked<T>>>;

/// A shared slab of per-object-locked values.
#[derive(Debug)]
pub struct ObjSlab<T> {
    slots: Arc<RwLock<Vec<Slot<T>>>>,
    /// Class of the *element* locks ([`LockClass::Slab`] guards the
    /// table itself).
    class: LockClass,
}

impl<T> Clone for ObjSlab<T> {
    fn clone(&self) -> ObjSlab<T> {
        ObjSlab {
            slots: self.slots.clone(),
            class: self.class,
        }
    }
}

impl<T> ObjSlab<T> {
    /// An empty slab whose elements lock with `class`.
    pub fn new(class: LockClass) -> ObjSlab<T> {
        ObjSlab {
            slots: Arc::new(RwLock::new(Vec::new())),
            class,
        }
    }

    fn read_table(&self) -> (RwLockReadGuard<'_, Vec<Slot<T>>>, OrderToken) {
        let token = OrderToken::enter(LockClass::Slab);
        let guard = match self.slots.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                note_contention(LockClass::Slab);
                self.slots.read().unwrap_or_else(|p| p.into_inner())
            }
        };
        (guard, token)
    }

    fn write_table(&self) -> (RwLockWriteGuard<'_, Vec<Slot<T>>>, OrderToken) {
        let token = OrderToken::enter(LockClass::Slab);
        let guard = match self.slots.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                note_contention(LockClass::Slab);
                self.slots.write().unwrap_or_else(|p| p.into_inner())
            }
        };
        (guard, token)
    }

    /// Inserts `value`, reusing the first free slot (old `Vec<Option>`
    /// semantics), and returns its id.
    pub fn insert(&self, value: T) -> usize {
        let obj = Arc::new(Tracked::new(self.class, value));
        let (mut slots, _token) = self.write_table();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(obj);
                return i;
            }
        }
        slots.push(Some(obj));
        slots.len() - 1
    }

    /// The object in slot `id`, if live. The returned handle stays
    /// valid (and lockable) even if the slot is freed concurrently —
    /// exactly like an fd kept open across a close elsewhere.
    pub fn get(&self, id: usize) -> Option<Arc<Tracked<T>>> {
        let (slots, _token) = self.read_table();
        slots.get(id).and_then(|s| s.clone())
    }

    /// Runs `f` under the lock of the object in slot `id`, if live.
    ///
    /// The table's read lock stays held around the object lock (ranks
    /// `Slab` → element class, strictly increasing), so unlike
    /// [`ObjSlab::get`] no handle is cloned and dropped: two atomic
    /// reference-count updates fewer on every access.
    pub fn with<R>(&self, id: usize, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let (slots, _token) = self.read_table();
        let obj = slots.get(id)?.as_ref()?;
        let mut guard = obj.lock_ok();
        Some(f(&mut guard))
    }

    /// Frees slot `id`, returning the (possibly still shared) object.
    pub fn free(&self, id: usize) -> Option<Arc<Tracked<T>>> {
        let (mut slots, _token) = self.write_table();
        slots.get_mut(id).and_then(|s| s.take())
    }

    /// Number of live slots (leak audits).
    pub fn live(&self) -> usize {
        let (slots, _token) = self.read_table();
        slots.iter().filter(|s| s.is_some()).count()
    }

    /// Ids of the live slots, ascending (deterministic iteration).
    pub fn live_ids(&self) -> Vec<usize> {
        let (slots, _token) = self.read_table();
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ids_are_reused_first_free() {
        let slab: ObjSlab<u32> = ObjSlab::new(LockClass::Object);
        assert_eq!(slab.insert(10), 0);
        assert_eq!(slab.insert(11), 1);
        assert_eq!(slab.insert(12), 2);
        slab.free(1);
        assert_eq!(slab.insert(13), 1, "first free slot wins");
        assert_eq!(slab.live(), 3);
        assert_eq!(slab.live_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn with_runs_under_the_object_lock() {
        let slab: ObjSlab<u32> = ObjSlab::new(LockClass::Object);
        let id = slab.insert(1);
        assert_eq!(slab.with(id, |v| std::mem::replace(v, 5)), Some(1));
        assert_eq!(slab.with(id, |v| *v), Some(5));
        slab.free(id);
        assert_eq!(slab.with(id, |v| *v), None);
    }

    #[test]
    fn handles_outlive_the_slot() {
        let slab: ObjSlab<String> = ObjSlab::new(LockClass::Object);
        let id = slab.insert("alive".into());
        let handle = slab.get(id).unwrap();
        slab.free(id);
        assert!(slab.get(id).is_none());
        assert_eq!(*handle.lock_ok(), "alive");
    }
}
