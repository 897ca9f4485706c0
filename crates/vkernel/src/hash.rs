//! A seeded multiplicative hasher for the kernel's hot integer-keyed
//! maps.
//!
//! The waitqueue tables, the ready-hub routing table, the process index
//! and the futex table are probed on every park, post and wake. Their
//! keys are small fixed-size integers (tids, object ids, futex words),
//! for which std's SipHash-1-3 costs more than the rest of the lookup.
//! [`FastHasher`] folds each word in with one 64×64→128-bit multiply.
//!
//! Guests choose some of these keys (futex addresses, and through
//! descriptor churn the object ids), so the hash must not be
//! predictable: every kernel draws one [`SeededState`] from std's
//! per-process random keys and shares it among its maps. A guest that
//! cannot learn the seed cannot pick keys that land in one bucket.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, SeededState>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<T> = HashSet<T, SeededState>;

/// An odd 64-bit multiplier with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds [`FastHasher`]s that start from one secret seed.
#[derive(Clone, Copy, Debug)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// A state with a fresh seed from std's per-process random keys.
    pub fn new() -> SeededState {
        SeededState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl Default for SeededState {
    fn default() -> SeededState {
        SeededState::new()
    }
}

impl BuildHasher for SeededState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// The hasher [`SeededState`] builds: each written word is xored into
/// the state, multiplied by a constant to 128 bits, and the two halves
/// are folded back together, so every input bit reaches the low bits
/// the table indexes with.
#[derive(Clone, Copy, Debug)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Channel;
    use crate::MmId;

    #[test]
    fn equal_keys_hash_equal_and_seeds_differ() {
        let a = SeededState::new();
        let b = SeededState::new();
        let ch = Channel::Futex(MmId(3), 0x1000);
        assert_eq!(a.hash_one(ch), a.hash_one(ch));
        assert_ne!(a.hash_one(ch), b.hash_one(ch), "per-kernel seeds");
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Futex words are 4-aligned and eventfd keys are pointer-aligned:
        // the low bits a table indexes with must still vary.
        let s = SeededState::new();
        let buckets: HashSet<u64> = (0..256u32)
            .map(|i| s.hash_one(Channel::Futex(MmId(1), i * 64)) & 255)
            .collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }
}
