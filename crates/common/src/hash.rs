//! Hashing for identifiers the cluster mints itself.
//!
//! std's `HashMap` defaults to SipHash-1-3 under a per-map random key: a
//! defence against keys an adversary picks to collide. Transaction ids,
//! timer generations, group-commit tickets and stripe indexes are minted
//! by the nodes, not by clients, so that defence buys nothing there and
//! its cost lands on every commit. [`IdHasher`] is a multiply-rotate
//! hasher (one rotate, xor and multiply per integer written) for those
//! keys; [`IdMap`] and [`IdSet`] are the maps built on it.
//!
//! Application keys (the store's and the lock tables' byte keys) keep
//! std's `RandomState`: clients choose them.
//!
//! [`shard_of`] is the one function that spreads transactions over a
//! fixed number of mutex-guarded shards (the RM's context tables, the
//! lock manager's touched-stripes index). It must not take the shard
//! from the bits a shard's own [`IdMap`] indexes buckets with, or every
//! id in a shard would share those bits and crowd into a fraction of the
//! buckets; see its docs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use crate::ids::TxnId;

/// Odd multiplier of the mixing step (the 64-bit `FxHash` constant):
/// multiplication by an odd number is a bijection on every low-bit
/// window, so sequential ids fill a table's buckets evenly.
const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher for cluster-minted ids. Not collision
/// resistant: use it only for keys no client chooses.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Bytewise fallback for keys that are not plain integers.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` keyed by cluster-minted ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of cluster-minted ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The [`IdHasher`] hash of `key`: the value an [`IdMap`] indexes it by.
#[inline]
pub fn id_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(key)
}

/// The shard, in `0..shards`, that `txn`'s entries live in.
///
/// A std `HashMap` takes its bucket index from a hash's low bits and a
/// 7-bit match tag from its top seven. Shard selection uses neither: it
/// multiply-shifts bits 20..52 of [`id_hash`], so the ids of one shard
/// still differ in the bits their shard's [`IdMap`] looks them up by.
/// (`id_hash(&txn) % 16` would give every id in a shard the same low
/// four bits, and a shard's map would use one bucket in sixteen.)
#[inline]
pub fn shard_of(txn: TxnId, shards: usize) -> usize {
    let mid = (id_hash(&txn) >> 20) as u32 as u64;
    ((mid * shards as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn integer_writes_mix_into_the_state() {
        let mut a = IdHasher::default();
        a.write_u64(1);
        let mut b = IdHasher::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(id_hash(&7u64), id_hash(&7u64), "deterministic");
        assert_ne!(
            id_hash(&TxnId::new(NodeId(0), 1)),
            id_hash(&TxnId::new(NodeId(1), 1)),
            "the origin takes part"
        );
    }

    #[test]
    fn byte_writes_fall_back_to_one_step_per_byte() {
        let mut bytes = IdHasher::default();
        bytes.write(&[1, 2]);
        let mut ints = IdHasher::default();
        ints.write_u8(1);
        ints.write_u8(2);
        assert_eq!(bytes.finish(), ints.finish());
    }

    #[test]
    fn shard_of_stays_in_range() {
        for n in [1usize, 2, 3, 16, 17] {
            for seq in 0..200 {
                assert!(shard_of(TxnId::new(NodeId(2), seq), n) < n);
            }
        }
    }
}
