//! The id hasher spreads the ids nodes actually mint, an `IdMap` is an
//! ordinary map, and `shard_of` leaves each shard's map its bucket bits.

use std::collections::HashMap;

use proptest::prelude::*;
use tpc_common::{id_hash, shard_of, IdMap, NodeId, TxnId};

/// Sequential ids from three origins, the shape a three-node cluster
/// mints.
fn minted(per_origin: u64) -> Vec<TxnId> {
    (0..3)
        .flat_map(|o| (1..=per_origin).map(move |s| TxnId::new(NodeId(o), s)))
        .collect()
}

#[test]
fn sequential_ids_from_three_origins_spread_over_64_buckets() {
    const BUCKETS: usize = 64;
    let ids = minted(1024);
    let mut counts = [0usize; BUCKETS];
    for id in &ids {
        counts[(id_hash(id) as usize) % BUCKETS] += 1;
    }
    // Tolerance: every bucket within 25 % of the mean (48).
    let mean = ids.len() / BUCKETS;
    for (b, &c) in counts.iter().enumerate() {
        assert!(
            c.abs_diff(mean) * 4 <= mean,
            "bucket {b} holds {c} ids, mean {mean}: {counts:?}"
        );
    }
}

#[test]
fn each_shard_keeps_all_sixteen_low_bit_patterns() {
    // A shard's IdMap indexes buckets by the hash's low bits. Were the
    // shard taken from those bits (`id_hash % 16`), every id of a shard
    // would share them and the map would use one bucket in sixteen.
    const SHARDS: usize = 16;
    let mut low = [[false; 16]; SHARDS];
    let mut tags = vec![std::collections::HashSet::new(); SHARDS];
    for id in minted(4096) {
        let h = id_hash(&id);
        let s = shard_of(id, SHARDS);
        low[s][(h & 15) as usize] = true;
        // The map's 7-bit match tag comes from the top bits; a shard
        // should not pin those either.
        tags[s].insert(h >> 57);
    }
    for (s, seen) in low.iter().enumerate() {
        let covered = seen.iter().filter(|&&b| b).count();
        assert_eq!(
            covered, 16,
            "shard {s} covers {covered} of 16 low-bit values"
        );
    }
    for (s, t) in tags.iter().enumerate() {
        assert!(t.len() >= 96, "shard {s} sees {} of 128 tags", t.len());
    }
}

#[test]
fn shards_share_the_load() {
    const SHARDS: usize = 16;
    let ids = minted(4096);
    let mut counts = [0usize; SHARDS];
    for &id in &ids {
        counts[shard_of(id, SHARDS)] += 1;
    }
    let mean = ids.len() / SHARDS;
    for (s, &c) in counts.iter().enumerate() {
        assert!(
            c.abs_diff(mean) * 4 <= mean,
            "shard {s} holds {c} ids, mean {mean}: {counts:?}"
        );
    }
}

#[derive(Clone, Debug)]
enum MapOp {
    Insert(TxnId, u64),
    Remove(TxnId),
    Get(TxnId),
}

fn arb_op() -> impl Strategy<Value = MapOp> {
    // Few origins and seqs so operations revisit the same ids.
    let id = (0u32..3, 0u64..24).prop_map(|(o, s)| TxnId::new(NodeId(o), s));
    (0u8..3, id, any::<u64>()).prop_map(|(kind, id, v)| match kind {
        0 => MapOp::Insert(id, v),
        1 => MapOp::Remove(id),
        _ => MapOp::Get(id),
    })
}

proptest! {
    #[test]
    fn id_map_agrees_with_std_hash_map(ops in prop::collection::vec(arb_op(), 0..200)) {
        let mut ours: IdMap<TxnId, u64> = IdMap::default();
        let mut std_map: HashMap<TxnId, u64> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(id, v) => prop_assert_eq!(ours.insert(id, v), std_map.insert(id, v)),
                MapOp::Remove(id) => prop_assert_eq!(ours.remove(&id), std_map.remove(&id)),
                MapOp::Get(id) => prop_assert_eq!(ours.get(&id), std_map.get(&id)),
            }
            prop_assert_eq!(ours.len(), std_map.len());
        }
        let mut a: Vec<_> = ours.into_iter().collect();
        let mut b: Vec<_> = std_map.into_iter().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
