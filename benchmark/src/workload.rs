//! The five workloads and the seeded operation generator.
//!
//! Every workload runs on three nodes — two roots and one server — under
//! Presumed Abort, and every transaction is one operation at the server.
//! All loops are closed: a caller of a commit library waits for the
//! outcome before it sends its next request.

/// How frames travel between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    Channel,
    Tcp,
}

/// Where the nodes keep their logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Mem,
    Segmented,
}

/// Group-commit policy of `seg_gc16`: flush at 8 queued forces or after
/// 0.5 ms, whichever comes first. With 16 in flight about a third of the
/// flushes are the timer's, so both triggers shape the latency. (At 2 ms
/// the timer fired for 1 % of the flushes and the p99 sat on the edge of
/// that 1 %: it read 3.0 or 4.6 ms from run to run.)
pub const GC_BATCH: usize = 8;
pub const GC_MAX_WAIT_US: u64 = 500;

/// Keys the generators draw from, and the hot subset of `mem_mix16`.
pub const KEYS: u32 = 1024;
pub const HOT_KEYS: u32 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists; also the `why` line in `BENCHMARK.json`.
    pub why: &'static str,
    pub transport: Transport,
    pub backend: Backend,
    pub group_commit: bool,
    /// The read-only optimization.
    pub read_only: bool,
    pub lanes: usize,
    /// Transactions the one generator thread keeps in flight; 1 means a
    /// synchronous `commit()` per transaction.
    pub in_flight: usize,
    /// Share of transactions that read instead of write, in percent.
    pub read_pct: u32,
    /// Half of all picks hit the [`HOT_KEYS`] hot keys, so transactions
    /// conflict and wait for locks; without it none may.
    pub hot: bool,
    /// Transactions committed before measuring starts; part of set-up.
    pub warmup_txns: u64,
    /// Run on one CPU (see `affinity.rs`): the synchronous workloads are
    /// chains of thread wake-ups whose cost across CPUs is the host's,
    /// not the program's.
    pub one_cpu: bool,
}

pub const ALL: [Spec; 5] = [
    Spec {
        name: "mem_sync",
        why: "serial commits, free forces, in-process hops: codec, engine, locks, RM, channel and \
              wake-ups do all the work; the baseline seg_sync and tcp_sync are read against",
        transport: Transport::Channel,
        backend: Backend::Mem,
        group_commit: false,
        read_only: false,
        lanes: 1,
        in_flight: 1,
        read_pct: 0,
        hot: false,
        warmup_txns: 8000,
        one_cpu: true,
    },
    Spec {
        name: "seg_sync",
        why: "mem_sync on the segmented WAL with a shared log: forced writes in series make the \
              device flush dominate, so a removed or cheaper force shows here and not on mem_sync",
        transport: Transport::Channel,
        backend: Backend::Segmented,
        group_commit: false,
        read_only: false,
        lanes: 1,
        in_flight: 1,
        read_pct: 0,
        hot: false,
        warmup_txns: 800,
        one_cpu: true,
    },
    Spec {
        name: "tcp_sync",
        why: "mem_sync over loopback TCP: syscalls, sender threads, buffer pool and framing \
              dominate; the only guard on the TCP front-end",
        transport: Transport::Tcp,
        backend: Backend::Mem,
        group_commit: false,
        read_only: false,
        lanes: 1,
        in_flight: 1,
        read_pct: 0,
        hot: false,
        warmup_txns: 3000,
        one_cpu: true,
    },
    Spec {
        name: "seg_gc16",
        why: "seg_sync's WAL as a batcher: group commit (8 forces or 0.5 ms) with 16 writes in \
              flight amortises flushes for throughput while the batch timer delays each batch",
        transport: Transport::Channel,
        backend: Backend::Segmented,
        group_commit: true,
        read_only: false,
        lanes: 1,
        in_flight: 16,
        read_pct: 0,
        hot: false,
        warmup_txns: 3000,
        one_cpu: false,
    },
    Spec {
        name: "mem_mix16",
        why: "80% reads with the read-only optimization, 2 lanes, 16 in flight, half the picks on \
              4 hot keys: read-only votes, S/X lock waits, lane routing and striped locks all run",
        transport: Transport::Channel,
        backend: Backend::Mem,
        group_commit: false,
        read_only: true,
        lanes: 2,
        in_flight: 16,
        read_pct: 80,
        hot: true,
        warmup_txns: 16000,
        one_cpu: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// SplitMix64: small, fast, and owned by the benchmark so the same seed
/// gives the same inputs whatever the repository's `rand` shim becomes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// One transaction's single operation at the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnOp {
    pub key: u32,
    pub read: bool,
}

/// Draws each transaction's operation from the seed.
///
/// On the uncontended workloads no two transactions that can overlap
/// touch the same key — each in-flight slot draws from its own slice of
/// the key space, and never the key it used last, because the server
/// still holds that lock while it finishes phase two — so the number of
/// lock waits there is exactly zero and the benchmark asserts it.
pub struct OpGen {
    rng: Rng,
    spec: Spec,
    last_key: Vec<Option<u32>>,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64) -> OpGen {
        // Mix the workload's name in so that workloads run with one seed
        // do not share a key sequence.
        let salt = spec
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        OpGen {
            rng: Rng::new(seed ^ salt.rotate_left(32)),
            spec: *spec,
            last_key: vec![None; spec.in_flight],
        }
    }

    pub fn next(&mut self, slot: usize) -> TxnOp {
        let read = self.rng.below(100) < self.spec.read_pct;
        if self.spec.hot {
            let key = if self.rng.below(2) == 0 {
                self.rng.below(HOT_KEYS)
            } else {
                self.rng.below(KEYS)
            };
            return TxnOp { key, read };
        }
        let slice = KEYS / self.spec.in_flight as u32;
        let base = slot as u32 * slice;
        let mut key = base + self.rng.below(slice);
        if self.last_key[slot] == Some(key) {
            key = base + (key - base + 1) % slice;
        }
        self.last_key[slot] = Some(key);
        TxnOp { key, read }
    }
}

pub fn key_name(key: u32) -> String {
    format!("key-{key:04}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `txns` operations the generator issues, folded into one
    /// number (FNV-1a).
    fn sequence_hash(spec: &Spec, seed: u64, txns: usize) -> u64 {
        let mut gen = OpGen::new(spec, seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..txns {
            let op = gen.next(i % spec.in_flight);
            for word in [op.key as u64, op.read as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn same_seed_same_sequence_other_seed_another() {
        for spec in &ALL {
            let a = sequence_hash(spec, 1, 5000);
            assert_eq!(a, sequence_hash(spec, 1, 5000), "{}", spec.name);
            assert_ne!(a, sequence_hash(spec, 2, 5000), "{}", spec.name);
        }
        // Workloads sharing a seed still draw different sequences.
        assert_ne!(
            sequence_hash(&ALL[0], 1, 5000),
            sequence_hash(&ALL[1], 1, 5000)
        );
    }

    #[test]
    fn uncontended_slots_never_overlap_or_repeat() {
        for spec in ALL.iter().filter(|s| !s.hot) {
            let mut gen = OpGen::new(spec, 7);
            let slice = KEYS / spec.in_flight as u32;
            let mut last = vec![u32::MAX; spec.in_flight];
            for i in 0..20_000 {
                let slot = i % spec.in_flight;
                let op = gen.next(slot);
                assert!(!op.read);
                assert_eq!(op.key / slice, slot as u32, "{}", spec.name);
                assert_ne!(op.key, last[slot], "{}", spec.name);
                last[slot] = op.key;
            }
        }
    }

    #[test]
    fn mix_matches_its_stated_shares() {
        let spec = by_name("mem_mix16").expect("defined");
        let mut gen = OpGen::new(spec, 3);
        let n = 100_000;
        let (mut reads, mut hot) = (0, 0);
        for i in 0..n {
            let op = gen.next(i % spec.in_flight);
            reads += op.read as usize;
            hot += (op.key < HOT_KEYS) as usize;
        }
        assert!((reads as f64 / n as f64 - 0.80).abs() < 0.01);
        assert!((hot as f64 / n as f64 - 0.50).abs() < 0.01);
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(9);
        for n in [1u32, 2, 3, 64, 1024] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
