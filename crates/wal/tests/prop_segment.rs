//! Property tests for the segmented log: recovery over arbitrary crash
//! points, fault seeds, suffix garbage, bit flips and crash-time image
//! damage always yields a durable prefix, with tiny segment capacities
//! forcing rotation so the property spans multi-segment chains.

use proptest::prelude::*;
use tpc_common::{NodeId, TempDir, TxnId};
use tpc_wal::segment::{scan_chain, segment_path, SegmentedLog};
use tpc_wal::{Durability, FaultyLog, LogManager, LogRecord, StorageFaultPlan, StreamId};

/// The active (highest-numbered) segment file — where a real torn write
/// or bit flip would land at power-off.
fn last_segment(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .max()
        .expect("a segmented log always has an active segment")
}

fn committed(i: usize) -> LogRecord {
    LogRecord::Committed {
        txn: TxnId::new(NodeId(0), i as u64),
        subordinates: vec![NodeId(1)],
    }
}

/// Writes `n` forced `Committed` records into a fresh chain.
fn write_chain(dir: &TempDir, seg_bytes: u64, n: usize) {
    let mut log = SegmentedLog::create_with(dir, seg_bytes).unwrap();
    for i in 0..n {
        log.append(StreamId::Tm, committed(i), Durability::Forced)
            .unwrap();
    }
}

/// Asserts the chain scans as records `0..k` in order on the TM stream
/// and returns `k`.
fn prefix_len(dir: &TempDir) -> Result<usize, TestCaseError> {
    let recovered = scan_chain(dir).unwrap();
    for (i, (_, stream, rec)) in recovered.iter().enumerate() {
        prop_assert_eq!(*stream, StreamId::Tm);
        prop_assert_eq!(rec.txn().seq, i as u64);
    }
    Ok(recovered.len())
}

/// Reopening over a crashed or damaged image keeps working: recovery
/// re-zero-fills the tail and one more append lands after the prefix.
fn reopen_appends_after(dir: &TempDir, seg_bytes: u64, kept: usize) -> Result<(), TestCaseError> {
    {
        let mut log = SegmentedLog::open_with(dir, seg_bytes).unwrap();
        log.append(
            StreamId::Tm,
            LogRecord::End {
                txn: TxnId::new(NodeId(0), 999),
            },
            Durability::Forced,
        )
        .unwrap();
    }
    prop_assert_eq!(scan_chain(dir).unwrap().len(), kept + 1);
    Ok(())
}

proptest! {
    /// Arbitrary records (mixed forced and non-forced) pushed through a
    /// [`FaultyLog`] over a [`SegmentedLog`] with seeded fsync failures,
    /// crashed at an arbitrary point with optional image damage on the
    /// active segment — the chain scan yields exactly a prefix of the
    /// appended history, never less than what a successful sync covered,
    /// and the reopened chain keeps accepting appends. While the chain
    /// has not rotated, nothing a sync did not cover comes back: a
    /// suspended batch is never resurrected.
    #[test]
    fn segmented_crash_recovery_is_a_durable_prefix(
        n_records in 1usize..24,
        forced_mask in any::<u32>(),
        crash_after in 0usize..24,
        fsync_pct in 0u32..60,
        seg_bytes in 128u64..2048,
        torn in prop::option::of(0u64..600),
        flip in prop::option::of((0u64..600, 0u8..8u8)),
        seed in any::<u64>(),
    ) {
        let dir = TempDir::new("seg-prop-crash");
        let plan = StorageFaultPlan::clean(seed)
            .with_fsync_failures(f64::from(fsync_pct) / 100.0);
        let image_damage = torn.is_some() || flip.is_some();

        let mut log = FaultyLog::new(
            Box::new(SegmentedLog::create_with(&dir, seg_bytes).unwrap()),
            plan,
        );
        // Highest seq covered by the last successful physical sync. A
        // rotation also seals (and syncs) everything before it, so this
        // is a lower bound on durability, not the exact durable high.
        let mut forced_high: Option<u64> = None;
        let crash_at = crash_after.min(n_records);
        for i in 0..crash_at {
            if forced_mask >> (i % 32) & 1 == 1 {
                // A failed force leaves the record buffered; mirror the
                // host's reaction with one flush retry.
                if log.append(StreamId::Tm, committed(i), Durability::Forced).is_ok()
                    || log.flush().is_ok()
                {
                    forced_high = Some(i as u64);
                }
            } else {
                let _ = log.append(StreamId::Tm, committed(i), Durability::NonForced);
            }
        }
        log.crash_discard(); // power failure: the buffered tail is gone
        drop(log);

        // Crash-time image damage lands on the active segment, where an
        // interrupted append physically writes.
        let active = last_segment(dir.path());
        let rotated = active != segment_path(&dir, 0);
        if let Some(at) = torn {
            let f = std::fs::OpenOptions::new().write(true).open(&active).unwrap();
            let len = f.metadata().unwrap().len();
            f.set_len(at.min(len)).unwrap();
        }
        if let Some((at, bit)) = flip {
            let mut raw = std::fs::read(&active).unwrap();
            if !raw.is_empty() {
                let idx = (at as usize) % raw.len();
                raw[idx] ^= 1 << bit;
                std::fs::write(&active, &raw).unwrap();
            }
        }

        // Prefix property: whatever survives is 0..k in order, nothing
        // invented, nothing reordered, nothing from after the crash.
        let recovered = prefix_len(&dir)?;
        prop_assert!(recovered <= crash_at);
        if let Some(high) = forced_high {
            // Nothing a successful sync covered may be lost on an
            // undamaged image. (Exact equality holds only without
            // rotation: a rotation syncs the sealed segment even when
            // every explicit force failed.)
            if !image_damage {
                prop_assert!(
                    recovered as u64 > high,
                    "synced prefix lost: recovered {} of {}",
                    recovered,
                    high + 1,
                );
            }
            if !rotated {
                prop_assert!(recovered as u64 <= high + 1, "unsynced records resurrected");
            }
        } else if !rotated {
            // No sync at all: nothing appended or suspended is durable.
            prop_assert_eq!(recovered, 0, "resurrected an unsynced batch");
        }

        reopen_appends_after(&dir, seg_bytes, recovered)?;
    }

    /// Overwriting any suffix of the active segment with arbitrary
    /// garbage leaves a clean prefix: the chain scans as the first k
    /// records for some k, never garbage and never a panic, and a reopen
    /// keeps appending after them. The garbage is written in place, as
    /// a damaged sector would be, since the segment is preallocated.
    #[test]
    fn scan_survives_arbitrary_suffix_garbage(
        n_records in 1usize..20,
        seg_bytes in 128u64..1024,
        cut in 0usize..2048,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = TempDir::new("seg-prop-garbage");
        write_chain(&dir, seg_bytes, n_records);
        let active = last_segment(dir.path());
        let mut raw = std::fs::read(&active).unwrap();
        let cut = cut.min(raw.len());
        raw[cut..].fill(0);
        let end = (cut + garbage.len()).min(raw.len());
        raw[cut..end].copy_from_slice(&garbage[..end - cut]);
        std::fs::write(&active, &raw).unwrap();

        let recovered = prefix_len(&dir)?;
        prop_assert!(recovered <= n_records);
        reopen_appends_after(&dir, seg_bytes, recovered)?;
    }

    /// A single flipped bit anywhere in the written frames of any
    /// segment confines the damage: whatever scans is a correct prefix,
    /// and it ends no later than the segment holding the flip.
    #[test]
    fn single_bit_flip_is_detected(
        n_records in 2usize..20,
        seg_bytes in 128u64..512,
        flip_segment in any::<usize>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let dir = TempDir::new("seg-prop-flip");
        write_chain(&dir, seg_bytes, n_records);
        let segments = scan_chain(&dir).unwrap().last().map_or(1, |(lsn, _, _)| (lsn.0 >> 32) + 1);
        let seq = (flip_segment as u64) % segments;
        let path = segment_path(&dir, seq);
        let mut raw = std::fs::read(&path).unwrap();
        let written = raw.iter().rposition(|&b| b != 0).map_or(1, |p| p + 1);
        raw[flip_byte % written] ^= 1 << flip_bit;
        std::fs::write(&path, &raw).unwrap();

        let recovered = scan_chain(&dir).unwrap();
        prop_assert!(recovered.len() < n_records, "a flipped bit must stop the scan");
        prop_assert!(recovered.iter().all(|(lsn, _, _)| lsn.0 >> 32 <= seq));
        prefix_len(&dir)?;
    }

    /// Pure rotation, no faults: every forced record survives the chain
    /// scan in order, however many segment boundaries the history
    /// crosses, and LSNs stay strictly monotone across segments.
    #[test]
    fn rotation_preserves_every_synced_record(
        n_records in 1usize..40,
        seg_bytes in 128u64..400,
    ) {
        let dir = TempDir::new("seg-prop-rotate");
        write_chain(&dir, seg_bytes, n_records);
        let recovered = scan_chain(&dir).unwrap();
        prop_assert_eq!(recovered.len(), n_records);
        let mut prev_lsn = None;
        for (i, (lsn, _, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(rec.txn().seq, i as u64);
            if let Some(p) = prev_lsn {
                prop_assert!(lsn.0 > p, "LSNs must be strictly monotone across the chain");
            }
            prev_lsn = Some(lsn.0);
        }
    }
}
