//! Seeded storage-fault injection for any [`LogManager`].
//!
//! The wire already has [`FaultPlan`-style] chaos; this module gives the
//! *log device* the same treatment. [`FaultyLog`] wraps a backend
//! (memory or file) and subjects it to the failure modes real disks
//! exhibit: fsync calls that fail transiently or permanently, writes
//! rejected for lack of space, synthetic fsync latency, and — for
//! file-backed logs — torn writes and bit rot that only surface when the
//! next recovery scan reads the image back.
//!
//! All randomness comes from the plan's seed, so a failing chaos run
//! reproduces exactly. Crucially, an *injected* failure is
//! indistinguishable from a real one at the [`LogManager`] interface:
//! the append or flush returns `Err`, the record's durability is NOT
//! guaranteed, and it is the host's `IoErrorPolicy` that decides whether
//! the node fail-stops or degrades to read-only.
//!
//! [`FaultPlan`-style]: https://en.wikipedia.org/wiki/Fault_injection

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tpc_common::{Error, Lsn, Result};

use crate::log::{Durability, LogManager, LogStats, StreamId};
use crate::record::LogRecord;

/// What a [`FaultyLog`] does to the device, with which probabilities and
/// thresholds. `clean(seed)` injects nothing; build up from there.
#[derive(Clone, Debug)]
pub struct StorageFaultPlan {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Probability any one physical sync fails (transient: a retry may
    /// succeed, drawn independently).
    pub fsync_fail_rate: f64,
    /// After this many *successful* physical syncs, every subsequent sync
    /// fails permanently (the device is gone for good).
    pub fail_fsync_after: Option<u64>,
    /// Appends fail with a synthetic ENOSPC once the backend holds this
    /// many payload bytes.
    pub enospc_after_bytes: Option<u64>,
    /// Injected latency per successful physical sync, in microseconds
    /// (models a congested or failing device that still acknowledges).
    pub fsync_delay_us: u64,
    /// On crash, the durable image is torn at this byte offset: whatever
    /// follows is cut mid-frame, exactly what an interrupted sector write
    /// leaves behind. File-backed logs only (a memory log's crash already
    /// discards its volatile tail).
    pub torn_write_at: Option<u64>,
    /// On crash, flip bit `1 << bit` of the byte at this offset in the
    /// durable image — bit rot inside a committed frame, which recovery
    /// must detect as corruption *before* the tail. File-backed only.
    pub flip_bit_at: Option<(u64, u8)>,
}

impl StorageFaultPlan {
    /// A plan that injects nothing (useful as a base to build on).
    pub fn clean(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            fsync_fail_rate: 0.0,
            fail_fsync_after: None,
            enospc_after_bytes: None,
            fsync_delay_us: 0,
            torn_write_at: None,
            flip_bit_at: None,
        }
    }

    /// Sets the transient fsync failure probability.
    pub fn with_fsync_failures(mut self, rate: f64) -> Self {
        self.fsync_fail_rate = rate;
        self
    }

    /// Fails every sync permanently after `n` successful ones.
    pub fn with_permanent_fsync_failure_after(mut self, n: u64) -> Self {
        self.fail_fsync_after = Some(n);
        self
    }

    /// Rejects appends with a synthetic ENOSPC once `bytes` payload bytes
    /// are held.
    pub fn with_enospc_after(mut self, bytes: u64) -> Self {
        self.enospc_after_bytes = Some(bytes);
        self
    }

    /// Adds `us` microseconds of latency to every successful sync.
    pub fn with_fsync_delay_us(mut self, us: u64) -> Self {
        self.fsync_delay_us = us;
        self
    }

    /// Tears the durable image at byte `offset` when the node crashes.
    pub fn with_torn_write_at(mut self, offset: u64) -> Self {
        self.torn_write_at = Some(offset);
        self
    }

    /// Flips bit `bit` of the byte at `offset` in the durable image when
    /// the node crashes.
    pub fn with_bit_flip_at(mut self, offset: u64, bit: u8) -> Self {
        self.flip_bit_at = Some((offset, bit % 8));
        self
    }
}

/// Counters a [`FaultyLog`] keeps; shared with the harness via
/// [`FaultyLog::stats`] so assertions can confirm faults actually fired.
#[derive(Debug, Default)]
pub struct StorageFaultStats {
    /// Physical syncs that went through (after any injected delay).
    pub syncs_ok: AtomicU64,
    /// Syncs failed by injection (transient + permanent).
    pub fsync_failures: AtomicU64,
    /// Appends rejected by the synthetic ENOSPC.
    pub enospc_failures: AtomicU64,
    /// Torn writes applied to the durable image at crash.
    pub torn_writes: AtomicU64,
    /// Bit flips applied to the durable image at crash.
    pub bit_flips: AtomicU64,
    /// Total injected sync latency, in microseconds.
    pub delay_us: AtomicU64,
}

impl StorageFaultStats {
    /// Total injected I/O failures (fsync + ENOSPC).
    pub fn failures(&self) -> u64 {
        self.fsync_failures.load(Ordering::Relaxed) + self.enospc_failures.load(Ordering::Relaxed)
    }
}

/// A [`LogManager`] wrapper injecting seeded storage faults.
///
/// Forced appends are split into "write the frame" plus "sync it", so an
/// injected sync failure leaves the record buffered (not durable) and a
/// later successful [`FaultyLog::flush`] — the host's retry path — makes
/// it stable, exactly like a real fsync-retry sequence.
pub struct FaultyLog {
    inner: Box<dyn LogManager + Send>,
    plan: StorageFaultPlan,
    rng: u64,
    /// Successful physical syncs so far (the permanent-failure clock).
    syncs_ok: u64,
    stats: Arc<StorageFaultStats>,
    /// Backing file for crash-time image faults (torn write, bit flip);
    /// `None` for memory backends, which skip those fault kinds.
    path: Option<PathBuf>,
    /// Image faults fire once, even if several lanes crash-discard the
    /// same shared log.
    torn_applied: bool,
    flip_applied: bool,
}

impl FaultyLog {
    /// Wraps `inner` under `plan`. Crash-time image faults (torn write,
    /// bit flip) need the backing file path — see [`FaultyLog::with_path`].
    pub fn new(inner: Box<dyn LogManager + Send>, plan: StorageFaultPlan) -> Self {
        // Splash the seed so seed=0 and seed=1 diverge immediately.
        let rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        FaultyLog {
            inner,
            plan,
            rng,
            syncs_ok: 0,
            stats: Arc::new(StorageFaultStats::default()),
            path: None,
            torn_applied: false,
            flip_applied: false,
        }
    }

    /// Tells the wrapper where the durable image lives, enabling the
    /// crash-time faults (torn write at a byte, bit flip).
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Handle to the fault counters (clone before moving the log into a
    /// worker thread).
    pub fn fault_stats(&self) -> Arc<StorageFaultStats> {
        Arc::clone(&self.stats)
    }

    /// Next uniform sample in `[0, 1)` (Knuth's MMIX LCG).
    fn roll(&mut self) -> f64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One physical sync under the plan: permanent failure past the
    /// threshold, transient failure by probability, injected latency on
    /// success.
    fn faulty_sync(&mut self) -> Result<()> {
        if self
            .plan
            .fail_fsync_after
            .is_some_and(|n| self.syncs_ok >= n)
        {
            self.stats.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Io(std::io::Error::other(
                "injected fsync failure (permanent)",
            )));
        }
        if self.plan.fsync_fail_rate > 0.0 && self.roll() < self.plan.fsync_fail_rate {
            self.stats.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Io(std::io::Error::other(
                "injected fsync failure (transient)",
            )));
        }
        if self.plan.fsync_delay_us > 0 {
            self.stats
                .delay_us
                .fetch_add(self.plan.fsync_delay_us, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(self.plan.fsync_delay_us));
        }
        self.inner.flush_batch()?;
        self.syncs_ok += 1;
        self.stats.syncs_ok.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The synthetic ENOSPC gate, checked before a frame is written.
    fn check_space(&self) -> Result<()> {
        if self
            .plan
            .enospc_after_bytes
            .is_some_and(|cap| self.inner.stats().bytes >= cap)
        {
            self.stats.enospc_failures.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Io(std::io::Error::other(
                "injected ENOSPC: log device full",
            )));
        }
        Ok(())
    }

    /// Applies the crash-time image faults to the durable file (one-shot
    /// each): tear the image at the chosen byte, flip the chosen bit.
    fn damage_image(&mut self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        if let Some(at) = self.plan.torn_write_at {
            if !self.torn_applied {
                if let Ok(meta) = std::fs::metadata(&path) {
                    if meta.len() > at {
                        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
                            if f.set_len(at).is_ok() {
                                self.torn_applied = true;
                                self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
        }
        if let Some((at, bit)) = self.plan.flip_bit_at {
            if !self.flip_applied {
                if let Ok(mut raw) = std::fs::read(&path) {
                    if let Some(byte) = raw.get_mut(at as usize) {
                        *byte ^= 1 << (bit % 8);
                        if std::fs::write(&path, &raw).is_ok() {
                            self.flip_applied = true;
                            self.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

impl LogManager for FaultyLog {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        self.check_space()?;
        if durability.is_forced() {
            // Write, then sync under the plan: a failed sync leaves the
            // record buffered so the host's flush retry can still land it.
            let lsn = self.inner.append_deferred(stream, record, durability)?;
            self.faulty_sync()?;
            Ok(lsn)
        } else {
            self.inner.append(stream, record, durability)
        }
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        self.check_space()?;
        self.inner.append_deferred(stream, record, durability)
    }

    fn flush(&mut self) -> Result<()> {
        self.faulty_sync()
    }

    fn flush_batch(&mut self) -> Result<()> {
        self.faulty_sync()
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        self.inner.durable_records()
    }

    fn stats(&self) -> LogStats {
        self.inner.stats()
    }

    fn pending_forces(&self) -> u64 {
        self.inner.pending_forces()
    }

    fn crash_discard(&mut self) {
        self.inner.crash_discard();
        self.damage_image();
    }
}

impl std::fmt::Debug for FaultyLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyLog")
            .field("plan", &self.plan)
            .field("syncs_ok", &self.syncs_ok)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileLog;
    use crate::mem::MemLog;
    use tpc_common::{NodeId, TxnId};

    fn end(n: u64) -> LogRecord {
        LogRecord::End {
            txn: TxnId::new(NodeId(0), n),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tpc-wal-fault-{}-{name}.log", std::process::id()))
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let mut log = FaultyLog::new(Box::new(MemLog::new()), StorageFaultPlan::clean(7));
        for i in 0..5 {
            log.append(StreamId::Tm, end(i), Durability::Forced)
                .unwrap();
        }
        assert_eq!(log.durable_records().len(), 5);
        assert_eq!(log.stats().forced_writes, 5);
        assert_eq!(log.stats().physical_flushes, 5);
        assert_eq!(log.stats().writes, 5);
    }

    #[test]
    fn permanent_fsync_failure_strands_the_record_until_never() {
        let plan = StorageFaultPlan::clean(1).with_permanent_fsync_failure_after(1);
        let mut log = FaultyLog::new(Box::new(MemLog::new()), plan);
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        // Second force: the write lands but the sync fails, forever.
        assert!(log
            .append(StreamId::Tm, end(2), Durability::Forced)
            .is_err());
        assert!(log.flush().is_err(), "retries fail too");
        assert_eq!(log.durable_records().len(), 1, "record 2 never durable");
        assert!(log.stats().forced_writes >= 2, "the logical force happened");
        assert_eq!(log.stats().physical_flushes, 1);
    }

    #[test]
    fn transient_fsync_failure_recovers_on_retry() {
        // rate=1.0 would fail every retry; use the permanent knob off and
        // a seed-dependent single failure via a high-but-not-certain rate
        // is flaky, so drive the retry contract directly: fail once by
        // plan, then flip the plan off and flush.
        let plan = StorageFaultPlan::clean(3).with_fsync_failures(1.0);
        let mut log = FaultyLog::new(Box::new(MemLog::new()), plan);
        assert!(log
            .append(StreamId::Tm, end(1), Durability::Forced)
            .is_err());
        assert_eq!(log.durable_records().len(), 0);
        log.plan.fsync_fail_rate = 0.0; // the device comes back
        log.flush().expect("retry lands the buffered record");
        assert_eq!(log.durable_records().len(), 1);
        assert_eq!(log.stats().writes, 1, "no duplicate append on retry");
    }

    #[test]
    fn enospc_rejects_appends_past_the_cap() {
        let plan = StorageFaultPlan::clean(5).with_enospc_after(1);
        let mut log = FaultyLog::new(Box::new(MemLog::new()), plan);
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        let err = log
            .append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(log.stats().writes, 1, "rejected append never written");
        assert_eq!(log.fault_stats().enospc_failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn same_seed_same_failure_pattern() {
        let observe = |seed| {
            let plan = StorageFaultPlan::clean(seed).with_fsync_failures(0.4);
            let mut log = FaultyLog::new(Box::new(MemLog::new()), plan);
            (0..30)
                .map(|i| log.append(StreamId::Tm, end(i), Durability::Forced).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(observe(42), observe(42));
        assert_ne!(observe(42), observe(43), "different seeds should diverge");
    }

    #[test]
    fn torn_write_at_crash_cuts_the_image_mid_frame() {
        let path = tmp("torn");
        let file = FileLog::create(&path).unwrap();
        let plan = StorageFaultPlan::clean(9).with_torn_write_at(5);
        let mut log = FaultyLog::new(Box::new(file), plan).with_path(&path);
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap();
        log.crash_discard();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5, "image torn");
        assert_eq!(log.stats.torn_writes.load(Ordering::Relaxed), 1);
        // Recovery sees a torn tail: the 5 leftover bytes are a partial
        // frame, not corruption in front of valid data.
        let report = crate::file::scan_classified(&path).unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.tail, crate::file::TailState::TornTail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_at_crash_corrupts_a_committed_frame() {
        let path = tmp("flip");
        let file = FileLog::create(&path).unwrap();
        // Flip a payload bit inside frame 0 (offset 12 is past the 9-byte
        // header) so frame 1 survives *after* the damage.
        let plan = StorageFaultPlan::clean(11).with_bit_flip_at(12, 3);
        let mut log = FaultyLog::new(Box::new(file), plan).with_path(&path);
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap();
        log.crash_discard();
        let report = crate::file::scan_classified(&path).unwrap();
        assert_eq!(report.records.len(), 0, "nothing before the damage");
        assert_eq!(
            report.tail,
            crate::file::TailState::CorruptionBeforeTail {
                valid_frames_after: 1
            }
        );
        std::fs::remove_file(&path).ok();
    }
}
