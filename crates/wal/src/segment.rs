//! Segmented write-ahead log: preallocated, rotating fixed-size segments.
//!
//! [`FileLog`](crate::file::FileLog) appends to one ever-growing file, so
//! every `sync_data` also pays the filesystem's metadata flush for the
//! size extension — the dominant cost on the committed bench (file
//! backend fsync-bound at 1–2k txn/s). This backend writes the *same*
//! frame format into a chain of fixed-size segment files
//! (`wal-0000.seg`, `wal-0001.seg`, …), each preallocated with
//! `set_len` plus a real zero-fill pass at creation. Steady-state appends
//! land inside blocks that already exist, so `sync_data` flushes data
//! only — the direct attack on the fsync bound.
//!
//! Rules of the chain:
//!
//! * **Rotation.** A frame that does not fit in the active segment's
//!   remaining capacity seals it (flush + `sync_data`, counted as one
//!   physical flush) and opens the next preallocated segment. Sealed
//!   segments are therefore always fully durable.
//! * **Recovery.** [`SegmentedLog::open`] scans segments in sequence
//!   order. A sealed segment must parse cleanly up to its zero-filled
//!   tail; the first segment showing damage ends the durable prefix and
//!   is classified with the same [`TailState`] discipline as
//!   [`scan_classified`](crate::file::scan_classified) — a torn tail if
//!   nothing valid follows, corruption-before-tail if valid frames
//!   survive after the damage (in that segment or any later one).
//!   Everything past the damage point is discarded.
//! * **Retention.** Every record carries its transaction id; a TM `End`
//!   record marks the transaction forgettable. When every transaction in
//!   the *oldest* sealed segment has ended, the segment file is deleted
//!   (prefix-only truncation keeps the chain contiguous). In-doubt
//!   transactions — prepared without an outcome — pin their segments.
//!   [`SegmentedLog::reclaim`] keys on TM `End` records only, whatever
//!   stream wrote a segment's other frames, and deletes from the front of
//!   the chain only. So a chain shared with RM streams loses committed
//!   `RmUpdate`/`RmCommitted` redo that recovery still replays to rebuild
//!   the store — an open data-loss defect, ROADMAP item 17.
//! * **Crash model.** `crash_discard` drops the buffered writer without
//!   flushing, re-scans the active segment from disk, and zero-fills the
//!   non-durable tail — exactly the `FileLog` discipline, adapted to a
//!   preallocated file where truncation would undo the preallocation.
//!   [`FaultyLog`](crate::faults::FaultyLog) image damage (torn writes,
//!   bit flips) applies to the first live segment file unchanged.
//!
//! LSNs are the cumulative logical byte offset across the chain as
//! scanned/written by this instance: monotone within a run, comparable
//! across a recovery scan — the same contract the other backends give.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tpc_common::{Error, Lsn, Result, TxnId};

use crate::file::{encode_frame, try_frame, TailState, HEADER_LEN};
use crate::log::{Durability, LogManager, LogStats, StreamId};
use crate::record::LogRecord;

/// Default segment capacity. Big enough that rotation (one extra
/// `sync_data` plus a zero-fill pass) is rare under the bench workloads,
/// small enough that retention reclaims space promptly.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Smallest allowed capacity — tests shrink segments to force rotation,
/// but a segment must hold at least one frame of every record type.
const MIN_SEGMENT_BYTES: u64 = 128;

/// Chunk used for the preallocation zero-fill pass.
const ZERO_CHUNK: usize = 64 * 1024;

/// Counters specific to the segmented backend, on top of the common
/// [`LogStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segments preallocated (the initial one plus one per rotation).
    pub segments_created: u64,
    /// Rotations performed (active segment sealed on fill).
    pub rotations: u64,
    /// Sealed segments deleted because every contained txn ended.
    pub segments_reclaimed: u64,
}

/// A sealed (rotated-out, fully durable) segment.
#[derive(Debug)]
struct SealedSegment {
    path: PathBuf,
    /// Logical LSN of this segment's first frame.
    base: u64,
    /// Transactions with at least one frame in this segment.
    txns: HashSet<TxnId>,
}

/// Segmented, preallocated log directory. See the module docs for the
/// chain rules.
pub struct SegmentedLog {
    dir: PathBuf,
    segment_bytes: u64,
    /// Reclaim fully-ended sealed segments at rotation.
    retain: bool,
    /// Oldest-first chain of sealed segments.
    sealed: Vec<SealedSegment>,
    writer: BufWriter<File>,
    active_seq: u64,
    /// Logical LSN of the active segment's first frame.
    active_base: u64,
    /// Physical offset of the next frame within the active segment.
    active_off: u64,
    /// Transactions with a frame in the active segment.
    active_txns: HashSet<TxnId>,
    /// Transactions whose TM `End` record has been appended.
    ended: HashSet<TxnId>,
    stats: LogStats,
    seg_stats: SegmentStats,
    recovered_tail: TailState,
    /// Logically forced appends not yet covered by a physical sync (the
    /// force queue group commit is accumulating).
    pending_forces: u64,
    /// The frame being appended, reused across appends so the hot path
    /// encodes once and allocates nothing.
    scratch: Vec<u8>,
}

/// `wal-0007.seg` style name for segment `seq` (widths beyond 4 digits
/// still sort correctly because recovery parses the number, not the
/// string).
fn segment_name(seq: u64) -> String {
    format!("wal-{seq:04}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Path of segment `seq` inside `dir` — exposed so fault injection and
/// the node runtime can point [`FaultyLog::with_path`]
/// (crate::faults::FaultyLog::with_path) at the first live image file.
pub fn segment_path(dir: impl AsRef<Path>, seq: u64) -> PathBuf {
    dir.as_ref().join(segment_name(seq))
}

/// Creates (and durably materializes) a segment file of `cap` bytes of
/// real zeros, returning the handle positioned at offset 0. The one-time
/// `sync_all` here is what buys every later append a metadata-free
/// `sync_data`.
fn preallocate(path: &Path, cap: u64) -> Result<File> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    file.set_len(cap)?;
    let mut w = BufWriter::with_capacity(ZERO_CHUNK, file);
    let zeros = [0u8; ZERO_CHUNK];
    let mut left = cap;
    while left > 0 {
        let n = left.min(ZERO_CHUNK as u64) as usize;
        w.write_all(&zeros[..n])?;
        left -= n as u64;
    }
    w.flush()?;
    let mut file = w.into_inner().map_err(|e| Error::Io(e.into_error()))?;
    file.sync_all()?;
    // Persist the directory entry too, so the segment itself survives a
    // crash right after rotation (best effort off Unix).
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    file.seek(SeekFrom::Start(0))?;
    Ok(file)
}

/// One segment's scan result, offsets local to the segment file.
struct SegScan {
    records: Vec<(u64, StreamId, LogRecord)>,
    /// Offset of the first byte the scan could not parse.
    stop: u64,
    /// True when everything after `stop` is zero fill (or `stop` is
    /// end-of-file) — the normal state of a healthy segment.
    clean: bool,
}

fn scan_segment_bytes(raw: &[u8]) -> SegScan {
    let mut records = Vec::new();
    let mut off = 0usize;
    while let Some((stream, rec, next)) = try_frame(raw, off) {
        records.push((off as u64, stream, rec));
        off = next;
    }
    let clean = raw[off..].iter().all(|&b| b == 0);
    SegScan {
        records,
        stop: off as u64,
        clean,
    }
}

/// Counts the valid frames recoverable at any probe offset after `stop`
/// — the `scan_classified` brute-force resync, reused for the chain's
/// damaged segment.
fn survivors_after(raw: &[u8], stop: usize) -> u32 {
    let mut probe = stop + 1;
    while probe + HEADER_LEN <= raw.len() {
        if try_frame(raw, probe).is_some() {
            let mut survivors = 0u32;
            let mut o = probe;
            while let Some((_, _, next)) = try_frame(raw, o) {
                survivors += 1;
                o = next;
            }
            return survivors;
        }
        probe += 1;
    }
    0
}

/// True when `record` marks its transaction forgettable (TM `End`).
fn is_end_marker(record: &LogRecord) -> bool {
    matches!(record, LogRecord::End { .. })
}

/// Read-only scan of the durable chain under `dir`, oldest segment
/// first — the segmented twin of [`crate::file::scan`], for offline
/// verification. Stops where recovery would (first damaged segment, or a
/// sequence gap) without modifying anything on disk. A missing directory
/// scans as empty.
pub fn scan_chain(dir: impl AsRef<Path>) -> Result<Vec<(Lsn, StreamId, LogRecord)>> {
    let dir = dir.as_ref();
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let segments = list_segments(dir)?;
    let mut out = Vec::new();
    let mut base = 0u64;
    let mut expected = segments.first().map(|(seq, _)| *seq);
    for (seq, path) in &segments {
        if Some(*seq) != expected {
            break;
        }
        expected = Some(seq + 1);
        let raw = fs::read(path)?;
        let scan = scan_segment_bytes(&raw);
        for (off, stream, rec) in scan.records {
            out.push((Lsn(base + off), stream, rec));
        }
        base += scan.stop;
        if !scan.clean {
            break;
        }
    }
    Ok(out)
}

impl SegmentedLog {
    /// Creates a fresh segmented log in `dir` (which is created if
    /// missing and must not already contain segments) with the default
    /// capacity and retention enabled.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self> {
        Self::create_with(dir, DEFAULT_SEGMENT_BYTES, true)
    }

    /// Creates a fresh segmented log with an explicit segment capacity
    /// and retention policy. Existing segments in `dir` are removed —
    /// `create` matches [`FileLog::create`](crate::file::FileLog::create)
    /// truncation semantics.
    pub fn create_with(dir: impl AsRef<Path>, segment_bytes: u64, retain: bool) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for (_, path) in list_segments(&dir)? {
            fs::remove_file(path)?;
        }
        let segment_bytes = segment_bytes.max(MIN_SEGMENT_BYTES);
        let writer = BufWriter::new(preallocate(&segment_path(&dir, 0), segment_bytes)?);
        Ok(SegmentedLog {
            dir,
            segment_bytes,
            retain,
            sealed: Vec::new(),
            writer,
            active_seq: 0,
            active_base: 0,
            active_off: 0,
            active_txns: HashSet::new(),
            ended: HashSet::new(),
            stats: LogStats::default(),
            seg_stats: SegmentStats {
                segments_created: 1,
                ..SegmentStats::default()
            },
            recovered_tail: TailState::Clean,
            pending_forces: 0,
            scratch: Vec::new(),
        })
    }

    /// Opens an existing segmented log with default capacity and
    /// retention, recovering the durable prefix of the chain.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, DEFAULT_SEGMENT_BYTES, true)
    }

    /// Opens an existing segmented log, scanning segments in sequence
    /// order. The first segment showing damage ends the durable prefix:
    /// its non-durable tail is zero-filled, later segments are deleted,
    /// and the stop is classified via [`SegmentedLog::recovered_tail`].
    /// An empty or missing directory recovers to an empty log.
    pub fn open_with(dir: impl AsRef<Path>, segment_bytes: u64, retain: bool) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let segment_bytes = segment_bytes.max(MIN_SEGMENT_BYTES);
        let mut segments = list_segments(&dir)?;
        if segments.is_empty() {
            return Self::create_with(&dir, segment_bytes, retain);
        }
        // A sequence gap orphans everything after it: frames there can
        // never join the chain, so the files are deleted. Rotation never
        // skips a number — gaps only arise from external interference.
        let first_seq = segments[0].0;
        let contiguous = segments
            .iter()
            .enumerate()
            .take_while(|(i, (seq, _))| *seq == first_seq + *i as u64)
            .count();
        for (_, orphan) in segments.drain(contiguous..) {
            let _ = fs::remove_file(orphan);
        }

        let mut sealed = Vec::new();
        let mut ended = HashSet::new();
        let mut base = 0u64;
        let mut tail = TailState::Clean;
        // (seq, stop, txns) of the segment that becomes active again.
        let mut active: Option<(u64, u64, HashSet<TxnId>)> = None;

        for (i, (seq, path)) in segments.iter().enumerate() {
            let raw = fs::read(path)?;
            let scan = scan_segment_bytes(&raw);
            let last = i + 1 == segments.len();
            let mut txns = HashSet::new();
            for (_, _, rec) in scan.records {
                txns.insert(rec.txn());
                if is_end_marker(&rec) {
                    ended.insert(rec.txn());
                }
            }
            if scan.clean {
                if last {
                    active = Some((*seq, scan.stop, txns));
                } else {
                    sealed.push(SealedSegment {
                        path: path.clone(),
                        base,
                        txns,
                    });
                    base += scan.stop;
                }
                continue;
            }
            // Damage ends the durable prefix here. Classify with the
            // scan_classified discipline, counting valid frames after the
            // stop in this segment and in every later (now discarded)
            // segment.
            let mut survivors = survivors_after(&raw, scan.stop as usize);
            for (_, later) in &segments[i + 1..] {
                if let Ok(later_raw) = fs::read(later) {
                    survivors += scan_segment_bytes(&later_raw).records.len() as u32;
                }
                let _ = fs::remove_file(later);
            }
            tail = if survivors > 0 {
                TailState::CorruptionBeforeTail {
                    valid_frames_after: survivors,
                }
            } else {
                TailState::TornTail
            };
            active = Some((*seq, scan.stop, txns));
            break;
        }

        let (active_seq, active_off, active_txns) =
            active.expect("non-empty chain always yields an active segment");
        let active_path = segment_path(&dir, active_seq);
        let mut file = OpenOptions::new().write(true).open(&active_path)?;
        // Restore full preallocation: a torn image may be short, and the
        // damaged tail must not linger where a later scan could misread
        // it. Real zeros, so post-recovery appends stay metadata-free.
        let cap = segment_bytes.max(fs::metadata(&active_path)?.len().max(active_off));
        file.set_len(cap)?;
        file.seek(SeekFrom::Start(active_off))?;
        let mut w = BufWriter::with_capacity(ZERO_CHUNK, file);
        let zeros = [0u8; ZERO_CHUNK];
        let mut left = cap - active_off;
        while left > 0 {
            let n = left.min(ZERO_CHUNK as u64) as usize;
            w.write_all(&zeros[..n])?;
            left -= n as u64;
        }
        w.flush()?;
        let mut file = w.into_inner().map_err(|e| Error::Io(e.into_error()))?;
        file.sync_all()?;
        file.seek(SeekFrom::Start(active_off))?;

        Ok(SegmentedLog {
            dir,
            segment_bytes: cap,
            retain,
            sealed,
            writer: BufWriter::new(file),
            active_seq,
            active_base: base,
            active_off,
            active_txns,
            ended,
            stats: LogStats::default(),
            seg_stats: SegmentStats::default(),
            recovered_tail: tail,
            pending_forces: 0,
            scratch: Vec::new(),
        })
    }

    /// What [`SegmentedLog::open`] found at the end of the durable
    /// prefix — the chain-wide analogue of
    /// [`FileLog::recovered_tail`](crate::file::FileLog::recovered_tail).
    pub fn recovered_tail(&self) -> TailState {
        self.recovered_tail
    }

    /// Directory holding the segment chain.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the oldest live segment — where crash-time image faults
    /// (torn write, bit flip) land.
    pub fn first_segment_path(&self) -> PathBuf {
        self.sealed
            .first()
            .map(|s| s.path.clone())
            .unwrap_or_else(|| segment_path(&self.dir, self.active_seq))
    }

    /// Segment-level counters (rotations, reclamations, preallocations).
    pub fn segment_stats(&self) -> SegmentStats {
        self.seg_stats
    }

    /// Live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Deletes sealed segments from the front of the chain while every
    /// transaction they contain has ended; returns how many were
    /// reclaimed. Called automatically at rotation when retention is on.
    pub fn reclaim(&mut self) -> usize {
        let mut removed = 0;
        while let Some(first) = self.sealed.first() {
            // all() is vacuously true for an (unusual) empty segment —
            // nothing in it to lose, so reclaiming is still right.
            if !first.txns.iter().all(|t| self.ended.contains(t)) {
                break;
            }
            let seg = self.sealed.remove(0);
            let _ = fs::remove_file(&seg.path);
            // Drop `ended` markers no longer pinned by any live segment.
            for t in seg.txns {
                let live = self.active_txns.contains(&t)
                    || self.sealed.iter().any(|s| s.txns.contains(&t));
                if !live {
                    self.ended.remove(&t);
                }
            }
            self.seg_stats.segments_reclaimed += 1;
            removed += 1;
        }
        removed
    }

    /// Seals the active segment (flush + `sync_data`, one physical
    /// flush) and opens the next preallocated one.
    fn rotate(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.stats.physical_flushes += 1;
        self.sealed.push(SealedSegment {
            path: segment_path(&self.dir, self.active_seq),
            base: self.active_base,
            txns: std::mem::take(&mut self.active_txns),
        });
        self.active_base += self.active_off;
        self.active_seq += 1;
        self.active_off = 0;
        self.writer = BufWriter::new(preallocate(
            &segment_path(&self.dir, self.active_seq),
            self.segment_bytes,
        )?);
        self.seg_stats.rotations += 1;
        self.seg_stats.segments_created += 1;
        if self.retain {
            self.reclaim();
        }
        Ok(())
    }

    /// Writes one frame (rotating first if it does not fit) and updates
    /// logical stats; the physical flush is the caller's job.
    fn write_frame(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        let mut frame = std::mem::take(&mut self.scratch);
        let payload_len = encode_frame(&mut frame, stream, &record);
        let written = self.write_encoded(&frame);
        self.scratch = frame;
        let lsn = written?;

        self.stats.writes += 1;
        self.stats.bytes += payload_len as u64;
        if durability.is_forced() {
            self.pending_forces += 1;
            self.stats.forced_writes += 1;
        }
        self.active_txns.insert(record.txn());
        if is_end_marker(&record) {
            self.ended.insert(record.txn());
        }
        Ok(lsn)
    }

    /// Puts one encoded frame into the active segment's buffer, rotating
    /// first if it does not fit. Returns the frame's LSN.
    fn write_encoded(&mut self, frame: &[u8]) -> Result<Lsn> {
        let flen = frame.len() as u64;
        if flen > self.segment_bytes {
            return Err(Error::Log(format!(
                "record frame of {flen} bytes exceeds segment capacity {}",
                self.segment_bytes
            )));
        }
        if self.active_off + flen > self.segment_bytes {
            self.rotate()?;
        }
        let lsn = Lsn(self.active_base + self.active_off);
        self.writer.write_all(frame)?;
        self.active_off += flen;
        Ok(lsn)
    }

    fn sync_active(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.pending_forces = 0;
        Ok(())
    }
}

/// Sorted `(seq, path)` list of segment files in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

impl LogManager for SegmentedLog {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        let lsn = self.write_frame(stream, record, durability)?;
        if durability.is_forced() {
            self.stats.physical_flushes += 1;
            self.sync_active()?;
        }
        Ok(lsn)
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        // Forced durability is still a logical force; the group-commit
        // layer owns the single physical `sync_data` for the batch.
        self.write_frame(stream, record, durability)
    }

    fn flush(&mut self) -> Result<()> {
        self.stats.physical_flushes += 1;
        self.sync_active()
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        // Disk truth over the whole chain, mirroring the open() walk:
        // sealed segments then the active one, stopping at the first
        // damage. Errors degrade to "nothing further durable". LSNs start
        // at the oldest retained segment, matching what `append` returned.
        let mut out = Vec::new();
        let mut base = self.sealed.first().map_or(self.active_base, |s| s.base);
        let chain = self
            .sealed
            .iter()
            .map(|s| s.path.clone())
            .chain(std::iter::once(segment_path(&self.dir, self.active_seq)));
        for path in chain {
            let Ok(raw) = fs::read(&path) else {
                break;
            };
            let scan = scan_segment_bytes(&raw);
            for (off, stream, rec) in scan.records {
                out.push((Lsn(base + off), stream, rec));
            }
            if !scan.clean {
                break;
            }
            base += scan.stop;
        }
        out
    }

    fn stats(&self) -> LogStats {
        self.stats
    }

    fn pending_forces(&self) -> u64 {
        self.pending_forces
    }

    fn crash_discard(&mut self) {
        // Sealed segments were synced at rotation; only the active
        // segment holds bytes a power failure would lose. Swap in a
        // fresh writer, discard the old buffer without flushing, and
        // resync in-memory state to what the disk actually holds.
        let active_path = segment_path(&self.dir, self.active_seq);
        let Ok(file) = OpenOptions::new().write(true).open(&active_path) else {
            return;
        };
        let old = std::mem::replace(&mut self.writer, BufWriter::new(file));
        drop(old.into_parts()); // buffered bytes are discarded, not flushed
        let raw = fs::read(&active_path).unwrap_or_default();
        let scan = scan_segment_bytes(&raw);
        let stop = scan.stop;
        // Zero the partial frame the lost buffer may have left behind,
        // restoring the "frames then zero fill" invariant.
        if (stop as usize) < raw.len() {
            let zeros = vec![0u8; raw.len() - stop as usize];
            let _ = self.writer.seek(SeekFrom::Start(stop));
            let _ = self.writer.write_all(&zeros);
            let _ = self.writer.flush();
        }
        let _ = self.writer.seek(SeekFrom::Start(stop));
        self.active_off = stop;
        self.active_txns = scan.records.iter().map(|(_, _, r)| r.txn()).collect();
        // The torn tail is zeroed, so the retained chain on disk is the
        // whole truth about which transactions have ended.
        self.ended = self
            .durable_records()
            .into_iter()
            .filter(|(_, _, r)| is_end_marker(r))
            .map(|(_, _, r)| r.txn())
            .collect();
        self.pending_forces = 0;
    }
}

impl std::fmt::Debug for SegmentedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedLog")
            .field("dir", &self.dir)
            .field("segment_bytes", &self.segment_bytes)
            .field("active_seq", &self.active_seq)
            .field("active_off", &self.active_off)
            .field("sealed", &self.sealed.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tpc-wal-seg-{}-{name}", std::process::id()))
    }

    fn txn(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn committed(n: u64) -> LogRecord {
        LogRecord::Committed {
            txn: txn(n),
            subordinates: vec![NodeId(1)],
        }
    }

    fn end(n: u64) -> LogRecord {
        LogRecord::End { txn: txn(n) }
    }

    fn rm(dir: &PathBuf) {
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn append_force_reopen_scan() {
        let dir = tmp("basic");
        {
            let mut log = SegmentedLog::create(&dir).unwrap();
            log.append(StreamId::Tm, committed(1), Durability::Forced)
                .unwrap();
            log.append(StreamId::Rm(2), end(2), Durability::Forced)
                .unwrap();
        }
        let log = SegmentedLog::open(&dir).unwrap();
        let recs = log.durable_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, StreamId::Tm);
        assert_eq!(recs[1].1, StreamId::Rm(2));
        assert_eq!(recs[1].2.txn().seq, 2);
        assert!(recs[0].0 < recs[1].0, "LSNs monotone");
        assert_eq!(log.recovered_tail(), TailState::Clean);
        rm(&dir);
    }

    #[test]
    fn preallocation_means_appends_never_extend_the_file() {
        let dir = tmp("prealloc");
        let mut log = SegmentedLog::create_with(&dir, 4096, true).unwrap();
        let path = segment_path(&dir, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4096);
        for i in 0..10 {
            log.append(StreamId::Tm, end(i), Durability::Forced)
                .unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4096,
            "file length untouched by appends"
        );
        rm(&dir);
    }

    #[test]
    fn rotation_seals_and_chains_across_segments() {
        let dir = tmp("rotate");
        let mut log = SegmentedLog::create_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        let mut lsns = Vec::new();
        for i in 0..20 {
            lsns.push(
                log.append(StreamId::Tm, committed(i), Durability::Forced)
                    .unwrap(),
            );
        }
        assert!(log.segment_count() > 1, "small segments must rotate");
        assert!(log.segment_stats().rotations > 0);
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "LSNs monotone");
        // The full history survives a reopen, in order.
        drop(log);
        let log = SegmentedLog::open_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        let recs = log.durable_records();
        assert_eq!(recs.len(), 20);
        for (i, (_, _, rec)) in recs.iter().enumerate() {
            assert_eq!(rec.txn().seq, i as u64);
        }
        assert_eq!(log.recovered_tail(), TailState::Clean);
        rm(&dir);
    }

    #[test]
    fn unflushed_records_are_not_durable() {
        let dir = tmp("unflushed");
        let mut log = SegmentedLog::create(&dir).unwrap();
        log.append(StreamId::Tm, end(1), Durability::NonForced)
            .unwrap();
        assert_eq!(log.durable_records().len(), 0);
        log.flush().unwrap();
        assert_eq!(log.durable_records().len(), 1);
        rm(&dir);
    }

    #[test]
    fn crash_discard_loses_exactly_the_unforced_tail() {
        let dir = tmp("crash-discard");
        let mut log = SegmentedLog::create(&dir).unwrap();
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::NonForced)
            .unwrap();
        log.crash_discard();
        assert_eq!(log.durable_records().len(), 1);
        log.append(StreamId::Tm, end(3), Durability::Forced)
            .unwrap();
        let durable = log.durable_records();
        assert_eq!(durable.len(), 2);
        assert_eq!(durable[1].2.txn().seq, 3);
        rm(&dir);
    }

    #[test]
    fn deferred_forces_share_one_physical_flush() {
        let dir = tmp("deferred");
        let mut log = SegmentedLog::create(&dir).unwrap();
        for i in 0..3 {
            log.append_deferred(StreamId::Tm, end(i), Durability::Forced)
                .unwrap();
        }
        let s = log.stats();
        assert_eq!(s.forced_writes, 3, "logical forces still counted");
        assert_eq!(s.physical_flushes, 0, "no sync until the batch flush");
        assert_eq!(log.durable_records().len(), 0, "nothing durable yet");

        log.flush_batch().unwrap();
        let s = log.stats();
        assert_eq!(s.physical_flushes, 1, "one flush covers the batch");
        assert_eq!(log.durable_records().len(), 3);
        rm(&dir);
    }

    #[test]
    fn torn_tail_at_rotation_boundary_recovers_sealed_prefix() {
        // Fill past one rotation, then tear the *new* active segment so
        // its frames are lost mid-write: recovery must keep every frame
        // of the sealed segment and classify a torn tail.
        let dir = tmp("rotation-torn");
        let mut log = SegmentedLog::create_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        let mut appended = 0u64;
        while log.segment_count() == 1 {
            log.append(StreamId::Tm, committed(appended), Durability::Forced)
                .unwrap();
            appended += 1;
        }
        // One more frame into the fresh segment, then damage its tail.
        log.append(StreamId::Tm, committed(appended), Durability::Forced)
            .unwrap();
        drop(log);
        let active: u64 = list_segments(&dir).unwrap().last().unwrap().0;
        let path = segment_path(&dir, active);
        let raw = std::fs::read(&path).unwrap();
        let scan = scan_segment_bytes(&raw);
        // Cut the last frame in half (mid-frame torn write).
        let tear_at = scan.stop - 3;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(tear_at).unwrap();
        drop(f);

        let log = SegmentedLog::open_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        assert_eq!(log.recovered_tail(), TailState::TornTail);
        let recs = log.durable_records();
        assert_eq!(recs.len() as u64, appended, "sealed prefix intact");
        for (i, (_, _, rec)) in recs.iter().enumerate() {
            assert_eq!(rec.txn().seq, i as u64);
        }
        rm(&dir);
    }

    #[test]
    fn damage_in_sealed_segment_discards_later_segments_as_corruption() {
        let dir = tmp("mid-chain");
        let mut log = SegmentedLog::create_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        let mut appended = 0u64;
        while log.segment_count() < 3 {
            log.append(StreamId::Tm, committed(appended), Durability::Forced)
                .unwrap();
            appended += 1;
        }
        drop(log);
        // Flip a bit inside the FIRST segment's first frame.
        let path = segment_path(&dir, 0);
        let mut raw = std::fs::read(&path).unwrap();
        raw[HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();

        let log = SegmentedLog::open_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        assert!(
            log.recovered_tail().is_corruption(),
            "later valid frames must classify as corruption, got {:?}",
            log.recovered_tail()
        );
        assert_eq!(
            log.durable_records().len(),
            0,
            "prefix recovery still applies"
        );
        assert_eq!(
            list_segments(&dir).unwrap().len(),
            1,
            "segments after the damage are deleted"
        );
        // The log keeps working after recovery.
        let mut log = log;
        log.append(StreamId::Tm, end(999), Durability::Forced)
            .unwrap();
        assert_eq!(log.durable_records().len(), 1);
        rm(&dir);
    }

    #[test]
    fn retention_reclaims_ended_segments_and_keeps_in_doubt() {
        let dir = tmp("retention");
        let mut log = SegmentedLog::create_with(&dir, 256, true).unwrap();
        // Txns 1..=20 run a full life cycle (Committed + End): once a
        // sealed segment holds only ended txns it is reclaimable.
        for i in 1..=20 {
            log.append(StreamId::Tm, committed(i), Durability::Forced)
                .unwrap();
            log.append(StreamId::Tm, end(i), Durability::Forced)
                .unwrap();
        }
        // Txn 99 prepares and never resolves — in doubt. Every segment
        // from its frame onward is pinned; earlier ones keep reclaiming.
        log.append(
            StreamId::Tm,
            LogRecord::Prepared {
                txn: txn(99),
                coordinator: NodeId(1),
                subordinates: vec![NodeId(0)],
                prepared_at: tpc_common::SimTime(0),
            },
            Durability::Forced,
        )
        .unwrap();
        let pinned_from = log.segment_count();
        for i in 100..=120 {
            log.append(StreamId::Tm, committed(i), Durability::Forced)
                .unwrap();
            log.append(StreamId::Tm, end(i), Durability::Forced)
                .unwrap();
        }
        assert!(
            log.segment_stats().segments_reclaimed > 0,
            "fully-ended sealed segments must be reclaimed"
        );
        assert!(
            !segment_path(&dir, 0).exists(),
            "oldest fully-ended segment must be deleted"
        );
        assert!(
            log.segment_count() >= pinned_from,
            "segments at and after the in-doubt txn are retained"
        );
        let recs = log.durable_records();
        assert!(
            recs.iter().any(|(_, _, r)| r.txn() == txn(99)),
            "in-doubt record survives on disk"
        );
        assert!(
            recs.iter().all(|(_, _, r)| r.txn() != txn(1)),
            "reclaimed history leaves the durable view"
        );
        // Reclaimed history is gone from the durable view but the chain
        // still recovers cleanly.
        drop(log);
        let log = SegmentedLog::open_with(&dir, 256, true).unwrap();
        assert_eq!(log.recovered_tail(), TailState::Clean);
        assert!(log
            .durable_records()
            .iter()
            .any(|(_, _, r)| r.txn() == txn(99)));
        rm(&dir);
    }

    #[test]
    fn retention_never_reclaims_without_end_records() {
        let dir = tmp("retention-off");
        let mut log = SegmentedLog::create_with(&dir, 256, true).unwrap();
        for i in 0..40 {
            // RM-style stream: updates and outcomes but no TM End.
            log.append(StreamId::Rm(0), committed(i), Durability::Forced)
                .unwrap();
        }
        assert!(log.segment_count() > 1);
        assert_eq!(
            log.segment_stats().segments_reclaimed,
            0,
            "no End markers -> nothing reclaimed"
        );
        rm(&dir);
    }

    #[test]
    fn oversized_record_is_rejected_not_mangled() {
        let dir = tmp("oversize");
        let mut log = SegmentedLog::create_with(&dir, MIN_SEGMENT_BYTES, false).unwrap();
        let big = LogRecord::Committed {
            txn: txn(1),
            subordinates: (0..200).map(NodeId).collect(),
        };
        assert!(log.append(StreamId::Tm, big, Durability::Forced).is_err());
        assert_eq!(log.stats().writes, 0);
        rm(&dir);
    }

    #[test]
    fn reopen_continues_appending_and_lsns_stay_monotone() {
        let dir = tmp("reopen");
        let last = {
            let mut log = SegmentedLog::create(&dir).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap()
        };
        let mut log = SegmentedLog::open(&dir).unwrap();
        let next = log
            .append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap();
        assert!(next > last);
        assert_eq!(log.durable_records().len(), 2);
        rm(&dir);
    }

    #[test]
    fn durable_lsns_match_append_lsns_after_reclaim() {
        let dir = tmp("lsn-after-reclaim");
        let mut log = SegmentedLog::create_with(&dir, 256, true).unwrap();
        let mut appended = Vec::new();
        for i in 0..40 {
            for rec in [committed(i), end(i)] {
                let lsn = log
                    .append(StreamId::Tm, rec.clone(), Durability::Forced)
                    .unwrap();
                appended.push((lsn, StreamId::Tm, rec));
            }
        }
        assert!(log.segment_stats().segments_reclaimed > 0);
        let durable = log.durable_records();
        assert!(!durable.is_empty());
        assert!(durable[0].0 > Lsn(0), "the chain's head was reclaimed");
        // The durable view is a suffix of what was appended, LSNs included.
        assert_eq!(durable[..], appended[appended.len() - durable.len()..]);
        rm(&dir);
    }

    #[test]
    fn file_and_segmented_logs_write_identical_frames() {
        let dir = tmp("same-frames");
        let path = dir.join("single.log");
        let mut seg = SegmentedLog::create(&dir).unwrap();
        let mut file = crate::file::FileLog::create(&path).unwrap();
        for i in 0..8 {
            let (stream, durability) = if i % 2 == 0 {
                (StreamId::Tm, Durability::Forced)
            } else {
                (StreamId::Rm(3), Durability::NonForced)
            };
            let a = seg.append(stream, committed(i), durability).unwrap();
            let b = file.append(stream, committed(i), durability).unwrap();
            assert_eq!(a, b, "same frame lengths give the same LSNs");
        }
        seg.flush().unwrap();
        file.flush().unwrap();
        assert_eq!(seg.stats(), file.stats());
        let single = std::fs::read(&path).unwrap();
        let segment = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert!(!single.is_empty());
        assert_eq!(segment[..single.len()], single[..]);
        assert!(segment[single.len()..].iter().all(|&b| b == 0));
        rm(&dir);
    }
}
