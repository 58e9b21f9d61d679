//! File-backed log with real fsync and torn-tail recovery.
//!
//! Frame format, little-endian:
//!
//! ```text
//! +---------+---------+----------+-------------------+
//! | u32 len | u32 crc | u8 strm  | payload (len)     |
//! +---------+---------+----------+-------------------+
//! ```
//!
//! `crc` covers the stream byte plus the payload. The recovery scan stops
//! at the first short, zeroed or corrupt frame, treating everything before
//! it as the durable prefix — the standard WAL torn-write discipline.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tpc_common::wire::{crc32, Decode, Encode};
use tpc_common::{Lsn, Result};

use crate::log::{Durability, LogManager, LogStats, StreamId};
use crate::record::LogRecord;

pub(crate) const HEADER_LEN: usize = 4 + 4 + 1;

fn stream_to_byte(s: StreamId) -> [u8; 1] {
    match s {
        StreamId::Tm => [0xFF],
        StreamId::Rm(i) => {
            debug_assert!(i < 0xFF, "RM ids above 254 unsupported in file frames");
            [i as u8]
        }
    }
}

fn stream_from_byte(b: u8) -> StreamId {
    if b == 0xFF {
        StreamId::Tm
    } else {
        StreamId::Rm(b as u16)
    }
}

/// How the recovery scan's stopping point classifies: did the log end in
/// the ordinary torn tail a crash leaves behind, or did valid frames
/// survive *after* the damage — i.e. corruption (bit rot, a misdirected
/// write) inside the committed prefix?
///
/// Both cases recover the same way — truncate to the last valid prefix —
/// but they mean very different things operationally: a torn tail is
/// expected after every crash, while corruption before the tail discards
/// frames that were once durable and must be surfaced, not silently
/// swallowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailState {
    /// Every byte parsed; the file ends exactly at a frame boundary.
    #[default]
    Clean,
    /// The scan stopped at damage with no valid frame after it: the
    /// normal aftermath of a crash mid-append.
    TornTail,
    /// The scan stopped at damage but valid frames follow it — data that
    /// was durably written is being dropped by prefix truncation.
    CorruptionBeforeTail {
        /// Valid frames found after the damaged region (all discarded).
        valid_frames_after: u32,
    },
}

impl TailState {
    /// True when prefix truncation discarded once-durable frames.
    pub fn is_corruption(&self) -> bool {
        matches!(self, TailState::CorruptionBeforeTail { .. })
    }
}

/// Result of a classified recovery scan: the durable prefix plus what the
/// stopping point looked like.
#[derive(Debug)]
pub struct ScanReport {
    /// The valid prefix, in LSN order.
    pub records: Vec<(Lsn, StreamId, LogRecord)>,
    /// Classification of whatever ended the scan.
    pub tail: TailState,
}

/// An append-only log file.
pub struct FileLog {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Byte offset of the next frame == LSN of the next record.
    next_offset: u64,
    stats: LogStats,
    /// What `open` found at the end of the durable prefix.
    recovered_tail: TailState,
    /// Logically forced appends not yet covered by a physical sync.
    pending_forces: u64,
}

impl FileLog {
    /// Creates (truncating) a new log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileLog {
            path,
            writer: BufWriter::new(file),
            next_offset: 0,
            stats: LogStats::default(),
            recovered_tail: TailState::Clean,
            pending_forces: 0,
        })
    }

    /// Opens an existing log file, scanning the durable prefix and
    /// positioning new appends after the last valid frame. Any tail is
    /// still truncated (prefix recovery is the only safe answer), but its
    /// classification — clean, torn, or corruption before the tail — is
    /// kept and reported via [`FileLog::recovered_tail`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let report = scan_classified(&path)?;
        let next_offset = report
            .records
            .last()
            .map(|(lsn, _, rec)| lsn.0 + frame_len(rec) as u64)
            .unwrap_or(0);
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(next_offset)?; // drop the damaged tail
        file.seek(SeekFrom::Start(next_offset))?;
        Ok(FileLog {
            path,
            writer: BufWriter::new(file),
            next_offset,
            stats: LogStats::default(),
            recovered_tail: report.tail,
            pending_forces: 0,
        })
    }

    /// What [`FileLog::open`] found at the end of the durable prefix:
    /// a clean boundary, a torn tail, or corruption with valid frames
    /// after it.
    pub fn recovered_tail(&self) -> TailState {
        self.recovered_tail
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

pub(crate) fn frame_len(record: &LogRecord) -> usize {
    HEADER_LEN + record.encode_to_bytes().len()
}

/// Replaces `buf` with one frame (see the module docs) and returns the
/// payload length. The record is encoded once, in place; the header words
/// are patched in after it.
pub(crate) fn encode_frame(buf: &mut Vec<u8>, stream: StreamId, record: &LogRecord) -> usize {
    buf.clear();
    buf.extend_from_slice(&[0; HEADER_LEN - 1]);
    buf.extend_from_slice(&stream_to_byte(stream));
    record.encode_append(buf);
    let payload_len = buf.len() - HEADER_LEN;
    let crc = crc32(&buf[HEADER_LEN - 1..]);
    buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    payload_len
}

/// Tries to parse one frame at `off`; returns the record and the offset
/// of the next frame, or `None` if the bytes at `off` are not a complete
/// valid frame.
pub(crate) fn try_frame(raw: &[u8], off: usize) -> Option<(StreamId, LogRecord, usize)> {
    if off + HEADER_LEN > raw.len() {
        return None;
    }
    let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(raw[off + 4..off + 8].try_into().unwrap());
    let body_start = off + 8;
    let body_end = body_start.checked_add(1 + len)?;
    if body_end > raw.len() {
        return None;
    }
    let body = &raw[body_start..body_end];
    if crc32(body) != crc {
        return None;
    }
    let stream = stream_from_byte(body[0]);
    let rec = LogRecord::decode_all(&body[1..]).ok()?;
    Some((stream, rec, body_end))
}

/// Reads the durable prefix of the log file at `path`.
pub fn scan(path: impl AsRef<Path>) -> Result<Vec<(Lsn, StreamId, LogRecord)>> {
    Ok(scan_classified(path)?.records)
}

/// Reads the durable prefix and classifies whatever stopped the scan:
/// a clean end-of-file, the torn tail of an interrupted append, or —
/// the alarming case — a damaged frame with valid frames *after* it,
/// meaning once-durable data is being discarded by prefix truncation.
pub fn scan_classified(path: impl AsRef<Path>) -> Result<ScanReport> {
    let mut raw = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut raw)?;
    let mut records = Vec::new();
    let mut off = 0usize;
    while let Some((stream, rec, next)) = try_frame(&raw, off) {
        records.push((Lsn(off as u64), stream, rec));
        off = next;
    }
    if off == raw.len() {
        return Ok(ScanReport {
            records,
            tail: TailState::Clean,
        });
    }
    // The scan stopped before end-of-file. A pure torn tail has nothing
    // parseable after the stopping point; if any later offset yields a
    // valid frame, the damage sits in front of data that was durable —
    // corruption, not an ordinary crash artifact. The brute-force resync
    // is O(file × frame) but recovery scans are rare and logs small.
    let mut probe = off + 1;
    while probe + HEADER_LEN <= raw.len() {
        if try_frame(&raw, probe).is_some() {
            // Count the surviving chain so the report says how much
            // once-durable data the truncation throws away.
            let mut survivors = 0u32;
            let mut o = probe;
            while let Some((_, _, next)) = try_frame(&raw, o) {
                survivors += 1;
                o = next;
            }
            return Ok(ScanReport {
                records,
                tail: TailState::CorruptionBeforeTail {
                    valid_frames_after: survivors,
                },
            });
        }
        probe += 1;
    }
    Ok(ScanReport {
        records,
        tail: TailState::TornTail,
    })
}

impl FileLog {
    /// Writes the frame and updates logical stats; the physical flush (if
    /// any) is the caller's job.
    fn write_frame(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        let mut frame = Vec::new();
        let payload_len = encode_frame(&mut frame, stream, &record);
        let lsn = Lsn(self.next_offset);
        self.writer.write_all(&frame)?;
        self.next_offset += frame.len() as u64;

        self.stats.writes += 1;
        self.stats.bytes += payload_len as u64;
        if durability.is_forced() {
            self.stats.forced_writes += 1;
            self.pending_forces += 1;
        }
        Ok(lsn)
    }
}

impl LogManager for FileLog {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        let lsn = self.write_frame(stream, record, durability)?;
        if durability.is_forced() {
            self.stats.physical_flushes += 1;
            self.writer.flush()?;
            self.writer.get_ref().sync_data()?;
            self.pending_forces = 0;
        }
        Ok(lsn)
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        // Forced durability is still recorded as a logical force; the
        // group-commit layer owns the single physical `sync_data` that
        // covers the batch (`flush_batch`).
        self.write_frame(stream, record, durability)
    }

    fn flush(&mut self) -> Result<()> {
        self.stats.physical_flushes += 1;
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.pending_forces = 0;
        Ok(())
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        // What is on disk right now (buffered writes not yet flushed are
        // not durable). Errors degrade to "nothing durable" which is the
        // conservative answer for recovery tests.
        scan(&self.path).unwrap_or_default()
    }

    fn stats(&self) -> LogStats {
        self.stats
    }

    fn pending_forces(&self) -> u64 {
        self.pending_forces
    }

    fn crash_discard(&mut self) {
        // A dropped `BufWriter` flushes its buffer, which would let
        // non-forced records survive a "crash". Swap in a fresh writer and
        // dismantle the old one without flushing, then resync the append
        // position to what is actually on disk.
        let Ok(file) = OpenOptions::new().write(true).open(&self.path) else {
            return;
        };
        let old = std::mem::replace(&mut self.writer, BufWriter::new(file));
        drop(old.into_parts()); // buffered bytes are discarded, not flushed
        self.next_offset = scan(&self.path)
            .unwrap_or_default()
            .last()
            .map(|(lsn, _, rec)| lsn.0 + frame_len(rec) as u64)
            .unwrap_or(0);
        let _ = self.writer.get_mut().set_len(self.next_offset);
        let _ = self.writer.seek(SeekFrom::Start(self.next_offset));
        self.pending_forces = 0;
    }
}

impl std::fmt::Debug for FileLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileLog")
            .field("path", &self.path)
            .field("next_offset", &self.next_offset)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{NodeId, TxnId};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tpc-wal-test-{}-{name}.log", std::process::id()));
        p
    }

    fn end(n: u64) -> LogRecord {
        LogRecord::End {
            txn: TxnId::new(NodeId(0), n),
        }
    }

    #[test]
    fn append_force_reopen_scan() {
        let path = tmp("basic");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
            log.append(StreamId::Rm(2), end(2), Durability::Forced)
                .unwrap();
        }
        let recovered = scan(&path).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].1, StreamId::Tm);
        assert_eq!(recovered[1].1, StreamId::Rm(2));
        assert_eq!(recovered[1].2.txn().seq, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unflushed_records_are_not_durable() {
        let path = tmp("unflushed");
        let mut log = FileLog::create(&path).unwrap();
        log.append(StreamId::Tm, end(1), Durability::NonForced)
            .unwrap();
        // Still sitting in the BufWriter.
        assert_eq!(log.durable_records().len(), 0);
        log.flush().unwrap();
        assert_eq!(log.durable_records().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_on_open() {
        let path = tmp("torn");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
            log.append(StreamId::Tm, end(2), Durability::Forced)
                .unwrap();
        }
        // Corrupt the second frame's payload byte.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let reopened = FileLog::open(&path).unwrap();
        let recovered = reopened.durable_records();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].2.txn().seq, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_header_is_tolerated() {
        let path = tmp("shorthdr");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0x12, 0x34]); // partial next header
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(scan(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_recovery_open() {
        let path = tmp("continue");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
        }
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(StreamId::Tm, end(2), Durability::Forced)
                .unwrap();
        }
        let recovered = scan(&path).unwrap();
        assert_eq!(recovered.len(), 2);
        assert!(recovered[0].0 < recovered[1].0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_discard_loses_exactly_the_unforced_tail() {
        let path = tmp("crash-discard");
        let mut log = FileLog::create(&path).unwrap();
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::NonForced)
            .unwrap();
        log.crash_discard();
        assert_eq!(log.durable_records().len(), 1);
        // The log keeps working after the simulated crash.
        log.append(StreamId::Tm, end(3), Durability::Forced)
            .unwrap();
        let recovered = scan(&path).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].2.txn().seq, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deferred_forces_share_one_physical_flush() {
        let path = tmp("deferred");
        let mut log = FileLog::create(&path).unwrap();
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

        // A crash before the batch flush would have lost all three:
        log.append_deferred(StreamId::Tm, end(9), Durability::Forced)
            .unwrap();
        log.crash_discard();
        assert_eq!(log.durable_records().len(), 3, "suspended force lost");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_prior_corruption_are_distinguished() {
        // Case 1: a genuinely torn tail (partial last frame).
        let path = tmp("classify-torn");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
            log.append(StreamId::Tm, end(2), Durability::Forced)
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let report = scan_classified(&path).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.tail, TailState::TornTail);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.recovered_tail(), TailState::TornTail);

        // Case 2: same file, but the damage hits frame 1 of 3 while
        // frames 2 and 3 stay intact — corruption before the tail.
        let path2 = tmp("classify-corrupt");
        {
            let mut log = FileLog::create(&path2).unwrap();
            for i in 1..=3 {
                log.append(StreamId::Tm, end(i), Durability::Forced)
                    .unwrap();
            }
        }
        let mut raw = std::fs::read(&path2).unwrap();
        let frame = raw.len() / 3;
        raw[frame / 2] ^= 0x40; // flip a bit inside frame 0
        std::fs::write(&path2, &raw).unwrap();
        let report = scan_classified(&path2).unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(
            report.tail,
            TailState::CorruptionBeforeTail {
                valid_frames_after: 2
            }
        );
        assert!(report.tail.is_corruption());
        let log = FileLog::open(&path2).unwrap();
        assert!(log.recovered_tail().is_corruption());
        assert_eq!(
            log.durable_records().len(),
            0,
            "prefix recovery still applies"
        );

        // Case 3: an untouched file is clean.
        let path3 = tmp("classify-clean");
        {
            let mut log = FileLog::create(&path3).unwrap();
            log.append(StreamId::Tm, end(1), Durability::Forced)
                .unwrap();
        }
        assert_eq!(scan_classified(&path3).unwrap().tail, TailState::Clean);
        for p in [&path, &path2, &path3] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn stats_count_forces_and_flushes() {
        let path = tmp("stats");
        let mut log = FileLog::create(&path).unwrap();
        log.append(StreamId::Tm, end(1), Durability::NonForced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap();
        let s = log.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.forced_writes, 1);
        assert_eq!(s.physical_flushes, 1);
        std::fs::remove_file(&path).ok();
    }
}
