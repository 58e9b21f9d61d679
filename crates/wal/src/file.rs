//! The on-disk frame codec, shared by every segment of
//! [`SegmentedLog`](crate::segment::SegmentedLog) — the one on-disk log.
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

use tpc_common::wire::{crc32, Decode, Encode};

use crate::log::StreamId;
use crate::record::LogRecord;

/// The segmented chain under its old single-file name. Kept only because
/// the benchmark adapter still names `file::FileLog` for its
/// `wal.file_flush_us` probe; it goes when that probe does.
pub type FileLog = crate::segment::SegmentedLog;

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

/// How the recovery scan's stopping point classifies: did the chain end in
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
    /// Every frame parsed; the chain ends at a frame boundary followed
    /// only by zero fill.
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
