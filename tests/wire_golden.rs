//! Golden guards for the two byte formats that outlive a process: the
//! wire encoding of protocol frames and the on-disk segmented WAL.
//!
//! Round-trip tests cannot see a format drift (a change on both sides
//! round-trips fine), so these compare against hex checked in under
//! `tests/golden/`. A mismatch in `wire.hex` prints the full encoding
//! the code now produces; replacing the fixture with it is a wire-format
//! change and breaks every peer and log written before it.

use std::path::Path;

use twopc::common::wire::Encode;
use twopc::common::{
    DamageReport, HeuristicOutcome, Lsn, NodeId, Outcome, RmId, SimTime, TempDir, TraceCtx, TxnId,
    Vote, VoteFlags,
};
use twopc::core::messages::{Bundle, Frame, ProtocolMsg};
use twopc::wal::{Durability, LogManager, LogRecord, SegmentedLog, StreamId, TailState};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// `name hex` lines of a fixture, skipping blanks and `#` comments.
fn fixture_lines(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("`name hex` line"))
        .collect()
}

fn txn() -> TxnId {
    TxnId::new(NodeId(1), 7)
}

fn messages() -> Vec<(&'static str, ProtocolMsg)> {
    let t = txn();
    vec![
        (
            "work",
            ProtocolMsg::Work {
                txn: t,
                payload: b"put a 1".to_vec(),
            },
        ),
        (
            "prepare",
            ProtocolMsg::Prepare {
                txn: t,
                long_locks: true,
                expect_work: false,
            },
        ),
        (
            "vote_yes",
            ProtocolMsg::VoteMsg {
                txn: t,
                vote: Vote::Yes(VoteFlags {
                    ok_to_leave_out: true,
                    reliable: false,
                    unsolicited: true,
                    last_agent_delegation: false,
                    expect_work: true,
                }),
            },
        ),
        (
            "vote_no",
            ProtocolMsg::VoteMsg {
                txn: t,
                vote: Vote::No,
            },
        ),
        (
            "vote_read_only",
            ProtocolMsg::VoteMsg {
                txn: t,
                vote: Vote::ReadOnly,
            },
        ),
        (
            "decision_commit",
            ProtocolMsg::Decision {
                txn: t,
                outcome: Outcome::Commit,
            },
        ),
        (
            "decision_abort",
            ProtocolMsg::Decision {
                txn: t,
                outcome: Outcome::Abort,
            },
        ),
        (
            "ack",
            ProtocolMsg::Ack {
                txn: t,
                report: DamageReport {
                    heuristic_no_damage: vec![NodeId(5)],
                    damaged: vec![NodeId(6), NodeId(7)],
                    outcome_pending: vec![NodeId(8)],
                },
                pending: true,
            },
        ),
        ("query", ProtocolMsg::Query { txn: t }),
        ("outcome_unknown", ProtocolMsg::OutcomeUnknown { txn: t }),
    ]
}

fn log_records() -> Vec<(&'static str, LogRecord)> {
    let t = txn();
    vec![
        (
            "commit_pending",
            LogRecord::CommitPending {
                txn: t,
                subordinates: vec![NodeId(2), NodeId(3)],
            },
        ),
        (
            "collecting",
            LogRecord::Collecting {
                txn: t,
                subordinates: vec![NodeId(4)],
            },
        ),
        (
            "prepared",
            LogRecord::Prepared {
                txn: t,
                coordinator: NodeId(0),
                subordinates: vec![NodeId(9)],
                prepared_at: SimTime(123_456),
            },
        ),
        (
            "committed",
            LogRecord::Committed {
                txn: t,
                subordinates: vec![NodeId(3)],
            },
        ),
        (
            "aborted",
            LogRecord::Aborted {
                txn: t,
                subordinates: vec![],
            },
        ),
        (
            "heuristic",
            LogRecord::Heuristic {
                txn: t,
                decision: HeuristicOutcome::Mixed,
            },
        ),
        ("end", LogRecord::End { txn: t }),
        (
            "rm_update_delete",
            LogRecord::RmUpdate {
                rm: RmId(1),
                txn: t,
                key: b"acct/123".to_vec(),
                before: Some(b"100".to_vec()),
                after: None,
            },
        ),
        (
            "rm_update_insert",
            LogRecord::RmUpdate {
                rm: RmId(1),
                txn: t,
                key: b"new".to_vec(),
                before: None,
                after: Some(b"v".to_vec()),
            },
        ),
        (
            "rm_prepared",
            LogRecord::RmPrepared {
                rm: RmId(2),
                txn: t,
            },
        ),
        (
            "rm_committed",
            LogRecord::RmCommitted {
                rm: RmId(2),
                txn: t,
            },
        ),
        (
            "rm_aborted",
            LogRecord::RmAborted {
                rm: RmId(2),
                txn: t,
            },
        ),
    ]
}

/// Every encoding the fixture pins, as `name hex` lines.
fn encodings() -> String {
    let mut out = String::new();
    let mut line = |name: &str, bytes: Vec<u8>| {
        out.push_str(&format!("{name} {}\n", hex(&bytes)));
    };
    let msgs = messages();
    for (name, m) in &msgs {
        line(&format!("msg.{name}"), m.encode_to_bytes().to_vec());
    }
    let bundle = Bundle(msgs.into_iter().map(|(_, m)| m).collect());
    line(
        "frame.plain",
        Frame {
            ctx: None,
            bundle: bundle.clone(),
        }
        .encode_to_bytes()
        .to_vec(),
    );
    line(
        "frame.traced",
        Frame {
            ctx: Some(TraceCtx {
                txn: txn(),
                parent_seat: (3u64 << 40) | 17,
                sent_at: SimTime(987_654),
            }),
            bundle,
        }
        .encode_to_bytes()
        .to_vec(),
    );
    for (name, rec) in log_records() {
        line(&format!("log.{name}"), rec.encode_to_bytes().to_vec());
    }
    // `encode_append` is the pooled-buffer path: it must append the same
    // bytes after whatever the buffer already holds.
    let mut appended = vec![0xAA, 0xBB];
    ProtocolMsg::Query { txn: txn() }.encode_append(&mut appended);
    line("append.query_after_2", appended);
    out
}

#[test]
fn encodings_match_the_golden_bytes() {
    let golden = include_str!("golden/wire.hex");
    let actual = encodings();
    let want = fixture_lines(golden);
    let got = fixture_lines(&actual);
    if want != got {
        let first = want
            .iter()
            .zip(&got)
            .position(|(w, g)| w != g)
            .unwrap_or(want.len().min(got.len()));
        panic!(
            "wire encoding differs from tests/golden/wire.hex, first at entry {}:\n  got:  {:?}\n  want: {:?}\nfull encoding now produced:\n{actual}",
            first + 1,
            got.get(first),
            want.get(first),
        );
    }
}

/// The records of the checked-in WAL image, in append order.
fn wal_records() -> Vec<(StreamId, LogRecord, Durability)> {
    let t = |seq| TxnId::new(NodeId(0), seq);
    let mut out = Vec::new();
    for seq in 1..=3 {
        out.push((
            StreamId::Rm(1),
            LogRecord::RmUpdate {
                rm: RmId(1),
                txn: t(seq),
                key: format!("k{seq}").into_bytes(),
                before: (seq > 1).then(|| b"old".to_vec()),
                after: Some(format!("v{seq}").into_bytes()),
            },
            Durability::NonForced,
        ));
        out.push((
            StreamId::Rm(1),
            LogRecord::RmPrepared {
                rm: RmId(1),
                txn: t(seq),
            },
            Durability::Forced,
        ));
        out.push((
            StreamId::Tm,
            LogRecord::Committed {
                txn: t(seq),
                subordinates: vec![NodeId(1), NodeId(2)],
            },
            Durability::Forced,
        ));
        out.push((
            StreamId::Tm,
            LogRecord::End { txn: t(seq) },
            Durability::Forced,
        ));
    }
    out
}

/// Smallest segment the log accepts, so a dozen records span several
/// segment files.
const SEGMENT_BYTES: u64 = 128;

/// `name hex` lines for every segment file in `dir`, in name order.
fn image_of(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read image dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    names
        .iter()
        .map(|n| {
            format!(
                "{n} {}\n",
                hex(&std::fs::read(dir.join(n)).expect("read segment"))
            )
        })
        .collect()
}

#[test]
fn parent_wal_image_reopens_with_the_same_records() {
    let golden = include_str!("golden/wal_image.hex");
    let image = fixture_lines(golden);

    // Writing the same records today yields the same bytes on disk.
    let fresh = TempDir::new("wal-golden-write");
    let mut expected = Vec::new();
    {
        let mut log = SegmentedLog::create_with(&fresh, SEGMENT_BYTES).expect("create");
        for (stream, rec, durability) in wal_records() {
            let lsn = log.append(stream, rec.clone(), durability).expect("append");
            expected.push((lsn, stream, rec));
        }
        log.flush().expect("flush");
    }
    let written = image_of(&fresh);
    assert_eq!(
        fixture_lines(&written),
        image,
        "segment bytes differ from tests/golden/wal_image.hex; image now written:\n{written}"
    );
    assert!(image.len() > 1, "the image must span several segments");

    // The checked-in image reopens to exactly those records, cleanly.
    let dir = TempDir::new("wal-golden-reopen");
    for (name, bytes) in &image {
        std::fs::write(dir.join(name), unhex(bytes)).expect("write segment");
    }
    let log = SegmentedLog::open_with(&dir, SEGMENT_BYTES).expect("open image");
    let recovered: Vec<(Lsn, StreamId, LogRecord)> = log.durable_records();
    let tail = log.recovered_tail();
    drop(log);
    assert_eq!(recovered, expected);
    assert_eq!(tail, TailState::Clean);
}
