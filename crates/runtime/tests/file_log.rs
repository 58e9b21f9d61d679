//! The live runtime over durable file logs (`with_file_log`, one TM and
//! one RM segment chain per node): commits survive on disk and the chain
//! scan reads them back.

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, TempDir};
use tpc_runtime::{LiveCluster, LiveNodeConfig};
use tpc_wal::segment::scan_chain;
use tpc_wal::StreamId;

#[test]
fn file_backed_cluster_commits_and_logs_durably() {
    let dir = TempDir::new("live-log");
    let cluster = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_file_log(dir.path()),
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_file_log(dir.path()),
    ]);
    for i in 0..3 {
        let t = cluster.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("durable", &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    // Let ack collection settle so END records land.
    assert!(cluster.quiesce(std::time::Duration::from_secs(2)));
    cluster.shutdown();

    // The coordinator's on-disk log holds the PN history for all three
    // transactions: CommitPending*, Committed* per txn (END may be
    // buffered, unforced — exactly the §2 contract).
    let records = scan_chain(dir.join("node-0-wal")).expect("scan coordinator chain");
    let kinds: Vec<&str> = records
        .iter()
        .filter(|(_, s, _)| *s == StreamId::Tm)
        .map(|(_, _, r)| r.kind_name())
        .collect();
    assert_eq!(kinds.iter().filter(|k| **k == "CommitPending").count(), 3);
    assert_eq!(kinds.iter().filter(|k| **k == "Committed").count(), 3);

    let sub_records = scan_chain(dir.join("node-1-wal")).expect("scan subordinate chain");
    assert!(sub_records
        .iter()
        .any(|(_, _, r)| r.kind_name() == "Prepared"));
    // The log is not shared, so the subordinate's redo has a chain of
    // its own.
    let redo = scan_chain(dir.join("node-1-rm-wal")).expect("scan subordinate RM chain");
    assert!(redo.iter().any(|(_, _, r)| r.kind_name() == "RmUpdate"));
}
