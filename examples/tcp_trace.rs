//! Failure-path observability over real TCP: crash a subordinate in
//! doubt, restart it, then scrape the whole story from a live HTTP
//! `/metrics` endpoint and export one cross-node chrome trace.
//!
//! ```text
//! cargo run --example tcp_trace                                   # print both exports
//! cargo run --example tcp_trace -- trace.json                     # write chrome-trace
//! cargo run --example tcp_trace -- trace.json timeline.json       # + windowed timeline
//! ```
//!
//! Three nodes speak Presumed Abort over loopback TCP sockets. The
//! subordinate on node 1 is armed to die right after it forces its
//! Prepared record and votes YES — the classic in-doubt window. The
//! coordinator decides commit while it is dead; after restart the
//! subordinate recovers from its WAL and learns the outcome over the
//! wire. Everything is then read back the way an operator would:
//!
//! * an HTTP GET against [`TcpCluster::serve_metrics`] (a real socket
//!   scrape, exactly what `curl` or a Prometheus server sees), showing
//!   the closed `tpc_in_doubt_seconds` window and the restart's
//!   `tpc_recovery_*` counters;
//! * a chrome-trace JSON stitched from all three nodes' spans via the
//!   trace context each TCP frame carried.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use twopc::prelude::*;
use twopc::runtime::tcp::TcpCluster;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("well-formed response");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("tpc-tcp-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let timeouts = twopc::core::Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    };
    let cfg = || {
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_tracing()
            .with_file_log(&dir)
            .with_timeouts(timeouts)
    };
    let root = NodeId(0);
    let victim = NodeId(1);
    let mut cluster = TcpCluster::start(vec![
        cfg(),
        // Frame 1 is the work, frame 2 the Prepare: die right after
        // forcing the Prepared record and voting YES — in doubt.
        cfg().kill_after_frames(2),
        cfg(),
    ])
    .expect("bind loopback listeners");

    let txn = cluster.begin(root);
    let id = txn.id();
    txn.work(victim, vec![Op::put("accounts/alice", "90")]);
    txn.work(NodeId(2), vec![Op::put("accounts/bob", "110")]);
    let wait = txn.commit_async();

    cluster
        .await_death(victim, Duration::from_secs(10))
        .expect("the victim crashes on schedule");
    eprintln!("victim crashed in doubt; in-doubt window is open");
    // Let the outage — and therefore the in-doubt window — be plainly
    // visible in the histogram.
    std::thread::sleep(Duration::from_millis(50));
    cluster
        .restart(victim)
        .expect("restart from the durable WAL");

    let result = wait
        .wait_with(Duration::from_secs(10))
        .expect("the coordinator answers");
    assert_eq!(result.outcome, Outcome::Commit);
    assert!(cluster.quiesce(Duration::from_secs(10)));

    // Scrape the cluster exactly like an operator would.
    let server = cluster
        .serve_metrics("127.0.0.1:0")
        .expect("bind metrics endpoint");
    eprintln!("metrics live at http://{}/metrics", server.addr());
    let body = http_get(server.addr(), "/metrics");
    assert_eq!(http_get(server.addr(), "/healthz"), "ok\n");

    println!("=== scraped from http://{}/metrics ===", server.addr());
    print!("{body}");

    // The scrape carries the failure story: a closed in-doubt window on
    // the victim and the restart's recovery counters.
    let sample = |name: &str| {
        body.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>()
    };
    assert!(sample("tpc_in_doubt_entered_total") >= 1.0, "{body}");
    assert!(sample("tpc_in_doubt_seconds_sum") > 0.0, "{body}");
    assert!(sample("tpc_recovery_in_doubt_total") >= 1.0, "{body}");
    assert!(sample("tpc_recovery_wal_records_total") >= 1.0, "{body}");
    assert!(sample("tpc_recovery_queries_sent_total") >= 1.0, "{body}");

    // The windowed view of the same story: `/timeline` carries every
    // node's ring with the counter/gauge/histogram families, and the
    // committed transaction landed in some window.
    let timeline = http_get(server.addr(), "/timeline");
    eprintln!("timeline live at http://{}/timeline", server.addr());
    for family in [
        "\"window_us\":",
        "\"windows\":[",
        "\"counters\":{",
        "\"committed\":",
        "\"in_doubt_entered\":",
        "\"gauges\":{",
        "\"lane_inbox\":",
        "\"latency\":{",
        "\"prepare\":",
    ] {
        assert!(timeline.contains(family), "missing {family} in {timeline}");
    }

    // And the flight recorder: the victim's ring must carry its in-doubt
    // entry, the resolution after restart, and the commit decision.
    let flight = http_get(server.addr(), "/debug/flight");
    for kind in ["in_doubt_enter", "in_doubt_resolve", "decision"] {
        assert!(flight.contains(kind), "missing {kind} in {flight}");
    }
    if let Some(path) = std::env::args().nth(2) {
        std::fs::write(&path, &timeline).expect("write timeline file");
        eprintln!("wrote windowed /timeline scrape to {path}");
    }

    // One causally-stitched tree across all three nodes, over TCP.
    let trace = cluster.chrome_trace(id);
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &trace).expect("write trace file");
            eprintln!("wrote cross-node chrome-trace for {id} to {path}");
        }
        None => {
            println!("=== chrome-trace ({id}) ===");
            println!("{trace}");
        }
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
