//! **Bench 7** — durable snapshot/restore of warm serving state
//! (`server::snapshot`).
//!
//! The run builds a warm primary the expensive way (a cold exploration
//! populates its transposition tables), snapshots that state to disk,
//! then boots a fresh replica with `--warm-from` semantics and measures
//! how long the restore path takes against the cold rebuild it replaces.
//! The replica's warm root query must answer from the restored table —
//! memo hits, zero misses — and agree with the primary. One JSON row per
//! phase:
//!
//! ```text
//! {"bench":"snapshot","phase":"restore","wall_ms":…,"bytes":…,
//!  "memo_hits":…,"memo_misses":…,"vm_rss_mb":…}
//! ```
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench7 [-- --smoke]`
//!
//! The full run writes `BENCH_7.json` to the working directory and
//! asserts the headline claim (restore ≪ cold rebuild); `--smoke` keeps a
//! small instance, skips the write and the timing assertion, and instead
//! checks that the committed `BENCH_7.json` is well-formed (the CI guard
//! for the artifact).

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use coursenav_navigator::{ExplorationRequest, GoalSpec};
use coursenav_registrar::RegistrarData;
use coursenav_server::{Server, ServerConfig};

struct Row {
    phase: &'static str,
    wall_ms: f64,
    bytes: u64,
    memo_hits: u64,
    memo_misses: u64,
    vm_rss_mb: f64,
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\":\"snapshot\",\"phase\":\"{}\",\"wall_ms\":{:.3},\"bytes\":{},\
             \"memo_hits\":{},\"memo_misses\":{},\"vm_rss_mb\":{:.1}}}{}\n",
            r.phase,
            r.wall_ms,
            r.bytes,
            r.memo_hits,
            r.memo_misses,
            r.vm_rss_mb,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Resident set size in MiB, from `/proc/self/status` (0.0 where the
/// procfs is unavailable — the rows still carry every counter).
fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// One `connection: close` request; returns `(status, body)`.
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let _ = stream.set_nodelay(true);
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: loopback\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head")
        + 4;
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (
        status,
        String::from_utf8_lossy(&raw[head_end..]).into_owned(),
    )
}

/// The memo block off `/v1/metrics`: `(hits, misses, entries)`.
fn memo_counters(addr: SocketAddr) -> (u64, u64, u64) {
    let (status, body) = roundtrip(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics: serde_json::Value = serde_json::from_str(&body).expect("metrics JSON");
    (
        metrics["memo"]["hits"].as_u64().unwrap_or(0),
        metrics["memo"]["misses"].as_u64().unwrap_or(0),
        metrics["memo"]["entries"].as_u64().unwrap_or(0),
    )
}

/// The exploration's semantic payload — total and goal path counts — so
/// warm answers can be compared to cold ones without the wall-clock
/// `millis` field getting in the way.
fn counts(body: &str) -> (u64, u64) {
    let value: serde_json::Value = serde_json::from_str(body).expect("exploration JSON");
    (
        value["counts"]["total_paths"].as_u64().expect("total"),
        value["counts"]["goal_paths"].as_u64().unwrap_or(0),
    )
}

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        // Explicit writes only: the cadence must never race the phases.
        snapshot_every: Duration::from_secs(3600),
        default_budget_ms: None,
        memo_entries: 1 << 16,
        ..ServerConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The paper-shaped sparse instance (see `bench::sparse_instance`):
    // 10⁵–10⁶ deadline paths at five semesters — a cold build worth
    // persisting, without the dense catalog's combinatorial cliff.
    let semesters = if smoke { 4 } else { 6 };
    println!("Bench 7: durable snapshot/restore of warm serving state\n");
    let synth = coursenav_bench::sparse_instance(8);
    let data = || RegistrarData {
        catalog: synth.catalog.clone(),
        degree: Some(synth.degree.clone()),
        offering: Some(synth.offering.clone()),
        horizon: (synth.start, synth.end),
    };
    let mut req = ExplorationRequest::deadline_count(synth.start, synth.start + semesters, 3);
    req.goal = Some(GoalSpec::Degree);
    let json = req.to_json().expect("serialize request");

    let dir = std::env::temp_dir().join(format!("coursenav-bench7-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:>16} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "phase", "wall ms", "bytes", "memo hits", "memo misses", "RSS MiB"
    );
    let record = |rows: &mut Vec<Row>, phase: &'static str, wall: Duration, bytes, hits, misses| {
        let row = Row {
            phase,
            wall_ms: wall.as_secs_f64() * 1e3,
            bytes,
            memo_hits: hits,
            memo_misses: misses,
            vm_rss_mb: vm_rss_mb(),
        };
        println!(
            "{:>16} {:>12.2} {:>12} {:>10} {:>12} {:>10.1}",
            row.phase, row.wall_ms, row.bytes, row.memo_hits, row.memo_misses, row.vm_rss_mb
        );
        rows.push(row);
    };

    // Phase 1: cold build — the expensive way to get warm.
    let primary = Server::start(server_config(&dir), data()).expect("bind primary");
    let t0 = Instant::now();
    let (status, cold_body) = roundtrip(primary.local_addr(), "POST", "/v1/explore", &json);
    let cold_wall = t0.elapsed();
    assert_eq!(status, 200, "cold build refused: {cold_body}");
    let cold_counts = counts(&cold_body);
    let (_, _, entries) = memo_counters(primary.local_addr());
    assert!(entries > 0, "the cold build must populate the memo");
    record(&mut rows, "cold-build", cold_wall, entries, 0, 0);

    // Phase 2: snapshot the warm state to disk (atomic write + fsync).
    let t0 = Instant::now();
    let (_, snapshot_bytes) = primary.write_snapshot().expect("snapshot writes");
    record(
        &mut rows,
        "snapshot-write",
        t0.elapsed(),
        snapshot_bytes,
        0,
        0,
    );
    primary.shutdown();

    // Phase 3: restore — a fresh replica warms from the file.
    let replica = Server::start(server_config(&dir), data()).expect("bind replica");
    let t0 = Instant::now();
    let report = replica.warm_from(&dir).expect("restore applies");
    let restore_wall = t0.elapsed();
    assert!(report.loaded && report.tenants_restored == 1, "{report:?}");
    assert!(report.entries_restored > 0, "{report:?}");
    record(&mut rows, "restore", restore_wall, snapshot_bytes, 0, 0);

    // Phase 4: the warm root query answers from the restored table —
    // memo hits, zero misses, zero re-expansion — and agrees with the
    // primary's cold answer.
    let t0 = Instant::now();
    let (status, warm_body) = roundtrip(replica.local_addr(), "POST", "/v1/explore", &json);
    let warm_wall = t0.elapsed();
    assert_eq!(status, 200, "warm query refused: {warm_body}");
    assert_eq!(counts(&warm_body), cold_counts, "warm must equal cold");
    let (hits, misses, _) = memo_counters(replica.local_addr());
    assert!(hits >= 1, "the warm root query must hit the restored memo");
    assert_eq!(misses, 0, "the warm root query must not re-expand");
    record(&mut rows, "warm-query", warm_wall, 0, hits, misses);
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if !smoke {
        // The headline: loading bytes beats recomputing the tree.
        assert!(
            restore_wall < cold_wall,
            "restore ({restore_wall:?}) must beat the cold rebuild ({cold_wall:?})"
        );
    }

    let json = json_rows(&rows);
    println!("\n{json}");
    if smoke {
        // CI guard: the committed artifact must stay well-formed JSON with
        // the row shape this harness writes.
        let committed = std::fs::read_to_string("BENCH_7.json").expect("read BENCH_7.json");
        let value: serde_json::Value =
            serde_json::from_str(&committed).expect("BENCH_7.json is valid JSON");
        let rows = value.as_array().expect("BENCH_7.json is a row array");
        assert!(!rows.is_empty(), "BENCH_7.json has rows");
        for row in rows {
            for key in ["bench", "phase", "wall_ms", "bytes", "vm_rss_mb"] {
                assert!(
                    !row[key].is_null(),
                    "BENCH_7.json row missing {key}: {row:?}"
                );
            }
        }
        println!("\nBENCH_7.json is well-formed ({} rows)", rows.len());
    } else {
        std::fs::write("BENCH_7.json", format!("{json}\n")).expect("write BENCH_7.json");
        println!("\nwrote BENCH_7.json");
    }
}
