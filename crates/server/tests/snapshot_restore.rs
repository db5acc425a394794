//! Warm-replica loopback tests for durable snapshot/restore: a server
//! writes its warm state, a fresh process loads it with `warm_from`, and
//! from the outside the replica is indistinguishable from the original —
//! byte-identical answers, memo hits instead of re-expansion, and paged
//! sessions that resume across the restart with their remaining TTL.

mod common;

use std::path::{Path, PathBuf};
use std::time::Duration;

use coursenav_navigator::{ExplorationRequest, OutputMode, PortableEntry, RankingSpec};
use coursenav_registrar::brandeis_cs;
use coursenav_server::snapshot::{decode, encode, SNAPSHOT_FILE};
use coursenav_server::{RestoreError, Server, ServerConfig};

use common::{count_request, fetch_metrics, roundtrip};

/// A per-test scratch directory under the system temp dir, cleaned from
/// any previous run. The snapshotter's atomic writer creates it on
/// demand, so it need not exist yet.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coursenav-snapshot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A snapshot-enabled config whose periodic cadence is far beyond any
/// test's runtime — every write in these tests is explicit, so the
/// background snapshotter can never race an assertion.
fn snapshot_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_every: Duration::from_secs(3600),
        default_budget_ms: None,
        ..ServerConfig::default()
    }
}

/// Walks `/v1/explore` pages starting from `req` until the cursor chain
/// ends, returning every page body verbatim (cursor tokens stripped would
/// hide differences; the path arrays are compared instead).
fn walk_pages(addr: std::net::SocketAddr, mut req: ExplorationRequest) -> Vec<serde_json::Value> {
    let mut pages = Vec::new();
    loop {
        let resp = roundtrip(addr, "POST", "/v1/explore", Some(&req.to_json().unwrap()))
            .expect("page answers");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let value: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
        let next = value["paths"]["next_cursor"].as_str().map(String::from);
        pages.push(value);
        assert!(pages.len() < 100, "paging must terminate");
        match next {
            Some(token) => req.cursor = Some(token),
            None => return pages,
        }
    }
}

/// Zeroes every `millis` field in place — the one legitimately
/// nondeterministic byte sequence in an exploration response (wall-clock
/// of the engine run). Everything else must be byte-identical.
fn zero_millis(value: &mut serde_json::Value) {
    use serde_json::{Number, Value};
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs.iter_mut() {
                if key == "millis" {
                    *v = Value::Num(Number::U(0));
                } else {
                    zero_millis(v);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                zero_millis(item);
            }
        }
        _ => {}
    }
}

/// A response body with its wall-clock fields zeroed, for byte-level
/// comparison between cold and restored-warm answers.
fn normalized(body: &[u8]) -> String {
    let mut value: serde_json::Value = serde_json::from_slice(body).expect("JSON body");
    zero_millis(&mut value);
    serde_json::to_string(&value).unwrap()
}

/// The paths arrays of a walked page sequence, concatenated — the
/// cursor-token-independent content of a paged exploration.
fn concatenated_paths(pages: &[serde_json::Value]) -> String {
    let all: Vec<serde_json::Value> = pages
        .iter()
        .flat_map(|p| p["paths"]["paths"].as_array().unwrap().clone())
        .collect();
    serde_json::to_string(&all).unwrap()
}

/// The bundled catalog's workloads are whole hours, so a workload top-k
/// is memoized, and its summaries carry their suffix costs: a replica
/// warmed from the snapshot answers it byte-identically from the restored
/// table, expanding nothing.
#[test]
fn warm_replica_answers_a_workload_top_k_byte_identically() {
    let dir = scratch_dir("workload");
    let primary = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start primary");
    let mut req = count_request();
    req.output = OutputMode::TopK { k: 5 };
    req.ranking = Some(RankingSpec::Workload);
    let req = req.to_json().unwrap();

    let cold = roundtrip(primary.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("primary answers");
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert!(
        cold.text().contains("\"ranking\":\"workload\""),
        "{}",
        cold.text()
    );
    primary.write_snapshot().expect("snapshot writes");
    primary.shutdown();

    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    let report = replica.warm_from(&dir).expect("restore applies");
    assert_eq!(report.tenants_restored, 1, "{report:?}");
    assert!(report.entries_restored >= 1, "{report:?}");
    let warm = roundtrip(replica.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("replica answers");
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(normalized(&warm.body), normalized(&cold.body));
    let metrics = fetch_metrics(replica.local_addr());
    let memo = &metrics["memo"];
    assert!(memo["hits"].as_u64().unwrap() >= 1, "{metrics:?}");
    assert_eq!(memo["misses"].as_u64(), Some(0), "{metrics:?}");
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ranked summary is kept per state and ranking, for the largest `k`
/// it was computed for. A snapshot holding both a top-3 and a top-10
/// summary for the same states, the top-3 ones imported last, restores
/// the top-10 ones, and the replica answers both top-3 and top-10
/// byte-identically to the primary without a memo miss.
#[test]
fn restored_top_10_summaries_answer_a_top_3_without_a_miss() {
    let dir = scratch_dir("k-prefix");
    let file = dir.join(SNAPSHOT_FILE);
    let top = |k| {
        let mut req = count_request();
        req.output = OutputMode::TopK { k };
        req.ranking = Some(RankingSpec::Time);
        req.to_json().unwrap()
    };
    let (top_3, top_10) = (top(3), top(10));
    let ask = |addr, req: &str| {
        let resp = roundtrip(addr, "POST", "/v1/explore", Some(req)).expect("server answers");
        assert_eq!(resp.status, 200, "{}", resp.text());
        normalized(&resp.body)
    };
    let read = || decode(&std::fs::read(&file).expect("snapshot reads")).expect("decodes");

    let primary = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start primary");
    let cold_3 = ask(primary.local_addr(), &top_3);
    primary.write_snapshot().expect("snapshot writes");
    let with_top_3 = read();
    let cold_10 = ask(primary.local_addr(), &top_10);
    primary.write_snapshot().expect("snapshot writes");
    primary.shutdown();

    // Append the first snapshot's ranked summaries to the same table in
    // the second, so the import meets a state's top-10 summary first.
    let mut both = read();
    let mut doubled = 0;
    for (tenant, early) in both.tenants.iter_mut().zip(&with_top_3.tenants) {
        for (table, early) in tenant.tables.iter_mut().zip(&early.tables) {
            assert_eq!(table.memo_key, early.memo_key);
            for entry in &early.entries {
                if let PortableEntry::Ranked { key, sig, k: 3, .. } = entry {
                    doubled += usize::from(table.entries.iter().any(|later| {
                        matches!(later, PortableEntry::Ranked { key: lk, sig: ls, k: 10, .. }
                            if lk == key && ls == sig)
                    }));
                    table.entries.push(entry.clone());
                }
            }
        }
    }
    assert!(doubled > 0, "some state holds both a top-3 and a top-10");
    std::fs::write(&file, encode(&both)).expect("snapshot rewrites");

    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    let report = replica.warm_from(&dir).expect("restore applies");
    assert_eq!(report.tenants_restored, 1, "{report:?}");
    assert_eq!(ask(replica.local_addr(), &top_3), cold_3);
    assert_eq!(ask(replica.local_addr(), &top_10), cold_10);
    let metrics = fetch_metrics(replica.local_addr());
    let memo = &metrics["memo"];
    assert!(memo["hits"].as_u64().unwrap() >= 2, "{metrics:?}");
    assert_eq!(memo["misses"].as_u64(), Some(0), "{metrics:?}");
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_replica_answers_byte_identically_with_zero_reexpansion() {
    let dir = scratch_dir("replica");
    let primary = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start primary");
    let req = count_request().to_json().unwrap();

    // Cold compute on the primary populates its memo tables.
    let cold = roundtrip(primary.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("primary answers");
    assert_eq!(cold.status, 200, "{}", cold.text());
    let (_, bytes) = primary.write_snapshot().expect("snapshot writes");
    assert!(bytes > 0, "snapshot carries state");
    primary.shutdown();

    // A fresh replica warms from the file before taking traffic.
    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    let report = replica.warm_from(&dir).expect("restore applies");
    assert!(report.loaded, "snapshot file found and decoded");
    assert_eq!(report.tenants_restored, 1, "{report:?}");
    assert_eq!(report.tenants_rejected, 0, "{report:?}");
    assert!(report.entries_restored >= 1, "{report:?}");

    let warm = roundtrip(replica.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("replica answers");
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(
        normalized(&warm.body),
        normalized(&cold.body),
        "restored state must be behaviorally invisible"
    );

    // The root query was answered out of the restored table: the memo
    // records a hit and no miss, so nothing was re-expanded.
    let metrics = fetch_metrics(replica.local_addr());
    let memo = &metrics["memo"];
    assert!(memo["hits"].as_u64().unwrap() >= 1, "{metrics:?}");
    assert_eq!(memo["misses"].as_u64(), Some(0), "{metrics:?}");
    let snapshot = &metrics["snapshot"];
    assert_eq!(snapshot["enabled"].as_bool(), Some(true), "{metrics:?}");
    assert_eq!(
        snapshot["restored-tenants"].as_u64(),
        Some(1),
        "{metrics:?}"
    );
    assert!(
        snapshot["restored-entries"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paged_sessions_resume_across_the_restart() {
    let dir = scratch_dir("sessions");
    let primary = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start primary");

    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 40 };
    req.page_size = Some(7);
    let first = roundtrip(
        primary.local_addr(),
        "POST",
        "/v1/explore",
        Some(&req.to_json().unwrap()),
    )
    .expect("first page answers");
    assert_eq!(first.status, 200, "{}", first.text());
    let first_value: serde_json::Value = serde_json::from_str(first.text()).unwrap();
    let cursor = first_value["paths"]["next_cursor"]
        .as_str()
        .expect("first page is truncated")
        .to_string();

    // Snapshot with the session live, then finish the walk on the
    // primary — its remaining pages are the reference the replica must
    // reproduce from the restored session.
    primary.write_snapshot().expect("snapshot writes");
    let mut resume = req.clone();
    resume.cursor = Some(cursor.clone());
    let reference = walk_pages(primary.local_addr(), resume.clone());
    primary.shutdown();

    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    let report = replica.warm_from(&dir).expect("restore applies");
    assert!(report.sessions_restored >= 1, "{report:?}");

    // The primary's cursor token verifies and resumes on the replica
    // (restore adopted the signing key, seed, and clock), and the
    // remaining paths are exactly the primary's.
    let replayed = walk_pages(replica.local_addr(), resume);
    assert_eq!(
        concatenated_paths(&replayed),
        concatenated_paths(&reference),
        "restored session must resume to the primary's answer"
    );
    let metrics = fetch_metrics(replica.local_addr());
    assert!(
        metrics["sessions"]["resumed"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_route_triggers_writes_and_409s_when_disabled() {
    // Without a snapshot dir the admin trigger refuses with a typed 409.
    let disabled = Server::start(ServerConfig::default(), brandeis_cs()).expect("start");
    let resp = roundtrip(disabled.local_addr(), "POST", "/v1/snapshot", None).expect("answers");
    assert_eq!(resp.status, 409, "{}", resp.text());
    assert!(resp.text().contains("snapshot-disabled"), "{}", resp.text());
    let metrics = fetch_metrics(disabled.local_addr());
    assert_eq!(metrics["snapshot"]["enabled"].as_bool(), Some(false));
    // The split eviction counters ride along on the sessions block.
    assert!(metrics["sessions"]["evicted-capacity"].as_u64().is_some());
    assert!(metrics["sessions"]["expired-ttl"].as_u64().is_some());
    disabled.shutdown();

    let dir = scratch_dir("route");
    let enabled = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start");
    let addr = enabled.local_addr();

    // Wrong verb: the route exists, GET is not how you call it.
    let wrong = roundtrip(addr, "GET", "/v1/snapshot", None).expect("answers");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));

    let resp = roundtrip(addr, "POST", "/v1/snapshot", None).expect("answers");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let value: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
    let path = PathBuf::from(value["path"].as_str().expect("path in body"));
    let declared = value["bytes"].as_u64().expect("bytes in body");
    let on_disk = std::fs::metadata(&path)
        .expect("snapshot file exists")
        .len();
    assert_eq!(on_disk, declared, "declared size matches the file");

    let metrics = fetch_metrics(addr);
    assert_eq!(
        metrics["snapshot"]["writes"].as_u64(),
        Some(1),
        "{metrics:?}"
    );
    assert_eq!(
        metrics["snapshot"]["last-write-bytes"].as_u64(),
        Some(declared),
        "{metrics:?}"
    );
    let snapshot_latency = metrics["latency"]
        .as_array()
        .expect("latency block")
        .iter()
        .find(|h| h["route"].as_str() == Some("snapshot"))
        .expect("snapshot route is accounted");
    assert!(
        snapshot_latency["count"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    enabled.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_epoch_snapshots_are_rejected_whole_and_the_server_serves_cold() {
    let dir = scratch_dir("stale");
    let primary = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start primary");
    let req = count_request().to_json().unwrap();
    let cold = roundtrip(primary.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("primary answers");
    assert_eq!(cold.status, 200);
    primary.write_snapshot().expect("snapshot writes");
    primary.shutdown();

    // The replica's catalog moved on (epoch 2) before the restore: the
    // epoch-1 snapshot is refused per-tenant, not half-applied.
    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    replica.swap_catalog(brandeis_cs());
    let report = replica.warm_from(&dir).expect("restore call succeeds");
    assert!(report.loaded, "{report:?}");
    assert_eq!(report.tenants_restored, 0, "{report:?}");
    assert_eq!(report.tenants_rejected, 1, "{report:?}");
    assert_eq!(report.entries_restored, 0, "{report:?}");
    assert_eq!(report.sessions_restored, 0, "{report:?}");

    // Cold-correct anyway: the refusal costs warmth, never answers.
    let answer = roundtrip(replica.local_addr(), "POST", "/v1/explore", Some(&req))
        .expect("replica answers");
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert_eq!(
        normalized(&answer.body),
        normalized(&cold.body),
        "cold recompute matches"
    );
    let metrics = fetch_metrics(replica.local_addr());
    assert_eq!(
        metrics["snapshot"]["rejected-tenants"].as_u64(),
        Some(1),
        "{metrics:?}"
    );
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_files_reject_whole_and_missing_files_start_cold() {
    let dir = scratch_dir("corrupt");
    let server = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start");

    // No file yet: a normal cold start, not an error.
    let report = server.warm_from(&dir).expect("missing file is fine");
    assert!(!report.loaded, "{report:?}");

    let req = count_request().to_json().unwrap();
    roundtrip(server.local_addr(), "POST", "/v1/explore", Some(&req)).expect("answers");
    let (path, bytes) = server.write_snapshot().expect("snapshot writes");

    // Truncate the file in place: restore must reject it whole.
    let whole = std::fs::read(&path).expect("read snapshot");
    assert_eq!(whole.len() as u64, bytes);
    std::fs::write(&path, &whole[..whole.len() / 2]).expect("truncate");
    match server.warm_from(&dir) {
        Err(RestoreError::Corrupt(_)) => {}
        other => panic!("truncated snapshot must be Corrupt, got {other:?}"),
    }

    // A complete file stamped version 1 (the format that could carry
    // collect suffix sets) is refused by its version, and a fresh replica
    // that tried to load it serves cold.
    let mut v1 = whole.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &v1).expect("write v1");
    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    match replica.warm_from(&dir) {
        Err(RestoreError::Corrupt(msg)) => {
            assert!(msg.contains("version 1"), "{msg}");
        }
        other => panic!("version-1 snapshot must be refused, got {other:?}"),
    }
    let answer =
        roundtrip(replica.local_addr(), "POST", "/v1/explore", Some(&req)).expect("answers");
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert_eq!(answer.header("x-cache"), Some("miss"));
    let metrics = fetch_metrics(replica.local_addr());
    assert_eq!(
        metrics["snapshot"]["restored-entries"].as_u64(),
        Some(0),
        "{metrics:?}"
    );
    replica.shutdown();

    // A complete version-2 file keys its entries by the full state, which
    // no longer means what a table key means: refused the same way.
    let mut v2 = whole.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, &v2).expect("write v2");
    let replica = Server::start(snapshot_config(&dir), brandeis_cs()).expect("start replica");
    match replica.warm_from(&dir) {
        Err(RestoreError::Corrupt(msg)) => {
            assert!(msg.contains("version 2"), "{msg}");
        }
        other => panic!("version-2 snapshot must be refused, got {other:?}"),
    }
    let answer =
        roundtrip(replica.local_addr(), "POST", "/v1/explore", Some(&req)).expect("answers");
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert_eq!(answer.header("x-cache"), Some("miss"));
    let metrics = fetch_metrics(replica.local_addr());
    assert_eq!(
        metrics["snapshot"]["restored-entries"].as_u64(),
        Some(0),
        "{metrics:?}"
    );
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
