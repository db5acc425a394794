//! **Bench 8** — cohort advising throughput (`POST /v1/advise/batch`).
//!
//! The advising workload's batch claim: a cohort answered through one
//! warm `(tenant, epoch)` transposition table beats the same students
//! served as N cold isolated `POST /v1/advise` requests, and the answers
//! are byte-identical either way. The run simulates a mid-degree cohort,
//! serves every student cold (tenant invalidated between requests, so
//! neither the response cache nor the memo table carries over), then
//! serves the same cohort as one `POST /v1/advise/batch` NDJSON stream
//! and compares wall clock, memo traffic, and answer bytes. One JSON row
//! per phase:
//!
//! ```text
//! {"bench":"advise-cohort","phase":"cohort-batch","wall_ms":…,"bytes":…,
//!  "memo_hits":…,"memo_misses":…,"vm_rss_mb":…}
//! ```
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench8 [-- --smoke]`
//!
//! The full run writes `BENCH_8.json` to the working directory and
//! asserts the headline claim (batch ≪ N cold requests); `--smoke` keeps
//! a small cohort, skips the write and the timing assertion, and instead
//! checks that the committed `BENCH_8.json` is well-formed (the CI guard
//! for the artifact).

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use coursenav_navigator::{AdviseRequest, BatchAdviseRequest, GoalSpec, TranscriptSpec};
use coursenav_registrar::{brandeis_cs, RegistrarData};
use coursenav_server::{Server, ServerConfig};
use coursenav_transcript::{GreedyCorePolicy, TranscriptSimulator, WorkloadAversePolicy};

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
            "  {{\"bench\":\"advise-cohort\",\"phase\":\"{}\",\"wall_ms\":{:.3},\"bytes\":{},\
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

/// One `connection: close` request; returns `(status, body)` with any
/// chunked transfer-encoding (the NDJSON batch stream) decoded.
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
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
    let payload = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(&raw[head_end..])
    } else {
        raw[head_end..].to_vec()
    };
    (status, String::from_utf8_lossy(&payload).into_owned())
}

/// Decodes an HTTP/1.1 chunked body: `<hex-size>\r\n<data>\r\n` frames
/// down to the `0\r\n\r\n` terminator.
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(line_end) = raw.windows(2).position(|w| w == b"\r\n") else {
            return out;
        };
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).unwrap_or("0").trim(),
            16,
        )
        .unwrap_or(0);
        if size == 0 {
            return out;
        }
        let start = line_end + 2;
        out.extend_from_slice(&raw[start..start + size]);
        raw = &raw[start + size + 2..];
    }
}

/// The memo block off `/v1/metrics`: `(hits, misses)` — cumulative work
/// counters, so phases report deltas.
fn memo_counters(addr: SocketAddr) -> (u64, u64) {
    let (status, body) = roundtrip(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics: serde_json::Value = serde_json::from_str(&body).expect("metrics JSON");
    (
        metrics["memo"]["hits"].as_u64().unwrap_or(0),
        metrics["memo"]["misses"].as_u64().unwrap_or(0),
    )
}

/// Simulates a mid-degree cohort: policy-diverse (on-track greedy and
/// workload-averse students), every transcript cut to `prefix` semesters.
fn cohort(data: &RegistrarData, size: usize, prefix: usize) -> Vec<TranscriptSpec> {
    let degree = data.degree.as_ref().expect("sample declares a degree");
    let sim = TranscriptSimulator::new(&data.catalog, degree, data.horizon.0, data.horizon.1, 3);
    (0..size as u64)
        .map(|seed| {
            let t = if seed % 2 == 0 {
                sim.simulate(&GreedyCorePolicy, seed)
            } else {
                sim.simulate(&WorkloadAversePolicy::default(), seed)
            };
            let selections = t
                .selections()
                .iter()
                .take(prefix)
                .map(|set| {
                    set.iter()
                        .map(|id| data.catalog.course(id).code().to_string())
                        .collect()
                })
                .collect();
            TranscriptSpec {
                start: t.start(),
                selections,
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cohort_size = if smoke { 4 } else { 12 };
    let prefix = 2;
    println!("Bench 8: cohort advising through one warm memo table\n");
    let data = brandeis_cs();
    let students = cohort(&data, cohort_size, prefix);

    // The tightest degree-feasible horizon for the cohort: enough
    // three-course semesters to cover the worst remaining-slot count,
    // floored at three semesters so orderings can overlap.
    let degree = data.degree.as_ref().expect("degree");
    let max_remaining = students
        .iter()
        .map(|s| {
            let t =
                coursenav_transcript::Transcript::from_codes(&data.catalog, s.start, &s.selections)
                    .expect("simulated transcripts replay");
            degree.progress(&t.completed()).slots_remaining()
        })
        .max()
        .unwrap_or(0);
    let semesters = max_remaining.div_ceil(3).max(3) as i32;
    let mut deadline = data.horizon.0 + (prefix as i32 + semesters);
    if deadline > data.horizon.1 {
        deadline = data.horizon.1;
    }

    let server = Server::start(ServerConfig::default(), data).expect("bind server");
    let addr = server.local_addr();
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

    // Phase 1: N cold isolated requests — the tenant invalidated before
    // each one, so every student pays the full exploration.
    let mut cold_bodies: Vec<String> = Vec::with_capacity(students.len());
    let mut cold_wall = Duration::ZERO;
    let mut cold_bytes = 0u64;
    for spec in &students {
        let (status, _) = roundtrip(addr, "POST", "/v1/catalogs/default/invalidate", "");
        assert_eq!(status, 200, "invalidate refused");
        let req = AdviseRequest {
            transcript: spec.clone(),
            interests: None,
            deadline,
            max_per_semester: None,
            goal: Some(GoalSpec::Degree),
            k: Some(3),
            budget_ms: None,
            page_size: None,
            cursor: None,
            tenant: None,
        };
        let body = serde_json::to_string(&req).expect("serialize advise request");
        let t0 = Instant::now();
        let (status, answer) = roundtrip(addr, "POST", "/v1/advise", &body);
        cold_wall += t0.elapsed();
        assert_eq!(status, 200, "cold advise refused: {answer}");
        cold_bytes += answer.len() as u64;
        cold_bodies.push(answer);
    }
    let (hits_after_cold, misses_after_cold) = memo_counters(addr);
    record(
        &mut rows,
        "cold-isolated",
        cold_wall,
        cold_bytes,
        hits_after_cold,
        misses_after_cold,
    );

    // Phase 2: the same cohort as one batch — a fresh (invalidated)
    // partition, one memo table warming across all students.
    let (status, _) = roundtrip(addr, "POST", "/v1/catalogs/default/invalidate", "");
    assert_eq!(status, 200, "invalidate refused");
    let batch = BatchAdviseRequest {
        students: students.clone(),
        interests: None,
        deadline,
        max_per_semester: None,
        goal: Some(GoalSpec::Degree),
        k: Some(3),
        budget_ms: None,
        tenant: None,
    };
    let body = serde_json::to_string(&batch).expect("serialize batch request");
    let t0 = Instant::now();
    let (status, ndjson) = roundtrip(addr, "POST", "/v1/advise/batch", &body);
    let batch_wall = t0.elapsed();
    assert_eq!(status, 200, "batch refused: {ndjson}");
    let (hits_after_batch, misses_after_batch) = memo_counters(addr);
    let batch_hits = hits_after_batch - hits_after_cold;
    let batch_misses = misses_after_batch - misses_after_cold;
    record(
        &mut rows,
        "cohort-batch",
        batch_wall,
        ndjson.len() as u64,
        batch_hits,
        batch_misses,
    );
    server.shutdown();

    // Per-student answers must be byte-identical to cold isolation: the
    // batch line is `{"student":i,"advise":<response>}`, so the advise
    // payload is the exact byte range between the prefix and the final
    // brace.
    let lines: Vec<&str> = ndjson.lines().collect();
    assert_eq!(
        lines.len(),
        students.len() + 1,
        "one line per student plus the summary"
    );
    for (i, cold) in cold_bodies.iter().enumerate() {
        let prefix = format!("{{\"student\":{i},\"advise\":");
        let line = lines[i];
        assert!(line.starts_with(&prefix), "unexpected line {i}: {line}");
        let advise = &line[prefix.len()..line.len() - 1];
        assert_eq!(advise, cold, "student {i} diverged from cold isolation");
    }
    let done: serde_json::Value = serde_json::from_str(lines[students.len()]).expect("done line");
    assert_eq!(
        done["done"]["students"].as_u64(),
        Some(students.len() as u64)
    );
    assert_eq!(done["done"]["errors"].as_u64(), Some(0));
    assert!(
        batch_hits > 0,
        "the cohort must share subtrees through the warm table"
    );

    if !smoke {
        // The headline: one warm table beats N cold explorations.
        assert!(
            batch_wall < cold_wall,
            "batch ({batch_wall:?}) must beat {} cold requests ({cold_wall:?})",
            students.len()
        );
    }

    let json = json_rows(&rows);
    println!("\n{json}");
    if smoke {
        // CI guard: the committed artifact must stay well-formed JSON with
        // the row shape this harness writes.
        let committed = std::fs::read_to_string("BENCH_8.json").expect("read BENCH_8.json");
        let value: serde_json::Value =
            serde_json::from_str(&committed).expect("BENCH_8.json is valid JSON");
        let rows = value.as_array().expect("BENCH_8.json is a row array");
        assert!(!rows.is_empty(), "BENCH_8.json has rows");
        for row in rows {
            for key in [
                "bench",
                "phase",
                "wall_ms",
                "bytes",
                "memo_hits",
                "vm_rss_mb",
            ] {
                assert!(
                    !row[key].is_null(),
                    "BENCH_8.json row missing {key}: {row:?}"
                );
            }
        }
        println!("\nBENCH_8.json is well-formed ({} rows)", rows.len());
    } else {
        std::fs::write("BENCH_8.json", format!("{json}\n")).expect("write BENCH_8.json");
        println!("\nwrote BENCH_8.json");
    }
}
