//! **Bench 9** — connection scale on the event-driven core.
//!
//! The PR 9 serving claim: idle keep-alive connections cost buffered
//! state, not threads, so the server can hold advising-season
//! concurrency (10k+ parked students) while active requests stay fast.
//! The harness splits client and server across two processes to respect
//! the per-process fd ceiling: the parent runs the server in-process and
//! samples `/v1/metrics`, `/proc/self/status` (RSS, thread count); the
//! child — this same binary re-executed with `--client` — opens the
//! connections. Three phases:
//!
//! 1. `baseline`: a small active pool (8 connections, in-flight 8)
//!    measures request p50/p99 with nothing else connected.
//! 2. `held-idle`: the child parks `N` keep-alive connections (each
//!    proved live with one healthz) and the parent samples the
//!    `event-loop` gauges while they sit.
//! 3. `active-under-held`: 1k active connections issue explorations
//!    (in-flight still 8) *while* the idle fleet stays parked.
//!
//! ```text
//! {"bench":"event-core","phase":"active-under-held","requests":…,
//!  "errors":0,"p50_ms":…,"p99_ms":…,"connections_held":…,
//!  "vm_rss_mb":…,"server_threads":…,"epoll_wakeups":…}
//! ```
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench9 [-- --smoke]`
//!
//! The full run asserts the headline claims — ≥ 10k connections held
//! concurrently (the old `threads + queue_depth` ceiling no longer
//! binds) and active-request p99 within 2× of the unloaded baseline —
//! and writes `BENCH_9.json`. `--smoke` shrinks the fleet, keeps the
//! live three-phase exercise, and validates the committed artifact
//! instead of rewriting it (the CI guard).

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use coursenav_navigator::{ExplorationRequest, GoalSpec};
use coursenav_registrar::brandeis_cs;
use coursenav_server::{OverloadConfig, Server, ServerConfig};

/// The standard small exploration every active client repeats (the
/// response caches after the first computation, so steady-state latency
/// measures the serving layer, not the engine).
fn explore_body() -> String {
    let data = brandeis_cs();
    let mut req = ExplorationRequest::deadline_count(data.horizon.0, data.horizon.0 + 4, 3);
    req.goal = Some(GoalSpec::Degree);
    req.to_json().expect("serialize explore request")
}

/// Resident set size in MiB from `/proc/self/status` (0.0 without procfs).
fn vm_rss_mb() -> f64 {
    proc_status_field("VmRSS:")
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// OS thread count of this process — the thread-inventory witness.
fn thread_count() -> u64 {
    proc_status_field("Threads:").map(|t| t as u64).unwrap_or(0)
}

fn proc_status_field(prefix: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(prefix)?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// A keep-alive HTTP/1.1 client connection with a read-ahead buffer.
/// All bench responses are content-length framed.
struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> std::io::Result<KeepAlive> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        Ok(KeepAlive {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes one request and reads one full response; returns its status.
    fn request(&mut self, raw: &[u8]) -> Option<u16> {
        self.stream.write_all(raw).ok()?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + content_length {
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        self.buf.drain(..head_end + content_length);
        Some(status)
    }
}

const HEALTHZ: &[u8] = b"GET /v1/healthz HTTP/1.1\r\nhost: bench9\r\n\r\n";

/// Drives `conns` keep-alive connections through `rounds` explorations
/// each, across `workers` threads (bounded in-flight = `workers`).
/// Returns `(latencies_us, errors)`.
fn run_active(
    addr: SocketAddr,
    conns: usize,
    rounds: usize,
    workers: usize,
    request: &[u8],
) -> (Vec<u64>, u64) {
    let request = request.to_vec();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let request = request.clone();
            // Deal connections round-robin across workers.
            let mine = (0..conns).filter(|i| i % workers == w).count();
            std::thread::spawn(move || {
                let mut pool: Vec<KeepAlive> = (0..mine)
                    .map(|_| KeepAlive::connect(addr).expect("connect active client"))
                    .collect();
                let mut lats = Vec::with_capacity(mine * rounds);
                let mut errors = 0u64;
                for _ in 0..rounds {
                    for conn in pool.iter_mut() {
                        let t0 = Instant::now();
                        match conn.request(&request) {
                            Some(200) => lats.push(t0.elapsed().as_micros() as u64),
                            _ => errors += 1,
                        }
                    }
                }
                (lats, errors)
            })
        })
        .collect();
    let mut lats = Vec::new();
    let mut errors = 0;
    for handle in handles {
        let (l, e) = handle.join().expect("worker");
        lats.extend(l);
        errors += e;
    }
    (lats, errors)
}

fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

fn phase_line(phase: &str, lats: &mut [u64], errors: u64) -> String {
    lats.sort_unstable();
    format!(
        "{{\"phase\":\"{phase}\",\"requests\":{},\"errors\":{errors},\"p50_ms\":{:.3},\"p99_ms\":{:.3}}}",
        lats.len(),
        percentile_ms(lats, 0.50),
        percentile_ms(lats, 0.99),
    )
}

/// `--client` mode: the re-executed child that owns every client fd.
/// Speaks one JSON line per phase on stdout; waits on stdin after the
/// `held` line so the parent can sample the server's gauges mid-hold.
fn client_main(args: &[String]) {
    let get = |flag: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("missing {flag}"))
            .clone()
    };
    let addr: SocketAddr = get("--addr").parse().expect("addr");
    let idle: usize = get("--idle").parse().expect("idle");
    let active: usize = get("--active").parse().expect("active");
    let rounds: usize = get("--rounds").parse().expect("rounds");
    let baseline_rounds: usize = get("--baseline-rounds").parse().expect("baseline rounds");
    let workers = 8;

    let body = explore_body();
    let request = format!(
        "POST /v1/explore HTTP/1.1\r\nhost: bench9\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();

    // Warm the response cache so neither measured phase pays the one-off
    // cold exploration.
    let mut warm = KeepAlive::connect(addr).expect("warmup connect");
    assert_eq!(warm.request(&request), Some(200), "warmup explore");
    drop(warm);

    // Phase 1: unloaded baseline at in-flight `workers`.
    let (mut lats, errors) = run_active(addr, workers, baseline_rounds, workers, &request);
    println!("{}", phase_line("baseline", &mut lats, errors));

    // Phase 2: park the idle fleet, each connection proved live once.
    let mut parked: Vec<KeepAlive> = Vec::with_capacity(idle);
    for i in 0..idle {
        let mut conn =
            KeepAlive::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}/{idle}: {e}"));
        assert_eq!(conn.request(HEALTHZ), Some(200), "idle conn {i} healthz");
        parked.push(conn);
    }
    println!("{{\"phase\":\"held\",\"idle\":{}}}", parked.len());
    // The parent samples the server here, then tells us to continue.
    let mut go = String::new();
    std::io::stdin()
        .read_line(&mut go)
        .expect("parent go-ahead");

    // Phase 3: the active fleet works while the idle fleet stays parked.
    let (mut lats, errors) = run_active(addr, active, rounds, workers, &request);
    println!("{}", phase_line("active-under-held", &mut lats, errors));
    // Keep the fleet parked until the parent finishes its final sample.
    let mut go = String::new();
    std::io::stdin()
        .read_line(&mut go)
        .expect("parent teardown go-ahead");
    drop(parked);
}

/// One `connection: close` metrics fetch over a throwaway socket.
fn fetch_metrics(addr: SocketAddr) -> serde_json::Value {
    let mut stream = TcpStream::connect(addr).expect("metrics connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /v1/metrics HTTP/1.1\r\nhost: bench9\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("metrics read");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("metrics head")
        + 4;
    serde_json::from_slice(&raw[head_end..]).expect("metrics JSON")
}

struct Row {
    phase: String,
    requests: u64,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    connections_held: u64,
    vm_rss_mb: f64,
    server_threads: u64,
    epoll_wakeups: u64,
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\":\"event-core\",\"phase\":\"{}\",\"requests\":{},\"errors\":{},\
             \"p50_ms\":{:.3},\"p99_ms\":{:.3},\"connections_held\":{},\"vm_rss_mb\":{:.1},\
             \"server_threads\":{},\"epoll_wakeups\":{}}}{}\n",
            r.phase,
            r.requests,
            r.errors,
            r.p50_ms,
            r.p99_ms,
            r.connections_held,
            r.vm_rss_mb,
            r.server_threads,
            r.epoll_wakeups,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--client") {
        client_main(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let idle: usize = if smoke { 64 } else { 10_000 };
    let active: usize = if smoke { 32 } else { 1_000 };
    let rounds: usize = if smoke { 4 } else { 2 };
    let baseline_rounds: usize = if smoke { 16 } else { 64 };
    println!("Bench 9: {idle} idle keep-alive connections under the event-driven core\n");

    let server = Server::start(
        ServerConfig {
            threads: 4,
            queue_depth: 2_048,
            max_connections: Some(idle + active + 64),
            keep_alive: Duration::from_secs(180),
            overload: OverloadConfig {
                // The bench measures the serving layer, not admission
                // control (bench5/the overload suite own that): thresholds
                // sit far above anything the harness generates.
                degrade_queue: 100_000,
                break_queue: 100_000,
                latency_target: Duration::from_secs(600),
                ..OverloadConfig::default()
            },
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("bind server");
    let addr = server.local_addr();

    // The client fleet lives in a re-executed copy of this binary so
    // neither process carries both the server's and the clients' fds.
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args([
            "--client",
            "--addr",
            &addr.to_string(),
            "--idle",
            &idle.to_string(),
            "--active",
            &active.to_string(),
            "--rounds",
            &rounds.to_string(),
            "--baseline-rounds",
            &baseline_rounds.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn client process");
    let mut child_in = child.stdin.take().expect("child stdin");
    let child_out = BufReader::new(child.stdout.take().expect("child stdout"));

    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:>18} {:>9} {:>7} {:>9} {:>9} {:>7} {:>9} {:>8} {:>13}",
        "phase",
        "requests",
        "errors",
        "p50 ms",
        "p99 ms",
        "held",
        "RSS MiB",
        "threads",
        "epoll wakeups"
    );
    let mut record = |phase: String, requests: u64, errors: u64, p50_ms: f64, p99_ms: f64| {
        let metrics = fetch_metrics(addr);
        let row = Row {
            phase,
            requests,
            errors,
            p50_ms,
            p99_ms,
            connections_held: metrics["event-loop"]["connections-held"]
                .as_u64()
                .unwrap_or(0),
            vm_rss_mb: vm_rss_mb(),
            server_threads: thread_count(),
            epoll_wakeups: metrics["event-loop"]["epoll-wakeups"].as_u64().unwrap_or(0),
        };
        println!(
            "{:>18} {:>9} {:>7} {:>9.3} {:>9.3} {:>7} {:>9.1} {:>8} {:>13}",
            row.phase,
            row.requests,
            row.errors,
            row.p50_ms,
            row.p99_ms,
            row.connections_held,
            row.vm_rss_mb,
            row.server_threads,
            row.epoll_wakeups
        );
        rows.push(row);
    };

    for line in child_out.lines() {
        let line = line.expect("child line");
        let msg: serde_json::Value = serde_json::from_str(&line).expect("child JSON");
        match msg["phase"].as_str().expect("phase") {
            "held" => {
                let parked = msg["idle"].as_u64().unwrap_or(0);
                record("held-idle".into(), 0, 0, 0.0, 0.0);
                assert_eq!(parked, idle as u64, "child parked the whole fleet");
                writeln!(child_in, "go").expect("signal child");
            }
            phase => {
                record(
                    phase.to_string(),
                    msg["requests"].as_u64().unwrap_or(0),
                    msg["errors"].as_u64().unwrap_or(0),
                    msg["p50_ms"].as_f64().unwrap_or(0.0),
                    msg["p99_ms"].as_f64().unwrap_or(0.0),
                );
                if phase == "active-under-held" {
                    // The child keeps its fleet parked until the final
                    // sample lands; release it.
                    writeln!(child_in, "go").expect("signal child teardown");
                }
            }
        }
    }
    let status = child.wait().expect("child exit");
    assert!(status.success(), "client process failed");
    server.shutdown();

    let baseline = rows
        .iter()
        .find(|r| r.phase == "baseline")
        .expect("baseline row");
    let held = rows
        .iter()
        .find(|r| r.phase == "held-idle")
        .expect("held row");
    let loaded = rows
        .iter()
        .find(|r| r.phase == "active-under-held")
        .expect("active row");
    assert_eq!(baseline.errors + loaded.errors, 0, "no failed requests");
    assert!(
        held.connections_held >= idle as u64,
        "held {} < parked fleet {idle}",
        held.connections_held
    );

    if !smoke {
        // Headline 1: the old core's ceiling (threads + queue_depth =
        // 2052 connections, one thread each) no longer binds.
        assert!(
            held.connections_held >= 10_000,
            "expected >= 10k held, got {}",
            held.connections_held
        );
        // Headline 2: 10k parked connections leave active latency within
        // 2x of the unloaded baseline.
        assert!(
            loaded.p99_ms <= baseline.p99_ms * 2.0,
            "p99 under hold {:.3}ms > 2x baseline {:.3}ms",
            loaded.p99_ms,
            baseline.p99_ms
        );
    }

    let json = json_rows(&rows);
    println!("\n{json}");
    if smoke {
        // CI guard: the committed artifact must stay well-formed and must
        // still show the headline numbers.
        let committed = std::fs::read_to_string("BENCH_9.json").expect("read BENCH_9.json");
        let value: serde_json::Value =
            serde_json::from_str(&committed).expect("BENCH_9.json is valid JSON");
        let rows = value.as_array().expect("BENCH_9.json is a row array");
        assert!(!rows.is_empty(), "BENCH_9.json has rows");
        for row in rows {
            for key in [
                "bench",
                "phase",
                "requests",
                "p50_ms",
                "p99_ms",
                "connections_held",
                "vm_rss_mb",
                "server_threads",
                "epoll_wakeups",
            ] {
                assert!(
                    !row[key].is_null(),
                    "BENCH_9.json row missing {key}: {row:?}"
                );
            }
        }
        let by_phase = |name: &str| {
            rows.iter()
                .find(|r| r["phase"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("BENCH_9.json missing phase {name}"))
        };
        let held = by_phase("held-idle")["connections_held"].as_u64().unwrap();
        assert!(held >= 10_000, "committed artifact holds {held} < 10k");
        let base_p99 = by_phase("baseline")["p99_ms"].as_f64().unwrap();
        let load_p99 = by_phase("active-under-held")["p99_ms"].as_f64().unwrap();
        assert!(
            load_p99 <= base_p99 * 2.0,
            "committed artifact p99 {load_p99} > 2x baseline {base_p99}"
        );
        println!("\nBENCH_9.json is well-formed ({} rows)", rows.len());
    } else {
        std::fs::write("BENCH_9.json", format!("{json}\n")).expect("write BENCH_9.json");
        println!("\nwrote BENCH_9.json");
    }
}
