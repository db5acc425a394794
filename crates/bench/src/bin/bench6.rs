//! **Bench 6** — multi-tenant serving state: 100 catalogs resident, each
//! with its own (tenant, epoch)-partitioned response cache and memo
//! tables (`server::registry`).
//!
//! The run registers one tenant per synthetic department, sweeps every
//! tenant over loopback HTTP (cold, then warm), hot-swaps a single
//! tenant's catalog, and sweeps again — asserting that exactly the
//! swapped tenant went cold while every other tenant kept answering from
//! its warm partition. One JSON row per phase:
//!
//! ```text
//! {"bench":"tenants","phase":"warm-sweep","tenants":100,"wall_ms":…,
//!  "hits":…,"misses":…,"cache_hit_rate":…,"memo_hit_rate":…,"vm_rss_mb":…}
//! ```
//!
//! `vm_rss_mb` is the process's resident set after the phase — the memory
//! cost of keeping that many partitioned catalogs serving at once.
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench6 [-- --smoke]`
//!
//! The full run writes `BENCH_6.json` to the working directory; `--smoke`
//! keeps eight tenants, skips the write, and instead checks that the
//! committed `BENCH_6.json` is well-formed (the CI guard for the
//! artifact).

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use coursenav_catalog::{InstitutionConfig, SyntheticInstitution};
use coursenav_navigator::ExplorationRequest;
use coursenav_registrar::RegistrarData;
use coursenav_server::{Server, ServerConfig};

struct Row {
    phase: &'static str,
    tenants: usize,
    wall_ms: f64,
    hits: u64,
    misses: u64,
    cache_hit_rate: f64,
    memo_hit_rate: f64,
    vm_rss_mb: f64,
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\":\"tenants\",\"phase\":\"{}\",\"tenants\":{},\"wall_ms\":{:.3},\
             \"hits\":{},\"misses\":{},\"cache_hit_rate\":{:.4},\"memo_hit_rate\":{:.4},\
             \"vm_rss_mb\":{:.1}}}{}\n",
            r.phase,
            r.tenants,
            r.wall_ms,
            r.hits,
            r.misses,
            r.cache_hit_rate,
            r.memo_hit_rate,
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

/// One `connection: close` request; returns `(status, x-cache, body)`.
fn roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let _ = stream.set_nodelay(true);
    let tenant_header = tenant
        .map(|t| format!("x-tenant: {t}\r\n"))
        .unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: loopback\r\nconnection: close\r\n{tenant_header}content-length: {}\r\n\r\n{body}",
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
    let x_cache = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("x-cache:")
                .map(str::trim)
                .map(str::to_string)
        })
        .unwrap_or_default();
    let body = String::from_utf8_lossy(&raw[head_end..]).into_owned();
    (status, x_cache, body)
}

/// The per-tenant probe request: a complete (cacheable) count over four
/// of the department's scheduled semesters — deep enough that selection
/// reorderings transpose, so every cold engine run also exercises the
/// tenant's memo tables.
fn probe(institution: &SyntheticInstitution, d: usize) -> String {
    let dept = &institution.departments[d];
    ExplorationRequest::deadline_count(dept.start, dept.start + 3, 2)
        .to_json()
        .expect("serialize request")
}

/// Explores every tenant once; returns (hits, misses) as stamped by
/// `x-cache`.
fn sweep(addr: SocketAddr, institution: &SyntheticInstitution) -> (u64, u64) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for (d, dept) in institution.departments.iter().enumerate() {
        let (status, x_cache, body) = roundtrip(
            addr,
            "POST",
            "/v1/explore",
            Some(&dept.name),
            &probe(institution, d),
        );
        assert_eq!(status, 200, "tenant {} refused: {body}", dept.name);
        match x_cache.as_str() {
            "hit" => hits += 1,
            _ => misses += 1,
        }
    }
    (hits, misses)
}

/// Aggregate cache and memo hit-rates off `/v1/metrics`.
fn hit_rates(addr: SocketAddr) -> (f64, f64) {
    let (status, _, body) = roundtrip(addr, "GET", "/v1/metrics", None, "");
    assert_eq!(status, 200);
    let metrics: serde_json::Value = serde_json::from_str(&body).expect("metrics JSON");
    let rate = |block: &str| -> f64 {
        let hits = metrics[block]["hits"].as_u64().unwrap_or(0) as f64;
        let misses = metrics[block]["misses"].as_u64().unwrap_or(0) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    };
    (rate("cache"), rate("memo"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tenants = if smoke { 8 } else { 100 };
    let config = InstitutionConfig {
        departments: tenants,
        courses_per_department: 50,
        ..InstitutionConfig::default()
    };
    println!("Bench 6: (tenant, epoch)-partitioned serving state, {tenants} tenants resident\n");
    let institution = SyntheticInstitution::generate(&config);
    println!(
        "institution: {} departments, {} distinct courses",
        institution.departments.len(),
        institution.total_courses
    );

    let server = Server::start(
        ServerConfig {
            cache_mb: 4,
            memo_entries: 1 << 12,
            max_tenants: tenants + 1,
            // Probes must complete: only complete answers are cacheable,
            // and the warm-sweep assertions demand cache hits.
            default_budget_ms: None,
            ..ServerConfig::default()
        },
        coursenav_registrar::brandeis_cs(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut rows = Vec::new();

    println!(
        "\n{:>12} {:>10} {:>8} {:>8} {:>12} {:>12} {:>10}",
        "phase", "wall ms", "hits", "misses", "cache rate", "memo rate", "RSS MiB"
    );
    let record = |rows: &mut Vec<Row>, phase: &'static str, wall: Duration, hits, misses| {
        let (cache_hit_rate, memo_hit_rate) = hit_rates(addr);
        let row = Row {
            phase,
            tenants,
            wall_ms: wall.as_secs_f64() * 1e3,
            hits,
            misses,
            cache_hit_rate,
            memo_hit_rate,
            vm_rss_mb: vm_rss_mb(),
        };
        println!(
            "{:>12} {:>10.1} {:>8} {:>8} {:>12.4} {:>12.4} {:>10.1}",
            row.phase,
            row.wall_ms,
            row.hits,
            row.misses,
            row.cache_hit_rate,
            row.memo_hit_rate,
            row.vm_rss_mb
        );
        rows.push(row);
    };

    // Phase 1: make every department a resident tenant.
    let t0 = Instant::now();
    for dept in &institution.departments {
        let data = RegistrarData {
            catalog: dept.catalog.clone(),
            degree: Some(dept.degree.clone()),
            offering: Some(dept.offering.clone()),
            horizon: (dept.start, dept.end),
        };
        server
            .register_tenant(&dept.name, data)
            .expect("register tenant");
    }
    record(&mut rows, "register", t0.elapsed(), 0, 0);

    // Phase 2: cold sweep — every tenant computes and caches.
    let t0 = Instant::now();
    let (hits, misses) = sweep(addr, &institution);
    assert_eq!(hits, 0, "a cold sweep cannot hit");
    assert_eq!(misses, tenants as u64);
    record(&mut rows, "cold-sweep", t0.elapsed(), hits, misses);

    // Phase 3: warm sweep — every tenant answers from its own partition.
    let t0 = Instant::now();
    let (hits, misses) = sweep(addr, &institution);
    assert_eq!(hits, tenants as u64, "a warm sweep hits everywhere");
    assert_eq!(misses, 0);
    record(&mut rows, "warm-sweep", t0.elapsed(), hits, misses);

    // Phase 4: hot-swap ONE tenant, sweep again. Exactly the swapped
    // tenant recomputes; the other N-1 partitions stay warm — the
    // isolation contract, asserted at full residency.
    let swapped = &institution.departments[0];
    let registered = server
        .register_tenant(
            &swapped.name,
            RegistrarData {
                catalog: swapped.catalog.clone(),
                degree: Some(swapped.degree.clone()),
                offering: Some(swapped.offering.clone()),
                horizon: (swapped.start, swapped.end),
            },
        )
        .expect("swap tenant");
    assert!(registered.swapped, "re-registration is a swap");
    let t0 = Instant::now();
    let (hits, misses) = sweep(addr, &institution);
    assert_eq!(
        misses, 1,
        "exactly the swapped tenant went cold ({} hits)",
        hits
    );
    assert_eq!(hits, tenants as u64 - 1, "every other tenant stayed warm");
    record(&mut rows, "post-swap-sweep", t0.elapsed(), hits, misses);

    let json = json_rows(&rows);
    println!("\n{json}");
    if smoke {
        // CI guard: the committed artifact must stay well-formed JSON with
        // the row shape this harness writes.
        let committed = std::fs::read_to_string("BENCH_6.json").expect("read BENCH_6.json");
        let value: serde_json::Value =
            serde_json::from_str(&committed).expect("BENCH_6.json is valid JSON");
        let rows = value.as_array().expect("BENCH_6.json is a row array");
        assert!(!rows.is_empty(), "BENCH_6.json has rows");
        for row in rows {
            for key in ["bench", "phase", "tenants", "wall_ms", "vm_rss_mb"] {
                assert!(
                    !row[key].is_null(),
                    "BENCH_6.json row missing {key}: {row:?}"
                );
            }
        }
        println!("\nBENCH_6.json is well-formed ({} rows)", rows.len());
    } else {
        std::fs::write("BENCH_6.json", format!("{json}\n")).expect("write BENCH_6.json");
        println!("\nwrote BENCH_6.json");
    }
    server.shutdown();
}
