//! Lifecycle tests for the event-driven core over real sockets: held
//! connections are cheap and visible on the new `event-loop` gauges,
//! slots are reused rather than leaked, the single deadline heap preserves
//! PR 2's 408-vs-silent-close semantics (the bugfix pin), pipelined
//! cycles re-arm their deadlines, and the accept-stage cap sheds with
//! the same typed 503 discipline as dispatch admission.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{fetch_metrics, parse_response, roundtrip};
use coursenav_registrar::brandeis_cs;
use coursenav_server::{Server, ServerConfig};

fn start(keep_alive_ms: u64, max_connections: Option<usize>) -> Server {
    Server::start(
        ServerConfig {
            threads: 2,
            keep_alive: Duration::from_millis(keep_alive_ms),
            max_connections,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server")
}

fn healthz(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 2048];
    let n = stream.read(&mut buf).unwrap();
    assert!(n > 0, "healthz answered");
    buf[..n].to_vec()
}

#[test]
fn held_connections_cost_gauges_not_threads() {
    // Room for the held fleet, the active clients below and the metrics
    // fetches; the default cap is threads + queue depth.
    let server = start(60_000, Some(128));
    let addr = server.local_addr();

    // Far more live connections than the 2 compute workers could ever
    // hold under thread-per-connection.
    let mut held: Vec<TcpStream> = Vec::new();
    for _ in 0..64 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        healthz(&mut s);
        held.push(s);
    }

    let metrics = fetch_metrics(addr);
    let held_gauge = metrics["event-loop"]["connections-held"].as_u64().unwrap();
    assert!(held_gauge >= 64, "{metrics:?}");
    assert!(
        metrics["event-loop"]["epoll-wakeups"].as_u64().unwrap() > 0,
        "{metrics:?}"
    );
    // All 64 are idle between requests, none parked in a worker.
    assert!(
        metrics["event-loop"]["stage-idle"].as_u64().unwrap() >= 64,
        "{metrics:?}"
    );

    // Every held connection still answers — the loop, not a thread, owns
    // them all.
    for s in held.iter_mut().take(8) {
        let raw = healthz(s);
        assert!(raw.starts_with(b"HTTP/1.1 200"), "reused keep-alive conn");
    }

    // Active traffic under the held fleet: 32 fresh connections, eight in
    // flight at a time (below the admission queue's degrade threshold),
    // each explore answered 200 while all 64 stay parked.
    let body = common::count_request().to_json().unwrap();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..4 {
                    let resp = roundtrip(addr, "POST", "/v1/explore", Some(&body))
                        .expect("explore answers under the held fleet");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                }
            });
        }
    });
    let metrics = fetch_metrics(addr);
    assert!(
        metrics["event-loop"]["connections-held"].as_u64().unwrap() >= 64,
        "{metrics:?}"
    );

    drop(held);
    server.shutdown();
}

#[test]
fn closed_connections_release_their_slots() {
    let server = start(60_000, None);
    let addr = server.local_addr();

    // Serial connect/serve/close cycles: accepted counts rise, held does
    // not — slots are recycled, not leaked.
    for _ in 0..32 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        healthz(&mut s);
        drop(s);
    }
    // EOF-driven teardown is asynchronous; give the loop a beat.
    std::thread::sleep(Duration::from_millis(200));

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["connections-accepted"].as_u64().unwrap() >= 32,
        "{metrics:?}"
    );
    // At most the metrics fetch's own connection is still held.
    assert!(
        metrics["event-loop"]["connections-held"].as_u64().unwrap() <= 1,
        "slots leaked: {metrics:?}"
    );

    server.shutdown();
}

/// Reads one complete response off a keep-alive connection.
fn read_response(stream: &mut TcpStream) -> common::WireResponse {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed mid-response");
        raw.extend_from_slice(&buf[..n]);
        if let Some(resp) = parse_response(&raw).filter(|r| r.complete) {
            return resp;
        }
    }
}

/// The deadline heap's size, read over `stream` (a held connection).
fn timer_entries(stream: &mut TcpStream) -> u64 {
    stream
        .write_all(b"GET /v1/metrics HTTP/1.1\r\nhost: a\r\n\r\n")
        .unwrap();
    let resp = read_response(stream);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let metrics: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
    metrics["event-loop"]["timer-entries"].as_u64().unwrap()
}

#[test]
fn keep_alive_cycles_hold_one_timer_entry_per_connection() {
    // Each request re-arms the connection's deadline twice (the read
    // deadline after the response, the write deadline while it drains).
    // Re-arms move the queued entry's deadline instead of inserting, so
    // a thousand cycles leave one wheel entry, not two thousand.
    let server = start(60_000, None);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..1_000 {
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\n")
            .unwrap();
        assert_eq!(read_response(&mut stream).status, 200);
    }
    // The metrics request rides the same connection, the only one held.
    let entries = timer_entries(&mut stream);
    assert!(entries <= 1, "{entries} wheel entries for one connection");

    // A closed connection's entry stays queued until its deadline fires,
    // so under churn the wheel holds one entry per connection opened
    // within the keep-alive window, however often each one re-armed.
    const CHURNED: u64 = 50;
    for _ in 0..CHURNED {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        healthz(&mut s);
    }
    let entries = timer_entries(&mut stream);
    assert!(
        entries <= CHURNED + 1,
        "{entries} wheel entries for one held and {CHURNED} closed connections"
    );

    server.shutdown();
}

#[test]
fn timer_wheel_pins_408_for_partial_heads_and_silence_for_idle() {
    // The keep-alive semantics, enforced by the loop's single deadline heap
    // instead of per-thread socket timeouts: a lapsed deadline mid-head
    // answers 408; a lapsed deadline between requests closes silently.
    let server = start(300, None);
    let addr = server.local_addr();

    let mut partial = TcpStream::connect(addr).unwrap();
    partial
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    partial.write_all(b"GET /v1/healthz HT").unwrap();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut raw = Vec::new();
    partial.read_to_end(&mut raw).unwrap();
    let resp = parse_response(&raw).expect("a well-formed 408");
    assert_eq!(resp.status, 408, "{}", resp.text());
    assert!(resp.complete);

    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).unwrap();
    assert!(raw.is_empty(), "idle close writes nothing: {raw:?}");

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["event-loop"]["reaped-408"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    assert!(
        metrics["event-loop"]["reaped-idle"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );

    server.shutdown();
}

#[test]
fn pipelined_prefix_is_served_before_the_partial_tail_times_out() {
    // Two complete pipelined requests followed by a partial third, all in
    // one write: the prefix is answered normally (each cycle re-arms the
    // wheel), then the dangling tail gets its 408 and the close.
    let server = start(400, None);
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\n\
          GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\n\
          GET /v1/metr",
    )
    .unwrap();

    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK").count(),
        2,
        "both pipelined requests answered: {text}"
    );
    assert_eq!(
        text.matches("HTTP/1.1 408").count(),
        1,
        "the partial tail timed out: {text}"
    );

    server.shutdown();
}

#[test]
fn accept_cap_sheds_the_overflow_connection_with_a_typed_503() {
    let server = start(60_000, Some(3));
    let addr = server.local_addr();

    let mut held: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            healthz(&mut s);
            s
        })
        .collect();

    // The fourth connection is over the cap: a raw 503 at accept, then
    // the close — no slot, no request read.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    over.read_to_end(&mut raw).unwrap();
    let resp = parse_response(&raw).expect("a well-formed shed 503");
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.complete);
    assert!(resp.text().contains("saturated"), "{}", resp.text());
    assert!(resp.header("retry-after").is_some());
    assert_eq!(resp.header("connection"), Some("close"));

    // Held connections still serve; freeing one re-opens the door.
    let raw = healthz(&mut held[0]);
    assert!(raw.starts_with(b"HTTP/1.1 200"));
    drop(held.pop());
    std::thread::sleep(Duration::from_millis(200));
    let resp = roundtrip(addr, "GET", "/v1/healthz", None).expect("slot freed");
    assert_eq!(resp.status, 200);

    drop(held);
    std::thread::sleep(Duration::from_millis(200));
    let metrics = fetch_metrics(addr);
    assert!(
        metrics["connections-shed"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );

    server.shutdown();
}
