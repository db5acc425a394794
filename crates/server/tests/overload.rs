//! End-to-end overload behavior over real sockets: the degradation ladder
//! clamps work and marks responses, the circuit breaker trips under
//! sustained queue saturation, answers fast typed 503s with `Retry-After`,
//! and recovers through half-open probes with hysteresis.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{count_request, fetch_metrics, roundtrip};
use coursenav_navigator::{
    AdviseRequest, BatchAdviseRequest, GoalSpec, OutputMode, RankingSpec, TranscriptSpec,
    WhatIfRequest,
};
use coursenav_registrar::brandeis_cs;
use coursenav_server::{OverloadConfig, Server, ServerConfig};

#[test]
fn degraded_level_clamps_budget_and_marks_responses() {
    // `degrade_queue: 0` pins the ladder at level 1 for every admission,
    // and a zero soft budget makes the clamp bite visibly: the engine's
    // deadline is already expired, so every answer is a truncated partial.
    let server = Server::start(
        ServerConfig {
            default_budget_ms: None,
            overload: OverloadConfig {
                degrade_queue: 0,
                break_queue: 1000,
                soft_budget_ms: 0,
                ..OverloadConfig::default()
            },
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();

    let mut req = count_request();
    req.output = OutputMode::TopK { k: 5 };
    req.ranking = Some(RankingSpec::Time);
    let json = req.to_json().unwrap();

    for _ in 0..2 {
        let resp = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("a full response");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            resp.header("x-degraded"),
            Some("1"),
            "degraded answers are marked"
        );
        // Truncated answers are never cached, so a degraded clamp can
        // never poison the cache with partial bytes.
        assert_eq!(resp.header("x-cache"), Some("miss"));
        let value: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
        assert_eq!(value["ranked"]["truncated"].as_bool(), Some(true));
    }
    // Advising and what-if admissions take the same clamp and the same mark.
    for (path, json) in [
        ("/v1/advise", advise_request().to_json().unwrap()),
        ("/v1/whatif", whatif_request().to_json().unwrap()),
    ] {
        for _ in 0..2 {
            let resp = roundtrip(addr, "POST", path, Some(&json)).expect("a full response");
            assert_eq!(resp.status, 200, "{path}: {}", resp.text());
            assert_eq!(resp.header("x-degraded"), Some("1"), "{path}");
            assert_eq!(resp.header("x-cache"), Some("miss"), "{path}");
            assert!(
                resp.text().contains("\"truncated\":true"),
                "{}",
                resp.text()
            );
        }
    }

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["overload"]["degraded"].as_u64().unwrap() >= 2,
        "{metrics:?}"
    );
    assert_eq!(metrics["cache"]["entries"].as_u64(), Some(0), "{metrics:?}");
    assert_eq!(metrics["overload"]["breaker"].as_str(), Some("closed"));

    server.shutdown();
}

/// A deliberately heavy exploration with a wall-clock budget: the full
/// released horizon at a wide `m` is far more work than `budget_ms`, so
/// the single compute worker is parked for that long (then answers a
/// truncated 200). Under the event-driven core an *idle* connection no
/// longer occupies a worker, so the breaker tests park the worker with
/// compute instead of a keep-alive loop — the admission-time assertions
/// are unchanged.
fn parked_worker_request(budget_ms: u64) -> String {
    let data = brandeis_cs();
    let mut req =
        coursenav_navigator::ExplorationRequest::deadline_count(data.horizon.0, data.horizon.1, 5);
    req.budget_ms = Some(budget_ms);
    req.to_json().unwrap()
}

#[test]
fn breaker_trips_on_saturation_and_recovers_with_hysteresis() {
    // One worker and a deliberately tiny break threshold make the trip
    // deterministic: while the worker is parked in a budget-bounded heavy
    // exploration, three more requests queue up, and the first admission
    // that observes the queue at `break_queue` trips the breaker
    // immediately (`trip_after: 1`).
    let server = Server::start(
        ServerConfig {
            threads: 1,
            queue_depth: 8,
            keep_alive: Duration::from_millis(600),
            overload: OverloadConfig {
                degrade_queue: 1,
                break_queue: 2,
                trip_after: 1,
                open_for: Duration::from_millis(2_500),
                recover_probes: 2,
                ..OverloadConfig::default()
            },
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let json = count_request().to_json().unwrap();

    // Park the single worker in a heavy exploration (~700ms of compute).
    let mut holder = TcpStream::connect(addr).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let heavy = parked_worker_request(700);
    holder
        .write_all(
            format!(
                "POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{heavy}",
                heavy.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Let the event loop parse and hand the holder to the worker.
    std::thread::sleep(Duration::from_millis(200));

    // Queue three explorations behind it (depth 3 ≥ break_queue 2).
    let request = format!(
        "POST /v1/explore HTTP/1.1\r\nhost: a\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    );
    let mut queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(request.as_bytes()).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));

    // The worker frees when the holder's keep-alive lapses, claims each
    // queued connection in turn, and every one is answered by the breaker:
    // the first admission trips it, the rest find it open. All three get
    // the fast typed 503 with a Retry-After hint.
    for stream in &mut queued {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let resp = common::parse_response(&raw).expect("a well-formed 503");
        assert_eq!(resp.status, 503, "{}", resp.text());
        assert!(resp.complete);
        assert!(
            resp.text().contains("\"code\":\"overloaded\""),
            "{}",
            resp.text()
        );
        assert!(
            resp.text().contains("\"retryable\":true"),
            "{}",
            resp.text()
        );
        let retry_after: u64 = resp
            .header("retry-after")
            .expect("Retry-After on breaker rejections")
            .parse()
            .expect("Retry-After is whole seconds");
        assert!(retry_after >= 1);
    }
    drop(queued);
    let mut buf = [0u8; 1024];
    let n = holder.read(&mut buf).unwrap();
    assert!(n > 0, "the parked holder eventually got its truncated 200");
    drop(holder);

    // `/metrics` is exempt from admission control and shows the trip.
    let metrics = fetch_metrics(addr);
    assert_eq!(
        metrics["overload"]["breaker"].as_str(),
        Some("open"),
        "{metrics:?}"
    );
    assert_eq!(metrics["overload"]["breaker-opens"].as_u64(), Some(1));
    assert_eq!(metrics["overload"]["breaker-rejections"].as_u64(), Some(3));
    // Rejections are real 503 responses, so they appear in the status
    // tally — but `breaker-rejections` accounts for every one of them,
    // keeping them distinguishable from genuine handler failures (and
    // sheds/resets, which never reach a handler, stay at zero).
    assert_eq!(metrics["server-errors"].as_u64(), Some(3), "{metrics:?}");
    assert_eq!(metrics["connections-shed"].as_u64(), Some(0));
    assert_eq!(metrics["connections-reset"].as_u64(), Some(0));

    // Past `open_for`, the queue is long drained: the breaker goes
    // half-open and serves probes at ladder level 2. Hysteresis means one
    // healthy probe is not enough (`recover_probes: 2`)...
    std::thread::sleep(Duration::from_millis(2_800));
    let probe = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("probe served");
    assert_eq!(probe.status, 200, "{}", probe.text());
    assert_eq!(probe.header("x-degraded"), Some("2"), "probes run degraded");
    let metrics = fetch_metrics(addr);
    assert_eq!(
        metrics["overload"]["breaker"].as_str(),
        Some("half-open"),
        "one healthy probe must not close the breaker: {metrics:?}"
    );

    // ...the second closes it, and full-fidelity service resumes.
    let probe = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("probe served");
    assert_eq!(probe.status, 200);
    assert_eq!(probe.header("x-degraded"), Some("2"));
    let metrics = fetch_metrics(addr);
    assert_eq!(
        metrics["overload"]["breaker"].as_str(),
        Some("closed"),
        "{metrics:?}"
    );
    let recovered = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("served");
    assert_eq!(recovered.status, 200);
    assert_eq!(
        recovered.header("x-degraded"),
        None,
        "recovered service is full fidelity"
    );

    server.shutdown();
}

#[test]
fn open_breaker_rejects_streams_with_the_same_typed_503() {
    // Same single-worker topology as the trip test, but the queued load is
    // streaming requests: `/v1/explore/stream` consults the same admission
    // path and answers the same fast typed 503 while the breaker is open.
    let server = Server::start(
        ServerConfig {
            threads: 1,
            queue_depth: 8,
            keep_alive: Duration::from_millis(600),
            overload: OverloadConfig {
                degrade_queue: 1,
                break_queue: 2,
                trip_after: 1,
                open_for: Duration::from_secs(30),
                ..OverloadConfig::default()
            },
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let json = count_request().to_json().unwrap();

    // Unloaded, the stream route serves normally.
    let resp = roundtrip(addr, "POST", "/v1/explore/stream", Some(&json)).expect("stream served");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.complete);

    // Park the worker in a heavy exploration, queue three streams behind it.
    let mut holder = TcpStream::connect(addr).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let heavy = parked_worker_request(700);
    holder
        .write_all(
            format!(
                "POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{heavy}",
                heavy.len()
            )
            .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let stream_request = format!(
        "POST /v1/explore/stream HTTP/1.1\r\nhost: a\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    );
    let mut queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(stream_request.as_bytes()).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));

    // The single worker claims them one at a time: depth is 2 at the first
    // admission, which trips the breaker; the rest find it open. Every
    // queued stream gets the buffered typed 503 (no chunked head).
    for stream in &mut queued {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let resp = common::parse_response(&raw).expect("well-formed 503");
        assert_eq!(resp.status, 503, "{}", resp.text());
        assert!(resp.complete);
        assert!(
            resp.text().contains("\"code\":\"overloaded\""),
            "{}",
            resp.text()
        );
        assert!(resp.header("retry-after").is_some());
    }
    let mut buf = [0u8; 1024];
    let n = holder.read(&mut buf).unwrap();
    assert!(n > 0, "the parked holder eventually got its truncated 200");
    drop(holder);

    let metrics = fetch_metrics(addr);
    assert_eq!(metrics["overload"]["breaker"].as_str(), Some("open"));
    assert_eq!(metrics["overload"]["breaker-rejections"].as_u64(), Some(3));

    // While it stays open, every other POST family answers the same typed
    // 503: the buffered advise and what-if routes and the streamed batch.
    let advise = advise_request();
    let batch = BatchAdviseRequest {
        students: vec![advise.transcript.clone()],
        interests: None,
        deadline: advise.deadline,
        max_per_semester: None,
        goal: advise.goal.clone(),
        k: advise.k,
        budget_ms: None,
        tenant: None,
    };
    for (path, json) in [
        ("/v1/advise", advise.to_json().unwrap()),
        ("/v1/whatif", whatif_request().to_json().unwrap()),
        ("/v1/advise/batch", batch.to_json().unwrap()),
    ] {
        let resp = roundtrip(addr, "POST", path, Some(&json)).expect("a full response");
        assert_eq!(resp.status, 503, "{path}: {}", resp.text());
        assert!(resp.complete);
        assert!(
            resp.text().contains("\"code\":\"overloaded\""),
            "{path}: {}",
            resp.text()
        );
        assert!(resp.header("retry-after").is_some(), "{path}");
    }
    let metrics = fetch_metrics(addr);
    assert_eq!(metrics["overload"]["breaker-rejections"].as_u64(), Some(6));

    server.shutdown();
}

/// The cohort fixture from the wire-contract suite: three intro courses
/// in the start semester, a feasible Fall 2014 degree deadline.
fn advise_request() -> AdviseRequest {
    let data = brandeis_cs();
    let transcript = TranscriptSpec {
        start: data.horizon.0,
        selections: vec![vec![
            "COSI 10A".to_string(),
            "COSI 11A".to_string(),
            "COSI 29A".to_string(),
        ]],
    };
    let mut req = AdviseRequest::new(transcript, data.horizon.0 + 4);
    req.goal = Some(GoalSpec::Degree);
    req.k = Some(2);
    req
}

/// A no-force what-if over the standard count request.
fn whatif_request() -> WhatIfRequest {
    let mut req = WhatIfRequest {
        base: count_request(),
        transcript: None,
        delta: Default::default(),
    };
    req.delta.avoid = vec!["COSI 12B".to_string()];
    req
}
