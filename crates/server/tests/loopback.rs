//! End-to-end loopback tests: a real listener on port 0, raw `TcpStream`
//! clients, concurrent load. Everything the ISSUE's acceptance list asks
//! of the serving layer is exercised here over actual sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use coursenav_navigator::{
    AdviseRequest, ExplorationRequest, GoalSpec, OutputMode, RankingSpec, TranscriptSpec,
    WhatIfRequest,
};
use coursenav_registrar::brandeis_cs;
use coursenav_server::{Server, ServerConfig};

/// A minimal blocking HTTP/1.1 client over one TcpStream. `carry` holds
/// bytes read past the current response so pipelined responses are split
/// correctly.
struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

struct ClientResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl ClientResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            carry: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: loopback\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).unwrap();
        self.read_response()
    }

    fn send_raw(&mut self, raw: &[u8]) -> ClientResponse {
        self.stream.write_all(raw).unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> ClientResponse {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end - 4]).unwrap();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .expect("status code in status line")
            .parse()
            .unwrap();
        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) = l.split_once(':').expect("header line");
                (k.to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.contains("chunked"));
        if chunked {
            // Decode chunked framing: hex size line, payload, CRLF, until
            // the zero-length terminator chunk.
            let mut body = Vec::new();
            let mut pos = head_end;
            loop {
                let line_end = loop {
                    if let Some(p) = buf[pos..].windows(2).position(|w| w == b"\r\n") {
                        break pos + p;
                    }
                    let n = self.stream.read(&mut chunk).expect("read chunk size");
                    assert!(n > 0, "connection closed mid-chunk");
                    buf.extend_from_slice(&chunk[..n]);
                };
                let size = usize::from_str_radix(
                    std::str::from_utf8(&buf[pos..line_end]).unwrap().trim(),
                    16,
                )
                .expect("hex chunk size");
                let data_start = line_end + 2;
                while buf.len() < data_start + size + 2 {
                    let n = self.stream.read(&mut chunk).expect("read chunk payload");
                    assert!(n > 0, "connection closed mid-chunk");
                    buf.extend_from_slice(&chunk[..n]);
                }
                if size == 0 {
                    pos = data_start + 2;
                    break;
                }
                body.extend_from_slice(&buf[data_start..data_start + size]);
                pos = data_start + size + 2;
            }
            self.carry = buf.split_off(pos);
            return ClientResponse {
                status,
                headers,
                body: String::from_utf8(body).unwrap(),
            };
        }
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or(0);
        while buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        // Bytes past this response belong to the next (pipelined) one.
        self.carry = buf.split_off(head_end + content_length);
        ClientResponse {
            status,
            headers,
            body: String::from_utf8(buf[head_end..].to_vec()).unwrap(),
        }
    }
}

fn start_default() -> Server {
    Server::start(ServerConfig::default(), brandeis_cs()).expect("start server")
}

fn count_request() -> ExplorationRequest {
    let data = brandeis_cs();
    // horizon.0 + 4 (Fall 2014): large enough that the degree is feasible
    // (98 goal paths), small enough that the exploration runs in
    // milliseconds — the next semester step multiplies the path count by
    // orders of magnitude.
    let mut req = ExplorationRequest::deadline_count(data.horizon.0, data.horizon.0 + 4, 3);
    req.goal = Some(GoalSpec::Degree);
    req
}

/// Advising after the three intro courses in the start semester, toward
/// the same feasible Fall 2014 degree deadline.
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

fn fetch_metrics(addr: std::net::SocketAddr) -> serde_json::Value {
    let mut client = Client::connect(addr);
    let resp = client.send("GET", "/v1/metrics", None);
    assert_eq!(resp.status, 200);
    serde_json::from_str(&resp.body).expect("metrics is valid JSON")
}

#[test]
fn explore_answers_over_real_tcp() {
    let server = start_default();
    let addr = server.local_addr();

    let mut client = Client::connect(addr);
    let resp = client.send(
        "POST",
        "/v1/explore",
        Some(&count_request().to_json().unwrap()),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    let counts = &value["counts"];
    assert!(
        !counts.is_null(),
        "expected a counts response: {}",
        resp.body
    );
    assert!(counts["total_paths"].as_u64().unwrap_or(0) > 0);
    assert_eq!(resp.header("x-cache"), Some("miss"));

    // Keep-alive: a second request rides the same connection.
    let health = client.send("GET", "/v1/healthz", None);
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));

    let catalog = client.send("GET", "/v1/catalog", None);
    assert_eq!(catalog.status, 200);
    assert!(catalog.body.contains("COSI"), "catalog JSON lists courses");

    server.shutdown();
}

#[test]
fn concurrent_clients_hit_the_canonicalization_cache() {
    let server = start_default();
    let addr = server.local_addr();

    // Six clients, one logical request, six different spellings: permuted
    // completed lists, duplicated codes, rescaled ranking weights. The
    // canonicalizer folds them onto one cache entry.
    let spellings: Vec<ExplorationRequest> = (0..6)
        .map(|i| {
            let mut req = count_request();
            req.output = OutputMode::TopK { k: 3 };
            req.ranking = Some(RankingSpec::Weighted(vec![
                ((i + 1) as f64, RankingSpec::Time),
                ((i + 1) as f64 * 0.25, RankingSpec::Workload),
            ]));
            req.completed = if i % 2 == 0 {
                vec!["COSI 10A".into(), "COSI 11A".into()]
            } else {
                vec!["COSI 11A".into(), "COSI 10A".into(), "COSI 11A".into()]
            };
            req
        })
        .collect();

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = spellings
            .iter()
            .map(|req| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    resp.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every spelling got the same answer. `millis` is timing metadata and
    // may differ when two clients race past the same cache miss, so
    // compare the substantive fields.
    let essence = |body: &str| -> (String, String) {
        let value: serde_json::Value = serde_json::from_str(body).unwrap();
        let ranked = &value["ranked"];
        (
            serde_json::to_string(&ranked["paths"]).unwrap(),
            format!("{:?}{:?}", ranked["ranking"], ranked["truncated"]),
        )
    };
    for body in &bodies[1..] {
        assert_eq!(essence(body), essence(&bodies[0]));
    }

    let metrics = fetch_metrics(addr);
    let hits = metrics["cache"]["hits"].as_u64().unwrap();
    let computed = metrics["explore-computed"].as_u64().unwrap();
    let coalesced = metrics["explore-coalesced"].as_u64().unwrap();
    assert!(
        hits + coalesced > 0,
        "deduplication must be observable: {metrics:?}"
    );
    assert!(
        computed < 6,
        "canonicalization must fold spellings: computed {computed} of 6"
    );
    // Every request either hit the cache, coalesced onto the in-flight
    // computation, or computed; canonicalization maps all six onto one key.
    assert_eq!(hits + computed + coalesced, 6, "{metrics:?}");

    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_503() {
    let server = Server::start(
        ServerConfig {
            threads: 1,
            queue_depth: 1,
            keep_alive: Duration::from_secs(2),
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Occupy the single worker: a served response proves the worker owns
    // this connection's keep-alive loop.
    let mut busy = Client::connect(addr);
    let resp = busy.send("GET", "/v1/healthz", None);
    assert_eq!(resp.status, 200);

    // Fill the queue with a second (idle) connection...
    let _queued = Client::connect(addr);
    std::thread::sleep(Duration::from_millis(100));

    // ...so the third is shed.
    let mut shed = Client::connect(addr);
    let resp = shed.read_response();
    assert_eq!(resp.status, 503);
    assert!(resp.body.contains("saturated"));

    let metrics_after = {
        // The metrics connection itself needs a worker; free them first.
        drop(busy);
        drop(_queued);
        drop(shed);
        std::thread::sleep(Duration::from_millis(100));
        fetch_metrics(addr)
    };
    let sheds = metrics_after["connections-shed"].as_u64().unwrap();
    assert!(sheds >= 1);
    // Shed-at-accept and mid-stream resets are load accounting, not
    // handler failures: each gets its own counter and neither leaks into
    // `server-errors` (nothing here actually failed inside a handler).
    assert_eq!(
        metrics_after["server-errors"].as_u64(),
        Some(0),
        "sheds are not server errors: {metrics_after:?}"
    );
    assert_eq!(
        metrics_after["connections-reset"].as_u64(),
        Some(0),
        "a shed is not a mid-stream reset: {metrics_after:?}"
    );

    server.shutdown();
}

#[test]
fn malformed_and_unroutable_requests_get_4xx() {
    let server = Server::start(
        ServerConfig {
            max_body_bytes: 4096,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Not HTTP at all.
    let resp = Client::connect(addr).send_raw(b"NONSENSE\r\n\r\n");
    assert_eq!(resp.status, 400);

    // Valid HTTP, invalid JSON.
    let resp = Client::connect(addr).send("POST", "/v1/explore", Some("{not json"));
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("bad exploration request"));
    // Validation errors are typed with the offending field:
    // {"error":{"code":...,"field":...,"message":...,"retryable":...}}.
    assert!(
        resp.body.contains("\"code\":\"invalid-request\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"field\":\"body\""), "{}", resp.body);
    assert!(resp.body.contains("\"retryable\":false"), "{}", resp.body);

    // Valid JSON, invalid request (unknown course).
    let mut req = count_request();
    req.completed = vec!["GHOST 999".into()];
    let resp = Client::connect(addr).send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 422);
    assert!(resp.body.contains("unknown course"));
    assert!(
        resp.body.contains("\"code\":\"unknown-course\""),
        "{}",
        resp.body
    );

    // Unknown route and wrong method.
    let resp = Client::connect(addr).send("GET", "/nope", None);
    assert_eq!(resp.status, 404);
    let resp = Client::connect(addr).send("GET", "/v1/explore", None);
    assert_eq!(resp.status, 405);
    let resp = Client::connect(addr).send("POST", "/v1/metrics", None);
    assert_eq!(resp.status, 405);

    // Oversized body.
    let huge = "x".repeat(8192);
    let resp = Client::connect(addr).send("POST", "/v1/explore", Some(&huge));
    assert_eq!(resp.status, 413);

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["client-errors"].as_u64().unwrap() >= 5,
        "{metrics:?}"
    );

    server.shutdown();
}

#[test]
fn deadline_bounded_topk_returns_truncated_partial() {
    let server = start_default();
    let addr = server.local_addr();

    let mut req = count_request();
    req.goal = Some(GoalSpec::Degree);
    req.ranking = Some(RankingSpec::Time);
    req.output = OutputMode::TopK { k: 5 };
    req.budget_ms = Some(0); // deadline already expired on arrival
    let json = req.to_json().unwrap();

    let mut client = Client::connect(addr);
    let resp = client.send("POST", "/v1/explore", Some(&json));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    let ranked = &value["ranked"];
    assert!(
        !ranked.is_null(),
        "expected a ranked response: {}",
        resp.body
    );
    assert_eq!(ranked["truncated"].as_bool(), Some(true));
    assert_eq!(
        ranked["paths"].as_array().map(|paths| paths.len()),
        Some(0),
        "an expired deadline yields an empty (but well-formed) prefix"
    );

    // Truncated answers are never cached: the same request computes again.
    let resp = client.send("POST", "/v1/explore", Some(&json));
    assert_eq!(resp.header("x-cache"), Some("miss"));

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["explore-truncated"].as_u64().unwrap() >= 2,
        "{metrics:?}"
    );
    assert_eq!(metrics["cache"]["entries"].as_u64(), Some(0), "{metrics:?}");

    // The identical exploration *without* a budget completes, is cached,
    // and subsequently hits.
    req.budget_ms = None;
    let json = req.to_json().unwrap();
    let resp = client.send("POST", "/v1/explore", Some(&json));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-cache"), Some("miss"));
    let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(value["ranked"]["truncated"].as_bool(), Some(false));
    let resp = client.send("POST", "/v1/explore", Some(&json));
    assert_eq!(resp.header("x-cache"), Some("hit"));

    server.shutdown();
}

#[test]
fn cache_invalidation_route_empties_the_cache() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    let json = count_request().to_json().unwrap();
    assert_eq!(client.send("POST", "/v1/explore", Some(&json)).status, 200);
    assert_eq!(
        client
            .send("POST", "/v1/explore", Some(&json))
            .header("x-cache"),
        Some("hit")
    );

    let resp = client.send("POST", "/v1/cache/invalidate", None);
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"invalidated\":1"), "{}", resp.body);

    assert_eq!(
        client
            .send("POST", "/v1/explore", Some(&json))
            .header("x-cache"),
        Some("miss")
    );

    server.shutdown();
}

#[test]
fn cross_request_memo_sharing_shows_on_metrics() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    // Three requests that agree on everything that shapes the
    // exploration tree but differ in output/paging — one memo_key, three
    // cache keys — so they share one transposition table and the later
    // runs hit subtrees the first one stored.
    let count_json = count_request().to_json().unwrap();
    assert_eq!(
        client.send("POST", "/v1/explore", Some(&count_json)).status,
        200
    );
    let ranked_json = {
        let mut req = count_request();
        req.output = OutputMode::TopK { k: 5 };
        req.ranking = Some(RankingSpec::Time);
        req.to_json().unwrap()
    };
    assert_eq!(
        client
            .send("POST", "/v1/explore", Some(&ranked_json))
            .status,
        200
    );
    // Pages bypass the response cache, so this re-walks the counted
    // statuses against the now-warm table (one oversized page: the body
    // is the unpaged answer).
    let paged_json = {
        let mut req = count_request();
        req.page_size = Some(100_000);
        req.to_json().unwrap()
    };
    let paged = client.send("POST", "/v1/explore", Some(&paged_json));
    assert_eq!(paged.status, 200, "{}", paged.body);

    let memo = &fetch_metrics(addr)["memo"];
    assert_eq!(memo["enabled"], serde_json::Value::Bool(true));
    assert_eq!(memo["tables"].as_u64(), Some(1), "one shared table");
    assert!(
        memo["hits"].as_u64().unwrap() > 0,
        "the warm re-walk must hit stored subtrees: {memo:?}"
    );
    assert!(memo["misses"].as_u64().unwrap() > 0);
    let entries = memo["entries"].as_u64().unwrap();
    assert!(entries > 0 && entries <= memo["capacity"].as_u64().unwrap());

    // Invalidation drops the tables whole but keeps the lifetime
    // counters — a reload must not silently zero the metrics story.
    assert_eq!(
        client.send("POST", "/v1/cache/invalidate", None).status,
        200
    );
    let memo = &fetch_metrics(addr)["memo"];
    assert_eq!(memo["tables"].as_u64(), Some(0));
    assert!(memo["tables-dropped"].as_u64().unwrap() >= 1);
    assert!(memo["hits"].as_u64().unwrap() > 0, "retired hits survive");
    assert_eq!(memo["entries"].as_u64(), Some(0));

    server.shutdown();
}

#[test]
fn pipelined_requests_share_one_connection() {
    let server = start_default();
    let addr = server.local_addr();

    // Legal HTTP/1.1 pipelining: both requests land in one TCP write,
    // before any response is read. The server must consume exactly one
    // request per dispatch and carry the leftover bytes into the next
    // keep-alive iteration instead of rejecting them as garbage.
    let mut client = Client::connect(addr);
    client
        .stream
        .write_all(
            b"GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\nGET /v1/catalog HTTP/1.1\r\nhost: a\r\n\r\n",
        )
        .unwrap();
    let first = client.read_response();
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"ok\""));
    let second = client.read_response();
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.contains("COSI"), "second pipelined response");

    // A pipelined POST pair works too: head + body + next request at once.
    let json = count_request().to_json().unwrap();
    let post = format!(
        "POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{json}GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\n",
        json.len()
    );
    client.stream.write_all(post.as_bytes()).unwrap();
    let explore = client.read_response();
    assert_eq!(explore.status, 200, "{}", explore.body);
    assert_eq!(client.read_response().status, 200);

    server.shutdown();
}

#[test]
fn partial_head_gets_408_but_idle_close_is_silent() {
    let server = Server::start(
        ServerConfig {
            keep_alive: Duration::from_millis(300),
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Half a request line, then silence: the read deadline fires with
    // bytes already buffered, so the client was mid-request and deserves
    // to hear `408 Request Timeout` before the close.
    let mut partial = Client::connect(addr);
    partial.stream.write_all(b"GET /healthz HT").unwrap();
    let resp = partial.read_response();
    assert_eq!(resp.status, 408, "{}", resp.body);

    // An idle keep-alive connection that never sent a byte is closed
    // silently: EOF, not an unsolicited error response.
    let mut idle = Client::connect(addr);
    let mut chunk = [0u8; 64];
    let n = idle
        .stream
        .read(&mut chunk)
        .expect("clean EOF on idle close");
    assert_eq!(n, 0, "idle timeout closes without writing");

    server.shutdown();
}

#[test]
fn stampede_of_identical_cold_requests_computes_once() {
    let server = Server::start(
        ServerConfig {
            threads: 12,
            default_budget_ms: None,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // A deliberately heavy request — `m = 5` takes on the order of a
    // second in debug builds — so every one of the eight concurrent
    // arrivals lands while the leader is still computing.
    let data = brandeis_cs();
    let mut req = ExplorationRequest::deadline_count(data.horizon.0, data.horizon.0 + 4, 5);
    req.goal = Some(GoalSpec::Degree);
    let json = req.to_json().unwrap();

    const N: usize = 8;
    let stampede = |path: &str, json: &str| -> Vec<(u16, Option<String>, String)> {
        let barrier = std::sync::Barrier::new(N);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = Client::connect(addr);
                        barrier.wait();
                        let resp = client.send("POST", path, Some(json));
                        let cache = resp.header("x-cache").map(str::to_string);
                        (resp.status, cache, resp.body)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let results = stampede("/v1/explore", &json);

    // All 200, and followers share the leader's response *verbatim* —
    // byte-identical bodies, timing metadata included.
    for (status, _, body) in &results {
        assert_eq!(*status, 200, "{body}");
    }
    for (_, _, body) in &results[1..] {
        assert_eq!(body, &results[0].2, "followers reuse the leader's bytes");
    }

    let metrics = fetch_metrics(addr);
    assert_eq!(
        metrics["explore-computed"].as_u64(),
        Some(1),
        "exactly one engine run for {N} identical cold requests: {metrics:?}"
    );
    assert_eq!(
        metrics["explore-coalesced"].as_u64(),
        Some((N - 1) as u64),
        "{metrics:?}"
    );
    let tally = |want: &str| {
        results
            .iter()
            .filter(|(_, cache, _)| cache.as_deref() == Some(want))
            .count()
    };
    assert_eq!(
        (tally("miss"), tally("coalesced"), tally("hit")),
        (1, N - 1, 0),
        "one leader, seven followers, nobody raced past to the cache"
    );

    // The stampede is visible in the explore route's latency histogram.
    let latency = metrics["latency"].as_array().unwrap();
    let explore = latency
        .iter()
        .find(|h| h["route"].as_str() == Some("explore"))
        .expect("per-route histogram for explore");
    assert_eq!(explore["count"].as_u64(), Some(N as u64), "{metrics:?}");
    assert!(
        explore["buckets"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .sum::<u64>()
            == N as u64,
        "bucket sum equals observation count"
    );

    // Advising and no-force what-ifs ride the same cache/singleflight
    // pipeline: every concurrent duplicate gets the same bytes, and each
    // answer says how it was produced.
    let mut whatif = WhatIfRequest {
        base: count_request(),
        transcript: None,
        delta: Default::default(),
    };
    whatif.delta.avoid = vec!["COSI 12B".to_string()];
    for (path, json) in [
        ("/v1/advise", advise_request().to_json().unwrap()),
        ("/v1/whatif", whatif.to_json().unwrap()),
    ] {
        let results = stampede(path, &json);
        for (status, cache, body) in &results {
            assert_eq!(*status, 200, "{path}: {body}");
            assert!(
                matches!(cache.as_deref(), Some("hit" | "miss" | "coalesced")),
                "{path}: x-cache {cache:?}"
            );
            assert_eq!(body, &results[0].2, "{path}: duplicates share bytes");
        }
    }

    server.shutdown();
}

/// Replaces every `millis` field (timing metadata) with zero so response
/// bodies can be compared for *semantic* byte-identity.
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

#[test]
fn parallel_server_answers_are_byte_identical_to_sequential() {
    let sequential = Server::start(ServerConfig::default(), brandeis_cs()).expect("start");
    let parallel = Server::start(
        ServerConfig {
            parallelism: 4,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start");

    let mut requests = vec![count_request()];
    let mut collect = count_request();
    collect.output = OutputMode::Collect { limit: 25 };
    requests.push(collect);
    for ranking in [
        RankingSpec::Time,
        RankingSpec::Weighted(vec![(1.0, RankingSpec::Time), (0.5, RankingSpec::Workload)]),
    ] {
        let mut topk = count_request();
        topk.output = OutputMode::TopK { k: 10 };
        topk.ranking = Some(ranking);
        requests.push(topk);
    }

    for req in &requests {
        let json = req.to_json().unwrap();
        let seq = Client::connect(sequential.local_addr()).send("POST", "/v1/explore", Some(&json));
        let par = Client::connect(parallel.local_addr()).send("POST", "/v1/explore", Some(&json));
        assert_eq!(seq.status, 200, "{}", seq.body);
        assert_eq!(par.status, 200, "{}", par.body);
        let normalize = |body: &str| {
            let mut value: serde_json::Value = serde_json::from_str(body).unwrap();
            zero_millis(&mut value);
            serde_json::to_string(&value).unwrap()
        };
        assert_eq!(
            normalize(&seq.body),
            normalize(&par.body),
            "parallel and sequential engines must serialize identically for {json}"
        );
    }

    sequential.shutdown();
    parallel.shutdown();
}

#[test]
fn responses_carry_the_api_version() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    let resp = client.send(
        "POST",
        "/v1/explore",
        Some(&count_request().to_json().unwrap()),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        value["counts"]["api_version"].as_u64(),
        Some(1),
        "{}",
        resp.body
    );
    server.shutdown();
}

#[test]
fn unprefixed_routes_redirect_permanently_to_v1() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    for (method, path) in [
        ("GET", "/healthz"),
        ("GET", "/catalog"),
        ("GET", "/metrics"),
        ("POST", "/explore"),
        ("POST", "/explore/stream"),
        ("POST", "/cache/invalidate"),
    ] {
        let resp = client.send(method, path, Some("{}"));
        assert_eq!(resp.status, 308, "{method} {path}: {}", resp.body);
        assert_eq!(
            resp.header("location"),
            Some(format!("/v1{path}").as_str()),
            "{method} {path}"
        );
    }
    // Following the redirect lands on the live endpoint; unknown paths
    // stay plain 404s (no redirect guessing).
    assert_eq!(client.send("GET", "/v1/healthz", None).status, 200);
    assert_eq!(client.send("GET", "/nope", None).status, 404);
    server.shutdown();
}

#[test]
fn permanent_redirects_preserve_method_and_body_when_followed() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    let json = count_request().to_json().unwrap();

    // A pre-v1 client POSTs an exploration to the old spelling. 308
    // (unlike 301/302) forbids downgrading the method to GET, so a
    // conforming client replays the same POST + body at `Location` — and
    // that replay must produce the real answer.
    let redirect = client.send("POST", "/explore", Some(&json));
    assert_eq!(redirect.status, 308, "{}", redirect.body);
    let location = redirect.header("location").expect("location").to_string();
    assert_eq!(location, "/v1/explore");
    let followed = client.send("POST", &location, Some(&json));
    assert_eq!(followed.status, 200, "{}", followed.body);
    let value: serde_json::Value = serde_json::from_str(&followed.body).unwrap();
    assert!(value["counts"]["total_paths"].as_u64().unwrap_or(0) > 0);

    // The redirect body itself is a typed error envelope, not a partial
    // answer: nothing exploration-shaped leaks before the client follows.
    assert!(redirect.body.contains("\"error\""), "{}", redirect.body);

    // A GET route follows the same way, and the streaming route's
    // redirect replays to a live chunked response.
    let redirect = client.send("GET", "/metrics", None);
    let location = redirect.header("location").unwrap().to_string();
    assert_eq!(client.send("GET", &location, None).status, 200);
    let redirect = client.send("POST", "/explore/stream", Some(&json));
    assert_eq!(redirect.status, 308);
    let location = redirect.header("location").unwrap().to_string();
    let streamed = client.send("POST", &location, Some(&json));
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));

    server.shutdown();
}

/// Fetches every page of `req` (which must already carry a `page_size`),
/// asserting cache bypass and cursor-token shape along the way. Returns
/// the concatenated `paths` arrays and the page count.
fn fetch_all_pages(
    client: &mut Client,
    mut req: ExplorationRequest,
) -> (Vec<serde_json::Value>, u64) {
    let mut collected = Vec::new();
    let mut pages = 0u64;
    loop {
        let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.header("x-cache"),
            Some("bypass"),
            "paged requests bypass the response cache"
        );
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        let page = &value["paths"];
        assert_eq!(page["api_version"].as_u64(), Some(1));
        for p in page["paths"].as_array().expect("paths array") {
            collected.push(p.clone());
        }
        pages += 1;
        assert!(pages < 100, "paging must terminate");
        match page["next_cursor"].as_str() {
            Some(token) => {
                assert!(token.starts_with("cn1."), "opaque signed token: {token}");
                assert_eq!(
                    page["truncated"].as_bool(),
                    Some(true),
                    "a page with a successor is truncated"
                );
                req.cursor = Some(token.to_string());
            }
            None => return (collected, pages),
        }
    }
}

#[test]
fn paged_explorations_resume_to_the_unpaged_answer() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 40 };
    let unpaged = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(unpaged.status, 200, "{}", unpaged.body);
    let unpaged_value: serde_json::Value = serde_json::from_str(&unpaged.body).unwrap();

    req.page_size = Some(7);
    let (collected, pages) = fetch_all_pages(&mut client, req);
    assert!(pages >= 3, "40 paths at 7 per page need several pages");

    // The concatenation is byte-identical to the unpaged paths array.
    assert_eq!(
        serde_json::to_string(&serde_json::Value::Array(collected)).unwrap(),
        serde_json::to_string(&unpaged_value["paths"]["paths"]).unwrap(),
        "concatenated pages must equal the unpaged answer"
    );

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["explore-paged"].as_u64().unwrap() >= pages,
        "{metrics:?}"
    );
    let sessions = &metrics["sessions"];
    assert!(
        sessions["created"].as_u64().unwrap() >= pages - 1,
        "{metrics:?}"
    );
    assert!(
        sessions["resumed"].as_u64().unwrap() >= pages - 1,
        "{metrics:?}"
    );
    server.shutdown();
}

#[test]
fn tampered_and_replayed_cursors_get_typed_errors() {
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 40 };
    req.page_size = Some(5);
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    let token = value["paths"]["next_cursor"]
        .as_str()
        .expect("a second page exists")
        .to_string();

    // A flipped MAC digit → 400 invalid-cursor, never a panic.
    let mut forged = token.clone();
    let last = forged.pop().unwrap();
    forged.push(if last == '0' { '1' } else { '0' });
    req.cursor = Some(forged);
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"invalid-cursor\""),
        "{}",
        resp.body
    );

    // Garbage is invalid too, on both the buffered and streaming routes.
    req.cursor = Some("cn1.not-hex.not-hex".into());
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = client.send("POST", "/v1/explore/stream", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"invalid-cursor\""),
        "{}",
        resp.body
    );

    // The genuine token still resumes once (the stream consumed nothing)...
    let mut client = Client::connect(addr);
    req.cursor = Some(token);
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 200, "{}", resp.body);

    // ...but a replay finds the session consumed: 410 cursor-expired.
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 410, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"cursor-expired\""),
        "{}",
        resp.body
    );

    let metrics = fetch_metrics(addr);
    let sessions = &metrics["sessions"];
    assert!(sessions["invalid"].as_u64().unwrap() >= 3, "{metrics:?}");
    assert!(sessions["expired"].as_u64().unwrap() >= 1, "{metrics:?}");
    server.shutdown();
}

#[test]
fn refused_requests_never_count_as_computed() {
    // `*-computed` counts engine runs. A stream body that does not decode
    // and a replayed or forged cursor are refused before the engine runs.
    let server = start_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    let computed = |metrics: &serde_json::Value| {
        (
            metrics["explore-computed"].as_u64().unwrap(),
            metrics["advise-computed"].as_u64().unwrap(),
        )
    };

    // One paged exploration and one paged advise, each resumed once: four
    // engine runs, and two consumed tokens to replay.
    let mut explore = count_request();
    explore.output = OutputMode::Collect { limit: 40 };
    explore.page_size = Some(5);
    let first: serde_json::Value = serde_json::from_str(
        &client
            .send("POST", "/v1/explore", Some(&explore.to_json().unwrap()))
            .body,
    )
    .unwrap();
    explore.cursor = Some(first["paths"]["next_cursor"].as_str().unwrap().into());
    let explore_json = explore.to_json().unwrap();
    assert_eq!(
        client
            .send("POST", "/v1/explore", Some(&explore_json))
            .status,
        200
    );
    let mut advise = advise_request();
    advise.page_size = Some(1);
    let first: serde_json::Value = serde_json::from_str(
        &client
            .send("POST", "/v1/advise", Some(&advise.to_json().unwrap()))
            .body,
    )
    .unwrap();
    advise.cursor = Some(first["next-cursor"].as_str().unwrap().into());
    let advise_json = advise.to_json().unwrap();
    assert_eq!(
        client.send("POST", "/v1/advise", Some(&advise_json)).status,
        200
    );
    let before = computed(&fetch_metrics(addr));
    assert_eq!(before, (2, 2));

    let mut forged = explore.clone();
    forged.cursor = Some("cn1.0000000000000000.ffffffffffffffff".into());
    let forged_json = forged.to_json().unwrap();
    for (path, body, status) in [
        ("/v1/explore/stream", "{not json", 400),
        ("/v1/explore/stream", explore_json.as_str(), 410),
        ("/v1/explore/stream", forged_json.as_str(), 400),
        ("/v1/explore", explore_json.as_str(), 410),
        ("/v1/explore", forged_json.as_str(), 400),
        ("/v1/advise", advise_json.as_str(), 410),
    ] {
        let resp = Client::connect(addr).send("POST", path, Some(body));
        assert_eq!(resp.status, status, "{path}: {}", resp.body);
    }
    assert_eq!(computed(&fetch_metrics(addr)), before);
    server.shutdown();
}

#[test]
fn session_eviction_answers_410_for_the_evicted_cursor() {
    // A one-session store: minting the second cursor evicts the first.
    let server = Server::start(
        ServerConfig {
            session_capacity: 1,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 40 };
    req.page_size = Some(5);
    let json = req.to_json().unwrap();

    let first: serde_json::Value =
        serde_json::from_str(&client.send("POST", "/v1/explore", Some(&json)).body).unwrap();
    let second: serde_json::Value =
        serde_json::from_str(&client.send("POST", "/v1/explore", Some(&json)).body).unwrap();
    let token_a = first["paths"]["next_cursor"].as_str().unwrap().to_string();
    let token_b = second["paths"]["next_cursor"].as_str().unwrap().to_string();

    req.cursor = Some(token_a);
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 410, "evicted session is gone: {}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"cursor-expired\""),
        "{}",
        resp.body
    );

    req.cursor = Some(token_b);
    let resp = client.send("POST", "/v1/explore", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 200, "the survivor resumes: {}", resp.body);

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["sessions"]["evicted-capacity"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    server.shutdown();
}

#[test]
fn streamed_exploration_delivers_ndjson_lines() {
    let server = start_default();
    let addr = server.local_addr();

    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 12 };
    let json = req.to_json().unwrap();
    let unpaged = Client::connect(addr).send("POST", "/v1/explore", Some(&json));
    assert_eq!(unpaged.status, 200, "{}", unpaged.body);
    let unpaged_value: serde_json::Value = serde_json::from_str(&unpaged.body).unwrap();

    let mut client = Client::connect(addr);
    let resp = client.send("POST", "/v1/explore/stream", Some(&json));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));

    let lines: Vec<serde_json::Value> = resp
        .body
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line is standalone JSON"))
        .collect();
    let (done, path_lines) = lines.split_last().expect("at least the done line");
    assert_eq!(path_lines.len(), 12, "one line per collected path");
    let streamed: Vec<serde_json::Value> = path_lines.iter().map(|l| l["path"].clone()).collect();
    assert_eq!(
        serde_json::to_string(&serde_json::Value::Array(streamed)).unwrap(),
        serde_json::to_string(&unpaged_value["paths"]["paths"]).unwrap(),
        "streamed paths equal the buffered answer, in order"
    );

    let summary = &done["done"]["paths"];
    assert_eq!(summary["api_version"].as_u64(), Some(1), "{done:?}");
    assert_eq!(
        summary["paths"].as_array().map(Vec::len),
        Some(0),
        "the done line omits already-streamed paths"
    );
    assert_eq!(summary["truncated"], unpaged_value["paths"]["truncated"]);

    let metrics = fetch_metrics(addr);
    assert!(
        metrics["explore-streamed"].as_u64().unwrap() >= 1,
        "{metrics:?}"
    );
    server.shutdown();
}

#[test]
fn streamed_pages_resume_with_the_next_cursor() {
    let server = start_default();
    let addr = server.local_addr();

    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 40 };
    let json = req.to_json().unwrap();
    let unpaged = Client::connect(addr).send("POST", "/v1/explore", Some(&json));
    let unpaged_value: serde_json::Value = serde_json::from_str(&unpaged.body).unwrap();

    // Stream page 1, resume the cursor on the buffered route: the two
    // delivery modes share one session namespace.
    req.page_size = Some(15);
    let resp =
        Client::connect(addr).send("POST", "/v1/explore/stream", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let lines: Vec<serde_json::Value> = resp
        .body
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let (done, path_lines) = lines.split_last().unwrap();
    assert_eq!(path_lines.len(), 15);
    let mut collected: Vec<serde_json::Value> =
        path_lines.iter().map(|l| l["path"].clone()).collect();
    let token = done["done"]["paths"]["next_cursor"]
        .as_str()
        .expect("a truncated stream page carries the resume token")
        .to_string();

    req.cursor = Some(token);
    let (rest, _) = fetch_all_pages(&mut Client::connect(addr), req);
    collected.extend(rest);
    assert_eq!(
        serde_json::to_string(&serde_json::Value::Array(collected)).unwrap(),
        serde_json::to_string(&unpaged_value["paths"]["paths"]).unwrap(),
        "stream page + buffered pages concatenate to the unpaged answer"
    );
    server.shutdown();
}

#[test]
fn whatif_tables_are_retired_at_their_node_cap_across_builds() {
    // Every base DAG fits the per-build budget on its own, but a tenant
    // answering what-ifs over many bases must not grow its table past
    // `dag_nodes`: once a successful build fills it, the table is retired.
    let data = brandeis_cs();
    let service = coursenav_navigator::NavigatorService::new(&data.catalog)
        .with_degree(data.degree.as_ref().expect("bundled degree"))
        .with_offering_model(data.offering.as_ref().expect("bundled offering model"));
    let whatif = |m: usize, avoid: &str| {
        let mut base = count_request();
        base.max_per_semester = m;
        let mut req = WhatIfRequest::new(base);
        req.delta.avoid = vec![avoid.to_string()];
        req
    };
    let (a, b) = (whatif(3, "COSI 12B"), whatif(4, "COSI 12B"));
    let resident = |bases: &[&WhatIfRequest]| {
        let table = coursenav_navigator::UniqueTable::new(0);
        for req in bases {
            service
                .whatif_until(req, None, 1, None, Some(&table))
                .unwrap();
        }
        table.len() as u64
    };
    let (alone_a, alone_b, both) = (resident(&[&a]), resident(&[&b]), resident(&[&a, &b]));
    let cap = alone_a.max(alone_b) + 1;
    assert!(
        both >= cap,
        "one base fits the cap and two do not: {alone_a} {alone_b} {both}"
    );

    let capped = Server::start(
        ServerConfig {
            dag_nodes: cap as usize,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start");
    let reference = start_default();
    let answer = |server: &Server, req: &WhatIfRequest| {
        let resp = Client::connect(server.local_addr()).send(
            "POST",
            "/v1/whatif",
            Some(&req.to_json().unwrap()),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let mut value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        zero_millis(&mut value);
        value
    };
    // A, then B (the table now holds both bases: retired), then A again
    // under a new delta so it is computed, not cached.
    let steps = [(&a, 0), (&b, 1), (&whatif(3, "COSI 29A"), 1)];
    for (i, (req, retired)) in steps.into_iter().enumerate() {
        assert_eq!(
            answer(&capped, req),
            answer(&reference, req),
            "step {i}: a capped table answers exactly like an uncapped one"
        );
        let table = &fetch_metrics(capped.local_addr())["unique-table"];
        assert_eq!(table["tables-retired"].as_u64(), Some(retired), "step {i}");
        let nodes = table["nodes"].as_u64().unwrap();
        assert!(
            nodes <= cap + alone_a.max(alone_b),
            "step {i}: {nodes} resident nodes"
        );
        // The packed edge store is reported beside the nodes and retires
        // with them: one mask word and one child id per edge, plus the
        // alphabets.
        let edges = table["edges"].as_u64().unwrap();
        let edge_bytes = table["edge-bytes"].as_u64().unwrap();
        if i == 0 {
            assert!(edges > 0, "step {i}: a built base has edges");
        }
        assert_eq!(
            edges == 0,
            nodes == 0,
            "step {i}: {edges} edges, {nodes} nodes"
        );
        assert!(edge_bytes >= 12 * edges, "step {i}: {edge_bytes} bytes");
    }
    capped.shutdown();
    reference.shutdown();
}
