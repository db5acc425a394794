//! Golden wire-contract suite: pins status, headers, and JSON shape for
//! every route documented in `docs/WIRE_API.md` — including the
//! deprecated unprefixed aliases and the global cache invalidate. A
//! change that breaks one of these assertions is a wire-API change and
//! must update the document in the same commit.

mod common;

use common::{fetch_metrics, roundtrip, roundtrip_with_headers, WireResponse};
use coursenav_catalog::{Semester, Term};
use coursenav_navigator::{
    AdviseRequest, BatchAdviseRequest, GoalSpec, TranscriptSpec, WhatIfRequest,
};
use coursenav_registrar::{brandeis_cs, writer::write_registrar_file};
use coursenav_server::{Server, ServerConfig, DEPRECATION_SUNSET};

fn server() -> Server {
    Server::start(ServerConfig::default(), brandeis_cs()).expect("bind loopback")
}

fn send(server: &Server, method: &str, path: &str, body: Option<&str>) -> WireResponse {
    roundtrip(server.local_addr(), method, path, body).expect("server answers")
}

/// The cohort fixture: after taking the three intro courses in Fall
/// 2012, a Fall 2014 degree deadline leaves exactly nine slots for nine
/// remaining requirements — a small, fully-forced tree.
fn transcript() -> TranscriptSpec {
    TranscriptSpec {
        start: Semester::new(2012, Term::Fall),
        selections: vec![vec![
            "COSI 10A".to_string(),
            "COSI 11A".to_string(),
            "COSI 29A".to_string(),
        ]],
    }
}

fn advise_request() -> AdviseRequest {
    let mut req = AdviseRequest::new(transcript(), Semester::new(2014, Term::Fall));
    req.goal = Some(GoalSpec::Degree);
    req.k = Some(2);
    req
}

#[test]
fn explore_answers_json_with_cache_headers() {
    let server = server();
    let body = common::count_request().to_json().unwrap();
    let resp = send(&server, "POST", "/v1/explore", Some(&body));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(resp.header("x-cache"), Some("miss"));
    // Exploration responses predate the kebab-case convention and keep
    // their snake_case field names for compatibility (docs/WIRE_API.md).
    assert!(resp.text().contains("\"counts\""), "{}", resp.text());
    assert!(resp.text().contains("\"api_version\":1"), "{}", resp.text());
    // The identical request is a cache hit with an identical body.
    let again = send(&server, "POST", "/v1/explore", Some(&body));
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, resp.body);
    server.shutdown();
}

#[test]
fn explore_stream_answers_chunked_ndjson() {
    let server = server();
    let body = common::count_request().to_json().unwrap();
    let resp = send(&server, "POST", "/v1/explore/stream", Some(&body));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    assert!(resp.complete, "stream reaches its terminal chunk");
    let last = resp.text().lines().last().expect("at least the done line");
    assert!(last.starts_with("{\"done\":"), "{last}");
    server.shutdown();
}

#[test]
fn advise_answers_the_documented_shape() {
    let server = server();
    let body = advise_request().to_json().unwrap();
    let resp = send(&server, "POST", "/v1/advise", Some(&body));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(resp.header("x-cache"), Some("miss"));
    let text = resp.text();
    for key in [
        "\"api-version\":1",
        "\"status\"",
        "\"completed\"",
        "\"options\"",
        "\"ranking\":\"time\"",
        "\"recommendations\"",
        "\"options-next-semester\"",
        "\"goal-paths\"",
        "\"completions\"",
        "\"truncated\":false",
        "\"next-cursor\":null",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    // The identical request is a cache hit with an identical body: warm
    // tables change latency, never bytes.
    let again = send(&server, "POST", "/v1/advise", Some(&body));
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, resp.body);
    server.shutdown();
}

fn whatif_request() -> WhatIfRequest {
    let mut req = WhatIfRequest {
        base: common::count_request(),
        transcript: None,
        delta: Default::default(),
    };
    req.delta.avoid = vec!["COSI 12B".to_string()];
    req
}

#[test]
fn whatif_answers_counts_with_cache_headers() {
    let server = server();
    let body = whatif_request().to_json().unwrap();
    let resp = send(&server, "POST", "/v1/whatif", Some(&body));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(resp.header("x-cache"), Some("miss"));
    // What-if counts answer in the exploration response shape, which
    // keeps its snake_case field names (docs/WIRE_API.md).
    assert!(resp.text().contains("\"counts\""), "{}", resp.text());
    assert!(resp.text().contains("\"api_version\":1"), "{}", resp.text());
    // The identical delta is a cache hit with an identical body.
    let again = send(&server, "POST", "/v1/whatif", Some(&body));
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, resp.body);
    // The metrics surface accounts the route and the shared unique table.
    let metrics = fetch_metrics(server.local_addr());
    assert_eq!(metrics["whatif-requests"].as_u64(), Some(2));
    assert_eq!(metrics["whatif-applied"].as_u64(), Some(1));
    assert_eq!(metrics["whatif-cache-hits"].as_u64(), Some(1));
    let table = &metrics["unique-table"];
    assert!(table["nodes"].as_u64().unwrap() > 0, "{table:?}");
    assert!(table["roots"].as_u64().unwrap() >= 1, "{table:?}");
    assert_eq!(table["tables-retired"].as_u64(), Some(0));
    let latency = metrics["latency"].as_array().expect("route latencies");
    assert!(
        latency
            .iter()
            .any(|row| row["route"].as_str() == Some("whatif")),
        "{latency:?}"
    );
    server.shutdown();
}

#[test]
fn unrepresentable_semesters_are_invalid_requests() {
    let server = server();
    // `year * 2 + term` overflows the semester index.
    let body = common::count_request()
        .to_json()
        .unwrap()
        .replace("\"Fall 2014\"", "\"Fall 2000000000\"");
    assert!(body.contains("Fall 2000000000"), "{body}");
    let resp = send(&server, "POST", "/v1/explore", Some(&body));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("\"code\":\"invalid-request\""),
        "{}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn whatif_force_requires_unpaged_counts() {
    let server = server();
    let mut req = whatif_request();
    req.delta.force = vec!["COSI 12B".to_string()];
    req.base.page_size = Some(5);
    let resp = send(&server, "POST", "/v1/whatif", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 422, "{}", resp.text());
    assert!(
        resp.text().contains("\"code\":\"invalid-request\""),
        "{}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn whatif_pages_resume_to_the_unpaged_count() {
    // A paged no-force what-if is a paged exploration of the merged
    // request: it bypasses the cache, mints cursors, and is accounted on
    // the explore paging counters.
    let server = server();
    let mut req = whatif_request();
    req.delta.avoid.clear();
    req.delta.max_semester_workload = Some(38.0);
    let unpaged = send(&server, "POST", "/v1/whatif", Some(&req.to_json().unwrap()));
    assert_eq!(unpaged.status, 200, "{}", unpaged.text());
    let unpaged: serde_json::Value = serde_json::from_str(unpaged.text()).unwrap();
    assert!(
        unpaged["counts"]["goal_paths"].as_u64().unwrap() > 0,
        "{unpaged:?}"
    );
    req.base.page_size = Some(20);
    let mut pages = 0u64;
    let last = loop {
        let resp = send(&server, "POST", "/v1/whatif", Some(&req.to_json().unwrap()));
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-cache"), Some("bypass"));
        let page: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
        pages += 1;
        assert!(pages < 100, "paging must terminate");
        match page["counts"]["next_cursor"].as_str() {
            Some(token) => req.base.cursor = Some(token.to_string()),
            None => break page,
        }
    };
    assert!(pages >= 2, "a 20-leaf page size splits the count");
    // Counts are cumulative across resumed pages: the last page carries
    // the unpaged totals.
    for field in ["total_paths", "goal_paths"] {
        assert_eq!(
            last["counts"][field], unpaged["counts"][field],
            "{field}: {last:?} vs {unpaged:?}"
        );
    }
    let metrics = fetch_metrics(server.local_addr());
    assert_eq!(metrics["whatif-requests"].as_u64(), Some(1 + pages));
    assert_eq!(metrics["whatif-computed"].as_u64(), Some(1));
    assert_eq!(metrics["explore-requests"].as_u64(), Some(0));
    assert_eq!(metrics["explore-paged"].as_u64(), Some(pages));
    assert_eq!(metrics["explore-computed"].as_u64(), Some(pages));
    server.shutdown();
}

#[test]
fn whatif_over_budget_is_a_typed_retryable_413() {
    // A one-node table cannot hold any base DAG: the build aborts with
    // the documented state-budget error and the saturated table is
    // retired so later requests start clean.
    let config = ServerConfig {
        dag_nodes: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(config, brandeis_cs()).expect("bind loopback");
    let resp = send(
        &server,
        "POST",
        "/v1/whatif",
        Some(&whatif_request().to_json().unwrap()),
    );
    assert_eq!(resp.status, 413, "{}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"code\":\"state-budget\""), "{text}");
    assert!(text.contains("\"retryable\":true"), "{text}");
    let metrics = fetch_metrics(server.local_addr());
    assert!(
        metrics["unique-table"]["tables-retired"].as_u64().unwrap() >= 1,
        "saturated tables are retired"
    );
    server.shutdown();
}

#[test]
fn advise_pages_mint_single_use_cursors() {
    let server = server();
    let mut req = advise_request();
    req.page_size = Some(1);
    let resp = send(&server, "POST", "/v1/advise", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-cache"), Some("bypass"));
    let page: serde_json::Value = serde_json::from_str(resp.text()).unwrap();
    let token = page["next-cursor"]
        .as_str()
        .expect("k=2 at page size 1 pauses with more to deliver")
        .to_string();
    let mut resume = advise_request();
    resume.page_size = Some(1);
    resume.cursor = Some(token.clone());
    let next = send(
        &server,
        "POST",
        "/v1/advise",
        Some(&resume.to_json().unwrap()),
    );
    assert_eq!(next.status, 200, "{}", next.text());
    // Resuming consumed the session: the same token now answers 410.
    let replay = send(
        &server,
        "POST",
        "/v1/advise",
        Some(&resume.to_json().unwrap()),
    );
    assert_eq!(replay.status, 410, "{}", replay.text());
    assert!(
        replay.text().contains("cursor-expired"),
        "{}",
        replay.text()
    );
    server.shutdown();
}

#[test]
fn advise_validation_errors_name_the_transcript_field() {
    let server = server();
    // A course the catalog lacks: 422, exact typed body.
    let mut req = advise_request();
    req.transcript.selections = vec![vec!["GHOST 1".to_string()]];
    let resp = send(&server, "POST", "/v1/advise", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 422, "{}", resp.text());
    assert_eq!(
        resp.text(),
        "{\"error\":{\"code\":\"unknown-course\",\
         \"field\":\"transcript.selections[0][0]\",\
         \"message\":\"unknown course \\\"GHOST 1\\\" in semester 0\",\
         \"retryable\":false}}"
    );
    // A history the catalog cannot replay: 400 invalid-request.
    let mut req = advise_request();
    req.transcript.selections = vec![vec!["COSI 21A".to_string()]];
    let resp = send(&server, "POST", "/v1/advise", Some(&req.to_json().unwrap()));
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("\"code\":\"invalid-request\""),
        "{}",
        resp.text()
    );
    assert!(
        resp.text()
            .contains("\"field\":\"transcript.selections[0]\""),
        "{}",
        resp.text()
    );
    // Malformed JSON: 400 with the body itself as the field.
    let resp = send(&server, "POST", "/v1/advise", Some("{not json"));
    assert_eq!(resp.status, 400);
    assert!(
        resp.text().contains("\"field\":\"body\""),
        "{}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn advise_batch_streams_one_line_per_student() {
    let server = server();
    let batch = BatchAdviseRequest {
        students: vec![
            transcript(),
            TranscriptSpec {
                start: Semester::new(2012, Term::Fall),
                selections: vec![vec!["GHOST 1".to_string()]],
            },
        ],
        interests: None,
        deadline: Semester::new(2014, Term::Fall),
        max_per_semester: None,
        goal: Some(GoalSpec::Degree),
        k: Some(2),
        budget_ms: None,
        tenant: None,
    };
    let resp = send(
        &server,
        "POST",
        "/v1/advise/batch",
        Some(&batch.to_json().unwrap()),
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(resp.header("x-cache"), Some("bypass"));
    assert!(resp.complete);
    let lines: Vec<&str> = resp.text().lines().collect();
    assert_eq!(lines.len(), 3, "{}", resp.text());
    assert!(
        lines[0].starts_with("{\"student\":0,\"advise\":{"),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"recommendations\""), "{}", lines[0]);
    // The bad transcript errors in place, re-rooted at its batch slot,
    // without sinking the cohort.
    assert_eq!(
        lines[1],
        "{\"student\":1,\"error\":{\"code\":\"unknown-course\",\
         \"field\":\"students[1].selections[0][0]\",\
         \"message\":\"unknown course \\\"GHOST 1\\\" in semester 0\",\
         \"retryable\":false}}"
    );
    assert_eq!(
        lines[2],
        "{\"done\":{\"students\":2,\"errors\":1,\"truncated\":false}}"
    );
    // An empty cohort is refused up front.
    let empty = send(
        &server,
        "POST",
        "/v1/advise/batch",
        Some("{\"students\":[],\"deadline\":\"Fall 2014\"}"),
    );
    assert_eq!(empty.status, 400, "{}", empty.text());
    assert!(
        empty.text().contains("\"field\":\"students\""),
        "{}",
        empty.text()
    );
    server.shutdown();
}

#[test]
fn read_only_routes_answer_their_documented_bodies() {
    let server = server();
    let health = send(&server, "GET", "/v1/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"status\":\"ok\"}");

    let catalog = send(&server, "GET", "/v1/catalog", None);
    assert_eq!(catalog.status, 200);
    assert_eq!(catalog.header("content-type"), Some("application/json"));
    assert!(catalog.text().contains("COSI 10A"), "catalog lists courses");

    let metrics = fetch_metrics(server.local_addr());
    assert!(metrics["advise-requests"].as_u64().is_some());
    assert!(metrics["advise-batch-students"].as_u64().is_some());
    let hits = metrics["deprecated-route-hits"]
        .as_array()
        .expect("deprecated spellings are enumerated even at zero hits");
    assert!(
        hits.iter()
            .any(|row| row["route"].as_str() == Some("/advise")),
        "every alias appears in the breakdown"
    );

    let tenants = send(&server, "GET", "/v1/catalogs", None);
    assert_eq!(tenants.status, 200);
    assert!(
        tenants.text().starts_with("{\"tenants\":["),
        "{}",
        tenants.text()
    );
    assert!(tenants.text().contains("\"default\""), "{}", tenants.text());
    server.shutdown();
}

#[test]
fn tenant_admin_routes_answer_their_documented_bodies() {
    let server = server();
    let addr = server.local_addr();
    let data = brandeis_cs();
    let text = write_registrar_file(&data.catalog, data.degree.as_ref(), data.horizon);
    let put = roundtrip(addr, "PUT", "/v1/catalogs/newdept", Some(&text)).expect("server answers");
    assert_eq!(put.status, 200, "{}", put.text());
    assert_eq!(
        put.text(),
        "{\"tenant\":\"newdept\",\"epoch\":1,\"swapped\":false,\"invalidated\":0}"
    );
    let inv = send(&server, "POST", "/v1/catalogs/newdept/invalidate", None);
    assert_eq!(inv.status, 200);
    assert_eq!(inv.text(), "{\"tenant\":\"newdept\",\"invalidated\":0}");
    // The new tenant serves advise requests addressed via x-tenant.
    let resp = roundtrip_with_headers(
        addr,
        "POST",
        "/v1/advise",
        &[("x-tenant", "newdept")],
        Some(&advise_request().to_json().unwrap()),
    )
    .expect("server answers");
    assert_eq!(resp.status, 200, "{}", resp.text());
    server.shutdown();
}

#[test]
fn snapshot_without_a_directory_is_a_typed_conflict() {
    let server = server();
    let resp = send(&server, "POST", "/v1/snapshot", None);
    assert_eq!(resp.status, 409, "{}", resp.text());
    assert!(
        resp.text().contains("\"code\":\"snapshot-disabled\""),
        "{}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn global_invalidate_carries_deprecation_headers() {
    let server = server();
    let resp = send(&server, "POST", "/v1/cache/invalidate", None);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("deprecation"), Some("true"));
    assert_eq!(resp.header("sunset"), Some(DEPRECATION_SUNSET));
    assert!(
        resp.text().contains("\"deprecated\":true"),
        "{}",
        resp.text()
    );
    let metrics = fetch_metrics(server.local_addr());
    let hits = metrics["deprecated-route-hits"].as_array().unwrap();
    let row = hits
        .iter()
        .find(|row| row["route"].as_str() == Some("/v1/cache/invalidate"))
        .expect("the deprecated v1 spelling is in the breakdown");
    assert_eq!(row["hits"].as_u64(), Some(1));
    server.shutdown();
}

#[test]
fn every_unprefixed_alias_redirects_with_deprecation_headers() {
    let server = server();
    // (path, natural method, a representative body) — 308 preserves the
    // method and body, so the redirect must arrive for POSTs with
    // payloads exactly as for bare GETs.
    let advise_body = advise_request().to_json().unwrap();
    let aliases: [(&str, &str, Option<&str>); 8] = [
        ("/explore", "POST", Some("{}")),
        ("/explore/stream", "POST", Some("{}")),
        ("/advise", "POST", Some(advise_body.as_str())),
        ("/advise/batch", "POST", Some(advise_body.as_str())),
        ("/catalog", "GET", None),
        ("/healthz", "GET", None),
        ("/metrics", "GET", None),
        ("/cache/invalidate", "POST", None),
    ];
    for (path, method, body) in aliases {
        let resp = send(&server, method, path, body);
        assert_eq!(resp.status, 308, "{method} {path}: {}", resp.text());
        assert_eq!(
            resp.header("location"),
            Some(format!("/v1{path}").as_str()),
            "{path}"
        );
        assert_eq!(resp.header("deprecation"), Some("true"), "{path}");
        assert_eq!(resp.header("sunset"), Some(DEPRECATION_SUNSET), "{path}");
    }
    // Redirects are method-agnostic: a GET against a POST-only alias
    // still learns the new home.
    let resp = send(&server, "GET", "/explore", None);
    assert_eq!(resp.status, 308);
    assert_eq!(resp.header("location"), Some("/v1/explore"));
    // Every alias hit is accounted in the metrics breakdown.
    let metrics = fetch_metrics(server.local_addr());
    let hits = metrics["deprecated-route-hits"].as_array().unwrap();
    for (path, _, _) in aliases {
        let row = hits
            .iter()
            .find(|row| row["route"].as_str() == Some(path))
            .unwrap_or_else(|| panic!("{path} missing from deprecated-route-hits"));
        assert!(row["hits"].as_u64().unwrap() >= 1, "{path}");
    }
    server.shutdown();
}

#[test]
fn wrong_methods_answer_405_with_allow() {
    let server = server();
    for (method, path, allow) in [
        ("GET", "/v1/explore", "POST"),
        ("GET", "/v1/explore/stream", "POST"),
        ("GET", "/v1/advise", "POST"),
        ("DELETE", "/v1/advise/batch", "POST"),
        ("GET", "/v1/whatif", "POST"),
        ("GET", "/v1/cache/invalidate", "POST"),
        ("GET", "/v1/snapshot", "POST"),
        ("POST", "/v1/catalog", "GET"),
        ("POST", "/v1/healthz", "GET"),
        ("POST", "/v1/metrics", "GET"),
        ("POST", "/v1/catalogs", "GET"),
        ("POST", "/v1/catalogs/default", "PUT"),
        ("GET", "/v1/catalogs/default/invalidate", "POST"),
    ] {
        let resp = send(&server, method, path, None);
        assert_eq!(resp.status, 405, "{method} {path}: {}", resp.text());
        assert_eq!(resp.header("allow"), Some(allow), "{method} {path}");
    }
    let resp = send(&server, "GET", "/nope", None);
    assert_eq!(resp.status, 404);
    server.shutdown();
}
