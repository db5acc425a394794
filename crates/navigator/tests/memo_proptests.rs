//! Property-based equivalence tests for the transposition table: for
//! every request shape the memoized engine must be *byte-identical* to
//! the plain one — counts, collected paths, ranked costs, statistics,
//! truncation flags — cold table, warm table, sequential or parallel,
//! unpaged or page-at-a-time.
//!
//! The table is an optimization with no license to approximate: a hit
//! splices cached subtree results (counts, suffix sets, top-k summaries)
//! into the answer exactly where exploration would have produced them.

use coursenav_catalog::{
    Catalog, CatalogBuilder, CourseId, CourseSpec, Semester, SyntheticCatalog, SyntheticConfig,
    Term,
};
use coursenav_navigator::{
    ExplorationCursor, ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService,
    OutputMode, PruneConfig, RankingSpec, ServiceError, TranspositionTable, WaitPolicy,
};
use proptest::prelude::*;

fn arb_goal() -> impl Strategy<Value = Option<GoalSpec>> {
    prop_oneof![
        Just(None),
        Just(Some(GoalSpec::Degree)),
        prop::collection::vec(0usize..12, 1..4).prop_map(|ids| {
            Some(GoalSpec::CompleteAll(
                ids.into_iter().map(|i| format!("CS {}", 10 + i)).collect(),
            ))
        }),
    ]
}

fn arb_ranking() -> impl Strategy<Value = RankingSpec> {
    let leaf = prop_oneof![
        Just(RankingSpec::Time),
        Just(RankingSpec::Workload),
        Just(RankingSpec::Reliability),
    ];
    leaf.prop_recursive(2, 6, 3, |inner| {
        prop::collection::vec((0.0f64..10.0, inner), 1..3).prop_map(RankingSpec::Weighted)
    })
}

fn arb_request() -> impl Strategy<Value = ExplorationRequest> {
    (
        0i32..3,   // start offset
        1i32..4,   // deadline offset beyond start
        1usize..4, // m
        arb_goal(),
        prop::option::of(arb_ranking()),
        prop_oneof![
            Just(OutputMode::Count),
            (1usize..30).prop_map(|limit| OutputMode::Collect { limit }),
            (1usize..10).prop_map(|k| OutputMode::TopK { k }),
        ],
        any::<bool>(), // no_prune
        any::<u8>(),   // wait policy selector
    )
        .prop_map(
            |(start_off, deadline_off, m, goal, ranking, output, no_prune, wait)| {
                let start = Semester::new(2012, Term::Fall) + start_off;
                ExplorationRequest {
                    start_semester: start,
                    completed: Vec::new(),
                    deadline: start + deadline_off,
                    max_per_semester: m,
                    goal,
                    avoid: Vec::new(),
                    max_semester_workload: None,
                    wait_policy: match wait % 3 {
                        0 => WaitPolicy::WhenNoOptions,
                        1 => WaitPolicy::Never,
                        _ => WaitPolicy::Always,
                    },
                    pruning: if no_prune {
                        PruneConfig::none()
                    } else {
                        PruneConfig::all()
                    },
                    ranking,
                    output,
                    budget_ms: None,
                    page_size: None,
                    cursor: None,
                    tenant: None,
                }
            },
        )
}

/// Serializes a response with its `millis` timing metadata zeroed, so two
/// responses can be compared byte-for-byte on their substantive content.
fn normalized_json(resp: &ExplorationResponse) -> String {
    fn zero_millis(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(pairs) => {
                for (key, v) in pairs.iter_mut() {
                    if key == "millis" {
                        *v = serde_json::Value::Num(serde_json::Number::U(0));
                    } else {
                        zero_millis(v);
                    }
                }
            }
            serde_json::Value::Array(items) => {
                for item in items.iter_mut() {
                    zero_millis(item);
                }
            }
            _ => {}
        }
    }
    let mut value = serde_json::to_value(resp);
    zero_millis(&mut value);
    serde_json::to_string(&value).expect("values serialize")
}

fn small_service(synth: &SyntheticCatalog) -> NavigatorService<'_> {
    service_over(&synth.catalog, synth)
}

/// A service over `catalog`, with `synth`'s degree and offering model.
fn service_over<'a>(catalog: &'a Catalog, synth: &'a SyntheticCatalog) -> NavigatorService<'a> {
    NavigatorService::new(catalog)
        .with_degree(&synth.degree)
        .with_offering_model(&synth.offering)
}

/// The small synthetic catalog rebuilt with its workloads rounded to
/// whole hours and every fourth course free. The generator's tenths do
/// not sum exactly, whole hours do, so the memo serves the workload
/// ranking here; the free courses make zero-cost edges, and the rounding
/// makes cost ties common.
fn whole_hour_catalog(synth: &SyntheticCatalog) -> Catalog {
    let catalog = &synth.catalog;
    let mut b = CatalogBuilder::new();
    for course in catalog.courses() {
        b.add_course(CourseSpec {
            code: course.code().clone(),
            title: course.title().to_string(),
            prereq: course
                .prereq()
                .map_atoms(&mut |id: &CourseId| catalog.course(*id).code().clone()),
            offered: course.offered().clone(),
            workload: if course.id().as_usize() % 4 == 0 {
                0.0
            } else {
                course.workload().round()
            },
        });
    }
    b.build().expect("the rebuilt catalog validates")
}

/// One page's shape: its path count, its `truncated` flag, and whether a
/// cursor followed it.
type PageShape = (usize, bool, bool);

/// Drives a paged exploration to completion. Returns the concatenation of
/// every page's paths (as JSON) plus the final page's normalized response
/// — the two views the memoized and plain runs must agree on — and every
/// page's shape. (Count page boundaries may legitimately differ: a bulk
/// memo hit delivers a whole subtree's leaves at once, so a memoized count
/// page can overshoot its nominal size.)
fn drive_pages(
    service: &NavigatorService<'_>,
    req: &ExplorationRequest,
    table: Option<&TranspositionTable>,
) -> Result<(String, String, Vec<PageShape>), ServiceError> {
    let mut cursor: Option<ExplorationCursor> = None;
    let mut all_paths: Vec<serde_json::Value> = Vec::new();
    let mut shapes: Vec<PageShape> = Vec::new();
    for _ in 0..10_000 {
        let outcome = service.run_page_memo(req, cursor.as_ref(), None, None, table)?;
        let len = match &outcome.response {
            ExplorationResponse::Paths { paths, .. } => {
                all_paths.extend(paths.iter().map(serde_json::to_value));
                paths.len()
            }
            ExplorationResponse::Ranked { paths, .. } => {
                all_paths.extend(paths.iter().map(serde_json::to_value));
                paths.len()
            }
            ExplorationResponse::Counts { .. } => 0,
        };
        shapes.push((len, outcome.response.truncated(), outcome.cursor.is_some()));
        let last = normalized_json(&outcome.response);
        match outcome.cursor {
            Some(next) => cursor = Some(next),
            None => return Ok((serde_json::to_string(&all_paths).unwrap(), last, shapes)),
        }
    }
    panic!("page loop failed to terminate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unpaged equivalence: for every request shape, the memoized service
    /// answer — cold table, then warm table, at any parallelism — is
    /// byte-identical to the plain sequential answer. Errors agree too.
    #[test]
    fn memoized_service_is_byte_identical(
        req in arb_request(),
        threads in 1usize..4,
    ) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = small_service(&synth);
        let table = TranspositionTable::new(1 << 14);
        let plain = service.run_until_memo(&req, None, 1, None);
        let cold = service.run_until_memo(&req, None, threads, Some(&table));
        let warm = service.run_until_memo(&req, None, threads, Some(&table));
        match (plain, cold, warm) {
            (Ok(p), Ok(c), Ok(w)) => {
                let p = normalized_json(&p);
                prop_assert_eq!(&p, &normalized_json(&c), "cold table diverged");
                prop_assert_eq!(&p, &normalized_json(&w), "warm table diverged");
            }
            (Err(p), Err(c), Err(w)) => {
                prop_assert_eq!(p.to_string(), c.to_string());
                prop_assert_eq!(w.to_string(), c.to_string());
            }
            (p, c, w) => {
                return Err(TestCaseError::fail(format!(
                    "plain/cold/warm disagree on success: {p:?} vs {c:?} vs {w:?}"
                )));
            }
        }
    }

    /// Paged equivalence: page splices through `run_page_memo` — count
    /// totals and statistics, collected paths, ranked paths — concatenate
    /// to exactly the plain paged answer, against one table shared (and
    /// progressively warmed) across the whole page sequence, then again
    /// fully warm. Goal-driven requests are also checked ranked by time
    /// with `k` past most goal-path counts, where the memoized top-k
    /// serves the ranked pages.
    #[test]
    fn memoized_pages_splice_identically(
        req in arb_request(),
        page_size in 1usize..6,
    ) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = small_service(&synth);
        let mut req = req;
        req.page_size = Some(page_size);
        pages_splice_identically(&service, &req)?;
        if req.goal.is_some() {
            req.output = OutputMode::TopK { k: 60 };
            req.ranking = Some(RankingSpec::Time);
            pages_splice_identically(&service, &req)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The workload ranking on whole hours, where the memo serves it: cold
    /// and warm answers, and pages through a shared table, are
    /// byte-identical to the table-free search, for `k` from one path to
    /// past most goal-path counts.
    #[test]
    fn memoized_workload_top_k_is_byte_identical_on_whole_hours(
        req in arb_request(),
        k in prop_oneof![Just(1usize), Just(3), Just(10), Just(200)],
        page_size in 1usize..6,
    ) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let catalog = whole_hour_catalog(&synth);
        prop_assert!(catalog.workload_sums_exact());
        let service = service_over(&catalog, &synth);
        let mut req = req;
        req.goal.get_or_insert(GoalSpec::Degree);
        req.ranking = Some(RankingSpec::Workload);
        req.output = OutputMode::TopK { k };
        let table = TranspositionTable::new(1 << 14);
        let plain = service.run_until_memo(&req, None, 1, None);
        let cold = service.run_until_memo(&req, None, 1, Some(&table));
        let warm = service.run_until_memo(&req, None, 1, Some(&table));
        match (plain, cold, warm) {
            (Ok(p), Ok(c), Ok(w)) => {
                // A path that leaves the root was merged at an expanded
                // root, which the memo stores: the table served the query.
                if let ExplorationResponse::Ranked { paths, .. } = &p {
                    if paths.iter().any(|ranked| !ranked.path.selections().is_empty()) {
                        prop_assert!(table.snapshot().inserts > 0, "the memo was bypassed");
                    }
                }
                let p = normalized_json(&p);
                prop_assert_eq!(&p, &normalized_json(&c), "cold table diverged");
                prop_assert_eq!(&p, &normalized_json(&w), "warm table diverged");
            }
            (Err(p), Err(c), Err(w)) => {
                prop_assert_eq!(p.to_string(), c.to_string());
                prop_assert_eq!(w.to_string(), c.to_string());
            }
            (p, c, w) => {
                return Err(TestCaseError::fail(format!(
                    "plain/cold/warm disagree on success: {p:?} vs {c:?} vs {w:?}"
                )));
            }
        }
        req.page_size = Some(page_size);
        pages_splice_identically(&service, &req)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One table answers a sequence of top-k requests that differ only in
    /// `k`, by time and by workload on whole hours: a summary computed for
    /// a larger `k`, or a complete one, answers a smaller `k`, and a
    /// larger `k` recomputes. Every answer is byte-identical to the
    /// table-free search's.
    #[test]
    fn one_table_answers_any_sequence_of_k(
        req in arb_request(),
        workload in any::<bool>(),
        ks in prop::collection::vec(1usize..40, 1..6),
    ) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let catalog = whole_hour_catalog(&synth);
        let service = service_over(&catalog, &synth);
        let mut req = req;
        req.goal.get_or_insert(GoalSpec::Degree);
        req.ranking = Some(if workload { RankingSpec::Workload } else { RankingSpec::Time });
        let table = TranspositionTable::new(1 << 14);
        for k in ks {
            req.output = OutputMode::TopK { k };
            let plain = service.run_until_memo(&req, None, 1, None);
            let memo = service.run_until_memo(&req, None, 1, Some(&table));
            match (plain, memo) {
                (Ok(p), Ok(m)) => {
                    prop_assert_eq!(normalized_json(&p), normalized_json(&m), "k={}", k);
                }
                (Err(p), Err(m)) => prop_assert_eq!(p.to_string(), m.to_string()),
                (p, m) => {
                    return Err(TestCaseError::fail(format!(
                        "plain/memo disagree on success at k={k}: {p:?} vs {m:?}"
                    )));
                }
            }
        }
    }
}

/// On the generator's tenths the workload sums are inexact, so the
/// workload top-k never reads or fills the table: it inserts no ranked
/// entry and answers exactly as the search does.
#[test]
fn tenths_catalog_keeps_the_workload_top_k_off_the_table() {
    let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
    assert!(!synth.catalog.workload_sums_exact());
    let service = small_service(&synth);
    let start = Semester::new(2012, Term::Fall);
    let mut req = ExplorationRequest::degree_paths(start, start + 4, 2, OutputMode::TopK { k: 10 });
    req.ranking = Some(RankingSpec::Workload);
    let table = TranspositionTable::new(1 << 14);
    let plain = service.run_until_memo(&req, None, 1, None).unwrap();
    let memo = service.run_until_memo(&req, None, 1, Some(&table)).unwrap();
    assert_eq!(normalized_json(&memo), normalized_json(&plain));
    assert!(matches!(&plain, ExplorationResponse::Ranked { paths, .. } if !paths.is_empty()));
    assert_eq!(table.snapshot().inserts, 0, "no ranked entry inserted");
    // The same frame by time does go through the table.
    req.ranking = Some(RankingSpec::Time);
    service.run_until_memo(&req, None, 1, Some(&table)).unwrap();
    assert!(table.snapshot().inserts > 0);
}

/// Pages `req` plain, through a cold table, and through the warmed table,
/// and checks the three runs agree.
fn pages_splice_identically(
    service: &NavigatorService<'_>,
    req: &ExplorationRequest,
) -> Result<(), TestCaseError> {
    let table = TranspositionTable::new(1 << 14);
    let plain = drive_pages(service, req, None);
    let cold = drive_pages(service, req, Some(&table));
    let warm = drive_pages(service, req, Some(&table));
    match (plain, cold, warm) {
        (
            Ok((p_paths, p_last, p_pages)),
            Ok((c_paths, c_last, c_pages)),
            Ok((w_paths, w_last, w_pages)),
        ) => {
            prop_assert_eq!(&p_paths, &c_paths, "cold paged paths diverged");
            prop_assert_eq!(&p_paths, &w_paths, "warm paged paths diverged");
            // The final page carries the cumulative counts and logical
            // statistics; they must match however the pages split.
            if matches!(req.output, OutputMode::Count) {
                prop_assert_eq!(&p_last, &c_last, "cold count summary diverged");
                prop_assert_eq!(&p_last, &w_last, "warm count summary diverged");
            }
            // Ranked pages split identically however they are served:
            // the plain search knows when the last path has been
            // delivered, so it never promises a trailing empty page.
            if matches!(req.output, OutputMode::TopK { .. }) {
                prop_assert_eq!(&p_pages, &c_pages, "cold ranked pages split differently");
                prop_assert_eq!(&p_pages, &w_pages, "warm ranked pages split differently");
            }
        }
        (Err(p), Err(c), Err(w)) => {
            prop_assert_eq!(p.to_string(), c.to_string());
            prop_assert_eq!(w.to_string(), c.to_string());
        }
        (p, c, w) => {
            return Err(TestCaseError::fail(format!(
                "plain/cold/warm paging disagree on success: {p:?} vs {c:?} vs {w:?}"
            )));
        }
    }
    Ok(())
}
