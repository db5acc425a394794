//! Property-based tests for resumable exploration sessions.
//!
//! The contract under test (the PR's tentpole): serving an exploration in
//! pages — serializing the cursor to JSON between every page, as the
//! session store does — must be *exact*. Concatenated pages are
//! byte-identical to the unpaged answer for every `OutputMode`, and a
//! tampered cursor is rejected with an error, never a panic.

use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
use coursenav_navigator::{
    ExplorationCursor, ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService,
    OutputMode, RankingSpec, ServiceError,
};
use proptest::prelude::*;

fn arb_paged_request() -> impl Strategy<Value = ExplorationRequest> {
    (
        1i32..=4,  // deadline offset
        1usize..4, // m
        any::<bool>(),
        prop_oneof![
            Just(OutputMode::Count),
            (1usize..40).prop_map(|limit| OutputMode::Collect { limit }),
            (1usize..12).prop_map(|k| OutputMode::TopK { k }),
        ],
        1usize..9, // page size
    )
        .prop_map(|(deadline_off, m, with_goal, output, page_size)| {
            let synth_start = SyntheticCatalog::generate(&SyntheticConfig::small()).start;
            let mut req =
                ExplorationRequest::deadline_count(synth_start, synth_start + deadline_off, m);
            // Top-k needs a goal and a ranking; collect/count exercise both
            // goal-driven and deadline-driven exploration.
            if with_goal || matches!(output, OutputMode::TopK { .. }) {
                req.goal = Some(GoalSpec::Degree);
            }
            if matches!(output, OutputMode::TopK { .. }) {
                req.ranking = Some(RankingSpec::Time);
            }
            req.output = output;
            req.page_size = Some(page_size);
            req
        })
}

/// Runs `req` page by page, forcing every cursor through its JSON wire
/// format (and asserting the round-trip is lossless) before resuming.
fn run_paged(
    service: &NavigatorService<'_>,
    req: &ExplorationRequest,
) -> Result<Vec<ExplorationResponse>, TestCaseError> {
    let mut pages = Vec::new();
    let mut cursor: Option<ExplorationCursor> = None;
    loop {
        let outcome = service
            .run_page_memo(req, cursor.as_ref(), None, None, None)
            .map_err(|e| TestCaseError::fail(format!("page failed: {e}")))?;
        pages.push(outcome.response);
        prop_assert!(pages.len() < 5_000, "paging must terminate");
        match outcome.cursor {
            Some(next) => {
                let json = next.to_json();
                let back = ExplorationCursor::from_json(&json)
                    .map_err(|e| TestCaseError::fail(format!("cursor reparse failed: {e}")))?;
                prop_assert_eq!(&back, &next, "cursor JSON round-trip must be lossless");
                cursor = Some(back);
            }
            None => return Ok(pages),
        }
    }
}

/// Serializes a response with `millis` zeroed so content compares
/// byte-for-byte.
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

/// Splices the paths of every page into `unpaged`'s shape, so the paged
/// run can be compared byte-for-byte against the unpaged response body.
fn splice_pages(
    unpaged: &ExplorationResponse,
    pages: &[ExplorationResponse],
) -> ExplorationResponse {
    let mut merged = unpaged.clone();
    match &mut merged {
        ExplorationResponse::Counts { .. } => {
            // Counts are cumulative: the last page *is* the whole answer.
            merged = pages.last().expect("at least one page").clone();
        }
        ExplorationResponse::Paths { paths, .. } => {
            *paths = pages
                .iter()
                .flat_map(|p| match p {
                    ExplorationResponse::Paths { paths, .. } => paths.clone(),
                    other => panic!("expected Paths, got {other:?}"),
                })
                .collect();
        }
        ExplorationResponse::Ranked { paths, .. } => {
            *paths = pages
                .iter()
                .flat_map(|p| match p {
                    ExplorationResponse::Ranked { paths, .. } => paths.clone(),
                    other => panic!("expected Ranked, got {other:?}"),
                })
                .collect();
        }
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole property: for every output mode, fetching an exploration
    /// page by page — cursor serialized and reparsed between pages — is
    /// byte-identical to one unpaged run. Collected and ranked paths
    /// concatenate to the same slice in the same order; count pages
    /// accumulate to the same totals and stats; the final page's
    /// truncation flag matches the unpaged one.
    #[test]
    fn pages_concatenate_to_the_unpaged_response(req in arb_paged_request()) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut unpaged_req = req.clone();
        unpaged_req.page_size = None;
        let unpaged = service
            .run(&unpaged_req)
            .map_err(|e| TestCaseError::fail(format!("unpaged run failed: {e}")))?;
        let pages = run_paged(&service, &req)?;
        let spliced = splice_pages(&unpaged, &pages);
        prop_assert_eq!(normalized_json(&spliced), normalized_json(&unpaged));
        prop_assert_eq!(pages.last().unwrap().truncated(), unpaged.truncated());
        for page in &pages[..pages.len() - 1] {
            prop_assert!(page.truncated(), "non-final pages are marked truncated");
        }
    }

    /// A tampered cursor never panics the service: it either fails with a
    /// typed error (`InvalidCursor` for structural damage) or — when the
    /// mutation happens to describe a still-reachable frontier — serves a
    /// well-formed page.
    #[test]
    fn tampered_cursors_never_panic(
        req in arb_paged_request(),
        mutation in 0u8..6,
        tweak in any::<u32>(),
    ) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let outcome = service
            .run_page_memo(&req, None, None, None, None)
            .map_err(|e| TestCaseError::fail(format!("first page failed: {e}")))?;
        let Some(mut cursor) = outcome.cursor else {
            // Single-page exploration: nothing to tamper with.
            return Ok(());
        };
        match mutation {
            0 => cursor.fingerprint = format!("tampered-{tweak}"),
            1 => cursor.emitted = cursor.emitted.wrapping_add(u64::from(tweak) + 1),
            2 => cursor.frontier = None,
            3 => {
                if let Some(frontier) = &mut cursor.frontier {
                    if let Some(frame) = frontier.frames.first_mut() {
                        frame.iter.indices = vec![tweak % 64, tweak % 64];
                    }
                }
            }
            4 => {
                if let Some(frontier) = &mut cursor.frontier {
                    frontier.selections.push(coursenav_catalog::CourseSet::EMPTY);
                }
            }
            _ => {
                if let Some(frontier) = &mut cursor.frontier {
                    frontier.fresh = true;
                }
            }
        }
        // The call must return, not panic; a changed fingerprint is
        // always a typed rejection.
        let result = service.run_page_memo(&req, Some(&cursor), None, None, None);
        if mutation == 0 {
            prop_assert!(matches!(result, Err(ServiceError::InvalidCursor(_))));
        }
    }
}
