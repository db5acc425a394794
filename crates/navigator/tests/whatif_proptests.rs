//! Equivalence suite for the what-if apply engine: a delta answered from
//! the shared hash-consed path DAG must be byte-identical to brute-force
//! re-exploration of the modified request — cold and warm, sequential
//! and parallel. Timing metadata aside, shared structure may change
//! latency, never bytes.

use coursenav_catalog::{CourseCode, SyntheticCatalog, SyntheticConfig};
use coursenav_navigator::{
    ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService, OutputMode, UniqueTable,
    WhatIfDelta, WhatIfRequest, WhatIfServed,
};
use proptest::prelude::*;

fn synth() -> SyntheticCatalog {
    SyntheticCatalog::generate(&SyntheticConfig::small())
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

/// Like [`normalized_json`] but with the `stats` block zeroed too: engine
/// effort statistics describe the serving strategy actually used (an
/// apply answer reports the restricted DAG's structure, a re-exploration
/// its DFS effort), so only the answer fields are comparable across
/// strategies.
fn answer_json(resp: &ExplorationResponse) -> String {
    fn drop_stats(value: &mut serde_json::Value) {
        if let serde_json::Value::Object(pairs) = value {
            for (key, v) in pairs.iter_mut() {
                if key == "stats" || key == "millis" {
                    *v = serde_json::Value::Null;
                } else {
                    drop_stats(v);
                }
            }
        }
    }
    let mut value = serde_json::to_value(resp);
    drop_stats(&mut value);
    serde_json::to_string(&value).expect("values serialize")
}

/// A base count request over the synthetic catalog, small enough that the
/// path DAG builds in milliseconds in debug.
fn arb_base(s: &SyntheticCatalog) -> impl Strategy<Value = ExplorationRequest> {
    let start = s.start;
    (2i32..5, 1usize..3, any::<bool>()).prop_map(move |(deadline_off, m, degree_goal)| {
        let mut req = ExplorationRequest::deadline_count(start, start + deadline_off, m);
        if degree_goal {
            req.goal = Some(GoalSpec::Degree);
        }
        req
    })
}

/// A restriction-only delta (no forced courses) drawn from the catalog's
/// own course codes, so every code resolves.
fn arb_delta(s: &SyntheticCatalog) -> impl Strategy<Value = WhatIfDelta> {
    let pool: Vec<String> = s.catalog.courses().map(|c| c.code().to_string()).collect();
    let n = pool.len();
    (
        prop::collection::vec(0usize..n, 0..3),
        prop::option::of(5.0f64..40.0),
    )
        .prop_map(move |(avoid, cap)| WhatIfDelta {
            avoid: avoid.iter().map(|&i| pool[i].clone()).collect(),
            force: Vec::new(),
            max_semester_workload: cap,
        })
}

fn service(s: &SyntheticCatalog) -> NavigatorService<'_> {
    NavigatorService::new(&s.catalog)
        .with_degree(&s.degree)
        .with_offering_model(&s.offering)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold apply (request-local table) answers every restriction delta
    /// byte-identically to re-exploring the merged request from scratch.
    #[test]
    fn apply_is_byte_identical_to_reexploration(
        base in arb_base(&synth()),
        delta in arb_delta(&synth()),
    ) {
        let s = synth();
        let service = service(&s);
        let req = WhatIfRequest { base, transcript: None, delta };
        let outcome = service.whatif_until(&req, None, 1, None, None).unwrap();
        prop_assert_eq!(outcome.served, WhatIfServed::Applied);
        let brute = service.run(&req.merged_request()).unwrap();
        prop_assert_eq!(answer_json(&outcome.response), answer_json(&brute));
    }

    /// A warm shared table gives the same bytes as a cold one: the second
    /// question reuses the base root (a root-cache hit, no rebuild) and
    /// still matches brute force exactly.
    #[test]
    fn warm_table_answers_match_cold_and_brute_force(
        base in arb_base(&synth()),
        delta in arb_delta(&synth()),
    ) {
        let s = synth();
        let service = service(&s);
        let table = UniqueTable::new(0);
        let baseline = WhatIfRequest {
            base: base.clone(),
            transcript: None,
            delta: WhatIfDelta::default(),
        };
        let req = WhatIfRequest { base, transcript: None, delta };
        // The baseline builds the DAG; the delta is answered from it.
        service.whatif_until(&baseline, None, 1, None, Some(&table)).unwrap();
        let warm = service.whatif_until(&req, None, 1, None, Some(&table)).unwrap();
        prop_assert!(table.snapshot().root_hits >= 1, "warm call reuses the cached root");
        let cold = service.whatif_until(&req, None, 1, None, None).unwrap();
        prop_assert_eq!(
            normalized_json(&warm.response),
            normalized_json(&cold.response)
        );
        let brute = service.run(&req.merged_request()).unwrap();
        prop_assert_eq!(answer_json(&warm.response), answer_json(&brute));
        // Asking again is pure cache: identical bytes once more.
        let again = service.whatif_until(&req, None, 1, None, Some(&table)).unwrap();
        prop_assert_eq!(
            normalized_json(&again.response),
            normalized_json(&warm.response)
        );
    }

    /// Non-count outputs fall back to ordinary exploration of the merged
    /// request, and the fallback is byte-identical sequential vs parallel
    /// and against a direct run.
    #[test]
    fn explored_fallback_is_byte_identical_across_parallelism(
        base in arb_base(&synth()),
        delta in arb_delta(&synth()),
        limit in 1usize..20,
    ) {
        let s = synth();
        let service = service(&s);
        let mut base = base;
        base.output = OutputMode::Collect { limit };
        let req = WhatIfRequest { base, transcript: None, delta };
        let seq = service.whatif_until(&req, None, 1, None, None).unwrap();
        let par = service.whatif_until(&req, None, 2, None, None).unwrap();
        prop_assert_eq!(seq.served, WhatIfServed::Explored);
        prop_assert_eq!(par.served, WhatIfServed::Explored);
        prop_assert_eq!(normalized_json(&seq.response), normalized_json(&par.response));
        let direct = service.run_until_memo(&req.merged_request(), None, 1, None).unwrap();
        prop_assert_eq!(normalized_json(&seq.response), normalized_json(&direct));
    }

    /// Forced courses — inexpressible as a request — agree with filtering
    /// a full path collection for paths taking all of them.
    #[test]
    fn forced_counts_match_filtered_collection(
        base in arb_base(&synth()),
        delta in arb_delta(&synth()),
        force in prop::collection::vec(0usize..8, 1..3),
    ) {
        let s = synth();
        let service = service(&s);
        let pool: Vec<String> = s.catalog.courses().map(|c| c.code().to_string()).collect();
        let mut delta = delta;
        delta.force = force.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let req = WhatIfRequest { base, transcript: None, delta };
        let outcome = service.whatif_until(&req, None, 1, None, None).unwrap();
        prop_assert_eq!(outcome.served, WhatIfServed::Applied);
        let ExplorationResponse::Counts { total_paths, goal_paths, .. } = outcome.response else {
            return Err(TestCaseError::fail("count what-ifs answer counts"));
        };
        prop_assert!(goal_paths <= total_paths);

        let forced: Vec<_> = req
            .delta
            .force
            .iter()
            .map(|code| s.catalog.id_of(&CourseCode::new(code)).unwrap())
            .collect();
        let mut collect = req.merged_request();
        collect.output = OutputMode::Collect { limit: 500_000 };
        let ExplorationResponse::Paths { paths, truncated, .. } =
            service.run(&collect).unwrap()
        else {
            return Err(TestCaseError::fail("collect requests answer paths"));
        };
        prop_assert!(!truncated, "brute force must see every path");
        let expected = paths
            .iter()
            .filter(|p| {
                let taken = p.courses_taken();
                forced.iter().all(|&id| taken.contains(id))
            })
            .count() as u128;
        // With a goal, `Collect` gathers only goal-satisfying paths, so
        // the filtered collection is the forced *goal* count.
        let got = if req.base.goal.is_some() {
            goal_paths
        } else {
            total_paths
        };
        prop_assert_eq!(got, expected);
    }
}
