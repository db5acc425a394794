//! Cohort advising determinism: a shared transposition table is a
//! latency optimization, never an answer change.
//!
//! The batch route amortizes one `(tenant, epoch)` memo table across a
//! cohort — every student's derived exploration shares a memo key, so
//! student 1's subtree summaries answer student 2's overlapping
//! suffixes. The invariant proptested here is the one the serving layer
//! stakes its correctness on: each student's advising answer, serialized
//! to wire bytes, is identical whether it was computed against a fresh
//! private table (cold isolation) or against the table every previous
//! student already warmed — and the shared table really is warm
//! (`memo_hits > 0`), so the equality is not vacuous.

use std::collections::HashMap;

use coursenavigator::navigator::{
    BatchAdviseRequest, ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService,
    OutputMode, RankingSpec, TranscriptSpec, TranspositionTable,
};
use coursenavigator::registrar::{brandeis_cs, RegistrarData};
use coursenavigator::transcript::{
    GreedyCorePolicy, RandomValidPolicy, Transcript, TranscriptSimulator,
};
use proptest::prelude::*;

/// Simulates a cohort of students and cuts each transcript to `prefix`
/// semesters — students mid-degree, the advising workload's population.
/// Greedy-biased (three greedy, one random elective-wanderer): advising
/// cohorts are mostly students on track, and greedy prefixes keep the
/// degree goal reachable inside the catalog horizon.
fn cohort(data: &RegistrarData, seeds: &[u64], prefix: usize) -> Vec<TranscriptSpec> {
    let degree = data.degree.as_ref().expect("sample declares a degree");
    let sim = TranscriptSimulator::new(&data.catalog, degree, data.horizon.0, data.horizon.1, 3);
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let t = if i == seeds.len() - 1 {
                sim.simulate(&RandomValidPolicy, seed)
            } else {
                sim.simulate(&GreedyCorePolicy, seed)
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

/// The tightest deadline that keeps the degree reachable for the
/// on-track majority: enough selection semesters (at 3 courses each) to
/// cover the worst remaining-slot count among the *greedy* students,
/// with a floor of three semesters so different course orderings can
/// converge on shared subtree states. The random straggler is excluded
/// from the sizing — a deadline stretched to save it would hand the
/// on-track students an exponentially slack window — so it may simply
/// get an empty (goal-unreachable) answer, which the determinism
/// assertion covers all the same. Clamped to the catalog horizon.
fn feasible_deadline(
    data: &RegistrarData,
    students: &[TranscriptSpec],
    prefix: usize,
) -> coursenavigator::catalog::Semester {
    let degree = data.degree.as_ref().expect("sample declares a degree");
    let on_track = &students[..students.len() - 1];
    let max_remaining = on_track
        .iter()
        .map(|s| {
            let t = Transcript::from_codes(&data.catalog, s.start, &s.selections)
                .expect("simulated transcripts replay");
            degree.progress(&t.completed()).slots_remaining()
        })
        .max()
        .unwrap_or(0);
    let semesters = max_remaining.div_ceil(3).max(3) as i32;
    let deadline = data.horizon.0 + (prefix as i32 + semesters);
    if deadline > data.horizon.1 {
        data.horizon.1
    } else {
        deadline
    }
}

fn batch(data: &RegistrarData, students: Vec<TranscriptSpec>, prefix: usize) -> BatchAdviseRequest {
    let deadline = feasible_deadline(data, &students, prefix);
    BatchAdviseRequest {
        students,
        interests: None,
        deadline,
        max_per_semester: None,
        goal: Some(GoalSpec::Degree),
        k: Some(3),
        budget_ms: None,
        tenant: None,
    }
}

fn service(data: &RegistrarData) -> NavigatorService<'_> {
    let mut service = NavigatorService::new(&data.catalog);
    if let Some(degree) = &data.degree {
        service = service.with_degree(degree);
    }
    if let Some(offering) = &data.offering {
        service = service.with_offering_model(offering);
    }
    service
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn shared_table_answers_match_cold_isolation_byte_for_byte(
        seed in any::<u64>(),
        // Prefixes 1–2 keep the slack (deadline slots minus remaining
        // requirement) small: deeper prefixes leave greedy students
        // almost done, and the three-semester floor would hand them an
        // exponentially slacker window.
        prefix in 1usize..3,
    ) {
        let data = brandeis_cs();
        let seeds: Vec<u64> = (0..4).map(|i| seed.wrapping_add(i * 7919)).collect();
        let students = cohort(&data, &seeds, prefix);
        let req = batch(&data, students, prefix);
        let service = service(&data);

        // Cold isolation: every student against a fresh private table.
        let cold: Vec<String> = (0..req.students.len())
            .map(|i| {
                let table = TranspositionTable::new(1 << 14);
                let outcome = service
                    .advise_until_memo(&req.student(i), None, None, 1, Some(&table))
                    .expect("cold advising succeeds");
                serde_json::to_string(&outcome.response).expect("serializes")
            })
            .collect();

        // The cohort path: one shared table warmed across students.
        let shared = TranspositionTable::new(1 << 14);
        let warm: Vec<String> = (0..req.students.len())
            .map(|i| {
                let outcome = service
                    .advise_until_memo(&req.student(i), None, None, 1, Some(&shared))
                    .expect("warm advising succeeds");
                serde_json::to_string(&outcome.response).expect("serializes")
            })
            .collect();

        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            prop_assert_eq!(c, w, "student {} diverged under the shared table", i);
        }
        // The equality above must not be vacuous: the shared table was
        // consulted, not just populated.
        let stats = shared.snapshot();
        prop_assert!(
            stats.hits > 0,
            "cohort of {} shared no subtrees (misses={})",
            req.students.len(),
            stats.misses
        );
    }
}

/// The deterministic anchor for the proptest above: a fixed cohort whose
/// advising window is known-feasible produces real recommendations, real
/// completions, and a genuinely warm shared table.
#[test]
fn fixed_cohort_is_feasible_and_warms_the_table() {
    let data = brandeis_cs();
    let seeds: Vec<u64> = (0..4).collect();
    let students = cohort(&data, &seeds, 2);
    let req = batch(&data, students, 2);
    let service = service(&data);
    let shared = TranspositionTable::new(1 << 14);
    let mut answered = 0usize;
    for i in 0..req.students.len() {
        let outcome = service
            .advise_until_memo(&req.student(i), None, None, 1, Some(&shared))
            .expect("advising succeeds");
        if !outcome.response.recommendations.is_empty() {
            answered += 1;
        }
    }
    assert!(answered >= 3, "greedy students get recommendations");
    let stats = shared.snapshot();
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.inserts > 0, "{stats:?}");
}

/// A ranked response's wire bytes without its timing.
fn ranked_bytes(response: &ExplorationResponse) -> String {
    match response {
        ExplorationResponse::Ranked {
            ranking,
            paths,
            truncated,
            ..
        } => format!(
            "{ranking} {truncated} {}",
            serde_json::to_string(paths).expect("serializes")
        ),
        other => panic!("top-k answers ranked, got {other:?}"),
    }
}

/// The top-k frames of an advising session: a student one or two
/// semesters in plans three more and asks for the ten fastest and the
/// five lightest completions. The bundled catalog's workloads are whole
/// hours, so both rankings are memoized; every answer, cold or warm
/// against the table its frame shares with the rest of the cohort, is
/// byte-identical to the un-memoized search's.
#[test]
fn advise_session_top_k_frames_match_the_search() {
    let data = brandeis_cs();
    assert!(data.catalog.workload_sums_exact());
    let service = service(&data);
    let seeds: Vec<u64> = (0..6).collect();
    let mut tables: HashMap<String, TranspositionTable> = HashMap::new();
    let (mut answered, mut workload_inserts) = (0usize, 0u64);
    for pass in 0..2 {
        for prefix in [1usize, 2] {
            for student in cohort(&data, &seeds, prefix) {
                let start = student.next_semester();
                for (ranking, k) in [(RankingSpec::Time, 10), (RankingSpec::Workload, 5)] {
                    let mut req = ExplorationRequest::degree_paths(
                        start,
                        start + 3,
                        3,
                        OutputMode::TopK { k },
                    );
                    req.completed = student.completed_codes();
                    req.ranking = Some(ranking.clone());
                    let table = tables
                        .entry(req.memo_key())
                        .or_insert_with(|| TranspositionTable::new(1 << 16));
                    let before = table.snapshot().inserts;
                    let memo = service
                        .run_until_memo(&req, None, 1, Some(table))
                        .expect("memoized top-k answers");
                    if ranking == RankingSpec::Workload {
                        workload_inserts += table.snapshot().inserts - before;
                    }
                    let plain = service
                        .run_until_memo(&req, None, 1, None)
                        .expect("the search answers");
                    assert_eq!(
                        ranked_bytes(&memo),
                        ranked_bytes(&plain),
                        "pass {pass}, {student:?}, {ranking:?}"
                    );
                    if let ExplorationResponse::Ranked { paths, .. } = &plain {
                        answered += usize::from(!paths.is_empty());
                    }
                }
            }
        }
    }
    assert!(answered >= 12, "most frames have completions: {answered}");
    assert!(
        workload_inserts > 0,
        "the workload top-k went through the table"
    );
}

/// One student's session on a shared table: a count, the ten fastest
/// completions, then advice with the three fastest. The top-10 left a
/// summary at every state the advice's top-3 reaches, so the advice adds
/// no memo miss, and it is byte-identical to advice without a table.
#[test]
fn advice_after_a_top_10_reads_its_summaries() {
    let data = brandeis_cs();
    let service = service(&data);
    let seeds: Vec<u64> = (0..2).collect();
    let advise = batch(&data, cohort(&data, &seeds, 2), 2).student(0);
    assert_eq!(advise.k(), 3);
    let derived = advise.to_exploration();
    let shared = TranspositionTable::new(1 << 16);
    for output in [OutputMode::Count, OutputMode::TopK { k: 10 }] {
        let mut req = derived.clone();
        req.output = output;
        assert_eq!(req.memo_key(), derived.memo_key());
        service
            .run_until_memo(&req, None, 1, Some(&shared))
            .expect("the session's exploration answers");
    }
    let before = shared.snapshot();
    let warm = service
        .advise_until_memo(&advise, None, None, 1, Some(&shared))
        .expect("warm advising succeeds");
    let after = shared.snapshot();
    let alone = service
        .advise_until_memo(&advise, None, None, 1, None)
        .expect("table-free advising succeeds");
    assert!(!warm.response.completions.is_empty(), "{warm:?}");
    assert_eq!(
        serde_json::to_string(&warm.response).expect("serializes"),
        serde_json::to_string(&alone.response).expect("serializes")
    );
    assert_eq!(after.misses, before.misses, "{before:?} -> {after:?}");
    assert!(after.hits > before.hits, "{before:?} -> {after:?}");
}
