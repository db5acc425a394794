//! Shared setup for the CourseNavigator benchmark harness.
//!
//! One module per experiment lives in `src/bin/` (table-printing binaries)
//! and `benches/` (Criterion microbenchmarks); this library holds the
//! workload constructors and formatting helpers they share. The experiment
//! ↔ binary mapping is in DESIGN.md §4; measured-vs-paper numbers are
//! recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use coursenav_catalog::{Semester, SyntheticCatalog, SyntheticConfig};
use coursenav_navigator::{
    EnrollmentStatus, Explorer, Goal, PathCounts, PruneConfig, RankedPath, TimeRanking,
    TranspositionTable,
};
use coursenav_registrar::{brandeis_cs, RegistrarData};

/// The paper's experimental constants (§5.1): students start with no CS
/// courses and take at most 3 courses per semester.
pub const PAPER_M: usize = 3;

/// The evaluation instance: the bundled Brandeis-like 38-course catalog.
pub fn paper_instance() -> RegistrarData {
    brandeis_cs()
}

/// A synthetic paper-shaped instance with a longer schedule horizon, used
/// where an experiment needs more semesters than the bundled catalog covers
/// (Figure 4 explores up to 8 semesters).
pub fn synthetic_instance(schedule_semesters: usize) -> SyntheticCatalog {
    SyntheticCatalog::generate(&SyntheticConfig {
        schedule_semesters,
        ..SyntheticConfig::default()
    })
}

/// The sparse paper-shaped instance (registrar-like branching factor;
/// see `SyntheticConfig::sparse`). Figure 4 runs on this one — on the
/// dense instance the 5-semester tree alone has ~4×10⁸ paths, two orders
/// of magnitude past the paper's own dataset.
pub fn sparse_instance(schedule_semesters: usize) -> SyntheticCatalog {
    SyntheticCatalog::generate(&SyntheticConfig {
        schedule_semesters,
        ..SyntheticConfig::sparse()
    })
}

/// Builds the goal-driven explorer of the paper's §5.1 configuration over
/// the bundled catalog: fresh student, CS-major goal, deadline `semesters`
/// selection semesters ahead of the period start (deadline = start + n —
/// the paper's "n semesters" counts transitions: its §5.2 period
/// Fall '12 → Fall '15 is the "6 semesters" row of Table 2).
pub fn paper_goal_explorer(
    data: &RegistrarData,
    semesters: i32,
    prune: PruneConfig,
) -> Explorer<'_> {
    let degree = data
        .degree
        .clone()
        .expect("bundled catalog declares the CS major");
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    Explorer::goal_driven(
        &data.catalog,
        start,
        data.horizon.0 + semesters,
        PAPER_M,
        Goal::degree(degree),
    )
    .expect("valid request")
    .with_prune(prune)
}

/// Transposition-table entries of the paper-artifact counts: enough that
/// the six-semester goal-driven count runs cold without evicting.
pub const PAPER_MEMO_ENTRIES: usize = 1 << 22;

/// Table 2's goal column, pinned: `(semesters, paths surviving pruning,
/// goal paths)`. `cargo test` checks the four- and five-semester rows; the
/// `containment` binary, a release `ci.sh` step, checks the six-semester
/// row, which is also its full-period count. The seven-semester row is a
/// manual run (see `table2`).
pub const TABLE2_GOAL_GOLDENS: &[(i32, u128, u128)] = &[
    (4, 608, 98),
    (5, 3_180_719, 1_037_851),
    (6, 1_298_609_910, 331_657_034),
];

/// Table 2's goal-driven count at `semesters`: the §5.1 explorer with both
/// pruning strategies, counted through a cold transposition table of at
/// most `memo_entries` entries.
pub fn table2_goal_count(data: &RegistrarData, semesters: i32, memo_entries: usize) -> PathCounts {
    let explorer = paper_goal_explorer(data, semesters, PruneConfig::all());
    explorer
        .count_paths_memo(&TranspositionTable::new(memo_entries))
        .0
}

/// Figure 4's cells, pinned in the figure's row order: `(k, period in
/// semesters, paths returned, the last path's cost)`, each the
/// [`fig4_cell`] of the sparse eight-semester instance. `cargo test` checks
/// the fastest cell, k = 10 over six semesters (about a second in a debug
/// build; every other cell takes longer); the `fig4` binary checks every
/// cell.
pub const FIG4_GOLDENS: &[(usize, i32, usize, f64)] = &[
    (10, 6, 10, 5.0),
    (10, 7, 10, 5.0),
    (10, 8, 10, 5.0),
    (100, 6, 100, 5.0),
    (100, 7, 100, 5.0),
    (100, 8, 100, 5.0),
    (500, 6, 500, 5.0),
    (500, 7, 500, 5.0),
    (500, 8, 500, 5.0),
    (1000, 6, 1000, 5.0),
    (1000, 7, 1000, 5.0),
    (1000, 8, 1000, 5.0),
];

/// One Figure 4 cell: the `k` best goal paths under time-based ranking over
/// a `period`-semester horizon of `synth` (the sparse eight-semester
/// instance in the figure).
pub fn fig4_cell(synth: &SyntheticCatalog, k: usize, period: i32) -> Vec<RankedPath> {
    synthetic_goal_explorer(synth, period)
        .top_k(&TimeRanking, k)
        .expect("the goal is set")
}

/// Deadline-driven explorer over the bundled catalog (same conventions).
pub fn paper_deadline_explorer(data: &RegistrarData, semesters: i32) -> Explorer<'_> {
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    Explorer::deadline_driven(&data.catalog, start, data.horizon.0 + semesters, PAPER_M)
        .expect("valid request")
}

/// Goal-driven explorer over a synthetic instance.
pub fn synthetic_goal_explorer(synth: &SyntheticCatalog, semesters: i32) -> Explorer<'_> {
    let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
    Explorer::goal_driven(
        &synth.catalog,
        start,
        synth.start + semesters,
        PAPER_M,
        Goal::degree(synth.degree.clone()),
    )
    .expect("valid request")
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration the way the paper's tables do (seconds).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Deadline semester for an n-selection-semester exploration from `start`.
pub fn deadline_for(start: Semester, semesters: i32) -> Semester {
    start + semesters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_explorers_build() {
        let data = paper_instance();
        let goal = paper_goal_explorer(&data, 4, PruneConfig::all());
        assert!(goal.goal().is_some());
        assert_eq!(goal.deadline(), data.horizon.0 + 4);
        let dl = paper_deadline_explorer(&data, 4);
        assert!(dl.goal().is_none());
    }

    #[test]
    fn synthetic_instance_has_requested_horizon() {
        let synth = synthetic_instance(8);
        assert_eq!(synth.end - synth.start, 7);
        // 8 selection semesters use the full schedule; the deadline node
        // sits one semester past the last scheduled one.
        let e = synthetic_goal_explorer(&synth, 8);
        assert_eq!(e.deadline(), synth.end + 1);
    }

    /// The Table 2 goal rows that count in well under a second.
    #[test]
    fn table2_short_goal_rows_are_golden() {
        let data = paper_instance();
        for &(semesters, paths, goal_paths) in &TABLE2_GOAL_GOLDENS[..2] {
            let counts = table2_goal_count(&data, semesters, PAPER_MEMO_ENTRIES);
            assert_eq!(
                (counts.total_paths, counts.goal_paths),
                (paths, goal_paths),
                "{semesters} semesters"
            );
        }
    }

    /// The fastest Figure 4 cell, k = 10 over six semesters.
    #[test]
    fn fig4_fastest_cell_is_golden() {
        let (k, period, count, last_cost) = FIG4_GOLDENS[0];
        let paths = fig4_cell(&sparse_instance(8), k, period);
        assert_eq!(
            (paths.len(), paths.last().map(|p| p.cost)),
            (count, Some(last_cost))
        );
    }

    #[test]
    fn timed_measures_and_returns() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 5);
        assert!(!secs(d).is_empty());
    }
}
