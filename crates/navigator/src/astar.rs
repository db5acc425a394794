//! A\*-accelerated ranked search (an extension beyond the paper).
//!
//! The paper's best-first search (§4.3.2) orders the frontier by
//! *accumulated* cost. For the time-based ranking that is breadth-first
//! and cheap, but for workload- or reliability-based rankings it floods
//! the frontier with cheap partial paths before the first complete goal
//! path surfaces — on long horizons the search effectively enumerates the
//! tree.
//!
//! Adding an **admissible, consistent lower bound on the remaining cost**
//! turns the search into A\*: the frontier is ordered by
//! `f = g + h`, and nodes that cannot beat the current best complete paths
//! sink in the heap. Consistency (`h(s) ≤ cost(s→s') + h(s')`) makes `f`
//! monotone along paths, so the Lemma-2 argument still applies and the
//! first `k` goal nodes popped are exactly the top-k — verified against
//! enumerate-then-sort by tests and benchmarked as Ablation D.
//!
//! Heuristics provided (each paired with its ranking):
//!
//! - [`TimeHeuristic`]: `⌈left_i / m⌉` remaining semesters;
//! - [`WorkloadHeuristic`]: the sum of the `left_i` smallest workloads
//!   among untaken courses;
//! - [`ZeroHeuristic`]: `h ≡ 0`, recovering the paper's plain best-first.

use coursenav_catalog::Catalog;

use crate::error::ExploreError;
use crate::explorer::Explorer;
use crate::goal::Goal;
use crate::ranked::RankedPath;
use crate::ranking::Ranking;
use crate::stats::ExploreStats;
use crate::status::EnrollmentStatus;

/// An admissible, consistent lower bound on the cost still needed to reach
/// a goal node from `status`.
///
/// *Admissible*: never exceeds the true remaining cost of any goal
/// completion. *Consistent*: `h(s) ≤ edge_cost(s, W) + h(advance(s, W))`
/// for every legal selection `W`. Both properties together guarantee the
/// top-k output is exact.
pub trait RemainingCostHeuristic: Send + Sync {
    /// The lower bound. Must be finite and ≥ 0; 0 at goal-satisfying nodes.
    fn lower_bound(&self, catalog: &Catalog, goal: &Goal, status: &EnrollmentStatus) -> f64;

    /// Diagnostic name.
    fn name(&self) -> &str;
}

/// `h ≡ 0`: plain best-first search, the paper's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroHeuristic;

impl RemainingCostHeuristic for ZeroHeuristic {
    fn lower_bound(&self, _: &Catalog, _: &Goal, _: &EnrollmentStatus) -> f64 {
        0.0
    }

    fn name(&self) -> &str {
        "zero"
    }
}

/// For [`crate::TimeRanking`]: at least `⌈left_i / m⌉` more semesters are
/// needed to complete `left_i` more courses at `m` per semester.
///
/// Consistent: one transition reduces `left_i` by at most `m` while costing
/// exactly 1.
#[derive(Debug, Clone, Copy)]
pub struct TimeHeuristic {
    /// The exploration's per-semester cap `m`.
    pub max_per_semester: usize,
}

impl RemainingCostHeuristic for TimeHeuristic {
    fn lower_bound(&self, _: &Catalog, goal: &Goal, status: &EnrollmentStatus) -> f64 {
        match goal.left_lower_bound(status.completed()) {
            Some(left) => left.div_ceil(self.max_per_semester.max(1)) as f64,
            None => 0.0, // unsatisfiable goals are cut by pruning instead
        }
    }

    fn name(&self) -> &str {
        "time"
    }
}

/// For [`crate::WorkloadRanking`]: any goal completion takes at least
/// `left_i` more courses, each an untaken course, so the sum of the
/// `left_i` *smallest* untaken workloads is a lower bound.
///
/// Consistent: electing `W` removes exactly `|W|` untaken courses and pays
/// their full workload, while `left_i` drops by at most `|W|`; the sum of
/// any `left_i` untaken workloads dominates the sum of the smallest ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadHeuristic;

impl RemainingCostHeuristic for WorkloadHeuristic {
    fn lower_bound(&self, catalog: &Catalog, goal: &Goal, status: &EnrollmentStatus) -> f64 {
        let left = match goal.left_lower_bound(status.completed()) {
            Some(0) | None => return 0.0,
            Some(left) => left,
        };
        let untaken = catalog.all_courses().difference(status.completed());
        let mut workloads: Vec<f64> = untaken
            .iter()
            .map(|id| catalog.course(id).workload())
            .collect();
        if workloads.len() <= left {
            return workloads.iter().sum();
        }
        workloads
            .select_nth_unstable_by(left - 1, |a, b| a.partial_cmp(b).expect("finite workloads"));
        workloads[..left].iter().sum()
    }

    fn name(&self) -> &str {
        "workload"
    }
}

impl Explorer<'_> {
    /// A\* variant of [`Explorer::top_k`]: identical output, ordered by the
    /// same ranking, but guided by an admissible consistent heuristic so
    /// far fewer nodes are expanded (see Ablation D in the benches).
    pub fn top_k_astar(
        &self,
        ranking: &dyn Ranking,
        heuristic: &dyn RemainingCostHeuristic,
        k: usize,
    ) -> Result<Vec<RankedPath>, ExploreError> {
        self.top_k_astar_with_stats(ranking, heuristic, k)
            .map(|(paths, _)| paths)
    }

    /// [`Explorer::top_k_astar`] plus exploration statistics.
    pub fn top_k_astar_with_stats(
        &self,
        ranking: &dyn Ranking,
        heuristic: &dyn RemainingCostHeuristic,
        k: usize,
    ) -> Result<(Vec<RankedPath>, ExploreStats), ExploreError> {
        self.ranked_search(ranking, Some(heuristic), 0, k, None)
            .map(|(paths, stats, _)| (paths, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{TimeRanking, WorkloadRanking};
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    fn setting() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    fn explorer(s: &SyntheticCatalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        Explorer::goal_driven(
            &s.catalog,
            start,
            s.start + 4,
            3,
            Goal::degree(s.degree.clone()),
        )
        .unwrap()
    }

    #[test]
    fn astar_time_matches_plain_top_k() {
        let s = setting();
        let e = explorer(&s);
        let h = TimeHeuristic {
            max_per_semester: 3,
        };
        for k in [1usize, 5, 25] {
            let plain: Vec<f64> = e
                .top_k(&TimeRanking, k)
                .unwrap()
                .iter()
                .map(|p| p.cost)
                .collect();
            let astar: Vec<f64> = e
                .top_k_astar(&TimeRanking, &h, k)
                .unwrap()
                .iter()
                .map(|p| p.cost)
                .collect();
            assert_eq!(plain, astar, "k={k}");
        }
    }

    #[test]
    fn astar_workload_matches_enumeration() {
        let s = setting();
        let e = explorer(&s);
        let astar: Vec<f64> = e
            .top_k_astar(&WorkloadRanking, &WorkloadHeuristic, 10)
            .unwrap()
            .iter()
            .map(|p| p.cost)
            .collect();
        let slow: Vec<f64> = e
            .top_k_by_enumeration(&WorkloadRanking, 10)
            .unwrap()
            .iter()
            .map(|p| p.cost)
            .collect();
        assert_eq!(astar, slow);
    }

    #[test]
    fn astar_expands_no_more_than_plain() {
        let s = setting();
        let e = explorer(&s);
        let (_, plain) = e.top_k_with_stats(&WorkloadRanking, 5).unwrap();
        let (_, astar) = e
            .top_k_astar_with_stats(&WorkloadRanking, &WorkloadHeuristic, 5)
            .unwrap();
        assert!(
            astar.nodes_expanded <= plain.nodes_expanded,
            "A* ({}) must not expand more than best-first ({})",
            astar.nodes_expanded,
            plain.nodes_expanded
        );
    }

    #[test]
    fn zero_heuristic_is_plain_best_first() {
        let s = setting();
        let e = explorer(&s);
        let (_, plain) = e.top_k_with_stats(&TimeRanking, 5).unwrap();
        let (_, zero) = e
            .top_k_astar_with_stats(&TimeRanking, &ZeroHeuristic, 5)
            .unwrap();
        assert_eq!(plain.nodes_expanded, zero.nodes_expanded);
    }

    #[test]
    fn heuristics_are_admissible_along_optimal_paths() {
        let s = setting();
        let e = explorer(&s);
        let goal = Goal::degree(s.degree.clone());
        // For the optimal workload path, h(status) must never exceed the
        // true remaining cost at any point along it.
        let best = &e.top_k_by_enumeration(&WorkloadRanking, 1).unwrap()[0];
        let total = best.cost;
        let mut spent = 0.0;
        for (status, sel) in best.path.statuses().iter().zip(best.path.selections()) {
            let h = WorkloadHeuristic.lower_bound(&s.catalog, &goal, status);
            assert!(
                h <= total - spent + 1e-9,
                "inadmissible: h={h}, true remaining={}",
                total - spent
            );
            spent += WorkloadRanking.edge_cost(&s.catalog, status, sel);
        }
    }
}
