//! Algorithm 3: ranked top-k learning paths via best-first search (§4.3.2).
//!
//! "Each time we generate a new node and new edge we calculate the cost of
//! the new path … we explore first its outgoing edge with the lowest cost.
//! If the edge ends with a goal node, we store the path … we stop the
//! exploration when k paths have been generated."
//!
//! Implementation: a min-heap over frontier nodes keyed by accumulated path
//! cost (ties broken by the node's lexicographic *tree rank* — the vector
//! of sibling indices on the path from the root — for determinism).
//! Because every [`Ranking`] cost is non-negative, path costs are monotone
//! along any path, so nodes pop in globally non-decreasing cost order and
//! the first `k` goal nodes popped are exactly the top-k paths — the
//! paper's Lemma 2. The search reuses the goal-driven pruning strategies,
//! so hopeless branches never enter the heap.
//!
//! The tree-rank tie-break (rather than global insertion FIFO) makes the
//! order *composable*: the pop order restricted to any first-level subtree
//! equals that subtree's own search order, so `parallel.rs` can search
//! subtrees independently (seeded via `Explorer::ranked_search_seeded`)
//! and merge by (cost, child index) into the exact sequential answer.
//!
//! [`Explorer::top_k_by_enumeration`] is the brute-force baseline
//! (enumerate all goal paths, sort, truncate), kept as the ablation
//! comparator and the correctness oracle in tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use coursenav_catalog::CourseSet;
use serde::{Deserialize, Serialize};

use crate::error::ExploreError;
use crate::expiry::Expiry;
use crate::explorer::{no_table, Disposition, Explorer};
use crate::path::{LeafKind, Path};
use crate::pruning::record_prune;
use crate::ranking::Ranking;
use crate::stats::ExploreStats;
use crate::status::{Classifiable, Unexpanded};

/// A goal path together with its cost under the requested ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedPath {
    /// The goal path.
    pub path: Path,
    /// Its accumulated cost under the requested ranking.
    pub cost: f64,
}

/// Arena node of the best-first search tree. Path costs live in the heap
/// entries; the arena only needs enough to reconstruct paths. States stay
/// unexpanded until popped: most frontier nodes never are.
struct SearchNode {
    state: Unexpanded,
    parent: Option<(u32, CourseSet)>,
}

/// Heap entry: minimal priority first, ties broken by lexicographic tree
/// rank. `priority` is the accumulated cost `g` for plain best-first, or
/// `g + h` when an A* heuristic is active; `cost` is always `g`. `rank`
/// is the sibling-index vector of the node's path from the search root,
/// counting only selections that survive the filters (the emitted ones),
/// so a node's rank is independent of how the frontier was scheduled.
struct HeapEntry {
    priority: f64,
    cost: f64,
    rank: Vec<u32>,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the *lowest* priority pops first.
        other
            .priority
            .partial_cmp(&self.priority)
            .expect("costs are finite by Ranking's contract")
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Explorer<'_> {
    /// The top-`k` goal paths under `ranking`, lowest cost first.
    ///
    /// Requires a goal (Algorithm 3 ranks goal-driven paths); errors with
    /// [`ExploreError::InvalidRequest`] otherwise.
    pub fn top_k(&self, ranking: &dyn Ranking, k: usize) -> Result<Vec<RankedPath>, ExploreError> {
        self.top_k_with_stats(ranking, k).map(|(paths, _)| paths)
    }

    /// [`Explorer::top_k`] plus the run's exploration statistics.
    pub fn top_k_with_stats(
        &self,
        ranking: &dyn Ranking,
        k: usize,
    ) -> Result<(Vec<RankedPath>, ExploreStats), ExploreError> {
        self.ranked_search(ranking, None, k, None)
            .map(|(paths, stats, _)| (paths, stats))
    }

    /// [`Explorer::top_k`] under a wall-clock deadline: when the deadline
    /// passes mid-search the paths found so far are returned (still the
    /// true best-so-far, by the heap's cost order) with `true` as the
    /// truncation marker. `None` runs to completion.
    pub fn top_k_until(
        &self,
        ranking: &dyn Ranking,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<(Vec<RankedPath>, bool), ExploreError> {
        self.ranked_search(ranking, None, k, deadline)
            .map(|(paths, _, truncated)| (paths, truncated))
    }

    /// The shared best-first / A* engine behind [`Explorer::top_k`] and
    /// [`Explorer::top_k_astar`]. The third element of the result is the
    /// truncation marker: `true` when `deadline` expired before the search
    /// finished.
    pub(crate) fn ranked_search(
        &self,
        ranking: &dyn Ranking,
        heuristic: Option<&dyn crate::astar::RemainingCostHeuristic>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<(Vec<RankedPath>, ExploreStats, bool), ExploreError> {
        self.ranked_search_seeded(ranking, heuristic, k, deadline, 0.0)
    }

    /// [`Explorer::ranked_search`] with the root's accumulated cost seeded
    /// to `initial_cost` instead of `0.0`. This is how `parallel.rs`
    /// searches a first-level subtree: seeding with `0.0 + edge_cost(root,
    /// selection)` reproduces the sequential engine's left-fold cost
    /// accumulation bit for bit, so merged answers stay byte-identical.
    pub(crate) fn ranked_search_seeded(
        &self,
        ranking: &dyn Ranking,
        heuristic: Option<&dyn crate::astar::RemainingCostHeuristic>,
        k: usize,
        deadline: Option<Instant>,
        initial_cost: f64,
    ) -> Result<(Vec<RankedPath>, ExploreStats, bool), ExploreError> {
        self.ranked_search_paged(ranking, heuristic, 0, k, deadline, initial_cost)
    }

    /// [`Explorer::ranked_search_seeded`] that additionally *skips* the
    /// first `skip` goal paths before collecting up to `k`. Because the
    /// best-first pop order is fully deterministic (cost, then tree rank),
    /// replaying the search with a skip count resumes a paused top-k run:
    /// page `n+1` is exactly the slice the unpaged search would have
    /// produced after page `n`'s paths. The skipped prefix re-pops heap
    /// entries but never reconstructs paths, so resume cost stays well
    /// below a cold full collection.
    pub(crate) fn ranked_search_paged(
        &self,
        ranking: &dyn Ranking,
        heuristic: Option<&dyn crate::astar::RemainingCostHeuristic>,
        skip: usize,
        k: usize,
        deadline: Option<Instant>,
        initial_cost: f64,
    ) -> Result<(Vec<RankedPath>, ExploreStats, bool), ExploreError> {
        let Some(goal) = self.goal() else {
            return Err(ExploreError::InvalidRequest(
                "top-k ranking requires a goal-driven exploration".into(),
            ));
        };
        let h = |state: Unexpanded| -> f64 {
            match heuristic {
                Some(h) => {
                    let status = state.materialize(self.catalog());
                    let bound = h.lower_bound(self.catalog(), goal, &status);
                    debug_assert!(
                        bound.is_finite() && bound >= 0.0,
                        "{} produced invalid lower bound {bound}",
                        h.name()
                    );
                    bound
                }
                None => 0.0,
            }
        };
        let pruner = self.pruner();
        let mut stats = ExploreStats::default();
        let root = Unexpanded::from(*self.start());
        let mut arena: Vec<SearchNode> = vec![SearchNode {
            state: root,
            parent: None,
        }];
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            priority: initial_cost + h(root),
            cost: initial_cost,
            rank: Vec::new(),
            node: 0,
        });
        let mut out: Vec<RankedPath> = Vec::with_capacity(k.min(1024));
        let mut expiry = Expiry::per_step(deadline);
        let mut skipped = 0usize;

        while let Some(entry) = heap.pop() {
            if out.len() >= k {
                break;
            }
            if expiry.tick() {
                break;
            }
            let state = arena[entry.node as usize].state;
            let expansion = match self.disposition(state, pruner.as_ref(), no_table) {
                Disposition::Leaf(LeafKind::Goal) => {
                    if skipped < skip {
                        // Already delivered by an earlier page: re-pop but
                        // skip the (comparatively expensive) reconstruction.
                        skipped += 1;
                    } else {
                        out.push(RankedPath {
                            path: self.reconstruct(&arena, entry.node),
                            cost: entry.cost,
                        });
                    }
                    continue;
                }
                Disposition::Leaf(_) => continue, // non-goal leaf: discard
                Disposition::Pruned(reason) => {
                    record_prune(&mut stats, reason);
                    continue;
                }
                Disposition::Known(never) => match never {},
                Disposition::Expand(expansion) => expansion,
            };
            stats.nodes_expanded += 1;
            let status = expansion.status;
            let mut sibling = 0u32;
            for selection in expansion.selections(self.max_per_semester()) {
                if selection.len() < expansion.min_selection {
                    stats.pruned_time += 1;
                    continue;
                }
                if !self.selection_allowed(&status, &selection) {
                    continue;
                }
                let edge_cost = ranking.edge_cost(self.catalog(), &status, &selection);
                debug_assert!(
                    edge_cost.is_finite() && edge_cost >= 0.0,
                    "{} produced invalid edge cost {edge_cost}",
                    ranking.name()
                );
                stats.edges_created += 1;
                let child_cost = entry.cost + edge_cost;
                let child_state = status.child(&selection);
                let child = arena.len() as u32;
                arena.push(SearchNode {
                    state: child_state,
                    parent: Some((entry.node, selection)),
                });
                let mut rank = Vec::with_capacity(entry.rank.len() + 1);
                rank.extend_from_slice(&entry.rank);
                rank.push(sibling);
                sibling += 1;
                heap.push(HeapEntry {
                    priority: child_cost + h(child_state),
                    cost: child_cost,
                    rank,
                    node: child,
                });
            }
        }
        Ok((out, stats, expiry.fired()))
    }

    /// Baseline: enumerate every goal path, rank, and truncate to `k`.
    /// Exponentially more work than [`Explorer::top_k`]; used as the
    /// correctness oracle and the ablation comparator.
    pub fn top_k_by_enumeration(
        &self,
        ranking: &dyn Ranking,
        k: usize,
    ) -> Result<Vec<RankedPath>, ExploreError> {
        if self.goal().is_none() {
            return Err(ExploreError::InvalidRequest(
                "top-k ranking requires a goal-driven exploration".into(),
            ));
        }
        let mut ranked: Vec<RankedPath> = self
            .collect_goal_paths()
            .into_iter()
            .map(|path| RankedPath {
                cost: ranking.path_cost(self.catalog(), &path),
                path,
            })
            .collect();
        ranked.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
        ranked.truncate(k);
        Ok(ranked)
    }

    fn reconstruct(&self, arena: &[SearchNode], leaf: u32) -> Path {
        let mut statuses = Vec::new();
        let mut selections = Vec::new();
        let mut cursor = leaf;
        loop {
            let node = &arena[cursor as usize];
            statuses.push(node.state.materialize(self.catalog()));
            match node.parent {
                Some((parent, selection)) => {
                    selections.push(selection);
                    cursor = parent;
                }
                None => break,
            }
        }
        statuses.reverse();
        selections.reverse();
        Path::new(statuses, selections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use crate::ranking::{TimeRanking, WorkloadRanking};
    use crate::status::EnrollmentStatus;
    use coursenav_catalog::{
        Catalog, CatalogBuilder, CourseSpec, Semester, SyntheticCatalog, SyntheticConfig, Term,
    };
    use coursenav_prereq::Expr;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn fig3() -> Catalog {
        let spring12 = Semester::new(2012, Term::Spring);
        let mut b = CatalogBuilder::new();
        b.add_course(
            CourseSpec::new("11A", "A")
                .offered([fall(2011), fall(2012)])
                .workload(8.0),
        );
        b.add_course(
            CourseSpec::new("29A", "B")
                .offered([fall(2011), fall(2012)])
                .workload(6.0),
        );
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring12])
                .workload(10.0),
        );
        b.build().unwrap()
    }

    #[test]
    fn paper_top1_shortest_path_example() {
        // §4.3.2's walkthrough: goal = all three courses, time ranking,
        // k = 1 → the 2-semester path through n3.
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let e =
            Explorer::goal_driven(&cat, start, Semester::new(2013, Term::Spring), 3, goal).unwrap();
        let top = e.top_k(&TimeRanking, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].cost, 2.0);
        assert_eq!(top[0].path.len(), 2);
        assert_eq!(top[0].path.courses_taken().len(), 3);
    }

    #[test]
    fn paged_search_reproduces_unpaged_slices() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let (full, _, _) = e.ranked_search(&TimeRanking, None, 20, None).unwrap();
        assert!(full.len() > 5);
        for page_size in [1usize, 3, 7] {
            let mut paged: Vec<RankedPath> = Vec::new();
            while paged.len() < full.len() {
                let (page, _, truncated) = e
                    .ranked_search_paged(&TimeRanking, None, paged.len(), page_size, None, 0.0)
                    .unwrap();
                assert!(!truncated);
                if page.is_empty() {
                    break;
                }
                paged.extend(page);
                if paged.len() >= 20 {
                    break;
                }
            }
            paged.truncate(full.len());
            assert_eq!(paged, full, "page_size={page_size}");
        }
    }

    #[test]
    fn top_k_matches_enumeration_costs() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        for k in [1usize, 5, 20] {
            let fast = e.top_k(&TimeRanking, k).unwrap();
            let slow = e.top_k_by_enumeration(&TimeRanking, k).unwrap();
            assert_eq!(fast.len(), slow.len(), "k={k}");
            let fast_costs: Vec<f64> = fast.iter().map(|p| p.cost).collect();
            let slow_costs: Vec<f64> = slow.iter().map(|p| p.cost).collect();
            assert_eq!(fast_costs, slow_costs, "k={k}");
        }
    }

    #[test]
    fn top_k_workload_matches_enumeration() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let fast = e.top_k(&WorkloadRanking, 10).unwrap();
        let slow = e.top_k_by_enumeration(&WorkloadRanking, 10).unwrap();
        let fast_costs: Vec<f64> = fast.iter().map(|p| p.cost).collect();
        let slow_costs: Vec<f64> = slow.iter().map(|p| p.cost).collect();
        assert_eq!(fast_costs, slow_costs);
    }

    #[test]
    fn costs_are_nondecreasing() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let top = e.top_k(&WorkloadRanking, 25).unwrap();
        for pair in top.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
        }
    }

    #[test]
    fn returned_paths_satisfy_goal_and_validate() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        for rp in e.top_k(&TimeRanking, 10).unwrap() {
            rp.path.validate(&synth.catalog, 3).unwrap();
            assert!(synth.degree.satisfied(rp.path.end().completed()));
            let recomputed = TimeRanking.path_cost(&synth.catalog, &rp.path);
            assert!((recomputed - rp.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_path_count_returns_all() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let e = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let all_goal = e.collect_goal_paths().len();
        let top = e.top_k(&TimeRanking, 1000).unwrap();
        assert_eq!(top.len(), all_goal);
    }

    #[test]
    fn top_k_without_goal_is_rejected() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e = Explorer::deadline_driven(&cat, start, fall(2012), 3).unwrap();
        assert!(matches!(
            e.top_k(&TimeRanking, 5),
            Err(ExploreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn expired_deadline_truncates_top_k() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let e = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let (paths, truncated) = e
            .top_k_until(&TimeRanking, 10, Some(std::time::Instant::now()))
            .unwrap();
        assert!(truncated);
        assert!(paths.is_empty());
        // And with no deadline the same call runs to completion.
        let (paths, truncated) = e.top_k_until(&TimeRanking, 10, None).unwrap();
        assert!(!truncated);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn k_zero_returns_empty() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let e = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        assert!(e.top_k(&TimeRanking, 0).unwrap().is_empty());
    }

    #[test]
    fn best_first_explores_fewer_nodes_than_enumeration() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let (_, stats) = e.top_k_with_stats(&TimeRanking, 1).unwrap();
        let full = e.count_paths();
        assert!(
            stats.nodes_expanded <= full.stats.nodes_expanded,
            "best-first ({}) must not expand more than exhaustive ({})",
            stats.nodes_expanded,
            full.stats.nodes_expanded
        );
    }
}
