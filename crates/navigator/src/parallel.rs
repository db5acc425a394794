//! Parallel exploration (an extension beyond the paper).
//!
//! Learning-path trees are embarrassingly parallel below the first level:
//! each first-semester selection roots an independent subtree. Every mode
//! here expands the root sequentially (exactly like the sequential
//! engine), deals the first-level children round-robin to `threads`
//! crossbeam-scoped workers, runs the ordinary engine on each subtree,
//! and merges the per-subtree results **in child-index order** — the same
//! order the sequential depth-first engine visits them. Merged answers
//! are therefore identical to sequential ones by construction (verified
//! by tests), down to the bytes of their serialized form:
//!
//! - counts and statistics merge by addition;
//! - collected paths concatenate in child order = DFS order;
//! - ranked top-k subtree searches are seeded with the root edge's cost
//!   (`Explorer::ranked_search_seeded`) so cost accumulation is the
//!   same left-to-right fold as sequential (bit-identical floats), and a
//!   stable merge by cost reproduces the sequential (cost, tree-rank)
//!   pop order.
//!
//! Each variant also takes the serving layer's wall-clock deadline;
//! workers check it with the same amortized cadence as the sequential
//! engine, so a parallel run under budget returns a truncated partial
//! instead of stalling an interactive client.

use std::ops::ControlFlow;
use std::time::Instant;

use coursenav_catalog::CourseSet;

use crate::error::ExploreError;
use crate::expiry::Expiry;
use crate::explorer::{no_table, Disposition, Explorer};
use crate::path::{LeafKind, Path};
use crate::pruning::record_prune;
use crate::ranked::RankedPath;
use crate::ranking::Ranking;
use crate::stats::{ExploreStats, PathCounts};
use crate::status::Unexpanded;

/// How the root expanded, mirroring the sequential engine's first step.
pub(crate) enum RootExpansion {
    /// The root itself is a leaf: the exploration is one trivial path.
    Leaf(LeafKind),
    /// The root was pruned: no paths at all.
    Pruned(ExploreStats),
    /// The root expanded but produced no children. `dead_end` is true
    /// when every selection was vetoed by filters (the sequential engine
    /// then emits the root as a dead-end path) rather than skipped by
    /// the strategic floor (which emits nothing).
    NoChildren { stats: ExploreStats, dead_end: bool },
    /// First-level subtrees to deal to workers, in selection order. Each
    /// worker materializes its own child.
    Children {
        stats: ExploreStats,
        children: Vec<(CourseSet, Unexpanded)>,
    },
}

impl<'a> Explorer<'a> {
    /// Expands the root exactly like the sequential engine, keeping each
    /// surviving selection alongside the child status it leads to.
    pub(crate) fn expand_root(&self) -> RootExpansion {
        let pruner = self.pruner();
        let mut stats = ExploreStats::default();
        let expansion = match self.disposition(*self.start(), pruner.as_ref(), no_table) {
            Disposition::Leaf(kind) => return RootExpansion::Leaf(kind),
            Disposition::Pruned(reason) => {
                record_prune(&mut stats, reason);
                return RootExpansion::Pruned(stats);
            }
            Disposition::Known(never) => match never {},
            Disposition::Expand(expansion) => expansion,
        };
        stats.nodes_expanded += 1;
        let mut children: Vec<(CourseSet, Unexpanded)> = Vec::new();
        let mut floor_skipped = 0usize;
        for selection in expansion.selections(self.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
                stats.pruned_time += 1;
                continue;
            }
            if !self.selection_allowed(self.start(), &selection) {
                continue;
            }
            stats.edges_created += 1;
            children.push((selection, self.start().child(&selection)));
        }
        if children.is_empty() {
            return RootExpansion::NoChildren {
                stats,
                dead_end: floor_skipped == 0,
            };
        }
        RootExpansion::Children { stats, children }
    }

    /// Deals `items` round-robin to at most `threads` scoped workers and
    /// returns `run`'s results reassembled in item order — the merge
    /// order every parallel mode relies on for determinism.
    pub(crate) fn deal_subtrees<I, T, F>(&self, items: Vec<I>, threads: usize, run: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let workers = threads.min(n).max(1);
        let mut buckets: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            buckets[i % workers].push((i, item));
        }
        let per_worker: Vec<Vec<(usize, T)>> = crossbeam::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move |_| {
                        bucket
                            .into_iter()
                            .map(|(i, item)| (i, run(i, item)))
                            .collect::<Vec<(usize, T)>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
        .expect("crossbeam scope failed");

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, result) in per_worker.into_iter().flatten() {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every subtree produced a result"))
            .collect()
    }

    /// The root as a single trivial path (the `start == leaf` case).
    pub(crate) fn trivial_path(&self) -> Path {
        Path::new(vec![*self.start()], Vec::new())
    }

    /// Counts learning paths using up to `threads` worker threads.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn count_paths_parallel(&self, threads: usize) -> PathCounts {
        self.count_paths_parallel_until(threads, None).0
    }

    /// [`Explorer::count_paths_parallel`] under a wall-clock deadline:
    /// when the deadline passes mid-count each worker stops, and the
    /// merged counts are returned as lower bounds with `true` as the
    /// truncation marker. `None` runs to completion.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub(crate) fn count_paths_parallel_until(
        &self,
        threads: usize,
        deadline: Option<Instant>,
    ) -> (PathCounts, bool) {
        assert!(threads > 0, "need at least one worker thread");
        let expired_now = || deadline.is_some_and(|d| Instant::now() >= d);
        match self.expand_root() {
            RootExpansion::Leaf(kind) => {
                if expired_now() {
                    return (PathCounts::default(), true);
                }
                (
                    PathCounts {
                        total_paths: 1,
                        goal_paths: u128::from(kind == LeafKind::Goal),
                        stats: ExploreStats::default(),
                    },
                    false,
                )
            }
            RootExpansion::Pruned(stats) => (
                PathCounts {
                    total_paths: 0,
                    goal_paths: 0,
                    stats,
                },
                false,
            ),
            RootExpansion::NoChildren { stats, dead_end } => {
                if dead_end && expired_now() {
                    return (
                        PathCounts {
                            total_paths: 0,
                            goal_paths: 0,
                            stats,
                        },
                        true,
                    );
                }
                (
                    PathCounts {
                        total_paths: u128::from(dead_end),
                        goal_paths: 0,
                        stats,
                    },
                    false,
                )
            }
            RootExpansion::Children {
                stats: root_stats,
                children,
            } => {
                let subs = self.deal_subtrees(children, threads, |_, (_, child)| {
                    self.restarted(child).count_paths_until(deadline)
                });
                let mut out = PathCounts {
                    total_paths: 0,
                    goal_paths: 0,
                    stats: root_stats,
                };
                let mut truncated = false;
                for (counts, sub_truncated) in subs {
                    out.total_paths += counts.total_paths;
                    out.goal_paths += counts.goal_paths;
                    out.stats.merge(&counts.stats);
                    truncated |= sub_truncated;
                }
                (out, truncated)
            }
        }
    }

    /// Collects up to `limit` learning paths (goal paths for goal-driven
    /// runs) using up to `threads` worker threads, in the exact order the
    /// sequential engine produces them. The boolean marks truncation:
    /// more paths exist beyond `limit`, or `deadline` expired mid-run.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub(crate) fn collect_paths_parallel_until(
        &self,
        threads: usize,
        limit: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Path>, bool) {
        assert!(threads > 0, "need at least one worker thread");
        let goal_only = self.goal().is_some();
        // One leaf visit at the root, with the sequential visitor's check
        // order: deadline first, then the goal filter, then the limit.
        let root_visit = |kind: LeafKind| -> (Vec<Path>, bool) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return (Vec::new(), true);
            }
            if goal_only && kind != LeafKind::Goal {
                return (Vec::new(), false);
            }
            if limit == 0 {
                return (Vec::new(), true);
            }
            (vec![self.trivial_path()], false)
        };
        match self.expand_root() {
            RootExpansion::Leaf(kind) => root_visit(kind),
            RootExpansion::Pruned(_) => (Vec::new(), false),
            RootExpansion::NoChildren { dead_end, .. } => {
                if dead_end {
                    root_visit(LeafKind::DeadEnd)
                } else {
                    (Vec::new(), false)
                }
            }
            RootExpansion::Children { children, .. } => {
                let root = *self.start();
                // `limit` paths may all come from one subtree; one more
                // per subtree distinguishes "exactly limit" from "more
                // beyond it" after the merge.
                let cap = limit.saturating_add(1);
                let subs = self.deal_subtrees(children, threads, |_, (selection, child)| {
                    let mut out: Vec<Path> = Vec::new();
                    let mut expiry = Expiry::per_leaf(deadline);
                    self.restarted(child).visit_paths(|visit| {
                        if expiry.tick() {
                            return ControlFlow::Break(());
                        }
                        if goal_only && visit.kind != LeafKind::Goal {
                            return ControlFlow::Continue(());
                        }
                        let mut statuses = Vec::with_capacity(visit.statuses.len() + 1);
                        statuses.push(root);
                        statuses.extend_from_slice(visit.statuses);
                        let mut selections = Vec::with_capacity(visit.selections.len() + 1);
                        selections.push(selection);
                        selections.extend_from_slice(visit.selections);
                        out.push(Path::new(statuses, selections));
                        if out.len() >= cap {
                            return ControlFlow::Break(());
                        }
                        ControlFlow::Continue(())
                    });
                    (out, expiry.fired())
                });
                let mut paths: Vec<Path> = Vec::new();
                let mut truncated = false;
                for (sub_paths, sub_truncated) in subs {
                    truncated |= sub_truncated;
                    paths.extend(sub_paths);
                }
                if paths.len() > limit {
                    paths.truncate(limit);
                    truncated = true;
                }
                (paths, truncated)
            }
        }
    }

    /// The top-`k` goal paths under `ranking` using up to `threads`
    /// worker threads — identical to [`Explorer::top_k_until`], merged
    /// from independently searched first-level subtrees. Each subtree's
    /// best-first search is seeded with the root edge's cost so costs
    /// accumulate in the same order as the sequential left fold
    /// (bit-identical floats), and the stable merge by cost reproduces
    /// the sequential (cost, child-index, tree-rank) tie order.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub(crate) fn top_k_parallel_until(
        &self,
        ranking: &dyn Ranking,
        k: usize,
        threads: usize,
        deadline: Option<Instant>,
    ) -> Result<(Vec<RankedPath>, bool), ExploreError> {
        assert!(threads > 0, "need at least one worker thread");
        if self.goal().is_none() {
            return Err(ExploreError::InvalidRequest(
                "top-k ranking requires a goal-driven exploration".into(),
            ));
        }
        if k == 0 {
            return Ok((Vec::new(), false));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok((Vec::new(), true));
        }
        match self.expand_root() {
            RootExpansion::Leaf(LeafKind::Goal) => Ok((
                vec![RankedPath {
                    path: self.trivial_path(),
                    cost: 0.0,
                }],
                false,
            )),
            RootExpansion::Leaf(_)
            | RootExpansion::Pruned(_)
            | RootExpansion::NoChildren { .. } => Ok((Vec::new(), false)),
            RootExpansion::Children { children, .. } => {
                let root = *self.start();
                let subs = self.deal_subtrees(children, threads, |_, (selection, child)| {
                    let edge_cost = ranking.edge_cost(self.catalog(), &root, &selection);
                    // Seed with the sequential engine's exact expression
                    // (root cost 0.0 plus this edge) for bit-identical
                    // accumulation down the subtree.
                    let seed = 0.0 + edge_cost;
                    let (paths, _, truncated) = self
                        .restarted(child)
                        .ranked_search_seeded(ranking, None, k, deadline, seed)
                        .expect("subtree searches inherit the goal");
                    let paths: Vec<RankedPath> = paths
                        .into_iter()
                        .map(|ranked| {
                            let mut statuses = Vec::with_capacity(ranked.path.len() + 2);
                            statuses.push(root);
                            statuses.extend_from_slice(ranked.path.statuses());
                            let mut selections = Vec::with_capacity(ranked.path.len() + 1);
                            selections.push(selection);
                            selections.extend_from_slice(ranked.path.selections());
                            RankedPath {
                                path: Path::new(statuses, selections),
                                cost: ranked.cost,
                            }
                        })
                        .collect();
                    (paths, truncated)
                });
                let mut merged: Vec<RankedPath> = Vec::new();
                let mut truncated = false;
                for (paths, sub_truncated) in subs {
                    truncated |= sub_truncated;
                    merged.extend(paths);
                }
                // Stable by cost: equal costs keep (child index, subtree
                // pop order), which is the sequential tie-break.
                merged.sort_by(|a, b| {
                    a.cost
                        .partial_cmp(&b.cost)
                        .expect("costs are finite by Ranking's contract")
                });
                merged.truncate(k);
                Ok((merged, truncated))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use crate::ranking::{TimeRanking, WorkloadRanking};
    use crate::status::EnrollmentStatus;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    #[test]
    fn parallel_matches_sequential_deadline() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        let seq = e.count_paths();
        for threads in [1, 2, 4] {
            let par = e.count_paths_parallel(threads);
            assert_eq!(par.total_paths, seq.total_paths, "threads={threads}");
            assert_eq!(par.goal_paths, seq.goal_paths);
            assert_eq!(par.stats, seq.stats, "stats must merge exactly");
        }
    }

    #[test]
    fn parallel_matches_sequential_goal() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let seq = e.count_paths();
        let par = e.count_paths_parallel(4);
        assert_eq!(par.total_paths, seq.total_paths);
        assert_eq!(par.goal_paths, seq.goal_paths);
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn trivial_root_cases() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        // Deadline == start: single trivial path.
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start, 3).unwrap();
        let counts = e.count_paths_parallel(4);
        assert_eq!(counts.total_paths, 1);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 1, 1).unwrap();
        e.count_paths_parallel(0);
    }

    #[test]
    fn parallel_collect_matches_sequential_order() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        // Deadline-driven: every path, in DFS order.
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        let seq = e.collect_paths();
        for threads in [1, 2, 4] {
            let (par, truncated) = e.collect_paths_parallel_until(threads, usize::MAX, None);
            assert!(!truncated);
            assert_eq!(par, seq, "threads={threads}");
        }
        // Goal-driven: goal paths only, same order as collect_goal_paths.
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let seq = e.collect_goal_paths();
        let (par, truncated) = e.collect_paths_parallel_until(3, usize::MAX, None);
        assert!(!truncated);
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_collect_respects_the_limit() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        let all = e.collect_paths();
        assert!(all.len() > 5, "need enough paths to truncate");
        let (par, truncated) = e.collect_paths_parallel_until(4, 5, None);
        assert!(truncated, "more paths exist beyond the limit");
        assert_eq!(par, all[..5], "the limited prefix is the DFS prefix");
        // Exactly at the boundary: everything fits, no truncation.
        let (par, truncated) = e.collect_paths_parallel_until(4, all.len(), None);
        assert!(!truncated);
        assert_eq!(par.len(), all.len());
    }

    #[test]
    fn parallel_top_k_is_bit_identical_to_sequential() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        for k in [1usize, 5, 20] {
            let (seq, seq_truncated) = e.top_k_until(&TimeRanking, k, None).unwrap();
            for threads in [1, 2, 4] {
                let (par, par_truncated) = e
                    .top_k_parallel_until(&TimeRanking, k, threads, None)
                    .unwrap();
                assert_eq!(par_truncated, seq_truncated);
                assert_eq!(par.len(), seq.len(), "k={k} threads={threads}");
                for (p, s) in par.iter().zip(seq.iter()) {
                    assert_eq!(
                        p.cost.to_bits(),
                        s.cost.to_bits(),
                        "k={k} threads={threads}: costs must be bit-identical"
                    );
                    assert_eq!(p.path, s.path, "k={k} threads={threads}");
                }
            }
            // A second ranking exercises different tie structure.
            let (seq, _) = e.top_k_until(&WorkloadRanking, k, None).unwrap();
            let (par, _) = e
                .top_k_parallel_until(&WorkloadRanking, k, 4, None)
                .unwrap();
            assert_eq!(par, seq, "workload ranking, k={k}");
        }
    }

    #[test]
    fn parallel_top_k_without_goal_is_rejected() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 2, 2).unwrap();
        assert!(matches!(
            e.top_k_parallel_until(&TimeRanking, 5, 2, None),
            Err(ExploreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn expired_deadline_truncates_parallel_runs() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let past = Some(Instant::now());

        let (counts, truncated) = e.count_paths_parallel_until(4, past);
        assert!(truncated);
        assert_eq!(counts.total_paths, 0);

        let (paths, truncated) = e.collect_paths_parallel_until(4, 100, past);
        assert!(truncated);
        assert!(paths.is_empty());

        let (paths, truncated) = e.top_k_parallel_until(&TimeRanking, 5, 4, past).unwrap();
        assert!(truncated);
        assert!(paths.is_empty());
    }
}
