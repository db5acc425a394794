//! Parallel exploration (an extension beyond the paper).
//!
//! Learning-path trees are embarrassingly parallel below the first level:
//! each first-semester selection roots an independent subtree. Both modes
//! here expand the root sequentially (`Explorer::expand_root`, the
//! walker's own rule), deal the first-level children round-robin to
//! `threads` crossbeam-scoped workers, run the ordinary engine on each
//! subtree, and merge the per-subtree results **in child-index order** —
//! the same order the sequential depth-first engine visits them. Merged
//! answers are therefore identical to sequential ones by construction
//! (verified by tests), down to the bytes of their serialized form:
//!
//! - counts and statistics merge by addition;
//! - ranked top-k subtree searches are seeded with the root edge's cost
//!   (`Explorer::ranked_search_seeded`) so cost accumulation is the
//!   same left-to-right fold as sequential (bit-identical floats), and a
//!   stable merge by cost reproduces the sequential (cost, tree-rank)
//!   pop order.
//!
//! A root that does not branch (a leaf, pruned, or with no surviving
//! selection) leaves nothing to deal, so each mode hands it to its own
//! sequential engine and agrees with it there by construction.
//!
//! Collect has no fan-out: the limit bounds its work, and one walker emits
//! its paths in depth-first order at any parallelism.
//!
//! Each variant also takes the serving layer's wall-clock deadline;
//! workers check it with the same amortized cadence as the sequential
//! engine, so a parallel run under budget returns a truncated partial
//! instead of stalling an interactive client.

use std::time::Instant;

use crate::error::ExploreError;
use crate::explorer::Explorer;
use crate::memo::TranspositionTable;
use crate::path::Path;
use crate::ranked::RankedPath;
use crate::ranking::Ranking;
use crate::stats::PathCounts;

impl<'a> Explorer<'a> {
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

    /// Counts learning paths using up to `threads` worker threads.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn count_paths_parallel(&self, threads: usize) -> PathCounts {
        self.count_paths_parallel_until(threads, None, None).0
    }

    /// [`Explorer::count_paths_parallel`] under a wall-clock deadline:
    /// when the deadline passes mid-count each worker stops, and the
    /// merged counts are returned as lower bounds with `true` as the
    /// truncation marker. `None` runs to completion. Every worker walks its
    /// subtrees with the depth-first walker, through `table` when one is
    /// given, so the workers share one memo; counts and logical stats merge
    /// in child order either way.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub(crate) fn count_paths_parallel_until(
        &self,
        threads: usize,
        deadline: Option<Instant>,
        table: Option<&TranspositionTable>,
    ) -> (PathCounts, bool) {
        assert!(threads > 0, "need at least one worker thread");
        let count = |e: &Explorer<'_>| {
            let (counts, _work, truncated) = e.count_walk(table, deadline);
            (counts, truncated)
        };
        let Some((root_stats, children)) = self.expand_root() else {
            return count(self);
        };
        let subs = self.deal_subtrees(children, threads, |_, (_, child)| {
            count(&self.restarted(child))
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
        // Without a goal the sequential engine reports the typed error.
        let Some((_, children)) = self.goal().and_then(|_| self.expand_root()) else {
            return self.top_k_until(ranking, k, deadline);
        };
        let root = *self.start();
        let subs = self.deal_subtrees(children, threads, |_, (selection, child)| {
            let edge_cost = ranking.edge_cost(self.catalog(), &root, &selection);
            // Seed with the sequential engine's exact expression (root
            // cost 0.0 plus this edge) for bit-identical accumulation down
            // the subtree.
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
        // Stable by cost: equal costs keep (child index, subtree pop
        // order), which is the sequential tie-break.
        merged.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .expect("costs are finite by Ranking's contract")
        });
        merged.truncate(k);
        Ok((merged, truncated))
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

        let (counts, truncated) = e.count_paths_parallel_until(4, past, None);
        assert!(truncated);
        assert_eq!(counts.total_paths, 0);

        let (paths, truncated) = e.top_k_parallel_until(&TimeRanking, 5, 4, past).unwrap();
        assert!(truncated);
        assert!(paths.is_empty());
    }
}
