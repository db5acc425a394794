//! Parallel counting (an extension beyond the paper).
//!
//! Learning-path trees are embarrassingly parallel below the first level:
//! each first-semester selection roots an independent subtree. An unpaged
//! count expands the root sequentially (`Explorer::expand_root`, the
//! walker's own rule), deals the first-level children round-robin to
//! `threads` crossbeam-scoped workers, walks each subtree with the
//! ordinary depth-first walker, and adds up the per-subtree counts and
//! statistics. Addition does not depend on the order of the merge, so the
//! answer is identical to the sequential one (verified by tests), down to
//! the bytes of its serialized form. A root that does not branch (a leaf,
//! pruned, or with no surviving selection) leaves nothing to deal and is
//! counted sequentially.
//!
//! Nothing else fans out. A collect's limit bounds its work, and one
//! walker emits its paths in depth-first order. A top-k is one best-first
//! search (`ranked.rs`) or the memoized k-best (`memo.rs`); a top-k fanned
//! out over first-level subtrees measured faster on some catalogs and
//! slower on others, so the ranked tie-break no longer serves a merge of
//! parallel searches (see `ranked.rs` for what it still serves).
//!
//! Workers check the serving layer's wall-clock deadline with the same
//! amortized cadence as the sequential walker, so a parallel count under
//! budget returns a truncated partial instead of stalling an interactive
//! client.

use std::time::Instant;

use crate::explorer::Explorer;
use crate::memo::TranspositionTable;
use crate::stats::PathCounts;

impl Explorer<'_> {
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
    /// by addition either way.
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
        // Deal the children round-robin: worker `w` counts children `w`,
        // `w + workers`, …. Counts and stats merge by addition, so the
        // merge order does not matter.
        let workers = threads.min(children.len());
        let subs = crossbeam::scope(|scope| {
            let (count, children) = (&count, &children);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move |_| {
                        children
                            .iter()
                            .skip(w)
                            .step_by(workers)
                            .map(|(_, child)| count(&self.restarted(*child)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("crossbeam scope failed");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
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
    fn expired_deadline_truncates_parallel_runs() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let past = Some(Instant::now());

        let (counts, truncated) = e.count_paths_parallel_until(4, past, None);
        assert!(truncated);
        assert_eq!(counts.total_paths, 0);
    }
}
