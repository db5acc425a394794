//! Lazy path iteration.
//!
//! [`Explorer::visit_paths`] inverts control (the engine calls you);
//! [`PathStream`] offers the same streaming exploration as a plain
//! [`Iterator`], which composes with adapters, `for` loops, and pagination
//! — "interactive data exploration" (§1) means the front end pulls a page
//! of paths at a time and resumes later.
//!
//! The stream holds an explicit DFS stack (frames of partially-consumed
//! [`SelectionIter`]s), so it is resumable at any point and costs O(depth)
//! memory regardless of how many paths the exploration contains.

use coursenav_catalog::CourseSet;

use crate::cursor::{FrameState, StreamCursor};
use crate::error::ExploreError;
use crate::expand::SelectionIter;
use crate::explorer::{Disposition, Explorer};
use crate::memo::{StateKey, TranspositionTable};
use crate::path::{LeafKind, Path};
use crate::pruning::{record_prune, Pruner};
use crate::stats::ExploreStats;
use crate::status::{Classifiable, EnrollmentStatus};

/// Counters captured when a frame is pushed *by this stream* (not rebuilt
/// from a cursor), so the subtree's totals can be attributed to its node
/// when the frame pops and inserted into the transposition table.
#[derive(Clone, Copy)]
struct FrameBase {
    total: u128,
    goal: u128,
    stats: ExploreStats,
}

/// One DFS frame: an expanded node's remaining selections.
struct Frame {
    iter: SelectionIter,
    min_selection: usize,
    emitted: usize,
    floor_skipped: usize,
    /// `Some` only for frames this stream pushed itself while memoizing;
    /// cursor-rebuilt frames were partially consumed before we saw them,
    /// so their subtrees can never be cached.
    base: Option<FrameBase>,
}

/// A pull-based stream of learning paths. Create with
/// [`Explorer::paths_iter`].
pub struct PathStream<'e, 'c> {
    explorer: &'e Explorer<'c>,
    pruner: Option<Pruner<'e>>,
    statuses: Vec<EnrollmentStatus>,
    selections: Vec<CourseSet>,
    frames: Vec<Frame>,
    stats: ExploreStats,
    /// The root still needs its disposition check. `statuses` holds only
    /// expanded nodes (plus, transiently, a leaf being emitted), so it is
    /// empty until the root expands.
    fresh: bool,
    /// Transposition table for *counting* streams (see
    /// [`Explorer::count_paths_iter_memo`]). `None` for plain streams.
    table: Option<&'e TranspositionTable>,
    /// Memo hit/miss/eviction counters for this stream (work stats).
    work: ExploreStats,
    /// All leaves accounted so far, yielded or bulk-answered.
    total_seen: u128,
    goal_seen: u128,
    /// Leaves answered from the table since the last
    /// [`PathStream::take_bulk`] — never yielded as items.
    bulk_total: u128,
    bulk_goal: u128,
}

impl<'c> Explorer<'c> {
    /// Lazily iterates every learning path (with its [`LeafKind`]) in the
    /// same depth-first order as [`Explorer::visit_paths`]. Pruned branches
    /// are skipped, as in the visitor API.
    pub fn paths_iter(&self) -> PathStream<'_, 'c> {
        PathStream {
            explorer: self,
            pruner: self.pruner(),
            statuses: Vec::new(),
            selections: Vec::new(),
            frames: Vec::new(),
            stats: ExploreStats::default(),
            fresh: true,
            table: None,
            work: ExploreStats::default(),
            total_seen: 0,
            goal_seen: 0,
            bulk_total: 0,
            bulk_goal: 0,
        }
    }

    /// A *counting* stream through `table`: identical to
    /// [`Explorer::paths_iter`] except that whole subtrees already in the
    /// transposition table are answered in bulk — their logical statistics
    /// merge into [`PathStream::stats`] and their leaf counts accumulate
    /// for [`PathStream::take_bulk`] instead of being yielded as items —
    /// and fully-consumed fresh subtrees are inserted on the way out.
    /// Cursors stay valid (a bulk hit looks exactly like a completed
    /// child), but yielded items skip memoized subtrees, so this stream is
    /// only suitable for counting, not for collecting paths.
    pub(crate) fn count_paths_iter_memo<'e>(
        &'e self,
        table: &'e TranspositionTable,
    ) -> PathStream<'e, 'c> {
        let mut stream = self.paths_iter();
        stream.table = Some(table);
        stream
    }

    /// Resumes a *counting* stream (see
    /// [`Explorer::count_paths_iter_memo`]) from a frontier snapshot.
    /// Frames rebuilt from the cursor are never inserted into the table
    /// (their subtrees were partially consumed before the pause), but
    /// lookups and inserts resume for everything explored from here on.
    pub(crate) fn resume_count_paths_iter_memo<'e>(
        &'e self,
        cursor: &StreamCursor,
        table: &'e TranspositionTable,
    ) -> Result<PathStream<'e, 'c>, ExploreError> {
        let mut stream = self.resume_paths_iter(cursor)?;
        stream.table = Some(table);
        Ok(stream)
    }

    /// Lazily iterates only the goal-satisfying paths.
    pub fn goal_paths_iter(&self) -> impl Iterator<Item = Path> + '_ {
        self.paths_iter()
            .filter(|(_, kind)| *kind == LeafKind::Goal)
            .map(|(path, _)| path)
    }

    /// Rebuilds a [`PathStream`] from a frontier snapshot taken by
    /// [`PathStream::cursor`] on a stream of this same exploration. The
    /// resumed stream yields exactly the paths the paused one still had,
    /// and its final [`PathStream::stats`] match an uninterrupted run.
    ///
    /// Every step of the snapshot is re-validated against the catalog (the
    /// spine is replayed from the start node, never trusted), so a
    /// tampered or foreign cursor yields [`ExploreError::InvalidCursor`]
    /// rather than a panic or an impossible path.
    pub fn resume_paths_iter(
        &self,
        cursor: &StreamCursor,
    ) -> Result<PathStream<'_, 'c>, ExploreError> {
        let invalid = |msg: &str| ExploreError::InvalidCursor(msg.to_string());
        if cursor.fresh {
            if !cursor.frames.is_empty() || !cursor.selections.is_empty() {
                return Err(invalid("a fresh cursor cannot carry frontier state"));
            }
            let mut stream = self.paths_iter();
            stream.stats = cursor.stats;
            return Ok(stream);
        }
        if cursor.frames.is_empty() {
            if !cursor.selections.is_empty() {
                return Err(invalid("an exhausted cursor cannot carry selections"));
            }
            return Ok(PathStream {
                explorer: self,
                pruner: self.pruner(),
                statuses: Vec::new(),
                selections: Vec::new(),
                frames: Vec::new(),
                stats: cursor.stats,
                fresh: false,
                table: None,
                work: ExploreStats::default(),
                total_seen: 0,
                goal_seen: 0,
                bulk_total: 0,
                bulk_goal: 0,
            });
        }
        if cursor.selections.len() + 1 != cursor.frames.len() {
            return Err(invalid("frontier depth does not match its selections"));
        }
        // Replay the DFS spine from the start node, validating each step.
        let mut statuses = vec![*self.start()];
        for selection in &cursor.selections {
            let status = statuses.last().expect("spine starts nonempty");
            if status.semester() >= self.deadline() {
                return Err(invalid("frontier extends past the deadline"));
            }
            if selection.len() > self.max_per_semester() {
                return Err(invalid("selection exceeds the per-semester cap"));
            }
            if !selection.is_subset(status.options()) {
                return Err(invalid("selection is not drawn from the node's options"));
            }
            statuses.push(status.advance(self.catalog(), selection));
        }
        // Rebuild each frame's selection iterator over its node's options.
        let mut frames = Vec::with_capacity(cursor.frames.len());
        for (state, status) in cursor.frames.iter().zip(&statuses) {
            let iter =
                SelectionIter::resume(status.options(), self.max_per_semester(), &state.iter)
                    .ok_or_else(|| invalid("selection-iterator state is inconsistent"))?;
            frames.push(Frame {
                iter,
                min_selection: state.min_selection as usize,
                emitted: state.emitted as usize,
                floor_skipped: state.floor_skipped as usize,
                base: None,
            });
        }
        Ok(PathStream {
            explorer: self,
            pruner: self.pruner(),
            statuses,
            selections: cursor.selections.clone(),
            frames,
            stats: cursor.stats,
            fresh: false,
            table: None,
            work: ExploreStats::default(),
            total_seen: 0,
            goal_seen: 0,
            bulk_total: 0,
            bulk_goal: 0,
        })
    }
}

impl PathStream<'_, '_> {
    /// Exploration statistics accumulated so far (complete once the stream
    /// is exhausted).
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// Snapshots the paused DFS frontier (plus accumulated stats) so the
    /// exploration can be resumed later — possibly in another process —
    /// with [`Explorer::resume_paths_iter`]. Call between [`Iterator::next`]
    /// calls; the snapshot is O(depth) regardless of how many paths remain.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            selections: self.selections.clone(),
            frames: self
                .frames
                .iter()
                .map(|f| FrameState {
                    iter: f.iter.state(),
                    min_selection: f.min_selection as u32,
                    emitted: f.emitted as u64,
                    floor_skipped: f.floor_skipped as u64,
                })
                .collect(),
            fresh: self.fresh,
            stats: self.stats,
        }
    }

    fn current_path(&self) -> Path {
        Path::new(self.statuses.clone(), self.selections.clone())
    }

    /// Handles `state`, the node the last entry of `selections` leads to
    /// (the root when `selections` is empty): either returns a finished
    /// path (leaf), or pushes its status and a frame to expand it (and
    /// returns `None` to keep driving), or drops it (pruned, or answered
    /// in bulk from the table).
    fn enter_node(&mut self, state: impl Classifiable) -> Option<(Path, LeafKind)> {
        let table = self.table;
        let lookup = |key: &StateKey| table.and_then(|table| table.get_count(key));
        let expansion = match self
            .explorer
            .disposition(state, self.pruner.as_ref(), lookup)
        {
            Disposition::Leaf(kind) => {
                self.total_seen += 1;
                if kind == LeafKind::Goal {
                    self.goal_seen += 1;
                }
                self.statuses
                    .push(state.materialize(self.explorer.catalog()));
                let path = self.current_path();
                self.backtrack();
                return Some((path, kind));
            }
            Disposition::Pruned(reason) => {
                record_prune(&mut self.stats, reason);
                self.selections.pop();
                return None;
            }
            Disposition::Known((total, goal, logical)) => {
                // The whole subtree answers in bulk: replay its logical
                // counters and step past it exactly as if its last child
                // had just finished.
                self.work.memo_hits += 1;
                self.stats.merge(&logical);
                self.total_seen += total;
                self.goal_seen += goal;
                self.bulk_total += total;
                self.bulk_goal += goal;
                self.selections.pop();
                return None;
            }
            Disposition::Expand(expansion) => expansion,
        };
        if let Some(table) = self.table {
            table.record_miss();
            self.work.memo_misses += 1;
        }
        let base = self.table.map(|_| FrameBase {
            total: self.total_seen,
            goal: self.goal_seen,
            stats: self.stats,
        });
        self.stats.nodes_expanded += 1;
        self.frames.push(Frame {
            iter: expansion.selections(self.explorer.max_per_semester()),
            min_selection: expansion.min_selection,
            emitted: 0,
            floor_skipped: 0,
            base,
        });
        self.statuses.push(expansion.status);
        None
    }

    /// Drains the leaf counts answered from the transposition table since
    /// the last call (counting streams only; always zero otherwise).
    /// These leaves were never yielded as items, so a counting consumer
    /// must add them to its totals after every [`Iterator::next`] call —
    /// including the final `None`, which a bulk-answered root produces
    /// immediately.
    pub(crate) fn take_bulk(&mut self) -> (u128, u128) {
        let bulk = (self.bulk_total, self.bulk_goal);
        self.bulk_total = 0;
        self.bulk_goal = 0;
        bulk
    }

    /// Memo hit/miss/eviction counters accumulated by this stream (work
    /// stats — never part of the response's logical statistics).
    pub fn memo_work(&self) -> ExploreStats {
        self.work
    }

    /// Pops the just-finished node (leaf or pruned) off the path stack.
    fn backtrack(&mut self) {
        self.statuses.pop();
        self.selections.pop();
    }
}

impl Iterator for PathStream<'_, '_> {
    type Item = (Path, LeafKind);

    fn next(&mut self) -> Option<(Path, LeafKind)> {
        if self.fresh {
            self.fresh = false;
            if let Some(leaf) = self.enter_node(*self.explorer.start()) {
                return Some(leaf);
            }
        }
        loop {
            let Some(frame) = self.frames.last_mut() else {
                return None; // exploration exhausted
            };
            // Pull the next viable selection from the top frame.
            let mut next_child: Option<CourseSet> = None;
            for selection in frame.iter.by_ref() {
                if selection.len() < frame.min_selection {
                    frame.floor_skipped += 1;
                    self.stats.pruned_time += 1;
                    continue;
                }
                let status = self.statuses.last().expect("frame implies a node");
                if !self.explorer.selection_allowed(status, &selection) {
                    continue;
                }
                next_child = Some(selection);
                break;
            }
            match next_child {
                Some(selection) => {
                    let frame = self.frames.last_mut().expect("checked above");
                    frame.emitted += 1;
                    self.stats.edges_created += 1;
                    let status = *self.statuses.last().expect("frame implies a node");
                    self.selections.push(selection);
                    if let Some(leaf) = self.enter_node(status.child(&selection)) {
                        return Some(leaf);
                    }
                }
                None => {
                    // Frame exhausted: maybe a filtered-to-death dead end.
                    let frame = self.frames.pop().expect("checked above");
                    let dead_end = frame.emitted == 0 && frame.floor_skipped == 0;
                    if dead_end {
                        self.total_seen += 1;
                    }
                    if let (Some(table), Some(base)) = (self.table, frame.base) {
                        // Fully consumed fresh subtree: everything seen
                        // since the frame was pushed belongs to this node.
                        let status = self.statuses.last().expect("frame implies a node");
                        self.work.memo_evictions += table.put_count(
                            status.state_key(),
                            self.total_seen - base.total,
                            self.goal_seen - base.goal,
                            self.stats.since(&base.stats),
                        );
                    }
                    if dead_end {
                        let path = self.current_path();
                        self.backtrack();
                        return Some((path, LeafKind::DeadEnd));
                    }
                    self.backtrack();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
    use std::ops::ControlFlow;

    fn setting() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    #[test]
    fn stream_matches_visitor_exactly() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start + 3, 2).unwrap();
        let mut from_visitor: Vec<(Path, LeafKind)> = Vec::new();
        e.visit_paths(|v| {
            from_visitor.push((v.to_path(), v.kind));
            ControlFlow::Continue(())
        });
        let from_stream: Vec<(Path, LeafKind)> = e.paths_iter().collect();
        assert_eq!(from_visitor.len(), from_stream.len());
        assert_eq!(from_visitor, from_stream);
    }

    #[test]
    fn stream_matches_visitor_on_goal_runs() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let collected = e.collect_goal_paths();
        let streamed: Vec<Path> = e.goal_paths_iter().collect();
        assert_eq!(collected, streamed);
    }

    #[test]
    fn stream_is_lazy_and_resumable() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start + 3, 2).unwrap();
        let total = e.count_paths().total_paths as usize;
        assert!(total > 10);
        let mut stream = e.paths_iter();
        // First page.
        let page1: Vec<_> = stream.by_ref().take(5).collect();
        assert_eq!(page1.len(), 5);
        // Resume for the rest.
        let rest: Vec<_> = stream.collect();
        assert_eq!(page1.len() + rest.len(), total);
    }

    #[test]
    fn stream_stats_match_visitor_stats() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let visitor_stats = e.visit_paths(|_| ControlFlow::Continue(()));
        let mut stream = e.paths_iter();
        for _ in stream.by_ref() {}
        assert_eq!(*stream.stats(), visitor_stats);
    }

    #[test]
    fn snapshot_resume_yields_exact_suffix_everywhere() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start + 3, 2).unwrap();
        let all: Vec<_> = e.paths_iter().collect();
        let final_stats = {
            let mut st = e.paths_iter();
            for _ in st.by_ref() {}
            *st.stats()
        };
        for k in 0..=all.len() {
            let mut stream = e.paths_iter();
            for _ in 0..k {
                stream.next().expect("prefix within bounds");
            }
            // Round-trip the cursor through JSON, as the serving layer does.
            let json = serde_json::to_string(&stream.cursor()).expect("cursor serializes");
            let cursor: StreamCursor = serde_json::from_str(&json).expect("cursor parses");
            let mut resumed = e.resume_paths_iter(&cursor).expect("cursor is valid");
            let suffix: Vec<_> = resumed.by_ref().collect();
            assert_eq!(suffix, all[k..].to_vec(), "k={k}");
            assert_eq!(*resumed.stats(), final_stats, "k={k}");
        }
    }

    #[test]
    fn snapshot_resume_matches_on_goal_runs_with_pruning() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let all: Vec<_> = e.paths_iter().collect();
        assert!(all.len() > 10);
        for k in (0..=all.len()).step_by(7) {
            let mut stream = e.paths_iter();
            for _ in 0..k {
                stream.next().expect("prefix within bounds");
            }
            let resumed = e
                .resume_paths_iter(&stream.cursor())
                .expect("cursor is valid");
            let suffix: Vec<_> = resumed.collect();
            assert_eq!(suffix, all[k..].to_vec(), "k={k}");
        }
    }

    #[test]
    fn tampered_cursors_error_instead_of_panicking() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start + 3, 2).unwrap();
        let mut stream = e.paths_iter();
        for _ in 0..5 {
            stream.next().expect("enough paths");
        }
        let good = stream.cursor();
        assert!(!good.frames.is_empty(), "mid-stream cursor has a frontier");
        assert!(e.resume_paths_iter(&good).is_ok());

        let mut misaligned = good.clone();
        misaligned.selections.push(CourseSet::EMPTY);
        assert!(e.resume_paths_iter(&misaligned).is_err());

        let mut bad_indices = good.clone();
        if let Some(frame) = bad_indices.frames.first_mut() {
            frame.iter.indices = vec![900, 901];
        }
        assert!(e.resume_paths_iter(&bad_indices).is_err());

        let mut fresh_with_state = good.clone();
        fresh_with_state.fresh = true;
        assert!(e.resume_paths_iter(&fresh_with_state).is_err());
    }

    #[test]
    fn counting_stream_with_memo_matches_plain_counts() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let plain = e.count_paths();
        let table = TranspositionTable::new(1 << 16);
        for round in 0..2 {
            let mut stream = e.count_paths_iter_memo(&table);
            let mut total = 0u128;
            let mut goal_n = 0u128;
            loop {
                let item = stream.next();
                let (bt, bg) = stream.take_bulk();
                total += bt;
                goal_n += bg;
                match item {
                    Some((_, kind)) => {
                        total += 1;
                        goal_n += u128::from(kind == LeafKind::Goal);
                    }
                    None => break,
                }
            }
            assert_eq!(total, plain.total_paths, "round {round}");
            assert_eq!(goal_n, plain.goal_paths, "round {round}");
            assert_eq!(*stream.stats(), plain.stats, "round {round}");
            if round == 1 {
                assert!(stream.memo_work().memo_hits > 0, "warm round hits");
            }
        }
    }

    #[test]
    fn counting_stream_cursor_survives_memo_bulk_hits() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let plain = e.count_paths();
        let table = TranspositionTable::new(1 << 16);
        // Warm the table so the paged run below takes bulk hits.
        {
            let mut warm = e.count_paths_iter_memo(&table);
            while warm.next().is_some() {}
            warm.take_bulk();
        }
        // Page through with a fresh memoized stream, snapshotting the
        // cursor every few pulls and resuming from its JSON round-trip.
        let mut total = 0u128;
        let mut goal_n = 0u128;
        let mut stream = e.count_paths_iter_memo(&table);
        let mut last_stats;
        loop {
            let mut done = false;
            for _ in 0..3 {
                let item = stream.next();
                let (bt, bg) = stream.take_bulk();
                total += bt;
                goal_n += bg;
                match item {
                    Some((_, kind)) => {
                        total += 1;
                        goal_n += u128::from(kind == LeafKind::Goal);
                    }
                    None => {
                        done = true;
                        break;
                    }
                }
            }
            last_stats = *stream.stats();
            if done {
                break;
            }
            let json = serde_json::to_string(&stream.cursor()).expect("cursor serializes");
            let cursor: StreamCursor = serde_json::from_str(&json).expect("cursor parses");
            stream = e
                .resume_count_paths_iter_memo(&cursor, &table)
                .expect("cursor stays valid across bulk hits");
        }
        assert_eq!(total, plain.total_paths);
        assert_eq!(goal_n, plain.goal_paths);
        assert_eq!(last_stats, plain.stats);
    }

    #[test]
    fn trivial_start_at_deadline_yields_one() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start, 3).unwrap();
        let all: Vec<_> = e.paths_iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, LeafKind::Deadline);
        assert_eq!(all[0].0.len(), 0);
    }
}
