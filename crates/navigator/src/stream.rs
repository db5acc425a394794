//! The depth-first walker: the one engine behind every count, collect and
//! visit of Algorithms 1 and 2.
//!
//! [`PathStream`] holds an explicit DFS stack (frames of partially-consumed
//! [`SelectionIter`]s), so it is resumable at any point and costs O(depth)
//! memory regardless of how many paths the exploration contains —
//! "interactive data exploration" (§1) means the front end pulls a page of
//! paths at a time and resumes later. It is a plain [`Iterator`] over
//! `(Path, LeafKind)`, and every engine mode drives the same crate-private
//! walk underneath:
//!
//! - [`Explorer::visit_paths`] lends the walker's status and selection
//!   stacks to its visitor;
//! - [`Explorer::count_paths`] and [`Explorer::count_paths_memo`] walk it
//!   without ever materializing a leaf (a leaf's status and [`Path`] are
//!   built only when a consumer asks for them) and without stopping at
//!   each one;
//! - the service's count and collect output, paged or not, and the
//!   parallel counter's workers walk it too.
//!
//! With a [`TranspositionTable`] the walk counts: whole subtrees already
//! in the table are answered in bulk — their logical statistics merge into
//! [`PathStream::stats`] and their leaf counts into the running totals —
//! and fully-consumed fresh subtrees are inserted on the way out. Beside
//! the logical statistics the walker keeps a *work* ledger of what really
//! ran: expansions, edges, prunes and the memo hits, misses and evictions.

use std::time::Instant;

use coursenav_catalog::CourseSet;

use crate::cursor::{FrameState, StreamCursor};
use crate::error::ExploreError;
use crate::expand::SelectionIter;
use crate::expiry::Expiry;
use crate::explorer::{Disposition, Expansion, Explorer};
use crate::memo::{StateKey, TranspositionTable};
use crate::path::{LeafKind, Path, PathVisit};
use crate::pruning::{record_prune, Pruner};
use crate::stats::{ExploreStats, PathCounts};
use crate::status::{Classifiable, EnrollmentStatus, Unexpanded};

/// What the walk has accounted for so far.
#[derive(Clone, Copy, Default)]
struct Ledger {
    /// Logical statistics: the whole tree's, with memo hits replayed.
    stats: ExploreStats,
    /// Real work: expansions, edges and prunes this walk performed, plus
    /// its memo hits, misses and evictions.
    work: ExploreStats,
    /// Leaves accounted since the stream was made, reached or answered in
    /// bulk.
    total: u128,
    goal: u128,
}

impl Ledger {
    /// Classifies `state` (through `table` when there is one) and accounts
    /// for it, unless it expands: a leaf or a subtree answered in bulk adds
    /// to the totals, a prune to its counter. The answer says which it
    /// was; a bulk answer's counts are already spent.
    fn enter(
        &mut self,
        explorer: &Explorer<'_>,
        pruner: Option<&Pruner<'_>>,
        table: Option<&TranspositionTable>,
        state: impl Classifiable,
    ) -> Disposition<()> {
        let lookup = |key: &StateKey| table.and_then(|table| table.get_count(key));
        match explorer.disposition(state, pruner, lookup) {
            Disposition::Leaf(kind) => {
                self.total += 1;
                self.goal += u128::from(kind == LeafKind::Goal);
                Disposition::Leaf(kind)
            }
            Disposition::Pruned(reason) => {
                record_prune(&mut self.stats, reason);
                record_prune(&mut self.work, reason);
                Disposition::Pruned(reason)
            }
            Disposition::Known((total, goal, logical)) => {
                // The whole subtree answers in bulk: replay its logical
                // counters as if it had been walked.
                self.stats.merge(&logical);
                self.work.memo_hits += 1;
                self.total += total;
                self.goal += goal;
                Disposition::Known(())
            }
            Disposition::Expand(expansion) => Disposition::Expand(expansion),
        }
    }
}

/// One DFS frame: an expanded node's remaining selections.
struct Frame {
    iter: SelectionIter,
    min_selection: usize,
    emitted: usize,
    floor_skipped: usize,
    /// The ledger when the frame was pushed, kept only by frames this
    /// stream pushed itself while memoizing, so the subtree's totals can be
    /// attributed to its node and inserted into the table when the frame
    /// pops. Cursor-rebuilt frames were partially consumed before we saw
    /// them, so their subtrees can never be cached.
    base: Option<Ledger>,
}

/// When a walk hands control back, besides at its end.
enum Until<'x> {
    /// At every leaf and every subtree answered in bulk.
    Step,
    /// Once `cap` leaves are accounted or `expiry` fires, checked after
    /// every leaf and bulk answer.
    Tally { cap: u128, expiry: &'x mut Expiry },
}

impl Until<'_> {
    /// Whether the walk hands back control after the leaf or bulk answer
    /// it has just accounted for.
    fn stops(&mut self, ledger: &Ledger) -> bool {
        match self {
            Until::Step => true,
            Until::Tally { cap, expiry } => ledger.total >= *cap || expiry.tick(),
        }
    }
}

/// What one step of the walk reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A leaf of this kind. The path to it stays on the stacks until the
    /// next step: [`PathStream::leaf_path`] and [`PathStream::visit`]
    /// read it.
    Leaf(LeafKind),
    /// A whole subtree answered from the table; its leaves are in the
    /// running totals.
    Bulk,
    /// The walk is exhausted.
    Done,
}

/// The leaf the last step reached, popped at the start of the next step.
#[derive(Clone, Copy)]
enum Leaf {
    /// Classified a leaf before expanding: its selection is on the stack,
    /// its status (options not yet computed) is not.
    Entered(Unexpanded),
    /// Expanded with every selection vetoed: its status tops the stack.
    Expanded,
}

/// A pull-based stream of learning paths. Create with
/// [`Explorer::paths_iter`].
pub struct PathStream<'e, 'c> {
    explorer: &'e Explorer<'c>,
    pruner: Option<Pruner<'e>>,
    statuses: Vec<EnrollmentStatus>,
    selections: Vec<CourseSet>,
    frames: Vec<Frame>,
    ledger: Ledger,
    /// The root still needs its disposition check. `statuses` holds only
    /// expanded nodes (plus a pending dead end), so it is empty until the
    /// root expands.
    fresh: bool,
    /// The leaf the last step reached, if it reached one.
    leaf: Option<(LeafKind, Leaf)>,
    /// Transposition table for *counting* streams (see
    /// [`PathStream::with_table`]). `None` for plain streams.
    table: Option<&'e TranspositionTable>,
}

impl<'c> Explorer<'c> {
    /// Lazily iterates every learning path (with its [`LeafKind`]) in
    /// depth-first order, the order [`Explorer::visit_paths`] visits them.
    /// Pruned branches are skipped.
    pub fn paths_iter(&self) -> PathStream<'_, 'c> {
        PathStream::new(self, ExploreStats::default(), true)
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
            return Ok(PathStream::new(self, cursor.stats, true));
        }
        if cursor.frames.is_empty() {
            if !cursor.selections.is_empty() {
                return Err(invalid("an exhausted cursor cannot carry selections"));
            }
            return Ok(PathStream::new(self, cursor.stats, false));
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
        let mut stream = PathStream::new(self, cursor.stats, false);
        stream.statuses = statuses;
        stream.selections = cursor.selections.clone();
        stream.frames = frames;
        Ok(stream)
    }

    /// Counts every path below the start through `table` (`None` walks the
    /// whole tree), stopping once `deadline` passes. Returns the counts
    /// with their logical statistics, the run's work statistics, and
    /// whether the deadline cut the count short (the counts are then lower
    /// bounds, and nothing partial was cached).
    pub(crate) fn count_walk(
        &self,
        table: Option<&TranspositionTable>,
        deadline: Option<Instant>,
    ) -> (PathCounts, ExploreStats, bool) {
        let mut stream = self.paths_iter().with_table(table);
        let truncated = stream.tally(u128::MAX, &mut Expiry::per_step(deadline));
        (stream.counts(), stream.ledger.work, truncated)
    }
}

impl<'e, 'c> PathStream<'e, 'c> {
    /// A plain stream over `explorer` with an empty DFS frontier: fresh
    /// (the root still needs its disposition check) or exhausted.
    fn new(explorer: &'e Explorer<'c>, stats: ExploreStats, fresh: bool) -> PathStream<'e, 'c> {
        PathStream {
            explorer,
            pruner: explorer.pruner(),
            statuses: Vec::new(),
            selections: Vec::new(),
            frames: Vec::new(),
            ledger: Ledger {
                stats,
                ..Ledger::default()
            },
            fresh,
            leaf: None,
            table: None,
        }
    }

    /// Makes this a *counting* stream through `table` (`None` keeps it
    /// plain): whole subtrees already in the transposition table are
    /// answered in bulk ([`Step::Bulk`]: their logical statistics merge
    /// into [`PathStream::stats`] and their leaves into the totals, but
    /// their paths are never stepped onto), and fully-consumed fresh
    /// subtrees are inserted on the way out. Cursors stay valid (a bulk
    /// hit looks exactly like a completed child), but the paths it yields
    /// skip memoized subtrees, so a table-backed stream only counts.
    /// Frames rebuilt from a cursor are never inserted (their subtrees
    /// were partially consumed before the pause).
    pub(crate) fn with_table(mut self, table: Option<&'e TranspositionTable>) -> Self {
        self.table = table;
        self
    }
}

impl PathStream<'_, '_> {
    /// Exploration statistics accumulated so far (complete once the stream
    /// is exhausted).
    pub fn stats(&self) -> &ExploreStats {
        &self.ledger.stats
    }

    /// Snapshots the paused DFS frontier (plus accumulated stats) so the
    /// exploration can be resumed later — possibly in another process —
    /// with [`Explorer::resume_paths_iter`]. Call between [`Iterator::next`]
    /// calls; the snapshot is O(depth) regardless of how many paths remain.
    pub fn cursor(&self) -> StreamCursor {
        // A pending leaf's selection is still on the stack; the frontier
        // it resumes from holds one selection per frame below the root.
        let depth = self.frames.len().saturating_sub(1);
        StreamCursor {
            selections: self.selections[..depth].to_vec(),
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
            stats: self.ledger.stats,
        }
    }

    /// The leaves accounted since this stream was made, with the logical
    /// statistics so far.
    pub(crate) fn counts(&self) -> PathCounts {
        PathCounts {
            total_paths: self.ledger.total,
            goal_paths: self.ledger.goal,
            stats: self.ledger.stats,
        }
    }

    /// Lends the path to the leaf the last step reached to `visitor`,
    /// computing the leaf's status only now.
    ///
    /// # Panics
    /// Panics unless the last step reached a leaf.
    pub(crate) fn visit<R>(&mut self, visitor: impl FnOnce(PathVisit<'_>) -> R) -> R {
        let (kind, leaf) = self.leaf.expect("the last step reached a leaf");
        let entered = match leaf {
            Leaf::Entered(state) => {
                // The root is the only leaf reached with no selection, and
                // it arrives whole.
                let status = if self.selections.is_empty() {
                    *self.explorer.start()
                } else {
                    state.materialize(self.explorer.catalog())
                };
                self.statuses.push(status);
                true
            }
            Leaf::Expanded => false,
        };
        let out = visitor(PathVisit {
            statuses: &self.statuses,
            selections: &self.selections,
            kind,
        });
        if entered {
            self.statuses.pop();
        }
        out
    }

    /// The path to the leaf the last step reached, owned.
    pub(crate) fn leaf_path(&mut self) -> Path {
        self.visit(|visit| visit.to_path())
    }

    /// Walks until the walk is exhausted (`false`), or until it has
    /// accounted `cap` leaves or `expiry` fires (`true`), without stopping
    /// at each leaf. Both checks run before the first step and after every
    /// leaf and bulk answer, so a stopped walk's [`PathStream::cursor`]
    /// resumes exactly where it stopped.
    pub(crate) fn tally(&mut self, cap: u128, expiry: &mut Expiry) -> bool {
        let mut until = Until::Tally { cap, expiry };
        until.stops(&self.ledger) || self.walk(&mut until) != Step::Done
    }

    /// Advances the walk to its next leaf, bulk-answered subtree, or end.
    pub(crate) fn step(&mut self) -> Step {
        self.walk(&mut Until::Step)
    }

    /// Advances the walk until `until` stops it at a leaf or a bulk
    /// answer, or to its end. A leaf it stops at stays on the stacks until
    /// the next walk.
    fn walk(&mut self, until: &mut Until<'_>) -> Step {
        match self.leaf.take() {
            Some((_, Leaf::Entered(_))) => {
                self.selections.pop();
            }
            Some((_, Leaf::Expanded)) => self.backtrack(),
            None => {}
        }
        if self.fresh {
            self.fresh = false;
            let root = *self.explorer.start();
            let pruner = self.pruner.as_ref();
            match self.ledger.enter(self.explorer, pruner, self.table, root) {
                Disposition::Leaf(kind) if until.stops(&self.ledger) => {
                    self.leaf = Some((kind, Leaf::Entered(root.into())));
                    return Step::Leaf(kind);
                }
                Disposition::Known(()) if until.stops(&self.ledger) => return Step::Bulk,
                Disposition::Expand(expansion) => self.push(expansion),
                _ => {}
            }
        }
        loop {
            let Some(frame) = self.frames.last_mut() else {
                return Step::Done;
            };
            let status = self.statuses.last().expect("frame implies a node");
            // Settle the top frame's children in order until one expands.
            let mut expanding = None;
            for selection in frame.iter.by_ref() {
                if selection.len() < frame.min_selection {
                    frame.floor_skipped += 1;
                    self.ledger.stats.pruned_time += 1;
                    self.ledger.work.pruned_time += 1;
                    continue;
                }
                if !self.explorer.selection_allowed(&selection) {
                    continue;
                }
                frame.emitted += 1;
                self.ledger.stats.edges_created += 1;
                self.ledger.work.edges_created += 1;
                let child = status.child(&selection);
                let pruner = self.pruner.as_ref();
                match self.ledger.enter(self.explorer, pruner, self.table, child) {
                    Disposition::Leaf(kind) if until.stops(&self.ledger) => {
                        self.selections.push(selection);
                        self.leaf = Some((kind, Leaf::Entered(child)));
                        return Step::Leaf(kind);
                    }
                    Disposition::Known(()) if until.stops(&self.ledger) => return Step::Bulk,
                    Disposition::Expand(expansion) => {
                        expanding = Some((selection, expansion));
                        break;
                    }
                    _ => {}
                }
            }
            if let Some((selection, expansion)) = expanding {
                self.selections.push(selection);
                self.push(expansion);
                continue;
            }
            // Frame exhausted: maybe a filtered-to-death dead end.
            let frame = self.frames.pop().expect("checked above");
            let dead_end = frame.emitted == 0 && frame.floor_skipped == 0;
            if dead_end {
                self.ledger.total += 1;
            }
            if let (Some(table), Some(base)) = (self.table, frame.base) {
                // Fully consumed fresh subtree: everything seen since the
                // frame was pushed belongs to this node.
                let status = self.statuses.last().expect("frame implies a node");
                self.ledger.work.memo_evictions += table.put_count(
                    self.explorer
                        .table_key(status.semester(), status.completed()),
                    self.ledger.total - base.total,
                    self.ledger.goal - base.goal,
                    self.ledger.stats.since(&base.stats),
                );
            }
            if dead_end && until.stops(&self.ledger) {
                self.leaf = Some((LeafKind::DeadEnd, Leaf::Expanded));
                return Step::Leaf(LeafKind::DeadEnd);
            }
            self.backtrack();
        }
    }

    /// Expands a node: accounts for the expansion (and its memo miss) and
    /// pushes its status and a frame over its selections.
    fn push(&mut self, expansion: Expansion) {
        let base = self.table.map(|table| {
            table.record_miss();
            self.ledger.work.memo_misses += 1;
            self.ledger
        });
        self.ledger.stats.nodes_expanded += 1;
        self.ledger.work.nodes_expanded += 1;
        self.frames.push(Frame {
            iter: expansion.selections(self.explorer.max_per_semester()),
            min_selection: expansion.min_selection,
            emitted: 0,
            floor_skipped: 0,
            base,
        });
        self.statuses.push(expansion.status);
    }

    /// Pops the finished node off the path stack.
    fn backtrack(&mut self) {
        self.statuses.pop();
        self.selections.pop();
    }
}

impl Iterator for PathStream<'_, '_> {
    type Item = (Path, LeafKind);

    fn next(&mut self) -> Option<(Path, LeafKind)> {
        loop {
            match self.step() {
                Step::Leaf(kind) => return Some((self.leaf_path(), kind)),
                Step::Bulk => {}
                Step::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::eager;
    use crate::goal::Goal;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
    use std::ops::ControlFlow;

    fn setting() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    #[test]
    fn stream_matches_oracle_exactly() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let e = Explorer::deadline_driven(&s.catalog, start, s.start + 3, 2).unwrap();
        let (from_oracle, _) = eager::enumerate(&e);
        let from_stream: Vec<(Path, LeafKind)> = e.paths_iter().collect();
        assert_eq!(from_oracle.len(), from_stream.len());
        assert_eq!(from_oracle, from_stream);
        let mut from_visitor: Vec<(Path, LeafKind)> = Vec::new();
        e.visit_paths(|v| {
            from_visitor.push((v.to_path(), v.kind));
            ControlFlow::Continue(())
        });
        assert_eq!(from_oracle, from_visitor);
    }

    #[test]
    fn stream_matches_oracle_on_goal_runs() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let collected: Vec<Path> = eager::enumerate(&e)
            .0
            .into_iter()
            .filter(|(_, kind)| *kind == LeafKind::Goal)
            .map(|(path, _)| path)
            .collect();
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
    fn stream_stats_match_oracle_stats() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let (_, oracle_stats) = eager::enumerate(&e);
        let mut stream = e.paths_iter();
        for _ in stream.by_ref() {}
        assert_eq!(*stream.stats(), oracle_stats);
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

    /// The oracle's path counts and logical statistics.
    fn oracle_counts(e: &Explorer<'_>) -> PathCounts {
        let (paths, stats) = eager::enumerate(e);
        PathCounts {
            total_paths: paths.len() as u128,
            goal_paths: paths.iter().filter(|(_, k)| *k == LeafKind::Goal).count() as u128,
            stats,
        }
    }

    #[test]
    fn counting_stream_with_memo_matches_oracle_counts() {
        let s = setting();
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let plain = oracle_counts(&e);
        let table = TranspositionTable::new(1 << 16);
        for round in 0..2 {
            let hits_before = table.snapshot().hits;
            let mut stream = e.paths_iter().with_table(Some(&table));
            while stream.step() != Step::Done {}
            let counts = stream.counts();
            assert_eq!(counts.total_paths, plain.total_paths, "round {round}");
            assert_eq!(counts.goal_paths, plain.goal_paths, "round {round}");
            assert_eq!(*stream.stats(), plain.stats, "round {round}");
            if round == 1 {
                assert!(table.snapshot().hits > hits_before, "warm round hits");
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
            let mut warm = e.paths_iter().with_table(Some(&table));
            while warm.step() != Step::Done {}
        }
        // Page through with a fresh memoized stream, snapshotting the
        // cursor every few steps and resuming from its JSON round-trip.
        let mut total = 0u128;
        let mut goal_n = 0u128;
        let mut stream = e.paths_iter().with_table(Some(&table));
        let last_stats = loop {
            let done = (0..3).any(|_| stream.step() == Step::Done);
            let counts = stream.counts();
            total += counts.total_paths;
            goal_n += counts.goal_paths;
            if done {
                break counts.stats;
            }
            let json = serde_json::to_string(&stream.cursor()).expect("cursor serializes");
            let cursor: StreamCursor = serde_json::from_str(&json).expect("cursor parses");
            stream = e
                .resume_paths_iter(&cursor)
                .expect("cursor stays valid across bulk hits")
                .with_table(Some(&table));
        };
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
