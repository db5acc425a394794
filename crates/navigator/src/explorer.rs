//! The exploration engine: Algorithms 1 and 2 of the paper in three modes.
//!
//! [`Explorer`] bundles one exploration request — catalog, start status,
//! deadline `d`, per-semester cap `m`, optional goal, pruning and filter
//! configuration — and runs it as:
//!
//! - [`Explorer::build_graph`]: materialize the learning graph under a node
//!   budget (Algorithm 1's literal output; the budget reproduces the
//!   paper's Table 2 "N/A" out-of-memory cells);
//! - [`Explorer::visit_paths`]: stream every learning path through a
//!   visitor without materializing the graph — the mode that scales to the
//!   paper's 10⁵–10⁷-path regimes;
//! - [`Explorer::count_paths`]: count paths and collect statistics only.
//!
//! Visiting and counting, like the lazy [`Explorer::paths_iter`] and every
//! count and collect the service answers, drive one depth-first walker,
//! [`crate::PathStream`]. This module holds what it shares with every other
//! engine loop: the two-phase classifier `Explorer::disposition`, the
//! selection filters, and the root expansion the parallel fan-out deals.
//!
//! With no goal configured the engine is exactly **Algorithm 1**
//! (deadline-driven, §4.1). Setting a goal turns it into **Algorithm 2**
//! (goal-driven, §4.2): goal-satisfying nodes become terminal, and the
//! [`PruneConfig`]-selected strategies cut hopeless nodes before expansion.

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

use coursenav_catalog::{Catalog, CourseSet, Semester};

use crate::error::ExploreError;
use crate::expand::{SelectionIter, WaitPolicy};
use crate::filter::SelectionFilter;
use crate::goal::Goal;
use crate::graph::{LearningGraph, NodeId, NodeKind};
use crate::memo::{StateKey, TranspositionTable};
use crate::path::{LeafKind, Path, PathVisit};
use crate::pruning::{record_prune, OfferedRest, PruneConfig, PruneDecision, PruneReason, Pruner};
use crate::stats::{ExploreStats, PathCounts};
use crate::status::{Classifiable, EnrollmentStatus, Unexpanded};
use crate::stream::Step;

/// How a node should be handled, decided before expansion by
/// [`Explorer::disposition`]. `T` is whatever the caller's table holds for
/// a state it has already resolved.
pub(crate) enum Disposition<T> {
    Leaf(LeafKind),
    Pruned(PruneReason),
    /// The caller's table already resolved this state.
    Known(T),
    Expand(Expansion),
}

/// A node that expands: its materialized status and how to enumerate its
/// selections.
pub(crate) struct Expansion {
    pub(crate) status: EnrollmentStatus,
    /// Strategic floor on selection size (§4.2.1's `min_i`); 0 = none.
    pub(crate) min_selection: usize,
    /// Emit the empty "wait" selection.
    pub(crate) include_empty: bool,
}

impl Expansion {
    /// Every candidate selection of at most `max_per_semester` options,
    /// the empty one first when waiting is allowed.
    pub(crate) fn selections(&self, max_per_semester: usize) -> SelectionIter {
        if self.include_empty {
            SelectionIter::with_empty(self.status.options(), max_per_semester)
        } else {
            SelectionIter::new(self.status.options(), max_per_semester)
        }
    }
}

/// The root's first-level subtrees, in selection order, with the root's
/// own statistics (see [`Explorer::expand_root`]).
type Branches = (ExploreStats, Vec<(CourseSet, Unexpanded)>);

/// The lookup of callers that keep no table of resolved states.
pub(crate) fn no_table(_: &StateKey) -> Option<Infallible> {
    None
}

/// The longest horizon, in semesters from start to deadline, an
/// exploration accepts. An explorer holds per-semester tables over its
/// horizon and the walker's depth is the horizon, so without a bound one
/// request's deadline could ask for any amount of memory; the paper's
/// experiments and every shipped example span at most 8.
pub const MAX_HORIZON_SEMESTERS: i64 = 64;

/// One exploration request over a catalog. See the module docs.
#[derive(Clone)]
pub struct Explorer<'a> {
    catalog: &'a Catalog,
    start: EnrollmentStatus,
    deadline: Semester,
    max_per_semester: usize,
    wait_policy: WaitPolicy,
    goal: Option<Goal>,
    prune: PruneConfig,
    strategic_selections: bool,
    filters: Vec<Arc<dyn SelectionFilter>>,
    offered: OfferedRest,
    live: LiveCourses,
}

/// `Live(s)` for every semester `s` from a start to `d − 1`: each course
/// offered in `s … d−1`, plus each course named in those courses'
/// prerequisite expressions. Nothing below a state in `s` can take, or
/// test the prerequisites against, a course outside it.
#[derive(Clone)]
struct LiveCourses {
    /// `Semester::index()` of `masks[0]`.
    first: i32,
    /// `None` where `Live(s)` covers the whole catalog.
    masks: Arc<[Option<CourseSet>]>,
}

impl LiveCourses {
    fn new(catalog: &Catalog, offered: &OfferedRest, start: Semester, deadline: Semester) -> Self {
        let all = catalog.all_courses();
        let span = (deadline - start).max(0) as usize;
        let mut masks = vec![None; span];
        let mut live = CourseSet::EMPTY;
        // Built back to front, as suffix unions.
        for i in (0..span).rev() {
            let semester = start + i as i32;
            let offered_here = offered.from(semester);
            for id in &offered_here.difference(&offered.from(semester.next())) {
                catalog.course(id).prereq().for_each_atom(&mut |&atom| {
                    live.insert(atom);
                });
            }
            live.union_with(&offered_here);
            masks[i] = (!all.is_subset(&live)).then_some(live);
        }
        LiveCourses {
            first: start.index(),
            masks: masks.into(),
        }
    }

    /// `Live(semester)`, or `None` when it covers the catalog or
    /// `semester` lies outside the span (no projection).
    #[inline]
    fn get(&self, semester: Semester) -> Option<&CourseSet> {
        let offset = usize::try_from(semester.index() - self.first).ok()?;
        self.masks.get(offset)?.as_ref()
    }
}

impl<'a> Explorer<'a> {
    /// Algorithm 1: all learning paths from `start` to the `deadline`
    /// semester, taking at most `max_per_semester` courses per semester.
    ///
    /// Errors with [`ExploreError::InvalidRequest`] when the deadline
    /// precedes the start or lies more than [`MAX_HORIZON_SEMESTERS`]
    /// after it, or when `max_per_semester` is zero.
    pub fn deadline_driven(
        catalog: &'a Catalog,
        start: EnrollmentStatus,
        deadline: Semester,
        max_per_semester: usize,
    ) -> Result<Explorer<'a>, ExploreError> {
        if deadline < start.semester() {
            return Err(ExploreError::InvalidRequest(format!(
                "deadline {deadline} precedes start semester {}",
                start.semester()
            )));
        }
        let horizon = i64::from(deadline.index()) - i64::from(start.semester().index());
        if horizon > MAX_HORIZON_SEMESTERS {
            return Err(ExploreError::InvalidRequest(format!(
                "deadline {deadline} is {horizon} semesters after start semester {}; \
                 at most {MAX_HORIZON_SEMESTERS} are explored",
                start.semester()
            )));
        }
        if max_per_semester == 0 {
            return Err(ExploreError::InvalidRequest(
                "max courses per semester must be at least 1".into(),
            ));
        }
        let offered = OfferedRest::new(catalog, start.semester(), deadline);
        let live = LiveCourses::new(catalog, &offered, start.semester(), deadline);
        Ok(Explorer {
            catalog,
            start,
            deadline,
            max_per_semester,
            wait_policy: WaitPolicy::default(),
            goal: None,
            prune: PruneConfig::none(),
            strategic_selections: false,
            filters: Vec::new(),
            offered,
            live,
        })
    }

    /// Algorithm 2: learning paths that satisfy `goal` by `deadline`, with
    /// both pruning strategies enabled (§4.2's default configuration).
    /// Refuses what [`Explorer::deadline_driven`] refuses.
    pub fn goal_driven(
        catalog: &'a Catalog,
        start: EnrollmentStatus,
        deadline: Semester,
        max_per_semester: usize,
        goal: Goal,
    ) -> Result<Explorer<'a>, ExploreError> {
        let mut e = Explorer::deadline_driven(catalog, start, deadline, max_per_semester)?;
        e.goal = Some(goal);
        e.prune = PruneConfig::all();
        Ok(e)
    }

    /// Overrides the pruning configuration (only meaningful with a goal).
    pub fn with_prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Overrides the wait policy (default: the paper's
    /// [`WaitPolicy::WhenNoOptions`]).
    pub fn with_wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }

    /// Enables the strategic-selection optimization: skip selections smaller
    /// than the time-based `min_i` floor (§4.2.1, "the student has to take
    /// at least `min_i` courses in semester `s_i`"). Requires the time-based
    /// strategy; preserves the goal-path set exactly.
    pub fn with_strategic_selections(mut self, enabled: bool) -> Self {
        self.strategic_selections = enabled;
        self
    }

    /// Adds a selection filter (e.g. courses to avoid, workload caps).
    pub fn with_filter(mut self, filter: Arc<dyn SelectionFilter>) -> Self {
        self.filters.push(filter);
        self
    }

    /// The catalog being explored.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The starting enrollment status.
    pub fn start(&self) -> &EnrollmentStatus {
        &self.start
    }

    /// The end semester `d`.
    pub fn deadline(&self) -> Semester {
        self.deadline
    }

    /// The per-semester course cap `m`.
    pub fn max_per_semester(&self) -> usize {
        self.max_per_semester
    }

    /// A copy of this request rooted at a different status (used to count
    /// first-level subtrees on their own).
    pub(crate) fn restarted(&self, start: impl Classifiable) -> Explorer<'a> {
        let mut e = self.clone();
        e.start = start.materialize(self.catalog);
        e
    }

    /// The configured goal, if this is a goal-driven exploration.
    pub fn goal(&self) -> Option<&Goal> {
        self.goal.as_ref()
    }

    /// The wait policy.
    pub fn wait_policy(&self) -> WaitPolicy {
        self.wait_policy
    }

    pub(crate) fn pruner(&self) -> Option<Pruner<'_>> {
        self.goal.as_ref().map(|goal| {
            Pruner::new(
                self.catalog,
                goal,
                self.deadline,
                self.max_per_semester,
                self.prune,
                &self.offered,
            )
        })
    }

    /// Whether a no-options node may advance with an empty selection under
    /// [`WaitPolicy::WhenNoOptions`]: some untaken course must still be
    /// offered in a semester strictly between `s_i` and `d` (the Fig. 3
    /// `W₄,₇ = {}` rule; node n6 stops because nothing remains).
    fn can_wait(&self, status: &EnrollmentStatus) -> bool {
        let future_pool = self.offered.from(status.semester().next());
        !future_pool.difference(status.completed()).is_empty()
    }

    /// The key a state's subtree is stored and found under in a
    /// transposition table or a DAG build's visited map: what the subtree
    /// can still read of `(semester, completed)`. That is `X ∩ Live(s)` —
    /// options, eligibility, waiting and every later selection read
    /// nothing else — plus what the goal reads of the dead courses
    /// ([`Goal::project_dead`]; nothing without a goal). Selection filters
    /// see only the selection, so they read nothing of `X`.
    ///
    /// States with one key root identical subtrees, so a table shares more
    /// of them than under the full [`EnrollmentStatus::state_key`], which
    /// stays the key of paths, cursors and the dedup views. Where `Live(s)`
    /// covers the catalog the key is the full one, unprojected.
    pub(crate) fn table_key(&self, semester: Semester, completed: &CourseSet) -> StateKey {
        let Some(live) = self.live.get(semester) else {
            return (semester.index(), *completed);
        };
        let mut key = completed.intersection(live);
        if let Some(goal) = &self.goal {
            key.union_with(&goal.project_dead(completed, live));
        }
        (semester.index(), key)
    }

    /// Classifies a state in two phases around the caller's table, so a
    /// state that ends here never pays for its options `Y_i`:
    ///
    /// 1. from `(semester, completed)` alone: goal leaf, deadline leaf,
    ///    then the pruning strategies (the goal gap `left_i` is computed
    ///    once and serves both the goal test and the time oracle);
    /// 2. `lookup` — the caller's memo or visited map, under
    ///    [`Explorer::table_key`] — which may answer the state outright;
    /// 3. only on a miss, the options are materialized and the wait
    ///    policy, dead-end and strategic-floor rules decide.
    pub(crate) fn disposition<S: Classifiable, T>(
        &self,
        state: S,
        pruner: Option<&Pruner<'_>>,
        lookup: impl FnOnce(&StateKey) -> Option<T>,
    ) -> Disposition<T> {
        let left = self
            .goal
            .as_ref()
            .map(|goal| goal.left_lower_bound(state.completed()));
        // `left_i = 0` exactly when the goal holds.
        if left == Some(Some(0)) {
            return Disposition::Leaf(LeafKind::Goal);
        }
        if state.semester() >= self.deadline {
            return Disposition::Leaf(LeafKind::Deadline);
        }
        let mut min_selection = 0;
        if let Some(pruner) = pruner {
            match pruner.evaluate_state(state.semester(), state.completed(), left.flatten()) {
                PruneDecision::Prune(reason) => return Disposition::Pruned(reason),
                PruneDecision::Explore { min_selection_size } => {
                    if self.strategic_selections {
                        min_selection = min_selection_size;
                    }
                }
            }
        }
        if let Some(known) = lookup(&self.table_key(state.semester(), state.completed())) {
            return Disposition::Known(known);
        }
        let status = state.materialize(self.catalog);
        let has_options = !status.options().is_empty();
        let include_empty = match self.wait_policy {
            WaitPolicy::Always => true,
            WaitPolicy::Never => false,
            WaitPolicy::WhenNoOptions => !has_options && self.can_wait(&status),
        };
        if !has_options && !include_empty {
            return Disposition::Leaf(LeafKind::DeadEnd);
        }
        // A strategic floor above zero also rules out the empty selection.
        if min_selection > 0 && !has_options {
            return Disposition::Pruned(PruneReason::Time);
        }
        Disposition::Expand(Expansion {
            status,
            min_selection,
            include_empty: include_empty && min_selection == 0,
        })
    }

    /// Whether every selection filter admits `selection`.
    pub(crate) fn selection_allowed(&self, selection: &CourseSet) -> bool {
        self.filters
            .iter()
            .all(|f| f.allow(self.catalog, selection))
    }

    /// Expands the root the way the walker does, keeping each surviving
    /// selection alongside the child status it leads to, with the root's
    /// own statistics. `None` when the root does not branch — a leaf,
    /// pruned, or no selection survives.
    pub(crate) fn expand_root(&self) -> Option<Branches> {
        let pruner = self.pruner();
        let expansion = match self.disposition(self.start, pruner.as_ref(), no_table) {
            Disposition::Expand(expansion) => expansion,
            Disposition::Known(never) => match never {},
            Disposition::Leaf(_) | Disposition::Pruned(_) => return None,
        };
        let mut stats = ExploreStats {
            nodes_expanded: 1,
            ..ExploreStats::default()
        };
        let mut children: Vec<(CourseSet, Unexpanded)> = Vec::new();
        for selection in expansion.selections(self.max_per_semester) {
            if selection.len() < expansion.min_selection {
                stats.pruned_time += 1;
                continue;
            }
            if !self.selection_allowed(&selection) {
                continue;
            }
            stats.edges_created += 1;
            children.push((selection, self.start.child(&selection)));
        }
        (!children.is_empty()).then_some((stats, children))
    }

    // ------------------------------------------------------------------
    // Streaming and counting modes: both drive the one walker, `PathStream`
    // ------------------------------------------------------------------

    /// Streams every learning path to `visitor` in depth-first order.
    /// Pruned branches are not visited. The visitor may stop the run early
    /// by returning [`ControlFlow::Break`]. Returns the run's statistics.
    pub fn visit_paths(
        &self,
        mut visitor: impl FnMut(PathVisit<'_>) -> ControlFlow<()>,
    ) -> ExploreStats {
        let mut stream = self.paths_iter();
        loop {
            match stream.step() {
                Step::Leaf(_) if stream.visit(&mut visitor).is_break() => break,
                Step::Done => break,
                Step::Leaf(_) | Step::Bulk => {}
            }
        }
        *stream.stats()
    }

    /// Counts learning paths without materializing anything.
    pub fn count_paths(&self) -> PathCounts {
        self.count_walk(None, None).0
    }

    /// [`Explorer::count_paths`] through a transposition table: identical
    /// counts and *logical* statistics (the `PathCounts::stats` field),
    /// plus the run's *work* statistics — real expansions and the
    /// `memo_hits`/`memo_misses`/`memo_evictions` counters.
    pub fn count_paths_memo(&self, table: &TranspositionTable) -> (PathCounts, ExploreStats) {
        let (counts, work, _) = self.count_walk(Some(table), None);
        (counts, work)
    }

    /// Collects every path (materialized). Convenience for small runs,
    /// examples, and tests; prefer [`Explorer::visit_paths`] at scale.
    pub fn collect_paths(&self) -> Vec<Path> {
        self.paths_iter().map(|(path, _)| path).collect()
    }

    /// Collects only the goal-satisfying paths.
    pub fn collect_goal_paths(&self) -> Vec<Path> {
        self.goal_paths_iter().collect()
    }

    // ------------------------------------------------------------------
    // Materializing mode
    // ------------------------------------------------------------------

    /// Algorithm 1/2 with a materialized [`LearningGraph`], within a node
    /// budget. Exceeding the budget aborts with
    /// [`ExploreError::BudgetExceeded`] — the paper's Table 2 "N/A".
    pub fn build_graph(&self, node_budget: usize) -> Result<LearningGraph, ExploreError> {
        let mut graph = LearningGraph::with_root(self.start);
        let pruner = self.pruner();
        let mut stats = ExploreStats::default();
        // Work stack of unexpanded nodes ("each node with outdegree = 0").
        let mut stack: Vec<NodeId> = vec![graph.root()];
        while let Some(id) = stack.pop() {
            let status = *graph.status(id);
            let expansion = match self.disposition(status, pruner.as_ref(), no_table) {
                Disposition::Leaf(kind) => {
                    graph.nodes[id.index()].kind = NodeKind::Leaf(kind);
                    continue;
                }
                Disposition::Pruned(reason) => {
                    record_prune(&mut stats, reason);
                    graph.nodes[id.index()].kind = NodeKind::Pruned(reason);
                    continue;
                }
                Disposition::Known(never) => match never {},
                Disposition::Expand(expansion) => expansion,
            };
            stats.nodes_expanded += 1;
            let edge_start = graph.edges.len() as u32;
            let mut emitted = 0usize;
            let mut floor_skipped = 0usize;
            for selection in expansion.selections(self.max_per_semester) {
                if selection.len() < expansion.min_selection {
                    floor_skipped += 1;
                    stats.pruned_time += 1;
                    continue;
                }
                if !self.selection_allowed(&selection) {
                    continue;
                }
                if graph.nodes.len() >= node_budget {
                    return Err(ExploreError::BudgetExceeded { node_budget });
                }
                // Every graph node carries its full status, so children
                // are materialized as they are created.
                let edge = graph.push_edge(id, selection);
                let child = graph.push_node(status.advance(self.catalog, &selection), edge);
                graph.edges[edge.index()].to = child;
                stats.edges_created += 1;
                emitted += 1;
                stack.push(child);
            }
            graph.nodes[id.index()].children = edge_start..graph.edges.len() as u32;
            graph.nodes[id.index()].kind = if emitted > 0 {
                NodeKind::Interior
            } else if floor_skipped > 0 {
                NodeKind::Pruned(PruneReason::Time)
            } else {
                NodeKind::Leaf(LeafKind::DeadEnd)
            };
        }
        Ok(graph)
    }
}

/// The classifier as it was before options became lazy: every decision
/// read off an eagerly built [`EnrollmentStatus`], the goal tested with
/// [`Goal::satisfied`] and the pruners through their public
/// [`Pruner::evaluate`]. The tests hold [`Explorer::disposition`] to it.
#[cfg(test)]
pub(crate) mod eager {
    use super::*;

    /// How the eager classifier settles a state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum Eager {
        Leaf(LeafKind),
        Pruned(PruneReason),
        Expand {
            min_selection: usize,
            include_empty: bool,
            options: CourseSet,
        },
    }

    /// The eager decision, and whether reaching it took the options.
    pub(crate) fn disposition(e: &Explorer<'_>, status: &EnrollmentStatus) -> (Eager, bool) {
        if e.goal()
            .is_some_and(|goal| goal.satisfied(status.completed()))
        {
            return (Eager::Leaf(LeafKind::Goal), false);
        }
        if status.semester() >= e.deadline() {
            return (Eager::Leaf(LeafKind::Deadline), false);
        }
        let mut min_selection = 0;
        if let Some(pruner) = e.pruner() {
            match pruner.evaluate(status) {
                PruneDecision::Prune(reason) => return (Eager::Pruned(reason), false),
                PruneDecision::Explore { min_selection_size } => {
                    if e.strategic_selections {
                        min_selection = min_selection_size;
                    }
                }
            }
        }
        let options = *status.options();
        // Waiting helps when some untaken course is offered strictly
        // between this semester and the deadline.
        let (first, last) = (status.semester().next(), e.deadline() + (-1));
        let can_wait = first <= last
            && !e
                .catalog()
                .offered_between(first, last)
                .difference(status.completed())
                .is_empty();
        let include_empty = match e.wait_policy() {
            WaitPolicy::Always => true,
            WaitPolicy::Never => false,
            WaitPolicy::WhenNoOptions => options.is_empty() && can_wait,
        };
        let decision = if options.is_empty() && !include_empty {
            Eager::Leaf(LeafKind::DeadEnd)
        } else if min_selection > 0 && options.is_empty() {
            Eager::Pruned(PruneReason::Time)
        } else {
            Eager::Expand {
                min_selection,
                include_empty: include_empty && min_selection == 0,
                options,
            }
        };
        (decision, true)
    }

    /// The naive enumerator the walker is held to: every path in
    /// depth-first order with its leaf kind, and the run's logical
    /// statistics, by plain recursion over the eager classifier.
    pub(crate) fn enumerate(e: &Explorer<'_>) -> (Vec<(Path, LeafKind)>, ExploreStats) {
        fn walk(
            e: &Explorer<'_>,
            path: &mut (Vec<EnrollmentStatus>, Vec<CourseSet>),
            out: &mut Vec<(Path, LeafKind)>,
            stats: &mut ExploreStats,
        ) {
            let status = *path.0.last().expect("paths start at the root");
            let emit = |kind, out: &mut Vec<_>, path: &(Vec<_>, Vec<_>)| {
                out.push((Path::new(path.0.clone(), path.1.clone()), kind));
            };
            let (min_selection, include_empty) = match disposition(e, &status).0 {
                Eager::Leaf(kind) => return emit(kind, out, path),
                Eager::Pruned(reason) => return record_prune(stats, reason),
                Eager::Expand {
                    min_selection,
                    include_empty,
                    ..
                } => (min_selection, include_empty),
            };
            stats.nodes_expanded += 1;
            let selections = if include_empty {
                SelectionIter::with_empty(status.options(), e.max_per_semester())
            } else {
                SelectionIter::new(status.options(), e.max_per_semester())
            };
            let (mut emitted, mut floor_skipped) = (0, 0);
            for selection in selections {
                if selection.len() < min_selection {
                    floor_skipped += 1;
                    stats.pruned_time += 1;
                } else if e.selection_allowed(&selection) {
                    emitted += 1;
                    stats.edges_created += 1;
                    path.0.push(status.advance(e.catalog(), &selection));
                    path.1.push(selection);
                    walk(e, path, out, stats);
                    path.0.pop();
                    path.1.pop();
                }
            }
            if emitted == 0 && floor_skipped == 0 {
                // Every selection was vetoed by filters: a dead end.
                emit(LeafKind::DeadEnd, out, path);
            }
        }
        let (mut out, mut stats) = (Vec::new(), ExploreStats::default());
        walk(e, &mut (vec![*e.start()], Vec::new()), &mut out, &mut stats);
        (out, stats)
    }

    /// The selections an expanding state emits children for, in order.
    pub(crate) fn admitted(
        e: &Explorer<'_>,
        status: &EnrollmentStatus,
        min_selection: usize,
        include_empty: bool,
    ) -> Vec<CourseSet> {
        let iter = if include_empty {
            SelectionIter::with_empty(status.options(), e.max_per_semester())
        } else {
            SelectionIter::new(status.options(), e.max_per_semester())
        };
        iter.filter(|sel| sel.len() >= min_selection && e.selection_allowed(sel))
            .collect()
    }
}

#[cfg(test)]
mod table_key_tests;

#[cfg(test)]
mod tests {
    use super::eager::{self, Eager};
    use super::*;
    use crate::status::eligible_calls;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Term};
    use coursenav_prereq::Expr;
    use proptest::prelude::*;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn spring(y: i32) -> Semester {
        Semester::new(y, Term::Spring)
    }

    /// The paper's Figure 3 catalog.
    fn fig3() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring(2012)]),
        );
        b.build().unwrap()
    }

    fn fig3_explorer(cat: &Catalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(cat, fall(2011));
        Explorer::deadline_driven(cat, start, spring(2013), 3).unwrap()
    }

    #[test]
    fn figure3_deadline_graph_shape() {
        // The paper's Figure 3: 9 nodes, 3 learning paths
        // (n1-n2-n5-n8, n1-n3-n6, n1-n4-n7-n9).
        let cat = fig3();
        let graph = fig3_explorer(&cat).build_graph(1_000).unwrap();
        assert_eq!(graph.node_count(), 9);
        assert_eq!(graph.edge_count(), 8);
        assert_eq!(graph.path_count(), 3);
    }

    #[test]
    fn figure3_counts_match_graph() {
        let cat = fig3();
        let counts = fig3_explorer(&cat).count_paths();
        assert_eq!(counts.total_paths, 3);
        assert_eq!(counts.goal_paths, 0, "deadline-driven has no goal");
    }

    #[test]
    fn figure3_paths_are_the_papers() {
        let cat = fig3();
        let paths = fig3_explorer(&cat).collect_paths();
        assert_eq!(paths.len(), 3);
        let course_sets: Vec<Vec<String>> = paths
            .iter()
            .map(|p| {
                p.courses_taken()
                    .iter()
                    .map(|id| cat.course(id).code().to_string())
                    .collect()
            })
            .collect();
        // Every path ultimately completes some subset; the three paths of
        // Fig. 3 complete {11A,29A,21A}... wait: n8 completes {11A,21A,29A},
        // n6 completes {11A,29A,21A}, n9 completes {11A,29A}.
        assert!(course_sets.iter().any(|c| c.len() == 2));
        assert!(course_sets.iter().filter(|c| c.len() == 3).count() == 2);
        for p in &paths {
            p.validate(&cat, 3).unwrap();
        }
    }

    #[test]
    fn figure3_leaf_kinds() {
        let cat = fig3();
        let graph = fig3_explorer(&cat).build_graph(1_000).unwrap();
        let kinds: Vec<LeafKind> = graph.path_leaves().map(|(_, k)| k).collect();
        // n8 and n9 end at the deadline; n6 is a dead end (nothing left).
        assert_eq!(
            kinds.iter().filter(|k| **k == LeafKind::Deadline).count(),
            2
        );
        assert_eq!(kinds.iter().filter(|k| **k == LeafKind::DeadEnd).count(), 1);
    }

    #[test]
    fn goal_driven_fig3_finds_single_path() {
        // §4.2.3: goal = all three courses, deadline Fall '12 → exactly the
        // n1→n3→n6 path.
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let paths = explorer.collect_goal_paths();
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.len(), 2);
        assert_eq!(p.courses_taken().len(), 3);
        // First semester: both 11A and 29A; second: 21A.
        assert_eq!(p.selections()[0].len(), 2);
        assert_eq!(p.selections()[1].len(), 1);
    }

    #[test]
    fn goal_driven_records_prunes() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let counts = explorer.count_paths();
        assert_eq!(counts.goal_paths, 1);
        assert!(
            counts.stats.pruned_total() > 0,
            "n4 (and others) must be pruned: {:?}",
            counts.stats
        );
    }

    #[test]
    fn goal_driven_without_pruning_same_goal_paths() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let pruned = Explorer::goal_driven(&cat, start, fall(2012), 3, goal.clone()).unwrap();
        let unpruned = Explorer::goal_driven(&cat, start, fall(2012), 3, goal)
            .unwrap()
            .with_prune(PruneConfig::none());
        assert_eq!(
            pruned.count_paths().goal_paths,
            unpruned.count_paths().goal_paths
        );
        assert!(unpruned.count_paths().total_paths >= pruned.count_paths().total_paths);
        assert_eq!(unpruned.count_paths().stats.pruned_total(), 0);
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let cat = fig3();
        let err = fig3_explorer(&cat).build_graph(4).unwrap_err();
        assert_eq!(err, ExploreError::BudgetExceeded { node_budget: 4 });
    }

    #[test]
    fn graph_paths_match_streamed_paths() {
        let cat = fig3();
        let explorer = fig3_explorer(&cat);
        let graph = explorer.build_graph(10_000).unwrap();
        let mut from_graph: Vec<Path> = graph.paths().collect();
        let mut from_stream = explorer.collect_paths();
        let key = |p: &Path| format!("{:?}", p.selections());
        from_graph.sort_by_key(key);
        from_stream.sort_by_key(key);
        assert_eq!(from_graph, from_stream);
    }

    #[test]
    fn m_limits_selection_sizes() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let explorer = Explorer::deadline_driven(&cat, start, spring(2013), 1).unwrap();
        for p in explorer.collect_paths() {
            for sel in p.selections() {
                assert!(sel.len() <= 1);
            }
        }
        // With m=1 the "take both 11A and 29A" branch disappears, leaving
        // two paths: 11A→21A→29A and 29A→(wait)→11A.
        assert_eq!(explorer.count_paths().total_paths, 2);
    }

    #[test]
    fn wait_policy_never_turns_waits_into_dead_ends() {
        let cat = fig3();
        let explorer = fig3_explorer(&cat).with_wait_policy(WaitPolicy::Never);
        let graph = explorer.build_graph(1_000).unwrap();
        // Without waiting, the n4→n7 transition is gone: n4 becomes a dead
        // end and n7/n9 disappear (9 − 2 = 7 nodes).
        assert_eq!(graph.node_count(), 7);
        assert_eq!(graph.path_count(), 3);
    }

    #[test]
    fn wait_policy_always_adds_paths() {
        let cat = fig3();
        let base = fig3_explorer(&cat).count_paths().total_paths;
        let always = fig3_explorer(&cat)
            .with_wait_policy(WaitPolicy::Always)
            .count_paths()
            .total_paths;
        assert!(always > base, "Always-wait must add skip branches");
    }

    #[test]
    fn strategic_selections_preserve_goal_paths() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        for m in 1..=3 {
            let base = Explorer::goal_driven(&cat, start, fall(2012), m, goal.clone()).unwrap();
            let strategic = base.clone().with_strategic_selections(true);
            let a: Vec<Path> = base.collect_goal_paths();
            let b: Vec<Path> = strategic.collect_goal_paths();
            assert_eq!(a, b, "m={m}");
        }
    }

    #[test]
    fn filters_shrink_the_space() {
        let cat = fig3();
        let avoid_29a =
            crate::filter::AvoidCourses(CourseSet::from_iter([cat.id_of_str("29A").unwrap()]));
        let explorer = fig3_explorer(&cat).with_filter(Arc::new(avoid_29a));
        for p in explorer.collect_paths() {
            assert!(!p.courses_taken().contains(cat.id_of_str("29A").unwrap()));
        }
        assert!(explorer.count_paths().total_paths < fig3_explorer(&cat).count_paths().total_paths);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        assert!(matches!(
            Explorer::deadline_driven(&cat, start, fall(2010), 3),
            Err(ExploreError::InvalidRequest(_))
        ));
        assert!(matches!(
            Explorer::deadline_driven(&cat, start, fall(2012), 0),
            Err(ExploreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn start_at_deadline_yields_single_trivial_path() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let explorer = Explorer::deadline_driven(&cat, start, fall(2011), 3).unwrap();
        let paths = explorer.collect_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 0);
    }

    #[test]
    fn visitor_can_stop_early() {
        let cat = fig3();
        let mut seen = 0;
        fig3_explorer(&cat).visit_paths(|_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
    }

    /// Whether every course of the catalog is offered in `semester … d−1`
    /// or named in the prerequisites of one that is: where nothing is
    /// dead, the table key is the full state key.
    fn live_covers_catalog(e: &Explorer<'_>, semester: Semester) -> bool {
        let cat = e.catalog();
        let offered = cat.offered_between(semester, e.deadline() + (-1));
        let mut live = offered;
        for id in &offered {
            for atom in cat.course(id).prereq().atoms() {
                live.insert(atom);
            }
        }
        cat.all_courses().is_subset(&live)
    }

    /// Classifies `state` twice — once with a table that misses, once
    /// with one that hits — and checks both against the eager reference
    /// on its materialized status. `whole` marks a state handed in with
    /// its options already computed.
    fn check_classification(
        e: &Explorer<'_>,
        state: impl Classifiable,
        whole: bool,
    ) -> Result<(), TestCaseError> {
        let eager_status = EnrollmentStatus::new(e.catalog(), state.semester(), *state.completed());
        let (expected, read_options) = eager::disposition(e, &eager_status);
        let pruner = e.pruner();

        let (semester, completed) = (state.semester(), *state.completed());
        let full_key = (semester.index(), completed);
        if live_covers_catalog(e, semester) {
            prop_assert_eq!(e.table_key(semester, &completed), full_key);
        }
        let mut looked_up = false;
        let before = eligible_calls();
        let got = e.disposition(state, pruner.as_ref(), |key| {
            assert_eq!(*key, e.table_key(semester, &completed));
            looked_up = true;
            None::<()>
        });
        let computed = eligible_calls() - before;
        prop_assert_eq!(looked_up, read_options, "the table sits between the phases");
        let got = match got {
            Disposition::Leaf(kind) => Eager::Leaf(kind),
            Disposition::Pruned(reason) => Eager::Pruned(reason),
            Disposition::Known(()) => unreachable!("the table missed"),
            Disposition::Expand(expansion) => {
                prop_assert_eq!(expansion.status, eager_status, "materialized == eager");
                Eager::Expand {
                    min_selection: expansion.min_selection,
                    include_empty: expansion.include_empty,
                    options: *expansion.status.options(),
                }
            }
        };
        prop_assert_eq!(&got, &expected);
        // A whole status is never recomputed; an unexpanded one is
        // materialized only past the table.
        prop_assert_eq!(computed, u64::from(read_options && !whole));

        let before = eligible_calls();
        let hit = e.disposition(state, pruner.as_ref(), |_| Some(()));
        prop_assert_eq!(eligible_calls(), before, "a hit never takes the options");
        match (hit, &expected) {
            (Disposition::Known(()), _) => prop_assert!(read_options),
            (Disposition::Leaf(kind), Eager::Leaf(want)) => {
                prop_assert!(!read_options);
                prop_assert_eq!(kind, *want);
            }
            (Disposition::Pruned(reason), Eager::Pruned(want)) => {
                prop_assert!(!read_options);
                prop_assert_eq!(reason, *want);
            }
            _ => prop_assert!(false, "a hit answered {:?} differently", expected),
        }
        Ok(())
    }

    fn arb_prune() -> impl Strategy<Value = PruneConfig> {
        prop_oneof![
            Just(PruneConfig::all()),
            Just(PruneConfig::none()),
            Just(PruneConfig::time_only()),
            Just(PruneConfig::availability_only()),
        ]
    }

    fn arb_wait() -> impl Strategy<Value = WaitPolicy> {
        prop_oneof![
            Just(WaitPolicy::WhenNoOptions),
            Just(WaitPolicy::Never),
            Just(WaitPolicy::Always),
        ]
    }

    fn synthetic(seed: u64) -> coursenav_catalog::SyntheticCatalog {
        coursenav_catalog::SyntheticCatalog::generate(&coursenav_catalog::SyntheticConfig {
            seed,
            ..coursenav_catalog::SyntheticConfig::small()
        })
    }

    /// A fresh student's exploration of `synth`: deadline-driven, toward
    /// the degree, or toward a two-term course expression, with the given
    /// pruning, wait policy, strategic floor, and avoid / workload filters.
    #[allow(clippy::too_many_arguments)]
    fn configured<'s>(
        synth: &'s coursenav_catalog::SyntheticCatalog,
        horizon: i32,
        m: usize,
        goal_kind: u8,
        prune: PruneConfig,
        wait: WaitPolicy,
        strategic: bool,
        filters: &[(bool, usize)],
    ) -> Explorer<'s> {
        let cat = &synth.catalog;
        let start = EnrollmentStatus::fresh(cat, synth.start);
        let deadline = synth.start + horizon;
        let course = |i: usize| cat.courses().nth(i % cat.len()).unwrap().id();
        let goal = match goal_kind {
            0 => None,
            1 => Some(Goal::degree(synth.degree.clone())),
            // (c0 and c3) or c7: a goal with two DNF terms.
            _ => Some(Goal::courses(
                coursenav_prereq::Expr::Atom(course(0))
                    .and(coursenav_prereq::Expr::Atom(course(3)))
                    .or(coursenav_prereq::Expr::Atom(course(7))),
            )),
        };
        let mut e = match goal {
            Some(goal) => Explorer::goal_driven(cat, start, deadline, m, goal).unwrap(),
            None => Explorer::deadline_driven(cat, start, deadline, m).unwrap(),
        }
        .with_prune(prune)
        .with_wait_policy(wait)
        .with_strategic_selections(strategic);
        for &(avoid, i) in filters {
            e = if avoid {
                e.with_filter(Arc::new(crate::filter::AvoidCourses(CourseSet::from_iter(
                    [course(i)],
                ))))
            } else {
                e.with_filter(Arc::new(crate::filter::MaxSemesterWorkload(
                    10.0 * (1 + i % 3) as f64,
                )))
            };
        }
        e
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For every reachable state, and every child its admitted
        /// selections lead to, the two-phase classifier agrees with the
        /// eager one: leaf kind, prune reason, strategic floor, wait
        /// selection and the materialized options — and it consults the
        /// table, and computes options, exactly when the eager one needed
        /// the options.
        #[test]
        fn classification_matches_eager_status(
            seed in 0u64..1_000,
            horizon in 1i32..5,
            m in 1usize..4,
            goal_kind in 0u8..3,
            prune in arb_prune(),
            wait in arb_wait(),
            strategic in any::<bool>(),
            filters in prop::collection::vec((any::<bool>(), 0usize..12), 0..3),
        ) {
            let synth = synthetic(seed);
            let e = configured(&synth, horizon, m, goal_kind, prune, wait, strategic, &filters);
            let (cat, start) = (&synth.catalog, *e.start());
            check_classification(&e, start, true)?;
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![start];
            while let Some(status) = stack.pop() {
                if !seen.insert(status.state_key()) {
                    continue;
                }
                let (Eager::Expand { min_selection, include_empty, .. }, _) =
                    eager::disposition(&e, &status)
                else {
                    continue;
                };
                for selection in eager::admitted(&e, &status, min_selection, include_empty) {
                    check_classification(&e, status.child(&selection), false)?;
                    stack.push(status.advance(cat, &selection));
                }
            }
        }

        /// The walker answers every configuration as the naive recursive
        /// enumerator does: the same paths and leaf kinds in the same
        /// depth-first order, through the iterator and the visitor, and
        /// the same counts and logical statistics through the counter,
        /// with a table (cold, then warm) and without.
        #[test]
        fn walker_matches_the_naive_enumerator(
            seed in 0u64..1_000,
            horizon in 1i32..5,
            m in 1usize..4,
            goal_kind in 0u8..3,
            prune in arb_prune(),
            wait in arb_wait(),
            strategic in any::<bool>(),
            filters in prop::collection::vec((any::<bool>(), 0usize..12), 0..3),
        ) {
            let synth = synthetic(seed);
            let e = configured(&synth, horizon, m, goal_kind, prune, wait, strategic, &filters);
            let (paths, stats) = eager::enumerate(&e);

            let mut stream = e.paths_iter();
            let streamed: Vec<(Path, LeafKind)> = stream.by_ref().collect();
            prop_assert_eq!(&streamed, &paths);
            prop_assert_eq!(*stream.stats(), stats);
            let mut visited = Vec::new();
            let visit_stats = e.visit_paths(|v| {
                visited.push((v.to_path(), v.kind));
                ControlFlow::Continue(())
            });
            prop_assert_eq!(&visited, &paths);
            prop_assert_eq!(visit_stats, stats);

            let expected = PathCounts {
                total_paths: paths.len() as u128,
                goal_paths: paths.iter().filter(|(_, k)| *k == LeafKind::Goal).count() as u128,
                stats,
            };
            prop_assert_eq!(e.count_paths(), expected);
            let table = TranspositionTable::new(1 << 12);
            prop_assert_eq!(e.count_paths_memo(&table).0, expected);
            prop_assert_eq!(e.count_paths_memo(&table).0, expected);
        }
    }

    #[test]
    fn retain_leaves_keeps_only_goal_branches() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let graph = explorer.build_graph(10_000).unwrap();
        let goal_only = graph.retain_leaves(|k| k == LeafKind::Goal);
        assert_eq!(goal_only.path_count(), 1);
        assert!(goal_only.node_count() <= graph.node_count());
        // The retained path is the paper's n1→n3→n6.
        let path = goal_only.paths().next().unwrap();
        assert_eq!(path.courses_taken().len(), 3);
    }
}
