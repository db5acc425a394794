//! Memoized-DAG path counting (an ablation beyond the paper).
//!
//! The tree the paper's algorithms unfold repeats work: two different
//! selection orders that reach the same `(semester, completed)` state have
//! identical subtrees. The subtree below a node is a function of
//! [`EnrollmentStatus::state_key`] alone, so path *counts* can be memoized
//! state-by-state, collapsing the exponential tree into a DAG of distinct
//! states. The counts are exactly those of the tree enumeration (verified
//! against streaming counts by property tests), but runtime scales with the
//! number of distinct states — milliseconds in regimes where the paper's
//! enumeration needed hours or exhausted memory.
//!
//! Since the hash-consed unique table ([`crate::unique`]) landed, this
//! module is a *thin view* over it: every entry point builds the canonical
//! path DAG via [`Explorer::build_path_dag`] and projects the answer out
//! of the interned nodes. The builder keeps no per-state records (terminal
//! states resolve to nodes shared by kind), so the per-state facts are
//! derived after the build by walking the DAG by state key, each distinct
//! state once. The historical contracts are preserved exactly — the
//! materialized-state budget as a check on that walk, error types, the
//! [`StateDag`] shape with its root at index 0, and statistics that
//! reflect *distinct states* (each state expanded or pruned once), not
//! tree nodes. The state DAG lists its states in topological order.

use std::collections::{HashMap, HashSet};

use coursenav_catalog::CourseSet;

use crate::error::ExploreError;
use crate::explorer::Explorer;
use crate::path::LeafKind;
use crate::stats::PathCounts;
use crate::status::EnrollmentStatus;
use crate::unique::{
    Counts, DagBuildError, DagNodeId, DagNodeKind, FxBuild, NodeView, UniqueTable,
};

/// A node of the deduplicated state DAG.
#[derive(Debug, Clone)]
pub struct StateNode {
    /// The enrollment status this state represents.
    pub status: EnrollmentStatus,
    /// `Some(kind)` for terminal states, `None` for expanded interiors.
    /// Pruned states are not materialized.
    pub leaf: Option<LeafKind>,
    /// Learning paths through the subgraph rooted here.
    pub paths: u128,
    /// Goal paths through the subgraph rooted here.
    pub goal_paths: u128,
}

/// An edge of the state DAG: one course selection between two states.
#[derive(Debug, Clone)]
pub struct StateEdge {
    /// Index of the source state.
    pub from: u32,
    /// Index of the target state.
    pub to: u32,
    /// The course selection making the transition.
    pub selection: CourseSet,
}

/// The learning graph with "overlapping learning paths" merged (§2, Fig. 1):
/// enrollment statuses reached by different selection orders collapse into
/// one node, turning the exploration tree into a DAG small enough to
/// visualize even when the tree has millions of paths.
///
/// Build with [`Explorer::build_state_dag`]; render with
/// `coursenav-viz`'s `state_dag_to_dot`.
#[derive(Debug, Clone, Default)]
pub struct StateDag {
    /// Distinct states; index 0 is the root, and every edge runs from a
    /// lower index to a higher one.
    pub states: Vec<StateNode>,
    /// Selection transitions between states.
    pub edges: Vec<StateEdge>,
}

impl StateDag {
    /// The root state (index 0).
    pub fn root(&self) -> &StateNode {
        &self.states[0]
    }

    /// Number of distinct states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct (state, selection) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// A `(semester index, completed)` state key
/// ([`EnrollmentStatus::state_key`]).
type StateKey = (i32, CourseSet);

/// What the dedup views know about one build, derived after the fact by
/// walking the built DAG by state key: the builder shares terminal nodes
/// across every state that ends in them and keeps no per-state records,
/// so the per-*state* facts live here. The walk reads keys only — a
/// child's key is `(semester + 1, completed ∪ selection)` — and builds no
/// [`EnrollmentStatus`].
struct StateWalk {
    /// Distinct states met, pruned included.
    seen: HashSet<StateKey, FxBuild>,
    /// Per-distinct-state statistics: each state contributes its expansion
    /// (or prune) once, however many selection orders reach it. The path
    /// counts stay zero; the tree's come from the root's summary.
    stats: Counts,
    /// Non-pruned states in post-order, with their nodes: the order a
    /// depth-first build finishes them, so the root is last. Recorded only
    /// for the state DAG ([`StateWalk::new`]'s `keep_order`).
    order: Option<Vec<(StateKey, DagNodeId)>>,
}

impl StateWalk {
    fn new(
        explorer: &Explorer<'_>,
        table: &UniqueTable,
        root: DagNodeId,
        keep_order: bool,
    ) -> StateWalk {
        let mut walk = StateWalk {
            seen: HashSet::default(),
            stats: Counts::default(),
            order: keep_order.then(Vec::new),
        };
        walk.visit(&table.view(), explorer.start().state_key(), root);
        walk
    }

    fn visit(&mut self, view: &NodeView<'_>, key: StateKey, id: DagNodeId) {
        if !self.seen.insert(key) {
            return;
        }
        match &view.node(id).kind {
            DagNodeKind::Leaf(_) => {}
            pruned @ DagNodeKind::Pruned(_) => {
                self.stats.merge(&Counts::terminal(pruned));
                return;
            }
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                self.stats.merge(&Counts {
                    edges_created: edges.len() as u64,
                    ..Counts::interior(*floor_skipped)
                });
                for (selection, child) in edges.iter() {
                    self.visit(view, (key.0 + 1, key.1.union(&selection)), child);
                }
            }
        }
        if let Some(order) = &mut self.order {
            order.push((key, id));
        }
    }

    fn counts(self, table: &UniqueTable, root: DagNodeId) -> PathCounts {
        let root = table.node(root);
        PathCounts {
            total_paths: root.paths,
            goal_paths: root.goal_paths,
            stats: self.stats.stats(),
        }
    }
}

impl Explorer<'_> {
    /// Builds this exploration's path DAG into a fresh table. `node_budget`
    /// caps the interior nodes created; the state DAG's budget counts a
    /// superset of those, so a build over it is over that budget too.
    fn dedup_build(
        &self,
        node_budget: Option<usize>,
    ) -> Result<(UniqueTable, DagNodeId), ExploreError> {
        let table = UniqueTable::new(0);
        let root = self
            .build_path_dag(&table, node_budget, None)
            .map_err(|err| match err {
                DagBuildError::Budget { node_budget } => {
                    ExploreError::BudgetExceeded { node_budget }
                }
                DagBuildError::Deadline => unreachable!("no deadline was passed to the build"),
            })?;
        Ok((table, root))
    }

    /// Counts learning paths by memoizing per-state subtree counts.
    /// Equivalent to [`Explorer::count_paths`] on the path counts, far
    /// faster when many selection orders converge to the same states.
    pub fn count_paths_dedup(&self) -> PathCounts {
        let (table, root) = self
            .dedup_build(None)
            .expect("unbudgeted build cannot fail");
        StateWalk::new(self, &table, root, false).counts(&table, root)
    }

    /// Number of distinct `(semester, completed)` states reachable in this
    /// exploration — the size of the deduplicated DAG.
    pub fn distinct_states(&self) -> usize {
        let (table, root) = self
            .dedup_build(None)
            .expect("unbudgeted build cannot fail");
        StateWalk::new(self, &table, root, false).seen.len()
    }

    /// Builds the deduplicated state DAG, with per-state path counts.
    /// `state_budget` caps the number of distinct states materialized
    /// (the DAG is exponentially smaller than the tree, but deep dense
    /// horizons can still have millions of states).
    pub fn build_state_dag(&self, state_budget: usize) -> Result<StateDag, ExploreError> {
        let (table, root) = self.dedup_build(Some(state_budget))?;
        let order = StateWalk::new(self, &table, root, true)
            .order
            .expect("the walk kept its order");
        if order.len() > state_budget {
            return Err(ExploreError::BudgetExceeded {
                node_budget: state_budget,
            });
        }
        let mut dag = StateDag::default();
        // Reverse post-order: the root first, and every state before the
        // states its selections reach. Nodes are shared (terminals across
        // all their states, interiors across selection orders), so edges
        // are resolved by *state key*, which is unique per materialized
        // state.
        let index_of: HashMap<StateKey, u32, FxBuild> = order
            .iter()
            .rev()
            .enumerate()
            .map(|(position, (key, _))| (*key, position as u32))
            .collect();
        let view = table.view();
        let start = self.start().semester();
        for &(from_key, id) in order.iter().rev() {
            let node = view.node(id);
            let from = dag.states.len() as u32;
            let leaf = match &node.kind {
                DagNodeKind::Leaf(kind) => Some(*kind),
                // Filters vetoed every selection: expanded, but a dead end.
                DagNodeKind::Interior {
                    edges,
                    floor_skipped: 0,
                } if edges.is_empty() => Some(LeafKind::DeadEnd),
                DagNodeKind::Interior { edges, .. } => {
                    for (selection, _) in edges.iter() {
                        // Edges to pruned children exist structurally (they
                        // keep the node interior) but the rendered DAG only
                        // links materialized states.
                        let to_key = (from_key.0 + 1, from_key.1.union(&selection));
                        if let Some(&to) = index_of.get(&to_key) {
                            dag.edges.push(StateEdge {
                                from,
                                to,
                                selection,
                            });
                        }
                    }
                    None
                }
                DagNodeKind::Pruned(_) => unreachable!("pruned states are never materialized"),
            };
            let semester = start + (from_key.0 - start.index());
            dag.states.push(StateNode {
                status: EnrollmentStatus::new(self.catalog(), semester, from_key.1),
                leaf,
                paths: node.paths,
                goal_paths: node.goal_paths,
            });
        }
        if dag.states.is_empty() {
            // The root itself was pruned (the goal is unreachable from the
            // start): represent it as an interior state with zero paths so
            // the DAG always has a root.
            dag.states.push(StateNode {
                status: *self.start(),
                leaf: None,
                paths: 0,
                goal_paths: 0,
            });
        }
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::explorer::no_table;
    use crate::explorer::Disposition;
    use crate::filter::AvoidCourses;
    use crate::goal::Goal;
    use crate::pruning::{record_prune, PruneReason, Pruner};
    use crate::stats::ExploreStats;
    use coursenav_catalog::{
        Catalog, CatalogBuilder, CourseSpec, Semester, SyntheticCatalog, SyntheticConfig, Term,
    };
    use coursenav_prereq::Expr;
    use proptest::prelude::*;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn fig3() -> Catalog {
        let spring12 = Semester::new(2012, Term::Spring);
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring12]),
        );
        b.build().unwrap()
    }

    #[test]
    fn dedup_matches_streaming_on_fig3() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e =
            Explorer::deadline_driven(&cat, start, Semester::new(2013, Term::Spring), 3).unwrap();
        let plain = e.count_paths();
        let dedup = e.count_paths_dedup();
        assert_eq!(plain.total_paths, dedup.total_paths);
        assert_eq!(plain.goal_paths, dedup.goal_paths);
    }

    #[test]
    fn dedup_matches_streaming_on_synthetic_goal_run() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let plain = e.count_paths();
        let dedup = e.count_paths_dedup();
        assert_eq!(plain.total_paths, dedup.total_paths);
        assert_eq!(plain.goal_paths, dedup.goal_paths);
    }

    #[test]
    fn dedup_expands_fewer_states_than_tree_nodes() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap();
        let plain = e.count_paths();
        let dedup = e.count_paths_dedup();
        assert_eq!(plain.total_paths, dedup.total_paths);
        assert!(
            dedup.stats.nodes_expanded <= plain.stats.nodes_expanded,
            "dedup {} > tree {}",
            dedup.stats.nodes_expanded,
            plain.stats.nodes_expanded
        );
    }

    #[test]
    fn state_dag_counts_match_dedup_counts() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let counts = e.count_paths_dedup();
        let dag = e.build_state_dag(1_000_000).unwrap();
        assert_eq!(dag.root().paths, counts.total_paths);
        assert_eq!(dag.root().goal_paths, counts.goal_paths);
        assert_eq!(dag.root().status, *e.start());
    }

    #[test]
    fn state_dag_is_smaller_than_tree() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        let tree = e.build_graph(10_000_000).unwrap();
        let dag = e.build_state_dag(10_000_000).unwrap();
        assert!(dag.state_count() <= tree.node_count());
        assert!(dag.edge_count() <= tree.edge_count());
        assert_eq!(dag.root().paths as usize, tree.path_count());
    }

    #[test]
    fn state_dag_edges_are_well_formed() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e =
            Explorer::deadline_driven(&cat, start, Semester::new(2013, Term::Spring), 3).unwrap();
        let dag = e.build_state_dag(10_000).unwrap();
        for edge in &dag.edges {
            let from = &dag.states[edge.from as usize];
            let to = &dag.states[edge.to as usize];
            assert!(edge.selection.is_subset(from.status.options()));
            assert_eq!(to.status.semester(), from.status.semester().next());
            assert!(from.leaf.is_none(), "edges leave interior states only");
            assert!(edge.from < edge.to, "states are in topological order");
        }
    }

    #[test]
    fn state_dag_budget_is_enforced() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        assert!(matches!(
            e.build_state_dag(3),
            Err(crate::error::ExploreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn distinct_states_bounded_by_tree_size() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e =
            Explorer::deadline_driven(&cat, start, Semester::new(2013, Term::Spring), 3).unwrap();
        let states = e.distinct_states();
        let graph = e.build_graph(10_000).unwrap();
        assert!(states >= 1 && states <= graph.node_count());
    }

    #[test]
    fn dedup_stats_count_distinct_states_once() {
        // The historical contract: a state expanded (or pruned) once no
        // matter how many selection orders reach it. The streaming tree
        // counters are upper bounds with equality only on tree-shaped
        // instances.
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let tree = e.count_paths();
        let dedup = e.count_paths_dedup();
        assert!(dedup.stats.nodes_expanded <= tree.stats.nodes_expanded);
        assert!(dedup.stats.edges_created <= tree.stats.edges_created);
        assert!(dedup.stats.pruned_total() <= tree.stats.pruned_total());
    }

    /// How the naive oracle saw one distinct state.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Pruned(PruneReason),
        Leaf,
        /// `children` holds the state key of every admissible selection's
        /// child, in enumeration order.
        Expanded {
            children: Vec<(i32, CourseSet)>,
            floor_skipped: u64,
        },
    }

    /// Unfolds the whole exploration tree, one tree node at a time, and
    /// records every distinct `(semester, completed)` state it meets.
    fn enumerate_tree(
        e: &Explorer<'_>,
        status: EnrollmentStatus,
        pruner: Option<&Pruner<'_>>,
        seen: &mut HashMap<(i32, CourseSet), Seen>,
    ) {
        let class = match e.disposition(status, pruner, no_table) {
            Disposition::Leaf(_) => Seen::Leaf,
            Disposition::Pruned(reason) => Seen::Pruned(reason),
            Disposition::Known(never) => match never {},
            Disposition::Expand(expansion) => {
                let mut children = Vec::new();
                let mut floor_skipped = 0u64;
                for selection in expansion.selections(e.max_per_semester()) {
                    if selection.len() < expansion.min_selection {
                        floor_skipped += 1;
                    } else if e.selection_allowed(&status, &selection) {
                        let child = status.advance(e.catalog(), &selection);
                        children.push(child.state_key());
                        enumerate_tree(e, child, pruner, seen);
                    }
                }
                // A state whose every selection a filter vetoed is still
                // expanded, as `Explorer`'s depth-first walk counts it.
                Seen::Expanded {
                    children,
                    floor_skipped,
                }
            }
        };
        let previous = seen.insert(status.state_key(), class.clone());
        assert!(
            previous.is_none_or(|p| p == class),
            "a state's subtree is a function of its key"
        );
    }

    fn oracle_explorer(
        synth: &SyntheticCatalog,
        horizon: i32,
        m: usize,
        goal: bool,
        avoid: usize,
    ) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let deadline = synth.start + horizon;
        let e = if goal {
            let goal = Goal::degree(synth.degree.clone());
            Explorer::goal_driven(&synth.catalog, start, deadline, m, goal).unwrap()
        } else {
            Explorer::deadline_driven(&synth.catalog, start, deadline, m).unwrap()
        };
        // `avoid` picks 0–2 courses from the front of the catalog.
        let avoided: CourseSet = synth
            .catalog
            .courses()
            .take(avoid)
            .map(|c| c.id())
            .collect();
        if avoided.is_empty() {
            e
        } else {
            e.with_filter(Arc::new(AvoidCourses(avoided)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every dedup view — distinct-state count, per-distinct-state
        /// statistics, the state DAG's shape, and its budget contract —
        /// agrees with a naive tree enumeration.
        #[test]
        fn dedup_views_match_a_naive_tree_oracle(
            seed in 0u64..1_000,
            horizon in 1i32..5,
            m in 1usize..4,
            goal in any::<bool>(),
            avoid in 0usize..3,
        ) {
            let synth = SyntheticCatalog::generate(&SyntheticConfig {
                seed,
                ..SyntheticConfig::small()
            });
            let e = oracle_explorer(&synth, horizon, m, goal, avoid);
            let mut seen = HashMap::new();
            enumerate_tree(&e, *e.start(), e.pruner().as_ref(), &mut seen);

            let mut stats = ExploreStats::default();
            let mut materialized = 0usize;
            let mut dag_edges = 0usize;
            for class in seen.values() {
                match class {
                    Seen::Pruned(reason) => record_prune(&mut stats, *reason),
                    Seen::Leaf => materialized += 1,
                    Seen::Expanded { children, floor_skipped } => {
                        materialized += 1;
                        stats.nodes_expanded += 1;
                        stats.edges_created += children.len() as u64;
                        stats.pruned_time += floor_skipped;
                        dag_edges += children
                            .iter()
                            .filter(|k| !matches!(seen[*k], Seen::Pruned(_)))
                            .count();
                    }
                }
            }
            let distinct = seen.len();

            prop_assert_eq!(e.distinct_states(), distinct);
            let tree = e.count_paths();
            let dedup = e.count_paths_dedup();
            prop_assert_eq!(dedup.total_paths, tree.total_paths);
            prop_assert_eq!(dedup.goal_paths, tree.goal_paths);
            prop_assert_eq!(dedup.stats, stats);

            let dag = e.build_state_dag(usize::MAX).unwrap();
            // A pruned root still yields a one-state DAG.
            prop_assert_eq!(dag.state_count(), materialized.max(1));
            prop_assert_eq!(dag.edge_count(), dag_edges);
            prop_assert_eq!(dag.root().status, *e.start());
            prop_assert_eq!(dag.root().paths, tree.total_paths);

            for b in [materialized.saturating_sub(1), materialized, materialized + 1] {
                prop_assert_eq!(
                    e.build_state_dag(b).is_err(),
                    materialized > b,
                    "materialized budget {} over {} states", b, materialized
                );
            }
        }
    }
}
