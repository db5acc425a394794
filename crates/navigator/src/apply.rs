//! BDD-style apply operations over hash-consed path DAGs.
//!
//! Once an exploration is interned in a [`UniqueTable`], its path set can
//! be *rewritten* instead of re-explored. Three operation families:
//!
//! - [`UniqueTable::restrict`] — "add constraint X": filter every edge by a
//!   selection predicate (courses to avoid, a workload cap). This is the
//!   `dag ∩ constraint-DAG` of the BDD literature with the constraint DAG
//!   kept implicit: the constraint is selection-local, so the product
//!   automaton has one state and the coupled DFS degenerates to a unary
//!   walk. The result is *canonical*: it is bit-for-bit the node a fresh
//!   exploration of the constrained request would intern, which is what
//!   makes what-if answers byte-identical to re-exploration.
//! - [`UniqueTable::through`] — "force course Y": keep only paths that
//!   complete every course of a set. The product automaton tracks the
//!   outstanding courses, but that state is a pure function of the node's
//!   completed-set, so the walk is again unary with a per-node cache.
//! - [`UniqueTable::set_apply`] — intersect/union/difference of two DAGs
//!   over the same anchor, the general coupled DFS with a pair-keyed
//!   apply cache (`(op, a, b) → result`), shared across calls.
//!
//! The serving path for counting what-ifs is
//! [`UniqueTable::whatif_counts`]: the restrict∘through composition
//! evaluated in the counting semiring, materializing nothing. Every node
//! carries its subtree's *support set* and heaviest-selection workload
//! (see [`crate::unique::DagNode`]), so any subtree the delta provably
//! cannot touch is answered from its stored counts in O(1) — a what-if
//! walks only the delta-affected frontier of the DAG, which is what makes
//! warm answers orders of magnitude faster than re-exploration.
//!
//! Every operation memoizes through the table's apply cache, so a repeated
//! what-if (or a what-if over a shared suffix) answers in microseconds.
//!
//! Edges are read in their packed form ([`crate::unique::Edges`]): per
//! visited interior, the avoided courses become one mask over the node's
//! alphabet, and an edge is vetoed by a mask test instead of a set
//! intersection. A workload cap re-sums the edge's at most `m` course
//! workloads from a dense per-course slice computed once per call, in
//! ascending course order like `Restriction::load`, so every cap decision
//! is bit-identical to a build with `MaxSemesterWorkload` installed; a node
//! whose heaviest-selection bound clears the cap skips the sums.
//! Operations that emit new nodes (`restrict`, `through`, `set_apply`)
//! decode the surviving selections and re-encode them, so the result's
//! alphabet is the canonical one a fresh build would store; `set_apply`
//! matches children by decoded selection.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use coursenav_catalog::{Catalog, CourseSet};

use crate::path::LeafKind;
use crate::stats::ExploreStats;
use crate::unique::{
    DagNode, DagNodeId, DagNodeKind, Edges, FoldCounts, FxMap, Mask, NodeView, UniqueTable,
};

/// The selection-local constraint delta of a what-if: courses that may no
/// longer be elected and/or a tightened per-semester workload cap. Applied
/// on top of whatever filters the base DAG was built with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Restriction {
    /// Courses no selection may contain.
    pub avoid: CourseSet,
    /// Cap on a selection's summed weekly workload.
    pub max_workload: Option<f64>,
}

impl Restriction {
    /// Whether this restriction changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.avoid.is_empty() && self.max_workload.is_none()
    }

    /// A selection's summed weekly workload, accumulated exactly as the
    /// serving filter (`MaxSemesterWorkload`) accumulates it — same
    /// iteration order, same float additions — so restriction decisions
    /// are bit-identical to a build with the filter installed.
    pub(crate) fn load(catalog: &Catalog, selection: &CourseSet) -> f64 {
        selection
            .iter()
            .map(|id| catalog.course(id).workload())
            .sum()
    }

    /// Whether `selection` survives the restriction. Must mirror the
    /// serving filters exactly (`AvoidCourses`, `MaxSemesterWorkload`).
    pub fn allows(&self, catalog: &Catalog, selection: &CourseSet) -> bool {
        if !selection.is_disjoint(&self.avoid) {
            return false;
        }
        match self.max_workload {
            None => true,
            Some(cap) => Self::load(catalog, selection) <= cap,
        }
    }

    /// This restriction as it applies to the edges of one interior node.
    fn at(&self, node: &DagNode, edges: &Edges) -> NodeVeto {
        NodeVeto {
            avoid: edges.mask_of(&self.avoid),
            // Every edge's load is at most the node's heaviest-selection
            // bound, so a cap at or above it vetoes nothing here and its
            // per-edge sums are skipped.
            cap: self.max_workload.filter(|&cap| cap < node.max_load),
        }
    }

    /// Whether a subtree with this support set and heaviest-selection
    /// workload is provably untouched: no avoided course is electable
    /// below, and the cap (if any) clears the heaviest selection below.
    /// `max_load` of `f64::INFINITY` (unknown) fails any finite cap, which
    /// is the conservative answer.
    fn cannot_touch(&self, support: &CourseSet, max_load: f64) -> bool {
        support.is_disjoint(&self.avoid) && self.max_workload.is_none_or(|cap| cap >= max_load)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        0x52u8.hash(&mut h); // 'R'
        self.avoid.hash(&mut h);
        self.max_workload.map(f64::to_bits).hash(&mut h);
        h.finish()
    }
}

/// A [`Restriction`] specialised to one interior node's edges.
struct NodeVeto {
    /// The avoided courses' alphabet positions ([`Edges::mask_of`]).
    avoid: Mask,
    /// The workload cap, when some edge of the node may exceed it.
    cap: Option<f64>,
}

impl NodeVeto {
    /// Whether edge `i` survives: its selection misses the avoided
    /// courses, and its load re-summed from `workloads`
    /// ([`course_workloads`]) fits the cap. Decisions are bit-identical to
    /// [`Restriction::allows`] on the decoded selection.
    #[inline]
    fn keeps(&self, edges: &Edges, i: usize, workloads: &[f64]) -> bool {
        !edges.meets(i, &self.avoid) && self.cap.is_none_or(|cap| edges.load(i, workloads) <= cap)
    }
}

/// A set-algebraic operation over two path DAGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Paths present in both operands.
    Intersect,
    /// Paths present in either operand.
    Union,
    /// Paths of the first operand absent from the second.
    Diff,
}

/// Error from a binary apply: the operands do not describe path sets that
/// the operation can combine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The operands are not anchored at the same `(semester, completed)`
    /// state, so their paths share no common frame.
    AnchorMismatch,
    /// The union is not representable: the operands classify the same
    /// state differently (one frame ends where the other continues), and a
    /// node cannot be both a leaf and an interior.
    Incompatible(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::AnchorMismatch => {
                write!(f, "apply operands are anchored at different states")
            }
            ApplyError::Incompatible(msg) => write!(f, "apply operands are incompatible: {msg}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Every course's weekly workload, indexed by course id: the dense slice
/// apply operations re-sum edge loads from, computed once per call.
fn course_workloads(catalog: &Catalog) -> Vec<f64> {
    catalog.courses().map(|course| course.workload()).collect()
}

fn op_fingerprint(tag: u8, extra: u64) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    extra.hash(&mut h);
    h.finish()
}

/// Compact per-node fold result: the two counts plus the four logical
/// tree counters a fold can actually produce. The transposition-table
/// counters of [`ExploreStats`] are zero on every interned node (see
/// [`crate::unique::DagNode::stats`]) and a fold only merges node stats,
/// so dropping them here loses nothing — and the whole accumulator packs
/// into one cache line.
#[derive(Clone, Copy)]
struct FoldAcc {
    paths: u128,
    goal_paths: u128,
    nodes_expanded: u64,
    edges_created: u64,
    pruned_time: u64,
    pruned_availability: u64,
}

impl FoldAcc {
    #[inline]
    fn from_node(paths: u128, goal_paths: u128, stats: &ExploreStats) -> FoldAcc {
        debug_assert_eq!(
            (stats.memo_hits, stats.memo_misses, stats.memo_evictions),
            (0, 0, 0),
            "interned nodes carry logical stats with zero memo traffic"
        );
        FoldAcc {
            paths,
            goal_paths,
            nodes_expanded: stats.nodes_expanded,
            edges_created: stats.edges_created,
            pruned_time: stats.pruned_time,
            pruned_availability: stats.pruned_availability,
        }
    }

    #[inline]
    fn merge(&mut self, sub: &FoldAcc) {
        self.paths += sub.paths;
        self.goal_paths += sub.goal_paths;
        self.nodes_expanded += sub.nodes_expanded;
        self.edges_created += sub.edges_created;
        self.pruned_time += sub.pruned_time;
        self.pruned_availability += sub.pruned_availability;
    }

    fn into_counts(self) -> FoldCounts {
        (
            self.paths,
            self.goal_paths,
            ExploreStats {
                nodes_expanded: self.nodes_expanded,
                edges_created: self.edges_created,
                pruned_time: self.pruned_time,
                pruned_availability: self.pruned_availability,
                ..ExploreStats::default()
            },
        )
    }
}

const SLOT_WORDS: usize = 8;

/// Dense id-indexed memo for the restriction fold: one cache line (eight
/// words: paths, goal paths, four counters) per visible id, probed with a
/// single random access. The fold touches a large fraction of the table,
/// so a flat probe beats both hashing a key per node and a two-level
/// slot→result indirection. The backing vector is requested zero-filled —
/// the allocator serves untouched zero pages, so even a what-if that
/// short-circuits immediately pays nothing for a table-sized memo. An
/// all-zero line means "unvisited": no fold result is all-zero except the
/// empty path set's, which is trivial to recompute on every probe.
struct FoldMemo {
    words: Vec<u64>,
}

impl FoldMemo {
    fn new(id_bound: usize) -> FoldMemo {
        FoldMemo {
            words: vec![0u64; id_bound * SLOT_WORDS],
        }
    }

    #[inline]
    fn get(&self, id: DagNodeId) -> Option<FoldAcc> {
        let at = id.raw() * SLOT_WORDS;
        let w: &[u64; SLOT_WORDS] = self.words[at..at + SLOT_WORDS].try_into().unwrap();
        if w.iter().all(|&x| x == 0) {
            return None;
        }
        Some(FoldAcc {
            paths: u128::from(w[0]) | (u128::from(w[1]) << 64),
            goal_paths: u128::from(w[2]) | (u128::from(w[3]) << 64),
            nodes_expanded: w[4],
            edges_created: w[5],
            pruned_time: w[6],
            pruned_availability: w[7],
        })
    }

    #[inline]
    fn put(&mut self, id: DagNodeId, acc: &FoldAcc) {
        let at = id.raw() * SLOT_WORDS;
        let w: &mut [u64; SLOT_WORDS] = (&mut self.words[at..at + SLOT_WORDS]).try_into().unwrap();
        w[0] = acc.paths as u64;
        w[1] = (acc.paths >> 64) as u64;
        w[2] = acc.goal_paths as u64;
        w[3] = (acc.goal_paths >> 64) as u64;
        w[4] = acc.nodes_expanded;
        w[5] = acc.edges_created;
        w[6] = acc.pruned_time;
        w[7] = acc.pruned_availability;
    }
}

impl UniqueTable {
    /// Interns the (shared) empty path set.
    fn empty(&self) -> DagNodeId {
        self.intern(0, CourseSet::EMPTY, DagNodeKind::Empty, Vec::new())
    }

    /// "Add constraint X" / "drop course Y": the sub-DAG of `root` whose
    /// edges all satisfy `restriction`. Canonical — equals the root a
    /// fresh build of the constrained exploration would intern (dead-end
    /// reclassification included), so counts *and* logical statistics are
    /// byte-identical to re-exploration.
    pub fn restrict(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
    ) -> DagNodeId {
        if restriction.is_empty() {
            return root;
        }
        let op = restriction.fingerprint();
        let workloads = course_workloads(catalog);
        let mut local = HashMap::new();
        self.restrict_node(root, &workloads, restriction, op, &mut local)
    }

    fn restrict_node(
        &self,
        id: DagNodeId,
        workloads: &[f64],
        restriction: &Restriction,
        op: u64,
        local: &mut HashMap<DagNodeId, DagNodeId>,
    ) -> DagNodeId {
        if let Some(&out) = local.get(&id) {
            return out;
        }
        let node = self.node(id);
        if restriction.cannot_touch(&node.support, node.max_load) {
            // The restriction vetoes nothing anywhere below, so a
            // cons-aware rebuild would re-derive this exact node.
            local.insert(id, id);
            return id;
        }
        let key = (op, id, DagNodeId::NONE);
        if let Some(out) = self.apply_get(&key) {
            local.insert(id, out);
            return out;
        }
        let out = match &node.kind {
            DagNodeKind::Leaf(_) | DagNodeKind::Pruned(_) | DagNodeKind::Empty => id,
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                let mut new_edges: Vec<(CourseSet, DagNodeId)> = Vec::with_capacity(edges.len());
                let mut loads: Vec<f64> = Vec::with_capacity(edges.len());
                let veto = restriction.at(&node, edges);
                let mut unchanged = true;
                for i in 0..edges.len() {
                    if !veto.keeps(edges, i, workloads) {
                        unchanged = false;
                        continue;
                    }
                    let child =
                        self.restrict_node(edges.child(i), workloads, restriction, op, local);
                    unchanged &= child == edges.child(i);
                    new_edges.push((edges.selection(i), child));
                    loads.push(edges.load(i, workloads));
                }
                if new_edges.is_empty() && *floor_skipped == 0 {
                    // Exactly the builder's dead-end reclassification: all
                    // selections vetoed, nothing floor-skipped.
                    self.intern(
                        node.semester,
                        node.completed,
                        DagNodeKind::Leaf(LeafKind::DeadEnd),
                        Vec::new(),
                    )
                } else if unchanged {
                    id
                } else {
                    self.intern(
                        node.semester,
                        node.completed,
                        DagNodeKind::Interior {
                            edges: Edges::new(&new_edges),
                            floor_skipped: *floor_skipped,
                        },
                        loads,
                    )
                }
            }
        };
        self.apply_put(key, out);
        local.insert(id, out);
        out
    }

    /// "Force course Y": the sub-DAG of `root` keeping exactly the paths
    /// that complete every course in `want`. `completed_at_root` is the
    /// root's completed-set (interior roots carry it themselves; shared
    /// terminal roots are anchor-free, so the caller supplies it). Path and
    /// goal-path counts of the result are the counts of the forced subset;
    /// statistics are those of the retained structure.
    pub fn through(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        completed_at_root: &CourseSet,
        want: CourseSet,
    ) -> DagNodeId {
        let remaining = want.difference(completed_at_root);
        if remaining.is_empty() {
            return root;
        }
        let node = self.node(root);
        match &node.kind {
            // A path already over without the forced courses: no path.
            DagNodeKind::Leaf(_) => self.empty(),
            DagNodeKind::Pruned(_) | DagNodeKind::Empty => root,
            DagNodeKind::Interior { .. } => {
                let mut h = DefaultHasher::new();
                want.hash(&mut h);
                let op = op_fingerprint(0x54, h.finish()); // 'T'
                let workloads = course_workloads(catalog);
                let mut local = HashMap::new();
                self.through_node(root, &workloads, &want, op, &mut local)
            }
        }
    }

    /// The interior walk of [`UniqueTable::through`]. Only called on
    /// interior nodes, whose anchors are real — the outstanding set
    /// `want − completed` is a pure function of the node, which is what
    /// makes the `(op, id)` cache key sound.
    fn through_node(
        &self,
        id: DagNodeId,
        workloads: &[f64],
        want: &CourseSet,
        op: u64,
        local: &mut HashMap<DagNodeId, DagNodeId>,
    ) -> DagNodeId {
        if let Some(&out) = local.get(&id) {
            return out;
        }
        let key = (op, id, DagNodeId::NONE);
        if let Some(out) = self.apply_get(&key) {
            local.insert(id, out);
            return out;
        }
        let node = self.node(id);
        let remaining = want.difference(&node.completed);
        let DagNodeKind::Interior {
            edges,
            floor_skipped,
        } = &node.kind
        else {
            unreachable!("through_node walks interior nodes only");
        };
        let out = if !remaining.is_subset(&node.support) {
            // Some outstanding course is not electable anywhere below:
            // nothing here can complete the forced set.
            self.empty()
        } else {
            let mut new_edges: Vec<(CourseSet, DagNodeId)> = Vec::with_capacity(edges.len());
            let mut loads: Vec<f64> = Vec::with_capacity(edges.len());
            let mut unchanged = true;
            for (i, (selection, child)) in edges.iter().enumerate() {
                let child_remaining = remaining.difference(&selection);
                let kept = if child_remaining.is_empty() {
                    // Every path through this edge completes the forced
                    // set; the subtree is kept untouched.
                    Some(child)
                } else {
                    match &self.node(child).kind {
                        DagNodeKind::Leaf(_) => None,
                        DagNodeKind::Pruned(_) => Some(child),
                        DagNodeKind::Empty => None,
                        DagNodeKind::Interior { .. } => {
                            let out = self.through_node(child, workloads, want, op, local);
                            if self.node(out).kind == DagNodeKind::Empty {
                                None
                            } else {
                                Some(out)
                            }
                        }
                    }
                };
                unchanged &= kept == Some(child);
                if let Some(kept) = kept {
                    new_edges.push((selection, kept));
                    loads.push(edges.load(i, workloads));
                }
            }
            if new_edges.is_empty() {
                self.empty()
            } else if unchanged {
                id
            } else {
                self.intern(
                    node.semester,
                    node.completed,
                    DagNodeKind::Interior {
                        edges: Edges::new(&new_edges),
                        floor_skipped: *floor_skipped,
                    },
                    loads,
                )
            }
        };
        self.apply_put(key, out);
        local.insert(id, out);
        out
    }

    /// The counting serving path of a what-if: `(paths, goal_paths,
    /// stats)` of `through(restrict(root, restriction), force)`, computed
    /// as one fold without materializing the intermediate DAGs. Exactly
    /// the composition's numbers — dead-end reclassification, pruned
    /// skeletons and all — but each provably-untouched subtree is answered
    /// from its stored summaries in O(1), so the walk touches only the
    /// delta-affected frontier. Whole-call results are cached in the
    /// table's fold cache, so a repeated what-if does no walk at all.
    pub fn whatif_counts(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
        force: &CourseSet,
        completed_at_root: &CourseSet,
    ) -> (u128, u128, ExploreStats) {
        let remaining = force.difference(completed_at_root);
        if restriction.is_empty() && remaining.is_empty() {
            let node = self.node(root);
            return (node.paths, node.goal_paths, node.stats);
        }
        let mut h = DefaultHasher::new();
        restriction.avoid.hash(&mut h);
        restriction.max_workload.map(f64::to_bits).hash(&mut h);
        remaining.hash(&mut h);
        let op = op_fingerprint(0x57, h.finish()); // 'W'
        let key = (op, root, DagNodeId::NONE);
        if let Some(counts) = self.fold_get(&key) {
            return counts;
        }
        // The fold never interns, so it reads through a whole-table view:
        // one lock acquisition per shard instead of one per node visit.
        let view = self.view();
        let mut memo = FoldMemo::new(view.id_bound());
        let workloads = course_workloads(catalog);
        let out = if remaining.is_empty() {
            self.fold_restrict(&view, root, &workloads, restriction, &mut memo)
                .into_counts()
        } else {
            let mut forced: FxMap<(DagNodeId, CourseSet), Option<FoldAcc>> = FxMap::default();
            self.fold_forced(
                &view,
                root,
                remaining,
                &workloads,
                restriction,
                &mut forced,
                &mut memo,
            )
            .map_or((0, 0, ExploreStats::default()), FoldAcc::into_counts)
        };
        drop(view);
        self.fold_put(key, out);
        out
    }

    /// The restriction-only counting fold — exactly `restrict`'s node
    /// summaries, never materialized. Total (every subtree keeps *some*
    /// answer, possibly a reclassified dead end), so the memo is keyed by
    /// node id alone. Untouched subtrees answer from their stored
    /// summaries before even probing the memo. `workloads` is
    /// [`course_workloads`], read only under a workload cap.
    fn fold_restrict(
        &self,
        view: &NodeView<'_>,
        id: DagNodeId,
        workloads: &[f64],
        restriction: &Restriction,
        memo: &mut FoldMemo,
    ) -> FoldAcc {
        // Probe the dense memo before touching the node: most edges point
        // at already-folded children, and the probe is one flat array read
        // against the node fetch's pointer chase.
        if let Some(out) = memo.get(id) {
            return out;
        }
        let node = view.node(id);
        if restriction.cannot_touch(&node.support, node.max_load) {
            // Nothing vetoable below: the subtree survives verbatim, and
            // its stored summaries are the answer. Memoized too, so the
            // proof is paid once per node, not once per incoming edge.
            let out = FoldAcc::from_node(node.paths, node.goal_paths, &node.stats);
            memo.put(id, &out);
            return out;
        }
        let out = match &node.kind {
            DagNodeKind::Leaf(_) => FoldAcc::from_node(node.paths, node.goal_paths, &node.stats),
            DagNodeKind::Pruned(_) | DagNodeKind::Empty => FoldAcc::from_node(0, 0, &node.stats),
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                let mut survivors = 0u64;
                let mut acc = FoldAcc {
                    paths: 0,
                    goal_paths: 0,
                    nodes_expanded: 1,
                    edges_created: 0,
                    pruned_time: *floor_skipped,
                    pruned_availability: 0,
                };
                let veto = restriction.at(node, edges);
                for i in 0..edges.len() {
                    if !veto.keeps(edges, i, workloads) {
                        continue;
                    }
                    survivors += 1;
                    // Probe inline before recursing: the common case is an
                    // already-folded child, answered by one array read
                    // with no call and no node fetch.
                    let child = edges.child(i);
                    let sub = match memo.get(child) {
                        Some(sub) => sub,
                        None => self.fold_restrict(view, child, workloads, restriction, memo),
                    };
                    acc.edges_created += 1;
                    acc.merge(&sub);
                }
                if survivors == 0 && *floor_skipped == 0 {
                    // restrict's dead-end reclassification: every selection
                    // vetoed, nothing floor-skipped — a DeadEnd leaf, one
                    // non-goal path.
                    FoldAcc::from_node(1, 0, &ExploreStats::default())
                } else {
                    acc
                }
            }
        };
        memo.put(id, &out);
        out
    }

    /// The general counting fold with forced courses still outstanding.
    /// `None` means "this subtree keeps no path" — the edge into it is
    /// dropped, exactly as `through` drops edges to emptied children (and
    /// contributes nothing to statistics). Branches whose outstanding set
    /// empties delegate to the cheaper [`UniqueTable::fold_restrict`].
    /// Invariant: `remaining` is nonempty here.
    #[allow(clippy::too_many_arguments)]
    fn fold_forced(
        &self,
        view: &NodeView<'_>,
        id: DagNodeId,
        remaining: CourseSet,
        workloads: &[f64],
        restriction: &Restriction,
        forced: &mut FxMap<(DagNodeId, CourseSet), Option<FoldAcc>>,
        memo: &mut FoldMemo,
    ) -> Option<FoldAcc> {
        if let Some(out) = forced.get(&(id, remaining)) {
            return *out;
        }
        let node = view.node(id);
        let out = match &node.kind {
            // The path ends without the forced courses: dropped.
            DagNodeKind::Leaf(_) => None,
            // Pruned skeletons are kept by restrict and through alike.
            DagNodeKind::Pruned(_) => Some(FoldAcc::from_node(0, 0, &node.stats)),
            DagNodeKind::Empty => None,
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                if !remaining.is_subset(&node.support) {
                    // Some forced course is not electable below: `through`
                    // would empty this subtree, so the edge drops.
                    None
                } else {
                    let mut survivors = 0u64;
                    let mut kept = 0u64;
                    let mut acc = FoldAcc {
                        paths: 0,
                        goal_paths: 0,
                        nodes_expanded: 1,
                        edges_created: 0,
                        pruned_time: *floor_skipped,
                        pruned_availability: 0,
                    };
                    let veto = restriction.at(node, edges);
                    let outstanding = edges.mask_of(&remaining);
                    for i in 0..edges.len() {
                        if !veto.keeps(edges, i, workloads) {
                            continue;
                        }
                        survivors += 1;
                        let child = edges.child(i);
                        // Only an edge electing an outstanding course
                        // changes what is outstanding below it.
                        let child_remaining = if edges.meets(i, &outstanding) {
                            remaining.difference(&edges.selection(i))
                        } else {
                            remaining
                        };
                        let sub = if child_remaining.is_empty() {
                            Some(match memo.get(child) {
                                Some(sub) => sub,
                                None => {
                                    self.fold_restrict(view, child, workloads, restriction, memo)
                                }
                            })
                        } else {
                            self.fold_forced(
                                view,
                                child,
                                child_remaining,
                                workloads,
                                restriction,
                                forced,
                                memo,
                            )
                        };
                        if let Some(sub) = sub {
                            kept += 1;
                            acc.edges_created += 1;
                            acc.merge(&sub);
                        }
                    }
                    // With forced courses outstanding, a subtree with no
                    // surviving edge (dead end or skeleton) keeps no path,
                    // and neither does one whose every child dropped.
                    if survivors == 0 || kept == 0 {
                        None
                    } else {
                        Some(acc)
                    }
                }
            }
        };
        forced.insert((id, remaining), out);
        out
    }

    /// Set algebra over two DAGs anchored at the same state: the coupled
    /// DFS with the pair-keyed apply cache. Children are matched by
    /// selection (equal selections from equal anchors reach equal states,
    /// so the anchor invariant is maintained by construction). Counts of
    /// the result are exactly the set-theoretic counts over the operands'
    /// path sets; statistics are those of the combined structure.
    pub fn set_apply(
        &self,
        op: SetOp,
        a: DagNodeId,
        b: DagNodeId,
    ) -> Result<DagNodeId, ApplyError> {
        let (na, nb) = (self.node(a), self.node(b));
        // Terminal nodes are anchor-free (shared across states), so only
        // two interiors can — and must — prove a common frame.
        if let (DagNodeKind::Interior { .. }, DagNodeKind::Interior { .. }) = (&na.kind, &nb.kind) {
            if na.semester != nb.semester || na.completed != nb.completed {
                return Err(ApplyError::AnchorMismatch);
            }
        }
        let tag = match op {
            SetOp::Intersect => 0x49, // 'I'
            SetOp::Union => 0x55,     // 'U'
            SetOp::Diff => 0x44,      // 'D'
        };
        let fp = op_fingerprint(tag, 0);
        let mut local = HashMap::new();
        self.set_node(op, fp, a, b, &mut local)
    }

    fn set_node(
        &self,
        op: SetOp,
        fp: u64,
        a: DagNodeId,
        b: DagNodeId,
        local: &mut HashMap<(DagNodeId, DagNodeId), DagNodeId>,
    ) -> Result<DagNodeId, ApplyError> {
        if a == b {
            return Ok(match op {
                SetOp::Intersect | SetOp::Union => a,
                SetOp::Diff => self.empty(),
            });
        }
        if let Some(&out) = local.get(&(a, b)) {
            return Ok(out);
        }
        let key = (fp, a, b);
        if let Some(out) = self.apply_get(&key) {
            local.insert((a, b), out);
            return Ok(out);
        }
        let na = self.node(a);
        let nb = self.node(b);
        let out = if na.is_zero() {
            match op {
                SetOp::Intersect | SetOp::Diff => self.empty(),
                SetOp::Union => b,
            }
        } else if nb.is_zero() {
            match op {
                SetOp::Intersect => self.empty(),
                SetOp::Union | SetOp::Diff => a,
            }
        } else {
            match (&na.kind, &nb.kind) {
                (DagNodeKind::Leaf(ka), DagNodeKind::Leaf(kb)) => {
                    // Same kind would have hash-consed to a == b above, so
                    // the kinds differ here: the frames classify this path
                    // differently.
                    match op {
                        SetOp::Intersect => self.empty(),
                        SetOp::Diff => a,
                        SetOp::Union => {
                            return Err(ApplyError::Incompatible(format!(
                                "leaf kinds {ka:?} and {kb:?} at the same state"
                            )))
                        }
                    }
                }
                (DagNodeKind::Leaf(_), DagNodeKind::Interior { .. })
                | (DagNodeKind::Interior { .. }, DagNodeKind::Leaf(_)) => match op {
                    // A leaf's path ends here; interior paths continue —
                    // disjoint sets.
                    SetOp::Intersect => self.empty(),
                    SetOp::Diff => a,
                    SetOp::Union => {
                        return Err(ApplyError::Incompatible(
                            "one frame ends where the other continues".into(),
                        ))
                    }
                },
                (
                    DagNodeKind::Interior {
                        edges: ea,
                        floor_skipped,
                    },
                    DagNodeKind::Interior { edges: eb, .. },
                ) => {
                    let b_children: HashMap<CourseSet, DagNodeId> = eb.iter().collect();
                    let mut new_edges: Vec<(CourseSet, DagNodeId)> = Vec::new();
                    for (selection, ca) in ea.iter() {
                        match (op, b_children.get(&selection)) {
                            (_, Some(&cb)) => {
                                let child = self.set_node(op, fp, ca, cb, local)?;
                                new_edges.push((selection, child));
                            }
                            (SetOp::Intersect, None) => {}
                            (SetOp::Union | SetOp::Diff, None) => new_edges.push((selection, ca)),
                        }
                    }
                    if op == SetOp::Union {
                        let a_selections: HashMap<CourseSet, ()> =
                            ea.iter().map(|(s, _)| (s, ())).collect();
                        for (selection, cb) in eb.iter() {
                            if !a_selections.contains_key(&selection) {
                                new_edges.push((selection, cb));
                            }
                        }
                    }
                    if new_edges.is_empty() {
                        self.empty()
                    } else if new_edges.iter().copied().eq(ea.iter()) {
                        a
                    } else {
                        // No catalog in scope here, so the per-edge loads
                        // are unknown: empty vector ⇒ the node's workload
                        // bound degrades to the conservative ∞.
                        self.intern(
                            na.semester,
                            na.completed,
                            DagNodeKind::Interior {
                                edges: Edges::new(&new_edges),
                                floor_skipped: *floor_skipped,
                            },
                            Vec::new(),
                        )
                    }
                }
                // Zero kinds were handled above.
                _ => unreachable!("zero operands already dispatched"),
            }
        };
        self.apply_put(key, out);
        local.insert((a, b), out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;
    use std::sync::Arc;

    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    use super::*;
    use crate::explorer::Explorer;
    use crate::filter::{AvoidCourses, MaxSemesterWorkload};
    use crate::path::LeafKind;
    use crate::status::EnrollmentStatus;

    fn base_explorer(synth: &SyntheticCatalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap()
    }

    fn avoid_set(synth: &SyntheticCatalog, n: usize) -> CourseSet {
        synth.catalog.courses().take(n).map(|c| c.id()).collect()
    }

    #[test]
    fn restrict_is_canonical_with_filtered_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let avoid = avoid_set(&synth, 2);
        let restricted = table.restrict(
            base,
            &synth.catalog,
            &Restriction {
                avoid,
                max_workload: None,
            },
        );
        let filtered = base_explorer(&synth)
            .with_filter(Arc::new(AvoidCourses(avoid)))
            .build_path_dag(&table, None, None)
            .unwrap();
        assert_eq!(
            restricted, filtered,
            "restrict returns the exact node the filtered build interns"
        );
    }

    #[test]
    fn restrict_workload_matches_filtered_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let cap = 12.0;
        let restricted = table.restrict(
            base,
            &synth.catalog,
            &Restriction {
                avoid: CourseSet::EMPTY,
                max_workload: Some(cap),
            },
        );
        let filtered = base_explorer(&synth)
            .with_filter(Arc::new(MaxSemesterWorkload(cap)))
            .build_path_dag(&table, None, None)
            .unwrap();
        assert_eq!(restricted, filtered);
    }

    #[test]
    fn restrict_untouched_subtrees_short_circuit() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        // A restriction avoiding nothing electable and capping above the
        // whole DAG's heaviest selection cannot touch the root.
        let root = table.node(base);
        assert!(root.max_load.is_finite(), "built DAGs have exact bounds");
        let r = Restriction {
            avoid: CourseSet::EMPTY,
            max_workload: Some(root.max_load + 1.0),
        };
        let before = table.snapshot();
        let restricted = table.restrict(base, &synth.catalog, &r);
        let after = table.snapshot();
        assert_eq!(restricted, base, "nothing to veto: the root is canonical");
        assert_eq!(
            after.interned, before.interned,
            "the untouched proof interns nothing"
        );
    }

    #[test]
    fn restrict_warm_repeat_hits_the_apply_cache() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let r = Restriction {
            avoid: avoid_set(&synth, 1),
            max_workload: None,
        };
        let first = table.restrict(base, &synth.catalog, &r);
        let before = table.snapshot();
        let second = table.restrict(base, &synth.catalog, &r);
        let after = table.snapshot();
        assert_eq!(first, second);
        assert!(after.apply_hits > before.apply_hits);
        assert_eq!(
            after.interned, before.interned,
            "warm repeat interns nothing"
        );
    }

    #[test]
    fn through_counts_match_brute_force_filtering() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = base_explorer(&synth);
        let table = UniqueTable::new(0);
        let base = e.build_path_dag(&table, None, None).unwrap();
        for n in 1..=2 {
            let want = avoid_set(&synth, n);
            let forced = table.through(base, &synth.catalog, &CourseSet::EMPTY, want);
            let node = table.node(forced);
            let mut expected = 0u128;
            e.visit_paths(|visit| {
                let completed = visit.statuses.last().unwrap().completed();
                if want.is_subset(completed) {
                    expected += 1;
                }
                ControlFlow::Continue(())
            });
            assert_eq!(node.paths, expected, "forcing {n} course(s)");
        }
    }

    #[test]
    fn whatif_counts_match_the_materialized_composition() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let c01 = avoid_set(&synth, 2);
        let c0 = avoid_set(&synth, 1);
        let cases: Vec<(Restriction, CourseSet)> = vec![
            (
                Restriction {
                    avoid: c0,
                    max_workload: None,
                },
                CourseSet::EMPTY,
            ),
            (
                Restriction {
                    avoid: CourseSet::EMPTY,
                    max_workload: Some(14.0),
                },
                CourseSet::EMPTY,
            ),
            (Restriction::default(), c01),
            (
                Restriction {
                    avoid: c0,
                    max_workload: Some(18.0),
                },
                avoid_set(&synth, 3).difference(&c01),
            ),
        ];
        for (restriction, force) in &cases {
            let (paths, goal_paths, stats) =
                table.whatif_counts(base, &synth.catalog, restriction, force, &CourseSet::EMPTY);
            let restricted = table.restrict(base, &synth.catalog, restriction);
            let completed = table.node(base).completed;
            let forced = table.through(restricted, &synth.catalog, &completed, *force);
            let node = table.node(forced);
            assert_eq!(
                (paths, goal_paths),
                (node.paths, node.goal_paths),
                "fold counts equal the materialized composition"
            );
            assert_eq!(stats, node.stats, "fold stats equal the composition");
            // The fold is whole-call cached: asking again walks nothing.
            let before = table.snapshot();
            let again =
                table.whatif_counts(base, &synth.catalog, restriction, force, &CourseSet::EMPTY);
            let after = table.snapshot();
            assert_eq!(again, (paths, goal_paths, stats));
            assert!(after.apply_hits > before.apply_hits);
        }
    }

    #[test]
    fn set_algebra_matches_inclusion_exclusion() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        // A = paths avoiding c0, B = paths avoiding c1 — same frame, both
        // subsets of the base path set.
        let c0 = avoid_set(&synth, 1);
        let c1 = avoid_set(&synth, 2).difference(&c0);
        let a = table.restrict(
            base,
            &synth.catalog,
            &Restriction {
                avoid: c0,
                max_workload: None,
            },
        );
        let b = table.restrict(
            base,
            &synth.catalog,
            &Restriction {
                avoid: c1,
                max_workload: None,
            },
        );
        let pa = table.node(a).paths;
        let pb = table.node(b).paths;
        let both = table.set_apply(SetOp::Intersect, a, b).unwrap();
        let p_both = table.node(both).paths;
        // A ∩ B = paths avoiding both — verifiable directly.
        let direct = table.restrict(
            base,
            &synth.catalog,
            &Restriction {
                avoid: c0.union(&c1),
                max_workload: None,
            },
        );
        // The intersection's *counts* must match the doubly-restricted
        // DAG's (the nodes may differ structurally: intersect keeps the
        // edge-to-pruned skeleton of its operands).
        assert_eq!(p_both, table.node(direct).paths);
        let either = table.set_apply(SetOp::Union, a, b).unwrap();
        assert_eq!(table.node(either).paths, pa + pb - p_both);
        let only_a = table.set_apply(SetOp::Diff, a, b).unwrap();
        assert_eq!(table.node(only_a).paths, pa - p_both);
        let only_b = table.set_apply(SetOp::Diff, b, a).unwrap();
        assert_eq!(table.node(only_b).paths, pb - p_both);
    }

    #[test]
    fn set_apply_rejects_mismatched_anchors() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let node = table.node(base);
        let DagNodeKind::Interior { edges, .. } = &node.kind else {
            panic!("root should expand");
        };
        let child = edges
            .iter()
            .map(|(_, c)| c)
            .find(|&c| matches!(table.node(c).kind, DagNodeKind::Interior { .. }))
            .expect("the root has an interior child");
        assert_eq!(
            table.set_apply(SetOp::Intersect, base, child),
            Err(ApplyError::AnchorMismatch)
        );
    }

    /// Every selection's summed workload in the DAG below `root`, once per
    /// distinct value.
    fn distinct_edge_loads(table: &UniqueTable, catalog: &Catalog, root: DagNodeId) -> Vec<f64> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut loads = std::collections::BTreeMap::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if let DagNodeKind::Interior { edges, .. } = &table.node(id).kind {
                for (selection, child) in edges.iter() {
                    let load = Restriction::load(catalog, &selection);
                    loads.insert(load.to_bits(), load);
                    stack.push(child);
                }
            }
        }
        loads.into_values().collect()
    }

    /// A cap exactly at an edge's load keeps the edge and the next float
    /// down drops it, so re-summing a mask's workloads must reproduce the
    /// filter's float additions bit for bit. Three-course selections are
    /// where summation order can show in the low bits.
    #[test]
    fn caps_at_every_exact_edge_load_match_filtered_builds() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        for m in [2, 3] {
            let explorer =
                || Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, m).unwrap();
            let table = UniqueTable::new(0);
            let base = explorer().build_path_dag(&table, None, None).unwrap();
            let loads = distinct_edge_loads(&table, &synth.catalog, base);
            assert!(loads.len() > 3, "{loads:?}");
            for load in loads {
                for cap in [load, load.next_down()] {
                    let filtered = explorer()
                        .with_filter(Arc::new(MaxSemesterWorkload(cap)))
                        .build_path_dag(&table, None, None)
                        .unwrap();
                    assert_cap_matches(&table, &synth.catalog, base, cap, filtered);
                }
            }
        }
    }

    /// `restrict` and `whatif_counts` under `cap` agree with `filtered`, the
    /// root a build with the cap installed as a filter interned.
    fn assert_cap_matches(
        table: &UniqueTable,
        catalog: &Catalog,
        base: DagNodeId,
        cap: f64,
        filtered: DagNodeId,
    ) {
        let r = Restriction {
            avoid: CourseSet::EMPTY,
            max_workload: Some(cap),
        };
        assert_eq!(table.restrict(base, catalog, &r), filtered, "cap {cap}");
        let node = table.node(filtered);
        assert_eq!(
            table.whatif_counts(base, catalog, &r, &CourseSet::EMPTY, &CourseSet::EMPTY),
            (node.paths, node.goal_paths, node.stats),
            "cap {cap}"
        );
    }

    /// A catalog of `n` schedule-free courses with workloads that are not
    /// small integers, so summation order shows in the low bits.
    fn wide_catalog(n: usize) -> Catalog {
        let mut builder = coursenav_catalog::CatalogBuilder::new();
        for i in 0..n {
            builder.add_course(
                coursenav_catalog::CourseSpec::new(format!("W {i}").as_str(), "wide")
                    .workload(0.1 * (i % 13) as f64 + 2.7),
            );
        }
        builder.build().unwrap()
    }

    fn ids(raw: &[u16]) -> CourseSet {
        raw.iter()
            .map(|&i| coursenav_catalog::CourseId::new(i))
            .collect()
    }

    /// Interns a node from a decoded edge list the way the apply
    /// operations must: the empty set, the unchanged `original`, or the
    /// interior over exactly these edges with their exact loads.
    fn oracle_node(
        table: &UniqueTable,
        catalog: &Catalog,
        original: DagNodeId,
        edges: Vec<(CourseSet, DagNodeId)>,
    ) -> DagNodeId {
        let node = table.node(original);
        let DagNodeKind::Interior {
            edges: before,
            floor_skipped,
        } = &node.kind
        else {
            panic!("oracle nodes are interiors");
        };
        if edges.is_empty() {
            return table.empty();
        }
        if edges.iter().copied().eq(before.iter()) {
            return original;
        }
        let loads = edges
            .iter()
            .map(|(selection, _)| Restriction::load(catalog, selection))
            .collect();
        table.intern(
            node.semester,
            node.completed,
            DagNodeKind::Interior {
                edges: Edges::new(&edges),
                floor_skipped: *floor_skipped,
            },
            loads,
        )
    }

    /// Selections over a 100-course alphabet need two mask words per edge;
    /// every apply operation must agree with the same operation carried
    /// out on the decoded edge list.
    #[test]
    fn wide_alphabets_match_the_decoded_edge_list() {
        let catalog = wide_catalog(100);
        let table = UniqueTable::new(0);
        let leaf = |kind| table.intern(0, CourseSet::EMPTY, DagNodeKind::Leaf(kind), Vec::new());
        let children = [
            leaf(LeafKind::Goal),
            leaf(LeafKind::Deadline),
            table.intern(
                0,
                CourseSet::EMPTY,
                DagNodeKind::Pruned(crate::pruning::PruneReason::Time),
                Vec::new(),
            ),
        ];
        let a_edges: Vec<(CourseSet, DagNodeId)> = (0..40u16)
            .map(|i| (ids(&[i, i + 30, i + 60]), children[usize::from(i) % 3]))
            .collect();
        let a = table.intern(
            0,
            CourseSet::EMPTY,
            DagNodeKind::Interior {
                edges: Edges::new(&a_edges),
                floor_skipped: 0,
            },
            Vec::new(),
        );
        let node = table.node(a);
        let DagNodeKind::Interior { edges, .. } = &node.kind else {
            panic!("interned an interior");
        };
        assert!(
            edges.iter().eq(a_edges.iter().copied()),
            "decoding inverts encoding"
        );
        assert_eq!(edges.words(), 2, "100 courses take two mask words");
        let workloads = course_workloads(&catalog);
        for (i, (selection, _)) in a_edges.iter().enumerate() {
            assert_eq!(
                edges.load(i, &workloads).to_bits(),
                Restriction::load(&catalog, selection).to_bits(),
                "edge {i}: re-summed load"
            );
        }

        let mut cases = vec![
            (ids(&[3]), None),
            // A course whose alphabet position sits in the second word.
            (ids(&[75]), None),
            (ids(&[75]), Some(9.0)),
            (ids(&[31, 99]), Some(8.7)),
            (ids(&(0..100).collect::<Vec<_>>()), None),
        ];
        for load in distinct_edge_loads(&table, &catalog, a) {
            cases.push((CourseSet::EMPTY, Some(load)));
            cases.push((CourseSet::EMPTY, Some(load.next_down())));
        }
        for (avoid, max_workload) in cases {
            let r = Restriction {
                avoid,
                max_workload,
            };
            let kept: Vec<_> = a_edges
                .iter()
                .copied()
                .filter(|(selection, _)| r.allows(&catalog, selection))
                .collect();
            let expected = if kept.is_empty() {
                table.intern(
                    0,
                    CourseSet::EMPTY,
                    DagNodeKind::Leaf(LeafKind::DeadEnd),
                    Vec::new(),
                )
            } else {
                oracle_node(&table, &catalog, a, kept.clone())
            };
            let restricted = table.restrict(a, &catalog, &r);
            assert_eq!(restricted, expected, "{r:?}");
            assert_eq!(
                table.node(restricted).max_load.to_bits(),
                table.node(expected).max_load.to_bits()
            );
            let electable = kept
                .iter()
                .fold(CourseSet::EMPTY, |acc, (selection, _)| acc.union(selection));
            for want in [CourseSet::EMPTY, ids(&[64]), ids(&[5, 35])] {
                // A forced course electable nowhere empties the node;
                // otherwise edges completing the forced set survive, and
                // so do pruned skeletons.
                let forced: Vec<_> = kept
                    .iter()
                    .copied()
                    .filter(|(selection, child)| {
                        want.is_subset(&electable)
                            && (want.is_subset(selection) || *child == children[2])
                    })
                    .collect();
                let through = table.through(restricted, &catalog, &CourseSet::EMPTY, want);
                if !kept.is_empty() {
                    assert_eq!(
                        through,
                        oracle_node(&table, &catalog, restricted, forced.clone())
                    );
                }
                let goal = forced.iter().filter(|(_, c)| *c == children[0]).count() as u128;
                let paths = forced.iter().filter(|(_, c)| *c != children[2]).count() as u128;
                let (p, g, _) = table.whatif_counts(a, &catalog, &r, &want, &CourseSet::EMPTY);
                if kept.is_empty() {
                    // Restrict reclassified the node as a dead end: one path,
                    // which forcing a course drops.
                    assert_eq!((p, g), (u128::from(want.is_empty()), 0), "{r:?} {want:?}");
                } else {
                    assert_eq!((p, g), (paths, goal), "{r:?} {want:?}");
                    let n = table.node(through);
                    assert_eq!((p, g), (n.paths, n.goal_paths));
                }
            }
        }

        // B shares half of A's selections (with the same children) and
        // adds selections of its own.
        let b_edges: Vec<(CourseSet, DagNodeId)> = a_edges[20..]
            .iter()
            .copied()
            .chain((0..10u16).map(|i| (ids(&[i, 99 - i]), children[1])))
            .collect();
        let b = table.intern(
            0,
            CourseSet::EMPTY,
            DagNodeKind::Interior {
                edges: Edges::new(&b_edges),
                floor_skipped: 0,
            },
            Vec::new(),
        );
        let in_b = |s: &CourseSet| b_edges.iter().any(|(t, _)| t == s);
        let empty = table.empty();
        let expected_edges = |op: SetOp| -> Vec<(CourseSet, DagNodeId)> {
            match op {
                SetOp::Intersect => a_edges.iter().copied().filter(|(s, _)| in_b(s)).collect(),
                SetOp::Diff => a_edges
                    .iter()
                    .map(|&(s, c)| (s, if in_b(&s) { empty } else { c }))
                    .collect(),
                SetOp::Union => a_edges
                    .iter()
                    .copied()
                    .chain(
                        b_edges
                            .iter()
                            .copied()
                            .filter(|(s, _)| !a_edges.iter().any(|(t, _)| t == s)),
                    )
                    .collect(),
            }
        };
        for op in [SetOp::Intersect, SetOp::Union, SetOp::Diff] {
            let expected_edges = expected_edges(op);
            let expected = table.intern(
                0,
                CourseSet::EMPTY,
                DagNodeKind::Interior {
                    edges: Edges::new(&expected_edges),
                    floor_skipped: 0,
                },
                Vec::new(),
            );
            assert_eq!(table.set_apply(op, a, b).unwrap(), expected, "{op:?}");
        }
    }

    /// A stream of distinct counting what-ifs interns nothing, so only the
    /// caches' own bound keeps them from growing with the stream.
    #[test]
    fn whatif_caches_stay_within_the_table_capacity() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let capacity = 64;
        let table = UniqueTable::new(capacity);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        let courses: Vec<CourseSet> = synth
            .catalog
            .courses()
            .map(|c| CourseSet::from_iter([c.id()]))
            .collect();
        for i in 0..3 * capacity {
            let r = Restriction {
                avoid: courses[i % courses.len()],
                max_workload: Some(10.0 + i as f64 / 8.0),
            };
            table.whatif_counts(
                base,
                &synth.catalog,
                &r,
                &CourseSet::EMPTY,
                &CourseSet::EMPTY,
            );
            table.restrict(base, &synth.catalog, &r);
            let (apply, folds) = table.cache_entries();
            assert!(
                apply <= capacity,
                "{apply} apply entries after {i} what-ifs"
            );
            assert!(folds <= capacity, "{folds} fold entries after {i} what-ifs");
        }
        assert!(table.snapshot().apply_misses > 3 * capacity as u64);
    }

    #[test]
    fn idempotent_ops_short_circuit() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, None, None)
            .unwrap();
        assert_eq!(table.set_apply(SetOp::Intersect, base, base).unwrap(), base);
        assert_eq!(table.set_apply(SetOp::Union, base, base).unwrap(), base);
        let none = table.set_apply(SetOp::Diff, base, base).unwrap();
        assert_eq!(table.node(none).paths, 0);
    }
}
