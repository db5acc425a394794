//! The what-if engine: one counting fold over a hash-consed path DAG.
//!
//! Once an exploration is interned in a [`UniqueTable`], a what-if delta
//! is answered by [`UniqueTable::whatif_counts`] instead of
//! re-exploration. It walks the built DAG once, in the counting semiring,
//! and creates no node. A [`Restriction`] ("avoid X", "cap my workload")
//! filters every edge; forced courses ("every path goes through Y") keep
//! only the paths that complete all of them. The fold carries the forced
//! courses still *outstanding* (not yet elected on the way down) and
//! answers each `(node, outstanding)` pair by four rules:
//!
//! - a leaf is kept only when nothing is outstanding;
//! - a pruned state is kept, with its prune counter;
//! - an interior whose every edge is vetoed, with nothing floor-skipped,
//!   is still expanded and ends one dead-end path, exactly as a build with
//!   `AvoidCourses`/`MaxSemesterWorkload` installed counts it;
//! - while forced courses are outstanding, a subtree that keeps no path is
//!   dropped, statistics and all.
//!
//! With nothing outstanding the answer is total, and its counts and
//! logical statistics equal the filtered build's. The tests pin all four
//! rules to a naive tree enumeration with the filters installed.
//!
//! Every node carries its subtree's *support set* and heaviest-selection
//! workload (see [`crate::unique::DagNode`]), so a subtree the restriction
//! provably cannot touch is answered from its stored counts in O(1) when
//! nothing is outstanding, and one where an outstanding forced course is
//! electable nowhere is dropped without a walk. A what-if therefore visits
//! only the delta-affected frontier of the DAG, and since nodes are
//! interned by structure alone, each structurally distinct subtree of that
//! frontier once, however many states share it. Per call, answers with
//! nothing outstanding are memoized by node id in a dense array, the rest
//! by `(node, outstanding)`; whole-call results land in the table's fold
//! cache, keyed by the delta itself, so a repeated what-if does no walk at
//! all.
//!
//! Edges are read in their packed form ([`crate::unique::Edges`]): per
//! visited interior, the avoided courses become one mask over the node's
//! alphabet, and an edge is vetoed by a mask test instead of a set
//! intersection. A workload cap re-sums the edge's at most `m` course
//! workloads from a dense per-course slice computed once per call, in
//! ascending course order like `Restriction::load`, so every cap decision
//! is bit-identical to a build with `MaxSemesterWorkload` installed; a node
//! whose heaviest-selection bound clears the cap skips the sums.

use coursenav_catalog::{Catalog, CourseSet};

use crate::stats::ExploreStats;
use crate::unique::{
    Counts, DagNode, DagNodeId, DagNodeKind, Edges, FxMap, Mask, NodeView, UniqueTable,
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
    fn cannot_touch(&self, support: &CourseSet, max_load: f64) -> bool {
        support.is_disjoint(&self.avoid) && self.max_workload.is_none_or(|cap| cap >= max_load)
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

/// Every course's weekly workload, indexed by course id: the dense slice
/// the fold re-sums edge loads from, computed once per call.
fn course_workloads(catalog: &Catalog) -> Vec<f64> {
    catalog.courses().map(|course| course.workload()).collect()
}

const SLOT_WORDS: usize = 8;

/// Dense id-indexed memo for the answers with nothing outstanding: one
/// cache line (eight words: paths, goal paths, four counters) per visible
/// id, probed with a single random access. The fold touches a large
/// fraction of the table, so a flat probe beats both hashing a key per
/// node and a two-level slot→result indirection. The backing vector is
/// requested zero-filled — the allocator serves untouched zero pages, so
/// even a what-if that short-circuits immediately pays nothing for a
/// table-sized memo. An all-zero line means "unvisited": every answer
/// counts a path, an expansion or a prune, so none is all-zero.
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
    fn get(&self, id: DagNodeId) -> Option<Counts> {
        let at = id.raw() * SLOT_WORDS;
        let w: &[u64; SLOT_WORDS] = self.words[at..at + SLOT_WORDS].try_into().unwrap();
        if w.iter().all(|&x| x == 0) {
            return None;
        }
        Some(Counts {
            paths: u128::from(w[0]) | (u128::from(w[1]) << 64),
            goal_paths: u128::from(w[2]) | (u128::from(w[3]) << 64),
            nodes_expanded: w[4],
            edges_created: w[5],
            pruned_time: w[6],
            pruned_availability: w[7],
        })
    }

    #[inline]
    fn put(&mut self, id: DagNodeId, counts: &Counts) {
        let at = id.raw() * SLOT_WORDS;
        let w: &mut [u64; SLOT_WORDS] = (&mut self.words[at..at + SLOT_WORDS]).try_into().unwrap();
        w[0] = counts.paths as u64;
        w[1] = (counts.paths >> 64) as u64;
        w[2] = counts.goal_paths as u64;
        w[3] = (counts.goal_paths >> 64) as u64;
        w[4] = counts.nodes_expanded;
        w[5] = counts.edges_created;
        w[6] = counts.pruned_time;
        w[7] = counts.pruned_availability;
    }
}

/// One what-if's walk: the DAG, the delta, and the two per-call memos.
struct Fold<'a> {
    view: &'a NodeView<'a>,
    /// [`course_workloads`], read only under a workload cap.
    workloads: &'a [f64],
    restriction: &'a Restriction,
    /// Answers with nothing outstanding, by node id.
    memo: FoldMemo,
    /// Answers with forced courses outstanding, by node and outstanding
    /// set; `None` when the subtree keeps no path.
    forced: FxMap<(DagNodeId, CourseSet), Option<Counts>>,
}

impl Fold<'_> {
    /// The counts of the subtree at `id` under the restriction, keeping
    /// only paths that elect every course of `remaining` (see the module
    /// docs for the rules). `None` means the subtree keeps no path while
    /// `remaining` is outstanding: the edge into it is dropped and adds
    /// nothing to the statistics. With `remaining` empty the answer is
    /// always `Some`.
    fn fold(&mut self, id: DagNodeId, remaining: CourseSet) -> Option<Counts> {
        let forcing = !remaining.is_empty();
        if forcing {
            if let Some(out) = self.forced.get(&(id, remaining)) {
                return *out;
            }
        } else if let Some(out) = self.memo.get(id) {
            // Probed before touching the node: most edges point at
            // already-folded children, and the probe is one flat array
            // read against the node fetch's pointer chase.
            return Some(out);
        }
        let node = self.view.node(id);
        let out = match &node.kind {
            // Nothing vetoable below: the subtree survives verbatim, and
            // its stored summaries are the answer. Memoized too, so the
            // proof is paid once per node, not once per incoming edge.
            _ if !forcing && self.restriction.cannot_touch(&node.support, node.max_load) => {
                Some(Counts::of(node))
            }
            DagNodeKind::Leaf(_) => (!forcing).then(|| Counts::of(node)),
            // Whether a pruned state counts is up to its parent, which
            // drops it with itself when no sibling keeps a path.
            DagNodeKind::Pruned(_) => Some(Counts::of(node)),
            // Some forced course is not electable below, so no path here
            // completes the forced set.
            DagNodeKind::Interior { .. } if !remaining.is_subset(&node.support) => None,
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                let mut acc = Counts::interior(*floor_skipped);
                let veto = self.restriction.at(node, edges);
                let outstanding = edges.mask_of(&remaining);
                for i in 0..edges.len() {
                    if !veto.keeps(edges, i, self.workloads) {
                        continue;
                    }
                    let child = edges.child(i);
                    let sub = if forcing {
                        // Only an edge electing an outstanding course
                        // changes what is outstanding below it.
                        let below = if edges.meets(i, &outstanding) {
                            remaining.difference(&edges.selection(i))
                        } else {
                            remaining
                        };
                        self.fold(child, below)
                    } else {
                        // Probe inline before recursing: the common case
                        // is an already-folded child, answered by one
                        // array read with no call and no node fetch.
                        self.memo.get(child).or_else(|| self.fold(child, remaining))
                    };
                    if let Some(sub) = sub {
                        acc.add_edge(&sub);
                    }
                }
                if forcing {
                    // A subtree that keeps no path (a dead end, a pruned
                    // skeleton, or one whose paths all miss a forced
                    // course) drops whole.
                    (acc.paths != 0).then_some(acc)
                } else {
                    acc.close();
                    Some(acc)
                }
            }
        };
        if forcing {
            self.forced.insert((id, remaining), out);
        } else if let Some(out) = &out {
            self.memo.put(id, out);
        }
        out
    }
}

impl UniqueTable {
    /// A what-if's `(paths, goal_paths, stats)` over the DAG at `root`:
    /// `restriction` filters every edge, and only paths completing every
    /// course of `force` count (see the module docs for the rules).
    /// `completed_at_root` is the root state's completed set (nodes are
    /// interned by structure alone and carry no state, so the caller
    /// supplies it). Each
    /// provably-untouched subtree is answered from its stored summaries in
    /// O(1), so the walk touches only the delta-affected frontier.
    /// Whole-call results are cached in the table's fold cache, so a
    /// repeated what-if does no walk at all.
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
        let key = (
            restriction.avoid,
            restriction.max_workload.map(f64::to_bits),
            remaining,
            root,
        );
        let counts = self.fold_get(&key).unwrap_or_else(|| {
            // The fold never interns, so it reads through a whole-table
            // view: one lock acquisition per shard instead of one per node
            // visit.
            let view = self.view();
            let out = Fold {
                view: &view,
                workloads: &course_workloads(catalog),
                restriction,
                memo: FoldMemo::new(view.id_bound()),
                forced: FxMap::default(),
            }
            .fold(root, remaining)
            .unwrap_or_default();
            drop(view);
            self.fold_put(key, out);
            out
        });
        (counts.paths, counts.goal_paths, counts.stats())
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;
    use std::sync::Arc;

    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
    use proptest::prelude::*;

    use super::*;
    use crate::explorer::{no_table, Disposition, Explorer};
    use crate::filter::{AvoidCourses, MaxSemesterWorkload};
    use crate::goal::Goal;
    use crate::path::LeafKind;
    use crate::pruning::{record_prune, Pruner};
    use crate::status::EnrollmentStatus;

    fn base_explorer(synth: &SyntheticCatalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap()
    }

    fn avoid_set(synth: &SyntheticCatalog, n: usize) -> CourseSet {
        synth.catalog.courses().take(n).map(|c| c.id()).collect()
    }

    #[test]
    fn through_counts_match_brute_force_filtering() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = base_explorer(&synth);
        let table = UniqueTable::new(0);
        let base = e.build_path_dag(&table, None, None).unwrap();
        for n in 1..=2 {
            let want = avoid_set(&synth, n);
            let (paths, _, _) = table.whatif_counts(
                base,
                &synth.catalog,
                &Restriction::default(),
                &want,
                &CourseSet::EMPTY,
            );
            let mut expected = 0u128;
            e.visit_paths(|visit| {
                let completed = visit.statuses.last().unwrap().completed();
                if want.is_subset(completed) {
                    expected += 1;
                }
                ControlFlow::Continue(())
            });
            assert_eq!(paths, expected, "forcing {n} course(s)");
        }
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

    /// `whatif_counts` under `cap` agrees with `filtered`, the root a build
    /// with the cap installed as a filter interned.
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

    /// Selections over a 100-course alphabet need two mask words per edge;
    /// the fold must agree with the same what-if carried out on the
    /// decoded edge list.
    #[test]
    fn wide_alphabets_match_the_decoded_edge_list() {
        let catalog = wide_catalog(100);
        let workloads = course_workloads(&catalog);
        let table = UniqueTable::new(0);
        let pruned = DagNodeKind::Pruned(crate::pruning::PruneReason::Time);
        let children = [
            table.intern_built(DagNodeKind::Leaf(LeafKind::Goal), &workloads),
            table.intern_built(DagNodeKind::Leaf(LeafKind::Deadline), &workloads),
            table.intern_built(pruned, &workloads),
        ];
        let a_edges: Vec<(CourseSet, DagNodeId)> = (0..40u16)
            .map(|i| (ids(&[i, i + 30, i + 60]), children[usize::from(i) % 3]))
            .collect();
        let a = table.intern_built(
            DagNodeKind::Interior {
                edges: Edges::new(&a_edges),
                floor_skipped: 0,
            },
            &workloads,
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
            for want in [CourseSet::EMPTY, ids(&[64]), ids(&[5, 35])] {
                // Paths ending at a leaf below an edge that elects every
                // forced course.
                let forced: Vec<_> = kept
                    .iter()
                    .filter(|(selection, child)| want.is_subset(selection) && *child != children[2])
                    .collect();
                let goal = forced.iter().filter(|(_, c)| *c == children[0]).count() as u128;
                let (p, g, _) = table.whatif_counts(a, &catalog, &r, &want, &CourseSet::EMPTY);
                if kept.is_empty() {
                    // Every selection vetoed: the root is a dead end, one
                    // path, which forcing a course drops.
                    assert_eq!((p, g), (u128::from(want.is_empty()), 0), "{r:?} {want:?}");
                } else {
                    assert_eq!((p, g), (forced.len() as u128, goal), "{r:?} {want:?}");
                }
            }
        }
    }

    /// A stream of distinct counting what-ifs interns nothing, so only the
    /// fold cache's own bound keeps it from growing with the stream.
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
            let folds = table.fold_entries();
            assert!(folds <= capacity, "{folds} fold entries after {i} what-ifs");
        }
        assert_eq!(
            table.snapshot().apply_misses,
            3 * capacity as u64,
            "every distinct what-if folds once"
        );
    }

    /// The naive oracle for one subtree of a what-if: the exploration tree
    /// unfolded node by node with the restriction installed as filters,
    /// `remaining` the forced courses still outstanding. `None` means the
    /// subtree keeps no path while forced courses are outstanding: a leaf
    /// there, or a subtree with no path below. Pruned states are kept. A
    /// state whose every selection is vetoed counts its expansion and ends
    /// a dead-end path, as `Explorer`'s depth-first walk counts it.
    fn oracle(
        e: &Explorer<'_>,
        status: EnrollmentStatus,
        pruner: Option<&Pruner<'_>>,
        remaining: CourseSet,
    ) -> Option<(u128, u128, ExploreStats)> {
        let leaf = |kind| {
            let counts = (
                1,
                u128::from(kind == LeafKind::Goal),
                ExploreStats::default(),
            );
            remaining.is_empty().then_some(counts)
        };
        let expansion = match e.disposition(status, pruner, no_table) {
            Disposition::Leaf(kind) => return leaf(kind),
            Disposition::Pruned(reason) => {
                let mut stats = ExploreStats::default();
                record_prune(&mut stats, reason);
                return Some((0, 0, stats));
            }
            Disposition::Known(never) => match never {},
            Disposition::Expand(expansion) => expansion,
        };
        let (mut paths, mut goal_paths) = (0, 0);
        let mut stats = ExploreStats {
            nodes_expanded: 1,
            ..ExploreStats::default()
        };
        let (mut allowed, mut floor_skipped) = (0, 0);
        for selection in expansion.selections(e.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
            } else if e.selection_allowed(&selection) {
                allowed += 1;
                let child = status.advance(e.catalog(), &selection);
                let below = remaining.difference(&selection);
                if let Some((p, g, s)) = oracle(e, child, pruner, below) {
                    paths += p;
                    goal_paths += g;
                    stats.edges_created += 1;
                    stats.merge(&s);
                }
            }
        }
        if allowed == 0 && floor_skipped == 0 {
            return remaining.is_empty().then_some((1, 0, stats));
        }
        stats.pruned_time += floor_skipped;
        (remaining.is_empty() || paths > 0).then_some((paths, goal_paths, stats))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fold over an unfiltered build answers every what-if —
        /// avoided courses, a workload cap, forced courses, alone and
        /// together — with the counts and logical statistics of the naive
        /// tree oracle over an exploration with the filters installed.
        #[test]
        fn whatif_counts_match_a_naive_tree_oracle(
            seed in 0u64..1_000,
            horizon in 2i32..5,
            m in 1usize..4,
            goal in any::<bool>(),
            avoid in prop::collection::vec(0usize..12, 0..3),
            cap in prop::option::of(8.0f64..40.0),
            force in prop::collection::vec(0usize..12, 0..3),
        ) {
            let synth = SyntheticCatalog::generate(&SyntheticConfig {
                seed,
                ..SyntheticConfig::small()
            });
            let pick = |raw: &[usize]| -> CourseSet {
                let courses: Vec<_> = synth.catalog.courses().map(|c| c.id()).collect();
                raw.iter().map(|&i| courses[i % courses.len()]).collect()
            };
            let (avoid, force) = (pick(&avoid), pick(&force));
            let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
            let deadline = synth.start + horizon;
            let explorer = || {
                if goal {
                    let goal = Goal::degree(synth.degree.clone());
                    Explorer::goal_driven(&synth.catalog, start, deadline, m, goal).unwrap()
                } else {
                    Explorer::deadline_driven(&synth.catalog, start, deadline, m).unwrap()
                }
            };
            let table = UniqueTable::new(0);
            let base = explorer().build_path_dag(&table, None, None).unwrap();
            let r = Restriction { avoid, max_workload: cap };
            let got = table.whatif_counts(base, &synth.catalog, &r, &force, start.completed());

            let mut filtered = explorer().with_filter(Arc::new(AvoidCourses(avoid)));
            if let Some(cap) = cap {
                filtered = filtered.with_filter(Arc::new(MaxSemesterWorkload(cap)));
            }
            let remaining = force.difference(start.completed());
            let expected = oracle(&filtered, start, filtered.pruner().as_ref(), remaining)
                .unwrap_or((0, 0, ExploreStats::default()));
            prop_assert_eq!(got, expected);
        }
    }
}
