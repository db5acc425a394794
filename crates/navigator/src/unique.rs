//! Hash-consed path-DAG nodes: the BDD-style unique table.
//!
//! The transposition table (`memo.rs`) caches subtree *answers*; this layer
//! caches the subtrees *themselves*. Interior nodes of the exploration DAG
//! are interned by `(semester, completed-set, children)` identity, so
//! structurally equal subtrees — across selections, across requests, even
//! across *different* requests whose suffixes coincide — are one shared
//! node. Terminal nodes (leaves, pruned states, the empty set) are interned
//! by kind alone, exactly like the two terminal nodes of a BDD: the
//! millions of distinct states a deep exploration *ends* in all collapse
//! onto a handful of shared sentinels, which is where the bulk of the
//! hash-consing compression comes from. The builder treats them as the
//! constants they are: it classifies each state first, and a state that
//! is a leaf or pruned by its `(semester, completed)` pair alone resolves
//! straight to its kind's shared node (interned once per kind per build)
//! with no lookup, lock, per-state record or options computation — only
//! the rest are looked up, and only a miss computes its options (a dead
//! end still resolves to its terminal) and is expanded and interned, with
//! its summary folded from the child summaries the builder already holds.
//! Per-*state* facts (distinct-state counts, per-state statistics, the
//! state DAG) are derived after the build by walking it by state key
//! (`crate::dedup`). Each interned node carries its
//! subtree's path counts, logical tree statistics, and a *support set* (the
//! courses electable anywhere below, with the heaviest selection's
//! workload), all pure functions of structure — so any root answers a
//! counting request in O(1) once built, and the apply engine
//! (`crate::apply`) can prove whole subtrees untouched by a what-if delta
//! without descending into them.
//!
//! Edges dominate the table's memory (sparse-7sem: 3.16 M edges on 74.6 k
//! nodes), so an interior packs them the way BDD and ZDD packages pack
//! nodes into a few machine words ([`Edges`]): the node's *alphabet* —
//! the sorted union of its selections' courses — is stored once, and each
//! edge is a bit-mask over alphabet positions plus a `u32` child, 12 bytes
//! where a full `CourseSet`, child and cached `f64` load took 48. Alphabets
//! over 64 courses take ⌈|alphabet|/64⌉ mask words per edge on the same
//! code path. Per-edge workloads are not stored: a workload-cap apply
//! re-sums an edge's few course workloads in ascending course order,
//! exactly the serving filter's additions, so cap decisions are
//! bit-identical to a filtered build.
//!
//! Structure of the table mirrors the classic BDD unique table: nodes live
//! in sharded append-only arenas (the low `SHARD_BITS` bits of a
//! [`DagNodeId`] select the shard, so interning contends per-shard, not
//! globally), an intern index per shard maps structural hashes to candidate
//! ids, and a shared pair-keyed apply cache memoizes `crate::apply`
//! operations across calls. The apply cache, the whole-call fold cache and
//! the index of built roots are pure, so each holds at most the table's
//! `capacity` entries and is cleared when full; nodes are bounded by
//! retiring the whole table ([`UniqueTable::is_full`]). The table is
//! `Sync`: parallel builds and applies may share it, exactly like the
//! transposition table.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use coursenav_catalog::{CourseId, CourseSet};
use serde::{Deserialize, Serialize};

use crate::expiry::Expiry;
use crate::explorer::{Disposition, Explorer};
use crate::path::LeafKind;
use crate::pruning::{record_prune, PruneReason, Pruner};
use crate::stats::ExploreStats;
use crate::status::Classifiable;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// Anchor sentinel of shared terminal nodes (no real semester index is
/// negative enough to collide — semester indices are small non-negatives).
const TERMINAL_SEMESTER: i32 = i32::MIN;

/// Word-at-a-time multiply-xor hasher (the FxHash construction). Structural
/// hashing dominates interning cost — a build hashes every completed-set
/// and every edge list — and SipHash is ~10× slower on these short
/// fixed-width inputs without buying anything (the table is in-process,
/// not attacker-facing).
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes per round: a `CourseSet` hashes its words as one byte
        // slice, and a round per byte made that 32 rounds instead of 4.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
pub(crate) type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// Compact handle to an interned node. The low bits select the shard, the
/// high bits index into that shard's arena. Ids are only meaningful within
/// the [`UniqueTable`] that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DagNodeId(u32);

impl DagNodeId {
    /// Sentinel used as the second operand of unary apply-cache entries.
    pub(crate) const NONE: DagNodeId = DagNodeId(u32::MAX);

    fn new(shard: usize, index: usize) -> DagNodeId {
        DagNodeId(((index as u32) << SHARD_BITS) | shard as u32)
    }

    fn shard(self) -> usize {
        (self.0 & (SHARDS as u32 - 1)) as usize
    }

    fn index(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }

    /// The id as a dense array index (shard-interleaved, so values are
    /// compact up to [`NodeView::id_bound`]) — for flat fold memos.
    pub(crate) fn raw(self) -> usize {
        self.0 as usize
    }
}

/// What an interned node *is*. For interior nodes, the `(semester,
/// completed)` anchor plus the kind is the node's full identity: two
/// interiors with equal anchors and equal kinds are the same [`DagNodeId`].
/// Terminal kinds (`Leaf`, `Pruned`, `Empty`) are identified by kind alone
/// and shared across every state that ends there — the BDD terminal-node
/// rule, and the bulk of the hash-consing compression.
#[derive(Debug, Clone, PartialEq)]
pub enum DagNodeKind {
    /// A terminal path end (deadline reached, goal satisfied, dead end).
    Leaf(LeafKind),
    /// A pruned state: zero paths, but the prune is part of the structure
    /// (re-exploration statistics count it, and an interior node whose
    /// surviving children are all pruned is *not* a dead end).
    Pruned(PruneReason),
    /// The empty path set — produced only by apply operations (an
    /// exploration never builds one). Carries no statistics.
    Empty,
    /// An expanded state: one edge per admissible selection (including
    /// edges to pruned children), plus how many selections the strategic
    /// floor skipped (they contribute `pruned-time` per tree visit).
    Interior {
        /// `(selection, child)` in enumeration order, packed as masks over
        /// the node's alphabet (see [`Edges`]).
        edges: Edges,
        /// Selections skipped by the strategic selection-size floor.
        floor_skipped: u64,
    },
}

/// Per-edge storage on alphabets of up to 64 courses: one mask word and
/// one child id. Wider alphabets add a word per further 64 courses.
pub(crate) const EDGE_BYTES: usize = std::mem::size_of::<u64>() + std::mem::size_of::<DagNodeId>();
const _: () = assert!(EDGE_BYTES == 12, "an edge is one mask word and a u32 child");

const MASK_WORDS: usize = CourseSet::CAPACITY / 64;

/// A selection as a bit-set over a node's alphabet positions: wide enough
/// for any alphabet a [`CourseSet`] can hold, of which an [`Edges`] list
/// stores only the words its alphabet needs.
pub(crate) type Mask = [u64; MASK_WORDS];

/// An interior node's edge list in one allocation of `u32` units:
///
/// 1. the *alphabet* — the sorted union of the courses in the edges'
///    selections — one course id per unit;
/// 2. one mask per edge, the selection as bits over alphabet positions:
///    ⌈|alphabet|/64⌉ 64-bit words per edge, each stored low half first;
/// 3. one child id per edge.
///
/// The alphabet is a pure function of the edge list, so the encoding is
/// canonical: two edge lists are equal exactly when their encodings are,
/// and hash-consing compares and hashes the packed units directly. Bit
/// order is ascending course id, so summing a mask's course workloads bit
/// by bit adds them in the same order as iterating the decoded selection.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Edges {
    data: Box<[u32]>,
    len: u32,
    alphabet_len: u32,
}

impl Edges {
    /// Encodes an edge list, keeping its order.
    pub fn new(edges: &[(CourseSet, DagNodeId)]) -> Edges {
        let mut alphabet = CourseSet::EMPTY;
        for (selection, _) in edges {
            alphabet.union_with(selection);
        }
        let alphabet_len = alphabet.len();
        let words = alphabet_len.div_ceil(64);
        let mut data = Vec::with_capacity(alphabet_len + edges.len() * (2 * words + 1));
        // Alphabet position of each course id (a `CourseSet` holds at most
        // 256 courses, so a position fits a byte).
        let mut position = [0u8; CourseSet::CAPACITY];
        for (k, id) in alphabet.iter().enumerate() {
            position[id.as_usize()] = k as u8;
            data.push(id.as_usize() as u32);
        }
        for (selection, _) in edges {
            let mut mask: Mask = [0; MASK_WORDS];
            for id in selection.iter() {
                let k = usize::from(position[id.as_usize()]);
                mask[k / 64] |= 1 << (k % 64);
            }
            for word in &mask[..words] {
                data.push(*word as u32);
                data.push((word >> 32) as u32);
            }
        }
        data.extend(edges.iter().map(|(_, child)| child.0));
        Edges {
            data: data.into_boxed_slice(),
            len: u32::try_from(edges.len()).expect("an edge count fits a u32"),
            alphabet_len: alphabet_len as u32,
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list has no edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The decoded `(selection, child)` pairs, in enumeration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CourseSet, DagNodeId)> + '_ {
        (0..self.len()).map(move |i| (self.selection(i), self.child(i)))
    }

    /// Bytes of the packed storage: alphabet, masks and children.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
    }

    /// Bytes of the alphabet alone.
    #[cfg(test)]
    pub(crate) fn alphabet_bytes(&self) -> usize {
        self.alphabet_len as usize * std::mem::size_of::<u32>()
    }

    #[inline]
    pub(crate) fn words(&self) -> usize {
        (self.alphabet_len as usize).div_ceil(64)
    }

    #[inline]
    fn mask_word(&self, i: usize, word: usize) -> u64 {
        let at = self.alphabet_len as usize + 2 * (i * self.words() + word);
        u64::from(self.data[at]) | (u64::from(self.data[at + 1]) << 32)
    }

    /// The child of edge `i`.
    #[inline]
    pub(crate) fn child(&self, i: usize) -> DagNodeId {
        DagNodeId(self.data[self.alphabet_len as usize + 2 * self.words() * self.len() + i])
    }

    /// The alphabet positions set in edge `i`'s mask, ascending.
    #[inline]
    fn positions(&self, i: usize) -> Positions<'_> {
        Positions {
            edges: self,
            edge: i,
            word: 0,
            // An empty alphabet (every selection empty) has no mask words.
            bits: if self.alphabet_len == 0 {
                0
            } else {
                self.mask_word(i, 0)
            },
        }
    }

    /// The selection of edge `i`, decoded.
    pub(crate) fn selection(&self, i: usize) -> CourseSet {
        self.positions(i)
            .map(|k| CourseId::new(self.data[k] as u16))
            .collect()
    }

    /// The summed workload of edge `i`'s selection, read from `workloads`
    /// (indexed by course id) in ascending course order — the order and
    /// float additions of summing over the decoded selection.
    #[inline]
    pub(crate) fn load(&self, i: usize, workloads: &[f64]) -> f64 {
        self.positions(i)
            .map(|k| workloads[self.data[k] as usize])
            .sum()
    }

    /// The alphabet positions of the courses of `set` (courses outside the
    /// alphabet have none).
    pub(crate) fn mask_of(&self, set: &CourseSet) -> Mask {
        let alphabet = &self.data[..self.alphabet_len as usize];
        let mut mask: Mask = [0; MASK_WORDS];
        for id in set.iter() {
            if let Ok(k) = alphabet.binary_search(&(id.as_usize() as u32)) {
                mask[k / 64] |= 1 << (k % 64);
            }
        }
        mask
    }

    /// Whether edge `i`'s selection shares a course with the courses whose
    /// alphabet positions `mask` holds.
    #[inline]
    pub(crate) fn meets(&self, i: usize, mask: &Mask) -> bool {
        (0..self.words()).any(|word| self.mask_word(i, word) & mask[word] != 0)
    }
}

/// Ascending set-bit positions of one edge's mask, word by word.
struct Positions<'a> {
    edges: &'a Edges,
    edge: usize,
    word: usize,
    bits: u64,
}

impl Iterator for Positions<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.edges.words() {
                return None;
            }
            self.bits = self.edges.mask_word(self.edge, self.word);
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

impl fmt::Debug for Edges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One interned node: identity plus the derived subtree summaries.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Semester index of the anchor (`EnrollmentStatus::state_key().0`)
    /// for interior nodes; shared terminal nodes are anchor-free and carry
    /// the `i32::MIN` sentinel here.
    pub semester: i32,
    /// Courses completed at the anchor (interior nodes only; empty on the
    /// shared terminals).
    pub completed: CourseSet,
    /// The node's structural identity below the anchor.
    pub kind: DagNodeKind,
    /// Maximal paths in the subtree.
    pub paths: u128,
    /// Goal-satisfying paths in the subtree.
    pub goal_paths: u128,
    /// The *logical tree* statistics of the subtree: exactly what a
    /// streaming (or memoized) re-exploration of this subtree reports,
    /// with shared descendants counted once per visit. Memo-traffic
    /// counters stay zero, matching served responses.
    pub stats: ExploreStats,
    /// The subtree's *support*: every course appearing in any selection
    /// anywhere below. A what-if delta whose avoided courses miss the
    /// support (and whose forced courses aren't all inside it) provably
    /// cannot change this subtree, so apply operations skip it in O(1).
    pub support: CourseSet,
    /// Summed workload of the heaviest single selection anywhere below
    /// (`f64::INFINITY` when unknown, e.g. on set-algebra results): a
    /// workload cap at or above this bound cannot veto anything here.
    /// Per-edge loads are not stored: a workload-cap apply re-sums the few
    /// course workloads of each edge it tests.
    pub max_load: f64,
}

impl DagNode {
    /// Whether this node denotes the empty path set.
    pub fn is_zero(&self) -> bool {
        matches!(self.kind, DagNodeKind::Pruned(_) | DagNodeKind::Empty)
    }
}

/// A node's derived subtree summary: counts, logical statistics, support
/// and the heaviest-selection bound — pure functions of structure, folded
/// bottom-up from the children's summaries.
#[derive(Debug, Clone, Copy)]
struct Summary {
    paths: u128,
    goal_paths: u128,
    stats: ExploreStats,
    support: CourseSet,
    max_load: f64,
}

impl Summary {
    /// The constant summary of a terminal kind.
    fn terminal(kind: &DagNodeKind) -> Summary {
        let mut summary = Summary {
            paths: 0,
            goal_paths: 0,
            stats: ExploreStats::default(),
            support: CourseSet::EMPTY,
            max_load: 0.0,
        };
        match kind {
            DagNodeKind::Leaf(k) => {
                summary.paths = 1;
                summary.goal_paths = u128::from(*k == LeafKind::Goal);
            }
            DagNodeKind::Pruned(reason) => record_prune(&mut summary.stats, *reason),
            DagNodeKind::Empty | DagNodeKind::Interior { .. } => {}
        }
        summary
    }

    /// An interior's summary before any edge is folded in.
    fn interior(floor_skipped: u64) -> Summary {
        let mut summary = Summary::terminal(&DagNodeKind::Empty);
        summary.stats.nodes_expanded = 1;
        summary.stats.pruned_time = floor_skipped;
        summary
    }

    /// Folds one edge — its selection, that selection's workload, and the
    /// child's summary — into an interior's summary.
    fn add_edge(&mut self, selection: &CourseSet, load: f64, child: &Summary) {
        self.stats.edges_created += 1;
        self.stats.merge(&child.stats);
        self.paths += child.paths;
        self.goal_paths += child.goal_paths;
        self.support.union_with(selection);
        self.support.union_with(&child.support);
        self.max_load = self.max_load.max(load).max(child.max_load);
    }

    fn of(node: &DagNode) -> Summary {
        Summary {
            paths: node.paths,
            goal_paths: node.goal_paths,
            stats: node.stats,
            support: node.support,
            max_load: node.max_load,
        }
    }
}

fn node_hash(semester: i32, completed: &CourseSet, kind: &DagNodeKind) -> u64 {
    let mut h = FxHasher::default();
    semester.hash(&mut h);
    completed.hash(&mut h);
    match kind {
        DagNodeKind::Leaf(k) => {
            0u8.hash(&mut h);
            (*k as u8).hash(&mut h);
        }
        DagNodeKind::Pruned(r) => {
            1u8.hash(&mut h);
            (*r as u8).hash(&mut h);
        }
        DagNodeKind::Empty => 2u8.hash(&mut h),
        DagNodeKind::Interior {
            edges,
            floor_skipped,
        } => {
            3u8.hash(&mut h);
            floor_skipped.hash(&mut h);
            edges.hash(&mut h);
        }
    }
    h.finish()
}

#[derive(Default)]
struct Shard {
    nodes: Vec<Arc<DagNode>>,
    /// Structural hash → candidate arena indices (collision bucket).
    index: FxMap<u64, Vec<u32>>,
}

/// See [`UniqueTable::view`].
pub(crate) struct NodeView<'a> {
    guards: Vec<RwLockReadGuard<'a, Shard>>,
}

impl NodeView<'_> {
    #[inline]
    pub(crate) fn node(&self, id: DagNodeId) -> &DagNode {
        &self.guards[id.shard()].nodes[id.index()]
    }

    /// Exclusive upper bound on [`DagNodeId::raw`] over every node visible
    /// in this view: sizes a flat id-indexed memo.
    pub(crate) fn id_bound(&self) -> usize {
        let longest = self.guards.iter().map(|g| g.nodes.len()).max().unwrap_or(0);
        longest << SHARD_BITS
    }
}

/// Key of one apply-cache entry: an operation fingerprint (hashing the
/// operation tag and its parameters) plus the operand node(s).
pub(crate) type ApplyKey = (u64, DagNodeId, DagNodeId);

/// Result of one counting apply (`UniqueTable::whatif_counts`):
/// `(paths, goal_paths, logical tree stats)`.
pub(crate) type FoldCounts = (u128, u128, ExploreStats);

/// Observability counters for one unique table, serialized into the
/// `/v1/metrics` `unique-table` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct UniqueTableStats {
    /// Nodes resident in the arenas.
    pub nodes: u64,
    /// Edges of the resident interior nodes.
    pub edges: u64,
    /// Bytes of those nodes' packed edge storage: alphabets, masks and
    /// children.
    pub edge_bytes: u64,
    /// Cached exploration roots (one per distinct request frame).
    pub roots: u64,
    /// Intern requests answered by an existing node (hash-cons hits).
    pub hash_cons_hits: u64,
    /// Nodes actually created (intern misses).
    pub interned: u64,
    /// Apply operations answered from the pair-keyed apply cache.
    pub apply_hits: u64,
    /// Apply operations computed and cached.
    pub apply_misses: u64,
    /// Root-cache hits (a what-if reused an already-built base DAG).
    pub root_hits: u64,
    /// Root-cache misses (the base DAG had to be built).
    pub root_misses: u64,
}

impl UniqueTableStats {
    /// Fraction of intern requests answered by sharing, in `[0, 1]`.
    pub fn hash_cons_hit_rate(&self) -> f64 {
        let total = self.hash_cons_hits + self.interned;
        if total == 0 {
            0.0
        } else {
            self.hash_cons_hits as f64 / total as f64
        }
    }

    /// Folds another table's counters into this one (for aggregation
    /// across tenants and retired tables).
    pub fn merge(&mut self, other: &UniqueTableStats) {
        self.nodes += other.nodes;
        self.edges += other.edges;
        self.edge_bytes += other.edge_bytes;
        self.roots += other.roots;
        self.hash_cons_hits += other.hash_cons_hits;
        self.interned += other.interned;
        self.apply_hits += other.apply_hits;
        self.apply_misses += other.apply_misses;
        self.root_hits += other.root_hits;
        self.root_misses += other.root_misses;
    }
}

/// The sharded, hash-consed unique table. See the module docs.
pub struct UniqueTable {
    shards: Vec<RwLock<Shard>>,
    /// Pair-keyed apply cache, sharded like the arenas; each shard holds at
    /// most `capacity / SHARDS` entries and is cleared when it would
    /// exceed that (the cache is pure, so clearing only costs recompute).
    apply: Vec<Mutex<HashMap<ApplyKey, DagNodeId>>>,
    /// Whole-operation results of counting applies, one entry per
    /// `(delta, root)` — a repeated what-if answers without any walk. At
    /// most `capacity` entries, cleared like the apply cache: a stream of
    /// distinct counting what-ifs interns no nodes, so the node cap alone
    /// would never bound it.
    folds: Mutex<HashMap<ApplyKey, FoldCounts>>,
    /// Built exploration roots by frame key. At most `capacity` entries,
    /// cleared like the fold cache: a stream of distinct frames whose
    /// builds intern few new nodes would otherwise grow it without bound,
    /// and a dropped root only costs a rebuild that hash-conses onto the
    /// nodes still resident.
    roots: Mutex<HashMap<String, DagNodeId>>,
    capacity: usize,
    edges: AtomicU64,
    edge_bytes: AtomicU64,
    hash_cons_hits: AtomicU64,
    interned: AtomicU64,
    apply_hits: AtomicU64,
    apply_misses: AtomicU64,
    root_hits: AtomicU64,
    root_misses: AtomicU64,
}

impl UniqueTable {
    /// A table that aims to keep at most `capacity` resident nodes. The
    /// cap is advisory — a single build may exceed it (its own budget
    /// bounds that); serving layers consult [`UniqueTable::is_full`] and
    /// retire over-full tables wholesale, the way memo tables rotate.
    pub fn new(capacity: usize) -> UniqueTable {
        UniqueTable {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            apply: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            folds: Mutex::new(HashMap::new()),
            roots: Mutex::new(HashMap::new()),
            capacity,
            edges: AtomicU64::new(0),
            edge_bytes: AtomicU64::new(0),
            hash_cons_hits: AtomicU64::new(0),
            interned: AtomicU64::new(0),
            apply_hits: AtomicU64::new(0),
            apply_misses: AtomicU64::new(0),
            root_hits: AtomicU64::new(0),
            root_misses: AtomicU64::new(0),
        }
    }

    /// The advisory node capacity this table was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident node count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("unique shard poisoned").nodes.len())
            .sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the resident node count reached the advisory capacity.
    pub fn is_full(&self) -> bool {
        self.capacity != 0 && self.len() >= self.capacity
    }

    /// Reads a node. Panics on a foreign or stale id — ids never escape
    /// the table that issued them.
    pub fn node(&self, id: DagNodeId) -> Arc<DagNode> {
        let shard = self.shards[id.shard()]
            .read()
            .expect("unique shard poisoned");
        Arc::clone(&shard.nodes[id.index()])
    }

    /// A read-locked view of every shard at once: node access without
    /// per-node lock and refcount traffic, for walks that never intern
    /// (the counting fold). Interning threads block until the view drops;
    /// concurrent readers are unaffected.
    pub(crate) fn view(&self) -> NodeView<'_> {
        NodeView {
            guards: self
                .shards
                .iter()
                .map(|s| s.read().expect("unique shard poisoned"))
                .collect(),
        }
    }

    /// Interns a node, returning the id of the structurally equal resident
    /// node when one exists (a hash-cons hit) and creating it otherwise.
    /// Subtree counts, logical statistics, and the support set are derived
    /// here, bottom-up, so they are invariants of the structure no matter
    /// who interns it. `loads` is the summed workload of each of the
    /// node's *own* selections, parallel to an interior's edge list, and
    /// only feeds the node's [`DagNode::max_load`] bound — it is not
    /// stored (the caller computes it because only the caller holds the
    /// catalog; pass an empty vector for terminals, or when no catalog is
    /// in scope — the bound then degrades to `∞`, the conservative
    /// "unknown").
    ///
    /// Terminal kinds ignore the anchor arguments: every state ending in
    /// the same [`DagNodeKind`] shares one node, the BDD terminal rule.
    pub fn intern(
        &self,
        semester: i32,
        completed: CourseSet,
        kind: DagNodeKind,
        loads: Vec<f64>,
    ) -> DagNodeId {
        let summary = self.summarize(&kind, &loads);
        self.intern_summarized(semester, completed, kind, summary).0
    }

    /// [`UniqueTable::intern`] with the node's summary already derived by
    /// the caller (the builder folds it from the child summaries it holds).
    /// Returns the id and whether this call created the node.
    fn intern_summarized(
        &self,
        semester: i32,
        completed: CourseSet,
        kind: DagNodeKind,
        summary: Summary,
    ) -> (DagNodeId, bool) {
        let (semester, completed) = match kind {
            DagNodeKind::Interior { .. } => (semester, completed),
            _ => (TERMINAL_SEMESTER, CourseSet::EMPTY),
        };
        let hash = node_hash(semester, &completed, &kind);
        let shard_idx = (hash as usize) & (SHARDS - 1);
        let mut shard = self.shards[shard_idx]
            .write()
            .expect("unique shard poisoned");
        if let Some(candidates) = shard.index.get(&hash) {
            for &cand in candidates {
                let node = &shard.nodes[cand as usize];
                if node.semester == semester && node.completed == completed && node.kind == kind {
                    self.hash_cons_hits.fetch_add(1, Ordering::Relaxed);
                    return (DagNodeId::new(shard_idx, cand as usize), false);
                }
            }
        }
        if let DagNodeKind::Interior { edges, .. } = &kind {
            self.edges.fetch_add(edges.len() as u64, Ordering::Relaxed);
            self.edge_bytes
                .fetch_add(edges.heap_bytes() as u64, Ordering::Relaxed);
        }
        let index = shard.nodes.len();
        shard.nodes.push(Arc::new(DagNode {
            semester,
            completed,
            kind,
            paths: summary.paths,
            goal_paths: summary.goal_paths,
            stats: summary.stats,
            support: summary.support,
            max_load: summary.max_load,
        }));
        shard.index.entry(hash).or_default().push(index as u32);
        self.interned.fetch_add(1, Ordering::Relaxed);
        (DagNodeId::new(shard_idx, index), true)
    }

    /// The summary of a node with this kind, reading its children's.
    fn summarize(&self, kind: &DagNodeKind, loads: &[f64]) -> Summary {
        let DagNodeKind::Interior {
            edges,
            floor_skipped,
        } = kind
        else {
            return Summary::terminal(kind);
        };
        // Without exact per-edge loads the bound degrades to ∞ ("a finite
        // cap might veto something here").
        let mut summary = Summary::interior(*floor_skipped);
        if loads.len() != edges.len() {
            summary.max_load = f64::INFINITY;
        }
        for (i, (selection, child)) in edges.iter().enumerate() {
            let load = loads.get(i).copied().unwrap_or(0.0);
            summary.add_edge(&selection, load, &Summary::of(&self.node(child)));
        }
        summary
    }

    /// Looks up a cached exploration root by its frame key
    /// ([`crate::ExplorationRequest::dag_key`]), counting the hit/miss.
    pub fn root_for(&self, frame_key: &str) -> Option<DagNodeId> {
        let hit = self
            .roots
            .lock()
            .expect("unique roots poisoned")
            .get(frame_key)
            .copied();
        match hit {
            Some(id) => {
                self.root_hits.fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            None => {
                self.root_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Registers a built exploration root under its frame key.
    pub fn store_root(&self, frame_key: String, root: DagNodeId) {
        let mut roots = self.roots.lock().expect("unique roots poisoned");
        bounded_insert(&mut roots, self.cache_cap(), frame_key, root);
    }

    pub(crate) fn apply_get(&self, key: &ApplyKey) -> Option<DagNodeId> {
        let shard = (key.0 as usize) & (SHARDS - 1);
        let hit = self.apply[shard]
            .lock()
            .expect("apply cache poisoned")
            .get(key)
            .copied();
        match hit {
            Some(id) => {
                self.apply_hits.fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            None => {
                self.apply_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn apply_put(&self, key: ApplyKey, value: DagNodeId) {
        let shard = (key.0 as usize) & (SHARDS - 1);
        let cap = self.cache_cap().map(|cap| cap / SHARDS);
        let mut cache = self.apply[shard].lock().expect("apply cache poisoned");
        bounded_insert(&mut cache, cap, key, value);
    }

    /// The entry cap of each pure cache: the node capacity, or `None` on an
    /// unbounded table.
    fn cache_cap(&self) -> Option<usize> {
        (self.capacity != 0).then_some(self.capacity)
    }

    pub(crate) fn fold_get(&self, key: &ApplyKey) -> Option<FoldCounts> {
        let hit = self
            .folds
            .lock()
            .expect("fold cache poisoned")
            .get(key)
            .copied();
        match hit {
            Some(counts) => {
                self.apply_hits.fetch_add(1, Ordering::Relaxed);
                Some(counts)
            }
            None => {
                self.apply_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn fold_put(&self, key: ApplyKey, value: FoldCounts) {
        let mut folds = self.folds.lock().expect("fold cache poisoned");
        bounded_insert(&mut folds, self.cache_cap(), key, value);
    }

    /// Entries in the apply cache (all shards) and in the fold cache.
    #[cfg(test)]
    pub(crate) fn cache_entries(&self) -> (usize, usize) {
        let apply = self
            .apply
            .iter()
            .map(|shard| shard.lock().expect("apply cache poisoned").len())
            .sum();
        (apply, self.folds.lock().expect("fold cache poisoned").len())
    }

    /// Counter snapshot for metrics.
    pub fn snapshot(&self) -> UniqueTableStats {
        UniqueTableStats {
            nodes: self.len() as u64,
            edges: self.edges.load(Ordering::Relaxed),
            edge_bytes: self.edge_bytes.load(Ordering::Relaxed),
            roots: self.roots.lock().expect("unique roots poisoned").len() as u64,
            hash_cons_hits: self.hash_cons_hits.load(Ordering::Relaxed),
            interned: self.interned.load(Ordering::Relaxed),
            apply_hits: self.apply_hits.load(Ordering::Relaxed),
            apply_misses: self.apply_misses.load(Ordering::Relaxed),
            root_hits: self.root_hits.load(Ordering::Relaxed),
            root_misses: self.root_misses.load(Ordering::Relaxed),
        }
    }
}

/// Inserts into a pure cache of at most `cap` entries (`None`: unbounded),
/// clearing it first when full. A zero cap caches nothing.
fn bounded_insert<K: Hash + Eq, V>(
    cache: &mut HashMap<K, V>,
    cap: Option<usize>,
    key: K,
    value: V,
) {
    if let Some(cap) = cap {
        if cache.len() >= cap {
            cache.clear();
        }
        if cap == 0 {
            return;
        }
    }
    cache.insert(key, value);
}

/// Why a build stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagBuildError {
    /// The build created more interior nodes than its budget allows.
    Budget {
        /// The configured budget that was hit.
        node_budget: usize,
    },
    /// The caller's wall-clock deadline passed mid-build.
    Deadline,
}

/// Terminal kinds a build can reach: the three leaf kinds and the two
/// prune reasons.
const TERMINAL_SLOTS: usize = 5;

fn terminal_slot(kind: &DagNodeKind) -> usize {
    match kind {
        DagNodeKind::Leaf(LeafKind::Deadline) => 0,
        DagNodeKind::Leaf(LeafKind::Goal) => 1,
        DagNodeKind::Leaf(LeafKind::DeadEnd) => 2,
        DagNodeKind::Pruned(PruneReason::Time) => 3,
        DagNodeKind::Pruned(PruneReason::Availability) => 4,
        DagNodeKind::Empty | DagNodeKind::Interior { .. } => {
            unreachable!("explorations end only in leaves and prunes")
        }
    }
}

/// One build's working state.
struct BuildCtx<'t> {
    table: &'t UniqueTable,
    /// Expandable states this build already resolved, with their
    /// summaries. Terminal states never enter it.
    expanded: FxMap<(i32, CourseSet), (DagNodeId, Summary)>,
    /// Each terminal kind's shared node, interned on first use.
    terminals: [Option<(DagNodeId, Summary)>; TERMINAL_SLOTS],
    /// Edge stack shared by every level of the recursion: a node's own
    /// edges sit on top while its children are built, and are encoded
    /// into an exact-size [`Edges`] when it is interned.
    edges: Vec<(CourseSet, DagNodeId)>,
    /// Interior nodes this build created, and the cap on them.
    created: usize,
    node_budget: Option<usize>,
    expiry: Expiry,
}

impl BuildCtx<'_> {
    fn terminal(&mut self, kind: DagNodeKind) -> (DagNodeId, Summary) {
        let slot = terminal_slot(&kind);
        *self.terminals[slot].get_or_insert_with(|| {
            let summary = Summary::terminal(&kind);
            let (id, _) =
                self.table
                    .intern_summarized(TERMINAL_SEMESTER, CourseSet::EMPTY, kind, summary);
            (id, summary)
        })
    }
}

impl Explorer<'_> {
    /// Materializes this exploration as a hash-consed path DAG in `table`,
    /// returning the interned root. Each state is classified first: a leaf
    /// or pruned state resolves straight to its kind's shared terminal
    /// node, and only expandable states are expanded and interned — once
    /// per build, however many selection orders reach them, and computing
    /// their options only on that first visit. States already interned by an earlier build sharing the table
    /// cost a hash-cons hit; the per-node counts and statistics come out
    /// identical to a fresh re-exploration by construction.
    ///
    /// `node_budget` caps the interior nodes this build *creates* — the
    /// nodes it adds to the table (terminals are shared and not counted).
    pub fn build_path_dag(
        &self,
        table: &UniqueTable,
        node_budget: Option<usize>,
        deadline: Option<Instant>,
    ) -> Result<DagNodeId, DagBuildError> {
        let pruner = self.pruner();
        let mut ctx = BuildCtx {
            table,
            expanded: FxMap::default(),
            terminals: [None; TERMINAL_SLOTS],
            edges: Vec::new(),
            created: 0,
            node_budget,
            expiry: Expiry::per_step(deadline),
        };
        let (root, _) = self.dag_node(*self.start(), pruner.as_ref(), &mut ctx)?;
        Ok(root)
    }

    fn dag_node(
        &self,
        state: impl Classifiable,
        pruner: Option<&Pruner<'_>>,
        ctx: &mut BuildCtx<'_>,
    ) -> Result<(DagNodeId, Summary), DagBuildError> {
        let expansion = match self.disposition(state, pruner, |key| ctx.expanded.get(key).copied())
        {
            Disposition::Leaf(kind) => return Ok(ctx.terminal(DagNodeKind::Leaf(kind))),
            Disposition::Pruned(reason) => return Ok(ctx.terminal(DagNodeKind::Pruned(reason))),
            Disposition::Known(resolved) => return Ok(resolved),
            Disposition::Expand(expansion) => expansion,
        };
        if ctx.expiry.tick() {
            return Err(DagBuildError::Deadline);
        }
        let status = expansion.status;
        let base = ctx.edges.len();
        let mut floor_skipped = 0u64;
        let mut summary = Summary::interior(0);
        for selection in expansion.selections(self.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
                continue;
            }
            if !self.selection_allowed(&status, &selection) {
                continue;
            }
            let load: f64 = selection
                .iter()
                .map(|id| self.catalog().course(id).workload())
                .sum();
            let (child_id, child_summary) = self.dag_node(status.child(&selection), pruner, ctx)?;
            summary.add_edge(&selection, load, &child_summary);
            ctx.edges.push((selection, child_id));
        }
        let resolved = if ctx.edges.len() == base && floor_skipped == 0 {
            // Filters vetoed every selection: dead-end leaf, exactly as
            // re-exploration classifies it.
            ctx.terminal(DagNodeKind::Leaf(LeafKind::DeadEnd))
        } else {
            summary.stats.pruned_time += floor_skipped;
            let kind = DagNodeKind::Interior {
                edges: Edges::new(&ctx.edges[base..]),
                floor_skipped,
            };
            let (semester, completed) = status.state_key();
            let (id, created) = ctx
                .table
                .intern_summarized(semester, completed, kind, summary);
            if created {
                ctx.created += 1;
                if let Some(node_budget) = ctx.node_budget {
                    if ctx.created > node_budget {
                        return Err(DagBuildError::Budget { node_budget });
                    }
                }
            }
            (id, summary)
        };
        ctx.edges.truncate(base);
        ctx.expanded.insert(status.state_key(), resolved);
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    use crate::goal::Goal;
    use crate::status::EnrollmentStatus;

    fn small_explorer(synth: &SyntheticCatalog, horizon: i32) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::deadline_driven(&synth.catalog, start, synth.start + horizon, 2).unwrap()
    }

    #[test]
    fn interning_is_canonical() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 3);
        let table = UniqueTable::new(0);
        let a = e.build_path_dag(&table, None, None).unwrap();
        let interned_after_first = table.snapshot().interned;
        let b = e.build_path_dag(&table, None, None).unwrap();
        assert_eq!(a, b, "same exploration interns the same root");
        let snap = table.snapshot();
        assert_eq!(
            snap.interned, interned_after_first,
            "second build creates no nodes"
        );
        assert!(snap.hash_cons_hits > 0);
    }

    /// Golden work counters of one fixed build: a change to what the
    /// builder interns shows up here. Terminal states resolve to their
    /// kind's shared node without an intern call, so a fresh build has no
    /// hash-cons hits; a repeat build hits once per interior state and
    /// once per terminal kind.
    #[test]
    fn build_counters_are_golden() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let counters = |t: &UniqueTable| {
            let s = t.snapshot();
            (s.nodes, s.interned, s.hash_cons_hits)
        };
        let table = UniqueTable::new(0);
        e.build_path_dag(&table, None, None).unwrap();
        assert_eq!(counters(&table), (68, 68, 0));
        e.build_path_dag(&table, None, None).unwrap();
        assert_eq!(counters(&table), (68, 68, 68));
        assert_eq!(e.distinct_states(), 609);

        let e = small_explorer(&synth, 4);
        let table = UniqueTable::new(0);
        e.build_path_dag(&table, None, None).unwrap();
        assert_eq!(counters(&table), (248, 248, 0));
        assert_eq!(e.distinct_states(), 558);
    }

    #[test]
    fn root_counts_match_dedup() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let counts = e.count_paths_dedup();
        let table = UniqueTable::new(0);
        let root = table.node(e.build_path_dag(&table, None, None).unwrap());
        assert_eq!(root.paths, counts.total_paths);
        assert_eq!(root.goal_paths, counts.goal_paths);
    }

    #[test]
    fn root_stats_match_streaming_tree_stats() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let tree = e.count_paths();
        let table = UniqueTable::new(0);
        let root = table.node(e.build_path_dag(&table, None, None).unwrap());
        assert_eq!(root.stats, tree.stats, "logical stats replay the tree");
        assert_eq!(root.paths, tree.total_paths);
        assert_eq!(root.goal_paths, tree.goal_paths);
    }

    #[test]
    fn budget_bounds_the_interior_nodes_created() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 3);
        let table = UniqueTable::new(0);
        e.build_path_dag(&table, None, None).unwrap();
        let interiors = table.len() - 1; // one shared deadline leaf
        assert_eq!(
            e.build_path_dag(&UniqueTable::new(0), Some(interiors - 1), None)
                .unwrap_err(),
            DagBuildError::Budget {
                node_budget: interiors - 1
            }
        );
        e.build_path_dag(&UniqueTable::new(0), Some(interiors), None)
            .unwrap();
        // A warm table's hits create nothing, so a repeat fits any budget.
        e.build_path_dag(&table, Some(0), None).unwrap();
    }

    #[test]
    fn deadline_aborts_the_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 4);
        let table = UniqueTable::new(0);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            e.build_path_dag(&table, None, Some(past)).unwrap_err(),
            DagBuildError::Deadline
        );
    }

    /// Builds the what-if benchmark's base frame — sparse catalog with
    /// eight scheduled semesters, degree goal, deadline start + 7, three
    /// courses a semester — into `table`, returning the count response.
    fn sparse_7sem_base(table: &UniqueTable) -> crate::ExplorationResponse {
        use crate::request::{ExplorationRequest, OutputMode};
        use crate::service::NavigatorService;
        use crate::whatif::WhatIfRequest;

        let synth = SyntheticCatalog::generate(&SyntheticConfig {
            schedule_semesters: 8,
            ..SyntheticConfig::sparse()
        });
        let service = NavigatorService::new(&synth.catalog)
            .with_degree(&synth.degree)
            .with_offering_model(&synth.offering);
        let base =
            ExplorationRequest::degree_paths(synth.start, synth.start + 7, 3, OutputMode::Count);
        service
            .whatif_until(&WhatIfRequest::new(base), None, 1, None, Some(table))
            .unwrap()
            .response
    }

    /// The edge-store layout gate on that frame: the DAG's node and edge
    /// counts, and its packed edges at 12 bytes each plus the alphabets.
    /// Byte accounting, not RSS, so it cannot flake. Slow in debug; CI
    /// runs it in release, with the classifier golden below:
    /// `cargo test --release -p coursenav-navigator --lib -- --ignored sparse_7sem`.
    #[test]
    #[ignore = "builds a 74,603-node DAG; run in release"]
    fn sparse_7sem_edge_store_is_packed() {
        let table = UniqueTable::new(0);
        sparse_7sem_base(&table);
        let snap = table.snapshot();
        assert_eq!((snap.nodes, snap.edges), (74_603, 3_163_770));
        let view = table.view();
        let alphabet_bytes: usize = view
            .guards
            .iter()
            .flat_map(|shard| shard.nodes.iter())
            .map(|node| match &node.kind {
                DagNodeKind::Interior { edges, .. } => edges.alphabet_bytes(),
                _ => 0,
            })
            .sum();
        assert!(
            snap.edge_bytes <= EDGE_BYTES as u64 * snap.edges + alphabet_bytes as u64,
            "{} edge bytes for {} edges and {alphabet_bytes} alphabet bytes",
            snap.edge_bytes,
            snap.edges
        );
    }

    /// The classifier's decisions at benchmark scale, pinned on the same
    /// frame: the root's path counts and the logical stats of the build,
    /// which count every goal leaf, expansion, edge and prune of the
    /// tree-equivalent walk. A change to the goal oracles or the pruning
    /// strategies that moves any decision moves one of these.
    #[test]
    #[ignore = "builds a 74,603-node DAG; run in release"]
    fn sparse_7sem_classifier_is_golden() {
        let table = UniqueTable::new(0);
        let crate::ExplorationResponse::Counts {
            total_paths,
            goal_paths,
            stats,
            truncated,
            ..
        } = sparse_7sem_base(&table)
        else {
            panic!("a count request answers with counts");
        };
        assert!(!truncated);
        assert_eq!((total_paths, goal_paths), (14_900_465, 14_606_049));
        assert_eq!(
            (
                stats.nodes_expanded,
                stats.edges_created,
                stats.pruned_time,
                stats.pruned_availability
            ),
            (624_129, 29_844_088, 41_080, 14_278_415)
        );
    }

    #[test]
    fn root_index_stays_within_the_table_capacity() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let capacity = 8;
        let table = UniqueTable::new(capacity);
        let root = small_explorer(&synth, 2)
            .build_path_dag(&table, None, None)
            .unwrap();
        for i in 0..3 * capacity {
            table.store_root(format!("frame-{i}"), root);
            let roots = table.snapshot().roots;
            assert!(roots <= capacity as u64, "{roots} roots after {i} stores");
            assert_eq!(table.root_for(&format!("frame-{i}")), Some(root));
        }
        let unbounded = UniqueTable::new(0);
        for i in 0..3 * capacity {
            unbounded.store_root(format!("frame-{i}"), root);
        }
        assert_eq!(unbounded.snapshot().roots, 3 * capacity as u64);
    }

    #[test]
    fn overlapping_explorations_share_suffix_structure() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let deadline = synth.start + 4;
        let base = Explorer::deadline_driven(&synth.catalog, start, deadline, 2).unwrap();
        let table = UniqueTable::new(0);
        base.build_path_dag(&table, None, None).unwrap();
        let solo = table.len() as u64;
        // A second exploration over the same catalog with an extra filter
        // re-derives many suffix states; hash-consing shares them.
        let avoid: CourseSet = synth.catalog.courses().take(1).map(|c| c.id()).collect();
        let filtered = Explorer::deadline_driven(&synth.catalog, start, deadline, 2)
            .unwrap()
            .with_filter(std::sync::Arc::new(crate::filter::AvoidCourses(avoid)));
        let before = table.snapshot();
        filtered.build_path_dag(&table, None, None).unwrap();
        let after = table.snapshot();
        assert!(
            after.hash_cons_hits > before.hash_cons_hits,
            "the filtered exploration reuses interned suffixes"
        );
        assert!(
            (after.nodes - before.nodes) < solo,
            "sharing keeps the union smaller than the sum"
        );
    }
}
