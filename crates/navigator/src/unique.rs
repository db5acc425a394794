//! Hash-consed path-DAG nodes: the BDD-style unique table.
//!
//! The transposition table (`memo.rs`) caches subtree *answers*; this layer
//! caches the subtrees *themselves*. Interior nodes of the exploration DAG
//! are interned by `(semester, completed-set, children)` identity, so
//! structurally equal subtrees — across selections, across requests, even
//! across *different* requests whose suffixes coincide — are one shared
//! node. Terminal nodes (leaves and pruned states) are interned by kind
//! alone, exactly like the two terminal nodes of a BDD: the
//! millions of distinct states a deep exploration *ends* in all collapse
//! onto a handful of shared sentinels, which is where the bulk of the
//! hash-consing compression comes from. The builder treats them as the
//! constants they are: it classifies each state first, and a state that
//! is a leaf or pruned by its `(semester, completed)` pair alone resolves
//! straight to its kind's shared node (interned once per kind per build)
//! with no lookup, lock, per-state record or options computation — only
//! the rest are looked up, and only a miss computes its options (a state
//! with none still resolves to the dead-end terminal) and is expanded and
//! interned, with its summary folded from the child summaries the builder
//! already holds. A state whose every selection a filter vetoes is an
//! interior with no edge, expanded and ending one dead-end path, as the
//! explorer counts it. Per-*state* facts (distinct-state counts, per-state
//! statistics, the state DAG) are derived after the build by walking it by
//! state key (`crate::dedup`). Each interned node carries its subtree's
//! path counts, logical tree statistics, and a *support set* (the courses
//! electable anywhere below, with the heaviest selection's workload), all
//! pure functions of structure — so any root answers a counting request in
//! O(1) once built, and the what-if fold (`crate::apply`) can prove whole
//! subtrees untouched by a delta without descending into them. Counts and
//! statistics are one accumulator, `Counts`, shared by the builder, the
//! what-if fold and the dedup views, and built by the same rules in each.
//! Only the builder creates nodes, so every node's summary is exact.
//!
//! Edges dominate the table's memory (sparse-7sem: 3.16 M edges on 74.6 k
//! nodes), so an interior packs them the way BDD and ZDD packages pack
//! nodes into a few machine words ([`Edges`]): the node's *alphabet* —
//! the sorted union of its selections' courses — is stored once, and each
//! edge is a bit-mask over alphabet positions plus a `u32` child, 12 bytes
//! where a full `CourseSet`, child and cached `f64` load took 48. Alphabets
//! over 64 courses take ⌈|alphabet|/64⌉ mask words per edge on the same
//! code path. Per-edge workloads are not stored: a workload-cap what-if
//! re-sums an edge's few course workloads in ascending course order,
//! exactly the serving filter's additions, so cap decisions are
//! bit-identical to a filtered build.
//!
//! The builder encodes while it enumerates. Every selection is a subset of
//! the node's options `Y_i`, and the enumerator walks it as ascending
//! option positions, so each kept selection's mask over those positions
//! and its workload (summed from the node's option workloads) come
//! straight from the enumerator, and the edge stack holds mask words and
//! child ids instead of full course sets. At intern time the alphabet is
//! the options some kept mask uses: usually all of them, and then the
//! masks are already over alphabet positions and are stored verbatim;
//! otherwise (a filter or the strategic floor kept an option out of every
//! selection) each mask is rank-compressed onto the alphabet. The result
//! is byte-identical to encoding the decoded edge list, so hash-consing
//! identity does not depend on how a node was built.
//!
//! Structure of the table mirrors the classic BDD unique table: nodes live
//! in sharded append-only arenas (the low `SHARD_BITS` bits of a
//! [`DagNodeId`] select the shard, so interning contends per-shard, not
//! globally), and an intern index per shard maps structural hashes to
//! candidate ids. The whole-call what-if fold cache and the index of built
//! roots are pure, so each holds at most the table's `capacity` entries and
//! is cleared when full; nodes are bounded by retiring the whole table
//! ([`UniqueTable::is_full`]). The table is `Sync`: parallel builds and
//! what-ifs may share it, exactly like the transposition table.

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
use crate::pruning::{PruneReason, Pruner};
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
/// Terminal kinds (`Leaf`, `Pruned`) are identified by kind alone
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
    /// An expanded state: one edge per admissible selection (including
    /// edges to pruned children), plus how many selections the strategic
    /// floor skipped (they contribute `pruned-time` per tree visit). With
    /// no edge and nothing skipped, filters vetoed every selection and the
    /// state ends one dead-end path.
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
///
/// The builder encodes straight from enumeration (`Edges::encode`): a
/// node's selections are subsets of its options, so it records each as a
/// mask over option positions while enumerating, and the alphabet is the
/// set of options some mask uses. Tests encode a decoded edge list through
/// the same encoder (`Edges::new`), with the list's own union as options.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Edges {
    data: Box<[u32]>,
    len: u32,
    alphabet_len: u32,
}

impl Edges {
    /// Encodes the edges `(masks[i], children[i])`, keeping their order.
    /// `options` are ascending course ids, and each mask is the selection
    /// as bits over their positions, ⌈|options|/64⌉ words per edge.
    ///
    /// The alphabet is the options that some mask uses. When that is all
    /// of them — the common case — the masks are already over alphabet
    /// positions and are stored verbatim; otherwise each is rank-compressed
    /// onto the alphabet. Either way the result is the canonical encoding
    /// of the decoded edge list.
    pub(crate) fn encode(options: &[CourseId], masks: &[u64], children: &[DagNodeId]) -> Edges {
        let words = options.len().div_ceil(64);
        debug_assert_eq!(masks.len(), words * children.len());
        let mut used: Mask = [0; MASK_WORDS];
        if words > 0 {
            for mask in masks.chunks_exact(words) {
                for (used, word) in used.iter_mut().zip(mask) {
                    *used |= word;
                }
            }
        }
        let alphabet_len = set_bits(&used).count();
        let alphabet_words = alphabet_len.div_ceil(64);
        let mut data = vec![0u32; alphabet_len + children.len() * (2 * alphabet_words + 1)];
        let (alphabet, rest) = data.split_at_mut(alphabet_len);
        let (mask_units, child_units) = rest.split_at_mut(2 * alphabet_words * children.len());
        for (unit, p) in alphabet.iter_mut().zip(set_bits(&used)) {
            *unit = options[p].as_usize() as u32;
        }
        if alphabet_len == options.len() {
            store_words(mask_units, masks);
        } else if alphabet_words > 0 {
            // Alphabet rank of each used option position (at most 256
            // options, so a rank fits a byte).
            let mut rank = [0u8; CourseSet::CAPACITY];
            for (k, p) in set_bits(&used).enumerate() {
                rank[p] = k as u8;
            }
            let ranked_units = mask_units.chunks_exact_mut(2 * alphabet_words);
            for (units, mask) in ranked_units.zip(masks.chunks_exact(words)) {
                let mut ranked: Mask = [0; MASK_WORDS];
                for p in set_bits(mask) {
                    let k = usize::from(rank[p]);
                    ranked[k / 64] |= 1 << (k % 64);
                }
                store_words(units, &ranked[..alphabet_words]);
            }
        }
        for (unit, child) in child_units.iter_mut().zip(children) {
            *unit = child.0;
        }
        Edges {
            data: data.into_boxed_slice(),
            len: u32::try_from(children.len()).expect("an edge count fits a u32"),
            alphabet_len: alphabet_len as u32,
        }
    }

    /// Encodes a decoded edge list, keeping its order: the options are the
    /// union of its selections, so every option is used.
    #[cfg(test)]
    pub(crate) fn new(edges: &[(CourseSet, DagNodeId)]) -> Edges {
        let mut union = CourseSet::EMPTY;
        for (selection, _) in edges {
            union.union_with(selection);
        }
        let options: Vec<CourseId> = union.iter().collect();
        let mut position = [0u8; CourseSet::CAPACITY];
        for (k, id) in options.iter().enumerate() {
            position[id.as_usize()] = k as u8;
        }
        let words = options.len().div_ceil(64);
        let mut masks = vec![0u64; words * edges.len()];
        for (i, (selection, _)) in edges.iter().enumerate() {
            for id in selection.iter() {
                let k = usize::from(position[id.as_usize()]);
                masks[i * words + k / 64] |= 1 << (k % 64);
            }
        }
        let children: Vec<DagNodeId> = edges.iter().map(|(_, child)| *child).collect();
        Edges::encode(&options, &masks, &children)
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

    /// The alphabet as a set: every course of every selection.
    pub(crate) fn alphabet(&self) -> CourseSet {
        self.data[..self.alphabet_len as usize]
            .iter()
            .map(|&id| CourseId::new(id as u16))
            .collect()
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

/// Stores mask words as `u32` units, each word low half first.
fn store_words(units: &mut [u32], words: &[u64]) {
    for (pair, word) in units.chunks_exact_mut(2).zip(words) {
        pair[0] = *word as u32;
        pair[1] = (word >> 32) as u32;
    }
}

/// Ascending positions of the set bits of a multi-word mask.
fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
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
    /// support provably cannot change this subtree, and one with a forced
    /// course outside it keeps no path here, so the fold decides either in
    /// O(1).
    pub support: CourseSet,
    /// Summed workload of the heaviest single selection anywhere below: a
    /// workload cap at or above this bound cannot veto anything here.
    /// Per-edge loads are not stored: a workload-cap what-if re-sums the
    /// few course workloads of each edge it tests.
    pub max_load: f64,
}

/// A subtree's path counts and the four logical tree counters: the one
/// accumulator of every walk over the DAG. The builder folds a node's
/// counts from its children's (inside [`Summary`]), the what-if fold
/// re-folds them under a delta (`crate::apply`), and `crate::dedup` sums
/// one per distinct state. The two folds build them the same way: a
/// terminal from its kind, an interior from [`Counts::interior`], one
/// [`Counts::add_edge`] per kept edge, then [`Counts::close`]. The
/// transposition-table counters of [`ExploreStats`] are zero on every
/// interned node ([`DagNode::stats`]), so they are left out and the whole
/// accumulator packs into one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counts {
    pub(crate) paths: u128,
    pub(crate) goal_paths: u128,
    pub(crate) nodes_expanded: u64,
    pub(crate) edges_created: u64,
    pub(crate) pruned_time: u64,
    pub(crate) pruned_availability: u64,
}

impl Counts {
    /// The constant counts of a terminal kind: a leaf ends one path (a goal
    /// path when the goal holds there), a pruned state counts its prune.
    pub(crate) fn terminal(kind: &DagNodeKind) -> Counts {
        let mut counts = Counts::default();
        match kind {
            DagNodeKind::Leaf(k) => {
                counts.paths = 1;
                counts.goal_paths = u128::from(*k == LeafKind::Goal);
            }
            DagNodeKind::Pruned(PruneReason::Time) => counts.pruned_time = 1,
            DagNodeKind::Pruned(PruneReason::Availability) => counts.pruned_availability = 1,
            DagNodeKind::Interior { .. } => unreachable!("an interior is not a terminal"),
        }
        counts
    }

    /// An interior's counts before any edge is folded in: its expansion,
    /// and one time prune per selection the strategic floor skipped.
    pub(crate) fn interior(floor_skipped: u64) -> Counts {
        Counts {
            nodes_expanded: 1,
            pruned_time: floor_skipped,
            ..Counts::default()
        }
    }

    /// Folds one kept edge and the subtree below it into an interior's
    /// counts.
    #[inline]
    pub(crate) fn add_edge(&mut self, child: &Counts) {
        self.edges_created += 1;
        self.merge(child);
    }

    /// Adds another subtree's counts.
    #[inline]
    pub(crate) fn merge(&mut self, other: &Counts) {
        self.paths += other.paths;
        self.goal_paths += other.goal_paths;
        self.nodes_expanded += other.nodes_expanded;
        self.edges_created += other.edges_created;
        self.pruned_time += other.pruned_time;
        self.pruned_availability += other.pruned_availability;
    }

    /// Finishes an interior's counts once every kept edge is folded in. An
    /// interior that kept no edge and skipped nothing at the floor had every
    /// selection vetoed by a filter: it stays expanded and ends one non-goal
    /// dead-end path, as the explorer's depth-first walk counts it. No edge
    /// was folded exactly when `edges_created` is still zero, and then
    /// `pruned_time` holds the floor skips alone.
    pub(crate) fn close(&mut self) {
        if self.edges_created == 0 && self.pruned_time == 0 {
            self.paths = 1;
        }
    }

    /// A node's stored counts.
    #[inline]
    pub(crate) fn of(node: &DagNode) -> Counts {
        let stats = &node.stats;
        debug_assert_eq!(
            (stats.memo_hits, stats.memo_misses, stats.memo_evictions),
            (0, 0, 0),
            "interned nodes carry logical stats with zero memo traffic"
        );
        Counts {
            paths: node.paths,
            goal_paths: node.goal_paths,
            nodes_expanded: stats.nodes_expanded,
            edges_created: stats.edges_created,
            pruned_time: stats.pruned_time,
            pruned_availability: stats.pruned_availability,
        }
    }

    /// The logical statistics, memo counters zero.
    pub(crate) fn stats(&self) -> ExploreStats {
        ExploreStats {
            nodes_expanded: self.nodes_expanded,
            edges_created: self.edges_created,
            pruned_time: self.pruned_time,
            pruned_availability: self.pruned_availability,
            ..ExploreStats::default()
        }
    }
}

/// A node's derived subtree summary, folded bottom-up by the builder from
/// the summaries of the children it holds: the subtree's [`Counts`], plus
/// its support and heaviest-selection bound — pure functions of structure.
#[derive(Debug, Clone, Copy)]
struct Summary {
    counts: Counts,
    support: CourseSet,
    max_load: f64,
}

impl Summary {
    /// A summary with these counts and nothing electable below.
    fn new(counts: Counts) -> Summary {
        Summary {
            counts,
            support: CourseSet::EMPTY,
            max_load: 0.0,
        }
    }

    /// Folds one edge — its selection's workload and the child's summary —
    /// into an interior's summary. The selections' own courses join the
    /// support once, as the node's alphabet, when the edges are encoded.
    fn add_edge(&mut self, load: f64, child: &Summary) {
        self.counts.add_edge(&child.counts);
        self.support.union_with(&child.support);
        self.max_load = self.max_load.max(load).max(child.max_load);
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

/// Key of one fold-cache entry: the what-if delta itself — avoided
/// courses, the workload cap's bits, the forced courses still outstanding
/// at the root — and the root it was folded over.
pub(crate) type FoldKey = (CourseSet, Option<u64>, CourseSet, DagNodeId);

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
    /// What-if folds answered from the fold cache.
    pub apply_hits: u64,
    /// What-if folds computed and cached.
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
    /// Whole-call what-if results, one entry per `(delta, root)` — a
    /// repeated what-if answers without any walk. At most `capacity`
    /// entries, cleared when full (the cache is pure, so clearing only
    /// costs recompute): a stream of distinct what-ifs interns no nodes,
    /// so the node cap alone would never bound it.
    folds: Mutex<HashMap<FoldKey, Counts>>,
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

    /// Interns a node whose summary the builder folded from the child
    /// summaries it holds, returning the id of the structurally equal
    /// resident node when one exists (a hash-cons hit) and creating it
    /// otherwise. Returns the id and whether this call created the node.
    ///
    /// Terminal kinds ignore the anchor arguments: every state ending in
    /// the same [`DagNodeKind`] shares one node, the BDD terminal rule.
    fn intern(
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
            paths: summary.counts.paths,
            goal_paths: summary.counts.goal_paths,
            stats: summary.counts.stats(),
            support: summary.support,
            max_load: summary.max_load,
        }));
        shard.index.entry(hash).or_default().push(index as u32);
        self.interned.fetch_add(1, Ordering::Relaxed);
        (DagNodeId::new(shard_idx, index), true)
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

    /// The entry cap of each pure cache: the node capacity, or `None` on an
    /// unbounded table.
    fn cache_cap(&self) -> Option<usize> {
        (self.capacity != 0).then_some(self.capacity)
    }

    pub(crate) fn fold_get(&self, key: &FoldKey) -> Option<Counts> {
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

    pub(crate) fn fold_put(&self, key: FoldKey, value: Counts) {
        let mut folds = self.folds.lock().expect("fold cache poisoned");
        bounded_insert(&mut folds, self.cache_cap(), key, value);
    }

    /// Entries in the fold cache.
    #[cfg(test)]
    pub(crate) fn fold_entries(&self) -> usize {
        self.folds.lock().expect("fold cache poisoned").len()
    }

    /// Interns a hand-built node, its summary folded from its children's
    /// exactly as the builder folds it; `workloads` (indexed by course id)
    /// sums each edge's load.
    #[cfg(test)]
    pub(crate) fn intern_built(&self, kind: DagNodeKind, workloads: &[f64]) -> DagNodeId {
        let summary = match &kind {
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                let mut summary = Summary::new(Counts::interior(*floor_skipped));
                for i in 0..edges.len() {
                    let child = self.node(edges.child(i));
                    let child = Summary {
                        counts: Counts::of(&child),
                        support: child.support,
                        max_load: child.max_load,
                    };
                    summary.add_edge(edges.load(i, workloads), &child);
                }
                summary.counts.close();
                summary.support.union_with(&edges.alphabet());
                summary
            }
            terminal => Summary::new(Counts::terminal(terminal)),
        };
        self.intern(0, CourseSet::EMPTY, kind, summary).0
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
        DagNodeKind::Interior { .. } => {
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
    /// Edge stack shared by every level of the recursion, as parallel
    /// mask words and children: a node's own edges sit on top while its
    /// children are built, each selection a mask over the node's option
    /// positions, and are encoded into an exact-size [`Edges`] when it is
    /// interned.
    masks: Vec<u64>,
    children: Vec<DagNodeId>,
    /// Interior nodes this build created, and the cap on them.
    created: usize,
    node_budget: Option<usize>,
    expiry: Expiry,
}

impl BuildCtx<'_> {
    fn terminal(&mut self, kind: DagNodeKind) -> (DagNodeId, Summary) {
        let slot = terminal_slot(&kind);
        *self.terminals[slot].get_or_insert_with(|| {
            let summary = Summary::new(Counts::terminal(&kind));
            let (id, _) = self
                .table
                .intern(TERMINAL_SEMESTER, CourseSet::EMPTY, kind, summary);
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
    /// their options only on that first visit. States already interned by
    /// an earlier build sharing the table cost a hash-cons hit; the
    /// per-node counts and statistics come out identical to a fresh
    /// re-exploration by construction.
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
            masks: Vec::new(),
            children: Vec::new(),
            created: 0,
            node_budget,
            expiry: Expiry::per_step(deadline),
        };
        let (root, _) = self.dag_node(*self.start(), pruner.as_ref(), &mut ctx)?;
        Ok(root)
    }

    /// Resolves `state` to its node: a terminal, a state this build
    /// already resolved, or a fresh expansion. An expansion builds each
    /// kept selection's child first, folding the child's summary into its
    /// own and pushing the selection's mask over option positions and the
    /// child id onto the edge stack; its load comes from the option
    /// workloads in ascending course order, the additions of
    /// `Restriction::load`, so `max_load` is bit-identical to summing the
    /// selection. The node's edges are then encoded from the stack in one
    /// pass ([`Edges::encode`]), and its alphabet joins the support once.
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
        let status = &expansion.status;
        let mut selections = expansion.selections(self.max_per_semester());
        // Option workloads by position.
        let loads: Vec<f64> = selections
            .options()
            .iter()
            .map(|&id| self.catalog().course(id).workload())
            .collect();
        let words = loads.len().div_ceil(64);
        let (mask_base, child_base) = (ctx.masks.len(), ctx.children.len());
        let mut floor_skipped = 0u64;
        let mut summary = Summary::new(Counts::interior(0));
        while let Some(selection) = selections.next() {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
                continue;
            }
            if !self.selection_allowed(status, &selection) {
                continue;
            }
            let mut mask: Mask = [0; MASK_WORDS];
            for &p in selections.positions() {
                mask[p / 64] |= 1 << (p % 64);
            }
            let load: f64 = selections.positions().iter().map(|&p| loads[p]).sum();
            let (child_id, child_summary) = self.dag_node(status.child(&selection), pruner, ctx)?;
            summary.add_edge(load, &child_summary);
            // Usually one word: pushed in a loop, not copied by `memcpy`.
            for &word in &mask[..words] {
                ctx.masks.push(word);
            }
            ctx.children.push(child_id);
        }
        summary.counts.pruned_time += floor_skipped;
        summary.counts.close();
        let edges = Edges::encode(
            selections.options(),
            &ctx.masks[mask_base..],
            &ctx.children[child_base..],
        );
        summary.support.union_with(&edges.alphabet());
        let kind = DagNodeKind::Interior {
            edges,
            floor_skipped,
        };
        let (semester, completed) = status.state_key();
        let (id, created) = ctx.table.intern(semester, completed, kind, summary);
        if created {
            ctx.created += 1;
            if let Some(node_budget) = ctx.node_budget {
                if ctx.created > node_budget {
                    return Err(DagBuildError::Budget { node_budget });
                }
            }
        }
        let resolved = (id, summary);
        ctx.masks.truncate(mask_base);
        ctx.children.truncate(child_base);
        ctx.expanded.insert(status.state_key(), resolved);
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
    use proptest::prelude::*;

    use crate::filter::{AvoidCourses, MaxSemesterWorkload};
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

    /// The what-if benchmark's sparse catalog: eight scheduled semesters.
    fn sparse_7sem_catalog() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig {
            schedule_semesters: 8,
            ..SyntheticConfig::sparse()
        })
    }

    /// The benchmark's base frame over that catalog — degree goal,
    /// deadline start + 7, three courses a semester — and its service.
    fn sparse_7sem_frame(
        synth: &SyntheticCatalog,
    ) -> (
        crate::service::NavigatorService<'_>,
        crate::request::ExplorationRequest,
    ) {
        use crate::request::{ExplorationRequest, OutputMode};

        let service = crate::service::NavigatorService::new(&synth.catalog)
            .with_degree(&synth.degree)
            .with_offering_model(&synth.offering);
        let base =
            ExplorationRequest::degree_paths(synth.start, synth.start + 7, 3, OutputMode::Count);
        (service, base)
    }

    /// Builds the base frame into `table`, returning the count response.
    fn sparse_7sem_base(table: &UniqueTable) -> crate::ExplorationResponse {
        let synth = sparse_7sem_catalog();
        let (service, base) = sparse_7sem_frame(&synth);
        service
            .whatif_until(
                &crate::whatif::WhatIfRequest::new(base),
                None,
                1,
                None,
                Some(table),
            )
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

    /// Canonicality of the enumeration-time encoder at benchmark scale: a
    /// second build of the frame into the same table finds every node it
    /// reaches already interned — the same root, no new node, and one
    /// hash-cons hit per interior and per terminal kind. An encoding that
    /// depended on anything but the edge list would intern twins here.
    #[test]
    #[ignore = "builds a 74,603-node DAG twice; run in release"]
    fn sparse_7sem_rebuild_is_all_hash_cons_hits() {
        let synth = sparse_7sem_catalog();
        let (service, base) = sparse_7sem_frame(&synth);
        let explorer = service.build_explorer(&base).unwrap();
        let table = UniqueTable::new(0);
        let first = explorer.build_path_dag(&table, None, None).unwrap();
        let built = table.snapshot();
        assert_eq!((built.nodes, built.interned), (74_603, 74_603));
        assert_eq!(
            built.hash_cons_hits, 0,
            "a fresh build interns each node once"
        );
        let second = explorer.build_path_dag(&table, None, None).unwrap();
        let rebuilt = table.snapshot();
        assert_eq!(first, second, "the rebuild returns the same root");
        assert_eq!(
            rebuilt.interned, built.interned,
            "the rebuild interns nothing"
        );
        assert_eq!(rebuilt.nodes, built.nodes);
        assert_eq!(
            rebuilt.hash_cons_hits, built.nodes,
            "one hit per interior and per terminal kind reached"
        );
    }

    /// What-if answers at benchmark scale: six fixed deltas over the
    /// sparse-7sem base DAG, their counts and logical stats pinned. The
    /// restriction-only deltas must also equal a memoized count of the
    /// frame with the restriction installed as filters, which fails for
    /// the avoid-plus-cap delta if a build or the fold stops counting the
    /// expansions of the states whose every selection is vetoed (53 here).
    #[test]
    #[ignore = "builds a 74,603-node DAG and counts the frame three times; run in release"]
    fn sparse_7sem_whatifs_are_golden() {
        use crate::apply::Restriction;
        use crate::memo::TranspositionTable;

        let synth = sparse_7sem_catalog();
        let (service, base) = sparse_7sem_frame(&synth);
        let table = UniqueTable::new(0);
        let explorer = || service.build_explorer(&base).unwrap();
        let root = explorer().build_path_dag(&table, None, None).unwrap();
        let courses = |codes: &[&str]| -> CourseSet {
            codes
                .iter()
                .map(|code| synth.catalog.id_of_str(code).unwrap())
                .collect()
        };
        // Avoiding CS 12 and CS 21 leaves no way to the degree; CS 45 is
        // electable nowhere in the frame.
        let deltas: [(&[&str], Option<f64>, &[&str]); 6] = [
            (&["CS 12", "CS 21"], None, &[]),
            (&[], Some(30.0), &[]),
            (&["CS 17"], Some(36.0), &[]),
            (&[], None, &["CS 33"]),
            (&["CS 14"], None, &["CS 20", "CS 31"]),
            (&[], None, &["CS 45"]),
        ];
        // (paths, goal paths, [expanded, edges, time prunes, availability
        // prunes]).
        let goldens: [(u128, u128, [u64; 4]); 6] = [
            (0, 0, [83_241, 1_594_668, 11_342, 1_500_086]),
            (1_384_718, 1_229_621, [113_318, 2_282_338, 34_310, 749_993]),
            (744_403, 658_380, [74_503, 1_058_700, 8_455, 231_393]),
            (1_388_939, 1_382_068, [174_391, 8_318_243, 2_026, 6_752_888]),
            (0, 0, [0; 4]),
            (0, 0, [0; 4]),
        ];
        for ((avoid, cap, force), (paths, goal_paths, [expanded, edges, time, availability])) in
            deltas.into_iter().zip(goldens)
        {
            let r = Restriction {
                avoid: courses(avoid),
                max_workload: cap,
            };
            let stats = ExploreStats {
                nodes_expanded: expanded,
                edges_created: edges,
                pruned_time: time,
                pruned_availability: availability,
                ..ExploreStats::default()
            };
            let got =
                table.whatif_counts(root, &synth.catalog, &r, &courses(force), &CourseSet::EMPTY);
            assert_eq!(
                got,
                (paths, goal_paths, stats),
                "{avoid:?} {cap:?} {force:?}"
            );
            if !force.is_empty() {
                continue;
            }
            let mut filtered = explorer();
            if !r.avoid.is_empty() {
                filtered = filtered.with_filter(Arc::new(AvoidCourses(r.avoid)));
            }
            if let Some(cap) = cap {
                filtered = filtered.with_filter(Arc::new(MaxSemesterWorkload(cap)));
            }
            let (counts, _) = filtered.count_paths_memo(&TranspositionTable::new(1 << 18));
            assert_eq!(
                (counts.total_paths, counts.goal_paths, counts.stats),
                got,
                "{avoid:?} {cap:?}: the memoized count of the filtered frame"
            );
        }
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
            .with_filter(Arc::new(AvoidCourses(avoid)));
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

    /// Checks every interior resident in `table` against the adapter:
    /// re-encoding its decoded edge list gives the same packed edges, so
    /// the node compares and hashes exactly as a decoded-list build would.
    fn interiors_are_canonical(table: &UniqueTable) -> Result<usize, TestCaseError> {
        let view = table.view();
        let mut interiors = 0;
        for node in view.guards.iter().flat_map(|shard| shard.nodes.iter()) {
            let DagNodeKind::Interior {
                edges,
                floor_skipped,
            } = &node.kind
            else {
                continue;
            };
            interiors += 1;
            let decoded: Vec<(CourseSet, DagNodeId)> = edges.iter().collect();
            let reencoded = DagNodeKind::Interior {
                edges: Edges::new(&decoded),
                floor_skipped: *floor_skipped,
            };
            prop_assert_eq!(&reencoded, &node.kind);
            prop_assert_eq!(
                node_hash(node.semester, &node.completed, &reencoded),
                node_hash(node.semester, &node.completed, &node.kind)
            );
        }
        Ok(interiors)
    }

    /// The edges `(selection as option positions, child)` over `options`,
    /// encoded from masks and, independently, from the decoded list.
    fn encode_both(options: &[CourseId], edges: &[(&[usize], u32)]) -> (Edges, Edges) {
        let words = options.len().div_ceil(64);
        let mut masks = vec![0u64; words * edges.len()];
        let mut decoded = Vec::new();
        for (i, (positions, child)) in edges.iter().enumerate() {
            for &p in *positions {
                masks[i * words + p / 64] |= 1 << (p % 64);
            }
            let selection: CourseSet = positions.iter().map(|&p| options[p]).collect();
            decoded.push((selection, DagNodeId(*child)));
        }
        let children: Vec<DagNodeId> = decoded.iter().map(|(_, child)| *child).collect();
        let encoded = Edges::encode(options, &masks, &children);
        assert!(
            encoded.iter().eq(decoded.iter().copied()),
            "decoding inverts encoding"
        );
        (encoded, Edges::new(&decoded))
    }

    /// Wide option sets whose used options are not a prefix: the masks
    /// rank-compress onto the alphabet, one word when it is narrow and two
    /// when it is not, and match the decoded-list encoding byte for byte.
    #[test]
    fn wide_options_rank_compress_onto_the_used_alphabet() {
        let options: Vec<CourseId> = (0..100u16).map(|i| CourseId::new(2 * i + 1)).collect();
        let (encoded, adapted) = encode_both(
            &options,
            &[
                (&[2], 7),
                (&[5, 70], 3),
                (&[63, 64, 99], 7),
                (&[], 1),
                (&[2, 99], 0),
            ],
        );
        assert_eq!(encoded, adapted);
        assert_eq!((encoded.alphabet().len(), encoded.words()), (6, 1));
        assert_eq!(encoded.heap_bytes(), adapted.heap_bytes());

        let options: Vec<CourseId> = (0..200u16).map(CourseId::new).collect();
        let odd: Vec<usize> = (1..200).step_by(2).collect();
        let (encoded, adapted) = encode_both(&options, &[(&odd[..50], 1), (&odd[50..], 2)]);
        assert_eq!(encoded, adapted);
        assert_eq!((encoded.alphabet().len(), encoded.words()), (100, 2));
        let kind = |edges: Edges| DagNodeKind::Interior {
            edges,
            floor_skipped: 0,
        };
        assert_eq!(
            node_hash(0, &CourseSet::EMPTY, &kind(encoded)),
            node_hash(0, &CourseSet::EMPTY, &kind(adapted))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The enumeration-time encoder agrees with encoding the decoded
        /// edge list, on random small catalogs with and without a goal and
        /// the strategic floor, under filters that keep some options out
        /// of every selection (the rank-compressed path).
        #[test]
        fn enumeration_encoding_matches_the_decoded_edge_list(
            seed in 0u64..1_000,
            horizon in 2i32..5,
            m in 1usize..5,
            goal in any::<bool>(),
            floor in any::<bool>(),
            avoid in 0usize..3,
            cap in prop::option::of(6.0f64..30.0),
        ) {
            let synth = SyntheticCatalog::generate(&SyntheticConfig {
                seed,
                ..SyntheticConfig::small()
            });
            let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
            let deadline = synth.start + horizon;
            let mut e = if goal {
                let goal = Goal::degree(synth.degree.clone());
                Explorer::goal_driven(&synth.catalog, start, deadline, m, goal)
                    .unwrap()
                    .with_strategic_selections(floor)
            } else {
                Explorer::deadline_driven(&synth.catalog, start, deadline, m).unwrap()
            };
            let avoided: CourseSet = synth.catalog.courses().take(avoid).map(|c| c.id()).collect();
            if !avoided.is_empty() {
                e = e.with_filter(Arc::new(AvoidCourses(avoided)));
            }
            if let Some(cap) = cap {
                e = e.with_filter(Arc::new(MaxSemesterWorkload(cap)));
            }
            let table = UniqueTable::new(0);
            e.build_path_dag(&table, None, None).unwrap();
            interiors_are_canonical(&table)?;
        }
    }
}
