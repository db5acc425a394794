//! Status-keyed subtree memoization: the transposition table that folds
//! the exploration tree into a DAG.
//!
//! Two selection orderings that reach the same enrollment status
//! `(completed, semester)` root *identical* subtrees — everything below a
//! node is a pure function of its [`EnrollmentStatus`] and the run
//! configuration (catalog, deadline, cap, goal, filters, wait policy,
//! pruning). The [`TranspositionTable`] caches per-subtree results under
//! [`EnrollmentStatus::state_key`] so each distinct status is explored
//! once per table lifetime, the same shared-suffix canonicalization that
//! makes BDDs tractable. Three result kinds are cached:
//!
//! - **counts** — `(total, goal)` path counts plus the subtree's
//!   *logical* [`ExploreStats`] delta. Always sound: a hit replays the
//!   cached counters, so warm and cold runs report byte-identical
//!   statistics (the §5.2 pruning breakdown is stable) while expanding
//!   strictly fewer nodes.
//! - **suffix sets** — every maximal suffix below the status, in
//!   depth-first order, kept only while the subtree has at most
//!   [`SUFFIX_CAP`] of them. A hit splices the stored suffixes onto the
//!   caller's prefix, reproducing `collect_paths` output exactly.
//! - **ranked suffix summaries** — the top-`k` goal suffixes in the
//!   best-first pop order, cacheable only for suffix-decomposable
//!   rankings ([`crate::Ranking::decomposable`]: constant positive edge
//!   cost). Non-decomposable rankings fall back to the un-memoized
//!   search, byte-identically.
//!
//! The table is sharded and lock-striped so the parallel fan-out shares
//! one memo across workers, and it is `Sync` so the serving layer can key
//! long-lived tables under [`crate::ExplorationRequest::memo_key`] and
//! reuse them across requests. Memory is bounded by an entry-count cap with
//! LRU-ish (oldest-stamp-quartile) eviction. Keys hash with the crate's
//! word-at-a-time `FxHasher` (the unique table's), both for the shard pick
//! and inside the shard's maps: every classified state that expands costs
//! a lookup, and SipHash on these short keys was a measurable share of it.
//! Fx is unkeyed, so a request could steer states into one collision
//! chain; each shard's cap bounds that chain, and with it the cost.
//!
//! A state is classified before it is looked up: leaves and prunes that
//! its `(semester, completed)` pair settles never touch the table, and a
//! state's options are computed only after a miss (the engine's two-phase
//! classifier in `explorer.rs`). A lookup counts only its
//! hit; the miss is recorded once the state turns out to expand, so the
//! counters equal those of classifying first and looking up second.
//!
//! Every run keeps **two** stat ledgers: the *logical* stats a response
//! reports (tree-equivalent, memo counters always zero) and the *work*
//! stats the memoized entry points return alongside (real expansions plus
//! `memo_hits`/`memo_misses`/`memo_evictions`). Correctness never depends
//! on table contents: any entry may be dropped (see
//! [`TranspositionTable::set_insert_gate`]) or evicted at any time, at
//! worst re-exploring a subtree.

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coursenav_catalog::{Catalog, CourseSet};
use serde::{Deserialize, Serialize};

use crate::error::ExploreError;
use crate::expiry::Expiry;
use crate::explorer::{Disposition, Explorer};
use crate::parallel::RootExpansion;
use crate::path::{LeafKind, Path};
use crate::pruning::{record_prune, Pruner};
use crate::ranked::RankedPath;
use crate::ranking::Ranking;
use crate::request::RankingSpec;
use crate::stats::{ExploreStats, PathCounts};
use crate::status::{Classifiable, EnrollmentStatus};
use crate::unique::{FxBuild, FxMap};

/// The canonical subtree identity: semester index + completed set (the
/// options set is derived from them), as produced by
/// [`EnrollmentStatus::state_key`].
pub type StateKey = (i32, CourseSet);

/// Number of lock stripes. Sixteen keeps contention negligible for the
/// worker counts the parallel fan-out uses while staying cheap to scan.
const SHARD_COUNT: usize = 16;

/// Where a key's shard index starts in its 64-bit hash. The shard maps
/// are hashbrown tables, which take a bucket from the low bits and a tag
/// from the top seven (57–63); bits 52–55 feed neither, so keys that
/// share a shard still spread over its buckets.
const SHARD_SHIFT: u32 = 52;

/// Largest suffix set cached per subtree. Subtrees with more maximal
/// suffixes are still *counted* through the memo but their paths are
/// re-enumerated on reuse (their smaller sub-subtrees usually hit).
pub const SUFFIX_CAP: usize = 64;

/// Callback consulted before every insert; returning `false` silently
/// drops the entry. Used by the server's chaos harness to prove
/// correctness never depends on table contents.
pub type InsertGate = Arc<dyn Fn() -> bool + Send + Sync>;

/// Cumulative transposition-table counters, as reported by
/// [`TranspositionTable::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to real exploration.
    pub misses: u64,
    /// Entries dropped by the LRU-ish cap enforcement.
    pub evictions: u64,
    /// Entries stored (overwrites included).
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Hard ceiling on resident entries.
    pub capacity: u64,
}

/// One maximal suffix below a memoized status: the per-semester
/// selections from that status to a leaf, plus how the leaf terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Suffix {
    pub(crate) selections: Vec<CourseSet>,
    pub(crate) kind: LeafKind,
}

/// One top-k candidate below a memoized status, in best-first pop order.
/// Under a decomposable ranking the suffix cost is determined by its
/// length, so only the selections are stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RankedSuffix {
    pub(crate) selections: Vec<CourseSet>,
}

#[derive(Clone)]
struct CountEntry {
    total: u128,
    goal: u128,
    logical: ExploreStats,
    stamp: u64,
}

#[derive(Clone)]
struct SuffixEntry {
    suffixes: Arc<Vec<Suffix>>,
    total: u128,
    goal: u128,
    logical: ExploreStats,
    stamp: u64,
}

#[derive(Clone)]
struct RankedEntry {
    items: Arc<Vec<RankedSuffix>>,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    count: FxMap<StateKey, CountEntry>,
    suffix: FxMap<StateKey, SuffixEntry>,
    ranked: FxMap<(StateKey, u64, u64), RankedEntry>,
}

impl Shard {
    fn len(&self) -> usize {
        self.count.len() + self.suffix.len() + self.ranked.len()
    }
}

/// The sharded, lock-striped subtree memo. See the module docs.
pub struct TranspositionTable {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    gate: Mutex<Option<InsertGate>>,
}

impl std::fmt::Debug for TranspositionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranspositionTable")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl TranspositionTable {
    /// A table holding at most `max_entries` entries (rounded up to a
    /// multiple of the shard count; at least one entry per shard). The
    /// effective ceiling is reported by [`MemoStats::capacity`].
    pub fn new(max_entries: usize) -> TranspositionTable {
        let shard_cap = max_entries.div_ceil(SHARD_COUNT).max(1);
        TranspositionTable {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_cap,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            gate: Mutex::new(None),
        }
    }

    /// Installs (or clears) the insert gate consulted before every store.
    pub fn set_insert_gate(&self, gate: Option<InsertGate>) {
        *self.gate.lock().expect("gate lock poisoned") = gate;
    }

    /// Entries currently resident across every shard.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether the table currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hard ceiling on resident entries.
    pub fn capacity(&self) -> usize {
        self.shard_cap * SHARD_COUNT
    }

    /// A point-in-time snapshot of the cumulative counters.
    pub fn snapshot(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity() as u64,
        }
    }

    /// Drops every entry (counters are kept; they are cumulative).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock poisoned");
            *shard = Shard::default();
        }
    }

    /// Inserts a synthetic count entry under a tag-derived key — a test
    /// hook for layers above this crate (the serving layer's registry and
    /// chaos tests need to store *something* without running the engine).
    #[doc(hidden)]
    pub fn put_probe_entry(&self, tag: u64) {
        self.put_count(
            (tag as i32, CourseSet::EMPTY),
            0,
            0,
            ExploreStats::default(),
        );
    }

    fn shard_for<K: Hash>(&self, key: &K) -> &Mutex<Shard> {
        let hash = FxBuild::default().hash_one(key);
        &self.shards[(hash >> SHARD_SHIFT) as usize % SHARD_COUNT]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn gate_allows(&self) -> bool {
        match self.gate.lock().expect("gate lock poisoned").as_ref() {
            Some(gate) => gate(),
            None => true,
        }
    }

    /// Evicts the oldest-stamp quartile when the shard is at capacity,
    /// returning how many entries were dropped.
    fn evict_if_full(&self, shard: &mut Shard) -> u64 {
        if shard.len() < self.shard_cap {
            return 0;
        }
        let mut stamps: Vec<u64> = shard
            .count
            .values()
            .map(|e| e.stamp)
            .chain(shard.suffix.values().map(|e| e.stamp))
            .chain(shard.ranked.values().map(|e| e.stamp))
            .collect();
        stamps.sort_unstable();
        let cut = stamps[stamps.len() / 4];
        let before = shard.len();
        shard.count.retain(|_, e| e.stamp > cut);
        shard.suffix.retain(|_, e| e.stamp > cut);
        shard.ranked.retain(|_, e| e.stamp > cut);
        let evicted = (before - shard.len()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Counts a hit and returns the entry's fresh stamp.
    fn hit(&self) -> u64 {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.stamp()
    }

    /// Counts a lookup that fell through to real exploration. Lookups
    /// count only their hits: the engine looks a state up before it knows
    /// whether the state expands, and records the miss once it does — a
    /// state that ends as a dead end could never have been stored.
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get_count(&self, key: &StateKey) -> Option<(u128, u128, ExploreStats)> {
        let mut shard = self.shard_for(key).lock().expect("shard lock poisoned");
        let entry = shard.count.get_mut(key)?;
        entry.stamp = self.hit();
        Some((entry.total, entry.goal, entry.logical))
    }

    pub(crate) fn put_count(
        &self,
        key: StateKey,
        total: u128,
        goal: u128,
        logical: ExploreStats,
    ) -> u64 {
        if !self.gate_allows() {
            return 0;
        }
        let mut shard = self.shard_for(&key).lock().expect("shard lock poisoned");
        let evicted = self.evict_if_full(&mut shard);
        let stamp = self.stamp();
        shard.count.insert(
            key,
            CountEntry {
                total,
                goal,
                logical,
                stamp,
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn get_suffixes(
        &self,
        key: &StateKey,
    ) -> Option<(Arc<Vec<Suffix>>, u128, u128, ExploreStats)> {
        let mut shard = self.shard_for(key).lock().expect("shard lock poisoned");
        let entry = shard.suffix.get_mut(key)?;
        entry.stamp = self.hit();
        Some((
            entry.suffixes.clone(),
            entry.total,
            entry.goal,
            entry.logical,
        ))
    }

    pub(crate) fn put_suffixes(
        &self,
        key: StateKey,
        suffixes: Arc<Vec<Suffix>>,
        total: u128,
        goal: u128,
        logical: ExploreStats,
    ) -> u64 {
        if !self.gate_allows() {
            return 0;
        }
        let mut shard = self.shard_for(&key).lock().expect("shard lock poisoned");
        let evicted = self.evict_if_full(&mut shard);
        let stamp = self.stamp();
        shard.suffix.insert(
            key,
            SuffixEntry {
                suffixes,
                total,
                goal,
                logical,
                stamp,
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    pub(crate) fn get_ranked(
        &self,
        key: &StateKey,
        sig: u64,
        k: usize,
    ) -> Option<Arc<Vec<RankedSuffix>>> {
        let full = (*key, sig, k as u64);
        let mut shard = self.shard_for(&full).lock().expect("shard lock poisoned");
        let entry = shard.ranked.get_mut(&full)?;
        entry.stamp = self.hit();
        Some(entry.items.clone())
    }

    pub(crate) fn put_ranked(
        &self,
        key: StateKey,
        sig: u64,
        k: usize,
        items: Arc<Vec<RankedSuffix>>,
    ) -> u64 {
        if !self.gate_allows() {
            return 0;
        }
        let full = (key, sig, k as u64);
        let mut shard = self.shard_for(&full).lock().expect("shard lock poisoned");
        let evicted = self.evict_if_full(&mut shard);
        let stamp = self.stamp();
        shard.ranked.insert(full, RankedEntry { items, stamp });
        self.inserts.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Every resident entry as a [`PortableEntry`], oldest stamp first —
    /// the serving layer's snapshot export. Re-importing in this order
    /// preserves the entries' relative recency (and therefore which
    /// quartile a later eviction pass would shed first).
    pub fn export_entries(&self) -> Vec<PortableEntry> {
        let mut stamped: Vec<(u64, PortableEntry)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            for (key, e) in &shard.count {
                stamped.push((
                    e.stamp,
                    PortableEntry::Count {
                        key: *key,
                        total: e.total,
                        goal: e.goal,
                        logical: e.logical,
                    },
                ));
            }
            for (key, e) in &shard.suffix {
                stamped.push((
                    e.stamp,
                    PortableEntry::Suffixes {
                        key: *key,
                        total: e.total,
                        goal: e.goal,
                        logical: e.logical,
                        suffixes: e
                            .suffixes
                            .iter()
                            .map(|s| PortableSuffix {
                                selections: s.selections.clone(),
                                kind: s.kind,
                            })
                            .collect(),
                    },
                ));
            }
            for ((key, sig, k), e) in &shard.ranked {
                stamped.push((
                    e.stamp,
                    PortableEntry::Ranked {
                        key: *key,
                        sig: *sig,
                        k: *k,
                        items: e.items.iter().map(|r| r.selections.clone()).collect(),
                    },
                ));
            }
        }
        stamped.sort_by_key(|(stamp, _)| *stamp);
        stamped.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Routes `entries` back through the normal insert path (gate, cap
    /// enforcement, fresh stamps in iteration order) — the restore side of
    /// [`TranspositionTable::export_entries`]. An imported entry is
    /// indistinguishable from a freshly computed one, so correctness still
    /// never depends on how many survive. Returns how many entries were
    /// offered to the table.
    pub fn import_entries(&self, entries: impl IntoIterator<Item = PortableEntry>) -> u64 {
        let mut offered = 0u64;
        for entry in entries {
            match entry {
                PortableEntry::Count {
                    key,
                    total,
                    goal,
                    logical,
                } => {
                    self.put_count(key, total, goal, logical);
                }
                PortableEntry::Suffixes {
                    key,
                    total,
                    goal,
                    logical,
                    suffixes,
                } => {
                    let suffixes: Vec<Suffix> = suffixes
                        .into_iter()
                        .map(|s| Suffix {
                            selections: s.selections,
                            kind: s.kind,
                        })
                        .collect();
                    self.put_suffixes(key, Arc::new(suffixes), total, goal, logical);
                }
                PortableEntry::Ranked { key, sig, k, items } => {
                    let items: Vec<RankedSuffix> = items
                        .into_iter()
                        .map(|selections| RankedSuffix { selections })
                        .collect();
                    self.put_ranked(key, sig, k as usize, Arc::new(items));
                }
            }
            offered += 1;
        }
        offered
    }
}

/// One memo entry decoupled from the table's private internals — the unit
/// the serving layer's snapshot format serializes. Mirrors the three
/// cached result kinds (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableEntry {
    /// A `(total, goal)` path count plus the subtree's logical stats delta.
    Count {
        /// The memoized subtree's status key.
        key: StateKey,
        /// Total complete paths below the status.
        total: u128,
        /// Goal-satisfying paths below the status.
        goal: u128,
        /// The subtree's logical [`ExploreStats`] delta.
        logical: ExploreStats,
    },
    /// A complete suffix set with its counts.
    Suffixes {
        /// The memoized subtree's status key.
        key: StateKey,
        /// Total complete paths below the status.
        total: u128,
        /// Goal-satisfying paths below the status.
        goal: u128,
        /// The subtree's logical [`ExploreStats`] delta.
        logical: ExploreStats,
        /// Every maximal suffix, in depth-first order.
        suffixes: Vec<PortableSuffix>,
    },
    /// A top-`k` summary under ranking signature `sig`.
    Ranked {
        /// The memoized subtree's status key.
        key: StateKey,
        /// The ranking signature: a stable 64-bit fingerprint of the
        /// ranking spec's canonical form.
        sig: u64,
        /// The `k` the summary was computed for.
        k: u64,
        /// Each candidate's per-semester selections, best-first.
        items: Vec<Vec<CourseSet>>,
    },
}

/// One maximal suffix inside [`PortableEntry::Suffixes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableSuffix {
    /// Per-semester selections from the memoized status to the leaf.
    pub selections: Vec<CourseSet>,
    /// How the leaf terminated.
    pub kind: LeafKind,
}

/// A stable 64-bit fingerprint of a ranking spec's canonical form, used
/// to key cached top-k summaries so different rankings (or differently
/// weighted combinations) never share entries.
pub(crate) fn ranking_signature(spec: &RankingSpec) -> u64 {
    let json =
        serde_json::to_string(&spec.canonicalized()).expect("a ranking spec always serializes");
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Memoized recursions
// ---------------------------------------------------------------------------

/// How a memoized collect subtree resolved.
enum CollectOutcome {
    /// Fully enumerated: counts, logical delta, and (when the subtree has
    /// at most [`SUFFIX_CAP`] of them) its maximal suffixes.
    Complete {
        total: u128,
        goal: u128,
        logical: ExploreStats,
        suffixes: Option<Vec<Suffix>>,
    },
    /// The run stopped inside this subtree (collect limit or deadline):
    /// nothing on the spine may be cached.
    Aborted,
}

struct MemoRun<'e, 'c, 't> {
    explorer: &'e Explorer<'c>,
    pruner: Option<Pruner<'e>>,
    table: &'t TranspositionTable,
    /// Checked once every 64 expansions; the run unwinds once it fires.
    expiry: Expiry,
    /// Real work performed by *this* run: actual expansions plus the
    /// memo hit/miss/eviction counters. Never attached to responses.
    work: ExploreStats,
    /// The top-k answers of every terminal state, shared so a leaf or
    /// pruned child allocates nothing: no goal suffix, and the one empty
    /// suffix of a goal leaf.
    no_suffix: Arc<Vec<RankedSuffix>>,
    goal_leaf: Arc<Vec<RankedSuffix>>,
}

impl<'e, 'c, 't> MemoRun<'e, 'c, 't> {
    fn new(
        explorer: &'e Explorer<'c>,
        table: &'t TranspositionTable,
        deadline: Option<Instant>,
    ) -> MemoRun<'e, 'c, 't> {
        MemoRun {
            explorer,
            pruner: explorer.pruner(),
            table,
            expiry: Expiry::per_step(deadline),
            work: ExploreStats::default(),
            no_suffix: Arc::new(Vec::new()),
            goal_leaf: Arc::new(vec![RankedSuffix {
                selections: Vec::new(),
            }]),
        }
    }

    /// Records a lookup that fell through to an expansion.
    fn miss(&mut self) {
        self.table.record_miss();
        self.work.memo_misses += 1;
    }

    /// Counts the subtree below `state`, answering whole subtrees from
    /// the memo. Returns `(total, goal, logical delta)`; the logical
    /// delta accumulates exactly what the sequential engine's counters
    /// would for this subtree, hit or miss.
    fn count_state(&mut self, state: impl Classifiable) -> (u128, u128, ExploreStats) {
        let table = self.table;
        let expansion = match self
            .explorer
            .disposition(state, self.pruner.as_ref(), |key| table.get_count(key))
        {
            Disposition::Leaf(kind) => {
                return (
                    1,
                    u128::from(kind == LeafKind::Goal),
                    ExploreStats::default(),
                )
            }
            Disposition::Pruned(reason) => {
                let mut logical = ExploreStats::default();
                record_prune(&mut logical, reason);
                record_prune(&mut self.work, reason);
                return (0, 0, logical);
            }
            Disposition::Known(counts) => {
                self.work.memo_hits += 1;
                return counts;
            }
            Disposition::Expand(expansion) => expansion,
        };
        self.miss();
        if self.expiry.tick() {
            return (0, 0, ExploreStats::default());
        }
        let mut logical = ExploreStats {
            nodes_expanded: 1,
            ..ExploreStats::default()
        };
        self.work.nodes_expanded += 1;
        let mut total = 0u128;
        let mut goal = 0u128;
        let mut emitted = 0usize;
        let mut floor_skipped = 0usize;
        let status = expansion.status;
        for selection in expansion.selections(self.explorer.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
                logical.pruned_time += 1;
                self.work.pruned_time += 1;
                continue;
            }
            if !self.explorer.selection_allowed(&status, &selection) {
                continue;
            }
            emitted += 1;
            logical.edges_created += 1;
            self.work.edges_created += 1;
            let (t, g, l) = self.count_state(status.child(&selection));
            total += t;
            goal += g;
            logical.merge(&l);
            if self.expiry.fired() {
                return (total, goal, logical);
            }
        }
        if emitted == 0 && floor_skipped == 0 {
            // Every selection was vetoed by filters: a dead end.
            total = 1;
        }
        self.work.memo_evictions += self
            .table
            .put_count(status.state_key(), total, goal, logical);
        (total, goal, logical)
    }

    /// Enumerates the subtree below `state`, emitting collectible paths
    /// into `out` and caching fully-enumerated subtrees. `statuses` holds
    /// the materialized prefix from the run's root to `state`'s parent and
    /// `selections` the selections from the root to `state` (one more).
    #[allow(clippy::too_many_arguments)]
    fn collect_state(
        &mut self,
        state: impl Classifiable,
        statuses: &mut Vec<EnrollmentStatus>,
        selections: &mut Vec<CourseSet>,
        goal_only: bool,
        limit: usize,
        out: &mut Vec<Path>,
        hit_limit: &mut bool,
    ) -> CollectOutcome {
        let collectible = |kind: LeafKind| !goal_only || kind == LeafKind::Goal;
        let catalog = self.explorer.catalog();
        let table = self.table;
        let expansion = match self
            .explorer
            .disposition(state, self.pruner.as_ref(), |key| table.get_suffixes(key))
        {
            Disposition::Leaf(kind) => {
                if collectible(kind) {
                    if out.len() >= limit {
                        *hit_limit = true;
                        return CollectOutcome::Aborted;
                    }
                    out.push(splice_path(
                        catalog,
                        statuses,
                        selections,
                        state.materialize(catalog),
                        &[],
                    ));
                }
                return CollectOutcome::Complete {
                    total: 1,
                    goal: u128::from(kind == LeafKind::Goal),
                    logical: ExploreStats::default(),
                    suffixes: Some(vec![Suffix {
                        selections: Vec::new(),
                        kind,
                    }]),
                };
            }
            Disposition::Pruned(reason) => {
                let mut logical = ExploreStats::default();
                record_prune(&mut logical, reason);
                record_prune(&mut self.work, reason);
                return CollectOutcome::Complete {
                    total: 0,
                    goal: 0,
                    logical,
                    suffixes: Some(Vec::new()),
                };
            }
            Disposition::Known((cached, total, goal, logical)) => {
                self.work.memo_hits += 1;
                let mut here = None;
                for suffix in cached.iter() {
                    if !collectible(suffix.kind) {
                        continue;
                    }
                    if out.len() >= limit {
                        *hit_limit = true;
                        return CollectOutcome::Aborted;
                    }
                    let here = *here.get_or_insert_with(|| state.materialize(catalog));
                    out.push(splice_path(
                        catalog,
                        statuses,
                        selections,
                        here,
                        &suffix.selections,
                    ));
                }
                return CollectOutcome::Complete {
                    total,
                    goal,
                    logical,
                    suffixes: Some((*cached).clone()),
                };
            }
            Disposition::Expand(expansion) => expansion,
        };
        self.miss();
        if self.expiry.tick() {
            return CollectOutcome::Aborted;
        }
        let mut logical = ExploreStats {
            nodes_expanded: 1,
            ..ExploreStats::default()
        };
        self.work.nodes_expanded += 1;
        let mut total = 0u128;
        let mut goal = 0u128;
        let mut suffixes: Option<Vec<Suffix>> = Some(Vec::new());
        let mut emitted = 0usize;
        let mut floor_skipped = 0usize;
        let status = expansion.status;
        statuses.push(status);
        for selection in expansion.selections(self.explorer.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                floor_skipped += 1;
                logical.pruned_time += 1;
                self.work.pruned_time += 1;
                continue;
            }
            if !self.explorer.selection_allowed(&status, &selection) {
                continue;
            }
            emitted += 1;
            logical.edges_created += 1;
            self.work.edges_created += 1;
            selections.push(selection);
            let outcome = self.collect_state(
                status.child(&selection),
                statuses,
                selections,
                goal_only,
                limit,
                out,
                hit_limit,
            );
            selections.pop();
            match outcome {
                CollectOutcome::Aborted => {
                    statuses.pop();
                    return CollectOutcome::Aborted;
                }
                CollectOutcome::Complete {
                    total: t,
                    goal: g,
                    logical: l,
                    suffixes: subs,
                } => {
                    total += t;
                    goal += g;
                    logical.merge(&l);
                    suffixes = match (suffixes, subs) {
                        (Some(mut mine), Some(theirs))
                            if mine.len() + theirs.len() <= SUFFIX_CAP =>
                        {
                            for sub in theirs {
                                let mut sels = Vec::with_capacity(sub.selections.len() + 1);
                                sels.push(selection);
                                sels.extend(sub.selections);
                                mine.push(Suffix {
                                    selections: sels,
                                    kind: sub.kind,
                                });
                            }
                            Some(mine)
                        }
                        _ => None,
                    };
                }
            }
        }
        statuses.pop();
        if emitted == 0 && floor_skipped == 0 {
            // Every selection was vetoed: the node itself is a
            // dead-end path, emitted after the (empty) children.
            if collectible(LeafKind::DeadEnd) {
                if out.len() >= limit {
                    *hit_limit = true;
                    return CollectOutcome::Aborted;
                }
                out.push(splice_path(catalog, statuses, selections, status, &[]));
            }
            total = 1;
            suffixes = Some(vec![Suffix {
                selections: Vec::new(),
                kind: LeafKind::DeadEnd,
            }]);
        }
        let key = status.state_key();
        if let Some(suffixes) = &suffixes {
            self.work.memo_evictions +=
                self.table
                    .put_suffixes(key, Arc::new(suffixes.clone()), total, goal, logical);
        } else {
            // Too many suffixes to store, but the counts are
            // complete — warm the count map on the way out.
            self.work.memo_evictions += self.table.put_count(key, total, goal, logical);
        }
        CollectOutcome::Complete {
            total,
            goal,
            logical,
            suffixes,
        }
    }

    /// The top-`k` goal suffixes below `state` in best-first pop order,
    /// for a decomposable ranking fingerprinted by `sig`. `None` means
    /// the deadline expired mid-computation (the caller falls back to the
    /// un-memoized search).
    fn ranked_state(
        &mut self,
        state: impl Classifiable,
        sig: u64,
        k: usize,
    ) -> Option<Arc<Vec<RankedSuffix>>> {
        let table = self.table;
        let expansion = match self
            .explorer
            .disposition(state, self.pruner.as_ref(), |key| {
                table.get_ranked(key, sig, k)
            }) {
            Disposition::Leaf(LeafKind::Goal) => return Some(self.goal_leaf.clone()),
            Disposition::Leaf(_) => return Some(self.no_suffix.clone()),
            Disposition::Pruned(reason) => {
                record_prune(&mut self.work, reason);
                return Some(self.no_suffix.clone());
            }
            Disposition::Known(items) => {
                self.work.memo_hits += 1;
                return Some(items);
            }
            Disposition::Expand(expansion) => expansion,
        };
        self.miss();
        if self.expiry.tick() {
            return None;
        }
        self.work.nodes_expanded += 1;
        // Children with at least one goal suffix, in selection order:
        // the empty ones cannot contribute to the merge.
        let mut children: Vec<(CourseSet, Arc<Vec<RankedSuffix>>)> = Vec::new();
        let status = expansion.status;
        for selection in expansion.selections(self.explorer.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                self.work.pruned_time += 1;
                continue;
            }
            if !self.explorer.selection_allowed(&status, &selection) {
                continue;
            }
            self.work.edges_created += 1;
            let items = self.ranked_state(status.child(&selection), sig, k)?;
            if !items.is_empty() {
                children.push((selection, items));
            }
        }
        // Stable k-way merge in (suffix length, child index)
        // order: under a constant positive edge cost this is
        // exactly the best-first (cost, tree-rank) pop order
        // restricted to this subtree.
        let mut cursors: Vec<usize> = vec![0; children.len()];
        let mut merged: Vec<RankedSuffix> = Vec::new();
        while merged.len() < k {
            let mut best: Option<(usize, usize)> = None;
            for (i, (_, items)) in children.iter().enumerate() {
                if let Some(item) = items.get(cursors[i]) {
                    let len = item.selections.len();
                    let beats = match best {
                        None => true,
                        Some((best_len, _)) => len < best_len,
                    };
                    if beats {
                        best = Some((len, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let (selection, items) = &children[i];
            let sub = &items[cursors[i]];
            cursors[i] += 1;
            let mut sels = Vec::with_capacity(sub.selections.len() + 1);
            sels.push(*selection);
            sels.extend_from_slice(&sub.selections);
            merged.push(RankedSuffix { selections: sels });
        }
        let merged = Arc::new(merged);
        self.work.memo_evictions +=
            self.table
                .put_ranked(status.state_key(), sig, k, merged.clone());
        Some(merged)
    }
}

/// The path through the materialized prefix `statuses`, then `here`
/// (reached by `selections`, one more than `statuses`), then the
/// `suffix` selections replayed from `here`.
fn splice_path(
    catalog: &Catalog,
    statuses: &[EnrollmentStatus],
    selections: &[CourseSet],
    here: EnrollmentStatus,
    suffix: &[CourseSet],
) -> Path {
    let mut all_statuses = Vec::with_capacity(statuses.len() + 1 + suffix.len());
    all_statuses.extend_from_slice(statuses);
    all_statuses.push(here);
    let mut cur = here;
    for sel in suffix {
        cur = cur.advance(catalog, sel);
        all_statuses.push(cur);
    }
    let mut all_selections = Vec::with_capacity(selections.len() + suffix.len());
    all_selections.extend_from_slice(selections);
    all_selections.extend_from_slice(suffix);
    Path::new(all_statuses, all_selections)
}

impl<'c> Explorer<'c> {
    /// [`Explorer::count_paths`] through a transposition table: identical
    /// counts and *logical* statistics (the `PathCounts::stats` field),
    /// plus the run's *work* statistics — real expansions and the
    /// `memo_hits`/`memo_misses`/`memo_evictions` counters.
    pub fn count_paths_memo(&self, table: &TranspositionTable) -> (PathCounts, ExploreStats) {
        let (counts, work, _) = self.count_paths_memo_until(table, None);
        (counts, work)
    }

    /// [`Explorer::count_paths_memo`] under a wall-clock deadline. The
    /// boolean marks truncation: the counts are lower bounds and nothing
    /// partial was cached.
    pub(crate) fn count_paths_memo_until(
        &self,
        table: &TranspositionTable,
        deadline: Option<Instant>,
    ) -> (PathCounts, ExploreStats, bool) {
        let mut run = MemoRun::new(self, table, deadline);
        let (total, goal, logical) = run.count_state(*self.start());
        (
            PathCounts {
                total_paths: total,
                goal_paths: goal,
                stats: logical,
            },
            run.work,
            run.expiry.fired(),
        )
    }

    /// [`Explorer::count_paths_memo_until`] with the first-level subtrees
    /// dealt to `threads` workers that share `table`. Counts and logical
    /// stats merge in child order, so the result is byte-identical to the
    /// sequential memoized (and un-memoized) run.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub(crate) fn count_paths_parallel_memo_until(
        &self,
        threads: usize,
        deadline: Option<Instant>,
        table: &TranspositionTable,
    ) -> (PathCounts, ExploreStats, bool) {
        assert!(threads > 0, "need at least one worker thread");
        match self.expand_root() {
            RootExpansion::Leaf(kind) => (
                PathCounts {
                    total_paths: 1,
                    goal_paths: u128::from(kind == LeafKind::Goal),
                    stats: ExploreStats::default(),
                },
                ExploreStats::default(),
                false,
            ),
            RootExpansion::Pruned(stats) => (
                PathCounts {
                    total_paths: 0,
                    goal_paths: 0,
                    stats,
                },
                stats,
                false,
            ),
            RootExpansion::NoChildren { stats, dead_end } => (
                PathCounts {
                    total_paths: u128::from(dead_end),
                    goal_paths: 0,
                    stats,
                },
                stats,
                false,
            ),
            RootExpansion::Children {
                stats: root_stats,
                children,
            } => {
                let subs = self.deal_subtrees(children, threads, |_, (_, child)| {
                    let mut run = MemoRun::new(self, table, deadline);
                    let result = run.count_state(child);
                    (result, run.work, run.expiry.fired())
                });
                let mut out = PathCounts {
                    total_paths: 0,
                    goal_paths: 0,
                    stats: root_stats,
                };
                let mut work = root_stats;
                let mut truncated = false;
                for ((total, goal, logical), sub_work, sub_truncated) in subs {
                    out.total_paths += total;
                    out.goal_paths += goal;
                    out.stats.merge(&logical);
                    work.merge(&sub_work);
                    truncated |= sub_truncated;
                }
                (out, work, truncated)
            }
        }
    }

    /// Memoized path collection: up to `limit` paths (goal paths for
    /// goal-driven runs) in exact depth-first order, splicing cached
    /// suffix sets onto the prefix wherever the table already knows a
    /// subtree. The boolean marks truncation (more paths exist beyond
    /// `limit`, or `deadline` expired).
    pub(crate) fn collect_paths_memo_until(
        &self,
        table: &TranspositionTable,
        limit: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Path>, ExploreStats, bool) {
        let goal_only = self.goal().is_some();
        let mut run = MemoRun::new(self, table, deadline);
        let mut out = Vec::new();
        let mut hit_limit = false;
        let mut statuses: Vec<EnrollmentStatus> = Vec::new();
        let mut selections: Vec<CourseSet> = Vec::new();
        let outcome = run.collect_state(
            *self.start(),
            &mut statuses,
            &mut selections,
            goal_only,
            limit,
            &mut out,
            &mut hit_limit,
        );
        let truncated = matches!(outcome, CollectOutcome::Aborted) || run.expiry.fired();
        (out, run.work, truncated)
    }

    /// The memoized top-`k` under a *decomposable* ranking: identical to
    /// [`Explorer::top_k_until`] when it completes. Returns `Ok(None)`
    /// when the deadline expires mid-computation — nothing partial is
    /// cached and the caller should fall back to the un-memoized search.
    /// `sig` fingerprints the ranking (see [`ranking_signature`]).
    pub(crate) fn top_k_memo_until(
        &self,
        ranking: &dyn Ranking,
        sig: u64,
        k: usize,
        table: &TranspositionTable,
        deadline: Option<Instant>,
    ) -> Result<Option<(Vec<RankedPath>, ExploreStats)>, ExploreError> {
        if self.goal().is_none() {
            return Err(ExploreError::InvalidRequest(
                "top-k ranking requires a goal-driven exploration".into(),
            ));
        }
        debug_assert!(
            ranking.decomposable(),
            "memoized top-k requires a decomposable ranking"
        );
        if k == 0 {
            return Ok(Some((Vec::new(), ExploreStats::default())));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(None);
        }
        let mut run = MemoRun::new(self, table, deadline);
        let start = *self.start();
        let Some(items) = run.ranked_state(start, sig, k) else {
            return Ok(None);
        };
        // Under the constant-edge-cost contract every in-tree edge adds
        // the exact same f64, so replaying `cost += c` per suffix edge
        // reproduces the sequential left-to-right fold bit for bit.
        let c = ranking.edge_cost(self.catalog(), &start, &CourseSet::EMPTY);
        let paths: Vec<RankedPath> = items
            .iter()
            .map(|item| {
                let path = splice_path(self.catalog(), &[], &[], start, &item.selections);
                let mut cost = 0.0f64;
                for _ in 0..item.selections.len() {
                    cost += c;
                }
                RankedPath { path, cost }
            })
            .collect();
        Ok(Some((paths, run.work)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::eager::{self, Eager};
    use crate::goal::Goal;
    use crate::pruning::PruneConfig;
    use crate::ranking::TimeRanking;
    use crate::status::eligible_calls;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    fn synth() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    fn goal_explorer(synth: &SyntheticCatalog, semesters: i32) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::goal_driven(
            &synth.catalog,
            start,
            synth.start + semesters,
            2,
            Goal::degree(synth.degree.clone()),
        )
        .unwrap()
    }

    #[test]
    fn memoized_counts_match_and_expand_fewer_nodes() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let plain = e.count_paths();
        let table = TranspositionTable::new(1 << 16);
        let (cold, cold_work) = e.count_paths_memo(&table);
        assert_eq!(cold, plain, "cold memoized run is byte-identical");
        assert!(
            cold_work.nodes_expanded < plain.stats.nodes_expanded,
            "shared subtrees collapse even within one run: {} vs {}",
            cold_work.nodes_expanded,
            plain.stats.nodes_expanded
        );
        let (warm, warm_work) = e.count_paths_memo(&table);
        assert_eq!(warm, plain, "warm logical stats do not re-count");
        assert_eq!(warm_work.nodes_expanded, 0, "warm root answers instantly");
        assert!(warm_work.memo_hits >= 1);
    }

    #[test]
    fn parallel_memoized_counts_match_sequential() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let plain = e.count_paths();
        for threads in [1, 2, 4] {
            let table = TranspositionTable::new(1 << 16);
            let (counts, _, truncated) = e.count_paths_parallel_memo_until(threads, None, &table);
            assert_eq!(counts, plain, "threads={threads}");
            assert!(!truncated);
            // And again against the now-warm shared table.
            let (warm, _, _) = e.count_paths_parallel_memo_until(threads, None, &table);
            assert_eq!(warm, plain, "warm threads={threads}");
        }
    }

    #[test]
    fn memoized_collect_matches_plain_collect() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let plain = e.collect_goal_paths();
        let table = TranspositionTable::new(1 << 16);
        let (cold, _, cold_trunc) = e.collect_paths_memo_until(&table, usize::MAX, None);
        assert_eq!(cold, plain);
        assert!(!cold_trunc);
        let (warm, warm_work, warm_trunc) = e.collect_paths_memo_until(&table, usize::MAX, None);
        assert_eq!(warm, plain, "spliced suffixes reproduce the paths");
        assert!(!warm_trunc);
        assert!(warm_work.memo_hits > 0);
        // Truncation at a limit matches the sequential contract.
        if plain.len() > 1 {
            let (some, _, truncated) = e.collect_paths_memo_until(&table, plain.len() - 1, None);
            assert_eq!(some.len(), plain.len() - 1);
            assert_eq!(some[..], plain[..plain.len() - 1]);
            assert!(truncated);
        }
    }

    #[test]
    fn memoized_top_k_matches_best_first_search() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        for k in [1, 3, 10, 1000] {
            let (plain, _) = e.top_k_until(&TimeRanking, k, None).unwrap();
            let table = TranspositionTable::new(1 << 16);
            let sig = ranking_signature(&RankingSpec::Time);
            let (cold, _) = e
                .top_k_memo_until(&TimeRanking, sig, k, &table, None)
                .unwrap()
                .expect("no deadline, no fallback");
            assert_eq!(cold, plain, "cold k={k}");
            let (warm, _) = e
                .top_k_memo_until(&TimeRanking, sig, k, &table, None)
                .unwrap()
                .expect("no deadline, no fallback");
            assert_eq!(warm, plain, "warm k={k}");
        }
    }

    #[test]
    fn table_respects_its_capacity_and_counts_evictions() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let table = TranspositionTable::new(32);
        let (counts, work) = e.count_paths_memo(&table);
        assert_eq!(counts, e.count_paths(), "eviction never changes answers");
        assert!(table.len() <= table.capacity());
        let snap = table.snapshot();
        if snap.inserts > table.capacity() as u64 {
            assert!(snap.evictions > 0);
            assert_eq!(snap.evictions, work.memo_evictions);
        }
    }

    #[test]
    fn insert_gate_can_drop_every_store() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let table = TranspositionTable::new(1 << 16);
        table.set_insert_gate(Some(Arc::new(|| false)));
        let (counts, work) = e.count_paths_memo(&table);
        assert_eq!(counts, e.count_paths(), "dropped inserts cannot hurt");
        assert_eq!(table.len(), 0, "the gate swallowed every entry");
        assert_eq!(work.memo_hits, 0);
        table.set_insert_gate(None);
        let (again, _) = e.count_paths_memo(&table);
        assert_eq!(again, counts);
        assert!(!table.is_empty());
    }

    #[test]
    fn ranking_signatures_separate_specs() {
        let time = ranking_signature(&RankingSpec::Time);
        let work = ranking_signature(&RankingSpec::Workload);
        assert_ne!(time, work);
        // Canonically equal specs share a signature.
        let a = RankingSpec::Weighted(vec![(2.0, RankingSpec::Time)]);
        let b = RankingSpec::Weighted(vec![(1.0, RankingSpec::Time), (0.0, RankingSpec::Workload)]);
        assert_eq!(ranking_signature(&a), ranking_signature(&b));
    }

    #[test]
    fn exported_entries_rebuild_an_equivalent_table() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let plain = e.count_paths();
        let table = TranspositionTable::new(1 << 16);
        e.count_paths_memo(&table);
        e.collect_paths_memo_until(&table, usize::MAX, None);
        let sig = ranking_signature(&RankingSpec::Time);
        e.top_k_memo_until(&TimeRanking, sig, 5, &table, None)
            .unwrap()
            .expect("no deadline, no fallback");

        let exported = table.export_entries();
        assert_eq!(exported.len(), table.len(), "every entry exports");
        // Stamps were exported oldest-first, so a re-import preserves
        // relative recency; a fresh table warmed purely from the export
        // answers the root query without expanding a single node, with
        // logical stats (and therefore serialized responses) identical.
        let restored = TranspositionTable::new(1 << 16);
        assert_eq!(
            restored.import_entries(exported.clone()),
            table.len() as u64
        );
        let (counts, work) = e.count_paths_memo(&restored);
        assert_eq!(counts, plain, "restored answers are byte-identical");
        assert_eq!(work.nodes_expanded, 0, "zero re-expansion from restore");
        assert!(work.memo_hits >= 1);
        let (paths, _, _) = e.collect_paths_memo_until(&restored, usize::MAX, None);
        assert_eq!(paths, e.collect_goal_paths());
        let (ranked, _) = e
            .top_k_memo_until(&TimeRanking, sig, 5, &restored, None)
            .unwrap()
            .expect("no deadline, no fallback");
        let (plain_ranked, _) = e.top_k_until(&TimeRanking, 5, None).unwrap();
        assert_eq!(ranked, plain_ranked);
        // A second export round-trips to the same entry multiset.
        let mut again = restored.export_entries();
        let mut first = exported;
        let sort_key = |entry: &PortableEntry| format!("{entry:?}");
        again.sort_by_key(&sort_key);
        first.sort_by_key(&sort_key);
        assert_eq!(again, first);
    }

    /// The pinned work counters of one run: expansions, edges, both
    /// prune counters, memo hits and misses.
    fn work_counters(work: &ExploreStats) -> [u64; 6] {
        [
            work.nodes_expanded,
            work.edges_created,
            work.pruned_time,
            work.pruned_availability,
            work.memo_hits,
            work.memo_misses,
        ]
    }

    /// Golden work counters of cold memoized counts and top-k runs: how a
    /// state is classified may get cheaper, but which states expand,
    /// prune, hit or miss must not move. The table's own hit and miss
    /// counters agree with the run's.
    #[test]
    fn work_counters_are_golden() {
        let synth = synth();
        let goal = Goal::degree(synth.degree.clone());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        // (explorer, golden count counters, golden top-k counters).
        let runs = [
            (
                goal_explorer(&synth, 4),
                [49, 553, 15, 287, 27, 49],
                Some([49, 553, 15, 287, 27, 49]),
            ),
            (
                Explorer::goal_driven(&synth.catalog, start, synth.start + 5, 3, goal.clone())
                    .unwrap(),
                [630, 7208, 0, 0, 1396, 630],
                Some([630, 7208, 0, 0, 1396, 630]),
            ),
            (
                Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap(),
                [247, 1461, 0, 0, 180, 247],
                None,
            ),
            // Long enough to run out of options: dead ends, and strategic
            // floors with nothing left to take.
            (
                Explorer::deadline_driven(&synth.catalog, start, synth.start + 6, 3).unwrap(),
                [1439, 12023, 0, 0, 7699, 1439],
                None,
            ),
            (
                Explorer::goal_driven(&synth.catalog, start, synth.start + 6, 3, goal.clone())
                    .unwrap()
                    .with_prune(PruneConfig::time_only())
                    .with_strategic_selections(true),
                [886, 8435, 78, 0, 3499, 886],
                Some([886, 8435, 78, 0, 3499, 886]),
            ),
        ];
        for (e, count_golden, top_k_golden) in &runs {
            let needed = options_checks(e);
            let table = TranspositionTable::new(1 << 16);
            let before = eligible_calls();
            let (_, work) = e.count_paths_memo(&table);
            assert_eq!(work_counters(&work), *count_golden);
            // One options computation per expansion (the root arrives with
            // its own) and per check only the options can settle.
            assert_eq!(eligible_calls() - before, work.nodes_expanded - 1 + needed);
            let snap = table.snapshot();
            assert_eq!((snap.hits, snap.misses), (work.memo_hits, work.memo_misses));
            let Some(top_k_golden) = top_k_golden else {
                continue;
            };
            let table = TranspositionTable::new(1 << 16);
            let sig = ranking_signature(&RankingSpec::Time);
            let before = eligible_calls();
            let (paths, work) = e
                .top_k_memo_until(&TimeRanking, sig, 10, &table, None)
                .unwrap()
                .expect("no deadline, no fallback");
            assert_eq!(work_counters(&work), *top_k_golden);
            // The same, plus one per status the returned paths replay
            // below the root.
            let replayed: u64 = paths.iter().map(|ranked| ranked.path.len() as u64).sum();
            assert_eq!(
                eligible_calls() - before,
                work.nodes_expanded - 1 + needed + replayed
            );
            let snap = table.snapshot();
            assert_eq!((snap.hits, snap.misses), (work.memo_hits, work.memo_misses));
        }
    }

    /// Options computations a cold memoized run needs beyond its
    /// expansions, counted with the eager classifier: every edge into a
    /// state that only its options settle — a dead end, or a strategic
    /// floor with nothing to take — since such states are never stored.
    /// Expandable states expand once and hit afterwards.
    fn options_checks(e: &Explorer<'_>) -> u64 {
        fn walk(
            e: &Explorer<'_>,
            status: EnrollmentStatus,
            expanded: &mut std::collections::HashSet<StateKey>,
        ) -> u64 {
            match eager::disposition(e, &status) {
                (
                    Eager::Expand {
                        min_selection,
                        include_empty,
                        ..
                    },
                    _,
                ) => {
                    if !expanded.insert(status.state_key()) {
                        return 0;
                    }
                    eager::admitted(e, &status, min_selection, include_empty)
                        .into_iter()
                        .map(|sel| walk(e, status.advance(e.catalog(), &sel), expanded))
                        .sum()
                }
                (_, read_options) => u64::from(read_options),
            }
        }
        walk(e, *e.start(), &mut std::collections::HashSet::new())
    }

    #[test]
    fn clear_empties_the_table() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let table = TranspositionTable::new(1 << 16);
        e.count_paths_memo(&table);
        assert!(!table.is_empty());
        table.clear();
        assert!(table.is_empty());
    }
}
