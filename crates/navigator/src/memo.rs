//! Status-keyed subtree memoization: the transposition table that folds
//! the exploration tree into a DAG.
//!
//! Two selection orderings that reach the same enrollment status
//! `(completed, semester)` root *identical* subtrees — everything below a
//! node is a pure function of its [`EnrollmentStatus`] and the run
//! configuration (catalog, deadline, cap, goal, filters, wait policy,
//! pruning). It is a function of less than the whole status, too: of the
//! completed courses that are offered again before the deadline or named
//! in such a course's prerequisites, and of what the goal reads of the
//! rest. The [`TranspositionTable`] caches per-subtree results under that
//! projection, [`crate::Explorer`]'s table key, so states that differ only
//! in courses nothing below them reads are explored once per table
//! lifetime, the same shared-suffix canonicalization that makes BDDs
//! tractable. (Paths, cursors and the dedup views keep the full
//! [`EnrollmentStatus::state_key`].) Two result kinds are cached:
//!
//! - **counts** — `(total, goal)` path counts plus the subtree's
//!   *logical* [`ExploreStats`] delta, read and written by the depth-first
//!   walker ([`crate::PathStream`]) when it is handed a table. Always
//!   sound: a hit replays the cached counters, so warm and cold runs
//!   report byte-identical statistics (the §5.2 pruning breakdown is
//!   stable) while expanding strictly fewer nodes.
//! - **ranked suffix summaries** — the top-`k` goal suffixes below a
//!   status with their costs, in the best-first pop order, computed by
//!   this module's k-best recursion: each expanded status merges its
//!   children's summaries in (cost, child index) order, a child's suffix
//!   costing its edge plus its own cost. The search orders paths by
//!   (cost, tree rank), so the two agree tie for tie, and the merge's
//!   bottom-up sums equal the search's sums from the root whenever every
//!   path cost sums exactly in any order. That is the memo's contract
//!   ([`crate::RankingSpec::memoizable`]): the time ranking and its
//!   positive weighted forms on any catalog, and the workload ranking on
//!   a catalog whose workloads are whole multiples of one power of two
//!   ([`Catalog::workload_sums_exact`]; whole hours qualify). Zero-cost
//!   edges are fine: an ancestor's tree rank is a prefix of its
//!   descendants'. Every other ranking, and every catalog with inexact
//!   workloads (the synthetic generator's tenths), is answered by the
//!   un-memoized search, byte-identically.
//!
//!   A summary is keyed by state and ranking alone and holds the `k′` it
//!   was computed for: the first `k` items of a k′-best list are the
//!   k-best list, so it answers any top-`k` with `k ≤ k′`, and every `k`
//!   once complete (fewer items than `k′`). A larger `k` recomputes and
//!   replaces it; a smaller one never does.
//!
//! Collect output caches nothing: the walker emits its paths in order,
//! and the output limit bounds its work.
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
//! stats the memoized entry points ([`crate::Explorer::count_paths_memo`]
//! and the memoized top-k) return alongside (real expansions plus
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
use crate::path::{LeafKind, Path};
use crate::pruning::{record_prune, Pruner};
use crate::ranked::RankedPath;
use crate::ranking::Ranking;
use crate::request::RankingSpec;
use crate::stats::ExploreStats;
use crate::status::{Classifiable, EnrollmentStatus};
use crate::unique::{FxBuild, FxMap};

/// A subtree identity: semester index + a set of courses. The full key
/// ([`EnrollmentStatus::state_key`]) holds the whole completed set; a
/// transposition table's key ([`crate::Explorer`]'s table key) holds only
/// what the subtree can still read of it.
pub type StateKey = (i32, CourseSet);

/// Number of lock stripes. Sixteen keeps contention negligible for the
/// worker counts the parallel fan-out uses while staying cheap to scan.
const SHARD_COUNT: usize = 16;

/// Where a key's shard index starts in its 64-bit hash. The shard maps
/// are hashbrown tables, which take a bucket from the low bits and a tag
/// from the top seven (57–63); bits 52–55 feed neither, so keys that
/// share a shard still spread over its buckets.
const SHARD_SHIFT: u32 = 52;

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

/// One top-k candidate below a memoized status: a goal suffix and its
/// cost, summed bottom-up. A summary lists its suffixes in best-first pop
/// order, (cost, tree rank). The selections are a boxed slice: a `Vec`'s
/// capacity word would weigh as much as the cost, on every suffix of
/// every cached summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSuffix {
    /// The suffix's cost under the summary's ranking: its first edge's
    /// cost plus the rest's.
    pub cost: f64,
    /// The suffix's per-semester selections.
    pub selections: Box<[CourseSet]>,
}

#[derive(Clone)]
struct CountEntry {
    total: u128,
    goal: u128,
    logical: ExploreStats,
    stamp: u64,
}

#[derive(Clone)]
struct RankedEntry {
    /// The `k` the summary was computed for. Fewer items than `k` means
    /// the summary lists every goal suffix below its state.
    k: usize,
    items: Arc<Vec<RankedSuffix>>,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    count: FxMap<StateKey, CountEntry>,
    ranked: FxMap<(StateKey, u64), RankedEntry>,
}

impl Shard {
    fn len(&self) -> usize {
        self.count.len() + self.ranked.len()
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
            .chain(shard.ranked.values().map(|e| e.stamp))
            .collect();
        let quartile = stamps.len() / 4;
        let cut = *stamps.select_nth_unstable(quartile).1;
        let before = shard.len();
        shard.count.retain(|_, e| e.stamp > cut);
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

    /// The summary under `(key, sig)` if its first `k` items are the
    /// top-`k`: it was computed for at least `k`, or it is complete.
    pub(crate) fn get_ranked(
        &self,
        key: &StateKey,
        sig: u64,
        k: usize,
    ) -> Option<Arc<Vec<RankedSuffix>>> {
        let full = (*key, sig);
        let mut shard = self.shard_for(&full).lock().expect("shard lock poisoned");
        let entry = shard.ranked.get_mut(&full)?;
        if entry.k < k && entry.items.len() >= entry.k {
            return None;
        }
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
        let full = (key, sig);
        let mut shard = self.shard_for(&full).lock().expect("shard lock poisoned");
        // A summary computed for a larger k already answers this one.
        if shard.ranked.get(&full).is_some_and(|e| e.k > k) {
            return 0;
        }
        let evicted = self.evict_if_full(&mut shard);
        let stamp = self.stamp();
        shard.ranked.insert(full, RankedEntry { k, items, stamp });
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
            for ((key, sig), e) in &shard.ranked {
                stamped.push((
                    e.stamp,
                    PortableEntry::Ranked {
                        key: *key,
                        sig: *sig,
                        k: e.k as u64,
                        items: e.items.to_vec(),
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
                PortableEntry::Ranked { key, sig, k, items } => {
                    self.put_ranked(key, sig, k as usize, Arc::new(items));
                }
            }
            offered += 1;
        }
        offered
    }
}

/// One memo entry decoupled from the table's private internals — the unit
/// the serving layer's snapshot format serializes. Mirrors the two
/// cached result kinds (see the module docs).
#[derive(Debug, Clone, PartialEq)]
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
    /// A top-`k` summary under ranking signature `sig`; of two for one
    /// key and signature, an import keeps the larger `k`.
    Ranked {
        /// The memoized subtree's status key.
        key: StateKey,
        /// The ranking signature: a stable 64-bit fingerprint of the
        /// ranking spec's canonical form.
        sig: u64,
        /// The `k` the summary was computed for.
        k: u64,
        /// The candidate suffixes, best-first.
        items: Vec<RankedSuffix>,
    },
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
// The memoized k-best recursion
// ---------------------------------------------------------------------------

/// One memoized top-k run: counts are memoized by the depth-first walker
/// (`PathStream::with_table`), top-k summaries by this recursion.
struct MemoRun<'e, 'c, 't> {
    explorer: &'e Explorer<'c>,
    ranking: &'e dyn Ranking,
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
        ranking: &'e dyn Ranking,
        table: &'t TranspositionTable,
        deadline: Option<Instant>,
    ) -> MemoRun<'e, 'c, 't> {
        MemoRun {
            explorer,
            ranking,
            pruner: explorer.pruner(),
            table,
            expiry: Expiry::per_step(deadline),
            work: ExploreStats::default(),
            no_suffix: Arc::new(Vec::new()),
            goal_leaf: Arc::new(vec![RankedSuffix {
                cost: 0.0,
                selections: Box::default(),
            }]),
        }
    }

    /// Records a lookup that fell through to an expansion.
    fn miss(&mut self) {
        self.table.record_miss();
        self.work.memo_misses += 1;
    }

    /// The top-`k` goal suffixes below `state` in best-first pop order,
    /// under the run's ranking, fingerprinted by `sig`. `None` means the
    /// deadline expired mid-computation (the caller falls back to the
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
        // Children with at least one goal suffix, in selection order, with
        // their edge's cost: the empty ones cannot contribute to the merge.
        let mut children: Vec<(CourseSet, f64, Arc<Vec<RankedSuffix>>)> = Vec::new();
        let status = expansion.status;
        for selection in expansion.selections(self.explorer.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                self.work.pruned_time += 1;
                continue;
            }
            if !self.explorer.selection_allowed(&selection) {
                continue;
            }
            self.work.edges_created += 1;
            let items = self.ranked_state(status.child(&selection), sig, k)?;
            if !items.is_empty() {
                let edge = self
                    .ranking
                    .edge_cost(self.explorer.catalog(), &status, &selection);
                children.push((selection, edge, items));
            }
        }
        // Stable k-way merge in (cost, child index) order. Each child's
        // list is in (cost, tree rank) order and its edge adds one exact
        // amount to all of it, so this is the best-first (cost, tree rank)
        // pop order restricted to this subtree.
        let mut cursors: Vec<usize> = vec![0; children.len()];
        let mut merged: Vec<RankedSuffix> = Vec::new();
        while merged.len() < k {
            let mut best: Option<(f64, usize)> = None;
            for (i, (_, edge, items)) in children.iter().enumerate() {
                if let Some(item) = items.get(cursors[i]) {
                    let cost = edge + item.cost;
                    let beats = match best {
                        None => true,
                        Some((best_cost, _)) => cost < best_cost,
                    };
                    if beats {
                        best = Some((cost, i));
                    }
                }
            }
            let Some((cost, i)) = best else { break };
            let (selection, _, items) = &children[i];
            let sub = &items[cursors[i]];
            cursors[i] += 1;
            let mut selections = Vec::with_capacity(sub.selections.len() + 1);
            selections.push(*selection);
            selections.extend_from_slice(&sub.selections);
            merged.push(RankedSuffix {
                cost,
                selections: selections.into_boxed_slice(),
            });
        }
        let merged = Arc::new(merged);
        let key = self
            .explorer
            .table_key(status.semester(), status.completed());
        self.work.memo_evictions += self.table.put_ranked(key, sig, k, merged.clone());
        Some(merged)
    }
}

/// The path from `start` that replays the `suffix` selections.
fn splice_path(catalog: &Catalog, start: EnrollmentStatus, suffix: &[CourseSet]) -> Path {
    let mut statuses = Vec::with_capacity(1 + suffix.len());
    statuses.push(start);
    let mut cur = start;
    for sel in suffix {
        cur = cur.advance(catalog, sel);
        statuses.push(cur);
    }
    Path::new(statuses, suffix.to_vec())
}

impl<'c> Explorer<'c> {
    /// The memoized top-`k`: identical to [`Explorer::top_k_until`] when
    /// it completes, provided every path cost under `ranking` sums
    /// exactly in any order ([`RankingSpec::memoizable`]). Returns
    /// `Ok(None)` when the deadline expires mid-computation — nothing
    /// partial is cached and the caller should fall back to the
    /// un-memoized search. `sig` fingerprints the ranking (see
    /// [`ranking_signature`]).
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
        if k == 0 {
            return Ok(Some((Vec::new(), ExploreStats::default())));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(None);
        }
        let mut run = MemoRun::new(self, ranking, table, deadline);
        let start = *self.start();
        let Some(items) = run.ranked_state(start, sig, k) else {
            return Ok(None);
        };
        // Each path's cost is re-summed from the root, the search's own
        // left-to-right fold. The sums are exact, so it is the suffix's
        // bottom-up cost too.
        let paths: Vec<RankedPath> = items
            .iter()
            .take(k)
            .map(|item| {
                let path = splice_path(self.catalog(), start, &item.selections);
                let cost = path.statuses().iter().zip(path.selections()).fold(
                    0.0,
                    |cost, (from, selection)| {
                        cost + ranking.edge_cost(self.catalog(), from, selection)
                    },
                );
                debug_assert_eq!(cost, item.cost, "path costs must sum exactly");
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
    use crate::ranking::{TimeRanking, WorkloadRanking};
    use crate::status::eligible_calls;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, SyntheticCatalog, SyntheticConfig};

    fn synth() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    /// `synth()` with its workloads rounded to whole hours and every
    /// fourth course free, so the workload ranking's sums are exact and
    /// zero-cost edges and cost ties occur.
    fn whole_hours() -> SyntheticCatalog {
        let mut synth = synth();
        let catalog = &synth.catalog;
        let mut b = CatalogBuilder::new();
        for course in catalog.courses() {
            b.add_course(CourseSpec {
                code: course.code().clone(),
                title: course.title().to_string(),
                prereq: course
                    .prereq()
                    .map_atoms(&mut |id| catalog.course(*id).code().clone()),
                offered: course.offered().clone(),
                workload: if course.id().as_usize() % 4 == 0 {
                    0.0
                } else {
                    course.workload().round()
                },
            });
        }
        synth.catalog = b.build().unwrap();
        assert!(synth.catalog.workload_sums_exact());
        synth
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
            let (counts, truncated) = e.count_paths_parallel_until(threads, None, Some(&table));
            assert_eq!(counts, plain, "threads={threads}");
            assert!(!truncated);
            // And again against the now-warm shared table.
            let (warm, _) = e.count_paths_parallel_until(threads, None, Some(&table));
            assert_eq!(warm, plain, "warm threads={threads}");
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

    /// A memoized time top-`k` through `table`, checked against the
    /// table-free search; returns the run's work counters.
    fn checked_top_k(e: &Explorer<'_>, k: usize, table: &TranspositionTable) -> [u64; 6] {
        let sig = ranking_signature(&RankingSpec::Time);
        let (memo, work) = e
            .top_k_memo_until(&TimeRanking, sig, k, table, None)
            .unwrap()
            .expect("no deadline, no fallback");
        let (plain, _) = e.top_k_until(&TimeRanking, k, None).unwrap();
        assert_eq!(memo, plain, "k={k}");
        work_counters(&work)
    }

    /// Work counters of a top-k answered by one hit at the root.
    const ROOT_HIT: [u64; 6] = [0, 0, 0, 0, 1, 0];

    #[test]
    fn a_top_10_summary_answers_a_later_top_3() {
        let synth = synth();
        for semesters in [4, 5] {
            let e = goal_explorer(&synth, semesters);
            assert!(e.count_paths().goal_paths > 10);
            let table = TranspositionTable::new(1 << 16);
            checked_top_k(&e, 10, &table);
            assert_eq!(checked_top_k(&e, 3, &table), ROOT_HIT);
        }
    }

    #[test]
    fn a_top_3_summary_recomputes_a_top_10_then_answers_top_3() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        assert!(e.count_paths().goal_paths > 10);
        let table = TranspositionTable::new(1 << 16);
        checked_top_k(&e, 3, &table);
        let [expanded, .., misses] = checked_top_k(&e, 10, &table);
        assert!(expanded > 0 && misses > 0, "a top-3 cannot answer a top-10");
        assert_eq!(checked_top_k(&e, 3, &table), ROOT_HIT);
        assert_eq!(checked_top_k(&e, 10, &table), ROOT_HIT);
    }

    #[test]
    fn a_complete_summary_answers_every_k() {
        let synth = synth();
        let e = goal_explorer(&synth, 4);
        let goal_paths = e.count_paths().goal_paths as usize;
        let table = TranspositionTable::new(1 << 16);
        checked_top_k(&e, goal_paths + 1, &table);
        for k in [goal_paths + 2, 10 * goal_paths, 1, goal_paths] {
            assert_eq!(checked_top_k(&e, k, &table), ROOT_HIT, "k={k}");
        }
    }

    #[test]
    fn an_import_keeps_the_larger_k_summary() {
        let key = (3, CourseSet::EMPTY);
        let item = |cost: f64| RankedSuffix {
            cost,
            selections: Box::default(),
        };
        let entry = |k: u64| PortableEntry::Ranked {
            key,
            sig: 7,
            k,
            items: (0..k).map(|i| item(i as f64)).collect(),
        };
        for order in [[3, 10], [10, 3]] {
            let table = TranspositionTable::new(1 << 10);
            table.import_entries(order.map(entry));
            assert_eq!(table.export_entries(), vec![entry(10)], "{order:?}");
            let top_3 = table
                .get_ranked(&key, 7, 3)
                .expect("a top-10 answers a top-3");
            assert_eq!(top_3.len(), 10, "the whole summary, for the caller to cut");
            assert!(
                table.get_ranked(&key, 7, 11).is_none(),
                "a full top-10 is not complete"
            );
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
    fn memoized_workload_top_k_matches_best_first_search_on_whole_hours() {
        let synth = whole_hours();
        let sig = ranking_signature(&RankingSpec::Workload);
        for semesters in [4, 5] {
            let e = goal_explorer(&synth, semesters);
            let table = TranspositionTable::new(1 << 16);
            for k in [1, 3, 10, 1000] {
                let (plain, _) = e.top_k_until(&WorkloadRanking, k, None).unwrap();
                for pass in ["cold", "warm"] {
                    let (memo, _) = e
                        .top_k_memo_until(&WorkloadRanking, sig, k, &table, None)
                        .unwrap()
                        .expect("no deadline, no fallback");
                    assert_eq!(memo, plain, "{pass} k={k} semesters={semesters}");
                }
                if k == 10 {
                    let tied = plain.windows(2).any(|w| w[0].cost == w[1].cost);
                    assert!(tied, "whole hours tie: {semesters} semesters");
                }
            }
        }
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
                [44, 517, 15, 287, 32, 44],
                Some([44, 517, 15, 287, 32, 44]),
            ),
            (
                Explorer::goal_driven(&synth.catalog, start, synth.start + 5, 3, goal.clone())
                    .unwrap(),
                [630, 7208, 0, 0, 1396, 630],
                Some([630, 7208, 0, 0, 1396, 630]),
            ),
            (
                Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap(),
                [65, 573, 0, 0, 362, 65],
                None,
            ),
            // Long enough to run out of options: dead ends, and strategic
            // floors with nothing left to take.
            (
                Explorer::deadline_driven(&synth.catalog, start, synth.start + 6, 3).unwrap(),
                [1020, 9962, 0, 0, 8118, 1020],
                None,
            ),
            (
                Explorer::goal_driven(&synth.catalog, start, synth.start + 6, 3, goal.clone())
                    .unwrap()
                    .with_prune(PruneConfig::time_only())
                    .with_strategic_selections(true),
                [769, 7905, 62, 0, 3616, 769],
                Some([769, 7905, 62, 0, 3616, 769]),
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
            if let Some(top_k_golden) = top_k_golden {
                assert_top_k_work(e, &TimeRanking, &RankingSpec::Time, *top_k_golden);
            }
        }
        // The workload top-k, where whole hours let the memo serve it:
        // the same catalog shape, so the same work as the time top-k.
        let whole = whole_hours();
        for (e, golden) in [
            (goal_explorer(&whole, 4), [44, 517, 15, 287, 32, 44]),
            (
                Explorer::goal_driven(
                    &whole.catalog,
                    EnrollmentStatus::fresh(&whole.catalog, whole.start),
                    whole.start + 5,
                    3,
                    Goal::degree(whole.degree.clone()),
                )
                .unwrap(),
                [630, 7208, 0, 0, 1396, 630],
            ),
        ] {
            assert_top_k_work(&e, &WorkloadRanking, &RankingSpec::Workload, golden);
        }
    }

    /// Checks a cold memoized top-10's work counters against `golden`,
    /// its options computations against its expansions, and the table's
    /// hit and miss counters against the run's.
    fn assert_top_k_work(
        e: &Explorer<'_>,
        ranking: &dyn Ranking,
        spec: &RankingSpec,
        golden: [u64; 6],
    ) {
        let needed = options_checks(e);
        let table = TranspositionTable::new(1 << 16);
        let before = eligible_calls();
        let (paths, work) = e
            .top_k_memo_until(ranking, ranking_signature(spec), 10, &table, None)
            .unwrap()
            .expect("no deadline, no fallback");
        assert_eq!(work_counters(&work), golden, "{}", ranking.name());
        // One options computation per expansion (the root arrives with
        // its own), per check only the options can settle, and per status
        // the returned paths replay below the root.
        let replayed: u64 = paths.iter().map(|ranked| ranked.path.len() as u64).sum();
        assert_eq!(
            eligible_calls() - before,
            work.nodes_expanded - 1 + needed + replayed
        );
        let snap = table.snapshot();
        assert_eq!((snap.hits, snap.misses), (work.memo_hits, work.memo_misses));
    }

    /// Options computations a cold memoized run needs beyond its
    /// expansions, counted with the eager classifier: every edge into a
    /// state that only its options settle — a dead end, or a strategic
    /// floor with nothing to take — since such states are never stored.
    /// Expandable states expand once per table key and hit afterwards.
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
                    if !expanded.insert(e.table_key(status.semester(), status.completed())) {
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
