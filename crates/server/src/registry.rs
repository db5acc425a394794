//! The multi-tenant catalog registry: named catalogs with versioned
//! epochs, each owning its own serving partition.
//!
//! The paper evaluates one 38-course catalog; the ROADMAP's north star is
//! serving hundreds of institutions from one deployment. The registry is
//! that boundary: every named **tenant** holds a catalog at a monotonic
//! **epoch**, and every piece of derived serving state — the response
//! cache, the memo tables, and (via the `tenant@epoch` scope string)
//! session tokens and singleflight keys — is partitioned by `(tenant,
//! epoch)`.
//!
//! Partitioning is *structural*, not key-prefixed: each tenant owns its
//! own [`ResponseCache`] and [`MemoRegistry`] instance. Swapping a
//! tenant's catalog replaces its whole partition atomically (one pointer
//! store under the write lock) and cannot disturb any other tenant's warm
//! state, because there is no shared map to invalidate. In-flight
//! requests finish against the partition they resolved; the old epoch's
//! caches die with their last reference.
//!
//! Counter continuity across swaps follows the [`crate::memo`] `Retired`
//! pattern: a replaced partition's lifetime counters fold into the
//! tenant's retired totals, so `/metrics` never goes backwards.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use coursenav_navigator::{InsertGate, UniqueTable, UniqueTableStats};
use coursenav_registrar::RegistrarData;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheStats, ResponseCache};
use crate::memo::{MemoRegistry, MemoRegistrySnapshot};

/// The tenant every request without a `tenant` field or `x-tenant` header
/// resolves to. A single-catalog deployment only ever touches this one,
/// which is what keeps its behaviour identical to the pre-registry server.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name.
const MAX_NAME_LEN: usize = 64;

/// Why a registry operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No tenant registered under that name.
    UnknownTenant {
        /// The name that did not resolve.
        name: String,
    },
    /// The tenant name is not registrable (empty, too long, or containing
    /// characters outside `[A-Za-z0-9._-]`).
    InvalidName {
        /// What was wrong with it.
        reason: &'static str,
    },
    /// Registering a *new* tenant would exceed the configured cap.
    /// Swapping an existing tenant never hits this.
    Full {
        /// The configured tenant cap.
        max_tenants: usize,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownTenant { name } => {
                write!(f, "no tenant named {name:?} is registered")
            }
            RegistryError::InvalidName { reason } => write!(f, "invalid tenant name: {reason}"),
            RegistryError::Full { max_tenants } => {
                write!(f, "tenant limit of {max_tenants} reached")
            }
        }
    }
}

/// Why a snapshot's tenant partition was refused by
/// [`CatalogRegistry::restore_partition`]. Refusal is always whole-tenant:
/// a partition is adopted completely or not at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreRefusal {
    /// The snapshot names a tenant this registry does not serve.
    UnknownTenant,
    /// The registered catalog's fingerprint differs from the one the
    /// snapshot state was computed against.
    FingerprintMismatch,
    /// The registry already serves a *newer* epoch than the snapshot
    /// captured — the snapshot is stale.
    StaleEpoch {
        /// The epoch currently serving.
        current: u64,
        /// The epoch the snapshot captured.
        snapshot: u64,
    },
}

impl fmt::Display for RestoreRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreRefusal::UnknownTenant => write!(f, "tenant is not registered"),
            RestoreRefusal::FingerprintMismatch => {
                write!(f, "catalog fingerprint does not match")
            }
            RestoreRefusal::StaleEpoch { current, snapshot } => write!(
                f,
                "snapshot epoch {snapshot} is older than serving epoch {current}"
            ),
        }
    }
}

/// A tenant partition's hash-consed path-DAG store: the [`UniqueTable`]
/// that `/v1/whatif` builds base DAGs into and applies deltas against.
///
/// The table is held behind an `Arc` swap, never cleared in place — a
/// request that resolved the old table finishes against it (its node ids
/// stay valid), exactly as in-flight requests finish against a replaced
/// catalog partition. Retiring folds the old table's lifetime counters
/// into the store's retired totals so `/metrics` never goes backwards.
pub struct DagStore {
    capacity: usize,
    table: RwLock<Arc<UniqueTable>>,
    retired: Mutex<UniqueTableStats>,
    tables_retired: AtomicU64,
}

impl DagStore {
    fn new(capacity: usize) -> DagStore {
        DagStore {
            capacity,
            table: RwLock::new(Arc::new(UniqueTable::new(capacity))),
            retired: Mutex::new(UniqueTableStats::default()),
            tables_retired: AtomicU64::new(0),
        }
    }

    /// The live table, cloned out for the duration of one request.
    pub fn table(&self) -> Arc<UniqueTable> {
        Arc::clone(&self.table.read())
    }

    /// Swaps in a fresh empty table and folds the old one's counters into
    /// the retired totals. Invalidation and capacity overflow both land
    /// here: the retry a typed `413 state-budget` invites starts against
    /// an empty table.
    pub fn retire(&self) {
        let fresh = Arc::new(UniqueTable::new(self.capacity));
        let old = std::mem::replace(&mut *self.table.write(), fresh);
        self.fold_retired(&old);
    }

    /// Retires `used` if it reached the store's node cap and is still the
    /// live table. A build's own budget bounds that build only; this keeps
    /// a table that many successful builds filled from growing past the
    /// cap. A table another request already retired is left alone, so two
    /// requests finishing on the same full table retire it once.
    pub fn retire_if_full(&self, used: &Arc<UniqueTable>) {
        if !used.is_full() {
            return;
        }
        let mut live = self.table.write();
        if !Arc::ptr_eq(&live, used) {
            return;
        }
        let old = std::mem::replace(&mut *live, Arc::new(UniqueTable::new(self.capacity)));
        drop(live);
        self.fold_retired(&old);
    }

    fn fold_retired(&self, old: &UniqueTable) {
        let mut stats = old.snapshot();
        // Resident nodes, their edges and roots die with the table; only
        // the lifetime counters carry forward.
        stats.nodes = 0;
        stats.edges = 0;
        stats.edge_bytes = 0;
        stats.roots = 0;
        self.retired.lock().merge(&stats);
        self.tables_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Live counters with every retired table's folded in — the
    /// `unique-table` block of `/v1/metrics`.
    pub fn snapshot(&self) -> DagStoreSnapshot {
        let mut stats = *self.retired.lock();
        stats.merge(&self.table.read().snapshot());
        let mut snap = DagStoreSnapshot {
            capacity: self.capacity as u64,
            nodes: stats.nodes,
            edges: stats.edges,
            edge_bytes: stats.edge_bytes,
            roots: stats.roots,
            hash_cons_hits: stats.hash_cons_hits,
            interned: stats.interned,
            hash_cons_hit_rate: 0.0,
            apply_hits: stats.apply_hits,
            apply_misses: stats.apply_misses,
            root_hits: stats.root_hits,
            root_misses: stats.root_misses,
            tables_retired: self.tables_retired.load(Ordering::Relaxed),
        };
        snap.recompute_rate();
        snap
    }
}

/// A [`DagStore`]'s counters as `/v1/metrics` serializes them, both as
/// the top-level `unique-table` aggregate and per tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct DagStoreSnapshot {
    /// Configured per-table node cap (0 = unlimited).
    pub capacity: u64,
    /// Nodes resident in live tables.
    pub nodes: u64,
    /// Edges of the resident interior nodes.
    pub edges: u64,
    /// Bytes of those nodes' packed edge storage (alphabets, masks and
    /// children).
    pub edge_bytes: u64,
    /// Cached exploration roots in live tables.
    pub roots: u64,
    /// Intern requests answered by an existing node.
    pub hash_cons_hits: u64,
    /// Nodes actually created (intern misses).
    pub interned: u64,
    /// `hash_cons_hits / (hash_cons_hits + interned)`, in `[0, 1]`.
    pub hash_cons_hit_rate: f64,
    /// Apply operations answered from the pair-keyed apply cache.
    pub apply_hits: u64,
    /// Apply operations computed and cached.
    pub apply_misses: u64,
    /// What-ifs that reused an already-built base DAG.
    pub root_hits: u64,
    /// What-ifs that had to build their base DAG.
    pub root_misses: u64,
    /// Tables retired by invalidation or capacity overflow.
    pub tables_retired: u64,
}

impl DagStoreSnapshot {
    fn recompute_rate(&mut self) {
        let total = self.hash_cons_hits + self.interned;
        self.hash_cons_hit_rate = if total == 0 {
            0.0
        } else {
            self.hash_cons_hits as f64 / total as f64
        };
    }
}

/// One `(tenant, epoch)` serving partition: the catalog data plus the
/// caches derived from it. Immutable once published; a swap builds a new
/// one.
pub struct Tenant {
    name: String,
    epoch: u64,
    data: Arc<RegistrarData>,
    cache: ResponseCache,
    memo: MemoRegistry,
    dag: DagStore,
}

impl Tenant {
    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition's epoch: 1 on first registration, +1 per swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The registrar data this partition serves.
    pub fn data(&self) -> &Arc<RegistrarData> {
        &self.data
    }

    /// The partition's response cache.
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// The partition's memo-table registry.
    pub fn memo(&self) -> &MemoRegistry {
        &self.memo
    }

    /// The partition's hash-consed path-DAG store (`/v1/whatif`).
    pub fn dag(&self) -> &DagStore {
        &self.dag
    }

    /// The scope string (`tenant@epoch`) that partitions the keyspaces
    /// which *cannot* be split structurally: session tokens and
    /// singleflight coalescing keys. A scope minted against one epoch can
    /// never match another.
    pub fn scope(&self) -> String {
        format!("{}@{}", self.name, self.epoch)
    }
}

/// What [`CatalogRegistry::register`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// The epoch now serving.
    pub epoch: u64,
    /// `true` when an existing tenant was swapped (vs first registration).
    pub swapped: bool,
    /// Cached responses retired with the replaced partition.
    pub dropped_entries: u64,
}

/// One row of `GET /v1/catalogs`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct TenantInfo {
    /// Tenant name.
    pub name: String,
    /// Serving epoch.
    pub epoch: u64,
    /// Catalog swaps since first registration.
    pub swaps: u64,
    /// Courses in the serving catalog.
    pub courses: u64,
}

/// Per-tenant serving counters, as the `tenants` block of `/v1/metrics`
/// serializes them. Cache and memo counters fold the tenant's retired
/// epochs in, so they are monotonic across swaps.
#[derive(Debug, Clone, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Serving epoch.
    pub epoch: u64,
    /// Catalog swaps since first registration.
    pub swaps: u64,
    /// Response-cache counters (live partition + retired epochs).
    pub cache: CacheStats,
    /// Memo-table counters (live partition + retired epochs).
    pub memo: MemoRegistrySnapshot,
    /// Hash-consed path-DAG counters (live partition + retired epochs).
    pub unique_table: DagStoreSnapshot,
}

/// A tenant's registry slot: the live partition plus the counters its
/// retired epochs left behind.
struct Slot {
    current: Arc<Tenant>,
    swaps: u64,
    retired_cache: CacheStats,
    retired_memo: MemoRegistrySnapshot,
    retired_dag: DagStoreSnapshot,
}

/// The registry itself. One per server; shared behind the server's
/// `AppState`.
pub struct CatalogRegistry {
    tenants: RwLock<HashMap<String, Slot>>,
    /// Per-partition response-cache byte budget.
    cache_bytes: usize,
    /// Per-partition memo entries-per-table cap.
    memo_entries: usize,
    /// Per-partition node cap on the hash-consed path-DAG table.
    dag_nodes: usize,
    /// Registered-tenant cap (swaps of existing tenants are exempt).
    max_tenants: usize,
    /// Insert gate cloned into every partition's memo registry (chaos
    /// builds route fault injection through it).
    gate: Option<InsertGate>,
    /// `POST /v1/catalogs/{tenant}/invalidate` calls served.
    tenant_invalidations: AtomicU64,
    /// Deprecated global `POST /v1/cache/invalidate` calls served.
    global_invalidations: AtomicU64,
}

impl CatalogRegistry {
    /// A registry serving `default_data` as the [`DEFAULT_TENANT`] at
    /// epoch 1. Every partition created later inherits the same cache
    /// budget, memo cap, and insert gate.
    pub fn new(
        default_data: RegistrarData,
        cache_bytes: usize,
        memo_entries: usize,
        dag_nodes: usize,
        max_tenants: usize,
        gate: Option<InsertGate>,
    ) -> CatalogRegistry {
        let registry = CatalogRegistry {
            tenants: RwLock::new(HashMap::new()),
            cache_bytes,
            memo_entries,
            dag_nodes,
            max_tenants: max_tenants.max(1),
            gate,
            tenant_invalidations: AtomicU64::new(0),
            global_invalidations: AtomicU64::new(0),
        };
        let partition = registry.partition(DEFAULT_TENANT, 1, default_data);
        registry.tenants.write().insert(
            DEFAULT_TENANT.to_string(),
            Slot {
                current: partition,
                swaps: 0,
                retired_cache: CacheStats::default(),
                retired_memo: MemoRegistrySnapshot::default(),
                retired_dag: DagStoreSnapshot::default(),
            },
        );
        registry
    }

    /// Builds a fresh partition (empty cache, empty memo registry).
    fn partition(&self, name: &str, epoch: u64, data: RegistrarData) -> Arc<Tenant> {
        let mut memo = MemoRegistry::new(self.memo_entries);
        if let Some(gate) = &self.gate {
            memo.set_insert_gate(Arc::clone(gate));
        }
        Arc::new(Tenant {
            name: name.to_string(),
            epoch,
            data: Arc::new(data),
            cache: ResponseCache::new(self.cache_bytes),
            memo,
            dag: DagStore::new(self.dag_nodes),
        })
    }

    /// Checks a tenant name against the registrable alphabet.
    pub fn validate_name(name: &str) -> Result<(), RegistryError> {
        if name.is_empty() {
            return Err(RegistryError::InvalidName {
                reason: "name is empty",
            });
        }
        if name.len() > MAX_NAME_LEN {
            return Err(RegistryError::InvalidName {
                reason: "name exceeds 64 bytes",
            });
        }
        if !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err(RegistryError::InvalidName {
                reason: "name may only contain ASCII letters, digits, '.', '-', '_'",
            });
        }
        Ok(())
    }

    /// The tenant's live partition, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .get(name)
            .map(|s| Arc::clone(&s.current))
    }

    /// Registers `data` under `name`: first registration serves at epoch
    /// 1; an existing tenant is *hot-swapped* to a fresh partition at
    /// epoch+1. The swap is one pointer store under the write lock — no
    /// other tenant's partition is touched, requests already holding the
    /// old partition finish against it, and its lifetime counters fold
    /// into the tenant's retired totals.
    pub fn register(&self, name: &str, data: RegistrarData) -> Result<Registered, RegistryError> {
        Self::validate_name(name)?;
        // Build the partition outside the lock; swap-in is then O(1).
        let mut tenants = self.tenants.write();
        match tenants.get_mut(name) {
            Some(slot) => {
                let epoch = slot.current.epoch + 1;
                let next = self.partition(name, epoch, data);
                let old = std::mem::replace(&mut slot.current, next);
                slot.swaps += 1;
                let old_cache = old.cache.stats();
                let old_memo = old.memo.snapshot();
                let dropped = old_cache.entries;
                fold_cache(&mut slot.retired_cache, &old_cache, true);
                fold_memo(&mut slot.retired_memo, &old_memo, true);
                fold_dag(&mut slot.retired_dag, &old.dag.snapshot(), true);
                Ok(Registered {
                    epoch,
                    swapped: true,
                    dropped_entries: dropped,
                })
            }
            None => {
                if tenants.len() >= self.max_tenants {
                    return Err(RegistryError::Full {
                        max_tenants: self.max_tenants,
                    });
                }
                let partition = self.partition(name, 1, data);
                tenants.insert(
                    name.to_string(),
                    Slot {
                        current: partition,
                        swaps: 0,
                        retired_cache: CacheStats::default(),
                        retired_memo: MemoRegistrySnapshot::default(),
                        retired_dag: DagStoreSnapshot::default(),
                    },
                );
                Ok(Registered {
                    epoch: 1,
                    swapped: false,
                    dropped_entries: 0,
                })
            }
        }
    }

    /// Drops one tenant's cached responses and memo tables without
    /// bumping its epoch (outstanding cursors stay resumable — the
    /// catalog itself did not change). Returns the cached responses
    /// dropped.
    pub fn invalidate_tenant(&self, name: &str) -> Result<u64, RegistryError> {
        let partition = self.get(name).ok_or_else(|| RegistryError::UnknownTenant {
            name: name.to_string(),
        })?;
        self.tenant_invalidations.fetch_add(1, Ordering::Relaxed);
        partition.memo.invalidate_all();
        partition.dag.retire();
        Ok(partition.cache.invalidate_all())
    }

    /// The deprecated global flush: every tenant's cache and memo tables,
    /// in one sweep. Returns the cached responses dropped.
    pub fn invalidate_all_tenants(&self) -> u64 {
        self.global_invalidations.fetch_add(1, Ordering::Relaxed);
        let partitions: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .values()
            .map(|s| Arc::clone(&s.current))
            .collect();
        let mut dropped = 0;
        for partition in partitions {
            partition.memo.invalidate_all();
            partition.dag.retire();
            dropped += partition.cache.invalidate_all();
        }
        dropped
    }

    /// Registered tenants, sorted by name (`GET /v1/catalogs`).
    pub fn list(&self) -> Vec<TenantInfo> {
        let mut rows: Vec<TenantInfo> = self
            .tenants
            .read()
            .values()
            .map(|slot| TenantInfo {
                name: slot.current.name.clone(),
                epoch: slot.current.epoch,
                swaps: slot.swaps,
                courses: slot.current.data.catalog.len() as u64,
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Per-tenant counter breakdowns, sorted by name (the `tenants` block
    /// of `/v1/metrics`).
    pub fn tenants_snapshot(&self) -> Vec<TenantSnapshot> {
        let mut rows: Vec<TenantSnapshot> = self
            .tenants
            .read()
            .values()
            .map(|slot| {
                let mut cache = slot.retired_cache;
                fold_cache(&mut cache, &slot.current.cache.stats(), false);
                let mut memo = slot.retired_memo;
                fold_memo(&mut memo, &slot.current.memo.snapshot(), false);
                let mut unique_table = slot.retired_dag;
                fold_dag(&mut unique_table, &slot.current.dag.snapshot(), false);
                TenantSnapshot {
                    name: slot.current.name.clone(),
                    epoch: slot.current.epoch,
                    swaps: slot.swaps,
                    cache,
                    memo,
                    unique_table,
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Whole-server cache and memo totals (live partitions + every
    /// retired epoch) — the top-level `cache` and `memo` blocks of
    /// `/v1/metrics`, kept monotonic across swaps.
    pub fn aggregate(&self) -> (CacheStats, MemoRegistrySnapshot) {
        let mut cache = CacheStats::default();
        let mut memo = MemoRegistrySnapshot::default();
        for slot in self.tenants.read().values() {
            fold_cache(&mut cache, &slot.retired_cache, false);
            fold_cache(&mut cache, &slot.current.cache.stats(), false);
            fold_memo(&mut memo, &slot.retired_memo, false);
            fold_memo(&mut memo, &slot.current.memo.snapshot(), false);
            memo.enabled = memo.enabled || slot.current.memo.snapshot().enabled;
        }
        (cache, memo)
    }

    /// Whole-server hash-consed path-DAG totals (live partitions + every
    /// retired epoch and table) — the top-level `unique-table` block of
    /// `/v1/metrics`.
    pub fn aggregate_dag(&self) -> DagStoreSnapshot {
        let mut dag = DagStoreSnapshot::default();
        for slot in self.tenants.read().values() {
            fold_dag(&mut dag, &slot.retired_dag, false);
            fold_dag(&mut dag, &slot.current.dag.snapshot(), false);
        }
        dag.recompute_rate();
        dag
    }

    /// Every live partition, name-sorted — what the background
    /// snapshotter walks when serializing warm state.
    pub fn partitions(&self) -> Vec<Arc<Tenant>> {
        let mut rows: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .values()
            .map(|slot| Arc::clone(&slot.current))
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Accepts or refuses a snapshot's `(epoch, fingerprint)` claim for
    /// `name`, returning the partition restored state should be imported
    /// into. The decision is whole-tenant — nothing is half-loaded:
    ///
    /// - the tenant must be registered and its catalog's
    ///   [`catalog_fingerprint`](crate::snapshot::catalog_fingerprint)
    ///   must match the snapshot's (memo entries only mean something under
    ///   the catalog that minted them);
    /// - a serving epoch **equal** to the snapshot's reuses the live
    ///   partition;
    /// - a serving epoch **older** (a restart re-registered at epoch 1
    ///   while the snapshot saw later swaps) fast-forwards: a fresh
    ///   partition at the snapshot's epoch swaps in, so restored session
    ///   scopes (`tenant@epoch`) resume correctly. The fast-forward is not
    ///   counted as a catalog swap — the catalog did not change;
    /// - a serving epoch **newer** refuses the snapshot as stale.
    pub fn restore_partition(
        &self,
        name: &str,
        epoch: u64,
        fingerprint: u64,
    ) -> Result<Arc<Tenant>, RestoreRefusal> {
        let mut tenants = self.tenants.write();
        let slot = tenants.get_mut(name).ok_or(RestoreRefusal::UnknownTenant)?;
        if crate::snapshot::catalog_fingerprint(&slot.current.data) != fingerprint {
            return Err(RestoreRefusal::FingerprintMismatch);
        }
        let current = slot.current.epoch;
        if current == epoch {
            return Ok(Arc::clone(&slot.current));
        }
        if current > epoch {
            return Err(RestoreRefusal::StaleEpoch {
                current,
                snapshot: epoch,
            });
        }
        let data = (*slot.current.data).clone();
        let next = self.partition(name, epoch, data);
        let old = std::mem::replace(&mut slot.current, next);
        fold_cache(&mut slot.retired_cache, &old.cache.stats(), true);
        fold_memo(&mut slot.retired_memo, &old.memo.snapshot(), true);
        fold_dag(&mut slot.retired_dag, &old.dag.snapshot(), true);
        Ok(Arc::clone(&slot.current))
    }

    /// `POST /v1/catalogs/{tenant}/invalidate` calls served.
    pub fn tenant_invalidations(&self) -> u64 {
        self.tenant_invalidations.load(Ordering::Relaxed)
    }

    /// Deprecated global `POST /v1/cache/invalidate` calls served.
    pub fn global_invalidations(&self) -> u64 {
        self.global_invalidations.load(Ordering::Relaxed)
    }
}

/// Adds `b`'s counters into `a`. With `retire`, resident gauges (entries,
/// bytes) convert into invalidations — the partition they described is
/// gone — instead of summing.
fn fold_cache(a: &mut CacheStats, b: &CacheStats, retire: bool) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.evictions += b.evictions;
    a.invalidations += b.invalidations;
    if retire {
        a.invalidations += b.entries;
    } else {
        a.entries += b.entries;
        a.bytes += b.bytes;
    }
}

/// Adds `b`'s counters into `a`, mirroring [`fold_cache`] for the DAG
/// side: on retirement, the partition's live table counts as retired and
/// its resident gauges vanish with it. The derived hit-rate is
/// recomputed after the fold.
fn fold_dag(a: &mut DagStoreSnapshot, b: &DagStoreSnapshot, retire: bool) {
    a.hash_cons_hits += b.hash_cons_hits;
    a.interned += b.interned;
    a.apply_hits += b.apply_hits;
    a.apply_misses += b.apply_misses;
    a.root_hits += b.root_hits;
    a.root_misses += b.root_misses;
    a.tables_retired += b.tables_retired;
    if retire {
        a.tables_retired += 1;
    } else {
        a.capacity += b.capacity;
        a.nodes += b.nodes;
        a.edges += b.edges;
        a.edge_bytes += b.edge_bytes;
        a.roots += b.roots;
    }
    a.recompute_rate();
}

/// Adds `b`'s counters into `a`, mirroring [`fold_cache`] for the memo
/// side: on retirement, resident tables count as dropped.
fn fold_memo(a: &mut MemoRegistrySnapshot, b: &MemoRegistrySnapshot, retire: bool) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.evictions += b.evictions;
    a.inserts += b.inserts;
    a.tables_dropped += b.tables_dropped;
    if retire {
        a.tables_dropped += b.tables;
    } else {
        a.tables += b.tables;
        a.entries += b.entries;
        a.capacity += b.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_registrar::brandeis_cs;

    fn registry(max: usize) -> CatalogRegistry {
        CatalogRegistry::new(brandeis_cs(), 1 << 20, 1 << 10, 1 << 16, max, None)
    }

    #[test]
    fn default_tenant_serves_at_epoch_one() {
        let r = registry(8);
        let t = r.get(DEFAULT_TENANT).expect("default registered");
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.scope(), "default@1");
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn swapping_bumps_the_epoch_and_replaces_the_partition() {
        let r = registry(8);
        let before = r.get(DEFAULT_TENANT).unwrap();
        before.cache().put("k", b"v");
        let outcome = r.register(DEFAULT_TENANT, brandeis_cs()).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert!(outcome.swapped);
        assert_eq!(outcome.dropped_entries, 1);
        let after = r.get(DEFAULT_TENANT).unwrap();
        assert_eq!(after.scope(), "default@2");
        assert!(after.cache().get("k").is_none(), "fresh partition");
        // The old partition still answers for requests that resolved it
        // before the swap.
        assert!(before.cache().get("k").is_some());
    }

    #[test]
    fn swapping_one_tenant_leaves_others_warm() {
        let r = registry(8);
        r.register("a", brandeis_cs()).unwrap();
        r.register("b", brandeis_cs()).unwrap();
        r.get("b").unwrap().cache().put("warm", b"x");
        r.register("a", brandeis_cs()).unwrap();
        assert!(r.get("b").unwrap().cache().get("warm").is_some());
        assert_eq!(r.get("b").unwrap().epoch(), 1);
        assert_eq!(r.get("a").unwrap().epoch(), 2);
    }

    #[test]
    fn retired_counters_keep_aggregates_monotonic() {
        let r = registry(8);
        let t = r.get(DEFAULT_TENANT).unwrap();
        t.cache().put("k", b"v");
        assert!(t.cache().get("k").is_some());
        let (before, _) = r.aggregate();
        r.register(DEFAULT_TENANT, brandeis_cs()).unwrap();
        let (after, _) = r.aggregate();
        assert!(after.hits >= before.hits);
        assert!(
            after.invalidations > before.invalidations,
            "retired entries count"
        );
        assert_eq!(after.entries, 0, "fresh partition is empty");
        let rows = r.tenants_snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].swaps, 1);
        assert!(
            rows[0].cache.hits >= 1,
            "per-tenant counters survive the swap"
        );
    }

    #[test]
    fn tenant_cap_rejects_new_names_but_not_swaps() {
        let r = registry(2); // default + 1
        r.register("a", brandeis_cs()).unwrap();
        assert_eq!(
            r.register("b", brandeis_cs()),
            Err(RegistryError::Full { max_tenants: 2 })
        );
        assert!(r.register("a", brandeis_cs()).is_ok(), "swaps are exempt");
    }

    #[test]
    fn names_are_validated() {
        let r = registry(8);
        for bad in ["", "has space", "semi;colon", "a/b", &"x".repeat(65)] {
            assert!(
                matches!(
                    r.register(bad, brandeis_cs()),
                    Err(RegistryError::InvalidName { .. })
                ),
                "{bad:?}"
            );
        }
        for good in ["D07", "brandeis", "a.b-c_d", "X"] {
            assert!(r.register(good, brandeis_cs()).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn invalidation_flushes_without_an_epoch_bump() {
        let r = registry(8);
        r.register("a", brandeis_cs()).unwrap();
        r.get("a").unwrap().cache().put("k", b"v");
        assert_eq!(r.invalidate_tenant("a").unwrap(), 1);
        assert_eq!(r.get("a").unwrap().epoch(), 1, "no epoch bump");
        assert!(r.get("a").unwrap().cache().get("k").is_none());
        assert!(matches!(
            r.invalidate_tenant("ghost"),
            Err(RegistryError::UnknownTenant { .. })
        ));
        r.get("a").unwrap().cache().put("k2", b"v");
        r.get(DEFAULT_TENANT).unwrap().cache().put("k3", b"v");
        assert_eq!(r.invalidate_all_tenants(), 2);
        assert_eq!(r.tenant_invalidations(), 1);
        assert_eq!(r.global_invalidations(), 1);
    }

    #[test]
    fn restore_partition_adopts_matching_epochs_and_fast_forwards() {
        let r = registry(8);
        let fp = crate::snapshot::catalog_fingerprint(&brandeis_cs());
        // Equal epoch: the live partition is reused as-is.
        let live = r.get(DEFAULT_TENANT).unwrap();
        let same = r.restore_partition(DEFAULT_TENANT, 1, fp).unwrap();
        assert!(Arc::ptr_eq(&live, &same));
        // Snapshot ahead of a freshly re-registered tenant: fast-forward
        // to the snapshot's epoch so restored session scopes resume.
        let ahead = r.restore_partition(DEFAULT_TENANT, 4, fp).unwrap();
        assert_eq!(ahead.scope(), "default@4");
        assert_eq!(r.list()[0].swaps, 0, "a fast-forward is not a swap");
        // Snapshot behind the serving epoch: stale, refused whole.
        assert_eq!(
            r.restore_partition(DEFAULT_TENANT, 2, fp).err().unwrap(),
            RestoreRefusal::StaleEpoch {
                current: 4,
                snapshot: 2
            }
        );
        // Unknown tenants and foreign catalogs are refused whole.
        assert_eq!(
            r.restore_partition("ghost", 1, fp).err().unwrap(),
            RestoreRefusal::UnknownTenant
        );
        assert_eq!(
            r.restore_partition(DEFAULT_TENANT, 4, fp ^ 1)
                .err()
                .unwrap(),
            RestoreRefusal::FingerprintMismatch
        );
    }

    #[test]
    fn dag_store_retires_tables_without_losing_counters() {
        let r = registry(8);
        let t = r.get(DEFAULT_TENANT).unwrap();
        let table = t.dag().table();
        table.intern(
            1,
            coursenav_catalog::CourseSet::new(),
            coursenav_navigator::DagNodeKind::Empty,
            Vec::new(),
        );
        let live = t.dag().snapshot();
        assert_eq!(live.nodes, 1);
        assert_eq!(live.interned, 1);
        // Invalidation retires the table: gauges reset, counters carry.
        r.invalidate_tenant(DEFAULT_TENANT).unwrap();
        let after = t.dag().snapshot();
        assert_eq!(after.nodes, 0, "fresh table is empty");
        assert_eq!(after.interned, 1, "lifetime counters survive");
        assert_eq!(after.tables_retired, 1);
        // A request that resolved the old table still reads its nodes.
        assert_eq!(table.len(), 1);
        // Catalog swaps fold the whole store into the slot's retired
        // totals, keeping per-tenant aggregates monotonic.
        r.register(DEFAULT_TENANT, brandeis_cs()).unwrap();
        let rows = r.tenants_snapshot();
        assert_eq!(rows[0].unique_table.interned, 1);
        assert_eq!(rows[0].unique_table.tables_retired, 2);
        assert_eq!(r.aggregate_dag().interned, 1);
    }

    #[test]
    fn retiring_a_table_zeroes_its_edge_gauges() {
        use coursenav_catalog::{CourseId, CourseSet};
        use coursenav_navigator::{DagNodeKind, Edges};

        let r = registry(8);
        let t = r.get(DEFAULT_TENANT).unwrap();
        let table = t.dag().table();
        let leaf = table.intern(
            0,
            CourseSet::new(),
            DagNodeKind::Leaf(coursenav_navigator::path::LeafKind::Goal),
            Vec::new(),
        );
        let selection = CourseSet::from_iter([CourseId::new(0), CourseId::new(2)]);
        table.intern(
            0,
            CourseSet::new(),
            DagNodeKind::Interior {
                edges: Edges::new(&[(selection, leaf)]),
                floor_skipped: 0,
            },
            Vec::new(),
        );
        let live = t.dag().snapshot();
        assert_eq!(live.edges, 1);
        // Two alphabet courses, one mask word, one child.
        assert_eq!(live.edge_bytes, 2 * 4 + 12);
        r.invalidate_tenant(DEFAULT_TENANT).unwrap();
        let after = t.dag().snapshot();
        assert_eq!((after.nodes, after.edges, after.edge_bytes), (0, 0, 0));
        assert_eq!(after.interned, 2, "lifetime counters survive");
    }

    #[test]
    fn list_is_sorted_by_name() {
        let r = registry(8);
        r.register("zeta", brandeis_cs()).unwrap();
        r.register("alpha", brandeis_cs()).unwrap();
        let names: Vec<String> = r.list().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["alpha", "default", "zeta"]);
    }
}
