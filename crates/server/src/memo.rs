//! Cross-request transposition tables: the serving-layer home of the
//! engine's status-keyed subtree memo ([`TranspositionTable`]).
//!
//! The response cache answers *identical* requests; the memo registry
//! goes one level deeper and lets *different* requests share subtree
//! work. Two requests share a table exactly when they agree on every
//! field that shapes the exploration tree — catalog semantics, prune
//! configuration, wait policy, goal, selection cap — which is what
//! [`ExplorationRequest::memo_key`] fingerprints (output mode, ranking,
//! budget, and paging are deliberately masked out: a count and a top-k
//! over the same tree share one table). Collect output reads no table,
//! so the serving layer never asks the registry for one on its behalf.
//!
//! Memory stays bounded at two levels: each table caps its resident
//! entries ([`TranspositionTable::new`]), and the registry caps how many
//! tables exist at once — beyond that, the least recently used table is
//! dropped whole. Catalog swaps and `POST /v1/cache/invalidate` clear
//! the registry the same way they clear the response cache: a memoized
//! subtree is only valid against the catalog it was explored under.
//!
//! [`ExplorationRequest::memo_key`]: coursenav_navigator::ExplorationRequest::memo_key

use std::collections::HashMap;
use std::sync::Arc;

use coursenav_navigator::{InsertGate, PortableEntry, TranspositionTable};
use parking_lot::Mutex;

/// Live tables the registry keeps at once; the least recently used table
/// beyond this is dropped whole. Sized for "a handful of distinct
/// exploration shapes in play", not for archival.
const MAX_TABLES: usize = 32;

/// Aggregate transposition-table counters across every live table, the
/// `memo` block of `GET /v1/metrics`.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct MemoRegistrySnapshot {
    /// Whether the server runs with memoization at all
    /// (`memo_entries > 0`).
    pub enabled: bool,
    /// Tables currently resident.
    pub tables: u64,
    /// Whole tables dropped by the registry's LRU cap or an invalidation.
    pub tables_dropped: u64,
    /// Subtree lookups answered from a table, summed across live tables.
    pub hits: u64,
    /// Subtree lookups that fell through to real exploration.
    pub misses: u64,
    /// Entries evicted by per-table cap enforcement.
    pub evictions: u64,
    /// Entries stored (overwrites included).
    pub inserts: u64,
    /// Entries currently resident across live tables.
    pub entries: u64,
    /// Summed per-table entry ceilings.
    pub capacity: u64,
}

/// One resident table plus its recency stamp.
struct Slot {
    table: Arc<TranspositionTable>,
    stamp: u64,
}

/// Counters that survive table drops: a dropped table's lifetime totals
/// would otherwise vanish from `/v1/metrics` mid-flight.
#[derive(Default)]
struct Retired {
    tables_dropped: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

struct Inner {
    tables: HashMap<String, Slot>,
    clock: u64,
    retired: Retired,
}

/// A bounded, LRU-ish map from [`ExplorationRequest::memo_key`] to the
/// shared [`TranspositionTable`] serving that exploration shape.
///
/// [`ExplorationRequest::memo_key`]: coursenav_navigator::ExplorationRequest::memo_key
pub struct MemoRegistry {
    inner: Mutex<Inner>,
    /// Per-table entry cap; `0` disables memoization entirely.
    entries_per_table: usize,
    /// Installed on every table at creation (chaos builds drop inserts
    /// through this).
    gate: Option<InsertGate>,
}

impl MemoRegistry {
    /// A registry whose tables each hold at most `entries_per_table`
    /// memo entries. `0` disables memoization: [`MemoRegistry::table_for`]
    /// always answers `None` and the engine runs un-memoized.
    pub fn new(entries_per_table: usize) -> MemoRegistry {
        MemoRegistry {
            inner: Mutex::new(Inner {
                tables: HashMap::new(),
                clock: 0,
                retired: Retired::default(),
            }),
            entries_per_table,
            gate: None,
        }
    }

    /// Installs `gate` on every table created from here on (existing
    /// tables are updated too). The chaos suite routes its
    /// `memo-insert-dropped` fault through this.
    pub fn set_insert_gate(&mut self, gate: InsertGate) {
        for slot in self.inner.lock().tables.values() {
            slot.table.set_insert_gate(Some(Arc::clone(&gate)));
        }
        self.gate = Some(gate);
    }

    /// The shared table for `memo_key`, creating (and LRU-evicting) as
    /// needed. `None` when memoization is disabled.
    pub fn table_for(&self, memo_key: &str) -> Option<Arc<TranspositionTable>> {
        if self.entries_per_table == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(slot) = inner.tables.get_mut(memo_key) {
            slot.stamp = stamp;
            return Some(Arc::clone(&slot.table));
        }
        if inner.tables.len() >= MAX_TABLES {
            if let Some(oldest) = inner
                .tables
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(key, _)| key.clone())
            {
                if let Some(slot) = inner.tables.remove(&oldest) {
                    Self::retire(&mut inner.retired, &slot.table);
                }
            }
        }
        let table = Arc::new(TranspositionTable::new(self.entries_per_table));
        if let Some(gate) = &self.gate {
            table.set_insert_gate(Some(Arc::clone(gate)));
        }
        inner.tables.insert(
            memo_key.to_string(),
            Slot {
                table: Arc::clone(&table),
                stamp,
            },
        );
        Some(table)
    }

    /// Drops every table (catalog swap / cache invalidation). Returns how
    /// many tables were dropped. In-flight explorations keep their `Arc`
    /// and finish against the table they started with — stale entries can
    /// only produce answers for the request that already holds them.
    pub fn invalidate_all(&self) -> u64 {
        let mut inner = self.inner.lock();
        let dropped = inner.tables.len() as u64;
        let tables: Vec<Slot> = inner.tables.drain().map(|(_, slot)| slot).collect();
        for slot in &tables {
            Self::retire(&mut inner.retired, &slot.table);
        }
        dropped
    }

    /// Folds a dropped table's lifetime counters into the retired totals.
    fn retire(retired: &mut Retired, table: &TranspositionTable) {
        let s = table.snapshot();
        retired.tables_dropped += 1;
        retired.hits += s.hits;
        retired.misses += s.misses;
        retired.evictions += s.evictions;
        retired.inserts += s.inserts;
    }

    /// Every live table's entries keyed by memo key, key-sorted (entries
    /// oldest-stamp first within each table) — the memo half of a serving
    /// partition's snapshot. Does not touch recency stamps.
    pub fn export_tables(&self) -> Vec<(String, Vec<PortableEntry>)> {
        let inner = self.inner.lock();
        let mut out: Vec<(String, Vec<PortableEntry>)> = inner
            .tables
            .iter()
            .map(|(key, slot)| (key.clone(), slot.table.export_entries()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Routes `entries` into the table serving `memo_key` (creating it
    /// through the normal LRU path). Returns entries offered; `0` when
    /// memoization is disabled — restore is a warm-up, never a
    /// requirement.
    pub fn import_table(&self, memo_key: &str, entries: Vec<PortableEntry>) -> u64 {
        match self.table_for(memo_key) {
            Some(table) => table.import_entries(entries),
            None => 0,
        }
    }

    /// Aggregate counters across live tables plus retired totals.
    pub fn snapshot(&self) -> MemoRegistrySnapshot {
        let inner = self.inner.lock();
        let mut snap = MemoRegistrySnapshot {
            enabled: self.entries_per_table > 0,
            tables: inner.tables.len() as u64,
            tables_dropped: inner.retired.tables_dropped,
            hits: inner.retired.hits,
            misses: inner.retired.misses,
            evictions: inner.retired.evictions,
            inserts: inner.retired.inserts,
            entries: 0,
            capacity: 0,
        };
        for slot in inner.tables.values() {
            let s = slot.table.snapshot();
            snap.hits += s.hits;
            snap.misses += s.misses;
            snap.evictions += s.evictions;
            snap.inserts += s.inserts;
            snap.entries += s.entries;
            snap.capacity += s.capacity;
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_entries_disables_memoization() {
        let reg = MemoRegistry::new(0);
        assert!(reg.table_for("k").is_none());
        let snap = reg.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.tables, 0);
    }

    #[test]
    fn same_key_shares_a_table_and_distinct_keys_do_not() {
        let reg = MemoRegistry::new(128);
        let a = reg.table_for("alpha").unwrap();
        let b = reg.table_for("alpha").unwrap();
        let c = reg.table_for("beta").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one key, one table");
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct tables");
        assert_eq!(reg.snapshot().tables, 2);
    }

    #[test]
    fn registry_caps_live_tables_by_dropping_the_oldest() {
        let reg = MemoRegistry::new(16);
        for i in 0..MAX_TABLES + 5 {
            reg.table_for(&format!("key-{i}")).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.tables as usize, MAX_TABLES);
        assert_eq!(snap.tables_dropped, 5);
        // The oldest keys are the ones that went; recent keys survive.
        let recent = reg.table_for(&format!("key-{}", MAX_TABLES + 4)).unwrap();
        assert_eq!(
            reg.snapshot().tables as usize,
            MAX_TABLES,
            "re-touching a live key creates nothing"
        );
        drop(recent);
    }

    #[test]
    fn invalidate_drops_everything_but_keeps_lifetime_counters() {
        let reg = MemoRegistry::new(16);
        let table = reg.table_for("k").unwrap();
        table.put_probe_entry(0);
        assert_eq!(reg.invalidate_all(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.tables, 0);
        assert_eq!(snap.tables_dropped, 1);
        assert_eq!(snap.inserts, 1, "retired totals keep the insert");
        // The next request for the same key starts cold.
        let fresh = reg.table_for("k").unwrap();
        assert!(fresh.is_empty());
    }

    #[test]
    fn exported_tables_reimport_through_the_lru_path() {
        let reg = MemoRegistry::new(16);
        reg.table_for("a").unwrap().put_probe_entry(1);
        reg.table_for("b").unwrap().put_probe_entry(2);
        let exported = reg.export_tables();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].0, "a", "exports are key-sorted");
        let fresh = MemoRegistry::new(16);
        let mut offered = 0;
        for (key, entries) in exported {
            offered += fresh.import_table(&key, entries);
        }
        assert_eq!(offered, 2);
        let snap = fresh.snapshot();
        assert_eq!(snap.tables, 2);
        assert_eq!(snap.entries, 2);
        // A disabled registry declines the import — restore is a warm-up,
        // never a requirement.
        let disabled = MemoRegistry::new(0);
        assert_eq!(disabled.import_table("a", Vec::new()), 0);
    }

    #[test]
    fn insert_gate_reaches_existing_and_future_tables() {
        let mut reg = MemoRegistry::new(16);
        let before = reg.table_for("before").unwrap();
        reg.set_insert_gate(Arc::new(|| false));
        let after = reg.table_for("after").unwrap();
        before.put_probe_entry(0);
        after.put_probe_entry(0);
        assert!(before.is_empty(), "gate retrofits live tables");
        assert!(after.is_empty(), "gate applies to new tables");
    }
}
