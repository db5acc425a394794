//! Durable snapshot/restore of warm serving state.
//!
//! A snapshot file captures everything warm about a serving process — each
//! tenant's `(tenant, epoch)` partition of transposition tables plus the
//! session store — in a **versioned, checksummed, length-prefixed binary
//! format**, the same validation discipline the cursor wire format uses.
//! The layout (all integers little-endian):
//!
//! ```text
//! magic "CNAVSNAP" · version u32
//! tenant-count u32
//!   per tenant: name str · epoch u64 · catalog-fingerprint u64
//!     table-count u32
//!       per table: memo-key str · entry-count u32 · entries…
//! session section: key0 u64 · key1 u64 · seed u64 · clock u64
//!   entry-count u32
//!     per session: id u64 · stamp u64 · remaining-ms u64 · scope str ·
//!                  cursor str
//! fnv1a-64 checksum u64   (over every preceding byte)
//! ```
//!
//! where `str` is `u32 length + UTF-8 bytes` and a course set is
//! `u16 count + count × u16 course ids`. Memo entries carry a one-byte
//! tag for the two cached kinds: 0 for a count, 2 for a ranked summary.
//! Tag 1 (version 1's collect suffix sets) is retired and never reused.
//! A ranked summary's item is its suffix cost (an `f64`'s bits as a
//! `u64`, since version 4) followed by its selections, so a restored
//! summary merges by cost without recomputing a single edge.
//! An entry's state key is the engine's table key (`Explorer::table_key`):
//! since version 3 it keeps only what the state's subtree can still read,
//! so a version-2 file's full-state keys are refused, not reinterpreted.
//!
//! **The decoder never trusts a length field.** Every count is validated
//! against the bytes actually remaining before a single element is
//! allocated, strings are capped, and every enum tag is checked — decoding
//! is *total* over arbitrary input (it returns [`DecodeError`], never
//! panics, never allocates unboundedly). Corruption anywhere rejects the
//! **whole file**: integrity is all-or-nothing, and per-tenant acceptance
//! (epoch/fingerprint matching) happens above, in the registry.
//!
//! Writes are atomic — temp file, fsync, rename, directory fsync — so a
//! torn write (crash, `snapshot-write-torn` chaos fault) leaves the
//! previous complete snapshot untouched and at worst a stale `.tmp`
//! beside it.
//!
//! **Versioning policy:** `VERSION` bumps on any layout change; there is
//! no cross-version migration. A reader rejects other versions and the
//! server simply starts cold — snapshots are a warm-up accelerator, never
//! a source of truth.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use coursenav_catalog::{CourseId, CourseSet};
use coursenav_navigator::{ExploreStats, PortableEntry, RankedSuffix, StateKey};
use coursenav_registrar::{write_registrar_file, RegistrarData};

use crate::session::{SessionExport, SessionRecord};

/// File magic: identifies a CourseNavigator snapshot.
pub const MAGIC: &[u8; 8] = b"CNAVSNAP";

/// Format version; bumped on any layout change (no migrations — see the
/// module docs).
pub const VERSION: u32 = 4;

/// The snapshot's file name inside the snapshot directory.
pub const SNAPSHOT_FILE: &str = "coursenav.snap";

/// The temp file a write stages into before the atomic rename.
pub const SNAPSHOT_TMP: &str = "coursenav.snap.tmp";

/// Largest accepted string payload (memo keys, scopes, cursor JSON).
const MAX_STR: usize = 1 << 20;

/// One tenant partition inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRecord {
    /// Tenant name as registered.
    pub name: String,
    /// The `(tenant, epoch)` partition epoch the state was captured at.
    pub epoch: u64,
    /// Fingerprint of the catalog the state was computed against — see
    /// [`catalog_fingerprint`]. A mismatch on restore rejects the tenant.
    pub fingerprint: u64,
    /// Every live transposition table in the partition's memo registry.
    pub tables: Vec<TableRecord>,
}

/// One transposition table inside a tenant partition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRecord {
    /// The request-shape memo key the table serves.
    pub memo_key: String,
    /// The table's entries, oldest stamp first.
    pub entries: Vec<PortableEntry>,
}

/// A decoded (or to-be-encoded) snapshot: the full warm serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Every tenant partition, name-sorted.
    pub tenants: Vec<TenantRecord>,
    /// The session store image.
    pub sessions: SessionExport,
}

/// Why a snapshot file was rejected. Any error rejects the whole file —
/// the server starts cold rather than half-loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a declared field.
    Truncated,
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The format version is not one this build reads.
    BadVersion(u32),
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// A length/count field exceeds the bytes actually present (or a
    /// sanity cap) — the adversarial-length guard.
    BadLength,
    /// An enum tag byte is outside its domain.
    BadTag(u8),
    /// A string payload is not UTF-8.
    BadUtf8,
    /// Valid content followed by unexplained trailing bytes.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "snapshot truncated"),
            DecodeError::BadMagic => write!(f, "not a snapshot file"),
            DecodeError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            DecodeError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            DecodeError::BadLength => write!(f, "snapshot length field out of bounds"),
            DecodeError::BadTag(t) => write!(f, "snapshot tag byte {t} out of domain"),
            DecodeError::BadUtf8 => write!(f, "snapshot string is not UTF-8"),
            DecodeError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a `--warm-from` restore did not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot file exists but could not be read.
    Io(String),
    /// The snapshot file failed integrity or structural validation
    /// (wrapped [`DecodeError`] text).
    Corrupt(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "snapshot read failed: {e}"),
            RestoreError::Corrupt(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

/// What a `--warm-from` restore accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Whether a snapshot file existed and decoded (false → cold start
    /// with nothing to restore, which is not an error).
    pub loaded: bool,
    /// Tenant partitions whose epoch/fingerprint matched and were warmed.
    pub tenants_restored: u64,
    /// Tenant partitions rejected whole (unknown tenant, fingerprint
    /// mismatch, or stale epoch).
    pub tenants_rejected: u64,
    /// Memo entries offered to restored partitions' tables.
    pub entries_restored: u64,
    /// Sessions revived with their remaining TTL.
    pub sessions_restored: u64,
}

/// Point-in-time snapshotter statistics (the `snapshot` block on
/// `/v1/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct SnapshotStats {
    /// Whether a snapshot directory is configured.
    pub enabled: bool,
    /// Completed snapshot writes.
    pub writes: u64,
    /// Failed snapshot writes (the previous complete snapshot survives).
    pub write_errors: u64,
    /// Size of the last completed write, in bytes.
    pub last_write_bytes: u64,
    /// Wall-clock of the last completed write, in milliseconds.
    pub last_write_ms: u64,
    /// Tenant partitions warmed by the startup restore.
    pub restored_tenants: u64,
    /// Tenant partitions the startup restore rejected.
    pub rejected_tenants: u64,
    /// Memo entries restored at startup.
    pub restored_entries: u64,
    /// Sessions restored at startup.
    pub restored_sessions: u64,
}

/// A stable fingerprint of the catalog a partition serves: FNV-1a over
/// the canonical registrar-file text (catalog, degree, horizon), mixed
/// with the reliability model's released horizon (which the writer does
/// not emit). Restore refuses state computed against any other catalog —
/// memo entries reference course ids that only mean something under the
/// catalog that minted them.
pub fn catalog_fingerprint(data: &RegistrarData) -> u64 {
    let text = write_registrar_file(&data.catalog, data.degree.as_ref(), data.horizon);
    let mut h = FNV_OFFSET;
    fnv1a_update(&mut h, text.as_bytes());
    match &data.offering {
        Some(model) => {
            fnv1a_update(&mut h, &[1]);
            fnv1a_update(&mut h, &model.released_through().index().to_le_bytes());
        }
        None => fnv1a_update(&mut h, &[0]),
    }
    h
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes `snap` into the versioned, checksummed wire form.
pub fn encode(snap: &SnapshotFile) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, snap.tenants.len() as u32);
    for tenant in &snap.tenants {
        put_str(&mut out, &tenant.name);
        put_u64(&mut out, tenant.epoch);
        put_u64(&mut out, tenant.fingerprint);
        put_u32(&mut out, tenant.tables.len() as u32);
        for table in &tenant.tables {
            put_str(&mut out, &table.memo_key);
            put_u32(&mut out, table.entries.len() as u32);
            for entry in &table.entries {
                put_entry(&mut out, entry);
            }
        }
    }
    let sessions = &snap.sessions;
    put_u64(&mut out, sessions.key.0);
    put_u64(&mut out, sessions.key.1);
    put_u64(&mut out, sessions.seed);
    put_u64(&mut out, sessions.clock);
    put_u32(&mut out, sessions.entries.len() as u32);
    for rec in &sessions.entries {
        put_u64(&mut out, rec.id);
        put_u64(&mut out, rec.stamp);
        put_u64(&mut out, rec.remaining_ms);
        put_str(&mut out, &rec.scope);
        put_str(&mut out, &rec.cursor_json);
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

fn put_entry(out: &mut Vec<u8>, entry: &PortableEntry) {
    match entry {
        PortableEntry::Count {
            key,
            total,
            goal,
            logical,
        } => {
            out.push(0);
            put_key(out, key);
            put_u128(out, *total);
            put_u128(out, *goal);
            put_stats(out, logical);
        }
        PortableEntry::Ranked { key, sig, k, items } => {
            out.push(2);
            put_key(out, key);
            put_u64(out, *sig);
            put_u64(out, *k);
            put_u32(out, items.len() as u32);
            for item in items {
                put_u64(out, item.cost.to_bits());
                put_u32(out, item.selections.len() as u32);
                for set in &item.selections {
                    put_set(out, set);
                }
            }
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_set(out: &mut Vec<u8>, set: &CourseSet) {
    out.extend_from_slice(&(set.len() as u16).to_le_bytes());
    for id in set.iter() {
        out.extend_from_slice(&id.as_u16().to_le_bytes());
    }
}

fn put_key(out: &mut Vec<u8>, key: &StateKey) {
    out.extend_from_slice(&key.0.to_le_bytes());
    put_set(out, &key.1);
}

fn put_stats(out: &mut Vec<u8>, stats: &ExploreStats) {
    for v in [
        stats.nodes_expanded,
        stats.edges_created,
        stats.pruned_time,
        stats.pruned_availability,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_evictions,
    ] {
        put_u64(out, v);
    }
}

// ---------------------------------------------------------------------------
// Decoding (total over arbitrary input)
// ---------------------------------------------------------------------------

/// Parses and verifies a snapshot. Total over arbitrary input: any
/// corruption — truncation, bit flips, hostile length fields, bad tags —
/// returns a [`DecodeError`]; nothing panics and no allocation exceeds
/// the input's own size by more than a constant factor.
pub fn decode(bytes: &[u8]) -> Result<SnapshotFile, DecodeError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(DecodeError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("eight tail bytes"));
    // Magic and version first for precise errors; both are inside `body`,
    // so the checksum still covers them.
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    if fnv1a(body) != stored {
        return Err(DecodeError::BadChecksum);
    }

    // Minimum serialized size of a tenant record: name len + epoch +
    // fingerprint + table count.
    let mut tenants = Vec::new();
    for _ in 0..r.count(4 + 8 + 8 + 4)? {
        let name = r.str()?;
        let epoch = r.u64()?;
        let fingerprint = r.u64()?;
        // Table minimum: memo-key len + entry count.
        let mut tables = Vec::new();
        for _ in 0..r.count(4 + 4)? {
            let memo_key = r.str()?;
            // Entry minimum: the smallest variant is Ranked with an empty
            // set and no items (tag + key + sig + k + item count).
            let mut entries = Vec::new();
            for _ in 0..r.count(1 + 4 + 2 + 8 + 8 + 4)? {
                entries.push(r.entry()?);
            }
            tables.push(TableRecord { memo_key, entries });
        }
        tenants.push(TenantRecord {
            name,
            epoch,
            fingerprint,
            tables,
        });
    }

    let key = (r.u64()?, r.u64()?);
    let seed = r.u64()?;
    let clock = r.u64()?;
    // Session minimum: id + stamp + remaining + two string lengths.
    let mut entries = Vec::new();
    for _ in 0..r.count(8 + 8 + 8 + 4 + 4)? {
        entries.push(SessionRecord {
            id: r.u64()?,
            stamp: r.u64()?,
            remaining_ms: r.u64()?,
            scope: r.str()?,
            cursor_json: r.str()?,
        });
    }

    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(SnapshotFile {
        tenants,
        sessions: SessionExport {
            key,
            seed,
            clock,
            entries,
        },
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a count and validates it against the bytes remaining **before
    /// any allocation**: `n` elements of at least `min_elem` bytes each
    /// cannot outnumber the input that is actually present.
    fn count(&mut self, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError::BadLength),
        }
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_STR || n > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn set(&mut self) -> Result<CourseSet, DecodeError> {
        let n = self.u16()? as usize;
        if n > CourseSet::CAPACITY || n * 2 > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        let mut set = CourseSet::EMPTY;
        for _ in 0..n {
            let id = self.u16()?;
            if id as usize >= CourseSet::CAPACITY {
                return Err(DecodeError::BadLength);
            }
            set.insert(CourseId::new(id));
        }
        Ok(set)
    }

    fn key(&mut self) -> Result<StateKey, DecodeError> {
        Ok((self.i32()?, self.set()?))
    }

    fn stats(&mut self) -> Result<ExploreStats, DecodeError> {
        Ok(ExploreStats {
            nodes_expanded: self.u64()?,
            edges_created: self.u64()?,
            pruned_time: self.u64()?,
            pruned_availability: self.u64()?,
            memo_hits: self.u64()?,
            memo_misses: self.u64()?,
            memo_evictions: self.u64()?,
        })
    }

    fn entry(&mut self) -> Result<PortableEntry, DecodeError> {
        match self.u8()? {
            0 => Ok(PortableEntry::Count {
                key: self.key()?,
                total: self.u128()?,
                goal: self.u128()?,
                logical: self.stats()?,
            }),
            2 => {
                let key = self.key()?;
                let sig = self.u64()?;
                let k = self.u64()?;
                // Item minimum: its cost and its selection count field.
                let mut items = Vec::new();
                for _ in 0..self.count(12)? {
                    let cost = f64::from_bits(self.u64()?);
                    let mut selections = Vec::new();
                    for _ in 0..self.count(2)? {
                        selections.push(self.set()?);
                    }
                    items.push(RankedSuffix {
                        cost,
                        selections: selections.into(),
                    });
                }
                Ok(PortableEntry::Ranked { key, sig, k, items })
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic write
// ---------------------------------------------------------------------------

/// Writes `bytes` to `dir/coursenav.snap` atomically: staged into a temp
/// file, fsynced, renamed over the final name, directory fsynced. A crash
/// at any point leaves either the previous complete snapshot or none —
/// never a partial final file.
///
/// `tear_after` is the chaos hook (`snapshot-write-torn`): `Some(n)`
/// aborts after persisting only the first `n` bytes of the temp file,
/// exactly the on-disk state a mid-write `kill -9` leaves behind.
pub fn write_atomic(
    dir: &Path,
    bytes: &[u8],
    tear_after: Option<usize>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(SNAPSHOT_TMP);
    let final_path = dir.join(SNAPSHOT_FILE);
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(n) = tear_after {
        file.write_all(&bytes[..n.min(bytes.len())])?;
        file.sync_all()?;
        return Err(std::io::Error::other("snapshot write torn mid-flight"));
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &final_path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// FNV-1a 64-bit over `data`.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_update(&mut h, data);
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_update(h: &mut u64, data: &[u8]) {
    for &b in data {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        let mut set = CourseSet::EMPTY;
        set.insert(CourseId::new(3));
        set.insert(CourseId::new(17));
        let stats = ExploreStats {
            nodes_expanded: 5,
            edges_created: 9,
            pruned_time: 1,
            pruned_availability: 2,
            memo_hits: 0,
            memo_misses: 0,
            memo_evictions: 0,
        };
        SnapshotFile {
            tenants: vec![TenantRecord {
                name: "default".into(),
                epoch: 3,
                fingerprint: 0xdead_beef,
                tables: vec![TableRecord {
                    memo_key: "m=2|deadline=7".into(),
                    entries: vec![
                        PortableEntry::Count {
                            key: (4, set),
                            total: 12,
                            goal: 7,
                            logical: stats,
                        },
                        PortableEntry::Ranked {
                            key: (6, set),
                            sig: 42,
                            k: 3,
                            items: vec![
                                RankedSuffix {
                                    cost: 7.0,
                                    selections: Box::new([set]),
                                },
                                RankedSuffix {
                                    cost: 0.0,
                                    selections: Box::default(),
                                },
                            ],
                        },
                    ],
                }],
            }],
            sessions: SessionExport {
                key: (11, 22),
                seed: 33,
                clock: 44,
                entries: vec![SessionRecord {
                    id: 55,
                    stamp: 2,
                    remaining_ms: 1500,
                    scope: "default@3".into(),
                    cursor_json: "{\"page\":2}".into(),
                }],
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes), Ok(snap));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = SnapshotFile {
            tenants: Vec::new(),
            sessions: SessionExport {
                key: (0, 0),
                seed: 0,
                clock: 0,
                entries: Vec::new(),
            },
        };
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes), Ok(snap));
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation at {len} must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode(&corrupt).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn hostile_length_fields_are_rejected_cheaply() {
        // A file that *claims* u32::MAX tenants but carries none: the
        // count check fires before any allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u32(&mut bytes, u32::MAX);
        let checksum = fnv1a(&bytes);
        put_u64(&mut bytes, checksum);
        assert_eq!(decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn wrong_magic_version_and_trailing_bytes_are_rejected() {
        let good = encode(&sample());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode(&bad_magic).is_err());

        let mut with_trailer = encode(&sample());
        // Strip the checksum, add a stray byte, re-checksum.
        with_trailer.truncate(with_trailer.len() - 8);
        with_trailer.push(0);
        let checksum = fnv1a(&with_trailer);
        put_u64(&mut with_trailer, checksum);
        assert_eq!(decode(&with_trailer), Err(DecodeError::TrailingBytes));

        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(MAGIC);
        put_u32(&mut bad_version, VERSION + 9);
        put_u32(&mut bad_version, 0);
        let checksum = fnv1a(&bad_version);
        put_u64(&mut bad_version, checksum);
        assert_eq!(
            decode(&bad_version),
            Err(DecodeError::BadVersion(VERSION + 9))
        );

        // A version-1 file (it could carry suffix sets) is refused by its
        // version, before the checksum is read.
        let mut v1 = good.clone();
        v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode(&v1), Err(DecodeError::BadVersion(1)));

        // A version-2 file keys its entries by the full state, and a
        // version-3 file's ranked items carry no cost, so both are refused
        // by their version too.
        for old in [2u32, 3] {
            let mut stale = good.clone();
            stale[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode(&stale), Err(DecodeError::BadVersion(old)));
        }

        // Version 1's suffix-set tag is retired: one tenant, one table,
        // one entry tagged 1, padded past the entry-count check.
        let mut retired = Vec::new();
        retired.extend_from_slice(MAGIC);
        put_u32(&mut retired, VERSION);
        put_u32(&mut retired, 1);
        put_str(&mut retired, "default");
        put_u64(&mut retired, 1);
        put_u64(&mut retired, 0);
        put_u32(&mut retired, 1);
        put_str(&mut retired, "m");
        put_u32(&mut retired, 1);
        retired.push(1);
        retired.extend_from_slice(&[0; 64]);
        let checksum = fnv1a(&retired);
        put_u64(&mut retired, checksum);
        assert_eq!(decode(&retired), Err(DecodeError::BadTag(1)));
    }

    #[test]
    fn atomic_write_replaces_and_torn_write_preserves() {
        let dir = std::env::temp_dir().join(format!(
            "coursenav-snap-unit-{}-{:p}",
            std::process::id(),
            &MAGIC
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let first = encode(&sample());
        let path = write_atomic(&dir, &first, None).expect("first write");
        assert_eq!(std::fs::read(&path).expect("read back"), first);

        // A torn second write errors out and leaves the first snapshot
        // fully intact (only a stale .tmp remains).
        let mut second = first.clone();
        second.extend_from_slice(&[0; 32]);
        assert!(write_atomic(&dir, &second, Some(second.len() / 2)).is_err());
        assert_eq!(std::fs::read(&path).expect("survivor"), first);
        assert!(decode(&std::fs::read(&path).expect("survivor")).is_ok());

        // A later complete write replaces it.
        let replaced = encode(&SnapshotFile {
            tenants: Vec::new(),
            sessions: SessionExport {
                key: (1, 2),
                seed: 3,
                clock: 4,
                entries: Vec::new(),
            },
        });
        write_atomic(&dir, &replaced, None).expect("third write");
        assert_eq!(std::fs::read(&path).expect("read back"), replaced);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_catalogs_and_epoch_horizons() {
        let base = coursenav_registrar::brandeis_cs();
        let same = coursenav_registrar::brandeis_cs();
        assert_eq!(catalog_fingerprint(&base), catalog_fingerprint(&same));
        let mut no_offering = coursenav_registrar::brandeis_cs();
        no_offering.offering = None;
        assert_ne!(
            catalog_fingerprint(&base),
            catalog_fingerprint(&no_offering),
            "reliability model participates in the fingerprint"
        );
    }
}
