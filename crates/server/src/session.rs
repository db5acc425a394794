//! Server-side store for resumable exploration sessions.
//!
//! A paged exploration ends each page with a serialized
//! [`ExplorationCursor`](coursenav_navigator::ExplorationCursor). The
//! frontier snapshot inside it is trusted state — it drives the engine's
//! stack reconstruction — so it never leaves the server. Clients get an
//! *opaque signed token* instead: `cn1.<id>.<mac>`, where the MAC is a
//! SipHash-2-4 of the session id under a per-process secret key. A
//! client cannot mint or alter a token without the key; a token whose MAC
//! does not verify is rejected as [`SessionError::Invalid`] before the
//! store is even consulted.
//!
//! Sessions have **take semantics**: resuming a page consumes its token
//! (the next page carries a fresh one), so a replayed token answers
//! [`SessionError::Expired`] — as does a token whose session aged out of
//! the TTL or was evicted by the LRU capacity bound. The split matters to
//! clients: `Invalid` (→ 400) means the token is garbage, `Expired`
//! (→ 410) means it was once real but the session is gone.
//!
//! TTL bookkeeping runs on a **serializable monotonic offset**: every
//! entry records `expires_ms`, milliseconds since the store's own `base`
//! instant, never a raw [`Instant`]. That makes the whole store portable
//! through [`SessionStore::export`] / [`SessionStore::import`] — a session
//! restored halfway through its TTL keeps only its *remaining* TTL, and a
//! restored store adopts the exporter's signing key and id stream so
//! outstanding client tokens keep verifying and future tokens cannot
//! collide with exported ones.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Token prefix; bump it if the token format ever changes shape.
const TOKEN_PREFIX: &str = "cn1";

/// Why a token was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The token is malformed or its signature does not verify (→ 400).
    Invalid,
    /// The token was well-formed but its session is gone: already
    /// consumed, aged out, or evicted (→ 410).
    Expired,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Invalid => write!(f, "cursor token is invalid"),
            SessionError::Expired => write!(f, "cursor session has expired"),
        }
    }
}

/// Point-in-time session-store statistics (serialized into `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct SessionStats {
    /// Sessions minted (one per truncated page served).
    pub created: u64,
    /// Sessions resumed (tokens successfully taken).
    pub resumed: u64,
    /// Tokens rejected for bad format or signature.
    pub invalid: u64,
    /// Well-formed tokens whose session was gone (replay, TTL, eviction).
    pub expired: u64,
    /// Sessions dropped to make room under the capacity bound (or by an
    /// operational `evict_all` flush) — "store too small".
    pub evicted_capacity: u64,
    /// Sessions dropped because their TTL lapsed — "clients too slow".
    pub expired_ttl: u64,
    /// Sessions currently live.
    pub live: u64,
}

/// One live session as exported by [`SessionStore::export`]: everything
/// needed to revive it in another store, with TTL expressed as *remaining*
/// milliseconds (monotonic-clock origins do not survive a process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session id the client's token authenticates.
    pub id: u64,
    /// Recency stamp (mint order under the exporting store's clock).
    pub stamp: u64,
    /// Milliseconds of TTL the session had left at export time (> 0; fully
    /// aged sessions are not exported).
    pub remaining_ms: u64,
    /// The serving scope (`tenant@epoch`) the cursor was minted against.
    pub scope: String,
    /// The serialized cursor itself.
    pub cursor_json: String,
}

/// A portable image of the live session store: the signing key, the id
/// stream, the mint clock, and every unexpired session (oldest first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionExport {
    /// SipHash-2-4 key halves — adopted on import so outstanding tokens
    /// keep verifying.
    pub key: (u64, u64),
    /// Id-stream seed — adopted on import so future ids stay collision-free
    /// with exported ones.
    pub seed: u64,
    /// Next mint stamp; the importing store's clock is advanced to at
    /// least this.
    pub clock: u64,
    /// Live sessions, oldest stamp first.
    pub entries: Vec<SessionRecord>,
}

struct Entry {
    cursor_json: String,
    /// The serving scope (`tenant@epoch`) the cursor was minted against.
    /// A token taken under any other scope answers `Expired`: after a
    /// tenant catalog swap the old epoch's frontier snapshots reference
    /// course ids from a catalog that no longer serves.
    scope: String,
    stamp: u64,
    /// Expiry deadline as milliseconds since the store's `base` instant —
    /// a serializable stand-in for `Instant` (see module docs). Stored as
    /// the deadline rather than the mint time so an imported session's
    /// *remaining* TTL survives even when it predates this store's base.
    expires_ms: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Recency index: stamp → session id. Stamps are unique (one clock).
    order: BTreeMap<u64, u64>,
    /// SipHash-2-4 key halves; per-process unless adopted from a snapshot
    /// via [`SessionStore::import`].
    key: (u64, u64),
    /// Id source: ids are `splitmix64((seed + stamp) * φ64)`.
    seed: u64,
}

/// Bounded, TTL-evicting store of live exploration cursors, addressed by
/// signed opaque tokens.
pub struct SessionStore {
    inner: Mutex<Inner>,
    capacity: usize,
    ttl: Duration,
    /// Origin of the store's monotonic millisecond timeline.
    base: Instant,
    clock: AtomicU64,
    created: AtomicU64,
    resumed: AtomicU64,
    invalid: AtomicU64,
    expired: AtomicU64,
    evicted_capacity: AtomicU64,
    expired_ttl: AtomicU64,
}

impl SessionStore {
    /// A store holding at most `capacity` live sessions, each for at most
    /// `ttl` after minting.
    pub fn new(capacity: usize, ttl: Duration) -> SessionStore {
        let seed = entropy();
        SessionStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                key: (
                    splitmix64(seed ^ 0x0073_6573_7369_6f6e), // "session"
                    splitmix64(seed ^ 0x0074_6f6b_656e),      // "token"
                ),
                seed,
            }),
            capacity: capacity.max(1),
            ttl,
            base: Instant::now(),
            clock: AtomicU64::new(0),
            created: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted_capacity: AtomicU64::new(0),
            expired_ttl: AtomicU64::new(0),
        }
    }

    /// Milliseconds elapsed on the store's own timeline.
    fn now_ms(&self) -> u64 {
        self.base.elapsed().as_millis() as u64
    }

    /// The TTL in whole milliseconds (at least 1, so a sub-millisecond TTL
    /// does not expire sessions the instant they are minted).
    fn ttl_ms(&self) -> u64 {
        (self.ttl.as_millis() as u64).max(1)
    }

    /// Stores `cursor_json` as a fresh unscoped session and returns its
    /// token. Equivalent to [`SessionStore::mint_scoped`] with an empty
    /// scope.
    pub fn mint(&self, cursor_json: String) -> String {
        self.mint_scoped(cursor_json, "")
    }

    /// Stores `cursor_json` as a fresh session bound to `scope`
    /// (canonically `tenant@epoch`) and returns its token. The token only
    /// resumes under the same scope — see [`SessionStore::take_scoped`].
    pub fn mint_scoped(&self, cursor_json: String, scope: &str) -> String {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let id = splitmix64(
            inner
                .seed
                .wrapping_add(stamp)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let lapsed = self.purge_expired(&mut inner, now);
        let mut squeezed = 0;
        while inner.map.len() >= self.capacity {
            let Some((&oldest, _)) = inner.order.iter().next() else {
                break;
            };
            let victim = inner.order.remove(&oldest).expect("stamp just seen");
            inner.map.remove(&victim);
            squeezed += 1;
        }
        inner.map.insert(
            id,
            Entry {
                cursor_json,
                scope: scope.to_string(),
                stamp,
                expires_ms: now + self.ttl_ms(),
            },
        );
        inner.order.insert(stamp, id);
        let key = inner.key;
        drop(inner);
        if lapsed > 0 {
            self.expired_ttl.fetch_add(lapsed, Ordering::Relaxed);
        }
        if squeezed > 0 {
            self.evicted_capacity.fetch_add(squeezed, Ordering::Relaxed);
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        token_for(key, id)
    }

    /// Verifies `token` and consumes its unscoped session, returning the
    /// stored cursor JSON. A consumed token cannot be taken twice.
    pub fn take(&self, token: &str) -> Result<String, SessionError> {
        self.take_scoped(token, "")
    }

    /// Verifies `token` and consumes its session, returning the stored
    /// cursor JSON — but only when the session was minted under
    /// `expected_scope`. A scope mismatch still consumes the session and
    /// answers [`SessionError::Expired`]: the token was once real, but the
    /// epoch it was minted against no longer serves.
    pub fn take_scoped(&self, token: &str, expected_scope: &str) -> Result<String, SessionError> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let Some(id) = verify(inner.key, token) else {
            drop(inner);
            self.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(SessionError::Invalid);
        };
        let lapsed = self.purge_expired(&mut inner, now);
        let taken = inner.map.remove(&id).inspect(|entry| {
            inner.order.remove(&entry.stamp);
        });
        drop(inner);
        if lapsed > 0 {
            self.expired_ttl.fetch_add(lapsed, Ordering::Relaxed);
        }
        match taken {
            Some(entry) if entry.scope == expected_scope => {
                self.resumed.fetch_add(1, Ordering::Relaxed);
                Ok(entry.cursor_json)
            }
            _ => {
                self.expired.fetch_add(1, Ordering::Relaxed);
                Err(SessionError::Expired)
            }
        }
    }

    /// Drops every live session (operational flush; the chaos suite uses
    /// it to simulate a full/restarted store). Outstanding tokens answer
    /// [`SessionError::Expired`] afterwards. Counts as capacity-style
    /// eviction. Returns how many were dropped.
    pub fn evict_all(&self) -> u64 {
        let mut inner = self.inner.lock();
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        inner.order.clear();
        drop(inner);
        if dropped > 0 {
            self.evicted_capacity.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// A portable image of every live, unexpired session plus the signing
    /// key, id seed, and mint clock — the session half of a serving-state
    /// snapshot. Fully aged sessions are omitted rather than exported at
    /// zero remaining TTL.
    pub fn export(&self) -> SessionExport {
        let now = self.now_ms();
        let inner = self.inner.lock();
        let entries = inner
            .order
            .iter()
            .filter_map(|(&stamp, &id)| {
                let e = inner.map.get(&id)?;
                let remaining = e.expires_ms.saturating_sub(now);
                (remaining > 0).then(|| SessionRecord {
                    id,
                    stamp,
                    remaining_ms: remaining,
                    scope: e.scope.clone(),
                    cursor_json: e.cursor_json.clone(),
                })
            })
            .collect();
        SessionExport {
            key: inner.key,
            seed: inner.seed,
            clock: self.clock.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Restores sessions from `export`, adopting its signing key and id
    /// seed (outstanding client tokens keep verifying; future mints stay
    /// collision-free) and advancing the mint clock past the exporter's.
    /// Each restored session keeps only its **remaining** TTL from export
    /// time — a session restored halfway through its TTL still expires on
    /// the original schedule. Records with no TTL left, colliding
    /// ids/stamps, or beyond capacity (newest stamps win) are skipped.
    /// Returns how many sessions were restored.
    pub fn import(&self, export: SessionExport) -> u64 {
        let now = self.now_ms();
        let ttl = self.ttl_ms();
        self.clock.fetch_max(export.clock, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.key = export.key;
        inner.seed = export.seed;
        let mut restored = 0;
        // Newest stamps first, so the capacity bound sheds the oldest.
        for rec in export.entries.into_iter().rev() {
            if rec.remaining_ms == 0
                || inner.map.len() >= self.capacity
                || inner.map.contains_key(&rec.id)
                || inner.order.contains_key(&rec.stamp)
            {
                continue;
            }
            // Expiry lands at `now + remaining` on this store's timeline
            // (clamped to the full TTL, so a store with a shorter TTL
            // never grants imported sessions more than it grants its own).
            let expires_ms = now + rec.remaining_ms.min(ttl);
            inner.map.insert(
                rec.id,
                Entry {
                    cursor_json: rec.cursor_json,
                    scope: rec.scope,
                    stamp: rec.stamp,
                    expires_ms,
                },
            );
            inner.order.insert(rec.stamp, rec.id);
            restored += 1;
        }
        restored
    }

    /// Current statistics.
    pub fn stats(&self) -> SessionStats {
        let live = self.inner.lock().map.len() as u64;
        let evicted_capacity = self.evicted_capacity.load(Ordering::Relaxed);
        let expired_ttl = self.expired_ttl.load(Ordering::Relaxed);
        SessionStats {
            created: self.created.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            evicted_capacity,
            expired_ttl,
            live,
        }
    }

    /// Drops every session past its expiry deadline; returns how many.
    fn purge_expired(&self, inner: &mut Inner, now_ms: u64) -> u64 {
        let mut dropped = 0;
        while let Some((&stamp, &id)) = inner.order.iter().next() {
            let stale = inner.map.get(&id).is_none_or(|e| now_ms >= e.expires_ms);
            if !stale {
                // Order is insertion order, the TTL is fixed, and imports
                // clamp remaining TTL, so expiry is monotone in stamp: the
                // oldest live entry bounds every other entry's deadline.
                break;
            }
            inner.order.remove(&stamp);
            if inner.map.remove(&id).is_some() {
                dropped += 1;
            }
        }
        dropped
    }
}

fn token_for(key: (u64, u64), id: u64) -> String {
    let mac = siphash24(key.0, key.1, &id.to_le_bytes());
    format!("{TOKEN_PREFIX}.{id:016x}.{mac:016x}")
}

/// Parses and authenticates a token; `Some(id)` only when the MAC
/// verifies under `key`.
fn verify(key: (u64, u64), token: &str) -> Option<u64> {
    let rest = token.strip_prefix(TOKEN_PREFIX)?.strip_prefix('.')?;
    let (id_hex, mac_hex) = rest.split_once('.')?;
    if id_hex.len() != 16 || mac_hex.len() != 16 {
        return None;
    }
    let id = u64::from_str_radix(id_hex, 16).ok()?;
    let mac = u64::from_str_radix(mac_hex, 16).ok()?;
    let expected = siphash24(key.0, key.1, &id.to_le_bytes());
    (mac == expected).then_some(id)
}

/// Process-level entropy for the signing key and id stream. The vendored
/// `rand` is deterministic by design (reproducible benchmarks), so the key
/// comes from the wall clock, the pid, and ASLR instead.
fn entropy() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);
    let stack = &nanos as *const u64 as u64;
    splitmix64(nanos ^ (u64::from(std::process::id()) << 32) ^ stack.rotate_left(17))
}

/// SplitMix64: the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SipHash-2-4 (Aumasson & Bernstein) over `data` under key `(k0, k1)`.
fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
    let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
    let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;

    macro_rules! round {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        v3 ^= m;
        round!();
        round!();
        v0 ^= m;
    }
    let tail = chunks.remainder();
    let mut last = (data.len() as u64) << 56;
    for (i, &b) in tail.iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    v3 ^= last;
    round!();
    round!();
    v0 ^= last;
    v2 ^= 0xff;
    round!();
    round!();
    round!();
    round!();
    v0 ^ v1 ^ v2 ^ v3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize) -> SessionStore {
        SessionStore::new(capacity, Duration::from_secs(60))
    }

    #[test]
    fn siphash24_matches_the_reference_vector() {
        // The reference test vector from the SipHash paper (appendix A):
        // key 00..0f, message 00..0e.
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(siphash24(k0, k1, &msg), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn mint_take_round_trips_and_consumes() {
        let store = store(8);
        let token = store.mint("{\"cursor\":1}".into());
        assert!(token.starts_with("cn1."));
        assert_eq!(store.take(&token).as_deref(), Ok("{\"cursor\":1}"));
        // Take semantics: the same token replayed is gone, not invalid.
        assert_eq!(store.take(&token), Err(SessionError::Expired));
        let stats = store.stats();
        assert_eq!((stats.created, stats.resumed, stats.expired), (1, 1, 1));
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn tampered_and_malformed_tokens_are_invalid() {
        let store = store(8);
        let token = store.mint("{}".into());
        // Flip one hex digit of the MAC.
        let mut forged = token.clone();
        let last = forged.pop().unwrap();
        forged.push(if last == '0' { '1' } else { '0' });
        assert_eq!(store.take(&forged), Err(SessionError::Invalid));
        for junk in [
            "",
            "cn1",
            "cn1..",
            "cn1.zz.zz",
            "cn2.0.0",
            &token[..token.len() - 2],
        ] {
            assert_eq!(store.take(junk), Err(SessionError::Invalid), "{junk:?}");
        }
        // The genuine token still works after all the failed attempts.
        assert_eq!(store.take(&token).as_deref(), Ok("{}"));
        assert!(store.stats().invalid >= 6);
    }

    #[test]
    fn capacity_evicts_the_oldest_session() {
        let store = store(2);
        let first = store.mint("one".into());
        let second = store.mint("two".into());
        let third = store.mint("three".into());
        assert_eq!(store.take(&first), Err(SessionError::Expired));
        assert_eq!(store.take(&second).as_deref(), Ok("two"));
        assert_eq!(store.take(&third).as_deref(), Ok("three"));
        let stats = store.stats();
        // The drop was a capacity squeeze, not a TTL lapse.
        assert_eq!(stats.evicted_capacity, 1);
        assert_eq!(stats.expired_ttl, 0);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn ttl_expires_sessions() {
        let store = SessionStore::new(8, Duration::from_millis(10));
        let token = store.mint("stale".into());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(store.take(&token), Err(SessionError::Expired));
        let stats = store.stats();
        // The drop was a TTL lapse, not a capacity squeeze.
        assert_eq!(stats.expired_ttl, 1);
        assert_eq!(stats.evicted_capacity, 0);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn tokens_from_another_store_do_not_verify() {
        let a = store(8);
        let b = store(8);
        let token = a.mint("{}".into());
        // A different process key means the MAC cannot verify.
        assert_eq!(b.take(&token), Err(SessionError::Invalid));
    }

    #[test]
    fn scoped_tokens_resume_only_under_their_own_scope() {
        let store = store(8);
        let token = store.mint_scoped("{\"page\":2}".into(), "alpha@3");
        // Wrong tenant, wrong epoch, and unscoped all answer Expired —
        // the token was real, but that serving scope is gone.
        let stale = store.mint_scoped("{}".into(), "alpha@3");
        assert_eq!(
            store.take_scoped(&stale, "alpha@4"),
            Err(SessionError::Expired)
        );
        let other = store.mint_scoped("{}".into(), "alpha@3");
        assert_eq!(
            store.take_scoped(&other, "beta@3"),
            Err(SessionError::Expired)
        );
        assert_eq!(
            store.take_scoped(&token, "alpha@3").as_deref(),
            Ok("{\"page\":2}")
        );
        // A scope mismatch consumes the session: retrying with the right
        // scope afterwards is too late.
        let consumed = store.mint_scoped("{}".into(), "alpha@3");
        assert_eq!(
            store.take_scoped(&consumed, "alpha@4"),
            Err(SessionError::Expired)
        );
        assert_eq!(
            store.take_scoped(&consumed, "alpha@3"),
            Err(SessionError::Expired)
        );
    }

    #[test]
    fn unscoped_mint_and_scoped_mint_do_not_cross() {
        let store = store(8);
        let unscoped = store.mint("{}".into());
        assert_eq!(
            store.take_scoped(&unscoped, "t@1"),
            Err(SessionError::Expired)
        );
        let scoped = store.mint_scoped("{}".into(), "t@1");
        assert_eq!(store.take(&scoped), Err(SessionError::Expired));
    }

    #[test]
    fn distinct_sessions_get_distinct_tokens() {
        let store = store(64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            assert!(seen.insert(store.mint(format!("{i}"))));
        }
    }

    #[test]
    fn export_import_round_trips_tokens_and_scopes() {
        let a = store(8);
        let unscoped = a.mint("{\"p\":1}".into());
        let scoped = a.mint_scoped("{\"p\":2}".into(), "t@3");
        let export = a.export();
        assert_eq!(export.entries.len(), 2);

        let b = store(8);
        assert_eq!(b.import(export), 2);
        // Tokens minted by A verify and resume on B: the signing key was
        // adopted, the cursors and scopes came across intact.
        assert_eq!(b.take(&unscoped).as_deref(), Ok("{\"p\":1}"));
        assert_eq!(b.take_scoped(&scoped, "t@3").as_deref(), Ok("{\"p\":2}"));
        // A's copies are untouched (export is a copy, not a move).
        assert_eq!(a.take(&unscoped).as_deref(), Ok("{\"p\":1}"));
    }

    #[test]
    fn import_keeps_future_mints_collision_free() {
        let a = store(8);
        let old = a.mint("old".into());
        let b = store(8);
        assert_eq!(b.import(a.export()), 1);
        // B adopted A's seed and advanced its clock past A's, so a fresh
        // mint on B cannot re-derive an exported id/token.
        let fresh = b.mint("fresh".into());
        assert_ne!(fresh, old);
        assert_eq!(b.take(&old).as_deref(), Ok("old"));
        assert_eq!(b.take(&fresh).as_deref(), Ok("fresh"));
    }

    #[test]
    fn import_respects_capacity_keeping_newest() {
        let a = store(8);
        let oldest = a.mint("one".into());
        let newer = a.mint("two".into());
        let newest = a.mint("three".into());
        let b = store(2);
        assert_eq!(b.import(a.export()), 2);
        assert_eq!(b.take(&oldest), Err(SessionError::Expired));
        assert_eq!(b.take(&newer).as_deref(), Ok("two"));
        assert_eq!(b.take(&newest).as_deref(), Ok("three"));
    }

    #[test]
    fn restored_sessions_expire_on_the_original_schedule() {
        // The satellite-1 regression: a session restored halfway through
        // its TTL keeps only the *remaining* TTL. Had import reset the
        // clock, the aged token below would survive its second nap
        // (500 ms < 600 ms TTL); on the original schedule it is gone
        // (250 ms + 500 ms > 600 ms).
        let ttl = Duration::from_millis(600);
        let a = SessionStore::new(8, ttl);
        let prompt = a.mint("prompt".into());
        let aged = a.mint("aged".into());
        std::thread::sleep(Duration::from_millis(250));
        let export = a.export();
        assert_eq!(export.entries.len(), 2);
        for rec in &export.entries {
            assert!(rec.remaining_ms < 600, "TTL already part-spent");
            assert!(rec.remaining_ms > 0);
        }

        let b = SessionStore::new(8, ttl);
        assert_eq!(b.import(export), 2);
        // Straight after restore the sessions are still live.
        assert_eq!(b.take(&prompt).as_deref(), Ok("prompt"));
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(b.take(&aged), Err(SessionError::Expired));
        assert!(b.stats().expired_ttl >= 1, "lapse counted as TTL expiry");
    }

    #[test]
    fn fully_aged_sessions_are_not_exported() {
        let a = SessionStore::new(8, Duration::from_millis(10));
        let _ = a.mint("stale".into());
        std::thread::sleep(Duration::from_millis(20));
        assert!(a.export().entries.is_empty());
    }
}
