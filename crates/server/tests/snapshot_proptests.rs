//! Property-based tests for the snapshot decoder's totality.
//!
//! The contract (the PR's hardening satellite): `snapshot::decode` never
//! trusts a length field and never panics. Over *arbitrary* input —
//! truncations, bit flips, random byte soup, and adversarially huge
//! declared counts — it returns a `DecodeError`; a well-formed snapshot
//! with any single corruption applied must be rejected, never
//! half-accepted.

use coursenav_catalog::{CourseId, CourseSet};
use coursenav_navigator::{ExploreStats, PortableEntry, RankedSuffix};
use coursenav_server::session::{SessionExport, SessionRecord};
use coursenav_server::snapshot::{decode, encode, SnapshotFile, TableRecord, TenantRecord};
use proptest::prelude::*;

/// A short lowercase string (the vendored proptest shim has no regex
/// string strategy).
fn arb_name(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 0..max_len)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_set() -> impl Strategy<Value = CourseSet> {
    prop::collection::vec(0u16..CourseSet::CAPACITY as u16, 0..6).prop_map(|ids| {
        let mut set = CourseSet::EMPTY;
        for id in ids {
            set.insert(CourseId::new(id));
        }
        set
    })
}

fn arb_stats() -> impl Strategy<Value = ExploreStats> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| ExploreStats {
        nodes_expanded: a,
        edges_created: b,
        pruned_time: c,
        pruned_availability: a ^ b,
        memo_hits: 0,
        memo_misses: 0,
        memo_evictions: 0,
    })
}

fn arb_entry() -> impl Strategy<Value = PortableEntry> {
    prop_oneof![
        (any::<i32>(), arb_set(), any::<u64>(), arb_stats()).prop_map(
            |(depth, set, total, logical)| PortableEntry::Count {
                key: (depth, set),
                total: u128::from(total),
                goal: u128::from(total / 2),
                logical,
            }
        ),
        (
            any::<i32>(),
            arb_set(),
            any::<u64>(),
            1u64..16,
            prop::collection::vec((0u32..100, prop::collection::vec(arb_set(), 0..3)), 0..4),
        )
            .prop_map(|(depth, set, sig, k, items)| PortableEntry::Ranked {
                key: (depth, set),
                sig,
                k,
                items: items
                    .into_iter()
                    .map(|(cost, selections)| RankedSuffix {
                        cost: f64::from(cost) / 4.0,
                        selections: selections.into(),
                    })
                    .collect(),
            }),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = SnapshotFile> {
    (
        prop::collection::vec(
            (
                arb_name(12),
                1u64..9,
                any::<u64>(),
                prop::collection::vec(
                    (arb_name(24), prop::collection::vec(arb_entry(), 0..4)),
                    0..3,
                ),
            ),
            0..3,
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                0u64..1_000_000,
                arb_name(8),
                arb_name(32),
            ),
            0..4,
        ),
    )
        .prop_map(|(tenants, (k0, k1, seed, clock), sessions)| SnapshotFile {
            tenants: tenants
                .into_iter()
                .map(|(name, epoch, fingerprint, tables)| TenantRecord {
                    name,
                    epoch,
                    fingerprint,
                    tables: tables
                        .into_iter()
                        .map(|(memo_key, entries)| TableRecord { memo_key, entries })
                        .collect(),
                })
                .collect(),
            sessions: SessionExport {
                key: (k0, k1),
                seed,
                clock,
                entries: sessions
                    .into_iter()
                    .map(
                        |(id, stamp, remaining_ms, scope, cursor_json)| SessionRecord {
                            id,
                            stamp,
                            remaining_ms,
                            scope,
                            cursor_json,
                        },
                    )
                    .collect(),
            },
        })
}

proptest! {
    /// Any well-formed snapshot survives its own wire format untouched.
    #[test]
    fn arbitrary_snapshots_round_trip(snap in arb_snapshot()) {
        let bytes = encode(&snap);
        prop_assert_eq!(decode(&bytes), Ok(snap));
    }

    /// Every truncation point rejects: the decoder never reads past the
    /// input and never accepts a file whose checksum bytes are missing.
    #[test]
    fn truncation_anywhere_is_rejected(snap in arb_snapshot(), cut in any::<u64>()) {
        let bytes = encode(&snap);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    /// Every single-byte corruption rejects — the checksum covers the
    /// whole body, so no flipped bit can smuggle state in.
    #[test]
    fn bit_flips_anywhere_are_rejected(
        snap in arb_snapshot(),
        pos in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&snap);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        prop_assert!(decode(&bytes).is_err());
    }

    /// Decoding is total over random byte soup: an error, never a panic,
    /// never a runaway allocation (hostile counts are bounded by the
    /// bytes actually present).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(decode(&bytes).is_err());
    }

    /// A tenant count claiming millions of elements in a kilobyte-sized
    /// file is rejected *on the length itself*: the hostile file is
    /// re-checksummed, so integrity checking cannot be what saves us —
    /// only the count-versus-remaining-bytes validation can.
    #[test]
    fn adversarial_tenant_counts_are_rejected(
        snap in arb_snapshot(),
        big in (1u32 << 20)..=u32::MAX,
    ) {
        let bytes = encode(&snap);
        // Tenant count sits right after magic (8) + version (4).
        let mut hostile = bytes[..bytes.len() - 8].to_vec();
        hostile[12..16].copy_from_slice(&big.to_le_bytes());
        hostile.extend_from_slice(&refnv(&hostile).to_le_bytes());
        prop_assert!(decode(&hostile).is_err());
    }

    /// Splicing a hostile u32 *anywhere* (re-checksummed) never panics
    /// and never hangs: whatever field it lands on — a count, a string
    /// length, plain data — decoding remains total.
    #[test]
    fn spliced_length_fields_never_panic(snap in arb_snapshot(), pos in any::<u64>()) {
        let bytes = encode(&snap);
        let body_len = bytes.len() - 8;
        let pos = (pos % body_len as u64) as usize;
        if pos + 4 <= body_len {
            let mut hostile = bytes[..body_len].to_vec();
            hostile[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            hostile.extend_from_slice(&refnv(&hostile).to_le_bytes());
            let _ = decode(&hostile); // totality is the assertion
        }
    }
}

/// FNV-1a 64 re-implemented here so hostile test files can be
/// re-checksummed independently of the code under test.
fn refnv(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
