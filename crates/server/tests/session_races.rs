//! Concurrency hammer for the resumable-session store: minting, racing
//! resumes, capacity pressure, and full evictions all at once. The two
//! invariants that must survive any interleaving:
//!
//! 1. **Single use.** A token is honored at most once, ever — two racing
//!    resumes of the same token never both succeed.
//! 2. **Conservation.** Every minted session is accounted for exactly
//!    once: `resumed + evicted-capacity + expired-ttl + live == created`
//!    at quiescence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coursenav_server::session::{SessionError, SessionStore};

#[test]
fn racing_resumes_honor_a_token_at_most_once() {
    let store = Arc::new(SessionStore::new(4096, Duration::from_secs(60)));
    const MINTERS: usize = 4;
    const TOKENS_PER_MINTER: usize = 150;
    const RACERS_PER_TOKEN: usize = 4;
    let wins_total = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for minter in 0..MINTERS {
            let store = Arc::clone(&store);
            let wins_total = &wins_total;
            scope.spawn(move || {
                for i in 0..TOKENS_PER_MINTER {
                    let token = store.mint(format!("{{\"minter\":{minter},\"i\":{i}}}"));
                    // Several threads race to consume the same token.
                    let wins: u64 = std::thread::scope(|race| {
                        let racers: Vec<_> = (0..RACERS_PER_TOKEN)
                            .map(|_| {
                                let store = Arc::clone(&store);
                                let token = token.as_str();
                                race.spawn(move || match store.take(token) {
                                    Ok(json) => {
                                        // The winner gets the exact bytes
                                        // this minter stored — never some
                                        // other session's cursor.
                                        assert!(
                                            json.contains(&format!("\"minter\":{minter}")),
                                            "cross-session payload leak: {json}"
                                        );
                                        1
                                    }
                                    Err(SessionError::Expired) => 0,
                                    Err(SessionError::Invalid) => {
                                        panic!("a genuine token can never be Invalid")
                                    }
                                })
                            })
                            .collect();
                        racers.into_iter().map(|r| r.join().unwrap()).sum()
                    });
                    assert!(wins <= 1, "token honored {wins} times");
                    wins_total.fetch_add(wins, Ordering::Relaxed);
                }
            });
        }
    });

    let stats = store.stats();
    let wins = wins_total.load(Ordering::Relaxed);
    assert_eq!(stats.created, (MINTERS * TOKENS_PER_MINTER) as u64);
    assert_eq!(stats.resumed, wins, "every win is one resume");
    // Nothing evicted (capacity is ample, TTL long), so the losers all
    // surfaced as replays of consumed sessions.
    assert_eq!(
        stats.resumed + stats.evicted_capacity + stats.expired_ttl + stats.live,
        stats.created,
        "sessions are conserved: {stats:?}"
    );
    assert_eq!(
        stats.expired,
        (MINTERS * TOKENS_PER_MINTER * RACERS_PER_TOKEN) as u64 - wins,
        "every losing racer saw Expired exactly once: {stats:?}"
    );
}

#[test]
fn evictions_and_capacity_pressure_never_double_honor_or_lose_sessions() {
    // A small store under concurrent mint/resume load while an evictor
    // thread repeatedly flushes it: tokens may die (Expired) but are never
    // honored twice, and the accounting conserves every session.
    let store = Arc::new(SessionStore::new(8, Duration::from_secs(60)));
    let stop = Arc::new(AtomicBool::new(false));
    let wins_total = AtomicU64::new(0);
    const WORKERS: usize = 6;
    const PER_WORKER: usize = 300;

    std::thread::scope(|scope| {
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    store.evict_all();
                    std::thread::yield_now();
                }
            });
        }
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let store = Arc::clone(&store);
                let wins_total = &wins_total;
                scope.spawn(move || {
                    for i in 0..PER_WORKER {
                        let token = store.mint(format!("{{\"w\":{w},\"i\":{i}}}"));
                        // Two immediate racing takes per token.
                        let wins: u64 = std::thread::scope(|race| {
                            let a = {
                                let store = Arc::clone(&store);
                                let token = token.as_str();
                                race.spawn(move || u64::from(store.take(token).is_ok()))
                            };
                            let b = {
                                let store = Arc::clone(&store);
                                let token = token.as_str();
                                race.spawn(move || u64::from(store.take(token).is_ok()))
                            };
                            a.join().unwrap() + b.join().unwrap()
                        });
                        assert!(wins <= 1, "token honored {wins} times under eviction");
                        wins_total.fetch_add(wins, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });

    let stats = store.stats();
    assert_eq!(stats.created, (WORKERS * PER_WORKER) as u64);
    assert_eq!(stats.resumed, wins_total.load(Ordering::Relaxed));
    assert_eq!(
        stats.resumed + stats.evicted_capacity + stats.expired_ttl + stats.live,
        stats.created,
        "eviction storms must not lose or duplicate sessions: {stats:?}"
    );
}
