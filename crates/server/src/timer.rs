//! A single timer wheel for the event loop's connection deadlines.
//!
//! PR 2's idle/408 semantics were enforced per thread via socket read
//! timeouts; the event-driven core replaces all of that with one wheel
//! the loop consults between epoll waits. Entries are `(token, seq)`
//! pairs — the connection slab token plus a per-connection sequence
//! number. A connection has at most one entry: re-arming its deadline
//! while the entry is queued only moves the deadline, the entry fires
//! early and the loop re-inserts it at the real deadline (see
//! `event.rs`), and a disarmed entry retires when it fires. A closed
//! connection's entry also stays until it fires, so the wheel holds the
//! live connections plus those closed within the last keep-alive window:
//! O(connections), not O(re-arms).
//!
//! The wheel is deliberately dumb: fixed 10 ms ticks, a fixed ring of
//! slots, absolute tick numbers so entries beyond one rotation simply
//! survive until the cursor comes around again.

use std::time::{Duration, Instant};

/// Tick granularity. Connection deadlines are hundreds of milliseconds
/// to seconds, so ±10 ms of slop is invisible to the wire semantics.
pub const TICK_MS: u64 = 10;

/// Ring size: one rotation covers 2.56 s; longer deadlines ride the
/// ring for multiple rotations (the absolute tick disambiguates).
const SLOTS: usize = 256;

#[derive(Clone, Copy)]
struct Entry {
    /// Absolute tick number at which this entry is due.
    due_tick: u64,
    token: u64,
    seq: u64,
}

/// The event loop's single timer wheel: every connection deadline —
/// idle keep-alive, mid-request read, and write-stall — lives here as
/// one `(token, seq)` entry, replacing the per-socket kernel timeouts
/// of the thread-per-connection model.
pub struct TimerWheel {
    origin: Instant,
    slots: Vec<Vec<Entry>>,
    /// Last tick the cursor has fully drained.
    cursor: u64,
    len: usize,
    /// Lower bound on the earliest due tick (exact except transiently
    /// after a drain; recomputed lazily).
    soonest: u64,
}

impl TimerWheel {
    /// An empty wheel with `origin` as tick zero.
    pub fn new(origin: Instant) -> Self {
        TimerWheel {
            origin,
            slots: vec![Vec::new(); SLOTS],
            cursor: 0,
            len: 0,
            soonest: u64::MAX,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_millis() as u64 / TICK_MS
    }

    /// Live entries on the wheel (stale sequences included until they
    /// drain).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `(token, seq)` to fire at `deadline`. Deadlines at or
    /// before the cursor are rounded up to the next tick so they fire
    /// on the next `advance`.
    pub fn insert(&mut self, deadline: Instant, token: u64, seq: u64) {
        let due_tick = self.tick_of(deadline).max(self.cursor + 1);
        let slot = (due_tick % SLOTS as u64) as usize;
        self.slots[slot].push(Entry {
            due_tick,
            token,
            seq,
        });
        self.len += 1;
        self.soonest = self.soonest.min(due_tick);
    }

    /// Drains every entry due at or before `now` into `fired`.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<(u64, u64)>) {
        let now_tick = self.tick_of(now);
        if now_tick <= self.cursor || self.len == 0 {
            self.cursor = self.cursor.max(now_tick);
            return;
        }
        // Walk each slot the cursor passes, at most one full rotation —
        // a slot visited twice in one sweep would drain the same
        // entries on the first visit anyway.
        let steps = (now_tick - self.cursor).min(SLOTS as u64);
        for step in 1..=steps {
            let tick = self.cursor + step;
            let slot = (tick % SLOTS as u64) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].due_tick <= now_tick {
                    let e = bucket.swap_remove(i);
                    fired.push((e.token, e.seq));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = now_tick;
        if self.len > 0 && self.soonest <= now_tick {
            // The old lower bound was consumed; recompute exactly.
            self.soonest = self
                .slots
                .iter()
                .flatten()
                .map(|e| e.due_tick)
                .min()
                .unwrap_or(u64::MAX);
        } else if self.len == 0 {
            self.soonest = u64::MAX;
        }
    }

    /// How long an epoll wait may block without overshooting the next
    /// deadline. `None` means no timers are armed (block indefinitely).
    pub fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let now_tick = self.tick_of(now);
        let ticks = self.soonest.saturating_sub(now_tick).max(1);
        Some(Duration::from_millis(ticks * TICK_MS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn entries_fire_at_their_deadline_not_before() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        wheel.insert(at(origin, 100), 1, 10);
        wheel.insert(at(origin, 300), 2, 20);

        let mut fired = Vec::new();
        wheel.advance(at(origin, 50), &mut fired);
        assert!(fired.is_empty(), "nothing due at 50ms");

        wheel.advance(at(origin, 120), &mut fired);
        assert_eq!(fired, vec![(1, 10)]);
        assert_eq!(wheel.len(), 1);

        fired.clear();
        wheel.advance(at(origin, 400), &mut fired);
        assert_eq!(fired, vec![(2, 20)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn deadlines_beyond_one_rotation_survive_the_ring() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        // 3 full rotations out: same slot as a near deadline.
        let far_ms = TICK_MS * SLOTS as u64 * 3 + 70;
        wheel.insert(at(origin, 70), 1, 1);
        wheel.insert(at(origin, far_ms), 2, 2);

        let mut fired = Vec::new();
        // Sweep in coarse steps well past the near deadline.
        let mut t = 0;
        while t + 1000 < far_ms - 500 {
            t += 1000;
            wheel.advance(at(origin, t), &mut fired);
        }
        assert_eq!(fired, vec![(1, 1)], "the far entry must not fire early");

        fired.clear();
        wheel.advance(at(origin, far_ms + TICK_MS), &mut fired);
        assert_eq!(fired, vec![(2, 2)]);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        let mut fired = Vec::new();
        wheel.advance(at(origin, 1_000), &mut fired);
        // Deadline already in the past relative to the cursor.
        wheel.insert(at(origin, 200), 9, 9);
        wheel.advance(at(origin, 1_000 + TICK_MS), &mut fired);
        assert_eq!(fired, vec![(9, 9)]);
    }

    #[test]
    fn poll_timeout_tracks_the_soonest_entry() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        assert_eq!(wheel.poll_timeout(at(origin, 0)), None);

        wheel.insert(at(origin, 5_000), 1, 1);
        wheel.insert(at(origin, 200), 2, 2);
        let timeout = wheel.poll_timeout(at(origin, 0)).unwrap();
        assert!(
            timeout <= Duration::from_millis(200 + TICK_MS),
            "timeout {timeout:?} overshoots the 200ms deadline"
        );

        let mut fired = Vec::new();
        wheel.advance(at(origin, 250), &mut fired);
        assert_eq!(fired, vec![(2, 2)]);
        // After draining the near entry the bound is recomputed.
        let timeout = wheel.poll_timeout(at(origin, 250)).unwrap();
        assert!(
            timeout > Duration::from_secs(3),
            "stale soonest: {timeout:?}"
        );
    }
}
