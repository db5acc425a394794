//! The event loop's connection deadlines: one min-heap of
//! `(deadline, token, seq)` entries.
//!
//! Entries pair the connection slab token with a per-connection sequence
//! number. A connection has at most one entry: re-arming its deadline
//! while the entry is queued only moves the deadline, the entry fires at
//! the old deadline and the loop re-inserts it at the live one (see
//! `event.rs`), and a disarmed entry retires when it fires. A closed
//! connection's entry also stays until it fires, so the heap holds the
//! live connections plus those closed within the last keep-alive window:
//! O(connections), not O(re-arms).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Granularity of the epoll timeout. Connection deadlines are hundreds
/// of milliseconds to seconds, so up to 10 ms of lateness is invisible
/// to the wire semantics, and rounding up keeps the loop from waking
/// more than once a tick for timers.
const TICK_MS: u64 = 10;

/// Every connection deadline — idle keep-alive, mid-request read, and
/// write-stall — as one `(token, seq)` entry, earliest first.
#[derive(Default)]
pub struct Timers {
    heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
}

impl Timers {
    /// Queued entries (stale sequences included until they fire).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `(token, seq)` to fire at `deadline`; a past deadline
    /// fires on the next `advance`.
    pub fn insert(&mut self, deadline: Instant, token: u64, seq: u64) {
        self.heap.push(Reverse((deadline, token, seq)));
    }

    /// Drains every entry due at or before `now` into `fired`.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<(u64, u64)>) {
        while let Some(&Reverse((deadline, token, seq))) = self.heap.peek() {
            if deadline > now {
                return;
            }
            self.heap.pop();
            fired.push((token, seq));
        }
    }

    /// How long an epoll wait may block: until the earliest deadline,
    /// rounded up to a whole number of ticks (at least one). `None`
    /// means no timers are queued (block indefinitely).
    pub fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        let Reverse((deadline, _, _)) = self.heap.peek()?;
        let wait = deadline.saturating_duration_since(now);
        let tick = Duration::from_millis(TICK_MS);
        let ticks = wait.as_nanos().div_ceil(tick.as_nanos()).max(1);
        Some(tick * u32::try_from(ticks).unwrap_or(u32::MAX))
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
        let mut timers = Timers::default();
        timers.insert(at(origin, 100), 1, 10);
        timers.insert(at(origin, 300), 2, 20);

        let mut fired = Vec::new();
        timers.advance(at(origin, 50), &mut fired);
        assert!(fired.is_empty(), "nothing due at 50ms");

        timers.advance(at(origin, 120), &mut fired);
        assert_eq!(fired, vec![(1, 10)]);
        assert_eq!(timers.len(), 1);

        fired.clear();
        timers.advance(at(origin, 400), &mut fired);
        assert_eq!(fired, vec![(2, 20)]);
        assert_eq!(timers.len(), 0, "the heap drained");
    }

    #[test]
    fn far_deadlines_do_not_fire_early() {
        let origin = Instant::now();
        let mut timers = Timers::default();
        let far_ms = 7_750;
        timers.insert(at(origin, 70), 1, 1);
        timers.insert(at(origin, far_ms), 2, 2);

        let mut fired = Vec::new();
        // Sweep in coarse steps well past the near deadline.
        let mut t = 0;
        while t + 1000 < far_ms - 500 {
            t += 1000;
            timers.advance(at(origin, t), &mut fired);
        }
        assert_eq!(fired, vec![(1, 1)], "the far entry must not fire early");

        fired.clear();
        timers.advance(at(origin, far_ms + TICK_MS), &mut fired);
        assert_eq!(fired, vec![(2, 2)]);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let origin = Instant::now();
        let mut timers = Timers::default();
        let mut fired = Vec::new();
        timers.advance(at(origin, 1_000), &mut fired);
        // Deadline already in the past.
        timers.insert(at(origin, 200), 9, 9);
        timers.advance(at(origin, 1_000 + TICK_MS), &mut fired);
        assert_eq!(fired, vec![(9, 9)]);
    }

    #[test]
    fn poll_timeout_tracks_the_soonest_entry() {
        let origin = Instant::now();
        let mut timers = Timers::default();
        assert_eq!(timers.poll_timeout(at(origin, 0)), None);

        timers.insert(at(origin, 5_000), 1, 1);
        timers.insert(at(origin, 200), 2, 2);
        let timeout = timers.poll_timeout(at(origin, 0)).unwrap();
        assert!(
            timeout <= Duration::from_millis(200 + TICK_MS),
            "timeout {timeout:?} overshoots the 200ms deadline"
        );

        let mut fired = Vec::new();
        timers.advance(at(origin, 250), &mut fired);
        assert_eq!(fired, vec![(2, 2)]);
        // After draining the near entry the bound moves to the far one.
        let timeout = timers.poll_timeout(at(origin, 250)).unwrap();
        assert!(
            timeout > Duration::from_secs(3),
            "stale soonest: {timeout:?}"
        );
    }
}
