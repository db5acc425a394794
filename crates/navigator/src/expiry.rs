//! The engine's one amortized wall-clock deadline check.

use std::time::Instant;

/// Reads the clock on the first tick and once every 64 after it
/// (`Instant::now` is cheap but not free against sub-microsecond steps)
/// and stays expired once it has fired, so an already-expired deadline
/// stops a run before its first step. Callers stop at the first `true`.
pub(crate) struct Expiry {
    deadline: Option<Instant>,
    ticks: u32,
    fired: bool,
}

impl Expiry {
    /// Checks once every 64 expansions, pops, or pulls.
    pub(crate) fn per_step(deadline: Option<Instant>) -> Expiry {
        Expiry {
            deadline,
            ticks: 0,
            fired: false,
        }
    }

    /// Counts one step; `true` once the deadline has passed.
    pub(crate) fn tick(&mut self) -> bool {
        if !self.fired {
            self.ticks = self.ticks.wrapping_add(1);
            self.fired =
                self.ticks & 0x3F == 1 && self.deadline.is_some_and(|d| Instant::now() >= d);
        }
        self.fired
    }

    /// Whether a tick has seen the deadline pass.
    pub(crate) fn fired(&self) -> bool {
        self.fired
    }
}
