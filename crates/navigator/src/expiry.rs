//! The engine's one amortized wall-clock deadline check.

use std::time::Instant;

/// Reads the clock once every `mask + 1` ticks (`Instant::now` is cheap
/// but not free against sub-microsecond steps) and stays expired once it
/// has fired. Callers stop at the first `true`.
pub(crate) struct Expiry {
    deadline: Option<Instant>,
    mask: u32,
    ticks: u32,
    fired: bool,
}

impl Expiry {
    /// Checks once every 256 leaf visits: leaves outnumber interior nodes,
    /// so the check cannot starve on a deep branch.
    pub(crate) fn per_leaf(deadline: Option<Instant>) -> Expiry {
        Expiry::with_mask(deadline, 0xFF)
    }

    /// Checks once every 64 expansions, pops, or pulls.
    pub(crate) fn per_step(deadline: Option<Instant>) -> Expiry {
        Expiry::with_mask(deadline, 0x3F)
    }

    fn with_mask(deadline: Option<Instant>, mask: u32) -> Expiry {
        Expiry {
            deadline,
            mask,
            ticks: 0,
            fired: false,
        }
    }

    /// Counts one step; `true` once the deadline has passed.
    pub(crate) fn tick(&mut self) -> bool {
        if !self.fired {
            self.ticks = self.ticks.wrapping_add(1);
            self.fired =
                self.ticks & self.mask == 1 && self.deadline.is_some_and(|d| Instant::now() >= d);
        }
        self.fired
    }

    /// Whether a tick has seen the deadline pass.
    pub(crate) fn fired(&self) -> bool {
        self.fired
    }
}
