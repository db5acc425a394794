//! Percentiles and run-to-run summaries.
//!
//! Latency percentiles use the nearest-rank rule and are reported only
//! when at least ten samples lie beyond them: p90 needs 100 samples, p99
//! needs 1000. Quartiles over repeated runs follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads printed by `--repeat` are the ones an outside check computes.

use super::rng::Rng;

/// Latency samples held in memory allocated and touched before the window
/// starts: the first [`Reservoir::CAPACITY`] samples, then a seeded
/// uniform reservoir. The benchmark's own memory thus stays the same
/// whatever the throughput, and does not leak into `peak_rss_mb`.
#[derive(Debug)]
pub struct Reservoir {
    slots: Vec<u64>,
    filled: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// Samples kept per connection (2 MiB).
    pub const CAPACITY: usize = 1 << 18;

    /// An empty reservoir with every slot already resident.
    pub fn new(seed: u64) -> Reservoir {
        Reservoir {
            slots: vec![u64::MAX; Self::CAPACITY],
            filled: 0,
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.filled < self.slots.len() {
            self.slots[self.filled] = value;
            self.filled += 1;
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.slots.get_mut(j as usize) {
                *slot = value;
            }
        }
    }

    /// The samples kept.
    pub fn samples(&self) -> &[u64] {
        &self.slots[..self.filled]
    }

    /// Samples recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Samples a percentile needs before it is reported: ten beyond it.
pub(crate) fn min_samples(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// The nearest-rank `p`-th percentile of ascending `sorted`: the value at
/// 1-based rank `ceil(p/100 · n)`. `None` when the sample is too small to
/// have ten samples beyond the percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || (p > 50.0 && sorted.len() < min_samples(p)) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` computes them
/// (exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), Some(100.0));
        assert_eq!(percentile(&data, 90.0), Some(180.0));
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&odd, 50.0), Some(3.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 90.0), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0), Some(90.0));
        let under: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&under, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_samples() {
        let mut r = Reservoir::new(1);
        for v in 0..10 {
            r.record(v);
        }
        assert_eq!(r.samples(), (0..10).collect::<Vec<_>>().as_slice());
        for v in 0..Reservoir::CAPACITY as u64 {
            r.record(v + 10);
        }
        assert_eq!(r.samples().len(), Reservoir::CAPACITY);
        assert_eq!(r.seen(), Reservoir::CAPACITY as u64 + 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
