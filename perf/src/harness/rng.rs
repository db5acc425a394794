//! A small seeded generator (SplitMix64) so scripts depend on nothing but
//! the seed: the same seed gives byte-identical scripts on every platform.

/// SplitMix64: a 64-bit state, one multiply-xorshift output per step.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x6A09_E667_F3BC_C909);
        rng.next_u64();
        rng
    }

    /// An independent stream for one purpose (`tag`) of this seed.
    pub fn fork(&self, tag: u64) -> Rng {
        Rng::new(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(9);
        let mut y = Rng::new(10);
        assert_ne!(x.next_u64(), y.next_u64());
        let base = Rng::new(9);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
