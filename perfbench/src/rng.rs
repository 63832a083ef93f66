//! The benchmark's seeded input generator. Every input a workload sends
//! to the program is drawn from this stream, so the same `--seed` gives
//! the same inputs.

/// SplitMix64, split into independent streams by a stream tag.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream `stream` of seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, stream: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed, stream);
        (0..16).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(draws(1, 0), draws(1, 0));
        assert_ne!(draws(1, 0), draws(2, 0));
        assert_ne!(draws(1, 0), draws(1, 1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..9).collect();
            Rng::new(seed, 3).shuffle(&mut v);
            v
        };
        let a = shuffled(7);
        assert_eq!(a, shuffled(7));
        assert_ne!(a, shuffled(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = Rng::new(5, 0);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(7) < 7);
        }
    }
}
