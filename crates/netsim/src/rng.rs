//! Deterministic random number generation for the simulator.
//!
//! The simulator cannot use a global or time-seeded RNG: every run with the
//! same experiment seed must be bit-identical so that figures regenerate
//! exactly and failures replay. We use SplitMix64, which is tiny and fast —
//! each component (hub backoff, per-rank skew, loss injection) seeds its
//! own stream from the experiment seed xor a per-component salt.

/// A SplitMix64 generator.
///
/// Passes BigCrush for the purposes of this simulator (backoff jitter, start
/// skew, loss coin-flips); not cryptographic.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method so the distribution is
    /// exactly uniform.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let (hi, lo) = mul_wide(x, bound);
            // Rejection zone keeps the mapping unbiased.
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn coin(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

#[inline]
fn mul_wide(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn next_below_hits_all_small_values() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..500 {
            let v = r.range_inclusive(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(r.range_inclusive(5, 5), 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn coin_extremes() {
        let mut r = SplitMix64::new(13);
        assert!(!r.coin(0.0));
        assert!(r.coin(1.0));
    }
}
