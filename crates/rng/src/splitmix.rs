//! SplitMix64: a tiny, fast generator used for seed expansion and for the
//! *scheduler* entropy stream in the hardware simulator.
//!
//! SplitMix64 has excellent avalanche behaviour, which makes it the right
//! tool where we explicitly *want* an unreplayable-looking walk from a
//! seed: the simulated GPU scheduler's interleaving decisions.
//!
//! Its state is a Weyl sequence — every draw adds the constant `GAMMA`
//! and then mixes — so, like [`crate::Philox`], it allows random access:
//! draw *k* after state `s0` is `mix(s0 + (k + 1)·GAMMA)`, and
//! [`SplitMix64::advance`] skips any number of draws in O(1).

use serde::{Deserialize, Serialize};

/// The Weyl increment added to the state before every draw (the odd
/// integer closest to 2⁶⁴/φ).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator.
///
/// # Example
///
/// ```
/// use detrand::SplitMix64;
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The current internal state.
    ///
    /// Together with [`SplitMix64::new`] this makes the generator
    /// checkpointable: `SplitMix64::new(g.state())` resumes exactly where
    /// `g` left off (the state *is* the seed of the continuation).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skips `n` draws in O(1): afterwards the generator is exactly where
    /// `n` calls to [`SplitMix64::next_u64`] would have left it.
    ///
    /// ```
    /// use detrand::SplitMix64;
    /// let mut stepped = SplitMix64::new(9);
    /// for _ in 0..5 {
    ///     stepped.next_u64();
    /// }
    /// let mut jumped = SplitMix64::new(9);
    /// jumped.advance(5);
    /// assert_eq!(jumped, stepped);
    /// ```
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below bound must be positive");
        ((self.next_u64() >> 32).wrapping_mul(bound as u64) >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Splits off an independent generator (the "split" in SplitMix).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // First output of SplitMix64 with seed 0 (reference value used by
        // the xoshiro project's seeding procedure).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn split_streams_differ() {
        let mut g = SplitMix64::new(7);
        let mut a = g.split();
        let mut b = g.split();
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut g = SplitMix64::new(1234);
        for _ in 0..17 {
            g.next_u64();
        }
        let mut resumed = SplitMix64::new(g.state());
        for _ in 0..32 {
            assert_eq!(g.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn advance_equals_repeated_next() {
        for seed in [0, 1234, u64::MAX - 3] {
            for n in [0u64, 1, 7, 10_000] {
                let mut stepped = SplitMix64::new(seed);
                for _ in 0..n {
                    stepped.next_u64();
                }
                let mut jumped = SplitMix64::new(seed);
                jumped.advance(n);
                assert_eq!(jumped, stepped, "seed {seed}, n {n}");
                assert_eq!(jumped.next_u64(), stepped.next_u64());
            }
        }
    }

    #[test]
    fn advance_wraps_around_u64() {
        // The first draw from this seed carries the state past 2⁶⁴; jumps
        // across the wrap must match stepping across it.
        let seed = u64::MAX - 5;
        let mut stepped = SplitMix64::new(seed);
        for n in 1..=5u64 {
            stepped.next_u64();
            let mut jumped = SplitMix64::new(seed);
            jumped.advance(n);
            assert_eq!(jumped, stepped, "n {n}");
        }
        let mut once = SplitMix64::new(seed);
        once.next_u64();
        assert!(once.state() < seed, "state must have wrapped");
        // advance(a) then advance(b) equals advance(a + b), even when the
        // product n·GAMMA overflows.
        let mut split = SplitMix64::new(seed);
        split.advance(u64::MAX / 3);
        split.advance(u64::MAX / 3 + 11);
        let mut whole = SplitMix64::new(seed);
        whole.advance(2 * (u64::MAX / 3) + 11);
        assert_eq!(split, whole);
    }

    #[test]
    fn next_below_in_range() {
        let mut g = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(g.next_below(17) < 17);
        }
    }
}
