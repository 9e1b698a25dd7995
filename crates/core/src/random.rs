//! Sampling utilities: exact selection over big-integer weights, and the
//! keyed SplitMix64 coordinates of the block and component samplers.
//!
//! The uniform-sequence sampler selects among alternatives whose weights
//! are huge exact counts (`Natural`s with hundreds of digits).  Converting
//! those weights to `f64` would silently destroy uniformity, so selection
//! is performed with exact integer arithmetic: draw a uniform natural below
//! the total weight and walk the cumulative sums.
//!
//! The `M^ur` block sampler and the `M^uo` component walk both take one
//! `u64` key per draw and derive unit `u`'s randomness from
//! `key + (u+1)·φ` alone (the crate-private `GOLDEN_GAMMA`, `mix64` and
//! `KeyedStream` below), so a draw restricted to some units agrees with
//! the full draw on them.

use rand::{Rng, RngCore};
use ucqa_numeric::Natural;

/// The SplitMix64 increment (`2⁶⁴/φ`): unit `u` of a keyed draw hashes
/// the counter `key + (u+1)·GOLDEN_GAMMA`.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijection of `u64`, so a uniform
/// key gives every unit an exactly uniform 64-bit word.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The counter of unit `unit` under the draw key `key`.
#[inline]
pub(crate) fn keyed_counter(key: u64, unit: usize) -> u64 {
    key.wrapping_add((unit as u64).wrapping_add(1).wrapping_mul(GOLDEN_GAMMA))
}

/// A SplitMix64 stream keyed by `(key, unit)`: its state starts at
/// `mix64(key + (unit+1)·φ)`, and each word advances the state by `φ`
/// and finalizes it.  Starting from the *mixed* counter matters: the
/// unmixed counters of consecutive units differ by exactly `φ`, so unit
/// `u + 1`'s stream would be unit `u`'s shifted by one word.
#[derive(Debug, Clone)]
pub(crate) struct KeyedStream {
    state: u64,
}

impl KeyedStream {
    /// The stream of unit `unit` under the draw key `key`.
    #[inline]
    pub(crate) fn new(key: u64, unit: usize) -> Self {
        KeyedStream {
            state: mix64(keyed_counter(key, unit)),
        }
    }
}

impl RngCore for KeyedStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

/// Draws a natural number uniformly at random from `[0, bound)`.
///
/// Uses rejection sampling over the smallest power-of-two range covering
/// `bound`, so the expected number of draws is at most 2.
///
/// # Panics
/// Panics if `bound` is zero.
pub fn random_natural_below<R: Rng + ?Sized>(rng: &mut R, bound: &Natural) -> Natural {
    assert!(!bound.is_zero(), "bound must be positive");
    if let Some(small) = bound.to_u64() {
        return Natural::from_u64(rng.random_range(0..small));
    }
    let bits = bound.bits();
    let limbs = bits.div_ceil(32) as usize;
    let top_bits = bits - 32 * (limbs as u64 - 1);
    let top_mask: u32 = if top_bits >= 32 {
        u32::MAX
    } else {
        (1u32 << top_bits) - 1
    };
    loop {
        let mut raw: Vec<u32> = (0..limbs).map(|_| rng.random::<u32>()).collect();
        if let Some(top) = raw.last_mut() {
            *top &= top_mask;
        }
        let candidate = Natural::from_limbs_le(raw);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Picks an index with probability proportional to the exact weights.
///
/// Zero-weight entries are never selected.
///
/// # Panics
/// Panics if all weights are zero.
pub fn pick_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[Natural]) -> usize {
    let total: Natural = weights.iter().sum();
    assert!(!total.is_zero(), "at least one weight must be positive");
    let target = random_natural_below(rng, &total);
    let mut cumulative = Natural::zero();
    for (index, weight) in weights.iter().enumerate() {
        if weight.is_zero() {
            continue;
        }
        cumulative = &cumulative + weight;
        if target < cumulative {
            return index;
        }
    }
    unreachable!("target is below the total weight, so some prefix must exceed it")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_bounds_cover_the_range_uniformly() {
        let mut rng = StdRng::seed_from_u64(1);
        let bound = Natural::from_u64(5);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let v = random_natural_below(&mut rng, &bound).to_u64().unwrap() as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 400.0, "counts {counts:?}");
        }
    }

    #[test]
    fn large_bounds_stay_below_the_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        // 2^200 + 12345
        let bound = &Natural::from_u64(2).pow(200) + &Natural::from_u64(12_345);
        for _ in 0..200 {
            let v = random_natural_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn weighted_pick_respects_proportions() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = vec![Natural::from_u64(1), Natural::zero(), Natural::from_u64(3)];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[pick_weighted(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn keyed_streams_are_deterministic_and_not_shifted_copies() {
        let words = |key, unit| {
            let mut stream = KeyedStream::new(key, unit);
            (0..8).map(|_| stream.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(words(7, 3), words(7, 3));
        // Unmixed start states would make unit 1's stream unit 0's
        // shifted by one word.
        let (first, second) = (words(7, 0), words(7, 1));
        assert_ne!(first[1..], second[..7]);
        assert!(first.iter().all(|w| !second.contains(w)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = random_natural_below(&mut rng, &Natural::zero());
    }
}
