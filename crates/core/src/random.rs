//! The keyed SplitMix64 coordinates of the block and component samplers.
//!
//! The `M^ur` block sampler and the `M^uo` component walk both take one
//! `u64` key per draw and derive unit `u`'s randomness from
//! `key + (u+1)·φ` alone (`GOLDEN_GAMMA`, `mix64` and `KeyedStream`
//! below), so a draw restricted to some units agrees with the full draw
//! on them.

use rand::RngCore;

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

    /// The `index`-th word (from 0) a fresh stream yields, at random
    /// access: what the `index + 1`-th [`RngCore::next_u64`] call returns,
    /// without the calls before it.  Read on a stream that has not been
    /// advanced.
    #[inline]
    pub(crate) fn word(&self, index: usize) -> u64 {
        let steps = (index as u64).wrapping_add(1);
        mix64(self.state.wrapping_add(steps.wrapping_mul(GOLDEN_GAMMA)))
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn random_access_words_equal_the_sequential_words() {
        for (key, unit) in [(7, 3), (0, 0), (u64::MAX, 12)] {
            let fresh = KeyedStream::new(key, unit);
            let mut stream = fresh.clone();
            for index in 0..100 {
                assert_eq!(fresh.word(index), stream.next_u64(), "word {index}");
            }
        }
    }
}
