//! Random tower-height generation shared by all skiplist variants.

use cds_core::stress::SplitMix64;
use std::cell::RefCell;

use crate::HEIGHT;

thread_local! {
    static RNG: RefCell<SplitMix64> = RefCell::new(SplitMix64::from_entropy());
}

/// Draws a tower top level in `0..HEIGHT` with the geometric distribution
/// `P(level ≥ k) = 2^-k` that gives skiplists their expected O(log n)
/// search paths.
pub(crate) fn random_level() -> usize {
    RNG.with(|rng| {
        let bits = rng.borrow_mut().next_u64();
        // trailing_zeros of uniform bits is geometric(1/2); cap the height.
        (bits.trailing_zeros() as usize).min(HEIGHT - 1)
    })
}

/// Draws a value in `0..n` (used by tests needing shuffles).
#[cfg(test)]
pub(crate) fn random_below(n: usize) -> usize {
    RNG.with(|rng| rng.borrow_mut().below(n as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_in_range() {
        for _ in 0..10_000 {
            let l = random_level();
            assert!(l < HEIGHT);
        }
    }

    #[test]
    fn distribution_is_roughly_geometric() {
        let mut counts = [0usize; HEIGHT];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[random_level()] += 1;
        }
        // Level 0 should get about half the draws.
        assert!(counts[0] > N / 3 && counts[0] < 2 * N / 3);
        // Higher levels decay: level 4 should be well below level 1.
        assert!(counts[4] < counts[1]);
    }

    #[test]
    fn random_below_is_bounded() {
        for _ in 0..1000 {
            assert!(random_below(7) < 7);
        }
    }
}
