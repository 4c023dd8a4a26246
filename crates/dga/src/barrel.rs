//! Query-barrel models: the ordered subset of the pool a bot queries during
//! one activation (§III-B).

use crate::taxonomy::BarrelClass;
use botmeter_dns::{FxBuildHasher, FxHashMap};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draws a query barrel: the sequence of pool indices a bot will look up,
/// in order, during one activation.
///
/// * `Uniform` — the first `θq` pool positions in generation order; every
///   bot draws the *same* barrel (the caching collision that motivates the
///   Poisson estimator).
/// * `Sampling` — `θq` distinct positions sampled uniformly without
///   replacement, in random order (Conficker.C).
/// * `RandomCut` — `θq` consecutive positions (modular) from a uniformly
///   random starting point (newGoZ).
/// * `Permutation` — a fresh uniform permutation of the whole pool,
///   truncated to `θq` (Necurs).
///
/// The returned barrel length is `min(θq, pool_len)`.
///
/// # Panics
///
/// Panics if `pool_len == 0`.
///
/// # Example
///
/// ```
/// use botmeter_dga::{draw_barrel, BarrelClass};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
/// let b = draw_barrel(BarrelClass::RandomCut, 10_000, 500, &mut rng);
/// assert_eq!(b.len(), 500);
/// // Consecutive modular positions:
/// assert_eq!(b[1], (b[0] + 1) % 10_000);
/// ```
pub fn draw_barrel<R: Rng + ?Sized>(
    class: BarrelClass,
    pool_len: usize,
    theta_q: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(pool_len > 0, "cannot draw a barrel from an empty pool");
    let k = theta_q.min(pool_len);
    match class {
        BarrelClass::Uniform => (0..k).collect(),
        BarrelClass::Sampling => sample_without_replacement(pool_len, k, rng),
        BarrelClass::RandomCut => {
            let start = rng.gen_range(0..pool_len);
            (0..k).map(|i| (start + i) % pool_len).collect()
        }
        BarrelClass::Permutation => {
            let mut all: Vec<usize> = (0..pool_len).collect();
            all.shuffle(rng);
            all.truncate(k);
            all
        }
    }
}

/// Sparse Fisher–Yates: draws `k` distinct indices from `0..n` in O(k)
/// time and memory, regardless of `n` (Conficker.C samples 500 from
/// 50 000 — materialising the full range per bot would dominate the
/// simulator's cost). The map is only read and written by key, never
/// iterated, so its hasher cannot change a draw.
fn sample_without_replacement<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut swapped: FxHashMap<usize, usize> =
        FxHashMap::with_capacity_and_hasher(k * 2, FxBuildHasher::default());
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let value_j = *swapped.get(&j).unwrap_or(&j);
        let value_i = *swapped.get(&i).unwrap_or(&i);
        out.push(value_j);
        swapped.insert(j, value_i);
        swapped.insert(i, value_j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::collections::HashSet;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_is_identical_across_bots() {
        let a = draw_barrel(BarrelClass::Uniform, 800, 798, &mut rng(1));
        let b = draw_barrel(BarrelClass::Uniform, 800, 798, &mut rng(2));
        assert_eq!(a, b, "uniform barrels must not depend on the RNG");
        assert_eq!(a.len(), 798);
        assert_eq!(a[0], 0);
        assert_eq!(a[797], 797);
    }

    #[test]
    fn sampling_distinct_and_within_range() {
        let mut r = rng(3);
        let b = draw_barrel(BarrelClass::Sampling, 50_000, 500, &mut r);
        assert_eq!(b.len(), 500);
        let set: HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), 500, "sampled indices must be distinct");
        assert!(b.iter().all(|&i| i < 50_000));
        // Two bots almost surely differ.
        let c = draw_barrel(BarrelClass::Sampling, 50_000, 500, &mut r);
        assert_ne!(b, c);
    }

    #[test]
    fn sampling_is_uniform_over_positions() {
        // Each position should be chosen with probability k/n.
        let n = 100;
        let k = 10;
        let trials = 20_000;
        let mut counts = vec![0u32; n];
        let mut r = rng(4);
        for _ in 0..trials {
            for idx in draw_barrel(BarrelClass::Sampling, n, k, &mut r) {
                counts[idx] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "position {i} count {c} vs expected {expected}");
        }
    }

    #[test]
    fn randomcut_is_consecutive_modular() {
        let mut r = rng(5);
        for _ in 0..50 {
            let b = draw_barrel(BarrelClass::RandomCut, 10_000, 500, &mut r);
            assert_eq!(b.len(), 500);
            for w in b.windows(2) {
                assert_eq!(w[1], (w[0] + 1) % 10_000);
            }
        }
    }

    #[test]
    fn randomcut_wraps_around() {
        // With pool 10 and θq 10, every start covers all positions.
        let mut r = rng(6);
        let b = draw_barrel(BarrelClass::RandomCut, 10, 10, &mut r);
        let set: HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn randomcut_starts_are_uniform() {
        let n = 20;
        let mut starts = vec![0u32; n];
        let mut r = rng(7);
        for _ in 0..20_000 {
            let b = draw_barrel(BarrelClass::RandomCut, n, 3, &mut r);
            starts[b[0]] += 1;
        }
        for &c in &starts {
            let dev = (c as f64 - 1000.0).abs() / 1000.0;
            assert!(dev < 0.15, "start counts skewed: {starts:?}");
        }
    }

    #[test]
    fn permutation_covers_pool() {
        let mut r = rng(8);
        let b = draw_barrel(BarrelClass::Permutation, 2048, 2048, &mut r);
        let set: HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), 2048);
        // Not the identity order (probability ~ 1/2048! of failing).
        assert_ne!(b, (0..2048).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_truncates_to_theta_q() {
        let mut r = rng(9);
        let b = draw_barrel(BarrelClass::Permutation, 2048, 2046, &mut r);
        assert_eq!(b.len(), 2046);
        let set: HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), 2046);
    }

    #[test]
    fn barrel_clamped_to_pool() {
        let mut r = rng(10);
        for class in [
            BarrelClass::Uniform,
            BarrelClass::Sampling,
            BarrelClass::RandomCut,
            BarrelClass::Permutation,
        ] {
            let b = draw_barrel(class, 5, 100, &mut r);
            assert_eq!(b.len(), 5, "{class}: barrel should clamp to pool");
        }
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_pool_panics() {
        draw_barrel(BarrelClass::Uniform, 0, 1, &mut rng(11));
    }
}
