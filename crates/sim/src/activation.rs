//! Bot activation processes (§V-A of the paper).
//!
//! Given a population of `N` bots, the paper models their activations as a
//! Poisson process with base rate `λ0 = N/δe`. Two variants are evaluated:
//! a constant-rate process, and a dynamic one in which the rate preceding
//! the `i`-th activation is `λi = λ0·e^{κi}` with `κi ~ N(0, σ²)` — larger
//! `σ` meaning burstier, less stationary activity (Fig. 6(d)).

use botmeter_dns::{SimDuration, SimInstant};
use botmeter_stats::{Exponential, Normal, SampleF64};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How bot activation times are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ActivationModel {
    /// Homogeneous Poisson process with rate `λ0 = N/δe`.
    #[default]
    ConstantRate,
    /// Per-activation modulated rate `λi = λ0·e^{κi}`, `κi ~ N(0, σ²)`.
    DynamicRate {
        /// The paper's `σ` (swept over 0.5–2.5 in Fig. 6(d)).
        sigma: f64,
    },
}

impl ActivationModel {
    /// Draws activation instants over `[window_start, window_start +
    /// window_len)` for a population of `population` bots whose epoch is
    /// `epoch_len` long.
    ///
    /// Each returned instant is one bot activation; the count itself is
    /// random (it is the ground truth a scenario records).
    ///
    /// # Panics
    ///
    /// Panics if `population == 0` or `epoch_len` is zero.
    pub(crate) fn sample_times<R: Rng + ?Sized>(
        &self,
        population: u64,
        epoch_len: SimDuration,
        window_start: SimInstant,
        window_len: SimDuration,
        rng: &mut R,
    ) -> Vec<SimInstant> {
        assert!(population > 0, "population must be positive");
        assert!(!epoch_len.is_zero(), "epoch length must be positive");
        // Rate per millisecond.
        let lambda0 = population as f64 / epoch_len.as_millis() as f64;
        let end_ms = (window_start + window_len).as_millis() as f64;
        let mut t_ms = window_start.as_millis() as f64;
        let mut out =
            Vec::with_capacity((window_len.as_millis() as f64 * lambda0 * 1.5) as usize + 8);
        loop {
            let rate = match self {
                ActivationModel::ConstantRate => lambda0,
                ActivationModel::DynamicRate { sigma } => {
                    let kappa = Normal::new(0.0, *sigma)
                        .expect("sigma validated by caller")
                        .sample(rng);
                    lambda0 * kappa.exp()
                }
            };
            let gap = Exponential::new(rate)
                .expect("rate is positive: lambda0 > 0 and exp(κ) > 0")
                .sample(rng);
            t_ms += gap;
            if t_ms >= end_ms {
                break;
            }
            out.push(SimInstant::from_millis(t_ms as u64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn day() -> SimDuration {
        SimDuration::from_days(1)
    }

    #[test]
    fn constant_rate_expected_count() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            total += ActivationModel::ConstantRate
                .sample_times(128, day(), SimInstant::ZERO, day(), &mut rng)
                .len();
        }
        let mean = total as f64 / trials as f64;
        // E[count] = 128; sd of the mean ≈ sqrt(128/200) ≈ 0.8.
        assert!((mean - 128.0).abs() < 4.0, "mean {mean}");
    }

    #[test]
    fn times_are_sorted_and_in_window() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let start = SimInstant::from_millis(1_000_000);
        let times = ActivationModel::ConstantRate.sample_times(64, day(), start, day(), &mut rng);
        assert!(!times.is_empty());
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(times[0] >= start);
        assert!(*times.last().unwrap() < start + day());
    }

    #[test]
    fn dynamic_rate_preserves_median_rate() {
        // e^κ has median 1, so counts stay in the same ballpark, but the
        // spread grows with σ.
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let model = ActivationModel::DynamicRate { sigma: 1.0 };
        let mut counts = Vec::new();
        for _ in 0..200 {
            counts.push(
                model
                    .sample_times(128, day(), SimInstant::ZERO, day(), &mut rng)
                    .len() as f64,
            );
        }
        let mean: f64 = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!(mean > 60.0 && mean < 400.0, "mean {mean}");
    }

    #[test]
    fn dynamic_rate_is_burstier_than_constant() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let spread = |model: ActivationModel, rng: &mut ChaCha12Rng| {
            let counts: Vec<f64> = (0..150)
                .map(|_| {
                    model
                        .sample_times(64, day(), SimInstant::ZERO, day(), rng)
                        .len() as f64
                })
                .collect();
            botmeter_stats::std_dev(&counts)
        };
        let sd_const = spread(ActivationModel::ConstantRate, &mut rng);
        let sd_dyn = spread(ActivationModel::DynamicRate { sigma: 2.0 }, &mut rng);
        assert!(
            sd_dyn > sd_const,
            "dynamic σ=2 should be burstier: {sd_dyn} vs {sd_const}"
        );
    }

    #[test]
    fn multi_epoch_window_scales_count() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let times = ActivationModel::ConstantRate.sample_times(
            64,
            day(),
            SimInstant::ZERO,
            SimDuration::from_days(4),
            &mut rng,
        );
        let n = times.len() as f64;
        assert!((n - 256.0).abs() < 70.0, "got {n} activations over 4 days");
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        ActivationModel::ConstantRate.sample_times(0, day(), SimInstant::ZERO, day(), &mut rng);
    }

    #[test]
    fn default_is_constant() {
        assert_eq!(ActivationModel::default(), ActivationModel::ConstantRate);
    }

    /// The one-sample Kolmogorov–Smirnov statistic: the supremum distance
    /// between the sample's empirical CDF and a reference CDF (`cdf` weakly
    /// increasing onto `[0, 1]`).
    fn ks_statistic<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> f64 {
        assert!(!sample.is_empty(), "KS statistic of empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in sorted.iter().enumerate() {
            let f = cdf(x);
            let ecdf_before = i as f64 / n;
            let ecdf_after = (i + 1) as f64 / n;
            d = d.max((f - ecdf_before).abs()).max((ecdf_after - f).abs());
        }
        d
    }

    /// Asymptotic critical value `c(α)/√n` of the one-sample KS statistic at
    /// significance 1 % (good for n ≥ 35).
    fn ks_critical_value_1pct(n: usize) -> f64 {
        1.628 / (n as f64).sqrt()
    }

    #[test]
    fn constant_rate_gaps_are_exponential() {
        // Pool many epochs of activation gaps and KS-test them against the
        // Exp(λ0) law the paper's §V-A model prescribes.
        let mut rng = ChaCha12Rng::seed_from_u64(99);
        let day = SimDuration::from_days(1);
        let population = 256u64;
        let lambda_per_ms = population as f64 / day.as_millis() as f64;
        let mut gaps = Vec::new();
        for _ in 0..20 {
            let times = ActivationModel::ConstantRate.sample_times(
                population,
                day,
                SimInstant::ZERO,
                day,
                &mut rng,
            );
            for w in times.windows(2) {
                gaps.push((w[1].as_millis() - w[0].as_millis()) as f64);
            }
        }
        assert!(gaps.len() > 4000, "need a large sample, got {}", gaps.len());
        let d = ks_statistic(&gaps, |x| 1.0 - (-lambda_per_ms * x.max(0.0)).exp());
        // Millisecond discretisation adds ~λ·1ms ≈ 3e-3 of distance on top of
        // sampling noise; allow the 1% critical value plus that bias.
        let bound = ks_critical_value_1pct(gaps.len()) + 2.0 * lambda_per_ms * 1.0;
        assert!(d < bound, "KS {d} vs bound {bound}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Activation sampling respects the window for every model.
        #[test]
        fn activations_stay_in_window(seed in any::<u64>(), sigma in 0.1f64..3.0) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let day = SimDuration::from_days(1);
            let start = SimInstant::ZERO + day * 3;
            for model in [ActivationModel::ConstantRate, ActivationModel::DynamicRate { sigma }] {
                let times = model.sample_times(32, day, start, day, &mut rng);
                for t in times {
                    prop_assert!(t >= start && t < start + day);
                }
            }
        }
    }
}
