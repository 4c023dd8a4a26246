//! The Sampling estimator `MS` — this reproduction's model for
//! sampling-barrel DGAs (`AS`, Conficker.C).
//!
//! The paper's library covers `AU` (Poisson) and `AR` (Bernoulli) and
//! falls back to the Timing estimator for `AS`; its §VII explicitly calls
//! for richer model coverage. `AS` has a clean closed form of its own:
//!
//! Each bot samples its barrel uniformly without replacement from the
//! pool of `P = θ∅ + θ∃` domains, querying until it hits one of the `θ∃`
//! registered domains or exhausts `θq` trials. The expected number of NXD
//! queries per activation is
//!
//! ```text
//! q̄ = Σ_{k=1}^{θq} Π_{j<k} (1 − θ∃/(P−j))        (survival of k−1 trials)
//! ```
//!
//! so a given NXD is queried by one bot with probability `p = q̄/θ∅`, and
//! the distinct NXDs observed over an epoch (first sightings are never
//! masked by caching) satisfy `E[D | N] = w·(1 − (1−p)^N)` with `w` the
//! number of detectable NXDs. Inverting gives
//!
//! ```text
//! N̂ = ln(1 − D/w) / ln(1 − p)
//! ```
//!
//! Like the other set-statistic estimators, `MS` is immune to caching,
//! timestamp granularity and rate dynamics, and degrades only with the D3
//! detection window (which shrinks both `D` and `w` symmetrically).

use crate::config::EstimationContext;
use crate::estimator::Estimator;
use botmeter_dns::ObservedLookup;
use std::collections::HashSet;

/// `MS`: distinct-NXD occupancy inversion for sampling-barrel DGAs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplingEstimator;

/// Upper bound on populations reported when the statistic saturates.
const MAX_POPULATION: f64 = 1e7;

impl SamplingEstimator {
    /// Expected NXD queries per activation (`q̄` above).
    fn expected_nxd_queries(pool: usize, theta_valid: usize, theta_q: usize) -> f64 {
        let mut survival = 1.0f64;
        let mut total = 0.0f64;
        for j in 0..theta_q {
            total += survival;
            let remaining = (pool - j) as f64;
            if remaining <= theta_valid as f64 {
                break;
            }
            survival *= 1.0 - theta_valid as f64 / remaining;
        }
        total
    }
}

impl Estimator for SamplingEstimator {
    fn name(&self) -> &'static str {
        "Sampling"
    }

    fn estimate(&self, lookups: &[ObservedLookup], ctx: &EstimationContext) -> f64 {
        if lookups.is_empty() {
            return 0.0;
        }
        let family = ctx.family();
        let epoch = ctx.epoch_of(lookups).expect("non-empty slice");
        let index = ctx.pool_index(epoch);
        let pool = index.pool();

        // Detectable NXD universe and observed distinct NXDs within it.
        let detectable_nxd = pool
            .iter()
            .enumerate()
            .filter(|(i, d)| !index.is_valid(*i) && ctx.detectable(d))
            .count();
        if detectable_nxd == 0 {
            return 0.0;
        }
        let mut distinct: HashSet<usize> = HashSet::new();
        for l in lookups {
            if let Some(i) = index.position(&l.domain) {
                if !index.is_valid(i) {
                    distinct.insert(i);
                }
            }
        }
        let observed = distinct.len() as f64;
        if observed == 0.0 {
            return 0.0;
        }

        let params = family.params();
        let q_bar = Self::expected_nxd_queries(pool.len(), params.theta_valid(), params.theta_q());
        let p = q_bar / params.theta_nx() as f64;
        if p <= 0.0 || p >= 1.0 {
            return MAX_POPULATION;
        }

        let fill = observed / detectable_nxd as f64;
        if fill >= 1.0 {
            return MAX_POPULATION; // statistic saturated
        }
        ((1.0 - fill).ln() / (1.0 - p).ln()).min(MAX_POPULATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absolute_relative_error;
    use botmeter_dga::DgaFamily;
    use botmeter_dns::{SimDuration, TtlPolicy};
    use botmeter_sim::ScenarioSpec;

    fn ctx(family: DgaFamily) -> EstimationContext {
        EstimationContext::new(
            family,
            TtlPolicy::paper_default(),
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn empty_stream_is_zero() {
        assert_eq!(
            SamplingEstimator.estimate(&[], &ctx(DgaFamily::conficker_c())),
            0.0
        );
    }

    #[test]
    fn expected_queries_basics() {
        // No valid domains: every bot runs the full barrel.
        assert_eq!(SamplingEstimator::expected_nxd_queries(100, 0, 10), 10.0);
        // All valid: survival collapses immediately — only the first trial.
        let q = SamplingEstimator::expected_nxd_queries(10, 9, 5);
        assert!((1.0..2.0).contains(&q), "{q}");
        // Conficker.C numbers: tiny hit rate, so q̄ ≈ θq.
        let q = SamplingEstimator::expected_nxd_queries(50_000, 5, 500);
        assert!(q > 480.0 && q <= 500.0, "{q}");
    }

    #[test]
    fn recovers_conficker_population() {
        for &n in &[16u64, 64, 256] {
            let mut errors = Vec::new();
            for seed in 0..3 {
                let outcome = ScenarioSpec::builder(DgaFamily::conficker_c())
                    .population(n)
                    .seed(3000 + seed)
                    .build()
                    .unwrap()
                    .run(botmeter_exec::ExecPolicy::default());
                let c = EstimationContext::new(
                    outcome.family().clone(),
                    outcome.ttl(),
                    outcome.granularity(),
                );
                let est = SamplingEstimator.estimate(outcome.observed(), &c);
                errors.push(absolute_relative_error(
                    est,
                    outcome.ground_truth()[0] as f64,
                ));
            }
            let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
            assert!(mean < 0.3, "N={n}: mean ARE {mean} ({errors:?})");
        }
    }

    #[test]
    fn insensitive_to_granularity() {
        let run = |gran_ms: u64| {
            let outcome = ScenarioSpec::builder(DgaFamily::conficker_c())
                .population(64)
                .granularity(SimDuration::from_millis(gran_ms))
                .seed(5)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            SamplingEstimator.estimate(outcome.observed(), &c)
        };
        assert!((run(100) - run(1000)).abs() < 1e-9);
    }

    #[test]
    fn estimator_name() {
        assert_eq!(SamplingEstimator.name(), "Sampling");
    }
}
