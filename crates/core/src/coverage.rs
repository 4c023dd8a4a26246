//! The Coverage estimator `MC` — this reproduction's extension for
//! randomcut-barrel DGAs (DESIGN.md §3, substitution 3).
//!
//! Where `MB` reads segment *shapes*, `MC` inverts a closed-form rate
//! equation on the *volume* of border-visible DGA lookups. For a pool
//! position `d` at offset `o` inside its arc, a single activation covers it
//! with probability `p_d = min(o, θq) / P`. Activations form a Poisson
//! process with rate `λ = N/δe`, and a covered domain is re-forwarded once
//! per negative-TTL window, so sightings of `d` form a renewal process with
//! mean period `δl + 1/(λ·p_d)`:
//!
//! ```text
//! E[O | N] = Σ_d  (N·p_d) / (1 + N·p_d·δl/δe)
//! ```
//!
//! where `O` is the number of observed matched lookups in the epoch. The
//! right-hand side is strictly increasing in `N`, so bisection recovers
//! `N`. Because the statistic is a count of *visible* lookups, `MC` keeps
//! resolving populations long after the distinct-NXD set has saturated —
//! and like `MB` it is indifferent to timestamp granularity and to
//! activation-rate dynamics, while shrinking detection windows shrink both
//! `O` and the sum over `d` symmetrically.

use crate::config::EstimationContext;
use crate::estimator::{CellStats, Estimator, Lane};
use std::collections::BTreeMap;

/// `MC`: closed-form coverage/rate inversion for `AR` DGAs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageEstimator;

/// Upper bound on populations the bisection will report.
const MAX_POPULATION: f64 = 1e7;

impl Estimator for CoverageEstimator {
    fn name(&self) -> &'static str {
        "Coverage"
    }

    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Volume]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        match Self::prepare(cell, ctx) {
            Some((buckets, pool_len, r, observed)) => Self::invert(&buckets, pool_len, r, observed),
            None => 0.0,
        }
    }
}

impl CoverageEstimator {
    /// Builds the `(cover, multiplicity)` buckets and reads the cell's
    /// volume lane; `None` when the cell carries no usable signal.
    #[allow(clippy::type_complexity)]
    fn prepare(
        cell: &CellStats<'_>,
        ctx: &EstimationContext,
    ) -> Option<(Vec<(usize, usize)>, usize, f64, f64)> {
        // Observed volume: matched lookups of this epoch's pool NXDs
        // (valid-domain sightings excluded — positive caching gives them
        // different dynamics).
        let observed = cell.volume(ctx);
        if observed == 0.0 {
            return None;
        }
        let family = ctx.family();
        let index = ctx.pool_index(cell.epoch());
        let pool = index.pool();
        let pool_len = pool.len();
        let theta_q = family.params().theta_q();

        // Per-domain cover counts over the detectable NXDs, compressed into
        // (cover, multiplicity) buckets: cover(d) = min(arc offset, θq).
        // A BTreeMap keeps the bucket order — and therefore the float
        // summation order in `expected_lookups` — deterministic.
        let mut bucket_map: BTreeMap<usize, usize> = BTreeMap::new();
        let boundaries = index.valid();
        if boundaries.is_empty() {
            // No arc boundaries: every bot runs a full barrel.
            let detectable = pool.iter().filter(|d| ctx.detectable(d)).count();
            bucket_map.insert(theta_q.min(pool_len), detectable);
        } else {
            for (i, domain) in pool.iter().enumerate() {
                if index.is_valid(i) || !ctx.detectable(domain) {
                    continue;
                }
                // Distance from the previous valid domain (circularly).
                let prev = match boundaries.binary_search(&i) {
                    Err(0) => boundaries[boundaries.len() - 1],
                    Err(pos) => boundaries[pos - 1],
                    Ok(_) => unreachable!("valid positions were skipped"),
                };
                let offset = (i + pool_len - prev) % pool_len;
                let cover = offset.min(theta_q);
                *bucket_map.entry(cover).or_insert(0) += 1;
            }
        }
        let buckets: Vec<(usize, usize)> = bucket_map.into_iter().collect();
        if buckets.is_empty() {
            return None;
        }

        let r = ctx.ttl().negative().as_millis() as f64 / family.epoch_len().as_millis() as f64;
        Some((buckets, pool_len, r, observed))
    }

    /// `E[O | N]` for per-domain coverage probabilities compressed as
    /// `(cover_count, multiplicity)` pairs; `r = δl/δe`.
    fn expected_lookups(buckets: &[(usize, usize)], pool_len: usize, n: f64, r: f64) -> f64 {
        let p_scale = 1.0 / pool_len as f64;
        buckets
            .iter()
            .map(|&(cover, mult)| {
                let p = cover as f64 * p_scale;
                let rate = n * p;
                mult as f64 * rate / (1.0 + rate * r)
            })
            .sum()
    }

    /// Solves `E[O|N] = target` by bracketing + bisection (monotone in N).
    fn invert(buckets: &[(usize, usize)], pool_len: usize, r: f64, target: f64) -> f64 {
        let mut hi = 1.0f64;
        while Self::expected_lookups(buckets, pool_len, hi, r) < target {
            hi *= 2.0;
            if hi >= MAX_POPULATION {
                return MAX_POPULATION;
            }
        }
        let mut lo = 0.0f64;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if Self::expected_lookups(buckets, pool_len, mid, r) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
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
            CoverageEstimator.estimate(&[], &ctx(DgaFamily::new_goz())),
            0.0
        );
    }

    #[test]
    fn expected_lookups_monotone_in_n() {
        let buckets = vec![(500usize, 8000usize), (100, 1000)];
        let mut prev = 0.0;
        for n in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0] {
            let v = CoverageEstimator::expected_lookups(&buckets, 10_000, n, 1.0 / 12.0);
            assert!(v > prev, "not monotone at N={n}");
            prev = v;
        }
    }

    #[test]
    fn recovers_population_across_the_sweep() {
        // The whole point of MC: accuracy from 16 through 256 bots.
        for &n in &[16u64, 64, 256] {
            let mut errors = Vec::new();
            for seed in 0..4 {
                let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
                    .population(n)
                    .seed(1000 + seed)
                    .build()
                    .unwrap()
                    .run(botmeter_exec::ExecPolicy::default());
                let c = EstimationContext::new(
                    outcome.family().clone(),
                    outcome.ttl(),
                    outcome.granularity(),
                );
                let est = CoverageEstimator.estimate(outcome.observed(), &c);
                errors.push(absolute_relative_error(
                    est,
                    outcome.ground_truth()[0] as f64,
                ));
            }
            let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
            assert!(mean < 0.35, "N={n}: mean ARE {mean} ({errors:?})");
        }
    }

    #[test]
    fn insensitive_to_timestamp_granularity() {
        // Coarse timestamps must not move the estimate (it never reads
        // sub-ordering beyond lookup counts).
        let run = |granularity_ms: u64| {
            let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
                .population(64)
                .granularity(SimDuration::from_millis(granularity_ms))
                .seed(9)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            CoverageEstimator.estimate(outcome.observed(), &c)
        };
        let fine = run(100);
        let coarse = run(1000);
        assert!(
            (fine - coarse).abs() < 1e-9,
            "granularity changed MC: {fine} vs {coarse}"
        );
    }

    #[test]
    fn estimator_name() {
        assert_eq!(CoverageEstimator.name(), "Coverage");
    }
}
