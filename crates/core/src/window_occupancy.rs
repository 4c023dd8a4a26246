//! The Window-Occupancy estimator `MW` — this reproduction's model for
//! permutation-barrel DGAs (`AP`, Necurs).
//!
//! Under `AP` every bot queries the *whole* pool (in a private random
//! order), so — like `AU` — the first activation inside a negative-TTL
//! window caches everything and masks every later activation in that
//! window. Unlike `AU`, the Poisson estimator's gap statistic is noisier
//! here because a permutation spreads an activation's lookups over
//! `θq · δi`, blurring window starts.
//!
//! `MW` uses a coarser but very robust statistic: slice the epoch into
//! `K = δe/δl` fixed windows of the negative-TTL length and count how many
//! contain at least one matched lookup. Under Poisson activations with
//! rate `λ = N/δe`, a window is occupied with probability `1 − e^{−λδl}`,
//! so
//!
//! ```text
//! N̂ = −K·ln(1 − k/K)        (k of K windows occupied)
//! ```
//!
//! (using `δe = K·δl`). Saturation (`k = K`) is resolved with the usual
//! continuity correction `k → K − ½`.

use crate::config::EstimationContext;
use crate::estimator::{CellStats, Estimator, Lane};
use std::collections::HashSet;

/// `MW`: fixed-window occupancy inversion for permutation-barrel DGAs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowOccupancyEstimator;

impl Estimator for WindowOccupancyEstimator {
    fn name(&self) -> &'static str {
        "WindowOccupancy"
    }

    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Lookups]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        let lookups = cell.lookups();
        if lookups.is_empty() {
            return 0.0;
        }
        let epoch_len = ctx.family().epoch_len().as_millis();
        let delta_l = ctx.ttl().negative().as_millis().max(1);
        let window_start = cell.epoch() * epoch_len;

        let k_total = (epoch_len / delta_l).max(1);
        let mut occupied: HashSet<u64> = HashSet::new();
        for l in lookups {
            let offset = l.t.as_millis().saturating_sub(window_start);
            occupied.insert((offset / delta_l).min(k_total - 1));
        }
        let k = occupied.len() as f64;
        let k_total = k_total as f64;
        // Continuity correction at saturation.
        let k = if k >= k_total { k_total - 0.5 } else { k };
        -k_total * (1.0 - k / k_total).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absolute_relative_error;
    use botmeter_dga::DgaFamily;
    use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant, TtlPolicy};
    use botmeter_sim::ScenarioSpec;

    fn ctx(family: DgaFamily) -> EstimationContext {
        EstimationContext::new(
            family,
            TtlPolicy::paper_default(),
            SimDuration::from_millis(100),
        )
    }

    fn obs(ms: u64, name: &str) -> ObservedLookup {
        ObservedLookup::new(
            SimInstant::from_millis(ms),
            ServerId(1),
            name.parse().unwrap(),
        )
    }

    #[test]
    fn empty_stream_is_zero() {
        assert_eq!(
            WindowOccupancyEstimator.estimate(&[], &ctx(DgaFamily::necurs())),
            0.0
        );
    }

    #[test]
    fn single_window_hand_computed() {
        // 1 of 12 two-hour windows occupied: N = −12·ln(11/12) ≈ 1.044.
        let lookups = vec![obs(1000, "a.example")];
        let est = WindowOccupancyEstimator.estimate(&lookups, &ctx(DgaFamily::necurs()));
        assert!(
            (est - (-12.0 * (11.0f64 / 12.0).ln())).abs() < 1e-9,
            "{est}"
        );
    }

    #[test]
    fn saturation_is_finite() {
        // Every window occupied: the continuity correction keeps it finite.
        let h2 = SimDuration::from_hours(2).as_millis();
        let lookups: Vec<_> = (0..12).map(|w| obs(w * h2 + 5, "a.example")).collect();
        let est = WindowOccupancyEstimator.estimate(&lookups, &ctx(DgaFamily::necurs()));
        assert!(est.is_finite() && est > 12.0, "{est}");
    }

    #[test]
    fn tracks_necurs_population_at_low_counts() {
        // Occupancy resolves small populations well (K = 12 windows/day).
        let mut errors = Vec::new();
        for seed in 0..4 {
            let outcome = ScenarioSpec::builder(DgaFamily::necurs())
                .population(6)
                .seed(4000 + seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let actual = outcome.ground_truth()[0];
            if actual == 0 {
                continue;
            }
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let est = WindowOccupancyEstimator.estimate(outcome.observed(), &c);
            errors.push(absolute_relative_error(est, actual as f64));
        }
        let mean: f64 = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        assert!(mean < 0.6, "mean ARE {mean} ({errors:?})");
    }

    #[test]
    fn monotone_in_occupied_windows() {
        let h2 = SimDuration::from_hours(2).as_millis();
        let family = DgaFamily::necurs();
        let mut prev = 0.0;
        for k in 1..=11u64 {
            let lookups: Vec<_> = (0..k).map(|w| obs(w * h2 + 3, "a.example")).collect();
            let est = WindowOccupancyEstimator.estimate(&lookups, &ctx(family.clone()));
            assert!(est > prev, "k={k}: {est} <= {prev}");
            prev = est;
        }
    }

    #[test]
    fn estimator_name() {
        assert_eq!(WindowOccupancyEstimator.name(), "WindowOccupancy");
    }
}
