//! The Poisson estimator `MP` — §IV-C, Eq. 1.

use crate::config::EstimationContext;
use crate::estimator::{CellStats, Estimator, Lane};
use botmeter_dns::{ObservedLookup, SimInstant};

/// `MP`: the estimator for uniform-barrel DGAs (`AU`), whose bots all query
/// the *same* barrel each epoch.
///
/// # Small-sample behaviour and regularisation
///
/// Eq. 1 is a plug-in rate estimate: with a single visible activation that
/// happens to fall early in the day, `Σ Δi` is tiny and the extrapolation
/// explodes (our Table II reproduction hits AREs above 100 on one-bot
/// days). [`regularized`](Self::regularized) applies a Gamma(α, β)
/// conjugate prior to the rate — `E[λ | data] = (n + α)/(ΣΔ + β)` — which
/// caps the blow-up at a few bots while shrinking large-sample estimates
/// only mildly. The default construction remains the paper's pure Eq. 1.
///
/// With identical barrels, once one bot's lookups populate the negative
/// cache, every other bot activating within the negative TTL (`δl`) is
/// completely invisible at the vantage point (Fig. 4). `MT` cannot count
/// what it cannot see; `MP` instead models activations as a Poisson process
/// and infers the masked mass:
///
/// * each *visible* activation opens a TTL window of length `δl`;
/// * the gaps `Δi` between the end of one window and the next visible
///   activation estimate the rate: `E(λ) = n / Σ Δi`;
/// * the expected total count over the window (visible + masked) is
///   `E(N) = n + n²·δl / Σ Δi` (Eq. 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoissonEstimator {
    /// Whether the Gamma prior of [`regularized`](Self::regularized)
    /// applies.
    regularized: bool,
}

impl PoissonEstimator {
    /// The paper-faithful Eq. 1 estimator (identical to the default).
    pub fn new() -> Self {
        PoissonEstimator::default()
    }

    /// Eq. 1 with a weak Gamma prior on the activation rate: shape α = 0.5
    /// and scale β = δl/2 (half a negative-TTL window of pseudo-waiting).
    /// See the type-level docs for when this matters.
    pub fn regularized() -> Self {
        PoissonEstimator { regularized: true }
    }

    /// The instants at which *visible* activations begin: the first lookup,
    /// then each first lookup after the previous activation's negative-TTL
    /// window has expired.
    fn visible_activations(lookups: &[ObservedLookup], delta_l_ms: u64) -> Vec<SimInstant> {
        let mut starts = Vec::new();
        let mut window_end: Option<u64> = None;
        for lookup in lookups {
            let t = lookup.t.as_millis();
            match window_end {
                Some(end) if t < end => {}
                _ => {
                    starts.push(lookup.t);
                    window_end = Some(t + delta_l_ms);
                }
            }
        }
        starts
    }
}

impl Estimator for PoissonEstimator {
    fn name(&self) -> &'static str {
        "Poisson"
    }

    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Lookups]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        let lookups = cell.lookups();
        if lookups.is_empty() {
            return 0.0;
        }
        let delta_l = ctx.ttl().negative().as_millis();
        let window_start = (ctx.family().epoch_len() * cell.epoch()).as_millis();

        let starts = Self::visible_activations(lookups, delta_l);
        let n = starts.len() as f64;

        // Δ1 is the elapsed time from the window start to the first
        // activation; Δi the gap from the end of TTL window i−1 to
        // activation i (footnote 2 of the paper).
        let mut sum_delta = 0.0f64;
        let mut prev_end = window_start;
        for s in &starts {
            sum_delta += (s.as_millis().saturating_sub(prev_end)) as f64;
            prev_end = s.as_millis() + delta_l;
        }
        // Degenerate case: every activation was back-to-back with a TTL
        // boundary. Avoid division by zero; one millisecond of total gap is
        // the finest the clock can resolve.
        let sum_delta = sum_delta.max(1.0);
        if !self.regularized {
            return n + n * n * delta_l as f64 / sum_delta;
        }
        // Posterior-mean rate under the Gamma(α = 0.5, β = δl/2) prior, then
        // the same masked-mass correction: N̂ = λ̂ · (ΣΔ + n·δl).
        let lambda = (n + 0.5) / (sum_delta + 0.5 * delta_l as f64);
        lambda * (sum_delta + n * delta_l as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absolute_relative_error;
    use botmeter_dga::DgaFamily;
    use botmeter_dns::{ServerId, SimDuration, TtlPolicy};
    use botmeter_sim::ScenarioSpec;

    fn ctx() -> EstimationContext {
        EstimationContext::new(
            DgaFamily::murofet(),
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
        assert_eq!(PoissonEstimator::new().estimate(&[], &ctx()), 0.0);
    }

    #[test]
    fn visible_activation_clustering() {
        let delta_l = SimDuration::from_hours(2).as_millis();
        let lookups = vec![
            obs(0, "a.example"),
            obs(500, "b.example"),            // same burst
            obs(delta_l + 1000, "a.example"), // next TTL window
        ];
        let starts = PoissonEstimator::visible_activations(&lookups, delta_l);
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].as_millis(), 0);
        assert_eq!(starts[1].as_millis(), delta_l + 1000);
    }

    #[test]
    fn equation_one_hand_computed() {
        // Two visible activations: t1 = 1h, t2 = t1 + δl + 1h.
        // Δ1 = 1h, Δ2 = 1h ⇒ λ = 2/2h; N = 2 + 4·2h/2h = 6.
        let h = SimDuration::from_hours(1).as_millis();
        let lookups = vec![obs(h, "a.example"), obs(h + 2 * h + h, "b.example")];
        let est = PoissonEstimator::new().estimate(&lookups, &ctx());
        assert!((est - 6.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn single_visible_activation_extrapolates() {
        // One activation at Δ1 = 30 min into the day:
        // N = 1 + 1·δl/Δ1 = 1 + 120/30 = 5.
        let lookups = vec![obs(SimDuration::from_mins(30).as_millis(), "a.example")];
        let est = PoissonEstimator::new().estimate(&lookups, &ctx());
        assert!((est - 5.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn recovers_murofet_population_end_to_end() {
        // The headline claim: MP sees through AU caching.
        let mut errors = Vec::new();
        for seed in 0..8 {
            let outcome = ScenarioSpec::builder(DgaFamily::murofet())
                .population(64)
                .seed(seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let ctx = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let est = PoissonEstimator::new().estimate(outcome.observed(), &ctx);
            errors.push(absolute_relative_error(
                est,
                outcome.ground_truth()[0] as f64,
            ));
        }
        let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 0.45, "mean ARE {mean} across seeds: {errors:?}");
    }

    #[test]
    fn beats_timing_on_uniform_barrels() {
        use crate::timing::TimingEstimator;
        let mut mp_err = 0.0;
        let mut mt_err = 0.0;
        for seed in 0..6 {
            let outcome = ScenarioSpec::builder(DgaFamily::murofet())
                .population(128)
                .seed(100 + seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let ctx = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let actual = outcome.ground_truth()[0] as f64;
            mp_err += absolute_relative_error(
                PoissonEstimator::new().estimate(outcome.observed(), &ctx),
                actual,
            );
            mt_err +=
                absolute_relative_error(TimingEstimator.estimate(outcome.observed(), &ctx), actual);
        }
        assert!(
            mp_err < mt_err,
            "MP ({mp_err}) must beat MT ({mt_err}) on AU at N=128"
        );
    }

    #[test]
    fn estimator_name() {
        assert_eq!(PoissonEstimator::new().name(), "Poisson");
    }

    #[test]
    fn regularized_tames_single_activation_blowup() {
        // One activation 60 s into the day: Eq. 1 extrapolates to
        // 1 + δl/Δ1 = 121 bots; the prior caps it near a handful.
        let lookups = vec![obs(60_000, "a.example")];
        let raw = PoissonEstimator::new().estimate(&lookups, &ctx());
        assert!(raw > 100.0, "unregularised Eq. 1 should blow up: {raw}");
        let reg = PoissonEstimator::regularized().estimate(&lookups, &ctx());
        assert!(reg < 10.0, "prior should cap the blow-up: {reg}");
        assert!(reg >= 1.0);
    }

    #[test]
    fn regularized_tracks_real_populations() {
        // The shrinkage must stay mild where Eq. 1 is healthy.
        let mut raw_err = 0.0;
        let mut reg_err = 0.0;
        for seed in 0..6 {
            let outcome = ScenarioSpec::builder(DgaFamily::murofet())
                .population(64)
                .seed(200 + seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let actual = outcome.ground_truth()[0] as f64;
            raw_err += absolute_relative_error(
                PoissonEstimator::new().estimate(outcome.observed(), &c),
                actual,
            );
            reg_err += absolute_relative_error(
                PoissonEstimator::regularized().estimate(outcome.observed(), &c),
                actual,
            );
        }
        assert!(
            reg_err < raw_err + 1.2,
            "regularisation should not wreck healthy estimates: {reg_err} vs {raw_err}"
        );
    }
}
