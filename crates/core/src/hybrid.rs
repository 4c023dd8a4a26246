//! The Hybrid estimator `MH` — the paper's future-work direction #1
//! (§VII): "combining temporal and semantic traits of DNS lookups to
//! develop more effective bot population estimators".
//!
//! The temporal estimator (`MT`) and the model-library estimators fail in
//! *complementary* ways:
//!
//! * `MT` can only **undercount** due to cache masking (it counts bots it
//!   has direct temporal evidence for), and its evidence is trustworthy
//!   exactly when the family has a fixed query interval that the trace's
//!   timestamp granularity can resolve;
//! * the statistical estimators (`MP`/`MB`/`MC`/`MS`/`MW`) never see
//!   individual bots but correct for masking in expectation, so they can
//!   err in either direction but are unbiased.
//!
//! `MH` therefore runs the barrel-class-appropriate statistical estimator
//! and — when `MT`'s preconditions hold — uses `MT`'s count as an
//! evidence-backed *lower bound*: the combined estimate is
//! `max(statistical, MT)`. When the preconditions fail (no fixed `δi`, or
//! granularity coarser than `δi`), `MT`'s output is unreliable in both
//! directions and `MH` falls back to the statistical estimate alone.

use crate::bernoulli::BernoulliEstimator;
use crate::config::EstimationContext;
use crate::coverage::CoverageEstimator;
use crate::estimator::{CellStats, Estimator, Lane};
use crate::poisson::PoissonEstimator;
use crate::sampling::SamplingEstimator;
use crate::timing::TimingEstimator;
use crate::window_occupancy::WindowOccupancyEstimator;
use botmeter_dga::BarrelClass;

/// `MH`: statistical estimate floored by `MT`'s temporal evidence.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridEstimator;

impl HybridEstimator {
    /// The statistical (semantic-trait) estimator for a barrel class:
    /// `AU` → Poisson, `AR` → Coverage, `AS` → Sampling,
    /// `AP` → WindowOccupancy.
    pub fn statistical_for(class: BarrelClass) -> Box<dyn Estimator> {
        match class {
            BarrelClass::Uniform => Box::new(PoissonEstimator::new()),
            BarrelClass::RandomCut => Box::new(CoverageEstimator),
            BarrelClass::Sampling => Box::new(SamplingEstimator),
            BarrelClass::Permutation => Box::new(WindowOccupancyEstimator),
        }
    }

    /// Whether `MT`'s temporal evidence is trustworthy in this context:
    /// the family paces lookups on a fixed `δi` lattice and the trace's
    /// timestamps resolve that lattice.
    pub fn timing_reliable(ctx: &EstimationContext) -> bool {
        match ctx.family().params().timing().fixed_interval() {
            Some(di) => {
                let g = ctx.granularity();
                g.is_zero() || g <= di
            }
            None => false,
        }
    }
}

impl Estimator for HybridEstimator {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    /// `MT`'s lookups plus whichever lane the family's statistical model
    /// reads.
    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Lookups, Lane::Distinct, Lane::Volume]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        if cell.lookups().is_empty() {
            return 0.0;
        }
        let statistical = Self::statistical_for(ctx.family().barrel_class());
        let s = statistical.estimate_cell(cell, ctx);
        if Self::timing_reliable(ctx) {
            let t = TimingEstimator.estimate_cell(cell, ctx);
            s.max(t)
        } else {
            s
        }
    }
}

/// An alternative reading of "Bernoulli" for `AR` in hybrid form: segment
/// shapes floored by temporal evidence. Exposed for the ablation bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridBernoulli;

impl Estimator for HybridBernoulli {
    fn name(&self) -> &'static str {
        "Hybrid-Bernoulli"
    }

    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Lookups, Lane::Positions]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        if cell.lookups().is_empty() {
            return 0.0;
        }
        let s = BernoulliEstimator::default().estimate_cell(cell, ctx);
        if HybridEstimator::timing_reliable(ctx) {
            s.max(TimingEstimator.estimate_cell(cell, ctx))
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absolute_relative_error;
    use botmeter_dga::DgaFamily;
    use botmeter_dns::{SimDuration, TtlPolicy};
    use botmeter_sim::ScenarioSpec;

    fn ctx_with_granularity(family: DgaFamily, gran: SimDuration) -> EstimationContext {
        EstimationContext::new(family, TtlPolicy::paper_default(), gran)
    }

    #[test]
    fn statistical_assignment_covers_all_classes() {
        assert_eq!(
            HybridEstimator::statistical_for(BarrelClass::Uniform).name(),
            "Poisson"
        );
        assert_eq!(
            HybridEstimator::statistical_for(BarrelClass::RandomCut).name(),
            "Coverage"
        );
        assert_eq!(
            HybridEstimator::statistical_for(BarrelClass::Sampling).name(),
            "Sampling"
        );
        assert_eq!(
            HybridEstimator::statistical_for(BarrelClass::Permutation).name(),
            "WindowOccupancy"
        );
    }

    #[test]
    fn timing_reliability_rules() {
        // Murofet: δi = 500 ms.
        let fine = ctx_with_granularity(DgaFamily::murofet(), SimDuration::from_millis(100));
        assert!(HybridEstimator::timing_reliable(&fine));
        let coarse = ctx_with_granularity(DgaFamily::murofet(), SimDuration::from_secs(1));
        assert!(!HybridEstimator::timing_reliable(&coarse));
        // Ramnit: no fixed interval at any granularity.
        let ramnit = ctx_with_granularity(DgaFamily::ramnit(), SimDuration::from_millis(100));
        assert!(!HybridEstimator::timing_reliable(&ramnit));
    }

    #[test]
    fn empty_stream_is_zero() {
        let ctx = ctx_with_granularity(DgaFamily::new_goz(), SimDuration::from_millis(100));
        assert_eq!(HybridEstimator.estimate(&[], &ctx), 0.0);
        assert_eq!(HybridBernoulli.estimate(&[], &ctx), 0.0);
    }

    #[test]
    fn hybrid_never_below_reliable_timing() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(64)
            .seed(8)
            .build()
            .unwrap()
            .run(botmeter_exec::ExecPolicy::default());
        let ctx = EstimationContext::new(
            outcome.family().clone(),
            outcome.ttl(),
            outcome.granularity(),
        );
        let h = HybridEstimator.estimate(outcome.observed(), &ctx);
        let t = TimingEstimator.estimate(outcome.observed(), &ctx);
        assert!(h >= t, "hybrid {h} below its own floor {t}");
    }

    #[test]
    fn hybrid_accuracy_is_competitive_on_ar() {
        let mut hybrid_sum = 0.0;
        let mut cov_sum = 0.0;
        for seed in 0..4u64 {
            let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
                .population(64)
                .seed(5000 + seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let ctx = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let actual = outcome.ground_truth()[0] as f64;
            hybrid_sum +=
                absolute_relative_error(HybridEstimator.estimate(outcome.observed(), &ctx), actual);
            cov_sum += absolute_relative_error(
                CoverageEstimator.estimate(outcome.observed(), &ctx),
                actual,
            );
        }
        assert!(
            hybrid_sum <= cov_sum + 0.4,
            "hybrid ({hybrid_sum}) should stay near coverage ({cov_sum})"
        );
    }

    #[test]
    fn hybrid_bernoulli_improves_saturated_mb() {
        // At N=128 MB's set statistic saturates low; the MT floor lifts it.
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(128)
            .seed(17)
            .build()
            .unwrap()
            .run(botmeter_exec::ExecPolicy::default());
        let ctx = EstimationContext::new(
            outcome.family().clone(),
            outcome.ttl(),
            outcome.granularity(),
        );
        let actual = outcome.ground_truth()[0] as f64;
        let mb = absolute_relative_error(
            BernoulliEstimator::default().estimate(outcome.observed(), &ctx),
            actual,
        );
        let hb =
            absolute_relative_error(HybridBernoulli.estimate(outcome.observed(), &ctx), actual);
        assert!(hb <= mb + 1e-9, "hybrid MB ({hb}) worse than MB ({mb})");
    }

    #[test]
    fn estimator_names() {
        assert_eq!(HybridEstimator.name(), "Hybrid");
        assert_eq!(HybridBernoulli.name(), "Hybrid-Bernoulli");
    }
}
