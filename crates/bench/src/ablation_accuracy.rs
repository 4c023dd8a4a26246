//! Accuracy ablations for the estimator-level design choices this
//! reproduction made (DESIGN.md §3 and §5):
//!
//! * **MB window handling** — splice undetectable positions out of the
//!   circle (our repair) vs read them as "not queried" (the paper-faithful
//!   naive reading);
//! * **MP regularisation** — pure Eq. 1 vs the Gamma-prior variant, on
//!   small and moderate populations.
//!
//! Each ablation reports mean ARE over seeded trials so the choice's
//! effect is a number, not an anecdote.

use crate::render::TextTable;
use crate::sweep::run_trials;
use botmeter_core::{
    absolute_relative_error, BernoulliEstimator, EstimationContext, Estimator, PoissonEstimator,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::ServerId;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DetectionWindow, ExactMatcher};
use botmeter_sim::ScenarioSpec;
use botmeter_stats::SeedSequence;

/// Options for the ablation study.
#[derive(Debug, Clone, Copy)]
pub struct AblationOptions {
    /// Trials per cell.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for AblationOptions {
    fn default() -> Self {
        AblationOptions {
            trials: 10,
            seed: 0xAB1A,
        }
    }
}

/// One ablation row: a named configuration and its mean ARE.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which ablation the row belongs to.
    pub study: &'static str,
    /// The configuration under test.
    pub variant: String,
    /// The workload description.
    pub workload: String,
    /// Mean ARE across trials.
    pub mean_are: f64,
}

/// Runs every ablation.
pub fn run_all(opts: &AblationOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    rows.extend(mb_window_handling(opts));
    rows.extend(mp_regularisation(opts));
    rows
}

/// Mean ARE of `estimator` over seeded newGoZ trials with a detection
/// window of the given missing rate (0 = perfect).
fn windowed_mean_are(
    estimator: &(dyn Estimator + Sync),
    missing: f64,
    population: u64,
    opts: &AblationOptions,
    stream_label: u64,
) -> f64 {
    let family = DgaFamily::new_goz();
    let seeds = SeedSequence::new(opts.seed).fork(stream_label);
    let errors: Vec<f64> = run_trials(opts.trials, |trial| {
        let outcome = ScenarioSpec::builder(family.clone())
            .population(population)
            .seed(seeds.fork(trial as u64).seed())
            .build()
            .expect("valid scenario")
            .run(ExecPolicy::default());
        let exact = ExactMatcher::from_family(&family, 0..2);
        let mut ctx = EstimationContext::new(family.clone(), outcome.ttl(), outcome.granularity());
        let lookups = if missing > 0.0 {
            let window = DetectionWindow::new(&exact, missing, trial as u64);
            ctx = ctx.with_detection_window(window.known_domains().clone());
            match_stream(outcome.observed(), &window, ExecPolicy::default())
        } else {
            match_stream(outcome.observed(), &exact, ExecPolicy::default())
        };
        let est = estimator.estimate(lookups.for_server(ServerId(1)), &ctx);
        absolute_relative_error(est, outcome.ground_truth()[0] as f64)
    });
    errors.iter().sum::<f64>() / errors.len() as f64
}

fn mb_window_handling(opts: &AblationOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (missing, label) in [(0.0, "perfect window"), (0.3, "30% missing")] {
        rows.push(AblationRow {
            study: "MB window handling",
            variant: "window-aware (default)".into(),
            workload: format!("newGoZ N=64, {label}"),
            mean_are: windowed_mean_are(&BernoulliEstimator::default(), missing, 64, opts, 1),
        });
        rows.push(AblationRow {
            study: "MB window handling",
            variant: "window-naive (as printed)".into(),
            workload: format!("newGoZ N=64, {label}"),
            mean_are: windowed_mean_are(&BernoulliEstimator::window_naive(), missing, 64, opts, 1),
        });
    }
    rows
}

fn mp_regularisation(opts: &AblationOptions) -> Vec<AblationRow> {
    let seeds = SeedSequence::new(opts.seed).fork(2);
    let mut rows = Vec::new();
    for (population, label) in [(4u64, "tiny (N=4)"), (64, "moderate (N=64)")] {
        for (est, variant) in [
            (PoissonEstimator::new(), "pure Eq. 1"),
            (PoissonEstimator::regularized(), "Gamma-prior"),
        ] {
            let errors: Vec<f64> = run_trials(opts.trials, |trial| {
                let outcome = ScenarioSpec::builder(DgaFamily::murofet())
                    .population(population)
                    .seed(seeds.fork(population).fork(trial as u64).seed())
                    .build()
                    .expect("valid scenario")
                    .run(ExecPolicy::default());
                let actual = outcome.ground_truth()[0];
                if actual == 0 {
                    return 0.0; // quiet draw: both variants answer 0-ish
                }
                let ctx = EstimationContext::new(
                    outcome.family().clone(),
                    outcome.ttl(),
                    outcome.granularity(),
                );
                absolute_relative_error(est.estimate(outcome.observed(), &ctx), actual as f64)
            });
            rows.push(AblationRow {
                study: "MP regularisation",
                variant: variant.into(),
                workload: format!("Murofet {label}"),
                mean_are: errors.iter().sum::<f64>() / errors.len() as f64,
            });
        }
    }
    rows
}

/// Renders the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut table = TextTable::new(&["study", "variant", "workload", "mean ARE"]);
    for r in rows {
        table.row(&[
            r.study,
            &r.variant,
            &r.workload,
            &format!("{:.3}", r.mean_are),
        ]);
    }
    format!(
        "\nAccuracy ablations — estimator design choices\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationOptions {
        AblationOptions { trials: 2, seed: 3 }
    }

    #[test]
    fn all_studies_produce_rows() {
        let rows = run_all(&tiny());
        let studies: std::collections::HashSet<_> = rows.iter().map(|r| r.study).collect();
        assert_eq!(studies.len(), 2);
        assert!(rows.iter().all(|r| r.mean_are.is_finite()));
    }

    #[test]
    fn window_aware_beats_naive_under_missing_domains() {
        let rows = mb_window_handling(&tiny());
        let find = |variant: &str, workload: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(variant) && r.workload.contains(workload))
                .map(|r| r.mean_are)
                .expect("row exists")
        };
        assert!(
            find("window-aware", "30%") < find("window-naive", "30%"),
            "the repair must win under a shrunken window"
        );
    }

    #[test]
    fn render_contains_all_studies() {
        let text = render(&run_all(&tiny()));
        for s in ["MB window handling", "MP regularisation"] {
            assert!(text.contains(s));
        }
    }
}
