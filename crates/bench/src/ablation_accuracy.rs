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

use crate::chart::{detection_window, TrialChart};
use crate::render::TextTable;
use botmeter_core::{absolute_relative_error, BernoulliEstimator, ModelKind, PoissonEstimator};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use botmeter_sim::ScenarioSpec;
use botmeter_stats::SeedSequence;

/// Trials per cell.
pub const TRIALS: usize = 10;
/// Root seed.
const SEED: u64 = 0xAB1A;

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

/// Runs every ablation, `trials` trials per cell.
pub fn run_all(trials: usize) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    rows.extend(mb_window_handling(trials));
    rows.extend(mp_regularisation(trials));
    rows
}

/// The mean of each column of per-trial `(a, b)` pairs.
fn column_means(per_trial: &[(f64, f64)]) -> (f64, f64) {
    let n = per_trial.len() as f64;
    (
        per_trial.iter().map(|t| t.0).sum::<f64>() / n,
        per_trial.iter().map(|t| t.1).sum::<f64>() / n,
    )
}

/// Window-aware `MB` (the meter's) against the window-naive one over the
/// same seeded newGoZ N = 64 trials, under a perfect and a 30 %-missing
/// detection window.
fn mb_window_handling(trials: usize) -> Vec<AblationRow> {
    let family = DgaFamily::new_goz();
    let seeds = SeedSequence::new(SEED).fork(1);
    let mut rows = Vec::new();
    for (missing, label) in [(0.0, "perfect window"), (0.3, "30% missing")] {
        let per_trial: Vec<(f64, f64)> =
            botmeter_exec::run_indexed_with(ExecPolicy::default(), &Obs::noop(), trials, |trial| {
                let outcome = ScenarioSpec::builder(family.clone())
                    .population(64)
                    .seed(seeds.fork(trial as u64).seed())
                    .build()
                    .expect("valid scenario")
                    .run(ExecPolicy::default());
                let window =
                    (missing > 0.0).then(|| detection_window(&family, 0..1, missing, trial as u64));
                let chart = TrialChart::of_scenario(&outcome, window);
                let actual = outcome.ground_truth()[0] as f64;
                let aware = chart.estimates(ModelKind::Bernoulli)[0];
                let naive = chart.estimates_with(&BernoulliEstimator::window_naive())[0];
                (
                    absolute_relative_error(aware, actual),
                    absolute_relative_error(naive, actual),
                )
            });
        let (aware, naive) = column_means(&per_trial);
        for (variant, mean_are) in [
            ("window-aware (default)", aware),
            ("window-naive (as printed)", naive),
        ] {
            rows.push(AblationRow {
                study: "MB window handling",
                variant: variant.into(),
                workload: format!("newGoZ N=64, {label}"),
                mean_are,
            });
        }
    }
    rows
}

/// Pure Eq. 1 `MP` (the meter's) against the Gamma-prior variant over the
/// same seeded Murofet trials, on a tiny and a moderate population.
fn mp_regularisation(trials: usize) -> Vec<AblationRow> {
    let seeds = SeedSequence::new(SEED).fork(2);
    let mut rows = Vec::new();
    for (population, label) in [(4u64, "tiny (N=4)"), (64, "moderate (N=64)")] {
        let per_trial: Vec<(f64, f64)> =
            botmeter_exec::run_indexed_with(ExecPolicy::default(), &Obs::noop(), trials, |trial| {
                let outcome = ScenarioSpec::builder(DgaFamily::murofet())
                    .population(population)
                    .seed(seeds.fork(population).fork(trial as u64).seed())
                    .build()
                    .expect("valid scenario")
                    .run(ExecPolicy::default());
                let actual = outcome.ground_truth()[0];
                if actual == 0 {
                    return (0.0, 0.0); // quiet draw: both variants answer 0-ish
                }
                let chart = TrialChart::of_scenario(&outcome, None);
                let pure = chart.estimates(ModelKind::Poisson)[0];
                let prior = chart.estimates_with(&PoissonEstimator::regularized())[0];
                (
                    absolute_relative_error(pure, actual as f64),
                    absolute_relative_error(prior, actual as f64),
                )
            });
        let (pure, prior) = column_means(&per_trial);
        for (variant, mean_are) in [("pure Eq. 1", pure), ("Gamma-prior", prior)] {
            rows.push(AblationRow {
                study: "MP regularisation",
                variant: variant.into(),
                workload: format!("Murofet {label}"),
                mean_are,
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

    #[test]
    fn all_studies_produce_rows() {
        let rows = run_all(2);
        let studies: std::collections::HashSet<_> = rows.iter().map(|r| r.study).collect();
        assert_eq!(studies.len(), 2);
        assert!(rows.iter().all(|r| r.mean_are.is_finite()));
    }

    #[test]
    fn window_aware_beats_naive_under_missing_domains() {
        let rows = mb_window_handling(2);
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
        let text = render(&run_all(2));
        for s in ["MB window handling", "MP regularisation"] {
            assert!(text.contains(s));
        }
    }
}
