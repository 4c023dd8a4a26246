//! The evasion study — quantifying the paper's future-work direction #3:
//! how much accuracy each estimator loses against adversarial DGA
//! behaviours ([`EvasionStrategy`]).
//!
//! For each (family, strategy) pair the study runs several trials and
//! reports each applicable estimator's mean ARE, next to the honest
//! baseline. The interesting cells:
//!
//! * **coordinated bursts** starve the Poisson estimator's gap statistic;
//! * **start collusion** caps what segment/coverage statistics can see on
//!   `AR` (the botnet impersonates `shared_starts` bots);
//! * **duty cycling** hides the true footprint from *every* per-epoch
//!   estimator — the estimate tracks the active sub-population, which is
//!   the quantity BotMeter actually defines, so the "error" shown against
//!   the full population is a measure of the strategy's stealth, not an
//!   estimator bug.

use crate::chart::{model_name, models_for, TrialChart};
use crate::render::TextTable;
use botmeter_core::absolute_relative_error;
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_sim::{EvasionStrategy, ScenarioSpec};
use botmeter_stats::SeedSequence;

/// Trials per (family, strategy, estimator) cell.
pub const TRIALS: usize = 10;
/// Bot population per trial.
const POPULATION: u64 = 64;
/// Root seed.
const SEED: u64 = 0x00E7A;

/// One row of the study: a (family, strategy, estimator) cell.
#[derive(Debug, Clone)]
pub struct EvasionRow {
    /// DGA family name.
    pub family: String,
    /// Strategy description.
    pub strategy: String,
    /// Estimator name.
    pub estimator: String,
    /// Mean ARE against the *true active* population.
    pub mean_are_active: f64,
    /// Mean ARE against the *configured* population (for duty cycling the
    /// gap between the two is the strategy's stealth margin).
    pub mean_are_configured: f64,
}

fn strategies() -> Vec<EvasionStrategy> {
    vec![
        EvasionStrategy::None,
        EvasionStrategy::CoordinatedBurst {
            window_fraction: 0.1,
        },
        EvasionStrategy::StartCollusion { shared_starts: 4 },
        EvasionStrategy::DutyCycle { active_prob: 0.25 },
    ]
}

/// Runs the full study over the `AU` and `AR` prototypes, `trials` trials
/// per cell, each charting [`models_for`] the family.
pub fn run_study(trials: usize) -> Vec<EvasionRow> {
    let mut rows = Vec::new();
    for (fi, family) in [DgaFamily::murofet(), DgaFamily::new_goz()]
        .into_iter()
        .enumerate()
    {
        let models = models_for(&family);
        for (si, strategy) in strategies().into_iter().enumerate() {
            let seeds = SeedSequence::new(SEED).fork(fi as u64).fork(si as u64);
            // Each trial yields (ARE vs active, ARE vs configured) per
            // model.
            let per_trial: Vec<Vec<(f64, f64)>> = botmeter_exec::run_indexed_with(
                ExecPolicy::default(),
                &botmeter_obs::Obs::noop(),
                trials,
                |trial| {
                    let outcome = ScenarioSpec::builder(family.clone())
                        .population(POPULATION)
                        .evasion(strategy)
                        .seed(seeds.fork(trial as u64).seed())
                        .build()
                        .expect("study parameters are valid")
                        .run(ExecPolicy::default());
                    let chart = TrialChart::of_scenario(&outcome, None);
                    let active = outcome.ground_truth()[0] as f64;
                    let configured = POPULATION as f64;
                    models
                        .iter()
                        .map(|&model| {
                            let e = chart.estimates(model)[0];
                            (
                                absolute_relative_error(e, active.max(1.0)),
                                absolute_relative_error(e, configured),
                            )
                        })
                        .collect()
                },
            );
            for (mi, &model) in models.iter().enumerate() {
                let n = per_trial.len() as f64;
                let mean_active = per_trial.iter().map(|t| t[mi].0).sum::<f64>() / n;
                let mean_configured = per_trial.iter().map(|t| t[mi].1).sum::<f64>() / n;
                rows.push(EvasionRow {
                    family: family.name().to_owned(),
                    strategy: strategy.to_string(),
                    estimator: model_name(&family, model).to_owned(),
                    mean_are_active: mean_active,
                    mean_are_configured: mean_configured,
                });
            }
        }
    }
    rows
}

/// Renders the study as a text table.
pub fn render_study(rows: &[EvasionRow]) -> String {
    let mut table = TextTable::new(&[
        "family",
        "strategy",
        "estimator",
        "ARE vs active",
        "ARE vs configured",
    ]);
    for r in rows {
        table.row(&[
            &r.family,
            &r.strategy,
            &r.estimator,
            &format!("{:.3}", r.mean_are_active),
            &format!("{:.3}", r.mean_are_configured),
        ]);
    }
    format!(
        "\nEvasion study — estimator accuracy under adversarial DGA behaviour\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_covers_families_strategies_estimators() {
        let rows = run_study(2);
        // Murofet: 2 estimators × 4 strategies; newGoZ: 3 × 4.
        assert_eq!(rows.len(), 2 * 4 + 3 * 4);
        assert!(rows.iter().any(|r| r.strategy.contains("collusion")));
        assert!(rows.iter().all(|r| r.mean_are_active.is_finite()));
    }

    #[test]
    fn start_collusion_breaks_set_statistics() {
        let rows = run_study(2);
        let cell = |strategy: &str, estimator: &str| -> f64 {
            rows.iter()
                .find(|r| {
                    r.family == "newGoZ"
                        && r.strategy.contains(strategy)
                        && r.estimator == estimator
                })
                .map(|r| r.mean_are_active)
                .expect("cell exists")
        };
        let honest = cell("none", "Coverage");
        let attacked = cell("collusion", "Coverage");
        assert!(
            attacked > honest + 0.3,
            "collusion should break MC: {honest} -> {attacked}"
        );
    }

    #[test]
    fn render_mentions_every_strategy() {
        let rows = run_study(2);
        let text = render_study(&rows);
        for s in ["none", "coordinated-burst", "start-collusion", "duty-cycle"] {
            assert!(text.contains(s), "{s} missing from render");
        }
    }
}
