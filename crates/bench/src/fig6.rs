//! Fig. 6 (a–e): estimation accuracy over synthetic traces.
//!
//! Five sweeps, each over the four barrel-model prototypes of Table I
//! (`AU` Murofet, `AS` Conficker.C, `AR` newGoZ, `AP` Necurs), measuring
//! the absolute relative error of every applicable estimator:
//!
//! * **(a)** bot population `N ∈ {16, 32, 64, 128, 256}`;
//! * **(b)** observation window `∈ {1, 2, 4, 8, 16}` epochs;
//! * **(c)** negative-cache TTL `∈ {20, 40, 80, 160, 320}` minutes;
//! * **(d)** activation-rate dynamics `σ ∈ {0.5, 1, 1.5, 2, 2.5}`;
//! * **(e)** D3 missing rate `x ∈ {10, 20, 30, 40, 50}` %.
//!
//! Every panel charts the models of `models_for` through
//! [`BotMeter`](botmeter_core::BotMeter) — `MT` everywhere, `MP` on `AU`,
//! `MB` on `AR`, exactly the paper's assignment (§V-A), plus this
//! reproduction's `MC` and `MS` extensions.

use crate::chart::{detection_window, model_name, models_for, TrialChart};
use crate::render::TextTable;
use botmeter_core::{absolute_relative_error, BernoulliEstimator, ModelKind};
use botmeter_dga::{BarrelClass, DgaFamily};
use botmeter_dns::{SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_sim::{ActivationModel, ScenarioSpec};
use botmeter_stats::{SeedSequence, Summary};

/// Independent trials per sweep point (the paper draws quartile error
/// bars; 15 trials make them stable).
pub const TRIALS: usize = 15;
/// Root seed for the whole figure.
const SEED: u64 = 0x0000_F166;
/// Population for subplots (b)–(e).
const DEFAULT_POPULATION: u64 = 64;
/// The series label of the window-naive `MB` in subplot (e).
const NAIVE_BERNOULLI: &str = "Bernoulli-naive";

/// Which Fig. 6 subplot to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subplot {
    /// (a) DGA-bot population.
    Population,
    /// (b) length of observation window.
    WindowLength,
    /// (c) negative cache TTL.
    NegativeTtl,
    /// (d) dynamics of bot activation rate.
    RateDynamics,
    /// (e) missing rate of the D3 algorithm.
    MissingRate,
}

impl Subplot {
    /// All subplots in figure order.
    pub const ALL: [Subplot; 5] = [
        Subplot::Population,
        Subplot::WindowLength,
        Subplot::NegativeTtl,
        Subplot::RateDynamics,
        Subplot::MissingRate,
    ];

    /// The figure letter.
    pub fn letter(&self) -> char {
        match self {
            Subplot::Population => 'a',
            Subplot::WindowLength => 'b',
            Subplot::NegativeTtl => 'c',
            Subplot::RateDynamics => 'd',
            Subplot::MissingRate => 'e',
        }
    }

    /// The swept parameter's axis label.
    pub fn axis(&self) -> &'static str {
        match self {
            Subplot::Population => "DGA-bot population (N)",
            Subplot::WindowLength => "Length of observation window (# epoch)",
            Subplot::NegativeTtl => "Negative cache TTL (min)",
            Subplot::RateDynamics => "Dynamics of bot activation rate (sigma)",
            Subplot::MissingRate => "Missing rate of D3 algorithm (%)",
        }
    }

    /// The paper's sweep values for this subplot.
    pub fn values(&self) -> Vec<f64> {
        match self {
            Subplot::Population => vec![16.0, 32.0, 64.0, 128.0, 256.0],
            Subplot::WindowLength => vec![1.0, 2.0, 4.0, 8.0, 16.0],
            Subplot::NegativeTtl => vec![20.0, 40.0, 80.0, 160.0, 320.0],
            Subplot::RateDynamics => vec![0.5, 1.0, 1.5, 2.0, 2.5],
            Subplot::MissingRate => vec![10.0, 20.0, 30.0, 40.0, 50.0],
        }
    }
}

/// The aggregated result of one (subplot, family) panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Which subplot the panel belongs to.
    pub subplot: Subplot,
    /// The DGA family (`AU`/`AS`/`AR`/`AP` prototype).
    pub family: String,
    /// The family's taxonomy shorthand.
    pub shorthand: &'static str,
    /// One point per (x, estimator) pair.
    pub points: Vec<SweepPoint>,
}

/// One aggregated sweep point: the x value, a series label and the
/// distribution of per-trial AREs.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// Series label (estimator name).
    pub series: String,
    /// Distribution of per-trial absolute relative errors.
    pub summary: Summary,
}

impl SweepPoint {
    /// Aggregates raw per-trial errors into a point.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty.
    pub(crate) fn from_errors(x: f64, series: &str, errors: &[f64]) -> Self {
        SweepPoint {
            x,
            series: series.to_owned(),
            summary: Summary::from_slice(errors),
        }
    }
}

/// Runs all five subplots at [`TRIALS`] trials per point and renders
/// what `fig6` prints.
pub fn report() -> String {
    let mut out = format!(
        "Fig. 6 — estimation accuracy of BotMeter ({TRIALS} trials per point; \
         error bars = 25th–75th percentile of ARE)\n"
    );
    for subplot in Subplot::ALL {
        out.push_str(&render_panels(&run_subplot(subplot, TRIALS)));
    }
    out
}

/// Runs one subplot across all four prototype families.
pub(crate) fn run_subplot(subplot: Subplot, trials: usize) -> Vec<Panel> {
    DgaFamily::table1_prototypes()
        .into_iter()
        .enumerate()
        .map(|(fi, family)| run_panel(subplot, family, fi as u64, trials))
        .collect()
}

/// Subplot (e) contrasts the paper-faithful (window-naive) `MB` against
/// the window-aware repair.
fn charts_naive_bernoulli(subplot: Subplot, family: &DgaFamily) -> bool {
    subplot == Subplot::MissingRate && family.barrel_class() == BarrelClass::RandomCut
}

fn run_panel(subplot: Subplot, family: DgaFamily, family_idx: u64, trials: usize) -> Panel {
    let models = models_for(&family);
    let mut series: Vec<&str> = models.iter().map(|&m| model_name(&family, m)).collect();
    if charts_naive_bernoulli(subplot, &family) {
        series.push(NAIVE_BERNOULLI);
    }
    let root = SeedSequence::new(SEED)
        .fork(subplot.letter() as u64)
        .fork(family_idx);

    let mut points = Vec::new();
    for (xi, &x) in subplot.values().iter().enumerate() {
        let trial_seeds = root.fork(xi as u64);
        // Each trial returns one ARE per series.
        let per_trial: Vec<Vec<f64>> = botmeter_exec::run_indexed_with(
            ExecPolicy::default(),
            &botmeter_obs::Obs::noop(),
            trials,
            |trial| {
                let seed = trial_seeds.fork(trial as u64).seed();
                run_one_trial(subplot, &family, &models, x, seed)
            },
        );
        for (si, name) in series.iter().enumerate() {
            let errors: Vec<f64> = per_trial.iter().map(|t| t[si]).collect();
            points.push(SweepPoint::from_errors(x, name, &errors));
        }
    }
    Panel {
        subplot,
        family: family.name().to_owned(),
        shorthand: family.barrel_class().shorthand(),
        points,
    }
}

/// One trial's ARE per model of `models`, then the window-naive `MB`'s
/// where subplot (e) charts it.
fn run_one_trial(
    subplot: Subplot,
    family: &DgaFamily,
    models: &[ModelKind],
    x: f64,
    seed: u64,
) -> Vec<f64> {
    // Assemble the scenario for this subplot's x value.
    let mut population = DEFAULT_POPULATION;
    let mut num_epochs = 1u64;
    let mut ttl = TtlPolicy::paper_default();
    let mut activation = ActivationModel::ConstantRate;
    let mut missing_rate = 0.0f64;
    match subplot {
        Subplot::Population => population = x as u64,
        Subplot::WindowLength => num_epochs = x as u64,
        Subplot::NegativeTtl => ttl = ttl.with_negative(SimDuration::from_mins(x as u64)),
        Subplot::RateDynamics => activation = ActivationModel::DynamicRate { sigma: x },
        Subplot::MissingRate => missing_rate = x / 100.0,
    }

    let outcome = ScenarioSpec::builder(family.clone())
        .population(population)
        .num_epochs(num_epochs)
        .ttl(ttl)
        .activation(activation)
        .seed(seed)
        .build()
        .expect("sweep parameters are valid")
        .run(ExecPolicy::default());

    // D3 matching, with an imperfect window for subplot (e).
    let window = (missing_rate > 0.0)
        .then(|| detection_window(family, 0..num_epochs, missing_rate, seed ^ 0xD3));
    let chart = TrialChart::of_scenario(&outcome, window);

    // Per-epoch estimates averaged over the window (§V-A for Fig. 6(b)).
    let actual_avg = outcome.ground_truth().iter().sum::<u64>() as f64 / num_epochs as f64;
    let mut estimates: Vec<Vec<f64>> = models.iter().map(|&m| chart.estimates(m)).collect();
    if charts_naive_bernoulli(subplot, family) {
        estimates.push(chart.estimates_with(&BernoulliEstimator::window_naive()));
    }
    estimates
        .iter()
        .map(|per_epoch| {
            let mean = per_epoch.iter().sum::<f64>() / num_epochs as f64;
            absolute_relative_error(mean, actual_avg)
        })
        .collect()
}

/// Renders the panels of one subplot as text tables.
pub(crate) fn render_panels(panels: &[Panel]) -> String {
    let mut out = String::new();
    for panel in panels {
        out.push_str(&format!(
            "\nFig. 6({}) — {} — {} ({})\n",
            panel.subplot.letter(),
            panel.subplot.axis(),
            panel.family,
            panel.shorthand,
        ));
        let mut table = TextTable::new(&["x", "estimator", "q25", "median", "q75", "mean"]);
        for p in &panel.points {
            table.row(&[
                &format_x(panel.subplot, p.x),
                &p.series,
                &format!("{:.3}", p.summary.q25()),
                &format!("{:.3}", p.summary.median()),
                &format!("{:.3}", p.summary.q75()),
                &format!("{:.3}", p.summary.mean()),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

fn format_x(subplot: Subplot, x: f64) -> String {
    match subplot {
        Subplot::RateDynamics => format!("{x:.1}"),
        _ => format!("{}", x as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_aggregation() {
        let p = SweepPoint::from_errors(64.0, "Poisson", &[0.1, 0.2, 0.3]);
        assert_eq!(p.x, 64.0);
        assert_eq!(p.series, "Poisson");
        assert_eq!(p.summary.median(), 0.2);
    }

    #[test]
    fn estimator_assignment_matches_paper() {
        use ModelKind::*;
        assert_eq!(models_for(&DgaFamily::murofet()), vec![Timing, Poisson]);
        assert_eq!(
            models_for(&DgaFamily::conficker_c()),
            vec![Timing, Sampling]
        );
        assert_eq!(
            models_for(&DgaFamily::new_goz()),
            vec![Timing, Bernoulli, Coverage]
        );
        assert_eq!(models_for(&DgaFamily::necurs()), vec![Timing]);
    }

    #[test]
    fn one_trial_produces_one_error_per_estimator() {
        let family = DgaFamily::murofet();
        let models = models_for(&family);
        let errors = run_one_trial(Subplot::Population, &family, &models, 16.0, 42);
        assert_eq!(errors.len(), 2);
        assert!(errors.iter().all(|e| e.is_finite() && *e >= 0.0));
    }

    #[test]
    fn missing_rate_trial_uses_detection_window() {
        let family = DgaFamily::new_goz();
        let models = models_for(&family);
        let errors = run_one_trial(Subplot::MissingRate, &family, &models, 50.0, 7);
        // Three library models plus the window-naive MB.
        assert_eq!(errors.len(), 4);
        // Without window handling MB bills every hidden domain's gap as
        // extra segments; the window-aware MB the meter charts does not.
        assert!(errors[1] < errors[3], "{errors:?}");
    }

    #[test]
    fn render_contains_every_series() {
        let family = DgaFamily::murofet();
        let panel = run_panel(Subplot::Population, family, 0, 2);
        let text = render_panels(&[panel]);
        assert!(text.contains("Timing") && text.contains("Poisson"));
        assert!(text.contains("Fig. 6(a)"));
    }
}
