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
//! The Timing estimator runs everywhere, the Poisson estimator on `AU`,
//! and the Bernoulli estimator (plus this reproduction's Coverage
//! cross-check) on `AR` — exactly the paper's assignment (§V-A).

use crate::render::TextTable;
use crate::sweep::{run_trials_with, SweepPoint};
use botmeter_core::{
    absolute_relative_error, BernoulliEstimator, CellStats, CoverageEstimator, EstimationContext,
    Estimator, Lane, PoissonEstimator, SamplingEstimator, TimingEstimator,
};
use botmeter_dga::{BarrelClass, DgaFamily};
use botmeter_dns::{ObservedLookup, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream_recorded, DetectionWindow, ExactMatcher};
use botmeter_obs::Obs;
use botmeter_sim::{ActivationModel, ScenarioSpec};
use botmeter_stats::SeedSequence;

/// Which Fig. 6 subplot to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
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

    /// Parses the subplot letter `a`–`e`.
    pub fn from_letter(letter: &str) -> Option<Subplot> {
        match letter.trim().to_ascii_lowercase().as_str() {
            "a" => Some(Subplot::Population),
            "b" => Some(Subplot::WindowLength),
            "c" => Some(Subplot::NegativeTtl),
            "d" => Some(Subplot::RateDynamics),
            "e" => Some(Subplot::MissingRate),
            _ => None,
        }
    }

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

/// Harness options (trial counts scale runtime linearly).
#[derive(Debug, Clone)]
pub struct Fig6Options {
    /// Independent trials per sweep point (the paper draws quartile error
    /// bars; 15+ trials make them stable).
    pub trials: usize,
    /// Root seed for the whole figure.
    pub seed: u64,
    /// Default population for subplots (b)–(e).
    pub default_population: u64,
    /// Observability handle: every trial's pipeline (simulation, cache
    /// filtering, matching) and the sweep scheduler report into it. Counter
    /// totals are order-independent, so the sweep stays reproducible.
    pub obs: Obs,
}

impl Default for Fig6Options {
    fn default() -> Self {
        Fig6Options {
            trials: 15,
            seed: 0x0000_F166,
            default_population: 64,
            obs: Obs::noop(),
        }
    }
}

/// The aggregated result of one (subplot, family) panel.
#[derive(Debug, Clone, serde::Serialize)]
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

/// The paper-faithful, window-naive Bernoulli variant with a distinct
/// series label for the Fig. 6(e) tables.
struct NaiveBernoulli;

impl Estimator for NaiveBernoulli {
    fn name(&self) -> &'static str {
        "Bernoulli-naive"
    }
    fn lanes(&self) -> &'static [Lane] {
        BernoulliEstimator::window_naive().lanes()
    }
    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        BernoulliEstimator::window_naive().estimate_cell(cell, ctx)
    }
}

/// The four Table I prototypes the figure sweeps over.
fn prototype_families() -> Vec<DgaFamily> {
    DgaFamily::table1_prototypes()
}

/// Estimators applicable to a family: the paper's assignment (`MT`
/// everywhere, `MP` on `AU`, `MB` on `AR`) plus this reproduction's
/// extensions (`MC` on `AR`, `MS` on `AS`); `AP` gets `MT` alone.
fn estimators_for(family: &DgaFamily) -> Vec<Box<dyn Estimator + Sync>> {
    let mut list: Vec<Box<dyn Estimator + Sync>> = vec![Box::new(TimingEstimator)];
    match family.barrel_class() {
        BarrelClass::Uniform => list.push(Box::new(PoissonEstimator::new())),
        BarrelClass::RandomCut => {
            list.push(Box::new(BernoulliEstimator::default()));
            list.push(Box::new(CoverageEstimator));
        }
        BarrelClass::Sampling => list.push(Box::new(SamplingEstimator)),
        BarrelClass::Permutation => {}
    }
    list
}

/// Runs one subplot across all four prototype families.
pub fn run_subplot(subplot: Subplot, opts: &Fig6Options) -> Vec<Panel> {
    prototype_families()
        .into_iter()
        .enumerate()
        .map(|(fi, family)| run_panel(subplot, family, fi as u64, opts))
        .collect()
}

fn run_panel(subplot: Subplot, family: DgaFamily, family_idx: u64, opts: &Fig6Options) -> Panel {
    let mut estimators = estimators_for(&family);
    // Subplot (e) contrasts the paper-faithful (window-naive) Bernoulli
    // against the window-aware repair.
    if subplot == Subplot::MissingRate && family.barrel_class() == BarrelClass::RandomCut {
        estimators.push(Box::new(NaiveBernoulli));
    }
    let shorthand = family.barrel_class().shorthand();
    let root = SeedSequence::new(opts.seed)
        .fork(subplot.letter() as u64)
        .fork(family_idx);

    let mut points = Vec::new();
    for (xi, &x) in subplot.values().iter().enumerate() {
        let trial_seeds = root.fork(xi as u64);
        // Each trial returns one ARE per estimator.
        let per_trial: Vec<Vec<f64>> =
            run_trials_with(ExecPolicy::default(), &opts.obs, opts.trials, |trial| {
                run_one_trial(
                    subplot,
                    &family,
                    &estimators,
                    x,
                    trial_seeds.fork(trial as u64).seed(),
                    opts,
                )
            });
        for (ei, est) in estimators.iter().enumerate() {
            let errors: Vec<f64> = per_trial.iter().map(|t| t[ei]).collect();
            points.push(SweepPoint::from_errors(x, est.name(), &errors));
        }
    }
    Panel {
        subplot,
        family: family.name().to_owned(),
        shorthand,
        points,
    }
}

fn run_one_trial(
    subplot: Subplot,
    family: &DgaFamily,
    estimators: &[Box<dyn Estimator + Sync>],
    x: f64,
    seed: u64,
    opts: &Fig6Options,
) -> Vec<f64> {
    // Assemble the scenario for this subplot's x value.
    let mut population = opts.default_population;
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
        .obs(opts.obs.clone())
        .build()
        .expect("sweep parameters are valid")
        .run(ExecPolicy::default());

    // D3 matching, with an imperfect window for subplot (e).
    let exact = ExactMatcher::from_family(family, 0..num_epochs + 1);
    let window = if missing_rate > 0.0 {
        Some(DetectionWindow::new(&exact, missing_rate, seed ^ 0xD3))
    } else {
        None
    };
    let matched = match window.as_ref() {
        Some(w) => match_stream_recorded(outcome.observed(), w, ExecPolicy::default(), &opts.obs),
        None => match_stream_recorded(outcome.observed(), &exact, ExecPolicy::default(), &opts.obs),
    };
    let lookups = matched.for_server(botmeter_dns::ServerId(1));

    let mut ctx = EstimationContext::new(family.clone(), ttl, outcome.granularity());
    if let Some(w) = &window {
        ctx = ctx.with_detection_window(w.known_domains().clone());
    }

    // Per-epoch estimates averaged over the window (§V-A for Fig. 6(b)).
    let epoch_len = family.epoch_len();
    let actual_avg = outcome.ground_truth().iter().sum::<u64>() as f64 / num_epochs as f64;
    estimators
        .iter()
        .map(|est| {
            let mut sum = 0.0;
            for epoch in 0..num_epochs {
                let slice: Vec<ObservedLookup> = lookups
                    .iter()
                    .filter(|l| l.t.epoch_day(epoch_len) == epoch)
                    .cloned()
                    .collect();
                sum += est.estimate(&slice, &ctx);
            }
            absolute_relative_error(sum / num_epochs as f64, actual_avg)
        })
        .collect()
}

/// Renders the panels of one subplot as text tables.
pub fn render_panels(panels: &[Panel]) -> String {
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

    fn tiny() -> Fig6Options {
        Fig6Options {
            trials: 2,
            seed: 1,
            default_population: 16,
            obs: Obs::noop(),
        }
    }

    #[test]
    fn subplot_parsing_and_labels() {
        assert_eq!(Subplot::from_letter("a"), Some(Subplot::Population));
        assert_eq!(Subplot::from_letter("E"), Some(Subplot::MissingRate));
        assert_eq!(Subplot::from_letter("z"), None);
        for s in Subplot::ALL {
            assert_eq!(Subplot::from_letter(&s.letter().to_string()), Some(s));
            assert_eq!(s.values().len(), 5);
        }
    }

    #[test]
    fn estimator_assignment_matches_paper() {
        let names = |f: DgaFamily| -> Vec<&'static str> {
            estimators_for(&f).iter().map(|e| e.name()).collect()
        };
        assert_eq!(names(DgaFamily::murofet()), vec!["Timing", "Poisson"]);
        assert_eq!(names(DgaFamily::conficker_c()), vec!["Timing", "Sampling"]);
        assert_eq!(
            names(DgaFamily::new_goz()),
            vec!["Timing", "Bernoulli", "Coverage"]
        );
        assert_eq!(names(DgaFamily::necurs()), vec!["Timing"]);
    }

    #[test]
    fn one_trial_produces_one_error_per_estimator() {
        let family = DgaFamily::murofet();
        let estimators = estimators_for(&family);
        let errors = run_one_trial(Subplot::Population, &family, &estimators, 16.0, 42, &tiny());
        assert_eq!(errors.len(), 2);
        assert!(errors.iter().all(|e| e.is_finite() && *e >= 0.0));
    }

    #[test]
    fn missing_rate_trial_uses_detection_window() {
        let family = DgaFamily::new_goz();
        let estimators = estimators_for(&family);
        let errors = run_one_trial(Subplot::MissingRate, &family, &estimators, 50.0, 7, &tiny());
        assert_eq!(errors.len(), 3);
    }

    #[test]
    fn render_contains_every_series() {
        let family = DgaFamily::murofet();
        let panel = run_panel(Subplot::Population, family, 0, &tiny());
        let text = render_panels(&[panel]);
        assert!(text.contains("Timing") && text.contains("Poisson"));
        assert!(text.contains("Fig. 6(a)"));
    }
}
