//! ARE-vs-width study for the constant-memory sketch telemetry frontend.
//!
//! Sweeps the bottom-k width over three family/model cases — newGoZ under
//! its default Bernoulli `MB` (positions lane: a lossy cell is `Invalid`),
//! newGoZ under a forced Coverage `MC` (volume lane: a lossy cell is
//! scaled from the sample and `Degraded`) and murofet under its default
//! Poisson `MP` (lookups lane: refused) — charting each width from the
//! sketch and comparing cell by cell against the exact-mode landscape,
//! whose own ARE against the simulator's ground truth sits beside every
//! row. Also records the deterministic `sketch.peak_resident_bytes`
//! accounting beside its `cells × cell_budget_bytes` ceiling, plus a
//! volume-independence probe: the same saturated sketch over twice the bot
//! population (≈2× matched volume).
//!
//! Takes no arguments (any argument exits 2) and writes the study to
//! `BENCH_sketch.json` in the working directory. The floors it is held to
//! — exact or refused at the widest width, `Invalid` positions cells at
//! the narrowest, `MC` error non-increasing in width, the byte ceiling,
//! volume independence and the committed accounting — are cases of
//! `crates/core/tests/sketch_mode.rs`.
//!
//! Usage: `sketch_accuracy`.

use botmeter_core::{
    absolute_relative_error, BotMeter, BotMeterConfig, CellQuality, ChartRequest, Landscape,
    ModelKind,
};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::SketchStream;
use botmeter_obs::Obs;
use botmeter_sim::{ScenarioOutcome, ScenarioSpec};
use botmeter_sketch::{SketchConfig, SketchedTraffic};
use serde::Serialize;

/// Widths swept.
const WIDTHS: [usize; 6] = [8, 32, 128, 1024, 4096, 16384];

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    available_cores: usize,
    widths: Vec<usize>,
    families: Vec<FamilyReport>,
    volume_independence: VolumeIndependence,
}

#[derive(Serialize)]
struct FamilyReport {
    family: String,
    model: &'static str,
    population: u64,
    seed: u64,
    epochs: u64,
    observed_lookups: usize,
    matched_total: u64,
    exact_cells: usize,
    /// Why sketch mode refuses the model, when it does.
    refused: Option<String>,
    sweep: Vec<SweepPoint>,
}

#[derive(Serialize)]
struct SweepPoint {
    width: usize,
    /// Sketch-mode ARE against exact mode (`null` when refused).
    mean_are: Option<f64>,
    max_are: Option<f64>,
    /// Exact-mode ARE against the ground truth, over the same cells.
    exact_are: f64,
    degraded_cells: usize,
    invalid_cells: usize,
    lossy: bool,
    cells: usize,
    peak_resident_bytes: u64,
    cell_budget_bytes: u64,
    resident_bound_bytes: u64,
}

#[derive(Serialize)]
struct VolumeIndependence {
    family: String,
    width: usize,
    population_small: u64,
    population_large: u64,
    matched_small: u64,
    matched_large: u64,
    peak_resident_bytes_small: u64,
    peak_resident_bytes_large: u64,
}

struct Case {
    family: DgaFamily,
    model: ModelKind,
    population: u64,
    seed: u64,
    epochs: u64,
}

fn cases() -> Vec<Case> {
    let case = |family, model, population, seed| Case {
        family,
        model,
        population,
        seed,
        epochs: 2,
    };
    vec![
        case(DgaFamily::new_goz(), ModelKind::Auto, 48, 21),
        case(DgaFamily::new_goz(), ModelKind::Coverage, 48, 21),
        case(DgaFamily::murofet(), ModelKind::Auto, 32, 9),
    ]
}

fn run_scenario(family: &DgaFamily, population: u64, seed: u64, epochs: u64) -> ScenarioOutcome {
    ScenarioSpec::builder(family.clone())
        .population(population)
        .num_epochs(epochs)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::Sequential)
}

fn sketch_config(family: &DgaFamily, width: usize) -> SketchConfig {
    SketchConfig::new(family.epoch_len())
        .expect("family epoch length is non-zero")
        .width(width)
        .expect("non-zero width")
}

fn build_sketch(
    meter: &BotMeter,
    outcome: &ScenarioOutcome,
    epochs: u64,
    width: usize,
) -> SketchedTraffic {
    let matcher = meter.matcher_for(0..epochs);
    let config = sketch_config(outcome.family(), width);
    let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
    frontend.ingest(outcome.observed());
    frontend.finish().0
}

/// Mean and max absolute relative error of `sketched` against `exact`,
/// cell-by-cell over the exact landscape's non-zero cells.
fn are_against(exact: &Landscape, sketched: &Landscape) -> (f64, f64) {
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut compared = 0usize;
    for cell in exact.entries() {
        if cell.estimate <= 0.0 {
            continue;
        }
        let twin = sketched
            .entries()
            .iter()
            .find(|c| c.server == cell.server && c.epoch == cell.epoch)
            .map_or(0.0, |c| c.estimate);
        let are = (twin - cell.estimate).abs() / cell.estimate;
        sum += are;
        max = max.max(are);
        compared += 1;
    }
    let mean = if compared == 0 {
        0.0
    } else {
        sum / compared as f64
    };
    (mean, max)
}

/// Mean absolute relative error of `exact` against the simulator's
/// per-epoch ground truth (one server, so one cell per epoch).
fn are_against_truth(exact: &Landscape, outcome: &ScenarioOutcome) -> f64 {
    let truth = outcome.ground_truth();
    let cells: Vec<f64> = exact
        .entries()
        .iter()
        .map(|c| absolute_relative_error(c.estimate, truth[c.epoch as usize] as f64))
        .collect();
    cells.iter().sum::<f64>() / cells.len().max(1) as f64
}

fn sweep_case(case: &Case) -> FamilyReport {
    let outcome = run_scenario(&case.family, case.population, case.seed, case.epochs);
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()).model(case.model));
    let exact = meter.chart_with(
        &ChartRequest::new(outcome.observed())
            .epochs(0..case.epochs)
            .policy(ExecPolicy::Sequential),
    );
    let exact_are = are_against_truth(&exact, &outcome);

    let mut sweep = Vec::with_capacity(WIDTHS.len());
    let mut matched_total = 0;
    let mut refused = None;
    for width in WIDTHS {
        let sketch = build_sketch(&meter, &outcome, case.epochs, width);
        matched_total = sketch.total();
        let request = ChartRequest::from_sketch(&sketch).epochs(0..case.epochs);
        let sketched = match meter.try_chart_with(&request) {
            Ok(landscape) => Some(landscape),
            Err(err) => {
                refused = Some(err.to_string());
                None
            }
        };
        let are = sketched.as_ref().map(|s| are_against(&exact, s));
        let count = |quality| {
            let cells = sketched.as_ref().map_or(&[][..], |l| l.entries());
            cells.iter().filter(|c| c.quality == quality).count()
        };
        let budget = sketch.config().cell_budget_bytes();
        let point = SweepPoint {
            width,
            mean_are: are.map(|(mean, _)| mean),
            max_are: are.map(|(_, max)| max),
            exact_are,
            degraded_cells: count(CellQuality::Degraded),
            invalid_cells: count(CellQuality::Invalid),
            lossy: sketch.any_lossy(),
            cells: sketch.cell_count(),
            peak_resident_bytes: sketch.peak_resident_bytes(),
            cell_budget_bytes: budget,
            resident_bound_bytes: sketch.cell_count() as u64 * budget,
        };
        eprintln!(
            "sketch_accuracy: {} / {} width {width}: mean ARE {:?} (exact {:.4}), \
             {} degraded + {} invalid / {} cells, peak {} bytes (bound {})",
            case.family.name(),
            meter.resolve_model().name(),
            point.mean_are,
            point.exact_are,
            point.degraded_cells,
            point.invalid_cells,
            point.cells,
            point.peak_resident_bytes,
            point.resident_bound_bytes,
        );
        sweep.push(point);
    }

    FamilyReport {
        family: case.family.name().to_owned(),
        model: meter.resolve_model().name(),
        population: case.population,
        seed: case.seed,
        epochs: case.epochs,
        observed_lookups: outcome.observed().len(),
        matched_total,
        exact_cells: exact.len(),
        refused,
        sweep,
    }
}

/// Doubles the population at a saturating width: the matched volume grows,
/// the sketch's resident footprint should not move by a byte.
fn volume_probe() -> VolumeIndependence {
    let family = DgaFamily::new_goz();
    let width = 8;
    let probe = |population: u64| {
        let outcome = run_scenario(&family, population, 21, 2);
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let sketch = build_sketch(&meter, &outcome, 2, width);
        (sketch.total(), sketch.peak_resident_bytes())
    };
    let (matched_small, peak_small) = probe(48);
    let (matched_large, peak_large) = probe(96);
    eprintln!(
        "sketch_accuracy: volume probe width {width}: {matched_small} → {matched_large} \
         matched lookups, peak {peak_small} → {peak_large} bytes"
    );
    VolumeIndependence {
        family: family.name().to_owned(),
        width,
        population_small: 48,
        population_large: 96,
        matched_small,
        matched_large,
        peak_resident_bytes_small: peak_small,
        peak_resident_bytes_large: peak_large,
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: sketch_accuracy (no arguments; writes BENCH_sketch.json)");
        std::process::exit(2);
    }
    let report = Report {
        benchmark: "sketch_accuracy",
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        widths: WIDTHS.to_vec(),
        families: cases().iter().map(sweep_case).collect(),
        volume_independence: volume_probe(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_sketch.json", json + "\n").expect("write BENCH_sketch.json");
    println!("sketch_accuracy: wrote BENCH_sketch.json");
}
