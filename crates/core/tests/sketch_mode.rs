//! Sketch-mode charting: fidelity, refusal and memory contracts.
//!
//! A sketch hands each cell's model a `CellStats` whose lanes it fills or
//! cannot fill, never a fabricated trace. A sketch wide enough that no cell
//! evicted fills positions, distinct and volume exactly, so every model
//! reading only those lanes charts **bit-identically** to exact mode —
//! same estimates, same `CellQuality`, no error bound — and every model
//! that reads lookups is refused with a typed `Error` before anything is
//! estimated. A narrow sketch invalidates cells under a positions-lane
//! model and bounds the scaled distinct and volume lanes. Memory is the
//! sketch's other contract: the resident bytes stay under
//! `cells × cell_budget_bytes`, do not grow with traffic volume, and stay
//! within the accounting `BENCH_sketch.json` commits.

use botmeter_core::{
    BotMeter, BotMeterConfig, CellQuality, ChartRequest, Error, Landscape, Lane, ModelKind,
};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{SketchStream, StreamQuality};
use botmeter_obs::Obs;
use botmeter_sim::{ScenarioOutcome, ScenarioSpec};
use botmeter_sketch::{SketchConfig, SketchedTraffic};
use serde::Deserialize;

const EPOCHS: std::ops::Range<u64> = 0..2;

/// The widths `sketch_accuracy` sweeps.
const WIDTHS: [usize; 6] = [8, 32, 128, 1024, 4096, 16384];

fn scenario(family: DgaFamily, population: u64, seed: u64) -> ScenarioOutcome {
    ScenarioSpec::builder(family)
        .population(population)
        .num_epochs(EPOCHS.end)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::Sequential)
}

fn sketch_of(outcome: &ScenarioOutcome, width: usize) -> (SketchedTraffic, StreamQuality) {
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    let config = SketchConfig::new(outcome.family().epoch_len())
        .expect("valid epoch length")
        .width(width)
        .expect("valid width");
    let matcher = meter.matcher_for(EPOCHS);
    let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
    frontend.ingest(outcome.observed());
    frontend.finish()
}

fn meter(outcome: &ScenarioOutcome, model: ModelKind) -> BotMeter {
    BotMeter::new(BotMeterConfig::new(outcome.family().clone()).model(model))
}

fn sketch_chart(
    meter: &BotMeter,
    (sketch, quality): &(SketchedTraffic, StreamQuality),
) -> Result<Landscape, Error> {
    meter.try_chart_with(
        &ChartRequest::from_sketch(sketch)
            .stream_quality(*quality)
            .epochs(EPOCHS),
    )
}

fn exact_chart(meter: &BotMeter, outcome: &ScenarioOutcome) -> Landscape {
    meter
        .try_chart_with(&ChartRequest::new(outcome.observed()).epochs(EPOCHS))
        .expect("chartable")
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Bit-identical to exact mode.
    Exact,
    /// Refused: the model reads the lookups lane.
    Refused,
}

#[test]
fn every_model_on_a_wide_sketch_is_exact_or_refused() {
    use Outcome::{Exact, Refused};
    // Per model: newGoZ (48 bots, seed 21), murofet (32 bots, seed 9).
    // Auto resolves to MB on newGoZ and to MP on murofet.
    let table = [
        (ModelKind::Auto, [Exact, Refused]),
        (ModelKind::Timing, [Refused, Refused]),
        (ModelKind::Poisson, [Refused, Refused]),
        (ModelKind::Bernoulli, [Exact, Exact]),
        (ModelKind::Coverage, [Exact, Exact]),
        (ModelKind::Sampling, [Exact, Exact]),
    ];
    let regimes = [
        scenario(DgaFamily::new_goz(), 48, 21),
        scenario(DgaFamily::murofet(), 32, 9),
    ];
    for (column, outcome) in regimes.iter().enumerate() {
        let sketch = sketch_of(outcome, 16384);
        assert!(!sketch.0.any_lossy(), "width 16384 must never evict here");
        for (model, expected) in table {
            let meter = meter(outcome, model);
            let name = meter.resolve_model().name();
            let row = format!("{} / {model:?} ({name})", outcome.family().name());
            match (sketch_chart(&meter, &sketch), expected[column]) {
                (Ok(sketched), Exact) => {
                    assert!(!sketched.is_empty(), "{row}");
                    assert_eq!(sketched, exact_chart(&meter, outcome), "{row}");
                }
                (Err(err), Refused) => assert_eq!(
                    err,
                    Error::LaneNotInSketch {
                        model: name,
                        lane: Lane::Lookups,
                    },
                    "{row}"
                ),
                (got, expected) => panic!("{row}: expected {expected:?}, got {got:?}"),
            }
        }
    }
}

#[test]
fn refusal_names_the_model_and_the_lane() {
    let outcome = scenario(DgaFamily::murofet(), 32, 9);
    let err = sketch_chart(&meter(&outcome, ModelKind::Auto), &sketch_of(&outcome, 8))
        .expect_err("MP reads lookups");
    let text = err.to_string();
    assert!(
        text.contains("Poisson") && text.contains("lookups"),
        "{text}"
    );
}

#[test]
fn narrow_sketch_invalidates_positions_cells_and_bounds_the_rest() {
    let outcome = scenario(DgaFamily::new_goz(), 48, 21);
    let sketch = sketch_of(&outcome, 8);
    assert!(sketch.0.any_lossy(), "width 8 must evict on this scenario");
    // MB reads positions, which a lossy cell cannot fill.
    let positions = sketch_chart(&meter(&outcome, ModelKind::Bernoulli), &sketch).expect("MB");
    assert!(!positions.is_empty());
    for entry in positions.entries() {
        assert_eq!(entry.quality, CellQuality::Invalid);
        assert_eq!(entry.estimate, 0.0);
    }
    // MS and MC read lanes a lossy cell scales from its sample.
    for model in [ModelKind::Sampling, ModelKind::Coverage] {
        let landscape = sketch_chart(&meter(&outcome, model), &sketch).expect("chartable");
        assert!(!landscape.is_empty());
        for entry in landscape.entries() {
            assert_eq!(entry.quality, CellQuality::Degraded, "{model:?}");
            assert!(entry.estimate > 0.0, "{model:?}");
            let bound = entry.error_bound.expect("a lossy cell carries a bound");
            assert!(bound > 0.0 && bound <= 1.0, "{model:?}: bound {bound}");
        }
    }
}

#[test]
fn forced_coverage_error_does_not_grow_with_width() {
    let outcome = scenario(DgaFamily::new_goz(), 48, 21);
    let meter = meter(&outcome, ModelKind::Coverage);
    let exact = exact_chart(&meter, &outcome);
    let mean_are = |width| {
        let sketched = sketch_chart(&meter, &sketch_of(&outcome, width)).expect("MC");
        let cells = exact.entries().iter().zip(sketched.entries());
        let ares: Vec<f64> = cells
            .map(|(e, s)| (s.estimate - e.estimate).abs() / e.estimate)
            .collect();
        ares.iter().sum::<f64>() / ares.len() as f64
    };
    let ares: Vec<f64> = WIDTHS.into_iter().map(mean_are).collect();
    assert!(ares[0] > 0.0, "width 8 is lossy: {ares:?}");
    assert!(
        ares.windows(2).all(|w| w[1] <= w[0]),
        "MC's sketch-mode ARE grew with width: {ares:?}"
    );
    assert_eq!(ares[WIDTHS.len() - 1], 0.0, "width 16384 is lossless");
}

#[test]
fn mismatched_epoch_length_is_a_typed_error() {
    let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()));
    let family_ms = meter.config().family().epoch_len().as_millis();
    let config = SketchConfig::new(botmeter_dns::SimDuration::from_millis(family_ms / 2))
        .expect("valid epoch length");
    let sketch = SketchedTraffic::new(config);
    let err = meter
        .try_chart_with(&ChartRequest::from_sketch(&sketch))
        .unwrap_err();
    assert_eq!(
        err,
        Error::SketchEpochMismatch {
            sketch_ms: family_ms / 2,
            family_ms,
        }
    );
    assert!(err.to_string().contains("epoch length"));
}

/// The ends of the `sketch_accuracy` width sweep, over both of its
/// scenarios (family, population, seed).
fn sweep_ends() -> Vec<(DgaFamily, usize, SketchedTraffic)> {
    let mut points = Vec::new();
    for (family, population, seed) in [
        (DgaFamily::new_goz(), 48, 21),
        (DgaFamily::murofet(), 32, 9),
    ] {
        let outcome = scenario(family.clone(), population, seed);
        for width in [8, 16384] {
            points.push((family.clone(), width, sketch_of(&outcome, width).0));
        }
    }
    points
}

#[test]
fn resident_bytes_stay_within_cells_times_the_cell_budget() {
    for (family, width, sketch) in sweep_ends() {
        let bound = sketch.cell_count() as u64 * sketch.config().cell_budget_bytes();
        assert!(
            sketch.peak_resident_bytes() <= bound,
            "{} width {width}: peak {} bytes exceeds the O(cells × width) bound {bound}",
            family.name(),
            sketch.peak_resident_bytes()
        );
    }
}

#[test]
fn a_saturated_sketch_does_not_grow_with_traffic_volume() {
    let probe = |population| sketch_of(&scenario(DgaFamily::new_goz(), population, 21), 8).0;
    let (small, large) = (probe(48), probe(96));
    assert!(
        large.total() > small.total(),
        "volume probe did not increase the matched volume"
    );
    assert_eq!(
        large.peak_resident_bytes(),
        small.peak_resident_bytes(),
        "sketch memory tracked traffic volume: matched volume grew {} → {}",
        small.total(),
        large.total()
    );
}

/// One sweep point of the committed study (extra keys ignored).
#[derive(Deserialize)]
struct CommittedPoint {
    width: usize,
    peak_resident_bytes: u64,
}

#[derive(Deserialize)]
struct CommittedFamily {
    family: String,
    sweep: Vec<CommittedPoint>,
}

#[derive(Deserialize)]
struct CommittedStudy {
    families: Vec<CommittedFamily>,
}

#[test]
fn resident_bytes_stay_within_the_committed_study() {
    // The accounting is deterministic, so on the study's parameters
    // measured == committed; the 10% headroom only absorbs intentional
    // layout-constant changes that ship with a regenerated study.
    let study: CommittedStudy = serde_json::from_str(include_str!("../../../BENCH_sketch.json"))
        .expect("the committed study parses");
    for (family, width, sketch) in sweep_ends() {
        let committed = study
            .families
            .iter()
            .find(|f| f.family == family.name())
            .and_then(|f| f.sweep.iter().find(|p| p.width == width))
            .unwrap_or_else(|| panic!("{} width {width} is in the study", family.name()))
            .peak_resident_bytes;
        let ceiling = (committed as f64 * 1.10) as u64;
        assert!(
            sketch.peak_resident_bytes() <= ceiling,
            "{} width {width}: peak {} bytes above committed ceiling {ceiling} \
             (study {committed} × 1.10)",
            family.name(),
            sketch.peak_resident_bytes()
        );
    }
}
