//! Sketch-mode charting: fidelity and degradation contracts.
//!
//! A wide-enough sketch feeding a set-consuming model (the Bernoulli MB on
//! newGoZ) must chart **bit-identically** to exact mode — same estimates,
//! same `CellQuality`, no error bound. A sketch that evicted, or one
//! feeding a timing/multiplicity model, must never be silently wrong: every
//! affected cell is flagged `CellQuality::Degraded` and carries a
//! quantified `error_bound`. Memory is the sketch's other contract: the
//! resident bytes stay under `cells × cell_budget_bytes`, do not grow with
//! traffic volume, and stay within the accounting `BENCH_sketch.json`
//! commits.

use botmeter_core::{
    BotMeter, BotMeterConfig, CellQuality, ChartRequest, Error, Landscape, ModelKind,
};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{SketchStream, StreamQuality};
use botmeter_obs::Obs;
use botmeter_sim::ScenarioSpec;
use botmeter_sketch::{SketchConfig, SketchedTraffic};
use serde::Deserialize;

fn meter_and_sketch(
    family: DgaFamily,
    population: u64,
    seed: u64,
    epochs: std::ops::Range<u64>,
    width: usize,
) -> (BotMeter, SketchedTraffic, StreamQuality) {
    let outcome = ScenarioSpec::builder(family)
        .population(population)
        .num_epochs(epochs.end)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::Sequential);
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    let config = SketchConfig::new(meter.config().family().epoch_len())
        .expect("valid epoch length")
        .width(width)
        .expect("valid width");
    let matcher = meter.matcher_for(epochs);
    let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
    frontend.ingest(outcome.observed());
    let (sketch, quality) = frontend.finish();
    (meter, sketch, quality)
}

fn exact_landscape(
    family: DgaFamily,
    population: u64,
    seed: u64,
    epochs: std::ops::Range<u64>,
) -> Landscape {
    let outcome = ScenarioSpec::builder(family)
        .population(population)
        .num_epochs(epochs.end)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::Sequential);
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    meter
        .try_chart_with(&ChartRequest::new(outcome.observed()).epochs(epochs))
        .expect("chartable")
}

#[test]
fn wide_sketch_with_set_based_model_is_bit_identical_to_exact_mode() {
    // newGoZ resolves to the Bernoulli MB, which consumes the *set* of
    // distinct matched domains per cell; a never-lossy sketch holds
    // exactly that set, so the landscapes must agree bit for bit.
    let epochs = 0..2;
    let (meter, sketch, quality) =
        meter_and_sketch(DgaFamily::new_goz(), 48, 21, epochs.clone(), 16384);
    assert!(!sketch.any_lossy(), "width 16384 must never evict here");
    let sketched = meter
        .try_chart_with(
            &ChartRequest::from_sketch(&sketch)
                .stream_quality(quality)
                .epochs(epochs.clone()),
        )
        .expect("chartable");
    let exact = exact_landscape(DgaFamily::new_goz(), 48, 21, epochs);
    assert_eq!(sketched, exact);
    assert!(!sketched.is_empty());
    for entry in sketched.entries() {
        assert_eq!(entry.quality, CellQuality::Ok);
        assert_eq!(entry.error_bound, None);
    }
}

#[test]
fn narrow_sketch_marks_cells_degraded_with_a_quantified_bound() {
    let epochs = 0..2;
    let (meter, sketch, quality) =
        meter_and_sketch(DgaFamily::new_goz(), 48, 21, epochs.clone(), 8);
    assert!(sketch.any_lossy(), "width 8 must evict on this scenario");
    let sketched = meter
        .try_chart_with(
            &ChartRequest::from_sketch(&sketch)
                .stream_quality(quality)
                .epochs(epochs),
        )
        .expect("chartable");
    assert!(!sketched.is_empty());
    let degraded: Vec<_> = sketched
        .entries()
        .iter()
        .filter(|e| e.quality == CellQuality::Degraded)
        .collect();
    assert!(
        !degraded.is_empty(),
        "a lossy narrow sketch must flag cells Degraded"
    );
    for entry in degraded {
        let bound = entry
            .error_bound
            .expect("degraded sketch cells carry a bound");
        assert!(bound > 0.0 && bound <= 1.0, "bound {bound} out of range");
    }
}

#[test]
fn non_set_based_models_degrade_even_when_the_sketch_is_wide() {
    // murofet resolves to the Poisson MP, which reads lookup multiplicity
    // the bounded sketch cannot fully replay — never silently wrong.
    let epochs = 0..2;
    let (meter, sketch, quality) =
        meter_and_sketch(DgaFamily::murofet(), 32, 9, epochs.clone(), 4096);
    assert!(!sketch.any_lossy());
    let sketched = meter
        .try_chart_with(
            &ChartRequest::from_sketch(&sketch)
                .stream_quality(quality)
                .epochs(epochs),
        )
        .expect("chartable");
    assert!(!sketched.is_empty());
    for entry in sketched.entries() {
        assert_eq!(entry.quality, CellQuality::Degraded);
        let bound = entry.error_bound.expect("sketch bound");
        assert!((0.0..=1.0).contains(&bound));
    }
}

#[test]
fn forced_set_based_model_stays_exact_on_a_non_bernoulli_family() {
    // Forcing the Bernoulli MB onto murofet keeps sketch mode bit-exact:
    // exactness is a property of what the *model* consumes, not the family.
    let epochs = 0..2;
    let outcome = ScenarioSpec::builder(DgaFamily::murofet())
        .population(32)
        .num_epochs(2)
        .seed(9)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::Sequential);
    let meter =
        BotMeter::new(BotMeterConfig::new(outcome.family().clone()).model(ModelKind::Bernoulli));
    let config = SketchConfig::new(meter.config().family().epoch_len())
        .expect("valid epoch length")
        .width(4096)
        .expect("valid width");
    let matcher = meter.matcher_for(epochs.clone());
    let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
    frontend.ingest(outcome.observed());
    let (sketch, quality) = frontend.finish();
    let sketched = meter
        .try_chart_with(
            &ChartRequest::from_sketch(&sketch)
                .stream_quality(quality)
                .epochs(epochs.clone()),
        )
        .expect("chartable");
    let exact = meter
        .try_chart_with(&ChartRequest::new(outcome.observed()).epochs(epochs))
        .expect("chartable");
    assert_eq!(sketched, exact);
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

/// The ends of the `sketch_accuracy` width sweep, over both of its regimes
/// (family, population, seed): newGoZ charted by the set-consuming MB,
/// murofet by the multiplicity-consuming MP.
fn sweep_ends() -> Vec<(DgaFamily, usize, SketchedTraffic)> {
    let mut points = Vec::new();
    for (family, population, seed) in [
        (DgaFamily::new_goz(), 48, 21),
        (DgaFamily::murofet(), 32, 9),
    ] {
        for width in [8, 16384] {
            let (_, sketch, _) = meter_and_sketch(family.clone(), population, seed, 0..2, width);
            points.push((family.clone(), width, sketch));
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
    let probe = |population| meter_and_sketch(DgaFamily::new_goz(), population, 21, 0..2, 8).1;
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
