//! The sketch frontend's observability contract: every `sketch.*` metric
//! it emits is deterministic and must surface through
//! [`MetricsSnapshot::deterministic_counters`], with values that agree
//! with the accumulated sketch.
//!
//! The sketch's own bit-identity is held where it is decided: the observed
//! stream is the same under every `ExecPolicy` and shard width
//! (`pipeline_equivalence` in `botmeter-sim`), and a sketch of one stream
//! is the same under any chunking or merge order (`SketchStream`'s unit
//! tests and the `sketch_props` proptests in `botmeter-sketch`).

use botmeter::dga::DgaFamily;
use botmeter::exec::ExecPolicy;
use botmeter::matcher::{ExactMatcher, SketchStream};
use botmeter::obs::Obs;
use botmeter::sim::ScenarioSpec;
use botmeter::sketch::SketchConfig;
use botmeter_dns::SimDuration;

const EPOCHS: std::ops::Range<u64> = 0..2;

fn spec() -> ScenarioSpec {
    ScenarioSpec::builder(DgaFamily::new_goz())
        .population(32)
        .num_epochs(2)
        .seed(19)
        .build()
        .expect("valid scenario")
}

fn config(epoch_len: SimDuration) -> SketchConfig {
    SketchConfig::new(epoch_len)
        .and_then(|c| c.width(32))
        .expect("valid sketch config")
}

#[test]
fn sketch_metrics_surface_through_deterministic_counters() {
    let outcome = spec().run(ExecPolicy::Sequential);
    let family = outcome.family().clone();
    let matcher = ExactMatcher::from_family(&family, EPOCHS);

    // Pre-sketch half the stream so `sketch.merges` is exercised too.
    let observed = outcome.observed();
    let mid = observed.len() / 2;
    let mut worker = SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
    worker.ingest(&observed[mid..]);
    let (worker_sketch, _) = worker.finish();

    let (obs, registry) = Obs::collecting();
    let mut frontend = SketchStream::new(&matcher, config(family.epoch_len()), obs);
    frontend.ingest(&observed[..mid]);
    frontend.absorb_sketch(&worker_sketch);
    let (sketch, _) = frontend.finish();

    let det = registry.snapshot().deterministic_counters();
    let value = |name: &str| {
        det.iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} missing from deterministic_counters"))
            .value
    };
    assert_eq!(value("sketch.ingest"), sketch.total());
    assert_eq!(value("sketch.merges"), 1);
    assert_eq!(value("sketch.cells"), sketch.cell_count() as u64);
    assert!(
        value("sketch.hh_evictions") > 0,
        "width 32 over a newGoZ stream must evict"
    );
    assert_eq!(
        value("sketch.peak_resident_bytes"),
        sketch.peak_resident_bytes(),
        "resident-bytes gauge must report the accumulated sketch's peak"
    );
}
