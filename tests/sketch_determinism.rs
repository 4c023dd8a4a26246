//! The sketch frontend must accumulate **bit-identical** state however the
//! telemetry reaches it: any `ExecPolicy`, any `PipelineMode`, any shard
//! width, any worker count, single-shot or chunked ingest, and pre-sketched
//! worker shards merged in any order. Retention depends only on domain hash
//! ranks, so every route over the same matched stream must land on the same
//! `SketchedTraffic` — byte for byte through its serialized state.
//!
//! Also pins the observability contract: every `sketch.*` metric the
//! frontend emits is deterministic and must surface through
//! [`MetricsSnapshot::deterministic_counters`].

use botmeter::dga::DgaFamily;
use botmeter::exec::ExecPolicy;
use botmeter::matcher::{ExactMatcher, SketchStream};
use botmeter::obs::Obs;
use botmeter::sim::{PipelineMode, ScenarioSpec};
use botmeter::sketch::{SketchConfig, SketchedTraffic};
use botmeter_dns::SimDuration;

const EPOCHS: std::ops::Range<u64> = 0..2;

fn spec(mode: PipelineMode) -> ScenarioSpec {
    ScenarioSpec::builder(DgaFamily::new_goz())
        .population(32)
        .num_epochs(2)
        .seed(19)
        .pipeline(mode)
        .build()
        .expect("valid scenario")
}

fn config(epoch_len: SimDuration) -> SketchConfig {
    SketchConfig::new(epoch_len)
        .and_then(|c| c.width(32))
        .expect("valid sketch config")
}

/// Canonical comparison: the serialized state covers every register,
/// retained entry, counter and timestamp, so equality here is bit-identity.
fn state_json(sketch: &SketchedTraffic) -> String {
    serde_json::to_string(&sketch.to_state()).expect("sketch state serializes")
}

#[test]
fn sketch_accumulation_is_bit_identical_across_policies_modes_and_workers() {
    // Reference: the whole observed trace of a sequential run, ingested in
    // one call.
    let reference_outcome = spec(PipelineMode::default()).run(ExecPolicy::Sequential);
    let family = reference_outcome.family().clone();
    let matcher = ExactMatcher::from_family(&family, EPOCHS);
    let mut reference_frontend =
        SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
    reference_frontend.ingest(reference_outcome.observed());
    let (reference, reference_quality) = reference_frontend.finish();
    assert!(
        reference.total() > 0,
        "scenario produced no matched traffic"
    );
    let reference_state = state_json(&reference);

    let policies = [
        ExecPolicy::Sequential,
        ExecPolicy::with_threads(2),
        ExecPolicy::with_threads(8),
    ];
    let modes = [
        PipelineMode::Streaming { shard: None },
        PipelineMode::Streaming {
            shard: Some(SimDuration::from_secs(600)),
        },
    ];
    for policy in policies {
        for mode in modes {
            // Shard by shard, as the pipeline releases them.
            let mut frontend = SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
            spec(mode).run_streaming_into(policy, &mut |shard| frontend.ingest(shard));
            let (sketch, quality) = frontend.finish();
            assert_eq!(
                state_json(&sketch),
                reference_state,
                "sketch state diverged ({policy:?}, {mode:?})"
            );
            assert_eq!(
                quality, reference_quality,
                "stream quality diverged ({policy:?}, {mode:?})"
            );
        }
    }
}

#[test]
fn worker_shard_sketches_merge_to_the_same_state_in_any_order() {
    let outcome = spec(PipelineMode::default()).run(ExecPolicy::Sequential);
    let family = outcome.family().clone();
    let matcher = ExactMatcher::from_family(&family, EPOCHS);
    let mut reference_frontend =
        SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
    reference_frontend.ingest(outcome.observed());
    let (reference, _) = reference_frontend.finish();
    let reference_state = state_json(&reference);

    // Split the stream into uneven worker shards, sketch each independently.
    let observed = outcome.observed();
    let cuts = [0, observed.len() / 5, observed.len() / 2, observed.len()];
    let shard_sketches: Vec<SketchedTraffic> = cuts
        .windows(2)
        .map(|w| {
            let mut worker = SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
            worker.ingest(&observed[w[0]..w[1]]);
            worker.finish().0
        })
        .collect();

    // Absorb the worker shards forwards and backwards — merge order and
    // arrival order must not matter.
    for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
        let mut merged = SketchStream::new(&matcher, config(family.epoch_len()), Obs::noop());
        for &i in &order {
            merged.absorb_sketch(&shard_sketches[i]);
        }
        let (sketch, _) = merged.finish();
        assert_eq!(
            state_json(&sketch),
            reference_state,
            "merged sketch diverged for absorb order {order:?}"
        );
    }
}

#[test]
fn sketch_metrics_surface_through_deterministic_counters() {
    let outcome = spec(PipelineMode::default()).run(ExecPolicy::Sequential);
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
