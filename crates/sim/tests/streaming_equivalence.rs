//! Golden equivalence of the pipeline: for any scenario,
//! [`ScenarioSpec::run`] must be **bit-identical** to the sequential
//! whole-trace reference (`ScenarioSpec::run_reference`: name-carrying
//! replay → stable sort → name-keyed topology one lookup at a time →
//! whole-trace faulting) on the observed trace, the ground truth, the fault
//! report and the raw-lookup count — across seeds, families, fault plans,
//! shard widths, worker counts and both [`ExecPolicy`] variants. The two
//! [`PipelineMode`]s run the same pipeline, so they must also agree on
//! every deterministic metrics counter, and `Materialize` must retain
//! exactly the reference's raw trace. A proptest walks the space between
//! the pinned corners.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ServerId, SimDuration, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_obs::Obs;
use botmeter_sim::{ActivationModel, EvasionStrategy, FnSink, PipelineMode, ScenarioSpecBuilder};
use proptest::prelude::*;

/// Pins the worker count so parallel policies exercise the real staged
/// overlap even on single-core machines.
fn force_parallel() {
    std::env::set_var("BOTMETER_THREADS", "4");
}

/// The shard-geometry counters (shard count, resident high-water mark)
/// legitimately differ between the two modes. Everything else outside the
/// `sched.` namespace must agree bit-for-bit.
fn comparable(counters: Vec<botmeter_obs::CounterSnapshot>) -> Vec<botmeter_obs::CounterSnapshot> {
    counters
        .into_iter()
        .filter(|c| !c.name.starts_with("sim.stream."))
        .collect()
}

/// Runs the spec `build` describes (in its `Streaming` mode and again in
/// `Materialize` mode) under `policy` and asserts every externally visible
/// artefact matches the sequential reference.
fn assert_pipeline_matches_reference(
    build: impl Fn() -> ScenarioSpecBuilder,
    policy: ExecPolicy,
    what: &str,
) {
    let (obs_mat, reg_mat) = Obs::collecting();
    let (obs_str, reg_str) = Obs::collecting();
    let reference = build().build().expect("valid spec").run_reference();
    let streamed = build()
        .obs(obs_str)
        .build()
        .expect("valid spec")
        .run(policy);
    let materialized = build()
        .pipeline(PipelineMode::Materialize)
        .obs(obs_mat)
        .build()
        .expect("valid spec")
        .run(policy);
    for (mode, outcome) in [("streaming", &streamed), ("materialize", &materialized)] {
        assert_eq!(
            outcome.observed(),
            reference.observed(),
            "observed trace diverged: {what} / {mode}"
        );
        assert_eq!(
            outcome.ground_truth(),
            reference.ground_truth(),
            "ground truth diverged: {what} / {mode}"
        );
        assert_eq!(
            outcome.fault_report(),
            reference.fault_report(),
            "fault report diverged: {what} / {mode}"
        );
        assert_eq!(
            outcome.raw_lookups(),
            reference.raw_lookups(),
            "raw lookup count diverged: {what} / {mode}"
        );
    }
    assert!(
        streamed.raw().is_empty(),
        "streaming kept a raw trace: {what}"
    );
    assert!(
        materialized.raw() == reference.raw(),
        "materialized raw trace diverged: {what}"
    );
    assert_eq!(
        materialized.peak_resident_records(),
        reference.raw_lookups(),
        "materialize must report the full trace resident: {what}"
    );
    assert_eq!(
        comparable(reg_str.snapshot().deterministic_counters()),
        comparable(reg_mat.snapshot().deterministic_counters()),
        "metrics counters diverged between modes: {what}"
    );
}

fn both_policies(build: impl Fn() -> ScenarioSpecBuilder, what: &str) {
    assert_pipeline_matches_reference(
        &build,
        ExecPolicy::Sequential,
        &format!("{what} / sequential"),
    );
    assert_pipeline_matches_reference(
        &build,
        ExecPolicy::parallel(),
        &format!("{what} / parallel"),
    );
}

/// Explicit producer-pool sizes for the sharded streaming path: one
/// worker, a partial ticket window, and the full `PIPELINE_WINDOW`.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// [`both_policies`] widened over every distinguished worker count.
fn every_worker_count(build: impl Fn() -> ScenarioSpecBuilder, what: &str) {
    assert_pipeline_matches_reference(
        &build,
        ExecPolicy::Sequential,
        &format!("{what} / sequential"),
    );
    for workers in WORKER_COUNTS {
        assert_pipeline_matches_reference(
            &build,
            ExecPolicy::with_threads(workers),
            &format!("{what} / {workers} workers"),
        );
    }
}

/// Every fault model with parameters aggressive enough to fire on a small
/// trace (mirrors `parallel_determinism`).
fn every_fault_model() -> Vec<(&'static str, FaultModel)> {
    vec![
        ("drop", FaultModel::Drop { rate: 0.3 }),
        (
            "burst_loss",
            FaultModel::BurstLoss {
                p_enter: 0.2,
                p_exit: 0.3,
                loss: 0.9,
            },
        ),
        ("duplicate", FaultModel::Duplicate { rate: 0.25 }),
        (
            "reorder",
            FaultModel::Reorder {
                rate: 0.3,
                max_displacement: 5,
            },
        ),
        (
            "jitter",
            FaultModel::Jitter {
                max: SimDuration::from_secs(30),
            },
        ),
        (
            "clock_skew",
            FaultModel::ClockSkew {
                max: SimDuration::from_secs(120),
            },
        ),
        ("sample", FaultModel::Sample { keep_one_in: 3 }),
        (
            "outage",
            FaultModel::Outage {
                server: Some(ServerId(1)),
                from: SimInstant::from_millis(3_600_000),
                until: SimInstant::from_millis(14_400_000),
            },
        ),
    ]
}

#[test]
fn pipeline_matches_reference_across_families() {
    force_parallel();
    let families = [
        DgaFamily::murofet,
        DgaFamily::new_goz,
        DgaFamily::conficker_c,
        DgaFamily::necurs,
    ];
    for family in families {
        let name = family().name().to_owned();
        let build = || {
            botmeter_sim::ScenarioSpec::builder(family())
                .population(48)
                .num_epochs(2)
                .seed(7)
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        both_policies(build, &name);
    }
}

#[test]
fn pipeline_matches_reference_across_seeds() {
    force_parallel();
    for seed in [0u64, 1, 99, 0xdead_beef] {
        let build = || {
            botmeter_sim::ScenarioSpec::builder(DgaFamily::new_goz())
                .population(64)
                .seed(seed)
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        both_policies(build, &format!("newGoZ seed {seed}"));
    }
}

#[test]
fn pipeline_matches_reference_under_evasion_and_dynamic_rate() {
    force_parallel();
    let strategies = [
        EvasionStrategy::DutyCycle { active_prob: 0.5 },
        EvasionStrategy::CoordinatedBurst {
            window_fraction: 0.25,
        },
        EvasionStrategy::StartCollusion { shared_starts: 4 },
    ];
    for evasion in strategies {
        let build = || {
            botmeter_sim::ScenarioSpec::builder(DgaFamily::conficker_c())
                .population(32)
                .activation(ActivationModel::DynamicRate { sigma: 1.5 })
                .evasion(evasion)
                .seed(11)
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        both_policies(build, &format!("{evasion:?}"));
    }
}

#[test]
fn pipeline_matches_reference_for_every_fault_model() {
    force_parallel();
    // Every fault model at every distinguished producer-pool size: the
    // parallel shard producers must feed the consumer-side FaultStream in
    // exactly the reference order.
    for (name, model) in every_fault_model() {
        let model_for_build = model.clone();
        let build = move || {
            botmeter_sim::ScenarioSpec::builder(DgaFamily::new_goz())
                .population(48)
                .num_epochs(2)
                .seed(17)
                .faults(FaultPlan::new(23).with(model_for_build.clone()))
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        every_worker_count(&build, &format!("fault model {name}"));
    }
}

#[test]
fn pipeline_matches_reference_for_composed_fault_plan() {
    force_parallel();
    let build = || {
        let mut plan = FaultPlan::new(99);
        for (_, model) in every_fault_model() {
            plan = plan.with(model);
        }
        botmeter_sim::ScenarioSpec::builder(DgaFamily::murofet())
            .population(48)
            .num_epochs(2)
            .seed(29)
            .faults(plan)
            .pipeline(PipelineMode::Streaming { shard: None })
    };
    every_worker_count(build, "composed fault plan");
}

#[test]
fn pipeline_matches_reference_for_explicit_shard_widths() {
    force_parallel();
    // Degenerate (tiny) and coarse (multi-epoch) shard widths must both
    // reproduce the reference trace under every producer-pool size: shard
    // geometry is a pure performance knob, never a correctness one.
    let widths = [
        SimDuration::from_millis(1),
        SimDuration::from_secs(60),
        SimDuration::from_secs(24 * 3600),
        SimDuration::from_secs(30 * 24 * 3600),
    ];
    for width in widths {
        let build = move || {
            botmeter_sim::ScenarioSpec::builder(DgaFamily::new_goz())
                .population(32)
                .seed(5)
                .faults(FaultPlan::new(7).with(FaultModel::Reorder {
                    rate: 0.3,
                    max_displacement: 5,
                }))
                .pipeline(PipelineMode::Streaming { shard: Some(width) })
        };
        every_worker_count(build, &format!("shard width {width:?}"));
    }
}

#[test]
fn shard_sink_sees_exactly_the_observed_trace() {
    force_parallel();
    for policy in [ExecPolicy::Sequential, ExecPolicy::parallel()] {
        let spec = botmeter_sim::ScenarioSpec::builder(DgaFamily::new_goz())
            .population(48)
            .num_epochs(2)
            .seed(13)
            .faults(FaultPlan::new(3).with(FaultModel::Duplicate { rate: 0.25 }))
            .pipeline(PipelineMode::Streaming { shard: None })
            .build()
            .expect("valid spec");
        let mut sunk = Vec::new();
        let mut sink = FnSink(|chunk: &[_]| sunk.extend_from_slice(chunk));
        let outcome = spec.run_streaming_into(policy, &mut sink);
        assert_eq!(
            sunk,
            outcome.observed(),
            "sink concatenation diverged ({policy:?})"
        );
    }
}

#[test]
fn streaming_peak_residency_is_far_below_the_trace_length() {
    force_parallel();
    let spec = botmeter_sim::ScenarioSpec::builder(DgaFamily::new_goz())
        .population(128)
        .num_epochs(2)
        .seed(21)
        .pipeline(PipelineMode::Streaming { shard: None })
        .build()
        .expect("valid spec");
    let outcome = spec.run(ExecPolicy::parallel());
    assert!(outcome.raw_lookups() > 0);
    assert!(
        outcome.peak_resident_records() < outcome.raw_lookups(),
        "peak {} not below total {}",
        outcome.peak_resident_records(),
        outcome.raw_lookups()
    );
    // The bound the perf harness advertises: a handful of shards, not the
    // whole trace. With 16 shards/epoch the high-water mark should sit well
    // under half the trace.
    assert!(
        outcome.peak_resident_records() * 2 < outcome.raw_lookups(),
        "peak {} is not a small fraction of total {}",
        outcome.peak_resident_records(),
        outcome.raw_lookups()
    );
}

const FAMILIES: [fn() -> DgaFamily; 5] = [
    DgaFamily::murofet,
    DgaFamily::new_goz,
    DgaFamily::conficker_c,
    DgaFamily::necurs,
    DgaFamily::torpig,
];

/// Shard widths from degenerate (1 ms) through multi-epoch, plus the
/// default geometry.
fn shard_width(selector: usize, secs: u64) -> Option<SimDuration> {
    match selector {
        0 => None,
        1 => Some(SimDuration::from_millis(1)),
        2 => Some(SimDuration::from_secs(secs)),
        _ => Some(SimDuration::from_secs(3 * 24 * 3600)),
    }
}

proptest! {
    // Each case runs five full simulations (the reference, then both modes
    // under two policies), so keep the populations small and the case
    // count modest; the deterministic tests above carry the distinguished
    // corners.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The id-resident sharded pipeline reproduces the name-keyed
    /// whole-trace reference exactly, wherever the dice land.
    #[test]
    fn pipeline_matches_reference_on_random_scenarios(
        family_idx in 0usize..FAMILIES.len(),
        population in 4u64..32,
        epochs in 1u64..3,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_kinds in prop::collection::vec(0usize..8, 0..3),
        shard_selector in 0usize..4,
        shard_secs in 1u64..7200,
        workers in 1usize..5,
    ) {
        force_parallel();
        let family = FAMILIES[family_idx];
        let models = every_fault_model();
        let faults = (!fault_kinds.is_empty()).then(|| {
            fault_kinds
                .iter()
                .fold(FaultPlan::new(fault_seed), |plan, &kind| plan.with(models[kind].1.clone()))
        });
        let shard = shard_width(shard_selector, shard_secs);
        let build = || {
            let mut b = botmeter_sim::ScenarioSpec::builder(family())
                .population(population)
                .num_epochs(epochs)
                .seed(seed)
                .pipeline(PipelineMode::Streaming { shard });
            if let Some(plan) = faults.clone() {
                b = b.faults(plan);
            }
            b
        };
        for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(workers)] {
            assert_pipeline_matches_reference(build, policy, &format!("{policy:?}"));
        }
    }
}
