//! The parallel pipeline's determinism contract: for a fixed seed,
//! [`ScenarioSpec::run`] with a parallel [`ExecPolicy`] (parallel bot
//! replay, parallel sort, sharded cache filtering) must be
//! **bit-identical** to `run(ExecPolicy::Sequential)` — across families,
//! activation models and evasion strategies — including on every
//! deterministic metrics counter an attached recorder collects.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ServerId, SimDuration, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_obs::Obs;
use botmeter_sim::{
    ActivationModel, EvasionStrategy, PipelineMode, ScenarioSpec, ScenarioSpecBuilder,
};

/// Pins the worker count so the parallel code paths actually run even on
/// single-core machines (where the auto-detected count would fall back to
/// 1 and a parallel policy would degenerate into the sequential path).
fn force_parallel() {
    std::env::set_var("BOTMETER_THREADS", "4");
}

fn assert_runs_match(build: impl Fn() -> ScenarioSpecBuilder, what: &str) {
    let (obs_par, reg_par) = Obs::collecting();
    let (obs_seq, reg_seq) = Obs::collecting();
    let parallel = build()
        .obs(obs_par)
        .build()
        .expect("valid spec")
        .run(ExecPolicy::parallel());
    let sequential = build()
        .obs(obs_seq)
        .build()
        .expect("valid spec")
        .run(ExecPolicy::Sequential);
    assert_eq!(
        parallel.raw(),
        sequential.raw(),
        "raw trace diverged: {what}"
    );
    assert_eq!(
        parallel.observed(),
        sequential.observed(),
        "observed trace diverged: {what}"
    );
    assert_eq!(
        parallel.ground_truth(),
        sequential.ground_truth(),
        "ground truth diverged: {what}"
    );
    // Everything outside the `sched.` scheduling namespace must agree too:
    // cache hit/miss deltas, admission counts, sim totals.
    assert_eq!(
        reg_par.snapshot().deterministic_counters(),
        reg_seq.snapshot().deterministic_counters(),
        "metrics counters diverged: {what}"
    );
}

#[test]
fn parallel_run_is_bit_identical_across_families_and_activations() {
    force_parallel();
    // One family per barrel class the estimators care about: AU
    // (Murofet), AR (newGoZ), AS (Conficker.C) — plus Necurs for the
    // sampling/irregular-timing corner.
    let families = [
        DgaFamily::murofet,
        DgaFamily::new_goz,
        DgaFamily::conficker_c,
        DgaFamily::necurs,
    ];
    let activations = [
        ActivationModel::ConstantRate,
        ActivationModel::DynamicRate { sigma: 1.5 },
    ];
    for family in families {
        for activation in activations {
            let name = family().name().to_owned();
            let build = || {
                ScenarioSpec::builder(family())
                    .population(48)
                    .num_epochs(2)
                    .activation(activation)
                    .seed(7)
            };
            assert_runs_match(build, &format!("{name} / {activation:?}"));
        }
    }
}

#[test]
fn parallel_run_is_bit_identical_across_seeds() {
    force_parallel();
    for seed in [0u64, 1, 99, 0xdead_beef] {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(64)
                .seed(seed)
        };
        assert_runs_match(build, &format!("newGoZ seed {seed}"));
    }
}

#[test]
fn parallel_run_is_bit_identical_under_evasion() {
    force_parallel();
    // Evasion draws extra rng values both from the epoch rng (activation
    // adjustment) and the per-bot rng (collusion) — the exact split the
    // parallel paths have to preserve.
    let strategies = [
        EvasionStrategy::None,
        EvasionStrategy::DutyCycle { active_prob: 0.5 },
        EvasionStrategy::CoordinatedBurst {
            window_fraction: 0.25,
        },
        EvasionStrategy::StartCollusion { shared_starts: 4 },
    ];
    for evasion in strategies {
        let build = || {
            ScenarioSpec::builder(DgaFamily::conficker_c())
                .population(32)
                .evasion(evasion)
                .seed(11)
        };
        assert_runs_match(build, &format!("{evasion:?}"));
    }
}

/// Every fault model available to a plan, each with parameters aggressive
/// enough to actually fire on a small trace.
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
fn faulted_runs_are_bit_identical_for_every_fault_model() {
    force_parallel();
    for (name, model) in every_fault_model() {
        let model_for_build = model.clone();
        let build = move || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(48)
                .num_epochs(2)
                .seed(17)
                .faults(FaultPlan::new(23).with(model_for_build.clone()))
        };
        assert_runs_match(&build, &format!("fault model {name}"));
        // The fault report itself must agree across policies too.
        let par = build()
            .build()
            .expect("valid spec")
            .run(ExecPolicy::parallel());
        let seq = build()
            .build()
            .expect("valid spec")
            .run(ExecPolicy::Sequential);
        assert_eq!(
            par.fault_report(),
            seq.fault_report(),
            "fault report diverged: {name}"
        );
        assert!(par.fault_report().is_some(), "{name}: report missing");
    }
}

#[test]
fn composed_fault_plan_is_bit_identical_across_policies() {
    force_parallel();
    // All stages stacked in one plan: the seed forking per (index, name)
    // must keep every stage's substream independent of the policy.
    let build = || {
        let mut plan = FaultPlan::new(99);
        for (_, model) in every_fault_model() {
            plan = plan.with(model);
        }
        ScenarioSpec::builder(DgaFamily::murofet())
            .population(48)
            .num_epochs(2)
            .seed(29)
            .faults(plan)
    };
    assert_runs_match(build, "composed fault plan");
}

/// Same contract for the streaming pipeline: a parallel streaming run
/// (staged producer/consumer overlap, parallel replay and sort inside each
/// shard) must be bit-identical to the sequential streaming run — observed
/// trace, ground truth, fault report and every deterministic counter,
/// including the formula-derived `sim.stream.*` residency metrics.
fn assert_streaming_runs_match(build: impl Fn() -> ScenarioSpecBuilder, what: &str) {
    assert_streaming_runs_match_under(build, ExecPolicy::parallel(), what);
}

/// [`assert_streaming_runs_match`] pinned to an explicit worker count, so
/// the sharded-producer hand-off is exercised at every pool size the
/// pipelined runner distinguishes (1 worker, a partial window, a full
/// ticket window).
fn assert_streaming_runs_match_under(
    build: impl Fn() -> ScenarioSpecBuilder,
    policy: ExecPolicy,
    what: &str,
) {
    let (obs_par, reg_par) = Obs::collecting();
    let (obs_seq, reg_seq) = Obs::collecting();
    let parallel = build()
        .obs(obs_par)
        .build()
        .expect("valid spec")
        .run(policy);
    let sequential = build()
        .obs(obs_seq)
        .build()
        .expect("valid spec")
        .run(ExecPolicy::Sequential);
    assert_eq!(
        parallel.observed(),
        sequential.observed(),
        "streaming observed trace diverged: {what}"
    );
    assert_eq!(
        parallel.ground_truth(),
        sequential.ground_truth(),
        "streaming ground truth diverged: {what}"
    );
    assert_eq!(
        parallel.fault_report(),
        sequential.fault_report(),
        "streaming fault report diverged: {what}"
    );
    assert_eq!(
        parallel.raw_lookups(),
        sequential.raw_lookups(),
        "streaming raw lookup count diverged: {what}"
    );
    assert_eq!(
        parallel.peak_resident_records(),
        sequential.peak_resident_records(),
        "streaming peak residency diverged: {what}"
    );
    assert_eq!(
        reg_par.snapshot().deterministic_counters(),
        reg_seq.snapshot().deterministic_counters(),
        "streaming metrics counters diverged: {what}"
    );
}

#[test]
fn streaming_run_is_bit_identical_across_policies() {
    force_parallel();
    for family in [DgaFamily::murofet, DgaFamily::new_goz] {
        let name = family().name().to_owned();
        let build = || {
            ScenarioSpec::builder(family())
                .population(48)
                .num_epochs(2)
                .seed(7)
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        assert_streaming_runs_match(build, &name);
    }
}

#[test]
fn faulted_streaming_run_is_bit_identical_across_policies() {
    force_parallel();
    // The composed plan stacks every stateful fault stage; the streaming
    // path has to chain each stage's rng/burst/reorder/sample state across
    // shard boundaries identically under both policies.
    let build = || {
        let mut plan = FaultPlan::new(99);
        for (_, model) in every_fault_model() {
            plan = plan.with(model);
        }
        ScenarioSpec::builder(DgaFamily::new_goz())
            .population(48)
            .num_epochs(2)
            .seed(29)
            .faults(plan)
            .pipeline(PipelineMode::Streaming { shard: None })
    };
    assert_streaming_runs_match(build, "composed fault plan (streaming)");
}

/// Pool sizes the sharded producer treats differently: a single worker
/// (strict produce/consume alternation), a partial ticket window, and a
/// pool matching the full `PIPELINE_WINDOW`.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn faulted_streaming_runs_are_bit_identical_per_worker_count() {
    force_parallel();
    // Every stateful fault model, at every distinguished pool size: the
    // parallel shard producers must hand each shard to the consumer-side
    // FaultStream in exactly the order the sequential run feeds it.
    for workers in WORKER_COUNTS {
        for (name, model) in every_fault_model() {
            let model_for_build = model.clone();
            let build = move || {
                ScenarioSpec::builder(DgaFamily::new_goz())
                    .population(48)
                    .num_epochs(2)
                    .seed(17)
                    .faults(FaultPlan::new(23).with(model_for_build.clone()))
                    .pipeline(PipelineMode::Streaming { shard: None })
            };
            assert_streaming_runs_match_under(
                &build,
                ExecPolicy::with_threads(workers),
                &format!("fault model {name} / {workers} workers (streaming)"),
            );
        }
    }
}

#[test]
fn composed_fault_plan_streaming_is_bit_identical_per_worker_count() {
    force_parallel();
    for workers in WORKER_COUNTS {
        let build = || {
            let mut plan = FaultPlan::new(99);
            for (_, model) in every_fault_model() {
                plan = plan.with(model);
            }
            ScenarioSpec::builder(DgaFamily::murofet())
                .population(48)
                .num_epochs(2)
                .seed(29)
                .faults(plan)
                .pipeline(PipelineMode::Streaming { shard: None })
        };
        assert_streaming_runs_match_under(
            build,
            ExecPolicy::with_threads(workers),
            &format!("composed fault plan / {workers} workers (streaming)"),
        );
    }
}

#[test]
fn streaming_shard_widths_are_bit_identical_per_worker_count() {
    force_parallel();
    // Shard geometry times worker count: a tiny width (every record
    // overflows forward past many empty shards), the default-ish minute
    // width, and one shard swallowing whole epochs.
    let widths = [
        SimDuration::from_millis(1),
        SimDuration::from_secs(60),
        SimDuration::from_secs(24 * 3600),
    ];
    for workers in WORKER_COUNTS {
        for width in widths {
            let build = move || {
                ScenarioSpec::builder(DgaFamily::new_goz())
                    .population(32)
                    .seed(5)
                    .faults(FaultPlan::new(7).with(FaultModel::Reorder {
                        rate: 0.3,
                        max_displacement: 5,
                    }))
                    .pipeline(PipelineMode::Streaming { shard: Some(width) })
            };
            assert_streaming_runs_match_under(
                build,
                ExecPolicy::with_threads(workers),
                &format!("shard width {width:?} / {workers} workers (streaming)"),
            );
        }
    }
}
