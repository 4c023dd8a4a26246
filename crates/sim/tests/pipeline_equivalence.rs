//! The pipeline's one contract, keyed on the reference: for any scenario,
//! [`ScenarioSpec::run`] under any [`ExecPolicy`] and any shard width is
//! **bit-identical** to the sequential whole-trace
//! `ScenarioSpec::run_reference` (name-carrying replay → stable sort →
//! name-keyed topology one lookup at a time → whole-trace faulting) on the
//! observed trace, the ground truth, the fault report and the raw-lookup
//! count; and the deterministic metrics counters and the resident
//! high-water mark do not depend on the policy. The reference runs once per
//! scenario. The cache counters are also pinned to a name-keyed topology
//! walked over the raw trace, and TTL corners drive the filter's per-domain
//! replay. A proptest walks the space between the pinned corners.

use botmeter_dga::DgaFamily;
use botmeter_dns::{CacheStats, ServerId, SimDuration, SimInstant, Topology, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_obs::Obs;
use botmeter_sim::{
    ActivationModel, EvasionStrategy, PipelineMode, ScenarioOutcome, ScenarioSpec,
    ScenarioSpecBuilder,
};
use proptest::prelude::*;

/// Pins the worker count `ExecPolicy::parallel()` resolves to, so the
/// parallel producers really overlap on single-core machines too.
fn force_parallel() {
    std::env::set_var("BOTMETER_THREADS", "4");
}

/// Holds the scenario `build` describes to its reference under every one
/// of `policies`; returns the reference outcome.
fn assert_matches_reference(
    build: impl Fn() -> ScenarioSpecBuilder,
    policies: &[ExecPolicy],
    what: &str,
) -> ScenarioOutcome {
    let (reference, raw) = build().build().expect("valid spec").run_reference();
    assert_eq!(
        raw.len() as u64,
        reference.raw_lookups(),
        "reference raw count: {what}"
    );
    // What must not depend on the policy, from the first one run.
    let mut policy_free = None;
    for &policy in policies {
        let what = format!("{what} / {policy:?}");
        let (obs, registry) = Obs::collecting();
        let spec = build().obs(obs).build().expect("valid spec");
        let outcome = spec.run(policy);
        assert_eq!(
            outcome.observed(),
            reference.observed(),
            "observed trace diverged: {what}"
        );
        assert_eq!(
            outcome.ground_truth(),
            reference.ground_truth(),
            "ground truth diverged: {what}"
        );
        assert_eq!(
            outcome.fault_report(),
            reference.fault_report(),
            "fault report diverged: {what}"
        );
        assert_eq!(
            outcome.raw_lookups(),
            reference.raw_lookups(),
            "raw lookup count diverged: {what}"
        );
        let this = (
            registry.snapshot().deterministic_counters(),
            outcome.peak_resident_records(),
        );
        match &policy_free {
            None => policy_free = Some(this),
            Some(first) => assert_eq!(
                &this, first,
                "counters or peak residency depend on the policy: {what}"
            ),
        }
    }
    reference
}

/// Sequential against the default parallel pool.
fn both_policies() -> [ExecPolicy; 2] {
    [ExecPolicy::Sequential, ExecPolicy::parallel()]
}

/// Sequential plus the producer-pool sizes the pipelined runner treats
/// differently: one worker (strict produce/consume alternation), a partial
/// ticket window, and the full `PIPELINE_WINDOW`.
fn every_worker_count() -> [ExecPolicy; 4] {
    [
        ExecPolicy::Sequential,
        ExecPolicy::with_threads(1),
        ExecPolicy::with_threads(2),
        ExecPolicy::with_threads(8),
    ]
}

/// Every fault model, with parameters aggressive enough to fire on a small
/// trace.
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

/// All eight stages stacked in one plan: the seed forking per (index,
/// name) must keep every stage's substream independent of the policy, and
/// each stage's rng/burst/reorder/sample state must chain across shards.
fn composed_plan() -> FaultPlan {
    every_fault_model()
        .into_iter()
        .fold(FaultPlan::new(99), |plan, (_, model)| plan.with(model))
}

#[test]
fn pipeline_matches_reference_across_families_and_activations() {
    force_parallel();
    // One family per barrel class the estimators care about: AU (Murofet),
    // AR (newGoZ), AS (Conficker.C) — plus Necurs for the
    // sampling/irregular-timing corner. No `pipeline(..)` call: this is the
    // default-built spec.
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
            let build = || {
                ScenarioSpec::builder(family())
                    .population(48)
                    .num_epochs(2)
                    .activation(activation)
                    .seed(7)
            };
            let what = format!("{} / {activation:?}", family().name());
            assert_matches_reference(build, &both_policies(), &what);
        }
    }
}

#[test]
fn pipeline_matches_reference_across_seeds() {
    force_parallel();
    for seed in [0u64, 1, 99, 0xdead_beef] {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(64)
                .seed(seed)
        };
        assert_matches_reference(build, &both_policies(), &format!("newGoZ seed {seed}"));
    }
}

#[test]
fn pipeline_matches_reference_under_evasion() {
    force_parallel();
    // Evasion draws extra rng values both from the epoch rng (activation
    // adjustment) and the per-bot rng (collusion) — the exact split the
    // parallel producers have to preserve.
    let strategies = [
        EvasionStrategy::None,
        EvasionStrategy::DutyCycle { active_prob: 0.5 },
        EvasionStrategy::CoordinatedBurst {
            window_fraction: 0.25,
        },
        EvasionStrategy::StartCollusion { shared_starts: 4 },
    ];
    let activations = [
        ActivationModel::ConstantRate,
        ActivationModel::DynamicRate { sigma: 1.5 },
    ];
    for evasion in strategies {
        for activation in activations {
            let build = || {
                ScenarioSpec::builder(DgaFamily::conficker_c())
                    .population(32)
                    .activation(activation)
                    .evasion(evasion)
                    .seed(11)
            };
            let what = format!("{evasion:?} / {activation:?}");
            assert_matches_reference(build, &both_policies(), &what);
        }
    }
}

#[test]
fn pipeline_matches_reference_for_every_fault_model() {
    force_parallel();
    // The parallel shard producers must feed the consumer-side FaultStream
    // in exactly the reference order, at every producer-pool size.
    for (name, model) in every_fault_model() {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(48)
                .num_epochs(2)
                .seed(17)
                .faults(FaultPlan::new(23).with(model.clone()))
        };
        let what = format!("fault model {name}");
        let reference = assert_matches_reference(build, &every_worker_count(), &what);
        assert!(reference.fault_report().is_some(), "{name}: report missing");
    }
}

#[test]
fn pipeline_matches_reference_for_composed_fault_plan() {
    force_parallel();
    for family in [DgaFamily::murofet, DgaFamily::new_goz] {
        let build = || {
            ScenarioSpec::builder(family())
                .population(48)
                .num_epochs(2)
                .seed(29)
                .faults(composed_plan())
        };
        let what = format!("composed fault plan / {}", family().name());
        assert_matches_reference(build, &every_worker_count(), &what);
    }
}

#[test]
fn pipeline_matches_reference_for_explicit_shard_widths() {
    force_parallel();
    // Shard geometry is a performance parameter, never a correctness one.
    // One second over a one-day epoch is the degenerate corner: 86 k
    // shards, nearly all empty, every activation overflowing forward
    // across hundreds of them — and the finest width over a day that
    // `build` must still accept. Then a minute, one shard per epoch, and
    // one shard swallowing the run.
    let widths = [
        SimDuration::from_secs(1),
        SimDuration::from_secs(60),
        SimDuration::from_secs(24 * 3600),
        SimDuration::from_secs(30 * 24 * 3600),
    ];
    for width in widths {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(32)
                .seed(5)
                .faults(FaultPlan::new(7).with(FaultModel::Reorder {
                    rate: 0.3,
                    max_displacement: 5,
                }))
                .pipeline(PipelineMode::Streaming { shard: Some(width) })
        };
        let what = format!("shard width {width}");
        assert_matches_reference(build, &every_worker_count(), &what);
    }
}

#[test]
fn pipeline_matches_reference_at_default_and_ten_minute_widths() {
    force_parallel();
    // A fault-free newGoZ run over two epochs at the default geometry and
    // at ten-minute shards: the stream a sketch frontend folds shard by
    // shard is the reference's under every worker count.
    for width in [None, Some(SimDuration::from_secs(600))] {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(32)
                .num_epochs(2)
                .seed(19)
                .pipeline(PipelineMode::Streaming { shard: width })
        };
        let what = format!("newGoZ seed 19, shard width {width:?}");
        assert_matches_reference(build, &every_worker_count(), &what);
    }
}

#[test]
fn pipeline_matches_reference_when_bots_share_milliseconds() {
    force_parallel();
    // Several hundred bots squeezed into a 0.1 % burst window (≈ 86 s of a
    // one-day epoch): different bots' lookups land on the same
    // millisecond all the time, so the filter's `(t, client, position)`
    // order of the admitted lookups is held to the reference's std sort —
    // at the default width and with 60 s shards, whose overflow runs
    // overlap heavily.
    for width in [None, Some(SimDuration::from_secs(60))] {
        let build = || {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(300)
                .num_epochs(1)
                .evasion(EvasionStrategy::CoordinatedBurst {
                    window_fraction: 0.001,
                })
                .seed(31)
                .pipeline(PipelineMode::Streaming { shard: width })
        };
        let (_, raw) = build().build().expect("valid spec").run_reference();
        let shared = raw
            .windows(2)
            .filter(|w| w[0].t == w[1].t && w[0].client != w[1].client)
            .count();
        assert!(
            shared * 20 > raw.len(),
            "only {shared} of {} neighbours share a millisecond",
            raw.len()
        );
        let what = format!("millisecond ties / width {width:?}");
        assert_matches_reference(build, &every_worker_count(), &what);
    }
}

#[test]
fn peak_residency_is_far_below_the_trace_length() {
    force_parallel();
    let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
        .population(128)
        .num_epochs(2)
        .seed(21)
        .build()
        .expect("valid spec")
        .run(ExecPolicy::parallel());
    assert!(outcome.raw_lookups() > 0);
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

/// TTL policies whose entries expire inside a domain's span in a shard,
/// or are never stored: a negative TTL of zero and of 20 min, a positive
/// TTL of 30 min over a negative one of 10 min, both zero, and 1 ms over
/// 700 ms. Under each the filter cannot let a domain's first lookup in a
/// shard absorb the rest and must replay them one by one.
fn ttl_corners() -> [(&'static str, TtlPolicy); 5] {
    let paper = TtlPolicy::paper_default();
    let ms = SimDuration::from_millis;
    [
        ("negative 0", paper.with_negative(SimDuration::ZERO)),
        (
            "negative 20 min",
            paper.with_negative(SimDuration::from_mins(20)),
        ),
        (
            "positive 30 min / negative 10 min",
            TtlPolicy::new(SimDuration::from_mins(30), SimDuration::from_mins(10)),
        ),
        (
            "both 0",
            TtlPolicy::new(SimDuration::ZERO, SimDuration::ZERO),
        ),
        (
            "positive 1 ms / negative 700 ms",
            TtlPolicy::new(ms(1), ms(700)),
        ),
    ]
}

#[test]
fn pipeline_matches_reference_at_ttl_corners() {
    force_parallel();
    let widths = [
        None,
        Some(SimDuration::from_secs(60)),
        Some(SimDuration::from_secs(24 * 3600)),
    ];
    let policies = [ExecPolicy::Sequential, ExecPolicy::with_threads(2)];
    for (ttl_name, ttl) in ttl_corners() {
        for family in FAMILIES {
            for width in widths {
                let build = || {
                    ScenarioSpec::builder(family())
                        .population(24)
                        .num_epochs(2)
                        .ttl(ttl)
                        .seed(13)
                        .pipeline(PipelineMode::Streaming { shard: width })
                };
                let what = format!("ttl {ttl_name} / {} / width {width:?}", family().name());
                let reference = assert_matches_reference(build, &policies, &what);
                // Nothing is ever cached: every raw lookup reaches the border.
                if ttl.positive().is_zero() && ttl.negative().is_zero() {
                    assert_eq!(
                        reference.observed().len() as u64,
                        reference.raw_lookups(),
                        "{what}"
                    );
                }
            }
        }
    }
}

#[test]
fn cache_counters_equal_a_name_keyed_topology_over_the_raw_trace() {
    // The pipeline pushes the `cache.s{0,1}.*` and `topology.*` totals of
    // the `Topology::single_local` it stands for; hold them to one, walked
    // over the reference's raw trace one lookup at a time: hits split by
    // polarity, misses and expired evictions, for the border and the
    // local resolver.
    let corners =
        std::iter::once(("paper default", TtlPolicy::paper_default())).chain(ttl_corners());
    for (ttl_name, ttl) in corners {
        for family in FAMILIES {
            for width in [None, Some(SimDuration::from_secs(60))] {
                let epochs = 2;
                let build = || {
                    ScenarioSpec::builder(family())
                        .population(24)
                        .num_epochs(epochs)
                        .ttl(ttl)
                        .seed(19)
                        .pipeline(PipelineMode::Streaming { shard: width })
                };
                let what = format!("ttl {ttl_name} / {} / width {width:?}", family().name());
                let (_, raw) = build().build().expect("valid spec").run_reference();
                let authority = family().authority_for_epochs(epochs + 1);
                let mut topology = Topology::single_local(ttl);
                let admitted = raw
                    .iter()
                    .filter(|lookup| {
                        topology
                            .process(lookup, &authority)
                            .expect("single-local topology routes every client")
                            .is_some()
                    })
                    .count() as u64;

                let (obs, registry) = Obs::collecting();
                build()
                    .obs(obs)
                    .build()
                    .expect("valid spec")
                    .run(ExecPolicy::Sequential);
                let snap = registry.snapshot();
                let counter = |name: &str| snap.counter(name).unwrap_or(0);
                for server in [ServerId(0), ServerId(1)] {
                    let prefix = format!("cache.s{}.", server.0);
                    let pushed = CacheStats {
                        positive_hits: counter(&format!("{prefix}pos_hits")),
                        negative_hits: counter(&format!("{prefix}neg_hits")),
                        misses: counter(&format!("{prefix}misses")),
                        expired_evictions: counter(&format!("{prefix}expired_evictions")),
                    };
                    assert_eq!(pushed, topology.cache_stats(server), "{what} / {server}");
                }
                let lookups = raw.len() as u64;
                assert_eq!(counter("topology.lookups"), lookups, "{what}");
                assert_eq!(counter("topology.admitted"), admitted, "{what}");
                assert_eq!(counter("topology.filtered"), lookups - admitted, "{what}");
            }
        }
    }
}

const FAMILIES: [fn() -> DgaFamily; 5] = [
    DgaFamily::murofet,
    DgaFamily::new_goz,
    DgaFamily::conficker_c,
    DgaFamily::necurs,
    DgaFamily::torpig,
];

/// Shard widths from degenerate (1 s) through multi-epoch, plus the
/// default geometry.
fn shard_width(selector: usize, secs: u64) -> Option<SimDuration> {
    match selector {
        0 => None,
        1 => Some(SimDuration::from_secs(1)),
        2 => Some(SimDuration::from_secs(secs)),
        _ => Some(SimDuration::from_secs(3 * 24 * 3600)),
    }
}

proptest! {
    // Each case is a reference run plus two pipeline runs under each of two
    // policies, so keep the populations small and the case count modest;
    // the deterministic tests above carry the distinguished corners.
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
            let mut b = ScenarioSpec::builder(family())
                .population(population)
                .num_epochs(epochs)
                .seed(seed)
                .pipeline(PipelineMode::Streaming { shard });
            if let Some(plan) = faults.clone() {
                b = b.faults(plan);
            }
            b
        };
        let policies = [ExecPolicy::Sequential, ExecPolicy::with_threads(workers)];
        assert_matches_reference(build, &policies, "random scenario");
    }
}
