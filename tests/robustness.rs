//! End-to-end robustness: fault-injected scenarios must stay deterministic
//! across execution policies and telemetry sources, the charting facade
//! must degrade gracefully (loss-aware rescaling, quality flags, typed
//! parameter errors), and a panicking job must resurface with its own
//! payload and leave the worker pool usable.

use botmeter::core::{BotMeter, BotMeterConfig, CellQuality, ChartRequest, Error, Landscape};
use botmeter::dga::DgaFamily;
use botmeter::dns::{SimDuration, SimInstant};
use botmeter::exec::{run_indexed_with, ExecPolicy};
use botmeter::faults::{FaultModel, FaultPlan};
use botmeter::matcher::{match_stream, ExactMatcher};
use botmeter::obs::Obs;
use botmeter::sim::ScenarioSpec;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

fn force_parallel() {
    std::env::set_var("BOTMETER_THREADS", "4");
}

/// A representative lossy plan used across the tests below.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultModel::Drop { rate: 0.2 })
        .with(FaultModel::Jitter {
            max: SimDuration::from_secs(5),
        })
        .with(FaultModel::Duplicate { rate: 0.1 })
}

#[test]
fn faulted_landscape_is_bit_identical_across_policies() {
    force_parallel();
    let chart = |policy: ExecPolicy| -> Landscape {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(64)
            .num_epochs(2)
            .seed(31)
            .faults(lossy_plan(77))
            .build()
            .expect("valid spec")
            .run(policy);
        BotMeter::new(BotMeterConfig::new(outcome.family().clone())).chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..2)
                .policy(policy),
        )
    };
    let sequential = chart(ExecPolicy::Sequential);
    let parallel = chart(ExecPolicy::parallel());
    assert_eq!(parallel, sequential, "faulted landscape diverged");
    assert!(!sequential.is_empty());
}

#[test]
fn matched_stream_charts_like_the_observed_trace() {
    // A dropped-and-reordered run: charting its pre-matched stream must
    // give the landscape charting the observed trace gives.
    force_parallel();
    for policy in [ExecPolicy::Sequential, ExecPolicy::parallel()] {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(64)
            .num_epochs(2)
            .seed(19)
            .faults(FaultPlan::new(5).with(FaultModel::Drop { rate: 0.2 }).with(
                FaultModel::Reorder {
                    rate: 0.2,
                    max_displacement: 4,
                },
            ))
            .build()
            .expect("valid spec")
            .run(policy);
        let matcher = ExactMatcher::from_family(outcome.family(), 0..2);
        let matched = match_stream(outcome.observed(), &matcher, policy);
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let from_matched = meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(0..2)
                .policy(policy),
        );
        let from_observed = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..2)
                .policy(policy),
        );
        assert_eq!(
            from_matched, from_observed,
            "landscape diverged ({policy:?})"
        );
        assert!(!from_observed.is_empty());
    }
}

#[test]
fn delivery_rate_correction_recovers_sampled_populations() {
    // A 1-in-2 export sampler halves the observed stream; declaring the
    // matching delivery rate must double the estimates right back.
    let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
        .population(64)
        .seed(5)
        .faults(FaultPlan::new(3).with(FaultModel::Sample { keep_one_in: 2 }))
        .build()
        .expect("valid spec")
        .run(ExecPolicy::Sequential);
    let family = outcome.family().clone();
    let report = outcome.fault_report().expect("plan attached");
    assert!(
        report.delivery_rate() < 0.75,
        "sampler must thin the stream"
    );

    let naive = BotMeter::new(BotMeterConfig::new(family.clone()))
        .chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::Sequential));
    let corrected = BotMeter::new(BotMeterConfig::new(family).delivery_rate(0.5))
        .chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::Sequential));
    assert_eq!(naive.len(), corrected.len());
    for (n, c) in naive.entries().iter().zip(corrected.entries()) {
        assert_eq!(c.estimate, n.estimate * 2.0);
        assert_eq!(c.quality, CellQuality::Degraded);
    }
}

#[test]
fn try_chart_surfaces_typed_errors() {
    let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()).delivery_rate(f64::NAN));
    match meter.try_chart_with(&ChartRequest::new(&[]).policy(ExecPolicy::Sequential)) {
        Err(Error::BadDeliveryRate { rate }) => assert!(rate.is_nan()),
        other => panic!("expected BadDeliveryRate, got {other:?}"),
    }
    let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()));
    assert_eq!(
        meter.try_chart_with(&ChartRequest::new(&[]).epochs(2..2)),
        Err(Error::EmptyEpochRange { start: 2, end: 2 })
    );
}

#[test]
fn outage_degrades_but_never_corrupts_the_landscape() {
    // Black out a chunk of the day: estimates shrink but remain finite and
    // non-negative, and the pipeline never panics.
    let run = |plan: Option<FaultPlan>| {
        let mut builder = ScenarioSpec::builder(DgaFamily::murofet())
            .population(64)
            .seed(13);
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        let outcome = builder
            .build()
            .expect("valid spec")
            .run(ExecPolicy::Sequential);
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        meter.chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::Sequential))
    };
    let clean = run(None);
    let outage = run(Some(FaultPlan::new(41).with(FaultModel::Outage {
        server: None,
        from: SimInstant::from_millis(0),
        until: SimInstant::from_millis(6 * 3_600_000),
    })));
    for entry in outage.entries() {
        assert!(entry.estimate.is_finite() && entry.estimate >= 0.0);
    }
    assert!(
        outage.total_for_epoch(0) <= clean.total_for_epoch(0),
        "an outage cannot inflate the population estimate"
    );
}

#[test]
fn a_panicking_job_resurfaces_its_own_payload_and_the_pool_runs_on() {
    // Silence the default panic hook for the intentionally panicking job.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for workers in [1, 4] {
        let policy = ExecPolicy::with_threads(workers);
        let completed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_indexed_with(policy, &Obs::noop(), 1000, |i| {
                if i == 613 {
                    panic!("injected failure at {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i * 2
            })
        }));
        let payload = caught.expect_err("the job's panic must resurface");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("injected failure at 613"),
            "{workers} workers: the job's own payload"
        );
        if workers > 1 {
            // The other workers drained the batch before the panic resurfaced.
            assert_eq!(completed.load(Ordering::Relaxed), 999);
        }
        // The next batch on the same policy runs normally.
        let again = run_indexed_with(policy, &Obs::noop(), 64, |i| i + 1);
        assert_eq!(again, (1..=64).collect::<Vec<_>>(), "{workers} workers");
    }
    std::panic::set_hook(hook);
}
