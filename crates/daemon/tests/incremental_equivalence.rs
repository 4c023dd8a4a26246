//! The daemon's headline contract: incremental charting is bit-identical
//! to from-scratch batch charting — for any epoch prefix, any execution
//! policy, with faults, detection windows and partial delivery in play.

use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest, Landscape};
use botmeter_daemon::{BotMeterDaemon, DaemonOptions};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_sim::{ScenarioOutcome, ScenarioSpec};
use std::collections::HashSet;

fn spec(family: DgaFamily, epochs: u64, seed: u64, faulty: bool) -> ScenarioSpec {
    let mut builder = ScenarioSpec::builder(family)
        .population(48)
        .num_epochs(epochs)
        .seed(seed);
    if faulty {
        builder = builder.faults(
            FaultPlan::new(5)
                .with(FaultModel::Drop { rate: 0.1 })
                .with(FaultModel::Reorder {
                    rate: 0.2,
                    max_displacement: 4,
                })
                .with(FaultModel::Duplicate { rate: 0.05 }),
        );
    }
    builder.build().expect("valid scenario")
}

fn scenario(family: DgaFamily, epochs: u64, seed: u64, faulty: bool) -> ScenarioOutcome {
    spec(family, epochs, seed, faulty).run(ExecPolicy::default())
}

fn batch(
    meter: &BotMeter,
    observed: &[ObservedLookup],
    epochs: u64,
    policy: ExecPolicy,
) -> Landscape {
    meter.chart_with(&ChartRequest::new(observed).epochs(0..epochs).policy(policy))
}

#[test]
fn streaming_daemon_equals_batch_chart_across_policies() {
    // Pin the worker count so parallel paths actually fan out on
    // single-core machines (same convention as the core pipeline tests).
    std::env::set_var("BOTMETER_THREADS", "4");
    const EPOCHS: u64 = 2;
    // newGoZ charts through `MB`, Conficker.C through `MT`.
    let families = [DgaFamily::new_goz(), DgaFamily::conficker_c()];
    for (family, faulty) in families
        .into_iter()
        .flat_map(|f| [(f.clone(), false), (f, true)])
    {
        let outcome = scenario(family, EPOCHS, 19, faulty);
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let model = meter.resolve_model().name();
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::with_threads(2),
            ExecPolicy::with_threads(8),
        ] {
            let mut daemon =
                BotMeterDaemon::new(meter.clone(), DaemonOptions::new(0..EPOCHS).policy(policy))
                    .expect("valid options");
            // Feed the daemon a chunk at a time, as botmeterd does.
            for chunk in outcome.observed().chunks(997) {
                daemon.ingest(chunk);
            }
            daemon.publish_now();
            let (_, snapshot) = daemon.latest().expect("published");
            let reference = batch(&meter, outcome.observed(), EPOCHS, policy);
            assert_eq!(
                snapshot, &reference,
                "incremental != batch ({model}, faulty={faulty}, {policy:?})"
            );
            assert!(!reference.is_empty(), "{model} charted no cell");
            if faulty {
                // The fault plan injects duplicates/reordering: both paths
                // must agree that the stream is degraded, not just on the
                // numbers.
                assert!(reference
                    .entries()
                    .iter()
                    .all(|e| e.quality != botmeter_core::CellQuality::Ok));
            }
        }
    }
}

#[test]
fn every_epoch_prefix_matches_batch_chart() {
    const EPOCHS: u64 = 3;
    let outcome = scenario(DgaFamily::murofet(), EPOCHS, 7, false);
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    let epoch_len = outcome.family().epoch_len();
    let mut daemon = BotMeterDaemon::new(
        meter.clone(),
        DaemonOptions::new(0..EPOCHS)
            .policy(ExecPolicy::Sequential)
            // Never freeze: this test replays arbitrary prefixes and wants
            // the pure incremental==batch contract with no stale carve-out.
            .close_lag(u64::MAX),
    )
    .expect("valid options");
    let observed = outcome.observed();
    let mut fed = 0usize;
    for epoch in 0..EPOCHS {
        let upto = observed
            .iter()
            .position(|l| l.t.epoch_day(epoch_len) > epoch)
            .unwrap_or(observed.len());
        if upto > fed {
            daemon.ingest(&observed[fed..upto]);
            fed = upto;
        }
        daemon.publish_now();
        let (_, snapshot) = daemon.latest().expect("published");
        let reference = batch(&meter, &observed[..fed], EPOCHS, ExecPolicy::Sequential);
        assert_eq!(
            snapshot, &reference,
            "prefix through epoch {epoch} diverged"
        );
    }
    assert_eq!(fed, observed.len(), "every record was fed");
}

#[test]
fn warm_shape_rows_publish_what_a_cold_batch_chart_does() {
    // A Bernoulli daemon publishing mid-epoch re-prices the same growing
    // cells again and again: by the later publishes almost every segment
    // shape already has rows in the long-lived context, filled at the
    // densities of earlier, smaller prefixes. Each snapshot must still be
    // the chart a fresh context (cold rows) draws of that prefix.
    const EPOCHS: u64 = 3;
    const PUBLISHES: usize = 12;
    let outcome = scenario(DgaFamily::new_goz(), EPOCHS, 31, false);
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    let observed = outcome.observed();
    for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(2)] {
        let (obs, registry) = botmeter_obs::Obs::collecting();
        let mut daemon = BotMeterDaemon::new(
            meter.clone(),
            DaemonOptions::new(0..EPOCHS)
                .policy(policy)
                .auto_publish(false)
                .close_lag(u64::MAX)
                .obs(obs),
        )
        .expect("valid options");
        let mut fed = 0usize;
        for chunk in observed.chunks(observed.len().div_ceil(PUBLISHES)) {
            daemon.ingest(chunk);
            fed += chunk.len();
            daemon.publish_now();
            let (_, snapshot) = daemon.latest().expect("published");
            let cold = batch(&meter, &observed[..fed], EPOCHS, policy);
            assert_eq!(snapshot, &cold, "prefix of {fed} records, {policy:?}");
        }
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        assert!(
            counter("chart.kernel.config_entries_reused")
                > counter("chart.kernel.config_entries_computed"),
            "later publishes must have run on warm rows ({policy:?})"
        );
        assert!(counter("chart.kernel.shape_entries") < counter("chart.kernel.memo_entries"));
    }
}

#[test]
fn detection_window_and_delivery_rate_match_batch() {
    const EPOCHS: u64 = 2;
    let outcome = scenario(DgaFamily::new_goz(), EPOCHS, 23, false);
    let family = outcome.family().clone();
    // A window that knows only half of each epoch's pool.
    let window: HashSet<_> = (0..EPOCHS)
        .flat_map(|e| {
            let pool = family.pool_for_epoch(e);
            let half = pool.len() / 2;
            pool.into_iter().take(half)
        })
        .collect();
    let meter =
        BotMeter::new(BotMeterConfig::new(family).delivery_rate(0.5)).with_detection_window(window);
    let mut daemon = BotMeterDaemon::new(
        meter.clone(),
        DaemonOptions::new(0..EPOCHS).policy(ExecPolicy::Sequential),
    )
    .expect("valid options");
    for chunk in outcome.observed().chunks(113) {
        daemon.ingest(chunk);
    }
    daemon.publish_now();
    let (_, snapshot) = daemon.latest().expect("published");
    let reference = batch(&meter, outcome.observed(), EPOCHS, ExecPolicy::Sequential);
    assert_eq!(snapshot, &reference);
    assert!(!snapshot.is_empty());
    // Partial delivery marks every finite cell degraded in both paths.
    assert!(snapshot
        .entries()
        .iter()
        .all(|e| e.quality != botmeter_core::CellQuality::Ok));
}
