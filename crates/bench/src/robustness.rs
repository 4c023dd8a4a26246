//! Degradation curves under measurement faults: sweeps packet-loss rates
//! and vantage-outage fractions over the newGoZ pipeline and records, for
//! each fault intensity, the absolute relative error of the charted
//! population — both naive and after the delivery-rate correction the
//! estimator facade offers. The curves quantify how gracefully BotMeter
//! degrades as the observable stream erodes (`results/robustness.json`).

use botmeter_core::{absolute_relative_error, BotMeter, BotMeterConfig, CellQuality, ChartRequest};
use botmeter_dga::DgaFamily;
use botmeter_dns::SimInstant;
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan, FaultReport};
use botmeter_sim::ScenarioSpec;
use serde::Serialize;

/// One day of simulated time, the default scenario horizon.
const DAY_MS: u64 = 24 * 3_600_000;
/// Bots in every swept scenario.
const POPULATION: u64 = 2_000;
/// Seed of every swept scenario and fault plan.
const SEED: u64 = 42;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    family: &'static str,
    population: u64,
    seed: u64,
    loss_sweep: Vec<Point>,
    outage_sweep: Vec<Point>,
}

/// One fault intensity along a degradation curve.
#[derive(Serialize)]
struct Point {
    /// Swept intensity: drop probability or blacked-out day fraction.
    intensity: f64,
    /// `output / input` of the fault plan on this run.
    delivery_rate: f64,
    observed_lookups: usize,
    naive_estimate: f64,
    naive_are: f64,
    corrected_estimate: f64,
    corrected_are: f64,
    degraded_cells: usize,
}

/// Runs both sweeps and renders them as the pretty-printed JSON report
/// `robustness` prints.
pub fn report() -> String {
    let loss_sweep = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|&rate| {
            let plan =
                (rate > 0.0).then(|| FaultPlan::new(SEED ^ 0x01).with(FaultModel::Drop { rate }));
            point(rate, plan)
        })
        .collect();
    let outage_sweep = [0.0, 0.125, 0.25, 0.375, 0.5]
        .iter()
        .map(|&fraction: &f64| {
            let plan = (fraction > 0.0).then(|| {
                FaultPlan::new(SEED ^ 0x02).with(FaultModel::Outage {
                    server: None,
                    from: SimInstant::from_millis(0),
                    until: SimInstant::from_millis((DAY_MS as f64 * fraction) as u64),
                })
            });
            point(fraction, plan)
        })
        .collect();
    let report = Report {
        benchmark: "robustness",
        family: "newGoZ",
        population: POPULATION,
        seed: SEED,
        loss_sweep,
        outage_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    format!("{json}\n")
}

/// Runs one faulted scenario and charts it twice: once naively and once
/// with the measured delivery rate declared to the estimator.
fn point(intensity: f64, plan: Option<FaultPlan>) -> Point {
    let mut builder = ScenarioSpec::builder(DgaFamily::new_goz())
        .population(POPULATION)
        .seed(SEED);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let outcome = builder
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::parallel());
    let truth = outcome.ground_truth()[0] as f64;
    let rate = outcome
        .fault_report()
        .map(FaultReport::delivery_rate)
        .unwrap_or(1.0)
        // Guard the degenerate end of the sweep: a plan that destroys
        // the whole trace reports rate 0, which `delivery_rate()` on
        // the config would rightly reject.
        .max(1e-9);

    let naive = BotMeter::new(BotMeterConfig::new(outcome.family().clone()))
        .chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::parallel()));
    let corrected =
        BotMeter::new(BotMeterConfig::new(outcome.family().clone()).delivery_rate(rate.min(1.0)))
            .chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::parallel()));

    Point {
        intensity,
        delivery_rate: rate,
        observed_lookups: outcome.observed().len(),
        naive_estimate: naive.total_for_epoch(0),
        naive_are: absolute_relative_error(naive.total_for_epoch(0), truth),
        corrected_estimate: corrected.total_for_epoch(0),
        corrected_are: absolute_relative_error(corrected.total_for_epoch(0), truth),
        degraded_cells: corrected
            .entries()
            .iter()
            .filter(|e| e.quality != CellQuality::Ok)
            .count(),
    }
}
