//! Quickstart: simulate a DGA infection and chart its landscape.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Simulates one day of a newGoZ (randomcut-barrel) botnet behind a single
//! caching local resolver, then lets BotMeter recover the population from
//! the border-visible stream alone — the end-to-end pipeline of Fig. 2.

use botmeter::core::{absolute_relative_error, BotMeter, BotMeterConfig, ChartRequest};
use botmeter::dga::DgaFamily;
use botmeter::exec::ExecPolicy;
use botmeter::sim::ScenarioSpec;

fn main() {
    // 1. Simulate the "unknown" network: 64 newGoZ bots, paper-default
    //    TTLs (positive 1 day / negative 2 h), 100 ms timestamps.
    let spec = ScenarioSpec::builder(DgaFamily::new_goz())
        .population(64)
        .seed(2016)
        .build()
        .expect("valid scenario");
    let outcome = spec.run(ExecPolicy::default());

    println!(
        "simulated ground truth : {} active bots",
        outcome.ground_truth()[0]
    );
    println!("raw lookups issued     : {}", outcome.raw_lookups());
    println!(
        "border-visible lookups : {} (cache-filtered)",
        outcome.observed().len()
    );

    // 2. Point BotMeter at the observable stream. Model selection is
    //    automatic: newGoZ is AR, so the Bernoulli estimator is used.
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
    let landscape = meter.chart_with(&ChartRequest::new(outcome.observed()));

    println!("\n{landscape}");
    let estimate = landscape.total_for_epoch(0);
    let actual = outcome.ground_truth()[0] as f64;
    println!(
        "estimate = {estimate:.1}, actual = {actual}, ARE = {:.3}",
        absolute_relative_error(estimate, actual)
    );
}
