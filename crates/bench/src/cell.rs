//! One simulated landscape cell — a single server, a single epoch — for
//! the per-estimator benches.

use botmeter_core::{EstimationContext, Estimator, TimingEstimator};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_sim::ScenarioSpec;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The observed lookups of `population` bots of `family` over one epoch
/// (seed 42, the seed every committed figure is quoted at) and the
/// context to estimate them under.
pub fn simulated_cell(
    family: DgaFamily,
    population: u64,
) -> (Vec<ObservedLookup>, EstimationContext) {
    let outcome = ScenarioSpec::builder(family)
        .population(population)
        .seed(42)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default());
    let ctx = EstimationContext::new(
        outcome.family().clone(),
        outcome.ttl(),
        outcome.granularity(),
    );
    (outcome.observed().to_vec(), ctx)
}

/// `MT`'s committed number: the `timing` block of `BENCH_estimator.json`,
/// written by `--bin estimator` and held to by `perf_smoke`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingBench {
    /// The family simulated.
    pub family: String,
    /// Lookups in the cell.
    pub cell_lookups: usize,
    /// Entries Algorithm 1 opened — the estimate. Far more than are ever
    /// live at once, which is the regime a scan over all of them pays for.
    pub entries: f64,
    /// Best wall time of one `estimate` call over the cell.
    pub secs: f64,
    /// `cell_lookups / secs`.
    pub lookups_per_sec: f64,
}

impl TimingBench {
    /// Times [`TimingEstimator`] on a `chart_heavy`-sized cell
    /// (Conficker.C, 250 bots, one epoch), best of `runs`.
    pub fn measure(runs: usize) -> TimingBench {
        let family = DgaFamily::conficker_c();
        let name = family.name().to_owned();
        let (lookups, ctx) = simulated_cell(family, 250);
        let mut entries = 0.0;
        let mut secs = f64::INFINITY;
        for _ in 0..runs.max(1) {
            let started = Instant::now();
            entries = TimingEstimator.estimate(std::hint::black_box(&lookups), &ctx);
            secs = secs.min(started.elapsed().as_secs_f64());
        }
        TimingBench {
            family: name,
            cell_lookups: lookups.len(),
            entries,
            secs,
            lookups_per_sec: lookups.len() as f64 / secs.max(1e-9),
        }
    }
}
