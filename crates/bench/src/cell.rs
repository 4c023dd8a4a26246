//! One simulated landscape cell — a single server, a single epoch — for
//! the per-estimator benches, and the committed figures `perf_smoke` holds
//! the estimators to.

use botmeter_core::{
    EstimationContext, Estimator, Segment, SegmentKernelCache, SegmentKind, TimingEstimator,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_sim::ScenarioSpec;
use botmeter_stats::SharedStirling;
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
        let secs = crate::best_of(runs, || {
            entries = TimingEstimator.estimate(std::hint::black_box(&lookups), &ctx);
        });
        TimingBench {
            family: name,
            cell_lookups: lookups.len(),
            entries,
            secs,
            lookups_per_sec: lookups.len() as f64 / secs.max(1e-9),
        }
    }
}

/// What one more fixpoint round costs `MB`: the `fixpoint` block of
/// `BENCH_estimator.json`. One paper-like b-segment priced at successive
/// densities through one [`SegmentKernelCache`] — every density a memo
/// miss, only the first a shape-table miss. The densities approach
/// `64/10 000` from below, each step halving the remaining gap, as the
/// iterates of a contraction do: early rounds still extend the rows a
/// sparser prior left short, late ones only re-weight them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixpointBench {
    /// Segment length (a saturated newGoZ boundary arc).
    pub len: usize,
    /// Barrel size.
    pub theta_q: usize,
    /// Densities priced.
    pub densities: usize,
    /// Best wall time of the first density: derives the shape's rows.
    pub first_secs: f64,
    /// Best mean wall time of a later density: re-weights them.
    pub later_mean_secs: f64,
    /// `later_mean_secs / first_secs` — what `perf_smoke` caps.
    pub later_over_first: f64,
}

impl FixpointBench {
    /// Best of `runs`, each on a cache nothing was priced in. The shared
    /// Stirling triangle is filled beforehand, so the first density is
    /// billed for the shape's rows only.
    pub fn measure(runs: usize) -> FixpointBench {
        let (len, theta_q) = (2000usize, 500usize);
        let segment = Segment {
            start: 0,
            len,
            kind: SegmentKind::Boundary,
        };
        let densities: Vec<f64> = (1..=8).map(|k| 6.4e-3 * (1.0 - 0.5f64.powi(k))).collect();
        let tables = SharedStirling::new();
        let price = |cache: &SegmentKernelCache, rho: f64| {
            std::hint::black_box(cache.expected_bots(&segment, theta_q, rho, &tables));
        };
        let prefill = SegmentKernelCache::default();
        densities.iter().for_each(|&rho| price(&prefill, rho));

        let mut first_secs = f64::INFINITY;
        let mut later_mean_secs = f64::INFINITY;
        for _ in 0..runs.max(1) {
            let cache = SegmentKernelCache::default();
            let started = Instant::now();
            price(&cache, densities[0]);
            first_secs = first_secs.min(started.elapsed().as_secs_f64());
            let started = Instant::now();
            densities[1..].iter().for_each(|&rho| price(&cache, rho));
            let mean = started.elapsed().as_secs_f64() / (densities.len() - 1) as f64;
            later_mean_secs = later_mean_secs.min(mean);
        }
        FixpointBench {
            len,
            theta_q,
            densities: densities.len(),
            first_secs,
            later_mean_secs,
            later_over_first: later_mean_secs / first_secs.max(1e-12),
        }
    }
}
