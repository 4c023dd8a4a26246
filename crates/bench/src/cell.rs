//! One simulated landscape cell — a single server, a single epoch — for
//! the per-estimator benches, and the estimators' own blocks of
//! `BENCH_pipeline.json`: `timing`, `fixpoint` and `kernel`.

use botmeter_core::{
    expected_bots_for_shape, EstimationContext, Estimator, KernelStats, Segment,
    SegmentKernelCache, SegmentKind, TimingEstimator,
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

/// `MT`'s committed number: the `timing` block. A SipHash set per entry
/// measured ≈2.4x below it, and the scan that visited every entry ever
/// opened per lookup ≈90x below.
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
    /// (Conficker.C, 250 bots, one epoch), best of five.
    pub fn measure() -> TimingBench {
        let family = DgaFamily::conficker_c();
        let name = family.name().to_owned();
        let (lookups, ctx) = simulated_cell(family, 250);
        let mut entries = 0.0;
        let secs = crate::best_of(crate::MICRO_RUNS, || {
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

/// What one more fixpoint round costs `MB`: the `fixpoint` block. One
/// paper-like b-segment priced at successive
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
    /// `later_mean_secs / first_secs` — the gated figure.
    pub later_over_first: f64,
}

impl FixpointBench {
    /// Best of five, each on a cache nothing was priced in. The shared
    /// Stirling triangle is filled beforehand, so the first density is
    /// billed for the shape's rows only.
    pub fn measure() -> FixpointBench {
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
        for _ in 0..crate::MICRO_RUNS {
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

/// The Theorem-1 segment kernel and its memo cache over one fixed query
/// sweep — six boundary and two middle shapes sized like the pipeline
/// bench's arcs, each at a geometric ladder of eight densities: the
/// `kernel` block. Recorded, not gated (`botbench` times the same sweep as
/// `core.kernel_cold_s` / `core.kernel_warm_s`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBench {
    /// Distinct (kind, len, θq, ρ) queries in the sweep.
    pub queries: usize,
    /// Every query through the kernel alone: a shape's rows re-derived at
    /// each density.
    pub uncached: KernelPass,
    /// Through a fresh [`SegmentKernelCache`]: all memo misses, a shape's
    /// rows derived at its first density and re-weighted at the other seven.
    pub cached_cold: KernelPass,
    /// Against the filled cache: all memo hits.
    pub cached_warm: KernelPass,
    /// `cached_warm.evals_per_sec / uncached.evals_per_sec`.
    pub warm_speedup: f64,
    /// Distinct `(shape, ρ̃)` values the filled cache holds.
    pub memo_entries: usize,
    /// Distinct shapes whose ρ-free rows it holds.
    pub shape_entries: usize,
}

/// One pass over the sweep: best seconds of five, counters of one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelPass {
    /// Best wall time of one sweep.
    pub secs: f64,
    /// `queries / secs`.
    pub evals_per_sec: f64,
    /// Queries the memo table answered.
    pub memo_hits: u64,
    /// Queries it did not.
    pub memo_misses: u64,
    /// [`KernelStats::gap_tables_built`], summed.
    pub gap_tables_built: u64,
    /// [`KernelStats::gap_table_reuses`], summed.
    pub gap_table_reuse: u64,
    /// [`KernelStats::config_entries_computed`], summed.
    pub config_entries_computed: u64,
    /// [`KernelStats::config_entries_reused`], summed.
    pub config_entries_reused: u64,
}

impl KernelBench {
    /// Runs the three passes. The warm pass's cache is filled first, which
    /// also fills the shared Stirling triangle, so no timed pass is billed
    /// for either.
    pub fn measure() -> KernelBench {
        let theta_q = 500usize;
        let segment = |kind, len| Segment {
            start: 0,
            len,
            kind,
        };
        let shapes = [800usize, 1200, 1600, 2000, 2400, 2800]
            .map(|len| segment(SegmentKind::Boundary, len))
            .into_iter()
            .chain([500usize, 510].map(|len| segment(SegmentKind::Middle, len)));
        let queries: Vec<(Segment, f64)> = (0..8)
            .flat_map(|k| {
                shapes
                    .clone()
                    .map(move |shape| (shape, 1e-3 * 1.4f64.powi(k)))
            })
            .collect();
        let tables = SharedStirling::new();
        let through = |cache: &SegmentKernelCache| {
            let (mut hits, mut stats) = (0, KernelStats::default());
            for (segment, rho) in &queries {
                let eval = cache.expected_bots(segment, theta_q, *rho, &tables);
                hits += u64::from(eval.memo_hit);
                stats.merge(eval.stats);
            }
            (hits, stats)
        };
        let filled = SegmentKernelCache::default();
        through(&filled);

        let timed = |sweep: &mut dyn FnMut() -> (u64, KernelStats)| {
            let (memo_hits, stats) = sweep();
            let secs = crate::best_of(crate::MICRO_RUNS, || {
                std::hint::black_box(sweep());
            });
            KernelPass {
                secs,
                evals_per_sec: queries.len() as f64 / secs.max(1e-9),
                memo_hits,
                memo_misses: queries.len() as u64 - memo_hits,
                gap_tables_built: stats.gap_tables_built,
                gap_table_reuse: stats.gap_table_reuses,
                config_entries_computed: stats.config_entries_computed,
                config_entries_reused: stats.config_entries_reused,
            }
        };
        let uncached = timed(&mut || {
            let mut stats = KernelStats::default();
            for (segment, rho) in &queries {
                let priced =
                    expected_bots_for_shape(segment.kind, segment.len, theta_q, *rho, &tables);
                stats.merge(std::hint::black_box(priced).1);
            }
            (0, stats)
        });
        let cached_cold = timed(&mut || through(&SegmentKernelCache::default()));
        let cached_warm = timed(&mut || through(&filled));
        KernelBench {
            queries: queries.len(),
            warm_speedup: cached_warm.evals_per_sec / uncached.evals_per_sec.max(1e-9),
            memo_entries: filled.len(),
            shape_entries: filled.shape_count(),
            uncached,
            cached_cold,
            cached_warm,
        }
    }
}
