//! Microbenchmark of the Theorem-1 segment kernel and its memo cache,
//! written to `BENCH_estimator.json`.
//!
//! Three timed passes over one fixed query sweep (segment shapes × a
//! geometric density ladder, shapes sized like the pipeline-bench arcs):
//!
//! 1. **uncached** — every query through
//!    [`expected_bots_for_segment`](botmeter_core::expected_bots_for_segment);
//! 2. **cached cold** — the same queries through a fresh
//!    [`SegmentKernelCache`] (all memo misses: a shape's rows derived at
//!    its first density, re-weighted at the other seven);
//! 3. **cached warm** — the same queries repeated against the now-filled
//!    cache (all hits: pure memo-table lookups).
//!
//! A pre-pass fills the shared Stirling/binomial tables so the uncached
//! pass is not billed for one-time triangle fills the cached passes would
//! inherit. The sweep repeats each shape at eight densities, so passes 1
//! and 2 differ by what the cache's shape table saves: the uncached pass
//! re-derives a shape's rows per density, the cold cache derives them once
//! and re-weights. The report ends with the two blocks `perf_smoke` gates:
//! `fixpoint` — one b-segment at eight successive densities, first versus
//! later — and `timing` — `MT` (Algorithm 1) on one `chart_heavy`-sized
//! cell.
//! Usage: `estimator [--repeat K] [--out PATH]`.

use botmeter_bench::cell::{FixpointBench, TimingBench};
use botmeter_core::{Segment, SegmentKernelCache, SegmentKind};
use botmeter_stats::SharedStirling;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    /// Distinct (kind, len, θq, ρ) queries in the sweep.
    queries: usize,
    /// Times each pass replays the sweep.
    repeat: usize,
    uncached: Pass,
    cached_cold: Pass,
    cached_warm: Pass,
    /// `cached_warm.evals_per_sec / uncached.evals_per_sec`.
    warm_speedup: f64,
    /// Distinct `(shape, ρ̃)` values the cache holds after the warm pass.
    memo_entries: usize,
    /// Distinct shapes whose ρ-free rows it holds.
    shape_entries: usize,
    fixpoint: FixpointBench,
    timing: TimingBench,
}

#[derive(Serialize)]
struct Pass {
    secs: f64,
    evals_per_sec: f64,
    memo_hits: u64,
    memo_misses: u64,
    gap_tables_built: u64,
    gap_table_reuse: u64,
    config_entries_computed: u64,
    config_entries_reused: u64,
}

struct Sweep {
    queries: Vec<(Segment, usize, f64)>,
}

impl Sweep {
    /// Shapes sized like the pipeline bench: saturated newGoZ boundary
    /// arcs plus single-barrel middle segments, across a geometric density
    /// ladder bracketing the fixpoint trajectory.
    fn paper_like() -> Self {
        let theta_q = 500usize;
        let mut queries = Vec::new();
        let boundary_lens = [800usize, 1200, 1600, 2000, 2400, 2800];
        let middle_lens = [500usize, 510];
        let densities: Vec<f64> = (0..8).map(|k| 1e-3 * 1.4f64.powi(k)).collect();
        for &rho in &densities {
            for &len in &boundary_lens {
                let seg = Segment {
                    start: 0,
                    len,
                    kind: SegmentKind::Boundary,
                };
                queries.push((seg, theta_q, rho));
            }
            for &len in &middle_lens {
                let seg = Segment {
                    start: 0,
                    len,
                    kind: SegmentKind::Middle,
                };
                queries.push((seg, theta_q, rho));
            }
        }
        Sweep { queries }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_estimator.json");
    let mut repeat = 3usize;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i).cloned();
        match flag {
            "--out" => out = value.unwrap_or_else(|| usage("--out needs a path")),
            "--repeat" => {
                repeat = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--repeat needs a number"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let repeat = repeat.max(1);

    let sweep = Sweep::paper_like();
    let tables = SharedStirling::new();
    let evals = sweep.queries.len() * repeat;

    // Untimed pre-pass: fill the shared Stirling triangle and binomial
    // rows so no timed pass is billed for the one-time fills.
    let warm_cache = SegmentKernelCache::exact();
    for (seg, theta_q, rho) in &sweep.queries {
        let _ = warm_cache.expected_bots(seg, *theta_q, *rho, &tables);
    }

    // Pass 1: uncached kernel (exact-mode cache misses are the uncached
    // kernel plus a hash probe; to measure the kernel alone, bypass the
    // cache entirely).
    let started = Instant::now();
    let mut uncached = Pass::zero();
    for _ in 0..repeat {
        for (seg, theta_q, rho) in &sweep.queries {
            let (_, stats) =
                botmeter_core::expected_bots_for_shape(seg.kind, seg.len, *theta_q, *rho, &tables);
            uncached.absorb_stats(stats);
            uncached.memo_misses += 1;
        }
    }
    uncached.finish(started.elapsed().as_secs_f64(), evals);

    // Pass 2: cold cache — every repeat uses a fresh quantized cache, so
    // each query is a memo miss, and a shape-table miss once per shape.
    let started = Instant::now();
    let mut cold = Pass::zero();
    for _ in 0..repeat {
        let cache = SegmentKernelCache::default();
        for (seg, theta_q, rho) in &sweep.queries {
            let eval = cache.expected_bots(seg, *theta_q, *rho, &tables);
            cold.absorb(&eval);
        }
    }
    cold.finish(started.elapsed().as_secs_f64(), evals);

    // Pass 3: warm cache — one shared cache, first fill untimed, then the
    // sweep repeated against it (all hits).
    let cache = SegmentKernelCache::default();
    for (seg, theta_q, rho) in &sweep.queries {
        let _ = cache.expected_bots(seg, *theta_q, *rho, &tables);
    }
    let started = Instant::now();
    let mut warm = Pass::zero();
    for _ in 0..repeat {
        for (seg, theta_q, rho) in &sweep.queries {
            let eval = cache.expected_bots(seg, *theta_q, *rho, &tables);
            warm.absorb(&eval);
        }
    }
    warm.finish(started.elapsed().as_secs_f64(), evals);

    let report = Report {
        benchmark: "estimator",
        queries: sweep.queries.len(),
        repeat,
        warm_speedup: warm.evals_per_sec / uncached.evals_per_sec.max(1e-9),
        memo_entries: cache.len(),
        shape_entries: cache.shape_count(),
        uncached,
        cached_cold: cold,
        cached_warm: warm,
        fixpoint: FixpointBench::measure(repeat),
        timing: TimingBench::measure(repeat),
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, format!("{rendered}\n")).expect("write report");
    println!("{rendered}");
    eprintln!("estimator: wrote {out}");
}

impl Pass {
    fn zero() -> Self {
        Pass {
            secs: 0.0,
            evals_per_sec: 0.0,
            memo_hits: 0,
            memo_misses: 0,
            gap_tables_built: 0,
            gap_table_reuse: 0,
            config_entries_computed: 0,
            config_entries_reused: 0,
        }
    }

    fn absorb(&mut self, eval: &botmeter_core::KernelEval) {
        if eval.memo_hit {
            self.memo_hits += 1;
        } else {
            self.memo_misses += 1;
        }
        self.absorb_stats(eval.stats);
    }

    fn absorb_stats(&mut self, stats: botmeter_core::KernelStats) {
        self.gap_tables_built += stats.gap_tables_built;
        self.gap_table_reuse += stats.gap_table_reuses;
        self.config_entries_computed += stats.config_entries_computed;
        self.config_entries_reused += stats.config_entries_reused;
    }

    fn finish(&mut self, secs: f64, evals: usize) {
        self.secs = secs;
        self.evals_per_sec = evals as f64 / secs.max(1e-9);
    }
}

fn usage(message: &str) -> ! {
    eprintln!("estimator: {message}");
    eprintln!("usage: estimator [--repeat K] [--out PATH]");
    std::process::exit(2);
}
