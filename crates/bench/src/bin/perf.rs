//! Measures the end-to-end pipeline (newGoZ, 10 000 bots, 3 epochs) under
//! the full worker pool and under one thread, and writes the evidence to
//! `BENCH_pipeline.json`: wall times, lookup and charting throughput, the
//! worker-thread count each run actually used, the peak number of raw-trace
//! records resident in memory, the simulate stage's allocator traffic,
//! what journaling the observed stream costs `botmeterd` to encode, what
//! enumerating a chart window's pools into a matcher (and dropping it) costs
//! and how many pools a whole chart generates.
//! A final, instrumented pass runs the pipeline with a collecting [`Obs`]
//! recorder attached and dumps the full [`MetricsSnapshot`] — per-server
//! cache hits/misses, border filter counts, matcher probes/matches,
//! `sim.stream.*` residency metrics, per-epoch estimate latency histograms
//! — to `METRICS_pipeline.json`.
//!
//! Usage: `perf [--population N] [--epochs E] [--seed S] [--out PATH]
//! [--metrics-out PATH]`.

use botmeter_bench::decode::DecodeBench;
use botmeter_bench::journal::JournalEncodeBench;
use botmeter_bench::pool::{ChartPoolsBench, PoolBuildBench};
use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest, Landscape};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_obs::{AllocSnapshot, MetricsSnapshot, Obs};
use botmeter_sim::{ScenarioOutcome, ScenarioSpec, ScenarioSpecBuilder};
use serde::Serialize;
use std::time::Instant;

/// Every heap allocation in this binary flows through the counting
/// allocator, so each variant's simulate/chart stages can be charged their
/// exact allocator traffic alongside their wall time.
#[global_allocator]
static ALLOC: botmeter_obs::CountingAlloc = botmeter_obs::CountingAlloc;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    family: &'static str,
    population: u64,
    epochs: u64,
    seed: u64,
    /// Worker threads available to parallel policies on this machine.
    threads: usize,
    /// Logical cores the measuring machine actually exposes — committed so
    /// a reader can tell a 1-core CI run from a real multicore benchmark.
    available_cores: usize,
    raw_lookups: u64,
    observed_lookups: usize,
    landscape_cells: usize,
    /// The simulate→filter→fault pipeline under the full worker pool, raw
    /// trace dropped shard by shard.
    streaming: Variant,
    /// Heap allocations per raw lookup during the streaming simulate
    /// stage — the zero-allocation hot-path figure the `perf_smoke`
    /// alloc-budget gate holds future changes to. Covers everything the
    /// stage allocates (interner build, shard buffers before the recycler
    /// warms up, egress hydration), so "zero allocation" in the steady
    /// state shows up as a small constant-per-run fraction, not literal 0.
    allocs_per_raw_lookup: f64,
    /// The run's observed stream encoded as journal payloads: MB/s and
    /// allocations per journaled record, both gated by `perf_smoke`.
    journal_encode: JournalEncodeBench,
    /// The same stream read back from JSON Lines (`estimate`'s and
    /// `botmeterd`'s input path) and from journal payloads (recovery's
    /// replay): MB/s and allocations per decoded record, both gated by
    /// `perf_smoke`.
    trace_decode: DecodeBench,
    journal_decode: DecodeBench,
    /// A 20-epoch newGoZ matcher built and dropped: names/s and allocations
    /// per pooled name, both gated by `perf_smoke`.
    pool_build: PoolBuildBench,
    /// A 20-epoch newGoZ chart, matcher to landscape: pools generated (one
    /// per epoch) and seconds, both gated by `perf_smoke`.
    chart_pools: ChartPoolsBench,
    /// `raw_lookups / streaming.peak_resident_records`: how much smaller
    /// the resident raw footprint is than the whole trace.
    residency_reduction: f64,
    /// Streaming multicore scaling evidence: the same fused pipeline with
    /// a 1-thread policy vs the full pool, so a `threads: 1` "parallel"
    /// row can never masquerade as a multicore result again.
    scaling: Scaling,
}

#[derive(Serialize)]
struct Scaling {
    /// Worker threads the multi-thread streaming run resolved to.
    threads: usize,
    /// Logical cores available while measuring (a `ratio` near 1.0 with
    /// `available_cores: 1` is expected, not a regression).
    available_cores: usize,
    single_thread_raw_lookups_per_sec: f64,
    multi_thread_raw_lookups_per_sec: f64,
    /// `multi_thread / single_thread` raw streaming throughput.
    ratio: f64,
}

#[derive(Serialize)]
struct Variant {
    /// Worker threads this variant's policy actually resolved to.
    threads: usize,
    simulate_secs: f64,
    chart_secs: f64,
    total_secs: f64,
    raw_lookups_per_sec: f64,
    /// Charting throughput: observed (cache-filtered) lookups charted per
    /// second — the estimator-kernel figure the perf-smoke gate watches.
    chart_lookups_per_sec: f64,
    /// High-water mark of raw-trace records held in memory at once.
    peak_resident_records: u64,
    /// Heap allocations during the simulate stage (counting allocator).
    simulate_allocs: u64,
    /// Bytes requested by those allocations.
    simulate_alloc_bytes: u64,
}

#[derive(Serialize)]
struct MetricsReport {
    benchmark: &'static str,
    family: &'static str,
    population: u64,
    epochs: u64,
    seed: u64,
    threads: usize,
    metrics: MetricsSnapshot,
}

struct Measurement {
    threads: usize,
    simulate_secs: f64,
    chart_secs: f64,
    raw_lookups: u64,
    observed_lookups: usize,
    landscape_cells: usize,
    peak_resident_records: u64,
    simulate_alloc: AllocSnapshot,
}

impl Measurement {
    fn variant(&self) -> Variant {
        Variant {
            threads: self.threads,
            simulate_secs: self.simulate_secs,
            chart_secs: self.chart_secs,
            total_secs: self.simulate_secs + self.chart_secs,
            raw_lookups_per_sec: self.raw_lookups as f64 / self.simulate_secs.max(1e-9),
            chart_lookups_per_sec: self.observed_lookups as f64 / self.chart_secs.max(1e-9),
            peak_resident_records: self.peak_resident_records,
            simulate_allocs: self.simulate_alloc.count,
            simulate_alloc_bytes: self.simulate_alloc.bytes,
        }
    }

    fn allocs_per_raw_lookup(&self) -> f64 {
        self.simulate_alloc.count as f64 / (self.raw_lookups.max(1) as f64)
    }
}

struct Bench {
    population: u64,
    epochs: u64,
    seed: u64,
}

impl Bench {
    fn builder(&self) -> ScenarioSpecBuilder {
        ScenarioSpec::builder(DgaFamily::new_goz())
            .population(self.population)
            .num_epochs(self.epochs)
            .seed(self.seed)
    }

    #[allow(clippy::type_complexity)]
    fn pipeline(
        &self,
        policy: ExecPolicy,
        obs: Obs,
    ) -> (
        ScenarioOutcome,
        Landscape,
        f64,
        f64,
        AllocSnapshot,
        AllocSnapshot,
    ) {
        let spec = self
            .builder()
            .obs(obs.clone())
            .build()
            .expect("valid scenario");
        let alloc_start = AllocSnapshot::now();
        let started = Instant::now();
        let outcome = spec.run(policy);
        let simulate_secs = started.elapsed().as_secs_f64();
        let simulate_alloc = AllocSnapshot::now().since(&alloc_start);

        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
        let alloc_start = AllocSnapshot::now();
        let started = Instant::now();
        let landscape = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..self.epochs)
                .policy(policy),
        );
        let chart_secs = started.elapsed().as_secs_f64();
        let chart_alloc = AllocSnapshot::now().since(&alloc_start);
        (
            outcome,
            landscape,
            simulate_secs,
            chart_secs,
            simulate_alloc,
            chart_alloc,
        )
    }

    fn measure(&self, policy: ExecPolicy) -> Measurement {
        let (outcome, landscape, simulate_secs, chart_secs, simulate_alloc, _) =
            self.pipeline(policy, Obs::noop());
        Measurement {
            threads: policy.worker_threads(),
            simulate_secs,
            chart_secs,
            raw_lookups: outcome.raw_lookups(),
            observed_lookups: outcome.observed().len(),
            landscape_cells: landscape.len(),
            peak_resident_records: outcome.peak_resident_records(),
            simulate_alloc,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut population = 10_000u64;
    let mut epochs = 3u64;
    let mut seed = 42u64;
    let mut out = String::from("BENCH_pipeline.json");
    let mut metrics_out = String::from("METRICS_pipeline.json");

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i).cloned();
        match flag {
            "--population" => {
                population = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--population needs a number"))
            }
            "--epochs" => {
                epochs = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--epochs needs a number"))
            }
            "--seed" => {
                seed = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"))
            }
            "--out" => out = value.unwrap_or_else(|| usage("--out needs a path")),
            "--metrics-out" => {
                metrics_out = value.unwrap_or_else(|| usage("--metrics-out needs a path"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    // Resolve the worker count once and build every parallel policy from
    // it, so the top-level `threads` field and the per-variant `threads`
    // fields can never disagree about the pool the run actually used.
    let threads = botmeter_exec::num_threads();
    let parallel = ExecPolicy::with_threads(threads);
    let bench = Bench {
        population,
        epochs,
        seed,
    };

    eprintln!("perf: newGoZ, {population} bots, {epochs} epochs, {threads} worker thread(s)");
    // One untimed warmup run: the first pipeline execution pays for page
    // faults and allocator growth over the trace's full footprint, which
    // would otherwise be billed to whichever variant runs first. Its
    // observed stream is what the journal-encode and decode figures are
    // taken over.
    let (warmup, ..) = bench.pipeline(parallel, Obs::noop());
    let journal_encode = JournalEncodeBench::measure(warmup.observed(), 5);
    let trace_decode = DecodeBench::trace(warmup.observed(), 5);
    let journal_decode = DecodeBench::journal(warmup.observed(), 5);
    drop(warmup);
    let pool_build = PoolBuildBench::measure(5);
    let chart_pools = ChartPoolsBench::measure(5);
    let stream = bench.measure(parallel);
    let stream_single = bench.measure(ExecPolicy::Sequential);
    assert_eq!(
        (stream.raw_lookups, stream.observed_lookups),
        (stream_single.raw_lookups, stream_single.observed_lookups),
        "runs must agree across policies"
    );

    let available_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let single_rate = stream_single.raw_lookups as f64 / stream_single.simulate_secs.max(1e-9);
    let multi_rate = stream.raw_lookups as f64 / stream.simulate_secs.max(1e-9);
    let report = Report {
        benchmark: "pipeline",
        family: "newGoZ",
        population,
        epochs,
        seed,
        threads,
        available_cores,
        scaling: Scaling {
            threads: stream.threads,
            available_cores,
            single_thread_raw_lookups_per_sec: single_rate,
            multi_thread_raw_lookups_per_sec: multi_rate,
            ratio: multi_rate / single_rate.max(1e-9),
        },
        raw_lookups: stream.raw_lookups,
        observed_lookups: stream.observed_lookups,
        landscape_cells: stream.landscape_cells,
        residency_reduction: stream.raw_lookups as f64 / stream.peak_resident_records.max(1) as f64,
        allocs_per_raw_lookup: stream.allocs_per_raw_lookup(),
        journal_encode,
        trace_decode,
        journal_decode,
        pool_build,
        chart_pools,
        streaming: stream.variant(),
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out, format!("{rendered}\n")).expect("write report");
    println!("{rendered}");
    eprintln!("perf: wrote {out}");

    // Instrumented pass: the same pipeline with a collecting recorder. Kept
    // out of the timed runs above so the reported wall times stay on the
    // no-op hot path.
    let (observer, registry) = Obs::collecting();
    let (_, _, _, _, simulate_alloc, chart_alloc) = bench.pipeline(parallel, observer.clone());
    // Allocation accounting rides along under the `alloc.` prefix, which
    // `deterministic_counters()` excludes (allocator traffic depends on
    // worker count and buffer-recycling timing, like `sched.`).
    observer.counter_add("alloc.simulate.count", simulate_alloc.count);
    observer.counter_add("alloc.simulate.bytes", simulate_alloc.bytes);
    observer.counter_add("alloc.chart.count", chart_alloc.count);
    observer.counter_add("alloc.chart.bytes", chart_alloc.bytes);
    let metrics = MetricsReport {
        benchmark: "pipeline",
        family: "newGoZ",
        population,
        epochs,
        seed,
        threads,
        metrics: registry.snapshot(),
    };
    let rendered = serde_json::to_string_pretty(&metrics).expect("metrics serialise");
    std::fs::write(&metrics_out, format!("{rendered}\n")).expect("write metrics");
    eprintln!("perf: wrote {metrics_out}");
}

fn usage(message: &str) -> ! {
    eprintln!("perf: {message}");
    eprintln!(
        "usage: perf [--population N] [--epochs E] [--seed S] [--out PATH] [--metrics-out PATH]"
    );
    std::process::exit(2);
}
