//! The one measurement pass behind `BENCH_pipeline.json`. `perf --record`
//! writes what [`Report::measure`] returns; plain `perf` holds a fresh
//! [`Report`] to the committed one through [`crate::gates::gates`] — so what
//! is recorded is what is gated, sampled the same way: whole-pipeline
//! figures best of three runs, micro-benches best of five.

use crate::cell::{FixpointBench, KernelBench, TimingBench};
use crate::decode::DecodeBench;
use crate::journal::JournalEncodeBench;
use crate::pool::{ChartPoolsBench, PoolBuildBench};
use crate::{best_of, PIPELINE_RUNS};
use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::SketchStream;
use botmeter_obs::{AllocSnapshot, MetricsSnapshot, Obs};
use botmeter_sim::{ScenarioOutcome, ScenarioSpec};
use botmeter_sketch::SketchConfig;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// The pipeline scenario: newGoZ at a population that keeps shards fat
/// (multi-worker throughput depends on how fat they are).
const POPULATION: u64 = 10_000;
const EPOCHS: u64 = 3;
const SEED: u64 = 42;

fn spec(population: u64, epochs: u64, obs: Obs) -> ScenarioSpec {
    ScenarioSpec::builder(DgaFamily::new_goz())
        .population(population)
        .num_epochs(epochs)
        .seed(SEED)
        .obs(obs)
        .build()
        .expect("valid scenario")
}

fn chart(outcome: &ScenarioOutcome, policy: ExecPolicy, obs: Obs) -> usize {
    let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
    let request = ChartRequest::new(outcome.observed())
        .epochs(0..EPOCHS)
        .policy(policy);
    black_box(meter.chart_with(&request)).len()
}

/// Everything `BENCH_pipeline.json` holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// `"pipeline"`.
    pub benchmark: String,
    /// The family simulated.
    pub family: String,
    /// Bots simulated.
    pub population: u64,
    /// Epochs simulated and charted.
    pub epochs: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Worker threads the parallel policy resolved to.
    pub threads: usize,
    /// Logical cores the measuring machine exposes — committed so a reader
    /// can tell a 1-core CI run from a multicore benchmark.
    pub available_cores: usize,
    /// Lookups the bots issued.
    pub raw_lookups: u64,
    /// Lookups that reached the border.
    pub observed_lookups: usize,
    /// Landscape cells charted.
    pub landscape_cells: usize,
    /// The simulate → filter → chart pipeline under the full worker pool.
    pub streaming: Streaming,
    /// Heap allocations per raw lookup during the simulate stage. Covers
    /// everything the stage allocates (interner build, per-shard run
    /// buffers, egress hydration), so a path that allocates per shard,
    /// never per lookup, reads as a small fraction, not 0.
    pub allocs_per_raw_lookup: f64,
    /// The simulate stage on one thread against the full pool.
    pub scaling: Scaling,
    /// The same on shards a few thousand records thin.
    pub thin_shards: ThinShards,
    /// The sketch frontend's resident bytes over the observed stream.
    pub sketch: SketchResidency,
    /// The observed stream encoded as journal payloads.
    pub journal_encode: JournalEncodeBench,
    /// The same stream read back from JSON Lines.
    pub trace_decode: DecodeBench,
    /// And from journal payloads.
    pub journal_decode: DecodeBench,
    /// A 20-epoch newGoZ matcher built and dropped.
    pub pool_build: PoolBuildBench,
    /// A 20-epoch newGoZ chart, matcher to landscape.
    pub chart_pools: ChartPoolsBench,
    /// The Theorem-1 kernel and its cache over a fixed query sweep.
    pub kernel: KernelBench,
    /// One b-segment priced at successive fixpoint densities.
    pub fixpoint: FixpointBench,
    /// `MT` on one Conficker.C cell.
    pub timing: TimingBench,
}

/// Best stage times of `PIPELINE_RUNS` runs after an untimed one;
/// residency and allocator traffic of the first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Streaming {
    /// Best wall time of the simulate stage (replay, TTL filter, faults).
    pub simulate_secs: f64,
    /// Best wall time of charting the observed stream.
    pub chart_secs: f64,
    /// `raw_lookups / simulate_secs`.
    pub raw_lookups_per_sec: f64,
    /// `observed_lookups / chart_secs`: the estimator-kernel figure.
    pub chart_lookups_per_sec: f64,
    /// High-water mark of raw-trace records held in memory at once.
    pub peak_resident_records: u64,
    /// Heap allocations during the simulate stage.
    pub simulate_allocs: u64,
    /// Bytes those allocations requested.
    pub simulate_alloc_bytes: u64,
}

/// Multicore evidence, so a one-thread "parallel" row cannot pass for a
/// multicore result. Read with the report's `available_cores`: a ratio near
/// 1.0 on one core is expected, not a regression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scaling {
    /// Simulate-stage throughput under `ExecPolicy::Sequential`.
    pub single_thread_raw_lookups_per_sec: f64,
    /// `streaming.raw_lookups_per_sec` over it.
    pub ratio: f64,
}

/// 300 bots × 4 epochs over the default 16 shards per epoch: the shape
/// where per-shard overhead on the consumer (a pool opened per call, cache
/// state copied per worker) once made the pool policy ~3× slower than one
/// thread, which the fat-shard ratio cannot see.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThinShards {
    /// Bots simulated.
    pub population: u64,
    /// Epochs simulated.
    pub epochs: u64,
    /// Best wall time under `ExecPolicy::Sequential`.
    pub single_thread_secs: f64,
    /// Best wall time under the full pool.
    pub pool_secs: f64,
    /// `pool_secs / single_thread_secs`.
    pub ratio: f64,
}

/// The observed stream folded through the constant-memory sketch frontend:
/// its deterministic resident-byte accounting is O(servers × width),
/// whatever the traffic volume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchResidency {
    /// Matched lookups folded in.
    pub matched_lookups: u64,
    /// Non-empty (server, epoch) cells.
    pub cells: usize,
    /// What one cell may hold at most under the default configuration.
    pub cell_budget_bytes: u64,
    /// High-water mark of the sketch's resident bytes.
    pub peak_resident_bytes: u64,
}

impl Report {
    /// Runs every measurement once. Allocation figures read zero unless the
    /// binary installs [`botmeter_obs::CountingAlloc`].
    pub fn measure() -> Report {
        let threads = botmeter_exec::num_threads();
        let parallel = ExecPolicy::with_threads(threads);
        let pipeline = spec(POPULATION, EPOCHS, Obs::noop());

        // One untimed run pays for page faults and allocator growth over
        // the trace's full footprint; its observed stream is what the codec
        // and sketch figures are taken over.
        let warmup = pipeline.run(parallel);
        let journal_encode = JournalEncodeBench::measure(warmup.observed());
        let trace_decode = DecodeBench::trace(warmup.observed());
        let journal_decode = DecodeBench::journal(warmup.observed());
        let sketch = SketchResidency::measure(&warmup);
        let (raw_lookups, observed_lookups) = (warmup.raw_lookups(), warmup.observed().len());
        drop(warmup);

        let (mut simulate_secs, mut chart_secs) = (f64::INFINITY, f64::INFINITY);
        let mut first = None;
        for _ in 0..PIPELINE_RUNS {
            let before = AllocSnapshot::now();
            let started = Instant::now();
            let outcome = pipeline.run(parallel);
            simulate_secs = simulate_secs.min(started.elapsed().as_secs_f64());
            let allocs = AllocSnapshot::now().since(&before);
            let started = Instant::now();
            let cells = chart(&outcome, parallel, Obs::noop());
            chart_secs = chart_secs.min(started.elapsed().as_secs_f64());
            first.get_or_insert((outcome.peak_resident_records(), allocs, cells));
        }
        let (peak_resident_records, allocs, landscape_cells) = first.expect("at least one run");
        let single_secs = best_of(PIPELINE_RUNS, || {
            let single = pipeline.run(ExecPolicy::Sequential);
            assert_eq!(
                (single.raw_lookups(), single.observed().len()),
                (raw_lookups, observed_lookups),
                "runs must agree across policies"
            );
        });
        let rate = |secs: f64| raw_lookups as f64 / secs.max(1e-9);

        Report {
            benchmark: "pipeline".to_owned(),
            family: DgaFamily::new_goz().name().to_owned(),
            population: POPULATION,
            epochs: EPOCHS,
            seed: SEED,
            threads,
            available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            raw_lookups,
            observed_lookups,
            landscape_cells,
            streaming: Streaming {
                simulate_secs,
                chart_secs,
                raw_lookups_per_sec: rate(simulate_secs),
                chart_lookups_per_sec: observed_lookups as f64 / chart_secs.max(1e-9),
                peak_resident_records,
                simulate_allocs: allocs.count,
                simulate_alloc_bytes: allocs.bytes,
            },
            allocs_per_raw_lookup: allocs.count as f64 / raw_lookups.max(1) as f64,
            scaling: Scaling {
                single_thread_raw_lookups_per_sec: rate(single_secs),
                ratio: single_secs / simulate_secs.max(1e-9),
            },
            thin_shards: ThinShards::measure(parallel),
            sketch,
            journal_encode,
            trace_decode,
            journal_decode,
            pool_build: PoolBuildBench::measure(),
            chart_pools: ChartPoolsBench::measure(),
            kernel: KernelBench::measure(),
            fixpoint: FixpointBench::measure(),
            timing: TimingBench::measure(),
        }
    }

    /// One more pipeline run with a collecting recorder attached — kept out
    /// of [`measure`](Self::measure) so its wall times stay on the no-op
    /// path. Its snapshot is what `METRICS_pipeline.json` holds: per-server
    /// cache hits/misses, border filter counts, matcher probes/matches,
    /// `sim.stream.*` residency, per-epoch estimate latency histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        let parallel = ExecPolicy::with_threads(self.threads);
        let (obs, registry) = Obs::collecting();
        let before = AllocSnapshot::now();
        let outcome = spec(POPULATION, EPOCHS, obs.clone()).run(parallel);
        let simulate = AllocSnapshot::now().since(&before);
        let before = AllocSnapshot::now();
        chart(&outcome, parallel, obs.clone());
        let charted = AllocSnapshot::now().since(&before);
        // Under `alloc.`, which `deterministic_counters()` excludes:
        // allocator traffic depends on worker count and scheduling.
        obs.counter_add("alloc.simulate.count", simulate.count);
        obs.counter_add("alloc.simulate.bytes", simulate.bytes);
        obs.counter_add("alloc.chart.count", charted.count);
        obs.counter_add("alloc.chart.bytes", charted.bytes);
        registry.snapshot()
    }
}

impl ThinShards {
    fn measure(parallel: ExecPolicy) -> ThinShards {
        let (population, epochs) = (300, 4);
        let thin = spec(population, epochs, Obs::noop());
        let secs = |policy| {
            best_of(PIPELINE_RUNS, || {
                black_box(thin.run(policy));
            })
        };
        let (single_thread_secs, pool_secs) = (secs(ExecPolicy::Sequential), secs(parallel));
        ThinShards {
            population,
            epochs,
            single_thread_secs,
            pool_secs,
            ratio: pool_secs / single_thread_secs.max(1e-9),
        }
    }
}

impl SketchResidency {
    fn measure(outcome: &ScenarioOutcome) -> SketchResidency {
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let config = SketchConfig::new(outcome.family().epoch_len())
            .expect("family epoch length is non-zero");
        let matcher = meter.matcher_for(0..EPOCHS);
        let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
        frontend.ingest(outcome.observed());
        let (sketch, _) = frontend.finish();
        SketchResidency {
            matched_lookups: sketch.total(),
            cells: sketch.cell_count(),
            cell_budget_bytes: config.cell_budget_bytes(),
            peak_resident_bytes: sketch.peak_resident_bytes(),
        }
    }
}
