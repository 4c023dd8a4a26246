//! CI throughput guard: replays the committed pipeline benchmark's scenario
//! (same population as `perf`, because the pipeline's multi-worker
//! throughput depends on how fat its shards are) and fails (exit 1) if raw
//! simulation throughput or estimator-charting throughput regresses
//! more than the allowed fraction below the committed
//! `BENCH_pipeline.json` baseline, if the streaming pipeline loses its
//! bounded-memory property, or if the streaming N-thread/1-thread scaling
//! ratio falls below a core-count-aware floor derived from the committed
//! `scaling` block, or if on thin shards the default policy takes longer
//! than one thread does, or if `MT` on a `chart_heavy`-sized cell falls
//! the same fraction below the `timing` block of the `BENCH_estimator.json`
//! beside the baseline, or if pricing a segment shape at a second density
//! costs more than a quarter of pricing it at the first (`MB`'s fixpoint
//! re-weights a shape's rows, it does not re-derive them), or if encoding
//! the observed stream as journal payloads falls the same fraction below
//! the committed `journal_encode` block or allocates per record at all
//! (the durable path streams into a reused buffer), or if reading that
//! stream back — as a JSON Lines trace, and as journal payloads — falls the
//! same fraction below the committed `trace_decode` / `journal_decode`
//! blocks or allocates more than the one name per record (the reader
//! streams out of a reused line buffer), or if building and
//! dropping a 20-epoch pool matcher falls the same fraction below the
//! committed `pool_build` block or allocates per name at all (a pool is
//! one buffer), or if a 20-epoch chart generates any number of pools but
//! 20 or takes that fraction longer than the committed `chart_pools` block
//! (the matcher and the estimators read one pool per epoch). Takes the best
//! of a few runs so scheduler noise on shared CI workers doesn't trip the
//! gate.
//!
//! Usage: `perf_smoke [--baseline PATH] [--population N] [--epochs E]
//! [--seed S] [--min-ratio R] [--runs K]`.

use botmeter_bench::cell::{FixpointBench, TimingBench};
use botmeter_bench::decode::DecodeBench;
use botmeter_bench::journal::JournalEncodeBench;
use botmeter_bench::pool::{ChartPoolsBench, PoolBuildBench};
use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest};
use botmeter_dga::DgaFamily;
use botmeter_exec::ExecPolicy;
use botmeter_obs::AllocSnapshot;
use botmeter_sim::ScenarioSpec;
use serde::Deserialize;
use std::path::Path;
use std::time::Instant;

/// Counting allocator so the streaming smoke run can hold the hot path to
/// its committed allocation budget (see the alloc-budget gate below).
#[global_allocator]
static ALLOC: botmeter_obs::CountingAlloc = botmeter_obs::CountingAlloc;

/// The slice of `BENCH_pipeline.json` the gate needs (extra keys are
/// ignored by the deserializer).
#[derive(Deserialize)]
struct Baseline {
    streaming: BaselineVariant,
    /// Streaming 1-thread vs N-thread evidence; optional so the gate can
    /// still run against a pre-scaling baseline (it then only checks the
    /// core-count-derived floor).
    scaling: Option<BaselineScaling>,
    /// Streaming simulate-stage heap allocations per raw lookup; optional
    /// so the gate still runs against a pre-alloc-accounting baseline (it
    /// then skips the alloc-budget check).
    allocs_per_raw_lookup: Option<f64>,
    journal_encode: JournalEncodeBench,
    trace_decode: DecodeBench,
    journal_decode: DecodeBench,
    pool_build: PoolBuildBench,
    chart_pools: ChartPoolsBench,
}

#[derive(Deserialize)]
struct BaselineVariant {
    raw_lookups_per_sec: f64,
    chart_lookups_per_sec: f64,
}

#[derive(Deserialize)]
struct BaselineScaling {
    ratio: f64,
}

/// The slice of `BENCH_estimator.json` the Timing gate needs.
#[derive(Deserialize)]
struct EstimatorBaseline {
    timing: TimingBench,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = String::from("BENCH_pipeline.json");
    let mut population = 10_000u64;
    let mut epochs = 3u64;
    let mut seed = 42u64;
    let mut min_ratio = 0.75f64;
    let mut runs = 2usize;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i).cloned();
        match flag {
            "--baseline" => {
                baseline_path = value.unwrap_or_else(|| usage("--baseline needs a path"))
            }
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
            "--min-ratio" => {
                min_ratio = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--min-ratio needs a number"))
            }
            "--runs" => {
                runs = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--runs needs a number"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let runs = runs.max(1);

    let baseline: Baseline = read_baseline(Path::new(&baseline_path));
    let baseline_rate = baseline.streaming.raw_lookups_per_sec;
    let floor = baseline_rate * min_ratio;
    let chart_baseline_rate = baseline.streaming.chart_lookups_per_sec;
    let chart_floor = chart_baseline_rate * min_ratio;

    let spec_of = |population, epochs| {
        ScenarioSpec::builder(DgaFamily::new_goz())
            .population(population)
            .num_epochs(epochs)
            .seed(seed)
            .build()
            .expect("valid scenario")
    };
    let spec = || spec_of(population, epochs);

    // Warmup pays the one-time page-fault/allocator cost.
    let _ = spec().run(ExecPolicy::parallel());

    let mut best_rate = 0.0f64;
    let mut best_chart_rate = 0.0f64;
    let mut last_outcome = None;
    for run in 0..runs {
        let started = Instant::now();
        let outcome = spec().run(ExecPolicy::parallel());
        let secs = started.elapsed().as_secs_f64();
        let rate = outcome.raw_lookups() as f64 / secs.max(1e-9);

        // Chart the same observed trace: the estimator-kernel throughput
        // gate, in observed (cache-filtered) lookups charted per second.
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let started = Instant::now();
        let landscape = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..epochs)
                .policy(ExecPolicy::parallel()),
        );
        let chart_secs = started.elapsed().as_secs_f64();
        let chart_rate = outcome.observed().len() as f64 / chart_secs.max(1e-9);
        eprintln!(
            "perf_smoke: run {}/{runs}: {:.0} raw lookups/sec ({} lookups in {secs:.3}s), \
             {:.0} chart lookups/sec ({} cells in {chart_secs:.3}s)",
            run + 1,
            rate,
            outcome.raw_lookups(),
            chart_rate,
            landscape.len()
        );
        best_rate = best_rate.max(rate);
        best_chart_rate = best_chart_rate.max(chart_rate);
        last_outcome = Some(outcome);
    }

    // Charting is deterministic and cheap relative to simulation, so take
    // two extra timing samples of the chart stage alone — the chart gate
    // gets more best-of samples than the simulate gate without paying for
    // more pipeline runs, which keeps scheduler noise on shared workers
    // from tripping it spuriously.
    if let Some(outcome) = &last_outcome {
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        for sample in 0..2 {
            let started = Instant::now();
            let _ = meter.chart_with(
                &ChartRequest::new(outcome.observed())
                    .epochs(0..epochs)
                    .policy(ExecPolicy::parallel()),
            );
            let chart_secs = started.elapsed().as_secs_f64();
            let chart_rate = outcome.observed().len() as f64 / chart_secs.max(1e-9);
            eprintln!(
                "perf_smoke: chart resample {}/2: {chart_rate:.0} chart lookups/sec \
                 (in {chart_secs:.3}s)",
                sample + 1
            );
            best_chart_rate = best_chart_rate.max(chart_rate);
        }
    }

    // Residency smoke: the pipeline must keep its bound (a few shards
    // resident, not the whole trace).
    let alloc_before = AllocSnapshot::now();
    let streaming = spec().run(ExecPolicy::parallel());
    let streaming_alloc = AllocSnapshot::now().since(&alloc_before);
    eprintln!(
        "perf_smoke: streaming peak residency {} of {} raw lookups",
        streaming.peak_resident_records(),
        streaming.raw_lookups()
    );
    if streaming.peak_resident_records() * 2 >= streaming.raw_lookups() {
        fail(&format!(
            "streaming pipeline lost its memory bound: peak {} vs {} total raw lookups",
            streaming.peak_resident_records(),
            streaming.raw_lookups()
        ));
    }

    // Alloc-budget gate: the streaming simulate stage must stay near its
    // committed allocations-per-raw-lookup figure. The budget is generous
    // — 4× the committed figure, with an absolute floor of 0.5 — so a
    // `--population` override that amortizes the per-run fixed allocations
    // (interner build, buffer-pool warmup) over fewer lookups still
    // passes. A hot path that regresses to one allocation per record
    // still lands an order of magnitude above the ceiling.
    let measured_apl = streaming_alloc.count as f64 / (streaming.raw_lookups().max(1) as f64);
    if let Some(committed_apl) = baseline.allocs_per_raw_lookup {
        let budget = (4.0 * committed_apl).max(0.5);
        eprintln!(
            "perf_smoke: streaming allocs/raw lookup {measured_apl:.4} \
             ({} allocs over {} lookups) vs budget {budget:.4} \
             (committed {committed_apl:.4})",
            streaming_alloc.count,
            streaming.raw_lookups()
        );
        if measured_apl > budget {
            fail(&format!(
                "allocation regression: streaming simulate stage spent {measured_apl:.4} \
                 allocs per raw lookup, above budget {budget:.4} \
                 (4x committed {committed_apl:.4}, floor 0.5)"
            ));
        }
    } else {
        eprintln!(
            "perf_smoke: streaming allocs/raw lookup {measured_apl:.4} \
             (no committed figure in baseline; alloc-budget gate skipped)"
        );
    }

    // Journal-encode gate: the observed stream as 4096-record journal
    // payloads through `serde_json::to_writer` into a reused buffer. The
    // throughput floor is relative to the committed figure; the allocation
    // ceiling is absolute, because the count repeats exactly: a handful of
    // buffer growths per pass, where a per-value tree costs several
    // allocations per record.
    const JOURNAL_ALLOCS_PER_RECORD_CEILING: f64 = 0.05;
    let journal = JournalEncodeBench::measure(streaming.observed(), 5);
    let journal_floor = baseline.journal_encode.mb_per_sec * min_ratio;
    eprintln!(
        "perf_smoke: journal encode {:.0} MB/s ({} bytes, {} records in {:.4}s) vs floor \
         {journal_floor:.0} ({}% of baseline {:.0}); {:.5} allocs/record \
         (ceiling {JOURNAL_ALLOCS_PER_RECORD_CEILING})",
        journal.mb_per_sec,
        journal.bytes,
        journal.records,
        journal.secs,
        (min_ratio * 100.0) as u64,
        baseline.journal_encode.mb_per_sec,
        journal.allocs_per_record
    );
    if journal.mb_per_sec < journal_floor {
        fail(&format!(
            "journal-encode regression: {:.0} MB/s is below {journal_floor:.0} \
             ({}% of committed baseline {:.0})",
            journal.mb_per_sec,
            (min_ratio * 100.0) as u64,
            baseline.journal_encode.mb_per_sec
        ));
    }
    if journal.allocs_per_record > JOURNAL_ALLOCS_PER_RECORD_CEILING {
        fail(&format!(
            "journal-encode allocation regression: {:.5} allocations per journaled record, \
             above the {JOURNAL_ALLOCS_PER_RECORD_CEILING} ceiling — the encoder is \
             allocating per value",
            journal.allocs_per_record
        ));
    }

    // Decode gates: the same stream read back with `trace::read_jsonl` (the
    // input path of `estimate` and `botmeterd`) and, as 4096-record
    // payloads, with `serde_json::from_slice` (journal replay). Throughput
    // floors are relative to the committed figures; the allocation ceiling
    // is absolute, because the count repeats exactly: one per record, the
    // decoded name's own text, where a tree per line costs seven.
    const DECODE_ALLOCS_PER_RECORD_CEILING: f64 = 1.05;
    for (what, measured, committed) in [
        (
            "trace decode",
            DecodeBench::trace(streaming.observed(), 5),
            &baseline.trace_decode,
        ),
        (
            "journal decode",
            DecodeBench::journal(streaming.observed(), 5),
            &baseline.journal_decode,
        ),
    ] {
        let floor = committed.mb_per_sec * min_ratio;
        eprintln!(
            "perf_smoke: {what} {:.0} MB/s ({} bytes, {} records in {:.4}s) vs floor \
             {floor:.0} ({}% of baseline {:.0}); {:.5} allocs/record \
             (ceiling {DECODE_ALLOCS_PER_RECORD_CEILING})",
            measured.mb_per_sec,
            measured.bytes,
            measured.records,
            measured.secs,
            (min_ratio * 100.0) as u64,
            committed.mb_per_sec,
            measured.allocs_per_record
        );
        if measured.mb_per_sec < floor {
            fail(&format!(
                "{what} regression: {:.0} MB/s is below {floor:.0} \
                 ({}% of committed baseline {:.0})",
                measured.mb_per_sec,
                (min_ratio * 100.0) as u64,
                committed.mb_per_sec
            ));
        }
        if measured.allocs_per_record > DECODE_ALLOCS_PER_RECORD_CEILING {
            fail(&format!(
                "{what} allocation regression: {:.5} allocations per decoded record, above \
                 the {DECODE_ALLOCS_PER_RECORD_CEILING} ceiling — something between the \
                 text and the record is built per line again",
                measured.allocs_per_record
            ));
        }
    }

    // Pool-build gate: a 20-epoch newGoZ matcher built and dropped, as
    // `estimate` and every `botmeterd` open do. The throughput floor is
    // relative to the committed figure; the allocation ceiling is absolute,
    // because the count repeats exactly: a handful of allocations per
    // epoch's batch, where a name that owns its text costs two per name
    // (and as many frees, which is where the time went).
    const POOL_ALLOCS_PER_NAME_CEILING: f64 = 0.01;
    let pool = PoolBuildBench::measure(5);
    let pool_floor = baseline.pool_build.names_per_sec * min_ratio;
    eprintln!(
        "perf_smoke: pool build+drop {:.0} names/s ({} names in {:.4}s) vs floor \
         {pool_floor:.0} ({}% of baseline {:.0}); {:.5} allocs/name \
         (ceiling {POOL_ALLOCS_PER_NAME_CEILING})",
        pool.names_per_sec,
        pool.names,
        pool.secs,
        (min_ratio * 100.0) as u64,
        baseline.pool_build.names_per_sec,
        pool.allocs_per_name
    );
    if pool.names_per_sec < pool_floor {
        fail(&format!(
            "pool-build regression: {:.0} names/s is below {pool_floor:.0} \
             ({}% of committed baseline {:.0})",
            pool.names_per_sec,
            (min_ratio * 100.0) as u64,
            baseline.pool_build.names_per_sec
        ));
    }
    if pool.allocs_per_name > POOL_ALLOCS_PER_NAME_CEILING {
        fail(&format!(
            "pool-build allocation regression: {:.5} allocations per pooled name, above \
             the {POOL_ALLOCS_PER_NAME_CEILING} ceiling — generated names are heap \
             objects again",
            pool.allocs_per_name
        ));
    }

    // One-pool-per-epoch gate: a whole 20-epoch newGoZ chart, matcher to
    // landscape. The count repeats exactly, so its ceiling is absolute:
    // every pool the estimators index is one the matcher built.
    let chart_pools = ChartPoolsBench::measure(5);
    let chart_pools_ceiling = baseline.chart_pools.secs / min_ratio;
    eprintln!(
        "perf_smoke: {}-epoch chart generated {} pools in {:.4}s ({} cells) vs ceiling \
         {chart_pools_ceiling:.4}s (committed {:.4}s at {}%)",
        chart_pools.epochs,
        chart_pools.pools_built,
        chart_pools.secs,
        chart_pools.cells,
        baseline.chart_pools.secs,
        (min_ratio * 100.0) as u64
    );
    if chart_pools.pools_built != chart_pools.epochs {
        fail(&format!(
            "pool-sharing regression: a {}-epoch chart generated {} pools — more, and the \
             matcher and the estimators generate their own again; fewer, and the \
             `chart.pools_built` counter is gone",
            chart_pools.epochs, chart_pools.pools_built
        ));
    }
    if chart_pools.secs > chart_pools_ceiling {
        fail(&format!(
            "chart-pools regression: {:.4}s is above {chart_pools_ceiling:.4}s \
             (committed {:.4}s at {}%)",
            chart_pools.secs,
            baseline.chart_pools.secs,
            (min_ratio * 100.0) as u64
        ));
    }

    // Sketch residency smoke: fold the same observed traffic through the
    // constant-memory telemetry frontend and hold its deterministic
    // `sketch.peak_resident_bytes` accounting to the `cells × budget`
    // ceiling — O(servers × width), whatever the traffic volume.
    {
        use botmeter_matcher::SketchStream;
        use botmeter_obs::Obs;
        use botmeter_sketch::SketchConfig;

        let meter = BotMeter::new(BotMeterConfig::new(streaming.family().clone()));
        let config = SketchConfig::new(streaming.family().epoch_len())
            .expect("family epoch length is non-zero");
        let matcher = meter.matcher_for(0..epochs);
        let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
        frontend.ingest(streaming.observed());
        let (sketch, _) = frontend.finish();
        let ceiling = sketch.cell_count() as u64 * config.cell_budget_bytes();
        eprintln!(
            "perf_smoke: sketch peak residency {} bytes over {} matched lookups \
             ({} cells, ceiling {} bytes)",
            sketch.peak_resident_bytes(),
            sketch.total(),
            sketch.cell_count(),
            ceiling
        );
        if sketch.peak_resident_bytes() > ceiling {
            fail(&format!(
                "sketch frontend lost its memory bound: peak {} bytes exceeds \
                 cells × cell_budget ceiling {}",
                sketch.peak_resident_bytes(),
                ceiling
            ));
        }
    }

    // Multicore scaling gate: streaming N-thread vs 1-thread throughput.
    // The floor adapts to the machine running the gate — a baseline ratio
    // measured on 8 cores must not fail a 1- or 2-core CI worker — but on
    // hardware comparable to the baseline's it holds the committed ratio
    // (scaled by --min-ratio), so a multicore regression of the sharded
    // producer can't land silently.
    let cores_now = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let committed_ratio = baseline.scaling.as_ref().map(|s| s.ratio);
    let scaling_floor = committed_ratio
        .map(|r| r * min_ratio)
        .unwrap_or(f64::INFINITY)
        .min(0.5 * cores_now as f64)
        .max(0.5);
    let mut best_single = 0.0f64;
    let mut best_multi = 0.0f64;
    for _ in 0..runs {
        let started = Instant::now();
        let single = spec().run(ExecPolicy::Sequential);
        let single_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let multi = spec().run(ExecPolicy::parallel());
        let multi_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            single.raw_lookups(),
            multi.raw_lookups(),
            "streaming runs must agree across policies"
        );
        best_single = best_single.max(single.raw_lookups() as f64 / single_secs.max(1e-9));
        best_multi = best_multi.max(multi.raw_lookups() as f64 / multi_secs.max(1e-9));
    }
    let scaling_ratio = best_multi / best_single.max(1e-9);
    eprintln!(
        "perf_smoke: streaming scaling {scaling_ratio:.2}x \
         ({best_multi:.0} multi vs {best_single:.0} single lookups/sec) \
         vs floor {scaling_floor:.2} on {cores_now} core(s), committed ratio {}",
        committed_ratio.map_or_else(|| "absent".to_owned(), |r| format!("{r:.2}"))
    );
    if scaling_ratio < scaling_floor {
        fail(&format!(
            "multicore scaling regression: streaming N-thread/1-thread ratio \
             {scaling_ratio:.2} is below floor {scaling_floor:.2} on {cores_now} core(s)"
        ));
    }

    // Thin-shard gate: 300 bots × 4 epochs over the default 16 shards per
    // epoch leaves each shard a few thousand records, the shape where
    // per-shard overhead on the consumer (a pool opened per call, cache
    // state copied per worker) once made the default policy ~3× slower
    // than one thread. The fat-shard ratio above cannot see that; this
    // does, and it needs no baseline: with nothing but shard production
    // fanned out, the pool policy costs at most the hand-off.
    let best_secs = |policy: ExecPolicy| {
        (0..3)
            .map(|_| {
                let started = Instant::now();
                let _ = spec_of(300, 4).run(policy);
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let thin_single = best_secs(ExecPolicy::Sequential);
    let thin_pool = best_secs(ExecPolicy::parallel());
    const THIN_SHARD_CEILING: f64 = 1.25;
    eprintln!(
        "perf_smoke: thin shards: pool policy {thin_pool:.3}s vs 1 thread {thin_single:.3}s \
         ({:.2}x, ceiling {THIN_SHARD_CEILING:.2}x)",
        thin_pool / thin_single.max(1e-9)
    );
    if thin_pool > THIN_SHARD_CEILING * thin_single {
        fail(&format!(
            "thin-shard regression: the pool policy took {thin_pool:.3}s, more than \
             {THIN_SHARD_CEILING:.2}x the 1-thread {thin_single:.3}s"
        ));
    }

    // Timing gate: `MT` over one Conficker.C cell of 250 bots — a few
    // hundred entries opened, a handful live at once. The scan that
    // visited every entry per lookup measured ~35x below the committed
    // figure. One call takes ~10 ms, so best-of-five is free.
    let committed_timing = read_baseline::<EstimatorBaseline>(
        &Path::new(&baseline_path).with_file_name("BENCH_estimator.json"),
    )
    .timing;
    let timing = TimingBench::measure(5);
    let timing_floor = committed_timing.lookups_per_sec * min_ratio;
    eprintln!(
        "perf_smoke: Timing model {:.0} lookups/sec ({} lookups, {} entries in {:.4}s) \
         vs floor {timing_floor:.0} ({}% of baseline {:.0})",
        timing.lookups_per_sec,
        timing.cell_lookups,
        timing.entries,
        timing.secs,
        (min_ratio * 100.0) as u64,
        committed_timing.lookups_per_sec
    );
    if timing.lookups_per_sec < timing_floor {
        fail(&format!(
            "Timing-model regression: {:.0} lookups/sec is below {timing_floor:.0} \
             ({}% of committed baseline {:.0})",
            timing.lookups_per_sec,
            (min_ratio * 100.0) as u64,
            committed_timing.lookups_per_sec
        ));
    }

    // Fixpoint gate: one b-segment at eight successive densities through
    // one kernel cache. Needs no baseline — a ratio of two timings of the
    // same run. A kernel that rebuilds the shape's rows per density sits
    // near 1.0; the committed `fixpoint` block records what this one does.
    const FIXPOINT_CEILING: f64 = 0.25;
    let fixpoint = FixpointBench::measure(5);
    eprintln!(
        "perf_smoke: Theorem-1 kernel, b-segment {}/θq {}: first density {:.5}s, later \
         densities {:.5}s each ({:.3} of the first, ceiling {:.2})",
        fixpoint.len,
        fixpoint.theta_q,
        fixpoint.first_secs,
        fixpoint.later_mean_secs,
        fixpoint.later_over_first,
        FIXPOINT_CEILING
    );
    if fixpoint.later_over_first > FIXPOINT_CEILING {
        fail(&format!(
            "fixpoint regression: a later density costs {:.3} of the first, above the \
             {:.2} ceiling — the kernel is re-deriving ρ-free rows per round",
            fixpoint.later_over_first, FIXPOINT_CEILING
        ));
    }

    eprintln!(
        "perf_smoke: best {:.0} lookups/sec vs floor {:.0} ({}% of baseline {:.0})",
        best_rate,
        floor,
        (min_ratio * 100.0) as u64,
        baseline_rate
    );
    if best_rate < floor {
        fail(&format!(
            "throughput regression: best {best_rate:.0} lookups/sec is below {floor:.0} \
             ({}% of committed baseline {baseline_rate:.0})",
            (min_ratio * 100.0) as u64
        ));
    }
    eprintln!(
        "perf_smoke: best {:.0} chart lookups/sec vs floor {:.0} ({}% of baseline {:.0})",
        best_chart_rate,
        chart_floor,
        (min_ratio * 100.0) as u64,
        chart_baseline_rate
    );
    if best_chart_rate < chart_floor {
        fail(&format!(
            "charting regression: best {best_chart_rate:.0} chart lookups/sec is below \
             {chart_floor:.0} ({}% of committed baseline {chart_baseline_rate:.0})",
            (min_ratio * 100.0) as u64
        ));
    }
    println!("perf_smoke: OK");
}

/// Reads one committed `BENCH_*.json` baseline (extra keys are ignored).
fn read_baseline<T: serde::de::DeserializeOwned>(path: &Path) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read baseline {}: {e}", path.display())));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("baseline {} is not usable: {e}", path.display())))
}

fn fail(message: &str) -> ! {
    eprintln!("perf_smoke: FAIL: {message}");
    std::process::exit(1);
}

fn usage(message: &str) -> ! {
    eprintln!("perf_smoke: {message}");
    eprintln!(
        "usage: perf_smoke [--baseline PATH] [--population N] [--epochs E] [--seed S] \
         [--min-ratio R] [--runs K]"
    );
    std::process::exit(2);
}
