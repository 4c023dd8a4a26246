//! The per-layer ledger of a traced run.
//!
//! Each layer is measured from outside: its public functions are called
//! alone, on the workload's own inputs, inside a `probe.*` span, and the
//! counts are taken at the same boundary. What the isolated calls do not
//! cover is the job's residual, which is named (`exec.residual_s`), not
//! dropped. Disk times are this sandbox's, not a device's.

use crate::spec::Metrics;
use crate::trace::{median, quantile, ratio, Tracer};
use crate::workloads::{
    meter, same_bits, Batch, ChartHeavy, Check, DaemonIngest, DaemonStream, EnterpriseTrace,
    Output, CHECKPOINT_EVERY, SHARD_RECORDS,
};
use botmeter_core::{BotMeter, ChartRequest, Segment, SegmentKernelCache, SegmentKind};
use botmeter_daemon::checkpoint::encode_checkpoint;
use botmeter_daemon::wal::{self, WAL_FILE};
use botmeter_daemon::{BotMeterDaemon, CheckpointManager, DiskStorage, Storage, Wal};
use botmeter_dga::DgaFamily;
use botmeter_dns::{
    ClientId, CompactLookup, CompactTopology, DomainInterner, ObservedLookup, ServerId,
    SimDuration, SimInstant, TtlPolicy,
};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultModel, FaultPlan};
use botmeter_matcher::{match_stream, SketchStream};
use botmeter_obs::{HistogramSnapshot, MetricsSnapshot};
use botmeter_sim::simulate_activation;
use botmeter_sketch::SketchConfig;
use botmeter_stats::SharedStirling;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// The repetition number probe spans carry, apart from any job's.
pub const PROBE_REP: usize = usize::MAX;

/// What a workload's `layers` fills in.
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub policy: ExecPolicy,
    pub metrics: &'a mut Metrics,
    /// Repetitions the traced job ran; their spans are in `tracer`.
    pub reps: Range<usize>,
    /// The last traced repetition: its output and the program's counters.
    pub job: &'a Output,
    pub job_counters: MetricsSnapshot,
    /// Isolated time per layer, for the shares the run prints.
    pub ledger: Vec<(&'static str, f64)>,
    /// Answers the probes checked beside the job's own.
    pub checks: Vec<Check>,
}

impl Probe<'_> {
    /// Runs `f` in a `probe.<name>` span and returns its seconds.
    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let value = self.tracer.span(&format!("probe.{name}"), f);
        (value, started.elapsed().as_secs_f64())
    }

    /// Median over the traced repetitions of the time in spans `name`.
    fn job_span_s(&self, name: &str) -> f64 {
        let per_rep: Vec<f64> = self
            .reps
            .clone()
            .map(|rep| self.tracer.total(name, rep))
            .collect();
        median(&per_rep)
    }

    fn counter(&self, name: &str) -> f64 {
        self.job_counters.counter(name).unwrap_or(0) as f64
    }
}

fn histogram_quantile_ms(histogram: Option<&HistogramSnapshot>, q: f64) -> f64 {
    let Some(histogram) = histogram else {
        return 0.0;
    };
    let rank = (q * histogram.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for bucket in &histogram.buckets {
        seen += bucket.count;
        if seen >= rank {
            // Power-of-two buckets: the bound is within 2x of the sample.
            return bucket.le_ns.min(histogram.max_ns) as f64 * 1e-6;
        }
    }
    histogram.max_ns as f64 * 1e-6
}

/// `dga` alone: the family's pools over the charted epochs.
fn pools(probe: &mut Probe<'_>, family: &DgaFamily, epochs: Range<u64>) {
    let (domains, pool_s) = probe.timed("dga.pool", || {
        epochs
            .map(|epoch| family.pool_for_epoch(epoch).len())
            .sum::<usize>()
    });
    probe.metrics.add("dga.pool_s", pool_s);
    probe.metrics.add("dga.pool_domains", domains as f64);
}

/// `matcher` + `core` alone on one family's observed trace, for jobs whose
/// match and chart stages run inside the program: matcher build, stream
/// scan, chart of the matched traffic, each called by itself.
fn chart_isolated(
    probe: &mut Probe<'_>,
    meter: &BotMeter,
    observed: &[ObservedLookup],
    epochs: Range<u64>,
    in_ledger: bool,
) {
    pools(probe, meter.config().family(), epochs.clone());
    let (matcher, build_s) = probe.timed("matcher.build", || meter.matcher_for(epochs.clone()));
    let (matched, scan_s) = probe.timed("matcher.scan", || {
        match_stream(observed, &matcher, probe.policy)
    });
    let (landscape, chart_s) = probe.timed("core.chart", || {
        meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(epochs)
                .policy(probe.policy),
        )
    });
    black_box(landscape);
    let m = &mut *probe.metrics;
    m.set("matcher.build_s", build_s);
    m.set("matcher.scan_s", scan_s);
    m.set("matcher.probes", matched.total_scanned() as f64);
    m.set("matcher.matches", matched.total_matched() as f64);
    m.set("core.chart_s", chart_s);
    if in_ledger {
        // The matcher build generates the pools itself: `dga.pool_s` is
        // inside `matcher.build_s`, not a ledger entry of its own.
        probe.ledger.push(("matcher", build_s + scan_s));
        probe.ledger.push(("core", chart_s));
    }
    let counters = probe.tracer.snapshot();
    chart_counters(probe, &counters);
}

/// `matcher` + `core` for jobs that call the stages themselves: the job's
/// own child spans are the measurement, and what the job spends outside
/// them (freeing the trace, matchers and matched traffic) is `teardown`.
fn chart_from_job(probe: &mut Probe<'_>) {
    let (build_s, scan_s, chart_s, job_s) = (
        probe.job_span_s("matcher.build"),
        probe.job_span_s("matcher.scan"),
        probe.job_span_s("core.chart"),
        probe.job_span_s("job"),
    );
    let decode_s = probe.job_span_s("dns.trace_decode");
    let (probes, matches) = probe.job.scanned;
    let m = &mut *probe.metrics;
    m.set("matcher.build_s", build_s);
    m.set("matcher.scan_s", scan_s);
    m.set("matcher.probes", probes as f64);
    m.set("matcher.matches", matches as f64);
    m.set("core.chart_s", chart_s);
    probe.ledger.push(("matcher", build_s + scan_s));
    probe.ledger.push(("core", chart_s));
    probe
        .ledger
        .push(("teardown", job_s - decode_s - build_s - scan_s - chart_s));
    let counters = probe.job_counters.clone();
    chart_counters(probe, &counters);
}

/// Ratios and the program's `chart.*` counters.
fn chart_counters(probe: &mut Probe<'_>, counters: &MetricsSnapshot) {
    let counter = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (
        counter("chart.kernel.memo_hits"),
        counter("chart.kernel.memo_misses"),
    );
    let estimate = counters.histogram("chart.estimate_ns");
    let m = &mut *probe.metrics;
    m.set(
        "matcher.hit_ratio",
        ratio(m.get("matcher.matches"), m.get("matcher.probes")),
    );
    m.set("core.cells", counter("chart.cells"));
    m.set(
        "core.segments_scheduled",
        counter("chart.segments.scheduled"),
    );
    m.set("core.kernel_memo_hits", hits);
    m.set("core.kernel_memo_misses", misses);
    m.set("core.kernel_hit_ratio", ratio(hits, hits + misses));
    m.set("core.estimate_ms_p50", histogram_quantile_ms(estimate, 0.5));
    m.set("core.estimate_ms_p90", histogram_quantile_ms(estimate, 0.9));
}

/// The 64-query segment-kernel sweep of `BENCH_estimator.json`: every
/// query through a fresh memo cache (cold), then again (warm).
pub fn kernel(probe: &mut Probe<'_>) {
    let theta_q = 500usize;
    let mut queries = Vec::new();
    for k in 0..8 {
        let rho = 1e-3 * 1.4f64.powi(k);
        for len in [800usize, 1200, 1600, 2000, 2400, 2800] {
            queries.push((SegmentKind::Boundary, len, rho));
        }
        for len in [500usize, 510] {
            queries.push((SegmentKind::Middle, len, rho));
        }
    }
    let tables = SharedStirling::new();
    let sweep = |cache: &SegmentKernelCache| {
        for &(kind, len, rho) in &queries {
            let segment = Segment {
                start: 0,
                len,
                kind,
            };
            black_box(cache.expected_bots(&segment, theta_q, rho, &tables));
        }
    };
    // Untimed pass: fills the shared Stirling and binomial tables.
    sweep(&SegmentKernelCache::default());
    let cache = SegmentKernelCache::default();
    let (_, cold_s) = probe.timed("core.kernel_cold", || sweep(&cache));
    let (_, warm_s) = probe.timed("core.kernel_warm", || sweep(&cache));
    probe.metrics.set("core.kernel_cold_s", cold_s);
    probe.metrics.set("core.kernel_warm_s", warm_s);
}

/// `sim` replay and `dns` filter alone: the same number of bots per epoch
/// replayed through `simulate_activation`, then the sorted compact trace
/// filtered through `CompactTopology` in the pipeline's shard-sized calls.
fn replay_and_filter(batch: &Batch, probe: &mut Probe<'_>) {
    let family = batch.family();
    let (bots, epochs) = batch.size;
    let epoch_len = family.epoch_len();
    let mut rng = ChaCha12Rng::seed_from_u64(batch.seed);
    let mut interner = DomainInterner::new();
    let mut raw: Vec<CompactLookup> = Vec::new();
    // One span around the loop; `sim.replay_s` sums the replay calls alone,
    // without the interning and compaction between them.
    let mut replay_s = 0.0;
    probe.tracer.span("probe.sim.replay", || {
        for epoch in 0..epochs {
            let pool = family.pool_for_epoch(epoch);
            for domain in &pool {
                interner.intern(domain.clone());
            }
            let valid: HashSet<usize> = family.valid_indices(epoch).into_iter().collect();
            let epoch_start = SimInstant::ZERO + epoch_len * epoch;
            for bot in 0..bots {
                let start =
                    epoch_start + SimDuration::from_millis(rng.gen_range(0..epoch_len.as_millis()));
                let client = ClientId((epoch as u32) << 20 | bot as u32);
                let mut bot_rng = ChaCha12Rng::seed_from_u64(rng.gen());
                let started = Instant::now();
                let lookups =
                    simulate_activation(&family, epoch, &pool, &valid, start, client, &mut bot_rng);
                replay_s += started.elapsed().as_secs_f64();
                raw.extend(lookups.iter().map(|lookup| lookup.compact()));
            }
        }
    });
    raw.sort_by_key(|lookup| (lookup.t, lookup.client));

    let authority = family.authority_for_epochs(epochs + 1);
    let mut topology = CompactTopology::single_local(TtlPolicy::paper_default());
    // The pipeline filters one time shard per call: an epoch in 16 slices.
    let shard_ms = (epoch_len.as_millis() / 16).max(1);
    let mut admitted = Vec::new();
    let (_, filter_s) = probe.timed("dns.filter", || {
        for shard in raw.chunk_by(|a, b| a.t.as_millis() / shard_ms == b.t.as_millis() / shard_ms) {
            topology
                .process_trace_into(shard, &interner, &authority, probe.policy, &mut admitted)
                .expect("single-local topology routes every client");
        }
    });
    let m = &mut *probe.metrics;
    m.set("sim.replay_s", replay_s);
    m.set("dns.filter_s", filter_s);
    m.set("dns.filter_in", raw.len() as f64);
    m.set("dns.filter_out", admitted.len() as f64);
    m.set(
        "dns.cache_hit_ratio",
        topology.cache_stats(ServerId(1)).hit_rate(),
    );
    probe.ledger.push(("sim", replay_s));
    probe.ledger.push(("dns", filter_s));
}

/// The fused fault consumer and the sketch frontend over the observed
/// trace. Neither is on a workload's path today; recorded as baselines.
fn faults_and_sketch(
    family: &DgaFamily,
    observed: &[ObservedLookup],
    epochs: u64,
    seed: u64,
    probe: &mut Probe<'_>,
) {
    let plan = FaultPlan::new(seed)
        .with(FaultModel::Drop { rate: 0.02 })
        .with(FaultModel::Duplicate { rate: 0.01 })
        .with(FaultModel::Reorder {
            rate: 0.01,
            max_displacement: 8,
        })
        .with(FaultModel::Jitter {
            max: SimDuration::from_millis(200),
        });
    let chunks: Vec<Vec<ObservedLookup>> =
        observed.chunks(SHARD_RECORDS).map(<[_]>::to_vec).collect();
    let (report, push_s) = probe.timed("faults.push", || {
        let mut stream = plan.stream::<ObservedLookup>();
        for chunk in chunks {
            black_box(stream.push(chunk));
        }
        stream.finish().1
    });
    probe.metrics.set("faults.push_s", push_s);
    probe.metrics.set("faults.records_in", report.input as f64);
    probe
        .metrics
        .set("faults.records_out", report.output as f64);

    let matcher = meter(family, &Tracer::off()).matcher_for(0..epochs);
    let config = SketchConfig::new(family.epoch_len()).expect("epochs have a length");
    let (sketch, ingest_s) = probe.timed("sketch.ingest", || {
        let mut frontend = SketchStream::new(&matcher, config, botmeter_obs::Obs::noop());
        for chunk in observed.chunks(SHARD_RECORDS) {
            frontend.ingest(chunk);
        }
        frontend.finish().0
    });
    probe.metrics.set("sketch.ingest_s", ingest_s);
    probe.metrics.set(
        "sketch.peak_resident_bytes",
        sketch.peak_resident_bytes() as f64,
    );
}

pub fn batch(batch: &Batch, probe: &mut Probe<'_>) {
    let pipeline_s = probe.job_span_s("sim.pipeline");
    probe.metrics.set("sim.pipeline_s", pipeline_s);
    for (metric, counter) in [
        ("sim.raw_lookups", "sim.raw_lookups"),
        ("sim.observed_lookups", "sim.observed_lookups"),
        ("sim.shards", "sim.stream.shards"),
        (
            "sim.peak_resident_records",
            "sim.stream.peak_resident_records",
        ),
        (
            "exec.backpressure_stalls",
            "sched.stream.backpressure_stalls",
        ),
        ("exec.queue_high_water", "sched.stream.queue_high_water"),
        ("exec.pool_misses", "sched.pool.fresh_allocs"),
    ] {
        let value = probe.counter(counter);
        probe.metrics.set(metric, value);
    }
    replay_and_filter(batch, probe);
    let (_, epochs) = batch.size;
    let family = batch.family();
    let outcome = batch.spec(&Tracer::off()).run(probe.policy);
    chart_isolated(
        probe,
        &meter(&family, probe.tracer),
        outcome.observed(),
        0..epochs,
        true,
    );
    // The pipeline's planning stage generates each epoch's pool too, apart
    // from the matcher build: that copy is `dga`'s share of the job.
    probe.ledger.push(("dga", probe.metrics.get("dga.pool_s")));
    if batch.baseline_probes {
        faults_and_sketch(&family, outcome.observed(), epochs, batch.seed, probe);
    }
}

pub fn chart_heavy(workload: &ChartHeavy, probe: &mut Probe<'_>) {
    pools(probe, &workload.input.family, 0..workload.input.epochs);
    chart_from_job(probe);
}

pub fn enterprise(trace: &EnterpriseTrace, probe: &mut Probe<'_>) {
    let decode_s = probe.job_span_s("dns.trace_decode");
    probe.metrics.set("dns.trace_decode_s", decode_s);
    probe
        .metrics
        .set("dns.trace_bytes", trace.encoded.len() as f64);
    probe
        .metrics
        .set("dns.trace_records", trace.written.len() as f64);
    probe.ledger.push(("dns", decode_s));
    for family in &trace.families {
        pools(probe, family, 0..trace.days);
    }
    chart_from_job(probe);
}

pub fn daemon_ingest(workload: &DaemonIngest, probe: &mut Probe<'_>) {
    let stream = &workload.stream;
    let records = stream.input.observed.len() as f64;

    // From the traced job: per-call latencies and the durability counters.
    let mut calls = Vec::new();
    let mut publishing = Vec::new();
    for rep in probe.reps.clone() {
        let published = probe.tracer.durations("daemon.ingest_publish", rep);
        calls.extend(probe.tracer.durations("daemon.ingest", rep));
        calls.extend(&published);
        publishing.extend(published);
    }
    let ms = |values: &[f64], q| quantile(values, q) * 1e3;
    let (appends, checkpoints) = (probe.counter("wal.appends"), probe.counter("ckpt.saves"));
    let job_s = probe.job_span_s("job");
    let m = &mut *probe.metrics;
    m.set("daemon.ingest_records_per_s", ratio(records, job_s));
    m.set("daemon.ingest_call_ms_p50", ms(&calls, 0.5));
    m.set("daemon.ingest_call_ms_p99", ms(&calls, 0.99));
    m.set("daemon.publish_ms_p50", ms(&publishing, 0.5));
    m.set("daemon.publish_ms_p90", ms(&publishing, 0.9));
    m.set("daemon.wal_appends", appends);
    m.set("daemon.checkpoints", checkpoints);

    // The engine alone (no storage), with a checkpoint encoded and saved
    // on the daemon's cadence; only the named calls are timed.
    let dir = stream.scratch.join("probe-ingest");
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = DiskStorage::open(&dir).expect("scratch directory is writable");
    let mut engine = BotMeterDaemon::new(
        meter(&stream.input.family, &Tracer::off()),
        stream.options(probe.policy, &Tracer::off()),
    )
    .expect("daemon options are valid");
    let (mut engine_s, mut capture_s, mut encode_s, mut save_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut cells_at_publish, mut ckpt_bytes) = (0usize, 0usize);
    // Where the daemon rotates its journal: after each checkpoint, down to
    // the oldest generation `save` retained.
    let mut rotations: Vec<(u64, u64)> = Vec::new();
    for (seq, shard) in stream.shards().enumerate() {
        let (published, s) = probe.timed("daemon.engine_ingest", || engine.ingest(shard));
        engine_s += s;
        if published.is_some() {
            cells_at_publish += engine.cell_count();
        }
        if (seq as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let (state, s) = probe.timed("daemon.ckpt_capture", || {
                engine.checkpoint_state(seq as u64 + 1)
            });
            capture_s += s;
            let (bytes, s) = probe.timed("daemon.ckpt_encode", || encode_checkpoint(&state));
            encode_s += s;
            ckpt_bytes = bytes.expect("engine state serializes").len();
            let (saved, s) = probe.timed("daemon.ckpt_save", || {
                CheckpointManager::save(&mut storage, &state)
            });
            let oldest_retained = saved.expect("scratch storage accepts a checkpoint");
            rotations.push((seq as u64 + 1, oldest_retained));
            save_s += s;
        }
    }
    let stats = engine.stats();
    let m = &mut *probe.metrics;
    m.set("daemon.engine_ingest_s", engine_s);
    m.set("daemon.publishes", stats.publishes as f64);
    m.set("daemon.cells_reestimated", stats.cells_reestimated as f64);
    m.set(
        "daemon.dirty_cell_ratio",
        ratio(stats.cells_reestimated as f64, cells_at_publish as f64),
    );
    m.set("daemon.ckpt_encode_s", capture_s + encode_s);
    // `save` encodes the state itself before its atomic write.
    m.set("daemon.ckpt_save_s", save_s);
    m.set("daemon.ckpt_bytes", ckpt_bytes as f64);

    // The journal alone: frame encoding, fsync'd appends, and the rotation
    // that follows each checkpoint (load, decode, rewrite the tail).
    let mut journal = Wal::create(storage).expect("scratch storage accepts a journal");
    let (mut payload_s, mut frame_s, mut append_s, mut rotate_s) = (0.0, 0.0, 0.0, 0.0);
    // Bytes journaled over the run; rotation keeps the file itself short.
    let mut wal_bytes = 0.0;
    for (seq, shard) in stream.shards().enumerate() {
        let (payload, s) = probe.timed("daemon.wal_payload", || {
            serde_json::to_string(&shard.to_vec()).expect("lookups serialize")
        });
        payload_s += s;
        let (frame, s) = probe.timed("daemon.wal_frame", || {
            wal::encode_frame(seq as u64 + 1, payload.as_bytes())
        });
        wal_bytes += frame.len() as f64;
        frame_s += s;
        let (appended, s) = probe.timed("daemon.wal_append", || {
            journal.append(seq as u64 + 1, payload.as_bytes())
        });
        appended.expect("scratch storage accepts an append");
        append_s += s;
        if let Some(&(_, oldest)) = rotations.iter().find(|&&(at, _)| at == seq as u64 + 1) {
            let (rotated, s) = probe.timed("daemon.wal_rotate", || {
                let contents = journal
                    .load()
                    .expect("the journal is readable")
                    .expect("the journal decodes");
                let keep: Vec<_> = contents
                    .frames
                    .into_iter()
                    .filter(|frame| frame.seq > oldest)
                    .collect();
                journal.rotate(oldest, &keep)
            });
            rotated.expect("scratch storage accepts a rotation");
            rotate_s += s;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let m = &mut *probe.metrics;
    m.set("daemon.wal_encode_s", payload_s + frame_s);
    // `append` frames the payload itself before its write and fsync.
    m.set("daemon.wal_append_s", append_s);
    m.set("daemon.wal_rotate_s", rotate_s);
    m.set("daemon.wal_bytes", wal_bytes);
    m.set("daemon.wal_bytes_per_record", ratio(wal_bytes, records));
    probe.ledger.push(("daemon.engine", engine_s));
    probe
        .ledger
        .push(("daemon.wal", payload_s + append_s + rotate_s));
    probe.ledger.push(("daemon.ckpt", capture_s + save_s));

    recovery(stream, probe);

    let input = &stream.input;
    chart_isolated(
        probe,
        &meter(&input.family, probe.tracer),
        &input.observed,
        0..input.epochs,
        false,
    );
}

/// The read side of the journal codec: a daemon that journaled the whole
/// stream dies without a checkpoint, `DurableDaemon::open` replays every
/// frame; then decode and replay each alone. Off the timed job's path, so
/// in no layer share.
fn recovery(stream: &DaemonStream, probe: &mut Probe<'_>) {
    let journal = stream.crash();
    let ((recovered, report), recovery_s) =
        probe.timed("daemon.recovery", || stream.recover(&journal, probe.policy));
    probe.checks.extend([
        Check {
            name: "recovered snapshot equals the uninterrupted run's",
            ok: same_bits(&recovered, &journal.uninterrupted),
        },
        Check {
            name: "recovered snapshot equals a batch chart of the full stream",
            ok: same_bits(&recovered, &stream.reference()),
        },
        Check {
            name: "every journaled record was replayed",
            ok: report.replayed_records == stream.input.observed.len() as u64,
        },
    ]);

    let mut storage = DiskStorage::open(&journal.dir).expect("the journal directory exists");
    let (shards, decode_s) = probe.timed("daemon.recovery_decode", || {
        let bytes = storage.read(WAL_FILE).expect("the journal is readable");
        let contents = wal::decode(&bytes).expect("the journal decodes");
        contents
            .frames
            .iter()
            .map(|frame| {
                serde_json::from_str::<Vec<ObservedLookup>>(&String::from_utf8_lossy(
                    &frame.payload,
                ))
                .expect("frame payloads are shards")
            })
            .collect::<Vec<_>>()
    });
    let (engine, replay_s) = probe.timed("daemon.recovery_replay", || {
        let mut engine = BotMeterDaemon::new(
            meter(&stream.input.family, &Tracer::off()),
            stream.options(probe.policy, &Tracer::off()),
        )
        .expect("daemon options are valid");
        for shard in &shards {
            engine.ingest(shard);
        }
        engine
    });
    black_box(engine);
    let _ = std::fs::remove_dir_all(&journal.dir);
    let m = &mut *probe.metrics;
    m.set("daemon.recovery_s", recovery_s);
    m.set("daemon.recovery_decode_s", decode_s);
    m.set("daemon.recovery_replay_s", replay_s);
    m.set("daemon.recovery_frames", shards.len() as f64);
    m.set(
        "daemon.recovery_records",
        shards.iter().map(Vec::len).sum::<usize>() as f64,
    );
}
