//! The five workloads: how each builds its inputs from the seed, the job it
//! times, and the answers the job must give.
//!
//! Every workload is a closed loop with one client: the next job starts
//! when the previous one has returned. A job calls only entry points the
//! README's API-discipline list names.

use crate::trace::Tracer;
use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest, Landscape};
use botmeter_daemon::{DaemonOptions, DiskStorage, DurabilityOptions, DurableDaemon};
use botmeter_dga::DgaFamily;
use botmeter_dns::{trace as jsonl, ObservedLookup, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::match_stream;
use botmeter_sim::{EnterpriseSpec, Infection, PipelineMode, ScenarioSpec, WaveConfig};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records `botmeterd` puts in one ingest shard by default.
pub const SHARD_RECORDS: usize = 4096;
/// `botmeterd`'s default checkpoint cadence, in shards.
pub const CHECKPOINT_EVERY: u64 = 16;

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 5] = [
    "batch_stream",
    "batch_thin",
    "chart_heavy",
    "enterprise_trace",
    "daemon_ingest",
];

/// Input sizes. `full` is what BENCHMARK.json's numbers are measured on;
/// `smoke` only shows that every path runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub stream: (u64, u64),
    pub thin: (u64, u64),
    pub heavy: (u64, u64),
    pub enterprise_days: u64,
    pub daemon: (u64, u64),
}

impl Sizes {
    /// `(bots, epochs)` per scenario, days for the enterprise trace. Every
    /// scenario draws at least 800 activations: their count is Poisson, so
    /// fewer would make a job's work differ by more than 5 % between seeds.
    pub fn full() -> Self {
        Sizes {
            stream: (3000, 2),
            thin: (300, 4),
            heavy: (250, 4),
            enterprise_days: 20,
            daemon: (80, 10),
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            stream: (60, 2),
            thin: (8, 3),
            heavy: (12, 2),
            enterprise_days: 2,
            daemon: (6, 3),
        }
    }
}

/// What one job produced, and how long its timed region took.
#[derive(Debug, Clone)]
pub struct Output {
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// The charted landscape of each family the job charts.
    pub landscapes: Vec<Landscape>,
    /// Records the job consumed: raw lookups where it simulates, observed
    /// lookups where it starts from a trace.
    pub records: u64,
    /// Most lookup records the job held at once, as the program counts it.
    pub peak_resident_records: u64,
    /// Journal appends or checkpoints the daemon gave up on.
    pub storage_failures: u64,
    /// Ground truth: active bots per landscape and epoch.
    pub truth: Vec<Vec<u64>>,
    /// Lookups the job's own matcher scans probed and matched, where the
    /// job runs them itself (0 where they happen inside the program).
    pub scanned: (u64, u64),
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
}

/// A workload with its inputs built.
pub trait Workload {
    /// Runs the job once under `policy`. `rep` names scratch space.
    fn job(&self, policy: ExecPolicy, rep: usize, tracer: &Tracer) -> Output;

    /// Checks beyond "default policy ≡ Sequential", on a finished job.
    fn checks(&self, out: &Output) -> Vec<Check>;

    /// Fills in the per-layer metrics this workload exercises.
    fn layers(&self, probe: &mut crate::layers::Probe<'_>);
}

/// Builds `name`'s inputs from `seed`. `scratch` is a directory this
/// process owns.
pub fn build(name: &str, seed: u64, sizes: &Sizes, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_stream" => Box::new(Batch::new(sizes.stream, seed, true)),
        "batch_thin" => Box::new(Batch::new(sizes.thin, seed, false)),
        "chart_heavy" => Box::new(ChartHeavy::new(sizes.heavy, seed)),
        "enterprise_trace" => Box::new(EnterpriseTrace::new(sizes.enterprise_days, seed)),
        "daemon_ingest" => Box::new(DaemonIngest::new(sizes.daemon, seed, scratch)),
        _ => return None,
    })
}

fn scenario(
    family: DgaFamily,
    (bots, epochs): (u64, u64),
    seed: u64,
    tracer: &Tracer,
) -> ScenarioSpec {
    ScenarioSpec::builder(family)
        .population(bots)
        .num_epochs(epochs)
        .seed(seed)
        .pipeline(PipelineMode::Streaming { shard: None })
        .obs(tracer.obs())
        .build()
        .expect("workload sizes are valid scenario parameters")
}

/// A meter with the program's default configuration for `family`.
pub fn meter(family: &DgaFamily, tracer: &Tracer) -> BotMeter {
    BotMeter::new(BotMeterConfig::new(family.clone())).with_obs(tracer.obs())
}

/// The `estimate` CLI's chart path with its stages visible: build the
/// matcher, scan the stream, chart the matched traffic.
fn chart_matched(
    meter: &BotMeter,
    observed: &[ObservedLookup],
    epochs: Range<u64>,
    policy: ExecPolicy,
    tracer: &Tracer,
) -> (Landscape, (u64, u64)) {
    let matcher = tracer.span("matcher.build", || meter.matcher_for(epochs.clone()));
    let matched = tracer.span("matcher.scan", || match_stream(observed, &matcher, policy));
    let landscape = tracer.span("core.chart", || {
        meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(epochs)
                .policy(policy),
        )
    });
    let scanned = (
        matched.total_scanned() as u64,
        matched.total_matched() as u64,
    );
    (landscape, scanned)
}

/// `batch_stream` and `batch_thin`: seed to landscape through the fused
/// streaming pipeline. Same code, fat or thin shards.
pub struct Batch {
    pub size: (u64, u64),
    pub seed: u64,
    /// Whether the fault and sketch baselines are probed on this workload.
    pub baseline_probes: bool,
}

impl Batch {
    fn new(size: (u64, u64), seed: u64, baseline_probes: bool) -> Self {
        Batch {
            size,
            seed,
            baseline_probes,
        }
    }

    pub fn family(&self) -> DgaFamily {
        DgaFamily::new_goz()
    }

    pub fn spec(&self, tracer: &Tracer) -> ScenarioSpec {
        scenario(self.family(), self.size, self.seed, tracer)
    }
}

impl Workload for Batch {
    fn job(&self, policy: ExecPolicy, _rep: usize, tracer: &Tracer) -> Output {
        let spec = self.spec(tracer);
        let meter = meter(spec.family(), tracer);
        let started = Instant::now();
        let (outcome, landscape) = tracer.span("job", || {
            let outcome = tracer.span("sim.pipeline", || spec.run(policy));
            let landscape = tracer.span("core.chart_observed", || {
                meter.chart_with(
                    &ChartRequest::new(outcome.observed())
                        .epochs(0..self.size.1)
                        .policy(policy),
                )
            });
            (outcome, landscape)
        });
        let wall_s = started.elapsed().as_secs_f64();
        Output {
            wall_s,
            landscapes: vec![landscape],
            records: outcome.raw_lookups(),
            peak_resident_records: outcome.peak_resident_records(),
            storage_failures: 0,
            truth: vec![outcome.ground_truth().to_vec()],
            scanned: (0, 0),
        }
    }

    fn checks(&self, _out: &Output) -> Vec<Check> {
        Vec::new()
    }

    fn layers(&self, probe: &mut crate::layers::Probe<'_>) {
        crate::layers::batch(self, probe);
    }
}

/// An observed trace simulated in set-up, with its ground truth.
pub struct Simulated {
    pub family: DgaFamily,
    pub epochs: u64,
    pub observed: Vec<ObservedLookup>,
    pub truth: Vec<Vec<u64>>,
}

impl Simulated {
    fn new(family: DgaFamily, size: (u64, u64), seed: u64) -> Self {
        let outcome =
            scenario(family.clone(), size, seed, &Tracer::off()).run(ExecPolicy::default());
        Simulated {
            family,
            epochs: size.1,
            observed: outcome.observed().to_vec(),
            truth: vec![outcome.ground_truth().to_vec()],
        }
    }
}

/// `chart_heavy`: conficker_c simulated in set-up; the job is match and
/// chart only, and most of it is `core`'s estimator on large cells.
pub struct ChartHeavy {
    pub input: Simulated,
}

impl ChartHeavy {
    fn new(size: (u64, u64), seed: u64) -> Self {
        ChartHeavy {
            input: Simulated::new(DgaFamily::conficker_c(), size, seed),
        }
    }
}

impl Workload for ChartHeavy {
    fn job(&self, policy: ExecPolicy, _rep: usize, tracer: &Tracer) -> Output {
        let input = &self.input;
        let meter = meter(&input.family, tracer);
        let started = Instant::now();
        let (landscape, scanned) = tracer.span("job", || {
            chart_matched(&meter, &input.observed, 0..input.epochs, policy, tracer)
        });
        Output {
            wall_s: started.elapsed().as_secs_f64(),
            landscapes: vec![landscape],
            records: input.observed.len() as u64,
            peak_resident_records: scanned.1,
            storage_failures: 0,
            truth: input.truth.clone(),
            scanned,
        }
    }

    fn checks(&self, _out: &Output) -> Vec<Check> {
        Vec::new()
    }

    fn layers(&self, probe: &mut crate::layers::Probe<'_>) {
        crate::layers::chart_heavy(self, probe);
    }
}

/// `enterprise_trace`: the `estimate` CLI's path over a mostly benign
/// JSON-Lines trace, charted for three families.
pub struct EnterpriseTrace {
    pub days: u64,
    pub families: Vec<DgaFamily>,
    pub ttl: TtlPolicy,
    pub granularity: SimDuration,
    pub written: Vec<ObservedLookup>,
    pub encoded: Vec<u8>,
    truth: Vec<Vec<u64>>,
}

impl EnterpriseTrace {
    fn new(days: u64, seed: u64) -> Self {
        // The paper-scale network with its three families, but endemic
        // infections (fresh bots every day, tightly spread, about 15 active
        // per family): the default waves give a 20-day trace one outbreak
        // or none, so its size would be the seed's luck, not the workload's.
        let wave = WaveConfig {
            outbreak_prob: 1.0,
            peak_median: 6.0,
            peak_sigma: 0.2,
            decay: 0.6,
            floor: 1.0,
        };
        let paper = EnterpriseSpec::paper_scale(seed);
        let infections = paper
            .infections()
            .iter()
            .map(|infection| Infection::new(infection.family.clone(), wave))
            .collect();
        let outcome = paper.with_infections(infections).with_days(days).run();
        let mut encoded = Vec::new();
        jsonl::write_jsonl(outcome.observed(), &mut encoded).expect("writing to memory");
        EnterpriseTrace {
            days,
            families: outcome.families().to_vec(),
            ttl: outcome.ttl(),
            granularity: outcome.granularity(),
            written: outcome.observed().to_vec(),
            encoded,
            truth: outcome.ground_truth().to_vec(),
        }
    }

    pub fn meter(&self, family: &DgaFamily, tracer: &Tracer) -> BotMeter {
        let config = BotMeterConfig::new(family.clone())
            .ttl(self.ttl)
            .granularity(self.granularity);
        BotMeter::new(config).with_obs(tracer.obs())
    }

    pub fn decode(&self) -> Vec<ObservedLookup> {
        jsonl::read_jsonl(&self.encoded[..]).expect("the trace was written by write_jsonl")
    }
}

impl Workload for EnterpriseTrace {
    fn job(&self, policy: ExecPolicy, _rep: usize, tracer: &Tracer) -> Output {
        let meters: Vec<BotMeter> = self
            .families
            .iter()
            .map(|family| self.meter(family, tracer))
            .collect();
        let started = Instant::now();
        let mut scanned = (0, 0);
        let (decoded, landscapes) = tracer.span("job", || {
            let records = tracer.span("dns.trace_decode", || self.decode());
            let landscapes = meters
                .iter()
                .map(|meter| {
                    let (landscape, (probes, matches)) =
                        chart_matched(meter, &records, 0..self.days, policy, tracer);
                    scanned = (scanned.0 + probes, scanned.1 + matches);
                    landscape
                })
                .collect();
            (records.len() as u64, landscapes)
        });
        Output {
            wall_s: started.elapsed().as_secs_f64(),
            landscapes,
            records: decoded,
            peak_resident_records: decoded,
            storage_failures: 0,
            truth: self.truth.clone(),
            scanned,
        }
    }

    fn checks(&self, _out: &Output) -> Vec<Check> {
        vec![Check {
            name: "read_jsonl returns the records written",
            ok: self.decode() == self.written,
        }]
    }

    fn layers(&self, probe: &mut crate::layers::Probe<'_>) {
        crate::layers::enterprise(self, probe);
    }
}

/// The stream both daemon workloads feed, cut into `botmeterd`'s shards.
pub struct DaemonStream {
    pub input: Simulated,
    pub scratch: PathBuf,
}

impl DaemonStream {
    fn new(size: (u64, u64), seed: u64, scratch: &Path) -> Self {
        DaemonStream {
            input: Simulated::new(DgaFamily::new_goz(), size, seed),
            scratch: scratch.to_owned(),
        }
    }

    pub fn shards(&self) -> std::slice::Chunks<'_, ObservedLookup> {
        self.input.observed.chunks(SHARD_RECORDS)
    }

    /// `botmeterd --data-dir`'s engine options.
    pub fn options(&self, policy: ExecPolicy, tracer: &Tracer) -> DaemonOptions {
        DaemonOptions::new(0..self.input.epochs)
            .policy(policy)
            .close_lag(1)
            .retention(8)
            .auto_publish(true)
            .obs(tracer.obs())
    }

    pub fn open(
        &self,
        dir: &Path,
        checkpoint_every: u64,
        policy: ExecPolicy,
        tracer: &Tracer,
    ) -> (DurableDaemon<DiskStorage>, botmeter_daemon::RecoveryReport) {
        let storage = DiskStorage::open(dir).expect("scratch directory is writable");
        DurableDaemon::open(
            meter(&self.input.family, tracer),
            self.options(policy, tracer),
            storage,
            DurabilityOptions::new(checkpoint_every),
        )
        .expect("a journal this process wrote recovers")
    }

    /// What a batch chart of the whole stream gives: the answer the daemon
    /// must reproduce, uninterrupted or recovered.
    pub fn reference(&self) -> Landscape {
        meter(&self.input.family, &Tracer::off()).chart_with(
            &ChartRequest::new(&self.input.observed)
                .epochs(0..self.input.epochs)
                .policy(ExecPolicy::Sequential),
        )
    }
}

fn latest(daemon: &DurableDaemon<DiskStorage>) -> Landscape {
    daemon
        .engine()
        .latest()
        .map(|(_, landscape)| landscape.clone())
        .unwrap_or_default()
}

fn daemon_output(
    wall_s: f64,
    records: u64,
    daemon: &DurableDaemon<DiskStorage>,
    stream: &DaemonStream,
) -> Output {
    let durability = daemon.durability_stats();
    Output {
        wall_s,
        landscapes: vec![latest(daemon)],
        records,
        peak_resident_records: daemon.stats().peak_resident_records as u64,
        storage_failures: durability.unjournaled_shards + durability.failed_checkpoints,
        truth: stream.input.truth.clone(),
        scanned: (0, 0),
    }
}

/// `daemon_ingest`: the service write path over a fresh data directory.
pub struct DaemonIngest {
    pub stream: DaemonStream,
}

impl DaemonIngest {
    fn new(size: (u64, u64), seed: u64, scratch: &Path) -> Self {
        DaemonIngest {
            stream: DaemonStream::new(size, seed, scratch),
        }
    }
}

impl Workload for DaemonIngest {
    fn job(&self, policy: ExecPolicy, rep: usize, tracer: &Tracer) -> Output {
        let dir = self.stream.scratch.join(format!("ingest-{rep}"));
        let started = Instant::now();
        let daemon = tracer.span("job", || {
            let (mut daemon, _) = tracer.span("daemon.open", || {
                self.stream.open(&dir, CHECKPOINT_EVERY, policy, tracer)
            });
            for shard in self.stream.shards() {
                tracer.span_named(
                    |published: &Option<_>| match published {
                        Some(_) => "daemon.ingest_publish".to_owned(),
                        None => "daemon.ingest".to_owned(),
                    },
                    || daemon.ingest(shard),
                );
            }
            tracer.span("daemon.publish", || daemon.publish_now());
            tracer
                .span("daemon.shutdown", || daemon.shutdown())
                .expect("final checkpoint on scratch storage");
            daemon
        });
        let wall_s = started.elapsed().as_secs_f64();
        let out = daemon_output(
            wall_s,
            self.stream.input.observed.len() as u64,
            &daemon,
            &self.stream,
        );
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn checks(&self, out: &Output) -> Vec<Check> {
        vec![Check {
            name: "final snapshot equals a batch chart of the full stream",
            ok: same_bits(&out.landscapes[0], &self.stream.reference()),
        }]
    }

    fn layers(&self, probe: &mut crate::layers::Probe<'_>) {
        crate::layers::daemon_ingest(self, probe);
    }
}

/// What `kill -9` leaves of a daemon that journaled the whole stream with
/// checkpoints off: recovery has every frame to replay. Not a workload of
/// its own; the traced `daemon_ingest` run recovers from it.
pub struct CrashedJournal {
    pub dir: PathBuf,
    /// The snapshot the run that wrote the journal ended on.
    pub uninterrupted: Landscape,
}

impl DaemonStream {
    pub fn crash(&self) -> CrashedJournal {
        let dir = self.scratch.join("journal");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut daemon, _) = self.open(&dir, u64::MAX, ExecPolicy::default(), &Tracer::off());
        for shard in self.shards() {
            daemon.ingest(shard);
        }
        daemon.publish_now();
        // Dropped without `shutdown()`.
        CrashedJournal {
            dir,
            uninterrupted: latest(&daemon),
        }
    }

    /// `DurableDaemon::open` on the crashed journal, then the trailing
    /// publish, which touches the engine only: the directory is left as
    /// found.
    pub fn recover(
        &self,
        journal: &CrashedJournal,
        policy: ExecPolicy,
    ) -> (Landscape, botmeter_daemon::RecoveryReport) {
        let (mut daemon, report) = self.open(&journal.dir, u64::MAX, policy, &Tracer::off());
        daemon.publish_now();
        (latest(&daemon), report)
    }
}

/// Whether two landscapes agree entry for entry, bit for bit.
pub fn same_bits(a: &Landscape, b: &Landscape) -> bool {
    a.len() == b.len()
        && a.entries().iter().zip(b.entries()).all(|(x, y)| {
            x.server == y.server
                && x.epoch == y.epoch
                && x.estimate.to_bits() == y.estimate.to_bits()
                && x.quality == y.quality
                && x.error_bound.map(f64::to_bits) == y.error_bound.map(f64::to_bits)
        })
}
