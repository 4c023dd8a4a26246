//! `botbench`: the repository's one benchmark.
//!
//! `botbench --workload W --seed S --seconds T --trace 0|1` builds W's
//! inputs from the seed, runs its job in a closed loop for T seconds,
//! checks the answers, and prints one JSON result as the last line of
//! stdout: the end-to-end metrics with tracing off, the per-layer ledger
//! with tracing on. Without `--workload` it runs all five. README.md says
//! why each workload and metric exists; BENCHMARK.json is the contract.

pub mod layers;
pub mod spec;
pub mod trace;
pub mod workloads;

use botmeter_core::{mean_absolute_relative_error, CellQuality};
use botmeter_exec::ExecPolicy;
use botmeter_obs::AllocSnapshot;
use serde::Serialize;
use spec::{Metrics, END_TO_END};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{median, quantile, ratio, Span, Tracer};
use workloads::{same_bits, Check, Output, Sizes, Workload, WORKLOADS};

/// How many times a run builds its inputs; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run times at least this many jobs however long they take.
const MIN_REPS: usize = 3;
/// Untimed jobs run this long before the timed loop: a fresh process is a
/// few percent slow for its first seconds.
const WARMUP: Duration = Duration::from_secs(2);
/// Repetition numbers outside the timed loop's.
const WARMUP_REP: usize = usize::MAX - 2;
const CHECK_REP: usize = usize::MAX - 1;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub out_dir: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 42,
            seconds: 10.0,
            trace: false,
            smoke: false,
            check_repeat: false,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

pub const USAGE: &str = "usage: botbench [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] \
     [--smoke] [--check-repeat] [--out-dir DIR]";

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                    }
                    parsed.workload = Some(name);
                }
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => parsed.smoke = true,
                "--check-repeat" => parsed.check_repeat = true,
                "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(parsed)
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    fn budget(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke {
            self.seconds.min(0.2)
        } else {
            self.seconds
        })
    }

    fn warmup(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            WARMUP
        }
    }

    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }
}

/// The line a run prints last.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Where and how a run was made.
#[derive(Debug, Clone, Serialize)]
pub struct Environment {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: usize,
    /// What `ExecPolicy::default()` resolved to: the jobs' worker count.
    pub worker_threads: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
    pub disk: &'static str,
}

impl Environment {
    fn new(args: &Args) -> Self {
        Environment {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            worker_threads: ExecPolicy::default().worker_threads(),
            rustc: std::env::var("BOTBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            profile: "release: opt-level=3 lto=thin codegen-units=1",
            commit: std::env::var("BOTBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            disk: "journal and checkpoint times are this sandbox's filesystem, not a device's",
        }
    }
}

/// One workload's untraced run, as `results.json` records it.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    pub workload: String,
    pub result: RunResult,
    pub reps: usize,
    /// First quartile, median, third quartile of the job's wall time.
    pub landscape_s_quartiles: Vec<f64>,
    pub setup_s_samples: Vec<f64>,
    pub landscape_s_samples: Vec<f64>,
    pub records: u64,
    pub cells: usize,
    pub mean_are: f64,
    pub failed_checks: Vec<&'static str>,
}

#[derive(Debug, Serialize)]
struct ResultsFile {
    environment: Environment,
    workloads: Vec<WorkloadReport>,
}

/// One workload's traced run, as `trace.json` records it.
#[derive(Debug, Serialize)]
pub struct TraceReport {
    pub workload: String,
    pub result: RunResult,
    pub untraced_job_s: f64,
    pub traced_job_s: f64,
    pub failed_checks: Vec<&'static str>,
    /// Isolated time per layer over the untraced job's wall time; the last
    /// entry is the residual.
    pub layer_shares: Vec<LayerShare>,
    /// Self time per span name over the traced repetitions and probes.
    pub self_times: Vec<SelfTime>,
    pub spans: Vec<Span>,
}

#[derive(Debug, Serialize)]
pub struct LayerShare {
    pub layer: String,
    pub seconds: f64,
    pub share: f64,
}

#[derive(Debug, Serialize)]
pub struct SelfTime {
    pub span: String,
    pub seconds: f64,
}

#[derive(Debug, Serialize)]
struct TraceFile {
    environment: Environment,
    workloads: Vec<TraceReport>,
}

/// A per-process scratch directory, removed when the run ends or fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join("tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Mean absolute relative error of the charted totals against the
/// simulator's ground truth, over the epochs that had bots.
fn mean_are(out: &Output) -> f64 {
    let pairs: Vec<(f64, f64)> =
        out.landscapes
            .iter()
            .zip(&out.truth)
            .flat_map(|(landscape, truth)| {
                truth.iter().enumerate().map(|(epoch, &actual)| {
                    (landscape.total_for_epoch(epoch as u64), actual as f64)
                })
            })
            .collect();
    mean_absolute_relative_error(&pairs).unwrap_or(0.0)
}

fn cells(out: &Output) -> usize {
    out.landscapes.iter().map(|l| l.len()).sum()
}

fn invalid_cells(out: &Output) -> usize {
    out.landscapes
        .iter()
        .flat_map(|l| l.entries())
        .filter(|e| e.quality == CellQuality::Invalid)
        .count()
}

/// The correctness gate, outside the timed region: the default-policy
/// answer is bit-identical to the Sequential one, plus the workload's own.
fn gate(workload: &dyn Workload, default: &Output, sequential: &Output) -> Vec<Check> {
    let mut checks = vec![Check {
        name: "default policy is bit-identical to Sequential",
        ok: default.landscapes.len() == sequential.landscapes.len()
            && default
                .landscapes
                .iter()
                .zip(&sequential.landscapes)
                .all(|(a, b)| same_bits(a, b)),
    }];
    checks.extend(workload.checks(default));
    checks
}

struct Tally {
    correct: bool,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<&'static str>,
}

fn tally(jobs: usize, last: &Output, storage_failures: u64, checks: &[Check]) -> Tally {
    let failed_checks: Vec<&'static str> =
        checks.iter().filter(|c| !c.ok).map(|c| c.name).collect();
    let failed = invalid_cells(last) as u64 + storage_failures + failed_checks.len() as u64;
    Tally {
        correct: failed == 0,
        attempted: (jobs + cells(last) + checks.len()) as u64,
        failed,
        failed_checks,
    }
}

/// Builds the inputs `setups` times, each followed by one discarded job
/// that lets allocator growth and lazy tables settle; returns the last.
fn set_up(name: &str, args: &Args, scratch: &Path) -> (Box<dyn Workload>, Vec<f64>) {
    let mut samples = Vec::new();
    let mut workload = None;
    for _ in 0..args.setups() {
        drop(workload.take());
        let started = Instant::now();
        let built = workloads::build(name, args.seed, &args.sizes(), scratch)
            .expect("workload names are checked when arguments are parsed");
        built.job(ExecPolicy::default(), WARMUP_REP, &Tracer::off());
        samples.push(started.elapsed().as_secs_f64());
        workload = Some(built);
    }
    (workload.expect("at least one set-up"), samples)
}

/// One untraced run of `name`: the end-to-end metrics.
pub fn measure(name: &str, args: &Args, scratch: &Path) -> WorkloadReport {
    let (workload, setup_samples) = set_up(name, args, scratch);
    let tracer = Tracer::off();
    let policy = ExecPolicy::default();

    let warm = Instant::now() + args.warmup();
    while Instant::now() < warm {
        workload.job(policy, WARMUP_REP, &tracer);
    }

    let mut walls = Vec::new();
    let mut storage_failures = 0;
    let mut deterministic = true;
    let mut last: Option<Output> = None;
    let deadline = Instant::now() + args.budget();
    while walls.len() < MIN_REPS || Instant::now() < deadline {
        let out = workload.job(policy, walls.len(), &tracer);
        walls.push(out.wall_s);
        storage_failures += out.storage_failures;
        if let Some(previous) = &last {
            deterministic &= previous.peak_resident_records == out.peak_resident_records
                && previous.records == out.records
                && previous
                    .landscapes
                    .iter()
                    .zip(&out.landscapes)
                    .all(|(a, b)| same_bits(a, b));
        }
        last = Some(out);
    }
    let last = last.expect("at least one repetition");

    let sequential = workload.job(ExecPolicy::Sequential, CHECK_REP, &tracer);
    let mut checks = gate(workload.as_ref(), &last, &sequential);
    checks.push(Check {
        name: "every repetition gave the same answer and counts",
        ok: deterministic,
    });
    let tally = tally(walls.len() + 1, &last, storage_failures, &checks);

    let landscape_s = median(&walls);
    let are = mean_are(&last);
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", median(&setup_samples));
    metrics.set("landscape_s", landscape_s);
    metrics.set("peak_resident_records", last.peak_resident_records as f64);
    metrics.set("accuracy", 1.0 / (1.0 + are));
    WorkloadReport {
        workload: name.to_owned(),
        result: RunResult {
            correct: tally.correct,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        },
        reps: walls.len(),
        landscape_s_quartiles: vec![quantile(&walls, 0.25), landscape_s, quantile(&walls, 0.75)],
        setup_s_samples: setup_samples,
        landscape_s_samples: walls.clone(),
        records: last.records,
        cells: cells(&last),
        mean_are: are,
        failed_checks: tally.failed_checks,
    }
}

/// One traced run of `name`: the per-layer ledger.
pub fn trace_run(name: &str, args: &Args, scratch: &Path) -> TraceReport {
    let workload = workloads::build(name, args.seed, &args.sizes(), scratch)
        .expect("workload names are checked when arguments are parsed");
    let policy = ExecPolicy::default();
    let off = Tracer::off();
    let on = Tracer::on(name);
    workload.job(policy, WARMUP_REP, &off);

    // Untraced and traced jobs alternate, so both see the same machine.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut allocs = AllocSnapshot::default();
    let mut last: Option<Output> = None;
    let deadline = Instant::now() + args.budget();
    while traced.len() < MIN_REPS || Instant::now() < deadline {
        let rep = traced.len();
        untraced.push(workload.job(policy, 2 * rep, &off).wall_s);
        on.start_rep(rep);
        let before = AllocSnapshot::now();
        let out = workload.job(policy, 2 * rep + 1, &on);
        allocs = AllocSnapshot::now().since(&before);
        traced.push(out.wall_s);
        last = Some(out);
    }
    let last = last.expect("at least one repetition");
    let job_counters = on.snapshot();
    let sequential = workload.job(ExecPolicy::Sequential, CHECK_REP, &off);
    let mut checks = gate(workload.as_ref(), &last, &sequential);

    let mut metrics = Metrics::per_layer();
    on.start_rep(layers::PROBE_REP);
    let mut probe = layers::Probe {
        tracer: &on,
        policy,
        metrics: &mut metrics,
        reps: 0..traced.len(),
        job: &last,
        job_counters,
        ledger: Vec::new(),
        checks: Vec::new(),
    };
    workload.layers(&mut probe);
    layers::kernel(&mut probe);
    let ledger = probe.ledger;
    checks.extend(probe.checks);
    let tally = tally(
        untraced.len() + traced.len() + 1,
        &last,
        last.storage_failures,
        &checks,
    );

    let (untraced_job_s, traced_job_s) = (median(&untraced), median(&traced));
    let attributed: f64 = ledger.iter().map(|(_, s)| s).sum();
    let residual = untraced_job_s - attributed;
    let observed = if metrics.get("sim.observed_lookups") > 0.0 {
        metrics.get("sim.observed_lookups")
    } else {
        last.records as f64
    };
    metrics.set("exec.threads", policy.worker_threads() as f64);
    metrics.set(
        "exec.scaling_ratio",
        ratio(sequential.wall_s, untraced_job_s),
    );
    metrics.set("exec.residual_s", residual);
    metrics.set("exec.residual_share", ratio(residual, untraced_job_s));
    metrics.set("core.mean_are", mean_are(&last));
    metrics.set("core.invalid_cells", invalid_cells(&last) as f64);
    metrics.set(
        "obs.trace_overhead_ratio",
        ratio(traced_job_s, untraced_job_s),
    );
    metrics.set(
        "obs.allocs_per_raw_lookup",
        ratio(allocs.count as f64, metrics.get("sim.raw_lookups")),
    );
    metrics.set(
        "obs.allocs_per_record",
        ratio(allocs.count as f64, observed),
    );

    let mut layer_shares: Vec<LayerShare> = Vec::new();
    for (layer, seconds) in ledger.iter().copied().chain([("residual", residual)]) {
        match layer_shares.iter_mut().find(|s| s.layer == layer) {
            Some(share) => share.seconds += seconds,
            None => layer_shares.push(LayerShare {
                layer: layer.to_owned(),
                seconds,
                share: 0.0,
            }),
        }
    }
    for share in &mut layer_shares {
        share.share = ratio(share.seconds, untraced_job_s);
    }
    let spans = on.spans();
    TraceReport {
        workload: name.to_owned(),
        result: RunResult {
            correct: tally.correct,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        },
        untraced_job_s,
        traced_job_s,
        failed_checks: tally.failed_checks,
        layer_shares,
        self_times: trace::self_times(&spans)
            .into_iter()
            .map(|(span, seconds)| SelfTime { span, seconds })
            .collect(),
        spans,
    }
}

/// Where two untraced runs of one workload disagree: a metric that is a
/// function of the seed must repeat exactly; with `times`, a measured one
/// must repeat within its bound.
pub fn repeat_disagreements(first: &RunResult, second: &RunResult, times: bool) -> Vec<String> {
    let mut out = Vec::new();
    for metric in END_TO_END {
        let (a, b) = (
            first.metrics.get(metric.name),
            second.metrics.get(metric.name),
        );
        let apart = ratio((a - b).abs(), a.abs());
        if metric.exact && a != b {
            out.push(format!("{}: {a} vs {b}, must repeat exactly", metric.name));
        } else if times && apart > metric.bound {
            out.push(format!(
                "{}: {a} vs {b}, {:.1} % apart, bound {:.0} %",
                metric.name,
                apart * 100.0,
                metric.bound * 100.0,
            ));
        }
    }
    out
}

fn print_metrics(workload: &str, result: &RunResult) {
    eprintln!(
        "[{workload}] correct={} attempted={} failed={}",
        result.correct, result.attempted, result.failed
    );
    for (name, unit, value) in result.metrics.iter() {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
}

fn write_json<T: Serialize>(dir: &Path, file: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let body = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(file), format!("{body}\n"))
}

/// Runs what `args` ask for. `Ok(true)` when every answer was correct.
pub fn run(args: &Args) -> std::io::Result<bool> {
    let scratch = Scratch::new(&args.out_dir)?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let environment = Environment::new(args);
    eprintln!(
        "botbench: seed {} | {} s per workload | {} cores, {} worker threads | {} | {}",
        environment.seed,
        environment.seconds,
        environment.nproc,
        environment.worker_threads,
        environment.rustc,
        environment.profile,
    );
    let mut ok = true;
    if args.trace {
        let mut reports = Vec::new();
        for name in names {
            let report = trace_run(name, args, &scratch.0);
            print_metrics(name, &report.result);
            eprintln!(
                "  job: {:.4} s untraced, {:.4} s traced; layer shares of the untraced job:",
                report.untraced_job_s, report.traced_job_s
            );
            for share in &report.layer_shares {
                eprintln!(
                    "    {:<16} {:>9.4} s {:>7.1} %",
                    share.layer,
                    share.seconds,
                    share.share * 100.0
                );
            }
            for name in &report.failed_checks {
                eprintln!("  FAILED: {name}");
            }
            ok &= report.result.correct;
            println!(
                "{}",
                serde_json::to_string(&report.result).map_err(std::io::Error::other)?
            );
            reports.push(report);
        }
        eprintln!("  ({})", environment.disk);
        write_json(
            &args.out_dir,
            "trace.json",
            &TraceFile {
                environment,
                workloads: reports,
            },
        )?;
    } else {
        let mut reports = Vec::new();
        for name in names {
            let report = measure(name, args, &scratch.0);
            if args.check_repeat {
                let again = measure(name, args, &scratch.0);
                for line in repeat_disagreements(&report.result, &again.result, !args.smoke) {
                    eprintln!("[{name}] runs disagree: {line}");
                    ok = false;
                }
                ok &= again.result.correct;
            }
            print_metrics(name, &report.result);
            eprintln!(
                "  landscape_s quartiles {:.4?} s over {} jobs; {} records, {} cells, mean ARE {:.4}",
                report.landscape_s_quartiles, report.reps, report.records, report.cells, report.mean_are
            );
            for name in &report.failed_checks {
                eprintln!("  FAILED: {name}");
            }
            ok &= report.result.correct;
            println!(
                "{}",
                serde_json::to_string(&report.result).map_err(std::io::Error::other)?
            );
            reports.push(report);
        }
        write_json(
            &args.out_dir,
            "results.json",
            &ResultsFile {
                environment,
                workloads: reports,
            },
        )?;
    }
    Ok(ok)
}

/// What both binaries run.
pub fn main_with(args: impl IntoIterator<Item = String>) -> std::process::ExitCode {
    use std::process::ExitCode;
    if cfg!(debug_assertions) {
        eprintln!("botbench: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match Args::parse(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("botbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("botbench: a correctness check failed or two runs disagreed");
            ExitCode::from(1)
        }
        Err(error) => {
            eprintln!("botbench: {error}");
            ExitCode::from(1)
        }
    }
}
