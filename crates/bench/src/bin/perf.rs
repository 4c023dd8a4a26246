//! The repo's performance gate and its recorder: one measurement pass
//! ([`Report::measure`]), two uses of it.
//!
//! `perf` measures, holds the result to the `BENCH_pipeline.json` in the
//! working directory, prints one row per gate and exits 1 if any row
//! failed — after printing all of them. It writes nothing.
//!
//! `perf --record` runs the same pass and writes `BENCH_pipeline.json`,
//! then `METRICS_pipeline.json` from one more, instrumented run.

use botmeter_bench::gates::{figure, gates};
use botmeter_bench::report::Report;
use serde::Serialize;

/// Every heap allocation in this binary is counted, so the report's
/// allocation figures are exact.
#[global_allocator]
static ALLOC: botmeter_obs::CountingAlloc = botmeter_obs::CountingAlloc;

const COMMITTED: &str = "BENCH_pipeline.json";
const METRICS: &str = "METRICS_pipeline.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = match args.as_slice() {
        [] => false,
        [flag] if flag == "--record" => true,
        _ => {
            eprintln!("usage: perf [--record]");
            std::process::exit(2);
        }
    };
    // Check mode reads the committed file first: a missing one should not
    // cost the measuring to find out.
    let committed: Option<Report> = (!record).then(|| {
        let text = std::fs::read_to_string(COMMITTED)
            .unwrap_or_else(|e| fail(&format!("cannot read {COMMITTED}: {e}")));
        serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{COMMITTED} is not a report: {e}")))
    });

    eprintln!("perf: measuring (newGoZ pipeline, codecs, pools, estimator kernels; about 15 s)");
    let measured = Report::measure();
    let Some(committed) = committed else {
        write(COMMITTED, &measured);
        write(METRICS, &measured.metrics());
        return;
    };

    let cores = measured.available_cores;
    let rows = gates(&measured, &committed, cores);
    println!(
        "perf: {} gates against {COMMITTED} ({cores} core(s), {} worker thread(s))",
        rows.len(),
        measured.threads
    );
    for row in &rows {
        let verdict = if row.holds() { "ok" } else { "FAIL" };
        let measured = figure(row.measured);
        println!(
            "  {verdict:<4}  {:<34}{measured:>12}  {}",
            row.name, row.bound
        );
        if !row.holds() {
            println!("        {}", row.why);
        }
    }
    let failed = rows.iter().filter(|row| !row.holds()).count();
    if failed > 0 {
        println!("perf: FAIL: {failed} of {} gates", rows.len());
        std::process::exit(1);
    }
    println!("perf: OK");
}

fn write(path: &str, report: &impl Serialize) {
    let rendered = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(path, format!("{rendered}\n"))
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("perf: wrote {path}");
}

fn fail(message: &str) -> ! {
    eprintln!("perf: {message}");
    std::process::exit(1);
}
