//! Simulates a DGA infection and writes the border-visible trace as JSON
//! Lines to stdout (ground truth goes to stderr), composing with the
//! `estimate` tool:
//!
//! ```sh
//! simulate --family newgoz --population 64 --seed 7 > trace.jsonl
//! estimate --family newgoz < trace.jsonl
//! ```
//!
//! Usage: `simulate --family NAME [--population N] [--epochs E]
//! [--seed S] [--neg-ttl-mins M] [--granularity-ms G]`.

use botmeter_dga::DgaFamily;
use botmeter_dns::{trace, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_sim::ScenarioSpec;
use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family: Option<DgaFamily> = None;
    let mut population = 64u64;
    let mut epochs = 1u64;
    let mut seed = 0u64;
    let mut neg_ttl_mins = 120u64;
    let mut granularity_ms = 100u64;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i).cloned();
        match flag {
            "--family" => {
                let name = value.unwrap_or_else(|| usage("--family needs a name"));
                family = Some(DgaFamily::by_name(&name).unwrap_or_else(|| {
                    let known: Vec<String> = DgaFamily::all_presets()
                        .iter()
                        .map(|f| f.name().to_owned())
                        .collect();
                    usage(&format!(
                        "unknown family {name:?}; known: {}",
                        known.join(", ")
                    ))
                }));
            }
            "--population" => population = parse(value, "--population"),
            "--epochs" => epochs = parse(value, "--epochs"),
            "--seed" => seed = parse(value, "--seed"),
            "--neg-ttl-mins" => neg_ttl_mins = parse(value, "--neg-ttl-mins"),
            "--granularity-ms" => granularity_ms = parse(value, "--granularity-ms"),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let family = family.unwrap_or_else(|| usage("--family is required"));

    let outcome = ScenarioSpec::builder(family)
        .population(population)
        .num_epochs(epochs)
        .ttl(TtlPolicy::paper_default().with_negative(SimDuration::from_mins(neg_ttl_mins)))
        .granularity(SimDuration::from_millis(granularity_ms))
        .seed(seed)
        .build()
        .unwrap_or_else(|e| usage(&e.to_string()))
        .run(ExecPolicy::default());

    let stdout = io::stdout();
    trace::write_jsonl(outcome.observed(), stdout.lock()).unwrap_or_else(|e| usage(&e.to_string()));
    let mut err = io::stderr().lock();
    let _ = writeln!(
        err,
        "[simulate] {} | population {} | per-epoch ground truth: {:?} | raw {} | visible {}",
        outcome.family(),
        population,
        outcome.ground_truth(),
        outcome.raw_lookups(),
        outcome.observed().len(),
    );
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid number")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: simulate --family NAME [--population N] [--epochs E] [--seed S] \
         [--neg-ttl-mins M] [--granularity-ms G]"
    );
    std::process::exit(2);
}
