//! Reads a border-visible trace (JSON Lines on stdin) and charts the
//! DGA-botnet landscape: per-server, per-epoch population estimates.
//!
//! ```sh
//! simulate --family newgoz --population 64 > trace.jsonl
//! estimate --family newgoz --model coverage < trace.jsonl
//! ```
//!
//! Usage: `estimate --family NAME [--model auto|timing|poisson|bernoulli|
//! coverage|sampling] [--epochs E]
//! [--neg-ttl-mins M] [--granularity-ms G]`.

use botmeter_core::{BotMeter, BotMeterConfig, ChartRequest, ModelKind};
use botmeter_dga::DgaFamily;
use botmeter_dns::{trace, ObservedLookup, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use std::io;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family: Option<DgaFamily> = None;
    let mut model = ModelKind::Auto;
    let mut epochs = 1u64;
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
                family = Some(
                    DgaFamily::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown family {name:?}"))),
                );
            }
            "--model" => {
                let name = value.unwrap_or_else(|| usage("--model needs a name"));
                model = name
                    .parse()
                    .unwrap_or_else(|e: botmeter_core::UnknownModel| usage(&e.to_string()));
            }
            "--epochs" => epochs = parse(value, "--epochs"),
            "--neg-ttl-mins" => neg_ttl_mins = parse(value, "--neg-ttl-mins"),
            "--granularity-ms" => granularity_ms = parse(value, "--granularity-ms"),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let family = family.unwrap_or_else(|| usage("--family is required"));

    let stdin = io::stdin();
    let observed: Vec<ObservedLookup> =
        trace::read_jsonl(stdin.lock()).unwrap_or_else(|e| usage(&e.to_string()));
    eprintln!("[estimate] read {} observed lookups", observed.len());

    let config = BotMeterConfig::new(family)
        .model(model)
        .ttl(TtlPolicy::paper_default().with_negative(SimDuration::from_mins(neg_ttl_mins)))
        .granularity(SimDuration::from_millis(granularity_ms));
    let meter = BotMeter::new(config);
    let landscape = meter.chart_with(
        &ChartRequest::new(&observed)
            .epochs(0..epochs)
            .policy(ExecPolicy::default()),
    );
    print!("{landscape}");
    if epochs > 1 {
        println!("\nlandscape heatmap (rows: servers worst-first, columns: epochs):");
        print!(
            "{}",
            botmeter_bench::render::landscape_heatmap(&landscape, 0..epochs)
        );
    }
    for (server, peak) in landscape.ranked_servers() {
        println!("priority: {server} (peak estimate {peak:.1})");
    }
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid number")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: estimate --family NAME [--model MODEL] [--epochs E] \
         [--neg-ttl-mins M] [--granularity-ms G]   (trace on stdin)"
    );
    std::process::exit(2);
}
