//! Holds the benchmark to BENCHMARK.json: the same workloads, the same
//! metric names, units, directions and bounds, and a `--smoke` suite that
//! runs every workload both ways and gets every answer right.

use botbench::spec::{END_TO_END, PER_LAYER};
use botbench::workloads::WORKLOADS;
use botbench::{measure, repeat_disagreements, trace_run, Args};
use serde::Deserialize;
use std::path::PathBuf;

#[derive(Deserialize)]
struct Contract {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Bounded>,
    per_layer: Vec<Layered>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Bounded {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Layered {
    name: String,
    unit: String,
    better: String,
}

fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json has exactly the contract's keys")
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn tables_match_benchmark_json() {
    let contract = contract();
    assert_eq!(contract.command, ["bash", "benchmark/run.sh"]);
    assert_eq!(contract.paths, ["benchmark"]);
    assert!((1..=60).contains(&contract.run_seconds));

    let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    assert!(contract
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));

    assert_eq!(contract.end_to_end.len(), END_TO_END.len());
    for (listed, ours) in contract.end_to_end.iter().zip(END_TO_END) {
        assert_eq!(
            (
                listed.name.as_str(),
                listed.unit.as_str(),
                listed.better.as_str(),
                listed.bound
            ),
            (ours.name, ours.unit, ours.better, ours.bound)
        );
        assert!(listed.bound <= 0.25 && well_formed(&listed.name));
    }

    assert_eq!(contract.per_layer.len(), PER_LAYER.len());
    for (listed, &ours) in contract.per_layer.iter().zip(PER_LAYER) {
        assert_eq!(
            (
                listed.name.as_str(),
                listed.unit.as_str(),
                listed.better.as_str()
            ),
            ours
        );
        assert!(well_formed(&listed.name));
    }
}

#[test]
fn smoke_suite_runs_every_workload_both_ways() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&scratch).expect("cargo's test scratch directory is writable");
    let args = Args {
        smoke: true,
        out_dir: scratch.clone(),
        ..Args::default()
    };
    for name in WORKLOADS {
        let first = measure(name, &args, &scratch);
        assert!(first.result.correct, "{name}: {:?}", first.failed_checks);
        for (metric, _, value) in first.result.metrics.iter() {
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {metric} = {value}"
            );
        }
        // The smoke jobs are too short to hold their times to a bound;
        // the seed-determined metrics still repeat exactly.
        let second = measure(name, &args, &scratch);
        let apart = repeat_disagreements(&first.result, &second.result, false);
        assert!(apart.is_empty(), "{name}: {apart:?}");

        let traced = trace_run(name, &args, &scratch);
        assert!(traced.result.correct, "{name} traced");
        assert!(traced
            .result
            .metrics
            .iter()
            .all(|(_, _, value)| value.is_finite()));
        assert!(traced.result.metrics.get("obs.trace_overhead_ratio") > 0.0);
        assert!(!traced.spans.is_empty());
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
