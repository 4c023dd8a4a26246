//! Runs the accuracy ablations for this reproduction's estimator design
//! choices (window-aware MB, regularised MP).
//!
//! Usage: `ablation [--trials N] [--seed S]`.

use botmeter_bench::ablation_accuracy::{render, run_all, AblationOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = AblationOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                opts.trials = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--trials needs a number");
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs a number");
            }
            other => {
                eprintln!("unknown argument {other}; usage: ablation [--trials N] [--seed S]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    print!("{}", render(&run_all(&opts)));
}
