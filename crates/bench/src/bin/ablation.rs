//! Runs the accuracy ablations for this reproduction's estimator design
//! choices (window-aware MB, regularised MP): `results/ablation.txt`.

use botmeter_bench::ablation_accuracy::{render, run_all, TRIALS};

fn main() {
    botmeter_bench::print_artifact(|| render(&run_all(TRIALS)));
}
