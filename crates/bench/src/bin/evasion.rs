//! Runs the evasion study (the paper's future-work direction #3):
//! estimator accuracy under adversarial DGA behaviours,
//! `results/evasion.txt`.

use botmeter_bench::evasion_study::{render_study, run_study, TRIALS};

fn main() {
    botmeter_bench::print_artifact(|| render_study(&run_study(TRIALS)));
}
