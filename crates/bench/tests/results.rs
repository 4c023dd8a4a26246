//! `results/` is what the code prints: every committed artifact is
//! regenerated through the library call its binary makes (each binary
//! takes no arguments) and compared byte for byte.
//!
//! `results/fig6.txt` is the one artifact not held here. Its sweep — five
//! subplots × four families × five points × 15 trials — takes about a
//! minute on 2 cores in the release profile, several times the rest of
//! this file; regenerate it with
//! `cargo run --release -p botmeter-bench --bin fig6 > results/fig6.txt`
//! and diff it when a change touches the simulator or an estimator.

use botmeter_bench::{ablation_accuracy, evasion_study, fig7, robustness, tables};

/// Asserts `printed` equals the committed `results/<name>`, naming the
/// first line that differs.
fn assert_committed(name: &str, committed: &str, printed: &str) {
    if committed == printed {
        return;
    }
    let mut committed_lines = committed.lines();
    let mut printed_lines = printed.lines();
    for line in 1.. {
        match (committed_lines.next(), printed_lines.next()) {
            (Some(c), Some(p)) if c == p => continue,
            (c, p) => panic!(
                "results/{name} is not what the code prints; first difference at line \
                 {line}:\n  committed: {c:?}\n  printed:   {p:?}\n\
                 regenerate it with the binary that prints it (crates/bench/src/lib.rs)"
            ),
        }
    }
}

#[test]
fn table1_is_what_table1_prints() {
    assert_committed(
        "table1.txt",
        include_str!("../../../results/table1.txt"),
        &tables::table1(),
    );
}

#[test]
fn fig3_is_what_taxonomy_prints() {
    assert_committed(
        "fig3.txt",
        include_str!("../../../results/fig3.txt"),
        &tables::taxonomy(),
    );
}

#[test]
fn ablation_is_what_ablation_prints() {
    let rows = ablation_accuracy::run_all(ablation_accuracy::TRIALS);
    assert_committed(
        "ablation.txt",
        include_str!("../../../results/ablation.txt"),
        &ablation_accuracy::render(&rows),
    );
}

#[test]
fn evasion_is_what_evasion_prints() {
    let rows = evasion_study::run_study(evasion_study::TRIALS);
    assert_committed(
        "evasion.txt",
        include_str!("../../../results/evasion.txt"),
        &evasion_study::render_study(&rows),
    );
}

#[test]
fn robustness_is_what_robustness_prints() {
    assert_committed(
        "robustness.json",
        include_str!("../../../results/robustness.json"),
        &robustness::report(),
    );
}

#[test]
fn fig7_is_what_fig7_prints() {
    assert_committed(
        "fig7.txt",
        include_str!("../../../results/fig7.txt"),
        &fig7::paper_scale_report(),
    );
}
