//! The BotMeter experiment harness: regenerates every table and figure of
//! the paper's evaluation (§V).
//!
//! Each binary target takes no arguments and prints one artifact of
//! `results/`:
//!
//! | binary       | artifact | what it prints |
//! |--------------|----------|----------------|
//! | `table1`     | Table I  | the DGA-specific parameter settings |
//! | `taxonomy`   | Fig. 3   | the pool × barrel grid with known families |
//! | `fig6`       | Fig. 6(a–e) | ARE quartiles per estimator per sweep point |
//! | `fig7`       | Fig. 7, Table II | daily ground-truth vs estimated populations; mean ± std ARE per estimator per DGA |
//! | `evasion`    | evasion study | mean ARE per estimator under each adversarial strategy |
//! | `ablation`   | ablations | mean ARE of each estimator design choice |
//! | `robustness` | degradation curves | naive vs delivery-rate-corrected ARE under loss and outages (JSON) |
//!
//! Every accuracy number is charted by
//! [`BotMeter::chart_with`](botmeter_core::BotMeter::chart_with) through
//! [`chart`], over the models of [`chart::models_for`]. The library half
//! also hosts the plain-text renderers ([`render`]) and the experiment
//! definitions themselves, so unit tests run scaled-down versions of every
//! experiment and `tests/results.rs` holds `results/` to what they print.
//! It also hosts the performance gate the `perf` binary drives: one
//! measurement pass ([`report`]) held to the committed
//! `BENCH_pipeline.json` by a table of gates ([`gates`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_accuracy;
pub mod cell;
pub mod chart;
pub mod decode;
pub mod evasion_study;
pub mod fig6;
pub mod fig7;
pub mod gates;
pub mod journal;
pub mod pool;
pub mod render;
pub mod report;
pub mod robustness;
pub mod tables;

/// The body of every experiment binary: the artifacts have no settings,
/// so any argument is refused (exit 2); otherwise prints `render()`.
pub fn print_artifact(render: impl FnOnce() -> String) {
    if std::env::args().len() > 1 {
        eprintln!(
            "usage: the experiment binaries take no arguments; each prints its results/ artifact"
        );
        std::process::exit(2);
    }
    print!("{}", render());
}

/// Timed passes a micro-bench keeps the best of.
pub(crate) const MICRO_RUNS: usize = 5;
/// Timed runs a whole-pipeline measurement keeps the best of.
pub(crate) const PIPELINE_RUNS: usize = 3;

/// The best wall time, in seconds, of `runs` calls of `pass`: scheduler
/// noise only ever adds time.
pub(crate) fn best_of(runs: usize, mut pass: impl FnMut()) -> f64 {
    let mut secs = f64::INFINITY;
    for _ in 0..runs {
        let started = std::time::Instant::now();
        pass();
        secs = secs.min(started.elapsed().as_secs_f64());
    }
    secs
}

/// One call of `pass` with its heap allocations counted (zero unless the
/// binary installs [`botmeter_obs::CountingAlloc`]), then the best of
/// [`MICRO_RUNS`] more: what the first call returned, its allocations, the
/// best seconds.
pub(crate) fn counted_then_best_of<T>(mut pass: impl FnMut() -> T) -> (T, u64, f64) {
    let before = botmeter_obs::AllocSnapshot::now();
    let first = pass();
    let allocs = botmeter_obs::AllocSnapshot::now().since(&before).count;
    let secs = best_of(MICRO_RUNS, || {
        pass();
    });
    (first, allocs, secs)
}
