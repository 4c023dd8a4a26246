//! Regenerates Fig. 7 (daily populations vs estimates over the paper-scale
//! 365-day, 22.5K-client enterprise trace) and prints Table II alongside:
//! `results/fig7.txt`.

fn main() {
    botmeter_bench::print_artifact(botmeter_bench::fig7::paper_scale_report);
}
