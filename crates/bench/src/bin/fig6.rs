//! Regenerates Fig. 6: estimation accuracy over synthetic traces, all five
//! subplots at 15 trials per point: `results/fig6.txt`.

fn main() {
    botmeter_bench::print_artifact(botmeter_bench::fig6::report);
}
