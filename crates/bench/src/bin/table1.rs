//! Regenerates Table I: DGA-specific parameter settings,
//! `results/table1.txt`.

fn main() {
    botmeter_bench::print_artifact(botmeter_bench::tables::table1);
}
