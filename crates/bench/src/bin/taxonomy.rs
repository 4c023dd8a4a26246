//! Regenerates Fig. 3: the DGA taxonomy grid with known families,
//! `results/fig3.txt`.

fn main() {
    botmeter_bench::print_artifact(botmeter_bench::tables::taxonomy);
}
