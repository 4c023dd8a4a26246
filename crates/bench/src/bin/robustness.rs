//! Prints the degradation curves under packet loss and vantage outages
//! (see `botmeter_bench::robustness`): `results/robustness.json`.

fn main() {
    botmeter_bench::print_artifact(botmeter_bench::robustness::report);
}
