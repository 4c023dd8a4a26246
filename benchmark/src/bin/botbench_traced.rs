//! The traced benchmark binary. It alone installs the counting allocator,
//! so allocation counts never ride along with an end-to-end number.

#[global_allocator]
static ALLOC: botmeter_obs::CountingAlloc = botmeter_obs::CountingAlloc;

fn main() -> std::process::ExitCode {
    botbench::main_with(std::env::args().skip(1))
}
