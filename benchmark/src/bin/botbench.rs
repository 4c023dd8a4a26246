//! The untraced benchmark binary: end-to-end numbers come from here.

fn main() -> std::process::ExitCode {
    botbench::main_with(std::env::args().skip(1))
}
