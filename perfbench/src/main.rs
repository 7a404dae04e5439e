//! The benchmark binary; see the library documentation for usage.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = perfbench::parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    std::process::exit(perfbench::main_with(&args, None));
}
