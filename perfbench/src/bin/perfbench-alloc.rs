//! The benchmark with allocation counting: a counting global allocator
//! under the same program, so `sim.allocs_per_event` can be reported.
//! Kept out of the main binary because counting slows every allocation.

use tetrabft_bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = perfbench::parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    std::process::exit(perfbench::main_with(&args, Some(&ALLOC)));
}
