//! The repository benchmark: one seeded command that prices the path a
//! deployment runs end to end, and each layer on it.
//!
//! This binary runs one phase of a workload; `run.py` runs a workload's
//! phases in turn and merges their results (see `README.md`). Phases:
//!
//! * `transfer-open`: typed transfers at a Poisson 32k tx/s into four
//!   durable replicas over TCP, confirmed at execution ([`tcp`]);
//! * `transfer-heavy`: the same at 48k tx/s ([`tcp`]);
//! * `sim-isolate`: sixteen replicas in the deterministic simulator, five
//!   of them isolated and healed ([`sim`]); every workload ends with it.
//!
//! Usage: `perfbench --phase <name> --seed <n> --seconds <s> --trace
//! <0|1> --scratch <dir>`. The last line of standard output is the
//! phase's result; the line before it is an information record. A phase
//! whose correctness checks fail prints `"correct": false` and exits
//! non-zero.

#![forbid(unsafe_code)]

pub mod load;
pub mod procfs;
pub mod report;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use tetrabft_bench::CountingAlloc;

use crate::report::Report;
use crate::trace::Tracer;

/// Where traced runs write their span logs, relative to the working
/// directory.
pub const SPAN_DIR: &str = ".perfbench-out";

/// The phase names: each `BENCHMARK.json` workload runs its `transfer-*`
/// phase, then `sim-isolate`.
pub const PHASES: [&str; 3] = ["transfer-open", "transfer-heavy", "sim-isolate"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`PHASES`].
    pub phase: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Record spans and print per-layer metrics.
    pub trace: bool,
    /// Fresh directory for durable stores; removed at exit.
    pub scratch: PathBuf,
}

/// Parses `--flag value` pairs.
///
/// # Errors
///
/// Names the missing, unknown or malformed flag.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut phase, mut seed, mut seconds, mut trace, mut scratch) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--phase" => phase = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let phase: String = phase.ok_or("--phase is required")?;
    if !PHASES.contains(&phase.as_str()) {
        return Err(format!("unknown phase {phase}; expected one of {PHASES:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        phase,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

/// Writes a traced run's spans to `SPAN_DIR/spans-<run>.jsonl` and returns
/// the file name as a JSON value (`null` when untraced or the write
/// failed).
pub fn write_spans(tracer: &Tracer, trace: bool, run: &str) -> String {
    if !trace {
        return "null".into();
    }
    let path = Path::new(SPAN_DIR).join(format!("spans-{run}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => format!("\"{}\"", path.display()),
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", path.display());
            "null".into()
        }
    }
}

/// Runs the phase `args` names and prints its report; returns the
/// process exit code.
pub fn main_with(args: &Args, alloc: Option<&CountingAlloc>) -> i32 {
    let epoch = Instant::now();
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return 2;
    }
    let host = procfs::host_record(&args.scratch);
    let mut report: Report = match args.phase.as_str() {
        "sim-isolate" => sim::run(args.seed, args.seconds, epoch, args.trace, alloc),
        tcp_phase => {
            let rate_tps =
                if tcp_phase == "transfer-open" { tcp::OPEN_RATE_TPS } else { tcp::HEAVY_RATE_TPS };
            let name = format!("{tcp_phase}-seed{}", args.seed);
            let opts = tcp::Opts {
                name: &name,
                seed: args.seed,
                seconds: args.seconds,
                scratch: &args.scratch,
                epoch,
                trace: args.trace,
            };
            let r = tcp::run(rate_tps, &opts);
            // The replicas' threads stop within a poll interval of the
            // cluster being dropped; let them before their stores go.
            std::thread::sleep(tcp::TEARDOWN_SETTLE);
            r
        }
    };
    report.note("host", host);
    if let Err(e) = std::fs::remove_dir_all(&args.scratch) {
        report.problem(format!("removing {}: {e}", args.scratch.display()));
    }
    report.note("phase", format!("\"{}\"", args.phase));
    report.note("seed", args.seed.to_string());
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.info_line());
    println!("{}", report.result_line(args.trace));
    i32::from(!report.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a =
            parse_args(&argv("--phase sim-isolate --seed 3 --seconds 10 --trace 1 --scratch x"))
                .unwrap();
        assert_eq!(a.phase, "sim-isolate");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(
            parse_args(&argv("--phase nope --seed 3 --seconds 10 --trace 0 --scratch x")).is_err()
        );
        assert!(parse_args(&argv(
            "--phase sim-isolate --seed 3 --seconds 10 --trace 2 --scratch x"
        ))
        .is_err());
        assert!(
            parse_args(&argv("--phase sim-isolate --seconds 10 --trace 0 --scratch x")).is_err()
        );
        assert!(parse_args(&argv(
            "--phase sim-isolate --seed 3 --seconds 0 --trace 0 --scratch x"
        ))
        .is_err());
    }
}
