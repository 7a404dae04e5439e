//! Micro-bench: end-to-end simulator throughput — full good-case consensus
//! runs per second, and multi-shot blocks finalized per wall second. These
//! bound the cost of every experiment in this repository and demonstrate
//! the state machines are cheap enough for real deployment.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` to run each body once (CI smoke).

use std::hint::black_box;

use tetrabft::{Params, TetraNode};
use tetrabft_bench::{median_time, print_table};
use tetrabft_multishot::MultiShotNode;
use tetrabft_sim::{SimBuilder, Time};
use tetrabft_types::{Config, Value};

const SAMPLES: usize = 10;

fn main() {
    let mut rows = Vec::new();
    for n in [4usize, 16, 40] {
        let cfg = Config::new(n).unwrap();
        let t = median_time(SAMPLES, || {
            let mut sim = SimBuilder::new(n)
                .build(|id| TetraNode::new(cfg, Params::new(1_000_000), id, Value::from_u64(1)));
            assert!(sim.run_until_outputs(n, 10_000_000));
            black_box(sim.outputs().len())
        });
        let runs_per_s = 1.0 / t.as_secs_f64();
        rows.push(vec![
            "single_shot_good_case".into(),
            n.to_string(),
            format!("{t:.2?}"),
            format!("{runs_per_s:.0} runs/s"),
        ]);
    }
    for n in [4usize, 10] {
        let cfg = Config::new(n).unwrap();
        let mut blocks = 0;
        let t = median_time(SAMPLES, || {
            let mut sim =
                SimBuilder::new(n).build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
            sim.run_until(Time(104)); // ≈100 finalized blocks per node
            blocks = sim.outputs().len() / n;
        });
        let blocks_per_s = blocks as f64 / t.as_secs_f64();
        rows.push(vec![
            format!("multishot_{blocks}_blocks"),
            n.to_string(),
            format!("{t:.2?}"),
            format!("{blocks_per_s:.0} blocks/s"),
        ]);
    }
    print_table("Simulator throughput (median per run)", &["run", "n", "time", "rate"], &rows);
}
