//! Micro-bench: cost of the safe-value determination algorithms
//! (Algorithm 4 / Algorithm 5), whose complexity the paper states as
//! `O(v · m · n)` with `m = O(n)` candidate values. Sweeping `n` at fixed
//! `v` and `v` at fixed `n` lets the median times exhibit the claimed
//! linear factors.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` to run each body once (CI smoke).

use std::hint::black_box;

use tetrabft::rules::{leader_determine_safe, node_determine_safe};
use tetrabft::{ProofData, SuggestData};
use tetrabft_bench::{median_time, print_table};
use tetrabft_types::{Config, Value, View, VoteInfo};

/// Worst-case-ish inputs: every node reports distinct values at staggered
/// views so the candidate set is large and no early exit fires.
fn suggests(n: usize, view: u64) -> Vec<SuggestData> {
    (0..n)
        .map(|i| {
            let hi = view.saturating_sub(1 + (i as u64 % 3));
            let lo = hi.saturating_sub(1);
            SuggestData {
                vote2: Some(VoteInfo::new(View(hi), Value::from_u64(i as u64))),
                prev_vote2: Some(VoteInfo::new(View(lo), Value::from_u64(i as u64 + 1))),
                vote3: Some(VoteInfo::new(View(lo), Value::from_u64(i as u64))),
            }
        })
        .collect()
}

fn proofs(n: usize, view: u64) -> Vec<ProofData> {
    (0..n)
        .map(|i| {
            let hi = view.saturating_sub(1 + (i as u64 % 3));
            let lo = hi.saturating_sub(1);
            ProofData {
                vote1: Some(VoteInfo::new(View(hi), Value::from_u64(i as u64))),
                prev_vote1: Some(VoteInfo::new(View(lo), Value::from_u64(i as u64 + 1))),
                vote4: Some(VoteInfo::new(View(lo), Value::from_u64(i as u64))),
            }
        })
        .collect()
}

const SAMPLES: usize = 20;

fn main() {
    let mut rows = Vec::new();
    // (sweep, n, v) points: n at fixed v = 16, then v at fixed n = 16.
    let points: Vec<(&str, usize, u64)> = [4usize, 16, 64]
        .map(|n| ("n_sweep_v16", n, 16))
        .into_iter()
        .chain([4u64, 16, 64].map(|v| ("v_sweep_n16", 16, v)))
        .collect();
    for &(sweep, n, v) in &points {
        let cfg = Config::new(n).unwrap();
        let input = suggests(n, v);
        let t = median_time(SAMPLES, || {
            leader_determine_safe(&cfg, black_box(&input), View(v), Value::from_u64(999))
        });
        rows.push(vec![
            "algorithm4_leader_safe".into(),
            sweep.into(),
            n.to_string(),
            v.to_string(),
            format!("{t:.2?}"),
        ]);
    }
    for &(sweep, n, v) in &points {
        let cfg = Config::new(n).unwrap();
        let input = proofs(n, v);
        let t = median_time(SAMPLES, || {
            node_determine_safe(&cfg, black_box(&input), View(v), Value::from_u64(0))
        });
        rows.push(vec![
            "algorithm5_node_safe".into(),
            sweep.into(),
            n.to_string(),
            v.to_string(),
            format!("{t:.2?}"),
        ]);
    }
    print_table(
        "Safe-value determination cost (median per call)",
        &["algorithm", "sweep", "n", "v", "time"],
        &rows,
    );
}
