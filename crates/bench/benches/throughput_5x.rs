//! **E7 — the ×5 pipelining claim** (Sections 1 and 6): "TetraBFT is able
//! to commit one new block every message delay in the good case, and thus,
//! in theory, it achieves a maximal throughput of 5 times the throughput
//! that would be achieved by simply repeating instances of single-shot
//! TetraBFT."
//!
//! Part two measures the sharded multi-instance mode on top: k independent
//! engine groups partitioning the slot space, reported as blocks and txs
//! per message delay for k ∈ {1, 2, 4}.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for a tiny-horizon CI smoke run.

use tetrabft::Params;
use tetrabft_baselines::RepeatedTetra;
use tetrabft_bench::print_table;
use tetrabft_multishot::{MultiShotNode, ShardedSim};
use tetrabft_sim::{EdgeSpec, LinkPlan, SimBuilder, Time};
use tetrabft_types::{Config, NodeId};

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let horizons: &[u64] = if smoke() { &[100] } else { &[100, 250, 500, 1000] };

    let mut rows = Vec::new();
    for &h in horizons {
        let mut pipelined =
            SimBuilder::new(n).build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
        pipelined.run_until(Time(h));
        let blocks = pipelined.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

        let mut repeated =
            SimBuilder::new(n).build(|id| RepeatedTetra::new(cfg, Params::new(1_000_000), id));
        repeated.run_until(Time(h));
        let decisions = repeated.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

        let ratio = blocks / decisions;
        rows.push(vec![
            h.to_string(),
            format!("{blocks}"),
            format!("{decisions}"),
            format!("{ratio:.2}×"),
        ]);
        assert!(
            ratio > 4.5 && ratio < 5.5,
            "throughput ratio must approach 5× (got {ratio:.2} at horizon {h})"
        );
    }

    print_table(
        "Throughput — pipelined multi-shot vs repeated single-shot (blocks per horizon, node 0)",
        &["horizon (delays)", "pipelined blocks", "repeated decisions", "ratio"],
        &rows,
    );

    println!(
        "\nReproduced: one block per delay vs one decision per 5 delays — the \
         paper's ×5 pipelining factor, converging from below as the 5-delay \
         ramp-up amortizes."
    );

    // ---- part two: sharded scaling ------------------------------------

    let horizon = if smoke() { 50 } else { 500 };
    let max_block_txs = 64;
    let mut rows = Vec::new();
    let mut txs_at_k1 = 0.0;
    let mut txs_at_k4 = 0.0;
    for k in [1usize, 2, 4] {
        // Keep every leader saturated for the whole horizon: capacity and
        // preload sized to the number of blocks each node can lead.
        let preload = (horizon as usize + 8) * max_block_txs / n + max_block_txs;
        let params =
            Params::new(1_000_000).with_max_block_txs(max_block_txs).with_mempool_capacity(preload);
        let mut sharded = ShardedSim::new(
            k,
            n,
            0,
            |_, _| LinkPlan::uniform(EdgeSpec::delay(1)),
            move |shard, id| {
                let mut node = MultiShotNode::new(cfg, params, id);
                for t in 0..preload {
                    node.submit_tx(format!("s{shard}-n{id}-t{t:06}").into_bytes()).unwrap();
                }
                node
            },
        );
        sharded.run_until(Time(horizon));
        let chain = sharded.merged_chain(NodeId(0));
        let blocks = chain.len() as f64;
        let txs: usize = chain.iter().map(|g| g.fin.block.txs.len()).sum();
        let txs = txs as f64;
        if k == 1 {
            txs_at_k1 = txs;
        }
        if k == 4 {
            txs_at_k4 = txs;
        }
        rows.push(vec![
            k.to_string(),
            format!("{blocks}"),
            format!("{:.2}", blocks / horizon as f64),
            format!("{txs}"),
            format!("{:.1}", txs / horizon as f64),
            format!("{:.2}×", txs / txs_at_k1),
        ]);
    }
    print_table(
        &format!(
            "Sharded multi-instance scaling — k engine groups, n=4 each, horizon {horizon} \
             delays, ≤{max_block_txs} txs/block (node 0's merged global chain)"
        ),
        &["k", "blocks", "blocks/delay", "txs", "txs/delay", "tx speedup"],
        &rows,
    );
    assert!(
        txs_at_k4 >= 3.0 * txs_at_k1,
        "4 shards must finalize ≳4× the txs of 1 (got {txs_at_k1} vs {txs_at_k4})"
    );

    println!(
        "\nEach shard keeps the one-block-per-delay pipeline, so blocks/delay \
         and txs/delay scale ≈linearly with k: slots are partitioned round-robin \
         over independent engine groups and re-merged into one global stream."
    );
}
