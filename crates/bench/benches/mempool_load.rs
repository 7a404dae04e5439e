//! **Mempool under load** — the batching/backpressure pipeline end to end:
//! clients flood every node past the mempool's admission bound, leaders
//! drain FIFO batches into blocks, and the sharded mode multiplies the
//! drain rate by k. Reports admissions, typed rejections (the
//! backpressure signal), and finalized blocks/sec + txs/sec for
//! k ∈ {1, 2, 4}.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for a tiny-horizon CI smoke run.

use tetrabft::Params;
use tetrabft_bench::print_table;
use tetrabft_multishot::{MultiShotNode, ShardedSim, SubmitError};
use tetrabft_sim::Time;
use tetrabft_types::{Config, NodeId};

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let horizon: u64 = if smoke() { 40 } else { 400 };
    let capacity = if smoke() { 512 } else { 4_096 };
    let offered = capacity + capacity / 2; // 1.5× the admission bound
    let params = Params::new(1_000_000)
        .with_max_block_txs(64)
        .with_mempool_capacity(capacity)
        .with_max_tx_bytes(64);

    let mut rows = Vec::new();
    let mut baseline_txs = 0.0;
    let mut txs_at_k4 = 0.0;
    for k in [1usize, 2, 4] {
        let mut admitted = 0u64;
        let mut rejected_full = 0u64;
        let mut sharded = ShardedSim::new(
            k,
            n,
            0,
            |_, _| tetrabft_sim::LinkPlan::uniform(tetrabft_sim::EdgeSpec::delay(1)),
            |shard, id| {
                let mut node = MultiShotNode::new(cfg, params, id);
                // Every client hammers every node of its shard well past
                // the bound; the overflow must surface as typed errors,
                // not unbounded memory.
                for t in 0..offered {
                    let tx = format!("s{shard}-n{id}-t{t:06}").into_bytes();
                    match node.submit_tx(tx) {
                        Ok(()) => admitted += 1,
                        Err(SubmitError::Full { .. }) => rejected_full += 1,
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
                assert_eq!(node.mempool_len(), capacity, "pool fills exactly to capacity");
                node
            },
        );
        sharded.run_until(Time(horizon));
        let chain = sharded.merged_chain(NodeId(0));
        let blocks = chain.len() as f64;
        let txs: usize = chain.iter().map(|g| g.fin.block.txs.len()).sum();
        let txs = txs as f64;
        if k == 1 {
            baseline_txs = txs;
        }
        if k == 4 {
            txs_at_k4 = txs;
        }
        rows.push(vec![
            k.to_string(),
            admitted.to_string(),
            rejected_full.to_string(),
            format!("{blocks}"),
            format!("{:.2}", blocks / horizon as f64),
            format!("{txs}"),
            format!("{:.1}", txs / horizon as f64),
            format!("{:.2}×", txs / baseline_txs),
        ]);
        assert_eq!(
            admitted,
            (k * n * capacity) as u64,
            "each of the k·n pools admits exactly its capacity"
        );
        assert_eq!(admitted + rejected_full, (k * n * offered) as u64);
    }

    print_table(
        &format!(
            "Mempool load — offered {offered} txs/node into capacity {capacity}, \
             horizon {horizon} delays, ≤64 txs/block (node 0's merged chain)"
        ),
        &[
            "k",
            "admitted",
            "rejected (Full)",
            "blocks",
            "blocks/delay",
            "txs finalized",
            "txs/delay",
            "tx speedup",
        ],
        &rows,
    );

    assert!(
        txs_at_k4 >= 3.0 * baseline_txs,
        "txs/sec must scale ≳4× from k=1 to k=4 (got {baseline_txs} vs {txs_at_k4})"
    );

    println!(
        "\nBackpressure is exact (admitted = capacity per pool, the rest refused \
         with SubmitError::Full), and the k sharded engine groups drain k mempool \
         sets in parallel slots — txs/delay scales ≈linearly with k."
    );
}
