//! Cross-crate integration tests for the pipelined blockchain: long runs,
//! repeated recoveries, and the multi-shot consistency/liveness properties
//! of Definition 2.

use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

fn chains(sim: &Sim<MsMessage, Finalized>, n: usize) -> Vec<Vec<(Slot, BlockHash)>> {
    (0..n as u16)
        .map(|i| {
            sim.outputs()
                .iter()
                .filter(|o| o.node == NodeId(i))
                .map(|o| (o.output.slot, o.output.hash))
                .collect()
        })
        .collect()
}

fn assert_prefix_consistency(sim: &Sim<MsMessage, Finalized>, n: usize) {
    let all = chains(sim, n);
    let longest = all.iter().max_by_key(|c| c.len()).unwrap().clone();
    for (i, chain) in all.iter().enumerate() {
        assert_eq!(
            &longest[..chain.len()],
            &chain[..],
            "node {i}'s chain is not a prefix of the longest chain"
        );
        for (k, (slot, _)) in chain.iter().enumerate() {
            assert_eq!(slot.0, k as u64 + 1, "node {i} finalized out of order");
        }
    }
}

#[test]
fn long_run_thousand_blocks() {
    let cfg = Config::new(4).unwrap();
    let mut sim =
        SimBuilder::new(4).build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
    sim.run_until(Time(1_010));
    let chain_len = sim.outputs().iter().filter(|o| o.node == NodeId(0)).count();
    assert!(chain_len >= 1_000, "got {chain_len} blocks in 1010 delays");
    assert_prefix_consistency(&sim, 4);
}

#[test]
fn repeated_leader_crashes_never_fork() {
    // The silent node leads every 4th (slot+view); the chain stalls and
    // recovers over and over. Consistency must hold throughout.
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).build_boxed(|id| {
        if id == NodeId(2) {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(MultiShotNode::new(cfg, Params::new(5), id))
        }
    });
    sim.run_until(Time(1_500));
    assert_prefix_consistency(&sim, 4);
    let tip = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| o.output.slot.0)
        .max()
        .unwrap_or(0);
    assert!(tip >= 30, "chain must keep growing through repeated recoveries, tip={tip}");
}

#[test]
fn seven_nodes_two_crashes() {
    let cfg = Config::new(7).unwrap();
    let mut sim = SimBuilder::new(7).build_boxed(|id| {
        if id.0 >= 5 {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(MultiShotNode::new(cfg, Params::new(5), id))
        }
    });
    sim.run_until(Time(1_000));
    assert_prefix_consistency(&sim, 7);
    assert!(!sim.outputs().is_empty());
}

#[test]
fn asynchrony_then_recovery_keeps_consistency() {
    for seed in 0..4 {
        let cfg = Config::new(4).unwrap();
        let gst = PartitionWindow::isolate(0, 150, (0..4).map(NodeId)).with_cut(Cut::Outbound);
        let plan = LinkPlan::uniform(EdgeSpec::delay(2)).partition(gst.lossy());
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .plan(&plan)
            .build(|id| MultiShotNode::new(cfg, Params::new(10), id));
        sim.run_until(Time(1_200));
        assert_prefix_consistency(&sim, 4);
        assert!(
            sim.outputs().iter().any(|o| o.node == NodeId(0)),
            "chain must grow after GST (seed {seed})"
        );
    }
}

#[test]
fn liveness_every_nodes_transaction_lands() {
    // Definition 2 liveness: a tx submitted to every well-behaved node
    // eventually appears in every finalized chain.
    let tx = b"the-universal-tx".to_vec();
    let cfg = Config::new(4).unwrap();
    let tx2 = tx.clone();
    let mut sim = SimBuilder::new(4).build(move |id| {
        let mut node = MultiShotNode::new(cfg, Params::new(1_000), id);
        node.submit_tx(tx2.clone()).unwrap();
        node
    });
    sim.run_until(Time(60));
    for i in 0..4u16 {
        let included = sim
            .outputs()
            .iter()
            .filter(|o| o.node == NodeId(i))
            .any(|o| o.output.block.txs.contains(&tx));
        assert!(included, "node {i} must see the tx finalized");
    }
}

#[test]
fn batching_liveness_lands_within_bounded_slots() {
    // Stronger than eventual inclusion: with leaders rotating round-robin
    // over n nodes, a tx queued at every node must appear within the first
    // n slots (the first slot each node leads packs its FIFO head), on
    // every node's finalized chain.
    let n = 4;
    let tx = b"bounded-latency-tx".to_vec();
    let cfg = Config::new(n).unwrap();
    let tx2 = tx.clone();
    let mut sim = SimBuilder::new(n).build(move |id| {
        let mut node = MultiShotNode::new(cfg, Params::new(1_000), id);
        node.submit_tx(tx2.clone()).unwrap();
        node
    });
    sim.run_until(Time(40));
    for i in 0..n as u16 {
        let slot = sim
            .outputs()
            .iter()
            .filter(|o| o.node == NodeId(i))
            .find(|o| o.output.block.txs.contains(&tx))
            .map(|o| o.output.slot.0);
        assert_eq!(slot, Some(1), "node {i}: slot 1's leader already queues the tx");
    }
}

#[test]
fn batch_drain_order_is_fifo_across_blocks() {
    // Node 0 queues 40 txs with max_block_txs = 8: its leadership slots
    // must drain them in submission order, 8 per block, across several of
    // its blocks — no reordering at the batching boundary.
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let params = Params::new(1_000).with_max_block_txs(8);
    let mut sim = SimBuilder::new(n).build(move |id| {
        let mut node = MultiShotNode::new(cfg, params, id);
        if id == NodeId(0) {
            for k in 0..40u32 {
                node.submit_tx(format!("fifo-{k:03}").into_bytes()).unwrap();
            }
        }
        node
    });
    sim.run_until(Time(80));
    // Under synchrony every block stays in view 0, so slot s's proposer is
    // leader_of(s, view 0); collect node 0's blocks in slot order.
    let drained: Vec<Vec<u8>> = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .filter(|o| MultiShotNode::leader_of(&cfg, o.output.slot, View(0)) == NodeId(0))
        .flat_map(|o| o.output.block.txs.iter().cloned())
        .collect();
    let expected: Vec<Vec<u8>> = (0..40u32).map(|k| format!("fifo-{k:03}").into_bytes()).collect();
    assert_eq!(drained, expected, "txs must finalize in submission order");
    let full_blocks = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0) && o.output.block.txs.len() == 8)
        .count();
    assert_eq!(full_blocks, 5, "40 txs at 8 per block fill exactly 5 blocks");
}

#[test]
fn admitted_txs_survive_lost_view_changes() {
    // Tx durability: node 0's outbound messages are blackholed until
    // t=200, while it still *hears* everyone. Its led slots keep getting
    // proposed locally (draining mempool batches into blocks nobody
    // receives), view-change away, and finalize under other leaders —
    // each time, the drained batch must return to node 0's mempool, so
    // that once its link heals every admitted tx still reaches the chain.
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let mute = PartitionWindow::isolate(0, 200, [NodeId(0)]).with_cut(Cut::Outbound).lossy();
    let plan = LinkPlan::uniform(EdgeSpec::delay(1)).partition(mute);
    let txs: Vec<Vec<u8>> = (0..10).map(|k| format!("durable-{k}").into_bytes()).collect();
    let txs2 = txs.clone();
    let mut sim = SimBuilder::new(n).plan(&plan).build(move |id| {
        let mut node = MultiShotNode::new(cfg, Params::new(5).with_max_block_txs(4), id);
        if id == NodeId(0) {
            for tx in &txs2 {
                node.submit_tx(tx.clone()).unwrap();
            }
        }
        node
    });
    sim.run_until(Time(800));
    let finalized: Vec<Vec<u8>> = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(1))
        .flat_map(|o| o.output.block.txs.iter().cloned())
        .collect();
    for tx in &txs {
        assert!(
            finalized.contains(tx),
            "tx {:?} was admitted but never finalized — lost with a defeated proposal",
            String::from_utf8_lossy(tx)
        );
    }
}

#[test]
fn blocks_carry_distinct_payloads_per_slot() {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).build(move |id| {
        let mut node = MultiShotNode::new(cfg, Params::new(1_000), id);
        for k in 0..100 {
            node.submit_tx(format!("{id}-{k}").into_bytes()).unwrap();
        }
        node
    });
    sim.run_until(Time(40));
    let blocks: Vec<&Finalized> =
        sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| &o.output).collect();
    assert!(blocks.len() > 10);
    // Hash chain integrity: parent pointers line up.
    for pair in blocks.windows(2) {
        assert_eq!(pair[1].block.parent, pair[0].hash, "hash chain must link");
    }
}
