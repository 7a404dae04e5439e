//! The sharded multi-instance mode: k independent consensus instance
//! groups must behave like one logical chain — a gapless global finalized
//! stream, deterministic interleaving, throughput scaling with k, and
//! consistency inside every shard.

use tetrabft_suite::prelude::*;

fn sharded(k: usize, params: Params) -> ShardedSim {
    let cfg = Config::new(4).unwrap();
    ShardedSim::new(
        k,
        4,
        0,
        |_, _| LinkPlan::uniform(EdgeSpec::delay(1)),
        move |shard, id| {
            let mut node = MultiShotNode::new(cfg, params, id);
            // Every node pre-queues shard-routed txs, as a gateway
            // fanning client traffic over the shards would.
            for t in 0..128u32 {
                let tx = format!("s{shard}-n{id}-t{t}").into_bytes();
                node.submit_tx(tx).unwrap();
            }
            node
        },
    )
}

#[test]
fn merged_stream_is_gapless_and_consistent_across_nodes() {
    let mut sim = sharded(3, Params::new(1_000));
    sim.run_until(Time(40));
    let reference = sim.merged_chain(NodeId(0));
    assert!(reference.len() > 80, "3 shards × ~35 blocks, got {}", reference.len());
    for (i, g) in reference.iter().enumerate() {
        assert_eq!(g.global_slot, i as u64 + 1, "no gaps in the global stream");
    }
    for i in 1..4u16 {
        let other = sim.merged_chain(NodeId(i));
        let common = reference.len().min(other.len());
        assert_eq!(
            &reference[..common],
            &other[..common],
            "node {i}'s merged chain must prefix-agree"
        );
    }
}

#[test]
fn txs_per_horizon_scale_with_k() {
    let txs_finalized = |k: usize| -> usize {
        let mut sim = sharded(k, Params::new(1_000).with_max_block_txs(16));
        sim.run_until(Time(30));
        sim.merged_chain(NodeId(0)).iter().map(|g| g.fin.block.txs.len()).sum()
    };
    let (one, four) = (txs_finalized(1), txs_finalized(4));
    assert!(
        four >= 3 * one,
        "4 shards must finalize ≳4× the txs of 1 in the same horizon ({one} vs {four})"
    );
}

#[test]
fn sharded_runs_are_a_pure_function_of_their_inputs() {
    let run = || {
        let mut sim = sharded(4, Params::new(1_000));
        sim.run_until(Time(35));
        sim.merged_chain(NodeId(2))
            .into_iter()
            .map(|g| (g.global_slot, g.shard, g.fin.hash.0, g.fin.block.txs.len()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "deterministic interleaving across shards");
}

#[test]
fn shard_routing_partitions_txs() {
    let spec = ShardSpec::new(4);
    let mut hit = [false; 4];
    for t in 0..256u32 {
        hit[spec.route_tx(&t.to_be_bytes())] = true;
    }
    assert!(hit.iter().all(|h| *h), "every shard receives some traffic");
}

#[test]
fn merge_iterator_reorders_shard_skew() {
    // Shard 1 finishes far ahead of shard 0; the merge must withhold its
    // blocks until shard 0 catches up, never emitting out of order.
    let fin = |slot: u64, payload: &str| {
        let block = Block::new(Slot(slot), GENESIS_HASH, vec![payload.as_bytes().to_vec()]);
        Finalized { slot: Slot(slot), hash: block.hash(), block }
    };
    let mut merge = FinalizedMerge::new(ShardSpec::new(2));
    for s in 1..=3 {
        merge.push(1, fin(s, "fast"));
    }
    assert!(merge.next().is_none(), "nothing can merge before shard 0's slot 1");
    assert_eq!(merge.next_global_slot(), 1);
    merge.push(0, fin(1, "slow"));
    let emitted: Vec<u64> = merge.by_ref().map(|g| g.global_slot).collect();
    assert_eq!(emitted, vec![1, 2], "global 3 (= shard 0 local 2) is still missing");
    merge.push(0, fin(2, "slow"));
    let emitted: Vec<u64> = merge.by_ref().map(|g| g.global_slot).collect();
    assert_eq!(emitted, vec![3, 4], "global 5 (= shard 0 local 3) is still missing");
    merge.push(0, fin(3, "slow"));
    let emitted: Vec<u64> = merge.by_ref().map(|g| g.global_slot).collect();
    assert_eq!(emitted, vec![5, 6], "shard 0 catching up releases the rest");
}
