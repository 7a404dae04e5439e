//! End-to-end tests over real TCP sockets: the same state machines the
//! simulator verifies must decide on a live localhost cluster.

use std::time::Duration;

use tetrabft::{Params, TetraNode};
use tetrabft_multishot::MultiShotNode;
use tetrabft_net::ClusterBuilder;
use tetrabft_types::{Config, Value};

#[test]
fn four_node_tcp_cluster_decides() {
    let cfg = Config::new(4).unwrap();
    let (mut cluster, _net) = ClusterBuilder::new(4)
        .spawn(|id| TetraNode::new(cfg, Params::new(500), id, Value::from_u64(id.0 as u64 + 1)))
        .expect("cluster spawns");

    let mut decisions = Vec::new();
    for _ in 0..4 {
        let (node, value) =
            cluster.next_output_timeout(Duration::from_secs(30)).expect("decide within 30s");
        decisions.push((node, value));
    }
    let first = decisions[0].1;
    assert!(decisions.iter().all(|(_, v)| *v == first), "agreement over TCP: {decisions:?}");
    // Round-robin leader of view 0 is node 0, whose input is 1.
    assert_eq!(first, Value::from_u64(1));
}

#[test]
fn multishot_tcp_cluster_finalizes_blocks() {
    let cfg = Config::new(4).unwrap();
    let (mut cluster, _net) = ClusterBuilder::new(4)
        .spawn(|id| {
            let mut node = MultiShotNode::new(cfg, Params::new(500), id);
            node.submit_tx(format!("tx-from-{id}").into_bytes()).unwrap();
            node
        })
        .expect("cluster spawns");

    // Collect until every node reports its first three finalized slots.
    let mut per_node: std::collections::HashMap<u16, Vec<(u64, u64)>> = Default::default();
    while per_node.len() < 4 || per_node.values().any(|c| c.len() < 3) {
        let (node, fin) =
            cluster.next_output_timeout(Duration::from_secs(30)).expect("finalize within 30s");
        per_node.entry(node.0).or_default().push((fin.slot.0, fin.hash.0));
    }
    // Chains must agree on the common prefix.
    let reference = per_node[&0].clone();
    for chain in per_node.values() {
        let common = chain.len().min(reference.len());
        assert_eq!(&chain[..common], &reference[..common], "prefix consistency over TCP");
    }
}

#[test]
fn runtime_submissions_reach_the_chain_over_tcp() {
    // Client-submit is the third engine input class: a tx handed to the
    // running cluster through SubmitHandles (not pre-queued at build time)
    // must land in the finalized chain.
    let cfg = Config::new(4).unwrap();
    let ((mut cluster, submitters), _net) = ClusterBuilder::new(4)
        .spawn_serving(|id| MultiShotNode::new(cfg, Params::new(300), id))
        .expect("cluster spawns");
    let tx = b"live-client-tx".to_vec();
    for handle in &submitters {
        handle.submit(tx.clone()).expect("cluster is running");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        assert!(std::time::Instant::now() < deadline, "tx must finalize within 30s");
        let Some((_, fin)) = cluster.next_output_timeout(Duration::from_secs(30)) else {
            continue;
        };
        if fin.block.txs.contains(&tx) {
            break;
        }
    }
}

#[test]
fn sharded_tcp_cluster_merges_into_one_global_stream() {
    use tetrabft_multishot::{Finalized, FinalizedMerge, ShardSpec};
    use tetrabft_net::ShardedCluster;
    use tetrabft_types::NodeId;

    let k = 2;
    let cfg = Config::new(4).unwrap();
    let mut cluster: ShardedCluster<Finalized> = ShardedCluster::spawn(k, 4, |shard, id| {
        let mut node = MultiShotNode::new(cfg, Params::new(500), id);
        node.submit_tx(format!("s{shard}-{id}").into_bytes()).unwrap();
        node
    })
    .expect("sharded cluster spawns");

    // Merge node 0's streams from both shards into the global chain until
    // six consecutive global slots have finalized.
    let mut merge = FinalizedMerge::new(ShardSpec::new(k));
    let mut global = Vec::new();
    while global.len() < 6 {
        let (shard, node, fin) =
            cluster.next_output_timeout(Duration::from_secs(30)).expect("finalize within 30s");
        if node == NodeId(0) {
            merge.push(shard, fin);
            global.extend(merge.by_ref());
        }
    }
    for (i, g) in global.iter().enumerate() {
        assert_eq!(g.global_slot, i as u64 + 1, "global stream has no gaps");
        assert_eq!(g.shard, (i) % k, "round-robin slot ownership");
    }
}
