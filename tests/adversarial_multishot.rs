//! Adversarial multi-shot scenarios: block equivocation, vote withholding,
//! and network partitions. The multi-shot consistency property (no forked
//! finalized prefixes) must survive all of them with f ≤ 1 of n = 4.

use tetrabft::Params;
use tetrabft_multishot::{Block, Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{
    BehaviorEnv, ByzantineActor, Cut, Dest, EdgeSpec, FilteredNode, FnBehavior, Input, LinkPlan,
    PartitionWindow, Sim, SimBuilder, Time,
};
use tetrabft_types::{Config, NodeId, Slot, View};

fn assert_no_fork(sim: &Sim<MsMessage, Finalized>, honest: &[u16]) {
    let chains: Vec<Vec<(u64, u64)>> = honest
        .iter()
        .map(|i| {
            sim.outputs()
                .iter()
                .filter(|o| o.node == NodeId(*i))
                .map(|o| (o.output.slot.0, o.output.hash.0))
                .collect()
        })
        .collect();
    let longest = chains.iter().max_by_key(|c| c.len()).unwrap().clone();
    for (i, chain) in chains.iter().enumerate() {
        assert_eq!(
            &longest[..chain.len()],
            &chain[..],
            "node {} forked against the longest chain",
            honest[i]
        );
    }
}

/// A Byzantine block producer: whenever it leads slot s at view 0 and
/// hears the proposal for slot s−1, it sends *different* blocks for s to
/// different halves of the network, trying to split notarization.
fn equivocating_producer(cfg: Config) -> ByzantineActor<MsMessage, Finalized> {
    let equivocate =
        FnBehavior::new(move |input: &Input<MsMessage>, env: &BehaviorEnv, out: &mut Vec<_>| {
            let Input::Deliver { msg: MsMessage::Proposal { view, block }, .. } = input else {
                return;
            };
            let next = Slot(block.slot.0 + 1);
            if MultiShotNode::leader_of(&cfg, next, View(0)) != env.me || !view.is_zero() {
                return;
            }
            let parent = block.hash();
            let block_a = Block::new(next, parent, vec![b"left".to_vec()]);
            let block_b = Block::new(next, parent, vec![b"right".to_vec()]);
            for peer in cfg.nodes() {
                let block =
                    if peer.index() < env.n / 2 { block_a.clone() } else { block_b.clone() };
                out.push((Dest::Node(peer), MsMessage::Proposal { view: View(0), block }));
            }
        });
    ByzantineActor::new().with_behavior(equivocate).with_budget(u64::MAX)
}

#[test]
fn equivocating_block_producer_cannot_fork_the_chain() {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).build_boxed(|id| {
        if id == NodeId(1) {
            Box::new(equivocating_producer(cfg))
        } else {
            Box::new(MultiShotNode::new(cfg, Params::new(5), id))
        }
    });
    sim.run_until(Time(600));
    assert_no_fork(&sim, &[0, 2, 3]);
    let tip = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| o.output.slot.0)
        .max()
        .unwrap_or(0);
    assert!(tip >= 10, "the chain must survive the split attempts, tip={tip}");
}

#[test]
fn vote_withholding_slows_but_does_not_stop_the_chain() {
    // Node 3 participates but never votes: it starves quorums by exactly
    // one vote whenever another node is down. With only this withholder
    // faulty, the chain must still grow (3 of 4 vote).
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).build_boxed(|id| {
        let node = MultiShotNode::new(cfg, Params::new(5), id);
        if id == NodeId(3) {
            Box::new(FilteredNode::new(node, |_, m: &MsMessage| {
                !matches!(m, MsMessage::Vote { .. })
            }))
        } else {
            Box::new(node)
        }
    });
    sim.run_until(Time(600));
    assert_no_fork(&sim, &[0, 1, 2]);
    let tip = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| o.output.slot.0)
        .max()
        .unwrap_or(0);
    assert!(tip >= 20, "three voters are a quorum; the chain must advance, tip={tip}");
}

#[test]
fn partition_heals_without_forking() {
    // Nodes {0,1} vs {2,3} cannot talk until t = 200; neither side has a
    // quorum, so nothing finalizes during the partition — and nothing forks
    // after it heals.
    let cfg = Config::new(4).unwrap();
    let split = PartitionWindow::isolate(0, 200, [NodeId(0), NodeId(1)]).lossy();
    let mut sim = SimBuilder::new(4)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(split))
        .build(|id| MultiShotNode::new(cfg, Params::new(10), id));
    sim.run_until(Time(190));
    assert!(sim.outputs().is_empty(), "no side of a 2/2 partition may finalize anything");
    sim.run_until(Time(1_200));
    assert_no_fork(&sim, &[0, 1, 2, 3]);
    assert!(
        sim.outputs().iter().any(|o| o.node == NodeId(0)),
        "the chain must grow after the partition heals"
    );
}

#[test]
fn deaf_node_never_forks_and_never_blocks_the_others() {
    // Node 3's inbound links are dead until t = 150. The other three form a
    // quorum and keep finalizing at full speed. When node 3 starts hearing
    // again the chain is far past its SLOT_WINDOW: without a state-transfer
    // sub-protocol (which the paper does not define: it assumes block
    // dissemination) it cannot finalize the missed prefix.
    // What consensus *does* guarantee, and what this test checks, is that
    // the deaf node neither forks nor slows anyone down.
    let cfg = Config::new(4).unwrap();
    let deaf = PartitionWindow::isolate(0, 150, [NodeId(3)]).with_cut(Cut::Inbound).lossy();
    let mut sim = SimBuilder::new(4)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(deaf))
        .build(|id| MultiShotNode::new(cfg, Params::new(10), id));
    sim.run_until(Time(1_500));
    assert_no_fork(&sim, &[0, 1, 2, 3]);
    let tip0 = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| o.output.slot.0)
        .max()
        .unwrap_or(0);
    // The deaf node still *leads* every 4th slot and cannot propose blocks
    // it never saw, so the pipeline pays one 9Δ recovery round per lap of
    // the rotation (≈ 4 slots / 90 ticks) — steady progress, no fork.
    assert!(tip0 >= 40, "the live quorum must keep advancing through recovery rounds, tip={tip0}");
}
