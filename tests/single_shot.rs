//! Cross-crate integration tests: Basic TetraBFT under the simulator, at
//! several system sizes, fault placements, and network regimes.

use tetrabft_fuzz::behaviors;
use tetrabft_suite::prelude::*;
use tetrabft_suite::sim::{Behavior, ByzantineActor, FilteredNode};
use tetrabft_types::NodeId;

type DynNode = Box<dyn Node<Msg = Message, Output = Value>>;

fn honest(cfg: Config, delta: u64) -> impl Fn(NodeId) -> TetraNode {
    move |id| TetraNode::new(cfg, Params::new(delta), id, Value::from_u64(u64::from(id.0) + 1))
}

fn assert_agreement(sim: &Sim<Message, Value>) {
    let first = sim.outputs()[0].output;
    assert!(
        sim.outputs().iter().all(|o| o.output == first),
        "agreement violated: {:?}",
        sim.outputs()
    );
}

/// An uncapped Byzantine actor running one behavior of the attack catalogue.
fn attacker(behavior: impl Behavior<Message> + 'static) -> DynNode {
    Box::new(ByzantineActor::new().with_behavior(behavior).with_budget(u64::MAX))
}

/// Steps `sim` until every node in `honest` has decided, then asserts that
/// each of them did and that all honest decisions agree. Outputs of the
/// faulty nodes are not counted: a faulty node wrapping an honest state
/// machine can decide too, and must not stand in for an honest one.
fn assert_honest_decide_and_agree(sim: &mut Sim<Message, Value>, honest: &[NodeId], run: &str) {
    let decided =
        |sim: &Sim<Message, Value>, id: NodeId| sim.outputs().iter().any(|o| o.node == id);
    let mut steps = 0u64;
    while !honest.iter().all(|&id| decided(sim, id)) && steps < 10_000_000 && sim.step() {
        steps += 1;
    }
    for &id in honest {
        assert!(decided(sim, id), "honest node {} must decide ({run})", id.0);
    }
    let mut decisions = sim.outputs().iter().filter(|o| honest.contains(&o.node));
    let first = decisions.next().expect("an honest decision").output;
    assert!(
        decisions.all(|o| o.output == first),
        "agreement violated ({run}): {:?}",
        sim.outputs()
    );
}

/// Runs n = 4 with one faulty node at position 0 (the leader of view 0)
/// under five seeds of jitter, and asserts that the three honest nodes all
/// decide and agree.
fn assert_one_faulty_leader_cannot_break_agreement(byz: impl Fn(Config) -> DynNode) {
    let cfg = Config::new(4).unwrap();
    let honest = [NodeId(1), NodeId(2), NodeId(3)];
    for seed in 0..5 {
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
            .build_boxed(|id| {
                if id == NodeId(0) {
                    byz(cfg)
                } else {
                    Box::new(TetraNode::new(
                        cfg,
                        Params::new(20),
                        id,
                        Value::from_u64(100 + u64::from(id.0)),
                    ))
                }
            });
        assert_honest_decide_and_agree(&mut sim, &honest, &format!("seed {seed}"));
    }
}

#[test]
fn equivocating_leader_cannot_split_agreement() {
    assert_one_faulty_leader_cannot_break_agreement(|_| attacker(behaviors::equivocator(1)));
}

#[test]
fn vote_amplifier_cannot_break_agreement() {
    assert_one_faulty_leader_cannot_break_agreement(|_| attacker(behaviors::vote_amplifier()));
}

#[test]
fn lying_historian_cannot_break_agreement() {
    assert_one_faulty_leader_cannot_break_agreement(|_| {
        attacker(behaviors::lying_historian(Value::from_u64(666)))
    });
}

#[test]
fn stale_replayer_cannot_break_agreement() {
    assert_one_faulty_leader_cannot_break_agreement(|_| attacker(behaviors::stale_replayer()));
}

#[test]
fn late_crash_cannot_break_agreement() {
    // An honest node that goes silent after view 0.
    assert_one_faulty_leader_cannot_break_agreement(|cfg| {
        let inner = TetraNode::new(cfg, Params::new(20), NodeId(0), Value::from_u64(5));
        Box::new(FilteredNode::new(inner, |_, msg: &Message| msg.view() <= View(0)))
    });
}

#[test]
fn latency_is_five_delays_for_all_system_sizes() {
    for n in [1usize, 2, 3, 4, 7, 13, 31, 52] {
        let cfg = Config::new(n).unwrap();
        let mut sim = SimBuilder::new(n).build(honest(cfg, 1_000));
        assert!(sim.run_until_outputs(n, 20_000_000), "n={n}");
        let times: Vec<u64> = sim.outputs().iter().map(|o| o.time.0).collect();
        if n >= 3 {
            // The paper's good case: exactly 5 message delays.
            assert!(times.iter().all(|t| *t == 5), "n={n}: {times:?}");
        } else {
            // Degenerate systems decide through loopback shortcuts: n = 1
            // entirely at t = 0; at n = 2 the leader's free loopback saves
            // it one delay (4) while the follower needs the full 5.
            assert!(times.iter().all(|t| *t <= 5), "n={n}: {times:?}");
        }
        assert_agreement(&sim);
    }
}

#[test]
fn f_crashes_at_every_position_still_decide() {
    let n = 7; // f = 2
    for (a, b) in [(0u16, 1u16), (0, 6), (3, 4), (5, 6)] {
        let cfg = Config::new(n).unwrap();
        let mut sim = SimBuilder::new(n).build_boxed(move |id| {
            if id.0 == a || id.0 == b {
                Box::new(tetrabft_suite::sim::SilentNode::new())
            } else {
                Box::new(TetraNode::new(
                    cfg,
                    Params::new(5),
                    id,
                    Value::from_u64(u64::from(id.0) + 1),
                ))
            }
        });
        assert!(sim.run_until_outputs(n - 2, 20_000_000), "crashes at {a},{b}");
        assert_agreement(&sim);
    }
}

#[test]
fn one_crash_over_f_means_no_progress_but_no_disagreement() {
    // n = 4, f = 1, but two nodes are down: quorums are unreachable. The
    // protocol must stall — not decide inconsistently.
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).build_boxed(move |id| {
        if id.0 <= 1 {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(9)))
        }
    });
    sim.run_until(Time(2_000));
    assert!(sim.outputs().is_empty(), "no quorum ⇒ no decision (but also no split)");
}

#[test]
fn mixed_adversaries_at_the_fault_budget() {
    // n = 10 tolerates f = 3: one equivocator, one liar, one amplifier.
    let n = 10;
    for seed in 0..5 {
        let cfg = Config::new(n).unwrap();
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(4)))
            .build_boxed(move |id| match id.0 {
                0 => attacker(behaviors::equivocator(111)),
                4 => attacker(behaviors::lying_historian(Value::from_u64(333))),
                7 => attacker(behaviors::vote_amplifier()),
                _ => Box::new(TetraNode::new(
                    cfg,
                    Params::new(25),
                    id,
                    Value::from_u64(u64::from(id.0)),
                )),
            });
        let honest: Vec<NodeId> =
            (0..n as u16).filter(|i| ![0, 4, 7].contains(i)).map(NodeId).collect();
        assert_honest_decide_and_agree(&mut sim, &honest, &format!("seed {seed}"));
    }
}

#[test]
fn decisions_survive_every_gst_placement() {
    for gst in [0u64, 17, 100, 333] {
        let cfg = Config::new(4).unwrap();
        let mut plan = LinkPlan::uniform(EdgeSpec::delay(2));
        if gst > 0 {
            let lost = PartitionWindow::isolate(0, gst, (0..4).map(NodeId)).lossy();
            plan = plan.partition(lost.with_cut(Cut::Outbound));
        }
        let mut sim = SimBuilder::new(4).plan(&plan).build(honest(cfg, 10));
        assert!(sim.run_until_outputs(4, 20_000_000), "gst={gst}");
        assert_agreement(&sim);
        assert!(sim.outputs()[0].time.0 >= gst.saturating_sub(1), "no decision before GST");
    }
}

#[test]
fn pre_gst_delay_without_loss_also_recovers() {
    let cfg = Config::new(4).unwrap();
    let held = PartitionWindow::isolate(0, 120, (0..4).map(NodeId)).with_cut(Cut::Outbound);
    let plan = LinkPlan::uniform(EdgeSpec::delay(3)).partition(held);
    let mut sim = SimBuilder::new(4).plan(&plan).build(honest(cfg, 10));
    assert!(sim.run_until_outputs(4, 20_000_000));
    assert_agreement(&sim);
}

#[test]
fn validity_holds_under_unanimity_and_any_leader() {
    // All nodes propose 77; whatever view ends up deciding, the decision
    // must be 77 (validity), even with a crashed node shifting leadership.
    for crash in 0u16..4 {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4).build_boxed(move |id| {
            if id.0 == crash {
                Box::new(tetrabft_suite::sim::SilentNode::new())
            } else {
                Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(77)))
            }
        });
        assert!(sim.run_until_outputs(3, 20_000_000));
        assert!(sim.outputs().iter().all(|o| o.output == Value::from_u64(77)));
    }
}

#[test]
fn unit_delay_traffic_is_quadratic_total_linear_per_node() {
    let bytes = |n: usize| {
        let cfg = Config::new(n).unwrap();
        let mut sim = SimBuilder::new(n).build(honest(cfg, 1_000));
        assert!(sim.run_until_outputs(n, 50_000_000));
        (sim.metrics().total_bytes_sent() as f64, sim.metrics().max_node_bytes_sent() as f64)
    };
    let (total_a, node_a) = bytes(8);
    let (total_b, node_b) = bytes(32);
    // 4× nodes: totals ≤ ~16×(+slack), per-node ≤ ~4×(+slack).
    assert!(total_b / total_a < 16.0 * 1.6, "total {total_a} → {total_b}");
    assert!(node_b / node_a < 4.0 * 1.6, "per-node {node_a} → {node_b}");
}
