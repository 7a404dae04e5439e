//! Comparative invariants across protocols — Table 1's ordering relations,
//! checked end to end rather than per protocol.

use tetrabft::{Params, TetraNode};
use tetrabft_baselines::{BlogNode, IthsNode, PbftNode, RepeatedTetra};
use tetrabft_multishot::MultiShotNode;
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

fn good_case_latency_tetra(n: usize) -> u64 {
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n)
        .build(move |id| TetraNode::new(cfg, Params::new(1_000), id, Value::from_u64(1)));
    assert!(sim.run_until_outputs(n, 20_000_000));
    sim.outputs()[0].time.0
}

fn good_case_latency_iths(n: usize) -> u64 {
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n)
        .build(move |id| IthsNode::new(cfg, Params::new(1_000), id, Value::from_u64(1)));
    assert!(sim.run_until_outputs(n, 20_000_000));
    sim.outputs()[0].time.0
}

fn good_case_latency_blog(n: usize) -> u64 {
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n)
        .build(move |id| BlogNode::new(cfg, Params::new(1_000), id, Value::from_u64(1)));
    assert!(sim.run_until_outputs(n, 20_000_000));
    sim.outputs()[0].time.0
}

fn good_case_latency_pbft(n: usize) -> u64 {
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n)
        .build(move |id| PbftNode::new(cfg, Params::new(1_000), id, Value::from_u64(1)));
    assert!(sim.run_until_outputs(n, 20_000_000));
    sim.outputs()[0].time.0
}

#[test]
fn table1_latency_ordering_holds_across_sizes() {
    for n in [4usize, 7, 13] {
        let pbft = good_case_latency_pbft(n);
        let blog = good_case_latency_blog(n);
        let tetra = good_case_latency_tetra(n);
        let iths = good_case_latency_iths(n);
        assert_eq!((pbft, blog, tetra, iths), (3, 4, 5, 6), "n={n}");
    }
}

#[test]
fn tetra_beats_iths_by_exactly_one_delay_in_recovery_too() {
    // Crash leader 0 everywhere; compare post-timeout recovery.
    let recover = |proto: &str| -> u64 {
        let cfg = Config::new(4).unwrap();
        let delta = 10;
        match proto {
            "tetra" => {
                let mut sim = SimBuilder::new(4).build_boxed(move |id| {
                    if id == NodeId(0) {
                        Box::new(tetrabft_suite::sim::SilentNode::new())
                    } else {
                        Box::new(TetraNode::new(cfg, Params::new(delta), id, Value::from_u64(1)))
                    }
                });
                assert!(sim.run_until_outputs(3, 20_000_000));
                sim.outputs()[0].time.0 - 9 * delta
            }
            _ => {
                let mut sim = SimBuilder::new(4).build_boxed(move |id| {
                    if id == NodeId(0) {
                        Box::new(tetrabft_suite::sim::SilentNode::new())
                    } else {
                        Box::new(IthsNode::new(cfg, Params::new(delta), id, Value::from_u64(1)))
                    }
                });
                assert!(sim.run_until_outputs(3, 20_000_000));
                sim.outputs()[0].time.0 - 9 * delta
            }
        }
    };
    assert_eq!(recover("tetra"), 7);
    assert_eq!(recover("iths"), 9);
}

#[test]
fn pipelining_beats_repetition_by_about_five() {
    let cfg = Config::new(4).unwrap();
    let mut pipelined =
        SimBuilder::new(4).build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
    pipelined.run_until(Time(300));
    let blocks = pipelined.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

    let mut repeated =
        SimBuilder::new(4).build(|id| RepeatedTetra::new(cfg, Params::new(1_000_000), id));
    repeated.run_until(Time(300));
    let decisions = repeated.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

    let ratio = blocks / decisions;
    assert!((4.5..=5.5).contains(&ratio), "pipelining factor {ratio:.2} should be ≈5");
}

#[test]
fn all_protocols_agree_under_crash() {
    // Same scenario, four protocols: everyone recovers and agrees.
    macro_rules! check {
        ($ctor:expr) => {{
            let cfg = Config::new(4).unwrap();
            let mut sim = SimBuilder::new(4).build_boxed(move |id| {
                if id == NodeId(0) {
                    Box::new(tetrabft_suite::sim::SilentNode::new())
                } else {
                    Box::new($ctor(cfg, Params::new(10), id, Value::from_u64(9)))
                }
            });
            assert!(sim.run_until_outputs(3, 20_000_000));
            let first = sim.outputs()[0].output;
            assert!(sim.outputs().iter().all(|o| o.output == first));
        }};
    }
    check!(TetraNode::new);
    check!(IthsNode::new);
    check!(BlogNode::new);
    check!(PbftNode::new);
}
