//! The simulator's stepping is pinned: each scenario below must reproduce,
//! byte for byte, the run recorded when the simulator still had a
//! per-event stepping mode beside its coalescing one. A run's record —
//! outputs at their virtual times, the full send/deliver/drop trace,
//! bytes and messages sent, events processed, and the final time — is
//! folded into a 64-bit FNV-1a digest of its `Debug` rendering, and each
//! digest is compared against the value the per-event mode produced.
//!
//! Coalescing only shares the persist/flush seal across events that are
//! popped back-to-back anyway, so a digest mismatch is a dispatch-order
//! bug, not a tuning difference.

use std::fmt::{self, Write as _};

use tetrabft_sim::{OutputRecord, TraceEvent};
use tetrabft_suite::prelude::*;

/// Everything observable about one run. Its fields are read only through
/// the `Debug` rendering the digest hashes.
#[derive(Debug)]
#[allow(dead_code)]
struct RunRecord<O, M> {
    outputs: Vec<OutputRecord<O>>,
    trace: Vec<TraceEvent<M>>,
    bytes_sent: u64,
    msgs_sent: u64,
    events_processed: u64,
    final_time: Time,
}

fn record<O: Clone, M: Clone + tetrabft_sim::WireSize>(sim: &Sim<M, O>) -> RunRecord<O, M> {
    RunRecord {
        outputs: sim.outputs().to_vec(),
        trace: sim.trace().map(<[TraceEvent<M>]>::to_vec).unwrap_or_default(),
        bytes_sent: sim.metrics().total_bytes_sent(),
        msgs_sent: sim.metrics().total_msgs_sent(),
        events_processed: sim.metrics().events_processed,
        final_time: sim.now(),
    }
}

/// 64-bit FNV-1a over everything written into it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(record: &impl fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{record:?}").expect("hashing never fails");
    h.0
}

fn single_shot_run(seed: u64, jitter_max: u64) -> RunRecord<Value, Message> {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(seed)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(jitter_max - 1)))
        .record_trace(true)
        .build(|id| {
            TetraNode::new(cfg, Params::new(25 + jitter_max), id, Value::from_u64(u64::from(id.0)))
        });
    sim.run_until(Time(500));
    record(&sim)
}

fn multishot_run(seed: u64) -> RunRecord<Finalized, MsMessage> {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(seed)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
        .record_trace(true)
        .build(|id| MultiShotNode::new(cfg, Params::new(20), id));
    sim.run_until(Time(400));
    record(&sim)
}

/// `(seed, jitter bound, digest)` of each single-shot run.
const SINGLE_SHOT: [(u64, u64, u64); 6] = [
    (7, 1, 0x0f3d_93f2_0aea_d3a4),
    (7, 4, 0x6bc9_bc5f_1b39_4c94),
    (1234, 1, 0x0f3d_93f2_0aea_d3a4),
    (1234, 4, 0x9e8a_ed7b_3ab0_30ff),
    (0xFEED, 1, 0x0f3d_93f2_0aea_d3a4),
    (0xFEED, 4, 0xc01c_8fbd_c1f0_5ba4),
];

/// `(seed, digest)` of each multishot run.
const MULTISHOT: [(u64, u64); 3] =
    [(7, 0x6f30_f6c6_ff42_bc9e), (1234, 0xe388_84da_99dc_ecd0), (0xFEED, 0x55ec_b62c_a4b5_98e5)];

/// Digest of the partial-synchrony fault run.
const FAULTS: u64 = 0xef29_8a0a_1624_439d;

/// `(name, digest)` of the four network scenarios
/// `scenario_runs_match_pinned_digests` drives, recorded when the simulator
/// still took closure-based link policies; the plans reproduce them.
const SCENARIOS: [(&str, u64); 4] = [
    ("held until GST", 0x2663_d10d_4389_d7e4),
    ("{0,1} | {2,3} lost", 0xe3d9_f752_b6da_e63b),
    ("node 3 deaf", 0x862e_4578_a84e_e63a),
    ("node 0 mute", 0x9b4f_7e27_18c3_421c),
];

/// Every edge of the four-node cluster cut during `0..gst`, traffic held
/// to GST unless made lossy.
fn before_gst(gst: u64) -> PartitionWindow {
    PartitionWindow::isolate(0, gst, (0..4).map(NodeId)).with_cut(Cut::Outbound)
}

#[test]
fn single_shot_runs_match_pinned_digests() {
    for (seed, jitter, pinned) in SINGLE_SHOT {
        let run = single_shot_run(seed, jitter);
        assert!(!run.outputs.is_empty(), "runs must actually decide");
        assert_eq!(digest(&run), pinned, "seed {seed} jitter {jitter}: the run changed");
    }
}

#[test]
fn multishot_runs_match_pinned_digests() {
    for (seed, pinned) in MULTISHOT {
        let run = multishot_run(seed);
        let chain = run.outputs.iter().filter(|o| o.node == NodeId(0)).count();
        assert!(chain > 5, "the chain must actually grow (seed {seed})");
        assert_eq!(digest(&run), pinned, "seed {seed}: the run changed");
    }
}

#[test]
fn fault_run_matches_pinned_digest() {
    // View changes, drops, and timer storms dominate here — the paths
    // where a batch meets stale timers and re-deliveries.
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(99)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(2)).partition(before_gst(150).lossy()))
        .record_trace(true)
        .build(|id| MultiShotNode::new(cfg, Params::new(10), id));
    sim.run_until(Time(600));
    let run = record(&sim);
    assert!(run.outputs.iter().any(|o| o.node == NodeId(0)), "the chain must recover after GST");
    assert_eq!(digest(&run), FAULTS, "the fault run changed");
}

/// Four multishot nodes on `plan`, node 0 holding `txs` submitted
/// transactions, run to `horizon`.
fn scenario_run(
    plan: &LinkPlan,
    params: Params,
    txs: usize,
    horizon: u64,
) -> RunRecord<Finalized, MsMessage> {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).seed(99).plan(plan).record_trace(true).build(|id| {
        let mut node = MultiShotNode::new(cfg, params, id);
        if id == NodeId(0) {
            for k in 0..txs {
                node.submit_tx(format!("pinned-{k}").into_bytes()).unwrap();
            }
        }
        node
    });
    sim.run_until(Time(horizon));
    record(&sim)
}

#[test]
fn scenario_runs_match_pinned_digests() {
    // Each scripted network as a plan: the delaying partial synchrony, a
    // 2/2 split, a deaf node, and a mute one, one tick per surviving hop.
    let unit = LinkPlan::uniform(EdgeSpec::delay(1));
    let split = PartitionWindow::isolate(0, 200, [NodeId(0), NodeId(1)]).lossy();
    let deaf = PartitionWindow::isolate(0, 150, [NodeId(3)]).with_cut(Cut::Inbound).lossy();
    let mute = PartitionWindow::isolate(0, 200, [NodeId(0)]).with_cut(Cut::Outbound).lossy();
    let runs = [
        scenario_run(
            &LinkPlan::uniform(EdgeSpec::delay(2)).partition(before_gst(150)),
            Params::new(10),
            0,
            600,
        ),
        scenario_run(&unit.clone().partition(split), Params::new(10), 0, 600),
        scenario_run(&unit.clone().partition(deaf), Params::new(10), 0, 600),
        scenario_run(&unit.partition(mute), Params::new(5).with_max_block_txs(4), 10, 800),
    ];
    for ((name, pinned), run) in SCENARIOS.into_iter().zip(runs) {
        assert!(run.outputs.iter().any(|o| o.node == NodeId(1)), "{name}: the chain must grow");
        assert_eq!(digest(&run), pinned, "{name}: the run changed");
    }
}
