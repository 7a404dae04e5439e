//! A simulation run is a pure function of `(protocol, plan, seed)` — the
//! property every experiment in the repository rests on. Same seed twice ⇒
//! bit-identical decision ticks, outputs, metrics, and event trace;
//! different seeds ⇒ different schedules that nevertheless all decide.

use tetrabft::{Message, Params, TetraNode};
use tetrabft_sim::{EdgeSpec, LinkPlan, OutputRecord, SimBuilder, TraceEvent};
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

/// Everything observable about one finished run.
#[derive(Debug, Clone, PartialEq)]
struct RunRecord {
    outputs: Vec<OutputRecord<Value>>,
    trace: Vec<TraceEvent<Message>>,
    bytes_sent: u64,
    msgs_sent: u64,
    events_processed: u64,
    final_time: u64,
}

fn run_single_shot(seed: u64, jitter_max: u64) -> RunRecord {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(seed)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(jitter_max - 1)))
        .record_trace(true)
        .build(move |id| {
            TetraNode::new(cfg, Params::new(25 + jitter_max), id, Value::from_u64(u64::from(id.0)))
        });
    assert!(sim.run_until_outputs(4, 20_000_000), "seed {seed} must decide");
    RunRecord {
        outputs: sim.outputs().to_vec(),
        trace: sim.trace().unwrap().to_vec(),
        bytes_sent: sim.metrics().total_bytes_sent(),
        msgs_sent: sim.metrics().total_msgs_sent(),
        events_processed: sim.metrics().events_processed,
        final_time: sim.now().0,
    }
}

#[test]
fn same_seed_same_run_bit_for_bit() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        let first = run_single_shot(seed, 5);
        let second = run_single_shot(seed, 5);
        assert_eq!(first, second, "seed {seed} diverged between runs");
    }
}

#[test]
fn decision_ticks_are_a_function_of_the_seed_only() {
    // Build the record three times and keep only the decision ticks: they
    // must agree with themselves run-to-run even when compared piecewise.
    let ticks = |seed: u64| -> Vec<(NodeId, u64)> {
        run_single_shot(seed, 7).outputs.iter().map(|o| (o.node, o.time.0)).collect()
    };
    for seed in [3u64, 17, 99] {
        assert_eq!(ticks(seed), ticks(seed));
    }
}

#[test]
fn different_seeds_still_decide_and_agree() {
    let mut schedules = std::collections::HashSet::new();
    for seed in 0..16u64 {
        let record = run_single_shot(seed, 9);
        // Liveness: four decisions; agreement: one value.
        assert_eq!(record.outputs.len(), 4, "seed {seed}");
        let first = record.outputs[0].output;
        assert!(record.outputs.iter().all(|o| o.output == first), "seed {seed} disagreed");
        // Record the full schedule shape to show seeds actually vary it.
        schedules.insert((record.final_time, record.events_processed, record.msgs_sent));
    }
    assert!(
        schedules.len() > 1,
        "sixteen different seeds produced one schedule — jitter is not seeded"
    );
}

#[test]
fn multishot_runs_are_equally_deterministic() {
    let run = |seed: u64| {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
            .build(|id| MultiShotNode::new(cfg, Params::new(20), id));
        sim.run_until(Time(400));
        let chain: Vec<(u64, u64)> = sim
            .outputs()
            .iter()
            .filter(|o| o.node == NodeId(0))
            .map(|o| (o.output.slot.0, o.output.hash.0))
            .collect();
        assert!(!chain.is_empty(), "seed {seed} finalized nothing by t=400");
        (chain, sim.metrics().total_bytes_sent(), sim.now().0)
    };
    for seed in [7u64, 1234, 0xFEED] {
        assert_eq!(run(seed), run(seed), "multishot seed {seed} diverged");
    }
}
