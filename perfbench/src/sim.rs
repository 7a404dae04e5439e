//! The `sim-isolate` phase: sixteen in-memory `MultiShotNode`s in the
//! deterministic simulator, mempools pre-filled with transfers, one
//! injected hop delay on every edge (8 to 12 ms, by seed), and a scripted fault: after a good-case stretch,
//! f = 5 replicas are isolated with [`PartitionWindow::isolate`], then the
//! partition heals.
//!
//! No sockets, disk or ledger run here, so the phase prices consensus
//! CPU alone, view changes and catch-up included. Every count it reports
//! is a function of the seed; the run repeats the scenario until its time
//! is up and checks that every repetition counts the same.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, StdRng};
use tetrabft::Params;
use tetrabft_bench::CountingAlloc;
use tetrabft_ledger::{transfer_admission, AccountId, Transfer};
use tetrabft_multishot::{Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{EdgeSpec, LinkPlan, PartitionWindow, Sim, SimBuilder, Time};
use tetrabft_types::{Config, NodeId};

use crate::procfs;
use crate::report::Report;
use crate::stats::{median, upper_decile};
use crate::trace::Tracer;

const N: usize = 16;
const F: usize = 5;
/// Injected one-way delay δ, ms (one sim tick = 1 ms): the same on every
/// edge, drawn by the seed from this range, so the seed moves every
/// virtual timing.
const HOP_MS: std::ops::RangeInclusive<u64> = 8..=12;
/// The protocol's Δ, ms: well above the actual delay, so the 9Δ view
/// timeout fires only for isolated leaders.
const DELTA_MS: u64 = 20;
/// Phase ends in virtual ms: warm-up, good case, isolation, heal.
const WARM_END: u64 = 500;
const GOOD_END: u64 = 3_000;
const ISOLATE_MS: u64 = 2_000;
const END: u64 = 6_500;
/// Transfers pre-filled into each node's mempool: more than the node can
/// propose in one scenario, so no block runs empty for want of input.
const TXS_PER_NODE: u64 = 4_096;
const MEMPOOL_CAPACITY: usize = 8_192;
/// Fewest scenario repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The seed's scenario: which replicas are isolated, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Isolated replicas: five ids spaced 3, 3, 3, 3, 4 apart around the
    /// leader rotation, so no two consecutive leaders are cut off.
    pub isolated: Vec<u16>,
    /// Isolation window, virtual ms.
    pub isolate: (u64, u64),
    /// One-way delay of every edge, virtual ms.
    pub hop_ms: u64,
}

impl Scenario {
    /// The scenario of `seed`.
    pub fn of(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = rng.random_range(0..N as u64);
        let isolated = (0..F as u64).map(|k| ((first + 3 * k) % N as u64) as u16).collect();
        let hop_ms = rng.random_range(HOP_MS);
        let start = GOOD_END + rng.random_range(0..hop_ms);
        Scenario { isolated, isolate: (start, start + ISOLATE_MS), hop_ms }
    }

    fn is_isolated(&self, node: NodeId) -> bool {
        self.isolated.contains(&node.0)
    }
}

/// What one repetition counted: identical across repetitions of a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    tip: u64,
    events: u64,
    msgs: u64,
    bytes: u64,
    viewchange_bytes: u64,
    outage_ms: u64,
    catchup_ms: u64,
    phase_blocks: [u64; 4],
}

/// What one repetition timed.
#[derive(Debug, Clone)]
struct Timing {
    setup: Duration,
    phases: [Duration; 4],
    allocs: u64,
}

fn build(seed: u64, scenario: &Scenario) -> Sim<MsMessage, Finalized> {
    let cfg = Config::new(N).expect("16 nodes is a valid configuration");
    let params = Params::new(DELTA_MS).with_mempool_capacity(MEMPOOL_CAPACITY);
    let (start, end) = scenario.isolate;
    let group = scenario.isolated.iter().map(|&i| NodeId(i));
    let plan = LinkPlan::uniform(EdgeSpec::delay(scenario.hop_ms))
        .partition(PartitionWindow::isolate(start, end, group));
    let accounts = N as u64 * TXS_PER_NODE;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_4D_15_0A);
    SimBuilder::new(N).seed(seed).plan(&plan).build(|id| {
        let mut node = MultiShotNode::new(cfg, params, id).with_admission(transfer_admission);
        // Node i pays from accounts i, i+16, ...: disjoint payers, so no
        // two mempools hold the same transfer.
        for k in 0..TXS_PER_NODE {
            let from = u64::from(id.0) + N as u64 * k;
            let to = (from + rng.random_range(1..accounts)) % accounts;
            let amount = rng.random_range(1..=1000u64);
            let t = Transfer { from: AccountId(from), to: AccountId(to), amount, nonce: 0 };
            node.submit_tx(&t).expect("pre-fill fits the mempool and passes admission");
        }
        node
    })
}

/// Highest slot any node had finalized by virtual time `t`.
fn tip_at(sim: &Sim<MsMessage, Finalized>, t: u64) -> u64 {
    sim.outputs().iter().filter(|o| o.time.0 <= t).map(|o| o.output.slot.0).max().unwrap_or(0)
}

/// Checks the finished scenario and counts what it did.
fn audit(
    sim: &Sim<MsMessage, Finalized>,
    scenario: &Scenario,
    problems: &mut Vec<String>,
) -> Counts {
    // Prefix consistency: every node's chain is gapless from slot 1 and
    // agrees with every other node on every slot both finalized.
    let mut hashes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut height = [0u64; N];
    let mut times: Vec<Vec<u64>> = vec![Vec::new(); N];
    for o in sim.outputs() {
        let i = o.node.index();
        if o.output.slot.0 != height[i] + 1 {
            problems
                .push(format!("node {i} finalized slot {} after {}", o.output.slot.0, height[i]));
        }
        height[i] = o.output.slot.0;
        times[i].push(o.time.0);
        if *hashes.entry(o.output.slot.0).or_insert(o.output.hash.0) != o.output.hash.0 {
            problems.push(format!("node {i} forked at slot {}", o.output.slot.0));
        }
    }
    let m = sim.metrics();
    if m.equivocations() != 0 {
        problems.push(format!("{} equivocating claims", m.equivocations()));
    }

    // Longest wait between finalizations at a connected node.
    let outage_ms = (0..N)
        .filter(|&i| !scenario.is_isolated(NodeId(i as u16)))
        .flat_map(|i| {
            let t = &times[i];
            t.windows(2).filter(|w| w[1] >= WARM_END).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        })
        .max()
        .unwrap_or(END);

    // Catch-up: every isolated node reaches the tip the others held at
    // the heal.
    let (start, heal) = scenario.isolate;
    let tip_at_heal = tip_at(sim, heal);
    let mut catchup_ms = 0;
    for &i in &scenario.isolated {
        let reached = sim
            .outputs()
            .iter()
            .find(|o| o.node.0 == i && o.output.slot.0 >= tip_at_heal)
            .map(|o| o.time.0);
        match reached {
            Some(t) => catchup_ms = catchup_ms.max(t.saturating_sub(heal)),
            None => problems
                .push(format!("isolated node {i} never reached slot {tip_at_heal} after the heal")),
        }
    }

    let bounds = [0, WARM_END, start, heal, END];
    let tips: Vec<u64> = bounds.iter().map(|&t| tip_at(sim, t)).collect();
    let viewchange_bytes =
        ["view-change", "suggest", "proof"].iter().map(|k| m.kind(k).bytes).sum();
    Counts {
        tip: tips[4],
        events: m.events_processed,
        msgs: m.total_msgs_sent(),
        bytes: m.total_bytes_sent(),
        viewchange_bytes,
        outage_ms,
        catchup_ms,
        phase_blocks: [tips[1] - tips[0], tips[2] - tips[1], tips[3] - tips[2], tips[4] - tips[3]],
    }
}

/// Runs `sim-isolate` for at least `seconds` and reports it.
pub fn run(
    seed: u64,
    seconds: f64,
    epoch: Instant,
    trace: bool,
    alloc: Option<&CountingAlloc>,
) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(epoch, trace, 0);
    let scenario = Scenario::of(seed);
    let started = Instant::now();
    let mut counts: Option<Counts> = None;
    let mut timings = Vec::new();
    while timings.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let rep = timings.len() as u64;
        let t0 = Instant::now();
        let parent = tracer.open("sim.rep", t0, 0, rep);
        let mut sim = build(seed, &scenario);
        let built = Instant::now();
        tracer.record("sim.build", t0, built, parent, rep);

        let before = alloc.map(CountingAlloc::snapshot);
        let ends = [WARM_END, scenario.isolate.0, scenario.isolate.1, END];
        let mut phases = [Duration::ZERO; 4];
        for (p, &end) in ends.iter().enumerate() {
            let t = Instant::now();
            sim.run_until(Time(end));
            let done = Instant::now();
            tracer.record("sim.run_until", t, done, parent, p as u64);
            phases[p] = done - t;
        }
        let allocs = match (alloc, before) {
            (Some(a), Some(b)) => b.allocs_since(&a.snapshot()),
            _ => 0,
        };
        tracer.close(parent, Instant::now());

        let mut problems = Vec::new();
        let c = audit(&sim, &scenario, &mut problems);
        drop(sim);
        report.attempted += 1;
        if !problems.is_empty() {
            report.failed += 1;
        }
        for p in problems {
            report.problem(format!("rep {rep}: {p}"));
        }
        match &counts {
            None => counts = Some(c),
            Some(first) if *first != c => {
                report.problem(format!("rep {rep} counted {c:?}, rep 0 counted {first:?}"));
            }
            Some(_) => {}
        }
        timings.push(Timing { setup: built - t0, phases, allocs });
    }
    let c = counts.expect("at least one repetition");

    // Set-up times are reported as their median; rates as their fastest
    // decile, since every repetition does identical work.
    let per_rep = |f: &dyn Fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let rate =
        |f: &dyn Fn(&Timing) -> f64| upper_decile(&timings.iter().map(f).collect::<Vec<_>>());
    let run_s = |t: &Timing| t.phases.iter().sum::<Duration>().as_secs_f64();
    report.e2e("setup_s", per_rep(&|t| t.setup.as_secs_f64()), "s");
    report.e2e("sim_outage_ms", c.outage_ms as f64, "ms");
    report.e2e("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    report.note(
        "scenario",
        format!(
            "{{\"isolated\": {:?}, \"isolate_ms\": [{}, {}], \"hop_ms\": {}}}",
            scenario.isolated, scenario.isolate.0, scenario.isolate.1, scenario.hop_ms
        ),
    );
    // Blocks per wall second swing twofold with the host's load, so they
    // are recorded here and, traced, as `trace.sim_blocks_per_s`, not gated.
    report.note("sim_blocks_per_s", format!("{}", rate(&|t| c.tip as f64 / run_s(t))));
    report.note("sim_blocks_per_s_median", format!("{}", per_rep(&|t| c.tip as f64 / run_s(t))));
    let rep_ms: Vec<String> = timings.iter().map(|t| format!("{:.1}", run_s(t) * 1e3)).collect();
    report.note("run_ms_by_rep", format!("[{}]", rep_ms.join(", ")));
    report.note(
        "counts",
        format!(
            "{{\"tip\": {}, \"events\": {}, \"msgs\": {}, \"bytes\": {}, \"phase_blocks\": {:?}}}",
            c.tip, c.events, c.msgs, c.bytes, c.phase_blocks
        ),
    );

    if trace {
        let tip = c.tip.max(1) as f64;
        let phase_rate = |p: usize| rate(&|t| c.phase_blocks[p] as f64 / t.phases[p].as_secs_f64());
        report.layer("sim.goodcase_blocks_per_s", phase_rate(1), "1/s");
        report.layer("sim.fault_blocks_per_s", phase_rate(2), "1/s");
        report.layer("sim.events_per_s", rate(&|t| c.events as f64 / run_s(t)), "1/s");
        report.layer("sim.msgs_per_block", c.msgs as f64 / tip, "count");
        report.layer("sim.bytes_per_block", c.bytes as f64 / tip, "B");
        report.layer("sim.viewchange_bytes", c.viewchange_bytes as f64, "B");
        report.layer("sim.catchup_ms", c.catchup_ms as f64, "ms");
        report.layer(
            "sim.allocs_per_event",
            per_rep(&|t| t.allocs as f64 / c.events as f64),
            "count",
        );
        report.layer("trace.spans", tracer.spans().len() as f64, "count");
        report.layer("trace.sim_blocks_per_s", rate(&|t| c.tip as f64 / run_s(t)), "1/s");
    }
    report.note("spans", crate::write_spans(&tracer, trace, &format!("sim-isolate-seed{seed}")));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_isolates_f_non_adjacent_replicas() {
        for seed in 0..64 {
            let s = Scenario::of(seed);
            assert_eq!(s.isolated.len(), F);
            let mut ids = s.isolated.clone();
            ids.sort_unstable();
            for (k, &a) in ids.iter().enumerate() {
                let b = ids[(k + 1) % F];
                assert_ne!((a + 1) % N as u16, b, "seed {seed}: {a} and {b} lead back to back");
            }
            assert!(s.isolate.0 >= GOOD_END && s.isolate.1 < END);
            assert!(HOP_MS.contains(&s.hop_ms));
            assert_eq!(s, Scenario::of(seed));
        }
    }
}
