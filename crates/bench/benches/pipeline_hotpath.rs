//! **Zero-alloc consensus hot path** — the perf harness gating the scratch
//! buffer, tally-table, inline-vec, and batched-stepping work.
//!
//! The pipeline runs the good-case multi-shot scenario with *durable*
//! nodes — the deployed shape, where every persist seal writes the dirtied
//! vote books to the write-ahead log — through the simulator, whose every
//! step seals once per coalesced batch of same-instant events. A counting
//! global allocator prices every window: engine steps per wall second,
//! blocks finalized per second, and allocations/bytes per step.
//!
//! A second measurement isolates where seal coalescing acts in deployment:
//! the **mailbox drain** replays one node's recorded good-case traffic
//! into a durable engine through [`Engine::batch`] twice — in batches of
//! one (a seal per event) and in batches of 64, the TCP runtime's drain
//! bound. (The simulator's global queue interleaves targets, so
//! consecutive same-node events are rare there; a per-node mailbox is
//! where batching pays.)
//!
//! Asserted gates (smoke mode included):
//! * mailbox-drain steps/s at batch 64 ≥ 2× batch 1, on the identical
//!   finalized chain;
//! * good-case steady-state allocations per pipeline step < 6.0 at every n;
//! * a warmed engine fed duplicate votes allocates **exactly zero** — the
//!   strict steady-state target, checked at the dispatch level where no
//!   sim bookkeeping (event queue, outputs, metrics) can blur it.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for the CI smoke run (n ∈ {4, 16}).

use std::time::Instant;

use tetrabft::Params;
use tetrabft_bench::{print_table, CountingAlloc};
use tetrabft_multishot::{BlockHash, Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{Dest, Engine, EngineEvent, SimBuilder, Time, TimerId, TraceEvent, Transport};
use tetrabft_types::{Config, FsyncPolicy, NodeId, Slot, View};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

/// One measured window of the good-case pipeline.
#[derive(Debug, Clone, Copy)]
struct Sample {
    steps_per_s: f64,
    blocks_per_s: f64,
    allocs_per_step: f64,
    bytes_per_step: f64,
    /// Chain tip of node 0 at the end of the window (decision equality).
    tip: u64,
}

/// Runs n *durable* nodes of the good case (no faults, synchronous unit
/// delays, timers effectively off) over a warmup then a measured window.
/// Durable nodes pay the write-ahead persist on every seal, so the seal
/// cadence is priced the way the deployed runtime pays it.
/// `FsyncPolicy::Never` keeps disk sync jitter out of the measurement; the
/// WAL writes themselves stay.
fn run_pipeline(n: usize, horizon: u64) -> Sample {
    let cfg = Config::new(n).expect("valid n");
    let params = Params::new(1_000_000).with_fsync(FsyncPolicy::Never);
    let root = std::env::temp_dir().join(format!("tetrabft-hotpath-{}-n{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let stores = root.clone();
    let mut sim = SimBuilder::new(n).build(move |id| {
        MultiShotNode::durable(cfg, params, id, stores.join(format!("node{}", id.0)))
            .expect("fresh durable store")
    });

    // Warmup: every per-node container (registers, scratch buffers, event
    // queue, outbox) reaches its steady-state footprint.
    let warm = horizon / 5;
    sim.run_until(Time(warm));

    let steps0 = sim.metrics().events_processed;
    let blocks0 = sim.outputs().len();
    let alloc0 = ALLOC.snapshot();
    let wall = Instant::now();
    sim.run_until(Time(horizon));
    let elapsed = wall.elapsed().as_secs_f64();
    let alloc1 = ALLOC.snapshot();

    let steps = sim.metrics().events_processed - steps0;
    let blocks = (sim.outputs().len() - blocks0) as f64;
    let tip = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| o.output.slot.0)
        .max()
        .unwrap_or(0);
    assert!(steps > 0, "the measured window must process events (n={n})");
    drop(sim);
    let _ = std::fs::remove_dir_all(&root);
    Sample {
        steps_per_s: steps as f64 / elapsed,
        blocks_per_s: blocks / elapsed,
        allocs_per_step: alloc0.allocs_since(&alloc1) as f64 / steps as f64,
        bytes_per_step: alloc0.bytes_since(&alloc1) as f64 / steps as f64,
        tip,
    }
}

/// A transport that drops everything: isolates the engine + node cost from
/// any environment bookkeeping for the strict zero-alloc gate.
struct DropTransport;

impl Transport<MsMessage, Finalized> for DropTransport {
    fn send(&mut self, _dest: Dest, _msg: MsMessage) {}
    fn arm_timer(&mut self, _id: TimerId, _generation: u64, _after: u64) {}
    fn deliver_output(&mut self, _out: Finalized) {}
}

/// Drops sends and timers, but records finalizations: how the mailbox
/// drain proves both batch sizes decide the identical chain.
#[derive(Default)]
struct SinkTransport {
    outputs: u64,
    tip: u64,
}

impl Transport<MsMessage, Finalized> for SinkTransport {
    fn send(&mut self, _dest: Dest, _msg: MsMessage) {}
    fn arm_timer(&mut self, _id: TimerId, _generation: u64, _after: u64) {}
    fn deliver_output(&mut self, out: Finalized) {
        self.outputs += 1;
        self.tip = out.slot.0;
    }
}

/// Batch bound for the coalesced mailbox drain — the same bound the TCP
/// runtime uses when draining a node's event queue per wakeup.
const MAILBOX_BATCH: usize = 64;

/// Records every delivery into node 0's mailbox over a traced good-case
/// run: the event stream the deployed runtime would drain for that node.
fn recorded_mailbox(n: usize, horizon: u64) -> Vec<(Time, NodeId, MsMessage)> {
    let cfg = Config::new(n).expect("valid n");
    let params = Params::new(1_000_000);
    let mut sim =
        SimBuilder::new(n).record_trace(true).build(move |id| MultiShotNode::new(cfg, params, id));
    sim.run_until(Time(horizon));
    sim.trace()
        .expect("tracing is on")
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Delivered { at, from, to, msg } if *to == NodeId(0) => {
                Some((*at, *from, msg.clone()))
            }
            _ => None,
        })
        .collect()
}

/// One mailbox-drain measurement.
#[derive(Debug, Clone, Copy)]
struct DrainSample {
    events_per_s: f64,
    allocs_per_event: f64,
    outputs: u64,
    tip: u64,
}

/// Replays node 0's recorded traffic into a fresh *durable* engine — the
/// deployed runtime shape, one node draining its mailbox — in batches of
/// `batch` events. Batch 1 pays a full persist/flush seal (a WAL write
/// per dirtied slot) per event; batch [`MAILBOX_BATCH`] runs the same
/// dispatches with one seal per batch, so re-dirtied slots collapse to a
/// single WAL record.
fn drain_mailbox(n: usize, events: &[(Time, NodeId, MsMessage)], batch: usize) -> DrainSample {
    let cfg = Config::new(n).expect("valid n");
    let params = Params::new(1_000_000).with_fsync(FsyncPolicy::Never);
    let root =
        std::env::temp_dir().join(format!("tetrabft-mailbox-{}-n{n}-b{batch}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let node = MultiShotNode::durable(cfg, params, NodeId(0), &root).expect("fresh durable store");
    let mut engine = Engine::new(node, NodeId(0), n);
    let mut transport = SinkTransport::default();
    engine.start(Time(0), &mut transport);

    let alloc0 = ALLOC.snapshot();
    let wall = Instant::now();
    for chunk in events.chunks(batch) {
        engine.batch(&mut transport, |b| {
            for (at, from, msg) in chunk {
                b.step(EngineEvent::Deliver { from: *from, msg: msg.clone() }, *at);
            }
        });
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let alloc1 = ALLOC.snapshot();
    let _ = std::fs::remove_dir_all(&root);
    DrainSample {
        events_per_s: events.len() as f64 / elapsed,
        allocs_per_event: alloc0.allocs_since(&alloc1) as f64 / events.len() as f64,
        outputs: transport.outputs,
        tip: transport.tip,
    }
}

/// The strict gate: a warmed multi-shot engine fed duplicate/stale votes —
/// the steady-state shape of good-case traffic — must allocate exactly 0.
fn assert_steady_state_is_alloc_free() {
    let n = 4;
    let cfg = Config::new(n).expect("valid n");
    let me = NodeId(0);
    let mut engine = Engine::new(MultiShotNode::new(cfg, Params::new(1_000_000), me), me, n);
    let mut transport = DropTransport;
    engine.start(Time(0), &mut transport);

    // Votes from every peer for the live slot window: these exercise the
    // registers, tally tables, quorum checks, and the full drive loop.
    let votes: Vec<(NodeId, MsMessage)> = (0..n as u16)
        .flat_map(|peer| {
            (1..=4u64).map(move |slot| {
                (
                    NodeId(peer),
                    MsMessage::Vote { slot: Slot(slot), view: View(0), hash: BlockHash(0xABCD) },
                )
            })
        })
        .collect();

    // One delivery per batch: every step pays its own seal.
    let mut deliver = |from: NodeId, msg: &MsMessage, round: u64| {
        engine.batch(&mut transport, |b| {
            b.step(EngineEvent::Deliver { from, msg: msg.clone() }, Time(round));
        });
    };

    // Two warm passes: the first grows containers to steady state, the
    // second confirms the shapes have settled before the counted window.
    for round in 1..=2u64 {
        for (from, msg) in &votes {
            deliver(*from, msg, round);
        }
    }

    let before = ALLOC.snapshot();
    for round in 0..100u64 {
        for (from, msg) in &votes {
            deliver(*from, msg, 3 + round);
        }
    }
    let after = ALLOC.snapshot();
    let allocs = before.allocs_since(&after);
    assert_eq!(
        allocs,
        0,
        "steady-state dispatch must be allocation-free, got {allocs} allocations \
         over {} duplicate-vote deliveries",
        votes.len() * 100,
    );
    println!(
        "strict gate: {} duplicate-vote deliveries through a warmed engine → 0 allocations",
        votes.len() * 100
    );
}

/// The asserted ≥ 2× gate: drain the recorded mailbox in batches of one
/// and of [`MAILBOX_BATCH`], and compare engine steps (drained events) per
/// second.
fn run_mailbox_gate(json_sections: &mut Vec<String>) {
    let n = 4;
    let horizon: u64 = if smoke() { 800 } else { 3_000 };
    let events = recorded_mailbox(n, horizon);
    assert!(events.len() > 1_000, "the recorded run must produce real traffic");

    let single = drain_mailbox(n, &events, 1);
    let batched = drain_mailbox(n, &events, MAILBOX_BATCH);
    assert_eq!(
        (single.outputs, single.tip),
        (batched.outputs, batched.tip),
        "both batch sizes must finalize the identical chain"
    );
    assert!(batched.tip > 0, "the drained mailbox must actually finalize blocks");

    let speedup = batched.events_per_s / single.events_per_s;
    println!(
        "mailbox drain (n={n}, {} events, durable): batch 1 {:.0}k steps/s \
         ({:.2} allocs/step) → batch {MAILBOX_BATCH} {:.0}k steps/s ({:.2} allocs/step), \
         {speedup:.2}x",
        events.len(),
        single.events_per_s / 1e3,
        single.allocs_per_event,
        batched.events_per_s / 1e3,
        batched.allocs_per_event,
    );
    json_sections.push(format!(
        "  \"mailbox_drain\": {{\"n\": {n}, \"events\": {}, \"batch\": {MAILBOX_BATCH}, \
         \"steps_per_s\": {:.0}, \"batch1_steps_per_s\": {:.0}, \"speedup\": {speedup:.2}, \
         \"allocs_per_step\": {:.3}, \"batch1_allocs_per_step\": {:.3}}}",
        events.len(),
        batched.events_per_s,
        single.events_per_s,
        batched.allocs_per_event,
        single.allocs_per_event,
    ));

    assert!(
        speedup >= 2.0,
        "batch-{MAILBOX_BATCH} stepping must drain the mailbox ≥ 2x as fast as batch-1 \
         (got {speedup:.2}x)"
    );
    println!("mailbox-drain speedup: {speedup:.2}x (required ≥ 2x)");
}

fn main() {
    let sizes: &[usize] = if smoke() { &[4, 16] } else { &[4, 16, 40] };
    let horizon: u64 = if smoke() { 150 } else { 400 };

    assert_steady_state_is_alloc_free();

    let mut json_sections: Vec<String> = Vec::new();
    run_mailbox_gate(&mut json_sections);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();
    for &n in sizes {
        let sample = run_pipeline(n, horizon);
        assert!(sample.tip > 0, "the pipeline must finalize blocks (n={n})");
        rows.push(vec![
            n.to_string(),
            format!("{:.0}k", sample.steps_per_s / 1e3),
            format!("{:.2}", sample.allocs_per_step),
            format!("{:.0}", sample.bytes_per_step),
            format!("{:.0}k", sample.blocks_per_s / 1e3),
        ]);
        json_entries.push(format!(
            "    {{\"n\": {n}, \"steps_per_s\": {:.0}, \"allocs_per_step\": {:.3}, \
             \"bytes_per_step\": {:.1}, \"blocks_per_s\": {:.0}}}",
            sample.steps_per_s, sample.allocs_per_step, sample.bytes_per_step, sample.blocks_per_s,
        ));

        // Sim-level steady-state allocation bound: the full harness (event
        // queue, slot turnover, outputs) plus the durable store add
        // bookkeeping on top of the zero-alloc dispatch, but the good
        // case must stay bounded.
        assert!(
            sample.allocs_per_step < 6.0,
            "good-case allocations per step must stay below 6.0, got {:.3} at n={n}",
            sample.allocs_per_step
        );
    }

    print_table(
        "Good-case pipeline hot path (durable nodes)",
        &["n", "steps/s", "allocs/step", "B/step", "blocks/s"],
        &rows,
    );

    json_sections.push(format!("  \"pipeline_hotpath\": [\n{}\n  ]", json_entries.join(",\n")));
    println!("\n{{\n{}\n}}", json_sections.join(",\n"));
}
