//! **Wire format v2 — measured bytes on the wire.** The paper's efficiency
//! headline is communication-optimal view changes (O(n) bytes per node per
//! view); this bench prices the *constant* in front of that O(n) by running
//! the single-shot view-change scenario at n ∈ {4, 8, 16} and accounting
//! every sent message under the live codec (varint kernel integers plus
//! delta-compressed suggest/proof payloads with a presence bitmap).
//!
//! Per-phase bytes are re-encoded from the recorded trace and cross-checked
//! against the simulator's per-kind [`Metrics`] counters. The run is
//! deterministic, so it asserts absolute ceilings — in smoke mode too:
//! view-change bytes (suggest + proof + view-change) and all bytes stay at
//! or below the figures recorded when this scenario was last measured (see
//! [`CEILINGS`]). A codec change that grows any of them fails the bench.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for the CI smoke run (n ∈ {4, 16}).

use std::collections::BTreeMap;

use tetrabft::{Message, Params, SuggestData, TetraNode};
use tetrabft_bench::print_table;
use tetrabft_sim::{Metrics, SilentNode, SimBuilder, TraceEvent};
use tetrabft_types::{Config, NodeId, Phase, Value, View, VoteInfo};
use tetrabft_wire::Wire;

/// The phases whose bytes the O(n)-per-node view-change claim is about.
const VIEW_CHANGE_KINDS: [&str; 3] = ["suggest", "proof", "view-change"];

/// `(n, view-change bytes, all bytes)` ceilings for the crashed-leader
/// view change: the v2 codec's measured bytes at each size.
const CEILINGS: [(usize, u64, u64); 3] = [(4, 51, 477), (8, 263, 2_489), (16, 1_167, 11_217)];

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

/// Message and byte totals for one message kind.
#[derive(Debug, Clone, Copy, Default)]
struct KindBytes {
    msgs: u64,
    bytes: u64,
}

/// Runs the crashed-leader view-change scenario and accounts every
/// non-loopback send.
fn run_view_change(n: usize) -> (BTreeMap<&'static str, KindBytes>, Metrics) {
    let cfg = Config::new(n).expect("valid n");
    let mut sim = SimBuilder::new(n).record_trace(true).build_boxed(move |id| {
        if id == NodeId(0) {
            Box::new(SilentNode::new())
        } else {
            Box::new(TetraNode::new(cfg, Params::new(10), id, Value::from_u64(id.0 as u64 + 1)))
        }
    });
    assert!(sim.run_until_outputs(n - 1, 50_000_000), "view change must decide at n={n}");

    let mut by_kind: BTreeMap<&'static str, KindBytes> = BTreeMap::new();
    for event in sim.trace().expect("trace enabled") {
        let TraceEvent::Sent { from, to, msg, .. } = event else { continue };
        if from == to {
            continue; // loopback is free, exactly as in Metrics
        }
        let e = by_kind.entry(msg.kind()).or_default();
        e.msgs += 1;
        e.bytes += msg.wire_len() as u64;
    }

    // The trace-derived totals must agree with the metrics counters —
    // the same numbers every other communication experiment reports.
    let metrics = sim.metrics().clone();
    for (kind, bytes) in &by_kind {
        let counted = metrics.kind(kind);
        assert_eq!(counted.bytes, bytes.bytes, "metrics vs trace mismatch for {kind}");
        assert_eq!(counted.msgs, bytes.msgs, "message count mismatch for {kind}");
    }
    let trace_total: u64 = by_kind.values().map(|b| b.bytes).sum();
    assert_eq!(trace_total, metrics.total_bytes_sent(), "metrics vs trace total mismatch");

    (by_kind, metrics)
}

/// Per-message sizes of representative protocol messages — the README's
/// byte-level table.
fn per_message_table() {
    let vi = |view: u64, val: u64| VoteInfo::new(View(view), Value::from_u64(val));
    let samples: Vec<(&str, Message)> = vec![
        ("proposal (view 1)", Message::Proposal { view: View(1), value: Value::from_u64(7) }),
        (
            "vote (any phase, view 1)",
            Message::Vote { phase: Phase::VOTE2, view: View(1), value: Value::from_u64(7) },
        ),
        ("view-change (view 1)", Message::ViewChange { view: View(1) }),
        (
            "suggest, no prior votes",
            Message::Suggest { view: View(1), data: SuggestData::default() },
        ),
        (
            "suggest, 3 prior votes",
            Message::Suggest {
                view: View(5),
                data: SuggestData {
                    vote2: Some(vi(4, 1)),
                    prev_vote2: Some(vi(2, 2)),
                    vote3: Some(vi(4, 1)),
                },
            },
        ),
    ];
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|(name, msg)| vec![(*name).to_string(), msg.wire_len().to_string()])
        .collect();
    print_table("Per-message sizes (bytes)", &["message", "bytes"], &rows);
}

fn main() {
    let sizes: &[usize] = if smoke() { &[4, 16] } else { &[4, 8, 16] };

    per_message_table();

    for &n in sizes {
        let (by_kind, metrics) = run_view_change(n);
        let rows: Vec<Vec<String>> = by_kind
            .iter()
            .map(|(kind, b)| vec![(*kind).to_string(), b.msgs.to_string(), b.bytes.to_string()])
            .collect();
        print_table(
            &format!(
                "Per-phase bytes, crashed-leader view change, n={n} \
                 (total on the wire: {} B, max/node {} B)",
                metrics.total_bytes_sent(),
                metrics.max_node_bytes_sent()
            ),
            &["phase", "msgs", "bytes"],
            &rows,
        );

        let view_change: u64 =
            VIEW_CHANGE_KINDS.iter().filter_map(|kind| by_kind.get(kind)).map(|b| b.bytes).sum();
        let total = metrics.total_bytes_sent();
        let (_, vc_ceiling, total_ceiling) =
            *CEILINGS.iter().find(|(size, ..)| *size == n).expect("a ceiling per size");
        println!(
            "\nn={n}: view-change traffic {view_change} B (ceiling {vc_ceiling}); \
             all traffic {total} B (ceiling {total_ceiling})"
        );
        assert!(
            view_change <= vc_ceiling,
            "view-change bytes at n={n} grew past the ceiling: {view_change} > {vc_ceiling}"
        );
        assert!(
            total <= total_ceiling,
            "all bytes at n={n} grew past the ceiling: {total} > {total_ceiling}"
        );
    }
}
