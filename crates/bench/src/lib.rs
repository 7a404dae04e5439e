//! Shared measurement harness for the table/figure reproduction benches.
//!
//! Every `benches/*.rs` target regenerates one artifact of the paper
//! (Table 1, Fig. 2, Fig. 3, the Section 5 verification, or a quantitative
//! claim from the text); this library holds the scenario runners they
//! share. Each bench asserts its paper-vs-measured figures as it runs.

// `deny`, not `forbid`: the allocation-counting module implements
// `GlobalAlloc`, which requires `unsafe` and carries a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc_count;

pub use alloc_count::{AllocSnapshot, CountingAlloc};

use std::hint::black_box;
use std::time::{Duration, Instant};

use tetrabft::{Params, TetraNode};
use tetrabft_baselines::pbft::PbftMsg;
use tetrabft_baselines::{BlogNode, IthsNode, PbftNode};
use tetrabft_sim::{EdgeSpec, FilteredNode, LinkPlan, SilentNode, Sim, SimBuilder, Time, WireSize};
use tetrabft_types::{Config, NodeId, Value};

/// Latency + communication measurements for one protocol scenario.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// First decision time in message delays.
    pub latency: u64,
    /// Total bytes all nodes handed to the network.
    pub total_bytes: u64,
    /// Largest per-node byte count.
    pub max_node_bytes: u64,
    /// Total messages sent.
    pub total_msgs: u64,
}

fn measure<M, O>(mut sim: Sim<M, O>, outputs: usize) -> Measurement
where
    M: WireSize + Clone,
{
    assert!(
        sim.run_until_outputs(outputs, 50_000_000),
        "scenario failed to produce {outputs} outputs"
    );
    Measurement {
        latency: sim.outputs()[0].time.0,
        total_bytes: sim.metrics().total_bytes_sent(),
        max_node_bytes: sim.metrics().max_node_bytes_sent(),
        total_msgs: sim.metrics().total_msgs_sent(),
    }
}

/// Which run to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Synchronous from the start, all leaders correct, unit delays.
    GoodCase,
    /// The leader of view 0 is crashed; latency is reported relative to the
    /// `9Δ` timeout so it counts the *view-change* message delays.
    ViewChange {
        /// Δ in ticks (hops stay unit-delay).
        delta: u64,
    },
}

/// Protocols under comparison in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// TetraBFT (this paper).
    Tetra,
    /// Information-Theoretic HotStuff.
    Iths,
    /// IT-HS blog version (non-responsive).
    IthsBlog,
    /// Bounded-storage PBFT.
    Pbft,
}

impl Protocol {
    /// Display name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tetra => "TetraBFT",
            Protocol::Iths => "IT-HS",
            Protocol::IthsBlog => "IT-HS (blog version)",
            Protocol::Pbft => "PBFT (bounded)",
        }
    }

    /// Paper-reported (good-case, view-change) latencies in message delays.
    pub fn paper_latencies(self) -> (u64, u64) {
        match self {
            Protocol::Tetra => (5, 7),
            Protocol::Iths => (6, 9),
            Protocol::IthsBlog => (4, 5),
            Protocol::Pbft => (3, 7),
        }
    }

    /// Paper-reported responsiveness.
    pub fn responsive(self) -> &'static str {
        match self {
            Protocol::IthsBlog => "non-responsive",
            _ => "responsive",
        }
    }
}

/// Runs `protocol` under `scenario` with `n` nodes and per-hop delay
/// `hop` ticks, measuring the first decision.
pub fn run_protocol(protocol: Protocol, scenario: Scenario, n: usize, hop: u64) -> Measurement {
    let cfg = Config::new(n).expect("valid n");
    let (params, crash_leader) = match scenario {
        Scenario::GoodCase => (Params::new(1_000_000), false),
        Scenario::ViewChange { delta } => (Params::new(delta), true),
    };
    let plan = LinkPlan::uniform(EdgeSpec::delay(hop));
    let outputs = if crash_leader { n - 1 } else { n };
    match protocol {
        Protocol::Tetra => {
            let sim = SimBuilder::new(n).plan(&plan).build_boxed(move |id| {
                if crash_leader && id == NodeId(0) {
                    Box::new(SilentNode::new())
                } else {
                    Box::new(TetraNode::new(cfg, params, id, Value::from_u64(id.0 as u64 + 1)))
                }
            });
            measure(sim, outputs)
        }
        Protocol::Iths => {
            let sim = SimBuilder::new(n).plan(&plan).build_boxed(move |id| {
                if crash_leader && id == NodeId(0) {
                    Box::new(SilentNode::new())
                } else {
                    Box::new(IthsNode::new(cfg, params, id, Value::from_u64(id.0 as u64 + 1)))
                }
            });
            measure(sim, outputs)
        }
        Protocol::IthsBlog => {
            let sim = SimBuilder::new(n).plan(&plan).build_boxed(move |id| {
                if crash_leader && id == NodeId(0) {
                    Box::new(SilentNode::new())
                } else {
                    Box::new(BlogNode::new(cfg, params, id, Value::from_u64(id.0 as u64 + 1)))
                }
            });
            measure(sim, outputs)
        }
        Protocol::Pbft => {
            let sim = SimBuilder::new(n).plan(&plan).build_boxed(move |id| {
                if crash_leader && id == NodeId(0) {
                    Box::new(SilentNode::new())
                } else {
                    Box::new(PbftNode::new(cfg, params, id, Value::from_u64(id.0 as u64 + 1)))
                }
            });
            measure(sim, outputs)
        }
    }
}

/// View-change latency in message delays: decision time minus the `9Δ`
/// timeout instant (hops are unit-delay in the view-change scenario).
pub fn view_change_delays(protocol: Protocol, n: usize, delta: u64) -> u64 {
    let m = run_protocol(protocol, Scenario::ViewChange { delta }, n, 1);
    let timeout = Params::new(delta).view_timeout();
    m.latency.saturating_sub(timeout)
}

/// Runs PBFT through a *loaded* view change: view 0 reaches the prepared
/// state everywhere, stalls, and recovers in view 1 with full certificates
/// on the wire. Returns the communication measurement (the O(n³) scenario
/// of experiment E6).
pub fn pbft_loaded_view_change(n: usize, delta: u64) -> Measurement {
    let cfg = Config::new(n).expect("valid n");
    let params = Params::new(delta);
    // Every view-0 commit is swallowed: the view completes its prepare
    // phase, so every node holds a full O(n) prepared certificate, but
    // stalls before deciding. That forces the *worst-case* view change
    // Table 1 prices at O(n³) total bits: certificate-carrying view-changes
    // from all nodes plus the O(n²) new-view bundle.
    let sim = SimBuilder::new(n).build(move |id| {
        let node = PbftNode::new(cfg, params, id, Value::from_u64(u64::from(id.0) + 1));
        FilteredNode::new(
            node,
            |_, m: &PbftMsg| !matches!(m, PbftMsg::Commit { view, .. } if view.is_zero()),
        )
    });
    measure(sim, n)
}

/// Pretty-prints a Markdown-ish table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        format!("| {} |", padded.join(" | "))
    };
    println!("{}", fmt_row(header.iter().map(|s| s.to_string()).collect()));
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Median wall time of one call of `body` over `samples` timed samples.
///
/// A warm-up probe sizes each sample to a run of calls lasting about
/// 2 ms, so fast bodies are not lost in timer resolution; the median of
/// the per-call times shrugs off a noisy sample. With
/// `TETRABFT_BENCH_SMOKE` set, `body` runs once and that call's time is
/// returned: the bench runs end to end, its figures mean little.
pub fn median_time<O>(samples: usize, mut body: impl FnMut() -> O) -> Duration {
    fn per_call<O>(calls: u32, body: &mut impl FnMut() -> O) -> Duration {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(body());
        }
        start.elapsed() / calls
    }
    if std::env::var_os("TETRABFT_BENCH_SMOKE").is_some() {
        return per_call(1, &mut body);
    }
    let probe = Instant::now();
    let mut probed: u32 = 0;
    while probed == 0 || probe.elapsed() < Duration::from_millis(20) {
        black_box(body());
        probed += 1;
    }
    let probed_ns = (probe.elapsed() / probed).as_nanos().max(1);
    let calls = (Duration::from_millis(2).as_nanos() / probed_ns).clamp(1, 1_000_000) as u32;
    let mut times: Vec<Duration> =
        (0..samples.max(1)).map(|_| per_call(calls, &mut body)).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Log-log slope between two (x, y) samples — the empirical scaling
/// exponent used by the communication experiments.
pub fn scaling_exponent(x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
    ((y1 / y0).ln()) / ((x1 / x0).ln())
}

/// Time horizon helper for throughput runs.
pub fn horizon(ticks: u64) -> Time {
    Time(ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies_match_paper_at_n4() {
        for protocol in [Protocol::Tetra, Protocol::Iths, Protocol::IthsBlog, Protocol::Pbft] {
            let (good, _) = protocol.paper_latencies();
            let m = run_protocol(protocol, Scenario::GoodCase, 4, 1);
            assert_eq!(m.latency, good, "{} good case", protocol.name());
        }
    }

    #[test]
    fn responsive_view_change_latencies_match_paper() {
        for protocol in [Protocol::Tetra, Protocol::Iths, Protocol::Pbft] {
            let (_, vc) = protocol.paper_latencies();
            let got = view_change_delays(protocol, 4, 10);
            assert_eq!(got, vc, "{} view change", protocol.name());
        }
    }

    #[test]
    fn median_time_times_one_call() {
        let mut calls = 0u32;
        let t = median_time(3, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(calls >= 1);
        assert!(t >= Duration::from_millis(1) && t < Duration::from_secs(1), "got {t:?}");
    }

    #[test]
    fn scaling_exponent_sanity() {
        let e = scaling_exponent(4.0, 16.0, 8.0, 64.0);
        assert!((e - 2.0).abs() < 1e-9);
    }
}
