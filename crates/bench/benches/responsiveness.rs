//! **E5 — optimistic responsiveness** (Sections 1–2): after GST, responsive
//! protocols decide in time proportional to the *actual* network delay δ
//! (TetraBFT within 7δ of the view change), while a non-responsive protocol
//! pays the conservative bound Δ regardless of how fast the network really
//! is.
//!
//! Scenario: the view-0 leader is crashed, Δ is fixed at 100 ticks, and the
//! actual per-hop delay δ sweeps 1..50. Reported: decision time after the
//! 9Δ timeout.

use tetrabft::Params;
use tetrabft_baselines::{BlogNode, IthsNode};
use tetrabft_bench::print_table;
use tetrabft_sim::{EdgeSpec, LinkPlan, Node, SilentNode, SimBuilder, WireSize};
use tetrabft_types::{Config, NodeId, Value};

fn recovery_after_timeout<M: WireSize + Clone + 'static>(
    delta: u64,
    hop: u64,
    build: impl Fn(NodeId) -> Box<dyn Node<Msg = M, Output = Value>>,
) -> u64 {
    let mut sim =
        SimBuilder::new(4).plan(&LinkPlan::uniform(EdgeSpec::delay(hop))).build_boxed(build);
    assert!(sim.run_until_outputs(3, 50_000_000));
    sim.outputs()[0].time.0 - Params::new(delta).view_timeout()
}

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let delta = 100u64;
    let deltas_actual = [1u64, 2, 5, 10, 20, 50];

    let mut rows = Vec::new();
    for &hop in &deltas_actual {
        // TetraBFT (responsive): expect ≈ 7δ.
        let tetra = recovery_after_timeout(delta, hop, |id| {
            if id == NodeId(0) {
                Box::new(SilentNode::new())
            } else {
                Box::new(tetrabft::TetraNode::new(cfg, Params::new(delta), id, Value::from_u64(7)))
            }
        });

        // IT-HS (responsive): expect ≈ 9δ.
        let iths = recovery_after_timeout(delta, hop, |id| {
            if id == NodeId(0) {
                Box::new(SilentNode::new())
            } else {
                Box::new(IthsNode::new(cfg, Params::new(delta), id, Value::from_u64(7)))
            }
        });

        // Blog IT-HS (non-responsive): expect ≈ Δ + 5δ, flat in δ.
        let blog = recovery_after_timeout(delta, hop, |id| {
            if id == NodeId(0) {
                Box::new(SilentNode::new())
            } else {
                Box::new(BlogNode::new(cfg, Params::new(delta), id, Value::from_u64(7)))
            }
        });

        rows.push(vec![
            hop.to_string(),
            format!("{tetra} (= {}δ)", tetra / hop),
            format!("{iths} (= {}δ)", iths / hop),
            format!("{blog} (Δ + {}δ)", blog.saturating_sub(delta) / hop),
        ]);

        assert_eq!(tetra, 7 * hop, "TetraBFT recovery must be exactly 7δ after GST");
        assert!(blog >= delta, "non-responsive recovery always pays Δ");
    }

    print_table(
        "Responsiveness — recovery latency after the 9Δ timeout (Δ = 100 fixed, δ sweeps)",
        &["δ (actual delay)", "TetraBFT", "IT-HS", "IT-HS blog (non-responsive)"],
        &rows,
    );

    println!(
        "\nReproduced: responsive protocols track δ (TetraBFT at 7δ — the paper's \
         'at most 7δ'; IT-HS at 9δ), while the non-responsive baseline is dominated \
         by the fixed Δ wait even on a fast network — the practical argument of \
         Section 1.2."
    );
}
