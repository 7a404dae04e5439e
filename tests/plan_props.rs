//! Property tests for the link-plan grammar: `Display` → `FromStr`
//! round-trips for [`EdgeSpec`], [`PartitionWindow`], and whole
//! [`LinkPlan`]s (including fuzzer-sampled ones), plus hostile-input parse
//! tests pinning the typed [`PlanParseError`]s.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrabft_sim::{Cut, EdgeSpec, LinkPlan, PartitionWindow, PlanParseError};
use tetrabft_types::NodeId;

/// A window over `ids` with any combination of the two attributes: which
/// edges it cuts (`cut` picks one of the three) and whether it loses them.
fn window(start: u64, end: u64, ids: Vec<NodeId>, (cut, lost): (u8, bool)) -> PartitionWindow {
    let cut = [Cut::Across, Cut::Outbound, Cut::Inbound][usize::from(cut)];
    let w = PartitionWindow::isolate(start, end, ids).with_cut(cut);
    if lost {
        w.lossy()
    } else {
        w
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every canonical `EdgeSpec` rendering parses back to the same spec,
    /// including the empty (IDEAL) rendering and exact drop ppm values.
    #[test]
    fn edge_spec_display_round_trips(
        delay in 0u64..=10_000,
        jitter in 0u64..=1_000,
        drop_ppm in 0u32..=1_000_000,
    ) {
        let mut spec = EdgeSpec::delay(delay).with_jitter(jitter);
        spec.drop_ppm = drop_ppm;
        let rendered = spec.to_string();
        let reparsed: EdgeSpec = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, spec, "rendering was `{}`", rendered);
    }

    /// Partition windows round-trip, with the group canonicalized (sorted,
    /// deduplicated) on both sides, in all three cuts, held or lost.
    #[test]
    fn partition_window_display_round_trips(
        start in 0u64..=100_000,
        len in 1u64..=50_000,
        group in proptest::collection::vec(0u16..16, 1..=6),
        attrs in (0u8..3, any::<bool>()),
    ) {
        let ids: Vec<NodeId> = group.into_iter().map(NodeId).collect();
        let window = window(start, start + len, ids, attrs);
        let rendered = window.to_string();
        let reparsed: PartitionWindow = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, window, "rendering was `{}`", rendered);
    }

    /// Whole plans — exactly as the fuzzer samples them, partitions and
    /// per-edge overrides included — survive a Display/FromStr round-trip.
    /// This is what makes `Scenario::to_rust_source` replays faithful.
    #[test]
    fn sampled_link_plans_round_trip(seed in any::<u64>(), n in 2usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = LinkPlan::sample(&mut rng, n, 2_000, 3);
        let rendered = plan.to_string();
        let reparsed: LinkPlan = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, plan, "rendering was `{}`", rendered);
    }

    /// Hand-assembled plans round-trip too (sampling never emits the
    /// IDEAL-override or drop-fraction corners, so cover them here).
    #[test]
    fn assembled_link_plans_round_trip(
        base_delay in 1u64..=200,
        from in 0u16..6,
        to in 0u16..6,
        (part_start, part_len) in (0u64..=500, 1u64..=500),
        isolate in 0u16..6,
        attrs in (0u8..3, any::<bool>()),
    ) {
        let plan = LinkPlan::uniform(EdgeSpec::delay(base_delay))
            .link(NodeId(from), NodeId(to), EdgeSpec::IDEAL)
            .partition(window(part_start, part_start + part_len, vec![NodeId(isolate)], attrs));
        let rendered = plan.to_string();
        let reparsed: LinkPlan = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, plan, "rendering was `{}`", rendered);
    }
}

fn assert_parse_error<T>(result: Result<T, PlanParseError>, needle: &str) {
    let err = match result {
        Ok(_) => panic!("hostile input must not parse"),
        Err(err) => err,
    };
    let rendered = err.to_string();
    assert!(
        rendered.starts_with("invalid link-plan fragment:"),
        "typed error renders with its prefix: {rendered}"
    );
    assert!(rendered.contains(needle), "expected `{needle}` in: {rendered}");
}

#[test]
fn hostile_edge_specs_yield_typed_errors() {
    assert_parse_error("delay".parse::<EdgeSpec>(), "expected key=value");
    assert_parse_error("delay=fast".parse::<EdgeSpec>(), "bad delay");
    assert_parse_error("delay=99999999999999999999999".parse::<EdgeSpec>(), "bad delay");
    assert_parse_error("jitter=-4".parse::<EdgeSpec>(), "bad jitter");
    assert_parse_error("drop=1.5".parse::<EdgeSpec>(), "outside 0..=1");
    assert_parse_error("drop_ppm=1000001".parse::<EdgeSpec>(), "above 1000000");
    assert_parse_error("drop_ppm=-1".parse::<EdgeSpec>(), "bad drop_ppm");
    assert_parse_error("latency=30".parse::<EdgeSpec>(), "unknown key");
    // And the degenerate-but-valid corner: the empty spec is IDEAL.
    assert_eq!("".parse::<EdgeSpec>().unwrap(), EdgeSpec::IDEAL);
}

#[test]
fn hostile_partition_windows_yield_typed_errors() {
    assert_parse_error("10..20".parse::<PartitionWindow>(), "expected range:group");
    assert_parse_error("10:0".parse::<PartitionWindow>(), "expected start..end");
    assert_parse_error("ten..20:0".parse::<PartitionWindow>(), "bad start");
    assert_parse_error("10..twenty:0".parse::<PartitionWindow>(), "bad end");
    assert_parse_error("99999999999999999999999..7:0".parse::<PartitionWindow>(), "bad start");
    // Reversed and empty windows are rejected, not silently normalized.
    assert_parse_error("500..100:1".parse::<PartitionWindow>(), "empty window");
    assert_parse_error("5..5:0".parse::<PartitionWindow>(), "empty window");
    // Empty groups would partition nobody.
    assert_parse_error("10..20:".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20: , ,".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20:0,node3".parse::<PartitionWindow>(), "bad node id");
    assert_parse_error("10..20:70000".parse::<PartitionWindow>(), "bad node id");
    // Flags: one cut, at most once lost, nothing else.
    assert_parse_error("10..20:0/up".parse::<PartitionWindow>(), "bad or repeated window flag");
    assert_parse_error("10..20:0/in/out".parse::<PartitionWindow>(), "bad or repeated");
    assert_parse_error("10..20:0/lost/lost".parse::<PartitionWindow>(), "bad or repeated");
}

#[test]
fn hostile_link_plans_yield_typed_errors() {
    assert_parse_error("bogus(delay=1)".parse::<LinkPlan>(), "bogus");
    assert_parse_error("default(delay=1); edge(0-3)".parse::<LinkPlan>(), "");
    assert_parse_error("default(delay=1".parse::<LinkPlan>(), "");
    assert_parse_error("part(20..10:0)".parse::<LinkPlan>(), "empty window");
    assert_parse_error("edge(0->x,delay=5)".parse::<LinkPlan>(), "");
    // The empty plan parses as the default (ideal links, no partitions).
    assert_eq!("".parse::<LinkPlan>().unwrap(), LinkPlan::default());
}
