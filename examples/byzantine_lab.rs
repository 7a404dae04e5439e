//! Byzantine lab: throw attackers from `tetrabft-fuzz`'s behavior catalogue
//! (plus an honest node that goes silent after view 0) at the protocol and
//! watch agreement survive — the practical face of the paper's Section 4
//! safety argument. Exits 1 if any run breaks agreement or leaves an honest
//! node undecided.
//!
//! ```sh
//! cargo run --example byzantine_lab
//! ```

use tetrabft_fuzz::behaviors;
use tetrabft_suite::prelude::*;
use tetrabft_suite::sim::{Behavior, ByzantineActor, FilteredNode};

type DynNode = Box<dyn Node<Msg = Message, Output = Value>>;

/// An uncapped Byzantine actor running one behavior of the catalogue.
fn attacker(behavior: impl Behavior<Message> + 'static) -> DynNode {
    Box::new(ByzantineActor::new().with_behavior(behavior).with_budget(u64::MAX))
}

/// Runs ten seeds with the attacker at node 0; returns whether every honest
/// node (1, 2, 3) decided and all honest decisions agreed in every run.
fn run_attack(name: &str, make_byz: impl Fn(Config) -> DynNode) -> bool {
    let cfg = Config::new(4).unwrap();
    let honest = [NodeId(1), NodeId(2), NodeId(3)];
    let decided =
        |sim: &Sim<Message, Value>, id: NodeId| sim.outputs().iter().any(|o| o.node == id);
    let mut runs = 0;
    for seed in 0..10 {
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
            .build_boxed(|id| {
                if id == NodeId(0) {
                    make_byz(cfg)
                } else {
                    Box::new(TetraNode::new(
                        cfg,
                        Params::new(20),
                        id,
                        Value::from_u64(100 + u64::from(id.0)),
                    ))
                }
            });
        let mut steps = 0u64;
        while !honest.iter().all(|&id| decided(&sim, id)) && steps < 10_000_000 && sim.step() {
            steps += 1;
        }
        runs += 1;
        if let Some(id) = honest.iter().find(|&&id| !decided(&sim, id)) {
            println!("  !!! HONEST NODE {} DID NOT DECIDE under {name} (seed {seed})", id.0);
            return false;
        }
        let mut decisions = sim.outputs().iter().filter(|o| honest.contains(&o.node));
        let first = decisions.next().map(|o| o.output);
        if !decisions.all(|o| Some(o.output) == first) {
            println!("  !!! AGREEMENT VIOLATED under {name} (seed {seed})");
            return false;
        }
    }
    println!("  {name:<22} {runs}/{runs} runs decided, agreement in all of them ✓");
    true
}

fn main() {
    println!("attacker occupies node 0 (the leader of view 0); f = 1 of n = 4\n");
    let all_held = [
        run_attack("equivocating leader", |_| attacker(behaviors::equivocator(1))),
        run_attack("vote amplifier", |_| attacker(behaviors::vote_amplifier())),
        run_attack("lying historian", |_| {
            attacker(behaviors::lying_historian(Value::from_u64(666)))
        }),
        run_attack("stale replayer", |_| attacker(behaviors::stale_replayer())),
        run_attack("late crash", |cfg| {
            let inner = TetraNode::new(cfg, Params::new(20), NodeId(0), Value::from_u64(5));
            Box::new(FilteredNode::new(inner, |_, msg: &Message| msg.view() <= View(0)))
        }),
    ]
    .iter()
    .all(|&held| held);
    if !all_held {
        std::process::exit(1);
    }
    println!("\nno attacker with f ≤ 1 nodes can split the decision — Theorem 1.");
}
