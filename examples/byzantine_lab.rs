//! Byzantine lab: throw every attacker in `tetrabft::strategies` at the
//! protocol and watch agreement survive — the practical face of the
//! paper's Section 4 safety argument.
//!
//! ```sh
//! cargo run --example byzantine_lab
//! ```

use tetrabft::strategies::{
    EquivocatingLeader, LateCrash, LyingHistorian, StaleReplayer, VoteAmplifier,
};
use tetrabft_suite::prelude::*;

fn run_attack(
    name: &str,
    make_byz: impl Fn(Config) -> Box<dyn Node<Msg = Message, Output = Value>>,
) {
    let cfg = Config::new(4).unwrap();
    let mut agreed = 0;
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
        let decided = sim.run_until_outputs(3, 10_000_000);
        runs += 1;
        if decided {
            let first = sim.outputs()[0].output;
            if sim.outputs().iter().all(|o| o.output == first) {
                agreed += 1;
            } else {
                println!("  !!! AGREEMENT VIOLATED under {name} (seed {seed})");
                return;
            }
        }
    }
    println!("  {name:<22} {agreed}/{runs} runs decided, agreement in all of them ✓");
}

fn main() {
    println!("attacker occupies node 0 (the leader of view 0); f = 1 of n = 4\n");
    run_attack("equivocating leader", |cfg| {
        Box::new(EquivocatingLeader::new(cfg, Value::from_u64(1), Value::from_u64(2)))
    });
    run_attack("vote amplifier", |_| Box::new(VoteAmplifier::new()));
    run_attack("lying historian", |cfg| Box::new(LyingHistorian::new(cfg, Value::from_u64(666))));
    run_attack("stale replayer", |_| Box::new(StaleReplayer));
    run_attack("late crash", |cfg| {
        Box::new(LateCrash::new(
            TetraNode::new(cfg, Params::new(20), NodeId(0), Value::from_u64(5)),
            View(0),
        ))
    });
    println!("\nno attacker with f ≤ 1 nodes can split the decision — Theorem 1.");
}
