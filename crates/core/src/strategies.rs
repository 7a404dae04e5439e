//! Byzantine strategies for Basic TetraBFT, used by the safety test suite,
//! the Byzantine-lab example and the benchmarks.
//!
//! Each strategy is a [`tetrabft_sim::Node`] speaking the TetraBFT
//! [`Message`] type but deviating from the protocol. Safety tests assert
//! that **agreement holds regardless** of what these actors do, as long as
//! at most `f` of them are placed in the system.

use tetrabft_sim::{Context, Input, Node};
use tetrabft_types::{Config, Phase, Value, View, VoteInfo};

use crate::msg::{Message, ProofData, SuggestData};

/// A leader that equivocates at view 0: proposes value `a` to the first half
/// of the nodes and value `b` to the rest, then (optionally) keeps voting
/// for both sides.
///
/// This is the classic split-vote attack; TetraBFT's quorum intersection
/// must prevent both halves from deciding differently.
#[derive(Debug, Clone)]
pub struct EquivocatingLeader {
    cfg: Config,
    a: Value,
    b: Value,
    /// Also send conflicting vote-1..4 to the two halves.
    pub vote_both_ways: bool,
}

impl EquivocatingLeader {
    /// Creates the attacker with the two values it will push.
    pub fn new(cfg: Config, a: Value, b: Value) -> Self {
        EquivocatingLeader { cfg, a, b, vote_both_ways: true }
    }

    fn split_send(&self, ctx: &mut Context<'_, Message, Value>, make: impl Fn(Value) -> Message) {
        let half = self.cfg.n() / 2;
        for node in self.cfg.nodes() {
            let value = if node.index() < half { self.a } else { self.b };
            ctx.send(node, make(value));
        }
    }
}

impl Node for EquivocatingLeader {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        // Plant the split at startup; stay silent afterwards.
        if let Input::Start = input {
            self.split_send(ctx, |value| Message::Proposal { view: View::ZERO, value });
            if self.vote_both_ways {
                for phase in Phase::ALL {
                    self.split_send(ctx, |value| Message::Vote { phase, view: View::ZERO, value });
                }
            }
        }
    }
}

/// A node that echoes every vote phase for *every* value it has seen, in
/// every view it hears about — maximal vote amplification.
#[derive(Debug, Clone)]
pub struct VoteAmplifier {
    seen: Vec<(View, Value)>,
}

impl VoteAmplifier {
    /// Creates the amplifier.
    pub fn new() -> Self {
        VoteAmplifier { seen: Vec::new() }
    }
}

impl Default for VoteAmplifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for VoteAmplifier {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        let Input::Deliver { from, msg } = input else { return };
        if from == ctx.me() {
            return; // never react to our own loopback — avoids self-storms
        }
        let (view, value) = match msg {
            Message::Proposal { view, value } | Message::Vote { view, value, .. } => (view, value),
            _ => return,
        };
        if self.seen.contains(&(view, value)) {
            return;
        }
        // Bound the attacker's own memory so long adversarial runs don't
        // degenerate; 64 distinct (view, value) pairs is plenty of chaos.
        if self.seen.len() >= 64 {
            self.seen.remove(0);
        }
        self.seen.push((view, value));
        for phase in Phase::ALL {
            ctx.broadcast(Message::Vote { phase, view, value });
        }
    }
}

/// A node that answers every view entry with maximally misleading
/// suggest/proof payloads: it fabricates high-view votes for `poison`,
/// trying to trick leaders and voters into certifying it.
#[derive(Debug, Clone)]
pub struct LyingHistorian {
    cfg: Config,
    poison: Value,
    answered_up_to: Option<View>,
}

impl LyingHistorian {
    /// Creates the liar pushing `poison`.
    pub fn new(cfg: Config, poison: Value) -> Self {
        LyingHistorian { cfg, poison, answered_up_to: None }
    }
}

impl Node for LyingHistorian {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        let Input::Deliver { from, msg } = input else { return };
        if from == ctx.me() {
            return; // never react to our own loopback — avoids self-storms
        }
        // Whenever anyone view-changes, flood fabricated history for the
        // target view (once per view).
        if let Message::ViewChange { view } = msg {
            if self.answered_up_to.is_some_and(|v| view <= v) {
                return;
            }
            self.answered_up_to = Some(view);
            let fake = Some(VoteInfo::new(View(view.0.saturating_sub(1)), self.poison));
            ctx.broadcast(Message::Proof {
                view,
                data: ProofData { vote1: fake, prev_vote1: None, vote4: fake },
            });
            ctx.send(
                self.cfg.leader_of(view),
                Message::Suggest {
                    view,
                    data: SuggestData { vote2: fake, prev_vote2: None, vote3: fake },
                },
            );
            ctx.broadcast(Message::ViewChange { view });
        }
    }
}

/// A node that joins the protocol honestly for `views`, then goes silent —
/// models a crash mid-protocol (the vote book it leaves behind still
/// constrains future views through other nodes' records of its votes).
#[derive(Debug)]
pub struct LateCrash {
    inner: crate::TetraNode,
    crash_after: View,
}

impl LateCrash {
    /// Wraps an honest node that stops participating after `crash_after`.
    pub fn new(inner: crate::TetraNode, crash_after: View) -> Self {
        LateCrash { inner, crash_after }
    }
}

impl Node for LateCrash {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        if self.inner.view() > self.crash_after {
            return;
        }
        self.inner.handle(input, ctx);
    }
}

/// A node that replays every message it receives back into the network a
/// view late, stressing the stale-message handling of the registers.
#[derive(Debug, Clone, Default)]
pub struct StaleReplayer;

impl Node for StaleReplayer {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        let Input::Deliver { from, msg } = input else { return };
        if from == ctx.me() {
            return; // never react to our own loopback — avoids self-storms
        }
        // Replay votes shifted one view down (stale) and one view up
        // (premature), both of which honest registers must tolerate.
        if let Message::Vote { phase, view, value } = msg {
            if let Some(prev) = view.prev() {
                ctx.broadcast(Message::Vote { phase, view: prev, value });
            }
            ctx.broadcast(Message::Vote { phase, view: view.next(), value });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, TetraNode};
    use tetrabft_sim::{EdgeSpec, LinkPlan, SimBuilder};
    use tetrabft_types::NodeId;

    fn cfg(n: usize) -> Config {
        Config::new(n).unwrap()
    }

    /// Runs n=4 with one Byzantine node at position 0 (leader of view 0)
    /// and asserts agreement among the three honest nodes.
    fn assert_agreement_with(byz: impl Fn(Config) -> Box<dyn Node<Msg = Message, Output = Value>>) {
        for seed in 0..5 {
            let n = 4;
            let mut sim = SimBuilder::new(n)
                .seed(seed)
                .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
                .build_boxed(|id| {
                    if id == NodeId(0) {
                        byz(cfg(4))
                    } else {
                        Box::new(TetraNode::new(
                            cfg(4),
                            Params::new(20),
                            id,
                            Value::from_u64(100 + id.0 as u64),
                        ))
                    }
                });
            assert!(sim.run_until_outputs(3, 10_000_000), "honest nodes must decide (seed {seed})");
            let first = sim.outputs()[0].output;
            assert!(
                sim.outputs().iter().all(|o| o.output == first),
                "agreement violated (seed {seed})"
            );
        }
    }

    #[test]
    fn equivocating_leader_cannot_split_agreement() {
        assert_agreement_with(|cfg| {
            Box::new(EquivocatingLeader::new(cfg, Value::from_u64(1), Value::from_u64(2)))
        });
    }

    #[test]
    fn vote_amplifier_cannot_break_agreement() {
        assert_agreement_with(|_| Box::new(VoteAmplifier::new()));
    }

    #[test]
    fn lying_historian_cannot_break_agreement() {
        assert_agreement_with(|cfg| Box::new(LyingHistorian::new(cfg, Value::from_u64(666))));
    }

    #[test]
    fn stale_replayer_cannot_break_agreement() {
        assert_agreement_with(|_| Box::new(StaleReplayer));
    }

    #[test]
    fn late_crash_cannot_break_agreement() {
        assert_agreement_with(|cfg| {
            Box::new(LateCrash::new(
                TetraNode::new(cfg, Params::new(20), NodeId(0), Value::from_u64(5)),
                View(0),
            ))
        });
    }
}
