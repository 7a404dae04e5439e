//! The "blog version" of IT-HS (Abraham & Stern 2021, decentralizedthoughts
//! post): the **non-responsive** 4-phase protocol of Table 1 — propose,
//! echo, accept, lock — deciding in 4 message delays in the good case and 5
//! with a view change, but paying a *fixed* `Δ` wait before every post-view-
//! change proposal. Experiment E5 uses it as the non-responsive contrast:
//! its recovery latency tracks the conservative bound Δ, not the actual
//! network delay δ.

use tetrabft_sim::{Context, Input, Node, TimerId, WireSize};
use tetrabft_types::{Config, NodeId, Value, View, VoteInfo};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

use crate::common::{PhaseRegisters, ViewChangeEngine, ViewChangeVerdict};
use tetrabft::Params;

const ECHO: usize = 0;
const ACCEPT: usize = 1;
const LOCK: usize = 2;

/// The view timer.
pub const VIEW_TIMER: TimerId = TimerId(0);
/// The non-responsive leader wait: fires `Δ` after entering a view.
pub const WAIT_TIMER: TimerId = TimerId(1);

/// Blog-IT-HS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlogMsg {
    /// Leader's proposal.
    Propose {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Echo phase.
    Echo {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Accept phase.
    Accept {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Lock phase; a quorum decides.
    Lock {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// State report to the new leader.
    Suggest {
        /// The new view.
        view: View,
        /// Highest lock sent.
        lock: Option<VoteInfo>,
    },
    /// View-change request.
    ViewChange {
        /// Requested view.
        view: View,
    },
}

impl Wire for BlogMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            BlogMsg::Propose { view, value } => {
                w.put_u8(1);
                view.encode(w);
                value.encode(w);
            }
            BlogMsg::Echo { view, value } => {
                w.put_u8(2);
                view.encode(w);
                value.encode(w);
            }
            BlogMsg::Accept { view, value } => {
                w.put_u8(3);
                view.encode(w);
                value.encode(w);
            }
            BlogMsg::Lock { view, value } => {
                w.put_u8(4);
                view.encode(w);
                value.encode(w);
            }
            BlogMsg::Suggest { view, lock } => {
                w.put_u8(5);
                view.encode(w);
                lock.encode(w);
            }
            BlogMsg::ViewChange { view } => {
                w.put_u8(6);
                view.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(BlogMsg::Propose { view: View::decode(r)?, value: Value::decode(r)? }),
            2 => Ok(BlogMsg::Echo { view: View::decode(r)?, value: Value::decode(r)? }),
            3 => Ok(BlogMsg::Accept { view: View::decode(r)?, value: Value::decode(r)? }),
            4 => Ok(BlogMsg::Lock { view: View::decode(r)?, value: Value::decode(r)? }),
            5 => Ok(BlogMsg::Suggest { view: View::decode(r)?, lock: Option::decode(r)? }),
            6 => Ok(BlogMsg::ViewChange { view: View::decode(r)? }),
            tag => Err(WireError::InvalidTag { what: "BlogMsg", tag }),
        }
    }
}

impl WireSize for BlogMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}

/// A well-behaved node of the non-responsive blog-version IT-HS.
#[derive(Debug)]
pub struct BlogNode {
    cfg: Config,
    params: Params,
    me: NodeId,
    input: Value,
    view: View,
    regs: PhaseRegisters<3>,
    vc: ViewChangeEngine,
    suggests: Vec<Option<(View, Option<VoteInfo>)>>,
    proposal: Option<(View, Value)>,
    sent: [Option<View>; 3],
    proposed: Option<View>,
    /// Leader may propose in the current view only after the Δ wait.
    wait_done: Option<View>,
    lock: Option<VoteInfo>,
    decided: Option<Value>,
}

impl BlogNode {
    /// Creates a node with the given identity and input value.
    pub fn new(cfg: Config, params: Params, me: NodeId, input: Value) -> Self {
        BlogNode {
            cfg,
            params,
            me,
            input,
            view: View::ZERO,
            regs: PhaseRegisters::new(&cfg),
            vc: ViewChangeEngine::new(&cfg),
            suggests: vec![None; cfg.n()],
            proposal: None,
            sent: [None; 3],
            proposed: None,
            wait_done: None,
            lock: None,
            decided: None,
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<Value> {
        self.decided
    }

    fn leader(&self, view: View) -> NodeId {
        self.cfg.leader_of(view)
    }

    fn already(&self, phase: usize) -> bool {
        self.sent[phase].is_some_and(|v| v >= self.view)
    }

    fn enter_view(&mut self, view: View, ctx: &mut Ctx<'_>) {
        self.view = view;
        ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
        if !view.is_zero() {
            // Followers report state immediately…
            ctx.send(self.leader(view), BlogMsg::Suggest { view, lock: self.lock });
            // …but the leader must sit out a full Δ before proposing — the
            // non-responsive wait that guarantees every correct suggest has
            // arrived. This is what Table 1's "non-responsive" means.
            if self.leader(view) == self.me {
                ctx.set_timer(WAIT_TIMER, self.params.delta());
            }
        }
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut dirty = false;
            match self.vc.poll(&self.cfg, self.view) {
                ViewChangeVerdict::Enter(v) => {
                    self.enter_view(v, ctx);
                    dirty = true;
                }
                ViewChangeVerdict::Echo(v) => {
                    self.vc.sent = Some(v);
                    ctx.broadcast(BlogMsg::ViewChange { view: v });
                    dirty = true;
                }
                ViewChangeVerdict::Idle => {}
            }
            dirty |= self.step_propose(ctx);
            dirty |= self.step_phases(ctx);
            dirty |= self.step_decide(ctx);
            if !dirty {
                break;
            }
        }
    }

    fn step_propose(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.leader(self.view) != self.me || self.proposed.is_some_and(|v| v >= self.view) {
            return false;
        }
        let value = if self.view.is_zero() {
            self.input
        } else {
            // Non-responsive: wait for the Δ timer, then use whatever
            // suggests arrived (after GST that is all of them).
            if self.wait_done != Some(self.view) {
                return false;
            }
            self.suggests
                .iter()
                .flatten()
                .filter(|(v, _)| *v == self.view)
                .filter_map(|(_, lock)| *lock)
                .max_by_key(|l| l.view)
                .map_or(self.input, |l| l.value)
        };
        self.proposed = Some(self.view);
        ctx.broadcast(BlogMsg::Propose { view: self.view, value });
        true
    }

    fn step_phases(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut dirty = false;
        // propose → echo
        if !self.already(ECHO) {
            if let Some((view, value)) = self.proposal.filter(|(v, _)| *v == self.view) {
                self.sent[ECHO] = Some(view);
                ctx.broadcast(BlogMsg::Echo { view, value });
                dirty = true;
            }
        }
        // echo → accept (lock-gated), accept → lock
        for (prev, next) in [(ECHO, ACCEPT), (ACCEPT, LOCK)] {
            if self.already(next) {
                continue;
            }
            let Some((value, _)) = self
                .regs
                .tallies(prev, self.view)
                .into_iter()
                .find(|(_, c)| self.cfg.is_quorum(*c))
            else {
                continue;
            };
            if next == ACCEPT && self.lock.is_some_and(|l| l.value != value) {
                continue;
            }
            self.sent[next] = Some(self.view);
            if next == ACCEPT {
                ctx.broadcast(BlogMsg::Accept { view: self.view, value });
            } else {
                self.lock = Some(VoteInfo::new(self.view, value));
                ctx.broadcast(BlogMsg::Lock { view: self.view, value });
            }
            dirty = true;
        }
        dirty
    }

    fn step_decide(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.decided.is_some() {
            return false;
        }
        let Some((value, _)) =
            self.regs.tallies(LOCK, self.view).into_iter().find(|(_, c)| self.cfg.is_quorum(*c))
        else {
            return false;
        };
        self.decided = Some(value);
        ctx.output(value);
        true
    }
}

type Ctx<'a> = Context<'a, BlogMsg, Value>;

impl Node for BlogNode {
    type Msg = BlogMsg;
    type Output = Value;

    fn handle(&mut self, input: Input<BlogMsg>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => {
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                match msg {
                    BlogMsg::Propose { view, value } => {
                        if from == self.leader(view) && self.proposal.is_none_or(|(v, _)| view > v)
                        {
                            self.proposal = Some((view, value));
                        }
                    }
                    BlogMsg::Echo { view, value } => self.regs.record(from, ECHO, view, value),
                    BlogMsg::Accept { view, value } => self.regs.record(from, ACCEPT, view, value),
                    BlogMsg::Lock { view, value } => self.regs.record(from, LOCK, view, value),
                    BlogMsg::Suggest { view, lock } => {
                        let slot = &mut self.suggests[from.index()];
                        if slot.is_none_or(|(v, _)| view > v) {
                            *slot = Some((view, lock));
                        }
                    }
                    BlogMsg::ViewChange { view } => self.vc.record(from, view),
                }
                self.drive(ctx);
            }
            Input::Timer { id } if id == VIEW_TIMER => {
                let target = self.view.next().max(self.vc.sent.unwrap_or(View::ZERO));
                self.vc.sent = Some(target);
                ctx.broadcast(BlogMsg::ViewChange { view: target });
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                self.drive(ctx);
            }
            Input::Timer { id } if id == WAIT_TIMER => {
                self.wait_done = Some(self.view);
                self.drive(ctx);
            }
            Input::Timer { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_sim::{SimBuilder, Time};

    #[test]
    fn good_case_is_four_message_delays() {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .build(move |id| BlogNode::new(cfg, Params::new(100), id, Value::from_u64(5)));
        assert!(sim.run_until_outputs(4, 1_000_000));
        for o in sim.outputs() {
            assert_eq!(o.time, Time(4), "blog IT-HS good case is 4 delays (Table 1)");
        }
    }

    #[test]
    fn recovery_pays_the_full_delta_wait() {
        // Crash the view-0 leader with Δ=50 but actual unit delays: the new
        // leader cannot propose before its Δ wait elapses, so the decision
        // lands ≥ Δ after the view change — non-responsiveness in action.
        let cfg = Config::new(4).unwrap();
        let delta = 50;
        let mut sim = SimBuilder::new(4).build_boxed(move |id| {
            if id == NodeId(0) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(BlogNode::new(cfg, Params::new(delta), id, Value::from_u64(5)))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000));
        let timeout = Params::new(delta).view_timeout(); // 450
        let decided_at = sim.outputs()[0].time.0;
        assert!(
            decided_at >= timeout + delta,
            "decision at {decided_at} must include the Δ={delta} wait after timeout {timeout}"
        );
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
    }

    #[test]
    fn messages_roundtrip() {
        use tetrabft_wire::Wire;
        for msg in [
            BlogMsg::Propose { view: View(1), value: Value::from_u64(2) },
            BlogMsg::Echo { view: View(1), value: Value::from_u64(2) },
            BlogMsg::Accept { view: View(1), value: Value::from_u64(2) },
            BlogMsg::Lock { view: View(1), value: Value::from_u64(2) },
            BlogMsg::Suggest { view: View(2), lock: None },
            BlogMsg::ViewChange { view: View(2) },
        ] {
            assert_eq!(BlogMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }
}
