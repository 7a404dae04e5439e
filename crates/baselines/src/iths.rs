//! Information-Theoretic HotStuff (IT-HS), the closest competitor in
//! Table 1: responsive, constant storage, O(n²) communication — but a
//! good-case latency of **6** message delays (propose, echo, key-1, key-2,
//! key-3, lock) against TetraBFT's 5, and **9** with a view change
//! (view-change, request, suggest, then the six phases).
//!
//! The paper's Section 1.2 explains *why* IT-HS needs the extra echo phase:
//! unlocked well-behaved nodes may echo unsafe values, so `f+1` echoes prove
//! nothing and value safety is only established at key-1. This
//! implementation keeps that structure: echoes are unconditional, locks
//! gate key-1.

use tetrabft_sim::{Context, Input, Node, TimerId, WireSize};
use tetrabft_types::{Config, NodeId, Value, View, VoteInfo};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

use crate::common::{PhaseRegisters, ViewChangeEngine, ViewChangeVerdict};
use tetrabft::Params;

/// Phase indices into the register file.
const ECHO: usize = 0;
const KEY1: usize = 1;
const KEY2: usize = 2;
const KEY3: usize = 3;
const LOCK: usize = 4;

/// The view timer.
pub const VIEW_TIMER: TimerId = TimerId(0);

/// IT-HS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IthsMsg {
    /// Leader's proposal.
    Propose {
        /// View.
        view: View,
        /// Proposed value.
        value: Value,
    },
    /// Unconditional relay of the proposal (the phase TetraBFT eliminates).
    Echo {
        /// View.
        view: View,
        /// Echoed value.
        value: Value,
    },
    /// The three key phases.
    Key {
        /// Key level 1–3.
        level: u8,
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Lock phase; a quorum of locks decides.
    Lock {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// New leader's state pull after a view change.
    Request {
        /// The new view.
        view: View,
    },
    /// Reply to [`IthsMsg::Request`]: the sender's key-3 and lock state.
    Suggest {
        /// The new view.
        view: View,
        /// Highest key-3 sent.
        key3: Option<VoteInfo>,
        /// Highest lock sent.
        lock: Option<VoteInfo>,
    },
    /// View-change request.
    ViewChange {
        /// Requested view.
        view: View,
    },
}

impl Wire for IthsMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            IthsMsg::Propose { view, value } => {
                w.put_u8(1);
                view.encode(w);
                value.encode(w);
            }
            IthsMsg::Echo { view, value } => {
                w.put_u8(2);
                view.encode(w);
                value.encode(w);
            }
            IthsMsg::Key { level, view, value } => {
                w.put_u8(3);
                w.put_u8(*level);
                view.encode(w);
                value.encode(w);
            }
            IthsMsg::Lock { view, value } => {
                w.put_u8(4);
                view.encode(w);
                value.encode(w);
            }
            IthsMsg::Request { view } => {
                w.put_u8(5);
                view.encode(w);
            }
            IthsMsg::Suggest { view, key3, lock } => {
                w.put_u8(6);
                view.encode(w);
                key3.encode(w);
                lock.encode(w);
            }
            IthsMsg::ViewChange { view } => {
                w.put_u8(7);
                view.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(IthsMsg::Propose { view: View::decode(r)?, value: Value::decode(r)? }),
            2 => Ok(IthsMsg::Echo { view: View::decode(r)?, value: Value::decode(r)? }),
            3 => {
                let level = r.get_u8()?;
                if !(1..=3).contains(&level) {
                    return Err(WireError::InvalidTag { what: "IthsMsg::Key", tag: level });
                }
                Ok(IthsMsg::Key { level, view: View::decode(r)?, value: Value::decode(r)? })
            }
            4 => Ok(IthsMsg::Lock { view: View::decode(r)?, value: Value::decode(r)? }),
            5 => Ok(IthsMsg::Request { view: View::decode(r)? }),
            6 => Ok(IthsMsg::Suggest {
                view: View::decode(r)?,
                key3: Option::decode(r)?,
                lock: Option::decode(r)?,
            }),
            7 => Ok(IthsMsg::ViewChange { view: View::decode(r)? }),
            tag => Err(WireError::InvalidTag { what: "IthsMsg", tag }),
        }
    }
}

impl WireSize for IthsMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}

/// A peer's latest suggest: `(view, key3, lock)`.
type SuggestRecord = (View, Option<VoteInfo>, Option<VoteInfo>);

/// A well-behaved IT-HS node.
#[derive(Debug)]
pub struct IthsNode {
    cfg: Config,
    params: Params,
    me: NodeId,
    input: Value,
    view: View,
    regs: PhaseRegisters<5>,
    vc: ViewChangeEngine,
    /// Per-peer latest suggest (view, key3, lock) — leader state.
    suggests: Vec<Option<SuggestRecord>>,
    proposal: Option<(View, Value)>,
    /// Once-per-view send guards: echo, key1..3, lock.
    sent: [Option<View>; 5],
    requested: Option<View>,
    proposed: Option<View>,
    /// Persistent: highest key-3 and lock this node ever sent.
    key3: Option<VoteInfo>,
    lock: Option<VoteInfo>,
    decided: Option<Value>,
}

impl IthsNode {
    /// Creates a node with the given identity and input value.
    pub fn new(cfg: Config, params: Params, me: NodeId, input: Value) -> Self {
        IthsNode {
            cfg,
            params,
            me,
            input,
            view: View::ZERO,
            regs: PhaseRegisters::new(&cfg),
            vc: ViewChangeEngine::new(&cfg),
            suggests: vec![None; cfg.n()],
            proposal: None,
            sent: [None; 5],
            requested: None,
            proposed: None,
            key3: None,
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
        // The new leader pulls state with a Request; followers answer with
        // Suggest (the request/suggest pair behind IT-HS's 9-delay view
        // change).
        if self.leader(view) == self.me && !view.is_zero() {
            self.requested = Some(view);
            ctx.broadcast(IthsMsg::Request { view });
        }
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut dirty = false;
            // View-change engine.
            match self.vc.poll(&self.cfg, self.view) {
                ViewChangeVerdict::Enter(v) => {
                    self.enter_view(v, ctx);
                    dirty = true;
                }
                ViewChangeVerdict::Echo(v) => {
                    self.vc.sent = Some(v);
                    ctx.broadcast(IthsMsg::ViewChange { view: v });
                    dirty = true;
                }
                ViewChangeVerdict::Idle => {}
            }
            dirty |= self.step_propose(ctx);
            dirty |= self.step_echo(ctx);
            dirty |= self.step_keys(ctx);
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
            // Responsive: propose as soon as a quorum of suggests for this
            // view arrived; adopt the value of the highest key-3/lock.
            let fresh: Vec<_> =
                self.suggests.iter().flatten().filter(|(v, _, _)| *v == self.view).collect();
            if !self.cfg.is_quorum(fresh.len()) {
                return false;
            }
            let best = fresh
                .iter()
                .filter_map(|(_, key3, lock)| match (key3, lock) {
                    (Some(k), Some(l)) => Some(if l.view >= k.view { *l } else { *k }),
                    (Some(k), None) => Some(*k),
                    (None, Some(l)) => Some(*l),
                    (None, None) => None,
                })
                .max_by_key(|vi| vi.view);
            best.map_or(self.input, |vi| vi.value)
        };
        self.proposed = Some(self.view);
        ctx.broadcast(IthsMsg::Propose { view: self.view, value });
        true
    }

    fn step_echo(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.already(ECHO) {
            return false;
        }
        let Some((view, value)) = self.proposal.filter(|(v, _)| *v == self.view) else {
            return false;
        };
        // Echo is *unconditional* — exactly the weakness Section 1.2 of the
        // TetraBFT paper points out.
        self.sent[ECHO] = Some(view);
        ctx.broadcast(IthsMsg::Echo { view, value });
        true
    }

    fn step_keys(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut dirty = false;
        // echo → key1 (lock-gated), key1 → key2, key2 → key3, key3 → lock.
        for (prev, next) in [(ECHO, KEY1), (KEY1, KEY2), (KEY2, KEY3), (KEY3, LOCK)] {
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
            if next == KEY1 {
                // Safety gate: a locked node refuses conflicting key-1s.
                if self.lock.is_some_and(|l| l.value != value) {
                    continue;
                }
            }
            self.sent[next] = Some(self.view);
            match next {
                KEY1 | KEY2 | KEY3 => {
                    if next == KEY3 {
                        self.key3 = Some(VoteInfo::new(self.view, value));
                    }
                    ctx.broadcast(IthsMsg::Key { level: next as u8, view: self.view, value });
                }
                LOCK => {
                    self.lock = Some(VoteInfo::new(self.view, value));
                    ctx.broadcast(IthsMsg::Lock { view: self.view, value });
                }
                _ => unreachable!(),
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

type Ctx<'a> = Context<'a, IthsMsg, Value>;

impl Node for IthsNode {
    type Msg = IthsMsg;
    type Output = Value;

    fn handle(&mut self, input: Input<IthsMsg>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => {
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                match msg {
                    IthsMsg::Propose { view, value } => {
                        if from == self.leader(view) && self.proposal.is_none_or(|(v, _)| view > v)
                        {
                            self.proposal = Some((view, value));
                        }
                    }
                    IthsMsg::Echo { view, value } => self.regs.record(from, ECHO, view, value),
                    IthsMsg::Key { level, view, value } if (1..=3).contains(&level) => {
                        self.regs.record(from, level as usize, view, value)
                    }
                    IthsMsg::Key { .. } => {}
                    IthsMsg::Lock { view, value } => self.regs.record(from, LOCK, view, value),
                    IthsMsg::Request { view } => {
                        if from == self.leader(view) && view >= self.view {
                            ctx.send(
                                from,
                                IthsMsg::Suggest { view, key3: self.key3, lock: self.lock },
                            );
                        }
                    }
                    IthsMsg::Suggest { view, key3, lock } => {
                        let slot = &mut self.suggests[from.index()];
                        if slot.is_none_or(|(v, _, _)| view > v) {
                            *slot = Some((view, key3, lock));
                        }
                    }
                    IthsMsg::ViewChange { view } => self.vc.record(from, view),
                }
                self.drive(ctx);
            }
            Input::Timer { id } if id == VIEW_TIMER => {
                let target = self.view.next().max(self.vc.sent.unwrap_or(View::ZERO));
                self.vc.sent = Some(target);
                ctx.broadcast(IthsMsg::ViewChange { view: target });
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
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

    fn sim_honest(n: usize) -> tetrabft_sim::Sim<IthsMsg, Value> {
        let cfg = Config::new(n).unwrap();
        SimBuilder::new(n).build(move |id| {
            IthsNode::new(cfg, Params::new(100), id, Value::from_u64(id.0 as u64 + 1))
        })
    }

    #[test]
    fn good_case_is_six_message_delays() {
        let mut sim = sim_honest(4);
        assert!(sim.run_until_outputs(4, 1_000_000));
        for o in sim.outputs() {
            assert_eq!(o.time, Time(6), "IT-HS good case is 6 delays (Table 1)");
        }
    }

    #[test]
    fn agreement_under_crash_leader() {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4).build_boxed(move |id| {
            if id == NodeId(0) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(IthsNode::new(cfg, Params::new(10), id, Value::from_u64(9)))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000));
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
    }

    #[test]
    fn view_change_costs_nine_delays() {
        // Crash the view-0 leader: decisions land 9 delays after the nodes
        // converge on view 1 (timeout at 9Δ = 90, then 9 more unit hops).
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4).build_boxed(move |id| {
            if id == NodeId(0) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(IthsNode::new(cfg, Params::new(10), id, Value::from_u64(9)))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000));
        // Timeout fires at 90; vc(91) request(92) suggest(93) propose(94)
        // echo(95) k1(96) k2(97) k3(98) lock(99): decide at t = 90 + 9.
        assert_eq!(sim.outputs()[0].time, Time(99));
    }

    #[test]
    fn messages_roundtrip() {
        use tetrabft_wire::Wire;
        for msg in [
            IthsMsg::Propose { view: View(1), value: Value::from_u64(2) },
            IthsMsg::Echo { view: View(1), value: Value::from_u64(2) },
            IthsMsg::Key { level: 2, view: View(1), value: Value::from_u64(2) },
            IthsMsg::Lock { view: View(1), value: Value::from_u64(2) },
            IthsMsg::Request { view: View(3) },
            IthsMsg::Suggest {
                view: View(3),
                key3: Some(VoteInfo::new(View(1), Value::from_u64(1))),
                lock: None,
            },
            IthsMsg::ViewChange { view: View(4) },
        ] {
            assert_eq!(IthsMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }
}
