//! The three ways to build a faulty replica:
//!
//! * [`SilentNode`] — a crash: the node never sends anything;
//! * [`ByzantineActor`] composed of [`Behavior`]s — a Byzantine replica
//!   that says whatever its behaviors push (the protocol-speaking attack
//!   catalogue lives in `tetrabft-fuzz`'s `behaviors` module);
//! * [`FilteredNode`] — an honest state machine whose sends are cut by a
//!   per-send predicate (selective silence, a withheld message kind, a
//!   crash after some view).

use std::marker::PhantomData;

use tetrabft_engine::{Action, ActionBuf, Context, Dest, Input, Node, Time, TimerId, WireSize};
use tetrabft_types::NodeId;

/// A node that never sends anything — models a crashed / silent Byzantine
/// node (the weakest adversary, but enough to force view changes).
///
/// # Examples
///
/// ```
/// use tetrabft_sim::SilentNode;
/// let _crash: SilentNode<u8, ()> = SilentNode::new();
/// ```
#[derive(Debug)]
pub struct SilentNode<M, O> {
    _marker: PhantomData<fn() -> (M, O)>,
}

impl<M, O> SilentNode<M, O> {
    /// Creates a silent node.
    pub fn new() -> Self {
        SilentNode { _marker: PhantomData }
    }
}

impl<M, O> Default for SilentNode<M, O> {
    fn default() -> Self {
        SilentNode::new()
    }
}

impl<M: WireSize + Clone, O> Node for SilentNode<M, O> {
    type Msg = M;
    type Output = O;
    fn handle(&mut self, _input: Input<M>, _ctx: &mut Context<'_, M, O>) {}
}

/// Environment snapshot handed to a [`Behavior`]: who the Byzantine node is,
/// how many nodes exist, and the current virtual time.
#[derive(Debug, Clone, Copy)]
pub struct BehaviorEnv {
    /// The Byzantine node's own id.
    pub me: NodeId,
    /// Number of nodes in the system.
    pub n: usize,
    /// Current virtual time.
    pub now: Time,
}

/// One composable Byzantine sub-strategy.
///
/// A behavior reacts to an input by queueing `(destination, message)` pairs;
/// the hosting [`ByzantineActor`] composes several behaviors, applies its
/// selective-silence filter and emission budget, and performs the sends.
/// Keeping behaviors send-only (no timers, no outputs) is what makes
/// arbitrary compositions safe: two behaviors can never fight over a timer.
pub trait Behavior<M> {
    /// Reacts to `input`, pushing any sends into `out`.
    ///
    /// `Dest::All` means "every *other* node" — the actor never delivers to
    /// itself, so behaviors cannot self-amplify through loopback.
    fn react(&mut self, input: &Input<M>, env: &BehaviorEnv, out: &mut Vec<(Dest, M)>);
}

/// A [`Behavior`] backed by a closure.
///
/// # Examples
///
/// A vote-echo behavior that replays every delivered message back at the
/// whole system:
///
/// ```
/// use tetrabft_sim::{BehaviorEnv, Dest, FnBehavior, Input};
///
/// let echo = FnBehavior::new(|input: &Input<u8>, _env: &BehaviorEnv, out: &mut Vec<(Dest, u8)>| {
///     if let Input::Deliver { msg, .. } = input {
///         out.push((Dest::All, *msg));
///     }
/// });
/// # let _ = echo;
/// ```
pub struct FnBehavior<F> {
    f: F,
}

impl<F> FnBehavior<F> {
    /// Wraps `f` as a behavior.
    pub fn new(f: F) -> Self {
        FnBehavior { f }
    }
}

impl<M, F> Behavior<M> for FnBehavior<F>
where
    F: FnMut(&Input<M>, &BehaviorEnv, &mut Vec<(Dest, M)>),
{
    fn react(&mut self, input: &Input<M>, env: &BehaviorEnv, out: &mut Vec<(Dest, M)>) {
        (self.f)(input, env, out)
    }
}

/// Timer id the [`ByzantineActor`] uses for its periodic tick — far outside
/// any protocol's timer space.
pub const BYZ_TICK: TimerId = TimerId(u64::MAX - 1);

/// Default total-emission budget of a [`ByzantineActor`]. Generous enough
/// for any real attack in a bounded-horizon run, small enough that a
/// pathological behavior composition cannot wedge the event queue.
pub const DEFAULT_BYZ_BUDGET: u64 = 4096;

/// A Byzantine node assembled from composable [`Behavior`]s — the fuzzer's
/// unit of adversary sampling.
///
/// The actor:
/// * feeds every input (boots, deliveries from *other* nodes, its periodic
///   [`BYZ_TICK`]) to each behavior in order;
/// * expands `Dest::All` into per-node sends, **never to itself** (no
///   loopback self-amplification);
/// * drops sends toward nodes in its selective-silence set;
/// * stops emitting once its total budget is exhausted, so a runaway
///   composition cannot flood the simulation.
///
/// # Examples
///
/// A pure value-spammer ticking every 50 ms:
///
/// ```
/// use tetrabft_sim::{BehaviorEnv, ByzantineActor, Dest, FnBehavior, Input};
///
/// let spam = FnBehavior::new(|input: &Input<u8>, _env: &BehaviorEnv, out: &mut Vec<(Dest, u8)>| {
///     if matches!(input, Input::Timer { .. }) {
///         out.push((Dest::All, 0xee));
///     }
/// });
/// let actor: ByzantineActor<u8, ()> =
///     ByzantineActor::new().with_behavior(spam).tick_every(50);
/// # let _ = actor;
/// ```
pub struct ByzantineActor<M, O> {
    behaviors: Vec<Box<dyn Behavior<M>>>,
    silenced: Vec<NodeId>,
    tick_every: Option<u64>,
    budget: u64,
    scratch: Vec<(Dest, M)>,
    _marker: PhantomData<fn() -> O>,
}

impl<M, O> ByzantineActor<M, O> {
    /// An actor with no behaviors (equivalent to [`SilentNode`] until
    /// behaviors are added).
    pub fn new() -> Self {
        ByzantineActor {
            behaviors: Vec::new(),
            silenced: Vec::new(),
            tick_every: None,
            budget: DEFAULT_BYZ_BUDGET,
            scratch: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Adds a behavior; behaviors react to every input in insertion order.
    pub fn with_behavior(mut self, b: impl Behavior<M> + 'static) -> Self {
        self.behaviors.push(Box::new(b));
        self
    }

    /// Selective silence: sends toward `targets` are dropped (the node
    /// looks crashed to them, Byzantine to everyone else).
    pub fn silence_toward(mut self, targets: impl IntoIterator<Item = NodeId>) -> Self {
        self.silenced.extend(targets);
        self
    }

    /// Arms a periodic [`BYZ_TICK`] every `ms` ticks, for behaviors that
    /// emit spontaneously rather than reactively.
    pub fn tick_every(mut self, ms: u64) -> Self {
        self.tick_every = Some(ms.max(1));
        self
    }

    /// Caps the total number of messages the actor will ever emit
    /// (default [`DEFAULT_BYZ_BUDGET`]).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }
}

impl<M, O> Default for ByzantineActor<M, O> {
    fn default() -> Self {
        ByzantineActor::new()
    }
}

impl<M: WireSize + Clone, O> Node for ByzantineActor<M, O> {
    type Msg = M;
    type Output = O;

    fn handle(&mut self, input: Input<M>, ctx: &mut Context<'_, M, O>) {
        match &input {
            Input::Start => {
                if let Some(every) = self.tick_every {
                    ctx.set_timer(BYZ_TICK, every);
                }
            }
            // Own loopback deliveries are ignored: Dest::All expansion
            // already skips `me`, and dropping strays here keeps any
            // hand-built scenario from self-amplifying.
            Input::Deliver { from, .. } if *from == ctx.me() => return,
            Input::Timer { id } if *id == BYZ_TICK => {
                if let Some(every) = self.tick_every {
                    ctx.set_timer(BYZ_TICK, every);
                }
            }
            _ => {}
        }
        let env = BehaviorEnv { me: ctx.me(), n: ctx.n(), now: ctx.now() };
        self.scratch.clear();
        for b in &mut self.behaviors {
            b.react(&input, &env, &mut self.scratch);
        }
        for (dest, msg) in self.scratch.drain(..) {
            match dest {
                Dest::All => {
                    for i in 0..env.n as u16 {
                        let to = NodeId(i);
                        if to == env.me || self.silenced.contains(&to) {
                            continue;
                        }
                        if self.budget == 0 {
                            return;
                        }
                        self.budget -= 1;
                        ctx.send(to, msg.clone());
                    }
                }
                Dest::Node(to) => {
                    if to == env.me || self.silenced.contains(&to) {
                        continue;
                    }
                    if self.budget == 0 {
                        return;
                    }
                    self.budget -= 1;
                    ctx.send(to, msg);
                }
            }
        }
    }
}

/// Wraps an honest node and cuts its sends with a per-send predicate: a
/// send to `to` of `msg` goes out only if `keep(to, &msg)` holds.
///
/// This is the one way to build a faulty replica on top of a correct one:
/// selective silence toward some peers (it looks crashed to them and honest
/// to everyone else), a withheld message kind, or a crash after some view.
/// The inner node runs against a buffered [`Context`]; the wrapper replays
/// every recorded action, filtering sends. A `Dest::All` broadcast is
/// expanded into one send per node in order `0..n`, the order in which the
/// simulator routes a broadcast, so an all-pass predicate leaves traces,
/// metrics and RNG draws unchanged. The predicate sees every destination,
/// the node's own loopback included; keep `to == me` in the predicate when
/// the cut must not reach the inner node's own state. Timers, outputs,
/// [`Node::persist`] and [`Node::incarnation`] pass through untouched.
///
/// # Examples
///
/// Selective silence toward node 2, keeping the node's own loopback:
///
/// ```
/// use tetrabft_sim::{FilteredNode, SilentNode};
/// use tetrabft_types::NodeId;
///
/// # #[derive(Clone)] struct M;
/// # impl tetrabft_sim::WireSize for M { fn wire_size(&self) -> usize { 1 } }
/// let me = NodeId(0);
/// let honest = SilentNode::<M, ()>::new(); // stands in for a protocol node
/// let _split = FilteredNode::new(honest, move |to, _msg: &M| to == me || to != NodeId(2));
/// ```
pub struct FilteredNode<N, F> {
    inner: N,
    keep: F,
}

impl<N: Node, F: FnMut(NodeId, &N::Msg) -> bool> FilteredNode<N, F> {
    /// Wraps `inner`, dropping every send for which `keep` returns false.
    pub fn new(inner: N, keep: F) -> Self {
        FilteredNode { inner, keep }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: Node, F: FnMut(NodeId, &N::Msg) -> bool> Node for FilteredNode<N, F> {
    type Msg = N::Msg;
    type Output = N::Output;

    fn handle(&mut self, input: Input<N::Msg>, ctx: &mut Context<'_, N::Msg, N::Output>) {
        let mut buf: ActionBuf<N::Msg, N::Output> = ActionBuf::new();
        {
            let mut inner_ctx = Context::buffered(ctx.me(), ctx.n(), ctx.now(), &mut buf);
            self.inner.handle(input, &mut inner_ctx);
        }
        for action in buf {
            match action {
                Action::Send { dest: Dest::All, msg } => {
                    for to in (0..ctx.n() as u16).map(NodeId) {
                        if (self.keep)(to, &msg) {
                            ctx.send(to, msg.clone());
                        }
                    }
                }
                Action::Send { dest: Dest::Node(to), msg } => {
                    if (self.keep)(to, &msg) {
                        ctx.send(to, msg);
                    }
                }
                Action::SetTimer { id, after } => ctx.set_timer(id, after),
                Action::CancelTimer { id } => ctx.cancel_timer(id),
                Action::Output(out) => ctx.output(out),
            }
        }
    }

    fn persist(&mut self) {
        self.inner.persist()
    }

    fn incarnation(&self) -> u64 {
        self.inner.incarnation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct M(u8);
    impl WireSize for M {
        fn wire_size(&self) -> usize {
            1
        }
    }

    fn drive<N: Node>(node: &mut N, input: Input<N::Msg>) -> Vec<Action<N::Msg, N::Output>> {
        let mut buf = ActionBuf::new();
        let mut ctx = Context::buffered(NodeId(0), 4, Time(0), &mut buf);
        node.handle(input, &mut ctx);
        buf.into_iter().collect()
    }

    fn sends(actions: &[Action<M, ()>]) -> Vec<(u16, M)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { dest: Dest::Node(to), msg } => Some((to.0, *msg)),
                _ => None,
            })
            .collect()
    }

    fn sent_to(actions: &[Action<M, ()>]) -> Vec<u16> {
        sends(actions).into_iter().map(|(to, _)| to).collect()
    }

    #[test]
    fn byzantine_actor_expands_broadcasts_skipping_self_and_silenced() {
        let echo = FnBehavior::new(|input: &Input<M>, _env: &BehaviorEnv, out: &mut Vec<_>| {
            if let Input::Deliver { msg, .. } = input {
                out.push((Dest::All, *msg));
            }
        });
        let mut actor: ByzantineActor<M, ()> =
            ByzantineActor::new().with_behavior(echo).silence_toward([NodeId(2)]);
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(7) });
        assert_eq!(sent_to(&actions), vec![1, 3], "skips self (0) and silenced (2)");
        // Own loopback deliveries are ignored entirely.
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(0), msg: M(7) });
        assert!(actions.is_empty());
    }

    #[test]
    fn byzantine_actor_budget_stops_emission() {
        let spam = FnBehavior::new(|_: &Input<M>, _env: &BehaviorEnv, out: &mut Vec<_>| {
            out.push((Dest::All, M(1)));
        });
        let mut actor: ByzantineActor<M, ()> =
            ByzantineActor::new().with_behavior(spam).with_budget(2);
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert_eq!(sent_to(&actions).len(), 2, "budget caps mid-broadcast");
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert!(sent_to(&actions).is_empty(), "budget exhausted");
    }

    #[test]
    fn byzantine_actor_ticks_rearm() {
        let mut actor: ByzantineActor<M, ()> = ByzantineActor::new().tick_every(50);
        let actions = drive(&mut actor, Input::Start);
        assert!(matches!(actions[..], [Action::SetTimer { id: BYZ_TICK, after: 50 }]));
        let actions = drive(&mut actor, Input::Timer { id: BYZ_TICK });
        assert!(matches!(actions[..], [Action::SetTimer { id: BYZ_TICK, after: 50 }]));
    }

    /// A correct node to wrap: on `Start` it broadcasts `M(1)` and `M(2)`
    /// and arms a timer, on every delivery it sends `M(2)` to node 2, and
    /// it counts its `persist` calls.
    #[derive(Default)]
    struct Probe {
        persisted: u32,
    }

    impl Node for Probe {
        type Msg = M;
        type Output = ();
        fn handle(&mut self, input: Input<M>, ctx: &mut Context<'_, M, ()>) {
            match input {
                Input::Start => {
                    ctx.broadcast(M(1));
                    ctx.broadcast(M(2));
                    ctx.set_timer(TimerId(9), 10);
                }
                Input::Deliver { .. } => ctx.send(NodeId(2), M(2)),
                Input::Timer { .. } => {}
            }
        }
        fn persist(&mut self) {
            self.persisted += 1;
        }
        fn incarnation(&self) -> u64 {
            7
        }
    }

    #[test]
    fn filtered_node_drops_only_silenced_targets() {
        // The fuzzer's selective silence: everyone but node 2, and always
        // the node's own loopback.
        let me = NodeId(0);
        let mut node =
            FilteredNode::new(Probe::default(), move |to, _: &M| to == me || to != NodeId(2));
        let actions = drive(&mut node, Input::Start);
        // Each broadcast expands to 0 (self, kept), 1, 3 — 2 is silenced.
        assert_eq!(sent_to(&actions), vec![0, 1, 3, 0, 1, 3]);
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { id: TimerId(9), .. })));
        let actions = drive(&mut node, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert!(sent_to(&actions).is_empty(), "direct send to silenced target dropped");
    }

    #[test]
    fn filtered_node_drops_one_kind_everywhere_including_loopback() {
        let mut node = FilteredNode::new(Probe::default(), |_, msg: &M| *msg != M(1));
        let actions = drive(&mut node, Input::Start);
        // Every M(1) is gone, the loopback copy to node 0 included; every
        // M(2) goes out, in broadcast order 0..n.
        assert_eq!(sends(&actions), vec![(0, M(2)), (1, M(2)), (2, M(2)), (3, M(2))]);
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { id: TimerId(9), .. })));
        let actions = drive(&mut node, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert_eq!(sends(&actions), vec![(2, M(2))]);
    }

    #[test]
    fn filtered_node_forwards_persist_and_incarnation() {
        let mut node = FilteredNode::new(Probe::default(), |_, _: &M| false);
        node.persist();
        node.persist();
        assert_eq!(node.inner().persisted, 2);
        assert_eq!(node.incarnation(), 7);
    }
}
