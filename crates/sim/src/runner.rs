//! The simulation engine: a deterministic virtual-time [`Transport`]
//! underneath the shared [`tetrabft_engine::Engine`] loop.
//!
//! The simulator no longer owns any protocol-driving logic — timer
//! generations, action dispatch, and the input mux live in
//! `tetrabft-engine`. What remains here is purely the *environment*: a
//! global virtual-time event queue, a seeded [`LinkPlan`], metrics, and
//! traces.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tetrabft_engine::{Dest, Engine, EngineEvent, Node, Time, TimerId, Transport, WireSize};
use tetrabft_types::NodeId;

use crate::metrics::Metrics;
use crate::plan::{EdgeSpec, LinkPlan};
use crate::queue::{EventKind, EventQueue};
use crate::trace::TraceEvent;

/// A protocol output captured by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// Node that produced the output.
    pub node: NodeId,
    /// Virtual time of the output.
    pub time: Time,
    /// The output itself.
    pub output: O,
}

/// Builder for a [`Sim`].
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct SimBuilder {
    n: usize,
    seed: u64,
    plan: LinkPlan,
    record_trace: bool,
}

impl SimBuilder {
    /// Starts building a simulation of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulation needs at least one node");
        SimBuilder { n, seed: 0, plan: LinkPlan::uniform(EdgeSpec::delay(1)), record_trace: false }
    }

    /// Seeds the deterministic RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network: every send between distinct nodes is priced by
    /// [`LinkPlan::route_at`], one tick = one millisecond — the same plan
    /// the TCP layer (`tetrabft-net`) consumes, so one scenario
    /// description drives both runtimes. Default: one tick per hop,
    /// `LinkPlan::uniform(EdgeSpec::delay(1))`, so decision times count
    /// message delays.
    pub fn plan(mut self, plan: &LinkPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Enables the event trace (off by default; it grows with the run).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Instantiates the simulation, creating each node with `make`.
    ///
    /// `make` receives the node id so Byzantine actors can be placed at
    /// chosen positions (return different implementations behind a `Box`).
    pub fn build<M, O, N>(self, mut make: impl FnMut(NodeId) -> N) -> Sim<M, O>
    where
        M: WireSize + Clone + 'static,
        O: 'static,
        N: Node<Msg = M, Output = O> + 'static,
    {
        self.build_boxed(|id| Box::new(make(id)))
    }

    /// Like [`SimBuilder::build`] but the factory returns boxed nodes,
    /// allowing heterogeneous actor types (honest + Byzantine mixes).
    pub fn build_boxed<M, O>(
        self,
        mut make: impl FnMut(NodeId) -> Box<dyn Node<Msg = M, Output = O>>,
    ) -> Sim<M, O>
    where
        M: WireSize + Clone + 'static,
        O: 'static,
    {
        let n = self.n;
        let engines: Vec<_> =
            (0..n as u16).map(|i| Engine::new(make(NodeId(i)), NodeId(i), n)).collect();
        let mut sim = Sim {
            n,
            engines,
            plan: self.plan,
            rng: StdRng::seed_from_u64(self.seed),
            queue: EventQueue::new(),
            now: Time::ZERO,
            outputs: Vec::new(),
            metrics: Metrics::new(n),
            trace: self.record_trace.then(Vec::new),
            started: false,
        };
        sim.start();
        sim
    }
}

/// The virtual-time transport: routes sends through the link plan into
/// the global event queue, queues timer firings with their generation tag,
/// and records outputs. One instance is materialized per dispatch, borrowing
/// the simulation's shared state on behalf of the dispatching node.
struct SimTransport<'a, M, O> {
    me: NodeId,
    n: usize,
    now: Time,
    queue: &'a mut EventQueue<M>,
    plan: &'a LinkPlan,
    rng: &'a mut StdRng,
    metrics: &'a mut Metrics,
    trace: Option<&'a mut Vec<TraceEvent<M>>>,
    outputs: &'a mut Vec<OutputRecord<O>>,
}

impl<M: WireSize + Clone, O> SimTransport<'_, M, O> {
    fn route(&mut self, to: NodeId, msg: M) {
        let from = self.me;
        if from == to {
            // Loopback: instantaneous, free, and lossless.
            if let Some(trace) = self.trace.as_deref_mut() {
                trace.push(TraceEvent::Sent { at: self.now, from, to, msg: msg.clone() });
            }
            self.queue.push(self.now, EventKind::Deliver { to, from, msg });
            return;
        }
        self.metrics.on_send(from, msg.wire_kind(), msg.wire_size());
        if let Some(claim) = msg.audit_claim() {
            self.metrics.on_claim(from, claim);
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.push(TraceEvent::Sent { at: self.now, from, to, msg: msg.clone() });
        }
        match self.plan.route_at(from, to, self.now.0, self.rng) {
            Some(at) => self.queue.push(Time(at), EventKind::Deliver { to, from, msg }),
            None => {
                self.metrics.msgs_dropped += 1;
                if let Some(trace) = self.trace.as_deref_mut() {
                    trace.push(TraceEvent::Dropped { at: self.now, from, to });
                }
            }
        }
    }
}

impl<M: WireSize + Clone, O> Transport<M, O> for SimTransport<'_, M, O> {
    fn send(&mut self, dest: Dest, msg: M) {
        match dest {
            Dest::All => {
                // One clone per recipient, but protocol messages keep their
                // bulk payloads behind `Arc` (a multi-shot proposal's tx
                // batch, a TCP frame's bytes), so each clone is a
                // refcount bump over one shared buffer — never a per-
                // recipient copy of the payload itself.
                for to in 0..self.n as u16 {
                    self.route(NodeId(to), msg.clone());
                }
            }
            Dest::Node(to) => self.route(to, msg),
        }
    }

    fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64) {
        self.queue.push(self.now + after, EventKind::Timer { node: self.me, id, generation });
    }

    fn deliver_output(&mut self, out: O) {
        self.outputs.push(OutputRecord { node: self.me, time: self.now, output: out });
    }
}

/// A running simulation over `n` protocol state machines, each wrapped in
/// a [`tetrabft_engine::Engine`].
///
/// Drive it with [`Sim::step`], [`Sim::run_until`], or
/// [`Sim::run_until_quiet`]; inspect results via [`Sim::outputs`],
/// [`Sim::metrics`], and [`Sim::trace`].
pub struct Sim<M, O> {
    n: usize,
    engines: Vec<Engine<Box<dyn Node<Msg = M, Output = O>>>>,
    plan: LinkPlan,
    rng: StdRng,
    queue: EventQueue<M>,
    now: Time,
    outputs: Vec<OutputRecord<O>>,
    metrics: Metrics,
    trace: Option<Vec<TraceEvent<M>>>,
    started: bool,
}

/// Splits a `Sim`'s fields into the dispatching node's engine plus a
/// `SimTransport` borrowing everything else — a macro because a `&mut
/// self` helper method could not hand out the engine and the transport's
/// disjoint field borrows at once.
macro_rules! engine_and_transport {
    ($sim:expr, $node:expr) => {{
        let transport = SimTransport {
            me: $node,
            n: $sim.n,
            now: $sim.now,
            queue: &mut $sim.queue,
            plan: &$sim.plan,
            rng: &mut $sim.rng,
            metrics: &mut $sim.metrics,
            trace: $sim.trace.as_mut(),
            outputs: &mut $sim.outputs,
        };
        (&mut $sim.engines[$node.index()], transport)
    }};
}

impl<M: WireSize + Clone, O> Sim<M, O> {
    fn start(&mut self) {
        assert!(!self.started);
        self.started = true;
        for i in 0..self.n {
            self.metrics.events_processed += 1;
            let (engine, mut transport) = engine_and_transport!(self, NodeId(i as u16));
            engine.start(self.now, &mut transport);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All outputs produced so far, in emission order.
    pub fn outputs(&self) -> &[OutputRecord<O>] {
        &self.outputs
    }

    /// Communication metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of events still queued (messages in flight plus armed timers).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Virtual time of the earliest queued event, if any — what the next
    /// [`Sim::step`] would advance to. Lets embedders (the sharded runner)
    /// interleave several simulations deterministically.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[TraceEvent<M>]> {
        self.trace.as_deref()
    }

    /// Mutable access to a node, for test inspection with downcasting done
    /// by the caller's concrete factory (prefer outputs/metrics in tests).
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node<Msg = M, Output = O> {
        &mut **self.engines[id.index()].node_mut()
    }

    /// Processes one batch: the next queued event plus every event queued
    /// right behind it for the same node at the same virtual time, with
    /// one persist/flush seal for the lot (see [`Engine::batch`]). Returns
    /// `false` when the queue is empty.
    ///
    /// A batch only takes the event a per-event loop would pop next, so
    /// dispatch order, metrics, traces, and outputs are exactly those of
    /// stepping one event at a time; only the seal is shared.
    pub fn step(&mut self) -> bool {
        self.step_within(u64::MAX, usize::MAX) > 0
    }

    /// One [`Sim::step`] batch that stops growing once it has popped
    /// `budget` events or `outputs` outputs exist, so the run caps stop at
    /// exactly the event a per-event loop would. Returns how many events
    /// it popped (0 iff the queue was empty).
    fn step_within(&mut self, budget: u64, outputs: usize) -> u64 {
        let Some(first) = self.queue.pop() else { return 0 };
        debug_assert!(first.at >= self.now, "time must be monotone");
        self.now = first.at;
        let (at, target) = (first.at, first.target());
        let (engine, mut transport) = engine_and_transport!(self, target);
        engine.batch(&mut transport, |b| {
            let mut popped = 0;
            let mut next = Some(first);
            while let Some(event) = next {
                popped += 1;
                let t = b.transport();
                let event = match event.kind {
                    EventKind::Deliver { to, from, msg } => {
                        if from != to {
                            t.metrics.on_deliver(to, msg.wire_size());
                        }
                        if let Some(trace) = t.trace.as_deref_mut() {
                            trace.push(TraceEvent::Delivered { at, from, to, msg: msg.clone() });
                        }
                        EngineEvent::Deliver { from, msg }
                    }
                    // The engine filters stale generations; at most one
                    // queued event can carry the current one, so no
                    // removal is needed.
                    EventKind::Timer { id, generation, .. } => {
                        EngineEvent::Timer { id, generation }
                    }
                };
                if b.step(event, at) {
                    b.transport().metrics.events_processed += 1;
                }
                // A dispatch may have queued follow-ups (a loopback
                // delivery lands at `at` for `target`); popping only the
                // globally next event keeps the per-event order.
                let t = b.transport();
                next = if popped < budget && t.outputs.len() < outputs {
                    t.queue.pop_if(at, target)
                } else {
                    None
                };
            }
            popped
        })
    }

    /// Runs until the queue is empty or virtual time would exceed `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
    }

    /// Runs until the event queue drains, with a hard cap of `max_events`
    /// popped events (protection against livelock in protocol bugs).
    /// Returns `true` if the queue drained.
    pub fn run_until_quiet(&mut self, max_events: u64) -> bool {
        let mut popped = 0;
        while popped < max_events {
            match self.step_within(max_events - popped, usize::MAX) {
                0 => return true,
                n => popped += n,
            }
        }
        self.queue.peek_time().is_none()
    }

    /// Runs until at least `count` outputs exist or the queue drains or
    /// `max_events` events have been popped. Returns `true` if the output
    /// target was reached.
    pub fn run_until_outputs(&mut self, count: usize, max_events: u64) -> bool {
        let mut popped = 0;
        while self.outputs.len() < count && popped < max_events {
            match self.step_within(max_events - popped, count) {
                0 => break,
                n => popped += n,
            }
        }
        self.outputs.len() >= count
    }
}

#[cfg(test)]
mod tests {
    use std::marker::PhantomData;

    use super::*;
    use crate::actors::SilentNode;
    use crate::plan::PartitionWindow;
    use tetrabft_engine::{Context, Input};

    /// A node driven by a closure: the scaffolding these runner tests
    /// script their toy protocols with.
    struct FnNode<M, O, F> {
        f: F,
        _marker: PhantomData<fn() -> (M, O)>,
    }

    impl<M, O, F> FnNode<M, O, F>
    where
        F: FnMut(Input<M>, &mut Context<'_, M, O>),
    {
        fn new(f: F) -> Self {
            FnNode { f, _marker: PhantomData }
        }
    }

    impl<M: WireSize + Clone, O, F> Node for FnNode<M, O, F>
    where
        F: FnMut(Input<M>, &mut Context<'_, M, O>),
    {
        type Msg = M;
        type Output = O;
        fn handle(&mut self, input: Input<M>, ctx: &mut Context<'_, M, O>) {
            (self.f)(input, ctx)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn start_is_delivered_to_every_node() {
        let mut sim = SimBuilder::new(3).build(|_| {
            FnNode::<Msg, (), _>::new(|input, ctx| {
                if matches!(input, Input::Start) {
                    ctx.output(());
                }
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 3);
    }

    #[test]
    fn broadcast_reaches_all_including_self() {
        let mut sim = SimBuilder::new(4).build(|id| {
            FnNode::<Msg, (NodeId, NodeId), _>::new(move |input, ctx| match input {
                Input::Start if id == NodeId(0) => ctx.broadcast(Msg(1)),
                Input::Deliver { from, .. } => ctx.output((from, ctx.me())),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 4);
        // Loopback delivered at t=0; network copies at t=1.
        let self_delivery = sim.outputs().iter().find(|o| o.node == NodeId(0)).unwrap();
        assert_eq!(self_delivery.time, Time(0));
        for o in sim.outputs().iter().filter(|o| o.node != NodeId(0)) {
            assert_eq!(o.time, Time(1));
        }
        // Loopback is free: 3 network messages only.
        assert_eq!(sim.metrics().total_msgs_sent(), 3);
        assert_eq!(sim.metrics().total_bytes_sent(), 24);
    }

    #[test]
    fn timers_fire_once_and_replacement_works() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(7), 10);
                    ctx.set_timer(TimerId(7), 3); // replaces the first arming
                }
                Input::Timer { id } => ctx.output(id.0 + ctx.now().0),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 1, "replaced timer must fire once");
        assert_eq!(sim.outputs()[0].time, Time(3));
    }

    #[test]
    fn rearming_after_a_fire_cannot_resurrect_an_orphaned_event() {
        // Arm (gen 1, due t=100), replace (gen 2, due t=10), fire at t=10,
        // re-arm from the handler. The orphaned gen-1 event still queued for
        // t=100 must stay dead; only the re-armed timer (t=110) may fire.
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(7), 100);
                    ctx.set_timer(TimerId(7), 10);
                }
                Input::Timer { .. } if ctx.now() == Time(10) => {
                    ctx.output(ctx.now().0);
                    ctx.set_timer(TimerId(7), 100);
                }
                Input::Timer { .. } => ctx.output(ctx.now().0),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        let times: Vec<u64> = sim.outputs().iter().map(|o| o.output).collect();
        assert_eq!(times, vec![10, 110], "orphaned t=100 firing must not resurrect");
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, (), _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(1), 5);
                    ctx.cancel_timer(TimerId(1));
                }
                Input::Timer { .. } => ctx.output(()),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert!(sim.outputs().is_empty());
    }

    #[test]
    fn silent_node_does_nothing() {
        let mut sim = SimBuilder::new(2).build_boxed(|id| {
            if id == NodeId(0) {
                Box::new(FnNode::<Msg, (), _>::new(|input, ctx| {
                    if matches!(input, Input::Start) {
                        ctx.broadcast(Msg(9));
                    }
                }))
            } else {
                Box::new(SilentNode::new())
            }
        });
        sim.run_until_quiet(100);
        assert!(sim.outputs().is_empty());
        assert_eq!(sim.metrics().node(NodeId(1)).msgs_sent, 0);
        assert_eq!(sim.metrics().node(NodeId(1)).msgs_received, 1);
    }

    #[test]
    fn drops_are_counted() {
        let lost = PartitionWindow::isolate(0, 100, [NodeId(0)]).lossy();
        let plan = LinkPlan::uniform(EdgeSpec::delay(1)).partition(lost);
        let mut sim = SimBuilder::new(2).plan(&plan).build(|id| {
            FnNode::<Msg, (), _>::new(move |input, ctx| {
                if matches!(input, Input::Start) && id == NodeId(0) {
                    ctx.send(NodeId(1), Msg(1));
                }
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.metrics().msgs_dropped, 1);
    }

    #[test]
    fn sim_routes_by_the_plan_in_virtual_time() {
        // Nodes 0 and 1 each send to node 2 at boot; node 0 is isolated
        // until t = 600, so its message is held to the heal plus the delay.
        let held = PartitionWindow::isolate(0, 600, [NodeId(0)]);
        let plan = LinkPlan::uniform(EdgeSpec::delay(30)).partition(held);
        let mut sim = SimBuilder::new(3).plan(&plan).build(|id| {
            FnNode::<Msg, (NodeId, Time), _>::new(move |input, ctx| match input {
                Input::Start if id != NodeId(2) => ctx.send(NodeId(2), Msg(0)),
                Input::Deliver { from, .. } => ctx.output((from, ctx.now())),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        let arrivals: Vec<_> = sim.outputs().iter().map(|o| o.output).collect();
        assert_eq!(arrivals, vec![(NodeId(1), Time(30)), (NodeId(0), Time(630))]);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let jittered = LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(6));
        let run = |seed| {
            let mut sim = SimBuilder::new(3).seed(seed).plan(&jittered).build(|id| {
                FnNode::<Msg, (NodeId, u64), _>::new(move |input, ctx| match input {
                    Input::Start if id == NodeId(0) => ctx.broadcast(Msg(0)),
                    Input::Deliver { msg: Msg(k), .. } if k < 3 => ctx.broadcast(Msg(k + 1)),
                    Input::Deliver { msg: Msg(k), .. } => ctx.output((ctx.me(), k)),
                    _ => {}
                })
            });
            sim.run_until_quiet(10_000);
            (sim.outputs().to_vec(), sim.metrics().total_bytes_sent())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, 0);
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut sim = SimBuilder::new(2).record_trace(true).build(|id| {
            FnNode::<Msg, (), _>::new(move |input, ctx| {
                if matches!(input, Input::Start) && id == NodeId(0) {
                    ctx.send(NodeId(1), Msg(5));
                }
            })
        });
        sim.run_until_quiet(100);
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert!(matches!(trace[0], TraceEvent::Sent { .. }));
        assert!(matches!(trace[1], TraceEvent::Delivered { .. }));
    }

    /// Node 0 sends `k` messages to node 1 at boot; node 1 outputs each
    /// delivery. All `k` land at t=1 on node 1: one same-instant batch.
    fn fan_in(k: u64) -> Sim<Msg, u64> {
        SimBuilder::new(2).build(move |id| {
            FnNode::<Msg, u64, _>::new(move |input, ctx| match input {
                Input::Start if id == NodeId(0) => {
                    for i in 0..k {
                        ctx.send(NodeId(1), Msg(i));
                    }
                }
                Input::Deliver { msg, .. } => ctx.output(msg.0),
                _ => {}
            })
        })
    }

    #[test]
    fn event_cap_cuts_a_same_instant_batch() {
        let mut sim = fan_in(5);
        assert!(!sim.run_until_quiet(3), "the cap stops the run before the queue drains");
        let delivered: Vec<u64> = sim.outputs().iter().map(|o| o.output).collect();
        assert_eq!(delivered, vec![0, 1, 2], "exactly three of the five events ran");
        assert_eq!(sim.pending_events(), 2);
        assert_eq!(sim.metrics().events_processed, 2 + 3, "two boots, three deliveries");
        assert!(sim.run_until_quiet(2));
        assert_eq!(sim.outputs().len(), 5);
    }

    #[test]
    fn output_target_cuts_a_same_instant_batch() {
        let mut sim = fan_in(5);
        assert!(sim.run_until_outputs(2, 100));
        assert_eq!(sim.outputs().len(), 2, "the batch stops at the target output");
        assert_eq!(sim.pending_events(), 3);
        assert!(!sim.run_until_outputs(10, 1), "a cap of one pops one event");
        assert_eq!(sim.outputs().len(), 3);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => ctx.set_timer(TimerId(0), 10),
                Input::Timer { .. } => {
                    ctx.output(ctx.now().0);
                    ctx.set_timer(TimerId(0), 10);
                }
                _ => {}
            })
        });
        sim.run_until(Time(35));
        assert_eq!(sim.outputs().len(), 3); // t=10, 20, 30
        assert_eq!(sim.now(), Time(30));
    }
}
