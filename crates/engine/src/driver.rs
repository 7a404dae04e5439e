//! The engine loop shared by every runtime.
//!
//! Both the deterministic simulator (`tetrabft-sim`) and the TCP runtime
//! (`tetrabft-net`) used to hand-roll the same three pieces of machinery:
//! timer generations (a re-armed timer must orphan its queued firing),
//! [`Action`] dispatch, and the event mux that turns raw runtime events
//! into [`Node`] inputs. [`Engine`] owns all three once; runtimes shrink
//! to [`Transport`] implementations that only know how to move bytes,
//! schedule wakeups, and surface outputs.

use std::collections::HashMap;

use tetrabft_types::NodeId;

use crate::node::{Action, ActionBuf, Context, Dest, Input, Node, TimerId};
use crate::time::Time;

/// What an [`Engine`] asks its runtime to do.
///
/// A transport is intentionally dumber than a [`Node`] context: it never
/// sees cancellations (the engine absorbs them into generation bumps) and
/// every arming it sees already carries the generation that makes stale
/// firings detectable.
pub trait Transport<M, O> {
    /// Ship `msg` to `dest` (a peer or everyone, loopback included).
    fn send(&mut self, dest: Dest, msg: M);

    /// Schedule timer `id` to fire `after` ticks from now, tagged with
    /// `generation`. The runtime must echo the tag back in an
    /// [`EngineEvent::Timer`]; it never interprets it.
    fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64);

    /// Surface a protocol output to the application.
    fn deliver_output(&mut self, out: O);

    /// Called exactly once per seal — after [`Engine::start`], and after
    /// each [`Engine::batch`] that ran the node — once every action of the
    /// sealed inputs has been dispatched. Buffering
    /// transports hand their staged sends to the network here — one
    /// handoff per batch rather than one per message — so a broadcast plus
    /// its follow-ups leave together. The default is a no-op for
    /// transports that ship eagerly.
    fn flush(&mut self) {}
}

/// A runtime event for [`Batch::step`]: everything that can wake a booted
/// node.
///
/// Runtimes funnel their raw event sources (sockets, wakeup heaps, a
/// virtual-time event queue) into this one enum; the engine routes each
/// case, so no runtime re-implements the mux.
#[derive(Debug)]
pub enum EngineEvent<M> {
    /// A peer message arrived over the transport.
    Deliver {
        /// Authenticated sender.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A scheduled timer came due; `generation` is the tag the engine
    /// attached when arming. Stale generations are dropped here.
    Timer {
        /// Which timer.
        id: TimerId,
        /// Arming tag; only the newest arming per id is live.
        generation: u64,
    },
}

/// A node that accepts client-submitted requests — the third input class
/// next to deliveries and timers.
///
/// Admission is synchronous and may be refused (backpressure): a bounded
/// mempool returns its typed rejection here rather than growing without
/// bound.
pub trait Submitter: Node {
    /// What clients submit.
    type Request;
    /// Why a submission may be refused.
    type SubmitError;

    /// Accepts or rejects one client request.
    fn accept(&mut self, req: Self::Request) -> Result<(), Self::SubmitError>;
}

/// A request clients can ship over a byte-framed transport: the decode
/// half of the submit path, for runtimes where submissions arrive as
/// length-prefixed frames on a socket rather than through an in-process
/// handle.
///
/// The encode half is the client's business (for opaque-payload requests
/// the frame payload *is* the request); a runtime serving framed clients
/// requires `Submitter::Request: FrameRequest` to turn each frame back
/// into a typed request at the door.
pub trait FrameRequest: Sized {
    /// Decodes one request from a client frame's payload; `None` drops
    /// the frame (malformed client traffic is ignored, like malformed
    /// peer traffic).
    fn from_frame(bytes: &[u8]) -> Option<Self>;
}

/// The protocol-driving loop around one [`Node`].
///
/// The engine owns the node, its timer-generation table, and the
/// translation of node [`Action`]s into [`Transport`] calls. A runtime
/// boots the node once with [`Engine::start`], then feeds it every later
/// event through [`Engine::batch`] — a batch of one is per-event stepping —
/// together with the current time and a transport to act through.
/// Client requests are admitted by the node itself ([`Submitter::accept`]
/// through [`Engine::node_mut`] or [`Batch::node_mut`]); admission never
/// steps the node.
///
/// # Timer generations
///
/// `SetTimer` tags the arming with a generation drawn from one counter
/// that is global across all timer ids and never reused; a firing whose
/// generation is not the id's current one is ignored, which implements
/// both replace and cancel without the runtime ever deleting queued
/// events. Because generations are globally unique, entries for fired and
/// cancelled timers can be dropped immediately — an orphaned queued
/// firing can never collide with a later arming — so the table holds only
/// the currently-armed timers (O(armed), not O(ids ever used); protocols
/// that key timers by an unbounded sequence number, like multi-shot's
/// per-slot view timers, would otherwise leak an entry per key).
///
/// # Examples
///
/// ```
/// use tetrabft_engine::{
///     Context, Dest, Engine, EngineEvent, Input, Node, Time, Transport, WireSize,
/// };
/// use tetrabft_types::NodeId;
///
/// #[derive(Clone)]
/// struct Ping;
/// impl WireSize for Ping {
///     fn wire_size(&self) -> usize { 1 }
/// }
/// struct Hello;
/// impl Node for Hello {
///     type Msg = Ping;
///     type Output = &'static str;
///     fn handle(&mut self, input: Input<Ping>, ctx: &mut Context<'_, Ping, &'static str>) {
///         if matches!(input, Input::Start) {
///             ctx.broadcast(Ping);
///             ctx.output("booted");
///         }
///     }
/// }
///
/// #[derive(Default)]
/// struct Recorder { sends: usize, outputs: Vec<&'static str> }
/// impl Transport<Ping, &'static str> for Recorder {
///     fn send(&mut self, _dest: Dest, _msg: Ping) { self.sends += 1 }
///     fn arm_timer(&mut self, _id: tetrabft_engine::TimerId, _generation: u64, _after: u64) {}
///     fn deliver_output(&mut self, out: &'static str) { self.outputs.push(out) }
/// }
///
/// let mut engine = Engine::new(Hello, NodeId(0), 4);
/// let mut transport = Recorder::default();
/// engine.start(Time(0), &mut transport);
/// assert_eq!(transport.sends, 1);
/// assert_eq!(transport.outputs, vec!["booted"]);
///
/// // Later events arrive in batches; each step carries its own time.
/// engine.batch(&mut transport, |b| {
///     b.step(EngineEvent::Deliver { from: NodeId(1), msg: Ping }, Time(1));
///     b.step(EngineEvent::Deliver { from: NodeId(2), msg: Ping }, Time(2));
/// });
/// ```
#[derive(Debug)]
pub struct Engine<N> {
    node: N,
    me: NodeId,
    n: usize,
    /// Live generation per *armed* timer; fired/cancelled entries are
    /// removed (safe because generations are never reused across ids).
    generations: HashMap<TimerId, u64>,
    next_generation: u64,
}

impl<N: Node> Engine<N> {
    /// Wraps `node` (node `me` of `n`) in an engine with no armed timers.
    pub fn new(node: N, me: NodeId, n: usize) -> Self {
        Engine { node, me, n, generations: HashMap::new(), next_generation: 0 }
    }

    /// Number of currently armed timers (the size of the generation
    /// table — bounded by the protocol's live timers, not its history).
    pub fn armed_timers(&self) -> usize {
        self.generations.len()
    }

    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the system.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The wrapped node.
    #[inline]
    pub fn node(&self) -> &N {
        &self.node
    }

    /// Mutable access to the wrapped node (test inspection, submissions
    /// outside the mux).
    #[inline]
    pub fn node_mut(&mut self) -> &mut N {
        &mut self.node
    }

    /// Unwraps the engine, returning the node.
    pub fn into_node(self) -> N {
        self.node
    }

    /// Boots the node (deliver exactly once, before any other event) and
    /// seals the boot's effects.
    pub fn start<T: Transport<N::Msg, N::Output>>(&mut self, now: Time, transport: &mut T) {
        self.dispatch(Input::Start, now, transport);
        self.seal(transport);
    }

    /// Runs `steps` as one batch of events and returns what it returns.
    ///
    /// Inside the closure, [`Batch::step`] feeds the node one event at a
    /// time, each with its own timestamp; actions dispatch eagerly. When
    /// the closure returns, the batch is sealed once — the node persists,
    /// then the transport flushes — but only if some step ran the node, so
    /// an all-stale batch is free. Write-ahead holds batch-wide: everything
    /// the batch changed is durable before any message it produced leaves
    /// the process. A batch of one is per-event stepping; a runtime
    /// draining a queue pays one storage sync and one network handoff per
    /// batch instead of per event.
    pub fn batch<T, R>(
        &mut self,
        transport: &mut T,
        steps: impl FnOnce(&mut Batch<'_, N, T>) -> R,
    ) -> R
    where
        T: Transport<N::Msg, N::Output>,
    {
        let mut batch = Batch { engine: self, transport, dispatched: false };
        let out = steps(&mut batch);
        if batch.dispatched {
            batch.engine.seal(batch.transport);
        }
        out
    }

    /// `true` iff `generation` is the live arming of `id`; consumes the
    /// arming (the handler may re-arm with a fresh, never-reused
    /// generation, so removal cannot resurrect any queued firing).
    fn consume_timer(&mut self, id: TimerId, generation: u64) -> bool {
        if self.generations.get(&id) != Some(&generation) {
            return false;
        }
        self.generations.remove(&id);
        true
    }

    /// Persists the node, then flushes the transport.
    fn seal<T: Transport<N::Msg, N::Output>>(&mut self, transport: &mut T) {
        self.node.persist();
        transport.flush();
    }

    /// Runs the node on one input and interprets its actions, without the
    /// persist/flush seal (a batch seals once, at the end).
    fn dispatch<T: Transport<N::Msg, N::Output>>(
        &mut self,
        input: Input<N::Msg>,
        now: Time,
        transport: &mut T,
    ) {
        // The buffer lives on the stack: a good-case step emits well under
        // its inline capacity, so dispatch itself performs no allocation.
        let mut actions: ActionBuf<N::Msg, N::Output> = ActionBuf::new();
        {
            let mut ctx = Context::buffered(self.me, self.n, now, &mut actions);
            self.node.handle(input, &mut ctx);
        }
        for action in actions {
            match action {
                Action::Send { dest, msg } => transport.send(dest, msg),
                Action::SetTimer { id, after } => {
                    self.next_generation += 1;
                    let generation = self.next_generation;
                    self.generations.insert(id, generation);
                    transport.arm_timer(id, generation, after);
                }
                Action::CancelTimer { id } => {
                    // Dropping the entry orphans any queued firing: its
                    // generation can never match a future arming's.
                    self.generations.remove(&id);
                }
                Action::Output(out) => transport.deliver_output(out),
            }
        }
    }
}

/// One open batch of an [`Engine`]: the handle [`Engine::batch`] passes to
/// its closure.
pub struct Batch<'a, N, T> {
    engine: &'a mut Engine<N>,
    transport: &'a mut T,
    dispatched: bool,
}

impl<N: Node, T: Transport<N::Msg, N::Output>> Batch<'_, N, T> {
    /// Feeds one event to the node at time `now`, unless it is a stale
    /// timer firing (the timer was replaced or cancelled after this firing
    /// was queued). Returns whether the node ran.
    pub fn step(&mut self, event: EngineEvent<N::Msg>, now: Time) -> bool {
        let input = match event {
            EngineEvent::Deliver { from, msg } => Input::Deliver { from, msg },
            EngineEvent::Timer { id, generation } => {
                if !self.engine.consume_timer(id, generation) {
                    return false;
                }
                Input::Timer { id }
            }
        };
        self.engine.dispatch(input, now, self.transport);
        self.dispatched = true;
        true
    }

    /// The batch's transport, for runtime bookkeeping between steps.
    pub fn transport(&mut self) -> &mut T {
        self.transport
    }

    /// The wrapped node (client admission between steps).
    pub fn node_mut(&mut self) -> &mut N {
        &mut self.engine.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// A node that re-arms timer 1 on start and echoes timer firings.
    struct TimerNode;
    impl Node for TimerNode {
        type Msg = Msg;
        type Output = u64;
        fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
            match input {
                Input::Start => {
                    ctx.set_timer(TimerId(1), 10);
                    ctx.set_timer(TimerId(1), 3); // replaces the first arming
                    ctx.set_timer(TimerId(2), 5);
                    ctx.cancel_timer(TimerId(2));
                }
                Input::Timer { id } => ctx.output(id.0),
                Input::Deliver { msg, .. } => ctx.output(msg.0),
            }
        }
    }

    #[derive(Default)]
    struct Recorder {
        sends: Vec<(Dest, Msg)>,
        armed: Vec<(TimerId, u64, u64)>,
        outputs: Vec<u64>,
        flushes: usize,
    }
    impl Transport<Msg, u64> for Recorder {
        fn send(&mut self, dest: Dest, msg: Msg) {
            self.sends.push((dest, msg));
        }
        fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64) {
            self.armed.push((id, generation, after));
        }
        fn deliver_output(&mut self, out: u64) {
            self.outputs.push(out);
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    /// A batch of one delivery.
    fn deliver<N: Node<Msg = Msg, Output = u64>>(
        engine: &mut Engine<N>,
        t: &mut Recorder,
        msg: u64,
        now: u64,
    ) {
        engine.batch(t, |b| {
            b.step(EngineEvent::Deliver { from: NodeId(0), msg: Msg(msg) }, Time(now))
        });
    }

    /// A batch of one timer firing; whether the node ran.
    fn fire<N: Node<Msg = Msg, Output = u64>>(
        engine: &mut Engine<N>,
        t: &mut Recorder,
        id: u64,
        generation: u64,
        now: u64,
    ) -> bool {
        engine.batch(t, |b| b.step(EngineEvent::Timer { id: TimerId(id), generation }, Time(now)))
    }

    #[test]
    fn replaced_and_cancelled_timers_are_generation_filtered() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        // Generations come from one global never-reused counter: timer 1
        // armed twice (gen 1, then replaced by gen 2), timer 2 once
        // (gen 3, then cancelled — its entry is dropped, not bumped).
        assert_eq!(t.armed, vec![(TimerId(1), 1, 10), (TimerId(1), 2, 3), (TimerId(2), 3, 5)]);
        // The replaced arming is stale; the replacement fires.
        assert!(!fire(&mut engine, &mut t, 1, 1, 10));
        assert!(fire(&mut engine, &mut t, 1, 2, 3));
        // The cancelled timer's queued firing is stale too.
        assert!(!fire(&mut engine, &mut t, 2, 3, 5));
        assert_eq!(t.outputs, vec![1]);
        // A consumed firing cannot replay.
        assert!(!fire(&mut engine, &mut t, 1, 2, 3));
    }

    #[test]
    fn generation_table_stays_bounded_by_armed_timers() {
        // A protocol keying timers by an unbounded sequence number (one
        // fresh id per "slot", fired or cancelled soon after) must not
        // leak a table entry per id — the production-longevity regression.
        struct Churn;
        impl Node for Churn {
            type Msg = Msg;
            type Output = u64;
            fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
                if let Input::Deliver { msg, .. } = input {
                    ctx.set_timer(TimerId(msg.0), 1); // arm slot timer
                    if msg.0 >= 2 {
                        ctx.cancel_timer(TimerId(msg.0 - 2)); // retire an old one
                    }
                }
            }
        }
        let mut engine = Engine::new(Churn, NodeId(0), 1);
        let mut t = Recorder::default();
        for k in 0..10_000 {
            deliver(&mut engine, &mut t, k, k);
        }
        assert!(engine.armed_timers() <= 2, "got {}", engine.armed_timers());
        // And firing the survivors empties the table entirely.
        for (id, generation, _) in t.armed.clone().iter().rev().take(2) {
            fire(&mut engine, &mut t, id.0, *generation, 10_000);
        }
        assert_eq!(engine.armed_timers(), 0);
    }

    #[test]
    fn deliveries_reach_the_node_and_outputs_the_transport() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        deliver(&mut engine, &mut t, 42, 1);
        assert_eq!(t.outputs, vec![42]);
    }

    #[test]
    fn flush_runs_exactly_once_per_dispatched_input() {
        // Batches of one seal once per input; stale timer firings never
        // reach dispatch, so they never seal.
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        deliver(&mut engine, &mut t, 1, 1);
        assert_eq!(t.flushes, 2);
        assert!(!fire(&mut engine, &mut t, 1, 1, 10), "stale");
        assert_eq!(t.flushes, 2, "a filtered firing dispatches nothing");
        assert!(fire(&mut engine, &mut t, 1, 2, 10));
        assert_eq!(t.flushes, 3);
    }

    /// A submitter whose pool holds one request.
    struct OneSlot {
        held: Option<u64>,
    }
    impl Node for OneSlot {
        type Msg = Msg;
        type Output = u64;
        fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
            match input {
                Input::Start => {
                    if let Some(v) = self.held.take() {
                        ctx.output(v);
                    }
                }
                Input::Deliver { msg, .. } => ctx.output(msg.0),
                Input::Timer { .. } => {}
            }
        }
    }
    impl Submitter for OneSlot {
        type Request = u64;
        type SubmitError = &'static str;
        fn accept(&mut self, req: u64) -> Result<(), &'static str> {
            if self.held.is_some() {
                return Err("full");
            }
            self.held = Some(req);
            Ok(())
        }
    }

    #[test]
    fn buffered_dispatches_seal_once_per_batch() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.batch(&mut t, |b| {
            for k in 1..=3 {
                b.step(EngineEvent::Deliver { from: NodeId(0), msg: Msg(k) }, Time(1));
            }
            assert_eq!(b.transport().flushes, 0, "nothing seals inside the batch");
            assert_eq!(b.transport().outputs, vec![1, 2, 3], "actions still dispatch eagerly");
        });
        assert_eq!(t.flushes, 1, "one flush covers the whole batch");
    }

    #[test]
    fn buffered_timer_filtering_matches_single_step() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        let ran = engine.batch(&mut t, |b| {
            let timer = |id, generation| EngineEvent::Timer { id: TimerId(id), generation };
            [
                b.step(timer(1, 1), Time(10)), // replaced arming
                b.step(timer(1, 2), Time(3)),
                b.step(timer(2, 3), Time(5)), // cancelled
            ]
        });
        assert_eq!(ran, [false, true, false]);
        assert_eq!(t.outputs, vec![1]);
        assert_eq!(t.flushes, 2, "start sealed itself; the batch sealed once");
    }

    #[test]
    fn step_batch_drains_events_with_one_seal() {
        let mut engine = Engine::new(OneSlot { held: None }, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        let ran = engine.batch(&mut t, |b| {
            let mut ran = 0;
            ran +=
                usize::from(b.step(EngineEvent::Deliver { from: NodeId(0), msg: Msg(5) }, Time(1)));
            ran +=
                usize::from(b.step(EngineEvent::Timer { id: TimerId(9), generation: 99 }, Time(1)));
            ran +=
                usize::from(b.step(EngineEvent::Deliver { from: NodeId(0), msg: Msg(6) }, Time(2)));
            ran
        });
        assert_eq!(ran, 2, "the stale firing does not run the node");
        assert_eq!(t.outputs, vec![5, 6]);
        assert_eq!(t.flushes, 2, "start sealed itself; the batch sealed once");
    }

    #[test]
    fn step_batch_of_stale_events_never_seals() {
        let mut engine = Engine::new(OneSlot { held: None }, NodeId(0), 1);
        let mut t = Recorder::default();
        assert!(!fire(&mut engine, &mut t, 1, 1, 0));
        assert_eq!(engine.batch(&mut t, |_| 7), 7, "an empty batch is free too");
        assert_eq!(t.flushes, 0, "no dispatch, no seal");
    }

    #[test]
    fn submit_mux_applies_backpressure() {
        let mut engine = Engine::new(OneSlot { held: None }, NodeId(0), 1);
        let mut t = Recorder::default();
        assert_eq!(engine.node_mut().accept(7), Ok(()));
        assert_eq!(engine.node_mut().accept(8), Err("full"), "pool is full");
        assert_eq!(t.flushes, 0, "admission never steps the node");
        engine.start(Time(0), &mut t);
        assert_eq!(t.outputs, vec![7], "the admitted request drains on start");
    }
}
