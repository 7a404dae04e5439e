//! The protocol-facing state-machine interface (sans-I/O).

use tetrabft_types::{InlineVec, NodeId};

use crate::time::Time;

/// How many bytes a message occupies on the wire.
///
/// The simulator charges this size to the communication metrics; protocol
/// crates implement it by delegating to their codec's `wire_len`.
pub trait WireSize {
    /// Encoded size in bytes.
    fn wire_size(&self) -> usize;

    /// Coarse phase label for per-kind byte accounting ("proposal",
    /// "vote-1", "suggest", …). The simulator's metrics bucket traffic by
    /// this label; the default lumps everything together, which is fine
    /// for test doubles.
    fn wire_kind(&self) -> &'static str {
        "message"
    }

    /// The write-once register this message claims, if any — the hook the
    /// accountability audit hangs off. Protocol messages that commit their
    /// sender to one value per `(slot, view, phase)` register (proposals,
    /// votes) return `Some`; recovery traffic and test doubles return the
    /// default `None` and are never audited.
    fn audit_claim(&self) -> Option<tetrabft_types::AuditClaim> {
        None
    }
}

/// Identifier of a protocol timer, chosen by the protocol.
///
/// Setting a timer with an id that is already pending *replaces* it; firing
/// and cancellation are matched per id. The id space is the full `u64` so
/// protocols may key timers by unbounded sequence numbers (multi-shot keys
/// them by slot) without aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Destination of a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Every node in the system, including the sender (loopback is
    /// delivered with zero delay and charged zero bytes).
    All,
    /// A single node.
    Node(NodeId),
}

/// An input event delivered to a [`Node`].
#[derive(Debug, Clone)]
pub enum Input<M> {
    /// The node boots; delivered exactly once at time zero.
    Start,
    /// A message arrived. `from` is trustworthy — this is precisely the
    /// authenticated-channels assumption of the paper.
    Deliver {
        /// The true sender of the message.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A previously set timer fired.
    Timer {
        /// Which timer.
        id: TimerId,
    },
}

/// A deterministic protocol state machine.
///
/// Implementations must be pure: all effects go through the [`Context`].
/// The same state machine is driven by the simulator, by the TCP runtime
/// in `tetrabft-net`, and by schedule exploration in tests — all through
/// the shared [`Engine`](crate::Engine) loop.
pub trait Node {
    /// Message type exchanged with peers.
    type Msg: WireSize + Clone;
    /// Protocol output (e.g. a decided value, a finalized block).
    type Output;

    /// Processes one input event, emitting effects into `ctx`.
    fn handle(&mut self, input: Input<Self::Msg>, ctx: &mut Context<'_, Self::Msg, Self::Output>);

    /// Flushes durable state to stable storage.
    ///
    /// The [`Engine`](crate::Engine) calls this exactly once per seal —
    /// after boot and after each [`Engine::batch`](crate::Engine::batch)
    /// that ran the node — once every action has been handed to the
    /// transport but *before*
    /// [`Transport::flush`](crate::Transport::flush). A buffering transport
    /// (like the TCP runtime, which stages sends until flush) gives
    /// write-ahead semantics for free: votes hit disk before the messages
    /// that depend on them leave the process. In-memory nodes keep the
    /// default no-op.
    fn persist(&mut self) {}

    /// Monotone restart counter of this node's durable state, exchanged in
    /// transport handshakes so peers can detect a restart (and drop frames
    /// buffered for the previous incarnation). Nodes without durable state
    /// return 0: they cannot restart-with-state, so no peer ever needs to
    /// distinguish their incarnations.
    fn incarnation(&self) -> u64 {
        0
    }
}

impl<N: Node + ?Sized> Node for Box<N> {
    type Msg = N::Msg;
    type Output = N::Output;
    fn handle(&mut self, input: Input<Self::Msg>, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        (**self).handle(input, ctx)
    }
    fn persist(&mut self) {
        (**self).persist()
    }
    fn incarnation(&self) -> u64 {
        (**self).incarnation()
    }
}

/// An effect a node asked its environment to perform.
///
/// The [`Engine`](crate::Engine) interprets these against a
/// [`Transport`](crate::Transport); embedders that drive nodes by hand
/// (protocol wrappers like the repeated-single-shot baseline) obtain them
/// via [`Context::buffered`].
#[derive(Debug)]
pub enum Action<M, O> {
    /// Send `msg` to `dest`.
    Send {
        /// Destination (a node or everyone).
        dest: Dest,
        /// The message.
        msg: M,
    },
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// Which timer.
        id: TimerId,
        /// Ticks from now.
        after: u64,
    },
    /// Cancel a pending timer.
    CancelTimer {
        /// Which timer.
        id: TimerId,
    },
    /// Emit a protocol output.
    Output(O),
}

/// The action buffer one [`Node::handle`] call writes into.
///
/// A good-case step emits at most a handful of effects (a broadcast, a
/// timer re-arm, maybe an output), so the buffer keeps 8 slots inline and
/// only touches the heap on bursts — the per-dispatch `Vec` allocation was
/// one of the hottest sites in the consensus pipeline.
pub type ActionBuf<M, O> = InlineVec<Action<M, O>, 8>;

/// Effect sink and environment view handed to [`Node::handle`].
pub struct Context<'a, M, O> {
    pub(crate) me: NodeId,
    pub(crate) n: usize,
    pub(crate) now: Time,
    pub(crate) effects: &'a mut ActionBuf<M, O>,
}

impl<'a, M, O> Context<'a, M, O> {
    /// Creates a context that records every effect into `buf`, for driving
    /// a [`Node`] outside an engine (protocol wrappers, tests).
    ///
    /// # Examples
    ///
    /// ```
    /// use tetrabft_engine::{ActionBuf, Context};
    /// use tetrabft_types::NodeId;
    ///
    /// let mut buf: ActionBuf<u8, ()> = ActionBuf::new();
    /// let mut ctx = Context::buffered(NodeId(0), 4, tetrabft_engine::Time(0), &mut buf);
    /// ctx.send(NodeId(1), 42u8);
    /// assert_eq!(buf.len(), 1);
    /// ```
    pub fn buffered(me: NodeId, n: usize, now: Time, buf: &'a mut ActionBuf<M, O>) -> Self {
        Context { me, n, now, effects: buf }
    }
}

impl<M, O> Context<'_, M, O> {
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

    /// Current virtual (or wall-clock-derived) time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to a single node.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Action::Send { dest: Dest::Node(to), msg });
    }

    /// Broadcasts `msg` to every node, itself included.
    pub fn broadcast(&mut self, msg: M) {
        self.effects.push(Action::Send { dest: Dest::All, msg });
    }

    /// Arms (or re-arms) timer `id` to fire `after` ticks from now.
    pub fn set_timer(&mut self, id: TimerId, after: u64) {
        self.effects.push(Action::SetTimer { id, after });
    }

    /// Cancels timer `id` if pending.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Action::CancelTimer { id });
    }

    /// Emits a protocol output (decision, finalization, …).
    pub fn output(&mut self, out: O) {
        self.effects.push(Action::Output(out));
    }
}
