//! The unified engine layer of the TetraBFT suite.
//!
//! Every runtime in the workspace drives the same deterministic, sans-I/O
//! [`Node`] state machines; this crate is the one place that knows *how*
//! to drive them. It owns:
//!
//! * the node abstraction itself — [`Node`], [`Input`], [`Action`],
//!   [`Context`], [`TimerId`], [`WireSize`], virtual [`Time`];
//! * the [`Engine`] loop — one way to step a node ([`Engine::start`], then
//!   [`Engine::batch`] for every later delivery and timer firing, with the
//!   persist/flush seal run once per batch), client admission via
//!   [`Submitter`], timer-generation bookkeeping, and the dispatch of node
//!   [`Action`]s into a runtime-provided [`Transport`].
//!
//! `tetrabft-sim` plugs a deterministic virtual-time transport underneath
//! (an event queue plus link policies), `tetrabft-net` a threaded TCP
//! transport (sockets, a wall-clock timer heap, client channels). Neither
//! re-implements dispatch or timer semantics, so a fix or feature here —
//! batching, backpressure, new input classes — lands in both at once.
//!
//! # Examples
//!
//! See [`Engine`] for driving a node by hand with a recording transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod node;
mod time;

pub use driver::{Batch, Engine, EngineEvent, FrameRequest, Submitter, Transport};
pub use node::{Action, ActionBuf, Context, Dest, Input, Node, TimerId, WireSize};
pub use time::{Time, NEVER};
