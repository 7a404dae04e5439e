//! The attack catalogue: protocol-speaking Byzantine behaviors.
//!
//! Each constructor returns a [`Behavior`] that a
//! [`ByzantineActor`](tetrabft_sim::ByzantineActor) composes with others.
//! The actor expands broadcasts to every *other* node, applies its
//! selective silence and caps its emissions. This module is the one place
//! attacks are written: the fuzzer samples from it, and the safety tests
//! and the `byzantine_lab` example build their attackers from it. The two
//! other faulty replicas need no behavior: a crash is a
//! [`SilentNode`](tetrabft_sim::SilentNode), and an honest node with some
//! sends cut is a [`FilteredNode`](tetrabft_sim::FilteredNode).
//!
//! Single-shot behaviors speak [`Message`], chain behaviors speak
//! [`MsMessage`]; the scenario builder picks the right family from
//! [`Mode`](crate::Mode). The actor's default emission budget keeps a fuzz
//! run bounded; a safety test that wants an uncapped attacker builds its
//! actor with `with_budget(u64::MAX)`.

use tetrabft::{Message, ProofData, SuggestData};
use tetrabft_multishot::{BlockHash, MsMessage};
use tetrabft_sim::{Behavior, BehaviorEnv, Dest, FnBehavior, Input};
use tetrabft_types::{Config, Phase, Slot, Value, View, VoteInfo};

/// Ensures the equivocation offset actually flips at least one bit.
fn nonzero(flip: u64) -> u64 {
    flip | 1
}

/// Split-brain equivocator: courts even-numbered peers with one value and
/// odd-numbered peers with a conflicting one.
///
/// On `Start` it poses as the view-0 leader, sending each side its own
/// proposal plus matching votes through all four phases — if this node
/// really is the view-0 leader and enough Byzantine peers run the same
/// strategy, each honest side can assemble a full quorum for its value.
/// Afterwards it echoes every delivered vote per-recipient: verbatim to
/// even peers, value-flipped to odd peers, feeding both sides in later
/// views too. The per-recipient conflict is exactly what the omniscient
/// wire recorder and honest registers convict as equivocation evidence.
pub fn equivocator(flip: u64) -> impl Behavior<Message> {
    let flip = nonzero(flip);
    let base = 0xe0_0001u64;
    FnBehavior::new(
        move |input: &Input<Message>, env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| match input
        {
            Input::Start => {
                for peer in 0..env.n as u16 {
                    if peer == env.me.0 {
                        continue;
                    }
                    let side = if peer % 2 == 0 { base } else { base ^ flip };
                    let value = Value::from_u64(side);
                    let dest = Dest::Node(tetrabft_types::NodeId(peer));
                    out.push((dest, Message::Proposal { view: View(0), value }));
                    for phase in Phase::ALL {
                        out.push((dest, Message::Vote { phase, view: View(0), value }));
                    }
                }
            }
            Input::Deliver { msg: Message::Vote { phase, view, value }, .. } => {
                for peer in 0..env.n as u16 {
                    if peer == env.me.0 {
                        continue;
                    }
                    let side =
                        if peer % 2 == 0 { *value } else { Value::from_u64(value.as_u64() ^ flip) };
                    out.push((
                        Dest::Node(tetrabft_types::NodeId(peer)),
                        Message::Vote { phase: *phase, view: *view, value: side },
                    ));
                }
            }
            _ => {}
        },
    )
}

/// Replays every delivered vote shifted `view_offset` views into the future,
/// probing the view-change and register bookkeeping with stale ballots that
/// claim to be fresh.
pub fn skewed_replayer(view_offset: u64) -> impl Behavior<Message> {
    FnBehavior::new(
        move |input: &Input<Message>, _env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| {
            if let Input::Deliver { msg: Message::Vote { phase, view, value }, .. } = input {
                out.push((
                    Dest::All,
                    Message::Vote {
                        phase: *phase,
                        view: View(view.0.saturating_add(view_offset)),
                        value: *value,
                    },
                ));
            }
        },
    )
}

/// Replays every delivered vote one view back (stale) and one view ahead
/// (premature), both of which honest registers must tolerate.
pub fn stale_replayer() -> impl Behavior<Message> {
    FnBehavior::new(|input: &Input<Message>, _env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| {
        if let Input::Deliver { msg: Message::Vote { phase, view, value }, .. } = input {
            if let Some(prev) = view.prev() {
                out.push((Dest::All, Message::Vote { phase: *phase, view: prev, value: *value }));
            }
            out.push((
                Dest::All,
                Message::Vote { phase: *phase, view: view.next(), value: *value },
            ));
        }
    })
}

/// Maximal vote amplification: for every new `(view, value)` pair it hears
/// in a proposal or a vote, it broadcasts a vote in all four phases. It
/// remembers the last 64 pairs, so a long run cannot grow its memory.
pub fn vote_amplifier() -> impl Behavior<Message> {
    let mut seen: Vec<(View, Value)> = Vec::new();
    FnBehavior::new(
        move |input: &Input<Message>, _env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| {
            let (view, value) = match input {
                Input::Deliver {
                    msg: Message::Proposal { view, value } | Message::Vote { view, value, .. },
                    ..
                } => (*view, *value),
                _ => return,
            };
            if seen.contains(&(view, value)) {
                return;
            }
            if seen.len() >= 64 {
                seen.remove(0);
            }
            seen.push((view, value));
            for phase in Phase::ALL {
                out.push((Dest::All, Message::Vote { phase, view, value }));
            }
        },
    )
}

/// A lying historian: the first time it hears a view change into a view,
/// it fabricates history for `poison` there. It broadcasts a proof and
/// sends the view's leader a suggest, both claiming votes for `poison` in
/// the previous view, then joins the view change.
pub fn lying_historian(poison: Value) -> impl Behavior<Message> {
    let mut answered_up_to: Option<View> = None;
    FnBehavior::new(
        move |input: &Input<Message>, env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| {
            let Input::Deliver { msg: Message::ViewChange { view }, .. } = input else { return };
            let view = *view;
            if answered_up_to.is_some_and(|v| view <= v) {
                return;
            }
            answered_up_to = Some(view);
            let fake = Some(VoteInfo::new(View(view.0.saturating_sub(1)), poison));
            out.push((
                Dest::All,
                Message::Proof {
                    view,
                    data: ProofData { vote1: fake, prev_vote1: None, vote4: fake },
                },
            ));
            let leader =
                Config::new(env.n).expect("a running system has a valid size").leader_of(view);
            out.push((
                Dest::Node(leader),
                Message::Suggest {
                    view,
                    data: SuggestData { vote2: fake, prev_vote2: None, vote3: fake },
                },
            ));
            out.push((Dest::All, Message::ViewChange { view }));
        },
    )
}

/// On every adversary tick, broadcasts a rotating stream of forged proposals
/// and votes across low views. Because the rotation period of the value
/// (3) and the register (4 phases × 5 views) are coprime, the spammer also
/// self-equivocates over time, exercising the evidence path.
pub fn value_spammer() -> impl Behavior<Message> {
    let mut k: u64 = 0;
    FnBehavior::new(
        move |input: &Input<Message>, _env: &BehaviorEnv, out: &mut Vec<(Dest, Message)>| {
            if matches!(input, Input::Timer { .. }) {
                k += 1;
                out.push((
                    Dest::All,
                    Message::Vote {
                        phase: Phase::ALL[(k % 4) as usize],
                        view: View(k % 5),
                        value: Value::from_u64(0xbad_0000 + k % 3),
                    },
                ));
                out.push((
                    Dest::All,
                    Message::Proposal {
                        view: View(k % 5),
                        value: Value::from_u64(0xbad_1000 + k % 3),
                    },
                ));
            }
        },
    )
}

/// Chain-mode split-brain equivocator: votes the real block hash toward
/// even-numbered peers and a flipped hash toward odd-numbered peers, for
/// every proposal or vote it hears about, in the same `(slot, view)`
/// register.
pub fn ms_equivocator(flip: u64) -> impl Behavior<MsMessage> {
    let flip = nonzero(flip);
    FnBehavior::new(
        move |input: &Input<MsMessage>, env: &BehaviorEnv, out: &mut Vec<(Dest, MsMessage)>| {
            if let Input::Deliver { msg, .. } = input {
                let (slot, view, hash) = match msg {
                    MsMessage::Proposal { view, block } => (block.slot, *view, block.hash()),
                    MsMessage::Vote { slot, view, hash } => (*slot, *view, *hash),
                    _ => return,
                };
                for peer in 0..env.n as u16 {
                    if peer == env.me.0 {
                        continue;
                    }
                    let side = if peer % 2 == 0 { hash } else { BlockHash(hash.0 ^ flip) };
                    out.push((
                        Dest::Node(tetrabft_types::NodeId(peer)),
                        MsMessage::Vote { slot, view, hash: side },
                    ));
                }
            }
        },
    )
}

/// Chain-mode view skew: replays delivered votes `view_offset` views ahead.
pub fn ms_skewed_replayer(view_offset: u64) -> impl Behavior<MsMessage> {
    FnBehavior::new(
        move |input: &Input<MsMessage>, _env: &BehaviorEnv, out: &mut Vec<(Dest, MsMessage)>| {
            if let Input::Deliver { msg: MsMessage::Vote { slot, view, hash }, .. } = input {
                out.push((
                    Dest::All,
                    MsMessage::Vote {
                        slot: *slot,
                        view: View(view.0.saturating_add(view_offset)),
                        hash: *hash,
                    },
                ));
            }
        },
    )
}

/// Chain-mode spam: forged votes for rotating low slots with bogus hashes.
pub fn ms_value_spammer() -> impl Behavior<MsMessage> {
    let mut k: u64 = 0;
    FnBehavior::new(
        move |input: &Input<MsMessage>, _env: &BehaviorEnv, out: &mut Vec<(Dest, MsMessage)>| {
            if matches!(input, Input::Timer { .. }) {
                k += 1;
                out.push((
                    Dest::All,
                    MsMessage::Vote {
                        slot: Slot(1 + k % 4),
                        view: View(k % 3),
                        hash: BlockHash(0xbad_c0de + k % 3),
                    },
                ));
            }
        },
    )
}
