//! Message types of Basic TetraBFT (Section 3.1).

use tetrabft_sim::WireSize;
use tetrabft_types::{AuditClaim, Phase, Value, View, VoteInfo};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// Encodes a historical vote against the base view both ends already know
/// (the message's own view): a varint view *delta* plus the value.
///
/// Real suggest/proof traffic reports votes from views at or just below the
/// message's view, so the delta is almost always one byte. The delta is a
/// wrapping difference, which keeps the encoding lossless for *any* pair of
/// views — a Byzantine sender claiming a vote from the future costs itself
/// up to ten bytes but decodes back to exactly what it sent.
fn encode_vote_delta(base: View, vote: &VoteInfo, w: &mut Writer) {
    w.put_varint(base.0.wrapping_sub(vote.view.0));
    vote.value.encode(w);
}

fn decode_vote_delta(base: View, r: &mut Reader<'_>) -> Result<VoteInfo, WireError> {
    let delta = r.get_varint_u64()?;
    Ok(VoteInfo { view: View(base.0.wrapping_sub(delta)), value: Value::decode(r)? })
}

/// Encodes three optional votes as one presence bitmap byte (bits 0..=2)
/// followed by the present votes, delta-compressed against `base` — v2's
/// replacement for three per-`Option` tag bytes and absolute views.
fn encode_vote_triple(base: View, votes: [&Option<VoteInfo>; 3], w: &mut Writer) {
    let mut bitmap = 0u8;
    for (bit, vote) in votes.iter().enumerate() {
        if vote.is_some() {
            bitmap |= 1 << bit;
        }
    }
    w.put_u8(bitmap);
    for vote in votes.into_iter().flatten() {
        encode_vote_delta(base, vote, w);
    }
}

fn decode_vote_triple(
    base: View,
    what: &'static str,
    r: &mut Reader<'_>,
) -> Result<[Option<VoteInfo>; 3], WireError> {
    let bitmap = r.get_u8()?;
    if bitmap & !0b111 != 0 {
        return Err(WireError::InvalidTag { what, tag: bitmap });
    }
    let mut votes = [None, None, None];
    for (bit, vote) in votes.iter_mut().enumerate() {
        if bitmap & (1 << bit) != 0 {
            *vote = Some(decode_vote_delta(base, r)?);
        }
    }
    Ok(votes)
}

/// Payload of a `suggest` message: the sender's historical `vote-2`/`vote-3`
/// records, used by leaders to determine safe values (Rule 1 / Rule 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuggestData {
    /// Highest `vote-2` the sender ever cast.
    pub vote2: Option<VoteInfo>,
    /// Highest `vote-2` the sender cast for a value different from `vote2`.
    pub prev_vote2: Option<VoteInfo>,
    /// Highest `vote-3` the sender ever cast.
    pub vote3: Option<VoteInfo>,
}

/// Payload of a `proof` message: same structure as [`SuggestData`] but with
/// `vote-1` in place of `vote-2` and `vote-4` in place of `vote-3`, used by
/// followers to validate proposals (Rule 3 / Rule 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProofData {
    /// Highest `vote-1` the sender ever cast.
    pub vote1: Option<VoteInfo>,
    /// Highest `vote-1` the sender cast for a value different from `vote1`.
    pub prev_vote1: Option<VoteInfo>,
    /// Highest `vote-4` the sender ever cast.
    pub vote4: Option<VoteInfo>,
}

/// A Basic TetraBFT message.
///
/// The good case uses only [`Message::Proposal`] and [`Message::Vote`];
/// suggest/proof/view-change appear only when recovering from asynchrony or
/// a faulty leader — the property that distinguishes TetraBFT's pipelined
/// extension from IT-HS's (Section 1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// `⟨proposal, v, val⟩` — only sent by the leader of `view`.
    Proposal {
        /// View the proposal is made in.
        view: View,
        /// Proposed value.
        value: Value,
    },
    /// `⟨vote-i, v, val⟩` for `i ∈ 1..=4`.
    Vote {
        /// Which of the four voting phases.
        phase: Phase,
        /// View the vote is cast in.
        view: View,
        /// Value voted for.
        value: Value,
    },
    /// `⟨suggest, …⟩` — sent to the leader on entering a view `> 0`.
    Suggest {
        /// View the sender is entering.
        view: View,
        /// Historical vote-2/vote-3 records.
        data: SuggestData,
    },
    /// `⟨proof, …⟩` — broadcast on entering a view `> 0`.
    Proof {
        /// View the sender is entering.
        view: View,
        /// Historical vote-1/vote-4 records.
        data: ProofData,
    },
    /// `⟨view-change, v⟩` — a request to move to view `v`.
    ViewChange {
        /// The view the sender wants to move to.
        view: View,
    },
}

impl Message {
    /// The view this message belongs to.
    pub fn view(&self) -> View {
        match self {
            Message::Proposal { view, .. }
            | Message::Vote { view, .. }
            | Message::Suggest { view, .. }
            | Message::Proof { view, .. }
            | Message::ViewChange { view } => *view,
        }
    }

    /// Short human-readable kind, used by traces and figures.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Proposal { .. } => "proposal",
            Message::Vote { phase, .. } => match phase.as_u8() {
                1 => "vote-1",
                2 => "vote-2",
                3 => "vote-3",
                _ => "vote-4",
            },
            Message::Suggest { .. } => "suggest",
            Message::Proof { .. } => "proof",
            Message::ViewChange { .. } => "view-change",
        }
    }
}

const TAG_PROPOSAL: u8 = 1;
const TAG_VOTE: u8 = 2;
const TAG_SUGGEST: u8 = 3;
const TAG_PROOF: u8 = 4;
const TAG_VIEW_CHANGE: u8 = 5;

impl SuggestData {
    /// Encodes the payload delta-compressed against `base` — the view of
    /// the enclosing message, which the decoder reads first and therefore
    /// shares. See [`Message::Suggest`].
    pub fn encode_with_base(&self, base: View, w: &mut Writer) {
        encode_vote_triple(base, [&self.vote2, &self.prev_vote2, &self.vote3], w);
    }

    /// Decodes a payload encoded by [`SuggestData::encode_with_base`].
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidTag`] on a presence bitmap with unknown bits, or
    /// any varint/value decode failure.
    pub fn decode_with_base(base: View, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let [vote2, prev_vote2, vote3] = decode_vote_triple(base, "SuggestData bitmap", r)?;
        Ok(SuggestData { vote2, prev_vote2, vote3 })
    }
}

impl ProofData {
    /// Encodes the payload delta-compressed against `base`; see
    /// [`SuggestData::encode_with_base`].
    pub fn encode_with_base(&self, base: View, w: &mut Writer) {
        encode_vote_triple(base, [&self.vote1, &self.prev_vote1, &self.vote4], w);
    }

    /// Decodes a payload encoded by [`ProofData::encode_with_base`].
    ///
    /// # Errors
    ///
    /// As [`SuggestData::decode_with_base`].
    pub fn decode_with_base(base: View, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let [vote1, prev_vote1, vote4] = decode_vote_triple(base, "ProofData bitmap", r)?;
        Ok(ProofData { vote1, prev_vote1, vote4 })
    }
}

impl Wire for Message {
    fn encode(&self, w: &mut Writer) {
        match self {
            Message::Proposal { view, value } => {
                w.put_u8(TAG_PROPOSAL);
                view.encode(w);
                value.encode(w);
            }
            Message::Vote { phase, view, value } => {
                w.put_u8(TAG_VOTE);
                phase.encode(w);
                view.encode(w);
                value.encode(w);
            }
            Message::Suggest { view, data } => {
                w.put_u8(TAG_SUGGEST);
                view.encode(w);
                data.encode_with_base(*view, w);
            }
            Message::Proof { view, data } => {
                w.put_u8(TAG_PROOF);
                view.encode(w);
                data.encode_with_base(*view, w);
            }
            Message::ViewChange { view } => {
                w.put_u8(TAG_VIEW_CHANGE);
                view.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_PROPOSAL => {
                Ok(Message::Proposal { view: View::decode(r)?, value: Value::decode(r)? })
            }
            TAG_VOTE => Ok(Message::Vote {
                phase: Phase::decode(r)?,
                view: View::decode(r)?,
                value: Value::decode(r)?,
            }),
            TAG_SUGGEST => {
                let view = View::decode(r)?;
                Ok(Message::Suggest { view, data: SuggestData::decode_with_base(view, r)? })
            }
            TAG_PROOF => {
                let view = View::decode(r)?;
                Ok(Message::Proof { view, data: ProofData::decode_with_base(view, r)? })
            }
            TAG_VIEW_CHANGE => Ok(Message::ViewChange { view: View::decode(r)? }),
            tag => Err(WireError::InvalidTag { what: "Message", tag }),
        }
    }
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
    fn wire_kind(&self) -> &'static str {
        self.kind()
    }
    /// Proposals and votes claim a write-once `(view, phase)` register — the
    /// accountability audit flags a sender that claims one twice with
    /// different values. Suggest/proof/view-change carry history, not
    /// claims, and are not audited.
    fn audit_claim(&self) -> Option<AuditClaim> {
        match self {
            Message::Proposal { view, value } => {
                Some(AuditClaim { slot: None, view: *view, phase: None, value: *value })
            }
            Message::Vote { phase, view, value } => {
                Some(AuditClaim { slot: None, view: *view, phase: Some(*phase), value: *value })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_types::View;

    fn vi(view: u64, value: u64) -> VoteInfo {
        VoteInfo::new(View(view), Value::from_u64(value))
    }

    fn roundtrip(msg: Message) {
        let bytes = msg.to_bytes();
        assert_eq!(Message::from_bytes(&bytes).unwrap(), msg);
        assert_eq!(msg.wire_size(), bytes.len());
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Proposal { view: View(3), value: Value::from_u64(9) });
        for phase in Phase::ALL {
            roundtrip(Message::Vote { phase, view: View(1), value: Value::from_u64(2) });
        }
        roundtrip(Message::Suggest {
            view: View(4),
            data: SuggestData { vote2: Some(vi(3, 1)), prev_vote2: Some(vi(1, 2)), vote3: None },
        });
        roundtrip(Message::Proof {
            view: View(4),
            data: ProofData { vote1: None, prev_vote1: None, vote4: Some(vi(2, 5)) },
        });
        roundtrip(Message::ViewChange { view: View(77) });
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::from_bytes(&[99]),
            Err(WireError::InvalidTag { what: "Message", tag: 99 })
        ));
    }

    #[test]
    fn view_accessor_and_kind() {
        let m = Message::Vote { phase: Phase::VOTE3, view: View(6), value: Value::from_u64(0) };
        assert_eq!(m.view(), View(6));
        assert_eq!(m.kind(), "vote-3");
        assert_eq!(Message::ViewChange { view: View(1) }.kind(), "view-change");
    }

    #[test]
    fn messages_are_constant_size() {
        // Every TetraBFT message is O(1) bytes — the communication row of
        // Table 1 relies on it.
        let worst = Message::Suggest {
            view: View(u64::MAX),
            data: SuggestData {
                vote2: Some(vi(u64::MAX, u64::MAX)),
                prev_vote2: Some(vi(u64::MAX, u64::MAX)),
                vote3: Some(vi(u64::MAX, u64::MAX)),
            },
        };
        assert!(worst.wire_size() < 128, "messages must be constant-size");
    }

    #[test]
    fn v2_sizes_for_realistic_messages() {
        // tag + varint view + bitmap: an empty suggest is three bytes.
        let empty = Message::Suggest { view: View(1), data: SuggestData::default() };
        assert_eq!(empty.wire_len(), 3);
        // Present votes cost 1 (delta) + 8 (value) each at realistic views.
        let full = Message::Suggest {
            view: View(5),
            data: SuggestData { vote2: Some(vi(4, 1)), prev_vote2: Some(vi(2, 2)), vote3: None },
        };
        assert_eq!(full.wire_len(), 3 + 2 * 9);
        assert_eq!(Message::ViewChange { view: View(1) }.wire_len(), 2);
        let vote = Message::Vote { phase: Phase::VOTE1, view: View(1), value: Value::from_u64(7) };
        assert_eq!(vote.wire_len(), 11);
    }

    #[test]
    fn suggest_deltas_roundtrip_even_for_hostile_views() {
        // A Byzantine sender may claim votes from views above the message's
        // own; wrapping deltas keep the codec lossless regardless.
        for (msg_view, vote_view) in [(0u64, u64::MAX), (5, 9), (u64::MAX, 0), (7, 7)] {
            roundtrip(Message::Suggest {
                view: View(msg_view),
                data: SuggestData { vote2: Some(vi(vote_view, 3)), ..Default::default() },
            });
        }
    }

    #[test]
    fn unknown_bitmap_bits_rejected() {
        let mut w = Writer::new();
        w.put_u8(TAG_SUGGEST);
        View(1).encode(&mut w);
        w.put_u8(0b1000); // only bits 0..=2 are defined
        assert_eq!(
            Message::from_bytes(w.as_bytes()),
            Err(WireError::InvalidTag { what: "SuggestData bitmap", tag: 0b1000 })
        );
    }
}
