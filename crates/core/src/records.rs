//! Per-peer receive registers — the constant-storage realization of
//! the paper's "nodes keep checking … messages".
//!
//! For each peer the node stores only the *latest* message of each kind
//! (one slot per vote phase, one for the proposal, one each for
//! suggest/proof, and the highest view-change view). Well-behaved peers send
//! at most one message per kind per view with non-decreasing views, so no
//! information a future view needs is ever lost, while total memory stays
//! O(n) — constant per peer — as the Table 1 storage column requires.

use tetrabft_types::{Config, Evidence, InlineVec, NodeId, Phase, Value, View, VoteInfo};

use crate::msg::{Message, ProofData, SuggestData};

/// Most evidence records a register file retains. One record is enough to
/// convict a node, so the cap only bounds memory against evidence spam;
/// dedup is per `(node, view, phase)` register.
const EVIDENCE_CAP: usize = 64;

fn push_evidence(evidence: &mut Vec<Evidence>, ev: Evidence) {
    let dup =
        evidence.iter().any(|e| e.node == ev.node && e.view == ev.view && e.phase == ev.phase);
    if !dup && evidence.len() < EVIDENCE_CAP {
        evidence.push(ev);
    }
}

/// One tally table: distinct `(view, value)` pairs among the peers' *latest*
/// votes in one phase, with their counts. Latest-vote-per-peer bounds the
/// table at `n` entries; in the good case (one view, one value) it holds a
/// single entry, so the `InlineVec` never spills.
type TallyTable = InlineVec<(View, Value, u32), 4>;

/// Increments the tally for `(view, value)`, inserting it at count 1 if
/// absent.
fn tally_add(table: &mut TallyTable, view: View, value: Value) {
    for i in 0..table.len() {
        let entry = table.get_mut(i).expect("index below len");
        if entry.0 == view && entry.1 == value {
            entry.2 += 1;
            return;
        }
    }
    table.push((view, value, 1));
}

/// Decrements the tally for `(view, value)`, removing the entry at zero so
/// the table tracks only live votes.
fn tally_sub(table: &mut TallyTable, view: View, value: Value) {
    for i in 0..table.len() {
        let entry = table.get_mut(i).expect("index below len");
        if entry.0 == view && entry.1 == value {
            entry.2 -= 1;
            if entry.2 == 0 {
                table.swap_remove(i);
            }
            return;
        }
    }
    debug_assert!(false, "decremented a tally that was never incremented");
}

/// Registers for a single peer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerRecord {
    votes: [Option<VoteInfo>; 4],
    proposal: Option<VoteInfo>,
    suggest: Option<(View, SuggestData)>,
    proof: Option<(View, ProofData)>,
    view_change: Option<View>,
}

impl PeerRecord {
    /// The latest vote received from this peer in `phase`, if any.
    pub fn vote(&self, phase: Phase) -> Option<VoteInfo> {
        self.votes[phase.index()]
    }

    /// The latest proposal received from this peer, if any.
    pub fn proposal(&self) -> Option<VoteInfo> {
        self.proposal
    }

    /// The latest suggest received from this peer, if any.
    pub fn suggest(&self) -> Option<(View, SuggestData)> {
        self.suggest
    }

    /// The latest proof received from this peer, if any.
    pub fn proof(&self) -> Option<(View, ProofData)> {
        self.proof
    }

    /// The highest view-change view received from this peer, if any.
    pub fn view_change(&self) -> Option<View> {
        self.view_change
    }
}

/// Replace `slot` with `(view, payload)` if it is newer.
///
/// Equal-view messages keep the original: an equivocating peer cannot flip a
/// register it already committed for that view, so every later re-evaluation
/// sees a stable snapshot.
fn upsert<T>(slot: &mut Option<(View, T)>, view: View, payload: T) {
    match slot {
        Some((held, _)) if view <= *held => {}
        _ => *slot = Some((view, payload)),
    }
}

/// The register file: one [`PeerRecord`] per peer.
///
/// # Examples
///
/// ```
/// use tetrabft::{Message, Registers};
/// use tetrabft_types::{Config, NodeId, Phase, Value, View};
///
/// let cfg = Config::new(4)?;
/// let mut regs = Registers::new(&cfg);
/// regs.record(NodeId(2), &Message::Vote {
///     phase: Phase::VOTE1,
///     view: View(0),
///     value: Value::from_u64(5),
/// });
/// assert_eq!(regs.count_votes(Phase::VOTE1, View(0), Value::from_u64(5)), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Registers {
    peers: Vec<PeerRecord>,
    /// Per-phase incremental tallies over the peers' latest votes,
    /// maintained by [`Registers::record`] — the precomputed
    /// quorum-threshold tables the model checker's `mc/model.rs` proved out
    /// (its packed-count pass turned minutes into seconds). They make
    /// [`Registers::quorum_value`] / [`Registers::quorum_value_any`] O(distinct
    /// values) lookups with zero allocation, replacing an O(n) peer re-scan
    /// per engine step (kept as the test oracle `vote_tallies`).
    tallies: [TallyTable; 4],
    /// Equivocation evidence harvested by [`Registers::record`]: a peer that
    /// re-claims a same-view register with a *different* value convicts
    /// itself (channels are authenticated), and the conflicting pair is
    /// retained as an auditable record. Best-effort by design — the
    /// registers keep only the latest view per slot, so conflicts against
    /// already-overwritten views go undetected here (the simulator's
    /// omniscient recorder catches those).
    evidence: Vec<Evidence>,
}

/// Equality is over the peer registers only: the tally tables are a pure
/// function of them (entry *order* varies with arrival history, which must
/// not affect equality), and the evidence log is an audit side-channel, not
/// protocol state.
impl PartialEq for Registers {
    fn eq(&self, other: &Self) -> bool {
        self.peers == other.peers
    }
}

impl Eq for Registers {}

impl Registers {
    /// Creates an empty register file for `cfg.n()` peers.
    pub fn new(cfg: &Config) -> Self {
        Registers {
            peers: vec![PeerRecord::default(); cfg.n()],
            tallies: std::array::from_fn(|_| TallyTable::new()),
            evidence: Vec::new(),
        }
    }

    /// Equivocation evidence harvested while recording, in detection order.
    pub fn evidence(&self) -> &[Evidence] {
        &self.evidence
    }

    /// The record of one peer.
    pub fn peer(&self, id: NodeId) -> &PeerRecord {
        &self.peers[id.index()]
    }

    /// Folds `msg` from `from` into the registers.
    ///
    /// Stale messages (older view than the slot already holds) are dropped;
    /// equal-view duplicates keep the first-received copy.
    pub fn record(&mut self, from: NodeId, msg: &Message) {
        let peer = &mut self.peers[from.index()];
        match msg {
            Message::Proposal { view, value } => {
                if let Some(held) = peer.proposal {
                    if held.view == *view && held.value != *value {
                        push_evidence(
                            &mut self.evidence,
                            Evidence {
                                node: from,
                                slot: None,
                                view: *view,
                                phase: None,
                                first: held.value,
                                second: *value,
                            },
                        );
                    }
                }
                if peer.proposal.is_none_or(|held| *view > held.view) {
                    peer.proposal = Some(VoteInfo::new(*view, *value));
                }
            }
            Message::Vote { phase, view, value } => {
                let slot = &mut peer.votes[phase.index()];
                if let Some(held) = slot {
                    if held.view == *view && held.value != *value {
                        push_evidence(
                            &mut self.evidence,
                            Evidence {
                                node: from,
                                slot: None,
                                view: *view,
                                phase: Some(*phase),
                                first: held.value,
                                second: *value,
                            },
                        );
                    }
                }
                if slot.is_none_or(|held| *view > held.view) {
                    let outgoing = slot.replace(VoteInfo::new(*view, *value));
                    let table = &mut self.tallies[phase.index()];
                    if let Some(old) = outgoing {
                        tally_sub(table, old.view, old.value);
                    }
                    tally_add(table, *view, *value);
                }
            }
            Message::Suggest { view, data } => upsert(&mut peer.suggest, *view, *data),
            Message::Proof { view, data } => upsert(&mut peer.proof, *view, *data),
            Message::ViewChange { view } => {
                if peer.view_change.is_none_or(|held| *view > held) {
                    peer.view_change = Some(*view);
                }
            }
        }
    }

    /// Number of peers whose latest `phase` vote is for exactly
    /// `(view, value)`.
    pub fn count_votes(&self, phase: Phase, view: View, value: Value) -> usize {
        self.peers.iter().filter(|p| p.vote(phase) == Some(VoteInfo::new(view, value))).count()
    }

    /// Number of peers whose latest `phase` vote is for `value`, in *any*
    /// view. Multi-shot TetraBFT counts notarization/finality quorums this
    /// way: a vote for a descendant block endorses its ancestors regardless
    /// of the views the ancestors were proposed in (cf. Fig. 3, where votes
    /// at slot 4 / view 0 finalize the block at slot 1 / view 1).
    pub fn count_votes_value(&self, phase: Phase, value: Value) -> usize {
        self.peers.iter().filter(|p| p.vote(phase).is_some_and(|v| v.value == value)).count()
    }

    /// The value whose latest-vote count in `phase` at exactly `view`
    /// reaches `threshold`, if any — an allocation-free lookup in the
    /// incremental tally table.
    ///
    /// For any blocking-or-larger threshold (`≥ f + 1 > n/3` votes… in fact
    /// any `threshold > n/2`, and quorum is `n − f > 2n/3`) at most one value
    /// can reach it: each peer contributes exactly one latest vote, so two
    /// distinct winners would need `2·threshold ≤ n`. Scan order is
    /// therefore immaterial and the first hit is *the* answer.
    pub fn quorum_value(&self, phase: Phase, view: View, threshold: usize) -> Option<Value> {
        self.tallies[phase.index()]
            .iter()
            .find(|(v, _, c)| *v == view && *c as usize >= threshold)
            .map(|(_, value, _)| *value)
    }

    /// The value whose latest-vote count in `phase` across *all* views
    /// reaches `threshold`, if any (the table-backed, allocation-free
    /// equivalent of a view-agnostic peer scan; see
    /// [`Registers::count_votes_value`] for why multi-shot counts quorums
    /// view-agnostically). Uniqueness for majority thresholds holds by the
    /// same argument as [`Registers::quorum_value`].
    pub fn quorum_value_any(&self, phase: Phase, threshold: usize) -> Option<Value> {
        let table = &self.tallies[phase.index()];
        // Per-(view, value) counts fold into per-value counts on the fly:
        // the table holds one entry per distinct pair, ≤ n entries total,
        // and in the good case exactly one.
        for i in 0..table.len() {
            let (_, value, count) = *table.get(i).expect("index below len");
            let mut total = count as usize;
            for j in 0..table.len() {
                let (_, other_value, other_count) = *table.get(j).expect("index below len");
                if j != i && other_value == value {
                    total += other_count as usize;
                }
            }
            if total >= threshold {
                return Some(value);
            }
        }
        None
    }

    /// The proposal the leader of `view` made in `view`, if received.
    pub fn proposal_of(&self, leader: NodeId, view: View) -> Option<Value> {
        self.peers[leader.index()].proposal.filter(|p| p.view == view).map(|p| p.value)
    }

    /// All suggest payloads sent for exactly `view`.
    pub fn suggests_at(&self, view: View) -> Vec<SuggestData> {
        self.peers
            .iter()
            .filter_map(|p| p.suggest)
            .filter(|(v, _)| *v == view)
            .map(|(_, d)| d)
            .collect()
    }

    /// All proof payloads sent for exactly `view`.
    pub fn proofs_at(&self, view: View) -> Vec<ProofData> {
        self.peers
            .iter()
            .filter_map(|p| p.proof)
            .filter(|(v, _)| *v == view)
            .map(|(_, d)| d)
            .collect()
    }

    /// Writes the suggest payloads for exactly `view` into the caller's
    /// scratch buffer (cleared first) — the allocation-free form of
    /// [`Registers::suggests_at`] for callers that re-evaluate every step.
    pub fn suggests_into(&self, view: View, out: &mut Vec<SuggestData>) {
        out.clear();
        out.extend(
            self.peers.iter().filter_map(|p| p.suggest).filter(|(v, _)| *v == view).map(|(_, d)| d),
        );
    }

    /// Writes the proof payloads for exactly `view` into the caller's
    /// scratch buffer (cleared first) — the allocation-free form of
    /// [`Registers::proofs_at`].
    pub fn proofs_into(&self, view: View, out: &mut Vec<ProofData>) {
        out.clear();
        out.extend(
            self.peers.iter().filter_map(|p| p.proof).filter(|(v, _)| *v == view).map(|(_, d)| d),
        );
    }

    /// Number of peers whose highest view-change is `≥ view`. Only each
    /// peer's highest view-change is stored, and a peer that asked for a
    /// later view has given up on every earlier one, so `≥` is the
    /// constant-storage counting rule.
    pub fn view_change_support(&self, view: View) -> usize {
        self.peers.iter().filter(|p| p.view_change.is_some_and(|v| v >= view)).count()
    }

    /// Distinct view-change views strictly greater than `above`, descending.
    pub fn view_change_candidates(&self, above: View) -> Vec<View> {
        let mut views: Vec<View> =
            self.peers.iter().filter_map(|p| p.view_change).filter(|v| *v > above).collect();
        views.sort_unstable();
        views.dedup();
        views.reverse();
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_types::Phase;

    fn cfg() -> Config {
        Config::new(4).unwrap()
    }

    fn vote(phase: Phase, view: u64, value: u64) -> Message {
        Message::Vote { phase, view: View(view), value: Value::from_u64(value) }
    }

    #[test]
    fn newer_votes_replace_older() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(1), &vote(Phase::VOTE1, 0, 5));
        regs.record(NodeId(1), &vote(Phase::VOTE1, 2, 6));
        assert_eq!(
            regs.peer(NodeId(1)).vote(Phase::VOTE1),
            Some(VoteInfo::new(View(2), Value::from_u64(6)))
        );
    }

    #[test]
    fn stale_votes_ignored() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(1), &vote(Phase::VOTE2, 5, 1));
        regs.record(NodeId(1), &vote(Phase::VOTE2, 3, 9));
        assert_eq!(
            regs.peer(NodeId(1)).vote(Phase::VOTE2),
            Some(VoteInfo::new(View(5), Value::from_u64(1)))
        );
    }

    #[test]
    fn equivocation_within_a_view_does_not_flip_the_register() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(3), &vote(Phase::VOTE1, 1, 7));
        regs.record(NodeId(3), &vote(Phase::VOTE1, 1, 8)); // equivocation
        assert_eq!(
            regs.peer(NodeId(3)).vote(Phase::VOTE1),
            Some(VoteInfo::new(View(1), Value::from_u64(7)))
        );
    }

    #[test]
    fn phases_use_independent_slots() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(0), &vote(Phase::VOTE1, 1, 1));
        regs.record(NodeId(0), &vote(Phase::VOTE4, 1, 1));
        assert!(regs.peer(NodeId(0)).vote(Phase::VOTE2).is_none());
        assert!(regs.peer(NodeId(0)).vote(Phase::VOTE1).is_some());
        assert!(regs.peer(NodeId(0)).vote(Phase::VOTE4).is_some());
    }

    #[test]
    fn counting_and_tallies() {
        let mut regs = Registers::new(&cfg());
        for i in 0..3 {
            regs.record(NodeId(i), &vote(Phase::VOTE1, 0, 5));
        }
        regs.record(NodeId(3), &vote(Phase::VOTE1, 0, 6));
        assert_eq!(regs.count_votes(Phase::VOTE1, View(0), Value::from_u64(5)), 3);
        assert_eq!(regs.count_votes(Phase::VOTE1, View(0), Value::from_u64(6)), 1);
        let mut tallies = regs.vote_tallies(Phase::VOTE1, View(0));
        tallies.sort_by_key(|(_, c)| *c);
        assert_eq!(tallies.len(), 2);
        assert_eq!(tallies[1], (Value::from_u64(5), 3));
    }

    #[test]
    fn proposal_filtering_by_view() {
        let mut regs = Registers::new(&cfg());
        let leader = NodeId(1);
        regs.record(leader, &Message::Proposal { view: View(1), value: Value::from_u64(9) });
        assert_eq!(regs.proposal_of(leader, View(1)), Some(Value::from_u64(9)));
        assert_eq!(regs.proposal_of(leader, View(2)), None);
        // A newer proposal replaces the register; the old view query now
        // misses, mirroring "only the current view matters".
        regs.record(leader, &Message::Proposal { view: View(2), value: Value::from_u64(10) });
        assert_eq!(regs.proposal_of(leader, View(2)), Some(Value::from_u64(10)));
        assert_eq!(regs.proposal_of(leader, View(1)), None);
    }

    #[test]
    fn suggest_and_proof_snapshots() {
        let mut regs = Registers::new(&cfg());
        let data = SuggestData::default();
        regs.record(NodeId(0), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(1), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(2), &Message::Suggest { view: View(3), data });
        assert_eq!(regs.suggests_at(View(2)).len(), 2);
        assert_eq!(regs.suggests_at(View(3)).len(), 1);
        assert_eq!(regs.proofs_at(View(2)).len(), 0);
    }

    #[test]
    fn view_change_support_counts_at_or_above() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(0), &Message::ViewChange { view: View(1) });
        regs.record(NodeId(1), &Message::ViewChange { view: View(2) });
        regs.record(NodeId(2), &Message::ViewChange { view: View(5) });
        assert_eq!(regs.view_change_support(View(1)), 3);
        assert_eq!(regs.view_change_support(View(2)), 2);
        assert_eq!(regs.view_change_support(View(5)), 1);
        assert_eq!(regs.view_change_support(View(6)), 0);
        assert_eq!(regs.view_change_candidates(View(1)), vec![View(5), View(2)]);
    }

    /// The allocating peer scans the tally tables replaced: test oracles
    /// for [`Registers::quorum_value`] and [`Registers::quorum_value_any`].
    impl Registers {
        /// Distinct values voted for in `phase` in *any* view, with counts.
        fn vote_value_tallies(&self, phase: Phase) -> Vec<(Value, usize)> {
            let mut tallies: Vec<(Value, usize)> = Vec::new();
            for p in &self.peers {
                if let Some(v) = p.vote(phase) {
                    match tallies.iter_mut().find(|(val, _)| *val == v.value) {
                        Some((_, c)) => *c += 1,
                        None => tallies.push((v.value, 1)),
                    }
                }
            }
            tallies
        }

        /// Distinct values voted for in `phase` at `view`, with counts.
        fn vote_tallies(&self, phase: Phase, view: View) -> Vec<(Value, usize)> {
            let mut tallies: Vec<(Value, usize)> = Vec::new();
            for p in &self.peers {
                if let Some(v) = p.vote(phase) {
                    if v.view == view {
                        match tallies.iter_mut().find(|(val, _)| *val == v.value) {
                            Some((_, c)) => *c += 1,
                            None => tallies.push((v.value, 1)),
                        }
                    }
                }
            }
            tallies
        }
    }

    /// The incremental tally table must agree with a fresh peer scan after
    /// any history of replacements, equivocations, and stale votes.
    #[test]
    fn tally_table_matches_scan_after_replacements() {
        let cfg = Config::new(7).unwrap();
        let mut regs = Registers::new(&cfg);
        // A messy but deterministic vote history: every peer revotes across
        // views and phases, switching values, with stale and duplicate
        // messages sprinkled in.
        for round in 0..5u64 {
            for i in 0..7u64 {
                let phase = Phase::ALL[(round as usize + i as usize) % 4];
                regs.record(NodeId(i as u16), &vote(phase, round + i % 3, (round + i) % 4));
                // Stale re-delivery: must not perturb the tables.
                regs.record(NodeId(i as u16), &vote(phase, round / 2, 99));
            }
        }
        let q = cfg.quorum();
        for phase in Phase::ALL {
            // View-agnostic: table lookup agrees with the scan-based tally.
            let by_scan = regs
                .vote_value_tallies(phase)
                .into_iter()
                .find(|(_, c)| *c >= q)
                .map(|(value, _)| value);
            assert_eq!(regs.quorum_value_any(phase, q), by_scan, "{phase:?} any-view");
            // Per-view, over every view that appeared.
            for view in 0..8u64 {
                let by_scan = regs
                    .vote_tallies(phase, View(view))
                    .into_iter()
                    .find(|(_, c)| *c >= q)
                    .map(|(value, _)| value);
                assert_eq!(regs.quorum_value(phase, View(view), q), by_scan, "{phase:?} v{view}");
            }
        }
    }

    #[test]
    fn quorum_value_finds_the_unique_winner() {
        let mut regs = Registers::new(&cfg());
        for i in 0..3 {
            regs.record(NodeId(i), &vote(Phase::VOTE1, 2, 5));
        }
        regs.record(NodeId(3), &vote(Phase::VOTE1, 2, 6));
        assert_eq!(regs.quorum_value(Phase::VOTE1, View(2), 3), Some(Value::from_u64(5)));
        assert_eq!(regs.quorum_value(Phase::VOTE1, View(1), 3), None, "wrong view");
        assert_eq!(regs.quorum_value(Phase::VOTE2, View(2), 3), None, "wrong phase");
        assert_eq!(regs.quorum_value(Phase::VOTE1, View(2), 4), None, "threshold unmet");
    }

    #[test]
    fn quorum_value_any_sums_across_views() {
        let mut regs = Registers::new(&cfg());
        // Three peers back value 7, but in different views — the multi-shot
        // counting rule (count_votes_value) must still see a quorum.
        regs.record(NodeId(0), &vote(Phase::VOTE4, 1, 7));
        regs.record(NodeId(1), &vote(Phase::VOTE4, 2, 7));
        regs.record(NodeId(2), &vote(Phase::VOTE4, 3, 7));
        assert_eq!(regs.quorum_value_any(Phase::VOTE4, 3), Some(Value::from_u64(7)));
        assert_eq!(regs.quorum_value(Phase::VOTE4, View(1), 3), None, "no single view has 3");
    }

    #[test]
    fn scratch_filling_suggest_and_proof_queries_match_allocating_ones() {
        let mut regs = Registers::new(&cfg());
        let data = SuggestData::default();
        regs.record(NodeId(0), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(1), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(2), &Message::Proof { view: View(2), data: ProofData::default() });
        let mut scratch_s = vec![SuggestData::default(); 7]; // stale junk: must be cleared
        regs.suggests_into(View(2), &mut scratch_s);
        assert_eq!(scratch_s, regs.suggests_at(View(2)));
        let mut scratch_p = Vec::new();
        regs.proofs_into(View(2), &mut scratch_p);
        assert_eq!(scratch_p, regs.proofs_at(View(2)));
        regs.proofs_into(View(9), &mut scratch_p);
        assert!(scratch_p.is_empty());
    }

    #[test]
    fn equality_ignores_tally_entry_order() {
        // Same final registers via different arrival orders: the tally
        // tables' internal entry order differs, equality must not.
        let mut a = Registers::new(&cfg());
        let mut b = Registers::new(&cfg());
        a.record(NodeId(0), &vote(Phase::VOTE1, 1, 5));
        a.record(NodeId(1), &vote(Phase::VOTE1, 1, 6));
        b.record(NodeId(1), &vote(Phase::VOTE1, 1, 6));
        b.record(NodeId(0), &vote(Phase::VOTE1, 1, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn equivocation_yields_named_evidence() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(3), &vote(Phase::VOTE1, 7, 1));
        regs.record(NodeId(3), &vote(Phase::VOTE1, 7, 2));
        regs.record(NodeId(3), &vote(Phase::VOTE1, 7, 3)); // same register: deduped
        let ev = regs.evidence();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].node, NodeId(3));
        assert_eq!(ev[0].view, View(7));
        assert_eq!(ev[0].phase, Some(Phase::VOTE1));
        assert_eq!((ev[0].first, ev[0].second), (Value::from_u64(1), Value::from_u64(2)));
        assert!(ev[0].to_string().contains("node 3 voted both"), "{}", ev[0]);
        // A proposer equivocating in one view is evidence too (phase None).
        regs.record(NodeId(1), &Message::Proposal { view: View(2), value: Value::from_u64(8) });
        regs.record(NodeId(1), &Message::Proposal { view: View(2), value: Value::from_u64(9) });
        assert_eq!(regs.evidence().len(), 2);
        assert!(regs.evidence()[1].phase.is_none());
        // Honest re-votes across views never convict.
        regs.record(NodeId(0), &vote(Phase::VOTE2, 1, 5));
        regs.record(NodeId(0), &vote(Phase::VOTE2, 2, 6));
        assert_eq!(regs.evidence().len(), 2);
    }

    #[test]
    fn view_change_register_is_monotone() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(0), &Message::ViewChange { view: View(4) });
        regs.record(NodeId(0), &Message::ViewChange { view: View(2) });
        assert_eq!(regs.peer(NodeId(0)).view_change(), Some(View(4)));
    }
}
