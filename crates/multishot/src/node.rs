//! The Multi-shot TetraBFT node (Algorithms 2 and 3).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use tetrabft::rules::{leader_determine_safe, node_determine_safe};
use tetrabft::{Message as CoreMessage, Params, ProofData, SuggestData};
use tetrabft_sim::{Context, Input, Node, Submitter, TimerId};
use tetrabft_store::{NodeStore, StoreError};
use tetrabft_types::{Config, InlineVec, NodeId, Phase, Slot, Value, View};
use tetrabft_wire::Wire;

use crate::block::{Block, BlockHash, GENESIS_HASH};
use crate::instance::SlotInstance;
use crate::mempool::{Mempool, SubmitError};
use crate::msg::MsMessage;
use crate::store::BlockStore;
use crate::txn::{Tx, TxCheck};

/// How many slots may be in flight beyond the last finalized block.
///
/// The finality lag is 4 slots and at most 5 blocks can abort (Section 6.2),
/// so 8 gives comfortable headroom while keeping protocol state O(window·n).
pub const SLOT_WINDOW: u64 = 8;

/// Timer id reserved for the periodic catch-up broadcast of durable nodes.
/// Slot timers use the slot number itself as their id, so the top of the id
/// space can never collide with a reachable slot.
const CATCHUP_TIMER: TimerId = TimerId(u64::MAX);

/// Timer id reserved for idle proposal pacing ([`Params::idle_pacing`]).
/// Slot timers use the slot number itself, so the two top ids are free.
const PACE_TIMER: TimerId = TimerId(u64::MAX - 1);

/// Most blocks a node serves per catch-up response — half the hostile-decode
/// bound ([`crate::msg::MAX_CATCHUP_BLOCKS`]), so honest responses always
/// decode. A lagging node re-requests as soon as a batch commits, so the cap
/// bounds message size, not recovery depth.
const CATCHUP_BATCH: usize = 32;

/// The "fresh block" sentinel passed to Rule 1 as the leader's default
/// value: block hashes are never 0 (see [`Block::hash`]), so when
/// Algorithm 4 certifies this value the leader is free to mint a new block.
const FRESH: Value = Value([0; 8]);

/// A finalization event: `block` is now immutable at `slot` on every
/// well-behaved node's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finalized {
    /// Height of the finalized block.
    pub slot: Slot,
    /// Digest of the finalized block.
    pub hash: BlockHash,
    /// The block itself.
    pub block: Block,
}

/// A well-behaved Multi-shot TetraBFT node.
///
/// Emits a [`Finalized`] output for every block, in strict slot order; the
/// consistency property (Definition 2) says these sequences are
/// prefix-comparable across well-behaved nodes.
///
/// # Examples
///
/// See the crate-level example for the pipelined good case.
#[derive(Debug)]
pub struct MultiShotNode {
    cfg: Config,
    params: Params,
    me: NodeId,
    store: BlockStore,
    instances: BTreeMap<Slot, SlotInstance>,
    /// Highest finalized slot (0 = genesis) and its block hash.
    finalized: Slot,
    finalized_hash: BlockHash,
    /// Per-peer latest vote whose block is not yet known.
    pending: Vec<Option<(Slot, View, BlockHash)>>,
    /// Per-peer latest raw view-change pair (for echoing).
    vc_raw: Vec<Option<(Slot, View)>>,
    /// Highest view-change this node broadcast.
    vc_sent: Option<(Slot, View)>,
    /// Transactions waiting to be packed into a block by this node when it
    /// leads a slot: bounded, validated, FIFO-with-dedup.
    mempool: Mempool,
    /// Hash of the block each drained batch went into, per slot, until the
    /// slot finalizes: if it finalizes with a *different* block (our
    /// proposal lost a view change), the batch is re-queued rather than
    /// silently lost. Bounded by the slot window.
    in_flight: BTreeMap<Slot, BlockHash>,
    /// Durable store, if this node persists its state ([`Self::durable`]).
    durable: Option<NodeStore>,
    /// Incarnation counter from the durable store (0 = not durable).
    incarnation: u64,
    /// Live slots whose own vote book or view changed since the last
    /// [`Node::persist`] call.
    dirty_slots: BTreeSet<Slot>,
    /// Whether the mempool changed since the last persisted snapshot.
    mempool_dirty: bool,
    /// Catch-up candidates: next-block proposals received via
    /// [`MsMessage::Blocks`], keyed by `(slot, recomputed hash)` with the
    /// set of peers vouching for each. A candidate commits once its parent
    /// is our finalized tip and a blocking set (f+1, at least one honest
    /// node) agrees on the hash.
    catchup: BTreeMap<(Slot, BlockHash), (Block, BTreeSet<u16>)>,
    /// Reusable scratch for view-change suggest collection (filled in
    /// place each re-evaluation; capacity is retained across steps, so the
    /// steady state allocates nothing).
    scratch_suggests: Vec<SuggestData>,
    /// Reusable scratch for proof collection, same pattern.
    scratch_proofs: Vec<ProofData>,
    /// Reusable scratch for the finalization chain walk (good case: one
    /// entry per finalize).
    scratch_chain: Vec<(Slot, BlockHash, Block)>,
    /// Idle pacing ([`Params::idle_pacing`]): the slot whose empty view-0
    /// proposal is currently held back behind [`PACE_TIMER`].
    pace_pending: Option<Slot>,
    /// Set when the pace timer fires; the next paced proposal consumes it
    /// and goes out (empty) instead of re-arming.
    pace_ready: bool,
}

impl MultiShotNode {
    /// Creates a node starting at the genesis block.
    pub fn new(cfg: Config, params: Params, me: NodeId) -> Self {
        MultiShotNode {
            cfg,
            params,
            me,
            store: BlockStore::new(),
            instances: BTreeMap::new(),
            finalized: Slot::GENESIS,
            finalized_hash: GENESIS_HASH,
            pending: vec![None; cfg.n()],
            vc_raw: vec![None; cfg.n()],
            vc_sent: None,
            mempool: Mempool::new(params.mempool_capacity(), params.max_tx_bytes()),
            in_flight: BTreeMap::new(),
            durable: None,
            incarnation: 0,
            dirty_slots: BTreeSet::new(),
            mempool_dirty: false,
            catchup: BTreeMap::new(),
            scratch_suggests: Vec::new(),
            scratch_proofs: Vec::new(),
            scratch_chain: Vec::new(),
            pace_pending: None,
            pace_ready: false,
        }
    }

    /// Creates a node whose state survives `kill -9`: votes, finalized
    /// chain, and admitted transactions live in a [`NodeStore`] under
    /// `dir`, replayed here on every restart. The first `Start` after a
    /// restart broadcasts a [`MsMessage::CatchUp`] so peers stream back
    /// whatever finalized while the node was down.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when the directory is unusable or a log
    /// is corrupt beyond its recoverable (torn) tail.
    pub fn durable(
        cfg: Config,
        params: Params,
        me: NodeId,
        dir: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        let mut store = NodeStore::open(dir, params.fsync())?;
        let mut node = MultiShotNode::new(cfg, params, me);
        node.incarnation = store.incarnation();
        if let Some((tip, hash)) = store.chain_tip() {
            node.finalized = tip;
            node.finalized_hash = BlockHash(hash);
            // Reload the recent chain tail into the in-memory block store:
            // votes in flight at the crash may reference these blocks as
            // ancestors (pruning keeps the same 4-slot margin).
            let lo = tip.0.saturating_sub(4).max(1);
            for s in lo..=tip.0 {
                if let Some((_, bytes)) = store.block_record(Slot(s))? {
                    node.store.insert(Block::from_bytes(&bytes)?);
                }
            }
        }
        // Live-slot state: each restored book resumes exactly where the
        // write-ahead record left it, so the node cannot contradict a vote
        // it already sent before the crash.
        for sv in store.restored_votes().values() {
            if sv.slot <= node.finalized || sv.slot.0 > node.finalized.0 + SLOT_WINDOW {
                continue;
            }
            let mut inst = SlotInstance::new(&node.cfg, sv.slot);
            inst.view = sv.view;
            inst.book = sv.book.clone();
            node.instances.insert(sv.slot, inst);
        }
        // Admitted-but-unfinalized transactions survive the crash; rejects
        // (duplicates of what finalized meanwhile) are harmless.
        for tx in store.restored_mempool() {
            let _ = node.mempool.submit(tx.clone());
        }
        node.durable = Some(store);
        Ok(node)
    }

    /// Durable-store size counters `(live_bytes, chain_bytes, chain_len)`,
    /// if this node is durable — how tests assert the paper's constant
    /// live-state claim while the chain log grows linearly.
    pub fn durable_stats(&self) -> Option<(u64, u64, u64)> {
        self.durable.as_ref().map(|s| (s.live_bytes(), s.chain_bytes(), s.chain_len()))
    }

    /// Installs the application's structural-admission hook: every
    /// subsequent submission (typed or raw) must pass `check` before it
    /// enters the mempool, refusing malformed payloads at the door with a
    /// typed [`SubmitError`]. Composes with [`MultiShotNode::durable`]:
    /// transactions restored from the write-ahead snapshot were admitted
    /// (and checked) before the crash.
    #[must_use]
    pub fn with_admission(mut self, check: TxCheck) -> Self {
        self.mempool.set_admission(check);
        self
    }

    /// Queues a transaction; it will be included the next time this node
    /// leads a slot (liveness: if every node queues it, it eventually lands
    /// in the finalized chain). Accepts anything convertible to the typed
    /// [`Tx`] envelope — a [`crate::Transaction`] by reference, or a legacy
    /// `Vec<u8>` through the [`crate::RawBytes`] path.
    ///
    /// # Errors
    ///
    /// Degenerate transactions (empty, oversized, already queued, or
    /// vetoed by the admission hook) are refused with the reason;
    /// [`SubmitError::Full`] is the backpressure signal once
    /// [`Params::mempool_capacity`] transactions are queued.
    pub fn submit_tx(&mut self, tx: impl Into<Tx>) -> Result<(), SubmitError> {
        self.mempool.submit(tx)?;
        self.mempool_dirty = true;
        Ok(())
    }

    /// Number of transactions waiting in this node's mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Highest finalized slot.
    pub fn finalized_slot(&self) -> Slot {
        self.finalized
    }

    /// Number of live slot instances (bounded by [`SLOT_WINDOW`]).
    pub fn active_slots(&self) -> usize {
        self.instances.len()
    }

    /// Equivocation evidence aggregated across live slot instances, each
    /// record pinned to the slot whose registers detected it. Retired
    /// instances drop their evidence with their registers; the simulator's
    /// omniscient recorder keeps the full-run view.
    pub fn evidence(&self) -> Vec<tetrabft_types::Evidence> {
        self.instances
            .iter()
            .flat_map(|(slot, inst)| {
                inst.regs
                    .evidence()
                    .iter()
                    .map(|ev| tetrabft_types::Evidence { slot: Some(*slot), ..*ev })
            })
            .collect()
    }

    /// Leader of `slot` at `view`: round-robin over `slot + view` so that
    /// consecutive slots pipeline under distinct leaders (Fig. 2) and a view
    /// change rotates a slot to a fresh leader.
    pub fn leader_of(cfg: &Config, slot: Slot, view: View) -> NodeId {
        cfg.leader_of(View(slot.0.wrapping_add(view.0)))
    }

    fn leader(&self, slot: Slot, view: View) -> NodeId {
        Self::leader_of(&self.cfg, slot, view)
    }

    fn timer_for(slot: Slot) -> TimerId {
        // TimerId is as wide as Slot, so slots never alias (a u32 id
        // wrapped at slot 2^32, resurrecting foreign slots' timers).
        TimerId(slot.0)
    }

    fn ensure_instance(&mut self, slot: Slot, ctx: &mut Ctx<'_>) {
        if slot <= self.finalized || slot.0 > self.finalized.0 + SLOT_WINDOW {
            return;
        }
        if self.instances.contains_key(&slot) {
            return;
        }
        // Fresh instances start with a clean view-change slate: a
        // view-change applies to the slots that were active (aborted) when
        // it circulated, not to slots that start later — those "default to
        // starting from view 0" (Fig. 3's slot 4). Seeding fresh slots from
        // old requests would hand them straight to a potentially-dead
        // rotated leader.
        let inst = SlotInstance::new(&self.cfg, slot);
        self.instances.insert(slot, inst);
        ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
    }

    // ---- message intake --------------------------------------------------

    fn on_message(&mut self, from: NodeId, msg: MsMessage, ctx: &mut Ctx<'_>) {
        match msg {
            MsMessage::Proposal { view, block } => self.on_proposal(from, view, block, ctx),
            MsMessage::Vote { slot, view, hash } => self.on_vote(from, slot, view, hash),
            MsMessage::Suggest { slot, view, data } => {
                if let Some(inst) = self.instances.get_mut(&slot) {
                    inst.regs.record(from, &CoreMessage::Suggest { view, data });
                }
            }
            MsMessage::Proof { slot, view, data } => {
                if let Some(inst) = self.instances.get_mut(&slot) {
                    inst.regs.record(from, &CoreMessage::Proof { view, data });
                }
            }
            MsMessage::ViewChange { slot, view } => self.on_view_change(from, slot, view),
            MsMessage::CatchUp { from_slot } => self.on_catchup(from, from_slot, ctx),
            MsMessage::Blocks { blocks } => self.on_blocks(from, blocks, ctx),
        }
    }

    /// Serves a peer's catch-up request from the durable chain log: up to
    /// [`CATCHUP_BATCH`] consecutive finalized blocks starting at
    /// `from_slot`. Nodes without a durable store (or with nothing the
    /// requester lacks) stay silent — catch-up quiesces by itself.
    fn on_catchup(&mut self, from: NodeId, from_slot: Slot, ctx: &mut Ctx<'_>) {
        if from == self.me {
            return;
        }
        let Some(store) = self.durable.as_mut() else { return };
        let Some((tip, _)) = store.chain_tip() else { return };
        let lo = from_slot.0.max(1);
        if lo > tip.0 {
            return;
        }
        let hi = tip.0.min(lo + CATCHUP_BATCH as u64 - 1);
        let mut blocks = Vec::with_capacity((hi - lo + 1) as usize);
        for s in lo..=hi {
            // A read error here means our own log is damaged; serve the
            // clean prefix rather than nothing (or a panic).
            let Ok(Some((_, bytes))) = store.block_record(Slot(s)) else { break };
            let Ok(block) = Block::from_bytes(&bytes) else { break };
            blocks.push(block);
        }
        if !blocks.is_empty() {
            ctx.send(from, MsMessage::Blocks { blocks });
        }
    }

    /// Buffers catch-up blocks by `(slot, recomputed hash)` and the peers
    /// vouching for each, then commits whatever chains onto our tip.
    fn on_blocks(&mut self, from: NodeId, blocks: Vec<Block>, ctx: &mut Ctx<'_>) {
        for block in blocks {
            let slot = block.slot;
            if slot <= self.finalized || slot.0 > self.finalized.0 + CATCHUP_BATCH as u64 {
                continue;
            }
            // Recompute the hash: the sender names no digest, and could not
            // be trusted if it did.
            let hash = block.hash();
            let entry =
                self.catchup.entry((slot, hash)).or_insert_with(|| (block, BTreeSet::new()));
            entry.1.insert(from.0);
        }
        self.try_catchup_commit(ctx);
    }

    /// Commits buffered catch-up blocks while the next one is present: its
    /// parent must equal our finalized tip and a blocking set (f+1 peers,
    /// hence at least one honest node) must vouch for the same hash — a
    /// lone Byzantine responder can never graft a forged block.
    fn try_catchup_commit(&mut self, ctx: &mut Ctx<'_>) {
        let mut progressed = false;
        loop {
            let next = self.finalized.next();
            let parent = self.finalized_hash;
            let found = self
                .catchup
                .iter()
                .find(|((s, _), (b, peers))| {
                    *s == next && b.parent == parent && self.cfg.is_blocking(peers.len())
                })
                .map(|(key, _)| *key);
            let Some(key) = found else { break };
            let (block, _) = self.catchup.remove(&key).expect("key was just found");
            self.store.insert(block.clone());
            self.commit_block(key.0, key.1, block, ctx);
            progressed = true;
        }
        // Drop candidates that can no longer matter (at or below the tip,
        // or beyond the next request window).
        let lo = self.finalized;
        let hi = Slot(self.finalized.0 + CATCHUP_BATCH as u64);
        self.catchup.retain(|(s, _), _| *s > lo && *s <= hi);
        if progressed {
            self.store.prune_below(Slot(self.finalized.0.saturating_sub(4)));
            // Re-open the live window above the new tip and immediately ask
            // for the next range — convergence in chain/BATCH round trips
            // instead of one periodic timer tick per batch.
            self.ensure_instance(self.finalized.next(), ctx);
            ctx.broadcast(MsMessage::CatchUp { from_slot: self.finalized.next() });
        }
    }

    fn on_proposal(&mut self, from: NodeId, view: View, block: Block, ctx: &mut Ctx<'_>) {
        let slot = block.slot;
        if slot <= self.finalized || slot.0 > self.finalized.0 + SLOT_WINDOW {
            return;
        }
        if from != self.leader(slot, view) {
            return; // not the leader of (slot, view): ignore the imposter
        }
        let hash = self.store.insert(block);
        self.ensure_instance(slot, ctx);
        // Receiving the proposal for slot s starts slot s+1 and its timer
        // (Algorithm 3 line 4).
        self.ensure_instance(slot.next(), ctx);
        if let Some(inst) = self.instances.get_mut(&slot) {
            inst.saw_proposal = true;
            inst.regs.record(from, &CoreMessage::Proposal { view, value: hash.as_value() });
        }
        self.retry_pending();
    }

    fn on_vote(&mut self, from: NodeId, slot: Slot, view: View, hash: BlockHash) {
        if slot <= self.finalized || slot.0 > self.finalized.0 + SLOT_WINDOW {
            return;
        }
        if self.store.slot_of(hash) == Some(slot) {
            self.apply_vote(from, slot, view, hash);
        } else {
            // Unknown block: stash the latest such vote per peer and replay
            // it once the block arrives (constant storage per peer).
            self.pending[from.index()] = Some((slot, view, hash));
        }
    }

    /// Fans one multiplexed vote out to its four roles: `vote-k` for slot
    /// `slot − k + 1` endorsing the `(k−1)`-th ancestor of `hash`.
    fn apply_vote(&mut self, from: NodeId, slot: Slot, view: View, hash: BlockHash) {
        for k in 0u64..4 {
            let Some(target) = slot.0.checked_sub(k).map(Slot) else { break };
            if target <= self.finalized {
                break;
            }
            let Some(ancestor) = self.store.ancestor(hash, k as usize) else { break };
            let phase = Phase::from_u8(k as u8 + 1).expect("k+1 in 1..=4");
            if let Some(inst) = self.instances.get_mut(&target) {
                inst.regs
                    .record(from, &CoreMessage::Vote { phase, view, value: ancestor.as_value() });
            }
        }
    }

    fn retry_pending(&mut self) {
        for peer in 0..self.cfg.n() {
            if let Some((slot, view, hash)) = self.pending[peer] {
                if self.store.slot_of(hash) == Some(slot) {
                    self.pending[peer] = None;
                    self.apply_vote(NodeId(peer as u16), slot, view, hash);
                }
            }
        }
    }

    fn on_view_change(&mut self, from: NodeId, slot: Slot, view: View) {
        // Raw register (for echo): prefer higher view, then lower slot
        // (a lower slot covers strictly more of the chain).
        let raw = &mut self.vc_raw[from.index()];
        let better = match raw {
            None => true,
            Some((s_h, v_h)) => view > *v_h || (view == *v_h && slot < *s_h),
        };
        if better {
            *raw = Some((slot, view));
        }
        // Per-slot support: the request covers every active slot ≥ slot.
        for (s, inst) in self.instances.iter_mut() {
            if *s >= slot {
                inst.support(from.index(), view);
            }
        }
    }

    // ---- timers ----------------------------------------------------------

    fn on_timeout(&mut self, slot: Slot, ctx: &mut Ctx<'_>) {
        let Some(inst) = self.instances.get_mut(&slot) else { return };
        inst.timer_expired = true;
        let target = inst.view.next();
        // One view-change per stalled slot (Algorithm 3 lines 6–8); the
        // re-armed timer doubles as post-GST retransmission.
        self.note_vc_sent(slot, target);
        ctx.broadcast(MsMessage::ViewChange { slot, view: target });
        ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
    }

    fn note_vc_sent(&mut self, slot: Slot, view: View) {
        let better = match self.vc_sent {
            None => true,
            Some((s_h, v_h)) => view > v_h || (view == v_h && slot < s_h),
        };
        if better {
            self.vc_sent = Some((slot, view));
        }
    }

    // ---- protocol steps --------------------------------------------------

    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut dirty = false;
            dirty |= self.step_echo(ctx);
            // Snapshot the live slots before stepping them (steps insert
            // and retire instances). Live instances are bounded by
            // SLOT_WINDOW, so the inline capacity always suffices and the
            // snapshot never allocates.
            let slots: InlineVec<Slot, { SLOT_WINDOW as usize }> =
                self.instances.keys().copied().collect();
            for slot in slots {
                dirty |= self.step_slot(slot, ctx);
            }
            dirty |= self.step_finalize(ctx);
            if !dirty {
                break;
            }
        }
    }

    /// One fixpoint pass over a single live slot.
    fn step_slot(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let mut dirty = false;
        dirty |= self.step_enter_view(slot, ctx);
        dirty |= self.step_notarize(slot);
        dirty |= self.step_propose(slot, ctx);
        dirty |= self.step_vote(slot, ctx);
        dirty
    }

    /// Echo a view-change supported by a blocking set (Algorithm 2 lines
    /// 3–6), so that correct nodes converge on the change within one delay.
    fn step_echo(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut pairs: Vec<(Slot, View)> = self.vc_raw.iter().flatten().copied().collect();
        pairs.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        pairs.dedup();
        for (slot, view) in pairs {
            if self.vc_sent.is_some_and(|(_, v)| v >= view) {
                continue;
            }
            let support = self
                .vc_raw
                .iter()
                .flatten()
                .filter(|(s_p, v_p)| *s_p <= slot && *v_p >= view)
                .count();
            if self.cfg.is_blocking(support) {
                self.note_vc_sent(slot, view);
                ctx.broadcast(MsMessage::ViewChange { slot, view });
                return true;
            }
        }
        false
    }

    /// Move a slot to a higher view once a quorum supports it (Algorithm 2
    /// lines 7–11): abort the slot, reset its timer, and send the per-slot
    /// suggest/proof that seed Rule 1 / Rule 3 in the new view.
    fn step_enter_view(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let params = self.params;
        let (target, leader) = {
            let inst = self.instances.get(&slot).expect("caller checked");
            let Some(target) = inst.quorum_view(self.cfg.quorum()) else { return false };
            if target <= inst.view {
                return false;
            }
            // Never-proposed slots stay in view 0 (Algorithm 3 line 10,
            // Fig. 3's slot 4) unless their own timer says the view-0
            // leader is dead.
            if !inst.saw_proposal && !inst.timer_expired {
                return false;
            }
            (target, self.leader(slot, target))
        };
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        inst.view = target;
        inst.proposed = false;
        inst.timer_expired = false;
        self.dirty_slots.insert(slot);
        ctx.set_timer(Self::timer_for(slot), params.view_timeout());
        let (vote2, prev_vote2, vote3) = inst.book.suggest_fields();
        ctx.send(
            leader,
            MsMessage::Suggest {
                slot,
                view: target,
                data: SuggestData { vote2, prev_vote2, vote3 },
            },
        );
        let (vote1, prev_vote1, vote4) = inst.book.proof_fields();
        ctx.broadcast(MsMessage::Proof {
            slot,
            view: target,
            data: ProofData { vote1, prev_vote1, vote4 },
        });
        true
    }

    /// A block is notarized on a quorum of (phase-1) votes, across views —
    /// Fig. 3 counts view-0 votes at slot 4 toward view-1 blocks' finality.
    fn step_notarize(&mut self, slot: Slot) -> bool {
        let quorum = self.cfg.quorum();
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        if inst.notarized.is_some() {
            return false;
        }
        let Some(value) = inst.regs.quorum_value_any(Phase::VOTE1, quorum) else { return false };
        inst.notarized = Some(BlockHash::from_value(value));
        true
    }

    /// The leader proposes: in view 0, as soon as the parent chain allows
    /// (pipelining — Fig. 2); in later views, once Rule 1 certifies a safe
    /// value from the slot's suggest messages.
    fn step_propose(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let inst = self.instances.get(&slot).expect("caller checked");
        let view = inst.view;
        if inst.proposed || self.leader(slot, view) != self.me {
            return false;
        }
        let block = if view.is_zero() {
            let Some(parent) = self.parent_ready(slot) else { return false };
            if self.pace(slot, ctx) {
                return false;
            }
            self.build_block(slot, parent)
        } else {
            // Fill the retained scratch instead of collecting a fresh Vec.
            let mut suggests = std::mem::take(&mut self.scratch_suggests);
            inst.regs.suggests_into(view, &mut suggests);
            let decision = leader_determine_safe(&self.cfg, &suggests, view, FRESH);
            self.scratch_suggests = suggests;
            match decision {
                None => return false,
                Some(v) if v == FRESH => {
                    let Some(parent) = self.parent_ready(slot) else { return false };
                    self.build_block(slot, parent)
                }
                Some(v) => {
                    // Re-propose the certified block; without its content we
                    // must wait (the paper assumes block dissemination).
                    let hash = BlockHash::from_value(v);
                    match self.store.get(hash) {
                        Some(b) if b.slot == slot => b.clone(),
                        _ => return false,
                    }
                }
            }
        };
        self.store.insert(block.clone());
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        inst.proposed = true;
        ctx.broadcast(MsMessage::Proposal { view, block });
        true
    }

    /// The parent block a new slot-`slot` block must extend: the block
    /// proposed for `slot − 1` in its current view, whose own parent is
    /// already notarized ("upon receiving bᵢ and confirming … bᵢ₋₁ has
    /// received a quorum of votes, bᵢ extends bᵢ₋₁").
    fn parent_ready(&self, slot: Slot) -> Option<BlockHash> {
        let prev = slot.prev()?;
        if prev == self.finalized {
            return Some(self.finalized_hash);
        }
        let pinst = self.instances.get(&prev)?;
        // Pipelined path: the block proposed for prev in its current view,
        // provided *its* parent already has a quorum of votes.
        let leader = self.leader(prev, pinst.view);
        if let Some(value) = pinst.regs.proposal_of(leader, pinst.view) {
            let hash = BlockHash::from_value(value);
            if let Some(block) = self.store.get(hash) {
                let grandparent_ok = match prev.prev() {
                    Some(gp) if gp == self.finalized => block.parent == self.finalized_hash,
                    Some(gp) => {
                        self.instances.get(&gp).is_some_and(|gi| gi.notarized == Some(block.parent))
                    }
                    None => true,
                };
                if grandparent_ok {
                    return Some(hash);
                }
            }
        }
        // Recovery path: a notarized prev block satisfies the paper's
        // "b_{i−1} has received a quorum of votes" directly, even when the
        // current view of prev has no proposal yet (its leader may be the
        // very node whose failure triggered recovery).
        pinst.notarized.filter(|h| self.store.contains(*h))
    }

    /// Idle pacing gate for a view-0 proposal that is otherwise ready:
    /// returns `true` to hold the proposal back. With pacing enabled and
    /// an empty mempool, the first call arms [`PACE_TIMER`] and every
    /// call until it fires defers; the firing releases exactly one empty
    /// proposal. A submission arriving mid-pause makes the mempool
    /// non-empty, so the next `drive` proposes immediately (and cancels
    /// the now-moot timer). View-change paths (`view > 0`) never pace —
    /// recovery liveness is not traded for idle CPU.
    fn pace(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        if self.params.idle_pacing() == 0 || !self.mempool.is_empty() {
            if self.pace_pending.take().is_some() {
                ctx.cancel_timer(PACE_TIMER);
            }
            self.pace_ready = false;
            return false;
        }
        if self.pace_ready {
            self.pace_ready = false;
            self.pace_pending = None;
            return false;
        }
        if self.pace_pending != Some(slot) {
            self.pace_pending = Some(slot);
            ctx.set_timer(PACE_TIMER, self.params.idle_pacing());
        }
        true
    }

    fn build_block(&mut self, slot: Slot, parent: BlockHash) -> Block {
        let block = Block::new(slot, parent, self.mempool.next_batch(self.params.max_block_txs()));
        if !block.txs.is_empty() {
            self.mempool_dirty = true;
            // A later fresh proposal for the same slot supersedes our
            // earlier one; rescue that batch before dropping its record.
            if let Some(old) = self.in_flight.insert(slot, block.hash()) {
                self.requeue_batch(old);
            }
        }
        block
    }

    /// Puts the transactions of our superseded/defeated block for a slot
    /// back at the front of the mempool (the block is still in the store:
    /// pruning keeps everything above `finalized − 4`, and in-flight slots
    /// are above `finalized`).
    fn requeue_batch(&mut self, ours: BlockHash) {
        if let Some(block) = self.store.get(ours) {
            self.mempool.requeue_front((*block.txs).clone());
            self.mempool_dirty = true;
        }
    }

    /// Vote for the slot's proposal once its parent is notarized and (in
    /// views > 0) Rule 3 certifies it; the one vote message carries all
    /// four roles, recorded into the four ancestor slots' books.
    fn step_vote(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let inst = self.instances.get(&slot).expect("caller checked");
        let view = inst.view;
        if inst.book.has_voted_at_or_after(Phase::VOTE1, view) {
            return false;
        }
        let leader = self.leader(slot, view);
        let Some(value) = inst.regs.proposal_of(leader, view) else { return false };
        let hash = BlockHash::from_value(value);
        let Some(block) = self.store.get(hash) else { return false };
        if block.slot != slot {
            return false;
        }
        // Parent must be notarized (genesis/finalized prefix counts).
        let parent_ok = match slot.prev() {
            Some(prev) if prev == self.finalized => block.parent == self.finalized_hash,
            Some(prev) => {
                self.instances.get(&prev).is_some_and(|pi| pi.notarized == Some(block.parent))
            }
            None => false, // slot 0 is genesis; never voted on
        };
        if !parent_ok {
            return false;
        }
        let safe = view.is_zero() || {
            let mut proofs = std::mem::take(&mut self.scratch_proofs);
            inst.regs.proofs_into(view, &mut proofs);
            let certified = node_determine_safe(&self.cfg, &proofs, view, value);
            self.scratch_proofs = proofs;
            certified
        };
        if !safe {
            return false;
        }
        // Record the four roles this vote plays in the ancestors' books.
        for k in 0u64..4 {
            let Some(target) = slot.0.checked_sub(k).map(Slot) else { break };
            if target <= self.finalized {
                break;
            }
            let Some(ancestor) = self.store.ancestor(hash, k as usize) else { break };
            let phase = Phase::from_u8(k as u8 + 1).expect("k+1 in 1..=4");
            if let Some(ti) = self.instances.get_mut(&target) {
                ti.book.record(phase, view, ancestor.as_value());
                self.dirty_slots.insert(target);
            }
        }
        // The write-ahead contract: [`Node::persist`] runs before the
        // transport flushes this broadcast, so the book entries above reach
        // disk before any peer can observe the vote.
        ctx.broadcast(MsMessage::Vote { slot, view, hash });
        true
    }

    /// Finalize the longest prefix backed by a quorum of (phase-4 role)
    /// votes — equivalently, the first of four consecutively notarized
    /// blocks plus its prefix.
    fn step_finalize(&mut self, ctx: &mut Ctx<'_>) -> bool {
        // Highest slot with a phase-4 quorum whose chain back to the
        // finalized tip is fully known.
        let quorum = self.cfg.quorum();
        let mut best: Option<(Slot, BlockHash)> = None;
        for (slot, inst) in &self.instances {
            if let Some(value) = inst.regs.quorum_value_any(Phase::VOTE4, quorum) {
                best = Some((*slot, BlockHash::from_value(value)));
            }
        }
        let Some((slot, hash)) = best else { return false };
        // Collect the chain from `hash` down to the current finalized tip,
        // into the retained scratch (good case: a single link, no
        // allocation; block clones are `Arc` bumps).
        let mut chain = std::mem::take(&mut self.scratch_chain);
        chain.clear();
        let mut cursor = hash;
        let mut cursor_slot = slot;
        let mut intact = true;
        while cursor_slot > self.finalized {
            let Some(block) = self.store.get(cursor) else {
                intact = false;
                break;
            };
            if block.slot != cursor_slot {
                intact = false;
                break;
            }
            chain.push((cursor_slot, cursor, block.clone()));
            cursor = block.parent;
            cursor_slot = match cursor_slot.prev() {
                Some(p) => p,
                None => {
                    intact = false;
                    break;
                }
            };
        }
        if !intact || cursor != self.finalized_hash {
            // Chain incomplete, or forked against our finalized prefix
            // (impossible for well-behaved inputs — agreement): bail out.
            chain.clear();
            self.scratch_chain = chain;
            return false;
        }
        chain.reverse();
        for (s, h, block) in chain.drain(..) {
            self.commit_block(s, h, block, ctx);
        }
        self.scratch_chain = chain;
        // Keep a short tail of finalized blocks: in-flight votes may still
        // reference them as ancestors.
        self.store.prune_below(Slot(self.finalized.0.saturating_sub(4)));
        true
    }

    /// Commits one finalized block — the shared tail of `step_finalize`
    /// and the catch-up path: rescue a defeated in-flight batch, append to
    /// the durable chain log *before* the output can be observed, emit the
    /// [`Finalized`] event, and retire the slot's live state.
    fn commit_block(&mut self, slot: Slot, hash: BlockHash, block: Block, ctx: &mut Ctx<'_>) {
        // If we drained a batch into a proposal for this slot and a
        // different block won, the batch returns to the mempool's head —
        // admitted transactions survive lost view changes.
        if let Some(ours) = self.in_flight.remove(&slot) {
            if ours != hash {
                self.requeue_batch(ours);
            }
        }
        if let Some(store) = self.durable.as_mut() {
            // Finalized state must never be claimed and then lost; a store
            // that cannot append is a node that must not keep running.
            store
                .append_block(slot, hash.0, &block.to_bytes())
                .expect("durable chain log append failed");
        }
        ctx.output(Finalized { slot, hash, block });
        ctx.cancel_timer(Self::timer_for(slot));
        self.instances.remove(&slot);
        self.dirty_slots.remove(&slot);
        self.finalized = slot;
        self.finalized_hash = hash;
    }
}

type Ctx<'a> = Context<'a, MsMessage, Finalized>;

impl Node for MultiShotNode {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => {
                self.ensure_instance(self.finalized.next(), ctx);
                // Restored instances were created without a context; every
                // live slot (fresh or restored) gets its timer here.
                let slots: Vec<Slot> = self.instances.keys().copied().collect();
                for slot in slots {
                    ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
                }
                if self.durable.is_some() {
                    // Pull whatever finalized while we were down, and keep
                    // pulling periodically — the timer doubles as the
                    // retransmission for lost catch-up traffic.
                    ctx.broadcast(MsMessage::CatchUp { from_slot: self.finalized.next() });
                    ctx.set_timer(CATCHUP_TIMER, self.params.view_timeout());
                }
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                self.on_message(from, msg, ctx);
                self.drive(ctx);
            }
            Input::Timer { id } if id == CATCHUP_TIMER => {
                ctx.broadcast(MsMessage::CatchUp { from_slot: self.finalized.next() });
                ctx.set_timer(CATCHUP_TIMER, self.params.view_timeout());
            }
            Input::Timer { id } if id == PACE_TIMER => {
                self.pace_ready = true;
                self.pace_pending = None;
                self.drive(ctx);
            }
            Input::Timer { id } => {
                self.on_timeout(Slot(id.0), ctx);
                self.drive(ctx);
            }
        }
    }

    fn persist(&mut self) {
        if self.durable.is_none() {
            return;
        }
        // Called by the engine after every dispatch, *before* the transport
        // flushes staged frames: whatever this batch of work voted or
        // admitted is on disk before any peer can observe it.
        let finalized = self.finalized;
        let dirty = std::mem::take(&mut self.dirty_slots);
        let store = self.durable.as_mut().expect("checked above");
        for slot in dirty {
            if slot <= finalized {
                continue;
            }
            if let Some(inst) = self.instances.get(&slot) {
                store
                    .record_votes(slot, inst.view, finalized, &inst.book)
                    .expect("durable vote record failed");
            }
        }
        if self.mempool_dirty {
            self.mempool_dirty = false;
            store.save_mempool(self.mempool.iter()).expect("durable mempool snapshot failed");
        }
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }
}

impl Submitter for MultiShotNode {
    type Request = Tx;
    type SubmitError = SubmitError;

    fn accept(&mut self, tx: Tx) -> Result<(), SubmitError> {
        self.submit_tx(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_sim::{Cut, EdgeSpec, LinkPlan, PartitionWindow, SimBuilder, Time};

    fn cfg(n: usize) -> Config {
        Config::new(n).unwrap()
    }

    fn chain_of(
        sim: &tetrabft_sim::Sim<MsMessage, Finalized>,
        node: NodeId,
    ) -> Vec<(Slot, BlockHash)> {
        sim.outputs()
            .iter()
            .filter(|o| o.node == node)
            .map(|o| (o.output.slot, o.output.hash))
            .collect()
    }

    fn assert_consistency(sim: &tetrabft_sim::Sim<MsMessage, Finalized>, n: usize) {
        let chains: Vec<_> = (0..n as u16).map(|i| chain_of(sim, NodeId(i))).collect();
        for chain in &chains {
            // Slots are contiguous from 1.
            for (i, (slot, _)) in chain.iter().enumerate() {
                assert_eq!(slot.0, i as u64 + 1, "finalization order must be slot order");
            }
        }
        let longest = chains.iter().max_by_key(|c| c.len()).unwrap();
        for chain in &chains {
            assert_eq!(
                &longest[..chain.len()],
                &chain[..],
                "finalized chains must be prefix-comparable"
            );
        }
    }

    #[test]
    fn good_case_one_block_per_delay() {
        let n = 4;
        let mut sim =
            SimBuilder::new(n).build(|id| MultiShotNode::new(cfg(4), Params::new(100), id));
        sim.run_until(Time(30));
        let chain = chain_of(&sim, NodeId(0));
        assert!(chain.len() >= 24, "expected ~1 block/delay, got {}", chain.len());
        let times: Vec<u64> =
            sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| o.time.0).collect();
        assert_eq!(times[0], 5, "first finalization at 5 message delays");
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], 1, "then one block per message delay");
        }
        assert_consistency(&sim, n);
    }

    #[test]
    fn idle_pacing_throttles_empty_blocks_without_stalling() {
        let n = 4;
        // Message delay 1, pace 10: an idle paced chain advances roughly
        // one slot per pause instead of one per delay.
        let mut sim = SimBuilder::new(n)
            .build(|id| MultiShotNode::new(cfg(4), Params::new(100).with_idle_pacing(10), id));
        sim.run_until(Time(300));
        let chain = chain_of(&sim, NodeId(0));
        assert!(!chain.is_empty(), "a paced chain still finalizes");
        assert!(
            chain.len() <= 60,
            "pacing must throttle the idle chain, got {} slots in 300 delays",
            chain.len()
        );
        assert_consistency(&sim, n);
    }

    #[test]
    fn active_state_stays_bounded() {
        let mut sim =
            SimBuilder::new(4).build(|id| MultiShotNode::new(cfg(4), Params::new(100), id));
        sim.run_until(Time(200));
        // Can't reach into nodes generically; bound check via window const:
        // instances ≤ SLOT_WINDOW by construction. Assert the chain grew a
        // lot while the window constant stayed small.
        let chain = chain_of(&sim, NodeId(0));
        assert!(chain.len() > 150);
        // SLOT_WINDOW (8) bounds live instances structurally; the chain
        // above grew ~25x past it without unbounded protocol state.
    }

    #[test]
    fn crashed_slot_leader_recovers_via_view_change() {
        // Node 3 is silent; it leads slots 3, 7, 11, … (view 0). The chain
        // must stall there, view-change, and continue.
        let n = 4;
        let mut sim = SimBuilder::new(n).build_boxed(|id| {
            if id == NodeId(3) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(MultiShotNode::new(cfg(4), Params::new(5), id))
            }
        });
        sim.run_until(Time(400));
        let chain = chain_of(&sim, NodeId(0));
        assert!(
            chain.iter().any(|(s, _)| s.0 >= 4),
            "chain must pass the dead leader's slot, got up to {:?}",
            chain.last()
        );
        assert_consistency(&sim, n);
    }

    #[test]
    fn jittered_network_keeps_chains_consistent() {
        for seed in 0..5 {
            let n = 4;
            let mut sim = SimBuilder::new(n)
                .seed(seed)
                .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(5)))
                .build(|id| MultiShotNode::new(cfg(4), Params::new(30), id));
            sim.run_until(Time(600));
            assert_consistency(&sim, n);
            assert!(
                !chain_of(&sim, NodeId(0)).is_empty(),
                "some blocks must finalize under jitter (seed {seed})"
            );
        }
    }

    #[test]
    fn submitted_transaction_reaches_the_chain() {
        let n = 4;
        let tx = b"pay alice 5".to_vec();
        let tx2 = tx.clone();
        let mut sim = SimBuilder::new(n).build(move |id| {
            let mut node = MultiShotNode::new(cfg(4), Params::new(100), id);
            node.submit_tx(tx2.clone()).unwrap();
            node
        });
        sim.run_until(Time(40));
        let included = sim
            .outputs()
            .iter()
            .filter(|o| o.node == NodeId(0))
            .any(|o| o.output.block.txs.iter().any(|t| t == &tx));
        assert!(included, "submitted tx must be included in the finalized chain");
    }

    #[test]
    fn degenerate_and_overflow_submissions_are_refused() {
        use crate::mempool::SubmitError;
        let params = Params::new(100).with_mempool_capacity(2).with_max_tx_bytes(8);
        let mut node = MultiShotNode::new(cfg(4), params, NodeId(0));
        assert_eq!(node.submit_tx(vec![]), Err(SubmitError::Empty));
        assert_eq!(node.submit_tx(vec![0; 9]), Err(SubmitError::TooLarge { size: 9, max: 8 }));
        node.submit_tx(b"a".to_vec()).unwrap();
        assert_eq!(node.submit_tx(b"a".to_vec()), Err(SubmitError::Duplicate));
        node.submit_tx(b"b".to_vec()).unwrap();
        assert_eq!(node.submit_tx(b"c".to_vec()), Err(SubmitError::Full { capacity: 2 }));
        assert_eq!(node.mempool_len(), 2);
    }

    #[test]
    fn leader_batches_respect_max_block_txs() {
        let n = 4;
        let params = Params::new(100).with_max_block_txs(3);
        let mut sim = SimBuilder::new(n).build(move |id| {
            let mut node = MultiShotNode::new(cfg(4), params, id);
            for k in 0..20u8 {
                node.submit_tx(vec![id.0 as u8 + 1, k + 1]).unwrap();
            }
            node
        });
        sim.run_until(Time(40));
        let blocks: Vec<&Block> =
            sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| &o.output.block).collect();
        assert!(blocks.len() > 8);
        assert!(blocks.iter().all(|b| b.txs.len() <= 3), "no block may exceed max_block_txs");
        assert!(blocks.iter().any(|b| b.txs.len() == 3), "leaders fill blocks to the cap");
    }

    #[test]
    fn pre_gst_chaos_then_progress() {
        let n = 4;
        let gst = PartitionWindow::isolate(0, 200, (0..4).map(NodeId)).with_cut(Cut::Outbound);
        let plan = LinkPlan::uniform(EdgeSpec::delay(1)).partition(gst.lossy());
        let mut sim = SimBuilder::new(n)
            .plan(&plan)
            .build(|id| MultiShotNode::new(cfg(4), Params::new(10), id));
        sim.run_until(Time(1500));
        assert_consistency(&sim, n);
        let chain = chain_of(&sim, NodeId(0));
        assert!(!chain.is_empty(), "chain must grow after GST");
    }
}
