//! Link state shared by one cluster: the [`LinkSetup`] every supervised
//! link is built from, and [`NetControl`], the test/benchmark handle —
//! aggregated link metrics plus one-shot socket kills.
//!
//! A [`LinkPlan`] has one interpreter, its own methods: links take loss,
//! delay, jitter, and partition release from [`LinkPlan::route_at`] and
//! [`LinkPlan::release_time`], as the simulator does. [`LinkSetup`] adds
//! only the ms-to-instant conversion and the FIFO clamp of a TCP stream.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tetrabft_sim::LinkPlan;
use tetrabft_types::NodeId;

/// Aggregated counters of every supervised link of one cluster/node.
#[derive(Debug, Default)]
pub(crate) struct NetMetrics {
    pub reconnects: AtomicU64,
    pub frames_resent: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_shed: AtomicU64,
    pub frames_dropped_stale: AtomicU64,
    /// Deepest any link's send queue has ever been (reactor gauge).
    pub send_queue_hwm: AtomicU64,
    /// Reactor wakeups (one per poller wait that returned), cluster-wide.
    pub poll_wakeups: AtomicU64,
    /// Client-connection ingress (submissions over TCP, not peer traffic).
    pub client_bytes_in: AtomicU64,
    /// Per-peer socket traffic, indexed by [`NodeId`]: bytes received from
    /// that peer / bytes sent to it, summed over the whole cluster.
    pub per_peer: Vec<PeerCounters>,
}

/// One peer's byte counters (see [`NetMetrics::per_peer`]).
#[derive(Debug, Default)]
pub(crate) struct PeerCounters {
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
}

impl NetMetrics {
    pub(crate) fn new(n: usize) -> Self {
        NetMetrics {
            per_peer: std::iter::repeat_with(PeerCounters::default).take(n).collect(),
            ..NetMetrics::default()
        }
    }

    /// Records a send-queue depth observation, keeping the high-water mark.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.send_queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts `bytes` written to peer `to`.
    pub(crate) fn note_sent(&self, bytes: u64, to: NodeId) {
        if let Some(c) = self.per_peer.get(to.index()) {
            c.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Counts `bytes` read from peer `from` (`None` = a client connection).
    pub(crate) fn note_received(&self, bytes: u64, from: Option<NodeId>) {
        match from.and_then(|id| self.per_peer.get(id.index())) {
            Some(c) => c.bytes_in.fetch_add(bytes, Ordering::Relaxed),
            None => self.client_bytes_in.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let bytes_out = self.per_peer.iter().map(|c| c.bytes_out.load(Ordering::Relaxed)).sum();
        let peer_in: u64 = self.per_peer.iter().map(|c| c.bytes_in.load(Ordering::Relaxed)).sum();
        NetStats {
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_resent: self.frames_resent.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            frames_dropped_stale: self.frames_dropped_stale.load(Ordering::Relaxed),
            send_queue_hwm: self.send_queue_hwm.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            bytes_in: peer_in + self.client_bytes_in.load(Ordering::Relaxed),
            bytes_out,
        }
    }
}

/// A point-in-time snapshot of link-layer health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections re-established after a drop (initial dials excluded).
    pub reconnects: u64,
    /// Frames rewritten because a connection broke before their flush was
    /// confirmed (delivery across reconnects is at-least-once).
    pub frames_resent: u64,
    /// Frames dropped by the link plan: its loss rate or a lossy window.
    pub frames_dropped: u64,
    /// Frames shed because a link's bounded resend buffer overflowed (a
    /// slow, down, or severed link outlasting 4096 queued frames); a shed
    /// frame is lost like a plan drop and recovered via view change.
    pub frames_shed: u64,
    /// Buffered frames discarded because the handshake showed the peer
    /// restarted (its incarnation counter advanced): pre-crash frames
    /// addressed a state the peer no longer holds, and replaying them
    /// would resurrect a conversation the restart ended.
    pub frames_dropped_stale: u64,
    /// Reactor gauge: the deepest any link's send queue has ever been
    /// (frames conditioned and waiting for the socket). Compare against
    /// the 4096-frame buffer bound to see how close a run came to
    /// shedding.
    pub send_queue_hwm: u64,
    /// Reactor gauge: poller wakeups so far, summed over every node's
    /// reactor. Divide by wall-clock runtime for wakeups/s — the "how busy
    /// are the event loops" number.
    pub poll_wakeups: u64,
    /// Total bytes read off every socket (peer links and client
    /// submissions).
    pub bytes_in: u64,
    /// Total bytes written to every peer socket.
    pub bytes_out: u64,
}

/// One row of [`NetControl::peer_traffic`]: a peer and the bytes the
/// cluster's reactors have exchanged with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Which peer.
    pub peer: NodeId,
    /// Bytes read from this peer's inbound connections.
    pub bytes_in: u64,
    /// Bytes written to this peer over outbound links.
    pub bytes_out: u64,
}

/// Handle to a running cluster's link layer: aggregated [`NetStats`] and
/// one-shot fault injection.
///
/// Cutting a link kills the live sockets of both directions; the
/// supervisors immediately re-dial with capped exponential backoff,
/// re-handshake, and resend every frame whose flush was not confirmed, so
/// a cut delays buffered traffic rather than losing it (up to the bounded
/// per-link buffer — see [`NetStats::frames_shed`]).
#[derive(Debug, Clone)]
pub struct NetControl {
    metrics: Arc<NetMetrics>,
    cuts: Arc<HashMap<(u16, u16), Arc<AtomicBool>>>,
}

impl NetControl {
    /// Current link-layer counters, aggregated over every edge.
    pub fn stats(&self) -> NetStats {
        self.metrics.snapshot()
    }

    /// Per-peer socket traffic: for each [`NodeId`], the bytes every
    /// reactor has read from that peer's connections and written to its
    /// links (cluster-wide sums; client-submission ingress is not
    /// attributed to any peer and only appears in [`NetStats::bytes_in`]).
    pub fn peer_traffic(&self) -> Vec<PeerTraffic> {
        self.metrics
            .per_peer
            .iter()
            .enumerate()
            .map(|(i, c)| PeerTraffic {
                peer: NodeId(i as u16),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Kills the live sockets between `a` and `b` (both directions), once.
    /// The links re-establish on their own; buffered frames flush after
    /// the re-handshake.
    pub fn cut(&self, a: NodeId, b: NodeId) {
        for key in [(a.0, b.0), (b.0, a.0)] {
            if let Some(flag) = self.cuts.get(&key) {
                flag.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Salts of a directed edge's two RNG streams (see
/// [`LinkSetup::edge_rng`]): the plan's loss and jitter draws, and the
/// redial backoff jitter.
pub(crate) const ROUTE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
pub(crate) const BACKOFF_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Everything the per-node runner needs to condition and supervise its
/// outbound links: the shared plan, the common epoch its milliseconds are
/// measured from, the metrics sink, the cut flags (one per directed edge,
/// shared with [`NetControl`]), and the seed of every edge's RNG streams.
#[derive(Debug, Clone)]
pub(crate) struct LinkSetup {
    pub plan: Arc<LinkPlan>,
    pub epoch: Instant,
    pub metrics: Arc<NetMetrics>,
    pub cuts: Arc<HashMap<(u16, u16), Arc<AtomicBool>>>,
    pub seed: u64,
}

impl LinkSetup {
    /// A cluster's setup: the given plan, fresh metrics, and cut flags for
    /// every directed edge of an `n`-node mesh.
    pub(crate) fn new(plan: LinkPlan, n: usize, seed: u64) -> Self {
        let mut cuts = HashMap::new();
        for a in 0..n as u16 {
            for b in 0..n as u16 {
                if a != b {
                    cuts.insert((a, b), Arc::new(AtomicBool::new(false)));
                }
            }
        }
        LinkSetup {
            plan: Arc::new(plan),
            epoch: Instant::now(),
            metrics: Arc::new(NetMetrics::new(n)),
            cuts: Arc::new(cuts),
            seed,
        }
    }

    pub(crate) fn cut_flag(&self, from: NodeId, to: NodeId) -> Arc<AtomicBool> {
        self.cuts.get(&(from.0, to.0)).cloned().unwrap_or_default()
    }

    pub(crate) fn control(&self) -> NetControl {
        NetControl { metrics: Arc::clone(&self.metrics), cuts: Arc::clone(&self.cuts) }
    }

    /// The RNG stream `salt` of directed edge `from → to`, derived from
    /// the cluster seed — runs are reproducible modulo wall-clock timing.
    pub(crate) fn edge_rng(&self, salt: u64, from: NodeId, to: NodeId) -> StdRng {
        let edge = (u64::from(from.0) << 16) | u64::from(to.0);
        StdRng::seed_from_u64(self.seed.wrapping_mul(salt) ^ edge)
    }

    /// Prices one frame enqueued on `from → to` at `now` with
    /// [`LinkPlan::route_at`], drawing from the edge's `rng`: `None` if the
    /// plan drops it, otherwise the instant it becomes writable — never
    /// before `last_due`, which advances to it, so jitter cannot reorder a
    /// TCP stream.
    pub(crate) fn admit(
        &self,
        from: NodeId,
        to: NodeId,
        now: Instant,
        rng: &mut StdRng,
        last_due: &mut Instant,
    ) -> Option<Instant> {
        let due_ms = self.plan.route_at(from, to, self.plan_ms(now), rng)?;
        *last_due = self.plan_instant(due_ms).max(*last_due);
        Some(*last_due)
    }

    /// If a scripted partition severs `from → to` at `now`, the instant
    /// the (possibly chained) windows heal, per [`LinkPlan::release_time`];
    /// `None` when connected.
    pub(crate) fn severed_until(&self, from: NodeId, to: NodeId, now: Instant) -> Option<Instant> {
        let at = self.plan_ms(now);
        let heal = self.plan.release_time(from, to, at);
        (heal > at).then(|| self.plan_instant(heal))
    }

    /// Milliseconds since the epoch at `now` — the clock a [`LinkPlan`]
    /// is written in.
    fn plan_ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_millis() as u64
    }

    /// The instant `ms` plan milliseconds after the epoch.
    fn plan_instant(&self, ms: u64) -> Instant {
        self.epoch + Duration::from_millis(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tetrabft_sim::{Cut, EdgeSpec, PartitionWindow};

    /// What a supervised link holds for edge `from → to`: the cluster
    /// setup, the edge's route stream, and its FIFO watermark.
    struct Edge {
        setup: LinkSetup,
        from: NodeId,
        to: NodeId,
        rng: StdRng,
        last_due: Instant,
    }

    impl Edge {
        fn new(plan: LinkPlan, n: usize, from: NodeId, to: NodeId, seed: u64) -> Self {
            let setup = LinkSetup::new(plan, n, seed);
            let rng = setup.edge_rng(ROUTE_SALT, from, to);
            Edge { last_due: setup.epoch, setup, from, to, rng }
        }

        fn epoch(&self) -> Instant {
            self.setup.epoch
        }

        fn admit(&mut self, now: Instant) -> Option<Instant> {
            self.setup.admit(self.from, self.to, now, &mut self.rng, &mut self.last_due)
        }
    }

    /// Edge `0 → 1` of a two-node cluster.
    fn edge(plan: LinkPlan, seed: u64) -> Edge {
        Edge::new(plan, 2, NodeId(0), NodeId(1), seed)
    }

    #[test]
    fn conditioner_preserves_fifo_under_jitter() {
        let mut e = edge(LinkPlan::uniform(EdgeSpec::delay(5).with_jitter(20)), 0);
        let now = Instant::now();
        let mut prev = now;
        for _ in 0..100 {
            let due = e.admit(now).unwrap();
            assert!(due >= prev, "a later frame must not be due before an earlier one");
            prev = due;
        }
    }

    #[test]
    fn frames_admitted_while_severed_are_due_at_heal_plus_delay() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(30)).partition(PartitionWindow::isolate(
            0,
            500,
            [NodeId(0)],
        ));
        let mut e = edge(plan, 0);
        let due = e.admit(e.epoch() + Duration::from_millis(100)).unwrap();
        // Same pricing as LinkPlan::route_at: release at 500, then 30 ms.
        assert_eq!(due.duration_since(e.epoch()), Duration::from_millis(530));
    }

    #[test]
    fn severed_window_translates_to_instants() {
        let plan = LinkPlan::uniform(EdgeSpec::IDEAL).partition(PartitionWindow::isolate(
            0,
            50,
            [NodeId(0)],
        ));
        let setup = LinkSetup::new(plan, 2, 0);
        let severed_until = |ms| setup.severed_until(NodeId(0), NodeId(1), setup.epoch + ms);
        let heal = severed_until(Duration::ZERO).expect("severed at the epoch");
        assert_eq!(heal.duration_since(setup.epoch), Duration::from_millis(50));
        assert!(severed_until(Duration::from_millis(60)).is_none());
    }

    #[test]
    fn unrelated_edges_are_never_severed() {
        let plan = LinkPlan::uniform(EdgeSpec::IDEAL).partition(PartitionWindow::isolate(
            0,
            50,
            [NodeId(3)],
        ));
        let setup = LinkSetup::new(plan, 2, 0);
        assert!(setup.severed_until(NodeId(0), NodeId(1), setup.epoch).is_none());
    }

    #[test]
    fn lossy_windows_drop_frames_without_severing_the_link() {
        let lost = PartitionWindow::isolate(0, 500, [NodeId(0)]).lossy();
        let mut e = edge(LinkPlan::uniform(EdgeSpec::delay(5)).partition(lost), 0);
        let inside = e.epoch() + Duration::from_millis(100);
        assert_eq!(e.admit(inside), None, "cut traffic is lost, not held");
        assert!(e.setup.severed_until(NodeId(0), NodeId(1), inside).is_none());
        let after = e.epoch() + Duration::from_millis(500);
        assert_eq!(e.admit(after), Some(after + Duration::from_millis(5)));
    }

    #[test]
    fn inbound_windows_sever_only_the_inbound_direction() {
        let deaf = PartitionWindow::isolate(0, 50, [NodeId(1)]).with_cut(Cut::Inbound);
        let setup = LinkSetup::new(LinkPlan::uniform(EdgeSpec::IDEAL).partition(deaf), 2, 0);
        let heal = setup.severed_until(NodeId(0), NodeId(1), setup.epoch).expect("into node 1");
        assert_eq!(heal.duration_since(setup.epoch), Duration::from_millis(50));
        assert!(setup.severed_until(NodeId(1), NodeId(0), setup.epoch).is_none());
    }

    #[test]
    fn lossy_edges_drop_deterministically_per_seed() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(1).with_drop(0.5));
        let count = |seed| {
            let mut e = edge(plan.clone(), seed);
            let now = Instant::now();
            (0..200).filter(|_| e.admit(now).is_none()).count()
        };
        assert_eq!(count(9), count(9));
        assert!((50..150).contains(&count(9)));
    }

    /// The TCP link is no second interpreter: fed the same RNG stream, its
    /// due offsets are exactly `LinkPlan::route_at`'s delivery times, up to
    /// the FIFO clamp (a due time never precedes the previous frame's).
    #[test]
    fn due_offsets_match_route_at_apart_from_the_fifo_clamp() {
        for plan_seed in 0..8 {
            let plan = LinkPlan::sample(&mut StdRng::seed_from_u64(plan_seed), 4, 2_000, 3);
            let edges = (0..4u16).flat_map(|a| (0..4u16).map(move |b| (NodeId(a), NodeId(b))));
            for (from, to) in edges.filter(|(a, b)| a != b) {
                let seed = plan_seed * 31 + u64::from(from.0);
                let mut e = Edge::new(plan.clone(), 4, from, to, seed);
                let mut oracle = e.setup.edge_rng(ROUTE_SALT, from, to);
                let mut times = StdRng::seed_from_u64(seed);
                let (mut at, mut last) = (0u64, 0u64);
                for _ in 0..300 {
                    at += times.random_range(0..=15u64);
                    let due = e.admit(e.epoch() + Duration::from_millis(at));
                    let want = plan.route_at(from, to, at, &mut oracle);
                    let got = due.map(|d| d.duration_since(e.epoch()).as_millis() as u64);
                    assert_eq!(got, want.map(|w| w.max(last)), "plan {plan}, {from}→{to}, at {at}");
                    last = got.unwrap_or(last);
                }
            }
        }
    }
}
