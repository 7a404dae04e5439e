//! Supervision of one directed peer link, expressed as reactor state.
//!
//! Up to PR 9 every outbound edge owned a thread (blocking dial, blocking
//! buffered writes); the reactor rewrite keeps the exact supervision
//! semantics but re-expresses them as a non-blocking state machine the
//! per-node [`crate::reactor`] drives off readiness events:
//!
//! * **dial with capped, jittered exponential backoff** — peers boot in
//!   any order and may vanish mid-run; retries start at 10 ms, cap at 1 s,
//!   and each wait adds up to +50% uniform jitter so a mass disconnect
//!   (whole-cluster restart, healed partition) does not redial in
//!   lockstep — the classic thundering-herd fix;
//! * **re-handshake with incarnation exchange** — every (re)connection
//!   opens with a 10-byte hello (sender id + sender incarnation) and waits
//!   for the acceptor's 8-byte incarnation ack, so the receiving side can
//!   always attribute the stream *and* both sides learn whether the other
//!   restarted from disk since they last spoke;
//! * **stale-frame fencing** — when the ack shows the peer's incarnation
//!   advanced (it crashed and restarted), every frame buffered for the
//!   previous incarnation is discarded and counted
//!   (`NetStats::frames_dropped_stale`) instead of being replayed into
//!   the peer's freshly restored state;
//! * **buffered resume** — frames are held in a bounded queue
//!   ([`MAX_BUFFERED_FRAMES`] per link; beyond that the oldest is shed
//!   and counted) and only retired once the kernel accepts their last
//!   byte; anything unretired when a connection breaks is rewritten after
//!   the reconnect. Within the buffer bound, delivery across reconnects
//!   is *at-least-once* (duplicates are harmless: every protocol message
//!   is an idempotent vote); a shed frame is an ordinary loss the
//!   protocol absorbs through view changes;
//! * **link conditioning** — each frame is priced by the shared
//!   [`LinkPlan`]'s own `route_at`, the call the simulator makes (loss,
//!   delay, jitter, release at heal), and scripted partition windows
//!   proactively sever the connection until `LinkPlan::release_time`.
//!
//! [`LinkPlan`]: tetrabft_sim::LinkPlan

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Event, Poller};
use rand::rngs::StdRng;
use rand::Rng;

use tetrabft_types::NodeId;

use crate::link::{LinkSetup, BACKOFF_SALT, ROUTE_SALT};

/// Frames a supervised link will not buffer beyond; the oldest frame is
/// shed first (newer consensus messages supersede older ones, and the
/// protocol recovers lost messages through view changes anyway).
pub(crate) const MAX_BUFFERED_FRAMES: usize = 4096;

const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_millis(1000);
/// Cap on one connection attempt: a black-holed peer (dropping firewall,
/// dead host on a real WAN) never answers the SYN, and the OS default
/// connect timeout is minutes — far too long to leave the link idle when
/// a redial could already be succeeding.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// Cap on waiting for the acceptor's incarnation ack: an unresponsive or
/// pre-handshake-era peer must not hold the link half-open.
const ACK_TIMEOUT: Duration = Duration::from_millis(500);

/// One directed link's static configuration.
pub(crate) struct LinkConfig {
    pub me: NodeId,
    pub peer: NodeId,
    /// This node's own incarnation (0 for non-durable nodes), announced in
    /// every hello so the far side can fence *our* stale state too.
    pub my_incarnation: u64,
    pub addr: SocketAddr,
    /// The cluster's shared plan, epoch, metrics, cut flags, and seed.
    pub links: LinkSetup,
}

/// Where one outbound connection currently stands.
enum LinkState {
    /// No socket; the next dial happens at `Link::next_dial`.
    Down,
    /// Non-blocking connect in flight; resolved by writable readiness
    /// (`SO_ERROR` tells success from refusal) or the deadline.
    Connecting { stream: TcpStream, deadline: Instant },
    /// Connected; writing the 10-byte hello, then reading the 8-byte
    /// incarnation ack.
    Handshake { stream: TcpStream, sent: usize, ack: [u8; 8], got: usize, deadline: Instant },
    /// Handshake complete: due frames flow.
    Up { stream: TcpStream },
}

/// One supervised outbound edge, driven by the reactor.
///
/// The reactor calls [`Link::enqueue`] when the engine flushes frames for
/// this peer, [`Link::on_readiness`] when the link's socket reports readiness,
/// and [`Link::housekeep`] every wakeup (cut flags, partition windows,
/// dial/ack deadlines, due-frame writes). The link keeps its poller
/// registration in sync itself, always under the same `key`.
pub(crate) struct Link {
    cfg: LinkConfig,
    /// This link's stable key in the reactor's poller.
    key: usize,
    /// One-shot fault injection: when set, the live socket is killed (and
    /// the flag consumed); the link reconnects and resends.
    cut: Arc<AtomicBool>,
    /// The plan's loss and jitter draws for this edge.
    route_rng: StdRng,
    /// The latest due time handed out: links are FIFO, so a jittered
    /// frame never overtakes its predecessor.
    last_due: Instant,
    state: LinkState,
    /// Conditioned frames not yet retired, with their due times.
    pending: VecDeque<(Instant, Arc<Vec<u8>>)>,
    /// Bytes of `pending.front()` already accepted by the kernel; a
    /// connection break mid-frame rewinds to 0 and rewrites the frame on
    /// the next connection (at-least-once, never a torn frame: each
    /// connection starts a fresh decoder on the far side).
    cursor: usize,
    /// Set when a write hit `WouldBlock`: the socket owes us writable
    /// readiness before more bytes fit.
    blocked: bool,
    connected_once: bool,
    /// The peer incarnation the buffered frames were produced against.
    peer_incarnation: Option<u64>,
    backoff: Duration,
    next_dial: Instant,
    /// Jitter source for the backoff.
    backoff_rng: StdRng,
    /// Interest currently armed in the poller, `None` when no socket is
    /// registered. Oneshot delivery disarms; whoever changes state re-arms.
    armed: Option<(bool, bool)>,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig, key: usize) -> Self {
        let (me, peer) = (cfg.me, cfg.peer);
        Link {
            key,
            cut: cfg.links.cut_flag(me, peer),
            route_rng: cfg.links.edge_rng(ROUTE_SALT, me, peer),
            last_due: cfg.links.epoch,
            backoff_rng: cfg.links.edge_rng(BACKOFF_SALT, me, peer),
            cfg,
            state: LinkState::Down,
            pending: VecDeque::new(),
            cursor: 0,
            blocked: false,
            connected_once: false,
            peer_incarnation: None,
            backoff: BACKOFF_MIN,
            next_dial: Instant::now(),
            armed: None,
        }
    }

    /// Admits a batch of frames through the plan into the bounded pending
    /// queue (drops, sheds, and the send-queue high-water mark are counted
    /// here).
    pub(crate) fn enqueue(&mut self, batch: Vec<Arc<Vec<u8>>>, now: Instant) {
        for frame in batch {
            let (me, peer) = (self.cfg.me, self.cfg.peer);
            match self.cfg.links.admit(me, peer, now, &mut self.route_rng, &mut self.last_due) {
                Some(due) => {
                    self.pending.push_back((due, frame));
                    if self.pending.len() > MAX_BUFFERED_FRAMES {
                        // Never shed the front frame mid-write: a torn frame
                        // would desynchronize the peer's decoder.
                        let at = usize::from(self.cursor > 0);
                        self.pending.remove(at);
                        self.cfg.links.metrics.frames_shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    self.cfg.links.metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.cfg.links.metrics.note_queue_depth(self.pending.len() as u64);
    }

    /// One supervision pass: consume cut flags, honor partition windows,
    /// start dials, enforce handshake deadlines, write due frames. Returns
    /// the earliest instant at which this link needs another pass (`None`
    /// when it only reacts to readiness or new frames).
    pub(crate) fn housekeep(&mut self, now: Instant, poller: &Poller) -> Option<Instant> {
        if self.cut.swap(false, Ordering::Relaxed) {
            self.teardown(poller);
        }
        if let Some(heal) = self.cfg.links.severed_until(self.cfg.me, self.cfg.peer, now) {
            // Scripted partition: hold the line down; frames keep queueing.
            self.teardown(poller);
            return Some(heal);
        }
        match &mut self.state {
            LinkState::Down => {
                if now >= self.next_dial {
                    self.start_dial(now, poller);
                }
            }
            LinkState::Connecting { deadline, .. } | LinkState::Handshake { deadline, .. } => {
                if now >= *deadline {
                    self.retire_connection(poller, now);
                }
            }
            LinkState::Up { .. } => {
                self.pump(now, poller);
            }
        }
        self.sync_interest(poller);
        match &self.state {
            LinkState::Down => Some(self.next_dial),
            LinkState::Connecting { deadline, .. } | LinkState::Handshake { deadline, .. } => {
                Some(*deadline)
            }
            LinkState::Up { .. } => {
                if self.blocked {
                    None // waiting on writable readiness, no deadline
                } else {
                    self.pending.front().map(|(due, _)| *due)
                }
            }
        }
    }

    /// Handles a readiness delivery for this link's socket.
    pub(crate) fn on_readiness(&mut self, ev: Event, now: Instant, poller: &Poller) {
        // Oneshot delivery disarmed the registration.
        self.armed = Some((false, false));
        match std::mem::replace(&mut self.state, LinkState::Down) {
            LinkState::Down => {}
            LinkState::Connecting { stream, deadline } => {
                if ev.writable {
                    match stream.take_error() {
                        Ok(None) => {
                            // Connected: send the hello, then await the ack.
                            self.state = LinkState::Handshake {
                                stream,
                                sent: 0,
                                ack: [0; 8],
                                got: 0,
                                deadline: now + ACK_TIMEOUT,
                            };
                            self.advance_handshake(now, poller);
                        }
                        Ok(Some(_)) | Err(_) => {
                            // Refused/unreachable: route through the normal
                            // teardown so the poller registration is gone
                            // before the fd closes (the poll backend keeps
                            // registrations keyed by raw fd).
                            self.state = LinkState::Connecting { stream, deadline };
                            self.retire_connection(poller, now);
                        }
                    }
                } else {
                    self.state = LinkState::Connecting { stream, deadline };
                }
            }
            LinkState::Handshake { stream, sent, ack, got, deadline } => {
                self.state = LinkState::Handshake { stream, sent, ack, got, deadline };
                self.advance_handshake(now, poller);
            }
            LinkState::Up { stream } => {
                if ev.readable {
                    // The only bytes a peer ever sends on our outbound
                    // socket is the handshake ack; anything later means
                    // EOF/reset (or protocol garbage we treat the same).
                    let mut probe = [0u8; 512];
                    match stream_read(&stream, &mut probe) {
                        ReadStep::Closed | ReadStep::Data => {
                            self.state = LinkState::Up { stream };
                            self.retire_connection(poller, now);
                            self.sync_interest(poller);
                            return;
                        }
                        ReadStep::Blocked => {}
                    }
                }
                self.blocked = false;
                self.state = LinkState::Up { stream };
                self.pump(now, poller);
            }
        }
        self.sync_interest(poller);
    }

    /// Starts a non-blocking dial.
    fn start_dial(&mut self, now: Instant, poller: &Poller) {
        debug_assert!(matches!(self.state, LinkState::Down));
        match polling::os::connect_stream(&self.cfg.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if poller.add(&stream, Event::writable(self.key)).is_ok() {
                    self.armed = Some((false, true));
                    self.state = LinkState::Connecting { stream, deadline: now + DIAL_TIMEOUT };
                } else {
                    self.backoff_retry(now);
                }
            }
            Err(_) => self.backoff_retry(now),
        }
    }

    /// Writes hello bytes / reads ack bytes as far as the socket allows;
    /// completes the handshake when the full ack is in.
    fn advance_handshake(&mut self, now: Instant, poller: &Poller) {
        let LinkState::Handshake { stream, sent, ack, got, deadline } = &mut self.state else {
            return;
        };
        let mut hello = [0u8; 10];
        hello[..2].copy_from_slice(&self.cfg.me.0.to_be_bytes());
        hello[2..].copy_from_slice(&self.cfg.my_incarnation.to_be_bytes());
        while *sent < hello.len() {
            match (&*stream).write(&hello[*sent..]) {
                Ok(0) => return self.retire_connection(poller, now),
                Ok(k) => *sent += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.retire_connection(poller, now),
            }
        }
        while *got < ack.len() {
            match (&*stream).read(&mut ack[*got..]) {
                Ok(0) => return self.retire_connection(poller, now),
                Ok(k) => *got += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.retire_connection(poller, now),
            }
        }
        let _ = deadline;
        let peer_inc = u64::from_be_bytes(*ack);
        if self.connected_once {
            self.cfg.links.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.connected_once = true;
        // Resume is gated on the handshake: if the peer restarted since
        // these frames were queued, they address a dead incarnation — drop
        // them instead of replaying pre-crash traffic into the peer's
        // restored state (it pulls what it needs via catch-up).
        if self.peer_incarnation.is_some_and(|prev| peer_inc > prev) {
            self.cfg
                .links
                .metrics
                .frames_dropped_stale
                .fetch_add(self.pending.len() as u64, Ordering::Relaxed);
            self.pending.clear();
        }
        self.peer_incarnation = Some(peer_inc);
        self.backoff = BACKOFF_MIN;
        self.cursor = 0;
        self.blocked = false;
        let LinkState::Handshake { stream, .. } =
            std::mem::replace(&mut self.state, LinkState::Down)
        else {
            unreachable!("matched above");
        };
        self.state = LinkState::Up { stream };
        self.pump(now, poller);
    }

    /// Writes every due frame the socket will take; frames are retired as
    /// their last byte is accepted by the kernel (the same guarantee the
    /// old supervisor's confirmed `flush` gave on its buffered writer).
    fn pump(&mut self, now: Instant, poller: &Poller) {
        let LinkState::Up { stream } = &self.state else { return };
        while let Some((due, frame)) = self.pending.front() {
            // A frame mid-write must finish regardless of due times; an
            // unstarted frame waits for its plan-priced due time.
            if self.cursor == 0 && *due > now {
                break;
            }
            match (&*stream).write(&frame[self.cursor..]) {
                Ok(0) => return self.retire_connection(poller, now),
                Ok(k) => {
                    self.cursor += k;
                    self.cfg.links.metrics.note_sent(k as u64, self.cfg.peer);
                    if self.cursor == frame.len() {
                        self.pending.pop_front();
                        self.cursor = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.blocked = true;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.retire_connection(poller, now),
            }
        }
        self.blocked = false;
    }

    /// Drops the current connection (if any) and schedules a backed-off
    /// redial; unretired frames stay queued for the next connection.
    fn retire_connection(&mut self, poller: &Poller, now: Instant) {
        if self.cursor > 0 {
            // The frame the break interrupted will be rewritten in full.
            self.cursor = 0;
            self.cfg.links.metrics.frames_resent.fetch_add(1, Ordering::Relaxed);
        }
        self.teardown(poller);
        self.backoff_retry(now);
    }

    /// Tears the socket down without touching the backoff (cut flags and
    /// partition windows redial eagerly once clear).
    fn teardown(&mut self, poller: &Poller) {
        match std::mem::replace(&mut self.state, LinkState::Down) {
            LinkState::Down => {}
            LinkState::Connecting { stream, .. }
            | LinkState::Handshake { stream, .. }
            | LinkState::Up { stream } => {
                let _ = poller.delete(&stream);
                let _ = stream.shutdown(Shutdown::Both);
                self.armed = None;
                if self.cursor > 0 {
                    self.cursor = 0;
                    self.cfg.links.metrics.frames_resent.fetch_add(1, Ordering::Relaxed);
                }
                self.blocked = false;
            }
        }
    }

    /// Schedules the next dial with capped exponential backoff plus up to
    /// +50% uniform jitter, so simultaneous link deaths (peer restart,
    /// healed partition, cluster-wide cut) spread their redials instead of
    /// stampeding the listener in lockstep.
    fn backoff_retry(&mut self, now: Instant) {
        debug_assert!(matches!(self.state, LinkState::Down), "torn down before backoff");
        let jitter_us = self.backoff_rng.random_range(0..=self.backoff.as_micros() as u64 / 2);
        self.next_dial = now + self.backoff + Duration::from_micros(jitter_us);
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }

    /// The interest this link's state wants armed right now.
    fn desired_interest(&self) -> Option<(bool, bool)> {
        match &self.state {
            LinkState::Down => None,
            LinkState::Connecting { .. } => Some((false, true)),
            LinkState::Handshake { sent, .. } => {
                if *sent < 10 {
                    Some((false, true))
                } else {
                    Some((true, false))
                }
            }
            // Readable always (EOF/reset detection); writable only while a
            // write is actually blocked — the pump writes opportunistically
            // without waiting for readiness.
            LinkState::Up { .. } => Some((true, self.blocked)),
        }
    }

    /// Re-arms the poller registration if the desired interest differs
    /// from what is armed (oneshot deliveries disarm; state changes and
    /// new blocked writes re-arm here).
    fn sync_interest(&mut self, poller: &Poller) {
        let desired = self.desired_interest();
        let (Some(want), Some(armed)) = (desired, self.armed) else { return };
        if want == armed {
            return;
        }
        let ev = Event { key: self.key, readable: want.0, writable: want.1 };
        let ok = match &self.state {
            LinkState::Connecting { stream, .. }
            | LinkState::Handshake { stream, .. }
            | LinkState::Up { stream } => poller.modify(stream, ev).is_ok(),
            LinkState::Down => true,
        };
        if ok {
            self.armed = Some(want);
        }
    }
}

/// Outcome of one non-blocking read attempt.
enum ReadStep {
    Data,
    Blocked,
    Closed,
}

fn stream_read(mut stream: &TcpStream, buf: &mut [u8]) -> ReadStep {
    loop {
        match stream.read(buf) {
            Ok(0) => return ReadStep::Closed,
            Ok(_) => return ReadStep::Data,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadStep::Closed,
        }
    }
}
