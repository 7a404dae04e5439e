//! The `transfer-open` and `transfer-heavy` phases: typed transfers at a
//! Poisson rate over two framed client connections into four durable replicas on
//! loopback, confirmed when a [`LedgerReplica`] has executed them.
//!
//! Two benchmark threads drive the program under test: the generator
//! (this module's caller thread) writes transfers to the client sockets,
//! and the confirmer drains [`Cluster::next_output_timeout`], executes
//! node 0's finalized stream with [`LedgerReplica::push`], and matches
//! every executed transfer back to its due instant. Everything else
//! running in the process is the replicas' own threads.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_ledger::{transfer_admission, AccountId, LedgerReplica, Transfer};
use tetrabft_multishot::{Block, BlockHash, Finalized, MultiShotNode};
use tetrabft_net::{Cluster, ClusterBuilder, LinkPlan, NetControl, NetStats};
use tetrabft_types::{Config, NodeId, Slot};
use tetrabft_wire::Wire;

use crate::load::{conn_of, dial, frame, PoissonSchedule, Transfers};
use crate::procfs;
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

const NODES: usize = 4;
/// Δ in ms: the view timeout is 9Δ, the stall threshold is Δ.
const DELTA_MS: u64 = 100;
const IDLE_PACING_MS: u64 = 5;
const MEMPOOL_CAPACITY: usize = 1 << 17;
const BLOCK_TXS: usize = 4096;
const ACCOUNTS: u64 = 4096;
const GENESIS_BALANCE: u64 = 1 << 40;
/// The node each client connection dials: two of the four leaders, half
/// a rotation apart.
const CONN_NODES: [usize; 2] = [0, 2];
/// The confirmer executes this node's finalized stream.
const CONFIRM_NODE: usize = 0;
/// The check replica replays this node's finalized stream.
const REPLAY_NODE: usize = 3;
/// Cluster set-ups per run; `setup_s` is their median, the last one is
/// measured.
const SETUPS: usize = 11;
/// Load offered before the measurement window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// After the load stops, how long unconfirmed transfers may still
/// execute before they count as failed.
const GRACE: Duration = Duration::from_secs(5);
/// Longest wait for every node's first finalization during set-up.
const FIRST_FINALIZE_CAP: Duration = Duration::from_secs(20);
/// Time for a dropped cluster's engine and reactor threads to notice
/// their stop flag (they poll it every 20-25 ms).
pub const TEARDOWN_SETTLE: Duration = Duration::from_millis(100);
/// Confirmer poll of the cluster's output channel.
const OUTPUT_POLL: Duration = Duration::from_millis(5);
/// How often the confirmer samples the mempool snapshot files.
const STORE_SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// `transfer-open`: 32k tx/s, about a third of the knee measured on a
/// 2-core VM, where latency is steady.
pub const OPEN_RATE_TPS: f64 = 32_000.0;
/// `transfer-heavy`: 48k tx/s, about half the knee. At 64k the p99 of
/// runs on the same host differed by a quarter.
pub const HEAVY_RATE_TPS: f64 = 48_000.0;

/// Run-wide settings.
#[derive(Debug)]
pub struct Opts<'a> {
    /// Phase and seed, for the span log's file name.
    pub name: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Directory for the replicas' durable stores (fresh, disk-backed).
    pub scratch: &'a Path,
    /// Epoch of every span.
    pub epoch: Instant,
    /// Record spans.
    pub trace: bool,
}

fn params() -> Params {
    Params::new(DELTA_MS)
        .with_mempool_capacity(MEMPOOL_CAPACITY)
        .with_max_block_txs(BLOCK_TXS)
        .with_idle_pacing(IDLE_PACING_MS)
}

fn genesis() -> impl Iterator<Item = (AccountId, u64)> {
    (0..ACCOUNTS).map(|a| (AccountId(a), GENESIS_BALANCE))
}

/// One node's finalized stream, packed for the replay after the window:
/// transaction bytes are concatenated, so holding a run's worth costs a
/// few bytes more than the transfers themselves.
#[derive(Debug, Default)]
struct PackedStream {
    /// `(slot, parent, hash, end of the block's transactions in tx_ends)`.
    blocks: Vec<(u64, u64, u64, usize)>,
    /// End offset in `bytes` of each transaction.
    tx_ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl PackedStream {
    fn push(&mut self, fin: &Finalized) {
        for tx in fin.block.txs.iter() {
            self.bytes.extend_from_slice(tx);
            self.tx_ends.push(self.bytes.len());
        }
        self.blocks.push((fin.slot.0, fin.block.parent.0, fin.hash.0, self.tx_ends.len()));
    }

    /// Rebuilds each block in order.
    fn unpack(&self) -> impl Iterator<Item = Finalized> + '_ {
        let mut tx = 0;
        self.blocks.iter().map(move |&(slot, parent, hash, end)| {
            let txs = (tx..end)
                .map(|i| {
                    self.bytes[if i == 0 { 0 } else { self.tx_ends[i - 1] }..self.tx_ends[i]]
                        .to_vec()
                })
                .collect();
            tx = end;
            let block = Block::new(Slot(slot), BlockHash(parent), txs);
            Finalized { slot: Slot(slot), hash: BlockHash(hash), block }
        })
    }
}

/// A transfer the generator wrote and the confirmer has not yet seen
/// executed.
#[derive(Debug, Clone, Copy)]
struct Pending {
    nonce: u64,
    due: Instant,
    sent: Instant,
}

/// Generator → confirmer.
enum Msg {
    /// Transfers written to the sockets, finished at `at`:
    /// `(account, nonce, due)`.
    Sent { at: Instant, txs: Vec<(u32, u64, Instant)> },
    /// The generator has stopped.
    Done,
}

/// The confirmer's state: chain agreement, the executing replica, and
/// the matching of executed transfers to their due instants.
struct Confirmer {
    tracer: Tracer,
    last_slot: [u64; NODES],
    /// First-reported hash, first-report instant and report count per
    /// slot (index `slot - 1`).
    slot_hash: Vec<u64>,
    first_seen: Vec<Instant>,
    seen: Vec<u8>,
    replay: PackedStream,
    replica: LedgerReplica,
    outstanding: Vec<VecDeque<Pending>>,
    n_outstanding: u64,
    confirmed: u64,
    rejected: u64,
    done: bool,
    reg_rx: Option<Receiver<Msg>>,
    window: (Instant, Instant),
    problems: Vec<String>,
    // Measurements over the window.
    confirmed_in_window: u64,
    /// Due-to-executed latency of transfers due in the window, bucketed
    /// by the one-second interval they were due in.
    latency_ms: Vec<Vec<f64>>,
    sent_to_final_ms: Vec<f64>,
    spread_ms: Vec<f64>,
    blocks_in_window: u64,
    txs_in_window: u64,
    empty_in_window: u64,
    stalls: u64,
    height_at_window_end: u64,
    dirs: Vec<PathBuf>,
    next_store_sample: Instant,
    mempool_bytes: Vec<f64>,
}

impl Confirmer {
    fn new(tracer: Tracer, dirs: Vec<PathBuf>) -> Confirmer {
        let now = Instant::now();
        Confirmer {
            tracer,
            last_slot: [0; NODES],
            slot_hash: Vec::new(),
            first_seen: Vec::new(),
            seen: Vec::new(),
            replay: PackedStream::default(),
            replica: LedgerReplica::new(genesis()),
            outstanding: vec![VecDeque::new(); ACCOUNTS as usize],
            n_outstanding: 0,
            confirmed: 0,
            rejected: 0,
            done: false,
            reg_rx: None,
            window: (now, now),
            problems: Vec::new(),
            confirmed_in_window: 0,
            latency_ms: Vec::new(),
            sent_to_final_ms: Vec::new(),
            spread_ms: Vec::new(),
            blocks_in_window: 0,
            txs_in_window: 0,
            empty_in_window: 0,
            stalls: 0,
            height_at_window_end: 0,
            dirs,
            next_store_sample: now,
            mempool_bytes: Vec::new(),
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    fn in_window(&self, t: Instant) -> bool {
        t >= self.window.0 && t < self.window.1
    }

    /// One finalization reported by one node.
    fn observe(&mut self, node: usize, fin: Finalized) {
        let now = Instant::now();
        let slot = fin.slot.0;
        if slot != self.last_slot[node] + 1 {
            self.problem(format!(
                "node {node} finalized slot {slot} after {}",
                self.last_slot[node]
            ));
        }
        self.last_slot[node] = slot;
        let idx = (slot - 1) as usize;
        if idx < self.slot_hash.len() {
            if self.slot_hash[idx] != fin.hash.0 {
                self.problem(format!("node {node} disagrees on the hash of slot {slot}"));
            }
            self.seen[idx] += 1;
            if usize::from(self.seen[idx]) == NODES && self.in_window(self.first_seen[idx]) {
                self.spread_ms.push(ms(now - self.first_seen[idx]));
            }
        } else if idx == self.slot_hash.len() {
            if self.in_window(now) {
                let gap = self.first_seen.last().map(|&t| now - t);
                if gap.is_some_and(|g| g >= Duration::from_millis(DELTA_MS)) {
                    self.stalls += 1;
                }
                self.blocks_in_window += 1;
                self.txs_in_window += fin.block.txs.len() as u64;
                self.empty_in_window += u64::from(fin.block.txs.is_empty());
            }
            self.slot_hash.push(fin.hash.0);
            self.first_seen.push(now);
            self.seen.push(1);
        } else {
            self.problem(format!("slot {slot} reported before slot {}", self.slot_hash.len() + 1));
        }
        if node == CONFIRM_NODE {
            self.execute(&fin, now);
        }
        if node == REPLAY_NODE {
            self.replay.push(&fin);
        }
    }

    /// Executes one of the confirm node's blocks and confirms its
    /// transfers.
    fn execute(&mut self, fin: &Finalized, t_fin: Instant) {
        let parent = self.tracer.open("confirm.block", t_fin, 0, fin.slot.0);
        let ran = self.replica.push(0, fin);
        let t_exec = Instant::now();
        self.tracer.record("ledger.push", t_fin, t_exec, parent, fin.slot.0);
        if ran != 1 {
            self.problem(format!("slot {} executed {ran} blocks", fin.slot.0));
        }
        if t_exec < self.window.1 {
            self.height_at_window_end = self.replica.height();
        }
        let rejected =
            self.replica.receipts().last().map(|r| r.rejected.clone()).unwrap_or_default();
        for (i, e) in &rejected {
            self.problem(format!("slot {} tx {i} rejected at execution: {e}", fin.slot.0));
        }
        self.rejected += rejected.len() as u64;
        let mut rejected = rejected.iter().map(|&(i, _)| i).peekable();
        for (i, bytes) in fin.block.txs.iter().enumerate() {
            let Ok(t) = Transfer::from_bytes(bytes) else {
                self.problem(format!("slot {} holds a non-transfer", fin.slot.0));
                continue;
            };
            let Some(p) = self.take_pending(&t) else { continue };
            if rejected.next_if_eq(&i).is_some() {
                continue;
            }
            self.confirmed += 1;
            if self.in_window(p.due) {
                let interval = (p.due - self.window.0).as_secs() as usize;
                if interval >= self.latency_ms.len() {
                    self.latency_ms.resize_with(interval + 1, Vec::new);
                }
                self.latency_ms[interval].push(ms(t_exec - p.due));
                if self.tracer.on() {
                    self.sent_to_final_ms.push(ms(t_fin.saturating_duration_since(p.sent)));
                }
            }
            if self.in_window(t_exec) {
                self.confirmed_in_window += 1;
            }
        }
        let end = Instant::now();
        self.tracer.record("confirm.match", t_exec, end, parent, fin.slot.0);
        self.tracer.close(parent, end);
    }

    /// Removes the executed transfer from its account's queue, checking
    /// that it is the next nonce the generator sent for that account.
    fn take_pending(&mut self, t: &Transfer) -> Option<Pending> {
        let account = t.from.0 as usize;
        if account >= self.outstanding.len() {
            self.problem(format!("executed transfer from unknown account {account}"));
            return None;
        }
        while self.outstanding[account].is_empty() {
            // Registrations trail the socket write by microseconds.
            let Some(rx) = &self.reg_rx else { break };
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(msg) => self.register(msg),
                Err(_) => break,
            }
        }
        let Some(p) = self.outstanding[account].pop_front() else {
            self.problem(format!("executed transfer {account}/{} was never sent", t.nonce));
            return None;
        };
        self.n_outstanding -= 1;
        if p.nonce != t.nonce {
            self.problem(format!(
                "account {account} executed nonce {} before {}",
                t.nonce, p.nonce
            ));
        }
        Some(p)
    }

    fn register(&mut self, msg: Msg) {
        match msg {
            Msg::Sent { at, txs } => {
                for (account, nonce, due) in txs {
                    self.outstanding[account as usize].push_back(Pending { nonce, due, sent: at });
                    self.n_outstanding += 1;
                }
            }
            Msg::Done => self.done = true,
        }
    }

    fn drain_registrations(&mut self) {
        while let Some(msg) = self.reg_rx.as_ref().and_then(|rx| rx.try_recv().ok()) {
            self.register(msg);
        }
    }

    fn sample_store(&mut self, now: Instant) {
        if now < self.next_store_sample || !self.in_window(now) {
            return;
        }
        self.next_store_sample = now + STORE_SAMPLE_EVERY;
        for dir in &self.dirs {
            let len = std::fs::metadata(dir.join("mempool.log")).map_or(0, |m| m.len());
            self.mempool_bytes.push(len as f64);
        }
    }

    /// Every sent transfer is accounted for and every node has finalized
    /// what the confirm node executed in the window.
    fn settled(&self) -> bool {
        self.done
            && self.n_outstanding == 0
            && self.last_slot.iter().all(|&s| s >= self.height_at_window_end)
    }

    /// Drains the cluster until [`Confirmer::settled`] or the grace period
    /// ends.
    fn run(
        mut self,
        mut cluster: Cluster<Finalized>,
        deadline: Instant,
    ) -> (Confirmer, Cluster<Finalized>) {
        loop {
            self.drain_registrations();
            if self.settled() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.sample_store(now);
            if let Some((node, fin)) = cluster.next_output_timeout(OUTPUT_POLL) {
                self.tracer.record("cluster.next_output", now, Instant::now(), 0, fin.slot.0);
                self.observe(node.index(), fin);
            }
        }
        (self, cluster)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running cluster with its client connections, after set-up.
struct Live {
    cluster: Cluster<Finalized>,
    net: NetControl,
    conns: Vec<TcpStream>,
    confirmer: Confirmer,
}

/// Opens fresh durable stores, spawns the serving cluster, dials the
/// client connections and waits until every node has finalized.
fn set_up(
    k: usize,
    opts: &Opts<'_>,
    tracer: &mut Tracer,
    open_ms: &mut Vec<f64>,
) -> Result<(Live, f64), String> {
    let cfg = Config::new(NODES).expect("4 nodes is a valid configuration");
    let t0 = Instant::now();
    let parent = tracer.open("setup", t0, 0, k as u64);
    let base = opts.scratch.join(format!("setup{k}"));
    let mut nodes = Vec::with_capacity(NODES);
    let mut dirs = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let dir = base.join(format!("node{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t = Instant::now();
        let node = MultiShotNode::durable(cfg, params(), NodeId(i as u16), &dir)
            .map_err(|e| format!("durable open of node {i}: {e:?}"))?
            .with_admission(transfer_admission);
        let opened = Instant::now();
        tracer.record("store.open", t, opened, parent, i as u64);
        open_ms.push(ms(opened - t));
        nodes.push(Some(node));
        dirs.push(dir);
    }
    let t = Instant::now();
    let ((mut cluster, _submit), net) = ClusterBuilder::new(NODES)
        .plan(LinkPlan::ideal())
        .seed(opts.seed)
        .spawn_serving(|id| nodes[id.index()].take().expect("each node is spawned once"))
        .map_err(|e| format!("spawn_serving: {e}"))?;
    tracer.record("cluster.spawn_serving", t, Instant::now(), parent, 0);
    let mut conns = Vec::with_capacity(CONN_NODES.len());
    for (c, &node) in CONN_NODES.iter().enumerate() {
        let t = Instant::now();
        let addr = cluster.topology().addrs()[node];
        conns.push(dial(addr).map_err(|e| format!("client dial of node {node}: {e}"))?);
        tracer.record("client.dial", t, Instant::now(), parent, c as u64);
    }
    let t = Instant::now();
    let mut confirmer = Confirmer::new(Tracer::new(opts.epoch, opts.trace, 1), dirs);
    while confirmer.last_slot.contains(&0) {
        if t.elapsed() > FIRST_FINALIZE_CAP {
            return Err("not every node finalized during set-up".into());
        }
        if let Some((node, fin)) = cluster.next_output_timeout(OUTPUT_POLL) {
            confirmer.observe(node.index(), fin);
        }
    }
    let done = Instant::now();
    tracer.record("cluster.first_finalize", t, done, parent, 0);
    tracer.close(parent, done);
    Ok((Live { cluster, net, conns, confirmer }, (done - t0).as_secs_f64()))
}

/// Process-wide counters at one instant.
struct Probe {
    at: Instant,
    cpu_s: f64,
    write_bytes: u64,
    net: NetStats,
}

fn probe(net: &NetControl) -> Probe {
    Probe {
        at: Instant::now(),
        cpu_s: procfs::cpu_s(),
        write_bytes: procfs::write_bytes(),
        net: net.stats(),
    }
}

/// The generator's side of a run.
struct Generator<'a> {
    conns: &'a mut [TcpStream],
    bufs: Vec<Vec<u8>>,
    batch: Vec<(u32, u64, Instant)>,
    reg_tx: Sender<Msg>,
    transfers: Transfers,
    sent: u64,
    window: (Instant, Instant),
    lag_ms: Vec<f64>,
    tracer: &'a mut Tracer,
    start: Option<Probe>,
    net: &'a NetControl,
}

impl Generator<'_> {
    fn add(&mut self, from: u64, due: Instant) {
        let t = self.transfers.next(from);
        let conn = conn_of(from, self.bufs.len());
        frame(&t, &mut self.bufs[conn]);
        self.batch.push((from as u32, t.nonce, due));
    }

    /// Writes every buffered frame and registers the batch with the
    /// confirmer.
    fn flush(&mut self) -> Result<(), String> {
        if self.batch.is_empty() {
            return Ok(());
        }
        for (c, buf) in self.bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let t = Instant::now();
            self.conns[c]
                .write_all(buf)
                .map_err(|e| format!("client write on connection {c}: {e}"))?;
            self.tracer.record("load.write", t, Instant::now(), 0, self.sent);
            buf.clear();
        }
        let at = Instant::now();
        for &(_, _, due) in &self.batch {
            if due >= self.window.0 && due < self.window.1 {
                self.lag_ms.push(ms(at.saturating_duration_since(due)));
            }
        }
        self.sent += self.batch.len() as u64;
        let txs = std::mem::take(&mut self.batch);
        self.reg_tx.send(Msg::Sent { at, txs }).map_err(|_| "confirmer stopped early".to_string())
    }

    fn tick(&mut self, now: Instant) {
        if self.start.is_none() && now >= self.window.0 {
            self.start = Some(probe(self.net));
        }
    }

    fn open_loop(&mut self, rate_tps: f64, seed: u64, load_start: Instant) -> Result<(), String> {
        let mut schedule = PoissonSchedule::new(seed, rate_tps, ACCOUNTS).peekable();
        let end = self.window.1;
        loop {
            let now = Instant::now();
            self.tick(now);
            let mut next_due = end;
            while let Some(&(offset, from)) = schedule.peek() {
                let due = load_start + offset;
                if due > now || due >= end {
                    next_due = due.min(end);
                    break;
                }
                schedule.next();
                self.add(from, due);
            }
            self.flush()?;
            if next_due >= end {
                return Ok(());
            }
            let wake = if self.start.is_none() { next_due.min(self.window.0) } else { next_due };
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// Runs one `transfer-*` phase and reports it.
pub fn run(rate_tps: f64, opts: &Opts<'_>) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(opts.epoch, opts.trace, 0);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut open_ms = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        // Only the last set-up is loaded; tear the previous one down and
        // let its threads wind down before timing the next.
        if live.take().is_some() {
            std::thread::sleep(TEARDOWN_SETTLE);
        }
        match set_up(k, opts, &mut tracer, &mut open_ms) {
            Ok((l, s)) => {
                setup_s.push(s);
                live = Some(l);
            }
            Err(e) => {
                report.problem(format!("set-up {k}: {e}"));
                return report;
            }
        }
    }
    let Live { cluster, net, mut conns, mut confirmer } = live.expect("at least one set-up");

    let (reg_tx, reg_rx) = mpsc::channel();
    let load_start = Instant::now() + Duration::from_millis(1);
    let window = (load_start + WARMUP, load_start + WARMUP + Duration::from_secs_f64(opts.seconds));
    confirmer.window = window;
    confirmer.reg_rx = Some(reg_rx);
    let deadline = window.1 + GRACE;
    let confirmer_thread = std::thread::Builder::new()
        .name("bench-confirmer".into())
        .spawn(move || confirmer.run(cluster, deadline))
        .expect("spawn the confirmer thread");

    let mut gen = Generator {
        bufs: vec![Vec::new(); conns.len()],
        conns: &mut conns,
        batch: Vec::new(),
        reg_tx,
        transfers: Transfers::new(opts.seed, ACCOUNTS),
        sent: 0,
        window,
        lag_ms: Vec::new(),
        tracer: &mut tracer,
        start: None,
        net: &net,
    };
    let generated = gen.open_loop(rate_tps, opts.seed, load_start);
    let now = Instant::now();
    if now < window.1 {
        std::thread::sleep(window.1 - now);
    }
    let start = gen.start.take();
    let end = probe(&net);
    let (sent, mut lag_ms) = (gen.sent, std::mem::take(&mut gen.lag_ms));
    let _ = gen.reg_tx.send(Msg::Done);
    drop(gen);
    let (mut confirmer, cluster) = confirmer_thread.join().expect("confirmer thread panicked");
    if let Err(e) = generated {
        report.problem(e);
    }
    let Some(start) = start else {
        report.problem("the measurement window never opened".into());
        return report;
    };

    // Correctness, outside the timed window.
    let t = Instant::now();
    let mut check = LedgerReplica::new(genesis());
    let replay = std::mem::take(&mut confirmer.replay);
    for fin in replay.unpack() {
        if fin.block.hash() != fin.hash {
            confirmer.problem(format!(
                "node {REPLAY_NODE}'s block at slot {} does not hash to its id",
                fin.slot.0
            ));
        }
        check.push(0, &fin);
    }
    tracer.record("ledger.replay", t, Instant::now(), 0, REPLAY_NODE as u64);
    if let Err(e) = check.cross_check(&confirmer.replica) {
        confirmer.problem(format!("node {REPLAY_NODE}'s stream replays to another state: {e}"));
    }
    if check.height() < confirmer.height_at_window_end {
        confirmer.problem(format!(
            "node {REPLAY_NODE} finalized {} blocks, fewer than the {} executed in the window",
            check.height(),
            confirmer.height_at_window_end
        ));
    }
    for (node, slot) in confirmer.last_slot.into_iter().enumerate() {
        if slot < confirmer.height_at_window_end {
            confirmer.problem(format!("node {node} stopped at slot {slot}"));
        }
    }
    let total = confirmer.replica.ledger().accounts().total_balance();
    if total != u128::from(ACCOUNTS) * u128::from(GENESIS_BALANCE) {
        confirmer.problem(format!("total balance {total} is not the genesis total"));
    }
    if confirmer.confirmed + confirmer.rejected + confirmer.n_outstanding != sent {
        confirmer.problem(format!(
            "{sent} sent but {} confirmed, {} rejected, {} outstanding",
            confirmer.confirmed, confirmer.rejected, confirmer.n_outstanding
        ));
    }
    let dir_bytes_per_node =
        confirmer.dirs.iter().map(|d| dir_bytes(d)).sum::<u64>() as f64 / NODES as f64;
    drop(conns);
    drop(cluster);

    report.problems.append(&mut confirmer.problems);
    report.attempted = sent;
    report.failed = confirmer.n_outstanding + confirmer.rejected;

    let wall = (end.at - start.at).as_secs_f64();
    let cpu = end.cpu_s - start.cpu_s;
    let ktx = confirmer.confirmed_in_window as f64 / 1e3;
    // Latency percentiles are medians over the window's one-second
    // intervals, so one noisy second moves them by at most one rank.
    let per_second: Vec<Summary> =
        confirmer.latency_ms.iter_mut().filter_map(|v| Summary::of(v)).collect();
    let (p50, p99) = if per_second.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        let of = |f: fn(&Summary) -> f64| median(&per_second.iter().map(f).collect::<Vec<_>>());
        (of(|s| s.p50), of(|s| s.p99))
    };
    let mut all: Vec<f64> = confirmer.latency_ms.concat();
    let latency = Summary::of(&mut all);
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("confirm_p50_ms", p50, "ms");
    report.e2e("confirm_p99_ms", p99, "ms");
    report.e2e("confirmed_tps", confirmer.confirmed_in_window as f64 / wall, "1/s");
    report.e2e("cpu_ms_per_ktx", cpu * 1e3 / ktx, "ms");
    report.e2e("peak_rss_mb", procfs::peak_rss_mb(), "MB");

    let failed_share = report.failed as f64 / sent.max(1) as f64;
    report.note("failed_share", format!("{failed_share}"));
    if let Some(s) = &latency {
        report.note("confirm_ms", s.info());
    }
    let by_second: Vec<String> =
        per_second.iter().map(|s| format!("[{:.3}, {:.3}]", s.p50, s.p99)).collect();
    report.note("confirm_p50_p99_ms_by_second", format!("[{}]", by_second.join(", ")));
    report.note("setup_s_each", format!("{setup_s:?}"));

    // Per-layer metrics, from the spans and counters of a traced run.
    if opts.trace {
        let blocks = confirmer.blocks_in_window.max(1) as f64;
        let lag = Summary::of(&mut lag_ms);
        report.layer("load.lag_p99_ms", lag.as_ref().map_or(f64::NAN, |s| s.p99), "ms");
        let (w0, w1) = (tracer.ns(window.0), tracer.ns(window.1));
        let blocked: Duration = tracer.named("load.write", w0, w1).map(|s| s.dur()).sum();
        report.layer("load.write_blocked_ms", ms(blocked), "ms");

        let (a, b) = (&start.net, &end.net);
        report.layer("net.bytes_out_per_block", (b.bytes_out - a.bytes_out) as f64 / blocks, "B");
        report.layer("net.bytes_in_per_block", (b.bytes_in - a.bytes_in) as f64 / blocks, "B");
        report.layer(
            "net.wakeups_per_block",
            (b.poll_wakeups - a.poll_wakeups) as f64 / blocks,
            "count",
        );
        report.layer("net.send_queue_hwm", b.send_queue_hwm as f64, "count");
        report.layer("net.frames_shed", (b.frames_shed - a.frames_shed) as f64, "count");
        report.layer("net.frames_resent", (b.frames_resent - a.frames_resent) as f64, "count");
        report.layer("net.reconnects", (b.reconnects - a.reconnects) as f64, "count");

        let s2f = Summary::of(&mut confirmer.sent_to_final_ms);
        report.layer(
            "multishot.sent_to_final_p50_ms",
            s2f.as_ref().map_or(f64::NAN, |s| s.p50),
            "ms",
        );
        report.layer(
            "multishot.sent_to_final_p99_ms",
            s2f.as_ref().map_or(f64::NAN, |s| s.p99),
            "ms",
        );
        report.layer("multishot.blocks_per_s", confirmer.blocks_in_window as f64 / wall, "1/s");
        report.layer("multishot.txs_per_block", confirmer.txs_in_window as f64 / blocks, "count");
        report.layer(
            "multishot.empty_block_share",
            confirmer.empty_in_window as f64 / blocks,
            "share",
        );
        let spread = Summary::of(&mut confirmer.spread_ms);
        report.layer(
            "multishot.quorum_spread_p99_ms",
            spread.as_ref().map_or(f64::NAN, |s| s.p99),
            "ms",
        );
        report.layer("multishot.stalls", confirmer.stalls as f64, "count");

        report.layer("store.open_ms", median(&open_ms), "ms");
        report.layer(
            "store.disk_bytes_per_block",
            (end.write_bytes - start.write_bytes) as f64 / blocks,
            "B",
        );
        report.layer("store.dir_bytes_per_node", dir_bytes_per_node, "B");
        let snaps = &confirmer.mempool_bytes;
        let snap = snaps.iter().sum::<f64>() / snaps.len().max(1) as f64;
        report.layer("store.mempool_snapshot_bytes", snap, "B");

        let mut pushes: Vec<f64> = confirmer
            .tracer
            .named("ledger.push", w0, w1)
            .map(|s| s.dur().as_secs_f64() * 1e6)
            .collect();
        let busy_us: f64 = pushes.iter().sum();
        let push = Summary::of(&mut pushes);
        report.layer("ledger.push_us_p50", push.as_ref().map_or(f64::NAN, |s| s.p50), "us");
        report.layer("ledger.push_us_p99", push.as_ref().map_or(f64::NAN, |s| s.p99), "us");
        report.layer("ledger.us_per_tx", busy_us / confirmer.txs_in_window.max(1) as f64, "us");
        report.layer("ledger.busy_share", busy_us / 1e6 / wall, "share");
        report.layer("ledger.rejected", confirmer.rejected as f64, "count");

        report.layer("proc.cpu_busy_share", cpu / wall / procfs::nproc() as f64, "share");

        tracer.merge(std::mem::replace(&mut confirmer.tracer, Tracer::new(opts.epoch, false, 1)));
        report.layer("trace.spans", tracer.spans().len() as f64, "count");
        report.layer("trace.confirm_p50_ms", p50, "ms");
        report.layer("trace.cpu_ms_per_ktx", cpu * 1e3 / ktx, "ms");
    }
    report.note("spans", crate::write_spans(&tracer, opts.trace, opts.name));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_stream_rebuilds_every_block() {
        let b1 = Block::new(Slot(1), BlockHash(1), vec![b"ab".to_vec(), b"c".to_vec()]);
        let b2 = Block::new(Slot(2), b1.hash(), vec![]);
        let b3 = Block::new(Slot(3), b2.hash(), vec![b"defg".to_vec()]);
        let fins: Vec<Finalized> = [b1, b2, b3]
            .into_iter()
            .map(|b| Finalized { slot: b.slot, hash: b.hash(), block: b })
            .collect();
        let mut packed = PackedStream::default();
        for fin in &fins {
            packed.push(fin);
        }
        assert_eq!(packed.unpack().collect::<Vec<_>>(), fins);
    }
}
