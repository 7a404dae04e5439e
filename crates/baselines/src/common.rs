//! Shared machinery for the baseline protocols: per-peer phase registers
//! and the view-change engine (the same constant-storage receive model the
//! TetraBFT core uses: only the latest message per peer and kind).

use tetrabft_types::{Config, NodeId, Value, View, VoteInfo};

/// Per-peer latest-vote registers for a protocol with `K` vote-like phases.
///
/// # Examples
///
/// ```
/// use tetrabft_baselines::PhaseRegisters;
/// use tetrabft_types::{Config, NodeId, Value, View};
///
/// let cfg = Config::new(4)?;
/// let mut regs: PhaseRegisters<2> = PhaseRegisters::new(&cfg);
/// regs.record(NodeId(1), 0, View(0), Value::from_u64(7));
/// assert_eq!(regs.count(0, View(0), Value::from_u64(7)), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhaseRegisters<const K: usize> {
    peers: Vec<[Option<VoteInfo>; K]>,
}

impl<const K: usize> PhaseRegisters<K> {
    /// Creates empty registers for `cfg.n()` peers.
    pub fn new(cfg: &Config) -> Self {
        PhaseRegisters { peers: vec![[None; K]; cfg.n()] }
    }

    /// Records a phase-`phase` message from `from`, keeping the newest view
    /// (first-received wins within a view, blunting equivocation).
    ///
    /// # Panics
    ///
    /// Panics if `phase >= K`.
    pub fn record(&mut self, from: NodeId, phase: usize, view: View, value: Value) {
        let slot = &mut self.peers[from.index()][phase];
        if slot.is_none_or(|held| view > held.view) {
            *slot = Some(VoteInfo::new(view, value));
        }
    }

    /// The latest phase-`phase` record from `from`.
    pub fn get(&self, from: NodeId, phase: usize) -> Option<VoteInfo> {
        self.peers[from.index()][phase]
    }

    /// Number of peers whose latest phase-`phase` record is exactly
    /// `(view, value)`.
    pub fn count(&self, phase: usize, view: View, value: Value) -> usize {
        self.peers.iter().filter(|p| p[phase] == Some(VoteInfo::new(view, value))).count()
    }

    /// Distinct values recorded for `phase` at `view`, with counts.
    pub fn tallies(&self, phase: usize, view: View) -> Vec<(Value, usize)> {
        let mut out: Vec<(Value, usize)> = Vec::new();
        for p in &self.peers {
            if let Some(v) = p[phase] {
                if v.view == view {
                    match out.iter_mut().find(|(val, _)| *val == v.value) {
                        Some((_, c)) => *c += 1,
                        None => out.push((v.value, 1)),
                    }
                }
            }
        }
        out
    }

    /// Iterator over all peers' latest phase-`phase` records.
    pub fn iter_phase(&self, phase: usize) -> impl Iterator<Item = (NodeId, VoteInfo)> + '_ {
        self.peers
            .iter()
            .enumerate()
            .filter_map(move |(i, p)| p[phase].map(|v| (NodeId(i as u16), v)))
    }
}

/// What the view-change engine wants done after new evidence arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewChangeVerdict {
    /// Nothing to do.
    Idle,
    /// Broadcast a view-change for this view (blocking-set echo rule).
    Echo(View),
    /// Enter this view (quorum rule).
    Enter(View),
}

/// The `f+1`-echo / `n−f`-enter view-change engine shared by every
/// partially-synchronous protocol in this repository (Section 3.2 of the
/// paper; identical rules appear in IT-HS and PBFT-style protocols).
#[derive(Debug, Clone)]
pub struct ViewChangeEngine {
    /// Per-peer highest view-change view received.
    highest: Vec<Option<View>>,
    /// Highest view-change this node has broadcast.
    pub sent: Option<View>,
}

impl ViewChangeEngine {
    /// Creates the engine for `cfg.n()` peers.
    pub fn new(cfg: &Config) -> Self {
        ViewChangeEngine { highest: vec![None; cfg.n()], sent: None }
    }

    /// Records a view-change message.
    pub fn record(&mut self, from: NodeId, view: View) {
        let slot = &mut self.highest[from.index()];
        if slot.is_none_or(|held| view > held) {
            *slot = Some(view);
        }
    }

    /// Number of peers whose highest request covers `view`.
    pub fn support(&self, view: View) -> usize {
        self.highest.iter().flatten().filter(|v| **v >= view).count()
    }

    /// Evaluates the enter/echo rules above `current`.
    pub fn poll(&self, cfg: &Config, current: View) -> ViewChangeVerdict {
        let mut candidates: Vec<View> =
            self.highest.iter().flatten().copied().filter(|v| *v > current).collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.reverse();
        for v in &candidates {
            if cfg.is_quorum(self.support(*v)) {
                return ViewChangeVerdict::Enter(*v);
            }
        }
        for v in &candidates {
            if cfg.is_blocking(self.support(*v)) && self.sent.is_none_or(|s| *v > s) {
                return ViewChangeVerdict::Echo(*v);
            }
        }
        ViewChangeVerdict::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(4).unwrap()
    }

    #[test]
    fn registers_keep_newest_view() {
        let mut regs: PhaseRegisters<3> = PhaseRegisters::new(&cfg());
        regs.record(NodeId(0), 1, View(1), Value::from_u64(1));
        regs.record(NodeId(0), 1, View(3), Value::from_u64(2));
        regs.record(NodeId(0), 1, View(2), Value::from_u64(3)); // stale
        assert_eq!(regs.get(NodeId(0), 1), Some(VoteInfo::new(View(3), Value::from_u64(2))));
    }

    #[test]
    fn tallies_and_counts() {
        let mut regs: PhaseRegisters<1> = PhaseRegisters::new(&cfg());
        for i in 0..3u16 {
            regs.record(NodeId(i), 0, View(0), Value::from_u64(9));
        }
        assert_eq!(regs.count(0, View(0), Value::from_u64(9)), 3);
        assert_eq!(regs.tallies(0, View(0)), vec![(Value::from_u64(9), 3)]);
        assert_eq!(regs.iter_phase(0).count(), 3);
    }

    #[test]
    fn engine_echo_then_enter() {
        let mut vc = ViewChangeEngine::new(&cfg());
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Idle);
        vc.record(NodeId(1), View(1));
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Idle);
        vc.record(NodeId(2), View(1));
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Echo(View(1)));
        vc.sent = Some(View(1));
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Idle);
        vc.record(NodeId(3), View(1));
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Enter(View(1)));
    }

    #[test]
    fn higher_requests_support_lower_views() {
        let mut vc = ViewChangeEngine::new(&cfg());
        vc.record(NodeId(0), View(5));
        vc.record(NodeId(1), View(2));
        vc.record(NodeId(2), View(2));
        assert_eq!(vc.support(View(2)), 3);
        assert_eq!(vc.poll(&cfg(), View(0)), ViewChangeVerdict::Enter(View(2)));
    }
}
