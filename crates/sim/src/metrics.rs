//! Communication and progress metrics collected during a run.

use std::collections::BTreeMap;

use tetrabft_types::{AuditClaim, Evidence, NodeId, Value};

/// Most equivocation-evidence records the recorder retains (dedup is per
/// register, so this only bounds memory against many-register attacks).
const EVIDENCE_CAP: usize = 64;

/// Most first-claim registers tracked. Spraying distinct `(view, phase)`
/// registers past this stops *tracking* new ones (existing convictions
/// stand); honest traffic never gets near it.
const CLAIMS_CAP: usize = 1 << 16;

/// Per-node communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages this node handed to the network (loopback excluded).
    pub msgs_sent: u64,
    /// Bytes this node handed to the network (loopback excluded).
    pub bytes_sent: u64,
    /// Messages delivered to this node (loopback excluded).
    pub msgs_received: u64,
    /// Bytes delivered to this node (loopback excluded).
    pub bytes_received: u64,
}

/// Aggregated metrics for a simulation run.
///
/// These feed the communication columns of Table 1 (experiments E1/E6):
/// TetraBFT and IT-HS must show O(n) bytes per node per view (O(n²) total),
/// while PBFT's certificate-carrying view change shows O(n²) per node
/// (O(n³) total).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    per_node: Vec<NodeMetrics>,
    /// Bytes and message counts bucketed by the message's
    /// [`wire_kind`](tetrabft_engine::WireSize::wire_kind) — the per-phase
    /// view the `wire_bytes` bench reports (loopback excluded).
    by_kind: BTreeMap<&'static str, KindMetrics>,
    /// Messages dropped by the link plan: sent into a lossy partition window
    /// (pre-GST loss) or lost to an edge's drop rate.
    pub msgs_dropped: u64,
    /// Total input events processed by all nodes.
    pub events_processed: u64,
    /// First value each `(node, slot, view, phase)` register claimed on the
    /// wire — the omniscient accountability ledger. Keyed on raw integers so
    /// iteration (and therefore every run) is deterministic.
    claims: BTreeMap<(u16, Option<u64>, u64, Option<u8>), Value>,
    /// Evidence for senders that claimed one register twice with different
    /// values, in detection order, deduped per register.
    evidence: Vec<Evidence>,
    /// Total conflicting claims observed (counts repeats the evidence log
    /// deduplicates away).
    equivocations: u64,
}

/// Per-message-kind communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Messages of this kind handed to the network.
    pub msgs: u64,
    /// Bytes of this kind handed to the network.
    pub bytes: u64,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            by_kind: BTreeMap::new(),
            msgs_dropped: 0,
            events_processed: 0,
            claims: BTreeMap::new(),
            evidence: Vec::new(),
            equivocations: 0,
        }
    }

    /// Audits one wire claim from `from`: remembers the first value per
    /// register, convicts on a conflicting re-claim. The transport calls
    /// this for every non-loopback send whose message has an
    /// [`audit_claim`](tetrabft_engine::WireSize::audit_claim).
    pub(crate) fn on_claim(&mut self, from: NodeId, claim: AuditClaim) {
        let key = (from.0, claim.slot.map(|s| s.0), claim.view.0, claim.phase.map(|p| p.as_u8()));
        match self.claims.get(&key) {
            None => {
                if self.claims.len() < CLAIMS_CAP {
                    self.claims.insert(key, claim.value);
                }
            }
            Some(first) if *first != claim.value => {
                self.equivocations += 1;
                let ev = Evidence {
                    node: from,
                    slot: claim.slot,
                    view: claim.view,
                    phase: claim.phase,
                    first: *first,
                    second: claim.value,
                };
                let dup = self.evidence.iter().any(|e| {
                    e.node == ev.node
                        && e.slot == ev.slot
                        && e.view == ev.view
                        && e.phase == ev.phase
                });
                if !dup && self.evidence.len() < EVIDENCE_CAP {
                    self.evidence.push(ev);
                }
            }
            Some(_) => {}
        }
    }

    /// Equivocation evidence the omniscient recorder collected, in detection
    /// order: each record names a sender that claimed one write-once
    /// register with two different values.
    pub fn evidence(&self) -> &[Evidence] {
        &self.evidence
    }

    /// Total conflicting wire claims observed (repeat offences included;
    /// [`Metrics::evidence`] dedups per register).
    pub fn equivocations(&self) -> u64 {
        self.equivocations
    }

    pub(crate) fn on_send(&mut self, from: NodeId, kind: &'static str, bytes: usize) {
        let m = &mut self.per_node[from.index()];
        m.msgs_sent += 1;
        m.bytes_sent += bytes as u64;
        let k = self.by_kind.entry(kind).or_default();
        k.msgs += 1;
        k.bytes += bytes as u64;
    }

    pub(crate) fn on_deliver(&mut self, to: NodeId, bytes: usize) {
        let m = &mut self.per_node[to.index()];
        m.msgs_received += 1;
        m.bytes_received += bytes as u64;
    }

    /// Counters for one node.
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        &self.per_node[id.index()]
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.msgs_sent).sum()
    }

    /// Total bytes sent across all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.bytes_sent).sum()
    }

    /// Largest per-node byte count — the "linear per node" claim is about
    /// this quantity.
    pub fn max_node_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.bytes_sent).max().unwrap_or(0)
    }

    /// Counters for one message kind (zero if the kind never hit the wire).
    pub fn kind(&self, kind: &str) -> KindMetrics {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// All per-kind counters, ordered by kind label.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, KindMetrics)> + '_ {
        self.by_kind.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut m = Metrics::new(3);
        m.on_send(NodeId(0), "vote-1", 10);
        m.on_send(NodeId(0), "vote-1", 5);
        m.on_send(NodeId(2), "suggest", 100);
        m.on_deliver(NodeId(1), 10);
        assert_eq!(m.node(NodeId(0)).msgs_sent, 2);
        assert_eq!(m.node(NodeId(0)).bytes_sent, 15);
        assert_eq!(m.node(NodeId(1)).msgs_received, 1);
        assert_eq!(m.total_msgs_sent(), 3);
        assert_eq!(m.total_bytes_sent(), 115);
        assert_eq!(m.max_node_bytes_sent(), 100);
        assert_eq!(m.kind("vote-1"), KindMetrics { msgs: 2, bytes: 15 });
        assert_eq!(m.kind("suggest"), KindMetrics { msgs: 1, bytes: 100 });
        assert_eq!(m.kind("proof"), KindMetrics::default());
        let kinds: Vec<_> = m.by_kind().map(|(k, v)| (k, v.bytes)).collect();
        assert_eq!(kinds, vec![("suggest", 100), ("vote-1", 15)]);
    }

    #[test]
    fn claim_audit_convicts_conflicting_senders() {
        use tetrabft_types::{Phase, View};
        let claim = |view: u64, value: u64| AuditClaim {
            slot: None,
            view: View(view),
            phase: Some(Phase::VOTE1),
            value: Value::from_u64(value),
        };
        let mut m = Metrics::new(3);
        m.on_claim(NodeId(0), claim(1, 5));
        m.on_claim(NodeId(0), claim(1, 5)); // duplicate, honest
        m.on_claim(NodeId(1), claim(1, 6)); // different node, same register
        assert!(m.evidence().is_empty());
        assert_eq!(m.equivocations(), 0);
        m.on_claim(NodeId(0), claim(1, 7)); // conflict
        m.on_claim(NodeId(0), claim(1, 8)); // repeat offence, same register
        assert_eq!(m.equivocations(), 2);
        assert_eq!(m.evidence().len(), 1, "deduped per register");
        let ev = m.evidence()[0];
        assert_eq!(ev.node, NodeId(0));
        assert_eq!((ev.first, ev.second), (Value::from_u64(5), Value::from_u64(7)));
    }
}
