//! Internal event queue with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tetrabft_types::NodeId;

use tetrabft_engine::Time;
use tetrabft_engine::TimerId;

pub(crate) enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, generation: u64 },
}

pub(crate) struct Event<M> {
    pub at: Time,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> Event<M> {
    /// The node this event wakes.
    pub fn target(&self) -> NodeId {
        match &self.kind {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } => *node,
        }
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then the
        // first-enqueued) event pops first. Determinism depends on `seq`.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    pub fn push(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event only if it is due at `at` for `node` — how a
    /// batch extends itself without reordering the queue.
    pub fn pop_if(&mut self, at: Time, node: NodeId) -> Option<Event<M>> {
        let next = self.heap.peek()?;
        if next.at == at && next.target() == node {
            self.heap.pop()
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(Time(5), EventKind::Deliver { to: NodeId(0), from: NodeId(1), msg: "late" });
        q.push(Time(1), EventKind::Deliver { to: NodeId(0), from: NodeId(1), msg: "a" });
        q.push(Time(1), EventKind::Deliver { to: NodeId(0), from: NodeId(1), msg: "b" });
        let order: Vec<&str> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec!["a", "b", "late"]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time(9), EventKind::Timer { node: NodeId(0), id: TimerId(0), generation: 0 });
        q.push(Time(2), EventKind::Timer { node: NodeId(0), id: TimerId(1), generation: 0 });
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert_eq!(q.len(), 2);
    }
}
