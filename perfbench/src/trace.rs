//! The traced run's span log: one record per call into a layer, held in
//! memory and written out when the run ends.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into the program (cluster, store, ledger, sim); the program itself is
//! not instrumented. Each thread keeps its own [`Tracer`]; the run merges
//! them at the end. A disabled tracer records nothing, so the untraced
//! run pays one branch per call site.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: which layer boundary, when, what caused it, and the
/// transaction, slot, phase or node it concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (unique across the run's merged tracers).
    pub span: u32,
    /// Layer boundary, `layer.call`.
    pub name: &'static str,
    /// Start and end, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Id of the enclosing span on the same thread (0 = none).
    pub parent: u32,
    /// Transaction, slot, phase or node id.
    pub id: u64,
}

impl Span {
    /// Duration.
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    /// Span ids are `base + index + 1`, so ids from different threads'
    /// tracers never collide once merged.
    base: u32,
}

impl Tracer {
    /// A recorder timing from `epoch`; records only when `on`. `thread`
    /// selects a disjoint id range (up to 2^24 spans per thread).
    pub fn new(epoch: Instant, on: bool, thread: u32) -> Tracer {
        let spans = if on { Vec::with_capacity(1 << 16) } else { Vec::new() };
        Tracer { epoch, on, spans, base: thread << 24 }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span; returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let span = self.base + self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { span, name, start_ns, end_ns, parent, id });
        span
    }

    /// Reserves an id for a span whose end is not known yet (a parent);
    /// [`Tracer::close`] fills it in.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32, id: u64) -> u32 {
        self.record(name, start, start, parent, id)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: u32, end: Instant) {
        if span == 0 {
            return;
        }
        let end_ns = self.ns(end);
        let idx = (span - self.base - 1) as usize;
        self.spans[idx].end_ns = end_ns;
    }

    /// Spans of this tracer, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Absorbs another thread's spans (call after this tracer's own
    /// last [`Tracer::close`]).
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// `t` in span time: nanoseconds since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Spans named `name` that start inside `[from, to)` (epoch ns).
    pub fn named(&self, name: &'static str, from: u64, to: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name && (from..to).contains(&s.start_ns))
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}",
                s.span,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, false, 0);
        assert_eq!(t.record("x.y", t0, t0, 0, 1), 0);
        let open = t.open("x.z", t0, 0, 2);
        t.close(open, t0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_link_and_ids_stay_disjoint_across_threads() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0, true, 0);
        let mut b = Tracer::new(t0, true, 1);
        let parent = a.open("confirm.block", t0, 0, 7);
        let child = a.record("ledger.push", t0, t0 + Duration::from_micros(5), parent, 7);
        a.close(parent, t0 + Duration::from_micros(9));
        let other = b.record("load.write", t0, t0, 0, 1);
        assert_ne!(child, other);
        assert_eq!(a.spans()[1].parent, parent);
        assert_eq!(a.spans()[0].dur(), Duration::from_micros(9));
        a.merge(b);
        assert_eq!(a.named("load.write", 0, u64::MAX).count(), 1);
    }
}
