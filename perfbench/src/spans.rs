//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name whose first dot-separated word is its layer
//! (`harness.exp.e01`, `core.run_trace.fdip.server`), a start and end
//! relative to the run's epoch, the span that caused it and the run id.
//! Spans are kept in memory and written out once, when the run ends. A
//! disabled tracer records nothing and reads no clock, so the end-to-end
//! runs pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no span" (a root, or tracing off).
pub type SpanId = u64;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one run.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: impl Into<String>, parent: SpanId) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name: String::new(),
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes one JSON line per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
}

impl Guard<'_> {
    /// The id children pass as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval that its children cover (children on several
/// threads may overlap; their union is subtracted once).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *by_layer.entry(s.layer().to_string()).or_default() += s.duration_ns() - covered;
    }
    by_layer
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.pass", 0, 100),
            span(2, 1, "serve.run_cold", 10, 40),
            span(3, 1, "serve.run_cold", 30, 60),
            span(4, 1, "harness.exp.e01", 90, 120),
        ];
        let by_layer = self_time_by_layer(&spans);
        // Children cover [10, 60) and [90, 100): 60 of 100 ns.
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["serve"], 60);
        assert_eq!(by_layer["harness"], 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, 1);
        {
            let outer = tracer.span("bench.pass", 0);
            let _inner = tracer.span("core.run_trace", outer.id());
        }
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true, 1);
        {
            let outer = tracer.span("bench.pass", 0);
            let _inner = tracer.span("core.run_trace", outer.id());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
