//! In-memory span recording at the layer boundaries the driver calls
//! through, written out as JSON when the benchmark ends.
//!
//! A span has a name (the layer), a start and end in nanoseconds since
//! the tracer's origin, the span that caused it, and the id of the
//! submitted workload it belongs to. A layer's *self time* is its spans'
//! duration minus the part their child spans cover, so nested stages are
//! never counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span within its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.plan`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; 0 while still open.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Id shared by every span of one submitted workload.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock,
/// so the untraced run pays only a branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin` (shared by every thread of one
    /// run so their spans line up).
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with the same origin and switch, for a worker
    /// thread; merge it back with [`Tracer::merge`].
    #[must_use]
    pub fn fork(&self) -> Self {
        Tracer::new(self.enabled, self.origin)
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.map(|p| p.0),
            request,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            if let Some(span) = self.spans.get_mut(i) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Seconds of self time per span name: duration minus the part of
    /// the interval the span's children cover.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some((p, parent)) = span.parent.and_then(|p| Some((p, self.spans.get(p)?))) {
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            #[allow(clippy::cast_precision_loss)] // nanosecond counts of a short run
            let seconds = span.duration_ns().saturating_sub(covered) as f64 / 1e9;
            *out.entry(span.name).or_insert(0.0) += seconds;
        }
        out
    }

    /// Total seconds covered by root spans (spans without a parent) —
    /// compared with the wall time to see how much of the blocking path
    /// the trace accounts for.
    #[must_use]
    pub fn root_seconds(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)] // nanosecond counts of a short run
        let ns = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum::<u64>() as f64;
        ns / 1e9
    }

    /// Write every span as one JSON array.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("submit", 0, 1_000, None),
            span("plan", 100, 300, Some(0)),
            span("execute", 300, 900, Some(0)),
            span("op", 400, 600, Some(2)),
        ];
        let s = t.self_seconds();
        assert!((s["submit"] - 200e-9).abs() < 1e-15);
        assert!((s["plan"] - 200e-9).abs() < 1e-15);
        assert!((s["execute"] - 400e-9).abs() < 1e-15);
        assert!((s["op"] - 200e-9).abs() < 1e-15);
        // Self times add back up to the root's duration.
        assert!((s.values().sum::<f64>() - t.root_seconds()).abs() < 1e-15);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![span("a", 100, 200, None), span("b", 150, 400, Some(0))];
        assert!((t.self_seconds()["a"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let root = t.open("submit", None, 7);
        assert_eq!(root, None);
        assert_eq!(t.scope("plan", root, 7, || 42), 42);
        t.close(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.open("submit", None, 1);
        a.scope("plan", root, 1, || ());
        a.close(root);
        let mut b = a.fork();
        let root = b.open("submit", None, 2);
        b.scope("plan", root, 2, || ());
        b.close(root);
        a.merge(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].request, 2);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
