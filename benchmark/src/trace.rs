//! In-memory span recorder for the traced pass.
//!
//! The traced pass is single-threaded, so nesting is a stack. A span's
//! parent is the span that *caused* it: a call made inside another span
//! nests in time, while a shadow call — the same input given to one
//! layer's own entry point right after the real call — is recorded as a
//! child of the real call by id ([`Tracer::shadow`]) although it runs
//! after it. Either way a parent's self time is its duration minus its
//! children's ([`Tracer::self_times_ns`]).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `wal.commit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; [`Tracer::write_jsonl`] writes them out once
/// the measured work is over.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u64,
}

impl Tracer {
    /// An empty tracer for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Number of operations started so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (SpanId, R) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let result = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        (id, result)
    }

    /// Times `f` as a span nested in whichever span is open; `f` may open
    /// further spans through the tracer it is handed.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (SpanId, R) {
        let parent = self.open.last().copied();
        self.record(name, parent, f)
    }

    /// Times a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f()).1
    }

    /// Times a shadow call: `f` runs now, but is accounted as a child of
    /// the already finished span `of`.
    pub fn shadow<R>(
        &mut self,
        of: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        self.record(name, Some(of), |_| f())
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64)
            .collect()
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Every span's self time: its duration minus its direct children's,
    /// floored at zero (shadow children run on a warmer cache than the call
    /// they mirror, but nothing guarantees they sum to less).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Self times of every span called `name`, in nanoseconds.
    pub fn self_durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(span, _)| span.name == name)
            .map(|(_, self_ns)| self_ns as f64)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, self.workload, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer over hand-written spans, so the arithmetic is exact.
    fn synthetic(spans: Vec<Span>) -> Tracer {
        let mut tracer = Tracer::new("synthetic");
        tracer.spans = spans;
        tracer
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let tracer = synthetic(vec![
            span("serve.ingest", 0, 100, None),
            span("store.record_batch", 120, 150, Some(0)), // shadow: runs after
            span("wal.commit", 150, 190, Some(0)),
            span("wal.fsync", 160, 180, Some(2)), // grandchild: not subtracted twice
            span("serve.ingest", 200, 210, None),
        ]);
        assert_eq!(
            tracer.self_times_ns(),
            vec![100 - 30 - 40, 30, 40 - 20, 20, 10]
        );
        assert_eq!(tracer.self_durations_ns("serve.ingest"), vec![30.0, 10.0]);
        assert_eq!(tracer.total_ns("serve.ingest"), 110.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let tracer = synthetic(vec![
            span("serve.ingest", 0, 10, None),
            span("store.record_batch", 20, 40, Some(0)),
        ]);
        assert_eq!(tracer.self_times_ns()[0], 0);
    }

    #[test]
    fn nesting_and_shadowing_set_the_parent() {
        let mut tracer = Tracer::new("nesting");
        tracer.next_op();
        let (outer, inner) = tracer.span("core.analyze", |t| t.span("core.prepare", |_| ()).0);
        tracer.shadow(inner, "timeseries.resample", || ());
        tracer.leaf("exec.par_map", || ());
        let spans = tracer.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(inner));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(spans[outer].end_ns >= spans[inner].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let tracer = synthetic(vec![span("a.b", 1, 2, None), span("c.d", 3, 5, Some(0))]);
        let path =
            std::env::temp_dir().join(format!("sieve-trace-test-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"c.d\",\"start_ns\":3,\"end_ns\":5,\"parent\":0,\"workload\":\"synthetic\",\"op\":1}"
        );
    }
}
