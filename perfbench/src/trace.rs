//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions; nothing inside the program is instrumented. Each
//! span has a name (`<layer>.<call>`), a start and end in nanoseconds
//! since the recorder was created, the id of the span that was open
//! when it started, and numeric attributes (report fields, request
//! ids). Spans are kept in memory and written out once, at exit.
//!
//! A span whose interval is known only from a report the layer returned
//! (for example the spectrum build inside an engine run) is recorded as
//! *derived*: it starts at its parent's start and lasts as long as the
//! report says.

use crate::util::{quote, JsonObj};
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    derived: bool,
    attrs: Vec<(&'static str, f64)>,
}

/// Handle of an open span; ignored when the recorder is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. When off, every call is a no-op that reads
/// no clock.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), spans: on.then(Vec::new), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let start_ns = if self.spans.is_some() { self.now_ns() } else { return SpanId(None) };
        let parent = self.stack.last().copied();
        let spans = self.spans.as_mut().expect("recorder is on");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            derived: false,
            attrs: vec![],
        });
        let id = spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans.as_mut().expect("recorder is on")[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Attach a numeric attribute to `id`.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let (Some(id), Some(spans)) = (id.0, self.spans.as_mut()) {
            spans[id].attrs.push((key, value));
        }
    }

    /// Record a derived child of `parent` lasting `secs`, as reported
    /// by the layer itself.
    pub fn derived(&mut self, parent: SpanId, name: &'static str, secs: f64) {
        let (Some(p), Some(spans)) = (parent.0, self.spans.as_mut()) else { return };
        let start_ns = spans[p].start_ns;
        let end_ns = start_ns + (secs.max(0.0) * 1e9) as u64;
        spans.push(Span { name, parent: Some(p), start_ns, end_ns, derived: true, attrs: vec![] });
    }

    /// Record a finished span from `start` to `end` as a child of
    /// `parent` (a request that was timed by the client, not opened and
    /// closed around one call).
    pub fn interval(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let Some(spans) = self.spans.as_mut() else { return };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        spans.push(Span { name, parent: parent.0, start_ns, end_ns, derived: false, attrs });
    }

    /// Distinct layer names (the part of each span name before the
    /// first dot), sorted.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self
            .spans
            .iter()
            .flatten()
            .map(|s| s.name.split('.').next().unwrap_or(s.name))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let Some(spans) = &self.spans else { return Ok(()) };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let mut attrs = JsonObj::default();
            for (k, v) in &s.attrs {
                attrs.num(k, *v);
            }
            let mut o = JsonObj::default();
            o.int("id", id as u64);
            match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o.raw("name", &quote(s.name))
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .bool("derived", s.derived)
                .raw("attrs", &attrs.render());
            writeln!(out, "{}", o.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_layers() {
        let mut t = Tracer::new(true);
        let outer = t.open("engine_mt.run");
        t.span("genio.write", || ());
        t.derived(outer, "spectrum.extract", 0.5);
        t.attr(outer, "reads", 10.0);
        t.close(outer);
        assert_eq!(t.len(), 3);
        assert_eq!(t.layers(), vec!["engine_mt", "genio", "spectrum"]);
        let spans = t.spans.as_ref().unwrap();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 500_000_000);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x.y");
        t.attr(id, "k", 1.0);
        t.close(id);
        assert_eq!(t.len(), 0);
        assert!(!t.on());
    }
}
