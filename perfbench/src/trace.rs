//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end relative to the
//! tracer's origin, the span that caused it, and an id shared by every
//! span of one job or batch. Spans live in memory until [`Tracer::write`]
//! dumps them at the end of the run. A disabled tracer records nothing
//! and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle to an open span; pass it as the parent of nested spans.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: the span is a root.
    pub const ROOT: SpanId = SpanId(None);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` for job or batch `id` under `parent`.
    pub fn begin(&self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let start = self.origin.elapsed();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            id,
            parent: parent.0,
            start,
            end: None,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&self, span: SpanId) {
        if let Some(i) = span.0 {
            let end = self.origin.elapsed();
            self.spans.lock().expect("span list lock")[i].end = Some(end);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, id: u64, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Self time per layer in ms, where a layer is the span name up to its
    /// first `.`, and a span's self time is its duration minus the part its
    /// children cover. Root spans count under their own name as harness
    /// time. Also returns the summed root durations (the traced wall time,
    /// in thread-milliseconds).
    pub fn self_times(&self) -> (BTreeMap<String, f64>, f64) {
        let spans = self.spans.lock().expect("span list lock");
        let mut covered = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                covered[p] += end.saturating_sub(s.start);
            }
        }
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        let mut wall = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            let dur = end.saturating_sub(s.start);
            let own = dur.saturating_sub(covered[i]).as_secs_f64() * 1e3;
            let layer = if s.parent.is_none() {
                wall += dur.as_secs_f64() * 1e3;
                "harness"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *layers.entry(layer.to_string()).or_insert(0.0) += own;
        }
        (layers, wall)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or(-1.0, |e| e.as_secs_f64() * 1e6);
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{end:.1}}}",
                s.name,
                s.id,
                s.start.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}
