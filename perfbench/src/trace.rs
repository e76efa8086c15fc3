//! In-memory spans around the calls into each layer, written out as
//! JSON lines when the run ends.
//!
//! A disabled tracer records nothing, so the untraced run that gives the
//! end-to-end metrics pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One clock origin for every tracer of a run, so spans from set-up,
/// the session phase and client threads line up in the span file.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded call: `name` is the layer call (`methods.query`,
/// `core.precompute`, ...), `label` narrows it (a method name, a
/// version), `parent` indexes the enclosing span, and `session` ties the
/// spans of one client session together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A span handle; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent` (or at the root with `SpanId::NONE`).
    pub fn open(
        &mut self,
        name: &'static str,
        label: &str,
        parent: SpanId,
        session: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = epoch().elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns: now,
            end_ns: now,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            session,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0].end_ns = epoch().elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a root span that belongs to no session (a set-up
    /// step) and returns its result.
    pub fn span<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, label, SpanId::NONE, None);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans (a worker thread's), re-basing
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name` with label `label` (any
    /// label when `label` is empty), in milliseconds.
    pub fn durations_ms(&self, name: &str, label: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (label.is_empty() || s.label == label))
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name, "").iter().fold(0.0, |a, b| a + b) / 1e3
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let session = s.session.map_or("null".into(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{session}}}",
                s.name, s.label, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
