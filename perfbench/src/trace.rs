//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public function. Spans nest on the thread that opened them,
//! so a span's self time is its duration minus its direct children's
//! durations. Nothing inside the program under test is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `core.solve`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request (or scenario) id the span works for.
    pub rid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread recorder. When off, [`Tracer::span`] only runs its body.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `rid`.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call in µs (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// Self time per span name over every thread's spans.
pub fn self_times(threads: &[Vec<Span>]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += s.dur_ns().saturating_sub(c);
        }
    }
    out
}

/// Spans that only group a request's or a scenario's layer calls.
pub const GROUPING: &[&str] = &["request", "shadow"];

/// Share of the measured window that layer spans account for: the self
/// time of every span except the [`GROUPING`] ones, over `window_ns`
/// (every thread's window added up). Time spent outside any span, or in
/// a grouping span between its children, is unattributed.
pub fn coverage(times: &BTreeMap<&'static str, LayerTime>, window_ns: u64) -> f64 {
    let covered: u64 = times
        .iter()
        .filter(|(name, _)| !GROUPING.contains(name))
        .map(|(_, t)| t.self_ns)
        .sum();
    if window_ns == 0 {
        0.0
    } else {
        covered as f64 / window_ns as f64
    }
}

/// Measured cost of recording one span, in ns: times a batch of empty
/// spans on a fresh recorder.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let started = Instant::now();
    for i in 0..N {
        t.span("calibrate", i, |_| ());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"thread\":{thread},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rid\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.rid
            )?;
        }
    }
    w.flush()
}
