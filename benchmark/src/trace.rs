//! Harness-side spans.
//!
//! A span is recorded around each call the harness makes into a layer:
//! name (`"<layer> <call>"`), start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory during the run and are
//! written to `benchmark/out/trace-<workload>.json` when it ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. Spans inside the program are a later change (ROADMAP
//! item 1); until then the time *inside* one public call is attributed by
//! the layer probe, not by spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `"<layer> <call>"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// Request (or round, or step) identifier shared by a request's spans.
    pub request: u64,
    /// Recording thread (client index).
    pub thread: u32,
}

/// A per-thread span recorder. `Tracer::off()` records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recording tracer; all tracers of a run share `epoch`.
    pub fn on(epoch: Instant, thread: u32) -> Self {
        Tracer { on: true, epoch, thread, spans: Vec::new(), stack: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { on: false, epoch: Instant::now(), thread: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            thread: self.thread,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Total duration, milliseconds.
    pub total_ms: f64,
    /// Duration minus child spans, milliseconds.
    pub self_ms: f64,
}

/// Per-name self times over the spans of one or more threads. Each
/// `threads[i]` is one tracer's output (parent indexes are local to it).
pub fn self_times(threads: &[Vec<Span>]) -> BTreeMap<&'static str, SelfTime> {
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(*covered) as f64 / 1e6;
        }
    }
    out
}

/// The layer of a span name (the text before the first space).
pub fn layer_of(name: &str) -> &str {
    name.split(' ').next().unwrap_or(name)
}

/// Self time per layer, largest first.
pub fn layer_self_times(by_name: &BTreeMap<&'static str, SelfTime>) -> Vec<(String, f64)> {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, t) in by_name {
        *layers.entry(layer_of(name)).or_default() += t.self_ms;
    }
    let mut v: Vec<(String, f64)> = layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    v
}

/// Most spans written to the trace file (the rest are counted, not listed).
const TRACE_FILE_CAP: usize = 200_000;

/// Writes the spans as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    threads: &[Vec<Span>],
) -> std::io::Result<()> {
    use std::io::Write;
    let total: usize = threads.iter().map(Vec::len).sum();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"workload\":\"{workload}\",\"spans_recorded\":{total},\"spans\":[")?;
    let mut written = 0usize;
    'outer: for spans in threads {
        for (i, s) in spans.iter().enumerate() {
            if written == TRACE_FILE_CAP {
                break 'outer;
            }
            if written > 0 {
                w.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "\n{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.thread, s.request, s.name, s.start_ns, s.end_ns
            )?;
            written += 1;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(Instant::now(), 0);
        t.span("harness outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("layer inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(4)));
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(&[spans]);
        let outer = st["harness outer"];
        let inner = st["layer inner"];
        assert!(inner.self_ms >= 4.0);
        assert!(outer.total_ms >= inner.total_ms + 2.0);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-6);
        let layers = layer_self_times(&st);
        assert_eq!(layers[0].0, "layer");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x y", 0, |_| 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
