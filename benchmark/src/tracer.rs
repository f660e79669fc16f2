//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time attribution computed from them.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. The layer of a span is the part of its name before the first dot
//! (`sim.run` belongs to `sim`). Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layers a span name may belong to; anything else is the benchmark's own
/// glue and counts as unattributed.
pub const LAYERS: &[&str] =
    &["loadgen", "sim", "trace", "metrics", "orch", "core", "collect", "train"];

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy, Debug, Default)]
pub struct Open(Option<usize>);

/// Records spans when on; every call is a single branch when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), spans: RefCell::default(), stack: RefCell::default() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: stack.last().copied(),
        });
        stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost first.
    pub fn end(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        let popped = self.stack.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.stack.borrow().is_empty(), "a span is still open");
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// The layer a span name belongs to, if it names one.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next().unwrap_or(name);
    LAYERS.iter().copied().find(|&l| l == prefix)
}

/// Self time (duration minus the time covered by child spans), summed per
/// span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(*child);
    }
    out
}

/// Self time per layer, in nanoseconds.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_times(spans) {
        if let Some(layer) = layer_of(name) {
            *out.entry(layer).or_insert(0) += ns;
        }
    }
    out
}

/// Writes spans as JSON lines: name, start, end and parent index.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("trace.drain", 20, 30, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["rep"], 50);
        assert_eq!(st["sim.run"], 40);
        assert_eq!(st["trace.drain"], 10);
        let lt = layer_times(&spans);
        assert_eq!(lt["sim"], 40);
        assert!(!lt.contains_key("rep"));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim.run", || 7), 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let t = Tracer::new(true);
        t.span("rep", || t.span("core.solve", || ()));
        let spans = t.take();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
