//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans are kept in
//! memory for the whole run and written out when it ends; per-layer self
//! time is computed from them afterwards. With tracing off,
//! [`Tracer::span`] only calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The root span of one timed pass. It is not a layer: layer coverage is
/// measured against it.
pub const PASS: &str = "pass";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u32,
    /// Layer name (or [`PASS`]).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // A statistic-only counter: it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let start = self.now();
        let value = f();
        let end = self.now();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer lock: no span code panics while holding it")
            .push(Span {
                id,
                name,
                start,
                end,
                parent,
            });
        value
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock: no span code panics while holding it")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// What the spans of one pass say about where its time went.
#[derive(Debug, Clone, PartialEq)]
pub struct PassLayers {
    /// The pass's wall time, ns.
    pub wall_ns: u64,
    /// Self time per layer, ns, summed over the layer's spans in the pass
    /// (on every thread).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Number of spans per layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Share of the pass's wall time covered by at least one layer span.
    pub coverage: f64,
}

/// Splits `spans` into passes (one per [`PASS`] span) and computes each
/// pass's per-layer self times and coverage. A layer span belongs to the
/// pass whose interval contains its start; worker-thread spans have no
/// parent and are placed this way too.
#[must_use]
pub fn layers_by_pass(spans: &[Span]) -> Vec<PassLayers> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_insert(0) += s.end - s.start;
        }
    }
    spans
        .iter()
        .filter(|s| s.name == PASS)
        .map(|pass| {
            let mut out = PassLayers {
                wall_ns: pass.end - pass.start,
                self_ns: BTreeMap::new(),
                calls: BTreeMap::new(),
                coverage: 0.0,
            };
            let mut intervals = Vec::new();
            for s in spans
                .iter()
                .filter(|s| s.name != PASS && s.start >= pass.start && s.start < pass.end)
            {
                let own =
                    (s.end - s.start).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                *out.self_ns.entry(s.name).or_insert(0) += own;
                *out.calls.entry(s.name).or_insert(0) += 1;
                intervals.push((s.start, s.end.min(pass.end)));
            }
            if out.wall_ns > 0 {
                out.coverage = union_ns(&mut intervals) as f64 / out.wall_ns as f64;
            }
            out
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Renders spans as JSON lines, one object per span.
#[must_use]
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.id, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_unions_threads() {
        let spans = [
            span(0, PASS, 0, 100, None),
            span(1, "template.new", 0, 40, Some(0)),
            span(2, "builder.plan", 10, 30, Some(1)),
            // Two workers overlapping in time: coverage counts the union.
            span(3, "dse.search", 50, 80, None),
            span(4, "dse.search", 60, 90, None),
            // Outside the pass.
            span(5, "run", 200, 300, None),
        ];
        let passes = layers_by_pass(&spans);
        assert_eq!(passes.len(), 1);
        let p = &passes[0];
        assert_eq!(p.self_ns["template.new"], 20);
        assert_eq!(p.self_ns["builder.plan"], 20);
        assert_eq!(p.self_ns["dse.search"], 60);
        assert_eq!(p.calls["dse.search"], 2);
        assert!(!p.self_ns.contains_key("run"));
        assert!((p.coverage - 0.8).abs() < 1e-12, "{}", p.coverage);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("run", || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span(PASS, || t.span("run", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
