//! In-memory spans recorded by the benchmark around its calls into each
//! crate, and the wall-clock attribution of a traced run to layers.
//!
//! A span is named `<layer>.<what>`. Spans are kept in memory until the run
//! ends. A span's self time is its interval minus the union of its
//! children's intervals; where self intervals of spans on different threads
//! overlap, each instant is shared equally between them, so the per-layer
//! self times add up to the wall time the root span covers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder. A disabled tracer runs the closures and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Run `f` inside a span whose parent is this thread's innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Run `f` inside a span with an explicit parent, for work handed to
    /// another thread.
    pub fn span_under<R>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.lock().expect("no span panicked holding the log");
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end = self.now_ns();
        self.spans.lock().expect("no span panicked holding the log")[id].end_ns = end;
        out
    }

    /// Add `n` to a deterministic work counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("no counter update panicked")
                .entry(name)
                .or_default() += n;
        }
    }

    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.counters
            .lock()
            .expect("no counter update panicked")
            .clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span panicked holding the log")
            .clone()
    }
}

/// Summed duration of every span with this exact name, in seconds.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Durations of every span with this exact name, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Wall time attributed to each layer. Self intervals are split equally
/// between the spans running at the same instant, so the values add up to
/// the union of all span intervals.
pub fn attribute_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    // Self segments: each span's interval minus its children's union.
    let mut segments: Vec<(u64, u64, &'static str)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        covered.sort_unstable();
        let mut cursor = s.start_ns;
        for (a, b) in covered {
            if a > cursor {
                segments.push((cursor, a.min(s.end_ns), s.layer()));
            }
            cursor = cursor.max(b);
        }
        if s.end_ns > cursor {
            segments.push((cursor, s.end_ns, s.layer()));
        }
    }
    // Sweep: between consecutive boundaries, share the interval equally
    // between the segments covering it.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(segments.len() * 2);
    for (k, &(a, b, _)) in segments.iter().enumerate() {
        if b > a {
            events.push((a, true, k));
            events.push((b, false, k));
        }
    }
    events.sort_unstable_by_key(|&(t, open, _)| (t, open));
    let mut active: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut open = 0usize;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, opening, k) in events {
        if t > last && open > 0 {
            let dt = (t - last) as f64 * 1e-9 / open as f64;
            for (&layer, &n) in &active {
                *out.entry(layer).or_default() += dt * n as f64;
            }
        }
        last = t;
        let layer = segments[k].2;
        if opening {
            *active.entry(layer).or_default() += 1;
            open += 1;
        } else {
            let n = active.get_mut(layer).expect("closing an open segment");
            *n -= 1;
            if *n == 0 {
                active.remove(layer);
            }
            open -= 1;
        }
    }
    out
}
