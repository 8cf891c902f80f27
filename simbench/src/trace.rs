//! The traced run's instruments: an in-memory span recorder and a heap
//! allocation counter.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the simulator's layers; they stay in memory and are written out
//! once, when the run ends. The allocation counter is a
//! `#[global_allocator]` wrapper that the benchmark binary installs; it
//! counts only while [`count_allocs`] has switched it on, which the
//! traced run does around the spans it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (fresh, zeroed and
/// reallocations) while counting is switched on.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(&self) {
        // Relaxed: a statistic that publishes no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is an
// atomic counter update, which neither allocates nor touches the block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Switches allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (zero when no [`CountingAlloc`] is
/// installed).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `run_cluster` or `probe.switch`.
    pub name: String,
    /// Host nanoseconds since the trace began.
    pub start_ns: u64,
    /// Host nanoseconds since the trace began (equal to `start_ns`
    /// while the span is open).
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
}

/// An in-memory span recorder. A disabled trace records nothing and
/// reads no clock.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Trace {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; `None` when disabled.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let v = f(self, id);
        self.close(id);
        v
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, shifting its clock onto this trace's
    /// origin.
    pub fn adopt(&mut self, other: Trace) {
        if !self.enabled {
            return;
        }
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        for s in other.spans {
            self.spans.push(Span {
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                parent: s.parent.map(|p| p + base),
                name: s.name,
            });
        }
    }

    /// The spans as a JSON array of `{id, name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Trace::new(true);
        t.span("iter", None, |t, it| {
            t.span("run", it, |_, _| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.to_json().contains("\"name\": \"run\", \"parent\": 0"));

        let mut off = Trace::new(false);
        off.span("iter", None, |_, _| ());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn adopt_keeps_parents_and_shifts_the_clock() {
        let mut t = Trace::new(true);
        t.span("probe.engine", None, |_, _| ());
        let mut inner = Trace::new(true);
        inner.span("run", None, |t, r| t.span("run_cluster", r, |_, _| ()));
        t.adopt(inner);
        let s = t.spans();
        assert_eq!((s[1].parent, s[2].parent), (None, Some(1)));
        assert!(s[1].start_ns >= s[0].start_ns);
    }
}
