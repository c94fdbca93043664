//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer of the program. Spans are kept in memory and summarised when the
//! run ends; nothing is timed inside the program itself.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The span that was open when this one began (its caller).
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Handle to an open span, returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an open span must be closed with Spans::end"]
pub struct SpanId(usize);

/// Inclusive and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, children included.
    pub total: Duration,
    /// Summed duration minus the part covered by child spans.
    pub self_time: Duration,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Spans::default()
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let now = Instant::now();
        assert_eq!(self.open.pop(), Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = Some(now);
    }

    /// Runs `f` inside a span named `name` (for calls that need no nested
    /// spans).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn duration(span: &Span) -> Duration {
        span.end.map_or(Duration::ZERO, |end| end - span.start)
    }

    /// Summed duration of the top-level spans: the part of the traced
    /// region the layer spans cover.
    pub fn top_level(&self) -> Duration {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Self::duration).sum()
    }

    /// Inclusive and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += Self::duration(span);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let entry = totals.entry(span.name).or_default();
            let duration = Self::duration(span);
            entry.count += 1;
            entry.total += duration;
            entry.self_time += duration.saturating_sub(child_time[index]);
        }
        totals
    }

    /// Inclusive seconds recorded under `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total.as_secs_f64())
    }

    /// A plain-text table of [`Spans::totals`], one span name per line.
    pub fn render(&self) -> String {
        let mut out = format!("{:<24} {:>8} {:>12} {:>12}\n", "span", "count", "total_s", "self_s");
        for (name, total) in self.totals() {
            out.push_str(&format!(
                "{name:<24} {:>8} {:>12.6} {:>12.6}\n",
                total.count,
                total.total.as_secs_f64(),
                total.self_time.as_secs_f64()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_top_level_excludes_nested() {
        let mut spans = Spans::new();
        let outer = spans.begin("outer");
        spans.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        spans.end(outer);
        let totals = spans.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!(inner.total >= Duration::from_millis(5));
        assert!(outer.total >= inner.total);
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert_eq!(spans.top_level(), outer.total);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut spans = Spans::new();
        let outer = spans.begin("outer");
        let _inner = spans.begin("inner");
        spans.end(outer);
    }
}
