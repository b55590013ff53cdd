//! In-memory spans and the self-time arithmetic over them.
//!
//! A span is one call into a layer: its layer name, start and end (in
//! nanoseconds from the recorder's origin), the span that caused it,
//! and the job it belongs to. Spans are only appended while a run is
//! traced and are read once the run ends.
//!
//! Self time is a span's duration minus the part of its interval that
//! its children cover. [`Spans::layer_split`] computes it per layer for
//! a whole job: every instant of the job span goes to the deepest spans
//! active at that instant (split evenly when spans of different layers
//! are equally deep), so the layer self times add up to the job's wall
//! time exactly, and parallel children that overlap each other count
//! their union once.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `interp` or `flip.solve`.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder's origin.
    pub start: u64,
    /// End, nanoseconds from the recorder's origin.
    pub end: u64,
    /// The span that caused this one (`None` for a job span).
    pub parent: Option<SpanId>,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span store with a fixed time origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    children: Vec<Vec<SpanId>>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose origin is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span given its instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: u64,
    ) -> SpanId {
        let (start, end) = (self.offset(start), self.offset(end));
        self.push(Span {
            name,
            start,
            end,
            parent,
            job,
        })
    }

    /// Opens a span now; finish it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, job)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.offset(Instant::now());
    }

    /// Appends a span given in origin-relative nanoseconds.
    pub fn push(&mut self, span: Span) -> SpanId {
        let id = self.spans.len();
        if let Some(parent) = span.parent {
            self.children[parent].push(id);
        }
        self.spans.push(span);
        self.children.push(Vec::new());
        id
    }

    /// The span with the given id.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Every recorded span, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Partitions the root span's wall time among the layers of its
    /// subtree (see the module docs). Shares are in nanoseconds and
    /// sum to the root's duration.
    pub fn layer_split(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        // (time, +1 open / -1 close, depth, layer)
        let mut events: Vec<(u64, i8, usize, &'static str)> = Vec::new();
        let mut stack = vec![(root, 0usize)];
        let (lo, hi) = (self.spans[root].start, self.spans[root].end);
        while let Some((id, depth)) = stack.pop() {
            let span = &self.spans[id];
            let (s, e) = (span.start.max(lo), span.end.min(hi));
            if e > s {
                events.push((s, 1, depth, span.name));
                events.push((e, -1, depth, span.name));
            }
            stack.extend(self.children[id].iter().map(|&c| (c, depth + 1)));
        }
        // Closes sort before opens at the same instant.
        events.sort_by_key(|&(t, delta, _, _)| (t, delta));

        let mut active: BTreeMap<usize, HashMap<&'static str, usize>> = BTreeMap::new();
        let mut split: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut last = lo;
        for (t, delta, depth, name) in events {
            if t > last {
                if let Some((_, layers)) = active.iter().next_back() {
                    let share = (t - last) as f64 / layers.len() as f64;
                    for layer in layers.keys() {
                        *split.entry(layer).or_insert(0.0) += share;
                    }
                }
                last = t;
            }
            let level = active.entry(depth).or_default();
            if delta > 0 {
                *level.entry(name).or_insert(0) += 1;
            } else {
                let count = level.get_mut(name).expect("close follows open");
                *count -= 1;
                if *count == 0 {
                    level.remove(name);
                }
                if level.is_empty() {
                    active.remove(&depth);
                }
            }
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    /// job [0,100): interp [10,20), fanout [30,90) with two parallel
    /// solves [35,70) and [40,85).
    fn nested_and_overlapping() -> Spans {
        let mut spans = Spans::new();
        let job = spans.push(span("engine", 0, 100, None));
        spans.push(span("interp", 10, 20, Some(job)));
        let fanout = spans.push(span("fanout", 30, 90, Some(job)));
        spans.push(span("solve", 35, 70, Some(fanout)));
        spans.push(span("solve", 40, 85, Some(fanout)));
        spans
    }

    #[test]
    fn layer_split_partitions_the_root() {
        let spans = nested_and_overlapping();
        let split = spans.layer_split(0);
        assert_eq!(split["engine"], 30.0);
        assert_eq!(split["interp"], 10.0);
        assert_eq!(split["fanout"], 10.0);
        assert_eq!(split["solve"], 50.0);
        assert_eq!(split.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn equally_deep_layers_share_overlap() {
        let mut spans = Spans::new();
        let job = spans.push(span("engine", 0, 40, None));
        spans.push(span("a", 0, 30, Some(job)));
        spans.push(span("b", 10, 40, Some(job)));
        let split = spans.layer_split(job);
        // [0,10) a, [10,30) a and b, [30,40) b.
        assert_eq!(split["a"], 20.0);
        assert_eq!(split["b"], 20.0);
        assert!(!split.contains_key("engine"));
        assert_eq!(split.values().sum::<f64>(), 40.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut spans = Spans::new();
        let job = spans.push(span("engine", 10, 20, None));
        spans.push(span("late", 15, 30, Some(job)));
        let split = spans.layer_split(job);
        assert_eq!(split["engine"], 5.0);
        assert_eq!(split["late"], 5.0);
    }

    #[test]
    fn back_to_back_children_leave_no_gap() {
        let mut spans = Spans::new();
        let job = spans.push(span("engine", 0, 30, None));
        spans.push(span("x", 0, 10, Some(job)));
        spans.push(span("x", 10, 20, Some(job)));
        spans.push(span("y", 20, 30, Some(job)));
        let split = spans.layer_split(job);
        assert_eq!(split["x"], 20.0);
        assert_eq!(split["y"], 10.0);
        assert_eq!(split.get("engine"), None);
    }
}
