//! Harness-side spans: recorded around the calls the benchmark makes into
//! each layer, kept in memory, and written out when the run ends.
//!
//! Each op is a root span; the layer calls inside it are its children.
//! Self time is a span's duration minus the part of it that its children
//! cover, so a layer's self time excludes the layers it calls.

use std::time::Instant;

/// One timed interval, in seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the tracer, `None` for an op root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When disabled it records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the epoch for `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished interval; returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.record_secs(name, op, parent, self.at(start), self.at(end))
    }

    /// [`Tracer::record`] with the interval given in epoch seconds.
    pub fn record_secs(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span at the current instant; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, op: usize, parent: Option<usize>) -> Option<usize> {
        let now = self.at(Instant::now());
        self.record_secs(name, op, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.at(Instant::now());
        }
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_s\":{},\"end_s\":{}}}\n",
                    s.name,
                    s.op,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.start,
                    s.end
                )
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), in the same order as `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The smallest share of an op's wall time that its child spans cover,
/// over every op root in `spans` (1.0 when there are none).
pub fn min_root_coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.duration() > 0.0)
        .map(|(s, self_t)| 1.0 - self_t / s.duration())
        .fold(1.0, f64::min)
}

/// Mean total duration per op of the spans named `name`, seconds.
pub fn per_op_total(spans: &[Span], name: &str) -> f64 {
    let ops = spans.iter().filter(|s| s.parent.is_none()).count().max(1);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum::<f64>()
        / ops as f64
}

/// Measured cost of recording one span, seconds: the overhead a traced op
/// pays per span on top of the work it times.
pub fn span_cost() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        t.time("probe", i, None, || std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 6.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![4.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("x", 1.0, 5.0, Some(0)),
            span("y", 3.0, 7.0, Some(0)),
            // Runs past its parent's end: only the inside part counts.
            span("z", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn root_coverage_is_the_worst_op() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a", 0.0, 9.9, Some(0)),
            span("op", 10.0, 20.0, None),
            span("a", 10.0, 19.0, Some(2)),
        ];
        assert!((min_root_coverage(&spans) - 0.9).abs() < 1e-12);
        assert!((per_op_total(&spans, "a") - 9.45).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
