//! Sample statistics and in-memory spans.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it, with the sample count. Spans are kept
//! in memory for the whole run and written out once at the end; a span's
//! self time is its duration minus the part of it its children cover.

use std::time::Instant;

/// Percentiles the tail rule chooses from, in tenths of a percent, highest
/// first (integers keep the rank arithmetic exact).
const TAIL_CANDIDATES: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between closest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// How many of `n` samples lie strictly beyond the percentile given in
/// tenths of a percent (`900` is p90).
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    let at_or_below = (permille * n).div_ceil(1000);
    n.saturating_sub(at_or_below)
}

/// The highest candidate percentile of `n` samples with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&permille| samples_beyond(n, permille) >= TAIL_MIN_BEYOND)
        .map(|permille| permille as f64 / 10.0)
}

/// A timing summary: median, the tail percentile the rule allows, and the
/// sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// `(percentile, value)` of the reportable tail, if any.
    pub tail: Option<(f64, f64)>,
    /// Samples summarised.
    pub samples: usize,
}

/// Summarises `values`; `None` for an empty slice.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let median = median(values)?;
    let tail = tail_percentile(values.len())
        .map(|pct| (pct, quantile(values, pct / 100.0).expect("values are non-empty")));
    Some(Summary { median, tail, samples: values.len() })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        match self.tail {
            Some((pct, value)) => write!(f, ", p{pct} {value:.6}")?,
            None => write!(f, ", no tail (fewer than {} beyond any)", TAIL_MIN_BEYOND)?,
        }
        write!(f, ", n={}", self.samples)
    }
}

/// One recorded span: a named interval with an optional parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name of the layer call or phase.
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin (equal to start while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e9
    }

    /// Runs `work` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let value = work();
        self.close(id);
        value
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` (half-open `[start, end)` pairs)
/// clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let start = s.max(reach);
        if e > start {
            total += e - start;
            reach = e;
        }
    }
    total
}

/// Self time of span `id`: its duration minus the part its direct children
/// cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let children: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start_ns, s.end_ns)).collect();
    span.duration_ns() - covered_ns(&children, span.start_ns, span.end_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(11.0));
        assert_eq!(quantile(&values, 0.9), Some(10.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(samples_beyond(99, 900), 9);
        assert_eq!(samples_beyond(10_000, 999), 10);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_allowed_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = summarize(&values).unwrap();
        assert_eq!(summary.median, 50.5);
        assert_eq!(summary.samples, 100);
        let (pct, value) = summary.tail.unwrap();
        assert_eq!(pct, 90.0);
        assert!((value - 90.1).abs() < 1e-9);
        assert_eq!(summarize(&[1.0; 5]).unwrap().tail, None);
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),  // overlaps `a`: union 10..50
            span("c", Some(0), 90, 120), // clipped to the parent: 90..100
            span("grandchild", Some(1), 12, 14), // not a direct child of root
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 2);
        assert_eq!(self_time_ns(&spans, 4), 2);
    }

    #[test]
    fn covered_handles_nesting_and_gaps() {
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(covered_ns(&[(0, 10), (2, 3)], 0, 10), 10);
        assert_eq!(covered_ns(&[(5, 6), (1, 2)], 0, 10), 2);
    }

    #[test]
    fn span_log_nests_and_totals() {
        let mut log = SpanLog::default();
        let outer = log.open("outer", None);
        log.time("inner", Some(outer), || std::hint::black_box(1 + 1));
        log.close(outer);
        assert_eq!(log.spans().len(), 2);
        assert!(log.spans()[0].duration_ns() >= log.spans()[1].duration_ns());
        assert!(self_time_ns(log.spans(), outer) <= log.spans()[0].duration_ns());
    }
}
