//! In-memory span recording and the statistics the report is built
//! from: self time, medians, the tail-percentile rule, metric-name
//! validation and digest-mismatch accounting.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; nothing inside the program is instrumented. A
//! disabled [`Tracer`] records nothing, so the untraced runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call: `[start, end)` in nanoseconds since the tracer's
/// epoch, the span that caused it, and the cell it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            cell,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans.lock().expect("span log poisoned")[id].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children that ran in
/// parallel are counted once, by the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` of a sorted sample.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// The percentiles a tail figure may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// At least this many samples must lie beyond a reported tail
/// percentile, so the figure is not one or two outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it (ranked after it), as `(percentile, value)`;
/// `None` when the sample is too small for any.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&pct| {
        if v.is_empty() {
            return None;
        }
        let (rank, value) = nearest_rank(&v, pct);
        (v.len() - rank >= TAIL_MIN_BEYOND).then_some((pct, value))
    })
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit
/// and have at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Per-cell failure flags from digests: a cell fails when it produced
/// no output, when its digest differs from the pinned one, or when no
/// digest is pinned for it. A mismatch fails that cell only; the run
/// goes on.
pub fn cell_failures(pinned: &[String], actual: &[Option<String>]) -> Vec<bool> {
    actual
        .iter()
        .enumerate()
        .map(|(i, a)| match (a, pinned.get(i)) {
            (Some(a), Some(p)) => a != p,
            _ => true,
        })
        .collect()
}

/// Per-span-name aggregate over one traced run.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub calls: usize,
    pub self_ns: u64,
    /// Per-call durations in microseconds.
    pub durations_us: Vec<f64>,
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let st = out.entry(s.name).or_default();
        st.calls += 1;
        st.self_ns += self_ns;
        st.durations_us.push(s.dur() as f64 / 1000.0);
    }
    out
}

/// The spans as JSON lines, for writing out once the run ends.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}\n",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.cell)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with two overlapping children [10,40) and
        // [30,60) (parallel threads) and a grandchild [15,25) under the
        // first child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 10 samples: not even the median has 10 beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 20 samples: the median (rank 10) has exactly 10 beyond.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond, p99.9 only 1.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 990.0)));
        // Order of the input does not matter.
        let mut rev = many.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some((99.0, 990.0)));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "cells_per_s",
            "sim.run.us_p50",
            "dist.lease_grant_ms_p99",
            "9x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "a/b",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_mismatch_counts_one_failed_cell_each() {
        let pinned: Vec<String> = ["aa", "bb", "cc"].iter().map(|s| s.to_string()).collect();
        let same: Vec<Option<String>> = pinned.iter().cloned().map(Some).collect();
        assert_eq!(cell_failures(&pinned, &same), vec![false; 3]);
        let mut one_off = same.clone();
        one_off[1] = Some("zz".into());
        assert_eq!(cell_failures(&pinned, &one_off), vec![false, true, false]);
        // A cell that produced no report fails, and so does a cell
        // with nothing pinned for it.
        let mut missing = same.clone();
        missing[2] = None;
        assert_eq!(cell_failures(&pinned, &missing), vec![false, false, true]);
        assert_eq!(cell_failures(&pinned[..2], &same), vec![false, false, true]);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", None, None, || 7), 7);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let root = t.open("root", None, None);
        t.time("leaf", root, Some(3), || ());
        t.close(root);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].end >= spans[1].end);
    }
}
