//! The metrics registry: typed, labeled counter/gauge/histogram
//! snapshots behind one schema-versioned, JSON-exportable report.
//!
//! This is a *snapshot* registry, not a live instrumented-process
//! registry: producers accumulate values into a [`Registry`] after (or
//! during) the work and export a [`MetricsReport`] — there are no
//! atomics on hot paths and nothing to register up front. Readers on
//! the other side of a file or socket reject reports from a different
//! [`METRICS_SCHEMA_VERSION`] rather than silently misreading them.

use sfence_harness::json::{FromJson, Json};

/// Version tag stamped into every serialized [`MetricsReport`]. Bump
/// on any incompatible change to the report shape or to the meaning
/// of a published metric name.
///
/// v2: histograms carry log-scale bucket counts (`buckets`) so
/// readers can recover p50/p95/p99 without the raw samples.
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Number of log-scale histogram buckets. Bucket `i` counts
/// observations `v <= bucket_bound(i)`; the last bucket is unbounded.
pub const HIST_BUCKETS: usize = 32;

/// Upper bound of bucket `i`: powers of two from 2^-10 (~1µs when the
/// unit is ms) through 2^20 (~17min in ms). The final bucket is +Inf.
pub fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= HIST_BUCKETS {
        f64::INFINITY
    } else {
        (2.0f64).powi(i as i32 - 10)
    }
}

/// Summary of a distribution: count/sum/mean, the observed range, and
/// log-scale bucket counts for approximate quantiles — no sample
/// storage, so a histogram series is fixed-size no matter how many
/// observations it absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = (0..HIST_BUCKETS)
            .find(|&i| v <= bucket_bound(i))
            .unwrap_or(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// Fold another snapshot into this one (what the registry does
    /// when the same series is observed from two sources).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`) from the bucket counts: the
    /// upper bound of the bucket holding the q-th observation, clamped
    /// to the observed `[min, max]` range so degenerate distributions
    /// report exact values and the unbounded bucket reports `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A metric's value: monotonically accumulated count, point-in-time
/// level, or distribution summary.
///
/// The histogram variant carries its fixed bucket array inline
/// (~300 bytes); registries hold at most a few hundred metrics, so
/// the size skew is cheaper than an indirection on every observe.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The stable type tag used in the JSON export.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named, labeled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    /// Label pairs, sorted by key (the registry sorts on insert so
    /// label order can never distinguish two otherwise-equal series).
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// An in-memory collection of metrics. Series identity is
/// `(name, labels)`; repeated writes to the same series accumulate
/// (counters add, gauges overwrite, histograms merge observations).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<Metric>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(&mut self, name: &str, labels: &[(&str, &str)], init: MetricValue) -> &mut Metric {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let pos = self
            .metrics
            .iter()
            .position(|m| m.name == name && m.labels == labels);
        match pos {
            Some(i) => &mut self.metrics[i],
            None => {
                self.metrics.push(Metric {
                    name: name.to_string(),
                    labels,
                    value: init,
                });
                self.metrics.last_mut().expect("just pushed")
            }
        }
    }

    /// Add `v` to a counter series (creating it at zero).
    ///
    /// Panics if the series already exists with a different type —
    /// reusing one name for a counter and a gauge is a producer bug,
    /// not a data condition.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let m = self.series(name, labels, MetricValue::Counter(0));
        match &mut m.value {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// Set a gauge series to `v` (last write wins).
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let m = self.series(name, labels, MetricValue::Gauge(0.0));
        match &mut m.value {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Record one observation into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let m = self.series(name, labels, MetricValue::Histogram(Default::default()));
        match &mut m.value {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!(
                "metric {name:?} is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Read back a counter (0 if absent); test and display helper.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.find(name, labels)
            .map(|m| match &m.value {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .unwrap_or(0)
    }

    /// Read back a gauge (`None` if absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).and_then(|m| match &m.value {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// Read back a histogram snapshot (`None` if absent).
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        self.find(name, labels).and_then(|m| match &m.value {
            MetricValue::Histogram(h) => Some(*h),
            _ => None,
        })
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// Fold every series of `other` into this registry under the
    /// usual accumulation rules (counters add, gauges overwrite,
    /// histograms merge). Lets a component keep long-lived histogram
    /// series in a side registry and splice them into each snapshot
    /// it publishes.
    pub fn absorb(&mut self, other: &Registry) {
        for m in &other.metrics {
            let labels: Vec<(&str, &str)> = m
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &m.value {
                MetricValue::Counter(c) => self.counter(&m.name, &labels, *c),
                MetricValue::Gauge(g) => self.gauge(&m.name, &labels, *g),
                MetricValue::Histogram(h) => {
                    let slot =
                        self.series(&m.name, &labels, MetricValue::Histogram(Default::default()));
                    match &mut slot.value {
                        MetricValue::Histogram(mine) => mine.merge(h),
                        other => panic!(
                            "metric {:?} is a {}, not a histogram",
                            m.name,
                            other.type_name()
                        ),
                    }
                }
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Freeze the registry into a report: metrics sorted by
    /// `(name, labels)` so serialization is deterministic regardless
    /// of insertion order.
    pub fn snapshot(&self, produced_by: &str) -> MetricsReport {
        let mut metrics = self.metrics.clone();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            produced_by: produced_by.to_string(),
            metrics,
        }
    }
}

/// A frozen, serializable set of metrics: what crosses files and
/// sockets (the dist protocol's `Status` frame carries one).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub schema_version: u64,
    /// Which component produced the report (e.g. `"coordinator"`,
    /// `"sfence-sweep"`).
    pub produced_by: String,
    pub metrics: Vec<Metric>,
}

impl MetricsReport {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", self.schema_version)
            .field("produced_by", self.produced_by.as_str())
            .field(
                "metrics",
                Json::Arr(self.metrics.iter().map(metric_to_json).collect()),
            )
    }

    /// Parse a report, rejecting any schema version other than
    /// [`METRICS_SCHEMA_VERSION`].
    pub fn from_json(json: &Json) -> Result<MetricsReport, String> {
        let version: u64 = json.req("schema_version")?;
        if version != METRICS_SCHEMA_VERSION {
            return Err(format!(
                "metrics schema_version {version} (supported: {METRICS_SCHEMA_VERSION})"
            ));
        }
        Ok(MetricsReport {
            schema_version: version,
            produced_by: json.req("produced_by")?,
            metrics: json.req("metrics")?,
        })
    }

    /// Fetch one series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// Sorted, de-duplicated values of one label key across every
    /// series — e.g. `label_values("campaign")` lists the campaigns a
    /// coordinator status frame covers, `label_values("worker")` its
    /// workers.
    pub fn label_values(&self, key: &str) -> Vec<&str> {
        let mut values: Vec<&str> = self
            .metrics
            .iter()
            .flat_map(|m| m.labels.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// A plain-text rendering, one metric per line, for CLI display.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&m.name);
            if !m.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in m.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push('=');
                    out.push_str(v);
                }
                out.push('}');
            }
            match &m.value {
                MetricValue::Counter(c) => out.push_str(&format!(" {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!(" {g:.3}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    " count={} mean={:.3} min={:.3} max={:.3} p50={:.3} p95={:.3} p99={:.3}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                    h.p50(),
                    h.p95(),
                    h.p99(),
                )),
            }
        }
        out
    }
}

fn metric_to_json(m: &Metric) -> Json {
    let mut labels = Json::obj();
    for (k, v) in &m.labels {
        labels = labels.field(k, v.as_str());
    }
    let base = Json::obj()
        .field("name", m.name.as_str())
        .field("labels", labels)
        .field("type", m.value.type_name());
    match &m.value {
        MetricValue::Counter(c) => base.field("value", *c),
        MetricValue::Gauge(g) => base.field("value", *g),
        MetricValue::Histogram(h) => base
            .field("count", h.count)
            .field("sum", h.sum)
            .field("min", h.min)
            .field("max", h.max)
            .field("buckets", h.buckets.as_slice()),
    }
}

impl FromJson<'_> for Metric {
    fn from_json(json: &Json) -> Result<Metric, String> {
        let name: String = json.req("name")?;
        let mut labels: Vec<(String, String)> = json.req("labels")?;
        labels.sort();
        let value = match json.req("type")? {
            "counter" => MetricValue::Counter(json.req("value")?),
            "gauge" => MetricValue::Gauge(json.req("value")?),
            "histogram" => {
                let raw: Vec<u64> = json.req("buckets")?;
                let buckets = raw.try_into().map_err(|raw: Vec<u64>| {
                    format!(
                        "histogram {name:?}: {} buckets (expected {HIST_BUCKETS})",
                        raw.len()
                    )
                })?;
                MetricValue::Histogram(HistogramSnapshot {
                    count: json.req("count")?,
                    sum: json.req("sum")?,
                    min: json.req("min")?,
                    max: json.req("max")?,
                    buckets,
                })
            }
            other => return Err(format!("metric {name:?}: unknown type {other:?}")),
        };
        Ok(Metric {
            name,
            labels,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_are_sorted_and_deduped() {
        let mut reg = Registry::new();
        reg.gauge("done", &[("campaign", "c2")], 1.0);
        reg.gauge("pending", &[("campaign", "c1")], 2.0);
        reg.gauge("leased", &[("campaign", "c2")], 3.0);
        reg.counter("jobs", &[("worker", "w0")], 4);
        let report = reg.snapshot("test");
        assert_eq!(report.label_values("campaign"), ["c1", "c2"]);
        assert_eq!(report.label_values("worker"), ["w0"]);
        assert!(report.label_values("nonesuch").is_empty());
    }

    #[test]
    fn counters_accumulate_and_labels_are_order_insensitive() {
        let mut reg = Registry::new();
        reg.counter("cells", &[("kind", "hit"), ("core", "0")], 2);
        reg.counter("cells", &[("core", "0"), ("kind", "hit")], 3);
        assert_eq!(reg.len(), 1);
        assert_eq!(
            reg.counter_value("cells", &[("core", "0"), ("kind", "hit")]),
            5
        );
    }

    #[test]
    fn gauges_overwrite_histograms_merge() {
        let mut reg = Registry::new();
        reg.gauge("depth", &[], 4.0);
        reg.gauge("depth", &[], 2.0);
        assert_eq!(reg.gauge_value("depth", &[]), Some(2.0));
        reg.observe("lat", &[], 1.0);
        reg.observe("lat", &[], 3.0);
        let report = reg.snapshot("test");
        match &report.get("lat", &[]).unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.mean(), 2.0);
                assert_eq!((h.min, h.max), (1.0, 3.0));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn quantiles_from_buckets_are_order_of_magnitude_right() {
        let mut h = HistogramSnapshot::default();
        // 98 fast observations around 1ms, 2 slow ones at ~1000ms.
        for _ in 0..98 {
            h.observe(1.0);
        }
        h.observe(1000.0);
        h.observe(1000.0);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), 1.0, "median lands in the 1ms bucket");
        assert_eq!(h.p95(), 1.0);
        // p99 must land in the slow tail: bucket bound above 1000
        // clamped to the observed max.
        assert_eq!(h.p99(), 1000.0);
        // Degenerate distribution reports exact values at every q.
        let mut flat = HistogramSnapshot::default();
        for _ in 0..10 {
            flat.observe(3.5);
        }
        assert_eq!((flat.p50(), flat.p99()), (3.5, 3.5));
        assert_eq!(HistogramSnapshot::default().p50(), 0.0);
    }

    #[test]
    fn histogram_merge_accumulates_buckets() {
        let mut a = HistogramSnapshot::default();
        a.observe(1.0);
        a.observe(2.0);
        let mut b = HistogramSnapshot::default();
        b.observe(64.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!((a.min, a.max), (1.0, 64.0));
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
        // Merging into an empty snapshot copies, not zero-min.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&b);
        assert_eq!((empty.min, empty.max), (64.0, 64.0));
    }

    #[test]
    fn absorb_folds_a_side_registry_in() {
        let mut live = Registry::new();
        live.observe("lease_ms", &[("campaign", "c1")], 2.0);
        live.counter("frames", &[], 7);
        let mut report = Registry::new();
        report.counter("frames", &[], 1);
        report.gauge("up", &[], 1.0);
        report.absorb(&live);
        assert_eq!(report.counter_value("frames", &[]), 8);
        let snap = report.snapshot("t");
        match &snap.get("lease_ms", &[("campaign", "c1")]).unwrap().value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = Registry::new();
        reg.gauge("x", &[], 1.0);
        reg.counter("x", &[], 1);
    }

    #[test]
    fn snapshot_is_sorted_and_insertion_order_invisible() {
        let mut a = Registry::new();
        a.counter("zz", &[], 1);
        a.gauge("aa", &[("w", "1")], 2.0);
        let mut b = Registry::new();
        b.gauge("aa", &[("w", "1")], 2.0);
        b.counter("zz", &[], 1);
        assert_eq!(
            a.snapshot("p").to_json().to_string_compact(),
            b.snapshot("p").to_json().to_string_compact()
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut reg = Registry::new();
        reg.counter("cells_done", &[("worker", "w1")], 42);
        reg.gauge("cells_per_sec", &[], 1234.5);
        reg.observe("cell_ms", &[], 0.25);
        reg.observe("cell_ms", &[], 4.0);
        let report = reg.snapshot("unit-test");
        let text = report.to_json().to_string_compact();
        let back = MetricsReport::from_json(&sfence_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let report = Registry::new().snapshot("x");
        let mut json = report.to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::UInt(METRICS_SCHEMA_VERSION + 1);
                }
            }
        }
        let err = MetricsReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
