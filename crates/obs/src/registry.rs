//! The concrete metric collector: [`MetricsRegistry`].
//!
//! Three metric kinds, all over `u64` and all with order-independent
//! merge semantics, so per-worker and per-shard registries combine into
//! the same bytes regardless of how the work was split or in which
//! order the pieces arrive:
//!
//! * **counter** — merge by addition;
//! * **gauge** — a high-water mark, merge by maximum;
//! * **histogram** — fixed log₂-scale buckets plus count/sum/min/max,
//!   merge by element-wise addition (min/max by min/max).
//!
//! Addition and max are associative and commutative, which is the whole
//! contract (property-tested in `tests/registry.rs`). Keys are sorted
//! (`BTreeMap`), so every rendering is canonical.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::jsonl::JsonlSink;
use crate::recorder::Recorder;

/// Number of histogram buckets: bucket 0 holds zero values, bucket
/// `i ≥ 1` holds values with `floor(log2(v)) == i - 1` (i.e. `v` in
/// `[2^(i-1), 2^i)`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A fixed-bucket log₂-scale histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Element-wise merge with `other` (addition; min/max by min/max).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter (merge: add).
    Counter(u64),
    /// High-water mark (merge: max).
    Gauge(u64),
    /// Log₂-bucket histogram (merge: element-wise add). Boxed: the
    /// fixed bucket array makes it much larger than the other variants.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Determinism class of a metric key (by naming convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Pure function of seeds and inputs: byte-identical across
    /// `--threads`, re-sharding and resume.
    Deterministic,
    /// Depends on how work was divided among workers (scratch reuse,
    /// pool recycling); stable for a fixed execution plan only.
    Scheduling,
    /// Wall-clock timing; never compared across runs.
    Timing,
}

/// Classifies a key: `time.` → [`MetricClass::Timing`], `sched.` →
/// [`MetricClass::Scheduling`], anything else →
/// [`MetricClass::Deterministic`].
pub fn class_of(key: &str) -> MetricClass {
    if key.starts_with("time.") {
        MetricClass::Timing
    } else if key.starts_with("sched.") {
        MetricClass::Scheduling
    } else {
        MetricClass::Deterministic
    }
}

/// An error reading serialized metrics back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError {
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obs error: {}", self.msg)
    }
}

impl std::error::Error for ObsError {}

fn obs_err(msg: impl Into<String>) -> ObsError {
    ObsError { msg: msg.into() }
}

/// The concrete [`Recorder`]: a sorted map from key to metric.
///
/// A key's kind is fixed by its first write; subsequent writes of a
/// different kind are ignored rather than panicking (instrumentation
/// must never abort science runs — `debug_assert`s catch kind clashes
/// in tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates `(key, value)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Current counter value (0 when absent or a different kind).
    pub fn counter(&self, key: &str) -> u64 {
        match self.metrics.get(key) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Current gauge value (0 when absent or a different kind).
    pub fn gauge(&self, key: &str) -> u64 {
        match self.metrics.get(key) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram under `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.metrics.get(key) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Merges `h` into the histogram under `key`, as if each of its
    /// observations had been made there: a caller that observes many
    /// values under one key folds them locally and writes the key once.
    pub fn merge_histogram(&mut self, key: &str, h: &Histogram) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Histogram(mine)) => mine.merge(h),
            Some(other) => {
                debug_assert!(false, "`{key}` is a {}, not a histogram", other.kind());
            }
            None => {
                self.metrics
                    .insert(key.to_string(), MetricValue::Histogram(Box::new(h.clone())));
            }
        }
    }

    /// Merges `other` into `self`. Associative and commutative: any
    /// grouping and order of merges over the same underlying events
    /// yields the same registry, which is what makes per-shard metrics
    /// re-shard-invariant.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.metrics {
            match self.metrics.get_mut(k) {
                None => {
                    self.metrics.insert(k.clone(), v.clone());
                }
                Some(mine) => match (mine, v) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, v) => {
                        debug_assert!(
                            false,
                            "metric kind clash on `{k}`: {} vs {}",
                            mine.kind(),
                            v.kind()
                        );
                    }
                },
            }
        }
    }

    /// A copy holding only [`MetricClass::Deterministic`] keys — the
    /// view CI compares byte-for-byte across `--threads`, re-sharding
    /// and resume.
    pub fn deterministic_only(&self) -> MetricsRegistry {
        MetricsRegistry {
            metrics: self
                .metrics
                .iter()
                .filter(|(k, _)| class_of(k) == MetricClass::Deterministic)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Canonical JSON document: keys sorted, fields in fixed order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            json::write_str(&mut s, k);
            s.push_str(": ");
            write_value_json(&mut s, v);
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Appends one JSONL line per metric to `sink` (sorted key order,
    /// fixed field order) — the per-shard `metrics-<k>.jsonl` format.
    pub fn write_jsonl(&self, sink: &mut JsonlSink) {
        for (k, v) in &self.metrics {
            let mut ev = sink.event(v.kind()).str("key", k);
            match v {
                MetricValue::Counter(c) | MetricValue::Gauge(c) => {
                    ev = ev.num("value", *c);
                }
                MetricValue::Histogram(h) => {
                    ev = ev
                        .num("count", h.count)
                        .num("sum", h.sum)
                        .num("min", if h.count > 0 { h.min } else { 0 })
                        .num("max", h.max)
                        .pairs("buckets", &h.nonzero_buckets());
                }
            }
            ev.finish();
        }
    }

    /// Parses JSONL text (as produced by
    /// [`write_jsonl`](MetricsRegistry::write_jsonl)) and merges every
    /// metric line into `self`. Lines whose `type` is not a metric kind
    /// (e.g. `cell` events sharing the file) are skipped. Returns the
    /// number of metric lines merged.
    pub fn merge_jsonl(&mut self, text: &str) -> Result<usize, ObsError> {
        let mut merged = 0usize;
        let mut incoming = MetricsRegistry::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| obs_err(format!("line {}: {e}", lineno + 1)))?;
            let ty = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                continue;
            }
            let key = v
                .get("key")
                .and_then(|k| k.as_str())
                .ok_or_else(|| obs_err(format!("line {}: metric without key", lineno + 1)))?;
            let parsed = parse_metric(ty, &v)
                .map_err(|e| obs_err(format!("line {} ({key}): {}", lineno + 1, e.msg)))?;
            incoming.metrics.insert(key.to_string(), parsed);
            merged += 1;
        }
        self.merge(&incoming);
        Ok(merged)
    }
}

fn parse_metric(ty: &str, v: &JsonValue) -> Result<MetricValue, ObsError> {
    let num = |field: &str| -> Result<u64, ObsError> {
        v.get(field)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| obs_err(format!("missing numeric field `{field}`")))
    };
    match ty {
        "counter" => Ok(MetricValue::Counter(num("value")?)),
        "gauge" => Ok(MetricValue::Gauge(num("value")?)),
        _ => {
            let count = num("count")?;
            let mut h = Histogram {
                count,
                sum: num("sum")?,
                min: if count > 0 { num("min")? } else { u64::MAX },
                max: num("max")?,
                buckets: [0; HISTOGRAM_BUCKETS],
            };
            let buckets = v
                .get("buckets")
                .and_then(|b| b.as_arr())
                .ok_or_else(|| obs_err("missing `buckets` array"))?;
            for pair in buckets {
                let pair = pair.as_arr().unwrap_or(&[]);
                let (idx, cnt) = match (
                    pair.first().and_then(|p| p.as_u64()),
                    pair.get(1).and_then(|p| p.as_u64()),
                ) {
                    (Some(i), Some(c)) => (i as usize, c),
                    _ => return Err(obs_err("malformed bucket pair")),
                };
                if idx >= HISTOGRAM_BUCKETS {
                    return Err(obs_err(format!("bucket index {idx} out of range")));
                }
                h.buckets[idx] = cnt;
            }
            Ok(MetricValue::Histogram(Box::new(h)))
        }
    }
}

fn write_value_json(s: &mut String, v: &MetricValue) {
    use std::fmt::Write as _;
    match v {
        MetricValue::Counter(c) => {
            let _ = write!(s, "{{\"type\": \"counter\", \"value\": {c}}}");
        }
        MetricValue::Gauge(g) => {
            let _ = write!(s, "{{\"type\": \"gauge\", \"value\": {g}}}");
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                s,
                "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count,
                h.sum,
                if h.count > 0 { h.min } else { 0 },
                h.max
            );
            for (i, (idx, cnt)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{idx}, {cnt}]");
            }
            s.push_str("]}");
        }
    }
}

impl Recorder for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&mut self, key: &str, delta: u64) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Counter(v)) => *v += delta,
            Some(other) => {
                debug_assert!(false, "`{key}` is a {}, not a counter", other.kind());
            }
            None => {
                self.metrics
                    .insert(key.to_string(), MetricValue::Counter(delta));
            }
        }
    }

    fn hwm(&mut self, key: &str, value: u64) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Gauge(v)) => *v = (*v).max(value),
            Some(other) => {
                debug_assert!(false, "`{key}` is a {}, not a gauge", other.kind());
            }
            None => {
                self.metrics
                    .insert(key.to_string(), MetricValue::Gauge(value));
            }
        }
    }

    fn observe(&mut self, key: &str, value: u64) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Histogram(h)) => h.observe(value),
            Some(other) => {
                debug_assert!(false, "`{key}` is a {}, not a histogram", other.kind());
            }
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.metrics
                    .insert(key.to_string(), MetricValue::Histogram(Box::new(h)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn kinds_and_getters() {
        let mut r = MetricsRegistry::new();
        r.add("c", 2);
        r.add("c", 3);
        r.hwm("g", 7);
        r.hwm("g", 4);
        r.observe("h", 0);
        r.observe("h", 9);
        assert_eq!(r.counter("c"), 5);
        assert_eq!(r.gauge("g"), 7);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (4, 1)]);
        assert_eq!(r.counter("missing"), 0);
        assert!(r.histogram("c").is_none());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        a.add("n", 1);
        a.hwm("g", 5);
        a.observe("h", 3);
        let mut b = MetricsRegistry::new();
        b.add("n", 2);
        b.hwm("g", 9);
        b.observe("h", 100);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("n"), 3);
        assert_eq!(ab.gauge("g"), 9);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn merged_histograms_equal_their_observations() {
        let values = [0, 7, 7, u64::MAX, 1 << 20, 3];
        let mut observed = MetricsRegistry::new();
        let mut merged = MetricsRegistry::new();
        for half in values.chunks(3) {
            let mut h = Histogram::default();
            for &v in half {
                h.observe(v);
                observed.observe("h", v);
            }
            merged.merge_histogram("h", &h);
        }
        assert_eq!(merged, observed);
        assert_eq!(merged.to_json(), observed.to_json());
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.add("sim.events", 12);
        r.hwm("sim.heap_high_water", 40);
        r.observe("cell.events", 7);
        r.observe("cell.events", 0);
        let mut sink = JsonlSink::new();
        r.write_jsonl(&mut sink);
        let mut back = MetricsRegistry::new();
        let n = back.merge_jsonl(sink.as_str()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(back, r);
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn merge_jsonl_skips_foreign_events() {
        let mut r = MetricsRegistry::new();
        let text = "{\"type\": \"cell\", \"instance\": \"x\", \"wall_ns\": 5}\n\
                    {\"type\": \"counter\", \"key\": \"a\", \"value\": 4}\n";
        assert_eq!(r.merge_jsonl(text).unwrap(), 1);
        assert_eq!(r.counter("a"), 4);
        assert!(r.merge_jsonl("not json").is_err());
        let deep = format!("{}\n", "[".repeat(100_000));
        assert!(r.merge_jsonl(&deep).is_err());
        assert_eq!(
            r.counter("a"),
            4,
            "a failed merge leaves the registry as it was"
        );
    }

    #[test]
    fn classes_and_filter() {
        assert_eq!(class_of("time.cell_ns"), MetricClass::Timing);
        assert_eq!(class_of("sched.pool.hits"), MetricClass::Scheduling);
        assert_eq!(class_of("sim.events"), MetricClass::Deterministic);
        let mut r = MetricsRegistry::new();
        r.add("sim.events", 1);
        r.add("time.total_ns", 999);
        r.add("sched.pool.hits", 3);
        let det = r.deterministic_only();
        assert_eq!(det.len(), 1);
        assert_eq!(det.counter("sim.events"), 1);
    }

    #[test]
    fn json_document_is_stable() {
        let mut r = MetricsRegistry::new();
        r.observe("h", 3);
        r.add("a", 1);
        let j1 = r.to_json();
        let j2 = r.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\n  \"metrics\": {"));
        // keys render sorted: "a" before "h"
        assert!(j1.find("\"a\"").unwrap() < j1.find("\"h\"").unwrap());
    }
}
