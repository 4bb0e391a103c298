//! The deterministic tick-domain metrics registry.
//!
//! Everything in here is **sim-domain and integer-valued**: counters
//! add, gauges fold min/max, and histograms bucket by the position of
//! the value's highest set bit. All three operations are commutative
//! and associative over merges, so registries merged in any order
//! render byte-identically whatever the worker count — and,
//! stronger, whatever the *order* events were recorded in
//! within one tick (the proptest in `tests/telemetry_registry.rs`
//! locks exactly that permutation invariance).
//!
//! Keys are `&'static str` and stored in `BTreeMap`s, so rendering
//! iterates in lexicographic key order with no hashing nondeterminism.

use std::collections::BTreeMap;

use crate::json::JsonWriter;

/// A min/max fold over observed values.
///
/// A classic "last write wins" gauge would leak recording order across
/// shard boundaries; folding min/max (plus a sample count) keeps the
/// merge commutative, which is what the determinism contract needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    /// Samples observed.
    pub count: u64,
    /// Smallest observed value (0 when `count == 0`).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { count: 0, min: u64::MAX, max: 0 }
    }
}

impl Gauge {
    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Gauge) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn render(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count);
        w.field_u64("min", if self.count == 0 { 0 } else { self.min });
        w.field_u64("max", self.max);
    }
}

/// Number of fixed log2 buckets: bucket 0 holds exactly-zero values,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, up to bucket 64
/// for the top half of the `u64` range.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-log2-bucket histogram over `u64` values.
///
/// Integer-only on purpose: `count`, `sum`, `min`, `max` and every
/// bucket are exact under any merge order, so histograms accumulated
/// separately and merged are byte-identical to a single sequential
/// accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Log2 bucket occupancy; see `Histogram::bucket_index`.
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    /// The bucket a value lands in: 0 for zero, otherwise the position
    /// of the highest set bit plus one (`1 → 1`, `2..=3 → 2`,
    /// `4..=7 → 3`, …).
    #[must_use]
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    fn render(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.field_u64("min", if self.count == 0 { 0 } else { self.min });
        w.field_u64("max", self.max);
        // Trailing zero buckets are trimmed so quiet histograms stay
        // short; the bucket *index* is implicit in the position.
        let occupied = self.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        w.field_array("buckets", self.buckets[..occupied].iter(), |b, out| {
            out.push_str(&b.to_string());
        });
    }
}

/// The registry: named counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds to a counter (saturating, like the histogram sum — a
    /// counter that pegs at `u64::MAX` still merges deterministically).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Records one value into a histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Folds one sample into a min/max gauge.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.gauges.entry(name).or_default().observe(value);
    }

    /// Merges another registry into this one. Merging is commutative
    /// and associative, so any shard partition reduces to the same
    /// registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let c = self.counters.entry(name).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name).or_default().merge(g);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// A counter's value (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge, if any sample was observed under `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// A histogram, if any value was recorded under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders the registry as one stable-key-order JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}` with each
    /// section's keys in lexicographic order. Identical registries
    /// render to identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_object("counters", |o| {
            for (name, v) in &self.counters {
                o.field_u64(name, *v);
            }
        });
        w.field_object("gauges", |o| {
            for (name, g) in &self.gauges {
                o.field_object(name, |gw| g.render(gw));
            }
        });
        w.field_object("histograms", |o| {
            for (name, h) in &self.histograms {
                o.field_object(name, |hw| h.render(hw));
            }
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2_with_a_zero_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let mut seq = MetricsRegistry::new();
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for (i, v) in [0u64, 1, 3, 8, 8, 200].iter().enumerate() {
            seq.record("h", *v);
            seq.inc("n");
            seq.observe("g", *v);
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            shard.record("h", *v);
            shard.inc("n");
            shard.observe("g", *v);
        }
        let mut merged = MetricsRegistry::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, seq);
        assert_eq!(merged.to_json(), seq.to_json());
        // Merge order must not matter either.
        let mut swapped = MetricsRegistry::new();
        swapped.merge(&b);
        swapped.merge(&a);
        assert_eq!(swapped.to_json(), seq.to_json());
    }

    #[test]
    fn json_shape_is_stable_and_trimmed() {
        let mut r = MetricsRegistry::new();
        r.add("arrivals", 3);
        r.record("wait", 0);
        r.record("wait", 5);
        r.observe("depth", 7);
        assert_eq!(
            r.to_json(),
            "{\"counters\":{\"arrivals\":3},\
             \"gauges\":{\"depth\":{\"count\":1,\"min\":7,\"max\":7}},\
             \"histograms\":{\"wait\":{\"count\":2,\"sum\":5,\"min\":0,\"max\":5,\
             \"buckets\":[1,0,0,1]}}}"
        );
        // An untouched registry renders empty sections, not junk.
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn empty_histogram_renders_zero_min() {
        let h = Histogram::default();
        let mut w = JsonWriter::object();
        w.field_object("h", |o| h.render(o));
        assert_eq!(w.finish(), "{\"h\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}}");
    }
}
