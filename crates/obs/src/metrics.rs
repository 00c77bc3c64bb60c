//! Live metrics plane: a deterministic registry of counters, gauges
//! and log2-bucketed histograms.
//!
//! The span ledger ([`crate::trace`]) answers *why a finished job was
//! slow*; this module answers *what a running system is doing*. The
//! design constraints mirror the tracer's:
//!
//! * **Deterministic.** Every snapshot lists metrics in sorted name
//!   order (the registry is `BTreeMap`-backed), carries no wall-clock
//!   timestamps of its own, and two runs that record the same values
//!   in any order produce byte-identical [`MetricsSnapshot::render_text`]
//!   / JSON output. Engine metrics are exported from [`StageReport`]
//!   fields *after* a run, each fact under one key, so a fixed seed
//!   (and a fixed chaos plan) pins the whole snapshot.
//! * **Passive.** Recording is a single short mutex hold that allocates
//!   only the first time a key is seen; the engine hot paths never
//!   touch the registry — they keep their existing per-task local
//!   counters and the pipeline exports the totals once per run. The
//!   serving layer records per *request*, not per read.
//! * **Exact-from-bucket percentiles.** Histograms bucket values by
//!   bit width (65 log2 buckets covering all of `u64`), so
//!   `percentile` walks the cumulative counts and returns the upper
//!   bound of the bucket containing the requested rank, clamped to
//!   the observed `[min, max]`. No interpolation, no floats in the
//!   stored state — merging and percentile extraction are exact and
//!   associative.
//!
//! [`StageReport`]: ../../mrmc_mapreduce/pipeline/struct.StageReport.html

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::json::Json;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, up to bucket 64 for values
/// with the top bit set.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value: its bit width (0 for 0).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        65.. => u64::MAX,
        _ => ((1u128 << i) - 1) as u64,
    }
}

/// A log2-bucketed histogram over `u64` values (latencies in
/// microseconds, batch sizes, byte counts). All arithmetic saturates,
/// so pathological inputs (`u64::MAX` repeatedly) degrade gracefully
/// instead of wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] = self.buckets[bucket_index(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (bucket-wise). Merging is
    /// associative and commutative, so sharded recording reduces to
    /// the same state as serial recording.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded value count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`), computed exactly from
    /// the bucket boundaries: the upper bound of the bucket containing
    /// the `ceil(p/100 · count)`-th smallest value, clamped to the
    /// observed `[min, max]`. Returns 0 for an empty histogram.
    /// Monotone in `p` by construction.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs in ascending
    /// index order — the sparse form used on the wire and in JSON.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuild a histogram from its wire form. Returns `None` if any
    /// bucket index is out of range — decoders map that to a payload
    /// error rather than panicking.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: impl IntoIterator<Item = (usize, u64)>,
    ) -> Option<Histogram> {
        let mut h = Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count,
            sum,
            min,
            max,
        };
        for (i, c) in sparse {
            if i >= HISTOGRAM_BUCKETS {
                return None;
            }
            h.buckets[i] = h.buckets[i].saturating_add(c);
        }
        Some(h)
    }

    /// Bucket-wise difference `self − earlier` (saturating), for
    /// rate-over-interval views. `min`/`max` cannot be recovered from
    /// two cumulative states, so the delta's bounds are re-derived
    /// from its own non-empty bucket range.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (i, (b, e)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            d.buckets[i] = b.saturating_sub(*e);
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        let lo = d.nonempty_buckets().next().map(|(i, _)| bucket_lo(i));
        let hi = d.nonempty_buckets().last().map(|(i, _)| bucket_hi(i));
        d.min = lo.unwrap_or(u64::MAX).max(self.min);
        d.max = hi.unwrap_or(0).min(self.max);
        d
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Apply `f` to the metric under `name`, created from its default on
/// first sight. Only that first call allocates the key, so recording
/// into an existing metric allocates nothing.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// The registry: a named set of counters (monotone u64), gauges
/// (instantaneous i64) and [`Histogram`]s behind one mutex.
///
/// Cloneable handles are deliberately absent — call sites pass
/// `&MetricsRegistry` (usually inside an `Arc`) and name metrics at
/// the recording site, which keeps the full key set greppable. See
/// DESIGN.md §6 for the key glossary.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a metric")
    }

    /// Add to a counter (creating it at 0).
    pub fn counter_add(&self, name: &str, v: u64) {
        update(&mut self.lock().counters, name, |c| {
            *c = c.saturating_add(v)
        });
    }

    /// Set a gauge to an absolute value.
    pub fn gauge_set(&self, name: &str, v: i64) {
        update(&mut self.lock().gauges, name, |g| *g = v);
    }

    /// Adjust a gauge by a signed delta (creating it at 0).
    pub fn gauge_add(&self, name: &str, delta: i64) {
        update(&mut self.lock().gauges, name, |g| {
            *g = g.saturating_add(delta)
        });
    }

    /// Record one value into a histogram (creating it empty).
    pub fn observe(&self, name: &str, v: u64) {
        update(&mut self.lock().histograms, name, |h| h.record(v));
    }

    /// Record a duration into a histogram, in whole microseconds.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Fold a pre-aggregated histogram into a named histogram.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        update(&mut self.lock().histograms, name, |m| m.merge(h));
    }

    /// A point-in-time copy of every metric, deterministically ordered
    /// by name within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Drop every metric (for reuse across bench iterations).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: plain sorted
/// vectors, safe to ship over the wire, diff, or render.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// True when no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Look up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms subtract (saturating — a metric absent earlier
    /// counts from 0), gauges keep their later instantaneous value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let prior_c: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let prior_h: BTreeMap<&str, &Histogram> = earlier
            .histograms
            .iter()
            .map(|(k, h)| (k.as_str(), h))
            .collect();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(prior_c.get(k.as_str()).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match prior_h.get(k.as_str()) {
                        Some(e) => h.delta(e),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// One line per metric, sorted — stable across runs for
    /// deterministic inputs, so tests can pin the exact bytes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter   {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge     {k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {k} count={} sum={} min={} p50={} p95={} p99={} max={}\n",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max().unwrap_or(0),
            ));
        }
        if out.is_empty() {
            out.push_str("(no metrics)\n");
        }
        out
    }

    /// The snapshot as a JSON document (shared [`Json`] builder):
    /// counters and gauges as objects, each histogram as summary
    /// stats + sparse `[bucket, count]` pairs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::UInt(h.count())),
                                    ("sum", Json::UInt(h.sum())),
                                    ("min", Json::UInt(h.min().unwrap_or(0))),
                                    ("p50", Json::UInt(h.percentile(50.0))),
                                    ("p95", Json::UInt(h.percentile(95.0))),
                                    ("p99", Json::UInt(h.percentile(99.0))),
                                    ("max", Json::UInt(h.max().unwrap_or(0))),
                                    (
                                        "buckets",
                                        Json::arr(h.nonempty_buckets().map(|(i, c)| {
                                            Json::arr([Json::from(i), Json::UInt(c)])
                                        })),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i);
            assert_eq!(bucket_index(bucket_hi(i)), i);
        }
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_hi(i - 1) + 1, bucket_lo(i));
        }
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn percentiles_exact_from_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 rank is 50, which lands in bucket 6 ([32, 63]); the
        // exact-from-bucket answer is the bucket's upper bound.
        assert_eq!(h.percentile(50.0), 63);
        assert_eq!(h.percentile(100.0), 100); // clamped to observed max
        assert_eq!(h.percentile(0.0), 1); // rank 1 → bucket 1, clamped to min
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
    }

    #[test]
    fn single_value_histogram_is_tight() {
        let mut h = Histogram::new();
        h.record(777);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 777);
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
    }

    #[test]
    fn merge_matches_serial_recording() {
        let values = [0u64, 1, 5, 5, 900, 1 << 40, u64::MAX];
        let mut serial = Histogram::new();
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in values.iter().enumerate() {
            serial.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn overflow_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50.0), u64::MAX);
    }

    #[test]
    fn recording_into_existing_keys_saturates_or_overwrites() {
        let m = MetricsRegistry::new();
        m.counter_add("c", u64::MAX);
        m.counter_add("c", 1);
        m.gauge_add("g", i64::MIN);
        m.gauge_add("g", -1);
        m.gauge_set("s", 5);
        m.gauge_set("s", -5);
        let mut h = Histogram::new();
        h.record(3);
        m.merge_histogram("h", &h);
        m.merge_histogram("h", &h);
        let snap = m.snapshot();
        assert_eq!(snap.counter("c"), Some(u64::MAX));
        assert_eq!(snap.gauge("g"), Some(i64::MIN));
        assert_eq!(snap.gauge("s"), Some(-5));
        assert_eq!(snap.histogram("h").map(Histogram::count), Some(2));
    }

    #[test]
    fn registry_snapshot_is_sorted_and_order_independent() {
        let m1 = MetricsRegistry::new();
        m1.counter_add("b", 2);
        m1.counter_add("a", 1);
        m1.gauge_set("z", -3);
        m1.observe("lat", 10);
        let m2 = MetricsRegistry::new();
        m2.observe("lat", 10);
        m2.gauge_set("z", -3);
        m2.counter_add("a", 1);
        m2.counter_add("b", 2);
        assert_eq!(m1.snapshot(), m2.snapshot());
        assert_eq!(m1.snapshot().render_text(), m2.snapshot().render_text());
        let snap = m1.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn delta_semantics() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 5);
        m.gauge_set("g", 10);
        m.observe("h", 4);
        let before = m.snapshot();
        m.counter_add("c", 3);
        m.gauge_set("g", 7);
        m.observe("h", 4);
        m.observe("h", 1 << 20);
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("c"), Some(3));
        assert_eq!(d.gauge("g"), Some(7));
        let h = d.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), (1 << 20) + 4);
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_bad_buckets() {
        let mut h = Histogram::new();
        for v in [3u64, 99, 1 << 30] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h.nonempty_buckets().collect();
        let back = Histogram::from_parts(
            h.count(),
            h.sum(),
            h.min().unwrap(),
            h.max().unwrap(),
            sparse,
        )
        .unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(1, 1, 1, 1, [(HISTOGRAM_BUCKETS, 1)]).is_none());
    }

    #[test]
    fn render_text_pins_exact_bytes() {
        let m = MetricsRegistry::new();
        m.counter_add("engine.shuffle.pairs", 42);
        m.gauge_set("serve.queue_depth", 3);
        m.observe("serve.batch_reads", 8);
        assert_eq!(
            m.snapshot().render_text(),
            "counter   engine.shuffle.pairs = 42\n\
             gauge     serve.queue_depth = 3\n\
             histogram serve.batch_reads count=1 sum=8 min=8 p50=8 p95=8 p99=8 max=8\n"
        );
        assert_eq!(MetricsSnapshot::default().render_text(), "(no metrics)\n");
    }

    #[test]
    fn json_renders_via_shared_builder() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 1);
        m.observe("h", 2);
        let doc = m.snapshot().to_json().pretty();
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"p95\""));
        assert!(doc.contains("\"buckets\""));
    }
}
