//! Property-based tests for the metrics plane's bucket math and
//! registry.
//!
//! The log2 histogram is the load-bearing primitive of the live
//! metrics plane: every latency percentile the server reports and
//! every `engine.*` distribution the benches pin byte-for-byte flows
//! through `bucket_index` / `percentile` / `delta`. These properties
//! hold for *any* input, including the u64 overflow edges the unit
//! tests only spot-check.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mrmc_obs::metrics::{bucket_hi, bucket_index, bucket_lo, HISTOGRAM_BUCKETS};
use mrmc_obs::{Histogram, MetricsRegistry, MetricsSnapshot};

fn record_all(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Values that stress every bucket: small ints, powers of two and
/// their neighbours, and the saturation edge.
fn edge_heavy_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        (0u32..64).prop_map(|s| 1u64 << s),
        (1u32..64).prop_map(|s| (1u64 << s) - 1),
        (1u32..64).prop_map(|s| (1u64 << s) + 1),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        any::<u64>(),
    ]
}

proptest! {
    /// Every value lands in the bucket whose [lo, hi] range contains
    /// it, and bucket bounds tile the u64 line without gaps.
    #[test]
    fn bucket_bounds_contain_their_values(v in edge_heavy_value()) {
        let i = bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(bucket_lo(i) <= v, "lo({i}) = {} > {v}", bucket_lo(i));
        prop_assert!(v <= bucket_hi(i), "hi({i}) = {} < {v}", bucket_hi(i));
        if i + 1 < HISTOGRAM_BUCKETS {
            prop_assert_eq!(bucket_hi(i).wrapping_add(1), bucket_lo(i + 1));
        }
    }

    /// Count is exact, sum saturates (never wraps), and min/max are
    /// the true extremes of what was recorded.
    #[test]
    fn aggregates_track_the_recorded_values(
        values in proptest::collection::vec(edge_heavy_value(), 1..64),
    ) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        let exact_sum = values
            .iter()
            .fold(0u64, |acc, &v| acc.saturating_add(v));
        prop_assert_eq!(h.sum(), exact_sum);
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
    }

    /// Percentiles are monotone in p and clamped to the observed
    /// [min, max] — a reported p99 can never undershoot the median or
    /// exceed the worst sample.
    #[test]
    fn percentiles_are_monotone_and_clamped(
        values in proptest::collection::vec(edge_heavy_value(), 1..64),
    ) {
        let h = record_all(&values);
        let ps = [0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0];
        let qs: Vec<u64> = ps.iter().map(|&p| h.percentile(p)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles not monotone: {qs:?}");
        }
        for &q in &qs {
            prop_assert!(h.min().unwrap() <= q && q <= h.max().unwrap());
        }
    }

    /// A snapshot delta of two cumulative states recovers exactly the
    /// later recordings' counts per bucket.
    #[test]
    fn delta_recovers_the_later_recordings(
        earlier in proptest::collection::vec(edge_heavy_value(), 0..32),
        later in proptest::collection::vec(edge_heavy_value(), 0..32),
    ) {
        let base = record_all(&earlier);
        let mut cumulative = base.clone();
        for &v in &later {
            cumulative.record(v);
        }
        let delta = cumulative.delta(&base);
        prop_assert_eq!(delta.count(), later.len() as u64);
        let expect = record_all(&later);
        let got: Vec<(usize, u64)> = delta.nonempty_buckets().collect();
        let want: Vec<(usize, u64)> = expect.nonempty_buckets().collect();
        prop_assert_eq!(got, want);
    }

    /// `from_parts` round-trips any recorded histogram through its
    /// sparse wire representation bit-for-bit.
    #[test]
    fn sparse_roundtrip_is_lossless(
        values in proptest::collection::vec(edge_heavy_value(), 0..48),
    ) {
        let h = record_all(&values);
        let sparse: Vec<(usize, u64)> = h.nonempty_buckets().collect();
        let rebuilt = Histogram::from_parts(
            h.count(),
            h.sum(),
            h.min().unwrap_or(u64::MAX),
            h.max().unwrap_or(0),
            sparse,
        ).expect("valid parts");
        prop_assert_eq!(rebuilt, h);
    }

    /// The registry records exactly what three plain maps would, in any
    /// interleaving of the three recording calls over a few shared keys:
    /// looking a key up before allocating it changes no snapshot byte.
    #[test]
    fn registry_matches_a_map_model(ops in proptest::collection::vec(any::<u64>(), 0..64)) {
        let registry = MetricsRegistry::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for op in ops {
            let key = format!("k{}", (op >> 3) % 3);
            let v = op >> 8;
            match op % 3 {
                0 => {
                    registry.counter_add(&key, v);
                    let c = counters.entry(key).or_insert(0);
                    *c = c.saturating_add(v);
                }
                1 => {
                    registry.gauge_set(&key, v as i64);
                    gauges.insert(key, v as i64);
                }
                _ => {
                    registry.observe(&key, v);
                    histograms.entry(key).or_default().record(v);
                }
            }
        }
        let model = MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        };
        let snap = registry.snapshot();
        prop_assert_eq!(snap.render_text(), model.render_text());
        prop_assert_eq!(snap, model);
    }
}
