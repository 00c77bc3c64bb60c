//! ASCII dashboard rendering of a metrics snapshot.
//!
//! Given a [`MetricsSnapshot`] pulled from a running daemon it draws
//! admission state (gauges), the counter table, and one bar chart per
//! histogram — log2 buckets on the rows, `#` bars scaled to the
//! fullest bucket, summary percentiles in the header. Pure function of
//! the snapshot, so a deterministic snapshot renders to deterministic
//! bytes.

use crate::metrics::{bucket_hi, bucket_lo, MetricsSnapshot};

/// Largest bar width in characters.
const BAR_W: usize = 40;

fn human(v: u64) -> String {
    match v {
        0..=999 => format!("{v}"),
        1_000..=999_999 => format!("{:.1}k", v as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}M", v as f64 / 1e6),
        _ => format!("{:.1}G", v as f64 / 1e9),
    }
}

/// Render the snapshot as a fixed-width ASCII dashboard, `width`
/// columns wide (clamped to at least 40).
pub fn render_dashboard(snap: &MetricsSnapshot, width: usize) -> String {
    let width = width.max(40);
    let mut out = String::new();
    let rule = "=".repeat(width);
    out.push_str(&rule);
    out.push_str("\nmetrics dashboard\n");

    if !snap.gauges.is_empty() {
        out.push_str(&format!("{}\n-- gauges (live)\n", "-".repeat(width)));
        let kw = snap.gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &snap.gauges {
            out.push_str(&format!("  {k:kw$}  {v}\n"));
        }
    }

    if !snap.counters.is_empty() {
        out.push_str(&format!(
            "{}\n-- counters (cumulative)\n",
            "-".repeat(width)
        ));
        let kw = snap
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &snap.counters {
            out.push_str(&format!("  {k:kw$}  {v}\n"));
        }
    }

    for (name, h) in &snap.histograms {
        out.push_str(&format!("{}\n-- histogram {name}\n", "-".repeat(width)));
        if h.count() == 0 {
            out.push_str("  (empty)\n");
            continue;
        }
        out.push_str(&format!(
            "  count={} min={} p50={} p95={} p99={} max={} mean={:.1}\n",
            h.count(),
            h.min().unwrap_or(0),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max().unwrap_or(0),
            h.mean(),
        ));
        let buckets: Vec<(usize, u64)> = h.nonempty_buckets().collect();
        let fullest = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        let lo = buckets.first().map(|&(i, _)| i).unwrap_or(0);
        let hi = buckets.last().map(|&(i, _)| i).unwrap_or(0);
        for i in lo..=hi {
            let c = h
                .nonempty_buckets()
                .find(|&(j, _)| j == i)
                .map(|(_, c)| c)
                .unwrap_or(0);
            let bar = ((c as u128 * BAR_W as u128 / fullest as u128) as usize).min(BAR_W);
            let bar = if c > 0 { bar.max(1) } else { 0 };
            out.push_str(&format!(
                "  [{:>6} .. {:>6}] {:<BAR_W$} {}\n",
                human(bucket_lo(i)),
                human(bucket_hi(i)),
                "#".repeat(bar),
                c,
            ));
        }
    }

    if snap.is_empty() {
        out.push_str("(no metrics)\n");
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let m = MetricsRegistry::new();
        assert!(render_dashboard(&m.snapshot(), 60).contains("(no metrics)"));
    }

    #[test]
    fn sections_and_bars_render() {
        let m = MetricsRegistry::new();
        m.gauge_set("serve.queue_depth", 2);
        m.counter_add("serve.tenant.acme.batches_admitted", 9);
        for v in [10u64, 11, 12, 500, 501, 502, 503] {
            m.observe("serve.tenant.acme.latency_us", v);
        }
        let dash = render_dashboard(&m.snapshot(), 72);
        assert!(dash.contains("-- gauges"));
        assert!(dash.contains("serve.queue_depth  2"));
        assert!(dash.contains("-- counters"));
        assert!(dash.contains("-- histogram serve.tenant.acme.latency_us"));
        assert!(dash.contains("p95="));
        assert!(dash.contains('#'));
        // Deterministic: same snapshot, same bytes.
        assert_eq!(dash, render_dashboard(&m.snapshot(), 72));
    }

    #[test]
    fn human_units() {
        assert_eq!(human(999), "999");
        assert_eq!(human(20_000), "20.0k");
        assert_eq!(human(3_500_000_000), "3.5G");
    }
}
