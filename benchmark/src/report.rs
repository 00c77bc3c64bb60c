//! Metric names, and the rows both binaries print: the
//! `workload metric value unit` table and the one-line JSON result the
//! driver reads.

use crate::workload::Workload;

/// An end-to-end metric and the change (as a share of the earlier value) that
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Largest tolerated relative change.
    pub bound: f64,
    /// Reported by every workload and listed under `end_to_end` in
    /// `BENCHMARK.json`; otherwise `serve_seed_stream` alone prints it.
    pub every_workload: bool,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64, all: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        every_workload: all,
    }
}

/// The end-to-end metrics. A bound is three times the largest spread seen
/// between runs of unchanged code on the two-core box of the baseline, capped
/// at the driver's 0.25 — which is where that box puts all of them (README,
/// "Bounds").
pub const END_TO_END: [EndToEnd; 8] = [
    end_to_end("e2e_s", "s", 0.25, true),
    end_to_end("reads_per_s", "1/s", 0.25, true),
    end_to_end("peak_rss_mb", "MB", 0.25, true),
    end_to_end("setup_s", "s", 0.25, true),
    end_to_end("submit_p50_ms", "ms", 0.25, false),
    end_to_end("submit_p95_ms", "ms", 0.25, false),
    end_to_end("query_p50_us", "us", 0.25, false),
    end_to_end("query_p95_us", "us", 0.25, false),
];

/// A per-layer metric of `perf-trace`. A layer a workload bypasses reads 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// A count the program makes that must repeat exactly across reps and
    /// across invocations with the same seed.
    pub exact: bool,
}

const fn metric(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: true,
    }
}

/// The per-layer metrics, in printing order. Mirrors `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: [PerLayer; 81] = [
    metric("seqio.parse_s", "s"),
    metric("seqio.parse_mb_per_s", "MB/s"),
    metric("seqio.records", "count"),
    metric("sketch.busy_s", "s"),
    metric("sketch.reads_per_s", "1/s"),
    metric("sketch.kmers", "count"),
    metric("sketch.task_skew", "ratio"),
    metric("sketch.allocs", "count"),
    metric("simmatrix.busy_s", "s"),
    exact("simmatrix.pairs", "count"),
    metric("simmatrix.pairs_per_s", "1/s"),
    metric("simmatrix.task_skew", "ratio"),
    metric("band.busy_s", "s"),
    metric("band.map_s", "s"),
    metric("band.reduce_s", "s"),
    exact("band.shuffle_pairs", "count"),
    exact("band.shuffle_bytes", "B"),
    exact("band.shuffle_runs", "count"),
    metric("band.task_skew", "ratio"),
    metric("dedup.busy_s", "s"),
    metric("dedup.map_s", "s"),
    metric("dedup.reduce_s", "s"),
    exact("dedup.shuffle_pairs", "count"),
    exact("dedup.shuffle_bytes", "B"),
    exact("dedup.shuffle_runs", "count"),
    exact("dedup.candidates", "count"),
    metric("graph.driver_s", "s"),
    metric("shuffle.allocs", "count"),
    metric("verify.busy_s", "s"),
    exact("verify.pairs", "count"),
    exact("verify.edges", "count"),
    metric("verify.useful_ratio", "ratio"),
    metric("verify.task_skew", "ratio"),
    metric("csr.build_s", "s"),
    metric("csr.edges", "count"),
    metric("csr.allocs", "count"),
    metric("linkage.busy_s", "s"),
    exact("linkage.merges", "count"),
    exact("linkage.clusters", "count"),
    metric("linkage.allocs", "count"),
    metric("linkage.alloc_peak_mb", "MB"),
    metric("pig.parse_script_s", "s"),
    metric("pig.run_s", "s"),
    metric("pig.op.B_s", "s"),
    metric("pig.op.C_s", "s"),
    metric("pig.op.G_s", "s"),
    metric("pig.op.E_s", "s"),
    metric("pig.op.I_s", "s"),
    metric("pig.op.J_s", "s"),
    metric("pig.op.II_s", "s"),
    metric("pig.op.K_s", "s"),
    metric("pig.op.L_s", "s"),
    exact("pig.shuffle_pairs", "count"),
    exact("pig.shuffle_bytes", "B"),
    metric("pig.unattributed_s", "s"),
    metric("pig.allocs", "count"),
    metric("dfs.put_s", "s"),
    metric("dfs.read_s", "s"),
    metric("dfs.bytes_in", "B"),
    metric("dfs.bytes_out", "B"),
    metric("serve.seed_s", "s"),
    metric("serve.queue_p50_us", "us"),
    metric("serve.queue_p99_us", "us"),
    metric("serve.service_p50_us", "us"),
    metric("serve.submit_p50_ms", "ms"),
    metric("serve.submit_p95_ms", "ms"),
    metric("serve.submit_p99_ms", "ms"),
    metric("serve.query_p50_us", "us"),
    metric("serve.query_p95_us", "us"),
    metric("serve.query_p99_us", "us"),
    metric("serve.batches", "count"),
    metric("serve.busy_rejections", "count"),
    metric("serve.quota_rejections", "count"),
    exact("serve.clusters_final", "count"),
    metric("serve.codec.encode_ns_per_read", "ns"),
    metric("serve.codec.decode_ns_per_read", "ns"),
    metric("serve.frame_bytes_per_read", "B"),
    metric("incremental.direct_s", "s"),
    metric("serve.overhead_ratio", "ratio"),
    metric("trace.coverage", "ratio"),
    metric("trace.overhead_pct", "%"),
];

/// The measured rows of one workload.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    rows: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            rows: Vec::new(),
        }
    }

    /// Add a row.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// The value of a row, if it was pushed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Print every row as `workload metric value unit`.
    pub fn print(&self) {
        for (name, value, unit) in &self.rows {
            println!("{} {name} {value} {unit}", self.workload.name());
        }
    }

    /// The driver's result object on one line: `metrics` holds exactly
    /// `names` (with their units), a name never pushed reading 0.
    pub fn result_line<'a>(
        &self,
        names: impl IntoIterator<Item = (&'a str, &'a str)>,
        attempted: u64,
        failed: u64,
        correct: bool,
    ) -> String {
        let metrics: Vec<String> = names
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` has no parser here; it is small and regular enough
    /// to compare as text.
    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let mut expected = 0;
        for workload in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", workload.name())),
                "workload {} is missing",
                workload.name()
            );
            expected += 1;
        }
        let listed = END_TO_END
            .iter()
            .filter(|m| m.every_workload)
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in listed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            expected += 1;
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            expected,
            "BENCHMARK.json has extra entries"
        );
    }
}
