//! Shared harness code for the table/figure-regenerating binaries.
//!
//! Every binary accepts `--scale <f>` (dataset shrink factor, default
//! per binary) and `--seed <u64>`; `table3`/`table4`/`table5` also take
//! `--samples a,b,c` to restrict the row set, and the table binaries
//! accept `--json <path>` to additionally emit machine-readable rows
//! for downstream plotting. Run them with
//! `cargo run -p mrmc-bench --release --bin tableN`.

pub mod alloc;

use std::time::Instant;

/// Every bench binary runs under the counting allocator so allocation
/// counts are reportable (and gate-able) next to wall-clock.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_baselines::{
    CdHitLike, Clusterer, DoturLike, EspritLike, McLsh, MetaClusterLike, MothurLike, UclustLike,
};
use mrmc_cluster::ClusterAssignment;
use mrmc_metrics::{weighted_accuracy, weighted_similarity, SimilarityOptions};
use mrmc_obs::json::Json;
use mrmc_seqio::SeqRecord;
use mrmc_simulate::Dataset;

/// Minimal CLI shared by the bench binaries: one `--kebab-case` flag
/// per field.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset shrink factor in (0, 1].
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Optional row filter (sample ids).
    pub samples: Option<Vec<String>>,
    /// Optional path for a JSON copy of the rows.
    pub json: Option<String>,
    /// Optional path for a Chrome trace of the run (binaries that run
    /// the real engine attach a [`mrmc_mapreduce::Tracer`] when set).
    pub trace: Option<String>,
}

impl HarnessArgs {
    /// Parse `std::env::args`, with a binary-specific default scale.
    pub fn parse(default_scale: f64) -> HarnessArgs {
        let mut args = HarnessArgs {
            scale: default_scale,
            seed: 42,
            samples: None,
            json: None,
            trace: None,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    args.scale = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale needs a number in (0,1]");
                    i += 2;
                }
                "--seed" => {
                    args.seed = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                    i += 2;
                }
                "--samples" => {
                    args.samples = Some(
                        argv.get(i + 1)
                            .expect("--samples needs a comma-separated list")
                            .split(',')
                            .map(str::to_string)
                            .collect(),
                    );
                    i += 2;
                }
                "--json" => {
                    args.json = Some(argv.get(i + 1).expect("--json needs a file path").clone());
                    i += 2;
                }
                "--trace" => {
                    args.trace = Some(argv.get(i + 1).expect("--trace needs a file path").clone());
                    i += 2;
                }
                other => panic!(
                    "unknown argument {other:?} \
                     (supported: --scale, --seed, --samples, --json, --trace)"
                ),
            }
        }
        args
    }

    /// Whether a sample id passes the `--samples` filter.
    pub fn wants(&self, sid: &str) -> bool {
        self.samples
            .as_ref()
            .map(|list| list.iter().any(|s| s == sid))
            .unwrap_or(true)
    }
}

/// One measured clustering outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Clusters (with the size floor applied where the caller wants).
    pub assignment: ClusterAssignment,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Run a clusterer with timing.
pub fn timed<F: FnOnce() -> ClusterAssignment>(f: F) -> Outcome {
    let t = Instant::now();
    let assignment = f();
    Outcome {
        assignment,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Format W.Acc for a dataset (blank when unlabeled, like the paper's
/// "-" for R1).
pub fn fmt_acc(assignment: &ClusterAssignment, dataset: &Dataset, min_size: usize) -> String {
    dataset
        .labels
        .as_ref()
        .and_then(|truth| weighted_accuracy(assignment, truth, min_size))
        .map(|a| format!("{a:.2}"))
        .unwrap_or_else(|| "-".to_string())
}

/// Format W.Sim with pair sampling.
pub fn fmt_sim(assignment: &ClusterAssignment, reads: &[SeqRecord], max_pairs: usize) -> String {
    weighted_similarity(
        assignment,
        reads,
        &SimilarityOptions {
            max_pairs_per_cluster: max_pairs,
            ..Default::default()
        },
    )
    .map(|s| format!("{s:.2}"))
    .unwrap_or_else(|| "-".to_string())
}

/// Format seconds the way the paper mixes units ("4m 25s" / "8.4").
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 60.0 {
        format!(
            "{}m {:02}s",
            (seconds / 60.0) as u64,
            (seconds % 60.0) as u64
        )
    } else {
        format!("{seconds:.2}s")
    }
}

/// The paper's cluster-size reporting floor, scaled with the dataset:
/// the paper uses 50 at full size; a scaled run keeps the same
/// *fraction* so cluster counts stay comparable.
pub fn size_floor(scale: f64) -> usize {
    ((50.0 * scale).round() as usize).max(2)
}

/// MrMC-MinH runners with the Table III (whole-metagenome) settings.
pub fn mrmc_whole(mode: Mode, theta: f64) -> MrMcMinH {
    MrMcMinH::new(MrMcConfig {
        theta,
        mode,
        ..MrMcConfig::whole_metagenome()
    })
}

/// MrMC-MinH runners with the Table V (16S) settings.
pub fn mrmc_16s(mode: Mode, theta: f64) -> MrMcMinH {
    MrMcMinH::new(MrMcConfig {
        theta,
        mode,
        ..MrMcConfig::sixteen_s()
    })
}

/// A named clustering method closure (Table IV/V row).
pub type NamedMethod = (&'static str, Box<dyn Fn(&[SeqRecord]) -> ClusterAssignment>);

/// The eight Table IV / Table V methods, in the paper's row order.
pub fn sixteen_s_methods(theta: f64) -> Vec<NamedMethod> {
    vec![
        (
            "MrMC-MinH^h",
            Box::new(move |reads: &[SeqRecord]| {
                mrmc_16s(Mode::Hierarchical, theta)
                    .run(reads)
                    .expect("run")
                    .assignment
            }) as Box<dyn Fn(&[SeqRecord]) -> ClusterAssignment>,
        ),
        (
            "MrMC-MinH^g",
            Box::new(move |reads| {
                mrmc_16s(Mode::Greedy, theta)
                    .run(reads)
                    .expect("run")
                    .assignment
            }),
        ),
        (
            "MC-LSH",
            Box::new(move |reads| {
                McLsh {
                    theta,
                    ..Default::default()
                }
                .cluster(reads)
            }),
        ),
        (
            "UCLUST",
            Box::new(move |reads| {
                UclustLike {
                    theta,
                    ..Default::default()
                }
                .cluster(reads)
            }),
        ),
        (
            "CD-HIT",
            Box::new(move |reads| {
                CdHitLike {
                    theta,
                    ..Default::default()
                }
                .cluster(reads)
            }),
        ),
        (
            "ESPRIT",
            Box::new(move |reads| {
                EspritLike {
                    theta,
                    ..Default::default()
                }
                .cluster(reads)
            }),
        ),
        (
            "DOTUR",
            Box::new(move |reads| DoturLike { theta }.cluster(reads)),
        ),
        (
            "Mothur",
            Box::new(move |reads| MothurLike { theta }.cluster(reads)),
        ),
    ]
}

/// The MetaCluster baseline with defaults.
pub fn metacluster() -> MetaClusterLike {
    MetaClusterLike::default()
}

/// One machine-readable result row (serialized by `--json`).
#[derive(Debug, Clone)]
pub struct JsonRow {
    /// Sample id ("S1", "53R", …).
    pub sample: String,
    /// Method name.
    pub method: String,
    /// Extra dimension (error level, θ, node count) when applicable;
    /// omitted from the JSON when `None`.
    pub variant: Option<String>,
    /// Cluster count after the reporting floor.
    pub clusters: usize,
    /// Weighted accuracy in %, when ground truth exists (omitted when
    /// `None`).
    pub w_acc: Option<f64>,
    /// Weighted similarity in %, when computable (omitted when `None`).
    pub w_sim: Option<f64>,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl JsonRow {
    /// The row as a [`Json`] object; `None` optionals are omitted, not
    /// null.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("sample".into(), self.sample.as_str().into()),
            ("method".into(), self.method.as_str().into()),
        ];
        if let Some(variant) = &self.variant {
            fields.push(("variant".into(), variant.as_str().into()));
        }
        fields.push(("clusters".into(), self.clusters.into()));
        if let Some(acc) = self.w_acc {
            fields.push(("w_acc".into(), acc.into()));
        }
        if let Some(sim) = self.w_sim {
            fields.push(("w_sim".into(), sim.into()));
        }
        fields.push(("seconds".into(), self.seconds.into()));
        Json::Obj(fields)
    }
}

/// Render rows as a pretty JSON array (matching what
/// `serde_json::to_string_pretty` produced before the offline
/// dependency stand-ins replaced serde).
pub fn rows_to_json(rows: &[JsonRow]) -> String {
    Json::arr(rows.iter().map(JsonRow::to_json)).pretty()
}

/// Write rows as pretty JSON when `--json` was given.
pub fn maybe_write_json(args: &HarnessArgs, rows: &[JsonRow]) {
    if let Some(path) = &args.json {
        let body = rows_to_json(rows);
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {} rows to {path}", rows.len());
    }
}

/// Simple fixed-width table printer.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(8.4), "8.40s");
        assert_eq!(fmt_time(265.0), "4m 25s");
        assert_eq!(fmt_time(60.0), "1m 00s");
    }

    #[test]
    fn size_floor_scales() {
        assert_eq!(size_floor(1.0), 50);
        assert_eq!(size_floor(0.1), 5);
        assert_eq!(size_floor(0.001), 2);
    }

    #[test]
    fn methods_list_matches_paper_rows() {
        let m = sixteen_s_methods(0.95);
        let names: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "MrMC-MinH^h",
                "MrMC-MinH^g",
                "MC-LSH",
                "UCLUST",
                "CD-HIT",
                "ESPRIT",
                "DOTUR",
                "Mothur"
            ]
        );
    }

    #[test]
    fn json_rows_render_valid_pretty_json() {
        let rows = vec![
            JsonRow {
                sample: "S1".into(),
                method: "MrMC-MinH^h".into(),
                variant: Some("θ=0.95".into()),
                clusters: 12,
                w_acc: Some(98.5),
                w_sim: None,
                seconds: 1.25,
            },
            JsonRow {
                sample: "quote\"back\\slash".into(),
                method: "m".into(),
                variant: None,
                clusters: 0,
                w_acc: None,
                w_sim: Some(f64::NAN),
                seconds: 0.5,
            },
        ];
        let body = rows_to_json(&rows);
        assert!(body.starts_with("[\n"));
        assert!(body.ends_with("\n]"));
        assert!(body.contains("\"variant\": \"θ=0.95\""));
        assert!(body.contains("\"w_acc\": 98.5"));
        assert!(body.contains("\"w_sim\": null"));
        assert!(body.contains("quote\\\"back\\\\slash"));
        // Omitted optionals truly absent, not null.
        assert_eq!(body.matches("\"variant\"").count(), 1);
        assert_eq!(rows_to_json(&[]), "[]");
    }

    #[test]
    fn harness_wants_filters() {
        let args = HarnessArgs {
            scale: 0.1,
            seed: 0,
            samples: Some(vec!["S1".into(), "S3".into()]),
            json: None,
            trace: None,
        };
        assert!(args.wants("S1"));
        assert!(!args.wants("S2"));
        let all = HarnessArgs {
            samples: None,
            ..args
        };
        assert!(all.wants("anything"));
    }
}
