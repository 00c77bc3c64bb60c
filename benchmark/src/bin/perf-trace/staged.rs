//! One traced rep per workload, and the per-layer metrics read off it.
//!
//! The native routes are staged here through the same public functions
//! `MrMcMinH::run` calls; the Pig and serve routes are the library's own,
//! run with the tracer plugged in. Counts come from the program's public
//! reports (`StageReport`, job counters, `SessionStats`, the daemon's
//! metrics snapshot); times from the spans.

use std::time::Instant;

use mrmc::stages::{similarity_matrix_stage, sketch_stage};
use mrmc::{banded_graph_stage, CandidateGen, IncrementalClusterer, Mode, MrMcMinH};
use mrmc_benchmark::report::PER_LAYER;
use mrmc_benchmark::route::{self, Output, Spans, ROOT_SPAN, TENANT};
use mrmc_benchmark::stats::{percentile, skew};
use mrmc_benchmark::workload::{Input, Workload, SUBMIT_BATCH};
use mrmc_cluster::{
    agglomerative, agglomerative_sparse, greedy_cluster_sparse, ClusterAssignment, CondensedMatrix,
    Dendrogram, SparseSimGraph,
};
use mrmc_mapreduce::pipeline::{Pipeline, StageReport};
use mrmc_seqio::fasta::read_fasta_bytes;
use mrmc_server::{Request, Response, WireRead};

use crate::alloc;
use crate::trace::Tracer;

/// Per-layer metric values of one traced rep.
#[derive(Debug, Default)]
pub struct Layers(Vec<(String, f64)>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not listed in PER_LAYER"
        );
        self.0.push((name, value));
    }

    /// The value of `name`; 0 for a layer the workload bypasses.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Run one traced rep of `input`'s workload, probes included.
pub fn traced_rep(input: &Input, tracer: &mut Tracer) -> (Output, Layers) {
    match input.workload {
        Workload::PigAlgorithm3 => {
            let output = route::run_pig(input, tracer);
            let layers = pig_layers(input, &output, tracer);
            (output, layers)
        }
        Workload::ServeSeedStream => {
            let output = route::run_serve(input, tracer);
            let layers = serve_layers(input, &output, tracer);
            (output, layers)
        }
        _ => staged_native(input, tracer),
    }
}

/// Attach what the program reports about `stages` — walls, shuffle volume,
/// job counters — to the span they ran under.
fn annotate_stages(t: &mut Tracer, span: usize, stages: &[StageReport]) {
    for stage in stages {
        let name = &stage.name;
        t.annotate(span, format!("{name}.wall_s"), stage.wall.as_secs_f64());
        t.annotate(
            span,
            format!("{name}.map_tasks"),
            stage.map_stats.len() as f64,
        );
        if stage.shuffled_pairs > 0 {
            t.annotate(
                span,
                format!("{name}.shuffled_pairs"),
                stage.shuffled_pairs as f64,
            );
            t.annotate(
                span,
                format!("{name}.shuffled_bytes"),
                stage.shuffled_bytes as f64,
            );
            t.annotate(
                span,
                format!("{name}.shuffle_runs"),
                stage.shuffle_runs as f64,
            );
        }
        for (counter, value) in &stage.counters {
            t.annotate(span, format!("{name}.{counter}"), *value as f64);
        }
    }
}

/// The similarities the linkage step consumes.
enum Sims {
    Graph(SparseSimGraph),
    Matrix(CondensedMatrix),
}

fn staged_native(input: &Input, t: &mut Tracer) -> (Output, Layers) {
    let config = input.workload.mrmc_config();
    let mut pipeline = Pipeline::new("perf-trace");
    let mut m = Layers::default();

    let start = Instant::now();
    let root = t.begin(ROOT_SPAN);

    let parse = t.begin("read_fasta_bytes");
    let reads = read_fasta_bytes(&input.fasta).expect("generated FASTA parses");
    t.count("records", reads.len() as f64);
    t.end(parse);

    let sketch = t.begin("sketch_stage");
    let sketches = sketch_stage(&reads, &config, &mut pipeline).expect("fault-free stage");
    t.end(sketch);

    let (sims, sims_span) = match config.candidates {
        CandidateGen::Banded { .. } => {
            let span = t.begin("banded_graph_stage");
            let graph =
                banded_graph_stage(&sketches, &config, &mut pipeline).expect("fault-free stage");
            t.count("edges", graph.num_edges() as f64);
            t.end(span);
            // `MrMcMinH::run` frees the sketches inside its timed region too.
            let free = t.begin("drop");
            drop(sketches);
            t.end(free);
            (Sims::Graph(graph), span)
        }
        CandidateGen::Dense => {
            let span = t.begin("similarity_matrix_stage");
            let matrix = similarity_matrix_stage(sketches, &config, &mut pipeline)
                .expect("fault-free stage");
            t.end(span);
            (Sims::Matrix(matrix), span)
        }
    };

    let theta = config.theta;
    let linkage = t.begin(match (&sims, config.mode) {
        (Sims::Graph(_), Mode::Greedy) => "greedy_cluster_sparse",
        (Sims::Graph(_), Mode::Hierarchical) => "agglomerative_sparse",
        (Sims::Matrix(_), _) => "agglomerative",
    });
    type Clustering = (ClusterAssignment, Option<Dendrogram>);
    let ((assignment, dendrogram), heap_peak): (Clustering, u64) =
        alloc::heap_peak_during(|| match (&sims, config.mode) {
            (Sims::Graph(graph), Mode::Greedy) => {
                (greedy_cluster_sparse(graph, theta).compact(), None)
            }
            (Sims::Graph(graph), Mode::Hierarchical) => {
                let (a, d) = agglomerative_sparse(graph, config.linkage, theta);
                (a.compact(), Some(d))
            }
            (Sims::Matrix(matrix), _) => {
                let (a, d) = agglomerative(matrix, config.linkage, theta);
                (a.compact(), Some(d))
            }
        });
    let merges = dendrogram.as_ref().map_or(0, |d| d.merges.len());
    let clusters = assignment.num_clusters();
    t.count("merges", merges as f64);
    t.count("clusters", clusters as f64);
    t.end(linkage);

    let labels: Vec<u64> = assignment.labels().iter().map(|&l| l as u64).collect();
    t.end(root);
    let e2e_s = start.elapsed().as_secs_f64();

    // Probe, outside the rep: the CSR build re-timed on the graph's edges.
    if let Sims::Graph(graph) = &sims {
        let edges: Vec<(u32, u32, f32)> = graph.edges().collect();
        let span = t.begin("SparseSimGraph::from_edges");
        let rebuilt = SparseSimGraph::from_edges(graph.len(), edges.iter().copied());
        t.end(span);
        assert_eq!(&rebuilt, graph, "the re-timed CSR build is the same graph");
        m.set("csr.build_s", t.get(span).seconds());
        m.set("csr.edges", edges.len() as f64);
        m.set("csr.allocs", t.get(span).allocs as f64);
    }

    annotate_stages(t, sketch, &pipeline.stages()[..1]);
    annotate_stages(t, sims_span, &pipeline.stages()[1..]);

    let parse_s = t.get(parse).seconds();
    m.set("seqio.parse_s", parse_s);
    m.set(
        "seqio.parse_mb_per_s",
        input.fasta.len() as f64 / 1e6 / parse_s,
    );
    m.set("seqio.records", reads.len() as f64);

    let stage = |name: &str| -> &StageReport {
        pipeline
            .stages()
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage {name} did not run"))
    };
    let sketching = stage("minwise-sketch");
    let kmers: usize = reads
        .iter()
        .map(|r| (r.seq.len() + 1).saturating_sub(config.kmer))
        .sum();
    m.set("sketch.busy_s", sketching.wall.as_secs_f64());
    m.set(
        "sketch.reads_per_s",
        reads.len() as f64 / sketching.wall.as_secs_f64(),
    );
    m.set("sketch.kmers", kmers as f64);
    m.set("sketch.task_skew", skew(&sketching.map_costs()));
    m.set("sketch.allocs", t.get(sketch).allocs as f64);

    let sims_s = t.get(sims_span).seconds();
    match &sims {
        Sims::Graph(_) => {
            let (band, dedup, verify) = (
                stage("band-signatures"),
                stage("candidate-dedup"),
                stage("candidate-verify"),
            );
            for (prefix, report) in [("band", band), ("dedup", dedup)] {
                m.set(format!("{prefix}.busy_s"), report.wall.as_secs_f64());
                m.set(format!("{prefix}.map_s"), report.map_costs().iter().sum());
                m.set(
                    format!("{prefix}.reduce_s"),
                    report.reduce_costs().iter().sum(),
                );
                m.set(
                    format!("{prefix}.shuffle_pairs"),
                    report.shuffled_pairs as f64,
                );
                m.set(
                    format!("{prefix}.shuffle_bytes"),
                    report.shuffled_bytes as f64,
                );
                m.set(format!("{prefix}.shuffle_runs"), report.shuffle_runs as f64);
            }
            m.set("band.task_skew", skew(&band.map_costs()));
            let candidates = dedup.counter("CANDIDATES_EMITTED") as f64;
            let edges = verify.counter("EDGES_EMITTED") as f64;
            m.set("dedup.candidates", candidates);
            m.set("verify.busy_s", verify.wall.as_secs_f64());
            m.set("verify.pairs", verify.counter("PAIRS_COMPUTED") as f64);
            m.set("verify.edges", edges);
            m.set(
                "verify.useful_ratio",
                if candidates > 0.0 {
                    edges / candidates
                } else {
                    0.0
                },
            );
            m.set("verify.task_skew", skew(&verify.map_costs()));
            // What the stage does on the driver between its three jobs:
            // sorting and collecting pair lists, and the CSR build.
            let jobs: f64 = [band, dedup, verify]
                .iter()
                .map(|s| s.wall.as_secs_f64())
                .sum();
            m.set("graph.driver_s", sims_s - jobs);
            m.set("shuffle.allocs", t.get(sims_span).allocs as f64);
        }
        Sims::Matrix(_) => {
            let pairwise = stage("pairwise-similarity");
            let pairs = pairwise.counter("PAIRS_COMPUTED") as f64;
            m.set("simmatrix.busy_s", pairwise.wall.as_secs_f64());
            m.set("simmatrix.pairs", pairs);
            m.set("simmatrix.pairs_per_s", pairs / pairwise.wall.as_secs_f64());
            m.set("simmatrix.task_skew", skew(&pairwise.map_costs()));
            // Assembling the condensed matrix from the row strips.
            m.set("graph.driver_s", sims_s - pairwise.wall.as_secs_f64());
        }
    }

    let linkage = t.get(linkage);
    m.set("linkage.busy_s", linkage.seconds());
    m.set("linkage.merges", merges as f64);
    m.set("linkage.clusters", clusters as f64);
    m.set("linkage.allocs", linkage.allocs as f64);
    m.set(
        "linkage.alloc_peak_mb",
        heap_peak as f64 / (1024.0 * 1024.0),
    );

    let output = Output {
        e2e_s,
        labelings: vec![labels],
        ..Output::default()
    };
    (output, m)
}

fn pig_layers(input: &Input, output: &Output, t: &mut Tracer) -> Layers {
    let mut m = Layers::default();
    let stages = output
        .pipeline
        .as_ref()
        .expect("Pig route reports stages")
        .stages();
    let run = t.find("PigRunner::run");
    annotate_stages(t, run, stages);
    let (put, parse, run, read) = (
        t.get(t.find("Dfs::put")),
        t.get(t.find("parse_script")),
        t.get(run),
        t.get(t.find("Dfs::read")),
    );
    m.set("dfs.put_s", put.seconds());
    m.set("dfs.bytes_in", input.fasta.len() as f64);
    m.set("dfs.read_s", read.seconds());
    m.set("dfs.bytes_out", read.counts[0].1);
    m.set("pig.parse_script_s", parse.seconds());
    m.set("pig.run_s", run.seconds());
    m.set("pig.allocs", run.allocs as f64);

    let mut attributed = 0.0;
    for stage in stages {
        // Stage names are `<operator>:<alias>`, e.g. `foreach:J`.
        let alias = stage
            .name
            .rsplit(':')
            .next()
            .expect("rsplit yields one item");
        m.set(format!("pig.op.{alias}_s"), stage.wall.as_secs_f64());
        attributed += stage.wall.as_secs_f64();
    }
    m.set(
        "pig.shuffle_pairs",
        stages.iter().map(|s| s.shuffled_pairs).sum::<u64>() as f64,
    );
    m.set(
        "pig.shuffle_bytes",
        stages.iter().map(|s| s.shuffled_bytes).sum::<u64>() as f64,
    );
    // LOAD, STORE, relation bookkeeping and batch conversion: inside
    // `PigRunner::run` but outside every `StageReport.wall`.
    m.set("pig.unattributed_s", run.seconds() - attributed);
    m
}

fn serve_layers(input: &Input, output: &Output, t: &mut Tracer) -> Layers {
    let mut m = Layers::default();
    let serve = output.serve.as_ref().expect("serve route reports requests");
    m.set("serve.seed_s", serve.seed_s);
    m.set(
        "serve.submit_p50_ms",
        percentile(&serve.submit_latencies, 50.0) * 1e3,
    );
    m.set(
        "serve.submit_p95_ms",
        percentile(&serve.submit_latencies, 95.0) * 1e3,
    );
    m.set(
        "serve.submit_p99_ms",
        percentile(&serve.submit_latencies, 99.0) * 1e3,
    );
    m.set(
        "serve.query_p50_us",
        percentile(&serve.query_latencies, 50.0) * 1e6,
    );
    m.set(
        "serve.query_p95_us",
        percentile(&serve.query_latencies, 95.0) * 1e6,
    );
    m.set(
        "serve.query_p99_us",
        percentile(&serve.query_latencies, 99.0) * 1e6,
    );

    // The daemon's own view: micro-batch queue wait and queue + assignment.
    if let Some(metrics) = &serve.metrics {
        if let Some(queue) = metrics.histogram(&format!("serve.tenant.{TENANT}.queue_us")) {
            m.set("serve.queue_p50_us", queue.percentile(50.0) as f64);
            m.set("serve.queue_p99_us", queue.percentile(99.0) as f64);
        }
        if let Some(service) = metrics.histogram(&format!("serve.tenant.{TENANT}.latency_us")) {
            m.set("serve.service_p50_us", service.percentile(50.0) as f64);
        }
    }
    if let Some(stats) = &serve.stats {
        m.set("serve.batches", stats.batches_admitted as f64);
        m.set("serve.busy_rejections", stats.busy_rejections as f64);
        m.set("serve.quota_rejections", stats.quota_rejections as f64);
        m.set("serve.clusters_final", stats.clusters as f64);
    }

    // Probes, outside the rep. First the codec, off the socket, on the very
    // frames the stream sent and received.
    let (batch, stream) = input.reads.split_at(input.seed_reads);
    let labels = &output.labelings[0];
    let span = t.begin("codec");
    let (mut encode_s, mut decode_s, mut frame_bytes) = (0.0, 0.0, 0usize);
    for (reads, labels) in stream.chunks(SUBMIT_BATCH).zip(labels.chunks(SUBMIT_BATCH)) {
        let request = Request::SubmitReads {
            reads: reads.iter().map(WireRead::from).collect(),
        };
        let response = Response::Labels {
            labels: labels.to_vec(),
        };
        let timer = Instant::now();
        let frames = (request.encode(), response.encode());
        encode_s += timer.elapsed().as_secs_f64();
        let timer = Instant::now();
        let decoded = (Request::decode(&frames.0), Response::decode(&frames.1));
        decode_s += timer.elapsed().as_secs_f64();
        assert!(
            decoded.0.as_ref() == Ok(&request) && decoded.1.as_ref() == Ok(&response),
            "frames round-trip"
        );
        frame_bytes += frames.0.len() + frames.1.len();
    }
    t.end(span);
    let streamed = stream.len() as f64;
    m.set("serve.codec.encode_ns_per_read", encode_s * 1e9 / streamed);
    m.set("serve.codec.decode_ns_per_read", decode_s * 1e9 / streamed);
    m.set("serve.frame_bytes_per_read", frame_bytes as f64 / streamed);

    // Then the same stream pushed straight into the clusterer: what the
    // submits would cost with no daemon, protocol or socket around them.
    let config = input.workload.mrmc_config();
    let seeded = MrMcMinH::new(config).run(batch).expect("seeding run");
    let mut direct =
        IncrementalClusterer::from_run(config, batch, &seeded).expect("seeding the clusterer");
    let span = t.begin("IncrementalClusterer::push_batch");
    for reads in stream.chunks(SUBMIT_BATCH) {
        direct.push_batch(reads).expect("generated reads sketch");
    }
    t.end(span);
    let direct_s = t.get(span).seconds();
    m.set("incremental.direct_s", direct_s);
    m.set("serve.overhead_ratio", serve.stream_s / direct_s);
    m
}
