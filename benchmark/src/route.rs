//! The routes: each workload driven the way a user drives it, timed from
//! inputs in memory to final labels.
//!
//! The Pig and serve routes are sequences of public calls, so `perf-trace`
//! reuses them with a span recorder plugged into [`Spans`]; `perf` plugs in
//! [`NoSpans`], which compiles to nothing. The native route is one
//! `MrMcMinH::run` call here and is staged call by call in `perf-trace`.

use std::sync::Arc;
use std::time::Instant;

use mrmc::{algorithm3_script, register_mrmc_udfs, MrMcMinH};
use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_obs::{MetricsSnapshot, Tracer};
use mrmc_pig::{parse_script, PigRunner, UdfRegistry};
use mrmc_seqio::fasta::read_fasta_bytes;
use mrmc_server::{Client, Server, ServerConfig, ServerHandle, SessionStats, SubmitOutcome};

use crate::workload::{
    pig_params, seed_config, Input, Workload, PIG_INPUT, PIG_OUTPUTS, SUBMIT_BATCH,
};

/// Tenant name of the serve workload (also in the daemon's metric names).
pub const TENANT: &str = "bench";

/// Where a route reports the calls it makes. `begin` opens a span nested in
/// the innermost open one and returns its id; `end` closes it.
pub trait Spans {
    /// Open a span.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Close the span `begin` returned `id` for.
    fn end(&mut self, id: usize);
    /// Attach a count to the innermost open span.
    fn count(&mut self, key: &'static str, value: f64);
}

/// Tracing off.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> usize {
        0
    }

    #[inline(always)]
    fn end(&mut self, _id: usize) {}

    #[inline(always)]
    fn count(&mut self, _key: &'static str, _value: f64) {}
}

/// Name of the span every route opens around exactly what `e2e_s` times.
pub const ROOT_SPAN: &str = "rep";

/// What one rep produced.
#[derive(Debug, Default)]
pub struct Output {
    /// Seconds from inputs in memory to final labels (serve: seed + stream +
    /// query wall).
    pub e2e_s: f64,
    /// One label per labelled read, in input order. Pig has two labelings
    /// (hierarchical, greedy), every other route one.
    pub labelings: Vec<Vec<u64>>,
    /// Failed operations: what the route itself saw go wrong (a refused
    /// submit, an unparsable Pig row, …) plus what the output checks add.
    pub problems: Problems,
    /// Stage reports of the run (Pig route).
    pub pipeline: Option<Pipeline>,
    /// W.Acc of each labeling against the generator's truth, in percent;
    /// filled in by the output checks.
    pub accuracy: Vec<f64>,
    /// Serve only.
    pub serve: Option<ServeOutput>,
}

/// A count of failed operations with the first few described.
#[derive(Debug, Default)]
pub struct Problems {
    /// How many operations failed.
    pub count: u64,
    /// Descriptions of the first eight.
    pub first: Vec<String>,
}

impl Problems {
    /// Record one failed operation.
    pub fn push(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what());
        }
    }
}

/// Request-level results of `serve_seed_stream`.
#[derive(Debug, Default)]
pub struct ServeOutput {
    /// Wall of `seed_from_batch`.
    pub seed_s: f64,
    /// Wall of the closed-loop submit stream.
    pub stream_s: f64,
    /// Seconds per `submit`.
    pub submit_latencies: Vec<f64>,
    /// Seconds per `query`.
    pub query_latencies: Vec<f64>,
    /// Requests sent (seed, submits, queries, shutdown).
    pub requests: u64,
    /// Clusters right after seeding.
    pub seeded_clusters: u64,
    /// The session's counters after the last query.
    pub stats: Option<SessionStats>,
    /// The daemon's own metrics after the last query.
    pub metrics: Option<MetricsSnapshot>,
}

/// Run one untraced rep of `input`'s workload.
pub fn run(input: &Input) -> Output {
    match input.workload {
        Workload::PigAlgorithm3 => run_pig(input, &mut NoSpans),
        Workload::ServeSeedStream => run_serve(input, &mut NoSpans),
        _ => run_native(input),
    }
}

fn run_native(input: &Input) -> Output {
    let runner = MrMcMinH::new(input.workload.mrmc_config());
    let start = Instant::now();
    let reads = read_fasta_bytes(&input.fasta).expect("generated FASTA parses");
    let result = runner.run(&reads).expect("fault-free run");
    let labels: Vec<u64> = result
        .assignment
        .labels()
        .iter()
        .map(|&l| l as u64)
        .collect();
    let e2e_s = start.elapsed().as_secs_f64();
    Output {
        e2e_s,
        labelings: vec![labels],
        ..Output::default()
    }
}

/// A fresh two-node DFS with the block size the Pig bench bins use.
fn pig_dfs() -> Arc<Dfs> {
    Arc::new(
        Dfs::new(DfsConfig {
            block_size: 64 * 1024,
            replication: 1,
            nodes: 2,
        })
        .expect("valid DFS config"),
    )
}

/// The UDF registry Algorithm 3 needs.
fn pig_registry() -> UdfRegistry {
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    registry
}

/// `pig_algorithm3`: DFS put, script parse, `PigRunner::run`, DFS read of
/// both STORE outputs.
pub fn run_pig(input: &Input, spans: &mut impl Spans) -> Output {
    let start = Instant::now();
    let root = spans.begin(ROOT_SPAN);
    let dfs = pig_dfs();
    let span = spans.begin("Dfs::put");
    dfs.put(PIG_INPUT, input.fasta.clone(), false)
        .expect("fresh DFS accepts the input");
    spans.count("bytes", input.fasta.len() as f64);
    spans.end(span);
    let span = spans.begin("parse_script");
    let script = parse_script(algorithm3_script(), &pig_params()).expect("Algorithm 3 parses");
    spans.end(span);
    let runner = PigRunner::new(Arc::clone(&dfs), pig_registry());
    let span = spans.begin("PigRunner::run");
    let report = runner.run(&script).expect("Algorithm 3 runs");
    spans.end(span);
    let span = spans.begin("Dfs::read");
    let stored = PIG_OUTPUTS.map(|path| dfs.read(path).expect("STORE output exists"));
    spans.count(
        "bytes",
        stored.iter().map(|b| b.len()).sum::<usize>() as f64,
    );
    spans.end(span);
    spans.end(root);
    let e2e_s = start.elapsed().as_secs_f64();

    let mut out = Output {
        e2e_s,
        pipeline: Some(report.pipeline),
        ..Output::default()
    };
    for (path, bytes) in PIG_OUTPUTS.iter().zip(&stored) {
        let labels = parse_pig_labels(input, path, bytes, &mut out.problems);
        out.labelings.push(labels);
    }
    out
}

/// Turn a STORE output (`(readid,label)` rows) into one label per input
/// read; rows that do not parse, unknown ids and ids labelled twice or never
/// are recorded in `problems`.
fn parse_pig_labels(input: &Input, path: &str, bytes: &[u8], problems: &mut Problems) -> Vec<u64> {
    let index: std::collections::HashMap<&str, usize> = input
        .reads
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut labels: Vec<Option<u64>> = vec![None; input.reads.len()];
    for line in String::from_utf8_lossy(bytes).lines() {
        let row = line
            .strip_prefix('(')
            .and_then(|l| l.strip_suffix(')'))
            .and_then(|l| l.rsplit_once(','))
            .and_then(|(id, label)| Some((index.get(id)?, label.parse::<u64>().ok()?)));
        match row {
            Some((&i, label)) if labels[i].is_none() => labels[i] = Some(label),
            Some((&i, _)) => {
                problems.push(|| format!("{path}: {} labelled twice", input.reads[i].id))
            }
            None => problems.push(|| format!("{path}: unreadable row {line:?}")),
        }
    }
    for (read, _) in input.reads.iter().zip(&labels).filter(|(_, l)| l.is_none()) {
        problems.push(|| format!("{path}: {} never labelled", read.id));
    }
    labels.into_iter().map(|l| l.unwrap_or(u64::MAX)).collect()
}

/// An in-process daemon with the default two workers, and one client
/// connection bound to [`TENANT`].
fn serve_start() -> (ServerHandle, Client) {
    let server = Server::spawn(&ServerConfig::default(), Arc::new(Tracer::new()))
        .expect("binding a loopback port");
    let client = Client::connect(server.addr(), TENANT).expect("connecting to the daemon");
    (server, client)
}

/// The read id the `i`-th query of a rep asks for: a fixed stride over the
/// streamed reads, so queries do not follow submission order.
fn query_target(i: usize, streamed: usize) -> usize {
    (i * 7919) % streamed
}

/// `serve_seed_stream`: seed, closed-loop submits, closed-loop queries on
/// one connection; then stats, shutdown and join outside the timed region.
pub fn run_serve(input: &Input, spans: &mut impl Spans) -> Output {
    let (batch, stream) = input.reads.split_at(input.seed_reads);
    let (server, mut client) = serve_start();
    let mut serve = ServeOutput::default();
    let mut problems = Problems::default();
    let mut labels: Vec<u64> = Vec::with_capacity(stream.len());

    let start = Instant::now();
    let root = spans.begin(ROOT_SPAN);
    let span = spans.begin("seed_from_batch");
    serve.requests += 1;
    match client.seed_from_batch(&seed_config(), batch) {
        Ok(clusters) => serve.seeded_clusters = clusters,
        Err(e) => problems.push(|| format!("seed_from_batch: {e}")),
    }
    spans.end(span);
    serve.seed_s = start.elapsed().as_secs_f64();

    let stream_start = Instant::now();
    for chunk in stream.chunks(SUBMIT_BATCH) {
        let span = spans.begin("submit");
        let sent = Instant::now();
        let outcome = client.submit(chunk);
        serve.submit_latencies.push(sent.elapsed().as_secs_f64());
        spans.end(span);
        serve.requests += 1;
        match outcome {
            Ok(SubmitOutcome::Labels(l)) if l.len() == chunk.len() => labels.extend(l),
            other => {
                problems.push(|| format!("submit: {other:?}"));
                labels.extend(std::iter::repeat_n(u64::MAX, chunk.len()));
            }
        }
    }
    serve.stream_s = stream_start.elapsed().as_secs_f64();

    for i in 0..input.queries {
        let target = query_target(i, stream.len());
        let span = spans.begin("query");
        let sent = Instant::now();
        let answer = client.query(&stream[target].id);
        serve.query_latencies.push(sent.elapsed().as_secs_f64());
        spans.end(span);
        serve.requests += 1;
        if !matches!(answer, Ok(Some(label)) if label == labels[target]) {
            problems.push(|| {
                format!(
                    "query {}: {answer:?}, submit said {}",
                    stream[target].id, labels[target]
                )
            });
        }
    }
    spans.end(root);
    let e2e_s = start.elapsed().as_secs_f64();

    serve.stats = client.stats().ok();
    serve.metrics = client.server_stats().ok();
    serve.requests += 1;
    match client.shutdown() {
        Ok(0) => {}
        other => problems.push(|| format!("shutdown drained {other:?}, expected 0")),
    }
    server.join();

    Output {
        e2e_s,
        labelings: vec![labels],
        problems,
        serve: Some(serve),
        ..Output::default()
    }
}
