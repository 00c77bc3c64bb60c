//! `chaos_report` — the recovery matrix of the fault-injection runtime.
//!
//! Sweeps fault type × intensity over three subjects:
//!
//! * the full MrMC-MinH hierarchical pipeline (task panics, stragglers,
//!   node deaths — output must stay **bit-identical** to a clean run);
//! * a shuffle-bearing Map-Reduce job (fetch failures below and above
//!   the engine's retry limit);
//! * the DFS (scheduled replica corruption, detected by checksum and
//!   healed from a surviving replica).
//!
//! Each cell records: did the run complete, is its output identical to
//! the fault-free baseline, the wall-clock overhead ratio, and the
//! recovery ledger. A determinism probe re-runs a seeded random plan
//! and demands identical counters *and* a byte-identical metrics
//! snapshot (`Pipeline::export_metrics` rendered as text). The JSON
//! matrix — including the probe's full `engine.*` snapshot — goes to
//! stdout (and, with `--json <path>`, to a file); any unrecovered
//! cell or a non-deterministic ledger/snapshot makes the process exit
//! non-zero, which is what the CI `chaos-smoke` step checks.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin chaos_report -- --seed 7
//! ```

use std::sync::Arc;
use std::time::Instant;

use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_bench::HarnessArgs;
use mrmc_mapreduce::chaos::{ChaosProfile, FaultPlan, Phase};
use mrmc_mapreduce::{
    Dfs, DfsConfig, JobConfig, Mapper, Pipeline, RecoveryCounters, Reducer, ShuffleSized,
    TaskContext,
};
use mrmc_obs::json::Json;
use mrmc_simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};

/// A pipeline whose every stage runs under `plan`'s faults.
fn chaos_pipeline(plan: FaultPlan) -> Pipeline {
    Pipeline::new("chaos").with_faults(Arc::new(plan.injector()))
}

/// One entry of the recovery matrix.
struct Cell {
    subject: &'static str,
    fault: &'static str,
    intensity: String,
    completed: bool,
    identical: bool,
    /// Faulty wall-clock over clean wall-clock (≥ 1 in expectation;
    /// jittery for sub-millisecond subjects — informational only).
    overhead: f64,
    recovery: RecoveryCounters,
    /// Similarity evaluations the faulty run performed.
    pairs_computed: u64,
    /// Candidate pairs the banded stages emitted (0 off the banded path).
    candidates_emitted: u64,
    /// Shuffle volume of the faulty run, payload bytes.
    shuffle_bytes: u64,
    /// Sorted map-side runs the faulty run's reducers fetched.
    shuffle_runs: u64,
}

impl Cell {
    fn recovered(&self) -> bool {
        self.completed && self.identical
    }

    fn to_json(&self) -> Json {
        let r = &self.recovery;
        Json::obj([
            ("subject", Json::from(self.subject)),
            ("fault", self.fault.into()),
            ("intensity", self.intensity.as_str().into()),
            ("completed", self.completed.into()),
            ("identical", self.identical.into()),
            ("overhead", Json::fixed(self.overhead, 3)),
            (
                "recovery",
                Json::obj([
                    ("tasks_retried", Json::from(r.tasks_retried)),
                    (
                        "maps_reexecuted_node_loss",
                        r.maps_reexecuted_node_loss.into(),
                    ),
                    (
                        "maps_reexecuted_fetch_fail",
                        r.maps_reexecuted_fetch_fail.into(),
                    ),
                    ("speculative_wins", r.speculative_wins.into()),
                    ("shuffle_fetch_retries", r.shuffle_fetch_retries.into()),
                    ("blocks_rereplicated", r.blocks_rereplicated.into()),
                    (
                        "corrupt_replicas_detected",
                        r.corrupt_replicas_detected.into(),
                    ),
                ]),
            ),
            (
                "counters",
                Json::obj([
                    ("pairs_computed", Json::from(self.pairs_computed)),
                    ("candidates_emitted", self.candidates_emitted.into()),
                    ("shuffle_bytes", self.shuffle_bytes.into()),
                    ("shuffle_runs", self.shuffle_runs.into()),
                ]),
            ),
        ])
    }
}

fn two_species(n: usize, seed: u64) -> Vec<mrmc_seqio::SeqRecord> {
    let spec = CommunitySpec {
        species: vec![
            SpeciesSpec {
                name: "a".into(),
                gc: 0.40,
                abundance: 1.0,
            },
            SpeciesSpec {
                name: "b".into(),
                gc: 0.60,
                abundance: 1.0,
            },
        ],
        rank: TaxRank::Phylum,
        genome_len: 50_000,
    };
    let sim = ReadSimulator::new(800, ErrorModel::with_total_rate(0.002));
    spec.generate("chaos", n, &sim, seed).reads
}

fn mrmc_config() -> MrMcConfig {
    MrMcConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.55,
        mode: Mode::Hierarchical,
        map_tasks: 4,
        ..Default::default()
    }
}

/// Run the full pipeline under `plan` and compare against the clean
/// baseline.
fn pipeline_cell(
    fault: &'static str,
    intensity: impl Into<String>,
    reads: &[mrmc_seqio::SeqRecord],
    clean: &mrmc::MrMcResult,
    clean_secs: f64,
    plan: FaultPlan,
) -> Cell {
    let runner = MrMcMinH::new(mrmc_config());
    let t = Instant::now();
    let run = runner.run_on(reads, chaos_pipeline(plan));
    let secs = t.elapsed().as_secs_f64();
    let (completed, identical, recovery, counters) = match &run {
        Ok(r) => (
            true,
            r.assignment == clean.assignment && r.dendrogram == clean.dendrogram,
            r.recovery(),
            (
                r.pipeline.counter_total("PAIRS_COMPUTED"),
                r.pipeline.counter_total("CANDIDATES_EMITTED"),
                r.pipeline.total_shuffle().bytes,
                r.pipeline.total_shuffle().runs,
            ),
        ),
        Err(_) => (false, false, RecoveryCounters::new(), (0, 0, 0, 0)),
    };
    Cell {
        subject: "mrmc-pipeline",
        fault,
        intensity: intensity.into(),
        completed,
        identical,
        overhead: secs / clean_secs.max(1e-9),
        recovery,
        pairs_computed: counters.0,
        candidates_emitted: counters.1,
        shuffle_bytes: counters.2,
        shuffle_runs: counters.3,
    }
}

/// The banded hierarchical pipeline under faults aimed at its
/// *reducers* (the dense MrMC stages are map-only and a greedy run
/// stops after the sketch stage, so this is the only subject with a
/// reduce-phase recovery surface). The run must match its own clean
/// banded baseline; that the baseline equals dense where the exactness
/// contract says so is `routes_agree`'s job (`crates/testkit`), not
/// this report's.
fn banded_cell(
    fault: &'static str,
    intensity: impl Into<String>,
    reads: &[mrmc_seqio::SeqRecord],
    plan: FaultPlan,
) -> Cell {
    let runner = MrMcMinH::new(mrmc_config().banded());
    let t = Instant::now();
    let clean = runner.run(reads).expect("clean banded run");
    let clean_secs = t.elapsed().as_secs_f64().max(1e-9);

    let t = Instant::now();
    let run = runner.run_on(reads, chaos_pipeline(plan));
    let secs = t.elapsed().as_secs_f64();
    let (completed, identical, recovery, counters) = match &run {
        Ok(r) => (
            true,
            r.assignment == clean.assignment && r.dendrogram == clean.dendrogram,
            r.recovery(),
            (
                r.pipeline.counter_total("PAIRS_COMPUTED"),
                r.pipeline.counter_total("CANDIDATES_EMITTED"),
                r.pipeline.total_shuffle().bytes,
                r.pipeline.total_shuffle().runs,
            ),
        ),
        Err(_) => (false, false, RecoveryCounters::new(), (0, 0, 0, 0)),
    };
    Cell {
        subject: "banded-pipeline",
        fault,
        intensity: intensity.into(),
        completed,
        identical,
        overhead: secs / clean_secs,
        recovery,
        pairs_computed: counters.0,
        candidates_emitted: counters.1,
        shuffle_bytes: counters.2,
        shuffle_runs: counters.3,
    }
}

// A shuffle-bearing job so fetch faults have a shuffle to disturb
// (the MrMC stages are map-only).
struct Tokenize;
impl Mapper for Tokenize {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: usize, v: String, ctx: &mut TaskContext<String, u64>) {
        for w in v.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }

    // String keys are heap-backed: charge their real payload width.
    fn key_wire_size(&self, key: &String) -> usize {
        key.shuffle_size()
    }

    fn value_wire_size(&self, value: &u64) -> usize {
        value.shuffle_size()
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

fn wordcount_input() -> Vec<(usize, String)> {
    (0..32)
        .map(|i| (i, format!("read{} maps to sketch{} twice twice", i, i % 7)))
        .collect()
}

fn wordcount_config() -> JobConfig {
    JobConfig::named("chaos-wc")
        .reducers(4)
        .attempts(4)
        .nodes(8)
}

fn shuffle_cell(fault: &'static str, intensity: impl Into<String>, plan: FaultPlan) -> Cell {
    let input = wordcount_input();
    let t = Instant::now();
    let mut expect = Pipeline::new("clean")
        .run_stage(input.clone(), 8, &Tokenize, &Sum, &wordcount_config())
        .expect("clean word count");
    let clean_secs = t.elapsed().as_secs_f64();
    expect.sort();

    let t = Instant::now();
    let mut chaotic = chaos_pipeline(plan);
    let run = chaotic.run_stage(input, 8, &Tokenize, &Sum, &wordcount_config());
    let secs = t.elapsed().as_secs_f64();
    let (completed, identical, recovery, shuffle_bytes, shuffle_runs) = match run {
        Ok(mut got) => {
            got.sort();
            let report = &chaotic.stages()[0];
            (
                true,
                got == expect,
                report.recovery,
                report.shuffled_bytes,
                report.shuffle_runs,
            )
        }
        Err(_) => (false, false, RecoveryCounters::new(), 0, 0),
    };
    Cell {
        subject: "wordcount-job",
        fault,
        intensity: intensity.into(),
        completed,
        identical,
        overhead: secs / clean_secs.max(1e-9),
        recovery,
        pairs_computed: 0,
        candidates_emitted: 0,
        shuffle_bytes,
        shuffle_runs,
    }
}

fn dfs_cell(intensity: impl Into<String>, corruptions: &[(usize, usize)]) -> Cell {
    // 3 blocks of 16 bytes, replication 3 on 6 nodes.
    let payload: Vec<u8> = (0..48u8).collect();
    let mut plan = FaultPlan::new();
    for &(block, replica) in corruptions {
        plan = plan.corrupt_replica("/chaos/data", block, replica);
    }
    let dfs = Dfs::with_injector(
        DfsConfig {
            block_size: 16,
            replication: 3,
            nodes: 6,
        },
        Arc::new(plan.injector()),
    )
    .expect("dfs config");
    dfs.put("/chaos/data", payload.clone(), false)
        .expect("dfs put");
    let read = dfs.read("/chaos/data");
    let (completed, identical) = match &read {
        Ok(bytes) => (true, bytes.as_ref() == payload.as_slice()),
        Err(_) => (false, false),
    };
    Cell {
        subject: "dfs",
        fault: "replica_corruption",
        intensity: intensity.into(),
        completed,
        identical,
        overhead: 1.0,
        recovery: dfs.recovery(),
        pairs_computed: 0,
        candidates_emitted: 0,
        shuffle_bytes: 0,
        shuffle_runs: 0,
    }
}

fn main() {
    // Injected task panics are caught and retried by the engine; keep
    // their backtraces out of the report. Anything else still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("chaos: injected panic"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let args = HarnessArgs::parse(1.0);
    let num_reads = ((40.0 * args.scale).round() as usize).max(12);
    let reads = two_species(num_reads, args.seed);

    eprintln!("chaos_report: {num_reads} reads, seed {}", args.seed);
    let runner = MrMcMinH::new(mrmc_config());
    let t = Instant::now();
    let clean = runner.run(&reads).expect("clean pipeline run");
    let clean_secs = t.elapsed().as_secs_f64();
    assert!(
        clean.recovery().is_clean(),
        "fault-free baseline must report a clean ledger"
    );

    let mut cells: Vec<Cell> = vec![
        // Pipeline: task panics (job 0 = sketch, job 1 = similarity).
        pipeline_cell(
            "task_panic",
            "1 panic, 2 failed attempts",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new().task_panic(0, Phase::Map, 1, 2),
        ),
        pipeline_cell(
            "task_panic",
            "2 panics per stage",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new()
                .task_panic(0, Phase::Map, 0, 2)
                .task_panic(0, Phase::Map, 2, 1)
                .task_panic(1, Phase::Map, 1, 2)
                .task_panic(1, Phase::Map, 3, 1),
        ),
        // Pipeline: stragglers → speculative backups.
        pipeline_cell(
            "straggler",
            "1 × 20 ms",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new().task_slowdown(0, Phase::Map, 2, 20),
        ),
        pipeline_cell(
            "straggler",
            "1 per stage × 20 ms",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new()
                .task_slowdown(0, Phase::Map, 0, 20)
                .task_slowdown(1, Phase::Map, 1, 20),
        ),
        // Pipeline: node death at the map→reduce barrier.
        pipeline_cell(
            "node_death",
            "1 node of 8, sketch stage",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new().node_death_after_map(0, 3),
        ),
        pipeline_cell(
            "node_death",
            "1 node of 8, similarity stage",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new().node_death_after_map(1, 5),
        ),
        // Pipeline: everything at once.
        pipeline_cell(
            "combined",
            "panic + straggler + node death",
            &reads,
            &clean,
            clean_secs,
            FaultPlan::new()
                .task_panic(0, Phase::Map, 1, 2)
                .task_slowdown(1, Phase::Map, 0, 15)
                .node_death_after_map(0, 2),
        ),
        // Banded candidate pipeline: reduce-phase panics in the bucket
        // and dedup reducers (jobs: 0 sketch, 1 band-signatures,
        // 2 candidate-dedup, 3 verify).
        banded_cell(
            "task_panic",
            "bucket reducer, 2 failed attempts",
            &reads,
            FaultPlan::new().task_panic(1, Phase::Reduce, 0, 2),
        ),
        banded_cell(
            "task_panic",
            "bucket + dedup reducers + verify map",
            &reads,
            FaultPlan::new()
                .task_panic(1, Phase::Reduce, 1, 2)
                .task_panic(2, Phase::Reduce, 0, 1)
                .task_panic(3, Phase::Map, 0, 1),
        ),
        // Shuffle fetch failures (needs a reduce phase).
        shuffle_cell(
            "shuffle_fetch",
            "2 failures (≤ retry limit)",
            FaultPlan::new().shuffle_fetch_fail(0, 1, 2, 2),
        ),
        shuffle_cell(
            "shuffle_fetch",
            "5 failures (forces map re-execution)",
            FaultPlan::new().shuffle_fetch_fail(0, 3, 0, 5),
        ),
        // DFS replica corruption.
        dfs_cell("1 replica of 1 block", &[(1, 0)]),
        dfs_cell("1 replica in each of 2 blocks", &[(0, 2), (2, 1)]),
    ];

    // -- Determinism probe: a seeded random plan, run twice. --
    let profile = ChaosProfile::default();
    let plan = FaultPlan::random(args.seed, &profile);
    let a = pipeline_cell(
        "random_plan",
        format!("seed {}", args.seed),
        &reads,
        &clean,
        clean_secs,
        plan.clone(),
    );
    let b = pipeline_cell(
        "random_plan",
        format!("seed {} (replay)", args.seed),
        &reads,
        &clean,
        clean_secs,
        plan.clone(),
    );
    let deterministic = a.recovery == b.recovery && a.recovered() && b.recovered();
    cells.push(a);
    cells.push(b);

    // The same probe through the metrics plane: exporting the seeded
    // plan's pipeline into a registry twice must render byte-identical
    // snapshots (engine keys carry no wall-clock, so a fixed plan
    // pins every counter and histogram bucket).
    let snapshot_of = |plan: FaultPlan| {
        let run = MrMcMinH::new(mrmc_config())
            .run_on(&reads, chaos_pipeline(plan))
            .expect("seeded chaos run for metrics snapshot");
        let registry = mrmc_obs::MetricsRegistry::new();
        run.pipeline.export_metrics(&registry);
        registry.snapshot()
    };
    let snapshot = snapshot_of(plan.clone());
    let snapshots_identical = snapshot.render_text() == snapshot_of(plan).render_text();

    // Human-readable matrix on stderr.
    eprintln!(
        "\n{:<14} {:<19} {:<38} {:>5} {:>5} {:>9} {:>7}",
        "subject", "fault", "intensity", "ok", "same", "overhead", "events"
    );
    for c in &cells {
        eprintln!(
            "{:<14} {:<19} {:<38} {:>5} {:>5} {:>8.2}x {:>7}",
            c.subject,
            c.fault,
            c.intensity,
            c.completed,
            c.identical,
            c.overhead,
            c.recovery.total_events()
        );
    }
    eprintln!(
        "\nledger determinism across identical plans: {}",
        if deterministic { "OK" } else { "VIOLATED" }
    );
    eprintln!(
        "metrics-snapshot determinism across identical plans: {}",
        if snapshots_identical {
            "OK"
        } else {
            "VIOLATED"
        }
    );

    // JSON matrix on stdout.
    let all_recovered = cells.iter().all(Cell::recovered);
    let doc = Json::obj([
        ("seed", Json::from(args.seed)),
        ("reads", num_reads.into()),
        ("deterministic", deterministic.into()),
        ("metrics_deterministic", snapshots_identical.into()),
        ("all_recovered", all_recovered.into()),
        ("cells", Json::arr(cells.iter().map(Cell::to_json))),
        ("metrics", snapshot.to_json()),
    ]);
    println!("{}", doc.pretty());
    if let Some(path) = &args.json {
        mrmc_obs::json::write_file(path, &doc);
        eprintln!("wrote recovery matrix to {path}");
    }

    // With `--trace`, replay the combined-fault cell with a tracer
    // attached and dump the span ledger as a Chrome trace: the
    // recovery actions the matrix counts, as a timeline.
    if let Some(path) = &args.trace {
        use mrmc_mapreduce::{chrome_trace, Tracer};
        let tracer = Arc::new(Tracer::new());
        let plan = FaultPlan::new()
            .task_panic(0, Phase::Map, 1, 2)
            .task_slowdown(1, Phase::Map, 0, 15)
            .node_death_after_map(0, 2);
        let traced = MrMcMinH::new(mrmc_config())
            .run_on(&reads, chaos_pipeline(plan).traced(tracer.clone()))
            .expect("traced combined-fault run");
        assert_eq!(
            traced.assignment, clean.assignment,
            "tracing must not perturb recovery"
        );
        std::fs::write(path, chrome_trace(&tracer.ledger()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote Chrome trace of the combined-fault run to {path}");
    }

    if !all_recovered || !deterministic || !snapshots_identical {
        eprintln!(
            "chaos_report: FAILURE — faults not recovered bit-identically \
             or a seeded plan produced diverging ledgers/snapshots"
        );
        std::process::exit(1);
    }
    eprintln!("chaos_report: all injected faults recovered with identical output");
}
