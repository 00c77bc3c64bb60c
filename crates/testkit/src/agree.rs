//! The `routes_agree` identity harness: one community through every
//! route, held to each identity the design promises (DESIGN.md §3b,
//! §5c, §5d):
//!
//! * P1, dereplication is invisible: every native arm equals its route
//!   over per-read sketches with no grouping.
//! * P2, banded as promised: greedy banded equals greedy dense, the
//!   single- and complete-linkage banded θ-cut the dense one, and every
//!   banded run is `agglomerative` over the zero-filled θ-graph.
//! * P3, one Algorithm 1: native greedy, the `greedy_cluster` scan, an
//!   `IncrementalClusterer` seeded from a prefix run, the daemon over
//!   loopback and Pig's `L` label the reads alike.
//! * P4, Pig equals native: Pig's `K` is the dense run over the reads
//!   that hold a k-mer (the script drops the others).
//! * P5, faults are invisible: a drawn recoverable `FaultPlan` on the
//!   pipeline, or replica rot on Pig's DFS, leaves the output as it was
//!   and the recovery counters the plan's.
//!
//! A [`Case`] is one draw; [`Case::check`] asserts P1–P5 on it. The
//! property test `tests/routes_agree.rs` draws cases, and the root
//! package's `tests/routes_agree_smoke.rs` runs a fixed handful.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::community::community;
use crate::linkage::{expand, same_hierarchy};
use crate::routes::{greedy_scan, pig_labels, with_kmer, Ungrouped};
use mrmc::stages::{dereplicate, sketch_distinct_stage, sketch_stage};
use mrmc::{banded_graph_stage, IncrementalClusterer, Mode, MrMcConfig, MrMcMinH, MrMcResult};
use mrmc_cluster::{agglomerative, cut_dendrogram, ClusterAssignment, CondensedMatrix, Linkage};
use mrmc_mapreduce::chaos::{ChaosProfile, FaultKind, FaultPlan, Phase};
use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::obs::Tracer;
use mrmc_mapreduce::pipeline::{Pipeline, StageReport};
use mrmc_seqio::SeqRecord;
use mrmc_server::{AdmissionLimits, Client, SeedConfig, Server, ServerConfig, ServerHandle};

/// The three linkages, in the order the arms run them.
pub const LINKAGES: [Linkage; 3] = [Linkage::Single, Linkage::Average, Linkage::Complete];

/// Virtual nodes and attempts of every native stage (`JobConfig`'s
/// default nodes, the stages' `attempts(4)`).
const NODES: usize = 8;
const ATTEMPTS: usize = 4;

/// Index of an arm among the eight native arms: greedy dense and
/// banded first, then each linkage's dense and banded hierarchical run.
fn arm(mode: Mode, linkage: Linkage, banded: bool) -> usize {
    let at = LINKAGES
        .iter()
        .position(|&l| l == linkage)
        .expect("a linkage");
    usize::from(banded) + if mode == Mode::Greedy { 0 } else { 2 + 2 * at }
}

fn arm_config(base: MrMcConfig, arm: usize) -> MrMcConfig {
    let cfg = match arm {
        0 | 1 => base.greedy(),
        _ => MrMcConfig {
            linkage: LINKAGES[(arm - 2) / 2],
            ..base.hierarchical()
        },
    };
    if arm % 2 == 1 {
        cfg.banded()
    } else {
        cfg.dense()
    }
}

/// P1 on every arm; returns the runs in `arm` order: greedy dense and
/// banded, then each of [`LINKAGES`]' dense and banded run.
pub fn dereplication_is_invisible(
    reads: &[SeqRecord],
    base: MrMcConfig,
    oracle: &Ungrouped,
) -> Vec<MrMcResult> {
    let lifted = sketch_stage(reads, &base, &mut Pipeline::new("lift")).expect("sketch stage");
    assert_eq!(lifted, oracle.sketches, "P1 sketches per read");
    let derep = dereplicate(reads).expect("ids fit");
    let mut p = Pipeline::new("distinct");
    let distinct = sketch_distinct_stage(reads, &derep, &base, &mut p).expect("sketch stage");
    let graph = banded_graph_stage(&distinct, &base.banded(), &mut p).expect("banded stages");
    let expanded = expand(&graph, &derep);
    assert_eq!(expanded, oracle.graph, "P1 expanded θ-graph");
    (0..8)
        .map(|i| {
            let cfg = arm_config(base, i);
            let run = MrMcMinH::new(cfg).run(reads).expect("run");
            let (assignment, dendrogram) = oracle.oracle_run(&cfg);
            let what = format!("P1 {:?} {:?} {:?}", cfg.mode, cfg.candidates, cfg.linkage);
            assert_eq!(run.assignment, assignment, "{what}: assignment");
            match (&run.dendrogram, &dendrogram) {
                (Some(run), Some(oracle)) => same_hierarchy(run, oracle, &what),
                (run, oracle) => assert_eq!(run, oracle, "{what}: dendrogram"),
            }
            run
        })
        .collect()
}

/// P2 over the runs [`dereplication_is_invisible`] returns. Single
/// linkage's θ-cut is the components of the pairs ≥ θ. Complete
/// linkage's is that only while no two merges in [θ, 1) tie: a tie's
/// order follows the NN-chain's path, which reads the sub-θ values the
/// banded graph prunes.
pub fn banded_as_promised(theta: f64, runs: &[MrMcResult], oracle: &Ungrouped) {
    assert_eq!(runs[1].assignment, runs[0].assignment, "P2 greedy banded");
    let graph = &oracle.graph;
    let zero_filled = CondensedMatrix::build(graph.len(), |i, j| graph.sim(i, j));
    let tied = |run: &MrMcResult| {
        let heights = run.dendrogram.as_ref().expect("hierarchical").heights();
        let mut h: Vec<f64> = heights
            .into_iter()
            .filter(|&h| h >= theta && h < 1.0)
            .collect();
        h.sort_by(f64::total_cmp);
        h.windows(2).any(|w| w[0] == w[1])
    };
    for (linkage, pair) in LINKAGES.iter().zip(runs[2..].chunks(2)) {
        let (dense, banded) = (&pair[0], &pair[1]);
        let exact = match linkage {
            Linkage::Single => true,
            Linkage::Complete => !tied(dense) && !tied(banded),
            Linkage::Average => false,
        };
        if exact {
            assert_eq!(banded.assignment, dense.assignment, "P2 {linkage:?}: θ-cut");
        }
        let (assignment, dendrogram) = agglomerative(&zero_filled, *linkage, theta);
        let what = format!("P2 {linkage:?} zero-filled");
        assert_eq!(banded.assignment, assignment.compact(), "{what}");
        same_hierarchy(banded.dendrogram.as_ref().expect("run"), &dendrogram, &what);
        let below = Some(cut_dendrogram(&dendrogram, theta / 2.0).compact());
        assert_eq!(banded.cut_at(theta / 2.0), below, "{what}: sub-θ cut");
    }
}

/// The daemon's labels, on a tenant of its own: seeded from
/// `reads[..split]`, each seed read queried by id, the rest submitted in
/// micro-batches of `chunk`.
fn served_labels(reads: &[SeqRecord], cfg: &MrMcConfig, split: usize, chunk: usize) -> Vec<usize> {
    static DAEMON: OnceLock<ServerHandle> = OnceLock::new();
    static TENANTS: AtomicUsize = AtomicUsize::new(0);
    let daemon = DAEMON.get_or_init(|| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: AdmissionLimits::default(),
        };
        Server::spawn(&config, Arc::new(Tracer::new())).expect("bind loopback")
    });
    let tenant = format!("case{}", TENANTS.fetch_add(1, Ordering::Relaxed));
    let mut client = Client::connect(daemon.addr(), &tenant).expect("connect");
    let seed = SeedConfig {
        kmer: cfg.kmer as u64,
        num_hashes: cfg.num_hashes as u64,
        theta: cfg.theta,
        greedy: true,
        seed: cfg.seed,
    };
    let (batch, streamed) = reads.split_at(split);
    client.seed_from_batch(&seed, batch).expect("seed");
    let mut labels: Vec<u64> = batch
        .iter()
        .map(|r| client.query(&r.id).expect("query").expect("seeded id"))
        .collect();
    for part in streamed.chunks(chunk) {
        labels.extend(client.submit_labels(part).expect("submit"));
    }
    labels.into_iter().map(|l| l as usize).collect()
}

/// P3: `greedy` is native greedy's assignment over `reads`.
fn one_algorithm_1(
    reads: &[SeqRecord],
    cfg: MrMcConfig,
    oracle: &Ungrouped,
    greedy: &ClusterAssignment,
    (split, chunk): (usize, usize),
) {
    let cfg = cfg.greedy();
    let scan = greedy_scan(&oracle.sketches, cfg.theta);
    assert_eq!(&scan, greedy, "P3 greedy_cluster scan");
    let (batch, streamed) = reads.split_at(split);
    let seeded = MrMcMinH::new(cfg).run(batch).expect("prefix run");
    let mut inc = IncrementalClusterer::from_run(cfg, batch, &seeded).expect("from_run");
    let mut labels = seeded.assignment.labels().to_vec();
    labels.extend(streamed.iter().map(|r| inc.push(r).expect("push")));
    let incremental = ClusterAssignment::from_labels(labels).compact();
    assert_eq!(&incremental, greedy, "P3 incremental, split {split}");
    let served = ClusterAssignment::from_labels(served_labels(reads, &cfg, split, chunk));
    assert_eq!(&served.compact(), greedy, "P3 daemon, split {split}");
}

/// P3's Pig `L` and P4's Pig `K` from one run, on a DFS whose input
/// blocks in `corrupt` each lose one replica (P5's Pig half). `runs`
/// are the native side when every read holds a k-mer; a read set with
/// none stores two empty outputs.
pub fn pig_equals_native(
    reads: &[SeqRecord],
    cfg: MrMcConfig,
    runs: &[MrMcResult],
    corrupt: &BTreeSet<usize>,
) {
    let plan = corrupt.iter().fold(FaultPlan::new(), |plan, &block| {
        plan.corrupt_replica("/in.fa", block, block % 2)
    });
    let config = DfsConfig {
        block_size: 4 * 1024,
        replication: 2,
        nodes: 3,
    };
    let dfs = Arc::new(Dfs::with_injector(config, Arc::new(plan.injector())).expect("config"));
    let (hier, greedy) = pig_labels(reads, &cfg, &dfs);
    let kept = with_kmer(reads, cfg.kmer);
    let native = |cfg: MrMcConfig| match kept.len() == reads.len() {
        true => runs[arm(cfg.mode, cfg.linkage, false)].assignment.clone(),
        false => MrMcMinH::new(cfg).run(&kept).expect("run").assignment,
    };
    let what = format!("{} of {} reads hold a k-mer", kept.len(), reads.len());
    assert_eq!(greedy.compact(), native(cfg.greedy()), "P3 Pig L, {what}");
    let dense = native(cfg.hierarchical().dense());
    assert_eq!(hier.compact(), dense, "P4 Pig K, {:?}, {what}", cfg.linkage);
    let blocks = dfs.splits("/in.fa").expect("staged").len();
    let hit = corrupt.range(..blocks).count() as u64;
    let recovery = dfs.recovery();
    let observed = (
        recovery.corrupt_replicas_detected,
        recovery.blocks_rereplicated,
    );
    assert_eq!(
        observed,
        (hit, hit),
        "P5 Pig (corrupt replicas, re-replicated blocks)"
    );
}

/// The counters a plan drawn by `FaultPlan::random` leaves, read off
/// the plan and each job's map task count: a task fails as many leading
/// attempts as its largest panic asks, a slowed task whose first attempt
/// does not panic loses to its backup, and a node death re-executes
/// every map task on that node (`task % NODES`).
fn planned_recovery(plan: &FaultPlan, stages: &[StageReport]) -> (u64, u64, u64) {
    let (mut retried, mut wins, mut reexecuted) = (0, 0, 0);
    for (job, stage) in stages.iter().enumerate() {
        let faults = plan
            .faults()
            .iter()
            .filter(|f| f.job.is_none_or(|j| j == job));
        let faults: Vec<&FaultKind> = faults.map(|f| &f.kind).collect();
        for task in 0..stage.map_stats.len() {
            let (mut fails, mut slowed, mut dead) = (0, false, false);
            for fault in &faults {
                match **fault {
                    FaultKind::TaskPanic {
                        phase: Phase::Map,
                        task: t,
                        fail_attempts,
                    } if t == task => fails = fails.max(fail_attempts as u64),
                    FaultKind::TaskSlowdown {
                        phase: Phase::Map,
                        task: t,
                        ..
                    } if t == task => slowed = true,
                    FaultKind::NodeDeathAfterMap { node } if node == task % NODES => dead = true,
                    _ => {}
                }
            }
            retried += fails;
            wins += u64::from(fails == 0 && slowed);
            reexecuted += u64::from(dead);
        }
    }
    (retried, wins, reexecuted)
}

/// P5 on the native route: `cfg`'s run under a drawn recoverable plan,
/// twice, against its clean run.
fn faults_are_invisible(
    reads: &[SeqRecord],
    cfg: MrMcConfig,
    clean: &MrMcResult,
    rng: &mut StdRng,
) {
    let profile = ChaosProfile {
        jobs: clean.pipeline.stages().len(),
        map_tasks: cfg.map_tasks,
        nodes: NODES,
        partitions: cfg.map_tasks,
        task_panics: rng.random_range(0..=3),
        max_fail_attempts: ATTEMPTS - 1,
        slowdowns: rng.random_range(0..=1),
        max_slowdown_ms: 5,
        node_deaths: rng.random_range(0..=2),
        fetch_failures: rng.random_range(0..=2),
    };
    let plan = FaultPlan::random(rng.random(), &profile);
    let run = || {
        let pipeline = Pipeline::new("chaos").with_faults(Arc::new(plan.clone().injector()));
        let run = MrMcMinH::new(cfg).run_on(reads, pipeline);
        run.expect("recoverable plan")
    };
    let what = format!("P5 {:?} {:?} under {plan:?}", cfg.mode, cfg.candidates);
    let (first, second) = (run(), run());
    assert!(clean.recovery().is_clean(), "{what}: the clean run");
    assert_eq!(first.assignment, clean.assignment, "{what}: assignment");
    assert_eq!(first.dendrogram, clean.dendrogram, "{what}: dendrogram");
    let counters = first.recovery();
    assert_eq!(
        counters,
        second.recovery(),
        "{what}: counters of a second run"
    );
    let planned = planned_recovery(&plan, first.pipeline.stages());
    let observed = (
        counters.tasks_retried,
        counters.speculative_wins,
        counters.maps_reexecuted_node_loss,
    );
    assert_eq!(
        observed, planned,
        "{what}: (retried, backup wins, node-loss re-runs)"
    );
}

/// One draw of the harness: a community and the knobs every route runs
/// it at.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Seeds the community and every later draw of the case.
    pub seed: u64,
    /// Reads in the community.
    pub n: usize,
    /// k-mer size.
    pub kmer: usize,
    /// Sketch length.
    pub num_hashes: usize,
    /// Similarity threshold θ.
    pub theta: f64,
    /// The arm P5 runs under faults, with `linkage` and `banded`.
    pub mode: Mode,
    /// Linkage of P4's Pig run and of P5's arm.
    pub linkage: Linkage,
    /// Whether P5's arm is banded.
    pub banded: bool,
    /// Map tasks of every native stage.
    pub map_tasks: usize,
}

impl Case {
    /// P1–P5 on this draw; a failing assertion names the property.
    pub fn check(&self) {
        let reads = community(self.n, self.kmer, self.seed);
        let mut rng = StdRng::seed_from_u64(!self.seed);
        let base = MrMcConfig {
            kmer: self.kmer,
            num_hashes: self.num_hashes,
            theta: self.theta,
            seed: rng.random::<u32>().into(),
            map_tasks: self.map_tasks,
            ..MrMcConfig::default()
        };
        let oracle = Ungrouped::new(&reads, &base);
        let runs = dereplication_is_invisible(&reads, base, &oracle);
        banded_as_promised(self.theta, &runs, &oracle);
        let split = (rng.random_range(0..=reads.len()), rng.random_range(1..=9));
        one_algorithm_1(&reads, base, &oracle, &runs[0].assignment, split);
        let corrupt: BTreeSet<usize> = (0..rng.random_range(0..=3))
            .map(|_| rng.random_range(0..6))
            .collect();
        let cfg = MrMcConfig {
            linkage: self.linkage,
            ..base
        };
        pig_equals_native(&reads, cfg, &runs, &corrupt);
        let at = arm(self.mode, self.linkage, self.banded);
        faults_are_invisible(&reads, arm_config(base, at), &runs[at], &mut rng);
    }
}
