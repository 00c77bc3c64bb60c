//! The chaos acceptance tests: under any single injected node failure
//! or up to two injected task panics per stage, the MrMC-MinH pipeline
//! must complete with **bit-identical** clustering output, and an
//! identical [`FaultPlan`] must yield identical recovery counters on
//! every run.

use std::sync::Arc;

use mrmc::{Mode, MrMcConfig, MrMcMinH, MrMcResult};
use mrmc_mapreduce::chaos::{FaultPlan, Phase, RecoveryCounters};
use mrmc_mapreduce::Pipeline;
use mrmc_seqio::SeqRecord;
use mrmc_simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};

fn two_species(n: usize, seed: u64) -> Vec<SeqRecord> {
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

fn runner() -> MrMcMinH {
    MrMcMinH::new(MrMcConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.55,
        mode: Mode::Hierarchical,
        map_tasks: 4,
        ..Default::default()
    })
}

/// Cluster `reads` with `plan`'s faults injected into every stage.
fn run_under(r: &MrMcMinH, reads: &[SeqRecord], plan: FaultPlan) -> MrMcResult {
    let pipeline = Pipeline::new("chaos").with_faults(Arc::new(plan.injector()));
    r.run_on(reads, pipeline).unwrap()
}

fn assert_identical(chaotic: &MrMcResult, clean: &MrMcResult) {
    assert_eq!(
        chaotic.assignment, clean.assignment,
        "cluster labels drifted"
    );
    assert_eq!(chaotic.dendrogram, clean.dendrogram, "dendrogram drifted");
}

#[test]
fn single_node_death_yields_identical_clustering() {
    let reads = two_species(40, 11);
    let r = runner();
    let clean = r.run(&reads).unwrap();
    // A node death in either stage (job 0 = sketch, job 1 = similarity)
    // must be absorbed by map re-execution. Tasks are placed on node
    // `task % nodes`, so with 4 map tasks only nodes 0–3 hold outputs.
    for (job, node) in [(0usize, 2usize), (1, 1)] {
        let plan = FaultPlan::new().node_death_after_map(job, node);
        let chaotic = run_under(&r, &reads, plan);
        assert_identical(&chaotic, &clean);
        assert!(
            chaotic.recovery().maps_reexecuted_node_loss >= 1,
            "node death in job {job} left no re-execution trace"
        );
    }
}

#[test]
fn two_panics_per_stage_yield_identical_clustering() {
    let reads = two_species(40, 12);
    let r = runner();
    let clean = r.run(&reads).unwrap();
    let plan = FaultPlan::new()
        .task_panic(0, Phase::Map, 0, 2)
        .task_panic(0, Phase::Map, 3, 1)
        .task_panic(1, Phase::Map, 1, 2)
        .task_panic(1, Phase::Map, 2, 2);
    let chaotic = run_under(&r, &reads, plan);
    assert_identical(&chaotic, &clean);
    // 2 + 1 + 2 + 2 failed attempts, each retried.
    assert_eq!(chaotic.recovery().tasks_retried, 7);
    assert!(clean.recovery().is_clean());
}

#[test]
fn straggler_speculation_yields_identical_clustering() {
    let reads = two_species(40, 13);
    let r = runner();
    let clean = r.run(&reads).unwrap();
    let plan = FaultPlan::new().task_slowdown(0, Phase::Map, 2, 25);
    let chaotic = run_under(&r, &reads, plan);
    assert_identical(&chaotic, &clean);
    assert_eq!(chaotic.recovery().speculative_wins, 1);
}

#[test]
fn identical_plan_gives_identical_counters_across_runs() {
    let reads = two_species(40, 14);
    let r = runner();
    let plan = FaultPlan::new()
        .task_panic(0, Phase::Map, 1, 2)
        .task_slowdown(1, Phase::Map, 0, 15)
        .node_death_after_map(0, 2)
        .node_death_after_map(1, 6);
    let mut ledgers: Vec<RecoveryCounters> = Vec::new();
    let mut outputs = Vec::new();
    for _ in 0..3 {
        let run = run_under(&r, &reads, plan.clone());
        ledgers.push(run.recovery());
        outputs.push(run.assignment);
    }
    assert!(
        ledgers.windows(2).all(|w| w[0] == w[1]),
        "recovery ledgers diverged across identical plans: {ledgers:?}"
    );
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    assert!(ledgers[0].total_events() > 0, "plan injected nothing");
}
