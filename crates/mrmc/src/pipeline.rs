//! The end-to-end MrMC-MinH pipeline.

use std::time::{Duration, Instant};

use mrmc_cluster::{
    agglomerative_grouped, agglomerative_sparse_grouped, ClusterAssignment, Dendrogram,
};
use mrmc_mapreduce::chaos::RecoveryCounters;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::MrError;
use mrmc_seqio::SeqRecord;

use crate::banded::banded_graph_stage;
use crate::config::{CandidateGen, Mode, MrMcConfig};
use crate::incremental::RepresentativeIndex;
use crate::stages::{dereplicate, pair_counts_stage, sketch_distinct_stage};

/// Result of a MrMC-MinH run.
#[derive(Debug)]
pub struct MrMcResult {
    /// Cluster labels, compacted to `0..num_clusters`.
    pub assignment: ClusterAssignment,
    /// The dendrogram over the reads (hierarchical mode only). The run
    /// clusters each distinct sequence once, so the dendrogram opens
    /// with a block of merges at similarity 1.0, one per copy of a
    /// sequence: `(first occurrence, copy)`, in read order. The merges
    /// after that block are the distinct sequences' merges, each naming
    /// two first occurrences. Heights, every cut, and the merges below
    /// 1.0 are those of the same route over every read; which pairs the
    /// 1.0 merges name can differ from it.
    pub dendrogram: Option<Dendrogram>,
    /// Map-Reduce stage reports (feeds the simulated-cluster model).
    pub pipeline: Pipeline,
    /// Total wall-clock of the run.
    pub total_time: Duration,
}

impl MrMcResult {
    /// Convenience: cluster count.
    pub fn num_clusters(&self) -> usize {
        self.assignment.num_clusters()
    }

    /// Recovery work performed across all Map-Reduce stages of the run
    /// (all zero unless faults were injected — or genuinely occurred).
    pub fn recovery(&self) -> RecoveryCounters {
        self.pipeline.total_recovery()
    }

    /// Re-cut the stored dendrogram at a different θ without
    /// recomputing sketches or the similarity matrix — the paper's
    /// "clustering results at different hierarchical taxonomic levels"
    /// feature. `None` in greedy mode (no dendrogram exists).
    pub fn cut_at(&self, theta: f64) -> Option<ClusterAssignment> {
        self.dendrogram
            .as_ref()
            .map(|d| mrmc_cluster::cut_dendrogram(d, theta))
    }

    /// Multi-level taxonomy: one flat clustering per θ, finest first
    /// if `thetas` is descending. `None` in greedy mode.
    pub fn taxonomy_levels(&self, thetas: &[f64]) -> Option<Vec<ClusterAssignment>> {
        self.dendrogram
            .as_ref()
            .map(|d| mrmc_cluster::cut_levels(d, thetas))
    }

    /// Representative read index per cluster: the lowest-indexed
    /// member (the greedy seed in greedy mode; a stable, deterministic
    /// choice in hierarchical mode). Sorted by cluster label. Supports
    /// the paper's "analyze only cluster representatives" workflow.
    pub fn representatives(&self) -> Vec<usize> {
        let members = self.assignment.members();
        let mut labels: Vec<usize> = members.keys().copied().collect();
        labels.sort_unstable();
        labels
            .into_iter()
            .map(|l| *members[&l].iter().min().expect("clusters are non-empty"))
            .collect()
    }
}

/// The MrMC-MinH runner.
#[derive(Debug, Clone)]
pub struct MrMcMinH {
    config: MrMcConfig,
}

impl MrMcMinH {
    /// Build a runner; panics on invalid configuration (validate
    /// early — every stage depends on these knobs).
    pub fn new(config: MrMcConfig) -> MrMcMinH {
        if let Err(e) = config.validate() {
            panic!("invalid MrMcConfig: {e}");
        }
        MrMcMinH { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MrMcConfig {
        &self.config
    }

    /// Cluster the reads on a fresh pipeline: no faults, no tracing.
    pub fn run(&self, reads: &[SeqRecord]) -> Result<MrMcResult, MrError> {
        let name = match self.config.mode {
            Mode::Greedy => "mrmc-minh-g",
            Mode::Hierarchical => "mrmc-minh-h",
        };
        self.run_on(reads, Pipeline::new(name))
    }

    /// Cluster the reads, running every Map-Reduce stage on `pipeline`.
    /// The driver first groups reads by exact sequence bytes
    /// ([`dereplicate`]) and the sketch stage sketches each distinct
    /// sequence once. A greedy run then places the distinct sketches
    /// with one serial pass through a [`RepresentativeIndex`], whatever
    /// `candidates` says, and a copy takes its first occurrence's
    /// label. A hierarchical run follows with the dense all-pairs
    /// count stage or the three banded θ-graph stages over the
    /// distinct sketches, and links the distinct sequences, each a
    /// vertex that starts as a cluster of its copies
    /// ([`agglomerative_grouped`], [`agglomerative_sparse_grouped`]).
    /// The dendrogram over the reads is rebuilt from theirs in O(n).
    /// Both are exact (DESIGN.md §5d): labels, heights and every cut are
    /// those of the same route over every read.
    /// Attach a tracer ([`Pipeline::traced`]) to record a structured
    /// trace of every stage, and/or a fault injector
    /// ([`Pipeline::with_faults`]) to disrupt the substrate. Both are
    /// invisible in the output: the clustering is bit-identical to
    /// [`MrMcMinH::run`] whenever recovery succeeds, and the price paid
    /// is visible in [`MrMcResult::recovery`].
    pub fn run_on(
        &self,
        reads: &[SeqRecord],
        mut pipeline: Pipeline,
    ) -> Result<MrMcResult, MrError> {
        let start = Instant::now();

        // Stage 1: minwise sketches of the distinct sequences (map-only).
        let derep = dereplicate(reads)?;
        let distinct = sketch_distinct_stage(reads, &derep, &self.config, &mut pipeline)?;

        let (assignment, dendrogram) = match (self.config.mode, self.config.candidates) {
            (Mode::Greedy, _) => {
                // Algorithm 1 — iterative, representative-based; runs
                // on the driver like the paper's GreedyClustering UDF
                // (invoked once on the grouped relation). It only asks
                // about representatives, so no pair set is built under
                // either `candidates` value; labels come out compact.
                // A copy would fail every representative below its
                // first occurrence's label and clear that one at 1.0.
                let labels = RepresentativeIndex::new(&self.config).place_all(distinct);
                (ClusterAssignment::from_labels(derep.lift(labels)), None)
            }
            (Mode::Hierarchical, CandidateGen::Dense) => {
                // Algorithm 2 — all-pairs agreement counts via row
                // partitioning, then agglomerative clustering with θ
                // cutoff, over the distinct sequences. A copy's row
                // would be its first occurrence's, at 1.0 to it, so a
                // group is one vertex of its copies' weight. The
                // linkage reads the count strips where they are, beside
                // their transpose; only merged clusters own f32 rows.
                let counts = pair_counts_stage(distinct, &self.config, &mut pipeline)?;
                let (assignment, dendro) = agglomerative_grouped(
                    &counts,
                    derep.groups(),
                    self.config.linkage,
                    self.config.theta,
                );
                (assignment, Some(dendro))
            }
            (Mode::Hierarchical, CandidateGen::Banded) => {
                // Algorithm 2 over the zero-filled θ-graph (missing
                // pairs read as similarity 0). Its θ-cut is exact for
                // single linkage, and for complete linkage while no two
                // merges in [θ, 1) tie (a tie's order follows sub-θ
                // values the graph prunes); not for average linkage: a
                // pruned pair pulls a cluster average down, so this arm
                // can return more clusters than dense (DESIGN.md §5c). Copies share every band and score 1.0, so each
                // group is one weighted vertex of the distinct graph,
                // as in the dense arm.
                let graph = banded_graph_stage(&distinct, &self.config, &mut pipeline)?;
                let (assignment, dendro) = agglomerative_sparse_grouped(
                    &graph,
                    derep.groups(),
                    self.config.linkage,
                    self.config.theta,
                );
                (assignment, Some(dendro))
            }
        };

        Ok(MrMcResult {
            assignment,
            dendrogram,
            pipeline,
            total_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_testkit::community::two_species;

    fn config(mode: Mode, theta: f64) -> MrMcConfig {
        MrMcConfig {
            kmer: 5,
            num_hashes: 64,
            theta,
            mode,
            map_tasks: 4,
            ..Default::default()
        }
    }

    #[test]
    fn hierarchical_recovers_two_species_compositionally() {
        // k = 5 sketches on 800 bp reads act as composition signatures
        // (the whole-metagenome regime of Table III).
        let (reads, truth) = two_species(60, 800, 50_000, 1);
        let result = MrMcMinH::new(config(Mode::Hierarchical, 0.55))
            .run(&reads)
            .unwrap();
        let acc = mrmc_metrics::weighted_accuracy(&result.assignment, &truth, 1).unwrap();
        assert!(acc > 90.0, "accuracy {acc}");
        assert!(result.dendrogram.is_some());
        // Two MR stages: sketch + similarity.
        assert_eq!(result.pipeline.stages().len(), 2);
    }

    #[test]
    fn greedy_runs_and_is_faster_shape() {
        let (reads, truth) = two_species(60, 800, 50_000, 2);
        let dense = config(Mode::Greedy, 0.55);
        for cfg in [dense, dense.banded()] {
            let result = MrMcMinH::new(cfg).run(&reads).unwrap();
            let acc = mrmc_metrics::weighted_accuracy(&result.assignment, &truth, 1).unwrap();
            assert!(acc > 80.0, "accuracy {acc}");
            assert!(result.dendrogram.is_none());
            // Only the sketch stage hits the MR substrate in greedy
            // mode, whichever way `candidates` points.
            let stages: Vec<&str> = result
                .pipeline
                .stages()
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(stages, ["minwise-sketch"], "{:?}", cfg.candidates);
        }
    }

    #[test]
    fn theta_one_only_merges_identical_sketches() {
        let reads = vec![
            SeqRecord::new("a", b"ACGTACGTACGTACGTAC".to_vec()),
            SeqRecord::new("b", b"ACGTACGTACGTACGTAC".to_vec()),
            SeqRecord::new("c", b"TTTTGGGGCCCCAAAATT".to_vec()),
        ];
        for mode in [Mode::Greedy, Mode::Hierarchical] {
            let result = MrMcMinH::new(config(mode, 1.0)).run(&reads).unwrap();
            assert_eq!(result.num_clusters(), 2, "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid MrMcConfig")]
    fn invalid_config_panics() {
        MrMcMinH::new(MrMcConfig {
            kmer: 0,
            ..Default::default()
        });
    }

    #[test]
    fn taxonomy_levels_refine() {
        let (reads, _) = two_species(40, 800, 50_000, 6);
        let result = MrMcMinH::new(config(Mode::Hierarchical, 0.5))
            .run(&reads)
            .unwrap();
        let levels = result
            .taxonomy_levels(&[0.9, 0.5, 0.1])
            .expect("hierarchical");
        assert_eq!(levels.len(), 3);
        // Counts non-increasing as θ loosens; the 0.1 cut is coarsest.
        assert!(levels[0].num_clusters() >= levels[1].num_clusters());
        assert!(levels[1].num_clusters() >= levels[2].num_clusters());
        // cut_at(θ of the run) reproduces the run's own assignment
        // up to relabeling.
        let recut = result.cut_at(0.5).expect("hierarchical");
        assert_eq!(recut.num_clusters(), result.assignment.num_clusters());
        // Greedy mode has no dendrogram.
        let greedy = MrMcMinH::new(config(Mode::Greedy, 0.5))
            .run(&reads)
            .unwrap();
        assert!(greedy.cut_at(0.5).is_none());
    }

    #[test]
    fn representatives_one_per_cluster() {
        let (reads, _) = two_species(30, 800, 50_000, 7);
        let result = MrMcMinH::new(config(Mode::Hierarchical, 0.5))
            .run(&reads)
            .unwrap();
        let reps = result.representatives();
        assert_eq!(reps.len(), result.num_clusters());
        // Each representative belongs to a distinct cluster.
        let mut labels: Vec<usize> = reps.iter().map(|&r| result.assignment.label(r)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), reps.len());
    }

    #[test]
    fn traced_run_bit_identical_with_deterministic_ledger() {
        use mrmc_mapreduce::chaos::{FaultPlan, Phase};
        use mrmc_mapreduce::obs::trace::Category;
        use mrmc_mapreduce::{critical_path, ClusterSpec, JobCostModel, Tracer};
        use std::sync::Arc;

        let (reads, _) = two_species(40, 800, 50_000, 8);
        let runner = MrMcMinH::new(config(Mode::Hierarchical, 0.55));
        let plain = runner.run(&reads).unwrap();

        // Tracing a clean run is passive and its ledger replays.
        let t1 = Arc::new(Tracer::new());
        let traced = runner
            .run_on(&reads, Pipeline::new("traced").traced(t1.clone()))
            .unwrap();
        assert_eq!(traced.assignment, plain.assignment);
        assert_eq!(traced.dendrogram, plain.dendrogram);
        let t2 = Arc::new(Tracer::new());
        runner
            .run_on(&reads, Pipeline::new("traced").traced(t2.clone()))
            .unwrap();
        assert_eq!(t1.ledger().signature(), t2.ledger().signature());
        // One ledger job per MR stage (sketch + similarity).
        assert_eq!(t1.ledger().jobs.len(), 2);

        // Under a fault plan, the output is still bit-identical and
        // the ledger is a pure function of the plan.
        let plan = FaultPlan::new()
            .task_panic(0, Phase::Map, 1, 2)
            .task_slowdown(1, Phase::Map, 0, 15)
            .node_death_after_map(0, 2);
        let chaotic_traced = |tracer: &Arc<Tracer>| {
            let pipeline = Pipeline::new("chaos")
                .traced(tracer.clone())
                .with_faults(Arc::new(plan.clone().injector()));
            runner.run_on(&reads, pipeline).unwrap()
        };
        let c1 = Arc::new(Tracer::new());
        let chaotic = chaotic_traced(&c1);
        assert_eq!(chaotic.assignment, plain.assignment);
        let c2 = Arc::new(Tracer::new());
        chaotic_traced(&c2);
        assert_eq!(c1.ledger().signature(), c2.ledger().signature());
        // The chaotic ledger differs from the clean one (it carries
        // the recovery spans) but shares the job structure.
        assert_ne!(c1.ledger().signature(), t1.ledger().signature());
        assert!(c1
            .ledger()
            .spans
            .iter()
            .any(|s| s.category == Category::Recovery));
        assert_eq!(c1.ledger().jobs, t1.ledger().jobs);

        // The banded route's stages reduce, so its ledger carries
        // shuffle barriers; tracing it is passive too.
        let banded = MrMcMinH::new(config(Mode::Hierarchical, 0.55).banded());
        let plain_banded = banded.run(&reads).unwrap();
        let tb = Arc::new(Tracer::new());
        let traced_banded = banded
            .run_on(&reads, Pipeline::new("banded").traced(tb.clone()))
            .unwrap();
        assert_eq!(traced_banded.assignment, plain_banded.assignment);
        assert_eq!(traced_banded.dendrogram, plain_banded.dendrogram);
        let ledger = tb.ledger();
        assert_eq!(
            ledger.jobs,
            [
                "minwise-sketch",
                "band-signatures",
                "candidate-dedup",
                "candidate-verify"
            ]
        );
        assert!(ledger.spans.iter().any(|s| s.name == "shuffle"));

        // Each traced pipeline replayed on simulated clusters: the
        // critical path spans the simulated makespan and attributes
        // nearly all of it.
        let model = JobCostModel::default();
        for pipeline in [&traced.pipeline, &traced_banded.pipeline] {
            for nodes in [2, 6, 12] {
                let cluster = ClusterSpec::m1_large(nodes);
                let sim = Tracer::new();
                pipeline.simulate_on(&cluster, &model, Some(&sim));
                let cp = critical_path(&sim.ledger());
                let total = pipeline.simulated_total(&cluster, &model);
                let makespan = cp.makespan_ns as f64 / 1e9;
                assert!(
                    (makespan - total).abs() <= 1e-6 * total,
                    "{nodes} nodes: makespan {makespan} s, simulated {total} s"
                );
                assert!(cp.coverage() >= 0.95, "{nodes} nodes: {}", cp.coverage());
            }
        }
    }
}
