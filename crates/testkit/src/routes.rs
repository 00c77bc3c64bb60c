//! Oracles of the routes: the native stages over per-read sketches
//! with no grouping ([`Ungrouped`]), Algorithm 1 as the
//! `greedy_cluster` scan, and Algorithm 3 through the Pig runner.

use std::collections::HashMap;
use std::sync::Arc;

use mrmc::stages::similarity_matrix_stage;
use mrmc::{
    algorithm3_script, banded_graph_stage, register_mrmc_udfs, CandidateGen, Mode, MrMcConfig,
    RepresentativeIndex,
};
use mrmc_cluster::{
    agglomerative, agglomerative_sparse, greedy_cluster, ClusterAssignment, CondensedMatrix,
    Dendrogram, SparseSimGraph,
};
use mrmc_mapreduce::dfs::Dfs;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::{positional_similarity, Sketch};
use mrmc_pig::{parse_script, PigRunner, UdfRegistry};
use mrmc_seqio::encode::KmerIter;
use mrmc_seqio::{write_fasta, SeqRecord};

/// The ungrouped route's sketches: one per read, each from its own
/// bytes.
pub fn oracle_sketches(reads: &[SeqRecord], cfg: &MrMcConfig) -> Vec<Sketch> {
    let hasher = cfg.hasher();
    reads
        .iter()
        .map(|r| hasher.sketch_sequence(&r.seq).expect("valid k"))
        .collect()
}

/// What `MrMcMinH::run` computes without dereplication, for every
/// route over one read set: per-read sketches, and the per-read stages'
/// similarity matrix and θ-graph built from them once.
pub struct Ungrouped {
    /// One sketch per read ([`oracle_sketches`]).
    pub sketches: Vec<Sketch>,
    /// `similarity_matrix_stage` over the sketches.
    pub matrix: CondensedMatrix,
    /// `banded_graph_stage` over the sketches.
    pub graph: SparseSimGraph,
}

impl Ungrouped {
    /// The per-read inputs of `base`'s sketcher and θ.
    pub fn new(reads: &[SeqRecord], base: &MrMcConfig) -> Ungrouped {
        let sketches = oracle_sketches(reads, base);
        let mut p = Pipeline::new("oracle");
        let matrix = similarity_matrix_stage(sketches.clone(), base, &mut p).expect("matrix stage");
        let graph = banded_graph_stage(&sketches, &base.banded(), &mut p).expect("banded stages");
        Ungrouped {
            sketches,
            matrix,
            graph,
        }
    }

    /// `cfg`'s route over the per-read inputs, straight into the
    /// clusterers. `cfg` must share the base config's sketcher and θ.
    pub fn oracle_run(&self, cfg: &MrMcConfig) -> (ClusterAssignment, Option<Dendrogram>) {
        match (cfg.mode, cfg.candidates) {
            (Mode::Greedy, _) => {
                let labels = RepresentativeIndex::new(cfg).place_all(self.sketches.clone());
                (ClusterAssignment::from_labels(labels), None)
            }
            (Mode::Hierarchical, CandidateGen::Dense) => {
                let (a, d) = agglomerative(&self.matrix, cfg.linkage, cfg.theta);
                (a.compact(), Some(d))
            }
            (Mode::Hierarchical, CandidateGen::Banded) => {
                let (a, d) = agglomerative_sparse(&self.graph, cfg.linkage, cfg.theta);
                (a.compact(), Some(d))
            }
        }
    }
}

/// Algorithm 1 as the `greedy_cluster` scan over per-read sketches:
/// each read joins the first representative at similarity ≥ θ.
pub fn greedy_scan(sketches: &[Sketch], theta: f64) -> ClusterAssignment {
    greedy_cluster(sketches.len(), theta, |i, j| {
        positional_similarity(&sketches[i], &sketches[j])
    })
    .compact()
}

/// The reads holding at least one k-mer: the ones Algorithm 3 keeps.
pub fn with_kmer(reads: &[SeqRecord], k: usize) -> Vec<SeqRecord> {
    reads
        .iter()
        .filter(|r| KmerIter::new(&r.seq, k).expect("valid k").next().is_some())
        .cloned()
        .collect()
}

/// Run Algorithm 3 over `reads`, staged as `/in.fa` on `dfs`, at
/// `config`'s `(k, n, seed = $DIV, θ, linkage)`. Returns both STORE
/// outputs (hierarchical `K`, greedy `L`) as assignments over
/// [`with_kmer`]`(reads)`, after checking that they label exactly those
/// reads.
pub fn pig_labels(
    reads: &[SeqRecord],
    config: &MrMcConfig,
    dfs: &Arc<Dfs>,
) -> (ClusterAssignment, ClusterAssignment) {
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, reads, 0).expect("serialize");
    dfs.put("/in.fa", fasta, false).expect("stage");
    let params: HashMap<String, String> = [
        ("INPUT", "/in.fa".to_string()),
        ("KMER", config.kmer.to_string()),
        ("NUMHASH", config.num_hashes.to_string()),
        ("DIV", config.seed.to_string()),
        ("LINK", format!("{:?}", config.linkage).to_lowercase()),
        ("CUTOFF", config.theta.to_string()),
        ("OUTPUT1", "/out/h".to_string()),
        ("OUTPUT2", "/out/g".to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let script = parse_script(algorithm3_script(), &params).expect("parse");
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    let report = PigRunner::new(Arc::clone(dfs), registry)
        .run(&script)
        .expect("run");
    assert_eq!(report.stored, ["/out/h", "/out/g"]);

    let kept = with_kmer(reads, config.kmer);
    let parse = |path: &str| {
        let text = String::from_utf8(dfs.read(path).expect("read").to_vec()).expect("utf-8");
        let by_id: HashMap<&str, usize> = text
            .lines()
            .map(|line| {
                let row = line.strip_prefix('(').and_then(|l| l.strip_suffix(')'));
                let (id, label) = row.and_then(|r| r.rsplit_once(',')).expect("two fields");
                (id, label.parse().expect("int label"))
            })
            .collect();
        assert_eq!(by_id.len(), text.lines().count(), "{path}: one row per id");
        assert_eq!(by_id.len(), kept.len(), "{path}: the reads with a k-mer");
        ClusterAssignment::from_labels(kept.iter().map(|r| by_id[r.id.as_str()]).collect())
    };
    (parse("/out/h"), parse("/out/g"))
}
