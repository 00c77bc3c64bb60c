//! Dereplication is invisible (DESIGN.md §5d): `MrMcMinH::run` sketches,
//! bands, verifies and links each distinct sequence once, then lifts
//! labels, or rebuilds the dendrogram, over the reads. On every native
//! arm its assignment must equal the same route run over every read
//! with no grouping — the oracle below, which sketches each read on its
//! own and feeds the per-read stages and clusterers directly — and its
//! dendrogram must be the oracle's hierarchy (`same_hierarchy`).

mod common;

use common::same_hierarchy;
use mrmc::stages::{dereplicate, similarity_matrix_stage, sketch_distinct_stage, sketch_stage};
use mrmc::{banded_graph_stage, MrMcConfig, MrMcMinH, RepresentativeIndex};
use mrmc_cluster::{
    agglomerative, agglomerative_sparse, ClusterAssignment, Dendrogram, Linkage, SparseSimGraph,
};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::Sketch;
use mrmc_seqio::SeqRecord;
use mrmc_simulate::{huse_16s, CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};
use rand::{rngs::StdRng, Rng, SeedableRng};

const THETAS: [f64; 3] = [0.80, 0.95, 1.0];
const LINKAGES: [Linkage; 3] = [Linkage::Single, Linkage::Average, Linkage::Complete];

/// Every native arm at `theta`: greedy × {dense, banded} and
/// hierarchical × {dense, banded} × every linkage.
fn arms(base: MrMcConfig, theta: f64) -> Vec<MrMcConfig> {
    let base = base.with_theta(theta);
    let mut arms = vec![base.greedy().dense(), base.greedy().banded()];
    for linkage in LINKAGES {
        let hier = MrMcConfig {
            linkage,
            ..base.hierarchical()
        };
        arms.extend([hier.dense(), hier.banded()]);
    }
    arms
}

/// The ungrouped route: one sketch per read, each from its own bytes.
fn oracle_sketches(reads: &[SeqRecord], cfg: &MrMcConfig) -> Vec<Sketch> {
    let hasher = cfg.hasher();
    reads
        .iter()
        .map(|r| hasher.sketch_sequence(&r.seq).expect("valid k"))
        .collect()
}

/// What `run` computed before dereplication, from the per-read sketches.
fn oracle_run(sketches: &[Sketch], cfg: &MrMcConfig) -> (ClusterAssignment, Option<Dendrogram>) {
    let mut p = Pipeline::new("oracle");
    let sketches = sketches.to_vec();
    match (cfg.mode, cfg.candidates) {
        (mrmc::Mode::Greedy, _) => {
            let labels = RepresentativeIndex::new(cfg).place_all(sketches);
            (ClusterAssignment::from_labels(labels), None)
        }
        (mrmc::Mode::Hierarchical, mrmc::CandidateGen::Dense) => {
            let matrix = similarity_matrix_stage(sketches, cfg, &mut p).expect("matrix stage");
            let (a, d) = agglomerative(&matrix, cfg.linkage, cfg.theta);
            (a.compact(), Some(d))
        }
        (mrmc::Mode::Hierarchical, mrmc::CandidateGen::Banded) => {
            let graph = banded_graph_stage(&sketches, cfg, &mut p).expect("banded stages");
            let (a, d) = agglomerative_sparse(&graph, cfg.linkage, cfg.theta);
            (a.compact(), Some(d))
        }
    }
}

/// The θ-graph over the reads from the one over their groups: two
/// reads of a group at 1.0, and each edge between every member of one
/// group and every member of the other.
fn expand(graph: &SparseSimGraph, of: &[u32]) -> SparseSimGraph {
    let mut members = vec![Vec::new(); graph.len()];
    for (read, &g) in of.iter().enumerate() {
        members[g as usize].push(read as u32);
    }
    let mut edges = Vec::new();
    for m in &members {
        for (k, &a) in m.iter().enumerate() {
            edges.extend(m[k + 1..].iter().map(|&b| (a, b, 1.0)));
        }
    }
    for (u, v, s) in graph.edges() {
        for &a in &members[u as usize] {
            edges.extend(members[v as usize].iter().map(|&b| (a, b, s)));
        }
    }
    SparseSimGraph::from_edges(of.len(), edges)
}

/// The oracle property on every arm and θ, plus two inputs on their
/// own: sketches per read, and the distinct θ-graph expanded over the
/// groups, which is the graph the stages build over every read.
fn assert_invisible(reads: &[SeqRecord], base: MrMcConfig, what: &str) {
    let sketches = oracle_sketches(reads, &base);
    let lifted = sketch_stage(reads, &base, &mut Pipeline::new("lift")).expect("sketch stage");
    assert_eq!(lifted, sketches, "{what}: sketches per read");

    let derep = dereplicate(reads).expect("ids fit");
    let mut p = Pipeline::new("distinct");
    let distinct = sketch_distinct_stage(reads, &derep, &base, &mut p).expect("sketch stage");
    for theta in THETAS {
        let cfg = base.banded().with_theta(theta);
        let per_read = banded_graph_stage(&sketches, &cfg, &mut Pipeline::new("per-read"))
            .expect("banded stages");
        let graph = banded_graph_stage(&distinct, &cfg, &mut Pipeline::new("distinct"))
            .expect("banded stages");
        assert_eq!(
            expand(&graph, derep.groups()),
            per_read,
            "{what}, θ = {theta}: expanded θ-graph"
        );

        for cfg in arms(base, theta) {
            let run = MrMcMinH::new(cfg).run(reads).expect("run");
            let (assignment, dendrogram) = oracle_run(&sketches, &cfg);
            let arm = format!(
                "{what}, θ = {theta}, {:?} {:?} {:?}",
                cfg.mode, cfg.candidates, cfg.linkage
            );
            assert_eq!(run.assignment, assignment, "{arm}: assignment");
            match (&run.dendrogram, &dendrogram) {
                (Some(run), Some(oracle)) => same_hierarchy(run, oracle, &arm),
                (run, oracle) => assert_eq!(run, oracle, "{arm}: dendrogram"),
            }
        }
    }
}

/// `reads` with `copies` extra copies of randomly chosen reads inserted
/// at random positions (a copy may land before its original).
fn with_copies(mut reads: Vec<SeqRecord>, copies: usize, seed: u64) -> Vec<SeqRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..copies {
        let from = rng.random_range(0..reads.len());
        let at = rng.random_range(0..=reads.len());
        let copy = SeqRecord::new(format!("copy{c}"), reads[from].seq.clone());
        reads.insert(at, copy);
    }
    reads
}

fn two_species(n: usize, seed: u64) -> Vec<SeqRecord> {
    let species = |name: &str, gc| SpeciesSpec {
        name: name.into(),
        gc,
        abundance: 1.0,
    };
    let spec = CommunitySpec {
        species: vec![species("a", 0.40), species("b", 0.60)],
        rank: TaxRank::Phylum,
        genome_len: 50_000,
    };
    let sim = ReadSimulator::new(400, ErrorModel::with_total_rate(0.002));
    spec.generate("t", n, &sim, seed).reads
}

#[test]
fn huse_draws_with_forced_copies() {
    for seed in [3u64, 42] {
        let reads = with_copies(huse_16s(0.03, 220.0 / 345_000.0, seed).reads, 40, seed);
        let distinct = dereplicate(&reads).expect("ids fit").num_distinct();
        assert!(
            distinct < reads.len() * 3 / 4,
            "{distinct} of {} distinct",
            reads.len()
        );
        assert_invisible(
            &reads,
            MrMcConfig::sixteen_s(),
            &format!("huse seed {seed}"),
        );
    }
}

#[test]
fn two_species_draws_with_forced_copies() {
    let base = MrMcConfig {
        kmer: 5,
        num_hashes: 64,
        map_tasks: 4,
        ..Default::default()
    };
    for seed in [1u64, 8] {
        let reads = with_copies(two_species(50, seed), 25, seed);
        assert_invisible(&reads, base, &format!("two species seed {seed}"));
    }
}

#[test]
fn edge_cases() {
    let read = |id: &str, seq: &[u8]| SeqRecord::new(id, seq.to_vec());
    let long = b"ACGTTGCAAGGCTTACCGATGGCATTACGGATCCATGACTGACCGTA";
    let with_n = b"ACGTTGCAAGGCTTANCGATGGCATTACGGATCCATGACTGACCGTA";
    // Shorter than k = 15: two different byte strings, both degenerate.
    let mixed = vec![
        read("short1", b"ACGTAC"),
        read("long1", long),
        read("n1", with_n),
        read("short2", b"ACGTAC"),
        read("tiny", b"GG"),
        read("n2", with_n),
        read("long2", long),
        read("short3", b"ACGTAC"),
        read("tiny2", b"GG"),
    ];
    let all_copies = vec![read("c", long); 5];
    let all_short = vec![read("s", b"ACGTAC"); 4];
    let cases: [(&str, &[SeqRecord]); 5] = [
        ("short, N and long copies", &mixed),
        ("all copies", &all_copies),
        ("all short copies", &all_short),
        ("one read", &mixed[1..2]),
        ("empty", &[]),
    ];
    for (what, reads) in cases {
        assert_invisible(reads, MrMcConfig::sixteen_s(), what);
    }
    let derep = dereplicate(&mixed).expect("ids fit");
    assert_eq!(derep.groups(), &[0, 1, 2, 0, 3, 2, 1, 0, 3]);
}
