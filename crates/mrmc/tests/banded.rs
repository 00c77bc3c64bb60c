//! Integration tests of the banded-LSH candidate pipeline: the route
//! against the zero-filled θ-graph oracle (equal to dense at the θ-cut
//! for greedy, single and complete linkage; average linkage only where
//! the corpus is θ-separated), the candidate oracle, dedup
//! completeness, and fault recovery through the banding reducers.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::same_hierarchy;
use mrmc::banded::{banded_candidates, banded_graph_stage, ensure_read_ids_fit};
use mrmc::stages::sketch_stage;
use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_cluster::{
    agglomerative, cut_dendrogram, greedy_cluster, ClusterAssignment, CondensedMatrix, Linkage,
};
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::{positional_similarity, Sketch};
use mrmc_simulate::huse_16s;

const LINKAGES: [Linkage; 3] = [Linkage::Single, Linkage::Average, Linkage::Complete];

fn corpus(reads: f64, seed: u64) -> Vec<mrmc_seqio::SeqRecord> {
    huse_16s(0.03, reads / 345_000.0, seed).reads
}

fn sketches_of(reads: &[mrmc_seqio::SeqRecord], cfg: &MrMcConfig) -> Vec<Sketch> {
    let mut p = Pipeline::new("test-sketch");
    sketch_stage(reads, cfg, &mut p).expect("sketch stage")
}

/// Algorithm 1 as the `greedy_cluster` scan over `sketch_stage`'s
/// output — the oracle of the greedy route, which runs the same code
/// under either `candidates` value and so cannot be its own reference.
fn greedy_scan(reads: &[mrmc_seqio::SeqRecord], cfg: &MrMcConfig) -> ClusterAssignment {
    let sketches = sketches_of(reads, cfg);
    greedy_cluster(sketches.len(), cfg.theta, |i, j| {
        positional_similarity(&sketches[i], &sketches[j])
    })
    .compact()
}

/// The exactness contract: on the seed 16S corpus, `.banded()` gives
/// *bit-identical* cluster assignments to the dense oracle in both
/// clustering modes, at θ whose `f32` image rounds down (0.95, 0.90)
/// and up (0.85, 0.80), with θ·n integral at 0.90 and 0.80 so pairs
/// sit exactly on the cut. Greedy is held to the linear scan under
/// both `candidates` values; single and complete linkage depend only
/// on the pairs at or above θ and hold at every θ; average linkage
/// reads the pruned sub-θ pairs as 0, so it is held where the corpus is
/// θ-separated (0.95) and not below (DESIGN.md §5c).
#[test]
fn banded_clustering_identical_to_dense() {
    let reads = corpus(280.0, 9);
    for theta in [0.95, 0.90, 0.85, 0.80] {
        let greedy = MrMcConfig::sixteen_s().greedy().with_theta(theta);
        let scan = greedy_scan(&reads, &greedy);
        for cfg in [greedy, greedy.banded()] {
            let run = MrMcMinH::new(cfg).run(&reads).expect("greedy run");
            assert_eq!(run.assignment, scan, "θ = {theta}, {:?}", cfg.candidates);
        }
        for linkage in LINKAGES {
            if linkage == Linkage::Average && theta != 0.95 {
                continue;
            }
            let cfg = MrMcConfig {
                linkage,
                ..MrMcConfig::sixteen_s().hierarchical().with_theta(theta)
            };
            let dense = MrMcMinH::new(cfg).run(&reads).expect("dense run");
            let banded = MrMcMinH::new(cfg.banded()).run(&reads).expect("banded run");
            assert_eq!(
                banded.assignment, dense.assignment,
                "θ = {theta}, {linkage:?}: banded assignments must match dense"
            );
        }
    }
}

/// θ set before or after `.banded()` is the same run, and both are
/// Algorithm 1's scan: the band layout is derived from the config's θ
/// when the route asks for it, so no builder order can leave a stale
/// one behind (`.banded().with_theta(0.9)` used to keep θ = 0.95's
/// 3 × 16 bands and split clusters: 951 against dense's 922 on this
/// corpus).
#[test]
fn builder_order_is_irrelevant() {
    let reads = corpus(2000.0, 9);
    let base = MrMcConfig::sixteen_s().greedy();
    for theta in [0.95, 0.90, 0.85, 0.80] {
        let scan = greedy_scan(&reads, &base.with_theta(theta));
        for cfg in [
            base.with_theta(theta),
            base.banded().with_theta(theta),
            base.with_theta(theta).banded(),
        ] {
            let run = MrMcMinH::new(cfg).run(&reads).expect("greedy run");
            assert_eq!(run.assignment, scan, "θ = {theta}, {:?}", cfg.candidates);
        }
    }
}

/// Banded + hierarchical clusters the θ-graph without densifying it,
/// and still returns the hierarchy of the zero-filled dense run over
/// every read: its heights, its cut at every height and at a sub-θ
/// level, and its merges below 1.0, for every linkage.
#[test]
fn banded_dendrogram_equals_zero_filled_dense_oracle() {
    let reads = corpus(280.0, 9);
    for linkage in LINKAGES {
        let cfg = MrMcConfig {
            linkage,
            ..MrMcConfig::sixteen_s().hierarchical().banded()
        };
        let mut p = Pipeline::new("test-oracle");
        let graph =
            banded_graph_stage(&sketches_of(&reads, &cfg), &cfg, &mut p).expect("banded stages");
        let zero_filled = CondensedMatrix::build(graph.len(), |i, j| graph.sim(i, j));
        let (assignment, dendrogram) = agglomerative(&zero_filled, linkage, cfg.theta);

        let banded = MrMcMinH::new(cfg).run(&reads).expect("banded run");
        let run = banded.dendrogram.as_ref().expect("hierarchical run");
        same_hierarchy(run, &dendrogram, &format!("{linkage:?}"));
        assert_eq!(banded.assignment, assignment.compact(), "{linkage:?}");
        let below = cfg.theta / 2.0;
        assert_eq!(
            banded.cut_at(below),
            Some(cut_dendrogram(&dendrogram, below).compact()),
            "{linkage:?}: sub-θ cut"
        );
    }
}

/// Stages 1–2 emit exactly the pairs the collision oracle accepts:
/// no false drops (the superset property survives the shuffle) and no
/// duplicates (the dedup stage emits each pair once).
#[test]
fn candidates_match_collision_oracle_and_are_unique() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(200.0, 11);
    let sketches = sketches_of(&reads, &cfg);

    let mut p = Pipeline::new("test-candidates");
    let candidates = banded_candidates(&sketches, &cfg, &mut p).expect("banded stages");

    let scheme = cfg.banding_scheme();
    let mut oracle = Vec::new();
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            if scheme.collides(&sketches[i], &sketches[j]) {
                oracle.push((i as u32, j as u32));
            }
        }
    }
    assert_eq!(candidates, oracle, "candidate list must equal the oracle");

    let mut deduped = candidates.clone();
    deduped.dedup();
    assert_eq!(deduped.len(), candidates.len(), "no duplicate pairs");
    assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted output");
}

/// The sparse graph holds exactly the θ-edges of the dense truth scan:
/// recall 1.0 (pigeonhole guarantee) and precision 1.0 (the verify
/// stage applies the same `sim ≥ θ` test), with identical weights.
#[test]
fn sparse_graph_equals_dense_truth() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(200.0, 13);
    let sketches = sketches_of(&reads, &cfg);

    let mut p = Pipeline::new("test-graph");
    let graph = banded_graph_stage(&sketches, &cfg, &mut p).expect("banded stages");

    let mut truth = 0usize;
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            let sim = positional_similarity(&sketches[i], &sketches[j]);
            if sim >= cfg.theta {
                truth += 1;
                assert_eq!(
                    graph.sim(i, j),
                    (sim as f32) as f64,
                    "edge ({i},{j}) must carry the verified similarity"
                );
            } else {
                assert_eq!(graph.sim(i, j), 0.0, "({i},{j}) is below θ");
            }
        }
    }
    assert_eq!(graph.num_edges(), truth, "recall and precision 1.0");
}

/// Task panics in the banding *reducers* (bucket collection and pair
/// dedup) and the verify mappers must be recovered with a
/// bit-identical graph — the pipeline's new reduce-phase recovery
/// surface.
#[test]
fn reducer_faults_recover_bit_identical() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(150.0, 17);
    let sketches = sketches_of(&reads, &cfg);

    let mut clean_p = Pipeline::new("test-clean");
    let clean = banded_graph_stage(&sketches, &cfg, &mut clean_p).expect("clean run");

    // Job ordinals under this injector: 0 = band-signatures,
    // 1 = candidate-dedup, 2 = verify.
    let inj = FaultPlan::new()
        .task_panic(0, Phase::Reduce, 0, 2)
        .task_panic(1, Phase::Reduce, 1, 1)
        .task_panic(2, Phase::Map, 0, 1)
        .injector();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut faulty_p = Pipeline::new("test-faulty").with_faults(Arc::new(inj));
    let faulty = banded_graph_stage(&sketches, &cfg, &mut faulty_p);
    std::panic::set_hook(hook);

    let faulty = faulty.expect("faults within the retry budget must recover");
    assert_eq!(faulty, clean, "recovered graph must be bit-identical");
    assert!(
        faulty_p.total_recovery().tasks_retried >= 4,
        "the injected failures must show up in the ledger"
    );
}

/// Each banding stage ships less than the least its traffic could cost
/// at fixed widths: stage 1 undercuts one `(band u32, signature u64)`
/// key, a count byte and a `u32` per member for every full-signature
/// bucket (grouped once globally, which no map-side grouping beats),
/// and stage 2 undercuts one `(u32, u32)` key plus a count byte per
/// distinct candidate.
#[test]
fn banding_stages_undercut_fixed_width_floor() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let sketches = sketches_of(&corpus(220.0, 21), &cfg);
    let mut p = Pipeline::new("test-wire-bytes");
    banded_candidates(&sketches, &cfg, &mut p).expect("banded stages");

    let scheme = cfg.banding_scheme();
    let mut buckets: HashMap<(usize, u64), u64> = HashMap::new();
    for sketch in &sketches {
        for band in 0..scheme.bands {
            *buckets
                .entry((band, scheme.signature(band, sketch.values())))
                .or_default() += 1;
        }
    }
    let bucket_floor: u64 = buckets.values().map(|members| 12 + 1 + 4 * members).sum();
    let pair_floor = 9 * p.counter_total("CANDIDATES_EMITTED");

    // Stages 0–1 of the pipeline are band-signatures/candidate-dedup.
    for (stage, floor) in [(0, bucket_floor), (1, pair_floor)] {
        let stage = &p.stages()[stage];
        assert!(
            stage.shuffled_bytes < floor,
            "{}: {} shuffled bytes must undercut the fixed-width floor {floor}",
            stage.name,
            stage.shuffled_bytes
        );
    }
}

/// Shuffle fetch failures past the retry limit force map re-execution;
/// the re-executed maps re-encode their id runs deterministically, so
/// the retried fetch decodes to identical groups and the final graph
/// is bit-identical — the chaos contract on the compact wire plane
/// (both banding stages lose an output).
#[test]
fn fetch_failures_recover_bit_identical() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(150.0, 23);
    let sketches = sketches_of(&reads, &cfg);

    let mut clean_p = Pipeline::new("test-clean-fetch");
    let clean = banded_graph_stage(&sketches, &cfg, &mut clean_p).expect("clean run");

    // Job ordinals: 0 = band-signatures, 1 = candidate-dedup. Five
    // failures exceed FETCH_RETRY_LIMIT, declaring the map output lost.
    let inj = FaultPlan::new()
        .shuffle_fetch_fail(0, 1, 0, 5)
        .shuffle_fetch_fail(1, 0, 1, 5)
        .injector();
    let mut faulty_p = Pipeline::new("test-faulty-fetch").with_faults(Arc::new(inj));
    let faulty =
        banded_graph_stage(&sketches, &cfg, &mut faulty_p).expect("fetch failures must recover");
    assert_eq!(faulty, clean, "recovered graph must be bit-identical");
    assert_eq!(
        faulty_p.total_recovery().maps_reexecuted_fetch_fail,
        2,
        "both lost map outputs must be re-executed"
    );
    assert!(faulty_p.total_recovery().shuffle_fetch_retries >= 2);
}

/// The u32 read-id guard: the helper rejects inputs past u32::MAX and
/// accepts everything the shuffle can actually address.
#[test]
fn read_id_guard() {
    assert!(ensure_read_ids_fit(0).is_ok());
    assert!(ensure_read_ids_fit(u32::MAX as usize).is_ok());
    let err = ensure_read_ids_fit(u32::MAX as usize + 1).unwrap_err();
    assert!(err.to_string().contains("u32 read-id space"), "{err}");

    // The pipeline surfaces the same guard (trivially satisfiable
    // here; the guard sits on the entry path).
    let cfg = MrMcConfig::sixteen_s().banded();
    let mut p = Pipeline::new("test-guard");
    assert!(banded_candidates(&[], &cfg, &mut p).is_ok());
}

/// Degenerate inputs: empty and single-read corpora produce empty
/// graphs without panicking, in both the candidate and graph APIs.
#[test]
fn degenerate_inputs() {
    let cfg = MrMcConfig::sixteen_s().banded();
    for n in [0usize, 1] {
        let reads = corpus(200.0, 3);
        let sketches = sketches_of(&reads[..n.min(reads.len())], &cfg);
        let mut p = Pipeline::new("test-degenerate");
        let candidates = banded_candidates(&sketches, &cfg, &mut p).expect("candidates");
        assert!(candidates.is_empty());
        let graph = banded_graph_stage(&sketches, &cfg, &mut p).expect("graph");
        assert_eq!(graph.num_edges(), 0);
    }
}
