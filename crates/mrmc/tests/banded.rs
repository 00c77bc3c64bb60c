//! Integration tests of the banded-LSH candidate pipeline: banded
//! against dense on a fixed corpus, builder order, the candidate
//! oracle, the θ-edges, dedup completeness, the shuffle floors, the
//! read-id guard and fault recovery through the banding reducers. The
//! route against dense and against the zero-filled θ-graph oracle on
//! drawn communities is `routes_agree`'s P2 (`crates/testkit`).

use std::collections::HashMap;
use std::sync::Arc;

use mrmc::banded::{banded_candidates, banded_graph_stage, ensure_read_ids_fit};
use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_cluster::Linkage;
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::positional_similarity;
use mrmc_testkit::community::huse;
use mrmc_testkit::routes::{greedy_scan, oracle_sketches};

/// Banded equals dense on 280 Huse reads, at θ whose `f32` image rounds
/// down (0.95, 0.90) and up (0.85, 0.80), θ·n integral at 0.90 and 0.80
/// so pairs sit on the cut: greedy (and both are the scan), complete
/// linkage at every θ (no tie in [θ, 1) reorders a merge here) and
/// average linkage at 0.95, where the corpus is θ-separated (DESIGN.md
/// §5c). `routes_agree`'s P2 holds the rest on drawn communities.
#[test]
fn banded_clustering_identical_to_dense() {
    let reads = huse(280, 9);
    let sketches = oracle_sketches(&reads, &MrMcConfig::sixteen_s());
    for theta in [0.95, 0.90, 0.85, 0.80] {
        let base = MrMcConfig::sixteen_s().with_theta(theta);
        let mut arms = vec![base.greedy()];
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            arms.push(MrMcConfig {
                linkage,
                ..base.hierarchical()
            });
        }
        arms.truncate(if theta == 0.95 { 4 } else { 3 });
        for cfg in arms {
            let dense = MrMcMinH::new(cfg).run(&reads).expect("dense run");
            let banded = MrMcMinH::new(cfg.banded()).run(&reads).expect("banded run");
            let what = format!("θ = {theta}, {:?} {:?}", cfg.mode, cfg.linkage);
            assert_eq!(banded.assignment, dense.assignment, "{what}");
            if cfg.mode == Mode::Greedy {
                assert_eq!(dense.assignment, greedy_scan(&sketches, theta), "{what}");
            }
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
    let reads = huse(2000, 9);
    let base = MrMcConfig::sixteen_s().greedy();
    let sketches = oracle_sketches(&reads, &base);
    for theta in [0.95, 0.90, 0.85, 0.80] {
        let scan = greedy_scan(&sketches, theta);
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

/// Stages 1–2 emit exactly the pairs the collision oracle accepts:
/// no false drops (the superset property survives the shuffle) and no
/// duplicates (the dedup stage emits each pair once).
#[test]
fn candidates_match_collision_oracle_and_are_unique() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = huse(200, 11);
    let sketches = oracle_sketches(&reads, &cfg);

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
    let reads = huse(200, 13);
    let sketches = oracle_sketches(&reads, &cfg);

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
    let reads = huse(150, 17);
    let sketches = oracle_sketches(&reads, &cfg);

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
    let sketches = oracle_sketches(&huse(220, 21), &cfg);
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
    let reads = huse(150, 23);
    let sketches = oracle_sketches(&reads, &cfg);

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
        let reads = huse(200, 3);
        let sketches = oracle_sketches(&reads[..n.min(reads.len())], &cfg);
        let mut p = Pipeline::new("test-degenerate");
        let candidates = banded_candidates(&sketches, &cfg, &mut p).expect("candidates");
        assert!(candidates.is_empty());
        let graph = banded_graph_stage(&sketches, &cfg, &mut p).expect("graph");
        assert_eq!(graph.num_edges(), 0);
    }
}
