//! Cross-crate integration tests: the full MrMC-MinH system from
//! simulated FASTA to evaluated clusterings, through both the native
//! API and the Pig script path. `routes_agree` (`crates/testkit`) holds
//! the Pig path to the native one on drawn communities (P3, P4); the
//! test here pins one fixed corpus.

use std::sync::Arc;

use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_minh_suite::baselines::{CdHitLike, Clusterer, DoturLike, McLsh};
use mrmc_minh_suite::cluster::Linkage;
use mrmc_minh_suite::mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_minh_suite::metrics::{
    adjusted_rand_index, weighted_accuracy, weighted_similarity, SimilarityOptions,
};
use mrmc_minh_suite::simulate::{
    environmental_samples, huse_16s, whole_metagenome_samples, ErrorModel,
};
use mrmc_testkit::routes::{oracle_sketches, pig_labels};

/// The headline Table III comparison at miniature scale: hierarchical
/// and greedy must both recover an order-level 2-species sample well,
/// and hierarchical must not lose to greedy.
#[test]
fn whole_metagenome_hierarchical_vs_greedy() {
    let cfg = whole_metagenome_samples()
        .into_iter()
        .find(|s| s.sid == "S8")
        .expect("S8 exists");
    let dataset = cfg.generate(0.004, ErrorModel::with_total_rate(0.002), 3);
    let truth = dataset.labels.as_ref().expect("labeled");
    let theta = mrmc::suggest_theta(&dataset.reads, &MrMcConfig::whole_metagenome(), 80);

    let run = |mode| {
        MrMcMinH::new(MrMcConfig {
            theta,
            mode,
            ..MrMcConfig::whole_metagenome()
        })
        .run(&dataset.reads)
        .expect("run")
    };
    let hier = run(Mode::Hierarchical);
    let greedy = run(Mode::Greedy);

    let acc_h = weighted_accuracy(&hier.assignment, truth, 2).expect("clusters exist");
    let acc_g = weighted_accuracy(&greedy.assignment, truth, 2).expect("clusters exist");
    assert!(acc_h > 90.0, "hierarchical accuracy {acc_h}");
    assert!(acc_g > 80.0, "greedy accuracy {acc_g}");
    assert!(
        acc_h >= acc_g - 5.0,
        "hierarchical ({acc_h}) should not lose to greedy ({acc_g}) by much"
    );
}

/// 16S regime: MrMC-MinH^h must track DOTUR (the alignment gold
/// standard) on cluster structure while being far faster — the
/// headline claim of Table V.
#[test]
fn sixteen_s_mrmc_tracks_dotur() {
    let cfg = environmental_samples()[0]; // 53R
    let dataset = cfg.generate(0.02, 5);
    let theta = 0.95;

    let t_mrmc = std::time::Instant::now();
    let mrmc_h = MrMcMinH::new(MrMcConfig {
        theta,
        mode: Mode::Hierarchical,
        ..MrMcConfig::sixteen_s()
    })
    .run(&dataset.reads)
    .expect("run")
    .assignment;
    let mrmc_secs = t_mrmc.elapsed().as_secs_f64();

    let t_dotur = std::time::Instant::now();
    let dotur = DoturLike { theta }.cluster(&dataset.reads);
    let dotur_secs = t_dotur.elapsed().as_secs_f64();
    let cdhit = CdHitLike {
        theta,
        ..Default::default()
    }
    .cluster(&dataset.reads);

    let (m, d, c) = (
        mrmc_h.num_clusters_at_least(2) as f64,
        dotur.num_clusters_at_least(2) as f64,
        cdhit.num_clusters_at_least(2) as f64,
    );
    // Table V shape: counts comparable across methods (within 25%).
    assert!((m - d).abs() / d < 0.25, "mrmc {m} vs dotur {d}");
    assert!((c - d).abs() / d < 0.25, "cdhit {c} vs dotur {d}");
    // The headline: all-pairs alignment is orders of magnitude slower
    // than the minhash pipeline (paper: 5129 s vs 8.4 s on 53R).
    assert!(
        dotur_secs > mrmc_secs * 5.0,
        "dotur {dotur_secs:.2}s vs mrmc {mrmc_secs:.2}s"
    );

    // And they agree pairwise (high ARI) with each other.
    let ari = adjusted_rand_index(&mrmc_h, dotur.labels());
    assert!(ari > 0.7, "ARI(mrmc, dotur) = {ari}");
}

/// Huse benchmark: MrMC and MC-LSH cluster counts land near the
/// 43-genome ground truth (Table IV's bold-value shape), with
/// singleton error-reads excluded like the paper's size floor.
#[test]
fn huse_cluster_counts() {
    let dataset = huse_16s(0.03, 0.0008, 9); // ~276 reads
    let theta = 0.95;
    let mrmc_h = MrMcMinH::new(MrMcConfig {
        theta,
        mode: Mode::Hierarchical,
        ..MrMcConfig::sixteen_s()
    })
    .run(&dataset.reads)
    .expect("run")
    .assignment;
    let mclsh = McLsh {
        theta,
        ..Default::default()
    }
    .cluster(&dataset.reads);

    let truth_k = 43.0;
    let err = |n: usize| ((n as f64) - truth_k).abs() / truth_k;
    assert!(
        err(mrmc_h.num_clusters_at_least(2)) < 0.30,
        "mrmc count {} vs truth 43",
        mrmc_h.num_clusters_at_least(2)
    );
    assert!(
        err(mclsh.num_clusters_at_least(2)) < 0.30,
        "mc-lsh count {} vs truth 43",
        mclsh.num_clusters_at_least(2)
    );
    // Clusters are pure: each should be dominated by one reference.
    let truth = dataset.labels.as_ref().expect("labeled");
    let acc = weighted_accuracy(&mrmc_h, truth, 2).expect("clusters exist");
    assert!(acc > 95.0, "accuracy {acc}");
}

/// Algorithm 3 is the native pipeline spelled in Pig: at equal
/// `(k, n, seed = $DIV, θ, linkage)` both STORE outputs label every
/// read as `MrMcMinH::run` over the reads in id order does, up to label
/// numbering. k = 5 sketches through the rank table, k = 15 by rolling
/// residues, k = 16 by the blocked walk past `p > 2^32`, and k = 20's
/// values pass `u32::MAX` and are ranked into byte lanes.
#[test]
fn pig_script_labels_equal_native_run() {
    let mut reads = huse_16s(0.03, 90.0 / 345_000.0, 11).reads;
    reads.sort_by(|a, b| a.id.cmp(&b.id));
    let dfs = DfsConfig {
        block_size: 16 * 1024,
        replication: 1,
        nodes: 2,
    };
    for kmer in [5, 15, 16, 20] {
        let base = MrMcConfig {
            kmer,
            num_hashes: 50,
            seed: 1_048_583,
            ..MrMcConfig::default()
        };
        let theta = mrmc::suggest_theta(&reads, &base, 60);
        let config = MrMcConfig { theta, ..base };
        let greedy = MrMcMinH::new(config.greedy()).run(&reads).expect("run");
        let clusters = greedy.assignment.num_clusters();
        assert!(1 < clusters && clusters < reads.len(), "k = {kmer}");
        for linkage in [Linkage::Single, Linkage::Average, Linkage::Complete] {
            let config = MrMcConfig { linkage, ..config };
            let native = MrMcMinH::new(config).run(&reads).expect("run");
            let dfs = Arc::new(Dfs::new(dfs).expect("config"));
            // Every read holds a k-mer, so `pig_labels` labels them all.
            let (hier, greedy_pig) = pig_labels(&reads, &config, &dfs);
            let what = format!("k = {kmer}, {linkage:?}, θ = {theta}");
            assert_eq!(hier.compact(), native.assignment, "{what}");
            assert_eq!(greedy_pig.compact(), greedy.assignment, "{what}");
        }
    }
}

/// Complete-linkage invariant on real pipeline output: every
/// within-cluster sketch pair clears θ.
#[test]
fn complete_linkage_invariant_via_pipeline() {
    let cfg = whole_metagenome_samples()
        .into_iter()
        .find(|s| s.sid == "S10")
        .expect("S10 exists");
    let dataset = cfg.generate(0.002, ErrorModel::with_total_rate(0.002), 2);
    let theta = 0.5;
    let config = MrMcConfig {
        theta,
        mode: Mode::Hierarchical,
        linkage: Linkage::Complete,
        num_hashes: 64,
        ..MrMcConfig::whole_metagenome()
    };
    let result = MrMcMinH::new(config).run(&dataset.reads).expect("run");

    // Recompute sketches independently and verify the guarantee.
    let sketches = oracle_sketches(&dataset.reads, &config);
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            if result.assignment.label(i) == result.assignment.label(j) {
                let s = mrmc_minh_suite::minhash::positional_similarity(&sketches[i], &sketches[j]);
                assert!(
                    s >= theta - 1e-9,
                    "pair ({i},{j}) similarity {s} below θ inside one cluster"
                );
            }
        }
    }
}

/// W.Sim is computable and sane on pipeline output (the metric the
/// paper reports in every table).
#[test]
fn wsim_metric_on_pipeline_output() {
    let cfg = whole_metagenome_samples()
        .into_iter()
        .find(|s| s.sid == "S1")
        .expect("S1 exists");
    let dataset = cfg.generate(0.004, ErrorModel::with_total_rate(0.002), 8);
    let theta = mrmc::suggest_theta(&dataset.reads, &MrMcConfig::whole_metagenome(), 60);
    let result = MrMcMinH::new(MrMcConfig {
        theta,
        ..MrMcConfig::whole_metagenome()
    })
    .run(&dataset.reads)
    .expect("run");
    let wsim = weighted_similarity(
        &result.assignment,
        &dataset.reads,
        &SimilarityOptions {
            max_pairs_per_cluster: 40,
            ..Default::default()
        },
    )
    .expect("clusters exist");
    // Shotgun reads from disjoint loci: the paper's Table III W.Sim
    // sits in the 50–61% band; ours must land in the same regime.
    assert!((45.0..70.0).contains(&wsim), "W.Sim {wsim}");
}
