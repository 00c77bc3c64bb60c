//! Property-based tests for the clustering substrate.

use proptest::prelude::*;

use mrmc_cluster::{
    agglomerative, agglomerative_sparse, cut_dendrogram, cut_levels, greedy_cluster,
    linkage::build_dendrogram, ClusterAssignment, CondensedMatrix, Linkage, SparseSimGraph,
};

const LINKAGES: [Linkage; 3] = [Linkage::Single, Linkage::Average, Linkage::Complete];

/// Strategy: a random symmetric similarity oracle over n items, as a
/// seeded deterministic function.
fn sim_fn(seed: u64) -> impl Fn(usize, usize) -> f64 + Copy {
    move |i: usize, j: usize| {
        let (i, j) = (i.min(j) as u64, i.max(j) as u64);
        let mut h =
            seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15)) ^ (j.wrapping_mul(0xC2B2AE3D27D4EB4F));
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        (h % 1000) as f64 / 1000.0
    }
}

/// The dense oracle's input: the matrix a sparse graph stands for,
/// 0.0 for every missing pair.
fn zero_filled(g: &SparseSimGraph) -> CondensedMatrix {
    CondensedMatrix::build(g.len(), |i, j| g.sim(i, j))
}

/// A θ-graph in miniature: `groups` planted groups with most of their
/// internal edges, rare weak cross edges, about one node in eight
/// isolated. Similarities sit on coarse grids so equal distances —
/// and equal Lance–Williams results — are common; the grids include
/// 1.0 (distance 0) and 0.0 (an edge that stores distance 1.0).
fn planted_graph(n: usize, groups: usize, seed: u64) -> SparseSimGraph {
    const WITHIN: [f32; 4] = [0.5, 0.75, 0.9, 1.0];
    const ACROSS: [f32; 4] = [0.0, 0.1, 0.3, 0.5];
    let pick = |salt: u64, i: usize, j: usize| (sim_fn(seed ^ salt)(i, j) * 1000.0) as usize;
    let group = |i: usize| pick(1, i, i) % groups;
    let isolated = |i: usize| pick(2, i, i) % 8 == 0;
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if isolated(i) || isolated(j) {
                continue;
            }
            let (grid, percent) = if group(i) == group(j) {
                (WITHIN, 70)
            } else {
                (ACROSS, 3)
            };
            if pick(3, i, j) % 100 < percent {
                edges.push((i as u32, j as u32, grid[pick(4, i, j) % 4]));
            }
        }
    }
    SparseSimGraph::from_edges(n, edges)
}

/// The whole result — every merge, representative, height and their
/// order, and the θ-cut — equals the dense run on the zero-filled
/// matrix.
fn assert_replays_dense(g: &SparseSimGraph, theta: f64, what: &str) {
    let m = zero_filled(g);
    for linkage in LINKAGES {
        assert_eq!(
            agglomerative_sparse(g, linkage, theta),
            agglomerative(&m, linkage, theta),
            "{what}, {linkage:?}, θ={theta}"
        );
    }
}

#[test]
fn sparse_linkage_directed_cases() {
    let clique = |lo: u32, hi: u32, s: f32| {
        (lo..hi).flat_map(move |i| ((i + 1)..hi).map(move |j| (i, j, s)))
    };
    for n in 0..=2 {
        assert_replays_dense(&SparseSimGraph::from_edges(n, vec![]), 0.5, "no edges");
    }
    assert_replays_dense(
        &SparseSimGraph::from_edges(2, vec![(0, 1, 0.8)]),
        0.5,
        "n = 2",
    );
    assert_replays_dense(&SparseSimGraph::from_edges(9, vec![]), 0.5, "all isolated");
    assert_replays_dense(
        &SparseSimGraph::from_edges(7, clique(0, 7, 0.9)),
        0.5,
        "one clique",
    );
    let mut joined: Vec<_> = clique(0, 4, 0.9).chain(clique(4, 9, 0.8)).collect();
    joined.push((3, 4, 0.1));
    assert_replays_dense(
        &SparseSimGraph::from_edges(9, joined),
        0.5,
        "two components, one weak edge",
    );
    // Item 0 starts every chain; here it has no edge at all.
    assert_replays_dense(
        &SparseSimGraph::from_edges(6, clique(1, 6, 0.7)),
        0.5,
        "isolated chain start",
    );
    // Identical items, and edges that carry no similarity.
    assert_replays_dense(
        &SparseSimGraph::from_edges(5, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0), (3, 4, 1.0)]),
        1.0,
        "distance 0 and distance 1 edges",
    );
}

proptest! {
    /// Algorithm 2 on the CSR graph replays the dense run on the
    /// zero-filled matrix, for every linkage.
    #[test]
    fn sparse_linkage_replays_zero_filled_dense(
        n in 0usize..=64,
        groups in 1usize..6,
        seed in any::<u64>(),
        theta in proptest::sample::select(vec![0.0, 0.3, 0.5, 0.75, 0.9, 1.0]),
    ) {
        assert_replays_dense(&planted_graph(n, groups, seed), theta, "planted graph");
    }

    /// Most pairs arrive many times, in both orientations and with
    /// different similarities: each keeps its largest, so the graph is
    /// symmetric and blind to the order of the edge list.
    #[test]
    fn from_edges_many_duplicates_symmetric(seed in any::<u64>()) {
        const N: usize = 64;
        let pick = |salt: u64, e: usize| (sim_fn(seed ^ salt)(e, e) * 1000.0) as u32;
        let mut edges: Vec<(u32, u32, f32)> = (0..2000)
            .map(|e| (pick(1, e) % N as u32, pick(2, e) % N as u32, pick(3, e) as f32 / 1000.0))
            .collect();
        let g = SparseSimGraph::from_edges(N, edges.clone());
        let mut want = std::collections::BTreeMap::new();
        for &(i, j, s) in edges.iter().filter(|e| e.0 != e.1) {
            let best = want.entry((i.min(j), i.max(j))).or_insert(s);
            *best = best.max(s);
        }
        let want: Vec<(u32, u32, f32)> = want.into_iter().map(|((i, j), s)| (i, j, s)).collect();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), want);
        for i in 0..N {
            for j in 0..N {
                prop_assert_eq!(g.sim(i, j), g.sim(j, i), "({}, {})", i, j);
            }
        }
        edges.reverse();
        prop_assert_eq!(SparseSimGraph::from_edges(N, edges), g);
    }

    /// Greedy assigns every item exactly one in-range label.
    #[test]
    fn greedy_total_assignment(n in 0usize..60, theta in 0.0f64..1.0, seed in any::<u64>()) {
        let a = greedy_cluster(n, theta, sim_fn(seed));
        prop_assert_eq!(a.len(), n);
        for i in 0..n {
            prop_assert!(a.label(i) < n.max(1));
        }
        let sizes: usize = a.sizes().iter().sum();
        prop_assert_eq!(sizes, n);
    }

    /// Greedy extremes: θ = 0 lumps everything into the first seed's
    /// cluster; θ above every similarity yields all singletons.
    /// (Interior θ is *not* monotone for greedy — it is order-dependent,
    /// which is exactly why the paper's hierarchical variant exists.)
    #[test]
    fn greedy_extremes(n in 1usize..50, seed in any::<u64>()) {
        let f = sim_fn(seed);
        prop_assert_eq!(greedy_cluster(n, 0.0, f).num_clusters(), 1);
        // sim_fn yields values < 1.0, so θ = 1.0 isolates everything.
        prop_assert_eq!(greedy_cluster(n, 1.0, f).num_clusters(), n);
    }

    /// Every greedy member clears θ against its cluster's seed (the
    /// Algorithm 1 line-9 guarantee). Seeds are the lowest-indexed
    /// member of their cluster.
    #[test]
    fn greedy_members_clear_theta_vs_seed(n in 1usize..40, theta in 0.1f64..0.9, seed in any::<u64>()) {
        let f = sim_fn(seed);
        let a = greedy_cluster(n, theta, f);
        let members = a.members();
        for cluster in members.values() {
            let seed_item = *cluster.iter().min().unwrap();
            for &m in cluster {
                if m != seed_item {
                    prop_assert!(f(seed_item, m) >= theta);
                }
            }
        }
    }

    /// A connected dendrogram has exactly n−1 merges and cutting it at
    /// θ = 0 gives one cluster, θ > max-similarity gives singletons.
    #[test]
    fn dendrogram_structure(n in 2usize..40, seed in any::<u64>(), linkage_idx in 0usize..3) {
        let linkage = LINKAGES[linkage_idx];
        let m = CondensedMatrix::build(n, sim_fn(seed));
        let d = build_dendrogram(&m, linkage);
        prop_assert_eq!(d.merges.len(), n - 1);
        prop_assert_eq!(cut_dendrogram(&d, 0.0).num_clusters(), 1);
        prop_assert_eq!(cut_dendrogram(&d, 1.01).num_clusters(), n);
    }

    /// Cutting is monotone in θ for every linkage.
    #[test]
    fn cut_monotone_in_theta(n in 2usize..35, seed in any::<u64>(), linkage_idx in 0usize..3) {
        let linkage = LINKAGES[linkage_idx];
        let m = CondensedMatrix::build(n, sim_fn(seed));
        let d = build_dendrogram(&m, linkage);
        let mut prev = 0usize;
        for theta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = cut_dendrogram(&d, theta).num_clusters();
            prop_assert!(c >= prev, "θ={theta}: {c} < {prev}");
            prev = c;
        }
    }

    /// Single linkage at θ equals the connected components of the
    /// θ-threshold similarity graph — the defining invariant.
    #[test]
    fn single_linkage_is_connected_components(n in 2usize..30, seed in any::<u64>(), theta in 0.1f64..0.9) {
        let f = sim_fn(seed);
        let m = CondensedMatrix::build(n, f);
        let (assign, _) = agglomerative(&m, Linkage::Single, theta);
        // Reference components by union-find over threshold edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x { p[x] = p[p[x]]; x = p[x]; }
            x
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if f(i, j) >= theta {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj { parent[ri] = rj; }
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let same_cc = find(&mut parent, i) == find(&mut parent, j);
                prop_assert_eq!(assign.label(i) == assign.label(j), same_cc, "pair ({}, {})", i, j);
            }
        }
    }

    /// Complete linkage guarantee: every within-cluster pair clears θ
    /// ("no pair of sequences within a cluster have less than θ
    /// percent similarity" — paper §III-B2). Consequently complete
    /// never yields fewer clusters than single.
    #[test]
    fn complete_linkage_clique_guarantee(n in 2usize..30, seed in any::<u64>(), theta in 0.1f64..0.9) {
        let f = sim_fn(seed);
        let m = CondensedMatrix::build(n, f);
        let (complete, _) = agglomerative(&m, Linkage::Complete, theta);
        for i in 0..n {
            for j in (i + 1)..n {
                if complete.label(i) == complete.label(j) {
                    prop_assert!(f(i, j) >= theta - 1e-9);
                }
            }
        }
        let (single, _) = agglomerative(&m, Linkage::Single, theta);
        prop_assert!(single.num_clusters() <= complete.num_clusters());
    }

    /// Merge heights are monotone non-increasing for every linkage
    /// (monotone linkages have no inversions).
    #[test]
    fn heights_monotone(n in 2usize..35, seed in any::<u64>(), linkage_idx in 0usize..3) {
        let linkage = LINKAGES[linkage_idx];
        let m = CondensedMatrix::build(n, sim_fn(seed));
        let d = build_dendrogram(&m, linkage);
        let h = d.heights();
        for w in h.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "{h:?}");
        }
    }

    /// The condensed matrix stores what was built, symmetrically.
    #[test]
    fn matrix_symmetric_storage(n in 2usize..40, seed in any::<u64>()) {
        let f = sim_fn(seed);
        let m = CondensedMatrix::build_parallel(n, f);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    prop_assert!((m.get(i, j) - f(i, j)).abs() < 1e-6);
                    prop_assert_eq!(m.get(i, j), m.get(j, i));
                }
            }
        }
    }

    /// Multi-level cuts from one dendrogram form a taxonomy: a cut at
    /// higher θ *refines* the cut at lower θ (every fine cluster lies
    /// wholly inside one coarse cluster).
    #[test]
    fn cut_levels_nested_refinement(n in 2usize..30, seed in any::<u64>(), linkage_idx in 0usize..3) {
        let linkage = LINKAGES[linkage_idx];
        let m = CondensedMatrix::build(n, sim_fn(seed));
        let d = build_dendrogram(&m, linkage);
        let levels = cut_levels(&d, &[0.9, 0.6, 0.3]); // fine → coarse
        for w in levels.windows(2) {
            let (fine, coarse) = (&w[0], &w[1]);
            // Same fine cluster → same coarse cluster.
            for i in 0..n {
                for j in (i + 1)..n {
                    if fine.label(i) == fine.label(j) {
                        prop_assert_eq!(coarse.label(i), coarse.label(j));
                    }
                }
            }
            prop_assert!(coarse.num_clusters() <= fine.num_clusters());
        }
    }

    /// compact() preserves the partition structure.
    #[test]
    fn compact_preserves_partition(labels in proptest::collection::vec(0usize..20, 1..50)) {
        let a = ClusterAssignment::from_labels(labels.clone());
        let c = a.compact();
        prop_assert_eq!(a.num_clusters(), c.num_clusters());
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                prop_assert_eq!(
                    a.label(i) == a.label(j),
                    c.label(i) == c.label(j)
                );
            }
        }
    }
}
