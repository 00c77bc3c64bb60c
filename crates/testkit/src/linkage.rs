//! Oracles of Algorithm 2: the NN-chain as first written, the
//! hierarchy check every grouped route is held to, the per-read
//! θ-graph a grouped one expands to, and single linkage without any
//! linkage (connected components and a maximum spanning forest).

use mrmc_cluster::{
    cut_dendrogram, ClusterAssignment, CondensedMatrix, Dendrogram, Groups, Linkage, Merge,
    SparseSimGraph,
};

/// The NN-chain the linkage module first ran: every distance through
/// `get`/`set`, every scan over `0..n` skipping dead clusters; item `i`
/// starts as a cluster of `size[i]` members. Its merges, stably sorted
/// by decreasing similarity as the production linkage returns them.
#[allow(clippy::needless_range_loop)] // scans skip inactive clusters by index
pub fn reference_nn_chain(
    matrix: &CondensedMatrix,
    mut size: Vec<usize>,
    linkage: Linkage,
) -> Dendrogram {
    let n = matrix.len();
    let mut dist = CondensedMatrix::build(n, |i, j| 1.0 - matrix.get(i, j));
    let mut active = vec![true; n];
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            chain.push((0..n).find(|&c| active[c]).expect("remaining > 1"));
        }
        loop {
            let a = *chain.last().expect("chain nonempty");
            // Nearest active neighbour of a (smallest index on ties).
            let (mut best, mut best_d) = (usize::MAX, f64::INFINITY);
            for c in 0..n {
                if c != a && active[c] && dist.get(a, c) < best_d {
                    best_d = dist.get(a, c);
                    best = c;
                }
            }
            // Reciprocal pair: prefer the chain predecessor on equal
            // distance (guarantees termination).
            if chain.len() >= 2 {
                let prev = chain[chain.len() - 2];
                if best == prev || dist.get(a, prev) <= best_d {
                    chain.truncate(chain.len() - 2);
                    let d_ab = dist.get(a, prev);
                    let (keep, drop) = (a.min(prev), a.max(prev));
                    merges.push(Merge {
                        a: keep,
                        b: drop,
                        similarity: 1.0 - d_ab,
                    });
                    // Lance–Williams update of keep = a ∪ prev.
                    for c in 0..n {
                        if c != keep && c != drop && active[c] {
                            let (dk, dd) = (dist.get(c, keep), dist.get(c, drop));
                            let updated = match linkage {
                                Linkage::Single => dk.min(dd),
                                Linkage::Complete => dk.max(dd),
                                Linkage::Average => {
                                    let (sk, sd) = (size[keep] as f64, size[drop] as f64);
                                    (sk * dk + sd * dd) / (sk + sd)
                                }
                            };
                            dist.set(c, keep, updated);
                        }
                    }
                    size[keep] += size[drop];
                    active[drop] = false;
                    remaining -= 1;
                    break;
                }
            }
            chain.push(best);
        }
    }
    merges.sort_by(|x, y| y.similarity.total_cmp(&x.similarity));
    Dendrogram { n, merges }
}

/// `run` is `oracle`'s hierarchy. A grouped run links each distinct
/// item once and rebuilds the dendrogram over the items, so it may name
/// other pairs in its 1.0 merges than a run over every item; nothing
/// else may. Checked, for every linkage: the leaves and merge count,
/// the heights as a sorted multiset, the partition cut at every
/// distinct height, and the merges below 1.0 pair for pair and in
/// order.
pub fn same_hierarchy(run: &Dendrogram, oracle: &Dendrogram, what: &str) {
    assert_eq!(run.n, oracle.n, "{what}: leaves");
    assert_eq!(run.merges.len(), oracle.merges.len(), "{what}: merges");
    let sorted = |d: &Dendrogram| {
        let mut heights = d.heights();
        heights.sort_by(f64::total_cmp);
        heights
    };
    let mut heights = sorted(oracle);
    assert_eq!(sorted(run), heights, "{what}: heights");
    heights.dedup();
    for h in heights {
        assert_eq!(
            cut_dendrogram(run, h),
            cut_dendrogram(oracle, h),
            "{what}: cut at {h}"
        );
    }
    let below = |d: &Dendrogram| {
        d.merges
            .iter()
            .filter(|m| m.similarity < 1.0)
            .copied()
            .collect::<Vec<_>>()
    };
    assert_eq!(below(run), below(oracle), "{what}: merges below 1.0");
}

/// The θ-graph over the items from the one over their groups: two
/// items of a group at 1.0, and each edge between every member of one
/// group and every member of the other.
pub fn expand(graph: &SparseSimGraph, groups: &Groups) -> SparseSimGraph {
    let mut members = vec![Vec::new(); graph.len()];
    for (item, &g) in groups.of().iter().enumerate() {
        members[g as usize].push(item as u32);
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
    SparseSimGraph::from_edges(groups.of().len(), edges)
}

fn root(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Joins the trees of `a` and `b`; false if they were one already.
fn join(parent: &mut [usize], a: usize, b: usize) -> bool {
    let (ra, rb) = (root(parent, a), root(parent, b));
    parent[ra.max(rb)] = ra.min(rb);
    ra != rb
}

/// Single linkage's cut at θ without a linkage: the connected
/// components of `n` items joined by the `pairs` at similarity ≥ θ.
pub fn components(n: usize, pairs: &[(usize, usize, f64)], theta: f64) -> ClusterAssignment {
    let mut parent: Vec<usize> = (0..n).collect();
    for &(i, j, s) in pairs {
        if s >= theta {
            join(&mut parent, i, j);
        }
    }
    ClusterAssignment::from_labels((0..n).map(|i| root(&mut parent, i)).collect()).compact()
}

/// Single linkage's heights without a linkage: the weights of a maximum
/// spanning forest of the `pairs` (Kruskal), each read through the
/// routes' `f32` distance, plus a 0.0 merge for each extra component;
/// sorted ascending.
pub fn spanning_forest_heights(n: usize, mut pairs: Vec<(usize, usize, f64)>) -> Vec<f64> {
    pairs.sort_by(|x, y| y.2.total_cmp(&x.2));
    let mut parent: Vec<usize> = (0..n).collect();
    let mut forest: Vec<f64> = pairs
        .into_iter()
        .filter(|&(i, j, _)| join(&mut parent, i, j))
        .map(|(_, _, s)| 1.0 - f64::from((1.0 - s) as f32))
        .collect();
    forest.resize(n.saturating_sub(1), 0.0);
    forest.sort_by(f64::total_cmp);
    forest
}
