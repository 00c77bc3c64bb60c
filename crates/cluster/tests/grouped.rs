//! A group of identical items clustered as one weighted vertex equals
//! the items planted one by one: `agglomerative_grouped` and
//! `agglomerative_sparse_grouped` against the unit-size run over the
//! expanded input. Single linkage, grouped or not, is also checked
//! against an oracle that runs no linkage at all: connected components
//! and a maximum spanning forest.

use proptest::prelude::*;

use mrmc_cluster::{
    agglomerative, agglomerative_grouped, agglomerative_sparse, agglomerative_sparse_grouped,
    cut_dendrogram, ClusterAssignment, CondensedMatrix, Dendrogram, Linkage, SparseSimGraph,
};

const LINKAGES: [Linkage; 3] = [Linkage::Single, Linkage::Average, Linkage::Complete];

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut h = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^ (h >> 33)
}

/// Items planted as copies of groups, and groups as twins of bases.
struct Planted {
    /// Group of each item, numbered by first occurrence.
    of: Vec<u32>,
    /// Base of each group: two groups of one base are distinct items
    /// with equal rows, at similarity 1.0 to each other.
    base: Vec<usize>,
    seed: u64,
}

impl Planted {
    /// `bases` bases, each with 1–2 groups, each group with 1–4
    /// copies, the copies in a seeded order.
    fn new(bases: usize, seed: u64) -> Planted {
        let mut vertices = Vec::new();
        for b in 0..bases {
            for _ in 0..1 + mix(seed, 1, b as u64) % 2 {
                vertices.push(b);
            }
        }
        let mut items: Vec<usize> = Vec::new();
        for v in 0..vertices.len() {
            let copies = 1 + mix(seed, 2, v as u64) % 4;
            items.extend(std::iter::repeat_n(v, copies as usize));
        }
        // Fisher–Yates on the seeded stream.
        for i in (1..items.len()).rev() {
            let j = (mix(seed, 3, i as u64) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
        // Number the groups by first occurrence.
        let mut group_of_vertex = vec![u32::MAX; vertices.len()];
        let mut base = Vec::new();
        let mut of = Vec::with_capacity(items.len());
        for v in items {
            if group_of_vertex[v] == u32::MAX {
                group_of_vertex[v] = base.len() as u32;
                base.push(vertices[v]);
            }
            of.push(group_of_vertex[v]);
        }
        Planted { of, base, seed }
    }

    fn groups(&self) -> usize {
        self.base.len()
    }

    /// Similarity of two groups: 1.0 within a base, else j/50 for
    /// j in 0..50, so ties are everywhere.
    fn sim(&self, g: usize, h: usize) -> f64 {
        let (a, b) = (
            self.base[g].min(self.base[h]),
            self.base[g].max(self.base[h]),
        );
        if a == b {
            1.0
        } else {
            (mix(self.seed, 4 + a as u64, b as u64) % 50) as f64 / 50.0
        }
    }

    /// The θ-graph's edges between groups: every 1.0 pair, and a
    /// seeded half of the rest, chosen per pair of bases so that twins
    /// keep equal rows.
    fn edges(&self) -> Vec<(u32, u32, f32)> {
        let mut edges = Vec::new();
        for g in 0..self.groups() {
            for h in g + 1..self.groups() {
                let (a, b) = (
                    self.base[g].min(self.base[h]),
                    self.base[g].max(self.base[h]),
                );
                if a == b || mix(!self.seed, a as u64, b as u64) & 1 == 0 {
                    edges.push((g as u32, h as u32, self.sim(g, h) as f32));
                }
            }
        }
        edges
    }

    fn grouped_matrix(&self) -> CondensedMatrix {
        CondensedMatrix::build(self.groups(), |g, h| self.sim(g, h))
    }

    fn item_matrix(&self) -> CondensedMatrix {
        let of = &self.of;
        CondensedMatrix::build(of.len(), |i, j| {
            let (g, h) = (of[i] as usize, of[j] as usize);
            if g == h {
                1.0
            } else {
                self.sim(g, h)
            }
        })
    }

    fn grouped_graph(&self) -> SparseSimGraph {
        SparseSimGraph::from_edges(self.groups(), self.edges())
    }

    /// The group edges expanded over the items, with every two copies
    /// of a group joined at 1.0.
    fn item_graph(&self) -> SparseSimGraph {
        let mut members = vec![Vec::new(); self.groups()];
        for (i, &g) in self.of.iter().enumerate() {
            members[g as usize].push(i as u32);
        }
        let mut edges = Vec::new();
        for m in &members {
            for (k, &a) in m.iter().enumerate() {
                edges.extend(m[k + 1..].iter().map(|&b| (a, b, 1.0)));
            }
        }
        for (g, h, s) in self.edges() {
            for &a in &members[g as usize] {
                edges.extend(members[h as usize].iter().map(|&b| (a, b, s)));
            }
        }
        SparseSimGraph::from_edges(self.of.len(), edges)
    }
}

/// The grouped run is the item run's hierarchy, for every linkage:
/// the same θ-cut, the same heights, the same partition at every
/// height and the same merges below 1.0.
fn assert_same_hierarchy(
    grouped: &(ClusterAssignment, Dendrogram),
    items: &(ClusterAssignment, Dendrogram),
    what: &str,
) {
    let ((ga, gd), (ia, id)) = (grouped, items);
    assert_eq!(ga, ia, "{what}: labels at θ");
    assert_eq!(gd.n, id.n, "{what}: leaves");
    assert_eq!(gd.merges.len(), id.merges.len(), "{what}: merge count");
    let sorted = |d: &Dendrogram| {
        let mut h = d.heights();
        h.sort_by(f64::total_cmp);
        h
    };
    assert_eq!(sorted(gd), sorted(id), "{what}: heights");
    let mut heights = sorted(id);
    heights.dedup();
    for h in heights {
        assert_eq!(
            cut_dendrogram(gd, h),
            cut_dendrogram(id, h),
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
    assert_eq!(below(gd), below(id), "{what}: merges below 1.0");
}

fn assert_grouped_equals_planted(planted: &Planted, theta: f64) {
    let (matrix, items) = (planted.grouped_matrix(), planted.item_matrix());
    let (graph, item_graph) = (planted.grouped_graph(), planted.item_graph());
    for linkage in LINKAGES {
        let what = format!(
            "{} items, {} groups, {linkage:?}, θ = {theta}",
            planted.of.len(),
            planted.groups()
        );
        assert_same_hierarchy(
            &agglomerative_grouped(&matrix, &planted.of, linkage, theta),
            &agglomerative(&items, linkage, theta),
            &format!("dense, {what}"),
        );
        // An owned matrix links as a borrowed one does.
        assert_eq!(
            agglomerative_grouped(matrix.clone(), &planted.of, linkage, theta),
            agglomerative_grouped(&matrix, &planted.of, linkage, theta),
            "dense owned, {what}"
        );
        assert_same_hierarchy(
            &agglomerative_sparse_grouped(&graph, &planted.of, linkage, theta),
            &agglomerative_sparse(&item_graph, linkage, theta),
            &format!("sparse, {what}"),
        );
    }
}

#[test]
fn grouped_directed_cases() {
    // No items, one item, one group of copies, no copies at all.
    for (of, bases) in [(vec![], vec![]), (vec![0], vec![0]), (vec![0; 5], vec![0])] {
        let planted = Planted {
            of,
            base: bases,
            seed: 7,
        };
        assert_grouped_equals_planted(&planted, 0.5);
    }
    let planted = Planted {
        of: (0..9).collect(),
        base: (0..9).collect(),
        seed: 11,
    };
    assert_grouped_equals_planted(&planted, 0.5);
    // Twins and copies side by side: groups 0 and 2 share base 0.
    let planted = Planted {
        of: vec![0, 1, 0, 2, 3, 2, 1, 0],
        base: vec![0, 1, 0, 2],
        seed: 3,
    };
    assert_grouped_equals_planted(&planted, 0.4);
}

#[test]
#[should_panic(expected = "opens group 2 before group 1")]
fn groups_must_be_numbered_by_first_occurrence() {
    let matrix = CondensedMatrix::build(3, |_, _| 0.5);
    agglomerative_grouped(&matrix, &[0, 2, 1], Linkage::Average, 0.5);
}

#[test]
#[should_panic(expected = "one vertex per group")]
fn every_vertex_is_a_group() {
    let graph = SparseSimGraph::from_edges(3, vec![]);
    agglomerative_sparse_grouped(&graph, &[0, 1, 0], Linkage::Complete, 0.5);
}

proptest! {
    #[test]
    fn weighted_vertex_equals_planted_copies(
        bases in 1usize..12,
        seed in any::<u64>(),
        theta in proptest::sample::select(vec![0.0, 0.3, 0.5, 0.8, 1.0]),
    ) {
        assert_grouped_equals_planted(&Planted::new(bases, seed), theta);
    }
}

/// Cuts between the points of [`Planted::sim`]'s grid, and at 1.0, so
/// no height's `f32` rounding can cross one.
const SINGLE_THETAS: [f64; 7] = [0.01, 0.27, 0.49, 0.51, 0.75, 0.99, 1.0];

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

/// `run` is the single-linkage dendrogram of `n` items whose pairs
/// `pairs` have the given similarities, every other pair 0.0: its cut
/// at each θ is the connected components of the pairs at similarity
/// ≥ θ, and its heights are the weights of a maximum spanning forest
/// (Kruskal), each read through the route's `f32` distance, plus a 0.0
/// merge for each extra component.
fn assert_single_is_forest(
    run: &Dendrogram,
    n: usize,
    mut pairs: Vec<(usize, usize, f64)>,
    what: &str,
) {
    assert_eq!(run.n, n, "{what}: leaves");
    for theta in SINGLE_THETAS {
        let mut parent: Vec<usize> = (0..n).collect();
        for &(i, j, s) in &pairs {
            if s >= theta {
                join(&mut parent, i, j);
            }
        }
        let components = (0..n).map(|i| root(&mut parent, i)).collect();
        assert_eq!(
            cut_dendrogram(run, theta),
            ClusterAssignment::from_labels(components).compact(),
            "{what}: cut at {theta}"
        );
    }
    pairs.sort_by(|x, y| y.2.total_cmp(&x.2));
    let mut parent: Vec<usize> = (0..n).collect();
    let mut forest: Vec<f64> = pairs
        .into_iter()
        .filter(|&(i, j, _)| join(&mut parent, i, j))
        .map(|(_, _, s)| 1.0 - f64::from((1.0 - s) as f32))
        .collect();
    forest.resize(n.saturating_sub(1), 0.0);
    forest.sort_by(f64::total_cmp);
    let mut heights = run.heights();
    heights.sort_by(f64::total_cmp);
    assert_eq!(heights, forest, "{what}: heights");
}

fn matrix_pairs(m: &CondensedMatrix) -> Vec<(usize, usize, f64)> {
    let n = m.len();
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j, m.get(i, j))))
        .collect()
}

fn graph_pairs(g: &SparseSimGraph) -> Vec<(usize, usize, f64)> {
    g.edges()
        .map(|(i, j, s)| (i as usize, j as usize, f64::from(s)))
        .collect()
}

proptest! {
    /// Single linkage on grid-valued dense matrices and on seeded
    /// sparse graphs, over the groups and over their items.
    #[test]
    fn single_linkage_is_components_and_spanning_forest(
        bases in 1usize..12,
        seed in any::<u64>(),
    ) {
        let planted = Planted::new(bases, seed);
        let (matrix, graph) = (planted.grouped_matrix(), planted.grouped_graph());
        let (groups, items) = (planted.groups(), planted.of.len());
        let what = format!("{items} items, {groups} groups, seed {seed}");
        let single = Linkage::Single;
        assert_single_is_forest(
            &agglomerative(&matrix, single, 0.5).1,
            groups,
            matrix_pairs(&matrix),
            &format!("dense, {what}"),
        );
        assert_single_is_forest(
            &agglomerative_grouped(&matrix, &planted.of, single, 0.5).1,
            items,
            matrix_pairs(&planted.item_matrix()),
            &format!("dense grouped, {what}"),
        );
        assert_single_is_forest(
            &agglomerative_sparse(&graph, single, 0.5).1,
            groups,
            graph_pairs(&graph),
            &format!("sparse, {what}"),
        );
        assert_single_is_forest(
            &agglomerative_sparse_grouped(&graph, &planted.of, single, 0.5).1,
            items,
            graph_pairs(&planted.item_graph()),
            &format!("sparse grouped, {what}"),
        );
    }
}
