//! Sparse similarity graphs (CSR adjacency).
//!
//! The banded-LSH candidate pipeline emits only the pairs whose
//! verified similarity reaches θ — a near-linear edge set instead of
//! the O(n²) condensed matrix. [`SparseSimGraph`] stores those edges
//! in compressed sparse rows; every absent pair reads as similarity
//! 0.0, so the graph is the zero-filled θ-graph: edges at or above θ
//! are exact, every pair below θ reads 0.0. Algorithm 2 over it cuts
//! at θ exactly as the dense matrix does for single linkage, which
//! looks only at whether pairs clear θ, and for complete linkage while
//! no two merges in [θ, 1) tie (a tie's order reads the pruned sub-θ
//! values). Average linkage
//! sums the sub-θ similarities the graph zeroes, so its θ-cut can
//! differ from the dense one (Huse 8k: 3 686 clusters banded against
//! 3 674 dense; FS396: 8 777 against 8 770).
//!
//! The clusterers work on the edges alone. [`greedy_cluster_sparse`]
//! binary-searches rows (comparing the `f32`-stored edge with θ
//! rounded the same way, so every stored edge that cleared θ is a
//! match) but is called by no route any more — a greedy run places
//! reads through `mrmc`'s representative index and never builds this
//! graph; [`agglomerative_sparse`] runs
//! Algorithm 2 on per-cluster adjacency lists in which an absent pair
//! *is* distance 1.0, and reproduces, merge for merge, the dendrogram
//! the dense [`agglomerative`](crate::linkage::agglomerative) builds
//! on the zero-filled matrix — without ever allocating that matrix.
//! [`agglomerative_sparse_grouped`] runs it on a graph over groups of
//! identical items (`mrmc` bands each distinct read once), each group a
//! vertex weighted by its members.

use crate::assignment::ClusterAssignment;
use crate::greedy::greedy_cluster;
use crate::linkage::{
    cut_dendrogram, sort_bottom_up, Dendrogram, GroupMismatch, Groups, Linkage, Merge,
};

/// An undirected similarity graph over `n` items, CSR layout, missing
/// edges read as 0.0.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSimGraph {
    n: usize,
    /// Row offsets into `neighbors`/`sims`, length `n + 1`.
    offsets: Vec<usize>,
    /// Column indices, sorted within each row.
    neighbors: Vec<u32>,
    /// Edge similarities, parallel to `neighbors`.
    sims: Vec<f32>,
}

impl SparseSimGraph {
    /// Build from undirected edges `(i, j, sim)`. Self-loops are
    /// dropped; a pair given more than once, in either orientation,
    /// keeps its largest similarity, so the graph is symmetric and does
    /// not depend on the order of `edges`. Panics if an endpoint is
    /// ≥ `n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> SparseSimGraph {
        // Each undirected edge appears in both endpoints' rows.
        let mut directed: Vec<(u32, u32, f32)> = Vec::new();
        for (i, j, s) in edges {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "edge ({i}, {j}) out of bounds for {n} items"
            );
            if i == j {
                continue;
            }
            directed.push((i, j, s));
            directed.push((j, i, s));
        }
        directed.sort_unstable_by_key(|&(i, j, _)| (i, j));
        // Which duplicate the unstable sort leaves first differs between
        // row i and row j; the maximum is the same whichever it is.
        directed.dedup_by(|dup, kept| {
            let same = (dup.0, dup.1) == (kept.0, kept.1);
            if same {
                kept.2 = kept.2.max(dup.2);
            }
            same
        });

        let mut offsets = vec![0usize; n + 1];
        for &(i, _, _) in &directed {
            offsets[i as usize + 1] += 1;
        }
        for r in 0..n {
            offsets[r + 1] += offsets[r];
        }
        let mut neighbors = Vec::with_capacity(directed.len());
        let mut sims = Vec::with_capacity(directed.len());
        for (_, j, s) in directed {
            neighbors.push(j);
            sims.push(s);
        }
        SparseSimGraph {
            n,
            offsets,
            neighbors,
            sims,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the 0-item graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Similarity of `(i, j)`: the stored edge value, 0.0 when absent,
    /// 1.0 on the diagonal. Panics out of bounds.
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 1.0;
        }
        let row = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
        match row.binary_search(&(j as u32)) {
            Ok(k) => f64::from(self.sims[self.offsets[i] + k]),
            Err(_) => 0.0,
        }
    }

    /// Neighbours of `i` with their similarities, ascending by index.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.offsets[i]..self.offsets[i + 1];
        self.neighbors[range.clone()]
            .iter()
            .zip(&self.sims[range])
            .map(|(&j, &s)| (j as usize, f64::from(s)))
    }

    /// Every undirected edge `(i, j, sim)` with `i < j`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n).flat_map(move |i| {
            let range = self.offsets[i]..self.offsets[i + 1];
            self.neighbors[range.clone()]
                .iter()
                .zip(&self.sims[range])
                .filter(move |(&j, _)| (i as u32) < j)
                .map(move |(&j, &s)| (i as u32, j, s))
        })
    }
}

/// Algorithm 1 over a sparse graph: identical to the dense run
/// whenever the graph holds every pair at or above θ (the banded
/// pipeline's exactness contract), because greedy only ever tests
/// `sim ≥ θ` and missing edges read 0.0 < θ.
///
/// Edges are stored as `f32`, so the test is made against θ rounded
/// the same way when that rounds down (`θ.min(θ as f32)`): rounding is
/// monotone, so every edge whose `f64` similarity cleared θ stores at
/// least `θ as f32`, and a pair sitting exactly on θ (45/50 at
/// θ = 0.9 stores 0.89999998) stays the match the verify stage said
/// it was.
///
/// Called by no route: `mrmc`'s greedy run goes through its
/// representative index under either candidate generator. Kept,
/// untouched, for the frozen `benchmark/` package, whose staged greedy
/// arm (`perf-trace/staged.rs`) imports it; the next `[benchmark]` PR
/// restages that arm and deletes this function.
pub fn greedy_cluster_sparse(graph: &SparseSimGraph, theta: f64) -> ClusterAssignment {
    let theta = theta.min(f64::from(theta as f32));
    greedy_cluster(graph.len(), theta, |i, j| graph.sim(i, j))
}

/// Algorithm 2 over a sparse graph, in memory linear in its edges:
/// the dendrogram — merges, representatives, f32-rounded heights,
/// order — is exactly the one [`agglomerative`] builds on the
/// zero-filled matrix (missing pairs = 0.0 similarity), for edge
/// similarities in `[0, 1]`. On a graph holding every pair at or above
/// θ (the banded route's θ-graph), the θ-cut equals the dense run's
/// under single linkage, which asks only whether pairs clear θ, and
/// under complete linkage while no two merges in [θ, 1) tie: a tie's
/// order follows the NN-chain's path, which reads the sub-θ values the
/// graph prunes. Under average linkage it does not: pruned pairs count
/// as 0, which pulls cluster averages down, so the cut can split
/// clusters the dense run merges at or above θ (DESIGN.md §5c).
///
/// Every linkage runs the nearest-neighbour chain on adjacency lists,
/// each merge costing the summed degree of the two merged rows'
/// neighbours. Under single linkage the θ-cut is the connected
/// components of the edges at or above θ.
///
/// [`agglomerative`]: crate::linkage::agglomerative
pub fn agglomerative_sparse(
    graph: &SparseSimGraph,
    linkage: Linkage,
    theta: f64,
) -> (ClusterAssignment, Dendrogram) {
    let dendro = weighted_dendrogram(graph, vec![1; graph.len()], linkage);
    let assignment = cut_dendrogram(&dendro, theta);
    (assignment, dendro)
}

/// [`agglomerative_sparse`] over groups of identical items, one vertex
/// of `graph` per group, each vertex starting as a cluster of its
/// group's members. The dendrogram and θ-cut are over the items,
/// under the contract of
/// [`agglomerative_grouped`](crate::linkage::agglomerative_grouped):
/// they are the run over the graph that joins each group's members at
/// 1.0 and gives every member its group's edges, up to which pairs the
/// 1.0 merges name. A `groups` without exactly `graph.len()` groups is
/// refused.
pub fn agglomerative_sparse_grouped(
    graph: &SparseSimGraph,
    groups: &Groups,
    linkage: Linkage,
    theta: f64,
) -> Result<(ClusterAssignment, Dendrogram), GroupMismatch> {
    let size = groups.weights(graph.len())?;
    let dendro = groups.expand(weighted_dendrogram(graph, size, linkage));
    let assignment = cut_dendrogram(&dendro, theta);
    Ok((assignment, dendro))
}

/// The dendrogram of vertices that start as clusters of `size[i]`
/// members each: only average linkage reads the sizes.
fn weighted_dendrogram(graph: &SparseSimGraph, size: Vec<usize>, linkage: Linkage) -> Dendrogram {
    let mut merges = nn_chain_sparse(graph, size, linkage);
    sort_bottom_up(&mut merges);
    Dendrogram {
        n: graph.len(),
        merges,
    }
}

/// One live cluster's stored distances `(neighbour, d)`, ascending by
/// neighbour, every `d < 1.0`, symmetric across rows. A pair that is
/// not stored is at distance exactly 1.0.
type Row = Vec<(u32, f32)>;

/// Distance from the cluster owning `row` to cluster `c`.
fn stored(row: &[(u32, f32)], c: usize) -> f32 {
    match row.binary_search_by_key(&(c as u32), |e| e.0) {
        Ok(k) => row[k].1,
        Err(_) => 1.0,
    }
}

/// Consume `c` from the head of a row walked in step with another:
/// its stored distance, or 1.0 when this row skips `c`.
fn take(row: &[(u32, f32)], at: &mut usize, c: u32) -> f64 {
    match row.get(*at) {
        Some(&(head, d)) if head == c => {
            *at += 1;
            f64::from(d)
        }
        _ => 1.0,
    }
}

/// After `keep` absorbed `drop`: forget `drop` in a neighbour's row and
/// set its distance to `keep` to `d` (unstored when `d` reached 1.0).
/// The row never grows: a new `keep` entry takes the slot `drop` left.
fn relink(row: &mut Row, keep: u32, drop: u32, d: f32) {
    if let Ok(k) = row.binary_search_by_key(&drop, |e| e.0) {
        row.remove(k);
    }
    match (row.binary_search_by_key(&keep, |e| e.0), d < 1.0) {
        (Ok(k), true) => row[k].1 = d,
        (Ok(k), false) => {
            row.remove(k);
        }
        (Err(k), true) => row.insert(k, (keep, d)),
        (Err(_), false) => {}
    }
}

/// The dense `nn_chain` of [`crate::linkage`], replayed on adjacency
/// lists. What makes the replay exact:
///
/// * a stored distance is `(1 − sim) as f32`, what the dense chain
///   reads off a singleton's rows, and Lance–Williams is the same f64 expression with
///   the same `as f32` rounding, 1.0 standing in for an unstored
///   operand. Two unstored operands give exactly 1.0, so a merge only
///   touches the union of the two merged rows; correctly rounded
///   arithmetic never exceeds 1.0, and a result that rounds to 1.0 is
///   unstored again;
/// * the nearest neighbour is the strict minimum over the stored row
///   in ascending index — the dense scan's smallest-index tie rule.
///   A cluster with nothing stored sees everyone at 1.0, and the dense
///   scan then answers the smallest live index other than itself;
/// * a merge drops the larger index, so cluster 0 never dies: it is
///   every chain restart and that smallest live index for everyone but
///   itself, for which a monotone cursor tracks the next one.
///
/// Vertex `i` starts as a cluster of `size[i]` members, as in the
/// dense chain; a merged-away cluster's size drops to 0.
fn nn_chain_sparse(graph: &SparseSimGraph, mut size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
    let n = graph.len();
    let mut rows: Vec<Row> = (0..n)
        .map(|i| {
            let edges = graph.neighbors(i);
            let mut row = Row::with_capacity(edges.size_hint().0);
            row.extend(
                edges
                    .map(|(j, s)| (j as u32, (1.0 - s) as f32))
                    .filter(|&(_, d)| d < 1.0),
            );
            row
        })
        .collect();
    // Smallest live index ≥ 1.
    let mut next_live = 1usize;
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    // The merged row is built here and swapped in, so its allocation
    // is recycled from merge to merge.
    let mut scratch = Row::new();

    for _ in 1..n {
        if chain.is_empty() {
            chain.push(0);
        }
        let (a, prev, d_ab) = loop {
            let a = chain[chain.len() - 1];
            let mut best = if a == 0 { next_live } else { 0 };
            let mut best_d = 1.0f32;
            for &(c, d) in &rows[a] {
                if d < best_d {
                    best_d = d;
                    best = c as usize;
                }
            }
            // Reciprocal pair check: prefer the chain predecessor on
            // equal distance (guarantees termination).
            if chain.len() >= 2 {
                let prev = chain[chain.len() - 2];
                let d_ab = stored(&rows[a], prev);
                if best == prev || d_ab <= best_d {
                    chain.truncate(chain.len() - 2);
                    break (a, prev, d_ab);
                }
            }
            chain.push(best);
        };
        let (keep, drop) = (a.min(prev), a.max(prev));
        merges.push(Merge {
            a: keep,
            b: drop,
            similarity: 1.0 - f64::from(d_ab),
        });

        // Lance–Williams over the union of the two sorted rows.
        let (sk, sd) = (size[keep] as f64, size[drop] as f64);
        let (row_k, row_d) = (&rows[keep], &rows[drop]);
        scratch.clear();
        scratch.reserve(row_k.len() + row_d.len());
        let (mut ik, mut id) = (0, 0);
        loop {
            let c = match (row_k.get(ik), row_d.get(id)) {
                (Some(k), Some(d)) => k.0.min(d.0),
                (Some(e), None) | (None, Some(e)) => e.0,
                (None, None) => break,
            };
            let dk = take(row_k, &mut ik, c);
            let dd = take(row_d, &mut id, c);
            if c as usize == keep || c as usize == drop {
                continue;
            }
            let updated = match linkage {
                Linkage::Single => dk.min(dd),
                Linkage::Complete => dk.max(dd),
                Linkage::Average => (sk * dk + sd * dd) / (sk + sd),
            };
            scratch.push((c, updated as f32));
        }
        for &(c, d) in &scratch {
            relink(&mut rows[c as usize], keep as u32, drop as u32, d);
        }
        scratch.retain(|&(_, d)| d < 1.0);
        std::mem::swap(&mut rows[keep], &mut scratch);
        rows[drop] = Row::new();
        size[keep] += size[drop];
        size[drop] = 0;
        while next_live < n && size[next_live] == 0 {
            next_live += 1;
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::agglomerative;
    use crate::matrix::CondensedMatrix;

    fn diamond() -> SparseSimGraph {
        // 0–1 strong, 1–2 strong, 2–3 weak, 3–0 absent.
        SparseSimGraph::from_edges(4, vec![(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.3)])
    }

    #[test]
    fn csr_lookup_and_symmetry() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.sim(0, 1), f64::from(0.9f32));
        assert_eq!(g.sim(1, 0), f64::from(0.9f32));
        assert_eq!(g.sim(0, 3), 0.0);
        assert_eq!(g.sim(2, 2), 1.0);
        let n1: Vec<usize> = g.neighbors(1).map(|(j, _)| j).collect();
        assert_eq!(n1, vec![0, 2]);
    }

    #[test]
    fn duplicate_and_self_edges_handled() {
        let g =
            SparseSimGraph::from_edges(3, vec![(0, 1, 0.5), (1, 0, 0.7), (0, 1, 0.9), (2, 2, 1.0)]);
        assert_eq!(g.num_edges(), 1);
        // The largest similarity wins, in both directions.
        assert_eq!(g.sim(0, 1), f64::from(0.9f32));
        assert_eq!(g.sim(1, 0), f64::from(0.9f32));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.3)]);
        let rebuilt = SparseSimGraph::from_edges(4, edges);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn agglomerative_sparse_replays_zero_filled_dense_run() {
        let g = diamond();
        // The dense oracle's input: 0.0 for every missing pair.
        let m = CondensedMatrix::build(g.len(), |i, j| g.sim(i, j));
        assert_eq!(m.get(0, 1), f64::from(0.9f32));
        assert_eq!(m.get(0, 3), 0.0);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            assert_eq!(
                agglomerative_sparse(&g, linkage, 0.75),
                agglomerative(&m, linkage, 0.75),
                "{linkage:?}"
            );
        }
    }

    #[test]
    fn greedy_sparse_matches_dense_oracle_above_theta() {
        let g = diamond();
        let sparse = greedy_cluster_sparse(&g, 0.75).compact();
        let dense = greedy_cluster(4, 0.75, |i, j| g.sim(i, j)).compact();
        assert_eq!(sparse, dense);
        assert_eq!(sparse.labels(), &[0, 0, 1, 2]);
    }

    #[test]
    fn greedy_sparse_accepts_an_edge_sitting_on_theta() {
        // 0.9 rounds down in f32, 0.8 rounds up; an edge that cleared
        // the f64 θ is a match either way.
        for theta in [0.9f64, 0.8] {
            let g = SparseSimGraph::from_edges(2, vec![(0, 1, theta as f32)]);
            assert_eq!(
                greedy_cluster_sparse(&g, theta).num_clusters(),
                1,
                "{theta}"
            );
        }
    }

    #[test]
    fn agglomerative_sparse_cuts_at_theta() {
        let g = diamond();
        let (a, dendro) = agglomerative_sparse(&g, Linkage::Single, 0.75);
        assert_eq!(a.compact().labels(), &[0, 0, 0, 1]);
        assert_eq!(dendro.merges.len(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let g = SparseSimGraph::from_edges(0, vec![]);
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        let g = SparseSimGraph::from_edges(1, vec![]);
        assert_eq!(g.len(), 1);
        assert_eq!(greedy_cluster_sparse(&g, 0.5).num_clusters(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_edge_rejected() {
        SparseSimGraph::from_edges(2, vec![(0, 2, 0.5)]);
    }
}
