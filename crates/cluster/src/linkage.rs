//! Agglomerative hierarchical clustering — the paper's Algorithm 2.
//!
//! The dendrogram is "a series of merge steps for the rows of the
//! similarity matrix, where each row is initially assigned to its own
//! cluster"; the similarity threshold θ decides the cutoff level
//! (paper §III-B2). Linkage policies: single, average, complete.
//!
//! One algorithm serves all three: the **nearest-neighbour chain**
//! with Lance–Williams updates, O(N²) time. It produces the same
//! dendrogram a naive O(N³) agglomeration would, because all three
//! linkages are reducible.

use crate::assignment::ClusterAssignment;
use crate::matrix::{CondensedMatrix, CountStrips, PairCounts, Triangles};

/// Linkage policy (the Pig parameter `$LINK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Nearest member distance.
    Single,
    /// Furthest member distance.
    Complete,
    /// Unweighted average member distance (UPGMA).
    Average,
}

impl std::str::FromStr for Linkage {
    type Err = String;
    fn from_str(s: &str) -> Result<Linkage, String> {
        match s.to_ascii_lowercase().as_str() {
            "single" => Ok(Linkage::Single),
            "complete" => Ok(Linkage::Complete),
            "average" => Ok(Linkage::Average),
            other => Err(format!("unknown linkage {other:?}")),
        }
    }
}

/// One dendrogram merge: the clusters containing items `a` and `b`
/// fuse at similarity level `similarity`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// An item in the first cluster.
    pub a: usize,
    /// An item in the second cluster.
    pub b: usize,
    /// Similarity (1 − linkage distance) of the merge.
    pub similarity: f64,
}

/// The full merge history, sorted by decreasing similarity
/// (increasing linkage distance) — the bottom-up merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// The merges: always `n − 1` for `n ≥ 1`.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Merge similarities, in merge order.
    pub fn heights(&self) -> Vec<f64> {
        self.merges.iter().map(|m| m.similarity).collect()
    }
}

/// An all-pairs input of the dense linkage: a [`CondensedMatrix`] of
/// similarities or Stage 2's [`PairCounts`], owned or borrowed.
pub trait DenseInput {
    /// Number of items.
    fn len(&self) -> usize;

    /// True for the input of no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merges of `linkage` over the items, item `i` starting as a
    /// cluster of `size[i]` members, in production order. Panics unless
    /// `size` has one entry per item.
    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge>;
}

impl<T: DenseInput + ?Sized> DenseInput for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
        (**self).merges(size, linkage)
    }
}

/// Read as similarities and turned into distances cell by cell. The
/// matrix's own rows are the upper rows; the lower ones are a
/// transposed copy beside them.
impl DenseInput for CondensedMatrix {
    fn len(&self) -> usize {
        CondensedMatrix::len(self)
    }

    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
        let upper = (0..self.len()).map(|a| self.row(a)).collect();
        link(
            &Triangles::new(upper),
            |s| (1.0 - f64::from(s)) as f32,
            size,
            linkage,
        )
    }
}

/// A count's distance comes from a `width + 1`-entry table: `c / width`
/// rounded to `f32`, then `1 − s` rounded to `f32` — the two roundings
/// a similarity matrix and its distances take.
impl DenseInput for PairCounts {
    fn len(&self) -> usize {
        PairCounts::len(self)
    }

    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
        fn over<L: Copy + Default + Into<usize>>(
            strips: &[Vec<L>],
            distance: &[f32],
            size: Vec<usize>,
            linkage: Linkage,
        ) -> Vec<Merge> {
            let upper = strips.iter().map(Vec::as_slice).collect();
            link(
                &Triangles::new(upper),
                |c: L| distance[c.into()],
                size,
                linkage,
            )
        }
        let distance: Vec<f32> = self
            .similarities()
            .iter()
            .map(|&s| (1.0 - f64::from(s)) as f32)
            .collect();
        match self.strips() {
            CountStrips::Narrow(s) => over(s, &distance, size, linkage),
            CountStrips::Wide(s) => over(s, &distance, size, linkage),
        }
    }
}

/// Build the dendrogram of a dense input under a linkage.
pub fn build_dendrogram(input: impl DenseInput, linkage: Linkage) -> Dendrogram {
    let n = input.len();
    weighted_dendrogram(&input, vec![1; n], linkage)
}

/// The dendrogram of items that start as clusters of `size[i]`
/// members each: only average linkage reads the sizes.
fn weighted_dendrogram(input: &impl DenseInput, size: Vec<usize>, linkage: Linkage) -> Dendrogram {
    let mut merges = input.merges(size, linkage);
    sort_bottom_up(&mut merges);
    Dendrogram {
        n: input.len(),
        merges,
    }
}

/// The merges of `linkage` over `cells`, whose cell `x` is at the
/// `f32` distance `distance(x)`.
fn link<T: Copy>(
    cells: &Triangles<'_, T>,
    distance: impl Fn(T) -> f32,
    size: Vec<usize>,
    linkage: Linkage,
) -> Vec<Merge> {
    assert_eq!(size.len(), cells.len(), "one size per item");
    if cells.len() <= 1 {
        return Vec::new();
    }
    nn_chain(cells, distance, size, linkage)
}

/// Bottom-up order: most similar first, ties in production order
/// (stable). `total_cmp` orders exactly as `partial_cmp` on the values
/// merges carry (`1.0 − d`: never NaN, never −0.0) and cannot panic.
pub(crate) fn sort_bottom_up(merges: &mut [Merge]) {
    merges.sort_by(|x, y| y.similarity.total_cmp(&x.similarity));
}

/// Cut a dendrogram at similarity threshold `theta`: apply every merge
/// with `similarity ≥ theta`; remaining components are the clusters.
/// The labels are compact: `0..k`, numbered in order of each cluster's
/// first item.
pub fn cut_dendrogram(dendrogram: &Dendrogram, theta: f64) -> ClusterAssignment {
    let mut uf = UnionFind::new(dendrogram.n);
    for m in &dendrogram.merges {
        if m.similarity >= theta {
            uf.union(m.a, m.b);
        }
    }
    let labels = (0..dendrogram.n).map(|i| uf.find(i)).collect();
    ClusterAssignment::from_labels(labels).compact()
}

/// Cut one dendrogram at several thresholds at once — the paper's
/// "clustering results at different hierarchical taxonomic levels are
/// also produced by setting similarity threshold within a cluster".
/// Returns one assignment per θ, in the given order. Because all cuts
/// come from the same merge tree, the θ₁ ≥ θ₂ cut is always a
/// *refinement* of the θ₂ cut (each fine cluster lies inside one
/// coarse cluster) — the property that makes the levels a taxonomy.
pub fn cut_levels(dendrogram: &Dendrogram, thetas: &[f64]) -> Vec<ClusterAssignment> {
    thetas
        .iter()
        .map(|&t| cut_dendrogram(dendrogram, t))
        .collect()
}

/// Algorithm 2 in one call: build + cut.
pub fn agglomerative(
    input: impl DenseInput,
    linkage: Linkage,
    theta: f64,
) -> (ClusterAssignment, Dendrogram) {
    let dendro = build_dendrogram(input, linkage);
    let assignment = cut_dendrogram(&dendro, theta);
    (assignment, dendro)
}

/// Algorithm 2 over groups of identical items, one row of `input` per
/// group: item `i` belongs to group `of[i]`, and groups are numbered in
/// order of first occurrence. Each group is clustered once, as a
/// vertex that starts with its member count. The dendrogram and θ-cut
/// are over the items: each item after its group's first joins that
/// first item at 1.0, and each group merge names the groups' first
/// items.
///
/// This is [`agglomerative`] over the item matrix that gives each item
/// its group's row and puts two members of a group at 1.0, up to which
/// pairs the 1.0 merges name: the same heights, the same partition at
/// every height, and the same merges below 1.0, pair for pair and in
/// order. That needs every two groups
/// at 1.0 to have equal rows, as sketch similarities do (1.0 means
/// equal sketches): the 1.0 merges then leave every distance as it
/// was, whichever order they run in. Panics unless `of` numbers
/// exactly `input.len()` groups by first occurrence.
pub fn agglomerative_grouped(
    input: impl DenseInput,
    of: &[u32],
    linkage: Linkage,
    theta: f64,
) -> (ClusterAssignment, Dendrogram) {
    let groups = Groups::new(of, input.len());
    let dendro = groups.expand(weighted_dendrogram(&input, groups.sizes(), linkage));
    let assignment = cut_dendrogram(&dendro, theta);
    (assignment, dendro)
}

/// Items grouped by identity: `of[i]` is item `i`'s group, and groups
/// are numbered in order of first occurrence, so the first items of
/// the groups ascend with the group number.
pub(crate) struct Groups<'a> {
    of: &'a [u32],
    /// First item of each group.
    first: Vec<u32>,
}

impl<'a> Groups<'a> {
    /// Panics unless `of` numbers exactly `count` groups by first
    /// occurrence.
    pub(crate) fn new(of: &'a [u32], count: usize) -> Groups<'a> {
        let mut first: Vec<u32> = Vec::with_capacity(count);
        for (i, &g) in of.iter().enumerate() {
            let g = g as usize;
            assert!(
                g <= first.len(),
                "item {i} opens group {g} before group {}",
                first.len()
            );
            if g == first.len() {
                first.push(u32::try_from(i).expect("items fit u32 indices"));
            }
        }
        assert_eq!(first.len(), count, "one vertex per group");
        Groups { of, first }
    }

    /// Members of each group: the vertices' initial cluster sizes.
    pub(crate) fn sizes(&self) -> Vec<usize> {
        let mut size = vec![0usize; self.first.len()];
        for &g in self.of {
            size[g as usize] += 1;
        }
        size
    }

    /// The dendrogram over the items from the one over the groups, in
    /// O(n) merges: each item after its group's first joins that first
    /// item at similarity 1.0 (`a` = the first item, `b` = the copy),
    /// and each group merge names the groups' first items. Sorted
    /// bottom-up, so the copies' 1.0 block comes first. A merge keeps
    /// the smaller cluster id and ids are first items on both sides, so
    /// every name is the one a run over the items would use.
    pub(crate) fn expand(&self, grouped: Dendrogram) -> Dendrogram {
        assert_eq!(grouped.n, self.first.len(), "one leaf per group");
        let first = |g: usize| self.first[g] as usize;
        let mut merges = Vec::with_capacity(self.of.len().saturating_sub(1));
        for (i, &g) in self.of.iter().enumerate() {
            if first(g as usize) != i {
                merges.push(Merge {
                    a: first(g as usize),
                    b: i,
                    similarity: 1.0,
                });
            }
        }
        merges.extend(grouped.merges.iter().map(|m| Merge {
            a: first(m.a),
            b: first(m.b),
            similarity: m.similarity,
        }));
        sort_bottom_up(&mut merges);
        Dendrogram {
            n: self.of.len(),
            merges,
        }
    }
}

/// Nearest-neighbour chain with Lance–Williams updates: O(N²) time.
/// A θ-graph goes through [`crate::sparse::agglomerative_sparse`],
/// which emulates this function merge for merge on adjacency lists.
///
/// A singleton cluster reads its distances off its two rows of
/// `cells`, which nothing writes. A merged cluster owns one `f32` row
/// of length n, indexed by cluster id and taken from a pool of rows
/// that merged clusters gave back; it holds the distance to every
/// cluster live beside it. A merge writes the new row of `keep`
/// contiguously, sets the cell of `keep` in every other merged live
/// row, and gives `drop`'s row back, so the distance between a
/// singleton `a` and a merged `c` is `rows[c][a]` and every scan reads
/// rows, never columns.
///
/// Only live clusters are visited, in ascending id order. Ties go to
/// the smallest cluster id (strict `<`) except that the chain
/// predecessor wins an equal distance, which is what makes the chain
/// terminate.
///
/// Item `i` starts as a cluster of `size[i]` members. Average linkage
/// of two equal distances `x` is `(sk·x + sd·x)/(sk + sd) = x` exactly
/// while the sizes stay below 2²⁹ (`x` is an `f32`, so each product and
/// their sum are exact in `f64`): a vertex of size m is the cluster m
/// identical items form at distance 0, to the bit.
fn nn_chain<T: Copy>(
    cells: &Triangles<'_, T>,
    distance: impl Fn(T) -> f32,
    mut size: Vec<usize>,
    linkage: Linkage,
) -> Vec<Merge> {
    let n = cells.len();
    let mut merged = MergedRows {
        slot: vec![SINGLETON; n],
        rows: Vec::new(),
        free: Vec::new(),
    };
    // Distance from singleton `a` to live `c`: off `c`'s row once `c`
    // has merged, else off one of `a`'s two rows.
    let singleton = |merged: &MergedRows, a: usize, rows_of_a: (&[T], &[T]), c: usize| {
        let (lower, upper) = rows_of_a;
        match merged.row(c) {
            Some(row) => row[a],
            None if c < a => distance(lower[c]),
            None => distance(upper[c - a - 1]),
        }
    };
    let own = |a: usize| (cells.lower(a), cells.upper(a));
    let mut live: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    while live.len() > 1 {
        if chain.is_empty() {
            chain.push(live[0]);
        }
        loop {
            let a = *chain.last().expect("chain nonempty");
            let at = live.binary_search(&a).expect("chain holds live clusters");
            // Nearest live neighbour of a (smallest id on ties).
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            if let Some(row) = merged.row(a) {
                for &c in &live[..at] {
                    if row[c] < best_d {
                        best_d = row[c];
                        best = c;
                    }
                }
                for &c in &live[at + 1..] {
                    if row[c] < best_d {
                        best_d = row[c];
                        best = c;
                    }
                }
            } else {
                let (lower, upper) = own(a);
                for &c in &live[..at] {
                    let d = match merged.row(c) {
                        Some(row) => row[a],
                        None => distance(lower[c]),
                    };
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                for &c in &live[at + 1..] {
                    let d = match merged.row(c) {
                        Some(row) => row[a],
                        None => distance(upper[c - a - 1]),
                    };
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
            }
            // Reciprocal pair check: prefer the chain predecessor on
            // equal distance (guarantees termination).
            if chain.len() >= 2 {
                let prev = chain[chain.len() - 2];
                let d_ab = match merged.row(a) {
                    Some(row) => row[prev],
                    None => singleton(&merged, a, own(a), prev),
                };
                if best == prev || d_ab <= best_d {
                    // Merge a and prev.
                    chain.pop();
                    chain.pop();
                    let (keep, drop) = (a.min(prev), a.max(prev));
                    merges.push(Merge {
                        a: keep,
                        b: drop,
                        similarity: 1.0 - f64::from(d_ab),
                    });
                    live.remove(live.binary_search(&drop).expect("drop is live"));
                    // Lance–Williams update of keep = a ∪ prev against
                    // every other live cluster c, into keep's row (in
                    // place once keep has one) and into c's row.
                    let (sk, sd) = (size[keep] as f64, size[drop] as f64);
                    let update = |dk: f32, dd: f32| -> f32 {
                        let (dk, dd) = (f64::from(dk), f64::from(dd));
                        let updated = match linkage {
                            Linkage::Single => dk.min(dd),
                            Linkage::Complete => dk.max(dd),
                            Linkage::Average => (sk * dk + sd * dd) / (sk + sd),
                        };
                        updated as f32
                    };
                    let keep_merged = merged.slot[keep] != SINGLETON;
                    let keep_slot = merged.claim(keep, n);
                    let drop_slot = merged.release(drop);
                    // Out of the table while the loop reads the others.
                    let mut new = std::mem::take(&mut merged.rows[keep_slot]);
                    let drop_row = drop_slot.map(|s| std::mem::take(&mut merged.rows[s]));
                    let (keep_cells, drop_cells) = (own(keep), own(drop));
                    for &c in &live {
                        if c == keep {
                            continue;
                        }
                        let dk = if keep_merged {
                            new[c]
                        } else {
                            singleton(&merged, keep, keep_cells, c)
                        };
                        let dd = match &drop_row {
                            Some(row) => row[c],
                            None => singleton(&merged, drop, drop_cells, c),
                        };
                        let d = update(dk, dd);
                        new[c] = d;
                        if let Some(row) = merged.row_mut(c) {
                            row[keep] = d;
                        }
                    }
                    merged.rows[keep_slot] = new;
                    if let (Some(s), Some(row)) = (drop_slot, drop_row) {
                        merged.rows[s] = row;
                    }
                    size[keep] += size[drop];
                    break;
                }
            }
            chain.push(best);
        }
    }
    merges
}

/// [`MergedRows::slot`] of a cluster that owns no row.
const SINGLETON: u32 = u32::MAX;

/// The `f32` distance rows of the NN-chain's merged clusters, indexed
/// by cluster id, and the rows no cluster owns any more, kept for the
/// next merge.
struct MergedRows {
    /// Row of each cluster in `rows`, or [`SINGLETON`].
    slot: Vec<u32>,
    rows: Vec<Vec<f32>>,
    /// Rows no cluster owns; their cells are stale.
    free: Vec<usize>,
}

impl MergedRows {
    /// Cluster `c`'s row, if it owns one.
    #[inline]
    fn row(&self, c: usize) -> Option<&[f32]> {
        match self.slot[c] {
            SINGLETON => None,
            s => Some(&self.rows[s as usize]),
        }
    }

    #[inline]
    fn row_mut(&mut self, c: usize) -> Option<&mut [f32]> {
        match self.slot[c] {
            SINGLETON => None,
            s => Some(&mut self.rows[s as usize]),
        }
    }

    /// The index of cluster `c`'s row, after giving it a free row — or
    /// a new one of length `n` — if it owns none.
    fn claim(&mut self, c: usize, n: usize) -> usize {
        if self.slot[c] == SINGLETON {
            let s = self.free.pop().unwrap_or_else(|| {
                self.rows.push(vec![0.0; n]);
                self.rows.len() - 1
            });
            self.slot[c] = u32::try_from(s).expect("fewer rows than clusters");
        }
        self.slot[c] as usize
    }

    /// Free cluster `c`'s row, returning its index if it owned one.
    fn release(&mut self, c: usize) -> Option<usize> {
        match std::mem::replace(&mut self.slot[c], SINGLETON) {
            SINGLETON => None,
            s => {
                self.free.push(s as usize);
                Some(s as usize)
            }
        }
    }
}

/// Path-compressed, union-by-size union-find.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blocks {0,1,2} and {3,4} with weak cross links.
    fn two_blocks() -> CondensedMatrix {
        CondensedMatrix::build(5, |i, j| {
            let block = |x: usize| usize::from(x >= 3);
            if block(i) == block(j) {
                0.9
            } else {
                0.1
            }
        })
    }

    #[test]
    fn all_linkages_recover_blocks() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let m = two_blocks();
            let borrowed = agglomerative(&m, linkage, 0.5);
            let (assign, dendro) = agglomerative(m, linkage, 0.5);
            assert_eq!(
                (&assign, &dendro),
                (&borrowed.0, &borrowed.1),
                "{linkage:?}"
            );
            assert_eq!(assign.num_clusters(), 2, "{linkage:?}");
            assert_eq!(dendro.merges.len(), 4, "{linkage:?}");
            assert_eq!(assign.label(0), assign.label(1));
            assert_eq!(assign.label(0), assign.label(2));
            assert_eq!(assign.label(3), assign.label(4));
            assert_ne!(assign.label(0), assign.label(3));
        }
    }

    #[test]
    fn cut_at_one_gives_singletons_unless_identical() {
        let m = CondensedMatrix::build(4, |_, _| 0.99);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let (assign, _) = agglomerative(&m, linkage, 1.0);
            assert_eq!(assign.num_clusters(), 4);
            let (assign, _) = agglomerative(&m, linkage, 0.9);
            assert_eq!(assign.num_clusters(), 1);
        }
    }

    #[test]
    fn merge_heights_monotone_nonincreasing() {
        // After sorting, similarities must be non-increasing; monotone
        // linkages have no inversions so sorting is faithful.
        let m = CondensedMatrix::build(8, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = build_dendrogram(&m, linkage);
            let h = d.heights();
            for w in h.windows(2) {
                assert!(w[0] >= w[1] - 1e-9, "{linkage:?}: {h:?}");
            }
            assert_eq!(d.merges.len(), 7);
        }
    }

    #[test]
    fn single_linkage_chains_complete_does_not() {
        // Path graph: consecutive items similar (0.8), others dissimilar.
        let m = CondensedMatrix::build(5, |i, j| if i.abs_diff(j) == 1 { 0.8 } else { 0.0 });
        // Single linkage at θ=0.7 chains everything into one cluster.
        let (single, _) = agglomerative(&m, Linkage::Single, 0.7);
        assert_eq!(single.num_clusters(), 1);
        // Complete linkage requires *all* pairs ≥ θ: no 5-chain cluster.
        let (complete, _) = agglomerative(&m, Linkage::Complete, 0.7);
        assert!(complete.num_clusters() > 1);
    }

    #[test]
    fn average_between_single_and_complete() {
        let m = CondensedMatrix::build(6, |i, j| {
            let x = ((i * 7 + j * 13) % 10) as f64 / 10.0;
            0.3 + x * 0.5
        });
        for theta in [0.4, 0.55, 0.7] {
            let ns = agglomerative(&m, Linkage::Single, theta).0.num_clusters();
            let na = agglomerative(&m, Linkage::Average, theta).0.num_clusters();
            let nc = agglomerative(&m, Linkage::Complete, theta).0.num_clusters();
            assert!(ns <= na && na <= nc, "θ={theta}: {ns} {na} {nc}");
        }
    }

    #[test]
    fn lower_rows_transpose_the_upper_ones() {
        // More than one tile each way, and a ragged last tile.
        for n in [0usize, 1, 2, 65, 150] {
            let m = CondensedMatrix::build(n, |i, j| (i * 1000 + j) as f64);
            let cells = Triangles::new((0..n).map(|a| m.row(a)).collect());
            for a in 0..n {
                let lower: Vec<f64> = (0..a).map(|c| m.get(a, c)).collect();
                let read: Vec<f64> = cells.lower(a).iter().map(|&s| f64::from(s)).collect();
                assert_eq!(read, lower, "n={n}, row {a}");
                assert_eq!(cells.upper(a), m.row(a));
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        let m = CondensedMatrix::build(0, |_, _| 0.0);
        let d = build_dendrogram(&m, Linkage::Average);
        assert!(d.merges.is_empty());
        let m = CondensedMatrix::build(1, |_, _| 0.0);
        let (a, d) = agglomerative(&m, Linkage::Complete, 0.5);
        assert_eq!(a.num_clusters(), 1);
        assert!(d.merges.is_empty());
    }

    #[test]
    fn linkage_from_str() {
        assert_eq!("single".parse::<Linkage>().unwrap(), Linkage::Single);
        assert_eq!("AVERAGE".parse::<Linkage>().unwrap(), Linkage::Average);
        assert_eq!("Complete".parse::<Linkage>().unwrap(), Linkage::Complete);
        assert!("ward".parse::<Linkage>().is_err());
    }

    #[test]
    fn cluster_invariant_no_pair_below_theta_complete() {
        // Complete linkage guarantee from the paper: "no pair of
        // sequences within a cluster have less than θ similarity".
        let m = CondensedMatrix::build(12, |i, j| ((i * 13 + j * 29) % 50) as f64 / 50.0);
        let theta = 0.5;
        let (assign, _) = agglomerative(&m, Linkage::Complete, theta);
        for i in 0..12 {
            for j in (i + 1)..12 {
                if assign.label(i) == assign.label(j) {
                    assert!(
                        m.get(i, j) >= theta - 1e-9,
                        "pair ({i},{j}) sim {} in same cluster",
                        m.get(i, j)
                    );
                }
            }
        }
    }
}
