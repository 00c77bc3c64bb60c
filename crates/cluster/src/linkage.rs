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

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

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

/// Read as similarities and turned into distances cell by cell, a NaN
/// similarity as distance +∞. The matrix's own rows are the upper
/// rows; the lower ones are a transposed copy beside them.
impl DenseInput for CondensedMatrix {
    fn len(&self) -> usize {
        CondensedMatrix::len(self)
    }

    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
        let upper = (0..self.len()).map(|a| self.row(a)).collect();
        link(
            &Triangles::new(upper),
            |s| nan_as_inf((1.0 - f64::from(s)) as f32),
            size,
            linkage,
        )
    }
}

/// A count's distance comes from a table of `c / width` rounded to
/// `f32`, then `1 − s` rounded to `f32` — the two roundings a
/// similarity matrix and its distances take. The table spans the lane
/// (256 entries for `u8`, 65 536 for `u16`), so a count indexes it
/// without a bounds check.
impl DenseInput for PairCounts {
    fn len(&self) -> usize {
        PairCounts::len(self)
    }

    fn merges(&self, size: Vec<usize>, linkage: Linkage) -> Vec<Merge> {
        fn over<L: Copy + Default + Send + Sync>(
            strips: &[Vec<L>],
            distance: impl Fn(L) -> f32,
            size: Vec<usize>,
            linkage: Linkage,
        ) -> Vec<Merge> {
            let upper = strips.iter().map(Vec::as_slice).collect();
            link(&Triangles::new(upper), distance, size, linkage)
        }
        let similarities = self.similarities();
        // Counts above the width are rejected by `PairCounts::new`.
        let fill = |table: &mut [f32]| {
            for (d, &s) in table.iter_mut().zip(&similarities) {
                *d = (1.0 - f64::from(s)) as f32;
            }
        };
        match self.strips() {
            CountStrips::Narrow(s) => {
                let mut table = [f32::INFINITY; 1 << 8];
                fill(&mut table);
                over(s, |c: u8| table[usize::from(c)], size, linkage)
            }
            CountStrips::Wide(s) => {
                let mut table: Box<[f32; 1 << 16]> = vec![f32::INFINITY; 1 << 16]
                    .into_boxed_slice()
                    .try_into()
                    .expect("a table of 65 536");
                fill(&mut table[..]);
                over(s, |c: u16| table[usize::from(c)], size, linkage)
            }
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
/// group. Each group is clustered once, as a vertex that starts with
/// its member count. The dendrogram and θ-cut are over the items: each
/// item after its group's first joins that first item at 1.0, and each
/// group merge names the groups' first items.
///
/// This is [`agglomerative`] over the item matrix that gives each item
/// its group's row and puts two members of a group at 1.0, up to which
/// pairs the 1.0 merges name: the same heights, the same partition at
/// every height, and the same merges below 1.0, pair for pair and in
/// order. That needs every two groups
/// at 1.0 to have equal rows, as sketch similarities do (1.0 means
/// equal sketches): the 1.0 merges then leave every distance as it
/// was, whichever order they run in. A `groups` without exactly
/// `input.len()` groups is refused.
pub fn agglomerative_grouped(
    input: impl DenseInput,
    groups: &Groups,
    linkage: Linkage,
    theta: f64,
) -> Result<(ClusterAssignment, Dendrogram), GroupMismatch> {
    let size = groups.weights(input.len())?;
    let dendro = groups.expand(weighted_dendrogram(&input, size, linkage));
    let assignment = cut_dendrogram(&dendro, theta);
    Ok((assignment, dendro))
}

/// Items grouped by identity, the groups numbered in order of first
/// occurrence, so the first items of the groups ascend with the group
/// number. Built only by [`Groups::by_key`], so no other numbering can
/// be represented.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// Group of each item.
    of: Vec<u32>,
    /// First item of each group.
    first: Vec<u32>,
    /// Items in each group.
    size: Vec<u32>,
}

/// More items than [`Groups`] numbers: at most `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyItems;

impl fmt::Display for TooManyItems {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "more than {} items to group", u32::MAX)
    }
}

impl std::error::Error for TooManyItems {}

/// Values or vertices that are not one per group: what
/// [`Groups::lift`], [`agglomerative_grouped`] and
/// [`agglomerative_sparse_grouped`](crate::agglomerative_sparse_grouped)
/// refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMismatch {
    /// Number of groups.
    pub groups: usize,
    /// Values or vertices given.
    pub given: usize,
}

impl fmt::Display for GroupMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} values or vertices for {} groups, expected one per group",
            self.given, self.groups
        )
    }
}

impl std::error::Error for GroupMismatch {}

impl Groups {
    /// Group items by key: item `i` joins the group of the first
    /// earlier item with an equal key, else opens the next group. The
    /// map holds one entry per group, so keys that borrow (a read's
    /// bytes) allocate nothing per item.
    pub fn by_key<K: Hash + Eq>(keys: impl IntoIterator<Item = K>) -> Result<Groups, TooManyItems> {
        const MAX_ITEMS: usize = u32::MAX as usize;
        let keys = keys.into_iter();
        let items = keys.size_hint().0;
        if items > MAX_ITEMS {
            return Err(TooManyItems);
        }
        let mut group: HashMap<K, u32> = HashMap::with_capacity(items);
        let mut of = Vec::with_capacity(items);
        let (mut first, mut size) = (Vec::new(), Vec::new());
        for (i, key) in keys.enumerate() {
            if i >= MAX_ITEMS {
                return Err(TooManyItems);
            }
            let next = first.len() as u32;
            let g = *group.entry(key).or_insert(next);
            if g == next {
                first.push(i as u32);
                size.push(0);
            }
            size[g as usize] += 1;
            of.push(g);
        }
        Ok(Groups { of, first, size })
    }

    /// Group of each item, in item order.
    pub fn of(&self) -> &[u32] {
        &self.of
    }

    /// First item of each group, ascending.
    pub fn first(&self) -> &[u32] {
        &self.first
    }

    /// Items in each group.
    pub fn sizes(&self) -> &[u32] {
        &self.size
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.first.len()
    }

    /// One value per item from one value per group: each first item
    /// takes its group's value by move, and only a copy clones it (from
    /// the first item, which comes earlier). A `distinct` that does not
    /// hold one value per group is refused.
    pub fn lift<T: Clone>(&self, distinct: Vec<T>) -> Result<Vec<T>, GroupMismatch> {
        self.one_per_group(distinct.len())?;
        let mut distinct = distinct.into_iter();
        let mut out: Vec<T> = Vec::with_capacity(self.of.len());
        for (item, &g) in self.of.iter().enumerate() {
            match self.first[g as usize] as usize {
                first if first != item => out.push(out[first].clone()),
                _ => out.extend(distinct.next()),
            }
        }
        Ok(out)
    }

    /// `Ok` when `given` values or vertices are one per group.
    fn one_per_group(&self, given: usize) -> Result<(), GroupMismatch> {
        match given == self.first.len() {
            true => Ok(()),
            false => Err(GroupMismatch {
                groups: self.first.len(),
                given,
            }),
        }
    }

    /// The vertices' initial cluster sizes, when there is one vertex
    /// per group.
    pub(crate) fn weights(&self, vertices: usize) -> Result<Vec<usize>, GroupMismatch> {
        self.one_per_group(vertices)?;
        Ok(self.size.iter().map(|&m| m as usize).collect())
    }

    /// The dendrogram over the items from the one over the groups, in
    /// O(n) merges: each item after its group's first joins that first
    /// item at similarity 1.0 (`a` = the first item, `b` = the copy),
    /// and each group merge names the groups' first items. Sorted
    /// bottom-up, so the copies' 1.0 block comes first. A merge keeps
    /// the smaller cluster id and ids are first items on both sides, so
    /// every name is the one a run over the items would use.
    pub(crate) fn expand(&self, grouped: Dendrogram) -> Dendrogram {
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
/// The chain works on positions: the live clusters, and the dead ones
/// not yet dropped, in ascending id order (see [`MergedRows`]). Every
/// search, and every update of keep's row, is a contiguous,
/// branch-free pass over rows of `f32` distances indexed by position.
/// A search reads one row that holds +∞ wherever the position is not a
/// live neighbour (dead positions and the row's own) and takes its
/// [`argmin`]: the first position at the least distance under strict
/// `<`, except that the chain predecessor wins an equal distance,
/// which is what makes the chain terminate. A search that finds
/// nothing below +∞ takes the first other live position, so n items
/// always give n − 1 merges. Positions ascend with ids and only +∞
/// cells are ever dropped, so each of these rules picks the cluster it
/// would pick over all n ids.
///
/// A merged cluster searches its own row. A singleton `a` searches one
/// reused buffer, filled from its item's two rows of `cells` (which
/// nothing writes) through `distance`, masked to +∞ off live
/// singletons, with `rows[c][a]` written in for each live merged `c`.
/// A merge takes keep's and drop's rows (their own, the searched
/// buffer, or filled from their cells), computes keep's new row in one
/// pass over the two with the result masked to +∞ off live
/// singletons, then each merged neighbour's distance to the union from
/// that neighbour's row, where drop's cell turns +∞. Once at most
/// [`COMPACT_AT`] of the positions are live, the dead ones are dropped.
///
/// `distance` never returns NaN, and an update's NaN (the average of
/// +∞ and −∞) reads as +∞. Item `i` starts as a cluster of `size[i]`
/// members. Average linkage of two equal distances `x` is
/// `(sk·x + sd·x)/(sk + sd) = x` exactly while the sizes stay below
/// 2²⁹ (`x` is an `f32`, so each product and their sum are exact in
/// `f64`): a vertex of size m is the cluster m identical items form at
/// distance 0, to the bit.
fn nn_chain<T: Copy>(
    cells: &Triangles<'_, T>,
    distance: impl Fn(T) -> f32,
    size: Vec<usize>,
    linkage: Linkage,
) -> Vec<Merge> {
    let n = cells.len();
    // The distances of the item at position `a` to the items at every
    // position, +∞ at `a`, unmasked. Until the first compaction the
    // positions are the ids, and its two rows of cells are read in
    // order; after it, at the positions' ids.
    let gather = |ids: &[u32], a: usize, out: &mut [f32]| {
        let (below, rest) = out.split_at_mut(a);
        let (own, above) = rest.split_first_mut().expect("a is a position");
        *own = f32::INFINITY;
        if ids.len() == n {
            for (d, &x) in below.iter_mut().zip(cells.lower(a)) {
                *d = distance(x);
            }
            for (d, &x) in above.iter_mut().zip(cells.upper(a)) {
                *d = distance(x);
            }
        } else {
            let i = ids[a] as usize;
            let (lower, upper) = (cells.lower(i), cells.upper(i));
            for (d, &c) in below.iter_mut().zip(&ids[..a]) {
                *d = distance(lower[c as usize]);
            }
            for (d, &c) in above.iter_mut().zip(&ids[a + 1..]) {
                *d = distance(upper[c as usize - i - 1]);
            }
        }
    };
    let mut merged = MergedRows::new(size);
    // The row of the singleton searched last.
    let mut scratch = vec![f32::INFINITY; n];
    let mut merges = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    while merges.len() + 1 < n {
        if chain.is_empty() {
            // Position 0 holds item 0, live throughout: a merge keeps
            // the smaller id.
            chain.push(0);
        }
        loop {
            let a = *chain.last().expect("chain nonempty");
            let row = match merged.row(a) {
                Some(row) => row,
                None => {
                    merged.singleton_row(a, &mut scratch, &gather);
                    &scratch
                }
            };
            let best = argmin(row).unwrap_or_else(|| merged.first_live_besides(a));
            let best_d = row[best];
            let prev = chain
                .len()
                .checked_sub(2)
                .map(|i| (chain[i], row[chain[i]]));
            match prev {
                Some((prev, d_ab)) if best == prev || d_ab <= best_d => {
                    chain.truncate(chain.len() - 2);
                    let (keep, drop) = (a.min(prev), a.max(prev));
                    merges.push(Merge {
                        a: merged.ids[keep] as usize,
                        b: merged.ids[drop] as usize,
                        similarity: 1.0 - f64::from(d_ab),
                    });
                    let (sk, sd) = (merged.size[keep] as f64, merged.size[drop] as f64);
                    let scratch = &mut scratch;
                    match linkage {
                        Linkage::Single => merged.merge(keep, drop, a, scratch, &gather, f64::min),
                        Linkage::Complete => {
                            merged.merge(keep, drop, a, scratch, &gather, f64::max)
                        }
                        Linkage::Average => {
                            merged.merge(keep, drop, a, scratch, &gather, |dk, dd| {
                                (sk * dk + sd * dd) / (sk + sd)
                            })
                        }
                    }
                    merged.compact(n - merges.len(), scratch, &mut chain);
                    break;
                }
                _ => chain.push(best),
            }
        }
    }
    merges
}

/// `d`, or +∞ for NaN: how the NN-chain reads a distance.
#[inline]
fn nan_as_inf(d: f32) -> f32 {
    if d.is_nan() {
        f32::INFINITY
    } else {
        d
    }
}

/// Width of the chunks [`argmin`] scans: four 128-bit vectors of
/// `f32`, so the lane-wise min carries no compare chain from one
/// element to the next.
const LANES: usize = 16;

/// The first index of the least value of `row` under strict `<`, or
/// `None` when none is below +∞. Two passes: a lane-wise min over
/// chunks of [`LANES`], then the first chunk holding an element equal
/// to that min.
fn argmin(row: &[f32]) -> Option<usize> {
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut lanes = [f32::INFINITY; LANES];
    for chunk in chunks {
        let chunk: &[f32; LANES] = chunk.try_into().expect("chunks of LANES");
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = if x < *m { x } else { *m };
        }
    }
    let min = lanes
        .iter()
        .chain(tail)
        .fold(f32::INFINITY, |m, &x| if x < m { x } else { m });
    if min == f32::INFINITY {
        return None;
    }
    let full = row.len() - tail.len();
    let start = row[..full]
        .chunks_exact(LANES)
        .position(|chunk| {
            let chunk: &[f32; LANES] = chunk.try_into().expect("chunks of LANES");
            chunk.iter().fold(false, |hit, &x| hit | (x == min))
        })
        .map_or(full, |k| k * LANES);
    row[start..]
        .iter()
        .position(|&x| x == min)
        .map(|i| start + i)
}

/// [`MergedRows::state`] of a position: a cluster merged away.
const DEAD: u8 = 0;
/// [`MergedRows::state`] of a live cluster that owns no row.
const SINGLETON: u8 = 1;
/// [`MergedRows::state`] of a live cluster that owns a row.
const MERGED: u8 = 2;

/// The share of live positions (3 in 4) at or below which
/// [`MergedRows::compact`] drops the dead ones. Over 3 998 distinct
/// S12 sketches (`shotgun_dense_hier`, seed 42, 2 vCPUs; medians of
/// ≈ 30 runs, two batches) the chain took 53–56 ms never compacting,
/// 45–51 ms compacting at 1/2 and 39–41 ms at 3/4, compaction's own
/// 3 ms included (EXPERIMENTS.md "Live-only NN-chain").
const COMPACT_AT: (usize, usize) = (3, 4);

/// The NN-chain's clusters by position. Position `p` holds cluster
/// `ids[p]`, ascending; a cluster keeps the id of its smallest item.
/// Per position: one state byte, a slot and a size. Beside them, a
/// short ascending list of the positions of the live merged clusters,
/// and their `f32` distance rows, indexed by position and taken from a
/// pool of rows that merged clusters gave back. A merged row holds the
/// distance to every live cluster beside it and +∞ at every dead
/// position and at its own, so a pass over it needs no liveness test.
struct MergedRows {
    /// Item of each position, ascending.
    ids: Vec<u32>,
    /// [`DEAD`], [`SINGLETON`] or [`MERGED`], per position.
    state: Vec<u8>,
    /// Row of each merged cluster in `rows`.
    slot: Vec<u32>,
    /// Members of each cluster.
    size: Vec<usize>,
    /// The positions of the live merged clusters, ascending.
    live: Vec<usize>,
    rows: Vec<Vec<f32>>,
    /// Rows no cluster owns; their cells are stale.
    free: Vec<usize>,
}

impl MergedRows {
    /// One singleton per item, item `i` of `size[i]` members.
    fn new(size: Vec<usize>) -> MergedRows {
        let n = size.len();
        MergedRows {
            ids: (0..u32::try_from(n).expect("items fit u32 ids")).collect(),
            state: vec![SINGLETON; n],
            slot: vec![0; n],
            size,
            // A merged cluster holds two items or more.
            live: Vec::with_capacity(n / 2),
            rows: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Cluster `c`'s row, if it owns one.
    #[inline]
    fn row(&self, c: usize) -> Option<&[f32]> {
        (self.state[c] == MERGED).then(|| self.rows[self.slot[c] as usize].as_slice())
    }

    /// The first live position other than `a`.
    fn first_live_besides(&self, a: usize) -> usize {
        (0..self.state.len())
            .find(|&c| c != a && self.state[c] != DEAD)
            .expect("two live clusters")
    }

    /// Singleton `a`'s row into `out`: gathered off its cells, masked
    /// to +∞ off live singletons, with `rows[c][a]` at each live
    /// merged `c`.
    fn singleton_row(
        &self,
        a: usize,
        out: &mut [f32],
        gather: &impl Fn(&[u32], usize, &mut [f32]),
    ) {
        gather(&self.ids, a, out);
        // A pass of its own: folded into the gather, the select
        // compiles to a branch around the table load, which
        // mispredicts on interleaved states.
        for (d, &s) in out.iter_mut().zip(&self.state) {
            *d = if s == SINGLETON { *d } else { f32::INFINITY };
        }
        for &c in &self.live {
            out[c] = self.rows[self.slot[c] as usize][a];
        }
    }

    /// Merge `drop` into `keep` (`keep < drop`). `top` is the one of
    /// the two searched last, so `scratch` holds its row if it is a
    /// singleton. `update` gives the Lance–Williams distance of the
    /// union from keep's and drop's.
    fn merge(
        &mut self,
        keep: usize,
        drop: usize,
        top: usize,
        scratch: &mut Vec<f32>,
        gather: &impl Fn(&[u32], usize, &mut [f32]),
        update: impl Fn(f64, f64) -> f64,
    ) {
        let update = |dk: f32, dd: f32| nan_as_inf(update(f64::from(dk), f64::from(dd)) as f32);
        // Keep's row, out of the table while the merged rows are
        // written: its own, or a pool row that takes the searched
        // buffer or is gathered.
        let keep_slot = if self.state[keep] == MERGED {
            self.slot[keep] as usize
        } else {
            let s = self.free.pop().unwrap_or_else(|| {
                self.rows.push(vec![0.0; self.state.len()]);
                self.rows.len() - 1
            });
            if keep == top {
                std::mem::swap(&mut self.rows[s], scratch);
            } else {
                gather(&self.ids, keep, &mut self.rows[s]);
            }
            self.slot[keep] = u32::try_from(s).expect("fewer rows than clusters");
            self.live
                .insert(self.live.binary_search(&keep).unwrap_err(), keep);
            s
        };
        let mut new = std::mem::take(&mut self.rows[keep_slot]);
        // Drop's row: its own, or `scratch` as searched or gathered.
        let drop_slot = (self.state[drop] == MERGED).then(|| {
            self.live
                .remove(self.live.binary_search(&drop).expect("drop is live"));
            self.slot[drop] as usize
        });
        let drop_row = match drop_slot {
            Some(s) => std::mem::take(&mut self.rows[s]),
            None => {
                if drop != top {
                    gather(&self.ids, drop, scratch);
                }
                std::mem::take(scratch)
            }
        };
        self.state[keep] = MERGED;
        self.state[drop] = DEAD;
        self.size[keep] += self.size[drop];
        // Live singletons: one pass over keep's and drop's rows.
        for ((k, &d), &s) in new.iter_mut().zip(&drop_row).zip(&self.state) {
            let x = update(*k, d);
            *k = if s == SINGLETON { x } else { f32::INFINITY };
        }
        // Live merged neighbours: off their own rows.
        for &c in &self.live {
            if c != keep {
                let row = &mut self.rows[self.slot[c] as usize];
                let x = update(row[keep], row[drop]);
                row[keep] = x;
                row[drop] = f32::INFINITY;
                new[c] = x;
            }
        }
        self.rows[keep_slot] = new;
        match drop_slot {
            Some(s) => {
                self.rows[s] = drop_row;
                self.free.push(s);
            }
            None => *scratch = drop_row,
        }
    }

    /// With `live` clusters left, drop the dead positions once at most
    /// [`COMPACT_AT`] of them are live: from the per-position arrays,
    /// from each live merged row, and from `scratch` and the pool rows
    /// (whose cells are stale, so they are cut to the new width). The
    /// positions in `chain` and in the live list move with their
    /// clusters. Every buffer shrinks in place: no allocation.
    fn compact(&mut self, live: usize, scratch: &mut Vec<f32>, chain: &mut [usize]) {
        let width = self.state.len();
        if live * COMPACT_AT.1 > width * COMPACT_AT.0 {
            return;
        }
        let state = &self.state;
        for &c in &self.live {
            drop_dead(&mut self.rows[self.slot[c] as usize], state);
        }
        for &s in &self.free {
            self.rows[s].truncate(live);
        }
        scratch.truncate(live);
        // Positions to ids and back: the ids keep their order.
        for p in chain.iter_mut().chain(&mut self.live) {
            *p = self.ids[*p] as usize;
        }
        drop_dead(&mut self.ids, state);
        drop_dead(&mut self.slot, state);
        drop_dead(&mut self.size, state);
        self.state.retain(|&s| s != DEAD);
        for p in chain.iter_mut().chain(&mut self.live) {
            *p = self.ids.binary_search(&(*p as u32)).expect("a live id");
        }
    }
}

/// Keep the entries of `v` whose position is not [`DEAD`] in `state`.
fn drop_dead<T: Copy>(v: &mut Vec<T>, state: &[u8]) {
    let mut states = state.iter();
    v.retain(|_| states.next() != Some(&DEAD));
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

    /// Every lower cell of `cells` is the upper one it mirrors, for an
    /// input whose cell `(i, j)`, `i < j`, is `cell(i, j)`.
    fn assert_transposed<T: Copy + PartialEq + std::fmt::Debug>(
        cells: &Triangles<'_, T>,
        cell: impl Fn(usize, usize) -> T,
        what: &str,
    ) {
        for a in 0..cells.len() {
            assert_eq!(cells.lower(a).len(), a, "{what}, row {a}");
            for (c, &x) in cells.lower(a).iter().enumerate() {
                assert_eq!(x, cell(c, a), "{what}, cell ({a}, {c})");
            }
        }
    }

    #[test]
    fn lower_rows_transpose_the_upper_ones() {
        // More than one tile each way, a ragged last tile, and sizes
        // below, at and past the one the transpose splits from.
        let split = crate::matrix::SPLIT_ITEMS;
        for n in [0usize, 1, 2, 65, 150, split - 1, split, split + 1] {
            let m = CondensedMatrix::build(n, |i, j| (i * 4096 + j) as f64);
            let cells = Triangles::new((0..n).map(|a| m.row(a)).collect());
            assert_transposed(&cells, |i, j| m.get(i, j) as f32, &format!("f32, n={n}"));
            for a in 0..n {
                assert_eq!(cells.upper(a), m.row(a));
            }
            let narrow: Vec<Vec<u8>> = (0..n)
                .map(|i| (i + 1..n).map(|j| (i * 31 + j * 7) as u8).collect())
                .collect();
            let cells = Triangles::new(narrow.iter().map(Vec::as_slice).collect());
            assert_transposed(&cells, |i, j| (i * 31 + j * 7) as u8, &format!("u8, n={n}"));
            let wide: Vec<Vec<u16>> = (0..n)
                .map(|i| (i + 1..n).map(|j| (i * 1000 + j) as u16).collect())
                .collect();
            let cells = Triangles::new(wide.iter().map(Vec::as_slice).collect());
            assert_transposed(&cells, |i, j| (i * 1000 + j) as u16, &format!("u16, n={n}"));
        }
        // Every range count, whatever the cores: more ranges than rows,
        // and ranges that end inside a tile.
        for n in [0usize, 1, 2, 5, 150, 301] {
            let wide: Vec<Vec<u16>> = (0..n)
                .map(|i| (i + 1..n).map(|j| (i * 1000 + j) as u16).collect())
                .collect();
            for parts in 1..=7 {
                let cells = Triangles::split(wide.iter().map(Vec::as_slice).collect(), parts);
                let what = format!("u16, n={n}, {parts} ranges");
                assert_transposed(&cells, |i, j| (i * 1000 + j) as u16, &what);
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

    /// A search that finds no neighbour below +∞ takes the smallest
    /// other live id: NaN reads as +∞, and so does similarity −∞. Over
    /// five items the last merge's search runs after two compactions
    /// (to three positions, then two), so it answers through the
    /// positions' ids.
    #[test]
    fn searches_without_a_finite_neighbour_still_merge() {
        let merge = |a, b, similarity| Merge { a, b, similarity };
        let minus_inf = f64::NEG_INFINITY;
        for n in [3usize, 5] {
            let all_nan = CondensedMatrix::build(n, |_, _| f64::NAN);
            // Item 1 sits at −∞ to all others.
            let apart =
                CondensedMatrix::build(n, |i, j| if i == 1 || j == 1 { minus_inf } else { 0.5 });
            for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                let what = format!("n={n}, {linkage:?}");
                let (labels, dendro) = agglomerative(&all_nan, linkage, 0.5);
                let expected: Vec<Merge> = (1..n).map(|b| merge(0, b, minus_inf)).collect();
                assert_eq!(dendro.merges, expected, "{what}");
                assert_eq!(labels.num_clusters(), n, "{what}");
                let (labels, dendro) = agglomerative(&apart, linkage, 0.5);
                let mut expected: Vec<Merge> = (2..n).map(|b| merge(0, b, 0.5)).collect();
                expected.push(merge(0, 1, minus_inf));
                assert_eq!(dendro.merges, expected, "{what}");
                assert_eq!(labels.num_clusters(), 2, "{what}");
            }
        }
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
