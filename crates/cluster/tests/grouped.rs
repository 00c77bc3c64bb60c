//! A group of identical items clustered as one weighted vertex equals
//! the items planted one by one: `agglomerative_grouped` and
//! `agglomerative_sparse_grouped` against the unit-size run over the
//! expanded input. Single linkage, grouped or not, is also checked
//! against an oracle that runs no linkage at all: connected components
//! and a maximum spanning forest. And the NN-chain replays the one it
//! replaced (`reference_nn_chain`: every distance through `get`/`set`,
//! every scan over all clusters) on a matrix and on the count store, at
//! unit and grouped sizes: the oracle's merges, pair for pair, stably
//! sorted by height.

use proptest::prelude::*;

use mrmc_cluster::linkage::build_dendrogram;
use mrmc_cluster::{
    agglomerative, agglomerative_grouped, agglomerative_sparse, agglomerative_sparse_grouped,
    cut_dendrogram, CondensedMatrix, CountStrips, Dendrogram, DenseInput, GroupMismatch, Groups,
    Linkage, Merge, PairCounts, SparseSimGraph, TooManyItems,
};
use mrmc_testkit::linkage::{
    components, expand, reference_nn_chain, same_hierarchy, spanning_forest_heights,
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
    groups: Groups,
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
        let groups = Groups::by_key(&items).expect("items fit");
        let base = groups
            .first()
            .iter()
            .map(|&i| vertices[items[i as usize]])
            .collect();
        Planted { groups, base, seed }
    }

    /// Items `of` planted with groups keyed as numbered.
    fn numbered(of: Vec<u32>, base: Vec<usize>, seed: u64) -> Planted {
        let groups = Groups::by_key(of).expect("items fit");
        Planted { groups, base, seed }
    }

    fn groups(&self) -> usize {
        self.groups.num_groups()
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
        let of = self.groups.of();
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
        expand(&self.grouped_graph(), &self.groups)
    }
}

fn assert_grouped_equals_planted(planted: &Planted, theta: f64) {
    let (matrix, items) = (planted.grouped_matrix(), planted.item_matrix());
    let (graph, item_graph) = (planted.grouped_graph(), planted.item_graph());
    for linkage in LINKAGES {
        let what = format!(
            "{} items, {} groups, {linkage:?}, θ = {theta}",
            planted.groups.of().len(),
            planted.groups()
        );
        // The grouped run is the item run's hierarchy: the same θ-cut
        // and `same_hierarchy`.
        let (labels, run) =
            agglomerative_grouped(&matrix, &planted.groups, linkage, theta).expect("one per group");
        let (expect, oracle) = agglomerative(&items, linkage, theta);
        assert_eq!(labels, expect, "dense, {what}: labels at θ");
        same_hierarchy(&run, &oracle, &format!("dense, {what}"));
        // An owned matrix links as a borrowed one does.
        assert_eq!(
            agglomerative_grouped(matrix.clone(), &planted.groups, linkage, theta),
            agglomerative_grouped(&matrix, &planted.groups, linkage, theta),
            "dense owned, {what}"
        );
        let (labels, run) = agglomerative_sparse_grouped(&graph, &planted.groups, linkage, theta)
            .expect("one per group");
        let (expect, oracle) = agglomerative_sparse(&item_graph, linkage, theta);
        assert_eq!(labels, expect, "sparse, {what}: labels at θ");
        same_hierarchy(&run, &oracle, &format!("sparse, {what}"));
    }
}

#[test]
fn grouped_directed_cases() {
    // No items, one item, one group of copies, no copies at all.
    for (of, bases) in [(vec![], vec![]), (vec![0], vec![0]), (vec![0; 5], vec![0])] {
        assert_grouped_equals_planted(&Planted::numbered(of, bases, 7), 0.5);
    }
    let planted = Planted::numbered((0..9).collect(), (0..9).collect(), 11);
    assert_grouped_equals_planted(&planted, 0.5);
    // Twins and copies side by side: groups 0 and 2 share base 0.
    let planted = Planted::numbered(vec![0, 1, 0, 2, 3, 2, 1, 0], vec![0, 1, 0, 2], 3);
    assert_grouped_equals_planted(&planted, 0.4);
}

#[test]
fn groups_number_keys_by_first_occurrence() {
    let groups = Groups::by_key(["b", "a", "b", "c", "a"]).expect("items fit");
    assert_eq!(groups.of(), [0, 1, 0, 2, 1]);
    assert_eq!(groups.first(), [0, 1, 3]);
    assert_eq!(groups.sizes(), [2, 2, 1]);
    let lifted = groups
        .lift(vec!['B', 'A', 'C'])
        .expect("one value per group");
    assert_eq!(lifted, ['B', 'A', 'B', 'C', 'A']);
    // Refused from the size hint, before a key is read.
    let past = std::iter::repeat_n(0u8, u32::MAX as usize + 1);
    assert_eq!(Groups::by_key(past), Err(TooManyItems));
}

/// Two groups meet three vertices, three values or one value: each
/// grouped entry point refuses them with the counts, and none panics.
#[test]
fn every_vertex_is_a_group() {
    let groups = Groups::by_key([0, 1, 0]).expect("items fit");
    let refused = |given| GroupMismatch { groups: 2, given };
    let graph = SparseSimGraph::from_edges(3, vec![]);
    let sparse = agglomerative_sparse_grouped(&graph, &groups, Linkage::Complete, 0.5);
    assert_eq!(sparse.err(), Some(refused(3)));
    let matrix = CondensedMatrix::build(3, |_, _| 0.5);
    let dense = agglomerative_grouped(&matrix, &groups, Linkage::Average, 0.5);
    assert_eq!(dense.err(), Some(refused(3)));
    assert_eq!(groups.lift(vec!['a', 'b', 'c']), Err(refused(3)));
    assert_eq!(groups.lift(vec!['a']), Err(refused(1)));
    assert_eq!(
        refused(3).to_string(),
        "3 values or vertices for 2 groups, expected one per group"
    );
    // One per group links.
    let two = SparseSimGraph::from_edges(2, vec![]);
    assert!(agglomerative_sparse_grouped(&two, &groups, Linkage::Complete, 0.5).is_ok());
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

/// `run` is the single-linkage dendrogram of `n` items whose pairs
/// `pairs` have the given similarities, every other pair 0.0: its cut
/// at each θ is the connected components of the pairs at similarity
/// ≥ θ, and its heights are the weights of a maximum spanning forest
/// (Kruskal), each read through the route's `f32` distance, plus a 0.0
/// merge for each extra component.
fn assert_single_is_forest(
    run: &Dendrogram,
    n: usize,
    pairs: Vec<(usize, usize, f64)>,
    what: &str,
) {
    assert_eq!(run.n, n, "{what}: leaves");
    for theta in SINGLE_THETAS {
        assert_eq!(
            cut_dendrogram(run, theta),
            components(n, &pairs, theta),
            "{what}: cut at {theta}"
        );
    }
    let mut heights = run.heights();
    heights.sort_by(f64::total_cmp);
    assert_eq!(
        heights,
        spanning_forest_heights(n, pairs),
        "{what}: heights"
    );
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
        let (groups, items) = (planted.groups(), planted.groups.of().len());
        let what = format!("{items} items, {groups} groups, seed {seed}");
        let single = Linkage::Single;
        assert_single_is_forest(
            &agglomerative(&matrix, single, 0.5).1,
            groups,
            matrix_pairs(&matrix),
            &format!("dense, {what}"),
        );
        assert_single_is_forest(
            &agglomerative_grouped(&matrix, &planted.groups, single, 0.5)
                .expect("one per group")
                .1,
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
            &agglomerative_sparse_grouped(&graph, &planted.groups, single, 0.5)
                .expect("one per group")
                .1,
            items,
            graph_pairs(&planted.item_graph()),
            &format!("sparse grouped, {what}"),
        );
    }
}

fn assert_replays_reference(m: &CondensedMatrix, what: &str) {
    for linkage in LINKAGES {
        assert_eq!(
            build_dendrogram(m, linkage),
            reference_nn_chain(m, vec![1; m.len()], linkage),
            "{what}, {linkage:?}"
        );
    }
}

#[test]
fn matrix_input_replays_reference_on_tie_heavy_matrices() {
    for n in [2usize, 3, 7, 40] {
        let all_equal = CondensedMatrix::build(n, |_, _| 0.35);
        assert_replays_reference(&all_equal, &format!("all-equal, n={n}"));
    }
    // Items 3 and 11 have the same row: every neighbour of one is an
    // equally near neighbour of the other.
    let twin = |x: usize| if x == 11 { 3 } else { x };
    let m = CondensedMatrix::build(16, |i, j| {
        let (i, j) = (twin(i).min(twin(j)), twin(i).max(twin(j)));
        if i == j {
            1.0
        } else {
            ((i * 7 + j * 13) % 21) as f64 / 20.0
        }
    });
    assert_replays_reference(&m, "duplicate row");
}

proptest! {
    /// Similarities on the grid {0, 1/20, …, 1} — real sketch
    /// similarities are multiples of `1/num_hashes` — so equal
    /// distances, and equal Lance–Williams results, are everywhere.
    #[test]
    fn matrix_input_replays_reference(n in 2usize..80, seed in any::<u64>()) {
        let m = CondensedMatrix::build(n, |i, j| (mix(seed, i as u64, j as u64) % 21) as f64 / 20.0);
        assert_replays_reference(&m, &format!("n={n}, seed={seed}"));
    }
}

/// Counts of `n` items on nine levels `0, width/8, …` in the lane
/// `width` needs, so equal distances are everywhere.
fn tie_heavy_counts(n: usize, width: usize, seed: u64) -> PairCounts {
    let count = |i: usize, j: usize| (mix(seed, i as u64, j as u64) % 9) as usize * (width / 8);
    let strips = |i: usize| (i + 1..n).map(move |j| count(i, j));
    let strips = if width <= usize::from(u8::MAX) {
        CountStrips::Narrow(
            (0..n)
                .map(|i| strips(i).map(|c| c as u8).collect())
                .collect(),
        )
    } else {
        CountStrips::Wide(
            (0..n)
                .map(|i| strips(i).map(|c| c as u16).collect())
                .collect(),
        )
    };
    PairCounts::new(width, strips)
}

/// `input` replays the oracle over `matrix`, its similarity matrix,
/// at unit sizes and with item `g` a group of 1–4 copies: at unit
/// sizes the oracle's dendrogram; at grouped sizes the oracle's
/// weighted merges, each naming its groups' first items, after each
/// copy's 1.0 merge into its group's first item.
fn assert_replays_at_unit_and_grouped_sizes(
    input: impl DenseInput + Copy,
    matrix: &CondensedMatrix,
    seed: u64,
    what: &str,
) {
    let n = matrix.len();
    let size: Vec<usize> = (0..n)
        .map(|g| 1 + (mix(seed, g as u64, n as u64) % 4) as usize)
        .collect();
    let keys = size
        .iter()
        .enumerate()
        .flat_map(|(g, &m)| std::iter::repeat_n(g, m));
    let groups = Groups::by_key(keys).expect("items fit");
    let first = |g: usize| groups.first()[g] as usize;
    for linkage in LINKAGES {
        assert_eq!(
            build_dendrogram(input, linkage),
            reference_nn_chain(matrix, vec![1; n], linkage),
            "{what}, {linkage:?}"
        );
        let weighted = reference_nn_chain(matrix, size.clone(), linkage);
        let mut merges: Vec<Merge> = (groups.of().iter().enumerate())
            .filter(|&(i, &g)| first(g as usize) != i)
            .map(|(i, &g)| Merge {
                a: first(g as usize),
                b: i,
                similarity: 1.0,
            })
            .collect();
        merges.extend(weighted.merges.iter().map(|m| Merge {
            a: first(m.a),
            b: first(m.b),
            similarity: m.similarity,
        }));
        merges.sort_by(|x, y| y.similarity.total_cmp(&x.similarity));
        assert_eq!(
            agglomerative_grouped(input, &groups, linkage, 0.5)
                .expect("one per group")
                .1,
            Dendrogram {
                n: groups.of().len(),
                merges
            },
            "{what}, {linkage:?}, grouped"
        );
    }
}

proptest! {
    /// The count store replays the oracle at unit and grouped sizes.
    #[test]
    fn count_store_replays_reference(
        n in 2usize..60,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let width = if wide { 300 } else { 50 };
        let counts = tie_heavy_counts(n, width, seed);
        let what = format!("n={n}, width={width}, seed={seed}");
        assert_replays_at_unit_and_grouped_sizes(&counts, &counts.to_matrix(), seed, &what);
    }
}

/// Rows that end just short of, on, and just past the search's chunk
/// widths, and several chunks long: tie-heavy counts in both lanes and
/// an all-equal matrix, at unit and grouped sizes.
#[test]
fn rows_across_chunk_widths_replay_reference() {
    for n in [63usize, 64, 65, 127, 129, 300] {
        for width in [50, 300] {
            let counts = tie_heavy_counts(n, width, n as u64);
            let what = format!("n={n}, width={width}");
            assert_replays_at_unit_and_grouped_sizes(&counts, &counts.to_matrix(), 7, &what);
        }
        let all_equal = CondensedMatrix::build(n, |_, _| 0.35);
        let what = format!("all-equal, n={n}");
        assert_replays_at_unit_and_grouped_sizes(&all_equal, &all_equal, 7, &what);
    }
}

/// The chain drops its dead positions each time a quarter of its width
/// has died, about 17 times over 300 items, so most searches and merges
/// run on compacted rows, and singletons read their cells through the
/// positions' ids: tie-heavy counts in both lanes and a tie-heavy
/// matrix, at unit and grouped sizes.
#[test]
fn compacting_chain_replays_reference() {
    let n = 300;
    for seed in [3u64, 42] {
        for width in [50, 300] {
            let counts = tie_heavy_counts(n, width, seed);
            let what = format!("n={n}, width={width}, seed={seed}");
            assert_replays_at_unit_and_grouped_sizes(&counts, &counts.to_matrix(), seed, &what);
        }
        let m =
            CondensedMatrix::build(n, |i, j| (mix(seed, i as u64, j as u64) % 21) as f64 / 20.0);
        let what = format!("matrix, n={n}, seed={seed}");
        assert_replays_at_unit_and_grouped_sizes(&m, &m, seed, &what);
    }
}
