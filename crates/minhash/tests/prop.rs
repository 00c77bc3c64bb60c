//! Property-based tests for the minwise-hashing substrate.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrmc_minhash::sketch::EMPTY_SLOT;
use mrmc_minhash::{
    agreements, exact_jaccard, is_prime, min_agreeing, next_prime, positional_similarity,
    set_similarity, BandingScheme, MinHasher, RankedRelation, Sketch, SketchPlane,
    UniversalHashFamily,
};
use mrmc_seqio::encode::KmerIter;
use mrmc_testkit::community::dna;
use mrmc_testkit::kernels as reference;

/// The k on either side of every choice the sketcher makes: the rank
/// table's range (1..=7) and the first k above it (the rolling
/// kernel's first), two inside the rolling range, the 16S setting (its
/// last), the first k whose prime lets `a·x + b` leave a word (16),
/// and the ceiling.
const KS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 31];

/// Every base `encode_base` accepts — `ACGT`, lowercase, `U`/`u` —
/// with an ambiguous `N` or `R` twice in 62 draws: enough clean runs
/// for 31-mers, and resets both kernels must place alike.
fn bases_with_ambiguity() -> Vec<u8> {
    let mut alphabet = b"ACGTacgtUu".repeat(6);
    alphabet.extend_from_slice(b"NR");
    alphabet
}

/// The default (`m = max(4^k, 2^31)`) or the paper-literal (`m = 4^k`,
/// so `h_i` ties constantly at small k) sketcher.
fn hasher_for(k: usize, n: usize, seed: u64, literal: bool) -> MinHasher {
    if literal {
        let family = UniversalHashFamily::for_kmer_size_paper_literal(k, n, seed);
        MinHasher::with_family(k, family)
    } else {
        MinHasher::for_kmer_size(k, n, seed)
    }
}

/// Bytes of the lane a plane of `sketches` must take: the narrowest of
/// 1, 2 and 4 whose `MAX` holds the largest column's count of distinct
/// real values plus the empty mark.
fn narrowest_lane(sketches: &[Sketch]) -> usize {
    let width = sketches.first().map_or(0, Sketch::len);
    let cardinality = (0..width)
        .map(|c| {
            let column: HashSet<u64> = sketches
                .iter()
                .map(|s| s.values()[c])
                .filter(|&v| v != EMPTY_SLOT)
                .collect();
            column.len()
        })
        .max()
        .unwrap_or(0);
    if cardinality < 1 << 8 {
        1
    } else if cardinality < 1 << 16 {
        2
    } else {
        4
    }
}

/// The plane of `sketches` against the textbook estimator on `pairs`:
/// each `count` is the similarity times the width, each `similarity`
/// the same bits, and where `strips(row)`, that row's `extend_counts`
/// over the rows after it its pairs' counts; the lane is
/// [`narrowest_lane`]. Returns the plane.
fn assert_plane_matches(
    sketches: &[Sketch],
    pairs: impl Fn(usize) -> Vec<usize>,
    strips: impl Fn(usize) -> bool,
) -> SketchPlane {
    let plane = SketchPlane::pack(sketches).unwrap();
    let n = sketches.len();
    assert_eq!(plane.len(), n);
    assert_eq!(plane.lane_bytes(), narrowest_lane(sketches));
    let width = plane.width();
    for i in 0..n {
        let mut strip = Vec::new();
        if strips(i) {
            plane.extend_counts(i, i + 1..n, &mut strip, |c| c);
            assert_eq!(strip.len(), n - i - 1);
        }
        for j in pairs(i) {
            let expect = reference::positional_similarity(&sketches[i], &sketches[j]);
            let count = plane.count(i, j);
            assert_eq!(
                count,
                agreements(&sketches[i], &sketches[j]),
                "pair ({i}, {j})"
            );
            assert_eq!(
                (count as f64 / width as f64).to_bits(),
                expect.to_bits(),
                "pair ({i}, {j})"
            );
            if j > i && strips(i) {
                assert_eq!(strip[j - i - 1], count, "pair ({i}, {j})");
            }
        }
    }
    plane
}

/// The last `u16` column and the first `u32` one: 65 535, then 65 536
/// distinct values in column 0, beside a full copy of row 0, a row
/// with a hole and a degenerate row. Every row meets row 0, the last
/// distinct row and the three planted rows; the strips of row 0 and
/// the last four rows are checked.
#[test]
fn plane_lane_crosses_u16_at_65536_distinct_values() {
    for (distinct, bytes) in [(65_535u64, 2), (65_536, 4)] {
        let mut sketches: Vec<Sketch> = (0..distinct)
            .map(|i| Sketch::from_values(vec![(i << 33) | 1, i % 3]))
            .collect();
        let first = sketches[0].values().to_vec();
        sketches.push(Sketch::from_values(first.clone()));
        sketches.push(Sketch::from_values(vec![first[0], EMPTY_SLOT]));
        sketches.push(Sketch::from_values(vec![EMPTY_SLOT; 2]));
        let n = sketches.len();
        let last = distinct as usize - 1;
        let plane = assert_plane_matches(
            &sketches,
            |_| vec![0, last, n - 3, n - 2, n - 1],
            |row| row == 0 || row >= last,
        );
        assert_eq!(plane.lane_bytes(), bytes, "{distinct} distinct values");
        assert_eq!(plane.count(0, n - 3), 2);
        assert_eq!(plane.count(n - 2, 0), 1);
        assert_eq!(plane.count(n - 1, n - 1), 2);
    }
}

/// `sketch_kmers` against the textbook loop, whose sketch is returned.
fn assert_matches_reference(hasher: &MinHasher, kmers: &[u64], what: &str) -> Sketch {
    let expect = reference::sketch_kmers(hasher, kmers.iter().copied());
    let got = hasher.sketch_kmers(kmers.iter().copied());
    assert_eq!(got.values(), expect.values(), "{what}");
    assert_eq!(got.non_empty(), expect.non_empty(), "{what}");
    expect
}

/// The edges of the small-k kernel and of the rule that selects it,
/// each against the textbook loop, under both families.
#[test]
fn sketch_kernel_edges_match_reference() {
    for k in 1..=8usize {
        let space = 1u64 << (2 * k);
        let root = 1u64 << k;
        for literal in [false, true] {
            let hasher = hasher_for(k, 9, 5, literal);
            let check = |kmers: Vec<u64>, what: &str| {
                assert_matches_reference(&hasher, &kmers, &format!("{what}, k = {k}"));
            };
            check((0..space).collect(), "every k-mer present");
            check(vec![0], "one k-mer");
            check(vec![space - 1; 40], "one k-mer, repeated");
            // d distinct k-mers spread over the space (an odd
            // multiplier permutes it), either side of d² = 4^k.
            for d in [root - 1, root, root + 1] {
                let spread = (0..d).map(|i| i.wrapping_mul(0x9E37_79B1) % space);
                check(spread.collect(), &format!("d = {d}"));
            }
            // A feature outside the k-mer space, amid enough k-mers to
            // take the rank table without it.
            for stray in [space, u64::MAX] {
                let mut kmers: Vec<u64> = (0..space).collect();
                kmers.insert(kmers.len() / 2, stray);
                check(kmers, &format!("stray feature {stray}"));
            }
        }
    }
}

/// Features outside the `4^k` k-mer space at `k`: its first, one past
/// `word_max` for every family that rolls (2^40), and the largest.
fn strays(k: usize) -> [u64; 3] {
    let space = 1u64 << (2 * k);
    [space, (1 << 40).max(space + 1), u64::MAX]
}

/// `read`'s k-mer stream at `k` in one of seven shapes: the in-order
/// windows (reset at each ambiguous base), the same with the
/// [`strays`] planted among them, shuffled, cut and its tail moved
/// before its head (a jump back to the start midway), each window
/// twice, reversed, or nothing.
fn kmer_stream(read: &[u8], k: usize, shape: u8, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kmers: Vec<u64> = KmerIter::new(read, k).unwrap().collect();
    match shape {
        0 => {}
        1 => {
            for stray in strays(k) {
                kmers.insert(rng.random_range(0..=kmers.len()), stray);
            }
        }
        2 => {
            for i in (1..kmers.len()).rev() {
                kmers.swap(i, rng.random_range(0..=i));
            }
        }
        3 => {
            let cut = rng.random_range(0..=kmers.len());
            kmers.rotate_left(cut);
        }
        4 => kmers = kmers.iter().flat_map(|&x| [x, x]).collect(),
        5 => kmers.reverse(),
        _ => kmers.clear(),
    }
    kmers
}

/// Up to 24 reads drawn from one to four templates of mixed-case bases
/// with ambiguous ones among them: point-mutated copies (which share
/// prefixes), exact copies, and copies cut to under 40 bases (below
/// most k, or empty), in random order.
fn prefix_sharing_batch(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = bases_with_ambiguity();
    let draw = |rng: &mut StdRng, len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect()
    };
    let templates: Vec<Vec<u8>> = (0..rng.random_range(1..5))
        .map(|_| {
            let len = rng.random_range(0..160);
            draw(&mut rng, len)
        })
        .collect();
    (0..rng.random_range(0..24))
        .map(|_| {
            let mut read = templates[rng.random_range(0..templates.len())].clone();
            match rng.random_range(0..8) {
                0 => read.truncate(rng.random_range(0..40)),
                1 => {}
                _ => {
                    for _ in 0..rng.random_range(1..4) {
                        if !read.is_empty() {
                            let at = rng.random_range(0..read.len());
                            read[at] = draw(&mut rng, 1)[0];
                        }
                    }
                }
            }
            read
        })
        .collect()
}

/// Trial-division reference for primality.
fn is_prime_naive(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

proptest! {
    /// Miller–Rabin agrees with trial division on small integers.
    #[test]
    fn primality_matches_naive(n in 0u64..50_000) {
        prop_assert_eq!(is_prime(n), is_prime_naive(n));
    }

    /// next_prime returns a prime strictly above its input with no
    /// prime in between.
    #[test]
    fn next_prime_is_next(n in 0u64..20_000) {
        let p = next_prime(n);
        prop_assert!(p > n);
        prop_assert!(is_prime(p));
        for q in (n + 1)..p {
            prop_assert!(!is_prime(q));
        }
    }

    /// Hash outputs stay within the configured range.
    #[test]
    fn hash_range(m_exp in 2u32..30, x in any::<u64>(), seed in any::<u64>()) {
        let m = 1u64 << m_exp;
        let family = UniversalHashFamily::new(4, m, seed);
        for i in 0..family.len() {
            prop_assert!(family.hash(i, x) < m);
        }
    }

    /// Whichever kernel a read lands on — rank table, blocked walk or
    /// rolling residues, word-sized or 127-bit Eq. 5 — `sketch_sequence`
    /// and `sketch_kmers` equal the textbook loop: random mixed-case
    /// reads with ambiguous bases and low-complexity ones, both
    /// families, sketch widths around the block size and the 16S
    /// setting's.
    #[test]
    fn sketch_kernels_match_reference(
        bases in proptest::collection::vec(proptest::sample::select(bases_with_ambiguity()), 0..1500),
        period in proptest::sample::select(vec![0usize, 0, 3, 11]),
        n in proptest::sample::select(vec![1usize, 7, 8, 9, 50, 100]),
        literal in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // A non-zero period repeats the read's first bases: few
        // distinct k-mers however long it is.
        let read: Vec<u8> = match period {
            0 => bases,
            _ => (0..bases.len()).map(|i| bases[i % period]).collect(),
        };
        for k in KS {
            let hasher = hasher_for(k, n, seed, literal);
            let kmers: Vec<u64> = KmerIter::new(&read, k).unwrap().collect();
            let expect = assert_matches_reference(&hasher, &kmers, &format!("k = {k}"));
            let got = hasher.sketch_sequence(&read).unwrap();
            prop_assert_eq!(got.values(), expect.values(), "k = {}", k);
        }
    }

    /// `sketch_kmers` equals the textbook loop on every shape of k-mer
    /// stream ([`kmer_stream`]) at every k of `KS` under both
    /// families: the rolling kernel's overlap steps, fresh residues at
    /// resets and jumps, and Eq. 5 on features outside the k-mer space
    /// and past `word_max`, as well as the rank table and the blocked
    /// walk.
    #[test]
    fn sketch_kmers_matches_reference_on_every_stream(
        bases in proptest::collection::vec(proptest::sample::select(bases_with_ambiguity()), 0..400),
        shape in 0u8..7,
        n in proptest::sample::select(vec![1usize, 8, 9, 50]),
        literal in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for k in KS {
            let hasher = hasher_for(k, n, seed, literal);
            let kmers = kmer_stream(&bases, k, shape, seed);
            assert_matches_reference(&hasher, &kmers, &format!("k = {k}, shape {shape}"));
        }
    }

    /// A batch sketched in byte order, each sequence resuming from the
    /// state its predecessor left at their common prefix, is the
    /// per-sequence sketch of every member: near copies of one to four
    /// templates (mixed case, ambiguous bases, point mutations), cut
    /// short of k or to nothing, exact copies, in random order, at
    /// every k of `KS` and both families.
    #[test]
    fn sketch_sequences_equal_per_read(
        batch_seed in any::<u64>(),
        n in proptest::sample::select(vec![1usize, 8, 50]),
        literal in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let batch = prefix_sharing_batch(batch_seed);
        let seqs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let bases: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        for k in KS {
            let hasher = hasher_for(k, n, seed, literal);
            let (got, stepped) = hasher.sketch_sequences_counted(&seqs).unwrap();
            prop_assert_eq!(got.len(), seqs.len());
            prop_assert!(stepped <= bases, "k = {}", k);
            for (seq, sketch) in seqs.iter().zip(&got) {
                let expect = hasher.sketch_sequence(seq).unwrap();
                prop_assert_eq!(sketch.values(), expect.values(), "k = {}", k);
            }
        }
    }

    /// The packed plane counts [`agreements`] on every pair, and the
    /// count over the width is the textbook positional estimator, bit
    /// for bit — whichever lane the values select and whichever of its
    /// two counts a pair takes. Each read contributes
    /// its sketch (degenerate when shorter than k), a near copy's, and
    /// a copy with positions knocked out, so full, partially empty and
    /// fully empty rows all meet; `clash` plants a real `u32::MAX`,
    /// which ranks like any other value.
    #[test]
    fn plane_matches_reference_similarity(
        reads in proptest::collection::vec(dna(0..90), 0..6),
        k in proptest::sample::select(vec![5usize, 17, 24]),
        n in proptest::sample::select(vec![1usize, 7, 8, 9, 50, 100]),
        literal in any::<bool>(),
        seed in any::<u64>(),
        holes in any::<u64>(),
        clash in any::<bool>(),
    ) {
        let hasher = hasher_for(k, n, seed, literal);
        let mut sketches = Vec::new();
        for (r, read) in reads.iter().enumerate() {
            let full = hasher.sketch_sequence(read).unwrap();
            let mut near = read.clone();
            if let Some(base) = near.last_mut() {
                *base = if *base == b'A' { b'C' } else { b'A' };
            }
            let punched = full
                .values()
                .iter()
                .enumerate()
                .map(|(p, &v)| if holes >> ((r * 11 + p) % 64) & 1 == 1 { EMPTY_SLOT } else { v })
                .collect();
            sketches.push(hasher.sketch_sequence(&near).unwrap());
            sketches.push(Sketch::from_values(punched));
            sketches.push(full);
        }
        if clash {
            // A real value that is the narrow lane's empty mark, shared
            // by two rows so that it must also count as an agreement.
            for s in sketches.iter_mut().take(2) {
                let mut values = s.values().to_vec();
                values[0] = u64::from(u32::MAX);
                *s = Sketch::from_values(values);
            }
        }
        let plane = SketchPlane::pack(&sketches).unwrap();
        prop_assert_eq!(plane.len(), sketches.len());
        prop_assert_eq!(plane.lane_bytes(), narrowest_lane(&sketches), "k = {}", k);
        for i in 0..sketches.len() {
            for j in 0..sketches.len() {
                let (a, b) = (&sketches[i], &sketches[j]);
                let count = agreements(a, b);
                prop_assert_eq!(plane.count(i, j), count, "pair ({}, {}), k = {}, n = {}", i, j, k, n);
                prop_assert!(count <= n);
                // The count over the width is the estimator, bit for
                // bit: why testing θ on the count moves no label.
                let sim = positional_similarity(a, b);
                prop_assert_eq!((count as f64 / n as f64).to_bits(), sim.to_bits());
                prop_assert_eq!(sim.to_bits(), reference::positional_similarity(a, b).to_bits());
            }
        }
    }

    /// A relation ranked once counts rows from outside it as
    /// [`agreements`]: the relation is every `split`-th sketch of near
    /// copies, knocked-out copies and degenerate ones (as in the plane
    /// property), the rows are all of them, so some rows are relation
    /// rows, some share a column's values and some hold values no
    /// relation row holds.
    #[test]
    fn ranked_relation_counts_agreements(
        reads in proptest::collection::vec(dna(0..90), 0..6),
        k in proptest::sample::select(vec![5usize, 15, 17]),
        n in proptest::sample::select(vec![1usize, 8, 50]),
        seed in any::<u64>(),
        holes in any::<u64>(),
        split in 1usize..4,
    ) {
        let hasher = hasher_for(k, n, seed, false);
        let mut sketches = Vec::new();
        for (r, read) in reads.iter().enumerate() {
            let full = hasher.sketch_sequence(read).unwrap();
            let mut near = read.clone();
            near.truncate(read.len() * 2 / 3);
            let punched = full
                .values()
                .iter()
                .enumerate()
                .map(|(p, &v)| if holes >> ((r * 7 + p) % 64) & 1 == 1 { EMPTY_SLOT } else { v })
                .collect();
            sketches.push(hasher.sketch_sequence(&near).unwrap());
            sketches.push(Sketch::from_values(punched));
            sketches.push(full);
        }
        let relation: Vec<&Sketch> = sketches.iter().step_by(split).collect();
        let ranked = RankedRelation::pack(&relation).unwrap();
        prop_assert_eq!(ranked.len(), relation.len());
        let mut counts = Vec::new();
        let rows = sketches.iter().map(|s| s.values().iter().copied());
        prop_assert!(ranked.extend_counts(rows, &mut counts, |c| c).is_ok());
        let expect = sketches
            .iter()
            .flat_map(|row| relation.iter().map(move |s| agreements(row, s)));
        prop_assert!(counts.into_iter().eq(expect));
    }

    /// Sketches are permutation- and multiplicity-invariant over the
    /// feature multiset.
    #[test]
    fn sketch_set_semantics(mut kmers in proptest::collection::vec(0u64..1024, 1..64), seed in any::<u64>()) {
        let hasher = MinHasher::for_kmer_size(5, 16, seed);
        let s1 = hasher.sketch_kmers(kmers.iter().copied());
        kmers.reverse();
        let doubled: Vec<u64> = kmers.iter().chain(kmers.iter()).copied().collect();
        let s2 = hasher.sketch_kmers(doubled);
        prop_assert_eq!(s1, s2);
    }

    /// Similarity estimators are bounded, symmetric, and reflexive on
    /// non-degenerate sketches.
    #[test]
    fn estimator_axioms(a in dna(8..80), b in dna(8..80), seed in any::<u64>()) {
        let hasher = MinHasher::for_kmer_size(4, 32, seed);
        let sa = hasher.sketch_sequence(&a).unwrap();
        let sb = hasher.sketch_sequence(&b).unwrap();
        for f in [positional_similarity, set_similarity] {
            let sim = f(&sa, &sb);
            prop_assert!((0.0..=1.0).contains(&sim));
            prop_assert!((sim - f(&sb, &sa)).abs() < 1e-12);
        }
        prop_assert_eq!(positional_similarity(&sa, &sa), 1.0);
        prop_assert_eq!(set_similarity(&sa, &sa), 1.0);
    }

    /// Exact Jaccard axioms on sorted deduplicated sets.
    #[test]
    fn exact_jaccard_axioms(
        a in proptest::collection::btree_set(0u64..500, 0..50),
        b in proptest::collection::btree_set(0u64..500, 0..50),
    ) {
        let av: Vec<u64> = a.iter().copied().collect();
        let bv: Vec<u64> = b.iter().copied().collect();
        let j = exact_jaccard(&av, &bv);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((j - exact_jaccard(&bv, &av)).abs() < 1e-12);
        prop_assert_eq!(exact_jaccard(&av, &av), 1.0);
        // Disjoint sets → 0 (when at least one non-empty).
        if !av.is_empty() && a.intersection(&b).count() == 0 {
            prop_assert_eq!(j, 0.0);
        }
    }

    /// The banding superset property the whole candidate pipeline
    /// rests on: under a tuned scheme, *every* pair with positional
    /// similarity ≥ θ collides in some band (pigeonhole exactness) —
    /// wherever the disagreements fall and whatever θ and the sketch
    /// width are. The candidate relation is also symmetric and
    /// reflexive.
    #[test]
    fn banding_candidates_cover_every_theta_pair(
        base in proptest::collection::vec(0u64..1_000_000, 10..80),
        flip_at in proptest::collection::vec(any::<usize>(), 0..10),
        flip_with in proptest::collection::vec(1u64..1_000_000, 0..10),
        theta in 0.5f64..=1.0,
    ) {
        let n = base.len();
        let scheme = BandingScheme::tune(n, theta);
        prop_assert!(scheme.guarantees_recall(n, theta));
        let mut other = base.clone();
        for (idx, delta) in flip_at.iter().zip(&flip_with) {
            let i = idx % n;
            other[i] = base[i] ^ delta;
        }
        let a = Sketch::from_values(base);
        let b = Sketch::from_values(other);
        let sim = positional_similarity(&a, &b);
        if sim >= theta {
            prop_assert!(
                scheme.collides(&a, &b),
                "sim {} ≥ θ {} must be a candidate under {:?}",
                sim, theta, scheme
            );
        }
        prop_assert_eq!(scheme.collides(&a, &b), scheme.collides(&b, &a));
        prop_assert!(scheme.collides(&a, &a));
    }

    /// Tuned schemes are well-formed for any width and threshold:
    /// `b·r ≤ n`, and recall is guaranteed at the tuned θ.
    #[test]
    fn tuned_scheme_well_formed(n in 1usize..257, theta in 0.0f64..=1.0) {
        let s = BandingScheme::tune(n, theta);
        prop_assert!(s.bands >= 1);
        prop_assert!(s.rows >= 1);
        prop_assert!(s.bands * s.rows <= n);
        if theta > 0.0 {
            prop_assert!(s.guarantees_recall(n, theta));
        }
    }

    /// Subset monotonicity: J(a, a∪b) ≥ J(a, b).
    #[test]
    fn jaccard_superset_monotone(
        a in proptest::collection::btree_set(0u64..200, 1..30),
        b in proptest::collection::btree_set(0u64..200, 1..30),
    ) {
        let av: Vec<u64> = a.iter().copied().collect();
        let bv: Vec<u64> = b.iter().copied().collect();
        let uv: Vec<u64> = a.union(&b).copied().collect();
        prop_assert!(exact_jaccard(&av, &uv) >= exact_jaccard(&av, &bv) - 1e-12);
    }

    /// The lane follows column cardinality across the `u8`/`u16`
    /// boundary. Column 0 of the first `distinct` rows holds `distinct`
    /// values spread over the whole `u64` range; the other columns
    /// repeat fewer. `extra` rows copy earlier rows, some with holes
    /// punched and some degenerate, so every count path meets every
    /// lane; all pairs are checked.
    #[test]
    fn plane_lane_follows_column_cardinality(
        distinct in prop_oneof![1usize..=300, proptest::sample::select(vec![254usize, 255, 256])],
        width in 1usize..5,
        extra in 0usize..12,
        base in 0u64..1 << 62,
        stride in 1u64..1 << 40,
        holes in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sketches: Vec<Sketch> = (0..distinct)
            .map(|r| {
                let values = (0..width)
                    .map(|c| {
                        let rank = if c == 0 { r } else { rng.random_range(0..distinct.div_ceil(c + 1)) };
                        if c > 0 && holes >> ((r * 7 + c) % 64) & 1 == 1 {
                            EMPTY_SLOT
                        } else {
                            base + rank as u64 * stride
                        }
                    })
                    .collect();
                Sketch::from_values(values)
            })
            .collect();
        for e in 0..extra {
            let copy = sketches[rng.random_range(0..distinct)].values().to_vec();
            let values = match e % 3 {
                0 => copy,
                1 => copy
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| if holes >> ((e + c) % 64) & 1 == 1 { EMPTY_SLOT } else { v })
                    .collect(),
                _ => vec![EMPTY_SLOT; width],
            };
            sketches.push(Sketch::from_values(values));
        }
        let n = sketches.len();
        assert_plane_matches(&sketches, |_| (0..n).collect(), |_| true);
    }
}

#[test]
fn barrett_bit_identical_to_division() {
    // Mixed operating points: tiny paper-literal ranges, the Pig
    // script's `$DIV`, the 2^31 floor, a non-power-of-two m, the
    // first range whose prime leaves a word for some k-mers (2^32)
    // and the k = 31 ceiling (2^62).
    for m in [
        16u64,
        1 << 10,
        1_048_583,
        1 << 31,
        (1 << 31) + 12345,
        1 << 32,
        1 << 62,
    ] {
        let f = UniversalHashFamily::new(4, m, m ^ 0xA5A5);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            for i in 0..f.len() {
                assert_eq!(
                    f.hash(i, x),
                    reference::hash(&f, i, x),
                    "m = {m}, i = {i}, x = {x}"
                );
            }
        }
        // Both sides of the word-sized reduction's bound, the largest
        // x for which `a·x + b` stays in a u64 (`word_max`, pinned by
        // the unit test `word_max_is_the_largest_x_kept_in_a_word`).
        let edge = (u64::MAX - (f.p - 1)) / (f.p - 1);
        for x in [0, 1, m - 1, m, m + 1, edge - 1, edge, edge + 1, u64::MAX] {
            for i in 0..f.len() {
                assert_eq!(
                    f.hash(i, x),
                    reference::hash(&f, i, x),
                    "m = {m}, i = {i}, x = {x}"
                );
            }
        }
    }
}

#[test]
fn oversized_prime_falls_back_to_division() {
    // p > 2^63 disables the Barrett constant; the fallback path
    // must still match the oracle exactly.
    let f = UniversalHashFamily::new(2, 1u64 << 63, 7);
    assert!(f.p > 1u64 << 63);
    for x in [0u64, 1, 12_345, (1 << 63) - 1, u64::MAX] {
        for i in 0..f.len() {
            assert_eq!(f.hash(i, x), reference::hash(&f, i, x));
        }
    }
}

#[test]
fn blocked_sketch_bit_identical_to_reference() {
    // Sketch lengths around the block size: partial final block,
    // exact multiple, single block, and sub-block.
    for n in [1usize, 7, 8, 9, 64, 100] {
        let h = MinHasher::for_kmer_size(5, n, 33);
        let kmers: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E37) % 1024).collect();
        let fast = h.sketch_kmers(kmers.iter().copied());
        let slow = reference::sketch_kmers(&h, kmers.iter().copied());
        assert_eq!(fast, slow, "n = {n}");
        assert_eq!(fast.values(), slow.values(), "n = {n}");
    }
}

#[test]
fn duplicated_stream_bit_identical_to_reference() {
    // Heavy repetition (each k-mer ~25×, unsorted order): the
    // dedup'd blocked kernel must still match the per-occurrence
    // reference loop exactly.
    let h = MinHasher::for_kmer_size(5, 40, 17);
    let kmers: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E37) % 20).collect();
    let fast = h.sketch_kmers(kmers.iter().copied());
    let slow = reference::sketch_kmers(&h, kmers.iter().copied());
    assert_eq!(fast.values(), slow.values());
    let unique = h.sketch_kmers((0..20u64).map(|i| i.wrapping_mul(0x9E37) % 20));
    assert_eq!(fast.values(), unique.values());
}

#[test]
fn positional_matches_reference_implementation() {
    let h = MinHasher::for_kmer_size(5, 64, 13);
    let pairs = [
        (
            &b"ACGTACGTAAGGTTCCAGTCAGTC"[..],
            &b"ACGTACCTAAGGATCCAGTCTGTC"[..],
        ),
        (&b"ACGTACGTAAGGTTCC"[..], &b"ACG"[..]), // mixed degenerate
        (&b"AC"[..], &b"GT"[..]),                // both degenerate
    ];
    for (sa, sb) in pairs {
        let a = h.sketch_sequence(sa).unwrap();
        let b = h.sketch_sequence(sb).unwrap();
        assert_eq!(
            positional_similarity(&a, &b),
            reference::positional_similarity(&a, &b)
        );
        assert_eq!(
            (agreements(&a, &b) as f64 / a.len() as f64).to_bits(),
            positional_similarity(&a, &b).to_bits()
        );
    }
}

/// `q`'s neighbours and itself, for a finite `q ≥ 0`: `f64::next_down`
/// and `f64::next_up`, which are newer than this workspace's MSRV.
fn with_neighbours(q: f64) -> [f64; 3] {
    let down = if q == 0.0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(q.to_bits() - 1)
    };
    [down, q, f64::from_bits(q.to_bits() + 1)]
}

/// `min_agreeing` is the estimator's cut as a count: for every width
/// `n` in 1..=300 and the widest sketch, at θ on each grid point `a/n`
/// and one ulp either side, the threshold `t` clears θ under the `f64`
/// division and `t − 1` does not. `a/n` is monotone in `a`, so then
/// `a ≥ t ⟺ a/n ≥ θ` for every count, and testing θ on the count
/// moves no label.
#[test]
fn min_agreeing_is_the_estimators_cut() {
    for n in (1..=300).chain([65_535]) {
        for a in 0..=n {
            for theta in with_neighbours(a as f64 / n as f64) {
                let t = min_agreeing(n, theta);
                assert!(t <= n + 1, "n = {n}, θ = {theta}: t = {t}");
                for count in [t.wrapping_sub(1), t].into_iter().filter(|&c| c <= n) {
                    assert_eq!(
                        count >= t,
                        count as f64 / n as f64 >= theta,
                        "n = {n}, θ = {theta}, t = {t}, count {count}"
                    );
                }
            }
        }
    }
    // θ·n rounds up past the integer, so `⌈θ·n⌉` is one too high.
    for (n, theta, t) in [(50, 0.56, 28), (100, 0.55, 55)] {
        assert!(theta * n as f64 > t as f64);
        assert_eq!(min_agreeing(n, theta), t);
    }
    // No count clears θ above 1 or NaN; every count clears θ ≤ 0.
    for theta in [1.5, f64::INFINITY, f64::NAN] {
        assert_eq!(min_agreeing(64, theta), 65);
    }
    for theta in [0.0, -0.5, f64::NEG_INFINITY] {
        assert_eq!(min_agreeing(64, theta), 0);
    }
}
