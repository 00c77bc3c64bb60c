//! Pairwise-similarity kernel throughput: the positional estimator
//! (Eq. 3) vs the set-based estimator (Algorithm 1 line 9) vs exact
//! Jaccard on the underlying k-mer sets, plus the positional
//! estimator's before/after against the naive `reference` oracle
//! (degeneracy rescan), and the all-pairs sweep through `&[Sketch]`
//! against the same sweep through the packed `SketchPlane`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrmc_minhash::{
    agreements, exact_jaccard, positional_similarity, set_similarity, MinHasher, SketchPlane,
};
use mrmc_seqio::encode::kmer_set;
use mrmc_testkit::kernels as reference;

fn synthetic_read(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| b"ACGT"[(i * 131 + salt * 7919 + i / 3) % 4])
        .collect()
}

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    let a = synthetic_read(1000, 1);
    let b = synthetic_read(1000, 2);

    for n in [50usize, 100, 200] {
        let hasher = MinHasher::for_kmer_size(5, n, 7);
        let sa = hasher.sketch_sequence(&a).unwrap();
        let sb = hasher.sketch_sequence(&b).unwrap();
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("positional", n), |bch| {
            bch.iter(|| positional_similarity(std::hint::black_box(&sa), std::hint::black_box(&sb)))
        });
        group.bench_function(BenchmarkId::new("set-based", n), |bch| {
            bch.iter(|| set_similarity(std::hint::black_box(&sa), std::hint::black_box(&sb)))
        });
    }

    // The quantity both approximate: exact Jaccard on full k-mer sets
    // (what MrMC-MinH avoids computing per pair).
    let ka = kmer_set(&a, 5).unwrap();
    let kb = kmer_set(&b, 5).unwrap();
    group.bench_function("exact-jaccard-k5-1000bp", |bch| {
        bch.iter(|| exact_jaccard(std::hint::black_box(&ka), std::hint::black_box(&kb)))
    });
    group.finish();
}

/// Before/after: the positional estimator (cached degeneracy counts)
/// against the naive oracle. Results are asserted bit-identical on the
/// benched pair before timing.
fn bench_reference_vs_optimized(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity-before-after");
    let a = synthetic_read(1000, 1);
    let b = synthetic_read(1000, 2);
    let n = 100usize; // the paper's whole-metagenome sketch size
    let hasher = MinHasher::for_kmer_size(5, n, 7);
    let sa = hasher.sketch_sequence(&a).unwrap();
    let sb = hasher.sketch_sequence(&b).unwrap();

    assert_eq!(
        positional_similarity(&sa, &sb).to_bits(),
        reference::positional_similarity(&sa, &sb).to_bits(),
        "positional estimators diverged"
    );

    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("positional-reference", n), |bch| {
        bch.iter(|| {
            reference::positional_similarity(std::hint::black_box(&sa), std::hint::black_box(&sb))
        })
    });
    group.bench_function(BenchmarkId::new("positional-optimized", n), |bch| {
        bch.iter(|| positional_similarity(std::hint::black_box(&sa), std::hint::black_box(&sb)))
    });
    group.finish();
}

/// Before/after for the all-pairs stage's inner loop: every pair of
/// 512 sketches (130 816 pairs) through `positional_similarity` on the
/// sketch list, and through the packed plane's row kernel, as Stage 2
/// runs it (packing included). The plane's counts are asserted equal
/// to `agreements` on the benched set before timing.
fn bench_all_pairs(c: &mut Criterion) {
    const N: usize = 512;
    let mut group = c.benchmark_group("similarity-all-pairs");
    let hasher = MinHasher::for_kmer_size(5, 100, 7);
    let sketches: Vec<_> = (0..N)
        .map(|i| hasher.sketch_sequence(&synthetic_read(1000, i)).unwrap())
        .collect();
    let plane = SketchPlane::pack(&sketches).unwrap();
    assert_eq!(
        plane.lane_bytes(),
        1,
        "fewer than 256 k = 5 minima per position"
    );
    for i in 0..N {
        for j in (i + 1)..N {
            assert_eq!(
                plane.count(i, j),
                agreements(&sketches[i], &sketches[j]),
                "plane diverged at ({i}, {j})"
            );
        }
    }

    group.throughput(Throughput::Elements((N * (N - 1) / 2) as u64));
    group.bench_function(BenchmarkId::new("positional", N), |bch| {
        bch.iter(|| {
            let sketches = std::hint::black_box(&sketches);
            let mut sum = 0f32;
            for i in 0..N {
                for j in (i + 1)..N {
                    sum += positional_similarity(&sketches[i], &sketches[j]) as f32;
                }
            }
            sum
        })
    });
    group.bench_function(BenchmarkId::new("plane", N), |bch| {
        bch.iter(|| {
            let plane = SketchPlane::pack(std::hint::black_box(&sketches)).unwrap();
            let mut strip: Vec<u8> = Vec::with_capacity(N);
            let mut sum = 0u64;
            for i in 0..N {
                strip.clear();
                plane.extend_counts(i, i + 1..N, &mut strip, |c| c as u8);
                sum += strip.iter().map(|&c| u64::from(c)).sum::<u64>();
            }
            sum
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_similarity, bench_reference_vs_optimized, bench_all_pairs
}
criterion_main!(benches);
