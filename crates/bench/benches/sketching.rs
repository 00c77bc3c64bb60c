//! Sketching throughput: the `CalculateMinwiseHash` kernel at the
//! paper's two operating points as the ledger's workloads run them
//! (k = 5/n = 100 on 1 000 bp shotgun reads — the rank-table kernel;
//! k = 15/n = 50 on 100 bp 16S reads — the rolling kernel), a
//! low-complexity read at k = 5 on the blocked side of the `d² ≥ 4^k`
//! rule, and a sweep over sketch sizes, plus the before/after
//! comparison against the naive `reference` oracle (per-(k-mer, i)
//! double-`%` loop) the optimized kernels replaced and, at k = 15,
//! against the same rolling step over the read's k-mer stream, as
//! Pig's `CalculateMinwiseHash` feeds it. A batch arm times Stage 1's input,
//! the distinct reads of a 16S draw, per read and through
//! `sketch_sequences`.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrmc::MrMcConfig;
use mrmc_minhash::{MinHasher, Sketch};
use mrmc_seqio::encode::{kmer_set, KmerIter};
use mrmc_simulate::{huse_16s, random_genome};
use mrmc_testkit::kernels as reference;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform random bases: no period, so a 1 000 bp read holds about
/// 640 of the 1 024 possible 5-mers, as the S12 reads do.
fn random_read(len: usize, seed: u64) -> Vec<u8> {
    random_genome(len, 0.5, &mut StdRng::seed_from_u64(seed))
}

struct Case {
    k: usize,
    n: usize,
    read: Vec<u8>,
    label: &'static str,
}

/// The three timed reads, each checked to sit where its label says.
fn cases() -> Vec<Case> {
    let shotgun = random_read(1000, 3);
    let distinct = kmer_set(&shotgun, 5).unwrap().len();
    assert!(
        distinct >= 500,
        "shotgun read has only {distinct} distinct 5-mers"
    );
    // A 15-base unit four times over: 60 bp, 15 distinct 5-mers. (A
    // random 60 bp read holds ~55, enough for the rank table.)
    let tandem = random_read(15, 4).repeat(4);
    let distinct = kmer_set(&tandem, 5).unwrap().len();
    assert!(
        distinct * distinct < 1 << 10,
        "tandem read has {distinct} distinct 5-mers: not sparse"
    );
    vec![
        Case {
            k: 5,
            n: 100,
            read: shotgun,
            label: "whole-metagenome(k5,n100,1000bp)",
        },
        Case {
            k: 15,
            n: 50,
            read: random_read(100, 5),
            label: "16S(k15,n50,100bp)",
        },
        Case {
            k: 5,
            n: 100,
            read: tandem,
            label: "low-complexity(k5,n100,60bp)",
        },
    ]
}

fn bench_sketching(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketching");
    for Case { k, n, read, label } in cases() {
        let hasher = MinHasher::for_kmer_size(k, n, 1);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("paper-setting", label), |b| {
            b.iter(|| hasher.sketch_sequence(std::hint::black_box(&read)).unwrap())
        });
    }
    // Sketch-size sweep at fixed k: only the per-slot probe grows with
    // n; k-mer extraction into the presence set does not.
    for n in [25usize, 50, 100, 200] {
        let hasher = MinHasher::for_kmer_size(5, n, 1);
        let read = random_read(1000, 6);
        group.bench_function(BenchmarkId::new("num-hashes", n), |b| {
            b.iter(|| hasher.sketch_sequence(std::hint::black_box(&read)).unwrap())
        });
    }
    group.finish();
}

/// Before/after: the optimized kernels (rank table, blocked family
/// walk over Barrett-reduced Eq. 5, or rolling residues) against the
/// naive oracle they replaced, and above the rank table's range
/// (k ≥ 8, where both entries roll) against `sketch_kmers` over the
/// same read's k-mer stream. All must be bit-identical —
/// asserted here on the benched inputs before timing — so the only
/// difference measured is speed.
fn bench_reference_vs_optimized(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketching-before-after");
    for Case { k, n, read, label } in cases() {
        let hasher = MinHasher::for_kmer_size(k, n, 1);

        let optimized = hasher.sketch_sequence(&read).unwrap();
        let naive = reference::sketch_kmers(&hasher, KmerIter::new(&read, k).unwrap());
        assert_eq!(optimized, naive, "kernels diverged at {label}");

        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("reference", label), |b| {
            b.iter(|| {
                let kmers = KmerIter::new(std::hint::black_box(&read[..]), k).unwrap();
                reference::sketch_kmers(&hasher, kmers)
            })
        });
        if k >= 8 {
            let stream = hasher.sketch_kmers(KmerIter::new(&read, k).unwrap());
            assert_eq!(optimized, stream, "k-mer stream diverged at {label}");
            group.bench_function(BenchmarkId::new("kmer-stream", label), |b| {
                b.iter(|| {
                    let kmers = KmerIter::new(std::hint::black_box(&read[..]), k).unwrap();
                    hasher.sketch_kmers(kmers)
                })
            });
        }
        group.bench_function(BenchmarkId::new("optimized", label), |b| {
            b.iter(|| hasher.sketch_sequence(std::hint::black_box(&read)).unwrap())
        });
    }
    group.finish();
}

/// Stage 1's batch: the distinct reads of the 2 000-read Huse draw at
/// the 16S setting, sketched one by one against one
/// `sketch_sequences` call, which rolls each prefix shared by
/// neighbours in byte order once. The two must agree sketch for sketch
/// — asserted before timing.
fn bench_batch(c: &mut Criterion) {
    let reads = huse_16s(0.03, 2_000.0 / 345_000.0, 42).reads;
    let mut seen = HashSet::new();
    let distinct: Vec<&[u8]> = reads
        .iter()
        .map(|r| r.seq.as_slice())
        .filter(|seq| seen.insert(*seq))
        .collect();
    let hasher = MrMcConfig::sixteen_s().hasher();
    let per_read: Vec<Sketch> = distinct
        .iter()
        .map(|seq| hasher.sketch_sequence(seq).unwrap())
        .collect();
    assert_eq!(hasher.sketch_sequences(&distinct).unwrap(), per_read);

    let mut group = c.benchmark_group("sketching-batch");
    group.throughput(Throughput::Elements(distinct.len() as u64));
    let label = format!("huse-2000-distinct({})", distinct.len());
    group.bench_function(BenchmarkId::new("per-read", &label), |b| {
        b.iter(|| {
            std::hint::black_box(&distinct)
                .iter()
                .map(|seq| hasher.sketch_sequence(seq).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.bench_function(BenchmarkId::new("sketch_sequences", &label), |b| {
        b.iter(|| {
            hasher
                .sketch_sequences(std::hint::black_box(&distinct))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sketching, bench_reference_vs_optimized, bench_batch
}
criterion_main!(benches);
