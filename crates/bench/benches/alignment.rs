//! Alignment kernels (the cost MrMC-MinH avoids): full Needleman–
//! Wunsch vs banded, at 16S tag (60 bp) and shotgun (1000 bp) lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrmc_align::{banded_global, global_align};

fn synthetic_pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    let a: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
    let mut b = a.clone();
    // ~5% substitutions.
    for i in (0..len).step_by(20) {
        b[i] = b"ACGT"[(a[i] as usize + 1) % 4];
    }
    (a, b)
}

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("alignment");
    for len in [60usize, 1000] {
        let (a, b) = synthetic_pair(len);
        group.bench_function(BenchmarkId::new("nw-full", len), |bch| {
            bch.iter(|| global_align(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_function(BenchmarkId::new("banded-8", len), |bch| {
            bch.iter(|| banded_global(std::hint::black_box(&a), std::hint::black_box(&b), 8))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_alignment
}
criterion_main!(benches);
