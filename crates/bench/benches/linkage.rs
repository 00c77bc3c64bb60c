//! Hierarchical-clustering kernels: the NN-chain per linkage policy, on
//! a dense matrix, on Stage 2's agreement counts and on a sparse
//! θ-graph, plus matrix construction (sequential vs row-parallel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrmc_cluster::{
    agglomerative, agglomerative_sparse, CondensedMatrix, CountStrips, Linkage, PairCounts,
    SparseSimGraph,
};

fn synthetic_matrix(n: usize) -> CondensedMatrix {
    CondensedMatrix::build(n, |i, j| {
        let x = ((i * 2654435761 + j * 40503) % 1000) as f64 / 1000.0;
        0.2 + 0.6 * x
    })
}

/// Agreement counts of `n` sketches of `width` in the `u8` lane, what
/// the dense route's `run_on` links.
fn synthetic_counts(n: usize, width: usize) -> PairCounts {
    let strips = (0..n)
        .map(|i| {
            ((i + 1)..n)
                .map(|j| ((i * 2654435761 + j * 40503) % (width + 1)) as u8)
                .collect()
        })
        .collect();
    PairCounts::new(width, CountStrips::Narrow(strips))
}

/// A θ-graph shaped like the banded route's: disjoint cliques of 50
/// (the amplicon workload's mean degree) with varied edge weights.
fn planted_cliques(n: usize) -> SparseSimGraph {
    const CLIQUE: usize = 50;
    let edges = (0..n).flat_map(|i| {
        let end = (i / CLIQUE + 1) * CLIQUE;
        ((i + 1)..end.min(n)).map(move |j| {
            let x = ((i * 2654435761 + j * 40503) % 1000) as f32 / 1000.0;
            (i as u32, j as u32, 0.9 + 0.1 * x)
        })
    });
    SparseSimGraph::from_edges(n, edges)
}

fn bench_linkage(c: &mut Criterion) {
    let mut group = c.benchmark_group("linkage");
    for n in [200usize, 500] {
        let m = synthetic_matrix(n);
        for linkage in [Linkage::Single, Linkage::Average, Linkage::Complete] {
            group.bench_function(BenchmarkId::new(format!("{linkage:?}"), n), |b| {
                b.iter(|| agglomerative(std::hint::black_box(&m), linkage, 0.6))
            });
        }
    }
    // The dense NN-chain at a size where the 8 MB distance buffer has
    // left L2 (the ledger's dense workload runs it at n = 4 000).
    let m = synthetic_matrix(2000);
    group.bench_function(BenchmarkId::new("Average", 2000), |b| {
        b.iter(|| agglomerative(std::hint::black_box(&m), Linkage::Average, 0.6))
    });
    // The input the dense route links: `u8` counts at the ledger's
    // size.
    let counts = synthetic_counts(4000, 100);
    group.bench_function(BenchmarkId::new("Average-u8-counts", 4000), |b| {
        b.iter(|| agglomerative(std::hint::black_box(&counts), Linkage::Average, 0.6))
    });
    group.finish();

    let mut group = c.benchmark_group("linkage-sparse");
    for n in [2000usize, 8000] {
        let g = planted_cliques(n);
        for linkage in [Linkage::Single, Linkage::Average] {
            group.bench_function(BenchmarkId::new(format!("{linkage:?}"), n), |b| {
                b.iter(|| agglomerative_sparse(std::hint::black_box(&g), linkage, 0.9))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("matrix-build");
    let sim = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 / 97.0;
    for n in [500usize, 1000] {
        group.bench_function(BenchmarkId::new("sequential", n), |b| {
            b.iter(|| CondensedMatrix::build(n, sim))
        });
        group.bench_function(BenchmarkId::new("row-parallel", n), |b| {
            b.iter(|| CondensedMatrix::build_parallel(n, sim))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_linkage
}
criterion_main!(benches);
