//! Streaming assignment: one 16-read `push_batch` against a session
//! holding 1 000 / 5 000 live representatives — the lookup every
//! `serve_seed_stream` submit pays, tracked without the server around
//! it. Reads and config are that workload's (Huse 16S, k = 15, n = 50,
//! θ = 0.95), where about half the reads found a cluster.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrmc::{IncrementalClusterer, MrMcConfig};
use mrmc_simulate::huse_16s;

const BATCH: usize = 16;

fn bench_incremental_push(c: &mut Criterion) {
    let reads = huse_16s(0.03, 14_000.0 / 345_000.0, 7).reads;
    let mut session = IncrementalClusterer::new(MrMcConfig::sixteen_s().greedy());
    let mut used = 0;

    let mut group = c.benchmark_group("incremental-push");
    for live in [1_000usize, 5_000] {
        while session.num_clusters() < live {
            session.push(&reads[used]).expect("valid k");
            used += 1;
        }
        // Eight batches of unseen reads, cycled: the first pass founds a
        // few dozen clusters, every later pass joins them, so the
        // representative count stays within 13 % of `live` however many
        // iterations a sample takes.
        let probes = &reads[used..used + 8 * BATCH];
        group.bench_function(BenchmarkId::new("batch16", live), |b| {
            // Outside `iter`, so untimed: each sample starts from the
            // same `live`-representative session.
            let mut session = session.clone();
            let mut batches = probes.chunks(BATCH).cycle();
            b.iter(|| {
                let batch = batches.next().expect("cycle never ends");
                session.push_batch(batch).expect("valid k")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_incremental_push
}
criterion_main!(benches);
