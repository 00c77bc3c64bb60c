//! Allocation budget of the metrics plane (DESIGN.md §6, "Metrics
//! plane"): recording into a metric that exists allocates nothing, and
//! the engine's post-run export is deterministic and bounded per key.
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global (see `alloc_budget.rs`).

use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::alloc::count_allocs;
use mrmc_obs::MetricsRegistry;
use mrmc_simulate::huse_16s;

/// What the daemon records for one admitted submit: a request counter
/// and three histogram observations under the tenant's keys
/// (`crates/server/src/server.rs`; the admission tallies are the
/// session ledger's, published as gauges on `ServerStats`).
fn record_submit(m: &MetricsRegistry, i: u64) {
    m.counter_add("serve.requests.submit", 1);
    m.observe("serve.tenant.t.batch_reads", 16);
    m.observe("serve.tenant.t.queue_us", 40 + i % 13);
    m.observe("serve.tenant.t.latency_us", 900 + i % 97);
}

#[test]
fn metrics_plane_stays_inside_its_allocation_budget() {
    let registry = MetricsRegistry::new();
    registry.gauge_set("serve.queue_depth", 0);
    registry.gauge_set("serve.in_flight", 0);
    record_submit(&registry, 0);
    let ((), allocs) = count_allocs(|| {
        for i in 1..1_000 {
            record_submit(&registry, i);
            registry.gauge_set("serve.queue_depth", (i % 3) as i64);
            registry.gauge_set("serve.in_flight", (i % 2) as i64);
        }
    });
    // 8 991 allocations (one key `String` per call) before records
    // looked the key up first.
    assert_eq!(allocs, 0, "recording into existing keys");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.requests.submit"), Some(1_000));
    assert_eq!(snap.gauge("serve.in_flight"), Some(1));

    // The engine records nothing while a job runs; lighting the plane
    // up costs one export of the finished stages' reports.
    let reads = huse_16s(0.03, 1_000.0 / 345_000.0, 7).reads;
    let run = MrMcMinH::new(MrMcConfig::sixteen_s().hierarchical().banded())
        .run(&reads)
        .expect("banded run");
    let exported = MetricsRegistry::new();
    let ((), allocs) = count_allocs(|| run.pipeline.export_metrics(&exported));
    let snap = exported.snapshot();
    let again = MetricsRegistry::new();
    run.pipeline.export_metrics(&again);
    assert_eq!(
        snap.render_text(),
        again.snapshot().render_text(),
        "export is a pure function of the pipeline"
    );
    // 31 keys here when this gate was set. The export cost 402
    // allocations (13.0 per key) when every record allocated its key,
    // 85 (2.7 per key) since only a key's first record does: the key,
    // its map node and the `engine.counter.<NAME>` strings formatted
    // per stage. Since stage counters hold only what tasks count: 25
    // keys, 41 allocations (33 keys and 90 before).
    let keys = (snap.counters.len() + snap.histograms.len()) as u64;
    assert!(keys > 20, "{keys} exported keys");
    assert!(
        allocs <= 16 * keys,
        "{allocs} allocations exporting {keys} keys"
    );
}
