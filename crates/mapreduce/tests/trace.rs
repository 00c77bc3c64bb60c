//! The tracing contract, end to end.
//!
//! * **Passivity** — attaching a [`Tracer`] must not change a job's
//!   output, counters, or recovery ledger.
//! * **Determinism** — the span ledger's *signature* (everything but
//!   wall-clock timestamps) depends only on the input and the fault
//!   plan: identical across repeated runs and across worker-pool
//!   sizes, including under injected panics, stragglers, node deaths
//!   and fetch failures.
//! * **Simulated-time fidelity** — the trace written by
//!   [`ClusterSpec::simulate_job_traced`] tiles the schedule exactly:
//!   its critical path reproduces the untraced simulator's makespan
//!   and attributes ≥ 95 % of it (the ISSUE acceptance bar; the
//!   construction actually achieves ~100 %).
//! * **Counters** — merge/snapshot semantics and cross-stage totals;
//!   a stage's counters hold only what its tasks counted.

use std::sync::Arc;

use mrmc_chaos::{FaultPlan, Phase};
use mrmc_mapreduce::engine::run_job;
use mrmc_mapreduce::job::{Counters, JobConfig, Mapper, Reducer, ShuffleSized, TaskContext};
use mrmc_mapreduce::pipeline::{Pipeline, StageReport};
use mrmc_mapreduce::simcluster::{ClusterSpec, JobCostModel, ShuffleVolume};
use mrmc_mapreduce::{critical_path, RecoveryCounters, Tracer};

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: usize, v: String, ctx: &mut TaskContext<String, u64>) {
        for w in v.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
        ctx.count("WORDS_SEEN", v.split_whitespace().count() as u64);
    }
    fn key_wire_size(&self, key: &String) -> usize {
        key.shuffle_size()
    }
    fn value_wire_size(&self, value: &u64) -> usize {
        value.shuffle_size()
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

fn input() -> Vec<(usize, String)> {
    (0..48)
        .map(|i| (i, format!("alpha{} beta{} gamma gamma", i % 5, i % 11)))
        .collect()
}

fn chaotic_plan() -> FaultPlan {
    FaultPlan::new()
        .task_panic(0, Phase::Map, 1, 2)
        .task_panic(0, Phase::Reduce, 0, 1)
        .task_slowdown(0, Phase::Map, 3, 15)
        .node_death_after_map(0, 2)
        .shuffle_fetch_fail(0, 2, 1, 2)
}

/// Quietly swallow the engine's injected-panic payloads so test output
/// stays readable (the engine catches and retries them).
fn hush_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("chaos: injected panic"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

#[test]
fn tracing_is_passive() {
    let config = JobConfig::named("wc").reducers(4).nodes(6);
    let plain = run_job(input(), 6, &Tokenize, &Sum, &config).unwrap();
    let tracer = Arc::new(Tracer::new());
    let traced_cfg = config.traced(tracer.clone());
    let traced = run_job(input(), 6, &Tokenize, &Sum, &traced_cfg).unwrap();
    assert_eq!(plain.output, traced.output);
    assert_eq!(plain.report.counters, traced.report.counters);
    assert_eq!(plain.report.recovery, traced.report.recovery);

    let ledger = tracer.ledger();
    assert_eq!(ledger.jobs, vec!["wc".to_string()]);
    // 6 maps + 1 shuffle barrier + 4 reduces + job:setup.
    assert_eq!(ledger.spans.len(), 12);
    assert!(ledger.spans.iter().any(|s| s.name == "shuffle"));
    // The shuffle barrier depends on every map task's final span.
    let shuffle = ledger.spans.iter().find(|s| s.name == "shuffle").unwrap();
    assert_eq!(shuffle.deps.len(), 6);
}

#[test]
fn ledger_signature_stable_across_worker_counts_under_faults() {
    hush_injected_panics();
    let mut signatures = Vec::new();
    let mut outputs = Vec::new();
    for workers in [1, 2, 8] {
        let tracer = Arc::new(Tracer::new());
        let config = JobConfig::named("wc-chaos")
            .reducers(4)
            .nodes(6)
            .attempts(4)
            .workers(workers)
            .traced(tracer.clone())
            .with_faults(Arc::new(chaotic_plan().injector()));
        let run = run_job(input(), 6, &Tokenize, &Sum, &config).unwrap();
        let mut output = run.output;
        output.sort();
        outputs.push(output);
        signatures.push(tracer.ledger().signature());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    assert_eq!(
        signatures[0], signatures[1],
        "1-worker and 2-worker ledgers diverge"
    );
    assert_eq!(
        signatures[0], signatures[2],
        "1-worker and 8-worker ledgers diverge"
    );
    // The plan's effects are all on the ledger: retried attempts,
    // node-death re-execution, fetch retries.
    let sig = signatures[0].join("\n");
    assert!(sig.contains("pass=\"node_loss\"") || sig.contains("node_loss"));
    assert!(sig.contains("fetch_retry"));
    assert!(sig.contains("panic"));
}

/// Two runs of the *same seeded chaos plan* must export byte-identical
/// metrics snapshots: the `engine.*` keys are derived from record
/// counts, shuffle volumes and recovery counters — never wall-clock —
/// so a fixed plan pins every counter and histogram bucket.
#[test]
fn seeded_chaos_plan_pins_the_metrics_snapshot() {
    hush_injected_panics();
    let snapshot_text = |seed: u64| {
        let plan = FaultPlan::random(seed, &mrmc_chaos::ChaosProfile::default());
        let mut pipeline = Pipeline::new("chaos-metrics").with_faults(Arc::new(plan.injector()));
        pipeline
            .run_stage(
                input(),
                5,
                &Tokenize,
                &Sum,
                &JobConfig::named("wc-metrics")
                    .reducers(3)
                    .nodes(6)
                    .attempts(4),
            )
            .unwrap();
        let metrics = mrmc_obs::MetricsRegistry::new();
        pipeline.export_metrics(&metrics);
        metrics.snapshot().render_text()
    };
    let first = snapshot_text(7);
    assert_eq!(first, snapshot_text(7), "seeded plan must pin the snapshot");
    assert!(first.contains("engine.recovery."));
    assert!(first.contains("histogram engine.map.records_in"));
    // A different seed is allowed to differ — and with this profile the
    // fault mix does, via the recovery counters.
    assert_ne!(first, snapshot_text(8), "distinct seeds diverge");
}

#[test]
fn repeated_chaotic_runs_yield_identical_ledgers() {
    hush_injected_panics();
    let run = || {
        let tracer = Arc::new(Tracer::new());
        let config = JobConfig::named("wc-replay")
            .reducers(3)
            .nodes(6)
            .attempts(4)
            .traced(tracer.clone())
            .with_faults(Arc::new(chaotic_plan().injector()));
        run_job(input(), 5, &Tokenize, &Sum, &config).unwrap();
        tracer.ledger().signature()
    };
    assert_eq!(run(), run());
}

#[test]
fn critical_path_matches_simulated_makespan_on_synthetic_schedules() {
    let model = JobCostModel::default();
    let volume = ShuffleVolume {
        records: 10_000,
        bytes: 400_000,
        runs: 24,
    };
    // Uneven map costs (one dominant task), short reduces; a recovery
    // ledger that charges extra executions to the schedule.
    let map_costs: Vec<f64> = (0..17).map(|i| 0.5 + 0.37 * (i % 5) as f64).collect();
    let reduce_costs = vec![1.25, 0.8, 2.0, 0.4];
    let mut recovery = RecoveryCounters::new();
    recovery.tasks_retried = 2;
    recovery.speculative_wins = 1;

    for nodes in [2, 4, 6, 12] {
        let cluster = ClusterSpec::m1_large(nodes);
        let untraced = cluster.simulate_job(&model, &map_costs, volume, &reduce_costs, recovery);
        let tracer = Tracer::new();
        let traced = cluster.simulate_job_traced(
            &model,
            &map_costs,
            volume,
            &reduce_costs,
            recovery,
            &tracer,
            "synthetic",
            0.0,
        );
        assert_eq!(untraced, traced, "{nodes} nodes: reports diverge");

        let ledger = tracer.ledger();
        let cp = critical_path(&ledger);
        let makespan_s = cp.makespan_ns as f64 / 1e9;
        let expected = untraced.total();
        assert!(
            (makespan_s - expected).abs() < 1e-6,
            "{nodes} nodes: trace makespan {makespan_s} vs simulated total {expected}"
        );
        assert!(
            cp.coverage() >= 0.95,
            "{nodes} nodes: coverage {}",
            cp.coverage()
        );
        // Recovery executions appear on the simulated trace too.
        assert!(ledger
            .spans
            .iter()
            .any(|s| s.category == mrmc_mapreduce::obs::trace::Category::Recovery));
    }
}

#[test]
fn counters_merge_accumulates_and_snapshot_sorts() {
    let mut a = Counters::new();
    a.add("B_SECOND", 2);
    a.add("A_FIRST", 1);
    let mut b = Counters::new();
    b.add("B_SECOND", 40);
    b.add("C_THIRD", 7);
    a.merge(&b);
    assert_eq!(a.get("A_FIRST"), 1);
    assert_eq!(a.get("B_SECOND"), 42);
    assert_eq!(a.get("C_THIRD"), 7);
    assert_eq!(a.get("NEVER_WRITTEN"), 0);
    let snap = a.snapshot();
    assert_eq!(
        snap,
        vec![
            ("A_FIRST".to_string(), 1),
            ("B_SECOND".to_string(), 42),
            ("C_THIRD".to_string(), 7),
        ]
    );
    // Merging is additive, not idempotent.
    a.merge(&b);
    assert_eq!(a.get("B_SECOND"), 82);
}

/// A map-only identity stage for the cross-stage counter test.
struct Passthrough;
impl Mapper for Passthrough {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, k: String, v: u64, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, v);
    }
    fn key_wire_size(&self, key: &String) -> usize {
        key.shuffle_size()
    }
    fn value_wire_size(&self, value: &u64) -> usize {
        value.shuffle_size()
    }
}

#[test]
fn counter_total_spans_stages() {
    let mut pipeline = Pipeline::new("totals");
    let stage1 = pipeline
        .run_stage(
            input(),
            4,
            &Tokenize,
            &Sum,
            &JobConfig::named("count").reducers(3),
        )
        .unwrap();
    let words: u64 = stage1.iter().map(|(_, n)| n).sum();
    pipeline
        .run_map_stage(stage1, 3, &Passthrough, &JobConfig::named("pass"))
        .unwrap();

    // WORDS_SEEN is only written by stage 1; the totals must still see
    // it through the per-stage snapshots.
    assert_eq!(pipeline.counter_total("WORDS_SEEN"), words);
    // Each stage's counters are its tasks' own: the passthrough counts
    // nothing, and record and shuffle accounting live in fields.
    let [count, pass] = pipeline.stages() else {
        panic!("two stages")
    };
    assert_eq!(count.counters, vec![("WORDS_SEEN".to_string(), words)]);
    assert!(pass.counters.is_empty());
    let records_in = |s: &StageReport| -> u64 { s.map_stats.iter().map(|t| t.records_in).sum() };
    let reduced: u64 = count.reduce_stats.iter().map(|t| t.records_out).sum();
    assert_eq!(records_in(count), 48);
    assert_eq!(records_in(pass), reduced);
    assert_eq!(pass.shuffle_volume(), ShuffleVolume::default());
}
