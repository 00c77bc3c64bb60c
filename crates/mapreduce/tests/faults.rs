//! Where a job's fault injector comes from.
//!
//! * **Attachment rule** — an injector rides on the [`Pipeline`], the
//!   one place a job's context lives; absent ≡ [`NoFaults`]; a
//!   pipeline's injector reaches every stage in job-ordinal order.
//! * **No survivors** — a plan that kills every virtual node at the
//!   map→reduce barrier fails the job with a typed error, after
//!   recording each death on the trace.

use std::sync::Arc;

use mrmc_chaos::{FaultInjector, FaultPlan, NoFaults, Phase};
use mrmc_mapreduce::job::{Combiner, JobConfig, Mapper, Reducer, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::{MrError, Tracer};

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
    }
}

struct Passthrough;
impl Mapper for Passthrough {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, k: String, v: u64, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, v);
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

struct SumCombiner;
impl Combiner for SumCombiner {
    type Key = String;
    type Value = u64;
    fn combine(&self, _k: &String, vs: Vec<u64>) -> Vec<u64> {
        vec![vs.iter().sum()]
    }
}

fn input() -> Vec<(usize, String)> {
    (0..24)
        .map(|i| (i, format!("alpha{} beta{} gamma", i % 3, i % 7)))
        .collect()
}

type Injector = Arc<dyn FaultInjector>;

/// One row of the attachment table: the injector attached to the
/// pipeline of a two-stage chain (`run_map_stage` →
/// `run_stage_with_combiner`) and how many task retries each stage must
/// then report.
struct Case {
    name: &'static str,
    on_pipeline: Option<Injector>,
    retried: [u64; 2],
}

#[test]
fn injector_attachment_rule() {
    let plan = |p: FaultPlan| -> Option<Injector> { Some(Arc::new(p.injector())) };
    let map_then_reduce_panics =
        FaultPlan::new()
            .task_panic(0, Phase::Map, 0, 1)
            .task_panic(1, Phase::Reduce, 0, 2);
    let cases = [
        Case {
            name: "no injector",
            on_pipeline: None,
            retried: [0, 0],
        },
        Case {
            name: "NoFaults on the Pipeline",
            on_pipeline: Some(Arc::new(NoFaults)),
            retried: [0, 0],
        },
        // One injector sees both stages, so its job ordinal advances:
        // the job-1 reduce panics can only fire in the second stage.
        Case {
            name: "plan on the Pipeline reaches every stage in order",
            on_pipeline: plan(map_then_reduce_panics),
            retried: [1, 2],
        },
    ];

    let mut baseline = None;
    for case in cases {
        let mut pipeline = Pipeline::new(case.name);
        if let Some(injector) = case.on_pipeline {
            pipeline = pipeline.with_faults(injector);
        }
        let stage = |name: &str| JobConfig::named(name).reducers(3).attempts(4);
        let pairs = pipeline
            .run_map_stage(input(), 4, &Tokenize, &stage("tokenize"))
            .unwrap();
        let output = pipeline
            .run_stage_with_combiner(pairs, 4, &Passthrough, &SumCombiner, &Sum, &stage("sum"))
            .unwrap();

        let retried: Vec<u64> = pipeline
            .stages()
            .iter()
            .map(|s| s.recovery.tasks_retried)
            .collect();
        assert_eq!(retried, case.retried, "{}", case.name);

        let snapshots: Vec<_> = pipeline
            .stages()
            .iter()
            .map(|s| s.counters.clone())
            .collect();
        let (want_output, want_snapshots) =
            baseline.get_or_insert_with(|| (output.clone(), snapshots.clone()));
        assert_eq!(&output, want_output, "{}", case.name);
        if case.retried == [0, 0] {
            assert_eq!(&snapshots, want_snapshots, "{}", case.name);
            assert!(pipeline.total_recovery().is_clean(), "{}", case.name);
        }
    }
}

#[test]
fn killing_every_node_fails_the_job_and_leaves_the_deaths_on_the_trace() {
    const NODES: usize = 3;
    let plan = (0..NODES).fold(FaultPlan::new(), |p, node| p.node_death_after_map(0, node));
    let config = JobConfig::named("doomed").reducers(2).nodes(NODES);
    let pipeline = |tracer: &Arc<Tracer>| {
        Pipeline::new("doomed")
            .traced(tracer.clone())
            .with_faults(Arc::new(plan.clone().injector()))
    };
    let assert_no_survivors = |result: Result<(), MrError>, tracer: &Tracer, kind: &str| {
        match result {
            Err(MrError::BadConfig(msg)) => assert!(
                msg.starts_with(&format!("chaos: all {NODES} virtual nodes died")),
                "{kind}: {msg}"
            ),
            other => panic!("{kind}: expected BadConfig, got {other:?}"),
        }
        let deaths = tracer
            .ledger()
            .events
            .iter()
            .filter(|e| e.name == "node_death")
            .count();
        assert_eq!(deaths, NODES, "{kind}: one node_death event per node");
    };

    let tracer = Arc::new(Tracer::new());
    let full = pipeline(&tracer)
        .run_stage(input(), 4, &Tokenize, &Sum, &config)
        .map(drop);
    assert_no_survivors(full, &tracer, "run_stage");

    let tracer = Arc::new(Tracer::new());
    let map_only = pipeline(&tracer)
        .run_map_stage(input(), 4, &Tokenize, &config)
        .map(drop);
    assert_no_survivors(map_only, &tracer, "run_map_stage");
}
