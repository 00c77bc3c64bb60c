//! Multi-job pipelines with accumulated reporting.
//!
//! Pig lowers one script to a *chain* of Map-Reduce jobs; a
//! [`Pipeline`] runs such a chain, keeping per-stage task statistics so
//! the whole pipeline can afterwards be re-scheduled on a simulated
//! cluster ([`ClusterSpec`]) for the Figure 2 scaling study. It is the
//! one way to run a job, and the one place a trace sink or a fault
//! injector is attached.

use std::sync::Arc;
use std::time::Duration;

use mrmc_chaos::{FaultInjector, NoFaults, RecoveryCounters};
use mrmc_obs::{MetricsRegistry, Tracer};

use crate::engine::{run_job, run_map_only, NoCombiner};
use crate::error::MrError;
use crate::job::{
    Combiner, JobConfig, JobResult, Mapper, MrKey, MrValue, Reducer, TaskContext, TaskStats,
};
use crate::simcluster::{ClusterSpec, JobCostModel, ShuffleVolume, SimJobReport};

/// Statistics for one executed stage, built by the engine as the job
/// finishes. Each fact has one field here: record counts live in the
/// task stats, shuffle volume in the three `shuffle*` fields, recovery
/// in `recovery`, and `counters` holds only what the tasks counted
/// themselves.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage (job) name.
    pub name: String,
    /// Map-task statistics.
    pub map_stats: Vec<TaskStats>,
    /// Reduce-task statistics (empty for map-only stages).
    pub reduce_stats: Vec<TaskStats>,
    /// Intermediate pairs crossing the shuffle (post-combine).
    pub shuffled_pairs: u64,
    /// Bytes the post-combine groups occupy on the wire, priced
    /// exactly once per group as
    /// `key_wire_size + varint(value_count) + Σ value_wire_size`
    /// (the sort-merge run framing: each distinct key appears once,
    /// followed by its length-prefixed value block). Jobs that
    /// override the [`Mapper`] size hooks get real payload bytes;
    /// the defaults charge shallow record widths.
    pub shuffled_bytes: u64,
    /// Sorted map-side runs moved through the shuffle barrier — one per
    /// non-empty (map task, reducer) cell. Each run is a fetch on a
    /// real cluster, so the count feeds the simulator's per-fetch
    /// overhead term ([`crate::simcluster::JobCostModel::shuffle_run_cost`]).
    pub shuffle_runs: u64,
    /// The tasks' named counters ([`TaskContext::count`]), summed over
    /// the winning attempts and sorted by name. This is where
    /// algorithm-level accounting (PAIRS_COMPUTED, CANDIDATES_EMITTED,
    /// …) survives past the job, so benchmark binaries can report it
    /// per stage.
    pub counters: Vec<(String, u64)>,
    /// Real wall-clock spent executing the stage in-process.
    pub wall: Duration,
    /// Recovery work the stage performed (all zero without faults).
    pub recovery: RecoveryCounters,
}

impl StageReport {
    /// Map task durations in seconds (for the simulator).
    pub fn map_costs(&self) -> Vec<f64> {
        self.map_stats
            .iter()
            .map(|s| s.duration.as_secs_f64())
            .collect()
    }

    /// Reduce task durations in seconds.
    pub fn reduce_costs(&self) -> Vec<f64> {
        self.reduce_stats
            .iter()
            .map(|s| s.duration.as_secs_f64())
            .collect()
    }

    /// Read a named counter from the stage snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// The stage's shuffle traffic on all three axes the simulator
    /// prices — the single source every consumer (simulation, report
    /// bins, traces) should read instead of picking fields ad hoc.
    pub fn shuffle_volume(&self) -> ShuffleVolume {
        ShuffleVolume {
            records: self.shuffled_pairs,
            bytes: self.shuffled_bytes,
            runs: self.shuffle_runs,
        }
    }
}

/// Output rows of a stage.
pub type StageOutput<K, V> = Vec<(K, V)>;

/// The identity group reducer behind [`Pipeline::run_group_stage`]:
/// emits each merged key group whole, moving the value block the
/// k-way merge assembled rather than folding it.
pub struct Gather<K, V> {
    _types: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V> Gather<K, V> {
    /// A fresh gatherer (stateless).
    pub fn new() -> Gather<K, V> {
        Gather {
            _types: std::marker::PhantomData,
        }
    }
}

impl<K, V> Default for Gather<K, V> {
    fn default() -> Gather<K, V> {
        Gather::new()
    }
}

impl<K: MrKey, V: MrValue> Reducer for Gather<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = Vec<V>;

    fn reduce(&self, key: K, values: Vec<V>, ctx: &mut TaskContext<K, Vec<V>>) {
        ctx.emit(key, values);
    }
}

/// A chain of jobs executed in sequence.
#[derive(Debug, Default)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    stages: Vec<StageReport>,
    tracer: Option<Arc<Tracer>>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl Pipeline {
    /// Fresh pipeline.
    pub fn new(name: impl Into<String>) -> Pipeline {
        Pipeline {
            name: name.into(),
            ..Pipeline::default()
        }
    }

    /// Attach a trace sink: every stage's job runs with it, so one
    /// ledger accumulates the whole chain in stage order.
    pub fn traced(mut self, tracer: Arc<Tracer>) -> Pipeline {
        self.tracer = Some(tracer);
        self
    }

    /// The attached trace sink, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Attach a fault injector: every stage's job consults it, in
    /// stage order, so a plan's job ordinals address the chain's
    /// stages.
    pub fn with_faults(mut self, injector: Arc<dyn FaultInjector>) -> Pipeline {
        self.injector = Some(injector);
        self
    }

    /// The injector every stage consults (absent ≡ [`NoFaults`]).
    pub(crate) fn injector(&self) -> &dyn FaultInjector {
        self.injector.as_deref().unwrap_or(&NoFaults)
    }

    /// Keep a finished job's report as the next stage and hand its
    /// output on.
    fn record<K, V>(&mut self, result: JobResult<K, V>) -> StageOutput<K, V> {
        self.stages.push(result.report);
        result.output
    }

    /// Run a full map/shuffle/reduce stage, recording its report, and
    /// return its output for the next stage.
    pub fn run_stage<M, R>(
        &mut self,
        input: Vec<(M::InKey, M::InValue)>,
        num_map_tasks: usize,
        mapper: &M,
        reducer: &R,
        config: &JobConfig,
    ) -> Result<StageOutput<R::OutKey, R::OutValue>, MrError>
    where
        M: Mapper,
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        let result = run_job(
            input,
            num_map_tasks,
            mapper,
            None::<&NoCombiner<M::OutKey, M::OutValue>>,
            reducer,
            config,
            self,
        )?;
        Ok(self.record(result))
    }

    /// Run a full stage with a combiner applied to each map task's
    /// local output before the shuffle (Hadoop's combine-on-spill).
    pub fn run_stage_with_combiner<M, C, R>(
        &mut self,
        input: Vec<(M::InKey, M::InValue)>,
        num_map_tasks: usize,
        mapper: &M,
        combiner: &C,
        reducer: &R,
        config: &JobConfig,
    ) -> Result<StageOutput<R::OutKey, R::OutValue>, MrError>
    where
        M: Mapper,
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
        C: Combiner<Key = M::OutKey, Value = M::OutValue>,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        let result = run_job(
            input,
            num_map_tasks,
            mapper,
            Some(combiner),
            reducer,
            config,
            self,
        )?;
        Ok(self.record(result))
    }

    /// Run a group-by stage: map, shuffle, and hand back each key's
    /// merged value block *as grouped by the sort-merge shuffle* —
    /// `(key, Vec<value>)` rows in partition-then-key order. The
    /// internal reducer just moves each merged group through
    /// ([`Gather`]), so no per-value work happens reduce-side; this is
    /// the zero-copy handoff the Pig columnar GROUP rides (it shuffles
    /// row indices and gathers columns afterwards).
    pub fn run_group_stage<M>(
        &mut self,
        input: Vec<(M::InKey, M::InValue)>,
        num_map_tasks: usize,
        mapper: &M,
        config: &JobConfig,
    ) -> Result<StageOutput<M::OutKey, Vec<M::OutValue>>, MrError>
    where
        M: Mapper,
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
    {
        self.run_stage(input, num_map_tasks, mapper, &Gather::new(), config)
    }

    /// Run a map-only stage (Pig `FOREACH` with no grouping).
    pub fn run_map_stage<M>(
        &mut self,
        input: Vec<(M::InKey, M::InValue)>,
        num_map_tasks: usize,
        mapper: &M,
        config: &JobConfig,
    ) -> Result<StageOutput<M::OutKey, M::OutValue>, MrError>
    where
        M: Mapper,
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
    {
        let result = run_map_only(input, num_map_tasks, mapper, config, self)?;
        Ok(self.record(result))
    }

    /// Reports for all executed stages, in order.
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// Sum of a named counter across every stage.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.stages.iter().map(|s| s.counter(name)).sum()
    }

    /// Shuffle traffic summed across every stage.
    pub fn total_shuffle(&self) -> ShuffleVolume {
        let mut total = ShuffleVolume::default();
        for s in &self.stages {
            total.records += s.shuffled_pairs;
            total.bytes += s.shuffled_bytes;
            total.runs += s.shuffle_runs;
        }
        total
    }

    /// Recovery work accumulated across every stage.
    pub fn total_recovery(&self) -> RecoveryCounters {
        let mut total = RecoveryCounters::new();
        for s in &self.stages {
            total.merge(&s.recovery);
        }
        total
    }

    /// Re-schedule every stage's measured task costs onto a virtual
    /// cluster, returning per-stage simulated reports. The pipeline's
    /// simulated total is the sum (jobs run sequentially, as Pig does).
    /// Given a `tracer`, also writes a simulated-time trace into it:
    /// one ledger job per stage, chained on the simulated clock (stage
    /// N starts where stage N−1 ended).
    pub fn simulate_on(
        &self,
        cluster: &ClusterSpec,
        model: &JobCostModel,
        tracer: Option<&Tracer>,
    ) -> Vec<SimJobReport> {
        let mut clock_s = 0.0f64;
        self.stages
            .iter()
            .map(|s| {
                let report = cluster.simulate_job(
                    model,
                    &s.map_costs(),
                    s.shuffle_volume(),
                    &s.reduce_costs(),
                    s.recovery,
                    tracer.map(|t| (t, s.name.as_str(), clock_s)),
                );
                // Advance the clock with the same association the span
                // emitter used, so the next stage's setup span starts
                // exactly (bit-for-bit) where this stage's last span
                // ended and the critical path can bridge the stages.
                let setup_end = clock_s + report.overhead;
                let shuffle_start = setup_end + report.map_time;
                let reduce_start = shuffle_start + report.shuffle_time;
                clock_s = reduce_start + report.reduce_time;
                report
            })
            .collect()
    }

    /// Simulated total seconds on a virtual cluster.
    pub fn simulated_total(&self, cluster: &ClusterSpec, model: &JobCostModel) -> f64 {
        self.simulate_on(cluster, model, None)
            .iter()
            .map(|r| r.total())
            .sum()
    }

    /// Export every stage's accounting into `metrics` under the
    /// `engine.*` key family (see DESIGN.md §6 for the glossary).
    ///
    /// This is the metrics plane's engine instrumentation: it runs
    /// once per pipeline, *after* execution, off every hot path — the
    /// per-record code keeps its existing task-local [`Counters`] and
    /// this method folds the already-aggregated [`StageReport`]s into
    /// the registry. Everything exported is derived from record
    /// counts, shuffle volumes and recovery actions, never from
    /// wall-clock, so a fixed seed (and fixed chaos plan) makes the
    /// resulting snapshot byte-identical across runs.
    ///
    /// [`Counters`]: crate::job::Counters
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        for stage in &self.stages {
            export_stage_metrics(metrics, stage);
        }
    }
}

/// Fold one [`StageReport`] into the registry (the per-stage half of
/// [`Pipeline::export_metrics`]). Each field has one key: the task
/// statistics feed the `engine.{map,reduce}.*` keys, the shuffle
/// fields `engine.shuffle.*`, the recovery ledger `engine.recovery.*`,
/// and the tasks' own counters (`PAIRS_COMPUTED`, …) surface unchanged
/// under `engine.counter.<NAME>`.
fn export_stage_metrics(metrics: &MetricsRegistry, stage: &StageReport) {
    metrics.counter_add("engine.stages", 1);
    metrics.counter_add("engine.map.tasks", stage.map_stats.len() as u64);
    metrics.counter_add("engine.reduce.tasks", stage.reduce_stats.len() as u64);
    metrics.counter_add("engine.shuffle.pairs", stage.shuffled_pairs);
    metrics.counter_add("engine.shuffle.bytes", stage.shuffled_bytes);
    metrics.counter_add("engine.shuffle.runs", stage.shuffle_runs);
    for (name, value) in &stage.counters {
        metrics.counter_add(&format!("engine.counter.{name}"), *value);
    }
    let r = &stage.recovery;
    for (key, value) in [
        ("engine.recovery.tasks_retried", r.tasks_retried),
        (
            "engine.recovery.maps_reexecuted_node_loss",
            r.maps_reexecuted_node_loss,
        ),
        (
            "engine.recovery.maps_reexecuted_fetch_fail",
            r.maps_reexecuted_fetch_fail,
        ),
        ("engine.recovery.speculative_wins", r.speculative_wins),
        (
            "engine.recovery.shuffle_fetch_retries",
            r.shuffle_fetch_retries,
        ),
        ("engine.recovery.blocks_rereplicated", r.blocks_rereplicated),
        (
            "engine.recovery.corrupt_replicas_detected",
            r.corrupt_replicas_detected,
        ),
    ] {
        metrics.counter_add(key, value);
    }
    for t in &stage.map_stats {
        metrics.observe("engine.map.records_in", t.records_in);
        metrics.observe("engine.map.records_out", t.records_out);
    }
    for t in &stage.reduce_stats {
        metrics.observe("engine.reduce.records_in", t.records_in);
        metrics.observe("engine.reduce.records_out", t.records_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskContext;

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
        fn key_wire_size(&self, key: &String) -> usize {
            use crate::job::ShuffleSized;
            key.shuffle_size()
        }
        fn value_wire_size(&self, value: &u64) -> usize {
            use crate::job::ShuffleSized;
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

    /// Second stage: histogram of counts.
    struct CountToKey;
    impl Mapper for CountToKey {
        type InKey = String;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn map(&self, _w: String, c: u64, ctx: &mut TaskContext<u64, u64>) {
            ctx.emit(c, 1);
        }
    }

    struct Sum2;
    impl Reducer for Sum2 {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut TaskContext<u64, u64>) {
            ctx.emit(k, vs.iter().sum());
        }
    }

    #[test]
    fn two_stage_pipeline_chains_output() {
        let mut p = Pipeline::new("wc-then-hist");
        let input = vec![(0usize, "a b a c".to_string()), (1, "b a".to_string())];
        let counts = p
            .run_stage(
                input,
                2,
                &Tokenize,
                &Sum,
                &JobConfig::named("wc").reducers(2),
            )
            .unwrap();
        // a:3, b:2, c:1
        let hist = p
            .run_stage(
                counts,
                2,
                &CountToKey,
                &Sum2,
                &JobConfig::named("hist").reducers(2),
            )
            .unwrap();
        let mut hist = hist;
        hist.sort();
        assert_eq!(hist, vec![(1, 1), (2, 1), (3, 1)]);
        assert_eq!(p.stages().len(), 2);
        assert!(p.stages().iter().map(|s| s.wall).sum::<Duration>() > Duration::ZERO);
        // Shuffle-byte accounting rides on the stage reports.
        let wc = &p.stages()[0];
        assert!(wc.shuffled_bytes > wc.shuffled_pairs, "bytes > records");
        assert!(wc.shuffle_runs > 0, "a shuffling stage fetches runs");
        assert_eq!(wc.counter("NOT_A_COUNTER"), 0);
        let total = p.total_shuffle();
        assert_eq!(
            total.records,
            wc.shuffled_pairs + p.stages()[1].shuffled_pairs
        );
        assert_eq!(total.runs, wc.shuffle_runs + p.stages()[1].shuffle_runs);
    }

    #[test]
    fn pipeline_simulation_sums_stages() {
        let mut p = Pipeline::new("sim");
        let input = vec![(0usize, "x y z".to_string())];
        p.run_stage(
            input,
            1,
            &Tokenize,
            &Sum,
            &JobConfig::named("wc").reducers(1),
        )
        .unwrap();
        let cluster = ClusterSpec::m1_large(4);
        let model = JobCostModel::default();
        let reports = p.simulate_on(&cluster, &model, None);
        assert_eq!(reports.len(), 1);
        let total = p.simulated_total(&cluster, &model);
        assert!((total - reports[0].total()).abs() < 1e-12);
        assert!(total >= model.job_overhead);
    }

    #[test]
    fn group_stage_hands_back_merged_value_blocks() {
        let mut p = Pipeline::new("grp");
        let input = vec![(0usize, "a b a c".to_string()), (1, "b a".to_string())];
        let groups = p
            .run_group_stage(input, 2, &Tokenize, &JobConfig::named("grp").reducers(2))
            .unwrap();
        let mut sorted: Vec<(String, Vec<u64>)> = groups;
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                ("a".to_string(), vec![1, 1, 1]),
                ("b".to_string(), vec![1, 1]),
                ("c".to_string(), vec![1]),
            ]
        );
        // The stage shuffles like any grouping job: the handoff is on
        // the reduce side only.
        assert_eq!(p.stages()[0].shuffled_pairs, 6);
        assert!(p.stages()[0].shuffled_bytes > 0);
    }

    #[test]
    fn map_only_stage_recorded() {
        let mut p = Pipeline::new("m");
        struct Echo;
        impl Mapper for Echo {
            type InKey = usize;
            type InValue = u64;
            type OutKey = usize;
            type OutValue = u64;
            fn map(&self, k: usize, v: u64, ctx: &mut TaskContext<usize, u64>) {
                ctx.emit(k, v * 2);
            }
        }
        let out = p
            .run_map_stage(
                vec![(0usize, 1u64), (1, 2)],
                2,
                &Echo,
                &JobConfig::named("double"),
            )
            .unwrap();
        assert_eq!(out, vec![(0, 2), (1, 4)]);
        assert_eq!(p.stages()[0].shuffled_pairs, 0);
        assert!(p.total_recovery().is_clean());
    }

    #[test]
    fn injected_stage_recovers_and_accumulates_ledger() {
        use mrmc_chaos::{FaultPlan, Phase};

        let input = vec![(0usize, "a b a c".to_string()), (1, "b a".to_string())];
        let mut clean = Pipeline::new("clean");
        let mut expect = clean
            .run_stage(
                input.clone(),
                2,
                &Tokenize,
                &Sum,
                &JobConfig::named("wc").reducers(2),
            )
            .unwrap();
        expect.sort();

        let inj = FaultPlan::new()
            .task_panic(0, Phase::Map, 0, 1)
            .node_death_after_map(0, 1)
            .injector();
        let mut chaotic = Pipeline::new("chaotic").with_faults(Arc::new(inj));
        let mut got = chaotic
            .run_stage(
                input,
                2,
                &Tokenize,
                &Sum,
                &JobConfig::named("wc").reducers(2).attempts(4).nodes(2),
            )
            .unwrap();
        got.sort();
        assert_eq!(got, expect);
        let rec = chaotic.total_recovery();
        assert_eq!(rec.tasks_retried, 1);
        assert_eq!(rec.maps_reexecuted_node_loss, 1);
        // The recovery ledger rides into the simulated reports.
        let cluster = ClusterSpec::m1_large(4);
        let model = JobCostModel::default();
        let reports = chaotic.simulate_on(&cluster, &model, None);
        assert_eq!(reports[0].recovery, rec);
        assert!(clean.simulate_on(&cluster, &model, None)[0]
            .recovery
            .is_clean());
    }
}
