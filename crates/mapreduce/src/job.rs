//! The Mapper / Reducer / Combiner programming model.
//!
//! Typed, in-process analogue of Hadoop's API: a [`Mapper`] turns one
//! input record into intermediate `(K, V)` pairs via a [`TaskContext`];
//! the engine shuffles pairs by key; a [`Reducer`] folds each key's
//! value group into output records. An optional [`Combiner`] runs on
//! each map task's local output before the shuffle, cutting shuffle
//! volume exactly like Hadoop's combiner.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use mrmc_chaos::{FaultInjector, NoFaults};

use crate::pipeline::StageReport;

/// Requirements on intermediate keys: hashed for partitioning, ordered
/// for the sort-based group-by, cloned into combiner runs.
pub trait MrKey: Clone + Ord + Hash + Send + Sync {}
impl<T: Clone + Ord + Hash + Send + Sync> MrKey for T {}

/// Requirements on intermediate values.
pub trait MrValue: Clone + Send + Sync {}
impl<T: Clone + Send + Sync> MrValue for T {}

/// A map function: `(in_key, in_value) → (out_key, out_value)*`.
pub trait Mapper: Send + Sync {
    /// Input key (e.g. record offset or sequence id).
    type InKey: Send;
    /// Input value (e.g. a FASTA record).
    type InValue: Send;
    /// Intermediate key.
    type OutKey: MrKey;
    /// Intermediate value.
    type OutValue: MrValue;

    /// Process one record, emitting through the context.
    fn map(
        &self,
        key: Self::InKey,
        value: Self::InValue,
        ctx: &mut TaskContext<Self::OutKey, Self::OutValue>,
    );

    /// Wire size in bytes of one intermediate *key*. Keys cross the
    /// shuffle once per post-combine group (the sort-merge runs store
    /// each distinct key once, followed by its value block), so the
    /// engine charges this exactly once per group:
    /// `key + varint(value_count) + Σ values`. The default is the
    /// shallow in-memory width — exact for plain-old-data keys; jobs
    /// shuffling heap-backed or encoded keys override it, usually by
    /// delegating to [`ShuffleSized`].
    fn key_wire_size(&self, _key: &Self::OutKey) -> usize {
        std::mem::size_of::<Self::OutKey>()
    }

    /// Wire size in bytes of one intermediate *value*, charged once
    /// per value surviving the combiner. Same default/override rules
    /// as [`Mapper::key_wire_size`].
    fn value_wire_size(&self, _value: &Self::OutValue) -> usize {
        std::mem::size_of::<Self::OutValue>()
    }

    /// Assign an intermediate key to a reduce partition in
    /// `0..reducers`. Defaults to the Hadoop-style hash partitioner
    /// ([`partition_of`]); jobs with structure in their key space
    /// override it to colocate related keys (e.g. range-partitioning
    /// candidate pairs by read id so each read's similarity
    /// neighborhood lands on one reducer). Must be a pure function of
    /// `(key, reducers)` — retried and speculative attempts recompute
    /// it and must agree.
    fn partition(&self, key: &Self::OutKey, reducers: usize) -> usize {
        partition_of(key, reducers)
    }
}

/// Serialized payload size of a key or value crossing the simulated
/// shuffle wire: fixed-width scalars count their width; length-carrying
/// types count a 4-byte length prefix plus their elements (the framing
/// Hadoop's `Writable`s use); compact-encoded payloads (see
/// [`crate::wire`]) count their exact encoded bytes. Implementations
/// exist for the types jobs in this workspace actually shuffle;
/// [`Mapper::key_wire_size`]/[`Mapper::value_wire_size`] overrides
/// delegate to it.
pub trait ShuffleSized {
    /// Estimated serialized size in bytes.
    fn shuffle_size(&self) -> usize;
}

macro_rules! impl_shuffle_sized_pod {
    ($($t:ty),*) => {$(
        impl ShuffleSized for $t {
            fn shuffle_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_shuffle_sized_pod!(
    u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, usize, isize, f32, f64, bool, char
);

impl ShuffleSized for () {
    fn shuffle_size(&self) -> usize {
        0
    }
}

impl ShuffleSized for String {
    fn shuffle_size(&self) -> usize {
        4 + self.len()
    }
}

impl<T: ShuffleSized> ShuffleSized for Vec<T> {
    fn shuffle_size(&self) -> usize {
        4 + self.iter().map(ShuffleSized::shuffle_size).sum::<usize>()
    }
}

impl<T: ShuffleSized> ShuffleSized for Option<T> {
    fn shuffle_size(&self) -> usize {
        1 + self.as_ref().map_or(0, ShuffleSized::shuffle_size)
    }
}

impl<A: ShuffleSized> ShuffleSized for (A,) {
    fn shuffle_size(&self) -> usize {
        self.0.shuffle_size()
    }
}

impl<A: ShuffleSized, B: ShuffleSized> ShuffleSized for (A, B) {
    fn shuffle_size(&self) -> usize {
        self.0.shuffle_size() + self.1.shuffle_size()
    }
}

impl<A: ShuffleSized, B: ShuffleSized, C: ShuffleSized> ShuffleSized for (A, B, C) {
    fn shuffle_size(&self) -> usize {
        self.0.shuffle_size() + self.1.shuffle_size() + self.2.shuffle_size()
    }
}

/// A reduce function: `(key, values) → (out_key, out_value)*`.
pub trait Reducer: Send + Sync {
    /// Intermediate key (matches the mapper's `OutKey`).
    type InKey: MrKey;
    /// Intermediate value (matches the mapper's `OutValue`).
    type InValue: MrValue;
    /// Output key.
    type OutKey: Send;
    /// Output value.
    type OutValue: Send;

    /// Fold one key group, emitting through the context.
    fn reduce(
        &self,
        key: Self::InKey,
        values: Vec<Self::InValue>,
        ctx: &mut TaskContext<Self::OutKey, Self::OutValue>,
    );
}

/// A combiner pre-aggregates one map task's local pairs for one key.
/// Must be semantically idempotent with the reducer's aggregation
/// (same contract as Hadoop).
pub trait Combiner: Send + Sync {
    /// Key type (the mapper's `OutKey`).
    type Key: MrKey;
    /// Value type (the mapper's `OutValue`).
    type Value: MrValue;

    /// Collapse a local value group into (usually fewer) values.
    fn combine(&self, key: &Self::Key, values: Vec<Self::Value>) -> Vec<Self::Value>;
}

/// Named counters (Hadoop-style), ordered by name. Plain data: each
/// task attempt owns the set inside its [`TaskContext`] and the driver
/// merges the finished tasks' sets single-threaded after the phase, so
/// nothing is ever shared. Bumping an existing counter allocates
/// nothing; a name is copied once, the first time it is seen.
#[derive(Debug, Default)]
pub struct Counters {
    inner: BTreeMap<String, u64>,
}

impl Counters {
    /// New, empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Add `delta` to a named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.inner.get_mut(name) {
            Some(n) => *n += delta,
            None => {
                self.inner.insert(name.to_string(), delta);
            }
        }
    }

    /// Read a counter (0 when never written).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.get(name).copied().unwrap_or(0)
    }

    /// Snapshot all counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.inner.iter().map(|(k, &n)| (k.clone(), n)).collect()
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, &v) in &other.inner {
            self.add(k, v);
        }
    }
}

/// Per-task emit buffer + local counters, handed to map/reduce calls.
pub struct TaskContext<K, V> {
    emitted: Vec<(K, V)>,
    counters: Counters,
}

impl<K, V> TaskContext<K, V> {
    /// Fresh context.
    pub fn new() -> TaskContext<K, V> {
        TaskContext::with_buffer(Vec::new())
    }

    /// Fresh context reusing `buf` (cleared) as the emit buffer — the
    /// engine's spill pool hands back buffers from finished tasks so
    /// steady-state mapping stops reallocating them.
    pub fn with_buffer(mut buf: Vec<(K, V)>) -> TaskContext<K, V> {
        buf.clear();
        TaskContext {
            emitted: buf,
            counters: Counters::new(),
        }
    }

    /// Emit one pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// Bump a named counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Consume the context.
    pub fn into_parts(self) -> (Vec<(K, V)>, Counters) {
        (self.emitted, self.counters)
    }

    /// Number of pairs emitted so far.
    pub fn emitted_len(&self) -> usize {
        self.emitted.len()
    }
}

impl<K, V> Default for TaskContext<K, V> {
    fn default() -> Self {
        TaskContext::new()
    }
}

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Human-readable job name (appears in reports).
    pub name: String,
    /// Number of reduce tasks (partitions). Hadoop default heuristics
    /// don't apply here; callers set it per job.
    pub num_reducers: usize,
    /// Worker threads executing tasks. `None` = number of simulated
    /// node slots decided by the caller/engine.
    pub worker_threads: Option<usize>,
    /// Attempts per task before the job fails (Hadoop's
    /// `mapreduce.map.maxattempts`, default 4 there; 1 here so tests
    /// fail fast unless retries are requested).
    pub max_attempts: usize,
    /// Virtual nodes map tasks are pinned to (`task % virtual_nodes`)
    /// for the fault model: a node death at the map→reduce barrier
    /// loses its tasks' uncommitted output.
    pub virtual_nodes: usize,
    /// Optional structured trace sink. When set, the engine records
    /// task attempt lifecycle, shuffle runs, combiner activity and
    /// recovery actions into the shared ledger (our JobHistory
    /// analogue — see `mrmc_obs`).
    pub tracer: Option<Arc<mrmc_obs::Tracer>>,
    /// Optional fault source the engine consults at every hook point
    /// (task attempts, the map→reduce barrier, shuffle fetches).
    /// Absent ≡ [`NoFaults`].
    pub injector: Option<Arc<dyn FaultInjector>>,
}

impl JobConfig {
    /// A config with sensible defaults: 4 reducers, engine-chosen
    /// pool, no retries.
    pub fn named(name: impl Into<String>) -> JobConfig {
        JobConfig {
            name: name.into(),
            num_reducers: 4,
            worker_threads: None,
            max_attempts: 1,
            virtual_nodes: 8,
            tracer: None,
            injector: None,
        }
    }

    /// Builder-style reducer count.
    pub fn reducers(mut self, n: usize) -> JobConfig {
        self.num_reducers = n;
        self
    }

    /// Builder-style worker pool size.
    pub fn workers(mut self, n: usize) -> JobConfig {
        self.worker_threads = Some(n);
        self
    }

    /// Builder-style per-task attempt budget (≥ 1).
    pub fn attempts(mut self, n: usize) -> JobConfig {
        self.max_attempts = n.max(1);
        self
    }

    /// Builder-style virtual node count (≥ 1).
    pub fn nodes(mut self, n: usize) -> JobConfig {
        self.virtual_nodes = n.max(1);
        self
    }

    /// Builder-style trace sink.
    pub fn traced(mut self, tracer: Arc<mrmc_obs::Tracer>) -> JobConfig {
        self.tracer = Some(tracer);
        self
    }

    /// Builder-style fault injector.
    pub fn with_faults(mut self, injector: Arc<dyn FaultInjector>) -> JobConfig {
        self.injector = Some(injector);
        self
    }

    /// The injector jobs under this config consult.
    pub(crate) fn injector(&self) -> &dyn FaultInjector {
        self.injector.as_deref().unwrap_or(&NoFaults)
    }
}

/// Wall-clock statistics for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskStats {
    /// Task index within its phase.
    pub task: usize,
    /// Wall-clock duration of the task body.
    pub duration: Duration,
    /// Input records consumed.
    pub records_in: u64,
    /// Pairs/records emitted.
    pub records_out: u64,
}

/// The result of running a job: its output and the one record of how
/// it ran, which a [`crate::Pipeline`] keeps as the stage's report.
#[derive(Debug)]
pub struct JobResult<K, V> {
    /// All reducer outputs, concatenated (ordered by partition, then by
    /// key within the partition — the engine's sort guarantees this).
    pub output: Vec<(K, V)>,
    /// Task statistics, shuffle volume, the tasks' own counters and
    /// the recovery ledger.
    pub report: StageReport,
}

/// Default Hadoop-style partitioner: `hash(key) % reducers`.
pub fn partition_of<K: Hash>(key: &K, reducers: usize) -> usize {
    debug_assert!(reducers > 0);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_get_merge() {
        let mut c = Counters::new();
        c.add("x", 2);
        c.add("x", 3);
        assert_eq!(c.get("x"), 5);
        assert_eq!(c.get("missing"), 0);

        let mut d = Counters::new();
        d.add("x", 1);
        d.add("y", 7);
        c.merge(&d);
        assert_eq!(c.get("x"), 6);
        assert_eq!(c.get("y"), 7);
        assert_eq!(c.snapshot(), vec![("x".into(), 6), ("y".into(), 7)]);
    }

    #[test]
    fn context_collects_pairs_and_counts() {
        let mut ctx: TaskContext<String, u32> = TaskContext::new();
        ctx.emit("a".into(), 1);
        ctx.emit("b".into(), 2);
        ctx.count("records", 2);
        assert_eq!(ctx.emitted_len(), 2);
        let (pairs, counters) = ctx.into_parts();
        assert_eq!(pairs.len(), 2);
        assert_eq!(counters.get("records"), 2);
    }

    #[test]
    fn partitioner_stable_and_in_range() {
        for key in ["a", "b", "sequence_12345", ""] {
            let p = partition_of(&key, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(&key, 7));
        }
    }

    #[test]
    fn config_builders() {
        let c = JobConfig::named("j").reducers(9).workers(3);
        assert_eq!(c.name, "j");
        assert_eq!(c.num_reducers, 9);
        assert_eq!(c.worker_threads, Some(3));
        assert_eq!(c.virtual_nodes, 8);
        assert_eq!(c.nodes(0).virtual_nodes, 1, "node count floors at 1");
    }
}
