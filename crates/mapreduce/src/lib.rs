//! A from-scratch, in-process Map-Reduce runtime modelling the Hadoop
//! stack MrMC-MinH runs on.
//!
//! The paper deploys on Amazon Elastic MapReduce: FASTA files on HDFS,
//! Pig-compiled Map-Reduce jobs, 2–12 M1-Large nodes. We reproduce that
//! stack in one process:
//!
//! * [`dfs`] — an in-memory distributed filesystem: files split into
//!   fixed-size blocks, blocks placed on simulated nodes with a
//!   replication factor, record-boundary-aware input splits (the HDFS +
//!   `InputFormat` contract);
//! * [`job`] — the Mapper / Reducer / Combiner programming model with
//!   typed keys and values, per-task contexts and counters;
//! * [`engine`] — a multi-threaded executor: map tasks run on a worker
//!   pool sized to the simulated cluster, a hash-partitioned sort-based
//!   shuffle groups intermediate pairs, reduce tasks run per partition;
//!   per-task wall-clock timings are recorded;
//! * [`simcluster`] — the cluster *time* model: measured (or synthetic)
//!   task durations are list-scheduled onto N node slots with fixed
//!   per-job overheads, producing the cluster-level makespans that
//!   Figure 2 of the paper plots for 2–12 nodes. This is the documented
//!   substitution for the EMR testbed (see DESIGN.md §2);
//! * [`pipeline`] — chaining of jobs (Pig lowers a script to several).
//!
//! The executor really runs in parallel (worker threads, channels); the
//! simulated cluster adds the *accounting* layer that maps that work
//! onto a virtual 2–12 node Hadoop deployment.
//!
//! A job runs one way: as a stage of a [`Pipeline`], which is also
//! the one place its context is attached.
//!
//! Fault injection and recovery live in the [`mrmc_chaos`] crate
//! (re-exported here as [`chaos`]): attach a [`FaultInjector`] via
//! [`Pipeline::with_faults`](pipeline::Pipeline::with_faults) (absent
//! ≡ [`NoFaults`]), and the engine and DFS implement the *real*
//! recovery Hadoop would perform — task retries, speculative backups,
//! lost-map-output re-execution after a node death, checksum fallback
//! and re-replication — with the tally surfaced as
//! [`RecoveryCounters`] on each stage's report.
//!
//! Structured tracing lives in the [`mrmc_obs`] crate (re-exported
//! here as [`obs`]): attach a [`Tracer`] via
//! [`Pipeline::traced`](pipeline::Pipeline::traced) and the engine
//! records task attempt lifecycle, shuffle movement and every
//! recovery action as a deterministic span ledger; the simulated
//! cluster produces an equivalent simulated-time trace when
//! [`ClusterSpec::simulate_job`] is handed a tracer.

pub mod dfs;
pub mod engine;
pub mod error;
pub mod job;
pub mod pipeline;
pub mod simcluster;
pub mod wire;

pub use mrmc_chaos as chaos;
pub use mrmc_obs as obs;

pub use dfs::{Dfs, DfsConfig, FastaSplitReader, InputSplit};
pub use engine::chunk_ranges;
pub use error::MrError;
pub use job::{
    Combiner, Counters, JobConfig, Mapper, MrKey, MrValue, Reducer, ShuffleSized, TaskContext,
    TaskStats,
};
pub use mrmc_chaos::{
    ChaosProfile, FaultInjector, FaultPlan, NoFaults, Phase, PlanInjector, RecoveryCounters,
    TaskFault,
};
pub use mrmc_obs::{chrome_trace, critical_path, CriticalPath, TraceLedger, Tracer};
pub use pipeline::{Gather, Pipeline};
pub use simcluster::{
    lpt_makespan, lpt_schedule, ClusterSpec, JobCostModel, ScheduledTask, ShuffleVolume,
    SimJobReport,
};
pub use wire::{BandKeyCodec, IdRun, IdRunCursor, WireError};
