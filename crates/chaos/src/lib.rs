//! Deterministic fault injection for the simulated Hadoop substrate.
//!
//! The paper runs MrMC-MinH on Elastic MapReduce precisely because
//! Hadoop *survives* task and node failures on commodity spot
//! instances (§IV-C). This crate supplies the machinery to prove our
//! substrate earns the same property:
//!
//! * a [`FaultPlan`] — a seeded, fully deterministic schedule of
//!   injectable faults (task panics on given attempts, task
//!   slowdowns/stragglers, node death between the map and reduce
//!   barriers, DFS replica corruption, shuffle-partition fetch
//!   failures);
//! * the [`FaultInjector`] trait — the hook-point interface the
//!   Map-Reduce engine, the DFS and the pipeline consult while they
//!   run (`mrmc-mapreduce` depends on this crate, not the other way
//!   round, so the hooks cost one virtual call and nothing else);
//! * [`PlanInjector`] — the plan-driven injector whose answers depend
//!   only on the plan, never on wall-clock or thread timing, so an
//!   identical plan produces identical faults *and identical recovery
//!   counters* on every run;
//! * [`RecoveryCounters`] — the ledger of what the runtime actually
//!   did to survive (retries, re-executed maps after node loss,
//!   speculative wins, re-replicated blocks), kept once per job in
//!   its `StageReport.recovery` and carried into `SimJobReport`.
//!
//! The recovery mechanics themselves (blacklisting, lost-map-output
//! re-execution, first-finisher-wins speculation, checksum fallback
//! and re-replication) live in the layers that own the state; this
//! crate defines *what goes wrong and when*, and counts what it took
//! to recover.

pub mod injector;
pub mod plan;
pub mod recovery;

pub use injector::{FaultInjector, NoFaults, Phase, TaskFault};
pub use plan::{ChaosProfile, Fault, FaultKind, FaultPlan, PlanInjector};
pub use recovery::RecoveryCounters;
