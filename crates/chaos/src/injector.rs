//! The hook-point interface the runtime consults while executing.

use std::time::Duration;

/// Which phase of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The map phase.
    Map,
    /// The reduce phase.
    Reduce,
}

impl Phase {
    /// Stable lowercase name (matches `MrError::TaskFailed::phase`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

/// A fault injected into one task attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFault {
    /// The attempt panics with this message before doing any work — a
    /// crashing JVM / lost TaskTracker heartbeat.
    Panic(String),
    /// The attempt runs to completion but takes this much *extra*
    /// wall-clock — a straggler on a contended spot instance. The
    /// engine responds by launching a speculative backup attempt.
    Slowdown(Duration),
}

/// Hook points the engine, DFS and pipeline consult at runtime.
///
/// Every method has a no-fault default, so implementing a custom
/// injector means overriding only the faults you care about. All
/// methods take `&self` and implementations must be `Send + Sync`:
/// worker threads consult the injector concurrently. Answers must
/// depend only on the arguments (plus per-job state advanced by
/// [`FaultInjector::begin_job`]), never on timing, or recovery
/// counters stop being reproducible. `Debug` is required so the
/// configs that carry an injector stay `Debug` themselves.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called by the engine once at the start of each job, in
    /// submission order. Plan-driven injectors use it to advance
    /// their job ordinal.
    fn begin_job(&self, _name: &str) {}

    /// Fault (if any) for attempt `attempt` of task `task` in `phase`
    /// of the current job. Attempt ids count every execution of the
    /// task: retries and speculative backups each get a fresh id.
    fn task_fault(&self, _phase: Phase, _task: usize, _attempt: usize) -> Option<TaskFault> {
        None
    }

    /// Virtual nodes that die at the barrier between the map and
    /// reduce phases of the current job — after every map task has
    /// run, before any map output is consumed. The engine blacklists
    /// them and re-executes the map tasks whose output they held.
    fn node_deaths_after_map(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Number of times fetching partition `partition` of map task
    /// `map_task`'s output fails in the current job. The engine
    /// retries each failure; past its retry limit it declares the map
    /// output lost and re-executes the map task.
    fn shuffle_fetch_failures(&self, _map_task: usize, _partition: usize) -> u32 {
        0
    }

    /// Whether replica number `replica` (ordinal in the block's
    /// replica list) of block `block_index` of `path` is corrupted.
    /// The DFS detects this via checksum verification on read, falls
    /// back to a surviving replica and re-replicates.
    fn replica_corrupted(&self, _path: &str, _block_index: usize, _replica: usize) -> bool {
        false
    }
}

/// The injector that injects nothing — the default for every
/// non-chaos execution path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_injects_nothing() {
        let inj = NoFaults;
        inj.begin_job("job");
        assert_eq!(inj.task_fault(Phase::Map, 0, 0), None);
        assert!(inj.node_deaths_after_map().is_empty());
        assert_eq!(inj.shuffle_fetch_failures(0, 0), 0);
        assert!(!inj.replica_corrupted("/f", 0, 0));
    }

    #[test]
    fn phase_names() {
        assert_eq!(Phase::Map.name(), "map");
        assert_eq!(Phase::Reduce.name(), "reduce");
    }
}
