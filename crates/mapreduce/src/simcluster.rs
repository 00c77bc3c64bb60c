//! The simulated-cluster time model.
//!
//! The paper benchmarks on Amazon Elastic MapReduce with 2–12 M1 Large
//! nodes (§IV-C) and reports job runtimes versus node count and input
//! size (Figure 2). We do not own that testbed; instead, task
//! durations — *really measured* by the engine, or synthesized from
//! per-record costs for input sizes a single machine cannot execute —
//! are **list-scheduled** onto `nodes × slots` virtual task slots, plus
//! the fixed overheads a Hadoop job pays regardless of input size
//! (JVM start-up, job setup/teardown, scheduling heartbeats).
//!
//! This preserves the two phenomena Figure 2 shows: runtime falling
//! roughly as `overhead + work/N` for large inputs, and a flat line for
//! inputs too small to keep even two nodes busy.

/// A virtual Hadoop cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Worker node count (the paper varies 2–12).
    pub nodes: usize,
    /// Concurrent map tasks per node (M1 Large ran 2).
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
}

impl ClusterSpec {
    /// A cluster of `nodes` M1-Large-like workers (2 map slots, 1
    /// reduce slot each).
    pub fn m1_large(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
        }
    }

    /// Total map slots.
    pub fn map_slots(&self) -> usize {
        (self.nodes * self.map_slots_per_node).max(1)
    }

    /// Total reduce slots.
    pub fn reduce_slots(&self) -> usize {
        (self.nodes * self.reduce_slots_per_node).max(1)
    }
}

/// Fixed and per-unit costs of a Hadoop job, in seconds.
///
/// Defaults are calibrated to the ballpark of 2013-era EMR (tens of
/// seconds of fixed overhead per job): the absolute values only shift
/// Figure 2 vertically; the *shape* comes from the scheduling model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCostModel {
    /// Per-job fixed overhead (setup + teardown), seconds.
    pub job_overhead: f64,
    /// Per-task scheduling/launch overhead, seconds.
    pub task_overhead: f64,
    /// Seconds to move one shuffled record between nodes, *per node* of
    /// aggregate bandwidth (total shuffle time = records × cost / nodes).
    pub shuffle_record_cost: f64,
    /// Seconds per shuffled *byte*, per node of aggregate bandwidth —
    /// the volume term that separates wide records (sketch rows) from
    /// narrow ones (band buckets) which a pure per-record cost cannot.
    pub shuffle_byte_cost: f64,
    /// Seconds per shuffled *run* (one sorted map-side spill segment
    /// fetched by one reducer), per node of aggregate bandwidth. Models
    /// the per-fetch overhead of Hadoop's copy phase — connection
    /// setup, HTTP round-trip, merge bookkeeping — which scales with
    /// `maps × reducers`, not with payload volume.
    pub shuffle_run_cost: f64,
    /// Straggler model: the slowest map task runs this many times its
    /// nominal cost (1.0 = no stragglers). EMR-era Hadoop commonly saw
    /// 5–10× stragglers from contended spot instances.
    pub straggler_slowdown: f64,
    /// Hadoop's speculative execution: when a task lags, a backup copy
    /// is scheduled on a free slot; the task finishes when either copy
    /// does. Bounds the straggler's effective cost at (detection delay
    /// + one nominal run).
    pub speculative_execution: bool,
}

impl Default for JobCostModel {
    fn default() -> Self {
        JobCostModel {
            job_overhead: 20.0,
            task_overhead: 1.5,
            shuffle_record_cost: 2e-6,
            shuffle_byte_cost: 1e-8,
            shuffle_run_cost: 1e-3,
            straggler_slowdown: 1.0,
            speculative_execution: false,
        }
    }
}

impl JobCostModel {
    /// Fraction of a task's nominal runtime that elapses before the
    /// speculative backup launches (Hadoop waits for progress-rate
    /// evidence).
    const SPECULATION_DELAY: f64 = 1.0;

    /// Effective cost of the straggling task under this model.
    fn straggler_cost(&self, nominal: f64) -> f64 {
        let slowed = nominal * self.straggler_slowdown;
        if self.speculative_execution {
            // Backup launches after the detection delay and runs at
            // nominal speed; the original might still win.
            slowed.min(nominal * Self::SPECULATION_DELAY + nominal)
        } else {
            slowed
        }
    }
}

/// What one job pushed through its shuffle, as measured by the engine:
/// the three axes the cost model prices independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShuffleVolume {
    /// Intermediate pairs that crossed the barrier (post-combine).
    pub records: u64,
    /// Payload bytes those pairs occupy on the wire.
    pub bytes: u64,
    /// Sorted map-side runs fetched by reducers — one per non-empty
    /// (map task, reducer) cell.
    pub runs: u64,
}

/// Breakdown of a simulated job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJobReport {
    /// Makespan of the map phase (seconds).
    pub map_time: f64,
    /// Time for the shuffle transfer (seconds).
    pub shuffle_time: f64,
    /// Makespan of the reduce phase (seconds).
    pub reduce_time: f64,
    /// Fixed job overhead (seconds).
    pub overhead: f64,
    /// Recovery work the real engine performed producing the measured
    /// task costs (zero for purely synthetic simulations).
    pub recovery: mrmc_chaos::RecoveryCounters,
}

impl SimJobReport {
    /// Total simulated wall-clock for the job.
    pub fn total(&self) -> f64 {
        self.map_time + self.shuffle_time + self.reduce_time + self.overhead
    }
}

/// One task's placement in a list schedule: which slot ran it and
/// when, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledTask {
    /// Index into the phase's cost list.
    pub task: usize,
    /// Slot (virtual lane) the task ran on.
    pub slot: usize,
    /// Start offset within the phase, seconds.
    pub start: f64,
    /// End offset within the phase, seconds.
    pub end: f64,
}

/// Longest-processing-time list scheduling with full placements: sort
/// tasks by decreasing cost (stable, so equal costs keep index order),
/// repeatedly assign to the least-loaded slot. Tasks stack contiguously
/// on each slot from time zero — the schedule has no idle gaps below
/// the makespan on the loaded lanes, which is what lets the trace
/// layer attribute the whole simulated phase to task spans.
pub fn lpt_schedule(costs: &[f64], slots: usize) -> Vec<ScheduledTask> {
    let slots = slots.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).expect("finite costs"));
    // A binary heap of loads would be O(n log m); for the task counts
    // here a linear scan over ≤ 24 slots is simpler and just as fast.
    let mut loads = vec![0.0f64; slots];
    let mut placed = Vec::with_capacity(costs.len());
    for task in order {
        let (slot, load) = loads
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
            .expect("slots ≥ 1");
        placed.push(ScheduledTask {
            task,
            slot,
            start: load,
            end: load + costs[task],
        });
        loads[slot] = load + costs[task];
    }
    placed
}

impl ClusterSpec {
    /// Simulate one job: map task costs, shuffle volume, reduce task
    /// costs → phase times and total on this cluster. The shuffle is
    /// priced on all three axes of `volume` against per-node aggregate
    /// bandwidth (per record, per payload byte, and
    /// [`JobCostModel::shuffle_run_cost`] per sorted run a reducer
    /// fetches — the engine's [`crate::pipeline::StageReport::shuffle_runs`]).
    /// Recovery work is charged too: every retried or re-executed map
    /// attempt in `recovery` is scheduled as an extra mean-cost map
    /// task (the cluster really ran it), and the ledger is carried on
    /// the report. Synthetic callers pass
    /// `ShuffleVolume { records, ..Default::default() }` and a clean
    /// ledger.
    ///
    /// Given `trace = Some((tracer, job_name, start_s))`, the same
    /// schedule is also written into `tracer` as a *simulated-time*
    /// trace: per-job overhead as an explicit span, one launch-overhead
    /// and one body span per scheduled task slot (recovery
    /// re-executions categorized as recovery work), a shuffle span
    /// depending on every map lane, and reduce lanes depending on the
    /// shuffle. Timestamps are simulated seconds rendered as
    /// nanoseconds since `start_s` — fully deterministic, and the spans
    /// tile every loaded lane without gaps, so the critical path
    /// reconstructs the report's makespan exactly.
    pub fn simulate_job(
        &self,
        model: &JobCostModel,
        map_costs: &[f64],
        volume: ShuffleVolume,
        reduce_costs: &[f64],
        recovery: mrmc_chaos::RecoveryCounters,
        trace: Option<(&mrmc_obs::Tracer, &str, f64)>,
    ) -> SimJobReport {
        use mrmc_obs::{Category, SpanDraft, SpanId};

        let eff = self.effective_costs(model, map_costs, reduce_costs, recovery);
        let map_sched = lpt_schedule(&eff.map_costs, self.map_slots());
        let reduce_sched = lpt_schedule(&eff.reduce_costs, self.reduce_slots());
        let makespan = |sched: &[ScheduledTask]| sched.iter().fold(0.0f64, |acc, t| acc.max(t.end));
        let report = SimJobReport {
            map_time: makespan(&map_sched),
            shuffle_time: self.shuffle_seconds(model, volume),
            reduce_time: makespan(&reduce_sched),
            overhead: model.job_overhead,
            recovery,
        };
        let Some((tracer, job_name, start_s)) = trace else {
            return report;
        };

        let ns = |s: f64| -> u64 { (s * 1e9).round() as u64 };
        let job = tracer.begin_job(job_name);
        let setup_end = start_s + model.job_overhead;
        let setup = tracer.add_span(
            SpanDraft::new(job, "job:setup", Category::Overhead)
                .lane(0)
                .at(ns(start_s), ns(setup_end).saturating_sub(ns(start_s)))
                .meta("nodes", self.nodes),
        );

        // Emit one overhead + body span pair per scheduled task,
        // chained along its lane so lane order becomes dependency
        // order. Spans on a lane are contiguous (list scheduling
        // stacks tasks from zero), so the longest lane's chain covers
        // the whole phase makespan. Returns each lane's last span.
        let emit_phase = |sched: &[ScheduledTask],
                          base_s: f64,
                          name: &str,
                          recovery_from: usize,
                          straggler: Option<usize>,
                          entry_dep: SpanId|
         -> Vec<SpanId> {
            let mut order: Vec<&ScheduledTask> = sched.iter().collect();
            order.sort_by(|a, b| {
                (a.slot, a.start)
                    .partial_cmp(&(b.slot, b.start))
                    .expect("finite times")
            });
            let mut lane_last: Vec<(usize, SpanId)> = Vec::new();
            for t in order {
                let prev = lane_last
                    .iter()
                    .find(|(slot, _)| *slot == t.slot)
                    .map(|&(_, id)| id)
                    .unwrap_or(entry_dep);
                let launch_end = (base_s + t.start + model.task_overhead).min(base_s + t.end);
                let launch = tracer.add_span(
                    SpanDraft::new(job, format!("{name}:launch"), Category::Overhead)
                        .task_attempt(t.task, 0)
                        .lane(t.slot)
                        .at(
                            ns(base_s + t.start),
                            ns(launch_end).saturating_sub(ns(base_s + t.start)),
                        )
                        .dep(prev),
                );
                let category = if t.task >= recovery_from {
                    Category::Recovery
                } else {
                    Category::Compute
                };
                let mut body = SpanDraft::new(job, name, category)
                    .task_attempt(t.task, 0)
                    .lane(t.slot)
                    .at(
                        ns(launch_end),
                        ns(base_s + t.end).saturating_sub(ns(launch_end)),
                    )
                    .dep(launch);
                if straggler == Some(t.task) {
                    body = body.meta("straggler", "true");
                }
                let id = tracer.add_span(body);
                match lane_last.iter_mut().find(|(slot, _)| *slot == t.slot) {
                    Some(entry) => entry.1 = id,
                    None => lane_last.push((t.slot, id)),
                }
            }
            lane_last.sort_unstable();
            lane_last.into_iter().map(|(_, id)| id).collect()
        };

        let map_frontier = emit_phase(
            &map_sched,
            setup_end,
            "map",
            eff.primary_maps,
            eff.straggler,
            setup,
        );
        let shuffle_start = setup_end + report.map_time;
        let shuffle = tracer.add_span(
            SpanDraft::new(job, "shuffle", Category::Shuffle)
                .lane(0)
                .at(
                    ns(shuffle_start),
                    ns(shuffle_start + report.shuffle_time).saturating_sub(ns(shuffle_start)),
                )
                .deps(if map_frontier.is_empty() {
                    vec![setup]
                } else {
                    map_frontier
                })
                .meta("records", volume.records)
                .meta("bytes", volume.bytes)
                .meta("runs", volume.runs),
        );
        emit_phase(
            &reduce_sched,
            shuffle_start + report.shuffle_time,
            "reduce",
            usize::MAX,
            None,
            shuffle,
        );
        report
    }

    /// Shuffle transfer time under the three-axis cost model, charged
    /// against per-node aggregate bandwidth.
    fn shuffle_seconds(&self, model: &JobCostModel, volume: ShuffleVolume) -> f64 {
        (volume.records as f64 * model.shuffle_record_cost
            + volume.bytes as f64 * model.shuffle_byte_cost
            + volume.runs as f64 * model.shuffle_run_cost)
            / self.nodes.max(1) as f64
    }

    /// The cost lists the scheduler actually sees: per-task launch
    /// overhead added, recovery re-executions appended as mean-cost
    /// map tasks, the straggler slowdown applied to the longest map.
    fn effective_costs(
        &self,
        model: &JobCostModel,
        map_costs: &[f64],
        reduce_costs: &[f64],
        recovery: mrmc_chaos::RecoveryCounters,
    ) -> EffectiveCosts {
        let with_task_overhead =
            |costs: &[f64]| -> Vec<f64> { costs.iter().map(|c| c + model.task_overhead).collect() };
        let mut eff_map = with_task_overhead(map_costs);
        let primary_maps = eff_map.len();
        // Recovery work is real work: every extra map execution the
        // engine ran (retries, node-loss and fetch-failure
        // re-executions, winning backups) occupies a slot for a
        // mean-cost task.
        let extra_execs = recovery.tasks_retried
            + recovery.maps_reexecuted_node_loss
            + recovery.maps_reexecuted_fetch_fail
            + recovery.speculative_wins;
        if extra_execs > 0 && !eff_map.is_empty() {
            let mean = eff_map.iter().sum::<f64>() / eff_map.len() as f64;
            eff_map.extend(std::iter::repeat_n(mean, extra_execs as usize));
        }
        // Straggler injection: the longest map task is slowed (and
        // possibly rescued by speculation).
        let mut straggler = None;
        if model.straggler_slowdown > 1.0 {
            if let Some(idx) = eff_map
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
            {
                eff_map[idx] = model.straggler_cost(eff_map[idx]);
                straggler = Some(idx);
            }
        }
        EffectiveCosts {
            map_costs: eff_map,
            primary_maps,
            straggler,
            reduce_costs: with_task_overhead(reduce_costs),
        }
    }
}

/// Output of [`ClusterSpec::effective_costs`].
struct EffectiveCosts {
    map_costs: Vec<f64>,
    /// Map cost indices below this are primary executions; at or above
    /// it, recovery re-executions.
    primary_maps: usize,
    /// Index of the straggler-slowed map task, if any.
    straggler: Option<usize>,
    reduce_costs: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_chaos::RecoveryCounters;

    /// A shuffle of `n` records priced on the record axis only.
    fn records(n: u64) -> ShuffleVolume {
        ShuffleVolume {
            records: n,
            ..Default::default()
        }
    }

    #[test]
    fn more_nodes_never_slower() {
        let model = JobCostModel::default();
        let map_costs: Vec<f64> = (0..96).map(|i| 1.0 + (i % 7) as f64 * 0.3).collect();
        let reduce_costs = vec![2.0; 8];
        let mut prev = f64::INFINITY;
        for nodes in 2..=12 {
            let t = ClusterSpec::m1_large(nodes)
                .simulate_job(
                    &model,
                    &map_costs,
                    records(1_000_000),
                    &reduce_costs,
                    RecoveryCounters::new(),
                    None,
                )
                .total();
            assert!(t <= prev + 1e-9, "nodes={nodes}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn tiny_job_flat_in_nodes() {
        // One short map task: adding nodes cannot help (Figure 2's
        // 1000-read line).
        let model = JobCostModel::default();
        let t2 = ClusterSpec::m1_large(2)
            .simulate_job(
                &model,
                &[0.5],
                records(100),
                &[0.1],
                RecoveryCounters::new(),
                None,
            )
            .total();
        let t12 = ClusterSpec::m1_large(12)
            .simulate_job(
                &model,
                &[0.5],
                records(100),
                &[0.1],
                RecoveryCounters::new(),
                None,
            )
            .total();
        assert!((t2 - t12).abs() < 0.01, "t2={t2} t12={t12}");
    }

    #[test]
    fn overhead_floors_runtime() {
        let model = JobCostModel::default();
        let r = ClusterSpec::m1_large(12).simulate_job(
            &model,
            &[],
            records(0),
            &[],
            RecoveryCounters::new(),
            None,
        );
        assert!((r.total() - model.job_overhead).abs() < 1e-12);
    }

    #[test]
    fn shuffle_scales_with_nodes() {
        let model = JobCostModel {
            shuffle_record_cost: 1e-3,
            ..Default::default()
        };
        let r4 = ClusterSpec::m1_large(4).simulate_job(
            &model,
            &[],
            records(10_000),
            &[],
            RecoveryCounters::new(),
            None,
        );
        let r8 = ClusterSpec::m1_large(8).simulate_job(
            &model,
            &[],
            records(10_000),
            &[],
            RecoveryCounters::new(),
            None,
        );
        assert!((r4.shuffle_time / r8.shuffle_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stragglers_hurt_and_speculation_rescues() {
        let base = JobCostModel::default();
        let straggling = JobCostModel {
            straggler_slowdown: 8.0,
            ..base
        };
        let speculative = JobCostModel {
            speculative_execution: true,
            ..straggling
        };
        let costs = vec![5.0; 16];
        let cluster = ClusterSpec::m1_large(4);
        let clean = cluster
            .simulate_job(
                &base,
                &costs,
                records(0),
                &[],
                RecoveryCounters::new(),
                None,
            )
            .total();
        let slow = cluster
            .simulate_job(
                &straggling,
                &costs,
                records(0),
                &[],
                RecoveryCounters::new(),
                None,
            )
            .total();
        let rescued = cluster
            .simulate_job(
                &speculative,
                &costs,
                records(0),
                &[],
                RecoveryCounters::new(),
                None,
            )
            .total();
        assert!(
            slow > clean * 1.5,
            "straggler must dominate: {slow} vs {clean}"
        );
        assert!(rescued < slow, "speculation must help: {rescued} vs {slow}");
        // Speculation bounds the straggler at ~2 nominal runs.
        assert!(rescued <= clean * 1.6, "rescued {rescued} vs clean {clean}");
    }

    #[test]
    fn no_slowdown_means_model_is_identity() {
        let base = JobCostModel::default();
        let with_spec = JobCostModel {
            speculative_execution: true,
            ..base
        };
        let costs = vec![2.0, 3.0, 1.0];
        let c = ClusterSpec::m1_large(2);
        assert_eq!(
            c.simulate_job(
                &base,
                &costs,
                records(10),
                &[],
                RecoveryCounters::new(),
                None
            )
            .total(),
            c.simulate_job(
                &with_spec,
                &costs,
                records(10),
                &[],
                RecoveryCounters::new(),
                None
            )
            .total()
        );
    }

    #[test]
    fn recovered_simulation_charges_extra_work() {
        let model = JobCostModel::default();
        let cluster = ClusterSpec::m1_large(2);
        let costs = vec![2.0; 8];
        let clean = cluster.simulate_job(
            &model,
            &costs,
            records(0),
            &[],
            RecoveryCounters::new(),
            None,
        );
        let recovery = RecoveryCounters {
            tasks_retried: 2,
            maps_reexecuted_node_loss: 4,
            ..RecoveryCounters::new()
        };
        let recovered = cluster.simulate_job(&model, &costs, records(0), &[], recovery, None);
        assert!(
            recovered.map_time > clean.map_time,
            "6 extra executions on 4 slots must lengthen the map phase"
        );
        assert_eq!(recovered.recovery, recovery);
        assert!(clean.recovery.is_clean());
    }

    #[test]
    fn byte_volume_prices_into_shuffle() {
        let model = JobCostModel {
            shuffle_record_cost: 0.0,
            shuffle_byte_cost: 1e-6,
            ..Default::default()
        };
        let cluster = ClusterSpec::m1_large(4);
        let vol = |bytes| ShuffleVolume {
            records: 1_000,
            bytes,
            runs: 0,
        };
        let narrow =
            cluster.simulate_job(&model, &[], vol(8_000), &[], RecoveryCounters::new(), None);
        let wide =
            cluster.simulate_job(&model, &[], vol(80_000), &[], RecoveryCounters::new(), None);
        assert!((wide.shuffle_time / narrow.shuffle_time - 10.0).abs() < 1e-9);
        // Zero bytes leaves only the (here free) record term.
        let record_only =
            cluster.simulate_job(&model, &[], vol(0), &[], RecoveryCounters::new(), None);
        assert_eq!(record_only.shuffle_time, 0.0);
    }

    #[test]
    fn run_count_prices_into_shuffle() {
        let model = JobCostModel {
            shuffle_record_cost: 0.0,
            shuffle_byte_cost: 0.0,
            shuffle_run_cost: 1e-2,
            ..Default::default()
        };
        let cluster = ClusterSpec::m1_large(4);
        let vol = |runs| ShuffleVolume {
            records: 1_000,
            bytes: 8_000,
            runs,
        };
        let few = cluster.simulate_job(&model, &[], vol(8), &[], RecoveryCounters::new(), None);
        let many = cluster.simulate_job(&model, &[], vol(80), &[], RecoveryCounters::new(), None);
        assert!((many.shuffle_time / few.shuffle_time - 10.0).abs() < 1e-9);
        // The run term shares aggregate bandwidth: more nodes, faster copy.
        let wide = ClusterSpec::m1_large(8).simulate_job(
            &model,
            &[],
            vol(80),
            &[],
            RecoveryCounters::new(),
            None,
        );
        assert!((many.shuffle_time / wide.shuffle_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slots_computed() {
        let c = ClusterSpec::m1_large(5);
        assert_eq!(c.map_slots(), 10);
        assert_eq!(c.reduce_slots(), 5);
    }
}
