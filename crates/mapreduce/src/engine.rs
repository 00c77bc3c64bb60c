//! The multi-threaded job executor.
//!
//! Runs map tasks on a bounded worker pool (sized like the simulated
//! cluster's task slots), performs a hash-partitioned **sort-merge
//! shuffle**, then runs reduce tasks per partition. Task wall-times are
//! recorded so the [`crate::simcluster`] layer can re-schedule the same
//! work onto a virtual 2–12 node cluster.
//!
//! The data plane mirrors Hadoop's spill/merge design (see DESIGN.md
//! §3a): map tasks borrow their input chunks from the job (so
//! retries and speculative backups never re-clone the chunk buffer)
//! and hash-group their emissions into per-key value blocks, so each
//! pair is touched once instead of sort-moved `log n` times and the
//! per-key value order is exactly what a stable spill sort would
//! produce. The combiner consumes whole groups in place (Hadoop's
//! combine-on-spill), then each task emits one *sorted run of distinct
//! keys per reduce partition* — the sort prices by distinct keys, not
//! pairs. The shuffle barrier **moves** those runs into per-reducer
//! slots; nothing is concatenated or copied. Each reduce task then
//! k-way-merges its runs group-at-a-time with a binary heap, breaking
//! key ties toward the lowest map index, which reproduces
//! bit-identically the order the old concatenate-then-stable-sort path
//! produced.
//!
//! # Fault tolerance
//!
//! A job consults the [`FaultInjector`] of the [`Pipeline`] that runs
//! it (see [`Pipeline::with_faults`] and [`mrmc_chaos`]); a pipeline
//! without one runs with [`mrmc_chaos::NoFaults`]. The recovery
//! mechanics are *real*, not accounting:
//!
//! * a panicking task attempt (injected or genuine) is retried up to
//!   [`crate::job::JobConfig::max_attempts`] times; exhausted budgets
//!   fail the job with the **lowest** failing task index (deterministic
//!   under concurrency);
//! * a straggling attempt (injected slowdown) triggers a speculative
//!   backup attempt in the same worker pool; the first finisher wins —
//!   decided deterministically: a completed backup always beats its
//!   straggling original, so recovery counters are reproducible;
//! * each map task is pinned to a virtual node (`task % virtual_nodes`,
//!   a stand-in for locality-aware placement); when the injector kills
//!   nodes at the map→reduce barrier, the engine blacklists them and
//!   re-executes the map tasks whose (node-local, uncommitted) output
//!   died with them — Hadoop's lost-map-output semantics;
//! * a shuffle fetch that keeps failing past the retry limit declares
//!   the map output lost and re-executes that map task too.
//!
//! Everything the runtime did to survive is tallied in
//! [`RecoveryCounters`] on the job's [`StageReport`], which the
//! pipeline keeps as the stage's record.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mrmc_chaos::{FaultInjector, Phase, RecoveryCounters, TaskFault};
use mrmc_obs::{Category, SpanDraft, SpanId, Tracer};

use crate::error::MrError;
use crate::job::{
    Combiner, Counters, JobConfig, JobResult, Mapper, Reducer, TaskContext, TaskStats,
};
use crate::pipeline::{Pipeline, StageReport};

/// Shuffle fetches retried per (map, partition) before the map output
/// is declared lost and the map task re-executed (Hadoop's
/// `max.fetch.failures.per.mapper` idea, scaled down).
const FETCH_RETRY_LIMIT: u32 = 3;

/// Default worker pool size: the machine's parallelism.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// One queued execution of a task: `slot` indexes the phase's task
/// list, `attempt` is the per-task attempt ordinal handed to the
/// injector, `backup` marks speculative executions.
#[derive(Debug, Clone, Copy)]
struct Item {
    slot: usize,
    attempt: usize,
    backup: bool,
}

/// Per-task bookkeeping inside the pool.
struct TaskCell<T> {
    result: Option<T>,
    /// A successful result has been recorded.
    done: bool,
    /// The winning result came from a speculative backup.
    won_by_backup: bool,
    /// A speculative backup has been queued for this task.
    backup_launched: bool,
    /// The launched backup failed (the original's result stands).
    backup_failed: bool,
    /// The original finished while its backup was still outstanding.
    original_succeeded: bool,
    /// Regular (non-speculative) executions consumed from the attempt
    /// budget.
    regular_execs: usize,
    /// Next attempt ordinal to hand out (retries and backups alike).
    next_attempt: usize,
    /// Executions currently queued or running.
    outstanding: usize,
    last_error: Option<String>,
}

struct PoolState<T> {
    queue: VecDeque<Item>,
    /// Items queued or being processed; workers exit when it reaches 0.
    live: usize,
    cells: Vec<TaskCell<T>>,
    retried: u64,
    /// Completed executions, for the trace ledger. Workers push one
    /// record inside the lock section they already take to commit
    /// their result — tracing adds no extra lock traffic.
    attempts: Vec<AttemptRec>,
}

/// One completed task-attempt execution. Collected by the pool in
/// whatever order workers finish, then annotated and sorted by
/// (task, attempt) before reaching the tracer — so the emitted span
/// sequence depends only on the fault plan, never on thread timing.
/// Executions found moot at pull time (their task already finished)
/// never run a body and are *not* recorded: whether a queued retry
/// goes moot is the one timing-dependent bit of the pool, and the
/// ledger must stay deterministic.
#[derive(Debug, Clone)]
struct AttemptRec {
    slot: usize,
    task: usize,
    attempt: usize,
    backup: bool,
    /// The injector stalled this execution (straggler model).
    slowdown: bool,
    /// This execution triggered the launch of a speculative backup.
    spawned_backup: bool,
    /// Succeeded, but a speculative backup's result was used instead.
    superseded: bool,
    /// This backup's result won over the straggling original.
    won: bool,
    error: Option<String>,
    start: Instant,
    end: Instant,
}

/// Everything one phase pass produced: per-task results, the recovery
/// ledger, and the attempt records for tracing.
struct PhaseOutput<T> {
    results: Vec<T>,
    recovery: RecoveryCounters,
    attempts: Vec<AttemptRec>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "task panicked".to_string())
}

/// Execution parameters of one phase pass, shared by every task.
///
/// `attempt_offset` shifts the attempt ordinals handed to the injector
/// — re-execution passes (after node loss or lost shuffle output) use
/// it so their attempts are distinguishable from the primary pass.
struct PhaseSpec<'a> {
    phase: Phase,
    threads: usize,
    attempts: usize,
    attempt_offset: usize,
    injector: &'a dyn FaultInjector,
}

impl<'a> PhaseSpec<'a> {
    /// The spec `config` prescribes for one pass of `phase` under
    /// `injector`.
    fn of(
        config: &JobConfig,
        injector: &'a dyn FaultInjector,
        threads: usize,
        phase: Phase,
        attempt_offset: usize,
    ) -> PhaseSpec<'a> {
        PhaseSpec {
            phase,
            threads,
            attempts: config.max_attempts,
            attempt_offset,
            injector,
        }
    }
}

/// Run the tasks in `task_ids` on the spec's workers, consulting its
/// injector before every attempt. Returns results aligned with
/// `task_ids` plus the recovery ledger (retries + speculative wins).
fn run_phase<T, F>(
    spec: &PhaseSpec<'_>,
    task_ids: &[usize],
    f: F,
) -> Result<PhaseOutput<T>, MrError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let PhaseSpec {
        phase,
        threads,
        attempts,
        attempt_offset,
        injector,
    } = *spec;
    let n = task_ids.len();
    if n == 0 {
        return Ok(PhaseOutput {
            results: Vec::new(),
            recovery: RecoveryCounters::new(),
            attempts: Vec::new(),
        });
    }
    let attempts = attempts.max(1);
    let state = Mutex::new(PoolState {
        queue: (0..n)
            .map(|slot| Item {
                slot,
                attempt: 0,
                backup: false,
            })
            .collect(),
        live: n,
        cells: (0..n)
            .map(|_| TaskCell {
                result: None,
                done: false,
                won_by_backup: false,
                backup_launched: false,
                backup_failed: false,
                original_succeeded: false,
                regular_execs: 1,
                next_attempt: 1,
                outstanding: 1,
                last_error: None,
            })
            .collect(),
        retried: 0,
        attempts: Vec::new(),
    });
    let cvar = Condvar::new();
    let workers = threads.clamp(1, n);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Pull the next execution, or exit once the pool drains.
                let item = {
                    let mut g = state.lock().expect("pool lock");
                    loop {
                        if let Some(it) = g.queue.pop_front() {
                            break it;
                        }
                        if g.live == 0 {
                            return;
                        }
                        g = cvar.wait(g).expect("pool lock");
                    }
                };
                // A queued retry/backup for an already-finished task is
                // moot: drop it without consulting the injector.
                let moot = state.lock().expect("pool lock").cells[item.slot].done;
                let task_id = task_ids[item.slot];
                let fault = if moot {
                    None
                } else {
                    injector.task_fault(phase, task_id, attempt_offset + item.attempt)
                };

                // A straggling original gets a speculative backup
                // queued *before* it stalls, then really stalls.
                let exec_start = Instant::now();
                let mut spawned_backup = false;
                if let Some(TaskFault::Slowdown(delay)) = &fault {
                    if !item.backup {
                        let mut g = state.lock().expect("pool lock");
                        let mut launch = None;
                        {
                            let cell = &mut g.cells[item.slot];
                            if !cell.backup_launched && !cell.done {
                                cell.backup_launched = true;
                                cell.outstanding += 1;
                                launch = Some(Item {
                                    slot: item.slot,
                                    attempt: cell.next_attempt,
                                    backup: true,
                                });
                                cell.next_attempt += 1;
                            }
                        }
                        if let Some(it) = launch {
                            spawned_backup = true;
                            g.queue.push_back(it);
                            g.live += 1;
                            cvar.notify_one();
                        }
                    }
                    std::thread::sleep(*delay);
                }

                let exec: Option<Result<T, String>> = if moot {
                    None
                } else {
                    Some(
                        catch_unwind(AssertUnwindSafe(|| {
                            if let Some(TaskFault::Panic(msg)) = &fault {
                                panic!("{}", msg.clone());
                            }
                            f(task_id)
                        }))
                        .map_err(panic_message),
                    )
                };
                let exec_end = Instant::now();

                let mut g = state.lock().expect("pool lock");
                if let Some(res) = &exec {
                    g.attempts.push(AttemptRec {
                        slot: item.slot,
                        task: task_id,
                        attempt: item.attempt,
                        backup: item.backup,
                        slowdown: matches!(&fault, Some(TaskFault::Slowdown(_))),
                        spawned_backup,
                        superseded: false,
                        won: false,
                        error: res.as_ref().err().cloned(),
                        start: exec_start,
                        end: exec_end,
                    });
                }
                let mut retry = None;
                {
                    let cell = &mut g.cells[item.slot];
                    cell.outstanding -= 1;
                    match exec {
                        None => {}
                        Some(Ok(v)) => {
                            if item.backup {
                                // First-finisher-wins, decided
                                // deterministically: a successful backup
                                // always beats its straggling original,
                                // whatever the thread timing was.
                                cell.result = Some(v);
                                cell.won_by_backup = true;
                                cell.done = true;
                            } else if !cell.done {
                                if cell.result.is_none() {
                                    cell.result = Some(v);
                                }
                                // While a backup is outstanding the
                                // task stays open: its plan-determined
                                // outcome (not thread timing) decides
                                // the winner.
                                if !cell.backup_launched || cell.backup_failed {
                                    cell.done = true;
                                } else {
                                    cell.original_succeeded = true;
                                }
                            }
                        }
                        Some(Err(msg)) => {
                            cell.last_error = Some(msg);
                            if item.backup {
                                // Failed backups are abandoned (they
                                // were a bonus); a finished original
                                // now stands.
                                cell.backup_failed = true;
                                if cell.original_succeeded {
                                    cell.done = true;
                                }
                            }
                            // Failed regular attempts retry while
                            // budget remains.
                            if !item.backup && !cell.done && cell.regular_execs < attempts {
                                cell.regular_execs += 1;
                                cell.outstanding += 1;
                                retry = Some(Item {
                                    slot: item.slot,
                                    attempt: cell.next_attempt,
                                    backup: false,
                                });
                                cell.next_attempt += 1;
                            }
                        }
                    }
                }
                if let Some(it) = retry {
                    g.retried += 1;
                    g.queue.push_back(it);
                    g.live += 1;
                    cvar.notify_one();
                }
                g.live -= 1;
                if g.live == 0 {
                    cvar.notify_all();
                }
            });
        }
    });

    let state = state.into_inner().expect("pool lock");
    // Deterministic first-failure choice: the lowest failing task
    // index, regardless of which worker recorded its failure first.
    if let Some((slot, cell)) = state.cells.iter().enumerate().find(|(_, c)| !c.done) {
        return Err(MrError::TaskFailed {
            phase: phase.name(),
            task: task_ids[slot],
            attempts: cell.regular_execs,
            message: cell
                .last_error
                .clone()
                .unwrap_or_else(|| "task produced no result".to_string()),
        });
    }
    let recovery = RecoveryCounters {
        tasks_retried: state.retried,
        speculative_wins: state.cells.iter().filter(|c| c.won_by_backup).count() as u64,
        ..RecoveryCounters::new()
    };
    // Annotate winners/supersessions now that the race is settled,
    // then put the records into canonical (task, attempt) order — the
    // order the tracer will see, independent of worker scheduling.
    let mut attempt_recs = state.attempts;
    for rec in &mut attempt_recs {
        if rec.error.is_none() && state.cells[rec.slot].won_by_backup {
            if rec.backup {
                rec.won = true;
            } else {
                rec.superseded = true;
            }
        }
    }
    attempt_recs.sort_by_key(|r| (r.task, r.attempt, r.backup));
    let results = state
        .cells
        .into_iter()
        .map(|c| c.result.expect("task completed"))
        .collect();
    Ok(PhaseOutput {
        results,
        recovery,
        attempts: attempt_recs,
    })
}

/// Per-job trace emission context: the job ordinal plus the span
/// chain heads used to wire retry and barrier dependency edges.
struct TraceCtx<'a> {
    tracer: &'a Tracer,
    job: u32,
    /// Latest span per (phase, task): retries, speculative backups and
    /// re-execution passes chain onto their predecessor through it,
    /// and the map-phase entries become the shuffle barrier's deps.
    last_span: HashMap<(u8, usize), SpanId>,
}

fn phase_key(phase: Phase) -> u8 {
    match phase {
        Phase::Map => 0,
        Phase::Reduce => 1,
    }
}

impl<'a> TraceCtx<'a> {
    fn begin(tracer: &'a Tracer, job_name: &str) -> TraceCtx<'a> {
        TraceCtx {
            job: tracer.begin_job(job_name),
            tracer,
            last_span: HashMap::new(),
        }
    }

    fn event(&self, name: &str, ts_ns: u64, meta: Vec<(String, String)>) {
        self.tracer.add_event(self.job, name, ts_ns, meta);
    }

    /// Emit one span per attempt record of a finished phase pass.
    /// Called from the single-threaded post-phase merge point with
    /// records already in canonical order, so span ids and edges are
    /// deterministic. `pass` labels re-execution passes ("node_loss" /
    /// "fetch_fail"); `extra_deps` adds barrier edges (reduce ←
    /// shuffle).
    fn emit_phase(
        &mut self,
        phase: Phase,
        pass: Option<&str>,
        attempt_offset: usize,
        recs: &[AttemptRec],
        extra_deps: &[SpanId],
    ) {
        let key = phase_key(phase);
        for rec in recs {
            let attempt = attempt_offset + rec.attempt;
            // First regular attempts of the primary pass are the real
            // work; everything else only exists because of a fault.
            let category = if rec.backup || rec.attempt > 0 || pass.is_some() {
                Category::Recovery
            } else {
                Category::Compute
            };
            let start_ns = self.tracer.ns_of(rec.start);
            let end_ns = self.tracer.ns_of(rec.end);
            let mut draft = SpanDraft::new(self.job, phase.name(), category)
                .task_attempt(rec.task, attempt)
                .at(start_ns, end_ns.saturating_sub(start_ns))
                .deps(self.last_span.get(&(key, rec.task)).copied())
                .deps(extra_deps.iter().copied());
            if rec.backup {
                draft = draft.meta("backup", "true");
            }
            if rec.slowdown {
                draft = draft.meta("straggler", "true");
            }
            if rec.superseded {
                draft = draft.meta("superseded", "true");
            }
            if let Some(p) = pass {
                draft = draft.meta("pass", p);
            }
            if let Some(err) = &rec.error {
                draft = draft.meta("error", err.as_str());
            }
            let id = self.tracer.add_span(draft);
            self.last_span.insert((key, rec.task), id);
            if rec.spawned_backup {
                self.event(
                    "speculative_launch",
                    start_ns,
                    vec![("task".into(), rec.task.to_string())],
                );
            }
            if rec.error.is_some() {
                self.event(
                    "panic",
                    end_ns,
                    vec![
                        ("task".into(), rec.task.to_string()),
                        ("attempt".into(), attempt.to_string()),
                    ],
                );
            }
            if rec.won {
                self.event(
                    "speculative_win",
                    end_ns,
                    vec![("task".into(), rec.task.to_string())],
                );
            }
        }
    }

    /// The gating span of each map task (latest attempt), sorted by
    /// task index: the shuffle barrier's dependency set.
    fn map_frontier(&self) -> Vec<SpanId> {
        let mut tasks: Vec<(usize, SpanId)> = self
            .last_span
            .iter()
            .filter(|((k, _), _)| *k == phase_key(Phase::Map))
            .map(|((_, task), &id)| (*task, id))
            .collect();
        tasks.sort_unstable();
        tasks.into_iter().map(|(_, id)| id).collect()
    }
}

/// Map tasks assigned to virtual nodes that died at the map→reduce
/// barrier. Task→node placement is the engine's round-robin
/// `task % virtual_nodes`.
fn tasks_lost_to(deaths: &[usize], num_tasks: usize, nodes: usize) -> Vec<usize> {
    (0..num_tasks)
        .filter(|i| deaths.contains(&(i % nodes)))
        .collect()
}

/// Consult the injector for node deaths, blacklist them, and
/// re-execute the map tasks whose output died. Returns an error only
/// if every virtual node died.
fn recover_node_deaths<T, F>(
    outputs: &mut [T],
    recovery: &mut RecoveryCounters,
    config: &JobConfig,
    injector: &dyn FaultInjector,
    workers: usize,
    trace: &mut Option<TraceCtx<'_>>,
    f: F,
) -> Result<(), MrError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let nodes = config.virtual_nodes.max(1);
    let mut deaths: Vec<usize> = injector
        .node_deaths_after_map()
        .into_iter()
        .filter(|&d| d < nodes)
        .collect();
    deaths.sort_unstable();
    deaths.dedup();
    if deaths.is_empty() {
        return Ok(());
    }
    if let Some(ctx) = trace {
        let now = ctx.tracer.now_ns();
        for &d in &deaths {
            ctx.event("node_death", now, vec![("node".into(), d.to_string())]);
        }
    }
    if deaths.len() >= nodes {
        return Err(MrError::BadConfig(format!(
            "chaos: all {nodes} virtual nodes died; no survivors to re-run on"
        )));
    }
    let lost = tasks_lost_to(&deaths, outputs.len(), nodes);
    if lost.is_empty() {
        return Ok(());
    }
    // Surviving nodes re-run the lost maps; attempt ordinals are
    // offset past the primary pass so the injector can tell them
    // apart.
    let attempt_offset = config.max_attempts + 2;
    let redo = run_phase(
        &PhaseSpec::of(config, injector, workers, Phase::Map, attempt_offset),
        &lost,
        f,
    )?;
    if let Some(ctx) = trace {
        let now = ctx.tracer.now_ns();
        for &task in &lost {
            ctx.event(
                "map_reexec",
                now,
                vec![
                    ("task".into(), task.to_string()),
                    ("cause".into(), "node_loss".into()),
                ],
            );
        }
        ctx.emit_phase(
            Phase::Map,
            Some("node_loss"),
            attempt_offset,
            &redo.attempts,
            &[],
        );
    }
    recovery.merge(&redo.recovery);
    recovery.maps_reexecuted_node_loss += lost.len() as u64;
    for (&slot, out) in lost.iter().zip(redo.results) {
        outputs[slot] = out;
    }
    Ok(())
}

/// The contiguous near-equal ranges `chunk_input` splits a `len`-record
/// input into across `tasks` map tasks (front-loaded remainder). Public
/// so layers above the engine — e.g. the Pig columnar GROUP, which
/// shuffles row *indices* and gathers from a shared batch — can
/// partition side data exactly along the engine's map-task boundaries.
pub fn chunk_ranges(len: usize, tasks: usize) -> Vec<std::ops::Range<usize>> {
    let n = tasks.max(1);
    let base = len / n;
    let extra = len % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Split `input` into `n` contiguous chunks of near-equal length
/// (boundaries per [`chunk_ranges`]).
fn chunk_input<T>(mut input: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let ranges = chunk_ranges(input.len(), n);
    let mut chunks = Vec::with_capacity(ranges.len());
    // Pop from the back to avoid O(n²) moves, then reverse.
    for range in ranges.iter().rev() {
        let tail = input.split_off(range.start);
        chunks.push(tail);
    }
    chunks.reverse();
    chunks
}

/// K-way merge of key-sorted grouped runs, streamed group-at-a-time
/// into `f` without ever materializing a merged pair list. The runs are
/// shared read-only (retried or speculative reduce attempts re-read
/// them), so value blocks are cloned out — but each *key* is cloned
/// once per merged group, not once per pair. Ties break toward the
/// lowest run index, so a key's values concatenate in map-task order —
/// exactly the order the old concat-then-stable-sort path produced.
fn merge_groups<K: Ord + Clone, V: Clone>(runs: &[Vec<(K, Vec<V>)>], mut f: impl FnMut(K, Vec<V>)) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut pos = vec![0usize; runs.len()];
    let mut heap: BinaryHeap<Reverse<(&K, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
        .map(|(r, run)| Reverse((&run[0].0, r)))
        .collect();
    while let Some(Reverse((key, r))) = heap.pop() {
        let mut values = runs[r][pos[r]].1.clone();
        pos[r] += 1;
        if let Some(next) = runs[r].get(pos[r]) {
            heap.push(Reverse((&next.0, r)));
        }
        // Later runs holding the same key append their value blocks in
        // run (= map task) order.
        while let Some(Reverse((next_key, r2))) = heap.peek().copied() {
            if next_key != key {
                break;
            }
            heap.pop();
            values.extend_from_slice(&runs[r2][pos[r2]].1);
            pos[r2] += 1;
            if let Some(next) = runs[r2].get(pos[r2]) {
                heap.push(Reverse((&next.0, r2)));
            }
        }
        f(key.clone(), values);
    }
}

/// An input chunk, borrowed by every attempt of its map task (retries,
/// speculative backups, post-death re-executions).
type Chunk<M> = Vec<(<M as Mapper>::InKey, <M as Mapper>::InValue)>;

/// One map-side sorted run: distinct keys, each with its value block
/// in the map task's emission order.
type SortedRun<K, V> = Vec<(K, Vec<V>)>;

struct MapTaskOutput<K, V> {
    /// One key-sorted run of `(key, values)` groups per reduce
    /// partition; keys are distinct within a run and values keep the
    /// map task's emission order.
    runs: Vec<SortedRun<K, V>>,
    /// Payload bytes across all runs, per the [`Mapper`] wire-size
    /// hooks (key once per group, plus value count and values).
    bytes: u64,
    /// Pairs the mapper emitted before the combiner ran (equals
    /// `stats.records_out` when no combiner is configured); the
    /// tracer's combiner-activity events report the in/out ratio.
    raw_pairs: u64,
    stats: TaskStats,
    counters: Counters,
}

/// The map side of a job, up to and including node-death recovery at
/// the map→reduce barrier — the part map-only and full jobs share.
struct MapPhase<'a, M: Mapper, T> {
    /// Kept so later passes (lost shuffle output) can re-run a task.
    chunks: Vec<Chunk<M>>,
    /// One output per map task, in task order.
    outputs: Vec<T>,
    recovery: RecoveryCounters,
    trace: Option<TraceCtx<'a>>,
    workers: usize,
}

/// Announce the job to the pipeline's injector, chunk `input`, run
/// `task` over every chunk and re-execute what node deaths took.
/// `reducers` is `None` for map-only jobs (it only labels the setup
/// span).
fn run_map_phase<'a, M, T, F>(
    input: Vec<(M::InKey, M::InValue)>,
    num_map_tasks: usize,
    reducers: Option<usize>,
    config: &JobConfig,
    pipeline: &'a Pipeline,
    task: F,
) -> Result<MapPhase<'a, M, T>, MrError>
where
    M: Mapper,
    M::InKey: Sync,
    M::InValue: Sync,
    T: Send,
    F: Fn(usize, &[(M::InKey, M::InValue)]) -> T + Sync,
{
    let injector = pipeline.injector();
    injector.begin_job(&config.name);
    let workers = config.worker_threads.unwrap_or_else(default_workers);
    let mut trace = pipeline.tracer().map(|t| TraceCtx::begin(t, &config.name));
    let setup_start = trace.as_ref().map(|ctx| ctx.tracer.now_ns());
    // Every attempt (retry, speculative backup, post-death
    // re-execution) borrows the same chunk instead of cloning it.
    let chunks: Vec<Chunk<M>> = chunk_input(input, num_map_tasks);
    if let (Some(ctx), Some(t0)) = (&trace, setup_start) {
        let now = ctx.tracer.now_ns();
        let mut setup = SpanDraft::new(ctx.job, "job:setup", Category::Overhead)
            .at(t0, now.saturating_sub(t0))
            .meta("map_tasks", chunks.len());
        if let Some(reducers) = reducers {
            setup = setup.meta("reducers", reducers);
        }
        ctx.tracer.add_span(setup);
    }

    let map_task = |i: usize| task(i, &chunks[i]);
    let ids: Vec<usize> = (0..chunks.len()).collect();
    let primary = run_phase(
        &PhaseSpec::of(config, injector, workers, Phase::Map, 0),
        &ids,
        map_task,
    )?;
    let mut outputs = primary.results;
    let mut recovery = primary.recovery;
    if let Some(ctx) = &mut trace {
        ctx.emit_phase(Phase::Map, None, 0, &primary.attempts, &[]);
    }
    recover_node_deaths(
        &mut outputs,
        &mut recovery,
        config,
        injector,
        workers,
        &mut trace,
        map_task,
    )?;
    Ok(MapPhase {
        chunks,
        outputs,
        recovery,
        trace,
        workers,
    })
}

/// Run the map phase only, as a stage of `pipeline` (its tracer and
/// injector); returns the concatenated mapper output in task order
/// (no shuffle, no reduce). Useful for `FOREACH`-style record-parallel
/// transforms that Pig lowers to map-only jobs. Map outputs count as
/// node-local until the job commits, so a node death at the end of the
/// map phase re-executes that node's tasks even in a map-only job.
pub(crate) fn run_map_only<M>(
    input: Vec<(M::InKey, M::InValue)>,
    num_map_tasks: usize,
    mapper: &M,
    config: &JobConfig,
    pipeline: &Pipeline,
) -> Result<JobResult<M::OutKey, M::OutValue>, MrError>
where
    M: Mapper,
    M::InKey: Clone + Sync,
    M::InValue: Clone + Sync,
{
    let job_start = Instant::now();
    let map_task = |i: usize, chunk: &[(M::InKey, M::InValue)]| {
        let start = Instant::now();
        let records_in = chunk.len() as u64;
        let mut ctx = TaskContext::new();
        for (k, v) in chunk {
            mapper.map(k.clone(), v.clone(), &mut ctx);
        }
        let (pairs, counters) = ctx.into_parts();
        let stats = TaskStats {
            task: i,
            duration: start.elapsed(),
            records_in,
            records_out: pairs.len() as u64,
        };
        (pairs, stats, counters)
    };
    let MapPhase {
        outputs, recovery, ..
    } = run_map_phase::<M, _, _>(input, num_map_tasks, None, config, pipeline, map_task)?;

    let mut counters = Counters::new();
    let mut all = Vec::new();
    let mut map_stats = Vec::new();
    for (pairs, stats, task_counters) in outputs {
        counters.merge(&task_counters);
        map_stats.push(stats);
        all.extend(pairs);
    }
    Ok(JobResult {
        output: all,
        report: StageReport {
            name: config.name.clone(),
            map_stats,
            reduce_stats: Vec::new(),
            shuffled_pairs: 0,
            shuffled_bytes: 0,
            shuffle_runs: 0,
            counters: counters.snapshot(),
            wall: job_start.elapsed(),
            recovery,
        },
    })
}

/// A never-instantiated combiner standing in for `None`. The
/// `fn() -> _` phantom keeps it `Send + Sync` regardless of `K`/`V`.
pub(crate) struct NoCombiner<K, V>(std::marker::PhantomData<fn() -> (K, V)>);
impl<K: crate::job::MrKey, V: crate::job::MrValue> Combiner for NoCombiner<K, V> {
    type Key = K;
    type Value = V;
    fn combine(&self, _key: &K, values: Vec<V>) -> Vec<V> {
        values
    }
}

/// Map-side spill-buffer pool: emit buffers and grouping maps from
/// finished map tasks are recycled into later tasks on the same job,
/// so steady-state mapping reuses their capacity instead of
/// reallocating per chunk. Purely an allocation optimization — a task
/// always clears what it takes, and a task that panics simply never
/// returns its buffers (losing capacity, never correctness).
struct SpillPool<K, V> {
    emit_bufs: Mutex<Vec<Vec<(K, V)>>>,
    group_maps: Mutex<Vec<HashMap<K, Vec<V>>>>,
}

impl<K, V> SpillPool<K, V> {
    fn new() -> SpillPool<K, V> {
        SpillPool {
            emit_bufs: Mutex::new(Vec::new()),
            group_maps: Mutex::new(Vec::new()),
        }
    }

    fn take_emit_buf(&self) -> Vec<(K, V)> {
        self.emit_bufs.lock().unwrap().pop().unwrap_or_default()
    }

    fn put_emit_buf(&self, mut buf: Vec<(K, V)>) {
        buf.clear();
        self.emit_bufs.lock().unwrap().push(buf);
    }

    fn take_group_map(&self) -> HashMap<K, Vec<V>> {
        self.group_maps.lock().unwrap().pop().unwrap_or_default()
    }

    fn put_group_map(&self, mut map: HashMap<K, Vec<V>>) {
        map.clear();
        self.group_maps.lock().unwrap().push(map);
    }
}

/// Run a full map → shuffle → reduce job as a stage of `pipeline` (its
/// tracer and injector), with `combiner`, when given, applied to each
/// map task's local output before the shuffle.
pub(crate) fn run_job<M, C, R>(
    input: Vec<(M::InKey, M::InValue)>,
    num_map_tasks: usize,
    mapper: &M,
    combiner: Option<&C>,
    reducer: &R,
    config: &JobConfig,
    pipeline: &Pipeline,
) -> Result<JobResult<R::OutKey, R::OutValue>, MrError>
where
    M: Mapper,
    M::InKey: Clone + Sync,
    M::InValue: Clone + Sync,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    if config.num_reducers == 0 {
        return Err(MrError::BadConfig("num_reducers must be ≥ 1".into()));
    }
    let job_start = Instant::now();
    let injector = pipeline.injector();
    let reducers = config.num_reducers;

    // ---- Map phase (incl. node deaths at the map→reduce barrier) ----
    let spill_pool: SpillPool<M::OutKey, M::OutValue> = SpillPool::new();
    let map_task = |i: usize, chunk: &[(M::InKey, M::InValue)]| {
        let start = Instant::now();
        let records_in = chunk.len() as u64;
        let mut ctx = TaskContext::with_buffer(spill_pool.take_emit_buf());
        for (k, v) in chunk {
            mapper.map(k.clone(), v.clone(), &mut ctx);
        }
        let (mut pairs, counters) = ctx.into_parts();
        let raw_pairs = pairs.len() as u64;
        // Group map-side in emission order: the hash grouping touches
        // each pair once instead of sort-moving it log n times, and the
        // per-key value order it preserves is exactly what the old
        // stable spill sort produced. The combiner then consumes whole
        // groups in place — Hadoop's combine-on-spill.
        let mut grouped: HashMap<M::OutKey, Vec<M::OutValue>> = spill_pool.take_group_map();
        for (k, v) in pairs.drain(..) {
            grouped.entry(k).or_default().push(v);
        }
        spill_pool.put_emit_buf(pairs);
        let mut records_out = 0u64;
        let mut bytes = 0u64;
        let mut runs: Vec<SortedRun<M::OutKey, M::OutValue>> =
            (0..reducers).map(|_| Vec::new()).collect();
        for (k, vs) in grouped.drain() {
            let vs = match combiner {
                Some(c) => c.combine(&k, vs),
                None => vs,
            };
            // A combiner may collapse a group to nothing; the old
            // plane simply never emitted such keys.
            if vs.is_empty() {
                continue;
            }
            records_out += vs.len() as u64;
            // Price the group exactly as the sort-merge run frames it:
            // the key once, a varint value count, then each surviving
            // value. (The old per-pair pricing charged the key once per
            // *value*, overstating `shuffled_bytes` for every multi-value
            // group.)
            bytes += (mapper.key_wire_size(&k) + crate::wire::uvarint_len(vs.len() as u64)) as u64;
            for v in &vs {
                bytes += mapper.value_wire_size(v) as u64;
            }
            let p = mapper.partition(&k, reducers);
            assert!(
                p < reducers,
                "Mapper::partition returned {p} for {reducers} reducers"
            );
            runs[p].push((k, vs));
        }
        // Keys are distinct within a run, so this cheap key-only sort
        // is deterministic despite the hash map's iteration order —
        // it prices by distinct keys, not by pairs. These are the
        // sorted spill segments reducers will merge.
        for run in &mut runs {
            run.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        spill_pool.put_group_map(grouped);
        MapTaskOutput {
            runs,
            bytes,
            raw_pairs,
            stats: TaskStats {
                task: i,
                duration: start.elapsed(),
                records_in,
                records_out,
            },
            counters,
        }
    };

    let MapPhase {
        chunks,
        outputs: mut map_outputs,
        mut recovery,
        mut trace,
        workers,
    } = run_map_phase::<M, _, _>(
        input,
        num_map_tasks,
        Some(reducers),
        config,
        pipeline,
        map_task,
    )?;

    // ---- Shuffle fetch failures ----
    // Each (map, partition) fetch is retried; past the limit the map
    // output is declared lost and the map task re-executed.
    let mut lost_maps = Vec::new();
    for m in 0..map_outputs.len() {
        let mut lost = false;
        for p in 0..reducers {
            let fails = injector.shuffle_fetch_failures(m, p);
            if fails == 0 {
                continue;
            }
            recovery.shuffle_fetch_retries += u64::from(fails.min(FETCH_RETRY_LIMIT));
            if let Some(ctx) = &trace {
                ctx.event(
                    "fetch_retry",
                    ctx.tracer.now_ns(),
                    vec![
                        ("map".into(), m.to_string()),
                        ("partition".into(), p.to_string()),
                        ("failures".into(), fails.to_string()),
                    ],
                );
            }
            if fails > FETCH_RETRY_LIMIT {
                lost = true;
            }
        }
        if lost {
            lost_maps.push(m);
        }
    }
    for m in lost_maps {
        let attempt_offset = config.max_attempts + 8;
        let redo = run_phase(
            &PhaseSpec::of(config, injector, workers, Phase::Map, attempt_offset),
            &[m],
            |i| map_task(i, &chunks[i]),
        )?;
        if let Some(ctx) = &mut trace {
            ctx.event(
                "map_reexec",
                ctx.tracer.now_ns(),
                vec![
                    ("task".into(), m.to_string()),
                    ("cause".into(), "fetch_fail".into()),
                ],
            );
            ctx.emit_phase(
                Phase::Map,
                Some("fetch_fail"),
                attempt_offset,
                &redo.attempts,
                &[],
            );
        }
        recovery.merge(&redo.recovery);
        recovery.maps_reexecuted_fetch_fail += 1;
        map_outputs[m] = redo.results.into_iter().next().expect("one task re-run");
    }

    // ---- Shuffle barrier: move each map's runs into reducer slots ----
    // No concatenation, no copy: a run Vec is *moved* into its
    // reducer's slot list, keeping map order (the merge's tie-break).
    let mut counters = Counters::new();
    let mut map_stats = Vec::with_capacity(map_outputs.len());
    let num_maps = map_outputs.len();
    let mut partition_slots: Vec<Vec<SortedRun<M::OutKey, M::OutValue>>> = (0..reducers)
        .map(|_| Vec::with_capacity(num_maps))
        .collect();
    let mut shuffled_pairs = 0u64;
    let mut shuffled_bytes = 0u64;
    let mut shuffle_runs = 0u64;
    let shuffle_start = trace.as_ref().map(|ctx| ctx.tracer.now_ns());
    for out in map_outputs {
        counters.merge(&out.counters);
        shuffled_pairs += out.stats.records_out;
        shuffled_bytes += out.bytes;
        if let Some(ctx) = &trace {
            if combiner.is_some() {
                ctx.event(
                    "combine",
                    ctx.tracer.now_ns(),
                    vec![
                        ("task".into(), out.stats.task.to_string()),
                        ("pairs_in".into(), out.raw_pairs.to_string()),
                        ("pairs_out".into(), out.stats.records_out.to_string()),
                    ],
                );
            }
        }
        let map_task_idx = out.stats.task;
        map_stats.push(out.stats);
        for (p, run) in out.runs.into_iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            shuffle_runs += 1;
            if let Some(ctx) = &trace {
                ctx.event(
                    "shuffle_run",
                    ctx.tracer.now_ns(),
                    vec![
                        ("map".into(), map_task_idx.to_string()),
                        ("partition".into(), p.to_string()),
                        ("groups".into(), run.len().to_string()),
                    ],
                );
            }
            partition_slots[p].push(run);
        }
    }
    let shuffle_span = trace.as_ref().zip(shuffle_start).map(|(ctx, t0)| {
        let now = ctx.tracer.now_ns();
        ctx.tracer.add_span(
            SpanDraft::new(ctx.job, "shuffle", Category::Shuffle)
                .at(t0, now.saturating_sub(t0))
                .deps(ctx.map_frontier())
                .meta("pairs", shuffled_pairs)
                .meta("bytes", shuffled_bytes)
                .meta("runs", shuffle_runs),
        )
    });

    // ---- Reduce phase ----
    let reduce_task = |p: usize| {
        let start = Instant::now();
        // Runs stay shared read-only: a retried or speculative attempt
        // merges the same slots again. Equal keys come out ordered by
        // (map task, emission order) — the old stable sort's order.
        let runs = &partition_slots[p];
        let records_in = runs
            .iter()
            .flat_map(|r| r.iter())
            .map(|(_, vs)| vs.len() as u64)
            .sum();
        let mut ctx = TaskContext::new();
        merge_groups(runs, |key, values| reducer.reduce(key, values, &mut ctx));
        let (out, task_counters) = ctx.into_parts();
        let stats = TaskStats {
            task: p,
            duration: start.elapsed(),
            records_in,
            records_out: out.len() as u64,
        };
        (out, stats, task_counters)
    };

    let reduce_ids: Vec<usize> = (0..reducers).collect();
    let reduce_phase = run_phase(
        &PhaseSpec::of(config, injector, workers, Phase::Reduce, 0),
        &reduce_ids,
        reduce_task,
    )?;
    recovery.merge(&reduce_phase.recovery);
    if let Some(ctx) = &mut trace {
        let barrier: Vec<SpanId> = shuffle_span.into_iter().collect();
        ctx.emit_phase(Phase::Reduce, None, 0, &reduce_phase.attempts, &barrier);
    }

    let mut output = Vec::new();
    let mut reduce_stats = Vec::with_capacity(reducers);
    for (out, stats, task_counters) in reduce_phase.results {
        counters.merge(&task_counters);
        reduce_stats.push(stats);
        output.extend(out);
    }

    Ok(JobResult {
        output,
        report: StageReport {
            name: config.name.clone(),
            map_stats,
            reduce_stats,
            shuffled_pairs,
            shuffled_bytes,
            shuffle_runs,
            counters: counters.snapshot(),
            wall: job_start.elapsed(),
            recovery,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_chaos::{FaultPlan, PlanInjector};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Classic word count over (line_no, line) records.
    struct WcMapper;
    impl Mapper for WcMapper {
        type InKey = usize;
        type InValue = String;
        type OutKey = String;
        type OutValue = u64;
        fn map(&self, _k: usize, line: String, ctx: &mut TaskContext<String, u64>) {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
            ctx.count("lines", 1);
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        type InKey = String;
        type InValue = u64;
        type OutKey = String;
        type OutValue = u64;
        fn reduce(&self, key: String, values: Vec<u64>, ctx: &mut TaskContext<String, u64>) {
            ctx.emit(key, values.iter().sum());
        }
    }

    struct SumCombiner;
    impl Combiner for SumCombiner {
        type Key = String;
        type Value = u64;
        fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }
    }

    fn wc_input() -> Vec<(usize, String)> {
        let text = "the quick brown fox\nthe lazy dog\nthe fox";
        text.lines()
            .enumerate()
            .map(|(i, l)| (i, l.to_string()))
            .collect()
    }

    fn sorted(output: Vec<(String, u64)>) -> Vec<(String, u64)> {
        let mut v = output;
        v.sort();
        v
    }

    /// Run one full job as the only stage of `pipeline`: its output
    /// and the report the pipeline kept.
    fn stage<M, R>(
        mut pipeline: Pipeline,
        input: Vec<(M::InKey, M::InValue)>,
        maps: usize,
        mapper: &M,
        reducer: &R,
        cfg: &JobConfig,
    ) -> Result<JobResult<R::OutKey, R::OutValue>, MrError>
    where
        M: Mapper,
        M::InKey: Clone + Sync,
        M::InValue: Clone + Sync,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        let output = pipeline.run_stage(input, maps, mapper, reducer, cfg)?;
        let report = pipeline.stages()[0].clone();
        Ok(JobResult { output, report })
    }

    /// Word count over [`wc_input`] as the only stage of `pipeline`.
    fn wc(
        pipeline: Pipeline,
        maps: usize,
        cfg: &JobConfig,
    ) -> Result<JobResult<String, u64>, MrError> {
        stage(pipeline, wc_input(), maps, &WcMapper, &SumReducer, cfg)
    }

    /// A pipeline whose stages run under `injector`.
    fn chaos(injector: PlanInjector) -> Pipeline {
        Pipeline::default().with_faults(Arc::new(injector))
    }

    fn expected_wc() -> Vec<(String, u64)> {
        vec![
            ("brown".into(), 1),
            ("dog".into(), 1),
            ("fox".into(), 2),
            ("lazy".into(), 1),
            ("quick".into(), 1),
            ("the".into(), 3),
        ]
    }

    #[test]
    fn word_count_end_to_end() {
        let cfg = JobConfig::named("wc").reducers(3).workers(4);
        let result = wc(Pipeline::default(), 2, &cfg).unwrap();
        assert_eq!(sorted(result.output), expected_wc());
        let report = &result.report;
        assert_eq!(report.name, "wc");
        assert_eq!(report.counter("lines"), 3);
        let records_in: u64 = report.map_stats.iter().map(|s| s.records_in).sum();
        assert_eq!(records_in, 3);
        assert_eq!(report.map_stats.len(), 2);
        assert_eq!(report.reduce_stats.len(), 3);
        assert!(report.recovery.is_clean());
    }

    /// A stage's counters are exactly what its tasks counted: record
    /// counts, shuffle volume and retries have their own fields, and
    /// appear nowhere in `counters`.
    #[test]
    fn counters_hold_only_what_tasks_counted() {
        let cfg = JobConfig::named("wc").reducers(2).workers(2);
        let lines = vec![("lines".to_string(), 3)];
        let full = wc(Pipeline::default(), 2, &cfg).unwrap();
        assert_eq!(full.report.counters, lines);
        assert!(full.report.shuffled_pairs > 0);
        let mut pipeline = Pipeline::default();
        pipeline
            .run_map_stage(wc_input(), 2, &WcMapper, &cfg)
            .unwrap();
        let map_only = &pipeline.stages()[0];
        assert_eq!(map_only.counters, lines);
        assert_eq!(map_only.shuffle_volume(), Default::default());
    }

    #[test]
    fn combiner_reduces_shuffle_volume_same_answer() {
        let cfg = JobConfig::named("wc").reducers(2).workers(2);
        let plain = wc(Pipeline::default(), 3, &cfg).unwrap();
        let mut pipeline = Pipeline::default();
        let combined = pipeline
            .run_stage_with_combiner(wc_input(), 3, &WcMapper, &SumCombiner, &SumReducer, &cfg)
            .unwrap();
        assert_eq!(sorted(plain.output), sorted(combined));
        let combined_pairs = pipeline.stages()[0].shuffled_pairs;
        assert!(
            combined_pairs <= plain.report.shuffled_pairs,
            "combiner must not inflate shuffle: {} vs {}",
            combined_pairs,
            plain.report.shuffled_pairs
        );
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let outs: Vec<Vec<(String, u64)>> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let cfg = JobConfig::named("wc").reducers(4).workers(w);
                sorted(wc(Pipeline::default(), 4, &cfg).unwrap().output)
            })
            .collect();
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn empty_input_empty_output() {
        let cfg = JobConfig::named("wc").reducers(2);
        let result = stage(
            Pipeline::default(),
            Vec::new(),
            4,
            &WcMapper,
            &SumReducer,
            &cfg,
        )
        .unwrap();
        assert!(result.output.is_empty());
    }

    #[test]
    fn more_reducers_than_keys_is_fine() {
        let cfg = JobConfig::named("wc").reducers(64);
        let result = wc(Pipeline::default(), 2, &cfg).unwrap();
        assert_eq!(sorted(result.output), expected_wc());
    }

    #[test]
    fn zero_reducers_rejected() {
        let cfg = JobConfig::named("bad").reducers(0);
        assert!(matches!(
            wc(Pipeline::default(), 1, &cfg),
            Err(MrError::BadConfig(_))
        ));
    }

    #[test]
    fn map_only_preserves_task_order() {
        let cfg = JobConfig::named("m").workers(4);
        let input: Vec<(usize, String)> = (0..100).map(|i| (i, format!("w{i}"))).collect();
        struct Echo;
        impl Mapper for Echo {
            type InKey = usize;
            type InValue = String;
            type OutKey = usize;
            type OutValue = String;
            fn map(&self, k: usize, v: String, ctx: &mut TaskContext<usize, String>) {
                ctx.emit(k, v);
            }
        }
        let mut pipeline = Pipeline::default();
        let output = pipeline.run_map_stage(input, 7, &Echo, &cfg).unwrap();
        let keys: Vec<usize> = output.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        assert_eq!(pipeline.stages()[0].map_stats.len(), 7);
    }

    #[test]
    fn task_panic_becomes_error() {
        struct Bomb;
        impl Mapper for Bomb {
            type InKey = usize;
            type InValue = String;
            type OutKey = String;
            type OutValue = u64;
            fn map(&self, k: usize, _v: String, _ctx: &mut TaskContext<String, u64>) {
                if k == 1 {
                    panic!("injected fault");
                }
            }
        }
        let cfg = JobConfig::named("boom").reducers(1).workers(2);
        match stage(Pipeline::default(), wc_input(), 3, &Bomb, &SumReducer, &cfg) {
            Err(MrError::TaskFailed {
                phase,
                message,
                attempts,
                ..
            }) => {
                assert_eq!(phase, "map");
                assert!(message.contains("injected fault"));
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn first_failure_is_lowest_task_index() {
        /// Panics on every task: the reported failure must always be
        /// the lowest task index, whatever order workers finish in.
        struct AllBomb;
        impl Mapper for AllBomb {
            type InKey = usize;
            type InValue = String;
            type OutKey = String;
            type OutValue = u64;
            fn map(&self, k: usize, _v: String, _ctx: &mut TaskContext<String, u64>) {
                panic!("task input {k} bad");
            }
        }
        for workers in [1, 2, 8] {
            let cfg = JobConfig::named("boom").reducers(1).workers(workers);
            match stage(
                Pipeline::default(),
                wc_input(),
                3,
                &AllBomb,
                &SumReducer,
                &cfg,
            ) {
                Err(MrError::TaskFailed { task, .. }) => assert_eq!(task, 0, "workers={workers}"),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn flaky_task_succeeds_with_retries() {
        use std::sync::atomic::AtomicU32;

        /// Fails its first two executions, then works — a crashy
        /// datanode, Hadoop-style.
        struct Flaky {
            failures_left: AtomicU32,
        }
        impl Mapper for Flaky {
            type InKey = usize;
            type InValue = String;
            type OutKey = String;
            type OutValue = u64;
            fn map(&self, _k: usize, line: String, ctx: &mut TaskContext<String, u64>) {
                let left = self.failures_left.load(Ordering::SeqCst);
                if left > 0
                    && self
                        .failures_left
                        .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    panic!("transient fault");
                }
                for w in line.split_whitespace() {
                    ctx.emit(w.to_string(), 1);
                }
            }
        }

        // Without retries: the job fails.
        let flaky = Flaky {
            failures_left: AtomicU32::new(2),
        };
        let cfg = JobConfig::named("flaky").reducers(2).workers(1);
        assert!(stage(
            Pipeline::default(),
            wc_input(),
            2,
            &flaky,
            &SumReducer,
            &cfg
        )
        .is_err());

        // With an attempt budget: the job recovers and the answer is
        // exactly the clean run's.
        let flaky = Flaky {
            failures_left: AtomicU32::new(2),
        };
        let cfg = JobConfig::named("flaky").reducers(2).workers(1).attempts(4);
        let result = stage(
            Pipeline::default(),
            wc_input(),
            2,
            &flaky,
            &SumReducer,
            &cfg,
        )
        .unwrap();
        assert_eq!(sorted(result.output), expected_wc());
        assert!(result.report.recovery.tasks_retried >= 1);
    }

    #[test]
    fn attempts_builder_floors_at_one() {
        assert_eq!(JobConfig::named("x").attempts(0).max_attempts, 1);
        assert_eq!(JobConfig::named("x").attempts(3).max_attempts, 3);
    }

    #[test]
    fn chunking_is_balanced_and_complete() {
        let chunks = chunk_input((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks.len(), 3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let all: Vec<i32> = chunks.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_more_tasks_than_items() {
        let chunks = chunk_input(vec![1, 2], 5);
        assert_eq!(chunks.len(), 5);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn chunk_ranges_mirror_chunk_input_boundaries() {
        for (len, tasks) in [(10, 3), (2, 5), (0, 4), (7, 1), (16, 4), (13, 8)] {
            let ranges = chunk_ranges(len, tasks);
            let chunks = chunk_input((0..len).collect::<Vec<_>>(), tasks);
            assert_eq!(ranges.len(), chunks.len());
            for (range, chunk) in ranges.iter().zip(&chunks) {
                assert_eq!(&range.clone().collect::<Vec<_>>(), chunk);
            }
        }
        // tasks = 0 is clamped like chunk_input clamps.
        assert_eq!(chunk_ranges(3, 0), vec![0..3]);
    }

    #[test]
    fn reduce_output_sorted_within_partition() {
        // With one reducer, all output keys arrive sorted.
        let cfg = JobConfig::named("sorted").reducers(1);
        let result = wc(Pipeline::default(), 2, &cfg).unwrap();
        let keys: Vec<&String> = result.output.iter().map(|(k, _)| k).collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
    }

    // ---- Fault-injected recovery ----

    #[test]
    fn injected_panics_recovered_identically() {
        let cfg = JobConfig::named("wc").reducers(3).workers(4).attempts(4);
        let clean = wc(Pipeline::default(), 3, &cfg).unwrap();
        let inj = FaultPlan::new()
            .task_panic(0, Phase::Map, 0, 2)
            .task_panic(0, Phase::Map, 2, 1)
            .task_panic(0, Phase::Reduce, 1, 1)
            .injector();
        let chaotic = wc(chaos(inj), 3, &cfg).unwrap();
        assert_eq!(sorted(clean.output), sorted(chaotic.output));
        assert_eq!(chaotic.report.recovery.tasks_retried, 4);
    }

    #[test]
    fn exhausted_attempts_fail_with_attempt_count() {
        let cfg = JobConfig::named("wc").reducers(2).workers(2).attempts(3);
        let inj = FaultPlan::new()
            .task_panic(0, Phase::Map, 1, usize::MAX)
            .injector();
        match wc(chaos(inj), 3, &cfg) {
            Err(MrError::TaskFailed {
                phase,
                task,
                attempts,
                message,
            }) => {
                assert_eq!(phase, "map");
                assert_eq!(task, 1);
                assert_eq!(attempts, 3);
                assert!(message.contains("chaos: injected panic"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn node_death_reexecutes_its_maps() {
        let cfg = JobConfig::named("wc").reducers(3).workers(4).nodes(3);
        let clean = wc(Pipeline::default(), 3, &cfg).unwrap();
        // Node 1 held map task 1 (task % 3 nodes); killing it at the
        // barrier forces one re-execution.
        let inj = FaultPlan::new().node_death_after_map(0, 1).injector();
        let chaotic = wc(chaos(inj), 3, &cfg).unwrap();
        assert_eq!(sorted(clean.output), sorted(chaotic.output));
        assert_eq!(chaotic.report.recovery.maps_reexecuted_node_loss, 1);
    }

    #[test]
    fn speculative_backup_wins_over_straggler() {
        let cfg = JobConfig::named("wc").reducers(2).workers(4);
        let clean = wc(Pipeline::default(), 3, &cfg).unwrap();
        let inj = FaultPlan::new()
            .task_slowdown(0, Phase::Map, 1, 30)
            .injector();
        let chaotic = wc(chaos(inj), 3, &cfg).unwrap();
        assert_eq!(sorted(clean.output), sorted(chaotic.output));
        assert_eq!(chaotic.report.recovery.speculative_wins, 1);
    }

    #[test]
    fn fetch_failures_retry_then_reexecute() {
        let cfg = JobConfig::named("wc").reducers(2).workers(2);
        let clean = wc(Pipeline::default(), 3, &cfg).unwrap();
        // 2 failures: retried, output kept. 5 failures: output lost,
        // map 1 re-executed.
        let inj = FaultPlan::new()
            .shuffle_fetch_fail(0, 0, 1, 2)
            .shuffle_fetch_fail(0, 1, 0, 5)
            .injector();
        let chaotic = wc(chaos(inj), 3, &cfg).unwrap();
        assert_eq!(sorted(clean.output), sorted(chaotic.output));
        assert_eq!(chaotic.report.recovery.shuffle_fetch_retries, 2 + 3);
        assert_eq!(chaotic.report.recovery.maps_reexecuted_fetch_fail, 1);
    }

    #[test]
    fn recovery_counters_reproducible_across_runs_and_workers() {
        let plan = FaultPlan::new()
            .task_panic(0, Phase::Map, 0, 1)
            .task_slowdown(0, Phase::Map, 2, 20)
            .node_death_after_map(0, 2)
            .shuffle_fetch_fail(0, 1, 1, 5);
        let mut ledgers = Vec::new();
        for workers in [1, 2, 4, 4] {
            let cfg = JobConfig::named("wc")
                .reducers(3)
                .workers(workers)
                .attempts(3)
                .nodes(4);
            let inj = plan.clone().injector();
            let result = wc(chaos(inj), 4, &cfg).unwrap();
            assert_eq!(sorted(result.output), expected_wc());
            ledgers.push(result.report.recovery);
        }
        assert!(
            ledgers.windows(2).all(|w| w[0] == w[1]),
            "recovery counters must not depend on worker count or timing: {ledgers:?}"
        );
    }
}
