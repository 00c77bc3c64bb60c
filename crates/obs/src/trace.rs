//! The span ledger: spans, instant events, and the [`Tracer`] that
//! collects them.
//!
//! # Determinism contract
//!
//! Producers must append to the ledger from *deterministic,
//! single-threaded* program points (the engine merges worker-local
//! attempt buffers after each phase's pool drains; the simulator is
//! single-threaded by construction). Under that discipline span ids,
//! dependency edges, ordering and metadata depend only on the input
//! and the fault plan — never on thread timing — so
//! [`TraceLedger::signature`] is bit-identical across runs with the
//! same seed. Only `start_ns` / `dur_ns` / `ts_ns` carry wall-clock
//! and are excluded from the signature.

use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within one ledger (assigned sequentially).
pub type SpanId = u64;

/// Coarse cost category of a span, the unit of critical-path
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// First-attempt task work (map or reduce bodies).
    Compute,
    /// Moving intermediate data: the shuffle barrier / copy phase.
    Shuffle,
    /// Fixed costs: job setup/teardown, task launch.
    Overhead,
    /// Work that exists only because something failed: retries,
    /// speculative backups, re-executed maps, fetch retries.
    Recovery,
    /// Request-path work in the serving layer (`mrmc-server`):
    /// micro-batch admission waits and incremental assignment. Serve
    /// spans are emitted from concurrent connection/worker threads, so
    /// unlike engine spans they carry no determinism contract — they
    /// are excluded from signature-equality tests.
    Serve,
    /// One Pig operator executing in the script driver
    /// (LOAD/FOREACH/GROUP/STORE). Operator spans *wrap* the engine
    /// spans of the Map-Reduce jobs they lower to, so a scripted run's
    /// critical path can be attributed operator-by-operator (the span
    /// name carries the operator and alias, e.g. `pig:foreach:C`).
    Pig,
}

/// All categories, in attribution-report order.
pub const CATEGORIES: [Category; 6] = [
    Category::Compute,
    Category::Shuffle,
    Category::Overhead,
    Category::Recovery,
    Category::Serve,
    Category::Pig,
];

impl Category {
    /// Stable lowercase name (used in exports and reports).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Shuffle => "shuffle",
            Category::Overhead => "overhead",
            Category::Recovery => "recovery",
            Category::Serve => "serve",
            Category::Pig => "pig",
        }
    }
}

/// One completed span: a named interval of work attributed to a job,
/// optionally to a task attempt and a scheduling lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Ledger-unique id (sequential).
    pub id: SpanId,
    /// Job ordinal within the ledger (assigned by [`Tracer::begin_job`]).
    pub job: u32,
    /// Span name ("map", "reduce", "shuffle", "job:setup", …).
    pub name: String,
    /// Cost category for critical-path attribution.
    pub category: Category,
    /// Task index within its phase, when the span is a task attempt.
    pub task: Option<usize>,
    /// Attempt ordinal (retries and speculative backups get fresh ids).
    pub attempt: Option<usize>,
    /// Scheduling lane (virtual slot) when known — simulated traces
    /// know their slot; real-pool traces leave it `None` and the
    /// exporters assign display lanes greedily.
    pub lane: Option<usize>,
    /// Start, nanoseconds since the tracer epoch (wall-clock for real
    /// runs, simulated time for simulated runs).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Spans this one could not start before: retry edges (previous
    /// attempt of the same task), barrier edges (shuffle ← all maps,
    /// reduce ← shuffle), and lane edges (previous span on the same
    /// simulated slot).
    pub deps: Vec<SpanId>,
    /// Small key/value annotations (counts, flags, error text).
    pub meta: Vec<(String, String)>,
}

impl Span {
    /// End timestamp, nanoseconds since epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A span under construction: everything except the ledger-assigned id.
#[derive(Debug, Clone)]
pub struct SpanDraft {
    /// See [`Span::job`].
    pub job: u32,
    /// See [`Span::name`].
    pub name: String,
    /// See [`Span::category`].
    pub category: Category,
    /// See [`Span::task`].
    pub task: Option<usize>,
    /// See [`Span::attempt`].
    pub attempt: Option<usize>,
    /// See [`Span::lane`].
    pub lane: Option<usize>,
    /// See [`Span::start_ns`].
    pub start_ns: u64,
    /// See [`Span::dur_ns`].
    pub dur_ns: u64,
    /// See [`Span::deps`].
    pub deps: Vec<SpanId>,
    /// See [`Span::meta`].
    pub meta: Vec<(String, String)>,
}

impl SpanDraft {
    /// A minimal draft; builder methods fill in the rest.
    pub fn new(job: u32, name: impl Into<String>, category: Category) -> SpanDraft {
        SpanDraft {
            job,
            name: name.into(),
            category,
            task: None,
            attempt: None,
            lane: None,
            start_ns: 0,
            dur_ns: 0,
            deps: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Builder: task + attempt identity.
    pub fn task_attempt(mut self, task: usize, attempt: usize) -> SpanDraft {
        self.task = Some(task);
        self.attempt = Some(attempt);
        self
    }

    /// Builder: scheduling lane.
    pub fn lane(mut self, lane: usize) -> SpanDraft {
        self.lane = Some(lane);
        self
    }

    /// Builder: time interval in nanoseconds since the tracer epoch.
    pub fn at(mut self, start_ns: u64, dur_ns: u64) -> SpanDraft {
        self.start_ns = start_ns;
        self.dur_ns = dur_ns;
        self
    }

    /// Builder: add a dependency edge.
    pub fn dep(mut self, id: SpanId) -> SpanDraft {
        self.deps.push(id);
        self
    }

    /// Builder: add dependency edges.
    pub fn deps(mut self, ids: impl IntoIterator<Item = SpanId>) -> SpanDraft {
        self.deps.extend(ids);
        self
    }

    /// Builder: add a metadata entry.
    pub fn meta(mut self, key: impl Into<String>, value: impl ToString) -> SpanDraft {
        self.meta.push((key.into(), value.to_string()));
        self
    }
}

/// An instant event — something that happened at a point in time
/// (a panic, a node death, one shuffle run moving).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Job ordinal within the ledger.
    pub job: u32,
    /// Event name ("panic", "node_death", "shuffle_run", …).
    pub name: String,
    /// Timestamp, nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Small key/value annotations.
    pub meta: Vec<(String, String)>,
}

/// An immutable snapshot of everything a [`Tracer`] collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLedger {
    /// Job names, indexed by job ordinal.
    pub jobs: Vec<String>,
    /// Completed spans, in emission order.
    pub spans: Vec<Span>,
    /// Instant events, in emission order.
    pub events: Vec<Event>,
}

impl TraceLedger {
    /// The canonical timestamp-free rendering of the ledger: one line
    /// per job, span and event carrying everything *except*
    /// `start_ns` / `dur_ns` / `ts_ns`. Two runs with the same seed
    /// (and the same fault plan) must produce identical signatures —
    /// the determinism property the trace tests assert.
    pub fn signature(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.jobs.len() + self.spans.len() + self.events.len());
        for (i, name) in self.jobs.iter().enumerate() {
            lines.push(format!("job {i} {name}"));
        }
        for s in &self.spans {
            lines.push(format!(
                "span {} j{} {} cat={} task={:?} attempt={:?} lane={:?} deps={:?} meta={:?}",
                s.id,
                s.job,
                s.name,
                s.category.name(),
                s.task,
                s.attempt,
                s.lane,
                s.deps,
                s.meta
            ));
        }
        for e in &self.events {
            lines.push(format!("event j{} {} meta={:?}", e.job, e.name, e.meta));
        }
        lines
    }

    /// Earliest span start (0 for an empty ledger).
    pub fn origin_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0)
    }

    /// Latest span end (0 for an empty ledger).
    pub fn horizon_ns(&self) -> u64 {
        self.spans.iter().map(Span::end_ns).max().unwrap_or(0)
    }

    /// Total traced makespan: latest end minus earliest start.
    pub fn makespan_ns(&self) -> u64 {
        self.horizon_ns().saturating_sub(self.origin_ns())
    }
}

struct Inner {
    jobs: Vec<String>,
    spans: Vec<Span>,
    events: Vec<Event>,
}

/// The collector. Cheap to share (`Arc<Tracer>`), with one short
/// mutex section per *merge* (a whole phase's worth of spans), not per
/// record — workers never touch the lock.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("tracer lock");
        f.debug_struct("Tracer")
            .field("jobs", &inner.jobs.len())
            .field("spans", &inner.spans.len())
            .field("events", &inner.events.len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer whose epoch is *now*.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                spans: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    /// Nanoseconds since the tracer epoch, right now.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Convert a captured [`Instant`] into nanoseconds since the
    /// epoch (clamped to 0 for instants predating the tracer).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Register a job; returns its ordinal. Called once per job, in
    /// submission order.
    pub fn begin_job(&self, name: &str) -> u32 {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.jobs.push(name.to_string());
        (inner.jobs.len() - 1) as u32
    }

    /// Append a completed span; returns its ledger id.
    pub fn add_span(&self, draft: SpanDraft) -> SpanId {
        let mut inner = self.inner.lock().expect("tracer lock");
        let id = inner.spans.len() as SpanId;
        inner.spans.push(Span {
            id,
            job: draft.job,
            name: draft.name,
            category: draft.category,
            task: draft.task,
            attempt: draft.attempt,
            lane: draft.lane,
            start_ns: draft.start_ns,
            dur_ns: draft.dur_ns,
            deps: draft.deps,
            meta: draft.meta,
        });
        id
    }

    /// Append an instant event.
    pub fn add_event(
        &self,
        job: u32,
        name: impl Into<String>,
        ts_ns: u64,
        meta: Vec<(String, String)>,
    ) {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.events.push(Event {
            job,
            name: name.into(),
            ts_ns,
            meta,
        });
    }

    /// Snapshot the ledger collected so far.
    pub fn ledger(&self) -> TraceLedger {
        let inner = self.inner.lock().expect("tracer lock");
        TraceLedger {
            jobs: inner.jobs.clone(),
            spans: inner.spans.clone(),
            events: inner.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_sequential_and_ledger_snapshots() {
        let t = Tracer::new();
        let job = t.begin_job("j");
        assert_eq!(job, 0);
        let a = t.add_span(SpanDraft::new(job, "map", Category::Compute).at(0, 10));
        let b = t.add_span(
            SpanDraft::new(job, "map", Category::Recovery)
                .task_attempt(0, 1)
                .dep(a)
                .at(10, 5),
        );
        assert_eq!((a, b), (0, 1));
        t.add_event(job, "panic", 9, vec![("task".into(), "0".into())]);
        let ledger = t.ledger();
        assert_eq!(ledger.jobs, vec!["j"]);
        assert_eq!(ledger.spans.len(), 2);
        assert_eq!(ledger.spans[1].deps, vec![0]);
        assert_eq!(ledger.events.len(), 1);
        assert_eq!(ledger.makespan_ns(), 15);
    }

    #[test]
    fn signature_ignores_timestamps() {
        let build = |shift: u64| {
            let t = Tracer::new();
            let job = t.begin_job("wc");
            let a = t.add_span(
                SpanDraft::new(job, "map", Category::Compute)
                    .task_attempt(3, 0)
                    .at(shift, 100 + shift),
            );
            t.add_span(
                SpanDraft::new(job, "shuffle", Category::Shuffle)
                    .dep(a)
                    .at(shift + 100, 7)
                    .meta("runs", 4),
            );
            t.add_event(
                job,
                "shuffle_run",
                shift + 101,
                vec![("map".into(), "3".into())],
            );
            t.ledger().signature()
        };
        assert_eq!(build(0), build(12345));
    }

    #[test]
    fn signature_sees_structural_differences() {
        let t1 = Tracer::new();
        let j = t1.begin_job("a");
        t1.add_span(SpanDraft::new(j, "map", Category::Compute).task_attempt(0, 0));
        let t2 = Tracer::new();
        let j = t2.begin_job("a");
        t2.add_span(SpanDraft::new(j, "map", Category::Recovery).task_attempt(0, 0));
        assert_ne!(t1.ledger().signature(), t2.ledger().signature());
    }

    #[test]
    fn category_names_stable() {
        let names: Vec<&str> = CATEGORIES.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec!["compute", "shuffle", "overhead", "recovery", "serve", "pig"]
        );
    }
}
