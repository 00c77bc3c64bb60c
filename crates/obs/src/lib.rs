//! Structured job tracing for the simulated Hadoop substrate.
//!
//! The paper's central empirical claim (Figure 2) is a *timing* story —
//! speedup that saturates when 2–12 nodes cannot be kept busy — but a
//! flat per-task `TaskStats` list cannot say *why* a stage is slow:
//! straggler, shuffle wait, or recovery re-execution. Hadoop answers
//! this with the JobHistory / timeline server; this crate is our
//! equivalent:
//!
//! * [`Tracer`] — a structured event ledger. The engine records task
//!   attempt lifecycle (start/finish/panic/retry/speculative win),
//!   shuffle run movement, combiner activity and every chaos recovery
//!   action as [`Span`]s and instant [`Event`]s. Recording is
//!   lock-cheap: workers buffer per-attempt records locally and the
//!   engine merges them into the ledger once per phase, in canonical
//!   (task, attempt) order, so two runs with the same seed produce
//!   ledgers that are identical modulo wall-clock timestamps
//!   ([`TraceLedger::signature`]).
//! * [`chrome_trace`] — a Chrome `trace_event`-format JSON exporter;
//!   the output loads directly in `chrome://tracing` or Perfetto, for
//!   real *and* simulated-time traces.
//! * [`critical_path`] — walks the span dependency DAG (map → shuffle
//!   barrier → reduce, plus retry edges and scheduling lanes) and
//!   reports the longest chain with per-category attribution
//!   (compute / shuffle / overhead / recovery).
//!
//! The crate is dependency-free and sits *below* `mrmc-mapreduce` in
//! the workspace graph: the engine, the simulated cluster, the daemon
//! and the bench binaries all emit into the same ledger types.

//! A second, live-serving observability surface sits alongside the
//! ledger: [`metrics`] is a deterministic registry of counters, gauges
//! and log2-bucketed histograms (exact-from-bucket percentiles,
//! snapshot/delta semantics), [`dashboard`] renders a snapshot as an
//! ASCII dashboard, and [`json`] is the shared JSON document builder
//! both the metrics plane and the bench harness render through.

pub mod chrome;
pub mod critical;
pub mod dashboard;
pub mod json;
pub mod metrics;
pub mod trace;

pub use chrome::chrome_trace;
pub use critical::{critical_path, CriticalPath, PathStep};
pub use dashboard::render_dashboard;
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{Category, Event, Span, SpanDraft, SpanId, TraceLedger, Tracer};
