//! **mrmc-server** — clustering as a service.
//!
//! The paper frames binning as a pre-processing step inside workflows
//! that receive reads continuously (§I); the batch pipeline answers
//! "cluster this corpus", this crate answers "and keep clustering
//! whatever arrives next, in milliseconds, without re-running the
//! job". A long-running daemon maintains per-tenant sessions, each
//! wrapping an [`mrmc::IncrementalClusterer`] seeded from a finished
//! batch run, and assigns newly submitted reads by micro-batching
//! them through a bounded admission queue onto a worker pool.
//!
//! * [`protocol`] — the typed length-prefixed binary protocol (LEB128
//!   varints shared with the shuffle wire format, total decoding, a
//!   [`ProtocolError`] taxonomy mirroring `WireError`).
//! * [`quota`] — admission control: bounded queue depth and byte
//!   quotas with explicit `Busy` / `QuotaExceeded` answers instead of
//!   unbounded buffering.
//! * [`session`] — per-tenant state: seeded clusterer, read→label
//!   index, admission ledger.
//! * [`server`] — the daemon: accept loop, worker pool, concurrent
//!   multi-session scheduling, graceful drain, and live `serve.*`
//!   metrics (per-tenant latency/batch-size histograms, admission
//!   gauges, queue gauges) into an [`mrmc_obs::MetricsRegistry`] a
//!   client snapshots with `Request::ServerStats`. Its
//!   [`mrmc_obs::Tracer`] records only the daemon's lifecycle (a job
//!   and its `listening` and `drain` events), never a request.
//! * [`client`] — the thin blocking client the `mrmc-client` binary
//!   and the tests drive.
//!
//! See DESIGN.md §7 ("Serving layer") for the frame layout, session
//! lifecycle and admission-control rules.

pub mod client;
pub mod protocol;
pub mod quota;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, SubmitOutcome};
pub use protocol::{
    ErrorCode, ProtocolError, Request, Response, SeedConfig, SessionStats, WireRead, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use quota::{AdmissionLedger, AdmissionLimits, AdmissionReject};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{Session, SessionError};
