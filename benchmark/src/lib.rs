//! One end-to-end, layer-attributed benchmark for the four MrMC-MinH routes:
//! FASTA bytes in, cluster labels out.
//!
//! The library holds what the two binaries share — flags, seeded inputs, the
//! untraced routes, output checks and reporting. `perf` times the routes
//! with tracing off; `perf-trace` drives the same workloads layer by layer
//! through the crates' public functions under spans and a counting
//! allocator. See `README.md` for the metric glossary and the baseline.

pub mod check;
pub mod cli;
pub mod measure;
pub mod report;
pub mod route;
pub mod stats;
pub mod suite;
pub mod workload;
