//! Test support for the MrMC-MinH workspace: every oracle and read
//! generator the tests share, kept once and outside the production
//! crates, plus the `routes_agree` identity harness ([`agree`]).
//!
//! A dev-dependency only (`publish = false`), so `cargo test -p` of any
//! crate builds the workspace. A crate's own `#[cfg(test)]` unit tests
//! see a second build of that crate, whose types differ from the ones
//! these helpers name: they may call a helper whose signature names
//! none of that crate's types (`community::two_species` outside
//! `mrmc-seqio`); every other use lives in the crate's `tests/`.
//!
//! * [`agree`] — P1–P5 on one drawn case, the body of the
//!   `routes_agree` property (`tests/routes_agree.rs`) and of the root
//!   package's fixed-draw smoke test.
//! * [`kernels`] — textbook forms of the sketch, hash and estimator
//!   kernels, the k-mer decoder, the Spearman distance and the LPT
//!   makespan.
//! * [`linkage`] — the first NN-chain, the hierarchy check, the
//!   per-read θ-graph of a grouped one, single linkage as components and
//!   a spanning forest.
//! * [`mod@community`] — two-species and Huse read sets, planted copies,
//!   the harness's community draw, fixed edge reads, a DNA strategy.
//! * [`routes`] — the ungrouped native route, Algorithm 1's scan and
//!   Algorithm 3 through the Pig runner.

pub mod agree;
pub mod community;
pub mod kernels;
pub mod linkage;
pub mod routes;
