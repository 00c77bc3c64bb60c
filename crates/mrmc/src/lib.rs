//! **MrMC-MinH** — Map-Reduce metagenome clustering with minwise
//! hashing (Rasheed & Rangwala, IPPS 2013), the paper's primary
//! contribution.
//!
//! Two clustering modes over minhash sketches of k-mer feature sets:
//!
//! * **MrMC-MinH<sup>g</sup>** (greedy, Algorithm 1) — incremental,
//!   representative-based, fast;
//! * **MrMC-MinH<sup>h</sup>** (hierarchical, Algorithm 2) — all-pairs
//!   sketch similarity matrix (computed by row partitioning across the
//!   Map-Reduce substrate) + agglomerative clustering with
//!   single/average/complete linkage and a θ cutoff.
//!
//! # Quickstart
//!
//! ```
//! use mrmc::{MrMcConfig, MrMcMinH, Mode};
//! use mrmc_seqio::SeqRecord;
//!
//! let reads = vec![
//!     SeqRecord::new("a1", b"ACGTACGTACGTACGTTTTT".to_vec()),
//!     SeqRecord::new("a2", b"ACGTACGTACGTACGTTTTT".to_vec()),
//!     SeqRecord::new("b1", b"GGGGCCCCGGGGCCCCAAAA".to_vec()),
//! ];
//! let config = MrMcConfig {
//!     kmer: 5,
//!     num_hashes: 64,
//!     theta: 0.9,
//!     mode: Mode::Hierarchical,
//!     ..Default::default()
//! };
//! let result = MrMcMinH::new(config).run(&reads).unwrap();
//! assert_eq!(result.assignment.num_clusters(), 2);
//! ```
//!
//! The [`udfs`] module additionally exposes the algorithm as the Pig
//! UDFs of the paper's Algorithm 3 (`FastaStorage`,
//! `CalculateMinwiseHash`, …) so the published script runs end-to-end
//! on the [`mrmc_pig`] engine; [`scaling`] drives the Figure 2
//! cluster-scaling experiment on the simulated-time model.

pub mod banded;
pub mod config;
pub mod incremental;
pub mod pipeline;
pub mod scaling;
pub mod stages;
pub mod threshold;
pub mod udfs;

pub use banded::{banded_candidates, banded_graph_stage};
pub use config::{CandidateGen, Mode, MrMcConfig};
pub use incremental::{IncrementalClusterer, RepresentativeIndex};
pub use pipeline::{MrMcMinH, MrMcResult};
pub use scaling::CostCalibration;
pub use threshold::{otsu_threshold, suggest_theta};
pub use udfs::{algorithm3_script, register_mrmc_udfs};
