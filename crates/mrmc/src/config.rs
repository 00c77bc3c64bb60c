//! Configuration of a MrMC-MinH run.

use mrmc_cluster::Linkage;
use mrmc_minhash::{BandingScheme, MinHasher};

/// Which clustering algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// MrMC-MinH<sup>g</sup>: Algorithm 1.
    Greedy,
    /// MrMC-MinH<sup>h</sup>: Algorithm 2.
    Hierarchical,
}

/// Sketch-similarity estimator (the ablation of DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Fraction of agreeing sketch positions (Eq. 3's collision
    /// probability; unbiased).
    Positional,
    /// `|values_a ∩ values_b| / |values_a ∪ values_b|` on sketch
    /// values, as literally written in Algorithm 1 line 9.
    SetBased,
}

/// How the pipeline finds the pairs whose similarity it evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateGen {
    /// Evaluate every pair (the paper's all-pairs stage). Exact by
    /// construction; O(n²) similarity evaluations.
    Dense,
    /// Banded-LSH pruning: sketches are cut into `bands` bands of
    /// `rows` hash values, reads sharing any band signature become
    /// candidates, and only candidates are verified. With the
    /// auto-tuned `(bands, rows)` (see [`BandingScheme::tune`]) every
    /// pair at or above θ is guaranteed to collide, so the pruning is
    /// lossless at the θ cut.
    Banded {
        /// Number of bands `b`.
        bands: usize,
        /// Hash values per band `r` (`b·r ≤ num_hashes`).
        rows: usize,
    },
}

/// All knobs of a run. The paper's defaults: k = 5 and n = 100 for
/// whole metagenomes (Table III), k = 15 and n = 50 for 16S
/// (Table V), θ = 0.95.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrMcConfig {
    /// k-mer size (`$KMER`).
    pub kmer: usize,
    /// Number of hash functions / sketch length (`$NUMHASH`).
    pub num_hashes: usize,
    /// Similarity threshold θ (`$CUTOFF`).
    pub theta: f64,
    /// Greedy or hierarchical.
    pub mode: Mode,
    /// Linkage policy for hierarchical mode (`$LINK`).
    pub linkage: Linkage,
    /// Similarity estimator.
    pub estimator: Estimator,
    /// Seed for the universal hash parameter draws.
    pub seed: u64,
    /// Use canonical (strand-independent) k-mers — the Mash-style
    /// extension for randomly-oriented shotgun reads; the paper's
    /// pipeline is strand-sensitive (false).
    pub canonical: bool,
    /// Map tasks for the sketching stage.
    pub map_tasks: usize,
    /// Candidate generation: dense all-pairs (default, the paper's
    /// stage 2) or banded-LSH pruning.
    pub candidates: CandidateGen,
}

impl Default for MrMcConfig {
    fn default() -> Self {
        MrMcConfig {
            kmer: 5,
            num_hashes: 100,
            theta: 0.95,
            mode: Mode::Hierarchical,
            linkage: Linkage::Average,
            estimator: Estimator::Positional,
            seed: 0x6d72_6d63, // "mrmc"
            canonical: false,
            map_tasks: 16,
            candidates: CandidateGen::Dense,
        }
    }
}

impl MrMcConfig {
    /// The paper's whole-metagenome setting (Table III): k = 5,
    /// n = 100 hashes.
    pub fn whole_metagenome() -> MrMcConfig {
        MrMcConfig::default()
    }

    /// The paper's 16S setting (Table V): k = 15, n = 50 hashes,
    /// θ = 0.95.
    pub fn sixteen_s() -> MrMcConfig {
        MrMcConfig {
            kmer: 15,
            num_hashes: 50,
            ..Default::default()
        }
    }

    /// Switch to greedy mode.
    pub fn greedy(mut self) -> MrMcConfig {
        self.mode = Mode::Greedy;
        self
    }

    /// Switch to hierarchical mode.
    pub fn hierarchical(mut self) -> MrMcConfig {
        self.mode = Mode::Hierarchical;
        self
    }

    /// Set θ.
    pub fn with_theta(mut self, theta: f64) -> MrMcConfig {
        self.theta = theta;
        self
    }

    /// Switch to banded-LSH candidate pruning with `(bands, rows)`
    /// auto-tuned from `num_hashes` and θ so that recall at the θ cut
    /// is exactly 1 (the pigeonhole rule of [`BandingScheme::tune`]).
    pub fn banded(mut self) -> MrMcConfig {
        let scheme = BandingScheme::tune(self.num_hashes, self.theta);
        self.candidates = CandidateGen::Banded {
            bands: scheme.bands,
            rows: scheme.rows,
        };
        self
    }

    /// Switch to banded-LSH pruning with explicit `(bands, rows)` —
    /// for studying the recall/pruning trade-off off the exact point.
    pub fn banded_with(mut self, bands: usize, rows: usize) -> MrMcConfig {
        self.candidates = CandidateGen::Banded { bands, rows };
        self
    }

    /// Switch back to dense all-pairs candidates.
    pub fn dense(mut self) -> MrMcConfig {
        self.candidates = CandidateGen::Dense;
        self
    }

    /// The banding scheme this config implies: the configured
    /// `(bands, rows)` in banded mode, the auto-tuned exact scheme
    /// otherwise.
    pub fn banding_scheme(&self) -> BandingScheme {
        match self.candidates {
            CandidateGen::Banded { bands, rows } => BandingScheme::new(bands, rows),
            CandidateGen::Dense => BandingScheme::tune(self.num_hashes, self.theta),
        }
    }

    /// The sketcher this config implies — the one place the `canonical`
    /// knob is applied, so the batch stages, θ suggestion and streaming
    /// sessions all hash the same k-mers.
    pub fn hasher(&self) -> MinHasher {
        let hasher = MinHasher::for_kmer_size(self.kmer, self.num_hashes, self.seed);
        if self.canonical {
            hasher.canonical()
        } else {
            hasher
        }
    }

    /// Validate the knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.kmer == 0 || self.kmer > 31 {
            return Err(format!("kmer {} out of range 1..=31", self.kmer));
        }
        if self.num_hashes == 0 {
            return Err("num_hashes must be ≥ 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta {} outside [0, 1]", self.theta));
        }
        if self.map_tasks == 0 {
            return Err("map_tasks must be ≥ 1".to_string());
        }
        if let CandidateGen::Banded { bands, rows } = self.candidates {
            if bands == 0 || rows == 0 {
                return Err("banding needs bands ≥ 1 and rows ≥ 1".to_string());
            }
            if bands * rows > self.num_hashes {
                return Err(format!(
                    "banding {bands}×{rows} exceeds the {} sketch positions",
                    self.num_hashes
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let w = MrMcConfig::whole_metagenome();
        assert_eq!((w.kmer, w.num_hashes), (5, 100));
        let s = MrMcConfig::sixteen_s();
        assert_eq!((s.kmer, s.num_hashes), (15, 50));
        assert_eq!(s.theta, 0.95);
    }

    #[test]
    fn builders() {
        let c = MrMcConfig::default().greedy().with_theta(0.8);
        assert_eq!(c.mode, Mode::Greedy);
        assert_eq!(c.theta, 0.8);
        assert_eq!(c.hierarchical().mode, Mode::Hierarchical);
    }

    #[test]
    fn banded_builders_and_scheme() {
        assert_eq!(MrMcConfig::default().candidates, CandidateGen::Dense);
        // 16S preset: n = 50, θ = 0.95 → the exact pigeonhole scheme
        // is b = 3, r = 16.
        let c = MrMcConfig::sixteen_s().banded();
        assert_eq!(c.candidates, CandidateGen::Banded { bands: 3, rows: 16 });
        let s = c.banding_scheme();
        assert!(s.guarantees_recall(c.num_hashes, c.theta));
        assert!(c.validate().is_ok());
        assert_eq!(c.dense().candidates, CandidateGen::Dense);

        let manual = MrMcConfig::sixteen_s().banded_with(5, 10);
        assert_eq!(
            manual.candidates,
            CandidateGen::Banded { bands: 5, rows: 10 }
        );
        assert!(manual.validate().is_ok());
    }

    #[test]
    fn banded_validation() {
        // b·r beyond the sketch length is rejected.
        assert!(MrMcConfig::sixteen_s()
            .banded_with(10, 6)
            .validate()
            .is_err());
        assert!(MrMcConfig::sixteen_s()
            .banded_with(0, 5)
            .validate()
            .is_err());
        assert!(MrMcConfig::sixteen_s()
            .banded_with(5, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn validation() {
        assert!(MrMcConfig::default().validate().is_ok());
        assert!(MrMcConfig {
            kmer: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrMcConfig {
            kmer: 32,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrMcConfig {
            num_hashes: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrMcConfig {
            theta: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrMcConfig {
            map_tasks: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
