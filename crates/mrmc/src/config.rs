//! Configuration of a MrMC-MinH run.

use mrmc_cluster::Linkage;
use mrmc_minhash::{min_agreeing, BandingScheme, MinHasher};

/// Which clustering algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// MrMC-MinH<sup>g</sup>: Algorithm 1.
    Greedy,
    /// MrMC-MinH<sup>h</sup>: Algorithm 2.
    Hierarchical,
}

/// How the *hierarchical* route finds the pairs whose similarity it
/// evaluates. A greedy run ignores it: Algorithm 1 only compares reads
/// with cluster representatives, so it is the sketch stage plus one
/// pass through a [`crate::RepresentativeIndex`] under either value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateGen {
    /// Evaluate every pair (the paper's all-pairs stage) into a dense
    /// matrix. Exact by construction; O(n²) similarity evaluations.
    Dense,
    /// Banded-LSH pruning into a sparse θ-graph: sketches are cut into
    /// bands of hash values, reads sharing any band signature become
    /// candidates, and only candidates are verified. The layout is
    /// always [`MrMcConfig::banding_scheme`] — the pigeonhole tuning of
    /// [`BandingScheme::tune`] for the run's `num_hashes` and θ — so
    /// every pair at or above θ is guaranteed to collide and the
    /// pruning is lossless at the θ cut.
    Banded,
}

/// All knobs of a run: *what* to compute. How — the hash family, the
/// band layout — is derived from these on demand ([`MrMcConfig::hasher`],
/// [`MrMcConfig::banding_scheme`]), so no field can go stale when
/// another is changed. The paper's defaults: k = 5 and n = 100 for
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
    /// Seed for the universal hash parameter draws.
    pub seed: u64,
    /// Map tasks for the sketching stage.
    pub map_tasks: usize,
    /// Candidate generation of the hierarchical route: dense all-pairs
    /// (default, the paper's stage 2) or banded-LSH pruning.
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
            seed: 0x6d72_6d63, // "mrmc"
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

    /// Switch to banded-LSH candidate pruning (exact at the θ cut; the
    /// band layout follows `num_hashes` and θ, whenever they are set).
    pub fn banded(mut self) -> MrMcConfig {
        self.candidates = CandidateGen::Banded;
        self
    }

    /// Switch back to dense all-pairs candidates.
    pub fn dense(mut self) -> MrMcConfig {
        self.candidates = CandidateGen::Dense;
        self
    }

    /// The banding scheme this config implies: the pigeonhole tuning of
    /// [`BandingScheme::tune`] for the current `num_hashes` and θ,
    /// derived on every call. The banded stages bucket under it and the
    /// greedy representative index — batch and streaming — files
    /// founders under it.
    pub fn banding_scheme(&self) -> BandingScheme {
        BandingScheme::tune(self.num_hashes, self.theta)
    }

    /// The sketcher this config implies, built in this one place so the
    /// batch stages, θ suggestion and streaming sessions all hash the
    /// same k-mers: the forward k-mers of each read, as the paper's
    /// `TranslateToKmer` emits them.
    pub fn hasher(&self) -> MinHasher {
        MinHasher::for_kmer_size(self.kmer, self.num_hashes, self.seed)
    }

    /// θ as an agreement count ([`min_agreeing`]): a pair clears θ when
    /// its [`agreements`](mrmc_minhash::agreements) reach it.
    pub fn min_agreeing(&self) -> usize {
        min_agreeing(self.num_hashes, self.theta)
    }

    /// Validate the knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.kmer == 0 || self.kmer > 31 {
            return Err(format!("kmer {} out of range 1..=31", self.kmer));
        }
        // The hash family draws one parameter pair per hash before it
        // reads anything, so an unbounded count from a seed frame or a
        // script is an allocation the process cannot survive. The dense
        // stage's u16 agreement counts bound sketches at this width.
        if self.num_hashes == 0 || self.num_hashes > usize::from(u16::MAX) {
            return Err(format!(
                "num_hashes {} out of range 1..={}",
                self.num_hashes,
                u16::MAX
            ));
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta {} outside [0, 1]", self.theta));
        }
        if self.map_tasks == 0 {
            return Err("map_tasks must be ≥ 1".to_string());
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
    fn banded_builder_and_scheme() {
        assert_eq!(MrMcConfig::default().candidates, CandidateGen::Dense);
        // 16S preset: n = 50, θ = 0.95 → the exact pigeonhole scheme
        // is b = 3, r = 16.
        let c = MrMcConfig::sixteen_s().banded();
        assert_eq!(c.candidates, CandidateGen::Banded);
        assert_eq!(c.banding_scheme(), BandingScheme::new(3, 16));
        assert!(c.validate().is_ok());
        assert_eq!(c.dense().candidates, CandidateGen::Dense);
    }

    /// The scheme follows θ and `num_hashes` however and whenever they
    /// are set — a builder after `.banded()`, a struct update — and is
    /// the same on the dense route (the streaming index uses it there).
    #[test]
    fn banding_scheme_is_always_the_tuned_one() {
        let cfg = MrMcConfig::sixteen_s().greedy();
        for theta in [0.95, 0.90, 0.85, 0.80, 0.5, 1.0] {
            let tuned = BandingScheme::tune(cfg.num_hashes, theta);
            let after = cfg.banded().with_theta(theta);
            let before = cfg.with_theta(theta).banded();
            let update = MrMcConfig {
                theta,
                ..cfg.banded()
            };
            assert_eq!(after, before, "θ = {theta}");
            assert_eq!(after, update, "θ = {theta}");
            assert_eq!(after.banding_scheme(), tuned, "θ = {theta}");
            assert_eq!(after.dense().banding_scheme(), tuned, "θ = {theta}");
            assert!(tuned.guarantees_recall(cfg.num_hashes, theta));
        }
        let wide = MrMcConfig {
            num_hashes: 100,
            ..cfg.banded()
        };
        assert_eq!(wide.banding_scheme(), BandingScheme::tune(100, 0.95));
    }

    /// Knob-shape pin: both patterns are exhaustive, so a ninth field
    /// or a payload on `Banded` cannot land without editing the test
    /// that counts them (8 independently settable values).
    #[test]
    fn knob_shape_is_eight_fields_and_a_bare_tag() {
        let MrMcConfig {
            kmer: _,
            num_hashes: _,
            theta: _,
            mode: _,
            linkage: _,
            seed: _,
            map_tasks: _,
            candidates,
        } = MrMcConfig::default();
        match candidates {
            CandidateGen::Dense => {}
            CandidateGen::Banded => {}
        }
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
        for (num_hashes, ok) in [(0, false), (65_535, true), (65_536, false)] {
            let cfg = MrMcConfig {
                num_hashes,
                ..Default::default()
            };
            assert_eq!(cfg.validate().is_ok(), ok, "num_hashes {num_hashes}");
        }
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
