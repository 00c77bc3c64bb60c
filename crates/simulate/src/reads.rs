//! Sequencing read simulation with error models.
//!
//! Models the two platforms in the paper: Sanger-like shotgun reads
//! (Table II's 1 000 bp reads) and 454/Roche pyrosequencing amplicons
//! (Tables I/IV), whose signature error mode is homopolymer-length
//! miscalls — implemented as extra indel probability inside runs of a
//! repeated base.

use rand::rngs::StdRng;
use rand::Rng;

use crate::genome::mutate_base;

/// Per-base error probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Substitution probability per base.
    pub substitution: f64,
    /// Insertion probability per base.
    pub insertion: f64,
    /// Deletion probability per base.
    pub deletion: f64,
    /// Extra indel probability applied inside homopolymer runs
    /// (length ≥ 3) — the 454 signature.
    pub homopolymer: f64,
}

impl ErrorModel {
    /// No errors.
    pub fn perfect() -> ErrorModel {
        ErrorModel {
            substitution: 0.0,
            insertion: 0.0,
            deletion: 0.0,
            homopolymer: 0.0,
        }
    }

    /// An error model with total error ~`rate`, split 80 % subs /
    /// 10 % ins / 10 % del (the Huse benchmark's "reads with up to
    /// 3 %/5 % error" knob).
    pub fn with_total_rate(rate: f64) -> ErrorModel {
        ErrorModel {
            substitution: rate * 0.8,
            insertion: rate * 0.1,
            deletion: rate * 0.1,
            homopolymer: rate * 0.2,
        }
    }

    /// Pyrosequencing-flavoured model: mostly homopolymer indels.
    pub fn pyrosequencing(rate: f64) -> ErrorModel {
        ErrorModel {
            substitution: rate * 0.3,
            insertion: rate * 0.1,
            deletion: rate * 0.1,
            homopolymer: rate * 0.5,
        }
    }
}

/// Draws reads from genomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimulator {
    /// Read length (exact; reads near the 3' end are truncated).
    pub read_len: usize,
    /// Error model applied per read.
    pub errors: ErrorModel,
}

impl ReadSimulator {
    /// Simulator for fixed-length reads.
    pub fn new(read_len: usize, errors: ErrorModel) -> ReadSimulator {
        assert!(read_len > 0, "read length must be positive");
        ReadSimulator { read_len, errors }
    }

    /// Sample one read from a uniformly random start position.
    pub fn read_from(&self, genome: &[u8], rng: &mut StdRng) -> Vec<u8> {
        assert!(!genome.is_empty(), "cannot read from an empty genome");
        let max_start = genome.len().saturating_sub(self.read_len);
        let start = if max_start == 0 {
            0
        } else {
            rng.random_range(0..=max_start)
        };
        let end = (start + self.read_len).min(genome.len());
        self.apply_errors(&genome[start..end], rng)
    }

    /// Corrupt a template according to the error model.
    pub fn apply_errors(&self, template: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let e = &self.errors;
        let mut out = Vec::with_capacity(template.len() + 4);
        let mut run_len = 0usize;
        let mut prev = 0u8;
        for &c in template {
            run_len = if c == prev { run_len + 1 } else { 1 };
            prev = c;
            let in_homopolymer = run_len >= 3;
            let extra = if in_homopolymer { e.homopolymer } else { 0.0 };

            let r = rng.random::<f64>();
            if r < e.deletion + extra / 2.0 {
                continue; // base dropped
            }
            if r < e.deletion + extra / 2.0 + e.insertion + extra / 2.0 {
                // Insertion: duplicate within homopolymers (the 454
                // overcall), random base otherwise.
                out.push(if in_homopolymer {
                    c
                } else {
                    mutate_base(c, rng)
                });
            }
            if rng.random::<f64>() < e.substitution {
                out.push(mutate_base(c, rng));
            } else {
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::random_genome;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn perfect_reads_are_substrings() {
        let mut r = rng(1);
        let g = random_genome(5_000, 0.5, &mut r);
        let sim = ReadSimulator::new(100, ErrorModel::perfect());
        for _ in 0..20 {
            let read = sim.read_from(&g, &mut r);
            assert_eq!(read.len(), 100);
            let found = g.windows(100).any(|w| w == &read[..]);
            assert!(found, "read not a substring");
        }
    }

    #[test]
    fn error_rate_roughly_matches() {
        let mut r = rng(2);
        let g = random_genome(200, 0.5, &mut r);
        let sim = ReadSimulator::new(
            200,
            ErrorModel {
                substitution: 0.05,
                insertion: 0.0,
                deletion: 0.0,
                homopolymer: 0.0,
            },
        );
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let read = sim.apply_errors(&g, &mut r);
            assert_eq!(read.len(), g.len());
            mismatches += read.iter().zip(&g).filter(|(a, b)| a != b).count();
            total += g.len();
        }
        let rate = mismatches as f64 / total as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn short_genome_truncates_read() {
        let mut r = rng(3);
        let g = b"ACGTACGT".to_vec();
        let sim = ReadSimulator::new(100, ErrorModel::perfect());
        let read = sim.read_from(&g, &mut r);
        assert_eq!(read, g);
    }

    #[test]
    fn homopolymer_errors_target_runs() {
        let mut r = rng(4);
        // Template with a long homopolymer; only homopolymer errors on.
        let template = b"ACGTAAAAAAAAAAACGT".to_vec();
        let sim = ReadSimulator::new(
            template.len(),
            ErrorModel {
                substitution: 0.0,
                insertion: 0.0,
                deletion: 0.0,
                homopolymer: 0.3,
            },
        );
        let mut changed = 0usize;
        for _ in 0..100 {
            let read = sim.apply_errors(&template, &mut r);
            if read != template {
                changed += 1;
                // Length changes only (indels), and the A-run is what
                // shrinks or grows.
                let a_count = read.iter().filter(|&&c| c == b'A').count();
                assert_ne!(a_count, 0);
            }
        }
        assert!(changed > 30, "homopolymer errors too rare: {changed}");
    }

    #[test]
    fn with_total_rate_components() {
        let e = ErrorModel::with_total_rate(0.05);
        assert!((e.substitution + e.insertion + e.deletion - 0.05).abs() < 1e-12);
        assert!(e.substitution > e.insertion);
    }

    #[test]
    #[should_panic(expected = "empty genome")]
    fn empty_genome_panics() {
        let sim = ReadSimulator::new(10, ErrorModel::perfect());
        sim.read_from(&[], &mut rng(0));
    }
}
