//! Unsupervised θ selection for whole-metagenome runs.
//!
//! The paper fixes θ = 0.95 for 16S (where within-OTU identity is a
//! community convention) but never states θ for the whole-metagenome
//! experiments, where the composition-similarity scale depends on the
//! sample. This module picks θ from the data: sketch a read
//! subsample, histogram the pairwise sketch similarities, and take the
//! **Otsu threshold** — the split maximizing inter-class variance —
//! which lands between the within-genome mode and the cross-genome
//! mode whenever the sample is separable at all.

use crate::config::MrMcConfig;
use mrmc_minhash::positional_similarity;
use mrmc_seqio::SeqRecord;

/// Otsu's method on a slice of values in `[0, 1]`: the threshold
/// maximizing between-class variance over a 64-bin histogram.
/// Returns 0.5 for empty input.
pub fn otsu_threshold(values: &[f64]) -> f64 {
    const BINS: usize = 64;
    if values.is_empty() {
        return 0.5;
    }
    let mut hist = [0usize; BINS];
    for &v in values {
        let b = ((v.clamp(0.0, 1.0)) * (BINS as f64 - 1.0)).round() as usize;
        hist[b] += 1;
    }
    let total = values.len() as f64;
    let bin_value = |b: usize| (b as f64 + 0.5) / BINS as f64;
    let global_mean: f64 = hist
        .iter()
        .enumerate()
        .map(|(b, &n)| bin_value(b) * n as f64)
        .sum::<f64>()
        / total;

    // Between-class variance per split point. The variance is flat
    // across any empty gap between two modes, so take the *midpoint*
    // of the maximizing plateau rather than its first bin — that puts
    // θ centrally between the cross-cluster and within-cluster modes.
    let mut vars = vec![-1.0f64; BINS - 1];
    let mut w0 = 0.0f64;
    let mut sum0 = 0.0f64;
    for b in 0..BINS - 1 {
        w0 += hist[b] as f64;
        sum0 += bin_value(b) * hist[b] as f64;
        let w1 = total - w0;
        if w0 == 0.0 || w1 == 0.0 {
            continue;
        }
        let m0 = sum0 / w0;
        let m1 = (global_mean * total - sum0) / w1;
        vars[b] = w0 * w1 * (m0 - m1) * (m0 - m1);
    }
    let best_var = vars.iter().cloned().fold(-1.0, f64::max);
    if best_var < 0.0 {
        return 0.5;
    }
    let tol = best_var * 1e-9;
    let first = vars
        .iter()
        .position(|&v| v >= best_var - tol)
        .expect("max exists");
    let last = vars
        .iter()
        .rposition(|&v| v >= best_var - tol)
        .expect("max exists");
    let split = |b: usize| (bin_value(b) + bin_value(b + 1)) / 2.0;
    (split(first) + split(last)) / 2.0
}

/// Suggest θ for a read set: sketch up to `sample` evenly-spaced reads
/// with the config's hashing parameters, Otsu on their all-pairs
/// similarities. Deterministic (no RNG: stride subsampling).
pub fn suggest_theta(reads: &[SeqRecord], config: &MrMcConfig, sample: usize) -> f64 {
    let sample = sample.clamp(2, reads.len().max(2));
    if reads.len() < 2 {
        return 0.5;
    }
    let stride = (reads.len() / sample).max(1);
    let subset: Vec<&SeqRecord> = reads.iter().step_by(stride).take(sample).collect();
    let hasher = config.hasher();
    let sketches: Vec<_> = subset
        .iter()
        .map(|r| hasher.sketch_sequence(&r.seq).expect("k validated"))
        .collect();
    let mut sims = Vec::with_capacity(sketches.len() * (sketches.len() - 1) / 2);
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            sims.push(positional_similarity(&sketches[i], &sketches[j]));
        }
    }
    otsu_threshold(&sims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn otsu_splits_bimodal() {
        let mut values = Vec::new();
        for i in 0..100 {
            values.push(0.30 + (i % 10) as f64 * 0.005); // mode near 0.32
            values.push(0.70 + (i % 10) as f64 * 0.005); // mode near 0.72
        }
        let t = otsu_threshold(&values);
        assert!((0.4..0.68).contains(&t), "t = {t}");
    }

    #[test]
    fn otsu_handles_degenerate_inputs() {
        assert_eq!(otsu_threshold(&[]), 0.5);
        let t = otsu_threshold(&[0.6; 50]);
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn otsu_unbalanced_modes() {
        let mut values = vec![0.2; 900];
        values.extend(vec![0.9; 100]);
        let t = otsu_threshold(&values);
        assert!((0.25..0.85).contains(&t), "t = {t}");
    }

    #[test]
    fn suggest_theta_lands_between_modes() {
        use mrmc_simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};
        let spec = CommunitySpec {
            species: vec![
                SpeciesSpec {
                    name: "a".into(),
                    gc: 0.45,
                    abundance: 1.0,
                },
                SpeciesSpec {
                    name: "b".into(),
                    gc: 0.55,
                    abundance: 1.0,
                },
            ],
            rank: TaxRank::Order,
            genome_len: 60_000,
        };
        let sim = ReadSimulator::new(800, ErrorModel::with_total_rate(0.002));
        let d = spec.generate("t", 80, &sim, 5);
        let config = MrMcConfig {
            num_hashes: 64,
            ..MrMcConfig::whole_metagenome()
        };
        let theta = suggest_theta(&d.reads, &config, 60);
        // Must be an interior threshold, not a degenerate extreme.
        assert!((0.2..0.9).contains(&theta), "theta = {theta}");
    }

    #[test]
    fn suggest_theta_tiny_inputs() {
        let config = MrMcConfig::whole_metagenome();
        assert_eq!(suggest_theta(&[], &config, 10), 0.5);
        let one = vec![mrmc_seqio::SeqRecord::new("a", b"ACGTACGT".to_vec())];
        assert_eq!(suggest_theta(&one, &config, 10), 0.5);
    }
}
