//! Textbook forms of the production kernels. The optimized kernels in
//! `mrmc-minhash` must match [`hash`], [`sketch_kmers`] and
//! [`positional_similarity`] bit for bit; the others are the
//! definitions a production shortcut is held to (the packed reverse
//! complement and canonical k-mers to [`reverse_complement`], the
//! encoder to [`kmer_to_string`]).

use mrmc_align::kmerdist::KmerProfile;
use mrmc_mapreduce::simcluster::lpt_schedule;
use mrmc_minhash::sketch::EMPTY_SLOT;
use mrmc_minhash::{MinHasher, Sketch, UniversalHashFamily};
use mrmc_seqio::alphabet::Base;

/// Eq. 5 exactly as written: `((a·x + b) mod p) mod m` by division.
pub fn hash(family: &UniversalHashFamily, i: usize, x: u64) -> u64 {
    let hp = family.params()[i];
    let v = (hp.a as u128 * x as u128 + hp.b as u128) % family.p as u128;
    (v as u64) % family.m
}

/// The per-(k-mer, hash-function) sketch loop: for every feature, walk
/// the whole family and min-update each slot in memory.
pub fn sketch_kmers(hasher: &MinHasher, kmers: impl IntoIterator<Item = u64>) -> Sketch {
    let mut values = vec![EMPTY_SLOT; hasher.num_hashes()];
    for x in kmers {
        for (i, slot) in values.iter_mut().enumerate() {
            *slot = (*slot).min(hash(hasher.family(), i, x));
        }
    }
    Sketch::from_values(values)
}

/// Degeneracy by rescanning every slot.
fn is_degenerate(s: &Sketch) -> bool {
    s.values().iter().all(|&v| v == EMPTY_SLOT)
}

/// The positional estimator with the degeneracy rescan.
pub fn positional_similarity(a: &Sketch, b: &Sketch) -> f64 {
    assert_eq!(a.len(), b.len(), "sketches of different length");
    if a.is_empty() || (is_degenerate(a) && is_degenerate(b)) {
        return 1.0;
    }
    let agree = a
        .values()
        .iter()
        .zip(b.values())
        .filter(|(&x, &y)| x == y && x != EMPTY_SLOT)
        .count();
    agree as f64 / a.len() as f64
}

/// Reverse complement of an ASCII DNA string, case preserved, `U` read
/// as `T`, any other code to `N`.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    let complement = |c: u8| match c {
        b'A' => b'T',
        b'a' => b't',
        b'C' => b'G',
        b'c' => b'g',
        b'G' => b'C',
        b'g' => b'c',
        b'T' | b'U' => b'A',
        b't' | b'u' => b'a',
        _ => b'N',
    };
    seq.iter().rev().map(|&c| complement(c)).collect()
}

/// Decode a packed k-mer back into its ASCII string.
pub fn kmer_to_string(kmer: u64, k: usize) -> String {
    (0..k)
        .rev()
        .map(|i| Base::from_code(((kmer >> (2 * i)) & 3) as u8).to_ascii() as char)
        .collect()
}

/// Spearman distance of two profiles over all `4^k` features, from its
/// definition: each count's average rank (`1 + #smaller + (#equal − 1)
/// / 2`), the Pearson correlation ρ of the two rank vectors (0 when
/// either is constant), and `(1 − ρ) / 2`.
pub fn spearman_distance(a: &KmerProfile, b: &KmerProfile) -> f64 {
    assert_eq!(a.k, b.k, "profiles built with different k");
    let ranks = |p: &KmerProfile| -> Vec<f64> {
        let counts: Vec<u32> = (0..1u64 << (2 * p.k)).map(|km| p.count(km)).collect();
        counts
            .iter()
            .map(|&c| {
                let smaller = counts.iter().filter(|&&d| d < c).count();
                let equal = counts.iter().filter(|&&d| d == c).count();
                1.0 + smaller as f64 + (equal - 1) as f64 / 2.0
            })
            .collect()
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb) * (y - mb)).sum();
    let rho = if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    };
    ((1.0 - rho) / 2.0).clamp(0.0, 1.0)
}

/// Makespan of the LPT list schedule: the latest end among
/// [`lpt_schedule`]'s placements, which `simulate_job`'s phase times
/// must equal.
pub fn lpt_makespan(costs: &[f64], slots: usize) -> f64 {
    lpt_schedule(costs, slots)
        .into_iter()
        .fold(0.0, |acc, t| acc.max(t.end))
}
