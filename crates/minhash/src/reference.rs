//! Naive oracle implementations of the optimized kernels.
//!
//! These are the textbook forms the paper writes down, kept as the
//! ground truth the optimized kernels in [`crate::hash`],
//! [`crate::sketch`] and [`crate::jaccard`] must match *bit for bit*.
//! Unit tests assert exact equality on mixed operating points, and
//! `crates/bench` measures the before/after gap against them.

use crate::hash::UniversalHashFamily;
use crate::sketch::{MinHasher, Sketch, EMPTY_SLOT};

/// Eq. 5 exactly as written: `((a·x + b) mod p) mod m` by division.
pub fn hash(family: &UniversalHashFamily, i: usize, x: u64) -> u64 {
    let hp = family.params()[i];
    let v = (hp.a as u128 * x as u128 + hp.b as u128) % family.p as u128;
    (v as u64) % family.m
}

/// The original per-(k-mer, hash-function) sketch loop: for every
/// feature, walk the whole family and min-update each slot in memory.
pub fn sketch_kmers(hasher: &MinHasher, kmers: impl IntoIterator<Item = u64>) -> Sketch {
    let n = hasher.num_hashes();
    let mut values = vec![EMPTY_SLOT; n];
    for x in kmers {
        for (i, slot) in values.iter_mut().enumerate() {
            let h = hash(hasher.family(), i, x);
            if h < *slot {
                *slot = h;
            }
        }
    }
    Sketch::from_values(values)
}

/// Degeneracy by rescanning every slot (what `Sketch::is_degenerate`
/// did before the cached non-empty count).
pub fn is_degenerate(s: &Sketch) -> bool {
    s.values().iter().all(|&v| v == EMPTY_SLOT)
}

/// Positional estimator with the degeneracy rescan.
pub fn positional_similarity(a: &Sketch, b: &Sketch) -> f64 {
    assert_eq!(a.len(), b.len(), "sketches of different length");
    if a.is_empty() {
        return 1.0;
    }
    if is_degenerate(a) && is_degenerate(b) {
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
