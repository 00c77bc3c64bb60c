//! 2-bit k-mer encodings and rolling k-mer extraction.
//!
//! A k-mer over `{A,C,G,T}` with `k ≤ 31` packs into a `u64` via the
//! 2-bit code of [`crate::alphabet`]. This is the integer feature `x`
//! that MrMC-MinH's universal hash functions consume (Eq. 5); the
//! maximum feature-set cardinality is `4^k`, matching the paper's
//! "maximum value of n = 4^k".

use crate::alphabet::encode_base;
use crate::error::SeqIoError;

/// Largest supported k-mer size (2 bits × 31 = 62 bits < 64, leaving
/// headroom so `4^k` itself still fits in a `u64`).
pub const MAX_K: usize = 31;

/// Iterator over the 2-bit packed k-mers of a sequence.
///
/// Ambiguous bases (anything [`encode_base`] rejects) *reset* the
/// window: no k-mer spanning them is produced. This mirrors the paper's
/// feature sets, which only contain exact nucleotide k-mers.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    /// Current packed window value.
    current: u64,
    /// Number of valid bases currently in the window.
    filled: usize,
    /// Next position to consume.
    pos: usize,
}

impl<'a> KmerIter<'a> {
    /// Create a k-mer iterator; errors if `k == 0` or `k > MAX_K`.
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self, SeqIoError> {
        if k == 0 || k > MAX_K {
            return Err(SeqIoError::BadKmerSize { k, max: MAX_K });
        }
        let mask = if 2 * k == 64 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        Ok(KmerIter {
            seq,
            k,
            mask,
            current: 0,
            filled: 0,
            pos: 0,
        })
    }
}

impl Iterator for KmerIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.pos < self.seq.len() {
            let c = self.seq[self.pos];
            self.pos += 1;
            match encode_base(c) {
                Some(code) => {
                    self.current = ((self.current << 2) | u64::from(code)) & self.mask;
                    self.filled = (self.filled + 1).min(self.k);
                    if self.filled == self.k {
                        return Some(self.current);
                    }
                }
                None => {
                    self.current = 0;
                    self.filled = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        // Upper bound: every remaining base completes a k-mer.
        (0, Some(remaining + usize::from(self.filled == self.k)))
    }
}

/// Collect the *distinct* packed k-mers of a sequence — the feature set
/// `I_s` of the paper. Order is unspecified.
pub fn kmer_set(seq: &[u8], k: usize) -> Result<Vec<u64>, SeqIoError> {
    let mut v: Vec<u64> = KmerIter::new(seq, k)?.collect();
    v.sort_unstable();
    v.dedup();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmer_iter_simple() {
        // ACGT: k=2 → AC, CG, GT = 0b0001, 0b0110, 0b1011
        let kmers: Vec<u64> = KmerIter::new(b"ACGT", 2).unwrap().collect();
        assert_eq!(kmers, vec![0b0001, 0b0110, 0b1011]);
    }

    #[test]
    fn kmer_iter_resets_at_ambiguity() {
        // ACN GT with k=2: only AC and GT; CN/NG skipped.
        let kmers: Vec<u64> = KmerIter::new(b"ACNGT", 2).unwrap().collect();
        assert_eq!(kmers, vec![0b0001, 0b1011]);
    }

    #[test]
    fn kmer_iter_short_sequence_empty() {
        let kmers: Vec<u64> = KmerIter::new(b"AC", 3).unwrap().collect();
        assert!(kmers.is_empty());
    }

    #[test]
    fn kmer_bad_sizes_rejected() {
        assert!(KmerIter::new(b"ACGT", 0).is_err());
        assert!(KmerIter::new(b"ACGT", 32).is_err());
        assert!(KmerIter::new(b"ACGT", 31).is_ok());
    }

    #[test]
    fn kmer_set_dedups() {
        // AAAA has 3 overlapping 2-mers, all AA.
        let set = kmer_set(b"AAAA", 2).unwrap();
        assert_eq!(set, vec![0]);
    }

    #[test]
    fn size_hint_upper_bound_holds() {
        let mut it = KmerIter::new(b"ACGTACGT", 3).unwrap();
        let (_, upper) = it.size_hint();
        let count = it.by_ref().count();
        assert!(count <= upper.unwrap());
    }
}
