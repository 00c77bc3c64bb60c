//! 2-bit k-mer encodings and rolling k-mer extraction.
//!
//! A k-mer over `{A,C,G,T}` with `k ≤ 31` packs into a `u64` via the
//! 2-bit code of [`crate::alphabet`]. This is the integer feature `x`
//! that MrMC-MinH's universal hash functions consume (Eq. 5); the
//! maximum feature-set cardinality is `4^k`, matching the paper's
//! "maximum value of n = 4^k".

use crate::alphabet::{encode_base, Base};
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

    /// The k this iterator extracts.
    pub fn k(&self) -> usize {
        self.k
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

/// Reverse complement of a packed k-mer.
///
/// With the 2-bit code `A=0, C=1, G=2, T=3`, a base's complement is its
/// bitwise NOT (`A↔T` is `00↔11`, `C↔G` is `01↔10`), so the reverse
/// complement is: complement every 2-bit pair, then reverse pair order.
#[inline]
pub fn revcomp_kmer(kmer: u64, k: usize) -> u64 {
    debug_assert!((1..=MAX_K).contains(&k));
    let mut x = !kmer; // complement every base (junk in high bits, shifted out below)
                       // Reverse the 2-bit groups: swap adjacent pairs, nibbles, bytes, …
    x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    x = x.swap_bytes();
    // The k-mer now occupies the top 2k bits; shift it down.
    x >> (64 - 2 * k)
}

/// The canonical form of a packed k-mer: the lexicographic minimum of
/// the k-mer and its reverse complement. Canonical k-mers make sketches
/// strand-independent — essential for shotgun reads, whose orientation
/// is random (the convention of Mash and modern minhash tools; the
/// paper's pipeline is strand-sensitive).
#[inline]
pub fn canonical_kmer(kmer: u64, k: usize) -> u64 {
    kmer.min(revcomp_kmer(kmer, k))
}

/// Iterator over canonical k-mers (see [`canonical_kmer`]).
pub struct CanonicalKmerIter<'a> {
    inner: KmerIter<'a>,
}

impl<'a> CanonicalKmerIter<'a> {
    /// Create a canonical k-mer iterator; same k bounds as [`KmerIter`].
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self, SeqIoError> {
        Ok(CanonicalKmerIter {
            inner: KmerIter::new(seq, k)?,
        })
    }
}

impl Iterator for CanonicalKmerIter<'_> {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        let k = self.inner.k();
        self.inner.next().map(|km| canonical_kmer(km, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Decode a packed k-mer back into its ASCII string (for debugging and
/// round-trip tests).
pub fn kmer_to_string(kmer: u64, k: usize) -> String {
    let mut s = vec![0u8; k];
    let mut v = kmer;
    for i in (0..k).rev() {
        s[i] = Base::from_code((v & 3) as u8).to_ascii();
        v >>= 2;
    }
    String::from_utf8(s).expect("bases are ASCII")
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
    fn kmer_round_trip_strings() {
        let seq = b"ACGTTGCAACGT";
        for k in [1usize, 3, 5, 8] {
            let kmers: Vec<u64> = KmerIter::new(seq, k).unwrap().collect();
            for (i, km) in kmers.iter().enumerate() {
                let expect = std::str::from_utf8(&seq[i..i + k]).unwrap();
                assert_eq!(kmer_to_string(*km, k), expect);
            }
        }
    }

    #[test]
    fn kmer_set_dedups() {
        // AAAA has 3 overlapping 2-mers, all AA.
        let set = kmer_set(b"AAAA", 2).unwrap();
        assert_eq!(set, vec![0]);
    }

    #[test]
    fn revcomp_kmer_matches_string_revcomp() {
        use crate::alphabet::reverse_complement;
        let seq = b"ACGTTGCAGGATCCTA";
        for k in [1usize, 2, 3, 5, 8, 16] {
            let kmers: Vec<u64> = KmerIter::new(seq, k).unwrap().collect();
            for (i, &km) in kmers.iter().enumerate() {
                let rc_str = reverse_complement(&seq[i..i + k]);
                let expect: u64 = KmerIter::new(&rc_str, k).unwrap().next().unwrap();
                assert_eq!(
                    revcomp_kmer(km, k),
                    expect,
                    "k={k} kmer {}",
                    kmer_to_string(km, k)
                );
            }
        }
    }

    #[test]
    fn revcomp_is_involution() {
        for k in [1usize, 4, 7, 15, 31] {
            for kmer in [0u64, 1, 0b1101, (1 << (2 * k)) - 1] {
                let kmer = kmer & ((1u64 << (2 * k.min(31))) - 1).max(1);
                assert_eq!(revcomp_kmer(revcomp_kmer(kmer, k), k), kmer, "k={k}");
            }
        }
    }

    #[test]
    fn canonical_invariant_under_strand() {
        use crate::alphabet::reverse_complement;
        let seq = b"ACGTTGCAGGATCCTAGGTTACAC";
        let rc = reverse_complement(seq);
        for k in [3usize, 5, 8] {
            let mut a: Vec<u64> = CanonicalKmerIter::new(seq, k).unwrap().collect();
            let mut b: Vec<u64> = CanonicalKmerIter::new(&rc, k).unwrap().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "k={k}: canonical sets must be strand-invariant");
        }
    }

    #[test]
    fn canonical_palindrome_fixed_point() {
        // ACGT's revcomp is itself (restriction-site palindrome).
        let kmers: Vec<u64> = KmerIter::new(b"ACGT", 4).unwrap().collect();
        assert_eq!(canonical_kmer(kmers[0], 4), kmers[0]);
    }

    #[test]
    fn size_hint_upper_bound_holds() {
        let mut it = KmerIter::new(b"ACGTACGT", 3).unwrap();
        let (_, upper) = it.size_hint();
        let count = it.by_ref().count();
        assert!(count <= upper.unwrap());
        // The canonical iterator forwards the same bound.
        let canonical = CanonicalKmerIter::new(b"ACGTNACGT", 3).unwrap();
        assert_eq!(canonical.size_hint(), (0, Some(9)));
        assert_eq!(canonical.count(), 4);
    }
}
