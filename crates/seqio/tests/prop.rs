//! Property-based tests for the sequence I/O substrate.

use proptest::prelude::*;

use mrmc_seqio::encode::{kmer_set, KmerIter};
use mrmc_seqio::fasta::{read_fasta_bytes, write_fasta};
use mrmc_seqio::stats::gc_content;
use mrmc_seqio::SeqRecord;
use mrmc_testkit::community::dna;
use mrmc_testkit::kernels::kmer_to_string;

/// Strategy: record ids (no whitespace, non-empty).
fn record_id() -> impl Strategy<Value = String> {
    "[A-Za-z0-9_.:-]{1,20}"
}

proptest! {
    /// FASTA writing then reading returns the same records, at any
    /// wrap width.
    #[test]
    fn fasta_round_trip(
        ids in proptest::collection::vec(record_id(), 1..8),
        seqs in proptest::collection::vec(dna(0..200), 1..8),
        width in 0usize..80,
    ) {
        let n = ids.len().min(seqs.len());
        // Make ids unique by suffixing the index.
        let records: Vec<SeqRecord> = (0..n)
            .map(|i| SeqRecord::new(format!("{}_{i}", ids[i]), seqs[i].clone()))
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, width).unwrap();
        let parsed = read_fasta_bytes(&buf).unwrap();
        prop_assert_eq!(parsed, records);
    }

    /// Clean sequences produce exactly len−k+1 k-mers, each decoding
    /// to the corresponding substring.
    #[test]
    fn kmer_count_and_decode(seq in dna(0..120), k in 1usize..12) {
        let kmers: Vec<u64> = KmerIter::new(&seq, k).unwrap().collect();
        let expected = seq.len().saturating_sub(k).checked_add(1).unwrap_or(0);
        let expected = if seq.len() < k { 0 } else { expected };
        prop_assert_eq!(kmers.len(), expected);
        for (i, km) in kmers.iter().enumerate() {
            let s = kmer_to_string(*km, k);
            prop_assert_eq!(s.as_bytes(), &seq[i..i + k]);
        }
    }

    /// kmer_set is sorted, deduplicated, and a subset of the stream.
    #[test]
    fn kmer_set_invariants(seq in dna(0..150), k in 1usize..10) {
        let set = kmer_set(&seq, k).unwrap();
        prop_assert!(set.windows(2).all(|w| w[0] < w[1]));
        let all: Vec<u64> = KmerIter::new(&seq, k).unwrap().collect();
        for km in &set {
            prop_assert!(all.contains(km));
        }
    }

    /// GC content is a fraction.
    #[test]
    fn gc_bounded(seq in dna(0..300)) {
        let gc = gc_content(&seq);
        prop_assert!((0.0..=1.0).contains(&gc));
    }

    /// The FASTA parser never panics on arbitrary bytes (errors are
    /// fine, crashes are not).
    #[test]
    fn parser_total_on_arbitrary_input(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_fasta_bytes(&bytes);
    }
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
