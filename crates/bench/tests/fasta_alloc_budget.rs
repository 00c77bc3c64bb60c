//! Allocation budget of the FASTA reader.
//!
//! One `#[test]` on purpose, in a binary of its own: `mrmc_bench`'s
//! counting allocator is process-global, so a test running in parallel
//! would be charged to the section measured here.

use mrmc_bench::alloc::count_allocs;
use mrmc_seqio::{read_fasta_bytes, write_fasta, SeqRecord};

#[test]
fn fasta_reader_allocates_per_record_not_per_line_or_base() {
    // The shape of the benchmark ledger's shotgun input: 4 000 reads of
    // 1 kbp, one body line each, no descriptions.
    let reads: Vec<SeqRecord> = (0..4_000u64)
        .map(|i| {
            let seq: Vec<u8> = (0..1_000u64)
                .map(|j| b"ACGT"[((i * 31 + j * 7 + i * j / 5) % 4) as usize])
                .collect();
            SeqRecord::new(format!("read{i}"), seq)
        })
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &reads, 0).expect("writing to a Vec cannot fail");

    let (parsed, allocs) = count_allocs(|| read_fasta_bytes(&fasta).expect("valid FASTA"));
    assert_eq!(parsed, reads);
    // Measured: 8 013, 2 per record (the header line, which becomes
    // the id, and the reserved sequence) plus the growth of the line
    // buffer and the output. A fresh line per record, a cloned header
    // and an unreserved sequence made it 44 012.
    let n = reads.len() as u64;
    let output_growth = u64::from(u64::BITS - n.leading_zeros()) + 1;
    assert!(
        allocs <= 3 * n + output_growth,
        "{allocs} allocations for {n} records, budget {}",
        3 * n + output_growth
    );
}
