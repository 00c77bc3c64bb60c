//! Seeded read sets: `mrmc-simulate`'s two-species and Huse
//! communities, planted copies, the community `routes_agree` draws, a
//! fixed set of edge reads, and a strategy for bare sequences.

use std::ops::Range;

use mrmc_seqio::SeqRecord;
use mrmc_simulate::{huse_16s, CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};
use proptest::strategy::Strategy;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Two phylum-level species (GC 0.40 and 0.60, equal abundance) on
/// genomes of `genome_len` bases: `n` reads of `read_len` bases at a
/// 0.2 % error rate, and each read's species.
pub fn two_species(
    n: usize,
    read_len: usize,
    genome_len: usize,
    seed: u64,
) -> (Vec<SeqRecord>, Vec<usize>) {
    let species = |name: &str, gc| SpeciesSpec {
        name: name.into(),
        gc,
        abundance: 1.0,
    };
    let spec = CommunitySpec {
        species: vec![species("a", 0.40), species("b", 0.60)],
        rank: TaxRank::Phylum,
        genome_len,
    };
    let sim = ReadSimulator::new(read_len, ErrorModel::with_total_rate(0.002));
    let dataset = spec.generate("t", n, &sim, seed);
    (dataset.reads, dataset.labels.expect("labelled"))
}

/// `n` reads of the Huse 16S benchmark at up to 3 % error.
pub fn huse(n: usize, seed: u64) -> Vec<SeqRecord> {
    let mut reads = huse_16s(0.03, n.max(2) as f64 / 345_000.0, seed).reads;
    reads.truncate(n);
    reads
}

/// `reads` with `copies` extra copies of randomly chosen reads inserted
/// at random positions (a copy may land before its original).
fn with_copies(mut reads: Vec<SeqRecord>, copies: usize, seed: u64) -> Vec<SeqRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..copies {
        let from = rng.random_range(0..reads.len());
        let at = rng.random_range(0..=reads.len());
        let copy = SeqRecord::new(format!("copy{c}"), reads[from].seq.clone());
        reads.insert(at, copy);
    }
    reads
}

/// A community of `n` reads for k-mer size `k`, drawn from `seed`: Huse
/// reads or two species, up to two reads holding an `N`, up to two
/// reads shorter than k, and byte-identical copies planted at random
/// positions. Ids are `r000`, `r001`, … in read order, so id order is
/// read order.
pub fn community(n: usize, k: usize, seed: u64) -> Vec<SeqRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every read past the simulated and the short ones is a copy, so
    // the draw reaches "all copies of one read" and "all copies of a
    // short read".
    let short = rng.random_range(0..=2usize).min(n);
    let base = rng.random_range(usize::from(short == 0).min(n)..=n - short);
    let copies = n - short - base;
    let mut reads = if rng.random::<bool>() {
        huse(base, seed)
    } else {
        two_species(base, 200, 20_000, seed).0
    };
    for _ in 0..rng.random_range(0..=2usize).min(base) {
        let read = &mut reads[rng.random_range(0..base)];
        for _ in 0..rng.random_range(1..=3) {
            let at = rng.random_range(0..read.seq.len());
            read.seq[at] = b'N';
        }
    }
    for _ in 0..short {
        let seq = (0..rng.random_range(0..k))
            .map(|_| b"ACGT"[rng.random_range(0..4usize)])
            .collect::<Vec<u8>>();
        let at = rng.random_range(0..=reads.len());
        reads.insert(at, SeqRecord::new("short", seq));
    }
    let mut reads = with_copies(reads, copies, rng.random());
    for (i, read) in reads.iter_mut().enumerate() {
        read.id = format!("r{i:03}");
    }
    reads
}

/// Nine reads of four distinct sequences: three copies of one shorter
/// than k = 15, two of a long read, two of the long read with an `N`,
/// and two of a 2-base read; a short copy comes first.
pub fn edge_reads() -> Vec<SeqRecord> {
    let long = "ACGTTGCAAGGCTTACCGATGGCATTACGGATCCATGACTGACCGTA";
    let with_n = "ACGTTGCAAGGCTTANCGATGGCATTACGGATCCATGACTGACCGTA";
    let (short, tiny) = ("ACGTAC", "GG");
    let seqs = [short, long, with_n, short, tiny, with_n, long, short, tiny];
    let read = |(i, seq): (usize, &str)| SeqRecord::new(format!("e{i}"), seq.as_bytes().to_vec());
    seqs.into_iter().enumerate().map(read).collect()
}

/// Strategy: sequences over `ACGT` whose length lies in `len`.
pub fn dna(len: Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), len)
}
