//! Algorithm 1 through a representative index — batch and streaming.
//!
//! The paper motivates binning as "a pre-processing step … within
//! several workflows that analyze only cluster representatives"
//! (§I). Algorithm 1 only ever asks whether a read clears θ against an
//! existing *representative*: taken in input order, each read joins
//! the first (lowest-labelled) cluster whose founder's sketch clears
//! θ, or founds a new cluster. [`RepresentativeIndex`] is that rule,
//! once. A batch greedy run ([`crate::MrMcMinH::run_on`]) hands it the
//! sketch stage's whole output, one sketch per distinct sequence
//! ([`RepresentativeIndex::place_all`]);
//! [`IncrementalClusterer`] keeps one alive and feeds it reads as they
//! arrive, and seeding it from a finished run makes that the "assign
//! new data to yesterday's clusters" operation. Batch and streaming
//! are one routine, so they cannot disagree.
//!
//! # Representative index
//!
//! That rule does not need a scan of every representative. A pair at
//! or above θ has, in the [`MrMcConfig::banding_scheme`] layout
//! ([`BandingScheme::tune`]), at least one byte-identical band
//! (the pigeonhole argument of `mrmc_minhash::banding`, "Exactness
//! contract"; two degenerate sketches meet too, since all-`EMPTY_SLOT`
//! bands hash alike). So founders are filed under their `b` band
//! signatures, and a read verifies only the labels in its own `≤ b`
//! buckets — [`agreements`] against [`MrMcConfig::min_agreeing`] —
//! and takes the lowest that passes: the scan's label
//! ([`mrmc_cluster::greedy_cluster`], the oracle in tests), for every
//! input. Where the guarantee does not hold (θ = 0, a threshold of 0
//! agreements) every sketch is filed under one constant signature, so
//! the same lookup walks all labels in order.
//!
//! # Copies
//!
//! [`IncrementalClusterer`] remembers the label of every sequence it
//! has pushed, and a later byte-identical copy takes that label
//! without being sketched or placed. That is the label the index would
//! give it: the index only grows and new founders take higher labels,
//! so every representative below the first occurrence's label `L`
//! fails again for the same sketch, and `L` clears θ — it passed for
//! that sketch, or it is that sketch (similarity 1.0, degenerate
//! sketches included). Seed reads stay out of the memo: a hierarchical
//! seed run's labels are not Algorithm 1 labels.

use std::collections::{HashMap, HashSet};

use mrmc_cluster::ClusterAssignment;
use mrmc_minhash::{agreements, BandingScheme, MinHasher, Sketch};
use mrmc_seqio::{SeqIoError, SeqRecord};

use crate::config::MrMcConfig;
use crate::pipeline::MrMcResult;

/// Algorithm 1's whole state: the founders' sketches, filed under
/// their band signatures (see the module docs).
#[derive(Debug, Clone)]
pub struct RepresentativeIndex {
    /// θ as an agreement count ([`MrMcConfig::min_agreeing`]).
    min_agree: usize,
    /// The exact-recall banding for `(num_hashes, θ)`, or `None` at
    /// `min_agree` 0 (see the module docs).
    scheme: Option<BandingScheme>,
    /// Representative sketch per cluster, indexed by label.
    representatives: Vec<Sketch>,
    /// Band signature → labels of the representatives carrying it,
    /// ascending (labels are handed out in founding order). One map
    /// serves all bands: the band index is mixed into the signature's
    /// seed.
    buckets: HashMap<u64, Vec<u32>>,
    /// Signatures of the sketch being placed (reused buffer); without
    /// a `scheme`, the one constant signature every sketch is filed
    /// under.
    sigs: Vec<u64>,
    evaluations: u64,
}

impl RepresentativeIndex {
    /// Empty index for `config`'s `num_hashes` and θ.
    pub fn new(config: &MrMcConfig) -> RepresentativeIndex {
        let min_agree = config.min_agreeing();
        RepresentativeIndex {
            min_agree,
            scheme: (min_agree > 0).then(|| config.banding_scheme()),
            representatives: Vec::new(),
            buckets: HashMap::new(),
            sigs: vec![0],
            evaluations: 0,
        }
    }

    /// Algorithm 1 over a batch: place every sketch in input order and
    /// return the labels. Founders move into the index, members are
    /// dropped as they are placed. On an empty index the labels come
    /// out `0..clusters` in first-appearance order, i.e. already
    /// compact ([`ClusterAssignment::compact`]).
    pub fn place_all(&mut self, sketches: Vec<Sketch>) -> Vec<usize> {
        sketches.into_iter().map(|s| self.place(s, true)).collect()
    }

    /// The one assignment routine: the label of the lowest-numbered
    /// representative clearing θ against `sketch`, or — when none does,
    /// or when `join` is false (seeding) — the fresh label `sketch`
    /// founds, filed under its signatures. Panics past 2³² founders.
    fn place(&mut self, sketch: Sketch, join: bool) -> usize {
        if let Some(scheme) = self.scheme {
            scheme.signatures_into(&sketch, &mut self.sigs);
        }
        if join {
            if let Some(label) = self.lowest_match(&sketch) {
                return label;
            }
        }
        let label = self.representatives.len();
        let id = u32::try_from(label).expect("fewer than 2^32 representatives");
        for &sig in &self.sigs {
            self.buckets.entry(sig).or_default().push(id);
        }
        self.representatives.push(sketch);
        label
    }

    /// Lowest label in the buckets of `self.sigs` whose representative
    /// clears θ against `sketch`. Bucket lists ascend, so each walk
    /// stops at its first hit or once it reaches the best so far.
    fn lowest_match(&mut self, sketch: &Sketch) -> Option<usize> {
        let mut best = usize::MAX;
        for bucket in self.sigs.iter().filter_map(|sig| self.buckets.get(sig)) {
            let labels = bucket.iter().map(|&label| label as usize);
            let hit = labels.take_while(|&label| label < best).find(|&label| {
                self.evaluations += 1;
                agreements(sketch, &self.representatives[label]) >= self.min_agree
            });
            best = hit.unwrap_or(best);
        }
        (best != usize::MAX).then_some(best)
    }

    /// Similarity evaluations made so far — the deterministic cost of
    /// the placements (a linear scan makes one per representative per
    /// read).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

/// Streaming greedy clusterer over minhash sketches: a live
/// [`RepresentativeIndex`], the hasher that feeds it and the labels it
/// has handed out.
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    hasher: MinHasher,
    index: RepresentativeIndex,
    /// Label assigned to each pushed read, in push order.
    labels: Vec<usize>,
    /// Sequence bytes → label, for every distinct pushed sequence (see
    /// the module docs, "Copies").
    memo: HashMap<Box<[u8]>, u32>,
}

impl IncrementalClusterer {
    /// Empty clusterer (panics on invalid config, like [`crate::MrMcMinH`]).
    pub fn new(config: MrMcConfig) -> IncrementalClusterer {
        if let Err(e) = config.validate() {
            panic!("invalid MrMcConfig: {e}");
        }
        IncrementalClusterer {
            hasher: config.hasher(),
            index: RepresentativeIndex::new(&config),
            labels: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// Seed from a finished batch run: the representatives of
    /// `result`'s clusters (its [`MrMcResult::representatives`]) become
    /// the live centroids, so subsequently pushed reads extend the
    /// existing clustering. The batch reads themselves are *not*
    /// re-recorded (their labels live in `result`).
    pub fn from_run(
        config: MrMcConfig,
        batch_reads: &[SeqRecord],
        result: &MrMcResult,
    ) -> Result<IncrementalClusterer, SeqIoError> {
        let mut inc = IncrementalClusterer::new(config);
        let seqs: Vec<&[u8]> = result
            .representatives()
            .iter()
            .map(|&rep| batch_reads[rep].seq.as_slice())
            .collect();
        for sketch in inc.hasher.sketch_sequences(&seqs)? {
            inc.index.place(sketch, false);
        }
        Ok(inc)
    }

    /// Assign one read; returns its cluster label. New clusters take
    /// the next free label.
    pub fn push(&mut self, read: &SeqRecord) -> Result<usize, SeqIoError> {
        Ok(self.push_batch(std::slice::from_ref(read))?[0])
    }

    /// Assign a micro-batch of reads in one call, returning their
    /// labels in input order. Semantically identical to calling
    /// [`IncrementalClusterer::push`] once per read (reads earlier in
    /// the batch can found clusters that later reads join). Every
    /// sequence neither the memo nor an earlier read of the batch
    /// holds is sketched first, in one
    /// [`MinHasher::sketch_sequences`] call, then the reads are placed
    /// in order, so on a sketching error nothing is recorded
    /// (all-or-nothing).
    pub fn push_batch(&mut self, reads: &[SeqRecord]) -> Result<Vec<usize>, SeqIoError> {
        let mut seen = HashSet::new();
        let fresh: Vec<&[u8]> = reads
            .iter()
            .map(|read| read.seq.as_slice())
            .filter(|seq| !self.memo.contains_key(*seq) && seen.insert(*seq))
            .collect();
        // A read misses the memo below exactly when it is in `fresh`:
        // its first occurrence in the batch, not seen before.
        let mut fresh = self.hasher.sketch_sequences(&fresh)?.into_iter();
        let labels: Vec<usize> = reads
            .iter()
            .map(|read| match self.memo.get(read.seq.as_slice()) {
                Some(&label) => label as usize,
                None => {
                    let sketch = fresh.next().expect("one sketch per fresh sequence");
                    let label = self.index.place(sketch, true);
                    // `place` hands out at most 2^32 labels.
                    self.memo.insert(read.seq.as_slice().into(), label as u32);
                    label
                }
            })
            .collect();
        self.labels.extend_from_slice(&labels);
        Ok(labels)
    }

    /// Current cluster count (including seeded clusters).
    pub fn num_clusters(&self) -> usize {
        self.index.representatives.len()
    }

    /// Labels of pushed reads, in push order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Flat assignment over the pushed reads.
    pub fn assignment(&self) -> ClusterAssignment {
        ClusterAssignment::from_labels(self.labels.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::pipeline::MrMcMinH;
    use crate::stages::sketch_stage;
    use mrmc_cluster::greedy_cluster;
    use mrmc_mapreduce::pipeline::Pipeline;
    use mrmc_minhash::positional_similarity;
    use mrmc_testkit::community::two_species;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The assignment rule as it was before the index, kept as the
    /// oracle: scan every representative in label order, first one to
    /// clear θ wins.
    struct LinearScan {
        config: MrMcConfig,
        hasher: MinHasher,
        representatives: Vec<Sketch>,
        labels: Vec<usize>,
    }

    impl LinearScan {
        fn seeded(config: MrMcConfig, seeds: &[&SeqRecord]) -> LinearScan {
            let hasher = config.hasher();
            let representatives = seeds
                .iter()
                .map(|r| hasher.sketch_sequence(&r.seq).unwrap())
                .collect();
            LinearScan {
                config,
                hasher,
                representatives,
                labels: Vec::new(),
            }
        }

        fn push(&mut self, read: &SeqRecord) -> usize {
            let sketch = self.hasher.sketch_sequence(&read.seq).unwrap();
            let label = self
                .representatives
                .iter()
                .position(|rep| positional_similarity(&sketch, rep) >= self.config.theta)
                .unwrap_or_else(|| {
                    self.representatives.push(sketch.clone());
                    self.representatives.len() - 1
                });
            self.labels.push(label);
            label
        }
    }

    /// A seeded read set built to sit on the θ boundary: a few random
    /// templates, exact copies and copies with 1–6 substitutions of
    /// them, unrelated reads, and reads shorter than k (degenerate
    /// sketches, the empty read included).
    fn boundary_reads(seed: u64, kmer: usize) -> Vec<SeqRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dna = |rng: &mut StdRng, len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| b"ACGT"[rng.random_range(0..4usize)])
                .collect()
        };
        let templates: Vec<Vec<u8>> = (0..rng.random_range(1..5))
            .map(|_| {
                let len = rng.random_range(40..120);
                dna(&mut rng, len)
            })
            .collect();
        (0..rng.random_range(0..48))
            .map(|i| {
                let seq = match rng.random_range(0..10) {
                    0 => {
                        let len = rng.random_range(0..kmer);
                        dna(&mut rng, len)
                    }
                    1 => dna(&mut rng, 80),
                    _ => {
                        let mut seq = templates[rng.random_range(0..templates.len())].clone();
                        for _ in 0..rng.random_range(0..7) {
                            let at = rng.random_range(0..seq.len());
                            seq[at] = b"ACGT"[rng.random_range(0..4usize)];
                        }
                        seq
                    }
                };
                SeqRecord::new(format!("r{i}"), seq)
            })
            .collect()
    }

    proptest! {
        /// The index is invisible: over θ on and off the guarantee,
        /// sketch lengths the tuned bands do not divide (50 → 3 × 16 at
        /// θ = 0.95, 26 × 1 at θ = 0.5), dense and banded seeding runs,
        /// fresh and `from_run`-seeded sessions and arbitrary micro-batch
        /// splits, every label equals the linear scan's.
        #[test]
        fn indexed_assignment_equals_linear_scan(
            seed in any::<u64>(),
            num_hashes in proptest::sample::select(vec![50usize, 64, 7]),
            seed_len in 0usize..12,
            hierarchical_seed in any::<bool>(),
            banded_seed in any::<bool>(),
            batch_sizes in proptest::collection::vec(0usize..9, 0..12),
        ) {
            let reads = boundary_reads(seed, 5);
            let (batch, stream) = reads.split_at(seed_len.min(reads.len()));
            for theta in [0.0, 0.5, 0.9, 0.95, 1.0] {
                let mut cfg = MrMcConfig {
                    num_hashes,
                    mode: if hierarchical_seed { Mode::Hierarchical } else { Mode::Greedy },
                    ..config(theta)
                };
                if banded_seed {
                    cfg = cfg.banded();
                }

                let (mut indexed, mut oracle) = if batch.is_empty() {
                    (IncrementalClusterer::new(cfg), LinearScan::seeded(cfg, &[]))
                } else {
                    let result = MrMcMinH::new(cfg).run(batch).unwrap();
                    let seeds: Vec<&SeqRecord> =
                        result.representatives().iter().map(|&r| &batch[r]).collect();
                    (
                        IncrementalClusterer::from_run(cfg, batch, &result).unwrap(),
                        LinearScan::seeded(cfg, &seeds),
                    )
                };
                prop_assert_eq!(indexed.num_clusters(), oracle.representatives.len());

                let mut got = Vec::new();
                let mut at = 0;
                for &size in &batch_sizes {
                    let end = (at + size).min(stream.len());
                    got.extend(indexed.push_batch(&stream[at..end]).unwrap());
                    at = end;
                }
                for read in &stream[at..] {
                    got.push(indexed.push(read).unwrap());
                }
                let expect: Vec<usize> = stream.iter().map(|r| oracle.push(r)).collect();

                prop_assert_eq!(&got, &expect, "θ = {}", theta);
                prop_assert_eq!(indexed.labels(), &oracle.labels[..], "θ = {}", theta);
                prop_assert_eq!(indexed.num_clusters(), oracle.representatives.len());
                prop_assert_eq!(
                    indexed.assignment(),
                    ClusterAssignment::from_labels(oracle.labels),
                    "θ = {}", theta
                );
            }
        }
    }

    proptest! {
        /// The batch route is Algorithm 1: under both `candidates`
        /// values a greedy run's labels are the `greedy_cluster` scan's
        /// over the same sketches, its `representatives()` are the reads
        /// whose sketches the index kept as founders, and a session
        /// seeded from the run by `from_run` holds that very index.
        #[test]
        fn batch_run_equals_greedy_scan(
            seed in any::<u64>(),
            num_hashes in proptest::sample::select(vec![50usize, 64, 7]),
            banded in any::<bool>(),
        ) {
            let reads = boundary_reads(seed, 5);
            for theta in [0.0, 0.5, 0.9, 0.95, 1.0] {
                let mut cfg = MrMcConfig { num_hashes, ..config(theta).greedy() };
                if banded {
                    cfg = cfg.banded();
                }
                let sketches = sketch_stage(&reads, &cfg, &mut Pipeline::new("oracle")).unwrap();
                let scan = greedy_cluster(sketches.len(), theta, |i, j| {
                    positional_similarity(&sketches[i], &sketches[j])
                });
                let mut index = RepresentativeIndex::new(&cfg);
                let labels = index.place_all(sketches.clone());

                let run = MrMcMinH::new(cfg).run(&reads).unwrap();
                prop_assert_eq!(&run.assignment, &scan.compact(), "θ = {}", theta);
                prop_assert_eq!(run.assignment.labels(), &labels[..], "θ = {}", theta);
                let founders: Vec<&Sketch> =
                    run.representatives().iter().map(|&r| &sketches[r]).collect();
                prop_assert_eq!(&founders, &index.representatives.iter().collect::<Vec<_>>());

                let seeded = IncrementalClusterer::from_run(cfg, &reads, &run).unwrap();
                prop_assert_eq!(&seeded.index.representatives, &index.representatives);
                prop_assert_eq!(&seeded.index.buckets, &index.buckets, "θ = {}", theta);
            }
        }
    }

    fn config(theta: f64) -> MrMcConfig {
        MrMcConfig {
            kmer: 5,
            num_hashes: 64,
            theta,
            ..MrMcConfig::whole_metagenome()
        }
    }

    #[test]
    fn streaming_recovers_two_species() {
        let (reads, truth) = two_species(60, 800, 50_000, 1);
        let theta = crate::threshold::suggest_theta(&reads, &config(0.5), 50);
        let mut inc = IncrementalClusterer::new(config(theta));
        for r in &reads {
            inc.push(r).unwrap();
        }
        let acc = mrmc_metrics::weighted_accuracy(&inc.assignment(), &truth, 1).unwrap();
        assert!(acc > 85.0, "accuracy {acc}");
        assert_eq!(inc.labels().len(), reads.len());
    }

    #[test]
    fn streaming_matches_batch_greedy() {
        // Pushing reads one at a time is *exactly* Algorithm 1's
        // iteration order, so results coincide with the batch greedy
        // run at the same θ.
        let (reads, _) = two_species(40, 800, 50_000, 2);
        let theta = 0.5;
        let batch = MrMcMinH::new(config(theta).greedy()).run(&reads).unwrap();
        let mut inc = IncrementalClusterer::new(config(theta));
        for r in &reads {
            inc.push(r).unwrap();
        }
        assert_eq!(inc.assignment().compact(), batch.assignment);
    }

    #[test]
    fn seeding_from_batch_extends_clusters() {
        let (reads, _) = two_species(40, 800, 50_000, 3);
        let theta = crate::threshold::suggest_theta(&reads, &config(0.5), 40);
        let cfg = MrMcConfig {
            mode: Mode::Hierarchical,
            ..config(theta)
        };
        let result = MrMcMinH::new(cfg).run(&reads).unwrap();
        let k = result.num_clusters();

        let mut inc = IncrementalClusterer::from_run(cfg, &reads, &result).unwrap();
        assert_eq!(inc.num_clusters(), k);
        // New reads from the same genomes mostly land in seeded
        // clusters rather than founding new ones.
        let (new_reads, _) = two_species(20, 800, 50_000, 3); // same seed → same genomes
        for r in &new_reads {
            inc.push(r).unwrap();
        }
        assert!(
            inc.num_clusters() <= k + 4,
            "seeded {k}, after stream {}",
            inc.num_clusters()
        );
    }

    #[test]
    fn push_batch_matches_repeated_push() {
        let (mut reads, _) = two_species(50, 800, 50_000, 4);
        let theta = 0.5;
        // Copies land inside one batch of the schedule below (reads
        // 12..15, batch 11..31) and across batches (reads 0, 3 and 9
        // again at the end), next to the reads they copy and far from
        // them.
        for (at, of) in [(13, 12), (14, 12), (30, 20), (44, 0), (47, 3), (49, 9)] {
            reads[at].seq = reads[of].seq.clone();
        }

        // Oracle: one read at a time.
        let mut one = IncrementalClusterer::new(config(theta));
        let mut expect = Vec::new();
        for r in &reads {
            expect.push(one.push(r).unwrap());
        }

        // Same reads through micro-batches of varying size, including
        // an empty batch and a batch larger than the remainder.
        let mut batched = IncrementalClusterer::new(config(theta));
        let mut got = Vec::new();
        let mut at = 0;
        for size in [1, 0, 7, 3, 20, reads.len()] {
            let end = (at + size).min(reads.len());
            got.extend(batched.push_batch(&reads[at..end]).unwrap());
            at = end;
        }
        assert_eq!(at, reads.len(), "batch schedule covers every read");
        assert_eq!(got, expect, "batched labels differ from sequential push");
        assert_eq!(batched.labels(), one.labels());
        assert_eq!(batched.num_clusters(), one.num_clusters());

        // A batch where later reads join clusters founded earlier in
        // the *same* batch (all reads at once) still matches.
        let mut whole = IncrementalClusterer::new(config(theta));
        assert_eq!(whole.push_batch(&reads).unwrap(), expect);
    }

    #[test]
    fn copies_take_the_first_label_without_evaluations() {
        let (reads, _) = two_species(30, 800, 50_000, 5);
        let mut inc = IncrementalClusterer::new(config(0.5));
        let first = inc.push_batch(&reads).unwrap();
        let evaluations = inc.index.evaluations();
        let clusters = inc.num_clusters();

        let copies: Vec<SeqRecord> = reads
            .iter()
            .rev()
            .map(|r| SeqRecord::new(format!("{}-copy", r.id), r.seq.clone()))
            .collect();
        let expect: Vec<usize> = first.iter().rev().copied().collect();
        assert_eq!(inc.push(&copies[0]).unwrap(), expect[0]);
        assert_eq!(inc.push_batch(&copies[1..]).unwrap(), expect[1..]);
        assert_eq!(
            inc.index.evaluations(),
            evaluations,
            "copies are not placed"
        );
        assert_eq!(inc.num_clusters(), clusters, "copies found nothing");
        assert_eq!(inc.labels().len(), 2 * reads.len());
    }

    #[test]
    fn seed_reads_are_placed_not_remembered() {
        // A hierarchical seed labels its reads by linkage, not by
        // Algorithm 1, so a streamed copy of a seed read must take the
        // index's answer (the linear scan's), whatever its seed label.
        let (reads, _) = two_species(40, 800, 50_000, 7);
        let (batch, stream) = reads.split_at(30);
        let cfg = MrMcConfig {
            mode: Mode::Hierarchical,
            ..config(0.5)
        };
        let result = MrMcMinH::new(cfg).run(batch).unwrap();
        let seeds: Vec<&SeqRecord> = result
            .representatives()
            .iter()
            .map(|&r| &batch[r])
            .collect();
        let mut indexed = IncrementalClusterer::from_run(cfg, batch, &result).unwrap();
        let mut oracle = LinearScan::seeded(cfg, &seeds);

        let mut labels = Vec::new();
        for read in batch.iter().chain(stream) {
            let before = indexed.index.evaluations();
            labels.push(indexed.push(read).unwrap());
            assert_eq!(labels.last(), Some(&oracle.push(read)), "{}", read.id);
            assert!(
                indexed.index.evaluations() > before,
                "{} was placed",
                read.id
            );
        }
        assert!(
            (0..batch.len()).any(|i| labels[i] != result.assignment.label(i)),
            "some seed read streams to a label other than its seed label"
        );
    }

    /// At θ = 0 the threshold is 0 agreements: no banding is exact, so
    /// the index files every sketch under one signature and each read,
    /// however unrelated or degenerate, joins label 0.
    #[test]
    fn theta_zero_puts_every_read_in_label_zero() {
        let cfg = config(0.0);
        assert_eq!(cfg.min_agreeing(), 0);
        let mut index = RepresentativeIndex::new(&cfg);
        assert!(index.scheme.is_none());
        let disjoint = |from: u64| Sketch::from_values((from..from + 64).collect());
        let degenerate = Sketch::from_values(vec![mrmc_minhash::sketch::EMPTY_SLOT; 64]);
        let sketches = vec![disjoint(0), disjoint(100), degenerate, disjoint(200)];
        assert_eq!(index.place_all(sketches), vec![0; 4]);
        // One agreement clears the smallest θ above 0, so banding is
        // exact again.
        let cfg = config(f64::MIN_POSITIVE);
        assert_eq!(cfg.min_agreeing(), 1);
        assert!(RepresentativeIndex::new(&cfg).scheme.is_some());
    }

    #[test]
    fn empty_and_degenerate_reads() {
        let mut inc = IncrementalClusterer::new(config(0.9));
        assert_eq!(inc.num_clusters(), 0);
        // A read shorter than k founds its own (degenerate) cluster.
        let tiny = SeqRecord::new("t", b"AC".to_vec());
        let l = inc.push(&tiny).unwrap();
        assert_eq!(l, 0);
        // A second degenerate read joins it (degenerate sketches are
        // mutually "identical" by convention).
        let tiny2 = SeqRecord::new("t2", b"GG".to_vec());
        assert_eq!(inc.push(&tiny2).unwrap(), 0);
    }
}
