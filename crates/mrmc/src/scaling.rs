//! The Figure 2 scaling study: runtime vs. nodes vs. input size.
//!
//! The paper measures the hierarchical pipeline on 2–12 EMR nodes for
//! 10³–10⁷ reads. A single machine cannot execute 10⁷-read all-pairs
//! similarity (~5·10¹³ sketch comparisons), so the study runs on the
//! documented substitution: per-record costs are **measured** from
//! real executions at feasible sizes ([`CostCalibration::measure`]),
//! then each job's task list is synthesized for the target size and
//! list-scheduled onto the virtual cluster
//! ([`mrmc_mapreduce::ClusterSpec`]).

use std::time::Instant;

use mrmc_mapreduce::{ClusterSpec, JobCostModel, RecoveryCounters, ShuffleVolume};
use mrmc_minhash::positional_similarity;
use mrmc_seqio::SeqRecord;

use crate::config::MrMcConfig;

/// Measured per-record costs (seconds) of the pipeline's kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCalibration {
    /// Seconds to sketch one read.
    pub sketch_per_read: f64,
    /// Seconds to compare one sketch pair.
    pub sim_per_pair: f64,
    /// Seconds to compute one read's full set of band signatures.
    pub sig_per_read: f64,
    /// Bytes shuffled per read (sketch size).
    pub shuffle_bytes_per_read: f64,
}

impl CostCalibration {
    /// Measure the kernels on synthetic reads of `read_len` bases.
    pub fn measure(config: &MrMcConfig, read_len: usize) -> CostCalibration {
        let hasher = config.hasher();
        let reads: Vec<SeqRecord> = (0..CALIBRATION_READS)
            .map(|salt| SeqRecord::new(format!("cal{salt}"), calibration_read(read_len, salt)))
            .collect();

        let t0 = Instant::now();
        let sketches: Vec<_> = reads
            .iter()
            .map(|r| hasher.sketch_sequence(&r.seq).expect("valid k"))
            .collect();
        let sketch_per_read = t0.elapsed().as_secs_f64() / reads.len() as f64;

        let t1 = Instant::now();
        let mut pairs = 0usize;
        let mut acc = 0.0f64;
        for i in 0..sketches.len() {
            for j in (i + 1)..sketches.len() {
                acc += positional_similarity(&sketches[i], &sketches[j]);
                pairs += 1;
            }
        }
        std::hint::black_box(acc);
        let sim_per_pair = t1.elapsed().as_secs_f64() / pairs as f64;

        let scheme = config.banding_scheme();
        let t2 = Instant::now();
        let mut sigs = Vec::new();
        let mut folded = 0u64;
        for s in &sketches {
            scheme.signatures_into(s, &mut sigs);
            folded ^= sigs.iter().copied().fold(0, u64::wrapping_add);
        }
        std::hint::black_box(folded);
        let sig_per_read = t2.elapsed().as_secs_f64() / sketches.len() as f64;

        CostCalibration {
            sketch_per_read,
            sim_per_pair,
            sig_per_read,
            shuffle_bytes_per_read: (config.num_hashes * 8) as f64,
        }
    }

    /// Simulated total runtime (seconds) of the hierarchical pipeline
    /// on `nodes` nodes for `num_reads` reads.
    pub fn simulate(&self, num_reads: u64, nodes: usize, model: &JobCostModel) -> f64 {
        let cluster = ClusterSpec::m1_large(nodes);
        // Hadoop sizes map tasks at roughly one per block; one task per
        // 64k reads, at least 2 per node slot for balance.
        let map_tasks = ((num_reads / 65_536).max(1) as usize).max(cluster.map_slots() * 2);

        // Job 1: sketching. The sketches themselves are the shuffle
        // payload (n hash values of 8 bytes per read).
        let total_sketch = num_reads as f64 * self.sketch_per_read;
        let sketch_costs = vec![total_sketch / map_tasks as f64; map_tasks];
        let sketch_bytes = (num_reads as f64 * self.shuffle_bytes_per_read) as u64;
        let job1 = job_seconds(&cluster, model, &sketch_costs, num_reads, sketch_bytes);

        // Job 2: all-pairs similarity, row-partitioned. The real stage
        // cuts row blocks on pair counts (`balanced_row_blocks` in
        // mrmc::stages), so per-task costs are level and the uniform
        // vector is the faithful model of its task timings.
        let pairs = num_reads as f64 * (num_reads as f64 - 1.0) / 2.0;
        let total_sim = pairs * self.sim_per_pair;
        let sim_tasks = (map_tasks * 4).max(1);
        let sim_costs = vec![total_sim / sim_tasks as f64; sim_tasks];
        let job2 = job_seconds(&cluster, model, &sim_costs, num_reads, 0);

        job1 + job2
    }

    /// Simulated total runtime (seconds) of the *banded* hierarchical
    /// pipeline: sketch → band-signatures → candidate-dedup → verify.
    /// `bands` is the scheme's band count (shuffle fan-out per read)
    /// and `candidates` the surviving candidate-pair count — take it
    /// from a measured pruning ratio at a feasible size, it grows
    /// ~linearly in reads for fixed community structure.
    pub fn simulate_banded(
        &self,
        num_reads: u64,
        bands: usize,
        candidates: u64,
        nodes: usize,
        model: &JobCostModel,
    ) -> f64 {
        let cluster = ClusterSpec::m1_large(nodes);
        let map_tasks = ((num_reads / 65_536).max(1) as usize).max(cluster.map_slots() * 2);

        // Job 1: sketching (as in the dense pipeline).
        let total_sketch = num_reads as f64 * self.sketch_per_read;
        let sketch_costs = vec![total_sketch / map_tasks as f64; map_tasks];
        let sketch_bytes = (num_reads as f64 * self.shuffle_bytes_per_read) as u64;
        let job1 = job_seconds(&cluster, model, &sketch_costs, num_reads, sketch_bytes);

        // Job 2: band signatures — `bands` narrow records per read
        // cross the shuffle, in place of the dense stage's O(n²)
        // compute. 16 B per record here and 8 B per candidate in job 3
        // are fixed-width upper bounds on what `crate::banded`'s packed
        // keys and delta-encoded id runs ship, kept deliberately
        // conservative against the banded path.
        let sig_records = num_reads * bands.max(1) as u64;
        let total_sig = num_reads as f64 * self.sig_per_read;
        let sig_costs = vec![total_sig / map_tasks as f64; map_tasks];
        let job2 = job_seconds(&cluster, model, &sig_costs, sig_records, sig_records * 16);

        // Job 3: candidate dedup — shuffle-bound, one narrow record
        // per bucket pair (duplicates across bands included; the
        // candidate count is the post-dedup floor, so this is a mild
        // underestimate biased *against* the banded path's win).
        let dedup_costs = vec![0.0; map_tasks];
        let job3 = job_seconds(&cluster, model, &dedup_costs, candidates, candidates * 8);

        // Job 4: verification — the dense similarity kernel, but only
        // over candidates (map-only, no shuffle).
        let total_verify = candidates as f64 * self.sim_per_pair;
        let verify_tasks = (map_tasks * 4).max(1);
        let verify_costs = vec![total_verify / verify_tasks as f64; verify_tasks];
        let job4 = job_seconds(&cluster, model, &verify_costs, 0, 0);

        job1 + job2 + job3 + job4
    }
}

/// Reads [`CostCalibration::measure`] times its kernels on.
const CALIBRATION_READS: u64 = 256;

/// A deterministic pseudo-random read with no RNG dependency: one step
/// of a 64-bit LCG (Knuth's MMIX constants) per base, the base taken
/// from the state's top two bits. The low bits of a power-of-two LCG
/// cycle with period ≤ 4, so `state % 4` would make every read `ACGT`
/// repeated and every calibration sketch equal.
fn calibration_read(len: usize, salt: u64) -> Vec<u8> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            b"ACGT"[(state >> 62) as usize]
        })
        .collect()
}

/// Simulated seconds of one fault-free job whose cost is its map tasks
/// plus a shuffle of `records` records occupying `bytes` bytes.
fn job_seconds(
    cluster: &ClusterSpec,
    model: &JobCostModel,
    map_costs: &[f64],
    records: u64,
    bytes: u64,
) -> f64 {
    let volume = ShuffleVolume {
        records,
        bytes,
        ..Default::default()
    };
    cluster
        .simulate_job(model, map_costs, volume, &[], RecoveryCounters::new(), None)
        .total()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calib() -> CostCalibration {
        // Synthetic calibration resembling real measurements; tests of
        // `measure` itself are separate (it is timing-dependent).
        CostCalibration {
            sketch_per_read: 50e-6,
            sim_per_pair: 0.2e-6,
            sig_per_read: 1e-6,
            shuffle_bytes_per_read: 800.0,
        }
    }

    #[test]
    fn more_nodes_helps_large_inputs() {
        let model = JobCostModel::default();
        let c = calib();
        let t2 = c.simulate(1_000_000, 2, &model);
        let t12 = c.simulate(1_000_000, 12, &model);
        assert!(
            t12 < t2 * 0.5,
            "12 nodes ({t12:.0}s) should be well under half of 2 nodes ({t2:.0}s)"
        );
    }

    #[test]
    fn small_inputs_flat_in_nodes() {
        let model = JobCostModel::default();
        let c = calib();
        let t2 = c.simulate(1_000, 2, &model);
        let t12 = c.simulate(1_000, 12, &model);
        // Figure 2's 1000-read line: "no effect on run time of
        // increasing the number of nodes".
        assert!(
            (t2 - t12).abs() / t2 < 0.25,
            "t2 = {t2:.1}s, t12 = {t12:.1}s"
        );
    }

    #[test]
    fn runtime_monotone_in_input_size() {
        let model = JobCostModel::default();
        let c = calib();
        let mut prev = 0.0;
        for reads in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let t = c.simulate(reads, 8, &model);
            assert!(t >= prev, "reads={reads}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn banded_simulation_beats_dense_at_scale() {
        let model = JobCostModel::default();
        let c = calib();
        let reads = 1_000_000u64;
        // ~50 surviving candidates per read — far denser than real 16S
        // corpora, still a ×10⁴ pruning of the 5·10¹¹ pair set.
        let banded = c.simulate_banded(reads, 3, reads * 50, 8, &model);
        let dense = c.simulate(reads, 8, &model);
        assert!(
            banded < dense * 0.1,
            "banded {banded:.0}s should be well under dense {dense:.0}s"
        );
        // At tiny sizes the fixed four-job overhead makes banding a
        // *loss* — the README's "when dense is still right".
        let banded_small = c.simulate_banded(1_000, 3, 1_000 * 50, 8, &model);
        let dense_small = c.simulate(1_000, 8, &model);
        assert!(banded_small > dense_small);
    }

    #[test]
    fn calibration_reads_are_not_periodic() {
        let distinct = mrmc_seqio::encode::kmer_set(&calibration_read(1000, 0), 5)
            .unwrap()
            .len();
        assert!(distinct >= 200, "only {distinct} distinct 5-mers");
        let hasher = MrMcConfig::whole_metagenome().hasher();
        let sketches: Vec<_> = (0..CALIBRATION_READS)
            .map(|salt| {
                hasher
                    .sketch_sequence(&calibration_read(1000, salt))
                    .unwrap()
            })
            .collect();
        assert!(
            sketches.iter().any(|s| s != &sketches[0]),
            "all {CALIBRATION_READS} calibration sketches are equal"
        );
    }

    #[test]
    fn measure_produces_positive_costs() {
        let cfg = MrMcConfig {
            kmer: 5,
            num_hashes: 16,
            ..Default::default()
        };
        let c = CostCalibration::measure(&cfg, 200);
        assert!(c.sketch_per_read > 0.0);
        assert!(c.sim_per_pair > 0.0);
        assert!(c.shuffle_bytes_per_read > 0.0);
    }
}
