//! The five workloads: names, sizes, configurations and seeded inputs.
//!
//! Everything the code under test receives is made here from `--seed` by
//! `mrmc-simulate`; the routes see only FASTA bytes or `SeqRecord`s.

use std::collections::HashMap;

use mrmc::{IncrementalClusterer, MrMcConfig, MrMcMinH};
use mrmc_seqio::fasta::write_fasta;
use mrmc_seqio::SeqRecord;
use mrmc_server::SeedConfig;
use mrmc_simulate::{huse_16s, whole_metagenome_samples, ErrorModel};

/// Full-size read count of the Huse benchmark `huse_16s` scales from.
const HUSE_READS: f64 = 345_000.0;

/// Reads per `submit_labels` micro-batch in `serve_seed_stream`.
pub const SUBMIT_BATCH: usize = 16;

/// DFS paths of the Pig route.
pub const PIG_INPUT: &str = "/in/reads.fa";
/// The two STORE targets of Algorithm 3 (hierarchical, greedy).
pub const PIG_OUTPUTS: [&str; 2] = ["/out/hier", "/out/greedy"];

/// One benchmark workload. The names are stable: later changes are measured
/// against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Native banded-compact route, greedy linkage: shuffle, verify and CSR
    /// build carry the run.
    AmpliconBandedGreedy,
    /// Same layers, average-linkage dendrogram: linkage carries the run.
    AmpliconBandedHier,
    /// Paper-faithful Algorithm 2 on shotgun reads: no shuffle at all.
    ShotgunDenseHier,
    /// Algorithm 3 through the mini-Pig, its UDFs and the DFS.
    PigAlgorithm3,
    /// One tenant on `mrmc-server`: seed, stream of submits, queries.
    ServeSeedStream,
}

/// Full-scale sizes of a workload (`--quick` and the warm-up scale them).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Reads clustered per rep (serve: reads streamed after the seed).
    pub reads: usize,
    /// Serve only: reads of the seeding batch.
    pub seed_reads: usize,
    /// Serve only: closed-loop `query` calls after the stream.
    pub queries: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::AmpliconBandedGreedy,
        Workload::AmpliconBandedHier,
        Workload::ShotgunDenseHier,
        Workload::PigAlgorithm3,
        Workload::ServeSeedStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AmpliconBandedGreedy => "amplicon_banded_greedy",
            Workload::AmpliconBandedHier => "amplicon_banded_hier",
            Workload::ShotgunDenseHier => "shotgun_dense_hier",
            Workload::PigAlgorithm3 => "pig_algorithm3",
            Workload::ServeSeedStream => "serve_seed_stream",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes at scale 1: chosen so one rep takes 0.9–1.5 s on the 2-core box the
    /// baseline was taken on and the driver's run budget holds (README,
    /// "Sizes").
    pub fn sizes(self) -> Sizes {
        let (reads, seed_reads, queries) = match self {
            Workload::AmpliconBandedGreedy => (20_000, 0, 0),
            Workload::AmpliconBandedHier => (8_000, 0, 0),
            Workload::ShotgunDenseHier => (4_000, 0, 0),
            Workload::PigAlgorithm3 => (700, 0, 0),
            Workload::ServeSeedStream => (9_600, 2_000, 4_000),
        };
        Sizes {
            reads,
            seed_reads,
            queries,
        }
    }

    /// Lowest W.Acc (min cluster size 1, against the generator's truth) a
    /// rep may report; set just under the first baseline's values.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::PigAlgorithm3 => 99.0,
            _ => 99.5,
        }
    }

    /// Configuration of the native routes (and of the serve oracle).
    pub fn mrmc_config(self) -> MrMcConfig {
        match self {
            Workload::AmpliconBandedGreedy => MrMcConfig::sixteen_s().banded().greedy(),
            Workload::AmpliconBandedHier => MrMcConfig::sixteen_s().banded().hierarchical(),
            Workload::ShotgunDenseHier => MrMcConfig::whole_metagenome().with_theta(0.6),
            Workload::PigAlgorithm3 => MrMcConfig::sixteen_s(),
            Workload::ServeSeedStream => seed_config().to_mrmc(),
        }
    }
}

/// The seeding configuration `serve_seed_stream` sends: greedy, k = 15,
/// n = 50, θ = 0.95.
pub fn seed_config() -> SeedConfig {
    SeedConfig {
        kmer: 15,
        num_hashes: 50,
        theta: 0.95,
        greedy: true,
        ..SeedConfig::default()
    }
}

/// `$PARAM` bindings of the Algorithm 3 script for `pig_algorithm3`.
pub fn pig_params() -> HashMap<String, String> {
    [
        ("INPUT", PIG_INPUT),
        ("KMER", "15"),
        ("NUMHASH", "50"),
        ("DIV", "1048583"),
        ("LINK", "average"),
        ("CUTOFF", "0.95"),
        ("OUTPUT1", PIG_OUTPUTS[0]),
        ("OUTPUT2", PIG_OUTPUTS[1]),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

/// Seeded inputs of one workload plus what the output checks need.
#[derive(Debug)]
pub struct Input {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The generated reads, in generator order (serve: the seeding batch
    /// first, then the stream).
    pub reads: Vec<SeqRecord>,
    /// The reads as FASTA bytes: what the batch and Pig routes receive.
    pub fasta: Vec<u8>,
    /// Generator's species index per read.
    pub truth: Vec<usize>,
    /// Serve only: length of the seeding prefix of `reads`.
    pub seed_reads: usize,
    /// Serve only: closed-loop queries per rep.
    pub queries: usize,
    /// Serve only: labels a sequential `IncrementalClusterer::from_run` +
    /// `push` gives the first tenth of the stream.
    pub stream_oracle: Vec<u64>,
}

impl Input {
    /// Reads a rep labels: all of them, or the streamed ones for serve.
    pub fn labelled_reads(&self) -> &[SeqRecord] {
        &self.reads[self.seed_reads..]
    }

    /// Truth of [`Input::labelled_reads`].
    pub fn labelled_truth(&self) -> &[usize] {
        &self.truth[self.seed_reads..]
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(2)
}

/// Seed of the simulated communities: the 43 16S genes of the Huse family
/// and the six S12 genomes. The community is part of the workload — redrawn
/// per `--seed`, the S12 genomes alone moved the dense linkage step by ±20 %,
/// which is a different amount of work, not noise — so it stays fixed, is
/// sequenced [`POOL_FACTOR`] times deeper than a rep needs, and `--seed`
/// draws the rep's reads from that pool.
const COMMUNITY_SEED: u64 = 42;

/// Reads simulated per read drawn.
const POOL_FACTOR: usize = 4;

/// `n` distinct indices below `pool` in ascending order, drawn by a partial
/// Fisher–Yates shuffle on a SplitMix64 stream started at `seed`.
fn draw(pool: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut indices: Vec<usize> = (0..pool).collect();
    for i in 0..n {
        let j = i + (next() % (pool - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(n);
    indices.sort_unstable();
    indices
}

/// Make the inputs of `workload` from `seed` at `scale` (1.0 timed, 0.1 for
/// `--quick` and the warm-up). Deterministic in its arguments.
pub fn generate(workload: Workload, seed: u64, scale: f64) -> Input {
    let sizes = workload.sizes();
    let stream = match workload {
        // Whole micro-batches only, so every submit carries SUBMIT_BATCH reads.
        Workload::ServeSeedStream => {
            (scaled(sizes.reads, scale) / SUBMIT_BATCH).max(1) * SUBMIT_BATCH
        }
        _ => scaled(sizes.reads, scale),
    };
    let seed_reads = match workload {
        Workload::ServeSeedStream => scaled(sizes.seed_reads, scale),
        _ => 0,
    };
    let total = stream + seed_reads;
    let pool = total * POOL_FACTOR;
    let dataset = match workload {
        Workload::ShotgunDenseHier => {
            let sample = whole_metagenome_samples()
                .into_iter()
                .find(|s| s.sid == "S12")
                .expect("Table II lists S12");
            let share = pool as f64 / sample.reads as f64;
            sample.generate(share, ErrorModel::with_total_rate(0.002), COMMUNITY_SEED)
        }
        _ => huse_16s(0.03, pool as f64 / HUSE_READS, COMMUNITY_SEED),
    };
    assert_eq!(
        dataset.reads.len(),
        pool,
        "generator rounded the read count"
    );
    let pool_truth = dataset.labels.expect("simulated samples are labelled");
    let picked = draw(pool, total, seed);
    let truth: Vec<usize> = picked.iter().map(|&i| pool_truth[i]).collect();
    let mut pool_reads: Vec<Option<SeqRecord>> = dataset.reads.into_iter().map(Some).collect();
    let reads: Vec<SeqRecord> = picked
        .iter()
        .map(|&i| pool_reads[i].take().expect("indices are distinct"))
        .collect();

    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &reads, 0).expect("writing to a Vec cannot fail");

    let stream_oracle = match workload {
        Workload::ServeSeedStream => {
            let config = workload.mrmc_config();
            let (batch, streamed) = reads.split_at(seed_reads);
            let run = MrMcMinH::new(config)
                .run(batch)
                .expect("oracle seeding run");
            let mut oracle =
                IncrementalClusterer::from_run(config, batch, &run).expect("oracle seeding");
            streamed[..stream / 10]
                .iter()
                .map(|r| oracle.push(r).expect("oracle push") as u64)
                .collect()
        }
        _ => Vec::new(),
    };

    Input {
        workload,
        reads,
        fasta,
        truth,
        seed_reads,
        queries: match workload {
            Workload::ServeSeedStream => scaled(sizes.queries, scale),
            _ => 0,
        },
        stream_oracle,
    }
}
