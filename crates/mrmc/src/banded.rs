//! Banded-LSH candidate pruning (DESIGN.md §kernels, "candidate
//! pruning").
//!
//! Replaces the O(n²) all-pairs stage with three Map-Reduce stages:
//!
//! 1. **band-signatures** — each mapper cuts a read's sketch into `b`
//!    bands of `r` rows and emits `(band, signature) → read_id`, the
//!    key bit-packed by a [`BandKeyCodec`] (band index in the top bits,
//!    signature truncated to its low `SIG_BITS` bits) and the id a
//!    delta/varint-encoded [`IdRun`] that a map-side combiner merges
//!    per bucket; the *real* shuffle groups reads by bucket, and the
//!    reducer emits every in-bucket pair;
//! 2. **candidate-dedup** — pairs found by several bands are collapsed
//!    to one candidate by a second shuffle keyed on the pair's *lower
//!    read id* and range-partitioned, partners again travelling as
//!    combiner-merged [`IdRun`]s, so a read's whole similarity
//!    neighborhood lands on one reducer as a single compressed run;
//! 3. **candidate-verify** — a map-only stage evaluates the exact
//!    sketch similarity of each candidate and keeps only edges with
//!    `sim ≥ θ`, yielding a [`SparseSimGraph`].
//!
//! The scheme is always the tuned one ([`MrMcConfig::banding_scheme`],
//! i.e. [`BandingScheme::tune`]): every pair at or above θ shares at
//! least one literally-equal band, so the graph holds *exactly* the
//! pairs a dense run would accept — pruning is lossless at the θ cut.
//! Greedy clustering and single- and complete-linkage θ-cuts over it
//! equal the dense ones; average linkage over it reads the pruned
//! pairs as 0 and can return more clusters than dense (DESIGN.md §5c).
//! Signature truncation can only merge buckets, never split them, so
//! recall stays exactly 1.0; the spurious merges add candidates which
//! the verify stage discards (DESIGN.md §3a "wire format").

use std::marker::PhantomData;

use mrmc_cluster::SparseSimGraph;
use mrmc_mapreduce::job::{Combiner, JobConfig, Mapper, MrKey, Reducer, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::wire::{uvarint_len, BandKeyCodec, IdRun};
use mrmc_mapreduce::MrError;
use mrmc_minhash::{agreements, BandingScheme, Sketch};

use crate::config::MrMcConfig;

/// Read indices travel the banded shuffle, and cluster labels sit in
/// the greedy representative index, as `u32`; reject inputs that
/// cannot be represented instead of truncating them or panicking.
pub fn ensure_read_ids_fit(num_reads: usize) -> Result<(), MrError> {
    if num_reads > u32::MAX as usize {
        return Err(MrError::BadConfig(format!(
            "{num_reads} reads exceed the u32 read-id space (banded shuffle, greedy index)"
        )));
    }
    Ok(())
}

/// Signature bits kept in the packed bucket key: with ≤ 4 bands the
/// key fits in 3 bytes, while the spurious bucket-merge probability
/// per same-band pair stays at 2⁻²².
const SIG_BITS: u32 = 22;

/// Stage-3 mapper: verify one candidate by its agreement count, and
/// emit the edge, weighted count / width, only when it clears θ.
struct VerifyMapper<'a> {
    sketches: &'a [Sketch],
    /// θ as an agreement count ([`MrMcConfig::min_agreeing`]).
    min_agree: usize,
}

impl Mapper for VerifyMapper<'_> {
    type InKey = usize;
    type InValue = (u32, u32);
    type OutKey = (u32, u32);
    type OutValue = f32;

    fn map(&self, _k: usize, (i, j): (u32, u32), ctx: &mut TaskContext<(u32, u32), f32>) {
        let (a, b) = (&self.sketches[i as usize], &self.sketches[j as usize]);
        let agree = agreements(a, b);
        ctx.count("PAIRS_COMPUTED", 1);
        if agree >= self.min_agree {
            ctx.emit((i, j), (agree as f64 / a.len() as f64) as f32);
            ctx.count("EDGES_EMITTED", 1);
        }
    }
}

/// Stage-1 mapper: read index → packed bucket key with a
/// singleton [`IdRun`] payload. Key bytes are the packed width, value
/// bytes the exact run encoding — so `shuffled_bytes` is the true
/// compact-wire volume.
struct CompactBandMapper<'a> {
    scheme: BandingScheme,
    codec: BandKeyCodec,
    sketches: &'a [Sketch],
}

impl Mapper for CompactBandMapper<'_> {
    type InKey = usize;
    type InValue = ();
    type OutKey = u64;
    type OutValue = IdRun;

    fn map(&self, key: usize, _v: (), ctx: &mut TaskContext<u64, IdRun>) {
        let id = u32::try_from(key).expect("read ids checked against u32 upstream");
        let values = self.sketches[key].values();
        for band in 0..self.scheme.bands {
            let sig = self.scheme.signature(band, values);
            ctx.emit(self.codec.pack(band as u32, sig), IdRun::singleton(id));
        }
        ctx.count("BAND_SIGNATURES", self.scheme.bands as u64);
    }

    fn key_wire_size(&self, _key: &u64) -> usize {
        self.codec.wire_bytes()
    }

    fn value_wire_size(&self, value: &IdRun) -> usize {
        value.wire_len()
    }

    fn partition(&self, key: &u64, reducers: usize) -> usize {
        // Similarity-aware assignment: partition by the signature bits
        // alone (mask the band off), so co-bucketed keys — buckets
        // carrying the same signature value — always land on the same
        // reducer, deterministically and without hashing.
        (key & self.codec.sig_mask()) as usize % reducers
    }
}

/// Map-side combiner for [`IdRun`] payloads, whatever the key (packed
/// bucket in stage 1, read id in stage 2): collapse a key's local
/// singleton runs into one sorted, deduped run before the shuffle.
/// Idempotent with the reducers, which re-merge across map tasks.
struct IdRunCombiner<K>(PhantomData<K>);

impl<K: MrKey> Combiner for IdRunCombiner<K> {
    type Key = K;
    type Value = IdRun;

    fn combine(&self, _key: &K, values: Vec<IdRun>) -> Vec<IdRun> {
        vec![IdRun::merge(&values).expect("combiner input runs are well-formed")]
    }
}

/// Stage-1 reducer: decode and merge one bucket's id runs,
/// then emit every in-bucket pair — the fetch-retry path re-fetches
/// these *encoded* runs, and a re-executed map re-encodes them
/// deterministically, so a retry decodes to identical groups.
struct CompactBucketReducer;

impl Reducer for CompactBucketReducer {
    type InKey = u64;
    type InValue = IdRun;
    type OutKey = (u32, u32);
    type OutValue = ();

    fn reduce(&self, _key: u64, runs: Vec<IdRun>, ctx: &mut TaskContext<(u32, u32), ()>) {
        let merged = IdRun::merge(&runs).expect("shuffled runs decode");
        // Triangular pair expansion over nested cursors: the inner
        // cursor clones the outer's position, so the merged run is
        // walked in place and never decoded into a `Vec<u32>`.
        let mut pairs = 0u64;
        let mut outer = merged.cursor().expect("merged run is canonical");
        while let Some(i) = outer.try_next().expect("merged run decodes") {
            let mut inner = outer.clone();
            while let Some(j) = inner.try_next().expect("merged run decodes") {
                ctx.emit((i, j), ());
                pairs += 1;
            }
        }
        ctx.count("BUCKET_PAIRS", pairs);
    }
}

/// Stage-2 mapper: re-key each bucket pair `(i, j)` on its
/// lower read id, carrying the partner as a singleton run. With the
/// combiner this turns a read's candidate list into one delta-encoded
/// run per map task instead of a raw `(u32, u32)` per occurrence.
struct NeighborRunMapper {
    total_reads: usize,
}

impl Mapper for NeighborRunMapper {
    type InKey = (u32, u32);
    type InValue = ();
    type OutKey = u32;
    type OutValue = IdRun;

    fn map(&self, (i, j): (u32, u32), _v: (), ctx: &mut TaskContext<u32, IdRun>) {
        ctx.emit(i, IdRun::singleton(j));
    }

    fn key_wire_size(&self, key: &u32) -> usize {
        uvarint_len(u64::from(*key))
    }

    fn value_wire_size(&self, value: &IdRun) -> usize {
        value.wire_len()
    }

    fn partition(&self, key: &u32, reducers: usize) -> usize {
        // Range partitioning by read id: every candidate of read `i`
        // colocates on one reducer (its similarity neighborhood), and
        // reduce output comes out globally sorted by `(i, j)`.
        ((*key as usize * reducers) / self.total_reads.max(1)).min(reducers - 1)
    }
}

/// Stage-2 reducer: merge a read's partner runs, dedup, and
/// emit one candidate per distinct partner. The duplicate count is the
/// cross-band collisions the combiner could not see (different map
/// tasks).
struct NeighborDedupReducer;

impl Reducer for NeighborDedupReducer {
    type InKey = u32;
    type InValue = IdRun;
    type OutKey = (u32, u32);
    type OutValue = ();

    fn reduce(&self, i: u32, runs: Vec<IdRun>, ctx: &mut TaskContext<(u32, u32), ()>) {
        let total: u64 = runs
            .iter()
            .map(|r| r.try_count().expect("run count prefix decodes"))
            .sum();
        let merged = IdRun::merge(&runs).expect("shuffled runs decode");
        // The merged run is canonical, so its count prefix is exact:
        // no decode needed for the duplicate accounting, and the
        // partner walk streams over the encoded bytes in place.
        let partners = merged.try_count().expect("merged run is canonical");
        ctx.count("CANDIDATES_EMITTED", partners);
        ctx.count("CANDIDATE_DUPLICATES", total - partners);
        let mut cur = merged.cursor().expect("merged run is canonical");
        while let Some(j) = cur.try_next().expect("merged run decodes") {
            ctx.emit((i, j), ());
        }
    }
}

fn job_for(config: &MrMcConfig, name: &str) -> JobConfig {
    JobConfig::named(name)
        .attempts(4)
        .reducers(config.map_tasks)
}

/// Run stages 1–2: band the sketches and return the deduped candidate
/// pair list, sorted.
pub fn banded_candidates(
    sketches: &[Sketch],
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<Vec<(u32, u32)>, MrError> {
    ensure_read_ids_fit(sketches.len())?;
    let scheme = config.banding_scheme();
    let input: Vec<(usize, ())> = (0..sketches.len()).map(|i| (i, ())).collect();
    let codec = BandKeyCodec::new(scheme.bands, SIG_BITS).map_err(MrError::BadConfig)?;
    let mapper = CompactBandMapper {
        scheme,
        codec,
        sketches,
    };
    let mut bucket_pairs = pipeline.run_stage_with_combiner(
        input,
        config.map_tasks,
        &mapper,
        &IdRunCombiner(PhantomData),
        &CompactBucketReducer,
        &job_for(config, "band-signatures"),
    )?;
    // Total-order handoff: sorting the pair stream makes cross-band
    // duplicates of the same pair adjacent, so the stage-2 input
    // splits hand them to one map task and the combiner eliminates
    // them before they reach the wire.
    bucket_pairs.sort_unstable();
    let deduped = pipeline.run_stage_with_combiner(
        bucket_pairs,
        config.map_tasks,
        &NeighborRunMapper {
            total_reads: sketches.len(),
        },
        &IdRunCombiner(PhantomData),
        &NeighborDedupReducer,
        &job_for(config, "candidate-dedup"),
    )?;
    let candidates: Vec<(u32, u32)> = deduped.into_iter().map(|(p, ())| p).collect();
    // Range partitioning by `i` plus each reducer's sorted keys and
    // ascending partner walk: reduce output concatenated in partition
    // order is already strictly `(i, j)`-ordered.
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    Ok(candidates)
}

/// Run the full candidate pipeline (stages 1–3) and return the sparse
/// θ-graph: exactly the pairs whose verified similarity clears θ,
/// restricted to banding candidates — the full truth set under the
/// exact-recall scheme.
pub fn banded_graph_stage(
    sketches: &[Sketch],
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<SparseSimGraph, MrError> {
    let candidates = banded_candidates(sketches, config, pipeline)?;
    let mapper = VerifyMapper {
        sketches,
        min_agree: config.min_agreeing(),
    };
    let input: Vec<(usize, (u32, u32))> = candidates.into_iter().enumerate().collect();
    // More, smaller tasks than the banding stages — verification is
    // the compute-heavy step, like the dense row blocks.
    let tasks = (config.map_tasks * 4).min(input.len().max(1));
    let edges =
        pipeline.run_map_stage(input, tasks, &mapper, &job_for(config, "candidate-verify"))?;
    Ok(SparseSimGraph::from_edges(
        sketches.len(),
        edges.into_iter().map(|((i, j), s)| (i, j, s)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::stages::sketch_stage;
    use mrmc_seqio::SeqRecord;

    fn reads() -> Vec<SeqRecord> {
        // Two identical pairs and one outlier.
        vec![
            SeqRecord::new("a1", b"ACGTACGTACGTACGTTTTTGGGG".to_vec()),
            SeqRecord::new("a2", b"ACGTACGTACGTACGTTTTTGGGG".to_vec()),
            SeqRecord::new("b1", b"TTGGCCAATTGGCCAATTGGCCAA".to_vec()),
            SeqRecord::new("b2", b"TTGGCCAATTGGCCAATTGGCCAA".to_vec()),
        ]
    }

    fn config() -> MrMcConfig {
        MrMcConfig {
            kmer: 5,
            num_hashes: 32,
            theta: 0.95,
            mode: Mode::Greedy,
            map_tasks: 2,
            ..Default::default()
        }
        .banded()
    }

    #[test]
    fn candidates_match_naive_collision_scan() {
        let cfg = config();
        let mut p = Pipeline::new("t");
        let sketches = sketch_stage(&reads(), &cfg, &mut p).unwrap();
        let got = banded_candidates(&sketches, &cfg, &mut p).unwrap();
        let scheme = cfg.banding_scheme();
        let mut want = Vec::new();
        for i in 0..sketches.len() {
            for j in i + 1..sketches.len() {
                if scheme.collides(&sketches[i], &sketches[j]) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(got, want);
        // The identical pairs must be candidates.
        assert!(got.contains(&(0, 1)));
        assert!(got.contains(&(2, 3)));
    }

    #[test]
    fn graph_holds_exactly_the_verified_edges() {
        let cfg = config();
        let mut p = Pipeline::new("t");
        let sketches = sketch_stage(&reads(), &cfg, &mut p).unwrap();
        let graph = banded_graph_stage(&sketches, &cfg, &mut p).unwrap();
        assert_eq!(graph.len(), 4);
        assert_eq!(graph.sim(0, 1), 1.0);
        assert_eq!(graph.sim(2, 3), 1.0);
        assert_eq!(graph.sim(0, 2), 0.0, "cross-species pair pruned");
        // Stage accounting: 3 banded stages after the sketch stage.
        assert_eq!(p.stages().len(), 4);
        let verified = p.counter_total("PAIRS_COMPUTED");
        assert_eq!(verified, p.counter_total("CANDIDATES_EMITTED"));
        assert!(verified <= 6, "pruning cannot exceed all pairs");
        assert_eq!(p.counter_total("EDGES_EMITTED"), 2);
        // Banding stages really shuffle.
        assert!(p.stages()[1].shuffled_pairs > 0);
        assert!(p.stages()[1].shuffled_bytes > 0);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let cfg = config();
        let mut p = Pipeline::new("t");
        let g = banded_graph_stage(&[], &cfg, &mut p).unwrap();
        assert!(g.is_empty());
        let sketches = sketch_stage(&reads()[..1], &cfg, &mut p).unwrap();
        let g = banded_graph_stage(&sketches, &cfg, &mut p).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
