//! The Map-Reduce stages of the MrMC-MinH pipeline (paper Fig. 1).
//!
//! Stage 1 (**sketching**, map-only): each mapper encodes the DNA
//! alphabet, extracts k-mers, and computes the n minwise hash values —
//! the fused equivalent of the `StringGenerator` → `TranslateToKmer` →
//! `CalculateMinwiseHash` UDF chain. It sketches each *distinct*
//! sequence once: the driver first groups reads by their exact bytes
//! ([`dereplicate`]), and a copy of a read takes its first
//! occurrence's sketch, which is the same deterministic function of the
//! same bytes (DESIGN.md §5d). The driver then sorts the distinct
//! sequences by their bytes and maps one block of that order per task;
//! a task rolls each prefix its block's neighbours share once
//! ([`MinHasher::sketch_sequences`], DESIGN.md §5a "Shared prefixes").
//! Amplicon reads of one template start at the same primer-delimited
//! base, so about half of their bases are such a prefix.
//!
//! Stage 2 (**all-pairs similarity**, map-only over *rows*): "the
//! calculation of all pairwise similarity is performed in parallel by
//! performing a row-wise partition" — each map task owns a strip of
//! rows of the upper triangle. The sketches are packed once into a
//! [`SketchPlane`] that all tasks read: each value becomes its rank
//! within its column, in the narrowest lane that holds every column's
//! ranks beside an empty mark — one byte per position for the dense
//! workloads, whose columns hold a few dozen distinct minima. A task
//! fills each row's strip of agreement counts through one
//! [`SketchPlane::extend_counts`] call, in the narrowest lane that holds
//! the sketch width — `u8` up to 255, a quarter of the bytes of `f32`
//! similarities, else `u16` — and divides nothing. The strips become a
//! [`PairCounts`] as they arrive ([`pair_counts_stage`]), which the
//! native route links as they are; [`similarity_matrix_stage`] turns
//! them into the `f32` matrix through a `width + 1`-entry table.

use std::marker::PhantomData;

use mrmc_cluster::{CondensedMatrix, CountStrips, GroupMismatch, Groups, PairCounts};
use mrmc_mapreduce::job::{JobConfig, Mapper, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::MrError;
use mrmc_minhash::sketch::common_prefix_len;
use mrmc_minhash::{MinHasher, Sketch, SketchPlane};
use mrmc_seqio::SeqRecord;

use crate::banded::ensure_read_ids_fit;
use crate::config::MrMcConfig;

/// Group `reads` by exact sequence bytes on the driver (DESIGN.md
/// §5d), numbered by first occurrence. The keys borrow the reads'
/// bytes, so the pass allocates its three index vectors and the map's
/// table, never per read. More than `u32::MAX` reads is a
/// [`MrError::BadConfig`].
pub fn dereplicate(reads: &[SeqRecord]) -> Result<Groups, MrError> {
    ensure_read_ids_fit(reads.len())?;
    Groups::by_key(reads.iter().map(|r| r.seq.as_slice()))
        .map_err(|e| MrError::BadConfig(e.to_string()))
}

/// A [`Groups`] that does not fit the values or vertices it meets, as
/// a run's error: [`MrError::BadConfig`].
pub(crate) fn grouping(mismatch: GroupMismatch) -> MrError {
    MrError::BadConfig(mismatch.to_string())
}

/// Stage-1 mapper: a block of the distinct sequences in byte order →
/// one `(group, sketch)` per sequence, from one
/// [`MinHasher::sketch_sequences_counted`] call, so each prefix the
/// block's neighbours share is rolled once. Borrows the reads and the
/// order (the engine runs mappers on scoped threads), so map input is
/// two integers — no `SeqRecord` is ever cloned into the job, even on
/// task retry. Group sizes keep `DEGENERATE_SKETCHES` a count of reads.
struct SketchBlockMapper<'a> {
    hasher: MinHasher,
    reads: &'a [SeqRecord],
    derep: &'a Groups,
    /// Groups in the byte order of their sequences.
    order: &'a [u32],
}

impl SketchBlockMapper<'_> {
    fn seq(&self, group: u32) -> &[u8] {
        &self.reads[self.derep.first()[group as usize] as usize].seq
    }
}

impl Mapper for SketchBlockMapper<'_> {
    type InKey = usize;
    type InValue = (usize, usize);
    type OutKey = usize;
    type OutValue = Sketch;

    fn map(&self, _block: usize, (b0, b1): (usize, usize), ctx: &mut TaskContext<usize, Sketch>) {
        let groups = &self.order[b0..b1];
        let seqs: Vec<&[u8]> = groups.iter().map(|&g| self.seq(g)).collect();
        let (sketches, rolled) = self
            .hasher
            .sketch_sequences_counted(&seqs)
            .expect("k validated by MrMcConfig");
        let bases: usize = seqs.iter().map(|s| s.len()).sum();
        ctx.count("SKETCH_BASES", bases as u64);
        ctx.count("SKETCH_BASES_ROLLED", rolled);
        for (&g, sketch) in groups.iter().zip(sketches) {
            if sketch.is_degenerate() {
                let copies = self.derep.sizes()[g as usize];
                ctx.count("DEGENERATE_SKETCHES", u64::from(copies));
            }
            ctx.emit(g as usize, sketch);
        }
    }
}

/// Run the sketching stage on the Map-Reduce substrate over the
/// distinct sequences of `derep`: one sketch per group, in group order.
///
/// The driver sorts the groups by their bytes and cuts that order into
/// `config.map_tasks` contiguous blocks of near-equal work — the bases
/// past each sequence's common prefix with its predecessor; a task
/// sketches one block, resuming each sequence from the state its
/// predecessor left at their common prefix (DESIGN.md §5a, "Shared
/// prefixes"). `SKETCH_BASES` counts the distinct sequences' bases,
/// `SKETCH_BASES_ROLLED` those the kernel stepped. Tasks get the Hadoop
/// default attempt budget (4), so faults injected through the pipeline
/// are survivable.
pub fn sketch_distinct_stage(
    reads: &[SeqRecord],
    derep: &Groups,
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<Vec<Sketch>, MrError> {
    let seq = |g: u32| reads[derep.first()[g as usize] as usize].seq.as_slice();
    let mut order: Vec<u32> = (0..derep.num_groups() as u32).collect();
    // Distinct sequences: no ties, so the order is the bytes' alone.
    order.sort_unstable_by(|&a, &b| seq(a).cmp(seq(b)));
    // A sequence weighs the bases the kernel rolls for it when it can
    // resume from its predecessor: those past their common prefix.
    let rolls: Vec<usize> = (0..order.len())
        .map(|r| {
            let s = seq(order[r]);
            let shared = r
                .checked_sub(1)
                .map_or(0, |p| common_prefix_len(seq(order[p]), s));
            s.len() - shared
        })
        .collect();
    let blocks = balanced_blocks(rolls.iter().copied(), config.map_tasks);
    let mapper = SketchBlockMapper {
        hasher: config.hasher(),
        reads,
        derep,
        order: &order,
    };
    let input: Vec<(usize, (usize, usize))> = blocks.into_iter().enumerate().collect();
    let job = JobConfig::named("minwise-sketch").attempts(4);
    let mut out = pipeline.run_map_stage(input, config.map_tasks, &mapper, &job)?;
    out.sort_unstable_by_key(|&(g, _)| g);
    assert!(
        out.iter().map(|&(g, _)| g).eq(0..order.len()),
        "one sketch per group"
    );
    Ok(out.into_iter().map(|(_, sketch)| sketch).collect())
}

/// One sketch per read, in read order: [`dereplicate`], then
/// [`sketch_distinct_stage`], then [`Groups::lift`] — a copy's
/// sketch is a clone of its first occurrence's, bit for bit the sketch
/// its own bytes give.
pub fn sketch_stage(
    reads: &[SeqRecord],
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<Vec<Sketch>, MrError> {
    let derep = dereplicate(reads)?;
    let distinct = sketch_distinct_stage(reads, &derep, config, pipeline)?;
    derep.lift(distinct).map_err(grouping)
}

/// Partition items `0..weights.len()` into at most `tasks` contiguous
/// blocks of near-equal total weight: a block closes once it reaches
/// ≈ `total/tasks`. Stage 1 weighs a sequence by the bases it rolls,
/// Stage 2 row `r` by its `n−1−r` pairs: equal item counts would give
/// unequal work (row 0 carries n−1 pairs, row n−1 none), and level task
/// timings are what the Figure 2 makespan simulation assumes.
fn balanced_blocks(
    weights: impl ExactSizeIterator<Item = usize> + Clone,
    tasks: usize,
) -> Vec<(usize, usize)> {
    let n = weights.len();
    let total: usize = weights.clone().sum();
    let target = total.div_ceil(tasks.max(1)).max(1);
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, w) in weights.enumerate() {
        acc += w;
        if acc >= target || i == n - 1 {
            blocks.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    blocks
}

/// Stage 2's row blocks: rows `0..n` weighed by their pair counts.
fn balanced_row_blocks(n: usize, tasks: usize) -> Vec<(usize, usize)> {
    balanced_blocks((0..n).map(|r| n - 1 - r), tasks)
}

/// Stage-2 mapper: a contiguous block of matrix rows → one strip of
/// [`SketchPlane::count`]s per row, each count in lane `L`, filled by
/// [`SketchPlane::extend_counts`] off the packed compare plane (borrowed —
/// the engine runs mappers on scoped threads, so nothing is cloned into
/// tasks). Every row streams the rows after it once; the whole plane of
/// the largest dense workload is ≈ 0.4 MB of byte ranks, so there is no
/// sub-block walk to keep operands in cache.
struct RowBlockMapper<'a, L> {
    plane: &'a SketchPlane,
    lane: PhantomData<L>,
}

/// The lane of Stage 2's counts: `u8` or `u16`. [`pair_counts_stage`]
/// picks the one that holds the sketch width, and a count is at most
/// the width, so narrowing keeps every bit.
trait CountLane: Copy + Send + Sync {
    fn narrow(count: usize) -> Self;
}

impl CountLane for u8 {
    #[inline]
    fn narrow(count: usize) -> u8 {
        count as u8
    }
}

impl CountLane for u16 {
    #[inline]
    fn narrow(count: usize) -> u16 {
        count as u16
    }
}

impl<L: CountLane> Mapper for RowBlockMapper<'_, L> {
    type InKey = usize;
    type InValue = (usize, usize);
    type OutKey = usize;
    type OutValue = Vec<L>;

    fn map(&self, _block: usize, (r0, r1): (usize, usize), ctx: &mut TaskContext<usize, Vec<L>>) {
        let n = self.plane.len();
        let mut pairs = 0u64;
        for row in r0..r1 {
            let mut strip = Vec::with_capacity(n - row - 1);
            self.plane
                .extend_counts(row, row + 1..n, &mut strip, L::narrow);
            pairs += strip.len() as u64;
            ctx.emit(row, strip);
        }
        ctx.count("PAIRS_COMPUTED", pairs);
    }
}

/// One map task per pair-balanced row block of `plane`, each emitting
/// one count strip per row; the strips in row order.
fn count_strips<L: CountLane>(
    plane: &SketchPlane,
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<Vec<Vec<L>>, MrError> {
    let n = plane.len();
    let mapper = RowBlockMapper {
        plane,
        lane: PhantomData,
    };
    let job = JobConfig::named("pairwise-similarity").attempts(4);
    // More, smaller tasks than the sketch stage, balanced by pair
    // count rather than row count.
    let tasks = (config.map_tasks * 4).min(n.max(1));
    let blocks = balanced_row_blocks(n, tasks);
    let input: Vec<(usize, (usize, usize))> = blocks.into_iter().enumerate().collect();
    let num_tasks = input.len().max(1);
    let mut rows = pipeline.run_map_stage(input, num_tasks, &mapper, &job)?;
    // The engine preserves task order and tasks emit ascending rows,
    // so the sort finds its input sorted; it is here so that the
    // strips' order does not depend on either.
    rows.sort_unstable_by_key(|&(row, _)| row);
    assert!(
        rows.iter().map(|&(row, _)| row).eq(0..n),
        "one strip per row"
    );
    Ok(rows.into_iter().map(|(_, strip)| strip).collect())
}

/// Run the all-pairs stage: one map task per pair-balanced row block,
/// each emitting one count strip per row — row `r`'s counts against
/// rows `r+1..n` — in the narrowest lane that holds the sketch width
/// (`u8` up to 255, else `u16`). The strips become the
/// [`PairCounts`] as they arrive. Tasks get the Hadoop default attempt
/// budget (4). Sketches of unequal length, or longer than `u16::MAX`,
/// are a [`MrError::BadConfig`] before any task runs.
pub fn pair_counts_stage(
    sketches: Vec<Sketch>,
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<PairCounts, MrError> {
    let plane = SketchPlane::pack(&sketches)
        .map_err(|ragged| MrError::BadConfig(format!("pairwise-similarity input: {ragged}")))?;
    drop(sketches);
    let width = plane.width();
    let strips = if width <= usize::from(u8::MAX) {
        CountStrips::Narrow(count_strips(&plane, config, pipeline)?)
    } else if width <= usize::from(u16::MAX) {
        CountStrips::Wide(count_strips(&plane, config, pipeline)?)
    } else {
        return Err(MrError::BadConfig(format!(
            "pairwise-similarity input: sketch width {width} exceeds the u16 count of {}",
            u16::MAX
        )));
    };
    Ok(PairCounts::new(width, strips))
}

/// The all-pairs stage as a similarity matrix: [`pair_counts_stage`],
/// each count turned into its similarity through a `width + 1`-entry
/// table ([`PairCounts::to_matrix`]), bit-identical to a division per
/// pair.
pub fn similarity_matrix_stage(
    sketches: Vec<Sketch>,
    config: &MrMcConfig,
    pipeline: &mut Pipeline,
) -> Result<CondensedMatrix, MrError> {
    Ok(pair_counts_stage(sketches, config, pipeline)?.to_matrix())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_minhash::positional_similarity;

    fn reads() -> Vec<SeqRecord> {
        vec![
            SeqRecord::new("a", b"ACGTACGTACGTACGTTTTTGGGG".to_vec()),
            SeqRecord::new("b", b"ACGTACGTACGTACGTTTTTGGGG".to_vec()),
            SeqRecord::new("c", b"TTGGCCAATTGGCCAATTGGCCAA".to_vec()),
        ]
    }

    fn config() -> MrMcConfig {
        MrMcConfig {
            kmer: 5,
            num_hashes: 32,
            map_tasks: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sketch_stage_preserves_order_and_determinism() {
        let mut p1 = Pipeline::new("t");
        let s1 = sketch_stage(&reads(), &config(), &mut p1).unwrap();
        let mut p2 = Pipeline::new("t");
        let s2 = sketch_stage(&reads(), &config(), &mut p2).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 3);
        assert_eq!(s1[0], s1[1]); // identical sequences, identical sketches
        assert_ne!(s1[0], s1[2]);
        assert_eq!(p1.stages().len(), 1);
    }

    #[test]
    fn similarity_matrix_matches_direct_computation() {
        let mut p = Pipeline::new("t");
        let cfg = config();
        let sketches = sketch_stage(&reads(), &cfg, &mut p).unwrap();
        let direct =
            CondensedMatrix::build(3, |i, j| positional_similarity(&sketches[i], &sketches[j]));
        let via_mr = similarity_matrix_stage(sketches, &cfg, &mut p).unwrap();
        assert_eq!(via_mr, direct);
        assert_eq!(via_mr.get(0, 1), 1.0);
        assert!(via_mr.get(0, 2) < 0.2);
    }

    #[test]
    fn balanced_blocks_tile_rows_and_balance_pairs() {
        for (n, tasks) in [(0usize, 4usize), (1, 4), (2, 1), (10, 3), (57, 8), (100, 7)] {
            let blocks = balanced_row_blocks(n, tasks);
            // Blocks tile 0..n contiguously.
            let mut cursor = 0;
            for &(s, e) in &blocks {
                assert_eq!(s, cursor, "n={n} tasks={tasks}");
                assert!(e > s);
                cursor = e;
            }
            assert_eq!(cursor, n, "n={n} tasks={tasks}");
            if n < 2 {
                continue;
            }
            // No block exceeds target + one row's worth of pairs.
            let total = n * (n - 1) / 2;
            let target = total.div_ceil(tasks).max(1);
            for &(s, e) in &blocks {
                let pairs: usize = (s..e).map(|r| n - 1 - r).sum();
                assert!(
                    pairs < target + n,
                    "n={n} tasks={tasks} block ({s},{e}) has {pairs} pairs, target {target}"
                );
            }
        }
    }

    /// Stage 2's matrix against per-pair `positional_similarity`, bit
    /// for bit, at each sketch width of `widths`. Reads 3 and 17 are
    /// shorter than k, so their degenerate rows meet each other at 1.0.
    /// Returns the rank lane of each width's plane.
    fn assert_strips_match_direct(
        mut reads: Vec<SeqRecord>,
        base: MrMcConfig,
        widths: [usize; 2],
    ) -> Vec<usize> {
        reads.insert(3, SeqRecord::new("short1", b"ACG".to_vec()));
        reads.insert(17, SeqRecord::new("short2", b"TT".to_vec()));
        let mut lanes = Vec::new();
        for num_hashes in widths {
            let cfg = MrMcConfig { num_hashes, ..base };
            let mut p = Pipeline::new("t");
            let sketches = sketch_stage(&reads, &cfg, &mut p).unwrap();
            lanes.push(SketchPlane::pack(&sketches).unwrap().lane_bytes());
            let direct = CondensedMatrix::build(reads.len(), |i, j| {
                positional_similarity(&sketches[i], &sketches[j])
            });
            let via_mr = similarity_matrix_stage(sketches, &cfg, &mut p).unwrap();
            let bits = |m: &CondensedMatrix| -> Vec<u32> {
                m.as_slice().iter().map(|s| s.to_bits()).collect()
            };
            assert_eq!(bits(&via_mr), bits(&direct), "{num_hashes} hashes");
            assert_eq!(via_mr.get(3, 17), 1.0, "two degenerate sketches");
        }
        lanes
    }

    #[test]
    fn row_strips_match_direct_at_scale() {
        // Enough rows for several multi-row blocks per task; a width
        // above 255 takes counts that need both bytes.
        let reads: Vec<SeqRecord> = (0..40)
            .map(|i| {
                let seq: Vec<u8> = (0..60)
                    .map(|j| b"ACGT"[(i * 7 + j * 3 + i * j) % 4])
                    .collect();
                SeqRecord::new(format!("r{i}"), seq)
            })
            .collect();
        assert_eq!(
            assert_strips_match_direct(reads, config(), [32, 300]),
            [1, 1]
        );
    }

    #[test]
    fn row_strips_match_direct_on_two_byte_ranks() {
        // 300 unrelated reads at k = 12: a column holds more than 255
        // distinct minwise values, so the plane ranks in `u16` lanes,
        // under both `u8` (100 hashes) and `u16` (300) counts.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let reads: Vec<SeqRecord> = (0..300)
            .map(|i| {
                let seq: Vec<u8> = (0..40)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        b"ACGT"[(state >> 62) as usize]
                    })
                    .collect();
                SeqRecord::new(format!("r{i}"), seq)
            })
            .collect();
        let cfg = MrMcConfig {
            kmer: 12,
            ..config()
        };
        assert_eq!(assert_strips_match_direct(reads, cfg, [100, 300]), [2, 2]);
    }

    #[test]
    fn counts_take_the_narrowest_lane() {
        let reads: Vec<SeqRecord> = (0..12)
            .map(|i| {
                let seq: Vec<u8> = (0..40).map(|j| b"ACGT"[(i * j + j / 3) % 4]).collect();
                SeqRecord::new(format!("r{i}"), seq)
            })
            .collect();
        for (num_hashes, wide) in [(255, false), (256, true)] {
            let cfg = MrMcConfig {
                num_hashes,
                ..config()
            };
            let mut p = Pipeline::new("t");
            let sketches = sketch_stage(&reads, &cfg, &mut p).unwrap();
            let plane = SketchPlane::pack(&sketches).unwrap();
            let n = plane.len();
            let plane = &plane;
            let strip = |i: usize| (i + 1..n).map(move |j| plane.count(i, j));
            let expected = if wide {
                CountStrips::Wide(
                    (0..n)
                        .map(|i| strip(i).map(|c| c as u16).collect())
                        .collect(),
                )
            } else {
                CountStrips::Narrow(
                    (0..n)
                        .map(|i| strip(i).map(|c| c as u8).collect())
                        .collect(),
                )
            };
            assert_eq!(
                pair_counts_stage(sketches, &cfg, &mut p).unwrap(),
                PairCounts::new(num_hashes, expected),
                "{num_hashes} hashes"
            );
        }
    }

    #[test]
    fn width_beyond_u16_is_a_typed_error_and_runs_no_task() {
        let wide = vec![Sketch::from_values(vec![7; 1 << 16]); 3];
        let mut p = Pipeline::new("t");
        match similarity_matrix_stage(wide, &config(), &mut p) {
            Err(MrError::BadConfig(msg)) => assert!(msg.contains("width 65536"), "{msg}"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
        assert!(p.stages().is_empty(), "no stage, hence no task, ran");
    }

    #[test]
    fn ragged_sketches_are_a_typed_error_and_run_no_task() {
        let ragged = vec![
            Sketch::from_values(vec![1, 2, 3]),
            Sketch::from_values(vec![1, 2, 3]),
            Sketch::from_values(vec![1, 2]),
        ];
        let mut p = Pipeline::new("t");
        match similarity_matrix_stage(ragged, &config(), &mut p) {
            Err(MrError::BadConfig(msg)) => {
                assert!(msg.contains("sketch 2 has 2 positions"), "{msg}")
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
        assert!(p.stages().is_empty(), "no stage, hence no task, ran");
    }

    #[test]
    fn degenerate_sketch_counted() {
        // Shorter than k; copies are sketched once and counted as reads.
        let short = SeqRecord::new("s", b"ACG".to_vec());
        let cfg = config();
        for copies in [1, 2] {
            let mut p = Pipeline::new("t");
            let s = sketch_stage(&vec![short.clone(); copies], &cfg, &mut p).unwrap();
            assert_eq!(s.len(), copies);
            assert!(s.iter().all(Sketch::is_degenerate));
            assert_eq!(p.counter_total("DEGENERATE_SKETCHES"), copies as u64);
            let records: u64 = p.stages()[0].map_stats.iter().map(|t| t.records_in).sum();
            assert_eq!(records, 1, "{copies} copies, one map input record");
        }
    }

    #[test]
    fn lift_moves_first_occurrences_and_clones_copies() {
        let derep = dereplicate(&reads()).unwrap();
        assert_eq!(derep.of(), [0, 0, 1]);
        assert_eq!(derep.first(), [0, 2]);
        assert_eq!(derep.sizes(), [2, 1]);
        assert_eq!(derep.num_groups(), 2);
        assert_eq!(derep.lift(vec!["a", "c"]), Ok(vec!["a", "a", "c"]));
    }

    #[test]
    fn empty_input() {
        let mut p = Pipeline::new("t");
        let cfg = config();
        let s = sketch_stage(&[], &cfg, &mut p).unwrap();
        assert!(s.is_empty());
        let m = similarity_matrix_stage(s, &cfg, &mut p).unwrap();
        assert!(m.is_empty());
    }
}
