//! Bit-identity of the sort-merge shuffle against the old data plane.
//!
//! The engine used to concatenate every map task's partition output in
//! map order and stable-sort it by key inside the reduce task; the
//! sort-merge plane instead emits pre-sorted per-partition runs and
//! k-way-merges them reducer-side. These tests reimplement the *old*
//! plane as a sequential oracle and demand exact `Vec` equality — not
//! sorted-set equality — so partition order, key order, and the order
//! of values *within* a reduce group are all pinned down, for random
//! key distributions, skewed partitions, and empty partitions, with
//! and without a combiner, and under injected faults.

use std::sync::Arc;

use proptest::prelude::*;

use mrmc_chaos::{FaultPlan, Phase};
use mrmc_mapreduce::job::{partition_of, Combiner, JobConfig, Mapper, Reducer, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;

/// The pre-sort-merge data plane, run sequentially: chunk exactly like
/// the engine, map in task order, combine on a stable key sort with
/// `vec![first]` grouping, append each map's pairs to flat partitions
/// in map order, stable-sort each partition, group, reduce.
fn concat_sort_run<M, C, R>(
    input: &[(M::InKey, M::InValue)],
    num_maps: usize,
    mapper: &M,
    combiner: Option<&C>,
    reducer: &R,
    reducers: usize,
) -> Vec<(R::OutKey, R::OutValue)>
where
    M: Mapper,
    M::InKey: Clone,
    M::InValue: Clone,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    let n = num_maps.max(1);
    let (base, extra) = (input.len() / n, input.len() % n);
    let mut partitions: Vec<Vec<(M::OutKey, M::OutValue)>> =
        (0..reducers).map(|_| Vec::new()).collect();
    let mut offset = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        let chunk = &input[offset..offset + size];
        offset += size;
        let mut ctx = TaskContext::new();
        for (k, v) in chunk {
            mapper.map(k.clone(), v.clone(), &mut ctx);
        }
        let (mut pairs, _) = ctx.into_parts();
        if let Some(c) = combiner {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut combined = Vec::new();
            let mut iter = pairs.into_iter().peekable();
            while let Some((key, first)) = iter.next() {
                let mut group = vec![first];
                while iter.peek().is_some_and(|(k, _)| *k == key) {
                    group.push(iter.next().expect("peeked").1);
                }
                for v in c.combine(&key, group) {
                    combined.push((key.clone(), v));
                }
            }
            pairs = combined;
        }
        for (k, v) in pairs {
            let p = partition_of(&k, reducers);
            partitions[p].push((k, v));
        }
    }
    let mut output = Vec::new();
    for mut pairs in partitions {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ctx = TaskContext::new();
        let mut iter = pairs.into_iter().peekable();
        while let Some((key, first)) = iter.next() {
            let mut group = vec![first];
            while iter.peek().is_some_and(|(k, _)| *k == key) {
                group.push(iter.next().expect("peeked").1);
            }
            reducer.reduce(key, group, &mut ctx);
        }
        let (out, _) = ctx.into_parts();
        output.extend(out);
    }
    output
}

/// Emits 1–3 pairs per record, each value carrying `(record id,
/// emission ordinal)` — unique provenance, so any reordering of equal
/// keys between the planes changes the output.
struct TagMapper {
    key_space: u32,
}
impl Mapper for TagMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = (u32, u32);
    fn map(&self, id: u32, x: u32, ctx: &mut TaskContext<u32, (u32, u32)>) {
        for e in 0..1 + x % 3 {
            ctx.emit(x.wrapping_add(e) % self.key_space.max(1), (id, e));
        }
    }
}

/// Emits each group's value list verbatim: the reducer output *is* the
/// grouped value order, making equality order-sensitive end to end.
struct CollectReducer;
impl Reducer for CollectReducer {
    type InKey = u32;
    type InValue = (u32, u32);
    type OutKey = u32;
    type OutValue = Vec<(u32, u32)>;
    fn reduce(&self, k: u32, vs: Vec<(u32, u32)>, ctx: &mut TaskContext<u32, Vec<(u32, u32)>>) {
        ctx.emit(k, vs);
    }
}

/// Keeps only a prefix of each local group — order-sensitive, so a
/// combiner seeing groups in a different value order changes the job
/// output, which is exactly what the tests must detect.
struct TakeTwoCombiner;
impl Combiner for TakeTwoCombiner {
    type Key = u32;
    type Value = (u32, u32);
    fn combine(&self, _k: &u32, vs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        vs.into_iter().take(2).collect()
    }
}

fn tagged(payloads: &[u32]) -> Vec<(u32, u32)> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u32, x))
        .collect()
}

proptest! {
    /// Random keys: merged-reduce output is element-for-element the old
    /// concat-stable-sort plane's, for any chunking, partition count,
    /// and worker-level interleaving.
    #[test]
    fn merge_plane_bit_identical_random(
        payloads in proptest::collection::vec(any::<u32>(), 0..200),
        key_space in 1u32..40,
        num_maps in 1usize..9,
        reducers in 1usize..9,
        workers in 1usize..5,
    ) {
        let mapper = TagMapper { key_space };
        let input = tagged(&payloads);
        let expect = concat_sort_run(
            &input, num_maps, &mapper, None::<&TakeTwoCombiner>, &CollectReducer, reducers,
        );
        let cfg = JobConfig::named("merge-random").reducers(reducers).workers(workers);
        let mut pipeline = Pipeline::new("merge");
        let got = pipeline.run_stage(input, num_maps, &mapper, &CollectReducer, &cfg).unwrap();
        prop_assert_eq!(got, expect);
        prop_assert!(pipeline.stages()[0].shuffle_runs <= (num_maps * reducers) as u64);
    }

    /// Skewed keys (a 1–3 key universe) funnel nearly everything into
    /// one partition while most reducers sit empty — the merge must
    /// handle both extremes and still match bit-for-bit.
    #[test]
    fn merge_plane_bit_identical_skewed_and_empty(
        payloads in proptest::collection::vec(0u32..3, 0..300),
        key_space in 1u32..4,
        num_maps in 1usize..6,
        reducers in 2usize..17,
    ) {
        let mapper = TagMapper { key_space };
        let input = tagged(&payloads);
        let expect = concat_sort_run(
            &input, num_maps, &mapper, None::<&TakeTwoCombiner>, &CollectReducer, reducers,
        );
        let cfg = JobConfig::named("merge-skew").reducers(reducers).workers(4);
        let mut pipeline = Pipeline::new("merge");
        let got = pipeline.run_stage(input, num_maps, &mapper, &CollectReducer, &cfg).unwrap();
        prop_assert_eq!(got, expect);
        // At most `key_space` partitions can be non-empty.
        prop_assert!(pipeline.stages()[0].shuffle_runs <= key_space as u64 * num_maps as u64);
    }

    /// The combiner path: map-side sort + slice-range grouping must
    /// hand each combiner group its values in emission order (the old
    /// stable sort's order), or the order-sensitive combiner diverges.
    #[test]
    fn combiner_plane_bit_identical(
        payloads in proptest::collection::vec(any::<u32>(), 0..200),
        key_space in 1u32..20,
        num_maps in 1usize..7,
        reducers in 1usize..7,
        workers in 1usize..5,
    ) {
        let mapper = TagMapper { key_space };
        let input = tagged(&payloads);
        let expect = concat_sort_run(
            &input, num_maps, &mapper, Some(&TakeTwoCombiner), &CollectReducer, reducers,
        );
        let cfg = JobConfig::named("merge-comb").reducers(reducers).workers(workers);
        let mut pipeline = Pipeline::new("merge");
        let got = pipeline.run_stage_with_combiner(
            input, num_maps, &mapper, &TakeTwoCombiner, &CollectReducer, &cfg,
        ).unwrap();
        prop_assert_eq!(got, expect);
    }

    /// Chaos on the merge plane: retried maps, a node death at the
    /// barrier, lost shuffle fetches, and a straggler's speculative
    /// backup all re-execute tasks — and the re-executed runs must
    /// splice back into the merge without disturbing a single element.
    #[test]
    fn merge_plane_bit_identical_under_faults(
        payloads in proptest::collection::vec(any::<u32>(), 1..150),
        key_space in 1u32..20,
        dead_node in 0usize..4,
        panicking_map in 0usize..4,
        lost_map in 0usize..4,
    ) {
        let mapper = TagMapper { key_space };
        let input = tagged(&payloads);
        let (num_maps, reducers) = (4, 3);
        let expect = concat_sort_run(
            &input, num_maps, &mapper, None::<&TakeTwoCombiner>, &CollectReducer, reducers,
        );
        let cfg = JobConfig::named("merge-chaos")
            .reducers(reducers)
            .workers(4)
            .attempts(3)
            .nodes(4);
        let plan = FaultPlan::new()
            .task_panic(0, Phase::Map, panicking_map, 1)
            .task_slowdown(0, Phase::Map, (panicking_map + 1) % num_maps, 20)
            .node_death_after_map(0, dead_node)
            .shuffle_fetch_fail(0, lost_map, 1, 5);
        let mut pipeline = Pipeline::new("merge").with_faults(Arc::new(plan.injector()));
        let got = pipeline.run_stage(input, num_maps, &mapper, &CollectReducer, &cfg).unwrap();
        prop_assert_eq!(got, expect);
        prop_assert!(pipeline.stages()[0].recovery.tasks_retried >= 1);
        prop_assert_eq!(pipeline.stages()[0].recovery.maps_reexecuted_fetch_fail, 1);
    }
}

/// Heap-backed string keys through the merge: comparison and clone
/// paths differ from `u32`, and the payload-byte accounting must equal
/// a hand-summed group pricing — each distinct key per map task charged
/// once (`4 + len`), plus a varint value count, plus 4 per value.
#[test]
fn string_keys_bit_identical_with_payload_bytes() {
    struct WordMapper;
    impl Mapper for WordMapper {
        type InKey = u32;
        type InValue = u32;
        type OutKey = String;
        type OutValue = u32;
        fn map(&self, id: u32, x: u32, ctx: &mut TaskContext<String, u32>) {
            ctx.emit(format!("k{}", x % 7), id);
            ctx.emit(format!("key-{}", x % 13), id);
        }
        fn key_wire_size(&self, key: &String) -> usize {
            use mrmc_mapreduce::ShuffleSized;
            key.shuffle_size()
        }
        fn value_wire_size(&self, _value: &u32) -> usize {
            4
        }
    }
    struct JoinReducer;
    impl Reducer for JoinReducer {
        type InKey = String;
        type InValue = u32;
        type OutKey = String;
        type OutValue = Vec<u32>;
        fn reduce(&self, k: String, vs: Vec<u32>, ctx: &mut TaskContext<String, Vec<u32>>) {
            ctx.emit(k, vs);
        }
    }
    let input: Vec<(u32, u32)> = (0..64u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect();
    let expect = concat_sort_run(
        &input,
        5,
        &WordMapper,
        None::<&TakeTwoCombiner2>,
        &JoinReducer,
        4,
    );
    let cfg = JobConfig::named("merge-str").reducers(4).workers(4);
    let mut pipeline = Pipeline::new("merge");
    let got = pipeline
        .run_stage(input.clone(), 5, &WordMapper, &JoinReducer, &cfg)
        .unwrap();
    assert_eq!(got, expect);

    // Payload accounting: replay the engine's chunking and map-side
    // grouping, then price each group once — key (4 + len), varint
    // value count, 4 per value. This is the on-the-wire framing of a
    // sorted run, so `shuffled_bytes` must equal it exactly.
    let (num_maps, n) = (5usize, input.len());
    let (base, extra) = (n / num_maps, n % num_maps);
    let mut bytes = 0u64;
    let mut offset = 0;
    for i in 0..num_maps {
        let size = base + usize::from(i < extra);
        let mut ctx = TaskContext::new();
        for (id, x) in &input[offset..offset + size] {
            WordMapper.map(*id, *x, &mut ctx);
        }
        offset += size;
        let (pairs, _) = ctx.into_parts();
        let mut groups: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for (k, _) in pairs {
            *groups.entry(k).or_insert(0) += 1;
        }
        for (k, count) in groups {
            bytes +=
                4 + k.len() as u64 + mrmc_mapreduce::wire::uvarint_len(count) as u64 + 4 * count;
        }
    }
    assert_eq!(pipeline.stages()[0].shuffled_bytes, bytes);

    // A never-used combiner type to satisfy the oracle's generics.
    struct TakeTwoCombiner2;
    impl Combiner for TakeTwoCombiner2 {
        type Key = String;
        type Value = u32;
        fn combine(&self, _k: &String, vs: Vec<u32>) -> Vec<u32> {
            vs
        }
    }
}

/// A word-count shape: 20 000 records over 16 map tasks, 8 reducers
/// and 78 keys — hundreds of values per reduce group and every
/// `(map, partition)` run populated, two orders of magnitude past the
/// property tests above — with and without the order-sensitive
/// combiner.
#[test]
fn bench_shape_bit_identical_with_and_without_combiner() {
    let (num_maps, reducers) = (16, 8);
    let mapper = TagMapper { key_space: 78 };
    let payloads: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let input = tagged(&payloads);
    let cfg = JobConfig::named("merge-bench-shape")
        .reducers(reducers)
        .workers(2);

    let expect = concat_sort_run(
        &input,
        num_maps,
        &mapper,
        None::<&TakeTwoCombiner>,
        &CollectReducer,
        reducers,
    );
    let mut pipeline = Pipeline::new("merge");
    let got = pipeline
        .run_stage(input.clone(), num_maps, &mapper, &CollectReducer, &cfg)
        .unwrap();
    assert_eq!(got, expect);
    assert_eq!(
        pipeline.stages()[0].shuffle_runs,
        (num_maps * reducers) as u64
    );

    let expect = concat_sort_run(
        &input,
        num_maps,
        &mapper,
        Some(&TakeTwoCombiner),
        &CollectReducer,
        reducers,
    );
    let mut pipeline = Pipeline::new("merge");
    let got = pipeline
        .run_stage_with_combiner(
            input,
            num_maps,
            &mapper,
            &TakeTwoCombiner,
            &CollectReducer,
            &cfg,
        )
        .unwrap();
    assert_eq!(got, expect);
}

#[test]
fn empty_input_and_single_key_edge_cases() {
    let mapper = TagMapper { key_space: 1 };
    for (payloads, reducers) in [
        (Vec::new(), 3usize),
        (vec![7u32; 40], 5),
        (vec![0, 1, 2], 1),
    ] {
        let input = tagged(&payloads);
        let expect = concat_sort_run(
            &input,
            3,
            &mapper,
            None::<&TakeTwoCombiner>,
            &CollectReducer,
            reducers,
        );
        let cfg = JobConfig::named("merge-edge").reducers(reducers).workers(2);
        let mut pipeline = Pipeline::new("merge");
        let got = pipeline
            .run_stage(input, 3, &mapper, &CollectReducer, &cfg)
            .unwrap();
        assert_eq!(got, expect);
        if payloads.is_empty() {
            assert_eq!(pipeline.stages()[0].shuffle_runs, 0, "no pairs, no runs");
        }
    }
}
