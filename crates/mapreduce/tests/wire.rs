//! Property tests for the compact wire layer: varint and id-run
//! roundtrips over arbitrary inputs, band-key packing at every legal
//! width, and the pricing contract — `shuffled_bytes` charged by the
//! engine must equal the bytes the encoded runs actually occupy,
//! computed from the wire format alone.

use proptest::prelude::*;

use mrmc_mapreduce::job::{
    partition_of, Combiner, JobConfig, Mapper, Reducer, ShuffleSized, TaskContext,
};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::wire::{get_uvarint, put_uvarint, uvarint_len};
use mrmc_mapreduce::{BandKeyCodec, IdRun};

proptest! {
    /// LEB128 roundtrip: encode/decode recovers any u64, the decoder
    /// consumes exactly the bytes the encoder wrote, and `uvarint_len`
    /// predicts that width without encoding.
    #[test]
    fn varint_roundtrip(v in any::<u64>(), junk in any::<u8>()) {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        prop_assert_eq!(buf.len(), uvarint_len(v));
        buf.push(junk); // decoder must not read past the value
        let (got, used) = get_uvarint(&buf).expect("valid varint");
        prop_assert_eq!(got, v);
        prop_assert_eq!(used, buf.len() - 1);
    }

    /// `IdRun::from_ids` accepts ids in any order with duplicates and
    /// decodes back to the sorted deduplicated set; the priced width
    /// is exactly the encoded buffer.
    #[test]
    fn idrun_roundtrip_arbitrary_ids(ids in proptest::collection::vec(any::<u32>(), 0..200)) {
        let run = IdRun::from_ids(ids.clone());
        let mut expect = ids.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(run.decode().expect("roundtrip"), expect.clone());
        prop_assert_eq!(run.try_count(), Ok(expect.len() as u64));
        prop_assert_eq!(run.wire_len(), run.as_bytes().len());
        // A second hop through from_sorted is the identity.
        let again = IdRun::from_sorted(&expect).expect("sorted input");
        prop_assert_eq!(again.as_bytes(), run.as_bytes());
    }

    /// Merging any partition of a sorted id set reproduces the set:
    /// merge == concat ∘ sort ∘ dedup, independent of how ids were
    /// split across runs.
    #[test]
    fn idrun_merge_is_set_union(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..50), 1..6)
    ) {
        let runs: Vec<IdRun> = parts.iter().map(|p| IdRun::from_ids(p.clone())).collect();
        let merged = IdRun::merge(&runs).expect("merge");
        let mut expect: Vec<u32> = parts.concat();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(merged.decode().expect("decode"), expect);
    }

    /// Corrupting the count prefix of a valid run never decodes
    /// successfully to a *different* id set silently — it either
    /// errors or (when the tampered count matches) reproduces framing
    /// errors. The decoder validates framing end to end.
    #[test]
    fn idrun_decode_rejects_truncation(ids in proptest::collection::vec(any::<u32>(), 1..50)) {
        let run = IdRun::from_ids(ids);
        let bytes = run.as_bytes();
        // Dropping the last byte must never decode cleanly.
        let truncated = IdRun::from_encoded_unchecked(bytes[..bytes.len() - 1].to_vec());
        prop_assert!(truncated.decode().is_err());
    }

    /// Band-key packing at arbitrary legal widths: `unpack ∘ pack`
    /// returns the band exactly and the signature truncated to
    /// `sig_bits` — the codec's documented lossy contract.
    #[test]
    fn band_key_pack_unpack(
        bands in 1usize..64,
        sig_bits in 1u32..48,
        band_sel in any::<u64>(),
        sig in any::<u64>(),
    ) {
        let codec = BandKeyCodec::new(bands, sig_bits).expect("legal widths");
        let band = (band_sel % bands as u64) as u32;
        let key = codec.pack(band, sig);
        let (got_band, got_sig) = codec.unpack(key);
        prop_assert_eq!(got_band, band);
        prop_assert_eq!(got_sig, sig & codec.sig_mask());
        // The priced width covers every bit the packed key can carry.
        if codec.wire_bytes() < 8 {
            prop_assert_eq!(key >> (8 * codec.wire_bytes()), 0);
        }
    }
}

/// Groups ids by `id % key_space`, each value a singleton encoded run.
struct RunMapper {
    key_space: u32,
}
impl Mapper for RunMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = IdRun;
    fn map(&self, _k: u32, id: u32, ctx: &mut TaskContext<u32, IdRun>) {
        ctx.emit(id % self.key_space.max(1), IdRun::singleton(id));
    }
    fn key_wire_size(&self, key: &u32) -> usize {
        uvarint_len(u64::from(*key))
    }
    fn value_wire_size(&self, run: &IdRun) -> usize {
        run.wire_len()
    }
}

/// Map-side merge: every per-key group collapses to one encoded run.
struct MergeCombiner;
impl Combiner for MergeCombiner {
    type Key = u32;
    type Value = IdRun;
    fn combine(&self, _key: &u32, values: Vec<IdRun>) -> Vec<IdRun> {
        vec![IdRun::merge(&values).expect("mapper emits valid runs")]
    }
}

/// Decodes and merges the surviving runs back into plain sorted ids.
struct DecodeReducer;
impl Reducer for DecodeReducer {
    type InKey = u32;
    type InValue = IdRun;
    type OutKey = u32;
    type OutValue = Vec<u32>;
    fn reduce(&self, k: u32, vs: Vec<IdRun>, ctx: &mut TaskContext<u32, Vec<u32>>) {
        let merged = IdRun::merge(&vs).expect("wire-valid runs");
        ctx.emit(k, merged.decode().expect("decode"));
    }
}

/// The raw control plane for the same job: ids travel as plain u32
/// values with no encoding and no combiner.
struct RawMapper {
    key_space: u32,
}
impl Mapper for RawMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn map(&self, _k: u32, id: u32, ctx: &mut TaskContext<u32, u32>) {
        ctx.emit(id % self.key_space.max(1), id);
    }
}

/// Sorts and dedups each raw group so both planes emit the same shape.
struct SortReducer;
impl Reducer for SortReducer {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = Vec<u32>;
    fn reduce(&self, k: u32, mut vs: Vec<u32>, ctx: &mut TaskContext<u32, Vec<u32>>) {
        vs.sort_unstable();
        vs.dedup();
        ctx.emit(k, vs);
    }
}

proptest! {
    /// Satellite contract: with the encoding ON (IdRun values + merge
    /// combiner) and OFF (raw u32 values), the reduce groups are
    /// identical — same keys, same id sets, same order — while the
    /// encoded plane's priced `shuffled_bytes` equals the sum of its
    /// encoded run lengths, computed independently by replaying the
    /// engine's chunking and combine.
    #[test]
    fn encoded_and_raw_planes_agree(
        ids in proptest::collection::vec(0u32..50_000, 1..300),
        key_space in 1u32..40,
        num_maps in 1usize..8,
        reducers in 1usize..6,
    ) {
        let input: Vec<(u32, u32)> = ids.iter().map(|&x| (x, x)).collect();
        let cfg = JobConfig::named("wire-prop").reducers(reducers).workers(2);

        let mut pipeline = Pipeline::new("wire-prop");
        let raw = pipeline.run_stage(
            input.clone(), num_maps, &RawMapper { key_space }, &SortReducer, &cfg,
        ).unwrap();
        let enc = pipeline.run_stage_with_combiner(
            input.clone(), num_maps, &RunMapper { key_space }, &MergeCombiner,
            &DecodeReducer, &cfg,
        ).unwrap();
        prop_assert_eq!(&enc, &raw, "reduce groups must be identical");
        let [raw, enc] = pipeline.stages() else {
            panic!("two stages")
        };

        // Price the encoded plane by hand: replay the engine's
        // contiguous chunking, merge each map-local key group into one
        // run, and sum the wire widths of what actually crosses.
        let n = num_maps.max(1);
        let (base, extra) = (input.len() / n, input.len() % n);
        let mut expect_bytes = 0u64;
        let mut offset = 0;
        for i in 0..n {
            let size = base + usize::from(i < extra);
            let chunk = &input[offset..offset + size];
            offset += size;
            let mut by_key: std::collections::BTreeMap<u32, Vec<u32>> =
                std::collections::BTreeMap::new();
            for &(_, x) in chunk {
                by_key.entry(x % key_space.max(1)).or_default().push(x);
            }
            for (k, group_ids) in by_key {
                let run = IdRun::from_ids(group_ids);
                // One post-combine group: key, count prefix, one run.
                expect_bytes += (uvarint_len(u64::from(k))
                    + uvarint_len(1)
                    + run.wire_len()) as u64;
            }
        }
        prop_assert_eq!(
            enc.shuffled_bytes, expect_bytes,
            "priced bytes must equal the encoded run lengths"
        );
        // Each post-combine group is a single run, so pair traffic is
        // bounded by distinct (map, key) cells — never more than raw.
        prop_assert!(enc.shuffled_pairs <= raw.shuffled_pairs);
    }

    /// A custom `Mapper::partition` must route every key to the
    /// partition it names while leaving reduce-group contents intact.
    #[test]
    fn partition_override_is_honored(
        ids in proptest::collection::vec(0u32..10_000, 1..150),
        reducers in 1usize..6,
    ) {
        struct Routed { reducers: usize }
        impl Mapper for Routed {
            type InKey = u32;
            type InValue = u32;
            type OutKey = u32;
            type OutValue = u32;
            fn map(&self, _k: u32, id: u32, ctx: &mut TaskContext<u32, u32>) {
                ctx.emit(id, id);
            }
            fn partition(&self, key: &u32, reducers: usize) -> usize {
                debug_assert_eq!(reducers, self.reducers);
                // Range partition: contiguous key spans per reducer.
                ((*key as usize * reducers) / 10_000).min(reducers - 1)
            }
        }
        let input: Vec<(u32, u32)> = ids.iter().map(|&x| (x, x)).collect();
        let cfg = JobConfig::named("wire-route").reducers(reducers).workers(2);
        let got = Pipeline::new("wire-route")
            .run_stage(input, 4, &Routed { reducers }, &SortReducer, &cfg)
            .unwrap();
        // Range partitioning + per-partition key sort ⇒ globally sorted
        // output, something `partition_of` hashing cannot promise.
        let keys: Vec<u32> = got.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);
        let _ = partition_of(&0u32, reducers); // default still linked
    }
}

/// Walk a run id-by-id through its cursor — the streaming analogue of
/// `IdRun::decode`, written out independently so the equivalence test
/// below keeps meaning even if `decode` changes implementation.
fn cursor_walk(run: &IdRun) -> Result<Vec<u32>, mrmc_mapreduce::WireError> {
    let mut cur = run.cursor()?;
    let mut ids = Vec::new();
    while let Some(id) = cur.try_next()? {
        ids.push(id);
    }
    Ok(ids)
}

proptest! {
    /// Tentpole contract: the streaming k-way merge produces the exact
    /// bytes of the legacy decode-concat-sort-reencode merge over
    /// arbitrary run sets — overlapping, disjoint, empty and (inline)
    /// singleton runs alike — and so does the dispatching `IdRun::merge`.
    #[test]
    fn streaming_merge_matches_decode_merge_oracle(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u32..5_000, 0..60), 0..7),
        singles in proptest::collection::vec(0u32..5_000, 0..7),
        rotate in any::<usize>(),
    ) {
        let mut runs: Vec<IdRun> = parts.iter().map(|p| IdRun::from_ids(p.clone())).collect();
        runs.extend(singles.iter().map(|&id| IdRun::singleton(id)));
        let mid = rotate % runs.len().max(1);
        runs.rotate_left(mid);
        let ids = runs.iter().flat_map(|r| r.decode().expect("valid run")).collect();
        let oracle = IdRun::from_ids(ids);
        let streamed = IdRun::merge_cursors(&runs).expect("streaming merge");
        prop_assert_eq!(streamed.as_bytes(), oracle.as_bytes());
        prop_assert_eq!(IdRun::merge(&runs).expect("merge").as_bytes(), oracle.as_bytes());

        // Re-split the union into consecutive slices: disjoint ordered
        // runs, the splice fast path's shape. Bytes must still match.
        let mut union: Vec<u32> = parts.concat();
        union.extend(&singles);
        union.sort_unstable();
        union.dedup();
        let splits: Vec<IdRun> = union
            .chunks(7)
            .map(|c| match c {
                [id] => IdRun::singleton(*id),
                _ => IdRun::from_sorted(c).expect("sorted slice"),
            })
            .collect();
        let spliced = IdRun::merge_cursors(&splits).expect("splice merge");
        prop_assert_eq!(
            spliced.as_bytes(),
            IdRun::from_sorted(&union).expect("sorted union").as_bytes()
        );
    }

    /// Callers cannot tell the representations apart: an inline
    /// singleton and a heap run holding the same bytes are equal,
    /// ordered, hashed, priced and decoded alike, and the bytes are the
    /// ones `from_sorted` encodes — at every varint width boundary.
    #[test]
    fn inline_singleton_indistinguishable_from_heap_run(
        random in proptest::collection::vec(any::<u32>(), 1..20),
        other in any::<u32>(),
    ) {
        use std::hash::{Hash, Hasher};
        fn hash_of(run: &IdRun) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            run.hash(&mut h);
            h.finish()
        }
        let edges = [
            0, 127, 128, 16_383, 16_384, (1 << 21) - 1, (1 << 21) + 1,
            (1 << 28) - 1, (1 << 28) + 1, u32::MAX,
        ];
        for &id in edges.iter().chain(&random) {
            let inline = IdRun::singleton(id);
            let heap = IdRun::from_encoded_unchecked(inline.as_bytes().to_vec());
            let encoded = IdRun::from_sorted(&[id]).expect("one id");
            prop_assert_eq!(inline.as_bytes(), encoded.as_bytes());
            prop_assert_eq!(&inline, &heap);
            prop_assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(&inline), hash_of(&heap));
            prop_assert_eq!(inline.shuffle_size(), heap.shuffle_size());
            prop_assert_eq!(inline.wire_len(), 1 + uvarint_len(u64::from(id)));
            prop_assert_eq!(inline.decode().expect("valid"), vec![id]);
            prop_assert_eq!(cursor_walk(&inline), cursor_walk(&heap));
            prop_assert_eq!(inline.try_count(), Ok(1));
            // Ordering against a different run is the byte order too.
            let rhs = IdRun::from_sorted(&[other]).expect("one id");
            prop_assert_eq!(inline.cmp(&rhs), heap.cmp(&rhs));
            prop_assert_eq!(inline.clone(), heap);
        }
    }

    /// `IdRunCursor` is id-for-id equivalent to `decode()` on valid
    /// runs and error-for-error equivalent on corrupt payloads: any
    /// byte buffer whatsoever — random bytes, or a valid encoding with
    /// a mutation — yields the same `Result` from both paths.
    #[test]
    fn cursor_equivalent_to_decode_on_any_bytes(
        ids in proptest::collection::vec(any::<u32>(), 0..40),
        mutation in 0usize..4,
        at_sel in any::<usize>(),
        byte in any::<u8>(),
        random in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        let mut bytes = IdRun::from_ids(ids).as_bytes().to_vec();
        match mutation {
            0 => {} // pristine
            1 => {
                bytes.truncate(at_sel % (bytes.len() + 1));
            }
            2 => {
                let at = at_sel % bytes.len().max(1);
                if !bytes.is_empty() {
                    bytes[at] = byte;
                }
            }
            _ => bytes = random, // arbitrary garbage
        }
        let run = IdRun::from_encoded_unchecked(bytes);
        prop_assert_eq!(cursor_walk(&run), run.decode());
        // `validate` agrees on the error too.
        prop_assert_eq!(run.validate().err(), run.decode().err());
        // `try_count` errors exactly when the count prefix is the
        // culprit, with the error `decode` stops at; a run that decodes
        // holds as many ids as its prefix counts.
        match (run.try_count(), run.decode()) {
            (Err(e), decoded) => prop_assert_eq!(decoded, Err(e)),
            (Ok(count), Ok(ids)) => prop_assert_eq!(ids.len() as u64, count),
            (Ok(_), Err(_)) => {}
        }
    }
}
