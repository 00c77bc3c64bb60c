//! The Pig UDFs of Algorithm 3, in Rust.
//!
//! These register into a [`mrmc_pig::UdfRegistry`] under the exact
//! names the paper's script uses (`FastaStorage`, `StringGenerator`,
//! `TranslateToKmer`, `CalculateMinwiseHash`,
//! `CalculatePairwiseSimilarity`, `AgglomerativeHierarchicalClustering`,
//! `GreedyClustering`), so [`algorithm3_script`] runs end-to-end on
//! the mini-Pig engine.
//!
//! Each UDF is one type. `TranslateToKmer`, `CalculateMinwiseHash`,
//! `CalculatePairwiseSimilarity` and
//! `AgglomerativeHierarchicalClustering` override
//! [`Udf::eval_batch`] with a columnar kernel, because the
//! `pig_algorithm3` benchmark measures each one paying; the loader,
//! `StringGenerator` and `GreedyClustering` keep the provided
//! row-by-row lift of `exec`.
//!
//! Algorithm 3 is the native pipeline spelled in Pig: its UDFs sketch,
//! compare and place through the kernels [`crate::MrMcMinH::run`]
//! uses. `CalculateMinwiseHash` sketches with the
//! [`MrMcConfig::hasher`] of `MrMcConfig { kmer: $KMER, num_hashes:
//! $NUMHASH, seed: $DIV, .. }` (`$DIV` seeds the parameter draw; the
//! range follows k, DESIGN.md §3b), `CalculatePairwiseSimilarity`
//! reads a [`SketchPlane`], `AgglomerativeHierarchicalClustering` runs
//! [`agglomerative`] and `GreedyClustering` places reads through a
//! [`RepresentativeIndex`]. So at equal `(k, n, seed, θ, linkage)` both
//! STORE outputs label the reads as a dense `MrMcMinH::run` over the
//! reads in id order (the order `GROUP C BY seqid2` hands them on)
//! does, up to label numbering.
//!
//! One documented deviation from the paper's listing: Algorithm 3
//! computes minwise hashes with a bare `FOREACH` over *individual
//! k-mer rows*, which cannot see a whole sequence's k-mer set — the
//! published script only works because their Java UDF buffers state
//! across calls. Our dataflow makes the grouping explicit
//! (`G = GROUP C BY seqid2`) and hands `CalculateMinwiseHash` the
//! grouped bag, which is the semantically equivalent, side-effect-free
//! formulation.

use std::collections::HashMap;
use std::sync::Arc;

use mrmc_cluster::{agglomerative, CondensedMatrix, Linkage};
use mrmc_minhash::{MinHasher, Sketch, SketchPlane};
use mrmc_pig::batch::{BagCol, Bitmap, Column, ColumnBatch, VarBytes, VarBytesBuilder};
use mrmc_pig::udf::{scalar_rows, BatchArg, BatchOut, UdfError};
use mrmc_pig::{Udf, UdfRegistry, Value};
use mrmc_seqio::encode::KmerIter;
use mrmc_seqio::fasta::read_fasta_bytes;

use crate::config::MrMcConfig;
use crate::incremental::RepresentativeIndex;

/// Register every Algorithm 3 UDF.
pub fn register_mrmc_udfs(registry: &mut UdfRegistry) {
    registry.register(Arc::new(FastaStorage));
    registry.register(Arc::new(StringGenerator));
    registry.register(Arc::new(TranslateToKmer));
    registry.register(Arc::new(CalculateMinwiseHash));
    registry.register(Arc::new(CalculatePairwiseSimilarity));
    registry.register(Arc::new(AgglomerativeHierarchicalClustering));
    registry.register(Arc::new(GreedyClustering));
}

/// Our canonical version of the paper's Algorithm 3 script.
/// Parameters: `$INPUT`, `$KMER`, `$NUMHASH`, `$DIV`, `$LINK`,
/// `$CUTOFF`, `$OUTPUT1` (hierarchical), `$OUTPUT2` (greedy).
pub fn algorithm3_script() -> &'static str {
    r#"
A = LOAD '$INPUT' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER)) AS (seqkmer:long, seqid2:chararray);
G = GROUP C BY seqid2;
E = FOREACH G GENERATE FLATTEN(CalculateMinwiseHash(C, $KMER, $NUMHASH, $DIV)) AS (minwise:bag, seqid3:chararray);
I = GROUP E ALL;
J = FOREACH E GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, seqid3, I.E)) AS (seqid4:chararray, simrow:bag);
II = GROUP J ALL;
K = FOREACH II GENERATE FLATTEN(AgglomerativeHierarchicalClustering(J, '$LINK', $NUMHASH, $CUTOFF)) AS (seqid5:chararray, clusterlabel:int);
L = FOREACH I GENERATE FLATTEN(GreedyClustering(E, $NUMHASH, $CUTOFF)) AS (seqid6:chararray, clusterlabel2:int);
STORE K INTO '$OUTPUT1';
STORE L INTO '$OUTPUT2';
"#
}

fn arg_i64(udf: &str, args: &[Value], idx: usize, what: &str) -> Result<i64, UdfError> {
    args.get(idx)
        .and_then(Value::as_i64)
        .ok_or_else(|| UdfError::new(udf, format!("argument {idx} must be {what} (integer)")))
}

/// A count argument (`$KMER`, `$NUMHASH`): a non-negative integer.
fn arg_count(udf: &str, args: &[Value], idx: usize, what: &str) -> Result<usize, UdfError> {
    let v = arg_i64(udf, args, idx, what)?;
    usize::try_from(v).map_err(|_| UdfError::new(udf, format!("{what} is {v}, below 0")))
}

fn arg_f64(udf: &str, args: &[Value], idx: usize, what: &str) -> Result<f64, UdfError> {
    args.get(idx)
        .and_then(Value::as_f64)
        .ok_or_else(|| UdfError::new(udf, format!("argument {idx} must be {what} (number)")))
}

fn arg_str<'a>(udf: &str, args: &'a [Value], idx: usize, what: &str) -> Result<&'a str, UdfError> {
    args.get(idx)
        .and_then(Value::as_str)
        .ok_or_else(|| UdfError::new(udf, format!("argument {idx} must be {what} (chararray)")))
}

fn arg_bag<'a>(
    udf: &str,
    args: &'a [Value],
    idx: usize,
    what: &str,
) -> Result<&'a [Value], UdfError> {
    args.get(idx)
        .and_then(Value::as_bag)
        .ok_or_else(|| UdfError::new(udf, format!("argument {idx} must be {what} (bag)")))
}

/// `FastaStorage` — the loader: file bytes → bag of
/// `(readid, d, seq, header)` tuples (d is the paper's direction
/// field; always 0 here).
pub struct FastaStorage;
impl Udf for FastaStorage {
    fn name(&self) -> &str {
        "FastaStorage"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let bytes = args
            .first()
            .and_then(Value::as_bytes)
            .ok_or_else(|| UdfError::new("FastaStorage", "expected file bytes"))?;
        let records =
            read_fasta_bytes(bytes).map_err(|e| UdfError::new("FastaStorage", e.to_string()))?;
        Ok(Value::bag(
            records
                .into_iter()
                .map(|r| {
                    Value::tuple([
                        Value::CharArray(r.id),
                        Value::Int(0),
                        Value::ByteArray(r.seq.into()),
                        Value::CharArray(r.description),
                    ])
                })
                .collect::<Vec<_>>(),
        ))
    }
}

/// `StringGenerator(seq, readid)` — normalizes the DNA alphabet
/// (upper-case, `U`→`T`) and passes the id through; the integer
/// encoding itself happens inside `TranslateToKmer`, which packs each
/// k-mer into a long. The k-mer encoder reads either case and `U` as
/// `T` anyway, so the normalization changes no sketch.
pub struct StringGenerator;
impl Udf for StringGenerator {
    fn name(&self) -> &str {
        "StringGenerator"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let seq = args
            .first()
            .and_then(Value::as_bytes)
            .ok_or_else(|| UdfError::new("StringGenerator", "argument 0 must be the sequence"))?;
        let id = arg_str("StringGenerator", args, 1, "the read id")?;
        let norm: Vec<u8> = seq
            .iter()
            .map(|&c| match c.to_ascii_uppercase() {
                b'U' => b'T',
                up => up,
            })
            .collect();
        Ok(Value::tuple([
            Value::CharArray(String::from_utf8_lossy(&norm).into_owned()),
            Value::CharArray(id.to_string()),
        ]))
    }
}

/// `TranslateToKmer`'s kernel: the k-mers of `seq`, each packed into
/// the long the Pig data model carries it in.
fn translate(seq: &[u8], k: usize) -> Result<impl Iterator<Item = i64> + '_, UdfError> {
    let iter =
        KmerIter::new(seq, k).map_err(|e| UdfError::new("TranslateToKmer", e.to_string()))?;
    Ok(iter.map(|km| km as i64))
}

/// `TranslateToKmer(seq, seqid, k)` — bag of `(kmer:long, seqid)`.
pub struct TranslateToKmer;
impl Udf for TranslateToKmer {
    fn name(&self) -> &str {
        "TranslateToKmer"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let seq = arg_str("TranslateToKmer", args, 0, "the sequence")?;
        let id = arg_str("TranslateToKmer", args, 1, "the read id")?;
        let k = arg_i64("TranslateToKmer", args, 2, "the k-mer size")? as usize;
        Ok(Value::bag(
            translate(seq.as_bytes(), k)?
                .map(|km| Value::tuple([Value::Long(km), Value::CharArray(id.to_string())]))
                .collect::<Vec<_>>(),
        ))
    }

    /// Writes every row's k-mers straight into one packed `long`
    /// column and builds the `(kmer, seqid)` bag column over it — no
    /// per-k-mer tuple or bag allocation.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let (Some(seq), Some(ids), Some(k)) = (
            args.first().and_then(|a| str_arg(a, rows)),
            args.get(1).and_then(|a| str_arg(a, rows)),
            args.get(2)
                .and_then(BatchArg::as_scalar)
                .and_then(Value::as_i64),
        ) else {
            return scalar_rows(self, args, rows);
        };
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut all: Vec<i64> = Vec::new();
        let mut out_ids = VarBytesBuilder::with_capacity(rows * 8);
        for i in 0..rows {
            let id = ids.get(i);
            for km in translate(seq.get(i), k as usize)? {
                all.push(km);
                out_ids.push(id);
            }
            offsets.push(all.len() as u32);
        }
        let n = all.len();
        let child = ColumnBatch::from_cols(
            vec![
                Column::Long {
                    data: all,
                    validity: None,
                },
                Column::Str {
                    data: out_ids.finish(),
                    validity: None,
                },
            ],
            n,
        );
        Ok(BatchOut::Col(Column::Bag(BagCol::new(
            offsets, child, true, None,
        ))))
    }
}

/// The sketcher of `CalculateMinwiseHash(_, $KMER, $NUMHASH, $DIV)`:
/// the [`MrMcConfig::hasher`] of the config those arguments spell,
/// `$DIV` seeding the hash parameter draw, validated as
/// [`crate::MrMcMinH`] validates its config.
fn script_hasher(args: &[Value]) -> Result<MinHasher, UdfError> {
    let udf = "CalculateMinwiseHash";
    let config = MrMcConfig {
        kmer: arg_count(udf, args, 1, "$KMER")?,
        num_hashes: arg_count(udf, args, 2, "$NUMHASH")?,
        seed: arg_i64(udf, args, 3, "$DIV")? as u64,
        ..MrMcConfig::default()
    };
    config.validate().map_err(|e| UdfError::new(udf, e))?;
    Ok(config.hasher())
}

/// `CalculateMinwiseHash`'s kernel: the sketch of one group's k-mers,
/// appended to `out` as longs (the empty slot `u64::MAX` is `-1`).
fn minwise(hasher: &MinHasher, kmers: impl IntoIterator<Item = i64>, out: &mut Vec<i64>) {
    let sketch = hasher.sketch_kmers(kmers.into_iter().map(|km| km as u64));
    out.extend(sketch.values().iter().map(|&v| v as i64));
}

/// `CalculateMinwiseHash(kmer_bag, k, numhash, div)` — the grouped bag
/// of `(kmer, seqid)` rows for one sequence → `(sketch:bag(long), seqid)`.
pub struct CalculateMinwiseHash;
impl Udf for CalculateMinwiseHash {
    fn name(&self) -> &str {
        "CalculateMinwiseHash"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let rows = arg_bag(self.name(), args, 0, "the grouped k-mer rows")?;
        let hasher = script_hasher(args)?;
        let mut kmers = Vec::with_capacity(rows.len());
        for row in rows {
            let t = row
                .as_tuple()
                .ok_or_else(|| UdfError::new(self.name(), "rows must be tuples"))?;
            let kmer = t
                .first()
                .and_then(Value::as_i64)
                .ok_or_else(|| UdfError::new(self.name(), "row field 0 must be the k-mer"))?;
            kmers.push(kmer);
        }
        let seqid = rows
            .first()
            .and_then(Value::as_tuple)
            .and_then(|t| t.get(1))
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new(self.name(), "empty k-mer group"))?;
        let mut sketch = Vec::with_capacity(hasher.num_hashes());
        minwise(&hasher, kmers, &mut sketch);
        Ok(Value::tuple([
            Value::bag(sketch.into_iter().map(Value::Long).collect::<Vec<_>>()),
            Value::CharArray(seqid.to_string()),
        ]))
    }

    /// Builds the sketcher once per chunk, reads each group's k-mers
    /// straight out of the grouped bag column's packed `long` child (no
    /// `Value` materialization of the k-mer rows at all) and emits the
    /// sketches as one packed bag column.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let fallback = || scalar_rows(self, args, rows);
        // The grouped `(kmer, seqid)` bag column.
        let Some(BatchArg::Column {
            col: Column::Bag(bag),
            start,
            ..
        }) = args.first()
        else {
            return fallback();
        };
        // `$KMER`, `$NUMHASH` and `$DIV` broadcast, as the scalar reads them.
        let params: Vec<Value> = std::iter::once(Value::Null)
            .chain(
                args.iter()
                    .skip(1)
                    .map(|a| a.as_scalar().cloned().unwrap_or(Value::Null)),
            )
            .collect();
        let Ok(hasher) = script_hasher(&params) else {
            return fallback();
        };
        if !bag.tuple_elems
            || bag.elems.num_cols() < 2
            || !window_valid(&bag.validity, *start, rows)
            || (0..rows).any(|i| bag.bag_len(start + i) == 0)
        {
            return fallback();
        }
        let elem_lo = bag.offsets[*start] as usize;
        let elem_hi = bag.offsets[start + rows] as usize;
        let (
            Column::Long {
                data: kmers,
                validity: kv,
            },
            Column::Str {
                data: ids,
                validity: iv,
            },
        ) = (bag.elems.col(0), bag.elems.col(1))
        else {
            return fallback();
        };
        if !window_valid(kv, elem_lo, elem_hi - elem_lo)
            || !window_valid(iv, elem_lo, elem_hi - elem_lo)
        {
            return fallback();
        }
        let mut sketches: Vec<i64> = Vec::with_capacity(rows * hasher.num_hashes());
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut out_ids = VarBytesBuilder::with_capacity(rows);
        for i in 0..rows {
            let (lo, hi) = (
                bag.offsets[start + i] as usize,
                bag.offsets[start + i + 1] as usize,
            );
            minwise(&hasher, kmers[lo..hi].iter().copied(), &mut sketches);
            offsets.push(sketches.len() as u32);
            out_ids.push(ids.get(lo));
        }
        let sketch_col = Column::Bag(BagCol::new(
            offsets,
            ColumnBatch::single(Column::Long {
                data: sketches,
                validity: None,
            }),
            false,
            None,
        ));
        Ok(BatchOut::Tup(ColumnBatch::from_cols(
            vec![
                sketch_col,
                Column::Str {
                    data: out_ids.finish(),
                    validity: None,
                },
            ],
            rows,
        )))
    }
}

/// A sketch as the Pig data model carries it: a bag of longs.
fn sketch_of(udf: &str, v: &Value) -> Result<Sketch, UdfError> {
    let bag = v
        .as_bag()
        .ok_or_else(|| UdfError::new(udf, "sketch must be a bag of longs"))?;
    // Sized up front: a collect through `Result` would grow it.
    let mut values = Vec::with_capacity(bag.len());
    for x in bag {
        let long = x
            .as_i64()
            .ok_or_else(|| UdfError::new(udf, "sketch entries must be longs"))?;
        values.push(long as u64);
    }
    Ok(Sketch::from_values(values))
}

/// Decode `(sketch:bag(long), seqid)` rows — the `E` relation — into
/// ids and sketches, in row order.
fn sketch_rows<'a>(udf: &str, rows: &'a [Value]) -> Result<(Vec<&'a str>, Vec<Sketch>), UdfError> {
    let mut ids = Vec::with_capacity(rows.len());
    let mut sketches = Vec::with_capacity(rows.len());
    for row in rows {
        let t = row
            .as_tuple()
            .ok_or_else(|| UdfError::new(udf, "sketch rows must be tuples"))?;
        sketches.push(sketch_of(udf, t.first().unwrap_or(&Value::Null))?);
        let id = t
            .get(1)
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new(udf, "missing seqid"))?;
        ids.push(id);
    }
    Ok((ids, sketches))
}

/// Every sketch must be `width` long; the error names the first that
/// is not.
fn check_widths(
    udf: &str,
    ids: &[&str],
    sketches: &[Sketch],
    width: usize,
) -> Result<(), UdfError> {
    match ids.iter().zip(sketches).find(|(_, s)| s.len() != width) {
        Some((id, s)) => Err(UdfError::new(
            udf,
            format!("sketch of {id} has {} positions, expected {width}", s.len()),
        )),
        None => Ok(()),
    }
}

/// `CalculatePairwiseSimilarity`'s kernel: row `me` of `plane` against
/// each relation row `0..ids.len()` whose id is not `my_id`, through
/// the plane's row kernel into `sims`, a buffer it overwrites.
fn similarity_row<'p>(
    plane: &SketchPlane,
    ids: &'p [&'p str],
    me: usize,
    my_id: &'p [u8],
    sims: &'p mut Vec<f64>,
) -> impl Iterator<Item = (&'p str, f64)> + 'p {
    sims.clear();
    plane.extend_counts(me, 0..ids.len(), sims, |c| plane.similarity_of(c));
    ids.iter()
        .zip(sims.iter())
        .filter(move |(id, _)| id.as_bytes() != my_id)
        .map(|(&id, &sim)| (id, sim))
}

/// `CalculatePairwiseSimilarity(sketch, seqid, all_rows)` — one row of
/// the similarity matrix: `(seqid, bag of (other_seqid, sim))`. The
/// `all_rows` argument is the scalar `I.E` reference — the row-wise
/// partition of Fig. 1: every invocation sees the whole relation but
/// computes only its own row. Sketches of unequal width are an error.
pub struct CalculatePairwiseSimilarity;
impl Udf for CalculatePairwiseSimilarity {
    fn name(&self) -> &str {
        "CalculatePairwiseSimilarity"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let me = sketch_of(self.name(), args.first().unwrap_or(&Value::Null))?;
        let my_id = arg_str(self.name(), args, 1, "the seqid")?;
        let all = arg_bag(self.name(), args, 2, "the full relation")?;
        let (ids, mut sketches) = sketch_rows(self.name(), all)?;
        check_widths(self.name(), &ids, &sketches, me.len())?;
        sketches.push(me);
        let plane = SketchPlane::pack(&sketches).expect("widths checked");
        let mut sims = Vec::with_capacity(ids.len());
        let row = similarity_row(&plane, &ids, ids.len(), my_id.as_bytes(), &mut sims)
            .map(|(id, sim)| Value::tuple([Value::CharArray(id.to_string()), Value::Double(sim)]))
            .collect::<Vec<_>>();
        Ok(Value::tuple([
            Value::CharArray(my_id.to_string()),
            Value::bag(row),
        ]))
    }

    /// Decodes the broadcast relation once per chunk instead of once
    /// per row and packs it, with the chunk's own sketches (read
    /// straight out of the sketch bag column's packed `long` child)
    /// behind it, into one [`SketchPlane`]; emits the
    /// `(seqid, bag of (other, sim))` rows as columns, so the n²
    /// relation is never boxed.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let fallback = || scalar_rows(self, args, rows);
        let (
            Some(BatchArg::Column {
                col: Column::Bag(bag),
                start,
                ..
            }),
            Some(my_ids),
            Some(all),
        ) = (
            args.first(),
            args.get(1).and_then(|a| str_arg(a, rows)),
            args.get(2)
                .and_then(BatchArg::as_scalar)
                .and_then(Value::as_bag),
        )
        else {
            return fallback();
        };
        let start = *start;
        let (elem_lo, elem_hi) = (
            bag.offsets[start] as usize,
            bag.offsets[start + rows] as usize,
        );
        let [Column::Long {
            data: slots,
            validity,
        }] = bag.elems.cols()
        else {
            return fallback();
        };
        if bag.tuple_elems
            || !window_valid(&bag.validity, start, rows)
            || !window_valid(validity, elem_lo, elem_hi - elem_lo)
        {
            return fallback();
        }
        let Ok((ids, mut sketches)) = sketch_rows(self.name(), all) else {
            return fallback();
        };
        sketches.extend((start..start + rows).map(|r| {
            let slots = &slots[bag.offsets[r] as usize..bag.offsets[r + 1] as usize];
            Sketch::from_values(slots.iter().map(|&v| v as u64).collect())
        }));
        // Unequal widths: the scalar names the row.
        let Ok(plane) = SketchPlane::pack(&sketches) else {
            return fallback();
        };
        drop(sketches);
        let mut out_ids = VarBytesBuilder::with_capacity(rows);
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut others = VarBytesBuilder::with_capacity(rows * ids.len());
        let mut sims: Vec<f64> = Vec::with_capacity(rows * ids.len());
        let mut row_sims = Vec::with_capacity(ids.len());
        for i in 0..rows {
            let my_id = my_ids.get(i);
            for (other, sim) in similarity_row(&plane, &ids, ids.len() + i, my_id, &mut row_sims) {
                others.push(other.as_bytes());
                sims.push(sim);
            }
            offsets.push(sims.len() as u32);
            out_ids.push(my_id);
        }
        let entries = sims.len();
        let row_col = Column::Bag(BagCol::new(
            offsets,
            ColumnBatch::from_cols(
                vec![
                    Column::Str {
                        data: others.finish(),
                        validity: None,
                    },
                    Column::Double {
                        data: sims,
                        validity: None,
                    },
                ],
                entries,
            ),
            true,
            None,
        ));
        Ok(BatchOut::Tup(ColumnBatch::from_cols(
            vec![
                Column::Str {
                    data: out_ids.finish(),
                    validity: None,
                },
                row_col,
            ],
            rows,
        )))
    }
}

/// Fill the dense matrix over `ids` (index order) from
/// `(row, other id, similarity)` entries — written once; `exec` and
/// `eval_batch` only decode their arguments into it.
/// Duplicate ids resolve to their first row, entries naming an unknown
/// id or the row itself are skipped, and a later entry for a pair
/// overwrites an earlier one.
fn fill_matrix<Id: Copy + Eq + std::hash::Hash>(
    ids: &[Id],
    entries: impl IntoIterator<Item = (usize, Id, f64)>,
) -> CondensedMatrix {
    let mut index_of: HashMap<Id, usize> = HashMap::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        index_of.entry(id).or_insert(i);
    }
    let mut matrix = CondensedMatrix::build(ids.len(), |_, _| 0.0);
    for (i, other, sim) in entries {
        if let Some(&j) = index_of.get(&other) {
            if i != j {
                matrix.set(i, j, sim);
            }
        }
    }
    matrix
}

/// Decode boxed `(seqid, [(other, sim)])` rows into [`fill_matrix`],
/// returning the ids in index order.
fn matrix_from_rows<'a>(
    udf: &str,
    rows: &'a [Value],
) -> Result<(Vec<&'a str>, CondensedMatrix), UdfError> {
    let mut ids: Vec<&str> = Vec::with_capacity(rows.len());
    for row in rows {
        let t = row
            .as_tuple()
            .ok_or_else(|| UdfError::new(udf, "rows must be tuples"))?;
        let id = t
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new(udf, "row field 0 must be the seqid"))?;
        ids.push(id);
    }
    let mut entries: Vec<(usize, &str, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let t = row.as_tuple().expect("checked above");
        let bag = t
            .get(1)
            .and_then(Value::as_bag)
            .ok_or_else(|| UdfError::new(udf, "row field 1 must be the similarity bag"))?;
        entries.reserve(bag.len());
        for e in bag {
            let et = e
                .as_tuple()
                .ok_or_else(|| UdfError::new(udf, "similarity entries must be tuples"))?;
            let other = et
                .first()
                .and_then(Value::as_str)
                .ok_or_else(|| UdfError::new(udf, "entry field 0 must be a seqid"))?;
            let sim = et
                .get(1)
                .and_then(Value::as_f64)
                .ok_or_else(|| UdfError::new(udf, "entry field 1 must be the similarity"))?;
            entries.push((i, other, sim));
        }
    }
    let matrix = fill_matrix(&ids, entries);
    Ok((ids, matrix))
}

/// The `(seqid, clusterlabel)` bag `K` and `L` return.
fn label_bag<'a>(labelled: impl Iterator<Item = (&'a str, usize)>) -> Value {
    Value::bag(
        labelled
            .map(|(id, label)| {
                Value::tuple([Value::CharArray(id.to_string()), Value::Int(label as i32)])
            })
            .collect::<Vec<_>>(),
    )
}

/// `AgglomerativeHierarchicalClustering(rows, link, numhash, cutoff)`
/// — bag of `(seqid, clusterlabel)`. `$NUMHASH` is accepted and
/// unused: the similarity rows already carry the estimates.
pub struct AgglomerativeHierarchicalClustering;
impl Udf for AgglomerativeHierarchicalClustering {
    fn name(&self) -> &str {
        "AgglomerativeHierarchicalClustering"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let rows = arg_bag(self.name(), args, 0, "the similarity rows")?;
        let link_str = arg_str(self.name(), args, 1, "$LINK")?;
        let _numhash = arg_i64(self.name(), args, 2, "$NUMHASH")?;
        let cutoff = arg_f64(self.name(), args, 3, "$CUTOFF")?;
        let linkage: Linkage = link_str
            .parse()
            .map_err(|e: String| UdfError::new(self.name(), e))?;
        let (ids, matrix) = matrix_from_rows(self.name(), rows)?;
        let (assignment, _) = agglomerative(matrix, linkage, cutoff);
        Ok(label_bag(
            ids.into_iter()
                .enumerate()
                .map(|(i, id)| (id, assignment.label(i))),
        ))
    }

    /// Fills the condensed matrix straight from the grouped similarity
    /// relation's nested `bag(seqid, bag(other, sim))` column and emits
    /// the `(seqid, label)` bag as columns.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let fallback = || scalar_rows(self, args, rows);
        let scalar = |idx: usize| args.get(idx).and_then(BatchArg::as_scalar);
        let (
            Some(BatchArg::Column {
                col: Column::Bag(outer),
                start,
                ..
            }),
            Some(linkage),
            Some(_numhash),
            Some(cutoff),
        ) = (
            args.first(),
            scalar(1)
                .and_then(Value::as_str)
                .and_then(|l| l.parse::<Linkage>().ok()),
            scalar(2).and_then(Value::as_i64),
            scalar(3).and_then(Value::as_f64),
        )
        else {
            return fallback();
        };
        let start = *start;
        // Relation rows `(seqid, simrow)` of the window's bags.
        let (row_lo, row_hi) = (
            outer.offsets[start] as usize,
            outer.offsets[start + rows] as usize,
        );
        if !outer.tuple_elems
            || outer.elems.widths().is_some()
            || outer.elems.num_cols() < 2
            || !window_valid(&outer.validity, start, rows)
        {
            return fallback();
        }
        let (Some(ids), Column::Bag(inner)) = (
            str_window(outer.elems.col(0), row_lo, row_hi - row_lo),
            outer.elems.col(1),
        ) else {
            return fallback();
        };
        // Entries `(other, sim)` of those rows' similarity bags.
        let (entry_lo, entry_hi) = (
            inner.offsets[row_lo] as usize,
            inner.offsets[row_hi] as usize,
        );
        if !inner.tuple_elems
            || inner.elems.widths().is_some()
            || inner.elems.num_cols() < 2
            || !window_valid(&inner.validity, row_lo, row_hi - row_lo)
        {
            return fallback();
        }
        let (
            Some(others),
            Column::Double {
                data: sims,
                validity,
            },
        ) = (
            str_window(inner.elems.col(0), entry_lo, entry_hi - entry_lo),
            inner.elems.col(1),
        )
        else {
            return fallback();
        };
        if !window_valid(validity, entry_lo, entry_hi - entry_lo) {
            return fallback();
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut out_ids = VarBytesBuilder::with_capacity(row_hi - row_lo);
        let mut labels: Vec<i32> = Vec::with_capacity(row_hi - row_lo);
        for r in start..start + rows {
            let members = outer.offsets[r] as usize..outer.offsets[r + 1] as usize;
            let row_ids: Vec<&[u8]> = members.clone().map(|m| ids.get(m)).collect();
            let entries = members.enumerate().flat_map(|(i, m)| {
                (inner.offsets[m] as usize..inner.offsets[m + 1] as usize)
                    .map(move |e| (i, others.get(e), sims[e]))
            });
            let (assignment, _) = agglomerative(fill_matrix(&row_ids, entries), linkage, cutoff);
            for (i, id) in row_ids.iter().enumerate() {
                out_ids.push(id);
                labels.push(assignment.label(i) as i32);
            }
            offsets.push(labels.len() as u32);
        }
        let members = labels.len();
        Ok(BatchOut::Col(Column::Bag(BagCol::new(
            offsets,
            ColumnBatch::from_cols(
                vec![
                    Column::Str {
                        data: out_ids.finish(),
                        validity: None,
                    },
                    Column::Int {
                        data: labels,
                        validity: None,
                    },
                ],
                members,
            ),
            true,
            None,
        ))))
    }
}

/// `GreedyClustering(sketch_rows, numhash, cutoff)` — Algorithm 1 on
/// the grouped sketch relation, placed through the
/// [`RepresentativeIndex`] a greedy [`crate::MrMcMinH`] run uses, its
/// banding tuned for `$NUMHASH` and `$CUTOFF`; bag of
/// `(seqid, clusterlabel)`. A sketch not `$NUMHASH` long is an error.
pub struct GreedyClustering;
impl Udf for GreedyClustering {
    fn name(&self) -> &str {
        "GreedyClustering"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let rows = arg_bag(self.name(), args, 0, "the sketch rows")?;
        let config = MrMcConfig {
            num_hashes: arg_count(self.name(), args, 1, "$NUMHASH")?,
            theta: arg_f64(self.name(), args, 2, "$CUTOFF")?,
            ..MrMcConfig::default()
        };
        config
            .validate()
            .map_err(|e| UdfError::new(self.name(), e))?;
        let (ids, sketches) = sketch_rows(self.name(), rows)?;
        check_widths(self.name(), &ids, &sketches, config.num_hashes)?;
        let labels = RepresentativeIndex::new(&config).place_all(sketches);
        Ok(label_bag(ids.into_iter().zip(labels)))
    }
}

// ------------------------------------------- eval_batch override helpers
//
// Each `eval_batch` override above decodes column storage (packed byte
// buffers, offset vectors) instead of boxed `Value` trees into the same
// core function its `exec` calls. Any argument layout the override does
// not vectorize — and any argument `exec` would refuse — falls back to
// `scalar_rows(self, ..)`, so the batch path is bit-identical by
// construction, errors included.

/// True when every row of the window `start..start + len` is valid.
fn window_valid(validity: &Option<Bitmap>, start: usize, len: usize) -> bool {
    validity
        .as_ref()
        .is_none_or(|v| (start..start + len).all(|i| v.get(i)))
}

/// The packed strings of rows `start..start + len` of a chararray
/// column with no null among them (`None`: row-by-row fallback).
fn str_window(col: &Column, start: usize, len: usize) -> Option<&VarBytes> {
    match col {
        Column::Str { data, validity } if window_valid(validity, start, len) => Some(data),
        _ => None,
    }
}

/// A chararray argument window usable byte-wise: `(bytes of row i)`.
/// Returns `None` when the layout needs the row-by-row fallback.
enum StrArg<'a> {
    Col { data: &'a VarBytes, start: usize },
    Broadcast(&'a str),
}

impl StrArg<'_> {
    fn get(&self, i: usize) -> &[u8] {
        match self {
            StrArg::Col { data, start } => data.get(start + i),
            StrArg::Broadcast(s) => s.as_bytes(),
        }
    }
}

fn str_arg<'a>(arg: &BatchArg<'a>, len: usize) -> Option<StrArg<'a>> {
    match arg {
        BatchArg::Column { col, start, .. } => {
            str_window(col, *start, len).map(|data| StrArg::Col {
                data,
                start: *start,
            })
        }
        BatchArg::Scalar { value, .. } => value.as_str().map(StrArg::Broadcast),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
    use mrmc_pig::{parse_script, PigRunner};
    use std::collections::HashMap;

    fn registry() -> UdfRegistry {
        let mut r = UdfRegistry::with_builtins();
        register_mrmc_udfs(&mut r);
        r
    }

    #[test]
    fn fasta_storage_loads_records() {
        let out = FastaStorage
            .exec(&[Value::ByteArray(Bytes::from_static(
                b">r1 desc\nACGT\n>r2\nTT\n",
            ))])
            .unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 2);
        let t = bag[0].as_tuple().unwrap();
        assert_eq!(t[0].as_str(), Some("r1"));
        assert_eq!(t[2].as_bytes(), Some(&b"ACGT"[..]));
        assert_eq!(t[3].as_str(), Some("desc"));
    }

    #[test]
    fn string_generator_normalizes() {
        let out = StringGenerator
            .exec(&[
                Value::ByteArray(Bytes::from_static(b"acgu")),
                Value::CharArray("r1".into()),
            ])
            .unwrap();
        let t = out.as_tuple().unwrap();
        assert_eq!(t[0].as_str(), Some("ACGT"));
    }

    #[test]
    fn translate_to_kmer_counts() {
        let out = TranslateToKmer
            .exec(&[
                Value::CharArray("ACGTT".into()),
                Value::CharArray("r1".into()),
                Value::Long(3),
            ])
            .unwrap();
        assert_eq!(out.as_bag().unwrap().len(), 3); // 5 − 3 + 1
    }

    #[test]
    fn minwise_hash_deterministic_and_sized() {
        let rows = Value::bag(vec![
            Value::tuple([Value::Long(5), Value::CharArray("r1".into())]),
            Value::tuple([Value::Long(9), Value::CharArray("r1".into())]),
        ]);
        let args = [rows, Value::Long(5), Value::Long(8), Value::Long(1_048_583)];
        let a = CalculateMinwiseHash.exec(&args).unwrap();
        let b = CalculateMinwiseHash.exec(&args).unwrap();
        assert_eq!(a, b);
        let t = a.as_tuple().unwrap();
        assert_eq!(t[0].as_bag().unwrap().len(), 8);
        assert_eq!(t[1].as_str(), Some("r1"));
    }

    /// `CalculateMinwiseHash(C, $KMER, $NUMHASH, $DIV)` over
    /// `TranslateToKmer`'s rows is the native sketch of the read under
    /// `MrMcConfig { kmer, num_hashes, seed: $DIV, .. }.hasher()`, bit
    /// for bit, whichever native kernel that hasher runs: the rank
    /// table (k = 5, a read dense enough for it), the rolling step
    /// (k = 15) or the blocked walk past `p > 2^32` (k = 16).
    #[test]
    fn minwise_hash_is_the_native_sketch() {
        let read = b"GATTACAGGCTTACCGATNNCATGCAAGTCCGATTAGGCTACGTACCGGTTAACGTCAGTGCATGCA".repeat(4);
        for (k, n) in [(5, 64), (15, 50), (16, 32)] {
            let native = MrMcConfig {
                kmer: k,
                num_hashes: n,
                seed: 1_048_583,
                ..MrMcConfig::default()
            }
            .hasher()
            .sketch_sequence(&read)
            .unwrap();
            let rows = TranslateToKmer
                .exec(&[
                    Value::CharArray(String::from_utf8(read.clone()).unwrap()),
                    Value::CharArray("r".into()),
                    Value::Long(k as i64),
                ])
                .unwrap();
            let args = [
                rows,
                Value::Long(k as i64),
                Value::Long(n as i64),
                Value::Long(1_048_583),
            ];
            let pig = CalculateMinwiseHash.exec(&args).unwrap();
            let pig = sketch_of("test", &pig.as_tuple().unwrap()[0]).unwrap();
            assert_eq!(pig, native, "k = {k}");
        }
    }

    #[test]
    fn udf_arg_errors_are_informative() {
        let err = CalculateMinwiseHash
            .exec(&[
                Value::Int(1),
                Value::Long(5),
                Value::Long(8),
                Value::Long(11),
            ])
            .unwrap_err();
        assert!(err.message.contains("bag"), "{err}");
        let err = TranslateToKmer.exec(&[]).unwrap_err();
        assert!(err.message.contains("argument 0"), "{err}");
        // The sketcher's knobs are validated as `MrMcConfig` validates them.
        let rows = Value::bag([Value::tuple([Value::Long(1), Value::CharArray("r".into())])]);
        for (k, n, want) in [
            (0, 8, "kmer 0"),
            (40, 8, "kmer 40"),
            (5, 0, "num_hashes"),
            (5, -3, "below 0"),
        ] {
            let err = CalculateMinwiseHash
                .exec(&[
                    rows.clone(),
                    Value::Long(k),
                    Value::Long(n),
                    Value::Long(11),
                ])
                .unwrap_err();
            assert!(err.message.contains(want), "{err}");
        }
    }

    /// End-to-end: the Algorithm 3 script on a small FASTA with two
    /// obvious groups must produce two clusters in both outputs.
    #[test]
    fn algorithm3_script_end_to_end() {
        let dfs = std::sync::Arc::new(
            Dfs::new(DfsConfig {
                block_size: 4096,
                replication: 1,
                nodes: 2,
            })
            .unwrap(),
        );
        let fasta = b">a1\nACGTACGTACGTACGTACGT\n>a2\nACGTACGTACGTACGTACGT\n\
                      >b1\nGGTTCCAAGGTTCCAAGGTT\n>b2\nGGTTCCAAGGTTCCAAGGTT\n";
        dfs.put("/in.fa", Bytes::from_static(fasta), false).unwrap();

        let mut params = HashMap::new();
        for (k, v) in [
            ("INPUT", "/in.fa"),
            ("KMER", "5"),
            ("NUMHASH", "32"),
            ("DIV", "1048583"),
            ("LINK", "average"),
            ("CUTOFF", "0.9"),
            ("OUTPUT1", "/out/hier"),
            ("OUTPUT2", "/out/greedy"),
        ] {
            params.insert(k.to_string(), v.to_string());
        }
        let script = parse_script(algorithm3_script(), &params).unwrap();
        let runner = PigRunner::new(std::sync::Arc::clone(&dfs), registry());
        let report = runner.run(&script).unwrap();
        assert_eq!(report.stored, vec!["/out/hier", "/out/greedy"]);

        for path in ["/out/hier", "/out/greedy"] {
            let text = String::from_utf8(dfs.read(path).unwrap().to_vec()).unwrap();
            // Rows like "(a1,0)"; a-reads share a label, b-reads share
            // a different one.
            let mut label_of = HashMap::new();
            for line in text.lines() {
                let inner = line.trim_start_matches('(').trim_end_matches(')');
                let (id, label) = inner.split_once(',').expect("two fields");
                label_of.insert(id.to_string(), label.to_string());
            }
            assert_eq!(label_of.len(), 4, "{path}: {text}");
            assert_eq!(label_of["a1"], label_of["a2"], "{path}");
            assert_eq!(label_of["b1"], label_of["b2"], "{path}");
            assert_ne!(label_of["a1"], label_of["b1"], "{path}");
        }
    }

    /// The `TranslateToKmer` and `CalculateMinwiseHash` overrides equal
    /// the provided row-by-row lift on the Algorithm 3 shapes.
    #[test]
    fn batch_kernels_match_scalar_udfs() {
        // TranslateToKmer over a Str column.
        let seqs = Column::from_values(vec![
            Value::CharArray("ACGTT".into()),
            Value::CharArray("GGGG".into()),
        ]);
        let ids = Column::from_values(vec![
            Value::CharArray("a".into()),
            Value::CharArray("b".into()),
        ]);
        let k = Value::Long(3);
        let args = [
            BatchArg::Column {
                col: &seqs,
                start: 0,
                len: 2,
            },
            BatchArg::Column {
                col: &ids,
                start: 0,
                len: 2,
            },
            BatchArg::Scalar { value: &k, len: 2 },
        ];
        assert_kernel_matches(&TranslateToKmer, &args, 2, true, "TranslateToKmer");

        // CalculateMinwiseHash over the grouped bag column exactly as
        // the TranslateToKmer override shapes it.
        let grouped = Column::from_values(vec![
            Value::bag(vec![
                Value::tuple([Value::Long(5), Value::CharArray("a".into())]),
                Value::tuple([Value::Long(9), Value::CharArray("a".into())]),
            ]),
            Value::bag(vec![Value::tuple([
                Value::Long(7),
                Value::CharArray("b".into()),
            ])]),
        ]);
        assert!(
            matches!(grouped, Column::Bag(_)),
            "test shapes a bag column"
        );
        let (k, nh, div) = (Value::Long(5), Value::Long(8), Value::Long(1_048_583));
        let args = [
            BatchArg::Column {
                col: &grouped,
                start: 0,
                len: 2,
            },
            BatchArg::Scalar { value: &k, len: 2 },
            BatchArg::Scalar { value: &nh, len: 2 },
            BatchArg::Scalar {
                value: &div,
                len: 2,
            },
        ];
        assert_kernel_matches(
            &CalculateMinwiseHash,
            &args,
            2,
            true,
            "CalculateMinwiseHash",
        );
        // A knob `exec` refuses: the override returns its error.
        let bad = Value::Long(0);
        let args = [
            args[0],
            args[1],
            BatchArg::Scalar {
                value: &bad,
                len: 2,
            },
            args[3],
        ];
        assert_kernel_matches(&CalculateMinwiseHash, &args, 2, false, "$NUMHASH 0");
    }

    /// A relation row `(sketch, seqid)` as `CalculateMinwiseHash` emits it.
    fn sketch_row(vals: &[i64], id: &str) -> Value {
        Value::tuple([
            Value::bag(vals.iter().map(|&v| Value::Long(v)).collect::<Vec<_>>()),
            Value::CharArray(id.into()),
        ])
    }

    fn has_dyn(b: &ColumnBatch) -> bool {
        b.cols().iter().any(|c| match c {
            Column::Dyn(_) => true,
            Column::Bag(bag) => has_dyn(&bag.elems),
            _ => false,
        })
    }

    /// Run `udf`'s `eval_batch` override over `args` and hold it to
    /// [`scalar_rows`] on the same UDF — errors included — and to the
    /// path (`native` columnar output vs row-by-row fallback) the input
    /// shape must take, so a silent drop to the fallback fails here,
    /// not only in a benchmark.
    fn assert_kernel_matches(
        udf: &dyn Udf,
        args: &[BatchArg<'_>],
        rows: usize,
        native: bool,
        what: &str,
    ) -> Option<ColumnBatch> {
        let want = scalar_rows(udf, args, rows).map(|lifted| match lifted {
            BatchOut::Rows(v) => v,
            _ => unreachable!("the lift returns rows"),
        });
        let out = udf.eval_batch(args, rows);
        assert_eq!(
            native,
            matches!(out, Ok(BatchOut::Tup(_) | BatchOut::Col(_))),
            "{what}: wrong path"
        );
        let (got, batch) = match out {
            Ok(BatchOut::Tup(b)) => (Ok(b.to_rows()), Some(b)),
            Ok(BatchOut::Col(c)) => {
                let b = ColumnBatch::single(c);
                (Ok((0..rows).map(|i| b.value_at(i, 0)).collect()), Some(b))
            }
            Ok(BatchOut::Rows(v)) => (Ok(v), None),
            Err(e) => (Err(e), None),
        };
        assert_eq!(got, want, "{what}");
        if let Some(b) = &batch {
            assert!(!has_dyn(b), "{what}: native output holds a Dyn column");
        }
        batch
    }

    /// `CalculatePairwiseSimilarity` over relation `E` (every row of
    /// `rows[window]` against the broadcast `all`).
    fn check_pairwise(
        rows: &[Value],
        all: &[Value],
        window: std::ops::Range<usize>,
        native: bool,
        what: &str,
    ) -> Option<ColumnBatch> {
        let field = |j: usize| {
            Column::from_values(
                rows.iter()
                    .map(|r| r.as_tuple().map_or(Value::Null, |t| t[j].clone()))
                    .collect(),
            )
        };
        let (sketches, ids, all) = (field(0), field(1), Value::bag(all.to_vec()));
        let (start, len) = (window.start, window.len());
        let args = [
            BatchArg::Column {
                col: &sketches,
                start,
                len,
            },
            BatchArg::Column {
                col: &ids,
                start,
                len,
            },
            BatchArg::Scalar { value: &all, len },
        ];
        assert_kernel_matches(&CalculatePairwiseSimilarity, &args, len, native, what)
    }

    /// The J override equals the row-by-row lift on the Algorithm-3
    /// shape (natively, all columns typed) and on every shape that
    /// must take the fallback.
    #[test]
    fn pairwise_similarity_kernel_matches_scalar() {
        // -1 is the `u64::MAX` empty-slot sentinel: agreeing on it
        // must not count as agreement.
        let e = vec![
            sketch_row(&[1, 2, -1, 4], "r1"),
            sketch_row(&[1, 2, -1, 9], "r2"),
            sketch_row(&[7, 2, 3, 4], "r3"),
            sketch_row(&[-1, -1, -1, -1], "r4"),
        ];
        let out = check_pairwise(&e, &e, 0..4, true, "algorithm-3 shape").unwrap();
        assert_eq!(
            out.value_at(0, 1),
            Value::bag([
                Value::tuple([Value::CharArray("r2".into()), Value::Double(0.5)]),
                Value::tuple([Value::CharArray("r3".into()), Value::Double(0.5)]),
                Value::tuple([Value::CharArray("r4".into()), Value::Double(0.0)]),
            ])
        );
        // A chunk is a window into the columns, not their start.
        check_pairwise(&e, &e, 1..3, true, "mid-column window");

        // Duplicate read ids: rows are skipped by id, not by position.
        let dup = vec![
            sketch_row(&[1, 2], "a"),
            sketch_row(&[1, 3], "b"),
            sketch_row(&[1, 2], "a"),
        ];
        let out = check_pairwise(&dup, &dup, 0..3, true, "duplicate ids").unwrap();
        assert_eq!(
            out.value_at(0, 1),
            Value::bag([Value::tuple([
                Value::CharArray("b".into()),
                Value::Double(0.5)
            ])])
        );

        // One read: an empty similarity bag, still typed.
        let one = vec![sketch_row(&[5, 6], "only")];
        let out = check_pairwise(&one, &one, 0..1, true, "one read").unwrap();
        assert_eq!(out.value_at(0, 1), Value::bag([]));
        // An empty relation: every row's bag is empty.
        check_pairwise(&dup, &[], 0..3, true, "empty relation");
        // Values past `u32::MAX` (k > 16 families), ranked into byte
        // lanes like any others.
        let wide = vec![
            sketch_row(&[1 << 40, 2, 3], "w1"),
            sketch_row(&[1 << 40, 2, -1], "w2"),
        ];
        let out = check_pairwise(&wide, &wide, 0..2, true, "values past u32::MAX").unwrap();
        assert_eq!(
            out.value_at(1, 1),
            Value::bag([Value::tuple([
                Value::CharArray("w1".into()),
                Value::Double(2.0 / 3.0)
            ])])
        );

        // Errors, which the kernel leaves to the scalar. Unequal sketch
        // widths, in the relation or the row.
        let ragged = vec![sketch_row(&[1, 2], "a"), sketch_row(&[1, 2, 3], "b")];
        check_pairwise(&ragged, &ragged, 0..2, false, "unequal widths");
        check_pairwise(&ragged[1..], &dup, 0..1, false, "row wider than relation");
        // A null row.
        let with_null = vec![sketch_row(&[1, 2], "a"), Value::Null];
        check_pairwise(&with_null, &dup, 0..2, false, "null row");
        check_pairwise(
            &dup,
            &[Value::Long(3)],
            0..3,
            false,
            "relation of non-tuples",
        );
    }

    /// Two reads with no k-mer have identical (all-empty) sketches:
    /// similarity 1.0, `positional_similarity`'s rule, on both the
    /// scalar UDF and the kernel; against a real sketch they share
    /// nothing.
    #[test]
    fn degenerate_sketches_are_identical() {
        let e = vec![
            sketch_row(&[-1, -1, -1], "short1"),
            sketch_row(&[-1, -1, -1], "short2"),
            sketch_row(&[4, 5, 6], "long"),
        ];
        let out = check_pairwise(&e, &e, 0..3, true, "degenerate pair").unwrap();
        let sim = |row: &Value| -> Vec<f64> {
            row.as_bag()
                .unwrap()
                .iter()
                .map(|t| t.as_tuple().unwrap()[1].as_f64().unwrap())
                .collect()
        };
        assert_eq!(sim(&out.value_at(0, 1)), [1.0, 0.0]);
        assert_eq!(sim(&out.value_at(1, 1)), [1.0, 0.0]);
        let empty = Sketch::from_values(vec![u64::MAX; 3]);
        assert_eq!(
            mrmc_minhash::positional_similarity(&empty, &empty.clone()),
            1.0
        );
    }

    /// Sketches of unequal width cannot be compared: `J` refuses them
    /// with an error naming the row, as `L` refuses a sketch whose
    /// width is not `$NUMHASH`.
    #[test]
    fn ragged_sketch_widths_are_an_error_naming_the_row() {
        let e = vec![
            sketch_row(&[1, 2, 3], "a"),
            sketch_row(&[1, 2], "b"),
            sketch_row(&[1, 2, 3], "c"),
        ];
        let err = CalculatePairwiseSimilarity
            .exec(&[
                e[0].as_tuple().unwrap()[0].clone(),
                Value::CharArray("a".into()),
                Value::bag(e.clone()),
            ])
            .unwrap_err();
        assert!(err.message.contains("sketch of b has 2 positions"), "{err}");
        check_pairwise(&e, &e, 0..3, false, "ragged relation");

        let greedy = |numhash: i64| {
            GreedyClustering.exec(&[
                Value::bag(vec![e[0].clone(), e[2].clone()]),
                Value::Long(numhash),
                Value::Double(0.9),
            ])
        };
        let err = greedy(4).unwrap_err();
        assert!(
            err.message
                .contains("sketch of a has 3 positions, expected 4"),
            "{err}"
        );
        assert!(greedy(3).is_ok());
        let err = GreedyClustering
            .exec(&[Value::bag(e.clone()), Value::Long(3), Value::Double(0.9)])
            .unwrap_err();
        assert!(err.message.contains("sketch of b"), "{err}");
    }

    /// The id index keeps what the linear `position` scan it replaced
    /// did: first row wins among duplicate ids, unknown ids and the
    /// diagonal are skipped, a later entry overwrites an earlier one.
    #[test]
    fn fill_matrix_resolves_ids_to_their_first_row() {
        let ids = ["a", "b", "a", "c"];
        let entries = [
            (0, "b", 0.75),
            (1, "a", 0.25),    // same pair again: overwrites 0.75
            (3, "a", 0.5),     // "a" is row 0, never row 2
            (2, "c", 0.125),   // entries *of* the duplicate row keep its index
            (0, "ghost", 1.0), // unknown id
            (1, "b", 1.0),     // the row itself
        ];
        let m = fill_matrix(&ids, entries);
        let want = [
            ((0, 1), 0.25),
            ((0, 2), 0.0),
            ((0, 3), 0.5),
            ((1, 2), 0.0),
            ((1, 3), 0.0),
            ((2, 3), 0.125),
        ];
        for ((i, j), sim) in want {
            assert_eq!(m.get(i, j), sim, "({i}, {j})");
        }
    }

    /// `AgglomerativeHierarchicalClustering` over a column of grouped
    /// similarity relations (one bag of `(seqid, simrow)` per row).
    fn check_hierarchical(
        relations: Column,
        link: &str,
        native: bool,
        what: &str,
    ) -> Option<ColumnBatch> {
        let rows = relations.len();
        let (link, numhash, cutoff) = (
            Value::CharArray(link.into()),
            Value::Long(4),
            Value::Double(0.6),
        );
        let args = [
            BatchArg::Column {
                col: &relations,
                start: 0,
                len: rows,
            },
            BatchArg::Scalar {
                value: &link,
                len: rows,
            },
            BatchArg::Scalar {
                value: &numhash,
                len: rows,
            },
            BatchArg::Scalar {
                value: &cutoff,
                len: rows,
            },
        ];
        assert_kernel_matches(
            &AgglomerativeHierarchicalClustering,
            &args,
            rows,
            native,
            what,
        )
    }

    /// The K override equals the row-by-row lift on what the J
    /// override emits (natively) and on every shape that must take the
    /// fallback.
    #[test]
    fn hierarchical_kernel_matches_scalar() {
        // `II = GROUP J ALL` over the J kernel's own output: one row
        // whose bag is the whole similarity relation.
        let grouped = |e: &[Value]| {
            let j = check_pairwise(e, e, 0..e.len(), true, "J for K").unwrap();
            Column::Bag(BagCol::new(vec![0, e.len() as u32], j, true, None))
        };
        let e = vec![
            sketch_row(&[1, 2, 3, 4], "r1"),
            sketch_row(&[1, 2, 3, 9], "r2"),
            sketch_row(&[7, 7, 7, 7], "r3"),
            sketch_row(&[1, 2, 3, 4], "r1"),
        ];
        let out = check_hierarchical(grouped(&e), "average", true, "J kernel output").unwrap();
        let Value::Bag(labels) = out.value_at(0, 0) else {
            panic!("expected a label bag")
        };
        let label = |i: usize| labels[i].as_tuple().unwrap()[1].clone();
        assert_eq!(label(0), label(1), "r1 and r2 agree on 3 of 4 slots");
        assert_ne!(label(0), label(2));
        check_hierarchical(
            grouped(&[sketch_row(&[5, 6], "only")]),
            "single",
            true,
            "one read",
        );

        // Hand-made relations: an entry naming an unknown id, a row
        // naming itself, a duplicate id (resolves to its first row)
        // and a pair set twice (the later entry wins) — two relations
        // in one window.
        let entry =
            |id: &str, sim: f64| Value::tuple([Value::CharArray(id.into()), Value::Double(sim)]);
        let row = |id: &str, entries: Vec<Value>| {
            Value::tuple([Value::CharArray(id.into()), Value::bag(entries)])
        };
        let odd = Value::bag([
            row(
                "a",
                vec![entry("b", 0.9), entry("ghost", 1.0), entry("a", 1.0)],
            ),
            row("b", vec![entry("a", 0.1), entry("c", 0.7)]),
            row("c", vec![entry("b", 0.7), entry("a", 0.2)]),
            row("a", vec![entry("c", 0.8)]),
        ]);
        let plain = Value::bag([
            row("x", vec![entry("y", 1.0)]),
            row("y", vec![entry("x", 1.0)]),
        ]);
        for link in ["single", "average", "complete"] {
            check_hierarchical(
                Column::from_values(vec![odd.clone(), plain.clone()]),
                link,
                true,
                "odd entries",
            );
        }

        // Fallbacks: a null relation, a null similarity bag, integer
        // similarities, an unknown linkage (the scalar's error).
        check_hierarchical(
            Column::from_values(vec![plain.clone(), Value::Null]),
            "average",
            false,
            "null row",
        );
        let null_bag = Value::bag([
            row("x", vec![entry("y", 1.0)]),
            Value::tuple([Value::CharArray("y".into()), Value::Null]),
        ]);
        check_hierarchical(
            Column::from_values(vec![null_bag]),
            "average",
            false,
            "null bag",
        );
        let long_sims = Value::bag([
            row(
                "x",
                vec![Value::tuple([Value::CharArray("y".into()), Value::Long(1)])],
            ),
            row("y", vec![]),
        ]);
        check_hierarchical(
            Column::from_values(vec![long_sims]),
            "average",
            false,
            "long sims",
        );
        check_hierarchical(
            Column::from_values(vec![plain]),
            "centroid",
            false,
            "bad linkage",
        );
    }

    /// The full Algorithm 3 script must store byte-identical outputs,
    /// and shuffle the same traffic, whether each UDF runs through the
    /// provided row-by-row lift of `exec` or through its `eval_batch`
    /// override.
    #[test]
    fn algorithm3_scalar_lifted_and_native_kernels_agree() {
        let fasta = b">a1\nACGTACGTACGTACGTACGT\n>a2\nACGTACGTACGTACGTACGT\n\
                      >b1\nGGTTCCAAGGTTCCAAGGTT\n>b2\nGGTTCCAAGGTTCCAAGGTT\n\
                      >c1\nTTTTAAAACCCCGGGGTTTT\n";
        let mut params = HashMap::new();
        for (k, v) in [
            ("INPUT", "/in.fa"),
            ("KMER", "5"),
            ("NUMHASH", "32"),
            ("DIV", "1048583"),
            ("LINK", "average"),
            ("CUTOFF", "0.9"),
            ("OUTPUT1", "/out/hier"),
            ("OUTPUT2", "/out/greedy"),
        ] {
            params.insert(k.to_string(), v.to_string());
        }
        let script = parse_script(algorithm3_script(), &params).unwrap();

        // Forwards `name` and `exec` only, so the wrapped UDF runs
        // through the provided `eval_batch`.
        struct Lifted(Arc<dyn Udf>);
        impl Udf for Lifted {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
                self.0.exec(args)
            }
        }
        let native = registry();
        let mut scalar_only = UdfRegistry::new();
        for name in native.names() {
            scalar_only.register(Arc::new(Lifted(native.get(&name).unwrap())));
        }

        let run = |registry: UdfRegistry| {
            let dfs = Arc::new(
                Dfs::new(DfsConfig {
                    block_size: 4096,
                    replication: 1,
                    nodes: 2,
                })
                .unwrap(),
            );
            dfs.put("/in.fa", Bytes::from_static(fasta), false).unwrap();
            let report = PigRunner::new(Arc::clone(&dfs), registry)
                .run(&script)
                .unwrap();
            let mut blob = Vec::new();
            for path in ["/out/hier", "/out/greedy"] {
                blob.extend_from_slice(&dfs.read(path).unwrap());
            }
            let shuffles: Vec<(u64, u64, u64)> = report
                .pipeline
                .stages()
                .iter()
                .filter(|s| s.shuffled_pairs > 0)
                .map(|s| (s.shuffled_pairs, s.shuffled_bytes, s.shuffle_runs))
                .collect();
            (blob, shuffles)
        };
        let (lifted_out, lifted_shuffles) = run(scalar_only);
        let (native_out, native_shuffles) = run(native);
        assert_eq!(
            lifted_out, native_out,
            "scalar-lifted and native kernels diverged on Algorithm 3"
        );
        assert_eq!(lifted_shuffles, native_shuffles);
        // GROUP C BY seqid2, GROUP E ALL, GROUP J ALL.
        assert_eq!(native_shuffles, [(80, 1776, 12), (5, 1570, 5), (5, 550, 5)]);
    }

    #[test]
    fn pairwise_similarity_row_excludes_self() {
        let sk = |vals: &[i64], id: &str| {
            Value::tuple([
                Value::bag(vals.iter().map(|&v| Value::Long(v)).collect::<Vec<_>>()),
                Value::CharArray(id.into()),
            ])
        };
        let all = Value::bag(vec![sk(&[1, 2], "x"), sk(&[1, 2], "y"), sk(&[9, 9], "z")]);
        let out = CalculatePairwiseSimilarity
            .exec(&[
                Value::bag(vec![Value::Long(1), Value::Long(2)]),
                Value::CharArray("x".into()),
                all,
            ])
            .unwrap();
        let t = out.as_tuple().unwrap();
        let row = t[1].as_bag().unwrap();
        assert_eq!(row.len(), 2); // y and z, not x
        let y = row[0].as_tuple().unwrap();
        assert_eq!(y[0].as_str(), Some("y"));
        assert_eq!(y[1].as_f64(), Some(1.0));
    }
}
