//! The Pig UDFs of Algorithm 3, in Rust.
//!
//! These register into a [`mrmc_pig::UdfRegistry`] under the exact
//! names the paper's script uses (`FastaStorage`, `StringGenerator`,
//! `TranslateToKmer`, `CalculateMinwiseHash`,
//! `CalculatePairwiseSimilarity`, `AgglomerativeHierarchicalClustering`,
//! `GreedyClustering`), so [`algorithm3_script`] runs end-to-end on
//! the mini-Pig engine.
//!
//! Each UDF binds its constants once per call site, when the executor
//! plans the statement, and refuses a bad one there, before any job
//! runs. `C`, `E`, `J` and `K` are one type each, whose fields are the
//! bound constants and whose [`Udf::eval`] is a columnar kernel over
//! Algorithm 3's typed column windows that refuses any other layout
//! with a [`UdfError`] naming the argument. The loader,
//! `StringGenerator` and `GreedyClustering` are row bodies bound
//! through [`bind_rows`].
//!
//! Algorithm 3 is the native pipeline spelled in Pig: its UDFs sketch,
//! compare and place through the kernels [`crate::MrMcMinH::run`]
//! uses. `CalculateMinwiseHash` sketches with the
//! [`MrMcConfig::hasher`] of `MrMcConfig { kmer: $KMER, num_hashes:
//! $NUMHASH, seed: $DIV, .. }` (`$DIV` seeds the parameter draw; the
//! range follows k, DESIGN.md §3b), `CalculatePairwiseSimilarity`
//! emits the agreement counts of the plane's comparison kernel
//! against a [`RankedRelation`],
//! `AgglomerativeHierarchicalClustering` links them as [`PairCounts`]
//! through [`agglomerative_grouped`] and `GreedyClustering` places
//! reads through a [`RepresentativeIndex`]. So at equal
//! `(k, n, seed, θ, linkage)` both STORE outputs label the reads as a
//! dense `MrMcMinH::run` over the reads in id order (the order
//! `GROUP C BY seqid2` hands them on) does, up to label numbering.
//!
//! One documented deviation from the paper's listing: Algorithm 3
//! computes minwise hashes with a bare `FOREACH` over *individual
//! k-mer rows*, which cannot see a whole sequence's k-mer set — the
//! published script only works because their Java UDF buffers state
//! across calls. Our dataflow makes the grouping explicit
//! (`G = GROUP C BY seqid2`) and hands `CalculateMinwiseHash` the
//! grouped bag, which is the semantically equivalent, side-effect-free
//! formulation.

use std::sync::Arc;

use mrmc_cluster::{agglomerative_grouped, CountStrips, Groups, Linkage, PairCounts};
use mrmc_minhash::{MinHasher, RankedRelation, Sketch};
use mrmc_pig::batch::{BagCol, Bitmap, Column, ColumnBatch, VarBytes, VarBytesBuilder};
use mrmc_pig::udf::{bind_rows, BatchOut, UdfError, Window};
use mrmc_pig::{Udf, UdfRegistry, Value};
use mrmc_seqio::encode::KmerIter;
use mrmc_seqio::fasta::read_fasta_bytes;

use crate::config::MrMcConfig;
use crate::incremental::RepresentativeIndex;

/// Register every Algorithm 3 UDF.
pub fn register_mrmc_udfs(registry: &mut UdfRegistry) {
    registry.register_rows("FastaStorage", fasta_storage);
    registry.register_rows("StringGenerator", string_generator);
    registry.register("TranslateToKmer", TranslateToKmer::bind);
    registry.register("CalculateMinwiseHash", CalculateMinwiseHash::bind);
    registry.register(
        "CalculatePairwiseSimilarity",
        CalculatePairwiseSimilarity::bind,
    );
    registry.register(
        "AgglomerativeHierarchicalClustering",
        AgglomerativeHierarchicalClustering::bind,
    );
    registry.register("GreedyClustering", bind_greedy);
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

/// Argument `idx` is not `what`.
fn bad_arg(udf: &str, idx: usize, what: &str) -> UdfError {
    UdfError::new(udf, format!("argument {idx} must be {what}"))
}

/// Refuse a call site of `udf` that does not pass `n` arguments, the
/// first `cols` of them columns; each constant is read where it is
/// bound.
fn check_call(udf: &str, args: &[Option<&Value>], cols: usize, n: usize) -> Result<(), UdfError> {
    if let Some(idx) = (0..cols).find(|&i| args.get(i).is_none_or(Option::is_some)) {
        return Err(bad_arg(udf, idx, "a column"));
    }
    match args.len() == n {
        true => Ok(()),
        false => Err(UdfError::new(
            udf,
            format!("takes {n} arguments, got {}", args.len()),
        )),
    }
}

/// Constant argument `idx` as `read` takes it, or the error naming it
/// as `what`.
fn constant<'a, T>(
    udf: &str,
    args: &[Option<&'a Value>],
    idx: usize,
    what: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, UdfError> {
    let v = args.get(idx).copied().flatten().and_then(read);
    v.ok_or_else(|| bad_arg(udf, idx, what))
}

/// A count argument (`$KMER`, `$NUMHASH`): a non-negative integer.
fn arg_count(
    udf: &str,
    args: &[Option<&Value>],
    idx: usize,
    what: &str,
) -> Result<usize, UdfError> {
    let v = constant(udf, args, idx, &format!("{what} (integer)"), Value::as_i64)?;
    usize::try_from(v).map_err(|_| UdfError::new(udf, format!("{what} is {v}, below 0")))
}

/// `K`'s and `L`'s knobs `$NUMHASH, $CUTOFF` at `args[idx..]`,
/// validated as [`crate::MrMcMinH`] validates its config.
fn knobs(udf: &str, args: &[Option<&Value>], idx: usize) -> Result<MrMcConfig, UdfError> {
    let config = MrMcConfig {
        num_hashes: arg_count(udf, args, idx, "$NUMHASH")?,
        theta: constant(udf, args, idx + 1, "$CUTOFF (number)", Value::as_f64)?,
        ..MrMcConfig::default()
    };
    config.validate().map_err(|e| UdfError::new(udf, e))?;
    Ok(config)
}

/// `FastaStorage` — the loader: file bytes → bag of
/// `(readid, d, seq, header)` tuples (d is the paper's direction
/// field; always 0 here).
fn fasta_storage(args: &[Value]) -> Result<Value, UdfError> {
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

/// `StringGenerator(seq, readid)` — normalizes the DNA alphabet
/// (upper-case, `U`→`T`) and passes the id through; the integer
/// encoding itself happens inside `TranslateToKmer`, which packs each
/// k-mer into a long. The k-mer encoder reads either case and `U` as
/// `T` anyway, so the normalization changes no sketch.
fn string_generator(args: &[Value]) -> Result<Value, UdfError> {
    let udf = "StringGenerator";
    let seq = args.first().and_then(Value::as_bytes);
    let seq = seq.ok_or_else(|| bad_arg(udf, 0, "the sequence"))?;
    let id = args.get(1).and_then(Value::as_str);
    let id = id.ok_or_else(|| bad_arg(udf, 1, "the read id (chararray)"))?;
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

/// `TranslateToKmer(seq, seqid, $KMER)` — bag of `(kmer:long, seqid)`,
/// each k-mer packed into the long the Pig data model carries it in.
struct TranslateToKmer {
    /// `$KMER`.
    k: usize,
}

impl TranslateToKmer {
    /// Bind a call site: `$KMER` must be a k-mer size `KmerIter` takes.
    fn bind(args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
        let udf = "TranslateToKmer";
        check_call(udf, args, 2, 3)?;
        let k = arg_count(udf, args, 2, "$KMER")?;
        KmerIter::new(&[], k).map_err(|e| UdfError::new(udf, e.to_string()))?;
        Ok(Arc::new(TranslateToKmer { k }))
    }
}

impl Udf for TranslateToKmer {
    fn name(&self) -> &str {
        "TranslateToKmer"
    }

    /// Writes every row's k-mers straight into one packed `long`
    /// column and builds the `(kmer, seqid)` bag column over it — no
    /// per-k-mer tuple or bag allocation.
    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let udf = self.name();
        let seq = str_arg(udf, cols, 0, rows, "the sequence")?;
        let ids = str_arg(udf, cols, 1, rows, "the read id")?;
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut all: Vec<i64> = Vec::new();
        let mut out_ids = VarBytesBuilder::with_capacity(rows * 8);
        for i in 0..rows {
            let id = ids(i);
            let kmers =
                KmerIter::new(seq(i), self.k).map_err(|e| UdfError::new(udf, e.to_string()))?;
            for km in kmers {
                all.push(km as i64);
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

/// `CalculateMinwiseHash(kmer_bag, $KMER, $NUMHASH, $DIV)` — the
/// grouped bag of `(kmer, seqid)` rows for one sequence →
/// `(sketch:bag(long), seqid)`; the empty slot `u64::MAX` is `-1`.
struct CalculateMinwiseHash {
    hasher: MinHasher,
}

impl CalculateMinwiseHash {
    /// Bind a call site: the sketcher is the [`MrMcConfig::hasher`] of
    /// the config the constants spell (`$DIV` seeds the draw), validated
    /// as [`crate::MrMcMinH`] validates its config.
    fn bind(args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
        let udf = "CalculateMinwiseHash";
        check_call(udf, args, 1, 4)?;
        let config = MrMcConfig {
            kmer: arg_count(udf, args, 1, "$KMER")?,
            num_hashes: arg_count(udf, args, 2, "$NUMHASH")?,
            seed: constant(udf, args, 3, "$DIV (integer)", Value::as_i64)? as u64,
            ..MrMcConfig::default()
        };
        config.validate().map_err(|e| UdfError::new(udf, e))?;
        let hasher = config.hasher();
        Ok(Arc::new(CalculateMinwiseHash { hasher }))
    }
}

impl Udf for CalculateMinwiseHash {
    fn name(&self) -> &str {
        "CalculateMinwiseHash"
    }

    /// Reads each group's k-mers straight out of the grouped bag
    /// column's packed `long` child (no `Value` materialization of the
    /// k-mer rows at all) and emits the sketches as one packed bag
    /// column.
    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let udf = self.name();
        let what = "the grouped (kmer:long, seqid:chararray) rows";
        let (bag, start) = bag_arg(udf, cols, 0, rows, what)?;
        let (lo, hi) = (bag.offsets[start], bag.offsets[start + rows]);
        let (lo, len) = (lo as usize, (hi - lo) as usize);
        let (true, [kmers, ids, ..]) = (bag.tuple_elems, bag.elems.cols()) else {
            return Err(bad_arg(udf, 0, what));
        };
        let (Some(kmers), Some(ids)) = (long_window(kmers, lo, len), str_window(ids, lo, len))
        else {
            return Err(bad_arg(udf, 0, what));
        };
        if (0..rows).any(|i| bag.bag_len(start + i) == 0) {
            return Err(UdfError::new(udf, "empty k-mer group"));
        }
        let hasher = &self.hasher;
        let mut sketches: Vec<i64> = Vec::with_capacity(rows * hasher.num_hashes());
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut out_ids = VarBytesBuilder::with_capacity(rows);
        for i in 0..rows {
            let group = bag.offsets[start + i] as usize..bag.offsets[start + i + 1] as usize;
            out_ids.push(ids.get(group.start));
            let sketch = hasher.sketch_kmers(kmers[group].iter().map(|&km| km as u64));
            sketches.extend(sketch.values().iter().map(|&v| v as i64));
            offsets.push(sketches.len() as u32);
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
/// `(id, sketch)` pairs, in row order.
fn sketch_rows<'a>(udf: &str, rows: &'a [Value]) -> Result<Vec<(&'a str, Sketch)>, UdfError> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let t = row
            .as_tuple()
            .ok_or_else(|| UdfError::new(udf, "sketch rows must be tuples"))?;
        let sketch = sketch_of(udf, t.first().unwrap_or(&Value::Null))?;
        let id = t
            .get(1)
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new(udf, "missing seqid"))?;
        out.push((id, sketch));
    }
    Ok(out)
}

/// The sketch of `id` is `len` positions wide where `expected` belong.
fn width_fault(udf: &str, id: &[u8], len: usize, expected: usize) -> UdfError {
    let id = String::from_utf8_lossy(id);
    let fault = format!("sketch of {id} has {len} positions, expected {expected}");
    UdfError::new(udf, fault)
}

/// `CalculatePairwiseSimilarity(sketch, seqid, all_rows)` — one row of
/// the agreement counts: `(seqid, bag of int)`, the
/// [`agreements`](mrmc_minhash::agreements) against each row of
/// `all_rows` (the scalar `I.E`, Fig. 1's row-wise partition) in seqid
/// order, its own included. A seqid twice in the relation or sketches
/// of unequal width are an error.
struct CalculatePairwiseSimilarity {
    /// `I.E`'s sketches in seqid order, ranked once.
    relation: RankedRelation,
}

impl CalculatePairwiseSimilarity {
    /// Bind a call site: `I.E` decoded once, ordered by seqid, checked
    /// for a seqid twice and for unequal widths, and ranked. A scalar
    /// reference to a relation of no row is null, the empty relation.
    fn bind(args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
        let udf = "CalculatePairwiseSimilarity";
        check_call(udf, args, 2, 3)?;
        let all = constant(udf, args, 2, "the full relation (bag)", |v| match v {
            Value::Null => Some(&[][..]),
            v => v.as_bag(),
        })?;
        let mut relation = sketch_rows(udf, all)?;
        relation.sort_unstable_by(|a, b| a.0.cmp(b.0));
        if let Some(pair) = relation.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            let fault = format!("seqid {} is twice in the relation", pair[0].0);
            return Err(UdfError::new(udf, fault));
        }
        let sketches: Vec<&Sketch> = relation.iter().map(|(_, sketch)| sketch).collect();
        let relation = RankedRelation::pack(&sketches)
            .map_err(|e| width_fault(udf, relation[e.index].0.as_bytes(), e.len, e.expected))?;
        Ok(Arc::new(CalculatePairwiseSimilarity { relation }))
    }
}

impl Udf for CalculatePairwiseSimilarity {
    fn name(&self) -> &str {
        "CalculatePairwiseSimilarity"
    }

    /// Ranks the chunk's own sketches (read straight out of the sketch
    /// bag's `long` child) against the bound relation's columns and
    /// writes each row's counts into one `int` column: the n² relation
    /// is never boxed, and the relation is never ranked again.
    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let udf = self.name();
        let what = "the sketch (bag of long)";
        let (bag, start) = bag_arg(udf, cols, 0, rows, what)?;
        let my_ids = str_arg(udf, cols, 1, rows, "the seqid")?;
        let (lo, hi) = (bag.offsets[start], bag.offsets[start + rows]);
        let (false, [slots]) = (bag.tuple_elems, bag.elems.cols()) else {
            return Err(bad_arg(udf, 0, what));
        };
        let slots = long_window(slots, lo as usize, (hi - lo) as usize);
        let slots = slots.ok_or_else(|| bad_arg(udf, 0, what))?;
        let mine = (start..start + rows).map(|r| {
            let slots = &slots[bag.offsets[r] as usize..bag.offsets[r + 1] as usize];
            slots.iter().map(|&v| v as u64)
        });
        let n = self.relation.len();
        let mut counts: Vec<i32> = Vec::with_capacity(rows * n);
        self.relation
            .extend_counts(mine, &mut counts, |c| c as i32)
            .map_err(|e| width_fault(udf, my_ids(e.index), e.len, e.expected))?;
        let mut out_ids = VarBytesBuilder::with_capacity(rows);
        (0..rows).for_each(|i| out_ids.push(my_ids(i)));
        let offsets = (0..=rows).map(|i| (i * n) as u32).collect();
        let row_col = Column::Bag(BagCol::new(
            offsets,
            ColumnBatch::single(Column::Int {
                data: counts,
                validity: None,
            }),
            false,
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

/// `AgglomerativeHierarchicalClustering(rows, $LINK, $NUMHASH, $CUTOFF)`
/// — bag of `(seqid, clusterlabel)` in seqid order. Count `j` of the
/// `i`-th seqid's row is their agreement, similarity `count / $NUMHASH`.
struct AgglomerativeHierarchicalClustering {
    linkage: Linkage,
    /// `$NUMHASH` (the width every count is out of) and `$CUTOFF`.
    config: MrMcConfig,
}

impl AgglomerativeHierarchicalClustering {
    /// Bind a call site: `$LINK` parsed, `$NUMHASH` and `$CUTOFF`
    /// validated as [`crate::MrMcMinH`] validates its config.
    fn bind(args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
        let udf = "AgglomerativeHierarchicalClustering";
        check_call(udf, args, 1, 4)?;
        let linkage = constant(udf, args, 1, "$LINK (chararray)", Value::as_str)?;
        let linkage: Linkage = linkage.parse().map_err(|e: String| UdfError::new(udf, e))?;
        let config = knobs(udf, args, 2)?;
        Ok(Arc::new(AgglomerativeHierarchicalClustering {
            linkage,
            config,
        }))
    }
}

impl Udf for AgglomerativeHierarchicalClustering {
    fn name(&self) -> &str {
        "AgglomerativeHierarchicalClustering"
    }

    /// Reads `II`'s nested `bag(seqid, bag(int))` column in place, joins
    /// each row to the first earlier row it matches at `$NUMHASH` (equal
    /// sketches), and links the groups' [`PairCounts`] through
    /// [`agglomerative_grouped`], as the native dense route does. A row
    /// not one count per seqid, a count outside `0..=$NUMHASH`, a
    /// diagonal other than `$NUMHASH` and a seqid twice are errors.
    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let udf = self.name();
        let what = "the similarity rows (seqid:chararray, simrow: bag of int)";
        let (outer, start) = bag_arg(udf, cols, 0, rows, what)?;
        let (width, cutoff) = (self.config.num_hashes, self.config.theta);
        // Relation rows `(seqid, simrow)` of the window's bags, then the
        // counts of those rows' bags.
        let row_lo = outer.offsets[start] as usize;
        let row_len = outer.offsets[start + rows] as usize - row_lo;
        let (true, [ids, Column::Bag(inner), ..]) = (outer.tuple_elems, outer.elems.cols()) else {
            return Err(bad_arg(udf, 0, what));
        };
        let (Some(ids), true, false, [Column::Int { data, validity }]) = (
            str_window(ids, row_lo, row_len),
            window_valid(&inner.validity, row_lo, row_len),
            inner.tuple_elems,
            inner.elems.cols(),
        ) else {
            return Err(bad_arg(udf, 0, what));
        };
        let counts = inner.offsets[row_lo] as usize..inner.offsets[row_lo + row_len] as usize;
        if !window_valid(validity, counts.start, counts.len()) {
            return Err(bad_arg(udf, 0, what));
        }
        if let Some(c) = data[counts].iter().find(|&&c| c < 0 || c as usize > width) {
            let fault = format!("count {c} is outside 0..={width} ($NUMHASH)");
            return Err(UdfError::new(udf, fault));
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut out_ids = VarBytesBuilder::with_capacity(row_len);
        let mut labels: Vec<i32> = Vec::with_capacity(row_len);
        for r in start..start + rows {
            let mut members: Vec<usize> = (outer.offsets[r]..outer.offsets[r + 1])
                .map(|m| m as usize)
                .collect();
            members.sort_unstable_by_key(|&m| ids.get(m));
            let fault = |m: usize, what: String| {
                let id = String::from_utf8_lossy(ids.get(m));
                Err(UdfError::new(udf, format!("seqid {id} {what}")))
            };
            let n = members.len();
            let mut simrows: Vec<&[i32]> = Vec::with_capacity(n);
            // A row's key: its index, or the key of the first earlier
            // row it meets at `$NUMHASH`.
            let mut keys: Vec<usize> = Vec::with_capacity(n);
            for (i, &m) in members.iter().enumerate() {
                let row = &data[inner.offsets[m] as usize..inner.offsets[m + 1] as usize];
                if i > 0 && ids.get(members[i - 1]) == ids.get(m) {
                    return fault(m, "is twice in the relation".into());
                }
                if row.len() != n {
                    return fault(m, format!("holds {} counts, expected {n}", row.len()));
                }
                if row[i] as usize != width {
                    return fault(m, format!("has diagonal {}, expected {width}", row[i]));
                }
                let twin = row[..i].iter().position(|&c| c as usize == width);
                keys.push(twin.map_or(i, |j| keys[j]));
                simrows.push(row);
            }
            let groups = Groups::by_key(keys).map_err(|e| UdfError::new(udf, e.to_string()))?;
            let counts = if width <= usize::from(u8::MAX) {
                CountStrips::Narrow(strips(&simrows, groups.first(), |c| c as u8))
            } else {
                CountStrips::Wide(strips(&simrows, groups.first(), |c| c as u16))
            };
            let counts = PairCounts::new(width, counts);
            let (assignment, _) = agglomerative_grouped(&counts, &groups, self.linkage, cutoff)
                .map_err(|e| UdfError::new(udf, e.to_string()))?;
            for (i, &m) in members.iter().enumerate() {
                out_ids.push(ids.get(m));
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

/// The [`PairCounts`] strips of the rows `firsts` of `simrows`: strip
/// `a` holds row `firsts[a]`'s counts at the later `firsts`, narrowed.
fn strips<L>(simrows: &[&[i32]], firsts: &[u32], narrow: impl Fn(i32) -> L) -> Vec<Vec<L>> {
    let strip = |(a, &row): (usize, &u32)| {
        let row = simrows[row as usize];
        firsts[a + 1..]
            .iter()
            .map(|&b| narrow(row[b as usize]))
            .collect()
    };
    firsts.iter().enumerate().map(strip).collect()
}

/// Bind `GreedyClustering(sketch_rows, $NUMHASH, $CUTOFF)` — Algorithm 1
/// on the grouped sketch relation, placed through the
/// [`RepresentativeIndex`] a greedy [`crate::MrMcMinH`] run uses, its
/// banding tuned for `$NUMHASH` and `$CUTOFF`; bag of
/// `(seqid, clusterlabel)`. The knobs are validated here, once; a
/// sketch not `$NUMHASH` long is an error of the row.
fn bind_greedy(args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
    let udf = "GreedyClustering";
    check_call(udf, args, 1, 3)?;
    let config = knobs(udf, args, 1)?;
    Ok(bind_rows(udf, &args[..1], move |args| {
        let rows = args.first().and_then(Value::as_bag);
        let rows = rows.ok_or_else(|| bad_arg(udf, 0, "the sketch rows (bag)"))?;
        let (ids, sketches): (Vec<&str>, Vec<Sketch>) = sketch_rows(udf, rows)?.into_iter().unzip();
        check_widths(udf, &ids, &sketches, config.num_hashes)?;
        let labels = RepresentativeIndex::new(&config).place_all(sketches);
        Ok(Value::bag(
            ids.into_iter()
                .zip(labels)
                .map(|(id, label)| {
                    Value::tuple([Value::CharArray(id.to_string()), Value::Int(label as i32)])
                })
                .collect::<Vec<_>>(),
        ))
    }))
}

/// Every sketch must be `n` long; the error names the first seqid of
/// `ids` whose sketch is not.
fn check_widths(udf: &str, ids: &[&str], sketches: &[Sketch], n: usize) -> Result<(), UdfError> {
    match ids.iter().zip(sketches).find(|(_, s)| s.len() != n) {
        Some((id, s)) => Err(width_fault(udf, id.as_bytes(), s.len(), n)),
        None => Ok(()),
    }
}

/// True when every row of the window `start..start + len` is valid.
fn window_valid(validity: &Option<Bitmap>, start: usize, len: usize) -> bool {
    validity
        .as_ref()
        .is_none_or(|v| (start..start + len).all(|i| v.get(i)))
}

/// The packed strings of a chararray column with no null in rows
/// `start..start + len`.
fn str_window(col: &Column, start: usize, len: usize) -> Option<&VarBytes> {
    match col {
        Column::Str { data, validity } if window_valid(validity, start, len) => Some(data),
        _ => None,
    }
}

/// The packed values of a `long` column with no null in rows
/// `start..start + len`.
fn long_window(col: &Column, start: usize, len: usize) -> Option<&[i64]> {
    match col {
        Column::Long { data, validity } if window_valid(validity, start, len) => Some(data),
        _ => None,
    }
}

/// Column argument `idx` of `cols`, a bag column with no null bag in
/// its window, and the window's first row.
fn bag_arg<'a>(
    udf: &str,
    cols: &[Window<'a>],
    idx: usize,
    rows: usize,
    what: &str,
) -> Result<(&'a BagCol, usize), UdfError> {
    match cols.get(idx) {
        Some(&Window {
            col: Column::Bag(bag),
            start,
            ..
        }) if window_valid(&bag.validity, start, rows) => Ok((bag, start)),
        _ => Err(bad_arg(
            udf,
            idx,
            &format!("{what}, a bag column with no null"),
        )),
    }
}

/// Column argument `idx` of `cols` as chararrays with no null in its
/// window: row `i`'s bytes.
fn str_arg<'a>(
    udf: &str,
    cols: &[Window<'a>],
    idx: usize,
    rows: usize,
    what: &str,
) -> Result<impl Fn(usize) -> &'a [u8], UdfError> {
    let data = cols
        .get(idx)
        .and_then(|w| Some((str_window(w.col, w.start, rows)?, w.start)));
    let (data, start) =
        data.ok_or_else(|| bad_arg(udf, idx, &format!("{what} (chararray, no null)")))?;
    Ok(move |i| data.get(start + i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
    use mrmc_mapreduce::obs::Tracer;
    use mrmc_minhash::agreements;
    use mrmc_pig::exec::PigError;
    use mrmc_pig::{parse_script, PigRunner};
    use std::collections::HashMap;

    fn registry() -> UdfRegistry {
        let mut r = UdfRegistry::with_builtins();
        register_mrmc_udfs(&mut r);
        r
    }

    /// `name` bound, as the executor binds it, at a call site whose
    /// arguments are `args` (`None` a column).
    fn bind(name: &str, args: &[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> {
        registry().get(name).expect("registered")(args)
    }

    /// One row through `name`: each of `cols` a one-row column, then
    /// each of `consts` a constant (every Algorithm 3 UDF takes its
    /// columns first).
    fn one_row(name: &str, cols: &[Value], consts: &[Value]) -> Result<Value, UdfError> {
        let args: Vec<Option<&Value>> = cols
            .iter()
            .map(|_| None)
            .chain(consts.iter().map(Some))
            .collect();
        let udf = bind(name, &args)?;
        let cols: Vec<Column> = cols
            .iter()
            .map(|v| Column::from_values(vec![v.clone()]))
            .collect();
        let windows: Vec<Window<'_>> = cols.iter().map(column).collect();
        Ok(udf.eval(&windows, 1)?.into_row(0).expect("one row"))
    }

    fn has_dyn(b: &ColumnBatch) -> bool {
        b.cols().iter().any(|c| match c {
            Column::Dyn(_) => true,
            Column::Bag(bag) => has_dyn(&bag.elems),
            _ => false,
        })
    }

    /// `udf`'s kernel over `cols`: typed columns out, one row per input
    /// row, no `Dyn` column anywhere.
    fn kernel_out(udf: &dyn Udf, cols: &[Window<'_>], rows: usize, what: &str) -> ColumnBatch {
        let batch = match udf.eval(cols, rows) {
            Ok(BatchOut::Tup(b)) => b,
            Ok(BatchOut::Col(c)) => ColumnBatch::single(c),
            other => panic!("{what}: {other:?}"),
        };
        assert_eq!(batch.rows(), rows, "{what}");
        assert!(!has_dyn(&batch), "{what}: output holds a Dyn column");
        batch
    }

    fn window(col: &Column, start: usize, len: usize) -> Window<'_> {
        Window { col, start, len }
    }

    fn column(col: &Column) -> Window<'_> {
        window(col, 0, col.len())
    }

    fn chararrays(strs: &[&str]) -> Column {
        Column::from_values(
            strs.iter()
                .map(|s| Value::CharArray(s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn fasta_storage_loads_records() {
        let file = Value::ByteArray(Bytes::from_static(b">r1 desc\nACGT\n>r2\nTT\n"));
        let out = one_row("FastaStorage", &[file], &[]).unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 2);
        let t = bag[0].as_tuple().unwrap();
        assert_eq!(t[0].as_str(), Some("r1"));
        assert_eq!(t[2].as_bytes(), Some(&b"ACGT"[..]));
        assert_eq!(t[3].as_str(), Some("desc"));
    }

    #[test]
    fn string_generator_normalizes() {
        let args = [
            Value::ByteArray(Bytes::from_static(b"acgu")),
            Value::CharArray("r1".into()),
        ];
        let out = one_row("StringGenerator", &args, &[]).unwrap();
        let t = out.as_tuple().unwrap();
        assert_eq!(t[0].as_str(), Some("ACGT"));
    }

    /// `C`'s bag for each read is `KmerIter`'s k-mers of it in order,
    /// each beside the read's id: reads shorter than k (an empty bag),
    /// with `N`, in lower case, and a window that is not the column's
    /// start.
    #[test]
    fn translate_to_kmer_is_kmer_iter() {
        let reads = [
            "ACGTT",
            "GG",
            "ACGNNTTGCAacgtacgtacgtTT",
            "GATTACAGATTACAGATTACA",
        ];
        let (seqs, ids) = (chararrays(&reads), chararrays(&["a", "b", "c", "d"]));
        for k in [1, 3, 5, 15] {
            let k_arg = Value::Long(k as i64);
            let c = bind("TranslateToKmer", &[None, None, Some(&k_arg)]).unwrap();
            for (start, len) in [(0, 4), (1, 3)] {
                let cols = [window(&seqs, start, len), window(&ids, start, len)];
                let out = kernel_out(&*c, &cols, len, "TranslateToKmer");
                for (row, read) in reads[start..start + len].iter().enumerate() {
                    let id = ids.value_at(start + row);
                    let want: Vec<Value> = KmerIter::new(read.as_bytes(), k)
                        .unwrap()
                        .map(|km| Value::tuple([Value::Long(km as i64), id.clone()]))
                        .collect();
                    assert_eq!(out.value_at(row, 0), Value::bag(want), "k = {k}, {read}");
                }
            }
        }
    }

    /// `CalculateMinwiseHash(C, $KMER, $NUMHASH, $DIV)` over
    /// `TranslateToKmer`'s column is the native sketch of each read under
    /// `MrMcConfig { kmer, num_hashes, seed: $DIV, .. }.hasher()`, bit
    /// for bit, whichever native kernel that hasher runs: the rank
    /// table (k = 5, a read dense enough for it), the rolling step
    /// (k = 15) or the blocked walk past `p > 2^32` (k = 16).
    #[test]
    fn minwise_hash_is_the_native_sketch() {
        let long = b"GATTACAGGCTTACCGATNNCATGCAAGTCCGATTAGGCTACGTACCGGTTAACGTCAGTGCATGCA".repeat(4);
        let reads = [
            long.clone(),
            long[7..90].to_vec(),
            long[100..].to_ascii_lowercase(),
        ];
        let text: Vec<&str> = reads
            .iter()
            .map(|r| std::str::from_utf8(r).unwrap())
            .collect();
        let (seqs, ids) = (chararrays(&text), chararrays(&["r0", "r1", "r2"]));
        let div = Value::Long(1_048_583);
        for (k, n) in [(5, 64), (15, 50), (16, 32)] {
            let (k_arg, n_arg) = (Value::Long(k as i64), Value::Long(n as i64));
            let c = bind("TranslateToKmer", &[None, None, Some(&k_arg)]).unwrap();
            let c = kernel_out(&*c, &[column(&seqs), column(&ids)], 3, "C");
            let e_args = [None, Some(&k_arg), Some(&n_arg), Some(&div)];
            let e = bind("CalculateMinwiseHash", &e_args).unwrap();
            let e = kernel_out(&*e, &[column(c.col(0))], 3, "E");
            let hasher = MrMcConfig {
                kmer: k,
                num_hashes: n,
                seed: 1_048_583,
                ..MrMcConfig::default()
            }
            .hasher();
            for (row, read) in reads.iter().enumerate() {
                let native = hasher.sketch_sequence(read).unwrap();
                let pig = sketch_of("test", &e.value_at(row, 0)).unwrap();
                assert_eq!(pig, native, "k = {k}, read {row}");
                assert_eq!(e.value_at(row, 1), ids.value_at(row));
            }
        }
    }

    /// A call site's constants are checked when it is bound; a value
    /// fault in a column window when the kernel meets it.
    #[test]
    fn udf_arg_errors_are_informative() {
        let knobs = |k: i64, n: i64| [Value::Long(k), Value::Long(n), Value::Long(11)];
        let err = one_row("CalculateMinwiseHash", &[Value::Int(1)], &knobs(5, 8)).unwrap_err();
        assert!(err.message.contains("argument 0"), "{err}");
        assert!(err.message.contains("bag"), "{err}");
        let refusal = |name: &str, args: &[Option<&Value>]| {
            let err = bind(name, args).err().expect("the call site is refused");
            assert_eq!(err.udf, name);
            err.message
        };
        let message = refusal("TranslateToKmer", &[]);
        assert!(message.contains("argument 0"), "{message}");
        // The sketcher's knobs are validated as `MrMcConfig` validates them.
        for (k, n, want) in [
            (0, 8, "kmer 0"),
            (40, 8, "kmer 40"),
            (5, 0, "num_hashes"),
            (5, -3, "$NUMHASH is -3, below 0"),
            (-1, 8, "$KMER is -1, below 0"),
        ] {
            let [k, n, div] = knobs(k, n);
            let message = refusal(
                "CalculateMinwiseHash",
                &[None, Some(&k), Some(&n), Some(&div)],
            );
            assert!(message.contains(want), "{message}");
        }
        // `C` takes the k-mer sizes `KmerIter` takes.
        for (k, want) in [
            (-1, "$KMER is -1, below 0"),
            (40, "k-mer size 40 unsupported"),
        ] {
            let message = refusal("TranslateToKmer", &[None, None, Some(&Value::Long(k))]);
            assert!(message.contains(want), "{message}");
        }
        // `K` refuses a linkage it does not know.
        let (link, numhash, cutoff) = (
            Value::CharArray("centroid".into()),
            Value::Long(4),
            Value::Double(0.6),
        );
        let message = refusal(
            "AgglomerativeHierarchicalClustering",
            &[None, Some(&link), Some(&numhash), Some(&cutoff)],
        );
        assert!(
            message.contains("unknown linkage \"centroid\""),
            "{message}"
        );
        // An argument moved between column and constant, or one too
        // many, is refused naming it.
        let seqid = Value::CharArray("r".into());
        let message = refusal("TranslateToKmer", &[None, None, None]);
        assert!(
            message.contains("argument 2 must be $KMER (integer)"),
            "{message}"
        );
        let message = refusal("CalculatePairwiseSimilarity", &[None, Some(&seqid), None]);
        assert!(message.contains("argument 1 must be a column"), "{message}");
        let message = refusal(
            "GreedyClustering",
            &[None, Some(&numhash), Some(&cutoff), None],
        );
        assert!(message.contains("takes 3 arguments, got 4"), "{message}");
    }

    /// The Algorithm 3 script's parameters, `$KMER`, `$NUMHASH` and
    /// `$CUTOFF` as given.
    fn script_params(kmer: &str, numhash: &str, cutoff: &str) -> HashMap<String, String> {
        [
            ("INPUT", "/in.fa"),
            ("KMER", kmer),
            ("NUMHASH", numhash),
            ("DIV", "1048583"),
            ("LINK", "average"),
            ("CUTOFF", cutoff),
            ("OUTPUT1", "/out/hier"),
            ("OUTPUT2", "/out/greedy"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    /// A bad constant is refused when its statement is planned, before
    /// the statement's job runs, and also when the statement has no
    /// rows (reads shorter than `$KMER` leave `E` and `K` none): the
    /// run returns `PigError::Udf` naming the UDF and the argument, and
    /// the tracer holds the jobs of the statements before it but none
    /// of its own.
    #[test]
    fn bad_constants_are_refused_when_the_statement_is_planned() {
        let dfs = std::sync::Arc::new(
            Dfs::new(DfsConfig {
                block_size: 4096,
                replication: 1,
                nodes: 2,
            })
            .unwrap(),
        );
        let fasta = b">a1\nACGTACGTACGTACGTACGT\n>b1\nGGTTCCAAGGTTCCAAGGTT\n";
        let short = b">s1\nACG\n>s2\nGGT\n";
        let base = algorithm3_script();
        let c_line = "TranslateToKmer(seq, seqid, $KMER)";
        let cases = [
            (
                script_params("40", "32", "0.9"),
                base.to_string(),
                "C",
                "TranslateToKmer",
                "k-mer size 40 unsupported",
            ),
            (
                script_params("5", "70000", "0.9"),
                base.to_string(),
                "E",
                "CalculateMinwiseHash",
                "num_hashes 70000",
            ),
            (
                script_params("5", "32", "0.9"),
                base.replace("'$LINK'", "'centroid'"),
                "K",
                "AgglomerativeHierarchicalClustering",
                "unknown linkage \"centroid\"",
            ),
            (
                script_params("5", "32", "0.9"),
                base.replace(c_line, "TranslateToKmer(seq, seqid, seqid)"),
                "C",
                "TranslateToKmer",
                "argument 2 must be $KMER (integer)",
            ),
        ];
        for ((params, text, refusing, udf, want), input) in cases
            .into_iter()
            .flat_map(|case| [(case.clone(), &fasta[..]), (case, &short[..])])
        {
            dfs.put("/in.fa", input.to_vec(), true).unwrap();
            let script = parse_script(&text, &params).unwrap();
            let tracer = std::sync::Arc::new(Tracer::new());
            let runner = PigRunner::new(std::sync::Arc::clone(&dfs), registry())
                .traced(std::sync::Arc::clone(&tracer));
            match runner.run(&script) {
                Err(PigError::Udf(e)) => {
                    assert_eq!(e.udf, udf, "{refusing}: {e}");
                    assert!(e.message.contains(want), "{refusing}: {e}");
                }
                other => panic!("{refusing}: expected a UDF refusal, got {other:?}"),
            }
            let jobs = tracer.ledger().jobs;
            let refused = format!("foreach:{refusing}");
            assert!(!jobs.contains(&refused), "{refused} ran: {jobs:?}");
            // Every statement before the refusing one ran its job.
            let before = match refusing {
                "C" => &["foreach:B"][..],
                "E" => &["foreach:C", "group:G"],
                _ => &["foreach:E", "group:I", "foreach:J", "group:II"],
            };
            for job in before {
                assert!(
                    jobs.iter().any(|j| j == job),
                    "{refusing}: no {job} in {jobs:?}"
                );
            }
        }
    }

    /// End-to-end: the Algorithm 3 script on a small FASTA with three
    /// obvious groups must label them apart in both outputs, and
    /// shuffle the pinned traffic.
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
                      >b1\nGGTTCCAAGGTTCCAAGGTT\n>b2\nGGTTCCAAGGTTCCAAGGTT\n\
                      >c1\nTTTTAAAACCCCGGGGTTTT\n";
        dfs.put("/in.fa", Bytes::from_static(fasta), false).unwrap();

        let params = script_params("5", "32", "0.9");
        let script = parse_script(algorithm3_script(), &params).unwrap();
        let runner = PigRunner::new(std::sync::Arc::clone(&dfs), registry());
        let report = runner.run(&script).unwrap();
        assert_eq!(report.stored, vec!["/out/hier", "/out/greedy"]);

        for path in ["/out/hier", "/out/greedy"] {
            let text = String::from_utf8(dfs.read(path).unwrap().to_vec()).unwrap();
            // Rows like "(a1,0)"; a-reads share a label, b-reads share
            // a different one, c1 is alone.
            let mut label_of = HashMap::new();
            for line in text.lines() {
                let inner = line.trim_start_matches('(').trim_end_matches(')');
                let (id, label) = inner.split_once(',').expect("two fields");
                label_of.insert(id.to_string(), label.to_string());
            }
            assert_eq!(label_of.len(), 5, "{path}: {text}");
            assert_eq!(label_of["a1"], label_of["a2"], "{path}");
            assert_eq!(label_of["b1"], label_of["b2"], "{path}");
            assert_ne!(label_of["a1"], label_of["b1"], "{path}");
            assert_ne!(label_of["c1"], label_of["a1"], "{path}");
            assert_ne!(label_of["c1"], label_of["b1"], "{path}");
        }
        // (pairs, bytes, runs) of GROUP C BY seqid2, GROUP E ALL and
        // GROUP J ALL.
        let shuffles: Vec<(u64, u64, u64)> = report
            .pipeline
            .stages()
            .iter()
            .filter(|s| s.shuffled_pairs > 0)
            .map(|s| (s.shuffled_pairs, s.shuffled_bytes, s.shuffle_runs))
            .collect();
        assert_eq!(shuffles, [(80, 1776, 12), (5, 1570, 5), (5, 255, 5)]);
    }

    /// A relation row `(sketch, seqid)` as `CalculateMinwiseHash` emits it.
    fn sketch_row(vals: &[i64], id: &str) -> Value {
        Value::tuple([
            Value::bag(vals.iter().map(|&v| Value::Long(v)).collect::<Vec<_>>()),
            Value::CharArray(id.into()),
        ])
    }

    /// `J` over relation `E`: every row of `rows[span]` against the
    /// relation `all`, bound as the constant `I.E`.
    fn pairwise(
        rows: &[Value],
        all: &[Value],
        span: std::ops::Range<usize>,
    ) -> Result<BatchOut, UdfError> {
        pairwise_with(rows, &Value::bag(all.to_vec()), span)
    }

    /// [`pairwise`] against the constant `all`.
    fn pairwise_with(
        rows: &[Value],
        all: &Value,
        span: std::ops::Range<usize>,
    ) -> Result<BatchOut, UdfError> {
        let field = |j: usize| {
            Column::from_values(
                rows.iter()
                    .map(|r| r.as_tuple().unwrap()[j].clone())
                    .collect(),
            )
        };
        let (sketches, ids) = (field(0), field(1));
        let (start, len) = (span.start, span.len());
        let j = bind("CalculatePairwiseSimilarity", &[None, None, Some(all)])?;
        j.eval(
            &[window(&sketches, start, len), window(&ids, start, len)],
            len,
        )
    }

    /// A bag of agreement counts, as `J` emits a `simrow`.
    fn counts(cs: &[i32]) -> Value {
        Value::bag(cs.iter().map(|&c| Value::Int(c)).collect::<Vec<_>>())
    }

    /// [`pairwise`] through the kernel, each row held to the
    /// [`agreements`] of its sketch with every relation row,
    /// its own included, in ascending seqid order.
    fn check_pairwise(
        rows: &[Value],
        all: &[Value],
        span: std::ops::Range<usize>,
        what: &str,
    ) -> ColumnBatch {
        let out = match pairwise(rows, all, span.clone()) {
            Ok(BatchOut::Tup(b)) => b,
            other => panic!("{what}: {other:?}"),
        };
        assert!(!has_dyn(&out), "{what}: output holds a Dyn column");
        let decode = |row: &Value| {
            let t = row.as_tuple().unwrap();
            (t[1].clone(), sketch_of("test", &t[0]).unwrap())
        };
        let mut all: Vec<_> = all.iter().map(decode).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, row) in rows[span].iter().enumerate() {
            let (id, me) = decode(row);
            let want: Vec<i32> = all.iter().map(|(_, s)| agreements(&me, s) as i32).collect();
            assert_eq!(out.value_at(i, 0), id, "{what}");
            assert_eq!(out.value_at(i, 1), counts(&want), "{what}, row {i}");
        }
        out
    }

    /// `J` is the [`agreements`] count of each pair on the
    /// Algorithm-3 shape and its corners: a window that is not the
    /// column's start, a relation not in seqid order, one read, an
    /// empty relation (also bound as null, the scalar reference to a
    /// relation of no row) and values past `u32::MAX`. A seqid twice
    /// in the relation is an error.
    #[test]
    fn pairwise_similarity_kernel_counts_agreements() {
        // -1 is the `u64::MAX` empty-slot sentinel: agreeing on it
        // must not count as agreement.
        let e = vec![
            sketch_row(&[1, 2, -1, 4], "r1"),
            sketch_row(&[1, 2, -1, 9], "r2"),
            sketch_row(&[7, 2, 3, 4], "r3"),
            sketch_row(&[-1, -1, -1, -1], "r4"),
        ];
        let out = check_pairwise(&e, &e, 0..4, "algorithm-3 shape");
        assert_eq!(out.value_at(0, 1), counts(&[3, 2, 2, 0]));
        check_pairwise(&e, &e, 1..3, "mid-column window");
        let reversed: Vec<Value> = e.iter().rev().cloned().collect();
        check_pairwise(&e, &reversed, 0..4, "relation in reverse seqid order");
        let one = vec![sketch_row(&[5, 6], "only")];
        let out = check_pairwise(&one, &one, 0..1, "one read");
        assert_eq!(out.value_at(0, 1), counts(&[2]));
        let empty = check_pairwise(&e, &[], 0..3, "empty relation");
        let BatchOut::Tup(null) = pairwise_with(&e, &Value::Null, 0..3).unwrap() else {
            panic!("J returns tuples")
        };
        assert_eq!(null.to_rows(), empty.to_rows(), "null relation");
        let wide = vec![
            sketch_row(&[1 << 40, 2, 3], "w1"),
            sketch_row(&[1 << 40, 2, -1], "w2"),
        ];
        check_pairwise(&wide, &wide, 0..2, "values past u32::MAX");
        let dup = vec![
            sketch_row(&[1, 2], "b"),
            sketch_row(&[1, 3], "a"),
            sketch_row(&[1, 2], "b"),
        ];
        let err = pairwise(&dup[..1], &dup, 0..1).unwrap_err();
        assert!(
            err.message.contains("seqid b is twice in the relation"),
            "{err}"
        );
    }

    /// `J` binds `I.E` ranked once and ranks only each chunk's own
    /// rows: a twin of a relation row that is not in it, a row of values
    /// no relation row holds, new values beside holes, a mostly empty
    /// and a degenerate row each count as [`agreements`] against every
    /// relation row, and one bound kernel answers the same rows over one
    /// map task's window as over three. A chunk row of another width is
    /// refused naming it.
    #[test]
    fn pairwise_ranks_chunk_rows_against_the_bound_relation() {
        let relation = vec![
            sketch_row(&[1, 2, 3, 4], "a"),
            sketch_row(&[1, -1, 3, 5], "b"),
            sketch_row(&[-1, -1, -1, -1], "c"),
            sketch_row(&[6, 2, 7, 4], "d"),
        ];
        let chunk = vec![
            relation[1].clone(),
            sketch_row(&[1, 2, 3, 4], "twin of a"),
            sketch_row(&[8, 9, 10, 11], "no value of I.E"),
            sketch_row(&[8, 2, -1, 4], "new values beside a hole"),
            sketch_row(&[-1, 2, -1, -1], "mostly empty"),
            sketch_row(&[-1, -1, -1, -1], "degenerate"),
            sketch_row(&[1 << 40, 2, 3, 5], "past u32::MAX"),
        ];
        let n = chunk.len();
        let out = check_pairwise(&chunk, &relation, 0..n, "one window");
        assert_eq!(out.value_at(2, 1), counts(&[0, 0, 0, 0]));
        assert_eq!(out.value_at(5, 1), counts(&[0, 0, 4, 0]));
        let field = |j: usize| {
            let values = chunk.iter().map(|r| r.as_tuple().unwrap()[j].clone());
            Column::from_values(values.collect())
        };
        let (sketches, ids) = (field(0), field(1));
        let all = Value::bag(relation.clone());
        let j = bind("CalculatePairwiseSimilarity", &[None, None, Some(&all)]).unwrap();
        // The rows of one bound kernel over the windows between `cuts`.
        let rows_of = |cuts: &[usize]| -> Vec<Value> {
            let windows = cuts.windows(2).map(|cut| {
                let (start, len) = (cut[0], cut[1] - cut[0]);
                let cols = [window(&sketches, start, len), window(&ids, start, len)];
                match j.eval(&cols, len) {
                    Ok(BatchOut::Tup(b)) => b.to_rows(),
                    other => panic!("{cut:?}: {other:?}"),
                }
            });
            windows.flatten().collect()
        };
        assert_eq!(rows_of(&[0, n]), out.to_rows());
        assert_eq!(rows_of(&[0, 3, 5, n]), out.to_rows());
        for (row, width) in [(&[1, 2, 3][..], 3), (&[1, 2, 3, 4, 5][..], 5)] {
            let ragged = vec![chunk[0].clone(), sketch_row(row, "odd")];
            let err = pairwise(&ragged, &relation, 0..2).unwrap_err();
            let want = format!("sketch of odd has {width} positions, expected 4");
            assert!(err.message.contains(&want), "{err}");
        }
    }

    /// Two reads with no k-mer have identical (all-empty) sketches:
    /// count = width, as [`agreements`] counts them; against a real
    /// sketch they share nothing.
    #[test]
    fn degenerate_sketches_are_identical() {
        let e = vec![
            sketch_row(&[-1, -1, -1], "short1"),
            sketch_row(&[-1, -1, -1], "short2"),
            sketch_row(&[4, 5, 6], "long"),
        ];
        let out = check_pairwise(&e, &e, 0..3, "degenerate pair");
        assert_eq!(out.value_at(0, 1), counts(&[0, 3, 3]));
        assert_eq!(out.value_at(1, 1), counts(&[0, 3, 3]));
    }

    /// Sketches of unequal width cannot be compared: `J` refuses them
    /// with an error naming the row, in the relation or the chunk, as
    /// `L` refuses a sketch whose width is not `$NUMHASH`.
    #[test]
    fn ragged_sketch_widths_are_an_error_naming_the_row() {
        let e = vec![
            sketch_row(&[1, 2, 3], "a"),
            sketch_row(&[1, 2], "b"),
            sketch_row(&[1, 2, 3], "c"),
        ];
        let err = pairwise(&e[..1], &e, 0..1).unwrap_err();
        assert!(
            err.message
                .contains("sketch of b has 2 positions, expected 3"),
            "{err}"
        );
        let err = pairwise(&e[1..], &e[..1], 0..2).unwrap_err();
        assert!(
            err.message
                .contains("sketch of b has 2 positions, expected 3"),
            "{err}"
        );

        let greedy = |rows: Vec<Value>, numhash: i64| {
            let knobs = [Value::Long(numhash), Value::Double(0.9)];
            one_row("GreedyClustering", &[Value::bag(rows)], &knobs)
        };
        let err = greedy(vec![e[0].clone(), e[2].clone()], 4).unwrap_err();
        assert!(
            err.message
                .contains("sketch of a has 3 positions, expected 4"),
            "{err}"
        );
        assert!(greedy(vec![e[0].clone(), e[2].clone()], 3).is_ok());
        let err = greedy(e.clone(), 3).unwrap_err();
        assert!(err.message.contains("sketch of b"), "{err}");
    }

    /// `II = GROUP J ALL` over `J`'s rows taken in `order`: one row
    /// whose bag is the whole count relation.
    fn grouped(j: &ColumnBatch, order: &[u32]) -> Column {
        let rows = j.gather(order);
        Column::Bag(BagCol::new(vec![0, order.len() as u32], rows, true, None))
    }

    /// `K(relations, link, width, θ)`'s label bag of each row.
    fn hierarchical(relations: &Column, link: &str, width: usize, theta: f64) -> ColumnBatch {
        let rows = relations.len();
        let (link_arg, numhash, cutoff) = (
            Value::CharArray(link.into()),
            Value::Long(width as i64),
            Value::Double(theta),
        );
        let args = [None, Some(&link_arg), Some(&numhash), Some(&cutoff)];
        let k = bind("AgglomerativeHierarchicalClustering", &args).unwrap();
        kernel_out(&*k, &[column(relations)], rows, "K")
    }

    /// `n` reads over `ACGT`: three random ones of 30 to 40 bases, then
    /// exact copies (one in four) and variants of one to three
    /// substitutions of earlier reads, ids `r000..` in read order.
    fn planted_reads(seed: u64, n: usize) -> Vec<mrmc_seqio::SeqRecord> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut seqs: Vec<Vec<u8>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut seq: Vec<u8> = if i < 3 {
                let len = rng.random_range(30..40);
                (0..len)
                    .map(|_| b"ACGT"[rng.random_range(0..4usize)])
                    .collect()
            } else {
                seqs[rng.random_range(0..i)].clone()
            };
            if i >= 3 && rng.random_range(0..4) > 0 {
                for _ in 0..rng.random_range(1..=3) {
                    let at = rng.random_range(0..seq.len());
                    seq[at] = b"ACGT"[rng.random_range(0..4usize)];
                }
            }
            seqs.push(seq);
        }
        seqs.into_iter()
            .enumerate()
            .map(|(i, seq)| mrmc_seqio::SeqRecord::new(format!("r{i:03}"), seq))
            .collect()
    }

    /// `K` over `J`'s relation is the native dense route: the reads
    /// dereplicated, their distinct sketches counted by
    /// `pair_counts_stage` and linked by `agglomerative_grouped` — the
    /// same labels for single, average and complete linkage, at θ on
    /// and between count steps.
    #[test]
    fn hierarchical_kernel_is_the_native_dense_route() {
        use crate::stages::{dereplicate, pair_counts_stage, sketch_distinct_stage};
        use mrmc_mapreduce::pipeline::Pipeline;
        let (k, width) = (5, 16);
        for seed in [1, 2, 3] {
            let reads = planted_reads(seed, 40);
            let config = MrMcConfig {
                kmer: k,
                num_hashes: width,
                seed: 1_048_583,
                map_tasks: 3,
                ..MrMcConfig::default()
            };
            let hasher = config.hasher();
            let e: Vec<Value> = reads
                .iter()
                .map(|r| {
                    let sketch = hasher.sketch_sequence(&r.seq).unwrap();
                    let vals: Vec<i64> = sketch.values().iter().map(|&v| v as i64).collect();
                    sketch_row(&vals, &r.id)
                })
                .collect();
            let j = check_pairwise(&e, &e, 0..e.len(), "J for K");
            let order: Vec<u32> = (0..e.len() as u32).collect();
            let relation = grouped(&j, &order);
            let mut pipeline = Pipeline::new("t");
            let derep = dereplicate(&reads).unwrap();
            let distinct = sketch_distinct_stage(&reads, &derep, &config, &mut pipeline).unwrap();
            let native = pair_counts_stage(distinct, &config, &mut pipeline).unwrap();
            for link in ["single", "average", "complete"] {
                for theta in [0.5, 0.6, 0.75] {
                    let linkage: Linkage = link.parse().unwrap();
                    let (want, _) = agglomerative_grouped(&native, &derep, linkage, theta).unwrap();
                    let out = hierarchical(&relation, link, width, theta);
                    let want: Vec<Value> = reads
                        .iter()
                        .zip(want.labels())
                        .map(|(r, &label)| {
                            Value::tuple([Value::CharArray(r.id.clone()), Value::Int(label as i32)])
                        })
                        .collect();
                    let what = format!("seed {seed}, {link}, θ = {theta}");
                    assert_eq!(out.value_at(0, 0), Value::bag(want), "{what}");
                }
            }
        }
    }

    /// `J`'s rows and `K`'s labels depend on the read set by id, not on
    /// the engine's row order: the same under a shuffled `I.E` and a
    /// shuffled `II`, and the same stored bytes at 1 and 3 map tasks.
    #[test]
    fn pairwise_rows_and_labels_ignore_row_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, rng.random_range(0..=i));
            }
        }
        let reads = planted_reads(4, 30);
        let hasher = MrMcConfig {
            kmer: 5,
            num_hashes: 16,
            ..MrMcConfig::default()
        }
        .hasher();
        let e: Vec<Value> = reads
            .iter()
            .map(|r| {
                let sketch = hasher.sketch_sequence(&r.seq).unwrap();
                let vals: Vec<i64> = sketch.values().iter().map(|&v| v as i64).collect();
                sketch_row(&vals, &r.id)
            })
            .collect();
        let j = check_pairwise(&e, &e, 0..e.len(), "J");
        let mut order: Vec<u32> = (0..e.len() as u32).collect();
        let labels = hierarchical(&grouped(&j, &order), "average", 16, 0.6).to_rows();
        for _ in 0..4 {
            let mut shuffled = e.clone();
            shuffle(&mut rng, &mut shuffled);
            let rows = check_pairwise(&e, &shuffled, 0..e.len(), "J, shuffled I.E");
            assert_eq!(rows.to_rows(), j.to_rows(), "J, shuffled I.E");
            shuffle(&mut rng, &mut order);
            let shuffled = hierarchical(&grouped(&j, &order), "average", 16, 0.6);
            assert_eq!(shuffled.to_rows(), labels, "K, shuffled II");
        }

        let dfs = std::sync::Arc::new(
            Dfs::new(DfsConfig {
                block_size: 4096,
                replication: 1,
                nodes: 2,
            })
            .unwrap(),
        );
        let mut fasta = Vec::new();
        mrmc_seqio::fasta::write_fasta(&mut fasta, &reads, 0).unwrap();
        dfs.put("/in.fa", Bytes::from(fasta), false).unwrap();
        let params = script_params("5", "16", "0.6");
        let text = format!("{}STORE J INTO '/out/j';\n", algorithm3_script());
        let script = parse_script(&text, &params).unwrap();
        let stored = |tasks: usize| {
            let mut runner = PigRunner::new(std::sync::Arc::clone(&dfs), registry());
            runner.num_map_tasks = tasks;
            runner.run(&script).unwrap();
            ["/out/j", "/out/hier"].map(|path| dfs.read(path).unwrap())
        };
        assert_eq!(stored(1), stored(3));
    }
}
