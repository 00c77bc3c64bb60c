//! The Pig executor: lowers statements onto Map-Reduce jobs.
//!
//! * `LOAD` reads a DFS file and runs the loader UDF;
//! * `FOREACH ... GENERATE` becomes a **map-only job** — each input
//!   tuple is transformed in parallel ("the keyword FOREACH ensures
//!   that every operation is performed parallel on each sequence",
//!   paper §III-C1);
//! * `GROUP x ALL` / `GROUP x BY f` becomes a full **map + shuffle +
//!   reduce job** producing `(group, bag)` tuples;
//! * `STORE` serializes a relation back to the DFS.
//!
//! There is one execution plane. A relation is a [`ColumnBatch`];
//! operators evaluate on column windows through
//! [`crate::udf::Udf::eval_batch`], `FLATTEN` expands with gather vectors,
//! and `GROUP` shuffles 4-byte **row indices** instead of cloned row
//! trees — the grouped runs come back through
//! [`Pipeline::run_group_stage`] and one columnar gather builds the
//! result bags. Boxed [`Value`] rows exist only at the edges: what a
//! loader returns, what `STORE` prints, shuffle keys, and the chunks
//! the vectorizer cannot keep aligned (mixed-type flatten inputs,
//! ragged bag-element tuples), which `expand_row` expands row by
//! row. The semantics are pinned from outside the crate: an
//! engine-free reference interpreter in `tests/columnar.rs` must
//! agree with this executor on stored bytes and shuffle accounting
//! over randomized scripts.
//!
//! Every stage's task statistics are recorded in a
//! [`mrmc_mapreduce::Pipeline`], so a whole script run can afterwards
//! be re-scheduled onto a virtual N-node cluster. Attach a tracer
//! ([`PigRunner::traced`]) and each operator additionally records a
//! `Category::Pig` span wrapping its engine spans, which lets
//! critical-path analysis attribute scripted-run time to the
//! LOAD/FOREACH/GROUP/STORE statements.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mrmc_mapreduce::dfs::Dfs;
use mrmc_mapreduce::engine::chunk_ranges;
use mrmc_mapreduce::job::{JobConfig, Mapper, TaskContext};
use mrmc_mapreduce::obs::{Category, SpanDraft, SpanId, Tracer};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::MrError;

use crate::batch::{BagCol, Column, ColumnBatch};
use crate::parser::{Expr, GenItem, GroupBy, Operator, Script, Statement};
use crate::udf::{BatchArg, BatchOut, Udf, UdfError, UdfRegistry};
use crate::value::Value;

/// Executor failure.
#[derive(Debug)]
pub enum PigError {
    /// Referenced relation was never defined.
    UnknownRelation(String),
    /// Referenced field not in the relation's schema.
    UnknownField {
        /// Relation searched.
        relation: String,
        /// Missing field.
        field: String,
    },
    /// UDF not registered.
    UnknownUdf(String),
    /// UDF evaluation failed.
    Udf(UdfError),
    /// A scalar cross-relation reference (`I.F`) hit a relation that
    /// does not have exactly one row.
    NotScalar {
        /// Relation referenced.
        relation: String,
        /// Its row count.
        rows: usize,
    },
    /// Underlying Map-Reduce error.
    Mr(MrError),
}

impl fmt::Display for PigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PigError::UnknownRelation(a) => write!(f, "unknown relation {a}"),
            PigError::UnknownField { relation, field } => {
                write!(f, "relation {relation} has no field {field}")
            }
            PigError::UnknownUdf(n) => write!(f, "unknown UDF {n}"),
            PigError::Udf(e) => write!(f, "{e}"),
            PigError::NotScalar { relation, rows } => write!(
                f,
                "scalar reference to {relation} requires exactly 1 row, found {rows}"
            ),
            PigError::Mr(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for PigError {}
impl From<MrError> for PigError {
    fn from(e: MrError) -> Self {
        PigError::Mr(e)
    }
}
impl From<UdfError> for PigError {
    fn from(e: UdfError) -> Self {
        PigError::Udf(e)
    }
}

/// A materialized relation: a shared columnar batch plus field
/// names.
#[derive(Debug, Clone)]
struct Relation {
    batch: Arc<ColumnBatch>,
    schema: Vec<String>,
}

impl Relation {
    fn new(batch: ColumnBatch, schema: Vec<String>) -> Relation {
        Relation {
            batch: Arc::new(batch),
            schema,
        }
    }

    /// Columnarize boxed tuple rows (what a loader or a reducer hands
    /// back).
    fn from_rows(rows: &[Value], schema: Vec<String>) -> Relation {
        let batch = ColumnBatch::from_rows(rows).expect("relation rows are tuples");
        Relation::new(batch, schema)
    }
}

/// Result of running a script.
#[derive(Debug)]
pub struct RunReport {
    /// Paths written by `STORE`, in order.
    pub stored: Vec<String>,
    /// The Map-Reduce pipeline with per-stage task statistics.
    pub pipeline: Pipeline,
}

// ------------------------------------------------- boxed rows at the edges

/// Expand one row's evaluated items into output rows — the single
/// definition of FOREACH/FLATTEN semantics. Bags under FLATTEN
/// multiply rows (cross product, later items varying fastest);
/// flattened tuples append their fields; everything else appends one
/// field. Only chunks the gather assembly cannot keep aligned come
/// here, with pre-evaluated item values.
fn expand_row(evaled: Vec<(bool, Value)>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for (flatten, v) in evaled {
        match (flatten, v) {
            (true, Value::Bag(elems)) => {
                let mut next = Vec::with_capacity(rows.len() * elems.len().max(1));
                for base in &rows {
                    for e in &elems {
                        let mut r = base.clone();
                        match e {
                            Value::Tuple(fields) => r.extend(fields.iter().cloned()),
                            other => r.push(other.clone()),
                        }
                        next.push(r);
                    }
                }
                rows = next;
            }
            (true, Value::Tuple(fields)) => {
                for r in &mut rows {
                    r.extend(fields.iter().cloned());
                }
            }
            (_, v) => {
                for r in &mut rows {
                    r.push(v.clone());
                }
            }
        }
    }
    rows
}

// ------------------------------------------------------- columnar plane

/// Expression resolved against the batch ABI.
#[derive(Clone)]
enum BExpr {
    Field(usize),
    Const(Value),
    Udf { udf: Arc<dyn Udf>, args: Vec<BExpr> },
}

/// Resolved generate item.
#[derive(Clone)]
struct BGenItem {
    expr: BExpr,
    flatten: bool,
}

/// One evaluated item over a chunk window.
enum ItemCol<'a> {
    /// Borrowed window `start..start + len` of an input column.
    Ref(&'a Column),
    /// Chunk-local owned column (`len` rows).
    Owned(Column),
    /// Chunk-local tuple-per-row output (`len` rows).
    Tup(ColumnBatch),
    /// One value broadcast to every row; a constant stays borrowed.
    Scalar(Cow<'a, Value>),
}

impl ItemCol<'_> {
    /// The value this item takes at chunk-local row `i`.
    fn value_at(&self, start: usize, i: usize) -> Value {
        match self {
            ItemCol::Ref(c) => c.value_at(start + i),
            ItemCol::Owned(c) => c.value_at(i),
            ItemCol::Tup(b) => b.row_value(i),
            ItemCol::Scalar(v) => v.as_ref().clone(),
        }
    }
}

/// Evaluate a batch expression over rows `start..start + len`.
fn eval_bexpr<'a>(
    batch: &'a ColumnBatch,
    start: usize,
    len: usize,
    expr: &'a BExpr,
) -> Result<ItemCol<'a>, UdfError> {
    Ok(match expr {
        BExpr::Field(i) if *i < batch.num_cols() => ItemCol::Ref(batch.col(*i)),
        BExpr::Field(_) => ItemCol::Scalar(Cow::Owned(Value::Null)),
        BExpr::Const(v) => ItemCol::Scalar(Cow::Borrowed(v)),
        BExpr::Udf { udf, args } => {
            let children: Vec<ItemCol<'a>> = args
                .iter()
                .map(|a| {
                    eval_bexpr(batch, start, len, a).map(|c| match c {
                        // Tuple-valued arguments materialize (no UDF
                        // in the suite takes tuple columns; keep the
                        // corner correct, not fast).
                        ItemCol::Tup(b) => {
                            ItemCol::Owned(Column::Dyn((0..len).map(|i| b.row_value(i)).collect()))
                        }
                        other => other,
                    })
                })
                .collect::<Result<_, UdfError>>()?;
            let call_args: Vec<BatchArg<'_>> = children
                .iter()
                .map(|c| match c {
                    ItemCol::Ref(col) => BatchArg::Column { col, start, len },
                    ItemCol::Owned(col) => BatchArg::Column { col, start: 0, len },
                    ItemCol::Scalar(v) => BatchArg::Scalar { value: v, len },
                    ItemCol::Tup(_) => unreachable!("materialized above"),
                })
                .collect();
            let (got, out) = match udf.eval_batch(&call_args, len)? {
                BatchOut::Col(c) => (c.len(), ItemCol::Owned(c)),
                BatchOut::Rows(v) => (v.len(), ItemCol::Owned(Column::from_values(v))),
                BatchOut::Tup(b) => (b.rows(), ItemCol::Tup(b)),
            };
            // An override owes one value per row; a short column would
            // panic in the gather, a long one drop rows silently.
            if got != len {
                return Err(UdfError::new(
                    udf.name(),
                    format!("eval_batch returned {got} rows for {len} input rows"),
                ));
            }
            out
        }
    })
}

/// How one evaluated item feeds the vectorized output assembly.
enum ItemPlan<'a> {
    /// Appends one column, replicated by the input-row gather.
    Plain(ItemCol<'a>),
    /// Flattened bag: multiplies rows; appends the bag's element
    /// fields. `global` marks offsets indexed by batch-global rows
    /// (borrowed input column) vs chunk-local rows (computed column).
    FlatBag { bag: &'a BagCol, global: bool },
    /// Owned flattened bag (same, but the column lives in this
    /// chunk's eval results).
    FlatBagOwned { col_idx: usize },
    /// Flattened uniform tuple column: appends its columns.
    FlatTup { col_idx: usize },
    /// Flattened constant tuple: appends one constant per field.
    FlatConstTuple(Vec<Value>),
}

/// Vectorized FOREACH over one chunk. Returns `None` when the chunk
/// needs the row-at-a-time fallback (the caller then uses
/// [`expand_row`] per row).
#[allow(clippy::too_many_lines)]
fn foreach_chunk_fast(
    start: usize,
    len: usize,
    evaled: &[ItemCol<'_>],
    items: &[BGenItem],
) -> Option<ColumnBatch> {
    // Classify items; bail to the slow path on anything the gather
    // assembly cannot keep aligned.
    let window_valid = |b: &BagCol, global: bool| -> bool {
        let (s, l) = if global { (start, len) } else { (0, len) };
        b.validity
            .as_ref()
            .is_none_or(|v| (s..s + l).all(|i| v.get(i)))
    };
    let bag_uniform = |b: &BagCol| -> bool { !b.tuple_elems || b.elems.widths().is_none() };
    let mut plans: Vec<ItemPlan<'_>> = Vec::with_capacity(items.len());
    for (idx, (item, col)) in items.iter().zip(evaled).enumerate() {
        if !item.flatten {
            match col {
                ItemCol::Tup(_) => return None,
                other => plans.push(ItemPlan::Plain(copy_item_ref(other))),
            }
            continue;
        }
        match col {
            ItemCol::Ref(Column::Bag(b)) => {
                if !window_valid(b, true) || !bag_uniform(b) {
                    return None;
                }
                plans.push(ItemPlan::FlatBag {
                    bag: b,
                    global: true,
                });
            }
            ItemCol::Owned(Column::Bag(b)) => {
                if !window_valid(b, false) || !bag_uniform(b) {
                    return None;
                }
                plans.push(ItemPlan::FlatBagOwned { col_idx: idx });
            }
            // Dynamic columns may hide bags or tuples per row.
            ItemCol::Ref(Column::Dyn(_)) | ItemCol::Owned(Column::Dyn(_)) => return None,
            // Typed non-bag columns: FLATTEN of a non-bag non-tuple
            // value appends the value itself — plain semantics.
            ItemCol::Ref(_) | ItemCol::Owned(_) => plans.push(ItemPlan::Plain(copy_item_ref(col))),
            ItemCol::Tup(b) => {
                if b.widths().is_some() {
                    return None;
                }
                plans.push(ItemPlan::FlatTup { col_idx: idx });
            }
            ItemCol::Scalar(v) => match v.as_ref() {
                Value::Tuple(fields) => plans.push(ItemPlan::FlatConstTuple(fields.clone())),
                Value::Bag(_) => return None,
                _ => plans.push(ItemPlan::Plain(copy_item_ref(col))),
            },
        }
    }

    // Build the gather vectors: one pass over input rows, odometer
    // over the flatten bags (later items vary fastest, matching
    // `expand_row`'s sequential expansion).
    struct FlatRef<'b> {
        bag: &'b BagCol,
        global: bool,
        take: Vec<u32>,
    }
    let mut flats: Vec<FlatRef<'_>> = Vec::new();
    for plan in &plans {
        match plan {
            ItemPlan::FlatBag { bag, global } => flats.push(FlatRef {
                bag,
                global: *global,
                take: Vec::new(),
            }),
            ItemPlan::FlatBagOwned { col_idx } => {
                let ItemCol::Owned(Column::Bag(b)) = &evaled[*col_idx] else {
                    unreachable!()
                };
                flats.push(FlatRef {
                    bag: b,
                    global: false,
                    take: Vec::new(),
                });
            }
            _ => {}
        }
    }
    let k = flats.len();
    let mut take_in: Vec<u32> = Vec::with_capacity(len);
    let mut counts = vec![0usize; k];
    let mut odo = vec![0usize; k];
    for i in 0..len {
        let mut total = 1usize;
        for (f, fr) in flats.iter().enumerate() {
            let row = if fr.global { start + i } else { i };
            counts[f] = fr.bag.bag_len(row);
            total *= counts[f];
        }
        if total == 0 {
            continue;
        }
        odo.iter_mut().for_each(|x| *x = 0);
        for _ in 0..total {
            take_in.push(i as u32);
            for (f, fr) in flats.iter_mut().enumerate() {
                let row = if fr.global { start + i } else { i };
                fr.take.push(fr.bag.offsets[row] + odo[f] as u32);
            }
            // Increment odometer, last item fastest.
            for f in (0..k).rev() {
                odo[f] += 1;
                if odo[f] < counts[f] {
                    break;
                }
                odo[f] = 0;
            }
        }
    }
    let out_rows = take_in.len();
    let take_global: Vec<u32> = take_in.iter().map(|&i| i + start as u32).collect();

    // Assemble output columns in item order.
    let mut out_cols: Vec<Column> = Vec::new();
    let mut flat_cursor = 0usize;
    for plan in &plans {
        match plan {
            ItemPlan::Plain(ItemCol::Ref(c)) => out_cols.push(c.gather(&take_global)),
            ItemPlan::Plain(ItemCol::Owned(c)) => out_cols.push(c.gather(&take_in)),
            ItemPlan::Plain(ItemCol::Scalar(v)) => {
                out_cols.push(Column::from_values(vec![v.as_ref().clone(); out_rows]))
            }
            ItemPlan::Plain(ItemCol::Tup(_)) => unreachable!("rejected above"),
            ItemPlan::FlatBag { .. } | ItemPlan::FlatBagOwned { .. } => {
                let fr = &flats[flat_cursor];
                flat_cursor += 1;
                let child = fr.bag.elems.gather(&fr.take);
                if fr.bag.tuple_elems {
                    out_cols.extend(child.into_cols());
                } else {
                    out_cols.extend(child.into_cols().into_iter().take(1));
                }
            }
            ItemPlan::FlatTup { col_idx } => {
                let ItemCol::Tup(b) = &evaled[*col_idx] else {
                    unreachable!()
                };
                for c in b.cols() {
                    out_cols.push(c.gather(&take_in));
                }
            }
            ItemPlan::FlatConstTuple(fields) => {
                for f in fields {
                    out_cols.push(Column::from_values(vec![f.clone(); out_rows]));
                }
            }
        }
    }
    Some(ColumnBatch::from_cols(out_cols, out_rows))
}

/// Re-borrow an evaluated item for plan storage (cheap: `Ref` and a
/// constant `Scalar` stay borrowed, `Owned` values are plan-local anyway).
fn copy_item_ref<'a>(col: &ItemCol<'a>) -> ItemCol<'a> {
    match col {
        ItemCol::Ref(c) => ItemCol::Ref(c),
        ItemCol::Owned(c) => ItemCol::Owned(c.clone()),
        ItemCol::Tup(b) => ItemCol::Tup(b.clone()),
        ItemCol::Scalar(v) => ItemCol::Scalar(v.clone()),
    }
}

/// Full FOREACH over one chunk: fast vectorized assembly when
/// possible, else the row-expansion fallback.
fn foreach_chunk(
    batch: &ColumnBatch,
    start: usize,
    len: usize,
    items: &[BGenItem],
) -> Result<ColumnBatch, UdfError> {
    if len == 0 {
        // A UDF is never invoked for zero rows.
        return Ok(ColumnBatch::from_rows(&[]).expect("empty batch"));
    }
    let evaled: Vec<ItemCol<'_>> = items
        .iter()
        .map(|it| eval_bexpr(batch, start, len, &it.expr))
        .collect::<Result<_, UdfError>>()?;
    if let Some(out) = foreach_chunk_fast(start, len, &evaled, items) {
        return Ok(out);
    }
    // Slow path: per-row expansion, reusing the already-evaluated
    // item values.
    let mut rows: Vec<Value> = Vec::with_capacity(len);
    for i in 0..len {
        let evaled_row: Vec<(bool, Value)> = items
            .iter()
            .zip(&evaled)
            .map(|(it, col)| (it.flatten, col.value_at(start, i)))
            .collect();
        for r in expand_row(evaled_row) {
            rows.push(Value::Tuple(r));
        }
    }
    Ok(ColumnBatch::from_rows(&rows).expect("tuple rows"))
}

/// The map task for `FOREACH`: one chunk of rows per call.
struct BatchForeachMapper {
    batch: Arc<ColumnBatch>,
    items: Vec<BGenItem>,
}

impl Mapper for BatchForeachMapper {
    type InKey = usize;
    type InValue = (u32, u32);
    type OutKey = usize;
    type OutValue = ColumnBatch;

    fn map(&self, key: usize, (start, len): (u32, u32), ctx: &mut TaskContext<usize, ColumnBatch>) {
        match foreach_chunk(&self.batch, start as usize, len as usize, &self.items) {
            Ok(out) => ctx.emit(key, out),
            Err(e) => panic!("{e}"),
        }
    }
}

/// The map side of `GROUP`: shuffles `(key, row index)` — 4-byte
/// values instead of cloned row trees — while charging
/// `shuffled_bytes` for the full row via the wire-size hook, so the
/// accounting is that of shuffling the rows themselves.
struct BatchGroupMapper {
    batch: Arc<ColumnBatch>,
    key_field: Option<usize>,
}

impl Mapper for BatchGroupMapper {
    type InKey = usize;
    type InValue = u32;
    type OutKey = Value;
    type OutValue = u32;

    fn map(&self, _key: usize, row: u32, ctx: &mut TaskContext<Value, u32>) {
        let key = match self.key_field {
            None => Value::CharArray("all".to_string()),
            Some(i) => self.batch.value_at(row as usize, i),
        };
        ctx.emit(key, row);
    }

    fn key_wire_size(&self, key: &Value) -> usize {
        use mrmc_mapreduce::ShuffleSized;
        key.shuffle_size()
    }

    fn value_wire_size(&self, value: &u32) -> usize {
        self.batch.row_shuffle_size(*value as usize)
    }
}

// --------------------------------------------------------------- runner

/// Script executor with a DFS, a UDF registry and job sizing knobs.
pub struct PigRunner {
    dfs: Arc<Dfs>,
    registry: UdfRegistry,
    /// Map tasks per FOREACH/GROUP stage.
    pub num_map_tasks: usize,
    /// Reducers per GROUP stage.
    pub num_reducers: usize,
    /// Worker threads (None = machine parallelism).
    pub workers: Option<usize>,
    tracer: Option<Arc<Tracer>>,
}

impl PigRunner {
    /// New runner over a DFS with a registry.
    pub fn new(dfs: Arc<Dfs>, registry: UdfRegistry) -> PigRunner {
        PigRunner {
            dfs,
            registry,
            num_map_tasks: 8,
            num_reducers: 4,
            workers: None,
            tracer: None,
        }
    }

    /// Attach a trace sink: every engine stage's spans accumulate in
    /// it, and each Pig operator records a wrapping `Category::Pig`
    /// span chained operator-to-operator, so critical-path analysis
    /// can attribute scripted-run time to LOAD/FOREACH/GROUP/STORE.
    pub fn traced(mut self, tracer: Arc<Tracer>) -> PigRunner {
        self.tracer = Some(tracer);
        self
    }

    fn job_config(&self, name: &str) -> JobConfig {
        let mut cfg = JobConfig::named(name).reducers(self.num_reducers);
        if let Some(w) = self.workers {
            cfg = cfg.workers(w);
        }
        cfg
    }

    /// One `(task, (start, len))` window per map task, along the
    /// engine's own chunk boundaries.
    fn chunk_windows(&self, len: usize) -> Vec<(usize, (u32, u32))> {
        chunk_ranges(len, self.num_map_tasks)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i, (r.start as u32, (r.end - r.start) as u32)))
            .collect()
    }

    /// Execute a parsed script against the DFS.
    pub fn run(&self, script: &Script) -> Result<RunReport, PigError> {
        let mut env: HashMap<String, Relation> = HashMap::new();
        let mut pipeline = Pipeline::new("pig-script");
        if let Some(t) = &self.tracer {
            pipeline = pipeline.traced(Arc::clone(t));
        }
        let mut stored = Vec::new();
        let pig_job = self.tracer.as_ref().map(|t| t.begin_job("pig-operators"));
        let mut prev_span: Option<SpanId> = None;

        for stmt in &script.statements {
            let t0 = self.tracer.as_ref().map(|t| t.now_ns()).unwrap_or(0);
            let (span_name, rows_out) = match stmt {
                Statement::Assign { alias, op } => {
                    let rel = match op {
                        Operator::Load {
                            path,
                            loader,
                            schema,
                        } => self.exec_load(path, loader.as_deref(), schema)?,
                        Operator::Foreach { input, items } => {
                            self.exec_foreach(&env, &mut pipeline, alias, input, items)?
                        }
                        Operator::Group { input, by } => {
                            self.exec_group(&env, &mut pipeline, alias, input, by)?
                        }
                    };
                    let name = format!("{}:{alias}", op_kind(op));
                    let rows_out = rel.batch.rows();
                    env.insert(alias.clone(), rel);
                    (name, rows_out)
                }
                Statement::Store { alias, path } => {
                    let rel = env
                        .get(alias)
                        .ok_or_else(|| PigError::UnknownRelation(alias.clone()))?;
                    let mut text = String::new();
                    for i in 0..rel.batch.rows() {
                        text.push_str(&rel.batch.row_value(i).to_string());
                        text.push('\n');
                    }
                    self.dfs.put(path, text.into_bytes(), true)?;
                    stored.push(path.clone());
                    (format!("store:{alias}"), rel.batch.rows())
                }
            };
            if let (Some(t), Some(job)) = (&self.tracer, pig_job) {
                let dur = t.now_ns().saturating_sub(t0);
                let mut draft = SpanDraft::new(job, span_name, Category::Pig)
                    .at(t0, dur)
                    .lane(0)
                    .meta("rows_out", rows_out);
                if let Some(p) = prev_span {
                    draft = draft.dep(p);
                }
                prev_span = Some(t.add_span(draft));
            }
        }
        Ok(RunReport { stored, pipeline })
    }

    /// `LOAD`: run the loader UDF over the file's bytes. Pig's data
    /// model is a bag of tuples, so a loader value that is not a
    /// tuple loads as a 1-field tuple: every relation is columnar and
    /// `STORE` prints such a row as `(v)`.
    fn exec_load(
        &self,
        path: &str,
        loader: Option<&str>,
        schema: &[crate::parser::FieldDecl],
    ) -> Result<Relation, PigError> {
        let loader_name = loader.unwrap_or("TextLoader");
        let udf = self
            .registry
            .get(loader_name)
            .ok_or_else(|| PigError::UnknownUdf(loader_name.to_string()))?;
        // The DFS hands back shared bytes; the loader sees a zero-copy
        // window, not a per-load heap copy.
        let bytes = self.dfs.read(path)?;
        let out = udf.exec(&[Value::ByteArray(bytes)])?;
        let mut rows = match out {
            Value::Bag(rows) => rows,
            other => vec![other],
        };
        for row in &mut rows {
            if row.as_tuple().is_none() {
                *row = Value::tuple([std::mem::replace(row, Value::Null)]);
            }
        }
        let schema_names = if schema.is_empty() {
            default_schema(&rows)
        } else {
            schema.iter().map(|f| f.name.clone()).collect()
        };
        Ok(Relation::from_rows(&rows, schema_names))
    }

    fn exec_foreach(
        &self,
        env: &HashMap<String, Relation>,
        pipeline: &mut Pipeline,
        alias: &str,
        input: &str,
        items: &[GenItem],
    ) -> Result<Relation, PigError> {
        let rel = env
            .get(input)
            .ok_or_else(|| PigError::UnknownRelation(input.to_string()))?;

        // Output schema: declared names where given, else generated.
        let mut schema = Vec::new();
        for (i, it) in items.iter().enumerate() {
            if it.schema.is_empty() {
                // Single unnamed output field per item; FLATTEN of a
                // field keeps its name when it is a plain field ref.
                let name = match &it.expr {
                    Expr::Field(n) => n.clone(),
                    _ => format!("f{i}"),
                };
                schema.push(name);
            } else {
                schema.extend(it.schema.iter().map(|f| f.name.clone()));
            }
        }

        let resolved: Vec<BGenItem> = items
            .iter()
            .map(|it| {
                Ok(BGenItem {
                    expr: self.resolve_batch(env, input, &rel.schema, &it.expr)?,
                    flatten: it.flatten,
                })
            })
            .collect::<Result<_, PigError>>()?;
        let mapper = BatchForeachMapper {
            batch: Arc::clone(&rel.batch),
            items: resolved,
        };
        let out = pipeline.run_map_stage(
            self.chunk_windows(rel.batch.rows()),
            self.num_map_tasks,
            &mapper,
            &self.job_config(&format!("foreach:{alias}")),
        )?;
        let merged = ColumnBatch::concat(out.into_iter().map(|(_, b)| b).collect());
        Ok(Relation::new(merged, schema))
    }

    fn exec_group(
        &self,
        env: &HashMap<String, Relation>,
        pipeline: &mut Pipeline,
        alias: &str,
        input: &str,
        by: &GroupBy,
    ) -> Result<Relation, PigError> {
        let rel = env
            .get(input)
            .ok_or_else(|| PigError::UnknownRelation(input.to_string()))?;
        let key_field = match by {
            GroupBy::All => None,
            GroupBy::Field(name) => Some(field_index(&rel.schema, input, name)?),
        };

        // Shuffle row *indices*; the wire-size hook prices the full
        // row, so `shuffled_bytes` is that of shuffling the rows.
        let input_rows: Vec<(usize, u32)> = (0..rel.batch.rows()).map(|i| (i, i as u32)).collect();
        let mapper = BatchGroupMapper {
            batch: Arc::clone(&rel.batch),
            key_field,
        };
        let mut groups = pipeline.run_group_stage(
            input_rows,
            self.num_map_tasks,
            &mapper,
            &self.job_config(&format!("group:{alias}")),
        )?;
        // Deterministic group order (keys are unique).
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        let mut offsets = Vec::with_capacity(groups.len() + 1);
        offsets.push(0u32);
        let mut elem_idx: Vec<u32> = Vec::with_capacity(rel.batch.rows());
        let mut keys: Vec<Value> = Vec::with_capacity(groups.len());
        for (key, rows) in groups {
            keys.push(key);
            elem_idx.extend(rows);
            offsets.push(elem_idx.len() as u32);
        }
        // One gather materializes every group's member rows into
        // the bag column's child batch — the grouped runs were
        // moved, not cloned, all the way from the reducers.
        let child = rel.batch.gather(&elem_idx);
        let rows = keys.len();
        let key_col = Column::from_values(keys);
        let bag_col = Column::Bag(BagCol::new(offsets, child, true, None));
        Ok(Relation::new(
            ColumnBatch::from_cols(vec![key_col, bag_col], rows),
            // Pig names the bag field after the grouped relation.
            vec!["group".to_string(), input.to_string()],
        ))
    }

    /// Resolve an expression of a statement over `relation` (whose
    /// fields are `schema`) into a [`BExpr`].
    fn resolve_batch(
        &self,
        env: &HashMap<String, Relation>,
        relation: &str,
        schema: &[String],
        expr: &Expr,
    ) -> Result<BExpr, PigError> {
        Ok(match expr {
            Expr::LitLong(v) => BExpr::Const(Value::Long(*v)),
            Expr::LitDouble(v) => BExpr::Const(Value::Double(*v)),
            Expr::LitString(s) => BExpr::Const(Value::CharArray(s.clone())),
            Expr::Field(name) => BExpr::Field(field_index(schema, relation, name)?),
            Expr::Dotted { relation, field } => {
                BExpr::Const(self.resolve_scalar_ref(env, relation, field)?)
            }
            Expr::Udf { name, args } => {
                let udf = self
                    .registry
                    .get(name)
                    .ok_or_else(|| PigError::UnknownUdf(name.clone()))?;
                let args = args
                    .iter()
                    .map(|a| self.resolve_batch(env, relation, schema, a))
                    .collect::<Result<_, PigError>>()?;
                BExpr::Udf { udf, args }
            }
        })
    }

    /// Scalar cross-relation reference (`I.F`): the relation must
    /// have exactly one row (true for `GROUP ... ALL` output).
    fn resolve_scalar_ref(
        &self,
        env: &HashMap<String, Relation>,
        relation: &str,
        field: &str,
    ) -> Result<Value, PigError> {
        let rel = env
            .get(relation)
            .ok_or_else(|| PigError::UnknownRelation(relation.to_string()))?;
        if rel.batch.rows() != 1 {
            return Err(PigError::NotScalar {
                relation: relation.to_string(),
                rows: rel.batch.rows(),
            });
        }
        let idx = field_index(&rel.schema, relation, field)?;
        // Only the referenced field is materialized, not the whole row.
        Ok(rel.batch.value_at(0, idx))
    }
}

/// Operator kind label for span names.
fn op_kind(op: &Operator) -> &'static str {
    match op {
        Operator::Load { .. } => "load",
        Operator::Foreach { .. } => "foreach",
        Operator::Group { .. } => "group",
    }
}

fn field_index(schema: &[String], relation: &str, name: &str) -> Result<usize, PigError> {
    schema
        .iter()
        .position(|f| f == name)
        .ok_or_else(|| PigError::UnknownField {
            relation: relation.to_string(),
            field: name.to_string(),
        })
}

fn default_schema(rows: &[Value]) -> Vec<String> {
    let width = rows
        .first()
        .and_then(Value::as_tuple)
        .map(|t| t.len())
        .unwrap_or(1);
    (0..width).map(|i| format!("f{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;
    use mrmc_mapreduce::dfs::DfsConfig;
    use std::collections::HashMap as Map;

    fn dfs() -> Arc<Dfs> {
        Arc::new(
            Dfs::new(DfsConfig {
                block_size: 1024,
                replication: 1,
                nodes: 2,
            })
            .unwrap(),
        )
    }

    fn runner(dfs: &Arc<Dfs>) -> PigRunner {
        let mut r = PigRunner::new(Arc::clone(dfs), UdfRegistry::with_builtins());
        r.num_map_tasks = 3;
        r.num_reducers = 2;
        r
    }

    #[test]
    fn load_foreach_store_word_upper() {
        let dfs = dfs();
        dfs.put("/in.txt", &b"hello\nworld\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/in.txt' AS (line:chararray);\
             B = FOREACH A GENERATE UPPER(line);\
             STORE B INTO '/out.txt';",
            &Map::new(),
        )
        .unwrap();
        let report = runner(&dfs).run(&script).unwrap();
        assert_eq!(report.stored, vec!["/out.txt".to_string()]);
        let out = dfs.read("/out.txt").unwrap();
        assert_eq!(out.as_ref(), b"(HELLO)\n(WORLD)\n");
        // One FOREACH stage recorded.
        assert_eq!(report.pipeline.stages().len(), 1);
    }

    #[test]
    fn flatten_tokenize_explodes_rows() {
        let dfs = dfs();
        dfs.put("/t.txt", &b"a b\nc\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/t.txt' AS (line:chararray);\
             W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (word:chararray);\
             STORE W INTO '/w.txt';",
            &Map::new(),
        )
        .unwrap();
        runner(&dfs).run(&script).unwrap();
        let out = String::from_utf8(dfs.read("/w.txt").unwrap().to_vec()).unwrap();
        let mut words: Vec<&str> = out.lines().collect();
        words.sort();
        assert_eq!(words, vec!["(a)", "(b)", "(c)"]);
    }

    #[test]
    fn group_all_and_scalar_reference() {
        let dfs = dfs();
        dfs.put("/n.txt", &b"x\ny\nz\n"[..], false).unwrap();
        // COUNT the bag via scalar reference I.A.
        let script = parse_script(
            "A = LOAD '/n.txt' AS (line:chararray);\
             I = GROUP A ALL;\
             C = FOREACH I GENERATE COUNT(A);\
             STORE C INTO '/c.txt';",
            &Map::new(),
        )
        .unwrap();
        // `COUNT(A)`: `A` resolves as a field of I's schema (group, A).
        runner(&dfs).run(&script).unwrap();
        let out = dfs.read("/c.txt").unwrap();
        assert_eq!(out.as_ref(), b"(3)\n");
    }

    #[test]
    fn group_by_field() {
        let dfs = dfs();
        dfs.put("/kv.txt", &b"a 1\nb 2\na 3\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/kv.txt' AS (line:chararray);\
             B = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (tok:chararray);\
             G = GROUP B BY tok;\
             C = FOREACH G GENERATE group, COUNT(B);\
             STORE C INTO '/g.txt';",
            &Map::new(),
        )
        .unwrap();
        runner(&dfs).run(&script).unwrap();
        let out = String::from_utf8(dfs.read("/g.txt").unwrap().to_vec()).unwrap();
        let mut lines: Vec<&str> = out.lines().collect();
        lines.sort();
        assert_eq!(lines, vec!["(1,1)", "(2,1)", "(3,1)", "(a,2)", "(b,1)"]);
    }

    #[test]
    fn unknown_relation_and_udf_errors() {
        let dfs = dfs();
        let script = parse_script("B = FOREACH missing GENERATE x;", &Map::new()).unwrap();
        assert!(matches!(
            runner(&dfs).run(&script),
            Err(PigError::UnknownRelation(_))
        ));

        dfs.put("/x", &b"a\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/x' AS (line:chararray); B = FOREACH A GENERATE NoSuch(line);",
            &Map::new(),
        )
        .unwrap();
        assert!(matches!(
            runner(&dfs).run(&script),
            Err(PigError::UnknownUdf(_))
        ));
    }

    #[test]
    fn unknown_field_error() {
        let dfs = dfs();
        dfs.put("/x", &b"a\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/x' AS (line:chararray); B = FOREACH A GENERATE nope;",
            &Map::new(),
        )
        .unwrap();
        match runner(&dfs).run(&script) {
            Err(PigError::UnknownField { relation, field }) => {
                assert_eq!((relation.as_str(), field.as_str()), ("A", "nope"));
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn scalar_reference_requires_single_row() {
        let dfs = dfs();
        dfs.put("/x", &b"a\nb\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/x' AS (line:chararray);\
             B = FOREACH A GENERATE A.line;",
            &Map::new(),
        )
        .unwrap();
        assert!(matches!(
            runner(&dfs).run(&script),
            Err(PigError::NotScalar { rows: 2, .. })
        ));
    }

    #[test]
    fn pipeline_records_group_shuffle() {
        let dfs = dfs();
        dfs.put("/x", &b"a\nb\nc\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/x' AS (line:chararray); I = GROUP A ALL;",
            &Map::new(),
        )
        .unwrap();
        let report = runner(&dfs).run(&script).unwrap();
        let stage = &report.pipeline.stages()[0];
        assert_eq!(stage.shuffled_pairs, 3);
        assert!(!stage.reduce_stats.is_empty());
    }

    #[test]
    fn group_stage_shuffle_stats_pinned() {
        let dfs = dfs();
        dfs.put("/kv.txt", &b"a 1\nb 2\na 3\nc 9\nb 4\n"[..], false)
            .unwrap();
        let script = parse_script(
            "A = LOAD '/kv.txt' AS (line:chararray);\
             B = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (tok:chararray);\
             G = GROUP B BY tok;",
            &Map::new(),
        )
        .unwrap();
        let report = runner(&dfs).run(&script).unwrap();
        let group = &report.pipeline.stages()[1];
        // The index shuffle charges `shuffled_bytes` for the full rows
        // (wire-size hook), not for the 4-byte indices it moves: ten
        // one-character tokens, no key repeated inside a map task's
        // chunk, so ten groups of key (6) + count (1) + row (11); and
        // every (map task, reducer) cell of the 3 × 2 is non-empty.
        assert_eq!(
            (
                group.shuffled_pairs,
                group.shuffled_bytes,
                group.shuffle_runs
            ),
            (10, 180, 6)
        );
    }

    #[test]
    fn operator_spans_recorded_with_tracer() {
        let dfs = dfs();
        dfs.put("/x", &b"a\nb\n"[..], false).unwrap();
        let script = parse_script(
            "A = LOAD '/x' AS (line:chararray);\
             B = FOREACH A GENERATE UPPER(line);\
             I = GROUP B ALL;\
             STORE I INTO '/o.txt';",
            &Map::new(),
        )
        .unwrap();
        let tracer = Arc::new(Tracer::new());
        runner(&dfs)
            .traced(Arc::clone(&tracer))
            .run(&script)
            .unwrap();
        let ledger = tracer.ledger();
        let pig_spans: Vec<_> = ledger
            .spans
            .iter()
            .filter(|s| s.category == Category::Pig)
            .collect();
        let names: Vec<&str> = pig_spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["load:A", "foreach:B", "group:I", "store:I"]);
        // Operator spans chain so the critical path can walk them.
        assert!(pig_spans[1].deps.contains(&pig_spans[0].id));
        // Engine spans accumulate in the same ledger (FOREACH ran a
        // real map stage under the hood).
        assert!(ledger.spans.iter().any(|s| s.category == Category::Compute));
    }
}
