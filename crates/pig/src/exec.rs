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
//! There is one execution plane. A relation is a rectangular
//! [`ColumnBatch`] whose schema names its columns one to one. A UDF
//! call is bound when its statement is planned, so a bad constant is
//! refused before the job runs, and the map tasks call the bound
//! [`crate::udf::Udf::eval`] on column windows. `FLATTEN` expands with gather vectors,
//! and `GROUP` shuffles 4-byte **row indices** instead of cloned row
//! trees — the grouped runs come back through
//! [`Pipeline::run_group_stage`] and one columnar gather builds the
//! result bags. Boxed [`Value`] rows exist only at the edges: what a
//! loader returns, what `STORE` prints and shuffle keys. A `FOREACH`
//! item yields exactly the fields its `AS` clause names (one when it
//! names none); an item that cannot is a [`PigError::Item`]. The
//! semantics are pinned from outside the crate: an engine-free
//! reference interpreter in `tests/columnar.rs` must agree with this
//! executor on stored bytes and shuffle accounting, or fail on the
//! same statement, over randomized scripts.
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
use crate::udf::{BatchOut, Udf, UdfError, UdfRegistry, Window};
use crate::value::Value;

/// Executor failure.
#[derive(Debug, Clone)]
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
    /// A UDF refused its call site, or failed on a chunk.
    Udf(UdfError),
    /// An item broke the contract that it yields exactly the fields
    /// its schema names: a `FOREACH` item its `AS` clause (one field
    /// when there is none), a `LOAD`'s loader (item 0) the `AS`
    /// clause or else its first row.
    Item {
        /// Relation assigned.
        relation: String,
        /// The item's position in the `GENERATE` list, from 0 (0 for
        /// a `LOAD`).
        item: usize,
        /// How it broke the contract.
        fault: ItemFault,
    },
    /// A scalar cross-relation reference (`I.F`) hit a relation of
    /// more than one row.
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
            PigError::Item {
                relation,
                item,
                fault,
            } => write!(f, "relation {relation} item {item}: {fault}"),
            PigError::NotScalar { relation, rows } => write!(
                f,
                "scalar reference to {relation} requires at most 1 row, found {rows}"
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

/// How an item broke its schema contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemFault {
    /// A row of the item yields `yielded` fields.
    Width {
        /// Fields the row yields.
        yielded: usize,
        /// Fields the item's schema names.
        named: usize,
    },
    /// `FLATTEN` of a null.
    FlattenNull,
}

impl fmt::Display for ItemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemFault::Width { yielded, named } => {
                write!(f, "yields {yielded} fields, its schema names {named}")
            }
            ItemFault::FlattenNull => f.write_str("FLATTEN of a null"),
        }
    }
}

/// A materialized relation: a shared columnar batch plus one field
/// name per column.
#[derive(Debug, Clone)]
struct Relation {
    batch: Arc<ColumnBatch>,
    schema: Vec<String>,
}

impl Relation {
    fn new(batch: ColumnBatch, schema: Vec<String>) -> Relation {
        assert_eq!(batch.num_cols(), schema.len(), "one schema name per column");
        Relation {
            batch: Arc::new(batch),
            schema,
        }
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

// ------------------------------------------------------- columnar plane

/// Expression resolved against the batch ABI. A UDF call holds its
/// bound kernel and its column arguments; its constants are bound.
#[derive(Clone)]
enum BExpr {
    Field(usize),
    Const(Value),
    Udf { udf: Arc<dyn Udf>, cols: Vec<BExpr> },
}

impl BExpr {
    fn as_const(&self) -> Option<&Value> {
        match self {
            BExpr::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// Resolved generate item.
#[derive(Clone)]
struct BGenItem {
    expr: BExpr,
    flatten: bool,
    /// Fields its `AS` clause names (1 when it names none).
    width: usize,
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

/// Evaluate a batch expression over rows `start..start + len`.
fn eval_bexpr<'a>(
    batch: &'a ColumnBatch,
    start: usize,
    len: usize,
    expr: &'a BExpr,
) -> Result<ItemCol<'a>, UdfError> {
    Ok(match expr {
        BExpr::Field(i) => ItemCol::Ref(batch.col(*i)),
        BExpr::Const(v) => ItemCol::Scalar(Cow::Borrowed(v)),
        BExpr::Udf { udf, cols } => {
            let children: Vec<ItemCol<'a>> = cols
                .iter()
                .map(|a| eval_bexpr(batch, start, len, a).map(box_tuples))
                .collect::<Result<_, UdfError>>()?;
            let windows: Vec<Window<'_>> = children
                .iter()
                .map(|c| match c {
                    ItemCol::Ref(col) => Window { col, start, len },
                    ItemCol::Owned(col) => Window { col, start: 0, len },
                    _ => unreachable!("constants are bound, tuples boxed above"),
                })
                .collect();
            let (got, out) = match udf.eval(&windows, len)? {
                BatchOut::Col(c) => (c.len(), ItemCol::Owned(c)),
                BatchOut::Rows(v) => (v.len(), ItemCol::Owned(Column::from_values(v))),
                BatchOut::Tup(b) => (b.rows(), ItemCol::Tup(b)),
            };
            // An override owes one value per row; a short column would
            // panic in the gather, a long one drop rows silently.
            if got != len {
                return Err(UdfError::new(
                    udf.name(),
                    format!("returned {got} rows for {len} input rows"),
                ));
            }
            out
        }
    })
}

/// A tuple-valued item that is not flattened (or a UDF argument)
/// becomes one boxed column of its tuples.
fn box_tuples(col: ItemCol<'_>) -> ItemCol<'_> {
    match col {
        ItemCol::Tup(b) => ItemCol::Owned(Column::Dyn(b.to_rows())),
        other => other,
    }
}

impl ItemCol<'_> {
    /// The bag column `item` multiplies rows by when it is flattened,
    /// and the row of it the chunk window starts at.
    fn flat_bag(&self, item: &BGenItem, start: usize) -> Option<(&BagCol, usize)> {
        match self {
            ItemCol::Ref(Column::Bag(b)) if item.flatten => Some((b, start)),
            ItemCol::Owned(Column::Bag(b)) if item.flatten => Some((b, 0)),
            _ => None,
        }
    }
}

/// Check a flattened item's rows `start..start + len` against the
/// `named` fields its `AS` clause names, and put them in the form the
/// assembly reads: a bag multiplies rows and appends each element's
/// fields (a bare element is one field), a tuple appends its fields,
/// a plain value appends itself. The rule is per row — a null, or a
/// bag element, tuple or plain value of another width, is the
/// [`ItemFault`] it commits — so the chunking never decides it.
fn flatten(
    col: ItemCol<'_>,
    start: usize,
    len: usize,
    named: usize,
) -> Result<ItemCol<'_>, ItemFault> {
    let fits = |yielded| match yielded == named {
        true => Ok(()),
        false => Err(ItemFault::Width { yielded, named }),
    };
    let (c, window) = match &col {
        ItemCol::Ref(c) => (*c, start..start + len),
        ItemCol::Owned(c) => (c, 0..len),
        ItemCol::Tup(b) => return fits(b.num_cols()).map(|()| col),
        // A constant or scalar reference flattens as `len` boxed copies.
        ItemCol::Scalar(v) => (&Column::Dyn(vec![v.as_ref().clone(); len]), 0..len),
    };
    if window.clone().any(|i| c.is_null(i)) {
        return Err(ItemFault::FlattenNull);
    }
    let rows = match c {
        Column::Bag(b) => {
            if window.clone().any(|i| b.bag_len(i) > 0) {
                fits(if b.tuple_elems { b.elems.num_cols() } else { 1 })?;
            }
            return Ok(col);
        }
        Column::Dyn(v) => &v[window],
        _ => return fits(1).map(|()| col),
    };
    // Boxed rows are read as bags of tuples: a bag as itself, a tuple
    // or a plain value as a bag of one, a bare element as a 1-tuple.
    fn fields(v: &Value) -> &[Value] {
        v.as_tuple().unwrap_or(std::slice::from_ref(v))
    }
    let mut offsets = vec![0u32];
    let mut elems: Vec<&[Value]> = Vec::with_capacity(rows.len());
    for row in rows {
        match row {
            Value::Bag(bag) => elems.extend(bag.iter().map(fields)),
            one => elems.push(fields(one)),
        }
        offsets.push(elems.len() as u32);
    }
    elems.iter().try_for_each(|e| fits(e.len()))?;
    let cols = (0..named)
        .map(|j| Column::from_values(elems.iter().map(|e| e[j].clone()).collect()))
        .collect();
    let elems = ColumnBatch::from_cols(cols, elems.len());
    Ok(ItemCol::Owned(Column::Bag(BagCol::new(
        offsets, elems, true, None,
    ))))
}

/// FOREACH over rows `start..start + len` of `batch`, one map task's
/// chunk: every item is evaluated over the window and the output is
/// assembled column by column from gather vectors, with FLATTEN cross
/// products in odometer order (later items vary fastest). The chunk
/// has one column per named field; an item that breaks its `AS`
/// contract is a [`PigError::Item`] of `relation`.
fn foreach_chunk(
    batch: &ColumnBatch,
    start: usize,
    len: usize,
    items: &[BGenItem],
    relation: &str,
) -> Result<ColumnBatch, PigError> {
    let width = items.iter().map(|it| it.width).sum();
    if len == 0 {
        // A UDF is never invoked for zero rows.
        return Ok(ColumnBatch::empty(width));
    }
    let fault = |item, fault| PigError::Item {
        relation: relation.to_string(),
        item,
        fault,
    };
    let mut cols: Vec<ItemCol<'_>> = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        let col = eval_bexpr(batch, start, len, &item.expr)?;
        let col = match (item.flatten, item.width) {
            (true, named) => flatten(col, start, len, named),
            (false, 1) => Ok(box_tuples(col)),
            (false, named) => Err(ItemFault::Width { yielded: 1, named }),
        };
        cols.push(col.map_err(|f| fault(idx, f))?);
    }

    // Build the gather vectors: one pass over input rows, odometer
    // over the flattened bags (later items vary fastest).
    struct FlatRef<'b> {
        bag: &'b BagCol,
        base: usize,
        take: Vec<u32>,
    }
    let mut flats: Vec<FlatRef<'_>> = items
        .iter()
        .zip(&cols)
        .filter_map(|(item, col)| col.flat_bag(item, start))
        .map(|(bag, base)| FlatRef {
            bag,
            base,
            take: Vec::new(),
        })
        .collect();
    let k = flats.len();
    let mut take_in: Vec<u32> = Vec::with_capacity(len);
    let mut counts = vec![0usize; k];
    let mut odo = vec![0usize; k];
    for i in 0..len {
        let mut total = 1usize;
        for (f, fr) in flats.iter().enumerate() {
            counts[f] = fr.bag.bag_len(fr.base + i);
            total *= counts[f];
        }
        if total == 0 {
            continue;
        }
        odo.iter_mut().for_each(|x| *x = 0);
        for _ in 0..total {
            take_in.push(i as u32);
            for (f, fr) in flats.iter_mut().enumerate() {
                fr.take.push(fr.bag.offsets[fr.base + i] + odo[f] as u32);
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
    if out_rows == 0 {
        // A flattened bag column of no element may have any width.
        return Ok(ColumnBatch::empty(width));
    }
    let take_global: Vec<u32> = take_in.iter().map(|&i| i + start as u32).collect();

    // Assemble output columns in item order.
    let mut out_cols: Vec<Column> = Vec::with_capacity(width);
    let mut flats = flats.into_iter();
    for (item, col) in items.iter().zip(&cols) {
        match col {
            _ if col.flat_bag(item, start).is_some() => {
                let fr = flats.next().expect("one gather per flattened bag");
                out_cols.extend(fr.bag.elems.gather(&fr.take).into_cols());
            }
            ItemCol::Ref(c) => out_cols.push(c.gather(&take_global)),
            ItemCol::Owned(c) => out_cols.push(c.gather(&take_in)),
            ItemCol::Tup(b) => out_cols.extend(b.cols().iter().map(|c| c.gather(&take_in))),
            ItemCol::Scalar(v) => {
                out_cols.push(Column::from_values(vec![v.as_ref().clone(); out_rows]))
            }
        }
    }
    Ok(ColumnBatch::from_cols(out_cols, out_rows))
}

/// The map task for `FOREACH`: one chunk of rows per call. A chunk
/// that fails is emitted as its error, so the runner returns it typed.
struct BatchForeachMapper {
    batch: Arc<ColumnBatch>,
    items: Vec<BGenItem>,
    relation: String,
}

impl Mapper for BatchForeachMapper {
    type InKey = usize;
    type InValue = (u32, u32);
    type OutKey = usize;
    type OutValue = Result<ColumnBatch, PigError>;

    fn map(&self, key: usize, window: (u32, u32), ctx: &mut TaskContext<usize, Self::OutValue>) {
        let (start, len) = (window.0 as usize, window.1 as usize);
        let chunk = foreach_chunk(&self.batch, start, len, &self.items, &self.relation);
        ctx.emit(key, chunk);
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
                        } => self.exec_load(alias, path, loader.as_deref(), schema)?,
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
    /// `STORE` prints such a row as `(v)`. Every row has as many
    /// fields as the schema names.
    fn exec_load(
        &self,
        alias: &str,
        path: &str,
        loader: Option<&str>,
        schema: &[crate::parser::FieldDecl],
    ) -> Result<Relation, PigError> {
        let loader_name = loader.unwrap_or("TextLoader");
        let bind = self
            .registry
            .get(loader_name)
            .ok_or_else(|| PigError::UnknownUdf(loader_name.to_string()))?;
        let udf = bind(&[None])?;
        // The DFS hands back shared bytes; the loader sees them as a
        // one-row column, not a per-load heap copy.
        let bytes = Column::Dyn(vec![Value::ByteArray(self.dfs.read(path)?)]);
        let file = Window {
            col: &bytes,
            start: 0,
            len: 1,
        };
        let out = udf.eval(&[file], 1)?.into_row(0);
        let out = out.ok_or_else(|| UdfError::new(loader_name, "returned no row"))?;
        let mut rows = match out {
            Value::Bag(rows) => rows,
            other => vec![other],
        };
        for row in &mut rows {
            if row.as_tuple().is_none() {
                *row = Value::tuple([std::mem::replace(row, Value::Null)]);
            }
        }
        let fields = |row: &Value| row.as_tuple().map_or(0, <[Value]>::len);
        let schema_names: Vec<String> = if schema.is_empty() {
            let width = rows.first().map_or(1, fields);
            (0..width).map(|i| format!("f{i}")).collect()
        } else {
            schema.iter().map(|f| f.name.clone()).collect()
        };
        let named = schema_names.len();
        if let Some(row) = rows.iter().find(|row| fields(row) != named) {
            let yielded = fields(row);
            return Err(PigError::Item {
                relation: alias.to_string(),
                item: 0,
                fault: ItemFault::Width { yielded, named },
            });
        }
        let batch = match ColumnBatch::from_rows(&rows) {
            Some(batch) if !rows.is_empty() => batch,
            _ => ColumnBatch::empty(named),
        };
        Ok(Relation::new(batch, schema_names))
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
                    width: it.schema.len().max(1),
                })
            })
            .collect::<Result<_, PigError>>()?;
        let mapper = BatchForeachMapper {
            batch: Arc::clone(&rel.batch),
            items: resolved,
            relation: alias.to_string(),
        };
        let out = pipeline.run_map_stage(
            self.chunk_windows(rel.batch.rows()),
            self.num_map_tasks,
            &mapper,
            &self.job_config(&format!("foreach:{alias}")),
        )?;
        // Chunks come back in task order, so the error returned is the
        // first chunk's that failed.
        let chunks = out.into_iter().map(|(_, c)| c).collect::<Result<_, _>>()?;
        Ok(Relation::new(ColumnBatch::concat(chunks), schema))
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
                let bind = self
                    .registry
                    .get(name)
                    .ok_or_else(|| PigError::UnknownUdf(name.clone()))?;
                let mut cols: Vec<BExpr> = args
                    .iter()
                    .map(|a| self.resolve_batch(env, relation, schema, a))
                    .collect::<Result<_, PigError>>()?;
                // Bound once per call site, before the statement's job runs.
                let udf = bind(&cols.iter().map(BExpr::as_const).collect::<Vec<_>>())?;
                cols.retain(|a| a.as_const().is_none());
                BExpr::Udf { udf, cols }
            }
        })
    }

    /// Scalar cross-relation reference (`I.F`): the relation must
    /// have at most one row (true for `GROUP ... ALL` output); a
    /// relation of no row gives null, as in Apache Pig.
    fn resolve_scalar_ref(
        &self,
        env: &HashMap<String, Relation>,
        relation: &str,
        field: &str,
    ) -> Result<Value, PigError> {
        let rel = env
            .get(relation)
            .ok_or_else(|| PigError::UnknownRelation(relation.to_string()))?;
        let idx = field_index(&rel.schema, relation, field)?;
        match rel.batch.rows() {
            0 => Ok(Value::Null),
            // Only the referenced field is materialized, not the whole row.
            1 => Ok(rel.batch.value_at(0, idx)),
            rows => Err(PigError::NotScalar {
                relation: relation.to_string(),
                rows,
            }),
        }
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
        assert!(!group.reduce_stats.is_empty());
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
