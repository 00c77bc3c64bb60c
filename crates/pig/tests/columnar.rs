//! Property tests for the columnar data plane.
//!
//! Two invariants back the executor's correctness claim:
//!
//! 1. **Representation fidelity** — `ColumnBatch::from_rows(rows)`
//!    followed by `to_rows()` reproduces the input *exactly* (variant,
//!    nulls, nested bag order, tuple arity), and the columnar shuffle
//!    pricing `row_shuffle_size(i)` equals the boxed row's
//!    `shuffle_size()`. Slicing and gathering preserve both.
//! 2. **Bit-identity with a reference** — randomized scripts over
//!    randomized inputs store the bytes, and record the per-stage
//!    `(shuffled_pairs, shuffled_bytes)`, that the engine-free
//!    [`reference`] interpreter below computes, including the nasty
//!    FLATTEN corners (empty bags, bare non-tuple bag elements, mixed
//!    bag/scalar expression outputs, nulls, ragged tuples). The
//!    reference runs no job and shares no code with `exec.rs`: boxed
//!    `Vec<Value>` rows over the parser's public AST, scalar
//!    `Udf::exec`, and the shuffle pricing `engine.rs` documents.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::ShuffleSized;
use mrmc_pig::udf::{BatchArg, BatchOut, Udf, UdfError};
use mrmc_pig::{parse_script, ColumnBatch, PigRunner, UdfRegistry, Value};

// ----------------------------------------------------- value round-trips

/// Arbitrary Pig values of bounded depth (same distribution as the
/// `prop.rs` ordering tests, nested tuples and bags included).
fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f64>().prop_map(Value::Double),
        "[a-z]{0,6}".prop_map(Value::CharArray),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(|v| Value::ByteArray(v.into())),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Tuple),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Bag),
        ]
    })
}

/// Rows as relations hold them: tuples of arbitrary values, with
/// ragged widths in the mix.
fn rows() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        proptest::collection::vec(value(), 0..5).prop_map(Value::Tuple),
        0..12,
    )
}

/// `batch` holds exactly `rows`, and prices each like the boxed row.
fn assert_batch_holds(batch: &ColumnBatch, rows: &[Value]) {
    assert_eq!(batch.rows(), rows.len());
    assert_eq!(batch.to_rows(), rows);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(batch.row_value(i), row.clone());
        assert_eq!(batch.row_shuffle_size(i), row.shuffle_size(), "row {i}");
    }
}

/// One row of the fixed shape `(chararray, bytearray,
/// bag{(long, chararray, bag{chararray})}, bag{bag{long}}, double)`,
/// decoded from a seed whose bits pick nulls, lengths and how many
/// trailing fields a ragged row drops. Parts built from these rows
/// share one typed layout, so `concat` appends their buffers instead
/// of degrading to `Dyn`.
fn typed_row(seed: u64) -> Value {
    let mut state = seed;
    let mut next = |n: u64| {
        // splitmix64 step
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let word = |next: &mut dyn FnMut(u64) -> u64| -> String {
        (0..next(5))
            .map(|_| (b'a' + next(26) as u8) as char)
            .collect()
    };
    let mut fields = Vec::new();
    fields.push(match next(4) {
        0 => Value::Null,
        _ => Value::CharArray(word(&mut next)),
    });
    fields.push(match next(4) {
        0 => Value::Null,
        _ => Value::ByteArray(word(&mut next).into_bytes().into()),
    });
    fields.push(match next(5) {
        0 => Value::Null,
        n => Value::Bag(
            (1..n)
                .map(|_| {
                    let id = match next(3) {
                        0 => Value::Null,
                        _ => Value::CharArray(word(&mut next)),
                    };
                    let inner = (0..next(3))
                        .map(|_| Value::tuple([Value::CharArray(word(&mut next))]))
                        .collect::<Vec<_>>();
                    Value::tuple([Value::Long(next(100) as i64), id, Value::Bag(inner)])
                })
                .collect(),
        ),
    });
    fields.push(match next(5) {
        0 => Value::Null,
        n => Value::Bag(
            (1..n)
                .map(|_| Value::Bag((0..next(3)).map(|_| Value::Long(next(9) as i64)).collect()))
                .collect(),
        ),
    });
    fields.push(Value::Double(next(1000) as f64 / 8.0));
    // One row in four is ragged: it keeps only a prefix of its fields.
    if next(4) == 0 {
        fields.truncate(next(5) as usize);
    }
    Value::Tuple(fields)
}

proptest! {
    /// from_rows → to_rows is the identity, and the columnar shuffle
    /// pricing matches the boxed pricing row for row.
    #[test]
    fn batch_round_trips_rows(rows in rows()) {
        let batch = ColumnBatch::from_rows(&rows).expect("all rows are tuples");
        assert_batch_holds(&batch, &rows);
    }

    /// `concat` is row concatenation, whatever the parts look like:
    /// windows cut by `slice` (a shared buffer of which the part owns
    /// a sub-range), nullable string/bytes/bag columns, bags of bags,
    /// ragged rows, all-null parts, empty parts, and arbitrary
    /// (mostly `Dyn`) parts mixed in between the typed ones.
    #[test]
    fn concat_appends_part_rows(
        typed in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..7), 0..5),
        wild in proptest::collection::vec(rows(), 0..3),
        modes in proptest::collection::vec(any::<u8>(), 5),
        cuts in proptest::collection::vec(0usize..8, 10),
    ) {
        let mut parts: Vec<ColumnBatch> = Vec::new();
        let mut expect: Vec<Value> = Vec::new();
        let mut wild = wild.into_iter();
        for (k, seeds) in typed.iter().enumerate() {
            let mut rows: Vec<Value> = seeds.iter().map(|&s| typed_row(s)).collect();
            if modes[k] % 4 == 0 {
                // An all-null part: every column sniffs as null-only.
                for row in &mut rows {
                    let Value::Tuple(fields) = row else { unreachable!() };
                    fields.iter_mut().for_each(|f| *f = Value::Null);
                }
            }
            let lo = cuts[2 * k] % (rows.len() + 1);
            let len = cuts[2 * k + 1] % (rows.len() - lo + 1);
            let whole = ColumnBatch::from_rows(&rows).expect("all rows are tuples");
            parts.push(whole.slice(lo, len));
            expect.extend_from_slice(&rows[lo..lo + len]);
            if modes[k] % 2 == 1 {
                if let Some(rows) = wild.next() {
                    parts.push(ColumnBatch::from_rows(&rows).expect("all rows are tuples"));
                    expect.extend(rows);
                }
            }
        }
        assert_batch_holds(&ColumnBatch::concat(parts), &expect);
    }

    /// Slices and gathers of a batch reproduce the corresponding rows.
    #[test]
    fn slice_and_gather_preserve_rows(rows in rows(), cut in 0usize..12) {
        let batch = ColumnBatch::from_rows(&rows).expect("all rows are tuples");
        let cut = cut.min(rows.len());
        let head = batch.slice(0, cut);
        prop_assert_eq!(head.to_rows(), rows[..cut].to_vec());
        // Gather even-indexed rows in reverse.
        let idx: Vec<u32> = (0..rows.len() as u32).rev().filter(|i| i % 2 == 0).collect();
        let gathered = batch.gather(&idx);
        let expect: Vec<Value> = idx.iter().map(|&i| rows[i as usize].clone()).collect();
        prop_assert_eq!(gathered.to_rows(), expect);
    }
}

// ------------------------------------------------- reference interpreter

/// An engine-free interpreter of the supported Pig subset: the oracle
/// the executor is compared against. Relations are `Vec<Value>` of
/// tuples, UDFs are called one row at a time through the scalar
/// `Udf::exec`, nothing is chunked, shuffled or run as a job.
mod reference {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, HashMap};

    use mrmc_mapreduce::wire::uvarint_len;
    use mrmc_mapreduce::{chunk_ranges, ShuffleSized};
    use mrmc_pig::parser::{CmpOp, Expr, GenItem, GroupBy, Operator};
    use mrmc_pig::{Script, Statement, UdfRegistry, Value};

    struct Rel {
        rows: Vec<Value>,
        schema: Vec<String>,
    }

    /// What a script run leaves behind.
    #[derive(Debug, PartialEq)]
    pub struct Outcome {
        /// `(path, text)` per `STORE`, in script order.
        pub stored: Vec<(String, String)>,
        /// `(shuffled_pairs, shuffled_bytes)` per job the executor
        /// runs: FOREACH and FILTER are map-only (nothing shuffled),
        /// GROUP and DISTINCT shuffle, the rest run on the driver.
        pub stages: Vec<(u64, u64)>,
    }

    /// What shuffling `rows` keyed by `key` costs, as `engine.rs`
    /// documents it: each of the `map_tasks` map tasks groups its own
    /// contiguous chunk, and a group is the key once, a varint value
    /// count, then each value.
    fn shuffle_bytes(
        rows: &[Value],
        map_tasks: usize,
        key: impl Fn(&Value) -> Value,
        value_size: impl Fn(&Value) -> usize,
    ) -> u64 {
        let mut bytes = 0;
        for task in chunk_ranges(rows.len(), map_tasks) {
            let mut groups: BTreeMap<Value, (u64, usize)> = BTreeMap::new();
            for row in &rows[task] {
                let group = groups.entry(key(row)).or_default();
                group.0 += 1;
                group.1 += value_size(row);
            }
            for (key, (count, values)) in groups {
                bytes += (key.shuffle_size() + uvarint_len(count) + values) as u64;
            }
        }
        bytes
    }

    fn fields(row: &Value) -> &[Value] {
        row.as_tuple().expect("relation rows are tuples")
    }

    fn field(row: &Value, schema: &[String], name: &str) -> Value {
        let i = schema
            .iter()
            .position(|f| f == name)
            .unwrap_or_else(|| panic!("no field {name} in {schema:?}"));
        fields(row).get(i).cloned().unwrap_or(Value::Null)
    }

    struct Interp<'a> {
        registry: &'a UdfRegistry,
        env: HashMap<String, Rel>,
    }

    impl Interp<'_> {
        fn rel(&self, alias: &str) -> &Rel {
            self.env
                .get(alias)
                .unwrap_or_else(|| panic!("unknown relation {alias}"))
        }

        fn eval(&self, expr: &Expr, row: &Value, schema: &[String]) -> Value {
            match expr {
                Expr::LitLong(v) => Value::Long(*v),
                Expr::LitDouble(v) => Value::Double(*v),
                Expr::LitString(s) => Value::CharArray(s.clone()),
                Expr::Field(name) => field(row, schema, name),
                Expr::Dotted { relation, field: f } => {
                    let rel = self.rel(relation);
                    assert_eq!(rel.rows.len(), 1, "{relation} is not a scalar");
                    field(&rel.rows[0], &rel.schema, f)
                }
                Expr::Udf { name, args } => {
                    let args: Vec<Value> = args.iter().map(|a| self.eval(a, row, schema)).collect();
                    let udf = self.registry.get(name).expect("registered UDF");
                    udf.exec(&args).unwrap_or_else(|e| panic!("{e}"))
                }
            }
        }

        /// One input row through `GENERATE`: every item contributes a
        /// list of alternatives (a flattened bag one per element, in
        /// order; anything else exactly one), each alternative a run
        /// of fields, and the output is their cross product with the
        /// first item varying slowest.
        fn generate(&self, items: &[GenItem], row: &Value, schema: &[String]) -> Vec<Value> {
            let mut out: Vec<Vec<Value>> = vec![Vec::new()];
            for item in items {
                let alternatives: Vec<Vec<Value>> = match self.eval(&item.expr, row, schema) {
                    Value::Bag(elems) if item.flatten => elems
                        .into_iter()
                        .map(|e| match e {
                            Value::Tuple(fields) => fields,
                            bare => vec![bare],
                        })
                        .collect(),
                    Value::Tuple(fields) if item.flatten => vec![fields],
                    v => vec![vec![v]],
                };
                out = out
                    .iter()
                    .flat_map(|base| {
                        alternatives
                            .iter()
                            .map(move |alt| [&base[..], alt].concat())
                    })
                    .collect();
            }
            out.into_iter().map(Value::Tuple).collect()
        }
    }

    /// `FILTER`'s comparison: numbers compare as doubles whatever
    /// their width, anything else by the `Value` total order.
    fn compare(l: &Value, r: &Value) -> Ordering {
        match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            _ => l.cmp(r),
        }
    }

    /// Interpret `script`, every `LOAD` reading `input`.
    pub fn run(script: &Script, input: &[u8], registry: &UdfRegistry, map_tasks: usize) -> Outcome {
        let mut interp = Interp {
            registry,
            env: HashMap::new(),
        };
        let mut outcome = Outcome {
            stored: Vec::new(),
            stages: Vec::new(),
        };
        for stmt in &script.statements {
            let (alias, op) = match stmt {
                Statement::Store { alias, path } => {
                    let text = interp
                        .rel(alias)
                        .rows
                        .iter()
                        .map(|r| format!("{r}\n"))
                        .collect();
                    outcome.stored.push((path.clone(), text));
                    continue;
                }
                Statement::Assign { alias, op } => (alias, op),
            };
            let rel = match op {
                Operator::Load { loader, schema, .. } => {
                    let loader = loader.as_deref().unwrap_or("TextLoader");
                    let udf = registry.get(loader).expect("registered loader");
                    let loaded = udf
                        .exec(&[Value::ByteArray(input.to_vec().into())])
                        .unwrap_or_else(|e| panic!("{e}"));
                    // A relation is a bag of tuples: a bare value is
                    // a tuple of one field.
                    let rows: Vec<Value> = match loaded {
                        Value::Bag(rows) => rows,
                        one => vec![one],
                    }
                    .into_iter()
                    .map(|r| match r {
                        Value::Tuple(_) => r,
                        bare => Value::Tuple(vec![bare]),
                    })
                    .collect();
                    let schema = if schema.is_empty() {
                        let width = rows.first().map_or(1, |r| fields(r).len());
                        (0..width).map(|i| format!("f{i}")).collect()
                    } else {
                        schema.iter().map(|f| f.name.clone()).collect()
                    };
                    Rel { rows, schema }
                }
                Operator::Foreach { input, items } => {
                    let rel = interp.rel(input);
                    let rows = rel
                        .rows
                        .iter()
                        .flat_map(|row| interp.generate(items, row, &rel.schema))
                        .collect();
                    // Declared names win; an undeclared plain field
                    // keeps its name; anything else is `f<position>`.
                    let schema = items
                        .iter()
                        .enumerate()
                        .flat_map(|(i, item)| match (&item.schema[..], &item.expr) {
                            ([], Expr::Field(name)) => vec![name.clone()],
                            ([], _) => vec![format!("f{i}")],
                            (decls, _) => decls.iter().map(|d| d.name.clone()).collect(),
                        })
                        .collect();
                    outcome.stages.push((0, 0));
                    Rel { rows, schema }
                }
                Operator::Filter { input, cond } => {
                    let rel = interp.rel(input);
                    let keep = |row: &&Value| {
                        let l = interp.eval(&cond.lhs, row, &rel.schema);
                        let r = interp.eval(&cond.rhs, row, &rel.schema);
                        let ord = compare(&l, &r);
                        match cond.op {
                            CmpOp::Eq => ord.is_eq(),
                            CmpOp::Ne => ord.is_ne(),
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Ge => ord.is_ge(),
                        }
                    };
                    outcome.stages.push((0, 0));
                    Rel {
                        rows: rel.rows.iter().filter(keep).cloned().collect(),
                        schema: rel.schema.clone(),
                    }
                }
                Operator::Group { input, by } => {
                    let rel = interp.rel(input);
                    let key = |row: &Value| match by {
                        GroupBy::All => Value::CharArray("all".into()),
                        GroupBy::Field(name) => field(row, &rel.schema, name),
                    };
                    let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
                    for row in &rel.rows {
                        groups.entry(key(row)).or_default().push(row.clone());
                    }
                    outcome.stages.push((
                        rel.rows.len() as u64,
                        shuffle_bytes(&rel.rows, map_tasks, key, Value::shuffle_size),
                    ));
                    Rel {
                        rows: groups
                            .into_iter()
                            .map(|(k, bag)| Value::Tuple(vec![k, Value::Bag(bag)]))
                            .collect(),
                        schema: vec!["group".into(), input.clone()],
                    }
                }
                Operator::Distinct { input } => {
                    let rel = interp.rel(input);
                    let mut rows = rel.rows.clone();
                    rows.sort();
                    rows.dedup();
                    // The whole row is the key; the values are empty.
                    outcome.stages.push((
                        rel.rows.len() as u64,
                        shuffle_bytes(&rel.rows, map_tasks, Value::clone, |_| 0),
                    ));
                    Rel {
                        rows,
                        schema: rel.schema.clone(),
                    }
                }
                Operator::OrderBy {
                    input,
                    field: by,
                    desc,
                } => {
                    let rel = interp.rel(input);
                    let mut rows = rel.rows.clone();
                    // Stable either way: ties keep their input order.
                    rows.sort_by(|a, b| {
                        let ord = field(a, &rel.schema, by).cmp(&field(b, &rel.schema, by));
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                    Rel {
                        rows,
                        schema: rel.schema.clone(),
                    }
                }
                Operator::Limit { input, n } => {
                    let rel = interp.rel(input);
                    Rel {
                        rows: rel.rows.iter().take(*n).cloned().collect(),
                        schema: rel.schema.clone(),
                    }
                }
            };
            interp.env.insert(alias.clone(), rel);
        }
        outcome
    }
}

// ------------------------------------------------- script bit-identity

/// `Nullify(s)` → the string back, or `Null` when its length is even
/// (injects nulls into downstream columns).
struct Nullify;
impl Udf for Nullify {
    fn name(&self) -> &str {
        "Nullify"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let s = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new("Nullify", "expected one chararray"))?;
        Ok(if s.len() % 2 == 0 {
            Value::Null
        } else {
            Value::CharArray(s.to_string())
        })
    }
}

/// `Chars(s)` → bag of *bare* one-char chararrays (bag elements that
/// are not tuples — FLATTEN appends the value itself).
struct Chars;
impl Udf for Chars {
    fn name(&self) -> &str {
        "Chars"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let s = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new("Chars", "expected one chararray"))?;
        Ok(Value::bag(
            s.chars()
                .map(|c| Value::CharArray(c.to_string()))
                .collect::<Vec<_>>(),
        ))
    }
}

/// `MixBag(s)` → either a bag of `(char, position)` tuples (strings
/// starting a–m) or the bare string itself (n–z, empty): a
/// mixed-type expression output that defeats typed columnarization
/// and, under FLATTEN, produces ragged output rows.
struct MixBag;
impl Udf for MixBag {
    fn name(&self) -> &str {
        "MixBag"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let s = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new("MixBag", "expected one chararray"))?;
        Ok(match s.bytes().next() {
            Some(c) if c <= b'm' => Value::bag(
                s.chars()
                    .enumerate()
                    .map(|(i, c)| {
                        Value::tuple([Value::CharArray(c.to_string()), Value::Long(i as i64)])
                    })
                    .collect::<Vec<_>>(),
            ),
            _ => Value::CharArray(s.to_string()),
        })
    }
}

/// `BareLines` → a loader that returns a bag of *bare* chararrays,
/// one per line, instead of 1-field tuples.
struct BareLines;
impl Udf for BareLines {
    fn name(&self) -> &str {
        "BareLines"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let bytes = args
            .first()
            .and_then(Value::as_bytes)
            .ok_or_else(|| UdfError::new("BareLines", "expected file bytes"))?;
        Ok(Value::bag(
            String::from_utf8_lossy(bytes)
                .lines()
                .map(|l| Value::CharArray(l.to_string()))
                .collect::<Vec<_>>(),
        ))
    }
}

fn test_registry() -> UdfRegistry {
    let mut r = UdfRegistry::with_builtins();
    r.register(Arc::new(Nullify));
    r.register(Arc::new(Chars));
    r.register(Arc::new(MixBag));
    r.register(Arc::new(BareLines));
    r
}

/// Build a random script from an op list. Every op keeps field `f0`
/// addressable; ops that require a non-null chararray are remapped to
/// a safe op once nulls may be present.
fn build_script(ops: &[u8], limit: usize) -> String {
    let mut script = String::from("A = LOAD '/in.txt' AS (f0:chararray);\n");
    let mut cur = "A".to_string();
    let mut maybe_null = false;
    for (i, &op) in ops.iter().enumerate() {
        let next = format!("R{i}");
        let op = if maybe_null && matches!(op, 0 | 1 | 2 | 3 | 8 | 13) {
            4 // string UDFs would error on null; filter instead
        } else {
            op
        };
        match op {
            0 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE UPPER(f0) AS (f0:chararray);\n"
            )),
            1 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray);\n"
            )),
            2 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(Chars(f0)) AS (f0:chararray);\n"
            )),
            3 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long);\n"
            )),
            4 => script.push_str(&format!("{next} = FILTER {cur} BY f0 >= 'm';\n")),
            5 => {
                script.push_str(&format!("G{i} = GROUP {cur} BY f0;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE group AS (f0:chararray), COUNT({cur});\n"
                ));
            }
            6 => script.push_str(&format!("{next} = DISTINCT {cur};\n")),
            7 => {
                script.push_str(&format!("O{i} = ORDER {cur} BY f0 DESC;\n"));
                script.push_str(&format!("{next} = LIMIT O{i} {limit};\n"));
            }
            8 => {
                script.push_str(&format!(
                    "{next} = FOREACH {cur} GENERATE Nullify(f0) AS (f0:chararray);\n"
                ));
                maybe_null = true;
            }
            // LIMIT of whatever order the relation happens to have.
            9 => script.push_str(&format!("{next} = LIMIT {cur} {limit};\n")),
            // One global bag, flattened back into its rows.
            10 => {
                script.push_str(&format!("G{i} = GROUP {cur} ALL;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE FLATTEN({cur}) AS (f0:chararray);\n"
                ));
            }
            // Keyed bags flattened beside their key: rows come back
            // in key order, one trailing field wider.
            11 => {
                script.push_str(&format!("G{i} = GROUP {cur} BY f0;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE FLATTEN({cur}) AS (f0:chararray), group;\n"
                ));
            }
            // Constants broadcast beside a field.
            12 => script.push_str(&format!("{next} = FOREACH {cur} GENERATE f0, 'k', 7;\n")),
            // Two bags flattened in one GENERATE: a cross product
            // whose row order the odometer decides.
            _ => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray), \
                 FLATTEN(Chars(f0)) AS (f1:chararray);\n"
            )),
        }
        cur = next;
    }
    script.push_str(&format!("STORE {cur} INTO '/out.txt';\n"));
    script
}

/// Map tasks per stage: the executor's setting, and the chunking the
/// reference prices shuffles by.
const MAP_TASKS: usize = 3;

/// Run one script on the executor; return what it stored and the
/// per-stage `(shuffled_pairs, shuffled_bytes)`.
fn run_engine(script_src: &str, input: &str) -> reference::Outcome {
    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 1024,
            replication: 1,
            nodes: 2,
        })
        .unwrap(),
    );
    dfs.put("/in.txt", input.as_bytes().to_vec(), false)
        .unwrap();
    let script = parse_script(script_src, &HashMap::new()).unwrap();
    let mut runner = PigRunner::new(Arc::clone(&dfs), test_registry());
    runner.num_map_tasks = MAP_TASKS;
    runner.num_reducers = 2;
    runner.workers = Some(2);
    let report = runner.run(&script).unwrap();
    reference::Outcome {
        stored: report
            .stored
            .iter()
            .map(|path| {
                let text = String::from_utf8(dfs.read(path).unwrap().to_vec()).unwrap();
                (path.clone(), text)
            })
            .collect(),
        stages: report
            .pipeline
            .stages()
            .iter()
            .map(|s| (s.shuffled_pairs, s.shuffled_bytes))
            .collect(),
    }
}

/// One script through the executor and the reference; asserts equal
/// stored bytes and shuffle statistics and returns the stored text,
/// `STORE` after `STORE`.
fn assert_matches_reference(script_src: &str, input: &str) -> String {
    let script = parse_script(script_src, &HashMap::new()).unwrap();
    let expect = reference::run(&script, input.as_bytes(), &test_registry(), MAP_TASKS);
    let got = run_engine(script_src, input);
    assert_eq!(got, expect, "executor left the reference on:\n{script_src}");
    got.stored.into_iter().map(|(_, text)| text).collect()
}

proptest! {
    /// Randomized scripts over randomized inputs: the executor must
    /// store the reference's bytes and record its shuffle statistics
    /// (pairs, bytes) stage for stage.
    #[test]
    fn engines_bit_identical_on_random_scripts(
        lines in proptest::collection::vec("[a-o ]{0,6}", 0..10),
        ops in proptest::collection::vec(0u8..14, 0..5),
        limit in 0usize..7,
    ) {
        assert_matches_reference(&build_script(&ops, limit), &lines.join("\n"));
    }
}

// ------------------------------------------------ directed flatten edges

#[test]
fn flatten_empty_bags_drop_rows() {
    // TOKENIZE('') is an empty bag: FLATTEN must drop the row.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray);\n\
         STORE B INTO '/out.txt';",
        "a b\n\nc\n\n",
    );
    assert_eq!(out, "(a)\n(b)\n(c)\n");
}

#[test]
fn flatten_bare_elements_append_single_field() {
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(Chars(f0)) AS (f0:chararray);\n\
         STORE B INTO '/out.txt';",
        "ab\nc\n",
    );
    assert_eq!(out, "(a)\n(b)\n(c)\n");
}

#[test]
fn flatten_mixed_outputs_produce_ragged_rows() {
    // 'ab' flattens to (char, pos) pairs; 'xy' stays a bare string —
    // output rows have arity 2 and 1 in the same relation.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long);\n\
         STORE B INTO '/out.txt';",
        "ab\nxy\n",
    );
    assert_eq!(out, "(a,0)\n(b,1)\n(xy)\n");
}

#[test]
fn flatten_cross_product_order_is_row_major() {
    // Two flattened bags in one GENERATE: later items vary fastest.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray), FLATTEN(TOKENIZE('x y')) AS (f1:chararray);\n\
         STORE B INTO '/out.txt';",
        "a b\n",
    );
    assert_eq!(out, "(a,x)\n(a,y)\n(b,x)\n(b,y)\n");
}

#[test]
fn nulls_survive_group_and_store() {
    // Nullify makes every even-length string Null; nulls group
    // together and display as the empty string.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         N = FOREACH A GENERATE Nullify(f0) AS (f0:chararray);\n\
         G = GROUP N BY f0;\n\
         C = FOREACH G GENERATE group AS (f0:chararray), COUNT(N);\n\
         STORE C INTO '/out.txt';",
        "aa\nbcd\nee\nbcd\n",
    );
    assert_eq!(out, "(,2)\n(bcd,2)\n");
}

#[test]
fn flatten_constant_tuple_appends_fields() {
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE f0, FLATTEN(TOKENIZE('k v')) AS (f1:chararray, f2:chararray);\n\
         STORE B INTO '/out.txt';",
        "r\n",
    );
    assert_eq!(out, "(r,k)\n(r,v)\n");
}

#[test]
fn word_count_order_limit() {
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (line:chararray);\n\
         W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (word:chararray);\n\
         G = GROUP W BY word;\n\
         C = FOREACH G GENERATE group, COUNT(W);\n\
         O = ORDER C BY group;\n\
         L = LIMIT O 3;\n\
         STORE L INTO '/out.txt';",
        "c a b\nb a\nz\n",
    );
    assert_eq!(out, "(a,2)\n(b,2)\n(c,1)\n");
}

#[test]
fn bare_loader_values_load_as_one_column() {
    // A loader that returns bare values, not tuples: each loads as a
    // 1-field tuple, so the untransformed relation stores as `(v)`
    // and every operator sees field `f0`.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' USING BareLines;\n\
         U = FOREACH A GENERATE UPPER(f0), f0;\n\
         G = GROUP A BY f0;\n\
         C = FOREACH G GENERATE group, COUNT(A);\n\
         D = DISTINCT A;\n\
         STORE U INTO '/upper.txt';\n\
         STORE C INTO '/counts.txt';\n\
         STORE D INTO '/distinct.txt';\n\
         STORE A INTO '/out.txt';",
        "b\na\nb\nc\n",
    );
    assert_eq!(
        out,
        "(B,b)\n(A,a)\n(B,b)\n(C,c)\n\
         (a,1)\n(b,2)\n(c,1)\n\
         (a)\n(b)\n(c)\n\
         (b)\n(a)\n(b)\n(c)\n"
    );
}

// ------------------------------------------------- batch result contract

/// `OneRow(s)` → `s`, but its `eval_batch` override returns one row
/// whatever the chunk's length: a broken override.
struct OneRow;
impl Udf for OneRow {
    fn name(&self) -> &str {
        "OneRow"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
    fn eval_batch(&self, _args: &[BatchArg<'_>], _rows: usize) -> Result<BatchOut, UdfError> {
        Ok(BatchOut::Rows(vec![Value::Null]))
    }
}

#[test]
fn short_batch_result_is_an_error_naming_the_udf() {
    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 1024,
            replication: 1,
            nodes: 2,
        })
        .unwrap(),
    );
    dfs.put("/in.txt", &b"a\nb\nc\n"[..], false).unwrap();
    let script = parse_script(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE OneRow(f0);\n\
         STORE B INTO '/out.txt';",
        &HashMap::new(),
    )
    .unwrap();
    let mut registry = test_registry();
    registry.register(Arc::new(OneRow));
    let mut runner = PigRunner::new(dfs, registry);
    // One chunk of three rows.
    runner.num_map_tasks = 1;
    runner.workers = Some(1);
    let err = runner.run(&script).unwrap_err().to_string();
    assert!(
        err.contains("UDF OneRow failed: eval_batch returned 1 rows for 3 input rows"),
        "{err}"
    );
}
