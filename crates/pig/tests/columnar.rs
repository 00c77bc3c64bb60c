//! Property tests for the columnar data plane.
//!
//! Two invariants back the executor's correctness claim:
//!
//! 1. **Representation fidelity** — `ColumnBatch::from_rows(rows)`
//!    followed by `to_rows()` reproduces rectangular input *exactly*
//!    (variant, nulls, nested bag order), and the columnar shuffle
//!    pricing `row_shuffle_size(i)` equals the boxed row's
//!    `shuffle_size()`. Slicing and gathering preserve both; rows of
//!    unequal width do not columnarize.
//! 2. **Bit-identity with a reference** — randomized scripts over
//!    randomized inputs store the bytes, and record the per-stage
//!    `(shuffled_pairs, shuffled_bytes)`, that the engine-free
//!    [`reference`] interpreter below computes, or fail on the same
//!    statement, including the nasty FLATTEN corners (empty bags,
//!    bare non-tuple bag elements, mixed bag/scalar expression
//!    outputs, nulls, an `AS` clause that names another number of
//!    fields than an item yields), at any map-task count. The
//!    reference runs no job and shares no code with `exec.rs`: boxed
//!    `Vec<Value>` rows over the parser's public AST, one-row UDF
//!    calls bound through the registry's binder as the executor binds
//!    them, and the shuffle pricing `engine.rs` documents, the only
//!    thing it chunks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::ShuffleSized;
use mrmc_pig::exec::{ItemFault, PigError};
use mrmc_pig::udf::{BatchOut, Udf, UdfError, Window};
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

/// Rows as relations hold them: tuples of `width` arbitrary values.
fn rows_of(width: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        proptest::collection::vec(value(), width).prop_map(Value::Tuple),
        0..12,
    )
}

/// Rows of one width from 0 to 4.
fn rows() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![rows_of(0), rows_of(1), rows_of(2), rows_of(3), rows_of(4)]
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
/// decoded from a seed whose bits pick nulls and lengths. Parts built
/// from these rows share one typed layout, so `concat` appends their
/// buffers instead of degrading to `Dyn`.
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

    /// `concat` is row concatenation, whatever the parts of one width
    /// look like: windows cut by `slice` (a shared buffer of which the
    /// part owns a sub-range), nullable string/bytes/bag columns, bags
    /// of bags, all-null parts, empty parts, and arbitrary (mostly
    /// `Dyn`) parts mixed in between the typed ones.
    #[test]
    fn concat_appends_part_rows(
        typed in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..7), 0..5),
        wild in proptest::collection::vec(rows_of(5), 0..3),
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

    /// `from_rows` refuses exactly the rows no rectangular batch
    /// holds: a row that is not a tuple, or tuples of two widths.
    #[test]
    fn from_rows_needs_tuples_of_one_width(
        rows in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(value(), 0..3).prop_map(Value::Tuple),
                proptest::collection::vec(value(), 2).prop_map(Value::Tuple),
                value(),
            ],
            0..6,
        ),
    ) {
        let widths: Vec<Option<usize>> = rows.iter().map(|r| r.as_tuple().map(<[Value]>::len)).collect();
        let refused = widths.contains(&None) || widths.windows(2).any(|w| w[0] != w[1]);
        let batch = ColumnBatch::from_rows(&rows);
        prop_assert_eq!(batch.is_none(), refused, "{:?}", rows);
        if let Some(batch) = batch {
            assert_batch_holds(&batch, &rows);
        }
    }
}

// ------------------------------------------------- reference interpreter

/// An engine-free interpreter of the supported Pig subset: the oracle
/// the executor is compared against. Relations are `Vec<Value>` of
/// tuples, UDFs are bound and called one row at a time
/// ([`reference::call`]),
/// nothing is chunked, shuffled or run as a job.
mod reference {
    use std::collections::{BTreeMap, HashMap};

    use mrmc_mapreduce::wire::uvarint_len;
    use mrmc_mapreduce::{chunk_ranges, ShuffleSized};
    use mrmc_pig::parser::{Expr, GenItem, GroupBy, Operator};
    use mrmc_pig::{Column, Script, Statement, UdfRegistry, Value, Window};

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
        /// runs: FOREACH is map-only (nothing shuffled), GROUP
        /// shuffles, LOAD and STORE run on the driver.
        pub stages: Vec<(u64, u64)>,
    }

    /// What shuffling `rows` keyed by `key` costs, as `engine.rs`
    /// documents it: each of the `map_tasks` map tasks groups its own
    /// contiguous chunk, and a group is the key once, a varint value
    /// count, then each row.
    fn shuffle_bytes(rows: &[Value], map_tasks: usize, key: impl Fn(&Value) -> Value) -> u64 {
        let mut bytes = 0;
        for task in chunk_ranges(rows.len(), map_tasks) {
            let mut groups: BTreeMap<Value, (u64, usize)> = BTreeMap::new();
            for row in &rows[task] {
                let group = groups.entry(key(row)).or_default();
                group.0 += 1;
                group.1 += row.shuffle_size();
            }
            for (key, (count, values)) in groups {
                bytes += (key.shuffle_size() + uvarint_len(count) + values) as u64;
            }
        }
        bytes
    }

    /// One argument of a one-row call: a constant, or the row's value
    /// of a column.
    pub enum Arg {
        Const(Value),
        Column(Value),
    }

    /// UDF `name` of `registry` on one row: bound at a call site whose
    /// constants are `args`' constants, then evaluated over one-row
    /// columns of the rest.
    pub fn call(registry: &UdfRegistry, name: &str, args: &[Arg]) -> Value {
        let consts: Vec<Option<&Value>> = args
            .iter()
            .map(|arg| match arg {
                Arg::Const(v) => Some(v),
                Arg::Column(_) => None,
            })
            .collect();
        let udf = registry.get(name).expect("registered UDF")(&consts);
        let udf = udf.unwrap_or_else(|e| panic!("{e}"));
        let cols: Vec<Column> = args
            .iter()
            .filter_map(|arg| match arg {
                Arg::Column(v) => Some(Column::Dyn(vec![v.clone()])),
                Arg::Const(_) => None,
            })
            .collect();
        let windows: Vec<Window<'_>> = cols
            .iter()
            .map(|col| Window {
                col,
                start: 0,
                len: 1,
            })
            .collect();
        let out = udf.eval(&windows, 1).unwrap_or_else(|e| panic!("{e}"));
        out.into_row(0).expect("one row")
    }

    fn fields(row: &Value) -> &[Value] {
        row.as_tuple().expect("relation rows are tuples")
    }

    fn field(row: &Value, schema: &[String], name: &str) -> Value {
        let i = schema
            .iter()
            .position(|f| f == name)
            .unwrap_or_else(|| panic!("no field {name} in {schema:?}"));
        fields(row)[i].clone()
    }

    /// One input row through `GENERATE`, from its items' `values`:
    /// every item contributes a list of alternatives (a flattened bag
    /// one per element, in order, a bare element one field; a
    /// flattened tuple its fields; anything else exactly one field),
    /// and the output is their cross product with the first item
    /// varying slowest. `None` when an item flattens a null, or when
    /// an alternative holds another number of fields than the item's
    /// `AS` clause names (one when it names none), even where another
    /// item's empty bag leaves the row without output.
    fn generate(items: &[GenItem], values: Vec<Value>) -> Option<Vec<Value>> {
        let mut out: Vec<Vec<Value>> = vec![Vec::new()];
        for (item, value) in items.iter().zip(values) {
            let alternatives: Vec<Vec<Value>> = match value {
                Value::Null if item.flatten => return None,
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
            let named = item.schema.len().max(1);
            if alternatives.iter().any(|alt| alt.len() != named) {
                return None;
            }
            out = out
                .iter()
                .flat_map(|base| {
                    alternatives
                        .iter()
                        .map(move |alt| [&base[..], alt].concat())
                })
                .collect();
        }
        Some(out.into_iter().map(Value::Tuple).collect())
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

        /// `expr` on `row`: a constant (a literal, or a scalar
        /// reference), or the row's value of a column.
        fn eval(&self, expr: &Expr, row: &Value, schema: &[String]) -> Arg {
            match expr {
                Expr::LitLong(v) => Arg::Const(Value::Long(*v)),
                Expr::LitDouble(v) => Arg::Const(Value::Double(*v)),
                Expr::LitString(s) => Arg::Const(Value::CharArray(s.clone())),
                Expr::Field(name) => Arg::Column(field(row, schema, name)),
                // A relation of no row is a null scalar, as in Pig.
                Expr::Dotted { relation, field: f } => {
                    Arg::Const(match &self.rel(relation).rows[..] {
                        [] => Value::Null,
                        [one] => field(one, &self.rel(relation).schema, f),
                        _ => panic!("{relation} is not a scalar"),
                    })
                }
                Expr::Udf { name, args } => {
                    let args: Vec<Arg> = args.iter().map(|a| self.eval(a, row, schema)).collect();
                    Arg::Column(call(self.registry, name, &args))
                }
            }
        }

        /// `FOREACH`: `None` when an item breaks its `AS` contract.
        fn foreach(&self, rel: &Rel, items: &[GenItem]) -> Option<Vec<Value>> {
            let mut rows = Vec::new();
            for row in &rel.rows {
                let values = items
                    .iter()
                    .map(|item| match self.eval(&item.expr, row, &rel.schema) {
                        Arg::Const(v) | Arg::Column(v) => v,
                    })
                    .collect();
                rows.extend(generate(items, values)?);
            }
            Some(rows)
        }
    }

    /// Interpret `script`, every `LOAD` reading `input`; `Err` names
    /// the statement that fails.
    pub fn run(
        script: &Script,
        input: &[u8],
        registry: &UdfRegistry,
        map_tasks: usize,
    ) -> Result<Outcome, String> {
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
                    let file = Value::ByteArray(input.to_vec().into());
                    let loaded = call(registry, loader, &[Arg::Column(file)]);
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
                    let schema: Vec<String> = if schema.is_empty() {
                        let width = rows.first().map_or(1, |r| fields(r).len());
                        (0..width).map(|i| format!("f{i}")).collect()
                    } else {
                        schema.iter().map(|f| f.name.clone()).collect()
                    };
                    if rows.iter().any(|r| fields(r).len() != schema.len()) {
                        return Err(alias.clone());
                    }
                    Rel { rows, schema }
                }
                Operator::Foreach { input, items } => {
                    let rows = interp
                        .foreach(interp.rel(input), items)
                        .ok_or_else(|| alias.clone())?;
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
                        shuffle_bytes(&rel.rows, map_tasks, key),
                    ));
                    Rel {
                        rows: groups
                            .into_iter()
                            .map(|(k, bag)| Value::Tuple(vec![k, Value::Bag(bag)]))
                            .collect(),
                        schema: vec!["group".into(), input.clone()],
                    }
                }
            };
            interp.env.insert(alias.clone(), rel);
        }
        Ok(outcome)
    }
}

// ------------------------------------------------- script bit-identity

/// Register the test UDF `name` of one chararray argument, whose row
/// body is `body`.
fn register_str(r: &mut UdfRegistry, name: &'static str, body: fn(&str) -> Value) {
    r.register_rows(name, move |args| {
        let s = args.first().and_then(Value::as_str);
        s.map(body)
            .ok_or_else(|| UdfError::new(name, "expected one chararray"))
    });
}

/// `BareLines` → a loader that returns a bag of *bare* chararrays,
/// one per line, instead of 1-field tuples.
fn bare_lines(args: &[Value]) -> Result<Value, UdfError> {
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

/// The bag of `s`'s characters as bare chararrays.
fn chars(s: &str) -> Value {
    Value::Bag(s.chars().map(|c| Value::CharArray(c.into())).collect())
}

fn test_registry() -> UdfRegistry {
    let mut r = UdfRegistry::with_builtins();
    // `Nullify(s)` → the string back, or `Null` when its length is
    // even (injects nulls into downstream columns).
    register_str(&mut r, "Nullify", |s| match s.len() % 2 {
        0 => Value::Null,
        _ => Value::CharArray(s.into()),
    });
    // `Chars(s)` → bag of *bare* one-char chararrays (bag elements
    // that are not tuples — FLATTEN appends the value itself).
    register_str(&mut r, "Chars", chars);
    // `CharsOrWord(s)` → `Chars(s)` for strings starting a–m, else the
    // string itself: rows of two shapes that flatten to one field.
    register_str(&mut r, "CharsOrWord", |s| match s.bytes().next() {
        Some(c) if c <= b'm' => chars(s),
        _ => Value::CharArray(s.into()),
    });
    // `MixBag(s)` → either a bag of `(char, position)` tuples (strings
    // starting a–m) or the bare string itself (n–z, empty): a
    // mixed-type expression output that defeats typed
    // columnarization, and whose plain rows yield one field where
    // its `AS` clause names two.
    register_str(&mut r, "MixBag", |s| match s.bytes().next() {
        Some(c) if c <= b'm' => Value::Bag(
            s.chars()
                .enumerate()
                .map(|(i, c)| Value::tuple([Value::CharArray(c.into()), Value::Long(i as i64)]))
                .collect(),
        ),
        _ => Value::CharArray(s.into()),
    });
    // `Pair(s)` → the tuple `(s, length of s)`.
    register_str(&mut r, "Pair", |s| {
        Value::tuple([Value::CharArray(s.into()), Value::Long(s.len() as i64)])
    });
    r.register_rows("BareLines", bare_lines);
    r
}

/// Build a random script from an op list of shapes `0..13`. Every op
/// keeps field `f0` addressable and names as many fields as it
/// yields; ops that require a non-null chararray are remapped to a
/// null-tolerant shape once nulls may be present.
fn build_script(ops: &[u8]) -> String {
    let mut script = String::from("A = LOAD '/in.txt' AS (f0:chararray);\n");
    let mut cur = "A".to_string();
    // Fields of `cur`.
    let mut width = 1;
    let mut maybe_null = false;
    for (i, &op) in ops.iter().enumerate() {
        let next = format!("R{i}");
        let names: Vec<String> = (0..width).map(|j| format!("f{j}")).collect();
        let op = if maybe_null && matches!(op, 0 | 1 | 2 | 3 | 5 | 9 | 10 | 11 | 12) {
            6 // string UDFs would error on null; regroup instead
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
            // Fails unless every row's string starts a–m.
            3 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long);\n"
            )),
            4 => {
                script.push_str(&format!("G{i} = GROUP {cur} BY f0;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE group AS (f0:chararray), COUNT({cur});\n"
                ));
            }
            5 => {
                script.push_str(&format!(
                    "{next} = FOREACH {cur} GENERATE Nullify(f0) AS (f0:chararray);\n"
                ));
                maybe_null = true;
            }
            // One global bag, flattened back into its rows.
            6 => {
                script.push_str(&format!("G{i} = GROUP {cur} ALL;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE FLATTEN({cur}) AS ({});\n",
                    names.join(", ")
                ));
            }
            // Keyed bags flattened beside their key: rows come back
            // in key order, one trailing field wider.
            7 => {
                script.push_str(&format!("G{i} = GROUP {cur} BY f0;\n"));
                script.push_str(&format!(
                    "{next} = FOREACH G{i} GENERATE FLATTEN({cur}) AS ({}), group;\n",
                    names.join(", ")
                ));
            }
            // Constants broadcast beside a field.
            8 => script.push_str(&format!("{next} = FOREACH {cur} GENERATE f0, 'k', 7;\n")),
            // Two bags flattened in one GENERATE: a cross product
            // whose row order the odometer decides.
            9 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray), \
                 FLATTEN(Chars(f0)) AS (f1:chararray);\n"
            )),
            // Bags, then tuples, kept as one field and flattened by
            // the next statement.
            10 | 11 => {
                let (udf, names) = if op == 10 {
                    ("TOKENIZE", "f0")
                } else {
                    ("Pair", "f0, f1")
                };
                script.push_str(&format!(
                    "K{i} = FOREACH {cur} GENERATE {udf}(f0) AS (k);\n"
                ));
                script.push_str(&format!(
                    "{next} = FOREACH K{i} GENERATE FLATTEN(k) AS ({names});\n"
                ));
            }
            // Bags on some rows, plain values on others, one field
            // each.
            12 => script.push_str(&format!(
                "{next} = FOREACH {cur} GENERATE FLATTEN(CharsOrWord(f0)) AS (f0:chararray);\n"
            )),
            _ => unreachable!("ops are drawn from 0..13"),
        }
        width = match op {
            0 | 1 | 2 | 5 | 10 | 12 => 1,
            3 | 4 | 9 | 11 => 2,
            6 => width,
            7 => width + 1,
            _ => 3,
        };
        cur = next;
    }
    script.push_str(&format!("STORE {cur} INTO '/out.txt';\n"));
    script
}

/// Map tasks per stage every directed test runs at: the executor's
/// setting, and the chunking the reference prices shuffles by. What a
/// script stores, or whether it fails, must not depend on it.
const TASK_COUNTS: [usize; 2] = [1, 3];

/// A small DFS holding `input` at `/in.txt`.
fn dfs_with(input: &str) -> Arc<Dfs> {
    let config = DfsConfig {
        block_size: 1024,
        replication: 1,
        nodes: 2,
    };
    let dfs = Arc::new(Dfs::new(config).unwrap());
    dfs.put("/in.txt", input.as_bytes().to_vec(), false)
        .unwrap();
    dfs
}

/// Run one script on the executor at `map_tasks` map tasks per stage;
/// return what it stored and the per-stage `(shuffled_pairs,
/// shuffled_bytes)`, or its error.
fn run_engine(
    script_src: &str,
    input: &str,
    map_tasks: usize,
) -> Result<reference::Outcome, String> {
    let dfs = dfs_with(input);
    let script = parse_script(script_src, &HashMap::new()).unwrap();
    let mut runner = PigRunner::new(Arc::clone(&dfs), test_registry());
    runner.num_map_tasks = map_tasks;
    runner.num_reducers = 2;
    runner.workers = Some(2);
    let report = runner.run(&script).map_err(|e| e.to_string())?;
    Ok(reference::Outcome {
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
    })
}

/// One script through the executor and the reference at `map_tasks`
/// map tasks. Either both store the same bytes and record the same
/// shuffle statistics (`Ok` of the stored text, `STORE` after
/// `STORE`), or both fail on the same statement (`Err` of the
/// executor's message).
fn engines_agree(script_src: &str, input: &str, map_tasks: usize) -> Result<String, String> {
    let script = parse_script(script_src, &HashMap::new()).unwrap();
    let expect = reference::run(&script, input.as_bytes(), &test_registry(), map_tasks);
    match (run_engine(script_src, input, map_tasks), expect) {
        (Ok(got), Ok(expect)) => {
            assert_eq!(got, expect, "executor left the reference on:\n{script_src}");
            Ok(got.stored.into_iter().map(|(_, text)| text).collect())
        }
        (Err(err), Err(alias)) => {
            assert!(
                err.contains(&format!("relation {alias} item ")),
                "the reference fails on {alias}, the executor with {err:?} on:\n{script_src}"
            );
            Err(err)
        }
        (got, expect) => panic!("executor {got:?}, reference {expect:?} on:\n{script_src}"),
    }
}

/// [`engines_agree`] on a script both must run, to the same stored
/// text at every count of [`TASK_COUNTS`].
fn assert_matches_reference(script_src: &str, input: &str) -> String {
    let [first, rest @ ..] = TASK_COUNTS.map(|tasks| {
        engines_agree(script_src, input, tasks).unwrap_or_else(|e| panic!("{tasks} tasks: {e}"))
    });
    assert!(rest.iter().all(|out| *out == first), "{first} vs {rest:?}");
    first
}

/// [`engines_agree`] on a script both must refuse at every count of
/// [`TASK_COUNTS`], the executor with a message that holds `expect`.
fn assert_both_fail(script_src: &str, input: &str, expect: &str) {
    for tasks in TASK_COUNTS {
        let err = engines_agree(script_src, input, tasks).expect_err("the script must fail");
        assert!(err.contains(expect), "{tasks} tasks: {err}");
    }
}

/// `A` loaded from `/in.txt`, `B = FOREACH A GENERATE {items}`, `B`
/// stored.
fn foreach_a(items: &str) -> String {
    format!(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE {items};\n\
         STORE B INTO '/out.txt';"
    )
}

/// Scripts drawn, and how many of them stored.
static DRAWN: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

proptest! {
    /// Randomized scripts over randomized inputs at a drawn map-task
    /// count: the executor must store the reference's bytes and
    /// record its shuffle statistics (pairs, bytes) stage for stage,
    /// or fail where it fails. The reference chunks nothing but its
    /// shuffle pricing, so an outcome that hangs on the chunking
    /// shows.
    fn random_scripts(
        lines in proptest::collection::vec("[a-o ]{0,6}", 0..10),
        ops in proptest::collection::vec(0u8..13, 0..5),
        map_tasks in 1usize..5,
    ) {
        let stored = engines_agree(&build_script(&ops), &lines.join("\n"), map_tasks).is_ok();
        DRAWN[usize::from(stored)].fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn engines_bit_identical_on_random_scripts() {
    random_scripts();
    // A draw that mostly fails would test the error path only.
    let [failed, stored] = DRAWN.each_ref().map(|n| n.load(Ordering::Relaxed));
    println!("{stored} of {} drawn scripts store", failed + stored);
    assert!(
        stored >= failed,
        "{stored} drawn scripts store, {failed} fail"
    );
}

// ------------------------------------------------ directed flatten edges

#[test]
fn flatten_empty_bags_drop_rows() {
    // TOKENIZE('') is an empty bag: FLATTEN must drop the row.
    let script = foreach_a("FLATTEN(TOKENIZE(f0)) AS (f0:chararray)");
    let out = assert_matches_reference(&script, "a b\n\nc\n\n");
    assert_eq!(out, "(a)\n(b)\n(c)\n");
    // Kept unflattened first: at three map tasks the blank line's
    // task holds only empty bags, so B's column merges to boxed bags.
    let script = "A = LOAD '/in.txt' AS (f0:chararray);\n\
                  B = FOREACH A GENERATE TOKENIZE(f0) AS (t);\n\
                  C = FOREACH B GENERATE FLATTEN(t) AS (w);\n\
                  STORE C INTO '/out.txt';";
    assert_eq!(
        assert_matches_reference(script, "a b\n\nc\n"),
        "(a)\n(b)\n(c)\n"
    );
}

#[test]
fn flatten_bare_elements_append_single_field() {
    let script = foreach_a("FLATTEN(Chars(f0)) AS (f0:chararray)");
    let out = assert_matches_reference(&script, "ab\nc\n");
    assert_eq!(out, "(a)\n(b)\n(c)\n");
}

#[test]
fn flatten_mixed_outputs_are_an_error() {
    // 'ab' flattens to (char, pos) pairs and 'xy' stays a bare
    // string, which yields one field where AS names two: an error
    // whether or not a map task also holds bags.
    let script = foreach_a("FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long)");
    let plain = "relation B item 0: yields 1 fields, its schema names 2";
    assert_both_fail(&script, "ab\nxy\n", plain);
    // All bags: every row yields the two fields AS names.
    let out = assert_matches_reference(&script, "ab\nc\n");
    assert_eq!(out, "(a,0)\n(b,1)\n(c,0)\n");
}

#[test]
fn flatten_of_rows_of_two_shapes_stores_at_any_task_count() {
    // 'ab' is a bag of bare chars and 'xy' the plain string, one
    // field either way: the outcome is the same whether one map task
    // holds both shapes (1 task) or each its own (3 tasks on two
    // rows).
    let script = foreach_a("FLATTEN(CharsOrWord(f0)) AS (f0:chararray)");
    let out = assert_matches_reference(&script, "ab\nxy\n");
    assert_eq!(out, "(a)\n(b)\n(xy)\n");
    let out = assert_matches_reference(&script, "ab\nxy\nab\nxy\n");
    assert_eq!(out, "(a)\n(b)\n(xy)\n(a)\n(b)\n(xy)\n");
}

#[test]
fn as_clause_names_every_field_an_item_yields() {
    // FLATTEN(B) yields B's two fields; naming one of them used to
    // shift `group` onto f1's column.
    let script = |names: &str| {
        format!(
            "A = LOAD '/in.txt' AS (f0:chararray);\n\
             B = FOREACH A GENERATE FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long);\n\
             G = GROUP B ALL;\n\
             R = FOREACH G GENERATE FLATTEN(B) AS ({names}), group;\n\
             S = FOREACH R GENERATE group;\n\
             STORE S INTO '/out.txt';"
        )
    };
    let err = "relation R item 0: yields 2 fields, its schema names 1";
    assert_both_fail(&script("f0:chararray"), "ab", err);
    let out = assert_matches_reference(&script("f0:chararray, f1:long"), "ab");
    assert_eq!(out, "(all)\n(all)\n");
}

#[test]
fn flatten_of_null_is_an_error() {
    // Nullify('ab') is null.
    let script = foreach_a("FLATTEN(Nullify(f0)) AS (f0:chararray)");
    assert_both_fail(&script, "ab\nc\n", "relation B item 0: FLATTEN of a null");
}

#[test]
fn scalar_reference_to_no_row_is_null() {
    // TOKENIZE of blank lines leaves W, and so I, without a row.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         W = FOREACH A GENERATE FLATTEN(TOKENIZE(f0)) AS (w:chararray);\n\
         I = GROUP W ALL;\n\
         B = FOREACH A GENERATE f0, I.W;\n\
         STORE B INTO '/out.txt';",
        " \n\n",
    );
    assert_eq!(out, "( ,)\n(,)\n");
}

#[test]
fn tuples_and_bags_flatten_from_a_column_and_from_a_scalar() {
    // Unflattened, `Pair`'s tuples are one boxed field, which a later
    // FLATTEN spreads; `J.p` is one such tuple as a scalar, and `G.A`
    // the one bag of `GROUP A ALL`, crossed with every row.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         P = FOREACH A GENERATE Pair(f0) AS (p);\n\
         Q = FOREACH P GENERATE FLATTEN(p) AS (s, n);\n\
         G = GROUP A ALL;\n\
         J = FOREACH G GENERATE Pair(group) AS (p), COUNT(A);\n\
         D = FOREACH A GENERATE f0, FLATTEN(J.p) AS (s, n);\n\
         E = FOREACH A GENERATE f0, FLATTEN(G.A) AS (g0:chararray);\n\
         STORE Q INTO '/q.txt';\n\
         STORE J INTO '/j.txt';\n\
         STORE D INTO '/d.txt';\n\
         STORE E INTO '/e.txt';",
        "ab\nc\n",
    );
    assert_eq!(
        out,
        "(ab,2)\n(c,1)\n((all,3),2)\n(ab,all,3)\n(c,all,3)\n(ab,ab)\n(ab,c)\n(c,ab)\n(c,c)\n"
    );
}

#[test]
fn flatten_cross_product_order_is_row_major() {
    // Two flattened bags in one GENERATE: later items vary fastest.
    let script = foreach_a(
        "FLATTEN(TOKENIZE(f0)) AS (f0:chararray), FLATTEN(TOKENIZE('x y')) AS (f1:chararray)",
    );
    let out = assert_matches_reference(&script, "a b\n");
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
    let script = foreach_a("f0, FLATTEN(TOKENIZE('k v')) AS (f1:chararray)");
    let out = assert_matches_reference(&script, "r\n");
    assert_eq!(out, "(r,k)\n(r,v)\n");
}

#[test]
fn word_count() {
    // GROUP BY hands its groups back in key order.
    let out = assert_matches_reference(
        "A = LOAD '/in.txt' AS (line:chararray);\n\
         W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (word:chararray);\n\
         G = GROUP W BY word;\n\
         C = FOREACH G GENERATE group, COUNT(W);\n\
         STORE C INTO '/out.txt';",
        "c a b\nb a\nz\n",
    );
    assert_eq!(out, "(a,2)\n(b,2)\n(c,1)\n(z,1)\n");
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
         K = FOREACH G GENERATE group;\n\
         STORE U INTO '/upper.txt';\n\
         STORE C INTO '/counts.txt';\n\
         STORE K INTO '/keys.txt';\n\
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
    // An `AS` clause wider than the loader's rows.
    let script = "A = LOAD '/in.txt' USING BareLines AS (f0, f1);";
    assert_both_fail(
        script,
        "b\n",
        "relation A item 0: yields 1 fields, its schema names 2",
    );
}

// ------------------------------------------------- batch result contract

/// `OneRow(s)` returns one row whatever the chunk's length: a broken
/// UDF.
struct OneRow;
impl Udf for OneRow {
    fn name(&self) -> &str {
        "OneRow"
    }
    fn eval(&self, _cols: &[Window<'_>], _rows: usize) -> Result<BatchOut, UdfError> {
        Ok(BatchOut::Rows(vec![Value::Null]))
    }
}

/// The test registry with `OneRow` bound to every call site.
fn one_row_registry() -> UdfRegistry {
    let mut registry = test_registry();
    registry.register("OneRow", |_| Ok(Arc::new(OneRow)));
    registry
}

#[test]
fn short_batch_result_is_an_error_naming_the_udf() {
    let dfs = dfs_with("a\nb\nc\n");
    let script = parse_script(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE OneRow(f0);\n\
         STORE B INTO '/out.txt';",
        &HashMap::new(),
    )
    .unwrap();
    let mut runner = PigRunner::new(dfs, one_row_registry());
    // One chunk of three rows.
    runner.num_map_tasks = 1;
    runner.workers = Some(1);
    let err = runner.run(&script).unwrap_err().to_string();
    assert!(
        err.contains("UDF OneRow failed: returned 1 rows for 3 input rows"),
        "{err}"
    );
}

#[test]
fn foreach_failures_come_back_typed() {
    let run = |script: &str, input: &str, registry: UdfRegistry| {
        let script = parse_script(script, &HashMap::new()).unwrap();
        let mut runner = PigRunner::new(dfs_with(input), registry);
        runner.num_map_tasks = 2;
        runner.workers = Some(2);
        runner.run(&script).unwrap_err()
    };
    // 'xy' yields one field where AS names two.
    let script = foreach_a("FLATTEN(MixBag(f0)) AS (f0:chararray, f1:long)");
    match run(&script, "ab\nxy\n", test_registry()) {
        PigError::Item {
            relation,
            item: 0,
            fault:
                ItemFault::Width {
                    yielded: 1,
                    named: 2,
                },
        } => assert_eq!(relation, "B"),
        other => panic!("expected a width fault, got {other:?}"),
    }
    match run(&foreach_a("OneRow(f0)"), "a\nb\nc\nd\n", one_row_registry()) {
        PigError::Udf(e) => assert_eq!(e.udf, "OneRow"),
        other => panic!("expected a UDF failure, got {other:?}"),
    }
}
