//! Property tests for the columnar data plane.
//!
//! Two invariants back the columnar engine's correctness claim:
//!
//! 1. **Representation fidelity** — `ColumnBatch::from_rows(rows)`
//!    followed by `to_rows()` reproduces the input *exactly* (variant,
//!    nulls, nested bag order, tuple arity), and the columnar shuffle
//!    pricing `row_shuffle_size(i)` equals the boxed row's
//!    `shuffle_size()`. Slicing and gathering preserve both.
//! 2. **Engine bit-identity** — randomized scripts over randomized
//!    inputs store byte-identical outputs and record identical shuffle
//!    statistics on the row and columnar engines, including the nasty
//!    FLATTEN corners (empty bags, bare non-tuple bag elements,
//!    mixed bag/scalar expression outputs, nulls, ragged tuples).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_mapreduce::ShuffleSized;
use mrmc_pig::exec::PigEngine;
use mrmc_pig::udf::{Udf, UdfError};
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

fn test_registry() -> UdfRegistry {
    let mut r = UdfRegistry::with_builtins();
    r.register(Arc::new(Nullify));
    r.register(Arc::new(Chars));
    r.register(Arc::new(MixBag));
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
        let op = if maybe_null && matches!(op, 0 | 1 | 2 | 3 | 8) {
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
            _ => {
                script.push_str(&format!(
                    "{next} = FOREACH {cur} GENERATE Nullify(f0) AS (f0:chararray);\n"
                ));
                maybe_null = true;
            }
        }
        cur = next;
    }
    script.push_str(&format!("STORE {cur} INTO '/out.txt';\n"));
    script
}

/// Run one script on one engine; return the stored bytes and the
/// per-stage shuffle statistics.
fn run_engine(script_src: &str, input: &str, engine: PigEngine) -> (Vec<u8>, Vec<(u64, u64, u64)>) {
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
    let mut runner = PigRunner::new(Arc::clone(&dfs), test_registry()).with_engine(engine);
    runner.num_map_tasks = 3;
    runner.num_reducers = 2;
    runner.workers = Some(2);
    let report = runner.run(&script).unwrap();
    let stats = report
        .pipeline
        .stages()
        .iter()
        .map(|s| (s.shuffled_pairs, s.shuffled_bytes, s.shuffle_runs))
        .collect();
    (dfs.read("/out.txt").unwrap().to_vec(), stats)
}

proptest! {
    /// Randomized scripts over randomized inputs: the two engines
    /// must store byte-identical output and record identical shuffle
    /// statistics (pairs, bytes, runs) stage for stage.
    #[test]
    fn engines_bit_identical_on_random_scripts(
        lines in proptest::collection::vec("[a-o ]{0,6}", 0..10),
        ops in proptest::collection::vec(0u8..9, 0..5),
        limit in 0usize..7,
    ) {
        let input = lines.join("\n");
        let script = build_script(&ops, limit);
        let (row_out, row_stats) = run_engine(&script, &input, PigEngine::Row);
        let (col_out, col_stats) = run_engine(&script, &input, PigEngine::Columnar);
        prop_assert_eq!(
            String::from_utf8_lossy(&row_out),
            String::from_utf8_lossy(&col_out),
            "stored bytes diverged for script:\n{}",
            script
        );
        prop_assert_eq!(row_stats, col_stats, "shuffle stats diverged for script:\n{}", script);
    }
}

// ------------------------------------------------ directed flatten edges

/// One fixed script through both engines, with inputs chosen to hit a
/// specific edge; asserts byte identity and (optionally) the exact
/// expected output.
fn assert_engines_agree(script_src: &str, input: &str) -> String {
    let (row_out, _) = run_engine(script_src, input, PigEngine::Row);
    let (col_out, _) = run_engine(script_src, input, PigEngine::Columnar);
    assert_eq!(
        String::from_utf8_lossy(&row_out),
        String::from_utf8_lossy(&col_out),
        "engines diverged on:\n{script_src}"
    );
    String::from_utf8(col_out).unwrap()
}

#[test]
fn flatten_empty_bags_drop_rows() {
    // TOKENIZE('') is an empty bag: FLATTEN must drop the row.
    let out = assert_engines_agree(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray);\n\
         STORE B INTO '/out.txt';",
        "a b\n\nc\n\n",
    );
    assert_eq!(out, "(a)\n(b)\n(c)\n");
}

#[test]
fn flatten_bare_elements_append_single_field() {
    let out = assert_engines_agree(
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
    let out = assert_engines_agree(
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
    let out = assert_engines_agree(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE FLATTEN(TOKENIZE(f0)) AS (f0:chararray), FLATTEN(TOKENIZE('x y')) AS (f1:chararray);\n\
         STORE B INTO '/out.txt';",
        "a b\n",
    );
    assert_eq!(out, "(a,x)\n(a,y)\n(b,x)\n(b,y)\n");
}

#[test]
fn nulls_survive_group_and_store() {
    // Nullify makes every even-length string Null; grouping by a
    // nullable key and storing must agree between engines.
    let out = assert_engines_agree(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         N = FOREACH A GENERATE Nullify(f0) AS (f0:chararray);\n\
         G = GROUP N BY f0;\n\
         C = FOREACH G GENERATE group AS (f0:chararray), COUNT(N);\n\
         STORE C INTO '/out.txt';",
        "aa\nbcd\nee\nbcd\n",
    );
    // Null displays as the empty string; nulls group together.
    assert_eq!(out, "(,2)\n(bcd,2)\n");
}

#[test]
fn flatten_constant_tuple_appends_fields() {
    let out = assert_engines_agree(
        "A = LOAD '/in.txt' AS (f0:chararray);\n\
         B = FOREACH A GENERATE f0, FLATTEN(TOKENIZE('k v')) AS (f1:chararray, f2:chararray);\n\
         STORE B INTO '/out.txt';",
        "r\n",
    );
    assert_eq!(out, "(r,k)\n(r,v)\n");
}
