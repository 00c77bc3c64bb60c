//! Seeded mutation fuzzing of what the library parses and evaluates:
//! the Algorithm 3 script through `parse_script`, FASTA and FASTQ
//! records through `read_fasta_bytes` and `read_fastq_bytes`, and the
//! call sites and argument windows of the four columnar Algorithm 3
//! UDFs, beside directed faults of the count relation `J` hands `K`.
//! A text mutant is the valid text with a few random byte-level
//! insertions, deletions and replacements, or a truncation; a parser
//! must answer every mutant with `Ok` or its typed error. An argument
//! mutant is a valid call with values nulled, retyped, emptied or cut
//! short, an argument moved between column and constant, or arguments
//! dropped. Each is bound through the registry's binder, as the
//! executor binds it, then evaluated: the bind must return the kernel
//! or a `UdfError` naming the UDF, and the kernel `Ok` or such an
//! error. A panic fails the test. These are guards: they hold the
//! parsers and kernels to that contract, they do not exercise any
//! fixed fault.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mrmc::{algorithm3_script, register_mrmc_udfs};
use mrmc_pig::udf::UdfError;
use mrmc_pig::{parse_script, BatchOut, Column, UdfRegistry, Value, Window};
use mrmc_seqio::{read_fasta_bytes, read_fastq_bytes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an insertion or a replacement writes: the script's
/// punctuation, a parameter sigil, both quotes, a comment opener,
/// newlines, the sequence formats' markers and bases, and one
/// multi-byte character.
const ALPHABET: &[&str] = &[
    "=", "(", ")", ",", ";", ":", ".", "$", "'", "\"", "--", "\n", "\r\n", " ", ">", "@", "+", "A",
    "C", "G", "T", "N", "a", "0", "9", "é",
];

/// One mutant of `units`, the text cut into the pieces an edit moves:
/// `char`s for a script, so it stays valid UTF-8; bytes for FASTA and
/// FASTQ, so a deletion can split a multi-byte character. Between one
/// and four edits, one in eight a truncation.
fn mutate(rng: &mut StdRng, units: &[Vec<u8>]) -> Vec<u8> {
    let mut units = units.to_vec();
    for _ in 0..rng.random_range(1..=4) {
        let at = rng.random_range(0..=units.len());
        let unit = ALPHABET[rng.random_range(0..ALPHABET.len())]
            .as_bytes()
            .to_vec();
        match rng.random_range(0..8) {
            0 => units.truncate(at),
            1..=3 => units.insert(at, unit),
            4 | 5 if at < units.len() => {
                units.remove(at);
            }
            _ if at < units.len() => units[at] = unit,
            _ => units.push(unit),
        }
    }
    units.concat()
}

/// Run `check` on `count` mutants of `units`, naming the first mutant
/// that panics.
fn fuzz(seed: u64, units: &[Vec<u8>], count: usize, check: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let mutant = mutate(&mut rng, units);
        if catch_unwind(AssertUnwindSafe(|| check(&mutant))).is_err() {
            let text = String::from_utf8_lossy(&mutant);
            panic!("mutant {i} of seed {seed} panicked:\n{text}");
        }
    }
}

fn bytes(text: &str) -> Vec<Vec<u8>> {
    text.bytes().map(|b| vec![b]).collect()
}

#[test]
fn algorithm3_script_mutants_parse_or_error_on_a_line() {
    let params: HashMap<String, String> = [
        ("INPUT", "/in/reads.fa"),
        ("KMER", "15"),
        ("NUMHASH", "50"),
        ("DIV", "1048583"),
        ("LINK", "average"),
        ("CUTOFF", "0.95"),
        ("OUTPUT1", "/out/hier"),
        ("OUTPUT2", "/out/greedy"),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    parse_script(algorithm3_script(), &params).expect("the unmutated script parses");
    let chars: Vec<Vec<u8>> = algorithm3_script()
        .chars()
        .map(|c| c.to_string().into_bytes())
        .collect();
    fuzz(43, &chars, 3_000, |mutant| {
        let mutant = std::str::from_utf8(mutant).expect("char edits keep UTF-8");
        let lines = mutant.lines().count();
        if let Err(e) = parse_script(mutant, &params) {
            assert!(
                (1..=lines + 1).contains(&e.line),
                "{e} outside 1..={}",
                lines + 1
            );
        }
    });
}

#[test]
fn fasta_and_fastq_mutants_read_or_error() {
    let fasta = ">r1 first réad\nACGTACGTAC\nGTTGCA\n>r2\nacgtnNACGT\n\n>r3 empty\n>r4\nTTTT";
    let fastq = "@q1 oné\nACGTAC\n+\nIIIIII\n@q2\nGGTTN\n+q2\n#####\n@q3\nA\n+\nI";
    read_fasta_bytes(fasta.as_bytes()).expect("the unmutated FASTA reads");
    read_fastq_bytes(fastq.as_bytes()).expect("the unmutated FASTQ reads");
    fuzz(44, &bytes(fasta), 4_000, |mutant| {
        let _ = read_fasta_bytes(mutant);
    });
    fuzz(45, &bytes(fastq), 4_000, |mutant| {
        let _ = read_fastq_bytes(mutant);
    });
}

/// `v` with one random fault deep inside it: nulled, an `Int`, `Long`
/// or `Double` swapped for another, a chararray made a long, a bag
/// emptied or cut short, a tuple cut short (ragged) — or unchanged.
fn mutate_value(rng: &mut StdRng, v: &Value) -> Value {
    match (rng.random_range(0..8), v) {
        (0, _) => Value::Null,
        (1, Value::Long(x)) => Value::Int(*x as i32),
        (1, Value::Int(x)) => Value::Double(f64::from(*x)),
        (1, Value::Double(x)) => Value::Long(*x as i64),
        (1, Value::CharArray(_)) => Value::Long(7),
        (2, Value::Bag(b)) => Value::Bag(b[..rng.random_range(0..=b.len())].to_vec()),
        (3, Value::Tuple(t)) if !t.is_empty() => Value::Tuple(t[..t.len() - 1].to_vec()),
        (4..=6, Value::Bag(vs) | Value::Tuple(vs)) if !vs.is_empty() => {
            let mut vs = vs.clone();
            let at = rng.random_range(0..vs.len());
            vs[at] = mutate_value(rng, &vs[at]);
            match v {
                Value::Bag(_) => Value::Bag(vs),
                _ => Value::Tuple(vs),
            }
        }
        _ => v.clone(),
    }
}

/// One argument of a call: a column of values (`Column::from_values`,
/// so a mixed one is `Dyn`), or a constant.
enum Arg {
    Column(Vec<Value>),
    Scalar(Value),
}

/// The Algorithm 3 registry.
fn registry() -> UdfRegistry {
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    registry
}

/// UDF `name` bound at a call site of `args`, then evaluated over the
/// windows `start..start + len` of its column arguments, in order: a
/// panic in either step is reported as a panic of `what`.
fn bind_and_eval(
    name: &str,
    args: &[Arg],
    start: usize,
    len: usize,
    what: &str,
) -> Result<BatchOut, UdfError> {
    let registry = registry();
    let bind = registry.get(name).expect("registered");
    let consts: Vec<Option<&Value>> = args
        .iter()
        .map(|arg| match arg {
            Arg::Column(_) => None,
            Arg::Scalar(value) => Some(value),
        })
        .collect();
    let cols: Vec<Column> = args
        .iter()
        .filter_map(|arg| match arg {
            Arg::Column(vals) => Some(Column::from_values(vals.clone())),
            Arg::Scalar(_) => None,
        })
        .collect();
    let windows: Vec<Window<'_>> = cols.iter().map(|col| Window { col, start, len }).collect();
    let call = || -> Result<BatchOut, UdfError> { bind(&consts)?.eval(&windows, len) };
    let got = catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|_| panic!("{what} panicked"));
    if let Err(e) = &got {
        assert_eq!(e.udf, name, "{what}: {e}");
    }
    got
}

/// Draw a hostile call of `udf` from the valid `protos` (a column arg
/// is a pool of rows): `len` rows at window start `start`, each value
/// faulted one time in four, each argument moved between column and
/// constant one time in eight, one call in eight missing its trailing
/// arguments. The bind must return the kernel and the kernel `Ok` with
/// `len` rows, or either a `UdfError` that names `udf`; returns
/// whether it was `Ok`.
fn hostile_call(rng: &mut StdRng, udf: &str, protos: &[Arg]) -> bool {
    let (start, len): (usize, usize) = (rng.random_range(0..3), rng.random_range(1..5));
    let draw = |rng: &mut StdRng, pool: &[Value]| {
        let v = &pool[rng.random_range(0..pool.len())];
        match rng.random_range(0..4) {
            0 => mutate_value(rng, v),
            _ => v.clone(),
        }
    };
    let mut args: Vec<Arg> = protos
        .iter()
        .map(|proto| match (proto, rng.random_range(0..8)) {
            (Arg::Column(pool), 0) => Arg::Scalar(draw(rng, pool)),
            (Arg::Column(pool), _) => {
                let rows = start + len + rng.random_range(0..2usize);
                Arg::Column((0..rows).map(|_| draw(rng, pool)).collect())
            }
            (Arg::Scalar(v), 0) => Arg::Column(vec![v.clone(); start + len]),
            (Arg::Scalar(v), _) => Arg::Scalar(draw(rng, std::slice::from_ref(v))),
        })
        .collect();
    args.truncate(match rng.random_range(0..8) {
        0 => rng.random_range(0..protos.len()),
        _ => protos.len(),
    });
    let what = format!("{udf} over {len} rows at {start}");
    let got = match bind_and_eval(udf, &args, start, len, &what) {
        Err(_) => return false,
        Ok(BatchOut::Col(c)) => c.len(),
        Ok(BatchOut::Tup(b)) => b.rows(),
        Ok(BatchOut::Rows(v)) => v.len(),
    };
    assert_eq!(got, len, "{what}: row count");
    true
}

fn chars(s: &str) -> Value {
    Value::CharArray(s.into())
}

/// A bag of the tuples `rows`.
fn bag(rows: Vec<Vec<Value>>) -> Value {
    Value::bag(rows.into_iter().map(Value::tuple).collect::<Vec<_>>())
}

/// A bag of ints: `J`'s `simrow` of agreement counts.
fn ints(vals: &[i32]) -> Value {
    Value::bag(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
}

/// `(seqid, simrow)` rows of a count relation.
type Rows = &'static [(&'static str, &'static [i32])];

/// `II`'s one row: the `(seqid, simrow)` relation `J` emits, each
/// simrow one count per seqid in ascending seqid order at width 4.
fn relation(rows: Rows) -> Value {
    bag(rows
        .iter()
        .map(|&(id, counts)| vec![chars(id), ints(counts)])
        .collect())
}

/// Three reads, no two alike.
const TRIANGLE: Rows = &[("a", &[4, 3, 0]), ("b", &[3, 4, 1]), ("c", &[0, 1, 4])];

/// Two equal sketches and a third, rows not in seqid order.
const GROUPED: Rows = &[("z", &[2, 2, 4]), ("x", &[4, 4, 2]), ("y", &[4, 4, 2])];

/// `E`'s and `J`'s sketch: a bag of longs.
fn sketch(vals: &[i64]) -> Value {
    Value::bag(vals.iter().map(|&v| Value::Long(v)).collect::<Vec<_>>())
}

#[test]
fn columnar_udf_argument_mutants_answer_or_error_naming_the_udf() {
    let kmers = |id, kms: &[i64]| {
        bag(kms
            .iter()
            .map(|&k| vec![Value::Long(k), chars(id)])
            .collect())
    };
    use Arg::{Column as Col, Scalar};
    let kernels: [(&str, Vec<Arg>); 4] = [
        (
            "TranslateToKmer",
            vec![
                Col(vec![chars("ACGTACGGT"), chars("GGNNACGT"), chars("AC")]),
                Col(vec![chars("a"), chars("b")]),
                Scalar(Value::Long(3)),
            ],
        ),
        (
            "CalculateMinwiseHash",
            vec![
                Col(vec![
                    kmers("a", &[5, 9, 60]),
                    kmers("b", &[7]),
                    kmers("c", &[1, 1]),
                ]),
                Scalar(Value::Long(3)),
                Scalar(Value::Long(8)),
                Scalar(Value::Long(1_048_583)),
            ],
        ),
        (
            "CalculatePairwiseSimilarity",
            vec![
                Col(vec![sketch(&[1, 2, -1, 4]), sketch(&[1 << 40, 2, 3, 4])]),
                Col(vec![chars("a"), chars("b"), chars("z")]),
                Scalar(bag(vec![
                    vec![sketch(&[1, 2, -1, 4]), chars("a")],
                    vec![sketch(&[1, 5, 3, 4]), chars("b")],
                    vec![sketch(&[-1, -1, -1, -1]), chars("c")],
                ])),
            ],
        ),
        (
            "AgglomerativeHierarchicalClustering",
            vec![
                Col(vec![relation(TRIANGLE), relation(GROUPED)]),
                Scalar(chars("average")),
                Scalar(Value::Long(4)),
                Scalar(Value::Double(0.6)),
            ],
        ),
    ];
    let mut rng = StdRng::seed_from_u64(46);
    for (udf, protos) in &kernels {
        let ok = (0..1_500)
            .filter(|_| hostile_call(&mut rng, udf, protos))
            .count();
        // Both answers are reached: the draw is neither all faults nor
        // all valid calls.
        assert!(0 < ok && ok < 1_500, "{udf}: {ok} of 1500 Ok");
    }
}

/// `udf` bound at a call site of the one-row columns `cols` and the
/// constants `consts`, then evaluated, answers with a `UdfError` that
/// names it, never a panic or `Ok`.
fn refused(udf: &str, cols: &[Value], consts: &[Value], what: &str) -> String {
    let args: Vec<Arg> = cols
        .iter()
        .map(|v| Arg::Column(vec![v.clone()]))
        .chain(consts.iter().cloned().map(Arg::Scalar))
        .collect();
    match bind_and_eval(udf, &args, 0, 1, what) {
        Ok(_) => panic!("{what}: {udf} answered Ok"),
        Err(e) => e.message,
    }
}

/// A count relation that `J` cannot have emitted is refused by `K`
/// before `PairCounts::new` asserts on it, and a relation with a seqid
/// twice is refused by `J`.
#[test]
fn count_relation_faults_are_udf_errors() {
    let knobs = |numhash: i64| [chars("average"), Value::Long(numhash), Value::Double(0.6)];
    let k = |rows: Rows, numhash: i64, what: &str| {
        let relation = relation(rows);
        refused(
            "AgglomerativeHierarchicalClustering",
            &[relation],
            &knobs(numhash),
            what,
        )
    };
    let faults: [(Rows, &str, &str); 7] = [
        (
            &[("a", &[4, 5, 0]), ("b", &[5, 4, 1]), ("c", &[0, 1, 4])],
            "count above $NUMHASH",
            "count 5 is outside 0..=4",
        ),
        (
            &[("a", &[4, -1, 0]), ("b", &[-1, 4, 1]), ("c", &[0, 1, 4])],
            "negative count",
            "count -1 is outside 0..=4",
        ),
        (
            &[("a", &[4, 3]), ("b", &[3, 4, 1]), ("c", &[0, 1, 4])],
            "simrow one short",
            "seqid a holds 2 counts, expected 3",
        ),
        (
            &[("a", &[4, 3, 0]), ("b", &[3, 4, 1, 0]), ("c", &[0, 1, 4])],
            "simrow one long",
            "seqid b holds 4 counts, expected 3",
        ),
        (
            &[("a", &[4, 3, 0]), ("c", &[3, 4, 1]), ("c", &[0, 1, 4])],
            "duplicate seqid",
            "seqid c is twice in the relation",
        ),
        (
            &[("a", &[4, 3, 0]), ("b", &[3, 2, 1]), ("c", &[0, 1, 4])],
            "diagonal below $NUMHASH",
            "seqid b has diagonal 2, expected 4",
        ),
        (
            &[("b", &[3, 4, 1]), ("c", &[0, 1, 4]), ("a", &[3, 3, 0])],
            "diagonal below $NUMHASH, rows out of order",
            "seqid a has diagonal 3, expected 4",
        ),
    ];
    for (rows, what, want) in faults {
        let message = k(rows, 4, what);
        assert!(message.contains(want), "{what}: {message}");
    }
    let message = k(TRIANGLE, 70_000, "$NUMHASH past the u16 count");
    assert!(
        message.contains("num_hashes 70000 out of range"),
        "{message}"
    );

    let e = bag(vec![
        vec![sketch(&[1, 2, 3, 4]), chars("a")],
        vec![sketch(&[1, 5, 3, 4]), chars("b")],
        vec![sketch(&[1, 2, 3, 9]), chars("a")],
    ]);
    let message = refused(
        "CalculatePairwiseSimilarity",
        &[sketch(&[1, 2, 3, 4]), chars("a")],
        &[e],
        "I.E with a seqid twice",
    );
    assert!(message.contains("seqid a is twice"), "{message}");
}
