//! User-defined functions and their registry.
//!
//! Pig UDFs in the paper are Java classes (`FastaStorage`,
//! `CalculateMinwiseHash`, …); here a UDF is any `Send + Sync` type
//! implementing [`Udf`], whose one evaluation method,
//! [`Udf::eval_batch`], takes whole column windows. A columnar kernel
//! is written against the windows; a row-at-a-time body is lifted
//! through [`scalar_rows`]. Returning a [`Value::Bag`] combined with
//! `FLATTEN(...)` yields multiple output rows, exactly like Pig.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::batch::{Column, ColumnBatch};
use crate::value::Value;

/// UDF evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfError {
    /// UDF name.
    pub udf: String,
    /// Description.
    pub message: String,
}

impl UdfError {
    /// Convenience constructor.
    pub fn new(udf: impl Into<String>, message: impl Into<String>) -> UdfError {
        UdfError {
            udf: udf.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for UdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UDF {} failed: {}", self.udf, self.message)
    }
}
impl std::error::Error for UdfError {}

/// A user-defined function.
pub trait Udf: Send + Sync {
    /// Registered (and script-visible) name.
    fn name(&self) -> &str;

    /// Evaluate `rows` rows in one call; every argument has exactly
    /// `rows` rows, and the result holds one value per row. A one-row
    /// call passes `BatchArg::Scalar { len: 1 }` arguments and reads
    /// [`BatchOut::into_row`]`(0)`.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError>;
}

// ---------------------------------------------------------- batch ABI

/// One argument of a batch-at-a-time UDF call: either a window into
/// a column (one value per row) or a scalar broadcast to every row
/// (literals and `I.F` scalar references — shared, never cloned per
/// row).
#[derive(Debug, Clone, Copy)]
pub enum BatchArg<'a> {
    /// Rows `start..start + len` of `col`.
    Column {
        /// Backing column.
        col: &'a Column,
        /// First row of the window.
        start: usize,
        /// Window length.
        len: usize,
    },
    /// The same value for every row.
    Scalar {
        /// Broadcast value.
        value: &'a Value,
        /// Broadcast length.
        len: usize,
    },
}

impl BatchArg<'_> {
    /// The backing column window, when this is a column argument.
    pub fn as_column(&self) -> Option<(&Column, usize, usize)> {
        match self {
            BatchArg::Column { col, start, len } => Some((col, *start, *len)),
            BatchArg::Scalar { .. } => None,
        }
    }

    /// The broadcast value, when this is a scalar argument.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            BatchArg::Scalar { value, .. } => Some(value),
            BatchArg::Column { .. } => None,
        }
    }
}

/// Result of a batch UDF call over `rows` input rows.
#[derive(Debug, Clone)]
pub enum BatchOut {
    /// One value per row, already columnar.
    Col(Column),
    /// One value per row, boxed (the executor columnarizes;
    /// [`scalar_rows`] and irregular outputs use this).
    Rows(Vec<Value>),
    /// One *tuple* per row, kept columnar — `FLATTEN` of this output
    /// appends the batch's columns without materializing tuples.
    Tup(ColumnBatch),
}

impl BatchOut {
    /// Row `row`'s value, boxed; `None` past the last row.
    pub fn into_row(self, row: usize) -> Option<Value> {
        match self {
            BatchOut::Col(c) => (row < c.len()).then(|| c.value_at(row)),
            BatchOut::Rows(v) => v.into_iter().nth(row),
            BatchOut::Tup(b) => (row < b.rows()).then(|| b.row_value(row)),
        }
    }
}

/// A row-at-a-time body lifted over batch arguments: `body` sees each
/// row's argument values in one reused buffer. Scalar argument slots
/// (literals, `GROUP ALL` aggregates) are filled **once** per batch
/// instead of cloned per row — for Algorithm 3 that alone removes a
/// per-row deep copy of the full minwise-sketch bag.
pub fn scalar_rows(
    args: &[BatchArg<'_>],
    rows: usize,
    mut body: impl FnMut(&[Value]) -> Result<Value, UdfError>,
) -> Result<BatchOut, UdfError> {
    let mut buf: Vec<Value> = args
        .iter()
        .map(|a| a.as_scalar().cloned().unwrap_or(Value::Null))
        .collect();
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        for (slot, arg) in buf.iter_mut().zip(args) {
            if let Some((col, start, _)) = arg.as_column() {
                *slot = col.value_at(start + i);
            }
        }
        out.push(body(&buf)?);
    }
    Ok(BatchOut::Rows(out))
}

/// Case-insensitive UDF name → implementation map.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    map: HashMap<String, Arc<dyn Udf>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Registry pre-loaded with the generic builtins
    /// (`TOKENIZE`, `COUNT`, `UPPER`, `CONCAT`, `TextLoader`).
    pub fn with_builtins() -> UdfRegistry {
        let mut r = UdfRegistry::new();
        r.register(Arc::new(Tokenize));
        r.register(Arc::new(Count));
        r.register(Arc::new(Upper));
        r.register(Arc::new(Concat));
        r.register(Arc::new(TextLoader));
        r
    }

    /// Register (or replace) a UDF under its own name.
    pub fn register(&mut self, udf: Arc<dyn Udf>) {
        self.map.insert(udf.name().to_ascii_lowercase(), udf);
    }

    /// Look up by name, case-insensitively.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Udf>> {
        self.map.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Registered names, sorted (for error messages).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdfRegistry")
            .field("udfs", &self.names())
            .finish()
    }
}

// ---------------------------------------------------------------- builtins

/// `TOKENIZE(chararray)` → bag of single-field word tuples.
struct Tokenize;
impl Udf for Tokenize {
    fn name(&self) -> &str {
        "TOKENIZE"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(args, rows, |args| {
            let s = args
                .first()
                .and_then(Value::as_str)
                .ok_or_else(|| UdfError::new("TOKENIZE", "expected one chararray"))?;
            Ok(Value::bag(
                s.split_whitespace()
                    .map(|w| Value::tuple([Value::CharArray(w.to_string())]))
                    .collect::<Vec<_>>(),
            ))
        })
    }
}

/// `COUNT(bag)` → long.
struct Count;
impl Udf for Count {
    fn name(&self) -> &str {
        "COUNT"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(args, rows, |args| {
            let b = args
                .first()
                .and_then(Value::as_bag)
                .ok_or_else(|| UdfError::new("COUNT", "expected one bag"))?;
            Ok(Value::Long(b.len() as i64))
        })
    }
}

/// `UPPER(chararray)` → chararray.
struct Upper;
impl Udf for Upper {
    fn name(&self) -> &str {
        "UPPER"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(args, rows, |args| {
            let s = args
                .first()
                .and_then(Value::as_str)
                .ok_or_else(|| UdfError::new("UPPER", "expected one chararray"))?;
            Ok(Value::CharArray(s.to_ascii_uppercase()))
        })
    }
}

/// `CONCAT(a, b)` → chararray.
struct Concat;
impl Udf for Concat {
    fn name(&self) -> &str {
        "CONCAT"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(args, rows, |args| {
            if args.len() != 2 {
                return Err(UdfError::new("CONCAT", "expected two arguments"));
            }
            let a = args[0]
                .as_str()
                .ok_or_else(|| UdfError::new("CONCAT", "arg 1 must be chararray"))?;
            let b = args[1]
                .as_str()
                .ok_or_else(|| UdfError::new("CONCAT", "arg 2 must be chararray"))?;
            Ok(Value::CharArray(format!("{a}{b}")))
        })
    }
}

/// Default loader: one tuple `(line:chararray)` per input line.
pub struct TextLoader;
impl Udf for TextLoader {
    fn name(&self) -> &str {
        "TextLoader"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(args, rows, |args| {
            let bytes = args
                .first()
                .and_then(Value::as_bytes)
                .ok_or_else(|| UdfError::new("TextLoader", "expected file bytes"))?;
            let text = String::from_utf8_lossy(bytes);
            Ok(Value::bag(
                text.lines()
                    .map(|l| Value::tuple([Value::CharArray(l.to_string())]))
                    .collect::<Vec<_>>(),
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `udf` on one row of `args`, each a one-row broadcast.
    fn one_row(udf: &dyn Udf, args: &[Value]) -> Result<Value, UdfError> {
        let args: Vec<BatchArg<'_>> = args
            .iter()
            .map(|value| BatchArg::Scalar { value, len: 1 })
            .collect();
        Ok(udf.eval_batch(&args, 1)?.into_row(0).expect("one row"))
    }

    #[test]
    fn registry_case_insensitive() {
        let r = UdfRegistry::with_builtins();
        assert!(r.get("tokenize").is_some());
        assert!(r.get("TOKENIZE").is_some());
        assert!(r.get("Tokenize").is_some());
        assert!(r.get("NoSuchUdf").is_none());
    }

    #[test]
    fn tokenize_splits_words() {
        let r = UdfRegistry::with_builtins();
        let out = one_row(
            &*r.get("TOKENIZE").unwrap(),
            &[Value::CharArray("a b  c".into())],
        )
        .unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 3);
        assert_eq!(bag[0], Value::tuple([Value::CharArray("a".into())]));
    }

    #[test]
    fn count_counts() {
        let r = UdfRegistry::with_builtins();
        let out = one_row(
            &*r.get("COUNT").unwrap(),
            &[Value::bag([Value::Int(1), Value::Int(2)])],
        )
        .unwrap();
        assert_eq!(out, Value::Long(2));
    }

    #[test]
    fn wrong_arg_types_error() {
        let r = UdfRegistry::with_builtins();
        let call = |name: &str, args: &[Value]| one_row(&*r.get(name).unwrap(), args);
        assert!(call("COUNT", &[Value::Int(1)]).is_err());
        assert!(call("TOKENIZE", &[]).is_err());
        assert!(call("CONCAT", &[Value::CharArray("x".into())]).is_err());
    }

    #[test]
    fn text_loader_lines() {
        let bytes = Value::ByteArray(bytes::Bytes::from_static(b"one\ntwo\n"));
        let out = one_row(&TextLoader, &[bytes]).unwrap();
        assert_eq!(out.as_bag().unwrap().len(), 2);
    }

    #[test]
    fn scalar_rows_lifts_a_row_body() {
        let r = UdfRegistry::with_builtins();
        // CONCAT's body runs once per row, the scalar argument
        // broadcast without per-row clones.
        let concat = r.get("CONCAT").unwrap();
        let col = Column::from_values(vec![
            Value::CharArray("a".into()),
            Value::CharArray("b".into()),
        ]);
        let suffix = Value::CharArray("!".into());
        let out = concat
            .eval_batch(
                &[
                    BatchArg::Column {
                        col: &col,
                        start: 0,
                        len: 2,
                    },
                    BatchArg::Scalar {
                        value: &suffix,
                        len: 2,
                    },
                ],
                2,
            )
            .unwrap();
        let BatchOut::Rows(rows) = out else {
            panic!("the lift returns rows")
        };
        assert_eq!(
            rows,
            vec![Value::CharArray("a!".into()), Value::CharArray("b!".into())]
        );
    }

    #[test]
    fn register_replaces() {
        struct Custom;
        impl Udf for Custom {
            fn name(&self) -> &str {
                "COUNT"
            }
            fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
                scalar_rows(args, rows, |_| Ok(Value::Long(-1)))
            }
        }
        let mut r = UdfRegistry::with_builtins();
        r.register(Arc::new(Custom));
        let count = r.get("count").unwrap();
        assert_eq!(one_row(&*count, &[]).unwrap(), Value::Long(-1));
        let BatchOut::Rows(rows) = count.eval_batch(&[], 2).unwrap() else {
            panic!("the lift returns rows")
        };
        assert_eq!(rows, vec![Value::Long(-1); 2]);
        // Past the last row there is no value.
        assert_eq!(count.eval_batch(&[], 2).unwrap().into_row(2), None);
    }
}
