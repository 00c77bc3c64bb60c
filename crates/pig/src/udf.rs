//! User-defined functions and their registry.
//!
//! Pig UDFs in the paper are Java classes (`FastaStorage`, …). Here a
//! UDF's [`Binder`] runs once per call site, when the executor plans
//! the statement: it sees each argument as its constant (a literal, or
//! a scalar reference such as `I.E`) or as `None`, a column, and
//! returns the bound [`Udf`] whose [`Udf::eval`] the map tasks run on
//! the column windows alone. A row body binds through [`bind_rows`].
//! A [`Value::Bag`] under `FLATTEN(...)` yields many rows, as in Pig.

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

/// A UDF bound at one call site: the kernel the map tasks run.
pub trait Udf: Send + Sync {
    /// Registered (and script-visible) name.
    fn name(&self) -> &str;

    /// Evaluate `rows` rows in one call. `cols` holds the window of
    /// each column argument, in argument order, each `rows` long; the
    /// constants were bound already. The result holds one value per
    /// row.
    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError>;
}

/// A UDF's plan-time step: it takes each argument as its constant, or
/// `None` for a column, and returns the bound kernel or the refusal.
pub type Binder = dyn Fn(&[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> + Send + Sync;

/// One column argument of a call: rows `start..start + len` of `col`.
#[derive(Debug, Clone, Copy)]
pub struct Window<'a> {
    /// Backing column.
    pub col: &'a Column,
    /// First row of the window.
    pub start: usize,
    /// Window length.
    pub len: usize,
}

/// Result of a batch UDF call over `rows` input rows.
#[derive(Debug, Clone)]
pub enum BatchOut {
    /// One value per row, already columnar.
    Col(Column),
    /// One value per row, boxed (the executor columnarizes; row
    /// bodies and irregular outputs use this).
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

/// A row body bound at one call site: `slots` holds each argument's
/// constant, and `Null` where a column fills the slot row by row.
struct RowKernel<F> {
    name: &'static str,
    slots: Vec<Value>,
    columns: Vec<usize>,
    body: F,
}

impl<F: Fn(&[Value]) -> Result<Value, UdfError> + Send + Sync> Udf for RowKernel<F> {
    fn name(&self) -> &str {
        self.name
    }

    fn eval(&self, cols: &[Window<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let mut buf = self.slots.clone();
        let mut out = Vec::with_capacity(rows);
        for i in 0..rows {
            for (&slot, w) in self.columns.iter().zip(cols) {
                buf[slot] = w.col.value_at(w.start + i);
            }
            out.push((self.body)(&buf)?);
        }
        Ok(BatchOut::Rows(out))
    }
}

/// Bind the row body `body` of UDF `name` at a call site whose
/// arguments are `args`: each constant takes its slot of the row
/// buffer here, once; a chunk copies the buffer once, never per row,
/// and each row of the column windows fills the other slots before
/// `body` sees it.
pub fn bind_rows(
    name: &'static str,
    args: &[Option<&Value>],
    body: impl Fn(&[Value]) -> Result<Value, UdfError> + Send + Sync + 'static,
) -> Arc<dyn Udf> {
    Arc::new(RowKernel {
        name,
        slots: args
            .iter()
            .map(|a| a.cloned().unwrap_or(Value::Null))
            .collect(),
        columns: (0..args.len()).filter(|&i| args[i].is_none()).collect(),
        body,
    })
}

/// Case-insensitive UDF name → binder map.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    map: HashMap<String, Arc<Binder>>,
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
        r.register_rows("TOKENIZE", tokenize);
        r.register_rows("COUNT", count);
        r.register_rows("UPPER", upper);
        r.register_rows("CONCAT", concat);
        r.register_rows("TextLoader", text_loader);
        r
    }

    /// Register (or replace) the binder of UDF `name`.
    pub fn register(
        &mut self,
        name: &str,
        bind: impl Fn(&[Option<&Value>]) -> Result<Arc<dyn Udf>, UdfError> + Send + Sync + 'static,
    ) {
        self.map.insert(name.to_ascii_lowercase(), Arc::new(bind));
    }

    /// Register (or replace) UDF `name` as a row body, bound through
    /// [`bind_rows`].
    pub fn register_rows(
        &mut self,
        name: &'static str,
        body: impl Fn(&[Value]) -> Result<Value, UdfError> + Clone + Send + Sync + 'static,
    ) {
        self.register(name, move |args| Ok(bind_rows(name, args, body.clone())));
    }

    /// The binder of UDF `name`, looked up case-insensitively.
    pub fn get(&self, name: &str) -> Option<&Binder> {
        self.map.get(&name.to_ascii_lowercase()).map(|b| &**b)
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
fn tokenize(args: &[Value]) -> Result<Value, UdfError> {
    let s = args
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| UdfError::new("TOKENIZE", "expected one chararray"))?;
    Ok(Value::bag(
        s.split_whitespace()
            .map(|w| Value::tuple([Value::CharArray(w.to_string())]))
            .collect::<Vec<_>>(),
    ))
}

/// `COUNT(bag)` → long.
fn count(args: &[Value]) -> Result<Value, UdfError> {
    let b = args
        .first()
        .and_then(Value::as_bag)
        .ok_or_else(|| UdfError::new("COUNT", "expected one bag"))?;
    Ok(Value::Long(b.len() as i64))
}

/// `UPPER(chararray)` → chararray.
fn upper(args: &[Value]) -> Result<Value, UdfError> {
    let s = args
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| UdfError::new("UPPER", "expected one chararray"))?;
    Ok(Value::CharArray(s.to_ascii_uppercase()))
}

/// `CONCAT(a, b)` → chararray.
fn concat(args: &[Value]) -> Result<Value, UdfError> {
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
}

/// The default loader: one tuple `(line:chararray)` per input line.
fn text_loader(args: &[Value]) -> Result<Value, UdfError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `name` bound with every argument a column, over one row of
    /// `args`.
    fn one_row(r: &UdfRegistry, name: &str, args: &[Value]) -> Result<Value, UdfError> {
        let udf = r.get(name).expect("registered")(&vec![None; args.len()])?;
        let cols: Vec<Column> = args
            .iter()
            .map(|v| Column::from_values(vec![v.clone()]))
            .collect();
        let windows: Vec<Window<'_>> = cols
            .iter()
            .map(|col| Window {
                col,
                start: 0,
                len: 1,
            })
            .collect();
        Ok(udf.eval(&windows, 1)?.into_row(0).expect("one row"))
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
        let out = one_row(&r, "TOKENIZE", &[Value::CharArray("a b  c".into())]).unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 3);
        assert_eq!(bag[0], Value::tuple([Value::CharArray("a".into())]));
    }

    #[test]
    fn count_counts() {
        let r = UdfRegistry::with_builtins();
        let out = one_row(&r, "COUNT", &[Value::bag([Value::Int(1), Value::Int(2)])]).unwrap();
        assert_eq!(out, Value::Long(2));
    }

    #[test]
    fn wrong_arg_types_error() {
        let r = UdfRegistry::with_builtins();
        assert!(one_row(&r, "COUNT", &[Value::Int(1)]).is_err());
        assert!(one_row(&r, "TOKENIZE", &[]).is_err());
        assert!(one_row(&r, "CONCAT", &[Value::CharArray("x".into())]).is_err());
    }

    #[test]
    fn text_loader_lines() {
        let r = UdfRegistry::with_builtins();
        let bytes = Value::ByteArray(bytes::Bytes::from_static(b"one\ntwo\n"));
        let out = one_row(&r, "TextLoader", &[bytes]).unwrap();
        assert_eq!(out.as_bag().unwrap().len(), 2);
    }

    #[test]
    fn bind_rows_fills_constant_slots_at_the_call_site() {
        let r = UdfRegistry::with_builtins();
        // CONCAT's body runs once per row; the constant is bound once,
        // and the call sees only the column window.
        let suffix = Value::CharArray("!".into());
        let concat = r.get("CONCAT").unwrap()(&[None, Some(&suffix)]).unwrap();
        let col = Column::from_values(vec![
            Value::CharArray("a".into()),
            Value::CharArray("b".into()),
            Value::CharArray("c".into()),
        ]);
        let out = concat
            .eval(
                &[Window {
                    col: &col,
                    start: 1,
                    len: 2,
                }],
                2,
            )
            .unwrap();
        let BatchOut::Rows(rows) = out else {
            panic!("a row body returns rows")
        };
        assert_eq!(
            rows,
            vec![Value::CharArray("b!".into()), Value::CharArray("c!".into())]
        );
    }

    #[test]
    fn register_replaces() {
        let mut r = UdfRegistry::with_builtins();
        r.register_rows("COUNT", |_| Ok(Value::Long(-1)));
        let count = r.get("count").unwrap()(&[]).unwrap();
        let BatchOut::Rows(rows) = count.eval(&[], 2).unwrap() else {
            panic!("a row body returns rows")
        };
        assert_eq!(rows, vec![Value::Long(-1); 2]);
        // Past the last row there is no value.
        assert_eq!(count.eval(&[], 2).unwrap().into_row(2), None);
    }
}
