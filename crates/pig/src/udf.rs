//! User-defined functions and their registry.
//!
//! Pig UDFs in the paper are Java classes (`FastaStorage`,
//! `CalculateMinwiseHash`, …); here a UDF is any `Send + Sync` type
//! implementing [`Udf`]. The executor evaluates argument expressions
//! and calls [`Udf::exec`] once per input tuple; returning a
//! [`Value::Bag`] combined with `FLATTEN(...)` yields multiple output
//! rows, exactly like Pig.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::batch::{Column, ColumnBatch, VarBytesBuilder};
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

    /// Evaluate on already-evaluated arguments.
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError>;
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
    /// Rows in this argument.
    pub fn len(&self) -> usize {
        match self {
            BatchArg::Column { len, .. } | BatchArg::Scalar { len, .. } => *len,
        }
    }

    /// True for zero-row arguments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value for row `i` (materializes; fast paths should match on
    /// the column layout instead).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            BatchArg::Column { col, start, .. } => col.value_at(start + i),
            BatchArg::Scalar { value, .. } => (*value).clone(),
        }
    }

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
    /// One value per row, boxed (the executor columnarizes; scalar
    /// adapters and irregular outputs use this).
    Rows(Vec<Value>),
    /// One *tuple* per row, kept columnar — `FLATTEN` of this output
    /// appends the batch's columns without materializing tuples.
    Tup(ColumnBatch),
}

/// A batch-at-a-time UDF: evaluates whole column windows in one
/// call. The contract mirrors the scalar [`Udf`] exactly — for every
/// row `i`, the output value must be bit-identical to
/// `scalar.exec(&[args[0][i], args[1][i], ...])`. Native
/// implementations exist for the hot kernels; every other registered
/// scalar UDF is lifted through [`UdfRegistry::get_batch`]'s adapter.
pub trait BatchUdf: Send + Sync {
    /// Registered (and script-visible) name.
    fn name(&self) -> &str;

    /// Evaluate `rows` rows. Every argument has exactly `rows` rows.
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError>;
}

/// Lifts a scalar [`Udf`] to the batch ABI: one `exec` call per row
/// over a reused argument buffer. Scalar argument slots (literals,
/// `GROUP ALL` aggregates) are filled **once** per batch instead of
/// cloned per row — for Algorithm 3 that alone removes a per-row
/// deep copy of the full minwise-sketch bag.
pub struct ScalarBatchUdf {
    udf: Arc<dyn Udf>,
}

impl ScalarBatchUdf {
    /// Wrap a scalar UDF.
    pub fn new(udf: Arc<dyn Udf>) -> ScalarBatchUdf {
        ScalarBatchUdf { udf }
    }
}

impl BatchUdf for ScalarBatchUdf {
    fn name(&self) -> &str {
        self.udf.name()
    }

    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        scalar_rows(self.udf.as_ref(), args, rows)
    }
}

/// Evaluate a scalar [`Udf`] row by row over batch arguments — the
/// body of [`ScalarBatchUdf`], and the fallback a native kernel takes
/// for an argument layout it does not vectorize.
pub fn scalar_rows(
    udf: &dyn Udf,
    args: &[BatchArg<'_>],
    rows: usize,
) -> Result<BatchOut, UdfError> {
    // Scalar slots are cloned once here and reused for every row.
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
        out.push(udf.exec(&buf)?);
    }
    Ok(BatchOut::Rows(out))
}

/// Case-insensitive UDF name → implementation map, holding both the
/// scalar row-at-a-time registrations and optional native
/// batch-at-a-time implementations of the same names.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    map: HashMap<String, Arc<dyn Udf>>,
    batch: HashMap<String, Arc<dyn BatchUdf>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Registry pre-loaded with the generic builtins
    /// (`TOKENIZE`, `COUNT`, `UPPER`, `CONCAT`, `TextLoader`),
    /// including their vectorized implementations.
    pub fn with_builtins() -> UdfRegistry {
        let mut r = UdfRegistry::new();
        r.register(Arc::new(Tokenize));
        r.register(Arc::new(Count));
        r.register(Arc::new(Upper));
        r.register(Arc::new(Concat));
        r.register(Arc::new(TextLoader));
        r.register_batch(Arc::new(BatchUpper));
        r.register_batch(Arc::new(BatchCount));
        r.register_batch(Arc::new(BatchTokenize));
        r
    }

    /// Register (or replace) a scalar UDF under its own name. Any
    /// native batch implementation previously registered under the
    /// name is dropped — the two must stay semantically paired, so a
    /// new scalar falls back to the lifting adapter until a matching
    /// batch kernel is registered again.
    pub fn register(&mut self, udf: Arc<dyn Udf>) {
        let key = udf.name().to_ascii_lowercase();
        self.batch.remove(&key);
        self.map.insert(key, udf);
    }

    /// Register (or replace) a native batch implementation. The
    /// contract: per-row output bit-identical to the scalar UDF of
    /// the same name.
    pub fn register_batch(&mut self, udf: Arc<dyn BatchUdf>) {
        self.batch.insert(udf.name().to_ascii_lowercase(), udf);
    }

    /// Look up by name, case-insensitively.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Udf>> {
        self.map.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Batch-ABI lookup: a native batch kernel when one is
    /// registered, else the scalar UDF lifted through
    /// [`ScalarBatchUdf`] — so *every* registered UDF works under
    /// the columnar engine.
    pub fn get_batch(&self, name: &str) -> Option<Arc<dyn BatchUdf>> {
        let key = name.to_ascii_lowercase();
        if let Some(b) = self.batch.get(&key) {
            return Some(Arc::clone(b));
        }
        self.map
            .get(&key)
            .map(|u| Arc::new(ScalarBatchUdf::new(Arc::clone(u))) as Arc<dyn BatchUdf>)
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
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
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
}

/// `COUNT(bag)` → long.
struct Count;
impl Udf for Count {
    fn name(&self) -> &str {
        "COUNT"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let b = args
            .first()
            .and_then(Value::as_bag)
            .ok_or_else(|| UdfError::new("COUNT", "expected one bag"))?;
        Ok(Value::Long(b.len() as i64))
    }
}

/// `UPPER(chararray)` → chararray.
struct Upper;
impl Udf for Upper {
    fn name(&self) -> &str {
        "UPPER"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
        let s = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| UdfError::new("UPPER", "expected one chararray"))?;
        Ok(Value::CharArray(s.to_ascii_uppercase()))
    }
}

/// `CONCAT(a, b)` → chararray.
struct Concat;
impl Udf for Concat {
    fn name(&self) -> &str {
        "CONCAT"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
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
}

/// Default loader: one tuple `(line:chararray)` per input line.
pub struct TextLoader;
impl Udf for TextLoader {
    fn name(&self) -> &str {
        "TextLoader"
    }
    fn exec(&self, args: &[Value]) -> Result<Value, UdfError> {
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
}

// ------------------------------------------------------- batch builtins

/// Vectorized `UPPER`: uppercases the whole string buffer in one
/// pass (ASCII-only transform, identical byte-for-byte to the scalar
/// `str::to_ascii_uppercase` on valid UTF-8).
struct BatchUpper;
impl BatchUdf for BatchUpper {
    fn name(&self) -> &str {
        "UPPER"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let err = || UdfError::new("UPPER", "expected one chararray");
        let arg = args.first().ok_or_else(err)?;
        if let Some(v) = arg.as_scalar() {
            let s = v.as_str().ok_or_else(err)?;
            return Ok(BatchOut::Rows(vec![
                Value::CharArray(s.to_ascii_uppercase());
                rows
            ]));
        }
        let (col, start, len) = arg.as_column().expect("not scalar");
        if let Column::Str { data, validity } = col {
            let all_valid = validity
                .as_ref()
                .is_none_or(|v| (start..start + len).all(|i| v.get(i)));
            if !all_valid {
                return Err(err());
            }
            let mut b = VarBytesBuilder::with_capacity(len);
            for i in start..start + len {
                let mut bytes = data.get(i).to_vec();
                bytes.make_ascii_uppercase();
                b.push(&bytes);
            }
            return Ok(BatchOut::Col(Column::Str {
                data: b.finish(),
                validity: None,
            }));
        }
        // Non-string layouts: defer to per-row checks for the exact
        // scalar errors.
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            match arg.value_at(i) {
                Value::CharArray(s) => out.push(Value::CharArray(s.to_ascii_uppercase())),
                _ => return Err(err()),
            }
        }
        Ok(BatchOut::Rows(out))
    }
}

/// Vectorized `COUNT`: bag lengths straight off the offsets array.
struct BatchCount;
impl BatchUdf for BatchCount {
    fn name(&self) -> &str {
        "COUNT"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let err = || UdfError::new("COUNT", "expected one bag");
        let arg = args.first().ok_or_else(err)?;
        if let Some(v) = arg.as_scalar() {
            let b = v.as_bag().ok_or_else(err)?;
            return Ok(BatchOut::Rows(vec![Value::Long(b.len() as i64); rows]));
        }
        let (col, start, len) = arg.as_column().expect("not scalar");
        if let Column::Bag(bag) = col {
            let mut data = Vec::with_capacity(len);
            for i in start..start + len {
                if bag.validity.as_ref().is_some_and(|v| !v.get(i)) {
                    return Err(err());
                }
                data.push(bag.bag_len(i) as i64);
            }
            return Ok(BatchOut::Col(Column::Long {
                data,
                validity: None,
            }));
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            match arg.value_at(i) {
                Value::Bag(b) => out.push(Value::Long(b.len() as i64)),
                _ => return Err(err()),
            }
        }
        Ok(BatchOut::Rows(out))
    }
}

/// Vectorized `TOKENIZE`: builds the word-bag column (offsets + one
/// child string column) without boxing a single `Value`.
struct BatchTokenize;
impl BatchUdf for BatchTokenize {
    fn name(&self) -> &str {
        "TOKENIZE"
    }
    fn eval_batch(&self, args: &[BatchArg<'_>], rows: usize) -> Result<BatchOut, UdfError> {
        let err = || UdfError::new("TOKENIZE", "expected one chararray");
        let arg = args.first().ok_or_else(err)?;
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        let mut words = VarBytesBuilder::with_capacity(rows);
        for i in 0..rows {
            match arg.value_at(i) {
                Value::CharArray(s) => {
                    for w in s.split_whitespace() {
                        words.push(w.as_bytes());
                    }
                }
                _ => return Err(err()),
            }
            offsets.push(words.len() as u32);
        }
        let child = crate::batch::ColumnBatch::single(Column::Str {
            data: words.finish(),
            validity: None,
        });
        Ok(BatchOut::Col(Column::Bag(crate::batch::BagCol::new(
            offsets, child, true, None,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = r
            .get("TOKENIZE")
            .unwrap()
            .exec(&[Value::CharArray("a b  c".into())])
            .unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 3);
        assert_eq!(bag[0], Value::tuple([Value::CharArray("a".into())]));
    }

    #[test]
    fn count_counts() {
        let r = UdfRegistry::with_builtins();
        let out = r
            .get("COUNT")
            .unwrap()
            .exec(&[Value::bag([Value::Int(1), Value::Int(2)])])
            .unwrap();
        assert_eq!(out, Value::Long(2));
    }

    #[test]
    fn wrong_arg_types_error() {
        let r = UdfRegistry::with_builtins();
        assert!(r.get("COUNT").unwrap().exec(&[Value::Int(1)]).is_err());
        assert!(r.get("TOKENIZE").unwrap().exec(&[]).is_err());
        assert!(r
            .get("CONCAT")
            .unwrap()
            .exec(&[Value::CharArray("x".into())])
            .is_err());
    }

    #[test]
    fn text_loader_lines() {
        let out = TextLoader
            .exec(&[Value::ByteArray(bytes::Bytes::from_static(b"one\ntwo\n"))])
            .unwrap();
        assert_eq!(out.as_bag().unwrap().len(), 2);
    }

    #[test]
    fn batch_builtins_match_scalar() {
        let r = UdfRegistry::with_builtins();
        let inputs = vec![
            Value::CharArray("hello World".into()),
            Value::CharArray("".into()),
            Value::CharArray("a b  c".into()),
        ];
        let col = Column::from_values(inputs.clone());
        for name in ["UPPER", "TOKENIZE"] {
            let scalar = r.get(name).unwrap();
            let batch = r.get_batch(name).unwrap();
            let args = [BatchArg::Column {
                col: &col,
                start: 0,
                len: inputs.len(),
            }];
            let out = batch.eval_batch(&args, inputs.len()).unwrap();
            let got: Vec<Value> = match out {
                BatchOut::Col(c) => (0..c.len()).map(|i| c.value_at(i)).collect(),
                BatchOut::Rows(v) => v,
                BatchOut::Tup(b) => b.to_rows(),
            };
            let want: Vec<Value> = inputs
                .iter()
                .map(|v| scalar.exec(std::slice::from_ref(v)).unwrap())
                .collect();
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn batch_count_reads_offsets() {
        let r = UdfRegistry::with_builtins();
        let col = Column::from_values(vec![
            Value::bag([Value::tuple([Value::Int(1)]), Value::tuple([Value::Int(2)])]),
            Value::bag([]),
        ]);
        let out = r
            .get_batch("count")
            .unwrap()
            .eval_batch(
                &[BatchArg::Column {
                    col: &col,
                    start: 0,
                    len: 2,
                }],
                2,
            )
            .unwrap();
        let BatchOut::Col(c) = out else {
            panic!("expected columnar output")
        };
        assert_eq!(c.value_at(0), Value::Long(2));
        assert_eq!(c.value_at(1), Value::Long(0));
    }

    #[test]
    fn scalar_adapter_lifts_any_udf() {
        let r = UdfRegistry::with_builtins();
        // CONCAT has no native batch kernel: the adapter covers it,
        // broadcasting the scalar argument without per-row clones.
        let batch = r.get_batch("CONCAT").unwrap();
        let col = Column::from_values(vec![
            Value::CharArray("a".into()),
            Value::CharArray("b".into()),
        ]);
        let suffix = Value::CharArray("!".into());
        let out = batch
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
            panic!("adapter returns rows")
        };
        assert_eq!(
            rows,
            vec![Value::CharArray("a!".into()), Value::CharArray("b!".into())]
        );
    }

    #[test]
    fn scalar_registration_drops_stale_batch_kernel() {
        struct Custom;
        impl Udf for Custom {
            fn name(&self) -> &str {
                "UPPER"
            }
            fn exec(&self, _args: &[Value]) -> Result<Value, UdfError> {
                Ok(Value::CharArray("custom".into()))
            }
        }
        let mut r = UdfRegistry::with_builtins();
        r.register(Arc::new(Custom));
        let out = r.get_batch("upper").unwrap().eval_batch(&[], 1).unwrap();
        let BatchOut::Rows(rows) = out else {
            panic!("adapter path expected")
        };
        assert_eq!(rows, vec![Value::CharArray("custom".into())]);
    }

    #[test]
    fn register_replaces() {
        struct Custom;
        impl Udf for Custom {
            fn name(&self) -> &str {
                "COUNT"
            }
            fn exec(&self, _args: &[Value]) -> Result<Value, UdfError> {
                Ok(Value::Long(-1))
            }
        }
        let mut r = UdfRegistry::with_builtins();
        r.register(Arc::new(Custom));
        assert_eq!(r.get("count").unwrap().exec(&[]).unwrap(), Value::Long(-1));
    }
}
