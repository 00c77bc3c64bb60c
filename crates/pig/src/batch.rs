//! Columnar batches: the typed data plane the vectorized executor
//! moves instead of boxed [`Value`] rows.
//!
//! A [`ColumnBatch`] stores a relation chunk as one [`Column`] per
//! tuple field. Columns are typed vectors (int/long/double plus
//! offset-based layouts for chararray/bytearray) with validity
//! bitmaps for nulls; nested bags are an offsets array over a child
//! batch ([`BagCol`]); anything that does not fit a single type
//! degrades honestly to a boxed [`Column::Dyn`] column rather than
//! coercing. A batch is rectangular: every row has one field per
//! column, so rows of unequal width do not columnarize.
//!
//! The invariant every constructor and kernel preserves:
//! `ColumnBatch::from_rows(rows).to_rows() == rows` bit-for-bit —
//! including the exact `Value` variant of every field, null
//! positions and bag element order. The executor leans
//! on this to stay identical to the boxed-row reference interpreter
//! it is tested against (see `tests/columnar.rs`).

use std::sync::Arc;

use bytes::Bytes;
use mrmc_mapreduce::ShuffleSized;

use crate::value::Value;

// ---------------------------------------------------------------- bitmap

/// Packed validity bitmap: bit `i` set ⇒ row `i` holds a value,
/// cleared ⇒ the row is [`Value::Null`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `valid`.
    pub fn new(len: usize, valid: bool) -> Bitmap {
        let fill = if valid { u64::MAX } else { 0 };
        Bitmap {
            words: vec![fill; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Append one bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, v);
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        (0..self.len).all(|i| self.get(i))
    }

    /// Bits selected by `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> Bitmap {
        let mut out = Bitmap::new(idx.len(), false);
        for (o, &i) in idx.iter().enumerate() {
            out.set(o, self.get(i as usize));
        }
        out
    }

    /// Bits `start..start + len`.
    pub fn slice(&self, start: usize, len: usize) -> Bitmap {
        let mut out = Bitmap::new(len, false);
        for o in 0..len {
            out.set(o, self.get(start + o));
        }
        out
    }
}

/// Read a validity slot under the `None = all valid` convention.
fn valid_at(validity: &Option<Bitmap>, i: usize) -> bool {
    validity.as_ref().is_none_or(|b| b.get(i))
}

/// Gather/slice an optional validity, dropping it when all-set.
fn normalize(validity: Option<Bitmap>) -> Option<Bitmap> {
    match validity {
        Some(b) if b.all_set() => None,
        other => other,
    }
}

/// Validities of `(validity, rows)` parts laid end to end.
fn concat_validity(parts: &[(Option<Bitmap>, usize)]) -> Option<Bitmap> {
    if parts.iter().all(|(v, _)| v.is_none()) {
        return None;
    }
    let mut out = Bitmap::default();
    for (v, rows) in parts {
        for i in 0..*rows {
            out.push(valid_at(v, i));
        }
    }
    normalize(Some(out))
}

/// Offset vectors of parts laid end to end: each rebased from its own
/// first offset (a window need not start at 0) onto the running total.
fn concat_offsets<'a>(parts: impl Iterator<Item = &'a [u32]> + Clone) -> Vec<u32> {
    let rows: usize = parts.clone().map(|o| o.len() - 1).sum();
    let mut out = Vec::with_capacity(rows + 1);
    out.push(0u32);
    for o in parts {
        let shift = out[out.len() - 1];
        assert!(
            shift.checked_add(o[o.len() - 1] - o[0]).is_some(),
            "column exceeds u32 offsets"
        );
        out.extend(o[1..].iter().map(|&x| x - o[0] + shift));
    }
    out
}

/// Drop zero-row parts before a concat — an empty chunk sniffs as an
/// all-null `Int` column and would make the merge look mixed —
/// keeping one when every part is empty.
fn drop_empty<T>(parts: &mut Vec<T>, rows: impl Fn(&T) -> usize) {
    if parts.iter().any(|p| rows(p) > 0) {
        parts.retain(|p| rows(p) > 0);
    } else {
        parts.truncate(1);
    }
}

// ---------------------------------------------------------------- varbytes

/// Variable-width byte storage: `offsets[i]..offsets[i + 1]` into a
/// shared [`Bytes`] buffer. Slicing a stored entry back out is O(1)
/// and shares the buffer — a bytearray column built over a loaded
/// file never copies record bytes.
#[derive(Debug, Clone, Default)]
pub struct VarBytes {
    offsets: Vec<u32>,
    data: Bytes,
}

impl VarBytes {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow entry `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Entry `i` as a zero-copy [`Bytes`] window.
    pub fn get_bytes(&self, i: usize) -> Bytes {
        self.data
            .slice(self.offsets[i] as usize..self.offsets[i + 1] as usize)
    }

    /// Width of entry `i`.
    pub fn byte_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Entries selected by `idx` (copies the selected bytes).
    pub fn gather(&self, idx: &[u32]) -> VarBytes {
        let mut b = VarBytesBuilder::with_capacity(idx.len());
        for &i in idx {
            b.push(self.get(i as usize));
        }
        b.finish()
    }

    /// Entries `start..start + len`; shares the data buffer.
    pub fn slice(&self, start: usize, len: usize) -> VarBytes {
        let base = self.offsets[start];
        let offsets = self.offsets[start..=start + len]
            .iter()
            .map(|&o| o - base)
            .collect();
        let data = self
            .data
            .slice(base as usize..self.offsets[start + len] as usize);
        VarBytes { offsets, data }
    }

    /// Entries of every part end to end: one copy of each part's live
    /// byte range (a `slice` keeps its window, whatever its first
    /// offset), offsets rebased onto the joined buffer.
    pub fn concat(parts: &[VarBytes]) -> VarBytes {
        let offsets = concat_offsets(parts.iter().map(|p| &p.offsets[..]));
        let mut data: Vec<u8> = Vec::with_capacity(offsets[offsets.len() - 1] as usize);
        for p in parts {
            data.extend_from_slice(&p.data[p.offsets[0] as usize..p.offsets[p.len()] as usize]);
        }
        VarBytes {
            offsets,
            data: data.into(),
        }
    }
}

/// Incremental [`VarBytes`] construction.
#[derive(Debug, Default)]
pub struct VarBytesBuilder {
    offsets: Vec<u32>,
    data: Vec<u8>,
}

impl VarBytesBuilder {
    /// Builder pre-sized for `rows` entries.
    pub fn with_capacity(rows: usize) -> VarBytesBuilder {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        VarBytesBuilder {
            offsets,
            data: Vec::new(),
        }
    }

    /// Append one entry.
    pub fn push(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        self.offsets.push(self.data.len() as u32);
    }

    /// Freeze into shared storage.
    pub fn finish(self) -> VarBytes {
        if self.offsets.is_empty() {
            return VarBytes {
                offsets: vec![0],
                data: Bytes::new(),
            };
        }
        VarBytes {
            offsets: self.offsets,
            data: self.data.into(),
        }
    }
}

// ---------------------------------------------------------------- columns

/// One typed column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub enum Column {
    /// `int` values.
    Int {
        /// Packed values (`0` in null slots).
        data: Vec<i32>,
        /// Null positions (`None` = all valid).
        validity: Option<Bitmap>,
    },
    /// `long` values.
    Long {
        /// Packed values.
        data: Vec<i64>,
        /// Null positions.
        validity: Option<Bitmap>,
    },
    /// `double` values.
    Double {
        /// Packed values.
        data: Vec<f64>,
        /// Null positions.
        validity: Option<Bitmap>,
    },
    /// `chararray` values (UTF-8 in a [`VarBytes`]).
    Str {
        /// Offset-indexed string storage.
        data: VarBytes,
        /// Null positions.
        validity: Option<Bitmap>,
    },
    /// `bytearray` values.
    Bin {
        /// Offset-indexed byte storage.
        data: VarBytes,
        /// Null positions.
        validity: Option<Bitmap>,
    },
    /// Nested bags (offsets over a child batch).
    Bag(BagCol),
    /// Fallback for mixed-type or tuple-valued columns: boxed values.
    Dyn(Vec<Value>),
}

/// A bag column: row `i` holds elements
/// `offsets[i]..offsets[i + 1]` of the child batch. When
/// `tuple_elems` is set each element is a tuple of the child batch's
/// fields (the common Pig shape); otherwise elements are bare values
/// stored in the child's single column (e.g. a minwise sketch as a
/// bag of longs).
#[derive(Debug, Clone)]
pub struct BagCol {
    /// Row boundaries into the child batch (`rows + 1` entries).
    pub offsets: Vec<u32>,
    /// Element storage, shared: a `GROUP` whose bags hold every input
    /// row in row order points at the input batch itself.
    pub elems: Arc<ColumnBatch>,
    /// Elements are tuples of the child's fields vs bare values.
    pub tuple_elems: bool,
    /// Null positions (a null slot is `Value::Null`, not an empty bag).
    pub validity: Option<Bitmap>,
}

impl BagCol {
    /// Construct from parts, asserting the offsets cover the child,
    /// which is owned or shared.
    pub fn new(
        offsets: Vec<u32>,
        elems: impl Into<Arc<ColumnBatch>>,
        tuple_elems: bool,
        validity: Option<Bitmap>,
    ) -> BagCol {
        let elems = elems.into();
        debug_assert!(!offsets.is_empty());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(*offsets.last().unwrap() as usize, elems.rows());
        debug_assert!(tuple_elems || elems.num_cols() <= 1);
        BagCol {
            offsets,
            elems,
            tuple_elems,
            validity,
        }
    }

    /// Number of rows (bags).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element count of bag `i`.
    pub fn bag_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Element `e` (child-batch row index) as a [`Value`].
    pub fn elem_value(&self, e: usize) -> Value {
        if self.tuple_elems {
            self.elems.row_value(e)
        } else {
            self.elems.value_at(e, 0)
        }
    }

    /// Bag `i` as a [`Value`] (`Null` when invalid).
    fn value_at(&self, i: usize) -> Value {
        if !valid_at(&self.validity, i) {
            return Value::Null;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        Value::Bag((lo..hi).map(|e| self.elem_value(e)).collect())
    }

    fn gather(&self, idx: &[u32]) -> BagCol {
        let mut offsets = Vec::with_capacity(idx.len() + 1);
        offsets.push(0u32);
        let mut elem_idx = Vec::new();
        for &i in idx {
            let i = i as usize;
            for e in self.offsets[i]..self.offsets[i + 1] {
                elem_idx.push(e);
            }
            offsets.push(elem_idx.len() as u32);
        }
        BagCol {
            offsets,
            elems: Arc::new(self.elems.gather(&elem_idx)),
            tuple_elems: self.tuple_elems,
            validity: normalize(self.validity.as_ref().map(|b| b.gather(idx))),
        }
    }

    fn slice(&self, start: usize, len: usize) -> BagCol {
        let base = self.offsets[start];
        let offsets: Vec<u32> = self.offsets[start..=start + len]
            .iter()
            .map(|&o| o - base)
            .collect();
        let elems = self
            .elems
            .slice(base as usize, (self.offsets[start + len] - base) as usize);
        BagCol {
            offsets,
            elems: Arc::new(elems),
            tuple_elems: self.tuple_elems,
            validity: normalize(self.validity.as_ref().map(|b| b.slice(start, len))),
        }
    }

    /// Bags of every part end to end (all parts share `tuple_elems`):
    /// offsets rebased onto the concatenated child batch. A part whose
    /// offsets do not span its whole child contributes only the
    /// elements they cover; a child no other column shares is moved,
    /// not copied.
    fn concat(parts: Vec<BagCol>) -> BagCol {
        let tuple_elems = parts[0].tuple_elems;
        let offsets = concat_offsets(parts.iter().map(|p| &p.offsets[..]));
        let mut children = Vec::with_capacity(parts.len());
        let mut valid = Vec::with_capacity(parts.len());
        for p in parts {
            let (lo, hi) = (p.offsets[0], p.offsets[p.len()]);
            valid.push((p.validity, p.offsets.len() - 1));
            children.push(if lo == 0 && hi as usize == p.elems.rows() {
                Arc::unwrap_or_clone(p.elems)
            } else {
                p.elems.slice(lo as usize, (hi - lo) as usize)
            });
        }
        BagCol {
            offsets,
            elems: Arc::new(ColumnBatch::concat(children)),
            tuple_elems,
            validity: concat_validity(&valid),
        }
    }

    /// Serialized width of bag `i` under the `shuffled_bytes` pricing
    /// ([`Value::shuffle_size`] of the reconstructed value). A bag of
    /// bare `int`, `long` or `double` values with no null is priced in
    /// O(1): every element has the width of its type.
    fn value_shuffle_size(&self, i: usize) -> usize {
        if !valid_at(&self.validity, i) {
            return 1;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        if !self.tuple_elems {
            let width = match self.elems.cols.first() {
                Some(Column::Int { validity: None, .. }) => Some(5),
                Some(
                    Column::Long { validity: None, .. } | Column::Double { validity: None, .. },
                ) => Some(9),
                _ => None,
            };
            if let Some(width) = width {
                return 1 + 4 + (hi - lo) * width;
            }
        }
        let elems: usize = (lo..hi)
            .map(|e| {
                if self.tuple_elems {
                    self.elems.row_shuffle_size(e)
                } else {
                    self.elems.cols[0].value_shuffle_size(e)
                }
            })
            .sum();
        1 + 4 + elems
    }
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Long { data, .. } => data.len(),
            Column::Double { data, .. } => data.len(),
            Column::Str { data, .. } | Column::Bin { data, .. } => data.len(),
            Column::Bag(b) => b.len(),
            Column::Dyn(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` reconstructed as a [`Value`], bit-identical to what
    /// the column was built from.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int { data, validity } => {
                if valid_at(validity, i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Long { data, validity } => {
                if valid_at(validity, i) {
                    Value::Long(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Double { data, validity } => {
                if valid_at(validity, i) {
                    Value::Double(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Str { data, validity } => {
                if valid_at(validity, i) {
                    Value::CharArray(String::from_utf8_lossy(data.get(i)).into_owned())
                } else {
                    Value::Null
                }
            }
            Column::Bin { data, validity } => {
                if valid_at(validity, i) {
                    Value::ByteArray(data.get_bytes(i))
                } else {
                    Value::Null
                }
            }
            Column::Bag(b) => b.value_at(i),
            Column::Dyn(v) => v[i].clone(),
        }
    }

    /// True when row `i` is [`Value::Null`].
    pub(crate) fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { validity, .. }
            | Column::Long { validity, .. }
            | Column::Double { validity, .. }
            | Column::Str { validity, .. }
            | Column::Bin { validity, .. }
            | Column::Bag(BagCol { validity, .. }) => !valid_at(validity, i),
            Column::Dyn(v) => matches!(v[i], Value::Null),
        }
    }

    /// Serialized width of row `i` (equals
    /// [`Value::shuffle_size`] of [`Column::value_at`], computed
    /// without materializing the value).
    pub fn value_shuffle_size(&self, i: usize) -> usize {
        match self {
            Column::Int { validity, .. } => {
                if valid_at(validity, i) {
                    5
                } else {
                    1
                }
            }
            Column::Long { validity, .. } | Column::Double { validity, .. } => {
                if valid_at(validity, i) {
                    9
                } else {
                    1
                }
            }
            Column::Str { data, validity } | Column::Bin { data, validity } => {
                if valid_at(validity, i) {
                    5 + data.byte_len(i)
                } else {
                    1
                }
            }
            Column::Bag(b) => b.value_shuffle_size(i),
            Column::Dyn(v) => v[i].shuffle_size(),
        }
    }

    /// An all-null column of `len` rows.
    pub fn nulls(len: usize) -> Column {
        Column::Int {
            data: vec![0; len],
            validity: Some(Bitmap::new(len, false)),
        }
    }

    /// Build a column from boxed values, sniffing the best layout:
    /// one non-null variant throughout ⇒ typed column with validity;
    /// bags of uniform element shape ⇒ [`BagCol`]; anything else ⇒
    /// [`Column::Dyn`] verbatim.
    pub fn from_values(vals: Vec<Value>) -> Column {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Int,
            Long,
            Double,
            Str,
            Bin,
            Bag,
        }
        let mut kind: Option<Kind> = None;
        for v in &vals {
            let k = match v {
                Value::Null => continue,
                Value::Int(_) => Kind::Int,
                Value::Long(_) => Kind::Long,
                Value::Double(_) => Kind::Double,
                Value::CharArray(_) => Kind::Str,
                Value::ByteArray(_) => Kind::Bin,
                Value::Bag(_) => Kind::Bag,
                Value::Tuple(_) => return Column::Dyn(vals),
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => return Column::Dyn(vals),
            }
        }
        let len = vals.len();
        let mut validity = Bitmap::new(len, true);
        for (i, v) in vals.iter().enumerate() {
            if matches!(v, Value::Null) {
                validity.set(i, false);
            }
        }
        let validity = normalize(Some(validity));
        match kind {
            None => Column::nulls(len),
            Some(Kind::Int) => Column::Int {
                data: vals
                    .iter()
                    .map(|v| if let Value::Int(x) = v { *x } else { 0 })
                    .collect(),
                validity,
            },
            Some(Kind::Long) => Column::Long {
                data: vals
                    .iter()
                    .map(|v| if let Value::Long(x) = v { *x } else { 0 })
                    .collect(),
                validity,
            },
            Some(Kind::Double) => Column::Double {
                data: vals
                    .iter()
                    .map(|v| if let Value::Double(x) = v { *x } else { 0.0 })
                    .collect(),
                validity,
            },
            Some(Kind::Str) => {
                let mut b = VarBytesBuilder::with_capacity(len);
                for v in &vals {
                    b.push(v.as_str().map(str::as_bytes).unwrap_or_default());
                }
                // Lossy UTF-8 round-trip check: reconstruction uses
                // from_utf8_lossy, exact for the valid UTF-8 a
                // CharArray always holds.
                Column::Str {
                    data: b.finish(),
                    validity,
                }
            }
            Some(Kind::Bin) => {
                let mut b = VarBytesBuilder::with_capacity(len);
                for v in &vals {
                    if let Value::ByteArray(x) = v {
                        b.push(x);
                    } else {
                        b.push(&[]);
                    }
                }
                Column::Bin {
                    data: b.finish(),
                    validity,
                }
            }
            Some(Kind::Bag) => match bag_col_from_values(&vals, validity) {
                Some(b) => Column::Bag(b),
                None => Column::Dyn(vals),
            },
        }
    }

    /// Rows selected by `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Int { data, validity } => Column::Int {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: normalize(validity.as_ref().map(|b| b.gather(idx))),
            },
            Column::Long { data, validity } => Column::Long {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: normalize(validity.as_ref().map(|b| b.gather(idx))),
            },
            Column::Double { data, validity } => Column::Double {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: normalize(validity.as_ref().map(|b| b.gather(idx))),
            },
            Column::Str { data, validity } => Column::Str {
                data: data.gather(idx),
                validity: normalize(validity.as_ref().map(|b| b.gather(idx))),
            },
            Column::Bin { data, validity } => Column::Bin {
                data: data.gather(idx),
                validity: normalize(validity.as_ref().map(|b| b.gather(idx))),
            },
            Column::Bag(b) => Column::Bag(b.gather(idx)),
            Column::Dyn(v) => Column::Dyn(idx.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }

    /// Contiguous rows `start..start + len` (cheap: byte storage is
    /// shared, only fixed-width vectors copy).
    pub fn slice(&self, start: usize, len: usize) -> Column {
        match self {
            Column::Int { data, validity } => Column::Int {
                data: data[start..start + len].to_vec(),
                validity: normalize(validity.as_ref().map(|b| b.slice(start, len))),
            },
            Column::Long { data, validity } => Column::Long {
                data: data[start..start + len].to_vec(),
                validity: normalize(validity.as_ref().map(|b| b.slice(start, len))),
            },
            Column::Double { data, validity } => Column::Double {
                data: data[start..start + len].to_vec(),
                validity: normalize(validity.as_ref().map(|b| b.slice(start, len))),
            },
            Column::Str { data, validity } => Column::Str {
                data: data.slice(start, len),
                validity: normalize(validity.as_ref().map(|b| b.slice(start, len))),
            },
            Column::Bin { data, validity } => Column::Bin {
                data: data.slice(start, len),
                validity: normalize(validity.as_ref().map(|b| b.slice(start, len))),
            },
            Column::Bag(b) => Column::Bag(b.slice(start, len)),
            Column::Dyn(v) => Column::Dyn(v[start..start + len].to_vec()),
        }
    }

    /// Concatenate columns end to end. Same variants append their
    /// buffers (offsets rebased, validity merged, bag children
    /// concatenated recursively); mixed variants, and bags whose
    /// elements differ in shape, degrade to [`Column::Dyn`].
    pub fn concat(mut parts: Vec<Column>) -> Column {
        /// Append the fixed-width parts of one variant.
        macro_rules! concat_fixed {
            ($variant:ident, $parts:expr, $rows:expr) => {{
                let mut data = Vec::with_capacity($rows);
                let mut valid = Vec::with_capacity($parts.len());
                for p in $parts {
                    let Column::$variant { data: d, validity } = p else {
                        unreachable!("uniform variants")
                    };
                    valid.push((validity, d.len()));
                    data.extend(d);
                }
                Column::$variant {
                    data,
                    validity: concat_validity(&valid),
                }
            }};
        }
        /// Append the `Str`/`Bin` parts' byte storage.
        fn concat_var(parts: Vec<Column>) -> (VarBytes, Option<Bitmap>) {
            let mut pieces = Vec::with_capacity(parts.len());
            let mut valid = Vec::with_capacity(parts.len());
            for p in parts {
                let (Column::Str { data, validity } | Column::Bin { data, validity }) = p else {
                    unreachable!("uniform variants")
                };
                valid.push((validity, data.len()));
                pieces.push(data);
            }
            (VarBytes::concat(&pieces), concat_validity(&valid))
        }

        drop_empty(&mut parts, Column::len);
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_else(|| Column::nulls(0));
        }
        let uniform = parts.iter().all(|p| match (&parts[0], p) {
            (Column::Bag(a), Column::Bag(b)) => {
                a.tuple_elems == b.tuple_elems && a.elems.num_cols() == b.elems.num_cols()
            }
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        });
        if !uniform {
            let vals = parts
                .iter()
                .flat_map(|p| (0..p.len()).map(|i| p.value_at(i)))
                .collect();
            return Column::Dyn(vals);
        }
        let rows: usize = parts.iter().map(Column::len).sum();
        match &parts[0] {
            Column::Int { .. } => concat_fixed!(Int, parts, rows),
            Column::Long { .. } => concat_fixed!(Long, parts, rows),
            Column::Double { .. } => concat_fixed!(Double, parts, rows),
            Column::Str { .. } => {
                let (data, validity) = concat_var(parts);
                Column::Str { data, validity }
            }
            Column::Bin { .. } => {
                let (data, validity) = concat_var(parts);
                Column::Bin { data, validity }
            }
            Column::Bag(_) => Column::Bag(BagCol::concat(
                parts
                    .into_iter()
                    .map(|p| match p {
                        Column::Bag(b) => b,
                        _ => unreachable!("uniform variants"),
                    })
                    .collect(),
            )),
            Column::Dyn(_) => Column::Dyn(
                parts
                    .into_iter()
                    .flat_map(|p| match p {
                        Column::Dyn(v) => v,
                        _ => unreachable!("uniform variants"),
                    })
                    .collect(),
            ),
        }
    }
}

/// Build a [`BagCol`] from bag-or-null values; `None` when element
/// shapes are mixed (caller falls back to `Dyn`).
fn bag_col_from_values(vals: &[Value], validity: Option<Bitmap>) -> Option<BagCol> {
    let mut offsets = Vec::with_capacity(vals.len() + 1);
    offsets.push(0u32);
    let mut elems: Vec<&Value> = Vec::new();
    for v in vals {
        if let Value::Bag(b) = v {
            elems.extend(b.iter());
        }
        offsets.push(elems.len() as u32);
    }
    let tuple_elems = match elems.iter().position(|e| matches!(e, Value::Tuple(_))) {
        Some(_) if elems.iter().all(|e| matches!(e, Value::Tuple(_))) => true,
        Some(_) => return None,
        None => false,
    };
    let child = if tuple_elems {
        let rows: Vec<Value> = elems.iter().map(|&e| e.clone()).collect();
        ColumnBatch::from_rows(&rows)?
    } else {
        let col = Column::from_values(elems.iter().map(|&e| e.clone()).collect());
        ColumnBatch::single(col)
    };
    Some(BagCol::new(offsets, child, tuple_elems, validity))
}

// ---------------------------------------------------------------- batch

/// A batch of tuples stored column-wise: every row has one field per
/// column.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    rows: usize,
}

impl ColumnBatch {
    /// A batch over one column (each row a 1-field view).
    pub fn single(col: Column) -> ColumnBatch {
        let rows = col.len();
        ColumnBatch {
            cols: vec![col],
            rows,
        }
    }

    /// A batch of no rows and `width` columns.
    pub(crate) fn empty(width: usize) -> ColumnBatch {
        ColumnBatch::from_cols(vec![Column::nulls(0); width], 0)
    }

    /// Assemble from equal-length columns.
    pub fn from_cols(cols: Vec<Column>, rows: usize) -> ColumnBatch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        ColumnBatch { cols, rows }
    }

    /// Columnarize tuple rows. Returns `None` unless **every** row is
    /// a [`Value::Tuple`] of the first row's width: a bare value is
    /// not silently read as a 1-column tuple here (the executor's
    /// `LOAD` wraps one, on purpose, before it gets this far), nor a
    /// short row padded with nulls.
    pub fn from_rows(rows: &[Value]) -> Option<ColumnBatch> {
        let tuples: Vec<&[Value]> = rows
            .iter()
            .map(|r| r.as_tuple())
            .collect::<Option<Vec<_>>>()?;
        let width = tuples.first().map_or(0, |t| t.len());
        if tuples.iter().any(|t| t.len() != width) {
            return None;
        }
        let cols = (0..width)
            .map(|j| Column::from_values(tuples.iter().map(|t| t[j].clone()).collect()))
            .collect();
        Some(ColumnBatch::from_cols(cols, rows.len()))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (every row's field count).
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Column `j`.
    pub fn col(&self, j: usize) -> &Column {
        &self.cols[j]
    }

    /// All columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Consume the batch into its columns (vectorized FLATTEN moves
    /// a gathered child batch's columns straight into the output).
    pub fn into_cols(self) -> Vec<Column> {
        self.cols
    }

    /// Field `(row, col)` as a [`Value`].
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.cols[col].value_at(row)
    }

    /// Row `i` reconstructed as the original tuple value.
    pub fn row_value(&self, i: usize) -> Value {
        Value::Tuple(self.cols.iter().map(|c| c.value_at(i)).collect())
    }

    /// All rows, reconstructed.
    pub fn to_rows(&self) -> Vec<Value> {
        (0..self.rows).map(|i| self.row_value(i)).collect()
    }

    /// Serialized width of row `i`'s tuple under `shuffled_bytes`
    /// pricing — equals `self.row_value(i).shuffle_size()` without
    /// materializing the tuple. This is what the columnar GROUP's
    /// wire-size hook charges so index-shuffled rows price exactly
    /// like value-shuffled ones.
    pub fn row_shuffle_size(&self, i: usize) -> usize {
        1 + 4
            + self
                .cols
                .iter()
                .map(|c| c.value_shuffle_size(i))
                .sum::<usize>()
    }

    /// Rows selected by `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        ColumnBatch {
            cols: self.cols.iter().map(|c| c.gather(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// Contiguous rows `start..start + len`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnBatch {
        ColumnBatch {
            cols: self.cols.iter().map(|c| c.slice(start, len)).collect(),
            rows: len,
        }
    }

    /// Concatenate batches vertically, consuming the parts (their
    /// buffers are appended or moved, never cloned first). Every part
    /// that has rows has the same column count.
    pub fn concat(mut parts: Vec<ColumnBatch>) -> ColumnBatch {
        drop_empty(&mut parts, ColumnBatch::rows);
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_default();
        }
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let width = parts[0].cols.len();
        assert!(
            parts.iter().all(|p| p.cols.len() == width),
            "concat parts differ in width"
        );
        let mut part_cols: Vec<std::vec::IntoIter<Column>> =
            parts.into_iter().map(|p| p.cols.into_iter()).collect();
        let cols = (0..width)
            .map(|_| Column::concat(part_cols.iter_mut().flat_map(Iterator::next).collect()))
            .collect();
        ColumnBatch { cols, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(fields: impl Into<Vec<Value>>) -> Value {
        Value::Tuple(fields.into())
    }

    #[test]
    fn bitmap_roundtrip() {
        let mut b = Bitmap::new(130, true);
        assert!(b.all_set());
        b.set(0, false);
        b.set(64, false);
        b.set(129, false);
        assert!(!b.get(0) && b.get(1) && !b.get(64) && !b.get(129));
        let g = b.gather(&[0, 1, 129]);
        assert!(!g.get(0) && g.get(1) && !g.get(2));
        let s = b.slice(63, 3);
        assert!(s.get(0) && !s.get(1) && s.get(2));
    }

    #[test]
    fn varbytes_slice_shares_storage() {
        let mut b = VarBytesBuilder::with_capacity(3);
        b.push(b"abc");
        b.push(b"");
        b.push(b"xy");
        let v = b.finish();
        assert_eq!(v.get(0), b"abc");
        assert_eq!(v.get(1), b"");
        let s = v.slice(1, 2);
        assert_eq!(s.get(1), b"xy");
        let g = v.gather(&[2, 0]);
        assert_eq!(g.get(0), b"xy");
        assert_eq!(g.get(1), b"abc");
    }

    #[test]
    fn typed_columns_roundtrip() {
        let rows = vec![
            t([
                Value::Int(1),
                Value::CharArray("a".into()),
                Value::Double(0.5),
            ]),
            t([Value::Null, Value::CharArray("".into()), Value::Null]),
            t([Value::Int(-3), Value::Null, Value::Double(f64::NAN)]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(b.col(0), Column::Int { .. }));
        assert!(matches!(b.col(1), Column::Str { .. }));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn mixed_column_degrades_to_dyn() {
        // Two variants in a column, or tuples mixed with bare values
        // among bag elements.
        let rows = vec![
            t([
                Value::Int(1),
                Value::bag([t([Value::Int(1)]), Value::Long(2)]),
            ]),
            t([Value::Long(2), Value::bag([])]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(b.col(0), Column::Dyn(_)));
        assert!(matches!(b.col(1), Column::Dyn(_)));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn bag_columns_roundtrip_both_element_shapes() {
        // Tuple elements.
        let rows = vec![
            t([Value::bag([
                t([Value::Int(1), Value::CharArray("x".into())]),
                t([Value::Int(2), Value::CharArray("y".into())]),
            ])]),
            t([Value::Null]),
            t([Value::bag([])]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        let Column::Bag(bag) = b.col(0) else {
            panic!("expected bag column")
        };
        assert!(bag.tuple_elems);
        assert_eq!(bag.bag_len(0), 2);
        assert_eq!(b.to_rows(), rows);

        // Bare elements (a minwise sketch shape).
        let rows = vec![
            t([Value::bag([Value::Long(7), Value::Long(8)])]),
            t([Value::bag([Value::Long(9)])]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        let Column::Bag(bag) = b.col(0) else {
            panic!("expected bag column")
        };
        assert!(!bag.tuple_elems);
        assert_eq!(b.to_rows(), rows);
    }

    fn has_dyn(b: &ColumnBatch) -> bool {
        b.cols().iter().any(|c| match c {
            Column::Dyn(_) => true,
            Column::Bag(bag) => has_dyn(&bag.elems),
            _ => false,
        })
    }

    #[test]
    fn concat_appends_typed_parts_without_degrading() {
        let rows: Vec<Value> = (0..6i64)
            .map(|i| {
                t([
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::CharArray(format!("s{i}"))
                    },
                    if i % 4 == 1 {
                        Value::Null
                    } else {
                        Value::ByteArray(vec![i as u8; i as usize].into())
                    },
                    if i == 2 {
                        Value::Null
                    } else {
                        Value::bag(
                            (0..i)
                                .map(|e| t([Value::Long(e), Value::CharArray(format!("e{e}"))]))
                                .collect::<Vec<_>>(),
                        )
                    },
                    Value::bag([
                        Value::bag([Value::Long(i)]),
                        Value::bag((0..i).map(Value::Long).collect::<Vec<_>>()),
                    ]),
                ])
            })
            .collect();
        let b = ColumnBatch::from_rows(&rows).unwrap();
        // A zero-row part in the middle (here of no column at all) is
        // dropped, so it makes the result neither mixed nor narrower.
        let empty = ColumnBatch::from_rows(&[]).unwrap();
        let c = ColumnBatch::concat(vec![b.slice(1, 3), empty, b.slice(4, 2), b.clone()]);
        assert!(matches!(
            c.col(0),
            Column::Str {
                validity: Some(_),
                ..
            }
        ));
        assert!(matches!(
            c.col(1),
            Column::Bin {
                validity: Some(_),
                ..
            }
        ));
        assert!(matches!(c.col(2), Column::Bag(bag) if bag.validity.is_some()));
        assert!(!has_dyn(&c));
        assert_eq!(c.to_rows(), [&rows[1..4], &rows[4..6], &rows[..]].concat());
        for (i, row) in c.to_rows().iter().enumerate() {
            assert_eq!(c.row_shuffle_size(i), row.shuffle_size(), "row {i}");
        }
    }

    #[test]
    fn concat_honours_non_zero_base_offsets() {
        // String storage whose first offset is not 0 and a bag whose
        // offsets start inside its child — `VarBytes`/`BagCol::new`
        // admit both.
        let strs = VarBytes {
            offsets: vec![2, 3, 5],
            data: Bytes::from_static(b"xxabcyy"),
        };
        let bags = BagCol::new(
            vec![1, 2, 4],
            ColumnBatch::single(Column::Long {
                data: vec![9, 1, 2, 3],
                validity: None,
            }),
            false,
            None,
        );
        let part = ColumnBatch::from_cols(
            vec![
                Column::Str {
                    data: strs,
                    validity: None,
                },
                Column::Bag(bags),
            ],
            2,
        );
        let rows = part.to_rows();
        assert_eq!(
            rows[1],
            t([
                Value::CharArray("bc".into()),
                Value::bag([Value::Long(2), Value::Long(3)])
            ])
        );
        let c = ColumnBatch::concat(vec![part.clone(), part]);
        assert!(!has_dyn(&c));
        assert_eq!(c.to_rows(), [&rows[..], &rows[..]].concat());
    }

    #[test]
    fn concat_mixed_variants_degrades() {
        let a = ColumnBatch::from_rows(&[t([Value::Int(1)])]).unwrap();
        let b = ColumnBatch::from_rows(&[t([Value::CharArray("s".into())])]).unwrap();
        let c = ColumnBatch::concat(vec![a, b]);
        assert!(matches!(c.col(0), Column::Dyn(_)));
        assert_eq!(
            c.to_rows(),
            vec![t([Value::Int(1)]), t([Value::CharArray("s".into())])]
        );
        // Bags of tuples of two widths: each part's child batch is
        // rectangular, their concatenation could not be.
        let rows = [
            t([Value::bag([t([Value::Int(1)])])]),
            t([Value::bag([t([Value::Int(2), Value::Int(3)])])]),
        ];
        let parts = rows
            .iter()
            .map(|r| ColumnBatch::from_rows(std::slice::from_ref(r)).unwrap())
            .collect();
        let c = ColumnBatch::concat(parts);
        assert!(matches!(c.col(0), Column::Dyn(_)));
        assert_eq!(c.to_rows(), rows);
    }
}
