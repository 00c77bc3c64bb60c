//! Pig's dynamic data model.
//!
//! A [`Value`] is one of Pig's scalar or composite types. Doubles are
//! compared and hashed by bit pattern so `Value` admits a *total*
//! order and can be used directly as a Map-Reduce shuffle key (NaN is
//! equal to itself; the engine never produces NaN keys, but totality
//! keeps the invariants simple).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;

/// One Pig value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value (Pig's null).
    Null,
    /// 32-bit integer (`int`).
    Int(i32),
    /// 64-bit integer (`long`).
    Long(i64),
    /// IEEE double (`double`).
    Double(f64),
    /// UTF-8 string (`chararray`).
    CharArray(String),
    /// Raw bytes (`bytearray`). [`Bytes`] is a cheaply cloneable
    /// `Arc<[u8]>` window, so a bytearray sliced out of a loaded file
    /// (or out of a column) shares the backing store instead of
    /// copying — clones are O(1) and LOAD hands records to UDFs
    /// without a per-record copy.
    ByteArray(Bytes),
    /// Ordered fields (`tuple`).
    Tuple(Vec<Value>),
    /// Collection of tuples (`bag`).
    Bag(Vec<Value>),
}

impl Value {
    /// Build a tuple value.
    pub fn tuple(fields: impl Into<Vec<Value>>) -> Value {
        Value::Tuple(fields.into())
    }

    /// Build a bag value.
    pub fn bag(tuples: impl Into<Vec<Value>>) -> Value {
        Value::Bag(tuples.into())
    }

    /// Integer coercion (int/long accepted).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(i64::from(*v)),
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Float coercion (int/long/double accepted).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(f64::from(*v)),
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// String view for chararrays.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::CharArray(s) => Some(s),
            _ => None,
        }
    }

    /// Byte view for bytearrays and chararrays.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::ByteArray(b) => Some(b),
            Value::CharArray(s) => Some(s.as_bytes()),
            _ => None,
        }
    }

    /// Tuple fields, when this is a tuple.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Bag elements, when this is a bag.
    pub fn as_bag(&self) -> Option<&[Value]> {
        match self {
            Value::Bag(b) => Some(b),
            _ => None,
        }
    }

    /// Variant rank for cross-type total ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Long(_) => 2,
            Value::Double(_) => 3,
            Value::CharArray(_) => 4,
            Value::ByteArray(_) => 5,
            Value::Tuple(_) => 6,
            Value::Bag(_) => 7,
        }
    }
}

impl mrmc_mapreduce::ShuffleSized for Value {
    /// Serialized width as Pig's binary tuple format would write it: a
    /// one-byte type tag plus the payload (length-prefixed for
    /// variable-width types). This is what `shuffled_bytes` charges when
    /// a job shuffles dynamic values, instead of the shallow enum width.
    fn shuffle_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) => 4,
            Value::Long(_) | Value::Double(_) => 8,
            Value::CharArray(s) => 4 + s.len(),
            Value::ByteArray(b) => 4 + b.len(),
            Value::Tuple(vs) | Value::Bag(vs) => {
                4 + vs
                    .iter()
                    .map(mrmc_mapreduce::ShuffleSized::shuffle_size)
                    .sum::<usize>()
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Long(a), Long(b)) => a.cmp(b),
            // total_cmp gives doubles a total order (NaN included).
            (Double(a), Double(b)) => a.total_cmp(b),
            (CharArray(a), CharArray(b)) => a.cmp(b),
            (ByteArray(a), ByteArray(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) | (Bag(a), Bag(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(v) => v.hash(state),
            Value::Long(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::CharArray(s) => s.hash(state),
            Value::ByteArray(b) => b.hash(state),
            Value::Tuple(t) | Value::Bag(t) => t.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::CharArray(s) => write!(f, "{s}"),
            Value::ByteArray(b) => write!(f, "{}", String::from_utf8_lossy(b)),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Bag(b) => {
                write!(f, "{{")?;
                for (i, v) in b.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Long(9).as_i64(), Some(9));
        assert_eq!(Value::Double(2.5).as_i64(), None);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::CharArray("x".into()).as_str(), Some("x"));
        assert_eq!(
            Value::ByteArray(vec![65].into()).as_bytes(),
            Some(&b"A"[..])
        );
        assert_eq!(Value::CharArray("A".into()).as_bytes(), Some(&b"A"[..]));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::CharArray("a".into()) < Value::CharArray("b".into()));
        assert!(Value::Double(1.0) < Value::Double(1.5));
    }

    #[test]
    fn ordering_across_types_is_total() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Long(0),
            Value::Double(0.0),
            Value::CharArray(String::new()),
            Value::ByteArray(Bytes::new()),
            Value::tuple([]),
            Value::bag([]),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j));
            }
        }
    }

    #[test]
    fn eq_consistent_with_hash() {
        let a = Value::tuple([Value::Int(1), Value::CharArray("x".into())]);
        let b = Value::tuple([Value::Int(1), Value::CharArray("x".into())]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_equals_itself() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::tuple([Value::Int(1), Value::CharArray("a".into())]).to_string(),
            "(1,a)"
        );
        assert_eq!(
            Value::bag([Value::tuple([Value::Int(1)])]).to_string(),
            "{(1)}"
        );
    }
}
