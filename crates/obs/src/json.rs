//! Minimal JSON document builder shared by the harness binaries and
//! the metrics plane.
//!
//! serde is unavailable offline, and before this module every binary
//! hand-rolled its own `format!` JSON (each with its own escaping and
//! float bugs waiting to happen). Build a [`Json`] tree and render it
//! with [`Json::pretty`] — the output matches the
//! `serde_json::to_string_pretty` style (two-space indent) the early
//! harness produced. The module lives here (rather than in
//! `mrmc-bench`, its original home) so [`crate::metrics`] snapshots can
//! render JSON without a dependency cycle.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, counts, ids).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null` (JSON has no
    /// NaN/Infinity), finite ones use the shortest round-trippable
    /// representation.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// A pre-rendered numeric token — see [`Json::fixed`].
    Raw(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A float rendered with fixed precision (`digits` decimals), for
    /// fields where the shortest representation is noisy (timings,
    /// ratios). Non-finite values still become `null`.
    pub fn fixed(v: f64, digits: usize) -> Json {
        if v.is_finite() {
            Json::Raw(format!("{v:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }

    fn render(&self, indent: usize, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Raw(tok) => out.push_str(tok),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                let pad = " ".repeat(indent + 2);
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render(indent + 2, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                let pad = " ".repeat(indent + 2);
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.render(indent + 2, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&" ".repeat(indent));
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// JSON string escaping per RFC 8259 (quotes, backslash, control
/// chars).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write a document to `path`, panicking with the path on error (these
/// are CLI endpoints; a failed artifact write should abort the run).
pub fn write_file(path: &str, doc: &Json) {
    std::fs::write(path, doc.pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::UInt(7).pretty(), "7");
        assert_eq!(Json::Int(-3).pretty(), "-3");
        assert_eq!(Json::F64(98.5).pretty(), "98.5");
        assert_eq!(Json::F64(f64::NAN).pretty(), "null");
        assert_eq!(Json::fixed(1.23456, 3).pretty(), "1.235");
        assert_eq!(Json::fixed(f64::INFINITY, 3).pretty(), "null");
        assert_eq!(Json::Str("a\"b\\c\n".into()).pretty(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn empty_containers_compact() {
        assert_eq!(Json::arr([]).pretty(), "[]");
        assert_eq!(Json::obj(Vec::<(&str, Json)>::new()).pretty(), "{}");
    }

    #[test]
    fn nesting_indents_two_spaces() {
        let doc = Json::obj([
            ("a", Json::from(1u64)),
            (
                "b",
                Json::arr([Json::from("x"), Json::obj([("c", Json::Null)])]),
            ),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\",\n    {\n      \"c\": null\n    }\n  ]\n}"
        );
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("tab\there"), "tab\\there");
    }
}
