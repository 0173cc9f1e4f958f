//! A minimal JSON value and its emitter, std only.
//!
//! `rapid-lint` deliberately depends on nothing — not even the workspace's
//! own `rapid-experiments` JSON module — so the findings document needs a
//! local emitter. The tests parse what it emits with that module, a
//! dev-dependency only. Object keys keep insertion order (a `Vec` of
//! pairs), so emitted documents are deterministic.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64`; the findings schema only uses
/// integers small enough to round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialises with two-space indentation and a trailing newline-free
    /// result, stable across runs.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_experiments::json::{parse, JsonValue};

    /// Whether `parsed` holds the document `doc` (object keys in any
    /// order: the parser sorts them).
    fn same(doc: &Json, parsed: &JsonValue) -> bool {
        match doc {
            Json::Null => matches!(parsed, JsonValue::Null),
            Json::Bool(b) => matches!(parsed, JsonValue::Bool(p) if p == b),
            Json::Num(n) => parsed.as_f64() == Some(*n),
            Json::Str(s) => parsed.as_str() == Some(s.as_str()),
            Json::Arr(items) => parsed.as_array().is_some_and(|p| {
                p.len() == items.len() && items.iter().zip(p).all(|(a, b)| same(a, b))
            }),
            Json::Obj(pairs) => {
                matches!(parsed, JsonValue::Object(map) if map.len() == pairs.len())
                    && pairs
                        .iter()
                        .all(|(k, v)| parsed.get(k).is_some_and(|p| same(v, p)))
            }
        }
    }

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("no-wall-clock".into())),
            ("line".into(), Json::Num(42.0)),
            ("clean".into(), Json::Bool(false)),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Str("a \"quoted\" path\n".into())]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let parsed = parse(&doc.to_pretty()).expect("emitted document parses");
        assert!(same(&doc, &parsed), "{parsed:?}");
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(7.0).to_pretty(), "7");
        assert_eq!(Json::Num(2.5).to_pretty(), "2.5");
    }
}
