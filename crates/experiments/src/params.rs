//! Declarative experiment parameters.
//!
//! Every experiment advertises a [`ParamSchema`]: an ordered list of
//! [`ParamSpec`]s, each with a name, a help string, a type, a valid
//! range, a full-scale default and an optional `--quick` preset. A
//! [`ParamMap`] is a validated assignment for one schema: it starts from
//! a preset and accepts string overrides (`map.set("n", "65536")`),
//! rejecting unknown keys, malformed values and out-of-range values with
//! a typed [`ParamError`] instead of silently falling back to defaults
//! or crashing the run later. Once a map exists, the typed getters
//! ([`ParamMap::u64`], [`ParamMap::f64_list`], …) are infallible — all
//! validation happens at assignment time.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use crate::json::JsonValue;

/// The type of one parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// A non-negative integer (`u64`).
    U64,
    /// A non-negative integer that must fit in `u32`.
    U32,
    /// A finite floating-point number.
    F64,
    /// A boolean (`true`/`false`/`1`/`0`/`yes`/`no`).
    Bool,
    /// A non-empty comma-separated list of `u64`s.
    U64List,
    /// A non-empty comma-separated list of finite `f64`s.
    F64List,
}

impl ParamKind {
    /// Human-readable type name used in help and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ParamKind::U64 => "u64",
            ParamKind::U32 => "u32",
            ParamKind::F64 => "f64",
            ParamKind::Bool => "bool",
            ParamKind::U64List => "u64 list",
            ParamKind::F64List => "f64 list",
        }
    }
}

/// One parameter value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// An integer (also backs [`ParamKind::U32`] after bound-checking).
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// An integer list.
    U64List(Vec<u64>),
    /// A float list.
    F64List(Vec<f64>),
}

impl ParamValue {
    /// The kind this value satisfies (U32 values are stored as [`ParamValue::U64`]).
    fn kind(&self) -> ParamKind {
        match self {
            ParamValue::U64(_) => ParamKind::U64,
            ParamValue::F64(_) => ParamKind::F64,
            ParamValue::Bool(_) => ParamKind::Bool,
            ParamValue::U64List(_) => ParamKind::U64List,
            ParamValue::F64List(_) => ParamKind::F64List,
        }
    }

    /// Whether this value is a legal inhabitant of `kind`.
    fn satisfies(&self, kind: ParamKind) -> bool {
        match (self, kind) {
            (ParamValue::U64(x), ParamKind::U32) => *x <= u64::from(u32::MAX),
            (v, k) => v.kind() == k,
        }
    }

    /// Renders the value the way [`ParamMap::set`] would accept it back.
    pub fn render(&self) -> String {
        fn join<T: std::fmt::Display>(xs: &[T]) -> String {
            xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
        }
        match self {
            ParamValue::U64(x) => x.to_string(),
            ParamValue::F64(x) => x.to_string(),
            ParamValue::Bool(b) => b.to_string(),
            ParamValue::U64List(xs) => join(xs),
            ParamValue::F64List(xs) => join(xs),
        }
    }

    /// The value as JSON (lists become arrays; integers stay exact).
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            ParamValue::U64(x) => JsonValue::U64(*x),
            ParamValue::F64(x) => JsonValue::Number(*x),
            ParamValue::Bool(b) => JsonValue::Bool(*b),
            ParamValue::U64List(xs) => {
                JsonValue::Array(xs.iter().map(|&x| JsonValue::U64(x)).collect())
            }
            ParamValue::F64List(xs) => {
                JsonValue::Array(xs.iter().map(|&x| JsonValue::Number(x)).collect())
            }
        }
    }
}

impl From<u64> for ParamValue {
    fn from(x: u64) -> Self {
        ParamValue::U64(x)
    }
}
impl From<f64> for ParamValue {
    fn from(x: f64) -> Self {
        ParamValue::F64(x)
    }
}
impl From<bool> for ParamValue {
    fn from(b: bool) -> Self {
        ParamValue::Bool(b)
    }
}
impl From<Vec<u64>> for ParamValue {
    fn from(xs: Vec<u64>) -> Self {
        ParamValue::U64List(xs)
    }
}
impl From<Vec<f64>> for ParamValue {
    fn from(xs: Vec<f64>) -> Self {
        ParamValue::F64List(xs)
    }
}
impl From<&[u64]> for ParamValue {
    fn from(xs: &[u64]) -> Self {
        ParamValue::U64List(xs.to_vec())
    }
}
impl From<&[f64]> for ParamValue {
    fn from(xs: &[f64]) -> Self {
        ParamValue::F64List(xs.to_vec())
    }
}

/// Declaration of one parameter: name, type, help, valid range, defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSpec {
    /// Key used with `--set name=value`.
    pub name: &'static str,
    /// One-line description for `xp info`.
    pub help: &'static str,
    /// Value type.
    pub kind: ParamKind,
    /// Full-scale (paper) default.
    pub default: ParamValue,
    /// `--quick` preset; `None` means the full default also serves quick runs.
    pub quick: Option<ParamValue>,
    /// The values a numeric parameter accepts (every item, for lists);
    /// unbounded unless narrowed with [`ParamSpec::at_least`],
    /// [`ParamSpec::above`] or [`ParamSpec::at_most`].
    pub range: (Bound<f64>, Bound<f64>),
}

impl ParamSpec {
    fn new(name: &'static str, help: &'static str, kind: ParamKind, default: ParamValue) -> Self {
        assert!(
            default.satisfies(kind),
            "default for {name:?} does not satisfy {}",
            kind.name()
        );
        ParamSpec {
            name,
            help,
            kind,
            default,
            quick: None,
            range: (Bound::Unbounded, Bound::Unbounded),
        }
    }

    /// A `u64` parameter.
    pub fn u64(name: &'static str, help: &'static str, default: u64) -> Self {
        Self::new(name, help, ParamKind::U64, ParamValue::U64(default))
    }

    /// A `u32` parameter (stored as `u64`, bound-checked on assignment).
    pub fn u32(name: &'static str, help: &'static str, default: u32) -> Self {
        Self::new(name, help, ParamKind::U32, ParamValue::U64(default.into()))
    }

    /// An `f64` parameter.
    pub fn f64(name: &'static str, help: &'static str, default: f64) -> Self {
        Self::new(name, help, ParamKind::F64, ParamValue::F64(default))
    }

    /// A boolean parameter.
    pub fn bool(name: &'static str, help: &'static str, default: bool) -> Self {
        Self::new(name, help, ParamKind::Bool, ParamValue::Bool(default))
    }

    /// A `u64`-list parameter.
    pub fn u64_list(name: &'static str, help: &'static str, default: &[u64]) -> Self {
        Self::new(name, help, ParamKind::U64List, default.into())
    }

    /// An `f64`-list parameter.
    pub fn f64_list(name: &'static str, help: &'static str, default: &[f64]) -> Self {
        Self::new(name, help, ParamKind::F64List, default.into())
    }

    /// Sets the `--quick` preset for this parameter.
    ///
    /// # Panics
    ///
    /// Panics if the preset's type does not match the spec's kind.
    pub fn quick(mut self, value: impl Into<ParamValue>) -> Self {
        let value = value.into();
        assert!(
            value.satisfies(self.kind),
            "quick preset for {:?} does not satisfy {}",
            self.name,
            self.kind.name()
        );
        self.quick = Some(value);
        self
    }

    /// Rejects values below `lo`.
    pub fn at_least(mut self, lo: impl Into<f64>) -> Self {
        self.range.0 = Bound::Included(lo.into());
        self
    }

    /// Rejects values at or below `lo`.
    pub fn above(mut self, lo: impl Into<f64>) -> Self {
        self.range.0 = Bound::Excluded(lo.into());
        self
    }

    /// Rejects values above `hi`.
    pub fn at_most(mut self, hi: impl Into<f64>) -> Self {
        self.range.1 = Bound::Included(hi.into());
        self
    }

    /// Checks `value` against the declared kind and range; the error
    /// says what is wrong.
    fn check(&self, value: &ParamValue) -> Result<(), String> {
        if !value.satisfies(self.kind) {
            return Err(format!("got a {}", value.kind().name()));
        }
        let items = match value {
            ParamValue::U64(x) => vec![*x as f64],
            ParamValue::F64(x) => vec![*x],
            ParamValue::Bool(_) => Vec::new(),
            ParamValue::U64List(xs) => xs.iter().map(|&x| x as f64).collect(),
            ParamValue::F64List(xs) => xs.clone(),
        };
        match items.into_iter().find(|x| !self.range.contains(x)) {
            None => Ok(()),
            Some(x) => {
                let lo = match self.range.0 {
                    Bound::Included(a) => format!("[{a}"),
                    Bound::Excluded(a) => format!("({a}"),
                    Bound::Unbounded => "(-inf".to_string(),
                };
                let hi = match self.range.1 {
                    Bound::Included(b) => format!("{b}]"),
                    Bound::Excluded(b) => format!("{b})"),
                    Bound::Unbounded => "inf)".to_string(),
                };
                Err(format!("{x} is outside {lo}, {hi}"))
            }
        }
    }
}

/// Which preset a [`ParamMap`] starts from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Preset {
    /// Paper-scale defaults (minutes).
    #[default]
    Full,
    /// CI-scale presets (seconds).
    Quick,
}

/// An experiment's ordered parameter declarations.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ParamSchema {
    specs: Vec<ParamSpec>,
}

impl ParamSchema {
    /// Builds a schema from specs.
    ///
    /// # Panics
    ///
    /// Panics on duplicate parameter names or on a preset outside its
    /// parameter's range (programming errors in the experiment's
    /// `schema()`).
    pub fn new(specs: Vec<ParamSpec>) -> Self {
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate parameter {:?}", a.name);
            }
            for preset in std::iter::once(&a.default).chain(&a.quick) {
                if let Err(e) = a.check(preset) {
                    // lint: allow(panic-hygiene): documented panic — an out-of-range preset is an experiment programming error
                    panic!("preset for {:?} is out of range: {e}", a.name);
                }
            }
        }
        ParamSchema { specs }
    }

    /// The declared specs, in declaration order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    /// Looks up a spec by name.
    pub fn spec(&self, name: &str) -> Option<&ParamSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All parameter names, in declaration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }
}

/// Error from [`ParamMap::set`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// The key is not declared in the experiment's schema.
    UnknownKey {
        /// The offending key.
        key: String,
        /// The keys the schema does declare.
        known: Vec<&'static str>,
    },
    /// The value failed to parse as the declared type, or lies outside
    /// the parameter's declared range.
    BadValue {
        /// The key being assigned.
        key: String,
        /// The raw value text.
        value: String,
        /// The type it had to be.
        expected: &'static str,
        /// What exactly went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::UnknownKey { key, known } => {
                write!(f, "unknown parameter {key:?}; known: {}", known.join(", "))
            }
            ParamError::BadValue {
                key,
                value,
                expected,
                detail,
            } => write!(
                f,
                "bad value {value:?} for {key:?} (expected {expected}): {detail}"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// A validated parameter assignment for one schema.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamMap {
    schema: ParamSchema,
    values: BTreeMap<&'static str, ParamValue>,
}

impl ParamMap {
    /// A map holding the full-scale defaults.
    pub fn defaults(schema: &ParamSchema) -> Self {
        Self::preset(schema, Preset::Full)
    }

    /// A map holding the `--quick` presets (falling back to the defaults
    /// for parameters without one).
    pub fn quick(schema: &ParamSchema) -> Self {
        Self::preset(schema, Preset::Quick)
    }

    /// A map initialised from the chosen preset.
    pub fn preset(schema: &ParamSchema, preset: Preset) -> Self {
        let values = schema
            .specs
            .iter()
            .map(|s| {
                let v = match preset {
                    Preset::Quick => s.quick.clone().unwrap_or_else(|| s.default.clone()),
                    Preset::Full => s.default.clone(),
                };
                (s.name, v)
            })
            .collect();
        ParamMap {
            schema: schema.clone(),
            values,
        }
    }

    /// The schema this map was built against.
    pub fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    /// Parses `raw` according to the schema and assigns it to `key`.
    ///
    /// # Errors
    ///
    /// [`ParamError::UnknownKey`] when the schema does not declare `key`;
    /// [`ParamError::BadValue`] when `raw` does not parse as the declared
    /// type (including out-of-range `u32`s, non-finite floats and empty
    /// lists) or lies outside the declared range.
    pub fn set(&mut self, key: &str, raw: &str) -> Result<(), ParamError> {
        let Some(spec) = self.schema.spec(key) else {
            return Err(ParamError::UnknownKey {
                key: key.to_string(),
                known: self.schema.names(),
            });
        };
        let value = parse_value(spec.kind, raw)
            .and_then(|value| spec.check(&value).map(|()| value))
            .map_err(|detail| ParamError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                expected: spec.kind.name(),
                detail,
            })?;
        self.values.insert(spec.name, value);
        Ok(())
    }

    /// Assigns an already-typed value to `key`.
    ///
    /// # Errors
    ///
    /// [`ParamError::UnknownKey`] / [`ParamError::BadValue`] exactly as
    /// [`ParamMap::set`], but with a type check instead of a parse.
    pub fn set_value(&mut self, key: &str, value: ParamValue) -> Result<(), ParamError> {
        let Some(spec) = self.schema.spec(key) else {
            return Err(ParamError::UnknownKey {
                key: key.to_string(),
                known: self.schema.names(),
            });
        };
        if let Err(detail) = spec.check(&value) {
            return Err(ParamError::BadValue {
                key: key.to_string(),
                value: value.render(),
                expected: spec.kind.name(),
                detail,
            });
        }
        self.values.insert(spec.name, value);
        Ok(())
    }

    fn value(&self, key: &str) -> &ParamValue {
        self.values
            .get(key)
            // lint: allow(panic-hygiene): documented panic — schema mismatches are experiment programming errors, not user errors
            .unwrap_or_else(|| panic!("parameter {key:?} not in schema — experiment bug"))
    }

    /// Typed getter. Panics if the schema does not declare `key` as `u64`
    /// (a programming error, not a user error — user input is validated
    /// in [`ParamMap::set`]).
    pub fn u64(&self, key: &str) -> u64 {
        match self.value(key) {
            ParamValue::U64(x) => *x,
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            v => panic!("parameter {key:?} is a {}, not u64", v.kind().name()),
        }
    }

    /// Typed getter for `u32` parameters (declared via [`ParamSpec::u32`]).
    pub fn u32(&self, key: &str) -> u32 {
        // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
        u32::try_from(self.u64(key)).expect("u32 params are bound-checked on assignment")
    }

    /// Typed getter returning `usize` (for opinion counts and the like).
    pub fn usize(&self, key: &str) -> usize {
        // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
        usize::try_from(self.u64(key)).expect("u64 fits usize on supported targets")
    }

    /// Typed getter. Panics if the schema does not declare `key` as `f64`.
    pub fn f64(&self, key: &str) -> f64 {
        match self.value(key) {
            ParamValue::F64(x) => *x,
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            v => panic!("parameter {key:?} is a {}, not f64", v.kind().name()),
        }
    }

    /// Typed getter. Panics if the schema does not declare `key` as bool.
    pub fn bool(&self, key: &str) -> bool {
        match self.value(key) {
            ParamValue::Bool(b) => *b,
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            v => panic!("parameter {key:?} is a {}, not bool", v.kind().name()),
        }
    }

    /// Typed getter. Panics if the schema does not declare `key` as a
    /// `u64` list.
    pub fn u64_list(&self, key: &str) -> Vec<u64> {
        match self.value(key) {
            ParamValue::U64List(xs) => xs.clone(),
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            v => panic!("parameter {key:?} is a {}, not a u64 list", v.kind().name()),
        }
    }

    /// Typed getter returning a `usize` list.
    pub fn usize_list(&self, key: &str) -> Vec<usize> {
        self.u64_list(key)
            .into_iter()
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            .map(|x| usize::try_from(x).expect("u64 fits usize on supported targets"))
            .collect()
    }

    /// Typed getter. Panics if the schema does not declare `key` as an
    /// `f64` list.
    pub fn f64_list(&self, key: &str) -> Vec<f64> {
        match self.value(key) {
            ParamValue::F64List(xs) => xs.clone(),
            // lint: allow(panic-hygiene): documented panic — typed getters turn schema mismatches into programming-error panics
            v => panic!(
                "parameter {key:?} is a {}, not an f64 list",
                v.kind().name()
            ),
        }
    }

    /// The assignment as JSON, for provenance in saved reports.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(
            self.values
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

fn parse_value(kind: ParamKind, raw: &str) -> Result<ParamValue, String> {
    // Underscore separators are allowed in integers: `--set n=65_536`.
    let clean = |s: &str| s.trim().replace('_', "");
    match kind {
        ParamKind::U64 => clean(raw)
            .parse::<u64>()
            .map(ParamValue::U64)
            .map_err(|e| e.to_string()),
        ParamKind::U32 => clean(raw)
            .parse::<u32>()
            .map(|x| ParamValue::U64(x.into()))
            .map_err(|e| e.to_string()),
        ParamKind::F64 => {
            let x: f64 = raw
                .trim()
                .parse()
                .map_err(|e: std::num::ParseFloatError| e.to_string())?;
            if x.is_finite() {
                Ok(ParamValue::F64(x))
            } else {
                Err("must be finite".to_string())
            }
        }
        ParamKind::Bool => match raw.trim().to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" => Ok(ParamValue::Bool(true)),
            "false" | "0" | "no" => Ok(ParamValue::Bool(false)),
            _ => Err("use true/false".to_string()),
        },
        ParamKind::U64List => split_list(raw)?
            .iter()
            .map(|item| clean(item).parse::<u64>().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()
            .map(ParamValue::U64List),
        ParamKind::F64List => split_list(raw)?
            .iter()
            .map(|item| {
                let x: f64 = item
                    .trim()
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| e.to_string())?;
                if x.is_finite() {
                    Ok(x)
                } else {
                    Err("must be finite".to_string())
                }
            })
            .collect::<Result<Vec<_>, _>>()
            .map(ParamValue::F64List),
    }
}

fn split_list(raw: &str) -> Result<Vec<&str>, String> {
    // split(',') always yields at least one item, so an empty or
    // all-whitespace input is caught here as an empty item too.
    let items: Vec<&str> = raw.split(',').map(str::trim).collect();
    if items.iter().any(|s| s.is_empty()) {
        return Err("empty or missing list item".to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ParamSchema {
        ParamSchema::new(vec![
            ParamSpec::u64("n", "population", 1 << 14).quick(1 << 10),
            ParamSpec::u64("k", "opinions", 8),
            ParamSpec::f64("eps", "bias", 0.3).quick(0.5),
            ParamSpec::bool("voter", "include voter", true).quick(false),
            ParamSpec::u64_list("ns", "populations", &[1024, 4096]),
            ParamSpec::f64_list("skews", "clock skews", &[0.0, 0.2]),
            ParamSpec::u32("phases", "max phases", 6),
        ])
    }

    #[test]
    fn presets_respect_quick_overrides() {
        let s = schema();
        let full = ParamMap::defaults(&s);
        let quick = ParamMap::quick(&s);
        assert_eq!(full.u64("n"), 1 << 14);
        assert_eq!(quick.u64("n"), 1 << 10);
        // No quick override → same as full.
        assert_eq!(full.u64("k"), quick.u64("k"));
        assert!(full.bool("voter"));
        assert!(!quick.bool("voter"));
        assert_eq!(quick.f64("eps"), 0.5);
    }

    #[test]
    fn set_parses_every_kind() {
        let s = schema();
        let mut m = ParamMap::defaults(&s);
        m.set("n", "65_536").expect("u64");
        m.set("eps", "0.125").expect("f64");
        m.set("voter", "no").expect("bool");
        m.set("ns", "512, 1024,2048").expect("u64 list");
        m.set("skews", "0.1,0.5").expect("f64 list");
        m.set("phases", "9").expect("u32");
        assert_eq!(m.u64("n"), 65_536);
        assert_eq!(m.f64("eps"), 0.125);
        assert!(!m.bool("voter"));
        assert_eq!(m.u64_list("ns"), vec![512, 1024, 2048]);
        assert_eq!(m.usize_list("ns"), vec![512, 1024, 2048]);
        assert_eq!(m.f64_list("skews"), vec![0.1, 0.5]);
        assert_eq!(m.u32("phases"), 9);
        assert_eq!(m.usize("k"), 8);
    }

    #[test]
    fn unknown_keys_are_rejected_with_suggestions() {
        let mut m = ParamMap::defaults(&schema());
        let err = m.set("trials", "3").expect_err("unknown key");
        match err {
            ParamError::UnknownKey { key, known } => {
                assert_eq!(key, "trials");
                assert!(known.contains(&"n"));
                assert!(known.contains(&"skews"));
            }
            e => panic!("wrong error {e:?}"),
        }
    }

    #[test]
    fn malformed_values_are_rejected() {
        let mut m = ParamMap::defaults(&schema());
        for (key, bad) in [
            ("n", "twelve"),
            ("n", "-3"),
            ("eps", "NaN"),
            ("eps", "inf"),
            ("voter", "maybe"),
            ("ns", ""),
            ("ns", "1,,2"),
            ("ns", "1,2.5"),
            ("skews", "0.1,abc"),
            ("phases", "5000000000"),
        ] {
            let err = m.set(key, bad).expect_err(bad);
            assert!(
                matches!(err, ParamError::BadValue { .. }),
                "{key}={bad}: {err:?}"
            );
            assert!(!err.to_string().is_empty());
        }
        // Nothing was clobbered by failed sets.
        assert_eq!(m, ParamMap::defaults(&schema()));
    }

    #[test]
    fn set_value_type_checks() {
        let mut m = ParamMap::defaults(&schema());
        m.set_value("n", ParamValue::U64(7)).expect("matching kind");
        assert_eq!(m.u64("n"), 7);
        assert!(m.set_value("n", ParamValue::F64(1.5)).is_err());
        assert!(m.set_value("phases", ParamValue::U64(u64::MAX)).is_err());
        assert!(m
            .set_value("nope", ParamValue::U64(1))
            .is_err_and(|e| matches!(e, ParamError::UnknownKey { .. })));
    }

    #[test]
    fn values_outside_the_range_are_rejected() {
        let s = ParamSchema::new(vec![
            ParamSpec::u64("trials", "trials", 4).at_least(1),
            ParamSpec::f64("eps", "bias", 0.5).above(0.0).at_most(10.0),
            ParamSpec::u64_list("ns", "sizes", &[8, 16]).at_least(4),
        ]);
        let mut m = ParamMap::defaults(&s);
        for (key, bad) in [
            ("trials", "0"),
            ("eps", "0"),
            ("eps", "-1"),
            ("eps", "10.5"),
            ("ns", "8,2"),
        ] {
            let err = m.set(key, bad).expect_err(bad);
            assert!(
                matches!(err, ParamError::BadValue { .. }),
                "{key}={bad}: {err:?}"
            );
        }
        assert!(m
            .set_value("ns", ParamValue::U64List(vec![3]))
            .is_err_and(|e| matches!(e, ParamError::BadValue { .. })));
        assert_eq!(m, ParamMap::defaults(&s), "failed sets change nothing");
        let err = m.set("eps", "0").expect_err("open lower bound");
        assert!(err.to_string().contains("0 is outside (0, 10]"), "{err}");
        m.set("trials", "1").expect("inclusive lower bound");
        m.set("eps", "10").expect("inclusive upper bound");
        m.set("ns", "4").expect("every item in range");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_presets_are_rejected() {
        ParamSchema::new(vec![ParamSpec::u64("trials", "t", 4).quick(0).at_least(1)]);
    }

    #[test]
    #[should_panic(expected = "not u64")]
    fn wrong_typed_getter_panics() {
        ParamMap::defaults(&schema()).u64("eps");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_rejected() {
        ParamSchema::new(vec![
            ParamSpec::u64("n", "a", 1),
            ParamSpec::f64("n", "b", 1.0),
        ]);
    }

    #[test]
    fn render_roundtrips_through_set() {
        let s = schema();
        let full = ParamMap::defaults(&s);
        let mut again = ParamMap::quick(&s);
        for spec in s.specs() {
            let rendered = full.value(spec.name).render();
            again.set(spec.name, &rendered).expect("render parses");
        }
        assert_eq!(again, full);
    }
}
