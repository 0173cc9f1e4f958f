//! rapid-lint: determinism & hygiene static analysis over this
//! workspace's own source and manifests.
//!
//! Every claim the reproduction makes — oracle agreement, micro/macro
//! cross-validation, bit-identical fault-layer equivalence — rests on
//! invariants no test exercises directly: seeds fully determine runs,
//! RNG streams never collide, iteration order never leaks into an
//! outcome, the build needs nothing outside the repository. This crate
//! makes those invariants *machine-checked*: a small comment- and
//! string-stripping lexer ([`lexer`]) feeds a rule engine ([`rules`])
//! over every member crate, driven by `xp lint` (argv handling in
//! `rapid-bench`) and a blocking CI job.
//!
//! The rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `rng-stream-registry` | literal `seed.child(N)` indices match the declared [`registry`] |
//! | `no-wall-clock` | `Instant::now`/`SystemTime::now` only in `crates/bench` |
//! | `no-unordered-iteration` | no `HashMap`/`HashSet` in engine crates |
//! | `panic-hygiene` | no `unwrap()`; `expect(`/`panic!` justified per site |
//! | `obs-rng-isolation` | trace emission sites never draw from an RNG stream |
//! | `zero-deps-policy` | manifests contain only path/workspace dependencies |
//! | `crate-header-policy` | every `lib.rs` forbids unsafe code and denies missing docs |
//!
//! Any rule can be suppressed at one site with a **reasoned** marker —
//! `// lint: allow(<rule-id>): <why>` (`#` comments in manifests);
//! markers without a reason are themselves findings (`marker-syntax`).
//! Findings are machine-readable ([`findings`], `xp lint --format
//! json`), and the live workspace is pinned clean by this crate's
//! `self_clean` integration test, so `cargo test` is itself the merge
//! gate.
//!
//! The crate is deliberately std-only with **zero** dependencies — not
//! even on the rest of the workspace — so the analysis pass satisfies
//! its own `zero-deps-policy` and never waits on an engine rebuild. Only
//! its tests reach further: they parse the findings document with
//! `rapid_experiments::json`, a dev-dependency.
//!
//! # Example
//!
//! ```
//! use rapid_lint::source::{FileKind, SourceFile};
//! use rapid_lint::{findings::Report, rules};
//!
//! let file = SourceFile::from_source(
//!     "crates/core/src/hot.rs",
//!     FileKind::Src,
//!     "let t = std::time::Instant::now();\n",
//! );
//! let mut report = Report::default();
//! rules::check_file(&file, &mut report);
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "no-wall-clock");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod findings;
pub mod json;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod source;
