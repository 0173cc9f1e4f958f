//! Per-rule fixtures: every rule fires on its bad case, and a reasoned
//! allow-marker suppresses it. These are the executable specification of
//! the marker contract — if a rule's trigger or a marker's scope drifts,
//! one of these fails before the live workspace does.

use rapid_experiments::json::{parse, JsonValue};
use rapid_lint::findings::Report;
use rapid_lint::rules;
use rapid_lint::source::{FileKind, Manifest, SourceFile, Workspace};

/// Lints one in-memory `Src` file at the given path.
fn lint_src(rel: &str, text: &str) -> Report {
    let file = SourceFile::from_source(rel, FileKind::Src, text);
    let mut report = Report::default();
    rules::check_file(&file, &mut report);
    report.sort();
    report
}

fn rules_fired(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- rule 1

#[test]
fn rng_stream_registry_fires_on_unregistered_index() {
    let r = lint_src("crates/sim/src/x.rs", "let s = seed.child(42);\n");
    assert_eq!(rules_fired(&r), ["rng-stream-registry"]);
}

#[test]
fn rng_stream_registry_passes_registered_indices() {
    for id in 0..=6u64 {
        let src = format!("let s = seed.child({id});\n");
        let r = lint_src("crates/sim/src/x.rs", &src);
        assert!(r.clean(), "child({id}) is registered but fired: {r:?}");
    }
}

#[test]
fn rng_stream_registry_marker_suppresses() {
    let src = "// lint: allow(rng-stream-registry): experiment-local stream\n\
               let s = seed.child(42);\n";
    let r = lint_src("crates/sim/src/x.rs", src);
    assert!(r.clean());
    assert_eq!(r.markers_honored, 1);
}

#[test]
fn rng_stream_registry_resolves_const_indirection() {
    let bad = "const MY_STREAM: u64 = 99;\nlet s = seed.child(MY_STREAM);\n";
    let r = lint_src("crates/sim/src/x.rs", bad);
    assert_eq!(rules_fired(&r), ["rng-stream-registry"]);

    let good = "const MY_STREAM: u64 = 6;\nlet s = seed.child(MY_STREAM);\n";
    assert!(lint_src("crates/sim/src/x.rs", good).clean());
}

// ---------------------------------------------------------------- rule 2

#[test]
fn no_wall_clock_fires_outside_bench() {
    let r = lint_src(
        "crates/core/src/x.rs",
        "let t = std::time::Instant::now();\n",
    );
    assert_eq!(rules_fired(&r), ["no-wall-clock"]);
    let r = lint_src("crates/sim/src/x.rs", "let t = SystemTime::now();\n");
    assert_eq!(rules_fired(&r), ["no-wall-clock"]);
}

#[test]
fn no_wall_clock_exempts_bench_crate() {
    let r = lint_src(
        "crates/bench/src/x.rs",
        "let t = std::time::Instant::now();\n",
    );
    assert!(r.clean());
}

#[test]
fn no_wall_clock_marker_suppresses() {
    let src = "// lint: allow(no-wall-clock): measurement only\n\
               let t = std::time::Instant::now();\n";
    let r = lint_src("crates/core/src/x.rs", src);
    assert!(r.clean());
    assert_eq!(r.markers_honored, 1);
}

// ---------------------------------------------------------------- rule 3

#[test]
fn no_unordered_iteration_fires_in_engine_crates() {
    for krate in ["sim", "core", "macro", "graph", "net"] {
        let rel = format!("crates/{krate}/src/x.rs");
        let r = lint_src(&rel, "let m: HashMap<u32, u32> = HashMap::new();\n");
        assert!(
            rules_fired(&r).contains(&"no-unordered-iteration"),
            "{krate} is an engine crate but HashMap did not fire"
        );
    }
}

#[test]
fn no_unordered_iteration_exempts_non_engine_crates() {
    let r = lint_src(
        "crates/experiments/src/x.rs",
        "let s: HashSet<u32> = HashSet::new();\n",
    );
    assert!(r.clean());
}

#[test]
fn no_unordered_iteration_marker_suppresses() {
    let src = "// lint: allow(no-unordered-iteration): membership-only set\n\
               let s = std::collections::HashSet::new();\n";
    let r = lint_src("crates/graph/src/x.rs", src);
    assert!(r.clean());
    assert_eq!(r.markers_honored, 1);
}

// ---------------------------------------------------------------- rule 4

#[test]
fn panic_hygiene_fires_on_unwrap_expect_panic() {
    assert_eq!(
        rules_fired(&lint_src("crates/sim/src/x.rs", "x.unwrap();\n")),
        ["panic-hygiene"]
    );
    assert_eq!(
        rules_fired(&lint_src("crates/sim/src/x.rs", "x.expect(\"y\");\n")),
        ["panic-hygiene"]
    );
    assert_eq!(
        rules_fired(&lint_src("crates/sim/src/x.rs", "panic!(\"boom\");\n")),
        ["panic-hygiene"]
    );
    assert_eq!(
        rules_fired(&lint_src("crates/sim/src/x.rs", "unreachable!();\n")),
        ["panic-hygiene"]
    );
}

#[test]
fn panic_hygiene_exempts_cfg_test_and_test_files() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
    assert!(lint_src("crates/sim/src/x.rs", src).clean());

    let file = SourceFile::from_source("crates/sim/tests/t.rs", FileKind::Test, "x.unwrap();\n");
    let mut report = Report::default();
    rules::check_file(&file, &mut report);
    assert!(report.clean());
}

#[test]
fn panic_hygiene_ignores_panic_words_in_strings_and_comments() {
    let src = "let m = \"never panic! or .unwrap() here\"; // .expect( in prose\n";
    assert!(lint_src("crates/sim/src/x.rs", src).clean());
}

#[test]
fn panic_hygiene_marker_suppresses() {
    let src = "// lint: allow(panic-hygiene): invariant documented here\n\
               x.expect(\"invariant\");\n";
    let r = lint_src("crates/sim/src/x.rs", src);
    assert!(r.clean());
    assert_eq!(r.markers_honored, 1);
}

// ------------------------------------------------------- marker contract

#[test]
fn reasonless_marker_is_itself_a_finding() {
    let src = "// lint: allow(panic-hygiene)\nx.expect(\"y\");\n";
    let r = lint_src("crates/sim/src/x.rs", src);
    assert!(rules_fired(&r).contains(&"marker-syntax"));
}

#[test]
fn marker_for_one_rule_does_not_cover_another() {
    let src = "// lint: allow(no-wall-clock): measurement only\n\
               let t = std::time::Instant::now().checked_add(d).unwrap();\n";
    let r = lint_src("crates/core/src/x.rs", src);
    assert_eq!(rules_fired(&r), ["panic-hygiene"]);
}

#[test]
fn marker_does_not_leak_past_the_next_code_line() {
    let src = "// lint: allow(panic-hygiene): first site only\n\
               a.expect(\"one\");\n\
               b.expect(\"two\");\n";
    let r = lint_src("crates/sim/src/x.rs", src);
    assert_eq!(rules_fired(&r), ["panic-hygiene"]);
    assert_eq!(r.findings[0].line, 3);
}

// ---------------------------------------------------------------- rule 5

#[test]
fn zero_deps_policy_fires_on_registry_dependency() {
    let toml = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1\"\n";
    let manifest = Manifest::from_source("crates/x/Cargo.toml", toml);
    let mut report = Report::default();
    rules::check_manifest(&manifest, &mut report);
    assert_eq!(rules_fired(&report), ["zero-deps-policy"]);
}

#[test]
fn zero_deps_policy_passes_path_and_workspace_deps() {
    let toml = "[package]\nname = \"x\"\n\
                [dependencies]\n\
                rapid-sim.workspace = true\n\
                rapid-core = { workspace = true }\n\
                rapid-lint = { path = \"../lint\" }\n\
                [dev-dependencies]\n\
                rapid-stats.workspace = true\n";
    let manifest = Manifest::from_source("crates/x/Cargo.toml", toml);
    let mut report = Report::default();
    rules::check_manifest(&manifest, &mut report);
    assert!(report.clean(), "{report:?}");
}

#[test]
fn zero_deps_policy_marker_suppresses() {
    let toml = "[package]\nname = \"x\"\n[dependencies]\n\
                # lint: allow(zero-deps-policy): vendored exception\n\
                serde = \"1\"\n";
    let manifest = Manifest::from_source("crates/x/Cargo.toml", toml);
    let mut report = Report::default();
    rules::check_manifest(&manifest, &mut report);
    assert!(report.clean());
    assert_eq!(report.markers_honored, 1);
}

// ---------------------------------------------------------------- rule 6

fn workspace_with_lib(lib_source: &str) -> Workspace {
    Workspace {
        members: vec!["crates/x".into()],
        files: vec![SourceFile::from_source(
            "crates/x/src/lib.rs",
            FileKind::Src,
            lib_source,
        )],
        manifests: Vec::new(),
    }
}

#[test]
fn crate_header_policy_fires_on_missing_headers() {
    let ws = workspace_with_lib("//! Docs.\npub fn f() {}\n");
    let mut report = Report::default();
    rules::check_crate_headers(&ws, &mut report);
    assert_eq!(
        rules_fired(&report),
        ["crate-header-policy", "crate-header-policy"]
    );
}

#[test]
fn crate_header_policy_passes_complete_headers() {
    let ws = workspace_with_lib(
        "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n",
    );
    let mut report = Report::default();
    rules::check_crate_headers(&ws, &mut report);
    assert!(report.clean(), "{report:?}");
}

// ----------------------------------------------------------- JSON schema

#[test]
fn json_document_round_trips_through_own_parser() {
    let r = lint_src(
        "crates/sim/src/x.rs",
        "let t = std::time::Instant::now();\nx.unwrap();\n",
    );
    let text = r.to_json().to_pretty();
    let doc = parse(&text).expect("emitted findings document parses");

    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    assert!(matches!(doc.get("clean"), Some(JsonValue::Bool(false))));
    let findings = doc
        .get("findings")
        .and_then(JsonValue::as_array)
        .expect("array");
    assert_eq!(findings.len(), 2);
    for f in findings {
        for key in ["rule", "file", "line", "message", "snippet"] {
            assert!(f.get(key).is_some(), "finding missing field {key}");
        }
    }
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("total").and_then(JsonValue::as_f64), Some(2.0));
    assert!(summary.get("per_rule").is_some());
}
