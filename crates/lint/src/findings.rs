//! Findings: what a rule reports, and the machine-readable document.

use crate::json::Json;

/// Schema version of the JSON findings document. Bump on any breaking
/// change to the field set.
pub const SCHEMA_VERSION: u64 = 1;

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule id (e.g. `no-wall-clock`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// The result of linting a workspace: findings plus scan accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Manifests scanned.
    pub manifests_scanned: usize,
    /// Allow-markers that suppressed at least one would-be finding.
    pub markers_honored: usize,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering: file, then line, then rule id.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }

    /// Per-rule finding counts, in rule-id order.
    pub fn per_rule(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for f in &self.findings {
            match counts.iter_mut().find(|(r, _)| *r == f.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.rule, 1)),
            }
        }
        counts.sort_by_key(|(r, _)| *r);
        counts
    }

    /// The machine-readable findings document (`xp lint --format json`).
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("rule".into(), Json::Str(f.rule.into())),
                    ("file".into(), Json::Str(f.file.clone())),
                    ("line".into(), Json::Num(f.line as f64)),
                    ("message".into(), Json::Str(f.message.clone())),
                    ("snippet".into(), Json::Str(f.snippet.clone())),
                ])
            })
            .collect();
        let rules = self
            .per_rule()
            .into_iter()
            .map(|(r, n)| (r.to_string(), Json::Num(n as f64)))
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("clean".into(), Json::Bool(self.clean())),
            ("findings".into(), Json::Arr(findings)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("total".into(), Json::Num(self.findings.len() as f64)),
                    ("per_rule".into(), Json::Obj(rules)),
                    ("files_scanned".into(), Json::Num(self.files_scanned as f64)),
                    (
                        "manifests_scanned".into(),
                        Json::Num(self.manifests_scanned as f64),
                    ),
                    (
                        "markers_honored".into(),
                        Json::Num(self.markers_honored as f64),
                    ),
                ]),
            ),
        ])
    }

    /// The human-readable table (`xp lint`, the default format).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.file, f.line, f.rule, f.message, f.snippet
            ));
        }
        out.push_str(&format!(
            "{} finding(s) · {} files, {} manifests scanned · {} allow-marker(s) honored\n",
            self.findings.len(),
            self.files_scanned,
            self.manifests_scanned,
            self.markers_honored
        ));
        if !self.findings.is_empty() {
            out.push_str("per rule:");
            for (rule, n) in self.per_rule() {
                out.push_str(&format!(" {rule}={n}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_experiments::json::{parse, JsonValue};

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: "no-wall-clock",
                    file: "crates/x/src/a.rs".into(),
                    line: 9,
                    message: "Instant::now outside crates/bench".into(),
                    snippet: "let t = Instant::now();".into(),
                },
                Finding {
                    rule: "panic-hygiene",
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    message: "expect() without a reasoned allow-marker".into(),
                    snippet: "foo.expect(\"bar\");".into(),
                },
            ],
            files_scanned: 2,
            manifests_scanned: 1,
            markers_honored: 1,
        }
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.findings[0].line, 3);
        assert_eq!(r.findings[1].line, 9);
    }

    #[test]
    fn json_document_round_trips_and_carries_summary() {
        let r = sample();
        let text = r.to_json().to_pretty();
        let doc = parse(&text).expect("emitted document parses");
        assert!(matches!(doc.get("clean"), Some(JsonValue::Bool(false))));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("total").and_then(JsonValue::as_f64), Some(2.0));
        let findings = doc
            .get("findings")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("rule").and_then(JsonValue::as_str),
            Some("no-wall-clock")
        );
    }

    #[test]
    fn table_mentions_every_finding_and_the_counts() {
        let t = sample().to_table();
        assert!(t.contains("crates/x/src/a.rs:9"));
        assert!(t.contains("panic-hygiene=1"));
        assert!(t.contains("2 finding(s)"));
    }
}
