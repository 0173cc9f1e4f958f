//! The documentation stays true to the code: every `xp …` command in the
//! README's code blocks and in the CI workflow parses (without running),
//! and every upper-case `.md` file a Rust comment names exists.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    rapid_bench::cli::workspace_root()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Joins `\` continuations and folded YAML blocks (`run: >`) into one
/// logical line each.
fn logical_lines(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let mut joined = line.trim_end().to_string();
        if joined.ends_with("run: >") {
            let indent = line.len() - line.trim_start().len();
            joined.clear();
            while let Some(next) =
                lines.next_if(|l| !l.trim().is_empty() && l.len() - l.trim_start().len() > indent)
            {
                joined.push(' ');
                joined.push_str(next.trim());
            }
        }
        while joined.ends_with('\\') {
            joined.pop();
            match lines.next() {
                Some(next) => joined.push_str(next.trim_end()),
                None => break,
            }
        }
        out.push(joined);
    }
    out
}

/// The argv of the `xp` invocation on `line`, if any: after
/// `cargo run … --bin xp --` or a leading `xp`, up to the first shell
/// operator or comment.
fn xp_argv(line: &str) -> Option<Vec<String>> {
    let rest = match line.split_once("--bin xp --") {
        Some((_, rest)) => rest,
        None => line.trim_start().strip_prefix("xp ")?,
    };
    let end = rest.find(['|', '&', ';', '>', '#']).unwrap_or(rest.len());
    Some(rest[..end].split_whitespace().map(str::to_string).collect())
}

/// Every `xp` invocation in the README's fenced code blocks and in the
/// CI workflow, with its source for messages.
fn documented_commands() -> Vec<(String, Vec<String>)> {
    let mut commands = Vec::new();
    let mut in_block = false;
    for line in logical_lines(&read(&root().join("README.md"))) {
        if line.trim_start().starts_with("```") {
            in_block = !in_block;
        } else if let Some(argv) = xp_argv(&line).filter(|_| in_block) {
            commands.push((format!("README.md: {line}"), argv));
        }
    }
    let ci = root().join(".github/workflows/ci.yml");
    for line in logical_lines(&read(&ci)) {
        if let Some(argv) = line
            .contains("--bin xp --")
            .then(|| xp_argv(&line))
            .flatten()
        {
            commands.push((format!("ci.yml: {line}"), argv));
        }
    }
    commands
}

#[test]
fn documented_xp_commands_parse() {
    let commands = documented_commands();
    let from_ci = commands
        .iter()
        .filter(|(s, _)| s.starts_with("ci.yml"))
        .count();
    assert!(commands.len() >= 30 && from_ci >= 8, "{commands:#?}");
    for (source, argv) in &commands {
        if let Err(e) = rapid_bench::cli::parse(argv, &mut Vec::new()) {
            panic!("{source}\n  -> {e}");
        }
    }
}

/// Appends every `.rs` file under `dir` to `files`.
fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

/// Tokens in `comment` naming an upper-case `.md` file, maybe under a
/// directory.
fn md_names(comment: &str) -> impl Iterator<Item = &str> {
    comment
        .split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let name = token.rsplit('/').next().unwrap_or(token);
            name.strip_suffix(".md").is_some_and(|stem| {
                stem.starts_with(|c: char| c.is_ascii_uppercase())
                    && stem
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            })
        })
}

#[test]
fn documented_files_exist() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "found only {} Rust files", files.len());
    let mut missing = Vec::new();
    for file in &files {
        for (i, line) in read(file).lines().enumerate() {
            let Some(comment) = line.trim_start().strip_prefix("//") else {
                continue;
            };
            for name in md_names(comment) {
                if !root.join(name).exists() {
                    missing.push(format!("{}:{}: {name}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "comments name missing files:\n{}",
        missing.join("\n")
    );
}
