//! The typed run functions behind `xp list`, `info`, `run`, `all` and
//! `trace`.
//!
//! Argument parsing lives in `rapid-bench`'s `cli` module, which turns
//! argv into what these functions take: validated [`Job`]s, a
//! [`RunOpts`] and concrete output paths anchored at the workspace.
//! Every function writes its stdout document to the caller's writer and
//! its save notices to stderr, so stdout stays machine-readable
//! (`xp … --format json | jq .` must parse).

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rapid_obs::{EventKind, Obs};

use crate::experiment::Experiment;
use crate::json::JsonValue;
use crate::params::{ParamError, ParamMap, Preset};
use crate::registry;
use crate::report::Report;
use crate::runner::Parallelism;

/// How a report is rendered on stdout.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned text tables (the default).
    #[default]
    Table,
    /// The report's JSON document.
    Json,
    /// RFC-4180-style CSV with `#` provenance lines.
    Csv,
}

/// Options shared by `xp run`, `xp all` and `xp trace`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunOpts {
    /// `--quick` selects the CI-scale preset.
    pub preset: Preset,
    /// `--set key=value` overrides, applied in order.
    pub sets: Vec<(String, String)>,
    /// `--seed N` overrides every experiment's master seed: it means
    /// `--set seed=N`, applied after the other `--set`s.
    pub seed: Option<u64>,
    /// `--parallelism SPEC` sets trial (and, as `TRIALSxSHARDS`, shard)
    /// workers (default: all cores for trials, one shard worker).
    pub parallelism: Parallelism,
    /// `--format table|json|csv`.
    pub format: OutputFormat,
    /// `--out`: the save directory (`xp trace`: the JSONL file).
    pub out: Option<PathBuf>,
}

/// One validated unit of work: an experiment plus its resolved map.
pub struct Job {
    /// The registry experiment.
    pub exp: &'static dyn Experiment,
    /// Its preset with every `--set` (and `--seed`) applied.
    pub map: ParamMap,
}

impl Job {
    /// Resolves `exp`'s preset under `opts` and applies every `--set`,
    /// then `--seed`.
    ///
    /// # Errors
    ///
    /// The first `--set` the experiment's schema rejects.
    pub fn new(exp: &'static dyn Experiment, opts: &RunOpts) -> Result<Job, ParamError> {
        let mut map = exp.preset(opts.preset);
        for (key, value) in &opts.sets {
            map.set(key, value)?;
        }
        if let Some(seed) = opts.seed {
            map.set_value("seed", seed.into())?;
        }
        Ok(Job { exp, map })
    }
}

/// `xp list`: one `id  claim  title` row per experiment, or the README
/// catalog table when `markdown` is set.
///
/// # Errors
///
/// Propagates write errors.
pub fn list(w: &mut dyn Write, markdown: bool) -> io::Result<()> {
    if markdown {
        return write!(w, "{}", registry::catalog_markdown());
    }
    for exp in registry::registry() {
        writeln!(w, "{:4}  {:38}  {}", exp.id(), exp.claim(), exp.title())?;
    }
    Ok(())
}

/// `xp info`: the experiment's parameter schema with defaults and the
/// quick preset.
///
/// # Errors
///
/// Propagates write errors.
pub fn info(w: &mut dyn Write, exp: &dyn Experiment) -> io::Result<()> {
    writeln!(w, "{} — {}", exp.id(), exp.title())?;
    writeln!(w, "reproduces: {}\n", exp.claim())?;
    let row = |w: &mut dyn Write, cells: [&str; 5]| {
        let [name, kind, default, quick, help] = cells;
        writeln!(w, "{name:12}  {kind:9}  {default:>24}  {quick:>20}  {help}")
    };
    row(w, ["param", "type", "default", "quick", "help"])?;
    for spec in exp.params().specs() {
        let quick = spec.quick.as_ref().map_or("-".to_string(), |q| q.render());
        row(
            w,
            [
                spec.name,
                spec.kind.name(),
                &spec.default.render(),
                &quick,
                spec.help,
            ],
        )?;
    }
    Ok(())
}

fn render(w: &mut dyn Write, report: &Report, format: OutputFormat) -> io::Result<()> {
    match format {
        OutputFormat::Table => writeln!(w, "{report}"),
        OutputFormat::Json => writeln!(w, "{}", report.to_json()),
        OutputFormat::Csv => write!(w, "{}", report.to_csv()),
    }
}

/// Prints `report` in `format` and saves it under `out` (JSON always;
/// CSV too when that is the chosen format). Save notices and failures
/// go to stderr; failures warn but do not abort the run.
///
/// # Errors
///
/// Propagates write errors on `w`.
pub fn emit(
    w: &mut dyn Write,
    report: &Report,
    format: OutputFormat,
    out: &Path,
) -> io::Result<()> {
    render(w, report, format)?;
    match report.save_json(out) {
        Ok(path) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warning: could not save JSON: {e}]"),
    }
    if format == OutputFormat::Csv {
        let path = out.join(format!("{}.csv", report.id.to_lowercase()));
        match std::fs::write(&path, report.to_csv()) {
            Ok(()) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("[warning: could not save CSV: {e}]"),
        }
    }
    Ok(())
}

/// `xp run` / `xp all`: runs every job in order, emitting each report
/// and saving it with its parameter provenance under `out`.
///
/// # Errors
///
/// Propagates write errors on `w`.
pub fn run_jobs(w: &mut dyn Write, jobs: &[Job], opts: &RunOpts, out: &Path) -> io::Result<()> {
    for job in jobs {
        let report = job.exp.run(&job.map, opts.parallelism);
        emit(w, &report, opts.format, out)?;
        save_params(job, &report, out);
    }
    Ok(())
}

/// Saves `<out>/<id>.params.json` — the exact parameter assignment and
/// master seed that produced the sibling report, so any run (presets,
/// `--set` overrides, `--seed`) can be reproduced later.
fn save_params(job: &Job, report: &Report, out: &Path) {
    let doc = JsonValue::object([
        ("id", JsonValue::String(job.exp.id().to_string())),
        ("params", job.map.to_json_value()),
        ("seed", JsonValue::U64(report.seed)),
    ])
    .to_pretty();
    let path = out.join(format!("{}.params.json", job.exp.id()));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("[warning: could not save params: {e}]");
    } else {
        eprintln!("[saved {}]", path.display());
    }
}

/// `xp trace`: runs `job`'s traced variant against a fresh [`Obs`]
/// (keeping only `events`, or every kind when empty), prints the report
/// and writes the trace ring to `path` as JSONL.
///
/// Returns `Ok(false)`, having run nothing, when the experiment has no
/// traced variant.
///
/// # Errors
///
/// Propagates write errors on `w` or on the trace file.
pub fn run_trace(
    w: &mut dyn Write,
    job: &Job,
    opts: &RunOpts,
    events: &[EventKind],
    path: &Path,
) -> io::Result<bool> {
    let obs = Obs::new();
    if !events.is_empty() {
        obs.trace.set_filter(Some(events));
    }
    let Some(report) = job.exp.run_traced(&job.map, opts.parallelism, &obs) else {
        return Ok(false);
    };
    render(w, &report, opts.format)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, obs.trace.to_jsonl())?;
    eprintln!(
        "[saved {} ({} records, {} evicted by the ring)]",
        path.display(),
        obs.trace.len(),
        obs.trace.dropped(),
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, opts: &RunOpts) -> Job {
        Job::new(registry::find(id).expect("registered"), opts).expect("valid sets")
    }

    #[test]
    fn trace_writes_a_jsonl_phase_trajectory() {
        let dir = std::env::temp_dir().join("rapid-xp-trace-test");
        std::fs::remove_dir_all(&dir).ok();
        let out = dir.join("e06.trace.jsonl");
        let opts = RunOpts {
            preset: Preset::Quick,
            sets: vec![("ns".into(), "256".into())],
            ..RunOpts::default()
        };
        let events = [EventKind::PhaseEnter, EventKind::BiasSample];
        let traced = run_trace(&mut Vec::new(), &job("e06", &opts), &opts, &events, &out);
        assert!(
            traced.expect("traced run succeeds"),
            "e06 has a traced variant"
        );
        let doc = std::fs::read_to_string(&out).expect("trace file written");
        assert!(!doc.is_empty(), "non-empty JSONL trajectory");
        let mut kinds = std::collections::BTreeSet::new();
        for line in doc.lines() {
            let v = crate::json::parse(line).expect("each line is JSON");
            assert_eq!(
                v.get("stream").and_then(JsonValue::as_str),
                Some("e06/n=256")
            );
            kinds.insert(
                v.get("kind")
                    .and_then(JsonValue::as_str)
                    .expect("kind tag")
                    .to_string(),
            );
        }
        assert!(kinds.contains("bias_sample"), "{kinds:?}");
        assert!(
            kinds
                .iter()
                .all(|k| k == "bias_sample" || k == "phase_enter"),
            "--events filters kinds: {kinds:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_set_keys_fail_before_any_run() {
        let opts = RunOpts {
            sets: vec![("bogus".into(), "1".into())],
            ..RunOpts::default()
        };
        let exp = registry::find("e06").expect("registered");
        assert!(matches!(
            Job::new(exp, &opts),
            Err(ParamError::UnknownKey { .. })
        ));
    }

    #[test]
    fn run_jobs_saves_param_provenance() {
        let dir = std::env::temp_dir().join("rapid-xp-params-test");
        std::fs::remove_dir_all(&dir).ok();
        let opts = RunOpts {
            preset: Preset::Quick,
            sets: vec![("ns".into(), "64".into()), ("trials".into(), "1".into())],
            seed: Some(99),
            ..RunOpts::default()
        };
        let mut stdout = Vec::new();
        run_jobs(&mut stdout, &[job("e09", &opts)], &opts, &dir).expect("writes");
        assert!(!stdout.is_empty(), "the report table went to the writer");
        let doc = std::fs::read_to_string(dir.join("e09.params.json")).expect("provenance saved");
        let v = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("e09"));
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(99));
        let params = v.get("params").expect("params recorded");
        assert_eq!(params.get("seed").and_then(JsonValue::as_u64), Some(99));
        assert_eq!(
            params.get("ns").and_then(JsonValue::as_array),
            Some(&[JsonValue::U64(64)][..])
        );
        assert_eq!(params.get("trials").and_then(JsonValue::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_prints_and_saves_without_panicking() {
        let dir = std::env::temp_dir().join("rapid-xp-emit-test");
        let r = Report::new("E00", "smoke", 1);
        emit(&mut Vec::new(), &r, OutputFormat::Table, &dir).expect("writes");
        emit(&mut Vec::new(), &r, OutputFormat::Csv, &dir).expect("writes");
        assert!(dir.join("e00.json").exists());
        assert!(dir.join("e00.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
