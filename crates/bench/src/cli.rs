//! The `xp` front end: one argument layer for every subcommand.
//!
//! Each command declares its flags once, in the [`XP`] table. One walker
//! reads argv against that table, one value grammar parses flag values,
//! one [`CliError`] reports every usage error, and every help page —
//! `xp help` included — is rendered from the same table the dispatcher
//! reads. Library crates keep their typed run functions
//! (`rapid_experiments::cli`, `rapid_net::cli::execute`,
//! `rapid_sweep::run_sweep`, `rapid_lint::rules::run`); only argv
//! handling lives here.
//!
//! A command adds a flag by listing a [`Flag`] in its table and reading
//! it in its parse function, e.g. `a.last(&["--seed"], int)?`. Later
//! occurrences override earlier ones; repeatable flags read every
//! occurrence through [`Args::all`].
//!
//! Exit codes: `0` success; `1` lint findings, failed sweep trials or a
//! `net run` runtime error; `2` usage errors and the other runtime
//! errors; `3` an unmet `--require-hit-rate`. A closed stdout
//! (`xp … | head`) ends any command quietly with `0`.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use rapid_experiments::cli::{self as experiments, Job, OutputFormat, RunOpts};
use rapid_experiments::experiment::Experiment;
use rapid_experiments::json::JsonValue;
use rapid_experiments::params::Preset;
use rapid_lint::rules::{self, RULE_IDS};
use rapid_lint::source::Workspace;
use rapid_net::cli::{RunOpts as NetOpts, TransportKind};
use rapid_obs::EventKind;
use rapid_sim::parallelism::Parallelism;
use rapid_sweep::cache::{detect_commit, ResultCache};
use rapid_sweep::{run_sweep, SweepSpec, TrialStatus};

use crate::registry;
use crate::sample::{Bench, BenchSample, BudgetCfg};

/// One flag of one command, exactly as its help page shows it.
#[derive(Debug, PartialEq)]
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// Value placeholder (`N`, or `a|b` for a fixed set of choices);
    /// empty for a switch.
    pub value: &'static str,
    /// One help line.
    pub help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, help }
}

/// What a command does once its arguments are valid: write its stdout
/// document and return the exit code.
pub type Action = Box<dyn FnOnce(&mut dyn Write) -> Result<i32, CliError>>;

/// A command's parse function: validates its [`Args`] into an [`Action`].
pub type Parse = fn(&Args) -> Result<Action, CliError>;

/// One node of the command tree.
pub struct Cmd {
    /// The word that selects it.
    pub name: &'static str,
    /// Positional synopsis: empty (none), `<x>` (exactly one) or
    /// `<x>...` (one or more).
    pub args: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The flags it accepts.
    pub flags: &'static [Flag],
    /// Its subcommands.
    pub subs: &'static [Cmd],
    /// `None` for a pure group, whose bare invocation shows its help page.
    pub parse: Option<Parse>,
    /// Closing paragraph of the help page.
    pub note: &'static str,
}

const NONE: Cmd = Cmd {
    name: "",
    args: "",
    about: "",
    flags: &[],
    subs: &[],
    parse: None,
    note: "",
};

/// One command's argv: its positionals, and every flag occurrence in
/// command-line order.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional words, in order.
    pub pos: Vec<String>,
    flags: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.name == name)
    }

    /// Parses every occurrence of the flags in `names`, left to right,
    /// and returns the last: a later flag overrides an earlier one, as
    /// `--no-cache` does `--cache-dir`.
    ///
    /// # Errors
    ///
    /// The first value `parse` rejects.
    pub fn last<'a, T>(
        &'a self,
        names: &[&str],
        parse: impl Fn(&'static Flag, &'a str) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        let mut last = None;
        for (f, v) in self.flags.iter().filter(|(f, _)| names.contains(&f.name)) {
            last = Some(parse(f, v)?);
        }
        Ok(last)
    }

    /// Parses every occurrence of repeatable flag `name`, in order.
    ///
    /// # Errors
    ///
    /// The first value `parse` rejects.
    pub fn all<'a, T>(
        &'a self,
        name: &str,
        parse: impl Fn(&'static Flag, &'a str) -> Result<T, CliError>,
    ) -> Result<Vec<T>, CliError> {
        self.flags
            .iter()
            .filter(|(f, _)| f.name == name)
            .map(|(f, v)| parse(f, v))
            .collect()
    }
}

/// Every way an `xp` invocation can fail; each exits with code 2.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// A word that names no subcommand here.
    UnknownCommand(String),
    /// A flag the command does not declare.
    UnknownFlag(String),
    /// A value-taking flag at the end of argv.
    MissingValue(&'static str),
    /// A flag value outside the flag's grammar.
    BadValue {
        /// The flag.
        flag: &'static Flag,
        /// The offending text.
        value: String,
    },
    /// Fewer positionals than the synopsis asks for.
    MissingArg(&'static str),
    /// A positional beyond the synopsis.
    UnexpectedArg(String),
    /// Arguments that parse but name nothing or do not fit together.
    Invalid(String),
    /// A runtime failure of a valid invocation (no usage hint).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownCommand(word) => write!(f, "unknown command {word:?}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value } => {
                write!(
                    f,
                    "invalid value {value:?} for {} {}",
                    flag.name, flag.value
                )
            }
            CliError::MissingArg(synopsis) => {
                write!(f, "missing {}", synopsis.trim_end_matches("..."))
            }
            CliError::UnexpectedArg(arg) => write!(f, "unexpected argument {arg:?}"),
            CliError::Invalid(message) | CliError::Failed(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

fn bad(flag: &'static Flag, value: &str) -> CliError {
    CliError::BadValue {
        flag,
        value: value.to_string(),
    }
}

/// An integer; `_` separators are allowed (`--seed 1_000`).
fn int<T: FromStr>(f: &'static Flag, v: &str) -> Result<T, CliError> {
    v.replace('_', "").parse().map_err(|_| bad(f, v))
}

/// A positive integer.
fn positive<T: FromStr + PartialOrd + Default>(f: &'static Flag, v: &str) -> Result<T, CliError> {
    int(f, v).and_then(|n: T| {
        if n > T::default() {
            Ok(n)
        } else {
            Err(bad(f, v))
        }
    })
}

fn float(f: &'static Flag, v: &str) -> Result<f64, CliError> {
    v.parse().map_err(|_| bad(f, v))
}

/// A float that `ok` accepts.
fn float_in(f: &'static Flag, v: &str, ok: impl Fn(f64) -> bool) -> Result<f64, CliError> {
    float(f, v).and_then(|x| if ok(x) { Ok(x) } else { Err(bad(f, v)) })
}

/// One of the `a|b|c` choices in the flag's placeholder.
fn choice<'v>(f: &'static Flag, v: &'v str) -> Result<&'v str, CliError> {
    if f.value.split('|').any(|c| c == v) {
        Ok(v)
    } else {
        Err(bad(f, v))
    }
}

fn path(_: &'static Flag, v: &str) -> Result<PathBuf, CliError> {
    Ok(PathBuf::from(v))
}

/// `KEY=VALUE` with a non-empty key.
fn key_value(f: &'static Flag, v: &str) -> Result<(String, String), CliError> {
    match v.split_once('=') {
        Some((key, value)) if !key.is_empty() => Ok((key.to_string(), value.to_string())),
        _ => Err(bad(f, v)),
    }
}

/// The shared worker grammar: `N`, `TRIALSxSHARDS` or `auto`.
fn workers(f: &'static Flag, v: &str) -> Result<Parallelism, CliError> {
    Parallelism::parse(v).map_err(|_| bad(f, v))
}

/// The checkout this binary was built from: every default path hangs
/// off it, so `xp` writes to the same place from any directory. Falls
/// back to the current directory once that checkout is gone (a binary
/// copied elsewhere).
pub fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.filter(|r| r.is_dir())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Stdout for every command. A closed pipe (`xp … | head`) ends the
/// process quietly with exit 0; any other write error ends it with 1.
struct Stdout;

impl Stdout {
    fn check(result: io::Result<()>) {
        if let Err(e) = result {
            if e.kind() == io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("xp: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Stdout::check(io::stdout().write_all(buf));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Stdout::check(io::stdout().flush());
        Ok(())
    }
}

/// Where argv led: a help page, or a command with its arguments.
enum Resolved {
    /// `help`, `--help` or `-h`, or a bare group.
    Help(&'static Cmd),
    /// A runnable command: its parse function and arguments.
    Run(Parse, Args),
}

fn is_help(word: &str) -> bool {
    matches!(word, "help" | "--help" | "-h")
}

/// Walks argv (without the program name) down the [`XP`] tree and
/// splits the chosen command's arguments against its flag table.
/// `path` collects the command words on the way, for messages.
///
/// # Errors
///
/// The first structural usage error: an unknown command or flag, a
/// missing flag value, or a positional count outside the synopsis.
fn resolve(argv: &[String], path: &mut Vec<&'static str>) -> Result<Resolved, CliError> {
    let mut cmd = &XP;
    path.push(XP.name);
    let mut rest = argv;
    while let Some(word) = rest.first() {
        if is_help(word) {
            return Ok(Resolved::Help(cmd));
        }
        if cmd.subs.is_empty() {
            break;
        }
        match cmd.subs.iter().find(|s| s.name == word) {
            Some(sub) => {
                cmd = sub;
                path.push(sub.name);
                rest = &rest[1..];
            }
            None if cmd.parse.is_some() && word.starts_with('-') => break,
            None => return Err(CliError::UnknownCommand(word.clone())),
        }
    }
    let Some(parse) = cmd.parse else {
        return Ok(Resolved::Help(cmd));
    };
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if is_help(arg) {
            return Ok(Resolved::Help(cmd));
        }
        if !arg.starts_with('-') {
            args.pos.push(arg.clone());
            continue;
        }
        let flag = cmd
            .flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
        let value = match flag.value {
            "" => String::new(),
            _ => it.next().ok_or(CliError::MissingValue(flag.name))?.clone(),
        };
        args.flags.push((flag, value));
    }
    let max = match cmd.args {
        "" => 0,
        s if s.ends_with("...") => usize::MAX,
        _ => 1,
    };
    if args.pos.is_empty() && max > 0 {
        return Err(CliError::MissingArg(cmd.args));
    }
    if let Some(extra) = args.pos.get(max) {
        return Err(CliError::UnexpectedArg(extra.clone()));
    }
    Ok(Resolved::Run(parse, args))
}

/// Resolves argv (without the program name) against [`XP`] and
/// validates the chosen command's arguments into a ready-to-run
/// [`Action`], without running anything. `path` collects the command
/// words on the way, for messages.
///
/// # Errors
///
/// The first usage error.
pub fn parse(argv: &[String], path: &mut Vec<&'static str>) -> Result<Action, CliError> {
    match resolve(argv, path)? {
        Resolved::Run(parse, args) => parse(&args),
        Resolved::Help(cmd) => {
            let path = path.join(" ");
            Ok(Box::new(move |w| {
                help(w, &path, cmd)?;
                Ok(0)
            }))
        }
    }
}

/// The `xp` binary: parse argv, run the command, return the exit code.
pub fn main(argv: &[String]) -> i32 {
    let mut path = Vec::new();
    let result = parse(argv, &mut path).and_then(|action| action(&mut Stdout));
    // Surfaces a closed pipe hidden in a trailing partial line.
    let _ = Stdout.flush();
    match result {
        Ok(code) => code,
        Err(e) => {
            let path = path.join(" ");
            eprintln!("{path}: {e}");
            if !matches!(e, CliError::Failed(_)) {
                eprintln!("run `{path} help` for usage");
            }
            2
        }
    }
}

/// Renders `cmd`'s help page: its synopsis lines, then one OPTIONS
/// section per flag table, all read from [`XP`].
fn help(w: &mut dyn Write, path: &str, cmd: &'static Cmd) -> io::Result<()> {
    writeln!(w, "{path} — {}\n\nUSAGE:", cmd.about)?;
    // (path, command, has its own page): the command itself when it
    // runs, then each subcommand.
    let own = cmd.parse.map(|_| (path.to_string(), cmd, false));
    let subs = cmd.subs.iter().map(|s| {
        let nested = !s.subs.is_empty();
        (format!("{path} {}", s.name), s, nested)
    });
    let entries: Vec<(String, &Cmd, bool)> = own.into_iter().chain(subs).collect();
    for (p, c, nested) in &entries {
        let args = if c.parse.is_some() {
            c.args
        } else {
            "<command>"
        };
        let options = if c.flags.is_empty() { "" } else { "[OPTIONS]" };
        let words = [p.as_str(), args, options]
            .into_iter()
            .filter(|s| !s.is_empty());
        let synopsis = words.collect::<Vec<_>>().join(" ");
        let see = if *nested {
            format!(" (see `{p} help`)")
        } else {
            String::new()
        };
        writeln!(w, "    {synopsis:<32} {}{see}", c.about)?;
    }
    writeln!(w, "    {:<32} this page", format!("{path} help"))?;
    let leaves: Vec<_> = entries
        .iter()
        .filter(|(_, c, nested)| !nested && !c.flags.is_empty())
        .collect();
    for group in leaves.chunk_by(|a, b| a.1.flags == b.1.flags) {
        let names: Vec<&str> = group.iter().map(|(_, c, _)| c.name).collect();
        writeln!(w, "\nOPTIONS ({}):", names.join(", "))?;
        for f in group[0].1.flags {
            let usage = format!("{} {}", f.name, f.value);
            writeln!(w, "    {:<22}  {}", usage.trim_end(), f.help)?;
        }
    }
    if !cmd.note.is_empty() {
        writeln!(w, "\n{}", cmd.note)?;
    }
    Ok(())
}

const QUICK: Flag = flag(
    "--quick",
    "",
    "CI-scale preset (seconds instead of minutes)",
);
const SET: Flag = flag(
    "--set",
    "KEY=VALUE",
    "override one parameter (repeatable; lists are comma-separated)",
);
const SEED: Flag = flag("--seed", "N", "master seed: same as --set seed=N");
const PARALLELISM: Flag = flag(
    "--parallelism",
    "SPEC",
    "workers: N, TRIALSxSHARDS or auto, each axis a count or `auto` (default: autox1)",
);
const FORMAT: Flag = flag(
    "--format",
    "table|json|csv",
    "stdout rendering (default: table)",
);

const RUN_FLAGS: &[Flag] = &[
    QUICK,
    SET,
    SEED,
    PARALLELISM,
    FORMAT,
    flag(
        "--out",
        "DIR",
        "save directory (default: <workspace>/target/experiments)",
    ),
];

const TRACE_FLAGS: &[Flag] = &[
    QUICK,
    SET,
    SEED,
    PARALLELISM,
    FORMAT,
    flag(
        "--out",
        "FILE",
        "the JSONL file (default: <workspace>/target/experiments/<id>.trace.jsonl)",
    ),
    flag(
        "--events",
        "KIND,KIND",
        "keep only these trace-event kinds (default: all)",
    ),
];

const KERNEL_FLAGS: &[Flag] = &[
    flag("--budget-ms", "N", "per-bench time budget (default: 300)"),
    flag("--quick", "", "shorthand for --budget-ms 50"),
    flag(
        "--format",
        "table|json",
        "stdout rendering (default: table)",
    ),
];

const NET_FLAGS: &[Flag] = &[
    flag("--n", "N", "population size (default: 256)"),
    flag("--k", "K", "number of opinions (default: 2)"),
    flag("--eps", "F", "plurality bias (default: 0.5)"),
    flag(
        "--protocol",
        "two-choices|voter|3-majority|rapid",
        "protocol (default: two-choices)",
    ),
    flag("--transport", "channel|udp", "transport (default: channel)"),
    flag("--seed", "S", "master seed (default: 7)"),
    flag(
        "--parallelism",
        "SPEC",
        "udp worker threads: a count or `auto` (default: one per core)",
    ),
];

const SWEEP_FLAGS: &[Flag] = &[
    flag("--quick", "", "start each grid point from the quick preset"),
    flag(
        "--set",
        "KEY=VALUE",
        "base override applied to every point (repeatable)",
    ),
    flag(
        "--grid",
        "KEY=V1,V2,...",
        "sweep axis (repeatable; axes cross-multiply, first axis slowest)",
    ),
    flag(
        "--parallelism",
        "SPEC",
        "trial workers: N or `auto` (default: auto)",
    ),
    flag(
        "--out",
        "FILE",
        "also write the index-sorted result JSONL here",
    ),
    flag(
        "--cache-dir",
        "DIR",
        "result cache location (default: <workspace>/out/cache)",
    ),
    flag("--no-cache", "", "recompute everything, touch no cache"),
    flag(
        "--require-hit-rate",
        "PCT",
        "exit 3 when the cache hit rate is below PCT percent",
    ),
];

const LINT_FLAGS: &[Flag] = &[
    flag(
        "--format",
        "table|json",
        "stdout rendering (default: table)",
    ),
    flag("--root", "DIR", "workspace root (default: this checkout)"),
];

/// The command tree: what `xp` dispatches on and renders help from.
pub static XP: Cmd = Cmd {
    name: "xp",
    about: "run the paper's experiments (Elsässer et al., PODC 2017)",
    subs: &[
        Cmd {
            name: "list",
            about: "list every experiment",
            flags: &[flag("--markdown", "", "render the README catalog table")],
            parse: Some(xp_list),
            ..NONE
        },
        Cmd {
            name: "info",
            args: "<id>",
            about: "show an experiment's parameter schema",
            parse: Some(xp_info),
            ..NONE
        },
        Cmd {
            name: "run",
            args: "<id>...",
            about: "run one or more experiments",
            flags: RUN_FLAGS,
            parse: Some(xp_run),
            ..NONE
        },
        Cmd {
            name: "all",
            about: "run every registered experiment",
            flags: RUN_FLAGS,
            parse: Some(xp_all),
            ..NONE
        },
        Cmd {
            name: "trace",
            args: "<id>",
            about: "traced run; events land in a JSONL file",
            flags: TRACE_FLAGS,
            parse: Some(xp_trace),
            ..NONE
        },
        Cmd {
            name: "sweep",
            args: "<id>",
            about: "run a parameter grid over one experiment, cache-served",
            flags: SWEEP_FLAGS,
            parse: Some(xp_sweep),
            ..NONE
        },
        Cmd {
            name: "bench",
            about: "registry-driven micro-benchmark kernels",
            subs: &[
                Cmd {
                    name: "list",
                    about: "list every registered bench",
                    parse: Some(bench_list),
                    ..NONE
                },
                Cmd {
                    name: "run",
                    args: "<sel>...",
                    about: "run benches by id, group or substring",
                    flags: KERNEL_FLAGS,
                    parse: Some(bench_run),
                    ..NONE
                },
                Cmd {
                    name: "all",
                    about: "run the full registry",
                    flags: KERNEL_FLAGS,
                    parse: Some(bench_all),
                    ..NONE
                },
            ],
            note: "One run is one sample on one host, not a verdict: compare two commits\n\
                   with interleaved pairs, `python3 tools/ab.py PARENT CHANGE --kernel ID`.",
            ..NONE
        },
        Cmd {
            name: "net",
            about: "boot a real message-passing deployment",
            subs: &[Cmd {
                name: "run",
                about: "one deployment on K_n; prints its outcome as JSON",
                flags: NET_FLAGS,
                parse: Some(net_run),
                ..NONE
            }],
            ..NONE
        },
        Cmd {
            name: "lint",
            about: "determinism & hygiene static analysis; exit 1 on findings",
            flags: LINT_FLAGS,
            subs: &[Cmd {
                name: "rules",
                about: "list the rules",
                parse: Some(lint_rules),
                ..NONE
            }],
            parse: Some(lint_run),
            note:
                "Suppress a finding at one site with a reasoned marker on or above the line:\n    \
                   // lint: allow(<rule-id>): <why this site is sound>\n\
                   Manifests use `#` comments. Markers without a reason are findings themselves.",
            ..NONE
        },
    ],
    ..NONE
};

fn xp_list(a: &Args) -> Result<Action, CliError> {
    let markdown = a.has("--markdown");
    Ok(Box::new(move |w| {
        experiments::list(w, markdown)?;
        Ok(0)
    }))
}

fn xp_info(a: &Args) -> Result<Action, CliError> {
    let exp = experiment(&a.pos[0])?;
    Ok(Box::new(move |w| {
        experiments::info(w, exp)?;
        Ok(0)
    }))
}

fn experiment(id: &str) -> Result<&'static dyn Experiment, CliError> {
    rapid_experiments::registry::find(id)
        .ok_or_else(|| CliError::Invalid(format!("no experiment {id:?} (see `xp list`)")))
}

/// Resolves `id` and applies every `--set` to its preset, so a typo
/// fails before anything runs.
fn job(id: &str, opts: &RunOpts) -> Result<Job, CliError> {
    let exp = experiment(id)?;
    Job::new(exp, opts).map_err(|e| CliError::Invalid(format!("{}: {e}", exp.id())))
}

fn run_opts(a: &Args) -> Result<RunOpts, CliError> {
    Ok(RunOpts {
        preset: if a.has("--quick") {
            Preset::Quick
        } else {
            Preset::Full
        },
        sets: a.all("--set", key_value)?,
        seed: a.last(&["--seed"], int)?,
        parallelism: a.last(&["--parallelism"], workers)?.unwrap_or_default(),
        format: match a.last(&["--format"], choice)? {
            Some("json") => OutputFormat::Json,
            Some("csv") => OutputFormat::Csv,
            _ => OutputFormat::Table,
        },
        out: a.last(&["--out"], path)?,
    })
}

fn xp_run(a: &Args) -> Result<Action, CliError> {
    let opts = run_opts(a)?;
    let jobs = a.pos.iter().map(|id| job(id, &opts));
    run_jobs(jobs.collect::<Result<_, _>>()?, opts)
}

fn xp_all(a: &Args) -> Result<Action, CliError> {
    let opts = run_opts(a)?;
    let registry = rapid_experiments::registry::registry();
    let jobs = registry.iter().map(|e| job(e.id(), &opts));
    run_jobs(jobs.collect::<Result<_, _>>()?, opts)
}

fn run_jobs(jobs: Vec<Job>, opts: RunOpts) -> Result<Action, CliError> {
    let out = opts.out.clone();
    let out = out.unwrap_or_else(|| workspace_root().join("target/experiments"));
    Ok(Box::new(move |w| {
        experiments::run_jobs(w, &jobs, &opts, &out)?;
        Ok(0)
    }))
}

/// `--events` kinds, deduplicated in first-seen order.
fn events(a: &Args) -> Result<Vec<EventKind>, CliError> {
    let lists = a.all("--events", |f, v| {
        let kind = |name| EventKind::parse(name).ok_or_else(|| bad(f, name));
        v.split(',').map(kind).collect::<Result<Vec<_>, _>>()
    })?;
    let mut kinds = Vec::new();
    for kind in lists.into_iter().flatten() {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    Ok(kinds)
}

fn xp_trace(a: &Args) -> Result<Action, CliError> {
    let opts = run_opts(a)?;
    let events = events(a)?;
    let job = job(&a.pos[0], &opts)?;
    let id = job.exp.id();
    let file = format!("target/experiments/{id}.trace.jsonl");
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| workspace_root().join(file));
    Ok(Box::new(move |w| {
        match experiments::run_trace(w, &job, &opts, &events, &path) {
            Ok(true) => Ok(0),
            Ok(false) => Err(CliError::Failed(format!(
                "{id} has no traced variant (try e06 or e26)"
            ))),
            Err(e) => Err(CliError::Failed(format!(
                "cannot write trace to {}: {e}",
                path.display()
            ))),
        }
    }))
}

/// Parsed `xp sweep` options.
#[derive(Debug)]
struct SweepOpts {
    spec: SweepSpec,
    parallelism: Parallelism,
    out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    require_hit_rate: Option<f64>,
}

fn sweep_opts(a: &Args) -> Result<SweepOpts, CliError> {
    let mut spec = SweepSpec::new(a.pos[0].clone());
    if a.has("--quick") {
        spec.preset = Preset::Quick;
    }
    spec.sets = a.all("--set", key_value)?;
    spec.grid = a.all("--grid", |f, v| {
        let (key, values) = key_value(f, v)?;
        Ok((key, values.split(',').map(str::to_string).collect()))
    })?;
    let cache_dir = a.last(&["--cache-dir", "--no-cache"], |f, v| {
        Ok((f.name == "--cache-dir").then(|| PathBuf::from(v)))
    })?;
    Ok(SweepOpts {
        spec,
        parallelism: a.last(&["--parallelism"], workers)?.unwrap_or_default(),
        out: a.last(&["--out"], path)?,
        cache_dir: cache_dir.unwrap_or_else(|| Some(workspace_root().join("out/cache"))),
        require_hit_rate: a.last(&["--require-hit-rate"], |f, v| {
            float_in(f, v, |pct| (0.0..=100.0).contains(&pct))
        })?,
    })
}

fn xp_sweep(a: &Args) -> Result<Action, CliError> {
    let opts = sweep_opts(a)?;
    Ok(Box::new(move |w| sweep(w, &opts)))
}

/// Streams each trial's result line to `w` as it completes; summary and
/// provenance go to stderr.
fn sweep(w: &mut dyn Write, opts: &SweepOpts) -> Result<i32, CliError> {
    let mut cache = match &opts.cache_dir {
        Some(dir) => Some(ResultCache::open(dir).map_err(|e| {
            CliError::Failed(format!("cannot open cache at {}: {e}", dir.display()))
        })?),
        None => None,
    };
    let commit = detect_commit();
    let mut stdout: io::Result<()> = Ok(());
    let outcome = run_sweep(
        &opts.spec,
        opts.parallelism,
        cache.as_mut(),
        commit.as_deref(),
        |record| {
            if let Some(line) = record.result_line() {
                if stdout.is_ok() {
                    stdout = writeln!(w, "{line}");
                }
            } else if let TrialStatus::Failed(message) = &record.status {
                eprintln!("[trial {} failed: {message}]", record.index);
            }
        },
    )
    .map_err(|e| CliError::Failed(e.to_string()))?;
    stdout?;
    if let Some(path) = &opts.out {
        let write = |p: &Path| -> io::Result<()> {
            if let Some(parent) = p.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(p, outcome.result_jsonl())
        };
        write(path)
            .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", path.display())))?;
        eprintln!("[saved {}]", path.display());
    }
    let counters = outcome.counters;
    eprintln!(
        "[sweep {}: {} trials — {} computed, {} cached, {} failed; cache {} hits / {} misses / {} insertions / {} evictions]",
        opts.spec.experiment,
        outcome.records.len(),
        outcome.computed(),
        outcome.cached(),
        outcome.failures.len(),
        counters.hits,
        counters.misses,
        counters.insertions,
        counters.evictions,
    );
    if let Some(required) = opts.require_hit_rate {
        let rate = counters.hit_rate_percent();
        if rate < required {
            eprintln!("xp sweep: cache hit rate {rate:.1}% is below the required {required:.1}%");
            return Ok(3);
        }
        eprintln!("[cache hit rate {rate:.1}% >= required {required:.1}%]");
    }
    Ok(if outcome.is_success() { 0 } else { 1 })
}

fn net_opts(a: &Args) -> Result<NetOpts, CliError> {
    let d = NetOpts::default();
    let opts = NetOpts {
        n: a.last(&["--n"], int)?.unwrap_or(d.n),
        k: a.last(&["--k"], int)?.unwrap_or(d.k),
        eps: a.last(&["--eps"], float)?.unwrap_or(d.eps),
        protocol: a
            .last(&["--protocol"], choice)?
            .map_or(d.protocol, str::to_string),
        transport: match a.last(&["--transport"], choice)? {
            Some("udp") => TransportKind::Udp,
            _ => d.transport,
        },
        seed: a.last(&["--seed"], int)?.unwrap_or(d.seed),
        parallelism: a
            .last(&["--parallelism"], workers)?
            .unwrap_or(d.parallelism),
    };
    if opts.n < 2 || opts.k < 2 {
        return Err(CliError::Invalid("need --n >= 2 and --k >= 2".to_string()));
    }
    Ok(opts)
}

fn net_run(a: &Args) -> Result<Action, CliError> {
    let opts = net_opts(a)?;
    Ok(Box::new(move |w| match rapid_net::cli::execute(&opts) {
        Ok(run) => {
            writeln!(w, "{}", run.outcome.to_json())?;
            eprintln!(
                "net: {} nodes, {} activations total, {} dropped frames, \
                 {} decode errors, {:.1} ms",
                opts.n, run.total_steps, run.dropped_frames, run.decode_errors, run.wall_ms
            );
            Ok(0)
        }
        Err(e) => {
            eprintln!("xp net run: {e}");
            Ok(1)
        }
    }))
}

/// `(--format json, --root)` with the root defaulted to this checkout.
fn lint_opts(a: &Args) -> Result<(bool, PathBuf), CliError> {
    let json = a.last(&["--format"], choice)? == Some("json");
    let root = a.last(&["--root"], path)?.unwrap_or_else(workspace_root);
    Ok((json, root))
}

fn lint_run(a: &Args) -> Result<Action, CliError> {
    let (json, root) = lint_opts(a)?;
    Ok(Box::new(move |w| {
        let ws = Workspace::discover(&root).map_err(|e| CliError::Failed(e.to_string()))?;
        let report = rules::run(&ws);
        if json {
            writeln!(w, "{}", report.to_json().to_pretty())?;
        } else {
            write!(w, "{}", report.to_table())?;
        }
        Ok(i32::from(!report.clean()))
    }))
}

fn lint_rules(_: &Args) -> Result<Action, CliError> {
    Ok(Box::new(|w| {
        for rule in RULE_IDS {
            writeln!(w, "{rule:<24} {}", rules::rule_description(rule))?;
        }
        Ok(0)
    }))
}

/// How a bench run is rendered on stdout.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
enum BenchFormat {
    /// Aligned text table (the default).
    #[default]
    Table,
    /// One JSON document: the budget and every sample.
    Json,
}

/// Options shared by `xp bench run` and `xp bench all`.
#[derive(Clone, Debug, PartialEq)]
struct BenchOpts {
    /// `--budget-ms N` / `--quick` per-bench budget.
    budget_ms: u64,
    /// `--format table|json`.
    format: BenchFormat,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            budget_ms: 300,
            format: BenchFormat::default(),
        }
    }
}

fn bench_opts(a: &Args) -> Result<BenchOpts, CliError> {
    Ok(BenchOpts {
        budget_ms: a
            .last(&["--budget-ms", "--quick"], |f, v| match f.name {
                "--quick" => Ok(50),
                _ => positive(f, v),
            })?
            .unwrap_or(BenchOpts::default().budget_ms),
        format: match a.last(&["--format"], choice)? {
            Some("json") => BenchFormat::Json,
            _ => BenchFormat::Table,
        },
    })
}

fn bench_list(_: &Args) -> Result<Action, CliError> {
    Ok(Box::new(|w| {
        let width = registry::id_width();
        for b in registry::bench_registry() {
            writeln!(w, "{:<width$} {:<10} {}", b.id(), b.group(), b.title())?;
        }
        Ok(0)
    }))
}

fn bench_run(a: &Args) -> Result<Action, CliError> {
    let opts = bench_opts(a)?;
    let benches = registry::select(&a.pos)
        .map_err(|s| CliError::Invalid(format!("no bench matches {s:?} (see `xp bench list`)")))?;
    Ok(Box::new(move |w| run_benches(w, &benches, &opts)))
}

fn bench_all(a: &Args) -> Result<Action, CliError> {
    let opts = bench_opts(a)?;
    Ok(Box::new(move |w| {
        run_benches(w, &registry::bench_registry(), &opts)
    }))
}

fn render_table(samples: &[BenchSample]) -> String {
    // Size the id column to its content: fixed widths mis-aligned every
    // row once multi-digit kernel ids outgrew them.
    let w = samples
        .iter()
        .map(|s| s.id.len())
        .chain(std::iter::once("bench".len()))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<w$} {:>12} {:>12} {:>12} {:>14} {:>7}\n",
        "bench", "p50/iter", "p10", "p90", "throughput", "iters"
    ));
    for s in samples {
        let thr = if s.elements > 1 {
            format!("{}/s", format_rate(s.throughput()))
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<w$} {:>12} {:>12} {:>12} {:>14} {:>7}\n",
            s.id,
            format_ns(s.p50_ns),
            format_ns(s.p10_ns),
            format_ns(s.p90_ns),
            thr,
            s.iters,
        ));
    }
    out
}

/// Formats nanoseconds human-readably (`432 ns`, `1.4 µs`, `2.3 ms`).
fn format_ns(ns: f64) -> String {
    if ns < 10_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 10_000_000.0 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 10_000_000_000.0 {
        format!("{:.1} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Formats a per-second rate (`53.3 M`, `1.2 G`).
fn format_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} k", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

/// Runs `benches` under `opts` and prints their samples.
fn run_benches(
    w: &mut dyn Write,
    benches: &[&'static dyn Bench],
    opts: &BenchOpts,
) -> Result<i32, CliError> {
    let cfg = BudgetCfg::from_millis(opts.budget_ms);
    let mut samples = Vec::with_capacity(benches.len());
    for b in benches {
        eprintln!("[bench {} ...]", b.id());
        samples.push(b.run(&cfg));
    }
    match opts.format {
        BenchFormat::Table => write!(w, "{}", render_table(&samples))?,
        BenchFormat::Json => {
            let doc = JsonValue::object([
                ("budget_ms", JsonValue::U64(opts.budget_ms)),
                (
                    "samples",
                    JsonValue::Array(samples.iter().map(BenchSample::to_json_value).collect()),
                ),
            ]);
            writeln!(w, "{}", doc.to_pretty())?;
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_sim::parallelism::Workers;

    fn argv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// The arguments of the command `a` resolves to.
    fn args(a: &[&str]) -> Args {
        match resolve(&argv(a), &mut Vec::new()) {
            Ok(Resolved::Run(_, args)) => args,
            Ok(Resolved::Help(cmd)) => panic!("{a:?} resolved to the {} help page", cmd.name),
            Err(e) => panic!("{a:?}: {e}"),
        }
    }

    /// The usage error `a` fails with.
    fn err(a: &[&str]) -> CliError {
        match parse(&argv(a), &mut Vec::new()) {
            Ok(_) => panic!("{a:?} parsed"),
            Err(e) => e,
        }
    }

    /// The help page `a` asks for.
    fn page(a: &[&str]) -> String {
        let Ok(Resolved::Help(_)) = resolve(&argv(a), &mut Vec::new()) else {
            panic!("{a:?} is not a help request");
        };
        let mut out = Vec::new();
        let action = parse(&argv(a), &mut Vec::new()).expect("parses");
        assert_eq!(action(&mut out), Ok(0));
        String::from_utf8(out).expect("utf-8 page")
    }

    fn run_cmd(a: &[&str]) -> (Vec<String>, RunOpts) {
        let args = args(a);
        let opts = run_opts(&args).expect("valid run options");
        (args.pos, opts)
    }

    fn bench_cmd(a: &[&str]) -> (Vec<String>, BenchOpts) {
        let args = args(a);
        let opts = bench_opts(&args).expect("valid bench options");
        (args.pos, opts)
    }

    fn net(a: &[&str]) -> Result<NetOpts, CliError> {
        net_opts(&args(a))
    }

    fn sweep_cmd(a: &[&str]) -> Result<SweepOpts, CliError> {
        sweep_opts(&args(a))
    }

    /// `n` trial workers, shards at the default.
    fn trials(n: usize) -> Parallelism {
        Parallelism {
            trial_workers: Workers::fixed(n),
            ..Parallelism::default()
        }
    }

    #[test]
    fn golden_parse_table() {
        // Experiments.
        for a in [&[][..], &["help"], &["--help"], &["-h"]] {
            assert!(page(a).starts_with("xp — "), "{a:?}");
        }
        assert!(!args(&["list"]).has("--markdown"));
        assert!(args(&["list", "--markdown"]).has("--markdown"));
        assert_eq!(args(&["info", "e06"]).pos, ["e06"]);
        assert!(parse(&argv(&["info", "e06"]), &mut Vec::new()).is_ok());
        assert_eq!(
            run_cmd(&["run", "e06"]),
            (vec!["e06".into()], RunOpts::default())
        );
        assert_eq!(
            run_cmd(&[
                "run",
                "e06",
                "--quick",
                "--set",
                "n=65536",
                "--set",
                "trials=20"
            ]),
            (
                vec!["e06".into()],
                RunOpts {
                    preset: Preset::Quick,
                    sets: vec![("n".into(), "65536".into()), ("trials".into(), "20".into())],
                    ..RunOpts::default()
                }
            )
        );
        assert_eq!(
            run_cmd(&[
                "run",
                "e01",
                "e02",
                "--seed",
                "7",
                "--parallelism",
                "2",
                "--format",
                "csv",
                "--out",
                "/tmp/x"
            ]),
            (
                vec!["e01".into(), "e02".into()],
                RunOpts {
                    seed: Some(7),
                    parallelism: trials(2),
                    format: OutputFormat::Csv,
                    out: Some(PathBuf::from("/tmp/x")),
                    ..RunOpts::default()
                }
            )
        );
        // `_` separators are one integer grammar for every flag.
        assert_eq!(
            run_cmd(&["run", "e06", "--seed", "1_000"]).1.seed,
            Some(1000)
        );
        // `--parallelism` accepts a bare trial count, a TRIALSxSHARDS
        // pair, and `auto` on either axis.
        for (spec, expected) in [
            ("4", trials(4)),
            (
                "2x4",
                Parallelism {
                    trial_workers: Workers::fixed(2),
                    shard_workers: Workers::fixed(4),
                },
            ),
            (
                "autox4",
                Parallelism {
                    trial_workers: Workers::Auto,
                    shard_workers: Workers::fixed(4),
                },
            ),
            ("auto", Parallelism::auto()),
        ] {
            let (_, opts) = run_cmd(&["run", "e06", "--parallelism", spec]);
            assert_eq!(opts.parallelism, expected, "--parallelism {spec}");
        }
        // The later of two occurrences wins.
        assert_eq!(
            run_cmd(&["run", "e06", "--parallelism", "2", "--parallelism", "auto"])
                .1
                .parallelism,
            Parallelism::auto()
        );
        assert_eq!(
            run_cmd(&["all", "--quick", "--format", "json"]),
            (
                vec![],
                RunOpts {
                    preset: Preset::Quick,
                    format: OutputFormat::Json,
                    ..RunOpts::default()
                }
            )
        );
        let trace = args(&["trace", "e26"]);
        assert_eq!(
            (trace.pos.clone(), run_opts(&trace), events(&trace)),
            (vec!["e26".into()], Ok(RunOpts::default()), Ok(vec![]))
        );
        let trace = args(&[
            "trace",
            "e06",
            "--quick",
            "--events",
            "phase_enter,bias_sample",
            "--out",
            "/tmp/t.jsonl",
        ]);
        assert_eq!(
            run_opts(&trace),
            Ok(RunOpts {
                preset: Preset::Quick,
                out: Some(PathBuf::from("/tmp/t.jsonl")),
                ..RunOpts::default()
            })
        );
        assert_eq!(
            events(&trace),
            Ok(vec![EventKind::PhaseEnter, EventKind::BiasSample])
        );

        // Bench.
        for a in [&["bench"][..], &["bench", "help"]] {
            assert!(page(a).starts_with("xp bench — "), "{a:?}");
        }
        assert!(args(&["bench", "list"]).pos.is_empty());
        assert_eq!(
            bench_cmd(&["bench", "run", "scheduler"]),
            (vec!["scheduler".into()], BenchOpts::default())
        );
        assert_eq!(
            bench_cmd(&[
                "bench",
                "run",
                "rng/next_u64",
                "--budget-ms",
                "25",
                "--format",
                "json"
            ]),
            (
                vec!["rng/next_u64".into()],
                BenchOpts {
                    budget_ms: 25,
                    format: BenchFormat::Json,
                }
            )
        );
        assert_eq!(
            bench_cmd(&["bench", "all", "--quick"]),
            (
                vec![],
                BenchOpts {
                    budget_ms: 50,
                    ..BenchOpts::default()
                }
            )
        );

        // Lint.
        assert_eq!(lint_opts(&args(&["lint"])), Ok((false, workspace_root())));
        assert!(page(&["lint", "help"]).starts_with("xp lint — "));
        assert!(args(&["lint", "rules"]).pos.is_empty());
        assert_eq!(
            lint_opts(&args(&["lint", "--format", "json", "--root", "/tmp/ws"])),
            Ok((true, PathBuf::from("/tmp/ws")))
        );
    }

    #[test]
    fn golden_error_table() {
        for (a, message) in [
            // Experiments.
            (&["bogus"][..], "unknown command \"bogus\""),
            (&["--bogus"], "unknown command \"--bogus\""),
            (&["run", "e99"], "no experiment \"e99\" (see `xp list`)"),
            (&["run"], "missing <id>"),
            (&["info"], "missing <id>"),
            (&["info", "e06", "extra"], "unexpected argument \"extra\""),
            (&["all", "e06"], "unexpected argument \"e06\""),
            (&["run", "e06", "--bogus"], "unknown flag --bogus"),
            (
                &["run", "e06", "--seed", "abc"],
                "invalid value \"abc\" for --seed N",
            ),
            (&["run", "e06", "--threads", "2"], "unknown flag --threads"),
            (&["net", "run", "--workers", "2"], "unknown flag --workers"),
            (
                &["run", "e06", "--format", "xml"],
                "invalid value \"xml\" for --format table|json|csv",
            ),
            (
                &["run", "e06", "--set", "n65536"],
                "invalid value \"n65536\" for --set KEY=VALUE",
            ),
            (
                &["run", "e06", "--set", "=1"],
                "invalid value \"=1\" for --set KEY=VALUE",
            ),
            (&["list", "e06"], "unexpected argument \"e06\""),
            (&["trace"], "missing <id>"),
            (&["trace", "e06", "e07"], "unexpected argument \"e07\""),
            (
                &["trace", "e06", "--events", "bogus"],
                "invalid value \"bogus\" for --events KIND,KIND",
            ),
            (
                &["trace", "e06", "--events", "phase_enter,bogus"],
                "invalid value \"bogus\" for --events KIND,KIND",
            ),
            // `--events` is a trace-only flag.
            (&["run", "e06", "--events", "note"], "unknown flag --events"),
            // Bench.
            (&["bench", "bogus"], "unknown command \"bogus\""),
            (&["bench", "run"], "missing <sel>"),
            (
                &["bench", "run", "nope-никто"],
                "no bench matches \"nope-никто\" (see `xp bench list`)",
            ),
            (&["bench", "list", "extra"], "unexpected argument \"extra\""),
            (&["bench", "all", "rng"], "unexpected argument \"rng\""),
            (&["bench", "run", "rng", "--bogus"], "unknown flag --bogus"),
            (
                &["bench", "all", "--budget-ms", "0"],
                "invalid value \"0\" for --budget-ms N",
            ),
            (
                &["bench", "all", "--format", "xml"],
                "invalid value \"xml\" for --format table|json",
            ),
            // Speed verdicts are tools/ab.py's; `xp bench` has no gate.
            (&["bench", "all", "--gate", "100"], "unknown flag --gate"),
            // Lint.
            (&["lint", "bogus"], "unknown command \"bogus\""),
            (&["lint", "--nope"], "unknown flag --nope"),
            (
                &["lint", "--format", "xml"],
                "invalid value \"xml\" for --format table|json",
            ),
        ] {
            assert_eq!(err(a).to_string(), message, "{a:?}");
        }
        for (a, flag) in [
            (&["run", "e06", "--seed"][..], "--seed"),
            (&["run", "e06", "--parallelism"], "--parallelism"),
            (&["trace", "e06", "--events"], "--events"),
            (&["bench", "all", "--budget-ms"], "--budget-ms"),
            (&["lint", "--format"], "--format"),
        ] {
            assert_eq!(err(a), CliError::MissingValue(flag), "{a:?}");
        }
        for bad in ["0", "2x0", "0x2", "x4", "2x", "fast", "2x2x2"] {
            assert_eq!(
                err(&["run", "e06", "--parallelism", bad]).to_string(),
                format!("invalid value \"{bad}\" for --parallelism SPEC")
            );
        }
        // An earlier bad value is not hidden by a later good one.
        assert_eq!(
            err(&["run", "e06", "--seed", "abc", "--seed", "5"]).to_string(),
            "invalid value \"abc\" for --seed N"
        );
    }

    #[test]
    fn errors_render_readably() {
        let flag = &RUN_FLAGS[2];
        for (err, needle) in [
            (CliError::UnknownCommand("x".into()), "unknown command"),
            (CliError::UnknownFlag("--x".into()), "--x"),
            (CliError::MissingValue("--seed"), "--seed"),
            (
                CliError::BadValue {
                    flag,
                    value: "x".into(),
                },
                "--seed N",
            ),
            (CliError::MissingArg("<sel>..."), "missing <sel>"),
            (CliError::UnexpectedArg("z".into()), "\"z\""),
            (CliError::Invalid("why".into()), "why"),
            (CliError::Failed("io".into()), "io"),
        ] {
            assert!(err.to_string().contains(needle), "{err:?}");
        }
    }

    #[test]
    fn case_insensitive_ids_resolve() {
        assert!(parse(&argv(&["run", "E06"]), &mut Vec::new()).is_ok());
        assert!(parse(&argv(&["info", "E01"]), &mut Vec::new()).is_ok());
    }

    #[test]
    fn trace_on_an_untraced_experiment_is_a_typed_error() {
        let action = parse(&argv(&["trace", "e01", "--quick"]), &mut Vec::new()).expect("parses");
        assert_eq!(
            action(&mut Vec::new()),
            Err(CliError::Failed(
                "e01 has no traced variant (try e06 or e26)".into()
            ))
        );
    }

    #[test]
    fn default_out_dir_is_workspace_anchored() {
        // Anchored at the workspace (where Cargo.lock lives), not the cwd.
        let root = workspace_root();
        assert!(root.join("Cargo.lock").exists());
        assert!(root.join("crates/bench/src/cli.rs").exists());
    }

    #[test]
    fn default_root_is_the_workspace_checkout() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn help_variants_print_usage() {
        for a in [&["net"][..], &["net", "help"], &["net", "--help"]] {
            assert!(page(a).starts_with("xp net — "), "{a:?}");
        }
        // Every command answers `help` anywhere outside a flag value.
        for a in [
            &["run", "help"][..],
            &["run", "e06", "--help"],
            &["sweep", "--help"],
            &["net", "run", "-h"],
        ] {
            assert!(page(a).contains("OPTIONS"), "{a:?}");
        }
        assert_eq!(
            run_opts(&args(&["run", "e06", "--out", "help"]))
                .expect("valid")
                .out,
            Some(PathBuf::from("help"))
        );
    }

    #[test]
    fn run_defaults_parse() {
        assert_eq!(net(&["net", "run"]), Ok(NetOpts::default()));
    }

    #[test]
    fn run_flags_override_defaults() {
        let opts = net(&[
            "net",
            "run",
            "--n",
            "64",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--protocol",
            "voter",
            "--transport",
            "udp",
            "--seed",
            "11",
            "--parallelism",
            "2",
        ])
        .expect("parses");
        assert_eq!(opts.n, 64);
        assert_eq!(opts.k, 3);
        assert_eq!(opts.eps, 0.4);
        assert_eq!(opts.protocol, "voter");
        assert_eq!(opts.transport, TransportKind::Udp);
        assert_eq!(opts.seed, 11);
        assert_eq!(opts.parallelism.trial_workers, Workers::fixed(2));
        // One integer grammar: `_` separators parse here as under `xp run`.
        let opts = net(&["net", "run", "--seed", "1_000", "--n", "2_048"]).expect("parses");
        assert_eq!((opts.seed, opts.n), (1000, 2048));
    }

    #[test]
    fn net_parallelism_takes_the_shared_worker_grammar() {
        let fixed = net(&["net", "run", "--parallelism", "3"]).expect("parses");
        assert_eq!(fixed.parallelism, trials(3));
        // `auto` means one worker per core.
        let auto = net(&["net", "run", "--parallelism", "auto"]).expect("parses");
        assert_eq!(auto.parallelism.trial_workers, Workers::Auto);
        assert!(net(&["net", "run", "--parallelism", "fast"]).is_err());
        assert!(net(&["net", "run", "--parallelism", "0"]).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        for a in [
            &["net", "frobnicate"][..],
            &["net", "run", "--n"],
            &["net", "run", "--n", "zero"],
            &["net", "run", "--n", "1"],
            &["net", "run", "--k", "1"],
            &["net", "run", "--transport", "carrier-pigeon"],
            &["net", "run", "--protocol", "nope"],
            &["net", "run", "--frobnicate", "1"],
            &["net", "run", "extra"],
        ] {
            assert!(parse(&argv(a), &mut Vec::new()).is_err(), "{a:?}");
        }
    }

    #[test]
    fn sweep_parse_builds_the_spec() {
        let opts = sweep_cmd(&[
            "sweep",
            "e06",
            "--quick",
            "--set",
            "trials=1",
            "--grid",
            "k=2,3",
            "--grid",
            "seed=7,8",
            "--parallelism",
            "4",
            "--no-cache",
            "--require-hit-rate",
            "90",
        ])
        .expect("parses");
        assert_eq!(opts.spec.experiment, "e06");
        assert_eq!(opts.spec.preset, Preset::Quick);
        assert_eq!(
            opts.spec.sets,
            vec![("trials".to_string(), "1".to_string())]
        );
        assert_eq!(opts.spec.grid.len(), 2);
        assert_eq!(opts.spec.grid[0].1, vec!["2", "3"]);
        assert_eq!(opts.cache_dir, None);
        assert_eq!(opts.require_hit_rate, Some(90.0));
        assert_eq!(opts.parallelism, trials(4));
        // `--cache-dir` after `--no-cache` turns the cache back on.
        let opts = sweep_cmd(&["sweep", "e06", "--no-cache", "--cache-dir", "c"]);
        assert_eq!(opts.expect("parses").cache_dir, Some(PathBuf::from("c")));
    }

    #[test]
    fn sweep_parse_rejects_bad_flags() {
        for a in [
            &["sweep"][..],
            &["sweep", "e06", "--set", "notkv"],
            &["sweep", "e06", "--grid"],
            &["sweep", "e06", "--require-hit-rate", "150"],
            &["sweep", "e06", "--wat"],
            &["sweep", "e06", "e07"],
        ] {
            assert!(parse(&argv(a), &mut Vec::new()).is_err(), "{a:?}");
        }
        assert!(page(&["sweep", "--help"]).starts_with("xp sweep — "));
    }

    #[test]
    fn sweep_default_cache_dir_is_workspace_anchored() {
        let opts = sweep_cmd(&["sweep", "e06"]).expect("parses");
        let dir = opts.cache_dir.expect("default cache on");
        assert!(dir.ends_with("out/cache"));
        assert!(dir
            .parent()
            .and_then(Path::parent)
            .expect("root")
            .join("Cargo.toml")
            .exists());
    }

    #[test]
    fn bench_json_carries_what_the_ab_driver_reads() {
        // tools/ab.py reads `samples[id == ID].ns_per_iter.p50` from this
        // document, at every commit it compares.
        let action = parse(
            &argv(&[
                "bench",
                "run",
                "rng/next_u64",
                "--budget-ms",
                "1",
                "--format",
                "json",
            ]),
            &mut Vec::new(),
        )
        .expect("parses");
        let mut out = Vec::new();
        assert_eq!(action(&mut out), Ok(0));
        let doc = rapid_experiments::json::parse(std::str::from_utf8(&out).expect("utf-8"))
            .expect("one JSON document");
        let samples = doc
            .get("samples")
            .and_then(JsonValue::as_array)
            .expect("samples array");
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].get("id").and_then(JsonValue::as_str),
            Some("rng/next_u64")
        );
        let p50 = samples[0]
            .get("ns_per_iter")
            .and_then(|ns| ns.get("p50"))
            .and_then(JsonValue::as_f64)
            .expect("ns_per_iter.p50");
        assert!(p50 > 0.0);
    }

    #[test]
    fn render_table_golden_sizes_the_id_column() {
        // Pins the run-table layout: the id column grows to the widest
        // id in the run (29 chars here), so long kernel ids no longer
        // shear the numeric columns out of alignment.
        let sample =
            |id: &str, elements: u64, p10: f64, p50: f64, p90: f64, iters: u64| BenchSample {
                id: id.into(),
                group: id.split('/').next().unwrap_or("").into(),
                elements,
                iters,
                total_ns: 0,
                mean_ns: p50,
                min_ns: p10,
                p10_ns: p10,
                p50_ns: p50,
                p90_ns: p90,
                max_ns: p90,
            };
        let table = render_table(&[
            sample("micro/full_run_sequential/1e6", 1, 1.5e9, 2e9, 2.5e9, 4),
            sample("rng/next_u64", 10_000, 4000.0, 5000.0, 6000.0, 250),
        ]);
        let expected = "\
bench                             p50/iter          p10          p90     throughput   iters
micro/full_run_sequential/1e6    2000.0 ms    1500.0 ms    2500.0 ms              -       4
rng/next_u64                       5000 ns      4000 ns      6000 ns       2.00 G/s     250
";
        assert_eq!(table, expected);
    }

    #[test]
    fn formatting_spans_scales() {
        assert!(format_ns(5.0).contains("ns"));
        assert!(format_ns(50_000.0).contains("µs"));
        assert!(format_ns(50_000_000.0).contains("ms"));
        assert!(format_ns(50_000_000_000.0).contains('s'));
        assert!(format_rate(2.5e9).contains('G'));
        assert!(format_rate(2.5e6).contains('M'));
        assert!(format_rate(2.5e3).contains('k'));
        assert!(format_rate(2.5).contains("2.5"));
    }
}
