//! Integration tests for the `Experiment` trait and the registry: the
//! path `xp run`, `xp all` and `xp sweep` drive every experiment
//! through. Each experiment's quick preset itself is run and pinned by
//! its module's unit test (`testkit::quick_report`).

use rapid_experiments::cli::{Job, RunOpts};
use rapid_experiments::prelude::*;

/// `--set` overrides flow into the run: changing `trials` must change the
/// report's table while keeping the same seed.
#[test]
fn set_overrides_change_the_run() {
    let exp = find("e09").expect("registered");
    let mut map = ParamMap::quick(&exp.params());
    map.set("trials", "2").expect("known key");
    map.set("ns", "128,256").expect("known key");
    let report = exp.run(&map, Parallelism::default());
    let trials = report.tables[0].column_f64("trials");
    assert_eq!(trials, vec![2.0, 2.0]);
}

/// `--seed N` means `--set seed=N`: it replaces the schema's master
/// seed verbatim, in the map itself.
#[test]
fn seed_override_is_respected() {
    let exp = find("e09").expect("registered");
    let opts = RunOpts {
        preset: Preset::Quick,
        seed: Some(1234),
        ..RunOpts::default()
    };
    let job = Job::new(exp, &opts).expect("valid seed");
    let mut map = ParamMap::quick(&exp.params());
    let c = exp.run(&map, Parallelism::default());
    map.set("seed", "1234").expect("known key");
    assert_eq!(job.map, map, "--seed is --set seed");
    let a = exp.run(&job.map, Parallelism::default());
    let b = exp.run(&map, Parallelism::default());
    assert_eq!(a.seed, 1234);
    assert_eq!(a, b, "same seed, same report");
    assert_ne!(a, c, "default seed differs");
}

/// Thread count must never change results: forcing one worker and many
/// workers produces identical reports through the registry path.
#[test]
fn forced_thread_counts_produce_identical_reports() {
    let exp = find("e09").expect("registered");
    let map = ParamMap::quick(&exp.params());
    let fixed = |n| Parallelism {
        trial_workers: Workers::fixed(n),
        ..Parallelism::default()
    };
    let one = exp.run(&map, fixed(1));
    let many = exp.run(&map, fixed(8));
    assert_eq!(one, many);
    assert_eq!(one.to_json(), many.to_json());
}

/// Registry completeness: all 26 ids present, unique, sorted, findable.
#[test]
fn registry_is_complete() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    let expected: Vec<String> = (1..=26).map(|i| format!("e{i:02}")).collect();
    assert_eq!(ids, expected.iter().map(String::as_str).collect::<Vec<_>>());
    for id in &expected {
        assert!(find(id).is_some(), "{id} must resolve");
        assert!(find(&id.to_uppercase()).is_some(), "{id} case-insensitive");
    }
}

/// The README experiment catalog is generated from the registry
/// (`xp list --markdown`); this keeps the docs pinned to the code.
#[test]
fn readme_catalog_matches_the_registry() {
    let readme_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("README.md");
    let readme = std::fs::read_to_string(&readme_path).expect("README.md readable");
    let begin = "<!-- experiment-catalog:begin -->\n";
    let end = "<!-- experiment-catalog:end -->";
    let start = readme.find(begin).expect("catalog begin marker") + begin.len();
    let stop = readme.find(end).expect("catalog end marker");
    assert_eq!(
        readme[start..stop],
        rapid_experiments::registry::catalog_markdown(),
        "README catalog is stale: regenerate with `xp list --markdown`"
    );
}

/// The schema rejects unknown keys and malformed values for every
/// experiment — no silent defaults anywhere in the registry.
#[test]
fn every_schema_rejects_unknown_keys_and_bad_values() {
    for exp in registry() {
        let mut map = ParamMap::defaults(&exp.params());
        assert!(
            matches!(
                map.set("definitely_not_a_param", "1"),
                Err(ParamError::UnknownKey { .. })
            ),
            "{}",
            exp.id()
        );
        assert!(
            matches!(
                map.set("seed", "not-a-number"),
                Err(ParamError::BadValue { .. })
            ),
            "{}",
            exp.id()
        );
        // Failed sets leave the map untouched.
        assert_eq!(map, ParamMap::defaults(&exp.params()), "{}", exp.id());
    }
}

/// Every value outside `trials` that a scan of the schemas found
/// accepted, yet crashing the run it started (a panic, or one abort):
/// `xp run <id> --quick --set trials=1 --set <key>=<value>` over integer
/// values {0, 1} and float values {0, -1, 1, 0.5, 11, 1e9}.
const CRASHED_RUNS: &[(&str, &str, &[&str])] = &[
    ("e04", "z", &["0", "-1"]),
    ("e05", "n", &["0", "1"]),
    ("e05", "ks", &["0", "1"]),
    ("e05", "eps", &["0", "-1", "1e9"]),
    ("e06", "eps", &["11"]),
    ("e07", "eps", &["11"]),
    ("e08", "ns", &["0", "1"]),
    ("e08", "k", &["0", "1"]),
    ("e08", "eps", &["0", "-1", "11", "1e9"]),
    ("e09", "ns", &["0"]),
    ("e09", "horizon", &["-1"]),
    ("e10", "n", &["0", "1"]),
    ("e10", "ks", &["0", "1"]),
    ("e10", "eps", &["0", "-1", "11", "1e9"]),
    ("e11", "ns", &["0", "1"]),
    ("e11", "eps", &["11", "1e9"]),
    ("e11", "halt", &["0", "-1"]),
    ("e12", "ns", &["0", "1"]),
    ("e12", "k", &["0", "1"]),
    ("e12", "eps", &["0", "-1", "11", "1e9"]),
    ("e13", "eps", &["11"]),
    ("e14", "eps", &["11"]),
    ("e15", "n", &["0", "1"]),
    ("e15", "k", &["0", "1"]),
    ("e15", "eps", &["0", "-1", "11", "1e9"]),
    ("e16", "n", &["0", "1"]),
    ("e16", "k", &["0", "1"]),
    ("e16", "eps", &["0", "-1", "11", "1e9"]),
    ("e17", "n", &["0", "1"]),
    ("e17", "k", &["0", "1"]),
    ("e17", "eps", &["0", "-1", "11", "1e9"]),
    ("e18", "n", &["0", "1"]),
    ("e18", "fracs", &["1e9"]),
    ("e18", "down_at", &["-1"]),
    ("e18", "up_at", &["-1"]),
    ("e19", "n", &["0", "1"]),
    ("e19", "start", &["-1"]),
    ("e20", "ns", &["0", "1"]),
    ("e20", "k", &["0", "1"]),
    ("e20", "eps", &["0", "-1", "11", "1e9"]),
    ("e21", "ns", &["0", "1"]),
    ("e22", "ns", &["0", "1"]),
    ("e23", "n", &["0", "1"]),
    ("e23", "resamples", &["0"]),
    ("e24", "n", &["0", "1"]),
    ("e26", "eps", &["11"]),
];

/// Each parameter's declared range stops the values that crashed a run
/// at assignment time, as a typed `BadValue` (exit 2 in `xp`), and the
/// map is left untouched.
#[test]
fn schemas_reject_values_that_crashed_runs() {
    let rejects = |id: &str, key: &str, value: &str| {
        let exp = find(id).expect("registered");
        let mut map = ParamMap::quick(&exp.params());
        let err = map
            .set(key, value)
            .expect_err(&format!("{id} {key}={value}"));
        assert!(
            matches!(err, ParamError::BadValue { .. }),
            "{id} {key}={value}: {err:?}"
        );
        assert_eq!(map, ParamMap::quick(&exp.params()), "{id}: map changed");
    };
    for exp in registry() {
        rejects(exp.id(), "trials", "0");
    }
    for &(id, key, values) in CRASHED_RUNS {
        for value in values {
            rejects(id, key, value);
        }
    }
}
