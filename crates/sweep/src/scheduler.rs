//! The sweep scheduler: cache-check, fan out, stream, sort.
//!
//! [`run_sweep`] expands a [`SweepSpec`] and drives it to completion in
//! four phases:
//!
//! 1. **Cache check** (single-threaded): every item's [`cache_key`] is
//!    looked up by the coordinator alone, so the cache needs no locking
//!    and hit/miss counters are exact.
//! 2. **Fan out**: `trial_workers` threads claim the misses by one
//!    shared atomic index, as `run_trials_on` claims trials. Each runner
//!    call is wrapped in `catch_unwind`, so one poisoned trial fails
//!    *that record* while the workers claim every other miss and those
//!    trials complete.
//! 3. **Stream**: the coordinator invokes the caller's `on_record` sink
//!    the moment each record exists — cache hits immediately, computed
//!    trials in completion (arrival) order — which is what `xp sweep`
//!    uses for incremental JSONL.
//! 4. **Sort**: records are returned sorted by item index, and
//!    [`SweepOutcome::result_jsonl`] renders the canonical result
//!    document. Because a trial's bytes depend only on (experiment,
//!    params, seed) — never on cache status or which worker ran it —
//!    that document is bit-identical for any `trial_workers` and any
//!    cache state. `tests/determinism.rs` pins this with a golden hash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rapid_experiments::json::{self, JsonValue};
use rapid_experiments::report::Report;
use rapid_sim::parallelism::{Parallelism, Workers};

use crate::cache::{cache_key, CacheCounters, CacheKey, CacheRecord, ResultCache};
use crate::spec::{SweepError, SweepSpec, WorkItem};

/// How one trial's record came to be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialStatus {
    /// Ran fresh in this sweep.
    Computed,
    /// Served from the result cache without running.
    Cached,
    /// The runner panicked; the payload message is kept for the report.
    Failed(String),
}

/// The outcome of one trial of a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// Position in the spec's deterministic enumeration.
    pub index: usize,
    /// Experiment id (lower-case).
    pub experiment: String,
    /// The trial's master seed.
    pub seed: u64,
    /// Canonical compact-JSON parameter assignment.
    pub params_json: String,
    /// The report as compact JSON; `None` when the trial failed.
    pub report_json: Option<String>,
    /// The trial's content address.
    pub key: CacheKey,
    /// Fresh, cached, or failed.
    pub status: TrialStatus,
}

impl TrialRecord {
    /// The trial's result JSONL line — compact JSON with sorted keys,
    /// deliberately *excluding* cache status and key so the bytes are
    /// identical whether the trial was computed or cache-served. `None`
    /// for failed trials (failures live in [`SweepOutcome::failures`],
    /// not the result document).
    pub fn result_line(&self) -> Option<String> {
        let report = self.report_json.as_deref()?;
        Some(
            JsonValue::object([
                ("experiment", JsonValue::String(self.experiment.clone())),
                ("index", JsonValue::U64(self.index as u64)),
                (
                    "params",
                    json::parse(&self.params_json).unwrap_or(JsonValue::Null),
                ),
                ("report", json::parse(report).unwrap_or(JsonValue::Null)),
                ("seed", JsonValue::U64(self.seed)),
            ])
            .to_compact(),
        )
    }
}

/// The full result of a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepOutcome {
    /// Every trial record, sorted by item index.
    pub records: Vec<TrialRecord>,
    /// `(index, panic message)` for each failed trial, sorted by index.
    pub failures: Vec<(usize, String)>,
    /// Cache counter deltas attributable to this sweep (zero when no
    /// cache was supplied).
    pub counters: CacheCounters,
}

impl SweepOutcome {
    /// Trials that ran fresh.
    pub fn computed(&self) -> usize {
        self.count(|s| matches!(s, TrialStatus::Computed))
    }

    /// Trials served from cache.
    pub fn cached(&self) -> usize {
        self.count(|s| matches!(s, TrialStatus::Cached))
    }

    /// Whether every trial produced a report.
    pub fn is_success(&self) -> bool {
        self.failures.is_empty()
    }

    fn count(&self, pred: impl Fn(&TrialStatus) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.status)).count()
    }

    /// The canonical result document: every successful trial's line in
    /// index order, newline-terminated. Bit-identical for a given spec
    /// regardless of worker count, completion order or cache state —
    /// the property the determinism suite pins by hash.
    pub fn result_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            if let Some(line) = record.result_line() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Runs `spec` with the default runner: each work item drives its
/// registry experiment with serial inner parallelism (the sweep already
/// owns the trial axis; nesting thread pools would oversubscribe).
///
/// # Errors
///
/// [`SweepError`] from expansion, or [`SweepError::Cache`] when the
/// cache rejects an insert.
pub fn run_sweep(
    spec: &SweepSpec,
    parallelism: Parallelism,
    cache: Option<&mut ResultCache>,
    commit: Option<&str>,
    on_record: impl FnMut(&TrialRecord),
) -> Result<SweepOutcome, SweepError> {
    let exp = spec.experiment_entry()?;
    let inner = Parallelism {
        trial_workers: Workers::Fixed(1),
        shard_workers: Workers::Fixed(1),
    };
    run_sweep_with(spec, parallelism, cache, commit, on_record, move |item| {
        exp.run(&item.params, inner)
    })
}

/// [`run_sweep`] with an injected runner — the seam the concurrency
/// tests use to substitute instant or panicking stubs for real
/// experiments.
///
/// # Errors
///
/// [`SweepError`] from expansion, or [`SweepError::Cache`] when the
/// cache rejects an insert.
pub fn run_sweep_with(
    spec: &SweepSpec,
    parallelism: Parallelism,
    mut cache: Option<&mut ResultCache>,
    commit: Option<&str>,
    mut on_record: impl FnMut(&TrialRecord),
    runner: impl Fn(&WorkItem) -> Report + Sync,
) -> Result<SweepOutcome, SweepError> {
    let items = spec.expand()?;
    let before = cache.as_ref().map(|c| c.counters()).unwrap_or_default();

    // Phase 1: coordinator-only cache check. Hits become records (and
    // stream) immediately; misses carry their precomputed key to the
    // workers.
    let mut records: Vec<TrialRecord> = Vec::with_capacity(items.len());
    let mut misses: Vec<(WorkItem, CacheKey)> = Vec::new();
    for item in items {
        let key = cache_key(
            &item.experiment,
            &item.params,
            item.seed,
            &spec.backend,
            commit,
        );
        let hit = cache
            .as_deref_mut()
            .and_then(|c| c.lookup(key))
            .map(|rec| rec.report_json.clone());
        match hit {
            Some(report_json) => {
                let record = TrialRecord {
                    index: item.index,
                    experiment: item.experiment,
                    seed: item.seed,
                    params_json: item.params.to_json_value().to_compact(),
                    report_json: Some(report_json),
                    key,
                    status: TrialStatus::Cached,
                };
                on_record(&record);
                records.push(record);
            }
            None => misses.push((item, key)),
        }
    }

    // Phases 2 + 3: fan the misses out and stream completions as they
    // arrive. The coordinator (this thread) is the only cache writer.
    let mut cache_error: Option<String> = None;
    if !misses.is_empty() {
        let workers = parallelism.trial_workers.resolve(misses.len());
        // Each worker claims the next unclaimed miss. `Relaxed` suffices:
        // the index publishes no data, the misses were all written before
        // the workers spawned, and results travel back over the channel.
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Report, String>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (next, misses, runner) = (&next, &misses, &runner);
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((item, _)) = misses.get(i) else {
                        return;
                    };
                    let out =
                        catch_unwind(AssertUnwindSafe(|| runner(item))).map_err(panic_message);
                    // A send error means the coordinator stopped
                    // listening; keep claiming so every miss is taken.
                    let _ = tx.send((i, out));
                });
            }
            drop(tx);
            for (i, out) in rx {
                let (item, key) = (&misses[i].0, misses[i].1);
                let params_json = item.params.to_json_value().to_compact();
                let record = match out {
                    Ok(report) => {
                        let report_json = report.to_json_value().to_compact();
                        if let Some(cache) = cache.as_deref_mut() {
                            let stored = CacheRecord {
                                experiment: item.experiment.clone(),
                                seed: item.seed,
                                params_json: params_json.clone(),
                                backend: spec.backend.clone(),
                                commit: commit.unwrap_or("-").to_string(),
                                report_json: report_json.clone(),
                            };
                            if let Err(e) = cache.insert(key, stored) {
                                cache_error.get_or_insert(e.to_string());
                            }
                        }
                        TrialRecord {
                            index: item.index,
                            experiment: item.experiment.clone(),
                            seed: item.seed,
                            params_json,
                            report_json: Some(report_json),
                            key,
                            status: TrialStatus::Computed,
                        }
                    }
                    Err(message) => TrialRecord {
                        index: item.index,
                        experiment: item.experiment.clone(),
                        seed: item.seed,
                        params_json,
                        report_json: None,
                        key,
                        status: TrialStatus::Failed(message),
                    },
                };
                on_record(&record);
                records.push(record);
            }
        });
    }
    if let Some(message) = cache_error {
        return Err(SweepError::Cache(message));
    }

    records.sort_by_key(|r| r.index);
    let failures = records
        .iter()
        .filter_map(|r| match &r.status {
            TrialStatus::Failed(m) => Some((r.index, m.clone())),
            _ => None,
        })
        .collect();
    let after = cache.as_ref().map(|c| c.counters()).unwrap_or_default();
    Ok(SweepOutcome {
        records,
        failures,
        counters: CacheCounters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
        },
    })
}

/// Renders a `catch_unwind` payload as the panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub_report(item: &WorkItem) -> Report {
        // Deterministic in (params, seed) only — the scheduler contract.
        let mut r = Report::new("STUB", "stub", item.seed);
        r.push_note(format!("k={}", item.params.u64("k")));
        r
    }

    fn spec() -> SweepSpec {
        SweepSpec::new("e06")
            .quick()
            .axis("k", ["2", "3"])
            .axis("seed", ["7", "8"])
    }

    #[test]
    fn records_arrive_streamed_and_return_sorted() {
        let mut streamed = 0usize;
        let outcome = run_sweep_with(
            &spec(),
            Parallelism::parse("2").expect("valid"),
            None,
            None,
            |_| streamed += 1,
            stub_report,
        )
        .expect("runs");
        assert_eq!(streamed, 4);
        assert_eq!(outcome.records.len(), 4);
        assert!(outcome.is_success());
        assert_eq!(outcome.computed(), 4);
        assert_eq!(outcome.cached(), 0);
        let indices: Vec<usize> = outcome.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(outcome.result_jsonl().lines().count(), 4);
    }

    #[test]
    fn result_line_excludes_cache_provenance() {
        let outcome = run_sweep_with(
            &spec(),
            Parallelism::parse("1").expect("valid"),
            None,
            None,
            |_| {},
            stub_report,
        )
        .expect("runs");
        let line = outcome.records[0].result_line().expect("succeeded");
        assert!(!line.contains("\"key\""));
        assert!(!line.contains("status"));
        assert!(line.starts_with("{\"experiment\":\"e06\",\"index\":0,"));
    }

    #[test]
    fn panicking_runner_fails_only_its_trial() {
        let outcome = run_sweep_with(
            &spec(),
            Parallelism::parse("4").expect("valid"),
            None,
            None,
            |_| {},
            |item: &WorkItem| {
                if item.index == 2 {
                    // lint: allow(panic-hygiene): deliberate poisoned-trial stub.
                    panic!("trial {} poisoned", item.index);
                }
                stub_report(item)
            },
        )
        .expect("sweep itself survives");
        assert_eq!(outcome.records.len(), 4, "queue drained every item");
        assert_eq!(outcome.failures, vec![(2, "trial 2 poisoned".to_string())]);
        assert!(!outcome.is_success());
        assert_eq!(outcome.result_jsonl().lines().count(), 3);
    }
}
