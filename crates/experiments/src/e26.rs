//! **E26** — phase-transition portrait: the rapid protocol's per-phase
//! bias amplification, measured from the obs layer's trace.
//!
//! Claim: each part-1 phase first seeds opinions via Two-Choices (seed
//! fractions ∝ x²) and then grows the seeds as a Pólya urn whose final
//! composition is a martingale — so the leader's fraction at the *next*
//! phase boundary is predicted by `rapid_urn::moments::fraction_mean`
//! over the seed counts, with `fraction_variance` as the error bar. This
//! experiment attaches an [`ObsObserver`] to micro rapid runs on the
//! clique, reads the phase-entry occupancy samples back off the trace,
//! and checks the measured amplification against the urn-moment
//! prediction within a bootstrap confidence interval.
//!
//! This is the trace-driven twin of the macro engine's mean-field
//! amplification map (`rapid_macro::meanfield`): same recipe, but the
//! fractions come out of a real stochastic run's trace stream instead of
//! an ODE/urn iteration.

use std::collections::BTreeMap;
use std::sync::Arc;

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_obs::{Obs, TraceEvent, TraceRecord};
use rapid_sim::prelude::*;
use rapid_stats::bootstrap_ci;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Phase portrait: per-phase amplification matches the urn moments";

/// Absolute tolerance added on top of the urn spread: the asynchronous
/// protocol's phases overlap across nodes (each node crosses a boundary
/// at its own working time), so the population at the *median* crossing
/// mixes adjacent phases. The mean-field/urn prediction ignores that
/// mixing; a few percent of absolute slack absorbs it.
const PHASE_MIX_SLACK: f64 = 0.03;

/// E26's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    k: usize,
    eps: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64_list("ns", "population sizes", &[1 << 14, 1 << 16])
            .quick(vec![1 << 10, 1 << 11]),
        ParamSpec::u64("k", "number of opinions", 4).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead of the plurality", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "traced trials per n", 5)
            .quick(3)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE26),
    ])
}

/// Registry entry for this experiment.
pub struct E26;

impl Experiment for E26 {
    fn id(&self) -> &'static str {
        "e26"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.3 (phase amplification)"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        // The untraced path still needs a trace buffer to read phase
        // entries back from; it is private to the run and dropped after.
        run_portrait(&Config::from_params(params), &Obs::new(), parallelism)
    }
    fn run_traced(
        &self,
        params: &ParamMap,
        parallelism: Parallelism,
        obs: &Arc<Obs>,
    ) -> Option<Report> {
        Some(run_portrait(&Config::from_params(params), obs, parallelism))
    }
}

/// The occupancy fractions observed at entry into one phase
/// (`phase == phases` is part 2, the endgame).
struct PhaseEntry {
    phase: u64,
    fractions: Vec<f64>,
}

/// Decodes one trial's stream into its phase-entry points: the first
/// occupancy sample at or after each [`TraceEvent::PhaseEnter`].
fn phase_entries(records: &[TraceRecord]) -> Vec<PhaseEntry> {
    let mut entries = Vec::new();
    let mut pending: Option<u64> = None;
    for record in records {
        match &record.event {
            TraceEvent::PhaseEnter { phase, .. } => pending = Some(*phase),
            TraceEvent::OccupancySample { counts, .. } => {
                if let Some(phase) = pending.take() {
                    let total: u64 = counts.iter().sum();
                    if total > 0 {
                        entries.push(PhaseEntry {
                            phase,
                            fractions: counts.iter().map(|&c| c as f64 / total as f64).collect(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    entries
}

/// The urn-moment prediction for the fractions at the next phase
/// boundary, given the fractions `x` at this one: Two-Choices commits
/// seed counts ∝ x²·n, Bit-Propagation grows them as a Pólya urn, so the
/// expected next fraction per color is `fraction_mean` (normalised) and
/// its spread is `fraction_variance.sqrt()` — the same recipe as the
/// macro engine's mean-field amplification map.
fn predict_next(x: &[f64], n: u64) -> Option<(Vec<f64>, Vec<f64>)> {
    let seed_counts: Vec<u64> = x
        .iter()
        .map(|&f| (((f * f) * n as f64).round() as u64).max(u64::from(f > 0.0)))
        .collect();
    let total_seeds: u64 = seed_counts.iter().sum();
    if total_seeds == 0 {
        return None;
    }
    let growth = n.saturating_sub(total_seeds);
    let mut next = vec![0.0; x.len()];
    let mut std_dev = vec![0.0; x.len()];
    for (j, &a) in seed_counts.iter().enumerate() {
        let b = total_seeds - a;
        if a == 0 {
            continue;
        }
        next[j] = rapid_urn::moments::fraction_mean(a, b);
        std_dev[j] = rapid_urn::moments::fraction_variance(a, b, growth).sqrt();
    }
    let sum: f64 = next.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    for f in &mut next {
        *f /= sum;
    }
    Some((next, std_dev))
}

/// One measured amplification step across a phase boundary.
struct AmpSample {
    entry: f64,
    measured: f64,
    predicted: f64,
    urn_std: f64,
}

/// Runs the portrait: traced micro rapid runs per n, phase-entry
/// extraction, per-phase bootstrap check against the urn prediction.
fn run_portrait(cfg: &Config, obs: &Arc<Obs>, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E26", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "phase portrait on K_n, k = {}, eps = {}: measured vs urn-predicted amplification",
            cfg.k, cfg.eps
        ),
        &[
            "n", "phase", "x_entry", "amp", "amp_pred", "ci_lo", "ci_hi", "urn_std", "ok",
        ],
    );

    for &n in &cfg.ns {
        let counts = match InitialDistribution::multiplicative_bias(cfg.k, cfg.eps).counts(n) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let params = Params::for_network_with_eps(n as usize, cfg.k, cfg.eps);

        let results = run_trials_on(cfg.trials, Seed::new(cfg.seed ^ (n << 4)), parallelism, {
            let counts = counts.clone();
            let obs = Arc::clone(obs);
            move |trial, seed| {
                let stream = format!("e26/n={n}/t={trial}");
                let mut observer = ObsObserver::new(Arc::clone(&obs), &stream)
                    .with_schedule(Schedule::new(params));
                Sim::builder()
                    .topology(Complete::new(n as usize))
                    .counts(&counts)
                    .rapid(params)
                    .seed(seed)
                    .build()
                    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                    .expect("validated")
                    .run_with(&mut [&mut observer]);
                let records: Vec<TraceRecord> = obs
                    .trace
                    .records()
                    .into_iter()
                    .filter(|r| r.stream == stream)
                    .collect();
                phase_entries(&records)
            }
        });

        // Group amplification steps by the phase they measure: the pair
        // (entry j, entry j+1) reflects phase j's seed-and-grow cycle.
        let mut per_phase: BTreeMap<u64, Vec<AmpSample>> = BTreeMap::new();
        for entries in &results {
            for pair in entries.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if b.phase != a.phase + 1 || a.fractions.len() != b.fractions.len() {
                    continue;
                }
                let lead = a
                    .fractions
                    .iter()
                    .enumerate()
                    .max_by(|p, q| p.1.total_cmp(q.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                let Some((next, std_dev)) = predict_next(&a.fractions, n) else {
                    continue;
                };
                per_phase.entry(a.phase).or_default().push(AmpSample {
                    entry: a.fractions[lead],
                    measured: b.fractions[lead],
                    predicted: next[lead],
                    urn_std: std_dev[lead],
                });
            }
        }

        let mut rng = SimRng::from_seed_value(Seed::new(cfg.seed ^ n));
        for (phase, samples) in &per_phase {
            let entry = mean(samples.iter().map(|s| s.entry));
            let predicted = mean(samples.iter().map(|s| s.predicted));
            let urn_std = mean(samples.iter().map(|s| s.urn_std));
            let measured: Vec<f64> = samples.iter().map(|s| s.measured).collect();
            let ci = bootstrap_ci(
                &measured,
                |s| s.iter().sum::<f64>() / s.len() as f64,
                1000,
                0.95,
                &mut rng,
            );
            let tolerance = 3.0 * urn_std + PHASE_MIX_SLACK;
            let ok = predicted >= ci.lo - tolerance && predicted <= ci.hi + tolerance;
            table.push_row(vec![
                n.to_string(),
                phase.to_string(),
                format!("{entry:.4}"),
                format!("{:.3}", ci.estimate / entry),
                format!("{:.3}", predicted / entry),
                format!("{:.4}", ci.lo),
                format!("{:.4}", ci.hi),
                format!("{urn_std:.4}"),
                u64::from(ok).to_string(),
            ]);
        }
    }

    table.push_note(
        "amp = mean measured x_lead(j+1)/x_lead(j); amp_pred from urn moments over x^2 seeds",
    );
    table.push_note(format!(
        "ok = urn prediction inside the 95% bootstrap CI widened by 3*urn_std + {PHASE_MIX_SLACK} \
         (async phase-mixing slack)"
    ));
    report.push_table(table);
    report
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0u64);
    for v in it {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn quick_portrait_matches_the_urn_prediction() {
        let report = quick_report(&E26);
        let table = &report.tables[0];
        let ok = table.column_f64("ok");
        assert!(ok.len() >= 2, "at least two phase rows: {table}");
        assert!(
            ok.iter().all(|&v| v == 1.0),
            "every phase within tolerance: {table}"
        );
    }

    #[test]
    fn phase_entries_decode_enter_then_occupancy() {
        let recs = vec![
            TraceRecord {
                stream: "s".into(),
                seq: 0,
                event: TraceEvent::PhaseEnter {
                    phase: 0,
                    time: 1.0,
                },
            },
            TraceRecord {
                stream: "s".into(),
                seq: 1,
                event: TraceEvent::OccupancySample {
                    time: 1.0,
                    counts: vec![60, 40],
                },
            },
            // A later sample without a fresh PhaseEnter is not an entry.
            TraceRecord {
                stream: "s".into(),
                seq: 2,
                event: TraceEvent::OccupancySample {
                    time: 2.0,
                    counts: vec![70, 30],
                },
            },
        ];
        let entries = phase_entries(&recs);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].phase, 0);
        assert!((entries[0].fractions[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn prediction_amplifies_a_biased_two_color_split() {
        let (next, std) = predict_next(&[0.6, 0.4], 1 << 12).expect("predicts");
        assert!(next[0] > 0.6, "the leader amplifies: {next:?}");
        assert!((next[0] + next[1] - 1.0).abs() < 1e-9);
        assert!(std[0] > 0.0 && std[0] < 0.1);
    }
}
