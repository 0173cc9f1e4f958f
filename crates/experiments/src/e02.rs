//! **E02 / Figure 1** — Theorem 1.1 lower bound.
//!
//! Claim: with `c_1 − c_2 = z·√(n log n)` and `c_2 = … = c_k`, synchronous
//! Two-Choices needs `Ω(n/c_1 + log n)` rounds in expectation — i.e.
//! `Ω(k)` rounds when `c_1 = Θ(n/k)`.
//!
//! Shape check: at fixed `n`, mean rounds grow linearly in `k` (the
//! `rounds/k` column stabilises; a least-squares line on `(k, rounds)` has
//! strongly positive slope and high R²).

use rapid_core::distributions::theorem_11_gap;
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::{fit_line, OnlineStats};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Theorem 1.1 lower bound: Omega(k) rounds when c1 = Theta(n/k)";

/// E02's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    ks: Vec<usize>,
    z: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            ks: p.usize_list("ks"),
            z: p.f64("z"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "fixed population size", 1 << 14).quick(1 << 11),
        ParamSpec::u64_list("ks", "opinion counts to sweep", &[2, 4, 8, 16, 32, 64])
            .quick(vec![2, 4, 8, 16]),
        ParamSpec::f64("z", "gap multiplier", 1.0),
        ParamSpec::u64("trials", "trials per k", 20)
            .quick(5)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE02),
    ])
}

/// Registry entry for this experiment.
pub struct E02;

impl Experiment for E02 {
    fn id(&self) -> &'static str {
        "e02"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.1 lower bound / Figure 1"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E02", TITLE, cfg.seed);
    let mut table = Table::new(
        format!("Sync Two-Choices at n = {}, gap z*sqrt(n ln n)", cfg.n),
        &["k", "c1", "n/c1", "rounds", "stderr", "rounds/k", "success"],
    );

    let n = cfg.n;
    let mut ks_used = Vec::new();
    let mut predictors = Vec::new();
    let mut means = Vec::new();
    for &k in &cfg.ks {
        let gap = theorem_11_gap(n, cfg.z);
        let dist = InitialDistribution::additive_bias(k, gap);
        let Ok(counts) = dist.counts(n) else { continue };
        let c1 = counts[0];
        let budget = 400 * k as u64 + 5_000;

        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (k as u64) << 3),
            parallelism,
            {
                let counts = counts.clone();
                move |_, seed| {
                    let out = Sim::builder()
                        .topology(Complete::new(n as usize))
                        .counts(&counts)
                        .protocol(GossipRule::TwoChoices)
                        .seed(seed)
                        .stop(StopCondition::RoundBudget(budget))
                        .build()
                        // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                        .expect("validated")
                        .run();
                    match out.as_sync() {
                        Some(out) => (out.rounds, out.winner == Color::new(0), true),
                        None => (budget, false, false),
                    }
                }
            },
        );

        let rounds: OnlineStats = results.iter().map(|r| r.0 as f64).collect();
        let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
        ks_used.push(k as f64);
        predictors.push(n as f64 / c1 as f64);
        means.push(rounds.mean());
        table.push_row(vec![
            k.to_string(),
            c1.to_string(),
            format!("{:.1}", n as f64 / c1 as f64),
            format!("{:.1}", rounds.mean()),
            format!("{:.1}", rounds.std_err()),
            format!("{:.2}", rounds.mean() / k as f64),
            format!("{success:.2}"),
        ]);
    }

    if ks_used.len() >= 2 {
        let fit = fit_line(&ks_used, &means);
        table.push_note(format!(
            "fit vs k: rounds = {:.2}*k + {:.1} (R^2 = {:.3})",
            fit.slope, fit.intercept, fit.r_squared
        ));
        // The theorem's literal predictor is n/c1 (the √(n log n) gap
        // inflates c1 at large k, so growth in raw k saturates while the
        // fit against n/c1 stays linear).
        let fit = fit_line(&predictors, &means);
        table.push_note(format!(
            "fit vs n/c1: rounds = {:.2}*(n/c1) + {:.1} (R^2 = {:.3}) — the Omega(n/c1) form",
            fit.slope, fit.intercept, fit.r_squared
        ));
    }
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn rounds_grow_with_k() {
        let report = quick_report(&E02);
        let table = &report.tables[0];
        let rounds = table.column_f64("rounds");
        assert!(rounds.len() >= 3);
        // Monotone-ish growth: last k takes noticeably longer than first.
        assert!(
            rounds.last().expect("non-empty") > &(rounds[0] * 1.5),
            "rounds {rounds:?} do not grow with k"
        );
    }
}
