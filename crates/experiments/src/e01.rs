//! **E01 / Table 1** — Theorem 1.1 upper bound.
//!
//! Claim: on `K_n` with `k = O(n^ε)` opinions and initial gap
//! `c_1 − c_2 ≥ z·√(n log n)`, synchronous Two-Choices converges to the
//! plurality w.h.p. within `O(n/c_1 · log n)` rounds.
//!
//! Shape check: the column `rounds / (n/c₁·ln n)` should be roughly
//! constant across the whole `(n, k)` grid, and the success rate ≈ 1.

use rapid_core::distributions::theorem_11_gap;
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::predictions;
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Theorem 1.1 upper bound: Two-Choices rounds = O(n/c1 * ln n)";

/// E01's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    ks: Vec<usize>,
    z: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
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
        ParamSpec::u64_list(
            "ns",
            "population sizes to sweep",
            &[1 << 10, 1 << 12, 1 << 14, 1 << 16],
        )
        .quick(vec![1 << 9, 1 << 11]),
        ParamSpec::u64_list("ks", "opinion counts to sweep", &[2, 8, 32]).quick(vec![2, 8]),
        ParamSpec::f64("z", "gap multiplier in z*sqrt(n ln n)", 1.0),
        ParamSpec::u64("trials", "trials per cell", 30)
            .quick(5)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE01),
    ])
}

/// Registry entry for this experiment.
pub struct E01;

impl Experiment for E01 {
    fn id(&self) -> &'static str {
        "e01"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.1 upper bound / Table 1"
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
    let mut report = Report::new("E01", TITLE, cfg.seed);
    let mut table = Table::new(
        "Sync Two-Choices with gap z*sqrt(n ln n)",
        &[
            "n", "k", "c1", "gap", "rounds", "stderr", "pred", "ratio", "success", "trials",
        ],
    );

    for &n in &cfg.ns {
        for &k in &cfg.ks {
            let gap = theorem_11_gap(n, cfg.z);
            let dist = InitialDistribution::additive_bias(k, gap);
            let Ok(counts) = dist.counts(n) else {
                continue; // n too small for this k at this gap
            };
            let c1 = counts[0];
            let budget = (predictions::two_choices_rounds(n, c1) * 50.0).ceil() as u64 + 1000;

            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 8) ^ k as u64),
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
                            .expect("validated above")
                            .run();
                        match out.as_sync() {
                            Some(s) => (s.rounds, s.winner == Color::new(0), true),
                            None => (budget, false, false),
                        }
                    }
                },
            );

            let rounds: OnlineStats = results.iter().filter(|r| r.2).map(|r| r.0 as f64).collect();
            let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
            let pred = predictions::two_choices_rounds(n, c1);
            table.push_row(vec![
                n.to_string(),
                k.to_string(),
                c1.to_string(),
                gap.to_string(),
                format!("{:.1}", rounds.mean()),
                format!("{:.1}", rounds.std_err()),
                format!("{pred:.1}"),
                format!("{:.3}", rounds.mean() / pred),
                format!("{success:.2}"),
                cfg.trials.to_string(),
            ]);
        }
    }
    table.push_note("shape check: 'ratio' should be near-constant across the grid");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn quick_run_produces_constant_ratio_and_high_success() {
        let report = quick_report(&E01);
        let table = &report.tables[0];
        assert!(!table.is_empty());
        let ratios = table.column_f64("ratio");
        assert!(!ratios.is_empty());
        // Shape: ratios within a small constant band.
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 6.0, "ratio band too wide: [{min}, {max}]");
        let success = table.column_f64("success");
        assert!(
            success.iter().all(|&s| s >= 0.8),
            "success rates {success:?}"
        );
    }
}
