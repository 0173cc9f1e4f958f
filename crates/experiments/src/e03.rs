//! **E03 / Table 2** — Theorem 1.1's bias threshold.
//!
//! Claim: if `c_1 − c_2 = O(√n)`, the runner-up `C_2` wins with constant
//! probability; at the theorem's gap `z·√(n ln n)` the plurality wins
//! w.h.p.
//!
//! Shape check: the `C2 wins` column is bounded away from 0 for gaps
//! `{0, 0.5√n, √n, 2√n}` and collapses to ≈ 0 at `√(n ln n)`.

use rapid_core::distributions::theorem_11_gap;
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Theorem 1.1: gap O(sqrt n) lets C2 win with constant probability";

/// E03's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    k: usize,
    sqrt_n_multipliers: Vec<f64>,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            k: p.usize("k"),
            sqrt_n_multipliers: p.f64_list("gaps"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 1 << 14).quick(1 << 11),
        ParamSpec::u64("k", "number of opinions", 2),
        ParamSpec::f64_list(
            "gaps",
            "gap values in units of sqrt(n)",
            &[0.0, 0.5, 1.0, 2.0],
        ),
        ParamSpec::u64("trials", "trials per gap", 200)
            .quick(40)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE03),
    ])
}

/// Registry entry for this experiment.
pub struct E03;

impl Experiment for E03 {
    fn id(&self) -> &'static str {
        "e03"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.1 bias threshold / Table 2"
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
    let mut report = Report::new("E03", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Sync Two-Choices winner rates at n = {}, k = {}",
            cfg.n, cfg.k
        ),
        &[
            "gap",
            "gap/sqrt(n)",
            "C1 wins",
            "C2 wins",
            "other",
            "trials",
        ],
    );

    let n = cfg.n;
    let sqrt_n = (n as f64).sqrt();
    let mut gaps: Vec<(u64, String)> = cfg
        .sqrt_n_multipliers
        .iter()
        .map(|m| ((m * sqrt_n).round() as u64, format!("{m:.1}")))
        .collect();
    let thm_gap = theorem_11_gap(n, 1.0);
    gaps.push((thm_gap, format!("{:.1}", thm_gap as f64 / sqrt_n)));

    for (gap, label) in gaps {
        let dist = InitialDistribution::additive_bias(cfg.k, gap);
        let Ok(counts) = dist.counts(n) else { continue };
        let budget = 200_000;

        let results = run_trials_on(cfg.trials, Seed::new(cfg.seed ^ gap), parallelism, {
            let counts = counts.clone();
            move |_, seed| {
                Sim::builder()
                    .topology(Complete::new(n as usize))
                    .counts(&counts)
                    .protocol(GossipRule::TwoChoices)
                    .seed(seed)
                    .stop(StopCondition::RoundBudget(budget))
                    .build()
                    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                    .expect("validated")
                    .run()
                    .winner
            }
        });

        let total = results.len() as f64;
        let c1 = results
            .iter()
            .filter(|w| **w == Some(Color::new(0)))
            .count() as f64
            / total;
        let c2 = results
            .iter()
            .filter(|w| **w == Some(Color::new(1)))
            .count() as f64
            / total;
        table.push_row(vec![
            gap.to_string(),
            label,
            format!("{c1:.3}"),
            format!("{c2:.3}"),
            format!("{:.3}", (1.0 - c1 - c2).max(0.0)),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note("last row is the Theorem 1.1 gap sqrt(n ln n): C1 should win w.h.p.");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn small_gaps_let_c2_win_but_theorem_gap_does_not() {
        let report = quick_report(&E03);
        let table = &report.tables[0];
        let c2 = table.column_f64("C2 wins");
        assert!(c2.len() >= 4);
        // Zero gap: a fair coin (within generous slack for 40 trials).
        assert!(c2[0] > 0.2 && c2[0] < 0.8, "zero-gap C2 rate {}", c2[0]);
        // Theorem gap (last row): C2 effectively never wins.
        let last = *c2.last().expect("non-empty");
        assert!(last <= 0.1, "C2 rate at theorem gap: {last}");
    }
}
