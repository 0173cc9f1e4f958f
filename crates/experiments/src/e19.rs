//! **E19 / Table 11 (extension)** — adversary budget sweep.
//!
//! An adversary corrupts opinions at a fixed cadence until a budget is
//! exhausted, in two strengths from the consensus-under-adversary
//! literature (cf. Robinson–Scheideler–Setzer's late adversary):
//!
//! * **oblivious** — a uniformly random node is set to a uniformly random
//!   color (blind to the state);
//! * **adaptive** — a node holding the current plurality color is flipped
//!   to the current runner-up (maximally harmful per corruption).
//!
//! Asynchronous Two-Choices runs on top, with the budget swept as a
//! fraction of `n`. Oblivious corruptions are nearly harmless (they hit
//! both colors proportionally); adaptive ones eat the bias directly, so
//! success should degrade visibly once the budget rivals the initial gap
//! `c₁ − c₂`.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::{AdversaryKind, AdversaryPlan, FaultPlan};
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Fault extension: async Two-Choices against budgeted adversaries";

/// E19's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    eps: f64,
    budget_fracs: Vec<f64>,
    interval: f64,
    start: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            eps: p.f64("eps"),
            budget_fracs: p.f64_list("budgets"),
            interval: p.f64("interval"),
            start: p.f64("start"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 1 << 13)
            .quick(1 << 10)
            .at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5),
        ParamSpec::f64_list(
            "budgets",
            "adversary budgets as fractions of n",
            &[0.0, 0.05, 0.1, 0.2],
        )
        .quick(vec![0.0, 0.1]),
        ParamSpec::f64("interval", "time units between corruptions", 0.02),
        // A late adversary: it starts after some progress.
        ParamSpec::f64("start", "adversary start time", 1.0).at_least(0.0),
        ParamSpec::u64("trials", "trials per (kind, budget) cell", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE19),
    ])
}

/// Registry entry for this experiment.
pub struct E19;

impl Experiment for E19 {
    fn id(&self) -> &'static str {
        "e19"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "fault model: adversary / Table 11"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(cfg: &Config, kind: AdversaryKind, budget: u64, seed: Seed) -> Option<(f64, bool)> {
    let mut plan = FaultPlan::none();
    if budget > 0 {
        plan = plan.with_adversary(AdversaryPlan {
            kind,
            budget,
            start: SimTime::from_secs(cfg.start),
            interval: cfg.interval,
        });
    }
    let outcome = Sim::builder()
        .topology(Complete::new(cfg.n as usize))
        .distribution(InitialDistribution::multiplicative_bias(2, cfg.eps))
        .gossip(GossipRule::TwoChoices)
        .faults(plan)
        .seed(seed)
        .build()
        .ok()?
        .run();
    let ok = outcome.converged() && outcome.winner == Some(Color::new(0));
    Some((outcome.time?.as_secs(), ok))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E19", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "async Two-Choices vs a budgeted adversary (one corruption per {} time \
             units from t = {}), n = {}, eps = {}",
            cfg.interval, cfg.start, cfg.n, cfg.eps
        ),
        &[
            "adversary",
            "budget/n",
            "time",
            "stderr",
            "success",
            "trials",
        ],
    );

    for kind in [AdversaryKind::Oblivious, AdversaryKind::Adaptive] {
        for &frac in &cfg.budget_fracs {
            let budget = (frac * cfg.n as f64).round() as u64;
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (frac * 1000.0) as u64 ^ ((kind as u64) << 40)),
                parallelism,
                move |_, seed| run_one(cfg, kind, budget, seed),
            );
            let valid: Vec<&(f64, bool)> = results.iter().flatten().collect();
            if valid.is_empty() {
                continue;
            }
            let ok: Vec<f64> = valid.iter().filter(|r| r.1).map(|r| r.0).collect();
            let time: OnlineStats = ok.iter().copied().collect();
            let success = valid.iter().filter(|r| r.1).count() as f64 / results.len().max(1) as f64;
            table.push_row(vec![
                kind.to_string(),
                format!("{frac}"),
                format!("{:.1}", time.mean()),
                format!("{:.1}", time.std_err()),
                format!("{success:.2}"),
                cfg.trials.to_string(),
            ]);
        }
    }
    table.push_note(
        "oblivious corruptions hit both colors proportionally and barely register; \
         adaptive ones drain c1 - c2 directly, so expect degradation once the \
         budget rivals the initial gap",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn small_budgets_do_not_stop_consensus() {
        let report = quick_report(&E19);
        let table = &report.tables[0];
        // Two kinds x two budgets.
        assert_eq!(table.len(), 4);
        let success = table.column_f64("success");
        // Budget 0 rows (both kinds) are adversary-free and must succeed.
        assert!(success[0] >= 0.75, "oblivious budget-0 {}", success[0]);
        assert!(success[2] >= 0.75, "adaptive budget-0 {}", success[2]);
        // A 10%-of-n oblivious budget is noise for eps = 0.5.
        assert!(success[1] >= 0.5, "oblivious budget-0.1 {}", success[1]);
    }
}
