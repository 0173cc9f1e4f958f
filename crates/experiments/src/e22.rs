//! **E22 / bias threshold at scale** — the `√(n log n)` phase transition.
//!
//! Theorem 1.1's lower-bound companion (experiment E3) shows that at an
//! additive gap of order `√n`, Two-Choices picks the runner-up with
//! constant probability — but at micro-feasible `n` the constants blur
//! the transition. The macro engine sharpens it: at `n = 10⁶–10⁸`, sweep
//! the initial gap `c₁ − c₂ = z·√(n ln n)` and measure the plurality's
//! win probability. The transition from coin-flip (`z = 0`) to
//! near-certainty should tighten around `z ≈ 1` as `n` grows — a
//! prediction about the large-`n` limit that only a population-level
//! engine can test, and whose tie-breaking fidelity rests on the exact
//! single-event fallback.

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_macro::MacroSim;
use rapid_sim::rng::Seed;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Phase transition: initial bias vs the sqrt(n log n) threshold at large n";

/// E22's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    zs: Vec<f64>,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            zs: p.f64_list("zs"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64_list("ns", "population sizes", &[1_000_000, 100_000_000])
            .quick(vec![1_000_000])
            .at_least(2),
        ParamSpec::f64_list(
            "zs",
            "gap multipliers of sqrt(n ln n)",
            &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
        )
        .quick(vec![0.0, 1.0, 4.0]),
        ParamSpec::u64("trials", "trials per (n, z)", 24)
            .quick(8)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE22),
    ])
}

/// Registry entry for this experiment.
pub struct E22;

impl Experiment for E22 {
    fn id(&self) -> &'static str {
        "e22"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "macro engine: bias threshold at scale"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(n: u64, z: f64, seed: Seed) -> Option<bool> {
    let gap = (z * (n as f64 * (n as f64).ln()).sqrt()).round() as u64;
    let c0 = n / 2 + gap / 2;
    let counts = [c0, n - c0];
    let mut sim = MacroSim::from_builder(
        Sim::builder()
            .topology(Complete::new(n as usize))
            .counts(&counts)
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::Macro)
            .seed(seed),
    )
    .ok()?;
    let outcome = sim.run();
    Some(outcome.converged() && outcome.winner == Some(Color::new(0)))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E22", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "async Two-Choices (macro engine), gap = z * sqrt(n ln n), {} trials",
            cfg.trials
        ),
        &["n", "z", "gap", "P(C1 wins)", "trials"],
    );

    for &n in &cfg.ns {
        for &z in &cfg.zs {
            let gap = (z * (n as f64 * (n as f64).ln()).sqrt()).round() as u64;
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ n ^ (z * 4096.0) as u64),
                parallelism,
                move |_, seed| run_one(n, z, seed),
            );
            let wins = results.iter().flatten().filter(|&&w| w).count();
            table.push_row(vec![
                n.to_string(),
                format!("{z}"),
                gap.to_string(),
                format!("{:.2}", wins as f64 / results.len().max(1) as f64),
                cfg.trials.to_string(),
            ]);
        }
    }
    table.push_note(
        "at z = 0 the initial tie makes the winner a coin flip; beyond the \
         sqrt(n ln n) scale the initial drift dominates the diffusive noise \
         and the plurality wins with probability -> 1. Tie-breaking fidelity \
         comes from the exact single-event fallback of the macro engine",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn transition_brackets_the_threshold() {
        let report = quick_report(&E22);
        let table = &report.tables[0];
        assert_eq!(table.len(), 3);
        let p = table.column_f64("P(C1 wins)");
        // z = 0: a fair coin (loose bounds at 8 trials); z = 4: certain.
        assert!(p[0] <= 0.95, "tie must not be deterministic: {}", p[0]);
        assert!(p[2] >= 0.9, "huge bias must win: {}", p[2]);
        assert!(p[2] >= p[0], "monotone in z: {p:?}");
    }
}
