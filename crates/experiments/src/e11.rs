//! **E11 / Table 6** — the endgame (§3.2).
//!
//! Claim: once `c_1 ≥ (1−ε)·n`, plain asynchronous Two-Choices drives all
//! nodes to `C_1` before the first node finishes its `Θ(log n)`-tick
//! part-2 budget, w.h.p.
//!
//! Shape check: success ≈ 1 for every `(n, ε)` cell and the consensus
//! time scales like `ln n`.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Endgame: async Two-Choices finishes before the first node halts";

/// E11's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    eps: Vec<f64>,
    halt_ln_multiple: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            eps: p.f64_list("eps"),
            halt_ln_multiple: p.f64("halt"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64_list("ns", "population sizes", &[1 << 12, 1 << 14, 1 << 16])
            .quick(vec![1 << 10])
            .at_least(2),
        ParamSpec::f64_list(
            "eps",
            "minority fractions (endgame at c1=(1-eps)n)",
            &[0.05, 0.1, 0.2],
        )
        .quick(vec![0.1, 0.2])
        .at_least(0.0)
        .at_most(1.0),
        ParamSpec::f64("halt", "halt budget in multiples of ln n ticks", 8.0).above(0.0),
        ParamSpec::u64("trials", "trials per cell", 20)
            .quick(6)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE11),
    ])
}

/// Registry entry for this experiment.
pub struct E11;

impl Experiment for E11 {
    fn id(&self) -> &'static str {
        "e11"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§3.2 endgame / Table 6"
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
    let mut report = Report::new("E11", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Endgame from c1 = (1-eps)*n, halt budget {} ln n ticks",
            cfg.halt_ln_multiple
        ),
        &[
            "n",
            "eps",
            "time",
            "stderr",
            "time/ln(n)",
            "success",
            "trials",
        ],
    );

    for &n in &cfg.ns {
        for &eps in &cfg.eps {
            let minority = ((eps * n as f64).round() as u64).max(1);
            let counts = [n - minority, minority];
            let halt = (cfg.halt_ln_multiple * (n as f64).ln()).ceil() as u64;

            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 3) ^ (eps * 100.0) as u64),
                parallelism,
                move |_, seed| {
                    let outcome = Sim::builder()
                        .topology(Complete::new(n as usize))
                        .counts(&counts)
                        .gossip(GossipRule::TwoChoices)
                        .halt_after(halt)
                        .seed(seed)
                        .stop(StopCondition::StepBudget(4 * n * halt))
                        .build()
                        // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                        .expect("validated")
                        .run();
                    if outcome.converged() {
                        let ok = outcome.winner == Some(Color::new(0))
                            && outcome.before_first_halt == Some(true);
                        // lint: allow(panic-hygiene): asynchronous engines always carry virtual time
                        (outcome.time.expect("async engine").as_secs(), ok, true)
                    } else {
                        (0.0, false, false)
                    }
                },
            );

            let time: OnlineStats = results.iter().filter(|r| r.2).map(|r| r.0).collect();
            let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
            table.push_row(vec![
                n.to_string(),
                format!("{eps}"),
                format!("{:.1}", time.mean()),
                format!("{:.2}", time.std_err()),
                format!("{:.2}", time.mean() / (n as f64).ln()),
                format!("{success:.2}"),
                cfg.trials.to_string(),
            ]);
        }
    }
    table.push_note("success = plurality unanimity strictly before the first node froze");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn endgame_succeeds_whp_from_dominant_configurations() {
        let report = quick_report(&E11);
        let table = &report.tables[0];
        let success = table.column_f64("success");
        assert!(success.len() >= 2);
        assert!(
            success.iter().all(|&s| s >= 0.8),
            "endgame success rates {success:?}"
        );
    }
}
