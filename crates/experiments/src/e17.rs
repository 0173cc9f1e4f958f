//! **E17 / Table 9 (extension)** — robustness to message loss.
//!
//! The paper's protocol assumes every pull is answered. Real gossip
//! networks drop messages; the fault layer models this with a per-message
//! loss probability `p`: each pulled response is lost independently with
//! probability `p`, and an interaction aborts unless every response
//! arrives (the node keeps its color for that tick).
//!
//! This experiment sweeps `p` and runs the unmodified rapid protocol on
//! top. A lost Two-Choices sample merely wastes a slot, and the schedule
//! has slack, so moderate loss should cost a constant factor in time while
//! success stays high — until loss starves Bit-Propagation faster than a
//! phase can spread the bit, and the success probability collapses.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::FaultPlan;
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Fault extension: robustness of the rapid protocol to message loss";

/// E17's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    k: usize,
    eps: f64,
    losses: Vec<f64>,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            losses: p.f64_list("losses"),
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
            .at_least(4),
        ParamSpec::u64("k", "number of opinions", 4).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::f64_list(
            "losses",
            "per-message loss probabilities",
            &[0.0, 0.05, 0.1, 0.2, 0.4],
        )
        .quick(vec![0.0, 0.2]),
        ParamSpec::u64("trials", "trials per loss level", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE17),
    ])
}

/// Registry entry for this experiment.
pub struct E17;

impl Experiment for E17 {
    fn id(&self) -> &'static str {
        "e17"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "fault model: message loss / Table 9"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(n: u64, k: usize, eps: f64, loss: f64, seed: Seed) -> Option<(f64, bool)> {
    let params = Params::for_network_with_eps(n as usize, k, eps);
    let outcome = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .faults(FaultPlan::none().with_loss(loss))
        .seed(seed)
        .build()
        .ok()?
        .run();
    let ok = outcome.converged()
        && outcome.winner == Some(Color::new(0))
        && outcome.before_first_halt == Some(true);
    Some((outcome.time?.as_secs(), ok))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E17", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "RapidSim with per-message loss p, n = {}, k = {}, eps = {}",
            cfg.n, cfg.k, cfg.eps
        ),
        &[
            "loss p",
            "time",
            "stderr",
            "time/ln(n)",
            "success",
            "trials",
        ],
    );

    for &loss in &cfg.losses {
        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (loss * 1000.0) as u64),
            parallelism,
            move |_, seed| run_one(cfg.n, cfg.k, cfg.eps, loss, seed),
        );
        let valid: Vec<&(f64, bool)> = results.iter().flatten().collect();
        if valid.is_empty() {
            continue;
        }
        let ok: Vec<f64> = valid.iter().filter(|r| r.1).map(|r| r.0).collect();
        let time: OnlineStats = ok.iter().copied().collect();
        let success = valid.iter().filter(|r| r.1).count() as f64 / results.len().max(1) as f64;
        table.push_row(vec![
            format!("{loss}"),
            format!("{:.1}", time.mean()),
            format!("{:.1}", time.std_err()),
            format!("{:.2}", time.mean() / (cfg.n as f64).ln()),
            format!("{success:.2}"),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note(
        "an interaction aborts unless every pulled response arrives; losses waste \
         schedule slots, so expect a graceful constant-factor slowdown before \
         Bit-Propagation starves and success collapses",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn moderate_loss_is_tolerated() {
        let report = quick_report(&E17);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2);
        let success = table.column_f64("success");
        assert!(success[0] >= 0.75, "lossless success {}", success[0]);
        assert!(success[1] >= 0.5, "loss-0.2 success {}", success[1]);
    }
}
