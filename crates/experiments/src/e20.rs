//! **E20 / macro validation** — micro/macro cross-validation sweep.
//!
//! The macro engine (`rapid-macro`) claims to simulate the *same*
//! stochastic process as the per-node engines, three orders of magnitude
//! further up in `n`. This experiment is the evidence: for each `n` in
//! the sweep it runs matched micro and macro trial sets of asynchronous
//! Two-Choices and of the full rapid protocol, records the occupancy
//! trajectories at a grid of time checkpoints, and reports the
//! total-variation distance between the mean trajectories together with
//! the bootstrap-CI overlap verdict from `rapid_macro::crossval`.

use rapid_core::facade::MacroProtocol;
use rapid_core::prelude::*;
use rapid_macro::crossval::{cross_validate, CrossValConfig};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::Parallelism;
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Macro validation: micro vs macro occupancy trajectories agree";

/// E20's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    k: usize,
    eps: f64,
    rapid: bool,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            rapid: p.bool("rapid"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        // The micro engine must stay feasible at every size.
        ParamSpec::u64_list("ns", "population sizes", &[1 << 10, 1 << 14])
            .quick(vec![1 << 10])
            .at_least(4),
        ParamSpec::u64("k", "number of opinions", 2).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::bool("rapid", "also validate the rapid protocol", true),
        ParamSpec::u64("trials", "trials per engine", 8)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE20),
    ])
}

/// Registry entry for this experiment.
pub struct E20;

impl Experiment for E20 {
    fn id(&self) -> &'static str {
        "e20"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "macro engine: micro/macro agreement"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn biased_counts(n: u64, k: usize, eps: f64) -> Vec<u64> {
    let c = (n as f64 / (k as f64 + eps)).floor() as u64;
    let mut counts = vec![c; k];
    counts[0] = n - c * (k as u64 - 1);
    counts
}

/// Runs the experiment. The cross-validation harness is deliberately single-threaded (its trial
/// seeds are part of the comparison contract), so `parallelism` is unused.
fn run_on(cfg: &Config, _parallelism: Parallelism) -> Report {
    let mut report = Report::new("E20", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "micro vs macro mean occupancy at shared checkpoints, k = {}, eps = {}, {} trials/engine",
            cfg.k, cfg.eps, cfg.trials
        ),
        &[
            "protocol", "n", "t", "micro c1", "macro c1", "TV", "agree",
        ],
    );

    for &n in &cfg.ns {
        let mut protocols = vec![MacroProtocol::Gossip(GossipRule::TwoChoices)];
        if cfg.rapid {
            protocols.push(MacroProtocol::Rapid(Params::for_network_with_eps(
                n as usize, cfg.k, cfg.eps,
            )));
        }
        for protocol in protocols {
            let mut cv = CrossValConfig::new(n, biased_counts(n, cfg.k, cfg.eps), protocol);
            cv.trials = cfg.trials;
            cv.seed = cfg.seed ^ n;
            let result = cross_validate(&cv);
            for c in &result.checkpoints {
                table.push_row(vec![
                    protocol.name().to_string(),
                    n.to_string(),
                    format!("{:.1}", c.time),
                    format!("{:.4}", c.micro_mean[0]),
                    format!("{:.4}", c.macro_mean[0]),
                    format!("{:.4}", c.tv),
                    if c.agree { "1" } else { "0" }.to_string(),
                ]);
            }
        }
    }
    table.push_note(
        "agree = bootstrap CIs of the mean occupancy overlap for every color; \
         TV = total-variation distance between the mean occupancy vectors. \
         The macro engine simulates the same embedded chain, so both columns \
         should track within trial noise at every checkpoint",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn quick_cross_validation_agrees() {
        let report = quick_report(&E20);
        let table = &report.tables[0];
        assert!(!table.is_empty());
        let agree = table.column_f64("agree");
        let ok = agree.iter().filter(|&&a| a == 1.0).count();
        assert!(
            ok * 10 >= agree.len() * 9,
            "agreement below 90%: {ok}/{}",
            agree.len()
        );
        let tv = table.column_f64("TV");
        assert!(tv.iter().all(|&t| t < 0.1), "TV outlier: {tv:?}");
    }
}
