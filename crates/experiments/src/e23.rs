//! **E23 / deployment vs micro engine** — the simulator-as-oracle
//! agreement check.
//!
//! The `rapid-net` runtime runs the protocols for real: per-node state
//! machines, serialized frames, a transport. This experiment is the
//! standing evidence that the implementation and the micro simulation
//! are the *same process*: matched trial sets on the deterministic
//! channel transport must agree with micro trials on the winner, and
//! the activation count at unanimity must land inside the micro
//! distribution (bootstrap-CI overlap) — for the gossip rules and for
//! the full rapid protocol.

use rapid_core::facade::MacroProtocol;
use rapid_core::prelude::*;
use rapid_net::oracle::{validate_against_micro, OracleConfig};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::Parallelism;
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Simulator as oracle: channel deployment agrees with the micro engine";

/// E23's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    trials: u64,
    resamples: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            trials: p.u64("trials"),
            resamples: p.u64("resamples"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 1 << 10)
            .quick(256)
            .at_least(4),
        ParamSpec::u64("trials", "trials per engine per protocol", 8).at_least(1),
        ParamSpec::u64("resamples", "bootstrap resamples per CI", 500).at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE23),
    ])
}

/// Registry entry for this experiment.
pub struct E23;

impl Experiment for E23 {
    fn id(&self) -> &'static str {
        "e23"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "rapid-net: deployment matches micro"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, _parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params))
    }
}

/// The protocol rows the oracle compares.
fn protocols(n: u64) -> Vec<(&'static str, MacroProtocol)> {
    vec![
        ("two-choices", MacroProtocol::Gossip(GossipRule::TwoChoices)),
        (
            "3-majority",
            MacroProtocol::Gossip(GossipRule::ThreeMajority),
        ),
        (
            "rapid",
            MacroProtocol::Rapid(Params::for_network_with_eps(n as usize, 2, 0.5)),
        ),
    ]
}

/// Runs the experiment.
fn run_on(cfg: &Config) -> Report {
    let mut report = Report::new("E23", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "channel deployment vs micro engine, n = {}, 60/40 split, {} trials per engine",
            cfg.n, cfg.trials
        ),
        &[
            "protocol",
            "winner agreement",
            "micro steps",
            "net steps",
            "CIs overlap",
        ],
    );

    let c0 = cfg.n * 3 / 5;
    for (name, protocol) in protocols(cfg.n) {
        let mut oracle = OracleConfig::new(cfg.n as usize, vec![c0, cfg.n - c0], protocol);
        oracle.trials = cfg.trials;
        oracle.seed = cfg.seed;
        oracle.resamples = cfg.resamples as usize;
        let r = validate_against_micro(&oracle);
        table.push_row(vec![
            name.to_string(),
            format!("{:.2}", r.winner_agreement),
            format!(
                "{:.0} [{:.0}, {:.0}]",
                r.micro_mean_steps, r.micro_ci.0, r.micro_ci.1
            ),
            format!(
                "{:.0} [{:.0}, {:.0}]",
                r.net_mean_steps, r.net_ci.0, r.net_ci.1
            ),
            if r.steps_agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table.push_note(
        "every row runs real state machines exchanging serialized frames over \
         the deterministic channel transport; agreement on winner and on the \
         activation count at unanimity is the oracle contract that pins the \
         implementation to the simulated process",
    );
    table.push_note(
        "the voter rule is deliberately absent: it converges to each color \
         with probability equal to its initial share, so two independent \
         trial sets agreeing on the winner is not part of its contract",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn quick_preset_agrees_on_every_protocol() {
        let report = quick_report(&E23);
        let table = &report.tables[0];
        assert_eq!(table.len(), 3);
        for a in table.column_f64("winner agreement") {
            assert!(a >= 0.75, "winner agreement too low: {a}");
        }
        for row in table.column("CIs overlap") {
            assert_eq!(row, "yes");
        }
    }
}
