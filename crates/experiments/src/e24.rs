//! **E24 / UDP loopback deployment** — plurality consensus over real
//! datagrams.
//!
//! The strongest form of "the protocol is implementable as stated": boot
//! `n` node machines over real non-blocking `UdpSocket`s on loopback —
//! worker threads, bounded drop-on-full outboxes, datagrams that can
//! genuinely be lost — and watch the population converge and detect its
//! own convergence through the gossiped termination beacon. Message loss
//! here is *real* (kernel buffers, not a sampled fault), which is
//! exactly the asynchrony the paper's protocol is designed to shrug off.
//!
//! Sandboxed runners may forbid socket creation; the experiment then
//! reports the skip instead of failing, and the module test that binds
//! sockets is `#[ignore]`-gated.

use rapid_net::cli::{execute, RunOpts, TransportKind};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{Parallelism, Workers};
use crate::table::Table;

/// The protocols every run deploys.
const PROTOCOLS: [&str; 2] = ["two-choices", "rapid"];

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Real deployment: UDP loopback cluster converges end to end";

/// E24's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    trials: u64,
    workers: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            trials: p.u64("trials"),
            workers: p.u64("workers"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 256)
            .quick(128)
            .at_least(4),
        ParamSpec::u64("trials", "trials per protocol", 4)
            .quick(2)
            .at_least(1),
        ParamSpec::u64("workers", "udp worker threads (0 = auto)", 0),
        ParamSpec::u64("seed", "master seed", 0xE24),
    ])
}

/// Registry entry for this experiment.
pub struct E24;

impl Experiment for E24 {
    fn id(&self) -> &'static str {
        "e24"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "rapid-net: UDP loopback convergence"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, _parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params))
    }
}

/// Runs the experiment.
fn run_on(cfg: &Config) -> Report {
    let mut report = Report::new("E24", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "UDP loopback deployment, n = {}, {} trials",
            cfg.n, cfg.trials
        ),
        &[
            "protocol",
            "trial",
            "converged",
            "steps",
            "dropped frames",
            "wall ms",
        ],
    );

    let mut skipped = false;
    for protocol in PROTOCOLS {
        for trial in 0..cfg.trials {
            let opts = RunOpts {
                n: cfg.n as usize,
                protocol: protocol.to_string(),
                transport: TransportKind::Udp,
                seed: cfg.seed ^ (trial + 1),
                parallelism: Parallelism {
                    trial_workers: Workers::fixed(cfg.workers as usize),
                    ..Parallelism::default()
                },
                ..RunOpts::default()
            };
            match execute(&opts) {
                Ok(run) => table.push_row(vec![
                    protocol.to_string(),
                    trial.to_string(),
                    run.outcome.converged().to_string(),
                    run.outcome.steps.to_string(),
                    run.dropped_frames.to_string(),
                    format!("{:.1}", run.wall_ms),
                ]),
                Err(e) => {
                    // Sockets unavailable (sandboxed runner): report the
                    // skip; convergence is still covered by e23's channel
                    // transport and by the ignored loopback test.
                    skipped = true;
                    table.push_row(vec![
                        protocol.to_string(),
                        trial.to_string(),
                        format!("skipped ({e})"),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }
    }
    table.push_note(
        "every trial binds real non-blocking UDP sockets on 127.0.0.1 and runs \
         one thread per core; frames the kernel or a full outbox drops are \
         genuinely lost, and the run ends when the gossiped termination beacon \
         has reached every node",
    );
    if skipped {
        table.push_note("some trials were skipped: this runner forbids socket creation");
    }
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn skipped_rows_render_when_sockets_are_forbidden() {
        // Runs everywhere: on hosts that allow sockets every row
        // converges; on sandboxed runners every row must still render as
        // a `skipped (...)` row rather than aborting the report. The UDP
        // obs gauges ride the same path and must not change this.
        let report = quick_report(&E24);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2 * PROTOCOLS.len(), "two quick trials each");
        for c in table.column("converged") {
            assert!(
                c == "true" || c == "false" || c.starts_with("skipped ("),
                "unexpected converged cell {c:?}"
            );
        }
    }

    #[test]
    #[ignore = "binds many loopback UDP sockets; run explicitly on hosts that allow it"]
    fn loopback_deployment_converges() {
        let report = quick_report(&E24);
        let table = &report.tables[0];
        assert_eq!(table.len(), 4);
        for c in table.column("converged") {
            assert_eq!(c, "true");
        }
    }
}
