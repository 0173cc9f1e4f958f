//! **E18 / Table 10 (extension)** — convergence under churn.
//!
//! Nodes crash and rejoin. A crashed node neither acts on its clock ticks
//! nor answers pulls, but it keeps its opinion and still counts toward
//! unanimity — so consensus must wait for it to rejoin and be converted.
//!
//! The schedule here crashes a fraction `f` of the population (spread
//! evenly across the initial color blocks, so both opinions lose support)
//! during a window in the early protocol, then rejoins all of them
//! mid-run with their stale opinions intact. Asynchronous Two-Choices
//! runs on top: the surviving majority keeps amplifying while the crashed
//! nodes are away, and the rejoined stale minority is converted by the
//! same drift — so success should stay high even for large `f`, at a
//! time cost that grows with the window.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::{ChurnEvent, FaultPlan};
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Fault extension: convergence of async Two-Choices under churn";

/// E18's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    eps: f64,
    crash_fracs: Vec<f64>,
    down_at: f64,
    up_at: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            eps: p.f64("eps"),
            crash_fracs: p.f64_list("fracs"),
            down_at: p.f64("down_at"),
            up_at: p.f64("up_at"),
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
            "fracs",
            "crashed fractions of the population",
            &[0.0, 0.1, 0.25, 0.5],
        )
        .quick(vec![0.0, 0.25])
        .at_least(0.0)
        .at_most(1.0),
        ParamSpec::f64("down_at", "crash time", 0.5).at_least(0.0),
        ParamSpec::f64("up_at", "rejoin time", 4.0).at_least(0.0),
        ParamSpec::u64("trials", "trials per fraction", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE18),
    ])
}

/// Registry entry for this experiment.
pub struct E18;

impl Experiment for E18 {
    fn id(&self) -> &'static str {
        "e18"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "fault model: churn / Table 10"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// The churn schedule: `m = frac·n` nodes, spread evenly over `0..n` (so
/// both initial color blocks lose support), all down during
/// `[down_at, up_at)`.
fn churn_schedule(n: u64, frac: f64, down_at: f64, up_at: f64) -> Vec<ChurnEvent> {
    let m = (frac * n as f64).round() as u64;
    (0..m)
        .map(|i| {
            ChurnEvent::window(
                NodeId::new((i * n / m.max(1)) as usize),
                SimTime::from_secs(down_at),
                SimTime::from_secs(up_at),
            )
        })
        .collect()
}

fn run_one(cfg: &Config, frac: f64, seed: Seed) -> Option<(f64, bool)> {
    let plan = FaultPlan::none().with_churn(churn_schedule(cfg.n, frac, cfg.down_at, cfg.up_at));
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
    let mut report = Report::new("E18", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "async Two-Choices with frac*n nodes down during [{}, {}), n = {}, eps = {}",
            cfg.down_at, cfg.up_at, cfg.n, cfg.eps
        ),
        &["crashed frac", "time", "stderr", "success", "trials"],
    );

    for &frac in &cfg.crash_fracs {
        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (frac * 1000.0) as u64),
            parallelism,
            move |_, seed| run_one(cfg, frac, seed),
        );
        let valid: Vec<&(f64, bool)> = results.iter().flatten().collect();
        if valid.is_empty() {
            continue;
        }
        let ok: Vec<f64> = valid.iter().filter(|r| r.1).map(|r| r.0).collect();
        let time: OnlineStats = ok.iter().copied().collect();
        let success = valid.iter().filter(|r| r.1).count() as f64 / results.len().max(1) as f64;
        table.push_row(vec![
            format!("{frac}"),
            format!("{:.1}", time.mean()),
            format!("{:.1}", time.std_err()),
            format!("{success:.2}"),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note(
        "crashed nodes freeze their opinion and still count toward unanimity; \
         they rejoin stale and must be converted, so time grows with the churn \
         window while the plurality's drift keeps success high",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn churn_schedule_spreads_over_the_population() {
        let events = churn_schedule(100, 0.25, 0.5, 4.0);
        assert_eq!(events.len(), 25);
        let max = events.iter().map(|e| e.node.index()).max().expect("events");
        assert!(max >= 90, "stride sampling must reach the last color block");
        assert!(churn_schedule(100, 0.0, 0.5, 4.0).is_empty());
    }

    #[test]
    fn heavy_churn_still_converges() {
        let report = quick_report(&E18);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2);
        let success = table.column_f64("success");
        assert!(success[0] >= 0.75, "churn-free success {}", success[0]);
        assert!(success[1] >= 0.5, "25%-churn success {}", success[1]);
    }
}
