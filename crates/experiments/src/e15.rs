//! **E15 / Table 8 (extension)** — heterogeneous clock rates.
//!
//! The paper's discussion (§4): *"We showed our main result assuming
//! independent Poisson clocks with parameter 1. However, our techniques
//! should carry over to a much more general setting as well."*
//!
//! This extension experiment stresses that conjecture: node clock rates
//! are drawn uniformly from `[1−δ, 1+δ]` (so a δ = 0.5 network mixes nodes
//! ticking at up to 3× each other's speed) and the unmodified asynchronous
//! protocol runs on top. The Sync Gadget must now absorb *persistent* rate
//! skew, not just Poisson noise.
//!
//! Shape expectation: success stays high for moderate skew, then collapses
//! sharply once persistent rate differences spread working times beyond
//! the sub-phase structure within a single phase — fast nodes outrun the
//! schedule and slow nodes miss critical slots faster than the per-phase
//! median jump can correct.

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
const TITLE: &str = "Extension (discussion §4): robustness to heterogeneous clock rates";

/// E15's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    k: usize,
    eps: f64,
    skews: Vec<f64>,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            skews: p.f64_list("skews"),
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
            "skews",
            "clock skews d (rates uniform in [1-d, 1+d])",
            &[0.0, 0.1, 0.2, 0.4, 0.6],
        )
        .quick(vec![0.0, 0.2]),
        ParamSpec::u64("trials", "trials per skew", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE15),
    ])
}

/// Registry entry for this experiment.
pub struct E15;

impl Experiment for E15 {
    fn id(&self) -> &'static str {
        "e15"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§4 clock skew (extension) / Table 8"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(n: u64, k: usize, eps: f64, skew: f64, seed: Seed) -> Option<(f64, bool, f64)> {
    let params = Params::for_network_with_eps(n as usize, k, eps);
    let mut trace = SpreadTrace::new(2 * params.delta as u64);
    let outcome = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .clock(Clock::UniformSkew { skew })
        .seed(seed)
        .build()
        .ok()?
        .run_observed(&mut trace);
    let out = outcome.as_rapid()?;
    // The working-time spread mid-run: the first snapshot (one per time
    // unit) whose median has passed half of part 1.
    let spread = trace
        .snapshots
        .iter()
        .find(|s| s.median >= params.part1_len() / 2)
        .map_or(f64::NAN, |s| s.poorly_synced);
    let ok = out.winner == Color::new(0) && out.before_first_halt;
    Some((out.time.as_secs(), ok, spread))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E15", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "RapidSim with clock rates uniform in [1-d, 1+d], n = {}, k = {}, eps = {}",
            cfg.n, cfg.k, cfg.eps
        ),
        &[
            "skew d",
            "time",
            "stderr",
            "success",
            "mid-run poorly-synced",
            "trials",
        ],
    );

    for &skew in &cfg.skews {
        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (skew * 100.0) as u64),
            parallelism,
            move |_, seed| run_one(cfg.n, cfg.k, cfg.eps, skew, seed),
        );
        let valid: Vec<&(f64, bool, f64)> = results.iter().flatten().collect();
        let time: OnlineStats = valid.iter().map(|r| r.0).collect();
        let success = valid.iter().filter(|r| r.1).count() as f64 / results.len().max(1) as f64;
        let spread: OnlineStats = valid.iter().map(|r| r.2).filter(|s| !s.is_nan()).collect();
        table.push_row(vec![
            format!("{skew}"),
            format!("{:.1}", time.mean()),
            format!("{:.1}", time.std_err()),
            format!("{success:.2}"),
            format!("{:.4}", spread.mean()),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note(
        "rates are fixed per node for the whole run: the gadget must absorb persistent \
         skew, not just Poisson noise — expect a sharp threshold once the per-phase \
         spread outgrows the sub-phase structure",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn moderate_skew_is_tolerated() {
        let report = quick_report(&E15);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2);
        let success = table.column_f64("success");
        // δ = 0 is the baseline; δ = 0.2 must still mostly succeed.
        assert!(success[0] >= 0.75, "baseline success {}", success[0]);
        assert!(success[1] >= 0.5, "skew-0.2 success {}", success[1]);
    }
}
