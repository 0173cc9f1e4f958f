//! **E12 / Table 7** — response delays (§4 extension).
//!
//! Claim (discussion): the model extension in which a contacted node's
//! response arrives after an `Exponential(mu)` delay (μ constant,
//! independent of `n`) should preserve the `O(log n)` run-time shape.
//!
//! Implementation: the builder's `.jitter(rate)` wraps the clock in a
//! [`LatencyScheduler`] with [`LatencyModel::Exponential`], which postpones
//! each tick's *effect* by an exponential response latency; the protocol
//! itself is unchanged.
//!
//! Shape check: `time/ln n` stays within a constant band across both the
//! delay rates and the `n` sweep, degrading smoothly as the mean delay
//! grows.

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
const TITLE: &str = "Discussion extension: exponential response delays keep the O(log n) shape";

/// E12's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    k: usize,
    eps: f64,
    delay_rates: Vec<f64>,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            delay_rates: p.f64_list("rates"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64_list("ns", "population sizes", &[1 << 12, 1 << 14])
            .quick(vec![1 << 10])
            .at_least(4),
        ParamSpec::u64("k", "number of opinions", 4).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.3)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::f64_list(
            "rates",
            "delay rates mu (0 = instant responses)",
            &[0.0, 4.0, 2.0, 1.0],
        )
        .quick(vec![0.0, 2.0]),
        ParamSpec::u64("trials", "trials per cell", 8)
            .quick(3)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE12),
    ])
}

/// Registry entry for this experiment.
pub struct E12;

impl Experiment for E12 {
    fn id(&self) -> &'static str {
        "e12"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§4 response delays / Table 7"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(n: u64, k: usize, eps: f64, rate: f64, seed: Seed) -> Option<(f64, bool)> {
    let params = Params::for_network_with_eps(n as usize, k, eps);
    // No explicit stop: the facade's fallback budget for rapid engines is
    // the schedule-derived default.
    let mut builder = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .seed(seed);
    if rate > 0.0 {
        builder = builder
            .clock(Clock::Sequential(TimeMode::Sampled))
            .jitter(rate);
    }
    let outcome = builder.build().ok()?.run();
    let out = outcome.as_rapid()?;
    Some((
        out.time.as_secs(),
        out.winner == Color::new(0) && out.before_first_halt,
    ))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E12", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "RapidSim with Exp(mu) response delays, k = {}, eps = {}",
            cfg.k, cfg.eps
        ),
        &[
            "n",
            "delay",
            "mean delay",
            "time",
            "stderr",
            "time/ln(n)",
            "success",
        ],
    );

    for &n in &cfg.ns {
        for &rate in &cfg.delay_rates {
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 5) ^ (rate * 8.0) as u64),
                parallelism,
                move |_, seed| run_one(n, cfg.k, cfg.eps, rate, seed),
            );
            let valid: Vec<(f64, bool)> = results.into_iter().flatten().collect();
            if valid.is_empty() {
                continue;
            }
            let time: OnlineStats = valid.iter().map(|r| r.0).collect();
            let success = valid.iter().filter(|r| r.1).count() as f64 / valid.len() as f64;
            let delay_label = if rate > 0.0 {
                LatencyModel::Exponential { rate }.to_string()
            } else {
                LatencyModel::None.to_string()
            };
            let mean_delay = if rate > 0.0 { 1.0 / rate } else { 0.0 };
            table.push_row(vec![
                n.to_string(),
                delay_label,
                format!("{mean_delay:.2}"),
                format!("{:.1}", time.mean()),
                format!("{:.1}", time.std_err()),
                format!("{:.2}", time.mean() / (n as f64).ln()),
                format!("{success:.2}"),
            ]);
        }
    }
    table.push_note("delays postpone each tick's effect; the O(log n) scaling survives");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn delays_degrade_gracefully() {
        let report = quick_report(&E12);
        let table = &report.tables[0];
        assert!(table.len() >= 2);
        let success = table.column_f64("success");
        assert!(success.iter().all(|&s| s >= 0.66), "success {success:?}");
        let t = table.column_f64("time");
        // Exp(2) delays (mean 0.5) should cost well under 3x.
        assert!(t[1] / t[0] < 3.0, "delay cost too high: {t:?}");
    }
}
