//! **E09 / Table 5** — Poisson-clock concentration and the `Ω(log n)`
//! barrier.
//!
//! Claims (§1.1, §3): in the sequential model, (a) some node remains
//! unselected for `Ω(log n)` time w.h.p. — hence no asynchronous protocol
//! can converge in `o(log n)` time — and (b) after `T` time units, tick
//! counts concentrate within `O(√(T log n))` of `T`, which is what makes
//! weak synchronicity achievable at all.
//!
//! Shape check: `coverage/ln n` and `max_dev/√(2T ln n)` are both roughly
//! constant as `n` spans three orders of magnitude.

use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::predictions;
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Tick concentration and the Omega(log n) asynchronous barrier";

/// E09's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    horizon_ln_multiple: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            horizon_ln_multiple: p.f64("horizon"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64_list(
            "ns",
            "population sizes",
            &[1 << 10, 1 << 14, 1 << 18, 1 << 20],
        )
        .quick(vec![1 << 8, 1 << 12])
        .at_least(1),
        ParamSpec::f64("horizon", "horizon in multiples of ln n", 4.0).at_least(0.0),
        ParamSpec::u64("trials", "trials per n", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE09),
    ])
}

/// Registry entry for this experiment.
pub struct E09;

impl Experiment for E09 {
    fn id(&self) -> &'static str {
        "e09"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§1.1/§3 tick concentration / Table 5"
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
    let mut report = Report::new("E09", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Sequential model, horizon T = {} ln n",
            cfg.horizon_ln_multiple
        ),
        &[
            "n",
            "coverage",
            "coverage/ln(n)",
            "max_dev",
            "max_dev/scale",
            "trials",
        ],
    );

    for &n in &cfg.ns {
        let t_end = cfg.horizon_ln_multiple * (n as f64).ln();

        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ n),
            parallelism,
            move |_, seed| {
                let mut sched = SequentialScheduler::with_mode(n as usize, seed, TimeMode::Sampled);
                let mut stats = ActivationStats::new(n as usize);
                let horizon = SimTime::from_secs(t_end);
                // Drive to the horizon, recording every activation.
                sched.run_until(horizon, |a| stats.observe(a));
                let coverage = stats
                    .last_first_activation()
                    .map(|t| t.as_secs())
                    .unwrap_or(t_end); // some node never ticked: report the horizon
                (coverage, stats.max_deviation())
            },
        );

        let coverage: OnlineStats = results.iter().map(|r| r.0).collect();
        let max_dev: OnlineStats = results.iter().map(|r| r.1).collect();
        let ln_n = (n as f64).ln();
        let dev_scale = predictions::tick_deviation_scale(n, t_end);
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", coverage.mean()),
            format!("{:.3}", coverage.mean() / ln_n),
            format!("{:.1}", max_dev.mean()),
            format!("{:.3}", max_dev.mean() / dev_scale),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note("coverage = time until every node ticked once (coupon collector ~ ln n)");
    table.push_note("scale = sqrt(2 T ln n), the Gaussian-tail prediction for max deviation");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn normalized_columns_are_stable_across_n() {
        let report = quick_report(&E09);
        let table = &report.tables[0];
        let cov = table.column_f64("coverage/ln(n)");
        let dev = table.column_f64("max_dev/scale");
        assert!(cov.len() >= 2);
        // Coverage time is Θ(ln n): the ratio stays within a 2.5x band.
        let band = cov.iter().cloned().fold(f64::MIN, f64::max)
            / cov.iter().cloned().fold(f64::MAX, f64::min);
        assert!(band < 2.5, "coverage band {band}");
        // Deviation stays at the √(2T ln n) scale (well below 2x).
        assert!(dev.iter().all(|&d| d > 0.2 && d < 2.0), "dev {dev:?}");
    }
}
