//! **E06 / Table 4** — Theorem 1.3: the asynchronous protocol runs in
//! `Θ(log n)` time.
//!
//! Claim: with `c_1 ≥ (1+ε)·c_i` and `k = O(exp(log n/log log n))`, the
//! full asynchronous protocol reaches plurality consensus within
//! `Θ(log n)` time w.h.p. — and the paper's success event holds: all nodes
//! agree *before the first node halts*.
//!
//! Shape check: `time/ln n` is roughly constant while `n` spans two orders
//! of magnitude, and success ≈ 1.

use std::sync::Arc;

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_obs::Obs;
use rapid_sim::prelude::*;
use rapid_stats::{fit_line, OnlineStats};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Theorem 1.3: asynchronous consensus in Theta(log n) time";

/// E06's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    k: usize,
    eps: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    // Theorem 1.3 is asymptotic: the multiplicative gap ε·n/k must beat
    // the per-phase sampling noise, which needs k/√n ≪ ε. With k = 8
    // and ε = 0.3 that holds from n = 2^12 upward.
    ParamSchema::new(vec![
        ParamSpec::u64_list(
            "ns",
            "population sizes",
            &[1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16],
        )
        .quick(vec![1 << 12, 1 << 13])
        .at_least(4),
        ParamSpec::u64("k", "number of opinions", 8).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead of the plurality", 0.3)
            .quick(0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "trials per n", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE06),
    ])
}

/// Registry entry for this experiment.
pub struct E06;

impl Experiment for E06 {
    fn id(&self) -> &'static str {
        "e06"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.3 / Table 4"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
    fn run_traced(
        &self,
        params: &ParamMap,
        _parallelism: Parallelism,
        obs: &Arc<Obs>,
    ) -> Option<Report> {
        Some(run_traced_on(&Config::from_params(params), obs))
    }
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E06", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "RapidSim on K_n, k = {}, multiplicative bias eps = {}",
            cfg.k, cfg.eps
        ),
        &[
            "n",
            "time",
            "stderr",
            "time/ln(n)",
            "steps/n",
            "success",
            "trials",
        ],
    );

    let mut ln_ns = Vec::new();
    let mut times = Vec::new();
    for &n in &cfg.ns {
        let counts = match InitialDistribution::multiplicative_bias(cfg.k, cfg.eps).counts(n) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let params = Params::for_network_with_eps(n as usize, cfg.k, cfg.eps);

        let results = run_trials_on(cfg.trials, Seed::new(cfg.seed ^ (n << 4)), parallelism, {
            let counts = counts.clone();
            move |_, seed| {
                let outcome = Sim::builder()
                    .topology(Complete::new(n as usize))
                    .counts(&counts)
                    .rapid(params)
                    .seed(seed)
                    .build()
                    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                    .expect("validated")
                    .run();
                match outcome.as_rapid() {
                    Some(out) => (
                        out.time.as_secs(),
                        out.steps,
                        out.winner == Color::new(0) && out.before_first_halt,
                        true,
                    ),
                    None => (0.0, 0, false, false),
                }
            }
        });

        let time: OnlineStats = results.iter().filter(|r| r.3).map(|r| r.0).collect();
        let steps: OnlineStats = results.iter().filter(|r| r.3).map(|r| r.1 as f64).collect();
        let success = results.iter().filter(|r| r.2).count() as f64 / results.len() as f64;
        let ln_n = (n as f64).ln();
        if !time.is_empty() {
            ln_ns.push(ln_n);
            times.push(time.mean());
        }
        table.push_row(vec![
            n.to_string(),
            format!("{:.1}", time.mean()),
            format!("{:.1}", time.std_err()),
            format!("{:.2}", time.mean() / ln_n),
            format!("{:.1}", steps.mean() / n as f64),
            format!("{success:.2}"),
            cfg.trials.to_string(),
        ]);
    }

    if ln_ns.len() >= 2 {
        let fit = fit_line(&ln_ns, &times);
        table.push_note(format!(
            "linear fit: time = {:.1}*ln(n) + {:.1} (R^2 = {:.3}) — Theta(log n) shape",
            fit.slope, fit.intercept, fit.r_squared
        ));
    }
    table.push_note("success = plurality wins AND unanimity precedes the first halt");
    report.push_table(table);
    report
}

/// The `xp trace e06` path: one phase-resolved run per `n` with an
/// [`ObsObserver`] attached, each on its own trace stream `e06/n=<n>`.
/// The observer reads progress snapshots only, so the traced outcome is
/// the same one the untraced trial would produce.
fn run_traced_on(cfg: &Config, obs: &Arc<Obs>) -> Report {
    let mut report = Report::new("E06", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "traced RapidSim on K_n, k = {}, eps = {} (one run per n)",
            cfg.k, cfg.eps
        ),
        &["n", "time", "winner", "success", "events"],
    );
    for &n in &cfg.ns {
        let counts = match InitialDistribution::multiplicative_bias(cfg.k, cfg.eps).counts(n) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let params = Params::for_network_with_eps(n as usize, cfg.k, cfg.eps);
        let stream = format!("e06/n={n}");
        let before = obs.trace.records().len();
        let mut observer =
            ObsObserver::new(Arc::clone(obs), &stream).with_schedule(Schedule::new(params));
        let outcome = Sim::builder()
            .topology(Complete::new(n as usize))
            .counts(&counts)
            .rapid(params)
            .seed(Seed::new(cfg.seed ^ (n << 4)))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("validated")
            .run_with(&mut [&mut observer]);
        let events = obs.trace.records().len() - before;
        match outcome.as_rapid() {
            Some(out) => table.push_row(vec![
                n.to_string(),
                format!("{:.1}", out.time.as_secs()),
                out.winner.index().to_string(),
                (out.winner == Color::new(0) && out.before_first_halt).to_string(),
                events.to_string(),
            ]),
            None => table.push_row(vec![
                n.to_string(),
                "-".to_string(),
                "-".to_string(),
                "false".to_string(),
                events.to_string(),
            ]),
        }
    }
    table.push_note("events = trace records emitted on this run's stream (bias/occupancy/phase)");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn time_scales_logarithmically_with_high_success() {
        let report = quick_report(&E06);
        let table = &report.tables[0];
        let success = table.column_f64("success");
        assert!(success.iter().all(|&s| s >= 0.5), "success {success:?}");
        let normalized = table.column_f64("time/ln(n)");
        assert!(normalized.len() >= 2);
        // Θ(log n): the normalized column stays within a 3x band even in
        // the quick preset.
        let max = normalized.iter().cloned().fold(f64::MIN, f64::max);
        let min = normalized.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 3.0, "time/ln n band too wide: [{min}, {max}]");
    }
}
