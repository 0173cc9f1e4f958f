//! **E07 / Figure 3** — Theorem 1.3's opinion-count range.
//!
//! Claim: the asynchronous protocol handles up to
//! `k = O(exp(log n / log log n))` opinions within the same `Θ(log n)`
//! time bound.
//!
//! Shape check: at fixed `n`, consensus time grows only mildly with `k`
//! (through the `log k` inside the Bit-Propagation sub-phase length) and
//! success stays ≈ 1 across the sweep.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::predictions;
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Theorem 1.3: k-sweep up to exp(log n / log log n) opinions";

/// E07's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    ks: Vec<usize>,
    eps: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            ks: p.usize_list("ks"),
            eps: p.f64("eps"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    // k = 128 deliberately overshoots the paper's frontier
    // exp(ln n/ln ln n) ≈ 71 at n = 2^14: the success column should
    // visibly degrade there, tracing where the theorem stops applying.
    ParamSchema::new(vec![
        ParamSpec::u64("n", "fixed population size", 1 << 14)
            .quick(1 << 13)
            .at_least(4),
        ParamSpec::u64_list("ks", "opinion counts to sweep", &[2, 4, 8, 16, 32, 64, 128])
            .quick(vec![2, 8, 16])
            .at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.4)
            .quick(0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "trials per k", 10)
            .quick(3)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE07),
    ])
}

/// Registry entry for this experiment.
pub struct E07;

impl Experiment for E07 {
    fn id(&self) -> &'static str {
        "e07"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.3 k-range / Figure 3"
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
    let mut report = Report::new("E07", TITLE, cfg.seed);
    let mut table = Table::new(
        format!("RapidSim at n = {}, eps = {}", cfg.n, cfg.eps),
        &["k", "time", "stderr", "time/ln(n)", "success", "trials"],
    );

    let n = cfg.n;
    for &k in &cfg.ks {
        let counts = match InitialDistribution::multiplicative_bias(k, cfg.eps).counts(n) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let params = Params::for_network_with_eps(n as usize, k, cfg.eps);

        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (k as u64) << 5),
            parallelism,
            {
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
                            out.winner == Color::new(0) && out.before_first_halt,
                            true,
                        ),
                        None => (0.0, false, false),
                    }
                }
            },
        );

        let time: OnlineStats = results.iter().filter(|r| r.2).map(|r| r.0).collect();
        let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
        table.push_row(vec![
            k.to_string(),
            format!("{:.1}", time.mean()),
            format!("{:.1}", time.std_err()),
            format!("{:.2}", time.mean() / (n as f64).ln()),
            format!("{success:.2}"),
            cfg.trials.to_string(),
        ]);
    }
    table.push_note(format!(
        "paper's k-frontier at this n: exp(ln n/ln ln n) = {:.0}",
        predictions::async_k_limit(n)
    ));
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn success_holds_across_the_k_sweep() {
        let report = quick_report(&E07);
        let table = &report.tables[0];
        let success = table.column_f64("success");
        assert!(success.len() >= 3);
        assert!(success.iter().all(|&s| s >= 0.66), "success {success:?}");
        // Mild growth only: largest k costs at most ~3x the smallest.
        let t = table.column_f64("time");
        assert!(
            t.last().expect("non-empty") / t[0] < 3.0,
            "time grew too fast across k: {t:?}"
        );
    }
}
