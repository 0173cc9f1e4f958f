//! **E04 / Table 3** — Theorem 1.2: OneExtraBit is polylogarithmic.
//!
//! Two sub-tables, because the theorem makes two separable claims:
//!
//! **(a) The literal bound.** With gap `c_1 − c_2 ≥ z·√n·log^{3/2} n`,
//! OneExtraBit converges w.h.p. within
//! `O((log(c_1/(c_1−c_2)) + log log n)·(log k + log log n))` rounds.
//! Shape check: measured rounds / prediction is a near-constant band over
//! the `(n, k)` grid, success ≈ 1.
//!
//! **(b) Beating `Ω(n/c_1)`.** Two-Choices needs `Ω(n/c_1 + log n)` rounds
//! (Theorem 1.1), so its cost *grows* along any sweep that increases
//! `n/c_1`, while OneExtraBit's polylog schedule grows only in
//! `log k · log log n`. Shape check: along the additive-gap sweep, the
//! Two-Choices growth factor exceeds OneExtraBit's, with the crossover
//! where the paper predicts it — at large `n/c_1`.
//!
//! A caveat this reproduction surfaces honestly: OneExtraBit needs
//! `c_1²/n ≫ 1` seeds after its Two-Choices step (this is exactly why
//! Theorem 1.2 demands the `√n·log^{3/2} n` gap — it forces
//! `c_1²/n ≥ log³ n`). Workloads below that floor make OneExtraBit lose
//! its bias in phase 0 no matter how large `k` is.

use rapid_core::distributions::{theorem_11_gap, theorem_12_gap};
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
const TITLE: &str = "Theorem 1.2: OneExtraBit converges in polylog rounds";

/// E04's typed view of a validated [`ParamMap`].
struct Config {
    ns_bound: Vec<u64>,
    ks_bound: Vec<usize>,
    ns_compare: Vec<u64>,
    ks_compare: Vec<usize>,
    z: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns_bound: p.u64_list("ns_bound"),
            ks_bound: p.usize_list("ks_bound"),
            ns_compare: p.u64_list("ns_compare"),
            ks_compare: p.usize_list("ks_compare"),
            z: p.f64("z"),
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
            "ns_bound",
            "population sizes for sub-table (a)",
            &[1 << 12, 1 << 14, 1 << 16],
        )
        .quick(vec![1 << 11]),
        ParamSpec::u64_list("ks_bound", "opinion counts for sub-table (a)", &[4, 16, 64])
            .quick(vec![4, 16]),
        ParamSpec::u64_list(
            "ns_compare",
            "population sizes for sub-table (b)",
            &[1 << 12, 1 << 14, 1 << 16, 1 << 18],
        )
        .quick(vec![1 << 12, 1 << 14]),
        ParamSpec::u64_list("ks_compare", "opinion counts for sub-table (b)", &[16, 64])
            .quick(vec![32]),
        ParamSpec::f64("z", "gap multiplier", 1.0).above(0.0),
        ParamSpec::u64("trials", "trials per cell", 10)
            .quick(5)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE04),
    ])
}

/// Registry entry for this experiment.
pub struct E04;

impl Experiment for E04 {
    fn id(&self) -> &'static str {
        "e04"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "Thm 1.2 / Table 3"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_sync(
    proto: impl SyncProtocol + Send + 'static,
    n: u64,
    counts: &[u64],
    budget: u64,
    seed: Seed,
) -> (u64, bool, bool) {
    let out = Sim::builder()
        .topology(Complete::new(n as usize))
        .counts(counts)
        .protocol(proto)
        .seed(seed)
        .stop(StopCondition::RoundBudget(budget))
        .build()
        // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
        .expect("validated")
        .run();
    match out.as_sync() {
        Some(out) => (out.rounds, out.winner == Color::new(0), true),
        None => (budget, false, false),
    }
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E04", TITLE, cfg.seed);

    // ---- (a) the literal bound -------------------------------------
    let mut bound = Table::new(
        "(a) OneExtraBit at the Theorem 1.2 gap z*sqrt(n)*ln^1.5(n)",
        &[
            "n", "k", "c1", "rounds", "stderr", "pred", "ratio", "success",
        ],
    );
    for &n in &cfg.ns_bound {
        for &k in &cfg.ks_bound {
            let gap = theorem_12_gap(n, cfg.z).min(n / 2);
            let Ok(counts) = InitialDistribution::additive_bias(k, gap).counts(n) else {
                continue;
            };
            let (c1, c2) = (counts[0], counts[1]);
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 8) ^ k as u64),
                parallelism,
                {
                    let counts = counts.clone();
                    move |_, seed| {
                        let proto = OneExtraBit::for_network(n as usize, k);
                        run_sync(proto, n, &counts, 5_000, seed)
                    }
                },
            );
            let rounds: OnlineStats = results.iter().filter(|r| r.2).map(|r| r.0 as f64).collect();
            let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
            let pred = predictions::one_extra_bit_rounds(n, k, c1, c2);
            bound.push_row(vec![
                n.to_string(),
                k.to_string(),
                c1.to_string(),
                format!("{:.1}", rounds.mean()),
                format!("{:.1}", rounds.std_err()),
                format!("{pred:.1}"),
                format!("{:.3}", rounds.mean() / pred),
                format!("{success:.2}"),
            ]);
        }
    }
    bound.push_note("shape check: 'ratio' stays in a constant band; success ~ 1");
    report.push_table(bound);

    // ---- (b) comparison against Two-Choices ------------------------
    let mut compare = Table::new(
        "(b) OneExtraBit vs Two-Choices at the Theorem 1.1 gap (growing n/c1)",
        &[
            "n",
            "k",
            "n/c1",
            "tc_rounds",
            "tc_success",
            "oeb_rounds",
            "oeb_success",
            "oeb/tc",
        ],
    );
    for &n in &cfg.ns_compare {
        for &k in &cfg.ks_compare {
            let gap = theorem_11_gap(n, cfg.z);
            let Ok(counts) = InitialDistribution::additive_bias(k, gap).counts(n) else {
                continue;
            };
            let c1 = counts[0];
            let tc_budget = (predictions::two_choices_rounds(n, c1) * 20.0).ceil() as u64 + 1000;
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 4) ^ k as u64),
                parallelism,
                {
                    let counts = counts.clone();
                    move |_, seed| {
                        let tc =
                            run_sync(GossipRule::TwoChoices, n, &counts, tc_budget, seed.child(0));
                        let proto = OneExtraBit::for_network(n as usize, k);
                        let oeb = run_sync(proto, n, &counts, 5_000, seed.child(1));
                        (tc, oeb)
                    }
                },
            );
            let tc: OnlineStats = results.iter().map(|r| r.0 .0 as f64).collect();
            let oeb: OnlineStats = results.iter().map(|r| r.1 .0 as f64).collect();
            let tc_success =
                results.iter().filter(|r| r.0 .1).count() as f64 / results.len() as f64;
            let oeb_success =
                results.iter().filter(|r| r.1 .1).count() as f64 / results.len() as f64;
            compare.push_row(vec![
                n.to_string(),
                k.to_string(),
                format!("{:.1}", n as f64 / c1 as f64),
                format!("{:.1}", tc.mean()),
                format!("{tc_success:.2}"),
                format!("{:.1}", oeb.mean()),
                format!("{oeb_success:.2}"),
                format!("{:.2}", oeb.mean() / tc.mean()),
            ]);
        }
    }
    compare.push_note(
        "Two-Choices cost grows with n/c1 (Theorem 1.1); OneExtraBit grows only polylog — \
         the oeb/tc column falls along the sweep and crosses 1 at large n/c1",
    );
    report.push_table(compare);
    report
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::testkit::quick_report;

    /// Both tests read the same quick run.
    fn report() -> &'static Report {
        static REPORT: OnceLock<Report> = OnceLock::new();
        REPORT.get_or_init(|| quick_report(&E04))
    }

    #[test]
    fn bound_table_shows_polylog_rounds_with_high_success() {
        let report = report();
        let bound = &report.tables[0];
        assert!(!bound.is_empty());
        let success = bound.column_f64("success");
        assert!(success.iter().all(|&s| s >= 0.8), "success {success:?}");
        let ratios = bound.column_f64("ratio");
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 5.0, "ratio band too wide: [{min}, {max}]");
    }

    #[test]
    fn two_choices_grows_faster_than_one_extra_bit_along_the_sweep() {
        let report = report();
        let compare = &report.tables[1];
        assert!(compare.len() >= 2);
        let tc = compare.column_f64("tc_rounds");
        let oeb = compare.column_f64("oeb_rounds");
        let tc_growth = tc.last().expect("rows") / tc[0];
        let oeb_growth = oeb.last().expect("rows") / oeb[0];
        assert!(
            tc_growth > oeb_growth * 1.15,
            "Two-Choices should outgrow OneExtraBit: tc x{tc_growth:.2} vs oeb x{oeb_growth:.2}"
        );
        // Both protocols still find the plurality in this regime.
        let oeb_success = compare.column_f64("oeb_success");
        assert!(oeb_success.iter().all(|&s| s >= 0.8));
    }
}
