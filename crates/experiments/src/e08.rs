//! **E08 / Figure 4** — weak synchronicity and the Sync Gadget.
//!
//! Claim (§3): with the Sync Gadget, at any time all but `o(n)` nodes have
//! working times within `Δ = Θ(log n/log log n)` of each other; *without*
//! perpetual synchronization the spread grows with elapsed time and the
//! poorly-synchronized population stops being negligible.
//!
//! Measurement: working-time spread (max − min) and the fraction of nodes
//! farther than `2Δ` (the sample→commit separation) from the median, at
//! every phase boundary, with the gadget enabled vs disabled (ablation).

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::{welch_t_test, OnlineStats};

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Weak synchronicity: Sync Gadget keeps working times within Delta";

/// E08's typed view of a validated [`ParamMap`].
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
    ParamSchema::new(vec![
        ParamSpec::u64_list("ns", "population sizes", &[1 << 12, 1 << 14, 1 << 16])
            .quick(vec![1 << 10])
            .at_least(4),
        // The gadget is opinion-agnostic; two opinions keep it cheap.
        ParamSpec::u64("k", "number of opinions", 2).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.3)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "trials per cell", 5)
            .quick(3)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE08),
    ])
}

/// Registry entry for this experiment.
pub struct E08;

impl Experiment for E08 {
    fn id(&self) -> &'static str {
        "e08"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§3 Sync-Gadget ablation / Figure 4"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// One part-1 run; returns per-phase `(poorly_synced, spread)` pairs.
fn measure(n: u64, k: usize, eps: f64, gadget: bool, seed: Seed) -> Vec<(f64, u64)> {
    let mut params = Params::for_network_with_eps(n as usize, k, eps);
    if !gadget {
        params = params.without_gadget();
    }
    let mut sim = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .seed(seed)
        .build()
        // lint: allow(panic-hygiene): run_on skips every population the workload cannot seat
        .expect("valid workload");
    let per_phase = n * params.phase_len();
    let tolerance = 2 * params.delta as u64;
    let mut out = Vec::new();
    for _ in 0..params.phases {
        for _ in 0..per_phase {
            sim.step();
        }
        // lint: allow(panic-hygiene): this experiment always assembles the rapid engine, which provides working-time metrics
        let stats = sim.working_time_stats(tolerance).expect("rapid engine");
        out.push((stats.poorly_synced, stats.max - stats.min));
    }
    out
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E08", TITLE, cfg.seed);
    let mut table = Table::new(
        "Working-time concentration at phase boundaries (tolerance 2*Delta)",
        &[
            "n",
            "gadget",
            "mean poorly-synced",
            "worst poorly-synced",
            "mean spread",
            "final spread",
            "2*Delta",
        ],
    );

    for &n in &cfg.ns {
        // A population too small to seat every opinion has no row.
        if InitialDistribution::multiplicative_bias(cfg.k, cfg.eps)
            .counts(n)
            .is_err()
        {
            continue;
        }
        let mut per_phase_poorly: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for gadget in [true, false] {
            let params = Params::for_network_with_eps(n as usize, cfg.k, cfg.eps);
            let results = run_trials_on(
                cfg.trials,
                Seed::new(cfg.seed ^ (n << 2) ^ gadget as u64),
                parallelism,
                |_, seed| measure(n, cfg.k, cfg.eps, gadget, seed),
            );

            let mut poorly = OnlineStats::new();
            let mut worst: f64 = 0.0;
            let mut spread = OnlineStats::new();
            let mut final_spread = OnlineStats::new();
            for trace in &results {
                for &(p, s) in trace {
                    poorly.push(p);
                    worst = worst.max(p);
                    spread.push(s as f64);
                    per_phase_poorly[gadget as usize].push(p);
                }
                if let Some(&(_, s)) = trace.last() {
                    final_spread.push(s as f64);
                }
            }
            table.push_row(vec![
                n.to_string(),
                if gadget { "on" } else { "off" }.to_string(),
                format!("{:.4}", poorly.mean()),
                format!("{worst:.4}"),
                format!("{:.1}", spread.mean()),
                format!("{:.1}", final_spread.mean()),
                (2 * params.delta).to_string(),
            ]);
        }
        let welch = welch_t_test(&per_phase_poorly[1], &per_phase_poorly[0]);
        table.push_note(format!(
            "n = {n}: Welch t = {:.1} (df = {:.0}) on the per-phase poorly-synced samples — \
             gadget effect {}",
            welch.t,
            welch.df,
            if welch.significant_at_1pct() {
                "significant at 1%"
            } else {
                "not significant"
            }
        ));
    }
    table.push_note("gadget off: spread grows with elapsed time; on: it is reset every phase");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn gadget_reduces_spread_and_poorly_synced_fraction() {
        let report = quick_report(&E08);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2, "one on-row and one off-row");
        let poorly = table.column_f64("mean poorly-synced");
        let final_spread = table.column_f64("final spread");
        let (on_p, off_p) = (poorly[0], poorly[1]);
        let (on_s, off_s) = (final_spread[0], final_spread[1]);
        assert!(
            on_p < off_p,
            "gadget should reduce poorly-synced fraction: {on_p} vs {off_p}"
        );
        assert!(
            on_s < off_s,
            "gadget should reduce final spread: {on_s} vs {off_s}"
        );
        assert!(
            on_p < 0.1,
            "with the gadget, poorly-synced stays small: {on_p}"
        );
    }
}
