//! **E16 / Figure 8** — quadratic amplification *in the asynchronous
//! protocol*.
//!
//! E05 verifies the per-phase squaring law for the synchronous OneExtraBit;
//! this experiment verifies the same claim where the paper actually needs
//! it (§3): *"After executing the first two sub-phases, the relative
//! difference between C₁ and any opinion Cⱼ ≠ C₁ increases quadratically"*
//! — now with nodes on Poisson clocks, working-time scheduling, jumps and
//! the o(n) poorly-synchronized stragglers the analysis has to tolerate.
//!
//! Measurement: inside real [`SeqSim`] Rapid runs, record the `c₁/c₂` ratio
//! each time the *median working time* crosses a phase boundary; compare
//! `ratio_{p+1}` against `ratio_p²`.

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
const TITLE: &str = "Quadratic amplification inside the asynchronous protocol (Section 3)";

/// E16's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    k: usize,
    eps: f64,
    max_phases: u32,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            k: p.usize("k"),
            eps: p.f64("eps"),
            max_phases: p.u32("max_phases"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 1 << 14)
            .quick(1 << 12)
            .at_least(4),
        ParamSpec::u64("k", "number of opinions", 8).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.3)
            .quick(0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u32("max_phases", "phases to trace", 5).quick(4),
        ParamSpec::u64("trials", "trials", 10).quick(4).at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE16),
    ])
}

/// Registry entry for this experiment.
pub struct E16;

impl Experiment for E16 {
    fn id(&self) -> &'static str {
        "e16"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§3 async amplification / Figure 8"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// One trial: the `c₁/c₂` ratio at each phase boundary (median crossing).
fn trace_ratios(n: u64, k: usize, eps: f64, max_phases: u32, seed: Seed) -> Vec<f64> {
    let params = Params::for_network_with_eps(n as usize, k, eps);
    // A population too small to seat every opinion leaves no trace.
    let Ok(mut sim) = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .seed(seed)
        .build()
    else {
        return Vec::new();
    };
    let chunk = n / 8 + 1;
    let mut ratios = vec![sim.config().counts().top_two().ratio()];
    for p in 1..=max_phases.min(params.phases) as u64 {
        let boundary = p * params.phase_len();
        // lint: allow(panic-hygiene): this experiment always assembles the rapid engine, which provides working-time metrics
        while sim.median_working_time().expect("rapid engine") < boundary {
            for _ in 0..chunk {
                sim.step();
            }
        }
        let t = sim.config().counts().top_two();
        ratios.push(t.ratio());
        if !t.ratio().is_finite() || sim.config().unanimous().is_some() {
            break;
        }
    }
    ratios
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E16", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Per-phase c1/c2 ratio in RapidSim at n = {}, k = {}, eps = {}",
            cfg.n, cfg.k, cfg.eps
        ),
        &[
            "phase",
            "ratio_before",
            "ratio_after",
            "predicted",
            "measured/pred",
            "trials",
        ],
    );

    let traces = run_trials_on(cfg.trials, Seed::new(cfg.seed), parallelism, |_, seed| {
        trace_ratios(cfg.n, cfg.k, cfg.eps, cfg.max_phases, seed)
    });

    for phase in 0..cfg.max_phases as usize {
        let mut before = OnlineStats::new();
        let mut after = OnlineStats::new();
        let mut rel = OnlineStats::new();
        for trace in &traces {
            if phase + 1 < trace.len() && trace[phase].is_finite() && trace[phase + 1].is_finite() {
                before.push(trace[phase]);
                after.push(trace[phase + 1]);
                rel.push(trace[phase + 1] / trace[phase].powi(2));
            }
        }
        if before.is_empty() {
            break;
        }
        table.push_row(vec![
            phase.to_string(),
            format!("{:.3}", before.mean()),
            format!("{:.3}", after.mean()),
            format!("{:.3}", before.mean().powi(2)),
            format!("{:.3}", rel.mean()),
            before.count().to_string(),
        ]);
    }
    table.push_note(
        "asynchronous counterpart of E05: the squaring law must survive Poisson clocks, \
         jumps and the o(n) stragglers — measured/pred near 1 confirms Section 3's claim",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn async_amplification_is_near_quadratic() {
        let report = quick_report(&E16);
        let table = &report.tables[0];
        assert!(table.len() >= 2, "need at least two traced phases");
        let rel = table.column_f64("measured/pred");
        // Wider slack than sync E05: the async phase includes stragglers
        // and the endgame-free measurement is taken at median crossings.
        for (i, &r) in rel.iter().take(2).enumerate() {
            assert!((0.5..1.6).contains(&r), "phase {i}: measured/pred = {r}");
        }
    }
}
