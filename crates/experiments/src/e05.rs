//! **E05 / Figure 2** — quadratic bias amplification per phase.
//!
//! Claim (§2): after one OneExtraBit phase,
//! `c'_1/c'_j ≥ (1−o(1)) · (c_1/c_j)²` — the support ratio squares each
//! phase, which is why only `Θ(log log n)` phases are needed.
//!
//! Shape check: the column `measured/(prev²)` sits near 1 for every phase
//! until the runner-up dies out.

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
const TITLE: &str = "Quadratic amplification: c1'/c2' ~ (c1/c2)^2 per OneExtraBit phase";

/// E05's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    ks: Vec<usize>,
    eps: f64,
    max_phases: u32,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
            ks: p.usize_list("ks"),
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
        ParamSpec::u64("n", "population size", 1 << 16)
            .quick(1 << 13)
            .at_least(2),
        ParamSpec::u64_list("ks", "opinion counts to test", &[8, 32])
            .quick(vec![8])
            .at_least(2),
        ParamSpec::f64("eps", "initial multiplicative lead", 0.3)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u32("max_phases", "maximum phases to trace", 6).quick(4),
        ParamSpec::u64("trials", "trials", 10).quick(4).at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE05),
    ])
}

/// Registry entry for this experiment.
pub struct E05;

impl Experiment for E05 {
    fn id(&self) -> &'static str {
        "e05"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§2 amplification / Figure 2"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// Per-trial trace: the `c1/c2` ratio at each phase boundary.
fn trace_ratios(n: u64, k: usize, eps: f64, max_phases: u32, seed: Seed) -> Vec<f64> {
    let proto = OneExtraBit::for_network(n as usize, k);
    let rounds_per_phase = proto.rounds_per_phase();
    let mut sim = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .protocol(proto)
        .seed(seed)
        .build()
        // lint: allow(panic-hygiene): run_on skips every opinion count the population cannot seat
        .expect("valid workload");
    let mut ratios = vec![sim.config().counts().top_two().ratio()];
    for _ in 0..max_phases {
        for _ in 0..rounds_per_phase {
            sim.step();
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
    let mut report = Report::new("E05", TITLE, cfg.seed);

    for &k in &cfg.ks {
        // A population too small to seat every opinion has no table.
        if InitialDistribution::multiplicative_bias(k, cfg.eps)
            .counts(cfg.n)
            .is_err()
        {
            continue;
        }
        let mut table = Table::new(
            format!(
                "Per-phase c1/c2 ratio at n = {}, k = {k}, eps = {}",
                cfg.n, cfg.eps
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

        let traces = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (k as u64) << 4),
            parallelism,
            |_, seed| trace_ratios(cfg.n, k, cfg.eps, cfg.max_phases, seed),
        );

        for phase in 0..cfg.max_phases as usize {
            // Average log-ratios across the trials that still have a finite
            // ratio at this phase (the runner-up may die out earlier).
            let mut before = OnlineStats::new();
            let mut after = OnlineStats::new();
            let mut rel = OnlineStats::new();
            for trace in &traces {
                if phase + 1 < trace.len()
                    && trace[phase].is_finite()
                    && trace[phase + 1].is_finite()
                {
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
        table.push_note("measured/pred near 1 = exact quadratic growth");
        report.push_table(table);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn amplification_is_near_quadratic_in_early_phases() {
        let report = quick_report(&E05);
        let table = &report.tables[0];
        assert!(!table.is_empty());
        let rel = table.column_f64("measured/pred");
        // First two phases: quadratic within 40% (stochastic slack; the
        // o(1) in the theorem statement is real at n = 8192).
        for (i, &r) in rel.iter().take(2).enumerate() {
            assert!((0.6..1.4).contains(&r), "phase {i}: measured/pred = {r}");
        }
    }
}
