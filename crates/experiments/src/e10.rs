//! **E10 / Figure 5** — Bit-Propagation is a Pólya urn.
//!
//! Claim (§3.1): during the asynchronous Bit-Propagation sub-phase, the
//! color distribution among bit-set nodes evolves as a Pólya urn; by the
//! martingale property the composition at the end of the sub-phase is
//! (almost) the composition right after the Two-Choices step.
//!
//! Measurement: inside real [`SeqSim`] Rapid runs, snapshot the bit-set
//! composition at the start and end of phase 0's Bit-Propagation; the
//! plurality fraction's drift should be ≈ 0, and the distribution of final
//! fractions across trials should match an actual Pólya urn seeded with the
//! same start composition (two-sample Kolmogorov–Smirnov).

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_stats::{ks_two_sample, OnlineStats};
use rapid_urn::spread_by_copying;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Bit-Propagation behaves as a Polya urn (martingale composition)";

/// E10's typed view of a validated [`ParamMap`].
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
    ParamSchema::new(vec![
        ParamSpec::u64("n", "population size", 1 << 14)
            .quick(1 << 11)
            .at_least(4),
        ParamSpec::u64_list("ks", "opinion counts to test", &[4, 16])
            .quick(vec![4])
            .at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.3)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "trials per k", 40)
            .quick(15)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE10),
    ])
}

/// Registry entry for this experiment.
pub struct E10;

impl Experiment for E10 {
    fn id(&self) -> &'static str {
        "e10"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§3.1 Pólya-urn martingale / Figure 5"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

/// One trial: returns `(f0, f1_protocol, f1_urn)` — the plurality fraction
/// among bit-set nodes at BP start, BP end (in-protocol), and after an
/// equivalent-length Pólya urn run.
fn trial(n: u64, k: usize, eps: f64, seed: Seed) -> Option<(f64, f64, f64)> {
    let params = Params::for_network_with_eps(n as usize, k, eps);
    let mut sim = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .rapid(params)
        .seed(seed.child(0))
        .build()
        .ok()?;

    // The median moves ~1 tick per n activations; advance in n/8-tick
    // chunks so the O(n log n) median computation stays off the hot path.
    let chunk = n / 8 + 1;
    let advance_to = |sim: &mut Sim, target: u64| {
        // lint: allow(panic-hygiene): this experiment always assembles the rapid engine, which provides working-time metrics
        while sim.median_working_time().expect("rapid engine") < target {
            for _ in 0..chunk {
                sim.step();
            }
        }
    };

    // Advance until the bulk has completed the commit step of phase 0.
    let commit_slot = (params.tc_blocks as u64) * params.delta as u64; // first BP slot
    advance_to(&mut sim, commit_slot);
    // lint: allow(panic-hygiene): this experiment always assembles the rapid engine, which provides working-time metrics
    let comp0 = sim.bit_composition().expect("rapid engine");
    let total0: u64 = comp0.iter().sum();
    if total0 == 0 {
        return None; // no seeds this trial (possible at tiny n)
    }
    let f0 = comp0[0] as f64 / total0 as f64;

    // Advance to the end of the BP sub-phase (bulk at sync start).
    let sync_start = commit_slot + params.bp_len();
    advance_to(&mut sim, sync_start);
    // lint: allow(panic-hygiene): this experiment always assembles the rapid engine, which provides working-time metrics
    let comp1 = sim.bit_composition().expect("rapid engine");
    let total1: u64 = comp1.iter().sum();
    let f1 = comp1[0] as f64 / total1 as f64;

    // Matched Pólya urn: same start composition, same number of joins.
    let mut urn_rng = SimRng::from_seed_value(seed.child(1));
    let joins = total1.saturating_sub(total0);
    let urn_final = spread_by_copying(&comp0, joins, &mut urn_rng);
    let urn_total: u64 = urn_final.iter().sum();
    let f_urn = urn_final[0] as f64 / urn_total as f64;

    Some((f0, f1, f_urn))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E10", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Bit-set plurality fraction, n = {}, eps = {}",
            cfg.n, cfg.eps
        ),
        &[
            "k",
            "f_start",
            "f_end(protocol)",
            "f_end(urn)",
            "drift",
            "KS p-value",
            "trials",
        ],
    );

    for &k in &cfg.ks {
        let results = run_trials_on(
            cfg.trials,
            Seed::new(cfg.seed ^ (k as u64) << 6),
            parallelism,
            |_, seed| trial(cfg.n, k, cfg.eps, seed),
        );
        let valid: Vec<(f64, f64, f64)> = results.into_iter().flatten().collect();
        if valid.is_empty() {
            continue;
        }
        let f0: OnlineStats = valid.iter().map(|r| r.0).collect();
        let f1: OnlineStats = valid.iter().map(|r| r.1).collect();
        let fu: OnlineStats = valid.iter().map(|r| r.2).collect();
        let drift: OnlineStats = valid.iter().map(|r| r.1 - r.0).collect();
        let proto_sample: Vec<f64> = valid.iter().map(|r| r.1).collect();
        let urn_sample: Vec<f64> = valid.iter().map(|r| r.2).collect();
        let ks = ks_two_sample(&proto_sample, &urn_sample);

        table.push_row(vec![
            k.to_string(),
            format!("{:.4}", f0.mean()),
            format!("{:.4}", f1.mean()),
            format!("{:.4}", fu.mean()),
            format!("{:+.4}", drift.mean()),
            format!("{:.3}", ks.p_value),
            valid.len().to_string(),
        ]);
    }
    table.push_note("drift ~ 0 = martingale; KS p-value > 0.01 = protocol matches the urn law");
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn composition_is_a_martingale_and_matches_the_urn() {
        let report = quick_report(&E10);
        let table = &report.tables[0];
        assert!(!table.is_empty());
        let drift = table.column_f64("drift");
        assert!(
            drift.iter().all(|d| d.abs() < 0.05),
            "composition drifted: {drift:?}"
        );
        let p = table.column_f64("KS p-value");
        assert!(
            p.iter().all(|&p| p > 0.01),
            "protocol and urn distributions diverge: p = {p:?}"
        );
    }
}
