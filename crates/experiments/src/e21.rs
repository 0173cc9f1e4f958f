//! **E21 / planet scale** — time-to-plurality at `n` up to `10⁹`.
//!
//! The paper's Theorem 1.3 is an asymptotic statement; every micro engine
//! caps out near `n ≈ 10⁵`, three orders of magnitude short of where the
//! asymptotics bite. The macro engine's `O(k · levels)` state lifts the
//! ceiling: this experiment sweeps `n` to `10⁹` (and `k`), measuring
//! time-to-plurality and wall-clock per run, for asynchronous Two-Choices
//! and (optionally) the full rapid protocol. The headline shape:
//! consensus time grows like `Θ(log n)` for Two-Choices from a constant
//! multiplicative bias, and like the schedule length for rapid.

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_macro::MacroSim;
use rapid_sim::rng::Seed;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Planet scale: macro-engine time-to-plurality up to n = 10^9";

/// E21's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    ks: Vec<usize>,
    eps: f64,
    rapid: bool,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            ks: p.usize_list("ks"),
            eps: p.f64("eps"),
            rapid: p.bool("rapid"),
            trials: p.u64("trials"),
            seed: p.u64("seed"),
        }
    }
}

/// Every parameter once: type, valid range, paper-scale default and
/// `--quick` value.
fn schema() -> ParamSchema {
    // The quick preset still reaches n = 10^8: the macro engine makes that
    // cheap (the acceptance bar is one such run under a minute).
    ParamSchema::new(vec![
        ParamSpec::u64_list(
            "ns",
            "population sizes",
            &[1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
        )
        .quick(vec![1_000_000, 100_000_000])
        .at_least(4),
        ParamSpec::u64_list("ks", "opinion counts", &[2, 8, 64])
            .quick(vec![2])
            .at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::bool("rapid", "also run the rapid protocol", true).quick(false),
        ParamSpec::u64("trials", "trials per configuration", 3)
            .quick(2)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE21),
    ])
}

/// Registry entry for this experiment.
pub struct E21;

impl Experiment for E21 {
    fn id(&self) -> &'static str {
        "e21"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "macro engine: scaling to n = 10^9"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

fn run_one(n: u64, k: usize, eps: f64, rapid: bool, seed: Seed) -> Option<(f64, bool, f64)> {
    // lint: allow(no-wall-clock): wall-clock throughput is the quantity this experiment measures; it never influences the run
    let wall = std::time::Instant::now();
    let mut builder = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(InitialDistribution::multiplicative_bias(k, eps))
        .engine(EngineKind::Macro)
        .seed(seed);
    builder = if rapid {
        builder.rapid(Params::for_network_with_eps(n as usize, k, eps))
    } else {
        builder.gossip(GossipRule::TwoChoices)
    };
    let outcome = MacroSim::from_builder(builder).ok()?.run();
    let ok = outcome.converged() && outcome.winner == Some(Color::new(0));
    Some((
        outcome.time?.as_secs(),
        ok,
        wall.elapsed().as_secs_f64() * 1e3,
    ))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E21", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "macro-engine runs to plurality consensus, eps = {}, {} trials",
            cfg.eps, cfg.trials
        ),
        &[
            "protocol",
            "n",
            "k",
            "time",
            "stderr",
            "time/ln(n)",
            "success",
            "wall ms",
        ],
    );

    for &n in &cfg.ns {
        for &k in &cfg.ks {
            let mut protocols = vec![false];
            if cfg.rapid {
                protocols.push(true);
            }
            for rapid in protocols {
                let results = run_trials_on(
                    cfg.trials,
                    Seed::new(cfg.seed ^ n ^ ((k as u64) << 32) ^ u64::from(rapid)),
                    parallelism,
                    move |_, seed| run_one(n, k, cfg.eps, rapid, seed),
                );
                let valid: Vec<&(f64, bool, f64)> = results.iter().flatten().collect();
                if valid.is_empty() {
                    continue;
                }
                let time: OnlineStats = valid.iter().map(|r| r.0).collect();
                let wall: OnlineStats = valid.iter().map(|r| r.2).collect();
                let success =
                    valid.iter().filter(|r| r.1).count() as f64 / results.len().max(1) as f64;
                table.push_row(vec![
                    if rapid { "rapid" } else { "async-two-choices" }.to_string(),
                    n.to_string(),
                    k.to_string(),
                    format!("{:.1}", time.mean()),
                    format!("{:.1}", time.std_err()),
                    format!("{:.2}", time.mean() / (n as f64).ln()),
                    format!("{success:.2}"),
                    format!("{:.1}", wall.mean()),
                ]);
            }
        }
    }
    table.push_note(
        "occupancy-count state is O(k * levels), so wall-clock per run is \
         essentially independent of n for gossip and grows only with the \
         schedule for rapid; time/ln(n) flattening out is the Theta(log n) \
         shape of the paper at scales no per-node engine can reach",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn scaling_run_reaches_1e8_and_time_grows_logarithmically() {
        let report = quick_report(&E21);
        let table = &report.tables[0];
        assert_eq!(table.len(), 2);
        let success = table.column_f64("success");
        assert!(success.iter().all(|&s| s >= 0.5), "success {success:?}");
        // time/ln(n) roughly flat across two decades of n.
        let normalised = table.column_f64("time/ln(n)");
        let ratio = normalised[1] / normalised[0];
        assert!(
            (0.4..2.5).contains(&ratio),
            "Theta(log n) shape violated: {normalised:?}"
        );
    }
}
