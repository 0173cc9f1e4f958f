//! **E14 / Figure 7 (extension)** — beyond the complete graph.
//!
//! The paper's discussion (§4) conjectures that its techniques "carry over
//! to a much more general setting". This *extension* experiment (clearly
//! beyond the brief announcement's stated results) runs the identical
//! protocol implementations — they are topology-generic — on expander-like
//! sparse graphs and on poorly-mixing ones:
//!
//! * random `d`-regular graphs with `d = Θ(log n)` (expanders: neighbor
//!   sampling approximates uniform sampling well);
//! * Erdős–Rényi `G(n, p)` above the connectivity threshold;
//! * the 2-D torus (slow mixing: a *negative* control — plurality
//!   consensus by local drift is not expected to track the global
//!   plurality).
//!
//! Shape expectation: on expanders both Two-Choices and the asynchronous
//! protocol behave clique-like (success ≈ 1, comparable times); on the
//! torus the asynchronous protocol's Two-Choices step sees heavily
//! correlated samples and the global plurality frequently loses.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_graph::{ErdosRenyi, RandomRegular, Torus2d};
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Extension (discussion §4): the protocols beyond the complete graph";

/// E14's typed view of a validated [`ParamMap`].
struct Config {
    n: u64,
    k: usize,
    eps: f64,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            n: p.u64("n"),
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
        ParamSpec::u64(
            "n",
            "population size (tori round down to a square side)",
            1 << 13,
        )
        .quick(1 << 10)
        .at_least(4),
        ParamSpec::u64("k", "number of opinions", 4).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::u64("trials", "trials per cell", 10)
            .quick(4)
            .at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE14),
    ])
}

/// Registry entry for this experiment.
pub struct E14;

impl Experiment for E14 {
    fn id(&self) -> &'static str {
        "e14"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "§4 topologies (extension) / Figure 7"
    }
    fn params(&self) -> ParamSchema {
        schema()
    }
    fn run(&self, params: &ParamMap, parallelism: Parallelism) -> Report {
        run_on(&Config::from_params(params), parallelism)
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Topo {
    Clique,
    Regular,
    ErdosRenyi,
    Torus,
}

impl Topo {
    fn label(self) -> &'static str {
        match self {
            Topo::Clique => "complete",
            Topo::Regular => "random-regular(d~log n)",
            Topo::ErdosRenyi => "G(n, 2 ln n / n)",
            Topo::Torus => "torus (negative control)",
        }
    }
}

/// One (topology, protocol) cell: mean time + plurality-success rate.
fn run_cell(
    topo: Topo,
    asynchronous: bool,
    cfg: &Config,
    master: Seed,
    parallelism: Parallelism,
) -> Option<(OnlineStats, f64)> {
    let side = (cfg.n as f64).sqrt() as usize;
    let n = match topo {
        Topo::Torus => side * side,
        _ => cfg.n as usize,
    };
    let counts = InitialDistribution::multiplicative_bias(cfg.k, cfg.eps)
        .counts(n as u64)
        .ok()?;
    let d = ((n as f64).ln().ceil() as usize) | 1; // odd degree is fine for even n

    // A topology that cannot exist at this size has no cell: a regular
    // graph with an odd stub count n·d, or a torus side below three.
    if (topo == Topo::Regular && n * d.min(n - 1) % 2 == 1) || (topo == Topo::Torus && side < 3) {
        return None;
    }
    let eps = cfg.eps;
    let k = cfg.k;
    let trials = cfg.trials;

    let results = run_trials_on(trials, master, parallelism, move |_, seed| {
        // Build the topology fresh per trial (random graphs resample).
        let topology: rapid_core::facade::BoxedTopology = match topo {
            Topo::Clique => Box::new(Complete::new(n)),
            // Children 0–3 are the facade's internal streams (scheduler,
            // engine, shuffle, jitter); sample graphs from disjoint ones
            // so graph structure and protocol randomness stay independent.
            Topo::Regular => Box::new(
                // lint: allow(rng-stream-registry): experiment-local topology-sampling stream, disjoint from the registry by construction
                // lint: allow(panic-hygiene): cells with an odd stub count n·d are skipped above
                RandomRegular::sample(n, d.min(n - 1), seed.child(20)).expect("even stub count"),
            ),
            Topo::ErdosRenyi => {
                let p = 2.0 * (n as f64).ln() / n as f64;
                // lint: allow(rng-stream-registry): experiment-local topology-sampling stream, disjoint from the registry by construction
                Box::new(ErdosRenyi::sample(n, p.min(1.0), seed.child(21)))
            }
            Topo::Torus => Box::new(Torus2d::new(side, side)),
        };
        // Structured topologies need a random node-color assignment, so
        // shuffle; both protocols share the rest of the assembly.
        let builder = Sim::builder()
            .boxed_topology(topology)
            .counts(&counts)
            .shuffle(true)
            .seed(seed);
        if asynchronous {
            // No explicit stop: the facade's fallback is the rapid
            // engine's schedule-derived budget.
            let params = Params::for_network_with_eps(n, k, eps);
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            let outcome = builder.rapid(params).build().expect("validated").run();
            match outcome.as_rapid() {
                Some(out) => (
                    out.time.as_secs(),
                    out.winner == Color::new(0) && out.before_first_halt,
                    true,
                ),
                None => (0.0, false, false),
            }
        } else {
            let outcome = builder
                .protocol(GossipRule::TwoChoices)
                .stop(StopCondition::RoundBudget(200_000))
                .build()
                // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                .expect("validated")
                .run();
            match outcome.as_sync() {
                Some(out) => (out.rounds as f64, out.winner == Color::new(0), true),
                None => (0.0, false, false),
            }
        }
    });

    let time: OnlineStats = results.iter().filter(|r| r.2).map(|r| r.0).collect();
    let success = results.iter().filter(|r| r.1).count() as f64 / results.len() as f64;
    Some((time, success))
}

/// Runs the experiment under `parallelism`.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E14", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "Two-Choices (sync) and RapidSim (async) across topologies, n ~ {}, k = {}, eps = {}",
            cfg.n, cfg.k, cfg.eps
        ),
        &["topology", "protocol", "time", "stderr", "success"],
    );

    for topo in [Topo::Clique, Topo::Regular, Topo::ErdosRenyi, Topo::Torus] {
        for asynchronous in [false, true] {
            let Some((time, success)) = run_cell(
                topo,
                asynchronous,
                cfg,
                Seed::new(cfg.seed ^ topo.label().len() as u64 ^ (asynchronous as u64) << 9),
                parallelism,
            ) else {
                continue;
            };
            table.push_row(vec![
                topo.label().to_string(),
                if asynchronous {
                    "rapid-async"
                } else {
                    "two-choices"
                }
                .to_string(),
                format!("{:.1}", time.mean()),
                format!("{:.1}", time.std_err()),
                format!("{success:.2}"),
            ]);
        }
    }
    table.push_note(
        "extension beyond the paper: expanders behave clique-like; the slow-mixing torus \
         is a negative control where global plurality frequently loses",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::quick_report;

    #[test]
    fn expanders_behave_clique_like() {
        let report = quick_report(&E14);
        let table = &report.tables[0];
        assert!(table.len() >= 6);
        // Success per (topology, protocol) row, keyed by the first column.
        let success_of = |topo: &str, proto: &str| -> f64 {
            table
                .rows
                .iter()
                .find(|r| r[0].starts_with(topo) && r[1] == proto)
                .map(|r| r[4].parse().expect("success"))
                .expect("row present")
        };
        assert!(success_of("complete", "two-choices") >= 0.75);
        assert!(success_of("random-regular", "two-choices") >= 0.75);
        assert!(success_of("G(n,", "two-choices") >= 0.75);
        assert!(success_of("complete", "rapid-async") >= 0.75);
        assert!(success_of("random-regular", "rapid-async") >= 0.5);
    }
}
