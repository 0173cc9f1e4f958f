//! **E25 / sharded scale-out** — the epoch-sharded micro engine past
//! `10⁶` nodes.
//!
//! PR 8's sharded engine partitions nodes across worker shards and
//! advances the global Poisson clock in deterministic τ-sized epochs,
//! with per-(epoch, node) RNG streams making the outcome bit-identical
//! under any shard count. This experiment is its scaling showcase: full
//! per-node runs at `n` up to `10⁷` — an order of magnitude past where
//! the activation-at-a-time engines are practical — on Erdős–Rényi,
//! random-regular and torus graphs as well as the clique. On the clique
//! the same assembly also runs through the macro (population) engine,
//! re-validating micro-vs-macro agreement at scale: the two consensus
//! times must agree to within a small constant factor.

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_graph::{ErdosRenyi, RandomRegular, Torus2d};
use rapid_macro::MacroSim;
use rapid_sim::prelude::*;
use rapid_stats::OnlineStats;

use crate::experiment::Experiment;
use crate::params::{ParamMap, ParamSchema, ParamSpec};
use crate::report::Report;
use crate::runner::{run_trials_on, Parallelism};
use crate::table::Table;

/// Report title (also the registry's [`Experiment::title`]).
const TITLE: &str = "Sharded scale-out: per-node runs to n = 10^7 across topologies";

/// E25's typed view of a validated [`ParamMap`].
struct Config {
    ns: Vec<u64>,
    k: usize,
    eps: f64,
    rapid: bool,
    trials: u64,
    seed: u64,
}

impl Config {
    fn from_params(p: &ParamMap) -> Config {
        Config {
            ns: p.u64_list("ns"),
            k: p.usize("k"),
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
    // Per-node runs at 10^7 are heavyweight, hence one trial per cell. The
    // quick preset runs gossip only at one small size, still covering a
    // random and the complete topology (the latter carries the
    // micro-vs-macro cross-check).
    ParamSchema::new(vec![
        ParamSpec::u64_list(
            "ns",
            "population sizes (tori round down to a square side)",
            &[1_000_000, 10_000_000],
        )
        .quick(vec![1 << 14])
        .at_least(4),
        ParamSpec::u64("k", "number of opinions", 2).at_least(2),
        ParamSpec::f64("eps", "multiplicative lead", 0.5)
            .above(0.0)
            .at_most(10.0),
        ParamSpec::bool("rapid", "also run the rapid protocol", true).quick(false),
        ParamSpec::u64("trials", "trials per cell", 1).at_least(1),
        ParamSpec::u64("seed", "master seed", 0xE25),
    ])
}

/// Registry entry for this experiment.
pub struct E25;

impl Experiment for E25 {
    fn id(&self) -> &'static str {
        "e25"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn claim(&self) -> &'static str {
        "sharded micro engine: scaling to n = 10^7"
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
    ErdosRenyi,
    Regular,
    Torus,
    Clique,
}

impl Topo {
    fn label(self) -> &'static str {
        match self {
            Topo::ErdosRenyi => "G(n, 2 ln n / n)",
            Topo::Regular => "random-regular(d~log n)",
            Topo::Torus => "torus",
            Topo::Clique => "complete",
        }
    }

    /// A small per-topology tag for cell-seed derivation.
    fn tag(self) -> u64 {
        match self {
            Topo::ErdosRenyi => 1,
            Topo::Regular => 2,
            Topo::Torus => 3,
            Topo::Clique => 4,
        }
    }
}

/// One sharded micro run; returns (consensus time, steps, plurality won,
/// wall ms).
#[allow(clippy::too_many_arguments)]
fn run_one(
    topo: Topo,
    n: usize,
    k: usize,
    eps: f64,
    rapid: bool,
    counts: &[u64],
    seed: Seed,
    parallelism: Parallelism,
) -> Option<(f64, u64, bool, f64)> {
    // lint: allow(no-wall-clock): wall-clock throughput is part of what this experiment reports; it never influences the run
    let wall = std::time::Instant::now();
    let side = (n as f64).sqrt() as usize;
    let topology: rapid_core::facade::BoxedTopology = match topo {
        Topo::Clique => Box::new(Complete::new(n)),
        // Children 0–7 are the facade's registered streams; sample graph
        // structure from disjoint experiment-local ones so topology and
        // protocol randomness stay independent (same split as E14).
        Topo::Regular => {
            let d = ((n as f64).ln().ceil() as usize) | 1;
            // An odd stub count n·d has no regular graph: the cell is skipped.
            // lint: allow(rng-stream-registry): experiment-local topology-sampling stream, disjoint from the registry by construction
            Box::new(RandomRegular::sample(n, d.min(n - 1), seed.child(20)).ok()?)
        }
        Topo::ErdosRenyi => {
            let p = 2.0 * (n as f64).ln() / n as f64;
            // lint: allow(rng-stream-registry): experiment-local topology-sampling stream, disjoint from the registry by construction
            Box::new(ErdosRenyi::sample(n, p.min(1.0), seed.child(21)))
        }
        Topo::Torus => Box::new(Torus2d::new(side, side)),
    };
    let builder = Sim::builder()
        .boxed_topology(topology)
        .counts(counts)
        .shuffle(true)
        .parallelism(parallelism)
        .seed(seed);
    let builder = if rapid {
        builder.rapid(Params::for_network_with_eps(n, k, eps))
    } else {
        builder.gossip(GossipRule::TwoChoices)
    };
    // lint: allow(panic-hygiene): inputs are fixed by the experiment definition; build failure is a programming error
    let outcome = builder.build().expect("validated").run();
    let won = outcome.converged() && outcome.winner == Some(Color::new(0));
    Some((
        outcome.time?.as_secs(),
        outcome.steps,
        won,
        wall.elapsed().as_secs_f64() * 1e3,
    ))
}

/// The macro-engine consensus time for the same clique assembly, the
/// micro-vs-macro cross-check (complete graph only — the population
/// engine has no notion of structure).
fn macro_time(
    n: usize,
    counts: &[u64],
    k: usize,
    eps: f64,
    rapid: bool,
    seed: Seed,
) -> Option<f64> {
    let builder = Sim::builder()
        .topology(Complete::new(n))
        .counts(counts)
        .engine(EngineKind::Macro)
        .seed(seed);
    let builder = if rapid {
        builder.rapid(Params::for_network_with_eps(n, k, eps))
    } else {
        builder.gossip(GossipRule::TwoChoices)
    };
    let outcome = MacroSim::from_builder(builder).ok()?.run();
    if !outcome.converged() {
        return None;
    }
    Some(outcome.time?.as_secs())
}

/// Runs the experiment under `parallelism`. The `shard_workers` axis is forwarded into every sharded build; the
/// `trial_workers` axis spreads trials, as everywhere else.
fn run_on(cfg: &Config, parallelism: Parallelism) -> Report {
    let mut report = Report::new("E25", TITLE, cfg.seed);
    let mut table = Table::new(
        format!(
            "sharded micro engine across topologies, k = {}, eps = {}, {} trials",
            cfg.k, cfg.eps, cfg.trials
        ),
        &[
            "topology",
            "protocol",
            "n",
            "time",
            "steps/n",
            "success",
            "wall ms",
            "macro time",
        ],
    );

    for &n in &cfg.ns {
        for topo in [Topo::ErdosRenyi, Topo::Regular, Topo::Torus, Topo::Clique] {
            let side = (n as f64).sqrt() as usize;
            let actual_n = match topo {
                // A torus needs sides of at least three.
                Topo::Torus if side < 3 => continue,
                Topo::Torus => side * side,
                _ => n as usize,
            };
            let Ok(counts) =
                InitialDistribution::multiplicative_bias(cfg.k, cfg.eps).counts(actual_n as u64)
            else {
                continue;
            };
            let mut protocols = vec![false];
            if cfg.rapid {
                protocols.push(true);
            }
            for rapid in protocols {
                let master = Seed::new(cfg.seed ^ n ^ (topo.tag() << 32) ^ u64::from(rapid));
                let results = run_trials_on(cfg.trials, master, parallelism, {
                    let counts = counts.clone();
                    move |_, seed| {
                        run_one(
                            topo,
                            actual_n,
                            cfg.k,
                            cfg.eps,
                            rapid,
                            &counts,
                            seed,
                            parallelism,
                        )
                    }
                });
                let valid: Vec<&(f64, u64, bool, f64)> = results.iter().flatten().collect();
                if valid.is_empty() {
                    continue;
                }
                let time: OnlineStats = valid.iter().map(|r| r.0).collect();
                let wall: OnlineStats = valid.iter().map(|r| r.3).collect();
                let success =
                    valid.iter().filter(|r| r.2).count() as f64 / results.len().max(1) as f64;
                let steps_per_n = valid.iter().map(|r| r.1).sum::<u64>() as f64
                    / valid.len() as f64
                    / actual_n as f64;
                let macro_col = if topo == Topo::Clique {
                    macro_time(actual_n, &counts, cfg.k, cfg.eps, rapid, master.child(30))
                        .map_or("-".to_string(), |t| format!("{t:.1}"))
                } else {
                    "-".to_string()
                };
                table.push_row(vec![
                    topo.label().to_string(),
                    if rapid { "rapid" } else { "async-two-choices" }.to_string(),
                    actual_n.to_string(),
                    format!("{:.1}", time.mean()),
                    format!("{steps_per_n:.1}"),
                    format!("{success:.2}"),
                    format!("{:.1}", wall.mean()),
                    macro_col,
                ]);
            }
        }
    }
    table.push_note(
        "per-node runs through the epoch-sharded engine (deterministic under \
         any shard count); the complete-graph rows also run the macro \
         (population) engine on the identical assembly — micro and macro \
         consensus times agreeing to a small constant factor is the \
         cross-validation, now at scales the sequential micro engines \
         cannot reach",
    );
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Preset;
    use crate::testkit::quick_report;

    #[test]
    fn quick_run_covers_all_topologies_and_macro_agrees() {
        let report = quick_report(&E25);
        let table = &report.tables[0];
        // Four topologies, gossip only.
        assert_eq!(table.len(), 4);
        let success = table.column_f64("success");
        assert!(
            success.iter().all(|&s| s >= 0.5),
            "plurality should win from eps = 0.5: {success:?}"
        );
        // The clique row carries the micro-vs-macro cross-check: both
        // engines' consensus times are Theta(log n) with constants close
        // enough that a 2.5x band is comfortable.
        let times = table.column_f64("time");
        let macros = table.column_f64("macro time");
        let micro = times.last().expect("clique row");
        let macro_t = macros.last().expect("clique row");
        assert!(*macro_t > 0.0, "macro run must converge");
        let ratio = micro / macro_t;
        assert!(
            (1.0 / 2.5..=2.5).contains(&ratio),
            "micro {micro} vs macro {macro_t}: ratio {ratio}"
        );
    }

    #[test]
    fn sharded_rows_are_shard_count_invariant() {
        // The same quick cell through 1 and 4 shard workers produces the
        // identical report — the engine's bit-identity surfaced at the
        // experiment level.
        let mut map = E25.preset(Preset::Quick);
        map.set("ns", "1024").expect("valid");
        let one = E25.run(&map, Parallelism::parse("1x1").expect("valid"));
        let four = E25.run(&map, Parallelism::parse("1x4").expect("valid"));
        // Everything except wall-clock must match exactly.
        for col in ["topology", "protocol", "n", "time", "steps/n", "success"] {
            assert_eq!(
                one.tables[0].column(col),
                four.tables[0].column(col),
                "column {col} diverged across shard counts"
            );
        }
    }
}
