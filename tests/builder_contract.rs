//! The builder's contract, entry point by entry point.
//!
//! `SimBuilder` is the one place that checks a cell of the protocol ×
//! topology × clock × faults grid before any engine runs. These tests
//! pin what each of the five entry points does with every single bad
//! axis — the exact `BuildError`, variant and payload, or `Ok` where the
//! engine honours the axis — and fuzz random assemblies through them:
//! nothing panics, and every accepted run with a step budget ends.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rapid_plurality::core::facade::MIN_RATE;
use rapid_plurality::core::ConfigError;
use rapid_plurality::net::Cluster;
use rapid_plurality::prelude::*;
use rapid_plurality::sim::fault::{AdversaryKind, AdversaryPlan, ChurnEvent, FaultError};
use rapid_plurality::sim::fault::{FaultPlan, LatencyModel};

/// The five ways into an engine.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Entry {
    /// `build()`, exact sequential engine.
    Seq,
    /// `build()` with `.parallelism(1x1)`, the epoch engine.
    Epoch,
    /// `MacroSim::from_builder`.
    Macro,
    /// `MeanFieldSim::from_builder`.
    MeanField,
    /// `Cluster::from_builder`.
    Net,
}

const ENTRIES: [Entry; 5] = [
    Entry::Seq,
    Entry::Epoch,
    Entry::Macro,
    Entry::MeanField,
    Entry::Net,
];

const KINDS: [EngineKind; 4] = [
    EngineKind::Micro,
    EngineKind::Macro,
    EngineKind::MeanField,
    EngineKind::Net,
];

impl Entry {
    fn kind(self) -> EngineKind {
        match self {
            Entry::Seq | Entry::Epoch => EngineKind::Micro,
            Entry::Macro => EngineKind::Macro,
            Entry::MeanField => EngineKind::MeanField,
            Entry::Net => EngineKind::Net,
        }
    }

    /// Builds through this entry point as declared: the builder's own
    /// kind is left as the caller set it.
    fn build(self, builder: SimBuilder) -> Result<(), BuildError> {
        match self {
            Entry::Seq => builder.build().map(drop),
            Entry::Epoch => builder.parallelism(one_by_one()).build().map(drop),
            Entry::Macro => MacroSim::from_builder(builder).map(drop),
            Entry::MeanField => MeanFieldSim::from_builder(builder).map(drop),
            Entry::Net => Cluster::from_builder(builder).map(drop),
        }
    }
}

fn one_by_one() -> Parallelism {
    Parallelism::parse("1x1").expect("valid parallelism")
}

fn base() -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(16))
        .counts(&[10, 6])
        .gossip(GossipRule::TwoChoices)
        .seed(Seed::new(1))
}

fn rapid() -> Params {
    Params::for_network(16, 2)
}

fn eq_rate(rate: f64) -> SimBuilder {
    base().clock(Clock::EventQueue { rate })
}

fn faults(plan: FaultPlan) -> SimBuilder {
    base().faults(plan)
}

/// A Lomax latency law of scale 1, whose largest draw `2^(53/shape) − 1`
/// is finite only for shapes above 53/1024 ≈ 0.0518.
fn pareto(shape: f64) -> LatencyModel {
    LatencyModel::Pareto { scale: 1.0, shape }
}

fn latency(model: LatencyModel) -> SimBuilder {
    faults(FaultPlan::none().with_latency(model))
}

/// One row: a single bad axis and its outcome at `[Seq, Epoch, Macro,
/// MeanField, Net]`.
type Row = (
    &'static str,
    fn() -> SimBuilder,
    [Result<(), BuildError>; 5],
);

fn all(e: BuildError) -> [Result<(), BuildError>; 5] {
    [
        Err(e.clone()),
        Err(e.clone()),
        Err(e.clone()),
        Err(e.clone()),
        Err(e),
    ]
}

const SYNC: [&str; 3] = [
    "synchronous protocols (epochs discretise the Poisson clock)",
    "synchronous protocols (population dynamics model the Poisson-clock chain)",
    "synchronous protocols (a deployment has no global round barrier)",
];
const HALT: [&str; 3] = [
    "per-node halt budgets (epoch merges carry no per-node tick counts)",
    "per-node halt budgets (bucket state carries no per-node tick counts)",
    "per-node halt budgets (termination is detected by the gossiped beacon)",
];
const JITTER: [&str; 3] = [
    "jitter (response delays reorder activations across the epoch boundary)",
    "jitter (response delays reorder individual activations)",
    "jitter (a real transport's response delays are observed, not modeled)",
];
const SKEW: [&str; 3] = [
    "heterogeneous clock rates (every node draws one Poisson(rate·τ) count)",
    "heterogeneous clock rates (buckets assume exchangeable nodes)",
    "heterogeneous clock rates (every node runs one local Poisson clock)",
];
const EPOCH_FAULTS: &str = "fault plans (crash/loss bookkeeping is per-activation, not per-epoch)";
const NET_FAULTS: &str = "fault plans (a deployment's losses and delays are real, not injected)";
const RATE: &str = "event-queue rate must be finite and at least MIN_RATE (1e-280)";
const LATENCY: &str = "latency models (per-edge delays reorder individual activations)";
const EXP_FLOOR: &str = "exponential latency rate must be finite and at least MIN_RATE (1e-280)";
const MEAN_FIELD_STOPS: &str =
    "stop conditions on the mean-field engine (it integrates to its own horizon)";

/// `Ok` on the micro engines, the per-engine `*Unsupported` otherwise.
fn unsupported(what: [&'static str; 3]) -> [Result<(), BuildError>; 5] {
    [
        Ok(()),
        Err(BuildError::ShardedUnsupported(what[0])),
        Err(BuildError::MacroUnsupported(what[1])),
        Err(BuildError::MacroUnsupported(what[1])),
        Err(BuildError::NetUnsupported(what[2])),
    ]
}

/// A per-node fault knob: the sequential engine runs it, everyone else
/// rejects it.
fn per_node_fault(macro_why: &'static str) -> [Result<(), BuildError>; 5] {
    [
        Ok(()),
        Err(BuildError::ShardedUnsupported(EPOCH_FAULTS)),
        Err(BuildError::MacroUnsupported(macro_why)),
        Err(BuildError::MacroUnsupported(macro_why)),
        Err(BuildError::NetUnsupported(NET_FAULTS)),
    ]
}

fn rows() -> Vec<Row> {
    let size = BuildError::SizeMismatch {
        topology_n: 16,
        config_n: 17,
    };
    vec![
        ("control", base, [Ok(()), Ok(()), Ok(()), Ok(()), Ok(())]),
        (
            "missing topology",
            || {
                Sim::builder()
                    .counts(&[10, 6])
                    .gossip(GossipRule::TwoChoices)
            },
            all(BuildError::MissingTopology),
        ),
        (
            "missing initial state",
            || {
                Sim::builder()
                    .topology(Complete::new(16))
                    .gossip(GossipRule::TwoChoices)
            },
            all(BuildError::MissingInitialState),
        ),
        (
            "missing protocol",
            || Sim::builder().topology(Complete::new(16)).counts(&[10, 6]),
            all(BuildError::MissingProtocol),
        ),
        (
            "size mismatch, counts",
            || base().counts(&[10, 7]),
            all(size.clone()),
        ),
        (
            "size mismatch, assignment",
            || {
                let config = Configuration::from_counts(&[10, 7]).expect("valid counts");
                base().configuration(config)
            },
            all(size),
        ),
        (
            "one color",
            || base().counts(&[16]),
            all(BuildError::Config(ConfigError::TooFewColors)),
        ),
        (
            "infeasible distribution",
            || base().distribution(InitialDistribution::additive_bias(2, 16)),
            all(BuildError::Distribution(
                DistributionError::PopulationTooSmall {
                    n: 16,
                    why: "gap must be smaller than n",
                },
            )),
        ),
        (
            "invalid rapid params",
            || {
                let mut params = rapid();
                params.delta = 0;
                base().rapid(params)
            },
            all(BuildError::InvalidParams("block length must be positive")),
        ),
        // A malformed value is its own error on every engine, ahead of
        // an axis the engine cannot honour.
        (
            "halt_after(0)",
            || base().halt_after(0),
            all(BuildError::InvalidHaltBudget),
        ),
        (
            "halt_after, gossip",
            || base().halt_after(100),
            unsupported(HALT),
        ),
        (
            "halt_after, rapid",
            || base().rapid(rapid()).halt_after(100),
            [
                Err(BuildError::InvalidHaltBudget),
                Err(BuildError::InvalidHaltBudget),
                Err(BuildError::MacroUnsupported(HALT[1])),
                Err(BuildError::MacroUnsupported(HALT[1])),
                Err(BuildError::NetUnsupported(HALT[2])),
            ],
        ),
        (
            "jitter -1",
            || base().jitter(-1.0),
            all(BuildError::InvalidJitter(-1.0)),
        ),
        ("jitter 2", || base().jitter(2.0), unsupported(JITTER)),
        (
            "rate 0",
            || eq_rate(0.0),
            all(BuildError::InvalidClock(RATE)),
        ),
        (
            "rate NaN",
            || eq_rate(f64::NAN),
            all(BuildError::InvalidClock(RATE)),
        ),
        (
            "rate 1e-300",
            || eq_rate(1e-300),
            all(BuildError::InvalidClock(RATE)),
        ),
        (
            "rate MIN_RATE",
            || eq_rate(MIN_RATE),
            [Ok(()), Ok(()), Ok(()), Ok(()), Ok(())],
        ),
        (
            "skew 1",
            || base().clock(Clock::UniformSkew { skew: 1.0 }),
            all(BuildError::InvalidClock("skew must lie in [0, 1)")),
        ),
        (
            "skew 0.5",
            || base().clock(Clock::UniformSkew { skew: 0.5 }),
            unsupported(SKEW),
        ),
        (
            "rates of the wrong length",
            || base().clock(Clock::Rates(vec![1.0; 15])),
            all(BuildError::RatesLength {
                expected: 16,
                got: 15,
            }),
        ),
        (
            "loss 1.5",
            || faults(FaultPlan::none().with_loss(1.5)),
            all(BuildError::Faults(FaultError::InvalidLoss(1.5))),
        ),
        (
            "loss 0.1",
            || faults(FaultPlan::none().with_loss(0.1)),
            [
                Ok(()),
                Err(BuildError::ShardedUnsupported(EPOCH_FAULTS)),
                Ok(()),
                Ok(()),
                Err(BuildError::NetUnsupported(NET_FAULTS)),
            ],
        ),
        (
            "latency",
            || latency(LatencyModel::Constant(1.0)),
            per_node_fault(LATENCY),
        ),
        (
            "latency exp(rate=1e-308)",
            || latency(LatencyModel::Exponential { rate: 1e-308 }),
            all(BuildError::Faults(FaultError::InvalidLatency(EXP_FLOOR))),
        ),
        (
            "latency exp(rate=MIN_RATE)",
            || latency(LatencyModel::Exponential { rate: MIN_RATE }),
            per_node_fault(LATENCY),
        ),
        (
            "latency pareto(shape=0.01)",
            || latency(pareto(0.01)),
            all(BuildError::Faults(FaultError::InvalidLatency(
                "Pareto latency's largest draw is not a finite time",
            ))),
        ),
        (
            "latency pareto(shape=0.052)",
            || latency(pareto(0.052)),
            per_node_fault(LATENCY),
        ),
        (
            "churn",
            || {
                let crash = ChurnEvent::crash(NodeId::new(3), SimTime::from_secs(1.0));
                faults(FaultPlan::none().with_churn(vec![crash]))
            },
            per_node_fault("churn (crash/rejoin schedules name individual nodes)"),
        ),
        (
            "adversary",
            || {
                faults(FaultPlan::none().with_adversary(AdversaryPlan {
                    kind: AdversaryKind::Adaptive,
                    budget: 5,
                    start: SimTime::from_secs(1.0),
                    interval: 1.0,
                }))
            },
            per_node_fault("adversaries (corruptions target individual nodes)"),
        ),
        (
            "neutral fault plan",
            || faults(FaultPlan::none()),
            [Ok(()), Ok(()), Ok(()), Ok(()), Ok(())],
        ),
        (
            "synchronous protocol",
            || base().protocol(GossipRule::TwoChoices),
            unsupported(SYNC),
        ),
        (
            "synchronous protocol with faults",
            || {
                base()
                    .protocol(GossipRule::TwoChoices)
                    .faults(FaultPlan::none().with_loss(0.1))
            },
            [
                Err(BuildError::FaultsRequireAsync),
                Err(BuildError::FaultsRequireAsync),
                Err(BuildError::MacroUnsupported(SYNC[1])),
                Err(BuildError::MacroUnsupported(SYNC[1])),
                Err(BuildError::NetUnsupported(SYNC[2])),
            ],
        ),
        (
            "cycle topology",
            || base().topology(Cycle::new(16)),
            [
                Ok(()),
                Ok(()),
                Err(BuildError::MacroRequiresComplete),
                Err(BuildError::MacroRequiresComplete),
                Ok(()),
            ],
        ),
        (
            "first-halt stop",
            || base().stop(StopCondition::FirstHalt),
            [
                Ok(()),
                Ok(()),
                Ok(()),
                Err(BuildError::MacroUnsupported(MEAN_FIELD_STOPS)),
                Err(BuildError::NetUnsupported(
                    "the first-halt stop (a deployment observes halts only via messages)",
                )),
            ],
        ),
        (
            "round-budget stop",
            || base().stop(StopCondition::RoundBudget(5)),
            [
                Ok(()),
                Ok(()),
                Ok(()),
                Err(BuildError::MacroUnsupported(MEAN_FIELD_STOPS)),
                Err(BuildError::NetUnsupported(
                    "round budgets (a deployment has no synchronous rounds)",
                )),
            ],
        ),
        (
            "step-budget stop",
            || base().stop(StopCondition::StepBudget(5)),
            [
                Ok(()),
                Ok(()),
                Ok(()),
                Err(BuildError::MacroUnsupported(MEAN_FIELD_STOPS)),
                Ok(()),
            ],
        ),
        (
            "time-horizon stop",
            || base().stop(StopCondition::TimeHorizon(SimTime::from_secs(5.0))),
            [
                Ok(()),
                Ok(()),
                Ok(()),
                Err(BuildError::MacroUnsupported(MEAN_FIELD_STOPS)),
                Ok(()),
            ],
        ),
    ]
}

#[test]
fn every_entry_point_reports_each_bad_axis_exactly() {
    let mut wrong = Vec::new();
    for (axis, make, expected) in rows() {
        for (entry, expected) in ENTRIES.into_iter().zip(expected) {
            let got = entry.build(make().engine(entry.kind()));
            if got != expected {
                wrong.push(format!(
                    "{axis} @ {entry:?}: got {got:?}, want {expected:?}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The latency laws closest to the overflow bound run to their budget on
/// Two-Choices over K_256, where the laws beyond it used to panic mid-run.
#[test]
fn latency_laws_at_the_overflow_bound_run_to_their_budget() {
    for model in [LatencyModel::Exponential { rate: MIN_RATE }, pareto(0.052)] {
        let mut sim = Sim::builder()
            .topology(Complete::new(256))
            .counts(&[160, 96])
            .gossip(GossipRule::TwoChoices)
            .faults(FaultPlan::none().with_latency(model))
            .stop(StopCondition::StepBudget(20_000))
            .build()
            .expect("a law inside the bound builds");
        let outcome = sim.run();
        let finite = outcome.time.is_some_and(|t| t.as_secs().is_finite());
        assert!(finite, "{model}: {outcome:?}");
    }
}

/// The mismatch payload names the entry point for the declared kind,
/// whichever entry point was called.
fn mismatch(declared: EngineKind) -> &'static str {
    match declared {
        EngineKind::Micro => "SimBuilder::build for Engine::Micro",
        EngineKind::Macro => "MacroSim::from_builder for Engine::Macro",
        EngineKind::MeanField => "MeanFieldSim::from_builder for Engine::MeanField",
        EngineKind::Net => "Cluster::from_builder for Engine::Net",
    }
}

#[test]
fn every_kind_mismatch_names_the_entry_point() {
    let mut wrong = Vec::new();
    for entry in ENTRIES {
        for declared in KINDS.into_iter().filter(|&k| k != entry.kind()) {
            let want = Err(BuildError::EngineMismatch(mismatch(declared)));
            let got = entry.build(base().engine(declared));
            if got != want {
                wrong.push(format!("{entry:?} declared {declared:?}: got {got:?}"));
            }
            // The kind is checked before any other axis, except between
            // the two macro engines, which share `build_macro()`.
            let macros = [EngineKind::Macro, EngineKind::MeanField];
            if !(macros.contains(&declared) && macros.contains(&entry.kind())) {
                let got = entry.build(Sim::builder().engine(declared));
                if got != want {
                    wrong.push(format!("{entry:?} declared {declared:?}, empty: {got:?}"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn engines_without_shards_reject_parallelism() {
    let shards =
        BuildError::MacroUnsupported("parallelism (count-based state has no nodes to shard)");
    let workers = BuildError::NetUnsupported(
        "parallelism (a deployment's transport workers are set per run)",
    );
    for (entry, want) in [
        (Entry::Macro, shards.clone()),
        (Entry::MeanField, shards),
        (Entry::Net, workers),
    ] {
        let parallel = base().parallelism(Parallelism::parse("1x4").expect("valid"));
        assert_eq!(
            entry.build(parallel.engine(entry.kind())),
            Err(want),
            "{entry:?}"
        );
    }
}

#[test]
fn counts_whose_sum_overflows_are_a_config_error() {
    let counts = [1u64 << 63, 1 << 63, 2];
    for entry in ENTRIES {
        let builder = Sim::builder()
            .topology(Complete::new(2))
            .counts(&counts)
            .gossip(GossipRule::TwoChoices)
            .engine(entry.kind());
        assert_eq!(
            entry.build(builder),
            Err(BuildError::Config(ConfigError::PopulationOverflow)),
            "{entry:?}"
        );
    }
}

/// Values a rate, skew or jitter axis draws from: invalid, degenerate
/// and ordinary.
const RATES: [f64; 9] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    1e-300,
    MIN_RATE,
    0.5,
    1.0,
    2.0,
];

fn pick<T: Clone>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.bounded_usize(items.len())].clone()
}

/// Rates every clock and jitter check accepts (as a skew, only the
/// first two lie in `[0, 1)`).
const USABLE: [f64; 4] = [MIN_RATE, 0.5, 1.0, 2.0];

/// A usable rate three times in four, otherwise any of [`RATES`].
fn rate(rng: &mut SimRng) -> f64 {
    if rng.bounded(4) == 0 {
        pick(rng, &RATES)
    } else {
        pick(rng, &USABLE)
    }
}

/// How a random assembly is handed to an engine.
#[derive(Copy, Clone, Debug)]
enum Door {
    Build,
    Macro,
    MeanField,
    Net,
}

/// One random assembly, kept as plain data so a failure prints it.
#[derive(Clone, Debug)]
struct Assembly {
    n: usize,
    cycle: bool,
    init: Option<Init>,
    protocol: Option<Proto>,
    kind: EngineKind,
    door: Door,
    clock: Clock,
    jitter: Option<f64>,
    halt_after: Option<u64>,
    faults: Option<FaultPlan>,
    parallel: Option<&'static str>,
    stops: Vec<StopCondition>,
    shuffle: bool,
    seed: u64,
}

#[derive(Clone, Debug)]
enum Init {
    Counts(Vec<u64>),
    Assignment(Vec<u64>),
    Distribution(InitialDistribution),
}

#[derive(Clone, Debug)]
enum Proto {
    Voter,
    TwoChoices,
    ThreeMajority,
    OneExtraBit,
    Gossip(GossipRule),
    Rapid { broken: bool },
}

/// Counts that fit `n` exactly, over `k` colors, some possibly empty.
fn exact_counts(rng: &mut SimRng, n: usize, k: usize) -> Vec<u64> {
    let mut counts = vec![0u64; k];
    for _ in 0..n {
        counts[rng.bounded_usize(k)] += 1;
    }
    counts
}

impl Assembly {
    /// Draws an assembly from `rng`; Pareto latency laws draw from
    /// `tails`, so they leave every other assembly's draws as they were.
    fn random(rng: &mut SimRng, tails: &mut SimRng) -> Self {
        let n = 2 + rng.bounded_usize(15);
        let k = if rng.bounded(20) == 0 {
            1
        } else {
            2 + rng.bounded_usize(3)
        };
        let init = match rng.bounded(24) {
            0 => None,
            1 => Some(Init::Counts(vec![0; k])),
            2 => {
                let mut counts = exact_counts(rng, n - 1, k);
                counts[0] += rng.bounded(2) * 2; // short, or one too many
                Some(Init::Counts(counts))
            }
            3 => Some(Init::Counts(pick(
                rng,
                &[
                    vec![1 << 63, 1 << 63, 2],
                    vec![u64::MAX, 1],
                    vec![u64::MAX, u64::MAX],
                ],
            ))),
            4 | 5 => {
                let size = n + usize::from(rng.bounded(4) == 0);
                Some(Init::Assignment(exact_counts(rng, size, k)))
            }
            6 | 7 => Some(Init::Distribution(if rng.bounded(2) == 0 {
                InitialDistribution::additive_bias(k, rng.bounded(n as u64 + 1))
            } else {
                InitialDistribution::multiplicative_bias(k, rate(rng))
            })),
            _ => Some(Init::Counts(exact_counts(rng, n, k))),
        };
        let protocol = match rng.bounded(30) {
            0 => None,
            1 => Some(Proto::Voter),
            2 => Some(Proto::TwoChoices),
            3 => Some(Proto::ThreeMajority),
            4 => Some(Proto::OneExtraBit),
            5..=19 => Some(Proto::Gossip(pick(
                rng,
                &[
                    GossipRule::Voter,
                    GossipRule::TwoChoices,
                    GossipRule::ThreeMajority,
                ],
            ))),
            _ => Some(Proto::Rapid {
                broken: rng.bounded(8) == 0,
            }),
        };
        let kind = pick(rng, &KINDS);
        let matching = match kind {
            EngineKind::Micro => Door::Build,
            EngineKind::Macro => Door::Macro,
            EngineKind::MeanField => Door::MeanField,
            EngineKind::Net => Door::Net,
        };
        let door = if rng.bounded(20) == 0 {
            pick(rng, &[Door::Build, Door::Macro, Door::MeanField, Door::Net])
        } else {
            matching
        };
        let clock = match rng.bounded(6) {
            0 | 1 => Clock::Sequential(TimeMode::Expected),
            2 => Clock::Sequential(TimeMode::Sampled),
            3 => Clock::EventQueue { rate: rate(rng) },
            4 => Clock::UniformSkew { skew: rate(rng) },
            _ => {
                let len = if rng.bounded(4) == 0 { n + 1 } else { n };
                let usable = rng.bounded(4) != 0;
                let rates = (0..len).map(|_| match usable {
                    true => pick(rng, &USABLE),
                    false => pick(rng, &RATES),
                });
                Clock::Rates(rates.collect())
            }
        };
        let jitter = (rng.bounded(8) == 0).then(|| rate(rng));
        let halt_after = match rng.bounded(10) {
            0 => Some(0),
            1 => Some(1),
            2 => Some(50),
            _ => None,
        };
        let faults = match rng.bounded(16) {
            0 => Some(FaultPlan::none()),
            1 => Some(FaultPlan::none().with_loss(pick(rng, &[0.1, 1.0, 1.5, f64::NAN]))),
            2 => {
                let rate = rate(rng);
                // Half the laws are Lomax tails whose small shapes put the
                // largest draw on both sides of overflow.
                let law = match tails.bounded(2) {
                    0 => LatencyModel::Exponential { rate },
                    _ => LatencyModel::Pareto {
                        scale: pick(tails, &[1.0, 1e300]),
                        shape: pick(tails, &[0.01, 0.052, 0.5, 2.0]),
                    },
                };
                Some(FaultPlan::none().with_latency(law))
            }
            3 => {
                let node = NodeId::new(rng.bounded_usize(n + 2));
                let at = SimTime::from_secs(1.0);
                Some(FaultPlan::none().with_churn(vec![ChurnEvent::crash(node, at)]))
            }
            4 => Some(FaultPlan::none().with_adversary(AdversaryPlan {
                kind: AdversaryKind::Oblivious,
                budget: rng.bounded(3),
                start: SimTime::from_secs(0.5),
                interval: rate(rng),
            })),
            _ => None,
        };
        let parallel = pick(rng, &[None, None, None, Some("1x1"), Some("1x2")]);
        let stops = (0..rng.bounded(3))
            .map(|_| match rng.bounded(6) {
                0..=2 => StopCondition::StepBudget(1 + rng.bounded(2_000)),
                3 => StopCondition::TimeHorizon(SimTime::from_secs(pick(rng, &[0.0, 5.0, 1e300]))),
                4 => StopCondition::RoundBudget(1 + rng.bounded(4)),
                _ => StopCondition::FirstHalt,
            })
            .collect();
        Assembly {
            n,
            cycle: n >= 3 && rng.bounded(4) == 0,
            init,
            protocol,
            kind,
            door,
            clock,
            jitter,
            halt_after,
            faults,
            parallel,
            stops,
            shuffle: rng.bounded(2) == 0,
            seed: rng.next_u64(),
        }
    }

    fn builder(&self) -> SimBuilder {
        let mut b = Sim::builder()
            .engine(self.kind)
            .clock(self.clock.clone())
            .seed(Seed::new(self.seed))
            .shuffle(self.shuffle);
        b = if self.cycle {
            b.topology(Cycle::new(self.n))
        } else {
            b.topology(Complete::new(self.n))
        };
        let k = match &self.init {
            None => 2,
            Some(Init::Counts(counts) | Init::Assignment(counts)) => counts.len(),
            Some(Init::Distribution(dist)) => dist.k(),
        };
        b = match &self.init {
            None => b,
            Some(Init::Counts(counts)) => b.counts(counts),
            Some(Init::Assignment(counts)) => match Configuration::from_counts(counts) {
                Ok(config) => b.configuration(config),
                Err(_) => b.counts(counts),
            },
            Some(Init::Distribution(dist)) => b.distribution(dist.clone()),
        };
        b = match &self.protocol {
            None => b,
            Some(Proto::Voter) => b.protocol(GossipRule::Voter),
            Some(Proto::TwoChoices) => b.protocol(GossipRule::TwoChoices),
            Some(Proto::ThreeMajority) => b.protocol(GossipRule::ThreeMajority),
            Some(Proto::OneExtraBit) => b.protocol(OneExtraBit::for_network(self.n, k.max(2))),
            Some(Proto::Gossip(rule)) => b.gossip(*rule),
            Some(Proto::Rapid { broken }) => {
                let mut params = Params::for_network(self.n.max(4), k.max(2));
                if *broken {
                    params.delta = 0;
                }
                b.rapid(params)
            }
        };
        if let Some(rate) = self.jitter {
            b = b.jitter(rate);
        }
        if let Some(ticks) = self.halt_after {
            b = b.halt_after(ticks);
        }
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        if let Some(par) = self.parallel {
            b = b.parallelism(Parallelism::parse(par).expect("valid parallelism"));
        }
        for &stop in &self.stops {
            b = b.stop(stop);
        }
        b
    }

    /// Builds through the assembly's door, and runs it when a step
    /// budget bounds the run: `None` if the build was rejected, else
    /// whether it ran.
    fn exercise(&self) -> Option<bool> {
        let budgeted = self
            .stops
            .iter()
            .any(|s| matches!(s, StopCondition::StepBudget(_)));
        let builder = self.builder();
        match self.door {
            Door::Build => {
                let mut sim = builder.build().ok()?;
                if budgeted {
                    sim.run();
                }
            }
            Door::Macro => {
                let mut sim = MacroSim::from_builder(builder).ok()?;
                if budgeted {
                    sim.run();
                }
            }
            Door::MeanField => {
                let sim = MeanFieldSim::from_builder(builder).ok()?;
                if budgeted {
                    sim.run();
                }
            }
            Door::Net => {
                let mut cluster = Cluster::from_builder(builder).ok()?;
                if budgeted {
                    cluster.run_channel();
                }
            }
        }
        Some(budgeted)
    }
}

#[test]
fn random_assemblies_never_panic_and_budgeted_runs_end() {
    let seed = Seed::new(0x5EED_B11D);
    let mut rng = SimRng::from_seed_value(seed);
    let mut tails = SimRng::from_seed_value(seed.child(1));
    let (mut accepted, mut ran) = (0, 0);
    let mut panics = Vec::new();
    for case in 0..2_000 {
        let assembly = Assembly::random(&mut rng, &mut tails);
        match catch_unwind(AssertUnwindSafe(|| assembly.exercise())) {
            Ok(None) => {}
            Ok(Some(budgeted)) => {
                accepted += 1;
                ran += usize::from(budgeted);
            }
            Err(_) => panics.push(format!("case {case}: {assembly:?}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The mix must reach the engines, not only the validators.
    assert!(
        accepted >= 250 && ran >= 100,
        "only {accepted} assemblies built and {ran} ran"
    );
}
