//! The unified simulation façade: one entry point for synchronous rounds,
//! asynchronous gossip, and the paper's full rapid protocol.
//!
//! The paper's landscape is a grid of **protocol × topology × clock
//! model × workload**, and the related literature (positive-aging
//! protocols, gossip-model plurality consensus) varies exactly these axes.
//! [`Sim::builder`] makes every cell of that grid one expression:
//!
//! ```
//! use rapid_core::facade::{Sim, StopCondition};
//! use rapid_core::prelude::*;
//! use rapid_graph::prelude::*;
//! use rapid_sim::prelude::*;
//!
//! // Synchronous Two-Choices on K_200 until unanimity.
//! let outcome = Sim::builder()
//!     .topology(Complete::new(200))
//!     .counts(&[150, 50])
//!     .protocol(GossipRule::TwoChoices)
//!     .seed(Seed::new(1))
//!     .stop(StopCondition::RoundBudget(10_000))
//!     .build()
//!     .expect("valid experiment")
//!     .run();
//! assert_eq!(outcome.winner, Some(Color::new(0)));
//!
//! // The paper's asynchronous protocol under an event-queue clock.
//! let outcome = Sim::builder()
//!     .topology(Complete::new(256))
//!     .distribution(InitialDistribution::multiplicative_bias(2, 0.5))
//!     .rapid(Params::for_network_with_eps(256, 2, 0.5))
//!     .clock(Clock::EventQueue { rate: 1.0 })
//!     .seed(Seed::new(2))
//!     .build()
//!     .expect("valid experiment")
//!     .run();
//! assert!(outcome.converged());
//! ```
//!
//! Every knob the original drivers hard-wired is an explicit, composable
//! axis:
//!
//! * **topology** — any [`Topology`];
//! * **initial state** — explicit counts, a full [`Configuration`], or an
//!   [`InitialDistribution`] recipe materialised against the topology;
//! * **protocol** — any [`SyncProtocol`] in rounds (a [`GossipRule`]
//!   among them), a [`GossipRule`] under a clock, or the full rapid
//!   protocol via [`Params`] (one [`Protocol`] selector);
//! * **clock** — the sequential model, per-node Poisson clocks, skewed
//!   clock rates, optionally wrapped in exponential response delays
//!   ([`SimBuilder::jitter`]);
//! * **faults** — a [`FaultPlan`] composing message loss, per-edge
//!   latency distributions, churn schedules, and budgeted
//!   opinion-corrupting adversaries ([`SimBuilder::faults`]; asynchronous
//!   protocols only);
//! * **stopping** — composable [`StopCondition`]s on top of the implicit
//!   unanimity check;
//! * **observation** — [`Observer`] hooks with a per-round /
//!   per-time-unit cadence ([`RoundTrace`] and [`SpreadTrace`] are
//!   ready-made observers).
//!
//! `build()` validates the assembly and returns a typed [`BuildError`]
//! instead of panicking; every run produces the same serialisable
//! [`Outcome`].

use std::sync::Arc;

use rapid_graph::topology::Topology;
use rapid_obs::{Obs, TraceEvent};
use rapid_sim::fault::{FaultError, FaultPlan, LatencyModel, LatencyScheduler};
use rapid_sim::parallelism::Parallelism;
pub use rapid_sim::poisson::MIN_RATE;
use rapid_sim::rng::{Seed, SimRng};
use rapid_sim::scheduler::{ActivationSource, EventQueueScheduler, SequentialScheduler, TimeMode};
use rapid_sim::time::SimTime;

use crate::asynchronous::kernel::{AsyncProtocol, GossipRule};
use crate::asynchronous::params::Params;
use crate::asynchronous::schedule::Schedule;
use crate::asynchronous::sequential::{RapidOutcome, SeqSim, WorkingTimeStats};
use crate::asynchronous::sharded::ShardedSim;
use crate::convergence::{ConvergenceError, SyncOutcome};
use crate::distributions::{DistributionError, InitialDistribution};
use crate::opinion::{Color, ColorCounts, ConfigError, Configuration};
use crate::sync::engine::{RoundTrace, SyncProtocol};

/// A boxed topology, as stored by the façade.
pub type BoxedTopology = Box<dyn Topology + Send + Sync>;
/// A boxed activation source, as stored by the façade.
pub type BoxedSource = Box<dyn ActivationSource + Send>;

/// The protocol axis: every consensus dynamic in this crate behind one
/// selector.
#[derive(Debug)]
pub enum Protocol {
    /// A synchronous-round protocol (a [`GossipRule`], OneExtraBit, or
    /// anything implementing [`SyncProtocol`]).
    Sync(Box<dyn SyncProtocol + Send>),
    /// Plain asynchronous gossip under one update rule.
    Gossip(GossipRule),
    /// The paper's full working-time-scheduled protocol (Theorem 1.3).
    Rapid(Params),
}

/// The engine axis: at what resolution the dynamics are simulated.
///
/// * [`EngineKind::Micro`] — one struct per node (every engine that
///   existed before the macro subsystem). Built by [`SimBuilder::build`];
///   exact, but state is `O(n)`.
/// * [`EngineKind::Macro`] — population-level stochastic simulation:
///   occupancy counts per (opinion, protocol-state) bucket, advanced by
///   τ-leaped multinomial batches with an exact single-event fallback.
///   State is `O(k · levels)`, so `n = 10⁸–10⁹` is practical. Built via
///   [`SimBuilder::build_macro`] and executed by the `rapid-macro`
///   crate.
/// * [`EngineKind::MeanField`] — the deterministic `n → ∞` limit: RK4
///   over the expected-drift equations (no randomness, no seed
///   dependence). Also built via [`SimBuilder::build_macro`] and
///   executed by `rapid-macro`.
/// * [`EngineKind::Net`] — not a simulator at all: real per-node state
///   machines exchanging serialized messages over a transport. Built via
///   [`SimBuilder::build_net`] and executed by the `rapid-net`
///   crate, with the micro engine as statistical oracle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Per-node simulation (the default).
    #[default]
    Micro,
    /// Count-based population dynamics (τ-leap + exact fallback).
    Macro,
    /// Deterministic mean-field ODE integration.
    MeanField,
    /// Real message-passing runtime (`rapid-net`).
    Net,
}

impl EngineKind {
    /// Stable lower-case label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Micro => "micro",
            EngineKind::Macro => "macro",
            EngineKind::MeanField => "mean-field",
            EngineKind::Net => "net",
        }
    }
}

/// The protocol selection of a macro-engine run: the subset of
/// [`Protocol`] whose dynamics are exchangeable (identical update rule for
/// every node), which is what a count-based engine can represent.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MacroProtocol {
    /// Plain asynchronous gossip under one update rule.
    Gossip(GossipRule),
    /// The paper's full working-time-scheduled protocol.
    Rapid(Params),
}

impl MacroProtocol {
    /// Short human-readable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            MacroProtocol::Gossip(rule) => rule.name(),
            MacroProtocol::Rapid(_) => "rapid",
        }
    }
}

impl From<MacroProtocol> for Protocol {
    fn from(protocol: MacroProtocol) -> Self {
        match protocol {
            MacroProtocol::Gossip(rule) => Protocol::Gossip(rule),
            MacroProtocol::Rapid(params) => Protocol::Rapid(params),
        }
    }
}

/// The per-node engines' protocol, with the Rapid schedule table built
/// once.
impl From<MacroProtocol> for AsyncProtocol {
    fn from(protocol: MacroProtocol) -> Self {
        match protocol {
            MacroProtocol::Gossip(rule) => AsyncProtocol::Gossip(rule),
            MacroProtocol::Rapid(params) => AsyncProtocol::Rapid(Schedule::new(params)),
        }
    }
}

/// A fully validated description of a population-level run: everything a
/// macro engine needs, with **no per-node state** — building one at
/// `n = 10⁹` allocates `O(k)`, not `O(n)`.
///
/// Produced by [`SimBuilder::build_macro`]; executed by
/// `rapid_macro::MacroSim` ([`EngineKind::Macro`]) or
/// `rapid_macro::MeanFieldSim` ([`EngineKind::MeanField`]). The spec is
/// pure data so the builder (validation) and the engines (execution) can
/// live on opposite sides of the crate graph.
#[derive(Clone, Debug, PartialEq)]
pub struct MacroSpec {
    /// Which macro engine was selected ([`EngineKind::Macro`] or
    /// [`EngineKind::MeanField`], never [`EngineKind::Micro`]).
    pub kind: EngineKind,
    /// Population size.
    pub n: u64,
    /// Per-color initial support counts (color 0 first, sums to `n`).
    pub counts: Vec<u64>,
    /// The protocol to run.
    pub protocol: MacroProtocol,
    /// Poisson clock rate (ticks per node per time unit). The macro
    /// engine simulates the embedded activation chain, so the rate only
    /// scales reported times.
    pub rate: f64,
    /// Per-message loss probability (`0.0` when no fault plan was set —
    /// the only fault knob whose semantics survive aggregation).
    pub loss: f64,
    /// Master seed (ignored by the deterministic mean-field engine).
    pub seed: Seed,
    /// Stop conditions, checked on top of the implicit unanimity check
    /// (none on the mean-field engine, which rejects them).
    pub stops: Vec<StopCondition>,
}

impl MacroSpec {
    /// Number of opinions.
    pub fn k(&self) -> usize {
        self.counts.len()
    }
}

/// A fully validated description of a real message-passing deployment:
/// everything the `rapid-net` cluster orchestrator needs to boot `n`
/// node state machines, with execution (transports, event loops) kept
/// entirely on the other side of the crate graph.
///
/// Produced by [`SimBuilder::build_net`]; executed by
/// `rapid_net::Cluster` ([`EngineKind::Net`]). Unlike [`MacroSpec`] the
/// spec carries the full per-node initial assignment — a deployment has
/// per-node state by definition, and on structured topologies the
/// placement of opinions matters.
pub struct NetSpec {
    /// The topology nodes sample their pull targets from.
    pub topology: BoxedTopology,
    /// Per-node initial opinions (shuffled already if requested).
    pub config: Configuration,
    /// The protocol every node runs (the same exchangeable subset the
    /// macro engine accepts: asynchronous gossip or rapid).
    pub protocol: MacroProtocol,
    /// Local Poisson clock rate (activations per node per time unit).
    pub rate: f64,
    /// Master seed (per-node RNG streams are derived from it).
    pub seed: Seed,
    /// Stop conditions, checked on top of the beacon-based termination.
    pub stops: Vec<StopCondition>,
}

impl NetSpec {
    /// Population size.
    pub fn n(&self) -> usize {
        self.config.n()
    }

    /// Number of opinions.
    pub fn k(&self) -> usize {
        self.config.k()
    }
}

impl std::fmt::Debug for NetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSpec")
            .field("n", &self.n())
            .field("k", &self.k())
            .field("protocol", &self.protocol)
            .field("rate", &self.rate)
            .field("seed", &self.seed)
            .field("stops", &self.stops)
            .finish_non_exhaustive()
    }
}

/// The clock axis: how asynchronous activations are generated.
///
/// Ignored by synchronous protocols, which run in lockstep rounds.
#[derive(Clone, Debug, PartialEq)]
pub enum Clock {
    /// The sequential model: each step activates a uniformly random node.
    Sequential(TimeMode),
    /// Per-node Poisson clocks at a common `rate`, via an event queue.
    EventQueue {
        /// Ticks per node per time unit.
        rate: f64,
    },
    /// Per-node rates drawn uniformly from `[1 − skew, 1 + skew]`.
    UniformSkew {
        /// Half-width of the rate interval; must lie in `[0, 1)`.
        skew: f64,
    },
    /// Explicit per-node clock rates (`rates[i]` for node `i`).
    Rates(Vec<f64>),
}

impl Default for Clock {
    fn default() -> Self {
        Clock::Sequential(TimeMode::Expected)
    }
}

/// A composable stopping rule: a run stops on the first engine step at
/// which one holds, on top of the implicit unanimity check. [`Stops`]
/// says how a run's rules combine.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum StopCondition {
    /// Stop once simulation time reaches the horizon (absolute — measured
    /// from the simulation's birth, not from the current `run` call). For
    /// synchronous protocols one round counts as one time unit.
    TimeHorizon(SimTime),
    /// Stop after this many engine steps executed by the current run
    /// (activations for asynchronous engines, rounds for synchronous
    /// ones); steps taken by earlier [`Sim::step`] calls don't count.
    StepBudget(u64),
    /// Stop after this many protocol rounds executed by the current run:
    /// rounds for synchronous engines, `n`-activation blocks (≈ time
    /// units) for asynchronous ones.
    RoundBudget(u64),
    /// Stop as soon as any node halts (freezes its color).
    FirstHalt,
}

/// Why a run ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every node holds the same opinion — the success event.
    Unanimity,
    /// A [`StopCondition::TimeHorizon`] fired.
    TimeHorizon,
    /// A [`StopCondition::StepBudget`] fired.
    StepBudget,
    /// A [`StopCondition::RoundBudget`] fired.
    RoundBudget,
    /// A [`StopCondition::FirstHalt`] fired.
    FirstHalt,
    /// Every node halted without consensus.
    AllHalted,
    /// No explicit budget was configured and the engine's generous
    /// default budget ran out (see [`Sim::default_budget`]).
    DefaultBudget,
}

impl StopReason {
    /// Stable lower-case label (used in the JSON serialisation).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Unanimity => "unanimity",
            StopReason::TimeHorizon => "time-horizon",
            StopReason::StepBudget => "step-budget",
            StopReason::RoundBudget => "round-budget",
            StopReason::FirstHalt => "first-halt",
            StopReason::AllHalted => "all-halted",
            StopReason::DefaultBudget => "default-budget",
        }
    }
}

/// A run's stop policy: its declared [`StopCondition`]s, the steps in one
/// of its rounds and its engine's default budget.
///
/// Every engine's run loop asks it the same three questions: how far off
/// the earliest horizon is, how many steps may run before the nearest
/// budget, and why the run stops at a given point. So which stops
/// combine, which replace the default budget and which reason wins a tie
/// is decided here and nowhere else:
///
/// * the earliest horizon and the smallest budget bound the run, so the
///   first stop to fire ends it;
/// * a time horizon, a step budget or a round budget replaces the default
///   budget. [`StopCondition::FirstHalt`] does not: it can never fire on
///   some assemblies (synchronous engines, gossip without a halt budget)
///   and must not remove the safety net;
/// * a round is one step on a synchronous engine and `n` activations on
///   the others;
/// * when several stops hold at once, every node halting wins, then the
///   first condition declared, then the default budget.
///
/// Each engine passes the step count its budgets count: [`Sim`] counts
/// from the start of the `run` call, the macro engine and a deployment
/// from their start.
#[derive(Debug)]
pub struct Stops {
    conditions: Vec<StopCondition>,
    round: u64,
    default_budget: u64,
}

impl Stops {
    /// The policy of a run declaring `conditions`, on an engine with
    /// `round` steps per round and the fallback budget `default_budget`.
    pub fn new(conditions: Vec<StopCondition>, round: u64, default_budget: u64) -> Self {
        Stops {
            conditions,
            round,
            default_budget,
        }
    }

    /// Whether the default budget is in force: no time horizon, step
    /// budget or round budget was declared.
    fn default_in_force(&self) -> bool {
        self.conditions
            .iter()
            .all(|c| matches!(c, StopCondition::FirstHalt))
    }

    /// The earliest time horizon; [`SimTime::MAX`] without one.
    pub fn horizon(&self) -> SimTime {
        self.conditions
            .iter()
            .filter_map(|c| match *c {
                StopCondition::TimeHorizon(horizon) => Some(horizon),
                _ => None,
            })
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// The steps left, after `steps_run`, before the nearest step budget,
    /// round budget or default budget runs out; `u64::MAX` when none
    /// bounds the run.
    pub fn steps_left(&self, steps_run: u64) -> u64 {
        let mut left = if self.default_in_force() {
            self.default_budget.saturating_sub(steps_run)
        } else {
            u64::MAX
        };
        for condition in &self.conditions {
            let budget = match *condition {
                StopCondition::StepBudget(budget) => budget,
                StopCondition::RoundBudget(rounds) => rounds.saturating_mul(self.round),
                _ => continue,
            };
            left = left.min(budget.saturating_sub(steps_run));
        }
        left
    }

    /// Why the run stops after `steps_run` steps at time `now`, if it
    /// does: [`StopReason::AllHalted`] when every node has halted, else
    /// the first declared condition that holds, else
    /// [`StopReason::DefaultBudget`] once that budget is spent.
    /// Unanimity is the engine's own check.
    pub fn reason(
        &self,
        steps_run: u64,
        now: SimTime,
        any_halted: bool,
        all_halted: bool,
    ) -> Option<StopReason> {
        if all_halted {
            return Some(StopReason::AllHalted);
        }
        for condition in &self.conditions {
            let (fired, reason) = match *condition {
                StopCondition::TimeHorizon(horizon) => (now >= horizon, StopReason::TimeHorizon),
                StopCondition::StepBudget(budget) => (steps_run >= budget, StopReason::StepBudget),
                StopCondition::RoundBudget(rounds) => (
                    steps_run >= rounds.saturating_mul(self.round),
                    StopReason::RoundBudget,
                ),
                StopCondition::FirstHalt => (any_halted, StopReason::FirstHalt),
            };
            if fired {
                return Some(reason);
            }
        }
        (self.default_in_force() && steps_run >= self.default_budget)
            .then_some(StopReason::DefaultBudget)
    }
}

/// Why [`SimBuilder::build`] rejected an assembly.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// No topology was supplied.
    MissingTopology,
    /// No initial state (counts, configuration, or distribution) was
    /// supplied.
    MissingInitialState,
    /// No protocol was selected.
    MissingProtocol,
    /// Topology and initial state disagree on the population size.
    SizeMismatch {
        /// `n` according to the topology.
        topology_n: usize,
        /// `n` according to the initial state.
        config_n: usize,
    },
    /// The initial counts or assignment are structurally invalid.
    Config(ConfigError),
    /// The distribution cannot be materialised for this population.
    Distribution(DistributionError),
    /// The rapid protocol's parameters are inconsistent.
    InvalidParams(&'static str),
    /// A clock rate is not finite or below [`MIN_RATE`], or the skew is
    /// outside `[0, 1)`.
    InvalidClock(&'static str),
    /// Explicit per-node rates have the wrong length.
    RatesLength {
        /// Expected number of rates (= `n`).
        expected: usize,
        /// Number of rates supplied.
        got: usize,
    },
    /// The jitter delay rate is not finite or below [`MIN_RATE`].
    InvalidJitter(f64),
    /// `halt_after` requires an asynchronous gossip protocol (the rapid
    /// protocol halts by its own schedule), and must be positive.
    InvalidHaltBudget,
    /// The fault plan is invalid (bad loss probability, latency
    /// parameters, churn schedule, or adversary interval).
    Faults(FaultError),
    /// A non-neutral fault plan was combined with a synchronous protocol;
    /// the fault layer models the asynchronous setting (crashes, lost
    /// pulls, late adversaries) and only the asynchronous engines consult
    /// it.
    FaultsRequireAsync,
    /// The macro / mean-field engines require the complete graph: a
    /// count-based state assumes every node samples uniformly from the
    /// whole population (exchangeability).
    MacroRequiresComplete,
    /// The selected axis combination has no population-level semantics;
    /// the payload names the axis (synchronous protocols, per-node halt
    /// budgets, jitter, non-exchangeable clocks, per-node fault knobs,
    /// stop conditions on the mean-field engine).
    MacroUnsupported(&'static str),
    /// The selected axis combination has no meaning for a real
    /// message-passing deployment; the payload names the axis
    /// (synchronous protocols, injected faults, modeled jitter, skewed
    /// clocks, simulator-only stop conditions, time horizons on the UDP
    /// transport).
    NetUnsupported(&'static str),
    /// The wrong build entry point was called for the selected
    /// [`EngineKind`]: [`SimBuilder::build`] builds the micro engines,
    /// [`SimBuilder::build_macro`] the macro and mean-field ones and
    /// [`SimBuilder::build_net`] the deployment. The payload names the
    /// entry point for the selected kind.
    EngineMismatch(&'static str),
    /// The selected axis combination is not supported by the sharded
    /// epoch engine ([`SimBuilder::parallelism`]); the payload names the
    /// axis (synchronous protocols, jitter, fault plans, per-node halt
    /// budgets, heterogeneous clocks).
    ShardedUnsupported(&'static str),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingTopology => write!(f, "no topology was supplied"),
            BuildError::MissingInitialState => {
                write!(
                    f,
                    "no initial state (counts, configuration, or distribution)"
                )
            }
            BuildError::MissingProtocol => write!(f, "no protocol was selected"),
            BuildError::SizeMismatch {
                topology_n,
                config_n,
            } => write!(
                f,
                "topology has {topology_n} nodes but the initial state has {config_n}"
            ),
            BuildError::Config(e) => write!(f, "invalid initial state: {e}"),
            BuildError::Distribution(e) => write!(f, "invalid distribution: {e}"),
            BuildError::InvalidParams(why) => write!(f, "invalid rapid parameters: {why}"),
            BuildError::InvalidClock(why) => write!(f, "invalid clock: {why}"),
            BuildError::RatesLength { expected, got } => {
                write!(f, "expected {expected} clock rates, got {got}")
            }
            BuildError::InvalidJitter(rate) => {
                write!(
                    f,
                    "jitter delay rate must be finite and at least {MIN_RATE:e}, got {rate}"
                )
            }
            BuildError::InvalidHaltBudget => write!(
                f,
                "halt_after requires an asynchronous gossip protocol and a positive budget"
            ),
            BuildError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            BuildError::FaultsRequireAsync => write!(
                f,
                "a non-neutral fault plan requires an asynchronous protocol (gossip or rapid)"
            ),
            BuildError::MacroRequiresComplete => write!(
                f,
                "the macro and mean-field engines require the complete graph \
                 (count-based state assumes exchangeable sampling)"
            ),
            BuildError::MacroUnsupported(what) => {
                write!(f, "the macro and mean-field engines do not support {what}")
            }
            BuildError::NetUnsupported(what) => {
                write!(f, "the message-passing runtime does not support {what}")
            }
            BuildError::EngineMismatch(instead) => {
                write!(
                    f,
                    "wrong build entry point for this engine kind; use {instead}"
                )
            }
            BuildError::ShardedUnsupported(what) => {
                write!(f, "the sharded epoch engine does not support {what}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<FaultError> for BuildError {
    fn from(e: FaultError) -> Self {
        BuildError::Faults(e)
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<DistributionError> for BuildError {
    fn from(e: DistributionError) -> Self {
        BuildError::Distribution(e)
    }
}

/// The unified result of any run: one type subsuming the legacy
/// [`SyncOutcome`] and [`RapidOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Why the run ended.
    pub stop: StopReason,
    /// The unanimous color, if the run converged.
    pub winner: Option<Color>,
    /// Engine steps executed (rounds for synchronous protocols,
    /// activations for asynchronous ones).
    pub steps: u64,
    /// Synchronous rounds, when the protocol runs in rounds.
    pub rounds: Option<u64>,
    /// Simulation time at the end, for asynchronous engines.
    pub time: Option<SimTime>,
    /// When the first node halted, if the dynamic halts at all.
    pub first_halt: Option<SimTime>,
    /// Theorem 1.3's success event — unanimity strictly before the first
    /// halt — for engines that halt (`None` otherwise).
    pub before_first_halt: Option<bool>,
    /// The final support histogram.
    pub final_counts: Vec<u64>,
}

impl Outcome {
    /// Whether the run reached unanimity.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Unanimity
    }

    /// The consensus verdict: the outcome itself if the run reached
    /// unanimity.
    ///
    /// # Errors
    ///
    /// * [`ConvergenceError::AllHaltedWithoutConsensus`] if every node
    ///   froze first;
    /// * [`ConvergenceError::BudgetExhausted`] if any other stop fired
    ///   before unanimity.
    pub fn into_consensus(self) -> Result<Outcome, ConvergenceError> {
        match self.stop {
            StopReason::Unanimity => Ok(self),
            StopReason::AllHalted => Err(ConvergenceError::AllHaltedWithoutConsensus),
            _ => Err(ConvergenceError::BudgetExhausted { budget: self.steps }),
        }
    }

    /// The synchronous view, for round-based runs that converged: a
    /// winner and a round count, both certain.
    pub fn as_sync(&self) -> Option<SyncOutcome> {
        match (self.winner, self.rounds) {
            (Some(winner), Some(rounds)) if self.converged() => {
                Some(SyncOutcome { winner, rounds })
            }
            _ => None,
        }
    }

    /// The rapid-protocol view, for halting asynchronous runs that
    /// converged: a winner, a time and the first-halt verdict, all
    /// certain.
    pub fn as_rapid(&self) -> Option<RapidOutcome> {
        match (self.winner, self.time, self.before_first_halt) {
            (Some(winner), Some(time), Some(before_first_halt)) if self.converged() => {
                Some(RapidOutcome {
                    winner,
                    time,
                    steps: self.steps,
                    first_halt: self.first_halt,
                    before_first_halt,
                })
            }
            _ => None,
        }
    }

    /// Serialises the outcome as a single-line JSON object.
    ///
    /// All fields are numbers, booleans or fixed enum labels, so no
    /// string escaping is required.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"stop\": \"{}\"", self.stop.label());
        match self.winner {
            Some(w) => {
                let _ = write!(out, ", \"winner\": {}", w.index());
            }
            None => out.push_str(", \"winner\": null"),
        }
        let _ = write!(out, ", \"steps\": {}", self.steps);
        match self.rounds {
            Some(r) => {
                let _ = write!(out, ", \"rounds\": {r}");
            }
            None => out.push_str(", \"rounds\": null"),
        }
        match self.time {
            Some(t) => {
                let _ = write!(out, ", \"time\": {}", t.as_secs());
            }
            None => out.push_str(", \"time\": null"),
        }
        match self.first_halt {
            Some(t) => {
                let _ = write!(out, ", \"first_halt\": {}", t.as_secs());
            }
            None => out.push_str(", \"first_halt\": null"),
        }
        match self.before_first_halt {
            Some(b) => {
                let _ = write!(out, ", \"before_first_halt\": {b}");
            }
            None => out.push_str(", \"before_first_halt\": null"),
        }
        out.push_str(", \"final_counts\": [");
        for (i, c) in self.final_counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]}");
        out
    }
}

/// A progress snapshot handed to [`Observer`]s: once per round for
/// synchronous protocols, once per `n` activations (≈ one time unit) for
/// asynchronous ones.
pub struct Progress<'a> {
    /// Engine steps so far.
    pub steps: u64,
    /// Rounds so far (synchronous engines only).
    pub rounds: Option<u64>,
    /// Simulation time (asynchronous engines only).
    pub time: Option<SimTime>,
    /// The current configuration.
    pub config: &'a Configuration,
    /// Per-node working times (rapid protocol only).
    pub working_times: Option<&'a [u64]>,
}

/// A hook observing a run at a fixed cadence (see [`Progress`]).
pub trait Observer {
    /// Receives one progress snapshot.
    fn observe(&mut self, progress: &Progress<'_>);
}

impl Observer for RoundTrace {
    fn observe(&mut self, progress: &Progress<'_>) {
        self.record(progress.config);
    }
}

/// An observer recording the working-time spread of the rapid protocol —
/// the weak-synchronicity instrumentation, as a reusable hook.
#[derive(Clone, Debug)]
pub struct SpreadTrace {
    /// Tolerance (ticks) for the poorly-synced fraction, typically `2Δ`.
    pub tolerance: u64,
    /// One snapshot per observation.
    pub snapshots: Vec<WorkingTimeStats>,
}

impl SpreadTrace {
    /// Creates a trace with the given tolerance.
    pub fn new(tolerance: u64) -> Self {
        SpreadTrace {
            tolerance,
            snapshots: Vec::new(),
        }
    }
}

impl Observer for SpreadTrace {
    fn observe(&mut self, progress: &Progress<'_>) {
        if let Some(wts) = progress.working_times {
            let mut wts = wts.to_vec();
            self.snapshots
                .push(WorkingTimeStats::from_times(&mut wts, self.tolerance));
        }
    }
}

/// The obs layer's standard `Sim` hook: a phase-resolved trace observer.
///
/// At every progress snapshot it emits a
/// [`TraceEvent::BiasSample`] with the histogram's top two entries,
/// a full [`TraceEvent::OccupancySample`] when `k` is at most
/// [`ObsObserver::occupancy_limit`], and — when built
/// [`ObsObserver::with_schedule`] — a [`TraceEvent::PhaseEnter`] whenever
/// the population's *median* working time crosses a rapid phase boundary
/// (`phase == phases` marks part 2, the endgame).
///
/// The observer reads [`Progress`] and nothing else: it has no path to
/// the run's RNG streams, so attaching it never changes an outcome.
/// `crates/core/tests/obs.rs` pins that bit-for-bit against the sharded
/// golden hashes.
pub struct ObsObserver {
    obs: Arc<Obs>,
    stream: String,
    schedule: Option<Schedule>,
    /// Emit [`TraceEvent::OccupancySample`] only while `k` is at most
    /// this (full occupancy vectors at large `k` would swamp the ring).
    pub occupancy_limit: usize,
    last_phase: Option<u64>,
}

impl ObsObserver {
    /// An observer emitting on trace stream `stream`.
    pub fn new(obs: Arc<Obs>, stream: impl Into<String>) -> Self {
        ObsObserver {
            obs,
            stream: stream.into(),
            schedule: None,
            occupancy_limit: 32,
            last_phase: None,
        }
    }

    /// Enables phase decoding against a rapid [`Schedule`].
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// The phase the median working time `w` sits in: a part-1 phase
    /// index, or `phases` once the median node reaches part 2.
    fn phase_of_median(schedule: &Schedule, w: u64) -> u64 {
        let params = schedule.params();
        if w < params.part1_len() {
            u64::from(schedule.phase_of(w))
        } else {
            u64::from(params.phases)
        }
    }
}

impl Observer for ObsObserver {
    fn observe(&mut self, progress: &Progress<'_>) {
        let time = progress
            .time
            .map(|t| t.as_secs())
            .or_else(|| progress.rounds.map(|r| r as f64))
            .unwrap_or(progress.steps as f64);
        if let (Some(schedule), Some(wts)) = (&self.schedule, progress.working_times) {
            if !wts.is_empty() {
                let mut wts = wts.to_vec();
                let mid = wts.len() / 2;
                let (_, &mut median, _) = wts.select_nth_unstable(mid);
                let phase = Self::phase_of_median(schedule, median);
                if self.last_phase != Some(phase) {
                    self.last_phase = Some(phase);
                    self.obs
                        .trace
                        .emit(&self.stream, TraceEvent::PhaseEnter { phase, time });
                }
            }
        }
        let counts = progress.config.counts();
        let top = counts.top_two();
        self.obs.trace.emit(
            &self.stream,
            TraceEvent::BiasSample {
                time,
                leader: top.leader.index() as u64,
                support: top.c1,
                runner_up: top.c2,
                total: counts.n(),
            },
        );
        if counts.k() <= self.occupancy_limit {
            self.obs.trace.emit(
                &self.stream,
                TraceEvent::OccupancySample {
                    time,
                    counts: counts.as_slice().to_vec(),
                },
            );
        }
    }
}

enum Init {
    Counts(Vec<u64>),
    Assignment(Configuration),
    Distribution(InitialDistribution),
}

/// Builder for a [`Sim`]. Created by [`Sim::builder`].
pub struct SimBuilder {
    topology: Option<BoxedTopology>,
    init: Option<Init>,
    protocol: Option<Protocol>,
    engine: EngineKind,
    clock: Clock,
    jitter: Option<f64>,
    faults: Option<FaultPlan>,
    seed: Seed,
    stops: Vec<StopCondition>,
    shuffle: bool,
    halt_after: Option<u64>,
    parallelism: Option<Parallelism>,
    obs: Option<Arc<Obs>>,
}

impl SimBuilder {
    fn new() -> Self {
        SimBuilder {
            topology: None,
            init: None,
            protocol: None,
            engine: EngineKind::default(),
            clock: Clock::default(),
            jitter: None,
            faults: None,
            seed: Seed::default(),
            stops: Vec::new(),
            shuffle: false,
            halt_after: None,
            parallelism: None,
            obs: None,
        }
    }

    /// Sets the communication topology.
    pub fn topology(mut self, topology: impl Topology + Send + Sync + 'static) -> Self {
        self.topology = Some(Box::new(topology));
        self
    }

    /// Sets an already boxed topology (for dynamically chosen graphs).
    pub fn boxed_topology(mut self, topology: BoxedTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the initial state from per-color support counts (color 0
    /// first).
    pub fn counts(mut self, counts: &[u64]) -> Self {
        self.init = Some(Init::Counts(counts.to_vec()));
        self
    }

    /// Sets the initial state from a full per-node assignment.
    pub fn configuration(mut self, config: Configuration) -> Self {
        self.init = Some(Init::Assignment(config));
        self
    }

    /// Sets the initial state from a workload recipe, materialised against
    /// the topology's population at build time.
    pub fn distribution(mut self, dist: InitialDistribution) -> Self {
        self.init = Some(Init::Distribution(dist));
        self
    }

    /// Selects a synchronous-round protocol.
    pub fn protocol(mut self, proto: impl SyncProtocol + Send + 'static) -> Self {
        self.protocol = Some(Protocol::Sync(Box::new(proto)));
        self
    }

    /// Selects plain asynchronous gossip under `rule`.
    pub fn gossip(mut self, rule: GossipRule) -> Self {
        self.protocol = Some(Protocol::Gossip(rule));
        self
    }

    /// Selects the paper's full rapid protocol with `params`.
    pub fn rapid(mut self, params: Params) -> Self {
        self.protocol = Some(Protocol::Rapid(params));
        self
    }

    /// Selects a pre-built [`Protocol`] (useful when the protocol is
    /// chosen dynamically, e.g. across a comparison sweep).
    pub fn select(mut self, protocol: Protocol) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Selects the simulation engine (default: [`EngineKind::Micro`]).
    ///
    /// Each kind has one entry point — [`SimBuilder::build`],
    /// [`SimBuilder::build_macro`] or [`SimBuilder::build_net`] — and
    /// each entry point rejects a builder declaring another kind with
    /// [`BuildError::EngineMismatch`] before it checks anything else.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Sets the clock model for asynchronous protocols.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Wraps the clock in exponential response delays at `delay_rate`
    /// (the discussion-section extension): a [`LatencyScheduler`] with
    /// [`LatencyModel::Exponential`], on its own stream.
    pub fn jitter(mut self, delay_rate: f64) -> Self {
        self.jitter = Some(delay_rate);
        self
    }

    /// Sets the fault & adversary plan (asynchronous protocols only):
    /// per-message loss, per-edge latency distributions, node crash /
    /// rejoin schedules, and a budgeted opinion-corrupting adversary. A
    /// [neutral](FaultPlan::is_neutral) plan is equivalent — bit for bit —
    /// to not calling this at all.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the master seed. Every internal stream (scheduler, protocol,
    /// shuffle) derives from it, so one seed pins the whole run.
    pub fn seed(mut self, seed: Seed) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a stop condition (checked alongside the implicit unanimity
    /// check; conditions compose — the first to fire ends the run).
    pub fn stop(mut self, condition: StopCondition) -> Self {
        self.stops.push(condition);
        self
    }

    /// Randomly permutes the node–color assignment before the run
    /// (irrelevant on the complete graph; essential on structured ones).
    pub fn shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Makes every node freeze its color after this many of its own ticks
    /// (asynchronous gossip only — the endgame's finish line).
    pub fn halt_after(mut self, ticks: u64) -> Self {
        self.halt_after = Some(ticks);
        self
    }

    /// Selects the sharded epoch engine
    /// ([`crate::asynchronous::ShardedSim`]) for this micro run, with
    /// the shard worker count taken from `parallelism.shard_workers`.
    ///
    /// Setting this axis — even with one shard worker — switches the
    /// run from the exact activation-at-a-time engine
    /// ([`crate::asynchronous::SeqSim`]) to the epoch engine, whose
    /// randomness comes from per-(epoch, node) child streams
    /// (`seed.child(7)`): results are bit-identical under any worker
    /// count, but *not* activation-for-activation identical to the
    /// exact engine (a documented, tested stream split; see the module
    /// docs of [`crate::asynchronous::sharded`]). An epoch lasts one
    /// expected activation per node, τ = 1/rate time units.
    ///
    /// The epoch engine supports asynchronous gossip and the rapid
    /// protocol on any topology, with [`Clock::Sequential`] or
    /// [`Clock::EventQueue`]; jitter, fault plans, per-node halt
    /// budgets and heterogeneous clocks are rejected at build time with
    /// [`BuildError::ShardedUnsupported`].
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Attaches an observability handle to the built engine.
    ///
    /// Engines with internal instrumentation (currently the sharded
    /// epoch engine) emit per-epoch [`TraceEvent`]s and update
    /// work-balance gauges through it; instrumentation is batched at
    /// epoch granularity and never samples RNG streams, so outcomes are
    /// bit-identical with and without a handle. Pair with an
    /// [`ObsObserver`] passed to [`Sim::run_with`] for the per-time-unit
    /// bias/phase trajectory.
    pub fn obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Validates the assembly and constructs a per-node simulation: the
    /// exact sequential engine, or the sharded epoch engine when
    /// [`SimBuilder::parallelism`] is set.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the first inconsistency: a missing
    /// axis, an `n` mismatch, invalid parameters, or an unusable clock.
    /// A builder declaring another [`EngineKind`] is a
    /// [`BuildError::EngineMismatch`].
    pub fn build(self) -> Result<Sim, BuildError> {
        let a = self.validate(&[EngineKind::Micro])?;
        if a.halt_after.is_some() && !matches!(a.protocol, Protocol::Gossip(_)) {
            return Err(BuildError::InvalidHaltBudget);
        }
        if a.faults.is_some() && matches!(a.protocol, Protocol::Sync(_)) {
            return Err(BuildError::FaultsRequireAsync);
        }

        // An explicit parallelism axis selects the sharded epoch engine
        // (even at one shard worker): same protocols, different —
        // documented and registry-declared — stream layout.
        if let Some(par) = a.parallelism {
            let (protocol, rate) = a.exchangeable(&EPOCH)?;
            if a.faults.is_some() {
                return Err(BuildError::ShardedUnsupported(
                    "fault plans (crash/loss bookkeeping is per-activation, not per-epoch)",
                ));
            }
            let workers = par.shard_workers.resolve(a.n);
            let config = a.initial.configuration(a.shuffle, a.seed)?;
            let mut sim =
                ShardedSim::new(a.topology, config, protocol.into(), a.seed, rate, workers);
            if let Some(obs) = a.obs {
                sim.attach_obs(obs);
            }
            return Ok(Sim {
                engine: Engine::Sharded(Box::new(sim)),
                stops: a.stops,
            });
        }

        let config = a.initial.configuration(a.shuffle, a.seed)?;
        let protocol = match a.protocol {
            Protocol::Sync(mut proto) => {
                proto.reset();
                let engine = Engine::Sync {
                    proto,
                    topology: a.topology,
                    config,
                    // Matches the stream a legacy caller gets from
                    // `SimRng::from_seed_value(seed)`.
                    rng: SimRng::from_seed_value(a.seed),
                    rounds: 0,
                };
                return Ok(Sim {
                    engine,
                    stops: a.stops,
                });
            }
            Protocol::Gossip(rule) => AsyncProtocol::Gossip(rule),
            Protocol::Rapid(params) => AsyncProtocol::Rapid(Schedule::new(params)),
        };
        let source = build_source(&a.clock, a.jitter, a.faults.as_ref(), a.n, a.seed);
        let mut sim = SeqSim::new(a.topology, config, protocol, source, a.seed.child(1));
        if let Some(ticks) = a.halt_after {
            sim = sim.with_halt_after(ticks);
        }
        if let Some(plan) = &a.faults {
            sim = sim.with_faults(plan, a.seed.child(4));
        }
        Ok(Sim {
            engine: Engine::Seq(Box::new(sim)),
            stops: a.stops,
        })
    }

    /// Validates the assembly for a population-level engine
    /// ([`EngineKind::Macro`] or [`EngineKind::MeanField`]) and returns
    /// the pure-data [`MacroSpec`] the `rapid-macro` crate executes.
    ///
    /// Unlike [`SimBuilder::build`], no per-node state is materialised:
    /// the spec is `O(k)`, so `n = 10⁹` builds instantly. Macro semantics
    /// constrain the axes:
    ///
    /// * the topology must be the complete graph
    ///   ([`BuildError::MacroRequiresComplete`]);
    /// * the protocol must be asynchronous gossip or rapid, without a
    ///   per-node halt budget;
    /// * the clock must be exchangeable — [`Clock::Sequential`] or
    ///   [`Clock::EventQueue`]; skewed or per-node rates have no
    ///   count-level representation, and neither have jitter or
    ///   [`SimBuilder::parallelism`];
    /// * of the fault axis only per-message **loss** composes (it scales
    ///   every interaction identically); latency, churn and adversaries
    ///   are per-node / per-edge and are rejected
    ///   ([`BuildError::MacroUnsupported`]);
    /// * the mean-field engine takes no stop conditions: it integrates
    ///   to a horizon of its own and reports no [`StopReason`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the first inconsistency.
    pub fn build_macro(self) -> Result<MacroSpec, BuildError> {
        let a = self.validate(&[EngineKind::Macro, EngineKind::MeanField])?;
        if !a.topology.is_complete() {
            return Err(BuildError::MacroRequiresComplete);
        }
        let (protocol, rate) = a.exchangeable(&MACRO)?;
        if a.parallelism.is_some() {
            return Err(BuildError::MacroUnsupported(
                "parallelism (count-based state has no nodes to shard)",
            ));
        }
        if a.kind == EngineKind::MeanField && !a.stops.is_empty() {
            return Err(BuildError::MacroUnsupported(
                "stop conditions on the mean-field engine (it integrates to its own horizon)",
            ));
        }
        let loss = match &a.faults {
            None => 0.0,
            Some(plan) if !plan.latency.is_none() => {
                return Err(BuildError::MacroUnsupported(
                    "latency models (per-edge delays reorder individual activations)",
                ))
            }
            Some(plan) if !plan.churn.is_empty() => {
                return Err(BuildError::MacroUnsupported(
                    "churn (crash/rejoin schedules name individual nodes)",
                ))
            }
            Some(plan) if plan.adversary.is_some_and(|adv| adv.budget > 0) => {
                return Err(BuildError::MacroUnsupported(
                    "adversaries (corruptions target individual nodes)",
                ))
            }
            Some(plan) => plan.loss,
        };
        // `shuffle` permutes the node–color assignment, which a histogram
        // cannot see: accept it silently, exactly like micro runs on the
        // complete graph where it is equally irrelevant.
        Ok(MacroSpec {
            kind: a.kind,
            n: a.n as u64,
            counts: a.initial.counts(),
            protocol,
            rate,
            loss,
            seed: a.seed,
            stops: a.stops,
        })
    }

    /// Validates the assembly for the real message-passing runtime
    /// ([`EngineKind::Net`]) and returns the pure-data [`NetSpec`] the
    /// `rapid-net` crate executes.
    ///
    /// The runtime runs the same exchangeable protocol subset as the
    /// macro engine (asynchronous gossip or rapid), but on *any*
    /// topology and with the full per-node initial assignment. Axes that
    /// are simulator artifacts are rejected with
    /// [`BuildError::NetUnsupported`]:
    ///
    /// * synchronous protocols (a deployment has no round barrier);
    /// * `halt_after` budgets (termination is the gossiped beacon's job);
    /// * jitter and fault plans (a real transport's delays and losses
    ///   are observed, not injected);
    /// * skewed or per-node clock rates (each node runs one local
    ///   Poisson clock at the common rate);
    /// * [`SimBuilder::parallelism`] (a deployment's transport workers
    ///   are set per run);
    /// * [`StopCondition::FirstHalt`] and
    ///   [`StopCondition::RoundBudget`] (a deployment observes halts
    ///   only through messages, and has no rounds).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the first inconsistency.
    pub fn build_net(self) -> Result<NetSpec, BuildError> {
        let a = self.validate(&[EngineKind::Net])?;
        let (protocol, rate) = a.exchangeable(&NET)?;
        if a.parallelism.is_some() {
            return Err(BuildError::NetUnsupported(
                "parallelism (a deployment's transport workers are set per run)",
            ));
        }
        if a.faults.is_some() {
            return Err(BuildError::NetUnsupported(
                "fault plans (a deployment's losses and delays are real, not injected)",
            ));
        }
        for stop in &a.stops {
            match stop {
                StopCondition::FirstHalt => {
                    return Err(BuildError::NetUnsupported(
                        "the first-halt stop (a deployment observes halts only via messages)",
                    ))
                }
                StopCondition::RoundBudget(_) => {
                    return Err(BuildError::NetUnsupported(
                        "round budgets (a deployment has no synchronous rounds)",
                    ))
                }
                StopCondition::TimeHorizon(_) | StopCondition::StepBudget(_) => {}
            }
        }
        Ok(NetSpec {
            config: a.initial.configuration(a.shuffle, a.seed)?,
            topology: a.topology,
            protocol,
            rate,
            seed: a.seed,
            stops: a.stops,
        })
    }

    /// Checks the declared engine kind against the entry point's `kinds`,
    /// then every axis the engines share, each once: the missing axes,
    /// the initial state's size, the Rapid parameters, `halt_after(0)`,
    /// the jitter rate, the clock and the fault plan. What is left to
    /// each finisher is only what its engine cannot honour.
    fn validate(self, kinds: &[EngineKind]) -> Result<Assembly, BuildError> {
        // Fail fast: nothing is resolved for a kind this entry point
        // does not build. The payload names the one that does.
        if !kinds.contains(&self.engine) {
            return Err(BuildError::EngineMismatch(match self.engine {
                EngineKind::Micro => "SimBuilder::build for Engine::Micro",
                EngineKind::Macro => "MacroSim::from_builder for Engine::Macro",
                EngineKind::MeanField => "MeanFieldSim::from_builder for Engine::MeanField",
                EngineKind::Net => "Cluster::from_builder for Engine::Net",
            }));
        }
        let topology = self.topology.ok_or(BuildError::MissingTopology)?;
        let n = topology.n();
        let init = self.init.ok_or(BuildError::MissingInitialState)?;
        let protocol = self.protocol.ok_or(BuildError::MissingProtocol)?;

        // Counts stay counts — validated without per-node state, so a
        // macro build at n = 10⁹ stays O(k).
        let initial = match init {
            Init::Counts(counts) => Initial::Counts(counts),
            Init::Assignment(config) => Initial::Assignment(config),
            Init::Distribution(dist) => Initial::Counts(dist.counts(n as u64)?),
        };
        let config_n = match &initial {
            Initial::Counts(counts) => ColorCounts::from_counts(counts)?.n(),
            Initial::Assignment(config) => config.n() as u64,
        };
        if config_n != n as u64 {
            return Err(BuildError::SizeMismatch {
                topology_n: n,
                config_n: config_n as usize,
            });
        }

        if let Protocol::Rapid(params) = &protocol {
            params.check().map_err(BuildError::InvalidParams)?;
        }
        if self.halt_after == Some(0) {
            return Err(BuildError::InvalidHaltBudget);
        }
        if let Some(rate) = self.jitter.filter(|&rate| !valid_rate(rate)) {
            return Err(BuildError::InvalidJitter(rate));
        }
        // Checked for every protocol — a misconfigured clock in a
        // sync-vs-async sweep should fail on the sync entrants too, not
        // only when the protocol axis flips to asynchronous.
        check_clock(&self.clock, n)?;
        // Fault plans are validated unconditionally, then a neutral plan
        // is dropped so the zero-fault path stays bit-identical to a
        // build without the axis.
        let faults = match self.faults {
            None => None,
            Some(plan) => {
                plan.check(n)?;
                (!plan.is_neutral()).then_some(plan)
            }
        };

        Ok(Assembly {
            kind: self.engine,
            topology,
            n,
            initial,
            protocol,
            clock: self.clock,
            jitter: self.jitter,
            faults,
            seed: self.seed,
            stops: self.stops,
            shuffle: self.shuffle,
            halt_after: self.halt_after,
            parallelism: self.parallelism,
            obs: self.obs,
        })
    }
}

/// A builder whose shared axes [`SimBuilder::validate`] has checked;
/// `faults` is `None` for a neutral plan.
struct Assembly {
    kind: EngineKind,
    topology: BoxedTopology,
    n: usize,
    initial: Initial,
    protocol: Protocol,
    clock: Clock,
    jitter: Option<f64>,
    faults: Option<FaultPlan>,
    seed: Seed,
    stops: Vec<StopCondition>,
    shuffle: bool,
    halt_after: Option<u64>,
    parallelism: Option<Parallelism>,
    obs: Option<Arc<Obs>>,
}

impl Assembly {
    /// The protocol and common clock rate of an engine without per-node
    /// clocks (epoch, macro, net), which cannot honour a synchronous
    /// protocol, a halt budget, jitter or a heterogeneous clock.
    fn exchangeable(&self, engine: &Unsupported) -> Result<(MacroProtocol, f64), BuildError> {
        let protocol = match &self.protocol {
            Protocol::Sync(_) => return Err((engine.error)(engine.sync)),
            Protocol::Gossip(rule) => MacroProtocol::Gossip(*rule),
            Protocol::Rapid(params) => MacroProtocol::Rapid(*params),
        };
        if self.halt_after.is_some() {
            return Err((engine.error)(engine.halt));
        }
        if self.jitter.is_some() {
            return Err((engine.error)(engine.jitter));
        }
        let rate = common_rate(&self.clock).ok_or_else(|| (engine.error)(engine.skew))?;
        Ok((protocol, rate))
    }
}

/// The initial state once validated. Counts stay counts until an engine
/// needs per-node state.
enum Initial {
    Counts(Vec<u64>),
    Assignment(Configuration),
}

impl Initial {
    /// Per-color counts, color 0 first.
    fn counts(self) -> Vec<u64> {
        match self {
            Initial::Counts(counts) => counts,
            Initial::Assignment(config) => config.counts().as_slice().to_vec(),
        }
    }

    /// The per-node assignment, permuted by the `seed.child(2)` stream
    /// when `shuffle` is set.
    fn configuration(self, shuffle: bool, seed: Seed) -> Result<Configuration, BuildError> {
        let mut config = match self {
            Initial::Counts(counts) => Configuration::from_counts(&counts)?,
            Initial::Assignment(config) => config,
        };
        if shuffle {
            config.shuffle(&mut SimRng::from_seed_value(seed.child(2)));
        }
        Ok(config)
    }
}

/// How an engine without per-node clocks words the axes it cannot
/// honour: its own `*Unsupported` variant, one payload per axis.
struct Unsupported {
    error: fn(&'static str) -> BuildError,
    sync: &'static str,
    halt: &'static str,
    jitter: &'static str,
    skew: &'static str,
}

const EPOCH: Unsupported = Unsupported {
    error: BuildError::ShardedUnsupported,
    sync: "synchronous protocols (epochs discretise the Poisson clock)",
    halt: "per-node halt budgets (epoch merges carry no per-node tick counts)",
    jitter: "jitter (response delays reorder activations across the epoch boundary)",
    skew: "heterogeneous clock rates (every node draws one Poisson(rate·τ) count)",
};

const MACRO: Unsupported = Unsupported {
    error: BuildError::MacroUnsupported,
    sync: "synchronous protocols (population dynamics model the Poisson-clock chain)",
    halt: "per-node halt budgets (bucket state carries no per-node tick counts)",
    jitter: "jitter (response delays reorder individual activations)",
    skew: "heterogeneous clock rates (buckets assume exchangeable nodes)",
};

const NET: Unsupported = Unsupported {
    error: BuildError::NetUnsupported,
    sync: "synchronous protocols (a deployment has no global round barrier)",
    halt: "per-node halt budgets (termination is detected by the gossiped beacon)",
    jitter: "jitter (a real transport's response delays are observed, not modeled)",
    skew: "heterogeneous clock rates (every node runs one local Poisson clock)",
};

/// The Poisson rate every node shares, or `None` for a heterogeneous
/// clock.
fn common_rate(clock: &Clock) -> Option<f64> {
    match clock {
        Clock::Sequential(_) => Some(1.0),
        Clock::EventQueue { rate } => Some(*rate),
        Clock::UniformSkew { .. } | Clock::Rates(_) => None,
    }
}

/// Whether `rate` is a usable clock or jitter rate ([`MIN_RATE`]).
fn valid_rate(rate: f64) -> bool {
    rate.is_finite() && rate >= MIN_RATE
}

/// Validates a clock configuration against the population size.
fn check_clock(clock: &Clock, n: usize) -> Result<(), BuildError> {
    match clock {
        Clock::Sequential(_) => {}
        Clock::EventQueue { rate } => {
            if !valid_rate(*rate) {
                return Err(BuildError::InvalidClock(
                    "event-queue rate must be finite and at least MIN_RATE (1e-280)",
                ));
            }
        }
        Clock::UniformSkew { skew } => {
            if !(0.0..1.0).contains(skew) {
                return Err(BuildError::InvalidClock("skew must lie in [0, 1)"));
            }
        }
        Clock::Rates(rates) => {
            if rates.len() != n {
                return Err(BuildError::RatesLength {
                    expected: n,
                    got: rates.len(),
                });
            }
            if !rates.iter().all(|&r| valid_rate(r)) {
                return Err(BuildError::InvalidClock(
                    "every clock rate must be finite and at least MIN_RATE (1e-280)",
                ));
            }
        }
    }
    Ok(())
}

/// Builds an activation source from a clock already vetted by
/// [`check_clock`] (and a fault plan already vetted by
/// [`FaultPlan::check`]).
///
/// Stream derivation is pinned: the scheduler uses `seed.child(0)`, the
/// jitter delay stream `seed.child(3)`, the fault layer `seed.child(4)`
/// and the fault latency stream `seed.child(5)` — so a builder run with
/// the default clock and no (or a neutral) fault plan reproduces the
/// historical streams byte for byte.
fn build_source(
    clock: &Clock,
    jitter: Option<f64>,
    faults: Option<&FaultPlan>,
    n: usize,
    seed: Seed,
) -> BoxedSource {
    let inner: BoxedSource = match clock {
        Clock::Sequential(mode) => {
            Box::new(SequentialScheduler::with_mode(n, seed.child(0), *mode))
        }
        Clock::EventQueue { rate } => Box::new(EventQueueScheduler::new(n, seed.child(0), *rate)),
        Clock::UniformSkew { skew } => Box::new(EventQueueScheduler::with_uniform_skew(
            n,
            *skew,
            seed.child(0),
        )),
        Clock::Rates(rates) => Box::new(EventQueueScheduler::with_rates(
            rates.clone(),
            seed.child(0),
        )),
    };
    // Each delay law wraps the clock in turn: the jitter's exponential law,
    // then the fault plan's latency.
    let jitter = jitter.map(|rate| LatencyModel::Exponential { rate });
    let delays = [
        (seed.child(3), jitter),
        (seed.child(5), faults.map(|f| f.latency)),
    ];
    delays.into_iter().fold(inner, |source, delay| match delay {
        (stream, Some(model)) if !model.is_none() => {
            Box::new(LatencyScheduler::new(source, stream, model))
        }
        _ => source,
    })
}

enum Engine {
    Sync {
        proto: Box<dyn SyncProtocol + Send>,
        topology: BoxedTopology,
        config: Configuration,
        rng: SimRng,
        rounds: u64,
    },
    Seq(Box<SeqSim<BoxedTopology, BoxedSource>>),
    Sharded(Box<ShardedSim>),
}

/// A fully assembled simulation, ready to run or single-step.
///
/// Construct with [`Sim::builder`]. The instrumentation accessors return
/// `None` when the underlying engine does not track that quantity (e.g.
/// working times exist only for the rapid protocol).
pub struct Sim {
    engine: Engine,
    stops: Vec<StopCondition>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let engine = match &self.engine {
            Engine::Sync { proto, .. } => format!("{proto:?}"),
            Engine::Seq(sim) => match sim.protocol() {
                AsyncProtocol::Gossip(rule) => rule.name().to_string(),
                AsyncProtocol::Rapid(_) => "rapid".to_string(),
            },
            Engine::Sharded(sim) => match sim.protocol() {
                AsyncProtocol::Gossip(_) => "sharded-gossip".to_string(),
                AsyncProtocol::Rapid(_) => "sharded-rapid".to_string(),
            },
        };
        f.debug_struct("Sim")
            .field("engine", &engine)
            .field("n", &self.n())
            .field("steps", &self.steps())
            .field("stops", &self.stops)
            .finish()
    }
}

impl Sim {
    /// Starts assembling a simulation.
    pub fn builder() -> SimBuilder {
        SimBuilder::new()
    }

    /// Unwraps the underlying sequential engine, if it runs the rapid
    /// protocol (for callers that want to drive it tick by tick).
    pub fn into_rapid(self) -> Option<SeqSim<BoxedTopology, BoxedSource>> {
        match self.engine {
            Engine::Seq(sim) if matches!(sim.protocol(), AsyncProtocol::Rapid(_)) => Some(*sim),
            _ => None,
        }
    }

    /// Unwraps the underlying sequential engine, if it runs a gossip rule
    /// (for callers that want to drive it tick by tick).
    pub fn into_gossip(self) -> Option<SeqSim<BoxedTopology, BoxedSource>> {
        match self.engine {
            Engine::Seq(sim) if matches!(sim.protocol(), AsyncProtocol::Gossip(_)) => Some(*sim),
            _ => None,
        }
    }

    /// The protocol the per-node engines run (`None` for synchronous
    /// rounds).
    fn protocol(&self) -> Option<&AsyncProtocol> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => Some(sim.protocol()),
            Engine::Sharded(sim) => Some(sim.protocol()),
        }
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        match &self.engine {
            Engine::Sync { config, .. } => config,
            Engine::Seq(sim) => sim.config(),
            Engine::Sharded(sim) => sim.config(),
        }
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.config().n()
    }

    /// Engine steps so far (rounds for synchronous protocols, activations
    /// for asynchronous ones).
    pub fn steps(&self) -> u64 {
        match &self.engine {
            Engine::Sync { rounds, .. } => *rounds,
            Engine::Seq(sim) => sim.steps(),
            Engine::Sharded(sim) => sim.steps(),
        }
    }

    /// Rounds so far, for synchronous protocols.
    pub fn rounds(&self) -> Option<u64> {
        match &self.engine {
            Engine::Sync { rounds, .. } => Some(*rounds),
            _ => None,
        }
    }

    /// Simulation time, for asynchronous engines.
    pub fn now(&self) -> Option<SimTime> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => Some(sim.now()),
            Engine::Sharded(sim) => Some(sim.now()),
        }
    }

    /// When the first node halted, if the dynamic halts.
    pub fn first_halt(&self) -> Option<SimTime> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => sim.first_halt(),
            Engine::Sharded(sim) => sim.first_halt(),
        }
    }

    /// How many nodes have halted, for dynamics that halt.
    pub fn halted_count(&self) -> Option<usize> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => Some(sim.halted_count()),
            Engine::Sharded(sim) => Some(sim.halted_count()),
        }
    }

    /// Per-node working times (rapid protocol only).
    pub fn working_times(&self) -> Option<Vec<u64>> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => sim.working_times(),
            Engine::Sharded(sim) => sim.working_times(),
        }
    }

    /// Working-time spread statistics (rapid protocol only).
    pub fn working_time_stats(&self, tolerance: u64) -> Option<WorkingTimeStats> {
        let mut wts = self.working_times()?;
        Some(WorkingTimeStats::from_times(&mut wts, tolerance))
    }

    /// Median working time (rapid protocol only).
    pub fn median_working_time(&self) -> Option<u64> {
        let mut wts = self.working_times()?;
        let mid = wts.len() / 2;
        Some(*wts.select_nth_unstable(mid).1)
    }

    /// Color histogram over the bit-set nodes (rapid protocol only).
    pub fn bit_composition(&self) -> Option<Vec<u64>> {
        match &self.engine {
            Engine::Sync { .. } => None,
            Engine::Seq(sim) => sim.bit_composition(),
            Engine::Sharded(sim) => sim.bit_composition(),
        }
    }

    /// Sync-Gadget jumps so far (rapid protocol only).
    pub fn jump_count(&self) -> Option<u64> {
        match &self.engine {
            Engine::Seq(sim) if self.is_rapid() => Some(sim.jump_count()),
            Engine::Sharded(sim) if self.is_rapid() => Some(sim.jump_count()),
            _ => None,
        }
    }

    /// Largest working-time displacement any jump caused (rapid protocol
    /// only).
    pub fn max_jump_displacement(&self) -> Option<u64> {
        match &self.engine {
            Engine::Seq(sim) if self.is_rapid() => Some(sim.max_jump_displacement()),
            Engine::Sharded(sim) if self.is_rapid() => Some(sim.max_jump_displacement()),
            _ => None,
        }
    }

    fn is_rapid(&self) -> bool {
        matches!(self.protocol(), Some(AsyncProtocol::Rapid(_)))
    }

    /// The generous fallback budget used when no explicit stop condition
    /// is configured: the rapid protocol's schedule-derived budget, or a
    /// population-scaled cap for open-ended dynamics
    /// ([`AsyncProtocol::default_step_budget`]).
    pub fn default_budget(&self) -> u64 {
        match self.protocol() {
            None => (self.n() as u64 * 64).max(100_000),
            Some(protocol) => protocol.default_step_budget(self.n()),
        }
    }

    /// Executes one engine step: one full round for synchronous
    /// protocols, one activation for asynchronous ones.
    pub fn step(&mut self) {
        match &mut self.engine {
            Engine::Sync {
                proto,
                topology,
                config,
                rng,
                rounds,
            } => {
                proto.round(&**topology, config, rng);
                *rounds += 1;
            }
            Engine::Seq(sim) => {
                sim.tick();
            }
            // One "step" of the epoch engine is one τ-sized epoch (≈ one
            // expected activation per node), not a single activation.
            Engine::Sharded(sim) => {
                sim.run_epoch();
            }
        }
    }

    /// Runs to completion without observers. See [`Sim::run_observed`].
    pub fn run(&mut self) -> Outcome {
        self.run_with(&mut [])
    }

    /// Runs to completion, delivering [`Progress`] snapshots to one
    /// observer (after the initial state and after every round / time
    /// unit).
    pub fn run_observed(&mut self, observer: &mut dyn Observer) -> Outcome {
        let mut observers: [&mut dyn Observer; 1] = [observer];
        self.run_with(&mut observers)
    }

    /// Advances the engine and reports the unanimous color if that
    /// produced unanimity. The sequential engine ticks as one batch (see
    /// [`SeqSim::run_batch`]): up to `max_ticks` ticks, ending early
    /// where a stop could fire. A synchronous round or an epoch is always
    /// a batch of its own, checked by a histogram scan.
    fn advance(&mut self, max_ticks: u64, horizon: SimTime) -> Option<Color> {
        match &mut self.engine {
            Engine::Seq(sim) => sim.run_batch(max_ticks, horizon),
            Engine::Sync { .. } | Engine::Sharded(_) => {
                self.step();
                self.config().unanimous()
            }
        }
    }

    /// Runs to completion with any number of observers.
    ///
    /// Unanimity and the stop conditions ([`Stops`]) are checked between
    /// batches of engine steps, and each batch ends at the first step
    /// where one of them could fire: a budget running out, an observer
    /// falling due (with observers attached), or, inside the sequential
    /// engine, a tick that creates unanimity, halts a node or reaches the
    /// earliest time horizon. So a run stops on exactly the step a check
    /// after every step would stop it on.
    pub fn run_with(&mut self, observers: &mut [&mut dyn Observer]) -> Outcome {
        let n = self.n() as u64;
        // One round, which is also the observers' cadence.
        let round = match self.engine {
            Engine::Sync { .. } => 1,
            _ => n,
        };
        let stops = Stops::new(self.stops.clone(), round, self.default_budget());
        let horizon = stops.horizon();
        let start_steps = self.steps();
        let mut last_notified = start_steps;

        self.notify(observers);
        let reason = loop {
            if self.steps() == start_steps {
                // A run may start unanimous; steps never ran.
                if let Some(winner) = self.config().unanimous() {
                    break (StopReason::Unanimity, Some(winner));
                }
            }
            let steps_run = self.steps() - start_steps;
            // Synchronous protocols: one round = one time unit.
            let now = self
                .now()
                .unwrap_or_else(|| SimTime::from_secs(self.steps() as f64));
            let all_halted = self.halted_count() == Some(n as usize);
            if let Some(reason) =
                stops.reason(steps_run, now, self.first_halt().is_some(), all_halted)
            {
                break (reason, None);
            }
            // The steps until a budget runs out or an observer is due;
            // every one of them is at least 1, or its stop had fired. (A
            // synchronous round or an epoch ignores the batch size.)
            let mut batch = stops.steps_left(steps_run);
            if !observers.is_empty() {
                batch = batch.min(round - steps_run % round);
            }
            let winner = self.advance(batch, horizon);
            if (self.steps() - start_steps).is_multiple_of(round) {
                self.notify(observers);
                last_notified = self.steps();
            }
            if let Some(winner) = winner {
                break (StopReason::Unanimity, Some(winner));
            }
        };
        // Observers always see the terminal state, even when the run ends
        // off the cadence (async runs rarely finish on a multiple of n).
        if !observers.is_empty() && last_notified != self.steps() {
            self.notify(observers);
        }
        self.outcome(reason.0, reason.1)
    }

    /// Runs to completion, demanding unanimity
    /// ([`Outcome::into_consensus`]).
    ///
    /// # Errors
    ///
    /// * [`ConvergenceError::AllHaltedWithoutConsensus`] if every node
    ///   froze first;
    /// * [`ConvergenceError::BudgetExhausted`] if any other stop fired
    ///   before unanimity.
    pub fn run_to_consensus(&mut self) -> Result<Outcome, ConvergenceError> {
        self.run().into_consensus()
    }

    fn notify(&self, observers: &mut [&mut dyn Observer]) {
        if observers.is_empty() {
            return;
        }
        let working_times = self.working_times();
        let progress = Progress {
            steps: self.steps(),
            rounds: self.rounds(),
            time: self.now(),
            config: self.config(),
            working_times: working_times.as_deref(),
        };
        for observer in observers.iter_mut() {
            observer.observe(&progress);
        }
    }

    fn outcome(&self, stop: StopReason, winner: Option<Color>) -> Outcome {
        // Theorem 1.3's success event: unanimity strictly before the first
        // halt. Defined only for engines that halt, and false whenever the
        // run ended without unanimity.
        let success = stop == StopReason::Unanimity
            && match self.first_halt() {
                None => true,
                // lint: allow(panic-hygiene): first_halt is only set by halting engines, which always carry virtual time
                Some(halt) => self.now().expect("halting engines are asynchronous") < halt,
            };
        // Rapid halts by its schedule on either engine; gossip halts only
        // under a halt budget, which only the sequential engine takes.
        let halts = matches!(&self.engine, Engine::Seq(sim) if sim.halt_budget().is_some());
        let before_first_halt = (halts || self.is_rapid()).then_some(success);
        Outcome {
            stop,
            winner,
            steps: self.steps(),
            rounds: self.rounds(),
            time: self.now(),
            first_halt: self.first_halt(),
            before_first_halt,
            final_counts: self.config().counts().as_slice().to_vec(),
        }
    }
}
