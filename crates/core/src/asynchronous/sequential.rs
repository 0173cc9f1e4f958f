//! The exact sequential engine: one activation at a time, on live state.
//!
//! Each Poisson tick, the activated node pulls from sampled neighbors and
//! updates at once — no snapshots, the genuinely asynchronous dynamic of
//! the paper's model. What it does is its [`AsyncProtocol`]:
//!
//! * **A gossip rule** (Voter, Two-Choices, 3-Majority). Asynchronous
//!   Two-Choices is both the natural baseline for the paper's protocol
//!   and its **endgame** (part 2): Theorem 1.3's second stage runs
//!   exactly this process from a `c_1 ≥ (1−ε)n` configuration. The
//!   optional per-node tick budget ([`SeqSim::with_halt_after`]) models
//!   the endgame's finish line: nodes freeze after that many own ticks.
//! * **The rapid protocol** (Theorem 1.3). Part 1 runs
//!   [`Params::phases`](crate::asynchronous::Params::phases) phases, each
//!   of three sub-phases decoded from the node's *working time* by its
//!   [`Schedule`](crate::asynchronous::Schedule):
//!   1. **Two-Choices** — sample two, remember the agreed color as the
//!      *intermediate* color; commit it (and set the bit) one block later.
//!      The separation between sample and commit is what makes the step
//!      effectively simultaneous for all well-synchronized nodes.
//!   2. **Bit-Propagation** — nodes without the bit pull once per tick;
//!      hitting a bit-set node copies its color and bit. The bit-set
//!      population's composition evolves as a Pólya urn (see
//!      `rapid-urn`), preserving the post-Two-Choices quadratic
//!      amplification while spreading it to everyone.
//!   3. **Sync Gadget** — sample real times, wait tactically, then *jump*
//!      the working time to the median estimate, resetting the
//!      accumulated Poisson drift so that all but `o(n)` nodes stay within
//!      `Δ` of each other (weak synchronicity).
//!
//!   Part 2 is the asynchronous Two-Choices above for `Θ(log n)` ticks,
//!   after which the node halts.
//!
//! Under either protocol the success event is unanimity on the plurality
//! *before the first halt*.
//!
//! # Example
//!
//! ```
//! use rapid_core::prelude::*;
//! use rapid_graph::prelude::*;
//! use rapid_sim::prelude::*;
//!
//! let out = Sim::builder()
//!     .topology(Complete::new(500))
//!     .counts(&[400, 100])
//!     .gossip(GossipRule::TwoChoices)
//!     .seed(Seed::new(1))
//!     .stop(StopCondition::StepBudget(10_000_000))
//!     .build()
//!     .expect("valid experiment")
//!     .run_to_consensus()
//!     .expect("converges");
//! assert_eq!(out.winner, Some(Color::new(0)));
//! ```

use rapid_graph::topology::Topology;
use rapid_sim::fault::{FaultPlan, FaultState};
use rapid_sim::rng::{Seed, SimRng};
use rapid_sim::scheduler::{Activation, ActivationSource};
use rapid_sim::time::SimTime;

use crate::asynchronous::kernel::{resolve_all, AsyncProtocol, Peer, Step, MAX_PULLS};
use crate::asynchronous::node::NodeState;
use crate::asynchronous::schedule::Action;
use crate::faults::pull;
use crate::opinion::{Color, Configuration};

/// A converged run of a halting engine, as
/// [`Outcome::as_rapid`](crate::facade::Outcome::as_rapid) reads it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RapidOutcome {
    /// The color every node ended up with.
    pub winner: Color,
    /// Parallel time at unanimity.
    pub time: SimTime,
    /// Activations at unanimity.
    pub steps: u64,
    /// When the first node halted, if any had by consensus time.
    pub first_halt: Option<SimTime>,
    /// Theorem 1.3's success event: unanimity strictly before the first
    /// halt (vacuously true if no node had halted).
    pub before_first_halt: bool,
}

/// Distribution snapshot of the nodes' working times (weak-synchronicity
/// instrumentation for experiment E8).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WorkingTimeStats {
    /// Minimum working time.
    pub min: u64,
    /// Median working time.
    pub median: u64,
    /// Maximum working time.
    pub max: u64,
    /// Fraction of nodes farther than `tolerance` from the median.
    pub poorly_synced: f64,
    /// The tolerance used (ticks).
    pub tolerance: u64,
}

impl WorkingTimeStats {
    /// Computes the spread statistics of a set of working times (sorts
    /// `times` in place).
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty.
    pub fn from_times(times: &mut [u64], tolerance: u64) -> Self {
        assert!(!times.is_empty(), "need at least one working time");
        times.sort_unstable();
        let n = times.len();
        let median = times[n / 2];
        let poorly = times
            .iter()
            .filter(|&&w| w.abs_diff(median) > tolerance)
            .count();
        WorkingTimeStats {
            min: times[0],
            median,
            max: times[n - 1],
            poorly_synced: poorly as f64 / n as f64,
            tolerance,
        }
    }
}

/// The exact sequential simulation of one [`AsyncProtocol`].
///
/// Generic over the topology `G` (the paper: `K_n`) and the activation
/// source `S` (sequential model, event queue, jittered for response
/// delays, or a replayed trace).
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_sim::prelude::*;
///
/// // 512 nodes, 4 opinions, plurality 1.5x ahead of the rest.
/// let out = Sim::builder()
///     .topology(Complete::new(512))
///     .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
///     .rapid(Params::for_network(512, 4))
///     .seed(Seed::new(42))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("Theorem 1.3 regime");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// assert_eq!(out.before_first_halt, Some(true));
/// ```
#[derive(Clone, Debug)]
pub struct SeqSim<G, S> {
    topology: G,
    source: S,
    rng: SimRng,
    config: Configuration,
    protocol: AsyncProtocol,
    /// Per-node Rapid state; empty under a gossip rule.
    nodes: Vec<NodeState>,
    /// Each node's own ticks, kept only under a gossip halt budget.
    ticks: Vec<u64>,
    halt_after: Option<u64>,
    steps: u64,
    now: SimTime,
    halted_count: usize,
    first_halt: Option<SimTime>,
    jumps: u64,
    max_jump_displacement: u64,
    faults: Option<FaultState>,
    adversary_struck: bool,
}

impl<G: Topology, S: ActivationSource> SeqSim<G, S> {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if topology, configuration and source disagree on `n`.
    pub fn new(
        topology: G,
        config: Configuration,
        protocol: AsyncProtocol,
        source: S,
        seed: Seed,
    ) -> Self {
        assert_eq!(
            topology.n(),
            config.n(),
            "topology/configuration n mismatch"
        );
        assert_eq!(source.n(), config.n(), "source/configuration n mismatch");
        let nodes = match protocol {
            AsyncProtocol::Gossip(_) => Vec::new(),
            AsyncProtocol::Rapid(_) => vec![NodeState::new(); config.n()],
        };
        SeqSim {
            topology,
            source,
            rng: SimRng::from_seed_value(seed),
            config,
            protocol,
            nodes,
            ticks: Vec::new(),
            halt_after: None,
            steps: 0,
            now: SimTime::ZERO,
            halted_count: 0,
            first_halt: None,
            jumps: 0,
            max_jump_displacement: 0,
            faults: None,
            adversary_struck: false,
        }
    }

    /// Installs a fault layer driven by `plan` (loss, churn, adversary;
    /// latency is realised one level down, by the activation source). A
    /// [neutral](FaultPlan::is_neutral) plan leaves the run bit-identical
    /// to one without a fault layer.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::check`] for this population.
    pub fn with_faults(mut self, plan: &FaultPlan, seed: Seed) -> Self {
        self.faults = Some(FaultState::new(plan, self.config.n(), seed));
        self
    }

    /// Makes every node freeze its color after `ticks` of its own ticks
    /// (the gossip endgame's finish line; Rapid halts by its schedule).
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0` or the protocol is Rapid.
    pub fn with_halt_after(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "halt budget must be positive");
        assert!(
            matches!(self.protocol, AsyncProtocol::Gossip(_)),
            "a halt budget needs a gossip rule"
        );
        self.halt_after = Some(ticks);
        self.ticks = vec![0; self.config.n()];
        self
    }

    /// Whether the latest [`tick`](Self::tick) applied at least one
    /// adversary corruption. Corruptions change colors outside any
    /// protocol action, so unanimity fast paths gated on
    /// [`Action::changes_color`] must also check after a strike.
    pub fn adversary_struck(&self) -> bool {
        self.adversary_struck
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The protocol being run.
    pub fn protocol(&self) -> &AsyncProtocol {
        &self.protocol
    }

    /// Simulation time of the latest activation.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total activations executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// When the first node halted (or froze), if any has.
    pub fn first_halt(&self) -> Option<SimTime> {
        self.first_halt
    }

    /// The per-node tick budget after which gossip nodes freeze, if set.
    pub fn halt_budget(&self) -> Option<u64> {
        self.halt_after
    }

    /// How many nodes have halted (or frozen).
    pub fn halted_count(&self) -> usize {
        self.halted_count
    }

    /// Total Sync-Gadget jumps executed so far.
    pub fn jump_count(&self) -> u64 {
        self.jumps
    }

    /// Largest |working-time displacement| any jump has caused.
    pub fn max_jump_displacement(&self) -> u64 {
        self.max_jump_displacement
    }

    /// Per-node working times (Rapid only).
    pub fn working_times(&self) -> Option<Vec<u64>> {
        self.rapid_nodes()
            .map(|nodes| nodes.iter().map(|s| s.working_time).collect())
    }

    /// Per-node real times, i.e. total ticks performed (Rapid only).
    pub fn real_times(&self) -> Option<Vec<u64>> {
        self.rapid_nodes()
            .map(|nodes| nodes.iter().map(|s| s.real_time).collect())
    }

    /// Color histogram over the **bit-set** nodes — the Pólya-urn
    /// population of the Bit-Propagation analysis (experiment E10; Rapid
    /// only).
    pub fn bit_composition(&self) -> Option<Vec<u64>> {
        let nodes = self.rapid_nodes()?;
        let mut counts = vec![0u64; self.config.k()];
        for (state, color) in nodes.iter().zip(self.config.colors()) {
            if state.bit {
                counts[color.index()] += 1;
            }
        }
        Some(counts)
    }

    fn rapid_nodes(&self) -> Option<&[NodeState]> {
        matches!(self.protocol, AsyncProtocol::Rapid(_)).then_some(&self.nodes)
    }

    /// A conservative activation budget
    /// ([`AsyncProtocol::default_step_budget`]).
    pub fn default_step_budget(&self) -> u64 {
        self.protocol.default_step_budget(self.config.n())
    }

    /// Executes one activation; returns it with the action performed.
    ///
    /// A Rapid tick reports the action its schedule decoded. A gossip
    /// interaction reports [`Action::Endgame`] — the paper's part 2 is
    /// exactly this interaction — and a frozen gossip node's tick
    /// [`Action::Halt`]. With a fault layer installed, a crashed node's
    /// tick is consumed as [`Action::Wait`], and any step whose pulled
    /// responses are voided (loss, crashed neighbor) aborts: all samples
    /// are still drawn from the main stream, but the node's state does not
    /// change.
    pub fn tick(&mut self) -> (Activation, Action) {
        let a = self.source.next_activation();
        self.now = a.time;
        self.steps += 1;
        let u = a.node;
        let i = u.index();

        if self.faults.is_some() {
            let strikes = crate::faults::pre_tick(&mut self.faults, &mut self.config, a.time);
            self.adversary_struck = strikes > 0;
            if self.faults.as_ref().is_some_and(|f| f.is_down(u)) {
                // Crashed: the clock tick is consumed, the state (working
                // time included) is frozen until the node rejoins.
                return (a, Action::Wait);
            }
        }
        let schedule = match &self.protocol {
            AsyncProtocol::Gossip(rule) => {
                let rule = *rule;
                if let Some(budget) = self.halt_after {
                    if self.ticks[i] >= budget {
                        return (a, Action::Halt);
                    }
                    self.ticks[i] += 1;
                }
                // An interaction aborts (the node keeps its color) unless
                // every pulled response arrives.
                let own = self.config.color(u);
                let mut pulled = [own; MAX_PULLS];
                let pulled = &mut pulled[..rule.pulls()];
                let all = resolve_all(pulled, || {
                    pull(&self.topology, u, &mut self.rng, self.faults.as_mut())
                        .map(|v| self.config.color(v))
                });
                if all {
                    self.config.set_color(u, rule.decide(own, pulled));
                }
                if self
                    .halt_after
                    .is_some_and(|budget| self.ticks[i] >= budget)
                {
                    self.halted_count += 1;
                    self.first_halt.get_or_insert(a.time);
                }
                return (a, Action::Endgame);
            }
            AsyncProtocol::Rapid(schedule) => schedule,
        };
        let (action, pulls) = match self.nodes[i].view().begin(schedule) {
            Step::Done(action) => return (a, action),
            Step::Apply { action, pulls } => (action, pulls),
        };
        let mut pulled = [Peer::default(); MAX_PULLS];
        let pulled = &mut pulled[..pulls];
        let all = resolve_all(pulled, || {
            let v = pull(&self.topology, u, &mut self.rng, self.faults.as_mut())?;
            let peer = &self.nodes[v.index()];
            Some(Peer {
                color: self.config.color(v),
                bit: peer.bit,
                real_time: peer.real_time,
            })
        });
        let effect = self.nodes[i]
            .view()
            .finish(schedule, action, all.then_some(pulled));
        if let Some(c) = effect.recolor {
            self.config.set_color(u, c);
        }
        if let Some(displacement) = effect.jump {
            self.jumps += 1;
            self.max_jump_displacement = self.max_jump_displacement.max(displacement);
        }
        if effect.halted {
            self.halted_count += 1;
            self.first_halt.get_or_insert(a.time);
        }
        (a, action)
    }

    /// Ticks up to `max_ticks` times and returns right after the first
    /// tick that leaves the configuration unanimous (with its color),
    /// halts a node, or reaches `now >= horizon`. Every stop condition of
    /// a run can first hold only at such a tick, so a driver that checks
    /// its stops between batches stops exactly where a check after every
    /// tick would. With every node halted already, the first tick ends
    /// the batch.
    ///
    /// The configuration must not be unanimous when the batch starts:
    /// only a color-changing action or an adversary strike can then
    /// create unanimity, which the ticked node's color count finds in
    /// O(1) (under unanimity every node's color count is `n`, whoever
    /// changed).
    pub fn run_batch(&mut self, max_ticks: u64, horizon: SimTime) -> Option<Color> {
        let n = self.config.n();
        let max_ticks = if self.halted_count == n {
            max_ticks.min(1)
        } else {
            max_ticks
        };
        for _ in 0..max_ticks {
            let halted = self.halted_count;
            let (a, action) = self.tick();
            if action.changes_color() || self.adversary_struck {
                let cu = self.config.color(a.node);
                if self.config.counts().count(cu) == n as u64 {
                    return Some(cu);
                }
            }
            if self.halted_count != halted || a.time >= horizon {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::kernel::GossipRule;
    use crate::asynchronous::params::Params;
    use crate::convergence::ConvergenceError;
    use crate::facade::{BoxedSource, BoxedTopology, Outcome, Sim, SimBuilder, StopCondition};

    type Engine = SeqSim<BoxedTopology, BoxedSource>;

    /// `K_n` under the sequential model, as the façade assembles it.
    fn clique(counts: &[u64], seed: Seed) -> SimBuilder {
        let n: u64 = counts.iter().sum();
        Sim::builder()
            .topology(rapid_graph::complete::Complete::new(n as usize))
            .counts(counts)
            .seed(seed)
    }

    /// Runs the assembly to its end through the façade's run loop.
    fn run(builder: SimBuilder) -> Result<Outcome, ConvergenceError> {
        builder
            .build()
            .expect("valid configuration")
            .run_to_consensus()
    }

    fn clique_gossip(counts: &[u64], rule: GossipRule, seed: Seed) -> Engine {
        clique(counts, seed)
            .gossip(rule)
            .build()
            .expect("valid configuration")
            .into_gossip()
            .expect("gossip rule was selected")
    }

    fn clique_rapid(counts: &[u64], params: Params, seed: Seed) -> Engine {
        clique(counts, seed)
            .rapid(params)
            .build()
            .expect("valid configuration")
            .into_rapid()
            .expect("rapid protocol was selected")
    }

    fn biased_counts(n: u64, k: usize, eps: f64) -> Vec<u64> {
        // c_1 = (1+eps) * c, others equal: c*(k-1) + (1+eps)c = n.
        let c = (n as f64 / (k as f64 + eps)).floor() as u64;
        let mut counts = vec![c; k];
        counts[0] = n - c * (k as u64 - 1);
        counts
    }

    #[test]
    fn two_choices_converges_to_strong_plurality() {
        let mut wins = 0;
        for seed in 0..10 {
            let out = run(clique(&[400, 100], Seed::new(seed))
                .gossip(GossipRule::TwoChoices)
                .stop(StopCondition::StepBudget(20_000_000)))
            .expect("converges");
            if out.winner == Some(Color::new(0)) {
                wins += 1;
            }
        }
        assert!(wins >= 9, "plurality won only {wins}/10");
    }

    #[test]
    fn endgame_finishes_before_first_halt_from_dominant_start() {
        // c1 = 0.95n: the paper's endgame precondition.
        let n = 2000u64;
        let c1 = (0.95 * n as f64) as u64;
        let out = run(clique(&[c1, n - c1], Seed::new(3))
            .gossip(GossipRule::TwoChoices)
            .halt_after(100) // ≈ 8 ln n ticks each
            .stop(StopCondition::StepBudget(50_000_000)))
        .expect("converges");
        assert_eq!(out.winner, Some(Color::new(0)));
        assert_eq!(
            out.before_first_halt,
            Some(true),
            "consensus at {:?} vs first halt {:?}",
            out.time,
            out.first_halt
        );
    }

    #[test]
    fn all_halted_error_when_budget_is_tiny() {
        let out = clique(&[50, 50], Seed::new(4))
            .gossip(GossipRule::Voter)
            .halt_after(1)
            .stop(StopCondition::StepBudget(10_000_000))
            .build()
            .expect("valid configuration")
            .run();
        assert!(out.first_halt.is_some());
        let err = out.into_consensus().expect_err("cannot finish");
        assert_eq!(err, ConvergenceError::AllHaltedWithoutConsensus);
    }

    #[test]
    fn voter_changes_color_every_tick() {
        let mut sim = clique_gossip(&[5, 5], GossipRule::Voter, Seed::new(5));
        let before = sim.config().counts().n();
        for _ in 0..100 {
            sim.tick();
        }
        assert_eq!(sim.config().counts().n(), before);
        assert_eq!(sim.steps(), 100);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn three_majority_converges() {
        let out = run(clique(&[300, 100, 100], Seed::new(6))
            .gossip(GossipRule::ThreeMajority)
            .stop(StopCondition::StepBudget(20_000_000)))
        .expect("converges");
        assert_eq!(out.winner, Some(Color::new(0)));
    }

    #[test]
    fn already_unanimous_returns_immediately() {
        let out = run(clique(&[100, 0], Seed::new(7))
            .gossip(GossipRule::TwoChoices)
            .stop(StopCondition::StepBudget(10)))
        .expect("already done");
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let err = run(clique(&[50, 50], Seed::new(8))
            .gossip(GossipRule::TwoChoices)
            .stop(StopCondition::StepBudget(10)))
        .expect_err("too few steps");
        assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 10 });
    }

    #[test]
    fn rule_names_are_stable() {
        assert_eq!(GossipRule::Voter.to_string(), "async-voter");
        assert_eq!(GossipRule::TwoChoices.name(), "async-two-choices");
        assert_eq!(GossipRule::ThreeMajority.name(), "async-3-majority");
    }

    #[test]
    fn converges_to_plurality_before_first_halt() {
        let counts = biased_counts(1024, 4, 0.5);
        let params = Params::for_network(1024, 4);
        let out = run(clique(&counts, Seed::new(1)).rapid(params)).expect("converges");
        assert_eq!(out.winner, Some(Color::new(0)));
        assert_eq!(
            out.before_first_halt,
            Some(true),
            "must finish before any node halts"
        );
    }

    #[test]
    fn multiple_seeds_all_pick_plurality() {
        let counts = biased_counts(512, 4, 0.6);
        let params = Params::for_network(512, 4);
        let mut wins = 0;
        for seed in 0..8 {
            if let Ok(out) = run(clique(&counts, Seed::new(seed)).rapid(params)) {
                if out.winner == Some(Color::new(0)) {
                    wins += 1;
                }
            }
        }
        assert!(wins >= 7, "plurality won only {wins}/8 runs");
    }

    #[test]
    fn sync_gadget_jumps_happen_and_are_bounded() {
        let counts = biased_counts(512, 2, 0.4);
        let params = Params::for_network(512, 2);
        let mut sim = clique_rapid(&counts, params, Seed::new(2));
        // Run roughly two phases' worth of activations.
        let two_phases = 2 * 512 * params.phase_len();
        for _ in 0..two_phases {
            sim.tick();
            if sim.config().unanimous().is_some() {
                break;
            }
        }
        assert!(sim.jump_count() > 0, "gadget should fire");
        // Jumps correct Poisson drift, which is ≪ a phase length here.
        assert!(
            sim.max_jump_displacement() < params.phase_len(),
            "displacement {} out of range",
            sim.max_jump_displacement()
        );
    }

    #[test]
    fn working_times_stay_weakly_synchronized() {
        let counts = biased_counts(1024, 2, 0.4);
        let params = Params::for_network(1024, 2);
        let mut sim = clique_rapid(&counts, params, Seed::new(3));
        let one_phase = 1024 * params.phase_len();
        let mut worst = 0.0f64;
        for _ in 0..4 {
            for _ in 0..one_phase {
                sim.tick();
            }
            // Tolerance 2Δ: the sample→commit separation, i.e. the drift a
            // node can absorb while still executing the critical steps in
            // lockstep with the bulk.
            let mut wts = sim.working_times().expect("rapid");
            let stats = WorkingTimeStats::from_times(&mut wts, 2 * params.delta as u64);
            worst = worst.max(stats.poorly_synced);
        }
        assert!(
            worst < 0.15,
            "poorly synced fraction {worst} too large with the gadget on"
        );
    }

    #[test]
    fn without_gadget_no_jumps_occur() {
        let counts = biased_counts(256, 2, 0.4);
        let params = Params::for_network(256, 2).without_gadget();
        let mut sim = clique_rapid(&counts, params, Seed::new(4));
        for _ in 0..256 * params.phase_len() {
            sim.tick();
        }
        assert_eq!(sim.jump_count(), 0);
    }

    #[test]
    fn endgame_alone_finishes_from_dominant_state() {
        // Start unanimous except for a few nodes: part 1 keeps it, part 2
        // must finish it.
        let params = Params::for_network(256, 2);
        let counts = [250u64, 6];
        let out = run(clique(&counts, Seed::new(5)).rapid(params)).expect("converges");
        assert_eq!(out.winner, Some(Color::new(0)));
    }

    #[test]
    fn tick_reports_actions_and_advances_clocks() {
        let params = Params::for_network(64, 2);
        let mut sim = clique_rapid(&[40, 24], params, Seed::new(6));
        let mut seen_wait = false;
        for _ in 0..64 * 3 {
            let (_, action) = sim.tick();
            if action == Action::Wait {
                seen_wait = true;
            }
        }
        assert!(seen_wait, "landing buffer produces waits");
        assert_eq!(sim.steps(), 64 * 3);
        let rt = sim.real_times().expect("rapid");
        assert_eq!(rt.iter().sum::<u64>(), 64 * 3);
    }

    #[test]
    fn unanimous_start_returns_instantly() {
        let params = Params::for_network(64, 2);
        let out = run(clique(&[64, 0], Seed::new(7))
            .rapid(params)
            .stop(StopCondition::StepBudget(1)))
        .expect("already unanimous");
        assert_eq!(out.steps, 0);
        assert_eq!(out.winner, Some(Color::new(0)));
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let params = Params::for_network(64, 2);
        let err = run(clique(&[40, 24], Seed::new(8))
            .rapid(params)
            .stop(StopCondition::StepBudget(5)))
        .expect_err("budget too small");
        assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 5 });
    }
}
