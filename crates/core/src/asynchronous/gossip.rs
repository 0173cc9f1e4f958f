//! Plain asynchronous gossip: Voter, Two-Choices, 3-Majority.
//!
//! Each Poisson tick, the activated node samples neighbors per the
//! [`GossipRule`] and updates its color immediately (no snapshots — this is
//! the genuinely asynchronous dynamic).
//!
//! Asynchronous Two-Choices is both the natural baseline for the paper's
//! protocol and its **endgame** (part 2): Theorem 1.3's second stage runs
//! exactly this process from a `c_1 ≥ (1−ε)n` configuration. The optional
//! per-node tick budget ([`AsyncGossipSim::with_halt_after`]) models the
//! endgame's "finish line": nodes freeze after that many own ticks, and the
//! run succeeds only if unanimity arrives before the first freeze.

use rapid_graph::topology::Topology;
use rapid_sim::fault::{FaultPlan, FaultState};
use rapid_sim::rng::SimRng;
use rapid_sim::scheduler::{Activation, ActivationSource};
use rapid_sim::time::SimTime;

use crate::asynchronous::kernel::{resolve_all, GossipRule, MAX_PULLS};
use crate::convergence::{AsyncOutcome, ConvergenceError};
use crate::faults::pull;
use crate::opinion::{Color, Configuration};

/// An asynchronous gossip simulation.
///
/// Generic over the topology `G` and the activation source `S` (sequential,
/// event-queue, jittered, or a replayed trace).
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_sim::prelude::*;
///
/// let out = Sim::builder()
///     .topology(Complete::new(500))
///     .counts(&[400, 100])
///     .gossip(GossipRule::TwoChoices)
///     .seed(Seed::new(1))
///     .stop(StopCondition::StepBudget(10_000_000))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
#[derive(Clone, Debug)]
pub struct AsyncGossipSim<G, S> {
    topology: G,
    config: Configuration,
    rule: GossipRule,
    source: S,
    rng: SimRng,
    ticks: Vec<u64>,
    halt_after: Option<u64>,
    halted_count: usize,
    first_halt: Option<SimTime>,
    steps: u64,
    now: SimTime,
    faults: Option<FaultState>,
}

impl<G: Topology, S: ActivationSource> AsyncGossipSim<G, S> {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if topology, configuration and source disagree on `n`.
    pub fn new(
        topology: G,
        config: Configuration,
        rule: GossipRule,
        source: S,
        seed: rapid_sim::rng::Seed,
    ) -> Self {
        assert_eq!(
            topology.n(),
            config.n(),
            "topology/configuration n mismatch"
        );
        assert_eq!(source.n(), config.n(), "source/configuration n mismatch");
        let n = config.n();
        AsyncGossipSim {
            topology,
            config,
            rule,
            source,
            rng: SimRng::from_seed_value(seed),
            ticks: vec![0; n],
            halt_after: None,
            halted_count: 0,
            first_halt: None,
            steps: 0,
            now: SimTime::ZERO,
            faults: None,
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
    pub fn with_faults(mut self, plan: &FaultPlan, seed: rapid_sim::rng::Seed) -> Self {
        self.faults = Some(FaultState::new(plan, self.config.n(), seed));
        self
    }

    /// The fault layer, if one is installed.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// Makes every node freeze its color after `ticks` of its own ticks
    /// (the endgame's part-2 finish line).
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`.
    pub fn with_halt_after(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "halt budget must be positive");
        self.halt_after = Some(ticks);
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The update rule.
    pub fn rule(&self) -> GossipRule {
        self.rule
    }

    /// Simulation time of the latest activation.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total activations executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Time at which the first node froze, if any.
    pub fn first_halt(&self) -> Option<SimTime> {
        self.first_halt
    }

    /// The per-node tick budget after which nodes freeze, if one is set.
    pub fn halt_budget(&self) -> Option<u64> {
        self.halt_after
    }

    /// How many nodes have frozen.
    pub fn halted_count(&self) -> usize {
        self.halted_count
    }

    /// Executes one activation; returns it.
    pub fn tick(&mut self) -> Activation {
        let a = self.source.next_activation();
        self.now = a.time;
        self.steps += 1;
        let u = a.node;
        let i = u.index();

        if self.faults.is_some() {
            crate::faults::pre_tick(&mut self.faults, &mut self.config, a.time);
            if self.faults.as_ref().is_some_and(|f| f.is_down(u)) {
                // Crashed: the clock tick is consumed, the state is frozen.
                return a;
            }
        }
        if let Some(budget) = self.halt_after {
            if self.ticks[i] >= budget {
                // Frozen: clock ticks, state does not change.
                return a;
            }
        }
        self.ticks[i] += 1;
        // An interaction aborts (the node keeps its color) unless every
        // pulled response arrives.
        let own = self.config.color(u);
        let mut pulled = [own; MAX_PULLS];
        let pulled = &mut pulled[..self.rule.pulls()];
        let all = resolve_all(pulled, || {
            pull(&self.topology, u, &mut self.rng, self.faults.as_mut())
                .map(|v| self.config.color(v))
        });
        if all {
            self.config.set_color(u, self.rule.decide(own, pulled));
        }
        if let Some(budget) = self.halt_after {
            if self.ticks[i] >= budget {
                self.halted_count += 1;
                if self.first_halt.is_none() {
                    self.first_halt = Some(a.time);
                }
            }
        }
        a
    }

    /// Ticks up to `max_ticks` times and returns right after the first
    /// tick that leaves the configuration unanimous (with its color),
    /// freezes a node, or reaches `now >= horizon` — the ticks at which a
    /// run's stop conditions can first hold (see
    /// [`RapidSim::run_batch`](crate::asynchronous::RapidSim::run_batch)).
    /// With every node frozen already, the first tick ends the batch.
    ///
    /// The configuration must not be unanimous when the batch starts: it
    /// can then only become unanimous by the ticked node adopting the
    /// winning color, so one histogram lookup on that node's (possibly
    /// new) color replaces the O(k) full scan.
    pub fn run_batch(&mut self, max_ticks: u64, horizon: SimTime) -> Option<Color> {
        let n = self.config.n();
        let max_ticks = if self.halted_count == n {
            max_ticks.min(1)
        } else {
            max_ticks
        };
        for _ in 0..max_ticks {
            let halted = self.halted_count;
            let a = self.tick();
            let cu = self.config.color(a.node);
            if self.config.counts().count(cu) == n as u64 {
                return Some(cu);
            }
            if self.halted_count != halted || a.time >= horizon {
                return None;
            }
        }
        None
    }

    /// Runs until unanimity, every node frozen, or `max_steps`.
    ///
    /// # Errors
    ///
    /// * [`ConvergenceError::BudgetExhausted`] after `max_steps`
    ///   activations without unanimity;
    /// * [`ConvergenceError::AllHaltedWithoutConsensus`] if a halt budget is
    ///   set and every node froze first.
    pub fn run_until_consensus(
        &mut self,
        max_steps: u64,
    ) -> Result<AsyncOutcome, ConvergenceError> {
        let outcome = |sim: &Self, winner| AsyncOutcome {
            winner,
            time: sim.now,
            steps: sim.steps,
        };
        if let Some(winner) = self.config.unanimous() {
            return Ok(outcome(self, winner));
        }
        let end = self.steps.saturating_add(max_steps);
        while self.steps < end {
            if let Some(winner) = self.run_batch(end - self.steps, SimTime::MAX) {
                return Ok(outcome(self, winner));
            }
            if self.halted_count == self.config.n() {
                return Err(ConvergenceError::AllHaltedWithoutConsensus);
            }
        }
        Err(ConvergenceError::BudgetExhausted { budget: max_steps })
    }

    /// Whether unanimity (if reached) arrived strictly before the first
    /// node froze — Theorem 1.3's endgame success event. `true` when no
    /// node has frozen.
    pub fn consensus_before_first_halt(&self, consensus_time: SimTime) -> bool {
        match self.first_halt {
            None => true,
            Some(t) => consensus_time < t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_sim::rng::Seed;

    /// Async gossip on `K_n` under the sequential model, built through the
    /// façade (the same streams the removed `clique_gossip` shim derived).
    fn clique_gossip(
        counts: &[u64],
        rule: GossipRule,
        seed: Seed,
    ) -> AsyncGossipSim<crate::facade::BoxedTopology, crate::facade::BoxedSource> {
        let n: u64 = counts.iter().sum();
        crate::facade::Sim::builder()
            .topology(rapid_graph::complete::Complete::new(n as usize))
            .counts(counts)
            .gossip(rule)
            .seed(seed)
            .build()
            .expect("valid configuration")
            .into_gossip()
            .expect("gossip rule was selected")
    }

    #[test]
    fn two_choices_converges_to_strong_plurality() {
        let mut wins = 0;
        for seed in 0..10 {
            let mut sim = clique_gossip(&[400, 100], GossipRule::TwoChoices, Seed::new(seed));
            let out = sim.run_until_consensus(20_000_000).expect("converges");
            if out.winner == Color::new(0) {
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
        let mut sim =
            clique_gossip(&[c1, n - c1], GossipRule::TwoChoices, Seed::new(3)).with_halt_after(100); // ≈ 8 ln n ticks each
        let out = sim.run_until_consensus(50_000_000).expect("converges");
        assert_eq!(out.winner, Color::new(0));
        assert!(
            sim.consensus_before_first_halt(out.time),
            "consensus at {} vs first halt {:?}",
            out.time,
            sim.first_halt()
        );
    }

    #[test]
    fn all_halted_error_when_budget_is_tiny() {
        let mut sim = clique_gossip(&[50, 50], GossipRule::Voter, Seed::new(4)).with_halt_after(1);
        let err = sim
            .run_until_consensus(10_000_000)
            .expect_err("cannot finish");
        assert_eq!(err, ConvergenceError::AllHaltedWithoutConsensus);
        assert!(sim.first_halt().is_some());
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
        let mut sim = clique_gossip(&[300, 100, 100], GossipRule::ThreeMajority, Seed::new(6));
        let out = sim.run_until_consensus(20_000_000).expect("converges");
        assert_eq!(out.winner, Color::new(0));
    }

    #[test]
    fn already_unanimous_returns_immediately() {
        let mut sim = clique_gossip(&[100, 0], GossipRule::TwoChoices, Seed::new(7));
        let out = sim.run_until_consensus(10).expect("already done");
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut sim = clique_gossip(&[50, 50], GossipRule::TwoChoices, Seed::new(8));
        let err = sim.run_until_consensus(10).expect_err("too few steps");
        assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 10 });
    }

    #[test]
    fn rule_names_are_stable() {
        assert_eq!(GossipRule::Voter.to_string(), "async-voter");
        assert_eq!(GossipRule::TwoChoices.name(), "async-two-choices");
        assert_eq!(GossipRule::ThreeMajority.name(), "async-3-majority");
    }
}
