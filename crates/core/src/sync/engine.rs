//! The synchronous round engine.

use rapid_graph::topology::Topology;
use rapid_sim::node::NodeId;
use rapid_sim::rng::SimRng;

use crate::asynchronous::kernel::{resolve_all, GossipRule};
use crate::opinion::{Color, Configuration};

/// A synchronous gossip protocol executed in discrete rounds.
///
/// `round` must implement **snapshot semantics**: all nodes observe the
/// configuration as it was when the round began and update simultaneously.
/// Stateless color-only protocols can delegate to
/// [`simultaneous_color_update`]; protocols with per-node auxiliary state
/// (like [`crate::sync::OneExtraBit`]) manage their own buffers. The
/// kernel's [`GossipRule`]s are synchronous protocols themselves.
///
/// A protocol's [`Debug`](std::fmt::Debug) form is its name in the
/// façade's [`Protocol`](crate::facade::Protocol) and
/// [`Sim`](crate::facade::Sim) output.
pub trait SyncProtocol: std::fmt::Debug {
    /// Executes one synchronous round.
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng);

    /// Resets any per-run internal state (phase counters, bit vectors).
    ///
    /// Called by drivers before a fresh run; the default is a no-op for
    /// stateless protocols.
    fn reset(&mut self) {}
}

/// Applies a per-node color rule simultaneously: every node computes its
/// next color from the *snapshot* of current colors, then all updates land
/// at once.
///
/// This is the skeleton of the gossip rules' rounds.
pub fn simultaneous_color_update(
    g: &dyn Topology,
    config: &mut Configuration,
    rng: &mut SimRng,
    mut rule: impl FnMut(NodeId, &[Color], &dyn Topology, &mut SimRng) -> Color,
) {
    let snapshot: Vec<Color> = config.colors().to_vec();
    let mut next = snapshot.clone();
    for (i, slot) in next.iter_mut().enumerate() {
        *slot = rule(NodeId::new(i), &snapshot, g, rng);
    }
    config.replace_all(&next);
}

/// A gossip rule in synchronous rounds: every node pulls from the
/// round-start snapshot and updates under the kernel's
/// [`GossipRule::decide`].
///
/// * Two-Choices (Cooper, Elsässer & Radzik) is Theorem 1.1 of the paper:
///   on `K_n` with initial gap `c_1 − c_2 ≥ z√(n log n)` it converges to
///   the plurality within `O(n/c_1 · log n)` rounds w.h.p., and needs
///   `Ω(n/c_1 + log n)` in expectation, `Ω(k)` when `c_1 = Θ(n/k)`.
/// * 3-Majority (Becchetti et al.) has, on the clique, the same drift per
///   round as Two-Choices up to lower-order terms.
/// * Voter reaches consensus in `Θ(n)` expected rounds on the clique, and
///   each color wins with its initial share: the baseline that shows
///   what the other rules' drift buys.
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_sim::prelude::*;
///
/// let out = Sim::builder()
///     .topology(Complete::new(300))
///     .counts(&[200, 100])
///     .protocol(GossipRule::TwoChoices)
///     .seed(Seed::new(5))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
impl SyncProtocol for GossipRule {
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
        // One match per round; every node's pulls and rule are then fixed.
        match *self {
            GossipRule::Voter => gossip_round::<1>(GossipRule::Voter, g, config, rng),
            GossipRule::TwoChoices => gossip_round::<2>(GossipRule::TwoChoices, g, config, rng),
            GossipRule::ThreeMajority => {
                gossip_round::<3>(GossipRule::ThreeMajority, g, config, rng)
            }
        }
    }
}

/// One synchronous round of `rule`, which pulls `PULLS` peers: one
/// `sample_neighbor` per pull, in pull order, for each node in index
/// order.
#[inline(always)]
fn gossip_round<const PULLS: usize>(
    rule: GossipRule,
    g: &dyn Topology,
    config: &mut Configuration,
    rng: &mut SimRng,
) {
    simultaneous_color_update(g, config, rng, |u, snapshot, g, rng| {
        let mut pulled = [Color::new(0); PULLS];
        resolve_all(&mut pulled, || {
            Some(snapshot[g.sample_neighbor(u, rng).index()])
        });
        rule.decide(snapshot[u.index()], &pulled)
    });
}

/// Per-round measurements, collected by the `Sim` façade through the
/// [`crate::facade::Observer`] impl.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTrace {
    /// `c_1` (support of the current leader) after each round.
    pub c1: Vec<u64>,
    /// `c_2` (support of the runner-up) after each round.
    pub c2: Vec<u64>,
    /// Number of colors still alive after each round.
    pub support: Vec<usize>,
}

impl RoundTrace {
    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.c1.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.c1.is_empty()
    }

    pub(crate) fn record(&mut self, config: &Configuration) {
        let t = config.counts().top_two();
        self.c1.push(t.c1);
        self.c2.push(t.c2);
        self.support.push(config.counts().support_size());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ConvergenceError;
    use crate::facade::{Outcome, Sim, StopCondition};
    use rapid_graph::complete::Complete;
    use rapid_sim::rng::Seed;

    const RULES: [GossipRule; 3] = [
        GossipRule::Voter,
        GossipRule::TwoChoices,
        GossipRule::ThreeMajority,
    ];

    /// A protocol where everyone adopts color 0 immediately.
    #[derive(Debug)]
    struct Dictator;
    impl SyncProtocol for Dictator {
        fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
            simultaneous_color_update(g, config, rng, |_, _, _, _| Color::new(0));
        }
    }

    /// A protocol that never changes anything.
    #[derive(Debug)]
    struct Frozen;
    impl SyncProtocol for Frozen {
        fn round(&mut self, _: &dyn Topology, _: &mut Configuration, _: &mut SimRng) {}
    }

    /// `proto` on `K_n` from `counts`, run by the façade.
    fn run_on_clique(
        proto: impl SyncProtocol + Send + 'static,
        counts: &[u64],
        seed: u64,
        max_rounds: u64,
    ) -> Outcome {
        Sim::builder()
            .topology(Complete::new(counts.iter().sum::<u64>() as usize))
            .counts(counts)
            .protocol(proto)
            .seed(Seed::new(seed))
            .stop(StopCondition::RoundBudget(max_rounds))
            .build()
            .expect("valid experiment")
            .run()
    }

    #[test]
    fn dictator_converges_in_one_round() {
        let out = run_on_clique(Dictator, &[5, 5], 1, 10);
        assert_eq!(out.rounds, Some(1));
        assert_eq!(out.winner, Some(Color::new(0)));
    }

    #[test]
    fn frozen_exhausts_budget() {
        let err = run_on_clique(Frozen, &[2, 2], 2, 7)
            .into_consensus()
            .expect_err("cannot converge");
        assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 7 });
    }

    #[test]
    fn already_unanimous_returns_zero_rounds() {
        let out = run_on_clique(Frozen, &[4, 0], 3, 10);
        assert_eq!(out.as_sync().expect("already done").rounds, 0);
    }

    #[test]
    fn trace_records_initial_state_plus_each_round() {
        let mut trace = RoundTrace::default();
        let out = Sim::builder()
            .topology(Complete::new(10))
            .counts(&[6, 4])
            .protocol(Dictator)
            .seed(Seed::new(4))
            .build()
            .expect("valid experiment")
            .run_observed(&mut trace)
            .as_sync()
            .expect("converges");
        assert_eq!(trace.len(), out.rounds as usize + 1);
        assert_eq!(trace.c1[0], 6);
        assert_eq!(*trace.c1.last().expect("non-empty"), 10);
        assert!(!trace.is_empty());
    }

    #[test]
    fn simultaneous_update_uses_snapshot() {
        // Rule: adopt the color of node (i+1) mod n. With snapshot
        // semantics this is a cyclic shift; with in-place updates node 0's
        // new color would leak into node n−1's view.
        let g = Complete::new(3);
        let mut config =
            Configuration::from_assignment(vec![Color::new(0), Color::new(1), Color::new(2)], 3)
                .expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(6));
        simultaneous_color_update(&g, &mut config, &mut rng, |u, snapshot, _, _| {
            snapshot[(u.index() + 1) % snapshot.len()]
        });
        assert_eq!(
            config.colors(),
            &[Color::new(1), Color::new(2), Color::new(0)]
        );
    }

    /// Every one of 10 runs of `rule` from `counts` converges, and the
    /// plurality (color 0) wins at least 9 of them.
    fn assert_strong_plurality_wins(rule: GossipRule, counts: &[u64]) {
        let wins = (0..10)
            .filter(|&seed| {
                let out = run_on_clique(rule, counts, seed, 10_000);
                out.winner.expect("converges") == Color::new(0)
            })
            .count();
        assert!(wins >= 9, "{rule:?}: the plurality won only {wins}/10 runs");
    }

    #[test]
    fn two_choices_strong_plurality_wins() {
        assert_strong_plurality_wins(GossipRule::TwoChoices, &[250, 75, 75]);
    }

    #[test]
    fn three_majority_strong_plurality_wins() {
        assert_strong_plurality_wins(GossipRule::ThreeMajority, &[250, 50, 50, 50]);
    }

    #[test]
    fn voter_converges_on_small_clique() {
        let out = run_on_clique(GossipRule::Voter, &[15, 15], 4, 100_000);
        let winner = out
            .winner
            .expect("voter eventually hits an absorbing state");
        assert!(winner == Color::new(0) || winner == Color::new(1));
    }

    #[test]
    fn voter_win_rate_tracks_the_initial_share() {
        // With c_0 = 3n/4, color 0 should win about 75% of runs — far from
        // the ~100% a drift-based rule achieves.
        let trials = 60;
        let wins = (0..trials)
            .filter(|&seed| {
                let out = run_on_clique(GossipRule::Voter, &[30, 10], seed, 1_000_000);
                out.winner.expect("voter hits an absorbing state") == Color::new(0)
            })
            .count();
        let rate = wins as f64 / trials as f64;
        assert!(
            (0.5..0.95).contains(&rate),
            "voter win rate {rate} should sit near 0.75, not at certainty"
        );
    }

    #[test]
    fn unanimity_is_absorbing() {
        let g = Complete::new(50);
        for mut rule in RULES {
            let mut config = Configuration::from_counts(&[50, 0]).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(1));
            rule.round(&g, &mut config, &mut rng);
            assert_eq!(config.unanimous(), Some(Color::new(0)), "{rule:?}");
        }
    }

    #[test]
    fn rounds_conserve_counts() {
        let g = Complete::new(100);
        for mut rule in RULES {
            let mut config = Configuration::from_counts(&[60, 40]).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(2));
            for _ in 0..5 {
                rule.round(&g, &mut config, &mut rng);
                assert_eq!(config.counts().as_slice().iter().sum::<u64>(), 100);
            }
        }
    }

    #[test]
    fn support_never_grows() {
        // With k = n distinct colors, too: a node adopts only colors it
        // sampled (3-Majority's all-distinct tie included), so the
        // support cannot grow.
        let g = Complete::new(30);
        for mut rule in RULES {
            let colors: Vec<Color> = (0..30).map(Color::new).collect();
            let mut config = Configuration::from_assignment(colors, 30).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(7));
            for _ in 0..3 {
                let before = config.counts().support_size();
                rule.round(&g, &mut config, &mut rng);
                assert!(config.counts().support_size() <= before, "{rule:?}");
            }
        }
    }
}
