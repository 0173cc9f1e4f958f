//! The synchronous round engine.

use rapid_graph::topology::Topology;
use rapid_sim::node::NodeId;
use rapid_sim::rng::SimRng;

use crate::asynchronous::kernel::{resolve_all, GossipRule, MAX_PULLS};
use crate::convergence::{ConvergenceError, SyncOutcome};
use crate::opinion::{Color, Configuration};

/// A synchronous gossip protocol executed in discrete rounds.
///
/// `round` must implement **snapshot semantics**: all nodes observe the
/// configuration as it was when the round began and update simultaneously.
/// Stateless color-only protocols can delegate to
/// [`simultaneous_color_update`]; protocols with per-node auxiliary state
/// (like [`crate::sync::OneExtraBit`]) manage their own buffers.
pub trait SyncProtocol {
    /// Executes one synchronous round.
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng);

    /// Human-readable protocol name for tables and logs.
    fn name(&self) -> &'static str;

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

/// One synchronous round of a gossip rule: every node pulls from the
/// round-start snapshot and updates under the kernel's
/// [`GossipRule::decide`] — the shared `round` of
/// [`crate::sync::TwoChoices`], [`crate::sync::Voter`] and
/// [`crate::sync::ThreeMajority`].
pub(crate) fn gossip_round(
    rule: GossipRule,
    g: &dyn Topology,
    config: &mut Configuration,
    rng: &mut SimRng,
) {
    simultaneous_color_update(g, config, rng, |u, snapshot, g, rng| {
        let own = snapshot[u.index()];
        let mut pulled = [own; MAX_PULLS];
        let pulled = &mut pulled[..rule.pulls()];
        resolve_all(pulled, || Some(snapshot[g.sample_neighbor(u, rng).index()]));
        rule.decide(own, pulled)
    });
}

/// Per-round measurements collected by [`run_sync_traced`] (and, through
/// the [`crate::facade::Observer`] impl, by the `Sim` façade).
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

/// Runs `proto` on `config` until unanimity or `max_rounds`, optionally
/// recording a [`RoundTrace`]. The protocol is
/// [`reset`](SyncProtocol::reset) first, so a protocol value can be
/// reused across runs. (Most callers want the `Sim` builder instead —
/// `Sim::builder().topology(g).counts(…).protocol(proto)` — which drives
/// this engine with stop conditions and observers on top.)
///
/// # Errors
///
/// [`ConvergenceError::BudgetExhausted`] if `max_rounds` rounds pass
/// without unanimity.
pub fn run_sync_traced(
    proto: &mut dyn SyncProtocol,
    g: &dyn Topology,
    config: &mut Configuration,
    rng: &mut SimRng,
    max_rounds: u64,
    mut trace: Option<&mut RoundTrace>,
) -> Result<(SyncOutcome, u64), ConvergenceError> {
    if g.n() != config.n() {
        return Err(ConvergenceError::SizeMismatch {
            topology_n: g.n(),
            config_n: config.n(),
        });
    }
    proto.reset();
    if let Some(t) = trace.as_deref_mut() {
        t.record(config);
    }
    if let Some(winner) = config.unanimous() {
        return Ok((SyncOutcome { winner, rounds: 0 }, 0));
    }
    for round in 1..=max_rounds {
        proto.round(g, config, rng);
        if let Some(t) = trace.as_deref_mut() {
            t.record(config);
        }
        if let Some(winner) = config.unanimous() {
            return Ok((
                SyncOutcome {
                    winner,
                    rounds: round,
                },
                round,
            ));
        }
    }
    Err(ConvergenceError::BudgetExhausted { budget: max_rounds })
}

/// Test-only untraced driver, shared by the protocol unit tests (the
/// behaviour of the removed `run_sync_to_consensus` shim).
#[cfg(test)]
pub(crate) fn run_sync_to_consensus(
    proto: &mut dyn SyncProtocol,
    g: &dyn Topology,
    config: &mut Configuration,
    rng: &mut SimRng,
    max_rounds: u64,
) -> Result<SyncOutcome, ConvergenceError> {
    run_sync_traced(proto, g, config, rng, max_rounds, None).map(|(o, _)| o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_graph::complete::Complete;
    use rapid_sim::rng::Seed;

    /// A protocol where everyone adopts color 0 immediately.
    struct Dictator;
    impl SyncProtocol for Dictator {
        fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
            simultaneous_color_update(g, config, rng, |_, _, _, _| Color::new(0));
        }
        fn name(&self) -> &'static str {
            "dictator"
        }
    }

    /// A protocol that never changes anything.
    struct Frozen;
    impl SyncProtocol for Frozen {
        fn round(&mut self, _: &dyn Topology, _: &mut Configuration, _: &mut SimRng) {}
        fn name(&self) -> &'static str {
            "frozen"
        }
    }

    #[test]
    fn dictator_converges_in_one_round() {
        let g = Complete::new(10);
        let mut config = Configuration::from_counts(&[5, 5]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(1));
        let out =
            run_sync_to_consensus(&mut Dictator, &g, &mut config, &mut rng, 10).expect("converges");
        assert_eq!(out.rounds, 1);
        assert_eq!(out.winner, Color::new(0));
    }

    #[test]
    fn frozen_exhausts_budget() {
        let g = Complete::new(4);
        let mut config = Configuration::from_counts(&[2, 2]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(2));
        let err = run_sync_to_consensus(&mut Frozen, &g, &mut config, &mut rng, 7)
            .expect_err("cannot converge");
        assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 7 });
    }

    #[test]
    fn already_unanimous_returns_zero_rounds() {
        let g = Complete::new(4);
        let mut config = Configuration::from_counts(&[4, 0]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(3));
        let out = run_sync_to_consensus(&mut Frozen, &g, &mut config, &mut rng, 10)
            .expect("already done");
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn trace_records_initial_state_plus_each_round() {
        let g = Complete::new(10);
        let mut config = Configuration::from_counts(&[6, 4]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(4));
        let mut trace = RoundTrace::default();
        let (out, rounds) = run_sync_traced(
            &mut Dictator,
            &g,
            &mut config,
            &mut rng,
            10,
            Some(&mut trace),
        )
        .expect("converges");
        assert_eq!(out.rounds, rounds);
        assert_eq!(trace.len(), rounds as usize + 1);
        assert_eq!(trace.c1[0], 6);
        assert_eq!(*trace.c1.last().expect("non-empty"), 10);
        assert!(!trace.is_empty());
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let g = Complete::new(5);
        let mut config = Configuration::from_counts(&[2, 2]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(5));
        let err = run_sync_to_consensus(&mut Frozen, &g, &mut config, &mut rng, 1)
            .expect_err("size mismatch must be reported, not panic");
        assert_eq!(
            err,
            ConvergenceError::SizeMismatch {
                topology_n: 5,
                config_n: 4
            }
        );
        assert!(err.to_string().contains("disagree on n"));
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
}
