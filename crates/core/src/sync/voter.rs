//! The Voter model baseline.

use rapid_graph::topology::Topology;
use rapid_sim::rng::SimRng;

use crate::asynchronous::kernel::GossipRule;
use crate::opinion::Configuration;
use crate::sync::engine::{gossip_round, SyncProtocol};

/// Voter model: each node samples one neighbor and adopts its color
/// unconditionally.
///
/// The classic baseline: consensus is reached eventually, but the winner is
/// each color's initial fraction in distribution — the plurality wins only
/// with probability `c_1/n` — and expected convergence takes `Θ(n)` rounds
/// on the clique. The comparison experiment (E13) uses it to show what the
/// Two-Choices drift buys.
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_sim::prelude::*;
///
/// let out = Sim::builder()
///     .topology(Complete::new(20))
///     .counts(&[19, 1])
///     .protocol(Voter::new())
///     .seed(Seed::new(3))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert!(out.rounds.expect("synchronous") >= 1);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Voter;

impl Voter {
    /// Creates the protocol.
    pub fn new() -> Self {
        Voter
    }
}

impl SyncProtocol for Voter {
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
        gossip_round(GossipRule::Voter, g, config, rng);
    }

    fn name(&self) -> &'static str {
        "voter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Color;
    use rapid_graph::complete::Complete;
    use rapid_sim::rng::Seed;

    use crate::sync::engine::run_sync_to_consensus;

    #[test]
    fn converges_on_small_clique() {
        let g = Complete::new(30);
        let mut config = Configuration::from_counts(&[15, 15]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(4));
        let out = run_sync_to_consensus(&mut Voter::new(), &g, &mut config, &mut rng, 100_000)
            .expect("voter eventually hits an absorbing state");
        assert!(out.winner == Color::new(0) || out.winner == Color::new(1));
    }

    #[test]
    fn winner_is_roughly_proportional_to_initial_share() {
        // With c_0 = 3n/4, color 0 should win about 75% of runs — far from
        // the ~100% a drift-based protocol achieves.
        let g = Complete::new(40);
        let mut wins = 0;
        let trials = 60;
        for seed in 0..trials {
            let mut config = Configuration::from_counts(&[30, 10]).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(seed));
            let out =
                run_sync_to_consensus(&mut Voter::new(), &g, &mut config, &mut rng, 1_000_000)
                    .expect("converges");
            if out.winner == Color::new(0) {
                wins += 1;
            }
        }
        let rate = wins as f64 / trials as f64;
        assert!(
            (0.5..0.95).contains(&rate),
            "voter win rate {rate} should sit near 0.75, not at certainty"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Voter::new().name(), "voter");
    }
}
