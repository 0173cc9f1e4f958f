//! The synchronous Two-Choices protocol (Theorem 1.1).

use rapid_graph::topology::Topology;
use rapid_sim::rng::SimRng;

use crate::asynchronous::kernel::GossipRule;
use crate::opinion::Configuration;
use crate::sync::engine::{gossip_round, SyncProtocol};

/// Two-Choices (Cooper, Elsässer & Radzik, ICALP'14): in every round each
/// node samples two neighbors uniformly at random, **with replacement**,
/// and adopts their color iff the two samples coincide.
///
/// Theorem 1.1 of the paper: on `K_n` with `k = O(n^ε)` opinions and
/// initial gap `c_1 − c_2 ≥ z√(n log n)`, this converges to the plurality
/// within `O(n/c_1 · log n)` rounds w.h.p.; conversely, `Ω(n/c_1 + log n)`
/// rounds are needed in expectation, giving `Ω(k)` when `c_1 = Θ(n/k)`.
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
///     .protocol(TwoChoices::new())
///     .seed(Seed::new(5))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TwoChoices;

impl TwoChoices {
    /// Creates the protocol.
    pub fn new() -> Self {
        TwoChoices
    }
}

impl SyncProtocol for TwoChoices {
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
        gossip_round(GossipRule::TwoChoices, g, config, rng);
    }

    fn name(&self) -> &'static str {
        "two-choices"
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
    fn strong_plurality_wins() {
        let g = Complete::new(400);
        let mut wins = 0;
        for seed in 0..10 {
            let mut config = Configuration::from_counts(&[250, 75, 75]).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(seed));
            let out =
                run_sync_to_consensus(&mut TwoChoices::new(), &g, &mut config, &mut rng, 10_000)
                    .expect("converges");
            if out.winner == Color::new(0) {
                wins += 1;
            }
        }
        assert!(wins >= 9, "plurality won only {wins}/10 runs");
    }

    #[test]
    fn unanimity_is_absorbing() {
        let g = Complete::new(50);
        let mut config = Configuration::from_counts(&[50, 0]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(1));
        let mut proto = TwoChoices::new();
        proto.round(&g, &mut config, &mut rng);
        assert_eq!(config.unanimous(), Some(Color::new(0)));
    }

    #[test]
    fn two_color_race_preserves_total() {
        let g = Complete::new(100);
        let mut config = Configuration::from_counts(&[60, 40]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(2));
        let mut proto = TwoChoices::new();
        for _ in 0..5 {
            proto.round(&g, &mut config, &mut rng);
            assert_eq!(config.counts().n(), 100);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(TwoChoices::new().name(), "two-choices");
    }
}
