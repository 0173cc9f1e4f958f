//! The 3-Majority baseline.

use rapid_graph::topology::Topology;
use rapid_sim::rng::SimRng;

use crate::asynchronous::kernel::GossipRule;
use crate::opinion::Configuration;
use crate::sync::engine::{gossip_round, SyncProtocol};

/// 3-Majority: each node samples three neighbors (with replacement) and
/// adopts the majority color among them; if all three differ, it adopts
/// the first sample's color.
///
/// A standard comparator in the plurality-consensus literature (Becchetti
/// et al.), with behaviour closely related to Two-Choices: on the clique,
/// one round of 3-Majority and one round of Two-Choices induce the same
/// drift up to lower-order terms.
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
///     .counts(&[200, 50, 50])
///     .protocol(ThreeMajority::new())
///     .seed(Seed::new(6))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreeMajority;

impl ThreeMajority {
    /// Creates the protocol.
    pub fn new() -> Self {
        ThreeMajority
    }
}

impl SyncProtocol for ThreeMajority {
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
        gossip_round(GossipRule::ThreeMajority, g, config, rng);
    }

    fn name(&self) -> &'static str {
        "3-majority"
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
            let mut config = Configuration::from_counts(&[250, 50, 50, 50]).expect("valid");
            let mut rng = SimRng::from_seed_value(Seed::new(seed));
            let out =
                run_sync_to_consensus(&mut ThreeMajority::new(), &g, &mut config, &mut rng, 10_000)
                    .expect("converges");
            if out.winner == Color::new(0) {
                wins += 1;
            }
        }
        assert!(wins >= 9, "plurality won only {wins}/10 runs");
    }

    #[test]
    fn tie_break_takes_first_sample() {
        // Indirect check: with k = n distinct colors, a round still makes
        // progress (support shrinks) because ties resolve to a sample, not
        // to the node's own color.
        let g = Complete::new(30);
        let colors: Vec<Color> = (0..30).map(Color::new).collect();
        let mut config = Configuration::from_assignment(colors, 30).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(7));
        let before = config.counts().support_size();
        ThreeMajority::new().round(&g, &mut config, &mut rng);
        // Colors can only be adopted from samples, so support cannot grow.
        assert!(config.counts().support_size() <= before);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(ThreeMajority::new().name(), "3-majority");
    }
}
