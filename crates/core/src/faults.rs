//! Opinion-level fault hooks of the exact sequential engine.
//!
//! The mechanics of the fault layer (loss draws, churn transitions,
//! strike scheduling) live in [`rapid_sim::fault`]; this module supplies
//! the pieces that need to see the engine: the pull with its crash/loss
//! veto, and turning an adversary strike into a concrete corruption of
//! the [`Configuration`].

use rapid_graph::topology::Topology;
use rapid_sim::fault::{AdversaryKind, FaultState};
use rapid_sim::node::NodeId;
use rapid_sim::rng::SimRng;
use rapid_sim::time::SimTime;

use crate::opinion::{Color, Configuration};

/// The sequential engine's pull resolver: samples one neighbor of `u`
/// from the main stream (so fault-free runs are bit-identical to the
/// pre-fault implementation), then the fault layer may void the response
/// — the contacted node is down, or the message is lost.
#[inline]
pub(crate) fn pull<G: Topology + ?Sized>(
    topology: &G,
    u: NodeId,
    rng: &mut SimRng,
    faults: Option<&mut FaultState>,
) -> Option<NodeId> {
    let v = topology.sample_neighbor(u, rng);
    let voided = faults.is_some_and(|f| f.is_down(v) || f.message_lost());
    (!voided).then_some(v)
}

/// Advances the fault layer to `now` and applies any adversary strikes
/// that came due, returning how many were applied. Called by the engine
/// at the top of every tick; a `None` fault layer is a no-op. The strike
/// count matters to the engine's unanimity fast path: a corruption can
/// create unanimity outside any color-changing protocol action.
pub(crate) fn pre_tick(
    faults: &mut Option<FaultState>,
    config: &mut Configuration,
    now: SimTime,
) -> u64 {
    let Some(f) = faults.as_mut() else { return 0 };
    f.advance_to(now);
    let strikes = f.adversary_due(now);
    for _ in 0..strikes {
        corrupt_one(config, f);
    }
    strikes
}

/// Performs one adversary corruption, drawing any randomness from the
/// fault layer's dedicated stream.
fn corrupt_one(config: &mut Configuration, f: &mut FaultState) {
    // lint: allow(panic-hygiene): strikes are only scheduled when the plan configures an adversary
    match f.adversary_kind().expect("a strike implies an adversary") {
        AdversaryKind::Oblivious => {
            // Blind: random node, random color, no peek at the state.
            let node = NodeId::new(f.rng_mut().bounded_usize(config.n()));
            let color = Color::new(f.rng_mut().bounded_usize(config.k()));
            config.set_color(node, color);
        }
        AdversaryKind::Adaptive => {
            // Late adversary: flip a node holding the current plurality
            // color to the current runner-up. Scan from a random start so
            // repeated strikes don't always hit the same node.
            let top = config.counts().top_two();
            let n = config.n();
            let start = f.rng_mut().bounded_usize(n);
            for off in 0..n {
                let u = NodeId::new((start + off) % n);
                if config.color(u) == top.leader {
                    config.set_color(u, top.runner_up);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_sim::fault::{AdversaryPlan, FaultPlan};
    use rapid_sim::rng::Seed;

    fn state(kind: AdversaryKind, budget: u64) -> FaultState {
        let plan = FaultPlan::none().with_adversary(AdversaryPlan {
            kind,
            budget,
            start: SimTime::ZERO,
            interval: 1.0,
        });
        FaultState::new(&plan, 10, Seed::new(1))
    }

    #[test]
    fn oblivious_corruption_keeps_population_size() {
        let mut config = Configuration::from_counts(&[6, 4]).expect("valid");
        let mut f = state(AdversaryKind::Oblivious, 8);
        for _ in 0..8 {
            corrupt_one(&mut config, &mut f);
        }
        assert_eq!(config.counts().n(), 10);
    }

    #[test]
    fn adaptive_corruption_moves_leader_support_to_the_runner_up() {
        let mut config = Configuration::from_counts(&[7, 3]).expect("valid");
        let mut f = state(AdversaryKind::Adaptive, 2);
        corrupt_one(&mut config, &mut f);
        corrupt_one(&mut config, &mut f);
        assert_eq!(config.counts().count(Color::new(0)), 5);
        assert_eq!(config.counts().count(Color::new(1)), 5);
    }

    #[test]
    fn pre_tick_without_faults_is_a_no_op() {
        let mut config = Configuration::from_counts(&[6, 4]).expect("valid");
        let before = config.clone();
        pre_tick(&mut None, &mut config, SimTime::from_secs(10.0));
        assert_eq!(config, before);
    }

    #[test]
    fn pre_tick_applies_due_strikes() {
        let mut config = Configuration::from_counts(&[8, 2]).expect("valid");
        let mut faults = Some(state(AdversaryKind::Adaptive, 3));
        pre_tick(&mut faults, &mut config, SimTime::from_secs(2.5));
        // Strikes at 0, 1, 2 have fired; the budget is spent.
        assert_eq!(config.counts().count(Color::new(0)), 5);
        assert_eq!(faults.as_ref().expect("set").adversary_budget_left(), 0);
    }
}
