//! Umbrella crate for the *Rapid Asynchronous Plurality Consensus*
//! reproduction (Elsässer, Friedetzky, Kaaser, Mallmann-Trenn, Trinker;
//! PODC 2017).
//!
//! This crate re-exports the workspace's public API so applications can
//! depend on a single crate:
//!
//! * [`sim`] — simulation substrate (RNG, Poisson clocks, schedulers).
//! * [`graph`] — topologies with uniform neighbor sampling.
//! * [`urn`] — Pólya urn processes (the paper's analysis device).
//! * [`stats`] — statistics toolkit.
//! * [`core`] — the consensus protocols themselves.
//! * [`macro_engine`] — population-level simulation to `n = 10⁹` and
//!   mean-field predictions (`rapid-macro`).
//! * [`experiments`] — the experiment harness reproducing every claim.
//! * [`net`] — a real message-passing runtime (channel or UDP loopback)
//!   with the simulator as its correctness oracle (`rapid-net`).
//! * [`lint`] — the in-repo determinism & hygiene static-analysis pass
//!   behind `xp lint` (`rapid-lint`).
//! * [`sweep`] — the sweep scheduler and content-addressed result
//!   cache behind `xp sweep` (`rapid-sweep`).
//!
//! # Quickstart
//!
//! Every run — synchronous rounds, asynchronous gossip, or the paper's
//! full rapid protocol — is assembled through the unified
//! [`Sim`](core::facade::Sim) builder: pick a topology, an initial
//! state, a protocol, a clock, and go. Each update rule is one
//! [`GossipRule`](core::GossipRule) value, in synchronous rounds
//! (`.protocol(rule)`) as under Poisson clocks (`.gossip(rule)`), and
//! `Sim::run` is the one loop that runs any per-node engine to its end.
//!
//! ```
//! use rapid_plurality::prelude::*;
//!
//! // 1000 nodes, 4 opinions, plurality has a 1.5x multiplicative lead.
//! let workload = InitialDistribution::multiplicative_bias(4, 0.5);
//!
//! // Run the synchronous Two-Choices protocol to consensus.
//! let outcome = Sim::builder()
//!     .topology(Complete::new(1000))
//!     .distribution(workload.clone())
//!     .protocol(GossipRule::TwoChoices)
//!     .seed(Seed::new(7))
//!     .build()
//!     .expect("valid experiment")
//!     .run_to_consensus()
//!     .expect("converges");
//! assert_eq!(outcome.winner, Some(Color::new(0)));
//!
//! // Or the paper's asynchronous protocol (Theorem 1.3) under true
//! // per-node Poisson clocks.
//! let out = Sim::builder()
//!     .topology(Complete::new(1000))
//!     .distribution(workload)
//!     .rapid(Params::for_network_with_eps(1000, 4, 0.5))
//!     .clock(Clock::EventQueue { rate: 1.0 })
//!     .seed(Seed::new(8))
//!     .build()
//!     .expect("valid experiment")
//!     .run_to_consensus()
//!     .expect("converges");
//! assert_eq!(out.winner, Some(Color::new(0)));
//! assert_eq!(out.before_first_halt, Some(true));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rapid_core as core;
pub use rapid_experiments as experiments;
pub use rapid_graph as graph;
pub use rapid_lint as lint;
// `macro` is a reserved word; the population-level engine re-exports
// under `macro_engine`.
pub use rapid_macro as macro_engine;
pub use rapid_net as net;
pub use rapid_sim as sim;
pub use rapid_stats as stats;
pub use rapid_sweep as sweep;
pub use rapid_urn as urn;

/// One-stop import of the most used items across the workspace.
pub mod prelude {
    pub use rapid_core::prelude::*;
    pub use rapid_experiments::prelude::*;
    pub use rapid_graph::prelude::*;
    pub use rapid_macro::prelude::*;
    pub use rapid_sim::prelude::*;
}
