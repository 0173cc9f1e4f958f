//! # Rapid Asynchronous Plurality Consensus
//!
//! A faithful implementation of the protocols in:
//!
//! > Robert Elsässer, Tom Friedetzky, Dominik Kaaser, Frederik
//! > Mallmann-Trenn, Horst Trinker. *Brief Announcement: Rapid Asynchronous
//! > Plurality Consensus.* PODC 2017. DOI 10.1145/3087801.3087860.
//!
//! **Setting.** `n` nodes on the complete graph hold one of `k` opinions
//! with supports `c_1 ≥ c_2 ≥ … ≥ c_k`; the goal is for every node to adopt
//! the plurality opinion `C_1`, with high probability, by gossiping with
//! uniformly sampled nodes.
//!
//! **What's here.**
//!
//! * [`sync`] — the synchronous protocols: [`GossipRule::TwoChoices`]
//!   in rounds (Theorem 1.1: `O(n/c_1 · log n)` rounds, but `Ω(k)` in
//!   general), [`sync::OneExtraBit`] (Theorem 1.2: polylogarithmic via an
//!   extra bit and Bit-Propagation), and the [`GossipRule::Voter`] /
//!   [`GossipRule::ThreeMajority`] baselines.
//! * [`asynchronous`] — the paper's headline contribution: nodes driven
//!   by Poisson clocks schedule Two-Choices, Bit-Propagation and
//!   Sync-Gadget sub-phases by *working time*, achieving consensus in
//!   `Θ(log n)` time (Theorem 1.3) despite asynchrony; plus plain
//!   asynchronous gossip as baseline and endgame. Both are an
//!   [`asynchronous::AsyncProtocol`], run exactly by
//!   [`asynchronous::SeqSim`] or in epochs by
//!   [`asynchronous::ShardedSim`].
//! * [`opinion`] — colors, histograms, configurations.
//! * [`convergence`] — outcome and error types.
//!
//! * [`facade`] — the unified [`Sim`] builder: one entry
//!   point composing any topology, initial state, protocol, clock model,
//!   fault plan and stop conditions into a run with one serialisable
//!   [`Outcome`]. The fault axis
//!   ([`rapid_sim::fault::FaultPlan`]) adds message loss, edge latency,
//!   churn and budgeted adversaries to the exact sequential engine.
//!
//! # Quickstart
//!
//! ```
//! use rapid_core::prelude::*;
//! use rapid_graph::prelude::*;
//! use rapid_sim::prelude::*;
//!
//! // 1024 nodes, 4 opinions; the plurality leads by a (1+ε) factor.
//! let counts = [340u64, 228, 228, 228];
//! let out = Sim::builder()
//!     .topology(Complete::new(1024))
//!     .counts(&counts)
//!     .rapid(Params::for_network(1024, 4))
//!     .seed(Seed::new(7))
//!     .build()
//!     .expect("valid experiment")
//!     .run_to_consensus()
//!     .expect("converges");
//! assert_eq!(out.winner, Some(Color::new(0))); // plurality wins
//! assert_eq!(out.before_first_halt, Some(true)); // …before anyone halts
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod asynchronous;
pub mod convergence;
pub mod distributions;
pub mod facade;
mod faults;
pub mod opinion;
pub mod sync;

pub use asynchronous::{
    Action, AsyncProtocol, GossipRule, NodeState, Params, RapidOutcome, Schedule, SeqSim,
    ShardedSim,
};
pub use convergence::{ConvergenceError, SyncOutcome};
pub use distributions::{theorem_11_gap, theorem_12_gap, DistributionError, InitialDistribution};
pub use facade::{
    BuildError, Clock, EngineKind, MacroProtocol, MacroSpec, NetSpec, ObsObserver, Observer,
    Outcome, Progress, Protocol, Sim, SimBuilder, SpreadTrace, StopCondition, StopReason,
};
pub use opinion::{Color, ColorCounts, ConfigError, Configuration, TopTwo};
pub use sync::{OneExtraBit, OneExtraBitParams, SyncProtocol};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::asynchronous::kernel::{AsyncProtocol, GossipRule};
    pub use crate::asynchronous::params::Params;
    pub use crate::asynchronous::schedule::{Action, Schedule};
    pub use crate::asynchronous::sequential::{RapidOutcome, SeqSim};
    pub use crate::convergence::{ConvergenceError, SyncOutcome};
    pub use crate::distributions::{DistributionError, InitialDistribution};
    pub use crate::facade::{
        BuildError, Clock, EngineKind, MacroProtocol, MacroSpec, NetSpec, ObsObserver, Observer,
        Outcome, Progress, Protocol, Sim, SimBuilder, SpreadTrace, StopCondition, StopReason,
    };
    pub use crate::opinion::{Color, ColorCounts, Configuration, TopTwo};
    pub use crate::sync::engine::{RoundTrace, SyncProtocol};
    pub use crate::sync::one_extra_bit::{OneExtraBit, OneExtraBitParams};
}
