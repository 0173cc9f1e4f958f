//! Synchronous protocols (Section 2 of the paper) and baselines.
//!
//! * [`GossipRule`](crate::GossipRule) — the kernel's per-node rules in
//!   rounds: Two-Choices, the classic protocol of Cooper, Elsässer &
//!   Radzik (sample two, adopt on agreement; Theorem 1.1), and the
//!   Voter and 3-Majority baselines from the plurality-consensus
//!   literature, used by the comparison experiment.
//! * [`OneExtraBit`] — the paper's memory-model protocol: a Two-Choices
//!   round followed by Bit-Propagation rounds, repeated in phases
//!   (Theorem 1.2).
//!
//! All protocols implement [`SyncProtocol`] and run with snapshot
//! semantics: within one round all nodes observe the configuration as it
//! was at the start of the round. [`Sim`](crate::facade::Sim) runs them
//! (`Sim::builder().protocol(GossipRule::TwoChoices)`); its `step` is
//! one round.

pub mod engine;
pub mod one_extra_bit;

pub use engine::{simultaneous_color_update, RoundTrace, SyncProtocol};
pub use one_extra_bit::{OneExtraBit, OneExtraBitParams};
