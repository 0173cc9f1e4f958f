//! The asynchronous protocols (Section 3 of the paper).
//!
//! * [`AsyncGossipSim`] — plain asynchronous gossip under a [`GossipRule`]
//!   (Voter, Two-Choices, 3-Majority): each Poisson tick, the activated
//!   node samples and updates immediately. Async Two-Choices is both the
//!   natural baseline and the paper's *endgame* (part 2).
//! * [`RapidSim`] — the paper's full protocol: working-time-scheduled
//!   phases of Two-Choices, Bit-Propagation and Sync-Gadget sub-phases
//!   (part 1), followed by the Two-Choices endgame (part 2). Theorem 1.3:
//!   with multiplicative bias `c_1 ≥ (1+ε)c_i` and
//!   `k = O(exp(log n/log log n))`, consensus on the plurality is reached
//!   in `Θ(log n)` time w.h.p.
//!
//! * [`ShardedSim`] — the same two protocols advanced in deterministic
//!   τ-sized epochs across worker threads, with struct-of-arrays node
//!   state and per-(epoch, node) RNG streams: the scaling engine for
//!   `n = 10⁷` (see [`sharded`]).
//!
//! Every engine runs the same per-node rules from [`kernel`]: the gossip
//! rules' [`GossipRule::decide`] and the Rapid transition, Sync Gadget
//! included (sample real times, then *jump* the working time to their
//! median). The working-time machinery lives in [`params`] (sub-phase
//! lengths, theory-guided defaults) and [`schedule`] (pure working-time →
//! action decoding, exhaustively unit-tested).

pub mod gossip;
pub mod kernel;
pub mod node;
pub mod params;
pub mod rapid;
pub mod schedule;
pub mod sharded;

pub use gossip::AsyncGossipSim;
pub use kernel::GossipRule;
pub use node::NodeState;
pub use params::Params;
pub use rapid::{RapidOutcome, RapidSim};
pub use schedule::{Action, Schedule};
pub use sharded::{ShardedProtocol, ShardedSim};
