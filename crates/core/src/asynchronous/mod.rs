//! The asynchronous protocols (Section 3 of the paper).
//!
//! Each per-node engine runs one [`AsyncProtocol`]: plain asynchronous
//! gossip under a [`GossipRule`] (Voter, Two-Choices, 3-Majority — async
//! Two-Choices is both the natural baseline and the paper's *endgame*,
//! part 2), or the paper's full protocol: working-time-scheduled phases
//! of Two-Choices, Bit-Propagation and Sync-Gadget sub-phases (part 1),
//! followed by the Two-Choices endgame (part 2). Theorem 1.3: with
//! multiplicative bias `c_1 ≥ (1+ε)c_i` and
//! `k = O(exp(log n/log log n))`, consensus on the plurality is reached
//! in `Θ(log n)` time w.h.p.
//!
//! * [`SeqSim`] — the exact sequential engine: one activation at a time
//!   through one RNG stream, on live state (see [`sequential`]).
//! * [`ShardedSim`] — the same protocols advanced in deterministic
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

pub mod kernel;
pub mod node;
pub mod params;
pub mod schedule;
pub mod sequential;
pub mod sharded;

pub use kernel::{AsyncProtocol, GossipRule};
pub use node::NodeState;
pub use params::Params;
pub use schedule::{Action, Schedule};
pub use sequential::{RapidOutcome, SeqSim};
pub use sharded::ShardedSim;
