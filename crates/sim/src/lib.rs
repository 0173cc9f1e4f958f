//! Simulation substrate for asynchronous gossip protocols.
//!
//! This crate provides the machinery beneath the plurality-consensus
//! protocols of Elsässer et al. (PODC 2017):
//!
//! * [`rng`] — a deterministic, splittable pseudo-random number generator
//!   (SplitMix64 seeding a xoshiro256++ engine), implemented here with no
//!   external dependencies so streams are stable forever.
//! * [`time`] — totally ordered simulation time ([`SimTime`]).
//! * [`poisson`] — exponential and Poisson sampling, the clock model of
//!   the paper's asynchronous setting.
//! * [`scheduler`] — activation sources: the **sequential model** (each step
//!   activates a uniformly random node; `n` steps ≈ one time unit) and the
//!   **continuous-time model** (per-node Poisson clocks via an event queue,
//!   at one common rate or per-node rates). The paper analyses the former
//!   and invokes their equivalence (Mosk-Aoyama & Shah, 2008); this crate
//!   implements both so the equivalence can be tested rather than assumed.
//! * [`fault`] — the fault & adversary layer: message loss, per-edge
//!   latency distributions (including the discussion section's exponential
//!   response delays and heavy-tailed ones), churn schedules, and budgeted
//!   opinion-corrupting adversaries, all seed-deterministic.
//! * [`trace`] — recording and replaying activation sequences.
//! * [`metrics`] — per-node activation statistics (tick concentration).
//! * [`parallelism`] — the shared worker-count vocabulary
//!   ([`Parallelism`], [`Workers`]) used by trial fan-out, the sharded
//!   micro engine, and the deployment transport.
//!
//! # Example
//!
//! Drive a trivial "counter" protocol in the sequential model:
//!
//! ```
//! use rapid_sim::prelude::*;
//!
//! let n = 100;
//! let mut sched = SequentialScheduler::new(n, Seed::new(42));
//! let mut ticks = vec![0u64; n];
//! // Run for one expected time unit (= n activations).
//! for _ in 0..n {
//!     let a = sched.next_activation();
//!     ticks[a.node.index()] += 1;
//! }
//! assert_eq!(ticks.iter().sum::<u64>(), n as u64);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod node;
pub mod parallelism;
pub mod poisson;
pub mod rng;
pub mod scheduler;
pub mod testkit;
pub mod time;
pub mod trace;

pub use fault::{
    AdversaryKind, AdversaryPlan, ChurnEvent, FaultError, FaultPlan, FaultState, LatencyModel,
    LatencyScheduler,
};
pub use metrics::ActivationStats;
pub use node::NodeId;
pub use parallelism::{Parallelism, Workers};
pub use poisson::{sample_exponential, sample_poisson};
pub use rng::{Seed, SimRng, SplitMix64};
pub use scheduler::{
    Activation, ActivationSource, EventQueueScheduler, SequentialScheduler, TimeMode,
};
pub use time::SimTime;
pub use trace::{ActivationTrace, TraceReplay};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::fault::{
        AdversaryKind, AdversaryPlan, ChurnEvent, FaultPlan, FaultState, LatencyModel,
        LatencyScheduler,
    };
    pub use crate::metrics::ActivationStats;
    pub use crate::node::NodeId;
    pub use crate::parallelism::{Parallelism, Workers};
    pub use crate::poisson::sample_exponential;
    pub use crate::rng::{Seed, SimRng};
    pub use crate::scheduler::{
        Activation, ActivationSource, EventQueueScheduler, SequentialScheduler, TimeMode,
    };
    pub use crate::time::SimTime;
    pub use crate::trace::{ActivationTrace, TraceReplay};
}
