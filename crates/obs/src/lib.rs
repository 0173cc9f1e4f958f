#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! rapid-obs — the zero-dependency observability layer.
//!
//! The paper's central claim is structural: rapid consensus moves through
//! O(log log_α k) *phases* of bias amplification, and everything worth
//! debugging — shard balance, τ-leap batching, UDP drops — is a
//! trajectory, not a final number. This crate provides
//! the two primitives every engine shares:
//!
//! * a [`registry::Registry`] of named counters, gauges and log₂-scaled
//!   histograms behind atomic cells, snapshottable at any instant into a
//!   sorted [`registry::Snapshot`];
//! * a bounded ring-buffer [`trace::TraceBuffer`] of typed structured
//!   [`trace::TraceEvent`]s with per-stream sequence numbers and JSONL
//!   export (backing `xp trace`).
//!
//! **The disabled path is one branch.** Engines hold an
//! `Option<Arc<Obs>>`; when it is `None` every emission site is a single
//! predictable-not-taken branch, so instrumented engines stay
//! bit-identical and within bench noise of the uninstrumented ones
//! (pinned by the golden hashes in `crates/core/tests/sharding.rs` and
//! benched by `obs/trace_event_disabled`).
//!
//! **Observers never touch RNG streams.** Nothing in this crate can
//! sample randomness — it has no dependencies at all — and the
//! `trace-rng-purity` lint rule keeps emission sites in engine crates
//! from reaching into `Seed::child` streams. Tracing on or off, a run
//! draws exactly the same variates in the same order.

pub mod registry;
pub mod trace;

use std::sync::Arc;

pub use registry::{Counter, Gauge, Histogram, Registry, Snapshot, Value};
pub use trace::{EventKind, TraceBuffer, TraceEvent, TraceRecord};

/// A bundled registry + trace buffer: the single handle engines carry.
///
/// Engines store `Option<Arc<Obs>>` (see [`ObsHandle`]); `None` is the
/// zero-cost disabled path.
#[derive(Debug)]
pub struct Obs {
    /// Named metric cells; snapshot at any time.
    pub registry: Registry,
    /// Bounded ring buffer of structured trace events.
    pub trace: TraceBuffer,
}

/// Default trace-buffer capacity: generous enough for a full quick-preset
/// phase trajectory, small enough to stay off the allocator's radar.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Obs {
    /// A fresh handle with the default trace capacity.
    pub fn new() -> Arc<Obs> {
        Obs::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh handle with an explicit trace-buffer capacity.
    pub fn with_capacity(capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            registry: Registry::new(),
            trace: TraceBuffer::new(capacity),
        })
    }
}

/// The handle engines thread through their hot paths. `None` disables
/// all instrumentation at the cost of one branch per site.
pub type ObsHandle = Option<Arc<Obs>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_constructs_and_both_halves_work() {
        let obs = Obs::new();
        obs.registry.counter("smoke").inc();
        obs.trace.emit(
            "t",
            TraceEvent::BiasSample {
                time: 0.0,
                leader: 1,
                support: 3,
                runner_up: 2,
                total: 5,
            },
        );
        assert_eq!(obs.trace.len(), 1);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.get_counter("smoke"), Some(1));
    }
}
