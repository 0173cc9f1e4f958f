//! Sweep orchestration: many parameter-grid runs, one scheduler.
//!
//! This crate turns the experiment registry into grids of cacheable
//! trials:
//!
//! * [`spec::SweepSpec`] declares a parameter grid over any registered
//!   experiment and expands it into trial-granular [`spec::WorkItem`]s —
//!   one per (canonical parameter assignment, seed) pair, in a fixed
//!   deterministic enumeration order;
//! * [`scheduler`] fans the items across
//!   `Parallelism::trial_workers`, which claim them by one shared atomic
//!   index, streams each result as a JSONL line the moment it completes,
//!   and returns
//!   the index-sorted result set — bit-identical under any worker count
//!   or arrival order, because every item's output depends only on
//!   (experiment, params, seed);
//! * [`cache`] is a content-addressed result store keyed on FNV-1a of
//!   (experiment id, canonical params, seed, backend, commit), held as
//!   append-only JSONL under `out/cache/`, with hit/miss/eviction
//!   counters — a repeated sweep is served without recomputing a trial.
//!
//! `xp sweep` (argv handling in `rapid-bench`'s `cli` module) drives
//! [`run_sweep`]. Everything is std-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod scheduler;
pub mod spec;

pub use cache::{cache_key, CacheCounters, CacheKey, CacheRecord, ResultCache};
pub use scheduler::{run_sweep, run_sweep_with, SweepOutcome, TrialRecord, TrialStatus};
pub use spec::{SweepError, SweepSpec, WorkItem};

/// Convenient glob-import of the sweep surface.
pub mod prelude {
    pub use crate::cache::{cache_key, CacheCounters, CacheKey, CacheRecord, ResultCache};
    pub use crate::scheduler::{run_sweep, run_sweep_with, SweepOutcome, TrialRecord, TrialStatus};
    pub use crate::spec::{SweepError, SweepSpec, WorkItem};
}
