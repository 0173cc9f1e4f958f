//! The benchmark subsystem and the `xp` driver binary.
//!
//! The scientific content lives in `rapid-experiments`; this crate hosts
//! the *measurement layer* mirroring that crate's experiment registry one
//! level down:
//!
//! * [`sample`] — the [`sample::Bench`] trait, time budgets and the
//!   machine-readable [`sample::BenchSample`];
//! * [`registry`] — the static list of hot-path kernels
//!   ([`registry::bench_registry`]): protocol ticks, scheduler hand-out,
//!   topology/urn/RNG primitives, stats accumulators, full consensus runs;
//! * [`cli`] — the `xp` front end: one table-driven argument layer for
//!   every subcommand (experiments, `bench`, `sweep`, `net`, `lint`),
//!   with `xp bench`'s `list` / `run` / `all` implemented here.
//!
//! The single `xp` binary (`src/bin/xp.rs`) hands argv to [`cli::main`].
//!
//! One `xp bench` run is one sample on one host, not a speed verdict: a
//! change counts as faster or slower only when `tools/ab.py` says so from
//! interleaved pairs of the two commits (README § Performance).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod registry;
pub mod sample;

pub use registry::bench_registry;
pub use sample::{Bench, BenchSample, BudgetCfg};

/// Standard workload used by benches: multiplicative bias counts.
///
/// # Panics
///
/// Panics if the workload is infeasible (population too small for `k`).
pub fn bench_counts(n: u64, k: usize, eps: f64) -> Vec<u64> {
    rapid_core::InitialDistribution::multiplicative_bias(k, eps)
        .counts(n)
        // lint: allow(panic-hygiene): benchmark workloads are hard-coded and feasible by construction
        .expect("benchmark workload must be feasible")
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_counts_sum_to_n() {
        let c = super::bench_counts(1000, 4, 0.3);
        assert_eq!(c.iter().sum::<u64>(), 1000);
    }
}
