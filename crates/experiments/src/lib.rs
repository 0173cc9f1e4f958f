//! Experiment harness reproducing every claim of Elsässer et al.
//! (PODC 2017), *Rapid Asynchronous Plurality Consensus*.
//!
//! The paper is a brief announcement with no empirical section, so the
//! "tables and figures" regenerated here are the paper's *claims*:
//! theorems 1.1–1.3 and the quantitative statements in the prose. The
//! table below maps each experiment to its claim (`xp list` prints the
//! same map from the registry); each report records the predicted
//! versus the measured shape.
//!
//! | Module | Claim |
//! |--------|-------|
//! | [`e01`] | Thm 1.1 upper bound: Two-Choices in `O(n/c₁·log n)` rounds |
//! | [`e02`] | Thm 1.1 lower bound: `Ω(k)` rounds when `c₁ = Θ(n/k)` |
//! | [`e03`] | Thm 1.1: at gap `O(√n)` the runner-up wins with constant probability |
//! | [`e04`] | Thm 1.2: OneExtraBit is polylogarithmic, beats Two-Choices at large k |
//! | [`e05`] | §2: per-phase quadratic bias amplification |
//! | [`e06`] | Thm 1.3: the asynchronous protocol runs in `Θ(log n)` time |
//! | [`e07`] | Thm 1.3: k-range up to `exp(log n / log log n)` |
//! | [`e08`] | §3: weak synchronicity; Sync-Gadget ablation |
//! | [`e09`] | §1.1/§3: tick concentration and the `Ω(log n)` barrier |
//! | [`e10`] | §3.1: Bit-Propagation behaves as a Pólya urn (martingale) |
//! | [`e11`] | §3.2: the endgame finishes before the first node halts |
//! | [`e12`] | §4: exponential response delays preserve the `O(log n)` shape |
//! | [`e13`] | context: protocol comparison across k |
//! | [`e14`] | extension (§4): the protocols beyond the complete graph |
//! | [`e15`] | extension (§4): heterogeneous clock rates |
//! | [`e16`] | §3: quadratic amplification inside the asynchronous protocol |
//! | [`e17`] | fault model: robustness to per-message loss |
//! | [`e18`] | fault model: convergence under churn (crash + rejoin) |
//! | [`e19`] | fault model: budgeted oblivious / adaptive adversaries |
//! | [`e20`] | macro engine: micro vs macro occupancy trajectories agree |
//! | [`e21`] | macro engine: time-to-plurality at `n` up to `10⁹` |
//! | [`e22`] | macro engine: the `√(n log n)` bias threshold at scale |
//! | [`e23`] | rapid-net: the channel deployment agrees with the micro engine |
//! | [`e24`] | rapid-net: a UDP loopback deployment converges end to end |
//! | [`e25`] | sharded micro engine: per-node runs to n = 10^7 across topologies |
//! | [`e26`] | §2/§3.1: per-phase amplification read back from the obs trace |
//!
//! Each module's only public item is its zero-sized registry entry
//! (`E01` … `E26`) implementing the [`Experiment`] trait. Its `schema()`
//! is the one declaration of the experiment's parameters: each one's
//! type, valid range, paper-scale default and CI-scale `--quick` value.
//! A private `Config` is the module's typed view of a validated
//! [`ParamMap`], built only by its `from_params`, and
//! [`Experiment::run`] is the only way to run the experiment. The
//! [`registry::registry`] collects every entry; the `xp` binary in
//! `rapid-bench` multiplexes them behind one CLI:
//!
//! ```text
//! xp list
//! xp run e06 --quick --set ns=65536 --set trials=20
//! xp all --quick --format csv --out /tmp/reports
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod experiment;
pub mod json;
pub mod params;
pub mod predictions;
pub mod registry;
pub mod report;
pub mod runner;
pub mod table;
#[cfg(test)]
mod testkit;

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e20;
pub mod e21;
pub mod e22;
pub mod e23;
pub mod e24;
pub mod e25;
pub mod e26;

pub use experiment::Experiment;
pub use params::{ParamError, ParamMap, ParamSchema, ParamSpec, ParamValue, Preset};
pub use registry::{find, registry};
pub use report::Report;
pub use runner::{run_trials, run_trials_on, Parallelism, Workers};
pub use table::Table;

/// Convenient glob-import of the harness surface.
pub mod prelude {
    pub use crate::experiment::Experiment;
    pub use crate::params::{ParamError, ParamMap, ParamSchema, ParamSpec, ParamValue, Preset};
    pub use crate::registry::{find, registry};
    pub use crate::report::Report;
    pub use crate::runner::{run_trials, run_trials_on, Parallelism, Workers};
    pub use crate::table::Table;
}
