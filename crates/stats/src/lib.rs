//! Statistics toolkit for the experiment harness.
//!
//! Everything the reproduction needs to turn raw trial outputs into the
//! experiments' report tables (`xp run`) lives here:
//!
//! * [`online`] — Welford single-pass moments ([`OnlineStats`]), mergeable
//!   across threads.
//! * [`mod@quantile`] — exact quantiles over samples and the streaming P²
//!   estimator for long runs.
//! * [`histogram`] — fixed-width histograms.
//! * [`regression`] — least-squares lines and log–log power-law fits, used
//!   to check *shapes* (e.g. "time grows like log n", "rounds grow like k").
//! * [`bootstrap`] — non-parametric confidence intervals.
//! * [`tests`] — two-sample Kolmogorov–Smirnov and chi-square
//!   goodness-of-fit, used e.g. to certify that the sequential and
//!   continuous-time schedulers agree and that Bit-Propagation matches the
//!   Pólya-urn prediction.
//! * [`summary`] — one-line numeric summaries for table cells.
//!
//! # Example
//!
//! The typical experiment pipeline end to end: accumulate trial outputs
//! in one pass, read off moments and quantiles, and fit the shape:
//!
//! ```
//! use rapid_stats::{fit_line, quantile, OnlineStats};
//!
//! // "Measured time" growing like 2x + noise-free intercept 1.
//! let xs: Vec<f64> = (1..=100).map(f64::from).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
//!
//! let stats: OnlineStats = ys.iter().copied().collect();
//! assert_eq!(stats.count(), 100);
//! assert!((stats.mean() - 102.0).abs() < 1e-9);
//! assert!(stats.std_err() > 0.0);
//!
//! let median = quantile(&ys, 0.5);
//! assert!((median - 102.0).abs() <= 2.0);
//!
//! let fit = fit_line(&xs, &ys);
//! assert!((fit.slope - 2.0).abs() < 1e-9);
//! assert!((fit.intercept - 1.0).abs() < 1e-6);
//! assert!(fit.r_squared > 0.999);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bootstrap;
pub mod histogram;
pub mod online;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod tests;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use quantile::{quantile, P2Quantile};
pub use regression::{fit_line, fit_power_law, LineFit};
pub use summary::Summary;
pub use tests::{
    chi_square_uniform, ks_statistic, ks_two_sample, welch_t_test, KsResult, WelchResult,
};
