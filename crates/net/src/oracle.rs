//! Simulator-as-oracle validation: the evidence that the deployment
//! runs the *same* process the micro engine simulates.
//!
//! The harness runs matched trial sets — micro simulations through the
//! `Sim` facade versus channel-transport [`Cluster`] deployments — from
//! the same workload, and compares:
//!
//! * the **winner**: the fraction of trial pairs in which both engines
//!   converged on the same color;
//! * the **mean activation count at unanimity**: a bootstrap percentile
//!   CI ([`rapid_stats::bootstrap::bootstrap_ci`]) per engine, with
//!   agreement meaning the intervals overlap within a small relative
//!   slack — the same contract as the micro/macro `crossval` harness.
//!
//! Seed streams follow the cross-validation discipline: micro trial `i`
//! draws `child(i)`, net trial `i` draws `child(1000 + i)`, the
//! bootstrap draws `child(2000)`.

use rapid_core::facade::{EngineKind, MacroProtocol, Sim, SimBuilder};
use rapid_graph::complete::Complete;
use rapid_sim::rng::{Seed, SimRng};
use rapid_stats::bootstrap::bootstrap_ci;

use crate::cluster::Cluster;

/// Relative slack added to the CI-overlap test: the fraction of the
/// larger mean by which intervals may miss each other and still count
/// as agreeing (finite-trial noise at small variances).
const REL_SLACK: f64 = 0.05;

/// Configuration of one oracle comparison (complete graph).
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Population size.
    pub n: usize,
    /// Initial per-color counts (color 0 first; must sum to `n`).
    pub counts: Vec<u64>,
    /// The protocol to compare.
    pub protocol: MacroProtocol,
    /// Trials per engine.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Bootstrap resamples per CI.
    pub resamples: usize,
    /// Bootstrap confidence level.
    pub level: f64,
}

impl OracleConfig {
    /// A comparison with the harness defaults (8 trials, 500 resamples,
    /// 95% CIs).
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not sum to `n`.
    pub fn new(n: usize, counts: Vec<u64>, protocol: MacroProtocol) -> Self {
        assert_eq!(counts.iter().sum::<u64>(), n as u64, "counts must sum to n");
        OracleConfig {
            n,
            counts,
            protocol,
            trials: 8,
            seed: 0x0E23,
            resamples: 500,
            level: 0.95,
        }
    }
}

/// The oracle comparison's verdict.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Trials per engine.
    pub trials: u64,
    /// Fraction of trial pairs where both engines converged on the same
    /// winner.
    pub winner_agreement: f64,
    /// Micro trials that reached unanimity.
    pub micro_converged: u64,
    /// Net trials that reached unanimity.
    pub net_converged: u64,
    /// Mean micro activations at unanimity (converged trials).
    pub micro_mean_steps: f64,
    /// Bootstrap CI for the micro mean.
    pub micro_ci: (f64, f64),
    /// Mean net activations at unanimity (converged trials).
    pub net_mean_steps: f64,
    /// Bootstrap CI for the net mean.
    pub net_ci: (f64, f64),
    /// Whether the two step-count CIs overlap (within the slack).
    pub steps_agree: bool,
}

impl OracleReport {
    /// The acceptance predicate: at least `min_winner_agreement` of the
    /// trial pairs agreed on the winner, and the activation CIs overlap.
    pub fn agrees(&self, min_winner_agreement: f64) -> bool {
        self.winner_agreement >= min_winner_agreement && self.steps_agree
    }
}

/// The shared assembly both engines run from.
fn builder(cfg: &OracleConfig, seed: Seed) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(cfg.n))
        .counts(&cfg.counts)
        .select(cfg.protocol.into())
        .seed(seed)
}

/// Runs the comparison.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (zero trials,
/// more than 1000 trials, counts not summing to `n`).
pub fn validate_against_micro(cfg: &OracleConfig) -> OracleReport {
    assert!(cfg.trials > 0, "need at least one trial");
    assert!(
        cfg.trials <= 1000,
        "more than 1000 trials would collide the seed streams"
    );
    let master = Seed::new(cfg.seed);

    let mut pairs = 0u64;
    let mut agreeing = 0u64;
    let mut micro_steps = Vec::new();
    let mut net_steps = Vec::new();
    for i in 0..cfg.trials {
        let micro = builder(cfg, master.child(i))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("validated micro assembly")
            .run();
        let net =
            Cluster::from_builder(builder(cfg, master.child(1000 + i)).engine(EngineKind::Net))
                // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
                .expect("validated net assembly")
                .run_channel()
                .outcome;
        if micro.converged() {
            micro_steps.push(micro.steps as f64);
        }
        if net.converged() {
            net_steps.push(net.steps as f64);
        }
        pairs += 1;
        if let (Some(a), Some(b)) = (micro.winner, net.winner) {
            agreeing += (a == b) as u64;
        }
    }

    let mut boot_rng = SimRng::from_seed_value(master.child(2000));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (micro_mean, micro_ci, net_mean, net_ci, steps_agree) =
        if micro_steps.is_empty() || net_steps.is_empty() {
            (
                f64::NAN,
                (f64::NAN, f64::NAN),
                f64::NAN,
                (f64::NAN, f64::NAN),
                false,
            )
        } else {
            let ci_m = bootstrap_ci(&micro_steps, mean, cfg.resamples, cfg.level, &mut boot_rng);
            let ci_n = bootstrap_ci(&net_steps, mean, cfg.resamples, cfg.level, &mut boot_rng);
            let slack = REL_SLACK * ci_m.estimate.max(ci_n.estimate);
            let overlap = ci_m.lo - slack <= ci_n.hi && ci_n.lo - slack <= ci_m.hi;
            (
                ci_m.estimate,
                (ci_m.lo, ci_m.hi),
                ci_n.estimate,
                (ci_n.lo, ci_n.hi),
                overlap,
            )
        };

    OracleReport {
        trials: cfg.trials,
        winner_agreement: agreeing as f64 / pairs as f64,
        micro_converged: micro_steps.len() as u64,
        net_converged: net_steps.len() as u64,
        micro_mean_steps: micro_mean,
        micro_ci,
        net_mean_steps: net_mean,
        net_ci,
        steps_agree,
    }
}
