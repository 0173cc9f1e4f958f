//! Micro/macro cross-validation: the evidence that the count-based
//! engine simulates the *same* process as the per-node engines.
//!
//! The harness runs matched trial sets of a micro simulation (through the
//! `Sim` facade) and a macro simulation ([`crate::MacroSim`]) from the
//! same workload, records the occupancy trajectory (color fractions) of
//! every trial at a common grid of time checkpoints, and compares the two
//! mean trajectories:
//!
//! * per checkpoint, the **total-variation distance** between the mean
//!   micro and mean macro occupancy vectors;
//! * per checkpoint and color, a bootstrap percentile CI
//!   ([`rapid_stats::bootstrap::bootstrap_ci`]) for each engine's mean
//!   fraction — agreement means the intervals overlap (within a small
//!   absolute slack absorbing finite-trial noise at tiny variances).
//!
//! Experiment E20 tabulates this report; the acceptance tests in
//! `crates/macro/tests` assert it for both gossip and rapid protocols at
//! `n ∈ {2¹⁰, 2¹⁴}`.

use rapid_core::facade::{EngineKind, MacroProtocol, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::rng::{Seed, SimRng};
use rapid_sim::time::SimTime;
use rapid_stats::bootstrap::bootstrap_ci;

use crate::engine::{MacroMode, MacroSim};

/// Absolute slack added to the CI-overlap test: with a handful of trials
/// a fraction that is essentially deterministic (variance ≈ 0) yields a
/// zero-width interval, which no finite simulation can hit exactly.
const OVERLAP_SLACK: f64 = 0.02;

/// Configuration of one cross-validation comparison.
#[derive(Clone, Debug)]
pub struct CrossValConfig {
    /// Population size.
    pub n: u64,
    /// Initial per-color counts (color 0 first; must sum to `n`).
    pub counts: Vec<u64>,
    /// The protocol to compare.
    pub protocol: MacroProtocol,
    /// Time checkpoints (time units) at which occupancies are compared.
    pub checkpoints: Vec<f64>,
    /// Trials per engine.
    pub trials: u64,
    /// Master seed (micro trial `i` uses `child(i)`, macro trial `i`
    /// uses `child(1000 + i)` — independent streams, same workload).
    pub seed: u64,
    /// Bootstrap resamples per CI.
    pub resamples: usize,
    /// Bootstrap confidence level.
    pub level: f64,
    /// Stepping regime forced on the macro trials
    /// ([`MacroMode::Auto`] by default; force [`MacroMode::TauLeap`] to
    /// validate the leap path itself against micro).
    pub mode: MacroMode,
}

impl CrossValConfig {
    /// A comparison with the harness defaults (8 trials, 500 resamples,
    /// 95% CIs, checkpoints over the protocol's natural horizon).
    pub fn new(n: u64, counts: Vec<u64>, protocol: MacroProtocol) -> Self {
        assert_eq!(counts.iter().sum::<u64>(), n, "counts must sum to n");
        let horizon = match protocol {
            MacroProtocol::Gossip(_) => 4.0 * (n as f64).ln(),
            MacroProtocol::Rapid(p) => p.total_len() as f64,
        };
        let checkpoints = (1..=6).map(|i| horizon * i as f64 / 6.0).collect();
        CrossValConfig {
            n,
            counts,
            protocol,
            checkpoints,
            trials: 8,
            seed: 0xC505,
            resamples: 500,
            level: 0.95,
            mode: MacroMode::Auto,
        }
    }
}

/// Agreement measurements at one checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointAgreement {
    /// The checkpoint (time units).
    pub time: f64,
    /// Mean micro fractions per color.
    pub micro_mean: Vec<f64>,
    /// Bootstrap CI per color for the micro mean.
    pub micro_ci: Vec<(f64, f64)>,
    /// Mean macro fractions per color.
    pub macro_mean: Vec<f64>,
    /// Bootstrap CI per color for the macro mean.
    pub macro_ci: Vec<(f64, f64)>,
    /// Total-variation distance between the two mean occupancy vectors.
    pub tv: f64,
    /// Whether every color's CIs overlap (within the harness slack).
    pub agree: bool,
}

/// The full cross-validation report.
#[derive(Clone, Debug)]
pub struct CrossValReport {
    /// One agreement record per configured checkpoint.
    pub checkpoints: Vec<CheckpointAgreement>,
}

impl CrossValReport {
    /// Whether every checkpoint agrees.
    pub fn all_agree(&self) -> bool {
        self.checkpoints.iter().all(|c| c.agree)
    }

    /// The worst (largest) TV distance across checkpoints.
    pub fn max_tv(&self) -> f64 {
        self.checkpoints.iter().map(|c| c.tv).fold(0.0, f64::max)
    }
}

/// Captures per-time-unit occupancy snapshots of a micro run.
struct TrajectoryObserver {
    snapshots: Vec<(f64, Vec<u64>)>,
}

impl Observer for TrajectoryObserver {
    fn observe(&mut self, progress: &Progress<'_>) {
        let t = progress
            .time
            .map(SimTime::as_secs)
            .unwrap_or(progress.steps as f64);
        self.snapshots
            .push((t, progress.config.counts().as_slice().to_vec()));
    }
}

/// The fractions at checkpoint `t`: the latest snapshot not after `t`
/// (runs that end early — unanimity — hold their final state).
fn fractions_at(snapshots: &[(f64, Vec<u64>)], t: f64, n: u64) -> Vec<f64> {
    let mut best = &snapshots[0].1;
    for (time, counts) in snapshots {
        if *time <= t {
            best = counts;
        } else {
            break;
        }
    }
    best.iter().map(|&c| c as f64 / n as f64).collect()
}

fn micro_trial(cfg: &CrossValConfig, seed: Seed, horizon: f64) -> Vec<(f64, Vec<u64>)> {
    let builder = Sim::builder()
        .topology(Complete::new(cfg.n as usize))
        .counts(&cfg.counts)
        .seed(seed)
        .stop(StopCondition::TimeHorizon(SimTime::from_secs(horizon)))
        .select(cfg.protocol.into());
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut sim = builder.build().expect("validated micro assembly");
    let mut observer = TrajectoryObserver {
        snapshots: Vec::new(),
    };
    sim.run_observed(&mut observer);
    observer.snapshots
}

fn macro_trial(cfg: &CrossValConfig, seed: Seed, horizon: f64) -> Vec<(f64, Vec<u64>)> {
    let builder = Sim::builder()
        .topology(Complete::new(cfg.n as usize))
        .counts(&cfg.counts)
        .engine(EngineKind::Macro)
        .seed(seed)
        .stop(StopCondition::TimeHorizon(SimTime::from_secs(horizon)))
        .select(cfg.protocol.into());
    let mut sim = MacroSim::from_builder(builder)
        // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
        .expect("validated macro assembly")
        .with_mode(cfg.mode);
    let mut snapshots = Vec::new();
    sim.run_traced(|t, counts| snapshots.push((t.as_secs(), counts.to_vec())));
    snapshots
}

/// Runs the comparison.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (empty
/// checkpoints, zero trials, counts not summing to `n`).
pub fn cross_validate(cfg: &CrossValConfig) -> CrossValReport {
    assert!(!cfg.checkpoints.is_empty(), "need at least one checkpoint");
    assert!(cfg.trials > 0, "need at least one trial");
    // Micro trials draw child(i), macro trials child(1000 + i): the
    // offset is the independence contract between the two trial sets.
    assert!(
        cfg.trials <= 1000,
        "more than 1000 trials would collide the seed streams"
    );
    let k = cfg.counts.len();
    let master = Seed::new(cfg.seed);
    let horizon = cfg.checkpoints.iter().fold(0.0f64, |a, &b| a.max(b));

    // trajectories[trial][checkpoint][color]
    let collect = |trajectories: Vec<Vec<(f64, Vec<u64>)>>| -> Vec<Vec<Vec<f64>>> {
        trajectories
            .iter()
            .map(|snaps| {
                cfg.checkpoints
                    .iter()
                    .map(|&t| fractions_at(snaps, t, cfg.n))
                    .collect()
            })
            .collect()
    };
    let micro = collect(
        (0..cfg.trials)
            .map(|i| micro_trial(cfg, master.child(i), horizon))
            .collect(),
    );
    let macro_ = collect(
        (0..cfg.trials)
            .map(|i| macro_trial(cfg, master.child(1000 + i), horizon))
            .collect(),
    );

    let mut boot_rng = SimRng::from_seed_value(master.child(2000));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let checkpoints = cfg
        .checkpoints
        .iter()
        .enumerate()
        .map(|(ci, &time)| {
            let mut micro_mean = Vec::with_capacity(k);
            let mut micro_ci = Vec::with_capacity(k);
            let mut macro_mean = Vec::with_capacity(k);
            let mut macro_ci = Vec::with_capacity(k);
            let mut agree = true;
            let mut tv = 0.0;
            for j in 0..k {
                let m: Vec<f64> = micro.iter().map(|t| t[ci][j]).collect();
                let g: Vec<f64> = macro_.iter().map(|t| t[ci][j]).collect();
                let ci_m = bootstrap_ci(&m, mean, cfg.resamples, cfg.level, &mut boot_rng);
                let ci_g = bootstrap_ci(&g, mean, cfg.resamples, cfg.level, &mut boot_rng);
                tv += (ci_m.estimate - ci_g.estimate).abs();
                let overlap =
                    ci_m.lo - OVERLAP_SLACK <= ci_g.hi && ci_g.lo - OVERLAP_SLACK <= ci_m.hi;
                agree &= overlap;
                micro_mean.push(ci_m.estimate);
                micro_ci.push((ci_m.lo, ci_m.hi));
                macro_mean.push(ci_g.estimate);
                macro_ci.push((ci_g.lo, ci_g.hi));
            }
            CheckpointAgreement {
                time,
                micro_mean,
                micro_ci,
                macro_mean,
                macro_ci,
                tv: tv / 2.0,
                agree,
            }
        })
        .collect();
    CrossValReport { checkpoints }
}
