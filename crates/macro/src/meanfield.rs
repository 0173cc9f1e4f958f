//! The deterministic mean-field engine: [`MeanFieldSim`].
//!
//! In the `n → ∞` limit the occupancy fractions `x_j(t)` of the gossip
//! dynamics follow an ODE — the expected drift of the embedded chain —
//! which this module integrates with classical RK4:
//!
//! * Voter: `dx_j/dt = 0` (the fractions are a martingale; mean field
//!   predicts no consensus drift at all);
//! * Two-Choices: `dx_j/dt = s²·(x_j²(1−x_j) − x_j·Σ_{l≠j} x_l²)`;
//! * 3-Majority: `dx_j/dt = s³·P_win(j|x) − x_j·(normalising no-op mass)`,
//!   with `P_win` matching the engine's tie-breaking rule exactly.
//!
//! (`s = 1 − loss` — a lost response aborts the interaction, scaling
//! every drift term identically.)
//!
//! The rapid protocol's mean field is the paper's analysis itself: each
//! phase applies the **quadratic amplification map**
//! `x_j ← x_j² / Σ_l x_l²` — Two-Choices seeds committed in proportion to
//! `x_j²`, then Bit-Propagation spreads them as a Pólya urn whose
//! composition is a martingale, so the expected post-phase fractions are
//! the normalised seed fractions (computed through
//! [`rapid_urn::moments::fraction_mean`], with per-phase spread
//! predictions from [`rapid_urn::moments::fraction_variance`]). The
//! endgame is the Two-Choices ODE from the post-amplification state.

use rapid_core::facade::{BuildError, EngineKind, MacroProtocol, MacroSpec, SimBuilder};
use rapid_core::prelude::*;

/// RK4 step, in ticks of activation time (time units at rate 1).
const RK4_STEP: f64 = 0.02;

/// Mean-field prediction for one rapid-protocol phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhasePrediction {
    /// Phase index (0-based).
    pub phase: u32,
    /// Expected fraction of nodes holding a committed (bit-set) color at
    /// the end of the Two-Choices sub-phase.
    pub committed: f64,
    /// Expected fractions after Bit-Propagation (the urn martingale).
    pub fractions: Vec<f64>,
    /// Predicted standard deviation of each fraction after the urn grows
    /// from the committed seeds to the whole population
    /// ([`rapid_urn::moments::fraction_variance`]).
    pub std_dev: Vec<f64>,
}

/// The deterministic outcome of a mean-field integration.
#[derive(Clone, Debug, PartialEq)]
pub struct MeanFieldOutcome {
    /// The predicted winning color (`None` if the dynamics never single
    /// out one, e.g. Voter or a dead tie).
    pub winner: Option<Color>,
    /// Predicted consensus time (time units): when the leading fraction
    /// first exceeds `1 − 1/(2n)`. `None` if the horizon was reached
    /// first.
    pub consensus_time: Option<f64>,
    /// The integrated trajectory: `(time, fractions)` samples.
    pub trajectory: Vec<(f64, Vec<f64>)>,
    /// Per-phase predictions (rapid protocol only; empty for gossip).
    pub phases: Vec<PhasePrediction>,
}

impl MeanFieldOutcome {
    /// The fractions at time `t`, by nearest-left lookup in the
    /// trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty (cannot happen for outcomes
    /// produced by [`MeanFieldSim::run`]).
    pub fn fractions_at(&self, t: f64) -> &[f64] {
        let mut best = &self.trajectory[0];
        for sample in &self.trajectory {
            if sample.0 <= t {
                best = sample;
            } else {
                break;
            }
        }
        &best.1
    }
}

/// The mean-field engine. Construct via [`MeanFieldSim::from_builder`]
/// (the `Sim` facade with `.engine(EngineKind::MeanField)`) or
/// [`MeanFieldSim::from_spec`]. Runs are seed-independent by
/// construction.
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_macro::MeanFieldSim;
///
/// let sim = MeanFieldSim::from_builder(
///     Sim::builder()
///         .topology(Complete::new(1_000_000))
///         .counts(&[600_000, 400_000])
///         .gossip(GossipRule::TwoChoices)
///         .engine(EngineKind::MeanField),
/// )
/// .expect("valid mean-field assembly");
/// let out = sim.run();
/// assert_eq!(out.winner, Some(Color::new(0)));
/// assert!(out.consensus_time.expect("converges") > 0.0);
/// ```
pub struct MeanFieldSim {
    spec: MacroSpec,
}

impl MeanFieldSim {
    /// Builds the engine from a facade assembly with
    /// `.engine(EngineKind::MeanField)`.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`SimBuilder::build_macro`], plus
    /// [`BuildError::EngineMismatch`] if the builder selected any other
    /// engine kind (use [`crate::MacroSim`] for [`EngineKind::Macro`]).
    pub fn from_builder(builder: SimBuilder) -> Result<Self, BuildError> {
        let spec = builder.build_macro()?;
        if spec.kind != EngineKind::MeanField {
            return Err(BuildError::EngineMismatch(
                "MacroSim::from_builder for Engine::Macro",
            ));
        }
        Ok(Self::from_spec(spec))
    }

    /// Builds the engine from an already validated spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.kind` is not [`EngineKind::MeanField`].
    pub fn from_spec(spec: MacroSpec) -> Self {
        assert_eq!(
            spec.kind,
            EngineKind::MeanField,
            "MeanFieldSim runs EngineKind::MeanField specs"
        );
        MeanFieldSim { spec }
    }

    /// The validated spec this engine integrates.
    pub fn spec(&self) -> &MacroSpec {
        &self.spec
    }

    /// Integrates the mean-field dynamics and returns the deterministic
    /// outcome. Gossip rules integrate the drift ODE up to a generous
    /// `O(log n)` horizon; the rapid protocol applies its per-phase
    /// amplification map and then integrates the endgame.
    pub fn run(&self) -> MeanFieldOutcome {
        let n = self.spec.n as f64;
        let mut x: Vec<f64> = self.spec.counts.iter().map(|&c| c as f64 / n).collect();
        let threshold = 1.0 - 1.0 / (2.0 * n);
        match self.spec.protocol {
            MacroProtocol::Gossip(rule) => {
                let horizon = 20.0 + 8.0 * n.ln();
                let mut trajectory = vec![(0.0, x.clone())];
                let time = integrate_gossip(
                    rule,
                    self.spec.loss,
                    self.spec.rate,
                    &mut x,
                    0.0,
                    horizon * self.spec.rate,
                    threshold,
                    &mut trajectory,
                );
                finish(x, time, trajectory, Vec::new(), threshold)
            }
            MacroProtocol::Rapid(params) => {
                let s = 1.0 - self.spec.loss;
                let mut trajectory = vec![(0.0, x.clone())];
                let mut phases = Vec::new();
                let phase_time = params.phase_len() as f64 / self.spec.rate;
                for phase in 0..params.phases {
                    // Two-Choices sub-phase: seeds committed ∝ (s·x_j)².
                    let seeds: Vec<f64> = x.iter().map(|&f| s * s * f * f).collect();
                    let committed: f64 = seeds.iter().sum();
                    if committed <= 0.0 {
                        break;
                    }
                    // Bit-Propagation: the committed seeds grow as a Pólya
                    // urn to cover the population; composition is a
                    // martingale, so expected fractions are the seed
                    // fractions — computed per color through the exact urn
                    // moments, with the Beta-limit spread as the
                    // prediction error bar.
                    let seed_counts: Vec<u64> = seeds
                        .iter()
                        .map(|&f| ((f * n).round() as u64).max(u64::from(f > 0.0)))
                        .collect();
                    let total_seeds: u64 = seed_counts.iter().sum();
                    let growth = (n as u64).saturating_sub(total_seeds);
                    let mut next = vec![0.0; x.len()];
                    let mut std_dev = vec![0.0; x.len()];
                    for (j, &a) in seed_counts.iter().enumerate() {
                        let b = total_seeds - a;
                        if a == 0 {
                            continue;
                        }
                        next[j] = rapid_urn::moments::fraction_mean(a, b);
                        std_dev[j] = rapid_urn::moments::fraction_variance(a, b, growth).sqrt();
                    }
                    let sum: f64 = next.iter().sum();
                    for f in &mut next {
                        *f /= sum;
                    }
                    x = next;
                    phases.push(PhasePrediction {
                        phase,
                        committed,
                        fractions: x.clone(),
                        std_dev,
                    });
                    trajectory.push(((phase + 1) as f64 * phase_time, x.clone()));
                    if x.iter().any(|&f| f >= threshold) {
                        break;
                    }
                }
                // Endgame: plain Two-Choices from the amplified state.
                let t0 = params.part1_len() as f64;
                let horizon = t0 + params.endgame_ticks as f64;
                let time = integrate_gossip(
                    GossipRule::TwoChoices,
                    self.spec.loss,
                    self.spec.rate,
                    &mut x,
                    t0,
                    horizon,
                    threshold,
                    &mut trajectory,
                );
                finish(x, time, trajectory, phases, threshold)
            }
        }
    }
}

fn finish(
    x: Vec<f64>,
    time: Option<f64>,
    trajectory: Vec<(f64, Vec<f64>)>,
    phases: Vec<PhasePrediction>,
    threshold: f64,
) -> MeanFieldOutcome {
    let winner = x
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .filter(|&(_, &f)| f >= threshold)
        .map(|(j, _)| Color::new(j));
    MeanFieldOutcome {
        winner,
        consensus_time: time,
        trajectory,
        phases,
    }
}

/// The expected drift of one gossip rule at fractions `x`, per unit of
/// *activation* time (one tick per node).
fn gossip_drift(rule: GossipRule, s: f64, x: &[f64], out: &mut [f64]) {
    let k = x.len();
    match rule {
        GossipRule::Voter => {
            // Adoption probability equals the current fraction: zero drift.
            out.fill(0.0);
        }
        GossipRule::TwoChoices => {
            let s2 = s * s;
            let sum_sq: f64 = x.iter().map(|&f| f * f).sum();
            for j in 0..k {
                out[j] = s2 * (x[j] * x[j] * (1.0 - x[j]) - x[j] * (sum_sq - x[j] * x[j]));
            }
        }
        GossipRule::ThreeMajority => {
            let s3 = s * s * s;
            let sum_sq: f64 = x.iter().map(|&f| f * f).sum();
            for j in 0..k {
                let q = x[j];
                // Matches the engine's rule: a if a∈{b,c}, else b if b=c,
                // else a.
                let win = q * (2.0 * q - q * q)
                    + (1.0 - q) * q * q
                    + q * ((1.0 - q) * (1.0 - q) - (sum_sq - q * q));
                out[j] = s3 * (win - q);
            }
        }
    }
}

/// RK4 integration of a gossip drift from `t0` until the leader crosses
/// `threshold` or `horizon` is reached. Returns the crossing time.
///
/// `t0` and `horizon` count ticks of activation time (`rate · t`), so
/// the number of steps does not grow as the clock slows; the crossing
/// time and the trajectory are reported in time units.
#[allow(clippy::too_many_arguments)]
fn integrate_gossip(
    rule: GossipRule,
    loss: f64,
    rate: f64,
    x: &mut [f64],
    t0: f64,
    horizon: f64,
    threshold: f64,
    trajectory: &mut Vec<(f64, Vec<f64>)>,
) -> Option<f64> {
    let s = 1.0 - loss;
    let k = x.len();
    if x.iter().any(|&f| f >= threshold) {
        return Some(t0 / rate);
    }
    let mut t = t0;
    let mut k1 = vec![0.0; k];
    let mut k2 = vec![0.0; k];
    let mut k3 = vec![0.0; k];
    let mut k4 = vec![0.0; k];
    let mut tmp = vec![0.0; k];
    // Record a trajectory sample every ~0.1 ticks: dense enough that
    // nearest-left lookups stay within the drift over one sample.
    let samples_every = (0.1 / RK4_STEP).max(1.0) as u32;
    let mut since_sample = 0u32;
    while t < horizon {
        let h = RK4_STEP.min(horizon - t);
        gossip_drift(rule, s, x, &mut k1);
        for j in 0..k {
            tmp[j] = x[j] + 0.5 * h * k1[j];
        }
        gossip_drift(rule, s, &tmp, &mut k2);
        for j in 0..k {
            tmp[j] = x[j] + 0.5 * h * k2[j];
        }
        gossip_drift(rule, s, &tmp, &mut k3);
        for j in 0..k {
            tmp[j] = x[j] + h * k3[j];
        }
        gossip_drift(rule, s, &tmp, &mut k4);
        for j in 0..k {
            x[j] += h * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) / 6.0;
            x[j] = x[j].clamp(0.0, 1.0);
        }
        t += h;
        since_sample += 1;
        if since_sample >= samples_every {
            trajectory.push((t / rate, x.to_vec()));
            since_sample = 0;
        }
        if x.iter().any(|&f| f >= threshold) {
            trajectory.push((t / rate, x.to_vec()));
            return Some(t / rate);
        }
        // Voter (zero drift) would spin to the horizon pointlessly.
        if k1.iter().all(|&d| d == 0.0) && k4.iter().all(|&d| d == 0.0) {
            trajectory.push((horizon / rate, x.to_vec()));
            return None;
        }
    }
    trajectory.push((t / rate, x.to_vec()));
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::facade::Sim;
    use rapid_graph::prelude::*;

    fn gossip_mf(n: usize, counts: &[u64], rule: GossipRule) -> MeanFieldSim {
        MeanFieldSim::from_builder(
            Sim::builder()
                .topology(Complete::new(n))
                .counts(counts)
                .gossip(rule)
                .engine(EngineKind::MeanField),
        )
        .expect("valid mean-field assembly")
    }

    #[test]
    fn two_choices_mean_field_picks_the_plurality() {
        let out = gossip_mf(
            1_000_000,
            &[600_000, 250_000, 150_000],
            GossipRule::TwoChoices,
        )
        .run();
        assert_eq!(out.winner, Some(Color::new(0)));
        let t = out.consensus_time.expect("drift converges");
        assert!(t > 1.0 && t < 200.0, "time {t}");
        // Monotone amplification of the leader along the trajectory.
        let first = out.trajectory.first().expect("non-empty").1[0];
        let last = out.trajectory.last().expect("non-empty").1[0];
        assert!(last > first);
    }

    #[test]
    fn voter_mean_field_has_no_drift() {
        let out = gossip_mf(10_000, &[6000, 4000], GossipRule::Voter).run();
        assert_eq!(out.winner, None);
        assert_eq!(out.consensus_time, None);
        let last = out.trajectory.last().expect("non-empty");
        assert!((last.1[0] - 0.6).abs() < 1e-12, "martingale must not move");
    }

    #[test]
    fn three_majority_mean_field_converges_and_conserves_mass() {
        let out = gossip_mf(
            1_000_000,
            &[500_000, 300_000, 200_000],
            GossipRule::ThreeMajority,
        )
        .run();
        assert_eq!(out.winner, Some(Color::new(0)));
        for (_, x) in &out.trajectory {
            let sum: f64 = x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "mass leaked: {sum}");
        }
    }

    #[test]
    fn loss_slows_two_choices_down() {
        let clean = gossip_mf(1_000_000, &[600_000, 400_000], GossipRule::TwoChoices)
            .run()
            .consensus_time
            .expect("converges");
        let lossy = MeanFieldSim::from_builder(
            Sim::builder()
                .topology(Complete::new(1_000_000))
                .counts(&[600_000, 400_000])
                .gossip(GossipRule::TwoChoices)
                .engine(EngineKind::MeanField)
                .faults(rapid_sim::fault::FaultPlan::none().with_loss(0.5)),
        )
        .expect("valid")
        .run()
        .consensus_time
        .expect("still converges");
        assert!(lossy > 1.5 * clean, "loss 0.5: {lossy} vs clean {clean}");
    }

    #[test]
    fn a_slow_clock_rescales_time_without_lengthening_the_run() {
        // Integration counts ticks, so even a clock at MIN_RATE ends in
        // as many steps as at rate 1, and the reported time is 1/rate
        // times the rate-1 time.
        let run = |rate| {
            MeanFieldSim::from_builder(
                Sim::builder()
                    .topology(Complete::new(16))
                    .counts(&[9, 7])
                    .rapid(Params::for_network(16, 2))
                    .clock(Clock::EventQueue { rate })
                    .engine(EngineKind::MeanField),
            )
            .expect("valid")
            .run()
        };
        let unit = run(1.0);
        let t1 = unit.consensus_time.expect("converges");
        for rate in [1e-6, rapid_core::facade::MIN_RATE] {
            let slow = run(rate);
            assert_eq!(slow.winner, unit.winner);
            let t = slow.consensus_time.expect("converges");
            assert!((t * rate / t1 - 1.0).abs() < 1e-12, "rate {rate}: {t}");
        }
    }

    #[test]
    fn rapid_mean_field_amplifies_quadratically_per_phase() {
        let sim = MeanFieldSim::from_builder(
            Sim::builder()
                .topology(Complete::new(1 << 20))
                .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
                .rapid(Params::for_network_with_eps(1 << 20, 4, 0.5))
                .engine(EngineKind::MeanField),
        )
        .expect("valid");
        let out = sim.run();
        assert_eq!(out.winner, Some(Color::new(0)));
        assert!(!out.phases.is_empty());
        // The leader's ratio over the runner-up squares each phase (the
        // paper's §2 amplification), up to normalisation.
        let x0 = sim.spec().counts[0] as f64 / (1u64 << 20) as f64;
        let x1 = sim.spec().counts[1] as f64 / (1u64 << 20) as f64;
        let ratio0 = x0 / x1;
        let p = &out.phases[0];
        let ratio1 = p.fractions[0] / p.fractions[1];
        assert!(
            (ratio1 - ratio0 * ratio0).abs() / (ratio0 * ratio0) < 0.05,
            "phase-1 ratio {ratio1} vs squared {}",
            ratio0 * ratio0
        );
        // Urn spread predictions are present and shrink as seeds grow.
        assert!(p.std_dev[0] > 0.0);
        let last = out.phases.last().expect("phases");
        assert!(last.fractions[0] > 0.99);
        assert!(out.consensus_time.expect("endgame finishes") > 0.0);
    }

    #[test]
    fn fractions_at_does_nearest_left_lookup() {
        let out = gossip_mf(10_000, &[7000, 3000], GossipRule::TwoChoices).run();
        let early = out.fractions_at(0.0)[0];
        assert!((early - 0.7).abs() < 1e-12);
        let later = out.fractions_at(5.0)[0];
        assert!(later >= early);
    }
}
