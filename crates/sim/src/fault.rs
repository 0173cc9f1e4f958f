//! Fault and adversary models: message loss, edge latency, churn, and
//! opinion corruption.
//!
//! The paper proves robustness of plurality consensus under *asynchrony*;
//! the related literature makes faulty and adversarial settings the
//! interesting regime — Bankhamer et al. analyse Poisson clocks with edge
//! latencies ("positive aging"), and Robinson–Scheideler–Setzer study
//! consensus against a *late* adversary. This module provides the
//! composable fault plan those scenarios are built from:
//!
//! * **Message loss** — each pulled response is lost independently with a
//!   fixed probability; a lost response aborts the pulling node's update
//!   for that tick.
//! * **Edge latency** — every activation's *effect* is postponed by a draw
//!   from a [`LatencyModel`] (constant, uniform, exponential, or
//!   heavy-tailed Pareto/Lomax), realised by [`LatencyScheduler`].
//! * **Churn** — a [`ChurnEvent`] schedule crashes nodes and optionally
//!   rejoins them; a crashed node neither acts on its ticks nor answers
//!   pulls, but keeps (and still counts with) its last opinion.
//! * **Adversary** — a budgeted opinion corrupter ([`AdversaryPlan`]),
//!   either *oblivious* (random node, random color, blind to the state) or
//!   *adaptive* (flips a plurality-colored node to the runner-up — the
//!   late-adversary model).
//!
//! All stochastic fault decisions draw from a dedicated stream derived
//! from the master seed, so faulty runs stay seed-reproducible. A neutral
//! plan ([`FaultPlan::none`], or any plan whose knobs sit at their neutral
//! values) draws **no** randomness and leaves every engine stream
//! bit-identical to a run without a fault layer.
//!
//! # Example
//!
//! ```
//! use rapid_sim::fault::{AdversaryKind, AdversaryPlan, ChurnEvent, FaultPlan, LatencyModel};
//! use rapid_sim::prelude::*;
//!
//! let plan = FaultPlan::none()
//!     .with_loss(0.05)
//!     .with_latency(LatencyModel::Pareto { scale: 0.1, shape: 1.5 })
//!     .with_churn(vec![ChurnEvent::window(
//!         NodeId::new(3),
//!         SimTime::from_secs(1.0),
//!         SimTime::from_secs(4.0),
//!     )])
//!     .with_adversary(AdversaryPlan {
//!         kind: AdversaryKind::Oblivious,
//!         budget: 16,
//!         start: SimTime::from_secs(2.0),
//!         interval: 0.25,
//!     });
//! assert!(plan.check(8).is_ok());
//! assert!(!plan.is_neutral());
//! assert!(FaultPlan::none().is_neutral());
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::poisson::{sample_exponential, MIN_RATE};
use crate::rng::{Seed, SimRng};
use crate::scheduler::{Activation, ActivationSource};
use crate::time::SimTime;

/// The distribution of a per-message (edge) latency.
///
/// `None` is the paper's base model (instant responses); the other
/// variants cover the positive-aging literature's latency assumptions,
/// including a heavy-tailed option.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub enum LatencyModel {
    /// No latency: effects land at the activation time (neutral value).
    #[default]
    None,
    /// Every message takes exactly this many time units.
    Constant(f64),
    /// Latency uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive), `≥ 0`.
        lo: f64,
        /// Upper bound, `≥ lo`.
        hi: f64,
    },
    /// Latency `Exponential(rate)` — the discussion-section jitter model.
    Exponential {
        /// Rate of the exponential; mean latency is `1/rate`.
        rate: f64,
    },
    /// Heavy-tailed Lomax (Pareto type II) latency:
    /// `scale · (U^{−1/shape} − 1)`. The mean is finite only for
    /// `shape > 1`; smaller shapes model the adversarially slow edges of
    /// the positive-aging analysis.
    Pareto {
        /// Scale parameter, `> 0`.
        scale: f64,
        /// Tail index, `> 0` (heavier tail for smaller values).
        shape: f64,
    },
}

impl LatencyModel {
    /// Whether this is the neutral (no-latency) model.
    pub fn is_none(&self) -> bool {
        matches!(self, LatencyModel::None)
    }

    /// Validates the parameters: besides their ranges, a law's largest
    /// draw must be a finite time. An exponential rate below [`MIN_RATE`]
    /// or a Pareto tail too heavy for its scale would overflow simulation
    /// time in the middle of a run.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first invalid parameter.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            LatencyModel::None => Ok(()),
            LatencyModel::Constant(c) => {
                if c.is_finite() && c >= 0.0 {
                    Ok(())
                } else {
                    Err("constant latency must be finite and non-negative")
                }
            }
            LatencyModel::Uniform { lo, hi } => {
                if lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi {
                    Ok(())
                } else {
                    Err("uniform latency needs 0 <= lo <= hi, both finite")
                }
            }
            LatencyModel::Exponential { rate } => {
                if rate.is_finite() && rate >= MIN_RATE {
                    Ok(())
                } else {
                    Err("exponential latency rate must be finite and at least MIN_RATE (1e-280)")
                }
            }
            LatencyModel::Pareto { scale, shape } => {
                if !(scale.is_finite() && scale > 0.0 && shape.is_finite() && shape > 0.0) {
                    Err("Pareto latency needs positive finite scale and shape")
                } else if !lomax(scale, shape, SMALLEST_UNIT).is_finite() {
                    Err("Pareto latency's largest draw is not a finite time")
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Samples one latency in time units (zero for [`LatencyModel::None`],
    /// which draws no randomness).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            LatencyModel::None => 0.0,
            LatencyModel::Constant(c) => c,
            LatencyModel::Uniform { lo, hi } => lo + (hi - lo) * rng.unit_f64(),
            LatencyModel::Exponential { rate } => sample_exponential(rng, rate),
            LatencyModel::Pareto { scale, shape } => lomax(scale, shape, rng.unit_f64_open_left()),
        }
    }
}

/// 2⁻⁵³, the smallest uniform [`SimRng::unit_f64_open_left`] returns: the
/// one that gives a latency law its largest draw.
const SMALLEST_UNIT: f64 = f64::EPSILON / 2.0;

/// The Lomax draw `scale · (u^{−1/shape} − 1)` for the uniform `u`.
fn lomax(scale: f64, shape: f64, u: f64) -> f64 {
    scale * (u.powf(-1.0 / shape) - 1.0)
}

impl std::fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LatencyModel::None => write!(f, "none"),
            LatencyModel::Constant(c) => write!(f, "const({c})"),
            LatencyModel::Uniform { lo, hi } => write!(f, "uniform({lo}, {hi})"),
            LatencyModel::Exponential { rate } => write!(f, "exp(rate={rate})"),
            LatencyModel::Pareto { scale, shape } => {
                write!(f, "pareto(scale={scale}, shape={shape})")
            }
        }
    }
}

/// One node's crash (and optional rejoin) in the churn schedule.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ChurnEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// When the node goes down.
    pub down_at: SimTime,
    /// When the node comes back, if it ever does.
    pub up_at: Option<SimTime>,
}

impl ChurnEvent {
    /// A node that crashes at `down_at` and never returns.
    pub fn crash(node: NodeId, down_at: SimTime) -> Self {
        ChurnEvent {
            node,
            down_at,
            up_at: None,
        }
    }

    /// A node that is down during `[down_at, up_at)` and then rejoins
    /// with its pre-crash opinion intact.
    pub fn window(node: NodeId, down_at: SimTime, up_at: SimTime) -> Self {
        ChurnEvent {
            node,
            down_at,
            up_at: Some(up_at),
        }
    }
}

/// How the adversary chooses its corruption targets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Blind to the configuration: a uniformly random node is set to a
    /// uniformly random color.
    Oblivious,
    /// Inspects the configuration and flips a node holding the current
    /// plurality color to the current runner-up — the maximally harmful
    /// single corruption of the late-adversary model.
    Adaptive,
}

impl std::fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdversaryKind::Oblivious => write!(f, "oblivious"),
            AdversaryKind::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// A budgeted opinion-corrupting adversary.
///
/// Starting at `start`, the adversary corrupts one node every `interval`
/// time units until `budget` corruptions have been spent. A `budget` of 0
/// is the neutral value: the adversary never acts and draws no randomness.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AdversaryPlan {
    /// Target-selection strategy.
    pub kind: AdversaryKind,
    /// Total corruptions the adversary may perform.
    pub budget: u64,
    /// Time of the first strike (a *late* adversary starts after the
    /// protocol has made progress).
    pub start: SimTime,
    /// Time units between consecutive strikes; must be positive and
    /// finite.
    pub interval: f64,
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum FaultError {
    /// The loss probability is outside `[0, 1]`.
    InvalidLoss(f64),
    /// The latency model's parameters are invalid.
    InvalidLatency(&'static str),
    /// A churn event names a node outside the population.
    ChurnNode {
        /// The offending node index.
        node: usize,
        /// The population size.
        n: usize,
    },
    /// A churn event rejoins at or before its crash time.
    ChurnWindow {
        /// The offending node index.
        node: usize,
    },
    /// The adversary's strike interval is not positive and finite.
    InvalidAdversaryInterval(f64),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidLoss(p) => {
                write!(f, "loss probability must lie in [0, 1], got {p}")
            }
            FaultError::InvalidLatency(why) => write!(f, "invalid latency model: {why}"),
            FaultError::ChurnNode { node, n } => {
                write!(f, "churn event names node {node} in a {n}-node network")
            }
            FaultError::ChurnWindow { node } => {
                write!(
                    f,
                    "churn event for node {node} rejoins at or before its crash"
                )
            }
            FaultError::InvalidAdversaryInterval(dt) => {
                write!(
                    f,
                    "adversary interval must be positive and finite, got {dt}"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A composable fault & adversary plan — the declarative half of the
/// fault layer. See the [module docs](self) for the semantics of each
/// knob and [`FaultState`] for the runtime half.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message latency distribution.
    pub latency: LatencyModel,
    /// Crash / rejoin schedule.
    pub churn: Vec<ChurnEvent>,
    /// Opinion-corrupting adversary, if any.
    pub adversary: Option<AdversaryPlan>,
}

impl FaultPlan {
    /// The neutral plan: no loss, no latency, no churn, no adversary.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-message loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the per-message latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the churn schedule.
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Installs an adversary.
    pub fn with_adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Whether every knob sits at its neutral value. A neutral plan is
    /// guaranteed not to perturb a run in any way (no state, no extra
    /// randomness, bit-identical streams).
    pub fn is_neutral(&self) -> bool {
        self.loss == 0.0
            && self.latency.is_none()
            && self.churn.is_empty()
            && self.adversary.is_none_or(|a| a.budget == 0)
    }

    /// Validates the plan against a population of `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn check(&self, n: usize) -> Result<(), FaultError> {
        if !(self.loss.is_finite() && (0.0..=1.0).contains(&self.loss)) {
            return Err(FaultError::InvalidLoss(self.loss));
        }
        self.latency.check().map_err(FaultError::InvalidLatency)?;
        for ev in &self.churn {
            if ev.node.index() >= n {
                return Err(FaultError::ChurnNode {
                    node: ev.node.index(),
                    n,
                });
            }
            if let Some(up) = ev.up_at {
                if up <= ev.down_at {
                    return Err(FaultError::ChurnWindow {
                        node: ev.node.index(),
                    });
                }
            }
        }
        if let Some(adv) = &self.adversary {
            if !(adv.interval.is_finite() && adv.interval > 0.0) {
                return Err(FaultError::InvalidAdversaryInterval(adv.interval));
            }
        }
        Ok(())
    }
}

/// The runtime half of the fault layer: one per simulation, queried by
/// the protocol engines on every interaction.
///
/// All stochastic decisions (loss Bernoullis, adversary target draws)
/// come from a dedicated [`SimRng`], so the engine's own streams are
/// untouched; deterministic decisions (churn transitions, strike times)
/// draw no randomness at all. When a knob is at its neutral value the
/// corresponding query is a branch, never a draw — which is what makes a
/// neutral plan bit-equivalent to having no fault layer.
#[derive(Clone, Debug)]
pub struct FaultState {
    loss: f64,
    rng: SimRng,
    down: Vec<bool>,
    // (time, node, goes_down) transitions, sorted by time; `cursor` marks
    // how far the schedule has been applied.
    transitions: Vec<(SimTime, NodeId, bool)>,
    cursor: usize,
    adversary: Option<AdversaryPlan>,
    strikes_done: u64,
}

impl FaultState {
    /// Builds the runtime state for a *validated* plan.
    ///
    /// # Panics
    ///
    /// Panics if `plan.check(n)` fails — validate first (the `Sim`
    /// builder maps failures into its typed `BuildError`).
    pub fn new(plan: &FaultPlan, n: usize, seed: Seed) -> Self {
        // lint: allow(panic-hygiene): documented panic — the # Panics section requires a pre-validated plan
        plan.check(n).expect("fault plan must be validated");
        let mut transitions: Vec<(SimTime, NodeId, bool)> = Vec::new();
        for ev in &plan.churn {
            transitions.push((ev.down_at, ev.node, true));
            if let Some(up) = ev.up_at {
                transitions.push((up, ev.node, false));
            }
        }
        transitions.sort_by_key(|&(t, node, goes_down)| (t, node, goes_down));
        FaultState {
            loss: plan.loss,
            rng: SimRng::from_seed_value(seed),
            down: vec![false; n],
            transitions,
            cursor: 0,
            adversary: plan.adversary.filter(|a| a.budget > 0),
            strikes_done: 0,
        }
    }

    /// Applies every churn transition with time `<= now`.
    pub fn advance_to(&mut self, now: SimTime) {
        while self.cursor < self.transitions.len() && self.transitions[self.cursor].0 <= now {
            let (_, node, goes_down) = self.transitions[self.cursor];
            self.down[node.index()] = goes_down;
            self.cursor += 1;
        }
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Decides whether one message is lost. Draws randomness only for
    /// `0 < loss < 1`; the endpoints are decided without touching the
    /// fault stream.
    pub fn message_lost(&mut self) -> bool {
        if self.loss <= 0.0 {
            false
        } else if self.loss >= 1.0 {
            true
        } else {
            self.rng.bernoulli(self.loss)
        }
    }

    /// Returns how many adversary strikes are due at `now` (strike `i`
    /// fires at `start + i·interval`), consuming that much budget. The
    /// caller performs the corruptions — target selection needs the
    /// opinion state, which lives a layer above this crate.
    pub fn adversary_due(&mut self, now: SimTime) -> u64 {
        let Some(adv) = &self.adversary else { return 0 };
        if adv.budget == self.strikes_done || now < adv.start {
            return 0;
        }
        let elapsed = now.as_secs() - adv.start.as_secs();
        let due = (elapsed / adv.interval).floor() as u64 + 1;
        let due = due.min(adv.budget);
        let fresh = due - self.strikes_done;
        self.strikes_done = due;
        fresh
    }

    /// The adversary's target-selection strategy, if an adversary with a
    /// positive budget is installed.
    pub fn adversary_kind(&self) -> Option<AdversaryKind> {
        self.adversary.map(|a| a.kind)
    }

    /// Adversary budget left to spend.
    pub fn adversary_budget_left(&self) -> u64 {
        self.adversary.map_or(0, |a| a.budget - self.strikes_done)
    }

    /// The fault layer's RNG — the stream adversary target draws must
    /// come from, so that faulty runs stay reproducible from one seed.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Wraps an [`ActivationSource`], postponing each activation's *effect*
/// by a draw from a [`LatencyModel`] and re-delivering in effect-time
/// order. With [`LatencyModel::Exponential`] this is the discussion
/// section's response delay (the `Sim` builder's `.jitter(rate)`); the
/// other laws, heavy-tailed ones included, are the fault layer's edge
/// latencies.
///
/// # Example
///
/// ```
/// use rapid_sim::fault::{LatencyModel, LatencyScheduler};
/// use rapid_sim::prelude::*;
///
/// let inner = SequentialScheduler::with_mode(10, Seed::new(1), TimeMode::Sampled);
/// let model = LatencyModel::Pareto { scale: 0.2, shape: 2.0 };
/// let mut s = LatencyScheduler::new(inner, Seed::new(2), model);
/// let a = s.next_activation();
/// let b = s.next_activation();
/// assert!(b.time >= a.time);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyScheduler<S> {
    inner: S,
    rng: SimRng,
    model: LatencyModel,
    // Min-heap of delayed activations, ordered by effect time.
    pending: BinaryHeap<Reverse<(SimTime, u64, NodeId)>>,
    seq: u64,
    step_out: u64,
    lookahead: usize,
}

impl<S: ActivationSource> LatencyScheduler<S> {
    /// Wraps `inner`, delaying each activation by one draw from `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`LatencyModel::check`].
    pub fn new(inner: S, seed: Seed, model: LatencyModel) -> Self {
        if let Err(why) = model.check() {
            // lint: allow(panic-hygiene): documented panic — the # Panics section requires a checked model
            panic!("invalid latency model: {why}");
        }
        // Keep enough delayed events queued that the heap head is the
        // globally next effect. At clock rate 1 the window holds about 4
        // time units of arrivals, so that holds while delays stay well
        // below 4 (the experiments' exponential rates are >= 1). Slower
        // or heavier-tailed laws can outlast the window, and then
        // activations come out of time order.
        let lookahead = inner.n().max(64) * 4;
        LatencyScheduler {
            inner,
            rng: SimRng::from_seed_value(seed),
            model,
            pending: BinaryHeap::new(),
            seq: 0,
            step_out: 0,
            lookahead,
        }
    }

    fn refill(&mut self) {
        while self.pending.len() < self.lookahead {
            let a = self.inner.next_activation();
            let d = self.model.sample(&mut self.rng);
            let effect = a.time + SimTime::from_secs(d);
            self.pending.push(Reverse((effect, self.seq, a.node)));
            self.seq += 1;
        }
    }
}

impl<S: ActivationSource> ActivationSource for LatencyScheduler<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn next_activation(&mut self) -> Activation {
        self.refill();
        // lint: allow(panic-hygiene): refill() above guarantees the buffer is non-empty
        let Reverse((time, _, node)) = self.pending.pop().expect("pending refilled");
        let a = Activation {
            step: self.step_out,
            node,
            time,
        };
        self.step_out += 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SequentialScheduler, TimeMode};

    #[test]
    fn neutral_plan_checks_and_reports_neutral() {
        let plan = FaultPlan::none();
        assert!(plan.is_neutral());
        assert!(plan.check(1).is_ok());
        // A budget-0 adversary is still neutral.
        let plan = FaultPlan::none().with_adversary(AdversaryPlan {
            kind: AdversaryKind::Adaptive,
            budget: 0,
            start: SimTime::ZERO,
            interval: 1.0,
        });
        assert!(plan.is_neutral());
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        let n = 4;
        assert_eq!(
            FaultPlan::none().with_loss(1.5).check(n),
            Err(FaultError::InvalidLoss(1.5))
        );
        assert!(matches!(
            FaultPlan::none()
                .with_latency(LatencyModel::Exponential { rate: 0.0 })
                .check(n),
            Err(FaultError::InvalidLatency(_))
        ));
        assert_eq!(
            FaultPlan::none()
                .with_churn(vec![ChurnEvent::crash(NodeId::new(7), SimTime::ZERO)])
                .check(n),
            Err(FaultError::ChurnNode { node: 7, n })
        );
        assert_eq!(
            FaultPlan::none()
                .with_churn(vec![ChurnEvent::window(
                    NodeId::new(1),
                    SimTime::from_secs(2.0),
                    SimTime::from_secs(2.0),
                )])
                .check(n),
            Err(FaultError::ChurnWindow { node: 1 })
        );
        assert_eq!(
            FaultPlan::none()
                .with_adversary(AdversaryPlan {
                    kind: AdversaryKind::Oblivious,
                    budget: 5,
                    start: SimTime::ZERO,
                    interval: 0.0,
                })
                .check(n),
            Err(FaultError::InvalidAdversaryInterval(0.0))
        );
    }

    #[test]
    fn loss_endpoints_do_not_draw_randomness() {
        let mk = |loss| FaultState::new(&FaultPlan::none().with_loss(loss), 4, Seed::new(1));
        let mut zero = mk(0.0);
        let mut one = mk(1.0);
        let before_zero = zero.rng.clone();
        let before_one = one.rng.clone();
        for _ in 0..100 {
            assert!(!zero.message_lost());
            assert!(one.message_lost());
        }
        assert_eq!(zero.rng, before_zero, "loss 0 must not consume the stream");
        assert_eq!(one.rng, before_one, "loss 1 must not consume the stream");
    }

    #[test]
    fn intermediate_loss_matches_probability() {
        let mut f = FaultState::new(&FaultPlan::none().with_loss(0.3), 4, Seed::new(2));
        let n = 50_000;
        let lost = (0..n).filter(|_| f.message_lost()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn churn_transitions_apply_in_time_order() {
        let plan = FaultPlan::none().with_churn(vec![
            ChurnEvent::window(
                NodeId::new(1),
                SimTime::from_secs(1.0),
                SimTime::from_secs(3.0),
            ),
            ChurnEvent::crash(NodeId::new(2), SimTime::from_secs(2.0)),
        ]);
        let mut f = FaultState::new(&plan, 4, Seed::new(3));
        let down = |f: &FaultState| (0..4).filter(|&i| f.is_down(NodeId::new(i))).count();
        assert_eq!(down(&f), 0);
        f.advance_to(SimTime::from_secs(1.5));
        assert!(f.is_down(NodeId::new(1)));
        assert!(!f.is_down(NodeId::new(2)));
        f.advance_to(SimTime::from_secs(2.5));
        assert_eq!(down(&f), 2);
        f.advance_to(SimTime::from_secs(3.5));
        assert!(!f.is_down(NodeId::new(1)), "node 1 rejoined");
        assert!(f.is_down(NodeId::new(2)), "node 2 is gone for good");
    }

    #[test]
    fn crash_at_time_zero_is_down_from_the_first_advance() {
        let plan =
            FaultPlan::none().with_churn(vec![ChurnEvent::crash(NodeId::new(0), SimTime::ZERO)]);
        let mut f = FaultState::new(&plan, 2, Seed::new(4));
        f.advance_to(SimTime::from_secs(1e-9));
        assert!(f.is_down(NodeId::new(0)));
    }

    #[test]
    fn adversary_strikes_follow_the_schedule_and_budget() {
        let plan = FaultPlan::none().with_adversary(AdversaryPlan {
            kind: AdversaryKind::Oblivious,
            budget: 3,
            start: SimTime::from_secs(1.0),
            interval: 0.5,
        });
        let mut f = FaultState::new(&plan, 4, Seed::new(5));
        assert_eq!(f.adversary_due(SimTime::from_secs(0.9)), 0);
        assert_eq!(f.adversary_due(SimTime::from_secs(1.0)), 1);
        assert_eq!(f.adversary_due(SimTime::from_secs(1.1)), 0);
        // Two strike times (1.5, 2.0) have passed at 2.2, but only one
        // budget unit remains after it.
        assert_eq!(f.adversary_due(SimTime::from_secs(2.2)), 2);
        assert_eq!(f.adversary_budget_left(), 0);
        assert_eq!(f.adversary_due(SimTime::from_secs(100.0)), 0);
    }

    #[test]
    fn budget_zero_adversary_never_strikes() {
        let plan = FaultPlan::none().with_adversary(AdversaryPlan {
            kind: AdversaryKind::Adaptive,
            budget: 0,
            start: SimTime::ZERO,
            interval: 0.1,
        });
        let mut f = FaultState::new(&plan, 4, Seed::new(6));
        assert_eq!(f.adversary_due(SimTime::from_secs(1000.0)), 0);
        assert_eq!(f.adversary_kind(), None);
    }

    #[test]
    fn latency_models_sample_within_their_support() {
        let mut rng = SimRng::from_seed_value(Seed::new(7));
        assert_eq!(LatencyModel::None.sample(&mut rng), 0.0);
        assert_eq!(LatencyModel::Constant(0.25).sample(&mut rng), 0.25);
        for _ in 0..1000 {
            let u = LatencyModel::Uniform { lo: 0.1, hi: 0.3 }.sample(&mut rng);
            assert!((0.1..=0.3).contains(&u));
            let p = LatencyModel::Pareto {
                scale: 0.5,
                shape: 2.0,
            }
            .sample(&mut rng);
            assert!(p >= 0.0 && p.is_finite());
        }
    }

    #[test]
    fn pareto_latency_mean_matches_lomax() {
        // Lomax mean = scale / (shape - 1) for shape > 1.
        let mut rng = SimRng::from_seed_value(Seed::new(8));
        let m = LatencyModel::Pareto {
            scale: 1.0,
            shape: 3.0,
        };
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn latency_scheduler_is_time_ordered_and_complete() {
        let inner = SequentialScheduler::with_mode(16, Seed::new(9), TimeMode::Sampled);
        let model = LatencyModel::Uniform { lo: 0.0, hi: 2.0 };
        let mut s = LatencyScheduler::new(inner, Seed::new(10), model);
        assert_eq!(s.n(), 16);
        let mut last = SimTime::ZERO;
        let mut per_node = [0u64; 16];
        for _ in 0..3000 {
            let a = s.next_activation();
            assert!(a.time >= last);
            last = a.time;
            per_node[a.node.index()] += 1;
        }
        assert!(per_node.iter().all(|&c| c > 0));
    }

    #[test]
    fn constant_latency_shifts_times_exactly() {
        let mut plain = SequentialScheduler::new(8, Seed::new(11));
        let inner = SequentialScheduler::new(8, Seed::new(11));
        let mut s = LatencyScheduler::new(inner, Seed::new(12), LatencyModel::Constant(5.0));
        for _ in 0..200 {
            let a = plain.next_activation();
            let b = s.next_activation();
            assert_eq!(b.node, a.node);
            assert_eq!(
                b.time.as_secs().to_bits(),
                (a.time + SimTime::from_secs(5.0)).as_secs().to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn latency_scheduler_rejects_invalid_models() {
        let inner = SequentialScheduler::new(4, Seed::new(13));
        let _ = LatencyScheduler::new(inner, Seed::new(14), LatencyModel::Constant(f64::NAN));
    }

    #[test]
    fn same_seed_reproduces_fault_decisions() {
        let plan = FaultPlan::none().with_loss(0.5);
        let mut a = FaultState::new(&plan, 4, Seed::new(15));
        let mut b = FaultState::new(&plan, 4, Seed::new(15));
        for _ in 0..500 {
            assert_eq!(a.message_lost(), b.message_lost());
        }
    }
}
