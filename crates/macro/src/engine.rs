//! The stochastic population-level engine: [`MacroSim`].
//!
//! Instead of one struct per node, the state is a histogram of occupancy
//! counts per (opinion, protocol-state) bucket — `O(k)` for plain gossip,
//! `O(k · schedule levels)` for the rapid protocol — so populations of
//! `10⁸–10⁹` nodes fit in kilobytes. Time advances over the **embedded
//! activation chain** of the Poisson clock model (each activation ticks a
//! uniformly random node; `n · rate` activations ≈ one time unit), in one
//! of two regimes:
//!
//! * **τ-leap** — a batch of `B ≈ n/8` activations is distributed over
//!   the buckets by one multinomial draw, and each bucket's ticks are
//!   split over their outcome states by another (interaction
//!   probabilities frozen at the leap's start — the leap error is
//!   `O(B/n)` in the fractions, and the multinomial noise *is* the exact
//!   noise of the embedded chain given those fractions);
//! * **exact single events** (Gillespie-style) — when the expected number
//!   of state changes per leap is small (small buckets near absorption,
//!   the endgame's last stragglers), activations that cannot change any
//!   state are skipped in one geometric draw and each actual change is
//!   applied individually, so absorption and tie-breaking are faithful to
//!   the micro chain.
//!
//! A run is bit-reproducible from its single master seed: the engine
//! draws from one dedicated child stream (`seed.child(6)`, extending the
//! facade's documented stream-index discipline) and touches no other
//! source of nondeterminism.

use std::collections::BTreeMap;
use std::sync::Arc;

use rapid_core::facade::{BuildError, EngineKind, MacroProtocol, MacroSpec, SimBuilder, Stops};
use rapid_core::prelude::*;
use rapid_obs::{Counter, Histogram, Obs, TraceEvent};
use rapid_sim::rng::SimRng;
use rapid_sim::time::SimTime;

/// The macro engine's stream index in the facade's seed-derivation
/// contract (scheduler 0, engine 1, shuffle 2, jitter 3, faults 4, fault
/// latency 5 — the macro engine is 6).
pub const MACRO_STREAM_INDEX: u64 = 6;

/// Batch size divisor: a τ-leap spans `n / LEAP_DIVISOR` activations
/// (1/8 of a time unit at rate 1), small enough that frozen interaction
/// probabilities drift by at most a few percent per leap.
const LEAP_DIVISOR: u64 = 8;

/// Below this many expected state changes per leap the engine drops to
/// exact single-event stepping: the geometric no-op skip makes sparse
/// dynamics cheap, and small buckets (absorption, tie-breaking) evolve
/// faithfully.
const SPARSE_CHANGES_PER_LEAP: f64 = 16.0;

/// Populations up to this size run gossip dynamics exactly in
/// [`MacroMode::Auto`]: every color bucket is "small" at this scale (the
/// τ-leap's frozen-fraction lag is visible against micro trajectories),
/// and the exact chain is cheap — its cost scales with the number of
/// color *changes*, not activations.
const EXACT_N_MAX: u64 = 1 << 15;

/// Stepping regime selection.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum MacroMode {
    /// τ-leap when dynamics are dense, exact single events when sparse
    /// (the default).
    #[default]
    Auto,
    /// Exact single events only (the embedded chain itself; slow for
    /// dense dynamics at large `n`).
    Exact,
    /// τ-leap only (benchmarks of the leap kernel).
    TauLeap,
}

/// One bucket of the rapid protocol's population state. Ordered so the
/// `BTreeMap` iterates deterministically (reproducibility depends on it).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Bucket {
    /// Working time (schedule position).
    w: u64,
    /// Current color index.
    color: u32,
    /// The extra bit of the memory model.
    bit: bool,
    /// Two-Choices intermediate color (`PENDING_NONE` = unset).
    pending: u32,
}

/// Sentinel for "no intermediate color".
const PENDING_NONE: u32 = u32::MAX;

enum State {
    Gossip {
        rule: GossipRule,
    },
    Rapid {
        schedule: Schedule,
        buckets: BTreeMap<Bucket, u64>,
        /// Bit-set nodes per color (the Pólya-urn population).
        bit_counts: Vec<u64>,
        /// Halted (frozen) nodes per color; they still consume ticks.
        halted: Vec<u64>,
        first_halt: Option<SimTime>,
    },
}

/// The population-level simulation. Construct via
/// [`MacroSim::from_builder`] (the `Sim` facade with
/// `.engine(EngineKind::Macro)`) or [`MacroSim::from_spec`].
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_macro::MacroSim;
/// use rapid_sim::prelude::*;
///
/// // Ten million nodes — impossible per-node, instant as counts.
/// let n = 10_000_000;
/// let mut sim = MacroSim::from_builder(
///     Sim::builder()
///         .topology(Complete::new(n))
///         .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
///         .gossip(GossipRule::TwoChoices)
///         .engine(EngineKind::Macro)
///         .seed(Seed::new(7)),
/// )
/// .expect("valid macro assembly");
/// let out = sim.run();
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
pub struct MacroSim {
    spec: MacroSpec,
    counts: Vec<u64>,
    state: State,
    rng: SimRng,
    steps: u64,
    mode: MacroMode,
    obs: Option<MacroObs>,
}

/// Pre-registered observability cells for the macro engine. Handles are
/// resolved once at [`MacroSim::attach_obs`] so the per-batch flush in
/// [`MacroSim::advance`] is a handful of atomic adds — never a registry
/// lookup, and never an RNG touch.
struct MacroObs {
    obs: Arc<Obs>,
    tau_leaps: Counter,
    gillespie_fallbacks: Counter,
    batch_size: Histogram,
}

impl MacroSim {
    /// Builds the engine from a facade assembly with
    /// `.engine(EngineKind::Macro)`.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`SimBuilder::build_macro`], plus
    /// [`BuildError::EngineMismatch`] if the builder selected any other
    /// engine kind (use [`crate::MeanFieldSim`] for
    /// [`EngineKind::MeanField`]).
    pub fn from_builder(builder: SimBuilder) -> Result<Self, BuildError> {
        let spec = builder.build_macro()?;
        if spec.kind != EngineKind::Macro {
            return Err(BuildError::EngineMismatch(
                "MeanFieldSim::from_builder for Engine::MeanField",
            ));
        }
        Ok(Self::from_spec(spec))
    }

    /// Builds the engine from an already validated spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.kind` is not [`EngineKind::Macro`].
    pub fn from_spec(spec: MacroSpec) -> Self {
        assert_eq!(
            spec.kind,
            EngineKind::Macro,
            "MacroSim runs EngineKind::Macro specs"
        );
        let counts = spec.counts.clone();
        let k = counts.len();
        let state = match spec.protocol {
            MacroProtocol::Gossip(rule) => State::Gossip { rule },
            MacroProtocol::Rapid(params) => {
                let mut buckets = BTreeMap::new();
                for (j, &c) in counts.iter().enumerate() {
                    if c > 0 {
                        buckets.insert(
                            Bucket {
                                w: 0,
                                color: j as u32,
                                bit: false,
                                pending: PENDING_NONE,
                            },
                            c,
                        );
                    }
                }
                State::Rapid {
                    schedule: Schedule::new(params),
                    buckets,
                    bit_counts: vec![0; k],
                    halted: vec![0; k],
                    first_halt: None,
                }
            }
        };
        let rng = SimRng::from_seed_value(spec.seed.child(MACRO_STREAM_INDEX));
        MacroSim {
            spec,
            counts,
            state,
            rng,
            steps: 0,
            mode: MacroMode::Auto,
            obs: None,
        }
    }

    /// Forces a stepping regime (tests and benchmarks; the default
    /// [`MacroMode::Auto`] switches by expected changes per leap).
    pub fn with_mode(mut self, mode: MacroMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an observability handle. The engine then counts τ-leap
    /// batches vs exact (Gillespie-style) fallback chunks under
    /// `macro.tau_leaps` / `macro.gillespie_fallbacks`, records batch
    /// sizes in the `macro.batch_size` histogram, and emits one
    /// [`TraceEvent::TauLeap`] or [`TraceEvent::GillespieFallback`] per
    /// batch on the `"macro"` stream. Instrumentation is flushed once per
    /// batch — never per activation — and touches no RNG stream, so an
    /// attached handle cannot change any outcome byte.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(MacroObs {
            tau_leaps: obs.registry.counter("macro.tau_leaps"),
            gillespie_fallbacks: obs.registry.counter("macro.gillespie_fallbacks"),
            batch_size: obs.registry.histogram("macro.batch_size"),
            obs,
        });
    }

    /// The validated spec this engine runs.
    pub fn spec(&self) -> &MacroSpec {
        &self.spec
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.spec.n
    }

    /// Number of opinions.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// The current per-color support counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Activations executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulation time: `steps / (n · rate)` over the embedded chain.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.steps as f64 / (self.spec.n as f64 * self.spec.rate))
    }

    /// When the first node halted (rapid protocol only).
    pub fn first_halt(&self) -> Option<SimTime> {
        match &self.state {
            State::Gossip { .. } => None,
            State::Rapid { first_halt, .. } => *first_halt,
        }
    }

    /// How many nodes have halted (rapid protocol only).
    pub fn halted_count(&self) -> Option<u64> {
        match &self.state {
            State::Gossip { .. } => None,
            State::Rapid { halted, .. } => Some(halted.iter().sum()),
        }
    }

    /// Occupied (working-time, color, bit, pending) buckets (rapid
    /// protocol only) — instrumentation for tests.
    pub fn bucket_count(&self) -> Option<usize> {
        match &self.state {
            State::Gossip { .. } => None,
            State::Rapid { buckets, .. } => Some(buckets.len()),
        }
    }

    /// The unanimous color, if any.
    pub fn unanimous(&self) -> Option<Color> {
        let n = self.spec.n;
        self.counts.iter().position(|&c| c == n).map(Color::new)
    }

    /// Runs to completion without observation. See [`MacroSim::run_traced`].
    pub fn run(&mut self) -> Outcome {
        self.run_traced(|_, _| {})
    }

    /// Runs to completion, invoking `observe(time, counts)` after the
    /// initial state, after every internal step batch (at least once per
    /// τ-leap, i.e. several times per simulated time unit), and at the
    /// terminal state.
    pub fn run_traced(&mut self, mut observe: impl FnMut(SimTime, &[u64])) -> Outcome {
        let n = self.spec.n;
        // The micro engines' fallback budget, for the same protocol.
        let protocol = match &self.state {
            State::Gossip { rule } => AsyncProtocol::Gossip(*rule),
            State::Rapid { schedule, .. } => AsyncProtocol::Rapid(schedule.clone()),
        };
        let stops = Stops::new(
            self.spec.stops.clone(),
            n,
            protocol.default_step_budget(n as usize),
        );
        // The earliest horizon as an activation count, so a batch never
        // runs past it.
        let horizon_steps = (stops.horizon().as_secs() * n as f64 * self.spec.rate).ceil() as u64;
        observe(self.now(), &self.counts);

        // Every break happens at the loop top, before any advance, so the
        // state at break time was already delivered — by the initial
        // observation or by the one after the latest batch. No terminal
        // re-observation is needed.
        let (stop, winner) = loop {
            if let Some(winner) = self.unanimous() {
                break (StopReason::Unanimity, Some(winner));
            }
            let all_halted = self.halted_count() == Some(n);
            let any_halted = self.first_halt().is_some();
            if let Some(reason) = stops.reason(self.steps, self.now(), any_halted, all_halted) {
                break (reason, None);
            }
            let left = stops
                .steps_left(self.steps)
                .min(horizon_steps.saturating_sub(self.steps));
            self.advance(left.max(1));
            observe(self.now(), &self.counts);
        };
        self.outcome(stop, winner)
    }

    /// One τ-leap of the default batch size, regardless of mode —
    /// the benchmark kernel (`macro/tau_leap_tick`).
    pub fn tau_leap_tick(&mut self) {
        let batch = (self.spec.n / LEAP_DIVISOR).max(64);
        match self.gossip_rule() {
            Some(rule) => self.leap_gossip(rule, batch),
            None => self.leap_rapid(batch),
        }
    }

    fn gossip_rule(&self) -> Option<GossipRule> {
        match &self.state {
            State::Gossip { rule } => Some(*rule),
            State::Rapid { .. } => None,
        }
    }

    fn outcome(&self, stop: StopReason, winner: Option<Color>) -> Outcome {
        let success = stop == StopReason::Unanimity
            && match self.first_halt() {
                None => true,
                Some(halt) => self.now() < halt,
            };
        let before_first_halt = match &self.state {
            State::Gossip { .. } => None,
            State::Rapid { .. } => Some(success),
        };
        Outcome {
            stop,
            winner,
            steps: self.steps,
            rounds: None,
            time: Some(self.now()),
            first_halt: self.first_halt(),
            before_first_halt,
            final_counts: self.counts.clone(),
        }
    }

    /// Advances by at most `max_activations`, choosing the regime.
    fn advance(&mut self, max_activations: u64) {
        let batch = (self.spec.n / LEAP_DIVISOR).max(64).min(max_activations);
        match self.gossip_rule() {
            Some(rule) => {
                let p_change = self.gossip_change_probability(rule);
                let dense = batch as f64 * p_change >= SPARSE_CHANGES_PER_LEAP;
                let exact = match self.mode {
                    MacroMode::Auto => !dense || self.spec.n <= EXACT_N_MAX,
                    MacroMode::Exact => true,
                    MacroMode::TauLeap => false,
                };
                if exact {
                    // Same cadence as a leap (1/8 time unit), so traced
                    // runs observe the trajectory at the same resolution
                    // in both regimes; the geometric skip keeps a sparse
                    // chunk O(#changes), not O(batch).
                    self.exact_gossip(rule, batch);
                } else {
                    self.leap_gossip(rule, batch);
                }
                self.flush_obs(batch, exact);
            }
            None => {
                // The rapid schedule advances every node's state on every
                // tick, so there are no no-op activations to skip: the
                // leap's per-bucket conditional binomials already handle
                // small buckets exactly, and exact mode degenerates to a
                // batch of size 1.
                let b = match self.mode {
                    MacroMode::Exact => 1,
                    _ => batch,
                };
                self.leap_rapid(b);
                self.flush_obs(b, false);
            }
        }
    }

    /// One per-batch observability flush from [`MacroSim::advance`]:
    /// counters, the batch-size histogram, and a single trace event on
    /// the `"macro"` stream. A no-op without an attached handle.
    fn flush_obs(&self, batch: u64, exact: bool) {
        let Some(obs) = &self.obs else { return };
        obs.batch_size.record(batch);
        let time = self.now().as_secs();
        if exact {
            obs.gillespie_fallbacks.inc();
            obs.obs.trace.emit(
                "macro",
                TraceEvent::GillespieFallback { time, steps: batch },
            );
        } else {
            obs.tau_leaps.inc();
            obs.obs
                .trace
                .emit("macro", TraceEvent::TauLeap { time, batch });
        }
    }

    // ----- shared helpers -------------------------------------------------

    /// Probability that a uniformly sampled *neighbor* of a color-`i` node
    /// has color `j` (self excluded: `(c_j − δ_ij) / (n−1)`).
    #[inline]
    fn neighbor_fraction(&self, j: usize, i: usize) -> f64 {
        let c = self.counts[j] - u64::from(i == j);
        c as f64 / (self.spec.n - 1) as f64
    }

    /// Per-activation adoption probabilities for a ticking color-`i` node:
    /// `out[j]` = probability of ending the tick with color `j` via an
    /// actual adoption (j = i means "adopted own color": a state no-op but
    /// a successful interaction). The remaining mass is "no adoption".
    fn gossip_adoption_probs(&self, rule: GossipRule, i: usize, out: &mut [f64]) {
        let s = 1.0 - self.spec.loss;
        let k = self.counts.len();
        match rule {
            GossipRule::Voter => {
                for (j, o) in out.iter_mut().enumerate().take(k) {
                    *o = s * self.neighbor_fraction(j, i);
                }
            }
            GossipRule::TwoChoices => {
                let s2 = s * s;
                for (j, o) in out.iter_mut().enumerate().take(k) {
                    let q = self.neighbor_fraction(j, i);
                    *o = s2 * q * q;
                }
            }
            GossipRule::ThreeMajority => {
                let s3 = s * s * s;
                let mut sum_sq = 0.0;
                for j in 0..k {
                    let q = self.neighbor_fraction(j, i);
                    sum_sq += q * q;
                }
                for (j, o) in out.iter_mut().enumerate().take(k) {
                    let q = self.neighbor_fraction(j, i);
                    // winner = j: (a=j ∧ (b=j ∨ c=j)) ∪ (a≠j ∧ b=c=j)
                    //          ∪ (a=j ∧ b≠j ∧ c≠j ∧ b≠c) — matching the
                    // micro rule "a if a∈{b,c}, else b if b=c, else a".
                    let p = q * (2.0 * q - q * q)
                        + (1.0 - q) * q * q
                        + q * ((1.0 - q) * (1.0 - q) - (sum_sq - q * q));
                    *o = s3 * p;
                }
            }
        }
    }

    /// Probability that one activation changes some node's color.
    fn gossip_change_probability(&self, rule: GossipRule) -> f64 {
        let n = self.spec.n as f64;
        let k = self.counts.len();
        let mut probs = vec![0.0; k];
        let mut p_change = 0.0;
        for i in 0..k {
            if self.counts[i] == 0 {
                continue;
            }
            self.gossip_adoption_probs(rule, i, &mut probs);
            let switch: f64 = probs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .sum();
            p_change += (self.counts[i] as f64 / n) * switch;
        }
        p_change.clamp(0.0, 1.0)
    }

    // ----- gossip: τ-leap -------------------------------------------------

    fn leap_gossip(&mut self, rule: GossipRule, batch: u64) {
        let k = self.counts.len();
        // Who ticks: one multinomial over the color buckets.
        let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let mut ticks = vec![0u64; k];
        self.rng.multinomial_into(batch, &weights, &mut ticks);

        // What each bucket's ticks do, with probabilities frozen at the
        // leap start (computed against the pre-leap counts).
        let mut probs = vec![0.0f64; k + 1];
        let mut moves = vec![0u64; k + 1];
        let mut delta = vec![0i64; k];
        for i in 0..k {
            if ticks[i] == 0 {
                continue;
            }
            self.gossip_adoption_probs(rule, i, &mut probs[..k]);
            // Fold "adopt own color" and "no adoption" into one stay cell.
            let switch: f64 = (0..k).filter(|&j| j != i).map(|j| probs[j]).sum();
            probs[i] = 0.0;
            probs[k] = (1.0 - switch).max(0.0); // stay
            self.rng.multinomial_into(ticks[i], &probs, &mut moves);
            // A node can tick twice in one leap; clamp total outflow to
            // the bucket's population (τ-leap boundary condition).
            let mut out: u64 = (0..k).map(|j| moves[j]).sum();
            if out > self.counts[i] {
                let mut excess = out - self.counts[i];
                for j in (0..k).rev() {
                    let cut = excess.min(moves[j]);
                    moves[j] -= cut;
                    excess -= cut;
                    if excess == 0 {
                        break;
                    }
                }
                out = self.counts[i];
            }
            delta[i] -= out as i64;
            for j in 0..k {
                delta[j] += moves[j] as i64;
            }
        }
        for (count, d) in self.counts.iter_mut().zip(&delta) {
            *count = (*count as i64 + d) as u64;
        }
        self.steps += batch;
    }

    // ----- gossip: exact single events ------------------------------------

    /// Runs up to `max_activations` exactly: no-op activations are skipped
    /// in one geometric draw per state change, each change updates the
    /// counts (and hence all probabilities) immediately.
    fn exact_gossip(&mut self, rule: GossipRule, max_activations: u64) {
        let k = self.counts.len();
        let n = self.spec.n as f64;
        let mut probs = vec![0.0f64; k];
        let mut cum: Vec<(f64, usize, usize)> = Vec::with_capacity(k * k);
        let mut remaining = max_activations;
        while remaining > 0 {
            // The table of possible changes (ticking color i → adopted
            // color j), weighted by occupancy × switch probability. Its
            // total is exactly the per-activation change probability.
            cum.clear();
            let mut p_change = 0.0;
            for i in 0..k {
                if self.counts[i] == 0 {
                    continue;
                }
                self.gossip_adoption_probs(rule, i, &mut probs);
                let f_i = self.counts[i] as f64 / n;
                for (j, &p) in probs.iter().enumerate().take(k) {
                    if j != i && p > 0.0 {
                        p_change += f_i * p;
                        cum.push((p_change, i, j));
                    }
                }
            }
            if p_change <= 0.0 {
                // Nothing can ever change (e.g. loss = 1): burn the budget.
                self.steps += remaining;
                return;
            }
            // Activations until (and including) the next change.
            let u = self.rng.unit_f64_open_left();
            let gap = if p_change >= 1.0 {
                1.0
            } else {
                (u.ln() / (1.0 - p_change).ln()).floor() + 1.0
            };
            if gap > remaining as f64 {
                self.steps += remaining;
                return;
            }
            let gap = gap as u64;
            // Which change, conditioned on one happening.
            let target = self.rng.unit_f64() * p_change;
            let &(_, i, j) = cum
                .iter()
                .find(|&&(c, _, _)| target < c)
                // lint: allow(panic-hygiene): the caller only leaps when p_change > 0, so cum is non-empty
                .unwrap_or(cum.last().expect("p_change > 0 implies a change exists"));
            self.counts[i] -= 1;
            self.counts[j] += 1;
            self.steps += gap;
            remaining -= gap;
            if self.counts[j] == self.spec.n {
                return; // unanimity: let the outer loop see it immediately
            }
        }
    }

    // ----- rapid: τ-leap over (w, color, bit, pending) buckets ------------

    fn leap_rapid(&mut self, batch: u64) {
        let State::Rapid {
            schedule,
            buckets,
            bit_counts,
            halted,
            first_halt,
        } = &mut self.state
        else {
            // lint: allow(panic-hygiene): internal dispatch invariant — callers match on the protocol before calling
            unreachable!("leap_rapid on a gossip state");
        };
        let n = self.spec.n;
        let k = self.counts.len();
        let s = 1.0 - self.spec.loss;
        let now = SimTime::from_secs(self.steps as f64 / (n as f64 * self.spec.rate));

        // Frozen aggregates for this leap's interaction probabilities.
        let counts0 = self.counts.clone();
        let bits0 = bit_counts.clone();
        let neighbor =
            |j: usize, i: usize| (counts0[j] - u64::from(i == j)) as f64 / (n - 1) as f64;

        // The Sync Gadget's jump target: the gadget estimates the median
        // *real time* of the population, which over the embedded chain
        // concentrates at steps/n (each activation is one uniformly random
        // node's tick).
        let jump_target = self.steps / n;

        // Distribute the batch over halted mass (ticks burned) and the
        // active buckets, by sequential conditional binomials — exactly a
        // multinomial over all of them.
        let halted_total: u64 = halted.iter().sum();
        let mut remaining_ticks = batch;
        let mut remaining_weight = n;
        if halted_total > 0 && remaining_ticks > 0 {
            let burned = self.rng.binomial(
                remaining_ticks,
                halted_total as f64 / remaining_weight as f64,
            );
            remaining_ticks -= burned;
        }
        remaining_weight -= halted_total;

        let entries: Vec<(Bucket, u64)> = buckets.iter().map(|(&b, &c)| (b, c)).collect();
        let mut delta: BTreeMap<Bucket, i64> = BTreeMap::new();
        let mut probs = vec![0.0f64; k + 1];
        let mut moves = vec![0u64; k + 1];
        let add = |map: &mut BTreeMap<Bucket, i64>, b: Bucket, d: i64| {
            *map.entry(b).or_insert(0) += d;
        };

        for (b, c) in entries {
            if remaining_ticks == 0 {
                break;
            }
            let t = if c >= remaining_weight {
                remaining_ticks
            } else {
                self.rng
                    .binomial(remaining_ticks, c as f64 / remaining_weight as f64)
            };
            remaining_ticks -= t;
            remaining_weight -= c;
            if t == 0 {
                continue;
            }
            // A node may tick twice per leap; a bucket moves at most its
            // population (the τ-leap boundary condition, as in gossip).
            let t = t.min(c);
            let i = b.color as usize;
            match schedule.action_at(b.w) {
                Action::Wait | Action::SyncSample => {
                    add(&mut delta, b, -(t as i64));
                    add(&mut delta, Bucket { w: b.w + 1, ..b }, t as i64);
                }
                Action::TwoChoicesSample => {
                    // Pair agreement on color j w.p. (s·q_j)², else no
                    // intermediate; the bit and any stale pending state
                    // are cleared (phase entry).
                    let mut agree = 0.0;
                    for (j, p) in probs.iter_mut().enumerate().take(k) {
                        let q = neighbor(j, i);
                        *p = s * s * q * q;
                        agree += *p;
                    }
                    probs[k] = (1.0 - agree).max(0.0);
                    self.rng.multinomial_into(t, &probs[..k + 1], &mut moves);
                    add(&mut delta, b, -(t as i64));
                    if b.bit {
                        bit_counts[i] -= t.min(bit_counts[i]);
                    }
                    for (j, &m) in moves.iter().enumerate().take(k) {
                        if m > 0 {
                            add(
                                &mut delta,
                                Bucket {
                                    w: b.w + 1,
                                    color: b.color,
                                    bit: false,
                                    pending: j as u32,
                                },
                                m as i64,
                            );
                        }
                    }
                    if moves[k] > 0 {
                        add(
                            &mut delta,
                            Bucket {
                                w: b.w + 1,
                                color: b.color,
                                bit: false,
                                pending: PENDING_NONE,
                            },
                            moves[k] as i64,
                        );
                    }
                }
                Action::Commit => {
                    add(&mut delta, b, -(t as i64));
                    if b.pending == PENDING_NONE {
                        add(
                            &mut delta,
                            Bucket {
                                w: b.w + 1,
                                bit: false,
                                ..b
                            },
                            t as i64,
                        );
                    } else {
                        let j = b.pending as usize;
                        self.counts[i] -= t;
                        self.counts[j] += t;
                        bit_counts[j] += t;
                        add(
                            &mut delta,
                            Bucket {
                                w: b.w + 1,
                                color: b.pending,
                                bit: true,
                                pending: PENDING_NONE,
                            },
                            t as i64,
                        );
                    }
                }
                Action::BitPropagation => {
                    add(&mut delta, b, -(t as i64));
                    if b.bit {
                        add(&mut delta, Bucket { w: b.w + 1, ..b }, t as i64);
                    } else {
                        // Hit a bit-set node of color j w.p. s·bits_j/(n−1).
                        let mut hit = 0.0;
                        for j in 0..k {
                            probs[j] = s * bits0[j] as f64 / (n - 1) as f64;
                            hit += probs[j];
                        }
                        probs[k] = (1.0 - hit).max(0.0);
                        self.rng.multinomial_into(t, &probs[..k + 1], &mut moves);
                        for j in 0..k {
                            if moves[j] > 0 {
                                self.counts[i] -= moves[j];
                                self.counts[j] += moves[j];
                                bit_counts[j] += moves[j];
                                add(
                                    &mut delta,
                                    Bucket {
                                        w: b.w + 1,
                                        color: j as u32,
                                        bit: true,
                                        pending: b.pending,
                                    },
                                    moves[j] as i64,
                                );
                            }
                        }
                        if moves[k] > 0 {
                            add(&mut delta, Bucket { w: b.w + 1, ..b }, moves[k] as i64);
                        }
                    }
                }
                Action::Jump => {
                    // Jump the working time to the population's median
                    // real-time estimate (never landing on a jump slot,
                    // mirroring the per-phase jump guard).
                    let mut target = jump_target;
                    if schedule.action_at(target) == Action::Jump {
                        target += 1;
                    }
                    add(&mut delta, b, -(t as i64));
                    add(&mut delta, Bucket { w: target, ..b }, t as i64);
                }
                Action::Endgame => {
                    let mut agree = 0.0;
                    for (j, p) in probs.iter_mut().enumerate().take(k) {
                        let q = neighbor(j, i);
                        *p = if j == i { 0.0 } else { s * s * q * q };
                        agree += *p;
                    }
                    probs[k] = (1.0 - agree).max(0.0);
                    self.rng.multinomial_into(t, &probs[..k + 1], &mut moves);
                    add(&mut delta, b, -(t as i64));
                    for j in 0..k {
                        if moves[j] > 0 {
                            self.counts[i] -= moves[j];
                            self.counts[j] += moves[j];
                            if b.bit {
                                let m = moves[j].min(bit_counts[i]);
                                bit_counts[i] -= m;
                                bit_counts[j] += m;
                            }
                            add(
                                &mut delta,
                                Bucket {
                                    w: b.w + 1,
                                    color: j as u32,
                                    ..b
                                },
                                moves[j] as i64,
                            );
                        }
                    }
                    if moves[k] > 0 {
                        add(&mut delta, Bucket { w: b.w + 1, ..b }, moves[k] as i64);
                    }
                }
                Action::Halt => {
                    add(&mut delta, b, -(t as i64));
                    halted[i] += t;
                    // A halted node keeps its bit and can still be pulled
                    // by Bit-Propagation stragglers — micro never clears
                    // bits on halt — so its bit_counts contribution stays.
                    if first_halt.is_none() {
                        *first_halt = Some(now);
                    }
                }
            }
        }

        for (b, d) in delta {
            let slot = buckets.entry(b).or_insert(0);
            let next = *slot as i64 + d;
            debug_assert!(next >= 0, "bucket {b:?} went negative");
            if next <= 0 {
                buckets.remove(&b);
            } else {
                *slot = next as u64;
            }
        }
        self.steps += batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::facade::Sim;
    use rapid_graph::prelude::*;
    use rapid_sim::rng::Seed;

    fn gossip_sim(n: usize, counts: &[u64], rule: GossipRule, seed: u64) -> MacroSim {
        MacroSim::from_builder(
            Sim::builder()
                .topology(Complete::new(n))
                .counts(counts)
                .gossip(rule)
                .engine(EngineKind::Macro)
                .seed(Seed::new(seed)),
        )
        .expect("valid macro assembly")
    }

    #[test]
    fn two_choices_macro_converges_to_plurality() {
        let mut wins = 0;
        for seed in 0..10 {
            let mut sim = gossip_sim(4096, &[3072, 1024], GossipRule::TwoChoices, seed);
            let out = sim.run();
            assert!(out.converged(), "seed {seed}: {:?}", out.stop);
            if out.winner == Some(Color::new(0)) {
                wins += 1;
            }
        }
        assert!(wins >= 9, "plurality won only {wins}/10");
    }

    #[test]
    fn counts_are_conserved_under_both_regimes() {
        for mode in [MacroMode::TauLeap, MacroMode::Exact] {
            let mut sim = gossip_sim(10_000, &[4000, 3500, 2500], GossipRule::ThreeMajority, 3)
                .with_mode(mode);
            for _ in 0..50 {
                sim.advance(1000);
                assert_eq!(sim.counts().iter().sum::<u64>(), 10_000, "{mode:?}");
            }
        }
    }

    #[test]
    fn macro_runs_are_bit_reproducible_from_one_seed() {
        let run = |seed| {
            let mut trace = Vec::new();
            let mut sim = gossip_sim(1 << 14, &[9830, 6554], GossipRule::TwoChoices, seed);
            let out = sim.run_traced(|t, c| trace.push((t, c.to_vec())));
            (out, trace)
        };
        let (a, ta) = run(42);
        let (b, tb) = run(42);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        let (c, _) = run(43);
        assert_ne!(a.steps, c.steps);
    }

    #[test]
    fn rapid_macro_is_bit_reproducible_and_converges() {
        let run = |seed| {
            MacroSim::from_builder(
                Sim::builder()
                    .topology(Complete::new(4096))
                    .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
                    .rapid(Params::for_network_with_eps(4096, 4, 0.5))
                    .engine(EngineKind::Macro)
                    .seed(Seed::new(seed)),
            )
            .expect("valid")
            .run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same run");
        assert!(a.converged(), "stop: {:?}", a.stop);
        assert_eq!(a.winner, Some(Color::new(0)));
        assert_eq!(a.before_first_halt, Some(true));
    }

    #[test]
    fn rapid_macro_halts_without_consensus_when_hopeless() {
        // A dead tie cannot amplify; the schedule eventually halts everyone.
        let mut sim = MacroSim::from_spec(
            Sim::builder()
                .topology(Complete::new(1024))
                .counts(&[512, 512])
                .rapid(Params::for_network(1024, 2))
                .engine(EngineKind::Macro)
                .seed(Seed::new(9))
                .build_macro()
                .expect("valid"),
        );
        let out = sim.run();
        // Either one side won the coin-flip (fine) or everyone halted.
        if !out.converged() {
            assert_eq!(out.stop, StopReason::AllHalted);
            assert_eq!(sim.halted_count(), Some(1024));
            assert!(sim.first_halt().is_some());
        }
    }

    #[test]
    fn stop_conditions_fire() {
        let mut sim = MacroSim::from_spec(
            Sim::builder()
                .topology(Complete::new(1 << 20))
                .counts(&[1 << 19, 1 << 19])
                .gossip(GossipRule::Voter)
                .engine(EngineKind::Macro)
                .seed(Seed::new(4))
                .stop(StopCondition::StepBudget(1_000_000))
                .build_macro()
                .expect("valid"),
        );
        let out = sim.run();
        assert_eq!(out.stop, StopReason::StepBudget);
        assert!(out.steps >= 1_000_000);

        let mut sim = MacroSim::from_spec(
            Sim::builder()
                .topology(Complete::new(1 << 20))
                .counts(&[1 << 19, 1 << 19])
                .gossip(GossipRule::Voter)
                .engine(EngineKind::Macro)
                .seed(Seed::new(4))
                .stop(StopCondition::TimeHorizon(SimTime::from_secs(2.0)))
                .build_macro()
                .expect("valid"),
        );
        let out = sim.run();
        assert_eq!(out.stop, StopReason::TimeHorizon);
        assert!(out.time.expect("async time") >= SimTime::from_secs(2.0));
    }

    #[test]
    fn unanimous_start_returns_immediately() {
        let mut sim = gossip_sim(1000, &[1000, 0], GossipRule::TwoChoices, 5);
        let out = sim.run();
        assert_eq!(out.steps, 0);
        assert_eq!(out.winner, Some(Color::new(0)));
    }

    #[test]
    fn total_loss_burns_the_budget_without_changes() {
        let mut sim = MacroSim::from_spec(
            Sim::builder()
                .topology(Complete::new(1000))
                .counts(&[750, 250])
                .gossip(GossipRule::TwoChoices)
                .engine(EngineKind::Macro)
                .faults(rapid_sim::fault::FaultPlan::none().with_loss(1.0))
                .seed(Seed::new(6))
                .stop(StopCondition::StepBudget(10_000))
                .build_macro()
                .expect("valid"),
        );
        let out = sim.run();
        assert_eq!(out.stop, StopReason::StepBudget);
        assert_eq!(out.final_counts, vec![750, 250]);
    }

    #[test]
    fn planet_scale_build_is_cheap_and_leaps_run() {
        // n = 10⁹: state must be O(k), and a leap must execute.
        let mut sim = gossip_sim(
            1_000_000_000,
            &[600_000_000, 400_000_000],
            GossipRule::TwoChoices,
            8,
        );
        sim.tau_leap_tick();
        assert_eq!(sim.steps(), 125_000_000);
        assert_eq!(sim.counts().iter().sum::<u64>(), 1_000_000_000);
        // The plurality grows under Two-Choices drift.
        assert!(sim.counts()[0] > 600_000_000);
    }
}
