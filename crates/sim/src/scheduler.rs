//! Activation schedulers: who ticks, and when.
//!
//! The paper's asynchronous model equips every node with a Poisson(1) clock
//! and analyses the equivalent *sequential model*: a discrete sequence of
//! steps, each activating a node chosen uniformly at random, with `n` steps
//! corresponding to one time unit (Mosk-Aoyama & Shah, 2008). This module
//! provides both:
//!
//! * [`SequentialScheduler`] — the sequential model. Time can advance
//!   deterministically by `1/n` per step ([`TimeMode::Expected`]) or by a
//!   sampled `Exponential(n)` gap ([`TimeMode::Sampled`]), which makes the
//!   sequence of activation *times* exactly that of `n` superposed unit
//!   Poisson processes.
//! * [`EventQueueScheduler`] — per-node Poisson clocks in continuous time,
//!   realised with a binary-heap event queue. Every node shares one rate,
//!   or each ticks at its own (the discussion section's heterogeneous
//!   clocks). Statistically equivalent to the sequential scheduler in
//!   `Sampled` mode; an integration test checks this with a
//!   Kolmogorov–Smirnov test instead of taking it on faith.
//!
//! Response delays (the discussion section's exponentially delayed pulls)
//! wrap any of these in a [`LatencyScheduler`](crate::fault::LatencyScheduler)
//! with [`LatencyModel::Exponential`](crate::fault::LatencyModel::Exponential).
//!
//! All schedulers yield a stream of [`Activation`]s through the
//! [`ActivationSource`] trait, so protocol drivers are scheduler-agnostic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::poisson::sample_exponential;
use crate::rng::{Seed, SimRng};
use crate::time::SimTime;

/// One node activation: `node` ticks at `time`; this is the `step`-th
/// activation overall (0-based).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Activation {
    /// Global 0-based index of this activation.
    pub step: u64,
    /// The node whose clock ticked.
    pub node: NodeId,
    /// The simulation time of the tick.
    pub time: SimTime,
}

/// A source of node activations.
///
/// Implementors produce an unbounded stream; callers decide when to stop
/// (after a time horizon, a step budget, or protocol convergence).
pub trait ActivationSource {
    /// Returns the number of nodes in the simulated network.
    fn n(&self) -> usize;

    /// Produces the next activation.
    fn next_activation(&mut self) -> Activation;

    /// Runs until `horizon`, invoking `on_tick` for each activation with
    /// time `< horizon`. Returns the number of activations delivered.
    fn run_until(&mut self, horizon: SimTime, mut on_tick: impl FnMut(Activation)) -> u64
    where
        Self: Sized,
    {
        let mut delivered = 0;
        loop {
            let a = self.next_activation();
            if a.time >= horizon {
                return delivered;
            }
            on_tick(a);
            delivered += 1;
        }
    }
}

impl ActivationSource for Box<dyn ActivationSource + Send> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn next_activation(&mut self) -> Activation {
        (**self).next_activation()
    }
}

/// How the sequential scheduler advances time.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TimeMode {
    /// Deterministic `1/n` per step (expected-time bookkeeping). Cheapest;
    /// time equals `steps / n` exactly.
    #[default]
    Expected,
    /// Sampled `Exponential(n)` gaps: the activation-time sequence has
    /// exactly the law of `n` superposed rate-1 Poisson clocks.
    Sampled,
}

/// The sequential asynchronous model: each step activates a uniformly
/// random node.
///
/// # Example
///
/// ```
/// use rapid_sim::prelude::*;
/// let mut s = SequentialScheduler::new(10, Seed::new(1));
/// let a = s.next_activation();
/// assert!(a.node.index() < 10);
/// assert_eq!(a.step, 0);
/// ```
#[derive(Clone, Debug)]
pub struct SequentialScheduler {
    n: usize,
    rng: SimRng,
    step: u64,
    now: SimTime,
    mode: TimeMode,
    // `1/n`, precomputed once: Expected mode adds it every activation, and
    // the division (plus `SimTime::from_secs` range checks) is measurable
    // at tens of millions of activations per run.
    expected_gap: SimTime,
}

impl SequentialScheduler {
    /// Creates a scheduler for `n` nodes in [`TimeMode::Expected`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: Seed) -> Self {
        Self::with_mode(n, seed, TimeMode::Expected)
    }

    /// Creates a scheduler with an explicit [`TimeMode`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_mode(n: usize, seed: Seed, mode: TimeMode) -> Self {
        assert!(n > 0, "network must contain at least one node");
        SequentialScheduler {
            n,
            rng: SimRng::from_seed_value(seed),
            step: 0,
            now: SimTime::ZERO,
            mode,
            expected_gap: SimTime::from_secs(1.0 / n as f64),
        }
    }

    /// Returns the number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }
}

impl ActivationSource for SequentialScheduler {
    fn n(&self) -> usize {
        self.n
    }

    fn next_activation(&mut self) -> Activation {
        let gap = match self.mode {
            TimeMode::Expected => self.expected_gap,
            TimeMode::Sampled => {
                SimTime::from_secs(sample_exponential(&mut self.rng, self.n as f64))
            }
        };
        self.now += gap;
        let node = NodeId::new(self.rng.bounded_usize(self.n));
        let a = Activation {
            step: self.step,
            node,
            time: self.now,
        };
        self.step += 1;
        a
    }
}

/// Continuous-time model: every node owns an independent Poisson clock;
/// activations are delivered in global time order via a binary heap.
///
/// All nodes share one rate ([`new`](Self::new)), or node `i` ticks at
/// its own rate ([`with_rates`](Self::with_rates),
/// [`with_uniform_skew`](Self::with_uniform_skew)) — the discussion
/// section's heterogeneous clocks, which experiment E15 uses to measure
/// the asynchronous protocol's tolerance to clock skew.
///
/// # Example
///
/// ```
/// use rapid_sim::prelude::*;
/// let mut s = EventQueueScheduler::new(10, Seed::new(1), 1.0);
/// let a = s.next_activation();
/// let b = s.next_activation();
/// assert!(b.time >= a.time);
/// let mut skewed = EventQueueScheduler::with_rates(vec![0.5, 1.0, 2.0], Seed::new(1));
/// assert!(skewed.next_activation().node.index() < 3);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueueScheduler {
    n: usize,
    rates: Rates,
    rng: SimRng,
    heap: BinaryHeap<Reverse<(SimTime, u64, NodeId)>>,
    step: u64,
    seq: u64,
}

/// The clock rates of an [`EventQueueScheduler`]: one for every node, or
/// one per node.
#[derive(Clone, Debug)]
enum Rates {
    Common(f64),
    PerNode(Vec<f64>),
}

impl Rates {
    fn of(&self, node: usize) -> f64 {
        match self {
            Rates::Common(rate) => *rate,
            Rates::PerNode(rates) => rates[node],
        }
    }
}

impl EventQueueScheduler {
    /// Creates a scheduler for `n` nodes with per-node clock rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `rate` is not strictly positive and finite.
    pub fn new(n: usize, seed: Seed, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "clock rate must be positive and finite, got {rate}"
        );
        Self::seeded(n, Rates::Common(rate), seed)
    }

    /// Creates a scheduler where node `i` ticks at rate `rates[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or any rate is not strictly positive and
    /// finite.
    pub fn with_rates(rates: Vec<f64>, seed: Seed) -> Self {
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r.is_finite() && r > 0.0,
                "clock rate of node {i} must be positive and finite, got {r}"
            );
        }
        Self::seeded(rates.len(), Rates::PerNode(rates), seed)
    }

    /// Creates a scheduler with rates drawn uniformly from
    /// `[1 − skew, 1 + skew]` — the E15 clock-skew model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `skew` is not in `[0, 1)`.
    pub fn with_uniform_skew(n: usize, skew: f64, seed: Seed) -> Self {
        assert!(n > 0, "network must contain at least one node");
        assert!(
            (0.0..1.0).contains(&skew),
            "skew must be in [0, 1), got {skew}"
        );
        let mut rng = SimRng::from_seed_value(seed.child(0));
        let rates: Vec<f64> = (0..n)
            .map(|_| 1.0 - skew + 2.0 * skew * rng.unit_f64())
            .collect();
        Self::with_rates(rates, seed.child(1))
    }

    /// Seeds the queue with every node's first tick, drawn in node order.
    fn seeded(n: usize, rates: Rates, seed: Seed) -> Self {
        assert!(n > 0, "network must contain at least one node");
        let mut rng = SimRng::from_seed_value(seed);
        let mut heap = BinaryHeap::with_capacity(n);
        for i in 0..n {
            let t = SimTime::from_secs(sample_exponential(&mut rng, rates.of(i)));
            heap.push(Reverse((t, i as u64, NodeId::new(i))));
        }
        EventQueueScheduler {
            n,
            rates,
            rng,
            heap,
            step: 0,
            seq: n as u64,
        }
    }
}

impl ActivationSource for EventQueueScheduler {
    fn n(&self) -> usize {
        self.n
    }

    fn next_activation(&mut self) -> Activation {
        // Replace the heap root in place instead of pop + push: one
        // sift-down instead of a sift-down and a sift-up. The delivered
        // order is unchanged — the heap still always yields the minimum of
        // the same (time, seq, node) multiset — and the RNG draw sequence
        // is identical (one exponential per activation), so activation
        // streams are bit-for-bit those of the pop+push implementation.
        // lint: allow(panic-hygiene): the heap is seeded with one event per node and every pop is followed by a push
        let mut top = self.heap.peek_mut().expect("event queue is never empty");
        let Reverse((time, _, node)) = *top;
        let rate = self.rates.of(node.index());
        let next = time + SimTime::from_secs(sample_exponential(&mut self.rng, rate));
        *top = Reverse((next, self.seq, node));
        drop(top);
        self.seq += 1;
        let a = Activation {
            step: self.step,
            node,
            time,
        };
        self.step += 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LatencyModel, LatencyScheduler};

    #[test]
    fn sequential_expected_time_advances_by_one_over_n() {
        let mut s = SequentialScheduler::new(4, Seed::new(1));
        let a = s.next_activation();
        assert!((a.time.as_secs() - 0.25).abs() < 1e-12);
        let b = s.next_activation();
        assert!((b.time.as_secs() - 0.5).abs() < 1e-12);
        assert_eq!(b.step, 1);
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn sequential_sampled_time_is_monotone() {
        let mut s = SequentialScheduler::with_mode(8, Seed::new(2), TimeMode::Sampled);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let a = s.next_activation();
            assert!(a.time >= last);
            last = a.time;
        }
        // After 1000 steps at n=8, time should be near 125.
        assert!((last.as_secs() - 125.0).abs() < 25.0);
    }

    #[test]
    fn sequential_activations_are_roughly_uniform() {
        let n = 16;
        let mut s = SequentialScheduler::new(n, Seed::new(3));
        let steps = 16_000;
        let mut counts = vec![0u64; n];
        for _ in 0..steps {
            counts[s.next_activation().node.index()] += 1;
        }
        let expected = steps as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "node {i} count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn event_queue_delivers_in_time_order() {
        let mut s = EventQueueScheduler::new(32, Seed::new(4), 1.0);
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let a = s.next_activation();
            assert!(a.time >= last, "activations must be time-ordered");
            last = a.time;
        }
    }

    #[test]
    fn event_queue_rate_controls_tick_density() {
        // With n nodes at rate r, expect about n*r*T ticks in [0, T].
        let n = 50;
        let rate = 2.0;
        let mut s = EventQueueScheduler::new(n, Seed::new(5), rate);
        let horizon = SimTime::from_secs(20.0);
        let delivered = s.run_until(horizon, |_| {});
        let expected = n as f64 * rate * 20.0;
        assert!(
            (delivered as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "delivered {delivered} vs expected {expected}"
        );
    }

    #[test]
    fn event_queue_ticks_concentrate_per_node() {
        let n = 64;
        let mut s = EventQueueScheduler::new(n, Seed::new(6), 1.0);
        let horizon = SimTime::from_secs(100.0);
        let mut counts = vec![0u64; n];
        s.run_until(horizon, |a| counts[a.node.index()] += 1);
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 100.0).abs() < 60.0,
                "node {i} ticked {c} times in 100 units"
            );
        }
    }

    #[test]
    fn jittered_scheduler_is_time_ordered_and_complete() {
        // Jitter is a latency wrap with the exponential law.
        let inner = SequentialScheduler::with_mode(16, Seed::new(7), TimeMode::Sampled);
        let jitter = LatencyModel::Exponential { rate: 1.0 };
        let mut s = LatencyScheduler::new(inner, Seed::new(8), jitter);
        let mut last = SimTime::ZERO;
        let mut per_node = [0u64; 16];
        for _ in 0..3000 {
            let a = s.next_activation();
            assert!(a.time >= last);
            last = a.time;
            per_node[a.node.index()] += 1;
        }
        // Every node should still be activated regularly.
        assert!(per_node.iter().all(|&c| c > 0));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s = SequentialScheduler::new(10, Seed::new(9));
        let delivered = s.run_until(SimTime::from_secs(5.0), |a| {
            assert!(a.time < SimTime::from_secs(5.0));
        });
        // 5 time units at n=10 → 50 activations, minus boundary effects.
        assert!((45..=50).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = SequentialScheduler::new(0, Seed::new(1));
    }

    #[test]
    fn same_seed_reproduces_schedule() {
        let mut a = SequentialScheduler::new(20, Seed::new(42));
        let mut b = SequentialScheduler::new(20, Seed::new(42));
        for _ in 0..500 {
            assert_eq!(a.next_activation(), b.next_activation());
        }
    }

    #[test]
    fn heterogeneous_rates_control_tick_shares() {
        // A node with rate 4 should tick ~4x as often as a rate-1 node.
        let mut s = EventQueueScheduler::with_rates(vec![1.0, 4.0], Seed::new(10));
        let mut c = [0u64; 2];
        s.run_until(SimTime::from_secs(2000.0), |a| c[a.node.index()] += 1);
        let ratio = c[1] as f64 / c[0] as f64;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "tick ratio {ratio} vs rate ratio 4"
        );
    }

    #[test]
    fn heterogeneous_is_time_ordered() {
        let mut s = EventQueueScheduler::with_uniform_skew(32, 0.5, Seed::new(11));
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let a = s.next_activation();
            assert!(a.time >= last);
            assert!(a.node.index() < 32);
            last = a.time;
        }
    }

    #[test]
    fn zero_skew_equals_unit_rates() {
        // Zero skew draws every rate as exactly 1, and per-node rates that
        // are all equal replay the common-rate clock bit for bit.
        let seed = Seed::new(12);
        let mut skewed = EventQueueScheduler::with_uniform_skew(8, 0.0, seed);
        let mut unit = EventQueueScheduler::new(8, seed.child(1), 1.0);
        for _ in 0..500 {
            assert_eq!(skewed.next_activation(), unit.next_activation());
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn heterogeneous_rejects_zero_rate() {
        let _ = EventQueueScheduler::with_rates(vec![1.0, 0.0], Seed::new(13));
    }
}
