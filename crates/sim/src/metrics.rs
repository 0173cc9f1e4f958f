//! Per-node activation statistics.
//!
//! The asynchronous analysis of the paper leans on two facts about Poisson
//! clocks, both of which the E9 experiment measures through this module:
//!
//! 1. **Tick concentration** — after `T` time units every node has ticked
//!    `T ± O(√(T log n))` times w.h.p., which is what makes "weak
//!    synchronicity" possible at all.
//! 2. **The Ω(log n) barrier** — some node stays unselected for `Ω(log n)`
//!    time w.h.p., so no asynchronous protocol finishes in `o(log n)` time.

use crate::node::NodeId;
use crate::time::SimTime;

/// Accumulates per-node activation counts and first/last activation times.
///
/// # Example
///
/// ```
/// use rapid_sim::prelude::*;
/// let mut stats = ActivationStats::new(4);
/// stats.observe(Activation { step: 0, node: NodeId::new(2), time: SimTime::from_secs(0.3) });
/// assert_eq!(stats.count(NodeId::new(2)), 1);
/// assert_eq!(stats.total(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ActivationStats {
    counts: Vec<u64>,
    first: Vec<Option<SimTime>>,
    last: Vec<Option<SimTime>>,
    total: u64,
    now: SimTime,
}

impl ActivationStats {
    /// Creates empty statistics for an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "network must contain at least one node");
        ActivationStats {
            counts: vec![0; n],
            first: vec![None; n],
            last: vec![None; n],
            total: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of nodes tracked.
    pub fn n(&self) -> usize {
        self.counts.len()
    }

    /// Records one activation.
    pub fn observe(&mut self, a: crate::scheduler::Activation) {
        let i = a.node.index();
        self.counts[i] += 1;
        if self.first[i].is_none() {
            self.first[i] = Some(a.time);
        }
        self.last[i] = Some(a.time);
        self.total += 1;
        self.now = self.now.max(a.time);
    }

    /// Tick count of one node.
    pub fn count(&self, node: NodeId) -> u64 {
        self.counts[node.index()]
    }

    /// All per-node tick counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of activations observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Latest activation time observed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Maximum absolute deviation of any node's tick count from the mean.
    pub fn max_deviation(&self) -> f64 {
        let mean = self.total as f64 / self.n() as f64;
        self.counts
            .iter()
            .map(|&c| (c as f64 - mean).abs())
            .fold(0.0, f64::max)
    }

    /// Time of the latest *first* activation: how long the slowest node
    /// remained unselected. This is the quantity behind the Ω(log n) lower
    /// bound for asynchronous consensus.
    ///
    /// Returns `None` while some node has never been activated.
    pub fn last_first_activation(&self) -> Option<SimTime> {
        self.first
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()
            // lint: allow(panic-hygiene): constructors reject n = 0, so the per-node collections are non-empty
            .map(|ts| ts.into_iter().max().expect("n > 0"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;
    use crate::scheduler::{ActivationSource, SequentialScheduler};

    fn run(n: usize, steps: usize, seed: u64) -> ActivationStats {
        let mut sched = SequentialScheduler::new(n, Seed::new(seed));
        let mut stats = ActivationStats::new(n);
        for _ in 0..steps {
            stats.observe(sched.next_activation());
        }
        stats
    }

    #[test]
    fn totals_add_up() {
        let stats = run(10, 1000, 1);
        assert_eq!(stats.total(), 1000);
        assert_eq!(stats.counts().iter().sum::<u64>(), 1000);
        assert_eq!(stats.n(), 10);
    }

    #[test]
    fn count_range_brackets_mean() {
        let stats = run(10, 10_000, 2);
        let min = *stats.counts().iter().min().expect("n > 0");
        let max = *stats.counts().iter().max().expect("n > 0");
        assert!(min <= 1000 && 1000 <= max);
        assert!(stats.max_deviation() >= (max as f64 - 1000.0).abs());
    }

    #[test]
    fn last_first_activation_requires_all_nodes() {
        let mut stats = ActivationStats::new(2);
        stats.observe(crate::scheduler::Activation {
            step: 0,
            node: NodeId::new(0),
            time: SimTime::from_secs(0.5),
        });
        assert!(stats.last_first_activation().is_none());
        stats.observe(crate::scheduler::Activation {
            step: 1,
            node: NodeId::new(1),
            time: SimTime::from_secs(0.9),
        });
        assert_eq!(stats.last_first_activation(), Some(SimTime::from_secs(0.9)));
    }

    #[test]
    fn unselected_time_grows_with_n() {
        // Qualitative check of the Ω(log n) barrier: the time until every
        // node has ticked once grows with n (coupon collector / ln n).
        let t_small = {
            let mut sched = SequentialScheduler::new(64, Seed::new(4));
            let mut stats = ActivationStats::new(64);
            while stats.last_first_activation().is_none() {
                stats.observe(sched.next_activation());
            }
            stats.last_first_activation().expect("complete").as_secs()
        };
        let t_large = {
            let mut sched = SequentialScheduler::new(4096, Seed::new(4));
            let mut stats = ActivationStats::new(4096);
            while stats.last_first_activation().is_none() {
                stats.observe(sched.next_activation());
            }
            stats.last_first_activation().expect("complete").as_secs()
        };
        assert!(
            t_large > t_small,
            "coverage time should grow with n ({t_small} vs {t_large})"
        );
    }
}
