//! Property-style tests for the experiment harness: workload generators
//! and the trial runner. Driven by the deterministic
//! [`rapid_sim::testkit`] harness.

use rapid_core::distributions::{theorem_11_gap, theorem_12_gap, InitialDistribution};
use rapid_experiments::run_trials;
use rapid_sim::prelude::*;
use rapid_sim::testkit::cases;

/// Every generator produces counts that sum to n, sorted descending,
/// with color 0 the plurality.
#[test]
fn distributions_are_well_formed() {
    cases(64, |g| {
        let n = g.u64(100..100_000);
        let k = g.usize(2..12);
        let eps = g.f64(0.01..3.0);
        let s = g.f64(0.2..3.0);
        let r = g.f64(0.1..0.9);
        let candidates = vec![
            InitialDistribution::multiplicative_bias(k, eps),
            InitialDistribution::Uniform { k },
            InitialDistribution::Zipf { k, s },
            InitialDistribution::Geometric { k, r },
        ];
        for dist in candidates {
            if let Ok(counts) = dist.counts(n) {
                assert_eq!(counts.iter().sum::<u64>(), n, "{}", dist.label());
                assert!(
                    counts.windows(2).all(|w| w[0] >= w[1]),
                    "{} not sorted",
                    dist.label()
                );
                assert_eq!(counts.len(), k);
            }
        }
    });
}

/// The additive-bias generator hits the requested gap up to rounding.
#[test]
fn additive_gap_is_respected() {
    cases(64, |g| {
        let n = g.u64(1_000..1_000_000);
        let k = g.usize(2..16);
        let gap = (n as f64 * g.f64(0.0..0.5)) as u64;
        if let Ok(counts) = InitialDistribution::additive_bias(k, gap).counts(n) {
            let realised = counts[0] - counts[1];
            assert!(realised >= gap);
            assert!(realised < gap + k as u64);
        }
    });
}

/// Theorem gap formulas are monotone in n and ordered: the
/// Theorem 1.2 gap dominates the Theorem 1.1 gap.
#[test]
fn theorem_gaps_are_ordered() {
    cases(128, |g| {
        let n = g.u64(10..10_000_000);
        let z = g.f64(0.1..4.0);
        assert!(theorem_12_gap(n, z) >= theorem_11_gap(n, z));
        assert!(theorem_11_gap(2 * n, z) > theorem_11_gap(n, z));
    });
}

/// The trial runner is deterministic and order-preserving regardless of
/// trial count.
#[test]
fn runner_is_deterministic() {
    cases(16, |g| {
        let trials = g.u64(1..40);
        let master = g.seed();
        let f = |i: u64, seed: Seed| {
            let mut rng = SimRng::from_seed_value(seed);
            (i, rng.bounded(1_000_000))
        };
        let a = run_trials(trials, master, f);
        let b = run_trials(trials, master, f);
        assert_eq!(&a, &b);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.0, i as u64);
        }
    });
}
