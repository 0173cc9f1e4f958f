//! Property-style tests for the simulation substrate, driven by the
//! deterministic [`rapid_sim::testkit`] harness.

use rapid_sim::poisson::sample_exponential;
use rapid_sim::prelude::*;
use rapid_sim::testkit::cases;

/// `bounded(b)` is always `< b`, for any bound and seed.
#[test]
fn bounded_is_always_in_range() {
    cases(256, |g| {
        let bound = g.u64(1..u64::MAX);
        let mut rng = SimRng::from_seed_value(g.seed());
        assert!(rng.bounded(bound) < bound);
    });
}

/// Unit samples always land in [0, 1).
#[test]
fn unit_f64_in_unit_interval() {
    cases(64, |g| {
        let mut rng = SimRng::from_seed_value(g.seed());
        for _ in 0..100 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    });
}

/// Identical seeds yield identical streams; child streams differ from
/// their parents.
#[test]
fn seeding_is_deterministic_and_splitting_diverges() {
    cases(64, |g| {
        let seed = g.seed();
        let mut a = SimRng::from_seed_value(seed);
        let mut b = SimRng::from_seed_value(seed);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);

        let mut parent = SimRng::from_seed_value(seed);
        let mut child = parent.split();
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    });
}

/// Exponential samples are finite and non-negative at any rate.
#[test]
fn exponential_is_nonnegative() {
    cases(256, |g| {
        let rate = g.f64(0.001..1000.0);
        let mut rng = SimRng::from_seed_value(g.seed());
        let x = sample_exponential(&mut rng, rate);
        assert!(x.is_finite());
        assert!(x >= 0.0);
    });
}

/// SimTime ordering is total and consistent with the raw values.
#[test]
fn sim_time_orders_like_f64() {
    cases(256, |g| {
        let a = g.f64(0.0..1e12);
        let b = g.f64(0.0..1e12);
        let ta = SimTime::from_secs(a);
        let tb = SimTime::from_secs(b);
        assert_eq!(ta < tb, a < b);
        assert_eq!(ta.max(tb).as_secs(), a.max(b));
    });
}

/// The sequential scheduler activates every node id within range and
/// advances time monotonically, for any (n, seed).
#[test]
fn sequential_scheduler_is_well_formed() {
    cases(64, |g| {
        let n = g.usize(1..512);
        let steps = g.usize(1..500);
        let mut s = SequentialScheduler::new(n, g.seed());
        let mut last = SimTime::ZERO;
        for i in 0..steps {
            let a = s.next_activation();
            assert!(a.node.index() < n);
            assert!(a.time >= last);
            assert_eq!(a.step, i as u64);
            last = a.time;
        }
    });
}

/// Recording then replaying a trace reproduces the exact activations.
#[test]
fn trace_replay_is_exact() {
    cases(32, |g| {
        let n = g.usize(1..128);
        let steps = g.usize(1..300);
        let seed = g.seed();
        let mut live = SequentialScheduler::new(n, seed);
        let trace = ActivationTrace::record(&mut live, steps);
        let mut fresh = SequentialScheduler::new(n, seed);
        let mut replay = trace.replay();
        for _ in 0..steps {
            assert_eq!(fresh.next_activation(), replay.next_activation());
        }
    });
}

/// The event queue delivers in time order for any parameters.
#[test]
fn event_queue_is_time_ordered() {
    cases(32, |g| {
        let n = g.usize(1..256);
        let rate = g.f64(0.1..10.0);
        let mut s = EventQueueScheduler::new(n, g.seed(), rate);
        let mut last = SimTime::ZERO;
        for _ in 0..300 {
            let a = s.next_activation();
            assert!(a.time >= last);
            assert!(a.node.index() < n);
            last = a.time;
        }
    });
}
