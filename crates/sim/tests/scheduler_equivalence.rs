//! Pins the scheduler activation streams bit-for-bit.
//!
//! The event-queue scheduler replaces the heap root in place instead of
//! pop + push (one sift instead of two), and the sequential scheduler
//! precomputes its expected-mode gap. These are pure performance changes:
//! the golden hashes below were captured from the pre-optimization
//! implementations, so any divergence in the delivered `(step, node,
//! time)` stream — down to the last bit of the `f64` times — fails here.
//! The per-node-rate and exponential-delay pins were captured from the
//! separate heterogeneous and jittered schedulers that the event-queue
//! scheduler's per-node rates and the exponential latency wrap replaced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rapid_sim::prelude::*;

fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3)
}

fn stream_hash(source: &mut impl ActivationSource, ticks: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..ticks {
        let a = source.next_activation();
        h = fnv(h, a.step);
        h = fnv(h, a.node.index() as u64);
        h = fnv(h, a.time.as_secs().to_bits());
    }
    h
}

#[test]
fn event_queue_stream_matches_pre_optimization_golden() {
    let mut s = EventQueueScheduler::new(64, Seed::new(4), 1.5);
    assert_eq!(stream_hash(&mut s, 10_000), 0x0a03_9bb3_37c3_76e4);
}

#[test]
fn heterogeneous_stream_matches_pre_optimization_golden() {
    let mut s = EventQueueScheduler::with_uniform_skew(32, 0.5, Seed::new(11));
    assert_eq!(stream_hash(&mut s, 10_000), 0x5212_f2ea_4ca5_acd7);
}

#[test]
fn explicit_rates_stream_matches_golden() {
    let rates = vec![0.25, 0.5, 1.0, 2.0, 4.0, 1.5, 3.0, 0.75];
    let mut s = EventQueueScheduler::with_rates(rates, Seed::new(13));
    assert_eq!(stream_hash(&mut s, 20_000), 0xb2dc_6186_caad_b11a);
}

#[test]
fn exponential_delay_stream_matches_golden() {
    let inner = SequentialScheduler::with_mode(16, Seed::new(108), TimeMode::Sampled);
    let jitter = LatencyModel::Exponential { rate: 1.0 };
    let mut s = LatencyScheduler::new(inner, Seed::new(8), jitter);
    assert_eq!(stream_hash(&mut s, 20_000), 0xe8d2_3745_2ce4_ea19);
}

#[test]
fn sequential_expected_stream_matches_pre_optimization_golden() {
    let mut s = SequentialScheduler::new(48, Seed::new(7));
    assert_eq!(stream_hash(&mut s, 10_000), 0x40cd_aeb1_46d4_1286);
}

/// A literal transcription of the pre-optimization event-queue inner loop
/// (pop, sample, push), fed from its own RNG. Running it side by side with
/// the optimized scheduler checks equivalence on fresh seeds, not just the
/// pinned golden one.
struct PopPushReference {
    rate: f64,
    rng: SimRng,
    heap: BinaryHeap<Reverse<(SimTime, u64, NodeId)>>,
    step: u64,
    seq: u64,
}

impl PopPushReference {
    fn new(n: usize, seed: Seed, rate: f64) -> Self {
        let mut rng = SimRng::from_seed_value(seed);
        let mut heap = BinaryHeap::with_capacity(n);
        let mut seq = 0u64;
        for i in 0..n {
            let t = SimTime::from_secs(rapid_sim::poisson::sample_exponential(&mut rng, rate));
            heap.push(Reverse((t, seq, NodeId::new(i))));
            seq += 1;
        }
        PopPushReference {
            rate,
            rng,
            heap,
            step: 0,
            seq,
        }
    }

    fn next(&mut self) -> (u64, NodeId, SimTime) {
        let Reverse((time, _, node)) = self.heap.pop().expect("non-empty");
        let gap = rapid_sim::poisson::sample_exponential(&mut self.rng, self.rate);
        self.heap
            .push(Reverse((time + SimTime::from_secs(gap), self.seq, node)));
        self.seq += 1;
        let out = (self.step, node, time);
        self.step += 1;
        out
    }
}

#[test]
fn event_queue_agrees_with_pop_push_reference_on_many_seeds() {
    for seed in 0..8u64 {
        let mut optimized = EventQueueScheduler::new(33, Seed::new(seed), 0.7);
        let mut reference = PopPushReference::new(33, Seed::new(seed), 0.7);
        for _ in 0..5_000 {
            let a = optimized.next_activation();
            let (step, node, time) = reference.next();
            assert_eq!(a.step, step);
            assert_eq!(a.node, node);
            assert_eq!(a.time.as_secs().to_bits(), time.as_secs().to_bits());
        }
    }
}

#[test]
fn sequential_expected_gap_is_bitwise_one_over_n() {
    // The precomputed gap must be the same f64 the old code derived per
    // tick, so accumulated times stay bit-identical.
    for n in [1usize, 3, 7, 48, 1024, 65_536] {
        let mut s = SequentialScheduler::new(n, Seed::new(1));
        let mut expected = 0.0f64;
        for _ in 0..100 {
            expected += 1.0 / n as f64;
            let a = s.next_activation();
            assert_eq!(a.time.as_secs().to_bits(), expected.to_bits(), "n={n}");
        }
    }
}
