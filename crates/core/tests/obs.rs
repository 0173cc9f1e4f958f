//! The observability layer's zero-overhead and non-interference
//! contracts.
//!
//! Instrumentation must be a *read-only* layer: attaching an obs handle
//! or an [`ObsObserver`] may not change a single byte of any outcome,
//! because nothing in the layer is allowed to touch an RNG stream. These
//! tests pin that three ways:
//!
//! * with an obs handle attached, the sharded engine still reproduces
//!   the exact golden FNV pins from `tests/sharding.rs` (same table —
//!   if one suite's pins move, both fail);
//! * a micro rapid run with an [`ObsObserver`] produces the same
//!   [`Outcome`] as the identical run without one, while the trace
//!   carries a non-empty, monotone phase trajectory;
//! * per-stream trace sequence numbers are gap-free under 1, 2, 4 and
//!   auto shard workers.

use std::sync::Arc;

use rapid_core::prelude::*;
use rapid_core::{AsyncProtocol, ShardedSim};
use rapid_graph::prelude::*;
use rapid_obs::{EventKind, Obs, TraceEvent};
use rapid_sim::parallelism::{Parallelism, Workers};
use rapid_sim::prelude::*;

/// FNV-1a over a byte stream (same construction as `tests/sharding.rs`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push_u64(&mut self, v: u64) {
        for &b in &v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

enum Topo {
    Clique,
    Er,
}

fn topology(topo: &Topo, n: usize) -> Box<dyn Topology + Send + Sync> {
    match topo {
        Topo::Clique => Box::new(Complete::new(n)),
        Topo::Er => Box::new(ErdosRenyi::sample(
            n,
            (32.0 / n as f64).min(1.0),
            Seed::new(99),
        )),
    }
}

fn engine(topo: &Topo, rapid: bool, n: usize, workers: usize) -> ShardedSim {
    let counts = [3 * n as u64 / 5, n as u64 - 3 * n as u64 / 5];
    let config = Configuration::from_counts(&counts).expect("valid");
    let proto = if rapid {
        AsyncProtocol::Rapid(Schedule::new(Params::for_network(n, 2)))
    } else {
        AsyncProtocol::Gossip(GossipRule::TwoChoices)
    };
    ShardedSim::new(
        topology(topo, n),
        config,
        proto,
        Seed::new(0x5A4D),
        1.0,
        workers,
    )
}

/// Runs epochs until unanimity or every node halted — the stops
/// `Sim::run` checks between epochs — or `max_epochs` pass; the winner,
/// if any.
fn run_epochs(sim: &mut ShardedSim, max_epochs: u64) -> Option<Color> {
    for _ in 0..max_epochs {
        if sim.config().unanimous().is_some() || sim.halted_count() == sim.config().n() {
            break;
        }
        sim.run_epoch();
    }
    sim.config().unanimous()
}

fn run_hash(sim: &mut ShardedSim) -> u64 {
    let winner = run_epochs(sim, 1_000_000);
    let mut h = Fnv::new();
    h.push_u64(winner.map_or(u64::MAX, |c| c.index() as u64));
    h.push_u64(sim.epoch());
    h.push_u64(sim.steps());
    h.push_u64(sim.halted_count() as u64);
    h.push_u64(sim.jump_count());
    h.push_u64(sim.max_jump_displacement());
    for c in sim.config().colors() {
        h.push_u64(c.index() as u64);
    }
    if let Some(wt) = sim.working_times() {
        for t in wt {
            h.push_u64(t);
        }
    }
    h.0
}

/// The golden pins from `tests/sharding.rs`, verbatim. The instrumented
/// runs below must land on these exact values — instrumentation that
/// shifts any RNG draw moves the hash and fails here.
const GOLDEN: &[(&str, bool, usize, u64)] = &[
    ("gossip-er", false, 1 << 10, 0x5fc3_79bb_db51_690a),
    ("gossip-clique", false, 1 << 14, 0x8fce_1527_afbe_235e),
    ("rapid-clique", true, 1 << 10, 0x9921_e3ff_7d02_4d82),
    ("rapid-er", true, 1 << 14, 0xcc73_dd49_07e0_cfe3),
];

fn topo_of(label: &str) -> Topo {
    if label.ends_with("clique") {
        Topo::Clique
    } else {
        Topo::Er
    }
}

#[test]
fn instrumented_sharded_runs_match_the_uninstrumented_golden_pins() {
    for &(label, rapid, n, golden) in GOLDEN {
        let obs = Obs::new();
        let mut sim = engine(&topo_of(label), rapid, n, 4);
        sim.attach_obs(Arc::clone(&obs));
        let h = run_hash(&mut sim);
        assert_eq!(
            h, golden,
            "{label} n={n}: attaching obs changed the outcome bytes"
        );
        assert!(
            !obs.trace.is_empty(),
            "{label}: instrumentation attached but no events emitted"
        );
        let snap = obs.registry.snapshot();
        assert_eq!(
            snap.get_counter("sharded.steps"),
            Some(sim.steps()),
            "{label}: counter must equal the engine's own step count"
        );
        assert_eq!(snap.get_counter("sharded.epochs"), Some(sim.epoch()));
        if matches!(topo_of(label), Topo::Clique) && !rapid {
            assert!(
                snap.get_counter("sharded.clique_pulls").unwrap_or(0) > 0,
                "{label}: clique gossip must hit the histogram fast path"
            );
        }
    }
}

#[test]
fn trace_sequences_are_gap_free_under_every_parallelism() {
    let specs = ["1", "2", "4", "auto"];
    for spec in specs {
        let par = Parallelism::parse(spec).expect("valid parallelism spec");
        let workers = match par.shard_workers {
            Workers::Fixed(w) => w,
            Workers::Auto => 8,
        };
        let obs = Obs::new();
        let mut sim = engine(&Topo::Clique, true, 1 << 10, workers);
        sim.attach_obs(Arc::clone(&obs));
        run_epochs(&mut sim, 1_000_000);
        let records = obs.trace.records();
        assert!(!records.is_empty(), "parallelism {spec}: no events");
        let mut last: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for record in &records {
            match last.get(&record.stream) {
                None => assert_eq!(
                    record.seq, 0,
                    "parallelism {spec}: stream {} starts past 0",
                    record.stream
                ),
                Some(&prev) => assert_eq!(
                    record.seq,
                    prev + 1,
                    "parallelism {spec}: gap in stream {}",
                    record.stream
                ),
            }
            last.insert(record.stream.clone(), record.seq);
        }
    }
}

fn micro_rapid_builder(obs: Option<Arc<Obs>>) -> Sim {
    let n = 512;
    let mut b = Sim::builder()
        .topology(Complete::new(n))
        .counts(&[320, 192])
        .rapid(Params::for_network(n, 2))
        .clock(Clock::EventQueue { rate: 1.0 })
        .seed(Seed::new(0xB1A5));
    if let Some(obs) = obs {
        b = b.obs(obs);
    }
    b.build().expect("valid micro rapid assembly")
}

#[test]
fn obs_observer_never_changes_a_micro_outcome() {
    let baseline = micro_rapid_builder(None).run();

    let obs = Obs::new();
    let schedule = Schedule::new(Params::for_network(512, 2));
    let mut observer = ObsObserver::new(Arc::clone(&obs), "sim").with_schedule(schedule);
    let observed = micro_rapid_builder(Some(Arc::clone(&obs))).run_with(&mut [&mut observer]);

    assert_eq!(baseline.winner, observed.winner);
    assert_eq!(baseline.steps, observed.steps);
    assert_eq!(baseline.final_counts, observed.final_counts);
    assert_eq!(baseline.to_json(), observed.to_json());

    let records = obs.trace.records();
    let phases: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::PhaseEnter { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    assert!(!phases.is_empty(), "phase trajectory must be non-empty");
    assert!(
        phases.windows(2).all(|w| w[0] < w[1]),
        "median-working-time phases must be strictly increasing: {phases:?}"
    );
    assert_eq!(phases[0], 0, "the trajectory starts in phase 0");
    assert!(
        records
            .iter()
            .any(|r| r.event.kind() == EventKind::BiasSample),
        "bias samples must be present"
    );
}

#[test]
fn event_filter_limits_the_micro_trace() {
    let obs = Obs::new();
    obs.trace.set_filter(Some(&[EventKind::BiasSample]));
    let mut observer = ObsObserver::new(Arc::clone(&obs), "sim")
        .with_schedule(Schedule::new(Params::for_network(512, 2)));
    micro_rapid_builder(Some(Arc::clone(&obs))).run_with(&mut [&mut observer]);
    let records = obs.trace.records();
    assert!(!records.is_empty());
    assert!(records
        .iter()
        .all(|r| r.event.kind() == EventKind::BiasSample));
}
