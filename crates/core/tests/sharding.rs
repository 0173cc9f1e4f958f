//! Shard-count invariance of the epoch engine.
//!
//! The sharded engine's documented determinism guarantee: because every
//! node draws from its own per-(epoch, node) stream and every pull
//! resolves against the frozen epoch-start snapshot, the run's result is
//! bit-identical under **any** worker count — sharding is a pure
//! throughput knob. These tests pin that guarantee three ways:
//!
//! * 1, 2, 4 and 8 shards produce identical final states at
//!   n ∈ {2⁹, 2¹⁰, 2¹⁴} for every gossip rule and the full Rapid
//!   protocol, on both the clique fast path and the general
//!   (Erdős–Rényi) path;
//! * the final state's FNV-1a hash matches a **golden pin**, so an
//!   engine change that silently alters outcomes (not just their
//!   invariance) fails loudly and must update the pin deliberately;
//! * a shard count that does not divide n gets the same result as one
//!   worker (the partition decides who executes a node, never what the
//!   node draws).

use rapid_core::prelude::*;
use rapid_core::{AsyncProtocol, ShardedSim};
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;

/// FNV-1a over a byte stream: stable, dependency-free, endian-fixed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_u64(&mut self, v: u64) {
        self.push(&v.to_le_bytes());
    }
}

/// Which topology a case runs on: the clique histogram fast path or the
/// general snapshot-array path.
enum Topo {
    Clique,
    Er,
}

fn topology(topo: &Topo, n: usize) -> Box<dyn Topology + Send + Sync> {
    match topo {
        Topo::Clique => Box::new(Complete::new(n)),
        // Dense enough that the paper's protocols mix; isolated nodes
        // are patched by the sampler.
        // lint: allow(rng-stream-registry): the graph is part of the test fixture, not the run
        Topo::Er => Box::new(ErdosRenyi::sample(
            n,
            (32.0 / n as f64).min(1.0),
            Seed::new(99),
        )),
    }
}

/// A gossip rule, or `None` for the full Rapid protocol.
type Proto = Option<GossipRule>;

fn engine(topo: &Topo, proto: Proto, n: usize, workers: usize) -> ShardedSim {
    let counts = [3 * n as u64 / 5, n as u64 - 3 * n as u64 / 5];
    // lint: allow(panic-hygiene): fixed test inputs make the configuration valid by construction
    let config = Configuration::from_counts(&counts).expect("valid");
    let proto = match proto {
        None => AsyncProtocol::Rapid(Schedule::new(Params::for_network(n, 2))),
        Some(rule) => AsyncProtocol::Gossip(rule),
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

/// Runs to consensus (or the epoch cap) and hashes everything the run
/// decided: winner, epochs, steps, per-node colors, halt/jump counters.
fn run_hash(topo: &Topo, proto: Proto, n: usize, workers: usize) -> u64 {
    let mut sim = engine(topo, proto, n, workers);
    let winner = run_epochs(&mut sim, 1_000_000);
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

/// The golden pins: (protocol, topology, n) → FNV-1a of the final state.
/// Regenerate deliberately (print `run_hash(..)` at one worker) whenever
/// the engine's stream layout changes; every entry is also asserted
/// identical across 1, 2, 4 and 8 shards.
const GOLDEN: &[(&str, Proto, usize, u64)] = &[
    (
        "gossip-er",
        Some(GossipRule::TwoChoices),
        1 << 10,
        0x5fc3_79bb_db51_690a,
    ),
    (
        "gossip-clique",
        Some(GossipRule::TwoChoices),
        1 << 14,
        0x8fce_1527_afbe_235e,
    ),
    (
        "voter-er",
        Some(GossipRule::Voter),
        1 << 8,
        0x54f0_2ba8_1e56_b440,
    ),
    (
        "voter-clique",
        Some(GossipRule::Voter),
        1 << 8,
        0x612c_8bab_4568_9931,
    ),
    (
        "3-majority-er",
        Some(GossipRule::ThreeMajority),
        1 << 10,
        0x5785_9088_9eea_0c97,
    ),
    (
        "3-majority-clique",
        Some(GossipRule::ThreeMajority),
        1 << 14,
        0xba73_37a4_9f99_1f0f,
    ),
    ("rapid-clique", None, 1 << 10, 0x9921_e3ff_7d02_4d82),
    ("rapid-er", None, 1 << 14, 0xcc73_dd49_07e0_cfe3),
];

fn topo_of(label: &str) -> Topo {
    if label.ends_with("clique") {
        Topo::Clique
    } else {
        Topo::Er
    }
}

#[test]
fn shard_counts_one_two_four_eight_are_bit_identical() {
    for &(label, proto, n, _) in GOLDEN {
        let baseline = run_hash(&topo_of(label), proto, n, 1);
        for workers in [2, 4, 8] {
            let h = run_hash(&topo_of(label), proto, n, workers);
            assert_eq!(
                h, baseline,
                "{label} n={n}: {workers} shards diverged from 1 shard"
            );
        }
    }
}

#[test]
fn final_states_match_the_golden_pins() {
    for &(label, proto, n, golden) in GOLDEN {
        let h = run_hash(&topo_of(label), proto, n, 4);
        assert_eq!(
            h, golden,
            "{label} n={n}: outcome drifted from pin (got {h:#018x}); \
             if the engine's stream layout changed deliberately, update GOLDEN"
        );
    }
}

/// The PR's scale acceptance: the sharded micro engine completes a full
/// Rapid run at n = 10⁷ on a sparse Erdős–Rényi graph. Multi-minute in
/// release mode, so `--ignored`-gated; run as
/// `cargo test --release -p rapid-core --test sharding -- --ignored`.
#[test]
#[ignore = "multi-minute release-mode acceptance run at n = 10^7"]
fn rapid_completes_at_ten_million_on_er() {
    let n = 10_000_000usize;
    // Average degree 20 ≫ ln n ≈ 16: connected with overwhelming
    // probability, and sparse enough to build in seconds.
    // lint: allow(rng-stream-registry): the graph is part of the test fixture, not the run
    let g = ErdosRenyi::sample(n, 20.0 / n as f64, Seed::new(7));
    let counts = [
        n as u64 / 2 + n as u64 / 20,
        n as u64 - n as u64 / 2 - n as u64 / 20,
    ];
    // lint: allow(panic-hygiene): fixed test inputs make the configuration valid by construction
    let config = Configuration::from_counts(&counts).expect("valid");
    let proto = AsyncProtocol::Rapid(Schedule::new(Params::for_network(n, 2)));
    let mut sim = ShardedSim::new(Box::new(g), config, proto, Seed::new(0xACC), 1.0, 4);
    let winner = run_epochs(&mut sim, 100_000);
    assert_eq!(
        winner,
        Some(Color::new(0)),
        "initial 55/45 majority must win at n = 10^7 (epochs: {})",
        sim.epoch()
    );
}

#[test]
fn non_dividing_shard_counts_are_still_identical() {
    // 1000 % 7 != 0 and 1000 % 8 == 0 with unequal heads: both partitions
    // must reproduce the single-shard run exactly.
    let baseline = {
        let mut sim = engine(&Topo::Clique, Some(GossipRule::TwoChoices), 1000, 1);
        run_epochs(&mut sim, 1_000_000);
        sim.config().colors().to_vec()
    };
    for workers in [3, 7, 8] {
        let mut sim = engine(&Topo::Clique, Some(GossipRule::TwoChoices), 1000, workers);
        run_epochs(&mut sim, 1_000_000);
        assert_eq!(
            sim.config().colors(),
            &baseline[..],
            "{workers} shards over n=1000 diverged"
        );
    }
}
