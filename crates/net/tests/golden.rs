//! Golden pins for channel deployments.
//!
//! The channel driver is single-threaded and deterministic, so a whole
//! deployment run is a function of its seed. These pins hash what a run
//! decided (winner, steps and time at unanimity, total steps, final
//! counts) and what it put on the wire (frames sent, bytes encoded). A
//! change to the machine, codec, transport or driver that alters one
//! decision or one frame fails here, and must update the pin
//! deliberately.

use std::sync::Arc;

use rapid_core::facade::{EngineKind, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_net::Cluster;
use rapid_obs::Obs;
use rapid_sim::prelude::*;

/// FNV-1a over a byte stream: stable, dependency-free, endian-fixed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const N: usize = 1 << 10;

/// A gossip rule, or `None` for the full Rapid protocol.
type Proto = Option<GossipRule>;

fn cluster(proto: Proto, seed: u64) -> Cluster {
    let counts = [3 * N as u64 / 5, N as u64 - 3 * N as u64 / 5];
    let builder = Sim::builder()
        .topology(Complete::new(N))
        .counts(&counts)
        .engine(EngineKind::Net)
        .seed(Seed::new(seed));
    let builder = match proto {
        None => builder.rapid(Params::for_network_with_eps(N, 2, 0.5)),
        Some(rule) => builder.gossip(rule),
    };
    Cluster::from_builder(builder).expect("valid net assembly")
}

/// Runs one deployment to termination and hashes its outcome and its
/// wire totals.
fn run_hash(proto: Proto, seed: u64) -> u64 {
    let obs = Obs::new();
    let mut c = cluster(proto, seed);
    c.attach_obs(Arc::clone(&obs));
    let run = c.run_channel();
    let snap = obs.registry.snapshot();
    let out = &run.outcome;
    // A pin of a run that never converged would guard little.
    assert_eq!(out.stop, StopReason::Unanimity, "{out:?}");
    assert_eq!(run.dropped_frames + run.decode_errors, 0);
    let mut h = Fnv::new();
    h.push_u64(out.winner.map_or(u64::MAX, |c| c.index() as u64));
    h.push_u64(out.steps);
    h.push_u64(out.time.map_or(u64::MAX, |t| t.as_secs().to_bits()));
    h.push_u64(run.total_steps);
    for &count in &out.final_counts {
        h.push_u64(count);
    }
    h.push_u64(snap.get_counter("net.transport.sends").unwrap_or(0));
    h.push_u64(snap.get_counter("net.codec.bytes_out").unwrap_or(0));
    h.0
}

/// The golden pins: (label, protocol, seed) → FNV-1a of the run.
/// Regenerate deliberately (print `run_hash(..)`) only when a change is
/// meant to alter what a deployment computes or sends.
const GOLDEN: &[(&str, Proto, u64, u64)] = &[
    (
        "two-choices",
        Some(GossipRule::TwoChoices),
        0x60D5,
        0x3e23_25de_9cc7_1c94,
    ),
    (
        "voter",
        Some(GossipRule::Voter),
        0x70E5,
        0x5141_de04_839c_825e,
    ),
    (
        "3-majority",
        Some(GossipRule::ThreeMajority),
        0x3A70,
        0x4e2f_cd64_61a1_2123,
    ),
    ("rapid", None, 0x7A9D, 0xc628_9065_ddb9_91f6),
];

#[test]
fn channel_deployments_match_the_golden_pins() {
    let drifted: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(label, proto, seed, golden)| {
            let h = run_hash(proto, seed);
            (h != golden).then(|| format!("{label} seed={seed:#x}: got {h:#018x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "n={N} deployments drifted from their pins ({}); \
         if the runs are meant to change, update GOLDEN",
        drifted.join(", ")
    );
}
