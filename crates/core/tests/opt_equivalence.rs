//! Pins asynchronous simulation outcomes across the hot-path optimizations.
//!
//! The sequential engine's run loop replaced its per-tick O(k)
//! unanimity scan with a single histogram lookup on the ticked node's
//! color, gated on the tick's action, and the schedulers underneath were
//! optimized (in-place heap root replacement, precomputed expected gap).
//! None of these may change a
//! simulation result: the golden values below — winner, step count, and
//! the exact bit pattern of the consensus time — were captured from the
//! pre-optimization code, and every path (sequential and event-queue
//! clocks, halt budgets, the full Rapid protocol) must still reproduce
//! them exactly. The synchronous rules are pinned the same way, by their
//! whole per-round trace.

use rapid_core::facade::{Clock, Sim, StopCondition};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::{AdversaryKind, AdversaryPlan, FaultPlan};
use rapid_sim::prelude::*;

struct Golden {
    rule: GossipRule,
    counts: &'static [u64],
    seed: u64,
    event_queue: bool,
    winner: usize,
    steps: u64,
    time_bits: u64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        rule: GossipRule::TwoChoices,
        counts: &[400, 100],
        seed: 1,
        event_queue: false,
        winner: 0,
        steps: 3662,
        time_bits: 0x401d_4bc6_a7ef_9b20,
    },
    Golden {
        rule: GossipRule::TwoChoices,
        counts: &[400, 100],
        seed: 2,
        event_queue: true,
        winner: 0,
        steps: 2828,
        time_bits: 0x4017_370f_7c03_5e22,
    },
    Golden {
        rule: GossipRule::Voter,
        counts: &[60, 40],
        seed: 3,
        event_queue: false,
        winner: 0,
        steps: 3732,
        time_bits: 0x4042_a8f5_c28f_5cca,
    },
    Golden {
        rule: GossipRule::ThreeMajority,
        counts: &[300, 100, 100],
        seed: 4,
        event_queue: true,
        winner: 0,
        steps: 3627,
        time_bits: 0x401d_b757_2116_5651,
    },
];

#[test]
fn gossip_outcomes_match_pre_optimization_goldens() {
    for g in GOLDENS {
        let mut b = Sim::builder()
            .topology(Complete::new(g.counts.iter().sum::<u64>() as usize))
            .counts(g.counts)
            .gossip(g.rule)
            .seed(Seed::new(g.seed))
            .stop(StopCondition::StepBudget(50_000_000));
        if g.event_queue {
            b = b.clock(Clock::EventQueue { rate: 1.0 });
        }
        let out = b
            .build()
            .expect("valid")
            .run_to_consensus()
            .expect("converges");
        let label = format!("{} seed={} eq={}", g.rule, g.seed, g.event_queue);
        assert_eq!(out.winner, Some(Color::new(g.winner)), "{label}: winner");
        assert_eq!(out.steps, g.steps, "{label}: steps");
        assert_eq!(
            out.time.map(|t| t.as_secs().to_bits()),
            Some(g.time_bits),
            "{label}: consensus time"
        );
    }
}

#[test]
fn gossip_with_halt_budget_matches_golden() {
    let mut sim = Sim::builder()
        .topology(Complete::new(2000))
        .counts(&[1900, 100])
        .gossip(GossipRule::TwoChoices)
        .halt_after(100)
        .seed(Seed::new(9))
        .stop(StopCondition::StepBudget(50_000_000))
        .build()
        .expect("valid");
    let out = sim.run_to_consensus().expect("converges");
    assert_eq!(out.winner, Some(Color::new(0)));
    assert_eq!(out.steps, 11_423);
    assert_eq!(
        out.time.map(|t| t.as_secs().to_bits()),
        Some(0x4016_d893_74bc_6889)
    );
    assert_eq!(sim.halted_count(), Some(0));
    assert_eq!(sim.first_halt(), None);
}

#[test]
fn rapid_on_event_queue_matches_golden() {
    let counts = [472u64, 200, 200, 152];
    let params = Params::for_network(1024, 4);
    let out = Sim::builder()
        .topology(Complete::new(1024))
        .counts(&counts)
        .rapid(params)
        .clock(Clock::EventQueue { rate: 1.0 })
        .seed(Seed::new(5))
        .build()
        .expect("valid")
        .run()
        .as_rapid()
        .expect("converges");
    assert_eq!(out.winner.index(), 0);
    assert_eq!(out.steps, 295_105);
    assert_eq!(out.time.as_secs().to_bits(), 0x4071_ff64_354a_a829);
    assert!(out.before_first_halt);
}

/// A synchronous rule on `K_n`: winner, rounds and an FNV-1a hash of the
/// per-round `(c1, c2, support)` trace.
struct SyncGolden {
    rule: GossipRule,
    counts: &'static [u64],
    seed: u64,
    winner: usize,
    rounds: u64,
    trace_hash: u64,
}

const SYNC_GOLDENS: &[SyncGolden] = &[
    SyncGolden {
        rule: GossipRule::Voter,
        counts: &[60, 40],
        seed: 11,
        winner: 0,
        rounds: 31,
        trace_hash: 0xad1a_b2ec_8d0d_8986,
    },
    SyncGolden {
        rule: GossipRule::TwoChoices,
        counts: &[300, 200, 100],
        seed: 12,
        winner: 0,
        rounds: 9,
        trace_hash: 0x41c7_5c72_84e2_85e8,
    },
    SyncGolden {
        rule: GossipRule::ThreeMajority,
        counts: &[300, 200, 100],
        seed: 13,
        winner: 0,
        rounds: 8,
        trace_hash: 0x0889_aadf_53fa_4e33,
    },
];

#[test]
fn sync_rule_traces_match_goldens() {
    for g in SYNC_GOLDENS {
        let mut trace = RoundTrace::default();
        let out = Sim::builder()
            .topology(Complete::new(g.counts.iter().sum::<u64>() as usize))
            .counts(g.counts)
            .protocol(g.rule)
            .seed(Seed::new(g.seed))
            .stop(StopCondition::RoundBudget(1_000_000))
            .build()
            .expect("valid")
            .run_observed(&mut trace)
            .as_sync()
            .expect("converges");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = trace.c1.iter().chain(&trace.c2).copied();
        for v in words.chain(trace.support.iter().map(|&s| s as u64)) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(out.winner.index(), g.winner, "{:?}: winner", g.rule);
        assert_eq!(out.rounds, g.rounds, "{:?}: rounds", g.rule);
        assert_eq!(
            h, g.trace_hash,
            "{:?}: per-round trace (got {h:#018x})",
            g.rule
        );
    }
}

/// The sequential engine's action-gated O(1) unanimity check must agree
/// with the full O(k) scan after every tick, for every rule, clean and
/// under faults: `run_batch` looks for unanimity only after a tick whose
/// action reports [`Action::changes_color`] or an adversary strike. So
/// every tick that reports neither must leave the histogram unchanged,
/// and on every tick the gated check must equal the scan.
#[test]
fn fast_unanimity_detector_agrees_with_full_scan_stepwise() {
    let n = 200;
    let adversary = AdversaryPlan {
        kind: AdversaryKind::Oblivious,
        budget: 40,
        start: SimTime::from_secs(1.0),
        interval: 0.5,
    };
    let faulty = FaultPlan::none().with_loss(0.1).with_adversary(adversary);
    // Each gossip rule's halt budget freezes some nodes (their ticks
    // report `Halt`) before the faulty run still reaches unanimity, so
    // every case checks the gate on frozen ticks and on a unanimity tick.
    let rules = [
        (Some(GossipRule::Voter), 134),
        (Some(GossipRule::TwoChoices), 13),
        (Some(GossipRule::ThreeMajority), 23),
        (None, 0),
    ];
    for (rule, halt_after) in rules {
        for faults in [false, true] {
            let mut b = Sim::builder()
                .topology(Complete::new(n))
                .counts(&[120, 50, 30])
                .seed(Seed::new(21));
            b = match rule {
                Some(rule) => b.gossip(rule),
                None => b.rapid(Params::for_network(n, 3)),
            };
            if faults {
                b = b.faults(faulty.clone());
                if rule.is_some() {
                    b = b.halt_after(halt_after);
                }
            }
            let sim = b.build().expect("valid");
            let budget = sim.default_budget();
            let mut sim = match rule {
                Some(_) => sim.into_gossip().expect("gossip"),
                None => sim.into_rapid().expect("rapid"),
            };
            let label = format!("{rule:?} faults={faults}");
            let (mut frozen, mut unanimous) = (0u64, false);
            while sim.steps() < budget && sim.halted_count() < n {
                let before = sim.config().counts().as_slice().to_vec();
                let (a, action) = sim.tick();
                frozen += u64::from(action == Action::Halt);
                let gated = action.changes_color() || sim.adversary_struck();
                if !gated {
                    assert_eq!(
                        sim.config().counts().as_slice(),
                        &before[..],
                        "{label}: step {} recolored under {action:?}",
                        sim.steps()
                    );
                }
                let cu = sim.config().color(a.node);
                let fast = gated && sim.config().counts().count(cu) == n as u64;
                unanimous = sim.config().unanimous().is_some();
                assert_eq!(fast, unanimous, "{label}: step {}", sim.steps());
                if unanimous {
                    break;
                }
            }
            assert!(unanimous, "{label}: no unanimity within the budget");
            assert_eq!(
                frozen > 0,
                faults && rule.is_some(),
                "{label}: {frozen} frozen ticks"
            );
        }
    }
}
