//! The fault layer's contract, pinned:
//!
//! 1. **Zero-fault equivalence** — with every knob at its neutral value
//!    (and for the loss-0 / budget-0 edge cases), runs are *bit-identical*
//!    to runs without the fault axis, for both asynchronous engines and
//!    every clock model.
//! 2. **Edge cases are well-defined** — loss 1.0, a node that crashes
//!    before its first tick, churn rejoin mid-run, adversaries that
//!    exhaust their budget: each produces a deterministic, sensible
//!    [`Outcome`].
//! 3. **Seed determinism under faults** — faulty runs reproduce exactly
//!    from one master seed.

use rapid_core::facade::{Outcome, Sim, SimBuilder, StopCondition, StopReason};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::{AdversaryKind, AdversaryPlan, ChurnEvent, FaultPlan, LatencyModel};
use rapid_sim::prelude::*;

fn gossip_base(n: usize, counts: &[u64], seed: u64) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(n))
        .counts(counts)
        .gossip(GossipRule::TwoChoices)
        .seed(Seed::new(seed))
        .stop(StopCondition::StepBudget(5_000_000))
}

fn rapid_base(n: usize, counts: &[u64], seed: u64) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(n))
        .counts(counts)
        .rapid(Params::for_network(n, counts.len()))
        .seed(Seed::new(seed))
}

// ------------------------------------------------- zero-fault equivalence

/// Plans that must be invisible: fully neutral, explicit loss 0.0, and an
/// adversary with budget 0.
fn neutral_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::none().with_loss(0.0),
        FaultPlan::none().with_adversary(AdversaryPlan {
            kind: AdversaryKind::Adaptive,
            budget: 0,
            start: SimTime::ZERO,
            interval: 0.5,
        }),
    ]
}

#[test]
fn neutral_plans_are_bit_identical_for_gossip() {
    let clean: Outcome = gossip_base(128, &[90, 38], 5).build().expect("valid").run();
    for plan in neutral_plans() {
        let faulty = gossip_base(128, &[90, 38], 5)
            .faults(plan.clone())
            .build()
            .expect("valid")
            .run();
        assert_eq!(faulty, clean, "plan {plan:?} perturbed the run");
    }
}

#[test]
fn neutral_plans_are_bit_identical_for_rapid() {
    let clean: Outcome = rapid_base(128, &[80, 48], 6).build().expect("valid").run();
    for plan in neutral_plans() {
        let faulty = rapid_base(128, &[80, 48], 6)
            .faults(plan.clone())
            .build()
            .expect("valid")
            .run();
        assert_eq!(faulty, clean, "plan {plan:?} perturbed the run");
    }
}

#[test]
fn neutral_plan_is_bit_identical_under_every_clock_model() {
    for clock in [
        Clock::Sequential(TimeMode::Expected),
        Clock::Sequential(TimeMode::Sampled),
        Clock::EventQueue { rate: 1.0 },
        Clock::UniformSkew { skew: 0.4 },
    ] {
        let clean = gossip_base(100, &[80, 20], 10)
            .clock(clock.clone())
            .build()
            .expect("valid")
            .run();
        let faulty = gossip_base(100, &[80, 20], 10)
            .clock(clock.clone())
            .faults(FaultPlan::none())
            .build()
            .expect("valid")
            .run();
        assert_eq!(faulty, clean, "clock {clock:?}");
    }
}

// -------------------------------------------------------------- edge cases

#[test]
fn loss_one_freezes_every_opinion() {
    // Every message is lost: no node can ever complete an interaction, so
    // the initial histogram survives to the budget.
    let out = gossip_base(64, &[40, 24], 7)
        .stop(StopCondition::StepBudget(10_000))
        .faults(FaultPlan::none().with_loss(1.0))
        .build()
        .expect("valid")
        .run();
    assert_eq!(out.stop, StopReason::StepBudget);
    assert_eq!(out.final_counts, vec![40, 24]);
}

#[test]
fn loss_one_blocks_rapid_consensus_too() {
    let out = rapid_base(64, &[40, 24], 8)
        .faults(FaultPlan::none().with_loss(1.0))
        .build()
        .expect("valid")
        .run();
    assert_ne!(out.stop, StopReason::Unanimity);
    assert_eq!(out.final_counts, vec![40, 24]);
}

#[test]
fn node_crashed_before_first_tick_keeps_its_color_forever() {
    // Node 0 holds the minority color... actually colors are assigned in
    // count order: nodes 0..50 hold color 0, nodes 50..64 color 1. Crash a
    // color-1 node at time zero: it never answers, never updates, and its
    // color survives, so unanimity is impossible and the budget fires.
    let crashed = NodeId::new(60);
    let out = gossip_base(64, &[50, 14], 9)
        .stop(StopCondition::StepBudget(200_000))
        .faults(FaultPlan::none().with_churn(vec![ChurnEvent::crash(crashed, SimTime::ZERO)]))
        .build()
        .expect("valid")
        .run();
    assert_eq!(out.stop, StopReason::StepBudget);
    assert!(
        out.final_counts[1] >= 1,
        "the crashed node still counts with color 1: {:?}",
        out.final_counts
    );
}

#[test]
fn churn_rejoin_mid_run_still_converges() {
    // A quarter of the nodes are down during [1, 5); after rejoining they
    // hold stale opinions, and the dynamic must still finish.
    let n = 128;
    let churn: Vec<ChurnEvent> = (0..n / 4)
        .map(|i| {
            ChurnEvent::window(
                NodeId::new(i * 4),
                SimTime::from_secs(1.0),
                SimTime::from_secs(5.0),
            )
        })
        .collect();
    let out = gossip_base(n, &[96, 32], 11)
        .faults(FaultPlan::none().with_churn(churn))
        .build()
        .expect("valid")
        .run();
    assert_eq!(out.stop, StopReason::Unanimity);
    assert_eq!(out.winner, Some(Color::new(0)));
}

#[test]
fn adversary_with_exhausted_budget_only_delays_consensus() {
    // A small adaptive adversary harasses the leader early; once the
    // budget is spent the protocol finishes anyway.
    let plan = FaultPlan::none().with_adversary(AdversaryPlan {
        kind: AdversaryKind::Adaptive,
        budget: 20,
        start: SimTime::ZERO,
        interval: 0.05,
    });
    let out = gossip_base(128, &[100, 28], 12)
        .faults(plan)
        .build()
        .expect("valid")
        .run();
    assert_eq!(out.stop, StopReason::Unanimity);
    assert_eq!(out.winner, Some(Color::new(0)));
}

#[test]
fn oblivious_adversary_under_rapid_is_survivable() {
    let plan = FaultPlan::none().with_adversary(AdversaryPlan {
        kind: AdversaryKind::Oblivious,
        budget: 10,
        start: SimTime::from_secs(1.0),
        interval: 0.5,
    });
    let out = rapid_base(256, &[170, 86], 13)
        .faults(plan)
        .build()
        .expect("valid")
        .run();
    // Ten random corruptions on n = 256 cannot stop Theorem 1.3.
    assert_eq!(out.stop, StopReason::Unanimity);
}

#[test]
fn adversary_created_unanimity_is_detected_at_the_strike_tick() {
    // Under loss 1.0 no protocol action can recolor a node (Two-Choices
    // samples and Bit-Propagation pulls are all voided, so commits never
    // have an intermediate color), meaning every color change comes from
    // an adversary strike — which happens *outside* any color-changing
    // Action. The engine's O(1) unanimity fast path is gated on
    // `Action::changes_color`; it must also fire on strike ticks, or
    // strike-created unanimity is reported late (wrong time/steps) or,
    // past the halt wave, not at all.
    for seed in [0u64, 1, 2, 9] {
        let mk = || {
            let plan = FaultPlan::none()
                .with_loss(1.0)
                .with_adversary(AdversaryPlan {
                    kind: AdversaryKind::Oblivious,
                    budget: 1_000_000,
                    start: SimTime::ZERO,
                    interval: 0.01,
                });
            rapid_base(8, &[5, 3], seed)
                .faults(plan)
                .stop(StopCondition::StepBudget(1_000_000))
                .build()
                .expect("valid")
        };
        // Drive a probe copy tick by tick to find the exact step at which
        // the strikes first produce unanimity.
        let mut probe = mk();
        let created_at = loop {
            probe.step();
            if probe.config().unanimous().is_some() {
                break probe.steps();
            }
        };
        // The run loop, which checks unanimity in batches, must report it
        // at that very step.
        let out = mk().run_to_consensus().expect("detected");
        assert_eq!(
            out.steps, created_at,
            "seed {seed}: unanimity created at step {created_at} but reported at {}",
            out.steps
        );
    }
}

#[test]
fn latency_and_loss_compose_with_the_builder() {
    let plan = FaultPlan::none()
        .with_loss(0.1)
        .with_latency(LatencyModel::Pareto {
            scale: 0.05,
            shape: 2.0,
        });
    let out = gossip_base(128, &[100, 28], 14)
        .faults(plan)
        .build()
        .expect("valid")
        .run();
    assert_eq!(out.stop, StopReason::Unanimity);
    assert_eq!(out.winner, Some(Color::new(0)));
}

// --------------------------------------------------------- builder errors

#[test]
fn invalid_fault_plans_are_typed_errors() {
    let err = gossip_base(8, &[4, 4], 1)
        .faults(FaultPlan::none().with_loss(1.5))
        .build()
        .expect_err("loss out of range");
    assert!(matches!(err, BuildError::Faults(_)), "got {err:?}");
    assert!(err.to_string().contains("loss"));

    let err = gossip_base(8, &[4, 4], 1)
        .faults(
            FaultPlan::none().with_churn(vec![ChurnEvent::crash(NodeId::new(99), SimTime::ZERO)]),
        )
        .build()
        .expect_err("churn node out of range");
    assert!(matches!(err, BuildError::Faults(_)), "got {err:?}");
}

#[test]
fn non_neutral_faults_reject_synchronous_protocols() {
    let err = Sim::builder()
        .topology(Complete::new(16))
        .counts(&[8, 8])
        .protocol(GossipRule::TwoChoices)
        .faults(FaultPlan::none().with_loss(0.1))
        .build()
        .expect_err("faults are an async-model feature");
    assert_eq!(err, BuildError::FaultsRequireAsync);

    // A neutral plan is fine on a synchronous protocol: it is dropped.
    let out = Sim::builder()
        .topology(Complete::new(100))
        .counts(&[70, 30])
        .protocol(GossipRule::TwoChoices)
        .faults(FaultPlan::none())
        .seed(Seed::new(2))
        .build()
        .expect("neutral plan is a no-op")
        .run();
    assert_eq!(out.stop, StopReason::Unanimity);
}

// ------------------------------------------------------- seed determinism

#[test]
fn faulty_runs_are_seed_deterministic() {
    let plan = || {
        FaultPlan::none()
            .with_loss(0.2)
            .with_latency(LatencyModel::Uniform { lo: 0.0, hi: 0.5 })
            .with_churn(vec![ChurnEvent::window(
                NodeId::new(3),
                SimTime::from_secs(1.0),
                SimTime::from_secs(4.0),
            )])
            .with_adversary(AdversaryPlan {
                kind: AdversaryKind::Oblivious,
                budget: 16,
                start: SimTime::from_secs(0.5),
                interval: 0.25,
            })
    };
    let run = |seed: u64| {
        gossip_base(64, &[44, 20], seed)
            .faults(plan())
            .build()
            .expect("valid")
            .run()
    };
    assert_eq!(run(21), run(21), "same seed, same faulty run");
    assert_ne!(
        run(21).steps,
        run(22).steps,
        "different seeds should explore different fault realisations"
    );

    let rapid_run = |seed: u64| {
        rapid_base(128, &[80, 48], seed)
            .faults(plan())
            .build()
            .expect("valid")
            .run()
    };
    assert_eq!(rapid_run(23), rapid_run(23));

    // Golden pins (winner, steps, consensus-time bits): the loss, churn
    // and adversary paths must not only repeat, they must repeat what
    // they computed when these values were recorded.
    for (label, out, steps, time_bits) in [
        ("gossip seed 21", run(21), 519, 0x4020_9223_2aa3_dae5),
        ("gossip seed 22", run(22), 616, 0x4023_b934_9e18_44ee),
        (
            "rapid seed 23",
            rapid_run(23),
            41_177,
            0x4074_1f27_de31_253a,
        ),
    ] {
        assert_eq!(out.stop, StopReason::Unanimity, "{label}");
        assert_eq!(out.winner, Some(Color::new(0)), "{label}: winner");
        assert_eq!(out.steps, steps, "{label}: steps");
        assert_eq!(
            out.time.map(|t| t.as_secs().to_bits()),
            Some(time_bits),
            "{label}: consensus time"
        );
    }
}
