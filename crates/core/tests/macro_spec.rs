//! The engine axis: `build()` vs `build_macro()` and the macro-specific
//! validation rules (complete topology, exchangeable clocks, loss-only
//! faults).

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::fault::{AdversaryKind, AdversaryPlan, ChurnEvent, FaultPlan, LatencyModel};
use rapid_sim::prelude::*;

fn gossip_builder(n: usize) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(n))
        .counts(&[3 * n as u64 / 4, n as u64 - 3 * n as u64 / 4])
        .gossip(GossipRule::TwoChoices)
        .seed(Seed::new(1))
}

fn macro_spec(builder: SimBuilder) -> Result<MacroSpec, BuildError> {
    builder.build_macro()
}

#[test]
fn micro_is_the_default_and_macro_kinds_are_rejected_by_build() {
    assert!(gossip_builder(100).build().is_ok());
    assert!(gossip_builder(100)
        .engine(EngineKind::Micro)
        .build()
        .is_ok());
    for kind in [EngineKind::Macro, EngineKind::MeanField] {
        let err = gossip_builder(100).engine(kind).build().expect_err("macro");
        assert!(matches!(err, BuildError::EngineMismatch(_)), "{err}");
    }
}

#[test]
fn macro_spec_carries_the_assembly() {
    let spec = macro_spec(
        gossip_builder(1000)
            .engine(EngineKind::Macro)
            .clock(Clock::EventQueue { rate: 2.0 })
            .faults(FaultPlan::none().with_loss(0.1))
            .stop(StopCondition::StepBudget(123)),
    )
    .expect("valid macro assembly");
    assert_eq!(spec.kind, EngineKind::Macro);
    assert_eq!(spec.n, 1000);
    assert_eq!(spec.counts, vec![750, 250]);
    assert_eq!(spec.k(), 2);
    assert_eq!(spec.protocol.name(), "async-two-choices");
    assert_eq!(spec.rate, 2.0);
    assert_eq!(spec.loss, 0.1);
    assert_eq!(spec.stops, vec![StopCondition::StepBudget(123)]);
}

#[test]
fn macro_spec_materialises_distributions_without_per_node_state() {
    // n = 10⁹: would be gigabytes as a per-node Configuration; the spec
    // path must stay O(k).
    let spec = macro_spec(
        Sim::builder()
            .topology(Complete::new(1_000_000_000))
            .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
            .rapid(Params::for_network_with_eps(1_000_000_000, 4, 0.5))
            .engine(EngineKind::Macro),
    )
    .expect("valid at n = 1e9");
    assert_eq!(spec.n, 1_000_000_000);
    assert_eq!(spec.counts.iter().sum::<u64>(), 1_000_000_000);
    assert_eq!(spec.protocol.name(), "rapid");
}

#[test]
fn macro_requires_the_complete_graph() {
    let err = macro_spec(
        Sim::builder()
            .topology(Cycle::new(100))
            .counts(&[75, 25])
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::Macro),
    )
    .expect_err("cycle has no mean-field semantics");
    assert_eq!(err, BuildError::MacroRequiresComplete);
}

#[test]
fn macro_rejects_sync_protocols_and_halt_budgets() {
    let err = macro_spec(
        Sim::builder()
            .topology(Complete::new(100))
            .counts(&[75, 25])
            .protocol(GossipRule::TwoChoices)
            .engine(EngineKind::Macro),
    )
    .expect_err("sync protocol");
    assert!(matches!(err, BuildError::MacroUnsupported(_)), "{err}");

    let err = macro_spec(gossip_builder(100).halt_after(50).engine(EngineKind::Macro))
        .expect_err("halt budget");
    assert!(matches!(err, BuildError::MacroUnsupported(_)), "{err}");
}

#[test]
fn macro_rejects_non_exchangeable_clocks_and_jitter() {
    for clock in [
        Clock::UniformSkew { skew: 0.3 },
        Clock::Rates(vec![1.0; 100]),
    ] {
        let err = macro_spec(gossip_builder(100).engine(EngineKind::Macro).clock(clock))
            .expect_err("heterogeneous clock");
        assert!(matches!(err, BuildError::MacroUnsupported(_)), "{err}");
    }
    let err =
        macro_spec(gossip_builder(100).engine(EngineKind::Macro).jitter(2.0)).expect_err("jitter");
    assert!(matches!(err, BuildError::MacroUnsupported(_)), "{err}");
    // Invalid knobs still surface as their own errors, not as unsupported.
    let err = macro_spec(
        gossip_builder(100)
            .engine(EngineKind::Macro)
            .clock(Clock::EventQueue { rate: -1.0 }),
    )
    .expect_err("bad rate");
    assert!(matches!(err, BuildError::InvalidClock(_)), "{err}");
}

#[test]
fn macro_faults_compose_for_loss_only() {
    // Loss composes.
    assert!(macro_spec(
        gossip_builder(100)
            .engine(EngineKind::Macro)
            .faults(FaultPlan::none().with_loss(0.2))
    )
    .is_ok());
    // A fully neutral plan is fine too.
    let spec = macro_spec(
        gossip_builder(100)
            .engine(EngineKind::Macro)
            .faults(FaultPlan::none()),
    )
    .expect("neutral plan");
    assert_eq!(spec.loss, 0.0);
    // Latency, churn and adversaries have no count-level semantics.
    let latency = FaultPlan::none().with_latency(LatencyModel::Exponential { rate: 2.0 });
    let churn = FaultPlan::none().with_churn(vec![ChurnEvent::crash(
        NodeId::new(3),
        SimTime::from_secs(1.0),
    )]);
    let adversary = FaultPlan::none().with_adversary(AdversaryPlan {
        kind: AdversaryKind::Oblivious,
        budget: 5,
        start: SimTime::ZERO,
        interval: 1.0,
    });
    for plan in [latency, churn, adversary] {
        let err = macro_spec(gossip_builder(100).engine(EngineKind::Macro).faults(plan))
            .expect_err("per-node fault knob");
        assert!(matches!(err, BuildError::MacroUnsupported(_)), "{err}");
    }
    // Invalid plans are still typed fault errors.
    let err = macro_spec(
        gossip_builder(100)
            .engine(EngineKind::Macro)
            .faults(FaultPlan::none().with_loss(1.5)),
    )
    .expect_err("bad loss");
    assert!(matches!(err, BuildError::Faults(_)), "{err}");
}

#[test]
fn macro_size_mismatch_is_detected() {
    let err = macro_spec(
        Sim::builder()
            .topology(Complete::new(100))
            .counts(&[75, 20])
            .gossip(GossipRule::Voter)
            .engine(EngineKind::MeanField),
    )
    .expect_err("95 != 100");
    assert!(matches!(err, BuildError::SizeMismatch { .. }), "{err}");
}

#[test]
fn engine_kind_labels_are_stable() {
    assert_eq!(EngineKind::Micro.label(), "micro");
    assert_eq!(EngineKind::Macro.label(), "macro");
    assert_eq!(EngineKind::MeanField.label(), "mean-field");
    assert_eq!(EngineKind::default(), EngineKind::Micro);
}
