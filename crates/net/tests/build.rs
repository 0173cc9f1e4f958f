//! Build-time contract: the builder rejects every axis a real
//! deployment cannot honor, with a typed error naming the axis.

use rapid_core::facade::{BuildError, EngineKind, NetSpec, Sim, SimBuilder, StopCondition};
use rapid_core::{Clock, GossipRule};
use rapid_graph::complete::Complete;
use rapid_net::Cluster;
use rapid_sim::fault::FaultPlan;
use rapid_sim::rng::Seed;
use rapid_sim::scheduler::TimeMode;
use rapid_sim::time::SimTime;

fn base() -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(64))
        .counts(&[40, 24])
        .gossip(GossipRule::TwoChoices)
        .engine(EngineKind::Net)
        .seed(Seed::new(3))
}

fn net_spec(builder: SimBuilder) -> Result<NetSpec, BuildError> {
    builder.build_net()
}

#[test]
fn net_specs_build_for_gossip_and_rapid() {
    assert!(net_spec(base()).is_ok());
    let params = rapid_core::asynchronous::Params::for_network_with_eps(64, 2, 0.5);
    assert!(net_spec(base().rapid(params)).is_ok());
}

#[test]
fn kind_mismatches_stay_typed_errors() {
    // The micro-only entry point rejects the net engine...
    let err = base().build().unwrap_err();
    assert!(matches!(err, BuildError::EngineMismatch(_)), "{err}");
    // ...and the cluster front door rejects non-net assemblies.
    match Cluster::from_builder(base().engine(EngineKind::Micro)) {
        Err(err) => assert!(matches!(err, BuildError::EngineMismatch(_)), "{err}"),
        Ok(_) => panic!("micro assembly must not boot a cluster"),
    }
}

#[test]
fn synchronous_protocols_are_unsupported() {
    let err = net_spec(base().protocol(GossipRule::TwoChoices)).unwrap_err();
    assert!(matches!(err, BuildError::NetUnsupported(_)), "{err}");
    assert!(err.to_string().contains("synchronous"), "{err}");
}

#[test]
fn modeled_axes_are_unsupported_with_named_reasons() {
    let cases: Vec<(SimBuilder, &str)> = vec![
        (base().faults(FaultPlan::none().with_loss(0.1)), "fault"),
        (base().jitter(2.0), "jitter"),
        (base().clock(Clock::UniformSkew { skew: 0.5 }), "clock"),
        (base().halt_after(100), "halt"),
        (base().stop(StopCondition::FirstHalt), "first-halt"),
        (base().stop(StopCondition::RoundBudget(5)), "round"),
    ];
    for (builder, what) in cases {
        let err = net_spec(builder).unwrap_err();
        assert!(
            matches!(err, BuildError::NetUnsupported(_)),
            "{what}: {err}"
        );
        assert!(err.to_string().contains(what), "{what}: {err}");
    }
}

#[test]
fn invalid_jitter_is_still_the_jitter_error() {
    let err = net_spec(base().jitter(-1.0)).unwrap_err();
    assert!(matches!(err, BuildError::InvalidJitter(_)), "{err}");
}

#[test]
fn neutral_faults_and_supported_stops_pass() {
    let spec = net_spec(
        base()
            .faults(FaultPlan::none())
            .stop(StopCondition::StepBudget(10_000))
            .stop(StopCondition::TimeHorizon(SimTime::from_secs(50.0)))
            .clock(Clock::Sequential(TimeMode::Expected)),
    )
    .expect("neutral axes are fine");
    assert_eq!(spec.n(), 64);
    assert_eq!(spec.k(), 2);
    let cluster = Cluster::from_spec(spec);
    assert_eq!(cluster.n(), 64);
}
