//! The three build entry points: `build()` for the micro engines,
//! `build_macro()` for the macro and mean-field engines and `build_net()`
//! for the deployment.
//!
//! Each entry point validates the shared axes the same way, so a
//! kind-independent error is the same error everywhere, and each carries
//! the assembly into its own artifact. Kind mismatches are pinned per
//! entry point in the umbrella crate's `tests/builder_contract.rs`.

use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;

fn builder(n: usize, kind: EngineKind) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(n))
        .counts(&[3 * n as u64 / 4, n as u64 - 3 * n as u64 / 4])
        .gossip(GossipRule::TwoChoices)
        .seed(Seed::new(11))
        .engine(kind)
}

/// Builds through the entry point for `entry`'s kind, reporting only the
/// error.
fn build_via(entry: EngineKind, builder: SimBuilder) -> Result<(), BuildError> {
    match entry {
        EngineKind::Micro => builder.build().map(drop),
        EngineKind::Macro | EngineKind::MeanField => builder.build_macro().map(drop),
        EngineKind::Net => builder.build_net().map(drop),
    }
}

const KINDS: [EngineKind; 4] = [
    EngineKind::Micro,
    EngineKind::Macro,
    EngineKind::MeanField,
    EngineKind::Net,
];

#[test]
fn build_macro_yields_both_macro_kinds() {
    for kind in [EngineKind::Macro, EngineKind::MeanField] {
        let spec = builder(1000, kind).build_macro().expect("build_macro");
        assert_eq!(spec.kind, kind);
        assert_eq!(spec.n, 1000);
        assert_eq!(spec.counts, vec![750, 250]);
    }
}

#[test]
fn build_net_yields_the_deployment_spec() {
    let spec = builder(64, EngineKind::Net).build_net().expect("build_net");
    assert_eq!(spec.topology.n(), 64);
    assert_eq!(spec.config.n(), 64);
    assert_eq!(spec.seed, Seed::new(11));
    assert!(spec.stops.is_empty());
}

#[test]
fn every_entry_point_reports_kind_independent_validation_errors() {
    // A missing protocol fails identically for every engine kind.
    for kind in KINDS {
        let err = build_via(
            kind,
            Sim::builder()
                .topology(Complete::new(16))
                .counts(&[12, 4])
                .engine(kind),
        )
        .expect_err("no protocol");
        assert_eq!(err, BuildError::MissingProtocol, "{kind:?}");
    }
}

#[test]
fn build_remains_micro_only() {
    for kind in [EngineKind::Macro, EngineKind::MeanField, EngineKind::Net] {
        let err = builder(64, kind).build().expect_err("non-micro via build");
        assert!(matches!(err, BuildError::EngineMismatch(_)), "{err}");
    }
}
