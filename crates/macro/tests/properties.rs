//! The macro subsystem's acceptance properties.
//!
//! The headline (ISSUE 5 / experiment E20): micro vs macro occupancy
//! trajectories agree within bootstrap CIs at `n ∈ {2¹⁰, 2¹⁴}` for both
//! the gossip and rapid protocols, and zero-fault macro runs are
//! bit-reproducible from a single seed.

use rapid_core::facade::{EngineKind, MacroProtocol, Sim};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_macro::prelude::*;
use rapid_sim::rng::Seed;

fn biased_counts(n: u64, k: usize, eps: f64) -> Vec<u64> {
    let c = (n as f64 / (k as f64 + eps)).floor() as u64;
    let mut counts = vec![c; k];
    counts[0] = n - c * (k as u64 - 1);
    counts
}

fn check_agreement(n: u64, protocol: MacroProtocol) {
    let counts = biased_counts(n, 2, 0.5);
    let report = cross_validate(&CrossValConfig::new(n, counts, protocol));
    assert!(
        report.all_agree(),
        "micro/macro disagree at n = {n} for {}: max TV {:.4}, checkpoints: {:#?}",
        protocol.name(),
        report.max_tv(),
        report
            .checkpoints
            .iter()
            .map(|c| (c.time, c.tv, c.agree))
            .collect::<Vec<_>>()
    );
    // Total variation between the mean occupancy vectors stays small in
    // absolute terms, too (bootstrap overlap alone could hide a drifting
    // mean behind wide intervals).
    assert!(
        report.max_tv() < 0.08,
        "TV too large at n = {n} for {}: {:.4}",
        protocol.name(),
        report.max_tv()
    );
}

#[test]
fn micro_macro_agreement_gossip_n_2_10() {
    check_agreement(1 << 10, MacroProtocol::Gossip(GossipRule::TwoChoices));
}

#[test]
fn micro_macro_agreement_gossip_n_2_14() {
    check_agreement(1 << 14, MacroProtocol::Gossip(GossipRule::TwoChoices));
}

#[test]
fn micro_macro_agreement_rapid_n_2_10() {
    let params = Params::for_network_with_eps(1 << 10, 2, 0.5);
    check_agreement(1 << 10, MacroProtocol::Rapid(params));
}

#[test]
fn micro_macro_agreement_rapid_n_2_14() {
    let params = Params::for_network_with_eps(1 << 14, 2, 0.5);
    check_agreement(1 << 14, MacroProtocol::Rapid(params));
}

#[test]
fn micro_macro_agreement_gossip_tau_leap_forced() {
    // The leap path is what the n = 10⁸–10⁹ claims actually execute;
    // validate it against micro directly (not just against exact mode).
    // n = 2¹⁶: trajectories concentrate, so the CIs have real power.
    let n = 1u64 << 16;
    let mut cfg = CrossValConfig::new(
        n,
        biased_counts(n, 2, 0.5),
        MacroProtocol::Gossip(GossipRule::TwoChoices),
    );
    cfg.trials = 6;
    cfg.mode = MacroMode::TauLeap;
    let report = cross_validate(&cfg);
    assert!(
        report.all_agree(),
        "micro vs forced-tau-leap disagree: max TV {:.4}, checkpoints: {:#?}",
        report.max_tv(),
        report
            .checkpoints
            .iter()
            .map(|c| (c.time, c.tv, c.agree))
            .collect::<Vec<_>>()
    );
    assert!(
        report.max_tv() < 0.08,
        "TV too large: {:.4}",
        report.max_tv()
    );
}

#[test]
fn zero_fault_macro_runs_are_bit_reproducible() {
    for protocol in [
        MacroProtocol::Gossip(GossipRule::TwoChoices),
        MacroProtocol::Rapid(Params::for_network_with_eps(1 << 12, 4, 0.5)),
    ] {
        let run = || {
            let builder = Sim::builder()
                .topology(Complete::new(1 << 12))
                .counts(&biased_counts(1 << 12, 4, 0.5))
                .engine(EngineKind::Macro)
                .seed(Seed::new(0xBEEF))
                .select(protocol.into());
            let mut trace = Vec::new();
            let out = MacroSim::from_builder(builder)
                .expect("valid")
                .run_traced(|t, c| trace.push((t, c.to_vec())));
            (out, trace)
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b, "{}: outcomes differ", protocol.name());
        assert_eq!(ta, tb, "{}: traces differ", protocol.name());
    }
}

#[test]
fn attaching_obs_never_changes_a_macro_outcome() {
    // The observability flush happens after each batch's RNG draws and
    // touches no stream itself, so the instrumented run must be
    // byte-identical to the bare one — and the regime counters must add
    // up to every batch the engine took.
    use std::sync::Arc;

    for protocol in [
        MacroProtocol::Gossip(GossipRule::TwoChoices),
        MacroProtocol::Rapid(Params::for_network_with_eps(1 << 12, 4, 0.5)),
    ] {
        let build = || {
            let builder = Sim::builder()
                .topology(Complete::new(1 << 12))
                .counts(&biased_counts(1 << 12, 4, 0.5))
                .engine(EngineKind::Macro)
                .seed(Seed::new(0xBEEF))
                .select(protocol.into());
            MacroSim::from_builder(builder).expect("valid")
        };
        let bare = build().run();

        let obs = rapid_obs::Obs::new();
        let mut sim = build();
        sim.attach_obs(Arc::clone(&obs));
        let observed = sim.run();

        assert_eq!(
            bare,
            observed,
            "{}: obs changed the outcome",
            protocol.name()
        );
        let snap = obs.registry.snapshot();
        let leaps = snap.get_counter("macro.tau_leaps").unwrap_or(0);
        let exact = snap.get_counter("macro.gillespie_fallbacks").unwrap_or(0);
        assert!(leaps + exact > 0, "{}: no batches counted", protocol.name());
        assert_eq!(
            obs.trace.records().len() as u64,
            leaps + exact,
            "{}: one trace event per batch",
            protocol.name()
        );
    }
}

#[test]
fn exact_and_tau_leap_regimes_agree_statistically() {
    // Same workload, forced regimes: the mean final plurality share over
    // seeds must match across regimes (the leap is an approximation of
    // the same chain, not a different process).
    let horizon = rapid_sim::time::SimTime::from_secs(12.0);
    let mean_share = |mode: MacroMode| {
        let trials = 24;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut sim = MacroSim::from_builder(
                Sim::builder()
                    .topology(Complete::new(1 << 16))
                    .counts(&biased_counts(1 << 16, 2, 0.5))
                    .gossip(GossipRule::TwoChoices)
                    .engine(EngineKind::Macro)
                    .seed(Seed::new(1000 + seed))
                    .stop(StopCondition::TimeHorizon(horizon)),
            )
            .expect("valid")
            .with_mode(mode);
            let out = sim.run();
            sum += out.final_counts[0] as f64 / (1u64 << 16) as f64;
        }
        sum / trials as f64
    };
    let exact = mean_share(MacroMode::Exact);
    let leap = mean_share(MacroMode::TauLeap);
    assert!(
        (exact - leap).abs() < 0.02,
        "exact {exact:.4} vs tau-leap {leap:.4}"
    );
}

#[test]
fn macro_voter_fractions_are_a_martingale() {
    // Voter has zero drift: over seeds, the mean plurality share at a
    // fixed horizon stays at its initial value.
    let trials = 32;
    let mut sum = 0.0;
    for seed in 0..trials {
        let sim = MacroSim::from_builder(
            Sim::builder()
                .topology(Complete::new(1 << 14))
                .counts(&[9830, 6554])
                .gossip(GossipRule::Voter)
                .engine(EngineKind::Macro)
                .seed(Seed::new(seed))
                .stop(StopCondition::TimeHorizon(
                    rapid_sim::time::SimTime::from_secs(8.0),
                )),
        )
        .expect("valid")
        .run();
        sum += sim.final_counts[0] as f64 / 16384.0;
    }
    let mean = sum / trials as f64;
    assert!((mean - 0.6).abs() < 0.03, "voter drifted: {mean}");
}

#[test]
fn macro_matches_mean_field_at_large_n() {
    // At n = 10⁶ the stochastic macro trajectory must hug the ODE.
    let n = 1_000_000u64;
    let mf = MeanFieldSim::from_builder(
        Sim::builder()
            .topology(Complete::new(n as usize))
            .counts(&[600_000, 400_000])
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::MeanField),
    )
    .expect("valid")
    .run();
    let mut shares = Vec::new();
    let mut sim = MacroSim::from_builder(
        Sim::builder()
            .topology(Complete::new(n as usize))
            .counts(&[600_000, 400_000])
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::Macro)
            .seed(Seed::new(5))
            .stop(StopCondition::TimeHorizon(
                rapid_sim::time::SimTime::from_secs(10.0),
            )),
    )
    .expect("valid");
    sim.run_traced(|t, c| shares.push((t.as_secs(), c[0] as f64 / n as f64)));
    for &(t, share) in &shares {
        let predicted = mf.fractions_at(t)[0];
        assert!(
            (share - predicted).abs() < 0.01,
            "t = {t:.2}: macro {share:.4} vs mean-field {predicted:.4}"
        );
    }
}
