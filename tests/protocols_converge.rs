//! Cross-crate integration: every protocol finds the plurality on
//! well-conditioned workloads, across topologies and engines.

use rapid_plurality::prelude::*;

type ProtocolMaker = Box<dyn Fn() -> Protocol>;

fn plurality_counts(n: u64, k: usize, eps: f64) -> Vec<u64> {
    InitialDistribution::multiplicative_bias(k, eps)
        .counts(n)
        .expect("feasible workload")
}

#[test]
fn all_sync_protocols_find_a_clear_plurality() {
    let counts = plurality_counts(1024, 4, 1.0); // 2x lead: easy regime
    let makers: Vec<(&str, ProtocolMaker)> = vec![
        (
            "two-choices",
            Box::new(|| Protocol::Sync(Box::new(GossipRule::TwoChoices))),
        ),
        (
            "3-majority",
            Box::new(|| Protocol::Sync(Box::new(GossipRule::ThreeMajority))),
        ),
        (
            "one-extra-bit",
            Box::new(|| Protocol::Sync(Box::new(OneExtraBit::for_network(1024, 4)))),
        ),
    ];
    for (name, make) in makers {
        let mut wins = 0;
        for seed in 0..5 {
            let out = Sim::builder()
                .topology(Complete::new(1024))
                .counts(&counts)
                .select(make())
                .seed(Seed::new(100 + seed))
                .stop(StopCondition::RoundBudget(100_000))
                .build()
                .expect("valid experiment")
                .run_to_consensus()
                .expect("converges");
            if out.winner == Some(Color::new(0)) {
                wins += 1;
            }
        }
        assert!(
            wins >= 4,
            "{name} won only {wins}/5 with a 2x plurality lead"
        );
    }
}

#[test]
fn two_choices_works_beyond_the_clique() {
    // The paper analyses K_n; the implementation is topology-generic.
    // On a dense random regular graph the same drift dynamics apply.
    let counts = plurality_counts(600, 3, 1.0);
    let mut wins = 0;
    for seed in 0..5 {
        let g = rapid_plurality::graph::RandomRegular::sample(600, 16, Seed::new(3))
            .expect("samplable");
        let out = Sim::builder()
            .topology(g)
            .counts(&counts)
            .protocol(GossipRule::TwoChoices)
            .shuffle(true)
            .seed(Seed::new(200 + seed))
            .stop(StopCondition::RoundBudget(100_000))
            .build()
            .expect("valid experiment")
            .run_to_consensus()
            .expect("converges");
        if out.winner == Some(Color::new(0)) {
            wins += 1;
        }
    }
    assert!(
        wins >= 4,
        "plurality won only {wins}/5 on the regular graph"
    );
}

#[test]
fn async_gossip_rules_converge_on_plurality() {
    for rule in [GossipRule::TwoChoices, GossipRule::ThreeMajority] {
        let counts = plurality_counts(800, 4, 1.0);
        let out = Sim::builder()
            .topology(Complete::new(800))
            .counts(&counts)
            .gossip(rule)
            .seed(Seed::new(11))
            .stop(StopCondition::StepBudget(50_000_000))
            .build()
            .expect("valid experiment")
            .run_to_consensus()
            .expect("converges");
        assert_eq!(
            out.winner,
            Some(Color::new(0)),
            "rule {rule} missed the plurality"
        );
    }
}

#[test]
fn one_extra_bit_is_polylog_while_two_choices_grows() {
    // The headline Theorem 1.2 contrast, end to end: along an additive-gap
    // sweep that doubles n/c1, Two-Choices rounds grow while OneExtraBit's
    // stay nearly flat.
    use rapid_plurality::core::distributions::theorem_11_gap;
    let mut tc_rounds = Vec::new();
    let mut oeb_rounds = Vec::new();
    for &n in &[4096u64, 16384] {
        let gap = theorem_11_gap(n, 1.0);
        let counts = InitialDistribution::additive_bias(32, gap)
            .counts(n)
            .expect("feasible");
        let mut tc_mean = 0.0;
        let mut oeb_mean = 0.0;
        let trials = 3;
        let rounds = |protocol: Protocol, seed: u64| -> f64 {
            Sim::builder()
                .topology(Complete::new(n as usize))
                .counts(&counts)
                .select(protocol)
                .seed(Seed::new(seed))
                .stop(StopCondition::RoundBudget(100_000))
                .build()
                .expect("valid experiment")
                .run_to_consensus()
                .expect("converges")
                .rounds
                .expect("synchronous") as f64
        };
        for seed in 0..trials {
            tc_mean += rounds(Protocol::Sync(Box::new(GossipRule::TwoChoices)), 300 + seed)
                / trials as f64;
            oeb_mean += rounds(
                Protocol::Sync(Box::new(OneExtraBit::for_network(n as usize, 32))),
                400 + seed,
            ) / trials as f64;
        }
        tc_rounds.push(tc_mean);
        oeb_rounds.push(oeb_mean);
    }
    let tc_growth = tc_rounds[1] / tc_rounds[0];
    let oeb_growth = oeb_rounds[1] / oeb_rounds[0];
    assert!(
        tc_growth > oeb_growth,
        "Two-Choices should outgrow OneExtraBit: {tc_growth:.2} vs {oeb_growth:.2}"
    );
}

#[test]
fn voter_is_a_proportional_lottery() {
    // With a 3:1 split the voter model should lose a noticeable fraction
    // of runs — unlike the drift protocols.
    let mut wins = 0;
    let trials = 24;
    for seed in 0..trials {
        let out = Sim::builder()
            .topology(Complete::new(100))
            .counts(&[75, 25])
            .gossip(GossipRule::Voter)
            .seed(Seed::new(500 + seed))
            .stop(StopCondition::StepBudget(50_000_000))
            .build()
            .expect("valid experiment")
            .run_to_consensus()
            .expect("converges");
        if out.winner == Some(Color::new(0)) {
            wins += 1;
        }
    }
    let rate = wins as f64 / trials as f64;
    assert!(
        (0.45..0.98).contains(&rate),
        "voter win rate {rate} should sit near 0.75"
    );
}
