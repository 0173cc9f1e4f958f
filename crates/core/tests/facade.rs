//! The unified `Sim` builder façade: misuse diagnostics, determinism,
//! stop-condition composition, observers, and equivalence with the
//! engines it assembles, stepped by hand.

use rapid_core::facade::{BuildError, Clock, Outcome, Sim, StopCondition, StopReason};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;

fn two_choices_on_clique(n: usize, counts: &[u64], seed: u64) -> Sim {
    Sim::builder()
        .topology(Complete::new(n))
        .counts(counts)
        .protocol(GossipRule::TwoChoices)
        .seed(Seed::new(seed))
        .build()
        .expect("valid experiment")
}

// ---------------------------------------------------------------- misuse

#[test]
fn missing_protocol_is_a_typed_error() {
    let err = Sim::builder()
        .topology(Complete::new(10))
        .counts(&[5, 5])
        .build()
        .expect_err("no protocol selected");
    assert_eq!(err, BuildError::MissingProtocol);
    assert!(err.to_string().contains("protocol"));
}

#[test]
fn missing_topology_and_initial_state_are_typed_errors() {
    let err = Sim::builder().build().expect_err("nothing supplied");
    assert_eq!(err, BuildError::MissingTopology);

    let err = Sim::builder()
        .topology(Complete::new(10))
        .protocol(GossipRule::TwoChoices)
        .build()
        .expect_err("no initial state");
    assert_eq!(err, BuildError::MissingInitialState);
}

#[test]
fn size_mismatch_is_a_typed_error_not_a_panic() {
    let err = Sim::builder()
        .topology(Complete::new(10))
        .counts(&[5, 4]) // 9 nodes for a 10-node topology
        .protocol(GossipRule::TwoChoices)
        .build()
        .expect_err("n mismatch");
    assert_eq!(
        err,
        BuildError::SizeMismatch {
            topology_n: 10,
            config_n: 9
        }
    );
}

#[test]
fn empty_configuration_is_rejected() {
    let err = Sim::builder()
        .topology(Complete::new(4))
        .counts(&[0, 0])
        .protocol(GossipRule::TwoChoices)
        .build()
        .expect_err("empty population");
    assert!(matches!(err, BuildError::Config(_)), "got {err:?}");

    let err = Sim::builder()
        .topology(Complete::new(4))
        .counts(&[4])
        .protocol(GossipRule::TwoChoices)
        .build()
        .expect_err("single opinion");
    assert!(matches!(err, BuildError::Config(_)), "got {err:?}");
}

#[test]
fn infeasible_distribution_is_rejected() {
    let err = Sim::builder()
        .topology(Complete::new(4))
        .distribution(InitialDistribution::Uniform { k: 20 })
        .gossip(GossipRule::TwoChoices)
        .build()
        .expect_err("4 nodes cannot hold 20 opinions");
    assert!(matches!(err, BuildError::Distribution(_)), "got {err:?}");
}

#[test]
fn invalid_rapid_params_are_rejected() {
    let mut params = Params::for_network(256, 2);
    params.sync_samples = params.sync_len() as u32 + 1; // cannot fit
    let err = Sim::builder()
        .topology(Complete::new(256))
        .counts(&[200, 56])
        .rapid(params)
        .build()
        .expect_err("inconsistent params");
    assert!(matches!(err, BuildError::InvalidParams(_)), "got {err:?}");

    // Lengths that overflow `u64`, or that no schedule table could hold.
    let base = Params::for_network(64, 2);
    let mut overflowing = base;
    overflowing.delta = u32::MAX;
    overflowing.tc_blocks = u32::MAX;
    overflowing.bp_blocks = u32::MAX;
    let mut overlong = base;
    overlong.phases = u32::MAX;
    overlong.delta = 1 << 20;
    for params in [overflowing, overlong] {
        let err = Sim::builder()
            .topology(Complete::new(64))
            .counts(&[40, 24])
            .rapid(params)
            .build()
            .expect_err("protocol too long");
        assert!(matches!(err, BuildError::InvalidParams(_)), "got {err:?}");
    }
}

#[test]
fn clock_misconfigurations_are_rejected() {
    let err = Sim::builder()
        .topology(Complete::new(8))
        .counts(&[4, 4])
        .gossip(GossipRule::Voter)
        .clock(Clock::Rates(vec![1.0; 3]))
        .build()
        .expect_err("wrong rates length");
    assert_eq!(
        err,
        BuildError::RatesLength {
            expected: 8,
            got: 3
        }
    );

    let err = Sim::builder()
        .topology(Complete::new(8))
        .counts(&[4, 4])
        .gossip(GossipRule::Voter)
        .clock(Clock::EventQueue { rate: 0.0 })
        .build()
        .expect_err("zero rate");
    assert!(matches!(err, BuildError::InvalidClock(_)), "got {err:?}");

    let err = Sim::builder()
        .topology(Complete::new(8))
        .counts(&[4, 4])
        .gossip(GossipRule::Voter)
        .jitter(f64::NAN)
        .build()
        .expect_err("NaN jitter");
    assert!(matches!(err, BuildError::InvalidJitter(_)), "got {err:?}");
}

#[test]
fn halt_after_requires_gossip() {
    let err = Sim::builder()
        .topology(Complete::new(8))
        .counts(&[4, 4])
        .protocol(GossipRule::TwoChoices)
        .halt_after(5)
        .build()
        .expect_err("halting is an async-gossip feature");
    assert_eq!(err, BuildError::InvalidHaltBudget);
}

// ----------------------------------------------------------- determinism

#[test]
fn same_seed_means_identical_outcome_for_every_engine() {
    let sync_run = |seed: u64| -> Outcome { two_choices_on_clique(100, &[70, 30], seed).run() };
    assert_eq!(sync_run(9), sync_run(9));

    let gossip_run = |seed: u64| -> Outcome {
        Sim::builder()
            .topology(Complete::new(100))
            .counts(&[70, 30])
            .gossip(GossipRule::TwoChoices)
            .seed(Seed::new(seed))
            .build()
            .expect("valid experiment")
            .run()
    };
    assert_eq!(gossip_run(10), gossip_run(10));

    let rapid_run = |seed: u64| -> Outcome {
        Sim::builder()
            .topology(Complete::new(128))
            .counts(&[80, 48])
            .rapid(Params::for_network(128, 2))
            .seed(Seed::new(seed))
            .build()
            .expect("valid experiment")
            .run()
    };
    assert_eq!(rapid_run(11), rapid_run(11));
    assert_ne!(
        rapid_run(11).steps,
        rapid_run(12).steps,
        "different seeds should differ"
    );
}

// ------------------------------------------- direct-engine equivalence

/// Two-Choices rounds on `K_n`, stepped by hand until unanimity on the
/// engine the builder assembles from `counts` and `seed`: an unshuffled
/// configuration and an rng seeded with the master seed. Returns the
/// outcome and the configuration before the first round and after each.
fn two_choices_by_hand(counts: &[u64], seed: u64) -> (SyncOutcome, Vec<Configuration>) {
    let g = Complete::new(counts.iter().sum::<u64>() as usize);
    let mut config = Configuration::from_counts(counts).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(seed));
    let mut rule = GossipRule::TwoChoices;
    let mut states = vec![config.clone()];
    let winner = loop {
        if let Some(winner) = config.unanimous() {
            break winner;
        }
        assert!(states.len() <= 10_000, "no consensus in 10,000 rounds");
        rule.round(&g, &mut config, &mut rng);
        states.push(config.clone());
    };
    let rounds = states.len() as u64 - 1;
    (SyncOutcome { winner, rounds }, states)
}

#[test]
fn builder_sync_run_matches_the_direct_engine() {
    let counts = [150u64, 80, 70];
    for seed in [1u64, 7, 42] {
        let (direct, states) = two_choices_by_hand(&counts, seed);
        let outcome = two_choices_on_clique(300, &counts, seed)
            .run_to_consensus()
            .expect("converges");
        assert_eq!(outcome.as_sync(), Some(direct), "seed {seed}");
        let last = states.last().expect("the initial state");
        assert_eq!(outcome.final_counts, last.counts().as_slice());
    }
}

#[test]
fn builder_async_runs_match_directly_constructed_engines() {
    // The builder's seed derivation is a documented contract — scheduler
    // from child(0), engine from child(1) — so a builder run must be
    // bit-identical to a hand-assembled engine, not merely statistically
    // equivalent.
    let counts = [90u64, 38];
    let seed = Seed::new(5);
    let config = Configuration::from_counts(&counts).expect("valid");
    let mut direct = SeqSim::new(
        Complete::new(128),
        config,
        AsyncProtocol::Gossip(GossipRule::TwoChoices),
        SequentialScheduler::new(128, seed.child(0)),
        seed.child(1),
    );
    let winner = direct.run_batch(10_000_000, SimTime::MAX);
    let built = Sim::builder()
        .topology(Complete::new(128))
        .counts(&counts)
        .gossip(GossipRule::TwoChoices)
        .seed(seed)
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect("converges");
    assert!(winner.is_some(), "the direct engine converges");
    assert_eq!(
        (built.winner, built.time, built.steps),
        (winner, Some(direct.now()), direct.steps())
    );

    let params = Params::for_network(128, 2);
    let seed = Seed::new(6);
    let config = Configuration::from_counts(&counts).expect("valid");
    let mut direct_sim = SeqSim::new(
        Complete::new(128),
        config,
        AsyncProtocol::Rapid(Schedule::new(params)),
        SequentialScheduler::new(128, seed.child(0)),
        seed.child(1),
    );
    let budget = direct_sim.default_step_budget();
    // The run converges before any node halts, so within one batch.
    let winner = direct_sim
        .run_batch(budget, SimTime::MAX)
        .expect("converges before the first halt");
    let direct = RapidOutcome {
        winner,
        time: direct_sim.now(),
        steps: direct_sim.steps(),
        first_halt: direct_sim.first_halt(),
        before_first_halt: true,
    };
    let built = Sim::builder()
        .topology(Complete::new(128))
        .counts(&counts)
        .rapid(params)
        .seed(seed)
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect("converges");
    assert_eq!(built.as_rapid(), Some(direct));
}

// -------------------------------------------------------- stop conditions

#[test]
fn stop_conditions_compose_and_report_their_reason() {
    // Balanced two-color voter on a tiny graph: no quick unanimity, so the
    // explicit budget fires first.
    let out = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .seed(Seed::new(1))
        .stop(StopCondition::StepBudget(200))
        .stop(StopCondition::TimeHorizon(SimTime::from_secs(1e9)))
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::StepBudget);
    assert_eq!(out.steps, 200);
    assert_eq!(out.winner, None);
    assert_eq!(out.final_counts.iter().sum::<u64>(), 50);

    let out = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .seed(Seed::new(1))
        .stop(StopCondition::TimeHorizon(SimTime::from_secs(3.0)))
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::TimeHorizon);
    assert!(out.time.expect("asynchronous") >= SimTime::from_secs(3.0));

    let out = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .halt_after(3)
        .seed(Seed::new(1))
        .stop(StopCondition::FirstHalt)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::FirstHalt);
    assert!(out.first_halt.is_some());
}

/// An observer folding the step counts it is notified at into an FNV-1a
/// hash.
struct StepLog {
    count: u64,
    fnv: u64,
}

impl Observer for StepLog {
    fn observe(&mut self, progress: &Progress<'_>) {
        self.count += 1;
        for byte in progress.steps.to_le_bytes() {
            self.fnv = (self.fnv ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Where one stop-condition case ends: `(case, stop, steps, time bits,
/// winner, first-halt bits, notifications, FNV of the notified steps)`.
type Landing = (
    &'static str,
    StopReason,
    u64,
    u64,
    Option<usize>,
    Option<u64>,
    u64,
    u64,
);

/// The golden landings, recorded on the engine that checked every stop
/// condition after every tick.
#[rustfmt::skip]
const LANDINGS: &[Landing] = &[
    ("rapid/step-budget", StopReason::StepBudget, 100003, 0x40686a3000000000, None, None, 197, 0x7095661892b8264d),
    ("rapid/round-budget", StopReason::RoundBudget, 76800, 0x4062c00000000000, None, None, 151, 0xb3f2fa1b449b00be),
    ("rapid/time-horizon", StopReason::TimeHorizon, 102656, 0x4069100000000000, None, None, 202, 0x54a98b5634f3cbbe),
    ("rapid/time-horizon/event-queue", StopReason::TimeHorizon, 76742, 0x4062c824d91d077c, None, None, 151, 0x592494a22a599c75),
    ("rapid/composed", StopReason::TimeHorizon, 51149, 0x4058f9a000000000, None, None, 101, 0xf30c5aa55f500e25),
    ("rapid/pre-stepped", StopReason::StepBudget, 5777, 0x4026910000000000, None, None, 11, 0x2ef13b6d03ec55a0),
    ("rapid/first-halt", StopReason::FirstHalt, 39534, 0x40534dc000000000, None, Some(0x40534dc000000000), 79, 0x986ca15485e01153),
    ("rapid/all-halted", StopReason::AllHalted, 59976, 0x405d490000000000, None, Some(0x40534dc000000000), 119, 0x1d69a4898f500a35),
    ("rapid/default-budget", StopReason::DefaultBudget, 1370112, 0x40a4e80000000000, None, Some(0x4088b7d000000000), 2677, 0x5acde1a86f2a24a9),
    ("rapid/unanimity", StopReason::Unanimity, 254682, 0x407f16d000000000, Some(0), None, 499, 0x6534c0db88dc7ec8),
    ("rapid/adversary", StopReason::Unanimity, 413765, 0x4089411400000000, Some(0), None, 810, 0x404bedb2602e2480),
    ("two-choices/step-budget", StopReason::StepBudget, 2501, 0x40238a0000000000, None, None, 11, 0x572e4bb5efab737c),
    ("two-choices/round-budget", StopReason::RoundBudget, 1792, 0x401c000000000000, None, None, 8, 0xfd03af683f267a25),
    ("two-choices/time-horizon", StopReason::TimeHorizon, 1408, 0x4016000000000000, None, None, 7, 0x216b17d8810e8a39),
    ("two-choices/pre-stepped", StopReason::StepBudget, 1333, 0x4014d40000000000, None, None, 5, 0xa9df68a652a217c7),
    ("two-choices/first-halt", StopReason::FirstHalt, 1096, 0x4011200000000000, None, Some(0x4011200000000000), 6, 0x9f1812a42603669d),
    ("two-choices/all-halted", StopReason::AllHalted, 5349, 0x4034e50000000000, None, Some(0x4011200000000000), 22, 0x44883013109efb10),
    ("two-choices/default-budget", StopReason::DefaultBudget, 335113, 0x4094742400000000, None, None, 1311, 0x1d2e541439075881),
    ("two-choices/unanimity", StopReason::Unanimity, 3408, 0x402aa00000000000, Some(1), None, 15, 0x79feff04956a4331),
    ("two-choices/adversary", StopReason::Unanimity, 5804, 0x4036ac0000000000, Some(1), None, 24, 0x3a362f4b17b902ee),
];

/// A stop-condition case: its name, the steps taken before the run, and
/// its assembly.
type Case = (&'static str, u64, fn() -> SimBuilder);

/// Rapid on `K_512`, four colors with the plurality 1.5× ahead.
fn rapid_512() -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(512))
        .distribution(InitialDistribution::multiplicative_bias(4, 0.5))
        .rapid(Params::for_network(512, 4))
        .seed(Seed::new(21))
}

/// Rapid on an even split with one phase and a short endgame: nodes
/// halt long before the population agrees.
fn rapid_512_short() -> SimBuilder {
    let mut params = Params::for_network(512, 2);
    params.phases = 1;
    params.endgame_ticks = 8;
    Sim::builder()
        .topology(Complete::new(512))
        .counts(&[256, 256])
        .rapid(params)
        .seed(Seed::new(23))
}

/// Two-Choices on `K_256` from a near-even split; nodes freeze after
/// `halt_after` own ticks.
fn two_choices_256(halt_after: u64) -> SimBuilder {
    Sim::builder()
        .topology(Complete::new(256))
        .counts(&[136, 120])
        .gossip(GossipRule::TwoChoices)
        .halt_after(halt_after)
        .seed(Seed::new(22))
}

/// Every message lost and node 0 down from the start: no color ever
/// changes and node 0 never halts, so only the default budget ends a run.
fn frozen() -> FaultPlan {
    FaultPlan::none()
        .with_loss(1.0)
        .with_churn(vec![ChurnEvent::crash(NodeId::new(0), SimTime::ZERO)])
}

fn adversary(kind: AdversaryKind, start: f64, interval: f64) -> FaultPlan {
    FaultPlan::none().with_adversary(AdversaryPlan {
        kind,
        budget: 400,
        start: SimTime::from_secs(start),
        interval,
    })
}

#[test]
fn stop_conditions_land_on_pinned_steps() {
    let cases: [Case; 20] = [
        ("rapid/step-budget", 0, || {
            rapid_512().stop(StopCondition::StepBudget(100_003))
        }),
        ("rapid/round-budget", 0, || {
            rapid_512().stop(StopCondition::RoundBudget(150))
        }),
        ("rapid/time-horizon", 0, || {
            rapid_512().stop(StopCondition::TimeHorizon(SimTime::from_secs(200.5)))
        }),
        ("rapid/time-horizon/event-queue", 0, || {
            rapid_512()
                .clock(Clock::EventQueue { rate: 1.0 })
                .stop(StopCondition::TimeHorizon(SimTime::from_secs(150.25)))
        }),
        ("rapid/composed", 0, || {
            rapid_512()
                .stop(StopCondition::StepBudget(300_001))
                .stop(StopCondition::RoundBudget(500))
                .stop(StopCondition::TimeHorizon(SimTime::from_secs(99.9)))
                .stop(StopCondition::FirstHalt)
        }),
        ("rapid/pre-stepped", 777, || {
            rapid_512().stop(StopCondition::StepBudget(5_000))
        }),
        ("rapid/first-halt", 0, || {
            rapid_512_short().stop(StopCondition::FirstHalt)
        }),
        ("rapid/all-halted", 0, rapid_512_short),
        ("rapid/default-budget", 0, || rapid_512().faults(frozen())),
        ("rapid/unanimity", 0, rapid_512),
        ("rapid/adversary", 0, || {
            rapid_512().faults(adversary(AdversaryKind::Adaptive, 30.0, 0.05))
        }),
        ("two-choices/step-budget", 0, || {
            two_choices_256(60).stop(StopCondition::StepBudget(2_501))
        }),
        ("two-choices/round-budget", 0, || {
            two_choices_256(60).stop(StopCondition::RoundBudget(7))
        }),
        ("two-choices/time-horizon", 0, || {
            two_choices_256(60).stop(StopCondition::TimeHorizon(SimTime::from_secs(5.5)))
        }),
        ("two-choices/pre-stepped", 333, || {
            two_choices_256(60).stop(StopCondition::StepBudget(1_000))
        }),
        ("two-choices/first-halt", 0, || {
            two_choices_256(12).stop(StopCondition::FirstHalt)
        }),
        ("two-choices/all-halted", 0, || two_choices_256(12)),
        ("two-choices/default-budget", 0, || {
            two_choices_256(100_000).faults(frozen())
        }),
        ("two-choices/unanimity", 0, || two_choices_256(200)),
        ("two-choices/adversary", 0, || {
            two_choices_256(200).faults(adversary(AdversaryKind::Oblivious, 2.0, 0.25))
        }),
    ];
    let mut landed: Vec<Landing> = Vec::new();
    for (case, pre_steps, builder) in cases {
        let run = |observer: Option<&mut StepLog>| {
            let mut sim = builder().build().expect("valid experiment");
            for _ in 0..pre_steps {
                sim.step();
            }
            match observer {
                Some(log) => sim.run_observed(log),
                None => sim.run(),
            }
        };
        let mut log = StepLog {
            count: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
        };
        let observed = run(Some(&mut log));
        assert_eq!(observed, run(None), "{case}: observers moved the stop");
        landed.push((
            case,
            observed.stop,
            observed.steps,
            observed.time.expect("asynchronous").as_secs().to_bits(),
            observed.winner.map(Color::index),
            observed.first_halt.map(|t| t.as_secs().to_bits()),
            log.count,
            log.fnv,
        ));
    }
    let table: String = landed
        .iter()
        .map(|&(case, stop, steps, time, winner, halt, count, fnv)| {
            let halt = halt.map_or("None".into(), |h| format!("Some({h:#018x})"));
            format!(
                "    (\"{case}\", StopReason::{stop:?}, {steps}, {time:#018x}, \
                 {winner:?}, {halt}, {count}, {fnv:#018x}),\n"
            )
        })
        .collect();
    assert!(landed == LANDINGS, "stop landings moved; now:\n{table}");
}

#[test]
fn round_budget_counts_rounds_for_sync_engines() {
    // A frozen-ish workload: voter on a balanced config will not converge
    // within 10 rounds (50 nodes, seed-checked), so the budget fires.
    let out = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .protocol(GossipRule::Voter)
        .seed(Seed::new(2))
        .stop(StopCondition::RoundBudget(10))
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::RoundBudget);
    assert_eq!(out.rounds, Some(10));
    assert_eq!(out.steps, 10);
}

#[test]
fn budgets_count_from_the_run_not_the_sim_birth() {
    // Manually pre-step a sim, then run with a budget: the budget applies
    // to the run, not to the sim's lifetime step counter.
    let mut sim = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .seed(Seed::new(14))
        .stop(StopCondition::StepBudget(100))
        .build()
        .expect("valid experiment");
    for _ in 0..150 {
        sim.step();
    }
    let out = sim.run();
    assert_eq!(out.stop, StopReason::StepBudget);
    assert_eq!(out.steps, 250, "run got its own 100-step budget");
}

#[test]
fn first_halt_stop_alone_keeps_the_default_budget() {
    // FirstHalt can never fire for a synchronous engine; it must not
    // disable the fallback budget (the run would never terminate).
    let out = Sim::builder()
        .topology(Complete::new(2))
        .counts(&[1, 1])
        .protocol(GossipRule::TwoChoices)
        .seed(Seed::new(12))
        .stop(StopCondition::FirstHalt)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::DefaultBudget);
}

#[test]
fn before_first_halt_is_false_without_unanimity() {
    // A rapid run cut off by a step budget is not the Theorem 1.3 success
    // event, even though no node has halted yet.
    let out = Sim::builder()
        .topology(Complete::new(128))
        .counts(&[80, 48])
        .rapid(Params::for_network(128, 2))
        .seed(Seed::new(13))
        .stop(StopCondition::StepBudget(10))
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::StepBudget);
    assert_eq!(out.winner, None);
    assert_eq!(out.before_first_halt, Some(false));
    assert!(out.to_json().contains("\"before_first_halt\": false"));
}

#[test]
fn default_budget_prevents_infinite_runs() {
    // Two balanced colors under sync Two-Choices *can* converge, but a
    // 2-node graph with one node per color cannot (each node always sees
    // the other's disagreeing pair). The default budget must fire.
    let out = Sim::builder()
        .topology(Complete::new(2))
        .counts(&[1, 1])
        .protocol(GossipRule::TwoChoices)
        .seed(Seed::new(3))
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(out.stop, StopReason::DefaultBudget);
    let json = out.to_json();
    assert!(json.contains("\"stop\": \"default-budget\""));
    assert!(json.contains("\"winner\": null"));
}

// ------------------------------------------------------------- observers

#[test]
fn round_trace_observer_matches_legacy_traced_run() {
    let counts = [60u64, 40];
    let (direct, states) = two_choices_by_hand(&counts, 4);
    let mut trace = RoundTrace::default();
    let outcome = two_choices_on_clique(100, &counts, 4)
        .run_observed(&mut trace)
        .as_sync()
        .expect("converged");
    assert_eq!(outcome, direct);
    let top = |c: &Configuration| c.counts().top_two();
    let c1: Vec<u64> = states.iter().map(|c| top(c).c1).collect();
    let c2: Vec<u64> = states.iter().map(|c| top(c).c2).collect();
    let support: Vec<usize> = states.iter().map(|c| c.counts().support_size()).collect();
    assert_eq!((trace.c1.clone(), trace.c2.clone()), (c1, c2));
    assert_eq!(trace.support, support);
    assert_eq!(trace.len() as u64, outcome.rounds + 1);
}

#[test]
fn spread_trace_observer_records_rapid_working_times() {
    let params = Params::for_network(128, 2);
    let mut spread = SpreadTrace::new(2 * params.delta as u64);
    let outcome = Sim::builder()
        .topology(Complete::new(128))
        .counts(&[80, 48])
        .rapid(params)
        .seed(Seed::new(5))
        .build()
        .expect("valid experiment")
        .run_observed(&mut spread);
    assert!(outcome.converged());
    assert!(!spread.snapshots.is_empty());
    // One snapshot per n activations, plus the initial state, plus the
    // terminal state when the run ends off the cadence.
    let on_cadence = outcome.steps.is_multiple_of(128);
    let expected = outcome.steps / 128 + if on_cadence { 1 } else { 2 };
    assert_eq!(spread.snapshots.len() as u64, expected);
}

// ---------------------------------------------------- the unified outcome

#[test]
fn outcome_serialises_every_engine_family() {
    let sync = two_choices_on_clique(100, &[70, 30], 6).run();
    let json = sync.to_json();
    assert!(json.contains("\"stop\": \"unanimity\""));
    assert!(json.contains("\"winner\": 0"));
    assert!(json.contains("\"time\": null"));

    let rapid = Sim::builder()
        .topology(Complete::new(128))
        .counts(&[80, 48])
        .rapid(Params::for_network(128, 2))
        .seed(Seed::new(7))
        .build()
        .expect("valid experiment")
        .run();
    let json = rapid.to_json();
    assert!(json.contains("\"before_first_halt\": true"));
    assert!(json.contains("\"rounds\": null"));
    assert!(json.contains("\"final_counts\": [128, 0]"));
}

#[test]
fn run_to_consensus_maps_non_unanimity_to_errors() {
    let err = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .seed(Seed::new(8))
        .stop(StopCondition::StepBudget(10))
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect_err("10 steps cannot finish");
    assert_eq!(err, ConvergenceError::BudgetExhausted { budget: 10 });

    let err = Sim::builder()
        .topology(Complete::new(50))
        .counts(&[25, 25])
        .gossip(GossipRule::Voter)
        .halt_after(1)
        .seed(Seed::new(9))
        .stop(StopCondition::StepBudget(1_000_000))
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect_err("everyone freezes after one tick");
    assert_eq!(err, ConvergenceError::AllHaltedWithoutConsensus);
}

#[test]
fn builder_covers_every_clock_model() {
    for clock in [
        Clock::Sequential(TimeMode::Expected),
        Clock::Sequential(TimeMode::Sampled),
        Clock::EventQueue { rate: 1.0 },
        Clock::UniformSkew { skew: 0.4 },
        Clock::Rates(vec![1.0; 100]),
    ] {
        let out = Sim::builder()
            .topology(Complete::new(100))
            .counts(&[80, 20])
            .gossip(GossipRule::TwoChoices)
            .clock(clock.clone())
            .seed(Seed::new(10))
            .stop(StopCondition::StepBudget(5_000_000))
            .build()
            .expect("valid experiment")
            .run_to_consensus()
            .unwrap_or_else(|e| panic!("clock {clock:?} failed: {e}"));
        assert_eq!(out.winner, Some(Color::new(0)), "clock {clock:?}");
    }
}

// ----------------------------------------------------------- clock rates

/// Two-Choices or Rapid on `K_64`, sequential or on the epoch engine
/// (one shard), under an event-queue clock at `rate`.
fn at_rate(rate: f64, rapid: bool, epochs: bool) -> SimBuilder {
    let b = Sim::builder()
        .topology(Complete::new(64))
        .counts(&[40, 24])
        .clock(Clock::EventQueue { rate })
        .seed(Seed::new(3));
    let b = if rapid {
        b.rapid(Params::for_network(64, 2))
    } else {
        b.gossip(GossipRule::TwoChoices)
    };
    if epochs {
        b.parallelism(Parallelism::default())
    } else {
        b
    }
}

#[test]
fn tiny_clock_rates_end_or_fail_to_build() {
    for epochs in [false, true] {
        for rapid in [false, true] {
            let label = format!("rapid={rapid} epochs={epochs}");
            let out = at_rate(1e-270, rapid, epochs)
                .stop(StopCondition::StepBudget(10_000))
                .build()
                .expect("a rate above the floor builds")
                .run();
            assert!(
                matches!(out.stop, StopReason::StepBudget | StopReason::Unanimity),
                "{label}: {:?}",
                out.stop
            );
            assert!(out.time.is_some_and(|t| t.as_secs().is_finite()), "{label}");
            for rate in [1e-300, 1e-308, 5e-324] {
                let err = at_rate(rate, rapid, epochs)
                    .build()
                    .expect_err("a rate below the floor");
                assert!(matches!(err, BuildError::InvalidClock(_)), "{label}: {err}");
            }
        }
    }
    let gossip = || at_rate(1.0, false, false);
    let err = gossip()
        .clock(Clock::Rates(vec![1e-308; 64]))
        .build()
        .expect_err("per-node rates below the floor");
    assert!(matches!(err, BuildError::InvalidClock(_)), "{err}");
    let err = gossip()
        .jitter(1e-308)
        .build()
        .expect_err("a jitter rate below the floor");
    assert_eq!(err, BuildError::InvalidJitter(1e-308));
}

#[test]
fn epoch_engine_scales_time_with_the_clock_rate() {
    for rapid in [false, true] {
        let base = at_rate(1.0, rapid, true)
            .build()
            .expect("valid experiment")
            .run();
        assert!(base.converged(), "rapid={rapid}: {:?}", base.stop);
        for rate in [0.5, 2.0] {
            let out = at_rate(rate, rapid, true)
                .build()
                .expect("valid experiment")
                .run();
            let label = format!("rapid={rapid} rate={rate}");
            assert_eq!(out.stop, base.stop, "{label}");
            assert_eq!(out.winner, base.winner, "{label}");
            assert_eq!(out.steps, base.steps, "{label}");
            assert_eq!(out.final_counts, base.final_counts, "{label}");
            assert_eq!(out.before_first_halt, base.before_first_halt, "{label}");
            let scaled = |t: Option<SimTime>| t.map(|t| t.as_secs() * rate);
            for (got, want) in [
                (scaled(out.time), base.time.map(SimTime::as_secs)),
                (
                    scaled(out.first_halt),
                    base.first_halt.map(SimTime::as_secs),
                ),
            ] {
                assert_eq!(got.is_some(), want.is_some(), "{label}");
                if let (Some(got), Some(want)) = (got, want) {
                    assert!(
                        (got - want).abs() <= 1e-12 * want,
                        "{label}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
