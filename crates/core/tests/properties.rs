//! Property-style tests for the protocol core: configurations, schedules,
//! and protocol invariants that must hold for *every* parameterisation.
//! Driven by the deterministic [`rapid_sim::testkit`] harness.

use rapid_core::asynchronous::{Action, Params, Schedule};
use rapid_core::opinion::{Color, ColorCounts, Configuration};
use rapid_core::prelude::*;
use rapid_graph::prelude::*;
use rapid_sim::prelude::*;
use rapid_sim::testkit::{cases, Gen};

/// The paper's setting on `K_n`, built through the façade.
fn clique_rapid(
    counts: &[u64],
    params: Params,
    seed: Seed,
) -> SeqSim<rapid_core::facade::BoxedTopology, rapid_core::facade::BoxedSource> {
    let n: u64 = counts.iter().sum();
    Sim::builder()
        .topology(Complete::new(n as usize))
        .counts(counts)
        .rapid(params)
        .seed(seed)
        .build()
        .expect("valid configuration")
        .into_rapid()
        .expect("rapid protocol was selected")
}

/// 2–7 colors with counts in 0..200 and a non-empty population.
fn gen_counts(g: &mut Gen) -> Vec<u64> {
    loop {
        let counts = g.vec_u64(2..8, 0..200);
        if counts.iter().sum::<u64>() > 0 {
            return counts;
        }
    }
}

/// top_two agrees with a naive reference implementation.
#[test]
fn top_two_matches_naive() {
    cases(128, |g| {
        let counts = gen_counts(g);
        let cc = ColorCounts::from_counts(&counts).expect("validated");
        let t = cc.top_two();
        let max = *counts.iter().max().expect("non-empty");
        assert_eq!(t.c1, max);
        assert_eq!(counts[t.leader.index()], max);
        // Runner-up: max over all other indices.
        let runner_max = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != t.leader.index())
            .map(|(_, &c)| c)
            .max()
            .expect("k >= 2");
        assert_eq!(t.c2, runner_max);
        assert!(t.c1 >= t.c2);
        assert_ne!(t.leader, t.runner_up);
    });
}

/// set_color preserves the total population and tracks counts exactly.
#[test]
fn configuration_bookkeeping() {
    cases(64, |g| {
        let counts = gen_counts(g);
        let mut config = Configuration::from_counts(&counts).expect("validated");
        let n = config.n() as u64;
        let k = config.k();
        for _ in 0..g.usize(0..50) {
            let u = NodeId::new(g.usize(0..config.n()));
            let c = Color::new(g.usize(0..k));
            config.set_color(u, c);
            assert_eq!(config.color(u), c);
            assert_eq!(config.counts().n(), n);
            // Histogram must equal a recount from scratch.
            let mut recount = vec![0u64; k];
            for &col in config.colors() {
                recount[col.index()] += 1;
            }
            assert_eq!(config.counts().as_slice(), recount.as_slice());
        }
    });
}

/// Every phase of every valid schedule has exactly one Two-Choices
/// sample, one commit, and (iff the gadget is on) one jump; the jump is
/// the last slot.
#[test]
fn schedule_census_holds_for_all_params() {
    cases(128, |g| {
        let n = 1usize << g.usize(4..24);
        let k = 1usize << g.usize(1..10);
        let eps = g.f64(0.05..2.0);
        let gadget = g.bool();
        let mut params = Params::for_network_with_eps(n, k, eps);
        if !gadget {
            params = params.without_gadget();
        }
        let schedule = Schedule::new(params);
        let (tc, commit, bp, ss, jump) = schedule.phase_census();
        assert_eq!(tc, 1);
        assert_eq!(commit, 1);
        assert_eq!(bp, params.bp_len());
        if gadget {
            assert_eq!(ss, params.sync_samples as u64);
            assert_eq!(jump, 1);
            assert_eq!(schedule.action_at(params.phase_len() - 1), Action::Jump);
        } else {
            assert_eq!(ss + jump, 0);
        }
        // Sample strictly precedes commit within the phase.
        assert!(schedule.tc_sample_offset() < schedule.commit_offset());
        // Part 2 decodes to endgame then halt.
        assert_eq!(schedule.action_at(params.part1_len()), Action::Endgame);
        assert_eq!(
            schedule.action_at(params.part1_len() + params.endgame_ticks as u64),
            Action::Halt
        );
    });
}

/// One synchronous round of any protocol preserves the population and
/// never invents colors.
#[test]
fn sync_rounds_preserve_population() {
    cases(64, |g| {
        let counts = gen_counts(g);
        let total: u64 = counts.iter().sum();
        if total < 2 {
            return;
        }
        let k = counts.len();
        let mut config = Configuration::from_counts(&counts).expect("validated");
        let complete = Complete::new(config.n());
        let mut rng = SimRng::from_seed_value(g.seed());
        let mut rules = [
            GossipRule::Voter,
            GossipRule::TwoChoices,
            GossipRule::ThreeMajority,
        ];
        let mut oeb = OneExtraBit::for_network(config.n().max(2), k);
        let proto: &mut dyn SyncProtocol = match g.usize(0..4) {
            3 => &mut oeb,
            i => &mut rules[i],
        };
        let support_before: Vec<usize> = (0..k)
            .filter(|&j| config.counts().as_slice()[j] > 0)
            .collect();
        proto.round(&complete, &mut config, &mut rng);
        assert_eq!(config.counts().n(), total);
        // No color can appear that had zero support (protocols only copy).
        for j in 0..k {
            if !support_before.contains(&j) {
                assert_eq!(config.counts().as_slice()[j], 0);
            }
        }
    });
}

/// Unanimity is absorbing for the asynchronous protocol under any
/// parameters: once all nodes agree, ticks never change the counts.
#[test]
fn unanimity_is_absorbing_async() {
    cases(16, |g| {
        let n = g.u64(8..128);
        let params = Params::for_network(n as usize, 2);
        let mut sim = clique_rapid(&[n, 0], params, g.seed());
        for _ in 0..(n * 10) {
            sim.tick();
            assert_eq!(sim.config().counts().count(Color::new(0)), n);
        }
    });
}

/// Working times advance by exactly one per tick when the gadget is
/// off (no jumps can occur).
#[test]
fn working_time_advances_without_gadget() {
    cases(16, |g| {
        let n = 64u64;
        let params = Params::for_network(n as usize, 2).without_gadget();
        let mut sim = clique_rapid(&[40, 24], params, g.seed());
        for _ in 0..500 {
            sim.tick();
        }
        assert_eq!(sim.jump_count(), 0);
        // Real times equal working times when nothing ever jumps or halts
        // (500 ticks is far from part 2 here).
        assert_eq!(sim.working_times(), sim.real_times());
    });
}
