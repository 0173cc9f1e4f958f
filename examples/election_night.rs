//! Election night: synchronous protocols race on a Zipf-skewed vote
//! distribution — the motivating "distributed voting" workload of the
//! plurality-consensus literature.
//!
//! ```sh
//! cargo run --release --example election_night
//! ```
//!
//! 8192 polling nodes hold one of 12 candidate preferences, Zipf(1.0)
//! distributed (a clear front-runner, a long tail). We race Voter,
//! Two-Choices, 3-Majority and OneExtraBit and report rounds, the winner,
//! and whether the plurality actually won — Voter's proportional lottery
//! versus the drift protocols' near-certainty.

use rapid_plurality::prelude::*;

fn race(
    name: &str,
    make_proto: impl Fn() -> Protocol,
    counts: &[u64],
    n: usize,
    seed: u64,
    trials: u64,
) {
    let mut rounds_total = 0.0;
    let mut plurality_wins = 0;
    let mut converged = 0;
    for t in 0..trials {
        let outcome = Sim::builder()
            .topology(Complete::new(n))
            .counts(counts)
            .select(make_proto())
            .seed(Seed::new(seed + t))
            .stop(StopCondition::RoundBudget(200_000))
            .build()
            .expect("valid experiment")
            .run();
        if let Some(out) = outcome.as_sync() {
            rounds_total += out.rounds as f64;
            converged += 1;
            if out.winner == Color::new(0) {
                plurality_wins += 1;
            }
        }
    }
    if converged == 0 {
        println!("{name:>14}: did not converge within the budget");
    } else {
        println!(
            "{name:>14}: {:7.1} rounds avg | plurality won {plurality_wins}/{trials} runs",
            rounds_total / converged as f64,
        );
    }
}

fn main() {
    let n: u64 = 8192;
    let k = 12;
    let counts = InitialDistribution::Zipf { k, s: 1.0 }
        .counts(n)
        .expect("feasible");
    println!("candidate support (Zipf): {counts:?}");
    let top = ColorCounts::from_counts(&counts).expect("valid").top_two();
    println!(
        "front-runner {} leads {} by {} votes ({}x)\n",
        top.leader,
        top.runner_up,
        top.gap(),
        format_args!("{:.2}", top.ratio()),
    );

    let trials = 5;
    let n_usize = n as usize;
    race(
        "voter",
        || Protocol::Sync(Box::new(GossipRule::Voter)),
        &counts,
        n_usize,
        10,
        trials,
    );
    race(
        "two-choices",
        || Protocol::Sync(Box::new(GossipRule::TwoChoices)),
        &counts,
        n_usize,
        20,
        trials,
    );
    race(
        "3-majority",
        || Protocol::Sync(Box::new(GossipRule::ThreeMajority)),
        &counts,
        n_usize,
        30,
        trials,
    );
    race(
        "one-extra-bit",
        || Protocol::Sync(Box::new(OneExtraBit::for_network(n_usize, k))),
        &counts,
        n_usize,
        40,
        trials,
    );

    println!(
        "\nVoter is a proportional lottery (the front-runner wins ~{:.0}% of\n\
         runs) and takes Theta(n) rounds; the drift protocols lock onto the\n\
         plurality in tens of rounds.",
        100.0 * counts[0] as f64 / n as f64
    );
}
