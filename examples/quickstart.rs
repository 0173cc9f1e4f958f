//! Quickstart: a 60-second tour of the public API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the paper's three protagonists on the same workload:
//! synchronous Two-Choices (Theorem 1.1), synchronous OneExtraBit
//! (Theorem 1.2) and the rapid asynchronous protocol (Theorem 1.3).

use rapid_plurality::prelude::*;

fn main() {
    // A network of 4096 nodes holding one of 8 opinions. Color 0 (the
    // paper's C_1) leads every other opinion by a factor 1.5.
    let n: u64 = 4096;
    let k = 8;
    let workload = InitialDistribution::multiplicative_bias(k, 0.5);
    let counts = workload.counts(n).expect("feasible workload");
    println!("initial support: {counts:?}\n");

    // Every run is the same builder with a different protocol selector.

    // --- Synchronous Two-Choices -----------------------------------
    let out = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(workload.clone())
        .protocol(GossipRule::TwoChoices)
        .seed(Seed::new(1))
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect("Two-Choices converges");
    println!(
        "two-choices   : winner {} after {:4} synchronous rounds",
        out.winner.expect("converged"),
        out.rounds.expect("synchronous"),
    );

    // --- Synchronous OneExtraBit ------------------------------------
    let out = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(workload.clone())
        .protocol(OneExtraBit::for_network(n as usize, k))
        .seed(Seed::new(2))
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect("OneExtraBit converges");
    println!(
        "one-extra-bit : winner {} after {:4} synchronous rounds",
        out.winner.expect("converged"),
        out.rounds.expect("synchronous"),
    );

    // --- The paper's asynchronous protocol ---------------------------
    // Poisson clocks, working-time schedule, Sync Gadget, endgame.
    let params = Params::for_network_with_eps(n as usize, k, 0.5);
    let out = Sim::builder()
        .topology(Complete::new(n as usize))
        .distribution(workload)
        .rapid(params)
        .seed(Seed::new(3))
        .build()
        .expect("valid experiment")
        .run_to_consensus()
        .expect("Theorem 1.3 regime");
    println!(
        "rapid-async   : winner {} after {:.1} time units ({} activations);\n\
         \u{20}               unanimity before the first halt: {}",
        out.winner.expect("converged"),
        out.time.expect("asynchronous").as_secs(),
        out.steps,
        out.before_first_halt.expect("halting dynamic"),
    );
    println!("outcome JSON  : {}", out.to_json());
    println!(
        "\nln(n) = {:.1}; the asynchronous run time is O(log n) with the\n\
         constant set by the schedule in `Params` (phase length {} ticks).",
        (n as f64).ln(),
        params.phase_len()
    );
}
