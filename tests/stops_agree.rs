//! One stop policy for every engine.
//!
//! The same declared stops, in the same order, end the same run for the
//! same reason on the exact sequential engine (`Sim::run`), the macro
//! engine (`MacroSim::run`) and the channel deployment
//! (`Cluster::run_channel`): the earliest horizon and the smallest budget
//! bound the run, and a tie goes to the stop declared first. A step
//! budget also stops every engine on the same step.

use rapid_plurality::net::Cluster;
use rapid_plurality::prelude::*;

/// Voter on K_256 from a dead tie: far from unanimity within any budget
/// or horizon below.
fn voter(stops: &[StopCondition]) -> SimBuilder {
    let mut builder = Sim::builder()
        .topology(Complete::new(256))
        .counts(&[128, 128])
        .gossip(GossipRule::Voter)
        .seed(Seed::new(11));
    for &stop in stops {
        builder = builder.stop(stop);
    }
    builder
}

fn horizon(secs: f64) -> StopCondition {
    StopCondition::TimeHorizon(SimTime::from_secs(secs))
}

fn budget(steps: u64) -> StopCondition {
    StopCondition::StepBudget(steps)
}

#[test]
fn every_engine_stops_where_and_why_the_others_do() {
    let rows: [(Vec<StopCondition>, StopReason); 7] = [
        (vec![budget(10), budget(1_000_000)], StopReason::StepBudget),
        (vec![budget(1_000_000), budget(10)], StopReason::StepBudget),
        (vec![horizon(0.0), budget(0)], StopReason::TimeHorizon),
        (vec![budget(0), horizon(0.0)], StopReason::StepBudget),
        (vec![horizon(2.0), horizon(1e6)], StopReason::TimeHorizon),
        (vec![horizon(1e6), horizon(2.0)], StopReason::TimeHorizon),
        (vec![horizon(2.0)], StopReason::TimeHorizon),
    ];
    let mut wrong = Vec::new();
    for (stops, want) in rows {
        let seq = voter(&stops).build().expect("valid micro run").run();
        let macro_run = MacroSim::from_builder(voter(&stops).engine(EngineKind::Macro))
            .expect("valid macro run")
            .run();
        let channel = Cluster::from_builder(voter(&stops).engine(EngineKind::Net))
            .expect("valid deployment")
            .run_channel()
            .outcome;
        for (engine, out) in [("seq", &seq), ("macro", &macro_run), ("channel", &channel)] {
            if out.stop != want {
                wrong.push(format!(
                    "{stops:?} @ {engine}: {:?} at step {}, want {want:?}",
                    out.stop, out.steps
                ));
            }
            if want == StopReason::StepBudget && out.steps != seq.steps {
                wrong.push(format!(
                    "{stops:?} @ {engine}: stopped at step {}, the sequential engine at {}",
                    out.steps, seq.steps
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
