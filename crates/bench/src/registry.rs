//! The static benchmark registry.
//!
//! One entry per hot path, mirroring the experiment registry one level
//! down: `xp bench` enumerates this list, and `tools/ab.py --kernel ID`
//! compares any entry across two commits.
//! Groups:
//!
//! * `gossip` / `rapid` — single asynchronous protocol ticks on `K_n`,
//!   clean and under the fault layer (loss + churn + adversary);
//! * `sync` — one synchronous round of the round-based protocols;
//! * `scheduler` — activation hand-out (sequential, event-queue, jittered,
//!   heavy-tailed latency wrap);
//! * `topology` — neighbor sampling;
//! * `urn` / `rng` / `stats` — the primitive draws and accumulators;
//! * `macro` — the population-level engine: one τ-leap batch, and a full
//!   run to unanimity at `n = 10⁶`;
//! * `micro` — the sharded per-node epoch engine at `n = 10⁶`: one epoch
//!   advance, plus full sequential-vs-sharded runs to unanimity (the pair
//!   the scaling claim in the README is measured on);
//! * `consensus` — a full run to unanimity per iteration (the end-to-end
//!   smoke kernels every experiment binary spends its time in).

use rapid_core::facade::{EngineKind, Sim, SimBuilder, StopCondition};
use rapid_core::prelude::*;
use rapid_core::{AsyncProtocol, ShardedSim};
use rapid_graph::prelude::*;
use rapid_macro::MacroSim;
use rapid_obs::{Obs, ObsHandle, TraceEvent};
use rapid_sim::fault::{
    AdversaryKind, AdversaryPlan, ChurnEvent, FaultPlan, LatencyModel, LatencyScheduler,
};
use rapid_sim::prelude::*;
use rapid_stats::{OnlineStats, P2Quantile};
use rapid_urn::PolyaUrn;

use crate::bench_counts;
use crate::sample::{measure, Bench, BenchSample, BudgetCfg};

/// Inner batch size for kernels too fast to time individually.
const BATCH: u64 = 10_000;

/// A registry entry: a named kernel whose setup builds the timed closure.
///
/// `setup` runs outside the timed region (population layout, graph
/// sampling, scheduler heap fill); only the returned closure is measured.
struct KernelBench {
    id: &'static str,
    title: &'static str,
    group: &'static str,
    elements: u64,
    setup: fn() -> Box<dyn FnMut()>,
}

impl Bench for KernelBench {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn group(&self) -> &'static str {
        self.group
    }

    fn run(&self, cfg: &BudgetCfg) -> BenchSample {
        let mut f = (self.setup)();
        measure(self.id, self.group, self.elements, cfg, &mut f)
    }
}

fn gossip_tick_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let config = Configuration::from_counts(&counts).expect("valid");
    let source = SequentialScheduler::new(n, Seed::new(6));
    let mut sim = SeqSim::new(
        Complete::new(n),
        config,
        AsyncProtocol::Gossip(GossipRule::TwoChoices),
        source,
        Seed::new(16),
    );
    Box::new(move || {
        for _ in 0..BATCH {
            sim.tick();
        }
    })
}

/// The standard faulty-run plan the tick kernels use: 10% loss, a churn
/// window over 1/16 of the population, and an oblivious adversary.
fn bench_fault_plan(n: usize) -> FaultPlan {
    let churn: Vec<ChurnEvent> = (0..n / 16)
        .map(|i| {
            ChurnEvent::window(
                NodeId::new(i * 16),
                SimTime::from_secs(2.0),
                SimTime::from_secs(50.0),
            )
        })
        .collect();
    FaultPlan::none()
        .with_loss(0.1)
        .with_churn(churn)
        .with_adversary(AdversaryPlan {
            kind: AdversaryKind::Oblivious,
            budget: u64::MAX,
            start: SimTime::from_secs(1.0),
            interval: 0.5,
        })
}

fn gossip_tick_faulty_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let config = Configuration::from_counts(&counts).expect("valid");
    let source = SequentialScheduler::new(n, Seed::new(6));
    let mut sim = SeqSim::new(
        Complete::new(n),
        config,
        AsyncProtocol::Gossip(GossipRule::TwoChoices),
        source,
        Seed::new(16),
    )
    .with_faults(&bench_fault_plan(n), Seed::new(26));
    Box::new(move || {
        for _ in 0..BATCH {
            sim.tick();
        }
    })
}

fn rapid_tick_faulty_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let params = Params::for_network(n, 8);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let config = Configuration::from_counts(&counts).expect("valid");
    let source = SequentialScheduler::new(n, Seed::new(5));
    let protocol = AsyncProtocol::Rapid(Schedule::new(params));
    let mut sim = SeqSim::new(Complete::new(n), config, protocol, source, Seed::new(15))
        .with_faults(&bench_fault_plan(n), Seed::new(25));
    Box::new(move || {
        for _ in 0..BATCH {
            sim.tick();
        }
    })
}

fn rapid_tick_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let params = Params::for_network(n, 8);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let config = Configuration::from_counts(&counts).expect("valid");
    let source = SequentialScheduler::new(n, Seed::new(5));
    let protocol = AsyncProtocol::Rapid(Schedule::new(params));
    let mut sim = SeqSim::new(Complete::new(n), config, protocol, source, Seed::new(15));
    Box::new(move || {
        for _ in 0..BATCH {
            sim.tick();
        }
    })
}

fn sync_two_choices_round_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let g = Complete::new(n);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut config = Configuration::from_counts(&counts).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(1));
    let mut proto = GossipRule::TwoChoices;
    Box::new(move || proto.round(&g, &mut config, &mut rng))
}

fn sync_three_majority_round_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let g = Complete::new(n);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut config = Configuration::from_counts(&counts).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(2));
    let mut proto = GossipRule::ThreeMajority;
    Box::new(move || proto.round(&g, &mut config, &mut rng))
}

fn sync_voter_round_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let g = Complete::new(n);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut config = Configuration::from_counts(&counts).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(3));
    let mut proto = GossipRule::Voter;
    Box::new(move || proto.round(&g, &mut config, &mut rng))
}

fn sync_one_extra_bit_round_4096() -> Box<dyn FnMut()> {
    let n = 4096;
    let counts = bench_counts(n as u64, 8, 0.3);
    let g = Complete::new(n);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut config = Configuration::from_counts(&counts).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(4));
    let mut proto = OneExtraBit::for_network(n, 8);
    Box::new(move || proto.round(&g, &mut config, &mut rng))
}

fn scheduler_sequential_expected_1024() -> Box<dyn FnMut()> {
    let mut s = SequentialScheduler::new(1024, Seed::new(1));
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn scheduler_sequential_sampled_1024() -> Box<dyn FnMut()> {
    let mut s = SequentialScheduler::with_mode(1024, Seed::new(2), TimeMode::Sampled);
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn scheduler_event_queue_1024() -> Box<dyn FnMut()> {
    let mut s = EventQueueScheduler::new(1024, Seed::new(3), 1.0);
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn scheduler_event_queue_65536() -> Box<dyn FnMut()> {
    let mut s = EventQueueScheduler::new(1 << 16, Seed::new(3), 1.0);
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn scheduler_jittered_1024() -> Box<dyn FnMut()> {
    let inner = SequentialScheduler::with_mode(1024, Seed::new(4), TimeMode::Sampled);
    let mut s = LatencyScheduler::new(inner, Seed::new(5), LatencyModel::Exponential { rate: 2.0 });
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn scheduler_latency_pareto_1024() -> Box<dyn FnMut()> {
    let inner = SequentialScheduler::with_mode(1024, Seed::new(4), TimeMode::Sampled);
    let model = LatencyModel::Pareto {
        scale: 0.1,
        shape: 1.5,
    };
    let mut s = LatencyScheduler::new(inner, Seed::new(5), model);
    Box::new(move || {
        for _ in 0..BATCH {
            std::hint::black_box(s.next_activation());
        }
    })
}

fn topology_complete_sample_65536() -> Box<dyn FnMut()> {
    let g = Complete::new(1 << 16);
    let mut rng = SimRng::from_seed_value(Seed::new(4));
    let u = NodeId::new(7);
    Box::new(move || {
        let mut acc = 0usize;
        for _ in 0..BATCH {
            acc += g.sample_neighbor(u, &mut rng).index();
        }
        std::hint::black_box(acc);
    })
}

fn topology_regular_sample_4096() -> Box<dyn FnMut()> {
    // lint: allow(panic-hygiene): fixed n and even degree make the regular graph samplable by construction
    let g = RandomRegular::sample(1 << 12, 8, Seed::new(5)).expect("samplable");
    let mut rng = SimRng::from_seed_value(Seed::new(6));
    let u = NodeId::new(7);
    Box::new(move || {
        let mut acc = 0usize;
        for _ in 0..BATCH {
            acc += g.sample_neighbor(u, &mut rng).index();
        }
        std::hint::black_box(acc);
    })
}

fn urn_polya_step() -> Box<dyn FnMut()> {
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let mut urn = PolyaUrn::new(vec![100, 50, 25], 1).expect("valid");
    let mut rng = SimRng::from_seed_value(Seed::new(7));
    Box::new(move || {
        let mut acc = 0usize;
        for _ in 0..BATCH {
            acc += urn.step(&mut rng);
        }
        std::hint::black_box(acc);
    })
}

fn urn_beta_sample() -> Box<dyn FnMut()> {
    let d = rapid_urn::BetaDistribution::new(3.0, 7.0);
    let mut rng = SimRng::from_seed_value(Seed::new(8));
    Box::new(move || {
        let mut acc = 0.0;
        for _ in 0..BATCH {
            acc += d.sample(&mut rng);
        }
        std::hint::black_box(acc);
    })
}

fn rng_multinomial_64() -> Box<dyn FnMut()> {
    // One multinomial draw = 64 conditional binomials (the τ-leap's
    // per-bucket splitting primitive); 100 draws per iteration.
    let weights: Vec<f64> = (1..=64).map(|i| i as f64).collect();
    let mut rng = SimRng::from_seed_value(Seed::new(9));
    let mut counts = vec![0u64; 64];
    Box::new(move || {
        let mut acc = 0u64;
        for _ in 0..100 {
            rng.multinomial_into(1_000_000, &weights, &mut counts);
            acc = acc.wrapping_add(counts[0]);
        }
        std::hint::black_box(acc);
    })
}

fn macro_gossip_sim(n: usize, seed: u64) -> MacroSim {
    let counts = bench_counts(n as u64, 8, 0.3);
    MacroSim::from_builder(
        Sim::builder()
            .topology(Complete::new(n))
            .counts(&counts)
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::Macro)
            .seed(Seed::new(seed)),
    )
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    .expect("valid macro assembly")
}

fn macro_tau_leap_tick() -> Box<dyn FnMut()> {
    // One τ-leap batch (n/8 activations over 8 color buckets) per call;
    // the sim keeps advancing across iterations like the micro tick
    // kernels do. n = 10⁸ so the state never reaches absorption within a
    // bench budget.
    let mut sim = macro_gossip_sim(100_000_000, 10);
    Box::new(move || {
        sim.tau_leap_tick();
        std::hint::black_box(sim.counts()[0]);
    })
}

fn macro_full_run_1e6() -> Box<dyn FnMut()> {
    // A whole population-level run to unanimity at n = 10⁶ per iteration
    // (τ-leap bulk + exact single-event tail).
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let mut sim = macro_gossip_sim(1_000_000, seed);
        let out = sim.run();
        assert!(out.converged(), "macro run converges");
    })
}

/// The micro full-run assembly both scaling kernels share: Two-Choices
/// on K_n with k=2 and a 0.5 multiplicative bias, so a run converges in
/// a benchmarkable number of activations even at n = 10⁶.
fn micro_two_choices_builder(n: usize, seed: u64) -> SimBuilder {
    let counts = bench_counts(n as u64, 2, 0.5);
    Sim::builder()
        .topology(Complete::new(n))
        .counts(&counts)
        .gossip(GossipRule::TwoChoices)
        .seed(Seed::new(seed))
}

fn micro_full_run_sequential_1e6() -> Box<dyn FnMut()> {
    // The per-activation baseline: one whole facade run to unanimity at
    // n = 10⁶ through the sequential scheduler per iteration.
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = micro_two_choices_builder(1_000_000, seed)
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "sequential micro run converges");
    })
}

fn micro_full_run_sharded_1e6() -> Box<dyn FnMut()> {
    // The same run through the sharded epoch engine at 4 shards — the
    // pair of kernels the README scaling table compares.
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = micro_two_choices_builder(1_000_000, seed)
            // lint: allow(panic-hygiene): the spec literal is well-formed; parse failure is a programming error
            .parallelism(Parallelism::parse("1x4").expect("well-formed spec"))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "sharded micro run converges");
    })
}

fn micro_sharded_epoch_1e6() -> Box<dyn FnMut()> {
    // One τ-sized epoch (≈ n Poisson activations in expectation) of the
    // sharded engine per call; k=8 with a small bias keeps the state away
    // from absorption within a bench budget, like the tick kernels.
    let n = 1_000_000;
    let counts = bench_counts(n as u64, 8, 0.3);
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    let config = Configuration::from_counts(&counts).expect("valid");
    let mut sim = ShardedSim::new(
        Box::new(Complete::new(n)),
        config,
        AsyncProtocol::Gossip(GossipRule::TwoChoices),
        Seed::new(12),
        1.0,
        4,
    );
    Box::new(move || {
        sim.run_epoch();
        std::hint::black_box(sim.steps());
    })
}

/// The channel cluster the net kernels step: Two-Choices on K_1024.
fn net_channel_cluster(n: usize, seed: u64) -> rapid_net::Cluster {
    let counts = bench_counts(n as u64, 2, 0.3);
    rapid_net::Cluster::from_builder(
        Sim::builder()
            .topology(Complete::new(n))
            .counts(&counts)
            .gossip(GossipRule::TwoChoices)
            .engine(EngineKind::Net)
            .seed(Seed::new(seed)),
    )
    // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
    .expect("valid net assembly")
}

fn net_codec_round_trip() -> Box<dyn FnMut()> {
    use rapid_net::codec::{Envelope, Payload};
    let env = Envelope {
        src: 17,
        dst: 40_961,
        seq: 0x00C0_FFEE,
        payload: Payload::PullReply {
            color: 5,
            bit: true,
            beacon: false,
            real_time: 321,
        },
    };
    let mut buf = Vec::new();
    Box::new(move || {
        for _ in 0..BATCH {
            buf.clear();
            env.encode_into(&mut buf);
            // lint: allow(panic-hygiene): the codec round-trip property is pinned by rapid-net unit tests; a bench failure is a programming error
            let (back, _) = Envelope::decode(&buf).expect("round-trips");
            std::hint::black_box(back.seq);
        }
    })
}

fn net_machine_on_message() -> Box<dyn FnMut()> {
    use rapid_net::codec::{Envelope, Payload};
    use rapid_net::NodeMachine;
    // One node machine answering a stream of pull requests: the hot
    // receive path of every deployment (decode is measured separately).
    let mut machine = NodeMachine::new(
        0,
        std::sync::Arc::new(Complete::new(1024)),
        Color::new(0),
        &AsyncProtocol::Gossip(GossipRule::TwoChoices),
        1.0,
        Seed::new(7),
        rapid_net::machine::default_beacon_threshold(1024),
    );
    let req = Envelope {
        src: 1,
        dst: 0,
        seq: 1,
        payload: Payload::PullRequest { beacon: false },
    };
    let mut replies = Vec::new();
    Box::new(move || {
        for _ in 0..BATCH {
            replies.clear();
            machine.on_message(&req, &mut replies);
            std::hint::black_box(replies.len());
        }
    })
}

fn net_channel_step() -> Box<dyn FnMut()> {
    // One full channel-driver activation per inner iteration: heap pop,
    // tick, frame encode/route/decode, reply dispatch, quiescence pump.
    let mut cluster = net_channel_cluster(1024, 8);
    Box::new(move || {
        for _ in 0..1000 {
            cluster.step_channel();
        }
    })
}

fn rng_next_u64() -> Box<dyn FnMut()> {
    let mut rng = SimRng::from_seed_value(Seed::new(1));
    Box::new(move || {
        let mut acc = 0u64;
        for _ in 0..BATCH {
            acc = acc.wrapping_add(rng.next_u64());
        }
        std::hint::black_box(acc);
    })
}

fn rng_bounded() -> Box<dyn FnMut()> {
    let mut rng = SimRng::from_seed_value(Seed::new(2));
    Box::new(move || {
        let mut acc = 0u64;
        for _ in 0..BATCH {
            acc += rng.bounded(12_345);
        }
        std::hint::black_box(acc);
    })
}

fn rng_unit_f64() -> Box<dyn FnMut()> {
    let mut rng = SimRng::from_seed_value(Seed::new(3));
    Box::new(move || {
        let mut acc = 0.0;
        for _ in 0..BATCH {
            acc += rng.unit_f64();
        }
        std::hint::black_box(acc);
    })
}

fn stats_online_push() -> Box<dyn FnMut()> {
    let mut x = 0.0f64;
    Box::new(move || {
        let mut acc = OnlineStats::new();
        for _ in 0..BATCH {
            x = (x + 0.618_033_988_749_895) % 1.0;
            acc.push(x);
        }
        std::hint::black_box(acc.mean());
    })
}

fn stats_p2_quantile_push() -> Box<dyn FnMut()> {
    let mut x = 0.0f64;
    Box::new(move || {
        let mut q = P2Quantile::new(0.5);
        for _ in 0..BATCH {
            x = (x + 0.618_033_988_749_895) % 1.0;
            q.push(x);
        }
        std::hint::black_box(q.estimate());
    })
}

fn consensus_gossip_run() -> Box<dyn FnMut()> {
    let counts = bench_counts(4096, 8, 0.5);
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = Sim::builder()
            .topology(Complete::new(4096))
            .counts(&counts)
            .gossip(GossipRule::TwoChoices)
            .seed(Seed::new(seed))
            .stop(StopCondition::StepBudget(50_000_000))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "converges");
    })
}

fn consensus_rapid_run() -> Box<dyn FnMut()> {
    let counts = bench_counts(1024, 4, 0.5);
    let params = Params::for_network_with_eps(1024, 4, 0.5);
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = Sim::builder()
            .topology(Complete::new(1024))
            .counts(&counts)
            .rapid(params)
            .seed(Seed::new(seed))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "converges");
    })
}

fn consensus_gossip_endgame_halt_run() -> Box<dyn FnMut()> {
    // The Theorem 1.3 endgame: dominant start, per-node halt budget —
    // exercises the freeze bookkeeping the plain gossip run never hits.
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = Sim::builder()
            .topology(Complete::new(2048))
            .counts(&[1948, 100])
            .gossip(GossipRule::TwoChoices)
            .halt_after(200)
            .seed(Seed::new(seed))
            .stop(StopCondition::StepBudget(50_000_000))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "converges");
    })
}

fn consensus_sync_two_choices_run() -> Box<dyn FnMut()> {
    let counts = bench_counts(4096, 8, 0.5);
    let mut seed = 0u64;
    Box::new(move || {
        seed += 1;
        let out = Sim::builder()
            .topology(Complete::new(4096))
            .counts(&counts)
            .protocol(GossipRule::TwoChoices)
            .seed(Seed::new(seed))
            .stop(StopCondition::RoundBudget(100_000))
            .build()
            // lint: allow(panic-hygiene): inputs are fixed by the experiment/benchmark definition; build failure is a programming error
            .expect("valid")
            .run();
        assert!(out.converged(), "converges");
    })
}

fn obs_counter_inc() -> Box<dyn FnMut()> {
    // A pre-resolved handle, exactly as engine instrumentation holds it:
    // registry lookups happen at attach time, the hot path is one
    // relaxed atomic add.
    let obs = Obs::new();
    let counter = obs.registry.counter("bench.obs.counter");
    Box::new(move || {
        for _ in 0..BATCH {
            counter.inc();
        }
    })
}

fn obs_trace_event_enabled() -> Box<dyn FnMut()> {
    let obs = Obs::new();
    let mut t = 0u64;
    Box::new(move || {
        for _ in 0..BATCH {
            t += 1;
            obs.trace.emit(
                "bench",
                TraceEvent::BiasSample {
                    time: t as f64,
                    leader: 0,
                    support: 60,
                    runner_up: 40,
                    total: 100,
                },
            );
        }
    })
}

fn obs_trace_event_disabled() -> Box<dyn FnMut()> {
    // The branch-away fast path every engine takes when no Obs is
    // attached: one `Option` test, no event construction. black_box
    // keeps the optimizer from deleting the check outright — this is the
    // kernel that times the zero-overhead contract.
    let obs: ObsHandle = None;
    let mut t = 0u64;
    Box::new(move || {
        for _ in 0..BATCH {
            t += 1;
            if let Some(o) = std::hint::black_box(&obs) {
                o.trace.emit(
                    "bench",
                    TraceEvent::BiasSample {
                        time: t as f64,
                        leader: 0,
                        support: 60,
                        runner_up: 40,
                        total: 100,
                    },
                );
            }
        }
    })
}

macro_rules! kernel {
    ($id:literal, $title:literal, $group:literal, $elements:expr, $setup:path) => {
        KernelBench {
            id: $id,
            title: $title,
            group: $group,
            elements: $elements,
            setup: $setup,
        }
    };
}

static KERNELS: [KernelBench; 39] = [
    kernel!(
        "consensus/gossip_endgame_halt/2048",
        "async Two-Choices endgame run with a 200-tick halt budget, n=2048",
        "consensus",
        1,
        consensus_gossip_endgame_halt_run
    ),
    kernel!(
        "consensus/gossip_two_choices/4096x8",
        "full async Two-Choices run to unanimity, n=4096 k=8",
        "consensus",
        1,
        consensus_gossip_run
    ),
    kernel!(
        "consensus/rapid/1024x4",
        "full Rapid protocol run to unanimity, n=1024 k=4",
        "consensus",
        1,
        consensus_rapid_run
    ),
    kernel!(
        "consensus/sync_two_choices/4096x8",
        "full synchronous Two-Choices run to unanimity, n=4096 k=8",
        "consensus",
        1,
        consensus_sync_two_choices_run
    ),
    kernel!(
        "gossip/clique_tick/4096",
        "10k async gossip ticks (Two-Choices) on K_4096, k=8",
        "gossip",
        BATCH,
        gossip_tick_4096
    ),
    kernel!(
        "gossip/clique_tick_faulty/4096",
        "10k async gossip ticks under loss+churn+adversary, K_4096, k=8",
        "gossip",
        BATCH,
        gossip_tick_faulty_4096
    ),
    kernel!(
        "macro/full_run/1e6",
        "full population-level Two-Choices run to unanimity, n=10^6 k=8",
        "macro",
        1,
        macro_full_run_1e6
    ),
    kernel!(
        "macro/tau_leap_tick",
        "one tau-leap batch (n/8 activations) of the macro engine, n=10^8 k=8",
        "macro",
        1,
        macro_tau_leap_tick
    ),
    kernel!(
        "micro/full_run_sequential/1e6",
        "full per-node Two-Choices run to unanimity, sequential scheduler, n=10^6 k=2",
        "micro",
        1,
        micro_full_run_sequential_1e6
    ),
    kernel!(
        "micro/full_run_sharded/1e6",
        "full per-node Two-Choices run to unanimity, sharded epoch engine (4 shards), n=10^6 k=2",
        "micro",
        1,
        micro_full_run_sharded_1e6
    ),
    kernel!(
        "micro/sharded_epoch/1e6",
        "one tau-sized epoch of the sharded engine (~10^6 activations), n=10^6 k=8",
        "micro",
        1_000_000,
        micro_sharded_epoch_1e6
    ),
    kernel!(
        "net/channel_step/1024",
        "1k channel-cluster activations (tick + frames + pump), n=1024",
        "net",
        1000,
        net_channel_step
    ),
    kernel!(
        "net/codec_round_trip",
        "10k envelope encode+decode round trips (pull-reply frame)",
        "net",
        BATCH,
        net_codec_round_trip
    ),
    kernel!(
        "net/machine_on_message/1024",
        "10k pull-request dispatches through one node machine",
        "net",
        BATCH,
        net_machine_on_message
    ),
    kernel!(
        "obs/counter_inc",
        "10k pre-resolved metric counter increments (one relaxed atomic add each)",
        "obs",
        BATCH,
        obs_counter_inc
    ),
    kernel!(
        "obs/trace_event_disabled",
        "10k disabled-tracing checks (the None branch engines take with no Obs attached)",
        "obs",
        BATCH,
        obs_trace_event_disabled
    ),
    kernel!(
        "obs/trace_event_enabled",
        "10k structured bias-sample emissions into the trace ring",
        "obs",
        BATCH,
        obs_trace_event_enabled
    ),
    kernel!(
        "rapid/clique_tick/4096",
        "10k Rapid two-phase protocol ticks on K_4096, k=8",
        "rapid",
        BATCH,
        rapid_tick_4096
    ),
    kernel!(
        "rapid/clique_tick_faulty/4096",
        "10k Rapid protocol ticks under loss+churn+adversary, K_4096, k=8",
        "rapid",
        BATCH,
        rapid_tick_faulty_4096
    ),
    kernel!(
        "rng/bounded",
        "10k Lemire bounded draws",
        "rng",
        BATCH,
        rng_bounded
    ),
    kernel!(
        "rng/multinomial/64",
        "100 multinomial draws over 64 categories (n=10^6 each)",
        "rng",
        100,
        rng_multinomial_64
    ),
    kernel!(
        "rng/next_u64",
        "10k raw xoshiro256++ outputs",
        "rng",
        BATCH,
        rng_next_u64
    ),
    kernel!(
        "rng/unit_f64",
        "10k uniform [0,1) doubles",
        "rng",
        BATCH,
        rng_unit_f64
    ),
    kernel!(
        "scheduler/event_queue/1024",
        "10k event-queue heap pops/pushes, n=1024",
        "scheduler",
        BATCH,
        scheduler_event_queue_1024
    ),
    kernel!(
        "scheduler/event_queue/65536",
        "10k event-queue heap pops/pushes, n=65536",
        "scheduler",
        BATCH,
        scheduler_event_queue_65536
    ),
    kernel!(
        "scheduler/jittered/1024",
        "10k jittered activations (exp. response delay), n=1024",
        "scheduler",
        BATCH,
        scheduler_jittered_1024
    ),
    kernel!(
        "scheduler/latency_pareto/1024",
        "10k activations through a heavy-tailed Pareto latency wrap, n=1024",
        "scheduler",
        BATCH,
        scheduler_latency_pareto_1024
    ),
    kernel!(
        "scheduler/sequential_expected/1024",
        "10k sequential-model activations, expected time",
        "scheduler",
        BATCH,
        scheduler_sequential_expected_1024
    ),
    kernel!(
        "scheduler/sequential_sampled/1024",
        "10k sequential-model activations, sampled gaps",
        "scheduler",
        BATCH,
        scheduler_sequential_sampled_1024
    ),
    kernel!(
        "stats/online_push",
        "10k Welford accumulator pushes",
        "stats",
        BATCH,
        stats_online_push
    ),
    kernel!(
        "stats/p2_quantile_push",
        "10k P² streaming-median pushes",
        "stats",
        BATCH,
        stats_p2_quantile_push
    ),
    kernel!(
        "sync/one_extra_bit_round/4096",
        "one synchronous OneExtraBit round on K_4096, k=8",
        "sync",
        4096,
        sync_one_extra_bit_round_4096
    ),
    kernel!(
        "sync/three_majority_round/4096",
        "one synchronous 3-Majority round on K_4096, k=8",
        "sync",
        4096,
        sync_three_majority_round_4096
    ),
    kernel!(
        "sync/two_choices_round/4096",
        "one synchronous Two-Choices round on K_4096, k=8",
        "sync",
        4096,
        sync_two_choices_round_4096
    ),
    kernel!(
        "sync/voter_round/4096",
        "one synchronous Voter round on K_4096, k=8",
        "sync",
        4096,
        sync_voter_round_4096
    ),
    kernel!(
        "topology/complete_sample/65536",
        "10k O(1) neighbor draws on K_65536",
        "topology",
        BATCH,
        topology_complete_sample_65536
    ),
    kernel!(
        "topology/regular_sample/4096",
        "10k neighbor draws on an 8-regular random graph",
        "topology",
        BATCH,
        topology_regular_sample_4096
    ),
    kernel!(
        "urn/beta_sample",
        "10k Beta(3,7) draws (the urn's limit law)",
        "urn",
        BATCH,
        urn_beta_sample
    ),
    kernel!(
        "urn/polya_step",
        "10k Pólya urn reinforcement steps",
        "urn",
        BATCH,
        urn_polya_step
    ),
];

/// Every benchmark, sorted by [`Bench::id`].
pub fn bench_registry() -> Vec<&'static dyn Bench> {
    KERNELS.iter().map(|k| k as &dyn Bench).collect()
}

/// The widest registered bench id — every rendered table sizes its id
/// column from this (a fixed width silently mis-aligned once ids grew
/// past it).
pub fn id_width() -> usize {
    KERNELS.iter().map(|k| k.id.len()).max().unwrap_or(0)
}

/// Looks up a benchmark by exact id (case-sensitive — ids are lowercase).
pub fn find(id: &str) -> Option<&'static dyn Bench> {
    KERNELS.iter().find(|k| k.id == id).map(|k| k as &dyn Bench)
}

/// Expands CLI selectors into registry benches: a selector matches on
/// exact id, exact group, or id substring. Benches are returned in
/// registry order, deduplicated. Unmatched selectors are reported.
pub fn select(selectors: &[String]) -> Result<Vec<&'static dyn Bench>, String> {
    let mut chosen: Vec<&'static dyn Bench> = Vec::new();
    for sel in selectors {
        let mut matched = false;
        for k in &KERNELS {
            if k.id == sel || k.group == sel || k.id.contains(sel.as_str()) {
                matched = true;
                if !chosen.iter().any(|b| b.id() == k.id) {
                    chosen.push(k as &dyn Bench);
                }
            }
        }
        if !matched {
            return Err(sel.clone());
        }
    }
    chosen.sort_by_key(|b| b.id());
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_sorted_and_grouped() {
        let ids: Vec<&str> = bench_registry().iter().map(|b| b.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "ids must be unique and sorted");
        for b in bench_registry() {
            assert!(b.id().starts_with(b.group()), "{} not under group", b.id());
            assert!(!b.title().is_empty());
        }
    }

    #[test]
    fn registry_covers_the_paper_hot_paths() {
        let groups: std::collections::BTreeSet<&str> =
            bench_registry().iter().map(|b| b.group()).collect();
        for g in [
            "consensus",
            "gossip",
            "macro",
            "micro",
            "net",
            "obs",
            "rapid",
            "rng",
            "scheduler",
            "stats",
            "sync",
            "topology",
            "urn",
        ] {
            assert!(groups.contains(g), "no benches in group {g}");
        }
    }

    #[test]
    fn find_and_select_resolve() {
        assert!(find("rng/next_u64").is_some());
        assert!(find("nope").is_none());
        let by_group = select(&["scheduler".to_string()]).expect("matches");
        assert!(by_group.len() >= 4);
        let by_substring = select(&["event_queue".to_string()]).expect("matches");
        assert_eq!(by_substring.len(), 2);
        let dedup = select(&["rng".to_string(), "rng/bounded".to_string()]).expect("matches");
        assert_eq!(dedup.len(), 4, "selectors must not duplicate benches");
        let err = match select(&["bogus".to_string()]) {
            Err(sel) => sel,
            Ok(_) => panic!("bogus selector must not match"),
        };
        assert_eq!(err, "bogus");
    }

    #[test]
    fn a_fast_kernel_produces_a_plausible_sample() {
        let cfg = BudgetCfg {
            budget: std::time::Duration::from_millis(5),
            min_iters: 3,
        };
        let s = find("rng/next_u64").expect("registered").run(&cfg);
        assert_eq!(s.id, "rng/next_u64");
        assert!(s.iters >= 3);
        assert!(s.p50_ns > 0.0);
        assert!(s.throughput() > 0.0);
    }
}
