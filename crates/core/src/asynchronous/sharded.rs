//! The sharded epoch engine: one micro run split across worker threads.
//!
//! The exact sequential engine ([`SeqSim`]) advances one activation at
//! a time through a single RNG stream, which
//! caps practical sizes near `n = 10⁵–10⁶` on non-complete topologies.
//! This engine scales the *same protocols* to `n = 10⁷` by advancing
//! the global Poisson clock in deterministic τ-sized **epochs**:
//!
//! 1. **Snapshot** — the epoch freezes the externally visible state
//!    (colors; for the full protocol also the memory bit and real
//!    time) at the epoch start.
//! 2. **Shards** — nodes are partitioned into contiguous shards, one
//!    per worker. Each node draws its activation count for the epoch
//!    as `Poisson(rate · τ)` = `Poisson(1)` (τ = 1/rate, see
//!    [`ShardedSim::new`]) and its protocol randomness from a
//!    dedicated child stream `seed.child(7).child(epoch).child(node)`
//!    (stream 7 of the master seed; see the rapid-lint stream
//!    registry). Every *pull* resolves against the frozen snapshot;
//!    a node's own state evolves live inside its shard. On complete
//!    graphs a gossip pull never touches the O(n) snapshot array: a
//!    uniform neighbor's snapshot color is distributed exactly as the
//!    frozen histogram (minus the puller), so it is drawn from the
//!    k-bucket snapshot counts in O(k) — the memory traffic that
//!    dominates large-n runs disappears on the paper's main topology.
//! 3. **Merge** — workers return per-shard histogram deltas and
//!    counters; the merge commits them in shard order, checks
//!    unanimity, and advances `now` by τ.
//!
//! Because a node's epoch evolution depends only on the snapshot and
//! its private stream, the result is **bit-identical under any shard
//! count** (including 1) and any thread interleaving — sharding is a
//! pure throughput knob. The engine is *not* activation-for-activation
//! identical to the sequential engine: that one interleaves activations
//! through one global stream, while here neighbor state is at most one
//! epoch (τ time units) stale, exactly like a tau-leap discretisation
//! of the Poisson dynamics. That documented stream split is pinned by
//! `tests/sharding.rs`, and fidelity against the mean-field/macro
//! predictions is revalidated at `n = 10⁶` by experiment e25.
//!
//! Node state is kept as struct-of-arrays (opinion, schedule position,
//! bit, pending samples as parallel vectors) so per-epoch updates
//! stream through memory instead of hopping across an array of structs.
//!
//! [`SeqSim`]: crate::asynchronous::SeqSim

use std::sync::Arc;

use rapid_graph::topology::Topology;
use rapid_obs::{Counter, Gauge, Obs, TraceEvent};
use rapid_sim::node::NodeId;
use rapid_sim::poisson::sample_poisson;
use rapid_sim::rng::{Seed, SimRng};
use rapid_sim::time::SimTime;

use crate::asynchronous::kernel::{
    resolve_all, AsyncProtocol, GossipRule, Peer, RapidView, Step, MAX_PULLS, NO_COLOR, NO_PHASE,
};
use crate::asynchronous::schedule::Schedule;
use crate::opinion::{Color, Configuration};

/// Expected activations per node per epoch, `λ = rate · τ`.
///
/// One is the natural step, matching the granularity at which the
/// paper's analysis discretises the Poisson clock. The engine holds it
/// fixed and derives the epoch length from the clock rate, τ = λ/rate, so
/// a slow clock lengthens the epochs instead of starving them.
const EPOCH_LAMBDA: f64 = 1.0;

/// Struct-of-arrays node state for the full protocol: one vector per
/// field of the kernel's [`RapidView`], in its encoding.
#[derive(Clone, Debug)]
struct RapidSoa {
    schedule: Schedule,
    working_time: Vec<u64>,
    real_time: Vec<u64>,
    intermediate: Vec<u32>,
    bit: Vec<bool>,
    last_jump_phase: Vec<u32>,
    halted: Vec<bool>,
    samples: Vec<Vec<(u64, u64)>>,
}

impl RapidSoa {
    fn new(schedule: Schedule, n: usize) -> Self {
        RapidSoa {
            schedule,
            working_time: vec![0; n],
            real_time: vec![0; n],
            intermediate: vec![NO_COLOR; n],
            bit: vec![false; n],
            last_jump_phase: vec![NO_PHASE; n],
            halted: vec![false; n],
            samples: vec![Vec::new(); n],
        }
    }
}

/// What one shard reports back at the epoch merge.
#[derive(Clone, Debug)]
struct EpochDelta {
    steps: u64,
    count_delta: Vec<i64>,
    newly_halted: usize,
    jumps: u64,
    max_jump_displacement: u64,
    /// Pulls answered by the O(k) clique histogram fast path. Counted
    /// locally and flushed at the merge so instrumentation costs the hot
    /// loop one register increment, never an atomic.
    clique_pulls: u64,
}

impl EpochDelta {
    fn new(k: usize) -> Self {
        EpochDelta {
            steps: 0,
            count_delta: vec![0; k],
            newly_halted: 0,
            jumps: 0,
            max_jump_displacement: 0,
            clique_pulls: 0,
        }
    }

    fn recolor(&mut self, slot: &mut Color, new: Color) {
        if new != *slot {
            self.count_delta[slot.index()] -= 1;
            self.count_delta[new.index()] += 1;
            *slot = new;
        }
    }
}

/// The per-node RNG for one epoch: `epoch_seed` is stream 7 of the
/// master seed split by epoch (`master.child(7).child(epoch)`, derived
/// once per epoch outside the node loop), split here by node — so a
/// node's draws are independent of the shard partition and of every
/// other node.
fn epoch_node_rng(epoch_seed: Seed, node: u64) -> SimRng {
    SimRng::from_seed_value(epoch_seed.child(node))
}

/// Contiguous shard sizes: `n` split into `workers` near-equal chunks
/// (the first `n % workers` shards get one extra node). Shard counts
/// that do not divide `n` are handled without bias — the partition only
/// decides which thread executes a node, never what the node draws.
fn shard_sizes(n: usize, workers: usize) -> Vec<usize> {
    let w = workers.clamp(1, n.max(1));
    let base = n / w;
    let extra = n % w;
    (0..w)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

/// Splits one SoA vector into per-shard mutable slices.
fn split_by_sizes<'a, T>(mut s: &'a mut [T], sizes: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(sizes.len());
    for &len in sizes {
        let (head, rest) = s.split_at_mut(len);
        out.push(head);
        s = rest;
    }
    out
}

/// One shard's mutable view of the rapid SoA state.
struct RapidShard<'a> {
    colors: &'a mut [Color],
    working_time: &'a mut [u64],
    real_time: &'a mut [u64],
    intermediate: &'a mut [u32],
    bit: &'a mut [bool],
    last_jump_phase: &'a mut [u32],
    halted: &'a mut [bool],
    samples: &'a mut [Vec<(u64, u64)>],
}

impl RapidShard<'_> {
    /// The shard's `local`-th node: its color, and the kernel's view of
    /// the rest of its state.
    #[inline]
    fn node(&mut self, local: usize) -> (&mut Color, RapidView<'_>) {
        (
            &mut self.colors[local],
            RapidView {
                working_time: &mut self.working_time[local],
                real_time: &mut self.real_time[local],
                intermediate: &mut self.intermediate[local],
                bit: &mut self.bit[local],
                last_jump_phase: &mut self.last_jump_phase[local],
                halted: &mut self.halted[local],
                samples: &mut self.samples[local],
            },
        )
    }
}

/// The frozen epoch-start state every pull resolves against.
#[derive(Clone, Copy)]
struct SnapView<'a> {
    colors: &'a [Color],
    bit: &'a [bool],
    real_time: &'a [u64],
}

/// A micro run advanced epoch-by-epoch across `workers` threads.
///
/// Build one through the facade
/// ([`crate::SimBuilder::parallelism`]) or directly with
/// [`ShardedSim::new`]; drive it with [`ShardedSim::run_epoch`].
pub struct ShardedSim {
    topology: Box<dyn Topology + Send + Sync>,
    proto: AsyncProtocol,
    config: Configuration,
    rapid: Option<RapidSoa>,
    snap_colors: Vec<Color>,
    snap_counts: Vec<u64>,
    snap_bit: Vec<bool>,
    snap_real_time: Vec<u64>,
    seed: Seed,
    /// Epoch length in time units: [`EPOCH_LAMBDA`] / clock rate.
    tau: f64,
    workers: usize,
    epoch: u64,
    steps: u64,
    halted_count: usize,
    first_halt: Option<SimTime>,
    jumps: u64,
    max_jump_displacement: u64,
    obs: Option<ShardObs>,
}

/// Pre-registered metric handles for the epoch engine, created once at
/// [`ShardedSim::attach_obs`] so the per-epoch flush is a handful of
/// atomic ops with no registry lookups.
struct ShardObs {
    obs: Arc<Obs>,
    steps: Counter,
    epochs: Counter,
    clique_pulls: Counter,
    shard_steps_min: Gauge,
    shard_steps_max: Gauge,
}

impl std::fmt::Debug for ShardedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("n", &self.config.n())
            .field("proto", &self.proto)
            .field("workers", &self.workers)
            .field("tau", &self.tau)
            .field("epoch", &self.epoch)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl ShardedSim {
    /// Assembles a sharded run.
    ///
    /// `rate` is each node's Poisson clock rate (activations per time
    /// unit). An epoch lasts τ = 1/rate time units, so each node expects
    /// one activation per epoch at any rate. `workers` is clamped to
    /// `[1, n]`.
    ///
    /// # Panics
    ///
    /// Panics if the topology size and configuration size disagree, or
    /// if `rate` is not finite and positive (the facade validates both).
    pub fn new(
        topology: Box<dyn Topology + Send + Sync>,
        config: Configuration,
        proto: AsyncProtocol,
        seed: Seed,
        rate: f64,
        workers: usize,
    ) -> Self {
        assert_eq!(topology.n(), config.n(), "topology/config size mismatch");
        assert!(
            rate.is_finite() && rate > 0.0,
            "clock rate must be finite and positive"
        );
        let n = config.n();
        let rapid = match &proto {
            AsyncProtocol::Gossip(_) => None,
            AsyncProtocol::Rapid(schedule) => Some(RapidSoa::new(schedule.clone(), n)),
        };
        ShardedSim {
            topology,
            proto,
            config,
            rapid,
            snap_colors: Vec::with_capacity(n),
            snap_counts: Vec::new(),
            snap_bit: Vec::new(),
            snap_real_time: Vec::new(),
            seed,
            tau: EPOCH_LAMBDA / rate,
            workers: workers.clamp(1, n.max(1)),
            epoch: 0,
            steps: 0,
            halted_count: 0,
            first_halt: None,
            jumps: 0,
            max_jump_displacement: 0,
            obs: None,
        }
    }

    /// Attaches an observability handle. Instrumentation is flushed once
    /// per epoch at the merge (trace events `epoch_merge`/`bias_sample`,
    /// the `sharded.*` counters and work-balance gauges); the sharded
    /// hot loops only bump plain per-shard integers, so an attached
    /// handle changes no RNG draw and no outcome byte (pinned by
    /// `tests/obs.rs` against the golden hashes in `tests/sharding.rs`).
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(ShardObs {
            steps: obs.registry.counter("sharded.steps"),
            epochs: obs.registry.counter("sharded.epochs"),
            clique_pulls: obs.registry.counter("sharded.clique_pulls"),
            shard_steps_min: obs.registry.gauge("sharded.shard_steps_min"),
            shard_steps_max: obs.registry.gauge("sharded.shard_steps_max"),
            obs,
        });
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Worker threads the engine was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The protocol being advanced.
    pub fn protocol(&self) -> &AsyncProtocol {
        &self.proto
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total activations executed (every node's per-epoch Poisson draw
    /// is counted, including ticks consumed by halted nodes).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulation time at the last epoch boundary (`epochs × τ`).
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.epoch as f64 * self.tau)
    }

    /// End of the epoch in which the first node halted, if any.
    ///
    /// The sequential engine records the halting activation's exact
    /// time; the epoch engine resolves time at epoch boundaries, so the
    /// value is the boundary that committed the halt (within τ of the
    /// sequential notion).
    pub fn first_halt(&self) -> Option<SimTime> {
        self.first_halt
    }

    /// How many nodes have halted (always 0 for gossip rules).
    pub fn halted_count(&self) -> usize {
        self.halted_count
    }

    /// Total Sync-Gadget jumps executed so far.
    pub fn jump_count(&self) -> u64 {
        self.jumps
    }

    /// Largest |working-time displacement| any jump has caused.
    pub fn max_jump_displacement(&self) -> u64 {
        self.max_jump_displacement
    }

    /// Per-node working times (full protocol only).
    pub fn working_times(&self) -> Option<Vec<u64>> {
        self.rapid.as_ref().map(|soa| soa.working_time.clone())
    }

    /// Color histogram over the bit-set nodes (full protocol only).
    pub fn bit_composition(&self) -> Option<Vec<u64>> {
        let soa = self.rapid.as_ref()?;
        let mut counts = vec![0u64; self.config.k()];
        for (i, &b) in soa.bit.iter().enumerate() {
            if b {
                counts[self.config.colors()[i].index()] += 1;
            }
        }
        Some(counts)
    }

    /// A conservative activation budget
    /// ([`AsyncProtocol::default_step_budget`]).
    pub fn default_step_budget(&self) -> u64 {
        self.proto.default_step_budget(self.config.n())
    }

    /// Advances one τ-sized epoch: snapshot, sharded execution, merge.
    pub fn run_epoch(&mut self) {
        let n = self.config.n();
        let epoch = self.epoch;
        let sizes = shard_sizes(n, self.workers);

        // Snapshot the externally visible epoch-start state.
        self.snap_colors.clear();
        self.snap_colors.extend_from_slice(self.config.colors());
        self.snap_counts.clear();
        self.snap_counts
            .extend_from_slice(self.config.counts().as_slice());
        if let Some(soa) = &self.rapid {
            self.snap_bit.clear();
            self.snap_bit.extend_from_slice(&soa.bit);
            self.snap_real_time.clear();
            self.snap_real_time.extend_from_slice(&soa.real_time);
        }

        let topo: &(dyn Topology + Send + Sync) = &*self.topology;
        // Stream 7 split by epoch, hoisted: the per-node loop only pays
        // one further child derivation per node.
        let epoch_seed = self.seed.child(7).child(epoch);
        let k = self.config.k();
        let (colors, counts) = self.config.split_mut();
        let color_shards = split_by_sizes(colors, &sizes);

        let deltas: Vec<EpochDelta> = match (&self.proto, &mut self.rapid) {
            (AsyncProtocol::Gossip(rule), _) => {
                let rule = *rule;
                let snap: &[Color] = &self.snap_colors;
                let snap_counts: &[u64] = &self.snap_counts;
                // One copy of the shard loop per pull count, so the pulls
                // of an activation unroll.
                let shard = match rule.pulls() {
                    1 => gossip_epoch_shard::<1>,
                    2 => gossip_epoch_shard::<2>,
                    _ => gossip_epoch_shard::<MAX_PULLS>,
                };
                run_shards(color_shards, &sizes, self.workers, move |lo, colors| {
                    shard(rule, topo, snap, snap_counts, epoch_seed, lo, colors)
                })
            }
            (AsyncProtocol::Rapid(_), Some(soa)) => {
                let snap = SnapView {
                    colors: &self.snap_colors,
                    bit: &self.snap_bit,
                    real_time: &self.snap_real_time,
                };
                let schedule = &soa.schedule;
                let shards: Vec<RapidShard<'_>> = {
                    let wt = split_by_sizes(&mut soa.working_time, &sizes);
                    let rt = split_by_sizes(&mut soa.real_time, &sizes);
                    let inter = split_by_sizes(&mut soa.intermediate, &sizes);
                    let bit = split_by_sizes(&mut soa.bit, &sizes);
                    let ljp = split_by_sizes(&mut soa.last_jump_phase, &sizes);
                    let halted = split_by_sizes(&mut soa.halted, &sizes);
                    let samples = split_by_sizes(&mut soa.samples, &sizes);
                    color_shards
                        .into_iter()
                        .zip(wt)
                        .zip(rt)
                        .zip(inter)
                        .zip(bit)
                        .zip(ljp)
                        .zip(halted)
                        .zip(samples)
                        .map(
                            |(((((((colors, wt), rt), inter), bit), ljp), halted), samples)| {
                                RapidShard {
                                    colors,
                                    working_time: wt,
                                    real_time: rt,
                                    intermediate: inter,
                                    bit,
                                    last_jump_phase: ljp,
                                    halted,
                                    samples,
                                }
                            },
                        )
                        .collect()
                };
                run_shards(shards, &sizes, self.workers, move |lo, shard| {
                    rapid_epoch_shard(schedule, topo, snap, epoch_seed, k, lo, shard)
                })
            }
            // lint: allow(panic-hygiene): new() allocates SoA state iff the protocol is Rapid, in the same match
            (AsyncProtocol::Rapid(_), None) => unreachable!("rapid proto implies SoA state"),
        };

        // Merge in shard order: commutative aggregates, deterministic
        // under any worker count.
        for d in &deltas {
            counts.apply_delta(&d.count_delta);
            self.steps += d.steps;
            self.jumps += d.jumps;
            self.max_jump_displacement = self.max_jump_displacement.max(d.max_jump_displacement);
            self.halted_count += d.newly_halted;
        }
        self.epoch += 1;
        if self.first_halt.is_none() && deltas.iter().any(|d| d.newly_halted > 0) {
            self.first_halt = Some(self.now());
        }

        // Post-merge observability flush: a few atomics and two trace
        // records per epoch, outside every shard loop and after all
        // state is committed — no RNG stream is reachable from here.
        if let Some(cells) = &self.obs {
            let epoch_steps: u64 = deltas.iter().map(|d| d.steps).sum();
            let min = deltas.iter().map(|d| d.steps).min().unwrap_or(0);
            let max = deltas.iter().map(|d| d.steps).max().unwrap_or(0);
            cells.steps.add(epoch_steps);
            cells.epochs.inc();
            cells
                .clique_pulls
                .add(deltas.iter().map(|d| d.clique_pulls).sum());
            cells.shard_steps_min.set(min);
            cells.shard_steps_max.set(max);
            cells.obs.trace.emit(
                "sharded",
                TraceEvent::EpochMerge {
                    epoch,
                    steps: epoch_steps,
                    shards: deltas.len() as u64,
                    min_shard_steps: min,
                    max_shard_steps: max,
                },
            );
            let top = self.config.counts().top_two();
            cells.obs.trace.emit(
                "sharded",
                TraceEvent::BiasSample {
                    time: self.now().as_secs(),
                    leader: top.leader.index() as u64,
                    support: top.c1,
                    runner_up: top.c2,
                    total: self.config.counts().n(),
                },
            );
        }
    }
}

/// Executes one closure per shard, inline for one worker and on scoped
/// threads otherwise. Shard results come back in shard order.
fn run_shards<S, F>(shards: Vec<S>, sizes: &[usize], workers: usize, f: F) -> Vec<EpochDelta>
where
    S: Send,
    F: Fn(usize, S) -> EpochDelta + Sync,
{
    // Shard start offsets (prefix sums of the sizes).
    let mut starts = Vec::with_capacity(sizes.len());
    let mut acc = 0usize;
    for &len in sizes {
        starts.push(acc);
        acc += len;
    }
    if workers <= 1 || shards.len() <= 1 {
        return shards
            .into_iter()
            .zip(starts)
            .map(|(shard, lo)| f(lo, shard))
            .collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .zip(starts)
            .map(|(shard, lo)| scope.spawn(move || f(lo, shard)))
            .collect();
        handles
            .into_iter()
            // lint: allow(panic-hygiene): propagating a worker panic is the only sound response — the epoch is lost
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// The snapshot color of a uniform neighbor of a clique node whose own
/// snapshot color has index `self_snap`: a uniform draw over the other
/// `n − 1` nodes, answered from the frozen histogram in O(k) without
/// touching the O(n) snapshot array (the epoch engine's clique fast
/// path — at n = 10⁶ the array walk is a cache miss per pull, the
/// histogram walk stays in registers).
#[inline]
fn clique_snapshot_pull(
    snap_counts: &[u64],
    self_snap: usize,
    n: usize,
    rng: &mut SimRng,
) -> Color {
    let mut r = rng.bounded(n as u64 - 1);
    // The adjusted buckets sum to exactly n − 1, so the walk always
    // lands; the init value is only reachable through that last bucket.
    let mut pick = snap_counts.len() - 1;
    for (c, &count) in snap_counts.iter().enumerate() {
        let count = count - u64::from(c == self_snap);
        if r < count {
            pick = c;
            break;
        }
        r -= count;
    }
    Color::new(pick)
}

/// One gossip shard's epoch: every pull reads the frozen snapshot, own
/// colors evolve live under the kernel's [`GossipRule::decide`]. On
/// complete graphs pulls are answered by [`clique_snapshot_pull`].
/// `PULLS` is `rule.pulls()`.
#[allow(clippy::too_many_arguments)]
fn gossip_epoch_shard<const PULLS: usize>(
    rule: GossipRule,
    topology: &(dyn Topology + Send + Sync),
    snap_colors: &[Color],
    snap_counts: &[u64],
    epoch_seed: Seed,
    lo: usize,
    colors: &mut [Color],
) -> EpochDelta {
    let k = snap_counts.len();
    let clique = topology.complete_n();
    let mut delta = EpochDelta::new(k);
    for (local, slot) in colors.iter_mut().enumerate() {
        let g = lo + local;
        let u = NodeId::new(g);
        let mut rng = epoch_node_rng(epoch_seed, g as u64);
        let activations = sample_poisson(&mut rng, EPOCH_LAMBDA);
        if activations == 0 {
            continue;
        }
        let self_snap = snap_colors[g].index();
        for _ in 0..activations {
            delta.steps += 1;
            let mut pulled = [*slot; PULLS];
            resolve_all(&mut pulled, || {
                Some(match clique {
                    Some(n) => {
                        delta.clique_pulls += 1;
                        clique_snapshot_pull(snap_counts, self_snap, n, &mut rng)
                    }
                    None => snap_colors[topology.sample_neighbor(u, &mut rng).index()],
                })
            });
            delta.recolor(slot, rule.decide(*slot, &pulled));
        }
    }
    delta
}

/// One full-protocol shard's epoch: the kernel's Rapid transition with
/// every pull resolved against the frozen snapshot.
#[allow(clippy::too_many_arguments)]
fn rapid_epoch_shard(
    schedule: &Schedule,
    topology: &(dyn Topology + Send + Sync),
    snap: SnapView<'_>,
    epoch_seed: Seed,
    k: usize,
    lo: usize,
    mut st: RapidShard<'_>,
) -> EpochDelta {
    let mut delta = EpochDelta::new(k);
    for local in 0..st.colors.len() {
        let g = lo + local;
        let u = NodeId::new(g);
        let mut rng = epoch_node_rng(epoch_seed, g as u64);
        let activations = sample_poisson(&mut rng, EPOCH_LAMBDA);
        if activations == 0 {
            continue;
        }
        let (color, mut node) = st.node(local);
        for _ in 0..activations {
            delta.steps += 1;
            let Step::Apply { action, pulls } = node.begin(schedule) else {
                continue;
            };
            let mut pulled = [Peer::default(); MAX_PULLS];
            let pulled = &mut pulled[..pulls];
            resolve_all(pulled, || {
                let v = topology.sample_neighbor(u, &mut rng).index();
                Some(Peer {
                    color: snap.colors[v],
                    bit: snap.bit[v],
                    real_time: snap.real_time[v],
                })
            });
            let effect = node.finish(schedule, action, Some(pulled));
            if let Some(c) = effect.recolor {
                delta.recolor(color, c);
            }
            if let Some(displacement) = effect.jump {
                delta.jumps += 1;
                delta.max_jump_displacement = delta.max_jump_displacement.max(displacement);
            }
            delta.newly_halted += usize::from(effect.halted);
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::params::Params;
    use crate::facade::{Sim, SimBuilder};
    use rapid_graph::complete::Complete;
    use rapid_sim::parallelism::{Parallelism, Workers};

    fn gossip_sim(n: usize, workers: usize, seed: u64) -> ShardedSim {
        let topology = Box::new(Complete::new(n));
        let counts = vec![(n / 2 + n / 8) as u64, (n - n / 2 - n / 8) as u64];
        let config = Configuration::from_counts(&counts).expect("valid");
        ShardedSim::new(
            topology,
            config,
            AsyncProtocol::Gossip(GossipRule::TwoChoices),
            Seed::new(seed),
            1.0,
            workers,
        )
    }

    #[test]
    fn shard_sizes_cover_everything() {
        assert_eq!(shard_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(shard_sizes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(shard_sizes(3, 8), vec![1, 1, 1]);
        assert_eq!(shard_sizes(5, 1), vec![5]);
        for (n, w) in [(1000, 8), (1024, 4), (7, 3)] {
            assert_eq!(shard_sizes(n, w).iter().sum::<usize>(), n);
        }
    }

    /// The façade's epoch engine on `K_n` at `shard_workers` workers.
    fn built(n: usize, counts: &[u64], shard_workers: usize, seed: u64) -> SimBuilder {
        Sim::builder()
            .topology(Complete::new(n))
            .counts(counts)
            .seed(Seed::new(seed))
            .parallelism(Parallelism {
                trial_workers: Workers::Fixed(1),
                shard_workers: Workers::Fixed(shard_workers),
            })
    }

    #[test]
    fn gossip_converges_and_is_worker_independent() {
        let run = |workers| {
            let mut sim = built(512, &[320, 192], workers, 42)
                .gossip(GossipRule::TwoChoices)
                .build()
                .expect("valid configuration");
            let out = sim.run_to_consensus().expect("consensus");
            (out, sim.config().colors().to_vec())
        };
        // Equal times are equal epoch counts: each epoch lasts τ = 1.
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn rapid_run_reaches_consensus() {
        let n = 512;
        let out = built(n, &[320, 192], 2, 7)
            .rapid(Params::for_network(n, 2))
            .build()
            .expect("valid configuration")
            .run_to_consensus()
            .expect("consensus");
        assert_eq!(out.winner, Some(Color::new(0)));
        assert!(out.steps > 0);
        assert!(out.time.expect("asynchronous").as_secs() > 0.0);
    }

    #[test]
    fn epoch_counters_are_monotone() {
        let mut sim = gossip_sim(100, 3, 9);
        sim.run_epoch();
        let s1 = sim.steps();
        sim.run_epoch();
        assert!(sim.steps() >= s1);
        assert_eq!(sim.epoch(), 2);
        assert!((sim.now().as_secs() - 2.0).abs() < 1e-12);
    }
}
