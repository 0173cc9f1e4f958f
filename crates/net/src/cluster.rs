//! The cluster orchestrator: boot `n` machines, drive them over a
//! transport, return the simulators' [`Outcome`].
//!
//! Two drivers share the same machines and codec:
//!
//! * **channel** ([`Cluster::run_channel`]) — single-threaded and
//!   deterministic: a global event heap of per-node Poisson activations
//!   (each node's exponential gaps drawn from its own seeded stream),
//!   with every outbox routed through a [`ChannelTransport`] and pumped
//!   to quiescence before the next activation. Messages are delivered
//!   "within" the activation that provoked them, which is exactly the
//!   micro engine's atomic-interaction semantics — this is the oracle
//!   fast path.
//! * **UDP loopback** ([`Cluster::run_udp`]) — thread-per-core workers,
//!   each owning a shard of machines and one non-blocking socket
//!   ([`crate::udp::UdpTransport`]). Real datagrams, real interleaving,
//!   real loss under pressure; termination is aggregated from the
//!   gossiped beacons each worker observes on its own shard.
//!
//! Both drivers keep one outbox and one encode buffer for the whole run,
//! and reschedule a node by replacing the event heap's root in place
//! (one sift-down instead of a pop and a push; the delivered order is
//! unchanged because every `(time, node)` key is unique). Together with
//! the transports' lent frames, an activation on the channel driver
//! allocates nothing once the buffers have reached their working size.
//!
//! The run ends when every machine has raised its termination beacon
//! (rapid machines raise it when their schedule halts), or when a
//! configured stop fires; the driver separately records the first moment
//! its population histogram hit unanimity, which is what [`Outcome`]
//! reports as `steps`/`time` — the same convention as the simulators,
//! whose runs stop at unanimity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rapid_core::asynchronous::AsyncProtocol;
use rapid_core::facade::{
    BuildError, NetSpec, Outcome, SimBuilder, StopCondition, StopReason, Stops,
};
use rapid_core::opinion::Color;
use rapid_obs::{Counter, Gauge, Obs, TraceEvent};
use rapid_sim::time::SimTime;

use crate::codec::Envelope;
use crate::machine::{default_beacon_threshold, NodeMachine};
use crate::transport::{ChannelTransport, Transport};
use crate::udp::{bind_loopback, UdpTransport, DEFAULT_OUTBOX_CAP};

/// Per-node seed stream offset: machine `i` draws from
/// `seed.child(NODE_STREAM + i)`, far above the simulator's reserved
/// children (scheduler 0, engine 1, shuffle 2, jitter 3, faults 4–5,
/// macro 6).
const NODE_STREAM: u64 = 10_000;

/// How many frames a UDP worker drains per loop iteration before it
/// fires the next local activation.
const UDP_RECV_BATCH: usize = 64;

/// Errors a deployment run can hit beyond build-time validation.
#[derive(Debug)]
pub enum NetError {
    /// The builder rejected the assembly.
    Build(BuildError),
    /// A transport could not be set up (e.g. sockets are forbidden in
    /// this sandbox).
    Io(std::io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Build(e) => write!(f, "invalid deployment spec: {e}"),
            NetError::Io(e) => write!(f, "transport setup failed: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<BuildError> for NetError {
    fn from(e: BuildError) -> Self {
        NetError::Build(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Knobs of a UDP loopback run.
#[derive(Clone, Debug)]
pub struct UdpOpts {
    /// Worker threads (0 = one per available core, capped by `n`).
    pub workers: usize,
    /// Per-socket outbox bound (frames).
    pub outbox_cap: usize,
    /// Wall-clock safety net: the run is stopped (and reported as a
    /// time-horizon stop) after this many milliseconds.
    pub wall_timeout_ms: u64,
}

impl Default for UdpOpts {
    fn default() -> Self {
        UdpOpts {
            workers: 0,
            outbox_cap: DEFAULT_OUTBOX_CAP,
            wall_timeout_ms: 30_000,
        }
    }
}

/// What a deployment run produced: the simulators' [`Outcome`] plus
/// transport-level accounting no simulator has.
#[derive(Clone, Debug)]
pub struct NetRun {
    /// The protocol-level outcome, same shape as every engine's.
    pub outcome: Outcome,
    /// Total activations executed (the outcome's `steps` reports the
    /// count at unanimity, this one the whole run).
    pub total_steps: u64,
    /// Frames dropped by transports (full outboxes, unroutable ids).
    pub dropped_frames: u64,
    /// Frames that failed to decode (never fatal: counted and skipped).
    pub decode_errors: u64,
    /// Wall-clock duration of the drive loop, milliseconds.
    pub wall_ms: f64,
}

/// A booted deployment: `n` machines plus the channel-driver state.
pub struct Cluster {
    machines: Vec<NodeMachine>,
    protocol: AsyncProtocol,
    stops: Vec<StopCondition>,
    transport: ChannelTransport,
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    counts: Vec<u64>,
    now: SimTime,
    steps: u64,
    beacons: usize,
    halted: usize,
    first_halt: Option<SimTime>,
    /// `(steps, time)` at the first moment the histogram was unanimous.
    unanimity: Option<(u64, SimTime)>,
    decode_errors: u64,
    obs: Option<NetObs>,
    /// Envelopes the current machine call emitted, awaiting encoding.
    outbox: Vec<Envelope>,
    /// Encode buffer for one frame.
    frame: Vec<u8>,
}

/// Pre-registered observability cells for the deployment drivers. The
/// counter handles are plain atomics, so the UDP workers share them by
/// clone; the two gauges mirror the *live* transport state (summed
/// dropped frames and pending-outbox sizes) while a UDP run is in
/// flight. None of this touches any RNG stream.
#[derive(Clone)]
struct NetObs {
    obs: Arc<Obs>,
    /// `net.codec.bytes_out` — encoded frame bytes handed to a transport.
    bytes_out: Counter,
    /// `net.codec.bytes_in` — frame bytes pulled off a transport.
    bytes_in: Counter,
    /// `net.transport.sends` — send attempts (queued or dropped).
    sends: Counter,
    /// `net.transport.recvs` — frames received.
    recvs: Counter,
    /// `net.transport.drops` — frames a transport refused or evicted.
    drops: Counter,
    /// `net.udp.dropped` — live sum of every worker transport's drop count.
    udp_dropped: Gauge,
    /// `net.udp.pending` — live sum of every worker's outbox occupancy.
    udp_pending: Gauge,
}

impl Cluster {
    /// Boots a cluster from a validated [`NetSpec`].
    pub fn from_spec(spec: NetSpec) -> Self {
        let n = spec.n();
        let k = spec.k();
        let topology: Arc<dyn rapid_graph::topology::Topology + Send + Sync> =
            Arc::from(spec.topology);
        let threshold = default_beacon_threshold(n);
        // One protocol, hence one Rapid schedule table, for every machine.
        let protocol = AsyncProtocol::from(spec.protocol);
        let mut machines = Vec::with_capacity(n);
        for i in 0..n {
            machines.push(NodeMachine::new(
                i as u32,
                Arc::clone(&topology),
                spec.config.color(rapid_sim::node::NodeId::new(i)),
                &protocol,
                spec.rate,
                spec.seed.child(NODE_STREAM + i as u64),
                threshold,
            ));
        }
        let mut counts = vec![0u64; k];
        for m in &machines {
            counts[m.color().index()] += 1;
        }
        let mut heap = BinaryHeap::with_capacity(n);
        for m in machines.iter_mut() {
            let gap = m.sample_gap();
            heap.push(Reverse((SimTime::from_secs(gap), m.id())));
        }
        Cluster {
            transport: ChannelTransport::new(n),
            machines,
            protocol,
            stops: spec.stops,
            heap,
            counts,
            now: SimTime::ZERO,
            steps: 0,
            beacons: 0,
            halted: 0,
            first_halt: None,
            unanimity: None,
            decode_errors: 0,
            obs: None,
            outbox: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Attaches an observability handle. Both drivers then count codec
    /// bytes and transport send/recv/drop totals under `net.*`, emit
    /// [`TraceEvent::FrameDrop`] / [`TraceEvent::BeaconRaise`] /
    /// [`TraceEvent::BeaconRevoke`] on the `"net"` stream, and a UDP run
    /// additionally mirrors its workers' live drop counts and outbox
    /// occupancy into the `net.udp.dropped` / `net.udp.pending` gauges.
    /// Instrumentation reads machine state transitions only — it never
    /// touches a node's RNG stream, so outcomes are unchanged.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(NetObs {
            bytes_out: obs.registry.counter("net.codec.bytes_out"),
            bytes_in: obs.registry.counter("net.codec.bytes_in"),
            sends: obs.registry.counter("net.transport.sends"),
            recvs: obs.registry.counter("net.transport.recvs"),
            drops: obs.registry.counter("net.transport.drops"),
            udp_dropped: obs.registry.gauge("net.udp.dropped"),
            udp_pending: obs.registry.gauge("net.udp.pending"),
            obs,
        });
    }

    /// Boots a cluster straight from a [`SimBuilder`] with
    /// [`rapid_core::facade::EngineKind::Net`] selected.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] of [`SimBuilder::build_net`] for
    /// invalid assemblies, including [`BuildError::EngineMismatch`] when
    /// the builder selected a non-net engine kind.
    pub fn from_builder(builder: SimBuilder) -> Result<Self, BuildError> {
        builder.build_net().map(Cluster::from_spec)
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.machines.len()
    }

    /// The current support histogram.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Activations executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many machines currently hold a raised termination beacon.
    pub fn beacons(&self) -> usize {
        self.beacons
    }

    /// Runs `machines[i].on_tick` / `on_message` bookkeeping: apply the
    /// closure (which fills the cluster's outbox), then fold the
    /// machine's color/beacon/halt transitions into the cluster counters.
    fn dispatch<F>(&mut self, i: usize, f: F)
    where
        F: FnOnce(&mut NodeMachine, &mut Vec<Envelope>),
    {
        let m = &mut self.machines[i];
        let (c0, b0, h0) = (m.color(), m.beacon(), m.halted());
        f(m, &mut self.outbox);
        let (c1, b1, h1) = (m.color(), m.beacon(), m.halted());
        if c1 != c0 {
            self.counts[c0.index()] -= 1;
            self.counts[c1.index()] += 1;
        }
        match (b0, b1) {
            (false, true) => self.beacons += 1,
            (true, false) => self.beacons -= 1,
            _ => {}
        }
        if !h0 && h1 {
            self.halted += 1;
            if self.first_halt.is_none() {
                self.first_halt = Some(self.now);
            }
        }
        if let Some(obs) = &self.obs {
            let node = i as u64;
            match (b0, b1) {
                (false, true) => obs.obs.trace.emit("net", TraceEvent::BeaconRaise { node }),
                (true, false) => obs.obs.trace.emit("net", TraceEvent::BeaconRevoke { node }),
                _ => {}
            }
        }
    }

    /// Encodes the outbox into the channel transport and empties it.
    fn route(&mut self) {
        for env in self.outbox.drain(..) {
            self.frame.clear();
            env.encode_into(&mut self.frame);
            let sent = self.transport.send(env.dst, &self.frame);
            if let Some(obs) = &self.obs {
                obs.sends.inc();
                obs.bytes_out.add(self.frame.len() as u64);
                if !sent {
                    obs.drops.inc();
                    obs.obs.trace.emit(
                        "net",
                        TraceEvent::FrameDrop {
                            node: u64::from(env.dst),
                            pending: self.transport.in_flight() as u64,
                        },
                    );
                }
            }
        }
    }

    /// Delivers queued frames until the network is quiet.
    fn pump_to_quiescence(&mut self) {
        while let Some(frame) = self.transport.recv() {
            if let Some(obs) = &self.obs {
                obs.recvs.inc();
                obs.bytes_in.add(frame.len() as u64);
            }
            match Envelope::decode_for(frame, self.counts.len()) {
                Ok(env) => {
                    if (env.dst as usize) < self.machines.len() {
                        self.dispatch(env.dst as usize, |m, out| m.on_message(&env, out));
                        self.route();
                    }
                }
                Err(_) => self.decode_errors += 1,
            }
        }
    }

    /// One channel-driver step: fire the earliest pending activation and
    /// deliver every message it provokes (and their cascading replies).
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn step_channel(&mut self) {
        // lint: allow(panic-hygiene): documented panic — the method's # Panics section requires a non-empty cluster
        let &Reverse((t, id)) = self.heap.peek().expect("non-empty cluster");
        self.now = t;
        self.steps += 1;
        let i = id as usize;
        self.dispatch(i, NodeMachine::on_tick);
        self.route();
        self.pump_to_quiescence();
        let gap = self.machines[i].sample_gap();
        // Nothing above touched the heap, so its root is still this
        // activation: reschedule it in place.
        if let Some(mut root) = self.heap.peek_mut() {
            *root = Reverse((t + SimTime::from_secs(gap), id));
        }
        if self.unanimity.is_none() && self.counts.iter().any(|&c| c == self.n() as u64) {
            self.unanimity = Some((self.steps, self.now));
        }
    }

    /// The generous fallback activation budget, the simulators' own
    /// ([`AsyncProtocol::default_step_budget`]).
    pub fn default_budget(&self) -> u64 {
        self.protocol.default_step_budget(self.n())
    }

    /// Drives the deterministic channel transport to termination, or to
    /// the first stop that fires ([`Stops`], with the default budget
    /// [`Cluster::default_budget`] and a round of `n` activations). Its
    /// budgets count activations since boot, [`Cluster::step_channel`]'s
    /// included.
    pub fn run_channel(&mut self) -> NetRun {
        // lint: allow(no-wall-clock): measurement only — feeds the reported wall_ms, never a control decision
        let start = std::time::Instant::now();
        let n = self.n();
        let stops = Stops::new(self.stops.clone(), n as u64, self.default_budget());
        let horizon = stops.horizon();
        let reason = loop {
            let all_halted = self.beacons == n || self.halted == n;
            let any_halted = self.first_halt.is_some();
            if let Some(reason) = stops.reason(self.steps, self.now, any_halted, all_halted) {
                break reason;
            }
            // Step until a budget runs out, the horizon passes or every
            // beacon is up; `stops` then names the reason.
            let end = self.steps.saturating_add(stops.steps_left(self.steps));
            while self.steps < end && self.now < horizon && self.beacons != n && self.halted != n {
                self.step_channel();
            }
        };
        NetRun {
            outcome: self.outcome(reason),
            total_steps: self.steps,
            dropped_frames: self.transport.dropped(),
            decode_errors: self.decode_errors,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Assembles the engine-shaped [`Outcome`]. Unanimity (reached and
    /// still standing) takes precedence over `fallback`, and reports the
    /// steps/time at which it was first observed — the moment at which a
    /// simulator run would have stopped.
    fn outcome(&self, fallback: StopReason) -> Outcome {
        let n = self.n() as u64;
        let winner = self.counts.iter().position(|&c| c == n).map(Color::new);
        let rapid = matches!(self.protocol, AsyncProtocol::Rapid(_));
        match (winner, self.unanimity) {
            (Some(w), Some((steps, time))) => Outcome {
                stop: StopReason::Unanimity,
                winner: Some(w),
                steps,
                rounds: None,
                time: Some(time),
                first_halt: self.first_halt,
                before_first_halt: rapid.then(|| match self.first_halt {
                    None => true,
                    Some(t) => time < t,
                }),
                final_counts: self.counts.clone(),
            },
            _ => Outcome {
                stop: fallback,
                winner: None,
                steps: self.steps,
                rounds: None,
                time: Some(self.now),
                first_halt: self.first_halt,
                before_first_halt: rapid.then_some(false),
                final_counts: self.counts.clone(),
            },
        }
    }

    /// Drives a real UDP loopback deployment: `workers` threads, each
    /// owning a shard of the machines and one non-blocking socket.
    ///
    /// Virtual per-node Poisson clocks still pace each node relative to
    /// its shard, but delivery order, cross-shard interleaving and drops
    /// are real. The run stops when every machine's beacon is up, the
    /// step budget (explicit or default, counted from the start of this
    /// run) is exhausted, or the wall-clock safety net fires. Time-based
    /// [`Outcome`] fields are `None`: a distributed run has no global
    /// clock.
    ///
    /// # Errors
    ///
    /// * [`NetError::Build`] with [`BuildError::NetUnsupported`] when a
    ///   time horizon was declared, before any socket is bound: no
    ///   global clock can honour it;
    /// * [`NetError::Io`] when sockets cannot be bound (sandboxed
    ///   runners) — the channel driver remains available there.
    pub fn run_udp(&mut self, opts: &UdpOpts) -> Result<NetRun, NetError> {
        let n = self.n();
        let stops = Stops::new(self.stops.clone(), n as u64, self.default_budget());
        if stops.horizon() < SimTime::MAX {
            return Err(NetError::Build(BuildError::NetUnsupported(
                "time horizons on the UDP transport (a distributed run has no global clock)",
            )));
        }
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
        } else {
            opts.workers
        }
        .clamp(1, n.max(1));
        let shard = n.div_ceil(workers);
        let (sockets, worker_addrs) = bind_loopback(workers)?;
        // Routing table: node id -> its worker's socket address.
        let addr_of = Arc::new(
            (0..n)
                .map(|i| worker_addrs[(i / shard).min(workers - 1)])
                .collect::<Vec<_>>(),
        );

        let cap = stops.steps_left(0);
        let stop = AtomicBool::new(false);
        let steps = AtomicU64::new(0);
        let beacons = AtomicUsize::new(0);
        let halted = AtomicUsize::new(0);
        let dropped = AtomicU64::new(0);
        let decode_errors = AtomicU64::new(0);
        // Per-worker live transport mirrors: each worker publishes its
        // drop count and outbox occupancy here every loop iteration, and
        // the supervisor folds the sums into the `net.udp.*` gauges.
        let live_dropped: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let live_pending: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let obs = self.obs.clone();

        // lint: allow(no-wall-clock): measurement only — feeds the reported wall_ms; stopping uses tick/step counters
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            let mut shards: Vec<&mut [NodeMachine]> = Vec::with_capacity(workers);
            let mut rest = self.machines.as_mut_slice();
            for _ in 0..workers {
                let cut = shard.min(rest.len());
                let (head, tail) = rest.split_at_mut(cut);
                shards.push(head);
                rest = tail;
            }
            for (w, (shard_machines, socket)) in shards.into_iter().zip(sockets).enumerate() {
                let transport = UdpTransport::new(socket, Arc::clone(&addr_of), opts.outbox_cap);
                let ctx = WorkerCtx {
                    stop: &stop,
                    steps: &steps,
                    beacons: &beacons,
                    halted: &halted,
                    dropped: &dropped,
                    decode_errors: &decode_errors,
                    k: self.counts.len(),
                    live_dropped: &live_dropped[w],
                    live_pending: &live_pending[w],
                    obs: obs.clone(),
                };
                scope.spawn(move || {
                    udp_worker(shard_machines, transport, ctx);
                });
            }
            // Supervisor: aggregate the workers' beacon counts and stop
            // the world on termination, budget, or the wall safety net.
            // The safety net counts supervisor ticks (each ≥ 1 ms of
            // sleep) rather than reading the clock, so the stop decision
            // depends only on counters, never on a wall-clock value.
            let mut ticks = 0u64;
            loop {
                std::thread::sleep(std::time::Duration::from_millis(1));
                ticks += 1;
                if let Some(obs) = &obs {
                    obs.udp_dropped
                        .set(live_dropped.iter().map(|a| a.load(Ordering::Relaxed)).sum());
                    obs.udp_pending
                        .set(live_pending.iter().map(|a| a.load(Ordering::Relaxed)).sum());
                }
                let done = beacons.load(Ordering::Relaxed) >= n
                    || steps.load(Ordering::Relaxed) >= cap
                    || ticks >= opts.wall_timeout_ms;
                if done {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        });
        if let Some(obs) = &obs {
            // Final gauge values: the post-run truth, not the last tick's.
            obs.udp_dropped
                .set(live_dropped.iter().map(|a| a.load(Ordering::Relaxed)).sum());
            obs.udp_pending
                .set(live_pending.iter().map(|a| a.load(Ordering::Relaxed)).sum());
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        // Reconcile the counters with the collected machines.
        self.steps = steps.load(Ordering::Relaxed);
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.beacons = 0;
        self.halted = 0;
        for m in &self.machines {
            self.counts[m.color().index()] += 1;
            self.beacons += m.beacon() as usize;
            self.halted += m.halted() as usize;
        }
        let unanimous = self.counts.contains(&(n as u64));
        if unanimous {
            // No global virtual clock: report the total steps as the
            // unanimity point (the driver cannot observe an earlier one).
            self.unanimity = Some((self.steps, self.now));
        }
        // What `stops` does not name is the wall-clock safety net.
        let all_halted = self.beacons == n || self.halted == n;
        let reason = stops
            .reason(self.steps, self.now, self.halted > 0, all_halted)
            .unwrap_or(StopReason::TimeHorizon);
        let mut outcome = self.outcome(reason);
        // A deployment has no global clock: never report virtual times,
        // and halt ordering relative to unanimity is unobservable.
        outcome.time = None;
        outcome.first_halt = None;
        outcome.before_first_halt = None;
        Ok(NetRun {
            outcome,
            total_steps: self.steps,
            dropped_frames: dropped.load(Ordering::Relaxed),
            decode_errors: decode_errors.load(Ordering::Relaxed),
            wall_ms,
        })
    }
}

/// Everything a UDP worker shares with the supervisor and its siblings:
/// the stop flag, the aggregate counters, this worker's live transport
/// mirror slots, and the (optional) observability handles.
struct WorkerCtx<'a> {
    stop: &'a AtomicBool,
    steps: &'a AtomicU64,
    beacons: &'a AtomicUsize,
    halted: &'a AtomicUsize,
    dropped: &'a AtomicU64,
    decode_errors: &'a AtomicU64,
    /// The run's number of opinions: frames naming another color are
    /// decode errors.
    k: usize,
    live_dropped: &'a AtomicU64,
    live_pending: &'a AtomicU64,
    obs: Option<NetObs>,
}

/// One UDP worker's event loop: pump the socket, fire the next local
/// activation, flush — never block.
fn udp_worker(machines: &mut [NodeMachine], mut transport: UdpTransport, ctx: WorkerCtx<'_>) {
    if machines.is_empty() {
        return;
    }
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::with_capacity(machines.len());
    for (li, m) in machines.iter_mut().enumerate() {
        let gap = m.sample_gap();
        heap.push(Reverse((SimTime::from_secs(gap), li)));
    }
    let mut buf = Vec::new();
    // Tracks each machine call's beacon/halt transition into the shared
    // counters; colors are reconciled by the supervisor after the run.
    let call = |m: &mut NodeMachine, out: &mut Vec<Envelope>, msg: Option<&Envelope>| {
        let (b0, h0) = (m.beacon(), m.halted());
        match msg {
            Some(env) => m.on_message(env, out),
            None => m.on_tick(out),
        }
        let (b1, h1) = (m.beacon(), m.halted());
        match (b0, b1) {
            (false, true) => {
                ctx.beacons.fetch_add(1, Ordering::Relaxed);
            }
            (true, false) => {
                ctx.beacons.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if !h0 && h1 {
            ctx.halted.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = &ctx.obs {
            let node = u64::from(m.id());
            match (b0, b1) {
                (false, true) => obs.obs.trace.emit("net", TraceEvent::BeaconRaise { node }),
                (true, false) => obs.obs.trace.emit("net", TraceEvent::BeaconRevoke { node }),
                _ => {}
            }
        }
    };
    let mut outbox: Vec<Envelope> = Vec::new();
    while !ctx.stop.load(Ordering::Relaxed) {
        // Receive pump: drain a batch of inbound datagrams.
        for _ in 0..UDP_RECV_BATCH {
            let Some(frame) = transport.recv() else { break };
            if let Some(obs) = &ctx.obs {
                obs.recvs.inc();
                obs.bytes_in.add(frame.len() as u64);
            }
            match Envelope::decode_for(frame, ctx.k) {
                Ok(env) => {
                    let li = env.dst as usize;
                    if let Some(m) = li
                        .checked_sub(machines[0].id() as usize)
                        .and_then(|off| machines.get_mut(off))
                    {
                        call(m, &mut outbox, Some(&env));
                    }
                }
                Err(_) => {
                    ctx.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Fire the next local activation by virtual time, and reschedule
        // it by replacing the heap root in place.
        if let Some(mut root) = heap.peek_mut() {
            let Reverse((t, li)) = *root;
            call(&mut machines[li], &mut outbox, None);
            let gap = machines[li].sample_gap();
            *root = Reverse((t + SimTime::from_secs(gap), li));
            ctx.steps.fetch_add(1, Ordering::Relaxed);
        }
        // Route everything produced this iteration, then flush.
        for env in outbox.drain(..) {
            buf.clear();
            env.encode_into(&mut buf);
            let sent = transport.send(env.dst, &buf);
            if let Some(obs) = &ctx.obs {
                obs.sends.inc();
                obs.bytes_out.add(buf.len() as u64);
                if !sent {
                    obs.drops.inc();
                    obs.obs.trace.emit(
                        "net",
                        TraceEvent::FrameDrop {
                            node: u64::from(env.dst),
                            pending: transport.queued() as u64,
                        },
                    );
                }
            }
        }
        transport.flush();
        // Publish this worker's live transport state for the gauges.
        ctx.live_dropped
            .store(transport.dropped(), Ordering::Relaxed);
        ctx.live_pending
            .store(transport.queued() as u64, Ordering::Relaxed);
    }
    ctx.dropped
        .fetch_add(transport.dropped(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Payload;
    use rapid_core::asynchronous::GossipRule;
    use rapid_core::facade::{EngineKind, Sim};
    use rapid_graph::complete::Complete;
    use rapid_sim::rng::Seed;

    #[test]
    fn a_reply_with_an_out_of_range_color_is_a_decode_error() {
        let counts = [5, 3];
        let mut cluster = Cluster::from_builder(
            Sim::builder()
                .topology(Complete::new(8))
                .counts(&counts)
                .gossip(GossipRule::Voter)
                .engine(EngineKind::Net)
                .seed(Seed::new(3)),
        )
        .expect("valid net assembly");
        // Node 0 pulls one peer; the reply that comes back names color k.
        cluster.dispatch(0, NodeMachine::on_tick);
        let request = cluster
            .outbox
            .pop()
            .expect("a voter tick sends one request");
        let forged = Envelope {
            src: request.dst,
            dst: request.src,
            seq: request.seq,
            payload: Payload::PullReply {
                color: counts.len() as u32,
                bit: false,
                beacon: false,
                real_time: 0,
            },
        };
        cluster.transport.send(forged.dst, &forged.encode());
        cluster.pump_to_quiescence();
        assert_eq!(cluster.decode_errors, 1);
        assert!(cluster.machines[0].color().index() < counts.len());
        assert_eq!(cluster.counts().iter().sum::<u64>(), 8);
    }

    #[test]
    fn a_udp_run_rejects_a_time_horizon_before_binding_a_socket() {
        let mut cluster = Cluster::from_builder(
            Sim::builder()
                .topology(Complete::new(8))
                .counts(&[5, 3])
                .gossip(GossipRule::Voter)
                .engine(EngineKind::Net)
                .seed(Seed::new(3))
                .stop(StopCondition::TimeHorizon(SimTime::from_secs(1.0))),
        )
        .expect("the channel driver honours time horizons");
        // Binding would fail with `NetError::Io` where sockets are
        // forbidden; the horizon is refused before that.
        match cluster.run_udp(&UdpOpts::default()) {
            Err(NetError::Build(e)) => assert_eq!(
                e,
                BuildError::NetUnsupported(
                    "time horizons on the UDP transport (a distributed run has no global clock)"
                )
            ),
            other => panic!("want a build error, got {other:?}"),
        }
        assert_eq!(cluster.steps(), 0);
    }
}
