//! One node as a pure message-driven state machine.
//!
//! A [`NodeMachine`] owns one node's opinion and protocol state and
//! advances through exactly two entry points, both of which append what
//! they send to a caller-owned outbox instead of touching a socket:
//!
//! * [`NodeMachine::on_tick`] — one local Poisson-clock activation: the
//!   protocol's pull step becomes a batch of [`Payload::PullRequest`]
//!   frames tagged with a fresh sequence number;
//! * [`NodeMachine::on_message`] — one inbound frame: requests are
//!   answered immediately, replies are matched to the pending query by
//!   `(src, seq)` and applied when the query completes.
//!
//! The handler-fills-outbox shape keeps the machine transport-agnostic
//! and single-threaded-testable; the cluster drivers own delivery. The
//! outbox belongs to the driver, which reuses it for every call, so a
//! handler call allocates nothing.
//!
//! **Interaction semantics match the micro engine**: a query applies
//! only when *every* pulled response has arrived (a dropped reply aborts
//! the interaction, exactly like the simulator's message-loss fault),
//! and both protocols run the simulators' own per-node rules from
//! [`rapid_core::asynchronous::kernel`]. A rapid tick runs the kernel's
//! first half and advances the clocks; the replies, when they arrive,
//! are applied with
//! [`RapidView::apply`](rapid_core::asynchronous::kernel::RapidView::apply).
//!
//! # Termination beacon
//!
//! A real deployment cannot inspect global state, so convergence is
//! detected by a gossiped **beacon**: a gossip node raises it after
//! enough consecutive interactions in which every sampled neighbor
//! agreed with it (a rapid node raises it when its schedule halts), then
//! announces it with [`Payload::Opinion`] pushes; beacons also piggyback
//! on every reply. Seeing a peer's beacon for one's own color halves the
//! remaining stability requirement, so quiescence detection itself
//! spreads epidemically. The cluster supervisor aggregates per-node
//! beacon flags — local state only — to decide when to stop the world.

use std::sync::Arc;

use rapid_core::asynchronous::kernel::{GossipRule, Peer, Step, MAX_PULLS};
use rapid_core::asynchronous::node::NodeState;
use rapid_core::asynchronous::schedule::{Action, Schedule};
use rapid_core::asynchronous::AsyncProtocol;
use rapid_core::opinion::Color;
use rapid_graph::topology::Topology;
use rapid_sim::node::NodeId;
use rapid_sim::poisson::sample_exponential;
use rapid_sim::rng::{Seed, SimRng};

use crate::codec::{Envelope, Payload};

/// How many random peers a freshly raised beacon is pushed to.
const BEACON_FANOUT: usize = 2;

/// Most pending queries a node keeps; the oldest is evicted beyond this
/// (a query whose replies were lost would otherwise leak forever).
const PENDING_CAP: usize = 32;

/// The default number of consecutive all-agreeing interactions before a
/// gossip node raises its termination beacon.
pub fn default_beacon_threshold(n: usize) -> u32 {
    ((3.0 * (n.max(2) as f64).ln()).ceil() as u32).max(8)
}

/// A query in flight: `want` requests tagged with one sequence number.
#[derive(Debug)]
struct Pending {
    seq: u64,
    /// The rapid action the replies complete (unread by gossip machines).
    action: Action,
    want: usize,
    /// The peer each request went to; a peer sampled twice holds two
    /// slots.
    peers: [u32; MAX_PULLS],
    /// Bit `j` is set once the peer in slot `j` has replied.
    answered: u8,
    /// Replies in arrival order: the first `answered.count_ones()` are
    /// filled.
    replies: [Peer; MAX_PULLS],
    /// The node's real time when the query was issued (Sync Gadget).
    issued_rt: u64,
}

impl Pending {
    /// Records `reply` from `src` if `src` holds an unanswered slot of
    /// this query, and returns whether the query is now complete. A reply
    /// from a peer the query never asked, or a second copy of one already
    /// counted, is ignored.
    fn accept(&mut self, src: u32, reply: Peer) -> bool {
        let Some(slot) =
            (0..self.want).find(|&j| self.peers[j] == src && self.answered & (1 << j) == 0)
        else {
            return false;
        };
        self.replies[self.answered.count_ones() as usize] = reply;
        self.answered |= 1 << slot;
        self.answered.count_ones() as usize == self.want
    }
}

/// Protocol-specific state.
#[derive(Debug)]
enum Proto {
    Gossip(GossipRule),
    Rapid {
        schedule: Schedule,
        state: NodeState,
    },
}

/// One node's complete runtime state machine.
pub struct NodeMachine {
    id: u32,
    topology: Arc<dyn Topology + Send + Sync>,
    rng: SimRng,
    rate: f64,
    color: Color,
    proto: Proto,
    next_seq: u64,
    pending: Vec<Pending>,
    /// Own activations performed (the gossip node's "real time").
    ticks: u64,
    /// Consecutive all-agreeing completed interactions.
    stable: u32,
    threshold: u32,
    /// Whether a peer's beacon for this node's color has been seen.
    boosted: bool,
    beacon: bool,
}

impl std::fmt::Debug for NodeMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMachine")
            .field("id", &self.id)
            .field("color", &self.color)
            .field("ticks", &self.ticks)
            .field("beacon", &self.beacon)
            .finish_non_exhaustive()
    }
}

impl NodeMachine {
    /// Boots one node: its id, the shared topology view, its initial
    /// opinion, the protocol (cloned, so a Rapid schedule stays shared),
    /// the local Poisson clock rate, and its own RNG stream (derived per
    /// node by the cluster).
    pub fn new(
        id: u32,
        topology: Arc<dyn Topology + Send + Sync>,
        color: Color,
        protocol: &AsyncProtocol,
        rate: f64,
        seed: Seed,
        beacon_threshold: u32,
    ) -> Self {
        let proto = match protocol {
            AsyncProtocol::Gossip(rule) => Proto::Gossip(*rule),
            AsyncProtocol::Rapid(schedule) => Proto::Rapid {
                schedule: schedule.clone(),
                state: NodeState::new(),
            },
        };
        NodeMachine {
            id,
            topology,
            rng: SimRng::from_seed_value(seed),
            rate,
            color,
            proto,
            next_seq: 0,
            pending: Vec::new(),
            ticks: 0,
            stable: 0,
            threshold: beacon_threshold.max(1),
            boosted: false,
            beacon: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current opinion.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Whether the termination beacon is raised.
    pub fn beacon(&self) -> bool {
        self.beacon
    }

    /// Whether the node has halted (rapid schedules only).
    pub fn halted(&self) -> bool {
        match &self.proto {
            Proto::Gossip(_) => false,
            Proto::Rapid { state, .. } => state.halted,
        }
    }

    /// Own activations performed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Draws the exponential gap (time units) to this node's next
    /// activation from its own RNG stream — the local Poisson clock.
    pub fn sample_gap(&mut self) -> f64 {
        sample_exponential(&mut self.rng, self.rate)
    }

    /// Samples one pull target from the topology.
    fn sample_peer(&mut self) -> u32 {
        self.topology
            .sample_neighbor(NodeId::new(self.id as usize), &mut self.rng)
            .index() as u32
    }

    /// Issues a `want`-pull query: one request frame per sampled peer,
    /// all tagged with the same fresh sequence number.
    fn issue(&mut self, action: Action, want: usize, issued_rt: u64, out: &mut Vec<Envelope>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.pending.len() >= PENDING_CAP {
            self.pending.remove(0);
        }
        let mut peers = [0; MAX_PULLS];
        for peer in &mut peers[..want] {
            *peer = self.sample_peer();
            out.push(Envelope {
                src: self.id,
                dst: *peer,
                seq,
                payload: Payload::PullRequest {
                    beacon: self.beacon,
                },
            });
        }
        self.pending.push(Pending {
            seq,
            action,
            want,
            peers,
            answered: 0,
            // Unanswered slots are never read.
            replies: [Peer::default(); MAX_PULLS],
            issued_rt,
        });
    }

    /// Raises the beacon (idempotent) and pushes it to a few peers.
    fn raise_beacon(&mut self, out: &mut Vec<Envelope>) {
        if self.beacon {
            return;
        }
        self.beacon = true;
        for _ in 0..BEACON_FANOUT {
            let dst = self.sample_peer();
            let seq = self.next_seq;
            self.next_seq += 1;
            out.push(Envelope {
                src: self.id,
                dst,
                seq,
                payload: Payload::Opinion {
                    color: self.color.index() as u32,
                    beacon: true,
                },
            });
        }
    }

    /// Notes a peer's raised beacon: for this node's own color it halves
    /// the remaining stability requirement.
    fn observe_beacon(&mut self, color: Color, beacon: bool) {
        if beacon && color == self.color {
            self.boosted = true;
        }
    }

    /// The stability target currently in force.
    fn effective_threshold(&self) -> u32 {
        if self.boosted {
            (self.threshold / 2).max(1)
        } else {
            self.threshold
        }
    }

    /// One local Poisson-clock activation. Appends the frames it sends
    /// (pull requests, beacon pushes) to `out`.
    pub fn on_tick(&mut self, out: &mut Vec<Envelope>) {
        self.ticks += 1;
        let (action, pulls, issued_rt) = match &mut self.proto {
            Proto::Gossip(rule) => (Action::Wait, rule.pulls(), 0),
            Proto::Rapid { schedule, state } => {
                let issued_rt = state.real_time;
                let mut node = state.view();
                let Step::Apply { action, pulls } = node.begin(schedule) else {
                    return;
                };
                // The clocks advance now; the pulls resolve when their
                // replies arrive (see `complete`).
                let effect = node.finish(schedule, action, (pulls == 0).then_some(&[]));
                if let Some(c) = effect.recolor {
                    self.color = c;
                }
                if effect.halted {
                    self.raise_beacon(out);
                }
                if action == Action::TwoChoicesSample {
                    // Queries from the previous phase are stale now.
                    self.pending.clear();
                }
                (action, pulls, issued_rt)
            }
        };
        if pulls > 0 {
            self.issue(action, pulls, issued_rt, out);
        }
    }

    /// Handles one inbound frame addressed to this node. Appends the
    /// frames it sends (replies, beacon pushes) to `out`.
    ///
    /// A reply counts toward a pending query only if it echoes the
    /// query's `seq` and comes from a peer the query asked whose request
    /// is still unanswered; duplicated or stray replies are ignored.
    pub fn on_message(&mut self, env: &Envelope, out: &mut Vec<Envelope>) {
        match env.payload {
            Payload::PullRequest { beacon: _ } => {
                let (bit, real_time) = match &self.proto {
                    Proto::Gossip(_) => (false, self.ticks),
                    Proto::Rapid { state, .. } => (state.bit, state.real_time),
                };
                out.push(Envelope {
                    src: self.id,
                    dst: env.src,
                    seq: env.seq,
                    payload: Payload::PullReply {
                        color: self.color.index() as u32,
                        bit,
                        beacon: self.beacon,
                        real_time,
                    },
                });
            }
            Payload::PullReply {
                color,
                bit,
                beacon,
                real_time,
            } => {
                let color = Color::new(color as usize);
                self.observe_beacon(color, beacon);
                let reply = Peer {
                    color,
                    bit,
                    real_time,
                };
                if let Some(i) = self.pending.iter().position(|p| p.seq == env.seq) {
                    if self.pending[i].accept(env.src, reply) {
                        let query = self.pending.swap_remove(i);
                        self.complete(query, out);
                    }
                }
            }
            Payload::Opinion { color, beacon } => {
                self.observe_beacon(Color::new(color as usize), beacon);
            }
        }
    }

    /// Applies a completed query — the protocol's decision step.
    fn complete(&mut self, query: Pending, out: &mut Vec<Envelope>) {
        let replies = &query.replies[..query.want];
        let old = self.color;
        match &mut self.proto {
            Proto::Gossip(rule) => {
                let colors = query.replies.map(|r| r.color);
                self.color = rule.decide(old, &colors[..query.want]);
            }
            Proto::Rapid { schedule, state } => {
                let effect =
                    state
                        .view()
                        .apply(schedule, query.action, Some(replies), query.issued_rt);
                if let Some(c) = effect.recolor {
                    self.color = c;
                }
            }
        }

        // Stability bookkeeping (gossip termination): an interaction in
        // which nothing changed and every sampled neighbor already agreed
        // is one step of evidence that the network has converged.
        if matches!(self.proto, Proto::Gossip(_)) {
            if self.color == old && replies.iter().all(|r| r.color == old) {
                self.stable = self.stable.saturating_add(1);
                if self.stable >= self.effective_threshold() {
                    self.raise_beacon(out);
                }
            } else {
                self.stable = 0;
                if self.color != old {
                    self.beacon = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::asynchronous::GossipRule;
    use rapid_graph::complete::Complete;

    fn machine(id: u32, color: usize, rule: GossipRule) -> NodeMachine {
        NodeMachine::new(
            id,
            Arc::new(Complete::new(8)),
            Color::new(color),
            &AsyncProtocol::Gossip(rule),
            1.0,
            Seed::new(7).child(id as u64),
            4,
        )
    }

    fn reply_to(req: &Envelope, color: usize, beacon: bool) -> Envelope {
        Envelope {
            src: req.dst,
            dst: req.src,
            seq: req.seq,
            payload: Payload::PullReply {
                color: color as u32,
                bit: false,
                beacon,
                real_time: 0,
            },
        }
    }

    /// One activation; returns what it sent.
    fn tick(m: &mut NodeMachine) -> Vec<Envelope> {
        let mut out = Vec::new();
        m.on_tick(&mut out);
        out
    }

    /// Delivers one frame; returns what the machine sent in response.
    fn deliver(m: &mut NodeMachine, env: &Envelope) -> Vec<Envelope> {
        let mut out = Vec::new();
        m.on_message(env, &mut out);
        out
    }

    /// Ticks until the two requests of one Two-Choices query go to
    /// distinct peers (`distinct`) or to the same peer twice.
    fn two_choices_query(m: &mut NodeMachine, distinct: bool) -> Vec<Envelope> {
        loop {
            let out = tick(m);
            if (out[0].dst != out[1].dst) == distinct {
                return out;
            }
        }
    }

    #[test]
    fn voter_adopts_the_single_reply() {
        let mut m = machine(0, 0, GossipRule::Voter);
        let out = tick(&mut m);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::PullRequest { .. }));
        deliver(&mut m, &reply_to(&out[0], 1, false));
        assert_eq!(m.color(), Color::new(1));
    }

    #[test]
    fn two_choices_requires_agreement() {
        let mut m = machine(0, 0, GossipRule::TwoChoices);
        let out = tick(&mut m);
        assert_eq!(out.len(), 2);
        deliver(&mut m, &reply_to(&out[0], 1, false));
        deliver(&mut m, &reply_to(&out[1], 2, false));
        assert_eq!(m.color(), Color::new(0), "disagreeing pair is a no-op");

        let out = tick(&mut m);
        deliver(&mut m, &reply_to(&out[0], 2, false));
        deliver(&mut m, &reply_to(&out[1], 2, false));
        assert_eq!(m.color(), Color::new(2));
    }

    #[test]
    fn pull_requests_are_answered_with_the_current_color() {
        let mut m = machine(3, 2, GossipRule::Voter);
        let req = Envelope {
            src: 5,
            dst: 3,
            seq: 9,
            payload: Payload::PullRequest { beacon: false },
        };
        let out = deliver(&mut m, &req);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 5);
        assert_eq!(out[0].seq, 9);
        assert!(matches!(
            out[0].payload,
            Payload::PullReply { color: 2, .. }
        ));
    }

    #[test]
    fn stale_or_unknown_replies_are_dropped() {
        let mut m = machine(0, 0, GossipRule::Voter);
        let phantom = Envelope {
            src: 1,
            dst: 0,
            seq: 999,
            payload: Payload::PullReply {
                color: 1,
                bit: false,
                beacon: false,
                real_time: 0,
            },
        };
        deliver(&mut m, &phantom);
        assert_eq!(m.color(), Color::new(0));
    }

    #[test]
    fn a_duplicated_reply_fills_one_slot_only() {
        let mut m = machine(0, 0, GossipRule::TwoChoices);
        let out = two_choices_query(&mut m, true);
        let first = reply_to(&out[0], 1, false);
        deliver(&mut m, &first);
        deliver(&mut m, &first);
        assert_eq!(
            m.color(),
            Color::new(0),
            "one peer's reply twice is not two agreeing choices"
        );
        deliver(&mut m, &reply_to(&out[1], 1, false));
        assert_eq!(m.color(), Color::new(1), "the second peer completes it");
    }

    #[test]
    fn a_reply_from_a_peer_never_asked_is_dropped() {
        let mut m = machine(0, 0, GossipRule::Voter);
        let out = tick(&mut m);
        let stranger = Envelope {
            src: (out[0].dst + 1) % 8,
            ..reply_to(&out[0], 1, false)
        };
        deliver(&mut m, &stranger);
        assert_eq!(m.color(), Color::new(0), "a stray reply echoing the seq");
        deliver(&mut m, &reply_to(&out[0], 2, false));
        assert_eq!(m.color(), Color::new(2), "the asked peer's reply applies");
    }

    #[test]
    fn a_peer_sampled_twice_answers_both_slots() {
        let mut m = machine(0, 0, GossipRule::TwoChoices);
        let out = two_choices_query(&mut m, false);
        deliver(&mut m, &reply_to(&out[0], 1, false));
        assert_eq!(m.color(), Color::new(0));
        deliver(&mut m, &reply_to(&out[1], 1, false));
        assert_eq!(m.color(), Color::new(1));
    }

    #[test]
    fn beacon_rises_after_stable_agreement_and_falls_on_change() {
        let mut m = machine(0, 0, GossipRule::Voter);
        for _ in 0..4 {
            let out = tick(&mut m);
            deliver(&mut m, &reply_to(&out[0], 0, false));
        }
        assert!(m.beacon(), "threshold 4 reached");
        // A color change revokes the beacon.
        let out = tick(&mut m);
        deliver(&mut m, &reply_to(&out[0], 1, false));
        assert!(!m.beacon());
        assert_eq!(m.color(), Color::new(1));
    }

    #[test]
    fn observed_beacon_halves_the_threshold() {
        let mut m = machine(0, 0, GossipRule::Voter);
        let opinion = Envelope {
            src: 2,
            dst: 0,
            seq: 0,
            payload: Payload::Opinion {
                color: 0,
                beacon: true,
            },
        };
        deliver(&mut m, &opinion);
        for _ in 0..2 {
            let out = tick(&mut m);
            deliver(&mut m, &reply_to(&out[0], 0, false));
        }
        assert!(m.beacon(), "boosted threshold 4/2 = 2 reached");
    }

    #[test]
    fn raised_beacon_is_pushed_as_opinions() {
        let mut m = machine(0, 0, GossipRule::Voter);
        let mut pushes = 0;
        for _ in 0..4 {
            let out = tick(&mut m);
            let replies = deliver(&mut m, &reply_to(&out[0], 0, false));
            pushes += replies
                .iter()
                .filter(|e| matches!(e.payload, Payload::Opinion { beacon: true, .. }))
                .count();
        }
        assert_eq!(pushes, BEACON_FANOUT);
    }

    #[test]
    fn rapid_machine_halts_by_schedule_and_raises_the_beacon() {
        use rapid_core::asynchronous::Params;
        let params = Params::for_network(8, 2);
        let mut m = NodeMachine::new(
            0,
            Arc::new(Complete::new(8)),
            Color::new(0),
            &AsyncProtocol::Rapid(Schedule::new(params)),
            1.0,
            Seed::new(1),
            8,
        );
        // Drive the machine alone past its whole schedule: with no
        // replies ever arriving every pull aborts, and the node still
        // walks working time to the halt slot.
        for _ in 0..params.total_len() + 2 {
            tick(&mut m);
        }
        assert!(m.halted());
        assert!(m.beacon());
        // A halted node still answers pulls with its frozen color.
        let req = Envelope {
            src: 1,
            dst: 0,
            seq: 1,
            payload: Payload::PullRequest { beacon: false },
        };
        assert_eq!(deliver(&mut m, &req).len(), 1);
    }

    #[test]
    fn sample_gap_is_positive_and_seed_dependent() {
        let mut a = machine(0, 0, GossipRule::Voter);
        let mut b = machine(1, 0, GossipRule::Voter);
        let ga = a.sample_gap();
        assert!(ga > 0.0);
        assert_ne!(ga, b.sample_gap(), "distinct per-node streams");
    }
}
