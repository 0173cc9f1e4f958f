//! The per-node protocol kernel: every protocol rule, written once.
//!
//! The paper defines its protocols per node: on each tick a node pulls
//! from sampled neighbors and updates from what it pulled. This module is
//! that definition, as pure functions over one node's state. Every engine
//! calls it — the synchronous rounds, [`SeqSim`], [`ShardedSim`] and the
//! rapid-net `NodeMachine` — and keeps only its *pull resolver* (where a
//! pulled peer's state comes from) and its own bookkeeping:
//!
//! | engine | resolver |
//! |---|---|
//! | synchronous rounds | the round-start snapshot |
//! | [`SeqSim`] | live state, voided by the crash/loss veto |
//! | [`ShardedSim`] | the epoch snapshot, or the clique histogram |
//! | `NodeMachine` | the replies that arrive |
//!
//! The last three are per-node engines; each runs one [`AsyncProtocol`].
//!
//! * **Gossip** — [`GossipRule::pulls`] says how many peers one
//!   activation pulls, [`GossipRule::decide`] maps the node's own color
//!   and the pulled colors to its next color.
//! * **Rapid** — one activation in two halves over a [`RapidView`].
//!   [`RapidView::begin`] decodes the action and its pull count and
//!   applies the phase-entry reset; a tick that changes only the clocks,
//!   such as a Wait, ends there. [`RapidView::finish`] applies the action
//!   to the pulled peers (or to a voided pull) and advances the clocks.
//!   The simulators call both halves in one tick. A deployment cannot:
//!   its replies arrive later, so it advances the clocks at the tick and
//!   applies the replies with [`RapidView::apply`] when they arrive.
//!
//! # Draw-order contract
//!
//! The engines' outcomes stay bit-identical only because they consume
//! randomness in the same order:
//!
//! 1. a resolver is called once per pull, in pull order, even after an
//!    earlier pull was voided (`resolve_all`);
//! 2. pulls are resolved after [`RapidView::begin`] and before the clocks
//!    advance in [`RapidView::finish`];
//! 3. a Sync-Gadget sample records the node's real time when the pull was
//!    issued.
//!
//! [`SeqSim`]: crate::asynchronous::SeqSim
//! [`ShardedSim`]: crate::asynchronous::ShardedSim

use crate::asynchronous::schedule::{Action, Schedule};
use crate::opinion::Color;

/// Most peers one activation pulls (3-Majority).
pub const MAX_PULLS: usize = 3;

/// Sentinel for "no intermediate color" in `RapidView::intermediate`.
pub(crate) const NO_COLOR: u32 = u32::MAX;

/// Sentinel for "never jumped" in `RapidView::last_jump_phase`.
pub(crate) const NO_PHASE: u32 = u32::MAX;

/// The update rule applied on each tick, or to every node in each
/// synchronous round (it is a [`SyncProtocol`](crate::sync::SyncProtocol)).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GossipRule {
    /// Sample one neighbor, adopt its color.
    Voter,
    /// Sample two neighbors (with replacement); adopt iff they agree.
    TwoChoices,
    /// Sample three; adopt the majority, or the first sample if all differ.
    ThreeMajority,
}

impl GossipRule {
    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            GossipRule::Voter => "async-voter",
            GossipRule::TwoChoices => "async-two-choices",
            GossipRule::ThreeMajority => "async-3-majority",
        }
    }

    /// How many neighbors one activation pulls.
    #[inline]
    pub fn pulls(self) -> usize {
        match self {
            GossipRule::Voter => 1,
            GossipRule::TwoChoices => 2,
            GossipRule::ThreeMajority => 3,
        }
    }

    /// The node's next color, from its own color and the colors it
    /// pulled, in pull order.
    ///
    /// # Panics
    ///
    /// Panics if `pulled` holds fewer than [`pulls`](Self::pulls) colors.
    #[inline]
    pub fn decide(self, own: Color, pulled: &[Color]) -> Color {
        let a = pulled[0];
        match self {
            GossipRule::Voter => a,
            GossipRule::TwoChoices if a == pulled[1] => a,
            GossipRule::TwoChoices => own,
            GossipRule::ThreeMajority => {
                let (b, c) = (pulled[1], pulled[2]);
                if a == b || a == c {
                    a
                } else if b == c {
                    b
                } else {
                    a // all distinct: the first sample wins
                }
            }
        }
    }
}

impl std::fmt::Display for GossipRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The protocol a per-node engine runs: the sequential engine, the epoch
/// engine or a rapid-net `NodeMachine`. Clones share a Rapid schedule's
/// action table.
#[derive(Clone, Debug)]
pub enum AsyncProtocol {
    /// Plain asynchronous gossip under one rule.
    Gossip(GossipRule),
    /// The paper's full protocol, driven by a working-time schedule.
    Rapid(Schedule),
}

impl AsyncProtocol {
    /// A conservative activation budget for `n` nodes: three times the
    /// protocol length for every node under Rapid (saturating at
    /// `u64::MAX`), `200·n·(ln n + 1)` under a gossip rule.
    pub fn default_step_budget(&self, n: usize) -> u64 {
        let n = n as u64;
        match self {
            AsyncProtocol::Gossip(_) => {
                let ln_n = (n.max(2) as f64).ln();
                (n as f64 * (ln_n + 1.0) * 200.0) as u64
            }
            AsyncProtocol::Rapid(schedule) => 3u64
                .saturating_mul(n)
                .saturating_mul(schedule.params().total_len()),
        }
    }
}

/// Resolves every slot of `pulled` in order — each one, even after an
/// earlier pull was voided, so a resolver's random draws never depend on
/// which pulls survive — and returns whether all of them arrived.
#[inline]
pub(crate) fn resolve_all<T>(pulled: &mut [T], mut resolve: impl FnMut() -> Option<T>) -> bool {
    let mut all = true;
    for slot in pulled {
        match resolve() {
            Some(peer) => *slot = peer,
            None => all = false,
        }
    }
    all
}

/// What a Rapid pull returns: the pulled peer's visible state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Peer {
    /// The peer's color.
    pub color: Color,
    /// The peer's propagation bit.
    pub bit: bool,
    /// The peer's real time (total ticks performed).
    pub real_time: u64,
}

impl Default for Peer {
    fn default() -> Self {
        Peer {
            color: Color::new(0),
            bit: false,
            real_time: 0,
        }
    }
}

/// What the first half of a Rapid activation leaves to do.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Nothing: the activation changed only the clocks and is complete.
    Done(Action),
    /// Resolve `pulls` pulls (possibly none), then apply `action` with
    /// [`RapidView::finish`].
    Apply {
        /// The action at the node's working time.
        action: Action,
        /// How many peers it pulls.
        pulls: usize,
    },
}

/// What one Rapid step changed that the engine keeps its books on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Effect {
    /// The node's new color, if the step colored it.
    pub recolor: Option<Color>,
    /// The working-time displacement of a Sync-Gadget jump, if one
    /// happened.
    pub jump: Option<u64>,
    /// Whether the node halted in this step.
    pub halted: bool,
}

/// One node's Rapid state, borrowed field by field — from a
/// [`NodeState`](crate::asynchronous::NodeState) or from one row of the
/// epoch engine's struct-of-arrays. The node's color lives with the
/// engine, which applies [`Effect::recolor`].
#[derive(Debug)]
pub struct RapidView<'a> {
    /// Working time: the schedule position; jumped by the Sync Gadget.
    pub(crate) working_time: &'a mut u64,
    /// Real time: total ticks performed; never rewritten.
    pub(crate) real_time: &'a mut u64,
    /// The Two-Choices intermediate color's index, or `NO_COLOR`.
    pub(crate) intermediate: &'a mut u32,
    /// The extra bit of the memory model.
    pub(crate) bit: &'a mut bool,
    /// The phase of the node's last jump, or `NO_PHASE`.
    pub(crate) last_jump_phase: &'a mut u32,
    /// Whether the node has finished part 2 and frozen its color.
    pub(crate) halted: &'a mut bool,
    /// Sync-Gadget samples `(their_real_time, my_real_time_at_issue)`.
    pub(crate) samples: &'a mut Vec<(u64, u64)>,
}

impl RapidView<'_> {
    /// The first half of an activation: decodes the action at the node's
    /// working time and how many peers it pulls, and applies the
    /// phase-entry reset. An activation that changes nothing but the
    /// clocks — a Wait, a Bit-Propagation tick of a node that has the bit,
    /// any tick of a halted node — completes here.
    #[inline]
    pub fn begin(&mut self, schedule: &Schedule) -> Step {
        if *self.halted {
            *self.real_time += 1;
            return Step::Done(Action::Halt);
        }
        let action = schedule.action_at(*self.working_time);
        let pulls = match action {
            Action::Wait => return self.idle(action),
            Action::BitPropagation if *self.bit => return self.idle(action),
            Action::TwoChoicesSample => {
                *self.intermediate = NO_COLOR;
                *self.bit = false;
                self.samples.clear();
                2
            }
            Action::Endgame => 2,
            Action::BitPropagation | Action::SyncSample => 1,
            Action::Commit | Action::Jump | Action::Halt => 0,
        };
        Step::Apply { action, pulls }
    }

    /// Completes an activation that changes nothing but the clocks.
    #[inline]
    fn idle(&mut self, action: Action) -> Step {
        *self.working_time += 1;
        *self.real_time += 1;
        Step::Done(action)
    }

    /// The second half of an activation: applies `action` to the pulled
    /// peers — `None` if a pull was voided — then advances the clocks.
    #[inline]
    pub fn finish(
        &mut self,
        schedule: &Schedule,
        action: Action,
        pulled: Option<&[Peer]>,
    ) -> Effect {
        let effect = self.apply(schedule, action, pulled, *self.real_time);
        if effect.jump.is_none() {
            *self.working_time += 1;
        }
        *self.real_time += 1;
        effect
    }

    /// Applies `action` to the pulled peers without advancing the clocks;
    /// `issued_rt` is the node's real time when it issued the pulls.
    #[inline]
    pub fn apply(
        &mut self,
        schedule: &Schedule,
        action: Action,
        pulled: Option<&[Peer]>,
        issued_rt: u64,
    ) -> Effect {
        let mut effect = Effect::default();
        match (action, pulled) {
            (Action::TwoChoicesSample, Some(&[a, b])) if a.color == b.color => {
                *self.intermediate = a.color.index() as u32;
            }
            (Action::Commit, _) => {
                *self.bit = *self.intermediate != NO_COLOR;
                if *self.bit {
                    effect.recolor = Some(Color::new(*self.intermediate as usize));
                    *self.intermediate = NO_COLOR;
                }
            }
            (Action::BitPropagation, Some(&[p])) if !*self.bit && p.bit => {
                *self.bit = true;
                effect.recolor = Some(p.color);
            }
            (Action::SyncSample, Some(&[p])) => self.samples.push((p.real_time, issued_rt)),
            (Action::Jump, _) => effect.jump = self.jump(schedule),
            (Action::Endgame, Some(&[a, b])) if a.color == b.color => {
                effect.recolor = Some(a.color);
            }
            (Action::Halt, _) => {
                *self.halted = true;
                effect.halted = true;
            }
            _ => {}
        }
        effect
    }

    /// The Sync Gadget's jump, at most once per phase: sets the working
    /// time to the median real-time estimate and returns the
    /// displacement, or `None` without samples or after an earlier jump
    /// in this phase.
    fn jump(&mut self, schedule: &Schedule) -> Option<u64> {
        let phase = schedule.phase_of(*self.working_time);
        if *self.last_jump_phase == phase {
            return None;
        }
        let target = median_estimate(self.samples, *self.real_time)?;
        let from = std::mem::replace(self.working_time, target);
        *self.last_jump_phase = phase;
        Some(from.abs_diff(target))
    }
}

/// The Sync Gadget's median estimate of the population's real time, as of
/// real time `now`: each sample `(T_v, r_u)` is extrapolated to
/// `T_v + (now − r_u)` (the sampled clock kept ticking at unit rate), and
/// the upper median is taken — in place, by selection, so a jump
/// allocates nothing. The samples are reordered; their multiset, and so
/// every later median, is unchanged.
///
/// The paper increments every collected sample once per own tick until
/// the jump; recording the local tick of collection and adding the
/// elapsed ticks here is arithmetically identical and O(1) per tick.
///
/// Returns `None` if no samples were collected.
fn median_estimate(samples: &mut [(u64, u64)], now: u64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let estimate = |&(t_v, r_u): &(u64, u64)| t_v + (now - r_u);
    let (_, median, _) = samples.select_nth_unstable_by_key(samples.len() / 2, estimate);
    Some(estimate(median))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::node::NodeState;
    use crate::asynchronous::params::Params;

    const ALL_ACTIONS: [Action; 8] = [
        Action::TwoChoicesSample,
        Action::Wait,
        Action::Commit,
        Action::BitPropagation,
        Action::SyncSample,
        Action::Jump,
        Action::Endgame,
        Action::Halt,
    ];

    fn c(i: usize) -> Color {
        Color::new(i)
    }

    #[test]
    fn gossip_rules_decide_as_the_literature_defines_them() {
        let own = c(9);
        assert_eq!(GossipRule::Voter.decide(own, &[c(1)]), c(1));
        assert_eq!(GossipRule::TwoChoices.decide(own, &[c(1), c(1)]), c(1));
        assert_eq!(GossipRule::TwoChoices.decide(own, &[c(1), c(2)]), own);
        let three = GossipRule::ThreeMajority;
        assert_eq!(three.decide(own, &[c(1), c(1), c(2)]), c(1));
        assert_eq!(three.decide(own, &[c(1), c(2), c(1)]), c(1));
        assert_eq!(three.decide(own, &[c(2), c(1), c(1)]), c(1));
        assert_eq!(three.decide(own, &[c(3), c(1), c(2)]), c(3), "first sample");
        for rule in [GossipRule::Voter, GossipRule::TwoChoices, three] {
            assert_eq!(rule.decide(own, &[c(4); MAX_PULLS][..rule.pulls()]), c(4));
        }
    }

    #[test]
    fn every_pull_is_resolved_even_after_a_voided_one() {
        let mut calls = 0;
        let mut pulled = [0; 3];
        let all = resolve_all(&mut pulled, || {
            calls += 1;
            (calls != 1).then_some(calls)
        });
        assert!(!all);
        assert_eq!(calls, 3);
        assert_eq!(pulled, [0, 2, 3]);
    }

    #[test]
    fn median_extrapolates_elapsed_ticks() {
        // Sampled T_v = 100 when my clock read 4: estimate 100 + (10-4) = 106.
        assert_eq!(median_estimate(&mut [(100, 4)], 10), Some(106));
        assert_eq!(median_estimate(&mut [], 10), None);
    }

    #[test]
    fn median_of_odd_sample_count() {
        assert_eq!(
            median_estimate(&mut [(30, 0), (10, 0), (20, 0)], 0),
            Some(20)
        );
        // Even counts take the upper median, as sort-then-index did.
        assert_eq!(
            median_estimate(&mut [(7, 0), (1, 0), (5, 0), (3, 0)], 0),
            Some(5)
        );
    }

    /// The actions on which the kernel ever recolors the node are exactly
    /// those reporting [`Action::changes_color`]: the sequential engine
    /// checks unanimity only after those actions.
    #[test]
    fn only_actions_that_report_changes_color_recolor() {
        let schedule = Schedule::new(Params::for_network(1 << 10, 4));
        let jump_slot = schedule.params().phase_len() - 1;
        let peers = [false, true].map(|bit| Peer {
            color: c(2),
            bit,
            real_time: 3,
        });
        let mut recoloring = Vec::new();
        for action in ALL_ACTIONS {
            for (intermediate, bit) in [(NO_COLOR, false), (NO_COLOR, true), (1, false), (1, true)]
            {
                for pulled in [
                    None,
                    Some(&[][..]),
                    Some(&peers[..1]),
                    Some(&peers[1..]),
                    Some(&[peers[0]; 2][..]),
                ] {
                    let mut s = NodeState::new();
                    s.working_time = jump_slot;
                    s.intermediate = intermediate;
                    s.bit = bit;
                    s.samples.push((jump_slot, 0));
                    let effect = s.view().finish(&schedule, action, pulled);
                    if effect.recolor.is_some() && !recoloring.contains(&action) {
                        recoloring.push(action);
                    }
                }
            }
        }
        let reported: Vec<Action> = ALL_ACTIONS
            .into_iter()
            .filter(|a| a.changes_color())
            .collect();
        assert_eq!(recoloring, reported);
    }
}
