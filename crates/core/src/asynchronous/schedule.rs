//! Pure decoding of working time into protocol actions.
//!
//! A node's behaviour at a tick is a **pure function of its working time**
//! `w` — that is what makes "jumping" the working time (the Sync Gadget)
//! meaningful. This module implements that function as data:
//!
//! ```text
//! phase p (length L):    [ Two-Choices ][ Bit-Propagation ][ Sync Gadget ]
//! Two-Choices sub-phase: [buffer Δ][sample @first tick|wait][wait Δ][commit @first tick|wait]
//! Bit-Propagation:       every tick: sample; adopt color+bit from bit-set nodes
//! Sync Gadget:           [s sampling ticks][wait …][jump @last tick of phase]
//! part 2 (endgame):      endgame_ticks of Two-Choices steps, then Halt
//! ```
//!
//! The landing *buffer* block at the start of each phase absorbs the jump's
//! sampling error so that a jumping node almost always lands in a
//! do-nothing region (the paper's "proper waiting time").
//!
//! [`Schedule::new`] writes this layout once into a table of one
//! [`Action`] byte per slot — one phase range by range, copied `phases`
//! times, then the endgame — so decoding a tick is one indexed load.
//! Clones share the table; [`Params::check`] bounds its length by
//! [`Params::MAX_TOTAL_LEN`].

use std::sync::Arc;

use crate::asynchronous::params::Params;

/// What a node does at a given working-time slot.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Action {
    /// Sample two nodes; set the intermediate color iff they agree. Also
    /// clears the bit, the intermediate color and the gadget samples (phase
    /// entry point).
    TwoChoicesSample,
    /// Do nothing (tactical waiting).
    Wait,
    /// Adopt the intermediate color if set; set the bit iff it was set.
    Commit,
    /// If the bit is unset: sample one node; adopt color+bit on success.
    BitPropagation,
    /// Sample one node and record its real time (Sync Gadget).
    SyncSample,
    /// Set working time to the median of the collected real-time estimates.
    Jump,
    /// Part 2: one asynchronous Two-Choices step.
    Endgame,
    /// The protocol is over; freeze the current color.
    Halt,
}

impl Action {
    /// Whether executing this action can change the acting node's color —
    /// the actions after which a unanimity check is worthwhile (pinned
    /// against the kernel's transition by its unit tests).
    pub fn changes_color(self) -> bool {
        matches!(
            self,
            Action::Commit | Action::BitPropagation | Action::Endgame
        )
    }
}

/// A fully resolved working-time schedule.
///
/// # Example
///
/// ```
/// use rapid_core::asynchronous::{Params, Schedule, Action};
/// let params = Params::for_network(1 << 12, 4);
/// let schedule = Schedule::new(params);
/// assert_eq!(schedule.action_at(0), Action::Wait);          // landing buffer
/// assert_eq!(schedule.action_at(params.delta as u64), Action::TwoChoicesSample);
/// ```
#[derive(Clone)]
pub struct Schedule {
    params: Params,
    /// The action at every working time below `params.total_len()`;
    /// shared by every clone.
    actions: Arc<[Action]>,
}

impl Schedule {
    /// Builds a schedule, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if [`Params::validate`] fails.
    pub fn new(params: Params) -> Self {
        params.validate();
        // Validated lengths fit the table's cap, hence `usize`.
        let len = |slots: u64| slots as usize;
        let p = &params;
        let bp_end = len(p.tc_len() + p.bp_len());
        let phase_len = len(p.phase_len());
        let mut actions = Vec::with_capacity(len(p.total_len()));
        actions.resize(len(p.tc_len()), Action::Wait);
        actions[p.delta as usize] = Action::TwoChoicesSample;
        // The commit opens the sub-phase's last block.
        actions[len(p.tc_len()) - p.delta as usize] = Action::Commit;
        actions.resize(bp_end, Action::BitPropagation);
        if p.gadget_enabled {
            actions.resize(bp_end + p.sync_samples as usize, Action::SyncSample);
            actions.resize(phase_len - 1, Action::Wait);
            actions.push(Action::Jump);
        } else {
            actions.resize(phase_len, Action::Wait);
        }
        for _ in 1..p.phases {
            actions.extend_from_within(..phase_len);
        }
        actions.resize(len(p.total_len()), Action::Endgame);
        Schedule {
            params,
            actions: actions.into(),
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The working-time slot of the Two-Choices sample within a phase.
    pub fn tc_sample_offset(&self) -> u64 {
        self.params.delta as u64
    }

    /// The working-time slot of the commit within a phase.
    pub fn commit_offset(&self) -> u64 {
        (self.params.tc_blocks as u64 - 1) * self.params.delta as u64
    }

    /// The phase index of a part-1 working time.
    ///
    /// # Panics
    ///
    /// Panics if `w` is in part 2.
    pub fn phase_of(&self, w: u64) -> u32 {
        assert!(w < self.params.part1_len(), "working time {w} is in part 2");
        (w / self.params.phase_len()) as u32
    }

    /// Decodes the action at working time `w`: its table slot, or
    /// [`Action::Halt`] past the end of the protocol.
    #[inline]
    pub fn action_at(&self, w: u64) -> Action {
        usize::try_from(w)
            .ok()
            .and_then(|w| self.actions.get(w))
            .copied()
            .unwrap_or(Action::Halt)
    }

    /// Counts how many slots of each critical action occur in one phase
    /// (used by tests; `(two_choices, commits, bit_prop, sync_samples,
    /// jumps)`).
    pub fn phase_census(&self) -> (u64, u64, u64, u64, u64) {
        let mut tc = 0;
        let mut commit = 0;
        let mut bp = 0;
        let mut ss = 0;
        let mut jump = 0;
        for w in 0..self.params.phase_len() {
            match self.action_at(w) {
                Action::TwoChoicesSample => tc += 1,
                Action::Commit => commit += 1,
                Action::BitPropagation => bp += 1,
                Action::SyncSample => ss += 1,
                Action::Jump => jump += 1,
                _ => {}
            }
        }
        (tc, commit, bp, ss, jump)
    }
}

// The table is a function of the parameters, so `Debug` prints only
// them.
impl std::fmt::Debug for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schedule")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(n: usize, k: usize) -> Schedule {
        Schedule::new(Params::for_network(n, k))
    }

    /// The arithmetic decode the table replaced: the reference it must
    /// equal on every slot.
    fn reference_action_at(p: &Params, w: u64) -> Action {
        let part1 = p.part1_len();
        if w >= part1 {
            return if w - part1 < p.endgame_ticks as u64 {
                Action::Endgame
            } else {
                Action::Halt
            };
        }
        let o = w % p.phase_len();
        let delta = p.delta as u64;
        let tc_len = p.tc_len();
        let bp_end = tc_len + p.bp_len();

        if o < tc_len {
            if o == delta {
                Action::TwoChoicesSample
            } else if o == (p.tc_blocks as u64 - 1) * delta {
                Action::Commit
            } else {
                Action::Wait
            }
        } else if o < bp_end {
            Action::BitPropagation
        } else {
            let so = o - bp_end;
            if !p.gadget_enabled {
                Action::Wait
            } else if so < p.sync_samples as u64 {
                Action::SyncSample
            } else if o == p.phase_len() - 1 {
                Action::Jump
            } else {
                Action::Wait
            }
        }
    }

    #[test]
    fn table_equals_the_arithmetic_decode_on_every_slot() {
        for n in [4usize, 1 << 10, 1 << 12, 1 << 20] {
            for k in [2usize, 8, 1024] {
                for eps in [0.1, 0.5, 10.0] {
                    let on = Params::for_network_with_eps(n, k, eps);
                    for p in [on, on.without_gadget()] {
                        let s = Schedule::new(p);
                        for w in 0..p.total_len() + 2 {
                            assert_eq!(
                                s.action_at(w),
                                reference_action_at(&p, w),
                                "slot {w} of {p:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clones_share_one_table_and_debug_prints_the_params() {
        let s = schedule(1 << 12, 4);
        let t = s.clone();
        assert!(Arc::ptr_eq(&s.actions, &t.actions));
        assert_eq!(std::mem::size_of::<Action>(), 1, "one byte per slot");
        assert_eq!(s.actions.len() as u64, s.params().total_len());
        let debug = format!("{s:?}");
        assert!(debug.starts_with("Schedule { params: Params {"), "{debug}");
    }

    #[test]
    fn each_phase_has_exactly_one_of_each_critical_slot() {
        for &(n, k) in &[(1usize << 10, 2usize), (1 << 14, 16), (1 << 20, 64)] {
            let s = schedule(n, k);
            let (tc, commit, bp, ss, jump) = s.phase_census();
            assert_eq!(tc, 1, "one Two-Choices sample per phase");
            assert_eq!(commit, 1, "one commit per phase");
            assert_eq!(bp, s.params().bp_len(), "every BP tick samples");
            assert_eq!(ss, s.params().sync_samples as u64);
            assert_eq!(jump, 1, "one jump per phase");
        }
    }

    #[test]
    fn sample_strictly_before_commit_with_waiting_between() {
        let s = schedule(1 << 12, 8);
        assert!(s.tc_sample_offset() < s.commit_offset());
        // At least one full block of waiting separates them.
        assert!(s.commit_offset() - s.tc_sample_offset() >= s.params().delta as u64);
    }

    #[test]
    fn phase_starts_with_landing_buffer() {
        let s = schedule(1 << 12, 8);
        for w in 0..s.params().delta as u64 {
            assert_eq!(s.action_at(w), Action::Wait, "slot {w} must be buffer");
        }
    }

    #[test]
    fn jump_is_last_slot_of_every_phase() {
        let s = schedule(1 << 12, 8);
        let l = s.params().phase_len();
        for p in 0..s.params().phases as u64 {
            assert_eq!(s.action_at(p * l + l - 1), Action::Jump);
        }
    }

    #[test]
    fn schedule_repeats_across_phases() {
        let s = schedule(1 << 12, 4);
        let l = s.params().phase_len();
        for w in 0..l {
            assert_eq!(s.action_at(w), s.action_at(w + l), "slot {w}");
            assert_eq!(s.action_at(w), s.action_at(w + 3 * l), "slot {w}");
        }
    }

    #[test]
    fn endgame_then_halt() {
        let s = schedule(1 << 12, 4);
        let part1 = s.params().part1_len();
        assert_eq!(s.action_at(part1), Action::Endgame);
        assert_eq!(
            s.action_at(part1 + s.params().endgame_ticks as u64 - 1),
            Action::Endgame
        );
        assert_eq!(
            s.action_at(part1 + s.params().endgame_ticks as u64),
            Action::Halt
        );
        assert_eq!(s.action_at(u64::MAX / 2), Action::Halt);
    }

    #[test]
    fn gadget_ablation_replaces_sync_with_waiting() {
        let p = Params::for_network(1 << 12, 4).without_gadget();
        let s = Schedule::new(p);
        let (tc, commit, bp, ss, jump) = s.phase_census();
        assert_eq!((tc, commit), (1, 1));
        assert_eq!(bp, s.params().bp_len());
        assert_eq!(ss, 0, "no sync samples when the gadget is disabled");
        assert_eq!(jump, 0, "no jump when the gadget is disabled");
    }

    #[test]
    fn phase_of_decodes_correctly() {
        let s = schedule(1 << 12, 4);
        let l = s.params().phase_len();
        assert_eq!(s.phase_of(0), 0);
        assert_eq!(s.phase_of(l - 1), 0);
        assert_eq!(s.phase_of(l), 1);
        assert_eq!(
            s.phase_of(s.params().part1_len() - 1),
            s.params().phases - 1
        );
    }

    #[test]
    #[should_panic(expected = "part 2")]
    fn phase_of_part2_panics() {
        let s = schedule(1 << 12, 4);
        let _ = s.phase_of(s.params().part1_len());
    }

    #[test]
    fn bit_propagation_occupies_its_whole_subphase() {
        let s = schedule(1 << 12, 4);
        let tc_len = s.params().tc_len();
        let bp_end = tc_len + s.params().bp_len();
        for o in tc_len..bp_end {
            assert_eq!(s.action_at(o), Action::BitPropagation);
        }
    }
}
