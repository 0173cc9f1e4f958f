//! Per-node protocol state, including the Sync Gadget's bookkeeping.

use crate::asynchronous::kernel::{RapidView, NO_COLOR, NO_PHASE};

/// The full asynchronous-protocol state of one node (besides its color,
/// which lives in the shared [`crate::opinion::Configuration`]).
///
/// Two clocks, as in the paper:
///
/// * **working time** — drives the schedule; incremented per tick, but can
///   be *jumped* by the Sync Gadget;
/// * **real time** — the total number of ticks performed; never rewritten.
///
/// The protocol itself runs in the [kernel](crate::asynchronous::kernel),
/// over [`NodeState::view`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeState {
    /// Working time (schedule position).
    pub working_time: u64,
    /// Real time (total ticks performed).
    pub real_time: u64,
    /// The Two-Choices intermediate color's index, or `NO_COLOR` if the
    /// last sample pair disagreed.
    pub(crate) intermediate: u32,
    /// The extra bit of the memory model.
    pub bit: bool,
    /// Sync Gadget samples: `(their_real_time, my_real_time_at_sampling)`.
    pub samples: Vec<(u64, u64)>,
    /// Phase in which this node last jumped, or `NO_PHASE` (guards
    /// against double jumps after a backward jump re-enters the same
    /// phase).
    pub(crate) last_jump_phase: u32,
    /// Whether the node has finished part 2 and frozen its color.
    pub halted: bool,
}

impl NodeState {
    /// A fresh node at time zero.
    pub fn new() -> Self {
        NodeState {
            working_time: 0,
            real_time: 0,
            intermediate: NO_COLOR,
            bit: false,
            samples: Vec::new(),
            last_jump_phase: NO_PHASE,
            halted: false,
        }
    }

    /// The kernel's view of this node.
    #[inline]
    pub fn view(&mut self) -> RapidView<'_> {
        RapidView {
            working_time: &mut self.working_time,
            real_time: &mut self.real_time,
            intermediate: &mut self.intermediate,
            bit: &mut self.bit,
            last_jump_phase: &mut self.last_jump_phase,
            halted: &mut self.halted,
            samples: &mut self.samples,
        }
    }
}

impl Default for NodeState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::kernel::Step;
    use crate::asynchronous::params::Params;
    use crate::asynchronous::schedule::{Action, Schedule};

    #[test]
    fn fresh_node_is_at_time_zero() {
        let s = NodeState::new();
        assert_eq!(s.working_time, 0);
        assert_eq!(s.real_time, 0);
        assert!(!s.bit && !s.halted);
        assert_eq!(s.intermediate, NO_COLOR);
        assert_eq!(s.last_jump_phase, NO_PHASE);
        assert!(s.samples.is_empty());
        assert_eq!(NodeState::default(), s);
    }

    #[test]
    fn jump_guard_tracks_phase() {
        let schedule = Schedule::new(Params::for_network(1 << 12, 4));
        let jump_slot = schedule.params().phase_len() - 1;
        let mut s = NodeState::new();
        s.real_time = 10;
        s.samples.push((jump_slot + 5, 10));
        s.working_time = jump_slot;
        assert_eq!(schedule.action_at(jump_slot), Action::Jump);
        let first = s.view().finish(&schedule, Action::Jump, Some(&[]));
        assert_eq!(first.jump, Some(5));
        assert_eq!(s.last_jump_phase, 0);
        // Back on the same slot of the same phase: the guard holds.
        s.working_time = jump_slot;
        let again = s.view().finish(&schedule, Action::Jump, Some(&[]));
        assert_eq!(again.jump, None);
        assert_eq!(s.working_time, jump_slot + 1, "no jump: one tick on");
    }

    #[test]
    fn reset_clears_phase_scoped_state_only() {
        let schedule = Schedule::new(Params::for_network(1 << 12, 4));
        let mut s = NodeState::new();
        s.bit = true;
        s.intermediate = 1;
        s.samples.push((5, 1));
        s.working_time = schedule.tc_sample_offset();
        s.real_time = 40;
        let action = Action::TwoChoicesSample;
        let step = s.view().begin(&schedule);
        assert_eq!(step, Step::Apply { action, pulls: 2 });
        assert!(!s.bit);
        assert_eq!(s.intermediate, NO_COLOR);
        assert!(s.samples.is_empty());
        assert_eq!(s.working_time, schedule.tc_sample_offset());
        assert_eq!(s.real_time, 40);
    }
}
