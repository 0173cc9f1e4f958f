//! Convergence outcomes and errors shared by all protocol drivers.

use crate::opinion::Color;

/// Why a run failed to produce a consensus.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConvergenceError {
    /// The budget (rounds or activations) ran out before unanimity.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// Every node halted (froze its color) without unanimity.
    AllHaltedWithoutConsensus,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvergenceError::BudgetExhausted { budget } => {
                write!(f, "no consensus within the budget of {budget}")
            }
            ConvergenceError::AllHaltedWithoutConsensus => {
                write!(f, "all nodes halted without reaching consensus")
            }
        }
    }
}

impl std::error::Error for ConvergenceError {}

/// Outcome of a synchronous run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SyncOutcome {
    /// The color every node ended up with.
    pub winner: Color,
    /// Rounds until unanimity.
    pub rounds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = ConvergenceError::BudgetExhausted { budget: 100 };
        assert!(e.to_string().contains("100"));
        assert!(ConvergenceError::AllHaltedWithoutConsensus
            .to_string()
            .contains("halted"));
    }

    #[test]
    fn outcomes_are_comparable() {
        let a = SyncOutcome {
            winner: Color::new(0),
            rounds: 5,
        };
        assert_eq!(a, a);
    }
}
