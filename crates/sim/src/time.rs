//! Simulation time.
//!
//! Continuous simulation time is represented by [`SimTime`], a totally
//! ordered wrapper around `f64`. In the paper's asynchronous model, time is
//! measured in units of the Poisson clock rate (λ = 1): each node ticks once
//! per time unit in expectation, and in the sequential model `n` activations
//! correspond to one unit.

use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) continuous simulation time.
///
/// `SimTime` is a newtype over `f64` that guarantees the value is finite and
/// therefore admits a total order, so it can key an event queue.
///
/// # Example
///
/// ```
/// use rapid_sim::time::SimTime;
/// let t = SimTime::from_secs(1.5) + SimTime::from_secs(0.5);
/// assert_eq!(t, SimTime::from_secs(2.0));
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// The largest representable time: a horizon no run reaches.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time from seconds (time units).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or infinite, or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        assert!(secs >= 0.0, "SimTime must be non-negative, got {secs}");
        SimTime(secs)
    }

    /// Returns the time value in seconds (time units).
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: returns zero instead of going negative.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are guaranteed finite and non-negative at construction,
        // so IEEE total order coincides with numeric order here.
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(2.25);
        assert_eq!(t.as_secs(), 2.25);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_is_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_is_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut v = vec![b, a, SimTime::ZERO];
        v.sort();
        assert_eq!(v, vec![SimTime::ZERO, a, b]);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(1.0);
        assert_eq!(a + b, SimTime::from_secs(4.0));
        assert_eq!(a - b, SimTime::from_secs(2.0));
        assert_eq!(a * 2.0, SimTime::from_secs(6.0));
        assert_eq!(a / 2.0, SimTime::from_secs(1.5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_secs(4.0));
    }

    #[test]
    fn display_formats_with_precision() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000");
    }
}
