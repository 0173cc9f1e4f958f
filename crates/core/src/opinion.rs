//! Opinions (colors) and population configurations.
//!
//! The paper's setting: `n` nodes, `k` opinions `C_1 … C_k` with support
//! counts `c_1 ≥ c_2 ≥ … ≥ c_k`. [`Color`] identifies an opinion,
//! [`ColorCounts`] is the support histogram, and [`Configuration`] is the
//! full per-node assignment with incrementally maintained counts.

use rapid_sim::node::NodeId;
use rapid_sim::rng::SimRng;

/// An opinion ("color") `C_j`, identified by a dense index `0..k`.
///
/// By convention throughout this workspace, **color 0 is the initial
/// plurality opinion `C_1`** (workload generators order counts descending).
///
/// # Example
///
/// ```
/// use rapid_core::opinion::Color;
/// let c = Color::new(2);
/// assert_eq!(c.index(), 2);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(u32);

impl Color {
    /// Creates a color from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "color index out of range");
        Color(index as u32)
    }

    /// Returns the dense index of this color.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 1-based in display to match the paper's C_1 … C_k.
        write!(f, "C{}", self.0 + 1)
    }
}

/// The support histogram: how many nodes hold each color.
///
/// # Example
///
/// ```
/// use rapid_core::opinion::{Color, ColorCounts};
/// let counts = ColorCounts::from_counts(&[50, 30, 20]).expect("non-empty");
/// assert_eq!(counts.n(), 100);
/// assert_eq!(counts.count(Color::new(0)), 50);
/// let top = counts.top_two();
/// assert_eq!(top.leader, Color::new(0));
/// assert_eq!(top.gap(), 20);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorCounts {
    counts: Vec<u64>,
    n: u64,
}

/// The two most supported colors and their counts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TopTwo {
    /// The most supported color (ties broken by smallest index).
    pub leader: Color,
    /// Support of the leader (`c_1`).
    pub c1: u64,
    /// The second most supported color.
    pub runner_up: Color,
    /// Support of the runner-up (`c_2`).
    pub c2: u64,
}

impl TopTwo {
    /// The additive bias `c_1 − c_2`.
    pub fn gap(&self) -> u64 {
        self.c1 - self.c2
    }

    /// The multiplicative bias `c_1 / c_2` (∞ if `c_2 = 0`).
    pub fn ratio(&self) -> f64 {
        if self.c2 == 0 {
            f64::INFINITY
        } else {
            self.c1 as f64 / self.c2 as f64
        }
    }
}

/// Error constructing a [`ColorCounts`] or [`Configuration`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The population must be non-empty.
    EmptyPopulation,
    /// At least two colors are required.
    TooFewColors,
    /// The counts sum past `u64::MAX`.
    PopulationOverflow,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyPopulation => write!(f, "population must be non-empty"),
            ConfigError::TooFewColors => write!(f, "at least two colors are required"),
            ConfigError::PopulationOverflow => write!(f, "the counts sum past u64::MAX"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ColorCounts {
    /// Creates a histogram from per-color counts.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TooFewColors`] for fewer than two colors,
    /// [`ConfigError::PopulationOverflow`] if the counts sum past
    /// `u64::MAX` and [`ConfigError::EmptyPopulation`] if all counts are
    /// zero.
    pub fn from_counts(counts: &[u64]) -> Result<Self, ConfigError> {
        if counts.len() < 2 {
            return Err(ConfigError::TooFewColors);
        }
        let n = counts
            .iter()
            .try_fold(0u64, |n, &c| n.checked_add(c))
            .ok_or(ConfigError::PopulationOverflow)?;
        if n == 0 {
            return Err(ConfigError::EmptyPopulation);
        }
        Ok(ColorCounts {
            counts: counts.to_vec(),
            n,
        })
    }

    /// Number of colors `k` (including colors with zero support).
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Population size `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Support of one color.
    ///
    /// # Panics
    ///
    /// Panics if the color is out of range.
    pub fn count(&self, c: Color) -> u64 {
        self.counts[c.index()]
    }

    /// All per-color counts.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Support fraction of one color.
    ///
    /// # Panics
    ///
    /// Panics if the color is out of range.
    pub fn fraction(&self, c: Color) -> f64 {
        self.counts[c.index()] as f64 / self.n as f64
    }

    /// The two most supported colors (ties broken by smallest index).
    pub fn top_two(&self) -> TopTwo {
        debug_assert!(self.counts.len() >= 2);
        let (mut i1, mut c1) = (0usize, self.counts[0]);
        let (mut i2, mut c2) = (usize::MAX, 0u64);
        for (i, &c) in self.counts.iter().enumerate().skip(1) {
            if c > c1 {
                i2 = i1;
                c2 = c1;
                i1 = i;
                c1 = c;
            } else if i2 == usize::MAX || c > c2 {
                i2 = i;
                c2 = c;
            }
        }
        TopTwo {
            leader: Color::new(i1),
            c1,
            runner_up: Color::new(i2),
            c2,
        }
    }

    /// The color held by every node, if the configuration is unanimous.
    pub fn unanimous(&self) -> Option<Color> {
        self.counts
            .iter()
            .position(|&c| c == self.n)
            .map(Color::new)
    }

    /// Number of colors with non-zero support.
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Applies a signed per-color delta in one batch.
    ///
    /// This is the sharded engine's epoch merge: workers accumulate
    /// `(-1, +1)` transfers locally and the merge commits them here, so
    /// the histogram stays exact without per-activation synchronisation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via the overflow check) if a delta would
    /// drive a count negative — that would mean a worker recorded a
    /// transfer from a color its nodes never held.
    pub(crate) fn apply_delta(&mut self, delta: &[i64]) {
        debug_assert_eq!(delta.len(), self.counts.len(), "delta arity");
        for (c, &d) in self.counts.iter_mut().zip(delta) {
            *c = c
                .checked_add_signed(d)
                // lint: allow(panic-hygiene): a negative count means a shard recorded an impossible transfer -- state is corrupt
                .expect("epoch merge drove a color count negative");
        }
    }

    fn transfer(&mut self, from: Color, to: Color) {
        if from == to {
            return;
        }
        debug_assert!(self.counts[from.index()] > 0);
        self.counts[from.index()] -= 1;
        self.counts[to.index()] += 1;
    }
}

/// A full population configuration: each node's color, plus the histogram.
///
/// Color changes go through [`Configuration::set_color`], which keeps the
/// histogram consistent in O(1).
///
/// # Example
///
/// ```
/// use rapid_core::opinion::{Color, Configuration};
/// use rapid_sim::prelude::*;
///
/// let mut config = Configuration::from_counts(&[3, 2]).expect("valid");
/// assert_eq!(config.n(), 5);
/// assert_eq!(config.color(NodeId::new(0)), Color::new(0));
/// config.set_color(NodeId::new(0), Color::new(1));
/// assert_eq!(config.counts().count(Color::new(1)), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Configuration {
    colors: Vec<Color>,
    counts: ColorCounts,
}

impl Configuration {
    /// Builds a configuration where the first `counts[0]` nodes hold color
    /// 0, the next `counts[1]` hold color 1, and so on.
    ///
    /// On the complete graph the arrangement is irrelevant; for other
    /// topologies call [`Configuration::shuffle`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`ColorCounts::from_counts`].
    pub fn from_counts(counts: &[u64]) -> Result<Self, ConfigError> {
        let histogram = ColorCounts::from_counts(counts)?;
        let mut colors = Vec::with_capacity(histogram.n() as usize);
        for (j, &c) in counts.iter().enumerate() {
            colors.extend(std::iter::repeat_n(Color::new(j), c as usize));
        }
        Ok(Configuration {
            colors,
            counts: histogram,
        })
    }

    /// Builds a configuration from an explicit per-node assignment.
    ///
    /// `k` fixes the number of colors (assignments must be `< k`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyPopulation`] for an empty assignment or
    /// [`ConfigError::TooFewColors`] for `k < 2`.
    ///
    /// # Panics
    ///
    /// Panics if any assigned color is `≥ k`.
    pub fn from_assignment(colors: Vec<Color>, k: usize) -> Result<Self, ConfigError> {
        if colors.is_empty() {
            return Err(ConfigError::EmptyPopulation);
        }
        if k < 2 {
            return Err(ConfigError::TooFewColors);
        }
        let mut counts = vec![0u64; k];
        for &c in &colors {
            assert!(c.index() < k, "color {c} out of range for k={k}");
            counts[c.index()] += 1;
        }
        Ok(Configuration {
            colors,
            counts: ColorCounts {
                counts,
                n: 0, // fixed below
            },
        })
        .map(|mut cfg| {
            cfg.counts.n = cfg.colors.len() as u64;
            cfg
        })
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.colors.len()
    }

    /// Number of colors `k`.
    pub fn k(&self) -> usize {
        self.counts.k()
    }

    /// The color of one node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn color(&self, u: NodeId) -> Color {
        self.colors[u.index()]
    }

    /// All per-node colors.
    pub fn colors(&self) -> &[Color] {
        &self.colors
    }

    /// The support histogram.
    pub fn counts(&self) -> &ColorCounts {
        &self.counts
    }

    /// Sets the color of `u`, maintaining the histogram.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `c` is out of range.
    #[inline]
    pub fn set_color(&mut self, u: NodeId, c: Color) {
        assert!(c.index() < self.k(), "color {c} out of range");
        let old = self.colors[u.index()];
        self.counts.transfer(old, c);
        self.colors[u.index()] = c;
    }

    /// Splits the configuration into independent mutable borrows of the
    /// per-node colors and the histogram.
    ///
    /// Only the sharded epoch engine uses this: workers write disjoint
    /// slices of the color vector while the histogram is updated once
    /// per epoch from the merged count deltas ([`ColorCounts::apply_delta`]).
    /// Callers are responsible for keeping the two halves consistent.
    pub(crate) fn split_mut(&mut self) -> (&mut [Color], &mut ColorCounts) {
        (&mut self.colors, &mut self.counts)
    }

    /// Randomly permutes the node–color assignment (Fisher–Yates).
    pub fn shuffle(&mut self, rng: &mut SimRng) {
        for i in (1..self.colors.len()).rev() {
            let j = rng.bounded_usize(i + 1);
            self.colors.swap(i, j);
        }
    }

    /// Replaces every node's color from a snapshot vector, rebuilding the
    /// histogram (used by synchronous engines after a simultaneous update).
    ///
    /// # Panics
    ///
    /// Panics if `new_colors` has the wrong length or contains an
    /// out-of-range color.
    pub fn replace_all(&mut self, new_colors: &[Color]) {
        assert_eq!(new_colors.len(), self.colors.len(), "length mismatch");
        let k = self.k();
        let mut counts = vec![0u64; k];
        for &c in new_colors {
            assert!(c.index() < k, "color {c} out of range");
            counts[c.index()] += 1;
        }
        self.colors.copy_from_slice(new_colors);
        self.counts = ColorCounts {
            counts,
            n: self.colors.len() as u64,
        };
    }

    /// Whether all nodes hold the same color (and which).
    pub fn unanimous(&self) -> Option<Color> {
        self.counts.unanimous()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_sim::rng::Seed;

    #[test]
    fn color_display_is_one_based() {
        assert_eq!(Color::new(0).to_string(), "C1");
        assert_eq!(Color::new(4).to_string(), "C5");
    }

    #[test]
    fn counts_accessors() {
        let c = ColorCounts::from_counts(&[5, 3, 2]).expect("valid");
        assert_eq!(c.n(), 10);
        assert_eq!(c.k(), 3);
        assert_eq!(c.count(Color::new(1)), 3);
        assert!((c.fraction(Color::new(0)) - 0.5).abs() < 1e-12);
        assert_eq!(c.support_size(), 3);
        assert_eq!(c.as_slice(), &[5, 3, 2]);
    }

    #[test]
    fn counts_summing_past_u64_max_are_an_error() {
        for counts in [&[1 << 63, 1 << 63, 2][..], &[u64::MAX, 1]] {
            assert_eq!(
                ColorCounts::from_counts(counts),
                Err(ConfigError::PopulationOverflow)
            );
            assert_eq!(
                Configuration::from_counts(counts).err(),
                Some(ConfigError::PopulationOverflow)
            );
        }
        assert_eq!(
            ColorCounts::from_counts(&[u64::MAX, 0]).map(|c| c.n()),
            Ok(u64::MAX)
        );
    }

    #[test]
    fn top_two_finds_leader_and_runner_up() {
        let c = ColorCounts::from_counts(&[2, 9, 5, 9]).expect("valid");
        let t = c.top_two();
        assert_eq!(t.leader, Color::new(1), "ties break to smaller index");
        assert_eq!(t.c1, 9);
        assert_eq!(t.runner_up, Color::new(3));
        assert_eq!(t.c2, 9);
        assert_eq!(t.gap(), 0);
        assert_eq!(t.ratio(), 1.0);
    }

    #[test]
    fn top_two_with_zero_runner_up() {
        let c = ColorCounts::from_counts(&[10, 0]).expect("valid");
        let t = c.top_two();
        assert_eq!(t.c2, 0);
        assert!(t.ratio().is_infinite());
        assert_eq!(c.unanimous(), Some(Color::new(0)));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            ColorCounts::from_counts(&[1]).unwrap_err(),
            ConfigError::TooFewColors
        );
        assert_eq!(
            ColorCounts::from_counts(&[0, 0]).unwrap_err(),
            ConfigError::EmptyPopulation
        );
        assert!(ConfigError::EmptyPopulation
            .to_string()
            .contains("non-empty"));
    }

    #[test]
    fn configuration_from_counts_lays_out_blocks() {
        let cfg = Configuration::from_counts(&[2, 3]).expect("valid");
        assert_eq!(cfg.color(NodeId::new(0)), Color::new(0));
        assert_eq!(cfg.color(NodeId::new(1)), Color::new(0));
        assert_eq!(cfg.color(NodeId::new(4)), Color::new(1));
        assert_eq!(cfg.n(), 5);
        assert_eq!(cfg.k(), 2);
    }

    #[test]
    fn set_color_maintains_histogram() {
        let mut cfg = Configuration::from_counts(&[3, 3]).expect("valid");
        cfg.set_color(NodeId::new(0), Color::new(1));
        assert_eq!(cfg.counts().count(Color::new(0)), 2);
        assert_eq!(cfg.counts().count(Color::new(1)), 4);
        // Setting the same color is a no-op on the histogram.
        cfg.set_color(NodeId::new(0), Color::new(1));
        assert_eq!(cfg.counts().count(Color::new(1)), 4);
        assert_eq!(cfg.counts().n(), 6);
    }

    #[test]
    fn shuffle_preserves_counts() {
        let mut cfg = Configuration::from_counts(&[10, 20, 30]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(1));
        cfg.shuffle(&mut rng);
        assert_eq!(cfg.counts().as_slice(), &[10, 20, 30]);
        // Extremely unlikely to still be the block layout.
        let block = Configuration::from_counts(&[10, 20, 30]).expect("valid");
        assert_ne!(cfg.colors(), block.colors());
    }

    #[test]
    fn replace_all_rebuilds_histogram() {
        let mut cfg = Configuration::from_counts(&[2, 2]).expect("valid");
        cfg.replace_all(&[Color::new(1), Color::new(1), Color::new(1), Color::new(0)]);
        assert_eq!(cfg.counts().as_slice(), &[1, 3]);
    }

    #[test]
    fn from_assignment_counts_correctly() {
        let cfg =
            Configuration::from_assignment(vec![Color::new(0), Color::new(2), Color::new(2)], 3)
                .expect("valid");
        assert_eq!(cfg.counts().as_slice(), &[1, 0, 2]);
        assert_eq!(cfg.counts().n(), 3);
    }

    #[test]
    fn unanimity_detection() {
        let mut cfg = Configuration::from_counts(&[2, 1]).expect("valid");
        assert_eq!(cfg.unanimous(), None);
        cfg.set_color(NodeId::new(2), Color::new(0));
        assert_eq!(cfg.unanimous(), Some(Color::new(0)));
    }
}
