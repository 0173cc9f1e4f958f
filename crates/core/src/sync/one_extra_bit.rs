//! OneExtraBit: Two-Choices + Bit-Propagation phases (Theorem 1.2).
//!
//! The memory model allows each node to transmit one extra bit. A phase is:
//!
//! 1. **Two-Choices round** — every node samples two nodes (with
//!    replacement); if the samples' colors coincide the node adopts that
//!    color and sets its bit. The bit is set **iff the two samples
//!    coincided** (this is the reading under which the paper's
//!    `E[#{bit-set, C_j}] = c_j²/n` concentration holds).
//! 2. **Bit-Propagation rounds** — a node whose bit is unset samples one
//!    node per round; upon hitting a bit-set node it copies that node's
//!    color and sets its own bit. Bit-set nodes keep answering.
//!
//! Per phase the support ratio amplifies quadratically,
//! `c'_1/c'_j ≈ (c_1/c_j)²`, because the post-Two-Choices bit-set
//! population has composition `∝ c_j²` and Bit-Propagation preserves that
//! composition (a Pólya-urn martingale) while growing it to the whole
//! network.

use rapid_graph::topology::Topology;
use rapid_sim::node::NodeId;
use rapid_sim::rng::SimRng;

use crate::opinion::{Color, Configuration};
use crate::sync::engine::SyncProtocol;

/// Tuning for [`OneExtraBit`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OneExtraBitParams {
    /// Bit-Propagation rounds per phase (the paper's `Θ(log k + log log n)`).
    pub bp_rounds: u32,
}

impl OneExtraBitParams {
    /// Theory-guided default: `⌈log₂ k + log₂ ln n⌉ + slack`.
    ///
    /// The bit-set population starts at `Σ c_j²/n ≥ n/k` nodes in
    /// expectation and roughly doubles per round, so `log₂ k` rounds reach
    /// saturation; the additive slack absorbs the concentration losses the
    /// asymptotic notation hides.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k < 2`.
    pub fn for_network(n: usize, k: usize) -> Self {
        assert!(n >= 2, "network needs at least two nodes");
        assert!(k >= 2, "need at least two opinions");
        let bp = (k as f64).log2() + (n as f64).ln().max(1.0).log2() + 4.0;
        OneExtraBitParams {
            bp_rounds: bp.ceil() as u32,
        }
    }
}

/// The OneExtraBit plurality-consensus protocol (Theorem 1.2).
///
/// On `K_n` with `k = O(n^ε)` opinions and gap
/// `c_1 − c_2 ≥ z·√n·log^{3/2} n`, converges to the plurality w.h.p. in
/// `O((log(c_1/(c_1−c_2)) + log log n) · (log k + log log n))` rounds —
/// polylogarithmic, beating Two-Choices' `Ω(k)` barrier.
///
/// # Example
///
/// ```
/// use rapid_core::prelude::*;
/// use rapid_graph::prelude::*;
/// use rapid_sim::prelude::*;
///
/// // 8 opinions, plurality clearly ahead.
/// let out = Sim::builder()
///     .topology(Complete::new(1000))
///     .counts(&[300, 100, 100, 100, 100, 100, 100, 100])
///     .protocol(OneExtraBit::for_network(1000, 8))
///     .seed(Seed::new(2))
///     .stop(StopCondition::RoundBudget(1000))
///     .build()
///     .expect("valid experiment")
///     .run_to_consensus()
///     .expect("converges");
/// assert_eq!(out.winner, Some(Color::new(0)));
/// ```
#[derive(Clone, Debug)]
pub struct OneExtraBit {
    params: OneExtraBitParams,
    bits: Vec<bool>,
    pos: u32,
    phase: u32,
}

impl OneExtraBit {
    /// Creates the protocol with explicit parameters.
    pub fn new(params: OneExtraBitParams) -> Self {
        OneExtraBit {
            params,
            bits: Vec::new(),
            pos: 0,
            phase: 0,
        }
    }

    /// Creates the protocol with [`OneExtraBitParams::for_network`] defaults.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k < 2`.
    pub fn for_network(n: usize, k: usize) -> Self {
        Self::new(OneExtraBitParams::for_network(n, k))
    }

    /// The protocol parameters.
    pub fn params(&self) -> OneExtraBitParams {
        self.params
    }

    /// Rounds per phase (one Two-Choices round + `bp_rounds`).
    pub fn rounds_per_phase(&self) -> u32 {
        1 + self.params.bp_rounds
    }

    /// Number of completed phases.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Whether the next call to `round` starts a new phase (a Two-Choices
    /// round).
    pub fn at_phase_start(&self) -> bool {
        self.pos == 0
    }

    /// The bit vector after the most recent round (empty before any round).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    fn two_choices_round(
        &mut self,
        g: &dyn Topology,
        config: &mut Configuration,
        rng: &mut SimRng,
    ) {
        let snapshot: Vec<Color> = config.colors().to_vec();
        let mut next = snapshot.clone();
        self.bits.clear();
        self.bits.resize(config.n(), false);
        for (i, (slot, bit)) in next.iter_mut().zip(self.bits.iter_mut()).enumerate() {
            let u = NodeId::new(i);
            let v = g.sample_neighbor(u, rng);
            let w = g.sample_neighbor(u, rng);
            let cv = snapshot[v.index()];
            if cv == snapshot[w.index()] {
                *slot = cv;
                *bit = true;
            }
        }
        config.replace_all(&next);
    }

    fn bit_propagation_round(
        &mut self,
        g: &dyn Topology,
        config: &mut Configuration,
        rng: &mut SimRng,
    ) {
        debug_assert_eq!(self.bits.len(), config.n());
        let snapshot: Vec<Color> = config.colors().to_vec();
        let bits_snapshot = self.bits.clone();
        let mut next = snapshot.clone();
        for i in 0..config.n() {
            if bits_snapshot[i] {
                continue;
            }
            let u = NodeId::new(i);
            let v = g.sample_neighbor(u, rng);
            if bits_snapshot[v.index()] {
                next[i] = snapshot[v.index()];
                self.bits[i] = true;
            }
        }
        config.replace_all(&next);
    }
}

impl SyncProtocol for OneExtraBit {
    fn round(&mut self, g: &dyn Topology, config: &mut Configuration, rng: &mut SimRng) {
        if self.pos == 0 {
            self.two_choices_round(g, config, rng);
        } else {
            self.bit_propagation_round(g, config, rng);
        }
        self.pos += 1;
        if self.pos == self.rounds_per_phase() {
            self.pos = 0;
            self.phase += 1;
        }
    }

    fn reset(&mut self) {
        self.bits.clear();
        self.pos = 0;
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_graph::complete::Complete;
    use rapid_sim::rng::Seed;

    use crate::facade::{Sim, StopCondition};

    #[test]
    fn params_scale_with_k_and_n() {
        let small = OneExtraBitParams::for_network(1000, 2);
        let wide = OneExtraBitParams::for_network(1000, 64);
        assert!(wide.bp_rounds > small.bp_rounds);
        let big = OneExtraBitParams::for_network(1_000_000, 2);
        assert!(big.bp_rounds >= small.bp_rounds);
    }

    #[test]
    fn two_choices_round_sets_bits_near_expected_density() {
        // After one Two-Choices round with counts (600, 400) on n = 1000,
        // E[#bit-set] = (c1² + c2²)/n = (360000 + 160000)/1000 = 520.
        let g = Complete::new(1000);
        let mut config = Configuration::from_counts(&[600, 400]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(3));
        let mut proto = OneExtraBit::for_network(1000, 2);
        proto.round(&g, &mut config, &mut rng);
        let set = proto.bits().iter().filter(|&&b| b).count();
        assert!(
            (set as f64 - 520.0).abs() < 80.0,
            "bit-set count {set} far from 520"
        );
    }

    #[test]
    fn bits_spread_to_everyone_within_a_phase() {
        let g = Complete::new(500);
        let mut config = Configuration::from_counts(&[300, 200]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(4));
        let mut proto = OneExtraBit::for_network(500, 2);
        for _ in 0..proto.rounds_per_phase() {
            proto.round(&g, &mut config, &mut rng);
        }
        let set = proto.bits().iter().filter(|&&b| b).count();
        assert!(
            set as f64 >= 0.99 * 500.0,
            "only {set}/500 bits set at phase end"
        );
        assert!(proto.at_phase_start());
        assert_eq!(proto.phase(), 1);
    }

    #[test]
    fn converges_with_many_colors_quickly() {
        // k = 20 colors: Two-Choices would need Ω(k) rounds; OneExtraBit
        // stays polylogarithmic.
        let n: u64 = 2000;
        let k = 20;
        let c1 = 500u64; // clear plurality
        let rest = n - c1;
        let base = rest / (k as u64 - 1);
        let mut counts = vec![base; k];
        counts[0] = c1;
        counts[1] += rest % (k as u64 - 1);
        let out = Sim::builder()
            .topology(Complete::new(n as usize))
            .counts(&counts)
            .protocol(OneExtraBit::for_network(n as usize, k))
            .seed(Seed::new(5))
            .stop(StopCondition::RoundBudget(2000))
            .build()
            .expect("valid experiment")
            .run()
            .as_sync()
            .expect("converges");
        assert_eq!(out.winner, Color::new(0));
        // Polylog bound with generous constant: ≪ k · ln n ≈ 152.
        assert!(out.rounds < 120, "took {} rounds", out.rounds);
    }

    #[test]
    fn reset_clears_phase_state() {
        let g = Complete::new(100);
        let mut config = Configuration::from_counts(&[60, 40]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(6));
        let mut proto = OneExtraBit::for_network(100, 2);
        proto.round(&g, &mut config, &mut rng);
        assert!(!proto.at_phase_start());
        proto.reset();
        assert!(proto.at_phase_start());
        assert_eq!(proto.phase(), 0);
        assert!(proto.bits().is_empty());
    }

    #[test]
    fn amplification_is_roughly_quadratic_after_one_phase() {
        // Start with ratio r = c1/c2 = 1.5; after one full phase the ratio
        // should be near r² = 2.25 (within stochastic slack).
        let g = Complete::new(20_000);
        let mut config = Configuration::from_counts(&[12_000, 8_000]).expect("valid");
        let mut rng = SimRng::from_seed_value(Seed::new(7));
        let mut proto = OneExtraBit::for_network(20_000, 2);
        for _ in 0..proto.rounds_per_phase() {
            proto.round(&g, &mut config, &mut rng);
        }
        let t = config.counts().top_two();
        let ratio = t.ratio();
        assert!(
            (1.8..2.8).contains(&ratio),
            "post-phase ratio {ratio} not near 2.25"
        );
    }
}
