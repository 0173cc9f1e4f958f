//! Protocol parameters and their theory-guided defaults.
//!
//! The asymptotic recipe of the paper, made concrete:
//!
//! * block length `Δ = Θ(log n / log log n)`;
//! * Two-Choices sub-phase: a landing buffer block (absorbs jump error),
//!   the Two-Choices step, a waiting block, the commit step;
//! * Bit-Propagation sub-phase: `Θ(log k + log log n)` ticks (bits double
//!   roughly once per time unit from an initial `≥ n/k` expected seeds);
//! * Sync-Gadget sub-phase: `⌈(ln ln n)³⌉` sampling ticks (odd), tactical
//!   waiting, then the jump step at the phase's last tick;
//! * `Θ(log log n)` phases: quadratic amplification turns a `(1+ε)` ratio
//!   into `n`-scale dominance after `log₂(ln n / ln(1+ε))` squarings;
//! * endgame: `Θ(log n)` ticks of plain Two-Choices.
//!
//! The hidden constants were chosen empirically and are all overridable
//! — the ablation experiment E8 flips [`Params::gadget_enabled`], and the
//! scaling experiments sweep `n` with everything else derived.

/// Concrete parameters for the asynchronous rapid-consensus protocol.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Params {
    /// Block length `Δ` in ticks (working time).
    pub delta: u32,
    /// Blocks in the Two-Choices sub-phase (≥ 4: landing buffer, sample,
    /// wait, commit).
    pub tc_blocks: u32,
    /// Blocks in the Bit-Propagation sub-phase (≥ 1).
    pub bp_blocks: u32,
    /// Blocks in the Sync-Gadget sub-phase (≥ 2: sampling + waiting/jump).
    pub sync_blocks: u32,
    /// Number of part-1 phases.
    pub phases: u32,
    /// Sampling ticks in the Sync Gadget (forced odd; `≤ sync sub-phase`).
    pub sync_samples: u32,
    /// Endgame (part 2) length in ticks per node.
    pub endgame_ticks: u32,
    /// Whether the Sync Gadget actually jumps (false = ablation: the
    /// sub-phase becomes pure waiting).
    pub gadget_enabled: bool,
}

impl Params {
    /// The longest protocol [`Params::check`] accepts, in ticks of
    /// working time. A [`Schedule`](crate::asynchronous::Schedule) holds
    /// one byte per tick, so this caps its table at 1 MiB; the longest
    /// default, `for_network_with_eps(2⁶², 2⁶², 1e-9)`, is 16,648 ticks.
    pub const MAX_TOTAL_LEN: u64 = 1 << 20;

    /// Theory-guided defaults for an `n`-node network with `k` opinions,
    /// assuming multiplicative bias at least `1 + ε` with `ε ≥ 0.1`.
    ///
    /// Use [`Params::for_network_with_eps`] when the guaranteed bias is
    /// smaller or larger.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `k < 2`.
    pub fn for_network(n: usize, k: usize) -> Self {
        Self::for_network_with_eps(n, k, 0.1)
    }

    /// Defaults with an explicit bias floor `ε` (`c_1 ≥ (1+ε)c_i`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, `k < 2`, or `eps` is not in `(0, 10]`.
    pub fn for_network_with_eps(n: usize, k: usize, eps: f64) -> Self {
        assert!(n >= 4, "network needs at least four nodes, got {n}");
        assert!(k >= 2, "need at least two opinions, got {k}");
        assert!(
            eps > 0.0 && eps <= 10.0,
            "bias floor must be in (0, 10], got {eps}"
        );
        let ln_n = (n as f64).ln();
        let lnln_n = ln_n.ln().max(1.0);

        // Δ = Θ(log n / log log n). The constant matters: with B blocks per
        // phase, per-phase Poisson drift is √(BΔ), so the fraction of nodes
        // drifting beyond the sample→commit separation 2Δ is
        // ≈ 2Φ(−2√(Δ/B)) — constant 3 keeps this in the low percent range
        // at laptop scales while preserving the Θ(log n/log log n) shape.
        let delta = (3.0 * ln_n / lnln_n).ceil().max(8.0) as u32;

        // Bit-Propagation needs ≈ log₂(n / E[#seeds]) ≤ log₂ k doubling
        // times plus concentration slack.
        let bp_ticks = 2.0 * ((k as f64).log2() + ln_n.log2().max(1.0)) + 6.0;
        let bp_blocks = ((bp_ticks / delta as f64).ceil() as u32).max(2);

        // Sync Gadget: (ln ln n)³ samples, odd.
        let mut sync_samples = (lnln_n.powi(3)).ceil() as u32;
        sync_samples = sync_samples.clamp(5, 4 * delta) | 1;
        let sync_blocks = (((sync_samples + delta) as f64 / delta as f64).ceil() as u32).max(2);

        // Quadratic amplification: (1+ε)^(2^p) ≥ n after
        // p ≥ log₂(ln n / ln(1+ε)); +2 phases of slack.
        let squarings = (ln_n / (1.0 + eps).ln()).log2().ceil().max(1.0) as u32;
        let phases = squarings + 2;

        // The endgame must outlast (a) the Two-Choices cleanup of the
        // remaining minority (≈ 2 ln n ticks) plus (b) the head start of the
        // fastest node — post-final-jump Poisson drift plus the jump's
        // median-estimate error, both Θ(√(log n)·polyloglog) with constants
        // that reach ~0.5·endgame at laptop scales. 16·ln n dominates both.
        let endgame_ticks = (16.0 * ln_n).ceil() as u32;

        Params {
            delta,
            tc_blocks: 4,
            bp_blocks,
            sync_blocks,
            phases,
            sync_samples,
            endgame_ticks,
            gadget_enabled: true,
        }
    }

    /// Disables the Sync Gadget (ablation switch for experiment E8).
    pub fn without_gadget(mut self) -> Self {
        self.gadget_enabled = false;
        self
    }

    /// Length of the Two-Choices sub-phase in ticks.
    pub fn tc_len(&self) -> u64 {
        self.tc_blocks as u64 * self.delta as u64
    }

    /// Length of the Bit-Propagation sub-phase in ticks.
    pub fn bp_len(&self) -> u64 {
        self.bp_blocks as u64 * self.delta as u64
    }

    /// Length of the Sync-Gadget sub-phase in ticks.
    pub fn sync_len(&self) -> u64 {
        self.sync_blocks as u64 * self.delta as u64
    }

    /// Length of one part-1 phase in ticks.
    pub fn phase_len(&self) -> u64 {
        self.tc_len() + self.bp_len() + self.sync_len()
    }

    /// Length of part 1 in ticks.
    pub fn part1_len(&self) -> u64 {
        self.phases as u64 * self.phase_len()
    }

    /// Total protocol length in ticks (part 1 + endgame).
    pub fn total_len(&self) -> u64 {
        self.part1_len() + self.endgame_ticks as u64
    }

    /// [`Params::total_len`], or `None` where it overflows `u64`.
    fn checked_total_len(&self) -> Option<u64> {
        let blocks = u64::from(self.tc_blocks) + u64::from(self.bp_blocks);
        let blocks = blocks + u64::from(self.sync_blocks);
        let phase_len = blocks.checked_mul(u64::from(self.delta))?;
        let part1_len = phase_len.checked_mul(u64::from(self.phases))?;
        part1_len.checked_add(u64::from(self.endgame_ticks))
    }

    /// Checks internal consistency, reporting the first violated
    /// structural invariant (zero-length blocks, too few blocks for the
    /// schedule's fixed slots, sampling longer than its sub-phase, a
    /// protocol longer than [`Params::MAX_TOTAL_LEN`]).
    ///
    /// # Errors
    ///
    /// Returns a static description of the violated invariant.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.delta < 1 {
            return Err("block length must be positive");
        }
        if self.tc_blocks < 4 {
            return Err("Two-Choices sub-phase needs ≥ 4 blocks (buffer, sample, wait, commit)");
        }
        if self.bp_blocks < 1 {
            return Err("Bit-Propagation needs ≥ 1 block");
        }
        if self.sync_blocks < 2 {
            return Err("Sync sub-phase needs ≥ 2 blocks");
        }
        if self.phases < 1 {
            return Err("need at least one phase");
        }
        if (self.sync_samples as u64) >= self.sync_len() {
            return Err("sampling must fit within the sync sub-phase");
        }
        if self.sync_samples.is_multiple_of(2) {
            return Err("sample count must be odd");
        }
        if self.endgame_ticks < 1 {
            return Err("endgame must be non-empty");
        }
        match self.checked_total_len() {
            Some(len) if len <= Self::MAX_TOTAL_LEN => Ok(()),
            _ => Err("protocol must not exceed Params::MAX_TOTAL_LEN ticks"),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if [`Params::check`] fails.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            // lint: allow(panic-hygiene): documented panic — validate() exists to turn check() failures into a panic
            panic!("invalid Params: {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_across_scales() {
        for &n in &[16usize, 256, 1 << 10, 1 << 14, 1 << 20, 1 << 26] {
            for &k in &[2usize, 8, 64, 1024] {
                let p = Params::for_network(n, k);
                p.validate();
            }
        }
    }

    #[test]
    fn lengths_compose() {
        let p = Params::for_network(1 << 14, 8);
        assert_eq!(p.phase_len(), p.tc_len() + p.bp_len() + p.sync_len());
        assert_eq!(p.part1_len(), p.phases as u64 * p.phase_len());
        assert_eq!(p.total_len(), p.part1_len() + p.endgame_ticks as u64);
    }

    #[test]
    fn delta_grows_sublogarithmically() {
        let small = Params::for_network(1 << 10, 4);
        let large = Params::for_network(1 << 24, 4);
        assert!(large.delta > small.delta);
        // Δ/ln n shrinks: Δ = Θ(log n / log log n).
        let r_small = small.delta as f64 / (1024f64).ln();
        let r_large = large.delta as f64 / ((1 << 24) as f64).ln();
        assert!(r_large < r_small);
    }

    #[test]
    fn phases_scale_with_loglog_and_eps() {
        let easy = Params::for_network_with_eps(1 << 14, 8, 1.0);
        let hard = Params::for_network_with_eps(1 << 14, 8, 0.05);
        assert!(hard.phases > easy.phases);
        let small = Params::for_network(1 << 8, 4);
        let large = Params::for_network(1 << 24, 4);
        assert!(large.phases >= small.phases);
        // Θ(log log n): even a huge n needs few phases.
        assert!(large.phases < 16);
    }

    #[test]
    fn bp_length_scales_with_k() {
        let narrow = Params::for_network(1 << 14, 2);
        let wide = Params::for_network(1 << 14, 512);
        assert!(wide.bp_len() > narrow.bp_len());
    }

    #[test]
    fn sample_count_is_odd_and_fits() {
        for &n in &[16usize, 1 << 12, 1 << 22] {
            let p = Params::for_network(n, 4);
            assert_eq!(p.sync_samples % 2, 1);
            assert!((p.sync_samples as u64) < p.sync_len());
        }
    }

    #[test]
    fn without_gadget_flips_flag_only() {
        let p = Params::for_network(1 << 10, 4);
        let q = p.without_gadget();
        assert!(!q.gadget_enabled);
        assert_eq!(p.delta, q.delta);
        assert_eq!(p.phases, q.phases);
    }

    #[test]
    fn protocol_length_is_capped() {
        let longest = Params::for_network_with_eps(1 << 62, 1 << 62, 1e-9);
        assert_eq!(longest.total_len(), 16_648, "the longest default");
        assert_eq!(longest.check(), Ok(()));
        let mut p = Params::for_network(64, 2);
        p.endgame_ticks += (Params::MAX_TOTAL_LEN - p.total_len()) as u32;
        assert_eq!(p.check(), Ok(()), "exactly at the cap");
        p.endgame_ticks += 1;
        assert_eq!(
            p.check(),
            Err("protocol must not exceed Params::MAX_TOTAL_LEN ticks")
        );
    }

    #[test]
    #[should_panic(expected = "at least two opinions")]
    fn k_one_rejected() {
        let _ = Params::for_network(100, 1);
    }

    #[test]
    #[should_panic(expected = "sampling must fit")]
    fn invalid_params_fail_validation() {
        let mut p = Params::for_network(1 << 10, 4);
        p.sync_samples = (p.sync_len() + 1) as u32;
        p.validate();
    }
}
