//! Exponential and Poisson sampling — the clock model of the paper.
//!
//! Every node carries an independent Poisson clock with rate λ = 1: the
//! inter-tick gaps are i.i.d. Exponential(1). [`sample_exponential`] draws
//! such gaps (the schedulers sum them into arrival times), and
//! [`sample_poisson`] draws the number of arrivals in a fixed window (the
//! epoch engine's per-node tick counts). [`MIN_RATE`] is the floor every
//! validated clock and delay rate keeps.

use crate::rng::SimRng;

/// The slowest clock or delay rate a validated run accepts: the `Sim`
/// builder's clock and jitter checks and
/// [`LatencyModel::check`](crate::fault::LatencyModel::check) reject
/// anything slower.
///
/// Every exponential gap or delay is `−ln(U)/rate`, where the sampler's
/// uniform `U` is at least 2⁻⁵³, so one gap is at most
/// `53·ln 2/rate ≈ 36.7/rate` time units. Even 2⁶⁴ of them, more steps
/// than a run can count, sum to less than `f64::MAX` at any rate above
/// ≈ 3.8·10⁻²⁸⁸: every run above the floor keeps a finite clock, with
/// eight orders of magnitude to spare. Below it, a long enough run
/// overflows simulation time to infinity, which panics.
pub const MIN_RATE: f64 = 1e-280;

/// Samples an `Exponential(rate)` variate.
///
/// Uses inversion: `-ln(U)/rate` with `U` uniform on `(0, 1]`, so the
/// result is always finite.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
///
/// # Example
///
/// ```
/// use rapid_sim::prelude::*;
/// use rapid_sim::poisson::sample_exponential;
/// let mut rng = SimRng::from_seed_value(Seed::new(1));
/// let gap = sample_exponential(&mut rng, 1.0);
/// assert!(gap >= 0.0);
/// ```
#[inline]
pub fn sample_exponential(rng: &mut SimRng, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "exponential rate must be positive and finite, got {rate}"
    );
    -rng.unit_f64_open_left().ln() / rate
}

/// Samples a `Poisson(lambda)` count.
///
/// Uses Knuth's multiplication method for small `lambda` and recursive
/// splitting (`Poisson(λ) = Poisson(λ/2) + Poisson(λ/2)`) for large
/// `lambda`, which keeps the method exact at any rate.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn sample_poisson(rng: &mut SimRng, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "Poisson rate must be non-negative and finite, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Exact splitting keeps Knuth's method in its numerically safe range.
        let half = lambda / 2.0;
        return sample_poisson(rng, half) + sample_poisson(rng, lambda - half);
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.unit_f64_open_left();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::from_seed_value(Seed::new(10));
        for &rate in &[0.5, 1.0, 4.0] {
            let n = 40_000;
            let mean: f64 = (0..n)
                .map(|_| sample_exponential(&mut rng, rate))
                .sum::<f64>()
                / n as f64;
            let expected = 1.0 / rate;
            assert!(
                (mean - expected).abs() < 0.05 * expected.max(1.0),
                "rate {rate}: mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    fn exponential_is_nonnegative_and_finite() {
        let mut rng = SimRng::from_seed_value(Seed::new(11));
        for _ in 0..10_000 {
            let x = sample_exponential(&mut rng, 1.0);
            assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = SimRng::from_seed_value(Seed::new(12));
        let _ = sample_exponential(&mut rng, 0.0);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = SimRng::from_seed_value(Seed::new(13));
        for &lambda in &[0.5, 3.0, 25.0, 100.0] {
            let n = 20_000;
            let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut rng, lambda)).collect();
            let mean = samples.iter().sum::<u64>() as f64 / n as f64;
            let var = samples
                .iter()
                .map(|&x| {
                    let d = x as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 0.1 * lambda.max(1.0),
                "λ={lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() < 0.15 * lambda.max(1.0),
                "λ={lambda}: var {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = SimRng::from_seed_value(Seed::new(14));
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }
}
