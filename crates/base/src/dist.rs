//! Deterministic randomness and the analytic distributions the paper's
//! workloads are built from.
//!
//! The paper's memcached workload (§6.1) follows Facebook's ETC trace as
//! characterized by Atikoglu et al. (SIGMETRICS 2012): value sizes and
//! inter-arrival times are *generalized Pareto*. Tenant arrivals in the
//! flow-level simulator (§6.3) and message arrivals in Table 1 are Poisson,
//! i.e. exponential gaps. Both distributions are implemented here by
//! inverse-transform sampling so we need nothing beyond `rand`'s uniform
//! source, keeping all draws reproducible from one seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construct the deterministic RNG used throughout the workspace.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draw from Exp(rate): mean `1/rate`. Inverse transform on (0,1].
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    // `random::<f64>()` is in [0,1); flip to (0,1] so ln() is finite.
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

/// Generalized Pareto distribution GPD(mu, sigma, xi).
///
/// CDF: `F(x) = 1 - (1 + xi (x - mu)/sigma)^(-1/xi)` for `xi != 0`,
/// `F(x) = 1 - exp(-(x - mu)/sigma)` for `xi == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenPareto {
    /// Location (minimum value).
    pub mu: f64,
    /// Scale.
    pub sigma: f64,
    /// Shape. Positive values give a heavy tail.
    pub xi: f64,
}

impl GenPareto {
    pub fn new(mu: f64, sigma: f64, xi: f64) -> GenPareto {
        assert!(sigma > 0.0, "GPD scale must be positive");
        GenPareto { mu, sigma, xi }
    }

    /// Inverse-transform sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>(); // (0,1]
        self.quantile_from_u(u)
    }

    /// Quantile function driven by a uniform `u in (0,1]` where `u` is the
    /// *survival* probability (`1 - F`). Exposed for tests.
    pub fn quantile_from_u(&self, u: f64) -> f64 {
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * u.ln()
        } else {
            self.mu + self.sigma * (u.powf(-self.xi) - 1.0) / self.xi
        }
    }

    /// Mean, defined for `xi < 1`.
    pub fn mean(&self) -> f64 {
        assert!(self.xi < 1.0, "GPD mean undefined for xi >= 1");
        self.mu + self.sigma / (1.0 - self.xi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = seeded_rng(7);
        let n = 200_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gpd_reduces_to_exponential_at_xi_zero() {
        let g = GenPareto::new(0.0, 2.0, 0.0);
        // Survival u=e^-1 should give exactly sigma.
        assert!((g.quantile_from_u((-1.0f64).exp()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gpd_mean_matches_analytic() {
        let g = GenPareto::new(10.0, 50.0, 0.2);
        let mut rng = seeded_rng(11);
        let n = 400_000;
        let emp: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        let analytic = g.mean();
        assert!(
            (emp - analytic).abs() / analytic < 0.05,
            "empirical {emp} vs analytic {analytic}"
        );
    }

    #[test]
    fn gpd_minimum_is_mu() {
        let g = GenPareto::new(5.0, 1.0, 0.3);
        let mut rng = seeded_rng(3);
        for _ in 0..10_000 {
            assert!(g.sample(&mut rng) >= 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn gpd_rejects_bad_scale() {
        GenPareto::new(0.0, 0.0, 0.1);
    }
}
