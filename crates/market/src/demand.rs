//! Demand (valuation) distributions.
//!
//! Definition 2–3 of the paper: each requester in grid `g` draws a private
//! valuation `v_r` i.i.d. from an unknown distribution with CDF `F^g`; the
//! acceptance ratio of a posted unit price `p` is
//! `S^g(p) = Pr[v_r > p] = 1 − F^g(p)`.
//!
//! Base pricing's guarantees assume `F^g` is a **monotone hazard rate**
//! (MHR) distribution — "MHR distributions are common, which include
//! normal, exponential, and uniform distributions" (Sec. 3.1.1). The
//! synthetic evaluation (Table 3) draws valuations from a Normal
//! distribution conditioned on `[1, 5]`; Appendix D repeats the study with
//! an Exponential. All families here are truncated to a support interval,
//! which preserves log-concavity and hence the MHR property.

use crate::special::{normal_cdf, normal_pdf, normal_quantile};
use rand::Rng;

/// A demand distribution for private valuations `v_r`.
///
/// Implementors must behave like a proper continuous distribution on
/// `support()`: `cdf` non-decreasing from 0 to 1, `pdf` its derivative.
pub trait DemandDistribution {
    /// `F(p) = Pr[v_r ≤ p]`.
    fn cdf(&self, p: f64) -> f64;

    /// Density `F′(p)`.
    fn pdf(&self, p: f64) -> f64;

    /// Support interval `[lo, hi]` (valuations lie inside with prob. 1).
    fn support(&self) -> (f64, f64);

    /// Draws one valuation.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// The acceptance ratio `S(p) = Pr[v_r > p] = 1 − F(p)` (Definition 3).
    fn survival(&self, p: f64) -> f64 {
        (1.0 - self.cdf(p)).clamp(0.0, 1.0)
    }

    /// Hazard rate `F′(p) / (1 − F(p))`; MHR means this is non-decreasing.
    fn hazard(&self, p: f64) -> f64 {
        let s = self.survival(p);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.pdf(p) / s
        }
    }

    /// The revenue curve `p · S(p)` whose maximizer is the Myerson
    /// reserve price (Sec. 3.1.1, Fig. 3a).
    fn revenue_curve(&self, p: f64) -> f64 {
        p * self.survival(p)
    }
}

fn assert_interval(lo: f64, hi: f64) {
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "support must be a finite non-empty interval, got [{lo}, {hi}]"
    );
}

fn uniform01(rng: &mut dyn rand::RngCore) -> f64 {
    // `&mut dyn RngCore` is itself an Rng; sample in [0, 1).
    (*rng).gen::<f64>()
}

/// Normal distribution conditioned on `[lo, hi]` — the paper's default
/// demand distribution ("We restrict all the v_r to `[1,5]`, so the
/// distribution of v_r is a conditional probability distribution").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mu: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
    /// Φ((lo−μ)/σ), cached.
    cdf_lo: f64,
    /// Φ((hi−μ)/σ) − Φ((lo−μ)/σ), cached normalizer.
    z: f64,
}

impl TruncatedNormal {
    /// Creates `Normal(mu, sigma)` conditioned on `[lo, hi]`.
    ///
    /// # Panics
    /// Panics on non-positive `sigma`, an empty interval, or an interval
    /// carrying (numerically) zero probability mass.
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        assert_interval(lo, hi);
        let cdf_lo = normal_cdf((lo - mu) / sigma);
        let z = normal_cdf((hi - mu) / sigma) - cdf_lo;
        assert!(
            z > 1e-12,
            "truncation interval [{lo},{hi}] has ~zero mass under N({mu},{sigma}²)"
        );
        Self {
            mu,
            sigma,
            lo,
            hi,
            cdf_lo,
            z,
        }
    }

    /// The paper's synthetic demand: `Normal(mu, sigma)` on `[1, 5]`
    /// (Table 3 defaults: `mu = 2.0`, `sigma = 1.0`).
    pub fn paper(mu: f64, sigma: f64) -> Self {
        Self::new(mu, sigma, 1.0, 5.0)
    }
}

impl DemandDistribution for TruncatedNormal {
    fn cdf(&self, p: f64) -> f64 {
        if p <= self.lo {
            0.0
        } else if p >= self.hi {
            1.0
        } else {
            ((normal_cdf((p - self.mu) / self.sigma) - self.cdf_lo) / self.z).clamp(0.0, 1.0)
        }
    }

    fn pdf(&self, p: f64) -> f64 {
        if p < self.lo || p > self.hi {
            0.0
        } else {
            normal_pdf((p - self.mu) / self.sigma) / (self.sigma * self.z)
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Inverse-CDF sampling within the truncated mass.
        let u = uniform01(rng);
        let q = self.cdf_lo + u * self.z;
        let x = self.mu + self.sigma * normal_quantile(q);
        x.clamp(self.lo, self.hi)
    }
}

/// Exponential distribution (rate `alpha`) shifted to start at `lo` and
/// conditioned on `[lo, hi]` — used in Appendix D / Fig. 10 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedExponential {
    alpha: f64,
    lo: f64,
    hi: f64,
    /// `1 − e^{−α(hi−lo)}`, cached normalizer.
    z: f64,
}

impl TruncatedExponential {
    /// Creates `lo + Exp(alpha)` conditioned on `[lo, hi]`.
    ///
    /// # Panics
    /// Panics on non-positive `alpha` or an empty interval.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "rate must be positive, got {alpha}");
        assert_interval(lo, hi);
        let z = 1.0 - (-alpha * (hi - lo)).exp();
        Self { alpha, lo, hi, z }
    }

    /// The paper's Appendix-D demand on `[1, 5]` with rate `alpha`
    /// (Fig. 10 varies `alpha ∈ {0.5, 0.75, 1, 1.25, 1.5}`).
    pub fn paper(alpha: f64) -> Self {
        Self::new(alpha, 1.0, 5.0)
    }
}

impl DemandDistribution for TruncatedExponential {
    fn cdf(&self, p: f64) -> f64 {
        if p <= self.lo {
            0.0
        } else if p >= self.hi {
            1.0
        } else {
            ((1.0 - (-self.alpha * (p - self.lo)).exp()) / self.z).clamp(0.0, 1.0)
        }
    }

    fn pdf(&self, p: f64) -> f64 {
        if p < self.lo || p > self.hi {
            0.0
        } else {
            self.alpha * (-self.alpha * (p - self.lo)).exp() / self.z
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u = uniform01(rng);
        let x = self.lo - (1.0 - u * self.z).ln() / self.alpha;
        x.clamp(self.lo, self.hi)
    }
}

/// Uniform distribution on `[lo, hi]` (MHR; hazard `1/(hi−p)` increasing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi]`.
    ///
    /// # Panics
    /// Panics on an empty interval.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert_interval(lo, hi);
        Self { lo, hi }
    }
}

impl DemandDistribution for Uniform {
    fn cdf(&self, p: f64) -> f64 {
        ((p - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn pdf(&self, p: f64) -> f64 {
        if p < self.lo || p > self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.lo + uniform01(rng) * (self.hi - self.lo)
    }
}

/// Closed enum over the two families the paper's worlds draw from, so
/// per-grid demand can be stored in a flat `Vec<Demand>` with static
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Demand {
    /// Truncated Normal (Table 3 default).
    Normal(TruncatedNormal),
    /// Truncated Exponential (Appendix D).
    Exponential(TruncatedExponential),
}

impl Demand {
    /// Paper-default normal demand on `[1,5]`.
    pub fn paper_normal(mu: f64, sigma: f64) -> Self {
        Demand::Normal(TruncatedNormal::paper(mu, sigma))
    }

    /// Paper Appendix-D exponential demand on `[1,5]`.
    pub fn paper_exponential(alpha: f64) -> Self {
        Demand::Exponential(TruncatedExponential::paper(alpha))
    }
}

macro_rules! dispatch {
    ($self:ident, $d:ident => $body:expr) => {
        match $self {
            Demand::Normal($d) => $body,
            Demand::Exponential($d) => $body,
        }
    };
}

impl DemandDistribution for Demand {
    fn cdf(&self, p: f64) -> f64 {
        dispatch!(self, d => d.cdf(p))
    }
    fn pdf(&self, p: f64) -> f64 {
        dispatch!(self, d => d.pdf(p))
    }
    fn support(&self) -> (f64, f64) {
        dispatch!(self, d => d.support())
    }
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        dispatch!(self, d => d.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A distribution the properties below run on; `Debug` names it in a
    /// failure.
    trait Family: DemandDistribution + std::fmt::Debug {}
    impl<D: DemandDistribution + std::fmt::Debug> Family for D {}

    fn families() -> Vec<Box<dyn Family>> {
        vec![
            Box::new(Demand::paper_normal(2.0, 1.0)),
            Box::new(Demand::paper_normal(1.0, 0.5)),
            Box::new(Demand::paper_normal(3.0, 2.5)),
            Box::new(Demand::paper_exponential(1.0)),
            Box::new(Demand::paper_exponential(0.5)),
            Box::new(Uniform::new(1.0, 5.0)),
        ]
    }

    #[test]
    fn cdf_boundary_values() {
        for d in families() {
            let (lo, hi) = d.support();
            assert_eq!(d.cdf(lo), 0.0, "{d:?}");
            assert_eq!(d.cdf(hi), 1.0, "{d:?}");
            assert_eq!(d.cdf(lo - 1.0), 0.0);
            assert_eq!(d.cdf(hi + 1.0), 1.0);
            assert_eq!(d.survival(lo), 1.0);
            assert_eq!(d.survival(hi), 0.0);
        }
    }

    #[test]
    fn cdf_monotone_nondecreasing() {
        for d in families() {
            let (lo, hi) = d.support();
            let mut prev = -1.0;
            for i in 0..=400 {
                let p = lo + (hi - lo) * i as f64 / 400.0;
                let c = d.cdf(p);
                assert!(c + 1e-12 >= prev, "{d:?} not monotone at {p}");
                prev = c;
            }
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        for d in families() {
            let (lo, hi) = d.support();
            let n = 20_000;
            let h = (hi - lo) / n as f64;
            let mut integral = 0.0;
            for i in 0..n {
                let p = lo + (i as f64 + 0.5) * h;
                integral += d.pdf(p) * h;
            }
            assert!((integral - 1.0).abs() < 1e-3, "{d:?}: ∫pdf = {integral}");
        }
    }

    #[test]
    fn pdf_matches_cdf_derivative() {
        for d in families() {
            let (lo, hi) = d.support();
            for i in 1..20 {
                let p = lo + (hi - lo) * i as f64 / 20.0;
                if p + 1e-5 > hi {
                    continue;
                }
                let numeric = (d.cdf(p + 1e-5) - d.cdf(p - 1e-5)) / 2e-5;
                assert!(
                    (numeric - d.pdf(p)).abs() < 1e-3,
                    "{d:?} at {p}: dF={numeric} pdf={}",
                    d.pdf(p)
                );
            }
        }
    }

    #[test]
    fn hazard_rate_is_monotone_nondecreasing() {
        // The MHR property Sec. 3.1.1 relies on.
        for d in families() {
            let (lo, hi) = d.support();
            let mut prev = 0.0;
            for i in 1..=380 {
                // stop short of hi where hazard → ∞ numerically
                let p = lo + (hi - lo) * i as f64 / 400.0;
                let h = d.hazard(p);
                assert!(
                    h + 1e-9 >= prev,
                    "{d:?} hazard decreasing at p={p}: {h} < {prev}"
                );
                prev = h;
            }
        }
    }

    #[test]
    fn samples_lie_in_support_and_match_cdf() {
        let mut rng = SmallRng::seed_from_u64(7);
        for d in families() {
            let (lo, hi) = d.support();
            let n = 20_000;
            let mid = 0.5 * (lo + hi);
            let mut below = 0usize;
            for _ in 0..n {
                let v = d.sample(&mut rng);
                assert!((lo..=hi).contains(&v), "{d:?} sample {v} out of support");
                if v <= mid {
                    below += 1;
                }
            }
            let emp = below as f64 / n as f64;
            let want = d.cdf(mid);
            assert!(
                (emp - want).abs() < 0.02,
                "{d:?}: empirical F(mid)={emp} vs {want}"
            );
        }
    }

    #[test]
    fn survival_at_table1_prices_is_plausible() {
        // Table 1 of the paper: S(1)=0.9, S(2)=0.8, S(3)=0.5. A truncated
        // normal with mu≈3, sigma≈1.3 approximates that shape; sanity-check
        // that our machinery produces a decreasing S over {1,2,3}.
        let d = Demand::paper_normal(3.0, 1.3);
        let s1 = d.survival(1.0);
        let s2 = d.survival(2.0);
        let s3 = d.survival(3.0);
        assert!(s1 > s2 && s2 > s3, "{s1} > {s2} > {s3} expected");
        assert_eq!(d.survival(1.0), 1.0); // lo of support: everyone accepts
    }

    #[test]
    fn revenue_curve_unimodal_on_mhr() {
        // p·S(p) must rise then fall (Fig. 3a) — verify no second mode.
        for d in families() {
            let (lo, hi) = d.support();
            let mut values = Vec::new();
            for i in 0..=400 {
                let p = lo + (hi - lo) * i as f64 / 400.0;
                values.push(d.revenue_curve(p));
            }
            let mut increasing_after_peak = false;
            let mut peaked = false;
            for w in values.windows(2) {
                if w[1] < w[0] - 1e-9 {
                    peaked = true;
                } else if peaked && w[1] > w[0] + 1e-6 {
                    increasing_after_peak = true;
                }
            }
            assert!(!increasing_after_peak, "{d:?}: revenue curve not unimodal");
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_bad_sigma() {
        let _ = TruncatedNormal::new(2.0, 0.0, 1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_bad_rate() {
        let _ = TruncatedExponential::new(-1.0, 1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-empty interval")]
    fn rejects_empty_interval() {
        let _ = Uniform::new(5.0, 1.0);
    }
}
