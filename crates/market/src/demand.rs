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
//!
//! Each family's one inverse-CDF map is [`DemandDistribution::quantile`]:
//! a valuation is `quantile(u)` of one uniform `u ∈ [0, 1)`, whether it
//! is drawn by `sample` or decided against a price through
//! [`DemandDistribution::cut`], which Algorithm 1's probe reads.

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

    /// The inverse CDF: the valuation that the uniform `u ∈ [0, 1)` maps
    /// to. Non-decreasing in `u` up to rounding (see [`AcceptanceCut`]).
    fn quantile(&self, u: f64) -> f64;

    /// Draws one valuation: `quantile` of one uniform draw.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.quantile(uniform01(rng))
    }

    /// The verdicts `quantile(u) > price` over all `u ∈ [0, 1)` as one
    /// cut in `u`; see [`AcceptanceCut`] for why reading it is exact.
    fn cut(&self, price: f64) -> AcceptanceCut<'_, Self>
    where
        Self: Sized,
    {
        AcceptanceCut::new(self, price)
    }

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

/// Which uniforms `u ∈ [0, 1)` a demand maps above a price: the verdict
/// `quantile(u) > price` of every `u`, found once per price instead of
/// once per draw.
///
/// `quantile` is non-decreasing in `u` up to rounding, so the verdicts
/// are `[u ≥ u*]` for the smallest `u*` with `quantile(u*) > price`
/// ([`DemandDistribution::cut`] bisects for it over the bit patterns of
/// `u`, which order like the values, so the cut does not depend on how
/// a generator forms its uniforms). Rounding can make the computed
/// `quantile` wiggle by a few ulps around `price` near `u*`, so the cut
/// is read with a guard band of [`Self::BAND`] on each side: below
/// `u* − BAND` the verdict is reject, at or above `u* + BAND` accept,
/// and inside the band the exact comparison is made. [`Self::accepts`]
/// therefore answers what `quantile(u) > price` answers for every `u`
/// on which the computed `quantile` is monotone outside the band.
///
/// Why that holds. Round-to-nearest keeps the order of its inputs, so
/// every arithmetic step of the maps (`cdf_lo + u·z`, `1 − u·z`, the
/// scalings, the clamps) is non-decreasing; what can wiggle is a
/// library function, and the one that does is `normal_quantile`, whose
/// Halley step can move its result by a few ulps either way. One `BAND`
/// (`2⁻²⁴`, i.e. 2²⁹ steps of the `2⁻⁵³` grid a generator's `u` lies on)
/// moves an unclamped valuation by at least `2⁻²⁴` over the largest
/// density (10⁻⁹ even at a density of 60), against ulps of ≈ 10⁻¹⁵ on
/// `[1, 5]`, so a wiggle cannot carry the verdict across the band.
///
/// Measured: over ±2¹⁶ grid steps around 2 200 cuts (200 seeded normal
/// and exponential families on `[1, 5]` × 11 prices, 235 M points), the
/// farthest disagreement between the computed verdict and `[u ≥ u*]`
/// was 6 steps from `u*` (price 1.5 for `N(0.19, 2.43²)`); 10⁵ seeded
/// `u` per cut found none outside the band. `demand::tests` re-checks
/// every grid point within ±2¹² steps of `u*` and of both band edges for
/// seeded families at every paper rung, at both support ends and beyond
/// them. The band is `2⁻²³` wide, so a calibration of 100 grids
/// (≈ 659 k draws) evaluates `quantile` for ≈ 0.1 of them.
#[derive(Debug, Clone, Copy)]
pub struct AcceptanceCut<'a, D> {
    demand: &'a D,
    price: f64,
    /// The smallest `u` with `quantile(u) > price`; `1.0` if none is.
    u_star: f64,
}

impl<'a, D: DemandDistribution> AcceptanceCut<'a, D> {
    /// The guard band's half-width in `u`, `2⁻²⁴`.
    pub const BAND: f64 = 1.0 / (1u64 << 24) as f64;

    /// Bisects for the smallest `u ∈ [0, 1)` with `quantile(u) > price`
    /// over the bit patterns of `u`: at most 62 evaluations.
    fn new(demand: &'a D, price: f64) -> Self {
        let (mut lo, mut hi) = (0u64, 1f64.to_bits());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if demand.quantile(f64::from_bits(mid)) > price {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Self {
            demand,
            price,
            u_star: f64::from_bits(lo),
        }
    }

    /// Whether a draw of uniform `u` accepts the price:
    /// `quantile(u) > price`, evaluated only inside the band.
    pub fn accepts(&self, u: f64) -> bool {
        if u < self.u_star - Self::BAND {
            false
        } else if u >= self.u_star + Self::BAND {
            true
        } else {
            self.demand.quantile(u) > self.price
        }
    }
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

    fn quantile(&self, u: f64) -> f64 {
        // The inverse CDF within the truncated mass.
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

    fn quantile(&self, u: f64) -> f64 {
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

    fn quantile(&self, u: f64) -> f64 {
        self.lo + u * (self.hi - self.lo)
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
    fn quantile(&self, u: f64) -> f64 {
        dispatch!(self, d => d.quantile(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
    fn sample_is_the_quantile_of_its_draw() {
        for d in families() {
            let (mut by_sample, mut by_quantile) =
                (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
            for _ in 0..1_000 {
                let v = d.sample(&mut by_sample);
                let q = d.quantile(by_quantile.gen::<f64>());
                assert_eq!(v.to_bits(), q.to_bits(), "{d:?}");
            }
        }
    }

    /// The cut answers `quantile(u) > price` on every `u`-grid point
    /// (multiples of `2⁻⁵³`, where a generator's uniforms lie) within
    /// ±2¹² steps of `u*` and of both band edges, and on 10⁴ seeded
    /// uniforms, at every paper rung, both support ends and a price
    /// beyond each. The families are seeded truncated normals (μ below,
    /// inside and above `[1, 5]`) and exponentials, plus two fixed
    /// normals: `N(0.5, 1.72²)`, whose cut at `price = lo` sits 657 grid
    /// steps above `u = 0` (`quantile(0) ≈ lo`, the lower band edge
    /// below 0), and the one where a sweep found the computed verdict
    /// farthest from `[u ≥ u*]` (6 steps, at price 1.5).
    #[test]
    fn the_cut_is_the_per_draw_verdict() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut demands = vec![
            Demand::paper_normal(0.5, 1.72),
            Demand::paper_normal(0.190_518_891_310_121, 2.433_265_410_375_245_4),
        ];
        for _ in 0..4 {
            let mu = 6.0 * rng.gen::<f64>();
            demands.push(Demand::paper_normal(mu, 0.2 + 2.5 * rng.gen::<f64>()));
        }
        for _ in 0..3 {
            demands.push(Demand::paper_exponential(0.05 + 2.45 * rng.gen::<f64>()));
        }
        let step = 1.0 / (1u64 << 53) as f64;
        let mut prices = crate::PriceLadder::paper_default().prices().to_vec();
        prices.extend([1.0, 5.0, 0.5, 5.5]);
        for d in &demands {
            for &price in &prices {
                let cut = d.cut(price);
                let exact = |u: f64| d.quantile(u) > price;
                let u_star = cut.u_star;
                if u_star < 1.0 {
                    assert!(exact(u_star), "{d:?} at {price}: u* accepts");
                }
                if u_star > 0.0 {
                    let below = f64::from_bits(u_star.to_bits() - 1);
                    assert!(!exact(below), "{d:?} at {price}: below u* rejects");
                }
                let band = AcceptanceCut::<Demand>::BAND;
                for anchor in [u_star, u_star - band, u_star + band] {
                    let k = (anchor / step).round() as i64;
                    for k in (k - 4096).max(0)..=(k + 4096).min((1 << 53) - 1) {
                        let u = k as f64 * step;
                        assert_eq!(cut.accepts(u), exact(u), "{d:?} at {price}, u = {u:e}");
                    }
                }
                for _ in 0..10_000 {
                    let u = rng.gen::<f64>();
                    assert_eq!(cut.accepts(u), exact(u), "{d:?} at {price}, u = {u:e}");
                }
            }
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
