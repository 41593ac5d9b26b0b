//! Special functions implemented from scratch: `erf`, the standard normal
//! CDF `Φ`, its density `φ`, and the normal quantile `Φ⁻¹`.
//!
//! The offline dependency policy for this reproduction does not include a
//! math crate, so we carry our own implementations:
//!
//! * `erf` — Abramowitz & Stegun 7.1.26 rational approximation
//!   (|error| ≤ 1.5·10⁻⁷), sufficient for demand CDFs whose estimators
//!   are themselves sampled to ~10⁻² accuracy.
//! * `Φ⁻¹` — Acklam's rational approximation (within 3.9·10⁻⁹ absolute
//!   of the true quantile on its own) refined by one Halley step against
//!   our own `Φ`. The step pulls the result toward the inverse of the
//!   A&S `Φ` above rather than the true one: against Python's
//!   `statistics.NormalDist().inv_cdf` over `p = i/20000`, the absolute
//!   error is 1.3·10⁻⁹ at `p = 0.5`, 4.1·10⁻⁸ at 0.7, 3.9·10⁻⁷ at 0.9,
//!   2.0·10⁻⁵ at 0.999 and 9.5·10⁻⁵ at worst (`p = 0.99995`), alike in
//!   the lower tail. The step stays: dropping it moves every sampled
//!   valuation and so every golden (a deliberate re-bless, ROADMAP
//!   item 21).

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{−t²} dt`.
pub fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun formula 7.1.26.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function
/// `Φ(x) = (1 + erf(x/√2)) / 2`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal density `φ(x) = e^{−x²/2} / √(2π)`.
pub fn normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Returns `−∞` at `p = 0` and `+∞` at `p = 1`.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]` or NaN.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "quantile argument must be in [0,1], got {p}"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against our own Φ.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERF_TOL: f64 = 2e-7; // A&S 7.1.26 guarantee

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (1.5, 0.966_105_146_5),
            (2.0, 0.995_322_265_0),
            (3.0, 0.999_977_909_5),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < ERF_TOL, "erf({x})");
            assert!((erf(-x) + want).abs() < ERF_TOL, "erf(-{x}) odd symmetry");
        }
    }

    #[test]
    fn erf_limits() {
        assert!((erf(6.0) - 1.0).abs() < 1e-12);
        assert!((erf(-6.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_1),
            (1.96, 0.975_002_104_9),
            (-1.0, 0.158_655_253_9),
            (2.575_829, 0.995_000_0),
        ];
        for (x, want) in cases {
            assert!((normal_cdf(x) - want).abs() < 2e-7, "Phi({x})");
        }
    }

    #[test]
    fn normal_cdf_monotone() {
        let mut prev = -1.0;
        let mut x = -5.0;
        while x <= 5.0 {
            let c = normal_cdf(x);
            assert!(c >= prev, "Phi not monotone at {x}");
            prev = c;
            x += 0.01;
        }
    }

    #[test]
    fn normal_pdf_reference() {
        assert!((normal_pdf(0.0) - 0.398_942_280_4).abs() < 1e-10);
        assert!((normal_pdf(1.0) - 0.241_970_724_5).abs() < 1e-10);
        assert!((normal_pdf(-1.0) - normal_pdf(1.0)).abs() < 1e-15);
    }

    #[test]
    fn quantile_reference_values() {
        let cases = [
            (0.5, 0.0),
            (0.975, 1.959_963_985),
            (0.995, 2.575_829_304),
            (0.025, -1.959_963_985),
            (0.841_344_746_1, 1.0),
        ];
        for (p, want) in cases {
            assert!(
                (normal_quantile(p) - want).abs() < 1e-5,
                "quantile({p}) = {} want {want}",
                normal_quantile(p)
            );
        }
    }

    #[test]
    fn quantile_cdf_roundtrip() {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "roundtrip at p={p}");
        }
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let _ = normal_quantile(1.5);
    }
}
