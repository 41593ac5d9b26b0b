//! Myerson reserve price solvers (Sec. 3.1.1 of the paper).
//!
//! With sufficient supply the optimal unit price for a grid maximizes the
//! revenue curve `p·S(p)`; under MHR demand this curve is unimodal and its
//! unique maximizer is the Myerson reserve price `p_m = argmax_p p·S(p)`.
//! We provide:
//!
//! * [`myerson_reserve_continuous`] — golden-section search on a closed
//!   interval, exploiting unimodality (the oracle used by tests and by
//!   ground-truth experiment reporting).

use crate::demand::DemandDistribution;

/// Golden-section maximization of `p·S(p)` over `[lo, hi]`.
///
/// Requires a unimodal revenue curve (true for MHR demand). Returns
/// `(p_m, p_m·S(p_m))` to absolute `p`-tolerance `tol`.
///
/// # Panics
/// Panics if the interval is empty or `tol` is non-positive.
pub fn myerson_reserve_continuous<D: DemandDistribution + ?Sized>(
    demand: &D,
    lo: f64,
    hi: f64,
    tol: f64,
) -> (f64, f64) {
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    assert!(tol > 0.0, "tolerance must be positive");
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // 1/φ

    let f = |p: f64| demand.revenue_curve(p);
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut fc, mut fd) = (f(c), f(d));
    while (b - a) > tol {
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    let p = 0.5 * (a + b);
    (p, f(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Demand, Uniform};
    use crate::ladder::PriceLadder;

    #[test]
    fn uniform_reserve_price_closed_form() {
        // For U[0,1]: p·S(p) = p(1−p), maximized at 1/2.
        let d = Uniform::new(0.0, 1.0);
        let (p, v) = myerson_reserve_continuous(&d, 0.0, 1.0, 1e-9);
        assert!((p - 0.5).abs() < 1e-6, "got {p}");
        assert!((v - 0.25).abs() < 1e-9);
    }

    #[test]
    fn uniform_on_1_5_closed_form() {
        // U[1,5]: p·S(p) = p(5−p)/4 on [1,5], maximized at p = 2.5 with
        // value 2.5·2.5/4 = 1.5625.
        let d = Uniform::new(1.0, 5.0);
        let (p, v) = myerson_reserve_continuous(&d, 1.0, 5.0, 1e-9);
        assert!((p - 2.5).abs() < 1e-6);
        assert!((v - 1.5625).abs() < 1e-9);
    }

    #[test]
    fn search_interval_clamps_maximizer() {
        // If the optimum (2.5) lies outside [1,2], the search must return
        // the boundary (Sec. 3.2 Remarks: return p_min/p_max when the
        // reserve price falls outside the window).
        let d = Uniform::new(1.0, 5.0);
        let (p, _) = myerson_reserve_continuous(&d, 1.0, 2.0, 1e-9);
        assert!((p - 2.0).abs() < 1e-6);
    }

    #[test]
    fn normal_reserve_matches_ladder_up_to_step() {
        let d = Demand::paper_normal(2.0, 1.0);
        let ladder = PriceLadder::paper_default();
        let (p_cont, v_cont) = myerson_reserve_continuous(&d, 1.0, 5.0, 1e-9);
        let (p_ladder, v_ladder) = ladder
            .ascending()
            .map(|(_, p)| (p, d.revenue_curve(p)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        // Theorem 3: ladder value within (1−α) of the continuous optimum.
        assert!(v_ladder >= (1.0 - ladder.alpha()) * v_cont);
        // And the chosen rung brackets the continuous optimum.
        assert!(
            p_ladder <= p_cont * (1.0 + ladder.alpha()) + 1e-9
                && p_cont <= p_ladder * (1.0 + ladder.alpha()) + 1e-9,
            "p_ladder={p_ladder} p_cont={p_cont}"
        );
    }

    #[test]
    fn exponential_reserve_is_interior() {
        let d = Demand::paper_exponential(1.0);
        let (p, v) = myerson_reserve_continuous(&d, 1.0, 5.0, 1e-9);
        assert!(p > 1.0 && p < 5.0);
        assert!(v > 0.0);
        // Value at the reserve must dominate endpoints.
        assert!(v + 1e-9 >= d.revenue_curve(1.0));
        assert!(v + 1e-9 >= d.revenue_curve(5.0));
    }

    #[test]
    fn continuous_beats_every_ladder_rung() {
        for d in [
            Demand::paper_normal(2.0, 1.0),
            Demand::paper_normal(1.5, 0.5),
            Demand::paper_exponential(0.75),
        ] {
            let ladder = PriceLadder::paper_default();
            let (_, v_cont) = myerson_reserve_continuous(&d, 1.0, 5.0, 1e-10);
            for (_, p) in ladder.ascending() {
                assert!(v_cont + 1e-9 >= d.revenue_curve(p), "{d:?} at {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn rejects_empty_interval() {
        let d = Uniform::new(0.0, 1.0);
        let _ = myerson_reserve_continuous(&d, 1.0, 0.5, 1e-6);
    }
}
