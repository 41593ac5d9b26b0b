//! Base pricing — Algorithm 1 of the paper (Sec. 3).
//!
//! For every grid, probe each ladder price `p` against
//! `h(p) = ⌈(2p²/ε²)·ln(2k/δ)⌉` recent requesters, estimate the
//! acceptance ratio `Ŝ^g(p)`, pick the rung maximizing `p·Ŝ^g(p)` (ties
//! towards the smaller price) as the estimated Myerson reserve price
//! `p_m^g`, and return the arithmetic mean over grids as the **base
//! price** `p_b`.
//!
//! The sampling accuracy is Example 4's `(ε, δ) = (0.2, 0.01)`, the one
//! the paper runs: [`BasePricing::EPSILON`] and [`BasePricing::DELTA`].
//!
//! Guarantees reproduced in tests: Theorem 2 (with prob. `1−δ` the chosen
//! rung is ε-optimal among candidates), Theorem 3 (`p_m·S(p_m) ≥
//! (1−α)·p*·S(p*)` against the continuous optimum).

use crate::problem::DemandProbe;
use maps_market::{PriceLadder, UcbStats};

/// Outcome of the base-pricing calibration phase.
#[derive(Debug, Clone)]
pub struct BasePriceResult {
    /// Estimated Myerson reserve price per grid: `(ladder index, price)`.
    pub per_grid: Vec<(usize, f64)>,
    /// The base price `p_b = Σ_g p_m^g / G`.
    pub base_price: f64,
    /// The per-grid sampling statistics, the paper's shared statistics
    /// `P`: MAPS keeps them as its UCB learners (BaseP, SDR and SDE keep
    /// only `base_price`; CappedUCB never calibrates).
    pub stats: Vec<UcbStats>,
}

/// Algorithm 1 over one candidate ladder.
#[derive(Debug, Clone)]
pub struct BasePricing {
    ladder: PriceLadder,
}

impl BasePricing {
    /// Sampling half-width `ε` (Example 4).
    pub const EPSILON: f64 = 0.2;

    /// Failure probability `δ` (Example 4).
    pub const DELTA: f64 = 0.01;

    /// Algorithm 1 line 5: the number of probes for price `p`,
    /// `h(p) = ⌈(2p²/ε²)·ln(2k/δ)⌉`.
    ///
    /// Example 4 of the paper: `p=1, ε=0.2, δ=0.01, k=4 → h = 335`.
    pub fn required_samples(p: f64, epsilon: f64, delta: f64, k: usize) -> u64 {
        assert!(p > 0.0 && epsilon > 0.0 && delta > 0.0 && k > 0);
        ((2.0 * p * p / (epsilon * epsilon)) * (2.0 * k as f64 / delta).ln()).ceil() as u64
    }

    /// Creates the calibrator over `ladder`.
    pub fn new(ladder: PriceLadder) -> Self {
        Self { ladder }
    }

    /// The paper's ladder (1, 5, α=0.5).
    pub fn paper_default() -> Self {
        Self::new(PriceLadder::paper_default())
    }

    /// The candidate ladder.
    pub fn ladder(&self) -> &PriceLadder {
        &self.ladder
    }

    /// Runs Algorithm 1 over `num_cells` grids against the probe oracle.
    ///
    /// # Panics
    /// Panics if `num_cells == 0`.
    pub fn learn(&self, num_cells: usize, probe: &mut dyn DemandProbe) -> BasePriceResult {
        assert!(num_cells > 0, "need at least one grid");
        let k = self.ladder.k();
        let mut per_grid = Vec::with_capacity(num_cells);
        let mut stats = Vec::with_capacity(num_cells);
        let mut sum = 0.0;
        for cell in 0..num_cells {
            let mut learned = UcbStats::new(self.ladder.len());
            // Lines 4–8: probe every rung h(p) times.
            for (idx, p) in self.ladder.ascending() {
                let h = Self::required_samples(p, Self::EPSILON, Self::DELTA, k);
                let accepted = probe.probe(cell.into(), p, h);
                assert!(
                    accepted <= h,
                    "probe returned more acceptances than probes ({accepted} > {h})"
                );
                learned.observe_batch(idx, h, accepted);
            }
            // Line 9: argmax p·Ŝ(p), ties to the smaller price (every
            // rung holds h(p) ≥ 1 probes, so Ŝ(p) is a sample mean).
            let mut best_idx = 0usize;
            let mut best_val = f64::NEG_INFINITY;
            for (idx, p) in self.ladder.ascending() {
                let v = p * learned.s_hat(idx);
                if v > best_val {
                    best_val = v;
                    best_idx = idx;
                }
            }
            let p_m = self.ladder.price(best_idx);
            sum += p_m;
            per_grid.push((best_idx, p_m));
            stats.push(learned);
        }
        BasePriceResult {
            per_grid,
            base_price: sum / num_cells as f64,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BasePStrategy, Surge};
    use crate::maps_strategy::MapsStrategy;
    use crate::problem::PricingStrategy;
    use maps_market::{Demand, DemandDistribution};
    use maps_spatial::CellId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Probe backed by ground-truth demand distributions, one per grid.
    struct TruthProbe {
        demands: Vec<Demand>,
        rng: SmallRng,
        probes_issued: u64,
    }

    impl TruthProbe {
        fn new(demands: Vec<Demand>, seed: u64) -> Self {
            Self {
                demands,
                rng: SmallRng::seed_from_u64(seed),
                probes_issued: 0,
            }
        }
    }

    impl DemandProbe for TruthProbe {
        fn probe(&mut self, cell: CellId, price: f64, n: u64) -> u64 {
            self.probes_issued += n;
            let s = self.demands[cell.index()].survival(price);
            (0..n).filter(|_| self.rng.gen::<f64>() < s).count() as u64
        }
    }

    #[test]
    fn deterministic_probe_finds_exact_argmax() {
        // A probe that answers with exact (rounded) acceptance counts:
        // the argmax over the ladder must be recovered exactly.
        struct Exact;
        impl DemandProbe for Exact {
            fn probe(&mut self, _cell: CellId, price: f64, n: u64) -> u64 {
                let s = Demand::paper_normal(2.0, 1.0).survival(price);
                (s * n as f64).round() as u64
            }
        }
        let bp = BasePricing::paper_default();
        let result = bp.learn(4, &mut Exact);
        let d = Demand::paper_normal(2.0, 1.0);
        // Ground-truth ladder argmax:
        let want = bp
            .ladder()
            .ascending()
            .max_by(|a, b| (a.1 * d.survival(a.1)).total_cmp(&(b.1 * d.survival(b.1))))
            .unwrap();
        for &(idx, p) in &result.per_grid {
            assert_eq!(idx, want.0);
            assert!((p - want.1).abs() < 1e-12);
        }
        assert!((result.base_price - want.1).abs() < 1e-12);
    }

    #[test]
    fn base_price_is_mean_of_grid_reserves() {
        // Two grids with very different demand: the base price must be
        // the average of the two per-grid choices.
        struct TwoGrids;
        impl DemandProbe for TwoGrids {
            fn probe(&mut self, cell: CellId, price: f64, n: u64) -> u64 {
                let d = if cell.index() == 0 {
                    Demand::paper_normal(1.2, 0.4) // cheap market
                } else {
                    Demand::paper_normal(3.5, 0.4) // expensive market
                };
                (d.survival(price) * n as f64).round() as u64
            }
        }
        let bp = BasePricing::paper_default();
        let r = bp.learn(2, &mut TwoGrids);
        assert!(r.per_grid[0].1 < r.per_grid[1].1);
        let mean = (r.per_grid[0].1 + r.per_grid[1].1) / 2.0;
        assert!((r.base_price - mean).abs() < 1e-12);
        // Stats are returned per grid with all rungs probed.
        assert_eq!(r.stats.len(), 2);
        for s in &r.stats {
            for idx in 0..bp.ladder().len() {
                assert!(s.n_at(idx) > 0);
            }
        }
    }

    #[test]
    fn theorem2_pac_guarantee_statistical() {
        // With probability 1−δ the chosen rung's true value is within ε of
        // the best rung's. Run 25 seeded trials; allow ≤ 2 failures
        // (δ = 0.01 each ⇒ expected ≈ 0.25 failures).
        let bp = BasePricing::paper_default();
        let d = Demand::paper_normal(2.0, 1.0);
        let best: f64 = bp
            .ladder()
            .ascending()
            .map(|(_, p)| p * d.survival(p))
            .fold(0.0, f64::max);
        let mut failures = 0;
        for seed in 0..25 {
            let mut probe = TruthProbe::new(vec![Demand::paper_normal(2.0, 1.0)], seed);
            let r = bp.learn(1, &mut probe);
            let (_, p_m) = r.per_grid[0];
            if p_m * d.survival(p_m) < best - BasePricing::EPSILON {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/25 PAC violations");
    }

    #[test]
    fn probe_budget_matches_schedule() {
        // The number of issued probes must be exactly G · Σ_p h(p), at
        // Example 4's (ε, δ) written out: the one check that pins the
        // constants (the strategy golden's small world posts the same
        // rungs at ε = 0.25).
        let bp = BasePricing::paper_default();
        let mut probe = TruthProbe::new(vec![Demand::paper_normal(2.0, 1.0); 3], 5);
        let _ = bp.learn(3, &mut probe);
        let k = bp.ladder().k();
        let per_grid: u64 = bp
            .ladder()
            .ascending()
            .map(|(_, p)| BasePricing::required_samples(p, 0.2, 0.01, k))
            .sum();
        assert_eq!(probe.probes_issued, 3 * per_grid);
    }

    fn saved_state(strategy: &dyn PricingStrategy) -> Vec<u64> {
        let mut words = Vec::new();
        strategy.save_state(&mut words);
        words
    }

    /// The hand-over of Sec. 4.2.2: a strategy calibrated by a seeded
    /// probe keeps exactly what Algorithm 1 learns from an identically
    /// seeded one — MAPS its clamped base price and every grid's
    /// statistics, BaseP, SDR and SDE their clamped base price alone.
    #[test]
    fn calibrate_keeps_what_algorithm_1_learned() {
        let demands: Vec<Demand> = [(1.2, 0.4), (2.0, 1.0), (3.5, 0.4), (2.8, 2.0)]
            .map(|(mu, sigma)| Demand::paper_normal(mu, sigma))
            .to_vec();
        let cells = demands.len();
        let probe = || TruthProbe::new(demands.clone(), 17);
        let bp = BasePricing::paper_default();
        let learned = bp.learn(cells, &mut probe());
        let base = bp.ladder().clamp(learned.base_price);
        // Calibration must move the base price off the uncalibrated
        // default (the middle rung) for the check below to see it.
        assert_ne!(base, bp.ladder().price(bp.ladder().len() / 2));

        let mut maps = MapsStrategy::paper_default(cells);
        maps.calibrate(&mut probe());
        let mut want = vec![base.to_bits(), cells as u64];
        for stats in &learned.stats {
            stats.save_words(&mut want);
        }
        want.push(0);
        assert_eq!(saved_state(&maps), want);

        for surge in [Surge::Flat, Surge::Ratio, Surge::Exponential] {
            let mut strategy = BasePStrategy::paper_default(cells, surge);
            strategy.calibrate(&mut probe());
            assert_eq!(saved_state(&strategy), [base.to_bits()], "{surge:?}");
        }
    }

    #[test]
    fn example4_sample_size() {
        // Paper Example 4: h(1) = 335 with ε=0.2, δ=0.01, k=4.
        assert_eq!(BasePricing::required_samples(1.0, 0.2, 0.01, 4), 335);
        // h grows quadratically with the price: ⌈4 · 334.23⌉ = 1337.
        assert_eq!(BasePricing::required_samples(2.0, 0.2, 0.01, 4), 1337);
    }

    #[test]
    fn hoeffding_schedule_achieves_epsilon() {
        // Statistical test of Theorem 2's ingredient: with h(p) samples,
        // |p·Ŝ − p·S| ≤ ε/2 with probability ≥ 1 − δ/k. Run 40 seeded
        // trials and require no more than a small number of violations.
        let demand = Demand::paper_normal(2.0, 1.0);
        let (eps, delta, k) = (0.2, 0.01, 4usize);
        let price = 2.25;
        let s_true = demand.survival(price);
        let h = BasePricing::required_samples(price, eps, delta, k);
        let mut violations = 0;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut acc = 0u64;
            for _ in 0..h {
                acc += u64::from(rng.gen::<f64>() < s_true);
            }
            let s_hat = acc as f64 / h as f64;
            if (price * s_hat - price * s_true).abs() > eps / 2.0 {
                violations += 1;
            }
        }
        assert!(
            violations <= 1,
            "{violations} of 40 trials violated the bound"
        );
    }

    #[test]
    #[should_panic(expected = "at least one grid")]
    fn rejects_zero_grids() {
        struct Never;
        impl DemandProbe for Never {
            fn probe(&mut self, _: CellId, _: f64, _: u64) -> u64 {
                0
            }
        }
        let _ = BasePricing::paper_default().learn(0, &mut Never);
    }
}
