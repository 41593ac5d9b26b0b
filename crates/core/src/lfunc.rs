//! The expected-revenue approximation `L^g(n, p)` of Eq. (1) and the
//! Algorithm-3 maximizer.
//!
//! For a grid `g` with task distances `d_{r_1} ≥ d_{r_2} ≥ …` the paper
//! approximates the expected revenue at unit price `p` with `n` units of
//! supply as
//!
//! ```text
//! L^g(n, p) = min( Σ_{r∈R^tg} d_r · p · S^g(p) ,   Σ_{i=1..n} d_{r_i} · p )
//!             └────────── demand curve ─────────┘  └──── supply curve ────┘
//! ```
//!
//! Fig. 4 of the paper shows the three regimes: sufficient supply (the
//! Myerson price maximizes), limited supply with the Myerson price still
//! optimal, and limited supply where the curves' intersection is optimal.
//!
//! Algorithm 3 maximizes the *learned* counterpart: it scores each ladder
//! price with the index `Ĩ(p) = min(p·Ŝ(p) + c(p), (D/C)·p)` (UCB
//! optimism on the demand side, exact supply side) and returns the best
//! rung, scanning from `p_max` downwards.

use maps_market::{PriceLadder, UcbStats};

/// How MAPS turns two successive maximizers into the heap key `Δ^g`.
///
/// Algorithm 3's pseudocode returns `p_new·Ŝ(p_new) − p_old·Ŝ(p_old)`,
/// but the worked Example 5 computes the increase as "the maximum of the
/// minor one of the line and the discretized demand curve", i.e. the
/// difference of [`LFunction::value`] maxima — the quantity whose
/// submodularity Theorem 8 exploits. Both coincide when the discrete
/// maximizer sits on the demand curve; they differ when it is
/// supply-limited. We default to the L-difference and keep the literal
/// pseudocode rule as an ablation (`maps-experiments`' `ablation`
/// binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaRule {
    /// `Δ = max_p L̂(n+1, p) − max_p L̂(n, p)` (Example 5 / Theorem 8).
    #[default]
    LDifference,
    /// `Δ = C·(p_new·Ŝ(p_new) − p_old·Ŝ(p_old))` — the pseudocode line 10
    /// of Algorithm 3, scaled by the grid's distance mass so that grids
    /// are comparable (Example 5's heap keys include the mass).
    ScaledShorthand,
}

/// Which expected-revenue approximation Algorithm 3 maximizes.
///
/// The paper's Appendix C.6 closes with: *"Another approximate expression
/// could be `Σ_{i=1}^{min(|R^tg|·S^g(p), n^tg)} d_{r_i}·p·S^g(p)`. We
/// leave the analysis in future work."* — implemented here as
/// [`ApproxKind::TruncatedExpectation`]: instead of capping the demand
/// curve by the supply line, it sums the top distances that are both
/// within supply *and* within the expected number of acceptors, scaled by
/// the acceptance probability. It lower-bounds Eq. (1) pointwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApproxKind {
    /// Eq. (1): `min(demand curve, supply curve)` — the paper's default.
    #[default]
    MinCurves,
    /// Appendix C.6's alternative (the paper's future-work variant).
    TruncatedExpectation,
}

/// Result of one Algorithm-3 maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Maximizer {
    /// Ladder index of the chosen price.
    pub price_idx: usize,
    /// The chosen price `p_new`.
    pub price: f64,
    /// `L̂(n, p_new) = min(C·p·Ŝ(p), D_n·p)` at the chosen price (plain
    /// sample mean, no optimism) — used for `Δ` under
    /// [`DeltaRule::LDifference`].
    pub l_hat: f64,
    /// `C·p_new·Ŝ(p_new)` — used for `Δ` under
    /// [`DeltaRule::ScaledShorthand`].
    pub revenue_hat: f64,
    /// The optimistic index value `Ĩ(p_new)` that won the scan.
    pub index_value: f64,
}

/// Per-grid demand/supply curve bookkeeping for one time period.
#[derive(Debug, Clone, PartialEq)]
pub struct LFunction {
    /// Task distances sorted in decreasing order.
    dists_desc: Vec<f64>,
    /// `prefix[i] = Σ_{j<i} dists_desc[j]`; `prefix[0] = 0`.
    prefix: Vec<f64>,
}

impl LFunction {
    /// Builds the curves from the travel distances of a grid's tasks.
    ///
    /// # Panics
    /// Panics on non-finite or negative distances.
    pub fn new(mut dists: Vec<f64>) -> Self {
        for &d in &dists {
            assert!(d.is_finite() && d >= 0.0, "invalid task distance {d}");
        }
        dists.sort_unstable_by(|a, b| b.total_cmp(a));
        let mut prefix = Vec::with_capacity(dists.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &d in &dists {
            acc += d;
            prefix.push(acc);
        }
        Self {
            dists_desc: dists,
            prefix,
        }
    }

    /// Number of tasks `|R^tg|`.
    pub fn num_tasks(&self) -> usize {
        self.dists_desc.len()
    }

    /// Total demand mass `C = Σ_{r∈R^tg} d_r`.
    fn total_mass(&self) -> f64 {
        *self.prefix.last().expect("prefix never empty")
    }

    /// Supply mass `D_n = Σ_{i=1..n} d_{r_i}` (top-`n` distances;
    /// `n` beyond `|R^tg|` saturates at `C`).
    fn supply_mass(&self, n: usize) -> f64 {
        self.prefix[n.min(self.dists_desc.len())]
    }

    /// Exact `L^g(n, p)` of Eq. (1) for a *known* acceptance ratio `s`.
    pub fn value(&self, n: usize, p: f64, s: f64) -> f64 {
        (self.total_mass() * p * s).min(self.supply_mass(n) * p)
    }

    /// Appendix C.6's alternative approximation
    /// `L̃(n, p) = Σ_{i=1}^{min(⌈|R|·s⌉, n)} d_{r_i} · p · s`.
    fn value_tilde(&self, n: usize, p: f64, s: f64) -> f64 {
        let expected_acceptors = (self.num_tasks() as f64 * s).ceil() as usize;
        self.supply_mass(expected_acceptors.min(n)) * p * s
    }

    /// Dispatch between [`Self::value`] and [`Self::value_tilde`].
    fn value_kind(&self, kind: ApproxKind, n: usize, p: f64, s: f64) -> f64 {
        match kind {
            ApproxKind::MinCurves => self.value(n, p, s),
            ApproxKind::TruncatedExpectation => self.value_tilde(n, p, s),
        }
    }

    /// Algorithm 3: scan the ladder from `p_max` downwards and return the
    /// rung maximizing `Ĩ(p) = min(p·Ŝ(p) + c(p), (D_n/C)·p)` where
    /// `c(p) = p·√(2·ln N / N(p))` when `use_ucb` (zero otherwise — the
    /// no-optimism ablation). Strict improvement while scanning downwards
    /// means ties keep the *larger* price, exactly as the pseudocode's
    /// `if Ĩ_new < …` update does.
    ///
    /// Returns `None` when the grid has no demand mass (`C = 0`).
    pub fn maximize(
        &self,
        n: usize,
        stats: &UcbStats,
        ladder: &PriceLadder,
        use_ucb: bool,
    ) -> Option<Maximizer> {
        self.maximize_kind(ApproxKind::MinCurves, n, stats, ladder, use_ucb)
    }

    /// Algorithm 3 with a selectable approximation: `MinCurves` scores
    /// each rung with the paper's index `min(p·Ŝ(p)+c(p), (D_n/C)·p)`;
    /// `TruncatedExpectation` scores with `L̃` evaluated at the optimistic
    /// `Ŝ(p)+radius`. Either way `l_hat` is the chosen approximation at
    /// the plain sample mean (what `Δ^g` is computed from).
    pub fn maximize_kind(
        &self,
        kind: ApproxKind,
        n: usize,
        stats: &UcbStats,
        ladder: &PriceLadder,
        use_ucb: bool,
    ) -> Option<Maximizer> {
        let c_mass = self.total_mass();
        if c_mass <= 0.0 {
            return None;
        }
        let supply_ratio = self.supply_mass(n) / c_mass;
        let mut best: Option<Maximizer> = None;
        for (idx, p) in ladder.descending() {
            let s_hat = stats.s_hat(idx);
            let radius = if use_ucb { stats.radius(idx) } else { 0.0 };
            let index_value = match kind {
                ApproxKind::MinCurves => (p * s_hat + p * radius).min(supply_ratio * p),
                // Optimistic s, capped at 1 (a probability).
                ApproxKind::TruncatedExpectation => {
                    self.value_tilde(n, p, (s_hat + radius).min(1.0)) / c_mass
                }
            };
            let better = match &best {
                None => true,
                Some(b) => index_value > b.index_value,
            };
            if better {
                best = Some(Maximizer {
                    price_idx: idx,
                    price: p,
                    l_hat: self.value_kind(kind, n, p, s_hat),
                    revenue_hat: c_mass * p * s_hat,
                    index_value,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper as seeded UCB statistics over the ladder
    /// {1, 2, 3} with large sample counts (so radii are negligible).
    fn table1_stats(ladder: &PriceLadder) -> UcbStats {
        let mut stats = UcbStats::new(ladder.len());
        let s = [0.9, 0.8, 0.5];
        for (idx, _) in ladder.ascending() {
            let n = 1_000_000u64;
            stats.observe_batch(idx, n, (s[idx] * n as f64) as u64);
        }
        stats
    }

    /// A two-rung ladder {1, 2} (p_min=1, p_max=3, α=1: the next rung 4
    /// exceeds p_max). Geometric ladders cannot hit {1,2,3} exactly, so
    /// these unit tests exercise two rungs; the running-example module
    /// reproduces the paper's {1,2,3} table with its own price set.
    fn table1_ladder() -> PriceLadder {
        PriceLadder::new(1.0, 3.0, 1.0)
    }

    #[test]
    fn prefix_sums_and_masses() {
        let l = LFunction::new(vec![0.7, 1.3, 1.0]);
        assert_eq!(l.num_tasks(), 3);
        assert!((l.total_mass() - 3.0).abs() < 1e-12);
        assert!((l.supply_mass(0) - 0.0).abs() < 1e-12);
        assert!((l.supply_mass(1) - 1.3).abs() < 1e-12);
        assert!((l.supply_mass(2) - 2.3).abs() < 1e-12);
        assert!((l.supply_mass(3) - 3.0).abs() < 1e-12);
        assert!((l.supply_mass(99) - 3.0).abs() < 1e-12, "saturates");
    }

    #[test]
    fn example5_grid9_values() {
        // Grid 9 = {r1 (d=1.3), r2 (d=0.7)}, Table-1 ratios. The paper's
        // Fig. 5: with n=1 the maximum of min(demand, supply) over
        // {1,2,3} is 3 at p=3.
        let l = LFunction::new(vec![1.3, 0.7]);
        let s = [0.9, 0.8, 0.5];
        let prices = [1.0, 2.0, 3.0];
        let values: Vec<f64> = prices
            .iter()
            .zip(s)
            .map(|(&p, s)| l.value(1, p, s))
            .collect();
        assert!((values[0] - 1.3).abs() < 1e-12); // min(1.8, 1.3)
        assert!((values[1] - 2.6).abs() < 1e-12); // min(3.2, 2.6)
        assert!((values[2] - 3.0).abs() < 1e-12); // min(3.0, 3.9)
    }

    #[test]
    fn example5_grid11_values() {
        // Grid 11 = {r3 (d=1)}: with n=1 the max is 1.6 at p=2.
        let l = LFunction::new(vec![1.0]);
        assert!((l.value(1, 1.0, 0.9) - 0.9).abs() < 1e-12);
        assert!((l.value(1, 2.0, 0.8) - 1.6).abs() < 1e-12);
        assert!((l.value(1, 3.0, 0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn value_zero_supply_is_zero() {
        let l = LFunction::new(vec![2.0, 1.0]);
        assert_eq!(l.value(0, 3.0, 0.9), 0.0);
    }

    #[test]
    fn value_monotone_in_supply() {
        let l = LFunction::new(vec![2.0, 1.5, 1.0, 0.5]);
        for p in [1.0, 2.0, 3.0] {
            for s in [0.1, 0.5, 0.9] {
                let mut prev = -1.0;
                for n in 0..=5 {
                    let v = l.value(n, p, s);
                    assert!(v + 1e-12 >= prev, "L not monotone in n");
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn supply_increments_are_diminishing() {
        // The geometric heart of Lemma 9: because distances are added in
        // decreasing order, max_p L(n+1,p) − max_p L(n,p) is decreasing.
        let l = LFunction::new(vec![2.0, 1.5, 1.0, 0.5]);
        let s = |p: f64| (1.0 - (p - 1.0) / 4.0).clamp(0.0, 1.0); // linear S
        let prices: Vec<f64> = (0..=40).map(|i| 1.0 + i as f64 * 0.1).collect();
        let max_l = |n: usize| -> f64 {
            prices
                .iter()
                .map(|&p| l.value(n, p, s(p)))
                .fold(0.0, f64::max)
        };
        let mut prev_delta = f64::INFINITY;
        for n in 0..5 {
            let delta = max_l(n + 1) - max_l(n);
            assert!(
                delta <= prev_delta + 1e-9,
                "Δ increased at n={n}: {delta} > {prev_delta}"
            );
            prev_delta = delta;
        }
    }

    #[test]
    fn maximizer_empty_grid_is_none() {
        let ladder = table1_ladder();
        let stats = UcbStats::new(ladder.len());
        let l = LFunction::new(vec![]);
        assert!(l.maximize(1, &stats, &ladder, true).is_none());
    }

    #[test]
    fn maximizer_picks_intersection_under_limited_supply() {
        // Two-rung ladder {1, 2} with S(1)=0.9, S(2)=0.8 and one task of
        // distance 1 among demand mass 2 → supply ratio 0.5 with n=1:
        // Ĩ(1) = min(0.9, 0.5) = 0.5, Ĩ(2) = min(1.6, 1.0) = 1.0 → p=2.
        let ladder = table1_ladder();
        let mut stats = UcbStats::new(2);
        stats.observe_batch(0, 1_000_000, 900_000);
        stats.observe_batch(1, 1_000_000, 800_000);
        let l = LFunction::new(vec![1.0, 1.0]);
        let m = l.maximize(1, &stats, &ladder, false).unwrap();
        assert_eq!(m.price, 2.0);
        assert!((m.l_hat - 2.0).abs() < 1e-9); // min(2·2·0.8, 1·2) = 2
        assert!((m.revenue_hat - 3.2).abs() < 1e-6);
    }

    #[test]
    fn maximizer_sufficient_supply_is_myerson_like() {
        // With n ≥ |R| the supply line dominates and the argmax is the
        // revenue-curve maximizer over the ladder.
        let ladder = table1_ladder(); // {1, 2}
        let mut stats = UcbStats::new(2);
        stats.observe_batch(0, 1_000_000, 900_000); // 1·0.9 = 0.9
        stats.observe_batch(1, 1_000_000, 800_000); // 2·0.8 = 1.6 ← max
        let l = LFunction::new(vec![1.0]);
        let m = l.maximize(5, &stats, &ladder, false).unwrap();
        assert_eq!(m.price, 2.0);
        assert!((m.l_hat - 1.6).abs() < 1e-6);
    }

    #[test]
    fn ucb_optimism_can_flip_choice() {
        // Price 1 has a slightly lower mean but far fewer samples; with
        // UCB enabled its radius lifts it above price 2.
        let ladder = table1_ladder();
        let mut stats = UcbStats::new(2);
        stats.observe_batch(0, 4, 3); // Ŝ=0.75, big radius
        stats.observe_batch(1, 100_000, 40_000); // Ŝ=0.4, tiny radius
        let l = LFunction::new(vec![1.0]);
        let no_ucb = l.maximize(5, &stats, &ladder, false).unwrap();
        // Without optimism: 1·0.75 = 0.75 vs 2·0.4 = 0.8 → price 2.
        assert_eq!(no_ucb.price, 2.0);
        let with_ucb = l.maximize(5, &stats, &ladder, true).unwrap();
        // radius(idx0) = √(2 ln(100004)/4) ≈ 2.4 → index ≈ 3.15 → price 1.
        assert_eq!(with_ucb.price, 1.0);
    }

    #[test]
    fn descending_tie_keeps_larger_price() {
        // Both rungs produce identical indices; the scan from p_max down
        // with strict improvement keeps the larger rung.
        let ladder = table1_ladder();
        let mut stats = UcbStats::new(2);
        // S(1)=0.8, S(2)=0.4 → p·Ŝ equal (0.8); choose supply-unconstrained.
        stats.observe_batch(0, 1_000_000, 800_000);
        stats.observe_batch(1, 1_000_000, 400_000);
        let l = LFunction::new(vec![1.0]);
        let m = l.maximize(5, &stats, &ladder, false).unwrap();
        assert_eq!(m.price, 2.0);
    }

    #[test]
    fn table1_fixture_consistency() {
        let ladder = table1_ladder();
        let stats = table1_stats(&ladder);
        assert!((stats.s_hat(0) - 0.9).abs() < 1e-9);
        assert!((stats.s_hat(1) - 0.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid task distance")]
    fn rejects_nan_distance() {
        let _ = LFunction::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn tilde_lower_bounds_min_curves() {
        // L̃ ≤ L pointwise (Appendix C.6's variant is more conservative):
        // D_{min(⌈Rs⌉,n)}·p·s ≤ D_n·p and ≤ C·p·s.
        let lf = LFunction::new(vec![3.0, 2.0, 1.5, 1.0, 0.5]);
        for n in 0..=6 {
            for p in [1.0, 1.5, 2.25, 3.375] {
                for s in [0.0, 0.1, 0.5, 0.9, 1.0] {
                    let l = lf.value(n, p, s);
                    let lt = lf.value_tilde(n, p, s);
                    assert!(lt <= l + 1e-12, "L̃({n},{p},{s})={lt} exceeds L={l}");
                    assert!(lt >= 0.0);
                }
            }
        }
    }

    #[test]
    fn tilde_equals_min_curves_under_full_acceptance() {
        // With s = 1, L̃ = D_n·p = L when supply binds.
        let lf = LFunction::new(vec![2.0, 1.0]);
        assert!((lf.value_tilde(1, 2.0, 1.0) - lf.value(1, 2.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn maximize_kind_tilde_values() {
        // Rungs {1, 2}, Ŝ = (0.9, 0.8), distances [1.3, 0.7], n = 1:
        // L̃(1, 1, .9) = 1.3·1·0.9 = 1.17 and L̃(1, 2, .8) = 1.3·2·0.8
        // = 2.08 → rung 2 wins with l_hat = 2.08.
        let ladder = table1_ladder(); // rungs {1, 2}
        let mut stats = UcbStats::new(2);
        stats.observe_batch(0, 1_000_000, 900_000);
        stats.observe_batch(1, 1_000_000, 800_000);
        let lf = LFunction::new(vec![1.3, 0.7]);
        let m = lf
            .maximize_kind(ApproxKind::TruncatedExpectation, 1, &stats, &ladder, false)
            .unwrap();
        assert_eq!(m.price, 2.0);
        assert!((m.l_hat - 1.3 * 2.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn maximize_kind_dispatch_matches_direct() {
        let ladder = table1_ladder();
        let stats = table1_stats(&ladder);
        let lf = LFunction::new(vec![1.0, 2.0, 0.5]);
        let a = lf.maximize(2, &stats, &ladder, true);
        let b = lf.maximize_kind(ApproxKind::MinCurves, 2, &stats, &ladder, true);
        assert_eq!(a, b);
    }
}
