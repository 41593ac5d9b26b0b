//! The compared baseline strategies of Sec. 5.1.
//!
//! * [`BasePStrategy`] — Algorithm 1's base price `p_b` posted uniformly
//!   in every grid ("assumes the unlimited supply and sets the same base
//!   price p_b for all grids").
//! * [`SdrStrategy`] — supply/demand **ratio**: `0.5·p_b·|R^tg|/|W^tg|`
//!   when demand exceeds supply, `p_b` otherwise.
//! * [`SdeStrategy`] — supply/demand **exponential**:
//!   `p_b·(1 + 2·e^{|W^tg|−|R^tg|})` when demand exceeds supply, `p_b`
//!   otherwise.
//! * [`CappedUcbStrategy`] — the state-of-the-art single-market strategy
//!   of Babaioff et al. \[9\], applied to each grid independently:
//!   `argmax_p min(|R^tg|·p·S^g(p), |W^tg|·p)` — Eq. (1) with
//!   `n^tg = |W^tg|` and every `d_r = 1`, learned through the same UCB
//!   index as MAPS.
//!
//! All output prices are clamped into `[p_min, p_max]` (the paper caps
//! prices in Algorithm 2 and Sec. 4.2.3; without a cap SDE's exponential
//! explodes as soon as a grid has a few more tasks than workers).

use crate::base::BasePricing;
use crate::problem::{
    DemandProbe, Observation, PeriodInput, PriceSchedule, PricingStrategy, StateError, StateWords,
};
use maps_market::{PriceLadder, UcbStats};

/// Loads every cell's statistics behind their count (shared with the
/// MAPS strategy impl): each loader is handed exactly the words it
/// reports, so only the cursor can come up short.
pub(crate) fn load_ucb(
    stats: &mut [UcbStats],
    state: &mut StateWords<'_>,
) -> Result<(), StateError> {
    let words = stats.first().map_or(0, UcbStats::state_words);
    if state.take_len(words)? != stats.len() {
        return Err(StateError::Mismatch("strategy cell count"));
    }
    stats.iter_mut().try_for_each(|s| {
        s.load_words(state.take_slice(words)?)
            .map_err(StateError::Mismatch)
    })
}

/// Counts tasks and workers per grid cell — shared by SDR/SDE/CappedUCB,
/// which all reason about the local head-counts `|R^tg|`, `|W^tg|`.
fn per_cell_counts(input: &PeriodInput<'_>) -> (Vec<u32>, Vec<u32>) {
    let g = input.grid.num_cells();
    let mut tasks = vec![0u32; g];
    let mut workers = vec![0u32; g];
    for t in input.tasks {
        tasks[t.cell.index()] += 1;
    }
    for w in input.workers {
        workers[w.cell.index()] += 1;
    }
    (tasks, workers)
}

/// Base pricing used as a flat strategy (the paper's `BaseP`).
#[derive(Debug, Clone)]
pub struct BasePStrategy {
    calibrator: BasePricing,
    num_cells: usize,
    base_price: f64,
}

impl BasePStrategy {
    /// Creates `BaseP` over the given ladder and accuracy parameters.
    pub fn new(num_cells: usize, ladder: PriceLadder, epsilon: f64, delta: f64) -> Self {
        let mid = ladder.price(ladder.len() / 2);
        Self {
            calibrator: BasePricing::new(ladder, epsilon, delta),
            num_cells,
            base_price: mid,
        }
    }

    /// Paper defaults (ladder (1,5,0.5), ε=0.2, δ=0.01).
    pub fn paper_default(num_cells: usize) -> Self {
        Self::new(num_cells, PriceLadder::paper_default(), 0.2, 0.01)
    }

    /// The learned base price.
    pub fn base_price(&self) -> f64 {
        self.base_price
    }

    /// Overrides the base price (tests / pre-calibrated runs).
    pub fn set_base_price(&mut self, p: f64) {
        self.base_price = p;
    }
}

impl PricingStrategy for BasePStrategy {
    fn name(&self) -> &'static str {
        "BaseP"
    }

    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        self.base_price = self.calibrator.learn(self.num_cells, probe).base_price;
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        PriceSchedule::uniform(input.grid.num_cells(), self.base_price)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.base_price.to_bits());
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        self.base_price = state.take_f64()?;
        Ok(())
    }
}

/// Supply/demand-ratio heuristic (`SDR`).
#[derive(Debug, Clone)]
pub struct SdrStrategy {
    inner: BasePStrategy,
    /// The empirically-tuned coefficient (the paper optimizes it on the
    /// datasets and reports 0.5).
    coefficient: f64,
}

impl SdrStrategy {
    /// Creates SDR with the paper's coefficient 0.5.
    pub fn new(num_cells: usize, ladder: PriceLadder, epsilon: f64, delta: f64) -> Self {
        Self {
            inner: BasePStrategy::new(num_cells, ladder, epsilon, delta),
            coefficient: 0.5,
        }
    }

    /// Paper defaults.
    pub fn paper_default(num_cells: usize) -> Self {
        Self::new(num_cells, PriceLadder::paper_default(), 0.2, 0.01)
    }

    /// Overrides the learned base price (tests).
    pub fn set_base_price(&mut self, p: f64) {
        self.inner.set_base_price(p);
    }
}

impl PricingStrategy for SdrStrategy {
    fn name(&self) -> &'static str {
        "SDR"
    }

    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        self.inner.calibrate(probe);
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        let (tasks, workers) = per_cell_counts(input);
        let pb = self.inner.base_price;
        let ladder = self.inner.calibrator.ladder();
        let prices = tasks
            .iter()
            .zip(&workers)
            .map(|(&r, &w)| {
                if r > w {
                    // |W^tg| can be zero with tasks present; the paper
                    // leaves this case open — we divide by max(|W|,1) and
                    // rely on the window clamp.
                    ladder.clamp(self.coefficient * pb * r as f64 / w.max(1) as f64)
                } else {
                    pb
                }
            })
            .collect();
        PriceSchedule { prices }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        self.inner.load_state(state)
    }
}

/// Supply/demand-exponential heuristic (`SDE`).
#[derive(Debug, Clone)]
pub struct SdeStrategy {
    inner: BasePStrategy,
}

impl SdeStrategy {
    /// Creates SDE.
    pub fn new(num_cells: usize, ladder: PriceLadder, epsilon: f64, delta: f64) -> Self {
        Self {
            inner: BasePStrategy::new(num_cells, ladder, epsilon, delta),
        }
    }

    /// Paper defaults.
    pub fn paper_default(num_cells: usize) -> Self {
        Self::new(num_cells, PriceLadder::paper_default(), 0.2, 0.01)
    }

    /// Overrides the learned base price (tests).
    pub fn set_base_price(&mut self, p: f64) {
        self.inner.set_base_price(p);
    }
}

impl PricingStrategy for SdeStrategy {
    fn name(&self) -> &'static str {
        "SDE"
    }

    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        self.inner.calibrate(probe);
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        let (tasks, workers) = per_cell_counts(input);
        let pb = self.inner.base_price;
        let ladder = self.inner.calibrator.ladder();
        let prices = tasks
            .iter()
            .zip(&workers)
            .map(|(&r, &w)| {
                if r > w {
                    // p_b · (1 + 2·e^{|W|−|R|}): the exponent is negative
                    // here (w < r), so the boost lies in (p_b, 3·p_b) and
                    // decays as the imbalance grows — clamped regardless.
                    ladder.clamp(pb * (1.0 + 2.0 * ((w as f64) - (r as f64)).exp()))
                } else {
                    pb
                }
            })
            .collect();
        PriceSchedule { prices }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        self.inner.load_state(state)
    }
}

/// CappedUCB (Babaioff et al. \[9\]) applied per grid independently.
///
/// Unlike MAPS, this baseline is *not* seeded by the Algorithm-1
/// calibration: the paper applies the original single-market algorithm,
/// which learns the demand of each grid online through its own UCB index
/// (standard optimism: an untried price is tried first). This online
/// exploration cost — paid in every one of the `G` independent markets —
/// is part of why the paper finds CappedUCB uncompetitive, and why it
/// "consumes the most memory" (it keeps per-grid counters for tasks,
/// workers, and every candidate price).
#[derive(Debug, Clone)]
pub struct CappedUcbStrategy {
    ladder: PriceLadder,
    stats: Vec<UcbStats>,
}

impl CappedUcbStrategy {
    /// Creates CappedUCB over the candidate ladder.
    pub fn new(num_cells: usize, ladder: PriceLadder) -> Self {
        let stats = vec![UcbStats::new(ladder.len()); num_cells];
        Self { ladder, stats }
    }

    /// Paper defaults (ladder (1, 5, α=0.5)).
    pub fn paper_default(num_cells: usize) -> Self {
        Self::new(num_cells, PriceLadder::paper_default())
    }

    /// Mutable statistics access (tests).
    pub fn stats_mut(&mut self, cell: usize) -> &mut UcbStats {
        &mut self.stats[cell]
    }
}

impl PricingStrategy for CappedUcbStrategy {
    fn name(&self) -> &'static str {
        "CappedUCB"
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        let (tasks, workers) = per_cell_counts(input);
        let ladder = &self.ladder;
        let mut prices = Vec::with_capacity(tasks.len());
        for cell in 0..tasks.len() {
            let r = tasks[cell] as f64;
            let w = workers[cell] as f64;
            // argmax_p min(|R|·p·UCB(p), |W|·p), each d_r = 1 (the paper's
            // Sec. 5.1 statement of the baseline). Untried rungs have
            // optimism +∞ (classic UCB1), so all rungs get explored.
            // When |W^tg| = 0 the objective is identically 0 for every
            // price; following the paper's global tie-breaking convention
            // ("ties are broken by choosing the smaller price") the scan
            // runs ascending, so uncovered grids post p_min. Those cheap
            // accepted-but-locally-unservable tasks are exactly the
            // global-coupling blind spot the paper blames for CappedUCB's
            // weakness ("it does not consider the grids globally").
            let mut best = (f64::NEG_INFINITY, ladder.p_min());
            for (idx, p) in ladder.ascending() {
                let demand_side = if r == 0.0 {
                    0.0
                } else if self.stats[cell].n_at(idx) == 0 {
                    f64::INFINITY
                } else {
                    r * p * self.stats[cell].ucb(idx)
                };
                let value = demand_side.min(w * p);
                if value > best.0 {
                    best = (value, p);
                }
            }
            prices.push(best.1);
        }
        PriceSchedule { prices }
    }

    fn observe(&mut self, feedback: &[Observation]) {
        for obs in feedback {
            let idx = self.ladder.nearest_index(obs.price);
            self.stats[obs.cell.index()].observe(idx, obs.accepted);
        }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.stats.len() as u64);
        for stats in &self.stats {
            stats.save_words(out);
        }
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        load_ucb(&mut self.stats, state)
    }
}

/// Builds the paper-default instance of `kind` for a `num_cells`-cell
/// grid — the one factory shared by every driver (the batch simulator
/// and the online service), so the two can never drift apart in
/// strategy parameterization.
pub fn paper_default_strategy(
    kind: crate::problem::StrategyKind,
    num_cells: usize,
) -> Box<dyn PricingStrategy> {
    use crate::problem::StrategyKind;
    match kind {
        StrategyKind::Maps => Box::new(crate::MapsStrategy::paper_default(num_cells)),
        StrategyKind::BaseP => Box::new(BasePStrategy::paper_default(num_cells)),
        StrategyKind::Sdr => Box::new(SdrStrategy::paper_default(num_cells)),
        StrategyKind::Sde => Box::new(SdeStrategy::paper_default(num_cells)),
        StrategyKind::CappedUcb => Box::new(CappedUcbStrategy::paper_default(num_cells)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_period_graph;
    use crate::problem::{TaskInput, WorkerInput};
    use maps_spatial::{GridSpec, Point, Rect};

    fn one_cell_grid() -> GridSpec {
        GridSpec::square(Rect::square(10.0), 1)
    }

    /// Builds a PeriodInput with `r` tasks and `w` workers in one cell.
    fn input_with_counts(
        grid: &GridSpec,
        r: usize,
        w: usize,
    ) -> (Vec<TaskInput>, Vec<WorkerInput>) {
        let tasks = (0..r)
            .map(|i| TaskInput::new(grid, Point::new(1.0 + 0.01 * i as f64, 1.0), 1.0))
            .collect();
        let workers = (0..w)
            .map(|i| WorkerInput::new(grid, Point::new(2.0 + 0.01 * i as f64, 2.0), 5.0))
            .collect();
        (tasks, workers)
    }

    fn run<S: PricingStrategy>(s: &mut S, grid: &GridSpec, r: usize, w: usize) -> f64 {
        let (tasks, workers) = input_with_counts(grid, r, w);
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        s.price_period(&input).prices[0]
    }

    #[test]
    fn basep_is_flat() {
        let grid = GridSpec::square(Rect::square(10.0), 2);
        let mut s = BasePStrategy::paper_default(grid.num_cells());
        s.set_base_price(2.25);
        let (tasks, workers) = input_with_counts(&grid, 3, 1);
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = s.price_period(&input);
        assert!(schedule.prices.iter().all(|&p| p == 2.25));
        assert_eq!(s.name(), "BaseP");
    }

    #[test]
    fn sdr_formula() {
        let grid = one_cell_grid();
        let mut s = SdrStrategy::paper_default(1);
        s.set_base_price(2.0);
        // balanced or excess supply → base price
        assert_eq!(run(&mut s, &grid, 2, 2), 2.0);
        assert_eq!(run(&mut s, &grid, 1, 5), 2.0);
        // 4 tasks, 2 workers → 0.5·2·(4/2) = 2.0
        assert_eq!(run(&mut s, &grid, 4, 2), 2.0);
        // 8 tasks, 2 workers → 0.5·2·4 = 4.0
        assert_eq!(run(&mut s, &grid, 8, 2), 4.0);
        // 40 tasks, 2 workers → 20 → clamped at p_max = 5
        assert_eq!(run(&mut s, &grid, 40, 2), 5.0);
        // zero workers → ratio uses max(w,1), clamp applies
        assert_eq!(run(&mut s, &grid, 12, 0), 5.0);
    }

    #[test]
    fn sde_formula() {
        let grid = one_cell_grid();
        let mut s = SdeStrategy::paper_default(1);
        s.set_base_price(2.0);
        // no shortage → base price
        assert_eq!(run(&mut s, &grid, 2, 3), 2.0);
        // shortage of 1 → 2·(1+2e^{-1}) ≈ 3.47
        let p = run(&mut s, &grid, 3, 2);
        assert!((p - 2.0 * (1.0 + 2.0 * (-1.0f64).exp())).abs() < 1e-12);
        // shortage of 10 → boost ≈ 0 → ≈ base price
        let p = run(&mut s, &grid, 12, 2);
        assert!((p - 2.0) < 1e-3);
    }

    #[test]
    fn sde_never_escapes_window() {
        let grid = one_cell_grid();
        let mut s = SdeStrategy::paper_default(1);
        s.set_base_price(4.0);
        // boost factor < 3 ⇒ 12 > p_max=5 → clamp.
        let p = run(&mut s, &grid, 3, 2);
        assert!(p <= 5.0);
    }

    #[test]
    fn capped_ucb_limited_supply_prices_high() {
        let grid = one_cell_grid();
        let mut s = CappedUcbStrategy::paper_default(1);
        // Seed: S(1)=0.95, S(1.5)=0.9, S(2.25)=0.6, S(3.375)=0.2.
        let table = [0.95, 0.9, 0.6, 0.2];
        for (idx, sv) in table.iter().enumerate() {
            let n = 1_000_000u64;
            s.stats_mut(0).observe_batch(idx, n, (sv * n as f64) as u64);
        }
        // Plenty of workers → demand-side argmax p·S(p):
        // {0.95, 1.35, 1.35, 0.675} → 1.5 or 2.25 (ties keep larger when
        // scanning down: 2.25 wins… values equal ⇒ larger price kept).
        let p_rich = run(&mut s, &grid, 4, 100);
        assert!(p_rich >= 1.5);
        // 10 tasks, 1 worker: min(10·p·S, p) → p_max maximizes the supply
        // line as long as 10·S(p_max) ≥ 1 (0.2·10 = 2 ≥ 1) → 3.375.
        let p_scarce = run(&mut s, &grid, 10, 1);
        assert_eq!(p_scarce, 3.375);
        assert!(p_scarce > p_rich);
    }

    #[test]
    fn capped_ucb_observe_updates() {
        let mut s = CappedUcbStrategy::paper_default(1);
        s.observe(&[Observation {
            cell: 0usize.into(),
            price: 1.4, // nearest rung 1.5 (idx 1)
            accepted: true,
        }]);
        assert_eq!(s.stats_mut(0).n_at(1), 1);
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(SdrStrategy::paper_default(1).name(), "SDR");
        assert_eq!(SdeStrategy::paper_default(1).name(), "SDE");
        assert_eq!(CappedUcbStrategy::paper_default(1).name(), "CappedUCB");
    }
}
