//! The compared baseline strategies of Sec. 5.1.
//!
//! * [`BasePStrategy`] — Algorithm 1's base price `p_b`, posted in every
//!   grid whose tasks do not outnumber its workers. Where they do
//!   (`|R^tg| > |W^tg|`), its [`Surge`] rule prices the grid:
//!   - [`Surge::Flat`] keeps `p_b` (the paper's `BaseP`: it "assumes the
//!     unlimited supply and sets the same base price p_b for all
//!     grids");
//!   - [`Surge::Ratio`], supply/demand **ratio** (`SDR`):
//!     `0.5·p_b·|R^tg|/|W^tg|`;
//!   - [`Surge::Exponential`], supply/demand **exponential** (`SDE`):
//!     `p_b·(1 + 2·e^{|W^tg|−|R^tg|})`.
//!
//!   All three save only `p_b` in a checkpoint.
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

/// Loads a checkpointed base price. The word is outside input: a value
/// that is not a price in `ladder`'s window — NaN included — is refused
/// rather than posted.
pub(crate) fn load_base_price(
    state: &mut StateWords<'_>,
    ladder: &PriceLadder,
) -> Result<f64, StateError> {
    let p = state.take_f64()?;
    if (ladder.p_min()..=ladder.p_max()).contains(&p) {
        Ok(p)
    } else {
        Err(StateError::Mismatch("base price outside the price ladder"))
    }
}

/// Counts tasks and workers per grid cell — shared by the surge rules
/// and CappedUCB, which reason about the local head-counts `|R^tg|`,
/// `|W^tg|`.
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

/// How [`BasePStrategy`] raises `p_b` in a grid whose tasks outnumber
/// its workers (`|R^tg| > |W^tg|`); every other grid posts `p_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surge {
    /// Never: `p_b` in every grid (the paper's `BaseP`).
    Flat,
    /// `0.5·p_b·|R^tg|/|W^tg|` (`SDR`, with the coefficient the paper
    /// tunes on its datasets).
    Ratio,
    /// `p_b·(1 + 2·e^{|W^tg|−|R^tg|})` (`SDE`).
    Exponential,
}

/// Algorithm 1's base price `p_b`, raised by a [`Surge`] rule: the
/// paper's `BaseP`, `SDR` or `SDE`.
#[derive(Debug, Clone)]
pub struct BasePStrategy {
    ladder: PriceLadder,
    num_cells: usize,
    base_price: f64,
    surge: Surge,
}

impl BasePStrategy {
    /// Paper defaults (ladder (1,5,0.5), Algorithm 1's `(ε, δ)`). Until
    /// [`PricingStrategy::calibrate`] runs, `p_b` is the ladder's middle
    /// rung.
    pub fn paper_default(num_cells: usize, surge: Surge) -> Self {
        let ladder = PriceLadder::paper_default();
        Self {
            base_price: ladder.price(ladder.len() / 2),
            ladder,
            num_cells,
            surge,
        }
    }
}

impl PricingStrategy for BasePStrategy {
    fn name(&self) -> &'static str {
        match self.surge {
            Surge::Flat => "BaseP",
            Surge::Ratio => "SDR",
            Surge::Exponential => "SDE",
        }
    }

    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        let result = BasePricing::new(self.ladder.clone()).learn(self.num_cells, probe);
        self.base_price = self.ladder.clamp(result.base_price);
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        let (pb, ladder) = (self.base_price, &self.ladder);
        if self.surge == Surge::Flat {
            // BaseP "assumes the unlimited supply": no head-counts.
            return PriceSchedule::uniform(input.grid.num_cells(), pb);
        }
        let (tasks, workers) = per_cell_counts(input);
        let prices = tasks
            .iter()
            .zip(&workers)
            .map(|(&r, &w)| match self.surge {
                // |W^tg| can be zero with tasks present; the paper leaves
                // this case open — we divide by max(|W|,1) and rely on
                // the window clamp.
                Surge::Ratio if r > w => ladder.clamp(0.5 * pb * r as f64 / w.max(1) as f64),
                // The exponent is negative here (w < r), so the boost
                // lies in (p_b, 3·p_b) and decays as the imbalance grows
                // — clamped regardless.
                Surge::Exponential if r > w => {
                    ladder.clamp(pb * (1.0 + 2.0 * ((w as f64) - (r as f64)).exp()))
                }
                _ => pb,
            })
            .collect();
        PriceSchedule { prices }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.base_price.to_bits());
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        self.base_price = load_base_price(state, &self.ladder)?;
        Ok(())
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
    /// Paper defaults (ladder (1, 5, α=0.5)).
    pub fn paper_default(num_cells: usize) -> Self {
        let ladder = PriceLadder::paper_default();
        let stats = vec![UcbStats::new(ladder.len()); num_cells];
        Self { ladder, stats }
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
        StrategyKind::BaseP => Box::new(BasePStrategy::paper_default(num_cells, Surge::Flat)),
        StrategyKind::Sdr => Box::new(BasePStrategy::paper_default(num_cells, Surge::Ratio)),
        StrategyKind::Sde => Box::new(BasePStrategy::paper_default(num_cells, Surge::Exponential)),
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
        let mut s = BasePStrategy::paper_default(grid.num_cells(), Surge::Flat);
        s.base_price = 2.25;
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
        let mut s = BasePStrategy::paper_default(1, Surge::Ratio);
        s.base_price = 2.0;
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
        let mut s = BasePStrategy::paper_default(1, Surge::Exponential);
        s.base_price = 2.0;
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
        let mut s = BasePStrategy::paper_default(1, Surge::Exponential);
        s.base_price = 4.0;
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
            s.stats[0].observe_batch(idx, n, (sv * n as f64) as u64);
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
        assert_eq!(s.stats[0].n_at(1), 1);
    }

    #[test]
    fn names_match_paper_legends() {
        for kind in crate::problem::StrategyKind::ALL {
            assert_eq!(paper_default_strategy(kind, 1).name(), kind.name());
        }
    }

    /// As MAPS: a checkpointed base price off the ladder's window (NaN
    /// included) is refused, where a flat BaseP would post it everywhere.
    #[test]
    fn basep_load_refuses_a_base_price_off_the_ladder() {
        for p in [f64::NAN, f64::NEG_INFINITY, 0.5, 5.5] {
            let words = [p.to_bits()];
            let mut s = BasePStrategy::paper_default(4, Surge::Flat);
            let loaded = s.load_state(&mut StateWords::new(&words));
            let refused = StateError::Mismatch("base price outside the price ladder");
            assert_eq!(loaded, Err(refused), "{p}");
        }
    }
}
