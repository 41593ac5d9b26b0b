//! MAPS — the MAtching-based Pricing Strategy (Algorithms 2 + 3, Sec. 4).
//!
//! Per time period, MAPS:
//!
//! 1. builds the task–worker bipartite graph (done by the caller and
//!    passed in through [`PeriodInput`]),
//! 2. groups tasks by grid and builds each grid's demand/supply curves
//!    ([`LFunction`]),
//! 3. greedily distributes the *dependent* supply: a max-heap keyed by
//!    the marginal gain `Δ^g` repeatedly admits one more worker into the
//!    grid that profits most, maintaining feasibility with an incremental
//!    augmenting path in the shared pre-matching `M′` (so a worker serving
//!    two grids is never double-counted), and
//! 4. finalizes each grid's price at the Algorithm-3 maximizer of its
//!    learned revenue approximation.
//!
//! Lemma 9 (per-grid `Δ` is non-increasing) makes the lazy heap sound and
//! Theorem 8 gives the `(1−1/e)` guarantee for the resulting supply plan.
//!
//! ## Deviations from the pseudocode
//!
//! * The first `G` heap pops with `Δ = ∞` in Algorithm 2 only exist to
//!   bootstrap the per-grid candidates; we push the first real candidate
//!   for each non-empty grid directly.
//! * On popping an entry whose promised augmenting path was consumed by
//!   another grid in the meantime (possible because line 16's feasibility
//!   check happens at *insert* time), we re-verify and finalize the grid
//!   at its current supply instead of corrupting `M′`.
//! * Admissions with `Δ = 0` are skipped: they cannot change any price or
//!   the approximation value, only burn a worker inside the throw-away
//!   pre-matching.
//! * The plateau lookahead ([`MapsConfig::plateau_lookahead`], on by
//!   default): where one more worker gains nothing (`Δ ≤ 1e-12`), the
//!   heap key becomes the best *amortized* gain over every deeper supply
//!   level instead of the pseudocode's stop at `Δ = 0`. Of these
//!   deviations it is the one that moves revenue rows; whether it earns
//!   more is not shown (see the field's doc).
//!
//! ## Per-grid maximizer tables
//!
//! Step 2 precomputes each grid's maximizer table `max_p L̂(n, p)` for
//! `n = 1..=min(|R^tg|, |W| + 1)`, grid after grid in cell order on the
//! calling thread: a period's builds cost tens of microseconds, less
//! than spawning and joining a thread. Every table entry is a pure
//! function of `(L^g, Ŝ^g, ladder)`, so the schedule is
//! **bit-identical** to the table-less reference, which computes the
//! same maximizers on demand inside the heap loop. That reference lives
//! in this module's tests, which pin the two together on fixed and
//! random panels, on the plateau worst case and on 64 seeded panels
//! (`maps_testkit::explore`). The table removes the per-pop
//! plateau-lookahead rescans, an `O(n² · |ladder|)` worst case on
//! plateau-heavy grids.

use crate::base::BasePricing;
use crate::lfunc::{ApproxKind, DeltaRule, LFunction, Maximizer};
use crate::problem::{
    DemandProbe, Observation, PeriodInput, PriceSchedule, PricingStrategy, StateError, StateWords,
};
use crate::smoothing::smooth_prices;
use maps_market::{ChangeDetector, PriceLadder, UcbStats};
use maps_matching::IncrementalMatching;
use std::collections::BinaryHeap;

/// Tunables for [`MapsStrategy`].
#[derive(Debug, Clone)]
pub struct MapsConfig {
    /// How the heap key `Δ^g` is computed (see [`DeltaRule`]).
    pub delta_rule: DeltaRule,
    /// Whether Algorithm 3 adds the UCB confidence radius (disable for
    /// the no-optimism ablation).
    pub use_ucb: bool,
    /// Tumbling-window length for the Sec.-4.2.2 change detector;
    /// `None` disables detection (the synthetic workloads of Table 3 are
    /// stationary, where 2σ windows only produce false resets).
    pub change_window: Option<u64>,
    /// Optional spatial smoothing factor `β ∈ [0,1]` applied to the final
    /// schedule (paper Sec. 4.2.3, practical note ii). `None` disables.
    pub smoothing: Option<f64>,
    /// Which expected-revenue approximation Algorithm 3 maximizes
    /// (Eq. (1) by default; Appendix C.6's variant for the ablation).
    pub approx: ApproxKind,
    /// Plateau lookahead. On a *discrete* ladder, `max_p L̂(n, p)` is a
    /// step function of the supply mass with flat plateaus between rung
    /// survival levels, so the paper's "stop when Δ^g = 0" rule (valid
    /// for the continuous concave curve of Lemma 9) can stall a grid at
    /// a high intersection rung long before supply saturates demand.
    /// With lookahead enabled, a zero one-step gain is replaced by the
    /// best *amortized* gain over all reachable supply levels (the
    /// standard concave-hull correction). No test or figure shows that
    /// this earns more than the pseudocode: the ablation's "MAPS no
    /// plateau lookahead" row runs the pseudocode literally (`false`)
    /// beside the default, and ROADMAP item 31 decides whether the code
    /// keeps the lookahead.
    pub plateau_lookahead: bool,
}

impl Default for MapsConfig {
    fn default() -> Self {
        Self {
            delta_rule: DeltaRule::LDifference,
            use_ucb: true,
            change_window: None,
            smoothing: None,
            approx: ApproxKind::MinCurves,
            plateau_lookahead: true,
        }
    }
}

/// One heap entry `((g, n_new, p_new), Δ^g)` of Algorithm 2.
#[derive(Debug, Clone, Copy)]
struct Entry {
    delta: f64,
    cell: u32,
    price_idx: u32,
    price: f64,
    l_hat: f64,
    revenue_hat: f64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.delta == other.delta && self.cell == other.cell
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on Δ; ties broken by lower cell id for determinism.
        self.delta
            .total_cmp(&other.delta)
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

/// Per-grid working state for one pricing round.
struct CellState {
    /// Demand/supply curves for this grid's tasks.
    lf: LFunction,
    /// Task indices of this grid, sorted by decreasing distance.
    tasks_desc: Vec<u32>,
    /// Scan position into `tasks_desc`: entries before it are matched or
    /// proven un-augmentable (dead). Once a free task has no augmenting
    /// path it never regains one (augmentations only grow reachability
    /// on the matched side), so dead tasks are skipped forever.
    cursor: usize,
    /// Admitted supply `n^tg`.
    n: usize,
    /// `max_p L̂(n, p)` and the shorthand revenue at the current supply.
    cur_l: f64,
    cur_rev: f64,
    /// Maximizer price at the current supply (starts at the base price).
    cur_price: f64,
    cur_price_idx: u32,
    /// Precomputed `table[n-1] = maximize_kind(n)` for the supply
    /// levels the heap reads directly; levels past its end are computed
    /// on demand by [`MapsStrategy::maximizer_at`].
    table: Vec<Option<Maximizer>>,
}

impl CellState {
    /// The Δ=0 entry that fixes `cell`'s price at its current supply.
    fn finalizer(&self, cell: u32) -> Entry {
        Entry {
            delta: 0.0,
            cell,
            price_idx: self.cur_price_idx,
            price: self.cur_price,
            l_hat: self.cur_l,
            revenue_hat: self.cur_rev,
        }
    }
}

/// The MAPS pricing strategy.
#[derive(Debug, Clone)]
pub struct MapsStrategy {
    ladder: PriceLadder,
    cfg: MapsConfig,
    num_cells: usize,
    base_price: f64,
    stats: Vec<UcbStats>,
    change: Option<Vec<ChangeDetector>>,
}

impl MapsStrategy {
    /// Creates MAPS for a region with `num_cells` grids and the given
    /// candidate ladder. Until [`PricingStrategy::calibrate`] runs, the
    /// base price defaults to the ladder's middle rung.
    pub fn new(num_cells: usize, ladder: PriceLadder, cfg: MapsConfig) -> Self {
        assert!(num_cells > 0, "need at least one grid");
        if let Some(beta) = cfg.smoothing {
            assert!((0.0..=1.0).contains(&beta), "smoothing factor in [0,1]");
        }
        let stats = vec![UcbStats::new(ladder.len()); num_cells];
        let change = cfg
            .change_window
            .map(|m| vec![ChangeDetector::new(ladder.len(), m); num_cells]);
        let base_price = ladder.price(ladder.len() / 2);
        Self {
            ladder,
            cfg,
            num_cells,
            base_price,
            stats,
            change,
        }
    }

    /// Paper-default MAPS over the default ladder.
    pub fn paper_default(num_cells: usize) -> Self {
        Self::new(
            num_cells,
            PriceLadder::paper_default(),
            MapsConfig::default(),
        )
    }

    /// Overrides the base price (tests / resuming from a checkpoint).
    pub fn set_base_price(&mut self, p: f64) {
        self.base_price = self.ladder.clamp(p);
    }

    /// Mutable access to a grid's UCB statistics (used to seed known
    /// acceptance ratios, as the running example does; normal operation
    /// goes through `observe`, a checkpoint through `load_state`).
    pub fn stats_mut(&mut self, cell: usize) -> &mut UcbStats {
        &mut self.stats[cell]
    }

    /// Builds one grid's working state: sorts its task indices by
    /// decreasing distance, derives the demand/supply curves and the
    /// Algorithm-3 maximizer table for supply levels
    /// `1..=min(|R^tg|, table_depth)`. Pure in `(cell, list)` given
    /// frozen statistics, which is what makes the table path of
    /// [`PricingStrategy::price_period`] bit-identical to the
    /// table-less reference (`table_depth = 0`).
    ///
    /// The depth cap keeps worker-scarce periods cheap: a grid can
    /// never admit more than `|W|` workers, so the heap only ever reads
    /// levels `≤ |W| + 1` directly; the rarer deep plateau-lookahead
    /// reads fall back to the identical on-demand computation in
    /// [`Self::maximizer_at`].
    fn build_cell_state(
        &self,
        cell: usize,
        mut list: Vec<u32>,
        tasks: &[crate::problem::TaskInput],
        table_depth: usize,
    ) -> Option<CellState> {
        if list.is_empty() {
            return None;
        }
        list.sort_unstable_by(|&a, &b| {
            tasks[b as usize]
                .distance
                .total_cmp(&tasks[a as usize].distance)
                .then(a.cmp(&b))
        });
        let dists: Vec<f64> = list.iter().map(|&i| tasks[i as usize].distance).collect();
        let lf = LFunction::new(dists);
        let stats = &self.stats[cell];
        let table = (1..=lf.num_tasks().min(table_depth))
            .map(|n| lf.maximize_kind(self.cfg.approx, n, stats, &self.ladder, self.cfg.use_ucb))
            .collect();
        Some(CellState {
            lf,
            tasks_desc: list,
            cursor: 0,
            n: 0,
            cur_l: 0.0,
            cur_rev: 0.0,
            cur_price: self.base_price,
            cur_price_idx: self.ladder.nearest_index(self.base_price) as u32,
            table,
        })
    }

    /// The Algorithm-3 maximizer of `cell` at supply level `n`
    /// (`1 ..= |R^tg|`): a table lookup where the precomputed table
    /// covers `n`, otherwise the identical pure on-demand computation
    /// (lookahead levels beyond the table's depth cap, and every level
    /// of the table-less sequential reference).
    fn maximizer_at(&self, cell: u32, state: &CellState, n: usize) -> Option<Maximizer> {
        if n <= state.table.len() {
            return state.table[n - 1];
        }
        state.lf.maximize_kind(
            self.cfg.approx,
            n,
            &self.stats[cell as usize],
            &self.ladder,
            self.cfg.use_ucb,
        )
    }

    /// Advances `state.cursor` past dead tasks and returns the next task
    /// with an augmenting path, without applying it.
    fn next_augmentable(
        matching: &mut IncrementalMatching<'_>,
        state: &mut CellState,
    ) -> Option<u32> {
        while state.cursor < state.tasks_desc.len() {
            let t = state.tasks_desc[state.cursor];
            if matching.can_augment(t as usize) {
                return Some(t);
            }
            // Dead (or already matched — only possible for admitted heads).
            state.cursor += 1;
        }
        None
    }

    /// Lines 9–10: admits one worker by applying the augmenting path of
    /// the next task that has one, advancing `state.cursor` past it and
    /// past the dead tasks before it. One search per task: a failed
    /// [`IncrementalMatching::try_augment`] leaves the matching as it
    /// was, so searching with it is searching first with `can_augment`.
    fn augment_next(matching: &mut IncrementalMatching<'_>, state: &mut CellState) -> bool {
        while state.cursor < state.tasks_desc.len() {
            let t = state.tasks_desc[state.cursor] as usize;
            state.cursor += 1;
            // Already matched is only possible for admitted heads.
            if matching.matched_right(t).is_none() && matching.try_augment(t) {
                return true;
            }
        }
        false
    }

    /// Lines 16–21: proposes the next candidate for `cell` (or a Δ=0
    /// finalizer when no further supply can be admitted).
    fn push_next(
        &self,
        cell: u32,
        state: &mut CellState,
        matching: &mut IncrementalMatching<'_>,
        heap: &mut BinaryHeap<Entry>,
    ) {
        if state.n >= state.lf.num_tasks() || Self::next_augmentable(matching, state).is_none() {
            heap.push(state.finalizer(cell));
            return;
        }
        let value_of = |m: &Maximizer| match self.cfg.delta_rule {
            DeltaRule::LDifference => m.l_hat,
            DeltaRule::ScaledShorthand => m.revenue_hat,
        };
        let cur_value = match self.cfg.delta_rule {
            DeltaRule::LDifference => state.cur_l,
            DeltaRule::ScaledShorthand => state.cur_rev,
        };
        match self.maximizer_at(cell, state, state.n + 1) {
            Some(m) => {
                let mut delta = (value_of(&m) - cur_value).max(0.0);
                if delta <= 1e-12 && self.cfg.plateau_lookahead {
                    // Concave-hull correction: one more worker gains
                    // nothing, but a deeper supply level might (the step
                    // function plateaus between ladder rungs). Credit this
                    // admission with the best amortized future gain.
                    for m_level in (state.n + 2)..=state.lf.num_tasks() {
                        if let Some(mx) = self.maximizer_at(cell, state, m_level) {
                            let amortized =
                                (value_of(&mx) - cur_value) / (m_level - state.n) as f64;
                            delta = delta.max(amortized);
                        }
                    }
                }
                heap.push(Entry {
                    delta,
                    cell,
                    price_idx: m.price_idx as u32,
                    price: m.price,
                    l_hat: m.l_hat,
                    revenue_hat: m.revenue_hat,
                });
            }
            None => heap.push(state.finalizer(cell)),
        }
    }

    /// Task indices per grid, in stream order; [`Self::build_cell_state`]
    /// sorts each list by decreasing distance so supply admission follows
    /// the supply curve's top-n semantics.
    fn group_tasks(&self, input: &PeriodInput<'_>) -> Vec<Vec<u32>> {
        let g = input.grid.num_cells();
        assert_eq!(g, self.num_cells, "grid size changed mid-simulation");
        let mut cell_tasks: Vec<Vec<u32>> = vec![Vec::new(); g];
        for (i, t) in input.tasks.iter().enumerate() {
            cell_tasks[t.cell.index()].push(i as u32);
        }
        cell_tasks
    }

    /// Steps 3–4: greedy supply distribution over the shared
    /// pre-matching `M′`, then each grid's final price.
    fn distribute_supply(
        &self,
        input: &PeriodInput<'_>,
        mut states: Vec<Option<CellState>>,
    ) -> PriceSchedule {
        let g = states.len();
        let mut prices = vec![self.base_price; g];
        let mut matching = IncrementalMatching::new(input.graph);
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(g + 1);
        // Every task-bearing cell holds exactly one heap entry until a
        // Δ=0 pop fixes its price: `push_next` pushes one, a Δ>0 pop
        // pushes one (its next candidate or its finalizer), a Δ=0 pop
        // none. So a cell's price is fixed once, by its last pop.
        for (cell, state) in (0..).zip(&mut states) {
            if let Some(state) = state {
                self.push_next(cell, state, &mut matching, &mut heap);
            }
        }

        while let Some(entry) = heap.pop() {
            let cell = entry.cell as usize;
            let state = states[cell]
                .as_mut()
                .expect("entry for a task-bearing cell");
            if entry.delta <= 0.0 {
                // Lines 11–14: final price, clamped into the window.
                prices[cell] = self.ladder.clamp(entry.price);
                continue;
            }
            // Lines 9–10: admit one worker via an augmenting path —
            // searched again because the path may have been consumed
            // since this entry was inserted.
            if Self::augment_next(&mut matching, state) {
                state.n += 1;
                state.cur_l = entry.l_hat;
                state.cur_rev = entry.revenue_hat;
                state.cur_price = entry.price;
                state.cur_price_idx = entry.price_idx;
                self.push_next(entry.cell, state, &mut matching, &mut heap);
            } else {
                // Stale promise: finalize at the current supply level.
                heap.push(state.finalizer(entry.cell));
            }
        }

        if let Some(beta) = self.cfg.smoothing {
            smooth_prices(input.grid, &mut prices, beta);
        }
        PriceSchedule { prices }
    }
}

impl PricingStrategy for MapsStrategy {
    fn name(&self) -> &'static str {
        "MAPS"
    }

    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        let result = BasePricing::new(self.ladder.clone()).learn(self.num_cells, probe);
        self.base_price = self.ladder.clamp(result.base_price);
        self.stats = result.stats;
    }

    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule {
        // A grid can never admit more workers than exist, so the heap
        // reads levels ≤ |W| + 1; deeper lookahead levels fall back to
        // on-demand computation inside `maximizer_at`.
        let table_depth = input.workers.len().saturating_add(1);
        let states = self
            .group_tasks(input)
            .into_iter()
            .enumerate()
            .map(|(cell, list)| self.build_cell_state(cell, list, input.tasks, table_depth))
            .collect();
        self.distribute_supply(input, states)
    }

    fn observe(&mut self, feedback: &[Observation]) {
        for obs in feedback {
            let idx = self.ladder.nearest_index(obs.price);
            let cell = obs.cell.index();
            self.stats[cell].observe(idx, obs.accepted);
            if let Some(change) = &mut self.change {
                if change[cell].observe(idx, obs.accepted) {
                    // Sec. 4.2.2: statistically-significant deviation →
                    // discard the stale estimate for this price.
                    self.stats[cell].reset_price(idx);
                }
            }
        }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.base_price.to_bits());
        out.push(self.stats.len() as u64);
        for stats in &self.stats {
            stats.save_words(out);
        }
        match &self.change {
            None => out.push(0),
            Some(detectors) => {
                out.push(1);
                out.push(detectors.len() as u64);
                for det in detectors {
                    det.save_words(out);
                }
            }
        }
    }

    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        self.base_price = crate::baselines::load_base_price(state, &self.ladder)?;
        crate::baselines::load_ucb(&mut self.stats, state)?;
        let has_change = state.take()?;
        match (&mut self.change, has_change) {
            (None, 0) => Ok(()),
            (Some(detectors), 1) => {
                let words = detectors.first().map_or(0, ChangeDetector::state_words);
                if state.take_len(words)? != detectors.len() {
                    return Err(StateError::Mismatch("MAPS change-detector count"));
                }
                detectors.iter_mut().try_for_each(|det| {
                    det.load_words(state.take_slice(words)?)
                        .map_err(StateError::Mismatch)
                })
            }
            _ => Err(StateError::Mismatch("MAPS change-detector presence")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_period_graph, build_period_graph_capped};
    use crate::problem::{TaskInput, WorkerInput};
    use maps_matching::BipartiteGraph;
    use maps_spatial::{GridSpec, Point, Rect};
    use maps_testkit::{explore, XorShift};

    impl MapsStrategy {
        /// The table-less reference for [`PricingStrategy::price_period`]:
        /// no maximizer table, so every supply level the heap reads is
        /// computed on demand by [`Self::maximizer_at`].
        fn price_period_tableless(&self, input: &PeriodInput<'_>) -> PriceSchedule {
            let states = self
                .group_tasks(input)
                .into_iter()
                .enumerate()
                .map(|(cell, list)| self.build_cell_state(cell, list, input.tasks, 0))
                .collect();
            self.distribute_supply(input, states)
        }
    }

    /// The running example: 4×4 grid over an 8×8 region; r1, r2 in grid 9
    /// (cell 8), r3 in grid 11 (cell 10); three workers with radius 2.5;
    /// Table-1 acceptance ratios seeded into the statistics.
    fn running_example_strategy() -> (GridSpec, Vec<TaskInput>, Vec<WorkerInput>, MapsStrategy) {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let tasks = vec![
            TaskInput::new(&grid, Point::new(1.0, 4.5), 1.3), // r1
            TaskInput::new(&grid, Point::new(1.5, 5.0), 0.7), // r2
            TaskInput::new(&grid, Point::new(5.0, 5.0), 1.0), // r3
        ];
        let workers = vec![
            WorkerInput::new(&grid, Point::new(3.0, 5.0), 2.5), // w1
            WorkerInput::new(&grid, Point::new(7.0, 5.0), 2.5), // w2
            WorkerInput::new(&grid, Point::new(5.0, 3.0), 2.5), // w3
        ];
        let ladder = PriceLadder::explicit(vec![1.0, 2.0, 3.0]);
        let mut maps = MapsStrategy::new(grid.num_cells(), ladder, MapsConfig::default());
        // Example 5: "we assume we have obtained the statistics about the
        // acceptance ratios as in Table 1".
        let table1 = [0.9, 0.8, 0.5];
        for cell in 0..grid.num_cells() {
            for (idx, s) in table1.iter().enumerate() {
                let n = 1_000_000u64;
                maps.stats_mut(cell)
                    .observe_batch(idx, n, (s * n as f64) as u64);
            }
        }
        maps.set_base_price(2.0);
        (grid, tasks, workers, maps)
    }

    #[test]
    fn example5_final_prices() {
        let (grid, tasks, workers, mut maps) = running_example_strategy();
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        // Paper: "The price for grid 9 is 3 and the price for grid 11 is 2."
        assert_eq!(schedule.prices[8], 3.0, "grid 9");
        assert_eq!(schedule.prices[10], 2.0, "grid 11");
        // Empty grids keep the base price.
        assert_eq!(schedule.prices[0], 2.0);
        assert_eq!(schedule.prices[15], 2.0);
    }

    #[test]
    fn example5_trace_with_shorthand_delta() {
        // The ScaledShorthand rule must agree on the running example
        // (both rules coincide at demand-limited maximizers).
        let (grid, tasks, workers, mut maps) = running_example_strategy();
        maps.cfg.delta_rule = DeltaRule::ScaledShorthand;
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        assert_eq!(schedule.prices[8], 3.0);
        assert_eq!(schedule.prices[10], 2.0);
    }

    #[test]
    fn no_workers_prices_at_base() {
        let (grid, tasks, _, mut maps) = running_example_strategy();
        let graph = build_period_graph(&tasks, &[]);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &[],
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        // No supply anywhere → every grid finalizes at the base price.
        for &p in &schedule.prices {
            assert_eq!(p, 2.0);
        }
    }

    #[test]
    fn no_tasks_prices_at_base() {
        let (grid, _, workers, mut maps) = running_example_strategy();
        let graph = build_period_graph(&[], &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &[],
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        for &p in &schedule.prices {
            assert_eq!(p, 2.0);
        }
    }

    #[test]
    fn prices_always_within_window() {
        let (grid, tasks, workers, mut maps) = running_example_strategy();
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        for &p in &schedule.prices {
            assert!((1.0..=3.0).contains(&p));
        }
    }

    #[test]
    fn observe_updates_stats_and_nearest_rung() {
        let (_, _, _, mut maps) = running_example_strategy();
        let before = maps.stats[8].n_at(2);
        maps.observe(&[Observation {
            cell: 8usize.into(),
            price: 2.9, // nearest rung is 3.0 (index 2)
            accepted: false,
        }]);
        assert_eq!(maps.stats[8].n_at(2), before + 1);
    }

    #[test]
    fn change_detection_resets_price_stats() {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let ladder = PriceLadder::explicit(vec![1.0, 2.0, 3.0]);
        let mut maps = MapsStrategy::new(
            grid.num_cells(),
            ladder,
            MapsConfig {
                change_window: Some(50),
                ..MapsConfig::default()
            },
        );
        // Feed a stable 100%-accept window, then a 0%-accept window: the
        // detector must flag and reset that rung's statistics.
        let obs_accept: Vec<Observation> = (0..50)
            .map(|_| Observation {
                cell: 0usize.into(),
                price: 2.0,
                accepted: true,
            })
            .collect();
        maps.observe(&obs_accept);
        assert_eq!(maps.stats[0].n_at(1), 50);
        let obs_reject: Vec<Observation> = (0..50)
            .map(|_| Observation {
                cell: 0usize.into(),
                price: 2.0,
                accepted: false,
            })
            .collect();
        maps.observe(&obs_reject);
        assert_eq!(maps.stats[0].n_at(1), 0, "stats reset after change flag");
    }

    #[test]
    fn supply_constrained_grid_prefers_higher_price() {
        // One grid, two tasks, one worker: MAPS should price above the
        // sufficient-supply optimum (2.0 under Table 1) because supply
        // covers only the longer task — the Fig. 4 case-3 behaviour.
        let grid = GridSpec::square(Rect::square(8.0), 1);
        let tasks = vec![
            TaskInput::new(&grid, Point::new(1.0, 1.0), 1.0),
            TaskInput::new(&grid, Point::new(1.2, 1.0), 1.0),
        ];
        let workers = vec![WorkerInput::new(&grid, Point::new(1.0, 1.2), 2.0)];
        let ladder = PriceLadder::explicit(vec![1.0, 2.0, 3.0]);
        let mut maps = MapsStrategy::new(1, ladder, MapsConfig::default());
        // S(1)=0.99, S(2)=0.6, S(3)=0.35: with both tasks servable the
        // best rung is 2 (1.2·C vs 1.05·C); with one worker the supply
        // ratio is 0.5 and rung 3 wins: min(1.05, 1.5) = 1.05 beats
        // min(1.2, 1.0) = 1.0 and min(0.99, 0.5) = 0.5.
        let s = [0.99, 0.6, 0.35];
        for (idx, s) in s.iter().enumerate() {
            let n = 1_000_000u64;
            maps.stats_mut(0)
                .observe_batch(idx, n, (s * n as f64) as u64);
        }
        maps.set_base_price(2.0);
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        assert_eq!(schedule.prices[0], 3.0);
    }

    #[test]
    fn smoothing_pulls_neighbor_prices_together() {
        let (grid, tasks, workers, mut maps) = running_example_strategy();
        maps.cfg.smoothing = Some(0.5);
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        // Grid 9 was 3.0 surrounded by base 2.0: smoothing must pull it
        // strictly below 3.0 but keep it above the base price.
        assert!(schedule.prices[8] < 3.0);
        assert!(schedule.prices[8] > 2.0);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (grid, tasks, workers, mut maps) = running_example_strategy();
        let graph = build_period_graph(&tasks, &workers);
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers: &workers,
            graph: &graph,
        };
        let a = maps.price_period(&input);
        let b = maps.price_period(&input);
        assert_eq!(a, b);
    }

    /// A many-grid pseudorandom period: `side²` grids over the 100×100
    /// region with clustered tasks/workers and tie-heavy distances, the
    /// shape where the table path and the table-less heap path could
    /// plausibly diverge.
    fn random_period(
        side: u32,
        n_tasks: usize,
        n_workers: usize,
        seed: u64,
    ) -> (GridSpec, Vec<TaskInput>, Vec<WorkerInput>) {
        let grid = GridSpec::square(Rect::square(100.0), side);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Distances from a coarse 0.5-step set: plateaus + cross-grid Δ
        // ties are the hard case for heap-order-sensitive divergence.
        let tasks: Vec<TaskInput> = (0..n_tasks)
            .map(|_| {
                let x = (next() % 10_000) as f64 / 100.0;
                let y = (next() % 10_000) as f64 / 100.0;
                let d = 0.5 * (1 + next() % 8) as f64;
                TaskInput::new(&grid, Point::new(x, y), d)
            })
            .collect();
        let workers: Vec<WorkerInput> = (0..n_workers)
            .map(|_| {
                let x = (next() % 10_000) as f64 / 100.0;
                let y = (next() % 10_000) as f64 / 100.0;
                WorkerInput::new(&grid, Point::new(x, y), 15.0)
            })
            .collect();
        (grid, tasks, workers)
    }

    /// MAPS over the paper ladder with coarse acceptance ratios
    /// (multiples of 1/8, maximizing ties) drawn from `seed`.
    fn seeded_maps(num_cells: usize, seed: u64) -> MapsStrategy {
        seeded_maps_with(num_cells, seed, MapsConfig::default())
    }

    /// [`seeded_maps`] under `cfg`.
    fn seeded_maps_with(num_cells: usize, seed: u64, cfg: MapsConfig) -> MapsStrategy {
        let mut maps = MapsStrategy::new(num_cells, PriceLadder::paper_default(), cfg);
        let mut s = seed | 1;
        for cell in 0..num_cells {
            for idx in 0..maps.ladder.len() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                maps.stats_mut(cell).observe_batch(idx, 8, s % 9);
            }
        }
        maps
    }

    /// MAPS seeded with the **plateau worst case** for the sequential
    /// reference: the lowest rung has near-full acceptance (`Ŝ = 0.95`,
    /// the global revenue maximum) while every other rung's product
    /// `p·Ŝ(p)` is pinned at 0.8. Once the top rung's index is
    /// demand-capped at 0.8, the lowest rung stays supply-capped (and
    /// therefore better only at depth) until the supply ratio reaches
    /// 0.8 — so the heap crosses a long `Δ = 0` plateau where the
    /// lookahead reads every remaining supply level per admission.
    /// Sample counts are large so UCB radii are negligible.
    fn plateau_maps(num_cells: usize) -> MapsStrategy {
        let mut maps = MapsStrategy::paper_default(num_cells);
        let n = 1_000_000u64;
        let ratios: Vec<f64> = maps
            .ladder
            .prices()
            .iter()
            .enumerate()
            .map(|(idx, &p)| if idx == 0 { 0.95 } else { 0.8 / p })
            .collect();
        for cell in 0..num_cells {
            for (idx, &s) in ratios.iter().enumerate() {
                maps.stats_mut(cell)
                    .observe_batch(idx, n, (s * n as f64) as u64);
            }
        }
        maps
    }

    /// Asserts the table-driven `price_period` of `maps` prices every
    /// grid bit for bit like the table-less reference.
    fn assert_matches_tableless_reference(
        maps: &MapsStrategy,
        grid: &GridSpec,
        tasks: &[TaskInput],
        workers: &[WorkerInput],
    ) {
        let graph = build_period_graph(tasks, workers);
        let input = PeriodInput {
            grid,
            tasks,
            workers,
            graph: &graph,
        };
        let reference = maps.price_period_tableless(&input);
        let prices = maps.clone().price_period(&input).prices;
        let bits = |prices: &[f64]| prices.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&prices),
            bits(&reference.prices),
            "table path diverged from the table-less reference"
        );
    }

    /// The depth-capped tables price like the table-less reference on
    /// fixed panels: the running example, three tie-heavy 8 × 8
    /// periods, and the benchmark's period shape — a 10 × 10 grid with
    /// 25 and with 250 tasks over 5 000 workers, where every table ends
    /// at its grid's task count, far inside the `|W| + 1` cap.
    #[test]
    fn tables_match_the_tableless_reference() {
        let (grid, tasks, workers, maps) = running_example_strategy();
        assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);
        for seed in [3u64, 17, 99] {
            let (grid, tasks, workers) = random_period(8, 400, 250, seed);
            let maps = seeded_maps(grid.num_cells(), seed);
            assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);
        }
        for n_tasks in [25, 250] {
            let (grid, tasks, workers) = random_period(10, n_tasks, 5_000, 0xB0B);
            let maps = seeded_maps(grid.num_cells(), 0xB0B);
            assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);
        }
    }

    /// A denser panel than the fixed ones — about eight tasks and five
    /// workers a grid on an 8 × 8 grid — prices like the table-less
    /// reference.
    #[test]
    fn dense_period_matches_the_tableless_reference() {
        let (grid, tasks, workers) = random_period(8, 500, 300, 0xA11CE);
        let maps = seeded_maps(grid.num_cells(), 0xA11CE);
        assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);
    }

    /// The plateau worst case (see [`plateau_maps`]), where almost every
    /// admission runs the full lookahead: with abundant supply the table
    /// covers every level the heap reads; on a worker-scarce period the
    /// table stops at `|W| + 1` and the lookahead reads past it into
    /// `maximizer_at`'s on-demand fallback. Both price like the
    /// table-less reference.
    #[test]
    fn plateau_worst_case_matches_the_tableless_reference() {
        let (grid, tasks, workers) = random_period(8, 1000, 1250, 11);
        let maps = plateau_maps(grid.num_cells());
        assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);

        // Every worker reaches every task, so all 40 are admitted and
        // each grid's supply climbs well onto the plateau.
        let (grid, tasks, mut workers) = random_period(2, 240, 40, 11);
        for w in &mut workers {
            w.radius = 150.0;
        }
        let maps = plateau_maps(grid.num_cells());
        let mut tasks_per_grid = vec![0usize; grid.num_cells()];
        for t in &tasks {
            tasks_per_grid[t.cell.index()] += 1;
        }
        let deepest_grid = *tasks_per_grid.iter().max().unwrap();
        assert!(
            workers.len() + 1 < deepest_grid,
            "the table must be shallower than a grid's supply curve"
        );
        assert_matches_tableless_reference(&maps, &grid, &tasks, &workers);
    }

    /// The table-driven `price_period` is bit-identical to the
    /// table-less reference on randomized panels — 1–64 grids,
    /// tie-heavy distance ladders (multiples of 0.5) and coarse
    /// acceptance ratios (eighths, maximizing cross-grid Δ ties),
    /// including zero-worker and zero-task edge panels.
    #[test]
    fn table_pricing_matches_the_tableless_reference() {
        // (grid side, tasks, workers, panel seed)
        let draw = |seed| {
            let mut rng = XorShift::seeded(seed);
            let side = 1 + rng.below(8) as u32;
            let (n_tasks, n_workers) = (rng.below(81) as usize, rng.below(51) as usize);
            (side, n_tasks, n_workers, rng.below(1000))
        };
        explore(
            0..64,
            draw,
            |_| None,
            |&(side, n_tasks, n_workers, seed)| {
                let grid = GridSpec::square(Rect::square(100.0), side);
                let mut rng = XorShift::seeded(seed);
                let tasks: Vec<TaskInput> = (0..n_tasks)
                    .map(|_| {
                        let x = rng.below(10_000) as f64 / 100.0;
                        let y = rng.below(10_000) as f64 / 100.0;
                        let d = 0.5 * (1 + rng.below(6)) as f64;
                        TaskInput::new(&grid, Point::new(x, y), d)
                    })
                    .collect();
                let workers: Vec<WorkerInput> = (0..n_workers)
                    .map(|_| {
                        let x = rng.below(10_000) as f64 / 100.0;
                        let y = rng.below(10_000) as f64 / 100.0;
                        WorkerInput::new(&grid, Point::new(x, y), 12.0)
                    })
                    .collect();
                let graph = build_period_graph(&tasks, &workers);
                let input = PeriodInput {
                    grid: &grid,
                    tasks: &tasks,
                    workers: &workers,
                    graph: &graph,
                };
                let maps = seeded_maps(grid.num_cells(), seed);
                let reference = maps.price_period_tableless(&input).prices;
                let table = maps.clone().price_period(&input).prices;
                for (cell, (rp, tp)) in reference.iter().zip(&table).enumerate() {
                    assert!(
                        rp.to_bits() == tp.to_bits(),
                        "cell {cell}: table-less {rp} vs table {tp}"
                    );
                }
            },
        );
    }

    /// ROADMAP 25(a), the pricing half. When every row the cap cuts
    /// keeps at least |R_t| workers, the capped graph has the full
    /// graph's transversal matroid (the lemma at `scratch.rs`'s
    /// `a_cap_of_at_least_the_task_count_changes_no_answer`), and MAPS
    /// asks the graph only whether a task can join the matched set. So
    /// `price_period` over `build_period_graph_capped` with `k ≥ |R_t|`
    /// posts the full graph's prices bit for bit, with and without the
    /// plateau lookahead. The periods put points on a 0.5-step lattice
    /// (tied distances), stack workers on one spot and seed coarse UCB
    /// statistics; the floor keeps the check from passing on draws the
    /// cap never cuts.
    #[test]
    fn a_cap_of_at_least_the_task_count_changes_no_price() {
        fn lattice(rng: &mut XorShift) -> Point {
            Point::new(0.5 * rng.below(41) as f64, 0.5 * rng.below(41) as f64)
        }
        let cut = std::cell::Cell::new(0);
        // (grid side, tasks, workers, k − |R_t|, period seed)
        let draw = |seed| {
            let mut rng = XorShift::seeded(seed);
            let side = 1 + rng.below(4) as u32;
            let (n_tasks, n_workers) = (1 + rng.below(12) as usize, rng.below(61) as usize);
            (
                side,
                n_tasks,
                n_workers,
                rng.below(3) as usize,
                rng.below(1000),
            )
        };
        explore(
            0..200,
            draw,
            |_| None,
            |&(side, n_tasks, n_workers, slack, seed)| {
                let grid = GridSpec::square(Rect::square(20.0), side);
                let mut rng = XorShift::seeded(seed);
                let tasks: Vec<TaskInput> = (0..n_tasks)
                    .map(|_| {
                        let d = 0.5 * (1 + rng.below(6)) as f64;
                        TaskInput::new(&grid, lattice(&mut rng), d)
                    })
                    .collect();
                let mut workers: Vec<WorkerInput> = Vec::with_capacity(n_workers);
                for _ in 0..n_workers {
                    // About a third of the workers share the previous
                    // one's spot.
                    let location = match workers.last() {
                        Some(w) if rng.below(3) == 0 => w.location,
                        _ => lattice(&mut rng),
                    };
                    let radius = 4.0 + 2.0 * rng.below(4) as f64;
                    workers.push(WorkerInput::new(&grid, location, radius));
                }
                let k = n_tasks + slack;
                let full = build_period_graph(&tasks, &workers);
                let capped = build_period_graph_capped(&tasks, &workers, k);
                cut.set(cut.get() + usize::from(capped.n_edges() < full.n_edges()));
                for plateau_lookahead in [true, false] {
                    let cfg = MapsConfig {
                        plateau_lookahead,
                        ..MapsConfig::default()
                    };
                    let maps = seeded_maps_with(grid.num_cells(), seed, cfg);
                    let price = |graph: &BipartiteGraph| {
                        let input = PeriodInput {
                            grid: &grid,
                            tasks: &tasks,
                            workers: &workers,
                            graph,
                        };
                        let prices = maps.clone().price_period(&input).prices;
                        prices.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        price(&full),
                        price(&capped),
                        "k = {k}, plateau_lookahead = {plateau_lookahead}"
                    );
                }
            },
        );
        assert!(
            cut.get() >= 100,
            "the cap cut a row in {} of 200 periods",
            cut.get()
        );
    }

    /// A checkpointed base price is outside input: one off the ladder's
    /// window (NaN included) is refused, never posted in task-free grids.
    #[test]
    fn load_refuses_a_base_price_off_the_ladder() {
        let mut words = Vec::new();
        MapsStrategy::paper_default(4).save_state(&mut words);
        for p in [f64::NAN, f64::INFINITY, 0.5, 5.5] {
            words[0] = p.to_bits();
            let loaded = MapsStrategy::paper_default(4).load_state(&mut StateWords::new(&words));
            let refused = StateError::Mismatch("base price outside the price ladder");
            assert_eq!(loaded, Err(refused), "{p}");
        }
    }
}
