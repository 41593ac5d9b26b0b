//! The paper's running example (Examples 1–5, Figs. 1, 2, 5) as a
//! reusable fixture.
//!
//! Three tasks and three workers on an 8×8 region partitioned 4×4:
//!
//! * `r1` (d = 1.3) and `r2` (d = 0.7) originate in **grid 9**, reachable
//!   only by `w1`;
//! * `r3` (d = 1.0) originates in **grid 11** and is "assured to be
//!   served" — reachable by `w1`, `w2` and `w3`;
//! * Table 1 gives the acceptance ratios `S(1) = 0.9, S(2) = 0.8,
//!   S(3) = 0.5`;
//! * the optimal prices are `{3, 3, 2}` with expected total revenue
//!   `4.075` (printed as 4.1 in the paper's Example 3).
//!
//! Note on coordinates: the paper's Fig. 1a label placement is ambiguous
//! in the archived text; the coordinates below are chosen so that every
//! statement in Examples 1–5 holds simultaneously (grid memberships,
//! the bipartite edge set, and the matching claims).

use crate::builder::build_period_graph;
use crate::problem::{TaskInput, WorkerInput};
use maps_matching::BipartiteGraph;
use maps_spatial::{GridSpec, Point, Rect};

/// The running-example fixture.
#[derive(Debug, Clone)]
pub struct RunningExample {
    /// 4×4 grid over the 8×8 region (Example 2).
    pub grid: GridSpec,
    /// Tasks `r1, r2, r3` in paper order.
    pub tasks: Vec<TaskInput>,
    /// Workers `w1, w2, w3` in paper order.
    pub workers: Vec<WorkerInput>,
    /// The bipartite graph of Fig. 1b.
    pub graph: BipartiteGraph,
}

impl RunningExample {
    /// Builds the fixture.
    pub fn new() -> Self {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let tasks = vec![
            TaskInput::new(&grid, Point::new(1.0, 4.5), 1.3), // r1, grid 9
            TaskInput::new(&grid, Point::new(1.5, 5.0), 0.7), // r2, grid 9
            TaskInput::new(&grid, Point::new(5.0, 5.0), 1.0), // r3, grid 11
        ];
        let workers = vec![
            WorkerInput::new(&grid, Point::new(3.0, 5.0), 2.5), // w1
            WorkerInput::new(&grid, Point::new(7.0, 5.0), 2.5), // w2
            WorkerInput::new(&grid, Point::new(5.0, 3.0), 2.5), // w3, grid 7
        ];
        let graph = build_period_graph(&tasks, &workers);
        Self {
            grid,
            tasks,
            workers,
            graph,
        }
    }

    /// Table 1: the acceptance ratio for the example's price points.
    ///
    /// # Panics
    /// Panics for prices other than 1, 2 or 3.
    pub fn table1(price: f64) -> f64 {
        match price as u32 {
            1 => 0.9,
            2 => 0.8,
            3 => 0.5,
            _ => panic!("Table 1 defines prices 1, 2, 3 only (got {price})"),
        }
    }

    /// The travel distances `(1.3, 0.7, 1.0)`.
    pub fn distances(&self) -> Vec<f64> {
        self.tasks.iter().map(|t| t.distance).collect()
    }

    /// Task weights `d_r · p_r` for per-task prices.
    pub fn weights(&self, prices: [f64; 3]) -> Vec<f64> {
        self.tasks
            .iter()
            .zip(prices)
            .map(|(t, p)| t.distance * p)
            .collect()
    }

    /// Acceptance probabilities per task for per-task prices (Table 1).
    pub fn accept_probs(prices: [f64; 3]) -> Vec<f64> {
        prices.iter().map(|&p| Self::table1(p)).collect()
    }

    /// The paper's optimal per-task prices (grid 9 → 3, grid 11 → 2).
    pub const OPTIMAL_PRICES: [f64; 3] = [3.0, 3.0, 2.0];

    /// The exact expected total revenue at the optimal prices
    /// (the paper prints 4.1; the unrounded value is 4.075).
    pub const OPTIMAL_EXPECTED_REVENUE: f64 = 4.075;
}

impl Default for RunningExample {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_matching::expected_total_revenue_exact;

    #[test]
    fn grid_memberships_match_paper() {
        let ex = RunningExample::new();
        assert_eq!(ex.tasks[0].cell.paper_number(), 9);
        assert_eq!(ex.tasks[1].cell.paper_number(), 9);
        assert_eq!(ex.tasks[2].cell.paper_number(), 11);
        assert_eq!(ex.workers[2].cell.paper_number(), 7);
    }

    #[test]
    fn edge_set_matches_fig1b() {
        let ex = RunningExample::new();
        assert_eq!(ex.graph.neighbors(0), &[0]); // r1 – w1 only
        assert_eq!(ex.graph.neighbors(1), &[0]); // r2 – w1 only
        assert_eq!(ex.graph.neighbors(2), &[0, 1, 2]); // r3 assured
    }

    #[test]
    fn example3_expected_revenue() {
        let ex = RunningExample::new();
        let e = expected_total_revenue_exact(
            &ex.graph,
            &ex.weights(RunningExample::OPTIMAL_PRICES),
            &RunningExample::accept_probs(RunningExample::OPTIMAL_PRICES),
        );
        assert!((e - RunningExample::OPTIMAL_EXPECTED_REVENUE).abs() < 1e-9);
    }

    #[test]
    fn optimal_prices_beat_all_grid_constrained_alternatives() {
        // Exhaustive check over {1,2,3}² (one price per non-empty grid).
        let ex = RunningExample::new();
        let mut best = (f64::NEG_INFINITY, [0.0; 3]);
        for p9 in [1.0, 2.0, 3.0] {
            for p11 in [1.0, 2.0, 3.0] {
                let prices = [p9, p9, p11];
                let e = expected_total_revenue_exact(
                    &ex.graph,
                    &ex.weights(prices),
                    &RunningExample::accept_probs(prices),
                );
                if e > best.0 {
                    best = (e, prices);
                }
            }
        }
        assert_eq!(best.1, RunningExample::OPTIMAL_PRICES);
        assert!((best.0 - RunningExample::OPTIMAL_EXPECTED_REVENUE).abs() < 1e-9);
    }

    #[test]
    fn example1_claims() {
        use maps_matching::IncrementalMatching;
        let ex = RunningExample::new();
        // "at most two tasks can be served": Kuhn, one augmentation
        // attempt per task from the empty matching.
        let mut kuhn = IncrementalMatching::new(&ex.graph);
        let served = (0..ex.graph.n_left())
            .filter(|&l| kuhn.try_augment(l))
            .count();
        assert_eq!(served, 2);
        // the uniform Myerson price over Table 1 would be 2
        // (argmax p·S(p): 0.9, 1.6, 1.5), but it is NOT optimal here.
        let uniform2 = [2.0, 2.0, 2.0];
        let e2 = expected_total_revenue_exact(
            &ex.graph,
            &ex.weights(uniform2),
            &RunningExample::accept_probs(uniform2),
        );
        assert!(e2 < RunningExample::OPTIMAL_EXPECTED_REVENUE);
    }

    #[test]
    #[should_panic(expected = "Table 1 defines")]
    fn table1_rejects_unknown_price() {
        let _ = RunningExample::table1(4.0);
    }
}
