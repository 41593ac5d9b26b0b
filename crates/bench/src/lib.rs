//! # maps-bench
//!
//! Fixtures shared by the `bench_report` kernel rows (the `bench_gate`
//! binary checks its output against the committed `BENCH_PR*.json`
//! trajectory). End-to-end serving numbers come from the separate
//! `maps_benchmark` package under `src/bin/maps_benchmark/`.

#![warn(missing_docs)]

use maps_core::{MapsConfig, MapsStrategy, PeriodInput, TaskInput, WorkerInput};
use maps_market::PriceLadder;
use maps_matching::{BipartiteGraph, BipartiteGraphBuilder};
use maps_spatial::{GridSpec, Point, Rect};

pub use maps_testkit::XorShift;

/// A ready-to-price period fixture.
pub struct PeriodFixture {
    /// Grid of the fixture.
    pub grid: GridSpec,
    /// Tasks of the period.
    pub tasks: Vec<TaskInput>,
    /// Workers of the period.
    pub workers: Vec<WorkerInput>,
    /// Range-constraint bipartite graph.
    pub graph: BipartiteGraph,
}

impl PeriodFixture {
    /// Builds a period with `n_tasks` × `n_workers` over a `side × side`
    /// grid on the paper's 100×100 region, worker radius 10.
    pub fn new(n_tasks: usize, n_workers: usize, side: u32, seed: u64) -> Self {
        let grid = GridSpec::square(Rect::square(100.0), side);
        let mut rng = XorShift(seed | 1);
        let tasks: Vec<TaskInput> = (0..n_tasks)
            .map(|_| {
                TaskInput::new(
                    &grid,
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                    0.5 + rng.next_f64() * 100.0,
                )
            })
            .collect();
        let workers: Vec<WorkerInput> = (0..n_workers)
            .map(|_| {
                WorkerInput::new(
                    &grid,
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                    10.0,
                )
            })
            .collect();
        let graph = maps_core::build_period_graph_capped(&grid, &tasks, &workers, 64);
        Self {
            grid,
            tasks,
            workers,
            graph,
        }
    }

    /// A borrowed [`PeriodInput`] over this fixture.
    pub fn input(&self) -> PeriodInput<'_> {
        PeriodInput {
            grid: &self.grid,
            tasks: &self.tasks,
            workers: &self.workers,
            graph: &self.graph,
        }
    }
}

/// A MAPS strategy seeded with the **plateau worst case** for the
/// sequential pricing path: the lowest rung has near-full acceptance
/// (`Ŝ = 0.95`, the global revenue maximum) while every other rung's
/// product `p·Ŝ(p)` is pinned at 0.8. Once the top rung's index is
/// demand-capped at 0.8, the lowest rung stays supply-capped (and
/// therefore better only at depth) until the supply ratio reaches 0.8 —
/// so the heap crosses a long `Δ = 0` plateau where the on-demand path
/// re-scans all remaining supply levels per admission (`O(n²·|ladder|)`)
/// and the precomputed table pays for itself even single-threaded.
/// Sample counts are large so UCB radii are negligible.
pub fn plateau_maps(num_cells: usize, parallel: bool) -> MapsStrategy {
    let mut maps = MapsStrategy::new(
        num_cells,
        PriceLadder::paper_default(),
        MapsConfig {
            parallel,
            ..MapsConfig::default()
        },
    );
    let n = 1_000_000u64;
    let ratios: Vec<f64> = maps
        .ladder()
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

/// Random bipartite graph with the given density (`0..=1`).
pub fn random_graph(n_left: usize, n_right: usize, density: f64, seed: u64) -> BipartiteGraph {
    let mut rng = XorShift(seed | 1);
    let mut b = BipartiteGraphBuilder::new(n_left, n_right);
    for l in 0..n_left {
        for r in 0..n_right {
            if rng.next_f64() < density {
                b.add_edge(l, r);
            }
        }
    }
    b.build()
}

/// Left-side weights in `[0, 10)`.
pub fn random_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift(seed | 1);
    (0..n).map(|_| rng.next_f64() * 10.0).collect()
}
