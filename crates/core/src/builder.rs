//! Constructs the per-period bipartite graph under the range constraint.
//!
//! Definition 5(ii): "There is an edge (r, w) ∈ E^t if the task r
//! satisfies the range constraint of the worker w", i.e. the task origin
//! lies within distance `a_w` of the worker's location: the spec,
//! [`build_period_graph`]. [`build_period_graph_capped`] is the spec's
//! edges cut to each task's `k` nearest — one k-NN pass at any pool
//! size, no second code path — and the from-scratch oracle of
//! [`crate::PeriodGraphCache::build_graph_capped`].

use crate::problem::{TaskInput, WorkerInput};
use maps_matching::{BipartiteGraph, BipartiteGraphBuilder};
use maps_spatial::{BucketIndex, GridSpec};

/// Builds the complete task–worker graph for one period.
///
/// Tasks are the left side (indices follow `tasks` order), workers the
/// right side.
pub fn build_period_graph(
    grid: &GridSpec,
    tasks: &[TaskInput],
    workers: &[WorkerInput],
) -> BipartiteGraph {
    // Index task origins once; each worker queries its own radius.
    let items: Vec<_> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.origin, i as u32))
        .collect();
    let index = BucketIndex::build(grid.region(), &items);
    // Average degree is usually modest; reserve optimistically.
    let mut builder =
        BipartiteGraphBuilder::with_capacity(tasks.len(), workers.len(), workers.len() * 4);
    for (w_idx, w) in workers.iter().enumerate() {
        index.for_each_within_disc(w.location, w.radius, |_, t_idx| {
            builder.add_edge(t_idx as usize, w_idx);
        });
    }
    builder.build()
}

/// Builds the task–worker graph keeping only each task's `k` nearest
/// in-range workers.
///
/// With the paper's 500k-worker scalability setting, hundreds of
/// thousands of workers are simultaneously available and the complete
/// graph holds millions of edges per period. Because edge weights live on
/// the task side (`d_r · p_r`), a maximum-weight matching only needs
/// enough *distinct* worker options per task; capping at `k` nearest
/// workers preserves the matching value in all but adversarial cases
/// while shrinking the graph to `O(k·|R^t|)` edges. With
/// `k ≥ workers.len()` nothing is cut: [`build_period_graph`]'s edges.
pub fn build_period_graph_capped(
    grid: &GridSpec,
    tasks: &[TaskInput],
    workers: &[WorkerInput],
    k: usize,
) -> BipartiteGraph {
    // Index worker locations; each task pulls its k nearest in-range.
    let items: Vec<_> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| (w.location, i as u32))
        .collect();
    let index = BucketIndex::build(grid.region(), &items);
    let max_radius = workers.iter().map(|w| w.radius).fold(0.0f64, f64::max);
    let hint = tasks.len() * k.min(workers.len());
    let mut builder = BipartiteGraphBuilder::with_capacity(tasks.len(), workers.len(), hint);
    for (t_idx, task) in tasks.iter().enumerate() {
        let near = index.k_nearest_within(task.origin, max_radius, k, |dist, w_idx| {
            dist <= workers[w_idx as usize].radius
        });
        for (_, w_idx) in near {
            builder.add_edge(t_idx, w_idx as usize);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_spatial::{Point, Rect};

    #[test]
    fn running_example_edges() {
        // Example 1: workers w1(3,5), w2(7,5), w3(5,3), all with radius
        // 2.5; tasks r1, r2 in grid 9 and r3 at (5,5). Expected edges:
        // r1-{w1}, r2-{w1}, r3-{w1,w2,w3}.
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let tasks = [
            TaskInput::new(&grid, Point::new(1.0, 4.5), 1.3), // r1
            TaskInput::new(&grid, Point::new(1.5, 5.0), 0.7), // r2
            TaskInput::new(&grid, Point::new(5.0, 5.0), 1.0), // r3
        ];
        let workers = [
            WorkerInput::new(&grid, Point::new(3.0, 5.0), 2.5),
            WorkerInput::new(&grid, Point::new(7.0, 5.0), 2.5),
            WorkerInput::new(&grid, Point::new(5.0, 3.0), 2.5),
        ];
        let g = build_period_graph(&grid, &tasks, &workers);
        assert_eq!(g.neighbors(0), &[0]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
    }

    #[test]
    fn empty_sides() {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let g = build_period_graph(&grid, &[], &[]);
        assert_eq!(g.n_left(), 0);
        assert_eq!(g.n_right(), 0);
        let tasks = [TaskInput::new(&grid, Point::new(1.0, 1.0), 1.0)];
        let g = build_period_graph(&grid, &tasks, &[]);
        assert_eq!(g.n_left(), 1);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn capped_equals_full_when_k_large() {
        let grid = GridSpec::square(Rect::square(100.0), 10);
        let mut state = 0x1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let tasks: Vec<_> = (0..50)
            .map(|_| TaskInput::new(&grid, Point::new(next() * 100.0, next() * 100.0), 1.0))
            .collect();
        let workers: Vec<_> = (0..30)
            .map(|_| WorkerInput::new(&grid, Point::new(next() * 100.0, next() * 100.0), 15.0))
            .collect();
        let full = build_period_graph(&grid, &tasks, &workers);
        let capped = build_period_graph_capped(&grid, &tasks, &workers, 30);
        assert_eq!(full, capped);
    }

    #[test]
    fn capped_keeps_nearest_workers() {
        let grid = GridSpec::square(Rect::square(100.0), 10);
        let tasks = [TaskInput::new(&grid, Point::new(50.0, 50.0), 1.0)];
        let workers: Vec<_> = (0..10)
            .map(|i| WorkerInput::new(&grid, Point::new(50.0 + i as f64, 50.0), 20.0))
            .collect();
        let g = build_period_graph_capped(&grid, &tasks, &workers, 3);
        // Nearest three workers are indices 0, 1, 2.
        assert_eq!(g.neighbors(0), &[0, 1, 2]);
    }

    #[test]
    fn capped_respects_per_worker_radius() {
        let grid = GridSpec::square(Rect::square(100.0), 10);
        let tasks = [TaskInput::new(&grid, Point::new(50.0, 50.0), 1.0)];
        let workers = [
            WorkerInput::new(&grid, Point::new(51.0, 50.0), 0.5), // near but short range
            WorkerInput::new(&grid, Point::new(55.0, 50.0), 10.0),
            WorkerInput::new(&grid, Point::new(60.0, 50.0), 10.0),
        ];
        let g = build_period_graph_capped(&grid, &tasks, &workers, 1);
        // Worker 0 cannot reach the task (its own radius is 0.5); the cap
        // must not waste a slot on it.
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn matches_brute_force() {
        // Deterministic pseudo-random placement, compare against O(R·W).
        let grid = GridSpec::square(Rect::square(100.0), 10);
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let tasks: Vec<_> = (0..200)
            .map(|_| {
                TaskInput::new(
                    &grid,
                    Point::new(next() * 100.0, next() * 100.0),
                    0.1 + next(),
                )
            })
            .collect();
        let workers: Vec<_> = (0..100)
            .map(|_| {
                WorkerInput::new(
                    &grid,
                    Point::new(next() * 100.0, next() * 100.0),
                    5.0 + next() * 10.0,
                )
            })
            .collect();
        let g = build_period_graph(&grid, &tasks, &workers);
        for (ti, t) in tasks.iter().enumerate() {
            for (wi, w) in workers.iter().enumerate() {
                let expect = t.origin.euclidean(w.location) <= w.radius;
                assert_eq!(
                    g.has_edge(ti, wi),
                    expect,
                    "task {ti} worker {wi}: dist {}",
                    t.origin.euclidean(w.location)
                );
            }
        }
    }
}
