//! The per-period bipartite graph under the range constraint, by
//! definition: the reference every indexed build is checked against.
//!
//! Definition 5(ii): "There is an edge (r, w) ∈ E^t if the task r
//! satisfies the range constraint of the worker w" — the task's origin
//! lies within `a_w` of the worker's location (Definition 4), computed
//! here and everywhere else as `Point::euclidean(origin, l_w) <= a_w`.
//! [`build_period_graph`] is that sentence as a double loop;
//! [`build_period_graph_capped`] cuts each task's edges to its `k`
//! nearest under the total `(distance, worker index)` order.
//!
//! Both cost `O(|R|·|W|)` per period and use no spatial index on
//! purpose: a reference that shared the production ring search would
//! compare it with itself. The path that ships is
//! [`crate::PeriodGraphCache`]; callers here are tests, the test-only
//! rescan engine and the paper's 3 × 3 running example.

use crate::problem::{TaskInput, WorkerInput};
use maps_matching::{BipartiteGraph, BipartiteGraphBuilder};

/// Builds the complete task–worker graph for one period.
///
/// Tasks are the left side (indices follow `tasks` order), workers the
/// right side.
pub fn build_period_graph(tasks: &[TaskInput], workers: &[WorkerInput]) -> BipartiteGraph {
    let mut builder = BipartiteGraphBuilder::new(tasks.len(), workers.len());
    for (t_idx, task) in tasks.iter().enumerate() {
        for (w_idx, w) in workers.iter().enumerate() {
            if task.origin.euclidean(w.location) <= w.radius {
                builder.add_edge(t_idx, w_idx);
            }
        }
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
    tasks: &[TaskInput],
    workers: &[WorkerInput],
    k: usize,
) -> BipartiteGraph {
    let mut builder = BipartiteGraphBuilder::new(tasks.len(), workers.len());
    let mut near: Vec<(f64, usize)> = Vec::new();
    for (t_idx, task) in tasks.iter().enumerate() {
        near.clear();
        for (w_idx, w) in workers.iter().enumerate() {
            let distance = task.origin.euclidean(w.location);
            if distance <= w.radius {
                near.push((distance, w_idx));
            }
        }
        near.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, w_idx) in near.iter().take(k) {
            builder.add_edge(t_idx, w_idx);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_spatial::{GridSpec, Point, Rect};

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
        let g = build_period_graph(&tasks, &workers);
        assert_eq!(g.neighbors(0), &[0]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
    }

    #[test]
    fn empty_sides() {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let g = build_period_graph(&[], &[]);
        assert_eq!(g.n_left(), 0);
        assert_eq!(g.n_right(), 0);
        let tasks = [TaskInput::new(&grid, Point::new(1.0, 1.0), 1.0)];
        let g = build_period_graph(&tasks, &[]);
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
        let full = build_period_graph(&tasks, &workers);
        let capped = build_period_graph_capped(&tasks, &workers, 30);
        assert_eq!(full, capped);
    }

    #[test]
    fn capped_keeps_nearest_workers() {
        let grid = GridSpec::square(Rect::square(100.0), 10);
        let tasks = [TaskInput::new(&grid, Point::new(50.0, 50.0), 1.0)];
        let workers: Vec<_> = (0..10)
            .map(|i| WorkerInput::new(&grid, Point::new(50.0 + i as f64, 50.0), 20.0))
            .collect();
        let g = build_period_graph_capped(&tasks, &workers, 3);
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
        let g = build_period_graph_capped(&tasks, &workers, 1);
        // Worker 0 cannot reach the task (its own radius is 0.5); the cap
        // must not waste a slot on it.
        assert_eq!(g.neighbors(0), &[1]);
    }
}
