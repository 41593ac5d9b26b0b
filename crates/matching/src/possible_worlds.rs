//! Possible-world semantics for the probabilistic bipartite graph.
//!
//! Definition 6 of the paper: the expected total revenue is
//! `E[U(B^t) | P^t] = Σ_i U(PWB_i) · Pr[PWB_i]`, summing over all `2^|R|`
//! instantiations in which each task independently accepts its price with
//! probability `S^g(p_r)`. Fig. 2 enumerates the 8 worlds of the running
//! example. This module reproduces that computation exactly — it is the
//! ground-truth oracle against which the pricing strategies' approximation
//! `L^g(n, p)` and the Monte-Carlo evaluator are tested.
//!
//! # Cost, and why there is no fast path
//!
//! [`PossibleWorlds::expected_revenue`] is the definition's sum over
//! [`PossibleWorlds::worlds`]: `2^n` worlds, each materializing its
//! accepting subgraph and solving one maximum-weight matching from
//! scratch (release build: 16 tasks in ≈ 50 ms, 20 in ≈ 1 s, and each
//! further task up to [`MAX_EXACT_TASKS`] doubles it). An incremental
//! Gray-code walk once stood here, ≈ 100× faster at 20 tasks; measured
//! at PR 18, the largest instance any caller hands this module has 9
//! tasks (512 worlds), so the walk's only work was agreeing with this
//! sum.

use crate::graph::BipartiteGraph;
use crate::scratch::MatchScratch;

/// Maximum number of tasks for exact enumeration: `2^n` matching solves,
/// ≈ 1 s at 20 tasks and doubling per task from there (module docs).
pub const MAX_EXACT_TASKS: usize = 24;

/// One instantiated possible world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct World {
    /// Bitmask over left vertices: bit `l` set ⇔ task `l` accepts.
    pub mask: u64,
    /// Sampling probability `Pr[PWB_i]`.
    pub probability: f64,
    /// Total revenue `U(PWB_i)` (maximum-weight matching of the world).
    pub revenue: f64,
}

/// Exact possible-world enumerator over a probabilistic bipartite graph.
#[derive(Debug, Clone)]
pub struct PossibleWorlds<'a> {
    graph: &'a BipartiteGraph,
    weights: &'a [f64],
    accept_probs: &'a [f64],
}

impl<'a> PossibleWorlds<'a> {
    /// Creates the enumerator.
    ///
    /// * `weights[l]` — revenue of task `l` if accepted and matched
    ///   (`d_r · p_r`).
    /// * `accept_probs[l]` — acceptance probability `S^g(p_r)` of task `l`.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the graph, if any probability
    /// is outside `[0, 1]`, or if `n_left > MAX_EXACT_TASKS`.
    pub fn new(graph: &'a BipartiteGraph, weights: &'a [f64], accept_probs: &'a [f64]) -> Self {
        assert_eq!(weights.len(), graph.n_left(), "one weight per task");
        assert_eq!(
            accept_probs.len(),
            graph.n_left(),
            "one probability per task"
        );
        assert!(
            graph.n_left() <= MAX_EXACT_TASKS,
            "exact enumeration supports at most {MAX_EXACT_TASKS} tasks, got {}",
            graph.n_left()
        );
        for (l, &q) in accept_probs.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&q),
                "acceptance probability of task {l} out of [0,1]: {q}"
            );
        }
        Self {
            graph,
            weights,
            accept_probs,
        }
    }

    /// Number of possible worlds, `2^|R|`.
    pub fn num_worlds(&self) -> u64 {
        1u64 << self.graph.n_left()
    }

    /// Iterates every possible world with its probability and revenue.
    ///
    /// Per world it materializes the accepting subgraph with
    /// [`BipartiteGraph::filter_left`] and solves it from scratch:
    /// deliberately allocation-heavy and obviously correct.
    pub fn worlds(&self) -> impl Iterator<Item = World> + '_ {
        let n = self.graph.n_left();
        (0..self.num_worlds()).map(move |mask| {
            let mut probability = 1.0;
            let mut keep = vec![false; n];
            for (l, k) in keep.iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    probability *= self.accept_probs[l];
                    *k = true;
                } else {
                    probability *= 1.0 - self.accept_probs[l];
                }
            }
            let (sub, old_of_new) = self.graph.filter_left(&keep);
            let sub_weights: Vec<f64> = old_of_new
                .iter()
                .map(|&l| self.weights[l as usize])
                .collect();
            let revenue = MatchScratch::new().max_weight_value(&sub, &sub_weights);
            World {
                mask,
                probability,
                revenue,
            }
        })
    }

    /// The expected total revenue `E[U(B^t)|P^t]` (Definition 6): the
    /// sum of `Pr[PWB_i] · U(PWB_i)` over [`PossibleWorlds::worlds`].
    pub fn expected_revenue(&self) -> f64 {
        self.worlds().map(|w| w.probability * w.revenue).sum()
    }
}

/// Convenience wrapper: exact expected total revenue of a priced instance.
pub fn expected_total_revenue_exact(
    graph: &BipartiteGraph,
    weights: &[f64],
    accept_probs: &[f64],
) -> f64 {
    PossibleWorlds::new(graph, weights, accept_probs).expected_revenue()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BipartiteGraphBuilder;

    fn running_example() -> BipartiteGraph {
        BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let g = running_example();
        let pw = PossibleWorlds::new(&g, &[3.9, 2.1, 2.0], &[0.5, 0.5, 0.8]);
        let sum: f64 = pw.worlds().map(|w| w.probability).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(pw.num_worlds(), 8);
    }

    #[test]
    fn example3_world_probability() {
        // Paper, Example 3: the world where only r1 accepts has probability
        // S(3)·(1−S(3))·(1−S(2)) = 0.5·0.5·0.2 = 0.05 and revenue 3.9.
        let g = running_example();
        let pw = PossibleWorlds::new(&g, &[3.9, 2.1, 2.0], &[0.5, 0.5, 0.8]);
        let world = pw.worlds().find(|w| w.mask == 0b001).unwrap();
        assert!((world.probability - 0.05).abs() < 1e-12);
        assert!((world.revenue - 3.9).abs() < 1e-12);
    }

    #[test]
    fn example3_expected_revenue() {
        // Prices (3,3,2) with Table-1 ratios: S(3)=0.5 for r1,r2; S(2)=0.8
        // for r3. Weights d_r·p_r = (1.3·3, 0.7·3, 1·2) = (3.9, 2.1, 2.0).
        // Exact expectation = 4.075, which the paper reports rounded as 4.1.
        let g = running_example();
        let e = expected_total_revenue_exact(&g, &[3.9, 2.1, 2.0], &[0.5, 0.5, 0.8]);
        assert!((e - 4.075).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn prices_332_beat_uniform_2_on_running_example() {
        // The paper argues prices (3,3,2) are optimal; in particular they
        // beat the globally uniform Myerson price 2 (which is optimal only
        // under unlimited supply).
        let g = running_example();
        let d = [1.3, 0.7, 1.0];
        let s = |p: f64| match p as u32 {
            1 => 0.9,
            2 => 0.8,
            3 => 0.5,
            _ => 0.0,
        };
        let rev = |prices: [f64; 3]| {
            let weights: Vec<f64> = d.iter().zip(prices).map(|(&d, p)| d * p).collect();
            let probs: Vec<f64> = prices.iter().map(|&p| s(p)).collect();
            expected_total_revenue_exact(&g, &weights, &probs)
        };
        assert!(rev([3.0, 3.0, 2.0]) > rev([2.0, 2.0, 2.0]));
    }

    #[test]
    fn prices_332_optimal_over_grid_constrained_ladder() {
        // Exhaustive search over per-grid prices in {1,2,3} (r1 and r2 share
        // grid 9 so they must share a price; r3 is alone in grid 11).
        let g = running_example();
        let d = [1.3, 0.7, 1.0];
        let s = |p: f64| match p as u32 {
            1 => 0.9,
            2 => 0.8,
            3 => 0.5,
            _ => 0.0,
        };
        let mut best = (0.0f64, [0.0f64; 3]);
        for p9 in [1.0, 2.0, 3.0] {
            for p11 in [1.0, 2.0, 3.0] {
                let prices = [p9, p9, p11];
                let weights: Vec<f64> = d.iter().zip(prices).map(|(&d, p)| d * p).collect();
                let probs: Vec<f64> = prices.iter().map(|&p| s(p)).collect();
                let e = expected_total_revenue_exact(&g, &weights, &probs);
                if e > best.0 {
                    best = (e, prices);
                }
            }
        }
        assert_eq!(best.1, [3.0, 3.0, 2.0], "paper's stated optimum");
        assert!((best.0 - 4.075).abs() < 1e-9);
    }

    #[test]
    fn certain_acceptance_reduces_to_matching() {
        let g = running_example();
        let e = expected_total_revenue_exact(&g, &[3.9, 2.1, 2.0], &[1.0, 1.0, 1.0]);
        assert!((e - 5.9).abs() < 1e-12);
    }

    #[test]
    fn zero_acceptance_gives_zero_revenue() {
        let g = running_example();
        let e = expected_total_revenue_exact(&g, &[3.9, 2.1, 2.0], &[0.0, 0.0, 0.0]);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn expectation_is_linear_for_independent_components() {
        // Two disconnected task-worker pairs: expectation must be the sum
        // of the individual expectations q_i * w_i.
        let g = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 0), (1, 1)])
            .build();
        let e = expected_total_revenue_exact(&g, &[2.0, 3.0], &[0.3, 0.7]);
        assert!((e - (0.3 * 2.0 + 0.7 * 3.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_probability() {
        let g = running_example();
        let _ = PossibleWorlds::new(&g, &[1.0, 1.0, 1.0], &[0.5, 1.5, 0.5]);
    }
}
