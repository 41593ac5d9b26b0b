//! Revenue evaluation: the Monte-Carlo expected-revenue estimator.
//!
//! Definition 5: at the end of a period, the accepting tasks and the
//! available workers form an instantiated bipartite graph whose
//! maximum-weight matching value is the platform's revenue. The exact
//! expectation (Definition 6) is `Σ_world U(world)·Pr[world]`
//! ([`maps_matching::PossibleWorlds`], `2^n` solves);
//! [`monte_carlo_expected_revenue`] samples worlds instead, for
//! instances too large to enumerate. It is the one estimator.
//!
//! # Block seeding
//!
//! Samples are grouped into fixed blocks of `MC_BLOCK`; each block
//! draws from its own `SmallRng` seeded by `(seed, block_index)` and
//! accumulates sequentially in sample order; blocks fan out over rayon
//! and their sums are reduced in block order. Seeding and reduction
//! order are fixed by construction, so the estimate is a function of
//! `(instance, samples, seed)` alone — **bit-identical** at any thread
//! count. The sequential form of the same computation lives beside the
//! tests, where `parallel_matches_sequential_bitwise` pins the two
//! together on the 1/2/3/8-thread harness; shipping builds have no
//! second path. Each sample runs through the zero-allocation masked
//! kernel ([`MatchScratch`] with a `keep` mask over a precomputed
//! weight order) instead of materializing a `filter_left` subgraph.

use maps_matching::{sort_by_weight_desc, BipartiteGraph, MatchScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Number of Monte-Carlo samples per deterministic seeding block.
///
/// Each block owns an independent RNG stream and a sequential in-block
/// accumulator, so the estimate is invariant to how blocks are
/// distributed over threads.
const MC_BLOCK: u32 = 64;

/// The estimator's workspace: acceptance mask, weight-sorted task
/// order and the matching scratch. Binding sorts the weights once;
/// sampling then runs allocation-free. One bound template is cloned per
/// worker chunk, so no block ever re-sorts.
#[derive(Debug, Clone)]
struct McScratch {
    keep: Vec<bool>,
    order: Vec<u32>,
    matching: MatchScratch,
}

impl McScratch {
    /// A workspace bound to an instance: the mask sized, the weight
    /// order computed.
    fn bound(graph: &BipartiteGraph, weights: &[f64]) -> Self {
        let mut order = Vec::new();
        sort_by_weight_desc(weights, &mut order);
        Self {
            keep: vec![false; graph.n_left()],
            order,
            matching: MatchScratch::new(),
        }
    }

    /// Draws one world from `rng` and returns its clearing revenue.
    fn sample_once(
        &mut self,
        graph: &BipartiteGraph,
        weights: &[f64],
        accept_probs: &[f64],
        rng: &mut SmallRng,
    ) -> f64 {
        for (k, &q) in self.keep.iter_mut().zip(accept_probs) {
            *k = rng.gen::<f64>() < q;
        }
        self.matching
            .max_weight_value_ordered(graph, weights, &self.order, Some(&self.keep))
    }
}

fn check_inputs(graph: &BipartiteGraph, weights: &[f64], accept_probs: &[f64], samples: u32) {
    assert_eq!(weights.len(), graph.n_left(), "one weight per task");
    assert_eq!(
        accept_probs.len(),
        graph.n_left(),
        "one probability per task"
    );
    assert!(samples > 0, "need at least one sample");
}

/// The RNG for one seeding block: every `(seed, block)` pair owns an
/// independent, reproducible stream.
fn block_rng(seed: u64, block: u32) -> SmallRng {
    // SplitMix-style mixing so nearby blocks decorrelate fully; the
    // vendored SmallRng expands this through SplitMix64 again.
    SmallRng::seed_from_u64(seed ^ (block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sum of one block's samples, accumulated sequentially in sample
/// order. Shared verbatim by the estimator and its test-only
/// sequential form — this is what makes them bit-identical.
fn block_sum(
    graph: &BipartiteGraph,
    weights: &[f64],
    accept_probs: &[f64],
    seed: u64,
    block: u32,
    block_len: u32,
    scratch: &mut McScratch,
) -> f64 {
    let mut rng = block_rng(seed, block);
    let mut acc = 0.0;
    for _ in 0..block_len {
        acc += scratch.sample_once(graph, weights, accept_probs, &mut rng);
    }
    acc
}

fn num_blocks(samples: u32) -> u32 {
    samples.div_ceil(MC_BLOCK)
}

fn block_len(samples: u32, block: u32) -> u32 {
    let start = block * MC_BLOCK;
    MC_BLOCK.min(samples - start)
}

/// Monte-Carlo estimate of the expected total revenue
/// `E[U(B^t) | P^t]` for given per-task acceptance probabilities.
/// Same instance, `samples` and `seed` ⇒ same bits, at any rayon thread
/// count (see the module docs).
///
/// # Panics
/// Panics if slice lengths disagree with the graph or `samples == 0`.
pub fn monte_carlo_expected_revenue(
    graph: &BipartiteGraph,
    weights: &[f64],
    accept_probs: &[f64],
    samples: u32,
    seed: u64,
) -> f64 {
    check_inputs(graph, weights, accept_probs, samples);
    // Bind (and weight-sort) once; each worker chunk clones the
    // pre-bound workspace — O(threads) allocations per call, not
    // O(blocks) — and walks its contiguous block range with it.
    let template = McScratch::bound(graph, weights);
    let n_blocks = num_blocks(samples) as usize;
    let chunk = n_blocks.div_ceil(rayon::current_num_threads().max(1));
    let chunks: Vec<Vec<f64>> = (0..n_blocks.div_ceil(chunk))
        .into_par_iter()
        .map(|c| {
            let mut scratch = template.clone();
            (c * chunk..((c + 1) * chunk).min(n_blocks))
                .map(|block| {
                    let block = block as u32;
                    block_sum(
                        graph,
                        weights,
                        accept_probs,
                        seed,
                        block,
                        block_len(samples, block),
                        &mut scratch,
                    )
                })
                .collect()
        })
        .collect();
    // Ordered reduction: chunks are contiguous block ranges in chunk
    // order, so flattening yields block order — the identical float
    // summation order to the sequential form under any chunking or
    // thread schedule.
    chunks.iter().flatten().sum::<f64>() / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_matching::{expected_total_revenue_exact, BipartiteGraphBuilder};

    /// The sequential form of [`monte_carlo_expected_revenue`]: one
    /// workspace, blocks summed in index order on the calling thread.
    /// The reference `parallel_matches_sequential_bitwise` compares
    /// against.
    fn monte_carlo_expected_revenue_sequential(
        graph: &BipartiteGraph,
        weights: &[f64],
        accept_probs: &[f64],
        samples: u32,
        seed: u64,
    ) -> f64 {
        check_inputs(graph, weights, accept_probs, samples);
        let mut scratch = McScratch::bound(graph, weights);
        let mut total = 0.0;
        for block in 0..num_blocks(samples) {
            total += block_sum(
                graph,
                weights,
                accept_probs,
                seed,
                block,
                block_len(samples, block),
                &mut scratch,
            );
        }
        total / samples as f64
    }

    fn running_example() -> BipartiteGraph {
        BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build()
    }

    #[test]
    fn seeded_monte_carlo_matches_exact_enumeration() {
        let g = running_example();
        let weights = [3.9, 2.1, 2.0];
        let probs = [0.5, 0.5, 0.8];
        let exact = expected_total_revenue_exact(&g, &weights, &probs);
        let mc = monte_carlo_expected_revenue_sequential(&g, &weights, &probs, 40_000, 7);
        assert!((mc - exact).abs() < 0.05, "seeded MC {mc} vs exact {exact}");
        let mc_par = monte_carlo_expected_revenue(&g, &weights, &probs, 40_000, 7);
        assert!((mc_par - exact).abs() < 0.05, "parallel MC {mc_par}");
    }

    #[test]
    fn monte_carlo_degenerate_probs() {
        let g = running_example();
        let weights = [3.9, 2.1, 2.0];
        let all = monte_carlo_expected_revenue(&g, &weights, &[1.0; 3], 10, 1);
        assert!((all - 5.9).abs() < 1e-9);
        let none = monte_carlo_expected_revenue(&g, &weights, &[0.0; 3], 10, 1);
        assert_eq!(none, 0.0);
    }

    /// The acceptance criterion for this PR's parallel engine: the
    /// parallel estimator returns bit-identical results to the seeded
    /// sequential path for the same seed, at every thread count.
    #[test]
    fn parallel_matches_sequential_bitwise() {
        // A bigger pseudorandom instance so blocks are non-trivial.
        let mut s = 99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let (n_left, n_right) = (40usize, 25usize);
        let mut b = BipartiteGraphBuilder::new(n_left, n_right);
        for l in 0..n_left {
            for r in 0..n_right {
                if next() % 4 == 0 {
                    b.add_edge(l, r);
                }
            }
        }
        let g = b.build();
        let weights: Vec<f64> = (0..n_left).map(|_| (next() % 900) as f64 / 100.0).collect();
        let probs: Vec<f64> = (0..n_left).map(|_| (next() % 100) as f64 / 100.0).collect();

        for &(samples, seed) in &[(1u32, 3u64), (63, 5), (64, 7), (65, 11), (1000, 13)] {
            let sequential =
                monte_carlo_expected_revenue_sequential(&g, &weights, &probs, samples, seed);
            // 1/2/3/8-thread sweep + bitwise comparison via the shared
            // determinism harness.
            let parallel = maps_testkit::assert_deterministic(|| {
                monte_carlo_expected_revenue(&g, &weights, &probs, samples, seed)
            });
            assert_eq!(
                sequential.to_bits(),
                parallel.to_bits(),
                "samples {samples} seed {seed}: {sequential} vs {parallel}"
            );
        }
    }

    #[test]
    fn seeded_is_reproducible_and_seed_sensitive() {
        let g = running_example();
        let weights = [3.9, 2.1, 2.0];
        let probs = [0.5, 0.5, 0.8];
        let a = monte_carlo_expected_revenue_sequential(&g, &weights, &probs, 500, 42);
        let b = monte_carlo_expected_revenue_sequential(&g, &weights, &probs, 500, 42);
        assert_eq!(a.to_bits(), b.to_bits());
        let c = monte_carlo_expected_revenue_sequential(&g, &weights, &probs, 500, 43);
        assert_ne!(a.to_bits(), c.to_bits(), "different seeds must differ");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_zero_samples() {
        let g = running_example();
        let _ = monte_carlo_expected_revenue_sequential(&g, &[1.0; 3], &[0.5; 3], 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn parallel_rejects_zero_samples() {
        let g = running_example();
        let _ = monte_carlo_expected_revenue(&g, &[1.0; 3], &[0.5; 3], 0, 1);
    }
}
