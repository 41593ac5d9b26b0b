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
//! accumulates sequentially in sample order, and the block sums are
//! added in block order. The estimate is a function of
//! `(instance, samples, seed)` alone; `monte_carlo_bits_are_pinned` in
//! the tests holds its bits on one instance against a golden file.
//!
//! A sample draws one acceptance per task, in task order, and writes the
//! world's weights: the task's `d_r · p_r` if it accepts, `0.0` if it
//! rejects. It is solved by [`MatchScratch::max_weight_value_ordered`]
//! over the weight order sorted once per call, which skips the zeros —
//! no `filter_left` subgraph, no sort and no allocation per sample.

use maps_matching::{sort_by_weight_desc, BipartiteGraph, MatchScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of Monte-Carlo samples per seeding block; each block owns an
/// independent RNG stream.
const MC_BLOCK: u32 = 64;

/// The RNG for one seeding block: every `(seed, block)` pair owns an
/// independent, reproducible stream.
fn block_rng(seed: u64, block: u32) -> SmallRng {
    // SplitMix-style mixing so nearby blocks decorrelate fully; the
    // vendored SmallRng expands this through SplitMix64 again.
    SmallRng::seed_from_u64(seed ^ (block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Monte-Carlo estimate of the expected total revenue
/// `E[U(B^t) | P^t]` for given per-task acceptance probabilities.
/// Same instance, `samples` and `seed` ⇒ same bits (see the module
/// docs).
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
    assert_eq!(weights.len(), graph.n_left(), "one weight per task");
    assert_eq!(
        accept_probs.len(),
        graph.n_left(),
        "one probability per task"
    );
    assert!(samples > 0, "need at least one sample");
    let mut order = Vec::new();
    sort_by_weight_desc(weights, &mut order);
    let mut world = vec![0.0; graph.n_left()];
    let mut matching = MatchScratch::new();
    let mut total = 0.0;
    for block in 0..samples.div_ceil(MC_BLOCK) {
        // A block's samples are summed on their own, in sample order,
        // and the block sums in block order.
        let mut rng = block_rng(seed, block);
        let mut acc = 0.0;
        for _ in 0..MC_BLOCK.min(samples - block * MC_BLOCK) {
            for ((w, &weight), &q) in world.iter_mut().zip(weights).zip(accept_probs) {
                *w = if rng.gen::<f64>() < q { weight } else { 0.0 };
            }
            acc += matching.max_weight_value_ordered(graph, &world, &order);
        }
        total += acc;
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_matching::{expected_total_revenue_exact, BipartiteGraphBuilder};
    use maps_testkit::{assert_golden, Labelled};

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
        let mc = monte_carlo_expected_revenue(&g, &weights, &probs, 40_000, 7);
        assert!((mc - exact).abs() < 0.05, "seeded MC {mc} vs exact {exact}");
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

    /// The estimate's bits on a 40 × 25 xorshift instance, at sample
    /// counts around the block size, against
    /// `tests/golden/monte_carlo_bits.txt`: a change to the seeding, the
    /// block split or the summation order moves them.
    #[test]
    fn monte_carlo_bits_are_pinned() {
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

        let runs = [(1u32, 3u64), (63, 5), (64, 7), (65, 11), (1000, 13)];
        let (labels, words) = runs
            .into_iter()
            .map(|(samples, seed)| {
                let got = monte_carlo_expected_revenue(&g, &weights, &probs, samples, seed);
                (format!("samples={samples}/seed={seed}"), got.to_bits())
            })
            .unzip();
        let lines = Labelled { words, labels }.lines();
        assert_golden(env!("CARGO_MANIFEST_DIR"), "monte_carlo_bits.txt", &lines);
    }

    #[test]
    fn seeded_is_reproducible_and_seed_sensitive() {
        let g = running_example();
        let weights = [3.9, 2.1, 2.0];
        let probs = [0.5, 0.5, 0.8];
        let a = monte_carlo_expected_revenue(&g, &weights, &probs, 500, 42);
        let b = monte_carlo_expected_revenue(&g, &weights, &probs, 500, 42);
        assert_eq!(a.to_bits(), b.to_bits());
        let c = monte_carlo_expected_revenue(&g, &weights, &probs, 500, 43);
        assert_ne!(a.to_bits(), c.to_bits(), "different seeds must differ");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_zero_samples() {
        let g = running_example();
        let _ = monte_carlo_expected_revenue(&g, &[1.0; 3], &[0.5; 3], 0, 1);
    }
}
