//! Kuhn–Munkres (Hungarian) maximum-weight bipartite matching — the one
//! reference of this crate's matching kernels, compiled only where its
//! tests run.
//!
//! The paper's `U(B^t)` (Definition 5) is the weight of a maximum-weight
//! matching of the instantiated graph of accepting tasks. The shipping
//! left-weight kernel ([`crate::MatchScratch::max_weight_value`]) is
//! checked against this dense `O(n³)` solver with weight `d_r · p_r` on
//! every edge of task `r`; at unit weights its value is the maximum
//! cardinality, which is what Kuhn's augmenting paths
//! ([`crate::IncrementalMatching`]) are checked against. No shipping path
//! calls it: the paper's edge weights never depend on the worker.
//!
//! Implementation: Jonker–Volgenant-style shortest augmenting paths with
//! dual potentials on a padded square cost matrix.

use crate::Matching;

/// Computes a maximum-weight matching between `n_left` and `n_right`
/// vertices. `weight(l, r)` returns `Some(w)` (with `w >= 0`) when the edge
/// exists and `None` otherwise. Vertices may stay unmatched; absent edges
/// are never reported in the result.
///
/// Returns the matching and its total weight.
///
/// # Panics
/// Panics if any provided weight is negative or non-finite (revenue
/// weights `d_r · p_r` are non-negative by construction).
pub(crate) fn max_weight_matching_dense(
    n_left: usize,
    n_right: usize,
    weight: impl Fn(usize, usize) -> Option<f64>,
) -> (Matching, f64) {
    if n_left == 0 || n_right == 0 {
        return (Matching::empty(n_left), 0.0);
    }
    // Pad to a square: the JV routine below assigns every row, so absent
    // edges and padding columns get cost 0 (≡ leaving the task unmatched).
    let m = n_left.max(n_right);
    let cost = |l: usize, r: usize| -> f64 {
        if l < n_left && r < n_right {
            match weight(l, r) {
                Some(w) => {
                    assert!(
                        w.is_finite() && w >= 0.0,
                        "edge weights must be finite and non-negative, got {w}"
                    );
                    -w
                }
                None => 0.0,
            }
        } else {
            0.0
        }
    };

    // 1-based arrays per the classic formulation.
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n_left + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j] = row assigned to column j (0 = none)
    let mut way = vec![0usize; m + 1];

    for i in 1..=n_left {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut pairs = vec![None; n_left];
    let mut total = 0.0;
    #[expect(clippy::needless_range_loop, reason = "1-based classic formulation")]
    for j in 1..=m {
        let i = p[j];
        if i == 0 {
            continue;
        }
        let (l, r) = (i - 1, j - 1);
        if r < n_right {
            if let Some(w) = weight(l, r) {
                pairs[l] = Some(r as u32);
                total += w;
            }
        }
    }
    (Matching { pairs }, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BipartiteGraph, BipartiteGraphBuilder};
    use crate::{IncrementalMatching, MatchScratch};
    use maps_testkit::{explore, XorShift};

    fn dense(weights: &[&[Option<f64>]]) -> (Matching, f64) {
        let n_left = weights.len();
        let n_right = weights.first().map_or(0, |row| row.len());
        max_weight_matching_dense(n_left, n_right, |l, r| weights[l][r])
    }

    #[test]
    fn empty_instances() {
        let (m, w) = max_weight_matching_dense(0, 5, |_, _| None);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(w, 0.0);
        let (m, w) = max_weight_matching_dense(4, 0, |_, _| None);
        assert_eq!(m.pairs.len(), 4);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn single_edge() {
        let (m, w) = dense(&[&[Some(2.5)]]);
        assert_eq!(m.pairs, vec![Some(0)]);
        assert!((w - 2.5).abs() < 1e-12);
    }

    #[test]
    fn prefers_heavier_assignment_over_greedy() {
        // Greedy row-by-row would pick (0,0)=3 then (1,1)=1 = 4;
        // optimum is (0,1)=2 + (1,0)=3 = 5.
        let (_, w) = dense(&[&[Some(3.0), Some(2.0)], &[Some(3.0), Some(1.0)]]);
        assert!((w - 5.0).abs() < 1e-12);
    }

    #[test]
    fn leaves_vertices_unmatched_when_profitable() {
        // Only one worker; the heavier task must win.
        let (m, w) = dense(&[&[Some(1.0)], &[Some(4.0)]]);
        assert_eq!(m.pairs, vec![None, Some(0)]);
        assert!((w - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rectangular_more_workers() {
        let (m, w) = dense(&[&[Some(1.0), Some(5.0), None]]);
        assert_eq!(m.pairs, vec![Some(1)]);
        assert!((w - 5.0).abs() < 1e-12);
    }

    #[test]
    fn absent_edges_are_respected() {
        let (m, w) = dense(&[&[None, Some(1.0)], &[None, Some(2.0)]]);
        // Both tasks only reach worker 1; heavier task wins.
        assert_eq!(m.pairs, vec![None, Some(1)]);
        assert!((w - 2.0).abs() < 1e-12);
        let g = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 1), (1, 1)])
            .build();
        assert!(m.is_valid(&g));
    }

    #[test]
    fn running_example_world_all_accept() {
        // Prices (3,3,2); distances (1.3, 0.7, 1.0) → weights (3.9, 2.1, 2.0).
        // Edges: r1-{w1}, r2-{w1}, r3-{w1,w2,w3}. Optimal: r1·w1 + r3·w2 = 5.9.
        let wts = [3.9, 2.1, 2.0];
        let edges = [(0usize, 0usize), (1, 0), (2, 0), (2, 1), (2, 2)];
        let (m, w) =
            max_weight_matching_dense(3, 3, |l, r| edges.contains(&(l, r)).then_some(wts[l]));
        assert!((w - 5.9).abs() < 1e-9);
        assert_eq!(m.pairs[0], Some(0));
        assert_eq!(m.pairs[1], None);
        assert!(m.pairs[2].is_some());
    }

    #[test]
    fn zero_weight_edges_do_not_break_optimality() {
        let (_, w) = dense(&[&[Some(0.0), Some(1.0)], &[Some(0.0), Some(2.0)]]);
        assert!((w - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        let _ = dense(&[&[Some(-1.0)]]);
    }

    #[test]
    fn worker_dependent_weights() {
        // General weights (not left-only): 3x3 with a unique optimum
        // requiring the full Hungarian machinery.
        let w = [
            [Some(7.0), Some(4.0), Some(3.0)],
            [Some(6.0), Some(8.0), Some(5.0)],
            [Some(9.0), Some(4.0), Some(4.0)],
        ];
        let (m, total) = max_weight_matching_dense(3, 3, |l, r| w[l][r]);
        // Columns for rows (0,1,2): [0,1,2]=7+8+4=19, [0,2,1]=7+5+4=16,
        // [1,0,2]=4+6+4=14, [1,2,0]=4+5+9=18, [2,0,1]=3+6+4=13,
        // [2,1,0]=3+8+9=20. Max = 20.
        assert!((total - 20.0).abs() < 1e-12, "got {total}");
        assert_eq!(m.pairs, vec![Some(2), Some(1), Some(0)]);
    }

    /// Maximum cardinality two ways, which must agree: Hungarian at unit
    /// weights (the reference) and Kuhn — one augmentation attempt per
    /// left vertex of an [`IncrementalMatching`] started empty (the
    /// shipping primitive). Returns `(reference, kuhn)`, after checking
    /// both matchings against `g`.
    fn cardinalities(g: &BipartiteGraph) -> (usize, usize) {
        let unit = |l: usize, r: usize| g.has_edge(l, r).then_some(1.0);
        let (reference, weight) = max_weight_matching_dense(g.n_left(), g.n_right(), unit);
        assert!(reference.is_valid(g));
        assert_eq!(weight, reference.cardinality() as f64);
        let mut kuhn = IncrementalMatching::new(g);
        let augmented = (0..g.n_left()).filter(|&l| kuhn.try_augment(l)).count();
        assert!(kuhn.to_matching().is_valid(g));
        assert_eq!(kuhn.cardinality(), augmented);
        (reference.cardinality(), augmented)
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        assert_eq!(cardinalities(&g), (0, 0));
        let g = BipartiteGraphBuilder::new(3, 2).build();
        assert_eq!(cardinalities(&g), (0, 0));
    }

    #[test]
    fn perfect_matching_on_cycle() {
        // C6 as bipartite: l_i - r_i and l_i - r_{i+1 mod 3}.
        let g = BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
            .build();
        assert_eq!(cardinalities(&g), (3, 3));
    }

    #[test]
    fn running_example_max_two() {
        // Paper, Example 1: "at most two tasks can be served".
        let g = BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build();
        assert_eq!(cardinalities(&g), (2, 2));
    }

    #[test]
    fn needs_augmenting_through_alternating_path() {
        // Crown graph where greedy first-fit would get stuck at 2.
        let g = BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
            .build();
        assert_eq!(cardinalities(&g), (3, 3));
    }

    #[test]
    fn agrees_with_kuhn_on_pseudorandom_graphs() {
        let mut rng = XorShift(0x2545F4914F6CDD1D);
        for trial in 0..30 {
            let n_left = 1 + rng.below(12) as usize;
            let n_right = 1 + rng.below(12) as usize;
            let mut b = BipartiteGraphBuilder::new(n_left, n_right);
            for l in 0..n_left {
                for r in 0..n_right {
                    if rng.below(4) == 0 {
                        b.add_edge(l, r);
                    }
                }
            }
            let (reference, kuhn) = cardinalities(&b.build());
            assert_eq!(reference, kuhn, "trial {trial}");
        }
    }

    /// A random bipartite graph of 1–9 vertices a side, each edge
    /// present with probability 0.3.
    fn arb_graph(rng: &mut XorShift) -> BipartiteGraph {
        let (n_left, n_right) = (1 + rng.below(9) as usize, 1 + rng.below(9) as usize);
        let mut b = BipartiteGraphBuilder::new(n_left, n_right);
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.next_f64() < 0.3 {
                    b.add_edge(l, r);
                }
            }
        }
        b.build()
    }

    /// `graph` on the first half of its left side; `None` at one vertex.
    fn halve_left(graph: &BipartiteGraph) -> Option<BipartiteGraph> {
        let n = graph.n_left();
        let keep: Vec<bool> = (0..n).map(|l| l < n / 2).collect();
        (n > 1).then(|| graph.filter_left(&keep).0)
    }

    /// Greedy transversal-matroid matching is exactly optimal: it
    /// matches the Hungarian reference's weight on every random
    /// instance.
    #[test]
    fn greedy_matches_hungarian() {
        let draw = |seed| {
            let mut rng = XorShift::seeded(seed);
            (arb_graph(&mut rng), rng.below(1000))
        };
        let halve = |(graph, seed): &(BipartiteGraph, u64)| Some((halve_left(graph)?, *seed));
        explore(0..64, draw, halve, |(graph, seed)| {
            let mut rng = XorShift::seeded(*seed);
            let weights: Vec<f64> = (0..graph.n_left())
                .map(|_| rng.below(1000) as f64 / 100.0)
                .collect();
            let mut scratch = MatchScratch::new();
            let wg = scratch.max_weight_value(graph, &weights);
            assert!(scratch.to_matching().is_valid(graph));
            let (_, wh) = max_weight_matching_dense(graph.n_left(), graph.n_right(), |l, r| {
                graph.has_edge(l, r).then_some(weights[l])
            });
            assert!((wg - wh).abs() < 1e-9, "greedy {wg} vs hungarian {wh}");
        });
    }

    /// Repeated Kuhn augmentation reaches the maximum cardinality:
    /// the Hungarian reference's value at unit weights.
    #[test]
    fn kuhn_reaches_hungarian_cardinality() {
        let draw = |seed| arb_graph(&mut XorShift::seeded(seed));
        explore(0..64, draw, halve_left, |graph| {
            let (reference, kuhn) = cardinalities(graph);
            assert_eq!(reference, kuhn);
        });
    }
}
