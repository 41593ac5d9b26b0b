//! Reusable zero-allocation matching workspace, and the one clearing
//! kernel: exact maximum-weight matching for left-sided weights.
//!
//! # Why greedy is exact
//!
//! In the paper every edge incident to task `r` carries the same weight
//! `d_r · p_r` (Definition 5: "The weight of an edge (r, w) is d_r × p_r").
//! The family of task subsets that can be simultaneously matched is the
//! independence system of a **transversal matroid**, and maximizing a
//! non-negative modular function over a matroid is solved exactly by the
//! greedy algorithm: visit tasks in decreasing weight order and keep each
//! task iff the matching can still be augmented. Complexity is
//! `O(R log R + R · E)` worst case but near-linear on the sparse
//! per-period graphs the simulator builds, which is what makes the
//! paper's 500k × 500k scalability experiment (Fig. 8, column 2)
//! feasible. The tests check it against the `#[cfg(test)]`
//! Kuhn–Munkres reference.
//!
//! # A rejected task is a zero weight
//!
//! Only strictly positive weights take part: a task of weight `≤ 0`
//! cannot raise the total, so the kernel skips it. A world of
//! Definition 6 keeps only the accepting requesters, and a requester
//! who rejects contributes exactly zero — so a caller solves a world by
//! writing `0.0` for each rejected task, never by building
//! [`BipartiteGraph::filter_left`]'s subgraph. The bits are those of the
//! filtered solve: the greedy runs under the total order
//! `(weight desc, index)`, and the accepting tasks keep their relative
//! order whether the rejected ones are dropped from that order or skipped
//! inside it, so the augmentation attempts, the matched pairs and the
//! order of the additions to the total are the same.
//!
//! # Zero allocation
//!
//! The evaluation hot paths — Monte-Carlo revenue estimation,
//! per-period market clearing — solve thousands to millions of
//! matchings over graphs of identical (or shrinking) size. Allocating
//! fresh match/visited/order buffers per solve dominates the runtime at
//! small `n`. [`MatchScratch`] owns all of those buffers: after the
//! first solve at a given size, subsequent solves perform **no heap
//! allocation at all** (buffers only ever grow; `sort_unstable_by` is
//! in-place). [`MatchScratch::max_weight_value`] sorts, then solves;
//! [`MatchScratch::max_weight_value_ordered`] solves over a
//! caller-provided order, which removes the per-solve `O(R log R)` sort
//! when the order is fixed and only the zeros move (Monte-Carlo).

use crate::graph::BipartiteGraph;
use crate::Matching;

/// Sentinel for "unmatched" in the packed match arrays.
const NONE: u32 = u32::MAX;

/// Reusable buffers for Kuhn-style augmenting-path matching.
///
/// See the [module docs](self) for the zero-allocation contract.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// `match_left[l]` = matched right vertex or [`NONE`].
    match_left: Vec<u32>,
    /// `match_right[r]` = matched left vertex or [`NONE`].
    match_right: Vec<u32>,
    /// Epoch stamps replacing a cleared-per-attempt `visited` array.
    visited_right: Vec<u32>,
    epoch: u32,
    /// Internal ordering buffer for the unordered entry points.
    order: Vec<u32>,
}

impl MatchScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the buffers for a solve over an `n_left × n_right`
    /// graph: sizes them and clears the active match region, without
    /// shrinking any allocation. Kernels call this themselves;
    /// [`crate::IncrementalMatching`] calls it when seating on a graph.
    pub fn reset(&mut self, n_left: usize, n_right: usize) {
        self.match_left.clear();
        self.match_left.resize(n_left, NONE);
        self.match_right.clear();
        self.match_right.resize(n_right, NONE);
        // `visited_right` keeps its epoch stamps across solves: stale
        // stamps are always strictly below the next epoch (wrap-around
        // is handled in `bump_epoch`).
        if self.visited_right.len() < n_right {
            self.visited_right.resize(n_right, 0);
        }
    }

    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.visited_right.fill(0);
            1
        });
        self.epoch
    }

    /// Kuhn's DFS from left vertex `l`, in the classic two-pass form:
    /// scan `l`'s neighbourhood for a directly free worker before
    /// recursing through occupants. The first pass resolves the common
    /// case without touching the rest of the alternating tree, which
    /// is a large constant-factor win on the sparse, mostly-unsaturated
    /// graphs the evaluation loops solve.
    ///
    /// When `apply` is false the assignments are not written;
    /// reachability is identical because writes only happen on the
    /// success path.
    fn dfs(&mut self, graph: &BipartiteGraph, l: usize, apply: bool) -> bool {
        for &r in graph.neighbors(l) {
            let r = r as usize;
            if self.match_right[r] == NONE && self.visited_right[r] != self.epoch {
                self.visited_right[r] = self.epoch;
                if apply {
                    self.match_right[r] = l as u32;
                    self.match_left[l] = r as u32;
                }
                return true;
            }
        }
        for &r in graph.neighbors(l) {
            let r = r as usize;
            if self.visited_right[r] == self.epoch {
                continue;
            }
            self.visited_right[r] = self.epoch;
            let occupant = self.match_right[r];
            if self.dfs(graph, occupant as usize, apply) {
                if apply {
                    self.match_right[r] = l as u32;
                    self.match_left[l] = r as u32;
                }
                return true;
            }
        }
        false
    }

    /// Tries to match the currently-unmatched left vertex `l`.
    ///
    /// Exposed for [`crate::IncrementalMatching`], which wraps this
    /// scratch; prefer the `max_weight_*` kernels for whole solves.
    ///
    /// # Panics
    /// Panics if `l` is already matched.
    pub(crate) fn try_augment(&mut self, graph: &BipartiteGraph, l: usize) -> bool {
        assert!(
            self.match_left[l] == NONE,
            "augmenting from already-matched left vertex {l}"
        );
        self.bump_epoch();
        self.dfs(graph, l, true)
    }

    /// Side-effect-free variant of [`Self::try_augment`].
    pub(crate) fn can_augment(&mut self, graph: &BipartiteGraph, l: usize) -> bool {
        if self.match_left[l] != NONE {
            return false;
        }
        self.bump_epoch();
        self.dfs(graph, l, false)
    }

    /// Current assignment of left vertex `l` (valid after a solve).
    #[inline]
    pub fn matched_right(&self, l: usize) -> Option<u32> {
        match self.match_left[l] {
            NONE => None,
            r => Some(r),
        }
    }

    /// Current assignment of right vertex `r` (valid after a solve).
    #[inline]
    pub fn matched_left(&self, r: usize) -> Option<u32> {
        match self.match_right[r] {
            NONE => None,
            l => Some(l),
        }
    }

    /// Number of matched pairs of the last solve.
    pub fn cardinality(&self) -> usize {
        self.match_left.iter().filter(|&&r| r != NONE).count()
    }

    /// Iterates the matched `(left, right)` pairs of the last solve.
    pub fn matched_pairs(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.match_left
            .iter()
            .enumerate()
            .filter(|(_, &r)| r != NONE)
            .map(|(l, &r)| (l, r))
    }

    /// Copies the last solve's assignment into a standalone
    /// [`Matching`] (this is the one allocating accessor).
    pub fn to_matching(&self) -> Matching {
        Matching {
            pairs: self
                .match_left
                .iter()
                .map(|&r| if r == NONE { None } else { Some(r) })
                .collect(),
        }
    }

    /// Maximum-weight matching value under left-sided `weights`
    /// (exact; see the [module docs](self)). Sorting happens
    /// internally; reuse [`Self::max_weight_value_ordered`] with a
    /// prebuilt order to skip it.
    ///
    /// # Panics
    /// Panics if `weights.len() != graph.n_left()` or any weight is
    /// NaN.
    pub fn max_weight_value(&mut self, graph: &BipartiteGraph, weights: &[f64]) -> f64 {
        let mut order = std::mem::take(&mut self.order);
        sort_by_weight_desc(weights, &mut order);
        let total = self.max_weight_value_ordered(graph, weights, &order);
        self.order = order;
        total
    }

    /// The fully amortized hot-path kernel: maximum-weight matching
    /// value over a caller-provided `order` of left indices, sorted by
    /// weight descending with ties by index ([`sort_by_weight_desc`] of
    /// these weights, or of weights they only zero out). A vertex whose
    /// weight is `≤ 0` is skipped.
    ///
    /// With a prebuilt order this performs no sorting and no heap
    /// allocation (after buffer warm-up).
    pub fn max_weight_value_ordered(
        &mut self,
        graph: &BipartiteGraph,
        weights: &[f64],
        order: &[u32],
    ) -> f64 {
        assert_eq!(
            weights.len(),
            graph.n_left(),
            "one weight per left vertex required"
        );
        self.reset(graph.n_left(), graph.n_right());
        let mut total = 0.0;
        for &l in order {
            let l = l as usize;
            if weights[l] <= 0.0 {
                continue;
            }
            self.bump_epoch();
            if self.dfs(graph, l, true) {
                total += weights[l];
            }
        }
        total
    }
}

/// Fills `out` with the indices of strictly positive weights, sorted
/// by weight descending with ties broken by index — the processing
/// order that makes greedy matroid matching exact and deterministic.
///
/// # Panics
/// Panics if any weight is NaN.
pub fn sort_by_weight_desc(weights: &[f64], out: &mut Vec<u32>) {
    out.clear();
    for (l, &w) in weights.iter().enumerate() {
        assert!(!w.is_nan(), "weight for left vertex {l} is NaN");
        if w > 0.0 {
            out.push(l as u32);
        }
    }
    out.sort_unstable_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BipartiteGraphBuilder;
    use crate::hungarian::max_weight_matching_dense;
    use crate::IncrementalMatching;
    use maps_testkit::{explore, XorShift};

    /// One solve on a fresh scratch: the matching and its value.
    fn solve(graph: &BipartiteGraph, weights: &[f64]) -> (Matching, f64) {
        let mut scratch = MatchScratch::new();
        let total = scratch.max_weight_value(graph, weights);
        (scratch.to_matching(), total)
    }

    /// A world: 1–12 vertices a side, each edge present with probability
    /// 1/3, weights in `{0, 0.5, …, 2.5}` (ties and zeros are common),
    /// and who accepts.
    type World = (BipartiteGraph, Vec<f64>, Vec<bool>);

    fn arb_world(seed: u64) -> World {
        let mut rng = XorShift::seeded(seed);
        let (n_left, n_right) = (1 + rng.below(12) as usize, 1 + rng.below(12) as usize);
        let mut b = BipartiteGraphBuilder::new(n_left, n_right);
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.below(3) == 0 {
                    b.add_edge(l, r);
                }
            }
        }
        let weights = (0..n_left).map(|_| rng.below(6) as f64 * 0.5).collect();
        let keep = (0..n_left).map(|_| rng.below(2) == 0).collect();
        (b.build(), weights, keep)
    }

    /// The world on the first half of its left side; `None` at one vertex.
    fn halve_world((graph, weights, keep): &World) -> Option<World> {
        let n = graph.n_left();
        let first: Vec<bool> = (0..n).map(|l| l < n / 2).collect();
        (n > 1).then(|| {
            let half = n / 2;
            let sub = graph.filter_left(&first).0;
            (sub, weights[..half].to_vec(), keep[..half].to_vec())
        })
    }

    #[test]
    fn empty() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        let (m, w) = solve(&g, &[]);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn skips_non_positive_weights() {
        let g = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 0), (1, 1)])
            .build();
        let (m, w) = solve(&g, &[0.0, 5.0]);
        assert_eq!(m.pairs, vec![None, Some(1)]);
        assert!((w - 5.0).abs() < 1e-12);
    }

    #[test]
    fn displaces_lighter_tasks() {
        // One worker, heavier task arrives "later" in index order.
        let g = BipartiteGraphBuilder::new(2, 1)
            .with_edges([(0, 0), (1, 0)])
            .build();
        let (m, w) = solve(&g, &[1.0, 9.0]);
        assert_eq!(m.pairs, vec![None, Some(0)]);
        assert!((w - 9.0).abs() < 1e-12);
    }

    #[test]
    fn augments_rather_than_displaces() {
        // Both tasks can be served by routing the first through another
        // worker; greedy must find total 3, not 2.
        let g = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 0), (0, 1), (1, 0)])
            .build();
        let (m, w) = solve(&g, &[1.0, 2.0]);
        assert!((w - 3.0).abs() < 1e-12);
        assert!(m.is_valid(&g));
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn running_example_revenue() {
        // All three requesters accept prices (3,3,2): optimum 5.9 (Fig. 2,
        // first possible world).
        let g = BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build();
        let (m, w) = solve(&g, &[3.9, 2.1, 2.0]);
        assert!((w - 5.9).abs() < 1e-9);
        assert!(m.is_valid(&g));
    }

    #[test]
    fn matches_hungarian_on_pseudorandom_graphs() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let n_left = 1 + (next() % 10) as usize;
            let n_right = 1 + (next() % 10) as usize;
            let mut b = BipartiteGraphBuilder::new(n_left, n_right);
            for l in 0..n_left {
                for r in 0..n_right {
                    if next() % 3 == 0 {
                        b.add_edge(l, r);
                    }
                }
            }
            let g = b.build();
            let weights: Vec<f64> = (0..n_left)
                .map(|_| (next() % 1000) as f64 / 100.0)
                .collect();
            let (mg, wg) = solve(&g, &weights);
            let (_, wh) = max_weight_matching_dense(n_left, n_right, |l, r| {
                g.has_edge(l, r).then_some(weights[l])
            });
            assert!(mg.is_valid(&g), "trial {trial}");
            assert!(
                (wg - wh).abs() < 1e-9,
                "trial {trial}: greedy {wg} vs hungarian {wh}"
            );
        }
    }

    /// Writing `0.0` for a rejected task solves the world `filter_left`
    /// materializes, bit for bit: the same total and the same pairs
    /// (under the original indices) — through the sorting kernel, and
    /// through the ordered kernel over the order of the unzeroed
    /// weights, as the Monte-Carlo estimator holds it.
    #[test]
    fn zero_weights_match_filter_left() {
        explore(0..200, arb_world, halve_world, |(graph, weights, keep)| {
            let (sub, old_of_new) = graph.filter_left(keep);
            let sub_weights: Vec<f64> = old_of_new.iter().map(|&l| weights[l as usize]).collect();
            let (filtered, want) = solve(&sub, &sub_weights);
            let want_pairs: Vec<(usize, u32)> = (filtered.pairs.iter().enumerate())
                .filter_map(|(new, r)| Some((old_of_new[new] as usize, (*r)?)))
                .collect();
            let zeroed: Vec<f64> = (weights.iter().zip(keep))
                .map(|(&w, &k)| if k { w } else { 0.0 })
                .collect();
            let mut order = Vec::new();
            sort_by_weight_desc(weights, &mut order);
            let mut scratch = MatchScratch::new();
            let check = |total: f64, scratch: &MatchScratch| {
                assert_eq!(total.to_bits(), want.to_bits(), "{total} vs {want}");
                assert_eq!(scratch.matched_pairs().collect::<Vec<_>>(), want_pairs);
            };
            check(scratch.max_weight_value(graph, &zeroed), &scratch);
            check(
                scratch.max_weight_value_ordered(graph, &zeroed, &order),
                &scratch,
            );
        });
    }

    /// `graph` with every row of degree above `k` cut to a seeded
    /// `k`-subset of itself.
    fn cap_rows(graph: &BipartiteGraph, k: usize, rng: &mut XorShift) -> BipartiteGraph {
        let mut b = BipartiteGraphBuilder::new(graph.n_left(), graph.n_right());
        for l in 0..graph.n_left() {
            let mut row = graph.neighbors(l).to_vec();
            // A partial Fisher–Yates shuffle: the first `k` are the subset.
            for i in 0..row.len().min(k) {
                let j = i + rng.below((row.len() - i) as u64) as usize;
                row.swap(i, j);
            }
            row.truncate(k);
            for r in row {
                b.add_edge(l, r as usize);
            }
        }
        b.build()
    }

    /// The edge-cap lemma: when every row the cap cuts keeps at least
    /// |R| workers (here `k` from `n_left..=n_left + 2`), the capped
    /// graph has the full graph's transversal matroid. So both kernels
    /// return bit-equal totals and the same matched tasks — *which*
    /// worker serves a task may differ — and adding the tasks one at a
    /// time, in any order, succeeds at the same steps.
    #[test]
    fn a_cap_of_at_least_the_task_count_changes_no_answer() {
        let cut = std::cell::Cell::new(0);
        let draw = |seed| (arb_world(seed), seed);
        let halve = |(world, seed): &(World, u64)| Some((halve_world(world)?, *seed));
        explore(0..1000, draw, halve, |((graph, weights, _), seed)| {
            let mut rng = XorShift::seeded(!seed);
            let k = graph.n_left() + rng.below(3) as usize;
            let capped = cap_rows(graph, k, &mut rng);
            cut.set(cut.get() + usize::from(capped.n_edges() < graph.n_edges()));
            let mut order = Vec::new();
            sort_by_weight_desc(weights, &mut order);
            let solve = |g: &BipartiteGraph, ordered: bool| {
                let mut scratch = MatchScratch::new();
                let total = match ordered {
                    true => scratch.max_weight_value_ordered(g, weights, &order),
                    false => scratch.max_weight_value(g, weights),
                };
                let tasks: Vec<usize> = scratch.matched_pairs().map(|(l, _)| l).collect();
                (total.to_bits(), tasks)
            };
            for ordered in [false, true] {
                assert_eq!(solve(graph, ordered), solve(&capped, ordered), "k = {k}");
            }
            let mut tasks: Vec<usize> = (0..graph.n_left()).collect();
            for i in (1..tasks.len()).rev() {
                tasks.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let (mut full, mut kept) = (
                IncrementalMatching::new(graph),
                IncrementalMatching::new(&capped),
            );
            for l in tasks {
                assert_eq!(
                    full.try_augment(l),
                    kept.try_augment(l),
                    "task {l}, k = {k}"
                );
            }
        });
        assert!(
            cut.get() >= 100,
            "the cap cut a row in {} of 1000 graphs",
            cut.get()
        );
    }

    /// The bound is not vacuous: with two tasks, a cap of one worker a
    /// row (below |R| = 2) loses a task the full graph serves.
    #[test]
    fn a_cap_below_the_task_count_can_lower_the_total() {
        // Task 0 reaches workers 0 and 1, task 1 only worker 0; the cap
        // keeps worker 0 on task 0's row.
        let full = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 0), (0, 1), (1, 0)])
            .build();
        let capped = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 0), (1, 0)])
            .build();
        assert_eq!(solve(&full, &[2.0, 1.0]).1, 3.0);
        assert_eq!(solve(&capped, &[2.0, 1.0]).1, 2.0);
    }

    #[test]
    fn ordered_kernel_reuses_external_order() {
        let (g, w, _) = arb_world(1234);
        let mut order = Vec::new();
        sort_by_weight_desc(&w, &mut order);
        let mut scratch = MatchScratch::new();
        let a = scratch.max_weight_value_ordered(&g, &w, &order);
        let b = scratch.max_weight_value(&g, &w);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        let mut scratch = MatchScratch::new();
        // Big then small then big again: stale state must never leak.
        for &seed in &[7u64, 8, 9, 7, 8, 9] {
            let (g, w, _) = arb_world(seed);
            let (fresh, expected) = solve(&g, &w);
            assert_eq!(scratch.max_weight_value(&g, &w), expected);
            assert_eq!(scratch.to_matching(), fresh);
        }
    }

    #[test]
    fn sort_by_weight_desc_contract() {
        let mut out = vec![99; 4];
        sort_by_weight_desc(&[1.0, 0.0, 3.0, 1.0, -2.0], &mut out);
        assert_eq!(out, vec![2, 0, 3]); // positives only; ties by index
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        let mut scratch = MatchScratch::new();
        assert_eq!(scratch.max_weight_value(&g, &[]), 0.0);
        assert_eq!(scratch.cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn rejects_nan_weights() {
        let g = BipartiteGraphBuilder::new(1, 1)
            .with_edges([(0, 0)])
            .build();
        let mut scratch = MatchScratch::new();
        let _ = scratch.max_weight_value(&g, &[f64::NAN]);
    }
}
