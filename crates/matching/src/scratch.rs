//! Reusable zero-allocation matching workspace.
//!
//! The evaluation hot paths — Monte-Carlo revenue estimation,
//! per-period market clearing — solve thousands to
//! millions of maximum-weight matchings over graphs of identical (or
//! shrinking) size. Allocating fresh match/visited/order buffers per
//! solve dominates the runtime at small `n`. [`MatchScratch`] owns all
//! of those buffers: after the first solve at a given size, subsequent
//! solves perform **no heap allocation at all** (buffers only ever
//! grow; `sort_unstable_by` is in-place).
//!
//! Two kernel families are provided:
//!
//! * [`MatchScratch::max_weight_value`] — greedy transversal-matroid
//!   maximum-weight matching over a whole [`BipartiteGraph`] (exact for
//!   the paper's left-sided weights, see `greedy_weight`).
//! * [`MatchScratch::max_weight_value_masked`] /
//!   [`MatchScratch::max_weight_value_ordered`] — the same matching
//!   restricted to the left vertices selected by a `keep` mask,
//!   *without* materializing the filtered subgraph the way
//!   [`BipartiteGraph::filter_left`] does. The `_ordered` variant
//!   additionally reuses a caller-provided weight-sorted order, which
//!   removes the per-solve `O(R log R)` sort when the weights are
//!   fixed and only the mask changes (Monte-Carlo).
//!
//! A masked solve never needs to consult the mask during augmentation:
//! only kept vertices are used as augmentation sources, and every
//! matched occupant reached mid-search was itself a kept source, so
//! the search stays inside the kept subgraph by construction.

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

    /// A scratch pre-sized for graphs up to `n_left × n_right`.
    pub fn with_capacity(n_left: usize, n_right: usize) -> Self {
        let mut s = Self::default();
        s.match_left.reserve(n_left);
        s.match_right.reserve(n_right);
        s.visited_right.reserve(n_right);
        s.order.reserve(n_left);
        s
    }

    /// Clears the matching and prepares the buffers for a graph of the
    /// given size without shrinking any allocation. Kernels call this
    /// themselves; [`crate::IncrementalMatching`] calls it when
    /// re-seating on a new graph.
    pub fn reset(&mut self, n_left: usize, n_right: usize) {
        self.begin(n_left, n_right);
    }

    /// Prepares the buffers for a solve over an `n_left × n_right`
    /// graph: sizes them and clears the active match region.
    fn begin(&mut self, n_left: usize, n_right: usize) {
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

    /// Maximum-weight matching value of the whole graph under
    /// left-sided `weights` (exact; see `greedy_weight` for why greedy
    /// is optimal here). Sorting happens internally; reuse
    /// [`Self::max_weight_value_ordered`] with a prebuilt order to
    /// skip it.
    ///
    /// # Panics
    /// Panics if `weights.len() != graph.n_left()` or any weight is
    /// NaN.
    pub fn max_weight_value(&mut self, graph: &BipartiteGraph, weights: &[f64]) -> f64 {
        let mut order = std::mem::take(&mut self.order);
        sort_by_weight_desc(weights, &mut order);
        let total = self.max_weight_value_ordered(graph, weights, &order, None);
        self.order = order;
        total
    }

    /// Masked variant of [`Self::max_weight_value`]: only left
    /// vertices with `keep[l] == true` participate. Equivalent to
    /// matching over `graph.filter_left(keep)` but with no subgraph
    /// materialization.
    pub fn max_weight_value_masked(
        &mut self,
        graph: &BipartiteGraph,
        weights: &[f64],
        keep: &[bool],
    ) -> f64 {
        assert_eq!(keep.len(), graph.n_left(), "mask length mismatch");
        let mut order = std::mem::take(&mut self.order);
        sort_by_weight_desc(weights, &mut order);
        let total = self.max_weight_value_ordered(graph, weights, &order, Some(keep));
        self.order = order;
        total
    }

    /// The fully amortized hot-path kernel: maximum-weight matching
    /// value using a caller-provided `order` (left indices sorted by
    /// strictly positive weight, descending, ties by index — see
    /// [`sort_by_weight_desc`]) and an optional participation mask.
    ///
    /// With a prebuilt order this performs no sorting and no heap
    /// allocation (after buffer warm-up).
    pub fn max_weight_value_ordered(
        &mut self,
        graph: &BipartiteGraph,
        weights: &[f64],
        order: &[u32],
        keep: Option<&[bool]>,
    ) -> f64 {
        assert_eq!(
            weights.len(),
            graph.n_left(),
            "one weight per left vertex required"
        );
        self.begin(graph.n_left(), graph.n_right());
        let mut total = 0.0;
        match keep {
            None => {
                for &l in order {
                    self.bump_epoch();
                    if self.dfs(graph, l as usize, true) {
                        total += weights[l as usize];
                    }
                }
            }
            Some(keep) => {
                assert_eq!(keep.len(), graph.n_left(), "mask length mismatch");
                for &l in order {
                    if !keep[l as usize] {
                        continue;
                    }
                    self.bump_epoch();
                    if self.dfs(graph, l as usize, true) {
                        total += weights[l as usize];
                    }
                }
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
    use crate::greedy_weight::max_weight_matching_left_weights;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_instance(seed: u64) -> (BipartiteGraph, Vec<f64>, Vec<bool>) {
        let mut s = seed | 1;
        let n_left = 1 + (xorshift(&mut s) % 12) as usize;
        let n_right = 1 + (xorshift(&mut s) % 12) as usize;
        let mut b = BipartiteGraphBuilder::new(n_left, n_right);
        for l in 0..n_left {
            for r in 0..n_right {
                if xorshift(&mut s).is_multiple_of(3) {
                    b.add_edge(l, r);
                }
            }
        }
        let weights: Vec<f64> = (0..n_left)
            .map(|_| (xorshift(&mut s) % 1000) as f64 / 100.0)
            .collect();
        let keep: Vec<bool> = (0..n_left)
            .map(|_| xorshift(&mut s).is_multiple_of(2))
            .collect();
        (b.build(), weights, keep)
    }

    #[test]
    fn whole_graph_matches_greedy_reference() {
        let mut scratch = MatchScratch::new();
        for seed in 0..60 {
            let (g, w, _) = random_instance(seed);
            let (reference, ref_total) = max_weight_matching_left_weights(&g, &w);
            let total = scratch.max_weight_value(&g, &w);
            assert!(
                (total - ref_total).abs() < 1e-12,
                "seed {seed}: scratch {total} vs reference {ref_total}"
            );
            let m = scratch.to_matching();
            assert!(m.is_valid(&g), "seed {seed}");
            assert_eq!(m, reference, "seed {seed}: identical tie-breaking");
        }
    }

    #[test]
    fn masked_matches_filter_left() {
        let mut scratch = MatchScratch::new();
        for seed in 0..80 {
            let (g, w, keep) = random_instance(seed);
            let masked = scratch.max_weight_value_masked(&g, &w, &keep);
            let (sub, old_of_new) = g.filter_left(&keep);
            let sub_weights: Vec<f64> = old_of_new.iter().map(|&l| w[l as usize]).collect();
            let (_, expected) = max_weight_matching_left_weights(&sub, &sub_weights);
            assert!(
                (masked - expected).abs() < 1e-12,
                "seed {seed}: masked {masked} vs filter_left {expected}"
            );
            // The masked matching never uses a masked-out vertex.
            for (l, _) in scratch.matched_pairs() {
                assert!(keep[l], "seed {seed}: matched masked-out vertex {l}");
            }
            assert!(scratch.to_matching().is_valid(&g));
        }
    }

    #[test]
    fn ordered_kernel_reuses_external_order() {
        let (g, w, keep) = random_instance(1234);
        let mut order = Vec::new();
        sort_by_weight_desc(&w, &mut order);
        let mut scratch = MatchScratch::new();
        let a = scratch.max_weight_value_ordered(&g, &w, &order, Some(&keep));
        let b = scratch.max_weight_value_masked(&g, &w, &keep);
        assert_eq!(a, b);
        let c = scratch.max_weight_value_ordered(&g, &w, &order, None);
        let d = scratch.max_weight_value(&g, &w);
        assert_eq!(c, d);
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        let mut scratch = MatchScratch::new();
        // Big then small then big again: stale state must never leak.
        for &seed in &[7u64, 8, 9, 7, 8, 9] {
            let (g, w, _) = random_instance(seed);
            let (_, expected) = max_weight_matching_left_weights(&g, &w);
            assert_eq!(scratch.max_weight_value(&g, &w), expected);
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
