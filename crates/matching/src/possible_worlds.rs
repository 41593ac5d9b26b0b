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
//! # Gray-code enumeration
//!
//! [`PossibleWorlds::expected_revenue`] walks the `2^m` worlds of the
//! `m` *free* tasks (those with acceptance probability strictly inside
//! `(0, 1)`; certain tasks are folded into a fixed base mask) in
//! **reflected-Gray-code order**: world `i` uses the mask
//! `g(i) = i ^ (i >> 1)`, and `g(i) ^ g(i+1)` has exactly one bit set.
//! Three consequences make this the fast path:
//!
//! * **O(1) probability updates.** Flipping task `l` into the world
//!   multiplies the running probability by `q_l / (1 − q_l)`; flipping
//!   it out divides by the same ratio. The naive path recomputes an
//!   `O(m)` product per world.
//! * **Incremental matching maintenance.** Because the matchable task
//!   subsets form a transversal matroid (see `greedy_weight`), the
//!   optimal matching changes by **at most one exchange** per flipped
//!   task: removing an unmatched task changes nothing; removing a
//!   matched task admits at most one maximum-weight replacement
//!   (reachable from the freed worker by an alternating path); adding
//!   a task either augments directly or swaps with the minimum-weight
//!   member of its fundamental circuit when strictly heavier. Each
//!   world therefore costs one or two bounded augmenting-path searches
//!   instead of a full re-solve.
//! * **Zero allocation in the loop.** All search state lives in
//!   buffers allocated once up front (the same epoch-stamp technique
//!   as [`MatchScratch`]); the naive path materializes a filtered
//!   subgraph, re-collects weights and re-sorts per world.
//!
//! To keep the incremental products/sums within strict tolerance of
//! the naive oracle, the running probability and revenue are
//! re-synchronized from scratch every `RESYNC_PERIOD` worlds, which
//! bounds accumulated rounding drift to a few hundred ULPs while
//! amortizing to `O(m / RESYNC_PERIOD)` ≈ 0 work per world.
//!
//! The naive enumerator [`PossibleWorlds::worlds`] is retained verbatim
//! as the test oracle: this module's tests fold it into the
//! Definition-6 sum and `gray_code_matches_naive_enumeration` pins the
//! two paths together to `1e-12` relative tolerance.

use crate::graph::BipartiteGraph;
use crate::greedy_weight::max_weight_matching_left_weights;
use crate::scratch::{sort_by_weight_desc, MatchScratch};

/// Maximum number of tasks for exact enumeration (2^24 worlds ≈ 16M is
/// already generous for a test oracle).
pub const MAX_EXACT_TASKS: usize = 24;

/// The Gray-code walk recomputes its running probability product from
/// scratch once per this many worlds, bounding multiplicative rounding
/// drift (see module docs).
const RESYNC_PERIOD: u64 = 1024;

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
    /// This is the **naive oracle path**: per world it materializes the
    /// accepting subgraph with [`BipartiteGraph::filter_left`] and
    /// re-solves from scratch. Kept deliberately allocation-heavy and
    /// obviously correct; the production path is
    /// [`Self::expected_revenue`].
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
            let (_, revenue) = max_weight_matching_left_weights(&sub, &sub_weights);
            World {
                mask,
                probability,
                revenue,
            }
        })
    }

    /// The expected total revenue `E[U(B^t)|P^t]` (Definition 6),
    /// computed by the Gray-code walk described in the module docs:
    /// one task flips per step, probabilities update in O(1), and the
    /// maximum-weight matching is maintained incrementally through the
    /// matroid exchange moves — no per-world allocation or re-solve.
    pub fn expected_revenue(&self) -> f64 {
        let n = self.graph.n_left();
        let mut keep = vec![false; n];

        // Fold out the certain tasks: q == 1 is in every world, q == 0
        // in none. Only the free tasks are enumerated, which also keeps
        // the q/(1-q) ratios finite.
        let mut free: Vec<usize> = Vec::with_capacity(n);
        for (l, &q) in self.accept_probs.iter().enumerate() {
            if q >= 1.0 {
                keep[l] = true;
            } else if q > 0.0 {
                free.push(l);
            }
        }
        let m = free.len();

        // Probability of the current world, recomputed from scratch.
        let full_prob = |keep_mask: &[bool]| -> f64 {
            free.iter()
                .map(|&l| {
                    if keep_mask[l] {
                        self.accept_probs[l]
                    } else {
                        1.0 - self.accept_probs[l]
                    }
                })
                .product()
        };

        let mut dynamic = DynamicMatching::new(self.graph, self.weights);
        let mut revenue = dynamic.rebuild(&keep);
        let mut probability = full_prob(&keep);
        let mut expected = probability * revenue;

        let mut gray: u64 = 0;
        for i in 1..(1u64 << m) {
            let next = i ^ (i >> 1);
            let flipped = (gray ^ next).trailing_zeros() as usize;
            gray = next;
            let l = free[flipped];
            let q = self.accept_probs[l];
            if keep[l] {
                keep[l] = false;
                probability *= (1.0 - q) / q;
                revenue += dynamic.remove(l, &keep);
            } else {
                keep[l] = true;
                probability *= q / (1.0 - q);
                revenue += dynamic.insert(l);
            }
            if i % RESYNC_PERIOD == 0 {
                // Bound incremental rounding drift: re-derive both the
                // probability product and the revenue sum exactly.
                probability = full_prob(&keep);
                revenue = dynamic.matched_weight();
            }
            expected += probability * revenue;
        }
        expected
    }
}

/// Exact dynamic maximum-weight matching under single-task insertion /
/// removal, backing the Gray-code walk.
///
/// Exactness rests on the transversal-matroid structure of left-sided
/// weights (`greedy_weight` module docs): the optimum after adding or
/// removing one task differs from the previous optimum by **at most
/// one exchange**, namely
///
/// * *remove unmatched task* — optimum unchanged;
/// * *remove matched task `l`* — optimum is the old matching minus `l`
///   plus the maximum-weight task that can now augment; every such
///   task reaches the freed worker by an alternating path, so
///   candidates are found by one alternating search from that worker
///   (over the reverse adjacency built once per instance);
/// * *insert task `l`* — if an augmenting path exists the optimum
///   gains `l`; otherwise let `m` be the minimum-weight member of the
///   fundamental circuit of `l` (the matched tasks reachable from `l`
///   by alternating paths): if `w_l > w_m` the optimum swaps `m` for
///   `l`, else it is unchanged.
struct DynamicMatching<'a> {
    graph: &'a BipartiteGraph,
    weights: &'a [f64],
    /// The shared augmenting-path kernel: owns the match arrays, the
    /// two-pass Kuhn DFS and its epoch-stamped visited marks.
    core: MatchScratch,
    /// Reverse CSR adjacency (worker -> tasks), built once.
    radj_starts: Vec<u32>,
    radj: Vec<u32>,
    /// Worker visit stamps for the exchange searches below (separate
    /// from the kernel's own DFS stamps).
    visited: Vec<u32>,
    epoch: u32,
    /// Scratch stack for the alternating searches.
    stack: Vec<u32>,
    /// Task order by descending weight for rebuilds.
    order: Vec<u32>,
    /// Number of in-world positive-weight tasks that are currently
    /// unmatched — the candidate pool for removal-side replacements.
    /// When zero, a matched task's removal cannot be compensated and
    /// the replacement search is skipped entirely (the common case on
    /// supply-rich graphs).
    unmatched_kept: usize,
}

impl<'a> DynamicMatching<'a> {
    fn new(graph: &'a BipartiteGraph, weights: &'a [f64]) -> Self {
        let (n_left, n_right) = (graph.n_left(), graph.n_right());
        // Reverse adjacency via counting sort.
        let mut radj_starts = vec![0u32; n_right + 1];
        for (_, r) in graph.edges() {
            radj_starts[r + 1] += 1;
        }
        for r in 0..n_right {
            radj_starts[r + 1] += radj_starts[r];
        }
        let mut radj = vec![0u32; graph.n_edges()];
        let mut cursor = radj_starts.clone();
        for (l, r) in graph.edges() {
            radj[cursor[r] as usize] = l as u32;
            cursor[r] += 1;
        }
        let mut order = Vec::with_capacity(n_left);
        sort_by_weight_desc(weights, &mut order);
        Self {
            graph,
            weights,
            core: MatchScratch::with_capacity(n_left, n_right),
            radj_starts,
            radj,
            visited: vec![0; n_right],
            epoch: 0,
            stack: Vec::with_capacity(n_left),
            order,
            unmatched_kept: 0,
        }
    }

    /// Solves from scratch for the given mask (greedy over the
    /// precomputed weight order) and returns the matching value.
    fn rebuild(&mut self, keep: &[bool]) -> f64 {
        self.core.reset(self.graph.n_left(), self.graph.n_right());
        self.unmatched_kept = 0;
        let order = std::mem::take(&mut self.order);
        let mut total = 0.0;
        for &l in &order {
            if keep[l as usize] {
                if self.core.try_augment(self.graph, l as usize) {
                    total += self.weights[l as usize];
                } else {
                    self.unmatched_kept += 1;
                }
            }
        }
        self.order = order;
        total
    }

    /// Exact current matching value, re-summed from scratch.
    fn matched_weight(&self) -> f64 {
        self.core
            .matched_pairs()
            .map(|(l, _)| self.weights[l])
            .sum()
    }

    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.visited.fill(0);
            1
        });
        self.epoch
    }

    /// Task `l` enters the world; returns the revenue delta.
    ///
    /// Augmentation runs through the shared kernel; alternating paths
    /// only pass through *matched* tasks, which are kept in every
    /// world by construction, so no mask check is needed.
    fn insert(&mut self, l: usize) -> f64 {
        if self.weights[l] <= 0.0 {
            return 0.0;
        }
        if self.core.try_augment(self.graph, l) {
            return self.weights[l];
        }
        // No augmenting path: find the minimum-weight member of l's
        // fundamental circuit — the matched tasks reachable from l by
        // alternating paths.
        self.bump_epoch();
        self.stack.clear();
        self.stack.push(l as u32);
        let mut min_task: Option<usize> = None;
        while let Some(t) = self.stack.pop() {
            for &r in self.graph.neighbors(t as usize) {
                let r = r as usize;
                if self.visited[r] == self.epoch {
                    continue;
                }
                self.visited[r] = self.epoch;
                let occupant = self
                    .core
                    .matched_left(r)
                    .expect("free worker despite failed augment");
                let o = occupant as usize;
                if min_task.is_none_or(|best| (self.weights[o], o) < (self.weights[best], best)) {
                    min_task = Some(o);
                }
                self.stack.push(occupant);
            }
        }
        match min_task {
            Some(m) if self.weights[l] > self.weights[m] => {
                // Swap: free m's worker, then l must augment. The
                // displaced m stays in the world, now unmatched.
                self.core.unmatch_left(m);
                let ok = self.core.try_augment(self.graph, l);
                debug_assert!(ok, "augment must succeed after circuit swap");
                self.unmatched_kept += 1;
                self.weights[l] - self.weights[m]
            }
            _ => {
                // l joins the world unmatched.
                self.unmatched_kept += 1;
                0.0
            }
        }
    }

    /// Task `l` leaves the world described by `keep` (`keep[l]` is
    /// already false); returns the revenue delta.
    fn remove(&mut self, l: usize, keep: &[bool]) -> f64 {
        let Some(freed) = self.core.matched_right(l) else {
            if self.weights[l] > 0.0 {
                self.unmatched_kept -= 1;
            }
            return 0.0;
        };
        self.core.unmatch_left(l);
        if self.unmatched_kept == 0 {
            // Nobody is waiting for supply: no replacement possible.
            return -self.weights[l];
        }
        // The only tasks that can replace l are unmatched in-world
        // tasks with an alternating path to the freed worker; collect
        // them by a reverse alternating search from that worker and
        // take the heaviest.
        self.bump_epoch();
        self.visited[freed as usize] = self.epoch;
        self.stack.clear();
        self.stack.push(freed);
        let mut best: Option<usize> = None;
        while let Some(r) = self.stack.pop() {
            let (s, e) = (
                self.radj_starts[r as usize] as usize,
                self.radj_starts[r as usize + 1] as usize,
            );
            for i in s..e {
                let t = self.radj[i] as usize;
                match self.core.matched_right(t) {
                    None => {
                        // Matched tasks are in-world by invariant; an
                        // unmatched one is a candidate only if the
                        // world contains it and it pays.
                        if keep[t]
                            && self.weights[t] > 0.0
                            && best.is_none_or(|b| {
                                (self.weights[t], std::cmp::Reverse(t))
                                    > (self.weights[b], std::cmp::Reverse(b))
                            })
                        {
                            best = Some(t);
                        }
                    }
                    Some(matched_worker) => {
                        if self.visited[matched_worker as usize] != self.epoch {
                            self.visited[matched_worker as usize] = self.epoch;
                            self.stack.push(matched_worker);
                        }
                    }
                }
            }
        }
        match best {
            Some(f) => {
                let ok = self.core.try_augment(self.graph, f);
                debug_assert!(ok, "augment must succeed towards the freed worker");
                self.unmatched_kept -= 1;
                self.weights[f] - self.weights[l]
            }
            None => -self.weights[l],
        }
    }
}

/// Convenience wrapper: exact expected total revenue of a priced instance
/// (Gray-code fast path).
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

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Definition 6 summed world by world over the naive enumerator: the
    /// oracle for [`PossibleWorlds::expected_revenue`].
    fn naive_expected_revenue(pw: &PossibleWorlds<'_>) -> f64 {
        pw.worlds().map(|w| w.probability * w.revenue).sum()
    }

    /// The satellite-task equivalence check: Gray-code enumeration must
    /// agree with naive enumeration to 1e-12 (relative) on pseudorandom
    /// graphs, including degenerate probabilities.
    #[test]
    fn gray_code_matches_naive_enumeration() {
        let mut s = 0xC0FFEEu64;
        for trial in 0..25 {
            let n = 1 + (xorshift(&mut s) % 12) as usize;
            let n_right = 1 + (xorshift(&mut s) % 10) as usize;
            let mut b = BipartiteGraphBuilder::new(n, n_right);
            for l in 0..n {
                for r in 0..n_right {
                    if xorshift(&mut s).is_multiple_of(3) {
                        b.add_edge(l, r);
                    }
                }
            }
            let g = b.build();
            let weights: Vec<f64> = (0..n)
                .map(|_| (xorshift(&mut s) % 1000) as f64 / 100.0)
                .collect();
            let probs: Vec<f64> = (0..n)
                .map(|_| match xorshift(&mut s) % 8 {
                    0 => 0.0,
                    1 => 1.0,
                    v => (v as f64) / 8.0,
                })
                .collect();
            let pw = PossibleWorlds::new(&g, &weights, &probs);
            let naive = naive_expected_revenue(&pw);
            let gray = pw.expected_revenue();
            let tolerance = 1e-12 * naive.abs().max(1.0);
            assert!(
                (gray - naive).abs() < tolerance,
                "trial {trial}: gray {gray} vs naive {naive}"
            );
        }
    }

    /// Supply-constrained instances (far fewer workers than tasks)
    /// keep the unmatched pool non-empty, forcing the circuit-swap and
    /// replacement-search paths of the dynamic matching on almost
    /// every flip. Tie-heavy quantized weights and zero weights ride
    /// along to stress exchange tie handling.
    #[test]
    fn gray_code_matches_naive_when_supply_constrained() {
        let mut s = 0xBADC0DEu64;
        for trial in 0..25 {
            let n = 6 + (xorshift(&mut s) % 8) as usize;
            let n_right = 1 + (xorshift(&mut s) % 3) as usize; // 1..=3 workers
            let mut b = BipartiteGraphBuilder::new(n, n_right);
            for l in 0..n {
                for r in 0..n_right {
                    if xorshift(&mut s).is_multiple_of(2) {
                        b.add_edge(l, r);
                    }
                }
            }
            let g = b.build();
            // Quantized weights: many exact ties, some zeros.
            let weights: Vec<f64> = (0..n)
                .map(|_| (xorshift(&mut s) % 5) as f64 * 0.5)
                .collect();
            let probs: Vec<f64> = (0..n)
                .map(|_| 0.1 + 0.8 * ((xorshift(&mut s) % 64) as f64 / 64.0))
                .collect();
            let pw = PossibleWorlds::new(&g, &weights, &probs);
            let naive = naive_expected_revenue(&pw);
            let gray = pw.expected_revenue();
            assert!(
                (gray - naive).abs() < 1e-12 * naive.abs().max(1.0),
                "trial {trial}: gray {gray} vs naive {naive}"
            );
        }
    }

    /// Gray order spans more than one resync window at n > 10, so this
    /// also exercises the periodic probability re-synchronization.
    #[test]
    fn gray_code_matches_naive_past_resync_boundary() {
        let n = 12; // 4096 worlds = 4 resync windows
        let mut b = BipartiteGraphBuilder::new(n, 6);
        for l in 0..n {
            b.add_edge(l, l % 6);
            b.add_edge(l, (l + 1) % 6);
        }
        let g = b.build();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.37 * i as f64).collect();
        let probs: Vec<f64> = (0..n).map(|i| 0.05 + 0.9 * (i as f64) / n as f64).collect();
        let pw = PossibleWorlds::new(&g, &weights, &probs);
        let naive = naive_expected_revenue(&pw);
        let gray = pw.expected_revenue();
        assert!(
            (gray - naive).abs() < 1e-12 * naive.max(1.0),
            "gray {gray} vs naive {naive}"
        );
    }
}
