//! Incremental augmenting paths over a mutable pre-matching.
//!
//! MAPS (Algorithm 2) grows a pre-matching `M′` one worker at a time: when
//! the max-heap decides grid `g` should receive one more unit of supply,
//! the algorithm must "find an augmenting path for r ∈ R^tg and add the
//! match into M′" (line 10), and the feasibility test in line 16 asks
//! whether *any* unassigned task of the grid admits an augmenting path.
//! [`IncrementalMatching`] supports exactly these two operations.
//!
//! Since PR 1 the search state lives in a [`MatchScratch`], the shared
//! zero-allocation kernel workspace: the DFS, the epoch-stamped visited
//! marks and the packed match arrays are one implementation reused by
//! the batch kernels.

use crate::graph::BipartiteGraph;
use crate::scratch::MatchScratch;
use crate::Matching;

/// A mutable matching over a borrowed bipartite graph supporting Kuhn-style
/// single-source augmentation.
#[derive(Debug, Clone)]
pub struct IncrementalMatching<'g> {
    graph: &'g BipartiteGraph,
    core: MatchScratch,
}

impl<'g> IncrementalMatching<'g> {
    /// Starts from the empty matching.
    pub fn new(graph: &'g BipartiteGraph) -> Self {
        let mut core = MatchScratch::new();
        core.reset(graph.n_left(), graph.n_right());
        Self { graph, core }
    }

    /// The graph this matching lives on.
    pub fn graph(&self) -> &'g BipartiteGraph {
        self.graph
    }

    /// Current assignment of left vertex `l`.
    #[inline]
    pub fn matched_right(&self, l: usize) -> Option<u32> {
        self.core.matched_right(l)
    }

    /// Current assignment of right vertex `r`.
    #[inline]
    pub fn matched_left(&self, r: usize) -> Option<u32> {
        self.core.matched_left(r)
    }

    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.core.cardinality()
    }

    /// Tries to match the currently-unmatched left vertex `l` by finding an
    /// augmenting path; on success the path is applied and `true` returned.
    /// A failed search leaves the matching untouched.
    ///
    /// # Panics
    /// Panics if `l` is already matched (augmenting from a matched vertex
    /// would corrupt the matching).
    pub fn try_augment(&mut self, l: usize) -> bool {
        self.core.try_augment(self.graph, l)
    }

    /// Like [`Self::try_augment`] but never modifies the matching; returns
    /// whether an augmenting path from `l` exists right now.
    pub fn can_augment(&mut self, l: usize) -> bool {
        self.core.can_augment(self.graph, l)
    }

    /// A snapshot of the current assignment.
    pub fn to_matching(&self) -> Matching {
        self.core.to_matching()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BipartiteGraphBuilder;

    fn chain_graph() -> BipartiteGraph {
        // l0-{r0}, l1-{r0,r1}, l2-{r1,r2}: perfect matching exists but
        // requires augmentation through occupied vertices.
        BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
            .build()
    }

    #[test]
    fn augments_through_chain() {
        let g = chain_graph();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(1)); // l1 -> r0 (first neighbour)
        assert_eq!(m.matched_right(1), Some(0));
        assert!(m.try_augment(0)); // pushes l1 to r1
        assert_eq!(m.matched_right(0), Some(0));
        assert_eq!(m.matched_right(1), Some(1));
        assert!(m.try_augment(2)); // pushes nothing: r2 free? l2-{r1,r2}: r1 taken -> l1 -> ... l1 can't move (r0 taken by l0, l0 stuck) so r2 used.
        assert_eq!(m.matched_right(2), Some(2));
        assert_eq!(m.cardinality(), 3);
        assert!(m.to_matching().is_valid(&g));
    }

    #[test]
    fn failed_augment_leaves_matching_intact() {
        // Two tasks, one worker.
        let g = BipartiteGraphBuilder::new(2, 1)
            .with_edges([(0, 0), (1, 0)])
            .build();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(0));
        let before = m.to_matching();
        assert!(!m.try_augment(1));
        assert_eq!(m.to_matching(), before);
    }

    #[test]
    fn can_augment_is_side_effect_free() {
        let g = chain_graph();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(0));
        let before = m.to_matching();
        assert!(m.can_augment(1));
        assert_eq!(m.to_matching(), before, "can_augment must not mutate");
        assert!(m.try_augment(1));
        assert!(m.can_augment(2));
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn can_augment_false_for_matched_vertex() {
        let g = chain_graph();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(0));
        assert!(!m.can_augment(0));
    }

    #[test]
    fn running_example_supply_distribution() {
        // Example 5's trace: grid 9 = {r1(=0), r2(=1)}, grid 11 = {r3(=2)}.
        // After w1 is assigned to r1, no augmenting path exists for r2,
        // but r3 still has one.
        let g = BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(0)); // r1 takes w1
        assert!(!m.can_augment(1)); // r2 has no path (paper: insert Δ=0)
        assert!(m.try_augment(2)); // r3 served via w2/w3
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    #[should_panic(expected = "already-matched")]
    fn double_augment_panics() {
        let g = chain_graph();
        let mut m = IncrementalMatching::new(&g);
        assert!(m.try_augment(0));
        let _ = m.try_augment(0);
    }
}
