//! # maps-matching
//!
//! Bipartite-matching substrate for the MAPS reproduction
//! (Tong et al., SIGMOD 2018).
//!
//! The paper models each time period as a probabilistic bipartite graph
//! `B^t = <R^t, W^t, E^t, S>` between tasks (left) and workers (right),
//! with an edge whenever the task origin satisfies the worker's range
//! constraint and edge weight `d_r · p_r` (Definition 5). This crate
//! provides everything the pricing layer needs from that graph:
//!
//! * [`BipartiteGraph`] — compact CSR adjacency container.
//! * [`IncrementalMatching`] — Kuhn-style single augmenting paths over a
//!   mutable pre-matching `M′`; this is the primitive behind Algorithm 2's
//!   lines 10 and 16 ("find an augmenting path for r ∈ R^tg"). One
//!   augmentation attempt per left vertex from the empty matching is
//!   Kuhn's maximum-cardinality algorithm.
//! * [`scratch`] — [`MatchScratch`], the reusable zero-allocation
//!   workspace behind every matching kernel, and the one clearing
//!   kernel: exact maximum-weight matching where weights live on the
//!   *left* vertices (as in the paper: the weight `d_r·p_r` does not
//!   depend on the worker). The matchable task subsets form a
//!   transversal matroid, so greedy-by-weight with augmenting paths is
//!   optimal; this is what lets the simulator run the paper's
//!   `|R| = |W| = 500 000` scalability experiment. A task that takes no
//!   part — a requester who rejects — is a task of weight zero.
//! * [`possible_worlds`] — exact expected total revenue over the `2^|R|`
//!   possible worlds of Definition 6, summed as the definition states
//!   it (reproduces Example 3's expected revenue).
//!
//! The one reference both kernels are checked against — Kuhn–Munkres
//! (Hungarian) maximum-weight matching with general edge weights, at
//! unit weights a maximum-cardinality oracle — is the `hungarian`
//! module, compiled only under `cfg(test)`: this crate's tests reach
//! it, shipping builds do not.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod incremental;
pub mod possible_worlds;
pub mod scratch;

pub use graph::{BipartiteGraph, BipartiteGraphBuilder};
pub use incremental::IncrementalMatching;
pub use possible_worlds::{expected_total_revenue_exact, PossibleWorlds};
pub use scratch::{sort_by_weight_desc, MatchScratch};

/// A matching stated as `left -> right` assignments.
///
/// `pairs[l] == Some(r)` means left vertex `l` is matched to right vertex
/// `r`. Every algorithm in this crate returns this shape so results are
/// interchangeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Per-left-vertex assignment.
    pub pairs: Vec<Option<u32>>,
}

impl Matching {
    /// An empty matching over `n_left` left vertices.
    pub fn empty(n_left: usize) -> Self {
        Self {
            pairs: vec![None; n_left],
        }
    }

    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.pairs.iter().filter(|p| p.is_some()).count()
    }

    /// Checks the matching is valid for `graph`: edges exist and no right
    /// vertex is used twice. Used pervasively by tests.
    pub fn is_valid(&self, graph: &BipartiteGraph) -> bool {
        let mut used = vec![false; graph.n_right()];
        for (l, p) in self.pairs.iter().enumerate() {
            if let Some(r) = *p {
                let r = r as usize;
                if r >= graph.n_right() || used[r] || !graph.has_edge(l, r) {
                    return false;
                }
                used[r] = true;
            }
        }
        true
    }
}

#[cfg(test)]
mod hungarian;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_helpers() {
        let g = BipartiteGraphBuilder::new(3, 2)
            .with_edges([(0, 0), (1, 0), (2, 1)])
            .build();
        let mut m = Matching::empty(3);
        assert_eq!(m.cardinality(), 0);
        assert!(m.is_valid(&g));
        m.pairs[0] = Some(0);
        m.pairs[2] = Some(1);
        assert_eq!(m.cardinality(), 2);
        assert!(m.is_valid(&g));
        // duplicate right vertex → invalid
        m.pairs[1] = Some(0);
        assert!(!m.is_valid(&g));
        // non-existent edge → invalid
        let mut m2 = Matching::empty(3);
        m2.pairs[0] = Some(1);
        assert!(!m2.is_valid(&g));
    }
}
