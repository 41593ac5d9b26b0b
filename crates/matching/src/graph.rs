//! Compact bipartite graph container.
//!
//! Left vertices are tasks (`R^t`), right vertices are workers (`W^t`).
//! Adjacency is stored CSR-style from the left side, since every algorithm
//! in this crate searches from tasks towards workers.

/// An immutable bipartite graph with `n_left` tasks and `n_right` workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    /// CSR row offsets: neighbours of left `l` are
    /// `adj[starts[l] .. starts[l+1]]`.
    starts: Vec<u32>,
    adj: Vec<u32>,
}

impl BipartiteGraph {
    /// The graph whose left vertex `l` has the neighbours
    /// `adj[starts[l]..starts[l + 1]]`, for a caller that writes each row
    /// sorted: equal to what [`BipartiteGraphBuilder::build`] freezes from
    /// the same edges, with no edge list to sort.
    ///
    /// # Panics
    /// Panics unless `starts` climbs from 0 to `adj.len()` and each row
    /// is strictly ascending and below `n_right`.
    pub fn from_sorted_rows(n_right: usize, starts: Vec<u32>, adj: Vec<u32>) -> Self {
        assert_eq!(starts.first(), Some(&0), "rows must start at offset 0");
        let end = starts.last().map(|&end| end as usize);
        assert_eq!(end, Some(adj.len()), "rows must end at adj.len()");
        for bounds in starts.windows(2) {
            let row = adj.get(bounds[0] as usize..bounds[1] as usize);
            let row = row.expect("row offsets must not decrease");
            assert!(row.is_sorted_by(|a, b| a < b), "row not strictly ascending");
            let in_range = row.last().is_none_or(|&r| (r as usize) < n_right);
            assert!(in_range, "right vertex out of range");
        }
        Self {
            n_left: starts.len() - 1,
            n_right,
            starts,
            adj,
        }
    }

    /// Number of left (task) vertices.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right (worker) vertices.
    #[inline]
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges `|E^t|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj.len()
    }

    /// Neighbours (workers) of left vertex `l`.
    #[inline]
    pub fn neighbors(&self, l: usize) -> &[u32] {
        &self.adj[self.starts[l] as usize..self.starts[l + 1] as usize]
    }

    /// Whether the edge `(l, r)` exists. Neighbour lists are sorted, so
    /// this is a binary search.
    pub fn has_edge(&self, l: usize, r: usize) -> bool {
        l < self.n_left && self.neighbors(l).binary_search(&(r as u32)).is_ok()
    }

    /// Iterates over all edges as `(left, right)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_left).flat_map(move |l| self.neighbors(l).iter().map(move |&r| (l, r as usize)))
    }

    /// An induced subgraph keeping only the left vertices for which
    /// `keep_left` is true. Right vertices are preserved (same indices);
    /// kept left vertices are renumbered densely in order, and the mapping
    /// `new_left -> old_left` is returned alongside.
    ///
    /// Possible-world instantiation (Definition 5: `R′^t ⊆ R^t` are the
    /// accepting tasks) is exactly this operation. Hot loops write a
    /// zero weight for each rejected task instead, which solves the same
    /// world with no copy (see [`crate::scratch`]).
    pub fn filter_left(&self, keep_left: &[bool]) -> (BipartiteGraph, Vec<u32>) {
        assert_eq!(keep_left.len(), self.n_left, "mask length mismatch");
        let mut old_of_new = Vec::new();
        let mut starts = Vec::with_capacity(self.n_left + 1);
        let mut adj = Vec::new();
        starts.push(0u32);
        for (l, &keep) in keep_left.iter().enumerate() {
            if keep {
                old_of_new.push(l as u32);
                adj.extend_from_slice(self.neighbors(l));
                starts.push(adj.len() as u32);
            }
        }
        (
            BipartiteGraph {
                n_left: old_of_new.len(),
                n_right: self.n_right,
                starts,
                adj,
            },
            old_of_new,
        )
    }
}

/// Builder accumulating edges before freezing them into CSR form.
#[derive(Debug, Clone)]
pub struct BipartiteGraphBuilder {
    n_left: usize,
    n_right: usize,
    edges: Vec<(u32, u32)>,
}

impl BipartiteGraphBuilder {
    /// Starts a builder for a graph with the given part sizes.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Self {
            n_left,
            n_right,
            edges: Vec::new(),
        }
    }

    /// Adds one edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) -> &mut Self {
        assert!(l < self.n_left, "left vertex {l} out of range");
        assert!(r < self.n_right, "right vertex {r} out of range");
        self.edges.push((l as u32, r as u32));
        self
    }

    /// Adds many edges (builder-style).
    pub fn with_edges(mut self, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        for (l, r) in edges {
            self.add_edge(l, r);
        }
        self
    }

    /// Freezes into a [`BipartiteGraph`]. Duplicate edges are collapsed;
    /// neighbour lists come out sorted (required by `has_edge`).
    pub fn build(mut self) -> BipartiteGraph {
        // One sort by `(left, right)` puts every row in place, ascending;
        // dedup, then row offsets are the per-row counts, summed.
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut starts = vec![0u32; self.n_left + 1];
        for &(l, _) in &self.edges {
            starts[l as usize + 1] += 1;
        }
        for l in 0..self.n_left {
            starts[l + 1] += starts[l];
        }
        let adj = self.edges.iter().map(|&(_, r)| r).collect();
        BipartiteGraph {
            n_left: self.n_left,
            n_right: self.n_right,
            starts,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example's bipartite graph (Fig. 1b), with the edge set
    /// implied by Examples 1/3/5: r1 and r2 reach only w1, while r3 is
    /// "assured to be served" via w2/w3 (and also reachable by w1).
    pub(crate) fn running_example_graph() -> BipartiteGraph {
        BipartiteGraphBuilder::new(3, 3)
            .with_edges([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
            .build()
    }

    #[test]
    fn builder_and_accessors() {
        let g = running_example_graph();
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 3);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.neighbors(0), &[0]);
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
        assert_eq!(g.neighbors(1).len(), 1);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = BipartiteGraphBuilder::new(2, 2)
            .with_edges([(0, 1), (0, 1), (0, 0), (1, 1)])
            .build();
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let edges = vec![(0usize, 2usize), (1, 0), (1, 1), (3, 2)];
        let g = BipartiteGraphBuilder::new(4, 3)
            .with_edges(edges.iter().copied())
            .build();
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        let mut want = edges;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = BipartiteGraphBuilder::new(3, 3).build();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.neighbors(0).len(), 0);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_left() {
        BipartiteGraphBuilder::new(1, 1).add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_right() {
        BipartiteGraphBuilder::new(1, 1).add_edge(0, 1);
    }

    /// Sorted rows of a seeded edge list, frozen without a sort, are the
    /// graph the builder freezes from the raw list: rows deduplicated
    /// and ascending, empty rows and an empty graph included.
    #[test]
    fn sorted_rows_equal_the_builder() {
        let mut state = 0x5EED_0C5Bu64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        for seed in 0..200 {
            let (n_left, n_right) = (next(9), 1 + next(9));
            let edges: Vec<(usize, usize)> = (0..next(40))
                .filter(|_| n_left > 0)
                .map(|_| (next(n_left as u64), next(n_right as u64)))
                .collect();
            let built = BipartiteGraphBuilder::new(n_left, n_right)
                .with_edges(edges.iter().copied())
                .build();
            let (mut starts, mut adj) = (vec![0u32], Vec::new());
            for l in 0..n_left {
                let mut row: Vec<u32> = edges
                    .iter()
                    .filter(|e| e.0 == l)
                    .map(|e| e.1 as u32)
                    .collect();
                row.sort_unstable();
                row.dedup();
                adj.extend(row);
                starts.push(adj.len() as u32);
            }
            let rows = BipartiteGraph::from_sorted_rows(n_right, starts, adj);
            assert_eq!(rows, built, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn sorted_rows_reject_a_descending_row() {
        BipartiteGraph::from_sorted_rows(3, vec![0, 1, 3], vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn sorted_rows_reject_a_repeated_right_vertex() {
        BipartiteGraph::from_sorted_rows(3, vec![0, 2], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sorted_rows_reject_a_right_vertex_past_n_right() {
        BipartiteGraph::from_sorted_rows(3, vec![0, 2, 2], vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "must end at adj.len()")]
    fn sorted_rows_reject_offsets_short_of_adj() {
        BipartiteGraph::from_sorted_rows(3, vec![0, 1, 2], vec![0, 1, 2]);
    }

    #[test]
    fn filter_left_keeps_structure() {
        let g = running_example_graph();
        // Possible world where only r1 and r3 accept.
        let (sub, old) = g.filter_left(&[true, false, true]);
        assert_eq!(sub.n_left(), 2);
        assert_eq!(sub.n_right(), 3);
        assert_eq!(old, vec![0, 2]);
        assert_eq!(sub.neighbors(0), &[0]); // r1
        assert_eq!(sub.neighbors(1), &[0, 1, 2]); // r3
    }

    #[test]
    fn filter_left_empty_world() {
        let g = running_example_graph();
        let (sub, old) = g.filter_left(&[false, false, false]);
        assert_eq!(sub.n_left(), 0);
        assert!(old.is_empty());
        assert_eq!(sub.n_edges(), 0);
    }
}
