//! Deterministic grid-cell → shard routing for the sharded online
//! pricing service.
//!
//! A [`ShardMap`] partitions the cells of a [`crate::GridSpec`] into
//! `num_shards` disjoint ownership sets by round-robin over the cell
//! index. The assignment is a pure function of `(cell, num_shards)` —
//! no hashing, no registration order — so two services configured with
//! the same shard count route every event identically, and the
//! shard-count-invariance contract (replay outcomes are bit-identical
//! at 1/2/4/8 shards) only has to reason about *merge order*, never
//! about routing.
//!
//! Round-robin (rather than contiguous ranges) spreads spatially
//! adjacent cells across shards, which keeps per-shard load balanced
//! when demand is concentrated in a hotspot — the common shape of the
//! paper's Beijing workload.

use crate::grid::CellId;

/// Deterministic round-robin assignment of grid cells to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    num_shards: usize,
}

impl ShardMap {
    /// A map routing cells onto `num_shards` shards.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self { num_shards }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `cell`.
    #[inline]
    pub fn shard_of(&self, cell: CellId) -> usize {
        cell.index() % self.num_shards
    }

    /// The cells (out of `num_cells`) owned by `shard`, ascending.
    pub fn cells_of(&self, shard: usize, num_cells: usize) -> impl Iterator<Item = CellId> + '_ {
        assert!(shard < self.num_shards, "shard {shard} out of range");
        (shard..num_cells)
            .step_by(self.num_shards)
            .map(|i| CellId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_a_partition() {
        let num_cells = 40;
        for shards in [1usize, 2, 3, 4, 8, 64] {
            let map = ShardMap::new(shards);
            let mut owner = vec![usize::MAX; num_cells];
            for s in 0..shards {
                for cell in map.cells_of(s, num_cells) {
                    assert_eq!(owner[cell.index()], usize::MAX, "cell owned twice");
                    owner[cell.index()] = s;
                    assert_eq!(map.shard_of(cell), s);
                }
            }
            assert!(owner.iter().all(|&s| s < shards), "unowned cell");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        for i in 0..16u32 {
            assert_eq!(map.shard_of(CellId(i)), 0);
        }
        assert_eq!(map.cells_of(0, 16).count(), 16);
    }

    #[test]
    fn more_shards_than_cells_leaves_some_empty() {
        let map = ShardMap::new(8);
        assert_eq!(map.cells_of(5, 4).count(), 0);
        assert_eq!(map.cells_of(2, 4).count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0);
    }
}
