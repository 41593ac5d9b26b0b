//! Grid partitioning of the region of interest (Definition 1).
//!
//! The paper: *"The entire spatial region of interest is partitioned into
//! grid cells, indexed by 1, …, G"*, indexed from the bottom-left
//! (Example 2 / Fig. 1c). We use 0-based [`CellId`]s internally; the
//! paper's 1-based grid number is `CellId::index() + 1`.

use crate::geom::{Point, Rect};

/// Identifier of one grid cell (a local market). 0-based, row-major from
/// the bottom-left, matching the paper's Fig. 1c numbering minus one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    reason = "derived `PartialOrd` calls `partial_cmp` on integer fields; `allow` because `derive` copies it onto its impls and does not copy `expect`"
)]
pub struct CellId(pub u32);

impl CellId {
    /// The flat 0-based index of this cell.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The paper's 1-based grid number (Fig. 1c labels cells 1..=16).
    #[inline]
    pub fn paper_number(self) -> usize {
        self.0 as usize + 1
    }
}

impl From<usize> for CellId {
    fn from(i: usize) -> Self {
        CellId(u32::try_from(i).expect("cell index exceeds u32"))
    }
}

/// A rectangular region partitioned into `nx × ny` equal cells.
///
/// All pricing state in the MAPS system is keyed by the cell a task's
/// origin falls into, so this type is deliberately tiny and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    region: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
}

impl GridSpec {
    /// Partitions `region` into `nx` columns and `ny` rows.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the region is degenerate.
    pub fn new(region: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "region must have positive area"
        );
        Self {
            region,
            nx,
            ny,
            cell_w: region.width() / nx as f64,
            cell_h: region.height() / ny as f64,
        }
    }

    /// Square `n × n` grid over the region — the paper's synthetic
    /// configurations are `G ∈ {5×5, 10×10, 15×15, 20×20, 25×25}`.
    pub fn square(region: Rect, n: u32) -> Self {
        Self::new(region, n, n)
    }

    /// The underlying region of interest.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells `G = nx × ny`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        (self.nx as usize) * (self.ny as usize)
    }

    /// Width of one cell.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// Height of one cell.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.cell_h
    }

    /// Maps a point to its cell. Points outside the region are clamped to
    /// the nearest boundary cell; points exactly on the top/right edge
    /// belong to the last row/column (the paper places `w2 = (7,5)` of the
    /// 8×8 example in grid 8, i.e. the boundary is half-open except at the
    /// region's outer edge).
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellId {
        let (cx, cy) = self.cell_coords(p);
        CellId(cy * self.nx + cx)
    }

    /// Column/row coordinates of the cell containing `p` (clamped).
    ///
    /// Clamping gives every *finite* point a well-defined cell — even
    /// ±∞, which saturates to the boundary row/column. NaN has no cell
    /// at all: `NaN as i64` is 0, so a NaN coordinate would silently
    /// file the point under the first row/column and corrupt per-cell
    /// pricing state invisibly. That is a caller bug (admission paths
    /// must validate coordinates), caught here in debug builds.
    #[inline]
    pub fn cell_coords(&self, p: Point) -> (u32, u32) {
        debug_assert!(
            !p.x.is_nan() && !p.y.is_nan(),
            "a NaN coordinate has no grid cell: {p:?}"
        );
        let fx = (p.x - self.region.min.x) / self.cell_w;
        let fy = (p.y - self.region.min.y) / self.cell_h;
        let cx = (fx.floor() as i64).clamp(0, self.nx as i64 - 1) as u32;
        let cy = (fy.floor() as i64).clamp(0, self.ny as i64 - 1) as u32;
        (cx, cy)
    }

    /// The rectangle covered by cell `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn cell_rect(&self, id: CellId) -> Rect {
        assert!(id.index() < self.num_cells(), "cell id out of range");
        let cx = id.0 % self.nx;
        let cy = id.0 / self.nx;
        let min = Point::new(
            self.region.min.x + cx as f64 * self.cell_w,
            self.region.min.y + cy as f64 * self.cell_h,
        );
        Rect::new(min, Point::new(min.x + self.cell_w, min.y + self.cell_h))
    }

    /// Centre of cell `id`.
    pub fn cell_center(&self, id: CellId) -> Point {
        self.cell_rect(id).center()
    }

    /// Iterates over every cell id.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells() as u32).map(CellId)
    }

    /// The 4-neighbourhood (von Neumann) of a cell, used by the spatial
    /// price-smoothing extension (paper Sec. 4.2.3, practical note ii).
    pub fn neighbors4(&self, id: CellId) -> impl Iterator<Item = CellId> + '_ {
        let cx = (id.0 % self.nx) as i64;
        let cy = (id.0 / self.nx) as i64;
        let nx = self.nx as i64;
        let ny = self.ny as i64;
        [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)]
            .into_iter()
            .filter_map(move |(dx, dy)| {
                let x = cx + dx;
                let y = cy + dy;
                (x >= 0 && x < nx && y >= 0 && y < ny).then(|| CellId((y * nx + x) as u32))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 2 grid: 8×8 region, side-2 cells → 16 grids.
    fn example_grid() -> GridSpec {
        GridSpec::square(Rect::square(8.0), 4)
    }

    #[test]
    fn example2_cell_assignments() {
        // Example 2 / Example 5 of the paper pin the numbering convention:
        // "w3 is in grid 7", "r2 is in grid 9", "r3 is in grid 11"
        // (1-based ids, row-major from the bottom-left as in Fig. 1c).
        let g = example_grid();
        assert_eq!(g.cell_of(Point::new(5.0, 3.0)).paper_number(), 7); // w3
        assert_eq!(g.cell_of(Point::new(1.0, 5.0)).paper_number(), 9); // r2
        assert_eq!(g.cell_of(Point::new(5.0, 5.0)).paper_number(), 11); // r3
        assert_eq!(g.cell_of(Point::new(2.0, 6.0)).paper_number(), 14); // geometry check
    }

    #[test]
    fn cell_of_clamps_outside_points() {
        let g = example_grid();
        assert_eq!(g.cell_of(Point::new(-1.0, -1.0)).paper_number(), 1);
        assert_eq!(g.cell_of(Point::new(9.0, 9.0)).paper_number(), 16);
    }

    #[test]
    fn top_right_boundary_belongs_to_last_cell() {
        let g = example_grid();
        assert_eq!(g.cell_of(Point::new(8.0, 8.0)).paper_number(), 16);
        assert_eq!(g.cell_of(Point::new(8.0, 0.0)).paper_number(), 4);
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = GridSpec::new(
            Rect::new(Point::new(-10.0, 5.0), Point::new(30.0, 25.0)),
            8,
            5,
        );
        for id in g.cells() {
            let r = g.cell_rect(id);
            let c = g.cell_center(id);
            assert!(r.contains(c));
            assert_eq!(g.cell_of(c), id, "center of {id:?} must map back");
        }
    }

    #[test]
    fn num_cells_and_dims() {
        let g = GridSpec::square(Rect::square(100.0), 10);
        assert_eq!(g.num_cells(), 100);
        assert!((g.cell_width() - 10.0).abs() < 1e-12);
        assert!((g.cell_height() - 10.0).abs() < 1e-12);
        assert_eq!(g.cells().count(), 100);
    }

    #[test]
    fn neighbors4_corner_edge_interior() {
        let g = GridSpec::square(Rect::square(3.0), 3);
        // corner cell 0 has 2 neighbours
        let n0: Vec<_> = g.neighbors4(CellId(0)).map(|c| c.0).collect();
        assert_eq!(n0.len(), 2);
        assert!(n0.contains(&1) && n0.contains(&3));
        // edge cell 1 has 3 neighbours
        assert_eq!(g.neighbors4(CellId(1)).count(), 3);
        // interior cell 4 has 4 neighbours
        let n4: Vec<_> = g.neighbors4(CellId(4)).map(|c| c.0).collect();
        assert_eq!(n4.len(), 4);
        for c in [1u32, 3, 5, 7] {
            assert!(n4.contains(&c));
        }
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = GridSpec::new(Rect::square(1.0), 0, 3);
    }
}
