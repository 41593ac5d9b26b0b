//! Bucketed spatial index for radius queries.
//!
//! Building the probabilistic bipartite graph `B^t` (Definition 5) requires,
//! for every worker `w`, all tasks whose origin lies within the disc
//! `(l_w, a_w)`. A naive scan is `O(|R|·|W|)` per period; the paper's
//! scalability experiment goes to `|R| = |W| = 500 000`, which makes the
//! naive scan infeasible. We bucket points by the cell of an internal
//! [`GridSpec`] and answer disc queries by scanning only the cells that
//! intersect the disc.

use crate::geom::{Point, Rect};
use crate::grid::GridSpec;

/// Internal abstraction over bucketed point storage: the static
/// [`BucketIndex`] keeps one CSR arena, the incremental
/// [`crate::DynamicBucketIndex`] keeps one sorted slot vector per cell.
/// Both answer queries through the shared [`for_each_within_disc_impl`] /
/// [`k_nearest_within_impl`] cores below, which is what makes their query
/// results bit-identical on the same point set.
///
/// Storage is struct-of-arrays: coordinates live in dense `f64` slices
/// separate from the payloads, so the distance loops in the query cores
/// compile to straight-line arithmetic over contiguous lanes (no
/// `(Point, T)` stride) and autovectorize.
pub(crate) trait BucketStore<T> {
    /// The bucketing grid.
    fn grid(&self) -> &GridSpec;
    /// Whether any stored point lies outside the grid region (disables
    /// the ring-search early termination of `k_nearest_within_impl`).
    fn any_outside(&self) -> bool;
    /// The points bucketed into `cell` as parallel `(xs, ys, payloads)`
    /// slices of equal length, in the store's iteration order.
    fn cell_slices(&self, cell: usize) -> (&[f64], &[f64], &[T]);
}

/// Calls `f(point, payload)` for every stored point within the closed
/// disc of `radius` around `center`.
///
/// Points are bucketed by their *clamped* position. Clamping is a
/// contraction (1-Lipschitz), so every point within `radius` of `center`
/// has a clamped position within `radius` of the clamped centre —
/// pruning on the clamped disc is therefore sound even for points (or
/// centres) outside the region.
pub(crate) fn for_each_within_disc_impl<T: Copy>(
    store: &impl BucketStore<T>,
    center: Point,
    radius: f64,
    mut f: impl FnMut(Point, T),
) {
    let r2 = radius * radius;
    let grid = store.grid();
    let bucket_center = center.clamped(grid.region());
    for cell in grid.cells_intersecting_disc(bucket_center, radius) {
        let (xs, ys, ts) = store.cell_slices(cell.index());
        // Same float sequence as `Point::euclidean_sq(p, center)`, over
        // SoA lanes.
        for i in 0..xs.len() {
            let dx = xs[i] - center.x;
            let dy = ys[i] - center.y;
            if dx * dx + dy * dy <= r2 {
                f(Point::new(xs[i], ys[i]), ts[i]);
            }
        }
    }
}

/// The `k` nearest qualifying points within `radius` of `center` under
/// the total order `(distance, payload)` — see
/// [`BucketIndex::k_nearest_within`] for the full contract. Because the
/// order is total, the result is independent of bucket layout and visit
/// order: two stores holding the same point set return the same `k`
/// pairs even when their grids differ.
pub(crate) fn k_nearest_within_impl<T: Copy + Ord>(
    store: &impl BucketStore<T>,
    center: Point,
    radius: f64,
    k: usize,
    accept: impl FnMut(f64, T) -> bool,
) -> Vec<(f64, T)> {
    let mut best = Vec::new();
    k_nearest_within_into_impl(store, center, radius, k, accept, &mut best);
    best
}

/// [`k_nearest_within_impl`] writing into a caller-supplied buffer
/// (cleared first), so per-query allocation amortizes away in hot loops
/// that issue many queries per period — the sharded service's capped
/// graph build issues `shards × tasks` of them per tick.
pub(crate) fn k_nearest_within_into_impl<T: Copy + Ord>(
    store: &impl BucketStore<T>,
    center: Point,
    radius: f64,
    k: usize,
    mut accept: impl FnMut(f64, T) -> bool,
    best: &mut Vec<(f64, T)>,
) {
    best.clear();
    if k == 0 {
        return;
    }
    let grid = store.grid();
    // Degenerate caps (k near usize::MAX, i.e. "uncapped") must not
    // overflow or over-reserve; growth past the hint is amortized anyway.
    best.reserve(k.saturating_add(1).min(1024));
    if store.any_outside() {
        for_each_within_disc_impl(store, center, radius, |p, t| {
            let d = p.euclidean(center);
            if prune(d, k, best) {
                return;
            }
            if accept(d, t) {
                push(d, t, k, best);
            }
        });
        return;
    }
    let (cx, cy) = grid.cell_coords(center.clamped(grid.region()));
    let (cx, cy) = (cx as i64, cy as i64);
    let nx = grid.nx() as i64;
    let ny = grid.ny() as i64;
    let min_side = grid.cell_width().min(grid.cell_height());
    let max_ring = (grid.nx().max(grid.ny())) as i64;
    let r2 = radius * radius;
    let mut visit = |x: i64, y: i64, best: &mut Vec<(f64, T)>| {
        if x < 0 || x >= nx || y < 0 || y >= ny {
            return;
        }
        let cell = (y * nx + x) as usize;
        scan_cell(store.cell_slices(cell), center, r2, k, &mut accept, best);
    };
    for ring in 0..=max_ring {
        // Nothing in ring `d` can be closer than (d-1)·min_side. The
        // break is strict, so rings that could still hold an equal
        // distance (smaller payload) are always visited — required for
        // the (distance, payload) order to be exact.
        let ring_lb = ((ring - 1).max(0) as f64) * min_side;
        let kth = best.last().map(|&(d, _)| d);
        if ring_lb > radius || (best.len() == k && kth.is_some_and(|d| ring_lb > d)) {
            break;
        }
        if ring == 0 {
            visit(cx, cy, best);
        } else {
            for dx in -ring..=ring {
                visit(cx + dx, cy - ring, best);
                visit(cx + dx, cy + ring, best);
            }
            for dy in (-ring + 1)..ring {
                visit(cx - ring, cy + dy, best);
                visit(cx + ring, cy + dy, best);
            }
        }
    }
}

/// One cell of the ring search: distance arithmetic over the SoA lanes,
/// then the prune → accept → ordered-insert tail for in-radius hits.
/// Generic over `accept` (monomorphized, so the predicate inlines into
/// the loop — this used to go through `&mut dyn FnMut`, one indirect
/// call per candidate).
#[inline]
fn scan_cell<T: Copy + Ord>(
    (xs, ys, ts): (&[f64], &[f64], &[T]),
    center: Point,
    r2: f64,
    k: usize,
    accept: &mut impl FnMut(f64, T) -> bool,
    best: &mut Vec<(f64, T)>,
) {
    // Same float sequence as `Point::euclidean_sq(p, center)` followed
    // by `.sqrt()` (= `Point::euclidean`), over SoA lanes: the pure
    // distance arithmetic vectorizes and only in-radius hits fall
    // through to the ordered insert.
    for i in 0..xs.len() {
        let dx = xs[i] - center.x;
        let dy = ys[i] - center.y;
        let d2 = dx * dx + dy * dy;
        if d2 <= r2 {
            let d = d2.sqrt();
            if prune(d, k, best) {
                continue;
            }
            if accept(d, ts[i]) {
                push(d, ts[i], k, best);
            }
        }
    }
}

/// Whether a candidate at distance `d` can be discarded without
/// consulting `accept`: once `best` holds `k` entries, anything
/// *strictly* farther than the current k-th cannot enter the result
/// under the `(distance, payload)` total order. Equal-distance
/// candidates still go through the insert (a smaller payload displaces
/// the k-th), and `accept` must be a pure predicate of `(d, payload)` —
/// the ring early-termination already skips it for whole pruned rings,
/// so its call pattern was never part of the contract.
#[inline]
fn prune<T: Copy>(d: f64, k: usize, best: &[(f64, T)]) -> bool {
    best.len() == k && best.last().is_some_and(|&(kd, _)| d > kd)
}

/// Keeps `best` sorted ascending by (distance, payload) and capped at
/// k entries; inserting every non-pruned candidate yields the k
/// smallest under the total order regardless of visit order.
#[inline]
fn push<T: Copy + Ord>(d: f64, t: T, k: usize, best: &mut Vec<(f64, T)>) {
    let pos = best.partition_point(|&(bd, bt)| bd < d || (bd == d && bt <= t));
    best.insert(pos, (d, t));
    if best.len() > k {
        best.pop();
    }
}

/// The bucket-grid side both indexes size themselves by: `√n × √n`
/// buckets for `n` points (a handful of points per bucket at most),
/// clamped to `1..=256` per side.
pub(crate) fn sqrt_side(n: usize) -> u32 {
    ((n.max(1) as f64).sqrt().ceil() as u32).clamp(1, 256)
}

/// A static bucket index over a set of points.
///
/// Generic over the payload `T` carried with each point (typically a task
/// or worker index). Build once per time period with [`BucketIndex::build`],
/// then issue [`BucketIndex::within_disc`] queries.
#[derive(Debug, Clone)]
pub struct BucketIndex<T> {
    grid: GridSpec,
    /// CSR layout: `starts[c]..starts[c+1]` indexes the SoA arrays for
    /// cell `c`.
    starts: Vec<u32>,
    /// X coordinates, SoA lane parallel to `ys` / `payloads`.
    xs: Vec<f64>,
    /// Y coordinates.
    ys: Vec<f64>,
    /// Payloads.
    payloads: Vec<T>,
    /// Whether any indexed point lies outside the grid region (disables
    /// the ring-search early termination of `k_nearest_within`).
    any_outside: bool,
}

impl<T: Copy> BucketIndex<T> {
    /// Builds an index over `items`, bucketing by a grid sized so that the
    /// average bucket holds a handful of points (heuristic `√n × √n`,
    /// clamped to ≤ 256 per side).
    pub fn build(region: Rect, items: &[(Point, T)]) -> Self {
        let side = sqrt_side(items.len());
        Self::build_with_grid(GridSpec::new(region, side, side), items)
    }

    /// Builds an index bucketed by an explicit grid. Points outside the
    /// grid's region are clamped into boundary cells (consistent with
    /// [`GridSpec::cell_of`]); the query still checks exact distances, so
    /// clamping never produces false positives.
    pub fn build_with_grid(grid: GridSpec, items: &[(Point, T)]) -> Self {
        let cells = grid.num_cells();
        // Counting sort into CSR buckets: one pass to count, one to place.
        let mut starts = vec![0u32; cells + 1];
        for &(p, _) in items {
            starts[grid.cell_of(p).index() + 1] += 1;
        }
        for c in 0..cells {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        // Place via a permutation so the SoA lanes are written exactly once.
        let mut order = vec![0u32; items.len()];
        for (i, &(p, _)) in items.iter().enumerate() {
            let c = grid.cell_of(p).index();
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        let mut xs = Vec::with_capacity(items.len());
        let mut ys = Vec::with_capacity(items.len());
        let mut payloads = Vec::with_capacity(items.len());
        for i in order {
            let (p, t) = items[i as usize];
            xs.push(p.x);
            ys.push(p.y);
            payloads.push(t);
        }
        let region = grid.region();
        let any_outside = items.iter().any(|&(p, _)| !region.contains(p));
        Self {
            grid,
            starts,
            xs,
            ys,
            payloads,
            any_outside,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Calls `f(point, payload)` for every indexed point within the closed
    /// disc of `radius` around `center`.
    pub fn for_each_within_disc(&self, center: Point, radius: f64, f: impl FnMut(Point, T)) {
        for_each_within_disc_impl(self, center, radius, f);
    }

    /// Collects all payloads within the closed disc around `center`.
    pub fn within_disc(&self, center: Point, radius: f64) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_within_disc(center, radius, |_, t| out.push(t));
        out
    }
}

impl<T: Copy + Ord> BucketIndex<T> {
    /// The `k` nearest qualifying points within `radius` of `center`,
    /// sorted ascending by `(distance, payload)`. `accept(distance,
    /// payload)` lets the caller impose extra constraints (e.g. a
    /// per-worker range limit).
    ///
    /// Equal distances are broken by the smaller payload, which makes the
    /// result a pure function of the *point set* — independent of the
    /// bucketing grid and of insertion order. This is what lets the
    /// incremental [`crate::DynamicBucketIndex`] (whose grid follows
    /// its live count, regridding as it goes) reproduce a fresh build's
    /// capped-graph queries bit-for-bit.
    ///
    /// Buckets are visited in concentric Chebyshev rings around the
    /// centre cell and the search stops as soon as the next ring cannot
    /// contain anything closer than the current `k`-th candidate — with
    /// densely packed points this touches `O(k)` entries instead of the
    /// whole disc, which is what keeps the 500k-worker scalability
    /// experiment tractable.
    ///
    /// Correct early termination requires the indexed points to lie
    /// inside the index region (out-of-region points are clamped into
    /// boundary buckets, breaking the ring lower bound); when any indexed
    /// point was outside, this method transparently falls back to a full
    /// disc scan.
    pub fn k_nearest_within(
        &self,
        center: Point,
        radius: f64,
        k: usize,
        accept: impl FnMut(f64, T) -> bool,
    ) -> Vec<(f64, T)> {
        k_nearest_within_impl(self, center, radius, k, accept)
    }
}

impl<T: Copy> BucketStore<T> for BucketIndex<T> {
    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn any_outside(&self) -> bool {
        self.any_outside
    }

    fn cell_slices(&self, cell: usize) -> (&[f64], &[f64], &[T]) {
        let lo = self.starts[cell] as usize;
        let hi = self.starts[cell + 1] as usize;
        (&self.xs[lo..hi], &self.ys[lo..hi], &self.payloads[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(items: &[(Point, usize)], c: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = items
            .iter()
            .filter(|(p, _)| p.euclidean_sq(c) <= r * r)
            .map(|&(_, t)| t)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let idx: BucketIndex<usize> = BucketIndex::build(Rect::square(10.0), &[]);
        assert!(idx.is_empty());
        assert_eq!(
            idx.within_disc(Point::new(5.0, 5.0), 100.0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn single_point() {
        let items = [(Point::new(3.0, 3.0), 7usize)];
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.within_disc(Point::new(3.0, 4.0), 1.0), vec![7]);
        assert_eq!(
            idx.within_disc(Point::new(3.0, 4.5), 1.0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn matches_brute_force_on_lattice() {
        let mut items = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                items.push((Point::new(i as f64 * 0.5, j as f64 * 0.5), items.len()));
            }
        }
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        for &(c, r) in &[
            (Point::new(5.0, 5.0), 2.5),
            (Point::new(0.0, 0.0), 1.0),
            (Point::new(9.9, 9.9), 3.0),
            (Point::new(5.0, 5.0), 0.0),
            (Point::new(-2.0, 5.0), 4.0), // centre outside the region
        ] {
            let mut got = idx.within_disc(c, r);
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, c, r), "query c={c:?} r={r}");
        }
    }

    #[test]
    fn points_outside_region_are_still_found() {
        // Clamped bucketing must not lose points that lie outside the
        // nominal region (workers can drift out when relocating).
        let items = [(Point::new(12.0, 12.0), 1usize), (Point::new(5.0, 5.0), 2)];
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        assert_eq!(idx.within_disc(Point::new(12.0, 12.0), 0.5), vec![1]);
        // and a big disc finds both
        let mut all = idx.within_disc(Point::new(8.0, 8.0), 10.0);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut items = Vec::new();
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..500 {
            items.push((Point::new(next() * 100.0, next() * 100.0), i));
        }
        let idx = BucketIndex::build(Rect::square(100.0), &items);
        for &(c, r, k) in &[
            (Point::new(50.0, 50.0), 20.0, 8usize),
            (Point::new(0.0, 0.0), 15.0, 5),
            (Point::new(99.0, 3.0), 50.0, 1),
            (Point::new(50.0, 50.0), 5.0, 100), // fewer than k in range
            (Point::new(50.0, 50.0), 0.0, 3),
        ] {
            let got = idx.k_nearest_within(c, r, k, |_, _| true);
            let mut want: Vec<(f64, usize)> = items
                .iter()
                .filter(|(p, _)| p.euclidean(c) <= r)
                .map(|&(p, t)| (p.euclidean(c), t))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            want.truncate(k);
            assert_eq!(got.len(), want.len(), "c={c:?} r={r} k={k}");
            for ((gd, gt), (wd, wt)) in got.iter().zip(&want) {
                assert!((gd - wd).abs() < 1e-12, "c={c:?} r={r} k={k}");
                assert_eq!(gt, wt, "c={c:?} r={r} k={k}");
            }
        }
    }

    #[test]
    fn k_nearest_respects_accept_filter() {
        let items = [
            (Point::new(1.0, 0.0), 0usize),
            (Point::new(2.0, 0.0), 1),
            (Point::new(3.0, 0.0), 2),
        ];
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        // Reject the nearest point: the other two must be returned.
        let got = idx.k_nearest_within(Point::ORIGIN, 10.0, 2, |_, t| t != 0);
        let ids: Vec<usize> = got.iter().map(|&(_, t)| t).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn k_nearest_zero_k() {
        let items = [(Point::new(1.0, 1.0), 0usize)];
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        assert!(idx
            .k_nearest_within(Point::ORIGIN, 10.0, 0, |_, _| true)
            .is_empty());
    }

    #[test]
    fn k_nearest_with_outside_points_falls_back() {
        // One point outside the region: results must still be exact.
        let items = [
            (Point::new(12.0, 12.0), 0usize),
            (Point::new(9.0, 9.0), 1),
            (Point::new(1.0, 1.0), 2),
        ];
        let idx = BucketIndex::build(Rect::square(10.0), &items);
        let got = idx.k_nearest_within(Point::new(11.0, 11.0), 5.0, 2, |_, _| true);
        let ids: Vec<usize> = got.iter().map(|&(_, t)| t).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn explicit_grid_build() {
        let grid = GridSpec::square(Rect::square(8.0), 4);
        let items = [
            (Point::new(1.0, 5.0), 0usize), // r2's origin
            (Point::new(5.0, 5.0), 1),      // r3's origin
        ];
        let idx = BucketIndex::build_with_grid(grid, &items);
        // w1 at (3,5) radius 2.5 reaches both (running example).
        let mut got = idx.within_disc(Point::new(3.0, 5.0), 2.5);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        // w2 at (7,5) reaches only r3.
        assert_eq!(idx.within_disc(Point::new(7.0, 5.0), 2.5), vec![1]);
    }
}
