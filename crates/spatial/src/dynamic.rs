//! Incremental bucket index for churn-driven workloads.
//!
//! [`crate::BucketIndex`] is rebuilt from scratch every time period, which
//! makes per-period cost proportional to the standing point set. In the
//! paper's 500k-worker scalability setting the set barely changes between
//! periods (a few percent of workers arrive, expire or relocate), so the
//! rebuild dominates. [`DynamicBucketIndex`] keeps the same bucketed
//! layout mutable: `insert` / `remove` cost one binary search plus a
//! slot shift in a single bucket, turning per-period index maintenance
//! into `O(churn · log bucket)`. Each bucket stores its
//! points struct-of-arrays (`xs` / `ys` / `payloads` lanes) so the
//! capped k-nearest distance loop runs over contiguous `f64` slices.
//!
//! ## Stable iteration order
//!
//! Each bucket keeps its slots **sorted by payload**. A fresh
//! [`crate::BucketIndex::build_with_grid`] over the same live set listed
//! in ascending payload order buckets points with a stable counting sort,
//! so its per-cell order is also ascending payload — both stores answer
//! disc queries through the same shared core in the same order, making
//! their results bit-identical. `k_nearest_within` additionally orders by
//! the total `(distance, payload)` key, so capped queries agree between
//! *differently sized* grids — which is what the next section leans on.
//!
//! ## The grid follows the live count
//!
//! Nearest-neighbour cost is set by the local density of buckets around
//! the query, so the bucket resolution has to track how many points are
//! live *now*, not how many the creator expected or how many ever passed
//! through. The index therefore re-buckets itself: whenever a mutation
//! would leave `len` outside the band `[cells / 4, 4 · cells]` it moves
//! every live point onto the grid the static index would pick for that
//! count (`√n × √n`, clamped to ≤ 256 per side). One regrid costs
//! `O(live · log live + buckets)`; the band is 16× wide and a regrid
//! lands `cells ≈ len` in its middle, so at least `~¾ · len` mutations
//! separate two regrids and a run that grows to `N` points regrids
//! `O(log N)` times — amortised `O(log live)` per churn event, next to
//! the binary search every event pays anyway. The grid handed to
//! [`DynamicBucketIndex::new`] / sized by
//! [`DynamicBucketIndex::with_expected_len`] is thus only where the
//! index *starts*.
//!
//! A regrid changes no answer: buckets stay payload-sorted (so
//! `for_each_within_disc` keeps equalling a fresh static build on
//! [`DynamicBucketIndex::grid`], the *current* grid), and
//! `k_nearest_within` is a pure function of the point set.

use crate::geom::{Point, Rect};
use crate::grid::GridSpec;
use crate::index::{for_each_within_disc_impl, k_nearest_within_impl, sqrt_side, BucketStore};

/// One cell's live points in struct-of-arrays layout: coordinates in
/// dense `f64` lanes separate from the payloads, kept sorted by payload.
/// The split is what lets the shared query cores run their distance
/// arithmetic over contiguous `f64` slices (SIMD-friendly) instead of
/// striding over `(Point, T)` tuples.
#[derive(Debug, Clone)]
struct CellSoA<T> {
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<T>,
}

impl<T> CellSoA<T> {
    const fn new() -> Self {
        Self {
            xs: Vec::new(),
            ys: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

/// A mutable bucket index over a changing set of points.
///
/// Payloads must be unique while live (they identify the point for
/// `remove`); the index panics on a duplicate insert into the same
/// bucket, the cheapest detectable violation.
#[derive(Debug, Clone)]
pub struct DynamicBucketIndex<T> {
    grid: GridSpec,
    /// `buckets[c]` holds the live points of cell `c`, sorted by payload.
    buckets: Vec<CellSoA<T>>,
    len: usize,
    /// Number of live points outside the grid region (disables the
    /// ring-search early termination while non-zero, exactly like the
    /// static index's `any_outside` flag).
    outside: usize,
    /// `(cell, payload, point)` scratch of the bulk operations and of a
    /// regrid, reused so steady-state churn application allocates
    /// nothing.
    tagged: Vec<(u32, T, Point)>,
}

impl<T: Copy + Ord> DynamicBucketIndex<T> {
    /// An empty index over `grid.region()`, initially bucketed by
    /// `grid`. Only a starting point: the index re-buckets itself to
    /// follow the live count (see the module docs).
    pub fn new(grid: GridSpec) -> Self {
        Self {
            grid,
            buckets: empty_buckets(grid.num_cells()),
            len: 0,
            outside: 0,
            tagged: Vec::new(),
        }
    }

    /// An empty index over `region`, initially at the bucket resolution
    /// the static index would pick for `expected_len` points (`√n × √n`,
    /// clamped to ≤ 256 per side). `expected_len` is an initial hint;
    /// the index follows the live count from the first mutation on.
    pub fn with_expected_len(region: Rect, expected_len: usize) -> Self {
        let side = sqrt_side(expected_len);
        Self::new(GridSpec::new(region, side, side))
    }

    /// The *current* bucketing grid — it changes when the index regrids.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a point.
    ///
    /// # Panics
    /// Panics if `payload` is already live in the same bucket.
    pub fn insert(&mut self, p: Point, payload: T) {
        self.fit_grid(self.len + 1);
        let bucket = &mut self.buckets[self.grid.cell_of(p).index()];
        match bucket.payloads.binary_search(&payload) {
            Ok(_) => panic!("duplicate payload inserted into dynamic index"),
            Err(pos) => {
                bucket.xs.insert(pos, p.x);
                bucket.ys.insert(pos, p.y);
                bucket.payloads.insert(pos, payload);
            }
        }
        self.len += 1;
        if !self.grid.region().contains(p) {
            self.outside += 1;
        }
    }

    /// Removes the point previously inserted at `p` with `payload`.
    /// Returns whether it was present (callers enforcing a stricter
    /// contract can treat `false` as a bug). `p` must be the inserted
    /// point exactly: a live payload offered with any other point is a
    /// miss whatever the current grid — a coarse grid that happens to
    /// file both points in one bucket does not turn it into a hit.
    pub fn remove(&mut self, p: Point, payload: T) -> bool {
        let bucket = &mut self.buckets[self.grid.cell_of(p).index()];
        match bucket.payloads.binary_search(&payload) {
            Ok(pos) if bucket.xs[pos] == p.x && bucket.ys[pos] == p.y => {
                bucket.xs.remove(pos);
                bucket.ys.remove(pos);
                bucket.payloads.remove(pos);
                self.len -= 1;
                if !self.grid.region().contains(p) {
                    self.outside -= 1;
                }
                self.fit_grid(self.len);
                true
            }
            _ => false,
        }
    }

    /// Inserts a batch of points with **one merge pass per touched
    /// bucket** instead of one `O(bucket)` lane shift per point. The
    /// resulting buckets are identical to inserting the items one by
    /// one (sorted by payload), so queries stay bit-identical — this is
    /// purely the churn-application fast path: a period applying `a`
    /// arrivals into a bucket of `b` points moves `O(a + b)` slots
    /// instead of `O(a · b)`.
    ///
    /// # Panics
    /// Panics if any payload is already live in the same bucket (or
    /// duplicated within `items` into the same bucket).
    pub fn insert_bulk(&mut self, items: &[(Point, T)]) {
        if items.len() <= 1 {
            if let Some(&(p, t)) = items.first() {
                self.insert(p, t);
            }
            return;
        }
        // Regrid for the size the batch leaves behind *before* it goes
        // in, so the arrivals are bucketed once.
        self.fit_grid(self.len + items.len());
        self.tag(items);
        self.for_each_tagged_group(merge_group);
        self.len += items.len();
        let region = self.grid.region();
        self.outside += items.iter().filter(|&&(p, _)| !region.contains(p)).count();
    }

    /// Removes a batch of points with **one compaction pass per touched
    /// bucket** instead of one `O(bucket)` lane shift per point —
    /// the departure-side twin of [`DynamicBucketIndex::insert_bulk`].
    /// Each `(point, payload)` pair must match how the point was
    /// inserted, exactly as for [`DynamicBucketIndex::remove`]; a pair
    /// that does not is a miss. Returns how many were found and
    /// removed; callers enforcing a stricter contract can compare
    /// against `items.len()`.
    pub fn remove_bulk(&mut self, items: &[(Point, T)]) -> usize {
        if items.len() <= 1 {
            return match items.first() {
                Some(&(p, t)) => usize::from(self.remove(p, t)),
                None => 0,
            };
        }
        self.tag(items);
        let region = self.grid.region();
        let mut removed = 0usize;
        let mut removed_outside = 0usize;
        self.for_each_tagged_group(|bucket, group| {
            // Two-pointer compaction: both the bucket lanes and the
            // group are payload-sorted, so one forward pass keeps every
            // survivor in order.
            let mut write = 0usize;
            let mut g = 0usize;
            for read in 0..bucket.payloads.len() {
                while g < group.len() && group[g].1 < bucket.payloads[read] {
                    g += 1;
                }
                if let Some(&(_, payload, p)) = group.get(g) {
                    if payload == bucket.payloads[read]
                        && p.x == bucket.xs[read]
                        && p.y == bucket.ys[read]
                    {
                        removed += 1;
                        removed_outside += usize::from(!region.contains(p));
                        g += 1;
                        continue;
                    }
                }
                bucket.xs[write] = bucket.xs[read];
                bucket.ys[write] = bucket.ys[read];
                bucket.payloads[write] = bucket.payloads[read];
                write += 1;
            }
            bucket.xs.truncate(write);
            bucket.ys.truncate(write);
            bucket.payloads.truncate(write);
        });
        self.len -= removed;
        self.outside -= removed_outside;
        // Regrid *after* the batch left, so only survivors move.
        self.fit_grid(self.len);
        removed
    }

    /// Re-buckets for `len` live points if that count lies outside the
    /// band `[cells / 4, 4 · cells]` of the current grid (and the
    /// `√n × √n` rule has a different grid to offer — it is clamped at
    /// both ends). Callers pass the count the index is about to hold.
    fn fit_grid(&mut self, len: usize) {
        let cells = self.grid.num_cells();
        if 4 * len >= cells && len <= 4 * cells {
            return;
        }
        let side = sqrt_side(len);
        if (self.grid.nx(), self.grid.ny()) != (side, side) {
            self.regrid(GridSpec::new(self.grid.region(), side, side));
        }
    }

    /// Moves every live point onto `grid`: one pass tags each point with
    /// its new cell, then the bulk-insert merge files the `(cell,
    /// payload)`-sorted runs into fresh buckets — payload order inside
    /// every bucket is rebuilt, not assumed.
    fn regrid(&mut self, grid: GridSpec) {
        self.tagged.clear();
        for bucket in &self.buckets {
            for ((&x, &y), &payload) in bucket.xs.iter().zip(&bucket.ys).zip(&bucket.payloads) {
                let p = Point::new(x, y);
                self.tagged
                    .push((grid.cell_of(p).index() as u32, payload, p));
            }
        }
        self.grid = grid;
        self.buckets = empty_buckets(grid.num_cells());
        self.for_each_tagged_group(merge_group);
    }

    /// Fills the scratch with `items` tagged by their cell.
    fn tag(&mut self, items: &[(Point, T)]) {
        self.tagged.clear();
        let grid = &self.grid;
        self.tagged.extend(
            items
                .iter()
                .map(|&(p, t)| (grid.cell_of(p).index() as u32, t, p)),
        );
    }

    /// Sorts the scratch by `(cell, payload)` — each cell's group is
    /// then a payload-sorted run — and hands every run to `f` together
    /// with its bucket.
    fn for_each_tagged_group(&mut self, mut f: impl FnMut(&mut CellSoA<T>, &[(u32, T, Point)])) {
        self.tagged
            .sort_unstable_by_key(|&(cell, payload, _)| (cell, payload));
        for group in self.tagged.chunk_by(|a, b| a.0 == b.0) {
            f(&mut self.buckets[group[0].0 as usize], group);
        }
    }

    /// Calls `f(point, payload)` for every live point within the closed
    /// disc of `radius` around `center`, in the same order as a fresh
    /// [`crate::BucketIndex`] built over the live set in ascending
    /// payload order.
    pub fn for_each_within_disc(&self, center: Point, radius: f64, f: impl FnMut(Point, T)) {
        for_each_within_disc_impl(self, center, radius, f);
    }

    /// Collects all payloads within the closed disc around `center`.
    pub fn within_disc(&self, center: Point, radius: f64) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_within_disc(center, radius, |_, t| out.push(t));
        out
    }

    /// The `k` nearest qualifying points within `radius` of `center`
    /// under the total `(distance, payload)` order — identical results
    /// to [`crate::BucketIndex::k_nearest_within`] on the same live set,
    /// whatever grid either index uses.
    pub fn k_nearest_within(
        &self,
        center: Point,
        radius: f64,
        k: usize,
        accept: impl FnMut(f64, T) -> bool,
    ) -> Vec<(f64, T)> {
        k_nearest_within_impl(self, center, radius, k, accept)
    }

    /// [`DynamicBucketIndex::k_nearest_within`] writing into a
    /// caller-supplied buffer (cleared first) — same results, no
    /// per-query allocation, for hot loops issuing many queries per
    /// period (the sharded service's capped graph build).
    pub fn k_nearest_within_into(
        &self,
        center: Point,
        radius: f64,
        k: usize,
        accept: impl FnMut(f64, T) -> bool,
        out: &mut Vec<(f64, T)>,
    ) {
        crate::index::k_nearest_within_into_impl(self, center, radius, k, accept, out);
    }
}

fn empty_buckets<T>(cells: usize) -> Vec<CellSoA<T>> {
    std::iter::repeat_with(CellSoA::new).take(cells).collect()
}

/// Back-merges one payload-sorted group of `(cell, payload, point)`
/// entries into a bucket whose lanes are payload-sorted: the lanes grow
/// by `n` and one backwards merge writes every slot exactly once —
/// `O(old + n)` moves total, against `O(n · old)` for `n` one-at-a-time
/// sorted inserts. Panics on any payload collision (within the group or
/// against the bucket), matching [`DynamicBucketIndex::insert`].
fn merge_group<T: Copy + Ord>(bucket: &mut CellSoA<T>, group: &[(u32, T, Point)]) {
    for pair in group.windows(2) {
        assert!(
            pair[0].1 != pair[1].1,
            "duplicate payload inserted into dynamic index"
        );
    }
    let old = bucket.payloads.len();
    let n = group.len();
    bucket.xs.resize(old + n, 0.0);
    bucket.ys.resize(old + n, 0.0);
    bucket.payloads.extend(group.iter().map(|g| g.1));
    let mut wp = old + n;
    let mut ro = old;
    let mut rn = n;
    while rn > 0 {
        let (_, payload, p) = group[rn - 1];
        if ro > 0 {
            assert!(
                bucket.payloads[ro - 1] != payload,
                "duplicate payload inserted into dynamic index"
            );
        }
        wp -= 1;
        if ro > 0 && bucket.payloads[ro - 1] > payload {
            bucket.xs[wp] = bucket.xs[ro - 1];
            bucket.ys[wp] = bucket.ys[ro - 1];
            bucket.payloads[wp] = bucket.payloads[ro - 1];
            ro -= 1;
        } else {
            bucket.xs[wp] = p.x;
            bucket.ys[wp] = p.y;
            bucket.payloads[wp] = payload;
            rn -= 1;
        }
    }
}

impl<T: Copy> BucketStore<T> for DynamicBucketIndex<T> {
    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn any_outside(&self) -> bool {
        self.outside > 0
    }

    fn cell_slices(&self, cell: usize) -> (&[f64], &[f64], &[T]) {
        let bucket = &self.buckets[cell];
        (&bucket.xs, &bucket.ys, &bucket.payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BucketIndex;

    use maps_testkit::XorShift;

    /// Fresh static index over `live` (ascending payload) on `grid`.
    fn rebuild(grid: GridSpec, live: &[(Point, u32)]) -> BucketIndex<u32> {
        let mut sorted = live.to_vec();
        sorted.sort_by_key(|&(_, t)| t);
        BucketIndex::build_with_grid(grid, &sorted)
    }

    fn disc_trace(
        q: impl Fn(Point, f64, &mut dyn FnMut(Point, u32)),
        c: Point,
        r: f64,
    ) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        q(c, r, &mut |p, t| {
            out.push((p.x.to_bits(), p.y.to_bits(), t))
        });
        out
    }

    /// Random insert/remove/relocate churn: every query result (order
    /// included) must equal a fresh static rebuild of the live set on
    /// the index's current grid (`tests/regrid_oracle.rs` drives the
    /// same comparison across regrids, bulk ops included).
    #[test]
    fn queries_match_fresh_rebuild_under_churn() {
        let mut dynamic = DynamicBucketIndex::new(GridSpec::square(Rect::square(100.0), 9));
        let mut live: Vec<(Point, u32)> = Vec::new();
        let mut rng = XorShift(0x5EED);
        let mut next_id = 0u32;
        for step in 0..400 {
            let op = rng.next_u64() % 4;
            if op == 0 || live.len() < 4 {
                // ~8% of points land outside the region to exercise the
                // clamped-bucket bookkeeping.
                let scale = if rng.next_u64().is_multiple_of(12) {
                    130.0
                } else {
                    100.0
                };
                let p = Point::new(rng.next_f64() * scale - 10.0, rng.next_f64() * scale - 10.0);
                dynamic.insert(p, next_id);
                live.push((p, next_id));
                next_id += 1;
            } else if op == 1 {
                let victim = (rng.next_u64() as usize) % live.len();
                let (p, id) = live.swap_remove(victim);
                assert!(dynamic.remove(p, id));
            } else if op == 2 {
                let mover = (rng.next_u64() as usize) % live.len();
                let to = Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0);
                let (from, id) = live[mover];
                assert!(dynamic.remove(from, id));
                dynamic.insert(to, id);
                live[mover].0 = to;
            }
            if step % 13 != 0 {
                continue;
            }
            assert_eq!(dynamic.len(), live.len());
            let fresh = rebuild(*dynamic.grid(), &live);
            let c = Point::new(rng.next_f64() * 110.0 - 5.0, rng.next_f64() * 110.0 - 5.0);
            let r = rng.next_f64() * 40.0;
            assert_eq!(
                disc_trace(|c, r, f| dynamic.for_each_within_disc(c, r, f), c, r),
                disc_trace(|c, r, f| fresh.for_each_within_disc(c, r, f), c, r),
                "disc trace diverged at step {step}"
            );
            let k = 1 + (rng.next_u64() as usize) % 8;
            let got = dynamic.k_nearest_within(c, r, k, |_, t| t % 3 != 0);
            let want = fresh.k_nearest_within(c, r, k, |_, t| t % 3 != 0);
            assert_eq!(got.len(), want.len(), "k-nearest count at step {step}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0.to_bits(), w.0.to_bits(), "distance bits at step {step}");
                assert_eq!(g.1, w.1, "payload at step {step}");
            }
        }
    }

    /// The `(distance, payload)` order makes k-nearest independent of
    /// the bucketing grid, including between dynamic and static stores.
    #[test]
    fn k_nearest_is_grid_independent_under_ties() {
        // Four points exactly equidistant from the query centre.
        let items = [
            (Point::new(5.0, 7.0), 3u32),
            (Point::new(5.0, 3.0), 0),
            (Point::new(3.0, 5.0), 2),
            (Point::new(7.0, 5.0), 1),
        ];
        let ids = |v: Vec<(f64, u32)>| v.into_iter().map(|(_, t)| t).collect::<Vec<_>>();
        for side in [1u32, 2, 5, 16] {
            let grid = GridSpec::square(Rect::square(10.0), side);
            let mut dynamic = DynamicBucketIndex::new(grid);
            for &(p, t) in &items {
                dynamic.insert(p, t);
            }
            let fresh = BucketIndex::build_with_grid(grid, &items);
            let c = Point::new(5.0, 5.0);
            assert_eq!(
                ids(dynamic.k_nearest_within(c, 5.0, 2, |_, _| true)),
                vec![0, 1],
                "side {side}"
            );
            assert_eq!(
                ids(fresh.k_nearest_within(c, 5.0, 2, |_, _| true)),
                vec![0, 1],
                "static side {side}"
            );
        }
    }

    #[test]
    fn remove_of_absent_payload_returns_false() {
        let mut idx = DynamicBucketIndex::new(GridSpec::square(Rect::square(10.0), 4));
        idx.insert(Point::new(1.0, 1.0), 7u32);
        assert!(!idx.remove(Point::new(1.0, 1.0), 8));
        // Wrong point: same payload, different cell on any grid finer
        // than the 1×1 a single point regrids to.
        assert!(!idx.remove(Point::new(9.0, 9.0), 7));
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(Point::new(1.0, 1.0), 7));
        assert!(idx.is_empty());
    }

    /// A live payload offered with a point it was not inserted at is a
    /// miss for `remove` and `remove_bulk` alike — in another bucket (a
    /// populated 8×8 grid), in the same bucket, and from outside the
    /// region (which must not touch the `outside` count either). This is
    /// the miss `PeriodGraphCache::apply` turns into its "live worker
    /// missing from the spatial index" fault.
    #[test]
    fn remove_with_wrong_point_is_a_miss() {
        let mut idx = DynamicBucketIndex::<u32>::with_expected_len(Rect::square(80.0), 64);
        let at = |i: u32| Point::new((i % 8) as f64 * 10.0 + 5.0, (i / 8) as f64 * 10.0 + 5.0);
        let items: Vec<_> = (0..64).map(|i| (at(i), i)).collect();
        idx.insert_bulk(&items);
        assert_eq!(idx.grid().nx(), 8);
        let wrong = [
            (at(63), 0u32),              // far bucket
            (Point::new(5.5, 5.5), 0),   // same bucket, other point
            (Point::new(-3.0, -3.0), 0), // outside, clamps into 0's bucket
            (at(1), 62),
        ];
        for &(p, id) in &wrong {
            assert!(!idx.remove(p, id), "remove({p:?}, {id})");
        }
        assert_eq!(idx.remove_bulk(&wrong), 0);
        // Misses next to hits in one batch: only the hits leave.
        assert_eq!(
            idx.remove_bulk(&[wrong[0], (at(7), 7), wrong[3], (at(9), 9)]),
            2
        );
        assert_eq!(idx.len(), 62);
        assert!(!idx.any_outside());
        let mut left = idx.within_disc(Point::new(40.0, 40.0), 100.0);
        left.sort_unstable();
        let want: Vec<u32> = (0..64).filter(|i| ![7, 9].contains(i)).collect();
        assert_eq!(left, want);
        // Down at a handful of points the grid is 1×1 and every wrong
        // point shares the one bucket with its payload: still a miss.
        let rest: Vec<_> = (1..64)
            .filter(|i| ![7, 9].contains(i))
            .map(|i| (at(i), i))
            .collect();
        assert_eq!(idx.remove_bulk(&rest), rest.len());
        assert_eq!((idx.len(), idx.grid().nx()), (1, 1));
        assert!(!idx.remove(wrong[1].0, 0));
        assert!(!idx.remove(wrong[2].0, 0));
        assert_eq!(idx.remove_bulk(&wrong[..3]), 0);
        assert!(idx.remove(at(0), 0));
        assert!(idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate payload")]
    fn duplicate_insert_in_same_bucket_panics() {
        let mut idx = DynamicBucketIndex::new(GridSpec::square(Rect::square(10.0), 2));
        idx.insert(Point::new(1.0, 1.0), 7u32);
        idx.insert(Point::new(1.5, 1.5), 7u32);
    }

    #[test]
    fn outside_points_keep_queries_exact() {
        let grid = GridSpec::square(Rect::square(10.0), 4);
        let mut idx = DynamicBucketIndex::new(grid);
        idx.insert(Point::new(12.0, 12.0), 0u32);
        idx.insert(Point::new(9.0, 9.0), 1);
        let got: Vec<u32> = idx
            .k_nearest_within(Point::new(11.0, 11.0), 5.0, 2, |_, _| true)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(got, vec![0, 1]);
        // Removing the outside point re-enables ring termination; results
        // stay exact either way.
        assert!(idx.remove(Point::new(12.0, 12.0), 0));
        assert_eq!(idx.within_disc(Point::new(9.0, 9.0), 0.5), vec![1]);
    }

    /// Degenerate cap values: `k = 0` returns nothing, and any `k` at or
    /// beyond the live-set size returns the whole in-radius set in
    /// `(distance, payload)` order — capped and uncapped queries agree.
    #[test]
    fn k_nearest_degenerate_k_values() {
        let grid = GridSpec::square(Rect::square(100.0), 9);
        let mut dynamic = DynamicBucketIndex::new(grid);
        let mut live: Vec<(Point, u32)> = Vec::new();
        let mut rng = XorShift(0xD0_5EED);
        for id in 0..37u32 {
            let p = Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0);
            dynamic.insert(p, id);
            live.push((p, id));
        }
        let c = Point::new(50.0, 50.0);
        let r = 35.0;
        assert!(dynamic.k_nearest_within(c, r, 0, |_, _| true).is_empty());
        let mut buf = Vec::new();
        dynamic.k_nearest_within_into(c, r, 0, |_, _| true, &mut buf);
        assert!(buf.is_empty());
        // Every k >= the live-set size yields the identical full
        // in-radius answer (fresh-rebuild order), bit for bit.
        let fresh = rebuild(grid, &live);
        let all = fresh.k_nearest_within(c, r, live.len(), |_, _| true);
        assert!(!all.is_empty(), "fixture must have in-radius points");
        for k in [live.len(), live.len() + 1, usize::MAX] {
            let got = dynamic.k_nearest_within(c, r, k, |_, _| true);
            assert_eq!(got.len(), all.len(), "k={k}");
            for (g, w) in got.iter().zip(&all) {
                assert_eq!(g.0.to_bits(), w.0.to_bits(), "k={k}");
                assert_eq!(g.1, w.1, "k={k}");
            }
        }
    }

    #[test]
    fn expected_len_sizes_only_the_empty_index() {
        let idx = DynamicBucketIndex::<u32>::with_expected_len(Rect::square(100.0), 10_000);
        assert_eq!(idx.grid().nx(), 100);
        let mut idx = DynamicBucketIndex::<u32>::with_expected_len(Rect::square(100.0), 1_000_000);
        assert_eq!(idx.grid().nx(), 256, "clamped at 256 per side");
        // The hint is where the index starts; the live count takes over.
        let items: Vec<_> = (0..400u32)
            .map(|i| (Point::new((i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0), i))
            .collect();
        idx.insert_bulk(&items);
        assert_eq!(idx.grid().nx(), 20, "√400");
    }
}
