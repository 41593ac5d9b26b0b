//! The bucket index: a mutable point set answering capped k-nearest
//! queries.
//!
//! In the paper's 500k-worker scalability setting the worker set barely
//! changes between periods (a few percent arrive, expire or relocate),
//! so a per-period rebuild would dominate. [`DynamicBucketIndex`] keeps
//! its bucketed layout mutable: an arrival or a departure costs `O(1)` —
//! a push or a `swap_remove` on the one bucket it touches, found through
//! a table by slot — so per-period index maintenance follows the churn,
//! not the live count.
//!
//! ## A bucket is one lane
//!
//! Each bucket is a single `Vec` of `(point, payload)` entries, in no
//! particular order. The `√n × √n` rule below keeps a bucket at a
//! handful of points (1–7 on the service's pools), so there is no run of
//! coordinates long enough for separate `x` / `y` lanes to vectorise;
//! what a query pays per visited bucket is the header it reads (24 B for
//! one `Vec`) and the pointer it chases (one), and what a mutation pays
//! is a push, or a `swap_remove` and the repointing of the one entry it
//! moved — no merge, no compaction.
//!
//! ## Payloads name dense slots
//!
//! A payload names a slot ([`Slotted`]), unique among live payloads.
//! The index keeps one `(cell, position)` entry per slot, up to the
//! largest slot ever inserted, so slots must be dense: below the peak
//! live count, or near it (a `u32` payload is its own slot; the graph
//! cache recycles its slots through a free list). `remove` finds a point
//! through that table instead of searching for it, and `insert` refuses
//! a slot that is already live, whichever bucket holds it.
//!
//! ## Answers are functions of the point set
//!
//! `k_nearest_within` orders by the total `(distance, payload)` key, so
//! no answer depends, as a set, on the grid the points are bucketed by,
//! on insertion order or on the order inside a bucket — which is
//! history, since a `swap_remove` moves a bucket's last entry into the
//! gap. That one order is the whole grid- and history-independence
//! argument, and what the next section leans on.
//!
//! ## The grid follows the live count
//!
//! Nearest-neighbour cost is set by the local density of buckets around
//! the query, so the bucket resolution has to track how many points are
//! live *now*, not how many the creator expected or how many ever passed
//! through. The index therefore re-buckets itself: whenever a mutation
//! would leave `len` outside the band `[cells / 4, 4 · cells]` it moves
//! every live point onto the `√n × √n` grid for that count (clamped to
//! ≤ 256 per side). One regrid costs `O(live + buckets)`; the band is
//! 16× wide and a regrid lands `cells ≈ len` in its middle, so at least
//! `~¾ · len` mutations separate two regrids and a run that grows to `N`
//! points regrids `O(log N)` times — amortised `O(1)` per churn event.
//! The grid handed to [`DynamicBucketIndex::new`] / sized by
//! [`DynamicBucketIndex::with_expected_len`] is thus only where the
//! index *starts*. A regrid changes no answer (previous section);
//! `tests/regrid_oracle.rs` checks every query against a scan of the
//! live list after every mutation.

use crate::geom::{Point, Rect};
use crate::grid::GridSpec;
use crate::index::{by_distance_then_payload, k_nearest_within_into_impl, sqrt_side};

/// What the index files next to each point: a payload whose order
/// breaks distance ties, and which names a **slot** — a small index,
/// unique among live payloads, into the index's position table (module
/// docs). The table grows to the largest slot inserted, so slots should
/// be dense.
pub trait Slotted: Copy + Ord {
    /// The slot this payload names.
    fn slot(&self) -> usize;
}

/// A `u32` payload is its own slot: dense ids index densely.
impl Slotted for u32 {
    fn slot(&self) -> usize {
        *self as usize
    }
}

/// `(cell, position)` of a slot no live payload names.
const VACANT: (u32, u32) = (u32::MAX, u32::MAX);

/// A mutable bucket index over a changing set of points.
///
/// Payloads must be unique while live (their slot finds the point for
/// `remove`); a second insert of a live slot panics, whichever bucket
/// either lands in. The order of a bucket's entries depends on history
/// (which entry a `swap_remove` moved into which gap), and no answer
/// reads it: the query keeps the exact `k`-smallest set under the total
/// `(distance, payload)` key (`index.rs`), `k_nearest_within` sorts its
/// output, and the graph cache sorts each row by rank.
#[derive(Debug, Clone)]
pub struct DynamicBucketIndex<T> {
    grid: GridSpec,
    /// `buckets[c]` holds the live points of cell `c`, in no order.
    buckets: Vec<Vec<(Point, T)>>,
    /// `(cell, position in its bucket)` by slot, [`VACANT`] where no
    /// live payload names the slot.
    at: Vec<(u32, u32)>,
    len: usize,
}

impl<T: Slotted> DynamicBucketIndex<T> {
    /// An empty index over `grid.region()`, initially bucketed by
    /// `grid`. Only a starting point: the index re-buckets itself to
    /// follow the live count (see the module docs).
    pub fn new(grid: GridSpec) -> Self {
        Self {
            grid,
            buckets: empty_buckets(grid.num_cells()),
            at: Vec::new(),
            len: 0,
        }
    }

    /// An empty index over `region`, initially at the bucket resolution
    /// for `expected_len` points (`√n × √n`, clamped to ≤ 256 per side).
    /// `expected_len` is an initial hint; the index follows the live
    /// count from the first mutation on.
    pub fn with_expected_len(region: Rect, expected_len: usize) -> Self {
        let side = sqrt_side(expected_len);
        Self::new(GridSpec::new(region, side, side))
    }

    /// The *current* bucketing grid — it changes when the index regrids.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The points bucketed into `cell`, in no particular order.
    pub(crate) fn bucket(&self, cell: usize) -> &[(Point, T)] {
        &self.buckets[cell]
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a point: [`DynamicBucketIndex::insert_bulk`] of a batch
    /// of one.
    ///
    /// # Panics
    /// Panics if `payload`'s slot is already live.
    pub fn insert(&mut self, p: Point, payload: T) {
        self.insert_bulk(&[(p, payload)]);
    }

    /// Removes the point previously inserted at `p` with `payload`:
    /// [`DynamicBucketIndex::remove_bulk`] of a batch of one. Returns
    /// whether it was present (callers enforcing a stricter contract
    /// can treat `false` as a bug).
    pub fn remove(&mut self, p: Point, payload: T) -> bool {
        self.remove_bulk(&[(p, payload)]) == 1
    }

    /// Inserts a batch of points — the one insertion path: one regrid
    /// check for the batch, then a push per point.
    ///
    /// # Panics
    /// Panics if any payload's slot is already live (or named twice in
    /// `items`), in whatever bucket.
    pub fn insert_bulk(&mut self, items: &[(Point, T)]) {
        // Regrid for the size the batch leaves behind *before* it goes
        // in, so the arrivals are filed once.
        self.fit_grid(self.len + items.len());
        for &(p, payload) in items {
            let slot = payload.slot();
            if slot >= self.at.len() {
                self.at.resize(slot + 1, VACANT);
            }
            assert!(
                self.at[slot] == VACANT,
                "duplicate payload inserted into dynamic index"
            );
            self.file(p, payload);
            self.len += 1;
        }
    }

    /// Removes a batch of points — the one removal path: a
    /// `swap_remove` per point, then one regrid check for the batch.
    /// Each `(point, payload)` pair must name the inserted point
    /// exactly: a live payload offered with any other point is a miss.
    /// Returns how many were found and removed; callers enforcing a
    /// stricter contract can compare against `items.len()`.
    pub fn remove_bulk(&mut self, items: &[(Point, T)]) -> usize {
        let before = self.len;
        for &(p, payload) in items {
            let slot = payload.slot();
            let Some(&(cell, position)) = self.at.get(slot).filter(|&&at| at != VACANT) else {
                continue;
            };
            let bucket = &mut self.buckets[cell as usize];
            if bucket[position as usize] != (p, payload) {
                continue;
            }
            bucket.swap_remove(position as usize);
            if let Some(&(_, moved)) = bucket.get(position as usize) {
                self.at[moved.slot()] = (cell, position);
            }
            self.at[slot] = VACANT;
            self.len -= 1;
        }
        // Regrid *after* the batch left, so only survivors move.
        self.fit_grid(self.len);
        before - self.len
    }

    /// Pushes `(p, payload)` onto the bucket of `p`'s cell and records
    /// where in the position table.
    fn file(&mut self, p: Point, payload: T) {
        let cell = self.grid.cell_of(p).index();
        let bucket = &mut self.buckets[cell];
        self.at[payload.slot()] = (cell as u32, bucket.len() as u32);
        bucket.push((p, payload));
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

    /// Moves every live point onto `grid`, refiling each in one pass:
    /// `O(live + buckets)`.
    fn regrid(&mut self, grid: GridSpec) {
        let old = std::mem::replace(&mut self.buckets, empty_buckets(grid.num_cells()));
        self.grid = grid;
        for &(p, payload) in old.iter().flatten() {
            self.file(p, payload);
        }
    }

    /// [`DynamicBucketIndex::k_nearest_within_into`], sorted ascending.
    pub fn k_nearest_within(
        &self,
        center: Point,
        radius: f64,
        k: usize,
        accept: impl FnMut(f64, T) -> bool,
    ) -> Vec<(f64, T)> {
        let mut out = Vec::new();
        self.k_nearest_within_into(center, radius, k, accept, &mut out);
        out.sort_unstable_by(by_distance_then_payload);
        out
    }

    /// The `k` nearest qualifying points within the closed disc of
    /// `radius` around `center` (`d² ≤ fl(radius²)`) under the
    /// `(distance, payload)` order, written into `out` (cleared first; no
    /// per-query allocation once warm) as a set, in **no particular
    /// order**. `accept(distance, payload)` lets the caller impose extra
    /// constraints (a per-worker range limit); it must be a pure
    /// predicate: which candidates reach it, and in what order, is not
    /// part of the contract. The cap is a parameter, not a mode:
    /// `k = usize::MAX` is the whole disc.
    ///
    /// Equal distances are broken by the smaller payload, so the result
    /// set is a pure function of the *point set* (module docs). Buckets
    /// are visited in concentric Chebyshev rings around the centre cell
    /// and the search stops as soon as the next ring cannot contain
    /// anything closer than the current `k`-th candidate — with densely
    /// packed points this touches `O(k)` entries instead of the whole
    /// disc. Points outside the region are filed in its boundary buckets
    /// and found by the same search, from centres inside or out.
    pub fn k_nearest_within_into(
        &self,
        center: Point,
        radius: f64,
        k: usize,
        accept: impl FnMut(f64, T) -> bool,
        out: &mut Vec<(f64, T)>,
    ) {
        k_nearest_within_into_impl(self, center, radius, k, accept, out);
    }
}

fn empty_buckets<T>(cells: usize) -> Vec<Vec<(Point, T)>> {
    std::iter::repeat_with(Vec::new).take(cells).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use maps_testkit::XorShift;

    impl<T: Slotted> DynamicBucketIndex<T> {
        /// The position table against the buckets: every live payload sits
        /// where `at[slot]` says, every other slot is vacant, and `len`
        /// counts the buckets' entries.
        fn check_positions(&self) {
            let mut filed = 0;
            for (cell, bucket) in self.buckets.iter().enumerate() {
                for (position, &(_, payload)) in bucket.iter().enumerate() {
                    let want = (cell as u32, position as u32);
                    assert_eq!(self.at[payload.slot()], want, "slot {}", payload.slot());
                }
                filed += bucket.len();
            }
            assert_eq!(filed, self.len, "len against the buckets");
            let taken = self.at.iter().filter(|&&at| at != VACANT).count();
            assert_eq!(taken, self.len, "a slot no live payload names is taken");
        }
    }

    /// The definition every k-nearest answer is held to, as bits: scan
    /// `live`, keep what the closed disc (`d² ≤ fl(r²)`) and `accept`
    /// keep, sort by `(distance, payload)`, cut to `k`.
    fn scan_k_nearest(
        live: &[(Point, u32)],
        (c, r): (Point, f64),
        k: usize,
        accept: impl Fn(f64, u32) -> bool,
    ) -> Vec<(u64, u32)> {
        let mut all: Vec<(f64, u32)> = live
            .iter()
            .filter(|(p, _)| p.euclidean_sq(c) <= r * r)
            .map(|&(p, t)| (p.euclidean(c), t))
            .filter(|&(d, t)| accept(d, t))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        bits(&all)
    }

    fn bits(v: &[(f64, u32)]) -> Vec<(u64, u32)> {
        v.iter().map(|&(d, t)| (d.to_bits(), t)).collect()
    }

    /// [`bits`] of an answer in any order, ascending: the bits of a
    /// non-negative distance order as the distance does, so this is the
    /// `(distance, payload)` order `k_nearest_within` returns.
    fn sorted_bits(v: &[(f64, u32)]) -> Vec<(u64, u32)> {
        let mut b = bits(v);
        b.sort_unstable();
        b
    }

    /// The closed disc by scan, as a sorted id set.
    fn scan_disc(live: &[(Point, u32)], q: (Point, f64)) -> Vec<u32> {
        let all = scan_k_nearest(live, q, usize::MAX, |_, _| true);
        let mut ids: Vec<u32> = all.into_iter().map(|(_, t)| t).collect();
        ids.sort_unstable();
        ids
    }

    /// The closed disc by the index — the k-nearest query with no cap —
    /// as a sorted id set.
    fn sorted_disc(idx: &DynamicBucketIndex<u32>, (c, r): (Point, f64)) -> Vec<u32> {
        let all = idx.k_nearest_within(c, r, usize::MAX, |_, _| true);
        let mut ids: Vec<u32> = all.into_iter().map(|(_, t)| t).collect();
        ids.sort_unstable();
        ids
    }

    fn index_of(items: &[(Point, u32)], side: f64) -> DynamicBucketIndex<u32> {
        let mut idx = DynamicBucketIndex::with_expected_len(Rect::square(side), items.len());
        idx.insert_bulk(items);
        idx
    }

    /// The per-ring cut (`index.rs`: gather, `select_nth`, no sort until
    /// asked) against the scan, bit for bit through `k_nearest_within`
    /// and as a set through `k_nearest_within_into`, where a cut has to
    /// decide: on a
    /// 21 × 21 unit lattice with scrambled ids, 12 points share distance
    /// 5 from the centre ((±5, 0), (0, ±5), (±3, ±4), (±4, ±3)) behind 69
    /// closer ones, in different buckets and on different rings, so any
    /// `k` in 70..=80 cuts inside the tie and payload alone decides; `k`
    /// around the live count; an `accept` that leaves fewer than `k`;
    /// radii whose square rounds. Every row on three grids, from a
    /// centre inside, on the corner and outside, and `accept` checks it
    /// is only ever offered `d ≤ radius`.
    #[test]
    fn the_cut_matches_the_scan() {
        let lattice: Vec<(Point, u32)> = (0..441u32)
            .map(|i| (Point::new((i % 21) as f64, (i / 21) as f64), i * 100 % 441))
            .collect();
        let mut rng = XorShift(0xC07);
        let cloud: Vec<(Point, u32)> = (0..300)
            .map(|i| (Point::new(rng.next_f64() * 20.0, rng.next_f64() * 20.0), i))
            .collect();
        let centres = [
            Point::new(10.0, 10.0),
            Point::new(0.0, 0.0),
            Point::new(-3.0, 25.0),
        ];
        type Accept = fn(f64, u32) -> bool;
        let check = |name: &str, items: &[(Point, u32)], r: f64, ks: &[usize], accept: Accept| {
            for side in [11u32, 21, 34] {
                let mut idx = DynamicBucketIndex::new(GridSpec::square(Rect::square(20.0), side));
                idx.insert_bulk(items);
                assert_eq!(idx.grid().nx(), side, "inside the regrid band");
                let mut out = Vec::new();
                for (c, &k) in centres.iter().flat_map(|c| ks.iter().map(move |k| (*c, k))) {
                    let offered = |d: f64, t: u32| {
                        assert!(d <= r, "{name}: accept offered {d} beyond {r}");
                        accept(d, t)
                    };
                    let want = scan_k_nearest(items, (c, r), k, accept);
                    assert_eq!(
                        bits(&idx.k_nearest_within(c, r, k, offered)),
                        want,
                        "{name}: side {side}, c={c:?}, k={k}"
                    );
                    idx.k_nearest_within_into(c, r, k, offered, &mut out);
                    assert_eq!(
                        sorted_bits(&out),
                        want,
                        "{name}: side {side}, c={c:?}, k={k}, unsorted form"
                    );
                }
            }
        };
        let all: Accept = |_, _| true;
        let tenth: Accept = |_, t| t.is_multiple_of(10);
        let ties: Vec<usize> = (1..=13).chain(68..=83).collect();
        let n = cloud.len();
        check("ties at the k-th", &lattice, 30.0, &ties, all);
        check(
            "ties at the radius",
            &lattice,
            5.0,
            &[12, 70, 75, 81, 82],
            all,
        );
        check(
            "k around n",
            &cloud,
            30.0,
            &[1, n - 1, n, n + 1, usize::MAX],
            all,
        );
        check(
            "accept leaves fewer than k",
            &cloud,
            30.0,
            &[29, 30, 31, 64],
            tenth,
        );
        check("fewer than k, tied", &lattice, 5.0, &[8, 9, 64], tenth);
        check(
            "the radius' square rounds",
            &lattice,
            13f64.sqrt(),
            &[1, 36, 37, 38],
            all,
        );
        // The tie, spelled out once: at k = 75 the six smallest of the
        // twelve ids at distance 5 survive.
        let mut tied: Vec<u32> = lattice
            .iter()
            .filter(|(p, _)| p.euclidean(centres[0]) == 5.0)
            .map(|&(_, t)| t)
            .collect();
        tied.sort_unstable();
        assert_eq!(tied.len(), 12);
        let idx = index_of(&lattice, 20.0);
        let got = idx.k_nearest_within(centres[0], 30.0, 75, all);
        let kept: Vec<u32> = got[69..].iter().map(|&(_, t)| t).collect();
        assert_eq!(kept, tied[..6]);
        let mut out = Vec::new();
        idx.k_nearest_within_into(centres[0], 30.0, 75, all, &mut out);
        assert_eq!(sorted_bits(&out), bits(&got), "the tie, unsorted form");
    }

    /// The query's scratch is bounded by the cap, not by what it walks
    /// through: 10⁴ queries across one bucket of 400 points — each cut
    /// mid-bucket, every tenth held to the scan — leave the reused
    /// output buffer at no more than `2k` plus that bucket.
    #[test]
    fn scratch_stays_within_two_k_and_a_bucket() {
        let mut rng = XorShift(0x5C2A7C4);
        let items: Vec<(Point, u32)> = (0..600)
            .map(|i| {
                let span = if i < 400 { 0.5 } else { 20.0 };
                let p = Point::new(rng.next_f64() * span, rng.next_f64() * span);
                (p, i)
            })
            .collect();
        let idx = index_of(&items, 20.0);
        let dense = idx.buckets.iter().map(Vec::len).max().unwrap();
        assert!(dense >= 400, "the cluster shares one bucket: {dense}");
        let k = 8;
        let mut out = Vec::new();
        for i in 0..10_000 {
            let c = Point::new(rng.next_f64() * 2.0, rng.next_f64() * 2.0);
            let r = rng.next_f64() * 4.0;
            idx.k_nearest_within_into(c, r, k, |_, _| true, &mut out);
            if i % 10 == 0 {
                let want = scan_k_nearest(&items, (c, r), k, |_, _| true);
                assert_eq!(sorted_bits(&out), want, "c={c:?} r={r}");
            }
        }
        assert!(out.capacity() <= 2 * k + dense, "{}", out.capacity());
    }

    /// Random insert/remove/relocate churn: every disc (as an id set)
    /// and every filtered k-nearest answer (bit for bit) must equal the
    /// scan of the live list — while strays outside the region are
    /// live, and once they have left (`tests/regrid_oracle.rs` drives
    /// the same comparison across regrids, bulk ops included).
    #[test]
    fn queries_match_fresh_rebuild_under_churn() {
        let mut dynamic = DynamicBucketIndex::new(GridSpec::square(Rect::square(100.0), 9));
        let mut live: Vec<(Point, u32)> = Vec::new();
        let mut rng = XorShift(0x5EED);
        let mut next_id = 0u32;
        let (mut stray_checks, mut strayless_checks) = (0, 0);
        let region = Rect::square(100.0);
        for step in 0..800 {
            let strays = step < 400;
            if step == 400 {
                let (inside, outside): (Vec<_>, Vec<_>) =
                    live.iter().partition(|&&(p, _)| region.contains(p));
                assert_eq!(dynamic.remove_bulk(&outside), outside.len());
                live = inside;
            }
            let op = rng.next_u64() % 4;
            if op == 0 || live.len() < 4 {
                // The first half's points land outside the region now and
                // then, to exercise the clamped-bucket bookkeeping.
                let far = strays && rng.next_u64().is_multiple_of(12);
                let scale = if far { 130.0 } else { 100.0 };
                let shift = if strays { 10.0 } else { 0.0 };
                let p = Point::new(
                    rng.next_f64() * scale - shift,
                    rng.next_f64() * scale - shift,
                );
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
            dynamic.check_positions();
            if step % 13 != 0 {
                continue;
            }
            assert_eq!(dynamic.len(), live.len());
            if live.iter().any(|&(p, _)| !region.contains(p)) {
                stray_checks += 1;
            } else {
                strayless_checks += 1;
            }
            let c = Point::new(rng.next_f64() * 110.0 - 5.0, rng.next_f64() * 110.0 - 5.0);
            let q = (c, rng.next_f64() * 40.0);
            assert_eq!(
                sorted_disc(&dynamic, q),
                scan_disc(&live, q),
                "disc diverged at step {step}"
            );
            let k = 1 + (rng.next_u64() as usize) % 8;
            let accept = |_: f64, t: u32| !t.is_multiple_of(3);
            assert_eq!(
                bits(&dynamic.k_nearest_within(q.0, q.1, k, accept)),
                scan_k_nearest(&live, q, k, accept),
                "k-nearest diverged at step {step}"
            );
        }
        assert!(stray_checks >= 20 && strayless_checks >= 20);
    }

    /// The hostile input admission lets through: any finite location.
    /// 400 seeded worlds of 1–600 points on offset, non-square regions
    /// and rectangular grids, coordinates free or snapped to a lattice
    /// (ties, points on cell edges) and up to 50 region sides outside;
    /// 60 queries per world from centres inside and far out, radii from
    /// 0 to 100 sides, `k` from 1 to uncapped, with and without a
    /// rejecting filter — each bit-identical to the scan. The ring bound
    /// is what this pins (`index.rs`, at `ring_lb`): nearly every query
    /// runs with a point outside the region live.
    #[test]
    fn strays_far_outside_keep_every_query_exact() {
        let mut rng = XorShift(0x0057_4A59);
        let (mut queries, mut with_stray) = (0, 0);
        for world in 0..400 {
            let side = 10.0 + (rng.next_u64() % 201) as f64;
            let min = Point::new(rng.next_f64() * 200.0 - 100.0, rng.next_f64() * 50.0);
            let max = Point::new(min.x + side, min.y + side * (0.5 + rng.next_f64()));
            let region = Rect::new(min, max);
            let pitch = (world % 3 == 0).then_some(side / 8.0);
            // A coordinate as an offset from `min`: in the region, just
            // around it, or up to 50 sides off on either side.
            let offset = |rng: &mut XorShift| {
                let u = rng.next_f64();
                let x = match rng.next_u64() % 8 {
                    0 => (u * 101.0 - 50.0) * side,
                    1 => (u * 3.0 - 1.0) * side,
                    _ => u * side,
                };
                pitch.map_or(x, |pitch| (x / pitch).round() * pitch)
            };
            let n = 1 + (rng.next_u64() as usize) % 600;
            let items: Vec<(Point, u32)> = (0..n as u32)
                .map(|id| {
                    (
                        Point::new(min.x + offset(&mut rng), min.y + offset(&mut rng)),
                        id,
                    )
                })
                .collect();
            let (nx, ny) = (1 + rng.next_u64() % 24, 1 + rng.next_u64() % 24);
            let mut idx = DynamicBucketIndex::new(GridSpec::new(region, nx as u32, ny as u32));
            idx.insert_bulk(&items);
            let stray = items.iter().any(|&(p, _)| !region.contains(p));
            for _ in 0..60 {
                let c = match rng.next_u64() % 4 {
                    0 => items[(rng.next_u64() as usize) % n].0,
                    _ => Point::new(min.x + offset(&mut rng), min.y + offset(&mut rng)),
                };
                let r = match rng.next_u64() % 6 {
                    0 => 0.0,
                    1 => rng.next_f64() * 100.0 * side,
                    _ => rng.next_f64() * side,
                };
                let k = [1, 3, 64, usize::MAX][(rng.next_u64() % 4) as usize];
                let accept = if rng.next_u64().is_multiple_of(2) {
                    |_: f64, _: u32| true
                } else {
                    |d: f64, t: u32| !t.is_multiple_of(3) && d > 0.25
                };
                assert_eq!(
                    bits(&idx.k_nearest_within(c, r, k, accept)),
                    scan_k_nearest(&items, (c, r), k, accept),
                    "world {world}: c={c:?} r={r} k={k} on {:?}",
                    idx.grid()
                );
                queries += 1;
                with_stray += usize::from(stray);
            }
        }
        assert_eq!(queries, 24_000);
        assert!(with_stray >= 23_000, "{with_stray} queries beside a stray");
    }

    /// The `(distance, payload)` order makes k-nearest independent of
    /// the bucketing grid.
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
            let c = Point::new(5.0, 5.0);
            assert_eq!(
                ids(dynamic.k_nearest_within(c, 5.0, 2, |_, _| true)),
                vec![0, 1],
                "side {side}"
            );
        }
    }

    #[test]
    fn empty_index() {
        let idx = DynamicBucketIndex::<u32>::with_expected_len(Rect::square(10.0), 0);
        assert!(idx.is_empty());
        assert_eq!(sorted_disc(&idx, (Point::new(5.0, 5.0), 100.0)), vec![]);
        let nearest = idx.k_nearest_within(Point::new(5.0, 5.0), 100.0, 3, |_, _| true);
        assert!(nearest.is_empty());
    }

    #[test]
    fn single_point() {
        let idx = index_of(&[(Point::new(3.0, 3.0), 7)], 10.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(sorted_disc(&idx, (Point::new(3.0, 4.0), 1.0)), vec![7]);
        assert_eq!(sorted_disc(&idx, (Point::new(3.0, 4.5), 1.0)), vec![]);
    }

    #[test]
    fn discs_match_the_scan_on_a_lattice() {
        let mut items = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                items.push((
                    Point::new(i as f64 * 0.5, j as f64 * 0.5),
                    items.len() as u32,
                ));
            }
        }
        let idx = index_of(&items, 10.0);
        assert_eq!(idx.grid().nx(), 20);
        for q in [
            (Point::new(5.0, 5.0), 2.5),
            (Point::new(0.0, 0.0), 1.0),
            (Point::new(9.9, 9.9), 3.0),
            (Point::new(5.0, 5.0), 0.0),
            (Point::new(-2.0, 5.0), 4.0), // centre outside the region
        ] {
            assert_eq!(sorted_disc(&idx, q), scan_disc(&items, q), "query {q:?}");
            // Uncapped k-nearest is the same set, in distance order.
            let nearest = idx.k_nearest_within(q.0, q.1, usize::MAX, |_, _| true);
            assert_eq!(
                bits(&nearest),
                scan_k_nearest(&items, q, usize::MAX, |_, _| true),
                "query {q:?}"
            );
        }
        assert_eq!(scan_disc(&items, (Point::new(5.0, 5.0), 0.0)).len(), 1);
    }

    #[test]
    fn points_outside_region_are_still_found() {
        // Clamped bucketing must not lose points that lie outside the
        // nominal region (workers can drift out when relocating).
        let idx = index_of(
            &[(Point::new(12.0, 12.0), 1), (Point::new(5.0, 5.0), 2)],
            10.0,
        );
        assert_eq!(sorted_disc(&idx, (Point::new(12.0, 12.0), 0.5)), vec![1]);
        // and a big disc finds both
        assert_eq!(sorted_disc(&idx, (Point::new(8.0, 8.0), 10.0)), vec![1, 2]);
    }

    /// The ring search on 500 in-region points — early termination
    /// live, rings cut by the k-th candidate, by the radius and by the
    /// region's edge — against the scan, bit for bit, unfiltered and
    /// with a rejecting `accept`.
    #[test]
    fn k_nearest_matches_the_scan() {
        let mut rng = XorShift(0xABCD);
        let items: Vec<(Point, u32)> = (0..500)
            .map(|i| {
                (
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                    i,
                )
            })
            .collect();
        let idx = index_of(&items, 100.0);
        let mut answered = 0;
        for (c, r, k) in [
            (Point::new(50.0, 50.0), 20.0, 8usize),
            (Point::new(0.0, 0.0), 15.0, 5),
            (Point::new(99.0, 3.0), 50.0, 1),
            (Point::new(50.0, 50.0), 5.0, 100), // fewer than k in range
            (Point::new(50.0, 50.0), 0.0, 3),
            (Point::new(-20.0, 120.0), 60.0, 6), // centre outside the region
            (Point::new(37.0, 81.0), 150.0, 64), // radius beyond every ring
            (items[17].0, 0.0, 2),               // radius 0 on a stored point
        ] {
            for accept in [
                |_: f64, _: u32| true,
                |d: f64, t: u32| t % 4 != 1 && d > 0.5,
            ] {
                let got = bits(&idx.k_nearest_within(c, r, k, accept));
                assert_eq!(
                    got,
                    scan_k_nearest(&items, (c, r), k, accept),
                    "c={c:?} r={r} k={k}"
                );
                answered += got.len();
            }
        }
        assert!(answered > 150, "fixture must have in-range points");
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
    /// region. This is the miss `PeriodGraphCache::apply` turns into its
    /// "live worker missing from the spatial index" fault.
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
        let left = sorted_disc(&idx, (Point::new(40.0, 40.0), 100.0));
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

    /// A live payload offered again into a far bucket of a populated
    /// 8×8 grid: its slot is taken, so the insert panics instead of
    /// every later query answering the payload twice.
    #[test]
    #[should_panic(expected = "duplicate payload")]
    fn duplicate_insert_in_another_bucket_panics() {
        let mut idx = DynamicBucketIndex::<u32>::with_expected_len(Rect::square(80.0), 64);
        let at = |i: u32| Point::new((i % 8) as f64 * 10.0 + 5.0, (i / 8) as f64 * 10.0 + 5.0);
        let items: Vec<_> = (0..64).map(|i| (at(i), i)).collect();
        idx.insert_bulk(&items);
        assert_eq!((idx.grid().nx(), at(0)), (8, Point::new(5.0, 5.0)));
        idx.insert(Point::new(75.0, 75.0), 0);
    }

    /// The position table under same-bucket churn: 2 000 points on one
    /// spot and a ring of 64 around it share a bucket, leave in seeded
    /// order (each `swap_remove` repointing whichever entry it moved),
    /// come back in shuffled batches and relocate, across regrids down
    /// to 1×1 and back. After every mutation the table matches the
    /// buckets, and every few the k-nearest answers — ties at the spot
    /// decided by payload alone — equal the scan bit for bit.
    #[test]
    fn positions_hold_under_same_bucket_churn() {
        let spot = Point::new(37.3, 61.9);
        let mut rng = XorShift(0xC0_10CA7E);
        let mut items: Vec<(Point, u32)> = (0..2_000).map(|i| (spot, i)).collect();
        items.extend((0..64u32).map(|i| {
            let a = f64::from(i) * std::f64::consts::TAU / 64.0;
            (
                Point::new(spot.x + 1e-3 * a.cos(), spot.y + 1e-3 * a.sin()),
                2_000 + i,
            )
        }));
        items.extend((0..100).map(|i| {
            let p = Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0);
            (p, 2_064 + i)
        }));
        let mut idx = DynamicBucketIndex::new(GridSpec::square(Rect::square(100.0), 1));
        idx.insert_bulk(&items);
        let dense = idx.buckets.iter().map(Vec::len).max().unwrap();
        assert!(
            dense >= 2_064,
            "the spot and its ring share a bucket: {dense}"
        );
        let mut live = items.clone();
        let mut grids = vec![idx.grid().nx()];
        let (mut mutations, mut checked) = (0usize, 0);
        let mut check =
            |idx: &DynamicBucketIndex<u32>, live: &[(Point, u32)], rng: &mut XorShift| {
                idx.check_positions();
                assert_eq!(idx.len(), live.len());
                if grids.last() != Some(&idx.grid().nx()) {
                    grids.push(idx.grid().nx());
                }
                mutations += 1;
                if !mutations.is_multiple_of(25) {
                    return;
                }
                let c = if rng.next_u64().is_multiple_of(2) {
                    spot
                } else {
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0)
                };
                let r = [0.0, 1e-3, 0.5, 150.0][(rng.next_u64() % 4) as usize];
                for k in [1, 7, 64, 1_500, usize::MAX] {
                    for accept in [|_: f64, _: u32| true, |_: f64, t: u32| t % 3 != 1] {
                        assert_eq!(
                            bits(&idx.k_nearest_within(c, r, k, accept)),
                            scan_k_nearest(live, (c, r), k, accept),
                            "c={c:?} r={r} k={k} after {mutations} mutations"
                        );
                    }
                }
                checked += 1;
            };
        // Out in seeded order, one at a time.
        while !live.is_empty() {
            let (p, id) = live.swap_remove((rng.next_u64() as usize) % live.len());
            assert!(idx.remove(p, id), "live point {id} not found");
            check(&idx, &live, &mut rng);
        }
        // Back in shuffled batches of up to 97.
        let mut back = items.clone();
        while !back.is_empty() {
            let n = (1 + (rng.next_u64() as usize) % 97).min(back.len());
            let batch: Vec<_> = (0..n)
                .map(|_| back.swap_remove((rng.next_u64() as usize) % back.len()))
                .collect();
            idx.insert_bulk(&batch);
            live.extend_from_slice(&batch);
            check(&idx, &live, &mut rng);
        }
        // Relocations: off the spot, onto it, and within it.
        for _ in 0..1_500 {
            let mover = (rng.next_u64() as usize) % live.len();
            let (from, id) = live[mover];
            let to = match rng.next_u64() % 3 {
                0 => spot,
                1 => Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                _ => from,
            };
            assert!(idx.remove(from, id));
            idx.insert(to, id);
            live[mover].0 = to;
            check(&idx, &live, &mut rng);
        }
        assert!(checked >= 140, "{checked} query rounds");
        assert!(grids.len() >= 5 && grids.contains(&1), "regrids: {grids:?}");
    }

    /// History does not show: one index takes the final point set as a
    /// single `insert_bulk`, the other reaches it through seeded churn —
    /// scrambled batches, relocations, 3 000 extra points in and out —
    /// across several regrids. On the same grid their buckets hold the
    /// same points in different orders, and every disc, capped query and
    /// query under a rejecting `accept` answers bit for bit alike.
    #[test]
    fn history_never_shows_in_answers() {
        let mut rng = XorShift(0x0415_70E1);
        let point = |rng: &mut XorShift| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0);
        let mut churned = DynamicBucketIndex::new(GridSpec::square(Rect::square(100.0), 3));
        let mut live: Vec<(Point, u32)> = (0..600).map(|i| (point(&mut rng), i)).collect();
        let mut grids = vec![churned.grid().nx()];
        let mut note = |idx: &DynamicBucketIndex<u32>| {
            if grids.last() != Some(&idx.grid().nx()) {
                grids.push(idx.grid().nx());
            }
        };
        for chunk in live.chunks(37).rev() {
            churned.insert_bulk(chunk);
            note(&churned);
        }
        for round in 0..3u32 {
            let extra: Vec<(Point, u32)> = (0..1_000)
                .map(|i| (point(&mut rng), 600 + 1_000 * round + i))
                .collect();
            churned.insert_bulk(&extra);
            note(&churned);
            for _ in 0..300 {
                let mover = (rng.next_u64() as usize) % live.len();
                let (from, id) = live[mover];
                live[mover].0 = point(&mut rng);
                assert!(churned.remove(from, id));
                churned.insert(live[mover].0, id);
            }
            let mut leaving = extra;
            while !leaving.is_empty() {
                let n = (1 + (rng.next_u64() as usize) % 300).min(leaving.len());
                let at = (rng.next_u64() as usize) % (leaving.len() - n + 1);
                let batch: Vec<_> = leaving.drain(at..at + n).collect();
                assert_eq!(churned.remove_bulk(&batch), n);
                note(&churned);
            }
        }
        assert!(grids.len() >= 4, "regrids: {grids:?}");
        churned.check_positions();
        live.sort_unstable_by_key(|&(_, id)| id);
        let mut batch = DynamicBucketIndex::new(*churned.grid());
        batch.insert_bulk(&live);
        assert_eq!(batch.grid(), churned.grid(), "both on one grid");
        let sorted = |b: &Vec<(Point, u32)>| {
            let mut b = b.clone();
            b.sort_unstable_by_key(|&(_, id)| id);
            b
        };
        let (mut same_set, mut reordered) = (true, 0);
        for (a, b) in batch.buckets.iter().zip(&churned.buckets) {
            same_set &= sorted(a) == sorted(b);
            reordered += usize::from(a != b);
        }
        assert!(same_set, "the two hold one point set, bucket by bucket");
        assert!(
            reordered >= 20,
            "bucket orders differ in {reordered} buckets"
        );
        let mut out = Vec::new();
        for _ in 0..400 {
            let c = Point::new(rng.next_f64() * 120.0 - 10.0, rng.next_f64() * 120.0 - 10.0);
            let r = rng.next_f64() * 30.0;
            for k in [1, 5, 64, usize::MAX] {
                for accept in [
                    |_: f64, _: u32| true,
                    |d: f64, t: u32| t % 4 != 1 && d > 0.5,
                ] {
                    let want = bits(&batch.k_nearest_within(c, r, k, accept));
                    let got = churned.k_nearest_within(c, r, k, accept);
                    assert_eq!(bits(&got), want, "c={c:?} r={r} k={k}");
                    churned.k_nearest_within_into(c, r, k, accept, &mut out);
                    assert_eq!(sorted_bits(&out), want, "c={c:?} r={r} k={k}, unsorted");
                }
            }
        }
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
        // With the outside point gone the results stay exact.
        assert!(idx.remove(Point::new(12.0, 12.0), 0));
        assert_eq!(sorted_disc(&idx, (Point::new(9.0, 9.0), 0.5)), vec![1]);
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
        // in-radius answer (the scan's order), bit for bit.
        let all = scan_k_nearest(&live, (c, r), usize::MAX, |_, _| true);
        assert!(!all.is_empty(), "fixture must have in-radius points");
        for k in [live.len(), live.len() + 1, usize::MAX] {
            let got = dynamic.k_nearest_within(c, r, k, |_, _| true);
            assert_eq!(bits(&got), all, "k={k}");
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
