//! The query core of [`DynamicBucketIndex`]: the capped k-nearest ring
//! search. There is one, and every query takes it.
//!
//! Building the probabilistic bipartite graph `B^t` (Definition 5) needs,
//! for every task, the workers whose range reaches its origin. A scan is
//! `O(|R|·|W|)` per period — infeasible at the paper's `|R| = |W| =
//! 500 000` — so points are bucketed by the cell of an internal
//! [`crate::GridSpec`] and the core visits cells in rings around the
//! query's, stopping at the first ring that can hold nothing it still
//! needs. The ring bound holds for points and centres outside the region
//! too (argued once, at `ring_lb`), so whether a query stops early never
//! depends on who else is live; a closed disc is this query with no cap
//! (`k = usize::MAX`), not a second algorithm.
//!
//! A ring is four spans — its bottom and top rows, corners included,
//! then its left and right columns between them — and each span is read
//! from the index's occupancy bitmaps (by row, and by column), so only
//! the buckets that hold a point are visited. Which order a ring's
//! buckets are visited in is not part of the answer (next section):
//! skipping an empty one drops no candidate, and cuts fire only on a
//! push or at the end of a ring.
//!
//! ## Gather, cut, sort only when asked
//!
//! The search keeps no order while it runs. A candidate that is in
//! radius, at or under the current `bound` and accepted is *appended*;
//! whenever a ring ends with `k` or more gathered (or the scratch
//! reaches `2k` inside one), one `select_nth_unstable_by` under the
//! `(distance, payload)` order keeps the `k` smallest and sets `bound`
//! to the k-th distance. What is left is the exact answer as a set:
//! [`DynamicBucketIndex::k_nearest_within_into`] returns it unsorted
//! (the graph cache re-keys it by lane position), `k_nearest_within`
//! sorts it. Each candidate is moved `O(1)` times on average, against a
//! binary search plus an `O(k)` shift per candidate for an ordered
//! insert, and the scratch never exceeds `2k` entries. The bound lags
//! an ordered insert's — it tightens per cut, not per candidate — so a
//! few more candidates reach `accept`; that is the trade.
//!
//! It is exact because the order is total, so the `k` smallest of a set
//! are unique and can be found in any grouping: a candidate leaves only
//! (i) at a cut, with `k` gathered entries before it in the order, (ii)
//! at the `bound` check, *strictly* farther than the k-th of `k` entries
//! gathered earlier, or (iii) with an unvisited ring, every point of
//! which is strictly farther than that same k-th. In each case `k` points
//! of the query's own candidate set precede it, so it is not among the
//! `k` smallest. An equal distance is never dropped by (ii) or (iii); it
//! goes through a cut, where the payload decides.
//!
//! There is no second index to agree with: the tests hold this core to
//! the definition — a scan of the live list, filtered, sorted by
//! `(distance, payload)` and cut to `k` — bit for bit, and the unsorted
//! form as a set (`dynamic.rs`' tests, `tests/regrid_oracle.rs`).

use std::cmp::Ordering;

use crate::dynamic::{DynamicBucketIndex, Slotted};
use crate::geom::Point;

/// The `k` nearest qualifying points within `radius` of `center` under
/// the total order `(distance, payload)`, into `best` (cleared first) in
/// no particular order — the contract is
/// [`DynamicBucketIndex::k_nearest_within_into`]'s. Because the order is
/// total, the result set is a function of the point set: bucket layout,
/// the order inside a bucket and visit order cannot show in it, so
/// neither a regrid nor the mutation history changes an answer.
pub(crate) fn k_nearest_within_into_impl<T: Slotted>(
    store: &DynamicBucketIndex<T>,
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
    // The scratch never holds more than `2k` entries (`visit` cuts
    // there, mid-bucket if need be); an uncapped query (`k` near
    // `usize::MAX`) never cuts and grows to its answer, amortized.
    let cut_at = k.saturating_mul(2);
    best.reserve(cut_at.min(1024));
    let (cx, cy) = grid.cell_coords(center.clamped(grid.region()));
    let (cx, cy) = (cx as i64, cy as i64);
    let (nx, ny) = (grid.nx() as i64, grid.ny() as i64);
    let min_side = grid.cell_width().min(grid.cell_height());
    let max_ring = nx.max(ny);
    let r2 = radius * radius;
    // The k-th distance of the last cut; nothing is cut before `k`
    // candidates are in, and until then nothing is too far.
    let mut bound = f64::INFINITY;
    let mut visit = |x: usize, y: usize, best: &mut Vec<(f64, T)>, bound: &mut f64| {
        for &(p, payload) in store.bucket(y * nx as usize + x) {
            let d2 = p.euclidean_sq(center);
            if d2 <= r2 {
                // `Point::euclidean`, bit for bit.
                let d = d2.sqrt();
                if d <= *bound && accept(d, payload) {
                    best.push((d, payload));
                    if best.len() == cut_at {
                        *bound = cut(best, k);
                    }
                }
            }
        }
    };
    // `lo..=hi` clamped to `0..n`, if anything is left of it.
    let clamp = |lo: i64, hi: i64, n: i64| {
        let (lo, hi) = (lo.max(0), hi.min(n - 1));
        (lo <= hi).then_some((lo as usize, hi as usize))
    };
    for ring in 0..=max_ring {
        // Nothing filed in ring `d` is closer than (d−1)·min_side,
        // inside the region or out: points are filed, and rings counted,
        // by clamped position, and clamping onto a box is 1-Lipschitz
        // per axis, so on the axis `i` that puts `p` in ring `d`,
        // dist(p, c) ≥ |p_i − c_i| ≥ |clamp(p)_i − clamp(c)_i| ≥
        // (d−1)·min_side; `max_ring` reaches every cell. The break is
        // strict: a ring that could still hold an equal distance (smaller
        // payload) is visited, so the (distance, payload) order is exact.
        let ring_lb = ((ring - 1).max(0) as f64) * min_side;
        if ring_lb > radius || ring_lb > bound {
            break;
        }
        // The ring's bottom and top rows, corners included (one row at
        // ring 0), then its left and right columns between them (none at
        // ring 0); each side is a span of occupancy bits, and only a set
        // bit costs a bucket visit.
        let rows = 1 + usize::from(ring > 0);
        if let Some((x0, x1)) = clamp(cx - ring, cx + ring, nx) {
            for y in [cy - ring, cy + ring].into_iter().take(rows) {
                if (0..ny).contains(&y) {
                    let y = y as usize;
                    store
                        .by_row()
                        .for_each_set(y, x0, x1, |x| visit(x, y, best, &mut bound));
                }
            }
        }
        if let Some((y0, y1)) = clamp(cy - ring + 1, cy + ring - 1, ny) {
            for x in [cx - ring, cx + ring] {
                if (0..nx).contains(&x) {
                    let x = x as usize;
                    store
                        .by_column()
                        .for_each_set(x, y0, y1, |y| visit(x, y, best, &mut bound));
                }
            }
        }
        if best.len() >= k {
            bound = cut(best, k);
        }
    }
    // Every visited ring ended at `≤ k` entries: what is left is the set.
}

/// The `(distance, payload)` total order. Distances here are square
/// roots of in-radius `d²` — never NaN, never `-0.0` — so `total_cmp`
/// is `<` on them.
pub(crate) fn by_distance_then_payload<T: Ord>(a: &(f64, T), b: &(f64, T)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// Keeps the `k` smallest of `best` (which holds at least `k`), in no
/// particular order, and returns the k-th distance — the new bound.
fn cut<T: Copy + Ord>(best: &mut Vec<(f64, T)>, k: usize) -> f64 {
    let (_, kth, _) = best.select_nth_unstable_by(k - 1, by_distance_then_payload);
    let bound = kth.0;
    best.truncate(k);
    bound
}

/// The bucket-grid side the index sizes itself by: `√n × √n` buckets
/// for `n` points (a handful of points per bucket at most),
/// clamped to `1..=256` per side.
pub(crate) fn sqrt_side(n: usize) -> u32 {
    ((n.max(1) as f64).sqrt().ceil() as u32).clamp(1, 256)
}
