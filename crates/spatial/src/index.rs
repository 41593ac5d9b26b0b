//! The query core of [`DynamicBucketIndex`]: the capped k-nearest ring
//! search. There is one, and every query takes it.
//!
//! Building the probabilistic bipartite graph `B^t` (Definition 5) needs,
//! for every task, the workers whose range reaches its origin. A scan is
//! `O(|R|·|W|)` per period — infeasible at the paper's `|R| = |W| =
//! 500 000` — so points are bucketed by the cell of an internal
//! [`crate::GridSpec`] (struct-of-arrays, so the distance loop runs over
//! contiguous `f64` lanes) and the core visits cells in rings around the
//! query's, stopping at the first ring that can hold nothing it still
//! needs. The ring bound holds for points and centres outside the region
//! too (argued once, at `ring_lb`), so whether a query stops early never
//! depends on who else is live; a closed disc is this query with no cap
//! (`k = usize::MAX`), not a second algorithm.
//!
//! There is no second index to agree with: the tests hold this core to
//! the definition — a scan of the live list, filtered, sorted by
//! `(distance, payload)` and cut to `k` — bit for bit (`dynamic.rs`'
//! tests, `tests/regrid_oracle.rs`).

use crate::dynamic::DynamicBucketIndex;
use crate::geom::Point;

/// The `k` nearest qualifying points within `radius` of `center` under
/// the total order `(distance, payload)`, into `best` (cleared first) —
/// the contract is [`DynamicBucketIndex::k_nearest_within_into`]'s.
/// Because the order is total, the result is a function of the point
/// set: bucket layout and visit order cannot show in it, so a regrid
/// changes no answer and per-shard answers merge to the whole.
pub(crate) fn k_nearest_within_into_impl<T: Copy + Ord>(
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
    // Degenerate caps (k near usize::MAX, i.e. "uncapped") must not
    // overflow or over-reserve; growth past the hint is amortized anyway.
    best.reserve(k.saturating_add(1).min(1024));
    let (cx, cy) = grid.cell_coords(center.clamped(grid.region()));
    let (cx, cy) = (cx as i64, cy as i64);
    let (nx, ny) = (grid.nx() as i64, grid.ny() as i64);
    let min_side = grid.cell_width().min(grid.cell_height());
    let max_ring = nx.max(ny);
    let r2 = radius * radius;
    let mut visit = |x: i64, y: i64, best: &mut Vec<(f64, T)>| {
        if x < 0 || x >= nx || y < 0 || y >= ny {
            return;
        }
        let cell = (y * nx + x) as usize;
        scan_cell(store.cell_slices(cell), center, r2, k, &mut accept, best);
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
/// Generic over `accept`, so the predicate inlines into the loop.
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

/// The bucket-grid side the index sizes itself by: `√n × √n` buckets
/// for `n` points (a handful of points per bucket at most),
/// clamped to `1..=256` per side.
pub(crate) fn sqrt_side(n: usize) -> u32 {
    ((n.max(1) as f64).sqrt().ceil() as u32).clamp(1, 256)
}
