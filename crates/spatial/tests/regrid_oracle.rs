//! The spatial regrid oracle: [`DynamicBucketIndex`] re-buckets itself
//! as its live count moves, and no query may notice.
//!
//! A [`Harness`] drives the index next to a plain list of the live
//! points and, **after every step**, checks against a scan of that list
//! — the definition, which has no grid to share a bug with — that
//!
//! * every disc — the k-nearest query with no cap — equals, as a
//!   sorted id set, the points with `d² ≤ fl(r²)` — one of the discs
//!   covers the whole region and its surroundings, so this is also "no
//!   bucket lost or doubled a point in the regrid";
//! * every `k_nearest_within`, under a rejecting `accept`, equals bit
//!   for bit the same filter sorted by `(distance, payload)` and cut to
//!   `k` — by the one ring search, with points outside the region live
//!   or not;
//! * the single-item `insert` / `remove` the scripts call are batches
//!   of one, so the batch-of-one path is checked after every mutation;
//! * regrids stay amortised: few of them, moving few points per
//!   mutation.
//!
//! CI runs this file as its own step before the workspace sweep, so a
//! bucket or position-table bug fails here, attributed, and not as a
//! `deterministic_bits` mismatch three crates up.

use maps_spatial::{DynamicBucketIndex, GridSpec, Point, Rect};
use maps_testkit::{explore, XorShift};

const REGION: f64 = 100.0;

/// The index under test plus everything the checks compare it against.
struct Harness {
    dynamic: DynamicBucketIndex<u32>,
    /// The live points, in no particular order.
    live: Vec<(Point, u32)>,
    next_id: u32,
    rng: XorShift,
    /// Grid of `dynamic` after the previous step.
    grid: GridSpec,
    regrids: usize,
    /// Live points at each regrid, summed: an upper bound on the points
    /// regrids moved.
    moved: usize,
    /// Points inserted + removed (a relocation is one of each).
    mutations: usize,
    steps: usize,
}

impl Harness {
    fn new(dynamic: DynamicBucketIndex<u32>, seed: u64) -> Self {
        Self {
            grid: *dynamic.grid(),
            dynamic,
            live: Vec::new(),
            next_id: 0,
            rng: XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            regrids: 0,
            moved: 0,
            mutations: 0,
            steps: 0,
        }
    }

    /// A point in the region, or (when `stray`) up to 15 beyond it.
    fn point(&mut self, stray: bool) -> Point {
        let (scale, shift) = if stray { (130.0, 15.0) } else { (REGION, 0.0) };
        Point::new(
            self.rng.next_f64() * scale - shift,
            self.rng.next_f64() * scale - shift,
        )
    }

    fn fresh(&mut self, n: usize, stray_one_in: u64) -> Vec<(Point, u32)> {
        (0..n)
            .map(|_| {
                let stray = self.rng.next_u64().is_multiple_of(stray_one_in);
                let id = self.next_id;
                self.next_id += 1;
                (self.point(stray), id)
            })
            .collect()
    }

    /// Removes `n` seeded victims from the mirror and returns them.
    fn victims(&mut self, n: usize) -> Vec<(Point, u32)> {
        (0..n.min(self.live.len()))
            .map(|_| {
                let at = (self.rng.next_u64() as usize) % self.live.len();
                self.live.swap_remove(at)
            })
            .collect()
    }

    fn insert_each(&mut self, n: usize, stray_one_in: u64) {
        for (p, id) in self.fresh(n, stray_one_in) {
            self.dynamic.insert(p, id);
            self.live.push((p, id));
            self.mutations += 1;
            self.check();
        }
    }

    fn insert_bulk(&mut self, n: usize, stray_one_in: u64) {
        let items = self.fresh(n, stray_one_in);
        self.dynamic.insert_bulk(&items);
        self.live.extend_from_slice(&items);
        self.mutations += items.len();
        self.check();
    }

    fn remove_each(&mut self, n: usize) {
        for _ in 0..n {
            for (p, id) in self.victims(1) {
                assert!(self.dynamic.remove(p, id), "live point {id} not found");
                self.mutations += 1;
                self.check();
            }
        }
    }

    fn remove_bulk(&mut self, n: usize) {
        let victims = self.victims(n);
        assert_eq!(self.dynamic.remove_bulk(&victims), victims.len());
        self.mutations += victims.len();
        self.check();
    }

    /// Removes every out-of-region point, so the all-inside state gets
    /// its share of the run.
    fn remove_strays(&mut self) {
        let region = Rect::square(REGION);
        let (inside, strays): (Vec<_>, Vec<_>) =
            self.live.iter().partition(|&&(p, _)| region.contains(p));
        self.live = inside;
        assert_eq!(self.dynamic.remove_bulk(&strays), strays.len());
        self.mutations += strays.len();
        self.check();
    }

    fn relocate(&mut self, n: usize, stray_one_in: u64) {
        for _ in 0..n.min(self.live.len()) {
            let at = (self.rng.next_u64() as usize) % self.live.len();
            let stray = self.rng.next_u64().is_multiple_of(stray_one_in);
            let to = self.point(stray);
            let (from, id) = self.live[at];
            assert!(self.dynamic.remove(from, id));
            self.dynamic.insert(to, id);
            self.live[at].0 = to;
            self.mutations += 2;
            self.check();
        }
    }

    /// The closed disc by the index: the k-nearest query with no cap.
    fn disc(&self, c: Point, r: f64) -> Vec<u32> {
        let all = self.dynamic.k_nearest_within(c, r, usize::MAX, |_, _| true);
        all.into_iter().map(|(_, id)| id).collect()
    }

    /// The per-step oracle (see the file docs).
    fn check(&mut self) {
        self.steps += 1;
        assert_eq!(self.dynamic.len(), self.live.len(), "step {}", self.steps);
        if *self.dynamic.grid() != self.grid {
            self.grid = *self.dynamic.grid();
            self.regrids += 1;
            self.moved += self.live.len();
        }
        // Resolution follows the live count from the first mutation on:
        // inside the band, or on the grid the √n rule gives (its clamp
        // can sit outside the band).
        let (len, cells) = (self.live.len(), self.grid.num_cells());
        let rule = ((len.max(1) as f64).sqrt().ceil() as u32).clamp(1, 256);
        assert!(
            self.mutations == 0
                || (4 * len >= cells && len <= 4 * cells)
                || (self.grid.nx(), self.grid.ny()) == (rule, rule),
            "{len} points on {cells} buckets, step {}",
            self.steps
        );
        let everything = (Point::new(50.0, 50.0), 200.0);
        let somewhere = (self.point(true), self.rng.next_f64() * 40.0);
        let k = 1 + (self.rng.next_u64() as usize) % 12;
        for (c, r) in [everything, somewhere] {
            let in_disc = |&&(p, _): &&(Point, u32)| p.euclidean_sq(c) <= r * r;
            let mut got = self.disc(c, r);
            got.sort_unstable();
            let mut want: Vec<u32> = self.live.iter().filter(in_disc).map(|e| e.1).collect();
            want.sort_unstable();
            assert_eq!(got, want, "disc, step {}", self.steps);

            let accept = |_: f64, id: u32| !id.is_multiple_of(5);
            let got = self.dynamic.k_nearest_within(c, r, k, accept);
            let mut want: Vec<(f64, u32)> = (self.live.iter().filter(in_disc))
                .map(|&(p, id)| (p.euclidean(c), id))
                .filter(|&(d, id)| accept(d, id))
                .collect();
            want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.truncate(k);
            let bits = |v: &[(f64, u32)]| -> Vec<(u64, u32)> {
                v.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
            };
            assert_eq!(bits(&got), bits(&want), "k-nearest, step {}", self.steps);
        }
        assert_eq!(
            self.disc(everything.0, everything.1).len(),
            self.live.len(),
            "the covering disc must see every bucket, step {}",
            self.steps
        );
    }
}

/// ⌈log₄ n⌉: how many 4× steps fit between 1 and `n`.
fn log4_ceil(n: usize) -> usize {
    (n.max(1).next_power_of_two().trailing_zeros() as usize).div_ceil(2)
}

/// Grow 0 → N, shrink to N/32, mixing bulk and one-at-a-time operations
/// with relocations and out-of-region points. The band is 16× wide, so
/// each direction may regrid once per 4× of size and no more.
#[test]
fn grow_then_shrink_regrids_logarithmically_and_invisibly() {
    const N: usize = 4096;
    // A hint far above anything this run holds, as the service passes
    // workers-ever-admitted for a pool a fraction of that size.
    let mut h = Harness::new(
        DynamicBucketIndex::with_expected_len(Rect::square(REGION), 50_000),
        0x5EED,
    );
    assert_eq!(h.grid.nx(), 224, "the hint sizes the empty index");
    h.insert_each(40, 9);
    assert!(h.grid.nx() <= 7, "and stops mattering at the first point");
    while h.live.len() < N {
        let room = N - h.live.len();
        match h.rng.next_u64() % 4 {
            0 => h.insert_each(room.min(7), 11),
            1 => h.relocate(5, 11),
            _ => {
                let n = 1 + (h.rng.next_u64() as usize) % (h.live.len() / 2 + 8);
                h.insert_bulk(n.min(room), 64);
            }
        }
    }
    let grown = h.regrids;
    h.remove_strays();
    while h.live.len() > N / 32 {
        let excess = h.live.len() - N / 32;
        match h.rng.next_u64() % 4 {
            0 => h.remove_each(excess.min(7)),
            1 => h.relocate(5, u64::MAX),
            _ => {
                let n = 1 + (h.rng.next_u64() as usize) % (h.live.len() / 3 + 8);
                h.remove_bulk(n.min(excess));
            }
        }
    }
    assert_eq!(h.live.len(), N / 32);
    // One regrid off the hint, then at most one per 4× on the way up
    // (at 5, 37 and once more at the very least); at most one per 4×
    // on the way down, and at least one.
    assert!(
        (4..=log4_ceil(N) + 1).contains(&grown),
        "{grown} regrids growing to {N}"
    );
    let shrunk = h.regrids - grown;
    assert!(
        (1..=log4_ceil(32) + 1).contains(&shrunk),
        "{shrunk} regrids shrinking to {}",
        N / 32
    );
    assert!(
        h.moved <= 2 * h.mutations,
        "regrids moved {} points over {} mutations",
        h.moved,
        h.mutations
    );
}

/// Hysteresis: a population that oscillates across the edge of the band
/// regrids once, on the first crossing, and then sits inside the new
/// band.
#[test]
fn oscillating_across_a_band_edge_regrids_once() {
    let mut h = Harness::new(
        DynamicBucketIndex::new(GridSpec::square(Rect::square(REGION), 8)),
        7,
    );
    h.insert_bulk(4 * 64, u64::MAX);
    assert_eq!(
        (h.regrids, h.grid.nx()),
        (0, 8),
        "4·cells is inside the band"
    );
    for _ in 0..40 {
        h.insert_each(3, u64::MAX);
        h.remove_each(3);
        h.insert_bulk(5, u64::MAX);
        h.remove_bulk(5);
    }
    assert_eq!(h.regrids, 1);
    assert_eq!(h.grid.nx(), 17, "√257 rounded up");
}

/// A drawn script: the harness seed, the initial grid side, then
/// `(op, n)` steps.
type Script = (u64, u32, Vec<(u8, usize)>);

/// Random scripts of bulk and one-at-a-time inserts, removes and
/// relocations — a failing script is halved to a short one. The initial
/// grid is drawn too, so a script starts inside, above or below its
/// band.
#[test]
fn regrids_are_invisible_to_queries() {
    let draw = |seed| -> Script {
        let mut rng = XorShift::seeded(seed);
        let (seed, initial_side) = (rng.below(1_000_000), 1 + rng.below(39) as u32);
        let steps = 1 + rng.below(39);
        let script = (0..steps)
            .map(|_| (rng.below(7) as u8, 1 + rng.below(299) as usize))
            .collect();
        (seed, initial_side, script)
    };
    let halve = |(seed, side, script): &Script| {
        (script.len() > 1).then(|| (*seed, *side, script[..script.len() / 2].to_vec()))
    };
    explore(0..48, draw, halve, |(seed, initial_side, script)| {
        let grid = GridSpec::square(Rect::square(REGION), *initial_side);
        let mut h = Harness::new(DynamicBucketIndex::new(grid), *seed);
        for &(op, n) in script {
            match op {
                0 => h.insert_each(n.min(12), 9),
                1 | 2 => h.insert_bulk(n, 48),
                3 => h.remove_each(n.min(12)),
                4 => {
                    // A share of the live set, so scripts shrink as
                    // readily as they grow.
                    let share = h.live.len() * (n % 8 + 1) / 8;
                    h.remove_bulk(share);
                }
                5 => h.relocate(n.min(12), 9),
                _ => h.remove_strays(),
            }
        }
        assert!(
            h.moved <= 2 * h.mutations,
            "regrids moved {} points over {} mutations",
            h.moved,
            h.mutations
        );
    });
}
