//! Reusable per-period graph construction: the path that ships, checked
//! against the scan of [`crate::builder`].
//!
//! The paper's 500k×500k scalability claim rests on per-period work
//! being proportional to *churn* — the workers arriving, expiring or
//! relocating between periods — not to the standing pool.
//! [`PeriodGraphCache`] owns a [`DynamicBucketIndex`] over the live
//! workers and mutates it by churn, so a period with `c` worker events
//! costs `O(c)` index maintenance plus the output-sensitive query work.
//!
//! ## State is sized by who is live
//!
//! Nothing here is indexed by worker id — a stream's ids only grow, so
//! a slot per id *ever seen* outgrows the live set without bound. The
//! live set is three id-ascending lanes (`live_ids`, `live_inputs`,
//! `live_slots`; entry `j` is right-side vertex `j`). A *slot* is a
//! `u32` a worker holds while live, recycled through a free list, so it
//! and `rank` stay below the peak live count. The index files slot and
//! range radius next to the id: the index finds a departing worker's
//! bucket entry by its slot, the range check reads what the bucket scan
//! streamed past, and an edge reads its vertex as `rank[slot]`
//! (refreshed per build, `O(live)` like `apply`'s compaction), not by a
//! binary search. A row is its task's ranks, sorted as `u32`s.
//!
//! ## Determinism contract (the scan oracle)
//!
//! [`PeriodGraphCache::apply`] followed by
//! [`PeriodGraphCache::build_graph_capped`] — the cache's one build
//! entry; the edge cap `k` is its parameter, and `usize::MAX` asks for
//! every in-range edge through the same code — is **bit-identical** to
//! [`crate::build_period_graph_capped`] — Definition 5(ii) as a double
//! loop, sorted and cut; it shares no code with the index — called on
//! the *materialized live set*: the live workers in ascending id order.
//! Enforced by unit tests here plus the cross-crate proptest churn
//! oracle (`incremental_graph_matches_scratch_rebuild`). The identity
//! holds because both sides keep exactly the pairs `in_range` keeps
//! and cut them by the total `(distance, id)` key, which no bucket grid
//! can influence — the index re-buckets itself as the pool moves. Then
//! `rank[slot]` is the lane position, and ids are unique, so each
//! sorted row is strictly ascending: the row the scan freezes. Slots
//! never show (see `Ranged`), though their values depend on history.

use crate::problem::{TaskInput, WorkerInput};
use maps_matching::BipartiteGraph;
use maps_spatial::{DynamicBucketIndex, GridSpec, Point, Slotted};

/// What the spatial index stores per live worker: its id, its slot and
/// the range radius the capped query checks (as `f64::to_bits`, so the
/// derive applies). Ids are unique among live workers, so the derived
/// order *is* the id order. A slot depends on history (recovery builds
/// from one batch what a run reached by churn), so it decides no
/// comparison and is never saved: the index reads it to find the
/// worker's bucket entry, a build to find the lane position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    reason = "derived `PartialOrd` calls `partial_cmp` on integer fields; `allow` because `derive` copies it onto its impls and does not copy `expect`"
)]
struct Ranged {
    id: u32,
    slot: u32,
    radius: u64,
}

/// The index's position table is addressed by the free-listed slot, so
/// it stays live-sized too.
impl Slotted for Ranged {
    fn slot(&self) -> usize {
        self.slot as usize
    }
}

fn ranged(id: u32, slot: u32, worker: &WorkerInput) -> Ranged {
    let radius = worker.radius.to_bits();
    Ranged { id, slot, radius }
}

/// The range constraint, in its one spelling: `fl(√d²) ≤ a_w`, what
/// `Point::euclidean(..) <= radius` computes in the scan. The index
/// prefilters on `d² ≤ fl(r²)` for its query radius `r`; queried with
/// `r = a_max.next_up()` that prefilter drops no pair this predicate
/// keeps, for floats `d²` and `a_w ≤ a_max`: `fl(√d²) ≤ a_w ≤ a_max`
/// puts the real `√d²` below `next_up(a_max)` (rounding is monotone),
/// so `d² < next_up(a_max)²` exactly, so `d² ≤ fl(next_up(a_max)²)` (a
/// float below a real is at most that real rounded) — `a_max = 0.0` and
/// `f64::MAX` (→ `∞`) included. A worker's reach is therefore a
/// function of that worker alone, never of who else is live and widens
/// the query; every graph build queries with that radius.
fn in_range(distance: f64, worker: Ranged) -> bool {
    distance <= f64::from_bits(worker.radius)
}

/// Lazily maintained maximum live radius: arrivals update it in O(1);
/// the departure of the last max-radius holder marks it dirty and the
/// next read rescans the live set once. Radii are effectively
/// continuous, so the max departs with probability `churn/live` per
/// period and the rescan is O(churn) amortized.
#[derive(Debug, Clone, Default)]
struct MaxRadius {
    /// `0.0` while nothing is live.
    max: f64,
    /// How many live workers carry exactly `max`.
    count: usize,
    /// Invalidated by a departure; updates wait for the next rescan.
    dirty: bool,
}

impl MaxRadius {
    fn arrive(&mut self, radius: f64) {
        // `-0.0` → `0.0`, so the comparisons below are bit-stable.
        let radius = radius + 0.0;
        if !self.dirty && radius > self.max {
            self.max = radius;
            self.count = 1;
        } else if !self.dirty && radius == self.max {
            self.count += 1;
        }
    }

    fn depart(&mut self, radius: f64) {
        if !self.dirty && radius + 0.0 == self.max {
            self.count -= 1;
            self.dirty = self.count == 0;
        }
    }

    /// The maximum over `live`: `fold(0.0, f64::max)` of their radii.
    fn get(&mut self, live: &[WorkerInput]) -> f64 {
        if self.dirty {
            *self = Self::default();
            live.iter().for_each(|w| self.arrive(w.radius));
        }
        self.max
    }
}

/// Incremental per-period task–worker graph builder: the live lanes and
/// the dynamic spatial index over them; see the module docs for the
/// contract.
#[derive(Debug, Clone)]
pub struct PeriodGraphCache {
    index: DynamicBucketIndex<Ranged>,
    /// Live ids, ascending, and their parallel lanes.
    live_ids: Vec<u32>,
    live_inputs: Vec<WorkerInput>,
    live_slots: Vec<u32>,
    /// Lane position by slot as of the last build, one per slot handed out.
    rank: Vec<u32>,
    free_slots: Vec<u32>,
    max_radius: MaxRadius,
    /// Scratch: one `apply`'s departure ids, sorted.
    sorted_ids: Vec<u32>,
    /// Scratch: one `apply`'s `(id, position in arrivals)`, sorted.
    arrival_order: Vec<(u32, u32)>,
    /// Scratch for the batches [`PeriodGraphCache::apply`] hands to the
    /// index's bulk operations.
    batch: Vec<(Point, Ranged)>,
    /// Per-query scratch of the k-nearest queries.
    query: Vec<(f64, Ranged)>,
}

impl PeriodGraphCache {
    /// An empty cache over `grid`'s region. The spatial index starts as
    /// a single bucket and sizes itself to the live count before the
    /// first batch goes in.
    pub fn new(grid: &GridSpec) -> Self {
        Self {
            index: DynamicBucketIndex::with_expected_len(grid.region(), 0),
            live_ids: Vec::new(),
            live_inputs: Vec::new(),
            live_slots: Vec::new(),
            rank: Vec::new(),
            free_slots: Vec::new(),
            max_radius: MaxRadius::default(),
            sorted_ids: Vec::new(),
            arrival_order: Vec::new(),
            batch: Vec::new(),
            query: Vec::new(),
        }
    }

    /// Number of live workers.
    pub fn live_count(&self) -> usize {
        self.live_ids.len()
    }

    /// Live worker ids, ascending. `live_ids()[j]` is the id of the
    /// graph's right-side vertex `j` in the most recently built graph.
    pub fn live_ids(&self) -> &[u32] {
        &self.live_ids
    }

    /// The materialized live worker list, parallel to
    /// [`PeriodGraphCache::live_ids`] — the `workers` argument the
    /// from-scratch oracle and a [`crate::PeriodInput`] take.
    pub fn live_inputs(&self) -> &[WorkerInput] {
        &self.live_inputs
    }

    /// The live worker with `id`, if any (a binary search).
    pub fn worker(&self, id: u32) -> Option<&WorkerInput> {
        let dense = self.live_ids.binary_search(&id).ok()?;
        Some(&self.live_inputs[dense])
    }

    /// Copies [`PeriodGraphCache::live_inputs`] into `out`.
    pub fn fill_worker_inputs(&self, out: &mut Vec<WorkerInput>) {
        out.clear();
        out.extend_from_slice(&self.live_inputs);
    }

    /// Applies one period's churn — the cache's one mutation entry:
    /// `departures` (ids that must be live) leave, then `arrivals`
    /// enter.
    ///
    /// Ids are caller-assigned `u32`s, unique among live workers and as
    /// sparse as the caller likes (cost follows the live count, never
    /// the largest id); the ascending id order defines the materialized
    /// worker list (and thus the graph's right-side numbering). Re-using
    /// the id of a departed worker is allowed — a busy worker re-enters
    /// under its own id after relocating, in a later call or, listed on
    /// both sides, in this one — and keeps its position in that order.
    ///
    /// **Sort, then merge.** Either list may come in any order: each
    /// side's *ids* are sorted into scratch (never the 36-byte arrival
    /// records; the sort is run-adaptive, and a window's admissions
    /// already ascend with only a few releases behind them), then a
    /// forward pass closes the departures' gaps in the live lanes and a
    /// backward pass opens the arrivals' slots, in place, block by
    /// block. A non-live departure, an already-live arrival and a
    /// duplicate on either side show up as sorted neighbours and panic.
    ///
    /// The index files each departure and arrival in `O(1)`, found or
    /// placed by its slot (one regrid check per side).
    pub fn apply(&mut self, arrivals: &[(u32, WorkerInput)], departures: &[u32]) {
        self.depart(departures);
        self.arrive(arrivals);
    }

    /// The departure half of [`PeriodGraphCache::apply`].
    fn depart(&mut self, departures: &[u32]) {
        self.sorted_ids.clear();
        self.sorted_ids.extend_from_slice(departures);
        self.sorted_ids.sort();
        self.batch.clear();
        let len = self.live_ids.len();
        // Survivors below `write` are final; `read..` is still to scan.
        let (mut write, mut read) = (0, 0);
        for &id in &self.sorted_ids {
            let mut at = read;
            while at < len && self.live_ids[at] < id {
                at += 1;
            }
            assert!(
                self.live_ids.get(at) == Some(&id),
                "departure of a non-live worker"
            );
            self.live_ids.copy_within(read..at, write);
            self.live_inputs.copy_within(read..at, write);
            self.live_slots.copy_within(read..at, write);
            write += at - read;
            read = at + 1;
            let (w, slot) = (&self.live_inputs[at], self.live_slots[at]);
            self.max_radius.depart(w.radius);
            self.free_slots.push(slot);
            self.batch.push((w.location, ranged(id, slot, w)));
        }
        self.live_ids.copy_within(read.., write);
        self.live_inputs.copy_within(read.., write);
        self.live_slots.copy_within(read.., write);
        self.live_ids.truncate(write + len - read);
        self.live_inputs.truncate(write + len - read);
        self.live_slots.truncate(write + len - read);
        assert_eq!(
            self.index.remove_bulk(&self.batch),
            self.batch.len(),
            "live worker missing from the spatial index"
        );
    }

    /// The arrival half of [`PeriodGraphCache::apply`].
    fn arrive(&mut self, arrivals: &[(u32, WorkerInput)]) {
        self.batch.clear();
        self.arrival_order.clear();
        for (&(id, w), at) in arrivals.iter().zip(0u32..) {
            assert!(
                w.radius.is_finite() && w.radius >= 0.0,
                "worker radius must be non-negative, got {}",
                w.radius
            );
            self.max_radius.arrive(w.radius);
            let slot = self.free_slots.pop().unwrap_or(self.rank.len() as u32);
            self.rank.resize(self.rank.len().max(slot as usize + 1), 0);
            self.batch.push((w.location, ranged(id, slot, &w)));
            self.arrival_order.push((id, at));
        }
        self.arrival_order.sort();
        // Grow by the batch; live entries at `read..` now sit at `write..`.
        let mut read = self.live_ids.len();
        let mut write = read + arrivals.len();
        self.live_ids.extend(arrivals.iter().map(|a| a.0));
        self.live_inputs.extend(arrivals.iter().map(|a| a.1));
        self.live_slots.extend(self.batch.iter().map(|b| b.1.slot));
        for (below, &(id, from)) in self.arrival_order.iter().enumerate().rev() {
            let mut at = read;
            while at > 0 && self.live_ids[at - 1] > id {
                at -= 1;
            }
            let twin = below > 0 && self.arrival_order[below - 1].0 == id;
            assert!(
                !twin && (at == 0 || self.live_ids[at - 1] != id),
                "arrival of an already-live worker id {id}"
            );
            write -= read - at + 1;
            self.live_ids.copy_within(at..read, write + 1);
            self.live_inputs.copy_within(at..read, write + 1);
            self.live_slots.copy_within(at..read, write + 1);
            read = at;
            self.live_ids[write] = id;
            self.live_inputs[write] = arrivals[from as usize].1;
            self.live_slots[write] = self.batch[from as usize].1.slot;
        }
        self.index.insert_bulk(&self.batch);
    }

    /// The maximum live worker radius (`0.0` when empty); every graph
    /// build queries one ulp above it (see `in_range`).
    fn max_live_radius(&mut self) -> f64 {
        self.max_radius.get(&self.live_inputs)
    }

    /// Builds the graph of the current live set (no churn): each task's
    /// `k` nearest in-range workers under the `(distance, id)` order —
    /// every in-range worker once `k` reaches the live count.
    pub fn build_graph_capped(&mut self, tasks: &[TaskInput], k: usize) -> BipartiteGraph {
        // One ulp up: the index's disc is a prefilter, `in_range` decides.
        let radius = self.max_live_radius().next_up();
        if !tasks.is_empty() {
            for (position, &slot) in (0u32..).zip(&self.live_slots) {
                self.rank[slot as usize] = position;
            }
        }
        let mut starts = Vec::with_capacity(tasks.len() + 1);
        starts.push(0);
        let mut adj = Vec::new();
        for task in tasks {
            self.index
                .k_nearest_within_into(task.origin, radius, k, in_range, &mut self.query);
            let row = adj.len();
            adj.extend(self.query.iter().map(|&(_, w)| self.rank[w.slot as usize]));
            adj[row..].sort_unstable();
            starts.push(adj.len() as u32);
        }
        BipartiteGraph::from_sorted_rows(self.live_ids.len(), starts, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_period_graph, build_period_graph_capped};
    use maps_spatial::{Point, Rect};
    use maps_testkit::XorShift;
    use std::collections::BTreeMap;

    fn grid() -> GridSpec {
        GridSpec::square(Rect::square(100.0), 5)
    }

    fn random_worker(grid: &GridSpec, rng: &mut XorShift) -> WorkerInput {
        WorkerInput::new(
            grid,
            Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
            2.0 + rng.next_f64() * 20.0,
        )
    }

    fn random_tasks(grid: &GridSpec, rng: &mut XorShift, n: usize) -> Vec<TaskInput> {
        (0..n)
            .map(|_| {
                TaskInput::new(
                    grid,
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                    0.5 + rng.next_f64() * 3.0,
                )
            })
            .collect()
    }

    /// Mirror of the cache's live set for the from-scratch oracle.
    struct Mirror {
        live: Vec<(u32, WorkerInput)>, // ascending id
    }
    impl Mirror {
        fn workers(&self) -> Vec<WorkerInput> {
            self.live.iter().map(|&(_, w)| w).collect()
        }
    }

    /// Random churn over several periods: apply + build must equal the
    /// from-scratch oracle bitwise (structural equality of the CSR graph
    /// is exactly bit equality — all fields are integers). A relocation
    /// is written the way the lifecycle table performs it: the same id
    /// on both sides of one `apply`.
    #[test]
    fn advance_matches_scratch_oracle_under_churn() {
        let grid = grid();
        for (seed, k) in [(1u64, 4usize), (2, 1), (3, 13), (4, 200)] {
            let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let mut cache = PeriodGraphCache::new(&grid);
            let mut mirror = Mirror { live: Vec::new() };
            let mut next_id = 0u32;
            for period in 0..12 {
                let mut departures = Vec::new();
                let mut survivors = Vec::new();
                for &(id, w) in &mirror.live {
                    if rng.next_u64().is_multiple_of(5) {
                        departures.push(id);
                    } else {
                        survivors.push((id, w));
                    }
                }
                mirror.live = survivors;
                let mut arrivals = Vec::new();
                for entry in mirror.live.iter_mut() {
                    if rng.next_u64().is_multiple_of(6) {
                        let to =
                            Point::new(rng.next_f64() * 110.0 - 5.0, rng.next_f64() * 110.0 - 5.0);
                        entry.1.location = to;
                        entry.1.cell = grid.cell_of(to);
                        departures.push(entry.0);
                        arrivals.push(*entry);
                    }
                }
                for _ in 0..(rng.next_u64() % 20) {
                    let fresh = (next_id, random_worker(&grid, &mut rng));
                    next_id += 1;
                    mirror.live.push(fresh);
                    arrivals.push(fresh);
                }
                let n_tasks = (rng.next_u64() % 25) as usize;
                let tasks = random_tasks(&grid, &mut rng, n_tasks);
                cache.apply(&arrivals, &departures);
                let incremental = cache.build_graph_capped(&tasks, k);
                let scratch = build_period_graph_capped(&tasks, &mirror.workers(), k);
                assert_eq!(
                    incremental, scratch,
                    "seed {seed} k {k} period {period}: capped graph diverged"
                );
                let full = cache.build_graph_capped(&tasks, usize::MAX);
                let full_oracle = build_period_graph(&tasks, &mirror.workers());
                assert_eq!(
                    full, full_oracle,
                    "seed {seed} k {k} period {period}: full graph diverged"
                );
                assert_eq!(cache.live_count(), mirror.live.len());
            }
        }
    }

    /// Departed-id reuse (the simulator's busy-release pattern) keeps the
    /// worker at its original position in the materialized order.
    #[test]
    fn departed_ids_can_be_reused() {
        let grid = grid();
        let mut rng = XorShift(77);
        let mut cache = PeriodGraphCache::new(&grid);
        let w0 = random_worker(&grid, &mut rng);
        let w1 = random_worker(&grid, &mut rng);
        let w2 = random_worker(&grid, &mut rng);
        cache.apply(&[(0, w0), (1, w1), (2, w2)], &[]);
        assert_eq!(cache.worker(1), Some(&w1));
        cache.apply(&[], &[1]);
        assert_eq!(cache.worker(1), None);
        assert_eq!(cache.live_ids(), &[0, 2]);
        // Same period: departure of 0 and re-arrival of 1 elsewhere.
        let w1b = random_worker(&grid, &mut rng);
        cache.apply(&[(1, w1b)], &[0]);
        assert_eq!(cache.live_ids(), &[1, 2]);
        let mut out = Vec::new();
        cache.fill_worker_inputs(&mut out);
        assert_eq!(out, vec![w1b, w2]);
    }

    #[test]
    fn empty_cache_builds_empty_graphs() {
        let grid = grid();
        let mut cache = PeriodGraphCache::new(&grid);
        let mut rng = XorShift(5);
        let tasks = random_tasks(&grid, &mut rng, 3);
        cache.apply(&[], &[]);
        let g = cache.build_graph_capped(&tasks, 4);
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 0);
        assert_eq!(g.n_edges(), 0);
        let g = cache.build_graph_capped(&[], usize::MAX);
        assert_eq!(g.n_left(), 0);
    }

    #[test]
    fn max_radius_tracks_removals() {
        // Regression shape: the k-nearest query radius must shrink when
        // the widest worker departs.
        let grid = grid();
        let near = WorkerInput::new(&grid, Point::new(10.0, 10.0), 3.0);
        let wide = WorkerInput::new(&grid, Point::new(90.0, 90.0), 80.0);
        let tied = WorkerInput::new(&grid, Point::new(20.0, 10.0), 3.0);
        let mut cache = PeriodGraphCache::new(&grid);
        cache.apply(&[(0, near), (1, wide), (2, tied)], &[]);
        let tasks = [TaskInput::new(&grid, Point::new(50.0, 50.0), 1.0)];
        // k=2 < live: the capped path queries with max radius 80 and the
        // wide worker is the only one in range.
        let g = cache.build_graph_capped(&tasks, 2);
        assert_eq!(g.neighbors(0), &[1]);
        let newcomer = WorkerInput::new(&grid, Point::new(52.0, 50.0), 2.5);
        cache.apply(&[(3, newcomer)], &[1]);
        let g = cache.build_graph_capped(&tasks, 2);
        let oracle = {
            let mut out = Vec::new();
            cache.fill_worker_inputs(&mut out);
            build_period_graph_capped(&tasks, &out, 2)
        };
        assert_eq!(g, oracle);
        assert_eq!(g.neighbors(0), &[2], "only the new near worker reaches");
    }

    /// Applies `arrivals` / `departures` to `cache` and to the `mirror`
    /// map, then checks every view of the cache — lanes, lookups, the
    /// radius tracker, capped and complete graphs — against the mirror
    /// and the from-scratch oracle on it.
    fn apply_and_check(
        cache: &mut PeriodGraphCache,
        mirror: &mut BTreeMap<u32, WorkerInput>,
        arrivals: &[(u32, WorkerInput)],
        departures: &[u32],
        what: &str,
    ) {
        for id in departures {
            mirror.remove(id).expect("test departs a mirrored id");
        }
        mirror.extend(arrivals.iter().copied());
        cache.apply(arrivals, departures);
        let ids: Vec<u32> = mirror.keys().copied().collect();
        let workers: Vec<WorkerInput> = mirror.values().copied().collect();
        assert_eq!(cache.live_ids(), ids, "{what}: ids");
        assert_eq!(cache.live_inputs(), workers, "{what}: inputs");
        assert_eq!(cache.live_count(), ids.len(), "{what}: count");
        for (id, w) in mirror.iter() {
            assert_eq!(cache.worker(*id), Some(w), "{what}: lookup of {id}");
        }
        let max = workers.iter().map(|w| w.radius).fold(0.0, f64::max);
        assert_eq!(cache.max_live_radius(), max, "{what}: max radius");
        let tasks = random_tasks(&grid(), &mut XorShift(0x7A5C), 9);
        for k in [1, 2, 64] {
            assert_eq!(
                cache.build_graph_capped(&tasks, k),
                build_period_graph_capped(&tasks, &workers, k),
                "{what}: capped graph, k {k}"
            );
        }
        assert_eq!(
            cache.build_graph_capped(&tasks, usize::MAX),
            build_period_graph(&tasks, &workers),
            "{what}: complete graph"
        );
    }

    /// One `apply` of a table-driven script: label, arrivals, departures.
    type Step = (&'static str, Vec<(u32, WorkerInput)>, Vec<u32>);
    /// A misuse of `apply` and the panic message it must produce.
    type Misuse<'a> = (&'a str, &'a [(u32, WorkerInput)], &'a [u32], &'a str);

    fn at(x: f64, y: f64, radius: f64) -> WorkerInput {
        WorkerInput::new(&grid(), Point::new(x, y), radius)
    }

    /// `apply` sorts for itself: either side in any order, relocations
    /// (one id on both sides) mixed in, gives the lanes the sorted call
    /// gives — and a relocated worker keeps its position while taking
    /// its new location and radius.
    #[test]
    fn apply_sorts_both_sides_and_relocates_in_place() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut mirror = BTreeMap::new();
        let w = |i: u32| {
            at(
                5.0 + 9.0 * (i % 10) as f64,
                5.0 + 9.0 * (i / 10) as f64,
                30.0,
            )
        };
        let steps: [Step; 6] = [
            (
                "descending arrivals",
                (0..12).rev().map(|i| (i * 3, w(i))).collect(),
                vec![],
            ),
            ("shuffled departures", vec![], vec![21, 0, 33, 9]),
            (
                "arrivals below, between and above, unsorted",
                vec![(40, w(40)), (1, w(1)), (16, w(16)), (0, w(0)), (34, w(34))],
                vec![],
            ),
            (
                "relocations listed on both sides, out of order",
                vec![
                    (30, at(90.0, 90.0, 7.0)),
                    (3, at(1.0, 99.0, 55.0)),
                    (2, w(2)),
                ],
                vec![30, 3],
            ),
            (
                "everything but one leaves, one enters below it",
                vec![(4, w(4))],
                vec![40, 34, 30, 27, 24, 18, 16, 15, 12, 3, 2, 1, 0],
            ),
            ("the rest leaves", vec![], vec![6, 4]),
        ];
        for (what, arrivals, departures) in &steps {
            apply_and_check(&mut cache, &mut mirror, arrivals, departures, what);
        }
        assert_eq!(cache.live_count(), 0);
        // The relocation step by itself: same slot, new state.
        let mut cache = PeriodGraphCache::new(&grid());
        cache.apply(&[(5, w(5)), (7, w(7)), (9, w(9))], &[]);
        let moved = at(1.0, 99.0, 55.0);
        cache.apply(&[(7, moved)], &[7]);
        assert_eq!(cache.live_ids(), [5, 7, 9]);
        assert_eq!(cache.live_inputs()[1], moved);
        assert_eq!(cache.worker(7), Some(&moved));
    }

    /// Zero radii of either sign, alone and next to positive ones: the
    /// radius in the index lane, the `max_live_radius` tracker and the
    /// scratch oracle agree (a zero-radius worker is reachable only by a
    /// task at its exact location).
    #[test]
    fn zero_and_negative_zero_radii_match_the_oracle() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut mirror = BTreeMap::new();
        let spot = |i: u32, radius: f64| (i, at(10.0 + i as f64, 50.0, radius));
        let steps: [Step; 5] = [
            ("only -0.0", vec![spot(0, -0.0), spot(1, -0.0)], vec![]),
            ("0.0 joins", vec![spot(2, 0.0), spot(3, 0.0)], vec![]),
            (
                "mixed",
                vec![spot(4, 25.0), spot(5, -0.0), spot(6, 3.0)],
                vec![],
            ),
            ("the widest leaves", vec![spot(7, 0.0)], vec![4]),
            ("back to zeros", vec![spot(1, 0.0)], vec![6, 1]),
        ];
        for (what, arrivals, departures) in &steps {
            apply_and_check(&mut cache, &mut mirror, arrivals, departures, what);
            assert!(cache.max_live_radius().is_sign_positive(), "{what}");
        }
        // A task exactly on a zero-radius worker reaches it, capped too.
        let task = [TaskInput::new(&grid(), Point::new(12.0, 50.0), 1.0)];
        assert_eq!(cache.build_graph_capped(&task, 2).neighbors(0), &[2]);
    }

    /// Ids are names, not offsets: one arrival with an id near `u32::MAX`
    /// costs what any other arrival costs (a slot-per-id table asked for
    /// 160 GB here).
    #[test]
    fn sparse_ids_cost_nothing() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut mirror = BTreeMap::new();
        let far = (4_000_000_000, at(60.0, 50.0, 20.0));
        let near = (7, at(40.0, 50.0, 20.0));
        apply_and_check(&mut cache, &mut mirror, &[far, near], &[], "sparse ids");
        assert_eq!(cache.live_ids(), [7, 4_000_000_000]);
        assert_eq!(cache.worker(4_000_000_000), Some(&far.1));
        assert_eq!(cache.worker(7), Some(&near.1));
        assert_eq!(cache.worker(8), None);
        let tasks = [TaskInput::new(&grid(), Point::new(50.0, 50.0), 1.0)];
        let workers = [near.1, far.1];
        for k in [1, 8] {
            assert_eq!(
                cache.build_graph_capped(&tasks, k),
                build_period_graph_capped(&tasks, &workers, k)
            );
        }
        apply_and_check(&mut cache, &mut mirror, &[], &[4_000_000_000], "it leaves");
    }

    /// Every misuse of `apply` panics with the message it always had,
    /// however the offending ids are ordered among valid ones.
    #[test]
    fn misuse_panics_with_the_established_messages() {
        let w = at(50.0, 50.0, 5.0);
        let cases: [Misuse<'_>; 7] = [
            (
                "duplicate inside arrivals",
                &[(9, w), (4, w), (9, w)],
                &[],
                "already-live worker id 9",
            ),
            (
                "adjacent duplicate arrivals",
                &[(4, w), (4, w)],
                &[],
                "already-live worker id 4",
            ),
            (
                "arrival of a live id",
                &[(8, w), (2, w)],
                &[],
                "already-live worker id 2",
            ),
            (
                "live id arrives while another leaves",
                &[(3, w)],
                &[1],
                "already-live worker id 3",
            ),
            (
                "departure of a dead id",
                &[],
                &[2, 5],
                "departure of a non-live worker",
            ),
            (
                "departure above every live id",
                &[],
                &[77],
                "departure of a non-live worker",
            ),
            (
                "the same id twice in departures",
                &[],
                &[3, 1, 3],
                "departure of a non-live worker",
            ),
        ];
        for (what, arrivals, departures, message) in cases {
            let mut cache = PeriodGraphCache::new(&grid());
            cache.apply(&[(1, w), (2, w), (3, w)], &[]);
            let panic = std::panic::catch_unwind(move || cache.apply(arrivals, departures))
                .expect_err(what);
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .expect("string panic payload");
            assert!(text.contains(message), "{what}: panicked with {text:?}");
        }
    }

    /// Slots are history, and history must not show: one cache churns
    /// (relocations listed on both sides, departed ids coming back,
    /// freed slots handed to newcomers), the other is rebuilt each
    /// period from one batch of the same live set, as recovery builds
    /// it. Lanes and graphs agree every period although the two hold
    /// different slots.
    #[test]
    fn slots_never_show_in_lanes_or_graphs() {
        let grid = grid();
        let mut rng = XorShift(0x510_7ED);
        let mut churned = PeriodGraphCache::new(&grid);
        let mut mirror: BTreeMap<u32, WorkerInput> = BTreeMap::new();
        let mut departed: Vec<u32> = Vec::new();
        let (mut next_id, mut slots_differed) = (0u32, 0);
        for period in 0..40 {
            let (mut departures, mut arrivals, mut gone) = (Vec::new(), Vec::new(), Vec::new());
            for (&id, w) in &mut mirror {
                match rng.next_u64() % 8 {
                    0 => gone.push(id),
                    1 => {
                        // A relocation: the same id on both sides.
                        *w = random_worker(&grid, &mut rng);
                        departures.push(id);
                        arrivals.push((id, *w));
                    }
                    _ => {}
                }
            }
            for id in gone {
                mirror.remove(&id);
                departures.push(id);
                departed.push(id);
            }
            // A departed id comes back now and then, under a new location.
            if period % 3 == 2 && !departed.is_empty() {
                let id = departed.swap_remove((rng.next_u64() % departed.len() as u64) as usize);
                let w = random_worker(&grid, &mut rng);
                mirror.insert(id, w);
                arrivals.push((id, w));
            }
            for _ in 0..(rng.next_u64() % 12) {
                let w = random_worker(&grid, &mut rng);
                mirror.insert(next_id, w);
                arrivals.push((next_id, w));
                next_id += 1;
            }
            churned.apply(&arrivals, &departures);
            let mut batch = PeriodGraphCache::new(&grid);
            let live: Vec<(u32, WorkerInput)> = mirror.iter().map(|(&id, &w)| (id, w)).collect();
            batch.apply(&live, &[]);
            assert_eq!(churned.live_ids(), batch.live_ids(), "period {period}");
            assert_eq!(
                churned.live_inputs(),
                batch.live_inputs(),
                "period {period}"
            );
            slots_differed += usize::from(churned.live_slots != batch.live_slots);
            let tasks = random_tasks(&grid, &mut rng, 15);
            for k in [1, 3, 8, usize::MAX] {
                assert_eq!(
                    churned.build_graph_capped(&tasks, k),
                    batch.build_graph_capped(&tasks, k),
                    "period {period}, k {k}"
                );
            }
        }
        assert!(slots_differed > 30, "the histories hand out the same slots");
    }

    /// Slots are live-sized: over 4 000 periods of constant churn, with
    /// ids running to hundreds of times the live count, the slot and rank
    /// tables never outgrow the peak live count, and every slot handed
    /// out is either held or free. A slot per id ever seen fails here.
    #[test]
    fn slots_stay_within_the_peak_live_count() {
        let grid = grid();
        let mut rng = XorShift(0x5107_512E);
        let mut cache = PeriodGraphCache::new(&grid);
        let (mut next_id, mut peak) = (0u32, 0);
        let mut live: Vec<u32> = Vec::new();
        for t in 0..4_000 {
            let leaving = live.len().saturating_sub(60).min(10 + (t % 7));
            let departures: Vec<u32> = live.drain(..leaving).collect();
            let arrivals: Vec<(u32, WorkerInput)> = (0..5 + (rng.next_u64() % 10) as u32)
                .map(|i| (next_id + i, random_worker(&grid, &mut rng)))
                .collect();
            next_id += arrivals.len() as u32;
            live.extend(arrivals.iter().map(|a| a.0));
            cache.apply(&arrivals, &departures);
            peak = peak.max(cache.live_count());
            if t % 10 == 0 {
                let _ = cache.build_graph_capped(&random_tasks(&grid, &mut rng, 2), 4);
            }
            assert!(
                cache.rank.len() <= peak,
                "period {t}: {} slots",
                cache.rank.len()
            );
            assert_eq!(
                cache.live_slots.len() + cache.free_slots.len(),
                cache.rank.len()
            );
        }
        assert!(next_id as usize > 100 * peak, "ids {next_id}, peak {peak}");
    }

    #[test]
    #[should_panic(expected = "already-live")]
    fn duplicate_live_id_panics() {
        let grid = grid();
        let mut rng = XorShift(9);
        let mut cache = PeriodGraphCache::new(&grid);
        let w = random_worker(&grid, &mut rng);
        cache.apply(&[(0, w)], &[]);
        cache.apply(&[(0, w)], &[]);
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn departure_of_dead_id_panics() {
        let grid = grid();
        let mut cache = PeriodGraphCache::new(&grid);
        cache.apply(&[], &[3]);
    }
}
