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
//! a slot per id *ever seen* outgrows the live set without bound. A
//! *slot* is a `u32` a worker holds while live, recycled through a free
//! list, so the tables addressed by it — dense position, id, build mark
//! — stay below the peak live count. The live set is a dense, unordered
//! view. A departure names its worker by id and the slot `apply` handed
//! it: one `swap_remove` and one position repoint; an arrival is a push.
//! The index files slot and range radius next to the id, so it finds a
//! departing worker's bucket entry by slot, and the range check reads
//! what the bucket scan streamed past. A build numbers only the workers
//! its tasks reach: it marks each slot at its first edge, sorts those
//! `id << 32 | slot` keys, rewrites each row through the marks and sorts
//! it as `u32`s — the graph costs its edges, never the live count.
//!
//! ## Determinism contract (the scan oracle)
//!
//! [`PeriodGraphCache::apply`] followed by
//! [`PeriodGraphCache::build_graph_capped`] — the cache's one build
//! entry; the edge cap `k` is its parameter, and `usize::MAX` asks for
//! every in-range edge through the same code — keeps the **edge set**
//! of [`crate::build_period_graph_capped`] — Definition 5(ii) as a
//! double loop, sorted and cut; it shares no code with the index — on
//! the live workers in ascending id: each row names
//! ([`PeriodGraphCache::right_id`]) the scan row's ids in its order,
//! and the right side is the distinct ids the rows name, ascending.
//! Enforced by unit tests here plus the cross-crate seeded churn
//! oracle (`incremental_graph_matches_scratch_rebuild`). Both sides
//! keep exactly the pairs `in_range` keeps and cut them by the total
//! `(distance, id)` key, which no bucket grid can influence — the index
//! re-buckets itself as the pool moves — and both number in id order,
//! so sorted rows agree. A matching reads no more: the clearing kernels
//! walk a row in stored order and never compare labels, and a worker no
//! row reaches is an isolated vertex. Slots never show (see `Ranged`),
//! though their values depend on history.

use crate::problem::{TaskInput, WorkerInput};
use maps_matching::BipartiteGraph;
use maps_spatial::{DynamicBucketIndex, GridSpec, Point, Slotted};

/// What the spatial index stores per live worker: its id, its slot and
/// the range radius the capped query checks (as `f64::to_bits`, so the
/// derive applies). Ids are unique among live workers, so the derived
/// order *is* the id order. A slot depends on history (recovery builds
/// from one batch what a run reached by churn), so it decides no
/// comparison and is never saved: the index reads it to find the
/// worker's bucket entry, a build to mark the worker it reached.
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

/// A slot's dense position while no worker holds it.
const FREE: u32 = u32::MAX;
/// A slot's mark outside a build.
const UNMARKED: u32 = u32::MAX;

/// Incremental per-period task–worker graph builder: the live set as a
/// dense view and the dynamic spatial index over it; see the module
/// docs for the contract.
#[derive(Debug, Clone)]
pub struct PeriodGraphCache {
    index: DynamicBucketIndex<Ranged>,
    /// The live workers, dense, in no particular order.
    inputs: Vec<WorkerInput>,
    /// The slot `inputs[j]` holds.
    slots: Vec<u32>,
    /// By slot: its holder's position in `inputs` (`FREE` while free).
    position: Vec<u32>,
    /// By slot: its holder's id (stale while free).
    ids: Vec<u32>,
    /// By slot: `UNMARKED`, except inside a build that reached it.
    mark: Vec<u32>,
    free_slots: Vec<u32>,
    max_radius: MaxRadius,
    /// The last build's right side: `id << 32 | slot` per vertex,
    /// ascending.
    right: Vec<u64>,
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
            inputs: Vec::new(),
            slots: Vec::new(),
            position: Vec::new(),
            ids: Vec::new(),
            mark: Vec::new(),
            free_slots: Vec::new(),
            max_radius: MaxRadius::default(),
            right: Vec::new(),
            batch: Vec::new(),
            query: Vec::new(),
        }
    }

    /// Number of live workers.
    pub fn live_count(&self) -> usize {
        self.inputs.len()
    }

    /// The live workers, dense and in no particular order — the
    /// `workers` a [`crate::PeriodInput`] takes, whose strategies read
    /// its length and per-cell counts.
    pub fn worker_inputs(&self) -> &[WorkerInput] {
        &self.inputs
    }

    /// The live worker `id`, found by the `slot` it holds; `None` unless
    /// that worker holds that slot.
    pub fn worker(&self, id: u32, slot: u32) -> Option<&WorkerInput> {
        let at = *self.position.get(slot as usize)?;
        (at != FREE && self.ids[slot as usize] == id).then(|| &self.inputs[at as usize])
    }

    /// The id of right-side vertex `vertex` of the last built graph.
    pub fn right_id(&self, vertex: usize) -> u32 {
        (self.right[vertex] >> 32) as u32
    }

    /// Applies one period's churn — the cache's one mutation entry:
    /// `departures` leave, then `arrivals` enter. Returns the slot
    /// handed to each arrival, in order.
    ///
    /// Ids are caller-assigned `u32`s, unique among live workers and as
    /// sparse as the caller likes (cost follows the live count, never
    /// the largest id). A departure is `(id, slot)`, the slot the
    /// worker was handed when it arrived; it panics unless that worker
    /// holds that slot, so a non-live id and an id listed twice panic.
    /// Re-using the id of a departed worker is allowed — a busy worker
    /// re-enters under its own id after relocating, in a later call or,
    /// listed on both sides, in this one. The cache cannot see an id
    /// arrive twice: uniqueness is the caller's to keep.
    ///
    /// A departure is one `swap_remove` of the dense view and one
    /// position repoint, an arrival one push; the index files each in
    /// `O(1)`, found or placed by its slot (one regrid check per side).
    pub fn apply(&mut self, arrivals: &[(u32, WorkerInput)], departures: &[(u32, u32)]) -> &[u32] {
        self.depart(departures);
        self.arrive(arrivals);
        &self.slots[self.slots.len() - arrivals.len()..]
    }

    /// The departure half of [`PeriodGraphCache::apply`].
    fn depart(&mut self, departures: &[(u32, u32)]) {
        self.batch.clear();
        for &(id, slot) in departures {
            let at = self.position.get(slot as usize).copied().unwrap_or(FREE);
            assert!(
                at != FREE && self.ids[slot as usize] == id,
                "departure of a non-live worker"
            );
            self.position[slot as usize] = FREE;
            let w = self.inputs.swap_remove(at as usize);
            self.slots.swap_remove(at as usize);
            if let Some(&moved) = self.slots.get(at as usize) {
                self.position[moved as usize] = at;
            }
            self.max_radius.depart(w.radius);
            self.free_slots.push(slot);
            self.batch.push((w.location, ranged(id, slot, &w)));
        }
        assert_eq!(
            self.index.remove_bulk(&self.batch),
            self.batch.len(),
            "live worker missing from the spatial index"
        );
    }

    /// The arrival half of [`PeriodGraphCache::apply`]. Every vector is
    /// reserved for the batch before the first push, so a large first
    /// batch allocates once instead of doubling its way up.
    fn arrive(&mut self, arrivals: &[(u32, WorkerInput)]) {
        self.batch.clear();
        self.batch.reserve(arrivals.len());
        self.inputs.reserve(arrivals.len());
        self.slots.reserve(arrivals.len());
        let fresh = arrivals.len().saturating_sub(self.free_slots.len());
        for by_slot in [&mut self.position, &mut self.ids, &mut self.mark] {
            by_slot.reserve(fresh);
        }
        for &(id, w) in arrivals {
            assert!(
                w.radius.is_finite() && w.radius >= 0.0,
                "worker radius must be non-negative, got {}",
                w.radius
            );
            self.max_radius.arrive(w.radius);
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                self.position.push(FREE);
                self.ids.push(id);
                self.mark.push(UNMARKED);
                self.mark.len() as u32 - 1
            });
            self.position[slot as usize] = self.inputs.len() as u32;
            self.ids[slot as usize] = id;
            self.inputs.push(w);
            self.slots.push(slot);
            self.batch.push((w.location, ranged(id, slot, &w)));
        }
        self.index.insert_bulk(&self.batch);
    }

    /// The maximum live worker radius (`0.0` when empty); every graph
    /// build queries one ulp above it (see `in_range`).
    fn max_live_radius(&mut self) -> f64 {
        self.max_radius.get(&self.inputs)
    }

    /// Builds the graph of the current live set (no churn): each task's
    /// `k` nearest in-range workers under the `(distance, id)` order —
    /// every in-range worker once `k` reaches the live count. The right
    /// side is the workers the rows reach, in ascending id
    /// ([`PeriodGraphCache::right_id`]).
    pub fn build_graph_capped(&mut self, tasks: &[TaskInput], k: usize) -> BipartiteGraph {
        // One ulp up: the index's disc is a prefilter, `in_range` decides.
        let radius = self.max_live_radius().next_up();
        let mut starts = Vec::with_capacity(tasks.len() + 1);
        starts.push(0);
        let mut adj = Vec::new();
        self.right.clear();
        for task in tasks {
            self.index
                .k_nearest_within_into(task.origin, radius, k, in_range, &mut self.query);
            for &(_, w) in &self.query {
                let mark = &mut self.mark[w.slot as usize];
                if *mark == UNMARKED {
                    *mark = 0;
                    self.right.push(u64::from(w.id) << 32 | u64::from(w.slot));
                }
                adj.push(w.slot);
            }
            starts.push(adj.len() as u32);
        }
        self.right.sort_unstable();
        for (vertex, &key) in (0u32..).zip(&self.right) {
            self.mark[key as u32 as usize] = vertex;
        }
        for slot in &mut adj {
            *slot = self.mark[*slot as usize];
        }
        for row in starts.windows(2) {
            adj[row[0] as usize..row[1] as usize].sort_unstable();
        }
        for &key in &self.right {
            self.mark[key as u32 as usize] = UNMARKED;
        }
        BipartiteGraph::from_sorted_rows(self.right.len(), starts, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_period_graph, build_period_graph_capped};
    use maps_spatial::{Point, Rect};
    use maps_testkit::XorShift;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

    /// The live set by id, with the slot each worker was handed — what
    /// the lifecycle's records keep for the cache.
    type Live = BTreeMap<u32, (WorkerInput, u32)>;

    /// Applies churn named by id the way the lifecycle does: each
    /// departure carries the slot its worker was handed, and the slots
    /// handed to the arrivals are kept in `live`.
    fn churn(
        cache: &mut PeriodGraphCache,
        live: &mut Live,
        arrivals: &[(u32, WorkerInput)],
        departures: &[u32],
    ) {
        let departing: Vec<(u32, u32)> = departures
            .iter()
            .map(|&id| (id, live.remove(&id).expect("test departs a live id").1))
            .collect();
        let handed = cache.apply(arrivals, &departing);
        assert_eq!(handed.len(), arrivals.len());
        for (&(id, w), &slot) in arrivals.iter().zip(handed) {
            assert!(live.insert(id, (w, slot)).is_none(), "test re-admits {id}");
        }
    }

    /// The dense view against the slot tables and `live`: every entry's
    /// slot points back at it, every other slot is free, no build left
    /// a mark, and each live worker is found under its slot.
    fn check_dense(cache: &PeriodGraphCache, live: &Live, what: &str) {
        assert_eq!(cache.live_count(), live.len(), "{what}: count");
        assert_eq!(cache.slots.len(), cache.inputs.len(), "{what}: dense view");
        for (j, &slot) in (0u32..).zip(&cache.slots) {
            assert_eq!(cache.position[slot as usize], j, "{what}: entry {j}");
        }
        let held = cache.slots.len() + cache.free_slots.len();
        assert_eq!(held, cache.position.len(), "{what}: slots held or free");
        for &slot in &cache.free_slots {
            assert_eq!(cache.position[slot as usize], FREE, "{what}: free {slot}");
        }
        assert!(cache.mark.iter().all(|&m| m == UNMARKED), "{what}: marks");
        for (&id, (w, slot)) in live {
            assert_eq!(cache.worker(id, *slot), Some(w), "{what}: lookup of {id}");
        }
    }

    /// The ids each row of `graph` names, in stored order; `id_of` maps
    /// a right-side vertex to its id.
    fn rows_by_id(graph: &BipartiteGraph, id_of: impl Fn(usize) -> u32) -> Vec<Vec<u32>> {
        (0..graph.n_left())
            .map(|l| {
                graph
                    .neighbors(l)
                    .iter()
                    .map(|&r| id_of(r as usize))
                    .collect()
            })
            .collect()
    }

    /// The cache's last build `graph` against the scan's `oracle` over
    /// the live workers `ids` (ascending): every row names the scan
    /// row's ids in the scan row's order, and the right side is the
    /// distinct ids the rows name, ascending.
    fn assert_same_edges(
        cache: &PeriodGraphCache,
        graph: &BipartiteGraph,
        oracle: &BipartiteGraph,
        ids: &[u32],
        what: &str,
    ) {
        let rows = rows_by_id(graph, |r| cache.right_id(r));
        assert_eq!(rows, rows_by_id(oracle, |r| ids[r]), "{what}: rows");
        let touched: Vec<u32> = rows
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let right: Vec<u32> = (0..graph.n_right()).map(|r| cache.right_id(r)).collect();
        assert_eq!(right, touched, "{what}: right side");
    }

    /// Builds at each cap in `ks` and checks every graph against the
    /// scan of `live` in ascending id — the complete scan for
    /// `usize::MAX`, the capped one otherwise.
    fn assert_builds_match(
        cache: &mut PeriodGraphCache,
        live: &Live,
        tasks: &[TaskInput],
        ks: &[usize],
        what: &str,
    ) {
        let ids: Vec<u32> = live.keys().copied().collect();
        let workers: Vec<WorkerInput> = live.values().map(|&(w, _)| w).collect();
        for &k in ks {
            let graph = cache.build_graph_capped(tasks, k);
            let oracle = if k == usize::MAX {
                build_period_graph(tasks, &workers)
            } else {
                build_period_graph_capped(tasks, &workers, k)
            };
            assert_same_edges(cache, &graph, &oracle, &ids, &format!("{what}, k {k}"));
        }
    }

    /// Random churn over several periods: each build keeps the scan's
    /// edge set, row for row and edge for edge. A relocation is written
    /// the way the lifecycle table performs it: the same id on both
    /// sides of one `apply`.
    #[test]
    fn advance_matches_scratch_oracle_under_churn() {
        let grid = grid();
        for (seed, k) in [(1u64, 4usize), (2, 1), (3, 13), (4, 200)] {
            let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let mut cache = PeriodGraphCache::new(&grid);
            let mut live = Live::new();
            let mut next_id = 0u32;
            for period in 0..12 {
                let (mut departures, mut arrivals) = (Vec::new(), Vec::new());
                for (&id, &(mut w, _)) in &live {
                    match rng.next_u64() % 30 {
                        0..=5 => departures.push(id),
                        6..=10 => {
                            let to = Point::new(
                                rng.next_f64() * 110.0 - 5.0,
                                rng.next_f64() * 110.0 - 5.0,
                            );
                            w.location = to;
                            w.cell = grid.cell_of(to);
                            departures.push(id);
                            arrivals.push((id, w));
                        }
                        _ => {}
                    }
                }
                for _ in 0..(rng.next_u64() % 20) {
                    arrivals.push((next_id, random_worker(&grid, &mut rng)));
                    next_id += 1;
                }
                let n_tasks = (rng.next_u64() % 25) as usize;
                let tasks = random_tasks(&grid, &mut rng, n_tasks);
                churn(&mut cache, &mut live, &arrivals, &departures);
                let what = format!("seed {seed} period {period}");
                assert_builds_match(&mut cache, &live, &tasks, &[k, usize::MAX], &what);
                check_dense(&cache, &live, &what);
            }
        }
    }

    /// A departed id can come back — in a later call, or in the call
    /// another worker leaves in — and is found under the slot it was
    /// handed then; its old slot no longer finds it.
    #[test]
    fn departed_ids_can_be_reused() {
        let grid = grid();
        let mut rng = XorShift(77);
        let mut cache = PeriodGraphCache::new(&grid);
        let mut live = Live::new();
        let w0 = random_worker(&grid, &mut rng);
        let w1 = random_worker(&grid, &mut rng);
        let w2 = random_worker(&grid, &mut rng);
        churn(&mut cache, &mut live, &[(0, w0), (1, w1), (2, w2)], &[]);
        let first = live[&1].1;
        assert_eq!(cache.worker(1, first), Some(&w1));
        churn(&mut cache, &mut live, &[], &[1]);
        assert_eq!(cache.worker(1, first), None);
        // Same call: departure of 0 and re-arrival of 1 elsewhere.
        let w1b = random_worker(&grid, &mut rng);
        churn(&mut cache, &mut live, &[(1, w1b)], &[0]);
        check_dense(&cache, &live, "after reuse");
        let out = cache.worker_inputs();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&w1b) && out.contains(&w2), "{out:?}");
    }

    #[test]
    fn empty_cache_builds_empty_graphs() {
        let grid = grid();
        let mut cache = PeriodGraphCache::new(&grid);
        let mut rng = XorShift(5);
        let tasks = random_tasks(&grid, &mut rng, 3);
        assert!(cache.apply(&[], &[]).is_empty());
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
        let mut live = Live::new();
        churn(
            &mut cache,
            &mut live,
            &[(0, near), (1, wide), (2, tied)],
            &[],
        );
        let tasks = [TaskInput::new(&grid, Point::new(50.0, 50.0), 1.0)];
        // k=2 < live: the capped path queries with max radius 80 and the
        // wide worker is the only one in range.
        let g = cache.build_graph_capped(&tasks, 2);
        assert_eq!(rows_by_id(&g, |r| cache.right_id(r)), [[1]]);
        let newcomer = WorkerInput::new(&grid, Point::new(52.0, 50.0), 2.5);
        churn(&mut cache, &mut live, &[(3, newcomer)], &[1]);
        assert_builds_match(&mut cache, &live, &tasks, &[2], "the widest left");
        let g = cache.build_graph_capped(&tasks, 2);
        assert_eq!(
            rows_by_id(&g, |r| cache.right_id(r)),
            [[3]],
            "only the new near worker reaches"
        );
    }

    /// Applies `arrivals` / `departures` to `cache` and to `live`, then
    /// checks every view of the cache — the dense view and its slot
    /// tables, lookups, the radius tracker, capped and complete graphs
    /// — against `live` and the scan of it.
    fn apply_and_check(
        cache: &mut PeriodGraphCache,
        live: &mut Live,
        arrivals: &[(u32, WorkerInput)],
        departures: &[u32],
        what: &str,
    ) {
        churn(cache, live, arrivals, departures);
        check_dense(cache, live, what);
        let max = live.values().map(|(w, _)| w.radius).fold(0.0, f64::max);
        assert_eq!(cache.max_live_radius(), max, "{what}: max radius");
        let tasks = random_tasks(&grid(), &mut XorShift(0x7A5C), 9);
        assert_builds_match(cache, live, &tasks, &[1, 2, 64, usize::MAX], what);
    }

    /// One `apply` of a table-driven script: label, arrivals, departures.
    type Step = (&'static str, Vec<(u32, WorkerInput)>, Vec<u32>);

    fn at(x: f64, y: f64, radius: f64) -> WorkerInput {
        WorkerInput::new(&grid(), Point::new(x, y), radius)
    }

    /// Either side in any order, relocations (one id on both sides)
    /// mixed in: the graphs are the scan's of the id-ordered live set,
    /// and a relocated worker takes its new location and radius.
    #[test]
    fn apply_takes_both_sides_in_any_order_and_relocates() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut live = Live::new();
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
            apply_and_check(&mut cache, &mut live, arrivals, departures, what);
        }
        assert_eq!(cache.live_count(), 0);
        // The relocation step by itself: the freed slot, new state.
        let mut cache = PeriodGraphCache::new(&grid());
        let mut live = Live::new();
        churn(
            &mut cache,
            &mut live,
            &[(5, w(5)), (7, w(7)), (9, w(9))],
            &[],
        );
        let slot = live[&7].1;
        let moved = at(1.0, 99.0, 55.0);
        churn(&mut cache, &mut live, &[(7, moved)], &[7]);
        assert_eq!(live[&7].1, slot, "a relocation is handed back its slot");
        assert_eq!(cache.worker(7, slot), Some(&moved));
        check_dense(&cache, &live, "relocated");
    }

    /// Zero radii of either sign, alone and next to positive ones: the
    /// radius in the index lane, the `max_live_radius` tracker and the
    /// scratch oracle agree (a zero-radius worker is reachable only by a
    /// task at its exact location).
    #[test]
    fn zero_and_negative_zero_radii_match_the_oracle() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut live = Live::new();
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
            apply_and_check(&mut cache, &mut live, arrivals, departures, what);
            assert!(cache.max_live_radius().is_sign_positive(), "{what}");
        }
        // A task exactly on a zero-radius worker reaches it, capped too.
        let task = [TaskInput::new(&grid(), Point::new(12.0, 50.0), 1.0)];
        let g = cache.build_graph_capped(&task, 2);
        assert_eq!(rows_by_id(&g, |r| cache.right_id(r)), [[2]]);
    }

    /// Ids are names, not offsets: one arrival with an id near `u32::MAX`
    /// costs what any other arrival costs (a slot-per-id table asked for
    /// 160 GB here), and numbers as the larger id in a graph.
    #[test]
    fn sparse_ids_cost_nothing() {
        let mut cache = PeriodGraphCache::new(&grid());
        let mut live = Live::new();
        let far = (4_000_000_000, at(60.0, 50.0, 20.0));
        let near = (7, at(40.0, 50.0, 20.0));
        apply_and_check(&mut cache, &mut live, &[far, near], &[], "sparse ids");
        assert_eq!(cache.position.len(), 2, "two slots");
        assert_eq!(cache.worker(8, live[&7].1), None, "another id, same slot");
        let tasks = [TaskInput::new(&grid(), Point::new(50.0, 50.0), 1.0)];
        assert_builds_match(&mut cache, &live, &tasks, &[1, 8], "one task");
        let g = cache.build_graph_capped(&tasks, 8);
        assert_eq!(rows_by_id(&g, |r| cache.right_id(r)), [[7, 4_000_000_000]]);
        apply_and_check(&mut cache, &mut live, &[], &[4_000_000_000], "it leaves");
    }

    /// Every departure that does not name a live worker by the slot it
    /// holds panics with the message it always had. (Arrival misuse — a
    /// live id arriving again — is the caller's to catch: the cache has
    /// no per-id table to see it in.)
    #[test]
    fn misuse_panics_with_the_established_messages() {
        let w = at(50.0, 50.0, 5.0);
        // Ids 1, 2, 3 hold slots 0, 1, 2.
        let cases: [(&str, &[(u32, u32)]); 5] = [
            ("departure of a dead id", &[(2, 1), (5, 0)]),
            ("departure above every live id", &[(77, 2)]),
            (
                "the same worker twice in departures",
                &[(3, 2), (1, 0), (3, 2)],
            ),
            ("a slot nobody was handed", &[(1, 9)]),
            ("a live id under another's slot", &[(1, 1)]),
        ];
        for (what, departures) in cases {
            let mut cache = PeriodGraphCache::new(&grid());
            assert_eq!(cache.apply(&[(1, w), (2, w), (3, w)], &[]), [0, 1, 2]);
            let panic = std::panic::catch_unwind(move || {
                let _ = cache.apply(&[], departures);
            })
            .expect_err(what);
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .expect("string panic payload");
            assert!(
                text.contains("departure of a non-live worker"),
                "{what}: panicked with {text:?}"
            );
        }
    }

    /// Slots are history, and history must not show: one cache churns
    /// (relocations listed on both sides, departed ids coming back,
    /// freed slots handed to newcomers), the other is rebuilt each
    /// period from one batch of the same live set, as recovery builds
    /// it. Their dense views hold the same workers and their graphs are
    /// equal, right side included, every period although the two hold
    /// different slots.
    #[test]
    fn slots_never_show_in_graphs() {
        let grid = grid();
        let mut rng = XorShift(0x510_7ED);
        let mut churned = PeriodGraphCache::new(&grid);
        let mut live = Live::new();
        let mut departed: Vec<u32> = Vec::new();
        let (mut next_id, mut slots_differed) = (0u32, 0);
        let sorted = |cache: &PeriodGraphCache| {
            let mut view: Vec<[u64; 3]> = (cache.worker_inputs().iter())
                .map(|w| [w.location.x, w.location.y, w.radius].map(f64::to_bits))
                .collect();
            view.sort_unstable();
            view
        };
        for period in 0..40 {
            let (mut departures, mut arrivals) = (Vec::new(), Vec::new());
            for &id in live.keys() {
                match rng.next_u64() % 8 {
                    0 => {
                        departures.push(id);
                        departed.push(id);
                    }
                    1 => {
                        // A relocation: the same id on both sides.
                        departures.push(id);
                        arrivals.push((id, random_worker(&grid, &mut rng)));
                    }
                    _ => {}
                }
            }
            // A departed id comes back now and then, under a new location.
            if period % 3 == 2 && !departed.is_empty() {
                let id = departed.swap_remove((rng.next_u64() % departed.len() as u64) as usize);
                arrivals.push((id, random_worker(&grid, &mut rng)));
            }
            for _ in 0..(rng.next_u64() % 12) {
                arrivals.push((next_id, random_worker(&grid, &mut rng)));
                next_id += 1;
            }
            churn(&mut churned, &mut live, &arrivals, &departures);
            let mut batch = PeriodGraphCache::new(&grid);
            let mut rebuilt = Live::new();
            let all: Vec<(u32, WorkerInput)> = live.iter().map(|(&id, &(w, _))| (id, w)).collect();
            churn(&mut batch, &mut rebuilt, &all, &[]);
            assert_eq!(sorted(&churned), sorted(&batch), "period {period}");
            slots_differed += usize::from(live != rebuilt);
            let tasks = random_tasks(&grid, &mut rng, 15);
            for k in [1, 3, 8, usize::MAX] {
                let what = format!("period {period}, k {k}");
                let graph = churned.build_graph_capped(&tasks, k);
                assert_eq!(graph, batch.build_graph_capped(&tasks, k), "{what}");
                let ids = |cache: &PeriodGraphCache| -> Vec<u32> {
                    (0..graph.n_right()).map(|r| cache.right_id(r)).collect()
                };
                assert_eq!(ids(&churned), ids(&batch), "{what}");
            }
            assert_builds_match(
                &mut churned,
                &live,
                &tasks,
                &[3],
                &format!("period {period}"),
            );
            check_dense(&churned, &live, &format!("period {period}"));
        }
        assert!(slots_differed > 30, "the histories hand out the same slots");
    }

    /// Slots are live-sized: over 4 000 periods of constant churn, with
    /// ids running to hundreds of times the live count, the slot tables
    /// never outgrow the peak live count, and every slot handed out is
    /// either held or free. A slot per id ever seen fails here.
    #[test]
    fn slots_stay_within_the_peak_live_count() {
        let grid = grid();
        let mut rng = XorShift(0x5107_512E);
        let mut cache = PeriodGraphCache::new(&grid);
        let (mut next_id, mut peak) = (0u32, 0);
        let mut live: VecDeque<(u32, u32)> = VecDeque::new();
        for t in 0..4_000 {
            let leaving = live.len().saturating_sub(60).min(10 + (t % 7));
            let departures: Vec<(u32, u32)> = live.drain(..leaving).collect();
            let arrivals: Vec<(u32, WorkerInput)> = (0..5 + (rng.next_u64() % 10) as u32)
                .map(|i| (next_id + i, random_worker(&grid, &mut rng)))
                .collect();
            next_id += arrivals.len() as u32;
            let handed = cache.apply(&arrivals, &departures);
            live.extend(arrivals.iter().map(|a| a.0).zip(handed.iter().copied()));
            peak = peak.max(cache.live_count());
            if t % 10 == 0 {
                let _ = cache.build_graph_capped(&random_tasks(&grid, &mut rng, 2), 4);
            }
            let slots = cache.position.len();
            assert!(slots <= peak, "period {t}: {slots} slots");
            assert_eq!(cache.slots.len() + cache.free_slots.len(), slots);
            assert!(cache.mark.len() == slots && cache.ids.len() == slots);
        }
        assert!(next_id as usize > 100 * peak, "ids {next_id}, peak {peak}");
    }

    /// Per-tick work follows the churn and the tasks, not the standing
    /// pool: the `churn` workload's shape — 1 250 arrivals a period that
    /// leave two periods later, 25 tasks, `k = 64` — over standing pools
    /// of 5 000 and of 20 000 workers, with the same churn and the same
    /// tasks. The dense-view moves of every `apply` — the positions whose
    /// entry it wrote, counted by comparing the view before and after —
    /// plus the right side of every graph agree within 10 %. A live set
    /// kept in id order moves `O(live)` entries a period, and a right
    /// side of every live worker is the pool itself.
    #[test]
    fn tick_work_is_independent_of_the_pool() {
        const ARRIVALS: u32 = 1_250;
        const K: usize = 64;
        let grid = grid();
        // A 5 × 5 lattice 20 apart: each task's 64 nearest lie within 6
        // of it in either pool, so no two tasks share a worker.
        let tasks: Vec<TaskInput> = (0..25)
            .map(|i| {
                let origin = Point::new(10.0 + 20.0 * (i % 5) as f64, 10.0 + 20.0 * (i / 5) as f64);
                TaskInput::new(&grid, origin, 1.0)
            })
            .collect();
        let work = |pool: u32| {
            let (mut pool_rng, mut churn_rng) =
                (XorShift(0x9001 + u64::from(pool)), XorShift(0xC4A2));
            let mut cache = PeriodGraphCache::new(&grid);
            let standing: Vec<(u32, WorkerInput)> = (0..pool)
                .map(|id| (id, random_worker(&grid, &mut pool_rng)))
                .collect();
            let _ = cache.apply(&standing, &[]);
            let (mut work, mut next_id) = (0, pool);
            let mut waves: VecDeque<Vec<(u32, u32)>> = VecDeque::new();
            for _ in 0..8 {
                let departures = if waves.len() == 2 {
                    waves.pop_front().unwrap()
                } else {
                    Vec::new()
                };
                let arrivals: Vec<(u32, WorkerInput)> = (next_id..next_id + ARRIVALS)
                    .map(|id| (id, random_worker(&grid, &mut churn_rng)))
                    .collect();
                next_id += ARRIVALS;
                let before = cache.slots.clone();
                let handed = cache.apply(&arrivals, &departures);
                waves.push_back(
                    arrivals
                        .iter()
                        .map(|a| a.0)
                        .zip(handed.iter().copied())
                        .collect(),
                );
                let moved = (cache.slots.iter().enumerate())
                    .filter(|&(j, slot)| before.get(j) != Some(slot))
                    .count();
                let graph = cache.build_graph_capped(&tasks, K);
                assert_eq!(graph.n_right(), tasks.len() * K, "pool {pool}");
                work += moved + graph.n_right();
            }
            work
        };
        let (small, large) = (work(5_000), work(20_000));
        assert!(
            10 * small.abs_diff(large) < small.min(large),
            "pool 5 000: {small} moves and vertices, pool 20 000: {large}"
        );
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn departure_of_dead_id_panics() {
        let grid = grid();
        let mut cache = PeriodGraphCache::new(&grid);
        let _ = cache.apply(&[], &[(3, 0)]);
    }
}
