//! Soak: the period engine's heap follows who is live, not who ever
//! arrived.
//!
//! 10 000 periods of constant churn — about 2 000 workers live, 200 in
//! and 200 out every period, a relocation every third period, ids
//! running past 2 000 000 — with the tracking allocator installed. A
//! structure with one slot per id *ever admitted* grows by tens of
//! megabytes over such a run; the cache must end it holding what it
//! held after period 500 (within 1.5×, see the assertion). One level
//! up, `WorkerLifecycle` is allowed exactly the growth that is left and
//! named: the page table of its records, 8 bytes per 1 024 admitted ids
//! (the pages themselves are freed with their last live worker).

use maps_core::{PeriodGraphCache, TaskInput, WorkerInput};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{GroundWorker, WorkerLifecycle};
use maps_spatial::{GridSpec, Point, Rect};
use maps_testkit::XorShift;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The allocator's counters are process-wide: one soak at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const PERIODS: u32 = 10_000;
const EARLY: u32 = 500;
const PER_PERIOD: u32 = 200;
/// Periods a worker stays: 10 × 200 ≈ 2 000 live.
const DURATION: u32 = 10;
const K: usize = 4;

fn grid() -> GridSpec {
    GridSpec::square(Rect::square(100.0), 10)
}

fn point(rng: &mut XorShift) -> Point {
    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0)
}

fn tasks(grid: &GridSpec, rng: &mut XorShift) -> Vec<TaskInput> {
    (0..3)
        .map(|_| TaskInput::new(grid, point(rng), 1.0 + rng.next_f64()))
        .collect()
}

#[test]
fn cache_heap_is_flat_over_two_million_ids() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let grid = grid();
    let mut rng = XorShift(0x50A4_C0DE);
    let baseline = TrackingAllocator::current_bytes();
    let mut cache = PeriodGraphCache::new(&grid);
    let mut arrivals: Vec<(u32, WorkerInput)> = Vec::new();
    let mut departures: Vec<(u32, u32)> = Vec::new();
    // The slot each live worker was handed, as the lifecycle's records
    // keep it: live-sized.
    let mut slots: BTreeMap<u32, u32> = BTreeMap::new();
    let mut early = 0;
    for t in 0..PERIODS {
        arrivals.clear();
        departures.clear();
        let first = t * PER_PERIOD;
        arrivals.extend((first..first + PER_PERIOD).map(|id| {
            let radius = 2.0 + rng.next_f64() * 10.0;
            (id, WorkerInput::new(&grid, point(&mut rng), radius))
        }));
        let mut depart = |id| departures.push((id, slots.remove(&id).unwrap()));
        if t >= DURATION {
            let gone = (t - DURATION) * PER_PERIOD;
            (gone..gone + PER_PERIOD).for_each(&mut depart);
        }
        if t % 3 == 2 {
            // A worker from the middle of the live range moves: the
            // same id on both sides, behind the window's admissions.
            let id = (t - 1) * PER_PERIOD + 7;
            let to = WorkerInput::new(&grid, point(&mut rng), 5.0);
            depart(id);
            arrivals.push((id, to));
        }
        let handed = cache.apply(&arrivals, &departures);
        slots.extend(arrivals.iter().map(|a| a.0).zip(handed.iter().copied()));
        let tasks = tasks(&grid, &mut rng);
        let graph = cache.build_graph_capped(&tasks, K);
        assert!(graph.n_right() <= tasks.len() * K);
        drop(graph);
        if t + 1 == EARLY {
            early = TrackingAllocator::current_bytes() - baseline;
        }
    }
    let late = TrackingAllocator::current_bytes() - baseline;
    assert_eq!(cache.live_count(), (DURATION * PER_PERIOD) as usize);
    let (&last, &slot) = slots.last_key_value().unwrap();
    assert!(last > 1_999_000 && cache.worker(last, slot).is_some());
    // Not 1.0: every bucket lane keeps its high-water capacity, and at
    // one point per bucket on average the step from 4 slots to 8 is still
    // being taken after period 500 (the next one, to 16, takes nine
    // points in one bucket). That ratchet is bounded by the live count;
    // a slot per id would put 80 MB here against half a megabyte.
    assert!(
        2 * late <= 3 * early,
        "cache holds {late} B after {PERIODS} periods, {early} B after {EARLY}"
    );
}

#[test]
fn lifecycle_heap_is_flat_but_for_its_page_table() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let grid = grid();
    let mut rng = XorShift(0x50A4_11FE);
    let baseline = TrackingAllocator::current_bytes();
    let mut engine = WorkerLifecycle::new(&grid, PERIODS as usize, 0);
    let mut window: Vec<GroundWorker> = Vec::new();
    let (mut early, mut admitted_early) = (0, 0);
    for t in 0..PERIODS {
        window.clear();
        window.extend((0..PER_PERIOD).map(|_| GroundWorker {
            location: point(&mut rng),
            radius: 2.0 + rng.next_f64() * 10.0,
            duration: DURATION,
        }));
        engine.begin_period(t, &window);
        let tasks = tasks(&grid, &mut rng);
        let graph = engine.build_graph_capped(&tasks, K);
        assert!(graph.n_right() <= tasks.len() * K);
        if t % 3 == 2 && graph.n_right() > 0 {
            // Matched under the relocate policy: away for two periods,
            // back under its own id.
            let id = engine.id_of_dense(graph.n_right() / 2);
            engine.dispatch(t, id, point(&mut rng), 2);
        }
        drop(graph);
        if t + 1 == EARLY {
            early = TrackingAllocator::current_bytes() - baseline;
            admitted_early = engine.admitted();
        }
    }
    let late = TrackingAllocator::current_bytes() - baseline;
    assert!(engine.admitted() >= 2_000_000);
    assert!((1_900..=2_000).contains(&engine.live_count()));
    // The cache is flat, and so are the records: a page of 1 024 is
    // freed with the last of its workers, and ten periods of arrivals
    // span three pages. What grows is the page table, 8 B per 1 024
    // admitted ids (at most doubled by `Vec` growth). A record per id
    // ever admitted would add 8 B per id; a slot per id in the cache
    // 40 B more.
    let page_table = 16 * (engine.admitted() - admitted_early).div_ceil(1024);
    assert!(
        2 * late <= 3 * early + 2 * page_table,
        "lifecycle holds {late} B after {PERIODS} periods, {early} B after {EARLY}, \
         of which its page table may account for {page_table} B"
    );
}
