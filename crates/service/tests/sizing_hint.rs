//! `ServiceConfig::expected_workers` is inert: whatever it says, the
//! service is built small and replays to the same bits. (It used to size
//! the bucket grid at construction — `usize::MAX` meant 65 536 empty
//! bucket headers an index, thrown away by the first tick.)

use maps_core::StrategyKind;
use maps_service::ingest::period_events;
use maps_service::{ServiceConfig, ServiceEvent, ShardedService};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{SimOptions, Simulation, SyntheticConfig};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn expected_workers_changes_neither_bits_nor_footprint() {
    let world = SyntheticConfig::paper_default()
        .with_num_workers(120)
        .with_num_tasks(360)
        .with_periods(8)
        .with_grid_side(4)
        .build(31);
    let kind = StrategyKind::Maps;
    let options = SimOptions {
        calibrate: false,
        ..SimOptions::default()
    };
    let batch = Simulation::new(world.clone(), kind)
        .with_options(options)
        .run();
    assert!(batch.matched_tasks > 0, "world too sparse to test");
    for expected_workers in [0, 1, usize::MAX] {
        let config = ServiceConfig {
            max_edges_per_task: options.max_edges_per_task,
            expected_workers,
            ..ServiceConfig::default()
        };
        let before = TrackingAllocator::current_bytes();
        let mut service = ShardedService::new(world.grid, world.match_policy, kind, config);
        let built = TrackingAllocator::current_bytes() - before;
        assert!(
            built < 64 * 1024,
            "expected_workers = {expected_workers}: an empty service holds {built} B"
        );
        for period in &world.periods {
            for event in period_events(period) {
                service.push(event);
            }
            service.push(ServiceEvent::PeriodTick);
        }
        assert_eq!(
            service.into_outcome().deterministic_bits(),
            batch.deterministic_bits(),
            "expected_workers = {expected_workers}"
        );
    }
}
