//! The standing invariants across a regrid.
//!
//! The service's spatial index re-buckets itself when its live count
//! leaves a 16×-wide band (`maps_spatial::dynamic`). The worlds of the
//! other oracles hold a near-constant pool, so their index settles on
//! one grid early; this world's pool **surges 50× and collapses
//! again**, so the index regrids up and down mid-stream, and:
//!
//! * replay through the service must still equal `Simulation::run` bit
//!   for bit at 1/2/3/8 threads × Consume/Relocate (the
//!   `service_replay_matches_simulation` shape);
//! * a crash + `recover` on either side of a regrid must finish
//!   bit-identical to the run that never crashed. The recovered service
//!   rebuilds its cache with **one batch `apply`** of the checkpointed
//!   live set — one regrid straight to the final size — i.e. a
//!   different grid history than the uninterrupted run's.

use maps_core::StrategyKind;
use maps_service::ingest::period_events;
use maps_service::journal::JournalConfig;
use maps_service::{
    recover, replay_service, replay_with_options, ServiceConfig, ServiceEvent, ShardedService,
};
use maps_simulator::{
    GroundTruth, GroundWorker, MatchPolicy, PeriodData, SimOptions, Simulation, SyntheticConfig,
};
use maps_testkit::{assert_deterministic_across, DEFAULT_THREAD_COUNTS};

const PERIODS: usize = 12;
const POOL: usize = 32;
const SURGE: usize = 1600;
const SURGE_AT: usize = 4;
/// The surge is live for periods 4, 5 and 6.
const SURGE_DURATION: u32 = 3;

/// A synthetic world re-timed into pool → surge → collapse: `POOL`
/// standing workers from period 0, `SURGE` short-lived ones in period
/// `SURGE_AT`, one arrival per period otherwise. Locations, radii, tasks
/// and demand are the generator's.
fn swing_world(match_policy: MatchPolicy) -> GroundTruth {
    let mut config = SyntheticConfig {
        num_workers: POOL + SURGE + PERIODS,
        num_tasks: 30 * PERIODS,
        periods: PERIODS,
        grid_side: 4,
        ..SyntheticConfig::paper_default()
    };
    config.match_policy = match_policy;
    let mut world = config.build(29);
    let mut workers: Vec<GroundWorker> = world
        .periods
        .iter_mut()
        .flat_map(|p| std::mem::take(&mut p.workers))
        .collect();
    assert_eq!(workers.len(), POOL + SURGE + PERIODS);
    let mut take = |n: usize, duration: u32| -> Vec<GroundWorker> {
        workers
            .drain(..n)
            .map(|w| GroundWorker { duration, ..w })
            .collect()
    };
    world.periods[0].workers = take(POOL, u32::MAX);
    world.periods[SURGE_AT].workers = take(SURGE, SURGE_DURATION);
    for PeriodData { workers, .. } in &mut world.periods {
        workers.extend(take(1, u32::MAX));
    }
    world.validate().expect("re-timed world is consistent");
    world
}

fn worlds() -> [GroundTruth; 2] {
    [
        swing_world(MatchPolicy::Consume),
        swing_world(MatchPolicy::Relocate { speed: 2.0 }),
    ]
}

fn push_period(service: &mut ShardedService, period: &PeriodData) {
    for event in period_events(period) {
        service.push(event);
    }
    service.push(ServiceEvent::PeriodTick);
}

/// The premise: the live population really does leave the band, in both
/// directions (a 16× swing from anywhere inside a 16×-wide band ends
/// outside it).
#[test]
fn the_world_swings_more_than_sixteenfold() {
    for world in worlds() {
        let mut service = replay_service(&world, StrategyKind::Maps, 1, SimOptions::default());
        let live: Vec<usize> = world
            .periods
            .iter()
            .map(|period| {
                push_period(&mut service, period);
                service.live_workers()
            })
            .collect();
        let before = *live[..SURGE_AT].iter().max().unwrap();
        let peak = live[SURGE_AT];
        let after = *live[SURGE_AT + SURGE_DURATION as usize..]
            .iter()
            .max()
            .unwrap();
        assert!(peak > 16 * before, "surge {before} → {peak}");
        assert!(peak > 16 * after, "collapse {peak} → {after}");
    }
}

#[test]
fn regridding_replay_matches_simulation() {
    let options = SimOptions::default();
    for world in worlds() {
        assert_deterministic_across(&DEFAULT_THREAD_COUNTS, || {
            let canon = Simulation::new(world.clone(), StrategyKind::Maps)
                .with_options(options)
                .run()
                .deterministic_bits();
            let online = replay_with_options(&world, StrategyKind::Maps, 1, options);
            assert_eq!(
                online.deterministic_bits(),
                canon,
                "{:?}: replay diverged from the batch simulator",
                world.match_policy
            );
            canon
        });
    }
}

#[test]
fn crash_on_either_side_of_a_regrid_recovers_bit_identically() {
    let kind = StrategyKind::Maps;
    let options = SimOptions {
        calibrate: false,
        ..SimOptions::default()
    };
    let config = ServiceConfig {
        max_edges_per_task: options.max_edges_per_task,
        ..ServiceConfig::default()
    };
    for world in worlds() {
        let uninterrupted = Simulation::new(world.clone(), kind)
            .with_options(options)
            .run()
            .deterministic_bits();
        // Cadence 3 puts checkpoints at periods 0, 3, 6 and 9: before
        // the surge, inside it and after the collapse. Crashing after
        // every epoch covers recoveries straight off each of them and
        // journal tails that replay the surge or the collapse.
        for crash_epoch in 0..PERIODS {
            let dir = std::env::temp_dir().join(format!(
                "maps_regrid_oracle_{}_{crash_epoch}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let journal = JournalConfig::new(&dir, 3);
            let mut service = ShardedService::new(world.grid, world.match_policy, kind, config);
            service.attach_journal(&journal).expect("attach journal");
            for period in &world.periods[..=crash_epoch] {
                push_period(&mut service, period);
            }
            drop(service); // the crash

            let mut service = recover(world.grid, world.match_policy, kind, config, &journal)
                .expect("recovery")
                .service;
            assert_eq!(service.periods_served() as usize, crash_epoch + 1);
            for period in &world.periods[crash_epoch + 1..] {
                push_period(&mut service, period);
            }
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                service.into_outcome().deterministic_bits(),
                uninterrupted,
                "{:?}: crash after epoch {crash_epoch}",
                world.match_policy
            );
        }
    }
}
