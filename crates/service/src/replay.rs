//! Replay driver: feeds a prebuilt [`GroundTruth`] through the service
//! as an event stream.
//!
//! This is both the migration path (anything that can run the batch
//! simulator can run the service) and the **oracle harness**: the
//! resulting [`Outcome`] must be bit-identical to
//! [`Simulation::run`](maps_simulator::Simulation::run) — every field
//! except the wall-clock timing columns, compared via
//! [`Outcome::deterministic_bits`]. The seeded explorer (`tests/explorer.rs`) enforces exactly that.
//!
//! Every helper still takes a `shards` count: it is ignored (the
//! service serves from one index) and kept for source compatibility,
//! removed with ROADMAP 1(d)/6(b).

use crate::engine::{ServiceConfig, ServiceEvent, ShardedService};
use crate::ingest::period_events;
use maps_core::StrategyKind;
use maps_simulator::{GroundTruth, GroundTruthProbe, Outcome, SimOptions};

/// Replays `truth` through the service: each period's events, then its
/// tick. A rejected event is counted by the service and the stream
/// keeps flowing.
///
/// `options.calibrate` / `options.probe_seed` drive the same
/// Algorithm-1 calibration the batch loop performs;
/// `options.max_edges_per_task` is the per-task edge cap.
///
/// # Panics
/// Panics if a tick panics mid-replay (the service is poisoned).
pub fn replay_with_options(
    truth: &GroundTruth,
    kind: StrategyKind,
    shards: usize,
    options: SimOptions,
) -> Outcome {
    let mut service = replay_service(truth, kind, shards, options);
    for period in &truth.periods {
        let tick = std::iter::once(ServiceEvent::PeriodTick);
        period_events(period)
            .chain(tick)
            .for_each(|e| service.push(e));
    }
    service.into_outcome()
}

/// A calibrated service sized for replaying `truth`:
/// [`replay_with_options`] starts from it, and so does a caller that
/// feeds the service another way (through [`crate::ingest`], or with a
/// journal attached, say).
pub fn replay_service(
    truth: &GroundTruth,
    kind: StrategyKind,
    shards: usize,
    options: SimOptions,
) -> ShardedService {
    let config = ServiceConfig {
        shards,
        max_edges_per_task: options.max_edges_per_task,
        expected_workers: truth.total_workers().max(1),
    };
    let mut service = ShardedService::new(truth.grid, truth.match_policy, kind, config);
    if options.calibrate {
        let mut probe = GroundTruthProbe::new(&truth.demands, options.probe_seed);
        service.calibrate(&mut probe);
    }
    service
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::recovery::recover;
    use maps_simulator::{Simulation, SyntheticConfig};

    /// Smoke-level slice of the seeded explorer's check (the full
    /// strategy × workload sweep lives in `tests/explorer.rs`).
    #[test]
    fn replay_matches_simulation_on_a_small_world() {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(60)
            .with_num_tasks(240)
            .with_periods(10)
            .with_grid_side(4)
            .build(13);
        let batch = Simulation::new(world.clone(), StrategyKind::Maps)
            .run()
            .deterministic_bits();
        let online = replay_with_options(&world, StrategyKind::Maps, 1, SimOptions::default());
        assert_eq!(
            online.deterministic_bits(),
            batch,
            "replay diverged from the batch simulator"
        );
    }

    /// A journaled replay is write-path-only (bits match the unjournaled
    /// run), and recovering its complete journal restores the same
    /// outcome without pushing anything new.
    #[test]
    fn journaled_replay_and_complete_recovery_match() {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(30)
            .with_num_tasks(90)
            .with_periods(5)
            .with_grid_side(3)
            .build(7);
        let options = SimOptions {
            calibrate: false,
            ..SimOptions::default()
        };
        let dir = crate::test_dir("replay_recovered");
        let journal = JournalConfig::new(&dir, 2);
        let plain = replay_with_options(&world, StrategyKind::Maps, 1, options);
        let mut journaled = replay_service(&world, StrategyKind::Maps, 1, options);
        journaled
            .attach_journal(&journal)
            .expect("attach the journal");
        for period in &world.periods {
            let tick = std::iter::once(ServiceEvent::PeriodTick);
            period_events(period)
                .chain(tick)
                .for_each(|e| journaled.push(e));
        }
        let config = ServiceConfig {
            max_edges_per_task: options.max_edges_per_task,
            ..ServiceConfig::default()
        };
        let journaled = journaled.into_outcome();
        assert_eq!(journaled.deterministic_bits(), plain.deterministic_bits());
        let (grid, policy) = (world.grid, world.match_policy);
        let resumed = recover(grid, policy, StrategyKind::Maps, config, &journal)
            .expect("recovery from a complete journal");
        assert_eq!(
            resumed.service.periods_served() as usize,
            world.periods.len()
        );
        let resumed = resumed.service.into_outcome();
        assert_eq!(resumed.deterministic_bits(), plain.deterministic_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_without_calibration_matches() {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(30)
            .with_num_tasks(90)
            .with_periods(5)
            .with_grid_side(3)
            .build(7);
        let options = SimOptions {
            calibrate: false,
            ..SimOptions::default()
        };
        let batch = Simulation::new(world.clone(), StrategyKind::CappedUcb)
            .with_options(options)
            .run();
        let online = replay_with_options(&world, StrategyKind::CappedUcb, 1, options);
        assert_eq!(online.deterministic_bits(), batch.deterministic_bits());
        assert_eq!(online.calibration_secs, 0.0);
    }
}
