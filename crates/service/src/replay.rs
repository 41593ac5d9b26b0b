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

use crate::engine::{ServiceConfig, ServiceError, ServiceEvent, ShardedService};
use crate::ingest::period_events;
use crate::journal::JournalConfig;
use maps_core::StrategyKind;
use maps_simulator::{GroundTruth, GroundTruthProbe, Outcome, SimOptions};

/// Replays `truth` through the service with paper-default strategy
/// parameters and [`SimOptions::default`] (`shards` is ignored).
pub fn replay(truth: &GroundTruth, kind: StrategyKind, shards: usize) -> Outcome {
    replay_with_options(truth, kind, shards, SimOptions::default())
}

/// The serial drive loop: pushes `truth` from event `first_event` of
/// period `first_period` on, each period's events then its tick. A
/// rejected event is counted by the service and the stream keeps
/// flowing; only fatal faults come back.
fn drive(
    service: &mut ShardedService,
    truth: &GroundTruth,
    first_period: usize,
    first_event: usize,
) -> Result<(), ServiceError> {
    for (i, period) in truth.periods.iter().enumerate().skip(first_period) {
        let resume = if i == first_period { first_event } else { 0 };
        let tick = std::iter::once(ServiceEvent::PeriodTick);
        for event in period_events(period).skip(resume).chain(tick) {
            match service.try_push(event) {
                Ok(()) | Err(ServiceError::Rejected(_)) => {}
                Err(fatal) => return Err(fatal),
            }
        }
    }
    Ok(())
}

/// [`replay`] with explicit batch-simulator options.
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
    if let Err(e) = drive(&mut service, truth, 0, 0) {
        panic!("replay on a failed service: {e}");
    }
    service.into_outcome()
}

/// [`replay_with_options`] with a write-ahead journal attached: every
/// event is journaled before it mutates state and each epoch is made
/// durable (flush + fsync) at its tick, with checkpoints on the
/// configured cadence. The outcome is bit-identical to the unjournaled
/// replay — the journal is write-path-only.
pub fn replay_journaled(
    truth: &GroundTruth,
    kind: StrategyKind,
    shards: usize,
    options: SimOptions,
    journal: &JournalConfig,
) -> Result<Outcome, ServiceError> {
    let mut service = replay_service(truth, kind, shards, options);
    service.attach_journal(journal)?;
    drive(&mut service, truth, 0, 0)?;
    Ok(service.into_outcome())
}

/// Resumes a crashed [`replay_journaled`] run: recovers the service
/// from the journal directory (latest checkpoint + journal-tail
/// replay), then streams the not-yet-durable remainder of `truth` —
/// from producer lane 0's recovered watermark within the current epoch,
/// then every later period — and returns the finished outcome. By the
/// recovery-equals-uninterrupted contract the result is bit-identical
/// to the run that never crashed; on a journal that already covers the
/// whole stream this replays to the same outcome without re-sending
/// anything. The strategy state (including any pre-crash calibration)
/// comes from the checkpoint, so `options.calibrate` is not consulted.
pub fn replay_recovered(
    truth: &GroundTruth,
    kind: StrategyKind,
    shards: usize,
    options: SimOptions,
    journal: &JournalConfig,
) -> Result<Outcome, crate::recovery::RecoveryError> {
    let config = ServiceConfig {
        shards,
        max_edges_per_task: options.max_edges_per_task,
        expected_workers: truth.total_workers().max(1),
    };
    let recovered =
        crate::recovery::recover(truth.grid, truth.match_policy, kind, config, journal)?;
    let mut service = recovered.service;
    let served = service.periods_served() as usize;
    let resume = service.next_seq(0) as usize;
    drive(&mut service, truth, served, resume).map_err(crate::recovery::RecoveryError::Replay)?;
    Ok(service.into_outcome())
}

/// A calibrated service sized for replaying `truth`: the replay drivers
/// above start from it, and so does a caller that feeds the service
/// another way (through [`crate::ingest`], say).
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
    use maps_simulator::{Simulation, SyntheticConfig};

    /// Smoke-level slice of the seeded explorer's check (the full
    /// thread × strategy sweep lives in `tests/explorer.rs`).
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
        let online = replay(&world, StrategyKind::Maps, 1);
        assert_eq!(
            online.deterministic_bits(),
            batch,
            "replay diverged from the batch simulator"
        );
    }

    /// A journaled replay is write-path-only (bits match the unjournaled
    /// run), and resuming from its complete journal replays to the same
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
        let journaled = replay_journaled(&world, StrategyKind::Maps, 1, options, &journal)
            .expect("journaled replay");
        assert_eq!(journaled.deterministic_bits(), plain.deterministic_bits());
        let resumed = replay_recovered(&world, StrategyKind::Maps, 1, options, &journal)
            .expect("recovery from a complete journal");
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
