//! The PR-5 acceptance oracle: **interleaving invariance** of the
//! multi-producer ingestion front-end.
//!
//! Replaying a `GroundTruth` split across N producers must yield an
//! `Outcome` bit-identical to serial `ShardedService::push` — and
//! therefore, by the PR-4 contract, to `Simulation::run` — checked
//! after **every epoch** (not just at the end), across
//!
//! * producer counts 1/2/4/8 ([`maps_testkit::DEFAULT_PRODUCER_COUNTS`]),
//! * two strategies (MAPS — the one with its own rayon fan-out — and
//!   CappedUCB, a learning baseline),
//! * at least three *forced* interleavings per configuration
//!   (round-robin send serialization, strictly reversed producer
//!   batches, and a seeded yield-perturbed schedule), plus free-running
//!   sweeps over queue capacities down to a single slot,
//! * a 1/3-rayon-thread slice of the testkit harness on the serial
//!   baseline (the full 1/2/3/8 sweep lives in `replay_oracle` and the
//!   root proptest).

use maps_core::StrategyKind;
use maps_service::ingest::{chunk_bounds, period_events, IngestConfig, IngestService};
use maps_service::{ServiceConfig, ServiceEvent, ShardedService};
use maps_simulator::{GroundTruth, SimOptions, Simulation, SyntheticConfig};
use maps_testkit::{InterleavePlan, Interleaver, DEFAULT_PRODUCER_COUNTS};

fn world() -> GroundTruth {
    SyntheticConfig::paper_default()
        .with_num_workers(60)
        .with_num_tasks(240)
        .with_periods(8)
        .with_grid_side(4)
        .build(17)
}

fn options() -> SimOptions {
    SimOptions {
        calibrate: false, // calibration runs before the stream; `replay_oracle` covers it
        ..SimOptions::default()
    }
}

fn service_for(world: &GroundTruth, kind: StrategyKind, options: SimOptions) -> ShardedService {
    let config = ServiceConfig {
        max_edges_per_task: options.max_edges_per_task,
        ..ServiceConfig::default()
    };
    ShardedService::new(world.grid, world.match_policy, kind, config)
}

/// Serial-push baseline: `(final_bits, per_epoch_bits)`.
fn serial_epoch_bits(
    world: &GroundTruth,
    kind: StrategyKind,
    options: SimOptions,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut service = service_for(world, kind, options);
    let mut epochs = Vec::new();
    for period in &world.periods {
        for event in period_events(period) {
            service.push(event);
        }
        service.push(ServiceEvent::PeriodTick);
        epochs.push(service.outcome_snapshot().deterministic_bits());
    }
    (service.into_outcome().deterministic_bits(), epochs)
}

/// Multi-producer replay under a forced interleaving:
/// `(final_bits, per_epoch_bits)`. Each period's serial event list is
/// split into `producers` balanced contiguous chunks; producer threads
/// stream their chunks under `plan`, the sequencer records the outcome
/// snapshot after every barrier tick.
fn ingested_epoch_bits(
    world: &GroundTruth,
    kind: StrategyKind,
    producers: usize,
    queue_capacity: usize,
    plan: InterleavePlan,
    options: SimOptions,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut service = service_for(world, kind, options);
    let mut scripts: Vec<Vec<Vec<ServiceEvent>>> = vec![Vec::new(); producers];
    for period in &world.periods {
        let events: Vec<_> = period_events(period).collect();
        let bounds = chunk_bounds(events.len(), producers);
        for (p, script) in scripts.iter_mut().enumerate() {
            script.push(events[bounds[p]..bounds[p + 1]].to_vec());
        }
    }
    let (ingest, handles) = IngestService::new(IngestConfig {
        producers,
        queue_capacity,
    });
    let interleaver = Interleaver::new(producers, plan);
    let mut epoch_bits = Vec::new();
    std::thread::scope(|scope| {
        for (mut handle, script) in handles.into_iter().zip(scripts) {
            let interleaver = &interleaver;
            scope.spawn(move || {
                let p = handle.id() as usize;
                for epoch_events in script {
                    for event in epoch_events {
                        interleaver.step(p, || handle.send(event));
                    }
                    interleaver.step(p, || handle.end_epoch());
                }
                interleaver.finished(p);
            });
        }
        ingest
            .sequence_with(&mut service, |_, live| {
                epoch_bits.push(live.outcome_snapshot().deterministic_bits());
            })
            .expect("oracle streams contain no fatal faults");
    });
    (service.into_outcome().deterministic_bits(), epoch_bits)
}

/// The tentpole sweep: producers × strategies × three forced
/// interleavings, every epoch checked against serial push and the
/// final outcome additionally against the batch simulator.
#[test]
fn ingest_oracle() {
    let world = world();
    let options = options();
    // Ample capacity for the blocking plans: ReverseBatches buffers a
    // producer's whole script, RoundRobin an epoch per producer (see
    // the Interleaver deadlock caveat).
    let ample = world.total_workers() + world.total_tasks() + world.num_periods() + 1;
    for kind in [StrategyKind::Maps, StrategyKind::CappedUcb] {
        let batch = Simulation::new(world.clone(), kind)
            .with_options(options)
            .run()
            .deterministic_bits();
        let (serial_final, serial_epochs) =
            maps_testkit::assert_deterministic_across(&[1, 3], || {
                serial_epoch_bits(&world, kind, options)
            });
        assert_eq!(
            serial_final, batch,
            "{kind}: serial push diverged from the batch simulator"
        );
        for producers in DEFAULT_PRODUCER_COUNTS {
            for plan in [
                InterleavePlan::RoundRobin,
                InterleavePlan::ReverseBatches,
                InterleavePlan::Staggered(0xA11CE ^ ((producers as u64) << 8)),
            ] {
                let (ingested_final, ingested_epochs) =
                    ingested_epoch_bits(&world, kind, producers, ample, plan, options);
                assert_eq!(
                    ingested_epochs, serial_epochs,
                    "{kind}: {producers}-producer replay under {plan:?} \
                     diverged from serial push mid-stream"
                );
                assert_eq!(
                    ingested_final, batch,
                    "{kind}: {producers}-producer replay under {plan:?} \
                     diverged from the batch simulator"
                );
            }
        }
    }
}

/// Queue capacity must be outcome-invariant too: free-running producers
/// under maximal backpressure (capacity 1) up to roomy lanes.
#[test]
fn ingest_oracle_across_queue_capacities() {
    let world = world();
    let options = options();
    let kind = StrategyKind::Maps;
    let (serial_final, serial_epochs) = serial_epoch_bits(&world, kind, options);
    for capacity in [1usize, 2, 7, 4096] {
        for plan in [
            InterleavePlan::Free,
            InterleavePlan::Staggered(capacity as u64),
            // Stutter's seeded sleeps leave both sides of every lane
            // waiting on their condvars, so this sweep also exercises
            // the full-lane and empty-lane waits.
            InterleavePlan::Stutter(capacity as u64),
        ] {
            let (ingested_final, ingested_epochs) =
                ingested_epoch_bits(&world, kind, 4, capacity, plan, options);
            assert_eq!(
                ingested_epochs, serial_epochs,
                "capacity {capacity} under {plan:?} diverged mid-stream"
            );
            assert_eq!(
                ingested_final, serial_final,
                "capacity {capacity} ({plan:?})"
            );
        }
    }
}

/// Every way into a lane, mixed: each producer walks its script with a
/// seeded choice per step between `send`, a `send_iter` batch of 1–5
/// events and `try_send` with a 0–50 µs timeout retried on `Timeout` —
/// at capacities where almost every enqueue meets a full lane. The
/// outcome must not notice which door an event came through.
#[test]
fn ingest_oracle_across_mixed_send_paths() {
    use maps_service::SendError;
    use maps_testkit::XorShift;
    use std::time::Duration;

    let world = world();
    let options = options();
    let kind = StrategyKind::Maps;
    let (serial_final, serial_epochs) = serial_epoch_bits(&world, kind, options);
    for producers in [2usize, 4] {
        for queue_capacity in [1usize, 2, 3] {
            let mut service = service_for(&world, kind, options);
            let (ingest, handles) = IngestService::new(IngestConfig {
                producers,
                queue_capacity,
            });
            let mut epoch_bits = Vec::new();
            std::thread::scope(|scope| {
                for mut handle in handles {
                    let world = &world;
                    scope.spawn(move || {
                        let p = handle.id() as usize;
                        let mut rng = XorShift(0x5EED ^ ((queue_capacity << 8) | p) as u64);
                        for period in &world.periods {
                            let n = period.workers.len() + period.tasks.len();
                            let bounds = chunk_bounds(n, producers);
                            let mut events = period_events(period)
                                .skip(bounds[p])
                                .take(bounds[p + 1] - bounds[p])
                                .chain([ServiceEvent::PeriodTick])
                                .peekable();
                            while let Some(&event) = events.peek() {
                                match rng.next_u64() % 3 {
                                    0 => {
                                        handle.send(event);
                                        events.next();
                                    }
                                    1 => {
                                        let batch = 1 + (rng.next_u64() % 5) as usize;
                                        handle.send_iter(events.by_ref().take(batch));
                                    }
                                    _ => {
                                        let timeout = Duration::from_micros(rng.next_u64() % 51);
                                        match handle.try_send(event, timeout) {
                                            Ok(()) => drop(events.next()),
                                            Err(SendError::Timeout) => {} // retried next step
                                            Err(SendError::Disconnected) => {
                                                panic!("the sequencer outlives its producers")
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
                ingest
                    .sequence_with(&mut service, |_, live| {
                        epoch_bits.push(live.outcome_snapshot().deterministic_bits());
                    })
                    .expect("oracle streams contain no fatal faults");
            });
            assert_eq!(
                epoch_bits, serial_epochs,
                "{producers} producers at capacity {queue_capacity} diverged mid-stream"
            );
            assert_eq!(
                service.into_outcome().deterministic_bits(),
                serial_final,
                "{producers} producers at capacity {queue_capacity}"
            );
        }
    }
}
