//! The PR-6 acceptance oracle: **recovery equals uninterrupted**.
//!
//! Every `Outcome` is a pure function of the admitted event stream
//! (PR 4/5 standing invariants), so durability has an exact spec: a
//! service recovered from its write-ahead journal + latest epoch
//! checkpoint must produce `Outcome::deterministic_bits` identical to
//! one that never crashed. This file enforces that across the
//! [`maps_testkit::FaultPlan`] fault kinds:
//!
//! * **crash at every epoch boundary** — under the 1/2/3/8 rayon
//!   thread sweep ([`DEFAULT_THREAD_COUNTS`]);
//! * **producer kill mid-epoch** at every epoch — producer counts
//!   1/2/4/8 ([`DEFAULT_PRODUCER_COUNTS`]), supervisor reconnect at the
//!   recovered watermarks, both exact-resume and at-least-once resend
//!   (the watermark suppresses the duplicates);
//! * **torn final journal record** — seeded truncations, recovery drops
//!   the invalid frame and the producer re-sends from its ack;
//! * **tick panic / sequencer death** — a poisoned tick surfaces as a
//!   typed error (serially and out of the sequencer thread's `join`),
//!   then the journal recovers the service to the bit-identical stream.
//!
//! CI runs this file as the fail-fast fault-injection step.

use maps_core::StrategyKind;
use maps_service::ingest::{chunk_bounds, period_events, IngestConfig, IngestService};
use maps_service::journal::JournalConfig;
use maps_service::{
    recover, replay_journaled, SendError, ServiceConfig, ServiceError, ServiceEvent,
    ShardedService, Tail,
};
use maps_simulator::{GroundTruth, SimOptions, Simulation, SyntheticConfig};
use maps_testkit::{
    assert_deterministic_across, Fault, FaultPlan, DEFAULT_PRODUCER_COUNTS, DEFAULT_THREAD_COUNTS,
};
use std::path::PathBuf;

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
        calibrate: false, // calibrated-state recovery is covered by the engine checkpoint tests
        ..SimOptions::default()
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        max_edges_per_task: options().max_edges_per_task,
        ..ServiceConfig::default()
    }
}

fn service_for(world: &GroundTruth, kind: StrategyKind) -> ShardedService {
    ShardedService::new(world.grid, world.match_policy, kind, config())
}

fn batch_bits(world: &GroundTruth, kind: StrategyKind) -> Vec<u64> {
    Simulation::new(world.clone(), kind)
        .with_options(options())
        .run()
        .deterministic_bits()
}

/// A unique scratch dir per invocation (integration tests cannot reach
/// the crate-private helper).
#[expect(clippy::disallowed_types, reason = "a test may count with an atomic")]
fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "maps_recovery_oracle_{tag}_{}_{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Serially finishes a recovered service: re-sends the not-yet-durable
/// suffix of the current period (everything past lane 0's watermark)
/// and then streams the remaining periods. This is exactly what a
/// supervisor-driven single producer does after reading its ack.
fn finish_serially(svc: &mut ShardedService, world: &GroundTruth) {
    let served = svc.periods_served() as usize;
    let resume_start = match svc.watermark(0) {
        Some((epoch, seq)) if epoch == served as u64 => seq as usize + 1,
        _ => 0,
    };
    for (i, period) in world.periods.iter().enumerate().skip(served) {
        let events: Vec<_> = period_events(period).collect();
        let start = if i == served { resume_start } else { 0 };
        for &event in &events[start..] {
            svc.push(event);
        }
        svc.push(ServiceEvent::PeriodTick);
    }
}

/// Journaled serial run crashed right after `crash_epoch`'s barrier
/// tick, recovered, finished, compared against nothing — the caller
/// owns the comparison.
fn boundary_crash_bits(
    world: &GroundTruth,
    kind: StrategyKind,
    crash_epoch: usize,
    checkpoint_every: u32,
) -> Vec<u64> {
    let dir = fresh_dir("boundary");
    let cfg = JournalConfig::new(&dir, checkpoint_every);
    let mut svc = service_for(world, kind);
    svc.attach_journal(&cfg).expect("attach journal");
    for period in &world.periods[..=crash_epoch] {
        for event in period_events(period) {
            svc.push(event);
        }
        svc.push(ServiceEvent::PeriodTick);
    }
    drop(svc); // the crash: all state gone, only the journal dir remains

    let recovered =
        recover(world.grid, world.match_policy, kind, config(), &cfg).expect("boundary recovery");
    assert_eq!(
        recovered.service.periods_served() as usize,
        crash_epoch + 1,
        "recovery must land exactly on the crashed epoch boundary"
    );
    let mut svc = recovered.service;
    finish_serially(&mut svc, world);
    assert_eq!(
        svc.suppressed_duplicates(),
        0,
        "exact resume resends nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
    svc.into_outcome().deterministic_bits()
}

/// The tentpole sweep, part 1: crash at **every** epoch boundary, under
/// the rayon thread sweep. A checkpoint cadence of 3 makes some crash
/// points recover straight off a checkpoint and others replay a
/// multi-epoch journal tail past an older one.
#[test]
fn crash_at_every_epoch_boundary_recovers_bit_identically() {
    let world = world();
    let kind = StrategyKind::Maps;
    let batch = batch_bits(&world, kind);
    // The journal is write-path-only: journaled replay matches batch.
    let journal_dir = fresh_dir("journaled_replay");
    let journaled = replay_journaled(
        &world,
        kind,
        1,
        options(),
        &JournalConfig::new(&journal_dir, 2),
    )
    .expect("journaled replay");
    assert_eq!(journaled.deterministic_bits(), batch);
    let _ = std::fs::remove_dir_all(&journal_dir);

    for crash_epoch in 0..world.num_periods() {
        let bits = assert_deterministic_across(&DEFAULT_THREAD_COUNTS, || {
            boundary_crash_bits(&world, kind, crash_epoch, 3)
        });
        assert_eq!(
            bits, batch,
            "crash after epoch {crash_epoch} diverged from the uninterrupted run"
        );
    }
}

/// Part 1b: the second strategy of the CI sweep (CappedUCB).
#[test]
fn crash_at_every_epoch_boundary_capped_ucb() {
    let world = world();
    let kind = StrategyKind::CappedUcb;
    let batch = batch_bits(&world, kind);
    for crash_epoch in 0..world.num_periods() {
        let bits = assert_deterministic_across(&[1, 3], || {
            boundary_crash_bits(&world, kind, crash_epoch, 2)
        });
        assert_eq!(
            bits, batch,
            "CappedUCB crash after epoch {crash_epoch} diverged"
        );
    }
}

/// Journaled run killed mid-epoch: producers below the victim delivered
/// their whole epoch chunk, the victim delivered `events_sent` events,
/// later producers were still queued behind the victim's lane (the
/// sequencer merges lanes in producer-id order, so that is exactly the
/// durable prefix a real mid-epoch crash leaves). Recovery hands back
/// per-producer watermarks; every lane reconnects and the stream finishes
/// through the real multi-producer sequencer. Returns
/// `(final_bits, suppressed_duplicates)`.
fn producer_kill_bits(
    world: &GroundTruth,
    kind: StrategyKind,
    producers: usize,
    victim: usize,
    crash_epoch: usize,
    events_sent: usize,
    resend: bool,
) -> (Vec<u64>, u64) {
    let dir = fresh_dir("kill");
    let cfg = JournalConfig::new(&dir, 2);
    let mut svc = service_for(world, kind);
    svc.attach_journal(&cfg).expect("attach journal");
    for period in &world.periods[..crash_epoch] {
        for event in period_events(period) {
            svc.push(event);
        }
        svc.push(ServiceEvent::PeriodTick);
    }
    let events: Vec<_> = period_events(&world.periods[crash_epoch]).collect();
    let bounds = chunk_bounds(events.len(), producers);
    let mut delivered = vec![0usize; producers];
    for p in 0..producers {
        let chunk = &events[bounds[p]..bounds[p + 1]];
        let take = if p < victim {
            chunk.len()
        } else if p == victim {
            events_sent.min(chunk.len())
        } else {
            0
        };
        for (s, &event) in chunk[..take].iter().enumerate() {
            match svc.push_stamped(p as u32, crash_epoch as u64, s as u64, event) {
                Ok(()) | Err(ServiceError::Rejected(_)) => {}
                Err(fatal) => panic!("fatal mid-epoch push: {fatal}"),
            }
        }
        delivered[p] = take;
    }
    drop(svc); // the crash, mid-epoch this time

    let recovered =
        recover(world.grid, world.match_policy, kind, config(), &cfg).expect("mid-epoch recovery");
    assert_eq!(recovered.service.periods_served() as usize, crash_epoch);
    // The victim's watermark names exactly what it got through pre-crash.
    if delivered[victim] > 0 {
        assert_eq!(
            recovered.service.watermark(victim as u32),
            Some((crash_epoch as u64, delivered[victim] as u64 - 1))
        );
    }

    let mut svc = recovered.service;
    let (ingest, handles) = IngestService::new(IngestConfig {
        producers,
        queue_capacity: world.total_workers() + world.total_tasks() + world.num_periods() + 1,
    });
    // Supervisor reconnect: every lane resumes at its durable watermark
    // (the victim optionally resends its whole epoch chunk to exercise
    // at-least-once delivery).
    let lanes: Vec<_> = handles
        .into_iter()
        .map(|h| {
            let p = h.id() as usize;
            let resume_seq = if resend && p == victim {
                0
            } else {
                delivered[p] as u64
            };
            h.abandon().reconnect(crash_epoch as u64, resume_seq)
        })
        .collect();
    std::thread::scope(|scope| {
        for mut lane in lanes {
            let (world, delivered, events, bounds) = (&world, &delivered, &events, &bounds);
            scope.spawn(move || {
                let p = lane.id() as usize;
                let start = if resend && p == victim {
                    0
                } else {
                    delivered[p]
                };
                for &event in
                    &events[bounds[p]..bounds[p + 1]][start.min(bounds[p + 1] - bounds[p])..]
                {
                    lane.send(event);
                }
                lane.end_epoch();
                for period in &world.periods[crash_epoch + 1..] {
                    let events: Vec<_> = period_events(period).collect();
                    let bounds = chunk_bounds(events.len(), producers);
                    for &event in &events[bounds[p]..bounds[p + 1]] {
                        lane.send(event);
                    }
                    lane.end_epoch();
                }
            });
        }
        ingest.sequence(&mut svc).expect("post-recovery sequencing");
    });
    let suppressed = svc.suppressed_duplicates();
    let _ = std::fs::remove_dir_all(&dir);
    (svc.into_outcome().deterministic_bits(), suppressed)
}

/// The tentpole sweep, part 2: a seeded producer kill **mid-epoch at
/// every epoch**, at every producer count, with exact-resume and
/// at-least-once-resend reconnects. Suppressed duplicates are the last
/// word of the deterministic encoding; the resend run must match the
/// uninterrupted stream on every other word.
#[test]
fn producer_kill_mid_epoch_recovers_at_every_epoch() {
    let world = world();
    let kind = StrategyKind::Maps;
    let batch = batch_bits(&world, kind);
    let mut plan = FaultPlan::new(0xF00D, 8, world.num_periods() as u32);
    for producers in DEFAULT_PRODUCER_COUNTS {
        for crash_epoch in 0..world.num_periods() {
            let (victim, events_sent) = loop {
                if let Fault::ProducerKill {
                    producer,
                    events_sent,
                    ..
                } = plan.next_fault()
                {
                    break (producer as usize % producers, events_sent as usize);
                }
            };
            // Exact resume: nothing resent, bits match in full — checked
            // across two rayon pool sizes (the full 1/2/3/8 sweep runs
            // in the boundary test above).
            let (bits, suppressed) = assert_deterministic_across(&[1, 3], || {
                producer_kill_bits(
                    &world,
                    kind,
                    producers,
                    victim,
                    crash_epoch,
                    events_sent,
                    false,
                )
            });
            assert_eq!(suppressed, 0);
            assert_eq!(
                bits, batch,
                "exact-resume kill (producer {victim}/{producers}, epoch {crash_epoch}) diverged"
            );
            // At-least-once: the victim resends its whole chunk; the
            // watermark suppresses exactly the previously durable part.
            let (mut resent, suppressed) = producer_kill_bits(
                &world,
                kind,
                producers,
                victim,
                crash_epoch,
                events_sent,
                true,
            );
            let chunk_len = {
                let events: Vec<_> = period_events(&world.periods[crash_epoch]).collect();
                let bounds = chunk_bounds(events.len(), producers);
                bounds[victim + 1] - bounds[victim]
            };
            assert_eq!(suppressed, events_sent.min(chunk_len) as u64);
            // suppressed_duplicates sits just before the latency
            // telemetry words at the tail of the encoding.
            let idx = batch.len() - 1 - maps_telemetry::LatencyTelemetry::WORDS;
            let expect = batch.clone();
            assert_eq!(expect[idx], 0, "batch run suppressed nothing");
            assert_eq!(resent[idx], suppressed);
            resent[idx] = 0;
            assert_eq!(
                resent, expect,
                "resend run (producer {victim}/{producers}, epoch {crash_epoch}) perturbed \
                 the outcome beyond the suppression counter"
            );
        }
    }
}

/// Torn final journal record: seeded truncations of the file tail must
/// recover as `Tail::Torn`, drop exactly the invalid frame, and let the
/// producer re-send from its ack to a bit-identical finish.
#[test]
fn torn_final_record_truncates_and_recovers() {
    let world = world();
    let kind = StrategyKind::Maps;
    let batch = batch_bits(&world, kind);
    let mut plan = FaultPlan::new(0xBEEF, 1, world.num_periods() as u32);
    let mut torn_cases = 0;
    while torn_cases < 5 {
        let Fault::TornTail { epoch, bytes } = plan.next_fault() else {
            continue;
        };
        torn_cases += 1;
        let (crash_epoch, bytes) = (epoch as usize, bytes as u64);
        let dir = fresh_dir("torn");
        let cfg = JournalConfig::new(&dir, 2);
        let mut svc = service_for(&world, kind);
        svc.attach_journal(&cfg).expect("attach journal");
        for period in &world.periods[..crash_epoch] {
            for event in period_events(period) {
                svc.push(event);
            }
            svc.push(ServiceEvent::PeriodTick);
        }
        // Mid-epoch: the whole epoch's events are appended (buffered),
        // then the crash tears `bytes` off the final frame.
        for event in period_events(&world.periods[crash_epoch]) {
            svc.push(event);
        }
        drop(svc);
        let path = cfg.journal_path();
        let len = std::fs::metadata(&path).expect("journal exists").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("reopen journal")
            .set_len(len - bytes)
            .expect("tear the tail");

        let recovered = recover(world.grid, world.match_policy, kind, config(), &cfg)
            .expect("torn-tail recovery");
        assert!(
            matches!(recovered.tail, Tail::Torn { dropped, .. } if dropped > 0),
            "a mid-frame truncation must classify as torn"
        );
        let mut svc = recovered.service;
        finish_serially(&mut svc, &world);
        assert_eq!(svc.suppressed_duplicates(), 0);
        assert_eq!(
            svc.into_outcome().deterministic_bits(),
            batch,
            "torn tail at epoch {crash_epoch} (-{bytes} bytes) diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Tick panic: the injected fault poisons the service with a typed
/// error (serial path), and the journal — whose barrier record was
/// durable *before* the tick ran — recovers the epoch deterministically.
#[test]
fn tick_panic_poisons_then_recovers() {
    let world = world();
    let kind = StrategyKind::CappedUcb;
    let batch = batch_bits(&world, kind);
    let mut plan = FaultPlan::new(0xCAFE, 4, world.num_periods() as u32);
    let Fault::TickPanic { epoch } = (0..4)
        .map(|_| plan.next_fault())
        .find(|f| matches!(f, Fault::TickPanic { .. }))
        .expect("plan cycles through every fault kind")
    else {
        unreachable!()
    };
    let crash_epoch = epoch as usize;

    let dir = fresh_dir("tick_panic");
    let cfg = JournalConfig::new(&dir, 2);
    let mut svc = service_for(&world, kind);
    svc.attach_journal(&cfg).expect("attach journal");
    svc.inject_tick_fault(epoch);
    let mut poisoned = None;
    'stream: for period in &world.periods {
        for event in period_events(period) {
            if let Err(e) = svc.try_push(event) {
                poisoned = Some(e);
                break 'stream;
            }
        }
        if let Err(e) = svc.try_push(ServiceEvent::PeriodTick) {
            poisoned = Some(e);
            break 'stream;
        }
    }
    let Some(ServiceError::Poisoned(panic)) = poisoned else {
        panic!("injected tick fault must poison the tick");
    };
    assert_eq!(panic.period as usize, crash_epoch);
    assert_eq!(svc.poisoned_by(), Some(&panic));
    drop(svc);

    let recovered = recover(world.grid, world.match_policy, kind, config(), &cfg)
        .expect("post-poison recovery");
    // The poisoned epoch's barrier was journaled before the tick ran,
    // so replay re-runs (and this time completes) it.
    assert_eq!(recovered.service.periods_served() as usize, crash_epoch + 1);
    let mut svc = recovered.service;
    finish_serially(&mut svc, &world);
    assert_eq!(svc.into_outcome().deterministic_bits(), batch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequencer death: the same poisoned tick, but on a background
/// sequencer thread — its `join` hands back the typed error, producers
/// see a typed disconnect from `try_send` instead of hanging, and the
/// journal recovers the stream.
#[test]
fn sequencer_death_surfaces_typed_error_and_recovers() {
    let world = world();
    let kind = StrategyKind::Maps;
    let batch = batch_bits(&world, kind);
    let mut plan = FaultPlan::new(0xD00D, 2, world.num_periods() as u32);
    let Fault::TickPanic { epoch: crash_epoch } = (0..4)
        .map(|_| plan.next_fault())
        .find(|f| matches!(f, Fault::TickPanic { .. }))
        .expect("plan cycles through every fault kind")
    else {
        unreachable!()
    };

    let dir = fresh_dir("seq_death");
    let cfg = JournalConfig::new(&dir, 2);
    let mut svc = service_for(&world, kind);
    svc.attach_journal(&cfg).expect("attach journal");
    svc.inject_tick_fault(crash_epoch);

    let producers = 2usize;
    let (ingest, handles) = IngestService::new(IngestConfig {
        producers,
        queue_capacity: 64,
    });
    let sequencer = std::thread::spawn(move || ingest.sequence(&mut svc).map(|n| (svc, n)));
    std::thread::scope(|scope| {
        for mut lane in handles {
            let world = &world;
            scope.spawn(move || {
                let p = lane.id() as usize;
                let timeout = std::time::Duration::from_millis(50);
                'stream: for period in &world.periods {
                    let events: Vec<_> = period_events(period).collect();
                    let bounds = chunk_bounds(events.len(), producers);
                    for &event in &events[bounds[p]..bounds[p + 1]] {
                        loop {
                            match lane.try_send(event, timeout) {
                                Ok(()) => break,
                                Err(SendError::Timeout) => continue,
                                // The sequencer died; a supervisor would
                                // now wait for recovery. Typed, no hang.
                                Err(SendError::Disconnected) => break 'stream,
                            }
                        }
                    }
                    if lane.try_send(ServiceEvent::PeriodTick, timeout)
                        == Err(SendError::Disconnected)
                    {
                        break 'stream;
                    }
                }
            });
        }
    });
    let death = sequencer
        .join()
        .expect("a poisoned tick is an error, not an unwind")
        .expect_err("poisoned tick kills the sequencer");
    match death {
        ServiceError::Poisoned(panic) => assert_eq!(panic.period, crash_epoch),
        other => panic!("expected a typed tick poisoning, got {other:?}"),
    }

    let recovered =
        recover(world.grid, world.match_policy, kind, config(), &cfg).expect("post-death recovery");
    let mut svc = recovered.service;
    finish_serially(&mut svc, &world);
    assert_eq!(svc.suppressed_duplicates(), 0);
    assert_eq!(svc.into_outcome().deterministic_bits(), batch);
    let _ = std::fs::remove_dir_all(&dir);
}
