//! Shutdown-interleaving suite for the ingestion lanes, pinned at the
//! nastiest configuration: `queue_capacity = 1`, where every send
//! meets a drain and every shutdown race has a party waiting on a
//! condvar. With all lane state behind one mutex this sweep, not a
//! model checker, is what covers lost wakeups and shutdown liveness.
//!
//! The contract under test: **no interleaving of producer sends,
//! sequencer progress, and either side's shutdown may hang a thread.**
//! A producer blocked on backpressure when the sequencer dies must
//! fail fast (panic from `send`, `Disconnected` from `try_send`); a
//! sequencer waiting on an empty lane when the producer closes must
//! drain and return; an abandoned lane must hold the epoch barrier
//! until reconnect and then complete. Each scenario is swept across
//! timing offsets so the racing side is caught before it takes the
//! lane's lock, between its check and its wait, and asleep.

use maps_service::{
    IngestConfig, IngestService, SendError, ServiceConfig, ServiceError, ServiceEvent,
    ShardedService,
};
use maps_simulator::{GroundWorker, MatchPolicy};
use maps_spatial::{GridSpec, Point, Rect};
use std::thread::JoinHandle;
use std::time::Duration;

fn service() -> ShardedService {
    ShardedService::new(
        GridSpec::square(Rect::square(10.0), 2),
        MatchPolicy::Consume,
        maps_core::StrategyKind::BaseP,
        ServiceConfig::default(),
    )
}

fn worker(x: f64) -> GroundWorker {
    GroundWorker {
        location: Point::new(x, 1.0),
        radius: 4.0,
        duration: u32::MAX,
    }
}

fn arrive(x: f64) -> ServiceEvent {
    ServiceEvent::WorkerArrive { worker: worker(x) }
}

/// The sequencer on its own thread; `join` hands the service back.
fn spawn_sequencer(
    ingest: IngestService,
    mut svc: ShardedService,
) -> JoinHandle<Result<(ShardedService, u64), ServiceError>> {
    std::thread::spawn(move || ingest.sequence(&mut svc).map(|n| (svc, n)))
}

/// A producer waiting on a full capacity-1 lane when the sequencer is
/// dropped must wake and panic out of `send` — never sleep forever on
/// a condvar nobody will signal. Swept across drop delays so the
/// producer is caught before, during and after it goes to sleep.
#[test]
fn dropping_the_sequencer_unblocks_a_blocked_send() {
    for delay_us in [0u64, 50, 200, 1_000, 5_000, 20_000] {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let mut p0 = producers.pop().unwrap();
        p0.send(arrive(1.0)); // lane now full
        let blocked = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p0.send(arrive(2.0)); // blocks: nobody drains
            }))
        });
        std::thread::sleep(Duration::from_micros(delay_us));
        drop(ingest);
        let result = blocked.join().expect("producer thread must terminate");
        assert!(
            result.is_err(),
            "delay {delay_us}µs: blocked send returned instead of failing fast"
        );
    }
}

/// Same race through the typed path: a `try_send` racing the
/// sequencer's death must report `Disconnected` once the consumer is
/// gone — even though the lane is still full, which would otherwise
/// read as `Timeout`.
#[test]
fn try_send_on_a_full_lane_reports_disconnect_after_drop() {
    let (ingest, mut producers) = IngestService::new(IngestConfig {
        producers: 1,
        queue_capacity: 1,
    });
    let mut p0 = producers.pop().unwrap();
    p0.send(arrive(1.0));
    assert_eq!(
        p0.try_send(arrive(2.0), Duration::from_millis(2)),
        Err(SendError::Timeout),
        "full lane with a live sequencer is backpressure"
    );
    drop(ingest);
    assert_eq!(
        p0.try_send(arrive(2.0), Duration::from_secs(3600)),
        Err(SendError::Disconnected),
        "full lane with a dead sequencer must not wait out the deadline"
    );
}

/// A sequencer waiting on an empty capacity-1 lane when the producer
/// closes must wake, drain nothing, and return — the close-vs-wait
/// race on the consumer condvar. Swept across close delays.
#[test]
fn producer_close_wakes_a_parked_sequencer() {
    for delay_us in [0u64, 50, 200, 1_000, 5_000, 20_000] {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let p0 = producers.pop().unwrap();
        let sequencer = spawn_sequencer(ingest, service());
        std::thread::sleep(Duration::from_micros(delay_us));
        p0.close();
        let (svc, epochs) = sequencer
            .join()
            .unwrap()
            .expect("sequencer must return cleanly");
        assert_eq!(epochs, 0, "delay {delay_us}µs");
        assert_eq!(svc.periods_served(), 0);
    }
}

/// The same race with one staged event: the close lands while the
/// sequencer may be mid-pop, asleep, or not yet started — the event
/// must be admitted (staged, no tick) in every interleaving.
#[test]
fn close_with_staged_event_is_drained_in_every_interleaving() {
    for delay_us in [0u64, 50, 200, 1_000, 5_000] {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let mut p0 = producers.pop().unwrap();
        let sequencer = spawn_sequencer(ingest, service());
        std::thread::sleep(Duration::from_micros(delay_us));
        p0.send(arrive(1.0));
        p0.close();
        let (svc, epochs) = sequencer
            .join()
            .unwrap()
            .expect("sequencer must return cleanly");
        assert_eq!(epochs, 0);
        assert_eq!(svc.admitted_workers(), 1, "delay {delay_us}µs: event lost");
    }
}

/// A sequencer that panics mid-stream (a strategy bomb on the first
/// tick) while the producer is pumping a capacity-1 lane: the
/// producer's in-flight blocked send must panic out — the unwind of
/// the sequencer thread drops the consumer side, and that drop is
/// what unblocks the lane. The producer thread must always terminate.
#[test]
fn sequencer_panic_mid_stream_fails_the_blocked_producer() {
    struct Bomb;
    impl maps_core::PricingStrategy for Bomb {
        fn name(&self) -> &'static str {
            "Bomb"
        }
        fn calibrate(&mut self, _probe: &mut dyn maps_core::DemandProbe) {}
        fn price_period(
            &mut self,
            _input: &maps_core::PeriodInput<'_>,
        ) -> maps_core::PriceSchedule {
            panic!("bomb: first tick");
        }
        fn observe(&mut self, _feedback: &[maps_core::Observation]) {}
    }
    let svc = ShardedService::with_strategy(
        GridSpec::square(Rect::square(10.0), 2),
        MatchPolicy::Consume,
        Box::new(Bomb),
        ServiceConfig::default(),
    );
    let (ingest, mut producers) = IngestService::new(IngestConfig {
        producers: 1,
        queue_capacity: 1,
    });
    let mut p0 = producers.pop().unwrap();
    let sequencer = spawn_sequencer(ingest, svc);
    let pump = std::thread::spawn(move || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            // The tick detonates the bomb; some later send must hit the
            // dead lane (possibly while asleep on backpressure).
            p0.send(ServiceEvent::PeriodTick);
            for i in 0..1_000 {
                p0.send(arrive(i as f64));
            }
        }))
    });
    let payload = sequencer.join().expect_err("the bomb must surface");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"bomb: first tick"));
    let pumped = pump.join().expect("producer thread must terminate");
    assert!(
        pumped.is_err(),
        "1000 sends into a dead capacity-1 lane cannot all succeed"
    );
}

/// Abandon-then-reconnect at capacity 1: the abandoned lane holds the
/// epoch barrier (the sequencer waits on the open lane and must not
/// tick past it), so the second producer's pump wedges on
/// backpressure behind it — a whole pipeline stalled on one crashed
/// client. Reconnecting must unwedge everything: the resumed handle's
/// first slot carries the reconnect's stamps through a single-slot
/// lane, the smallest place they have to work.
#[test]
fn abandon_holds_the_barrier_then_reconnect_completes_at_capacity_one() {
    let (ingest, mut producers) = IngestService::new(IngestConfig {
        producers: 2,
        queue_capacity: 1,
    });
    let mut p1 = producers.pop().unwrap();
    let mut p0 = producers.pop().unwrap();
    p0.send(arrive(1.0));
    let lane = p0.abandon();
    let sequencer = spawn_sequencer(ingest, service());
    // The sequencer drains lanes in producer order, so while p0's
    // abandoned lane is open, p1's 1-slot lane backs up after one
    // event — pump it from its own thread.
    let pump = std::thread::spawn(move || {
        for i in 0..8 {
            p1.send(arrive(10.0 + i as f64));
        }
        p1.send(ServiceEvent::PeriodTick);
        p1.close();
    });
    // The epoch cannot close over the abandoned lane.
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !sequencer.is_finished(),
        "tick fired past an abandoned producer"
    );
    let mut p0 = lane.reconnect(0, 1);
    p0.send(arrive(2.0));
    p0.send(ServiceEvent::PeriodTick);
    p0.close();
    pump.join()
        .expect("pump thread must unwedge after reconnect");
    let (svc, epochs) = sequencer
        .join()
        .unwrap()
        .expect("reconnect completes the stream");
    assert_eq!(epochs, 1);
    assert_eq!(svc.admitted_workers(), 10);
    assert_eq!(svc.periods_served(), 1);
}

/// Both sides racing to shut down while events are in flight: the
/// producer closes after K sends at the same time as the sequencer is
/// draining; every K must terminate with exactly K admitted workers.
#[test]
fn close_races_drain_without_losing_events() {
    for k in 0..12usize {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let mut p0 = producers.pop().unwrap();
        let sequencer = spawn_sequencer(ingest, service());
        for i in 0..k {
            p0.send(arrive(i as f64));
        }
        p0.close();
        let (svc, epochs) = sequencer.join().unwrap().expect("clean drain");
        assert_eq!(epochs, 0);
        assert_eq!(svc.admitted_workers(), k, "k = {k}: event lost");
    }
}
