//! Pass drivers: one pass = one fresh service fed the whole stream
//! through the shipping public API.
//!
//! Three shapes of pass exist. A *plain* pass pushes every event with
//! serial `try_push`; a *durable* pass does the same with a journal
//! attached and the service dropped and rebuilt by `recover` on a fixed
//! cadence; a *fan-in* pass feeds the stream through `IngestService`
//! from producer threads. All are closed loops: `try_push` is
//! synchronous and producers block on full rings.

use crate::reference::STRATEGY;
use crate::trace::{Tracer, NO_PERIOD};
use maps_service::ingest::chunk_bounds;
use maps_service::journal::{checkpoint_path, list_checkpoints};
use maps_service::{
    recover, replay_service, IngestConfig, IngestService, JournalConfig, ServiceConfig,
    ServiceError, ServiceEvent, ShardedService,
};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{GroundTruth, Outcome, PeriodData, SimOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards of every service the benchmark builds.
pub const SHARDS: usize = 4;

/// How a pass feeds the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Serial `try_push`, no journal.
    Plain,
    /// Serial `try_push` with a journal; crash + `recover` every
    /// `recover_every` periods.
    Durable {
        checkpoint_every: u32,
        recover_every: usize,
    },
    /// `IngestService` with this many producer threads.
    Fanin { producers: usize },
}

/// What one pass measured. Times are nanoseconds.
#[derive(Debug)]
pub struct Pass {
    pub outcome: Outcome,
    /// First push to last tick returned.
    pub wall_ns: u64,
    /// Per period: last event handed over → prices posted.
    pub tick_ns: Vec<u64>,
    /// Per period: first event pushed → prices posted (a recovery counts
    /// to the period it precedes). Sums to `wall_ns`, clock reads aside.
    pub period_ns: Vec<u64>,
    /// Allocator peak over the pass minus live bytes at its start.
    pub peak_heap_bytes: u64,
    /// Operations attempted: pushed events plus `recover` calls.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    pub events_rejected: u64,
    pub workers_admitted: u64,
    pub live_workers_end: u64,
    pub durable: Option<DurableStats>,
    pub fanin: Option<FaninStats>,
}

/// Journal and recovery figures of a durable pass.
#[derive(Debug)]
pub struct DurableStats {
    pub recover_ns: Vec<u64>,
    pub epochs_replayed: u64,
    pub journal_bytes: u64,
    pub checkpoint_bytes_last: u64,
}

/// Front-door figures of a fan-in pass.
#[derive(Debug)]
pub struct FaninStats {
    /// Producer time inside `send_iter` + `end_epoch`, summed over
    /// producers.
    pub send_wait_ns: u64,
    /// `sequence_with`'s return: epochs fired.
    pub epochs: u64,
}

/// The options every service and the reference loop run with.
pub fn sim_options() -> SimOptions {
    SimOptions::default()
}

/// `replay_service`'s configuration, for `recover`.
fn service_config(world: &GroundTruth) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        max_edges_per_task: sim_options().max_edges_per_task,
        expected_workers: world.total_workers().max(1),
    }
}

/// A fresh calibrated service for `world`.
pub fn new_service(world: &GroundTruth) -> ShardedService {
    replay_service(world, STRATEGY, SHARDS, sim_options())
}

/// A journal scratch directory, unique per process and pass, removed
/// when dropped — on success, on error and on unwind alike.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(base: &Path, pass: usize) -> std::io::Result<Self> {
        let path = base.join(format!("maps_benchmark_{}_{pass}", std::process::id()));
        // A stale directory can only be a leftover of a killed process
        // that had this pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Running totals of a pass's operations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Books one `try_push`. A rejection fails that one operation and
    /// the stream goes on; anything else ends the pass.
    fn push(&mut self, result: Result<(), ServiceError>) -> Result<(), String> {
        self.attempted += 1;
        match result {
            Ok(()) => Ok(()),
            Err(ServiceError::Rejected(_)) => {
                self.failed += 1;
                Ok(())
            }
            Err(fatal) => Err(fatal.to_string()),
        }
    }
}

fn admit(
    service: &mut ShardedService,
    period: &PeriodData,
    p: u32,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let span = tracer.begin("admit", p);
    for &worker in &period.workers {
        tally.push(service.try_push(ServiceEvent::WorkerArrive { worker }))?;
    }
    for &task in &period.tasks {
        tally.push(service.try_push(ServiceEvent::TaskRequest { task }))?;
    }
    tracer.end(span);
    Ok(())
}

fn tick(
    service: &mut ShardedService,
    p: u32,
    tracer: &mut Tracer,
    tally: &mut Tally,
    tick_ns: &mut Vec<u64>,
) -> Result<(), String> {
    let span = tracer.begin("tick", p);
    let start = Instant::now();
    let result = service.try_push(ServiceEvent::PeriodTick);
    tick_ns.push(start.elapsed().as_nanos() as u64);
    tracer.end(span);
    tally.push(result)
}

/// Runs one pass of `world` through a fresh service. `scratch` is where
/// a durable pass keeps its journal; the caller owns (and removes) it.
pub fn run_pass(
    world: &GroundTruth,
    feed: Feed,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    TrackingAllocator::reset_peak();
    let heap_base = TrackingAllocator::current_bytes();
    let mut service = new_service(world);
    let mut tally = Tally::default();
    let mut tick_ns = Vec::with_capacity(world.num_periods());
    let mut period_ns = Vec::with_capacity(world.num_periods());
    let mut durable = None;
    let mut fanin = None;

    let root = tracer.begin("pass", NO_PERIOD);
    let wall_ns;
    match feed {
        Feed::Plain => {
            let start = Instant::now();
            for (t, period) in world.periods.iter().enumerate() {
                let began = Instant::now();
                admit(&mut service, period, t as u32, tracer, &mut tally)?;
                tick(&mut service, t as u32, tracer, &mut tally, &mut tick_ns)?;
                period_ns.push(began.elapsed().as_nanos() as u64);
            }
            wall_ns = start.elapsed().as_nanos() as u64;
        }
        Feed::Durable {
            checkpoint_every,
            recover_every,
        } => {
            let journal = JournalConfig::new(scratch, checkpoint_every);
            service
                .attach_journal(&journal)
                .map_err(|e| e.to_string())?;
            let mut stats = DurableStats {
                recover_ns: Vec::new(),
                epochs_replayed: 0,
                journal_bytes: 0,
                checkpoint_bytes_last: 0,
            };
            let start = Instant::now();
            for (t, period) in world.periods.iter().enumerate() {
                let began = Instant::now();
                if t > 0 && t % recover_every == 0 {
                    // The crash: the service goes away with whatever it
                    // held in memory; only the directory survives.
                    drop(service);
                    tally.attempted += 1;
                    let span = tracer.begin("recover", t as u32);
                    let started = Instant::now();
                    let recovered = recover(
                        world.grid,
                        world.match_policy,
                        STRATEGY,
                        service_config(world),
                        &journal,
                    )
                    .map_err(|e| e.to_string())?;
                    stats.recover_ns.push(started.elapsed().as_nanos() as u64);
                    tracer.end(span);
                    stats.epochs_replayed += u64::from(recovered.epochs_replayed);
                    service = recovered.service;
                }
                admit(&mut service, period, t as u32, tracer, &mut tally)?;
                tick(&mut service, t as u32, tracer, &mut tally, &mut tick_ns)?;
                period_ns.push(began.elapsed().as_nanos() as u64);
            }
            wall_ns = start.elapsed().as_nanos() as u64;
            stats.journal_bytes = file_len(&journal.journal_path())?;
            stats.checkpoint_bytes_last = newest_checkpoint_len(scratch)?;
            durable = Some(stats);
        }
        Feed::Fanin { producers } => {
            let (stats, wall) = fanin_feed(
                world,
                producers,
                &mut service,
                tracer,
                &mut tally,
                &mut tick_ns,
                &mut period_ns,
            )?;
            wall_ns = wall;
            fanin = Some(stats);
        }
    }
    tracer.end(root);

    let peak_heap_bytes = TrackingAllocator::peak_bytes().saturating_sub(heap_base) as u64;
    Ok(Pass {
        wall_ns,
        tick_ns,
        period_ns,
        peak_heap_bytes,
        attempted: tally.attempted,
        failed: tally.failed,
        events_rejected: service.rejected_events(),
        workers_admitted: service.admitted_workers() as u64,
        live_workers_end: service.live_workers() as u64,
        durable,
        fanin,
        outcome: service.into_outcome(),
    })
}

/// One producer's clock readings, on the tracer's clock.
struct Lane {
    /// Per epoch: before `send_iter`, just before `end_epoch`, after it.
    epochs: Vec<[u64; 3]>,
}

fn fanin_feed(
    world: &GroundTruth,
    producers: usize,
    service: &mut ShardedService,
    tracer: &mut Tracer,
    tally: &mut Tally,
    tick_ns: &mut Vec<u64>,
    period_ns: &mut Vec<u64>,
) -> Result<(FaninStats, u64), String> {
    let (ingest, handles) = IngestService::new(IngestConfig {
        producers,
        ..IngestConfig::default()
    });
    // Producers and the sequencer read one clock, so a tick's latency
    // can be taken across threads.
    let clock = tracer.clock();
    let now = move || clock.elapsed().as_nanos() as u64;
    let mut tick_done: Vec<u64> = Vec::with_capacity(world.num_periods());

    let start = now();
    let (sequenced, lanes) = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut handle| {
                scope.spawn(move || {
                    let p = handle.id() as usize;
                    let mut lane = Lane {
                        epochs: Vec::with_capacity(world.num_periods()),
                    };
                    for period in &world.periods {
                        let n_workers = period.workers.len();
                        let bounds = chunk_bounds(n_workers + period.tasks.len(), producers);
                        let begin = now();
                        handle.send_iter((bounds[p]..bounds[p + 1]).map(|i| {
                            if i < n_workers {
                                ServiceEvent::WorkerArrive {
                                    worker: period.workers[i],
                                }
                            } else {
                                ServiceEvent::TaskRequest {
                                    task: period.tasks[i - n_workers],
                                }
                            }
                        }));
                        let handed_over = now();
                        handle.end_epoch();
                        lane.epochs.push([begin, handed_over, now()]);
                    }
                    lane
                })
            })
            .collect();
        let sequenced = ingest.sequence_with(service, |_, _| tick_done.push(now()));
        let lanes: Vec<_> = joins.into_iter().map(|j| j.join()).collect();
        (sequenced, lanes)
    });
    let wall_ns = now() - start;

    let epochs = sequenced.map_err(|e| e.to_string())?;
    let lanes: Vec<Lane> = lanes
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|_| "an ingest producer panicked".to_string())?;
    if epochs as usize != world.num_periods() || tick_done.len() != world.num_periods() {
        return Err(format!(
            "sequencer fired {epochs} epochs for {} periods",
            world.num_periods()
        ));
    }
    // Every event and every tick went through without a fatal error;
    // rejections are counted by the service and booked by the caller.
    let events = world.total_workers() + world.total_tasks() + world.num_periods();
    tally.attempted += events as u64;
    tally.failed += service.rejected_events();

    let mut send_wait_ns = 0;
    let mut previous_done = start;
    for (e, &done) in tick_done.iter().enumerate() {
        period_ns.push(done - previous_done);
        previous_done = done;
        let handed_over = lanes
            .iter()
            .map(|lane| lane.epochs[e][1])
            .max()
            .expect("at least one producer");
        tick_ns.push(done.saturating_sub(handed_over));
        tracer.record("tick", e as u32, handed_over, done);
        for lane in &lanes {
            let [begin, _, end] = lane.epochs[e];
            send_wait_ns += end - begin;
            tracer.record("send_epoch", e as u32, begin, end);
        }
    }
    Ok((
        FaninStats {
            send_wait_ns,
            epochs,
        },
        wall_ns,
    ))
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Size of the newest `checkpoint_<epoch>.bin` in `dir`.
fn newest_checkpoint_len(dir: &Path) -> Result<u64, String> {
    let newest = list_checkpoints(dir)
        .map_err(|e| e.to_string())?
        .into_iter()
        .max()
        .ok_or("no checkpoint written")?;
    file_len(&checkpoint_path(dir, newest))
}

/// Failed operations of a pass once its outcome is known: a pass whose
/// final bits differ from the reference loop's did nothing right, so
/// every operation it attempted counts as failed.
pub fn failed_operations(attempted: u64, failed: u64, bits: &[u64], expected: &[u64]) -> u64 {
    if bits == expected {
        failed
    } else {
        attempted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_loop;
    use crate::stream::{build_world, StreamShape};

    const SHAPE: StreamShape = StreamShape {
        periods: 12,
        pool: 120,
        arrivals: 25,
        arrival_duration: 3,
        tasks: 20,
    };

    fn scratch(tag: usize) -> ScratchDir {
        ScratchDir::create(&std::env::temp_dir(), 9_000 + tag).expect("scratch dir")
    }

    #[test]
    fn every_feed_reproduces_the_reference_bits() {
        let world = build_world(&SHAPE, 21);
        let expected = reference_loop(&world, sim_options(), &mut Tracer::disabled(), &[])
            .outcome
            .deterministic_bits();
        let events = SHAPE.events();
        let feeds = [
            Feed::Plain,
            Feed::Durable {
                checkpoint_every: 4,
                recover_every: 5,
            },
            Feed::Fanin { producers: 2 },
        ];
        for (i, feed) in feeds.into_iter().enumerate() {
            let dir = scratch(i);
            let mut tracer = Tracer::recording();
            let pass = run_pass(&world, feed, dir.path(), &mut tracer).expect("pass");
            assert_eq!(pass.outcome.deterministic_bits(), expected, "{feed:?}");
            assert_eq!(pass.failed, 0, "{feed:?}");
            assert_eq!(pass.tick_ns.len(), SHAPE.periods, "{feed:?}");
            assert_eq!(pass.period_ns.len(), SHAPE.periods, "{feed:?}");
            assert!(
                pass.period_ns.iter().sum::<u64>() <= pass.wall_ns,
                "{feed:?}: periods lie inside the pass"
            );
            assert_eq!(tracer.durations_ns("tick").count(), SHAPE.periods);
            assert!(pass.peak_heap_bytes > 0 && pass.wall_ns > 0);
            let recoveries = pass.durable.as_ref().map_or(0, |d| d.recover_ns.len()) as u64;
            assert_eq!(pass.attempted, events + recoveries, "{feed:?}");
            assert_eq!(pass.workers_admitted as usize, world.total_workers());
            match feed {
                Feed::Plain => assert!(pass.durable.is_none() && pass.fanin.is_none()),
                Feed::Durable { .. } => {
                    let d = pass.durable.expect("durable stats");
                    assert_eq!(d.recover_ns.len(), 2);
                    // Checkpoints at 4 and 8: crashes at 5 and 10
                    // replay epochs {4} and {8, 9}.
                    assert_eq!(d.epochs_replayed, 3);
                    assert!(d.journal_bytes > events && d.checkpoint_bytes_last > 0);
                }
                Feed::Fanin { .. } => {
                    let f = pass.fanin.expect("fanin stats");
                    assert_eq!(f.epochs as usize, SHAPE.periods);
                    assert!(f.send_wait_ns > 0);
                }
            }
        }
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = scratch(50);
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("journal.bin"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }

    /// A pass whose outcome is wrong fails every operation it made.
    #[test]
    fn corrupted_outcome_fails_the_whole_pass() {
        let world = build_world(&SHAPE, 4);
        let dir = scratch(60);
        let pass =
            run_pass(&world, Feed::Plain, dir.path(), &mut Tracer::disabled()).expect("pass");
        let good = pass.outcome.deterministic_bits();
        assert_eq!(failed_operations(pass.attempted, 0, &good, &good), 0);
        let mut corrupted = pass.outcome.clone();
        corrupted.total_revenue += 1.0;
        assert_eq!(
            failed_operations(pass.attempted, 0, &corrupted.deterministic_bits(), &good),
            SHAPE.events()
        );
    }
}
