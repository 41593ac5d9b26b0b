//! Bounded, multi-producer event ingestion in front of the tick
//! reducer.
//!
//! The paper's setting is fully online: requesters and workers stream
//! in *concurrently*, yet the platform must keep posting one price per
//! grid per period (Sec. 4.2) — and the whole workspace's determinism
//! contract requires the market-clearing epoch to see a **canonical**
//! event order no matter how client threads interleave. This module is
//! that front door:
//!
//! ```text
//!   client threads (N producers)                 sequencer thread
//!   ┌────────────┐  bounded queue, one per producer
//!   │ producer 0 │──[e₀₀ e₀₁ … ‖ epoch-end]──┐
//!   ├────────────┤                           │   merge under the total
//!   │ producer 1 │──[e₁₀ … ‖ epoch-end]──────┼─► (epoch, producer, seq)
//!   ├────────────┤                           │   order, then feed the
//!   │ producer n │──[… ‖ epoch-end]──────────┘   ShardedService; tick
//!   └────────────┘                               fires only after ALL
//!                                                producers closed the
//!                                                epoch (barrier)
//! ```
//!
//! Each [`IngressProducer`] appends its events to its **own** bounded
//! queue (`Lane`: a mutex, a deque and two condvars — producers never
//! contend with each other, only with the sequencer draining their own
//! lane). Every slot carries its **explicit `(epoch, seq)` stamp**, and
//! the sequencer hands each run to the service with the stamps it came
//! with: the service judges them by its one rule
//! ([`ShardedService::push_stamped`]) instead of the sequencer assuming
//! them, so an at-least-once reconnect is nothing more than a handle
//! whose next stamp differs from its last. A producer's
//! [`ServiceEvent::PeriodTick`] does *not* tick the market: it closes
//! the producer's current **epoch** (it *is* the in-band epoch-end
//! marker).
//! The sequencer drains every producer's epoch-`e` segment — in
//! producer-id order, each segment already in seq order — into the
//! [`ShardedService`], and only then fires the real global tick. The
//! tick is therefore an **epoch barrier**: the reducer never runs until
//! every producer has flushed the epoch.
//!
//! ## The interleaving-invariance contract
//!
//! The order of events fed to the service is the total
//! `(epoch, producer, seq)` order — a pure function of *what each
//! producer sent*, never of *when* it ran. Hence replaying any
//! [`GroundTruth`](maps_simulator::GroundTruth) split across 1/2/4/8
//! producers — under arbitrary thread interleavings and any queue
//! capacities — yields an outcome **bit-identical** to serial
//! [`ShardedService::push`], and therefore (by the PR 4 contract) to
//! [`Simulation::run`](maps_simulator::Simulation::run).
//!
//! The sequencer's loop is [`merge`], a function with no lock and no
//! thread: it pulls lanes in canonical order, so the only thing thread
//! timing can change is where a lane's stream is cut into runs — what
//! one take from a lane finds queued. Enforced in three places:
//! - `merge` is a function of lane contents and cuts: the seeded
//!   explorer, `tests/explorer.rs`, drives it over in-memory lanes cut
//!   into seeded runs (producer partitions × strategies × run lengths
//!   down to one event × crashes, checked after every epoch), and
//!   enumerates every cut of a small epoch;
//! - the lane's FIFO order and its cut rule under real threads: this
//!   module's unit suite and `tests/ingest_shutdown.rs`, both at
//!   capacity 1;
//! - `maps_benchmark`'s `fanin` workload checks its bits on every pass
//!   and prices the front-end against serial push
//!   (`ingest.vs_serial`).
//!
//! ## Liveness
//!
//! Queues are bounded: a producer ahead of the sequencer blocks in
//! [`IngressProducer::send`] until its lane drains (backpressure, the
//! deliberate memory bound). The sequencer drains producers in id
//! order within an epoch, so total progress requires every producer to
//! eventually close its epoch (or close its handle) — the usual
//! contract of a barrier. External coordination that *holds producers
//! back* (e.g. a test harness serializing sends) must size queues to
//! the held-back volume, or it can deadlock against the barrier.

use crate::engine::{ServiceError, ServiceEvent, ShardedService};
use crate::journal::TICK_PRODUCER;
use maps_simulator::PeriodData;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of the ingestion front-end.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Number of producer handles (≥ 1). Any value yields bit-identical
    /// outcomes. Admission runs on the sequencer whatever the count:
    /// more producers add lanes (backpressure per client thread), not
    /// admission throughput.
    pub producers: usize,
    /// Per-producer queue capacity in slots (≥ 1; epoch-end markers
    /// occupy a slot too). Any capacity yields bit-identical outcomes;
    /// it only bounds the memory between a producer and the sequencer.
    pub queue_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            producers: 4,
            queue_capacity: 1024,
        }
    }
}

/// One queued event with the coordinates its producer stamped on it.
/// A [`ServiceEvent::PeriodTick`] slot is the epoch-end marker of the
/// epoch it is stamped with.
#[derive(Debug, Clone, Copy)]
struct Slot {
    epoch: u64,
    seq: u64,
    event: ServiceEvent,
}

/// One run a lane hands [`merge`]: the stamps of its first slot, and
/// whether it ends with the marker that closes `epoch`. Its events,
/// possibly none, sit in the buffer `merge` lent for the take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The epoch every event of the run is stamped with.
    pub epoch: u64,
    /// The first event's seq; the rest follow it without a gap (a
    /// marker alone carries the seq it was stamped with).
    pub seq: u64,
    /// The run ends with the epoch-end marker of `epoch`.
    pub marker: bool,
}

#[derive(Debug)]
struct LaneState {
    slots: VecDeque<Slot>,
    /// The producer closed its handle: no more slots will arrive.
    closed: bool,
    /// The sequencer is gone (dropped, or its thread panicked): slots
    /// will never drain again, so the producer must fail fast instead
    /// of blocking forever on a full lane.
    consumer_gone: bool,
}

/// Unreachable: no caller code ever runs under a lane's lock.
const POISONED: &str = "ingest lane mutex poisoned";

/// One producer's bounded lane: at most `capacity` slots between one
/// [`IngressProducer`] and the sequencer. All of its state sits behind
/// one mutex; every change is made under it and followed by a notify,
/// and every wait re-checks its condition under it, so no wakeup is
/// lost.
#[derive(Debug)]
struct Lane {
    capacity: usize,
    state: Mutex<LaneState>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(LaneState {
                slots: VecDeque::with_capacity(capacity),
                closed: false,
                consumer_gone: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().expect(POISONED)
    }

    /// Producer side — the one enqueue: appends `batch` in order,
    /// blocking while the lane is at capacity. Fails fast with
    /// [`SendError::Disconnected`] when the sequencer is gone — even
    /// with room, the slots could never be consumed — and with
    /// [`SendError::Timeout`] once the lane has stayed full past
    /// `deadline` (`None` waits forever). Room is taken without looking
    /// at the clock, so a timed-out batch of one enqueued nothing.
    fn enqueue(&self, mut batch: &[Slot], deadline: Option<Instant>) -> Result<(), SendError> {
        let mut state = self.lock();
        loop {
            if state.consumer_gone {
                return Err(SendError::Disconnected);
            }
            let room = (self.capacity - state.slots.len()).min(batch.len());
            if room > 0 {
                state.slots.extend(&batch[..room]);
                batch = &batch[room..];
                self.not_empty.notify_one();
            }
            if batch.is_empty() {
                return Ok(());
            }
            state = match deadline {
                None => self.not_full.wait(state).expect(POISONED),
                Some(deadline) => {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "converts the caller's backpressure deadline into a wait timeout on the producer thread; never observed by replay"
                    )]
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(SendError::Timeout);
                    }
                    self.not_full.wait_timeout(state, left).expect(POISONED).0
                }
            };
        }
    }

    /// Consumer side — the one dequeue: blocks while the lane is empty
    /// and open, then takes the longest run of events that share the
    /// first slot's epoch and continue its seq without a gap, appended
    /// to `run` — and with it the epoch-end marker, if
    /// that is the slot continuing the run, so draining a queued epoch
    /// wakes its producer once, not twice. A reconnect's discontinuity
    /// therefore starts a new take with its own stamps, and slots behind
    /// a marker wait for the global tick. `None` once the lane is closed
    /// and drained.
    fn dequeue(&self, run: &mut Vec<ServiceEvent>) -> Option<Run> {
        let mut state = self.lock();
        let first = loop {
            if let Some(&first) = state.slots.front() {
                break first;
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect(POISONED);
        };
        let is_marker = |slot: &Slot| matches!(slot.event, ServiceEvent::PeriodTick);
        // Wrapping: a reconnect may stamp anything, and judging stamps
        // is the sequencer's job; this only has to not overflow.
        let continues = |slot: &Slot, at: usize| {
            slot.epoch == first.epoch && slot.seq == first.seq.wrapping_add(at as u64)
        };
        let slots = state.slots.iter().enumerate();
        let len = slots
            .take_while(|&(at, slot)| !is_marker(slot) && continues(slot, at))
            .count();
        run.extend(state.slots.drain(..len).map(|slot| slot.event));
        let next = state.slots.front();
        let marker = next.is_some_and(|slot| is_marker(slot) && continues(slot, len));
        if marker {
            state.slots.pop_front();
        }
        drop(state);
        self.not_full.notify_one();
        Some(Run {
            epoch: first.epoch,
            seq: first.seq,
            marker,
        })
    }

    /// The producer is done: wakes a sequencer blocked on the empty lane.
    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_one();
    }

    /// The sequencer is gone: wakes a producer blocked on backpressure
    /// so it can fail fast.
    fn close_consumer(&self) {
        self.lock().consumer_gone = true;
        self.not_full.notify_one();
    }
}

/// Why a bounded-wait send ([`IngressProducer::try_send`]) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The lane stayed full past the deadline (backpressure). The event
    /// was **not** enqueued and the producer's `seq` did not advance;
    /// retrying the same event later is safe and preserves the stream.
    Timeout,
    /// The sequencer is gone (dropped or its thread died); the lane
    /// will never drain again.
    Disconnected,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SendError::Timeout => "ingest lane full past the send deadline",
            SendError::Disconnected => "ingestion sequencer is gone (dropped or panicked)",
        })
    }
}

impl std::error::Error for SendError {}

/// A client-side admission handle: one of the N concurrent front doors.
///
/// Events sent through a producer are stamped `(producer, epoch, seq)`
/// and merged by the sequencer under the total `(epoch, producer, seq)`
/// order — so *what* the outcome is depends only on what each producer
/// sent, never on how the producer threads interleaved. Dropping the
/// handle closes the lane; the sequencer finishes once every lane is
/// closed and drained.
#[derive(Debug)]
pub struct IngressProducer {
    /// `None` only once [`IngressProducer::abandon`] has taken it, so
    /// the drop that follows closes nothing.
    lane: Option<Arc<Lane>>,
    id: u32,
    /// The stamp the next event sent will carry.
    epoch: u64,
    seq: u64,
    /// Stamped slots on their way into the lane (reused; never longer
    /// than the lane's capacity).
    batch: Vec<Slot>,
}

impl IngressProducer {
    /// This producer's id — its rank in the canonical merge order.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Sends one event, blocking while this producer's queue is full.
    ///
    /// [`ServiceEvent::PeriodTick`] is the epoch barrier, not a direct
    /// market tick: it closes this producer's current epoch (equivalent
    /// to [`IngressProducer::end_epoch`]); the sequencer fires the one
    /// global tick only after **every** producer has closed the epoch.
    ///
    /// # Panics
    /// Panics when the sequencer is gone (dropped or panicked): the
    /// event could never be consumed, and blocking would turn a reducer
    /// panic into a silent hang of the producer thread.
    pub fn send(&mut self, event: ServiceEvent) {
        self.send_iter(std::iter::once(event));
    }

    /// Sends every event an iterator yields, taking the lane's lock
    /// once per batch of up to `queue_capacity` events instead of once
    /// per event. [`ServiceEvent::PeriodTick`]s inside the stream close
    /// epochs exactly like [`IngressProducer::send`]. Semantically
    /// identical to sending every event individually — just cheaper.
    ///
    /// # Panics
    /// Like [`IngressProducer::send`]: panics when the sequencer is
    /// gone.
    pub fn send_iter(&mut self, events: impl IntoIterator<Item = ServiceEvent>) {
        if self.enqueue(events.into_iter(), None).is_err() {
            panic!("ingestion sequencer is gone (dropped or panicked); cannot send");
        }
    }

    /// Closes this producer's current epoch: its contribution to the
    /// next tick's barrier. Subsequent sends belong to the next epoch.
    pub fn end_epoch(&mut self) {
        self.send(ServiceEvent::PeriodTick);
    }

    /// Closes the lane (also happens on drop). Events sent before the
    /// close are still delivered; an epoch left open contributes its
    /// events to the epoch but not a barrier vote, so a tick fires only
    /// if some *other* producer closed that epoch explicitly.
    pub fn close(self) {}

    /// Bounded-wait send: like [`IngressProducer::send`] but waits for
    /// lane space at most `timeout` and reports a dead sequencer as
    /// [`SendError::Disconnected`] instead of panicking. On any error
    /// the producer's counters are untouched (`seq` only advances on a
    /// successful enqueue), so the caller can back off and retry the
    /// same event without corrupting the stream.
    pub fn try_send(&mut self, event: ServiceEvent, timeout: Duration) -> Result<(), SendError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "caller-facing timeout for backpressure; never enters the event stream"
        )]
        let deadline = Instant::now() + timeout;
        self.enqueue(std::iter::once(event), Some(deadline))
    }

    /// The one send path: stamps events into the handle's own batch —
    /// the caller's iterator runs here, never under the lane's lock —
    /// and hands each batch to [`Lane::enqueue`]. The stamp counters
    /// move only past a batch the lane took whole.
    fn enqueue(
        &mut self,
        mut events: impl Iterator<Item = ServiceEvent>,
        deadline: Option<Instant>,
    ) -> Result<(), SendError> {
        let lane = self.lane.as_deref().expect("abandon consumes the handle");
        let (mut epoch, mut seq) = (self.epoch, self.seq);
        loop {
            self.batch.clear();
            let stamped = events.by_ref().take(lane.capacity).map(|event| {
                let slot = Slot { epoch, seq, event };
                (epoch, seq) = match event {
                    ServiceEvent::PeriodTick => (epoch.wrapping_add(1), 0),
                    _ => (epoch, seq.wrapping_add(1)),
                };
                slot
            });
            self.batch.extend(stamped);
            if self.batch.is_empty() {
                return Ok(());
            }
            lane.enqueue(&self.batch, deadline)?;
            (self.epoch, self.seq) = (epoch, seq);
        }
    }

    /// Simulates a producer crash: consumes the handle **without**
    /// closing its lane (unlike drop). The epoch stays open, so the
    /// barrier waits — exactly a wedged client — until a supervisor
    /// [`AbandonedLane::reconnect`]s and finishes (or re-drives) the
    /// epoch. Testkit `FaultPlan` uses this for seeded producer kills.
    pub fn abandon(mut self) -> AbandonedLane {
        AbandonedLane {
            lane: self.lane.take().expect("abandon consumes the handle"),
            id: self.id,
        }
    }
}

/// The lane of an abandoned ("crashed") producer, still open for a
/// reconnect ([`IngressProducer::abandon`]).
#[derive(Debug)]
pub struct AbandonedLane {
    lane: Arc<Lane>,
    id: u32,
}

impl AbandonedLane {
    /// The abandoned producer's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Resumes the lane at explicit coordinates: the supervisor's
    /// reconnect path. `epoch`/`seq` name the **next** event to send —
    /// resuming at the last acked `(epoch, seq + 1)` replays nothing;
    /// resuming earlier re-sends events the service's per-producer
    /// watermark suppresses idempotently (at-least-once delivery).
    /// The coordinates are caller input and the service checks them:
    /// an epoch other than the one being served, or a `seq` that skips
    /// past the lane's next one, stops sequencing with
    /// [`ServiceError::Stamp`] before anything is admitted.
    pub fn reconnect(self, epoch: u64, seq: u64) -> IngressProducer {
        IngressProducer {
            lane: Some(self.lane),
            id: self.id,
            epoch,
            seq,
            batch: Vec::new(),
        }
    }
}

impl Drop for IngressProducer {
    fn drop(&mut self) {
        if let Some(lane) = &self.lane {
            lane.close();
        }
    }
}

/// The sequencer half of the ingestion front-end: merges N producer
/// lanes into the canonical event order and drives a [`ShardedService`].
///
/// Dropping it without (or while) sequencing — including the unwind of
/// a panic inside the reducer — marks every lane's consumer as gone,
/// which wakes blocked producers and makes their next
/// [`IngressProducer::send`] panic with a clear message instead of
/// hanging forever on backpressure no one will ever drain.
#[derive(Debug)]
pub struct IngestService {
    lanes: Vec<Arc<Lane>>,
}

impl Drop for IngestService {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.close_consumer();
        }
    }
}

impl IngestService {
    /// Builds the front-end: the sequencer half plus one
    /// [`IngressProducer`] handle per lane.
    ///
    /// # Panics
    /// Panics if `config.producers` or `config.queue_capacity` is zero.
    pub fn new(config: IngestConfig) -> (Self, Vec<IngressProducer>) {
        assert!(config.producers >= 1, "need at least one producer");
        assert!(config.queue_capacity >= 1, "queues need at least one slot");
        let lanes: Vec<Arc<Lane>> = (0..config.producers)
            .map(|_| Arc::new(Lane::new(config.queue_capacity)))
            .collect();
        let producers = (0u32..)
            .zip(&lanes)
            .map(|(id, lane)| IngressProducer {
                lane: Some(Arc::clone(lane)),
                id,
                epoch: 0,
                seq: 0,
                batch: Vec::new(),
            })
            .collect();
        (Self { lanes }, producers)
    }

    /// Runs the sequencer on the calling thread until every producer
    /// closes: merges the lanes under the total `(epoch, producer, seq)`
    /// order into `service`, firing one global `PeriodTick` per epoch
    /// barrier. Returns the number of epochs (ticks) fired.
    ///
    /// The epoch counter starts at the service's
    /// [`periods_served`](ShardedService::periods_served), so a
    /// *recovered* service resumes sequencing where the journal left
    /// off (producers reconnect at their acked coordinates).
    ///
    /// # Errors
    /// [`ServiceError::Poisoned`] / [`ServiceError::Journal`] from the
    /// reducer stop sequencing immediately (the service is left in its
    /// failed state for journal recovery). So does
    /// [`ServiceError::Stamp`] — the service refused a lane's
    /// coordinates ([`ShardedService::push_stamped`]) — but *before*
    /// the offending run or marker is journaled or admitted: the
    /// service is not poisoned and holds exactly the stream up to the
    /// refusal. Per-event *rejections* are
    /// not errors: the reducer counts them and the stream keeps going —
    /// but for the tick of period `u32::MAX`, refused as
    /// [`EventRejection::PeriodsExhausted`](crate::EventRejection::PeriodsExhausted):
    /// that epoch cannot close, so sequencing stops there with the
    /// rejection, the refused tick journaled and counted.
    pub fn sequence(self, service: &mut ShardedService) -> Result<u64, ServiceError> {
        self.sequence_with(service, |_, _| {})
    }

    /// [`IngestService::sequence`] with a per-tick observer, called
    /// right after each epoch's global tick with the epoch index and
    /// the service (e.g. for O(1) [`ShardedService::outcome_snapshot`]
    /// monitoring, or the per-epoch oracle checks in the test suite).
    pub fn sequence_with(
        self,
        service: &mut ShardedService,
        on_tick: impl FnMut(u64, &ShardedService),
    ) -> Result<u64, ServiceError> {
        let lanes = &self.lanes;
        merge(
            service,
            lanes.len(),
            |p, run| lanes[p].dequeue(run),
            on_tick,
        )
    }
}

/// The sequencer's merge, with no lock, no thread and no buffer of its
/// own: drives `service` from `producers` lanes under the total
/// `(epoch, producer, seq)` order, firing one global `PeriodTick` per
/// epoch barrier and calling `on_tick` right after it. Returns the
/// number of epochs (ticks) fired.
///
/// `next_run(p, run)` hands over lane `p`'s next [`Run`], its events
/// appended to `run` (handed over empty), or `None` once the lane is
/// closed and drained. The merge pulls lanes in canonical order — lane
/// `0` up to its marker, then lane `1`, … — so what it feeds the
/// service is a function of what the lanes hold, and the only thing
/// thread timing can move is where a lane's stream is cut into runs.
/// [`IngestService::sequence_with`] is this over the blocking lanes; a
/// test can hand it in-memory lanes cut any way it likes.
///
/// The epoch counter starts at the service's
/// [`periods_served`](ShardedService::periods_served). The errors are
/// [`IngestService::sequence`]'s.
pub fn merge(
    service: &mut ShardedService,
    producers: usize,
    mut next_run: impl FnMut(usize, &mut Vec<ServiceEvent>) -> Option<Run>,
    mut on_tick: impl FnMut(u64, &ShardedService),
) -> Result<u64, ServiceError> {
    let first_epoch = u64::from(service.periods_served());
    let mut epoch = first_epoch;
    // One run at a time, handed to the service as the lane left it.
    let mut run = Vec::new();
    loop {
        // Did any producer close this epoch with a marker (rather than
        // by closing its lane)? Only markers vote for a tick: a fully
        // closed producer set with trailing unmarked events leaves that
        // churn staged, exactly like serial `push` without a final
        // `PeriodTick`.
        let mut epoch_open = false;
        for (producer, p) in (0u32..).zip(0..producers) {
            while let Some(head) = next_run(p, &mut run) {
                // The service judges the stamps (a reconnect's are
                // caller input) before any event of the run is admitted;
                // only a refusal or a fatal fault comes back — the run
                // counts its own rejections.
                service.push_stamped_run(producer, head.epoch, head.seq, &run)?;
                run.clear();
                if head.marker {
                    epoch_open = true;
                    break;
                }
            }
        }
        if !epoch_open {
            return Ok(epoch - first_epoch);
        }
        service.push_stamped(TICK_PRODUCER, epoch, 0, ServiceEvent::PeriodTick)?;
        on_tick(epoch, service);
        epoch += 1;
    }
}

/// The serial event stream of one ground-truth period: worker arrivals
/// in admission order, then task requests in stream order — exactly the
/// per-period order [`mod@crate::replay`] pushes, borrowed off the period
/// without allocating (`skip` resumes at an offset in O(1)). Splitting
/// it into contiguous producer chunks (`skip`/`take` over
/// [`chunk_bounds`]) reproduces the serial stream under the
/// `(epoch, producer, seq)` merge.
pub fn period_events(period: &PeriodData) -> impl Iterator<Item = ServiceEvent> + '_ {
    let workers = period.workers.iter();
    let tasks = period.tasks.iter();
    workers
        .map(|&worker| ServiceEvent::WorkerArrive { worker })
        .chain(tasks.map(|&task| ServiceEvent::TaskRequest { task }))
}

/// Balanced contiguous chunk boundaries: splits `n` items into `parts`
/// runs whose lengths differ by at most one (`bounds.len() == parts +
/// 1`; chunk `i` is `bounds[i]..bounds[i + 1]`). Assigning chunk `i` to
/// producer `i` makes the canonical `(producer, seq)` merge reproduce
/// the original item order.
pub fn chunk_bounds(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1, "need at least one chunk");
    (0..=parts).map(|i| i * n / parts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServiceConfig, ShardedService, StampError};
    use maps_core::StrategyKind;
    use maps_simulator::{GroundTask, GroundWorker, MatchPolicy};
    use maps_spatial::{CellId, GridSpec, Point, Rect};

    fn service() -> ShardedService {
        ShardedService::new(
            GridSpec::square(Rect::square(10.0), 2),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
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

    #[test]
    fn chunk_bounds_are_balanced_and_cover() {
        assert_eq!(chunk_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(chunk_bounds(2, 4), vec![0, 0, 1, 1, 2]);
        assert_eq!(chunk_bounds(0, 2), vec![0, 0, 0]);
        for n in 0..40usize {
            for parts in 1..9usize {
                let bounds = chunk_bounds(n, parts);
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), n);
                for w in bounds.windows(2) {
                    assert!(w[0] <= w[1]);
                    assert!(w[1] - w[0] <= n.div_ceil(parts));
                }
            }
        }
    }

    /// The tick barrier: no global tick fires until *every* producer
    /// has closed the epoch.
    #[test]
    fn tick_waits_for_every_producer() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 2,
            queue_capacity: 8,
        });
        let p1 = producers.pop().unwrap();
        let mut p0 = producers.pop().unwrap();
        p0.send(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        p0.send(ServiceEvent::PeriodTick);
        p0.close();
        let sequencer = std::thread::spawn(move || {
            let mut svc = service();
            let epochs = ingest.sequence(&mut svc).unwrap();
            (svc.periods_served(), epochs)
        });
        // p1 has not voted: the sequencer must still be blocked on its
        // lane (coarse check — the real ordering proof is the oracle
        // suite; this only exercises the happy unblocking path).
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!sequencer.is_finished(), "tick fired before the barrier");
        let mut p1 = p1;
        p1.send(ServiceEvent::PeriodTick);
        p1.close();
        let (periods, epochs) = sequencer.join().unwrap();
        assert_eq!(periods, 1);
        assert_eq!(epochs, 1);
    }

    /// Unmarked trailing events stay staged — serial `push` semantics
    /// for a stream that ends without a final tick.
    #[test]
    fn close_without_epoch_end_stages_but_does_not_tick() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 4,
        });
        let mut p0 = producers.pop().unwrap();
        p0.send(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        p0.close();
        let mut svc = service();
        let epochs = ingest.sequence(&mut svc).unwrap();
        assert_eq!(epochs, 0);
        assert_eq!(svc.periods_served(), 0);
        assert_eq!(svc.admitted_workers(), 1, "event delivered, churn staged");
        assert_eq!(svc.live_workers(), 0, "no tick: never applied");
    }

    /// Regression: after a session that leaves its epoch open (the
    /// scenario above), a serial `try_push` continues lane 0 one past
    /// the watermark the sequencer left there — stamped `(0, 0, 0)`
    /// again it would be suppressed as a duplicate of the ingested
    /// arrival while returning `Ok(())`.
    #[test]
    fn serial_push_after_an_open_ingest_session_is_admitted() {
        let arrive = |x| ServiceEvent::WorkerArrive { worker: worker(x) };
        let task = ServiceEvent::TaskRequest {
            task: GroundTask {
                origin: Point::new(1.5, 1.0),
                destination: Point::new(3.0, 1.0),
                distance: 1.5,
                valuation: 10.0,
                cell: CellId(0),
            },
        };
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 4,
        });
        let mut p0 = producers.pop().unwrap();
        p0.send(arrive(1.0));
        p0.close();
        let mut mixed = service();
        assert_eq!(ingest.sequence(&mut mixed).unwrap(), 0);
        for event in [arrive(2.0), task, ServiceEvent::PeriodTick] {
            mixed.try_push(event).unwrap();
        }
        assert_eq!(mixed.admitted_workers(), 2);
        assert_eq!(mixed.suppressed_duplicates(), 0);
        assert_eq!(mixed.watermark(0), Some((0, 2)));

        let mut serial = service();
        for event in [arrive(1.0), arrive(2.0), task, ServiceEvent::PeriodTick] {
            serial.try_push(event).unwrap();
        }
        assert_eq!(
            mixed.into_outcome().deterministic_bits(),
            serial.into_outcome().deterministic_bits()
        );
    }

    /// A dead sequencer (dropped, or its thread panicked) must turn a
    /// producer's next send into a visible panic, not an eternal block
    /// on backpressure no one will drain — even when the lane still has
    /// room (the slot could never be consumed either way).
    #[test]
    fn producer_send_panics_when_sequencer_is_gone() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 8,
        });
        let mut p0 = producers.pop().unwrap();
        drop(ingest);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(1.0),
            });
        }));
        assert!(result.is_err(), "send should fail fast, not block");
        // The handle is still droppable afterwards (the lane was not
        // poisoned by the in-lock panic path).
        drop(p0);
    }

    /// A panic in the sequencer thread (here: a strategy that panics on
    /// its first `price_period`) must reach that thread's `join` with
    /// the payload preserved — never a silent abort, a swallowed unwind,
    /// or a hang.
    #[test]
    fn sequencer_panic_reaches_join_with_its_payload() {
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
                panic!("strategy exploded on purpose");
            }
            fn observe(&mut self, _feedback: &[maps_core::Observation]) {}
        }
        let mut svc = ShardedService::with_strategy(
            GridSpec::square(Rect::square(10.0), 2),
            MatchPolicy::Consume,
            Box::new(Bomb),
            ServiceConfig::default(),
        );
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 8,
        });
        let mut p0 = producers.pop().unwrap();
        let sequencer = std::thread::spawn(move || ingest.sequence(&mut svc).map(|n| (svc, n)));
        p0.send(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        p0.send(ServiceEvent::PeriodTick);
        // The tick detonates the strategy; the lane may already be dead
        // by the time we close, so tolerate the fail-fast panic path.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || p0.close()));
        let payload = sequencer
            .join()
            .expect_err("the strategy's panic unwinds the sequencer");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"strategy exploded on purpose")
        );
    }

    /// `try_send` bounds its wait and reports backpressure/disconnects
    /// as typed errors; `seq` advances only on success so a timed-out
    /// send can simply be retried.
    #[test]
    fn try_send_times_out_and_survives_retry() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 2,
        });
        let mut p0 = producers.pop().unwrap();
        let e = ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        };
        let short = Duration::from_millis(5);
        assert_eq!(p0.try_send(e, short), Ok(()));
        assert_eq!(p0.try_send(e, short), Ok(()));
        // Lane full, no sequencer draining: bounded wait, then timeout.
        assert_eq!(p0.try_send(e, short), Err(SendError::Timeout));
        // The timed-out event was not enqueued and seq did not advance:
        // retrying after the sequencer drains keeps the stream gapless.
        let mut svc = service();
        let sequencer = std::thread::spawn(move || ingest.sequence(&mut svc).map(|n| (svc, n)));
        let retry_deadline = Duration::from_secs(30);
        assert_eq!(p0.try_send(e, retry_deadline), Ok(()));
        assert_eq!(
            p0.try_send(ServiceEvent::PeriodTick, retry_deadline),
            Ok(())
        );
        p0.close();
        let (svc, epochs) = sequencer.join().unwrap().unwrap();
        assert_eq!(epochs, 1);
        assert_eq!(svc.admitted_workers(), 3, "exactly the successful sends");
    }

    #[test]
    fn try_send_reports_dead_sequencer_as_disconnected() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 8,
        });
        let mut p0 = producers.pop().unwrap();
        drop(ingest);
        assert_eq!(
            p0.try_send(
                ServiceEvent::WorkerArrive {
                    worker: worker(1.0)
                },
                Duration::from_millis(5)
            ),
            Err(SendError::Disconnected)
        );
    }

    /// A producer "crash" (abandon: lane left open, no barrier vote)
    /// holds the epoch barrier until a supervisor reconnects; an
    /// at-least-once resend across the reconnect is suppressed by the
    /// service's watermark, leaving the outcome identical to the
    /// uninterrupted stream.
    #[test]
    fn abandoned_producer_reconnects_idempotently() {
        let run = |resend: bool| {
            let (ingest, mut producers) = IngestService::new(IngestConfig {
                producers: 2,
                queue_capacity: 16,
            });
            let mut p1 = producers.pop().unwrap();
            let mut p0 = producers.pop().unwrap();
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(1.0),
            });
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(2.0),
            });
            // p0 "crashes" mid-epoch after two sends (last acked seq 1).
            let lane = p0.abandon();
            p1.send(ServiceEvent::WorkerArrive {
                worker: worker(8.0),
            });
            p1.send(ServiceEvent::PeriodTick);
            p1.close();
            let sequencer = std::thread::spawn(move || {
                let mut svc = service();
                ingest.sequence(&mut svc).map(|e| (svc, e))
            });
            // The barrier must hold: p0's epoch is still open.
            std::thread::sleep(Duration::from_millis(20));
            assert!(!sequencer.is_finished(), "tick fired past a dead producer");
            // Supervisor reconnects; optionally re-sends the acked
            // event (at-least-once) before finishing the epoch.
            let mut p0 = lane.reconnect(0, if resend { 1 } else { 2 });
            if resend {
                p0.send(ServiceEvent::WorkerArrive {
                    worker: worker(2.0),
                });
            }
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(3.0),
            });
            p0.send(ServiceEvent::PeriodTick);
            p0.close();
            let (svc, epochs) = sequencer.join().unwrap().unwrap();
            assert_eq!(epochs, 1);
            svc.into_outcome()
        };
        let (clean, resent) = (run(false), run(true));
        assert_eq!(clean.suppressed_duplicates, 0);
        assert_eq!(resent.suppressed_duplicates, 1, "the resend was suppressed");
        // The duplicate-suppression counter itself participates in the
        // bits, so compare the rest: zero its word, found by its label.
        let labels = clean.deterministic_labels();
        let idx = labels.iter().position(|l| l == "suppressed_duplicates");
        let idx = idx.expect("the counter has a word");
        let (mut clean, mut resent) = (clean.deterministic_bits(), resent.deterministic_bits());
        assert_eq!((clean[idx], resent[idx]), (0, 1));
        clean[idx] = 0;
        resent[idx] = 0;
        assert_eq!(clean, resent, "resend perturbed the outcome");
    }

    // ---- the lane in isolation: a handle on one side, `dequeue` on the other

    fn arrive(x: f64) -> ServiceEvent {
        ServiceEvent::WorkerArrive { worker: worker(x) }
    }

    /// The x-coordinate a test event was built with (events carry no
    /// `PartialEq`; the coordinate is the identity).
    fn x_of(event: &ServiceEvent) -> f64 {
        match event {
            ServiceEvent::WorkerArrive { worker } => worker.location.x,
            other => panic!("unexpected event {other:?}"),
        }
    }

    fn one_lane(queue_capacity: usize) -> (IngestService, IngressProducer) {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity,
        });
        (ingest, producers.pop().unwrap())
    }

    /// One `dequeue`: `(epoch, seq)` of its head, the run's xs, and
    /// whether it ended with the epoch's marker.
    fn pop(ingest: &IngestService) -> Option<(u64, u64, Vec<f64>, bool)> {
        let mut run = Vec::new();
        let head = ingest.lanes[0].dequeue(&mut run)?;
        let xs = run.iter().map(x_of).collect();
        Some((head.epoch, head.seq, xs, head.marker))
    }

    /// Everything queued right now, one `dequeue` at a time (an empty
    /// open lane would block, so look first).
    fn drain_runs(ingest: &IngestService) -> Vec<(u64, u64, Vec<f64>, bool)> {
        let mut runs = Vec::new();
        while !ingest.lanes[0].lock().slots.is_empty() {
            runs.extend(pop(ingest));
        }
        runs
    }

    const QUICK: Duration = Duration::from_millis(2);

    /// A stream many times the capacity crosses the lane without
    /// reordering, losing or restamping anything, whatever mix of run
    /// lengths the drains see.
    #[test]
    fn lane_preserves_order_and_stamps_over_many_capacities() {
        let (ingest, mut p0) = one_lane(4);
        let mut sent = Vec::new();
        let mut got = Vec::new();
        for round in 0..40u32 {
            for _ in 0..=(round % 4) {
                let x = sent.len() as f64;
                p0.send(arrive(x));
                sent.push(x);
            }
            for (epoch, first_seq, xs, marker) in drain_runs(&ingest) {
                assert_eq!((epoch, marker), (0, false));
                assert_eq!(first_seq, got.len() as u64, "seq is the stream position");
                got.extend(xs);
            }
        }
        assert_eq!(got, sent);
        assert!(sent.len() > 20 * ingest.lanes[0].capacity);
    }

    /// The bound is the configured slot count exactly (markers occupy a
    /// slot too), a timed-out send enqueues nothing and leaves `seq`
    /// alone, and one drain reopens exactly the slots it took.
    #[test]
    fn capacity_bound_is_exact_and_a_drain_reopens_what_it_took() {
        for capacity in [1usize, 2, 3] {
            let (ingest, mut p0) = one_lane(capacity);
            for i in 0..capacity {
                assert_eq!(p0.try_send(arrive(i as f64), QUICK), Ok(()));
            }
            assert_eq!(
                p0.try_send(arrive(99.0), QUICK),
                Err(SendError::Timeout),
                "capacity {capacity}: bound not enforced"
            );
            assert_eq!((p0.epoch, p0.seq), (0, capacity as u64));
            let (_, _, xs, _) = pop(&ingest).unwrap();
            assert_eq!(xs.len(), capacity, "one drain takes the whole run");
            // A marker, then events up to the bound again.
            assert_eq!(p0.try_send(ServiceEvent::PeriodTick, QUICK), Ok(()));
            for i in 1..capacity {
                assert_eq!(p0.try_send(arrive(i as f64), QUICK), Ok(()));
            }
            assert_eq!(p0.try_send(arrive(99.0), QUICK), Err(SendError::Timeout));
            // The marker closes a run already taken, so it leaves alone:
            // exactly one slot reopens.
            assert_eq!(pop(&ingest), Some((0, capacity as u64, vec![], true)));
            assert_eq!(p0.try_send(arrive(7.0), QUICK), Ok(()));
            assert_eq!(p0.try_send(arrive(99.0), QUICK), Err(SendError::Timeout));
            assert_eq!(ingest.lanes[0].lock().slots.len(), capacity);
        }
    }

    /// One `send_iter` batch that fits the lane arrives as one run, not
    /// one per event.
    #[test]
    fn one_batch_arrives_as_one_run() {
        let (ingest, mut p0) = one_lane(16);
        p0.send_iter((0..5).map(|i| arrive(f64::from(i))));
        assert_eq!(
            drain_runs(&ingest),
            vec![(0, 0, vec![0.0, 1.0, 2.0, 3.0, 4.0], false)]
        );
    }

    /// A marker leaves with the run it closes — or alone, when that run
    /// is already gone — never with what follows it, and the next event
    /// reads `(epoch + 1, 0)`; at capacity 1 too, where every send meets
    /// a drain.
    #[test]
    fn marker_closes_its_run_and_the_next_event_opens_the_epoch() {
        let (ingest, mut p0) = one_lane(1);
        p0.send(arrive(1.0));
        assert_eq!(pop(&ingest), Some((0, 0, vec![1.0], false)));
        p0.end_epoch();
        assert_eq!(pop(&ingest), Some((0, 1, vec![], true)));
        p0.send(arrive(3.0));
        assert_eq!(pop(&ingest), Some((1, 0, vec![3.0], false)));

        let (ingest, mut p0) = one_lane(8);
        p0.send_iter([arrive(1.0), ServiceEvent::PeriodTick, arrive(2.0)]);
        p0.end_epoch();
        p0.end_epoch();
        assert_eq!(
            drain_runs(&ingest),
            vec![
                (0, 0, vec![1.0], true),
                (1, 0, vec![2.0], true),
                (2, 0, vec![], true)
            ]
        );
    }

    /// A reconnect's stamps are just the next slot's: the run splits at
    /// the discontinuity and the second half carries the new coordinates.
    #[test]
    fn reconnect_stamps_split_the_run_at_the_discontinuity() {
        let (ingest, mut p0) = one_lane(8);
        p0.send(arrive(1.0));
        let mut p0 = p0.abandon().reconnect(4, 7);
        p0.send(arrive(2.0));
        p0.send(arrive(3.0));
        assert_eq!(
            drain_runs(&ingest),
            vec![(0, 0, vec![1.0], false), (4, 7, vec![2.0, 3.0], false)]
        );
        // A marker that does not continue the run is not taken with it.
        p0.send(arrive(4.0));
        let mut p0 = p0.abandon().reconnect(4, 12);
        p0.end_epoch();
        assert_eq!(
            drain_runs(&ingest),
            vec![(4, 9, vec![4.0], false), (4, 12, vec![], true)]
        );
    }

    /// Closing with queued events hands them over first; then, and on
    /// an empty lane at once, `dequeue` reports closed.
    #[test]
    fn close_drains_then_reports_closed() {
        let (ingest, mut p0) = one_lane(4);
        p0.send(arrive(5.0));
        p0.close();
        assert_eq!(pop(&ingest), Some((0, 0, vec![5.0], false)));
        assert_eq!(pop(&ingest), None);
        assert_eq!(pop(&ingest), None);
    }

    // ---- a reconnect's coordinates are caller input --------------------

    fn journaled(tag: &str) -> (ShardedService, crate::journal::JournalConfig) {
        let cfg = crate::journal::JournalConfig::new(crate::test_dir(tag), 1);
        let mut svc = service();
        svc.attach_journal(&cfg).unwrap();
        (svc, cfg)
    }

    /// Sequences `ingest` into a journaled service, expects the typed
    /// refusal, and checks that the directory recovers to exactly the
    /// `accepted` arrivals — nothing of the refused run was journaled.
    fn assert_refused(tag: &str, ingest: IngestService, accepted: &[f64]) -> StampError {
        let (mut svc, cfg) = journaled(tag);
        let err = ingest.sequence(&mut svc).expect_err("mis-stamped lane");
        let ServiceError::Stamp(stamp) = err else {
            panic!("wrong error: {err}");
        };
        assert!(svc.poisoned_by().is_none(), "a refusal poisons nothing");
        assert_eq!(svc.admitted_workers(), accepted.len());
        assert_eq!(svc.periods_served(), 0);
        let last_seq = accepted.len().checked_sub(1).map(|seq| (0, seq as u64));
        assert_eq!(svc.watermark(0), last_seq);
        drop(svc);

        let recovered = crate::recovery::recover(
            GridSpec::square(Rect::square(10.0), 2),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
            ServiceConfig::default(),
            &cfg,
        )
        .expect("the directory holds the stream up to the refusal");
        assert_eq!(recovered.service.watermark(0), last_seq);
        let mut serial = service();
        for &x in accepted {
            serial.try_push(arrive(x)).unwrap();
        }
        assert_eq!(
            recovered.service.into_outcome().deterministic_bits(),
            serial.into_outcome().deterministic_bits()
        );
        stamp
    }

    /// Regression: `reconnect(5, 0)` while the service serves epoch 0
    /// used to be admitted in release builds — records stamped epoch 5
    /// and 6 fsynced, `Ok(2)`, a directory `recover` refuses — and to
    /// trip a `debug_assert` in debug builds.
    #[test]
    fn reconnect_into_a_future_epoch_is_refused_before_it_is_journaled() {
        let (ingest, mut p0) = one_lane(16);
        p0.send(arrive(1.0));
        let mut p0 = p0.abandon().reconnect(5, 0);
        p0.send(arrive(2.0));
        p0.end_epoch();
        p0.send(arrive(3.0));
        p0.end_epoch();
        p0.close();
        let stamp = assert_refused("stamp_epoch", ingest, &[1.0]);
        let expected = StampError {
            producer: 0,
            epoch: 5,
            seq: 0,
            serving_epoch: 0,
            next_seq: 1,
        };
        assert_eq!(stamp, expected);
    }

    /// Regression: `reconnect(0, 7)` after two sends skips seqs 2–6; the
    /// events behind the gap would have been admitted above a watermark
    /// that later suppresses the real 2–6 as duplicates.
    #[test]
    fn reconnect_past_a_seq_gap_is_refused_before_it_is_journaled() {
        let (ingest, mut p0) = one_lane(16);
        p0.send(arrive(1.0));
        p0.send(arrive(2.0));
        let mut p0 = p0.abandon().reconnect(0, 7);
        p0.send(arrive(3.0));
        p0.end_epoch();
        p0.close();
        let stamp = assert_refused("stamp_gap", ingest, &[1.0, 2.0]);
        let expected = StampError {
            producer: 0,
            epoch: 0,
            seq: 7,
            serving_epoch: 0,
            next_seq: 2,
        };
        assert_eq!(stamp, expected);
    }

    /// Stamps at the end of the coordinate space wrap on the producer's
    /// side instead of overflowing, and are refused like any other.
    #[test]
    fn reconnect_at_the_largest_coordinates_is_refused_not_a_panic() {
        let (ingest, p0) = one_lane(8);
        let mut p0 = p0.abandon().reconnect(u64::MAX, u64::MAX);
        p0.send_iter([
            arrive(1.0),
            arrive(2.0),
            ServiceEvent::PeriodTick,
            arrive(3.0),
        ]);
        p0.close();
        let err = ingest.sequence(&mut service()).expect_err("mis-stamped");
        assert!(matches!(err, ServiceError::Stamp(s) if s.epoch == u64::MAX));
    }

    /// A lane's seqs in an epoch stop below `u64::MAX`: a run may end at
    /// `u64::MAX - 1`, and one that would take `u64::MAX` is refused
    /// before it is journaled. The merge used to overflow at the run's
    /// end (a panic in debug), and in release the run's seqs wrapped to
    /// 0, where the watermark took them for duplicates. The lane gets
    /// near the end without a gap, from a restored watermark.
    #[test]
    fn a_run_past_the_last_seq_is_refused() {
        for (sent, admitted) in [(1, 2), (2, 1)] {
            let mut svc = service();
            crate::engine::tests::restore_lane_at(&mut svc, 0, u64::MAX - 3);
            svc.push_stamped(0, 0, u64::MAX - 2, arrive(1.0)).unwrap();
            let (ingest, p0) = one_lane(8);
            let mut p0 = p0.abandon().reconnect(0, u64::MAX - 1);
            p0.send_iter([arrive(2.0), arrive(3.0)].into_iter().take(sent));
            p0.close();
            let sequenced = ingest.sequence(&mut svc);
            assert_eq!(svc.admitted_workers(), admitted, "{sent} sent");
            assert!(svc.poisoned_by().is_none());
            if sent == 1 {
                assert_eq!(sequenced.unwrap(), 0, "no epoch closed");
                assert_eq!(svc.watermark(0), Some((0, u64::MAX - 1)));
                let serial = svc.try_push(arrive(4.0));
                assert!(matches!(serial, Err(ServiceError::Stamp(s)) if s.seq == u64::MAX));
            } else {
                let refused = |s: &StampError| (s.seq, s.next_seq) == (u64::MAX - 1, u64::MAX - 1);
                assert!(matches!(sequenced, Err(ServiceError::Stamp(s)) if refused(&s)));
            }
        }
    }

    /// A marker is held to the same rule: closing an epoch at a seq the
    /// lane never reached is a gap too.
    #[test]
    fn marker_past_a_seq_gap_is_refused() {
        let (ingest, mut p0) = one_lane(4);
        p0.send(arrive(1.0));
        let mut p0 = p0.abandon().reconnect(0, 3);
        p0.end_epoch();
        p0.close();
        let mut svc = service();
        let err = ingest.sequence(&mut svc).expect_err("marker behind a gap");
        assert!(matches!(err, ServiceError::Stamp(s) if (s.seq, s.next_seq) == (3, 1)));
        assert_eq!(svc.periods_served(), 0, "no tick fired");
    }

    /// A capacity-1 queue forces maximal backpressure; the stream must
    /// still complete and agree with serial push.
    #[test]
    fn capacity_one_round_trips_through_a_sequencer_thread() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let mut p0 = producers.pop().unwrap();
        let mut svc = service();
        let sequencer = std::thread::spawn(move || ingest.sequence(&mut svc).map(|n| (svc, n)));
        for i in 0..20 {
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + (i % 8) as f64),
            });
            p0.send(ServiceEvent::PeriodTick);
        }
        p0.close();
        let (svc, epochs) = sequencer.join().unwrap().unwrap();
        assert_eq!(epochs, 20);
        assert_eq!(svc.periods_served(), 20);
        assert_eq!(svc.admitted_workers(), 20);
    }
}
