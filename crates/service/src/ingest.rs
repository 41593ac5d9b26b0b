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
//!   ┌────────────┐  bounded lock-free SPSC ring
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
//! queue (a lock-free single-producer/single-consumer ring — see
//! `Queue` — so producers never contend with each other, only with
//! backpressure from their own lane). Ring slots carry **bare events,
//! no stamps**: the `(epoch, seq)` coordinates of every slot are
//! implicit in its position, mirrored by producer-side and
//! consumer-side counters that advance in lock-step (an at-least-once
//! reconnect, the one legal discontinuity, posts an out-of-band
//! `Rebase` record). A producer's [`ServiceEvent::PeriodTick`] does
//! *not* tick the market: it closes the producer's current **epoch**
//! (it *is* the in-band epoch-end marker).
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
//! [`Simulation::run`](maps_simulator::Simulation::run). Enforced by
//! the `ingest_oracle` test sweep (producers × shards × strategies ×
//! forced interleavings × queue capacities), the root proptest
//! `ingested_stream_matches_serial_push` (random producer partitions,
//! schedule perturbation, per-epoch outcome checks); `maps_benchmark`'s
//! `fanin` workload prices the front-end against serial push
//! (`ingest.vs_serial`).
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
// All synchronization primitives come through the `crate::sync` facade
// (enforced by the `sync-facade` maps-lint rule): std re-exports in
// normal builds, maps-model tracked types under the `maps_model`
// feature, so the shipping ring code below is exactly what the model
// checker explores.
use crate::sync::{
    fence, spin_limit, thread_yield, yield_limit, AtomicBool, AtomicU64, Cell, Condvar, Instant,
    Mutex, MutexGuard, Ordering, SlotTracker,
};
use maps_simulator::PeriodData;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the ingestion front-end.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Number of producer handles (≥ 1). Any value yields bit-identical
    /// outcomes; it only controls how admission is parallelized.
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

/// An out-of-band coordinate record: the slot at ring position `pos`
/// (and everything after it, until the next record) carries explicit
/// `(epoch, seq)` coordinates instead of the consumer's implicit
/// count. Posted only by [`AbandonedLane::reconnect`] — an
/// at-least-once reconnect may rewind `seq` or jump `epoch`, the one
/// discontinuity the lock-step stamping arithmetic cannot see in-band.
#[derive(Debug, Clone, Copy)]
struct Rebase {
    pos: u64,
    epoch: u64,
    seq: u64,
}

/// What one bounded drain of a lane yielded.
enum Chunk {
    /// Drained up to (and consumed) the epoch-`e` end marker.
    Marker(u64),
    /// Drained some events; the epoch is still open.
    Progress,
    /// The producer closed its handle; the lane is empty forever.
    Closed,
}

/// Pads and aligns a value to 128 bytes (two x86 cache lines — adjacent
/// line prefetchers pull pairs) so the producer-owned and consumer-owned
/// ring cursors never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// The consumer's private cursor state (one padded group, touched by no
/// other thread): its snapshot of `tail` plus the implicit stamp
/// counters that mirror the producer's — `epoch` advances at each
/// consumed epoch-end marker, `next_seq` at each event, and a
/// [`Rebase`] record overwrites both at a reconnect discontinuity.
#[derive(Debug, Default)]
struct ReaderState {
    tail_cache: Cell<u64>,
    epoch: Cell<u64>,
    next_seq: Cell<u64>,
}

/// One producer's bounded lane: a **lock-free SPSC ring**.
///
/// Layout: a power-of-two slot buffer indexed by monotonically
/// increasing `head`/`tail` cursors (`pos & mask` is the physical
/// index). The logical capacity is *not* rounded up — `tail - head <
/// capacity` is the backpressure bound, exactly the configured slot
/// count.
///
/// Ordering protocol (the per-lane FIFO the sequencing contract needs):
///
/// * The producer writes slots, then publishes them with **one
///   `Release` store of `tail`** per batch; the consumer's `Acquire`
///   load of `tail` therefore observes fully-written slots — for the
///   whole batch, at the cost of a single fence.
/// * The consumer reads slots, then frees them with **one `Release`
///   store of `head`** per drain; the producer's `Acquire` load of
///   `head` proves the reads finished before it overwrites.
/// * Each side caches the other's cursor (`head_cache` /
///   `reader.tail_cache`, plain [`Cell`]s private to their side) so the
///   fast path touches no shared cache line at all until the cached
///   view runs out.
/// * Slots are **bare [`ServiceEvent`]s** — no per-slot stamps. Both
///   sides count `(epoch, seq)` in lock-step ([`ServiceEvent::PeriodTick`]
///   slots are the epoch-end markers), so the consumer can hand whole
///   runs to admission **zero-copy, straight out of ring memory**.
///   Reconnect discontinuities travel as out-of-band [`Rebase`] records;
///   a record is posted (under its own mutex) *before* the slot it
///   describes is written, so the release store of `tail` that publishes
///   the slot also publishes the record's visibility counter.
///
/// Blocking is a spin → yield → park slow path. Parking uses a shared
/// `park` mutex + per-side condvars and `*_parked` flags: a waiter sets
/// its flag and re-checks state *while holding the mutex* before
/// waiting; a waker publishes state, then `SeqCst`-fences and checks
/// the flag — if set, it locks the (same) mutex before notifying. The
/// fence pairing guarantees the waker either sees the flag or the
/// waiter's re-check sees the new state; the lock-before-notify closes
/// the window between the waiter's re-check and its wait. Shutdown
/// paths (`close`, `close_consumer`) notify unconditionally.
struct Queue {
    /// Logical slot capacity — the backpressure bound.
    capacity: u64,
    /// `buf.len() - 1`; `buf.len()` is `capacity.next_power_of_two()`.
    mask: u64,
    buf: Box<[UnsafeCell<MaybeUninit<ServiceEvent>>]>,
    /// Producer cursor: next position to write (monotonic).
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor: next position to read (monotonic).
    head: CachePadded<AtomicU64>,
    /// Producer-private lower bound of `head`.
    head_cache: CachePadded<Cell<u64>>,
    /// Consumer-private cursors (tail snapshot + implicit stamps).
    reader: CachePadded<ReaderState>,
    /// Reconnect coordinate records, keyed by ring position (posted in
    /// position order by the producer, drained in order by the
    /// consumer).
    rebases: Mutex<std::collections::VecDeque<Rebase>>,
    /// Number of not-yet-consumed [`Rebase`] records: the consumer's
    /// hot path checks this counter and skips the mutex while it is 0.
    rebase_pending: AtomicU64,
    /// The producer closed its handle: no more slots will arrive.
    closed: AtomicBool,
    /// The sequencer is gone (dropped, or its thread panicked): slots
    /// will never drain again, so producers must fail fast instead of
    /// blocking forever on a full ring.
    consumer_gone: AtomicBool,
    park: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    producer_parked: AtomicBool,
    consumer_parked: AtomicBool,
    /// Race-tracking for the raw slot buffer under the model checker
    /// (`maps_model` feature); a zero-sized no-op in shipping builds.
    /// The slots themselves must stay bare `UnsafeCell<MaybeUninit<_>>`
    /// for the zero-copy `from_raw_parts` borrow in
    /// [`Queue::pop_epoch_run`], so the model cannot wrap them — the
    /// producer records each slot write and the consumer each slot
    /// claim, and the model race-checks those records instead.
    slots: SlotTracker,
}

// SAFETY: the `UnsafeCell` slots are transferred between the two sides
// by the release/acquire cursor protocol above, the `rebases` deque is
// mutex-protected, and the `Cell` state is role-private —
// `head_cache`/`tail` are touched only by producer-side methods,
// reachable only through the single `IngressProducer` handle
// (`&mut self`/owned, so one thread at a time; cross-thread handoffs of
// the handle synchronize like any `Send` move), and `reader`/`head`
// only by consumer-side methods, reachable only through the owning
// `IngestService` sequencer.
unsafe impl Send for Queue {}
// SAFETY: shared references expose only the atomics, the mutexes, and
// the role-private `Cell`s; the `Send` justification above covers why
// each `Cell` is reached from at most one thread at a time.
unsafe impl Sync for Queue {}

/// A racy diagnostic snapshot of the ring's cursors and lifecycle
/// flags, taken by [`Queue::debug_snapshot`] for `Debug` formatting.
/// The four loads are independent and can each be stale — `head` may
/// even appear ahead of `tail` if the cursors move mid-snapshot — so
/// the values must only ever feed diagnostics, never control flow.
struct QueueSnapshot {
    head: u64,
    tail: u64,
    closed: bool,
    consumer_gone: bool,
}

impl Queue {
    /// See [`QueueSnapshot`]: the one place the ring reads its shared
    /// state without synchronization, quarantined so every other load
    /// in this file participates in the ordering protocol.
    fn debug_snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            head: self.head.0.load(Ordering::Relaxed), // ordering: racy Debug-only snapshot
            tail: self.tail.0.load(Ordering::Relaxed), // ordering: racy Debug-only snapshot
            closed: self.closed.load(Ordering::Relaxed), // ordering: racy Debug-only snapshot
            consumer_gone: self.consumer_gone.load(Ordering::Relaxed), // ordering: see QueueSnapshot
        }
    }
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.debug_snapshot();
        f.debug_struct("Queue")
            .field("capacity", &self.capacity)
            .field("head", &snap.head)
            .field("tail", &snap.tail)
            .field("closed", &snap.closed)
            .field("consumer_gone", &snap.consumer_gone)
            .finish_non_exhaustive()
    }
}

impl Queue {
    fn new(capacity: usize) -> Self {
        let physical = capacity.next_power_of_two();
        Self {
            capacity: capacity as u64,
            mask: physical as u64 - 1,
            buf: (0..physical)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            head_cache: CachePadded(Cell::new(0)),
            reader: CachePadded(ReaderState::default()),
            rebases: Mutex::new(std::collections::VecDeque::new()),
            rebase_pending: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            park: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            producer_parked: AtomicBool::new(false),
            consumer_parked: AtomicBool::new(false),
            slots: SlotTracker::new(physical),
        }
    }

    /// Raw pointer to the slot at ring position `pos`.
    #[inline]
    fn slot_ptr(&self, pos: u64) -> *mut ServiceEvent {
        // SAFETY: callers hold the position per the cursor protocol.
        unsafe { (*self.buf[(pos & self.mask) as usize].get()).as_mut_ptr() }
    }

    fn park_lock(&self) -> MutexGuard<'_, ()> {
        // Never poisoned: no user code runs under this lock.
        self.park.lock().expect("ingest park mutex poisoned")
    }

    /// Wakes the consumer if it is parked on an empty ring. Callers
    /// publish `tail` (or `closed`) first; see the type-level ordering
    /// notes for why fence + flag + lock-before-notify cannot miss.
    fn wake_consumer(&self) {
        // ordering: the SeqCst fence orders our tail/closed publish
        // before the flag read below, pairing with the consumer's
        // flag-store → fence → cursor-re-check sequence — one side
        // always sees the other, so a parked consumer cannot be missed.
        fence(Ordering::SeqCst);
        // ordering: the fence above provides the ordering; the load
        // itself needs none.
        if self.consumer_parked.load(Ordering::Relaxed) {
            drop(self.park_lock());
            self.not_empty.notify_all();
        }
    }

    /// Wakes the producer if it is parked on a full ring. Callers
    /// publish `head` (or `consumer_gone`) first.
    fn wake_producer(&self) {
        // ordering: as in `wake_consumer` — fence pairs with the
        // producer's flag-store → fence → cursor-re-check before parking.
        fence(Ordering::SeqCst);
        // ordering: the fence above provides the ordering; the load
        // itself needs none.
        if self.producer_parked.load(Ordering::Relaxed) {
            drop(self.park_lock());
            self.not_full.notify_all();
        }
    }

    /// Producer side: waits until at least one slot is writable at
    /// `tail`, returning how many are. Fails fast with
    /// [`SendError::Disconnected`] when the sequencer is gone — even
    /// with ring room, the slot could never be consumed — and with
    /// [`SendError::Timeout`] past `deadline` (`None` waits forever).
    #[inline]
    fn wait_space(&self, tail: u64, deadline: Option<Instant>) -> Result<u64, SendError> {
        // ordering: monotonic one-way flag, checked again with SeqCst
        // on the slow path before parking; a stale read here only costs
        // one extra loop iteration.
        if self.consumer_gone.load(Ordering::Relaxed) {
            return Err(SendError::Disconnected);
        }
        let cached = self.head_cache.0.get();
        if tail - cached < self.capacity {
            return Ok(self.capacity - (tail - cached));
        }
        let head = self.head.0.load(Ordering::Acquire);
        self.head_cache.0.set(head);
        if tail - head < self.capacity {
            return Ok(self.capacity - (tail - head));
        }
        self.wait_space_slow(tail, deadline)
    }

    #[cold]
    fn wait_space_slow(&self, tail: u64, deadline: Option<Instant>) -> Result<u64, SendError> {
        let mut tries = 0u32;
        loop {
            if self.consumer_gone.load(Ordering::SeqCst) {
                return Err(SendError::Disconnected);
            }
            let head = self.head.0.load(Ordering::Acquire);
            if tail - head < self.capacity {
                self.head_cache.0.set(head);
                return Ok(self.capacity - (tail - head));
            }
            if let Some(d) = deadline {
                // lint-allow(det-wallclock): backpressure timeout on the producer thread, outside the deterministic pipeline
                if Instant::now() >= d {
                    return Err(SendError::Timeout);
                }
            }
            tries += 1;
            let spins = spin_limit();
            if tries <= spins {
                std::hint::spin_loop();
            } else if tries <= spins + yield_limit() {
                thread_yield();
            } else {
                let guard = self.park_lock();
                self.producer_parked.store(true, Ordering::SeqCst);
                // ordering: fence pairs with the waker's fence — either
                // this re-check sees the new head/flag, or the waker
                // sees our parked flag and takes the lock to notify.
                fence(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::SeqCst);
                if tail - head < self.capacity || self.consumer_gone.load(Ordering::SeqCst) {
                    self.producer_parked.store(false, Ordering::SeqCst);
                    continue; // drop the guard; re-check at the top
                }
                match deadline {
                    None => {
                        let _guard = self
                            .not_full
                            .wait(guard)
                            .expect("ingest park mutex poisoned");
                    }
                    Some(d) => {
                        // lint-allow(det-wallclock): converts the caller deadline into a park timeout; never observed by replay
                        let now = Instant::now();
                        let Some(remaining) =
                            d.checked_duration_since(now).filter(|r| !r.is_zero())
                        else {
                            self.producer_parked.store(false, Ordering::SeqCst);
                            return Err(SendError::Timeout);
                        };
                        let _guard = self
                            .not_full
                            .wait_timeout(guard, remaining)
                            .expect("ingest park mutex poisoned")
                            .0;
                    }
                }
                self.producer_parked.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Appends one event, blocking while the ring is at capacity, then
    /// publishes it with a release store of `tail`.
    ///
    /// # Panics
    /// Panics when the sequencer is gone: the slot could never be
    /// consumed, and blocking would hang the producer thread forever —
    /// turning a reducer panic into a silent process hang instead of a
    /// visible failure.
    fn push(&self, event: ServiceEvent) {
        if self.push_deadline_opt(event, None).is_err() {
            panic!("ingestion sequencer is gone (dropped or panicked); cannot send");
        }
    }

    /// Bounded-wait variant of [`Queue::push`]: waits for ring space at
    /// most until `deadline`, and reports a dead sequencer as a typed
    /// error instead of panicking — the building block supervision
    /// loops need for retry/backoff admission.
    fn push_deadline(&self, event: ServiceEvent, deadline: Instant) -> Result<(), SendError> {
        self.push_deadline_opt(event, Some(deadline))
    }

    fn push_deadline_opt(
        &self,
        event: ServiceEvent,
        deadline: Option<Instant>,
    ) -> Result<(), SendError> {
        // ordering: `tail` is producer-owned — this thread is its only
        // writer, so the load cannot be stale.
        let tail = self.tail.0.load(Ordering::Relaxed);
        self.wait_space(tail, deadline)?;
        self.slots.write((tail & self.mask) as usize);
        // SAFETY: `wait_space` proved `tail` is writable; SPSC makes
        // this thread the only writer.
        unsafe { self.slot_ptr(tail).write(event) };
        self.tail.0.store(tail + 1, Ordering::Release);
        self.wake_consumer();
        Ok(())
    }

    /// Appends every event the iterator yields, constructing each one
    /// **directly in its ring slot** and publishing each acquired
    /// window of ring space with a **single** release store of `tail`
    /// (the batched-publish fast path: one fence per window, not per
    /// event, and no intermediate buffer at all).
    ///
    /// # Panics
    /// Like [`Queue::push`], when the sequencer is gone.
    fn push_iter(&self, mut events: impl Iterator<Item = ServiceEvent>) {
        let mut item = events.next();
        while item.is_some() {
            // ordering: `tail` is producer-owned; only this thread
            // stores it.
            let tail = self.tail.0.load(Ordering::Relaxed);
            let Ok(free) = self.wait_space(tail, None) else {
                panic!("ingestion sequencer is gone (dropped or panicked); cannot send");
            };
            let mut wrote = 0u64;
            while wrote < free {
                let Some(event) = item.take() else { break };
                self.slots.write(((tail + wrote) & self.mask) as usize);
                // SAFETY: positions `tail..tail + free` are writable.
                unsafe { self.slot_ptr(tail + wrote).write(event) };
                wrote += 1;
                item = events.next();
            }
            self.tail.0.store(tail + wrote, Ordering::Release);
            self.wake_consumer();
        }
    }

    /// Producer side: records that the slot about to be written at the
    /// current `tail` (and everything after it) carries the explicit
    /// coordinates `(epoch, seq)` — see [`Rebase`]. Must be called
    /// *before* that slot is written: the release store of `tail` that
    /// publishes the slot then also makes the record visible to any
    /// consumer that can reach its position.
    fn post_rebase(&self, epoch: u64, seq: u64) {
        // ordering: `tail` is producer-owned; only this thread stores it.
        let pos = self.tail.0.load(Ordering::Relaxed);
        self.rebases
            .lock()
            .expect("ingest rebase mutex poisoned")
            .push_back(Rebase { pos, epoch, seq });
        // ordering: the counter is only a fast-path hint — the deque
        // itself is mutex-protected, and a consumer that reads a stale
        // zero revisits on the next drain after the release store of
        // `tail` publishes the slot the rebase names.
        self.rebase_pending.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Shutdown is rare: skip the parked-flag check and notify
        // unconditionally (lock first — see the type-level notes).
        drop(self.park_lock());
        self.not_empty.notify_all();
    }

    /// Marks the consumer side dead and wakes any producer blocked on
    /// backpressure so it can fail fast (see [`Queue::push`]).
    fn close_consumer(&self) {
        self.consumer_gone.store(true, Ordering::SeqCst);
        drop(self.park_lock());
        self.not_full.notify_all();
    }

    /// Consumer side: waits until the ring is non-empty (returning the
    /// published `tail`, claiming everything visible with one acquire
    /// load) or closed-and-drained (`None`).
    fn wait_events(&self, head: u64) -> Option<u64> {
        let cached = self.reader.0.tail_cache.get();
        if cached != head {
            return Some(cached);
        }
        let mut tries = 0u32;
        loop {
            let tail = self.tail.0.load(Ordering::Acquire);
            if tail != head {
                self.reader.0.tail_cache.set(tail);
                return Some(tail);
            }
            if self.closed.load(Ordering::SeqCst) {
                // The producer publishes its final slots before setting
                // `closed`: one more acquire re-read settles it.
                let tail = self.tail.0.load(Ordering::Acquire);
                if tail == head {
                    return None;
                }
                self.reader.0.tail_cache.set(tail);
                return Some(tail);
            }
            tries += 1;
            let spins = spin_limit();
            if tries <= spins {
                std::hint::spin_loop();
            } else if tries <= spins + yield_limit() {
                thread_yield();
            } else {
                let guard = self.park_lock();
                self.consumer_parked.store(true, Ordering::SeqCst);
                // ordering: fence pairs with the waker's fence — either
                // this re-check sees the new tail/closed, or the waker
                // sees our parked flag and takes the lock to notify.
                fence(Ordering::SeqCst);
                if self.tail.0.load(Ordering::SeqCst) != head || self.closed.load(Ordering::SeqCst)
                {
                    self.consumer_parked.store(false, Ordering::SeqCst);
                    continue; // drop the guard; re-check at the top
                }
                let _guard = self
                    .not_empty
                    .wait(guard)
                    .expect("ingest park mutex poisoned");
                self.consumer_parked.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Drains everything already published — claimed under a single
    /// acquire load, freed under a single release store of `head` —
    /// handing `admit` whole `(epoch, first_seq, events)` runs
    /// **zero-copy, straight out of ring memory**: the slices borrow
    /// the slot buffer, which is sound because the producer cannot
    /// reuse those slots until `head` advances, and `head` only
    /// advances after `admit` returns. Stamps are implicit (the reader
    /// counters mirror the producer's arithmetic; [`Rebase`] records
    /// patch reconnect discontinuities), so runs split only at epoch-end
    /// markers, rebase positions and the physical wrap boundary. Stops
    /// after consuming an epoch-end marker — later slots belong to the
    /// next epoch and must wait for the global tick. Blocks only while
    /// the lane is empty and open.
    ///
    /// A fatal error from `admit` aborts the drain without freeing the
    /// claimed slots — the sequencer is about to die and drop the
    /// consumer side, which is what unblocks the producer.
    fn pop_epoch_run(
        &self,
        mut admit: impl FnMut(u64, u64, &[ServiceEvent]) -> Result<(), ServiceError>,
    ) -> Result<Chunk, ServiceError> {
        // ordering: `head` is consumer-owned — this thread is its only
        // writer, so the load cannot be stale.
        let head = self.head.0.load(Ordering::Relaxed);
        let Some(tail) = self.wait_events(head) else {
            return Ok(Chunk::Closed);
        };
        let reader = &self.reader.0;
        let mut pos = head;
        let mut outcome = Chunk::Progress;
        while pos < tail {
            // Reconnects are rare: the pending counter keeps the mutex
            // off the hot path entirely.
            let mut next_rebase = None;
            // ordering: hint only — any rebase relevant to `pos` was
            // posted before the release store of `tail` that published
            // `pos`, so the acquire load that claimed this batch also
            // made the incremented counter visible.
            if self.rebase_pending.load(Ordering::Relaxed) > 0 {
                let mut rebases = self.rebases.lock().expect("ingest rebase mutex poisoned");
                while rebases.front().is_some_and(|r| r.pos == pos) {
                    let r = rebases.pop_front().expect("front was checked");
                    // ordering: decrement under the deque mutex; the
                    // counter is a fast-path hint, not a synchronizer.
                    self.rebase_pending.fetch_sub(1, Ordering::Relaxed);
                    reader.epoch.set(r.epoch);
                    reader.next_seq.set(r.seq);
                }
                next_rebase = rebases.front().map(|r| r.pos).filter(|&p| p < tail);
            }
            // One physically contiguous, rebase-free segment.
            let wrap = (pos & !self.mask) + self.mask + 1;
            let seg_end = tail.min(wrap).min(next_rebase.unwrap_or(u64::MAX));
            let len = (seg_end - pos) as usize;
            let lo = (pos & self.mask) as usize;
            self.slots.read_range(lo, lo + len);
            // SAFETY: `pos..seg_end` was published by the producer's
            // release store of `tail` (slots initialized), stays claimed
            // until the release store of `head` below, and does not
            // cross the wrap boundary (physically contiguous); SPSC
            // makes this thread the only reader. The cast is sound:
            // `UnsafeCell<MaybeUninit<T>>` has the layout of `T`.
            let events: &[ServiceEvent] = unsafe {
                std::slice::from_raw_parts(
                    self.buf[(pos & self.mask) as usize]
                        .get()
                        .cast::<ServiceEvent>(),
                    len,
                )
            };
            let marker = events
                .iter()
                .position(|e| matches!(e, ServiceEvent::PeriodTick));
            let run_len = marker.unwrap_or(len);
            if run_len > 0 {
                let first_seq = reader.next_seq.get();
                admit(reader.epoch.get(), first_seq, &events[..run_len])?;
                reader.next_seq.set(first_seq + run_len as u64);
                pos += run_len as u64;
            }
            if marker.is_some() {
                pos += 1; // consume the epoch-end marker
                outcome = Chunk::Marker(reader.epoch.get());
                reader.epoch.set(reader.epoch.get() + 1);
                reader.next_seq.set(0);
                break;
            }
        }
        self.head.0.store(pos, Ordering::Release);
        self.wake_producer();
        Ok(outcome)
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
/// Events sent through a producer are stamped `(producer, seq)` and
/// merged by the sequencer under the total `(epoch, producer, seq)`
/// order — so *what* the outcome is depends only on what each producer
/// sent, never on how the producer threads interleaved. Dropping the
/// handle closes the lane; the sequencer finishes once every lane is
/// closed and drained.
#[derive(Debug)]
pub struct IngressProducer {
    queue: Arc<Queue>,
    id: u32,
    epoch: u64,
    seq: u64,
    /// A reconnect happened and its coordinates have not been posted
    /// yet: the next enqueue must [`Queue::post_rebase`] first.
    pending_rebase: bool,
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
    pub fn send(&mut self, event: ServiceEvent) {
        self.flush_rebase();
        self.queue.push(event);
        self.advance(&event);
    }

    /// Sends every event an iterator yields with zero-copy amortized
    /// publication: items are constructed **directly into ring slots**
    /// and each acquired window is published with one release store
    /// (`Queue::push_iter`) instead of one fence per event.
    /// [`ServiceEvent::PeriodTick`]s inside the stream close epochs
    /// exactly like [`IngressProducer::send`]. Semantically identical
    /// to sending every event individually — just cheaper.
    ///
    /// # Panics
    /// Like [`IngressProducer::send`]: panics when the sequencer is
    /// gone.
    pub fn send_iter(&mut self, events: impl IntoIterator<Item = ServiceEvent>) {
        self.flush_rebase();
        let epoch = Cell::new(self.epoch);
        let seq = Cell::new(self.seq);
        self.queue
            .push_iter(events.into_iter().inspect(|event| match event {
                ServiceEvent::PeriodTick => {
                    epoch.set(epoch.get() + 1);
                    seq.set(0);
                }
                _ => seq.set(seq.get() + 1),
            }));
        self.epoch = epoch.get();
        self.seq = seq.get();
    }

    /// Closes this producer's current epoch: its contribution to the
    /// next tick's barrier. Subsequent sends belong to the next epoch.
    pub fn end_epoch(&mut self) {
        self.send(ServiceEvent::PeriodTick);
    }

    /// Advances the producer-side stamp counters past a sent event,
    /// mirroring the consumer's arithmetic exactly.
    fn advance(&mut self, event: &ServiceEvent) {
        match event {
            ServiceEvent::PeriodTick => {
                self.epoch += 1;
                self.seq = 0;
            }
            _ => self.seq += 1,
        }
    }

    /// Posts the coordinates of a not-yet-announced reconnect, if any,
    /// immediately before the slot they describe is written.
    fn flush_rebase(&mut self) {
        if std::mem::take(&mut self.pending_rebase) {
            self.queue.post_rebase(self.epoch, self.seq);
        }
    }

    /// Closes the lane (also happens on drop). Events sent before the
    /// close are still delivered; an epoch left open contributes its
    /// events to the epoch but not a barrier vote, so a tick fires only
    /// if some *other* producer closed that epoch explicitly.
    pub fn close(self) {}

    /// Bounded-wait send: like [`IngressProducer::send`] but waits for
    /// ring space at most `timeout` and reports a dead sequencer as
    /// [`SendError::Disconnected`] instead of panicking. On any error
    /// the producer's counters are untouched (`seq` only advances on a
    /// successful enqueue), so the caller can back off and retry the
    /// same event without corrupting the stream.
    pub fn try_send(&mut self, event: ServiceEvent, timeout: Duration) -> Result<(), SendError> {
        // Posting the rebase before a send that may time out is safe:
        // the record names the position the next *successful* enqueue
        // will occupy, whatever kind of slot that turns out to be.
        self.flush_rebase();
        // lint-allow(det-wallclock): caller-facing timeout for backpressure; never enters the event stream
        let deadline = Instant::now() + timeout;
        self.queue.push_deadline(event, deadline)?;
        self.advance(&event);
        Ok(())
    }

    /// Simulates a producer crash: consumes the handle **without**
    /// closing its lane (unlike drop). The epoch stays open, so the
    /// barrier waits — exactly a wedged client — until a supervisor
    /// [`AbandonedLane::reconnect`]s and finishes (or re-drives) the
    /// epoch. Testkit `FaultPlan` uses this for seeded producer kills.
    pub fn abandon(self) -> AbandonedLane {
        let this = std::mem::ManuallyDrop::new(self);
        AbandonedLane {
            // SAFETY: `this` is ManuallyDrop and never used again, so
            // the Arc is moved out exactly once and Drop (which would
            // close the lane) never runs.
            queue: unsafe { std::ptr::read(&this.queue) },
            id: this.id,
        }
    }
}

/// The lane of an abandoned ("crashed") producer, still open for a
/// reconnect ([`IngressProducer::abandon`]).
#[derive(Debug)]
pub struct AbandonedLane {
    queue: Arc<Queue>,
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
    /// watermark suppresses idempotently (at-least-once delivery). The
    /// coordinates travel to the sequencer as an out-of-band `Rebase`
    /// record posted just before the reconnected producer's first
    /// enqueue — the one discontinuity the ring's implicit stamping
    /// cannot carry in-band.
    pub fn reconnect(self, epoch: u64, seq: u64) -> IngressProducer {
        IngressProducer {
            queue: self.queue,
            id: self.id,
            epoch,
            seq,
            pending_rebase: true,
        }
    }
}

impl Drop for IngressProducer {
    fn drop(&mut self) {
        self.queue.close();
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
    queues: Vec<Arc<Queue>>,
}

impl Drop for IngestService {
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.close_consumer();
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
        let queues: Vec<Arc<Queue>> = (0..config.producers)
            .map(|_| Arc::new(Queue::new(config.queue_capacity)))
            .collect();
        let producers = queues
            .iter()
            .enumerate()
            .map(|(id, queue)| IngressProducer {
                queue: Arc::clone(queue),
                id: id as u32,
                epoch: 0,
                seq: 0,
                pending_rebase: false,
            })
            .collect();
        (Self { queues }, producers)
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
    /// failed state for journal recovery). Per-event *rejections* are
    /// not errors: the reducer counts them and the stream keeps going.
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
        mut on_tick: impl FnMut(u64, &ShardedService),
    ) -> Result<u64, ServiceError> {
        let first_epoch = u64::from(service.periods_served());
        let mut epoch = first_epoch;
        loop {
            // Did any producer close this epoch with a marker (rather
            // than by closing its lane)? Only markers vote for a tick:
            // a fully closed producer set with trailing unmarked events
            // leaves that churn staged, exactly like serial `push`
            // without a final `PeriodTick`.
            let mut epoch_open = false;
            for (producer, queue) in self.queues.iter().enumerate() {
                // A recovered service already holds a watermark inside
                // this epoch; a reconnected producer resuming exactly
                // after its ack is gap-free relative to *it*, not to 0
                // (`epoch` is the period the service is serving).
                let mut expected_seq = service.next_seq(producer as u32);
                loop {
                    // Runs are admitted zero-copy out of ring memory:
                    // the callback borrows the claimed slots, and the
                    // ring frees them only after it returns.
                    let outcome = queue.pop_epoch_run(|run_epoch, first_seq, events| {
                        debug_assert_eq!(
                            run_epoch, epoch,
                            "producer {producer} leaked an event across its epoch marker"
                        );
                        // `<=` (not `==`): a reconnected producer may
                        // re-send acked events (at-least-once); the
                        // service's watermark suppresses them. Fresh
                        // events must still arrive gap-free in order —
                        // within a run the ring's implicit stamping
                        // guarantees consecutive seqs.
                        debug_assert!(
                            first_seq <= expected_seq,
                            "producer {producer} events arrived with a seq gap"
                        );
                        expected_seq = expected_seq.max(first_seq + events.len() as u64);
                        // Only fatal faults come back: the run counts
                        // its own rejections.
                        service.push_stamped_run(producer as u32, run_epoch, first_seq, events)
                    })?;
                    match outcome {
                        Chunk::Marker(e) => {
                            debug_assert_eq!(e, epoch, "epoch markers out of order");
                            epoch_open = true;
                            break;
                        }
                        Chunk::Progress => continue,
                        Chunk::Closed => break,
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

    /// Moves `service` onto a dedicated sequencer thread (the online
    /// deployment shape: producers are client threads, the sequencer
    /// runs in the background). Join the returned handle to get the
    /// service back once every producer has closed.
    pub fn spawn(self, service: ShardedService) -> SequencerHandle {
        let handle = std::thread::spawn(move || {
            let mut service = service;
            let epochs = self.sequence(&mut service)?;
            Ok((service, epochs))
        });
        SequencerHandle { handle }
    }
}

/// Why a background sequencer died ([`SequencerHandle::join`]): either
/// its thread panicked (e.g. a panicking strategy unwound through the
/// reducer — the panic payload is preserved verbatim) or the reducer
/// returned a fatal [`ServiceError`].
pub struct SequencerPanic {
    cause: SequencerCause,
}

enum SequencerCause {
    Panicked(Box<dyn std::any::Any + Send + 'static>),
    Failed(ServiceError),
}

impl SequencerPanic {
    /// Human-readable description of the failure (`&str`/`String`
    /// panic payloads verbatim).
    pub fn message(&self) -> String {
        match &self.cause {
            SequencerCause::Panicked(payload) => {
                if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "sequencer thread panicked with a non-string payload".to_string()
                }
            }
            SequencerCause::Failed(e) => e.to_string(),
        }
    }

    /// The fatal [`ServiceError`], when the reducer failed typed-ly
    /// (as opposed to an unwinding panic).
    pub fn service_error(&self) -> Option<&ServiceError> {
        match &self.cause {
            SequencerCause::Failed(e) => Some(e),
            SequencerCause::Panicked(_) => None,
        }
    }

    /// The original panic payload, when the thread unwound.
    pub fn into_panic_payload(self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        match self.cause {
            SequencerCause::Panicked(payload) => Some(payload),
            SequencerCause::Failed(_) => None,
        }
    }
}

impl std::fmt::Debug for SequencerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequencerPanic")
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for SequencerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sequencer died: {}", self.message())
    }
}

impl std::error::Error for SequencerPanic {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.service_error()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Join handle of a background sequencer ([`IngestService::spawn`]).
#[derive(Debug)]
pub struct SequencerHandle {
    handle: std::thread::JoinHandle<Result<(ShardedService, u64), ServiceError>>,
}

impl SequencerHandle {
    /// Waits for every producer to close and returns the driven service
    /// together with the number of epochs fired.
    ///
    /// A sequencer-thread death — an unwinding panic (say, from a
    /// panicking strategy) or a fatal reducer error — surfaces as a
    /// typed [`SequencerPanic`] with the payload preserved, never an
    /// abort or a hang ([`IngestService`]'s drop already woke blocked
    /// producers when the thread unwound).
    pub fn join(self) -> Result<(ShardedService, u64), SequencerPanic> {
        match self.handle.join() {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(e)) => Err(SequencerPanic {
                cause: SequencerCause::Failed(e),
            }),
            Err(payload) => Err(SequencerPanic {
                cause: SequencerCause::Panicked(payload),
            }),
        }
    }

    /// Whether the sequencer thread has finished (without blocking).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
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
    use crate::engine::{ServiceConfig, ShardedService};
    use maps_core::StrategyKind;
    use maps_simulator::{GroundTask, GroundWorker, MatchPolicy};
    use maps_spatial::{CellId, GridSpec, Point, Rect};

    fn service(shards: usize) -> ShardedService {
        ShardedService::new(
            GridSpec::square(Rect::square(10.0), 2),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
            ServiceConfig {
                shards,
                ..ServiceConfig::default()
            },
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
            let mut svc = service(2);
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
        let mut svc = service(1);
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
        let mut mixed = service(1);
        assert_eq!(ingest.sequence(&mut mixed).unwrap(), 0);
        for event in [arrive(2.0), task, ServiceEvent::PeriodTick] {
            mixed.try_push(event).unwrap();
        }
        assert_eq!(mixed.admitted_workers(), 2);
        assert_eq!(mixed.suppressed_duplicates(), 0);
        assert_eq!(mixed.watermark(0), Some((0, 2)));

        let mut serial = service(1);
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
    /// on backpressure no one will drain — even when the ring still has
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
        // The handle is still droppable afterwards (the ring was not
        // poisoned by the in-lock panic path).
        drop(p0);
    }

    /// Satellite regression: a panic in the background sequencer thread
    /// (here: a strategy that panics on its first `price_period`) must
    /// surface from `join` as a typed `Err` with the payload preserved
    /// — never a silent abort, a swallowed unwind, or a hang.
    #[test]
    fn sequencer_panic_surfaces_as_typed_error_with_payload() {
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
        let svc = ShardedService::with_strategy(
            GridSpec::square(Rect::square(10.0), 2),
            MatchPolicy::Consume,
            Box::new(Bomb),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 8,
        });
        let mut p0 = producers.pop().unwrap();
        let sequencer = ingest.spawn(svc);
        p0.send(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        p0.send(ServiceEvent::PeriodTick);
        // The tick detonates the strategy; the lane may already be dead
        // by the time we close, so tolerate the fail-fast panic path.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || p0.close()));
        let err = sequencer
            .join()
            .expect_err("sequencer must report the panic");
        assert!(
            err.message().contains("strategy exploded on purpose"),
            "payload lost: {err:?}"
        );
        assert!(err.service_error().is_none(), "this was an unwind");
        let payload = err.into_panic_payload().expect("panic payload preserved");
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
        // Ring full, no sequencer draining: bounded wait, then timeout.
        assert_eq!(p0.try_send(e, short), Err(SendError::Timeout));
        // The timed-out event was not enqueued and seq did not advance:
        // retrying after the sequencer drains keeps the stream gapless.
        let mut svc = service(1);
        let sequencer = std::thread::spawn(move || ingest.sequence(&mut svc).map(|e| (svc, e)));
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
                let mut svc = service(2);
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
            (
                svc.suppressed_duplicates(),
                svc.into_outcome().deterministic_bits(),
            )
        };
        let (clean_suppressed, clean_bits) = run(false);
        let (resend_suppressed, resend_bits) = run(true);
        assert_eq!(clean_suppressed, 0);
        assert_eq!(resend_suppressed, 1, "the resend was suppressed");
        // The duplicate-suppression counter itself participates in the
        // bits, so compare the rest: zero it out in place.
        // suppressed_duplicates sits just before the latency telemetry
        // words at the tail of the encoding.
        let idx = clean_bits.len() - 1 - maps_telemetry::LatencyTelemetry::WORDS;
        let mut clean = clean_bits.clone();
        let mut resent = resend_bits.clone();
        assert_eq!(clean[idx], 0);
        assert_eq!(resent[idx], 1);
        clean[idx] = 0;
        resent[idx] = 0;
        assert_eq!(clean, resent, "resend perturbed the outcome");
    }

    // ---- ring unit tests (PR 7): the Queue in isolation ----------------

    /// The x-coordinate a test event was built with (events carry no
    /// `PartialEq`; the coordinate is the identity).
    fn x_of(event: &ServiceEvent) -> f64 {
        match event {
            ServiceEvent::WorkerArrive { worker } => worker.location.x,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Drains everything currently poppable, returning each admitted
    /// run as `(epoch, first_seq, xs)`.
    fn drain_runs(queue: &Queue) -> Vec<(u64, u64, Vec<f64>)> {
        let mut runs = Vec::new();
        loop {
            let outcome = queue
                .pop_epoch_run(|epoch, first_seq, events| {
                    runs.push((epoch, first_seq, events.iter().map(x_of).collect()));
                    Ok(())
                })
                .expect("admit never fails here");
            match outcome {
                Chunk::Closed => break,
                Chunk::Marker(_) | Chunk::Progress => {
                    // Only keep draining while something is published;
                    // otherwise pop would block on the open lane.
                    if queue.tail.0.load(Ordering::Acquire) == queue.head.0.load(Ordering::Relaxed)
                    {
                        break;
                    }
                }
            }
        }
        runs
    }

    /// Wraparound: a ring smaller than the stream must reuse slots
    /// without reordering, losing, or corrupting events, and the
    /// implicit `(epoch, seq)` coordinates must advance in lock-step
    /// across the physical boundary.
    #[test]
    fn ring_wraparound_preserves_order_and_coordinates() {
        let queue = Queue::new(4);
        let mut sent = Vec::new();
        let mut got = Vec::new();
        let mut x = 0.0f64;
        for round in 0..5 {
            // Alternate run lengths so the wrap point drifts through
            // every slot over the rounds.
            for _ in 0..=(round % 4) {
                queue.push(ServiceEvent::WorkerArrive { worker: worker(x) });
                sent.push(x);
                x += 1.0;
            }
            for (_, _, xs) in drain_runs(&queue) {
                got.extend(xs);
            }
        }
        assert_eq!(got, sent, "wraparound reordered or lost events");
        assert!(
            queue.tail.0.load(Ordering::Relaxed) > queue.capacity,
            "the test never actually wrapped"
        );
    }

    /// A published window that crosses the physical wrap boundary is
    /// handed to `admit` as two contiguous runs with continuous
    /// sequence numbers (the zero-copy slices cannot straddle the
    /// buffer end).
    #[test]
    fn wrap_boundary_splits_runs_with_continuous_seqs() {
        let queue = Queue::new(4);
        for i in 0..3 {
            queue.push(ServiceEvent::WorkerArrive {
                worker: worker(i as f64),
            });
        }
        assert_eq!(drain_runs(&queue).len(), 1, "no wrap yet: one run");
        // Positions 3..7 span the wrap at 4: one batched publish, two
        // segments on the consumer side.
        queue.push_iter((3..7).map(|i| ServiceEvent::WorkerArrive {
            worker: worker(i as f64),
        }));
        let runs = drain_runs(&queue);
        assert_eq!(
            runs,
            vec![(0, 3, vec![3.0]), (0, 4, vec![4.0, 5.0, 6.0]),],
            "wrap split misplaced the seam or broke seq continuity"
        );
    }

    /// Full/empty boundary transitions: `wait_space` counts free slots
    /// against the *logical* capacity (which may be below the physical
    /// power-of-two buffer), a full ring times out a bounded push, and
    /// draining exactly one event reopens exactly one slot.
    #[test]
    fn full_and_empty_boundaries_respect_logical_capacity() {
        for capacity in [1usize, 2, 3] {
            let queue = Queue::new(capacity);
            assert_eq!(queue.wait_space(0, None), Ok(capacity as u64));
            let quick = || Instant::now() + Duration::from_millis(2);
            for i in 0..capacity {
                queue
                    .push_deadline(
                        ServiceEvent::WorkerArrive {
                            worker: worker(i as f64),
                        },
                        quick(),
                    )
                    .expect("ring not full yet");
            }
            assert_eq!(
                queue.push_deadline(
                    ServiceEvent::WorkerArrive {
                        worker: worker(99.0)
                    },
                    quick(),
                ),
                Err(SendError::Timeout),
                "capacity {capacity}: logical bound not enforced"
            );
            // Drain one: exactly one slot reopens.
            let mut seen = 0usize;
            queue
                .pop_epoch_run(|_, _, events| {
                    seen = events.len();
                    Ok(())
                })
                .expect("admit never fails");
            assert_eq!(seen, capacity, "drain claims everything published");
            assert_eq!(
                queue.wait_space(queue.tail.0.load(Ordering::Relaxed), None),
                Ok(capacity as u64),
                "freed slots not visible to the producer"
            );
        }
    }

    /// Batched publication: `push_iter` publishes each acquired window
    /// with a single release store, so the consumer sees the whole
    /// window at once — one `admit` run, not one per event.
    #[test]
    fn batched_publish_is_visible_as_one_run() {
        let queue = Queue::new(16);
        queue.push_iter((0..5).map(|i| ServiceEvent::WorkerArrive {
            worker: worker(i as f64),
        }));
        let runs = drain_runs(&queue);
        assert_eq!(runs.len(), 1, "one window, one run: {runs:?}");
        assert_eq!(runs[0], (0, 0, vec![0.0, 1.0, 2.0, 3.0, 4.0]));
    }

    /// The capacity-1 degenerate ring: every push rendezvouses with a
    /// pop, epoch markers still close epochs, and the coordinate
    /// arithmetic stays in lock-step.
    #[test]
    fn capacity_one_ring_rendezvous() {
        let queue = Queue::new(1);
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        assert_eq!(
            queue.push_deadline(
                ServiceEvent::WorkerArrive {
                    worker: worker(2.0)
                },
                Instant::now() + Duration::from_millis(2),
            ),
            Err(SendError::Timeout),
            "second slot must not exist"
        );
        assert_eq!(drain_runs(&queue), vec![(0, 0, vec![1.0])]);
        queue.push(ServiceEvent::PeriodTick);
        let outcome = queue.pop_epoch_run(|_, _, _| panic!("marker-only drain admits nothing"));
        assert!(matches!(outcome, Ok(Chunk::Marker(0))));
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(3.0),
        });
        assert_eq!(
            drain_runs(&queue),
            vec![(1, 0, vec![3.0])],
            "epoch advanced and seq reset after the marker"
        );
    }

    /// A [`Rebase`] record posted before its slot is written retargets
    /// the consumer's implicit coordinates at exactly that position.
    #[test]
    fn rebase_record_retargets_reader_coordinates() {
        let queue = Queue::new(8);
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        // Reconnect discontinuity: the next slot carries (epoch 4, seq 7).
        queue.post_rebase(4, 7);
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(2.0),
        });
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(3.0),
        });
        let runs = drain_runs(&queue);
        assert_eq!(
            runs,
            vec![(0, 0, vec![1.0]), (4, 7, vec![2.0, 3.0])],
            "rebase must split the run and retarget (epoch, seq)"
        );
        assert_eq!(queue.rebase_pending.load(Ordering::Relaxed), 0);
    }

    /// Closing an empty ring drains to `Closed`; closing with staged
    /// events hands them over first.
    #[test]
    fn close_drains_then_reports_closed() {
        let queue = Queue::new(4);
        queue.push(ServiceEvent::WorkerArrive {
            worker: worker(5.0),
        });
        queue.close();
        assert_eq!(drain_runs(&queue), vec![(0, 0, vec![5.0])]);
        let outcome = queue.pop_epoch_run(|_, _, _| panic!("nothing left to admit"));
        assert!(matches!(outcome, Ok(Chunk::Closed)));
    }

    /// A capacity-1 queue forces maximal backpressure; the stream must
    /// still complete and agree with serial push.
    #[test]
    fn capacity_one_round_trips_through_spawned_sequencer() {
        let (ingest, mut producers) = IngestService::new(IngestConfig {
            producers: 1,
            queue_capacity: 1,
        });
        let mut p0 = producers.pop().unwrap();
        let sequencer = ingest.spawn(service(2));
        for i in 0..20 {
            p0.send(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + (i % 8) as f64),
            });
            p0.send(ServiceEvent::PeriodTick);
        }
        p0.close();
        let (svc, epochs) = sequencer.join().unwrap();
        assert_eq!(epochs, 20);
        assert_eq!(svc.periods_served(), 20);
        assert_eq!(svc.admitted_workers(), 20);
    }
}

/// Model-checked ring scenarios (`cargo test -p maps-service --features
/// maps_model`): the **shipping** `Queue` above, compiled against
/// `maps-model`'s tracked sync types through the `crate::sync` facade,
/// explored at every interleaving the C11 memory model allows. The
/// small configurations (capacity 1 and 2, one producer + the root
/// consumer) are explored exhaustively; the larger wrap-boundary batch
/// uses seeded bounded exploration with a pinned schedule count. The
/// `seeded_*` tests are the known-bad gallery: they re-introduce the
/// pre-PR-7 unfenced wake and a `Relaxed`-published tail in miniature
/// and MUST fail the exploration — if one ever stops being detected,
/// the checker has rotted and CI exits 1.
#[cfg(all(test, feature = "maps_model"))]
mod model_tests {
    use super::*;
    use maps_model::{explore, thread, Builder, FailureKind};

    fn ev(id: u32) -> ServiceEvent {
        ServiceEvent::WorkerDepart { id }
    }

    fn depart_id(e: &ServiceEvent) -> u32 {
        match e {
            ServiceEvent::WorkerDepart { id } => *id,
            other => panic!("unexpected event in ring: {other:?}"),
        }
    }

    /// Drains the queue until the producer closes it, returning every
    /// admitted `(epoch, first_seq, ids)` run.
    fn drain(q: &Queue) -> Vec<(u64, u64, Vec<u32>)> {
        let mut got = Vec::new();
        loop {
            let chunk = q
                .pop_epoch_run(|epoch, seq, evs| {
                    got.push((epoch, seq, evs.iter().map(depart_id).collect()));
                    Ok(())
                })
                .expect("admit never fails in model scenarios");
            if matches!(chunk, Chunk::Closed) {
                break;
            }
        }
        got
    }

    /// Flattens runs into per-event `(epoch, seq, id)` stamps.
    fn flatten(runs: &[(u64, u64, Vec<u32>)]) -> Vec<(u64, u64, u32)> {
        runs.iter()
            .flat_map(|(e, s, ids)| {
                ids.iter()
                    .enumerate()
                    .map(move |(i, id)| (*e, s + i as u64, *id))
            })
            .collect()
    }

    /// Capacity-1 push/pop, fully exhaustive: every interleaving of one
    /// push + close against the draining consumer, with no preemption
    /// bound and no schedule sampling (~27k distinct executions after
    /// sleep-set pruning). This covers the empty-ring consumer park and
    /// the close/wake handshake at the smallest ring size.
    #[test]
    fn model_push_pop_capacity_1() {
        maps_model::check(|| {
            let q = Arc::new(Queue::new(1));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push(ev(1));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(flatten(&runs), vec![(0, 0, 1)]);
        });
    }

    /// Capacity-2 push/pop, fully exhaustive (same budget as the
    /// capacity-1 scenario): the logical capacity rides a larger
    /// physical buffer, so the mask arithmetic and the publish window
    /// differ from capacity 1 even for a single event.
    #[test]
    fn model_push_pop_capacity_2() {
        maps_model::check(|| {
            let q = Arc::new(Queue::new(2));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push(ev(1));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(flatten(&runs), vec![(0, 0, 1)]);
        });
    }

    /// Capacity-2 ring with an in-band epoch-end marker: the consumer
    /// must advance its epoch counter at the marker and stamp the next
    /// event `(epoch 1, seq 0)`. Three pushes exceed the exhaustive
    /// budget, so this runs every schedule with up to 3 forced
    /// preemptions (~1.1k executions) — the CHESS-style bound that
    /// catches any bug needing three or fewer context switches.
    #[test]
    fn model_epoch_marker_stamps_next_event() {
        Builder::new().preemption_bound(3).check(|| {
            let q = Arc::new(Queue::new(2));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push(ev(1));
                q2.push(ServiceEvent::PeriodTick);
                q2.push(ev(2));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(flatten(&runs), vec![(0, 0, 1), (1, 0, 2)]);
        });
    }

    /// The full producer-park / consumer-wake rendezvous: two pushes
    /// through a capacity-1 ring force the producer to park on the full
    /// ring while the consumer parks on the empty one, so both SeqCst
    /// fence handshakes are crossed in every schedule with up to 4
    /// forced preemptions (~6.4k executions). A lost wakeup on either
    /// side surfaces as a model deadlock because frozen model time
    /// never fires the backpressure timeout.
    #[test]
    fn model_park_wake_rendezvous() {
        Builder::new().preemption_bound(4).check(|| {
            let q = Arc::new(Queue::new(1));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push(ev(7));
                q2.push(ev(8));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(flatten(&runs), vec![(0, 0, 7), (0, 1, 8)]);
        });
    }

    /// Close racing a parked (or about-to-park) consumer, fully
    /// exhaustive: the consumer must always observe the close, in every
    /// interleaving.
    #[test]
    fn model_close_vs_park() {
        maps_model::check(|| {
            let q = Arc::new(Queue::new(1));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert!(runs.is_empty());
        });
    }

    /// An out-of-band rebase record between two pushes: the consumer
    /// must stamp the slot after the record with the record's explicit
    /// coordinates, not its implicit count. Three ring writes, so this
    /// uses the 3-preemption bound like the marker scenario.
    #[test]
    fn model_rebase_record() {
        Builder::new().preemption_bound(3).check(|| {
            let q = Arc::new(Queue::new(2));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push(ev(1));
                q2.post_rebase(7, 3);
                q2.push(ev(2));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(flatten(&runs), vec![(0, 0, 1), (7, 3, 2)]);
        });
    }

    /// `try_send` racing consumer death on a full ring, fully
    /// exhaustive: the producer must always fail fast with
    /// `Disconnected` — never hang parked (model time is frozen, so a
    /// hang cannot hide behind the timeout), and never report
    /// `Timeout`.
    #[test]
    fn model_try_send_vs_consumer_death() {
        maps_model::check(|| {
            let q = Arc::new(Queue::new(1));
            q.push(ev(1)); // fill the ring; nothing will ever drain it
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.close_consumer();
            });
            let r = q.push_deadline(ev(2), Instant::now() + Duration::from_millis(5));
            t.join().unwrap();
            assert_eq!(r, Err(SendError::Disconnected));
        });
    }

    /// Wrap-boundary batched publication: capacity 3 rides a physical
    /// 4-slot buffer, so a 6-event batch wraps; each acquired window is
    /// published with a single release store. Largest state space of
    /// the suite, so this uses seeded bounded exploration with a pinned
    /// schedule count instead of exhaustive DFS.
    #[test]
    fn model_wrap_boundary_batched_publish() {
        Builder::new().bounded(0x5EED, 400).check(|| {
            let q = Arc::new(Queue::new(3));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || {
                q2.push_iter((1..=6).map(ev));
                q2.close();
            });
            let runs = drain(&q);
            t.join().unwrap();
            assert_eq!(
                flatten(&runs),
                (1..=6u32)
                    .map(|i| (0, u64::from(i) - 1, i))
                    .collect::<Vec<_>>()
            );
        });
    }

    // ------------------------------------------------------------------
    // The known-bad gallery: seeded bugs the checker MUST report.
    // ------------------------------------------------------------------

    /// The pre-PR-7 bug in miniature: the waker publishes state and
    /// checks the parked flag **without** the SeqCst fence in between.
    /// Both relaxed accesses can then miss each other and the waiter
    /// sleeps forever — the checker must report the deadlock.
    #[test]
    fn seeded_unfenced_wake_is_detected() {
        let report = explore(|| {
            let state = Arc::new((
                Mutex::new(()),
                Condvar::new(),
                AtomicU64::new(0),      // published
                AtomicBool::new(false), // parked
            ));
            let s2 = Arc::clone(&state);
            let t = thread::spawn(move || {
                let (park, cv, published, parked) = &*s2;
                published.store(1, Ordering::Relaxed);
                // BUG (pre-PR-7): no fence(Ordering::SeqCst) here, so
                // this load can miss the waiter's parked flag...
                if parked.load(Ordering::Relaxed) {
                    drop(park.lock().expect("park mutex"));
                    cv.notify_all();
                }
            });
            let (park, cv, published, parked) = &*state;
            let guard = park.lock().expect("park mutex");
            parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            // ...while this re-check missed the waker's publish.
            if published.load(Ordering::SeqCst) == 0 {
                let _g = cv.wait(guard).expect("park mutex");
            } else {
                drop(guard);
            }
            parked.store(false, Ordering::SeqCst);
            t.join().unwrap();
        });
        let failure = report
            .failure
            .expect("the unfenced wake must be detected — checker self-test");
        assert_eq!(failure.kind, FailureKind::Deadlock, "{failure:?}");
    }

    /// The same handshake with PR 7's fence restored: no interleaving
    /// loses the wakeup (the positive control for the seed above).
    #[test]
    fn pr7_fenced_wake_has_no_lost_wakeup() {
        maps_model::check(|| {
            let state = Arc::new((
                Mutex::new(()),
                Condvar::new(),
                AtomicU64::new(0),
                AtomicBool::new(false),
            ));
            let s2 = Arc::clone(&state);
            let t = thread::spawn(move || {
                let (park, cv, published, parked) = &*s2;
                published.store(1, Ordering::Relaxed);
                fence(Ordering::SeqCst); // the PR 7 fix
                if parked.load(Ordering::Relaxed) {
                    drop(park.lock().expect("park mutex"));
                    cv.notify_all();
                }
            });
            let (park, cv, published, parked) = &*state;
            let guard = park.lock().expect("park mutex");
            parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if published.load(Ordering::SeqCst) == 0 {
                let _g = cv.wait(guard).expect("park mutex");
            } else {
                drop(guard);
            }
            parked.store(false, Ordering::SeqCst);
            t.join().unwrap();
        });
    }

    /// A deliberately `Relaxed`-published tail: the consumer's acquire
    /// load then synchronizes with nothing, so its zero-copy claim of
    /// the slot races the producer's write — the checker must report
    /// the data race.
    #[test]
    fn seeded_relaxed_tail_publish_is_detected() {
        let report = explore(|| {
            let tail = Arc::new(AtomicU64::new(0));
            let slots = Arc::new(SlotTracker::new(1));
            let (t2, s2) = (Arc::clone(&tail), Arc::clone(&slots));
            let t = thread::spawn(move || {
                s2.write(0); // fill the slot
                t2.store(1, Ordering::Relaxed); // BUG: must be Release
            });
            if tail.load(Ordering::Acquire) == 1 {
                slots.read_range(0, 1); // zero-copy claim
            }
            t.join().unwrap();
        });
        let failure = report
            .failure
            .expect("the relaxed tail publish must be detected — checker self-test");
        assert_eq!(failure.kind, FailureKind::DataRace, "{failure:?}");
    }

    /// The shipping publication protocol (release tail store) passes
    /// the same scenario (the positive control for the seed above).
    #[test]
    fn release_tail_publish_has_no_race() {
        maps_model::check(|| {
            let tail = Arc::new(AtomicU64::new(0));
            let slots = Arc::new(SlotTracker::new(1));
            let (t2, s2) = (Arc::clone(&tail), Arc::clone(&slots));
            let t = thread::spawn(move || {
                s2.write(0);
                t2.store(1, Ordering::Release);
            });
            if tail.load(Ordering::Acquire) == 1 {
                slots.read_range(0, 1);
            }
            t.join().unwrap();
        });
    }
}
