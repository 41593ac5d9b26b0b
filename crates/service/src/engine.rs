//! The service engine: event admission, the journal hooks, and the
//! tick — the batch engine's [`WorkerLifecycle`] driven by
//! [`PeriodStep::run`].
//!
//! See the crate docs for the architecture picture. The inline comments
//! here focus on the invariants each step must preserve for the
//! replay-equals-batch contract (`replay` module) to hold bitwise.

use maps_core::{
    paper_default_strategy, PricingStrategy, StateError, StateWords, StrategyKind, TaskInput,
    WorkerInput,
};
use maps_matching::BipartiteGraph;
use maps_simulator::{
    EventRejection, GroundTask, GroundWorker, MatchPolicy, Outcome, PeriodEngine, PeriodStep,
    WorkerLifecycle,
};
use maps_spatial::{GridSpec, Point};
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use crate::journal::{
    remove_checkpoint_files, write_checkpoint_file, JournalConfig, JournalError, JournalRecord,
    JournalWriter, TICK_PRODUCER,
};

/// One event of the online stream.
#[derive(Debug, Clone, Copy)]
pub enum ServiceEvent {
    /// A worker comes online. Ids are assigned by the service in stream
    /// order (global admission order — the same numbering the batch
    /// simulator uses), and the worker's `duration` schedules its own
    /// expiry; send [`ServiceEvent::WorkerDepart`] for earlier exits.
    WorkerArrive {
        /// Location, range radius and availability window.
        worker: GroundWorker,
    },
    /// The worker with the given admission id leaves the platform now
    /// (takes effect at the next tick, like all staged churn; a worker
    /// that arrived since the last tick never becomes live). A no-op
    /// for workers already gone or ids never admitted.
    WorkerDepart {
        /// Admission id (position in the arrival stream).
        id: u32,
    },
    /// A requester submits a task for the current period. Carries the
    /// ground-truth task because the service also simulates the
    /// requester's accept/reject decision against the posted price.
    TaskRequest {
        /// The task, including its private valuation.
        task: GroundTask,
    },
    /// Closes the current period: applies staged churn, prices, clears
    /// the market and advances the period counter.
    PeriodTick,
}

/// A panic caught inside the tick's own work — `fire`, churn apply and
/// the graph build, under one [`catch_unwind`]. The service is
/// **poisoned** afterwards: its lifecycle may be mid-mutation, so every
/// further push returns [`ServiceError::Poisoned`] instead of risking
/// silent corruption — the typed-error analogue of a crashed process,
/// recoverable through the journal ([`crate::recovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickPanic {
    /// Period whose tick was poisoned.
    pub period: u32,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for TickPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tick {} panicked: {}", self.period, self.message)
    }
}

impl std::error::Error for TickPanic {}

/// The service refused a stamp by its one rule (see
/// [`ShardedService::push_stamped`]) before the event, run or tick that
/// carries it was journaled, counted or watermarked: the service is not
/// poisoned and holds the stream up to the refusal. A serial push that
/// would take seq `u64::MAX` reports `seq` and `next_seq` both
/// `u64::MAX`. After
/// [`AbandonedLane::reconnect`](crate::ingest::AbandonedLane::reconnect)
/// a producer's stamps are caller input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampError {
    /// The lane that delivered the stamp.
    pub producer: u32,
    /// The epoch stamped on the refused run or epoch-end marker.
    pub epoch: u64,
    /// The `seq` stamped on its first slot.
    pub seq: u64,
    /// The epoch the service was serving.
    pub serving_epoch: u64,
    /// The highest `seq` the lane could have delivered without a gap.
    pub next_seq: u64,
}

impl std::fmt::Display for StampError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "producer {} delivered (epoch {}, seq {}) while epoch {} was being served \
             and the lane stood at seq {}",
            self.producer, self.epoch, self.seq, self.serving_epoch, self.next_seq
        )
    }
}

impl std::error::Error for StampError {}

/// Why [`ShardedService::try_push`] (or the stamped/journaled admission
/// paths) refused an event. All variants are `?`-able
/// ([`std::error::Error`] + [`std::fmt::Display`]).
#[derive(Debug)]
pub enum ServiceError {
    /// Admission validation refused the event (client data error; the
    /// stream keeps flowing).
    Rejected(EventRejection),
    /// The tick's work panicked during an earlier (or this) tick; the
    /// service is poisoned and must be recovered from its journal.
    Poisoned(TickPanic),
    /// The write-ahead journal failed (I/O); without durability the
    /// event cannot be admitted under the recovery contract.
    Journal(JournalError),
    /// The service refused the event's coordinates (see
    /// [`StampError`]); nothing was admitted, the service is intact.
    Stamp(StampError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected(r) => write!(f, "event rejected: {r}"),
            ServiceError::Poisoned(p) => write!(f, "service poisoned: {p}"),
            ServiceError::Journal(e) => write!(f, "journal failure: {e}"),
            ServiceError::Stamp(e) => write!(f, "lane out of order: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Rejected(r) => Some(r),
            ServiceError::Poisoned(p) => Some(p),
            ServiceError::Journal(e) => Some(e),
            ServiceError::Stamp(e) => Some(e),
        }
    }
}

impl From<EventRejection> for ServiceError {
    fn from(r: EventRejection) -> Self {
        ServiceError::Rejected(r)
    }
}

impl From<JournalError> for ServiceError {
    fn from(e: JournalError) -> Self {
        ServiceError::Journal(e)
    }
}

/// Renders a caught panic payload (`&str` and `String` verbatim) for
/// [`TickPanic::message`]: boxed as `catch_unwind` hands it over, or
/// borrowed as `&dyn Any` — not as `&Box`, which is an `Any` itself and
/// would downcast to neither.
pub(crate) fn panic_message(payload: impl Deref<Target = dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ServiceEvent {
    /// Admission-time validation, before any state is touched: an
    /// arrival's worker and a request's task must pass their one
    /// statement of the rules ([`GroundWorker::check`],
    /// [`GroundTask::check`] on `grid`).
    ///
    /// `WorkerDepart` and `PeriodTick` are always valid (a stale or
    /// unknown departure id is a semantic no-op, not a data error).
    pub fn validate(&self, grid: &GridSpec) -> Result<(), EventRejection> {
        match self {
            ServiceEvent::WorkerArrive { worker } => worker.check(),
            ServiceEvent::TaskRequest { task } => task.check(grid),
            ServiceEvent::WorkerDepart { .. } | ServiceEvent::PeriodTick => Ok(()),
        }
    }
}

/// Configuration of a [`ShardedService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ignored: the service serves from one spatial index, the batch
    /// engine's. Kept for source compatibility, removed with ROADMAP
    /// 1(d)/6(b).
    pub shards: usize,
    /// Per-task edge cap of the period graph (the batch simulator's
    /// [`maps_simulator::SimOptions::max_edges_per_task`]).
    pub max_edges_per_task: usize,
    /// Ignored: the service's state is sized by who is live. Kept for
    /// source compatibility, removed with ROADMAP 6(b).
    pub expected_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let sim = maps_simulator::SimOptions::default();
        Self {
            shards: 1,
            max_edges_per_task: sim.max_edges_per_task,
            expected_workers: 1024,
        }
    }
}

/// The service's [`PeriodEngine`]: the batch engine's
/// [`WorkerLifecycle`], as is, with the tick's own work — `fire`, churn
/// apply and the graph build — run under one [`catch_unwind`], so a
/// panic there (an index bug, an injected fault) surfaces as a typed
/// [`TickPanic`] instead of tearing down the sequencer thread. Pricing,
/// clearing and the matched pairs' lifecycle run outside it, in
/// [`PeriodStep::run`].
#[derive(Debug)]
struct TickEngine {
    lifecycle: WorkerLifecycle,
    /// Deterministic fault injection: the period whose tick work panics
    /// (testkit `FaultPlan`).
    fault: Option<u32>,
}

impl PeriodEngine for TickEngine {
    type Error = TickPanic;

    /// Closes the admission window, fires period `t`'s transitions,
    /// applies the staged churn and builds the capped graph: the batch
    /// engine's period, step for step.
    fn build_graph(
        &mut self,
        t: u32,
        tasks: &[TaskInput],
        k: usize,
    ) -> Result<BipartiteGraph, TickPanic> {
        let fault = self.fault.take_if(|period| *period == t).is_some();
        let lifecycle = &mut self.lifecycle;
        catch_unwind(AssertUnwindSafe(|| {
            lifecycle.fire(t);
            if fault {
                panic!("injected tick fault");
            }
            lifecycle.build_graph_capped(tasks, k)
        }))
        .map_err(|payload| TickPanic {
            period: t,
            message: panic_message(payload),
        })
    }

    fn worker_inputs(&self) -> &[WorkerInput] {
        self.lifecycle.worker_inputs()
    }

    fn consume_matched(&mut self, dense: usize) {
        self.lifecycle.consume_matched(dense);
    }

    fn dispatch_matched(&mut self, t: u32, dense: usize, destination: Point, travel: u32) {
        self.lifecycle
            .dispatch_matched(t, dense, destination, travel);
    }
}

/// The online pricing engine: one [`WorkerLifecycle`] — the batch
/// engine, as is — fed by an event stream, plus the journal. (The name
/// is kept for source compatibility; there are no shards.)
///
/// Feed it [`ServiceEvent`]s via [`ShardedService::push`]; read the
/// accumulated [`Outcome`] any time via
/// [`ShardedService::outcome_snapshot`] (or consume it with
/// [`ShardedService::into_outcome`]).
pub struct ShardedService {
    grid: GridSpec,
    match_policy: MatchPolicy,
    k: usize,
    /// Strategy, outcome accumulator and the shared per-period body.
    step: PeriodStep,
    engine: TickEngine,
    /// Tasks submitted since the last tick, in stream order (the order
    /// pricing feedback and price moments are fed in — load-bearing for
    /// bit-identity with the batch loop).
    pending_tasks: Vec<GroundTask>,
    /// Current period (number of ticks processed so far).
    period: u32,
    // ---- durability & fault tolerance (PR 6) ----
    /// Per-producer high-water mark `(epoch, seq)` of the last admitted
    /// event: the idempotence filter for at-least-once producer resends
    /// after a reconnect. Rejected events advance it too (they *were*
    /// delivered); suppressed resends count into the outcome's
    /// `suppressed_duplicates` and are not re-journaled. Keyed by
    /// producer, so it is sized by the lanes that sent, never by the
    /// largest id a caller names.
    watermarks: BTreeMap<u32, (u64, u64)>,
    /// Attached write-ahead journal, if any.
    journal: Option<JournalState>,
    /// Set once the tick's work panicked: the typed-error analogue of a
    /// crash. Every later push fails with this until recovery.
    poisoned: Option<TickPanic>,
}

/// The engine's view of an attached journal.
#[derive(Debug)]
struct JournalState {
    writer: JournalWriter,
    dir: PathBuf,
    checkpoint_every: u32,
}

impl ShardedService {
    /// A service for one of the five paper strategies with paper-default
    /// parameters (same factory as the batch simulator).
    pub fn new(
        grid: GridSpec,
        match_policy: MatchPolicy,
        kind: StrategyKind,
        config: ServiceConfig,
    ) -> Self {
        Self::with_strategy(
            grid,
            match_policy,
            paper_default_strategy(kind, grid.num_cells()),
            config,
        )
    }

    /// A service around a custom strategy instance.
    pub fn with_strategy(
        grid: GridSpec,
        match_policy: MatchPolicy,
        strategy: Box<dyn PricingStrategy>,
        config: ServiceConfig,
    ) -> Self {
        Self {
            grid,
            match_policy,
            k: config.max_edges_per_task,
            step: PeriodStep::new(strategy),
            engine: TickEngine {
                lifecycle: WorkerLifecycle::open_ended(&grid),
                fault: None,
            },
            pending_tasks: Vec::new(),
            period: 0,
            watermarks: BTreeMap::new(),
            journal: None,
            poisoned: None,
        }
    }

    /// Runs the strategy's one-off Algorithm-1 calibration against
    /// `probe` (before the first tick, like the batch simulator).
    pub fn calibrate(&mut self, probe: &mut dyn maps_core::DemandProbe) {
        self.step.calibrate(probe);
    }

    /// Periods closed so far.
    pub fn periods_served(&self) -> u32 {
        self.period
    }

    /// Workers admitted over the service's lifetime.
    pub fn admitted_workers(&self) -> usize {
        self.engine.lifecycle.admitted()
    }

    /// Workers currently in the live (matchable) set. Staged churn
    /// applies at the next tick.
    pub fn live_workers(&self) -> usize {
        self.engine.lifecycle.live_count()
    }

    /// Ingests one event, dropping it (and counting it in
    /// [`ShardedService::rejected_events`]) if admission validation
    /// refuses it — the fire-and-forget shape of
    /// [`ShardedService::try_push`]. Arrivals, departures and task
    /// requests stage state; [`ServiceEvent::PeriodTick`] closes the
    /// period.
    ///
    /// # Panics
    /// Panics on a poisoned service or a journal I/O failure — the two
    /// faults fire-and-forget cannot report. Use
    /// [`ShardedService::try_push`] where those must be handled.
    pub fn push(&mut self, event: ServiceEvent) {
        if let Err(e @ (ServiceError::Poisoned(_) | ServiceError::Journal(_))) =
            self.try_push(event)
        {
            panic!("push on a failed service: {e}");
        }
    }

    /// Ingests one event, reporting *why* it was refused when admission
    /// refuses it. A [`ServiceError::Rejected`] event mutates nothing
    /// (in particular, a rejected `WorkerArrive` does **not** consume
    /// an admission id) but is counted in
    /// [`ShardedService::rejected_events`]; the stream keeps flowing.
    /// [`ServiceError::Poisoned`] and [`ServiceError::Journal`] are
    /// fatal: the service refuses all further events until recovered.
    ///
    /// Events are stamped `(producer 0, epoch = current period, seq)`,
    /// `seq` one past lane 0's watermark — the ingest layer's numbering,
    /// so a journaled serial stream recovers exactly like a
    /// multi-producer one, and a serial push after an ingest session or
    /// a recovery continues the lane instead of colliding with (and
    /// being suppressed by) what it already holds. The slot is
    /// consumed even when admission rejects the event (the watermark
    /// advances first): the stamp identifies the *delivery*, and a
    /// rejected delivery must not be re-deliverable.
    /// A push that would take seq `u64::MAX` is refused, unjournaled
    /// and uncounted, as [`ServiceError::Stamp`] (see [`StampError`]).
    pub fn try_push(&mut self, event: ServiceEvent) -> Result<(), ServiceError> {
        let (producer, seq) = match event {
            ServiceEvent::PeriodTick => (TICK_PRODUCER, 0),
            _ => (0, self.next_seq(0)),
        };
        self.push_stamped(producer, u64::from(self.period), seq, event)
    }

    /// Ingests one event carrying explicit `(producer, epoch, seq)`
    /// coordinates (recovery's replay — serial callers want
    /// [`ShardedService::try_push`]).
    ///
    /// Ordering contract: stamps arrive in the total `(epoch, producer,
    /// seq)` order, and every admission path is held to one rule before
    /// anything is journaled, counted or watermarked. A poisoned service
    /// takes nothing. A [`ServiceEvent::PeriodTick`] is exactly
    /// `(TICK_PRODUCER, epoch being served, 0)`. Any other event travels
    /// on any other lane, in the epoch being served
    /// ([`ShardedService::periods_served`]), at a seq at or below its
    /// lane's next one and below `u64::MAX`; anything else is
    /// [`ServiceError::Stamp`]. A seq below the lane's next one is a
    /// re-delivery, suppressed idempotently (counted in
    /// [`maps_simulator::Outcome::suppressed_duplicates`]) — what makes
    /// at-least-once producer reconnects safe. Admitted events are
    /// journaled **before** validation, so recovery re-counts rejections
    /// deterministically.
    pub fn push_stamped(
        &mut self,
        producer: u32,
        epoch: u64,
        seq: u64,
        event: ServiceEvent,
    ) -> Result<(), ServiceError> {
        if matches!(event, ServiceEvent::PeriodTick) {
            self.judge_stamp(producer, epoch, seq, None)?;
            return self.close_period();
        }
        let next_seq = self.judge_stamp(producer, epoch, seq, Some(1))?;
        self.admit_stamped(producer, epoch, seq, event, seq < next_seq)
    }

    /// Ingests a **contiguous run** of events from one producer:
    /// `events[k]` carries the coordinates `(producer, epoch,
    /// first_seq + k)` — the ingest sequencer's batched admission path.
    /// Equivalent to [`ShardedService::push_stamped`] once per event,
    /// the stamp judged once for the run (an empty one too: a lane's
    /// epoch-end marker), except that per-event *rejections* are counted
    /// in [`ShardedService::rejected_events`] and the run keeps going.
    /// Runs must not contain [`ServiceEvent::PeriodTick`].
    ///
    /// # Errors
    /// [`ServiceError::Stamp`] before any event is admitted, and the
    /// fatal faults ([`ServiceError::Poisoned`] / [`ServiceError::Journal`]).
    pub(crate) fn push_stamped_run(
        &mut self,
        producer: u32,
        epoch: u64,
        first_seq: u64,
        events: &[ServiceEvent],
    ) -> Result<(), ServiceError> {
        let next_seq = self.judge_stamp(producer, epoch, first_seq, Some(events.len() as u64))?;
        debug_assert!(
            !events.iter().any(|e| matches!(e, ServiceEvent::PeriodTick)),
            "runs must not contain PeriodTick"
        );
        // The judge saw `first_seq + events.len()` fit, and the events
        // lead the zip: the seqs stop there.
        for (&event, seq) in events.iter().zip(first_seq..) {
            match self.admit_stamped(producer, epoch, seq, event, seq < next_seq) {
                Ok(()) | Err(ServiceError::Rejected(_)) => {}
                Err(fatal) => return Err(fatal),
            }
        }
        Ok(())
    }

    /// The one stamp rule (see [`ShardedService::push_stamped`]) for a
    /// tick (`run` = `None`) or a run of `n ≥ 0` events (`Some(n)`); the
    /// only place a [`StampError`] is built. Returns the lane's next seq:
    /// the run's events below it are re-sends.
    fn judge_stamp(
        &self,
        producer: u32,
        epoch: u64,
        seq: u64,
        run: Option<u64>,
    ) -> Result<u64, ServiceError> {
        if let Some(panic) = &self.poisoned {
            return Err(ServiceError::Poisoned(panic.clone()));
        }
        let serving_epoch = u64::from(self.period);
        let next_seq = self.next_seq(producer);
        let lane_ok = match run {
            None => producer == TICK_PRODUCER && seq == 0,
            Some(n) => producer != TICK_PRODUCER && seq <= next_seq && seq.checked_add(n).is_some(),
        };
        if epoch == serving_epoch && lane_ok {
            return Ok(next_seq);
        }
        Err(ServiceError::Stamp(StampError {
            producer,
            epoch,
            seq,
            serving_epoch,
            next_seq,
        }))
    }

    /// The one admission body: re-send suppression → watermark →
    /// journal append → validation + dispatch, for a non-tick event whose
    /// stamp was judged.
    fn admit_stamped(
        &mut self,
        producer: u32,
        epoch: u64,
        seq: u64,
        event: ServiceEvent,
        resent: bool,
    ) -> Result<(), ServiceError> {
        if resent {
            self.step.outcome_mut().suppressed_duplicates += 1;
            return Ok(());
        }
        self.watermarks.insert(producer, (epoch, seq));
        // Journaled **before** validation, so recovery re-counts
        // rejections deterministically.
        if let Some(journal) = &mut self.journal {
            journal.writer.append(&JournalRecord {
                producer,
                epoch,
                seq,
                event,
            })?;
        }
        if let Err(rejection) = event.validate(&self.grid) {
            return Err(self.reject(rejection));
        }
        let lifecycle = &mut self.engine.lifecycle;
        match event {
            ServiceEvent::WorkerArrive { .. } if lifecycle.next_id().is_none() => {
                return Err(self.reject(EventRejection::WorkerIdsExhausted));
            }
            ServiceEvent::WorkerArrive { worker } => lifecycle.admit(self.period, &worker),
            ServiceEvent::WorkerDepart { id } => lifecycle.depart(id),
            ServiceEvent::TaskRequest { task } => self.pending_tasks.push(task),
            ServiceEvent::PeriodTick => unreachable!("ticks close via close_period"),
        }
        Ok(())
    }

    /// Counts a refused event and hands back its error.
    fn reject(&mut self, rejection: EventRejection) -> ServiceError {
        self.step.outcome_mut().rejected_events += 1;
        rejection.into()
    }

    /// Closes the current period: journals the epoch barrier (making
    /// the whole epoch durable — flush + fsync — *before* the reducer
    /// mutates state, the write-ahead ordering), runs the tick, and
    /// writes an epoch checkpoint on the configured cadence. The tick of
    /// period `u32::MAX` is journaled, then refused
    /// ([`EventRejection::PeriodsExhausted`]).
    fn close_period(&mut self) -> Result<(), ServiceError> {
        let t = self.period;
        if let Some(journal) = &mut self.journal {
            let barrier = JournalRecord::barrier(u64::from(t));
            journal.writer.append(&barrier)?;
            journal.writer.sync()?;
        }
        if t == u32::MAX {
            return Err(self.reject(EventRejection::PeriodsExhausted));
        }
        if let Err(panic) = self.run_tick() {
            self.poisoned = Some(panic.clone());
            return Err(ServiceError::Poisoned(panic));
        }
        if let Some(journal) = &self.journal {
            if self.period.is_multiple_of(journal.checkpoint_every) {
                self.write_checkpoint()?;
            }
        }
        Ok(())
    }

    /// Attaches a write-ahead journal, creating (truncating) its file
    /// and immediately writing a baseline checkpoint of the *current*
    /// state — including calibrated strategy state, which the journal
    /// itself never carries, so attach after
    /// [`ShardedService::calibrate`]. The journal owns its directory:
    /// checkpoints a previous run left there are deleted, or recovery
    /// would restore the newest of *them*.
    ///
    /// # Errors
    /// [`JournalError::NotAtEpochBoundary`], with nothing written, if a
    /// worker arrival or a task was admitted since the last tick: no
    /// checkpoint section carries the open window, so recovery would
    /// silently lose it (staged departures are one, and stay legal).
    /// I/O failures as [`JournalError::Io`].
    pub fn attach_journal(&mut self, config: &JournalConfig) -> Result<(), ServiceError> {
        if !(self.engine.lifecycle.window_is_empty() && self.pending_tasks.is_empty()) {
            return Err(JournalError::NotAtEpochBoundary.into());
        }
        std::fs::create_dir_all(&config.dir).map_err(JournalError::Io)?;
        let writer = JournalWriter::create(&config.journal_path())?;
        remove_checkpoint_files(&config.dir, &[".bin", ".tmp"])?;
        self.resume_journal(writer, config);
        self.write_checkpoint()
    }

    /// Attaches `writer` as is. After recovery the file already holds
    /// the durable prefix (torn tail truncated by the caller via
    /// [`JournalWriter::open_append`]); appending continues from there,
    /// and every lane — serial [`ShardedService::try_push`] included —
    /// resumes stamping past its recovered watermark.
    pub(crate) fn resume_journal(&mut self, writer: JournalWriter, config: &JournalConfig) {
        self.journal = Some(JournalState {
            writer,
            dir: config.dir.clone(),
            checkpoint_every: config.checkpoint_every.max(1),
        });
    }

    /// Writes `checkpoint_<period>.bin` durably (temp + fsync + rename).
    fn write_checkpoint(&mut self) -> Result<(), ServiceError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let words = self.checkpoint_words();
        write_checkpoint_file(&journal.dir, u64::from(self.period), &words)?;
        Ok(())
    }

    /// Arms a deterministic tick panic: the tick closing `period` panics
    /// inside its isolated work, exercising the `catch_unwind`
    /// poisoning path. Testkit `FaultPlan` hook — not a public API
    /// commitment.
    #[doc(hidden)]
    pub fn inject_tick_fault(&mut self, period: u32) {
        self.engine.fault = Some(period);
    }

    /// The tick panic that poisoned this service, if any.
    pub fn poisoned_by(&self) -> Option<&TickPanic> {
        self.poisoned.as_ref()
    }

    /// Events dropped by admission validation over the service's
    /// lifetime (non-finite locations, NaN valuations, …). Also
    /// available as [`maps_simulator::Outcome::rejected_events`].
    pub fn rejected_events(&self) -> u64 {
        self.step.outcome().rejected_events
    }

    /// Producer resends suppressed by the per-producer watermark (see
    /// [`ShardedService::push_stamped`]).
    pub fn suppressed_duplicates(&self) -> u64 {
        self.step.outcome().suppressed_duplicates
    }

    /// The `(epoch, seq)` of the last event admitted (or suppressed
    /// past) on `producer`'s lane — the coordinate an at-least-once
    /// producer must resume after. `None` for a lane that never sent.
    pub fn watermark(&self, producer: u32) -> Option<(u64, u64)> {
        self.watermarks.get(&producer).copied()
    }

    /// The `seq` the next fresh event on `producer`'s lane carries — the
    /// one statement of the rule serial pushes, the stamp rule and
    /// recovery's replay all count by: one past the lane's watermark
    /// if that sits in the epoch being served, else the epoch's first.
    /// `u64::MAX`, the seq no event takes, once the lane's seqs for the
    /// epoch are spent.
    pub(crate) fn next_seq(&self, producer: u32) -> u64 {
        match self.watermark(producer) {
            Some((epoch, seq)) if epoch == u64::from(self.period) => seq.saturating_add(1),
            _ => 0,
        }
    }

    /// Every lane's [`ShardedService::watermark`] as `(producer, epoch,
    /// seq)`, ascending by producer; lanes that never sent have none.
    pub(crate) fn watermarks(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        let lanes = self.watermarks.iter();
        lanes.map(|(&producer, &(epoch, seq))| (producer, epoch, seq))
    }

    /// Borrowing snapshot of the outcome accumulated so far — **O(1)**,
    /// no allocation: the reducer keeps every field (price moments
    /// included) complete at each tick, so monitoring a live service
    /// mid-stream costs a borrow instead of cloning the O(periods)
    /// `revenue_per_period` series; [`ShardedService::into_outcome`]
    /// moves the final result out.
    pub fn outcome_snapshot(&self) -> &Outcome {
        self.step.outcome()
    }

    /// Consumes the service, returning the final outcome. Move-only: no
    /// clone happens on this path.
    pub fn into_outcome(self) -> Outcome {
        self.step.into_outcome()
    }

    /// Closes the current period: `fire`, churn apply and the graph
    /// build (isolated, see [`TickEngine`]), then pricing, clearing and
    /// the matched pairs' lifecycle — [`PeriodStep::run`], the batch
    /// loop's own period. A panic in the isolated part comes back as a
    /// [`TickPanic`] and the caller poisons the service. The
    /// *strategy*'s own panics are deliberately **not** caught — a
    /// strategy is caller-supplied code, and its panic propagates like
    /// any callback's.
    fn run_tick(&mut self) -> Result<(), TickPanic> {
        let t = self.period;
        self.step.run(
            t,
            &self.grid,
            &self.pending_tasks,
            self.match_policy,
            self.k,
            &mut self.engine,
        )?;
        self.pending_tasks.clear();
        self.period = t + 1;
        Ok(())
    }

    // ---- checkpoint serialization (see `crate::recovery`) ----

    /// Serializes the complete post-tick state as a flat word stream
    /// (floats as IEEE-754 bits). Taken at epoch boundaries only —
    /// right after a tick, or where [`ShardedService::attach_journal`]
    /// checked — when the admission window and the pending tasks are
    /// empty; staged departures (the closing tick's matched pairs) and
    /// everything else the next tick reads are captured. The layout is
    /// private to this crate — [`crate::recovery`] is the reader.
    pub(crate) fn checkpoint_words(&self) -> Vec<u64> {
        debug_assert!(
            self.pending_tasks.is_empty(),
            "checkpoint off an epoch boundary"
        );
        let lifecycle = &self.engine.lifecycle;
        // -- outcome accumulator, price moments, strategy state: the
        //    last section, and the one whose length only writing it
        //    tells — so it is written first, aside. Then every section
        //    is counted and the words (megabytes on a long run) are
        //    reserved once, exactly: no growth copy, and no doubled
        //    capacity held while the file is encoded from them. --
        let mut run_state = Vec::new();
        self.step.save(&mut run_state);
        // Six header words; the watermark count.
        let mut w = Vec::with_capacity(
            6 + lifecycle.saved_words() + (1 + 3 * self.watermarks.len()) + run_state.len(),
        );
        // -- validation header --
        w.push(self.grid.num_cells() as u64);
        w.push(self.k as u64);
        match self.match_policy {
            MatchPolicy::Consume => {
                w.push(0);
                w.push(0);
            }
            MatchPolicy::Relocate { speed } => {
                w.push(1);
                w.push(speed.to_bits());
            }
        }
        w.push(u64::from(self.period));
        // -- where the journal stood: recovery reads it from here on
        //    (0, never a journal offset, with none attached) --
        let journal = self.journal.as_ref();
        w.push(journal.map_or(0, |journal| journal.writer.end_offset()));
        // -- lifecycle records, live workers (ascending id), staged
        //    departures, timed schedule --
        lifecycle.save(&mut w);
        // -- producer watermarks, ascending by producer --
        w.push(self.watermarks.len() as u64);
        for (producer, epoch, seq) in self.watermarks() {
            w.extend([u64::from(producer), epoch, seq]);
        }
        w.extend(run_state);
        w
    }

    /// Restores state written by [`ShardedService::checkpoint_words`]
    /// into this freshly constructed service. The service must have
    /// been built with the same grid, edge cap, match policy and
    /// strategy as the checkpointed one (validated against the header,
    /// the strategy by the name in the run state). Every word is outside
    /// input: counts go through [`StateWords::take_len`], and a value
    /// that would trip an assertion of the cache is a
    /// [`StateError::Mismatch`]. Returns the header's journal offset,
    /// which only the journal can check
    /// ([`crate::journal::read_journal_from`]).
    pub(crate) fn restore(&mut self, words: &[u64]) -> Result<u64, StateError> {
        use StateError::Mismatch;
        let r = &mut StateWords::new(words);
        // -- validation header --
        if r.take()? != self.grid.num_cells() as u64 {
            return Err(Mismatch("checkpoint grid size mismatch"));
        }
        if r.take()? != self.k as u64 {
            return Err(Mismatch("checkpoint edge-cap mismatch"));
        }
        let (policy_tag, speed_bits) = (r.take()?, r.take()?);
        let policy_ok = match self.match_policy {
            MatchPolicy::Consume => policy_tag == 0,
            MatchPolicy::Relocate { speed } => policy_tag == 1 && speed_bits == speed.to_bits(),
        };
        if !policy_ok {
            return Err(Mismatch("checkpoint match-policy mismatch"));
        }
        self.period =
            u32::try_from(r.take()?).map_err(|_| Mismatch("checkpoint period out of range"))?;
        let journal_offset = r.take()?;
        // -- lifecycle records, live workers, staged departures, timed
        //    schedule --
        self.engine.lifecycle.load(r)?;
        // -- watermarks: producers strictly ascending, none the tick's;
        //    none past the period, where every later event of its lane
        //    would be taken for a re-send --
        self.watermarks.clear();
        for _ in 0..r.take_len(3)? {
            let (producer, epoch, seq) = (r.take()?, r.take()?, r.take()?);
            if epoch > u64::from(self.period) {
                return Err(Mismatch("checkpoint watermark is past its period"));
            }
            let last = self.watermarks.last_key_value().map(|(&p, _)| p);
            let producer = u32::try_from(producer)
                .ok()
                .filter(|&p| p != TICK_PRODUCER && Some(p) > last)
                .ok_or(Mismatch(
                    "checkpoint watermark producer is not a lane above the last",
                ))?;
            self.watermarks.insert(producer, (epoch, seq));
        }
        // -- outcome accumulator, price moments, strategy state --
        self.step.load(r)?;
        Ok(journal_offset)
    }
}

/// Where the sections of [`ShardedService::checkpoint_words`] start,
/// found by walking their counts the way [`ShardedService::restore`]
/// does. The layout tests of this crate aim their lies through it, so a
/// new header word or section moves them all at once instead of
/// silently retargeting a hard-coded index.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct CheckpointLayout {
    pub(crate) period: usize,
    pub(crate) journal_offset: usize,
    /// The record count; the status lane's word count follows it.
    pub(crate) record_count: usize,
    /// First word of the status lane.
    pub(crate) status_lane: usize,
    /// First `expires_at`: one per record that is not `Gone`.
    pub(crate) expiries: usize,
    /// The live count, then `id, x, y, radius` per live worker.
    pub(crate) live_count: usize,
    /// The schedule's period count, then per period `t, entries` and
    /// per entry `tag, id` (a release: three more).
    pub(crate) schedule_count: usize,
    /// The watermark count, then `producer, epoch, seq` per lane.
    pub(crate) watermarks: usize,
}

#[cfg(test)]
impl CheckpointLayout {
    pub(crate) fn of(words: &[u64]) -> Self {
        // Grid, edge cap, match policy and speed; then the period.
        let period = 4;
        let record_count = period + 2;
        let status_lane = record_count + 2;
        let expiries = status_lane + words[record_count + 1] as usize;
        let kept = (0..words[record_count] as usize)
            .filter(|id| words[status_lane + id / 32] >> (2 * (id % 32)) & 3 != 2)
            .count();
        let live_count = expiries + kept;
        let departure_count = live_count + 1 + 4 * words[live_count] as usize;
        let schedule_count = departure_count + 1 + words[departure_count] as usize;
        let mut watermarks = schedule_count + 1;
        for _ in 0..words[schedule_count] {
            let entries = words[watermarks + 1];
            watermarks += 2;
            for _ in 0..entries {
                watermarks += if words[watermarks] == 1 { 5 } else { 2 };
            }
        }
        Self {
            period,
            journal_offset: period + 1,
            record_count,
            status_lane,
            expiries,
            live_count,
            schedule_count,
            watermarks,
        }
    }
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("strategy", &self.step.outcome().strategy)
            .field("period", &self.period)
            .field("admitted", &self.admitted_workers())
            .field("live", &self.live_workers())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use maps_spatial::{CellId, Point, Rect};
    use std::time::Instant;

    /// Restores into `svc`, a service whose lanes never sent, its own
    /// checkpoint with lane `producer` standing at `(epoch being served,
    /// seq)`: how a test puts a lane near the end of its seqs without a
    /// gap — the way recovery does, from a watermark word.
    pub(crate) fn restore_lane_at(svc: &mut ShardedService, producer: u32, seq: u64) {
        let mut words = svc.checkpoint_words();
        let at = CheckpointLayout::of(&words).watermarks;
        assert_eq!(words[at], 0, "a service whose lanes never sent");
        words[at] = 1;
        let lane = [u64::from(producer), u64::from(svc.period), seq];
        words.splice(at + 1..at + 1, lane);
        svc.restore(&words)
            .expect("its own checkpoint, one lane added");
    }

    fn grid() -> GridSpec {
        GridSpec::square(Rect::square(10.0), 2)
    }

    fn worker(x: f64, y: f64, duration: u32) -> GroundWorker {
        GroundWorker {
            location: Point::new(x, y),
            radius: 4.0,
            duration,
        }
    }

    fn task(x: f64, y: f64) -> GroundTask {
        let grid = grid();
        let origin = Point::new(x, y);
        GroundTask {
            origin,
            destination: Point::new(9.0, 9.0),
            distance: 1.0,
            valuation: 4.9, // accepts any ladder price
            cell: grid.cell_of(origin),
        }
    }

    fn service(policy: MatchPolicy) -> ShardedService {
        ShardedService::new(
            grid(),
            policy,
            StrategyKind::BaseP,
            ServiceConfig::default(),
        )
    }

    #[test]
    fn arrivals_expire_on_schedule() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, 2),
        });
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(9.0, 9.0, u32::MAX),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 2);
        assert_eq!(svc.admitted_workers(), 2);
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 2, "duration 2 spans periods 0–1");
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 1, "expiry fired at period 2");
    }

    #[test]
    fn zero_duration_arrival_takes_an_id_but_never_lives() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, 0),
        });
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(2.0, 2.0, u32::MAX),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.admitted_workers(), 2);
        assert_eq!(svc.live_workers(), 1);
    }

    #[test]
    fn depart_before_first_tick_cancels_the_staged_arrival() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::WorkerDepart { id: 0 });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 0);
        // Departing again — or a stale id the service never admitted —
        // is a no-op, not a panic: one bad client event must not take
        // the stream down.
        svc.push(ServiceEvent::WorkerDepart { id: 0 });
        svc.push(ServiceEvent::WorkerDepart { id: 42 });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 0);
    }

    #[test]
    fn explicit_departure_after_ticks_leaves_at_next_tick() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 1);
        svc.push(ServiceEvent::WorkerDepart { id: 0 });
        assert_eq!(svc.live_workers(), 1, "staged until the tick");
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 0);
    }

    #[test]
    fn matched_consume_worker_is_gone_next_period() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::TaskRequest {
            task: task(1.5, 1.0),
        });
        svc.push(ServiceEvent::PeriodTick);
        let out = svc.outcome_snapshot();
        assert_eq!(out.issued_tasks, 1);
        assert_eq!(out.matched_tasks, 1);
        assert!(out.total_revenue > 0.0);
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.live_workers(), 0, "consumed worker departed");
    }

    #[test]
    fn relocation_releases_worker_at_its_destination() {
        // The worker starts at (1,1), cell 0; the task's destination
        // (9,9) lies in cell 3. Distance 1 at speed 1 → busy 1 period,
        // released at period 1.
        let mut svc = service(MatchPolicy::Relocate { speed: 1.0 });
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::TaskRequest {
            task: task(1.5, 1.0),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.outcome_snapshot().matched_tasks, 1);
        svc.push(ServiceEvent::PeriodTick); // release fires at period 1
        assert_eq!(svc.live_workers(), 1);
        let released = svc.engine.worker_inputs()[0];
        assert_eq!(released.location, Point::new(9.0, 9.0));
        assert_eq!(released.cell, grid().cell_of(Point::new(9.0, 9.0)));
    }

    /// Non-finite geometry/economics is refused at admission — before
    /// any state (in particular the admission-id counter) is touched.
    /// Without this, `Grid::cell_of` files NaN under a boundary cell
    /// and pricing is corrupted invisibly; a zero-distance task would
    /// even panic the tick reducer (`TaskInput::new`).
    #[test]
    fn non_finite_events_are_rejected_at_admission() {
        let mut svc = service(MatchPolicy::Consume);
        let rejection = |result: Result<(), ServiceError>| match result {
            Err(ServiceError::Rejected(r)) => r,
            other => panic!("expected a rejection, got {other:?}"),
        };
        let mut w = worker(1.0, 1.0, u32::MAX);
        w.location = Point::new(f64::NAN, 1.0);
        assert_eq!(
            rejection(svc.try_push(ServiceEvent::WorkerArrive { worker: w })),
            EventRejection::NonFiniteWorkerLocation
        );
        assert_eq!(svc.admitted_workers(), 0, "no admission id consumed");

        let mut w = worker(1.0, 1.0, u32::MAX);
        w.radius = f64::INFINITY;
        assert_eq!(
            rejection(svc.try_push(ServiceEvent::WorkerArrive { worker: w })),
            EventRejection::InvalidWorkerRadius
        );

        let mut t = task(1.5, 1.0);
        t.origin = Point::new(1.0, f64::NAN);
        assert_eq!(
            rejection(svc.try_push(ServiceEvent::TaskRequest { task: t })),
            EventRejection::NonFiniteTaskEndpoint
        );
        let mut t = task(1.5, 1.0);
        t.distance = 0.0;
        assert_eq!(
            rejection(svc.try_push(ServiceEvent::TaskRequest { task: t })),
            EventRejection::InvalidTaskDistance
        );
        let mut t = task(1.5, 1.0);
        t.valuation = f64::NAN;
        assert_eq!(
            rejection(svc.try_push(ServiceEvent::TaskRequest { task: t })),
            EventRejection::NonFiniteTaskValuation
        );
        assert_eq!(svc.rejected_events(), 5);
        assert_eq!(svc.outcome_snapshot().rejected_events, 5);

        // The stream keeps flowing: valid events after the rejects work.
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::TaskRequest {
            task: task(1.5, 1.0),
        });
        svc.push(ServiceEvent::PeriodTick);
        let out = svc.outcome_snapshot();
        assert_eq!(out.issued_tasks, 1, "rejected tasks were never issued");
        assert_eq!(out.matched_tasks, 1);
        assert_eq!(svc.admitted_workers(), 1);
    }

    /// A task's cell is caller input (`CellId` is a public tuple struct)
    /// and pricing indexes per-cell state by it: a cell past the grid
    /// used to panic the next tick out of `try_push`, and a wrong one
    /// in range was priced and observed in the cell it named. Both are
    /// refused at admission, as `GroundTruth::validate` refuses them on
    /// the batch path, and the tick runs.
    #[test]
    fn task_cell_mismatch_is_rejected_and_the_tick_runs() {
        let config = ServiceConfig::default();
        let mut svc = ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Maps, config);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        for cell in [CellId(4_000_000), CellId(3)] {
            let mut t = task(1.0, 1.0);
            assert_eq!(t.cell, CellId(0), "(1, 1) lies in cell 0");
            t.cell = cell;
            assert!(matches!(
                svc.try_push(ServiceEvent::TaskRequest { task: t }),
                Err(ServiceError::Rejected(EventRejection::TaskCellMismatch))
            ));
        }
        assert_eq!(svc.rejected_events(), 2);
        assert!(svc.pending_tasks.is_empty(), "nothing staged");
        svc.try_push(ServiceEvent::PeriodTick)
            .expect("the tick runs");
        assert_eq!(svc.outcome_snapshot().issued_tasks, 0);
        assert_eq!((svc.periods_served(), svc.live_workers()), (1, 1));
    }

    /// A lane's seqs in an epoch stop below `u64::MAX`. A serial push on
    /// a lane whose next seq is `u64::MAX` used to overflow `next_seq`:
    /// a panic in debug, and in release a wrap to seq 0 that the
    /// watermark took for a duplicate. It is refused before it is
    /// journaled or counted, the service is not poisoned, and the next
    /// epoch's lane starts at 0. The lane gets there without a gap, from
    /// a restored watermark.
    #[test]
    fn a_serial_push_past_the_last_seq_is_refused_not_wrapped() {
        let dir = crate::test_dir("seq_limit");
        let journal = JournalConfig::new(&dir, 1);
        let mut svc = service(MatchPolicy::Consume);
        restore_lane_at(&mut svc, 0, u64::MAX - 2);
        svc.attach_journal(&journal).unwrap();
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        };
        svc.push_stamped(0, 0, u64::MAX - 1, arrive).unwrap();
        let spent = StampError {
            producer: 0,
            epoch: 0,
            seq: u64::MAX,
            serving_epoch: 0,
            next_seq: u64::MAX,
        };
        for _ in 0..2 {
            let refused = svc.try_push(arrive);
            assert!(matches!(refused, Err(ServiceError::Stamp(e)) if e == spent));
        }
        let counts = |svc: &ShardedService| {
            let dropped = (svc.rejected_events(), svc.suppressed_duplicates());
            (svc.admitted_workers(), dropped)
        };
        assert_eq!(counts(&svc), (1, (0, 0)), "nothing counted");
        svc.try_push(ServiceEvent::PeriodTick)
            .expect("not poisoned");
        svc.try_push(arrive).expect("the next epoch starts at 0");
        assert_eq!(svc.watermark(0), Some((1, 0)));
        assert_eq!(counts(&svc), (2, (0, 0)));
        svc.try_push(ServiceEvent::PeriodTick).unwrap();
        let records = crate::read_journal(&journal.journal_path())
            .unwrap()
            .records;
        let stamps: Vec<_> = records
            .iter()
            .map(|r| (r.producer, r.epoch, r.seq))
            .collect();
        let tick = TICK_PRODUCER;
        let journaled = [(0, 0, u64::MAX - 1), (tick, 0, 0), (0, 1, 0), (tick, 1, 0)];
        assert_eq!(stamps, journaled, "nothing journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stamp must name the epoch being served, and only a tick may
    /// travel on [`TICK_PRODUCER`]. An arrival stamped for epoch 5 used
    /// to be admitted: lane 0's watermark became `(5, 0)`, the next
    /// serial push was suppressed as a duplicate, and recovery refused
    /// the journal ("record outside the epoch being replayed"). Both
    /// are refused before they are journaled, counted or watermarked;
    /// the service is not poisoned, the next serial push is admitted,
    /// and recovery returns the uninterrupted bits.
    #[test]
    fn a_stamp_outside_the_served_epoch_or_lane_is_refused() {
        let dir = crate::test_dir("stamp_epoch");
        let journal = JournalConfig::new(&dir, 1);
        let mut svc = service(MatchPolicy::Consume);
        svc.attach_journal(&journal).unwrap();
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        };
        let refused = |producer, epoch| StampError {
            producer,
            epoch,
            seq: 0,
            serving_epoch: 0,
            next_seq: 0,
        };
        for (producer, epoch) in [(0, 5), (TICK_PRODUCER, 0), (TICK_PRODUCER, 5)] {
            let pushed = svc.push_stamped(producer, epoch, 0, arrive);
            let want = refused(producer, epoch);
            assert!(
                matches!(pushed, Err(ServiceError::Stamp(e)) if e == want),
                "{pushed:?}"
            );
        }
        let tick = svc.push_stamped(TICK_PRODUCER, 1, 0, ServiceEvent::PeriodTick);
        assert!(matches!(tick, Err(ServiceError::Stamp(e)) if e.epoch == 1));
        assert_eq!(svc.watermark(0), None, "nothing watermarked");
        assert_eq!((svc.rejected_events(), svc.suppressed_duplicates()), (0, 0));
        assert_eq!(svc.periods_served(), 0, "no tick closed the period");
        svc.try_push(arrive)
            .expect("the next serial push is admitted");
        svc.try_push(ServiceEvent::PeriodTick)
            .expect("not poisoned");
        assert_eq!((svc.admitted_workers(), svc.live_workers()), (1, 1));
        let uninterrupted = svc.outcome_snapshot().deterministic_bits();
        drop(svc);

        let recovered = crate::recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
            ServiceConfig::default(),
            &journal,
        )
        .expect("the journal holds only admitted stamps");
        let svc = recovered.service;
        assert_eq!((svc.periods_served(), svc.live_workers()), (1, 1));
        assert_eq!(svc.outcome_snapshot().deterministic_bits(), uninterrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `push_stamped` holds a stamp to the rule `merge` holds a lane's
    /// runs to: both go through the service's one judge. A seq gap and
    /// `u64::MAX` on a fresh lane used to be admitted (the gap's missing
    /// seqs would later be suppressed as duplicates), and a tick stamped
    /// with seq 1 or on lane 0 closed the period. Each is refused with
    /// the fields `merge` reports for the same stamp, before anything is
    /// journaled, counted or watermarked.
    #[test]
    fn push_stamped_refuses_what_merge_refuses() {
        const NEAR_END: u32 = 3;
        let dir = crate::test_dir("stamp_rule");
        let journal = JournalConfig::new(&dir, 1);
        let fresh = || {
            let mut svc = service(MatchPolicy::Consume);
            restore_lane_at(&mut svc, NEAR_END, u64::MAX - 1);
            svc
        };
        let mut svc = fresh();
        svc.attach_journal(&journal).unwrap();
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        };
        let tick = ServiceEvent::PeriodTick;
        let refused = |producer, seq, next_seq| StampError {
            producer,
            epoch: 0,
            seq,
            serving_epoch: 0,
            next_seq,
        };
        let rows = [
            ("a seq gap", 0, 2, arrive, refused(0, 2, 0)),
            (
                "u64::MAX on a fresh lane",
                0,
                u64::MAX,
                arrive,
                refused(0, u64::MAX, 0),
            ),
            (
                "a run ending at u64::MAX",
                NEAR_END,
                u64::MAX,
                arrive,
                refused(NEAR_END, u64::MAX, u64::MAX),
            ),
            (
                "a tick with seq 1",
                TICK_PRODUCER,
                1,
                tick,
                refused(TICK_PRODUCER, 1, 0),
            ),
            ("a tick on lane 0", 0, 0, tick, refused(0, 0, 0)),
        ];
        for (what, producer, seq, event, want) in rows {
            let pushed = svc.push_stamped(producer, 0, seq, event);
            assert!(
                matches!(pushed, Err(ServiceError::Stamp(e)) if e == want),
                "{what}: {pushed:?}"
            );
            if matches!(event, ServiceEvent::PeriodTick) {
                continue; // a lane's marker never reaches the service as a tick
            }
            // `merge` over lanes whose only run is this one event.
            let mut held = Some(crate::ingest::Run {
                epoch: 0,
                seq,
                marker: false,
            });
            let lane = producer as usize;
            let mut next_run = |p, run: &mut Vec<_>| {
                let head = held.take_if(|_| p == lane)?;
                run.push(event);
                Some(head)
            };
            let merged = crate::ingest::merge(&mut fresh(), lane + 1, &mut next_run, |_, _| {});
            assert!(
                matches!(merged, Err(ServiceError::Stamp(e)) if e == want),
                "{what}: merge says {merged:?}"
            );
        }
        assert_eq!(svc.periods_served(), 0, "no tick closed the period");
        let counts = (svc.rejected_events(), svc.suppressed_duplicates());
        assert_eq!(
            (svc.admitted_workers(), counts),
            (0, (0, 0)),
            "nothing counted"
        );
        let lanes = [0, NEAR_END, TICK_PRODUCER].map(|p| svc.watermark(p));
        let stood = [None, Some((0, u64::MAX - 1)), None];
        assert_eq!(lanes, stood, "nothing watermarked");
        let journaled = crate::read_journal(&journal.journal_path()).unwrap();
        assert!(journaled.records.is_empty(), "nothing journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The period counter is a `u32`: the tick of period `u32::MAX` is
    /// refused rather than wrapping the counter to 0, where every later
    /// event's `(epoch, seq)` would sit below its lane's watermark and be
    /// suppressed as a duplicate. The period stays open and keeps
    /// admitting. The refused tick is journaled, so recovery replays the
    /// same refusals to the same state. The counter is set, not counted
    /// up, before the journal is attached.
    #[test]
    fn the_tick_of_period_u32_max_is_refused_and_replays_refused() {
        let dir = crate::test_dir("period_limit");
        let journal = JournalConfig::new(&dir, 1);
        let mut svc = service(MatchPolicy::Consume);
        svc.period = u32::MAX - 1;
        svc.attach_journal(&journal).unwrap();
        let arrive = |x| ServiceEvent::WorkerArrive {
            worker: worker(x, 1.0, u32::MAX),
        };
        svc.push(arrive(1.0));
        svc.try_push(ServiceEvent::PeriodTick)
            .expect("the tick of period u32::MAX - 1 closes it");
        assert_eq!(svc.periods_served(), u32::MAX);
        for x in [2.0, 3.0] {
            svc.push(arrive(x));
            assert!(matches!(
                svc.try_push(ServiceEvent::PeriodTick),
                Err(ServiceError::Rejected(EventRejection::PeriodsExhausted))
            ));
        }
        // The open window holds the two workers admitted since.
        let state = |svc: &ShardedService| {
            let sizes = (svc.admitted_workers(), svc.live_workers());
            (
                svc.periods_served(),
                svc.watermark(0),
                svc.rejected_events(),
                sizes,
            )
        };
        let stands = (u32::MAX, Some((u64::from(u32::MAX), 1)), 2, (3, 1));
        assert_eq!(state(&svc), stands, "not wrapped to 0");
        drop(svc);

        let recovered = crate::recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
            ServiceConfig::default(),
            &journal,
        )
        .unwrap();
        assert_eq!(recovered.epochs_replayed, 2, "two refused ticks");
        assert_eq!(state(&recovered.service), stands);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the O(n²) same-window cancellation: departing a
    /// staged arrival used to `position()`-scan the whole staging
    /// buffer. Arriving n workers and departing them newest-first put
    /// every target at the end of the scan — ~n²/2 tuple compares per
    /// window (minutes at this size in a debug test run). With the
    /// id→slot staging map the window is O(n).
    #[test]
    fn high_churn_same_window_cancellation_is_linear() {
        let n: u32 = 50_000;
        #[expect(clippy::disallowed_methods, reason = "a test may time itself")]
        let start = Instant::now();
        let mut svc = service(MatchPolicy::Consume);
        for i in 0..n {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + (i % 8) as f64, 1.0, u32::MAX),
            });
        }
        for id in (0..n).rev() {
            svc.push(ServiceEvent::WorkerDepart { id });
        }
        // One survivor proves cancellation didn't eat the wrong slots.
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.admitted_workers(), n as usize + 1);
        assert_eq!(svc.live_workers(), 1);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "same-window cancellation took {:?} for {n} pairs — quadratic again?",
            start.elapsed()
        );
    }

    /// The O(1) snapshot view moves only at a tick (an owned copy taken
    /// before a window's events still equals it mid-window), is complete
    /// after each one, and `into_outcome` hands back the same final value.
    #[test]
    fn snapshot_borrow_matches_cloned_outcome() {
        let mut svc = service(MatchPolicy::Consume);
        for i in 0..3u32 {
            let owned = svc.outcome_snapshot().clone();
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + i as f64, 1.0, u32::MAX),
            });
            svc.push(ServiceEvent::TaskRequest {
                task: task(1.5 + i as f64, 1.0),
            });
            assert_eq!(svc.outcome_snapshot(), &owned, "mid-window");
            svc.push(ServiceEvent::PeriodTick);
            let snapshot = svc.outcome_snapshot();
            assert_ne!(snapshot, &owned, "post-tick");
            assert!(snapshot.mean_posted_price > 0.0, "moments are complete");
        }
        let bits = svc.outcome_snapshot().deterministic_bits();
        assert_eq!(svc.into_outcome().deterministic_bits(), bits);
    }

    /// An injected tick panic must surface as a typed
    /// [`ServiceError::Poisoned`] from the tick — and poison every
    /// subsequent push — rather than unwinding through the caller.
    #[test]
    fn injected_tick_panic_poisons_with_typed_error() {
        let mut svc = service(MatchPolicy::Consume);
        svc.inject_tick_fault(0);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(9.0, 9.0, u32::MAX),
        });
        let err = svc.try_push(ServiceEvent::PeriodTick).unwrap_err();
        let ServiceError::Poisoned(panic) = err else {
            panic!("expected Poisoned, got {err:?}");
        };
        assert_eq!(panic.period, 0);
        assert_eq!(panic.message, "injected tick fault");
        assert_eq!(svc.poisoned_by(), Some(&panic));
        // Poisoned services refuse everything, loudly.
        assert!(matches!(
            svc.try_push(ServiceEvent::WorkerArrive {
                worker: worker(1.0, 1.0, u32::MAX)
            }),
            Err(ServiceError::Poisoned(_))
        ));
    }

    /// At-least-once resends at or below a producer's `(epoch, seq)`
    /// watermark are suppressed idempotently and audited.
    #[test]
    fn duplicate_resends_are_suppressed_by_watermark() {
        let mut svc = service(MatchPolicy::Consume);
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        };
        svc.push_stamped(0, 0, 0, arrive).unwrap();
        svc.push_stamped(0, 0, 1, arrive).unwrap();
        assert_eq!(svc.admitted_workers(), 2);
        // Re-delivery of both, plus a stale lower seq: all suppressed.
        svc.push_stamped(0, 0, 0, arrive).unwrap();
        svc.push_stamped(0, 0, 1, arrive).unwrap();
        assert_eq!(svc.admitted_workers(), 2, "duplicates not re-admitted");
        assert_eq!(svc.suppressed_duplicates(), 2);
        assert_eq!(svc.outcome_snapshot().suppressed_duplicates, 2);
        // A fresh seq on the same lane is admitted.
        svc.push_stamped(0, 0, 2, arrive).unwrap();
        assert_eq!(svc.admitted_workers(), 3);
        // Other lanes have independent watermarks.
        svc.push_stamped(3, 0, 0, arrive).unwrap();
        assert_eq!(svc.admitted_workers(), 4);
    }

    /// A producer id is a key, not a size: lane 4·10⁹ used to resize the
    /// watermark table to 4·10⁹ + 1 entries (≈ 96 GiB) and kill the
    /// process in the allocator. It costs one entry, in memory and in a
    /// checkpoint, like lanes 0 and 7 with 1–6 silent.
    #[test]
    fn a_producer_id_costs_one_watermark_not_a_table() {
        const FAR: u32 = 4_000_000_000;
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, u32::MAX),
        };
        let mut svc = service(MatchPolicy::Consume);
        svc.push_stamped_run(FAR, 0, 0, &[arrive; 6]).unwrap();
        assert_eq!(svc.watermark(FAR), Some((0, 5)));
        svc.push_stamped(FAR, 0, 5, arrive).unwrap();
        assert_eq!(svc.suppressed_duplicates(), 1, "a resend on that lane");
        svc.push_stamped(0, 0, 0, arrive).unwrap();
        svc.push_stamped_run(7, 0, 0, &[arrive; 4]).unwrap();
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.admitted_workers(), 11);

        let words = svc.checkpoint_words();
        let at = CheckpointLayout::of(&words).watermarks;
        let far = u64::from(FAR);
        let section = [3, 0, 0, 0, 7, 0, 3, far, 0, 5];
        assert_eq!(words[at..at + section.len()], section);
        let mut restored = service(MatchPolicy::Consume);
        restored.restore(&words).unwrap();
        for lane in (0..=8).chain([FAR - 1, FAR, FAR + 1]) {
            assert_eq!(restored.watermark(lane), svc.watermark(lane), "lane {lane}");
        }
        assert_eq!(restored.next_seq(7), 0, "epoch 1 starts every lane at 0");
        assert_eq!(restored.checkpoint_words(), words);
    }

    /// Checkpoint words must capture the *complete* post-tick state: a
    /// restored service continues bit-identically to the original —
    /// including staged matched-pair departures, the timed schedule,
    /// busy relocations and learned strategy state.
    #[test]
    fn checkpoint_words_restore_bit_identically() {
        let drive = |svc: &mut ShardedService, from: u32, to: u32| {
            for t in from..to {
                svc.push(ServiceEvent::WorkerArrive {
                    worker: worker(1.0 + (t % 7) as f64, 1.0 + (t % 3) as f64, 3),
                });
                svc.push(ServiceEvent::WorkerArrive {
                    worker: worker(8.0 - (t % 5) as f64, 8.0, u32::MAX),
                });
                svc.push(ServiceEvent::TaskRequest {
                    task: task(1.5 + (t % 4) as f64, 1.0),
                });
                if t % 3 == 2 {
                    svc.push(ServiceEvent::WorkerDepart { id: t });
                }
                svc.push(ServiceEvent::PeriodTick);
            }
        };
        for policy in [MatchPolicy::Consume, MatchPolicy::Relocate { speed: 0.5 }] {
            let mut reference = service(policy);
            drive(&mut reference, 0, 4);
            let words = reference.checkpoint_words();
            drive(&mut reference, 4, 8);
            let expected = reference.into_outcome().deterministic_bits();
            let mut restored = service(policy);
            restored.restore(&words).unwrap();
            assert_eq!(restored.periods_served(), 4);
            drive(&mut restored, 4, 8);
            assert_eq!(
                restored.into_outcome().deterministic_bits(),
                expected,
                "restore diverged ({policy:?})"
            );
        }
    }

    /// The checkpoint's live section keeps the layout it always had — a
    /// count, then `id, x, y, radius` per live worker in ascending id
    /// order — with relocated workers back under their old ids.
    #[test]
    fn checkpoint_live_section_keeps_its_layout() {
        let mut rng = maps_testkit::XorShift(0xC4EC);
        let mut svc = service(MatchPolicy::Relocate { speed: 3.0 });
        for _ in 0..10 {
            for _ in 0..7 {
                let (x, y) = (rng.next_f64() * 10.0, rng.next_f64() * 10.0);
                let mut worker = worker(x, y, 3 + (rng.next_u64() % 5) as u32);
                worker.radius = 1.0 + rng.next_f64() * 4.0;
                svc.push(ServiceEvent::WorkerArrive { worker });
            }
            for _ in 0..3 {
                let mut task = task(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
                task.destination = Point::new(rng.next_f64() * 10.0, rng.next_f64() * 10.0);
                task.distance = 1.0 + rng.next_f64() * 6.0;
                svc.push(ServiceEvent::TaskRequest { task });
            }
            svc.push(ServiceEvent::PeriodTick);
        }
        let lifecycle = &svc.engine.lifecycle;
        let mut want = vec![lifecycle.live_count() as u64];
        for (id, input) in lifecycle.live_workers() {
            let (x, y) = (input.location.x.to_bits(), input.location.y.to_bits());
            want.extend([u64::from(id), x, y, input.radius.to_bits()]);
        }
        assert!(want.len() > 4 * 10, "live set too small");
        let ids: Vec<u64> = want[1..].iter().step_by(4).copied().collect();
        assert!(ids.is_sorted(), "ascending ids");
        // The section holds the dense view's workers, reordered by id.
        let bits = |w: &WorkerInput| [w.location.x, w.location.y, w.radius].map(f64::to_bits);
        let mut saved: Vec<[u64; 3]> = want[1..].chunks(4).map(|e| [e[1], e[2], e[3]]).collect();
        let mut dense: Vec<[u64; 3]> = lifecycle.worker_inputs().iter().map(bits).collect();
        saved.sort_unstable();
        dense.sort_unstable();
        assert_eq!(saved, dense, "the live section is the dense view");
        let words = svc.checkpoint_words();
        let live = CheckpointLayout::of(&words).live_count;
        assert_eq!(words[live..live + want.len()], want);
    }

    /// The validation header refuses checkpoints from a differently
    /// configured service instead of restoring garbage.
    #[test]
    fn checkpoint_header_mismatches_are_rejected() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::PeriodTick);
        let words = svc.checkpoint_words();
        let mut other_policy = service(MatchPolicy::Relocate { speed: 1.0 });
        assert!(other_policy.restore(&words).is_err());
        let config = ServiceConfig::default();
        let mut other_strategy =
            ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Maps, config);
        assert!(other_strategy.restore(&words).is_err());
        let mut truncated = service(MatchPolicy::Consume);
        assert!(truncated.restore(&words[..words.len() - 1]).is_err());
        // 2³² + e must not restore as period e.
        let mut lying_period = words.clone();
        lying_period[CheckpointLayout::of(&words).period] += 1 << 32;
        assert_eq!(
            service(MatchPolicy::Consume).restore(&lying_period),
            Err(StateError::Mismatch("checkpoint period out of range"))
        );
    }

    /// So must the words the lifecycle table holds as `u32`: a record's
    /// expiry, a schedule time key, and a scheduled id — which,
    /// truncated, would pass its own range check.
    #[test]
    fn checkpoint_lifecycle_words_past_u32_are_rejected() {
        let mut svc = service(MatchPolicy::Consume);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0, 1.0, 3),
        });
        svc.push(ServiceEvent::PeriodTick);
        let words = svc.checkpoint_words();
        let CheckpointLayout {
            record_count,
            expiries,
            schedule_count,
            ..
        } = CheckpointLayout::of(&words);
        // One record, one scheduled period: `t, entries, tag, id`.
        assert_eq!((words[record_count], words[schedule_count]), (1, 1));
        assert_eq!(words[schedule_count + 1], words[expiries], "expires at `t`");
        assert!(service(MatchPolicy::Consume).restore(&words).is_ok());
        for (at, what) in [
            (expiries, "checkpoint expiry out of range"),
            (schedule_count + 1, "checkpoint schedule time out of range"),
            (schedule_count + 4, "checkpoint schedule id out of range"),
        ] {
            let mut lying = words.clone();
            lying[at] += 1 << 32;
            assert_eq!(
                service(MatchPolicy::Consume).restore(&lying),
                Err(StateError::Mismatch(what)),
                "word {at}"
            );
        }
    }

    /// The record section is outside input word by word: a record count
    /// that is not its lane's, a lane count the stream cannot hold
    /// (nothing is ever sized by either), the unused status code, bits
    /// set past the last record, and a status that makes the expiries
    /// one too few or one too many for the stream behind them.
    #[test]
    fn checkpoint_status_lane_lies_are_rejected() {
        use StateError::{Mismatch, Truncated};
        let mut svc = service(MatchPolicy::Consume);
        for duration in [3, 0, 3] {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0, 1.0, duration),
            });
        }
        svc.push(ServiceEvent::PeriodTick);
        let words = svc.checkpoint_words();
        let layout = CheckpointLayout::of(&words);
        let (count, lane) = (layout.record_count, layout.status_lane);
        // Available, gone (it never lived), available: codes 0, 2, 0.
        assert_eq!(
            (words[count], words[count + 1], words[lane]),
            (3, 1, 2 << 2)
        );
        assert_eq!(layout.live_count - layout.expiries, 2, "two expiries");
        assert!(service(MatchPolicy::Consume).restore(&words).is_ok());

        const NOT_ITS_LANES: StateError =
            Mismatch("checkpoint record count is not its status lane's");
        type Lie = fn(&mut [u64], usize);
        let rows: [(&str, Lie, usize, StateError); 11] = [
            ("no records", |w, at| w[at] = 0, count, NOT_ITS_LANES),
            ("a lane more", |w, at| w[at] = 33, count, NOT_ITS_LANES),
            (
                "u32::MAX records",
                |w, at| w[at] = u64::from(u32::MAX),
                count,
                NOT_ITS_LANES,
            ),
            (
                "u64::MAX records",
                |w, at| w[at] = u64::MAX,
                count,
                NOT_ITS_LANES,
            ),
            ("no lane", |w, at| w[at] = 0, count + 1, NOT_ITS_LANES),
            (
                "u32::MAX lane words",
                |w, at| w[at] = u64::from(u32::MAX),
                count + 1,
                Truncated,
            ),
            (
                "u64::MAX lane words",
                |w, at| w[at] = u64::MAX,
                count + 1,
                Truncated,
            ),
            (
                "status code 3",
                |w, at| w[at] |= 3,
                lane,
                Mismatch("checkpoint has invalid worker status"),
            ),
            (
                "a bit past the count",
                |w, at| w[at] |= 1 << 6,
                lane,
                Mismatch("checkpoint status lane has bits past its count"),
            ),
            // Record 1 available: the live count is read as its expiry
            // and every section behind it is one word off.
            (
                "one expiry too few",
                |w, at| w[at] &= !(3 << 2),
                lane,
                Truncated,
            ),
            // Record 2 gone: its expiry is read as the live count, the
            // live count as the first live id.
            (
                "one expiry too many",
                |w, at| w[at] |= 2 << 4,
                lane,
                Mismatch("checkpoint live worker invalid"),
            ),
        ];
        for (row, lie, at, what) in rows {
            let mut lying = words.clone();
            lie(&mut lying, at);
            let restored = service(MatchPolicy::Consume).restore(&lying);
            assert_eq!(restored, Err(what), "{row}");
        }
    }

    /// The watermark section names its producers: strictly ascending
    /// lanes, none of them the tick's pseudo-producer, each a `u32`.
    #[test]
    fn checkpoint_watermark_lies_are_rejected() {
        let mut svc = service(MatchPolicy::Consume);
        for producer in [0, 3, 7] {
            let worker = worker(1.0, 1.0, u32::MAX);
            let arrive = ServiceEvent::WorkerArrive { worker };
            svc.push_stamped(producer, 0, 0, arrive).unwrap();
        }
        svc.push(ServiceEvent::PeriodTick);
        let words = svc.checkpoint_words();
        let at = CheckpointLayout::of(&words).watermarks;
        // Three lanes: `producer, epoch, seq` at +1, +4 and +7.
        assert_eq!([words[at], words[at + 1], words[at + 4]], [3, 0, 3]);
        assert!(service(MatchPolicy::Consume).restore(&words).is_ok());

        const NOT_A_LANE: StateError =
            StateError::Mismatch("checkpoint watermark producer is not a lane above the last");
        type Lie = fn(&mut [u64], usize);
        let rows: [(&str, Lie); 4] = [
            ("descending", |w, at| w.swap(at + 1, at + 4)),
            ("duplicate", |w, at| w[at + 4] = w[at + 1]),
            ("TICK_PRODUCER", |w, at| {
                w[at + 7] = u64::from(TICK_PRODUCER);
            }),
            ("past u32", |w, at| w[at + 7] += 1 << 32),
        ];
        for (row, lie) in rows {
            let mut lying = words.clone();
            lie(&mut lying, at);
            let restored = service(MatchPolicy::Consume).restore(&lying);
            assert_eq!(restored, Err(NOT_A_LANE), "{row}");
        }
    }

    /// The words are reserved once, at their exact count: the schedule,
    /// the watermarks and the run state used to land past a reservation
    /// that counted only records and live workers, and the `Vec` doubled
    /// — megabytes of spare capacity on a long run, held while the file
    /// is encoded.
    #[test]
    fn checkpoint_words_are_reserved_exactly() {
        for policy in [MatchPolicy::Consume, MatchPolicy::Relocate { speed: 0.5 }] {
            let mut svc = service(policy);
            for t in 0..6u32 {
                for i in 0..40 {
                    let (x, y) = (f64::from(i % 9) + 0.5, f64::from(i / 9) + 0.5);
                    svc.push(ServiceEvent::WorkerArrive {
                        worker: worker(x, y, 2 + (t + i) % 5),
                    });
                }
                svc.push(ServiceEvent::TaskRequest {
                    task: task(1.5 + f64::from(t), 1.0),
                });
                svc.push(ServiceEvent::WorkerDepart { id: 40 * t });
                svc.push(ServiceEvent::PeriodTick);
            }
            let words = svc.checkpoint_words();
            let schedule = CheckpointLayout::of(&words).schedule_count;
            assert!(words[schedule] >= 4, "a schedule of several periods");
            assert!(
                words.capacity() <= words.len() + words.len() / 8,
                "{} words in a buffer of {} ({policy:?})",
                words.len(),
                words.capacity()
            );
        }
    }

    #[test]
    fn outcome_snapshot_is_cumulative_and_consistent() {
        let mut svc = service(MatchPolicy::Consume);
        for i in 0..6u32 {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + i as f64, 1.0, u32::MAX),
            });
        }
        for t in 0..4 {
            svc.push(ServiceEvent::TaskRequest {
                task: task(1.0 + t as f64, 1.0),
            });
            svc.push(ServiceEvent::PeriodTick);
            let out = svc.outcome_snapshot();
            assert!(out.is_consistent());
            assert_eq!(out.issued_tasks, t + 1);
            assert_eq!(out.revenue_per_period.len(), (t + 1) as usize);
        }
        assert_eq!(svc.periods_served(), 4);
    }
}
