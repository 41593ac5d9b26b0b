//! Event-driven worker lifecycle feeding the incremental graph cache.
//!
//! Each worker's state transitions (**arrive → available**, **match →
//! busy → release**, **expire**, **depart**) are scheduled when they
//! become known, and a period only touches the events that fire in it
//! plus that period's arrivals — `O(churn)`, never `O(all workers ever
//! seen)`. The state machine is one type, [`WorkerLifecycle`]: its
//! per-worker records, its schedule of timed transitions, and the one
//! [`PeriodGraphCache`] every transition stages its churn for. Both
//! engines are a [`WorkerLifecycle`]: the batch `Simulation` admits a
//! period's arrivals and fires through
//! [`WorkerLifecycle::begin_period`]; the online service admits and
//! departs per event ([`WorkerLifecycle::admit`],
//! [`WorkerLifecycle::depart`]) and fires at its tick
//! ([`WorkerLifecycle::fire`]).
//!
//! Per-period event flow:
//!
//! ```text
//! admit ─► window buffer ─(fire: survivors)─┐
//!   depart of a same-window id marks the    │
//!   record `Gone` and stages nothing        │
//! expiries (events) ────────────────────────┼─► staged arrivals / departures
//! busy releases (events) ───────────────────┤          │
//! depart of an earlier id, consume, ────────┘          ▼
//! dispatch                              PeriodGraphCache::apply
//!                                       (dynamic index, id-stable)
//!                                                      ▼
//!                               bipartite graph, bit-identical to the
//!                               scan (Definition 5(ii)) of the live set
//! ```
//!
//! **The window buffer.** Admission ids are consecutive, so the
//! lifecycle keeps the admissions since the last `fire` in a vector
//! whose entry `i` is worker `base + i`, and stages them only when the
//! window closes. A worker departing in the window it arrived in is
//! cancelled by marking its record — the id *is* the cancel token, so
//! there is no handle to go stale — and the cache never sees a
//! departure for a worker it was not told had arrived. (`consume` and
//! `dispatch` name workers of a built graph, never a window id.)
//!
//! **Arrival order is free.** A window's admissions are staged ahead of
//! the period's busy releases, and a cancelled one leaves a gap in the
//! id sequence. [`PeriodGraphCache::apply`] pushes each arrival onto its
//! dense, unordered live view and hands it a slot, which the worker's
//! record keeps beside its status: a build reads each departure's slot
//! back from the record `fire` or the match just touched.
//!
//! **Records cost who is live.** Ids are never reused, so a stream's id
//! space grows without end while its live pool does not. The records
//! live in pages of 1 024 ids, and a page is freed once every id on it
//! is admitted and none of its records is held: not `Gone`, or still
//! holding the slot a staged departure gives back at the next build. A
//! freed page reads as `Gone` records. What grows per id is the page
//! table, 8 B per 1 024 ids. Ids stay admission-ordered, so the
//! `(distance, id)` order and every oracle are untouched. A `base_id`
//! below which every record is dead would free nothing on its own: a
//! standing pool admitted first with duration `u32::MAX` holds the
//! lowest ids for the whole stream.
//!
//! Worker ids are the admission order (`0, 1, 2, …` across the whole
//! stream), and a busy worker re-enters under its *original* id. A
//! graph numbers the workers it reaches in ascending id, as the
//! test-only rescan reference numbers its available list — which is
//! what makes the engine bit-identical to it
//! (`incremental_run_matches_scan_oracle`).

use crate::platform::PeriodEngine;
use crate::truth::GroundWorker;
use maps_core::{PeriodGraphCache, StateError, StateWords, TaskInput, WorkerInput};
use maps_matching::BipartiteGraph;
use maps_spatial::{GridSpec, Point};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Where a worker currently is in its lifecycle. The discriminants are
/// the two-bit codes of a checkpoint's status lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the live set (spatial index) — can be matched.
    Available = 0,
    /// Matched under the relocate policy; re-enters at its scheduled
    /// release.
    Busy = 1,
    /// Left permanently (consumed, expired, departed, or released past
    /// its window).
    Gone = 2,
}

/// Two-bit status codes in one word of a checkpoint's status lane.
const STATUSES_PER_WORD: usize = 32;

/// A record's slot while its worker holds none in the cache. A
/// lifecycle holds fewer than 2³⁰ live workers, so no slot reaches it.
const NO_SLOT: u32 = (1 << 30) - 1;

/// One worker's lifecycle state, 8 bytes. Records live in pages of
/// [`PAGE`] ids ([`Records`]), and a page is freed with the last record
/// on it that is held, so they cost memory by who is live, not by who
/// was ever admitted.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// First period in which the worker no longer exists (`t <
    /// expires_at` ⇔ within the availability window).
    expires_at: u32,
    /// The [`Status`] code in the low two bits; above them the slot the
    /// worker holds in the cache — `NO_SLOT` while it holds none. A
    /// staged departure keeps its slot until the next build applies it.
    state: u32,
}

const _: () = assert!(size_of::<Record>() == 8, "a record costs 8 bytes");

impl Record {
    /// What every record of a freed page reads as. A `Gone` record's
    /// expiry is never read again (see [`WorkerLifecycle::save`]).
    const GONE: Record = Record::new(0, Status::Gone);

    const fn new(expires_at: u32, status: Status) -> Self {
        let state = NO_SLOT << 2 | status as u32;
        Self { expires_at, state }
    }

    fn status(self) -> Status {
        [Status::Available, Status::Busy, Status::Gone][(self.state & 3) as usize]
    }

    fn set_status(&mut self, status: Status) {
        self.state = self.state & !3 | status as u32;
    }

    fn slot(self) -> u32 {
        self.state >> 2
    }

    fn set_slot(&mut self, slot: u32) {
        self.state = slot << 2 | self.state & 3;
    }

    /// Whether the record is still needed: its worker has not left, or
    /// it still holds the slot a staged departure gives back at the
    /// next build. Only [`Record::GONE`]'s state is neither.
    fn held(self) -> bool {
        self.state != Record::GONE.state
    }
}

/// Ids a page of records covers: 8 KiB of records, and 32 words of a
/// checkpoint's status lane.
const PAGE: usize = 1024;

const _: () = assert!(
    PAGE.is_multiple_of(STATUSES_PER_WORD),
    "a page is whole lane words"
);

/// A status-lane word of 32 `Gone` codes (`0b10` each): what a freed
/// page writes.
const GONE_LANE_WORD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// [`PAGE`] consecutive records and how many of them are held
/// ([`Record::held`]).
#[derive(Debug)]
struct Page {
    records: [Record; PAGE],
    held: u32,
}

impl Page {
    fn empty() -> Box<Self> {
        Box::new(Self {
            records: [Record::GONE; PAGE],
            held: 0,
        })
    }
}

/// The per-worker records, indexed by id (admission order), in pages of
/// [`PAGE`] ids. A page is freed once every id on it is admitted and
/// none of its records is held; a freed page reads as `Gone` records.
/// The page table costs 8 B per [`PAGE`] ids, and each page that holds
/// a record 8 KiB.
#[derive(Debug, Default)]
struct Records {
    /// Page `p` covers ids `p · PAGE ..`; `None` once freed. The last
    /// page is the open one admissions append to, and is never freed
    /// while it has room.
    pages: Vec<Option<Box<Page>>>,
    /// Ids admitted: the next id.
    len: usize,
    /// The page freed last, kept to open the next one with: a stream
    /// frees pages about as often as it opens them, and each reuse
    /// spares an allocation and 8 KiB of writes. Its records are stale,
    /// and so are the open page's past `len`: neither is ever read.
    spare: Option<Box<Page>>,
}

impl Records {
    fn len(&self) -> usize {
        self.len
    }

    /// Admits the next id's record: a push onto the open page.
    fn push(&mut self, record: Record) {
        let at = self.len % PAGE;
        if at == 0 {
            let mut page = self.spare.take().unwrap_or_else(Page::empty);
            page.held = 0;
            self.pages.push(Some(page));
        }
        let open = self.pages.last_mut().expect("a page was just opened");
        let page = open.as_deref_mut().expect("the open page is never freed");
        page.records[at] = record;
        page.held += u32::from(record.held());
        self.len += 1;
        if at == PAGE - 1 && page.held == 0 {
            self.spare = open.take();
        }
    }

    /// Record `id` (`Gone` on a freed page), `None` for an id never
    /// admitted.
    fn get(&self, id: u32) -> Option<Record> {
        let id = id as usize;
        (id < self.len).then(|| match &self.pages[id / PAGE] {
            Some(page) => page.records[id % PAGE],
            None => Record::GONE,
        })
    }

    /// Updates record `id` in place, then frees its page if that let go
    /// of the page's last held record. `None`, and `f` is not run, for
    /// an id never admitted or on a freed page (a `Gone` record that
    /// holds no slot).
    fn update<R>(&mut self, id: u32, f: impl FnOnce(&mut Record) -> R) -> Option<R> {
        let id = id as usize;
        if id >= self.len {
            return None;
        }
        let entry = &mut self.pages[id / PAGE];
        let page = entry.as_deref_mut()?;
        let record = &mut page.records[id % PAGE];
        let was = record.held();
        let out = f(record);
        if record.held() != was {
            if was {
                page.held -= 1;
                if page.held == 0 && id / PAGE < self.len / PAGE {
                    self.spare = entry.take();
                }
            } else {
                page.held += 1;
            }
        }
        Some(out)
    }

    /// Allocates the page of admitted id `id` again if it was freed, its
    /// records `Gone` (not the stale spare): a checkpoint's live worker
    /// may be one whose staged departure still holds its slot.
    fn reopen(&mut self, id: u32) {
        debug_assert!((id as usize) < self.len, "reopen of an id never admitted");
        self.pages[id as usize / PAGE].get_or_insert_with(Page::empty);
    }

    /// Every page with its first id and its admitted records; `None`
    /// for a freed page.
    fn pages(&self) -> impl Iterator<Item = (usize, Option<&[Record]>)> + '_ {
        let first_ids = (0..self.len).step_by(PAGE);
        first_ids.zip(&self.pages).map(|(first, page)| {
            let n = (self.len - first).min(PAGE);
            (first, page.as_deref().map(|page| &page.records[..n]))
        })
    }

    /// The admitted records on allocated pages, with their ids (counted
    /// in `usize`: the last id is `u32::MAX`).
    fn allocated(&self) -> impl Iterator<Item = (u32, Record)> + '_ {
        let pages = self
            .pages()
            .filter_map(|(first, page)| Some((first, page?)));
        let records = pages.flat_map(|(first, records)| (first..).zip(records.iter().copied()));
        records.map(|(id, record)| (id as u32, record))
    }

    /// The records a checkpoint keeps an expiry for: those not `Gone`.
    fn kept(&self) -> impl Iterator<Item = Record> + '_ {
        let records = self.allocated().map(|(_, record)| record);
        records.filter(|record| record.status() != Status::Gone)
    }
}

/// The status-lane word of up to 32 records: two bits a record, the
/// first in the lowest.
fn lane_word(chunk: &[Record]) -> u64 {
    let codes = chunk.iter().map(|r| r.status() as u64);
    codes.rev().fold(0, |lane, code| lane << 2 | code)
}

/// A scheduled lifecycle transition, fired at the start of its period.
#[derive(Debug, Clone, Copy)]
enum Timed {
    /// The worker's availability window ends this period.
    Expire(u32),
    /// A busy worker re-enters this period at its relocation target.
    Release(u32, WorkerInput),
}

/// The next checkpoint word as a `u32`: `2³² + v` is a lie, not `v`.
fn take_u32(r: &mut StateWords<'_>, what: &'static str) -> Result<u32, StateError> {
    u32::try_from(r.take()?).map_err(|_| StateError::Mismatch(what))
}

/// The period engine: the worker state machine — per-worker records
/// plus the schedule of timed transitions — whose every transition
/// stages its churn for one [`PeriodGraphCache`], applied by the next
/// build, so the spatial index is mutated, never rebuilt. The batch
/// `Simulation` runs one over a bounded horizon
/// ([`WorkerLifecycle::new`]); the online service one over an event
/// stream ([`WorkerLifecycle::open_ended`]).
#[derive(Debug)]
pub struct WorkerLifecycle {
    grid: GridSpec,
    cache: PeriodGraphCache,
    /// Per-worker state, indexed by id (admission order).
    records: Records,
    /// Scheduled expiries/releases, keyed by the period they fire in: a
    /// map, not per-period buckets, so a far expiry allocates nothing
    /// for the periods before it.
    schedule: BTreeMap<u32, Vec<Timed>>,
    /// Number of periods of a bounded run; `u32::MAX` for an open-ended
    /// stream, whose tick closing period `u32::MAX` is refused (the
    /// counter would wrap). Transitions at or past it are unobservable
    /// and never scheduled — for a stream, every `u32::MAX` expiry.
    horizon: u32,
    /// Admissions since the last [`WorkerLifecycle::fire`], not yet
    /// staged: entry `i` is worker `records.len() - window.len() + i`.
    window: Vec<WorkerInput>,
    /// Staged arrivals, applied by the next
    /// [`WorkerLifecycle::build_graph_capped`].
    arrivals: Vec<(u32, WorkerInput)>,
    /// Staged departures, applied by the next build.
    departures: Vec<u32>,
    /// Scratch: the staged departures with the slots their records held.
    departing: Vec<(u32, u32)>,
}

impl WorkerLifecycle {
    /// An empty lifecycle over `grid` for a `horizon`-period run:
    /// transitions at or past the horizon are never scheduled.
    /// `_expected_workers` is ignored (the cache sizes itself by who is
    /// live); kept for source compatibility, removed with ROADMAP 6(b).
    pub fn new(grid: &GridSpec, horizon: usize, _expected_workers: usize) -> Self {
        Self::with_horizon(grid, u32::try_from(horizon).unwrap_or(u32::MAX))
    }

    /// An empty lifecycle over `grid` for a stream with no last period
    /// but the one its `u32` counter cannot close: every transition
    /// before period `u32::MAX` is scheduled, and one at it — the expiry
    /// of every worker admitted with duration `u32::MAX` — never fires,
    /// so it is not scheduled either.
    pub fn open_ended(grid: &GridSpec) -> Self {
        Self::with_horizon(grid, u32::MAX)
    }

    fn with_horizon(grid: &GridSpec, horizon: u32) -> Self {
        Self {
            grid: *grid,
            cache: PeriodGraphCache::new(grid),
            records: Records::default(),
            schedule: BTreeMap::new(),
            horizon,
            window: Vec::new(),
            arrivals: Vec::new(),
            departures: Vec::new(),
            departing: Vec::new(),
        }
    }

    /// Admits `worker` in period `t` under the next id (the admission
    /// order). It is staged at the next [`WorkerLifecycle::fire`],
    /// unless it departs first.
    ///
    /// # Panics
    /// Panics once all 2³² ids are taken ([`WorkerLifecycle::next_id`]
    /// is `None`), rather than reuse one, and on a range
    /// [`GroundWorker::check`] refuses, which the service checks first.
    pub fn admit(&mut self, t: u32, worker: &GroundWorker) {
        let id = self.next_id().expect("all 2^32 worker ids are taken");
        let expires_at = t.saturating_add(worker.duration);
        // A worker whose window is already over (duration 0 — rejected
        // by `GroundTruth::validate`, but hand-built worlds and event
        // streams can carry it) still consumes an id so later ids keep
        // their positions, yet never enters the live set.
        let lives = expires_at > t;
        let status = if lives {
            Status::Available
        } else {
            Status::Gone
        };
        self.records.push(Record::new(expires_at, status));
        let input = WorkerInput::new(&self.grid, worker.location, worker.radius);
        self.window.push(input);
        if lives && expires_at < self.horizon {
            self.schedule
                .entry(expires_at)
                .or_default()
                .push(Timed::Expire(id));
        }
    }

    /// The id the next [`WorkerLifecycle::admit`] hands out; `None` once
    /// all 2³² ids are taken.
    pub fn next_id(&self) -> Option<u32> {
        u32::try_from(self.records.len()).ok()
    }

    /// Worker `id` leaves the live set at the next build: its expiry
    /// firing, or an explicit departure ahead of it. A departure in the
    /// window the worker arrived in cancels the arrival. A no-op for
    /// workers already gone and for ids never admitted: an online stream
    /// can carry duplicate or stale departures, and one bad client event
    /// must not take the service down. A busy worker's pending release
    /// is dropped when it fires.
    pub fn depart(&mut self, id: u32) {
        let window_base = self.records.len() - self.window.len();
        self.records.update(id, |record| {
            // A worker admitted in this window was never staged: marking
            // the record is the whole cancellation.
            if record.status() == Status::Available && (id as usize) < window_base {
                self.departures.push(id);
            }
            record.set_status(Status::Gone);
        });
    }

    /// Closes the admission window — stages its surviving admissions —
    /// then fires the transitions scheduled for period `t`, staging the
    /// resulting churn. Call once per period, in order, before
    /// [`WorkerLifecycle::build_graph_capped`].
    pub fn fire(&mut self, t: u32) {
        let window_base = self.records.len() - self.window.len();
        for (id, input) in (window_base..).zip(self.window.drain(..)) {
            // Counted in `usize`: the last id is `u32::MAX`.
            let id = id as u32;
            if self.records.get(id).map(Record::status) == Some(Status::Available) {
                self.arrivals.push((id, input));
            }
        }
        let Some(events) = self.schedule.remove(&t) else {
            return;
        };
        for event in events {
            match event {
                Timed::Expire(id) => self.depart(id),
                Timed::Release(id, input) => {
                    self.records.update(id, |record| {
                        if record.status() == Status::Busy && t < record.expires_at {
                            record.set_status(Status::Available);
                            self.arrivals.push((id, input));
                        } else {
                            record.set_status(Status::Gone);
                        }
                    });
                }
            }
        }
    }

    /// Starts period `t`: [`WorkerLifecycle::admit`]s this period's
    /// arrivals, then [`WorkerLifecycle::fire`]s.
    pub fn begin_period(&mut self, t: u32, arrivals: &[GroundWorker]) {
        for worker in arrivals {
            self.admit(t, worker);
        }
        self.fire(t);
    }

    /// Whether nothing was admitted since the last
    /// [`WorkerLifecycle::fire`]: where a checkpoint can be cut.
    pub fn window_is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Applies the staged churn and builds the period's capped graph
    /// through the cache (`k = max_edges_per_task`).
    pub fn build_graph_capped(&mut self, tasks: &[TaskInput], k: usize) -> BipartiteGraph {
        self.apply_staged();
        self.cache.build_graph_capped(tasks, k)
    }

    /// Applies the staged churn to the cache: each departure by the slot
    /// its record holds, which the record then lets go of; each
    /// arrival's slot written into its record, where a slot already held
    /// means a live id arriving again.
    ///
    /// A departure lets go of the last record its page holds here, if
    /// any: a staged departure keeps its record's page until then.
    fn apply_staged(&mut self) {
        let records = &mut self.records;
        self.departing.clear();
        self.departing.extend(self.departures.drain(..).map(|id| {
            let slot = records.update(id, |record| {
                let slot = record.slot();
                record.set_slot(NO_SLOT);
                slot
            });
            (id, slot.unwrap_or(NO_SLOT))
        }));
        let handed = self.cache.apply(&self.arrivals, &self.departing);
        for (&(id, _), &slot) in self.arrivals.iter().zip(handed) {
            assert!(
                slot < NO_SLOT,
                "a lifecycle holds fewer than 2^30 live workers"
            );
            let arrived = records.update(id, |record| {
                let held = record.slot() != NO_SLOT;
                assert!(!held, "arrival of an already-live worker id {id}");
                record.set_slot(slot);
            });
            arrived.expect("an arriving worker's record is held");
        }
        self.arrivals.clear();
    }

    /// Copies the live worker list — dense, in no particular order —
    /// into `out`.
    pub fn fill_worker_inputs(&self, out: &mut Vec<WorkerInput>) {
        out.clear();
        out.extend_from_slice(self.cache.worker_inputs());
    }

    /// The workers in the cache, ascending id, found through the records
    /// that hold a slot: one page-table entry per 1 024 ids, and the
    /// records of the pages still allocated, which the live workers
    /// hold. At a period boundary that is the available workers plus the
    /// staged departures.
    pub fn live_workers(&self) -> impl Iterator<Item = (u32, &WorkerInput)> + '_ {
        let held = self.records.allocated();
        held.filter(|(_, record)| record.slot() != NO_SLOT)
            .map(|(id, record)| {
                let worker = self.cache.worker(id, record.slot());
                (id, worker.expect("a record's slot is held in the cache"))
            })
    }

    /// Number of workers currently in the live set (staged churn from
    /// matches in the current period applies at the next build).
    pub fn live_count(&self) -> usize {
        self.cache.live_count()
    }

    /// Total workers ever admitted.
    pub fn admitted(&self) -> usize {
        self.records.len()
    }

    /// The id of right-side vertex `dense` of the last built graph.
    pub fn id_of_dense(&self, dense: usize) -> u32 {
        self.cache.right_id(dense)
    }

    /// A matched worker leaves permanently (`MatchPolicy::Consume`).
    /// Staged as a departure for the next period's build.
    pub fn consume(&mut self, id: u32) {
        let consumed = self.records.update(id, |r| r.set_status(Status::Gone));
        consumed.expect("a consumed worker holds its record");
        self.departures.push(id);
    }

    /// A matched worker travels to `destination` for `travel ≥ 1`
    /// periods (`MatchPolicy::Relocate`), re-entering at `t + travel`
    /// under the same id and range — or leaving for good when that lands
    /// on or past its expiry or the horizon.
    pub fn dispatch(&mut self, t: u32, id: u32, destination: Point, travel: u32) {
        debug_assert!(travel >= 1, "relocation travel takes at least one period");
        let record = self.records.get(id);
        let radius = record
            .and_then(|record| self.cache.worker(id, record.slot()))
            .expect("dispatched worker is live")
            .radius;
        self.departures.push(id);
        let busy_until = t.saturating_add(travel);
        let returns = busy_until < self.horizon;
        let busy = self.records.update(id, |record| {
            let busy = returns && busy_until < record.expires_at;
            record.set_status(if busy { Status::Busy } else { Status::Gone });
            busy
        });
        if busy.expect("a dispatched worker holds its record") {
            let release = WorkerInput::new(&self.grid, destination, radius);
            let entries = self.schedule.entry(busy_until).or_default();
            entries.push(Timed::Release(id, release));
        }
    }

    /// Appends the worker side of a checkpoint to a word stream, in four
    /// sections (floats as IEEE-754 bits):
    ///
    /// 1. **Records:** the record count, a status lane — two bits a
    ///    record, 32 to a word, behind its own word count; a freed page
    ///    writes the `Gone` codes it reads as — then the `expires_at` of
    ///    every record that is not `Gone`, in id order. A `Gone` record's
    ///    expiry is never read again (`fire` tests a release's status
    ///    before its expiry, `dispatch` names a live worker), so a worker
    ///    that left costs a checkpoint its two bits.
    /// 2. **Live workers:** a count, then `id, x, y, radius` each in
    ///    ascending id order ([`WorkerLifecycle::live_workers`]).
    /// 3. **Staged departures:** a count, then the ids — the closing
    ///    period's matched pairs and departures of earlier arrivals.
    /// 4. **Schedule:** a period count, then per period `t`, an entry
    ///    count and per entry `0, id` (an expiry) or `1, id, x, y,
    ///    radius` (a release).
    ///
    /// Cut at a period boundary only — after a build, before anything is
    /// admitted into the next window — so no arrival is staged and the
    /// window is not part of it.
    pub fn save(&self, w: &mut Vec<u64>) {
        let boundary = self.window.is_empty() && self.arrivals.is_empty();
        debug_assert!(boundary, "checkpoint off a period boundary");
        w.push(self.records.len() as u64);
        w.push(self.records.len().div_ceil(STATUSES_PER_WORD) as u64);
        for (_, page) in self.records.pages() {
            match page {
                Some(records) => w.extend(records.chunks(STATUSES_PER_WORD).map(lane_word)),
                None => w.extend([GONE_LANE_WORD; PAGE / STATUSES_PER_WORD]),
            }
        }
        w.extend(self.records.kept().map(|r| u64::from(r.expires_at)));
        w.push(self.cache.live_count() as u64);
        for (id, input) in self.live_workers() {
            let (x, y) = (input.location.x.to_bits(), input.location.y.to_bits());
            w.extend([u64::from(id), x, y, input.radius.to_bits()]);
        }
        w.push(self.departures.len() as u64);
        w.extend(self.departures.iter().map(|&id| u64::from(id)));
        w.push(self.schedule.len() as u64);
        for (&t, entries) in &self.schedule {
            w.extend([u64::from(t), entries.len() as u64]);
            for entry in entries {
                match entry {
                    Timed::Expire(id) => w.extend([0, u64::from(*id)]),
                    Timed::Release(id, input) => {
                        let (x, y) = (input.location.x.to_bits(), input.location.y.to_bits());
                        w.extend([1, u64::from(*id), x, y, input.radius.to_bits()]);
                    }
                }
            }
        }
    }

    /// The number of words [`WorkerLifecycle::save`] appends for the
    /// lifecycle as it stands: what a caller reserves for them.
    pub fn saved_words(&self) -> usize {
        let lane = self.records.len().div_ceil(STATUSES_PER_WORD);
        let records = 2 + lane + self.records.kept().count();
        let live = 1 + 4 * self.cache.live_count();
        let entry_words = |e: &Timed| match e {
            Timed::Expire(_) => 2,
            Timed::Release(..) => 5,
        };
        let periods = self.schedule.values();
        let schedule = periods.map(|entries| 2 + entries.iter().map(entry_words).sum::<usize>());
        records + live + 1 + self.departures.len() + 1 + schedule.sum::<usize>()
    }

    /// Restores what [`WorkerLifecycle::save`] wrote into a freshly
    /// constructed lifecycle over the same grid. Every word is outside
    /// input: counts are bounded by the words behind them
    /// ([`StateWords::take_len`]), so none sizes anything the stream does
    /// not back; the record count must be one its status lane holds; ids
    /// must name admitted workers — live ones ascending — and a live
    /// worker's or a release's geometry must be what admission accepts
    /// of an arrival ([`GroundWorker::check`]). The live set goes into
    /// the cache as one batch, whose queries depend only on the set, so
    /// this equals the build that wrote it; the slots it is handed go
    /// into the records. A full page whose records are all `Gone` stays
    /// freed — but a live worker whose record reads `Gone` (a staged
    /// departure) gets its page back.
    pub fn load(&mut self, r: &mut StateWords<'_>) -> Result<(), StateError> {
        use StateError::Mismatch;
        let n_records = usize::try_from(r.take()?).map_err(|_| StateError::Truncated)?;
        let lane = r.take_len(1)?;
        if n_records.div_ceil(STATUSES_PER_WORD) != lane {
            return Err(Mismatch("checkpoint record count is not its status lane's"));
        }
        let lane = r.take_slice(lane)?;
        let spare = 2 * (n_records % STATUSES_PER_WORD);
        if spare != 0 && lane[lane.len() - 1] >> spare != 0 {
            return Err(Mismatch("checkpoint status lane has bits past its count"));
        }
        self.window.clear();
        let mut records = Records {
            pages: Vec::with_capacity(n_records.div_ceil(PAGE)),
            len: n_records,
            spare: None,
        };
        for (first, words) in (0..)
            .step_by(PAGE)
            .zip(lane.chunks(PAGE / STATUSES_PER_WORD))
        {
            let n = (n_records - first).min(PAGE);
            if n == PAGE && words.iter().all(|&word| word == GONE_LANE_WORD) {
                records.pages.push(None);
                continue;
            }
            let mut page = Page::empty();
            for at in 0..n {
                let code = words[at / STATUSES_PER_WORD] >> (2 * (at % STATUSES_PER_WORD));
                let status = match code & 3 {
                    0 => Status::Available,
                    1 => Status::Busy,
                    2 => Status::Gone,
                    _ => return Err(Mismatch("checkpoint has invalid worker status")),
                };
                // Never read while `Gone`, and `Gone` is final: any value does.
                let expires_at = match status {
                    Status::Gone => 0,
                    _ => take_u32(r, "checkpoint expiry out of range")?,
                };
                page.records[at] = Record::new(expires_at, status);
                page.held += u32::from(status != Status::Gone);
            }
            records.pages.push(Some(page));
        }
        self.records = records;
        let admitted = self.records.len() as u64;
        let mut next_id = 0;
        for _ in 0..r.take_len(4)? {
            const INVALID: &str = "checkpoint live worker invalid";
            let id = r.take()?;
            let input = self.take_input(r, INVALID)?;
            if !(next_id..admitted).contains(&id) {
                return Err(Mismatch(INVALID));
            }
            next_id = id + 1;
            self.records.reopen(id as u32);
            self.arrivals.push((id as u32, input));
        }
        self.apply_staged();
        for _ in 0..r.take_len(1)? {
            let id = r.take()?;
            if id >= admitted {
                return Err(Mismatch("checkpoint departure id out of range"));
            }
            self.departures.push(id as u32);
        }
        self.schedule.clear();
        for _ in 0..r.take_len(2)? {
            let t = take_u32(r, "checkpoint schedule time out of range")?;
            let n_entries = r.take_len(2)?;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let tag = r.take()?;
                let id = take_u32(r, "checkpoint schedule id out of range")?;
                if id as usize >= self.records.len() {
                    return Err(Mismatch("checkpoint schedule id out of range"));
                }
                entries.push(match tag {
                    0 => Timed::Expire(id),
                    1 => Timed::Release(id, self.take_input(r, "checkpoint release invalid")?),
                    _ => return Err(Mismatch("checkpoint has invalid schedule entry")),
                });
            }
            self.schedule.insert(t, entries);
        }
        Ok(())
    }

    /// The next three checkpoint words as a worker's location and range,
    /// held to what admission holds an arriving worker to: a non-finite
    /// location would be a live worker no query reaches, a NaN radius
    /// would poison the tick that stages it.
    fn take_input(
        &self,
        r: &mut StateWords<'_>,
        what: &'static str,
    ) -> Result<WorkerInput, StateError> {
        let location = Point::new(r.take_f64()?, r.take_f64()?);
        let radius = r.take_f64()?;
        let worker = GroundWorker {
            location,
            radius,
            duration: 0,
        };
        worker.check().map_err(|_| StateError::Mismatch(what))?;
        Ok(WorkerInput::new(&self.grid, location, radius))
    }
}

impl PeriodEngine for WorkerLifecycle {
    type Error = Infallible;

    fn build_graph(
        &mut self,
        _t: u32,
        tasks: &[TaskInput],
        k: usize,
    ) -> Result<BipartiteGraph, Infallible> {
        Ok(self.build_graph_capped(tasks, k))
    }

    fn worker_inputs(&self) -> &[WorkerInput] {
        self.cache.worker_inputs()
    }

    fn consume_matched(&mut self, dense: usize) {
        self.consume(self.id_of_dense(dense));
    }

    fn dispatch_matched(&mut self, t: u32, dense: usize, destination: Point, travel: u32) {
        self.dispatch(t, self.id_of_dense(dense), destination, travel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_spatial::{Point, Rect};
    use maps_testkit::{assert_golden, Labelled};

    fn grid() -> GridSpec {
        GridSpec::square(Rect::square(10.0), 2)
    }

    fn worker(x: f64, duration: u32) -> GroundWorker {
        GroundWorker {
            location: Point::new(x, 5.0),
            radius: 3.0,
            duration,
        }
    }

    /// The satellite's live-count assertion: expired workers leave the
    /// live set (no `gone`-flag leak), and the count matches a
    /// brute-force recomputation of the availability windows each
    /// period.
    #[test]
    fn live_count_matches_availability_windows() {
        let grid = grid();
        let horizon = 10usize;
        // Worker i arrives at period i with duration i+1 (alive over
        // [i, 2i+1)), so the live set both grows and drains.
        let mut engine = WorkerLifecycle::new(&grid, horizon, 8);
        for t in 0..horizon as u32 {
            let arrivals = vec![worker(1.0 + t as f64 * 0.5, t + 1)];
            engine.begin_period(t, &arrivals);
            let _ = engine.build_graph_capped(&[], 4);
            let expect = (0..=t).filter(|&i| t < i + i + 1).count();
            assert_eq!(engine.live_count(), expect, "period {t}");
        }
        assert_eq!(engine.admitted(), horizon);
        // Horizon end: everything with expiry ≤ 9 is already out.
        assert_eq!(engine.live_count(), 5);
    }

    /// A zero-duration arrival (`expires_at == t`) must never enter the
    /// live set — the scan oracle's `t < expires_at` check never admits
    /// it — while still consuming an id so later workers keep their
    /// scan-path positions.
    #[test]
    fn zero_duration_arrival_never_becomes_live() {
        let grid = grid();
        let mut engine = WorkerLifecycle::new(&grid, 4, 4);
        engine.begin_period(0, &[worker(1.0, 0), worker(2.0, u32::MAX)]);
        let _ = engine.build_graph_capped(&[], 4);
        assert_eq!(engine.live_count(), 1);
        assert_eq!(engine.admitted(), 2, "dead arrival still takes an id");
        assert_eq!(live_ids(&engine), [1], "live worker keeps scan id");
        for t in 1..4 {
            engine.begin_period(t, &[]);
            let _ = engine.build_graph_capped(&[], 4);
            assert_eq!(engine.live_count(), 1, "period {t}");
        }
    }

    /// The ids of the workers in the cache, ascending, read through the
    /// records.
    fn live_ids(engine: &WorkerLifecycle) -> Vec<u32> {
        engine.live_workers().map(|(id, _)| id).collect()
    }

    /// A task at `x` on the workers' row: it reaches every worker within
    /// their radius 3 of it.
    fn task_at(x: f64) -> [TaskInput; 1] {
        [TaskInput::new(&grid(), Point::new(x, 5.0), 1.0)]
    }

    #[test]
    fn consume_departs_at_next_build() {
        let grid = grid();
        let mut engine = WorkerLifecycle::new(&grid, 4, 4);
        engine.begin_period(0, &[worker(1.0, u32::MAX), worker(2.0, u32::MAX)]);
        let graph = engine.build_graph_capped(&task_at(1.0), 4);
        assert_eq!(graph.n_right(), 2);
        assert_eq!(engine.live_count(), 2);
        engine.consume(engine.id_of_dense(0));
        // Still live until the next period's build applies the churn.
        assert_eq!(engine.live_count(), 2);
        assert_eq!(live_ids(&engine), [0, 1]);
        engine.begin_period(1, &[]);
        let _ = engine.build_graph_capped(&task_at(1.0), 4);
        assert_eq!(engine.live_count(), 1);
        assert_eq!(live_ids(&engine), [1]);
        assert_eq!(engine.id_of_dense(0), 1, "the graph numbers who it reaches");
    }

    #[test]
    fn dispatch_releases_at_destination_under_original_id() {
        let grid = grid();
        let mut engine = WorkerLifecycle::new(&grid, 6, 4);
        engine.begin_period(0, &[worker(1.0, u32::MAX)]);
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 2);
        engine.begin_period(1, &[worker(2.0, u32::MAX)]);
        let _ = engine.build_graph_capped(&[], 4);
        assert_eq!(engine.live_count(), 1, "worker 0 is busy in period 1");
        engine.begin_period(2, &[]);
        let _ = engine.build_graph_capped(&[], 4);
        assert_eq!(engine.live_count(), 2);
        let live: Vec<(u32, WorkerInput)> = engine.live_workers().map(|(id, w)| (id, *w)).collect();
        assert_eq!(live[0].0, 0);
        assert_eq!(live[0].1.location, Point::new(9.0, 9.0), "id 0 relocated");
        assert_eq!(live[0].1.cell, grid.cell_of(Point::new(9.0, 9.0)));
        assert_eq!(live[1].0, 1);
        assert_eq!(live[1].1.location, Point::new(2.0, 5.0));
    }

    #[test]
    fn release_past_expiry_or_horizon_is_dropped() {
        let grid = grid();
        let mut engine = WorkerLifecycle::new(&grid, 6, 4);
        // Expires at period 3; travel lands exactly on the expiry.
        engine.begin_period(0, &[worker(1.0, 3)]);
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 3);
        for t in 1..6 {
            engine.begin_period(t, &[]);
            let _ = engine.build_graph_capped(&[], 4);
            assert_eq!(engine.live_count(), 0, "period {t}");
        }
        // Travel past the horizon: never re-enters either.
        let mut engine = WorkerLifecycle::new(&grid, 3, 4);
        engine.begin_period(0, &[worker(1.0, u32::MAX)]);
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 5);
        for t in 1..3 {
            engine.begin_period(t, &[]);
            let _ = engine.build_graph_capped(&[], 4);
            assert_eq!(engine.live_count(), 0, "period {t}");
        }
    }

    #[test]
    fn expiry_of_busy_worker_cancels_release() {
        let grid = grid();
        let mut engine = WorkerLifecycle::new(&grid, 8, 4);
        // Expires at 2, dispatched at 0 with travel 4 (> expiry): the
        // expire event fires while busy and the release must be dropped.
        engine.begin_period(0, &[worker(1.0, 2)]);
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 4);
        for t in 1..8 {
            engine.begin_period(t, &[]);
            let _ = engine.build_graph_capped(&[], 4);
            assert_eq!(engine.live_count(), 0, "period {t}");
        }
    }

    /// A live id arriving again is caught at its record when the build
    /// writes the arrival's slot back — inside one batch or against the
    /// live set, with a departure beside it or not.
    #[test]
    fn already_live_arrival_panics_at_its_record() {
        let input = |x: f64| WorkerInput::new(&grid(), Point::new(x, 5.0), 3.0);
        let cases: [(&str, &[u32], &[u32], u32); 4] = [
            ("duplicate inside arrivals", &[3, 2, 3], &[], 3),
            ("adjacent duplicate arrivals", &[3, 3], &[], 3),
            ("arrival of a live id", &[3, 1], &[], 1),
            ("live id arrives while another leaves", &[1], &[0], 1),
        ];
        for (what, arrivals, departures, id) in cases {
            // Ids 0 and 1 live; 2 and 3 admitted dead, so never held a slot.
            let mut engine = WorkerLifecycle::open_ended(&grid());
            let live = [worker(1.0, u32::MAX), worker(2.0, u32::MAX)];
            engine.begin_period(0, &[live[0], live[1], worker(3.0, 0), worker(4.0, 0)]);
            let _ = engine.build_graph_capped(&[], 4);
            engine.arrivals = arrivals.iter().map(|&id| (id, input(id.into()))).collect();
            engine.departures = departures.to_vec();
            let panic = std::panic::catch_unwind(move || {
                let _ = engine.build_graph_capped(&[], 4);
            })
            .expect_err(what);
            let text = panic_text(&panic);
            let message = format!("arrival of an already-live worker id {id}");
            assert!(text.contains(&message), "{what}: panicked with {text:?}");
        }
    }

    /// A caught panic's message.
    fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("string panic payload")
    }

    /// The ids of the staged arrivals, and the staged departures.
    fn staged(engine: &WorkerLifecycle) -> (Vec<u32>, Vec<u32>) {
        let arrived = engine.arrivals.iter().map(|&(id, _)| id).collect();
        (arrived, engine.departures.clone())
    }

    /// An open-ended lifecycle (the service's shape) with one worker
    /// admitted in period 0, its window closed and its arrival applied
    /// by a build, so nothing is staged.
    fn with_one_worker(duration: u32) -> WorkerLifecycle {
        let mut engine = WorkerLifecycle::open_ended(&grid());
        engine.admit(0, &worker(1.0, duration));
        assert_eq!(staged(&engine), (vec![], vec![]), "nothing before fire");
        engine.fire(0);
        assert_eq!(staged(&engine), (vec![0], vec![]));
        let _ = engine.build_graph_capped(&[], 4);
        assert_eq!(staged(&engine), (vec![], vec![]));
        engine
    }

    #[test]
    fn departing_an_available_worker_emits_one_departure() {
        let mut engine = with_one_worker(3);
        engine.depart(0);
        assert_eq!(engine.departures, [0]);
        // Departing again is a no-op, and so is the expiry that was
        // scheduled at admission.
        engine.depart(0);
        engine.fire(3);
        assert_eq!(staged(&engine), (vec![], vec![0]));
    }

    #[test]
    fn departing_a_busy_worker_drops_its_release() {
        let mut engine = with_one_worker(u32::MAX);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 2);
        assert_eq!(
            engine.departures,
            [0],
            "dispatch takes the worker off the live set"
        );
        // Busy workers are in no live set: nothing to stage.
        engine.depart(0);
        assert_eq!(engine.departures, [0]);
        engine.fire(2);
        assert!(
            engine.arrivals.is_empty(),
            "the release of a departed worker fired"
        );
    }

    #[test]
    fn departing_an_unknown_id_is_ignored() {
        let mut engine = with_one_worker(u32::MAX);
        engine.depart(42);
        assert_eq!(staged(&engine), (vec![], vec![]));
        assert_eq!(engine.admitted(), 1);
    }

    /// Admit → depart inside one window stages nothing, and the
    /// admissions on either side — a zero-duration one among them, which
    /// takes an id but never lives — keep their ids.
    #[test]
    fn same_window_departure_cancels_without_emitting() {
        let mut engine = with_one_worker(u32::MAX);
        engine.admit(1, &worker(2.0, u32::MAX)); // id 1
        engine.admit(1, &worker(3.0, u32::MAX)); // id 2, cancelled below
        engine.admit(1, &worker(4.0, 0)); // id 3
        engine.admit(1, &worker(5.0, 2)); // id 4
        engine.depart(2);
        // Again, and an id not issued yet: both no-ops.
        engine.depart(2);
        engine.depart(5);
        assert_eq!(
            staged(&engine),
            (vec![], vec![]),
            "the window stages nothing itself"
        );
        engine.fire(1);
        assert_eq!(staged(&engine), (vec![1, 4], vec![]));
        // The cancelled worker's expiry (none: u32::MAX) and the
        // survivor's fire as usual in later periods.
        engine.fire(3);
        assert_eq!(engine.departures, [4]);
        assert_eq!(engine.admitted(), 5);
    }

    /// Once `fire` has closed the window an id arrived in, departing it
    /// emits exactly one departure — even with a new window open.
    #[test]
    fn previous_window_departure_still_emits() {
        let mut engine = with_one_worker(u32::MAX);
        engine.admit(1, &worker(2.0, u32::MAX)); // id 1, open window
        engine.depart(0);
        engine.depart(0);
        assert_eq!(engine.departures, [0]);
        engine.fire(1);
        assert_eq!(staged(&engine), (vec![1], vec![0]));
    }

    /// A checkpoint restores a lifecycle that continues exactly like the
    /// one that wrote it, busy workers included; a `u32::MAX` expiry,
    /// which an open-ended lifecycle cannot fire, is not scheduled at
    /// all.
    #[test]
    fn saved_records_and_schedule_restore_the_same_transitions() {
        let mut engine = WorkerLifecycle::open_ended(&grid());
        engine.admit(0, &worker(1.0, 4));
        engine.admit(0, &worker(2.0, u32::MAX));
        engine.admit(0, &worker(3.0, 0));
        engine.fire(0);
        assert_eq!(staged(&engine), (vec![0, 1], vec![]));
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 1, Point::new(9.0, 9.0), 2);
        assert_eq!(engine.schedule.keys().collect::<Vec<_>>(), [&2, &4]);
        let words = saved(&engine);

        let mut restored = WorkerLifecycle::open_ended(&grid());
        let mut r = StateWords::new(&words);
        restored.load(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.admitted(), 3);
        assert_eq!(saved(&restored), words);

        for t in 1..6 {
            for engine in [&mut engine, &mut restored] {
                let _ = engine.build_graph_capped(&[], 4);
                engine.fire(t);
            }
            assert_eq!(engine.arrivals, restored.arrivals, "period {t}");
            assert_eq!(staged(&engine), staged(&restored), "period {t}");
            let arrived = if t == 2 { vec![1] } else { vec![] };
            let departed = if t == 4 { vec![0] } else { vec![] };
            assert_eq!(staged(&engine), (arrived, departed), "period {t}");
        }
        // A truncated stream is an error, not a panic.
        let mut short = WorkerLifecycle::open_ended(&grid());
        let mut r = StateWords::new(&words[..words.len() - 1]);
        assert_eq!(short.load(&mut r), Err(StateError::Truncated));
    }

    /// The worker side of a checkpoint, word for word, against
    /// `tests/golden/checkpoint_words.txt`: a layout change made alike in
    /// `save` and `load` round-trips, and only this sees it. Worker 0 is
    /// available with an expiry, worker 1 busy with a release, worker 2
    /// gone from the start (duration 0) and worker 3 consumed, its
    /// departure staged. The words: the 4 records in one lane word
    /// (codes 0, 1, 2, 2), then the expiries of the two not gone; live
    /// workers 0, 1 and 3 as `id, x, y, radius`; the staged departures
    /// (the dispatched and the consumed worker); the schedule's three
    /// periods — worker 1's release at 3 (`1, id, x, y, radius`), worker
    /// 0's expiry at 5, worker 3's at 8.
    #[test]
    fn checkpoint_words_are_the_golden() {
        let w = |x: f64, radius: f64, duration: u32| GroundWorker {
            location: Point::new(x, 5.5),
            radius,
            duration,
        };
        let mut engine = WorkerLifecycle::new(&grid(), 10, 0);
        let arrivals = [
            w(1.25, 3.0, 5),
            w(2.5, 2.5, u32::MAX),
            w(3.75, 1.0, 0),
            w(6.5, 2.0, 8),
        ];
        engine.begin_period(0, &arrivals);
        let _ = engine.build_graph_capped(&[], 4);
        engine.dispatch(0, 1, Point::new(8.5, 9.25), 3);
        engine.consume(3);
        let words = saved(&engine);
        let lines = Labelled {
            words: words.clone(),
            labels: Vec::new(),
        }
        .lines();
        assert_golden(env!("CARGO_MANIFEST_DIR"), "checkpoint_words.txt", &lines);
        let mut restored = WorkerLifecycle::new(&grid(), 10, 0);
        restored.load(&mut StateWords::new(&words)).unwrap();
        assert_eq!(saved(&restored), words);
    }

    /// A release entry's geometry is held to what admission holds an
    /// arrival to, like a live worker's: a NaN radius would poison the
    /// release tick, a non-finite location would release a worker no
    /// query reaches.
    #[test]
    fn a_release_with_invalid_geometry_is_refused() {
        let mut engine = with_one_worker(u32::MAX);
        engine.dispatch(0, 0, Point::new(9.0, 9.0), 2);
        let words = saved(&engine);
        // The last five words are the release entry `1, id, x, y, radius`.
        let entry = words.len() - 5;
        assert_eq!(words[entry..entry + 2], [1, 0]);
        for (at, lie) in [(2, f64::NAN), (3, f64::INFINITY), (4, f64::NAN), (4, -1.0)] {
            let mut lying = words.clone();
            lying[entry + at] = lie.to_bits();
            let mut restored = WorkerLifecycle::open_ended(&grid());
            assert_eq!(
                restored.load(&mut StateWords::new(&lying)),
                Err(StateError::Mismatch("checkpoint release invalid")),
                "word {at} = {lie}"
            );
        }
    }

    /// Worker `id`'s page of records is allocated.
    fn page_held(engine: &WorkerLifecycle, id: u32) -> bool {
        engine.records.pages[id as usize / PAGE].is_some()
    }

    fn saved(engine: &WorkerLifecycle) -> Vec<u64> {
        let mut words = Vec::new();
        engine.save(&mut words);
        assert_eq!(words.len(), engine.saved_words());
        words
    }

    /// A page is freed once its last record is let go of, and a record
    /// that turned `Gone` still holds its slot until the next build
    /// applies its staged departure: the page must outlive the `Gone`
    /// transition, or the build finds no slot to give back. A full page
    /// keeps one worker past the rest, which then leaves by `consume`
    /// or by a dispatch past its expiry; its departure applies at the
    /// next build — after a save and load before that build too — and
    /// only that build frees the page.
    #[test]
    fn a_page_outlives_its_last_staged_departure() {
        const LAST: u32 = 7;
        for how in ["consumed", "dispatched past its expiry"] {
            let mut engine = WorkerLifecycle::open_ended(&grid());
            // A full page: every worker but `LAST` expires at period 1,
            // `LAST` (at x = 9) at period 3.
            let page: Vec<GroundWorker> = (0..PAGE as u32)
                .map(|id| {
                    if id == LAST {
                        worker(9.0, 3)
                    } else {
                        worker(1.0, 1)
                    }
                })
                .collect();
            engine.begin_period(0, &page);
            let _ = engine.build_graph_capped(&[], 4);
            engine.begin_period(1, &[]);
            let graph = engine.build_graph_capped(&task_at(9.0), 4);
            assert_eq!(live_ids(&engine), [LAST], "{how}");
            assert_eq!((graph.n_right(), engine.id_of_dense(0)), (1, LAST));
            if how == "consumed" {
                engine.consume(LAST);
            } else {
                engine.dispatch(1, LAST, Point::new(9.0, 9.0), 5);
            }
            assert!(
                page_held(&engine, LAST),
                "{how}: freed with a staged departure"
            );

            let words = saved(&engine);
            let mut restored = WorkerLifecycle::open_ended(&grid());
            restored.load(&mut StateWords::new(&words)).unwrap();
            assert_eq!(
                saved(&restored),
                words,
                "{how}: the restored state saves the same"
            );
            for engine in [&mut engine, &mut restored] {
                assert!(
                    page_held(engine, LAST),
                    "{how}: the staged departure holds the page"
                );
                assert_eq!(live_ids(engine), [LAST], "{how}: live until the next build");
                engine.begin_period(2, &[]);
                let _ = engine.build_graph_capped(&task_at(9.0), 4);
                assert_eq!(engine.live_count(), 0, "{how}: the departure applied");
                assert!(live_ids(engine).is_empty());
                assert!(!page_held(engine, LAST), "{how}: the page is freed with it");
                // A freed page reads as `Gone` records: its expiries and
                // departures are no-ops.
                engine.depart(LAST);
                engine.begin_period(3, &[]);
                let _ = engine.build_graph_capped(&task_at(9.0), 4);
                assert_eq!(engine.live_count(), 0, "{how}");
            }
            assert_eq!(saved(&restored), saved(&engine), "{how}");
        }
        // A freed page saves as the `Gone` records it reads as.
        let gone = [Record::GONE; STATUSES_PER_WORD];
        assert_eq!(lane_word(&gone), GONE_LANE_WORD);
    }

    /// Ids are `u32`s: the last admission takes id `u32::MAX` and lives
    /// like any other, and the one after it is refused rather than
    /// handed id 0 again. The counter is set, not counted up: to what
    /// 2³² − 1 admissions leave when every page before the open one was
    /// freed (a 32 MiB page table of freed pages).
    #[test]
    fn the_last_admission_id_is_u32_max_and_the_next_is_refused() {
        let mut engine = WorkerLifecycle::open_ended(&grid());
        let records = &mut engine.records;
        records.len = u32::MAX as usize;
        records
            .pages
            .resize_with(records.len.div_ceil(PAGE), || None);
        *records.pages.last_mut().unwrap() = Some(Page::empty());
        assert_eq!(engine.next_id(), Some(u32::MAX));

        engine.begin_period(0, &[worker(1.0, 2)]);
        let _ = engine.build_graph_capped(&[], 4);
        assert_eq!(live_ids(&engine), [u32::MAX]);
        assert_eq!((engine.admitted(), engine.next_id()), (1 << 32, None));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.admit(1, &worker(2.0, 2));
        }))
        .expect_err("the 2^32-nd id is not reused");
        let text = panic_text(&refused);
        assert!(text.contains("all 2^32 worker ids are taken"), "{text:?}");
        assert_eq!(engine.admitted(), 1 << 32);

        // The last worker expires on schedule, and its page — full now —
        // is freed with it.
        for t in 1..3 {
            engine.begin_period(t, &[]);
            let _ = engine.build_graph_capped(&[], 4);
        }
        assert_eq!(engine.live_count(), 0);
        assert!(!page_held(&engine, u32::MAX));
    }
}
