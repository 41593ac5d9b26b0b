//! The seeded explorer: one `u64` seed draws a whole case of the service
//! stack (workload, strategy, match policy, calibration, edge cap,
//! producer partition, the longest run a lane is cut into, journal
//! cadence, and a `FaultPlan` crash point with, in half the draws, a
//! corruption of the files it left), and one check runs it against
//! serial `push`, which runs against `Simulation::run`. A failure names
//! the seed, the case and the first divergent label, then shrinks by
//! halving the stream (`maps_testkit::explore`). CI runs seeds
//! `0..BUDGET` and `explorer_corpus.txt`, one regression seed per line.
//!
//! No thread runs here. Each lane is its share of the stream, stamped
//! by the producer's rule and cut into seeded runs, and
//! `ingest::merge` — the sequencer's own loop, with the blocking lanes
//! taken out — merges the lanes; so a seed replays the same runs every
//! time. Thread timing can only move where a lane is cut, and
//! `every_cut_of_a_small_epoch` enumerates every cut of a small epoch.
//! The lane itself, under real threads and at capacity 1, is the
//! `ingest::` unit suite's and `tests/ingest_shutdown.rs`'s.

use maps_core::{paper_default_strategy, PricingStrategy, StateWords, StrategyKind};
use maps_service::ingest::{chunk_bounds, merge, period_events, Run};
use maps_service::journal::*;
use maps_service::{
    recover, JournalConfig, ServiceConfig, ServiceError, ServiceEvent, ShardedService,
    TICK_PRODUCER,
};
use maps_simulator::*;
use maps_spatial::{GridSpec, Point, Rect};
use maps_testkit::*;
use std::collections::{BTreeMap, BTreeSet};
use std::env::temp_dir;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use ServiceError::{Journal, Poisoned};

/// Seeds `0..BUDGET` run in CI. A seed's low digits enumerate strategy ×
/// match policy, so any 10 consecutive seeds cover that grid; the rest
/// of a case comes from the seed's hash.
const BUDGET: u64 = 380;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Synthetic,
    Beijing,
    Swing,
    Churn,
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    workload: Workload,
    /// Epochs streamed: a prefix of the workload's world.
    periods: usize,
    kind: StrategyKind,
    policy: MatchPolicy,
    options: SimOptions,
    producers: usize,
    /// The longest run a lane is cut into (`usize::MAX`: no bound).
    max_run: usize,
    /// The journal's checkpoint cadence, if the stack journals.
    cadence: Option<u32>,
    fault: Option<Fault>,
}

fn draw(seed: u64) -> Case {
    use Workload::*;
    let mut rng = XorShift::seeded(seed);
    let mut pick = |n: usize| rng.below(n as u64) as usize;
    let workload = [Churn, Churn, Synthetic, Synthetic, Beijing, Swing][pick(6)];
    let periods = match workload {
        Churn => 1 + pick(6),
        Synthetic => 2 + pick(7),
        Beijing => 6 + pick(10),
        Swing => SWING_PERIODS,
    };
    // Two draws: two fifths of the cases cut runs of at most 1 or 2
    // events, the rest draw the bound from all five.
    let order = pick(5);
    let max_run = [1, 2, 3, 7, usize::MAX][if order >= 3 { order - 3 } else { pick(5) }];
    let options = SimOptions {
        calibrate: pick(3) == 0,
        max_edges_per_task: [1, 3, 16, 64, 10_000][pick(5)],
        ..SimOptions::default()
    };
    let cadence = (pick(4) != 0).then(|| 1 + pick(4) as u32);
    let fault = (cadence.is_some() && pick(4) != 0)
        .then(|| FaultPlan::new(seed, 8, periods as u32).next_fault());
    // A serial caller's events all travel on lane 0.
    let serial = fault.is_some_and(|f| f.crash == Crash::TickPanic);
    Case {
        seed,
        workload,
        periods,
        kind: StrategyKind::ALL[(seed % 5) as usize],
        policy: [MatchPolicy::Consume, MatchPolicy::Relocate { speed: 2.0 }]
            [(seed / 5 % 2) as usize],
        options,
        producers: if serial { 1 } else { 1 + pick(8) },
        max_run,
        cadence,
        fault,
    }
}

struct World {
    case: Case,
    truth: GroundTruth,
    /// The case's strategy after its one calibration, as `save_state`
    /// words (`None` for an uncalibrated case).
    calibrated: Option<Vec<u64>>,
    epochs: Vec<Vec<ServiceEvent>>,
    /// Lane `p` sends `epochs[e][parts[e][p]..parts[e][p + 1]]`.
    parts: Vec<Vec<usize>>,
    /// Serial push's outcome after each epoch.
    serial: Vec<Outcome>,
}

fn world(case: &Case) -> World {
    let mut rng = XorShift::seeded(!case.seed);
    let (mut truth, epochs) = match case.workload {
        Workload::Churn => churn(&mut rng, case.periods, false),
        Workload::Swing => churn(&mut rng, case.periods, true),
        workload => {
            let mut truth = match workload {
                Workload::Beijing => BeijingConfig::rush_hour(10)
                    .with_scale(0.01)
                    .build(case.seed),
                _ => SyntheticConfig {
                    num_workers: 60,
                    num_tasks: 240,
                    periods: 8,
                    grid_side: 4,
                    worker_duration: [3, u32::MAX][rng.below(2) as usize],
                    ..SyntheticConfig::paper_default()
                }
                .build(case.seed),
            };
            truth.periods.truncate(case.periods);
            let epochs = truth.periods.iter().map(|p| period_events(p).collect());
            let epochs = epochs.collect();
            (truth, epochs)
        }
    };
    truth.match_policy = case.policy;
    // Half the epochs split evenly, half at random cuts (a lane may sit
    // an epoch out).
    let mut parts = Vec::new();
    for events in &epochs {
        let mut bounds = chunk_bounds(events.len(), case.producers);
        if rng.below(2) == 0 {
            for b in &mut bounds[1..case.producers] {
                *b = rng.below(events.len() as u64 + 1) as usize;
            }
            bounds.sort_unstable();
        }
        parts.push(bounds);
    }
    let calibrated = case.options.calibrate.then(|| {
        let mut strategy = paper_default_strategy(case.kind, truth.grid.num_cells());
        let seed = case.options.probe_seed;
        strategy.calibrate(&mut GroundTruthProbe::new(&truth.demands, seed));
        let mut words = Vec::new();
        strategy.save_state(&mut words);
        words
    });
    let mut w = World {
        case: case.clone(),
        truth,
        calibrated,
        epochs,
        parts,
        serial: Vec::new(),
    };
    w.serial = serial(&w);
    w
}

/// A fresh instance of the case's strategy, holding the state of its
/// one calibration: every driver starts from it uncalibrated, so a case
/// runs Algorithm 1 once, not once per driver.
fn strategy(w: &World) -> Box<dyn PricingStrategy> {
    let mut strategy = paper_default_strategy(w.case.kind, w.truth.grid.num_cells());
    if let Some(words) = &w.calibrated {
        let state = &mut StateWords::new(words);
        strategy.load_state(state).expect("the words it saved");
    }
    strategy
}

/// A service sized for replaying the world, around [`strategy`].
fn service(w: &World) -> ShardedService {
    let config = ServiceConfig {
        max_edges_per_task: w.case.options.max_edges_per_task,
        expected_workers: w.truth.total_workers().max(1),
        ..ServiceConfig::default()
    };
    ShardedService::with_strategy(w.truth.grid, w.truth.match_policy, strategy(w), config)
}

fn share(w: &World, epoch: usize, lane: usize) -> &[ServiceEvent] {
    let bounds = &w.parts[epoch];
    &w.epochs[epoch][bounds[lane]..bounds[lane + 1]]
}

fn uniform(rng: &mut XorShift) -> Point {
    let mut coordinate = || rng.below(5_000) as f64 / 100.0;
    Point::new(coordinate(), coordinate())
}

/// Kanoria's i.i.d. uniform arrivals (PAPERS.md) on a 50 × 50 region,
/// streamed with what a ground truth cannot say: workers streamed
/// immortal and departed by an explicit event when their window ends,
/// or departed in the window they arrive in (the truth's `duration: 0`;
/// even ids right behind their arrival, odd ones after the tasks),
/// departures of ids gone or never admitted, and NaN events admission
/// must refuse before they take an id. The `swing` world adds `SURGE`
/// workers at period `SURGE_AT` and 30 tasks a period: the live set
/// swings more than 16× up and down, so the index regrids both ways.
fn churn(rng: &mut XorShift, periods: usize, swing: bool) -> (GroundTruth, Vec<Vec<ServiceEvent>>) {
    let mut truth = SyntheticConfig {
        num_workers: 1,
        num_tasks: 1,
        periods: 1,
        grid_side: 3,
        region_side: 50.0,
        ..SyntheticConfig::paper_default()
    }
    .build(rng.next_u64());
    truth.periods.clear();
    let mut epochs = Vec::new();
    let (mut next_id, mut departs, mut gone) = (0, BTreeMap::new(), Vec::new());
    let depart = |id| ServiceEvent::WorkerDepart { id };
    for t in 0..periods {
        let (mut data, mut late) = (PeriodData::default(), Vec::new());
        let due: Vec<u32> = departs.remove(&t).unwrap_or_default();
        gone.extend(&due);
        let mut events: Vec<_> = due.into_iter().map(depart).collect();
        let surge = swing && t == SURGE_AT;
        for _ in 0..rng.below(5) + if surge { SURGE } else { 0 } {
            let mut worker = GroundWorker {
                location: uniform(rng),
                radius: 2.0 + rng.below(1_500) as f64 / 100.0,
                duration: [u32::MAX, 1, 2, 3][rng.below(4) as usize],
            };
            if surge {
                worker.duration = SURGE_DURATION;
            }
            if rng.below(16) == 0 {
                worker.radius = f64::NAN;
                events.push(ServiceEvent::WorkerArrive { worker });
                continue;
            }
            let (id, mut streamed, mut lived) = (next_id, worker, worker);
            next_id += 1;
            match rng.below(4) {
                0 => lived.duration = 0,
                1 if worker.duration != u32::MAX => {
                    streamed.duration = u32::MAX;
                    let at = t + worker.duration as usize;
                    departs.entry(at).or_insert_with(Vec::new).push(id);
                }
                _ => {}
            }
            events.push(ServiceEvent::WorkerArrive { worker: streamed });
            if lived.duration == 0 {
                gone.push(id);
                [&mut events, &mut late][id as usize % 2].push(depart(id));
            }
            data.workers.push(lived);
        }
        for _ in 0..if swing { 30 } else { rng.below(8) } {
            let origin = uniform(rng);
            let mut task = GroundTask {
                origin,
                destination: uniform(rng),
                distance: 0.5 + rng.below(300) as f64 / 100.0,
                valuation: 1.0 + rng.below(400) as f64 / 100.0,
                cell: truth.grid.cell_of(origin),
            };
            if rng.below(12) == 0 {
                task.origin = Point::new(f64::NAN, 1.0);
            } else {
                data.tasks.push(task);
            }
            events.push(ServiceEvent::TaskRequest { task });
        }
        events.append(&mut late);
        if rng.below(3) == 0 {
            // A departed id, or one never admitted.
            let stale = gone.get(rng.below(gone.len() as u64 + 1) as usize);
            events.push(depart(stale.copied().unwrap_or(u32::MAX)));
        }
        truth.periods.push(data);
        epochs.push(events);
    }
    (truth, epochs)
}

const SWING_PERIODS: usize = 12;
const SURGE: u64 = 1600;
const SURGE_AT: usize = 4;
const SURGE_DURATION: u32 = 3; // live in periods 4, 5 and 6

fn labelled(outcome: &Outcome) -> Labelled {
    let (words, labels) = (outcome.deterministic_bits(), outcome.deterministic_labels());
    Labelled { words, labels }
}

/// Serial `push`: the outcome after every epoch.
fn serial(w: &World) -> Vec<Outcome> {
    let mut svc = service(w);
    let mut live = Vec::new();
    let outcomes = (w.epochs.iter())
        .map(|events| {
            let tick = [&ServiceEvent::PeriodTick];
            events.iter().chain(tick).for_each(|&e| svc.push(e));
            live.push(svc.live_workers());
            svc.outcome_snapshot().clone()
        })
        .collect();
    if w.case.workload == Workload::Swing && live.len() == SWING_PERIODS {
        let after = SURGE_AT + SURGE_DURATION as usize;
        let quiet = live[..SURGE_AT].iter().chain(&live[after..]).max();
        assert!(live[SURGE_AT] > 16 * quiet.unwrap(), "no swing: {live:?}");
    }
    outcomes
}

/// Serial push equals `Simulation::run` on the ground-truth prefix, at
/// every power-of-two epoch count and at the end, the events admission
/// refused counted on top.
fn check_batch(w: &World) {
    let n = w.serial.len();
    let due = |t: usize| t + 1 == n || (t + 1).is_power_of_two();
    for t in (0..n).filter(|&t| due(t)) {
        let mut prefix = w.truth.clone();
        prefix.periods.truncate(t + 1);
        // The calibration already ran, in `world`.
        let options = SimOptions {
            calibrate: false,
            ..w.case.options
        };
        let run = Simulation::with_strategy(prefix, strategy(w)).with_options(options);
        let mut batch = run.run();
        batch.rejected_events = w.serial[t].rejected_events;
        let what = format!("serial push vs Simulation::run after epoch {t}");
        assert_words_eq(&labelled(&batch), &w.serial[t].deterministic_bits(), what);
    }
}

/// The stack after `epoch` against serial push, with `resent`
/// duplicates suppressed on top.
fn check_epoch(w: &World, got: &Outcome, resent: u64, epoch: usize) {
    let mut want = w.serial[epoch].clone();
    want.suppressed_duplicates = resent;
    let what = format!("stack vs serial push after epoch {epoch}");
    assert_words_eq(&labelled(&want), &got.deterministic_bits(), what);
}

/// A slot of a lane, with the stamps its producer gave it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    epoch: u64,
    seq: u64,
    event: ServiceEvent,
}

fn is_marker(slot: &Slot) -> bool {
    matches!(slot.event, ServiceEvent::PeriodTick)
}

/// A lane's stream stamped by the producer's rule from `(epoch, seq)`:
/// an event takes the next seq, and a marker takes the next seq and
/// opens `epoch + 1` at seq 0. A reconnect is the stamp a lane starts
/// from.
fn stamp(mut epoch: u64, mut seq: u64, events: impl Iterator<Item = ServiceEvent>) -> Vec<Slot> {
    let mut slots = Vec::new();
    for event in events {
        slots.push(Slot { epoch, seq, event });
        (epoch, seq) = match event {
            ServiceEvent::PeriodTick => (epoch + 1, 0),
            _ => (epoch, seq + 1),
        };
    }
    slots
}

/// The lengths, in slots, of `slots` cut into runs of seeded length
/// `1..=max_run`. A run never spans a marker; a marker leaves with the
/// run it ends or alone. Between two markers a lane's stamps run
/// without a gap, so no run spans a stamp discontinuity either.
fn cut(slots: &[Slot], max_run: usize, rng: &mut XorShift) -> Vec<usize> {
    let (mut runs, mut at) = (Vec::new(), 0);
    while at < slots.len() {
        let events = slots[at..].iter().take_while(|s| !is_marker(s)).count();
        let len = match events {
            0 => 1,
            _ => {
                let len = (1 + rng.below(max_run as u64) as usize).min(events);
                let marker = len == events && at + len < slots.len() && rng.below(2) == 0;
                len + usize::from(marker)
            }
        };
        runs.push(len);
        at += len;
    }
    runs
}

/// `ingest::merge` over in-memory lanes: lane `p` is handed over in
/// runs of `cuts[p][0]`, `cuts[p][1]`, … slots, a marker only ever
/// ending one. Everything is queued up front, so a lane out of runs is
/// a closed lane.
fn merge_cut(
    svc: &mut ShardedService,
    lanes: &[Vec<Slot>],
    cuts: &[Vec<usize>],
    on_tick: impl FnMut(u64, &ShardedService),
) -> Result<u64, ServiceError> {
    // Per lane: runs taken, slots taken.
    let mut taken = vec![(0, 0); lanes.len()];
    let next_run = |p: usize, run: &mut Vec<ServiceEvent>| {
        let (runs, at) = &mut taken[p];
        let slots = &lanes[p][*at..][..*cuts[p].get(*runs)?];
        (*runs, *at) = (*runs + 1, *at + slots.len());
        let marker = is_marker(slots.last()?);
        let events = &slots[..slots.len() - usize::from(marker)];
        run.extend(events.iter().map(|slot| slot.event));
        let (epoch, seq) = (slots[0].epoch, slots[0].seq);
        Some(Run { epoch, seq, marker })
    };
    merge(svc, lanes.len(), next_run, on_tick)
}

/// One ingest session over `span`: lane `p` reconnects at
/// `(span.start, seqs[p])` and sends its share of each epoch, closed by
/// its marker, in seeded runs. Every tick must leave serial push's
/// outcome, `resent` duplicates suppressed on top, and each epoch of
/// `span` must fire.
fn session(
    w: &World,
    svc: &mut ShardedService,
    span: Range<usize>,
    seqs: &[u64],
    resent: u64,
) -> Result<(), ServiceError> {
    let case = &w.case;
    let lane = |p: usize| {
        let shares = span.clone().map(|e| {
            let from = if e == span.start { seqs[p] as usize } else { 0 };
            let tick = [ServiceEvent::PeriodTick];
            share(w, e, p)[from..].iter().copied().chain(tick)
        });
        stamp(span.start as u64, seqs[p], shares.flatten())
    };
    let lanes: Vec<Vec<Slot>> = (0..case.producers).map(lane).collect();
    let cut = |(p, slots): (usize, &Vec<Slot>)| {
        cut(
            slots,
            case.max_run,
            &mut XorShift::seeded(case.seed ^ p as u64),
        )
    };
    let cuts: Vec<Vec<usize>> = lanes.iter().enumerate().map(cut).collect();
    let epochs = merge_cut(svc, &lanes, &cuts, |epoch, live| {
        check_epoch(w, live.outcome_snapshot(), resent, epoch as usize);
    })?;
    assert_eq!(epochs, span.len() as u64, "epochs fired");
    Ok(())
}

/// Applies `c` to the directory a crash left; `false` if the draw found
/// nothing to mutate.
fn corrupt(dir: &Path, c: Corruption) -> bool {
    let checkpoints = list_checkpoints(dir).expect("list checkpoints");
    // A lying word is only ever read in the newest checkpoint.
    let lying = c.mutation == Mutation::LyingCheckpointWord;
    let file = if lying { 1 } else { c.file as usize };
    let path = match checkpoints.len().checked_sub(file) {
        _ if file == 0 => dir.join(JOURNAL_FILE),
        Some(i) => checkpoint_path(dir, checkpoints[i]),
        None => return false,
    };
    let mut bytes = std::fs::read(&path).expect("read the file");
    // Frame `f` is `bounds[f]..bounds[f + 1]`: an 8-byte magic, then
    // `len:u32 hash:u64 payload` frames to the end of the file.
    let mut bounds = vec![8];
    while let Some(len) = bytes[bounds[bounds.len() - 1]..].first_chunk() {
        bounds.push(bounds[bounds.len() - 1] + 12 + u32::from_le_bytes(*len) as usize);
    }
    assert_eq!(bounds.last(), Some(&bytes.len()), "whole frames");
    let frames = bounds.len() - 1;
    let pick = |n: usize| (c.at % n.max(1) as u64) as usize;
    match c.mutation {
        Mutation::DuplicateFrame | Mutation::LyingLength if frames == 0 => return false,
        Mutation::BitFlip => {
            let bit = pick(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // Even values tear 1–16 bytes off the end: a torn final write.
        Mutation::Truncate if c.value.is_multiple_of(2) => {
            bytes.truncate(bytes.len() - 1 - pick(16).min(bytes.len() - 9));
        }
        Mutation::Truncate => bytes.truncate(pick(bytes.len())),
        Mutation::DuplicateFrame => {
            let f = pick(frames);
            let frame = bytes[bounds[f]..bounds[f + 1]].to_vec();
            bytes.splice(bounds[f + 1]..bounds[f + 1], frame);
        }
        Mutation::SwapFrames => {
            // Excluded draw: two frames of *different* lanes inside one
            // epoch still pass recovery's two order checks, and a total
            // order check would refuse a legitimate serial push after a
            // multi-producer session (ROADMAP 4(f)). Only same-lane,
            // cross-epoch or tick pairs are swapped.
            // (A checkpoint is one frame: nothing to swap.)
            let records = decode_records(&bytes[8..]).0;
            let cross_lane = |f: usize| match (records.get(f), records.get(f + 1)) {
                (Some(a), Some(b)) => {
                    let lanes = [a.producer, b.producer];
                    a.epoch == b.epoch && lanes[0] != lanes[1] && !lanes.contains(&TICK_PRODUCER)
                }
                _ => false,
            };
            let pairs = frames.saturating_sub(1);
            let mut swappable = (0..pairs).map(|i| (pick(pairs) + i) % pairs);
            let Some(f) = swappable.find(|&f| !cross_lane(f)) else {
                return false;
            };
            bytes[bounds[f]..bounds[f + 2]].rotate_left(bounds[f + 1] - bounds[f]);
        }
        Mutation::LyingLength => {
            let f = bounds[pick(frames)];
            bytes[f..f + 4].copy_from_slice(&(c.value as u32).to_le_bytes());
        }
        Mutation::LyingCheckpointWord => {
            // An edge pattern or a value of any magnitude, re-framed: a
            // valid hash on lying content.
            let floats = [f64::NAN, f64::INFINITY, -1.0, -0.0].map(f64::to_bits);
            let edges = [[0, 1, !0, 0xFFFF_FFFF], floats].concat();
            let shape = (c.value % 72) as usize;
            let lie = edges.get(shape).map_or(c.value >> (shape % 64), |&e| e);
            let mut words = decode_checkpoint(&bytes).expect("an intact checkpoint");
            let word = pick(words.len());
            words[word] = lie;
            bytes = encode_checkpoint(&words).expect("re-frame");
        }
    }
    std::fs::write(&path, &bytes).expect("write the file back");
    true
}

/// A fresh journal directory for one run of a case.
fn scratch() -> PathBuf {
    static RUNS: Mutex<u64> = Mutex::new(0);
    let mut run = RUNS.lock().expect("the run counter");
    *run += 1;
    temp_dir().join(format!("maps_explorer_{}_{run}", std::process::id()))
}

/// Epochs as one serial stream, each closed by its tick.
fn ticked(epochs: &[Vec<ServiceEvent>]) -> impl Iterator<Item = ServiceEvent> + '_ {
    let tick = [ServiceEvent::PeriodTick];
    (epochs.iter()).flat_map(move |events| events.iter().copied().chain(tick))
}

/// Whether a push failed for good; a rejection is part of the stream.
fn fatal(pushed: &Result<(), ServiceError>) -> bool {
    matches!(pushed, Err(Poisoned(_) | Journal(_)))
}

fn check_stack(w: &World, dir: &Path) {
    let (case, n) = (&w.case, w.epochs.len());
    let mut svc = service(w);
    let journal = case.cadence.map(|n| JournalConfig::new(dir, n));
    if let Some(journal) = &journal {
        svc.attach_journal(journal).expect("attach the journal");
    }
    let zeros = vec![0; case.producers];
    let Some(fault) = case.fault else {
        session(w, &mut svc, 0..n, &zeros, 0).expect("sequencing");
        return;
    };
    let e = fault.epoch as usize;
    let mut victim = None; // the killed lane
    match fault.crash {
        Crash::EpochBoundary => session(w, &mut svc, 0..e + 1, &zeros, 0).expect("sequencing"),
        // The durable prefix the merge order leaves: lanes before the
        // victim whole, the victim's first events, nothing after it.
        Crash::ProducerKill {
            producer,
            events_sent,
            ..
        } => {
            session(w, &mut svc, 0..e, &zeros, 0).expect("sequencing");
            let v = producer as usize % case.producers;
            let sent = share(w, e, v).len().min(events_sent as usize);
            let shares = (0..v).map(|p| share(w, e, p));
            for (p, share) in (0..).zip(shares.chain([&share(w, e, v)[..sent]])) {
                for (seq, &event) in (0..).zip(share) {
                    let pushed = svc.push_stamped(p, e as u64, seq, event);
                    assert!(!fatal(&pushed), "{pushed:?}");
                }
            }
            victim = Some(v);
        }
        // The poisoned tick fails typed, under a serial caller or under
        // `merge`, and stops the run.
        Crash::TickPanic | Crash::SequencerDeath => {
            svc.inject_tick_fault(e as u32);
            let died = if fault.crash == Crash::TickPanic {
                let mut pushed = ticked(&w.epochs).map(|event| svc.try_push(event));
                pushed.find(fatal).unwrap_or(Ok(()))
            } else {
                session(w, &mut svc, 0..n, &zeros, 0)
            };
            let poisoned = matches!(&died, Err(Poisoned(p)) if p.period as usize == e);
            assert!(poisoned, "{died:?}");
        }
    }
    if fault.flushed {
        drop(svc);
    } else {
        std::mem::forget(svc); // a killed process loses its buffered writes
    }
    let journal = journal.as_ref().expect("a crash needs a journal");
    // The mutation recovery meets, if the draw found something to mutate.
    let damage = (fault.corruption).filter(|&c| corrupt(&journal.dir, c));
    let damage = damage.map(|c| c.mutation);
    let config = ServiceConfig {
        max_edges_per_task: case.options.max_edges_per_task,
        ..ServiceConfig::default()
    };
    let (grid, policy) = (w.truth.grid, w.truth.match_policy);
    let mut svc = match recover(grid, policy, case.kind, config, journal) {
        Ok(recovered) => recovered.service,
        Err(_) if damage.is_some() => return,
        Err(err) => panic!("recovery failed: {err}"),
    };
    let served = svc.periods_served() as usize;
    if damage == Some(Mutation::LyingCheckpointWord) {
        // A lying word may leave any state: a serial finish only has to
        // return.
        let rest = w.epochs.get(served..).unwrap_or_default();
        ticked(rest).find(|&event| fatal(&svc.try_push(event)));
        return;
    }
    assert!(served <= e + 1, "recovered past the crash: epoch {served}");
    if damage.is_none() {
        let at = if victim.is_some() { e } else { e + 1 };
        assert_eq!(served, at, "recovered to the wrong epoch");
    }
    // Every lane resumes one past its watermark in the epoch served.
    let next = |p| match svc.watermark(p) {
        Some((epoch, seq)) if epoch == served as u64 => seq + 1,
        _ => 0,
    };
    let mut seqs: Vec<u64> = (0..case.producers as u32).map(next).collect();
    // On an epoch boundary the recovered outcome is serial push's.
    if served > 0 && seqs.iter().all(|&seq| seq == 0) {
        check_epoch(w, svc.outcome_snapshot(), 0, served - 1);
    }
    // At-least-once: the victim re-sends its whole share, and the
    // watermark suppresses what was durable.
    let resend = matches!(fault.crash, Crash::ProducerKill { resend: true, .. });
    let resent = (victim.filter(|_| resend)).map_or(0, |v| std::mem::take(&mut seqs[v]));
    session(w, &mut svc, served..n, &seqs, resent).expect("sequencing");
}

/// Runs the case against serial push; the scratch directory goes
/// whatever the outcome.
fn check(case: &Case) {
    let dir = scratch();
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let w = world(case);
        check_batch(&w);
        check_stack(&w, &dir);
    }));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = checked {
        resume_unwind(panic);
    }
}

/// The case on the first half of its stream, its crash kept inside it;
/// `None` once a single epoch is left.
fn halve_periods(case: &Case) -> Option<Case> {
    (case.periods > 1).then(|| {
        let mut half = case.clone();
        half.periods /= 2;
        if let Some(fault) = &mut half.fault {
            fault.epoch = fault.epoch.min(half.periods as u32 - 1);
        }
        half
    })
}

/// The budget in two halves, one test each, so libtest runs them side
/// by side: one test of every seed set the binary's wall time alone.
#[test]
fn seed_budget_lower_half() {
    explore(0..BUDGET / 2, draw, halve_periods, check);
}

#[test]
fn seed_budget_upper_half() {
    explore(BUDGET / 2..BUDGET, draw, halve_periods, check);
}

#[test]
fn seed_corpus() {
    let seeds = include_str!("explorer_corpus.txt")
        .lines()
        .filter_map(|line| {
            let seed = line.split('#').next().unwrap_or_default().trim();
            let hex = seed.trim_start_matches("0x");
            (!seed.is_empty()).then(|| u64::from_str_radix(hex, 16).expect("a hex seed"))
        });
    explore(seeds, draw, halve_periods, check);
}

/// Every cut of one small epoch: 9 events on 3 lanes, 3 each — with a
/// departure in its arrival's window and a NaN arrival admission
/// refuses — and each lane cut every way: 4 compositions of its 3
/// events × its marker with the last run or alone, 8³ = 512 cases. A
/// second epoch follows, each lane's share in one run. Every case must
/// leave serial push's bits after each tick and fire both.
#[test]
fn every_cut_of_a_small_epoch() {
    let grid = GridSpec::square(Rect::square(10.0), 2);
    let arrive = |x: f64, radius: f64| ServiceEvent::WorkerArrive {
        worker: GroundWorker {
            location: Point::new(x, 2.0),
            radius,
            duration: u32::MAX,
        },
    };
    let request = |x: f64, valuation: f64| {
        let origin = Point::new(x, 2.5);
        let task = GroundTask {
            origin,
            destination: Point::new(x + 1.0, 3.0),
            distance: 1.5,
            valuation,
            cell: grid.cell_of(origin),
        };
        ServiceEvent::TaskRequest { task }
    };
    // Ids follow the canonical order: lane 0 admits 0 and 1, lane 1
    // refuses its NaN arrival and departs 0 in the window it arrived in.
    let shares = [
        [
            vec![arrive(1.0, 3.0), arrive(6.0, 3.0), request(1.5, 9.0)],
            vec![request(6.5, 9.0), arrive(3.0, 4.0)],
        ],
        [
            vec![
                arrive(2.0, f64::NAN),
                ServiceEvent::WorkerDepart { id: 0 },
                request(6.0, 6.0),
            ],
            vec![request(2.5, 5.0)],
        ],
        [
            vec![arrive(8.0, 3.0), request(8.5, 7.0), request(2.0, 8.0)],
            vec![arrive(7.0, 3.0), request(7.5, 9.0), request(3.5, 8.0)],
        ],
    ];
    let service = || {
        let config = ServiceConfig::default();
        ShardedService::new(grid, MatchPolicy::Consume, StrategyKind::Maps, config)
    };
    let mut serial = service();
    let want: Vec<Labelled> = (0..2)
        .map(|e| {
            shares
                .iter()
                .for_each(|lane| lane[e].iter().for_each(|&x| serial.push(x)));
            serial.push(ServiceEvent::PeriodTick);
            labelled(serial.outcome_snapshot())
        })
        .collect();
    let tick = || std::iter::once(ServiceEvent::PeriodTick);
    let lanes: Vec<Vec<Slot>> = (shares.iter())
        .map(|[first, second]| {
            let first = first.iter().copied().chain(tick());
            stamp(0, 0, first.chain(second.iter().copied()).chain(tick()))
        })
        .collect();
    const COMPOSITIONS: [&[usize]; 4] = [&[3], &[2, 1], &[1, 2], &[1, 1, 1]];
    // Cut `c` of lane `p`: a composition, the marker, then epoch 1 whole.
    let lane_cut = |p: usize, c: usize| {
        let mut runs = COMPOSITIONS[c / 2].to_vec();
        match c % 2 {
            0 => *runs.last_mut().expect("a run") += 1,
            _ => runs.push(1),
        }
        runs.push(shares[p][1].len() + 1);
        runs
    };
    let draw = |case: u64| -> Vec<Vec<usize>> {
        (0..3)
            .map(|p| lane_cut(p, (case >> (3 * p)) as usize % 8))
            .collect()
    };
    explore(
        0..512,
        draw,
        |_| None,
        |cuts| {
            let mut svc = service();
            let epochs = merge_cut(&mut svc, &lanes, cuts, |epoch, live| {
                let got = live.outcome_snapshot().deterministic_bits();
                assert_words_eq(&want[epoch as usize], &got, format!("epoch {epoch}"));
            });
            assert_eq!(epochs.expect("sequencing"), 2);
        },
    );
}

/// The budget's draws, enumerated without running them.
#[test]
fn budget_covers_every_axis() {
    use Crash::*;
    let cases: Vec<Case> = (0..BUDGET).map(draw).collect();
    let has = |what: &str, f: &dyn Fn(&Case) -> bool| assert!(cases.iter().any(f), "no {what}");
    let grid = |c: &Case| format!("{} × {:?}", c.kind, c.policy);
    let grid: BTreeSet<_> = cases.iter().map(grid).collect();
    assert_eq!(grid.len(), 5 * 2, "strategy × policy");
    for p in [1, 2, 4, 8] {
        has(&format!("{p} producers"), &|c| c.producers == p);
    }
    let crash = |c: &Case| c.fault.map(|f| f.crash);
    for kind in [EpochBoundary, TickPanic, SequencerDeath] {
        has(&format!("{kind:?}"), &|c| crash(c) == Some(kind));
    }
    let mutation = |c: &Case| c.fault.and_then(|f| f.corruption).map(|x| x.mutation);
    for m in MUTATIONS {
        has(&format!("{m:?}"), &|c| mutation(c) == Some(m));
    }
    let multi = |c: &Case| c.producers > 1;
    has("multi-producer + crash + corruption", &|c| {
        multi(c) && mutation(c).is_some()
    });
    for max_run in [1, 2, 3, 7, usize::MAX] {
        has(&format!("runs of ≤ {max_run}"), &|c| c.max_run == max_run);
    }
    has("runs of one event, multi-producer + crash", &|c| {
        c.max_run == 1 && multi(c) && c.fault.is_some()
    });
    // A resend of durable events: the watermark must suppress them all.
    let resent = |f: Fault| match f.crash {
        ProducerKill { events_sent, .. } => events_sent > 0,
        _ => false,
    };
    let resend = |f: Fault| matches!(f.crash, ProducerKill { resend: true, .. });
    let durable = |f: Fault| f.flushed && f.corruption.is_none() && resend(f) && resent(f);
    has("reconnect after recover, at-least-once", &|c| {
        multi(c) && c.fault.is_some_and(durable)
    });
}
