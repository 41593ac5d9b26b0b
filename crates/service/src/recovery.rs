//! Crash recovery: latest decodable checkpoint + journal-tail replay.
//!
//! The durability contract (see [`crate::journal`]):
//!
//! * every admitted event is appended to the write-ahead journal
//!   **before** it mutates service state, and the whole epoch is
//!   flushed + fsynced at its [`ServiceEvent::PeriodTick`] barrier;
//! * on a checkpoint cadence, the full [`ShardedService`] state is
//!   serialized durably (temp file + fsync + atomic rename) right after
//!   the tick closes.
//!
//! [`recover`] therefore reconstructs the exact pre-crash service, in
//! time and memory that follow the journal's *tail* and the *live* set,
//! not the run's history. First the newest checkpoint that decodes is
//! restored (hash-checked; a torn checkpoint silently falls back to the
//! previous one — the journal covers the gap). Its header names the
//! journal's length when it was cut; the journal is opened, its magic
//! checked, and decoded from that offset on — nothing before it is read
//! but the one frame ending there — and those records are re-driven
//! through the ordinary [`ShardedService::push_stamped`] path. Because
//! the journal holds events *pre-validation* and ticks as explicit
//! barrier records, replay re-counts rejections and re-runs the
//! deterministic reducer, so the recovered
//! [`maps_simulator::Outcome::deterministic_bits`] equals an
//! uninterrupted run's, which the seeded explorer (`tests/explorer.rs`)
//! enforces at every crash point it draws.
//!
//! The offset is a checkpoint word, so it is outside input like every
//! other: before a byte of the tail is decoded, the frame ending at it
//! must be the hash-valid [`ServiceEvent::PeriodTick`] barrier of the
//! epoch before the checkpoint (a checkpoint cut when its journal was
//! created sits right behind the magic and has none). An offset outside
//! the file or off that barrier is a typed [`JournalError::Corrupt`]
//! returned *before* anything is classified as a torn tail — a lying
//! offset can fail recovery, it cannot make recovery truncate the file.
//! An offset on the right barrier of the wrong journal is caught by the
//! checks below, like any other frame out of place.
//!
//! Tail replay trusts no frame merely because it hashes. Every record
//! goes through the service's one stamp rule
//! ([`ShardedService::push_stamped`]), and as a journal never holds a
//! re-send (suppressed resends are never journaled), a record must be
//! exactly its lane's next seq. A frame duplicated, moved to
//! another epoch or lane, or missing with a later frame of its lane
//! behind it is a typed [`JournalError::Corrupt`], never a silently
//! different outcome, and the file is left as it was. The stamps cannot
//! show a lane's *last* frames of an epoch dropped, nor two lanes'
//! frames swapped inside an epoch (ROADMAP 4(f)).
//!
//! A torn final frame (the crash hit mid-`write`) is detected by the
//! per-frame hash, truncated, and reported as [`Tail::Torn`]; the
//! recovered service's [`ShardedService::watermark`]s tell a supervisor
//! exactly which `(epoch, seq)` each producer must resend from —
//! resends at or below the watermark are suppressed idempotently, so
//! at-least-once producer retry is safe.

use std::path::Path;

use maps_core::{StateError, StrategyKind};
use maps_simulator::MatchPolicy;
use maps_spatial::GridSpec;

use crate::engine::{ServiceConfig, ServiceError, ShardedService};
use crate::journal::{
    checkpoint_path, decode_checkpoint, list_checkpoints, read_journal_from,
    remove_checkpoint_files, JournalConfig, JournalError, JournalWriter, Tail, TICK_PRODUCER,
};

#[cfg(doc)]
use crate::engine::ServiceEvent;

/// A successfully recovered service plus what recovery learned.
#[derive(Debug)]
pub struct Recovered {
    /// The service, bit-identical to the crashed instance at its last
    /// durable epoch barrier (plus any staged events journaled after
    /// it), with the journal re-attached for continued appending.
    pub service: ShardedService,
    /// Epoch-barrier (tick) records re-driven from the journal tail.
    pub epochs_replayed: u32,
    /// Whether the journal ended clean or with a torn (now truncated)
    /// final frame.
    pub tail: Tail,
}

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal file is missing, unreadable, not a journal, or holds
    /// records out of the order a journal is written in.
    Journal(JournalError),
    /// No checkpoint in the journal directory decodes — nothing to
    /// anchor replay on. The baseline checkpoint is written right after
    /// the journal file is created, so the writer died in between
    /// (nothing durable yet: start over) or the directory was tampered with.
    NoCheckpoint,
    /// The newest decodable checkpoint does not structurally match the
    /// service being recovered into (different grid, strategy, …), or
    /// its content lies about itself.
    Checkpoint {
        /// Epoch of the offending checkpoint.
        epoch: u64,
        /// What did not match.
        reason: StateError,
    },
    /// Replaying the journal tail hit a fatal service error (a tick
    /// panic — a rejection is *not* fatal and is re-counted silently).
    Replay(ServiceError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "recovery failed reading journal: {e}"),
            RecoveryError::NoCheckpoint => f.write_str("recovery found no decodable checkpoint"),
            RecoveryError::Checkpoint { epoch, reason } => {
                write!(
                    f,
                    "checkpoint {epoch} does not match this service: {reason}"
                )
            }
            RecoveryError::Replay(e) => write!(f, "recovery failed replaying journal tail: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Journal(e) => Some(e),
            RecoveryError::Replay(e) => Some(e),
            RecoveryError::Checkpoint { reason, .. } => Some(reason),
            RecoveryError::NoCheckpoint => None,
        }
    }
}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

/// Recovers a service running one of the paper strategies from the
/// journal directory in `journal_cfg`. `grid`, `match_policy`, `kind`
/// and `config.max_edges_per_task` must describe the crashed service
/// (they are cross-checked against the checkpoint header); the
/// ignored fields of `config` may differ. The strategy's own state
/// comes from the checkpoint.
///
/// Once the service is restored, `checkpoint_*.tmp` files in the journal
/// directory are deleted: each is what a crash between creating a
/// checkpoint's temp file and renaming it into place leaves behind, and
/// nothing else ever reads or removes one.
pub fn recover(
    grid: GridSpec,
    match_policy: MatchPolicy,
    kind: StrategyKind,
    config: ServiceConfig,
    journal_cfg: &JournalConfig,
) -> Result<Recovered, RecoveryError> {
    let journal_path = journal_cfg.journal_path();
    // A missing journal is reported as that, whatever else is there.
    std::fs::metadata(&journal_path).map_err(JournalError::Io)?;

    let mut service = ShardedService::new(grid, match_policy, kind, config);
    let (cp_epoch, offset) = restore_newest_checkpoint(&mut service, &journal_cfg.dir)?;
    let contents = read_journal_from(&journal_path, offset, cp_epoch)?;

    // Re-drive the tail: everything journaled after the checkpoint was
    // cut. (The checkpoint named `e + 1` is written right after tick
    // `e`'s barrier, so its offset is where epoch `e + 1` starts.) The
    // journal is detached during replay — re-driven events must not be
    // re-appended.
    let mut epochs_replayed = 0u32;
    let corrupt = |what| RecoveryError::Journal(JournalError::Corrupt(what));
    for rec in &contents.records {
        // The service judges the stamp; a journal adds that it holds no
        // re-send, so each record is its lane's next seq (a tick's is 0).
        if rec.seq != service.next_seq(rec.producer) {
            return Err(corrupt("record is not its lane's next seq"));
        }
        match service.push_stamped(rec.producer, rec.epoch, rec.seq, rec.event) {
            Ok(()) | Err(ServiceError::Rejected(_)) => {}
            Err(ServiceError::Stamp(e)) if e.epoch != e.serving_epoch => {
                return Err(corrupt("record outside the epoch being replayed"))
            }
            Err(ServiceError::Stamp(_)) => return Err(corrupt("record its lane cannot carry")),
            Err(fatal) => return Err(RecoveryError::Replay(fatal)),
        }
        epochs_replayed += u32::from(rec.producer == TICK_PRODUCER);
    }

    // Truncate the torn tail (if any) and continue appending in place.
    let writer = JournalWriter::open_append(&journal_path, contents.valid_len)?;
    service.resume_journal(writer, journal_cfg);
    remove_checkpoint_files(&journal_cfg.dir, &[".tmp"])?;

    Ok(Recovered {
        service,
        epochs_replayed,
        tail: contents.tail,
    })
}

/// Restores the newest checkpoint that decodes *and* structurally
/// matches, returning its epoch and the journal offset in its header
/// (unchecked: only the journal can). A checkpoint file that does not
/// unframe (torn, garbled) falls back to the next older one — the
/// journal covers the extra replay distance. A checkpoint that decodes
/// but describes a different service, or another epoch than its file
/// name, is a hard error: replaying a journal over it would silently
/// produce garbage.
fn restore_newest_checkpoint(
    service: &mut ShardedService,
    dir: &Path,
) -> Result<(u64, u64), RecoveryError> {
    let epochs = list_checkpoints(dir)?;
    for &epoch in epochs.iter().rev() {
        // Unreadable, torn or garbled: fall back to an older one.
        let Ok(bytes) = std::fs::read(checkpoint_path(dir, epoch)) else {
            continue;
        };
        let Ok(words) = decode_checkpoint(&bytes) else {
            continue;
        };
        let restored = service.restore(&words).and_then(|offset| {
            let named = u64::from(service.periods_served()) == epoch;
            named.then_some((epoch, offset)).ok_or(StateError::Mismatch(
                "checkpoint period is not its file name's",
            ))
        });
        return restored.map_err(|reason| RecoveryError::Checkpoint { epoch, reason });
    }
    Err(RecoveryError::NoCheckpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckpointLayout, ServiceEvent};
    use crate::journal::{
        encode_checkpoint, encode_record, read_journal, JournalRecord, JOURNAL_FILE, JOURNAL_MAGIC,
    };
    use maps_simulator::{GroundTask, GroundWorker, MatchPolicy};
    use maps_spatial::{Point, Rect};

    fn grid() -> GridSpec {
        GridSpec::square(Rect::square(10.0), 2)
    }

    fn worker(x: f64) -> GroundWorker {
        GroundWorker {
            location: Point::new(x, x),
            radius: 5.0,
            duration: 4,
        }
    }

    fn config() -> ServiceConfig {
        ServiceConfig::default()
    }

    fn journaled_service(dir: &std::path::Path) -> (ShardedService, JournalConfig) {
        let cfg = JournalConfig::new(dir, 1);
        let mut svc =
            ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Sdr, config());
        svc.attach_journal(&cfg).unwrap();
        (svc, cfg)
    }

    #[test]
    fn missing_journal_is_a_journal_error() {
        let dir = crate::test_dir("recover_missing");
        let cfg = JournalConfig::new(&dir, 1);
        let err = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .expect_err("nothing to recover");
        assert!(matches!(err, RecoveryError::Journal(JournalError::Io(_))));
        assert!(err.to_string().contains("journal"));
    }

    #[test]
    fn journal_without_checkpoints_reports_no_checkpoint() {
        let dir = crate::test_dir("recover_no_ckp");
        let (_svc, cfg) = journaled_service(&dir);
        for epoch in list_checkpoints(&dir).unwrap() {
            std::fs::remove_file(checkpoint_path(&dir, epoch)).unwrap();
        }
        let err = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .expect_err("no checkpoints left");
        assert!(matches!(err, RecoveryError::NoCheckpoint));
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = crate::test_dir("recover_fallback");
        let (mut svc, cfg) = journaled_service(&dir);
        for period in 0..3 {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + f64::from(period)),
            });
            svc.push(ServiceEvent::PeriodTick);
        }
        let uninterrupted = svc.into_outcome().deterministic_bits();
        // Garble the newest checkpoint (epoch 3): flip a payload byte.
        let newest = *list_checkpoints(&dir).unwrap().last().unwrap();
        assert_eq!(newest, 3);
        let path = checkpoint_path(&dir, newest);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap();
        // Fell back to checkpoint 2 and replayed the final epoch.
        assert_eq!(recovered.epochs_replayed, 1);
        assert_eq!(recovered.tail, Tail::Clean);
        assert_eq!(recovered.service.periods_served(), 3);
        assert_eq!(
            recovered.service.into_outcome().deterministic_bits(),
            uninterrupted
        );
    }

    /// A crash between creating `checkpoint_<e>.tmp` and renaming it
    /// leaves the temp file behind, whole or torn. Recovery ignores both
    /// and clears them out.
    #[test]
    fn orphaned_checkpoint_temps_are_removed_on_recovery() {
        let dir = crate::test_dir("recover_orphan_tmp");
        let (mut svc, cfg) = journaled_service(&dir);
        for period in 0..3 {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + f64::from(period)),
            });
            svc.push(ServiceEvent::PeriodTick);
        }
        let uninterrupted = svc.into_outcome().deterministic_bits();
        let checkpoints = list_checkpoints(&dir).unwrap();
        let whole = std::fs::read(checkpoint_path(&dir, 3)).unwrap();
        std::fs::write(dir.join("checkpoint_4.tmp"), &whole).unwrap();
        std::fs::write(dir.join("checkpoint_2.tmp"), &whole[..whole.len() / 2]).unwrap();

        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap();
        assert_eq!(recovered.epochs_replayed, 0, "restored from checkpoint 3");
        assert_eq!(
            recovered.service.into_outcome().deterministic_bits(),
            uninterrupted
        );
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        let mut expected: Vec<String> = checkpoints
            .iter()
            .map(|epoch| format!("checkpoint_{epoch}.bin"))
            .collect();
        expected.push(JOURNAL_FILE.to_string());
        expected.sort();
        assert_eq!(left, expected);
    }

    /// A fresh journal owns its directory. Run A leaves checkpoints
    /// 0..=5 behind; run B attaches to the same directory and crashes at
    /// period 2. Recovery used to restore run A's newest checkpoint over
    /// run B's journal: "period 5, admitted 5", and `Ok`.
    #[test]
    fn fresh_journal_forgets_the_previous_runs_checkpoints() {
        let dir = crate::test_dir("recover_reused_dir");
        let (mut run_a, cfg) = journaled_service(&dir);
        for period in 0..5 {
            run_a.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + f64::from(period)),
            });
            run_a.push(ServiceEvent::PeriodTick);
        }
        drop(run_a);
        assert_eq!(list_checkpoints(&dir).unwrap(), [0, 1, 2, 3, 4, 5]);
        std::fs::write(dir.join("checkpoint_6.tmp"), b"run A died here").unwrap();

        let (mut run_b, cfg_b) = journaled_service(&dir);
        assert_eq!(cfg_b.dir, cfg.dir);
        assert_eq!(list_checkpoints(&dir).unwrap(), [0], "run B's baseline");
        assert!(!dir.join("checkpoint_6.tmp").exists());
        run_b.push(ServiceEvent::PeriodTick);
        run_b.push(ServiceEvent::PeriodTick);
        let uninterrupted = run_b.into_outcome().deterministic_bits();

        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap(), [0, 1, 2]);
        assert_eq!(recovered.service.periods_served(), 2);
        assert_eq!(recovered.service.admitted_workers(), 0);
        assert_eq!(
            recovered.service.into_outcome().deterministic_bits(),
            uninterrupted
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint carries no open window: attaching with an arrival or
    /// a task admitted since the last tick used to write a baseline
    /// without it, and the recovered service ticked to live 0 where the
    /// uninterrupted one had live 1. It is refused, typed, with nothing
    /// written; staged departures are a checkpoint section and stay
    /// legal.
    #[test]
    fn attaching_mid_window_is_refused_and_writes_nothing() {
        let dir = crate::test_dir("attach_mid_window");
        let cfg = JournalConfig::new(&dir, 1);
        let fresh =
            || ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Sdr, config());
        let task = maps_simulator::GroundTask {
            origin: Point::new(1.0, 1.0),
            destination: Point::new(2.0, 2.0),
            distance: 1.5,
            valuation: 3.0,
            cell: grid().cell_of(Point::new(1.0, 1.0)),
        };
        let worker = worker(1.0);
        for open in [
            ServiceEvent::WorkerArrive { worker },
            ServiceEvent::TaskRequest { task },
        ] {
            let mut svc = fresh();
            svc.push(open);
            let err = svc.attach_journal(&cfg).expect_err("mid-window attach");
            assert!(
                matches!(err, ServiceError::Journal(JournalError::NotAtEpochBoundary)),
                "{err}"
            );
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{open:?}");
            // The service is untouched: it ticks like one never asked.
            svc.push(ServiceEvent::PeriodTick);
            let expected = matches!(open, ServiceEvent::WorkerArrive { .. });
            assert_eq!(svc.live_workers(), usize::from(expected));
        }

        let mut svc = fresh();
        svc.push(ServiceEvent::WorkerArrive { worker });
        svc.push(ServiceEvent::PeriodTick);
        svc.push(ServiceEvent::WorkerDepart { id: 0 });
        svc.attach_journal(&cfg).expect("a staged departure");
        drop(svc);
        let mut recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap()
        .service;
        assert_eq!(recovered.live_workers(), 1, "staged until the tick");
        recovered.push(ServiceEvent::PeriodTick);
        assert_eq!(recovered.live_workers(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A task whose cell is not its origin's is journaled before it is
    /// refused, like every rejection, so recovery re-refuses it: a
    /// crash with such tasks on both sides of the newest checkpoint
    /// finishes with the uninterrupted bits and the same rejection
    /// count.
    #[test]
    fn task_cell_mismatch_recovers_to_the_uninterrupted_bits() {
        let task = |cell: u32| ServiceEvent::TaskRequest {
            task: maps_simulator::GroundTask {
                origin: Point::new(1.0, 1.0),
                destination: Point::new(2.0, 2.0),
                distance: 1.5,
                valuation: 4.5,
                cell: maps_spatial::CellId(cell),
            },
        };
        let arrive = |x| ServiceEvent::WorkerArrive { worker: worker(x) };
        let tick = ServiceEvent::PeriodTick;
        let stream = [
            arrive(1.0),
            task(0),
            task(3),
            tick,
            arrive(2.0),
            task(3),
            tick,
            task(4_000_000),
            arrive(3.0),
            task(0),
            tick,
        ];
        // Epoch 2 open, checkpoint 2 behind it: the out-of-grid task is
        // in the replayed tail, the two before it in the checkpoint.
        let crash_at = 9;
        let run = |dir: &std::path::Path, crash: Option<usize>| {
            let cfg = JournalConfig::new(dir, 2);
            let kind = StrategyKind::Maps;
            let mut svc = ShardedService::new(grid(), MatchPolicy::Consume, kind, config());
            svc.attach_journal(&cfg).unwrap();
            let cut = crash.unwrap_or(stream.len());
            for &event in &stream[..cut] {
                let _ = svc.try_push(event);
            }
            if crash.is_some() {
                drop(svc);
                let recovered = recover(grid(), MatchPolicy::Consume, kind, config(), &cfg);
                svc = recovered.unwrap().service;
                assert_eq!(svc.rejected_events(), 3, "re-refused on replay");
                for &event in &stream[cut..] {
                    let _ = svc.try_push(event);
                }
            }
            (
                svc.rejected_events(),
                svc.into_outcome().deterministic_bits(),
            )
        };
        let dirs = [
            crate::test_dir("cell_mismatch_whole"),
            crate::test_dir("cell_mismatch_crash"),
        ];
        let uninterrupted = run(&dirs[0], None);
        assert_eq!(uninterrupted.0, 3);
        assert_eq!(run(&dirs[1], Some(crash_at)), uninterrupted);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn mismatched_world_is_a_hard_checkpoint_error() {
        let dir = crate::test_dir("recover_mismatch");
        let (_svc, cfg) = journaled_service(&dir);
        let other_grid = GridSpec::square(Rect::square(10.0), 3);
        let err = recover(
            other_grid,
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .expect_err("grid mismatch must not replay");
        assert!(
            matches!(err, RecoveryError::Checkpoint { epoch: 0, .. }),
            "{err}"
        );
    }

    /// Recovers from a directory whose newest checkpoint — of epoch 2,
    /// one worker admitted in epoch 0 and still available — had one word
    /// replaced and was re-encoded, so its frame hash is valid and only
    /// the content lies. `lie` gets the decoded words and rewrites one.
    /// Whatever the lie, the journal is left byte for byte as it was.
    fn recover_with_lying_word(tag: &str, lie: impl Fn(&mut [u64])) -> RecoveryError {
        recover_lying(tag, MatchPolicy::Consume, &[], lie)
    }

    /// [`recover_with_lying_word`] under `policy`, with `tasks` requested
    /// in epoch 0 beside the worker.
    fn recover_lying(
        tag: &str,
        policy: MatchPolicy,
        tasks: &[GroundTask],
        lie: impl Fn(&mut [u64]),
    ) -> RecoveryError {
        let dir = crate::test_dir(tag);
        let cfg = JournalConfig::new(&dir, 1);
        let mut svc = ShardedService::new(grid(), policy, StrategyKind::Sdr, config());
        svc.attach_journal(&cfg).unwrap();
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        for &task in tasks {
            svc.push(ServiceEvent::TaskRequest { task });
        }
        svc.push(ServiceEvent::PeriodTick);
        svc.push(ServiceEvent::PeriodTick);
        drop(svc);
        let newest = *list_checkpoints(&dir).unwrap().last().unwrap();
        assert_eq!(newest, 2);
        let path = checkpoint_path(&dir, newest);
        let mut words = decode_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
        lie(&mut words);
        std::fs::write(&path, encode_checkpoint(&words).unwrap()).unwrap();
        let journal = std::fs::read(cfg.journal_path()).unwrap();
        let err = recover(grid(), policy, StrategyKind::Sdr, config(), &cfg)
            .expect_err("a lying word must not restore");
        assert_eq!(std::fs::read(cfg.journal_path()).unwrap(), journal, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
        err
    }

    /// A lane is watermarked only by events of the epoch being served,
    /// so a checkpoint cut at period 2 holds no watermark of epoch 3.
    /// Restored, one made every later event of its lane a re-send: the
    /// recovered service suppressed that lane's next pushes and went on
    /// `Ok`. Refused here, it never reaches replay, whose next-seq
    /// comparison would not see it.
    #[test]
    fn lying_watermark_epoch_is_a_typed_error() {
        let err = recover_with_lying_word("recover_future_watermark", |words| {
            let at = CheckpointLayout::of(words).watermarks;
            assert_eq!(words[at..at + 4], [1, 0, 0, 0], "lane 0 at (0, 0)");
            words[at + 2] = 3;
        });
        let past = StateError::Mismatch("checkpoint watermark is past its period");
        assert!(
            matches!(err, RecoveryError::Checkpoint { epoch: 2, ref reason } if *reason == past),
            "{err}"
        );
    }

    #[test]
    fn lying_record_count_is_a_typed_error() {
        let err = recover_with_lying_word("recover_lying_records", |words| {
            words[CheckpointLayout::of(words).record_count] = u64::MAX;
        });
        assert!(
            matches!(err, RecoveryError::Checkpoint { epoch: 2, .. }),
            "{err}"
        );
    }

    /// Words the table holds as `u32`: `2³² + v` hashes correctly and
    /// must not load as `v` — the record's expiry, the schedule's time
    /// key, and the scheduled id (truncated, it would pass its own
    /// range check).
    #[test]
    fn words_past_u32_are_typed_errors() {
        type Pick = fn(&CheckpointLayout) -> usize;
        // After the schedule count: `t, entries, tag, id`.
        let rows: [(&str, Pick, &str); 3] = [
            (
                "recover_lying_expiry",
                |layout| layout.expiries,
                "checkpoint expiry out of range",
            ),
            (
                "recover_lying_time",
                |layout| layout.schedule_count + 1,
                "checkpoint schedule time out of range",
            ),
            (
                "recover_lying_id",
                |layout| layout.schedule_count + 4,
                "checkpoint schedule id out of range",
            ),
        ];
        for (tag, pick, what) in rows {
            let err = recover_with_lying_word(tag, |words| {
                words[pick(&CheckpointLayout::of(words))] += 1 << 32;
            });
            assert!(
                matches!(
                    err,
                    RecoveryError::Checkpoint {
                        epoch: 2,
                        reason: StateError::Mismatch(found),
                    } if found == what
                ),
                "{tag}: {err}"
            );
        }
    }

    /// A scheduled release is held to what admission holds an arrival
    /// to, like a live worker: a lying NaN radius used to restore and
    /// poison the service at the release tick, a NaN location to release
    /// a worker no query reaches. The worker, matched in epoch 0 and
    /// travelling 2 periods at speed 0.5, is released at period 2: the
    /// newest checkpoint's first scheduled period (its expiry at 4 is the
    /// second), `t, entries, tag, id, x, y, radius`.
    #[test]
    fn lying_release_geometry_is_a_typed_error() {
        let origin = Point::new(1.5, 1.0);
        let task = GroundTask {
            origin,
            destination: Point::new(9.0, 9.0),
            distance: 1.0,
            valuation: 4.9,
            cell: grid().cell_of(origin),
        };
        let relocate = MatchPolicy::Relocate { speed: 0.5 };
        for (tag, at, lie) in [
            ("recover_lying_release_x", 5, f64::NAN),
            ("recover_lying_release_y", 6, f64::INFINITY),
            ("recover_lying_release_radius", 7, f64::NAN),
        ] {
            let err = recover_lying(tag, relocate, &[task], |words| {
                let schedule = CheckpointLayout::of(words).schedule_count;
                let entry = &mut words[schedule..schedule + 8];
                assert_eq!(entry[..5], [2, 2, 1, 1, 0], "worker 0's release first");
                entry[at] = lie.to_bits();
            });
            assert!(
                matches!(
                    err,
                    RecoveryError::Checkpoint {
                        epoch: 2,
                        reason: StateError::Mismatch("checkpoint release invalid"),
                    }
                ),
                "{tag}: {err}"
            );
        }
    }

    /// The checkpoint's journal offset is a word like any other: one
    /// that is not where its checkpoint was cut is a typed error before
    /// a byte of the tail is decoded — so before anything could be taken
    /// for a torn tail and cut off. The true offset here is the file's
    /// length, 33 bytes (the epoch-1 barrier) past the epoch-0 barrier.
    #[test]
    fn lying_journal_offset_is_a_typed_error() {
        const OUTSIDE: &str = "checkpoint's journal offset is outside the journal";
        const OFF_BARRIER: &str = "checkpoint's journal offset is not on its epoch's barrier";
        type Lie = fn(u64) -> u64;
        let rows: [(&str, Lie, &str); 9] = [
            ("recover_offset_0", |_| 0, OUTSIDE),
            ("recover_offset_7", |_| 7, OUTSIDE),
            ("recover_offset_past_end", |end| end + 1, OUTSIDE),
            ("recover_offset_max", |_| u64::MAX, OUTSIDE),
            ("recover_offset_in_frame", |end| end - 10, OFF_BARRIER),
            ("recover_offset_in_first_frame", |_| 40, OFF_BARRIER),
            // A barrier, of epoch 0: checkpoint 1's offset, not 2's.
            ("recover_offset_older_barrier", |end| end - 33, OFF_BARRIER),
            // A frame boundary that is no barrier.
            ("recover_offset_after_arrival", |end| end - 66, OFF_BARRIER),
            // Where a journal attached at period 2 would have started,
            // so no barrier to check — but this one starts with epoch 0.
            (
                "recover_offset_baseline",
                |_| 8,
                "record outside the epoch being replayed",
            ),
        ];
        for (tag, lie, what) in rows {
            let err = recover_with_lying_word(tag, |words| {
                let at = CheckpointLayout::of(words).journal_offset;
                assert_eq!(words[at], 8 + 61 + 33 + 33, "arrival, barrier, barrier");
                words[at] = lie(words[at]);
            });
            assert!(
                matches!(err, RecoveryError::Journal(JournalError::Corrupt(found)) if found == what),
                "{tag}: {err}"
            );
        }
    }

    /// One garbled byte in a frame *older than the newest checkpoint*
    /// used to end decoding there: the file was cut at it and every
    /// fsynced, hash-valid epoch after the checkpoint was discarded.
    /// Nothing before the checkpoint's offset is read now but the magic
    /// and the barrier that ends there — shown by zeroing the rest.
    #[test]
    fn bytes_before_the_checkpoint_offset_are_never_read() {
        type Garble = fn(&mut [u8], usize);
        let rows: [(&str, Garble); 3] = [
            ("recover_prefix_untouched", |_, _| {}),
            // Frames are arrival (61 B), barrier (33 B), …: a byte in
            // the payload of epoch 1's arrival.
            ("recover_prefix_bit_flip", |journal, _| {
                journal[8 + 61 + 33 + 20] ^= 0x10;
            }),
            ("recover_prefix_zeroed", |journal, offset| {
                journal[8..offset - 33].fill(0);
            }),
        ];
        let recovered = rows.map(|(tag, garble)| {
            let dir = crate::test_dir(tag);
            let cfg = JournalConfig::new(&dir, 2);
            let mut svc =
                ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Sdr, config());
            svc.attach_journal(&cfg).unwrap();
            for period in 0..7 {
                svc.push(ServiceEvent::WorkerArrive {
                    worker: worker(1.0 + f64::from(period)),
                });
                svc.push(ServiceEvent::PeriodTick);
            }
            drop(svc);
            assert_eq!(list_checkpoints(&dir).unwrap(), [0, 2, 4, 6]);
            let words = decode_checkpoint(&std::fs::read(checkpoint_path(&dir, 6)).unwrap());
            let words = words.unwrap();
            let offset = words[CheckpointLayout::of(&words).journal_offset] as usize;
            let mut journal = std::fs::read(cfg.journal_path()).unwrap();
            assert_eq!((offset, journal.len()), (8 + 6 * 94, 8 + 7 * 94));
            garble(&mut journal, offset);
            std::fs::write(cfg.journal_path(), &journal).unwrap();

            let recovered = recover(
                grid(),
                MatchPolicy::Consume,
                StrategyKind::Sdr,
                config(),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let after = std::fs::read(cfg.journal_path()).unwrap();
            assert_eq!(after, journal, "{tag}: recovery rewrote the journal");
            let _ = std::fs::remove_dir_all(&dir);
            (
                recovered.epochs_replayed,
                recovered.tail,
                recovered.service.watermark(0),
                recovered.service.into_outcome().deterministic_bits(),
            )
        });
        assert_eq!(recovered[0].0, 1, "epoch 6, past checkpoint 6");
        assert_eq!(recovered[0].1, Tail::Clean);
        assert_eq!(recovered[1], recovered[0], "bit flipped in epoch 1");
        assert_eq!(recovered[2], recovered[0], "prefix zeroed");
    }

    /// The frame's own length lying: a header-only file claiming 4 GiB
    /// of payload (the word count it replaced used to wrap to 0 as
    /// `2^61 * 8`, pass the length check and die reserving `2^61`
    /// words). It is a corrupt frame like any other — typed, and
    /// recovery falls back to the checkpoint before it.
    #[test]
    fn lying_frame_count_is_a_typed_error() {
        let dir = crate::test_dir("recover_lying_frame");
        let (mut svc, cfg) = journaled_service(&dir);
        svc.push(ServiceEvent::PeriodTick);
        drop(svc);
        assert_eq!(list_checkpoints(&dir).unwrap(), [0, 1]);
        let path = checkpoint_path(&dir, 1);
        let mut frame = std::fs::read(&path).unwrap()[..20].to_vec();
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&frame),
            Err(JournalError::Corrupt("frame longer than the bytes present"))
        ));
        std::fs::write(&path, &frame).unwrap();
        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .expect("falls back to the baseline checkpoint");
        assert_eq!(recovered.epochs_replayed, 1, "from epoch 0, not 1");
        assert_eq!(recovered.service.periods_served(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_schedule_count_is_a_typed_error() {
        let err = recover_with_lying_word("recover_lying_schedule", |words| {
            words[CheckpointLayout::of(words).schedule_count + 2] = u64::MAX; // its entry count
        });
        assert!(
            matches!(err, RecoveryError::Checkpoint { epoch: 2, .. }),
            "{err}"
        );
    }

    /// Lanes 0 and 7 with 1–6 silent, and lane 4·10⁹, through a
    /// checkpoint and a journal tail: the recovered watermarks name
    /// exactly the lanes that sent. A hash-valid tail record on lane
    /// 4·10⁹ used to size the watermark table by its id (≈ 96 GiB)
    /// during replay.
    #[test]
    fn watermarks_name_the_lanes_that_sent() {
        const FAR: u32 = 4_000_000_000;
        let dir = crate::test_dir("recover_sparse_lanes");
        let (mut svc, cfg) = journaled_service(&dir);
        let arrive = ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        };
        svc.push_stamped(0, 0, 0, arrive).unwrap();
        svc.push_stamped_run(7, 0, 0, &[arrive; 3]).unwrap();
        svc.push(ServiceEvent::PeriodTick);
        // Past checkpoint 1: replayed from the journal.
        svc.push_stamped(7, 1, 0, arrive).unwrap();
        svc.push_stamped_run(FAR, 1, 0, &[arrive; 10]).unwrap();
        let lanes = || (0..=8).chain([FAR]);
        let uninterrupted: Vec<_> = lanes().map(|p| svc.watermark(p)).collect();
        let mut sent = [None; 10];
        sent[0] = Some((0, 0));
        sent[7] = Some((1, 0));
        sent[9] = Some((1, 9)); // lane FAR
        assert_eq!(uninterrupted, sent);
        drop(svc);

        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap();
        let svc = recovered.service;
        let watermarks: Vec<_> = lanes().map(|p| svc.watermark(p)).collect();
        assert_eq!(watermarks, uninterrupted);
        assert_eq!(svc.admitted_workers(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `records` as the whole journal of `cfg`, recovers, and
    /// hands back the refusal after checking the file was left as
    /// written.
    fn recover_rewritten(cfg: &JournalConfig, records: &[JournalRecord]) -> RecoveryError {
        let mut journal = JOURNAL_MAGIC.to_vec();
        records.iter().for_each(|r| encode_record(r, &mut journal));
        std::fs::write(cfg.journal_path(), &journal).unwrap();
        let kind = StrategyKind::Sdr;
        let err = recover(grid(), MatchPolicy::Consume, kind, config(), cfg)
            .expect_err("a journal out of its own order must not recover");
        let left = std::fs::read(cfg.journal_path()).unwrap();
        assert!(left == journal, "the file is left as it was: {err}");
        err
    }

    /// A hash-valid frame dropped from the journal, with a later frame
    /// of its lane in the same epoch behind it, leaves a gap in that
    /// lane's seqs. Replay used to admit the later frame above the
    /// watermark and recover `Ok` to another stream's bits. Every such
    /// drop is a typed `Corrupt` now, the file left as it was: epochs
    /// 0–2 close, checkpoints sit at 0 and 2, epoch 3 is the open tail;
    /// a drop before checkpoint 2 moves its offset off its barrier, a
    /// drop after it is a gap. (A lane's last frame of an epoch has no
    /// later one to show the gap: a stated limit, see the module docs.)
    #[test]
    fn a_dropped_frame_is_corrupt_not_another_stream() {
        let dir = crate::test_dir("recover_dropped_frame");
        let cfg = JournalConfig::new(&dir, 2);
        let mut svc =
            ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Sdr, config());
        svc.attach_journal(&cfg).unwrap();
        for epoch in 0..4u32 {
            for (producer, x) in [(0, 1.0), (1, 5.0)] {
                let events = [0.0, 1.0, 2.0].map(|dx| ServiceEvent::WorkerArrive {
                    worker: worker(x + dx + 0.1 * f64::from(epoch)),
                });
                svc.push_stamped_run(producer, u64::from(epoch), 0, &events)
                    .unwrap();
            }
            if epoch < 3 {
                svc.push(ServiceEvent::PeriodTick);
            }
        }
        drop(svc);
        assert_eq!(list_checkpoints(&dir).unwrap(), [0, 2]);
        let records = read_journal(&cfg.journal_path()).unwrap().records;
        let intact = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        );
        assert_eq!(intact.unwrap().service.admitted_workers(), 24);
        let mut dropped = 0;
        for (i, rec) in records.iter().enumerate() {
            let lane = |r: &JournalRecord| (r.producer, r.epoch) == (rec.producer, rec.epoch);
            if rec.producer == TICK_PRODUCER || !records[i + 1..].iter().any(lane) {
                continue;
            }
            let mut kept = records.clone();
            kept.remove(i);
            let err = recover_rewritten(&cfg, &kept);
            assert!(
                matches!(err, RecoveryError::Journal(JournalError::Corrupt(_))),
                "frame {i}: {err}"
            );
            dropped += 1;
        }
        assert_eq!(dropped, 4 * 2 * 2, "two frames of each lane in each epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hash-valid `WorkerDepart` frame stamped on the tick lane, with
    /// fsynced epochs behind it. The decoder used to refuse it, so
    /// recovery took it for a torn tail: it truncated the journal there,
    /// dropping every epoch after it, and returned `Ok` with
    /// `Tail::Torn`. It decodes now, the service's stamp rule refuses
    /// it, and recovery returns a typed `Corrupt` with the journal left
    /// as it was.
    #[test]
    fn a_non_tick_event_on_the_tick_lane_is_corrupt_not_a_torn_tail() {
        let dir = crate::test_dir("recover_tick_lane_lie");
        let cfg = JournalConfig::new(&dir, 100);
        let mut svc =
            ShardedService::new(grid(), MatchPolicy::Consume, StrategyKind::Sdr, config());
        svc.attach_journal(&cfg).unwrap();
        for period in 0..3 {
            svc.push(ServiceEvent::WorkerArrive {
                worker: worker(1.0 + f64::from(period)),
            });
            svc.push(ServiceEvent::PeriodTick);
        }
        drop(svc);
        let mut records = read_journal(&cfg.journal_path()).unwrap().records;
        let lie = JournalRecord {
            producer: TICK_PRODUCER,
            epoch: 1,
            seq: 0,
            event: ServiceEvent::WorkerDepart { id: 0 },
        };
        // After epoch 1's arrival; epoch 1's barrier and epoch 2 follow.
        records.insert(3, lie);
        let err = recover_rewritten(&cfg, &records);
        let what = "record its lane cannot carry";
        assert!(
            matches!(err, RecoveryError::Journal(JournalError::Corrupt(found)) if found == what),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = crate::test_dir("recover_torn");
        let (mut svc, cfg) = journaled_service(&dir);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(1.0),
        });
        svc.push(ServiceEvent::PeriodTick);
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(2.0),
        });
        drop(svc);
        // Tear the final frame: chop 3 bytes off the journal.
        let path = dir.join(JOURNAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::Sdr,
            config(),
            &cfg,
        )
        .unwrap();
        assert!(matches!(recovered.tail, Tail::Torn { .. }));
        // Epoch 0's barrier was durable; the worker staged after it was
        // torn off, so only the first arrival survives.
        assert_eq!(recovered.service.periods_served(), 1);
        assert_eq!(recovered.service.admitted_workers(), 1);
        assert_eq!(recovered.service.watermark(0), Some((0, 0)));
        // The truncated journal accepts appends again.
        let mut svc = recovered.service;
        svc.push(ServiceEvent::WorkerArrive {
            worker: worker(2.0),
        });
        svc.push(ServiceEvent::PeriodTick);
        assert_eq!(svc.periods_served(), 2);
        let reread = read_journal(&path).unwrap();
        assert_eq!(reread.tail, Tail::Clean);
    }
}
