//! Write-ahead event journal and checkpoint files: the durability half
//! of the service's crash-recovery contract (the other half is
//! [`crate::recovery`]).
//!
//! ## Why a hand-rolled binary format
//!
//! Every [`Outcome`](maps_simulator::Outcome) is a pure function of the
//! admitted event stream in the total `(epoch, producer, seq)` order
//! (the PR 4/5 standing invariants), so *bit-exact* durability needs a
//! *bit-exact* encoding: every `f64` is written as its IEEE-754 bit
//! pattern ([`f64::to_bits`]) — a text codec that round-trips through
//! decimal would silently perturb the replay. The format doubles as the
//! wire format for out-of-process producers (ROADMAP): a length-prefixed
//! frame stream is exactly what a socket needs.
//!
//! ## Format: one frame, two files
//!
//! ```text
//! frame      := len:u32 hash:u64 payload      (little-endian)
//!               len = payload bytes; hash = fnv1a64(payload)
//! journal    := b"MAPSWAL2" frame*            one frame per record
//! checkpoint := b"MAPSCKP4" frame             exactly one: the file
//!                                             ends where it does
//! record     := producer:u32 epoch:u64 seq:u64 tag:u8 fields
//!   tag 0 WorkerArrive  fields = x:u64 y:u64 radius:u64 duration:u32
//!   tag 1 WorkerDepart  fields = id:u32
//!   tag 2 TaskRequest   fields = ox oy dx dy dist val (6×u64) cell:u32
//!   tag 3 PeriodTick    fields = ∅            a 33-byte frame
//! state      := the engine's checkpoint words, 8 bytes each:
//!   header     grid cells, edge cap, match policy (2), period,
//!              journal offset
//!   records    count n, lane words ⌈n/32⌉, the status lane (2 bits a
//!              record: 0 available, 1 busy, 2 gone), then `expires_at`
//!              of each record that is not gone, in id order
//!   live       count, then id x y radius each
//!   departures count, then the staged ids
//!   schedule   count, then per period t, entries, (tag id [x y r])*
//!   watermarks count, then producer epoch seq each — one per lane
//!              that sent, producers strictly ascending, never
//!              TICK_PRODUCER, no epoch past the period
//!   run state  outcome, price moments, strategy state
//! ```
//!
//! Floats are stored as `to_bits` words, so even NaN-carrying events
//! (journaled *before* admission validation, so recovery re-counts the
//! rejection deterministically) round-trip exactly. `frame` and
//! `unframe` are the only writer and reader of the framing, and
//! `unframe` is the only place a length read from disk meets the bytes
//! present: a journal frame may claim at most `MAX_PAYLOAD` bytes, a
//! checkpoint frame must end where its file does. Earlier layouts'
//! magics (`MAPSWAL1`, `MAPSCKP1`, `MAPSCKP2`, `MAPSCKP3`) are
//! [`JournalError::BadMagic`].
//!
//! A checkpoint is sized by the journal's tail and by who is live: the
//! **journal offset** is the journal's length when the checkpoint was
//! cut — right behind the barrier of the epoch before it, or right
//! behind the magic for the baseline a fresh journal starts with — and
//! recovery reads the journal from there on; a worker that left keeps
//! its two bits in the **status lane** (ids are positions) and nothing
//! else.
//!
//! ## What the hash promises
//!
//! `fnv1a64` is FNV-1a-64 taken eight little-endian bytes per round (a
//! sub-word tail one byte per round): one multiply per word, so hashing
//! a megabyte checkpoint costs less than writing it. It detects what a
//! crash on a *trusted* local disk leaves — a frame cut short, a tail
//! of zeros or stale bytes, a garbled byte. It is **not** a CRC: there
//! is no burst-error bound (the multiply only carries upward, so flips
//! in the top bits of two words can cancel), and an adversary simply
//! re-hashes. Decided, not pending (ROADMAP 5(b)). Content that hashes
//! but lies is the business of the bounded state decoders
//! (`StateWords::take_len`) and of the stamp rule tail replay applies
//! ([`crate::recovery`]), not of the frame.
//!
//! ## Torn tails, and what is never read
//!
//! A crash can leave a partial frame at the end of the journal.
//! Decoding treats the first invalid frame (short header, short
//! payload, hash mismatch, or undecodable payload) as the torn tail:
//! everything before it is the durable prefix, everything after is
//! dropped and the file is truncated at the prefix on recovery
//! ([`Tail::Torn`]). The root property
//! `journal_frames_roundtrip_and_survive_truncation` pins this down on
//! 64 seeded streams of arbitrary events: each is encoded, decoded
//! whole, then cut at one seeded byte offset and decoded again. A checkpoint that does not unframe is skipped for the next
//! older one — the journal covers the extra replay distance. A frame
//! that hashes and decodes is a record, whatever its stamp: one out of
//! the journal's order (a non-tick event on [`TICK_PRODUCER`], a gap in
//! its lane) is no tear, and recovery refuses it as
//! [`JournalError::Corrupt`], leaving the file as it was.
//!
//! Recovery decodes from the restored checkpoint's offset, so that is
//! where a torn tail can start. Of the bytes before it only the magic
//! and the 33-byte frame ending at the offset are read — the frame must
//! be the hash-valid barrier of the epoch before the checkpoint, which
//! is what was last journaled when it was cut — so a garbled byte in an
//! epoch some checkpoint already covers costs nothing (it used to end
//! decoding there and cut every later, fsynced epoch off the file). An
//! offset that is outside the file or not on that barrier is a lying
//! checkpoint word, not a tear: [`JournalError::Corrupt`], with the file
//! left as it was. [`read_journal`] still decodes a whole file.
//!
//! ## One run per directory
//!
//! `checkpoint_<epoch>.bin` files sit beside the `journal.bin` they
//! were cut from. [`crate::ShardedService::attach_journal`] creates a
//! fresh journal and deletes every checkpoint already there: recovery
//! prefers the newest checkpoint, whichever journal it described.

use crate::engine::ServiceEvent;
use maps_simulator::{GroundTask, GroundWorker};
use maps_spatial::{CellId, Point};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File header of an event journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"MAPSWAL2";
/// File header of a checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"MAPSCKP4";
/// Journal file name inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.bin";
/// The pseudo-producer id stamped on `PeriodTick` barrier records (a
/// real producer id would collide with lane 2³² − 1 only after far more
/// lanes than any deployment opens).
pub const TICK_PRODUCER: u32 = u32::MAX;
/// Upper bound on a journal frame's payload (a record is < 100 bytes;
/// this keeps a corrupt length prefix from swallowing the frames after
/// it).
const MAX_PAYLOAD: u32 = 4096;
/// Bytes of a frame ahead of its payload: `len:u32 hash:u64`.
const FRAME_HEADER: usize = 12;

/// Where and how often the service journals.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `journal.bin` and the `checkpoint_*.bin`
    /// files (created if missing).
    pub dir: PathBuf,
    /// Write a checkpoint every `n` epochs (clamped to ≥ 1). Recovery
    /// cost is bounded by `checkpoint_every` epochs of journal replay.
    pub checkpoint_every: u32,
}

impl JournalConfig {
    /// A journal in `dir` checkpointing every `checkpoint_every` epochs.
    pub fn new(dir: impl Into<PathBuf>, checkpoint_every: u32) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// One journaled event with its total-order coordinates.
#[derive(Debug, Clone, Copy)]
pub struct JournalRecord {
    /// Producer lane ([`TICK_PRODUCER`] for epoch-barrier ticks).
    pub producer: u32,
    /// Epoch the event belongs to.
    pub epoch: u64,
    /// Producer-local sequence number within the epoch.
    pub seq: u64,
    /// The event itself (journaled *before* admission validation).
    pub event: ServiceEvent,
}

impl JournalRecord {
    /// The barrier that closes `epoch`: the one record on the
    /// [`TICK_PRODUCER`] lane, journaled (and fsynced) before the tick
    /// runs.
    pub(crate) fn barrier(epoch: u64) -> Self {
        Self {
            producer: TICK_PRODUCER,
            epoch,
            seq: 0,
            event: ServiceEvent::PeriodTick,
        }
    }
}

/// What the end of a decoded journal looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The file ended exactly on a frame boundary.
    Clean,
    /// A torn write: the first invalid frame starts at `valid_len`
    /// (absolute file offset); `dropped` trailing bytes are discarded.
    Torn {
        /// Absolute offset of the durable prefix (truncation point).
        valid_len: u64,
        /// Bytes past the durable prefix.
        dropped: u64,
    },
}

/// Errors of the journal layer.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// A structurally invalid file (outside the recoverable torn-tail
    /// shape): a checkpoint that does not unframe, or journal records
    /// out of the order they can only have been written in.
    Corrupt(&'static str),
    /// A journal was attached between two ticks, with arrivals or tasks
    /// admitted that no checkpoint section carries.
    NotAtEpochBoundary,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => f.write_str("journal file has wrong magic header"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal data: {what}"),
            JournalError::NotAtEpochBoundary => f.write_str(
                "journal attached off an epoch boundary: events admitted since the last tick",
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The frame hash (module docs: what it does and does not promise).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let round = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x100_0000_01b3);
    let (words, tail) = bytes.as_chunks::<8>();
    let hash = words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        round(hash, u64::from_le_bytes(*word))
    });
    tail.iter().fold(hash, |hash, &b| round(hash, u64::from(b)))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends one frame to `out`, its payload written in place by `fill`
/// (no temporary buffer — this runs once per admitted event): the
/// header is reserved up front and patched once the length is known.
fn frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), JournalError> {
    let header = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    fill(out);
    let payload = &out[header + FRAME_HEADER..];
    let too_large = |_| std::io::Error::other("frame payload of 4 GiB or more");
    let len = u32::try_from(payload.len()).map_err(too_large)?;
    let hash = fnv1a64(payload);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + FRAME_HEADER].copy_from_slice(&hash.to_le_bytes());
    Ok(())
}

/// Splits the frame at the start of `bytes` into its payload and what
/// follows it — or says why there is no whole, hash-checked frame of at
/// most `max_len` payload bytes there.
fn unframe(bytes: &[u8], max_len: u32) -> Result<(&[u8], &[u8]), &'static str> {
    let mut c = Cursor(bytes);
    let (Some(len), Some(hash)) = (c.u32(), c.u64()) else {
        return Err("frame header truncated");
    };
    if len > max_len {
        return Err("frame length over its bound");
    }
    let (payload, rest) =
        (c.0.split_at_checked(len as usize)).ok_or("frame longer than the bytes present")?;
    if fnv1a64(payload) != hash {
        return Err("frame hash mismatch");
    }
    Ok((payload, rest))
}

/// Reader over packed little-endian bytes.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }
}

/// Serializes one record as a self-delimiting frame, appending to `out`.
pub fn encode_record(record: &JournalRecord, out: &mut Vec<u8>) {
    frame(out, |out| {
        put_u32(out, record.producer);
        put_u64(out, record.epoch);
        put_u64(out, record.seq);
        match record.event {
            ServiceEvent::WorkerArrive { worker } => {
                out.push(0);
                put_f64(out, worker.location.x);
                put_f64(out, worker.location.y);
                put_f64(out, worker.radius);
                put_u32(out, worker.duration);
            }
            ServiceEvent::WorkerDepart { id } => {
                out.push(1);
                put_u32(out, id);
            }
            ServiceEvent::TaskRequest { task } => {
                out.push(2);
                put_f64(out, task.origin.x);
                put_f64(out, task.origin.y);
                put_f64(out, task.destination.x);
                put_f64(out, task.destination.y);
                put_f64(out, task.distance);
                put_f64(out, task.valuation);
                put_u32(out, task.cell.0);
            }
            ServiceEvent::PeriodTick => out.push(3),
        }
    })
    .expect("a record payload is under 100 bytes");
}

/// Decodes one frame payload (must consume it exactly) — the encoding
/// only: whether its stamp belongs there is for recovery's replay.
fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
    let mut c = Cursor(payload);
    let producer = c.u32()?;
    let epoch = c.u64()?;
    let seq = c.u64()?;
    let event = match c.u8()? {
        0 => ServiceEvent::WorkerArrive {
            worker: GroundWorker {
                location: Point::new(c.f64()?, c.f64()?),
                radius: c.f64()?,
                duration: c.u32()?,
            },
        },
        1 => ServiceEvent::WorkerDepart { id: c.u32()? },
        2 => ServiceEvent::TaskRequest {
            task: GroundTask {
                origin: Point::new(c.f64()?, c.f64()?),
                destination: Point::new(c.f64()?, c.f64()?),
                distance: c.f64()?,
                valuation: c.f64()?,
                cell: CellId(c.u32()?),
            },
        },
        3 => ServiceEvent::PeriodTick,
        _ => return None,
    };
    c.0.is_empty().then_some(JournalRecord {
        producer,
        epoch,
        seq,
        event,
    })
}

/// Decodes a frame stream (no file magic). Returns every record of the
/// durable prefix plus the tail shape — torn where no whole, decodable
/// frame starts; offsets in [`Tail::Torn`] are relative to `bytes`.
pub fn decode_records(bytes: &[u8]) -> (Vec<JournalRecord>, Tail) {
    let mut records = Vec::new();
    let mut rest = bytes;
    while let Ok((payload, after)) = unframe(rest, MAX_PAYLOAD) {
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        rest = after;
    }
    let tail = match rest.len() as u64 {
        0 => Tail::Clean,
        dropped => Tail::Torn {
            valid_len: bytes.len() as u64 - dropped,
            dropped,
        },
    };
    (records, tail)
}

/// An open, appendable journal file. Appends are buffered;
/// [`JournalWriter::sync`] flushes *and fsyncs* — the engine calls it
/// at every epoch barrier, making whole epochs the unit of durability.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    scratch: Vec<u8>,
    /// Length of the file once everything appended is flushed.
    end: u64,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal file with the magic header.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(Self::appending_to(file, JOURNAL_MAGIC.len() as u64))
    }

    /// Reopens an existing journal for appending, first truncating it
    /// to `valid_len` (the durable prefix reported by
    /// [`read_journal`]) — this is how recovery drops a torn tail.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::appending_to(file, valid_len))
    }

    /// A writer appending at `file`'s current position, its end, `end`
    /// bytes in.
    fn appending_to(file: File, end: u64) -> Self {
        Self {
            // 256 KiB buffer: an epoch's worth of frames usually fits,
            // so the barrier flush is one or two write syscalls instead
            // of hundreds through the default 8 KiB buffer.
            file: BufWriter::with_capacity(256 * 1024, file),
            scratch: Vec::new(),
            end,
        }
    }

    /// Absolute offset one past the last record appended: where the
    /// next frame will start. A checkpoint cut right after an epoch's
    /// barrier names this as where its journal tail begins.
    pub(crate) fn end_offset(&self) -> u64 {
        self.end
    }

    /// Buffers one record (durable only after [`JournalWriter::sync`]).
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.scratch.clear();
        encode_record(record, &mut self.scratch);
        self.file.write_all(&self.scratch)?;
        self.end += self.scratch.len() as u64;
        Ok(())
    }

    /// Flushes buffered frames and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
}

/// A decoded journal file, or the tail of one.
#[derive(Debug)]
pub struct JournalContents {
    /// Every record of the durable prefix from where reading started,
    /// in journal (= total) order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ended clean or torn.
    pub tail: Tail,
    /// Absolute length of the durable prefix (magic included): the
    /// `valid_len` to hand [`JournalWriter::open_append`].
    pub valid_len: u64,
}

/// Reads and decodes a whole journal file, classifying its tail.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    read_journal_from(path, JOURNAL_MAGIC.len() as u64, 0)
}

/// Reads and decodes a journal from `offset` on — what the checkpoint
/// of `epoch` recorded as the journal's length when it was cut. Of the
/// bytes before `offset` only the magic and the one frame ending there
/// are read: that frame must be the hash-valid barrier of `epoch − 1`,
/// the last thing journaled before that checkpoint (a checkpoint cut
/// when the journal was created sits right after the magic, behind no
/// barrier, whatever its epoch). An `offset` anywhere else is a lying
/// word, not a torn tail: [`JournalError::Corrupt`], and nothing is
/// decoded that a caller could truncate the file by.
pub(crate) fn read_journal_from(
    path: &Path,
    offset: u64,
    epoch: u64,
) -> Result<JournalContents, JournalError> {
    const NOT_ITS_BARRIER: JournalError =
        JournalError::Corrupt("checkpoint's journal offset is not on its epoch's barrier");
    let mut file = File::open(path)?;
    let first_frame = JOURNAL_MAGIC.len() as u64;
    let mut magic = Vec::with_capacity(JOURNAL_MAGIC.len());
    (&mut file).take(first_frame).read_to_end(&mut magic)?;
    if magic != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    if !(first_frame..=file.metadata()?.len()).contains(&offset) {
        return Err(JournalError::Corrupt(
            "checkpoint's journal offset is outside the journal",
        ));
    }
    if offset > first_frame {
        // The encoding is canonical, so the barrier is there, whole and
        // hash-valid, exactly when its bytes are.
        let mut barrier = Vec::new();
        let closed = epoch.checked_sub(1).ok_or(NOT_ITS_BARRIER)?;
        encode_record(&JournalRecord::barrier(closed), &mut barrier);
        let barrier_at = (offset.checked_sub(barrier.len() as u64))
            .filter(|at| *at >= first_frame)
            .ok_or(NOT_ITS_BARRIER)?;
        file.seek(SeekFrom::Start(barrier_at))?;
        let mut found = vec![0u8; barrier.len()];
        file.read_exact(&mut found)?;
        if found != barrier {
            return Err(NOT_ITS_BARRIER);
        }
    }
    // Either way the file now stands at `offset`.
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (records, mut tail) = decode_records(&bytes);
    let mut valid_len = offset + bytes.len() as u64;
    if let Tail::Torn { valid_len: at, .. } = &mut tail {
        *at += offset;
        valid_len = *at;
    }
    Ok(JournalContents {
        records,
        tail,
        valid_len,
    })
}

/// Serializes a checkpoint file: the magic, then the state words as the
/// payload of one frame. Fails only on a payload the frame's `u32`
/// length cannot describe.
pub fn encode_checkpoint(words: &[u64]) -> Result<Vec<u8>, JournalError> {
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + FRAME_HEADER + words.len() * 8);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    frame(&mut out, |out| words.iter().for_each(|&w| put_u64(out, w)))?;
    Ok(out)
}

/// Decodes a checkpoint file: exactly one hash-checked frame after the
/// magic, its payload whole words.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Vec<u64>, JournalError> {
    let body = bytes
        .strip_prefix(CHECKPOINT_MAGIC)
        .ok_or(JournalError::BadMagic)?;
    let (payload, rest) = unframe(body, u32::MAX).map_err(JournalError::Corrupt)?;
    let (words, odd) = payload.as_chunks::<8>();
    if !rest.is_empty() || !odd.is_empty() {
        return Err(JournalError::Corrupt(
            "checkpoint is not exactly one frame of words",
        ));
    }
    Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

/// Path of the checkpoint taken at the start of `epoch`.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("checkpoint_{epoch}.bin"))
}

/// Writes a checkpoint durably: temp file, fsync, atomic rename.
pub fn write_checkpoint_file(dir: &Path, epoch: u64, words: &[u64]) -> Result<(), JournalError> {
    let bytes = encode_checkpoint(words)?;
    let tmp = dir.join(format!("checkpoint_{epoch}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir, epoch))?;
    Ok(())
}

/// Lists checkpoint epochs present in `dir`, ascending.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<u64>, JournalError> {
    let mut epochs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = name
            .strip_prefix("checkpoint_")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|num| num.parse::<u64>().ok())
        {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable();
    Ok(epochs)
}

/// Deletes every `checkpoint_*` file in `dir` with one of `suffixes`:
/// recovery clears `.tmp`, the staging files of checkpoints whose writer
/// died before the rename; a fresh journal clears `.bin` too. Only safe
/// while no [`write_checkpoint_file`] is in flight on `dir`.
pub(crate) fn remove_checkpoint_files(dir: &Path, suffixes: &[&str]) -> Result<(), JournalError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("checkpoint_") && suffixes.iter().any(|s| name.ends_with(s)) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord {
                producer: 0,
                epoch: 0,
                seq: 0,
                event: ServiceEvent::WorkerArrive {
                    worker: GroundWorker {
                        location: Point::new(1.5, -2.25),
                        radius: 4.0,
                        duration: u32::MAX,
                    },
                },
            },
            JournalRecord {
                producer: 1,
                epoch: 0,
                seq: 0,
                event: ServiceEvent::TaskRequest {
                    task: GroundTask {
                        origin: Point::new(0.1, 0.2),
                        destination: Point::new(3.0, 4.0),
                        distance: 5.0,
                        valuation: f64::NAN, // invalid events journal too
                        cell: CellId(7),
                    },
                },
            },
            JournalRecord {
                producer: 0,
                epoch: 0,
                seq: 1,
                event: ServiceEvent::WorkerDepart { id: 3 },
            },
            JournalRecord {
                producer: TICK_PRODUCER,
                epoch: 0,
                seq: 0,
                event: ServiceEvent::PeriodTick,
            },
        ]
    }

    fn encode_all(records: &[JournalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            encode_record(r, &mut out);
        }
        out
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let (decoded, tail) = decode_records(&bytes);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(decoded.len(), records.len());
        // Canonical equality: the codec is deterministic, so re-encoding
        // the decoded stream must reproduce the bytes (catches NaN and
        // -0.0 mangling that a value-level comparison could miss).
        assert_eq!(encode_all(&decoded), bytes);
    }

    #[test]
    fn every_truncation_point_recovers_a_frame_prefix() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Frame boundaries (offsets where a prefix is exactly whole).
        let mut boundaries = vec![0usize];
        {
            let mut out = Vec::new();
            for r in &records {
                encode_record(r, &mut out);
                boundaries.push(out.len());
            }
        }
        for cut in 0..bytes.len() {
            let (decoded, tail) = decode_records(&bytes[..cut]);
            let whole = boundaries.iter().take_while(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            if boundaries.contains(&cut) {
                assert_eq!(tail, Tail::Clean, "cut at {cut} is a frame boundary");
            } else {
                let valid = boundaries[whole] as u64;
                assert_eq!(
                    tail,
                    Tail::Torn {
                        valid_len: valid,
                        dropped: cut as u64 - valid,
                    },
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn corrupt_crc_is_a_torn_tail() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let (decoded, tail) = decode_records(&bytes);
        assert_eq!(decoded.len(), records.len() - 1);
        assert!(matches!(tail, Tail::Torn { .. }));
    }

    #[test]
    fn writer_reader_round_trip_with_torn_tail_truncation() {
        let dir = crate::test_dir("journal_rw");
        let path = dir.join(JOURNAL_FILE);
        let records = sample_records();
        {
            let mut w = JournalWriter::create(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        }
        // Simulate a torn write: append half a frame worth of garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 7]).unwrap();
        }
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), records.len());
        assert!(matches!(contents.tail, Tail::Torn { dropped: 7, .. }));
        // Recovery truncates and appends cleanly after the tear.
        {
            let mut w = JournalWriter::open_append(&path, contents.valid_len).unwrap();
            w.append(&records[0]).unwrap();
            w.sync().unwrap();
        }
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), records.len() + 1);
        assert_eq!(contents.tail, Tail::Clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_round_trip_and_crc_guard() {
        let words = vec![0u64, 1, u64::MAX, 0x8000_0000_0000_0000];
        let bytes = encode_checkpoint(&words).unwrap();
        assert_eq!(decode_checkpoint(&bytes).unwrap(), words);
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(JournalError::Corrupt(_))
        ));
        assert!(matches!(
            decode_checkpoint(&bytes[..7]),
            Err(JournalError::BadMagic)
        ));
        // Earlier layouts are refused by their magic, not misread.
        for old in [b"MAPSCKP2", b"MAPSCKP3"] {
            let mut stale = bytes.clone();
            stale[..8].copy_from_slice(old);
            assert!(matches!(
                decode_checkpoint(&stale),
                Err(JournalError::BadMagic)
            ));
        }
    }

    #[test]
    fn checkpoint_files_list_and_read_back() {
        let dir = crate::test_dir("journal_ckpt");
        write_checkpoint_file(&dir, 3, &[1, 2, 3]).unwrap();
        write_checkpoint_file(&dir, 10, &[4]).unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![3, 10]);
        let bytes = std::fs::read(checkpoint_path(&dir, 10)).unwrap();
        assert_eq!(decode_checkpoint(&bytes).unwrap(), vec![4]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
