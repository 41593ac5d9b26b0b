//! Write-ahead event journal: the durability half of the service's
//! crash-recovery contract (the other half is [`crate::recovery`]).
//!
//! ## Why a hand-rolled binary frame format
//!
//! Every [`Outcome`](maps_simulator::Outcome) is a pure function of the
//! admitted event stream in the total `(epoch, producer, seq)` order
//! (the PR 4/5 standing invariants), so *bit-exact* durability needs a
//! *bit-exact* event encoding: every `f64` is written as its IEEE-754
//! bit pattern ([`f64::to_bits`]) — a text codec that round-trips
//! through decimal would silently perturb the replay. The format
//! doubles as the wire format for out-of-process producers (ROADMAP):
//! a length-prefixed frame stream is exactly what a socket needs.
//!
//! ## Format
//!
//! ```text
//! file   := MAGIC frame*
//! MAGIC  := b"MAPSWAL1"                      (8 bytes)
//! frame  := len:u32 crc:u64 payload          (all little-endian)
//!           len = payload byte length; crc = FNV-1a 64 of payload
//! payload:= producer:u32 epoch:u64 seq:u64 tag:u8 fields
//!   tag 0 WorkerArrive  fields = x:u64 y:u64 radius:u64 duration:u32
//!   tag 1 WorkerDepart  fields = id:u32
//!   tag 2 TaskRequest   fields = ox oy dx dy dist val (6×u64) cell:u32
//!   tag 3 PeriodTick    fields = ∅
//! ```
//!
//! Floats are stored as `to_bits` words, so even NaN-carrying events
//! (journaled *before* admission validation, so recovery re-counts the
//! rejection deterministically) round-trip exactly.
//!
//! ## Torn tails
//!
//! A crash can leave a partial frame at the end of the file. Decoding
//! treats the first invalid frame (short header, short payload,
//! CRC mismatch, or undecodable payload) as the torn tail: everything
//! before it is the durable prefix, everything after is dropped and the
//! file is truncated at the prefix on recovery ([`Tail::Torn`]). The
//! root proptest round-trips arbitrary event streams through
//! encode → truncate-at-every-byte → decode to pin this down.
//!
//! Epoch checkpoints ride along in the same directory as
//! `checkpoint_<epoch>.bin` files: a CRC-guarded `u64` word stream
//! produced by the engine's state snapshot (see [`crate::recovery`]).
//! The checkpoint CRC is a *word-stream* FNV-1a (one round per `u64`
//! over `count` then the words) — checkpoints are megabytes, and the
//! byte-wise hash's serial dependency chain would cost more than the
//! write itself.

use crate::engine::ServiceEvent;
use maps_simulator::{GroundTask, GroundWorker};
use maps_spatial::{CellId, Point};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File header of an event journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"MAPSWAL1";
/// File header of a checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"MAPSCKP1";
/// Journal file name inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.bin";
/// The pseudo-producer id stamped on `PeriodTick` barrier records (a
/// real producer id would collide with lane 2³² − 1 only after far more
/// lanes than any deployment opens).
pub const TICK_PRODUCER: u32 = u32::MAX;
/// Upper bound on a sane frame payload (a record is < 100 bytes; this
/// bound just keeps a corrupt length prefix from looking like a
/// 4-GiB allocation).
const MAX_PAYLOAD: u32 = 4096;

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
    /// shape), e.g. a checkpoint whose CRC does not match.
    Corrupt(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => f.write_str("journal file has wrong magic header"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal data: {what}"),
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

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to detect torn
/// writes (this is corruption *detection* on a trusted local disk, not
/// an adversarial integrity check).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Word-stream FNV-1a variant: one XOR + multiply per `u64` instead of
/// per byte. Journal frames keep the byte-wise hash (payloads are tens
/// of bytes), but checkpoints hash megabytes of state words at every
/// epoch boundary — the byte-wise loop is a serial dependency chain
/// eight times longer than it needs to be there.
fn fnv1a64_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        hash ^= w;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
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

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let v = u32::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
}

/// Serializes one record as a self-delimiting frame, appending to `out`.
///
/// The payload is written straight into `out` (no temporary buffer —
/// this runs once per admitted event); the 12-byte `len`/`crc` header
/// is reserved up front and patched once the payload length is known.
pub fn encode_record(record: &JournalRecord, out: &mut Vec<u8>) {
    let header = out.len();
    out.extend_from_slice(&[0u8; 12]);
    let start = out.len();
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
    let len = (out.len() - start) as u32;
    let crc = fnv1a64(&out[start..]);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes one frame payload (must consume it exactly). The reserved
/// [`TICK_PRODUCER`] lane carries nothing but `PeriodTick` barriers —
/// replay closes a period on it without looking at the event — so any
/// other event stamped with it is undecodable.
fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
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
    if producer == TICK_PRODUCER && !matches!(event, ServiceEvent::PeriodTick) {
        return None;
    }
    (c.pos == payload.len()).then_some(JournalRecord {
        producer,
        epoch,
        seq,
        event,
    })
}

/// Decodes a frame stream (no file magic). Returns every record of the
/// durable prefix plus the tail shape; offsets in [`Tail::Torn`] are
/// relative to `bytes`.
pub fn decode_records(bytes: &[u8]) -> (Vec<JournalRecord>, Tail) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let torn = |at: usize| Tail::Torn {
            valid_len: at as u64,
            dropped: (bytes.len() - at) as u64,
        };
        let Some(header) = bytes.get(pos..pos + 12) else {
            return (records, torn(pos));
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return (records, torn(pos));
        }
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len as usize) else {
            return (records, torn(pos));
        };
        if fnv1a64(payload) != crc {
            return (records, torn(pos));
        }
        let Some(record) = decode_payload(payload) else {
            return (records, torn(pos));
        };
        records.push(record);
        pos += 12 + len as usize;
    }
    (records, Tail::Clean)
}

/// An open, appendable journal file. Appends are buffered;
/// [`JournalWriter::sync`] flushes *and fsyncs* — the engine calls it
/// at every epoch barrier, making whole epochs the unit of durability.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal file with the magic header.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(Self::appending_to(file))
    }

    /// Reopens an existing journal for appending, first truncating it
    /// to `valid_len` (the durable prefix reported by
    /// [`read_journal`]) — this is how recovery drops a torn tail.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::appending_to(file))
    }

    /// A writer appending at `file`'s current position.
    fn appending_to(file: File) -> Self {
        Self {
            // 256 KiB buffer: an epoch's worth of frames usually fits,
            // so the barrier flush is one or two write syscalls instead
            // of hundreds through the default 8 KiB buffer.
            file: BufWriter::with_capacity(256 * 1024, file),
            scratch: Vec::new(),
        }
    }

    /// Buffers one record (durable only after [`JournalWriter::sync`]).
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.scratch.clear();
        encode_record(record, &mut self.scratch);
        self.file.write_all(&self.scratch)?;
        Ok(())
    }

    /// Flushes buffered frames and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
}

/// A fully decoded journal file.
#[derive(Debug)]
pub struct JournalContents {
    /// Every record of the durable prefix, in journal (= total) order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ended clean or torn.
    pub tail: Tail,
    /// Absolute length of the durable prefix (magic included): the
    /// `valid_len` to hand [`JournalWriter::open_append`].
    pub valid_len: u64,
}

/// Reads and decodes a journal file, classifying its tail.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let body = &bytes[JOURNAL_MAGIC.len()..];
    let (records, tail) = decode_records(body);
    let magic = JOURNAL_MAGIC.len() as u64;
    let (tail, valid_len) = match tail {
        Tail::Clean => (Tail::Clean, bytes.len() as u64),
        Tail::Torn { valid_len, dropped } => (
            Tail::Torn {
                valid_len: magic + valid_len,
                dropped,
            },
            magic + valid_len,
        ),
    };
    Ok(JournalContents {
        records,
        tail,
        valid_len,
    })
}

/// Serializes a checkpoint word stream with magic + CRC framing.
pub fn encode_checkpoint(words: &[u64]) -> Vec<u8> {
    // CRC over the logical word stream (count, then words) with the
    // word-wise FNV variant: checkpoints are megabytes, and hashing
    // them byte-at-a-time costs more than writing them.
    let crc = fnv1a64_words(std::iter::once(words.len() as u64).chain(words.iter().copied()));
    let mut out = Vec::with_capacity(24 + words.len() * 8);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    put_u64(&mut out, crc);
    put_u64(&mut out, words.len() as u64);
    for &w in words {
        put_u64(&mut out, w);
    }
    out
}

/// Decodes (and CRC-checks) a checkpoint byte stream.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Vec<u64>, JournalError> {
    if bytes.len() < 16 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let crc = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let body = &bytes[16..];
    if !body.len().is_multiple_of(8) {
        return Err(JournalError::Corrupt("checkpoint length mismatch"));
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let count = c
        .u64()
        .ok_or(JournalError::Corrupt("checkpoint truncated"))? as usize;
    // The count is a word from the file: compare it with what the body
    // holds before any arithmetic or reservation is done on it.
    if count != (body.len() - 8) / 8 {
        return Err(JournalError::Corrupt("checkpoint length mismatch"));
    }
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        words.push(c.u64().expect("length checked above"));
    }
    if fnv1a64_words(std::iter::once(count as u64).chain(words.iter().copied())) != crc {
        return Err(JournalError::Corrupt("checkpoint CRC mismatch"));
    }
    Ok(words)
}

/// Path of the checkpoint taken at the start of `epoch`.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("checkpoint_{epoch}.bin"))
}

/// Writes a checkpoint durably: temp file, fsync, atomic rename.
pub fn write_checkpoint_file(dir: &Path, epoch: u64, words: &[u64]) -> Result<(), JournalError> {
    let bytes = encode_checkpoint(words);
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

/// Deletes every `checkpoint_*.tmp` in `dir`: the staging files of
/// checkpoints whose writer died before the rename. Only safe while no
/// [`write_checkpoint_file`] is in flight on `dir` — recovery's case.
pub(crate) fn remove_orphaned_checkpoint_temps(dir: &Path) -> Result<(), JournalError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("checkpoint_") && name.ends_with(".tmp") {
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

    /// A frame that hashes correctly but stamps a non-tick event with
    /// the reserved tick lane is a torn tail like any other undecodable
    /// payload — replay must never close a period on it.
    #[test]
    fn non_tick_event_on_the_tick_lane_is_a_torn_tail() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        let durable = bytes.len();
        encode_record(
            &JournalRecord {
                producer: TICK_PRODUCER,
                epoch: 1,
                seq: 0,
                event: ServiceEvent::WorkerDepart { id: 3 },
            },
            &mut bytes,
        );
        let (decoded, tail) = decode_records(&bytes);
        assert_eq!(decoded.len(), records.len());
        assert_eq!(
            tail,
            Tail::Torn {
                valid_len: durable as u64,
                dropped: (bytes.len() - durable) as u64,
            }
        );
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
        let bytes = encode_checkpoint(&words);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), words);
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(JournalError::Corrupt(_))
        ));
        assert!(matches!(
            decode_checkpoint(&bytes[..8]),
            Err(JournalError::BadMagic)
        ));
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
