//! The write-ahead log: an append-only file of CRC-framed records.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! ┌──────────┬──────────┬────────────────┐
//! │ len: u32 │ crc: u32 │ payload [len]  │
//! └──────────┴──────────┴────────────────┘
//! ```
//!
//! The payload is the JSON serialisation of one [`LogRecord`] — the framing
//! and checksumming are binary and hand-rolled; JSON payloads keep the log
//! debuggable with standard tools (and `serde_json` is the one permitted
//! extra dependency, see DESIGN.md §6).
//!
//! Recovery ([`WalReader::read_all`]) replays frames until EOF or the first
//! corrupt/truncated frame, and reports how many clean bytes precede the
//! damage so the writer can truncate the tail and continue appending — the
//! standard "torn tail" discipline.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

use prov_engine::{TraceEvent, XferEvent, XformEvent};
use prov_model::{ProcessorName, RunId};
use prov_obs::{Counter, Histogram, Registry};

/// Shared WAL throughput and durability-latency metrics.
///
/// One instance lives in the owning store and is cloned (`Arc`-shared)
/// into every [`WalWriter`] the store creates — writers are recreated at
/// open and checkpoint time, but the metrics survive. Counters are
/// always-on standalone atomics (negligible next to a buffered write,
/// let alone an fsync); [`WalMetrics::register`] adopts them into a
/// metrics registry under stable `wal.*` names.
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Frames appended (one per record or group-committed batch).
    pub frames: Counter,
    /// Bytes appended, including the 8-byte frame header.
    pub bytes_written: Counter,
    /// Batch frames appended (group commits).
    pub group_commits: Counter,
    /// Number of [`WalWriter::sync`] calls.
    pub syncs: Counter,
    /// fsync latency in microseconds.
    pub sync_micros: Histogram,
    /// Torn tails truncated during recovery (expected crash shape).
    pub torn_tails: Counter,
    /// Complete frames that failed their checksum or decode during
    /// recovery (unexpected damage; replay stops before them).
    pub corrupt_frames: Counter,
    /// WAL tail frames replayed at the most recent recovery — the cost a
    /// crash actually paid. Bounded by `CompactionPolicy::max_frames` when
    /// automatic compaction is enabled.
    pub recovery_replayed_frames: Counter,
    /// Snapshot-and-truncate compaction cycles completed.
    pub compactions: Counter,
}

impl Default for WalMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl WalMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        WalMetrics {
            frames: Counter::standalone(),
            bytes_written: Counter::standalone(),
            group_commits: Counter::standalone(),
            syncs: Counter::standalone(),
            sync_micros: Histogram::standalone(),
            torn_tails: Counter::standalone(),
            corrupt_frames: Counter::standalone(),
            recovery_replayed_frames: Counter::standalone(),
            compactions: Counter::standalone(),
        }
    }

    /// Adopts the metrics into `registry` under `wal.*` names (shared
    /// storage; see [`prov_obs::Registry::adopt_counter`]).
    pub fn register(&self, registry: &Registry) {
        registry.adopt_counter("wal.frames", &self.frames);
        registry.adopt_counter("wal.bytes_written", &self.bytes_written);
        registry.adopt_counter("wal.group_commits", &self.group_commits);
        registry.adopt_counter("wal.syncs", &self.syncs);
        registry.adopt_histogram("wal.sync_micros", &self.sync_micros);
        registry.adopt_counter("wal.torn_tails", &self.torn_tails);
        registry.adopt_counter("wal.corrupt_frames", &self.corrupt_frames);
        registry.adopt_counter("wal.recovery_replayed_frames", &self.recovery_replayed_frames);
        registry.adopt_counter("wal.compactions", &self.compactions);
    }
}

/// One durable event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A run was registered.
    BeginRun {
        /// The assigned run id.
        run: RunId,
        /// Workflow name.
        workflow: ProcessorName,
    },
    /// An xform event (values inline; the store re-interns on replay).
    Xform {
        /// Owning run.
        run: RunId,
        /// The event.
        event: XformEvent,
    },
    /// An xfer event.
    Xfer {
        /// Owning run.
        run: RunId,
        /// The event.
        event: XferEvent,
    },
    /// A group-committed batch of events of one run (one frame, one CRC).
    /// Replay flattens the batch, so logs mixing batched and per-event
    /// frames — including logs written before batching existed — replay
    /// identically.
    Batch {
        /// Owning run.
        run: RunId,
        /// The events, in recording order.
        events: Vec<TraceEvent>,
    },
    /// A run completed.
    FinishRun {
        /// The completed run.
        run: RunId,
    },
    /// A run was dropped (its records become unreachable; space is
    /// reclaimed at the next checkpoint).
    DropRun {
        /// The dropped run.
        run: RunId,
    },
    /// A workflow specification was registered, so the database is
    /// self-contained for INDEXPROJ queries (the spec travels with the
    /// traces). The payload is the `prov-dataflow` JSON serialisation.
    Workflow {
        /// Workflow name (also the key; re-registration overwrites).
        name: ProcessorName,
        /// Serialised `Dataflow`.
        json: String,
    },
    /// A snapshot marker. As the *first* record of a WAL it means "state up
    /// to here lives in snapshot file `generation`; replay only what
    /// follows". Inside a snapshot file it brackets the content (header and
    /// footer), so a frame-aligned truncation of the snapshot is detectable.
    /// Replay treats it as a no-op.
    Snapshot {
        /// The snapshot generation this marker refers to.
        generation: u64,
    },
}

/// WAL-specific errors.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A frame failed its checksum or could not be decoded; carries the
    /// clean length of the file before the damage.
    Corrupt {
        /// Offset of the first bad byte.
        clean_len: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { clean_len } => {
                write!(f, "wal corrupt after {clean_len} clean bytes")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The file abstraction the WAL writer appends through: a real [`File`]
/// in production, a fault-injecting wrapper ([`crate::fault::FaultFile`])
/// in crash-torture tests. `sync_data` takes `&mut self` so wrappers can
/// count and fail syncs.
pub trait WalFile: Write + Send + std::fmt::Debug {
    /// Flushes written data to stable storage (fsync).
    fn sync_data(&mut self) -> std::io::Result<()>;
}

impl WalFile for File {
    fn sync_data(&mut self) -> std::io::Result<()> {
        File::sync_data(self)
    }
}

/// Appends framed records to a log file.
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<Box<dyn WalFile>>,
    metrics: WalMetrics,
}

impl WalWriter {
    /// Opens (creating if needed) the log for appending.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter::over(Box::new(file)))
    }

    /// Opens the log for appending after truncating it to `len` bytes —
    /// used to drop a torn tail detected during recovery.
    pub fn open_truncated(path: &Path, len: u64) -> Result<Self, WalError> {
        // Deliberately NOT `truncate(true)`: the file is cut to `len` via
        // `set_len`, preserving the clean prefix.
        #[allow(clippy::suspicious_open_options)]
        let file = OpenOptions::new().create(true).write(true).open(path)?;
        file.set_len(len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter::over(Box::new(file)))
    }

    /// Wraps an arbitrary backend — the entry point of the fault-injection
    /// harness ([`crate::fault`]).
    pub fn over(backend: Box<dyn WalFile>) -> Self {
        WalWriter { out: BufWriter::new(backend), metrics: WalMetrics::new() }
    }

    /// Replaces this writer's metrics with a shared instance, so totals
    /// survive writer re-creation (recovery truncation, checkpointing).
    pub fn with_metrics(mut self, metrics: WalMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Appends one record (buffered; call [`WalWriter::sync`] to flush).
    /// Payloads are produced by the store's streaming encoder (`encode.rs`),
    /// which writes the same bytes as `serde_json::to_vec` without building
    /// the intermediate JSON tree.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), WalError> {
        let payload = crate::encode::encode_record(record);
        self.append_payload(&payload)
    }

    /// Appends a whole event batch as one [`LogRecord::Batch`] frame —
    /// group commit: one serialisation, one CRC, one buffered write. The
    /// events are borrowed; nothing is cloned to build the frame.
    pub fn append_batch(&mut self, run: RunId, events: &[TraceEvent]) -> Result<(), WalError> {
        let payload = crate::encode::encode_batch(run, events);
        self.metrics.group_commits.inc();
        self.append_payload(&payload)
    }

    /// Appends an already-encoded payload — the replication apply path,
    /// where the follower re-frames the exact payload bytes the primary
    /// shipped (len and CRC are functions of the payload, so the resulting
    /// frame is byte-identical to the primary's).
    pub(crate) fn append_payload(&mut self, payload: &[u8]) -> Result<(), WalError> {
        let mut frame = BytesMut::with_capacity(8 + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crate::crc32(payload));
        frame.put_slice(payload);
        self.out.write_all(&frame)?;
        self.metrics.frames.inc();
        self.metrics.bytes_written.add(frame.len() as u64);
        Ok(())
    }

    /// Flushes buffered frames to the OS and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.out.flush()?;
        let start = std::time::Instant::now();
        self.out.get_mut().sync_data()?;
        self.metrics.syncs.inc();
        self.metrics.sync_micros.record(start.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// How the log's tail looked at recovery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The file ended exactly on a frame boundary — nothing to repair.
    Clean,
    /// The final frame was incomplete: the expected shape of a crash
    /// mid-append. `offset` is the first byte of the torn frame (equal to
    /// the clean length); truncating there loses nothing durable.
    TornTail {
        /// Offset of the first byte of the torn frame.
        offset: u64,
    },
    /// A complete frame failed its checksum or did not decode. Unlike a
    /// torn tail this is *not* a clean truncation — bytes after the clean
    /// prefix were damaged in place. Replay still stops at `offset`, but
    /// the store surfaces the distinction (`wal.corrupt_frames`).
    CorruptFrame {
        /// Offset of the first byte of the damaged frame.
        offset: u64,
    },
}

impl TailState {
    /// Whether recovery found any damage (torn or corrupt).
    pub fn is_clean(&self) -> bool {
        matches!(self, TailState::Clean)
    }
}

/// The result of replaying a log: the clean records, the length of the
/// clean prefix they occupy, and what the tail beyond it looked like.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every record of the clean prefix, in append order.
    pub records: Vec<LogRecord>,
    /// Bytes of clean frames; the safe truncation point for
    /// [`WalWriter::open_truncated`].
    pub clean_len: u64,
    /// State of the bytes past the clean prefix.
    pub tail: TailState,
}

/// Frames longer than this are treated as corrupt rather than allocated:
/// a length field this large can only come from damaged bytes.
const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// A streaming, CRC-checking frame reader over a WAL (or snapshot) byte
/// stream. Holds exactly **one** frame in memory at a time in a reusable
/// buffer — recovery scans and replication shipping never buffer the whole
/// log, no matter how large it grew.
///
/// The cursor is generic over any [`Read`] source: a `BufReader<File>` for
/// on-disk scans ([`WalCursor::open_at`]), a byte slice or socket for
/// replication, a fault-injected reader in torture tests. `offset()` tracks
/// the clean frame boundary consumed so far (seeded by the start offset),
/// and [`WalCursor::tail`] reports how iteration ended — the same
/// [`TailState`] taxonomy recovery uses.
#[derive(Debug)]
pub struct WalCursor<R> {
    reader: R,
    /// Reusable frame buffer: 8-byte header followed by the payload of the
    /// most recent clean frame.
    buf: Vec<u8>,
    offset: u64,
    tail: TailState,
    done: bool,
    /// High-water mark of the frame buffer's capacity — what the scan
    /// actually held in memory (regression-tested to stay one-frame-sized).
    peak_buf: usize,
}

impl WalCursor<BufReader<File>> {
    /// Opens a cursor over the file at `path`, starting at byte 0.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        Self::open_at(path, 0)
    }

    /// Opens a cursor over the file at `path`, starting at `offset` —
    /// which must be a frame boundary (a clean length previously reported
    /// by recovery or by another cursor).
    pub fn open_at(path: &Path, offset: u64) -> Result<Self, WalError> {
        let mut file = File::open(path)?;
        if offset > 0 {
            file.seek(SeekFrom::Start(offset))?;
        }
        Ok(Self::over_at(BufReader::new(file), offset))
    }
}

impl<R: Read> WalCursor<R> {
    /// Wraps an arbitrary byte source, counting offsets from 0.
    pub fn over(reader: R) -> Self {
        Self::over_at(reader, 0)
    }

    /// Wraps an arbitrary byte source whose first byte sits at `offset` of
    /// the logical log (for shipped tails that start mid-file).
    pub fn over_at(reader: R, offset: u64) -> Self {
        WalCursor {
            reader,
            buf: Vec::new(),
            offset,
            tail: TailState::Clean,
            done: false,
            peak_buf: 0,
        }
    }

    /// Offset just past the last clean frame consumed — the safe
    /// truncation/resume point so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// How the scan ended (meaningful once iteration returns `None`):
    /// [`TailState::Clean`] at a frame-aligned EOF, otherwise the damage
    /// kind and offset.
    pub fn tail(&self) -> TailState {
        self.tail
    }

    /// Largest buffer the cursor has held, in bytes — one frame plus
    /// amortised growth, never the whole file.
    pub fn peak_buf_bytes(&self) -> usize {
        self.peak_buf
    }

    /// Payload bytes of the most recent clean frame (empty before the
    /// first [`WalCursor::next_frame`]).
    pub fn payload(&self) -> &[u8] {
        self.buf.get(8..).unwrap_or(&[])
    }

    /// Reads the next frame, verifying its checksum, and returns the whole
    /// frame (header + payload) — the exact bytes to ship to a replica.
    /// Returns `Ok(None)` when the stream ends, cleanly or not; consult
    /// [`WalCursor::tail`] to distinguish. A genuine mid-read I/O failure
    /// is returned as [`WalError::Io`].
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WalError> {
        if self.done {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        match read_exact_or_eof(&mut self.reader, &mut header) {
            ReadOutcome::Eof => {
                self.done = true;
                return Ok(None);
            }
            ReadOutcome::Partial => {
                self.done = true;
                self.tail = TailState::TornTail { offset: self.offset };
                return Ok(None);
            }
            ReadOutcome::Err(e) => return Err(e.into()),
            ReadOutcome::Full => {}
        }
        let mut hb = &header[..];
        let len = hb.get_u32_le() as usize;
        let crc = hb.get_u32_le();
        if len > MAX_FRAME_LEN {
            self.done = true;
            self.tail = TailState::CorruptFrame { offset: self.offset };
            return Ok(None);
        }
        self.buf.clear();
        self.buf.extend_from_slice(&header);
        self.buf.resize(8 + len, 0);
        match read_exact_or_eof(&mut self.reader, &mut self.buf[8..]) {
            ReadOutcome::Full => {}
            ReadOutcome::Err(e) => return Err(e.into()),
            // The header was complete but the payload ends early: a frame
            // torn by a crash mid-append (or a stream cut mid-ship).
            ReadOutcome::Eof | ReadOutcome::Partial => {
                self.done = true;
                self.tail = TailState::TornTail { offset: self.offset };
                return Ok(None);
            }
        }
        if crate::crc32(&self.buf[8..]) != crc {
            self.done = true;
            self.tail = TailState::CorruptFrame { offset: self.offset };
            return Ok(None);
        }
        self.peak_buf = self.peak_buf.max(self.buf.capacity());
        self.offset += self.buf.len() as u64;
        Ok(Some(&self.buf))
    }

    /// Reads and decodes the next clean record. A frame whose checksum
    /// holds but whose payload doesn't decode counts as corrupt: the scan
    /// stops *before* it (its bytes are excluded from `offset()`), exactly
    /// like recovery.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, WalError> {
        if self.next_frame()?.is_none() {
            return Ok(None);
        }
        match serde_json::from_slice::<LogRecord>(&self.buf[8..]) {
            Ok(r) => Ok(Some(r)),
            Err(_) => {
                // Roll the clean boundary back to before the bad frame.
                self.offset -= self.buf.len() as u64;
                self.tail = TailState::CorruptFrame { offset: self.offset };
                self.done = true;
                Ok(None)
            }
        }
    }
}

/// Reads framed records back.
#[derive(Debug)]
pub struct WalReader;

impl WalReader {
    /// Replays every clean record in the log, streaming one frame at a
    /// time through a [`WalCursor`]. A torn or corrupt tail stops the
    /// replay without erroring (crashes are the expected shape of a WAL's
    /// end) and is reported in [`WalRecovery::tail`] with the damage
    /// offset; a genuine mid-read I/O failure — the disk erroring, not the
    /// file merely ending — is returned as [`WalError::Io`].
    pub fn read_all(path: &Path) -> Result<WalRecovery, WalError> {
        let mut cursor = match WalCursor::open(path) {
            Ok(c) => c,
            Err(WalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalRecovery {
                    records: Vec::new(),
                    clean_len: 0,
                    tail: TailState::Clean,
                })
            }
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        while let Some(r) = cursor.next_record()? {
            records.push(r);
        }
        Ok(WalRecovery { records, clean_len: cursor.offset(), tail: cursor.tail() })
    }
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
    Err(std::io::Error),
}

fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return if filled == 0 { ReadOutcome::Eof } else { ReadOutcome::Partial },
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Err(e),
        }
    }
    ReadOutcome::Full
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{Index, PortRef, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("prov-store-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::BeginRun { run: RunId(0), workflow: ProcessorName::from("wf") },
            LogRecord::Xfer {
                run: RunId(0),
                event: XferEvent {
                    src: PortRef::new("A", "y"),
                    src_index: Index::single(0),
                    dst: PortRef::new("B", "x"),
                    dst_index: Index::single(0),
                    value: Value::str("v"),
                },
            },
            LogRecord::FinishRun { run: RunId(0) },
        ]
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records, sample_records());
        assert_eq!(rec.clean_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(rec.tail, TailState::Clean);
    }

    #[test]
    fn batch_append_round_trips_as_owned_batch_record() {
        let path = tmp("batch");
        let events = vec![
            TraceEvent::Xform(XformEvent {
                processor: ProcessorName::from("P"),
                invocation: 0,
                inputs: vec![],
                outputs: vec![],
            }),
            TraceEvent::Xfer(XferEvent {
                src: PortRef::new("A", "y"),
                src_index: Index::single(0),
                dst: PortRef::new("B", "x"),
                dst_index: Index::single(0),
                value: Value::str("v"),
            }),
        ];
        let mut w = WalWriter::open(&path).unwrap();
        w.append_batch(RunId(3), &events).unwrap();
        // The borrowed shadow must write the exact bytes of the owned
        // variant: append the owned record and compare the two frames.
        w.append(&LogRecord::Batch { run: RunId(3), events: events.clone() }).unwrap();
        w.sync().unwrap();
        let records = WalReader::read_all(&path).unwrap().records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], records[1]);
        assert_eq!(records[0], LogRecord::Batch { run: RunId(3), events });
    }

    #[test]
    fn metrics_count_frames_bytes_and_syncs() {
        let path = tmp("metrics");
        let metrics = WalMetrics::new();
        let mut w = WalWriter::open(&path).unwrap().with_metrics(metrics.clone());
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.append_batch(RunId(1), &[]).unwrap();
        w.sync().unwrap();
        assert_eq!(metrics.frames.get(), 4);
        assert_eq!(metrics.group_commits.get(), 1);
        assert_eq!(metrics.syncs.get(), 1);
        assert_eq!(metrics.sync_micros.count(), 1);
        assert_eq!(metrics.bytes_written.get(), std::fs::metadata(&path).unwrap().len());
        // A registry adopting the metrics sees the same totals.
        let registry = Registry::new();
        metrics.register(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal.frames"), 4);
        assert_eq!(snap.histograms["wal.sync_micros"].count, 1);
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing");
        let rec = WalReader::read_all(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.clean_len, 0);
        assert_eq!(rec.tail, TailState::Clean);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported_with_offset() {
        let path = tmp("torn");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // Chop the last 3 bytes: the final frame is torn.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records.len(), sample_records().len() - 1);
        assert_eq!(rec.tail, TailState::TornTail { offset: rec.clean_len });
    }

    #[test]
    fn corrupt_payload_stops_replay_at_damage() {
        let path = tmp("corrupt");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        // Flip a byte inside the SECOND frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload_at = 8 + first_len + 8;
        bytes[second_payload_at + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.clean_len, (8 + first_len) as u64);
        // Checksum damage is distinguished from clean truncation.
        assert_eq!(rec.tail, TailState::CorruptFrame { offset: (8 + first_len) as u64 });
    }

    #[test]
    fn absurd_length_field_is_corrupt_not_an_allocation() {
        let path = tmp("hugelen");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&LogRecord::FinishRun { run: RunId(1) }).unwrap();
        w.sync().unwrap();
        let clean = std::fs::metadata(&path).unwrap().len();
        // Append a frame header claiming a ~4 GiB payload.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"garbage").unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.tail, TailState::CorruptFrame { offset: clean });
    }

    #[test]
    fn open_truncated_resumes_after_damage() {
        let path = tmp("resume");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        // Corrupt the tail, recover, truncate, append a fresh record.
        let full = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(full - 1).unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert!(!rec.tail.is_clean());
        let mut w = WalWriter::open_truncated(&path, rec.clean_len).unwrap();
        w.append(&LogRecord::FinishRun { run: RunId(9) }).unwrap();
        w.sync().unwrap();
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2], LogRecord::FinishRun { run: RunId(9) });
        assert_eq!(rec.tail, TailState::Clean);
    }

    #[test]
    fn cursor_streams_frames_with_exact_offsets() {
        let path = tmp("cursor");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let total = std::fs::metadata(&path).unwrap().len();

        // Full sweep: frames are the exact on-disk bytes, offsets add up.
        let disk = std::fs::read(&path).unwrap();
        let mut cursor = WalCursor::open(&path).unwrap();
        let mut at = 0u64;
        let mut frames = 0;
        loop {
            let before = at;
            let frame = match cursor.next_frame().unwrap() {
                None => break,
                Some(frame) => frame.to_vec(),
            };
            assert_eq!(frame, &disk[before as usize..cursor.offset() as usize]);
            at = cursor.offset();
            frames += 1;
        }
        assert_eq!(frames, sample_records().len());
        assert_eq!(cursor.offset(), total);
        assert_eq!(cursor.tail(), TailState::Clean);

        // Resume mid-log: a cursor opened at a frame boundary sees exactly
        // the remaining records.
        let first_len = 8 + u32::from_le_bytes(disk[0..4].try_into().unwrap()) as u64;
        let mut cursor = WalCursor::open_at(&path, first_len).unwrap();
        let mut rest = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            rest.push(r);
        }
        assert_eq!(rest, sample_records()[1..]);
        assert_eq!(cursor.offset(), total);
    }

    #[test]
    fn cursor_reports_torn_and_corrupt_tails_like_recovery() {
        let path = tmp("cursor-tails");
        let mut w = WalWriter::open(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(full - 3).unwrap();

        let mut cursor = WalCursor::open(&path).unwrap();
        let mut n = 0;
        while cursor.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, sample_records().len() - 1);
        assert_eq!(cursor.tail(), TailState::TornTail { offset: cursor.offset() });
        // Once stopped, the cursor stays stopped.
        assert!(cursor.next_frame().unwrap().is_none());

        // A cursor over a shipped chunk (plain byte slice) detects a
        // flipped payload byte exactly like the on-disk scan.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        bytes[8 + first_len + 8 + 2] ^= 0xFF;
        let mut cursor = WalCursor::over(&bytes[..]);
        assert!(cursor.next_frame().unwrap().is_some());
        assert!(cursor.next_frame().unwrap().is_none());
        assert_eq!(cursor.tail(), TailState::CorruptFrame { offset: (8 + first_len) as u64 });
    }

    #[test]
    fn recovery_of_a_multi_mb_wal_holds_only_one_frame_in_memory() {
        let path = tmp("one-frame");
        let mut w = WalWriter::open(&path).unwrap();
        // ~3 MiB of small frames: a few hundred bytes each.
        let value = "x".repeat(256);
        let mut written = 0u64;
        let mut i = 0u64;
        while written < 3 * 1024 * 1024 {
            w.append(&LogRecord::Workflow {
                name: ProcessorName::from(format!("wf{i}")),
                json: value.clone(),
            })
            .unwrap();
            i += 1;
            written = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if i.is_multiple_of(512) {
                w.sync().unwrap();
            }
        }
        w.sync().unwrap();
        let total = std::fs::metadata(&path).unwrap().len();
        assert!(total >= 3 * 1024 * 1024);

        let mut cursor = WalCursor::open(&path).unwrap();
        let mut frames = 0u64;
        while cursor.next_record().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, i);
        assert_eq!(cursor.offset(), total);
        // The scan's buffer high-water mark is one (small) frame, not the
        // multi-MB file: recovery streams instead of buffering.
        assert!(
            cursor.peak_buf_bytes() < 16 * 1024,
            "peak buffer {} bytes should be one frame, file is {} bytes",
            cursor.peak_buf_bytes(),
            total
        );
    }
}
