//! The follower side: replay the primary's WAL continuously, serve
//! read-only lineage queries, survive kills and primary rewrites.
//!
//! A [`Follower`] owns a local [`TraceStore`] whose WAL is kept a
//! byte-for-byte prefix of the primary's: every shipped frame payload is
//! re-appended through [`TraceStore::apply_replicated`] (identical bytes →
//! identical frames) and fsynced per chunk, so a killed follower recovers
//! its durable prefix and resumes from exactly that offset. When the
//! handshake or a damaged chunk proves the local log is *not* a prefix
//! anymore, the follower wipes and re-seeds — either from a shipped
//! snapshot ([`protocol::TAG_BOOTSTRAP`]) or a from-zero replay.
//!
//! Staleness is tracked as `(primary durable frames) − (local durable
//! frames)` from the primary's heartbeats, persisted to a `<db>.repl.json`
//! sidecar (where `tprov metrics` picks up `repl.lag_frames` /
//! `repl.lag_bytes`), and enforced by the replica query endpoint: a
//! request with `max_lag_frames` beyond the current lag gets a typed
//! `replica_stale` refusal instead of a stale answer.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use prov_core::service::{self, Request};
use prov_engine::{Backoff, Clock, RetryPolicy, SystemClock};
use prov_obs::{Journal, JournalEvent, Obs, QueryCtx};
use prov_store::{FaultPlan, FaultReader, ReplPosition, TailState, TraceStore, WalCursor};

use crate::primary::prefix_crc;
use crate::protocol::{
    self, BootstrapHeader, Hello, QueryError, QueryRequest, QueryResponse, Resync, StreamFrom,
};
use crate::ReplError;

/// Where a follower of the store at `db` persists its replication status
/// (read back by `tprov metrics` for the `repl.*` gauges).
pub fn status_path(db: &Path) -> PathBuf {
    PathBuf::from(format!("{}.repl.json", db.display()))
}

/// Reconnection and fault-injection knobs for a follower.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Reconnect backoff schedule; attempts are 1-based and reset on every
    /// successful connect.
    pub backoff: RetryPolicy,
    /// Time source for the backoff sleeps (swap in a `VirtualClock` under
    /// test).
    pub clock: Arc<dyn Clock>,
    /// When set, the *first* established session's socket reads go
    /// through a [`FaultReader`] carrying this plan — the torture suite's
    /// way of tearing the stream mid-frame or mid-bootstrap. Later
    /// sessions run clean, so the follower is expected to heal.
    pub read_fault: Option<FaultPlan>,
    /// Heartbeat/idle window in milliseconds: a session that receives *no*
    /// frame of any kind (heartbeat, WAL chunk, resync...) for this long
    /// is declared stalled — the follower marks itself disconnected with
    /// unknown lag (so bounded queries refuse) and re-enters the
    /// reconnect backoff. `0` disables stall detection. Measured on
    /// [`FollowerConfig::clock`], so a `VirtualClock` drives it
    /// deterministically under test.
    pub idle_timeout_ms: u64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            backoff: RetryPolicy::attempts(u32::MAX)
                .with_backoff(Backoff::Exponential { base_micros: 50_000, max_micros: 2_000_000 })
                .with_jitter(0x0F01_10E5),
            clock: Arc::new(SystemClock),
            read_fault: None,
            idle_timeout_ms: 10_000,
        }
    }
}

/// A follower's replication state, serialized to the `<db>.repl.json`
/// sidecar after every status change.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplStatus {
    /// Local WAL lineage (leading snapshot marker generation, 0 if none).
    pub generation: u64,
    /// Local durable WAL length in bytes.
    pub offset: u64,
    /// Local durable WAL frame count.
    pub frames: u64,
    /// Primary's lineage per its last heartbeat.
    pub primary_generation: u64,
    /// Primary's durable length per its last heartbeat.
    pub primary_offset: u64,
    /// Primary's durable frame count per its last heartbeat.
    pub primary_frames: u64,
    /// `primary_frames − frames` (saturating).
    pub lag_frames: u64,
    /// `primary_offset − offset` (saturating).
    pub lag_bytes: u64,
    /// A replication session is currently established.
    pub connected: bool,
    /// At least one heartbeat has arrived since the follower started —
    /// until then lag is unknown, and a bounded query is refused.
    pub heard_from_primary: bool,
    /// Resync round-trips (lineage changes, damaged chunks).
    pub resyncs: u64,
    /// Connection attempts after the first.
    pub reconnects: u64,
    /// Snapshot bootstraps installed.
    pub bootstraps: u64,
}

/// Why a replication session ended (internal to the reconnect loop).
enum SessionEnd {
    /// [`Follower::stop`] was called.
    Stopped,
    /// Socket error / peer hung up — or the primary stalled past the
    /// heartbeat window: reconnect with backoff.
    Disconnected,
    /// Local log proven divergent: reconnect immediately, demanding a
    /// bootstrap.
    NeedBootstrap,
}

/// A replicating read replica of a remote primary.
pub struct Follower {
    db: PathBuf,
    store: RwLock<Arc<TraceStore>>,
    status: Mutex<ReplStatus>,
    status_file: PathBuf,
    stop: AtomicBool,
    current: Mutex<Option<TcpStream>>,
    journal: Journal,
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower").field("db", &self.db).finish()
    }
}

impl Follower {
    /// Opens (or creates) the local store at `db`. Normal WAL recovery
    /// runs first, so a killed follower restarts from its durable prefix.
    /// [`JournalEvent::FollowerResync`] events are recorded to `journal`.
    pub fn open(db: impl AsRef<Path>, journal: Journal) -> Result<Arc<Follower>, ReplError> {
        let db = db.as_ref().to_path_buf();
        let store = TraceStore::open(&db).map_err(|e| ReplError::Store(e.to_string()))?;
        let pos = store.repl_position();
        let status = ReplStatus {
            generation: pos.generation,
            offset: pos.durable_len,
            frames: pos.durable_frames,
            ..ReplStatus::default()
        };
        let status_file = status_path(&db);
        let follower = Arc::new(Follower {
            db,
            store: RwLock::new(Arc::new(store)),
            status: Mutex::new(status),
            status_file,
            stop: AtomicBool::new(false),
            current: Mutex::new(None),
            journal,
        });
        follower.write_sidecar();
        Ok(follower)
    }

    /// The local database path.
    pub fn db(&self) -> &Path {
        &self.db
    }

    /// The current store (swapped atomically on bootstrap; queries holding
    /// an older `Arc` finish against the pre-bootstrap state).
    pub fn store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.store.read())
    }

    /// A copy of the current replication status.
    pub fn status(&self) -> ReplStatus {
        self.status.lock().clone()
    }

    /// Starts the replication loop against `primary` (a `host:port`).
    pub fn start(
        self: &Arc<Self>,
        primary: impl Into<String>,
        config: FollowerConfig,
    ) -> JoinHandle<()> {
        let me = Arc::clone(self);
        let primary = primary.into();
        std::thread::spawn(move || me.run(&primary, &config))
    }

    /// Asks the replication loop to exit and unblocks any in-flight socket
    /// read.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(s) = self.current.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Blocks until the follower is connected, has heard a heartbeat, and
    /// lags the primary by zero frames — or `timeout` elapses. Returns
    /// whether it caught up.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.status();
            if s.connected && s.heard_from_primary && s.lag_frames == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn run(&self, primary: &str, config: &FollowerConfig) {
        let mut attempt: u32 = 0;
        let mut force_bootstrap = false;
        let mut fault = config.read_fault;
        while !self.stopped() {
            if let Ok(stream) = TcpStream::connect(primary) {
                attempt = 0;
                let end = self.session(stream, &mut force_bootstrap, fault.take(), config);
                *self.current.lock() = None;
                self.with_status(|s| s.connected = false);
                match end {
                    SessionEnd::Stopped => break,
                    SessionEnd::Disconnected => {
                        self.with_status(|s| s.reconnects += 1);
                    }
                    SessionEnd::NeedBootstrap => {
                        force_bootstrap = true;
                        self.with_status(|s| s.reconnects += 1);
                        continue; // no backoff: the primary is up, we just diverged
                    }
                }
            }
            if self.stopped() {
                break;
            }
            attempt = attempt.saturating_add(1);
            config.clock.sleep_micros(config.backoff.delay_micros(attempt, 0));
        }
        *self.current.lock() = None;
        self.with_status(|s| s.connected = false);
    }

    /// One connected session: hello, then apply whatever the primary sends
    /// until the socket dies, a resync bounces us back to hello, local
    /// divergence demands a bootstrap, or the primary stalls past the
    /// heartbeat window.
    fn session(
        &self,
        stream: TcpStream,
        force: &mut bool,
        fault: Option<FaultPlan>,
        config: &FollowerConfig,
    ) -> SessionEnd {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        *self.current.lock() = stream.try_clone().ok();
        let Ok(mut writer) = stream.try_clone() else { return SessionEnd::Disconnected };
        let mut reader: Box<dyn Read> = match fault {
            Some(plan) => Box::new(FaultReader::new(stream, plan)),
            None => Box::new(stream),
        };
        let idle_micros = config.idle_timeout_ms.saturating_mul(1000);
        let mut last_heard = config.clock.now_micros();

        'handshake: loop {
            if self.stopped() {
                return SessionEnd::Stopped;
            }
            let hello = self.make_hello(*force);
            if protocol::write_json(&mut writer, protocol::TAG_HELLO, &hello).is_err() {
                return SessionEnd::Disconnected;
            }
            loop {
                if self.stopped() {
                    return SessionEnd::Stopped;
                }
                let (tag, payload) = match protocol::read_msg(&mut reader) {
                    Ok(Some(msg)) => msg,
                    Ok(None) => return SessionEnd::Disconnected,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        // Stall detection: a primary that accepted us but
                        // has gone silent (wedged, partitioned) must not
                        // leave this replica claiming liveness — mark lag
                        // unknown and retry the connection under backoff.
                        if idle_micros > 0
                            && config.clock.now_micros().saturating_sub(last_heard) > idle_micros
                        {
                            self.with_status(|s| {
                                s.connected = false;
                                s.heard_from_primary = false;
                            });
                            return SessionEnd::Disconnected;
                        }
                        continue;
                    }
                    Err(_) => return SessionEnd::Disconnected,
                };
                last_heard = config.clock.now_micros();
                match tag {
                    protocol::TAG_STREAM_FROM => {
                        let Ok(sf) = protocol::decode::<StreamFrom>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        let local = self.store().repl_position().durable_len;
                        if sf.offset == 0 && local > 0 {
                            // Full replay of a marker-less log: wipe first.
                            if self.reset_local("from-zero replay").is_err() {
                                return SessionEnd::Disconnected;
                            }
                        } else if sf.offset != 0 && sf.offset != local {
                            // The primary agreed to an offset we don't
                            // have — protocol anomaly; demand a re-seed.
                            self.note_resync(sf.generation, local, "offset anomaly");
                            return SessionEnd::NeedBootstrap;
                        }
                        *force = false;
                        self.with_status(|s| {
                            s.generation = sf.generation;
                            s.connected = true;
                        });
                    }
                    protocol::TAG_FRAMES => {
                        if let Err(reason) = self.apply_chunk(&payload) {
                            let pos = self.store().repl_position();
                            self.note_resync(pos.generation, pos.durable_len, &reason);
                            return SessionEnd::NeedBootstrap;
                        }
                        self.refresh_local();
                    }
                    protocol::TAG_HEARTBEAT => {
                        let Ok(pos) = protocol::decode::<ReplPosition>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        self.with_status(|s| {
                            s.heard_from_primary = true;
                            s.connected = true;
                            s.primary_generation = pos.generation;
                            s.primary_offset = pos.durable_len;
                            s.primary_frames = pos.durable_frames;
                        });
                    }
                    protocol::TAG_BOOTSTRAP => {
                        let Ok(header) = protocol::decode::<BootstrapHeader>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        if self.install_snapshot(&mut reader, header).is_err() {
                            return SessionEnd::Disconnected;
                        }
                        *force = false;
                        continue 'handshake;
                    }
                    protocol::TAG_RESYNC => {
                        let reason = protocol::decode::<Resync>(&payload)
                            .map(|r| r.reason)
                            .unwrap_or_else(|_| "resync".into());
                        let pos = self.store().repl_position();
                        self.note_resync(pos.generation, pos.durable_len, &reason);
                        continue 'handshake;
                    }
                    _ => return SessionEnd::Disconnected,
                }
            }
        }
    }

    /// The follower's handshake offer: its durable position plus the
    /// CRC-32 of its entire durable WAL prefix (the primary verifies the
    /// prefix by content, not position — see the protocol module docs).
    fn make_hello(&self, force: bool) -> Hello {
        let pos = self.store().repl_position();
        let prefix_crc = prefix_crc(&self.db, pos.durable_len).unwrap_or(0);
        Hello {
            generation: pos.generation,
            offset: pos.durable_len,
            frames: pos.durable_frames,
            prefix_crc,
            force_bootstrap: force,
        }
    }

    /// Re-frames and applies every WAL frame in `chunk`, then fsyncs. Any
    /// damage (CRC, torn frame, undecodable payload, local WAL poisoning)
    /// is an error — grounds for re-seed.
    fn apply_chunk(&self, chunk: &[u8]) -> Result<(), String> {
        let store = self.store();
        let data: &[u8] = chunk;
        let mut cursor = WalCursor::over(data);
        loop {
            match cursor.next_frame() {
                Ok(Some(_)) => {
                    store.apply_replicated(cursor.payload()).map_err(|e| e.to_string())?;
                }
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        if cursor.tail() != TailState::Clean {
            return Err(format!("chunk damaged in flight: {:?}", cursor.tail()));
        }
        store.sync_wal().map_err(|e| e.to_string())
    }

    /// Reads the raw snapshot body off the wire into a scratch file, then
    /// wipes the local WAL + snapshots, installs the shipped file, and
    /// reopens the store (recovery loads the snapshot and rewrites the
    /// leading marker byte-identically to the primary's).
    fn install_snapshot(
        &self,
        reader: &mut dyn Read,
        header: BootstrapHeader,
    ) -> Result<(), ReplError> {
        let body = protocol::read_raw(reader, header.len)
            .map_err(|e| ReplError::Io(format!("bootstrap body: {e}")))?;
        let tmp = PathBuf::from(format!("{}.bootstrap.tmp", self.db.display()));
        std::fs::write(&tmp, &body).map_err(|e| ReplError::Io(e.to_string()))?;

        let mut guard = self.store.write();
        let _ = std::fs::remove_file(&self.db);
        for snap in TraceStore::snapshot_files(&self.db) {
            let _ = std::fs::remove_file(snap);
        }
        let target = TraceStore::snapshot_file_for(&self.db, header.generation);
        std::fs::rename(&tmp, &target).map_err(|e| ReplError::Io(e.to_string()))?;
        let store = TraceStore::open(&self.db).map_err(|e| ReplError::Store(e.to_string()))?;
        let pos = store.repl_position();
        *guard = Arc::new(store);
        drop(guard);

        self.with_status(|s| s.bootstraps += 1);
        self.refresh_local();
        self.journal.record(JournalEvent::FollowerResync {
            generation: header.generation,
            offset: pos.durable_len,
            reason: "snapshot bootstrap".into(),
        });
        Ok(())
    }

    /// Wipes the local WAL and snapshots and reopens empty — the prelude
    /// to a from-zero replay of a marker-less primary log.
    fn reset_local(&self, reason: &str) -> Result<(), ReplError> {
        let mut guard = self.store.write();
        let _ = std::fs::remove_file(&self.db);
        for snap in TraceStore::snapshot_files(&self.db) {
            let _ = std::fs::remove_file(snap);
        }
        let store = TraceStore::open(&self.db).map_err(|e| ReplError::Store(e.to_string()))?;
        *guard = Arc::new(store);
        drop(guard);
        self.refresh_local();
        self.journal.record(JournalEvent::FollowerResync {
            generation: 0,
            offset: 0,
            reason: reason.into(),
        });
        Ok(())
    }

    /// Pulls the local durable position into the status (and sidecar).
    fn refresh_local(&self) {
        let pos = self.store().repl_position();
        self.with_status(|s| {
            s.generation = pos.generation;
            s.offset = pos.durable_len;
            s.frames = pos.durable_frames;
        });
    }

    /// Counts a resync and records the journal event.
    fn note_resync(&self, generation: u64, offset: u64, reason: &str) {
        self.with_status(|s| s.resyncs += 1);
        self.journal.record(JournalEvent::FollowerResync {
            generation,
            offset,
            reason: reason.into(),
        });
    }

    /// Mutates the status under its lock, recomputes lag, persists the
    /// sidecar. Lag is only meaningful once a heartbeat has been heard —
    /// before that (and again after a stall resets `heard_from_primary`)
    /// it is reported as the unknown sentinel `u64::MAX`, matching the
    /// staleness gate's treatment of bounded queries.
    fn with_status(&self, f: impl FnOnce(&mut ReplStatus)) {
        {
            let mut s = self.status.lock();
            f(&mut s);
            if s.heard_from_primary {
                s.lag_frames = s.primary_frames.saturating_sub(s.frames);
                s.lag_bytes = s.primary_offset.saturating_sub(s.offset);
            } else {
                s.lag_frames = u64::MAX;
                s.lag_bytes = u64::MAX;
            }
        }
        self.write_sidecar();
    }

    /// Atomically rewrites `<db>.repl.json` with the current status.
    fn write_sidecar(&self) {
        let status = self.status.lock().clone();
        let Ok(json) = serde_json::to_string(&status) else { return };
        let tmp = PathBuf::from(format!("{}.tmp", self.status_file.display()));
        if std::fs::write(&tmp, json.as_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &self.status_file);
        }
    }

    /// Binds `listen` and serves replica queries ([`protocol::TAG_QUERY`])
    /// against the follower's store until the handle is dropped.
    pub fn serve_queries(self: &Arc<Self>, listen: &str) -> Result<ReplicaQueryServer, ReplError> {
        let listener =
            TcpListener::bind(listen).map_err(|e| ReplError::Io(format!("bind {listen}: {e}")))?;
        let addr = listener.local_addr().map_err(|e| ReplError::Io(e.to_string()))?;
        listener.set_nonblocking(true).map_err(|e| ReplError::Io(e.to_string()))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let me = Arc::clone(self);
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let me = Arc::clone(&me);
                        let flag = Arc::clone(&flag);
                        std::thread::spawn(move || handle_query_conn(&me, stream, &flag));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(ReplicaQueryServer { addr, shutdown, handle: Some(handle) })
    }
}

/// A running replica query listener; dropping it shuts it down.
pub struct ReplicaQueryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaQueryServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ReplicaQueryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_query_conn(follower: &Follower, mut stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let (tag, payload) = match protocol::read_msg(&mut stream) {
            Ok(Some(msg)) => msg,
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        if tag != protocol::TAG_QUERY {
            return;
        }
        let Ok(req) = protocol::decode::<QueryRequest>(&payload) else { return };
        let status = follower.status();
        if let Some(err) = staleness_check(&status, req.max_lag_frames) {
            let _ = protocol::write_json(&mut stream, protocol::TAG_QUERY_ERR, &err);
            continue;
        }
        // Workflow registrations travel through the WAL, so a caught-up
        // replica plans INDEXPROJ against the same spec as the primary.
        let store = follower.store();
        let obs = Obs::disabled().with_journal(follower.journal.clone());
        let answered =
            Request::from_wire(&req.query, req.run, req.all_runs, &req.algo, req.wf.clone())
                .and_then(|request| {
                    service::execute(&store, &request, &obs, QueryCtx::new(req.query.clone()))
                });
        match answered {
            Ok(resp) => {
                let resp = QueryResponse {
                    answers: resp.rendered(),
                    lag_frames: status.lag_frames,
                    lag_bytes: status.lag_bytes,
                    generation: status.generation,
                    offset: status.offset,
                };
                if protocol::write_json(&mut stream, protocol::TAG_QUERY_OK, &resp).is_err() {
                    return;
                }
            }
            Err(e) => {
                let err = QueryError {
                    code: "query_failed".into(),
                    message: e.to_string(),
                    lag_frames: None,
                    max_lag: None,
                };
                if protocol::write_json(&mut stream, protocol::TAG_QUERY_ERR, &err).is_err() {
                    return;
                }
            }
        }
    }
}

/// The staleness gate: a request bounded by `max_lag_frames` is refused
/// (typed `replica_stale`) when the replica's lag exceeds the bound — and
/// a replica that has never heard a heartbeat treats its lag as unknown,
/// i.e. unbounded, so a bounded request is always refused until primary
/// contact. Unbounded requests (`None`) are never refused.
pub(crate) fn staleness_check(
    status: &ReplStatus,
    max_lag_frames: Option<u64>,
) -> Option<QueryError> {
    let max = max_lag_frames?;
    let known = status.heard_from_primary;
    let lag = if known { status.lag_frames } else { u64::MAX };
    if lag <= max {
        return None;
    }
    let message = if known {
        format!("replica lags the primary by {lag} frames (bound: {max})")
    } else {
        format!("replica has not heard from the primary; lag unknown (bound: {max})")
    };
    Some(QueryError {
        code: "replica_stale".into(),
        message,
        lag_frames: Some(lag),
        max_lag: Some(max),
    })
}

/// Connects to a replica query endpoint, runs one request, returns the
/// typed result. A `replica_stale` refusal surfaces as
/// [`ReplError::ReplicaStale`].
pub fn query_replica(addr: &str, req: &QueryRequest) -> Result<QueryResponse, ReplError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| ReplError::Io(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    protocol::write_json(&mut stream, protocol::TAG_QUERY, req)
        .map_err(|e| ReplError::Io(e.to_string()))?;
    let (tag, payload) = match protocol::read_msg(&mut stream) {
        Ok(Some(msg)) => msg,
        Ok(None) => return Err(ReplError::Io("replica closed the connection".into())),
        Err(e) => return Err(ReplError::Io(e.to_string())),
    };
    match tag {
        protocol::TAG_QUERY_OK => {
            protocol::decode(&payload).map_err(|e| ReplError::Protocol(e.to_string()))
        }
        protocol::TAG_QUERY_ERR => {
            let err: QueryError =
                protocol::decode(&payload).map_err(|e| ReplError::Protocol(e.to_string()))?;
            if err.code == "replica_stale" {
                Err(ReplError::ReplicaStale {
                    lag_frames: err.lag_frames.unwrap_or(u64::MAX),
                    max_lag: err.max_lag.unwrap_or(0),
                })
            } else {
                Err(ReplError::Remote { code: err.code, message: err.message })
            }
        }
        other => Err(ReplError::Protocol(format!("unexpected reply tag {other:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(heard: bool, lag: u64) -> ReplStatus {
        ReplStatus { heard_from_primary: heard, lag_frames: lag, ..ReplStatus::default() }
    }

    #[test]
    fn unbounded_queries_are_never_refused() {
        assert!(staleness_check(&status(false, 0), None).is_none());
        assert!(staleness_check(&status(true, 1_000_000), None).is_none());
    }

    #[test]
    fn bounded_queries_refuse_beyond_the_lag_bound() {
        assert!(staleness_check(&status(true, 3), Some(3)).is_none());
        let err = staleness_check(&status(true, 4), Some(3)).unwrap();
        assert_eq!(err.code, "replica_stale");
        assert_eq!(err.lag_frames, Some(4));
        assert_eq!(err.max_lag, Some(3));
    }

    #[test]
    fn unknown_lag_refuses_any_bounded_query() {
        // Never heard a heartbeat: even a generous bound is refused, and
        // the reported lag is the unknown sentinel.
        let err = staleness_check(&status(false, 0), Some(1_000_000)).unwrap();
        assert_eq!(err.code, "replica_stale");
        assert_eq!(err.lag_frames, Some(u64::MAX));
    }

    #[test]
    fn zero_lag_satisfies_a_zero_bound() {
        assert!(staleness_check(&status(true, 0), Some(0)).is_none());
    }

    #[test]
    fn a_stalled_primary_trips_the_heartbeat_window() {
        use prov_engine::VirtualClock;
        use std::sync::atomic::AtomicBool;

        // A "primary" that accepts connections and then goes silent —
        // never a STREAM_FROM, never a heartbeat.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop_hold = Arc::new(AtomicBool::new(false));
        let hold_flag = Arc::clone(&stop_hold);
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            while !hold_flag.load(Ordering::Relaxed) {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let db = std::env::temp_dir().join(format!("stalled_primary_{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let follower = Follower::open(&db, Journal::disabled()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let config = FollowerConfig {
            idle_timeout_ms: 50,
            clock: clock.clone(),
            ..FollowerConfig::default()
        };
        let handle = follower.start(&addr, config);

        // Wait for the session to establish (hello written, reader idle).
        std::thread::sleep(Duration::from_millis(100));
        // Advance the injected clock past the heartbeat window: the next
        // poll tick must declare the primary stalled.
        clock.sleep_micros(60 * 1000);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = follower.status();
            if s.reconnects >= 1 {
                assert!(!s.heard_from_primary, "stall must reset heard_from_primary");
                assert_eq!(s.lag_frames, u64::MAX, "stalled lag is the unknown sentinel");
                break;
            }
            assert!(Instant::now() < deadline, "stall was never detected: {s:?}");
            std::thread::sleep(Duration::from_millis(5));
        }

        follower.stop();
        let _ = handle.join();
        stop_hold.store(true, Ordering::Relaxed);
        let _ = hold.join();
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(status_path(&db));
    }
}
