//! The daemon under test, started in-process exactly as `tprov serve`
//! starts it: the same store open, journal and `Obs` (metrics registry
//! on, span profiler off), default `ServeConfig`, bound on 127.0.0.1.

use std::path::Path;
use std::time::Instant;

use prov_obs::{Journal, Obs, Profiler, Registry};
use prov_serve::{DrainReport, ProvServer, ServeClient, ServeConfig};
use prov_store::SharedStore;

/// How long a starting client waits before connecting (see
/// [`Daemon::start`]).
const ACCEPT_SETTLE: std::time::Duration = std::time::Duration::from_micros(500);

/// A running daemon plus the handles the benchmark reads it through.
pub struct Daemon {
    server: ProvServer,
    /// The daemon's own store handle (answers are checked against it).
    pub store: SharedStore,
    /// The daemon's observability handles (registry and journal).
    pub obs: Obs,
    /// Where it listens.
    pub addr: String,
}

/// How long one start took.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `SharedStore::open` alone, in seconds.
    pub open_s: f64,
    /// From the open to the first PING answered, in seconds.
    pub setup_s: f64,
}

/// Monotonic daemon-side totals, read from its registry, journal and WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// `serve.queries`.
    pub queries: u64,
    /// `serve.ingest_batches`.
    pub ingest_batches: u64,
    /// `serve.backpressure_waits`.
    pub backpressure_waits: u64,
    /// `serve.request_timeouts`.
    pub request_timeouts: u64,
    /// `serve.conns_refused`.
    pub conns_refused: u64,
    /// Journal events ever recorded (held plus overwritten).
    pub journal_events: u64,
    /// Journal events overwritten before anyone read them.
    pub journal_dropped: u64,
    /// `wal.bytes_written`.
    pub wal_bytes: u64,
    /// `wal.syncs`.
    pub wal_syncs: u64,
}

impl Tally {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            queries: self.queries - earlier.queries,
            ingest_batches: self.ingest_batches - earlier.ingest_batches,
            backpressure_waits: self.backpressure_waits - earlier.backpressure_waits,
            request_timeouts: self.request_timeouts - earlier.request_timeouts,
            conns_refused: self.conns_refused - earlier.conns_refused,
            journal_events: self.journal_events - earlier.journal_events,
            journal_dropped: self.journal_dropped - earlier.journal_dropped,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
        }
    }

    /// The sum of two tallies (of different daemons).
    pub fn plus(&self, o: &Tally) -> Tally {
        Tally {
            queries: self.queries + o.queries,
            ingest_batches: self.ingest_batches + o.ingest_batches,
            backpressure_waits: self.backpressure_waits + o.backpressure_waits,
            request_timeouts: self.request_timeouts + o.request_timeouts,
            conns_refused: self.conns_refused + o.conns_refused,
            journal_events: self.journal_events + o.journal_events,
            journal_dropped: self.journal_dropped + o.journal_dropped,
            wal_bytes: self.wal_bytes + o.wal_bytes,
            wal_syncs: self.wal_syncs + o.wal_syncs,
        }
    }
}

impl Daemon {
    /// Opens `db` and serves it; set-up ends when the first PING is
    /// answered.
    pub fn start(db: &Path) -> Result<(Daemon, Setup), String> {
        let t0 = Instant::now();
        let store = SharedStore::open(db).map_err(|e| format!("open {}: {e}", db.display()))?;
        let open_s = t0.elapsed().as_secs_f64();
        let journal = Journal::from_env();
        store.attach_journal(&journal);
        let obs = Obs { metrics: Registry::new(), profiler: Profiler::disabled(), journal };
        let server =
            ProvServer::start(store.clone(), obs.clone(), ServeConfig::default(), "127.0.0.1:0")
                .map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr().to_string();
        // The client arrives once the accept loop is polling, as one that
        // connects to a running daemon does; it then waits out the loop's
        // poll interval (2 ms), which this pause stays well inside. If it
        // raced the loop's first accept instead, set-up would land in one
        // of two modes by chance.
        std::thread::sleep(ACCEPT_SETTLE);
        let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        drop(client);
        Ok((Daemon { server, store, obs, addr }, Setup { open_s, setup_s }))
    }

    /// The daemon's totals so far.
    pub fn tally(&self) -> Tally {
        let snap = self.obs.metrics.snapshot();
        let journal = &self.obs.journal;
        let wal = self.store.wal_metrics();
        Tally {
            queries: snap.counter("serve.queries"),
            ingest_batches: snap.counter("serve.ingest_batches"),
            backpressure_waits: snap.counter("serve.backpressure_waits"),
            request_timeouts: snap.counter("serve.request_timeouts"),
            conns_refused: snap.counter("serve.conns_refused"),
            journal_events: journal.events().len() as u64 + journal.dropped(),
            journal_dropped: journal.dropped(),
            wal_bytes: wal.bytes_written.get(),
            wal_syncs: wal.syncs.get(),
        }
    }

    /// The WAL fsync latency median (µs) over the daemon's lifetime.
    pub fn sync_p50_us(&self) -> u64 {
        self.store.wal_metrics().sync_micros.snapshot().p50
    }

    /// Drains as `tprov serve` does on SIGTERM (fsync, snapshot); a drain
    /// that had to force sessions closed is an error.
    pub fn shutdown(self) -> Result<(), String> {
        let report: DrainReport = self.server.shutdown();
        if report.forced {
            return Err(format!("drain forced with {} sessions open", report.active_at_exit));
        }
        Ok(())
    }
}
