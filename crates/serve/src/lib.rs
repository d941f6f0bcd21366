//! # prov-serve
//!
//! A long-running provenance daemon: one durable [`prov_store`] instance
//! served over TCP to concurrent ingest streams (workflow engines pushing
//! trace events) and concurrent lineage/impact queries, speaking the
//! length-prefixed frame dialect of [`prov_wire`] on its own tag space.
//!
//! The paper's setting is a provenance *service*: many workflow runs feed
//! one store while analysts query lineage against it. This crate supplies
//! the robustness surface that setting needs —
//!
//! * **admission control**: a connection-limit semaphore with a typed
//!   `busy` refusal instead of unbounded accept queues;
//! * **per-request deadlines**: driven by the engine's injectable
//!   [`Clock`](prov_engine::Clock), propagated into
//!   [`QueryCtx`](prov_obs::QueryCtx) so a timed-out query aborts between
//!   plan steps with a typed `timeout` error;
//! * **ingest backpressure**: bounded per-session queues feeding the WAL
//!   group-commit path — a slow fsync becomes a slow client, counted in
//!   `serve.backpressure_waits`, never an unbounded buffer;
//! * **durability acks**: a batch is acknowledged only after its WAL
//!   group commit, so every acked batch survives any crash;
//! * **idle reaping** and a **graceful drain** (SIGTERM/ctrl-c/remote
//!   shutdown): stop accepting, let sessions finish and ack queued
//!   ingest, fsync, snapshot, exit cleanly.

#![warn(missing_docs)]
#![deny(unsafe_code)] // deny, not forbid: `signal` opts a single FFI shim back in
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod client;
pub mod protocol;
mod server;
pub mod signal;

pub use client::{RemoteSink, ServeClient, DEFAULT_BATCH_EVENTS, DEFAULT_PIPELINE_DEPTH};
pub use server::{DrainReport, ProvServer, ServeConfig};

/// Client-visible failure of a serve-protocol interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A socket-level failure.
    Io(String),
    /// The peer violated the protocol (wrong tag, undecodable payload).
    Protocol(String),
    /// The daemon refused the connection at its connection limit.
    Busy {
        /// Sessions active at refusal time.
        active: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The request's deadline passed on the server.
    Timeout {
        /// Server-rendered detail (names the query).
        message: String,
    },
    /// The daemon is draining and refused new work.
    ShuttingDown,
    /// Any other typed server error (`query_failed`, `bad_request`, ...).
    Remote {
        /// The machine-matchable code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "serve io error: {m}"),
            ServeError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ServeError::Busy { active, limit } => {
                write!(f, "server busy: {active} active sessions (limit {limit})")
            }
            ServeError::Timeout { message } => write!(f, "server timeout: {message}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use prov_engine::{Clock, SystemClock, VirtualClock};
    use prov_obs::Obs;
    use prov_store::{SharedStore, TraceStore};

    fn start_server(cfg: ServeConfig) -> (ProvServer, String) {
        let store = SharedStore::new(TraceStore::in_memory());
        let server = ProvServer::start(store, Obs::enabled(), cfg, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        (server, addr)
    }

    #[test]
    fn ping_round_trips_and_reports_occupancy() {
        let (server, addr) = start_server(ServeConfig::default());
        let mut client = ServeClient::connect(&addr).unwrap();
        let pong = client.ping().unwrap();
        assert!(!pong.draining);
        assert_eq!(pong.active, 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_limit_get_a_typed_busy() {
        let cfg = ServeConfig { max_connections: 1, ..ServeConfig::default() };
        let (server, addr) = start_server(cfg);
        let _held = ServeClient::connect(&addr).unwrap();
        // Admission is a CAS against the live count, so the second
        // connection must be refused with the typed occupancy error.
        let err = ServeClient::connect(&addr).unwrap_err();
        match err {
            ServeError::Busy { active, limit } => {
                assert_eq!(active, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(_held);
        server.shutdown();
    }

    #[test]
    fn remote_shutdown_drains_and_refuses_new_work() {
        let (server, addr) = start_server(ServeConfig::default());
        let mut client = ServeClient::connect(&addr).unwrap();
        let pong = client.shutdown().unwrap();
        assert!(pong.draining);
        let report = server.shutdown();
        assert!(!report.forced, "sessions should drain cleanly: {report:?}");
    }

    #[test]
    fn idle_sessions_are_reaped_on_the_injected_clock() {
        let clock = Arc::new(VirtualClock::new());
        let cfg = ServeConfig {
            idle_timeout_ms: 50,
            clock: clock.clone() as Arc<dyn Clock>,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(cfg);
        let client = ServeClient::connect(&addr).unwrap();
        while server.active() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Advance the virtual clock past the idle window; the session's
        // next poll tick must reap the connection.
        clock.sleep_micros(60 * 1000);
        let started = std::time::Instant::now();
        while server.active() > 0 && started.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.active(), 0, "idle session was not reaped");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn system_clock_is_the_default() {
        // Guards the Default impl against losing its real-time clock.
        let cfg = ServeConfig::default();
        let before = SystemClock.now_micros();
        assert!(cfg.clock.now_micros() >= before);
    }
}
