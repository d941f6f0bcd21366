//! # prov-repl
//!
//! Replicated lineage serving: WAL shipping from a primary
//! [`prov_store::TraceStore`] to follower stores that replay continuously
//! and answer read-only lineage queries.
//!
//! The design leans on two properties the store already guarantees:
//!
//! 1. **The WAL is the state.** Shipping the durable frame stream (plus a
//!    snapshot file when the log leads with a compaction marker) and
//!    re-framing the identical payload bytes on the follower yields a
//!    local log that is a *byte-for-byte prefix* of the primary's — so
//!    ordinary crash recovery doubles as follower restart, and a prefix
//!    CRC in the handshake detects divergence by content.
//! 2. **Answers are a function of the durable prefix.** A follower paused
//!    at any frame boundary answers exactly the lineage of the records it
//!    has — the same invariant the crash-recovery torture suites assert —
//!    so replica reads are stale-but-consistent, never wrong.
//!
//! Modules: [`protocol`] (wire format), [`primary`] (fan-out server),
//! [`follower`] (replay loop + replica query endpoint), [`verify`]
//! (offline WAL/snapshot integrity sweep).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod follower;
pub mod primary;
pub mod protocol;
pub mod verify;

pub use follower::{
    query_replica, status_path, Follower, FollowerConfig, ReplStatus, ReplicaQueryServer,
};
pub use primary::{snapshot_backs_marker, PrimaryConfig, ReplServer};
pub use protocol::{QueryError, QueryRequest, QueryResponse};
pub use verify::{verify_store, SnapshotVerdict, VerifyReport};

/// Typed replication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// A socket or file operation failed.
    Io(String),
    /// The peer violated the wire protocol.
    Protocol(String),
    /// The local store refused an operation.
    Store(String),
    /// A replica refused to answer beyond the requested staleness bound.
    ReplicaStale {
        /// Frames the replica lagged by (`u64::MAX`: lag unknown — the
        /// replica has not heard from its primary).
        lag_frames: u64,
        /// The bound the request imposed.
        max_lag: u64,
    },
    /// The replica returned a typed error other than staleness.
    Remote {
        /// Machine-matchable error class.
        code: String,
        /// Human-oriented detail.
        message: String,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(m) => write!(f, "replication i/o: {m}"),
            ReplError::Protocol(m) => write!(f, "replication protocol: {m}"),
            ReplError::Store(m) => write!(f, "replication store: {m}"),
            ReplError::ReplicaStale { lag_frames, max_lag } => {
                if *lag_frames == u64::MAX {
                    write!(
                        f,
                        "replica stale: lag unknown (no primary contact), bound {max_lag} frames"
                    )
                } else {
                    write!(f, "replica stale: lags {lag_frames} frames, bound {max_lag}")
                }
            }
            ReplError::Remote { code, message } => write!(f, "replica error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ReplError {}
