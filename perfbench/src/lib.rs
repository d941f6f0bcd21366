//! # perfbench
//!
//! The served-lineage benchmark. It starts a real `prov-serve` daemon
//! in-process on 127.0.0.1, drives it with closed-loop clients (at most
//! two threads and two connections), checks every answer, and reports
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//! See `README.md` next to this crate for the workloads, the layers each
//! one exercises and bypasses, and how to run it.

pub mod daemon;
pub mod env;
pub mod ingest;
pub mod metrics;
pub mod plan;
pub mod query;
pub mod replay;
pub mod runner;
pub mod trace;
