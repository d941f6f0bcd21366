//! Replication torture: kill and re-sync followers at swept offsets of
//! the shipped WAL stream — mid-frame, mid-bootstrap, mid-resync — and
//! assert every survivor converges to a replica whose NI **and**
//! INDEXPROJ answers are bit-identical to the primary's, with
//! `repl.lag_frames` back at zero.
//!
//! Faults are injected with the store's own [`FaultPlan`] machinery,
//! wrapped around the follower's replication socket (`short_read` tears
//! the stream at an exact byte offset; `fail_read` errors the nth read),
//! and with hard kills (drop the follower, reopen, resume from the
//! recovered durable prefix). Two drivers share the oracle, mirroring
//! the crash/resume torture suites: a fixed offset sweep and a randomized
//! pass seeded from `CRASH_TORTURE_SEED` (printed, so failures replay).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prov_core::service::{self, Request};
use prov_engine::{Backoff, RetryPolicy};
use prov_obs::{Journal, JournalEvent, Obs, QueryCtx};
use prov_repl::{
    query_replica, Follower, FollowerConfig, PrimaryConfig, QueryRequest, ReplError, ReplServer,
};
use prov_store::FaultPlan;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

mod common;
use common::TempDir;

const CATCH_UP: Duration = Duration::from_secs(30);

fn queries() -> Vec<LineageQuery> {
    [(0u32, 0u32), (0, 1), (1, 0), (1, 1)]
        .into_iter()
        .map(|(i, j)| {
            LineageQuery::focused(
                PortRef::new("testbed", "product"),
                Index::from(vec![i, j]),
                [ProcessorName::from("LISTGEN_1")],
            )
        })
        .collect()
}

fn answers(
    df: &prov_dataflow::Dataflow,
    store: &TraceStore,
    runs: &[RunId],
) -> (Vec<LineageAnswer>, Vec<LineageAnswer>) {
    let ni: Vec<LineageAnswer> = queries()
        .iter()
        .flat_map(|q| NaiveLineage::new().run_multi(store, runs, q).unwrap())
        .collect();
    let ip: Vec<LineageAnswer> = queries()
        .iter()
        .flat_map(|q| IndexProj::new(df).run_multi(store, runs, q).unwrap())
        .collect();
    (ni, ip)
}

/// A primary with an ingested testbed workload and its reference answers.
struct Primary {
    df: prov_dataflow::Dataflow,
    store: Arc<TraceStore>,
    path: PathBuf,
    _dir: TempDir,
    runs: Vec<RunId>,
    ni: Vec<LineageAnswer>,
    ip: Vec<LineageAnswer>,
}

/// Builds a primary with `n_runs` testbed runs. With `snapshot_mid`, a
/// snapshot is taken after the first run, so the WAL leads with a marker
/// (fresh followers must bootstrap) and still has live tail frames.
fn primary(tag: &str, n_runs: usize, snapshot_mid: bool) -> Primary {
    let dir = TempDir::new(&format!("repl-{tag}"));
    let path = dir.db();
    let store = TraceStore::open(&path).unwrap();
    let df = testbed::generate(3);
    store.register_workflow(&ProcessorName::from("testbed"), serde_json::to_string(&df).unwrap());
    let mut runs: Vec<RunId> = vec![testbed::run(&df, 3, &store).run_id];
    if snapshot_mid {
        store.snapshot().unwrap();
    }
    runs.extend((1..n_runs).map(|_| testbed::run(&df, 3, &store).run_id));
    store.sync_wal().unwrap();
    store.durability().unwrap();
    let (ni, ip) = answers(&df, &store, &runs);
    Primary { df, store: Arc::new(store), path, _dir: dir, runs, ni, ip }
}

fn fast_config(fault: Option<FaultPlan>) -> FollowerConfig {
    FollowerConfig {
        backoff: RetryPolicy::attempts(u32::MAX).with_backoff(Backoff::Fixed { micros: 2_000 }),
        read_fault: fault,
        ..FollowerConfig::default()
    }
}

/// The oracle: a fresh follower under `fault` must heal (the fault hits
/// only its first session), drain the primary, and answer identically.
fn follower_case(p: &Primary, server: &ReplServer, tag: &str, fault: Option<FaultPlan>) {
    let fdir = TempDir::new(&format!("repl-{tag}-f"));
    let fdb = fdir.db();
    let journal = Journal::new(1 << 12);
    let follower = Follower::open(&fdb, journal).unwrap();
    let handle = follower.start(server.addr().to_string(), fast_config(fault));

    assert!(
        follower.wait_caught_up(CATCH_UP),
        "{tag}: follower never caught up; status {:?}",
        follower.status()
    );
    let status = follower.status();
    assert_eq!(status.lag_frames, 0, "{tag}: lag_frames");
    assert_eq!(status.lag_bytes, 0, "{tag}: lag_bytes");

    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &p.runs);
    assert_eq!(ni, p.ni, "{tag}: NI answers diverged");
    assert_eq!(ip, p.ip, "{tag}: INDEXPROJ answers diverged");

    follower.stop();
    let _ = handle.join();
}

#[test]
fn fixed_fault_offsets_heal_and_converge() {
    let p = primary("fixed", 2, false);
    let journal = Journal::new(1 << 14);
    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        journal.clone(),
        PrimaryConfig { chunk_bytes: 1024, poll_interval_ms: 5 },
    )
    .unwrap();

    // Byte offsets at which the stream is cut mid-flight: inside the
    // handshake, mid-frame, at chunk-ish boundaries, at and past the end.
    let total = std::fs::metadata(&p.path).unwrap().len();
    let offsets = [1, 7, 64, total / 4, total / 2, total - 1, total, total + 512];
    for (i, &off) in offsets.iter().enumerate() {
        follower_case(
            &p,
            &server,
            &format!("fixed-short-{i}-{off}"),
            Some(FaultPlan::short_read(off)),
        );
    }
    // Hard read errors at the nth socket read.
    for n in [1u64, 2, 5, 9] {
        follower_case(&p, &server, &format!("fixed-failread-{n}"), Some(FaultPlan::fail_read(n)));
    }
    // And a clean follower, for contrast.
    follower_case(&p, &server, "fixed-clean", None);

    assert!(
        journal.events().iter().any(|s| matches!(s.event, JournalEvent::ReplFrameShipped { .. })),
        "primary journal never recorded a shipped chunk"
    );
    server.shutdown();
}

#[test]
fn bootstrap_faults_mid_snapshot_heal() {
    // A compacting primary: the WAL leads with a snapshot marker, so a
    // fresh follower must bootstrap from the snapshot file.
    let p = primary("boot", 2, true);
    let report = prov_repl::verify_store(&p.path).unwrap();
    assert!(report.generation > 0, "workload too small to compact; no marker to bootstrap from");
    assert_eq!(report.marker_backed, Some(true));

    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        Journal::disabled(),
        PrimaryConfig { chunk_bytes: 1024, poll_interval_ms: 5 },
    )
    .unwrap();

    let snap = TraceStore::snapshot_file_for(&p.path, report.generation);
    let snap_len = std::fs::metadata(&snap).unwrap().len();
    // Cuts landing inside the bootstrap body (and just around it).
    let offsets = [1, 40, snap_len / 2, snap_len - 1, snap_len, snap_len + 16];
    for (i, &off) in offsets.iter().enumerate() {
        follower_case(
            &p,
            &server,
            &format!("boot-short-{i}-{off}"),
            Some(FaultPlan::short_read(off)),
        );
    }
    follower_case(&p, &server, "boot-clean", None);
    server.shutdown();
}

#[test]
fn killed_followers_resume_from_their_durable_prefix() {
    let p = primary("kill", 2, false);
    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        Journal::disabled(),
        PrimaryConfig { chunk_bytes: 256, poll_interval_ms: 2 },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let total = std::fs::metadata(&p.path).unwrap().len();

    for (i, threshold) in [total / 8, total / 4, total / 2, (total * 3) / 4].into_iter().enumerate()
    {
        let tag = format!("kill-{i}-{threshold}");
        let fdir = TempDir::new(&format!("repl-{tag}-f"));
        let fdb = fdir.db();

        // Phase 1: replicate until the local durable offset crosses the
        // threshold (or we're simply done), then kill the follower.
        {
            let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
            let handle = follower.start(addr.clone(), fast_config(None));
            let deadline = Instant::now() + CATCH_UP;
            while follower.status().offset < threshold && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            follower.stop();
            let _ = handle.join();
        }

        // Phase 2: reopen — recovery hands back the durable prefix — and
        // finish the sync. No bootstrap may occur: the prefix CRC must
        // prove the kept bytes, and only frames past them are shipped.
        let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
        let handle = follower.start(addr.clone(), fast_config(None));
        assert!(
            follower.wait_caught_up(CATCH_UP),
            "{tag}: follower never caught up after restart; status {:?}",
            follower.status()
        );
        let status = follower.status();
        assert_eq!(status.bootstraps, 0, "{tag}: restart must resume, not re-seed");
        assert_eq!(status.lag_frames, 0, "{tag}");

        let fstore = follower.store();
        let (ni, ip) = answers(&p.df, &fstore, &p.runs);
        assert_eq!(ni, p.ni, "{tag}: NI answers diverged");
        assert_eq!(ip, p.ip, "{tag}: INDEXPROJ answers diverged");

        // The strongest form of convergence: the follower's WAL is
        // byte-for-byte the primary's.
        let primary_bytes = std::fs::read(&p.path).unwrap();
        let follower_bytes = std::fs::read(&fdb).unwrap();
        assert_eq!(follower_bytes, primary_bytes, "{tag}: WALs are not byte-identical");

        follower.stop();
        let _ = handle.join();
    }
    server.shutdown();
}

/// Polls until the follower's durable frame count equals the primary's
/// current one (and lag is zero).
fn wait_converged(follower: &Follower, p: &Primary, tag: &str) {
    let deadline = Instant::now() + CATCH_UP;
    loop {
        let want = p.store.repl_position().durable_frames;
        let s = follower.status();
        if s.frames == want && s.lag_frames == 0 && s.heard_from_primary {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{tag}: follower stuck at {:?}, primary at {want} frames",
            follower.status()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn live_appends_checkpoints_and_snapshots_resync() {
    let p = primary("live", 1, false);
    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        Journal::disabled(),
        PrimaryConfig { chunk_bytes: 1024, poll_interval_ms: 2 },
    )
    .unwrap();

    let fdir = TempDir::new("repl-live-f");
    let fdb = fdir.db();
    let journal = Journal::new(1 << 12);
    let follower = Follower::open(&fdb, journal.clone()).unwrap();
    let handle = follower.start(server.addr().to_string(), fast_config(None));
    assert!(follower.wait_caught_up(CATCH_UP), "initial sync failed: {:?}", follower.status());

    // Live append: a new run lands while the follower is connected; it
    // must stream over without reconnecting.
    let mut runs = p.runs.clone();
    runs.push(testbed::run(&p.df, 3, &*p.store).run_id);
    p.store.sync_wal().unwrap();
    wait_converged(&follower, &p, "live-append");
    let (want_ni, want_ip) = answers(&p.df, &p.store, &runs);
    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &runs);
    assert_eq!(ni, want_ni, "live-append: NI diverged");
    assert_eq!(ip, want_ip, "live-append: INDEXPROJ diverged");
    drop(fstore);

    // Checkpoint: the primary rewrites its WAL whole (new lineage). The
    // streaming connection must notice, resync, and reconverge.
    p.store.checkpoint().unwrap();
    wait_converged(&follower, &p, "checkpoint");
    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &runs);
    assert_eq!(ni, want_ni, "checkpoint: NI diverged");
    assert_eq!(ip, want_ip, "checkpoint: INDEXPROJ diverged");
    assert!(follower.status().resyncs > 0, "checkpoint must force a resync");
    drop(fstore);

    // Snapshot: the WAL collapses to a marker; the follower's log is no
    // longer a prefix and must re-seed from the shipped snapshot file.
    p.store.snapshot().unwrap();
    wait_converged(&follower, &p, "snapshot");
    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &runs);
    assert_eq!(ni, want_ni, "snapshot: NI diverged");
    assert_eq!(ip, want_ip, "snapshot: INDEXPROJ diverged");
    assert!(follower.status().bootstraps > 0, "snapshot must force a bootstrap");
    assert!(
        journal.events().iter().any(|s| matches!(s.event, JournalEvent::FollowerResync { .. })),
        "follower journal never recorded a resync"
    );

    follower.stop();
    let _ = handle.join();
    drop(fstore);
    drop(follower);
    server.shutdown();
}

#[test]
fn replica_queries_render_identically_and_refuse_stale() {
    let p = primary("query", 2, false);
    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        Journal::disabled(),
        PrimaryConfig::default(),
    )
    .unwrap();
    let fdir = TempDir::new("repl-query-f");
    let fdb = fdir.db();
    let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
    let handle = follower.start(server.addr().to_string(), fast_config(None));
    assert!(follower.wait_caught_up(CATCH_UP));
    let qserver = follower.serve_queries("127.0.0.1:0").unwrap();
    let qaddr = qserver.addr().to_string();

    // Both algorithms, bounded at zero staleness: a caught-up replica of a
    // static primary answers, and renders byte-identically to the same
    // execution on the primary.
    for algo in ["ni", "indexproj"] {
        let req = QueryRequest {
            query: "lin(<testbed:product[0,1]>, {LISTGEN_1})".into(),
            run: 0,
            all_runs: true,
            algo: algo.into(),
            wf: None,
            max_lag_frames: Some(0),
        };
        let resp = query_replica(&qaddr, &req).unwrap();
        // The oracle: the shared query service on the primary's store.
        let on_primary =
            Request::from_wire(&req.query, req.run, req.all_runs, &req.algo, req.wf.clone())
                .unwrap();
        let expected = service::execute(
            &p.store,
            &on_primary,
            &Obs::disabled(),
            QueryCtx::new(req.query.clone()),
        )
        .unwrap()
        .rendered();
        assert_eq!(resp.answers, expected, "{algo}: replica rendering diverged");
        assert_eq!(resp.lag_frames, 0);
    }

    // A follower that has never reached any primary has unknown lag: any
    // bounded query gets the typed staleness refusal, however generous
    // the bound; an unbounded one is answered from local state.
    let lonely_dir = TempDir::new("repl-query-lonely");
    let lonely = Follower::open(lonely_dir.db(), Journal::disabled()).unwrap();
    let lonely_q = lonely.serve_queries("127.0.0.1:0").unwrap();
    let mut req = QueryRequest {
        query: "lin(<testbed:product[0,1]>, {LISTGEN_1})".into(),
        run: 0,
        all_runs: false,
        algo: "ni".into(),
        wf: None,
        max_lag_frames: Some(1_000_000),
    };
    match query_replica(&lonely_q.addr().to_string(), &req) {
        Err(ReplError::ReplicaStale { lag_frames, max_lag }) => {
            assert_eq!(lag_frames, u64::MAX);
            assert_eq!(max_lag, 1_000_000);
        }
        other => panic!("expected a typed staleness refusal, got {other:?}"),
    }
    req.max_lag_frames = None;
    let resp = query_replica(&lonely_q.addr().to_string(), &req).unwrap();
    assert!(resp.answers.iter().all(|a| a.contains("0 bindings") || !a.is_empty()));

    drop(lonely_q);
    drop(qserver);
    follower.stop();
    let _ = handle.join();
    drop(follower);
    drop(lonely);
    server.shutdown();
}

/// Splitmix64 — deterministic offsets for the seeded pass.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn seeded_fault_offsets_heal_and_converge() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("repl-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let p = primary("seed", 2, true);
    let mut server = ReplServer::spawn(
        Arc::clone(&p.store),
        "127.0.0.1:0",
        Journal::disabled(),
        PrimaryConfig { chunk_bytes: 512, poll_interval_ms: 2 },
    )
    .unwrap();
    let total = std::fs::metadata(&p.path).unwrap().len();
    let mut rng = Rng(seed);
    for case in 0..6 {
        let plan = if case % 2 == 0 {
            FaultPlan::short_read(rng.next() % (total + 128))
        } else {
            FaultPlan::fail_read(1 + rng.next() % 12)
        };
        follower_case(&p, &server, &format!("seed-{case}"), Some(plan));
    }
    server.shutdown();
}
