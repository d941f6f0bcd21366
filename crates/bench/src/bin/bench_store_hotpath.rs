//! **Store hot path** — before/after measurement of the trace-store
//! overhaul: symbol interning + packed index keys, batched ingest with WAL
//! group-commit, and multi-run plan execution.
//!
//! The *before* side is an in-binary replica of the seed store's layout —
//! `BTreeMap` secondary indexes keyed by `(run, ProcessorName, Arc<str>,
//! Index)` string tuples, one lock acquisition and one CRC-framed,
//! flushed WAL record **per event**, and a fresh `Arc::from(port)` +
//! `Index` clone allocated per probe — exercised on exactly the same
//! Fig. 9 testbed event stream as the real (new) [`TraceStore`]. The
//! *after* side is the live store: interned symbols, packed `u128` index
//! keys, per-invocation `record_batch` ingest with one WAL frame and one
//! flush per batch, and span-served run scans.
//!
//! Output: a table on stdout plus `BENCH_store_hotpath.json` at the
//! workspace root with throughputs, latencies and speedup ratios, tagged
//! with the machine's core count, the git commit and the mode. `--quick`
//! shrinks the workload for CI smoke runs.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;

use prov_bench::{best_of, cell, cell_ms, ms, quick_mode, Table};
use prov_core::{IndexProj, NaiveLineage, PlanCache};
use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{Index, ProcessorName, RunId, Value, ValueId};
use prov_store::{LogRecord, PortDirection, TraceStore, XferRecord, XformPortRecord, XformRecord};
use prov_workgen::testbed;

/// A sink that captures the engine's natural ingest batches (one per
/// invocation / scope-output flush), so both stores replay the identical
/// stream with identical batch boundaries.
#[derive(Default)]
struct BatchCapture {
    next: Mutex<u64>,
    batches: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TraceSink for BatchCapture {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        let mut next = self.next.lock().expect("lock");
        let id = RunId(*next);
        *next += 1;
        id
    }
    fn record_xform(&self, _run: RunId, event: XformEvent) {
        self.batches.lock().expect("lock").push(vec![TraceEvent::Xform(event)]);
    }
    fn record_xfer(&self, _run: RunId, event: XferEvent) {
        self.batches.lock().expect("lock").push(vec![TraceEvent::Xfer(event)]);
    }
    fn record_batch(&self, _run: RunId, events: Vec<TraceEvent>) {
        self.batches.lock().expect("lock").push(events);
    }
    fn finish_run(&self, _run: RunId) {}
}

/// The seed store's composite key: string-tuple ordered, one heap `Index`
/// and one `Arc<str>` materialised per probe.
type LegacyKey = (RunId, ProcessorName, Arc<str>, Index);

#[derive(Clone, Copy, PartialEq)]
enum LegacyRowRef {
    Xform(u64),
    Xfer(u64),
}

#[derive(Default)]
struct LegacyValues {
    by_value: HashMap<Value, ValueId>,
    by_id: Vec<Value>,
}

impl LegacyValues {
    fn intern(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.by_value.get(value) {
            return id;
        }
        let id = ValueId(self.by_id.len() as u64);
        self.by_id.push(value.clone());
        self.by_value.insert(value.clone(), id);
        id
    }
}

#[derive(Default)]
struct LegacyInner {
    values: LegacyValues,
    xforms: Vec<XformRecord>,
    xfers: Vec<XferRecord>,
    xform_in: BTreeMap<LegacyKey, Vec<u64>>,
    xform_out: BTreeMap<LegacyKey, Vec<u64>>,
    xfer_dst: BTreeMap<LegacyKey, Vec<u64>>,
    xfer_src: BTreeMap<LegacyKey, Vec<u64>>,
    by_value: HashMap<ValueId, Vec<LegacyRowRef>>,
    counts: HashMap<RunId, (u64, u64)>,
}

impl LegacyInner {
    fn index_value(&mut self, value: ValueId, row: LegacyRowRef) {
        let rows = self.by_value.entry(value).or_default();
        if rows.last() != Some(&row) {
            rows.push(row);
        }
    }

    fn insert_xform(&mut self, run: RunId, event: &XformEvent) {
        let id = self.xforms.len() as u64;
        let mut ports = Vec::with_capacity(event.inputs.len() + event.outputs.len());
        for b in &event.inputs {
            let value = self.values.intern(&b.value);
            self.index_value(value, LegacyRowRef::Xform(id));
            ports.push(XformPortRecord {
                direction: PortDirection::In,
                port: b.port.clone(),
                index: b.index.clone(),
                value,
            });
            let key = (run, event.processor.clone(), b.port.clone(), b.index.clone());
            self.xform_in.entry(key).or_default().push(id);
        }
        for b in &event.outputs {
            let value = self.values.intern(&b.value);
            self.index_value(value, LegacyRowRef::Xform(id));
            ports.push(XformPortRecord {
                direction: PortDirection::Out,
                port: b.port.clone(),
                index: b.index.clone(),
                value,
            });
            let key = (run, event.processor.clone(), b.port.clone(), b.index.clone());
            self.xform_out.entry(key).or_default().push(id);
        }
        self.xforms.push(XformRecord {
            id,
            run,
            processor: event.processor.clone(),
            invocation: event.invocation,
            ports,
        });
        self.counts.entry(run).or_default().0 += 1;
    }

    fn insert_xfer(&mut self, run: RunId, event: &XferEvent) {
        let id = self.xfers.len() as u64;
        let value = self.values.intern(&event.value);
        self.index_value(value, LegacyRowRef::Xfer(id));
        let dst =
            (run, event.dst.processor.clone(), event.dst.port.clone(), event.dst_index.clone());
        self.xfer_dst.entry(dst).or_default().push(id);
        let src =
            (run, event.src.processor.clone(), event.src.port.clone(), event.src_index.clone());
        self.xfer_src.entry(src).or_default().push(id);
        self.xfers.push(XferRecord {
            id,
            run,
            src_processor: event.src.processor.clone(),
            src_port: event.src.port.clone(),
            src_index: event.src_index.clone(),
            dst_processor: event.dst.processor.clone(),
            dst_port: event.dst.port.clone(),
            dst_index: event.dst_index.clone(),
            value,
        });
        self.counts.entry(run).or_default().1 += 1;
    }
}

fn dedup_ids(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The seed's byte-at-a-time CRC-32 table, frozen here so later
/// optimisation of the live `crc32` cannot leak into the baseline.
const LEGACY_CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

fn legacy_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ LEGACY_CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The seed's WAL writer, frozen: one tree-model JSON serialisation, one
/// byte-at-a-time CRC and one `len`/`crc` LE frame per record, buffered
/// (no flush per append) exactly as the seed `WalWriter` was.
struct LegacyWal {
    out: std::io::BufWriter<std::fs::File>,
}

impl LegacyWal {
    fn open(path: &std::path::Path) -> Self {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open legacy wal");
        LegacyWal { out: std::io::BufWriter::new(file) }
    }

    fn append(&mut self, record: &LogRecord) {
        use std::io::Write;
        let payload = serde_json::to_vec(record).expect("encode legacy record");
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&legacy_crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.out.write_all(&frame).expect("write legacy frame");
    }
}

/// Replica of the pre-overhaul store: per-event locking, string-keyed
/// B-trees with a fresh `Arc<str>` + `Index` allocated per probe, and
/// (when durable) one framed-and-flushed WAL record per event — the
/// baseline the overhaul is measured against. Ingest and probe structure
/// mirror the seed `TraceStore` line for line (value interning, value
/// index, overlap probes, access counters); only the layout differs.
struct LegacyStore {
    inner: Mutex<LegacyInner>,
    wal: Option<Mutex<LegacyWal>>,
    lookups: AtomicU64,
    records: AtomicU64,
}

impl LegacyStore {
    fn in_memory() -> Self {
        LegacyStore {
            inner: Mutex::new(LegacyInner::default()),
            wal: None,
            lookups: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    fn durable(path: &std::path::Path) -> Self {
        let _ = std::fs::remove_file(path);
        LegacyStore { wal: Some(Mutex::new(LegacyWal::open(path))), ..LegacyStore::in_memory() }
    }

    fn record(&self, run: RunId, event: &TraceEvent) {
        if let Some(w) = &self.wal {
            let rec = match event {
                TraceEvent::Xform(e) => LogRecord::Xform { run, event: e.clone() },
                TraceEvent::Xfer(e) => LogRecord::Xfer { run, event: e.clone() },
            };
            w.lock().expect("lock").append(&rec);
        }
        let mut inner = self.inner.lock().expect("lock");
        match event {
            TraceEvent::Xform(e) => inner.insert_xform(run, e),
            TraceEvent::Xfer(e) => inner.insert_xfer(run, e),
        }
    }

    /// The seed's `get_exact`: a fresh `Arc<str>` and `Index` clone per
    /// call, then string-tuple B-tree comparisons.
    fn get_exact(
        &self,
        inner: &LegacyInner,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<u64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key: LegacyKey = (run, processor.clone(), Arc::from(port), index.clone());
        let rows = inner.xform_out.get(&key).cloned().unwrap_or_default();
        self.records.fetch_add(rows.len() as u64, Ordering::Relaxed);
        rows
    }

    /// The seed's `scan_prefix`: one B-tree descent plus a bounded walk.
    fn scan_prefix(
        &self,
        inner: &LegacyInner,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        prefix: &Index,
    ) -> Vec<u64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let port: Arc<str> = Arc::from(port);
        let start: LegacyKey = (run, processor.clone(), port.clone(), prefix.clone());
        let mut out = Vec::new();
        for ((r, p, q, idx), rows) in
            inner.xform_out.range((Bound::Included(start), Bound::Unbounded))
        {
            if *r != run || p != processor || *q != port || !prefix.is_prefix_of(idx) {
                break;
            }
            out.extend_from_slice(rows);
        }
        self.records.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// The seed's `get_overlapping`: ancestors (one exact get per index
    /// prefix) plus strict descendants.
    fn get_overlapping(
        &self,
        inner: &LegacyInner,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for k in 0..=index.len() {
            out.extend(self.get_exact(inner, run, processor, port, &index.prefix(k)));
        }
        let descendants = self.scan_prefix(inner, run, processor, port, index);
        let exact = self.get_exact(inner, run, processor, port, index);
        out.extend(descendants.into_iter().filter(|r| !exact.contains(r)));
        out
    }

    /// The seed's `xforms_producing`: overlap probe, id dedup, then full
    /// record materialisation.
    fn xforms_producing(
        &self,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<XformRecord> {
        let inner = self.inner.lock().expect("lock");
        let ids = self.get_overlapping(&inner, run, processor, port, index);
        dedup_ids(ids).into_iter().map(|id| inner.xforms[id as usize].clone()).collect()
    }
}

fn events_per_sec(events: usize, d: Duration) -> f64 {
    events as f64 / d.as_secs_f64().max(1e-12)
}

#[derive(Serialize)]
struct IngestReport {
    events: usize,
    batches: usize,
    legacy_mem_ms: f64,
    new_mem_ms: f64,
    mem_speedup: f64,
    legacy_wal_ms: f64,
    new_wal_ms: f64,
    wal_speedup: f64,
    legacy_wal_events_per_s: f64,
    new_wal_events_per_s: f64,
}

#[derive(Serialize)]
struct LookupReport {
    probes: usize,
    legacy_point_us: f64,
    new_point_us: f64,
    point_speedup: f64,
    scans: usize,
    legacy_scan_us: f64,
    new_scan_us: f64,
    scan_speedup: f64,
}

/// Cost of leaving the event journal on. The gated pair is the point
/// probes with an enabled journal attached to the store vs without —
/// attribution is per plan step in the query layer, never per probe, so
/// the ratio must stay ~1. The raw ring-write and disabled-branch costs
/// quantify what one event actually costs when the query layer does
/// record it.
#[derive(Serialize)]
struct JournalReport {
    probes: usize,
    off_point_us: f64,
    on_point_us: f64,
    /// on/off — CI gates this at ≤ 1.05 in quick mode.
    overhead_ratio: f64,
    /// One enabled ring write, steady state (ring saturated).
    ring_write_ns: f64,
    /// One `record()` on a disabled handle: the single-branch claim.
    disabled_branch_ns: f64,
    events_recorded: u64,
}

#[derive(Serialize)]
struct QueryReport {
    ni_ms: f64,
    indexproj_cold_ms: f64,
    indexproj_warm_ms: f64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
}

/// The shared plan executed over the whole run set by one
/// `execute_multi` call (§3.4: one plan, one probe pass per run).
#[derive(Serialize)]
struct MultiRunReport {
    runs: usize,
    steps_per_run: usize,
    execute_multi_ms: f64,
}

#[derive(Serialize)]
struct ReportMetrics {
    /// Read-path store counters (index lookups, records read, rows
    /// scanned) accumulated across the probe/scan/query sections, plus
    /// the size gauges of the populated store.
    query_store: prov_obs::MetricsSnapshot,
    /// WAL work accounting (frames, bytes, group commits, fsyncs) for one
    /// untimed durable ingest of the full event stream.
    durable_ingest: prov_obs::MetricsSnapshot,
}

#[derive(Serialize)]
struct Report {
    /// `"quick"` or `"full"`.
    mode: &'static str,
    /// Cores available to this process.
    nproc: usize,
    /// The measured tree's commit (`-dirty` with uncommitted changes), or
    /// `"unknown"`.
    commit: String,
    l: usize,
    d: usize,
    reps: usize,
    ingest: IngestReport,
    lookups: LookupReport,
    journal: JournalReport,
    fig9_query: QueryReport,
    multi_run: MultiRunReport,
    metrics: ReportMetrics,
}

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// The checked-out commit (suffixed `-dirty` when the tree has uncommitted
/// changes), or `"unknown"` outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(workspace_root())
        .args(["describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let quick = quick_mode();
    let (l, d, n_runs, reps) = if quick { (10, 5, 4, 2) } else { (50, 50, 8, 5) };

    println!("store hot path: legacy layout vs overhauled TraceStore (l={l}, d={d})\n");

    // ---- Capture the canonical event stream once. --------------------
    let df = testbed::generate(l);
    let capture = BatchCapture::default();
    testbed::run(&df, d, &capture);
    let batches = capture.batches.into_inner().expect("lock");
    let events: usize = batches.iter().map(Vec::len).sum();

    let tmp = std::env::temp_dir().join(format!("prov-hotpath-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create tmp dir");

    // The engine hands the store owned batches; pre-clone one stream per
    // rep so the timed region moves them rather than deep-copying values.
    let mut pool: Vec<Vec<Vec<TraceEvent>>> = (0..reps).map(|_| batches.clone()).collect();

    // ---- Ingest: in-memory. ------------------------------------------
    let t_legacy_mem = best_of(reps, || {
        let store = LegacyStore::in_memory();
        for batch in &batches {
            for e in batch {
                store.record(RunId(0), e);
            }
        }
    });
    let t_new_mem = best_of(reps, || {
        let stream = pool.pop().expect("pool");
        let store = TraceStore::in_memory();
        let run = store.begin_run(&df.name);
        for batch in stream {
            store.record_batch(run, batch);
        }
    });

    // ---- Ingest: durable (WAL per event vs group-commit per batch). --
    let mut pool: Vec<Vec<Vec<TraceEvent>>> = (0..reps).map(|_| batches.clone()).collect();
    let legacy_wal = tmp.join("legacy.wal");
    let new_wal = tmp.join("new.wal");
    let t_legacy_dur = best_of(reps, || {
        let store = LegacyStore::durable(&legacy_wal);
        for batch in &batches {
            for e in batch {
                store.record(RunId(0), e);
            }
        }
    });
    let t_new_dur = best_of(reps, || {
        let stream = pool.pop().expect("pool");
        let _ = std::fs::remove_file(&new_wal);
        let store = TraceStore::open(&new_wal).expect("open store");
        let run = store.begin_run(&df.name);
        for batch in stream {
            store.record_batch(run, batch);
        }
    });

    // ---- Populate both stores once for the read-path comparison. -----
    let legacy = LegacyStore::in_memory();
    for batch in &batches {
        for e in batch {
            legacy.record(RunId(0), e);
        }
    }
    let store = TraceStore::in_memory();
    let run = store.begin_run(&df.name);
    for batch in &batches {
        store.record_batch(run, batch.clone());
    }

    // Point lookups: every chain step's per-element output, plus the join.
    let mut probes: Vec<(ProcessorName, &str, Index)> = Vec::new();
    for chain in ["A", "B"] {
        for i in 1..=l {
            let p = ProcessorName::from(format!("CHAIN_{chain}_{i}"));
            for j in 0..d {
                probes.push((p.clone(), "y", Index::single(j as u32)));
            }
        }
    }
    let join = ProcessorName::from("2TO1_FINAL");
    for a in 0..d {
        probes.push((join.clone(), "Y", Index::from_slice(&[a as u32, (d - 1 - a) as u32])));
    }

    let t_legacy_point = best_of(reps, || {
        for (p, x, idx) in &probes {
            let got = legacy.xforms_producing(RunId(0), p, x, idx);
            assert!(!got.is_empty(), "legacy probe missed");
        }
    });
    let t_new_point = best_of(reps, || {
        let view = store.pin(run);
        for (p, x, idx) in &probes {
            let got = view.xforms_producing(p, x, idx, &mut view.probe_guard());
            assert!(!got.is_empty(), "new probe missed");
        }
    });

    // Prefix scans: each join row-prefix [a] covers d product cells, so
    // both sides walk and materialise d rows per probe.
    let scans: Vec<Index> = (0..d).map(|a| Index::single(a as u32)).collect();
    let t_legacy_scan = best_of(reps, || {
        for prefix in &scans {
            let got = legacy.xforms_producing(RunId(0), &join, "Y", prefix);
            assert_eq!(got.len(), d, "legacy scan size");
        }
    });
    let t_new_scan = best_of(reps, || {
        let view = store.pin(run);
        for prefix in &scans {
            let got = view.xforms_producing(&join, "Y", prefix, &mut view.probe_guard());
            assert_eq!(got.len(), d, "new scan size");
        }
    });

    // ---- Journal overhead sweep. The probe hot path must not pay for
    // the always-on journal: attribution happens per plan *step* in the
    // query layer, never per probe, so the same point probes against a
    // store with an enabled journal attached must cost what they cost
    // without one (CI gates the ratio at ≤ 1.05 in quick mode — it
    // catches anyone journaling inside the probe path). The raw cost of
    // one ring write and of the disabled handle's single branch are
    // measured alongside for DESIGN.md's overhead table. ----
    let journal_reps = reps.max(3);
    let t_journal_off = best_of(journal_reps, || {
        let view = store.pin(run);
        for (p, x, idx) in &probes {
            let got = view.xforms_producing(p, x, idx, &mut view.probe_guard());
            assert!(!got.is_empty(), "journal-off probe missed");
        }
    });
    let journal_on = prov_obs::Journal::new(1 << 16);
    store.attach_journal(&journal_on);
    let t_journal_on = best_of(journal_reps, || {
        let view = store.pin(run);
        for (p, x, idx) in &probes {
            let got = view.xforms_producing(p, x, idx, &mut view.probe_guard());
            assert!(!got.is_empty(), "journal-on probe missed");
        }
    });

    // Raw per-event costs: an enabled ring write (steady state, ring
    // saturated so overwrites hit the dropped counter too) and the
    // disabled handle's branch. `black_box` keeps the dead-event loop
    // from being optimised away.
    let ring_events = 10_000usize;
    let plan_step = |step: u32| prov_obs::JournalEvent::PlanStep {
        trace: prov_obs::TraceId(1),
        run: 0,
        step,
        index_lookups: 1,
        records_read: 1,
        rows_scanned: 0,
        rows: 1,
        dur_ns: 0,
    };
    let t_ring_write = best_of(journal_reps, || {
        for i in 0..ring_events {
            std::hint::black_box(&journal_on).record(plan_step(i as u32));
        }
    });
    let journal_disabled = prov_obs::Journal::disabled();
    let t_disabled_branch = best_of(journal_reps, || {
        for i in 0..ring_events {
            std::hint::black_box(&journal_disabled).record(plan_step(i as u32));
        }
    });
    let journal_events_recorded = journal_on.drain().len() as u64 + journal_on.dropped();

    // ---- Fig. 9 canonical query on the new store. --------------------
    let query = testbed::focused_query(&[d as u32 / 2, d as u32 / 2]);
    let ni = NaiveLineage::new();
    let t_ni = best_of(reps, || {
        ni.run(&store, run, &query).expect("ni query");
    });
    let t_cold = best_of(reps, || {
        IndexProj::new(&df).run(&store, run, &query).expect("cold query");
    });
    let cache = PlanCache::new(IndexProj::new(&df));
    cache.run(&store, run, &query).expect("warm-up");
    let t_warm = best_of(reps, || {
        cache.run(&store, run, &query).expect("warm query");
    });
    let cache_stats = cache.stats();
    let (cache_hits, cache_misses) = (cache_stats.hits, cache_stats.misses);

    // ---- Multi-run: one shared plan over the run set (§3.4). --------
    // The unfocused query gives the plan one step per spec-graph port.
    let multi_store = TraceStore::in_memory();
    let runs: Vec<RunId> = (0..n_runs).map(|_| testbed::run(&df, d, &multi_store).run_id).collect();
    let multi_query = testbed::unfocused_query(&df, &[d as u32 / 2, d as u32 / 2]);
    let plan = IndexProj::new(&df).plan(&multi_query).expect("plan");
    let t_multi = best_of(reps, || {
        plan.execute_multi(&multi_store, &runs).expect("multi-run execute");
    });

    // ---- Metrics block: machine-independent work accounting. ---------
    let query_metrics = prov_bench::snapshot_store_metrics(&store);
    let wal_metrics = {
        // One untimed durable ingest, so WAL frame/byte/commit counts for
        // the canonical stream ride along with the wall-clock numbers.
        let metrics_wal = tmp.join("metrics.wal");
        let store = TraceStore::open(&metrics_wal).expect("open store");
        let run = store.begin_run(&df.name);
        for batch in batches.clone() {
            store.record_batch(run, batch);
        }
        prov_bench::snapshot_store_metrics(&store)
    };

    let _ = std::fs::remove_dir_all(&tmp);

    // ---- Report. -----------------------------------------------------
    let report = Report {
        mode: if quick { "quick" } else { "full" },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: git_commit(),
        l,
        d,
        reps,
        ingest: IngestReport {
            events,
            batches: batches.len(),
            legacy_mem_ms: ms(t_legacy_mem),
            new_mem_ms: ms(t_new_mem),
            mem_speedup: t_legacy_mem.as_secs_f64() / t_new_mem.as_secs_f64().max(1e-12),
            legacy_wal_ms: ms(t_legacy_dur),
            new_wal_ms: ms(t_new_dur),
            wal_speedup: t_legacy_dur.as_secs_f64() / t_new_dur.as_secs_f64().max(1e-12),
            legacy_wal_events_per_s: events_per_sec(events, t_legacy_dur),
            new_wal_events_per_s: events_per_sec(events, t_new_dur),
        },
        lookups: LookupReport {
            probes: probes.len(),
            legacy_point_us: ms(t_legacy_point) * 1e3 / probes.len() as f64,
            new_point_us: ms(t_new_point) * 1e3 / probes.len() as f64,
            point_speedup: t_legacy_point.as_secs_f64() / t_new_point.as_secs_f64().max(1e-12),
            scans: scans.len(),
            legacy_scan_us: ms(t_legacy_scan) * 1e3 / scans.len() as f64,
            new_scan_us: ms(t_new_scan) * 1e3 / scans.len() as f64,
            scan_speedup: t_legacy_scan.as_secs_f64() / t_new_scan.as_secs_f64().max(1e-12),
        },
        journal: JournalReport {
            probes: probes.len(),
            off_point_us: ms(t_journal_off) * 1e3 / probes.len() as f64,
            on_point_us: ms(t_journal_on) * 1e3 / probes.len() as f64,
            overhead_ratio: t_journal_on.as_secs_f64() / t_journal_off.as_secs_f64().max(1e-12),
            ring_write_ns: t_ring_write.as_secs_f64() * 1e9 / ring_events as f64,
            disabled_branch_ns: t_disabled_branch.as_secs_f64() * 1e9 / ring_events as f64,
            events_recorded: journal_events_recorded,
        },
        fig9_query: QueryReport {
            ni_ms: ms(t_ni),
            indexproj_cold_ms: ms(t_cold),
            indexproj_warm_ms: ms(t_warm),
            plan_cache_hits: cache_hits,
            plan_cache_misses: cache_misses,
        },
        multi_run: MultiRunReport {
            runs: runs.len(),
            steps_per_run: plan.steps.len(),
            execute_multi_ms: ms(t_multi),
        },
        metrics: ReportMetrics { query_store: query_metrics, durable_ingest: wal_metrics },
    };

    let mut table = Table::new(&["section", "metric", "legacy", "new", "speedup"]);
    table.row(vec![
        cell("ingest"),
        cell("in-memory (ms)"),
        cell_ms(t_legacy_mem),
        cell_ms(t_new_mem),
        cell(format!("{:.2}x", report.ingest.mem_speedup)),
    ]);
    table.row(vec![
        cell("ingest"),
        cell("durable WAL (ms)"),
        cell_ms(t_legacy_dur),
        cell_ms(t_new_dur),
        cell(format!("{:.2}x", report.ingest.wal_speedup)),
    ]);
    table.row(vec![
        cell("lookup"),
        cell("point probe (us)"),
        cell(format!("{:.3}", report.lookups.legacy_point_us)),
        cell(format!("{:.3}", report.lookups.new_point_us)),
        cell(format!("{:.2}x", report.lookups.point_speedup)),
    ]);
    table.row(vec![
        cell("lookup"),
        cell("prefix scan (us)"),
        cell(format!("{:.3}", report.lookups.legacy_scan_us)),
        cell(format!("{:.3}", report.lookups.new_scan_us)),
        cell(format!("{:.2}x", report.lookups.scan_speedup)),
    ]);
    table.row(vec![
        cell("journal"),
        cell("point probe, off/on (us)"),
        cell(format!("{:.3}", report.journal.off_point_us)),
        cell(format!("{:.3}", report.journal.on_point_us)),
        cell(format!("{:.3}x overhead", report.journal.overhead_ratio)),
    ]);
    table.print();
    println!(
        "\nmulti-run: execute_multi over {} runs x {} steps: {:.3} ms ({} mode, {} cores, commit {})",
        report.multi_run.runs,
        report.multi_run.steps_per_run,
        report.multi_run.execute_multi_ms,
        report.mode,
        report.nproc,
        report.commit
    );
    println!(
        "\nfig9 query: ni {:.3} ms, indexproj cold {:.3} ms, warm {:.3} ms (cache {}h/{}m)",
        report.fig9_query.ni_ms,
        report.fig9_query.indexproj_cold_ms,
        report.fig9_query.indexproj_warm_ms,
        cache_hits,
        cache_misses
    );
    println!(
        "journal: probe hot path {:.3} -> {:.3} us with journal attached ({:+.1}% overhead); \
         ring write {:.0} ns/event, disabled branch {:.1} ns/event",
        report.journal.off_point_us,
        report.journal.on_point_us,
        (report.journal.overhead_ratio - 1.0) * 100.0,
        report.journal.ring_write_ns,
        report.journal.disabled_branch_ns
    );

    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    let out = workspace_root().join("BENCH_store_hotpath.json");
    std::fs::write(&out, json + "\n").expect("write report");
    println!("json: {}", out.display());
}
