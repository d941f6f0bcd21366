//! The traced run's replay phase: requests re-issued in-process through
//! the public functions the daemon calls, so every server-side stage gets
//! its own time, and ingest frames rebuilt so the wire and store layers
//! can be timed on exactly what a writer sends.
//!
//! A query replay first sends the request over the wire (the measured
//! round trip), then repeats each stage of `prov_serve::execute_query` on
//! the daemon's own store handle: parse, workflow load (JSON parse,
//! `reindex`, `validate`), plan, execute, render. What the stages do not
//! cover is the residual: wire, session and admission time.

use std::path::Path;
use std::time::Instant;

use prov_core::{parse_query, IndexProj, NaiveLineage, ParsedQuery};
use prov_dataflow::Dataflow;
use prov_engine::{TraceEvent, TraceSink};
use prov_model::{ProcessorName, RunId};
use prov_obs::{Obs, QueryCtx};
use prov_serve::protocol::{self as p, IngestBatch};
use prov_serve::{ServeClient, DEFAULT_BATCH_EVENTS};
use prov_store::TraceStore;
use prov_workgen::testbed;

use crate::ingest::{CaptureSink, Writer};
use crate::plan::{QueryKind, QuerySpec};

/// Server-side stage times of one replayed query, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stages {
    /// Workflow spec JSON parse, `reindex` and `validate` (INDEXPROJ only).
    pub load_ns: u64,
    /// Query text parse.
    pub parse_ns: u64,
    /// INDEXPROJ planning (t1); 0 for NI.
    pub plan_ns: u64,
    /// Execution against the store (t2; NI's whole traversal).
    pub execute_ns: u64,
    /// Rendering the answers as text.
    pub render_ns: u64,
}

impl Stages {
    /// The stages' total.
    pub fn sum(&self) -> u64 {
        self.load_ns + self.parse_ns + self.plan_ns + self.execute_ns + self.render_ns
    }
}

/// One replayed query.
#[derive(Debug, Clone)]
pub struct QueryReplay {
    /// Its type.
    pub kind: QueryKind,
    /// The measured client round trip.
    pub rt_ns: u64,
    /// The in-process stage times.
    pub stages: Stages,
    /// `rt_ns - stages.sum()`: wire, session and admission time.
    pub residual_ns: i64,
    /// Trace records the execution read (exact).
    pub records_read: u64,
    /// Index lookups the execution made (exact).
    pub index_lookups: u64,
}

/// The part of a round trip the in-process stages do not account for.
pub fn residual_ns(rt_ns: u64, stages: &Stages) -> i64 {
    rt_ns as i64 - stages.sum() as i64
}

fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Loads a registered workflow the way the daemon does for every
/// INDEXPROJ request.
fn load_workflow(store: &TraceStore, wf: &str) -> Result<Dataflow, String> {
    let json = store
        .workflow_json(&ProcessorName::from(wf))
        .ok_or_else(|| format!("workflow {wf} is not registered"))?;
    let mut df: Dataflow = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    df.reindex();
    prov_dataflow::validate(&df).map_err(|e| e.to_string())?;
    Ok(df)
}

/// Sends `spec` over the wire, then replays it stage by stage. The
/// in-process answers must render exactly as the served ones.
pub fn replay_query(
    client: &mut ServeClient,
    store: &TraceStore,
    obs: &Obs,
    spec: &QuerySpec,
    wf: &str,
) -> Result<QueryReplay, String> {
    let req = spec.request(wf);
    let sent = Instant::now();
    let served = client.query(&req).map_err(|e| e.to_string())?;
    let rt_ns = sent.elapsed().as_nanos() as u64;

    let ctx = QueryCtx::new(req.query.clone());
    let mut stages = Stages::default();
    let mut t = Instant::now();
    let ParsedQuery::Lineage(query) = parse_query(&req.query).map_err(|e| e.to_string())? else {
        return Err("not a lineage query".into());
    };
    stages.parse_ns = lap(&mut t);
    let before = store.stats().snapshot();
    let answers = if spec.kind == QueryKind::Ni {
        let _ = lap(&mut t);
        let runs = vec![RunId(req.run)];
        let out = NaiveLineage::new().run_multi_ctx(store, &runs, &query, obs, &ctx);
        stages.execute_ns = lap(&mut t);
        out
    } else {
        let _ = lap(&mut t);
        let df = load_workflow(store, wf)?;
        stages.load_ns = lap(&mut t);
        let plan = IndexProj::new(&df).plan(&query).map_err(|e| e.to_string())?;
        stages.plan_ns = lap(&mut t);
        let runs: Vec<RunId> = if req.all_runs {
            store.runs().iter().map(|i| i.id).collect()
        } else {
            vec![RunId(req.run)]
        };
        let out = plan.execute_multi_ctx(store, &runs, obs, &ctx);
        stages.execute_ns = lap(&mut t);
        out
    }
    .map_err(|e| e.to_string())?;
    let delta = store.stats().snapshot().since(before);
    let _ = lap(&mut t);
    let rendered: Vec<String> = answers.iter().map(ToString::to_string).collect();
    stages.render_ns = lap(&mut t);
    if rendered != served {
        return Err(format!("replayed answer differs from the served one for {}", req.query));
    }
    Ok(QueryReplay {
        kind: spec.kind,
        rt_ns,
        stages,
        residual_ns: residual_ns(rt_ns, &stages),
        records_read: delta.records_read,
        index_lookups: delta.index_lookups,
    })
}

/// Wire and store costs of the ingest frames one writer produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReplay {
    /// Frames timed.
    pub frames: u64,
    /// Events those frames carried.
    pub events: u64,
    /// Mean `prov_wire::decode` time per frame, µs.
    pub decode_us_per_frame: f64,
    /// Mean `write_json` time per frame, µs.
    pub encode_us_per_frame: f64,
    /// Mean frame size, KiB.
    pub frame_kib: f64,
    /// Mean `TraceStore::record_batch` time per event, µs, into a durable
    /// store.
    pub record_batch_us_per_event: f64,
}

/// Rebuilds the `INGEST_BATCH` frames of one run per list size in `ds`
/// (events cut at `DEFAULT_BATCH_EVENTS`, as `RemoteSink` cuts them),
/// times encoding and decoding each, then applies the decoded batches to
/// a fresh durable store in `dir` as the daemon's applier does.
pub fn replay_ingest(writer: &Writer, ds: &[usize], dir: &Path) -> Result<IngestReplay, String> {
    let mut r = IngestReplay::default();
    let (mut encode_ns, mut decode_ns, mut bytes, mut apply_ns) = (0u64, 0u64, 0u64, 0u64);
    for (i, &d) in ds.iter().enumerate() {
        let capture = CaptureSink::default();
        testbed::run(&writer.df, d, &capture);
        let events: Vec<TraceEvent> = capture.into_events();
        let store = TraceStore::open(dir.join(format!("replay-{i}.wal")))
            .map_err(|e| format!("replay store: {e}"))?;
        let run = store.begin_run(&writer.df.name);
        for (seq, chunk) in events.chunks(DEFAULT_BATCH_EVENTS).enumerate() {
            let batch = IngestBatch { run: run.0, seq: seq as u64, events: chunk.to_vec() };
            let mut frame = Vec::new();
            let t = Instant::now();
            p::write_json(&mut frame, p::TAG_INGEST_BATCH, &batch).map_err(|e| e.to_string())?;
            encode_ns += t.elapsed().as_nanos() as u64;
            bytes += frame.len() as u64;
            let payload = &frame[5..];
            let t = Instant::now();
            let decoded: IngestBatch = p::decode(payload).map_err(|e| e.to_string())?;
            decode_ns += t.elapsed().as_nanos() as u64;
            if decoded.events != batch.events {
                return Err("an ingest frame does not decode to what was encoded".into());
            }
            r.events += decoded.events.len() as u64;
            let t = Instant::now();
            store.record_batch(run, decoded.events);
            apply_ns += t.elapsed().as_nanos() as u64;
            r.frames += 1;
        }
        store.sync_wal().map_err(|e| format!("replay sync: {e}"))?;
    }
    let frames = r.frames.max(1) as f64;
    r.encode_us_per_frame = encode_ns as f64 / 1e3 / frames;
    r.decode_us_per_frame = decode_ns as f64 / 1e3 / frames;
    r.frame_kib = bytes as f64 / 1024.0 / frames;
    r.record_batch_us_per_event = apply_ns as f64 / 1e3 / r.events.max(1) as f64;
    Ok(r)
}
