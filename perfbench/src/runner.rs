//! Runs one workload end to end and turns what it saw into metrics.
//!
//! A run has phases. The query workloads first build their database
//! through a daemon (two writers stream the preloaded runs), drain it and
//! restart it; `ingest_fresh` starts a fresh daemon for every round
//! instead. Then comes the measured window, cut into slices: every
//! latency percentile and rate is taken per slice and reported as the
//! median over the slices. A traced run measures the
//! window twice, untraced and then traced, and replays a sample of its
//! requests (see [`crate::replay`]). Last, set-up is repeated until
//! `setup_reps` starts have been timed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use prov_model::RunId;

use crate::daemon::{Daemon, Setup, Tally};
use crate::env::{self, TempDir};
use crate::ingest::{RunSample, Writer};
use crate::metrics::{median, quantile, Values};
use crate::plan::{Params, QueryGen, QueryKind, Rng, RunGen, Workload};
use crate::query::{query_loop, QuerySample, Slicer, Until, Verifier};
use crate::replay::{replay_ingest, replay_query, IngestReplay, QueryReplay};
use crate::trace::Tracer;

/// The workflow name the preloaded (Fig. 6-scale) runs register.
pub const PRELOAD_WF: &str = "testbed";
/// The workflow name window writers register (a different chain length,
/// so a different spec: it must not replace the preload's).
pub const INGEST_WF: &str = "testbed_l10";

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every query sent.
    pub queries: Vec<QuerySample>,
    /// Seconds the query clients ran, per slice.
    pub query_walls: Vec<f64>,
    /// Every run streamed.
    pub runs: Vec<RunSample>,
    /// Seconds the writers ran, per slice.
    pub ingest_walls: Vec<f64>,
    /// Daemon totals accumulated while the writers ran.
    pub ingest_tally: Tally,
    /// Daemon totals accumulated over the whole phase.
    pub tally: Tally,
    /// Daemon starts made in the phase.
    pub setups: Vec<Setup>,
    /// WAL fsync latency medians of the daemons that ingested.
    pub sync_p50s: Vec<u64>,
    /// Answers or runs the checks found wrong.
    pub wrong: u64,
    /// Failed requests that were not wrong answers (errors, refusals).
    pub failed: u64,
    /// The phase's spans, one tracer per client thread.
    pub tracers: Vec<Tracer>,
    /// Stage-by-stage query replays (traced runs only).
    pub replays: Vec<QueryReplay>,
}

impl Pass {
    fn add_runs(&mut self, runs: Vec<RunSample>) {
        self.failed += runs.iter().filter(|r| !r.ok && !r.wrong).count() as u64;
        self.wrong += runs.iter().filter(|r| r.wrong).count() as u64;
        self.runs.extend(runs);
    }

    fn add_queries(&mut self, queries: Vec<QuerySample>, verifier: &mut Verifier<'_>) {
        for q in &queries {
            if q.answers.is_err() {
                self.failed += 1;
            } else if !verifier.is_correct(q) {
                self.wrong += 1;
            }
        }
        self.queries.extend(queries);
    }

    fn attempted(&self) -> u64 {
        (self.queries.len() + self.runs.len() + self.replays.len()) as u64
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Report {
    /// No check found a wrong answer or a wrong record count.
    pub correct: bool,
    /// Operations attempted (queries, ingested runs, replays).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or were wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub values: Values,
    /// Workload, machine and sample counts, as a JSON object.
    pub context: String,
    /// Every span recorded, one tracer per client thread and phase.
    pub tracers: Vec<Tracer>,
    /// The query replays (traced runs).
    pub replays: Vec<QueryReplay>,
}

/// Streams runs from one writer thread until `until` is met.
fn writer_loop(
    writer: &Writer,
    daemon: &Daemon,
    gen: &mut RunGen,
    until: Until,
    slicer: Slicer,
    t: &mut Tracer,
    drop_after: bool,
) -> Vec<RunSample> {
    let mut out: Vec<RunSample> = Vec::new();
    loop {
        match until {
            Until::Deadline(end) if Instant::now() >= end => break,
            Until::Count(n) if out.len() >= n => break,
            _ => {}
        }
        let d = gen.next_d();
        let slice = slicer.of(Instant::now());
        let mut s = writer.ingest(&daemon.addr, d, &daemon.store, t, out.len() as u64);
        s.slice = slice;
        // Retention: the checked run leaves the database again, so the
        // readers' "all runs" stays the preload plus what is in flight.
        if drop_after && s.ok && daemon.store.drop_run(RunId(s.run)).is_err() {
            s.ok = false;
        }
        out.push(s);
    }
    out
}

/// Two writers, one thread each, streaming runs until `until` is met.
fn ingest_two(
    writer: &Writer,
    daemon: &Daemon,
    gens: &mut [RunGen; 2],
    until: Until,
    slicer: Slicer,
    traced: bool,
    origin: Instant,
) -> (Vec<RunSample>, f64, Vec<Tracer>) {
    let started = Instant::now();
    let results: Vec<(Vec<RunSample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, gen)| {
                s.spawn(move || {
                    let mut t = Tracer::when(traced, origin, i as u64);
                    let runs = writer_loop(writer, daemon, gen, until, slicer, &mut t, false);
                    (runs, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    let mut tracers = Vec::new();
    for (r, t) in results {
        runs.extend(r);
        tracers.push(t);
    }
    (runs, wall, tracers)
}

/// The preloaded runs a query workload reads: (run id, list size).
fn preload_runs(daemon: &Daemon, p: &Params) -> Vec<(u64, usize)> {
    daemon.store.runs().iter().map(|r| (r.id.0, p.preload_d)).collect()
}

/// Builds the Fig. 6-scale database through a daemon, then drains it.
/// Two writers stream half the runs each, so both cores stay busy.
fn preload(
    p: &Params,
    db: &std::path::Path,
    traced: bool,
    origin: Instant,
) -> Result<Pass, String> {
    let writer = Writer::testbed(p.preload_l, PRELOAD_WF);
    let (daemon, setup) = Daemon::start(db)?;
    let before = daemon.tally();
    let mut gens = [0, 1].map(|w| RunGen::new(p.seed, w, &[p.preload_d]));
    let (runs, wall, tracers) = ingest_two(
        &writer,
        &daemon,
        &mut gens,
        Until::Count(p.preload_runs / 2),
        Slicer::Fixed(0),
        traced,
        origin,
    );
    let mut pass =
        Pass { ingest_walls: vec![wall], tracers, setups: vec![setup], ..Pass::default() };
    pass.add_runs(runs);
    pass.ingest_tally = daemon.tally().since(&before);
    pass.tally = pass.ingest_tally;
    pass.sync_p50s.push(daemon.sync_p50_us());
    daemon.shutdown()?;
    Ok(pass)
}

/// Replays a seeded sample of `queries` stage by stage.
fn replay_sample(
    daemon: &Daemon,
    queries: &[QuerySample],
    wf: &str,
    p: &Params,
    pass: &mut Pass,
) -> Result<(), String> {
    let mut client =
        prov_serve::ServeClient::connect(&daemon.addr).map_err(|e| format!("replay: {e}"))?;
    let mut rng = Rng::stream(p.seed, "replay", 0);
    for kind in QueryKind::ALL {
        let of_kind: Vec<&QuerySample> =
            queries.iter().filter(|q| q.spec.kind == kind && q.answers.is_ok()).collect();
        for _ in 0..p.replay_per_kind.min(of_kind.len()) {
            let q = of_kind[rng.below(of_kind.len())];
            match replay_query(&mut client, &daemon.store, &daemon.obs, &q.spec, wf) {
                Ok(r) => pass.replays.push(r),
                Err(_) => pass.failed += 1,
            }
        }
    }
    Ok(())
}

/// The measured window of `query_fig6`: slices of queries from two
/// clients on the preloaded daemon, each followed by one ingest round
/// into a scratch database of its own (see [`round`]), until the time is
/// used. The preloaded database is only read. Interleaving the two sides
/// spreads both over the whole window, so a stretch of host noise does
/// not land on one side only.
fn query_window(
    p: &Params,
    daemon: &Daemon,
    traced: bool,
    origin: Instant,
) -> Result<Pass, String> {
    let runs = preload_runs(daemon, p);
    let run_ids: Vec<u64> = runs.iter().map(|r| r.0).collect();
    let before = daemon.tally();
    let end = Instant::now() + Duration::from_secs_f64(p.seconds);
    let writer = Writer::testbed(p.ingest_l, INGEST_WF);
    let mut gens = [0, 1].map(|w| RunGen::new(p.seed, w, &p.ingest_ds));
    let mut clients =
        [0, 1].map(|c| QueryGen::new(p.seed, c, runs.clone()).with_think(p.seed, c, p.think_ms));
    let mut pass = Pass::default();
    let mut verifier = Verifier::new(&daemon.store, run_ids);
    let mut slice = 0;
    while slice == 0 || Instant::now() < end {
        let started = Instant::now();
        let until = Until::Deadline(started + Duration::from_secs_f64(p.slice_s));
        let outs: Vec<(Vec<QuerySample>, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, gen)| {
                    s.spawn(move || {
                        let mut t = Tracer::when(traced, origin, c as u64);
                        let at = Slicer::Fixed(slice);
                        let q = query_loop(&daemon.addr, gen, PRELOAD_WF, until, at, &mut t);
                        (q, t)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query client panicked")).collect()
        });
        pass.query_walls.push(started.elapsed().as_secs_f64());
        for (q, t) in outs {
            pass.add_queries(q, &mut verifier);
            pass.tracers.push(t);
        }
        round(p, &writer, &mut gens, slice, false, traced, origin, &mut pass)?;
        slice += 1;
    }
    pass.tally = pass.tally.plus(&daemon.tally().since(&before));
    if traced {
        let queries = std::mem::take(&mut pass.queries);
        replay_sample(daemon, &queries, PRELOAD_WF, p, &mut pass)?;
        pass.queries = queries;
    }
    Ok(pass)
}

/// The measured window of `mixed_rw`: one writer streams runs (each
/// dropped again once checked) while one client queries the preloaded
/// runs.
fn mixed_window(
    p: &Params,
    daemon: &Daemon,
    traced: bool,
    origin: Instant,
) -> Result<Pass, String> {
    let runs = preload_runs(daemon, p);
    let run_ids: Vec<u64> = runs.iter().map(|r| r.0).collect();
    let before = daemon.tally();
    let started = Instant::now();
    let until = Until::Deadline(started + Duration::from_secs_f64(p.seconds));
    let slicer = Slicer::window(started, p.seconds, p.slice_s);
    let writer = Writer::testbed(p.ingest_l, INGEST_WF);
    let ((q, qt), (r, wt)) = std::thread::scope(|s| {
        let querier = s.spawn(|| {
            let mut t = Tracer::when(traced, origin, 1);
            let mut gen = QueryGen::new(p.seed, 1, runs).with_think(p.seed, 1, p.think_ms);
            let q = query_loop(&daemon.addr, &mut gen, PRELOAD_WF, until, slicer, &mut t);
            (q, t)
        });
        let mut t = Tracer::when(traced, origin, 0);
        let mut gen = RunGen::new(p.seed, 0, &p.ingest_ds);
        let r = writer_loop(&writer, daemon, &mut gen, until, slicer, &mut t, true);
        (querier.join().expect("query client panicked"), (r, t))
    });
    let slice_walls = slicer.slice_seconds().unwrap_or_default();
    let mut pass =
        Pass { query_walls: slice_walls.clone(), ingest_walls: slice_walls, ..Pass::default() };
    let mut verifier = Verifier::new(&daemon.store, run_ids);
    pass.add_queries(q, &mut verifier);
    pass.add_runs(r);
    pass.tracers.extend([wt, qt]);
    pass.tally = daemon.tally().since(&before);
    pass.ingest_tally = pass.tally;
    pass.sync_p50s.push(daemon.sync_p50_us());
    if traced {
        let queries = std::mem::take(&mut pass.queries);
        replay_sample(daemon, &queries, PRELOAD_WF, p, &mut pass)?;
        pass.queries = queries;
    }
    Ok(pass)
}

/// One ingest round, slice `slice` of `pass`: a fresh database, a daemon
/// on it, two writers streaming `round_runs` runs each, then (if `probe`)
/// a read-back probe of the new runs, and a drain.
#[allow(clippy::too_many_arguments)]
fn round(
    p: &Params,
    writer: &Writer,
    gens: &mut [RunGen; 2],
    slice: usize,
    probe: bool,
    traced: bool,
    origin: Instant,
    pass: &mut Pass,
) -> Result<(), String> {
    let dir = TempDir::new("round")?;
    let (daemon, setup) = Daemon::start(&dir.path().join("prov.wal"))?;
    pass.setups.push(setup);
    let before = daemon.tally();
    let slicer = Slicer::Fixed(slice);
    let until = Until::Count(p.round_runs);
    let (runs, wall, tracers) = ingest_two(writer, &daemon, gens, until, slicer, traced, origin);
    pass.ingest_walls.push(wall);
    pass.ingest_tally = pass.ingest_tally.plus(&daemon.tally().since(&before));
    pass.sync_p50s.push(daemon.sync_p50_us());
    pass.tracers.extend(tracers);
    let acked: Vec<(u64, usize)> = runs.iter().filter(|r| r.ok).map(|r| (r.run, r.d)).collect();
    pass.add_runs(runs);
    if probe {
        let mut probe_wall = 0.0;
        if !acked.is_empty() {
            // Read-back probe: the new runs, queried once the writers are
            // done (nothing reads while they write), by two clients that
            // send half the queries each.
            let started = Instant::now();
            let n = Until::Count(p.probe_queries * QueryKind::ALL.len() / 2);
            let outs: Vec<(Vec<QuerySample>, Tracer)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2u64)
                    .map(|c| {
                        let acked = acked.clone();
                        let addr = &daemon.addr;
                        s.spawn(move || {
                            let stream = 1000 + 2 * slice as u64 + c;
                            let mut gen = QueryGen::new(p.seed, stream, acked);
                            let mut t = Tracer::when(traced, origin, 2 + c);
                            let q = query_loop(addr, &mut gen, INGEST_WF, n, slicer, &mut t);
                            (q, t)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("probe client panicked")).collect()
            });
            probe_wall = started.elapsed().as_secs_f64();
            let mut q = Vec::new();
            for (qs, t) in outs {
                q.extend(qs);
                pass.tracers.push(t);
            }
            let all: Vec<u64> = daemon.store.runs().iter().map(|r| r.id.0).collect();
            let mut verifier = Verifier::new(&daemon.store, all);
            if traced && slice == 0 {
                replay_sample(&daemon, &q, INGEST_WF, p, pass)?;
            }
            pass.add_queries(q, &mut verifier);
        }
        pass.query_walls.push(probe_wall);
    }
    pass.tally = pass.tally.plus(&daemon.tally().since(&before));
    daemon.shutdown()?;
    // What the drained round left in the allocator is not the next
    // round's: hand it back, so the peak resident set is that of the
    // largest round and not of how the garbage happened to pile up.
    env::release_free_heap();
    Ok(())
}

/// The measured window of `ingest_fresh`: rounds with a read-back probe
/// (see [`round`]) until the time is used. Each round is a slice.
fn rounds(p: &Params, traced: bool, origin: Instant) -> Result<Pass, String> {
    let writer = Writer::testbed(p.ingest_l, INGEST_WF);
    let mut gens = [0, 1].map(|w| RunGen::new(p.seed, w, &p.ingest_ds));
    let end = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut pass = Pass::default();
    let mut slice = 0;
    while slice == 0 || Instant::now() < end {
        round(p, &writer, &mut gens, slice, true, traced, origin, &mut pass)?;
        slice += 1;
    }
    Ok(pass)
}

/// Starts and drains `n` daemons on fresh, empty databases.
fn fresh_starts(n: usize) -> Result<Vec<Setup>, String> {
    let mut setups = Vec::new();
    for _ in 0..n {
        let dir = TempDir::new("fresh-start")?;
        let (daemon, setup) = Daemon::start(&dir.path().join("prov.wal"))?;
        setups.push(setup);
        daemon.shutdown()?;
    }
    Ok(setups)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Round-trip latencies of the answered queries of one type, in µs.
fn query_latencies_us(queries: &[QuerySample], kind: QueryKind) -> Vec<f64> {
    queries
        .iter()
        .filter(|q| q.spec.kind == kind && q.answers.is_ok())
        .map(|q| us(q.rt_ns))
        .collect()
}

/// Groups `(slice, value)` pairs by slice.
fn by_slice(samples: impl Iterator<Item = (usize, f64)>) -> BTreeMap<usize, Vec<f64>> {
    let mut slices: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slice, x) in samples {
        slices.entry(slice).or_default().push(x);
    }
    slices
}

/// The `q`-quantile of each slice's values, then the median over the
/// slices that have any.
fn sliced_quantile(samples: impl Iterator<Item = (usize, f64)>, q: f64) -> f64 {
    let per: Vec<f64> = by_slice(samples).values().map(|xs| quantile(xs, q)).collect();
    median(&per)
}

/// Each slice's total of `samples` divided by the slice's wall time,
/// then the median over the slices that ran.
fn sliced_rate(samples: impl Iterator<Item = (usize, f64)>, walls: &[f64]) -> f64 {
    let totals = by_slice(samples);
    let rates: Vec<f64> = walls
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0)
        .map(|(k, &w)| totals.get(&k).map_or(0.0, |xs| xs.iter().sum::<f64>()) / w)
        .collect();
    median(&rates)
}

/// The query-side end-to-end metrics of a phase: per slice, then the
/// median over slices.
fn query_values(pass: &Pass, v: &mut Values) {
    let names = [
        (QueryKind::Ni, "query_ni_p50_us", "query_ni_p90_us"),
        (QueryKind::Ip, "query_ip_p50_us", "query_ip_p90_us"),
        (QueryKind::Multi, "query_multi_p50_us", "query_multi_p90_us"),
    ];
    let answered = || pass.queries.iter().filter(|q| q.answers.is_ok());
    for (kind, p50, p90) in names {
        let lat =
            || answered().filter(move |q| q.spec.kind == kind).map(|q| (q.slice, us(q.rt_ns)));
        v.set(p50, sliced_quantile(lat(), 0.5));
        v.set(p90, sliced_quantile(lat(), 0.9));
    }
    v.set("queries_per_s", sliced_rate(answered().map(|q| (q.slice, 1.0)), &pass.query_walls));
}

/// The ingest-side end-to-end metrics of a phase: per slice, then the
/// median over slices (`wal_bytes_per_record` over the whole phase).
fn ingest_values(pass: &Pass, v: &mut Values) {
    let ok = || pass.runs.iter().filter(|r| r.ok);
    let lat = || ok().map(|r| (r.slice, ms(r.latency_ns)));
    v.set("ingest_run_p50_ms", sliced_quantile(lat(), 0.5));
    v.set("ingest_run_p90_ms", sliced_quantile(lat(), 0.9));
    let records = || ok().map(|r| (r.slice, r.records as f64));
    v.set("ingest_records_per_s", sliced_rate(records(), &pass.ingest_walls));
    let total: u64 = ok().map(|r| r.records).sum();
    v.set("wal_bytes_per_record", pass.ingest_tally.wal_bytes as f64 / total.max(1) as f64);
}

/// The per-layer metrics of the ingest path, from a traced phase's spans.
fn ingest_layer_values(pass: &Pass, replay: &IngestReplay, v: &mut Values) {
    let collect = |f: &dyn Fn(&Tracer) -> Vec<u64>| -> Vec<f64> {
        pass.tracers.iter().flat_map(f).map(|ns| ns as f64).collect()
    };
    v.set("engine.run_self_ms", median(&collect(&|t| t.self_times_ns("ingest.testbed_run"))) / 1e6);
    v.set("serve.connect_us", median(&collect(&|t| t.self_times_ns("ingest.connect"))) / 1e3);
    v.set(
        "serve.sink_batch_us",
        median(&collect(&|t| t.totals_by_request_ns("ingest.batch"))) / 1e3,
    );
    v.set("serve.finish_ms", median(&collect(&|t| t.self_times_ns("ingest.finish"))) / 1e6);
    v.set("serve.backpressure_waits", pass.ingest_tally.backpressure_waits as f64);
    v.set("serve.ingest_batches", pass.ingest_tally.ingest_batches as f64);
    v.set("wire.decode_us_per_frame", replay.decode_us_per_frame);
    v.set("wire.encode_us_per_frame", replay.encode_us_per_frame);
    v.set("wire.frame_kib", replay.frame_kib);
    v.set("store.record_batch_us_per_event", replay.record_batch_us_per_event);
    let syncs: Vec<f64> = pass.sync_p50s.iter().map(|&x| x as f64).collect();
    v.set("wal.sync_p50_us", median(&syncs));
    let records: u64 = pass.runs.iter().filter(|r| r.ok).map(|r| r.records).sum();
    v.set("wal.records_per_sync", records as f64 / pass.ingest_tally.wal_syncs.max(1) as f64);
}

/// The per-layer metrics of the query path, from the replays.
fn query_layer_values(replays: &[QueryReplay], v: &mut Values) {
    let of = |kind: Option<QueryKind>, f: &dyn Fn(&QueryReplay) -> f64| -> f64 {
        let xs: Vec<f64> =
            replays.iter().filter(|r| kind.is_none_or(|k| r.kind == k)).map(f).collect();
        median(&xs)
    };
    let ip_like: Vec<&QueryReplay> = replays.iter().filter(|r| r.kind != QueryKind::Ni).collect();
    let load: Vec<f64> = ip_like.iter().map(|r| us(r.stages.load_ns)).collect();
    let plan: Vec<f64> = ip_like.iter().map(|r| us(r.stages.plan_ns)).collect();
    v.set("dataflow.load_us", median(&load));
    v.set("core.plan_us", median(&plan));
    v.set("core.parse_us", of(None, &|r| us(r.stages.parse_ns)));
    v.set("core.render_us", of(None, &|r| us(r.stages.render_ns)));
    let per_kind: [(QueryKind, [&'static str; 4]); 3] = [
        (
            QueryKind::Ni,
            [
                "store.records_read_per_query.ni",
                "store.index_lookups_per_query.ni",
                "core.execute_us.ni",
                "serve.residual_us.ni",
            ],
        ),
        (
            QueryKind::Ip,
            [
                "store.records_read_per_query.ip",
                "store.index_lookups_per_query.ip",
                "core.execute_us.ip",
                "serve.residual_us.ip",
            ],
        ),
        (
            QueryKind::Multi,
            [
                "store.records_read_per_query.multi",
                "store.index_lookups_per_query.multi",
                "core.execute_us.multi",
                "serve.residual_us.multi",
            ],
        ),
    ];
    for (kind, [read, lookups, exec, residual]) in per_kind {
        let k = Some(kind);
        v.set(read, of(k, &|r| r.records_read as f64));
        v.set(lookups, of(k, &|r| r.index_lookups as f64));
        v.set(exec, of(k, &|r| us(r.stages.execute_ns)));
        v.set(residual, of(k, &|r| r.residual_ns as f64 / 1e3));
    }
}

/// Median relative change of the latency medians from `untraced` to
/// `traced`.
fn overhead(untraced: &Values, traced: &Values) -> f64 {
    let names = ["query_ni_p50_us", "query_ip_p50_us", "query_multi_p50_us", "ingest_run_p50_ms"];
    let changes: Vec<f64> = names
        .iter()
        .filter_map(|n| match (untraced.get(n), traced.get(n)) {
            (Some(a), Some(b)) if a > 0.0 && b > 0.0 => Some((b - a) / a),
            _ => None,
        })
        .collect();
    median(&changes)
}

/// The window's end-to-end values, for the overhead comparison.
fn window_values(pass: &Pass) -> Values {
    let mut v = Values::default();
    query_values(pass, &mut v);
    ingest_values(pass, &mut v);
    v
}

/// Runs the workload `p` describes; `traced` selects the per-layer run.
pub fn run(p: &Params, traced: bool) -> Result<Report, String> {
    let origin = Instant::now();
    let dir = TempDir::new(p.workload.name())?;
    let mut passes: Vec<Pass> = Vec::new();
    // The measured daemon is the first start after the preload: further
    // starts (for the set-up median) come after the window, so the heap
    // the window's resident set is read from has the same history in
    // every run.
    let (untraced, traced_pass, setups, peak_rss) = match p.workload {
        Workload::QueryFig6 | Workload::MixedRw => {
            let window =
                if p.workload == Workload::QueryFig6 { query_window } else { mixed_window };
            let db = dir.path().join("prov.wal");
            let pre = preload(p, &db, traced, origin)?;
            let (daemon, first) = Daemon::start(&db)?;
            env::reset_peak_rss();
            let a = window(p, &daemon, false, origin)?;
            let b = if traced { Some(window(p, &daemon, true, origin)?) } else { None };
            let peak = env::peak_rss_mb();
            daemon.shutdown()?;
            let mut setups = vec![first];
            for _ in 1..p.setup_reps {
                let (daemon, setup) = Daemon::start(&db)?;
                setups.push(setup);
                daemon.shutdown()?;
            }
            passes.push(pre);
            (a, b, setups, peak)
        }
        Workload::IngestFresh => {
            env::reset_peak_rss();
            let a = rounds(p, false, origin)?;
            let b = if traced { Some(rounds(p, true, origin)?) } else { None };
            let peak = env::peak_rss_mb();
            let mut setups = b.as_ref().unwrap_or(&a).setups.clone();
            setups.extend(fresh_starts(20 * p.setup_reps)?);
            (a, b, setups, peak)
        }
    };
    // passes: [preload?, untraced window, traced window?]
    passes.push(untraced);
    let untraced_idx = passes.len() - 1;
    if let Some(b) = traced_pass {
        passes.push(b);
    }
    let last = passes.len() - 1;

    let attempted: u64 = passes.iter().map(Pass::attempted).sum();
    let wrong: u64 = passes.iter().map(|x| x.wrong).sum();
    let failed: u64 = wrong + passes.iter().map(|x| x.failed).sum::<u64>();
    let mut values = Values::default();
    let ingest_pass = &passes[last];
    if traced {
        let window = &passes[last];
        let replay_writer = Writer::testbed(p.ingest_l, INGEST_WF);
        let ingest_replay = replay_ingest(&replay_writer, &p.ingest_ds, dir.path())?;
        ingest_layer_values(ingest_pass, &ingest_replay, &mut values);
        query_layer_values(&window.replays, &mut values);
        let opens: Vec<f64> = setups.iter().map(|s| s.open_s).collect();
        values.set("store.open_s", median(&opens));
        let all = passes.iter().fold(Tally::default(), |acc, x| acc.plus(&x.tally));
        values.set("serve.request_timeouts", all.request_timeouts as f64);
        values.set("serve.conns_refused", all.conns_refused as f64);
        let ops = (all.queries + all.ingest_batches).max(1) as f64;
        values.set("obs.journal_events_per_op", all.journal_events as f64 / ops);
        values.set("obs.journal_dropped", all.journal_dropped as f64);
        let a = window_values(&passes[untraced_idx]);
        let b = window_values(window);
        values.set("trace.overhead_frac", overhead(&a, &b));
        values.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    } else {
        let window = &passes[untraced_idx];
        let setup: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
        values.set("setup_s", median(&setup));
        query_values(window, &mut values);
        ingest_values(ingest_pass, &mut values);
        values.set("peak_rss_mb", peak_rss);
    }
    let context = context_json(p, traced, &passes, untraced_idx, ingest_pass, setups.len());
    let mut tracers = Vec::new();
    let mut replays = Vec::new();
    for pass in passes {
        tracers.extend(pass.tracers);
        replays.extend(pass.replays);
    }
    Ok(Report { correct: wrong == 0, attempted, failed, values, context, tracers, replays })
}

fn context_json(
    p: &Params,
    traced: bool,
    passes: &[Pass],
    window: usize,
    ingest: &Pass,
    setups: usize,
) -> String {
    let w = &passes[window];
    let count = |k: QueryKind| query_latencies_us(&w.queries, k).len();
    let ds: Vec<String> = p.ingest_ds.iter().map(ToString::to_string).collect();
    format!(
        concat!(
            "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"nproc\": {}, \"commit\": \"{}\", \"clients\": 2, ",
            "\"params\": {{\"preload_l\": {}, \"preload_d\": {}, \"preload_runs\": {}, ",
            "\"ingest_l\": {}, \"ingest_ds\": [{}], \"round_runs\": {}, \"probe_queries\": {}, ",
            "\"setup_reps\": {}, \"replay_per_kind\": {}, \"think_ms\": {}, \"slice_s\": {}}}, ",
            "\"samples\": {{\"query_ni\": {}, \"query_ip\": {}, \"query_multi\": {}, ",
            "\"ingest_runs\": {}, \"setups\": {}, \"replays\": {}, ",
            "\"query_slices\": {}, \"ingest_slices\": {}}}}}}}"
        ),
        p.workload.name(),
        p.seed,
        p.seconds,
        traced,
        env::nproc(),
        env::commit(),
        p.preload_l,
        p.preload_d,
        p.preload_runs,
        p.ingest_l,
        ds.join(", "),
        p.round_runs,
        p.probe_queries,
        p.setup_reps,
        p.replay_per_kind,
        p.think_ms,
        p.slice_s,
        count(QueryKind::Ni),
        count(QueryKind::Ip),
        count(QueryKind::Multi),
        ingest.runs.iter().filter(|r| r.ok).count(),
        setups,
        passes.iter().map(|x| x.replays.len()).sum::<usize>(),
        w.query_walls.iter().filter(|&&s| s > 0.0).count(),
        ingest.ingest_walls.iter().filter(|&&s| s > 0.0).count(),
    )
}
