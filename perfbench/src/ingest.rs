//! The writer side: testbed runs streamed to the daemon through
//! `RemoteSink`, one connection per run, as `tprov run --server` does.

use std::sync::Mutex;
use std::time::Instant;

use prov_dataflow::Dataflow;
use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{ProcessorName, RunId};
use prov_serve::RemoteSink;
use prov_store::SharedStore;
use prov_workgen::testbed;

use crate::plan::expected_records;
use crate::trace::Tracer;

/// One ingested run, as the writer saw it.
#[derive(Debug, Clone)]
pub struct RunSample {
    /// The run id the daemon assigned (`u64::MAX` if it never began).
    pub run: u64,
    /// Its list size.
    pub d: usize,
    /// Connect to finish-ack, in nanoseconds.
    pub latency_ns: u64,
    /// Trace records the run holds once durable.
    pub records: u64,
    /// Acked, and the store holds exactly the expected record count.
    pub ok: bool,
    /// Acked, but the store's record count is wrong.
    pub wrong: bool,
    /// The slice of the run it began in (see [`crate::query::Slicer`]).
    pub slice: usize,
}

/// Spans the sink wrapper records for one run.
struct SinkSpans<'t> {
    tracer: &'t mut Tracer,
    parent: u64,
    request: u64,
}

/// Forwards every sink call to the `RemoteSink` and, when traced, records
/// a span around it, so the engine's own time is the run span minus its
/// sink children.
struct TimedSink<'a, 't> {
    inner: &'a RemoteSink,
    enabled: bool,
    spans: Mutex<SinkSpans<'t>>,
}

impl TimedSink<'_, '_> {
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.spans.lock().expect("span buffer lock").tracer.now_ns();
        let out = f();
        let mut s = self.spans.lock().expect("span buffer lock");
        let end = s.tracer.now_ns();
        let (parent, request) = (s.parent, s.request);
        s.tracer.record(name, start, end, Some(parent), request);
        out
    }
}

impl TraceSink for TimedSink<'_, '_> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        self.timed("ingest.begin", || self.inner.begin_run(workflow))
    }

    fn record_xform(&self, run: RunId, event: XformEvent) {
        self.timed("ingest.batch", || self.inner.record_xform(run, event))
    }

    fn record_xfer(&self, run: RunId, event: XferEvent) {
        self.timed("ingest.batch", || self.inner.record_xfer(run, event))
    }

    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        self.timed("ingest.batch", || self.inner.record_batch(run, events))
    }

    fn finish_run(&self, run: RunId) {
        self.timed("ingest.finish", || self.inner.finish_run(run))
    }
}

/// What a writer streams: one workflow, registered with every run.
#[derive(Debug, Clone)]
pub struct Writer {
    /// The testbed dataflow.
    pub df: Dataflow,
    /// Its serialized spec (sent with `INGEST_BEGIN`).
    pub json: String,
    /// Its chain length.
    pub l: usize,
}

impl Writer {
    /// The testbed of chain length `l`, registered under `name`.
    pub fn testbed(l: usize, name: &str) -> Writer {
        let mut df = testbed::generate(l);
        df.name = ProcessorName::from(name);
        let json = serde_json::to_string(&df).expect("a dataflow serializes");
        Writer { df, json, l }
    }

    /// Streams one run of list size `d` to `addr` and checks it on the
    /// daemon's own store handle. The run, its connect, the engine run and
    /// every sink call get spans under request `request`.
    pub fn ingest(
        &self,
        addr: &str,
        d: usize,
        store: &SharedStore,
        t: &mut Tracer,
        request: u64,
    ) -> RunSample {
        let started = Instant::now();
        let mut sample = RunSample {
            run: u64::MAX,
            d,
            latency_ns: 0,
            records: 0,
            ok: false,
            wrong: false,
            slice: 0,
        };
        let run_span = t.reserve();
        let run_start = t.now_ns();
        let sink = RemoteSink::connect(addr, Some(self.json.clone()));
        t.record("ingest.connect", run_start, t.now_ns(), Some(run_span), request);
        let Ok(sink) = sink else {
            sample.latency_ns = started.elapsed().as_nanos() as u64;
            return sample;
        };
        let engine_span = t.reserve();
        let engine_start = t.now_ns();
        let enabled = t.is_enabled();
        let timed = TimedSink {
            inner: &sink,
            enabled,
            spans: Mutex::new(SinkSpans { tracer: t, parent: engine_span, request }),
        };
        let outcome = testbed::run(&self.df, d, &timed);
        let t = timed.spans.into_inner().expect("span buffer lock").tracer;
        let end = t.now_ns();
        sample.latency_ns = started.elapsed().as_nanos() as u64;
        t.record_reserved(
            engine_span,
            "ingest.testbed_run",
            engine_start,
            end,
            Some(run_span),
            request,
        );
        t.record_reserved(run_span, "ingest.run", run_start, end, None, request);
        sample.run = outcome.run_id.0;
        if sink.error().is_some() {
            return sample;
        }
        sample.records = store.trace_record_count(outcome.run_id);
        sample.ok = sample.records == expected_records(self.l, d);
        sample.wrong = !sample.ok;
        sample
    }
}

/// A sink that keeps every event in memory, so the benchmark can rebuild
/// the exact ingest frames a run produces and time each layer on them.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CaptureSink {
    /// The captured events, in recording order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner().expect("capture lock")
    }

    fn push(&self, e: TraceEvent) {
        self.events.lock().expect("capture lock").push(e);
    }
}

impl TraceSink for CaptureSink {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        RunId(0)
    }

    fn record_xform(&self, _run: RunId, event: XformEvent) {
        self.push(TraceEvent::Xform(event));
    }

    fn record_xfer(&self, _run: RunId, event: XferEvent) {
        self.push(TraceEvent::Xfer(event));
    }

    fn finish_run(&self, _run: RunId) {}
}
