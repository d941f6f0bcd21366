//! Structured event journal: a bounded, sharded ring buffer of typed
//! runtime events, the flight recorder under `tprov tail`/`tprov slow`.
//!
//! Where the [`Profiler`](crate::Profiler) aggregates *durations* and the
//! [`Registry`](crate::Registry) aggregates *counts*, the journal keeps
//! the most recent N *individual* events — queries starting and
//! finishing, plan steps with their exact probe counters, WAL syncs,
//! snapshot writes, retries — each stamped with a monotonic timestamp
//! and, for query events, a propagated [`TraceId`]. That is what lets a
//! per-query question ("which of the million queries was slow, and in
//! which plan step?") be answered after the fact without keeping
//! unbounded history.
//!
//! Layout: writers pick a shard by a dense per-thread ordinal, claim a
//! slot with one relaxed `fetch_add` on the shard head, and store the
//! event under that slot's own mutex — never the whole ring's. Distinct
//! threads hit distinct shards, so writers do not contend with each
//! other; a reader ([`Journal::drain`]) walks every slot and restores
//! total order by the global sequence number. When the ring wraps before
//! a drain, the overwritten events are counted in the `journal.dropped`
//! counter rather than silently lost.
//!
//! A disabled journal follows the crate's `Option<Arc>` discipline:
//! construction is free and every [`Journal::record`] is a single `None`
//! branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::metrics::{Counter, Registry};
use crate::profiler::ChromeEvent;

/// Default ring capacity (total slots across shards) when
/// `TPROV_JOURNAL_CAP` is unset.
pub const DEFAULT_JOURNAL_CAP: usize = 65_536;

/// Environment variable overriding the ring capacity.
pub const JOURNAL_CAP_ENV: &str = "TPROV_JOURNAL_CAP";

/// Environment variable holding the slow-query threshold in
/// milliseconds. Unset: no slow-query log. `0`: every query is logged.
pub const SLOW_QUERY_ENV: &str = "TPROV_SLOW_QUERY_MS";

/// Writer shards; threads map onto shards by dense ordinal, so up to
/// this many writer threads never share a head counter or slot mutex.
const SHARDS: usize = 16;

/// An identifier shared by every journal event of one logical query, so a
/// query's events stay separable from those of concurrent queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A process-unique trace id (monotonic, starts at 1).
    pub fn next() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{:06}", self.0)
    }
}

/// A monotonic time source for clock-driven deadline checks.
///
/// The query layer must not read the wall clock directly when a service
/// wants deterministic timeouts: the serve daemon adapts the engine's
/// injectable `Clock` (system or virtual) to this trait, so a
/// `VirtualClock` can force a deadline to pass mid-query without
/// sleeping. Kept deliberately minimal — one method — because `prov-obs`
/// sits below the engine in the dependency order.
pub trait TimeSource: Send + Sync + std::fmt::Debug {
    /// Microseconds since an arbitrary fixed origin.
    fn now_micros(&self) -> u64;
}

/// Per-query execution context threaded through the query layer: the
/// trace id that stamps journal events, an optional deadline, the
/// slow-query threshold, and the static cost prediction (if any) that
/// the observed counters are checked against on completion.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// Trace id stamped on every event of this query.
    pub trace: TraceId,
    /// The query's source text (for `QueryStarted` and the slow log).
    pub query: String,
    /// Plan fingerprint (a stable hash of the query); 0 when unknown.
    pub fingerprint: u64,
    /// Abandon execution once this instant passes (checked between plan
    /// steps / traversal hops).
    pub deadline: Option<Instant>,
    /// Clock-driven deadline: abandon execution once the [`TimeSource`]
    /// reads past the stored microsecond instant. Set by services whose
    /// timeouts must follow an injectable clock rather than `Instant`.
    pub deadline_at: Option<(Arc<dyn TimeSource>, u64)>,
    /// Queries at least this slow are flagged in `QueryFinished`.
    pub slow_threshold: Option<Duration>,
    /// Predicted index lookups from the static cost model.
    pub predicted_lookups: Option<u64>,
    /// Predicted row accesses from the static cost model.
    pub predicted_rows: Option<u64>,
    /// Whether the row prediction was grounded in live cardinalities
    /// (ungrounded predictions are not drift-checked).
    pub rows_grounded: bool,
    /// Tolerance factor for the drift check (observed rows may exceed
    /// `predicted / tolerance`... see `CostEstimate::check`). Defaults to
    /// 10, the CLI's `--tolerance` default.
    pub tolerance: f64,
}

impl QueryCtx {
    /// A fresh context with a new trace id, no deadline, and the slow
    /// threshold taken from `TPROV_SLOW_QUERY_MS`.
    pub fn new(query: impl Into<String>) -> Self {
        QueryCtx {
            trace: TraceId::next(),
            query: query.into(),
            fingerprint: 0,
            deadline: None,
            deadline_at: None,
            slow_threshold: slow_threshold_from_env(),
            predicted_lookups: None,
            predicted_rows: None,
            rows_grounded: false,
            tolerance: 10.0,
        }
    }

    /// Sets the plan fingerprint.
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// Sets a deadline `budget` from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Sets a clock-driven deadline: execution is abandoned between plan
    /// steps once `clock` reads past `deadline_micros`. Unlike
    /// [`QueryCtx::with_deadline`], the check follows the injected time
    /// source, so a virtual clock can expire a request deterministically.
    pub fn with_clock_deadline(mut self, clock: Arc<dyn TimeSource>, deadline_micros: u64) -> Self {
        self.deadline_at = Some((clock, deadline_micros));
        self
    }

    /// Overrides the slow threshold (env-derived by default).
    pub fn with_slow_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.slow_threshold = threshold;
        self
    }

    /// Attaches a static cost prediction for the completion-time drift
    /// check (judged against [`QueryCtx::tolerance`]).
    pub fn with_prediction(mut self, lookups: u64, rows: u64, grounded: bool) -> Self {
        self.predicted_lookups = Some(lookups);
        self.predicted_rows = Some(rows);
        self.rows_grounded = grounded;
        self
    }

    /// Whether the deadline (if any) has passed — the `Instant` deadline
    /// and the clock-driven one are both honoured.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
            || self.deadline_at.as_ref().is_some_and(|(clock, d)| clock.now_micros() > *d)
    }

    /// Whether a query of duration `dur` counts as slow.
    pub fn is_slow(&self, dur: Duration) -> bool {
        self.slow_threshold.is_some_and(|t| dur >= t)
    }
}

/// The slow-query threshold from `TPROV_SLOW_QUERY_MS`, if set.
pub fn slow_threshold_from_env() -> Option<Duration> {
    let raw = std::env::var(SLOW_QUERY_ENV).ok()?;
    raw.trim().parse::<u64>().ok().map(Duration::from_millis)
}

/// One typed journal event. Serialized externally tagged (the variant
/// name keys an object of its fields), which is what `tprov tail
/// --format json` emits per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// A lineage/impact query entered the query layer.
    QueryStarted {
        /// Trace id shared by all of this query's events.
        trace: TraceId,
        /// Query source text.
        query: String,
    },
    /// One plan step (or traversal slice) finished, with the exact probe
    /// counters it incurred — attribution stays per-query even while
    /// other queries probe the same store concurrently.
    PlanStep {
        /// Trace id of the owning query.
        trace: TraceId,
        /// Run the step probed.
        run: u64,
        /// Step ordinal within the plan.
        step: u32,
        /// Index lookups performed by this step.
        index_lookups: u64,
        /// Records materialised by this step.
        records_read: u64,
        /// Rows walked by this step's range scans.
        rows_scanned: u64,
        /// Bindings the step contributed to the answer.
        rows: u64,
        /// Step wall-clock duration.
        dur_ns: u64,
    },
    /// A query finished; totals, t1/t2 split, and the drift verdict.
    QueryFinished {
        /// Trace id of the query.
        trace: TraceId,
        /// Run this execution covered.
        run: u64,
        /// Plan fingerprint (stable hash of the query).
        fingerprint: u64,
        /// Plan steps (or traversal hops) executed.
        steps: u32,
        /// Bindings in the answer.
        bindings: u64,
        /// Graph-traversal / assembly time (the paper's t1).
        t1_ns: u64,
        /// Trace-access time summed over steps (the paper's t2).
        t2_ns: u64,
        /// End-to-end duration.
        dur_ns: u64,
        /// Total index lookups.
        index_lookups: u64,
        /// Total records materialised.
        records_read: u64,
        /// Total rows walked by range scans.
        rows_scanned: u64,
        /// Cost-model prediction, when one was attached.
        predicted_lookups: Option<u64>,
        /// Cost-model row prediction, when one was attached.
        predicted_rows: Option<u64>,
        /// True when observed cost violated the prediction beyond
        /// tolerance (cost-model drift).
        drift: bool,
        /// True when the duration crossed the slow threshold.
        slow: bool,
    },
    /// The engine flushed one ingest batch into the store.
    IngestBatch {
        /// Run the batch belongs to.
        run: u64,
        /// Trace events in the batch.
        records: u64,
    },
    /// The WAL group-committed and fsynced.
    WalSync {
        /// Frames appended since the previous sync.
        frames: u64,
        /// Bytes appended since the previous sync.
        bytes: u64,
    },
    /// A store snapshot was written.
    SnapshotWrite {
        /// Snapshot generation number.
        generation: u64,
        /// Encoded snapshot size.
        bytes: u64,
    },
    /// A processor invocation failed and was retried.
    Retry {
        /// The retried processor.
        processor: String,
        /// 1-based attempt number that failed.
        attempt: u64,
    },
    /// The plan cache had to compile a plan.
    PlanCacheMiss {
        /// Fingerprint of the missed query.
        fingerprint: u64,
    },
    /// A replication primary shipped a chunk of WAL frames to a follower.
    ReplFrameShipped {
        /// Frames in the shipped chunk.
        frames: u64,
        /// Bytes in the shipped chunk (headers included).
        bytes: u64,
        /// WAL offset just past the chunk — the follower's new position.
        offset: u64,
    },
    /// A follower abandoned its local state (divergence, corruption, or a
    /// generation change on the primary) and re-bootstrapped.
    FollowerResync {
        /// WAL generation the follower resynced onto.
        generation: u64,
        /// WAL offset the follower resumed streaming from.
        offset: u64,
        /// Why the resync happened (e.g. `"generation-changed"`,
        /// `"corrupt-frame"`, `"diverged"`).
        reason: String,
    },
    /// The serve daemon admitted a client connection.
    ConnAccepted {
        /// Connections active after the admit (this one included).
        active: u64,
    },
    /// The serve daemon shed a connection at its admission limit — the
    /// client received a typed `busy` refusal rather than queueing.
    ConnRefused {
        /// Connections active at refusal time.
        active: u64,
        /// The admission limit in force.
        limit: u64,
    },
    /// A served request ran past its deadline and was abandoned between
    /// plan steps; the client received a typed `timeout` error.
    RequestTimeout {
        /// Trace id of the abandoned query.
        trace: TraceId,
        /// The request's source text.
        query: String,
        /// The deadline budget that was exceeded, in microseconds.
        deadline_micros: u64,
    },
    /// Graceful shutdown began: the daemon stopped accepting, and live
    /// sessions entered the drain state machine.
    DrainStarted {
        /// Sessions still in flight when the drain began.
        active: u64,
    },
}

impl JournalEvent {
    /// The variant name, e.g. `"PlanStep"`.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::QueryStarted { .. } => "QueryStarted",
            JournalEvent::PlanStep { .. } => "PlanStep",
            JournalEvent::QueryFinished { .. } => "QueryFinished",
            JournalEvent::IngestBatch { .. } => "IngestBatch",
            JournalEvent::WalSync { .. } => "WalSync",
            JournalEvent::SnapshotWrite { .. } => "SnapshotWrite",
            JournalEvent::Retry { .. } => "Retry",
            JournalEvent::PlanCacheMiss { .. } => "PlanCacheMiss",
            JournalEvent::ReplFrameShipped { .. } => "ReplFrameShipped",
            JournalEvent::FollowerResync { .. } => "FollowerResync",
            JournalEvent::ConnAccepted { .. } => "ConnAccepted",
            JournalEvent::ConnRefused { .. } => "ConnRefused",
            JournalEvent::RequestTimeout { .. } => "RequestTimeout",
            JournalEvent::DrainStarted { .. } => "DrainStarted",
        }
    }

    /// The trace id, for query-scoped events.
    pub fn trace(&self) -> Option<TraceId> {
        match self {
            JournalEvent::QueryStarted { trace, .. }
            | JournalEvent::PlanStep { trace, .. }
            | JournalEvent::QueryFinished { trace, .. }
            | JournalEvent::RequestTimeout { trace, .. } => Some(*trace),
            _ => None,
        }
    }

    /// Numeric fields as Chrome-trace args (strings are omitted; the
    /// instant-event `name` already carries the kind).
    pub fn numeric_args(&self) -> Vec<(&'static str, u64)> {
        match self {
            JournalEvent::QueryStarted { trace, .. } => vec![("trace", trace.0)],
            JournalEvent::PlanStep {
                trace,
                run,
                step,
                index_lookups,
                records_read,
                rows_scanned,
                rows,
                dur_ns,
            } => vec![
                ("trace", trace.0),
                ("run", *run),
                ("step", u64::from(*step)),
                ("index_lookups", *index_lookups),
                ("records_read", *records_read),
                ("rows_scanned", *rows_scanned),
                ("rows", *rows),
                ("dur_ns", *dur_ns),
            ],
            JournalEvent::QueryFinished {
                trace,
                run,
                fingerprint,
                steps,
                bindings,
                t1_ns,
                t2_ns,
                dur_ns,
                index_lookups,
                drift,
                slow,
                ..
            } => vec![
                ("trace", trace.0),
                ("run", *run),
                ("fingerprint", *fingerprint),
                ("steps", u64::from(*steps)),
                ("bindings", *bindings),
                ("t1_ns", *t1_ns),
                ("t2_ns", *t2_ns),
                ("dur_ns", *dur_ns),
                ("index_lookups", *index_lookups),
                ("drift", u64::from(*drift)),
                ("slow", u64::from(*slow)),
            ],
            JournalEvent::IngestBatch { run, records } => {
                vec![("run", *run), ("records", *records)]
            }
            JournalEvent::WalSync { frames, bytes } => {
                vec![("frames", *frames), ("bytes", *bytes)]
            }
            JournalEvent::SnapshotWrite { generation, bytes } => {
                vec![("generation", *generation), ("bytes", *bytes)]
            }
            JournalEvent::Retry { attempt, .. } => vec![("attempt", *attempt)],
            JournalEvent::PlanCacheMiss { fingerprint } => vec![("fingerprint", *fingerprint)],
            JournalEvent::ReplFrameShipped { frames, bytes, offset } => {
                vec![("frames", *frames), ("bytes", *bytes), ("offset", *offset)]
            }
            JournalEvent::FollowerResync { generation, offset, .. } => {
                vec![("generation", *generation), ("offset", *offset)]
            }
            JournalEvent::ConnAccepted { active } => vec![("active", *active)],
            JournalEvent::ConnRefused { active, limit } => {
                vec![("active", *active), ("limit", *limit)]
            }
            JournalEvent::RequestTimeout { trace, deadline_micros, .. } => {
                vec![("trace", trace.0), ("deadline_micros", *deadline_micros)]
            }
            JournalEvent::DrainStarted { active } => vec![("active", *active)],
        }
    }
}

/// A journal event with its ring metadata: global sequence number,
/// nanoseconds since the journal origin, and the writer's dense thread
/// ordinal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stamped {
    /// Global sequence number (total order across shards).
    pub seq: u64,
    /// Nanoseconds since the journal's origin instant.
    pub ts_ns: u64,
    /// Dense ordinal of the writing thread.
    pub tid: u64,
    /// The event itself.
    pub event: JournalEvent,
}

#[derive(Debug)]
struct JournalShard {
    head: AtomicU64,
    slots: Vec<Mutex<Option<Stamped>>>,
}

#[derive(Debug)]
struct JournalInner {
    origin: Instant,
    seq: AtomicU64,
    shards: Vec<JournalShard>,
    dropped: Counter,
}

impl JournalInner {
    fn record(&self, event: JournalEvent) {
        let stamped = Stamped {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: self.origin.elapsed().as_nanos() as u64,
            tid: thread_ordinal(),
            event,
        };
        let shard = &self.shards[(stamped.tid as usize) % self.shards.len()];
        let slot = shard.head.fetch_add(1, Ordering::Relaxed) as usize % shard.slots.len();
        let mut cell = shard.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        if cell.replace(stamped).is_some() {
            self.dropped.inc();
        }
    }
}

/// Dense process-wide thread ordinal (0 = first thread to write).
fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(u64::MAX) };
    }
    ORDINAL.with(|c| {
        if c.get() == u64::MAX {
            c.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// A shared handle to the event ring. Cloning shares the same ring; the
/// default handle is disabled and records nothing.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// An enabled journal holding at most `capacity` events, with its
    /// timestamp origin at the current instant.
    pub fn new(capacity: usize) -> Self {
        Journal::with_origin(capacity, Instant::now())
    }

    /// An enabled journal whose timestamps are offsets from `origin` —
    /// pass the profiler's origin so journal instants and profiler spans
    /// share one Chrome-trace timeline.
    pub fn with_origin(capacity: usize, origin: Instant) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        let shards = (0..SHARDS)
            .map(|_| JournalShard {
                head: AtomicU64::new(0),
                slots: (0..per_shard).map(|_| Mutex::new(None)).collect(),
            })
            .collect();
        Journal {
            inner: Some(Arc::new(JournalInner {
                origin,
                seq: AtomicU64::new(0),
                shards,
                dropped: Counter::standalone(),
            })),
        }
    }

    /// An enabled journal sized by `TPROV_JOURNAL_CAP` (default
    /// [`DEFAULT_JOURNAL_CAP`]).
    pub fn from_env() -> Self {
        let cap = std::env::var(JOURNAL_CAP_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_JOURNAL_CAP);
        Journal::new(cap)
    }

    /// A journal that records nothing; every operation is one branch.
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (a single branch when disabled).
    #[inline]
    pub fn record(&self, event: JournalEvent) {
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }

    /// Removes and returns every buffered event in sequence order.
    pub fn drain(&self) -> Vec<Stamped> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &inner.shards {
            for slot in &shard.slots {
                if let Some(e) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    out.push(e);
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Copies every buffered event (without consuming) in sequence order.
    pub fn events(&self) -> Vec<Stamped> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &inner.shards {
            for slot in &shard.slots {
                if let Some(e) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                    out.push(e.clone());
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events overwritten before any drain observed them.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.get())
    }

    /// Registers the drop counter under `journal.dropped`.
    pub fn register_metrics(&self, registry: &Registry) {
        if let Some(inner) = &self.inner {
            registry.adopt_counter("journal.dropped", &inner.dropped);
        }
    }
}

/// Renders journal events as Chrome-trace *instant* events (`ph: "i"`,
/// global scope) so they overlay the profiler's spans on one timeline.
pub fn chrome_instant_events(events: &[Stamped]) -> Vec<ChromeEvent> {
    events
        .iter()
        .map(|e| ChromeEvent {
            name: e.event.kind().to_string(),
            cat: "journal".to_string(),
            ph: "i",
            ts: e.ts_ns as f64 / 1000.0,
            dur: 0.0,
            pid: 1,
            tid: e.tid,
            s: Some("g"),
            args: e.event.numeric_args().into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(trace: TraceId, step: u32) -> JournalEvent {
        JournalEvent::PlanStep {
            trace,
            run: 0,
            step,
            index_lookups: 3,
            records_read: 2,
            rows_scanned: 1,
            rows: 2,
            dur_ns: 10,
        }
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        j.record(step(TraceId(1), 0));
        assert!(!j.is_enabled());
        assert!(j.drain().is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn events_drain_in_sequence_order() {
        let j = Journal::new(1024);
        let t = TraceId::next();
        j.record(JournalEvent::QueryStarted { trace: t, query: "q".into() });
        for i in 0..5 {
            j.record(step(t, i));
        }
        let events = j.drain();
        assert_eq!(events.len(), 6);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert!(matches!(events[0].event, JournalEvent::QueryStarted { .. }));
        // Drain consumes.
        assert!(j.drain().is_empty());
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        // 16 shards * 1 slot: a single-threaded writer cycles one shard.
        let j = Journal::new(16);
        for i in 0..10 {
            j.record(step(TraceId(1), i));
        }
        assert_eq!(j.dropped(), 9);
        let events = j.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 9, "survivor is the most recent event");
        let r = Registry::new();
        j.register_metrics(&r);
        assert_eq!(r.snapshot().counter("journal.dropped"), 9);
    }

    #[test]
    fn concurrent_writers_never_lose_sequence_totality() {
        let j = Journal::new(4096);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let j = j.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        j.record(step(TraceId(7), i));
                    }
                });
            }
        });
        let events = j.drain();
        assert_eq!(events.len(), 400);
        assert_eq!(j.dropped(), 0);
        let seqs: std::collections::HashSet<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 400, "sequence numbers are unique");
    }

    #[test]
    fn stamped_events_roundtrip_through_json() {
        let j = Journal::new(64);
        j.record(JournalEvent::WalSync { frames: 2, bytes: 512 });
        j.record(JournalEvent::Retry { processor: "P".into(), attempt: 1 });
        for e in j.drain() {
            let text = serde_json::to_string(&e).unwrap();
            let back: Stamped = serde_json::from_str(&text).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn instant_events_share_the_span_timeline_shape() {
        let j = Journal::new(64);
        j.record(JournalEvent::SnapshotWrite { generation: 3, bytes: 1024 });
        let events = j.drain();
        let instants = chrome_instant_events(&events);
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].ph, "i");
        assert_eq!(instants[0].s, Some("g"));
        assert_eq!(instants[0].args.get("generation"), Some(&3));
    }

    #[test]
    fn query_ctx_deadline_and_slow_checks() {
        let ctx = QueryCtx::new("lin(x)").with_deadline(Duration::from_secs(3600));
        assert!(!ctx.deadline_exceeded());
        let ctx = ctx.with_slow_threshold(Some(Duration::from_millis(5)));
        assert!(!ctx.is_slow(Duration::from_millis(4)));
        assert!(ctx.is_slow(Duration::from_millis(5)));
        let past = QueryCtx::new("q").with_deadline(Duration::from_nanos(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(past.deadline_exceeded());
    }

    #[test]
    fn clock_driven_deadline_follows_the_injected_source() {
        #[derive(Debug)]
        struct Fake(std::sync::atomic::AtomicU64);
        impl TimeSource for Fake {
            fn now_micros(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
        }
        let clock = Arc::new(Fake(AtomicU64::new(100)));
        let ctx = QueryCtx::new("lin(x)")
            .with_clock_deadline(Arc::clone(&clock) as Arc<dyn TimeSource>, 500);
        assert!(!ctx.deadline_exceeded());
        clock.0.store(501, Ordering::Relaxed);
        assert!(ctx.deadline_exceeded(), "deadline expires when the source advances");
    }

    #[test]
    fn serve_events_have_kinds_and_numeric_args() {
        let events = [
            JournalEvent::ConnAccepted { active: 3 },
            JournalEvent::ConnRefused { active: 8, limit: 8 },
            JournalEvent::RequestTimeout {
                trace: TraceId(7),
                query: "lin(x)".into(),
                deadline_micros: 1_000,
            },
            JournalEvent::DrainStarted { active: 2 },
        ];
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["ConnAccepted", "ConnRefused", "RequestTimeout", "DrainStarted"]);
        for e in &events {
            assert!(!e.numeric_args().is_empty(), "{} carries numeric args", e.kind());
            let text = serde_json::to_string(e).unwrap();
            let back: JournalEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(e, &back);
        }
        assert_eq!(events[2].trace(), Some(TraceId(7)));
    }
}
