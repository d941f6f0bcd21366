//! In-memory spans for traced runs.
//!
//! A span records one call from the benchmark into a layer: its name,
//! start and end (nanoseconds since the run's origin), the span that
//! caused it, and the request it belongs to. Each client thread owns its
//! own [`Tracer`]; nothing is shared or written until the run ends. An
//! untraced run carries a disabled tracer, which reads no clock and
//! records nothing: one branch per call.

use std::collections::HashMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within its tracer.
    pub id: u64,
    /// What was called (`query.ni`, `ingest.connect`, ...).
    pub name: &'static str,
    /// Start, in ns since the run origin.
    pub start_ns: u64,
    /// End, in ns since the run origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (query or ingested run) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for client thread `thread`, timing from `origin`, that
    /// records only if `on`.
    pub fn when(on: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer { enabled: on, origin, thread, next_id: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin (0 when disabled: no clock is read).
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        request: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_reserved(id, name, start_ns, end_ns, parent, request);
        id
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id taken earlier with [`Tracer::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        request: u64,
    ) {
        if self.enabled {
            self.spans.push(Span { id, name, start_ns, end_ns, parent, request });
        }
    }

    /// Self time of every span named `name`: its duration minus the part
    /// its direct children cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns().saturating_sub(covered.get(&s.id).copied().unwrap_or(0)))
            .collect()
    }

    /// Per request, the summed duration of its spans named `name`.
    pub fn totals_by_request_ns(&self, name: &str) -> Vec<u64> {
        let mut by: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by.entry(s.request).or_default() += s.dur_ns();
        }
        by.into_values().collect()
    }

    /// Renders the spans as Chrome trace-event JSON objects (complete
    /// events, microsecond timestamps), one per line.
    pub fn chrome_events(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                    s.name,
                    self.thread,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect()
    }
}
