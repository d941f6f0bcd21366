//! The analyst side: closed-loop query clients and the answer checker.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use prov_core::NaiveLineage;
use prov_model::RunId;
use prov_serve::ServeClient;
use prov_store::TraceStore;
use prov_workgen::testbed;

use crate::plan::{QueryGen, QueryKind, QuerySpec};
use crate::trace::Tracer;

/// One query as its client saw it.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// What was asked.
    pub spec: QuerySpec,
    /// Client round trip, in nanoseconds.
    pub rt_ns: u64,
    /// The served answers, or the client-visible error.
    pub answers: Result<Vec<String>, String>,
    /// The slice of the run it was sent in (see [`Slicer`]).
    pub slice: usize,
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// No new request after this instant (the one in flight completes).
    Deadline(Instant),
    /// After this many requests.
    Count(usize),
}

/// Which slice of a run a sample counts in. Metrics take a statistic
/// per slice and report the median over the slices, so a stretch of
/// host noise that spoils a few slices does not move the result.
#[derive(Debug, Clone, Copy)]
pub enum Slicer {
    /// Every sample in this slice (one round, or a phase of its own).
    Fixed(usize),
    /// `n` equal slices of a window that begins at `start` and lasts `len`.
    Window {
        /// When the window began.
        start: Instant,
        /// How long it lasts.
        len: Duration,
        /// How many slices it is cut into.
        n: usize,
    },
}

impl Slicer {
    /// `n` equal slices of `seconds` from `start`, each close to
    /// `slice_s` long.
    pub fn window(start: Instant, seconds: f64, slice_s: f64) -> Slicer {
        let n = (seconds / slice_s).round().max(1.0) as usize;
        Slicer::Window { start, len: Duration::from_secs_f64(seconds), n }
    }

    /// The slice a sample sent at `at` belongs to.
    pub fn of(&self, at: Instant) -> usize {
        match *self {
            Slicer::Fixed(k) => k,
            Slicer::Window { start, len, n } => {
                let share = at.saturating_duration_since(start).as_secs_f64() / len.as_secs_f64();
                ((share * n as f64) as usize).min(n - 1)
            }
        }
    }

    /// The length of each slice in seconds, for slices cut from a window.
    pub fn slice_seconds(&self) -> Option<Vec<f64>> {
        match *self {
            Slicer::Fixed(_) => None,
            Slicer::Window { len, n, .. } => Some(vec![len.as_secs_f64() / n as f64; n]),
        }
    }
}

/// Runs one closed-loop client on one connection: the next query leaves
/// only after the previous answer arrived. After a failed request the
/// connection is reopened, and the reconnect counts in the next round trip.
pub fn query_loop(
    addr: &str,
    gen: &mut QueryGen,
    wf: &str,
    until: Until,
    slicer: Slicer,
    t: &mut Tracer,
) -> Vec<QuerySample> {
    let mut out = Vec::new();
    let connect_start = t.now_ns();
    let mut client = ServeClient::connect(addr).ok();
    t.record("query.connect", connect_start, t.now_ns(), None, 0);
    loop {
        match until {
            Until::Deadline(end) if Instant::now() >= end => break,
            Until::Count(n) if out.len() >= n => break,
            _ => {}
        }
        let spec = gen.next_query();
        let req = spec.request(wf);
        let request = out.len() as u64;
        let started = Instant::now();
        let span_start = t.now_ns();
        if client.is_none() {
            client = ServeClient::connect(addr).ok();
            t.record("query.connect", span_start, t.now_ns(), None, request);
        }
        let answers = match client.as_mut() {
            Some(c) => c.query(&req).map_err(|e| e.to_string()),
            None => Err("connect failed".to_string()),
        };
        let rt_ns = started.elapsed().as_nanos() as u64;
        let name = match spec.kind {
            QueryKind::Ni => "query.ni",
            QueryKind::Ip => "query.ip",
            QueryKind::Multi => "query.multi",
        };
        t.record(name, span_start, t.now_ns(), None, request);
        if answers.is_err() {
            client = None;
        }
        out.push(QuerySample { spec, rt_ns, answers, slice: slicer.of(started) });
        std::thread::sleep(gen.next_think());
    }
    out
}

/// Checks served answers against in-process NI on the daemon's own store
/// handle. Served NI and INDEXPROJ answers are both compared with the
/// same NI answer, so NI ≡ INDEXPROJ is checked too.
pub struct Verifier<'a> {
    store: &'a TraceStore,
    cache: HashMap<(u64, (usize, usize)), String>,
    multi_runs: Vec<u64>,
}

impl<'a> Verifier<'a> {
    /// A checker whose multi-run answers must cover exactly `multi_runs`
    /// (other runs present at query time, such as a concurrent writer's,
    /// are ignored).
    pub fn new(store: &'a TraceStore, multi_runs: Vec<u64>) -> Verifier<'a> {
        Verifier { store, cache: HashMap::new(), multi_runs }
    }

    fn expected(&mut self, run: u64, p: (usize, usize)) -> String {
        let store = self.store;
        self.cache
            .entry((run, p))
            .or_insert_with(|| {
                let query = testbed::focused_query(&[p.0 as u32, p.1 as u32]);
                match NaiveLineage::new().run(store, RunId(run), &query) {
                    Ok(answer) => answer.to_string(),
                    Err(e) => format!("in-process NI failed: {e}"),
                }
            })
            .clone()
    }

    /// Whether a served answer is right. Failed requests are not judged
    /// here (they count as failures, not as wrong answers).
    pub fn is_correct(&mut self, sample: &QuerySample) -> bool {
        let Ok(answers) = &sample.answers else { return true };
        let spec = &sample.spec;
        if spec.kind != QueryKind::Multi {
            return answers.len() == 1 && answers[0] == self.expected(spec.run, spec.p);
        }
        let wanted: BTreeSet<u64> = self.multi_runs.iter().copied().collect();
        let mut seen = Vec::new();
        for answer in answers {
            let Some(run) = answer_run(answer) else { return false };
            if wanted.contains(&run) {
                if *answer != self.expected(run, spec.p) {
                    return false;
                }
                seen.push(run);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        seen.len() == wanted.len()
    }
}

/// The run an answer is about: rendered answers start with `run:N `.
fn answer_run(answer: &str) -> Option<u64> {
    let rest = answer.strip_prefix("run:")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
