//! Workload parameters and the seeded request sequences.
//!
//! Everything a run sends to the daemon is drawn here from the workload
//! seed: the list size `d` of every ingested run and the type, run and
//! output position of every query. The daemon sees only these generated
//! runs and queries; the same seed always yields the same sequences.

use prov_serve::protocol::ServeQuery;

/// The benchmark's workloads (see the crate docs for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Queries against a preloaded Fig. 6-scale database, which is only
    /// read; ingest rounds into scratch databases between query slices.
    QueryFig6,
    /// Write only, into fresh databases.
    IngestFresh,
    /// One writer beside one querier on the preloaded database.
    MixedRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::QueryFig6, Workload::IngestFresh, Workload::MixedRw];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryFig6 => "query_fig6",
            Workload::IngestFresh => "ingest_fresh",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size knobs of one benchmark run. [`Params::fig6`] is what the
/// command line runs; [`Params::smallest`] is the same shape at toy size,
/// for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which traffic mix to run.
    pub workload: Workload,
    /// Seed of every generated sequence.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Chain length `l` of the preloaded runs.
    pub preload_l: usize,
    /// List size `d` of the preloaded runs.
    pub preload_d: usize,
    /// Number of preloaded runs (4 crosses the multi-run fan-out
    /// threshold of `prov-core`), streamed by two writers, half each.
    pub preload_runs: usize,
    /// Chain length `l` of the runs writers stream during the window.
    pub ingest_l: usize,
    /// The list sizes `d` a writer draws from, uniformly.
    pub ingest_ds: Vec<usize>,
    /// Runs each writer streams per ingest round (one fresh database per
    /// round).
    pub round_runs: usize,
    /// Queries of each type the `ingest_fresh` read-back probe sends per
    /// round, split between its two clients.
    pub probe_queries: usize,
    /// How many times set-up is repeated; `setup_s` is the median. The
    /// query workloads restart their preloaded database this often;
    /// `ingest_fresh` makes twenty times as many starts on empty databases
    /// (a few milliseconds each), besides one per round.
    pub setup_reps: usize,
    /// Requests of each query type replayed stage by stage in a traced run.
    pub replay_per_kind: usize,
    /// Mean think time of a query client in the measured window, in ms.
    pub think_ms: f64,
    /// Length of one `query_fig6` query slice (and target length of a
    /// `mixed_rw` slice), in seconds. Each `ingest_fresh` round is a slice
    /// of its own.
    pub slice_s: f64,
}

impl Params {
    /// The measured configuration: Fig. 6 scale (l = 75, d = 50).
    pub fn fig6(workload: Workload, seed: u64, seconds: f64) -> Params {
        Params {
            workload,
            seed,
            seconds,
            preload_l: 75,
            preload_d: 50,
            preload_runs: 4,
            ingest_l: 10,
            ingest_ds: vec![5, 10, 20],
            round_runs: 8,
            probe_queries: 60,
            setup_reps: 5,
            replay_per_kind: 25,
            think_ms: 10.0,
            slice_s: 4.0,
        }
    }

    /// The same workload shape at the smallest size that still crosses
    /// the multi-run threshold.
    pub fn smallest(workload: Workload, seed: u64) -> Params {
        Params {
            workload,
            seed,
            seconds: 0.3,
            preload_l: 2,
            preload_d: 3,
            preload_runs: 4,
            ingest_l: 2,
            ingest_ds: vec![2, 3],
            round_runs: 2,
            probe_queries: 2,
            setup_reps: 2,
            replay_per_kind: 3,
            think_ms: 1.0,
            slice_s: 0.1,
        }
    }
}

/// The trace-record count one testbed run of chain length `l` and list
/// size `d` leaves in the store: 4·l·d + 2d² + 2d + 2.
pub fn expected_records(l: usize, d: usize) -> u64 {
    (4 * l * d + 2 * d * d + 2 * d + 2) as u64
}

/// SplitMix64: a tiny, well-mixed generator, so the sequences depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct streams of
    /// the same seed are independent.
    pub fn stream(seed: u64, stream: &str, index: u64) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes().chain(index.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three query types of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// Focused NI on one run.
    Ni,
    /// Focused INDEXPROJ on one run.
    Ip,
    /// INDEXPROJ over every run of the store.
    Multi,
}

impl QueryKind {
    /// All kinds, in metric order.
    pub const ALL: [QueryKind; 3] = [QueryKind::Ni, QueryKind::Ip, QueryKind::Multi];

    /// The metric-name suffix.
    pub fn tag(self) -> &'static str {
        match self {
            QueryKind::Ni => "ni",
            QueryKind::Ip => "ip",
            QueryKind::Multi => "multi",
        }
    }
}

/// One generated query: `lin(<2TO1_FINAL:Y[i,j]>, {LISTGEN_1})`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// Which of the three types.
    pub kind: QueryKind,
    /// Target run (ignored by `Multi`).
    pub run: u64,
    /// Output position `p = [i, j]` of the cross product.
    pub p: (usize, usize),
}

impl QuerySpec {
    /// The query text, as an analyst would type it.
    pub fn text(&self) -> String {
        format!("lin(<2TO1_FINAL:Y[{},{}]>, {{LISTGEN_1}})", self.p.0, self.p.1)
    }

    /// The wire request. `wf` names the workflow INDEXPROJ plans against.
    pub fn request(&self, wf: &str) -> ServeQuery {
        ServeQuery {
            query: self.text(),
            run: self.run,
            all_runs: self.kind == QueryKind::Multi,
            algo: if self.kind == QueryKind::Ni { "ni" } else { "indexproj" }.into(),
            wf: Some(wf.into()),
            deadline_ms: None,
        }
    }
}

/// The seeded query sequence of one client: types come in shuffled
/// blocks of three, so every type gets an equal share; each query picks
/// a target run and an output position within that run's list size.
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: Rng,
    runs: Vec<(u64, usize)>,
    block: Vec<QueryKind>,
    think: Option<(Rng, f64)>,
}

impl QueryGen {
    /// The sequence of client `client` over `runs` (run id, list size d).
    pub fn new(seed: u64, client: u64, runs: Vec<(u64, usize)>) -> QueryGen {
        assert!(!runs.is_empty(), "queries need at least one run");
        QueryGen { rng: Rng::stream(seed, "query", client), runs, block: Vec::new(), think: None }
    }

    /// Adds a seeded think time between requests: exponential with mean
    /// `mean_ms`, capped at five times the mean. Without it, two closed-loop
    /// clients with similar service times lock into a phase, and how
    /// their queries overlap (and so the latency median) depends on that
    /// accident.
    pub fn with_think(mut self, seed: u64, client: u64, mean_ms: f64) -> QueryGen {
        self.think = Some((Rng::stream(seed, "think", client), mean_ms));
        self
    }

    /// How long to wait before the next request.
    pub fn next_think(&mut self) -> std::time::Duration {
        let Some((rng, mean_ms)) = &mut self.think else { return std::time::Duration::ZERO };
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let ms = (-(1.0 - u).ln() * *mean_ms).min(5.0 * *mean_ms);
        std::time::Duration::from_secs_f64(ms / 1e3)
    }

    /// The next query.
    pub fn next_query(&mut self) -> QuerySpec {
        if self.block.is_empty() {
            self.block = QueryKind::ALL.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block refilled above");
        let (run, d) = self.runs[self.rng.below(self.runs.len())];
        // A multi-run query's position must exist in every run.
        let d = if kind == QueryKind::Multi {
            self.runs.iter().map(|r| r.1).min().unwrap_or(d)
        } else {
            d
        };
        let p = (self.rng.below(d), self.rng.below(d));
        QuerySpec { kind, run, p }
    }
}

/// The seeded list-size sequence of one writer.
#[derive(Debug, Clone)]
pub struct RunGen {
    rng: Rng,
    ds: Vec<usize>,
}

impl RunGen {
    /// The sequence of writer `writer`.
    pub fn new(seed: u64, writer: u64, ds: &[usize]) -> RunGen {
        RunGen { rng: Rng::stream(seed, "ingest", writer), ds: ds.to_vec() }
    }

    /// The list size of the next run.
    pub fn next_d(&mut self) -> usize {
        self.ds[self.rng.below(self.ds.len())]
    }
}
