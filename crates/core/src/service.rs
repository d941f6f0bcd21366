//! The one query path: resolve the workflow, plan once (phase *s1*),
//! probe each run (phase *s2*), and hand back answers for the caller to
//! render.
//!
//! The CLI (`query`, `lineage`, `impact`, `profile`), the daemon's QUERY
//! handler and the replica's query listener all answer through
//! [`execute`], so a served, replicated or local answer is the same
//! computation rendered by the same [`LineageAnswer`] `Display`. Every
//! execution runs under the caller's [`QueryCtx`] (trace id, deadline),
//! stamped here with the query's fingerprint and — for INDEXPROJ — the
//! cost model's prediction, so drift is checked whichever front end
//! asked.

use std::hash::{Hash, Hasher};
use std::str::FromStr;

use prov_dataflow::Dataflow;
use prov_model::{ProcessorName, RunId};
use prov_obs::{Obs, QueryCtx};
use prov_store::TraceStore;

use crate::{
    parse_query, CoreError, IndexProj, LineageAnswer, NaiveImpact, NaiveLineage, ParsedQuery,
    PlanCache, Result,
};

/// Which runs a query covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runs {
    /// One run.
    One(RunId),
    /// Every run in the store, in id order (§3.4 multi-run queries).
    All,
}

impl Runs {
    /// The selected run ids, in id order.
    pub fn resolve(self, store: &TraceStore) -> Vec<RunId> {
        match self {
            Runs::One(run) => vec![run],
            Runs::All => store.runs().iter().map(|i| i.id).collect(),
        }
    }
}

/// The lineage algorithm. Impact queries have a single (forward NI)
/// algorithm and ignore this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The naïve provenance-graph traversal (§2.4).
    Ni,
    /// The paper's index-projection algorithm (§3.3).
    IndexProj,
}

impl FromStr for Algo {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "ni" => Ok(Algo::Ni),
            "indexproj" => Ok(Algo::IndexProj),
            other => Err(CoreError::UnknownAlgo { algo: other.to_string() }),
        }
    }
}

/// Where INDEXPROJ gets the workflow spec it plans against.
#[derive(Debug, Clone)]
pub enum Workflow<'a> {
    /// From the store's registry: the named spec, or the only one
    /// registered when no name is given ([`registered_workflow`]).
    Registered(Option<String>),
    /// A spec the caller already holds (the CLI's `--workflow FILE`).
    Given(&'a Dataflow),
}

/// One query to answer.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// The parsed query.
    pub query: ParsedQuery,
    /// The runs it covers.
    pub runs: Runs,
    /// The lineage algorithm.
    pub algo: Algo,
    /// The workflow spec source (used by INDEXPROJ only).
    pub workflow: Workflow<'a>,
}

impl Request<'static> {
    /// A request from the fields the daemon's and the replica's query
    /// frames share: the query text, the run selection, the algorithm
    /// name and an optional registered workflow name.
    pub fn from_wire(
        query: &str,
        run: u64,
        all_runs: bool,
        algo: &str,
        wf: Option<String>,
    ) -> Result<Self> {
        Ok(Request {
            query: parse_query(query)?,
            runs: if all_runs { Runs::All } else { Runs::One(RunId(run)) },
            algo: algo.parse()?,
            workflow: Workflow::Registered(wf),
        })
    }
}

/// What [`execute`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// INDEXPROJ's plan size (trace lookups per run); `None` for NI and
    /// impact queries, which have no plan.
    pub plan_steps: Option<usize>,
    /// One answer per selected run, in run order.
    pub answers: Vec<LineageAnswer>,
}

impl Response {
    /// The answers in the CLI's rendering — what the daemon and the
    /// replica put on the wire.
    pub fn rendered(&self) -> Vec<String> {
        self.answers.iter().map(ToString::to_string).collect()
    }
}

/// Loads a workflow spec from the store's registry: `name` if given,
/// otherwise the only registered one.
pub fn registered_workflow(store: &TraceStore, name: Option<&str>) -> Result<Dataflow> {
    let name = match name {
        Some(n) => ProcessorName::from(n),
        None => match store.workflow_names().as_slice() {
            [only] => only.clone(),
            [] => return Err(CoreError::NoWorkflow),
            many => {
                return Err(CoreError::AmbiguousWorkflow {
                    names: many.iter().map(ToString::to_string).collect(),
                })
            }
        },
    };
    let json = store
        .workflow_json(&name)
        .ok_or_else(|| CoreError::UnknownWorkflow { name: name.to_string() })?;
    Ok(Dataflow::from_json(&json)?)
}

/// The fingerprint journal events and the slow-query log group by; for
/// lineage queries it is the plan cache's key.
fn fingerprint(query: &ParsedQuery) -> u64 {
    match query {
        ParsedQuery::Lineage(q) => PlanCache::fingerprint(q),
        ParsedQuery::Impact(q) => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        }
    }
}

/// Answers `req` against `store` under `ctx`. An empty run selection
/// answers nothing. A passed deadline surfaces as
/// [`CoreError::DeadlineExceeded`].
pub fn execute(
    store: &TraceStore,
    req: &Request<'_>,
    obs: &Obs,
    ctx: QueryCtx,
) -> Result<Response> {
    let runs = req.runs.resolve(store);
    let ctx = ctx.with_fingerprint(fingerprint(&req.query));
    let query = match &req.query {
        ParsedQuery::Impact(query) => {
            let impact = NaiveImpact::new();
            let answers = runs
                .iter()
                .map(|&run| impact.run_ctx(store, run, query, obs, &ctx))
                .collect::<Result<_>>()?;
            return Ok(Response { plan_steps: None, answers });
        }
        ParsedQuery::Lineage(query) => query,
    };
    match req.algo {
        Algo::Ni => {
            let answers = NaiveLineage::new().run_multi_ctx(store, &runs, query, obs, &ctx)?;
            Ok(Response { plan_steps: None, answers })
        }
        Algo::IndexProj => {
            let loaded;
            let df = match &req.workflow {
                Workflow::Given(df) => *df,
                Workflow::Registered(name) => {
                    loaded = registered_workflow(store, name.as_deref())?;
                    &loaded
                }
            };
            // Explain rather than bare plan, so the cost model's
            // prediction (grounded in the first run's statistics, read
            // from one pinned view) rides along and drift is detectable.
            let first = runs.first().map(|&run| store.pin(run));
            let ex = IndexProj::new(df).explain_with(
                query,
                &store.index_catalog(),
                |step, id| {
                    first.as_ref().map(|v| v.port_cardinality(id, &step.processor, &step.port))
                },
                obs,
            )?;
            // Unpin before executing: a live pin makes a concurrent write
            // to the run copy its shard.
            drop(first);
            let ctx =
                ctx.with_prediction(ex.cost.index_lookups, ex.cost.rows_scanned, ex.cost.grounded);
            let answers = ex.plan.execute_multi_ctx(store, &runs, obs, &ctx)?;
            Ok(Response { plan_steps: Some(ex.plan.steps.len()), answers })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use prov_engine::{PortBinding, TraceSink, XformEvent};
    use prov_model::{Index, Value};
    use prov_obs::TimeSource;
    use prov_workgen::testbed;

    const LIN: &str = "lin(<2TO1_FINAL:Y[0,0]>, {LISTGEN_1})";

    #[derive(Debug)]
    struct Frozen(AtomicU64);
    impl TimeSource for Frozen {
        fn now_micros(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn seeded_store() -> (TraceStore, RunId) {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&ProcessorName::from("wf"));
        store.record_xform(
            run,
            XformEvent {
                processor: ProcessorName::from("P"),
                invocation: 0,
                inputs: vec![PortBinding::new("x", Index::empty(), Value::str("in"))],
                outputs: vec![PortBinding::new("y", Index::empty(), Value::str("out"))],
            },
        );
        (store, run)
    }

    /// A store holding one testbed run, with `registered` spec names.
    fn testbed_store(registered: &[&str]) -> (Dataflow, TraceStore) {
        let df = testbed::generate(2);
        let store = TraceStore::in_memory();
        testbed::run(&df, 2, &store);
        for name in registered {
            store.register_workflow(&(*name).into(), serde_json::to_string(&df).unwrap());
        }
        (df, store)
    }

    fn run_wire(store: &TraceStore, query: &str, algo: &str, wf: Option<&str>) -> Result<Response> {
        let req = Request::from_wire(query, 0, false, algo, wf.map(str::to_string))?;
        execute(store, &req, &Obs::disabled(), QueryCtx::new(query))
    }

    #[test]
    fn naive_lineage_answers_in_the_cli_rendering() {
        let (store, _) = seeded_store();
        let out = run_wire(&store, "lin(<P:y[]>)", "ni", None).unwrap().rendered();
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("run:"), "answer uses the CLI rendering: {}", out[0]);
    }

    #[test]
    fn an_expired_clock_deadline_is_a_typed_timeout() {
        let (store, run) = seeded_store();
        // Deadline already in the past on the injected clock.
        let clock = Arc::new(Frozen(AtomicU64::new(10_000)));
        let ctx = QueryCtx::new("q").with_clock_deadline(clock, 1);
        let req = Request::from_wire("lin(<P:y[]>)", run.0, false, "ni", None).unwrap();
        let err = execute(&store, &req, &Obs::disabled(), ctx).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn parse_failures_are_plain_failures_not_timeouts() {
        let (store, _) = seeded_store();
        let err = run_wire(&store, "not a query", "ni", None).unwrap_err();
        assert!(matches!(err, CoreError::Parse(_)), "got {err:?}");
    }

    #[test]
    fn an_unknown_algorithm_is_a_typed_error() {
        let err = "fast".parse::<Algo>().unwrap_err();
        assert_eq!(err.to_string(), r#"unknown algorithm "fast" (use ni or indexproj)"#);
        let (_, store) = testbed_store(&["testbed"]);
        let err = run_wire(&store, LIN, "fast", None).unwrap_err();
        assert!(matches!(err, CoreError::UnknownAlgo { .. }), "got {err:?}");
    }

    #[test]
    fn no_registered_workflow_is_a_typed_error() {
        let (_, store) = testbed_store(&[]);
        let err = run_wire(&store, LIN, "indexproj", None).unwrap_err();
        assert!(matches!(err, CoreError::NoWorkflow), "got {err:?}");
        // NI needs no spec.
        assert_eq!(run_wire(&store, LIN, "ni", None).unwrap().answers.len(), 1);
    }

    #[test]
    fn exactly_one_registered_workflow_is_used_unnamed() {
        let (df, store) = testbed_store(&["testbed"]);
        let served = run_wire(&store, LIN, "indexproj", None).unwrap();
        let ni = run_wire(&store, LIN, "ni", None).unwrap();
        let ParsedQuery::Lineage(query) = parse_query(LIN).unwrap() else { unreachable!() };
        let steps = IndexProj::new(&df).plan(&query).unwrap().steps.len();
        assert_eq!(served.plan_steps, Some(steps));
        assert_eq!(served.answers[0].bindings, ni.answers[0].bindings);
        assert!(!ni.answers[0].bindings.is_empty());
    }

    #[test]
    fn several_registered_workflows_need_a_name() {
        let (_, store) = testbed_store(&["testbed", "other"]);
        let err = run_wire(&store, LIN, "indexproj", None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "the database registers 2 workflows (other, testbed); name one (wf / --wf NAME)"
        );
        assert!(run_wire(&store, LIN, "indexproj", Some("testbed")).is_ok());
    }

    #[test]
    fn an_unknown_workflow_name_is_a_typed_error() {
        let (_, store) = testbed_store(&["testbed"]);
        let err = run_wire(&store, LIN, "indexproj", Some("nope")).unwrap_err();
        assert_eq!(err.to_string(), r#"workflow "nope" is not registered in the database"#);
    }

    #[test]
    fn a_given_workflow_bypasses_the_registry() {
        let (df, store) = testbed_store(&["testbed", "other"]);
        let req = Request {
            query: parse_query(LIN).unwrap(),
            runs: Runs::All,
            algo: Algo::IndexProj,
            workflow: Workflow::Given(&df),
        };
        let out = execute(&store, &req, &Obs::disabled(), QueryCtx::new(LIN)).unwrap();
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn an_empty_run_set_answers_nothing() {
        let df = testbed::generate(2);
        let store = TraceStore::in_memory();
        for algo in [Algo::Ni, Algo::IndexProj] {
            let req = Request {
                query: parse_query(LIN).unwrap(),
                runs: Runs::All,
                algo,
                workflow: Workflow::Given(&df),
            };
            let out = execute(&store, &req, &Obs::disabled(), QueryCtx::new(LIN)).unwrap();
            assert!(out.answers.is_empty(), "{algo:?}: {out:?}");
        }
    }

    #[test]
    fn impact_queries_answer_per_run() {
        let (_, store) = testbed_store(&[]);
        let out = run_wire(&store, "impact(<testbed:ListSize[]>, {testbed})", "ni", None).unwrap();
        assert_eq!(out.plan_steps, None);
        assert_eq!(out.answers.len(), 1);
    }
}
