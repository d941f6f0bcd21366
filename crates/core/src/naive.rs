//! **NI** — the naïve baseline (§2.4): Def. 1 evaluated by recursive
//! traversal of the provenance graph.
//!
//! Every step retrieves events from the trace store:
//!
//! * *xform* case — invert a processor extensionally by finding the xform
//!   events whose output binding matches the current node; if the
//!   processor is interesting, collect its input bindings (`In_P`); recurse
//!   on every input binding;
//! * *xfer* case — follow arcs backwards (`lin(dst) = lin(src)`).
//!
//! The cost is proportional to the number of provenance-graph nodes on all
//! paths upstream of the query target — including regions that contain no
//! interesting processors at all, which is exactly the waste INDEXPROJ
//! avoids.

use std::collections::HashSet;
use std::sync::Arc;

use prov_model::{Binding, Index, ProcessorName, RunId};
use prov_obs::{JournalEvent, Obs, QueryCtx};
use prov_store::{ReadView, TraceStore};

use crate::{CoreError, LineageAnswer, LineageQuery, Result};

/// The naïve lineage query processor.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveLineage;

impl NaiveLineage {
    /// A query processor (stateless; the struct exists for API symmetry
    /// with [`crate::IndexProj`]).
    pub fn new() -> Self {
        NaiveLineage
    }

    /// Answers `query` over one run.
    pub fn run(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &LineageQuery,
    ) -> Result<LineageAnswer> {
        self.run_pinned(&store.pin(run), query, &Obs::disabled())
    }

    /// Answers `query` against an already-pinned read snapshot
    /// ([`prov_store::TraceStore::pin`]). The whole traversal probes the
    /// immutable view without acquiring any lock, and sees the run's trace
    /// exactly as of the pin even while recording continues.
    ///
    /// One `ni.traverse` span covers the whole traversal, and every popped
    /// node records an `ni.hop` span charging the paper's `t2` account —
    /// the trace accesses that invert one provenance-graph node — tagged
    /// with its distance from the query target (`depth`). `t1` (pure
    /// traversal bookkeeping) is the traverse span minus the sum of its
    /// hops.
    pub fn run_pinned(
        &self,
        view: &ReadView,
        query: &LineageQuery,
        obs: &Obs,
    ) -> Result<LineageAnswer> {
        self.run_pinned_inner(view, query, obs, None)
    }

    fn run_pinned_inner(
        &self,
        view: &ReadView,
        query: &LineageQuery,
        obs: &Obs,
        ctx: Option<&QueryCtx>,
    ) -> Result<LineageAnswer> {
        let started = std::time::Instant::now();
        let run = view.run();
        if let Some(c) = ctx {
            obs.journal
                .record(JournalEvent::QueryStarted { trace: c.trace, query: c.query.clone() });
        }
        // One guard spans the whole traversal: exactly one flush into the
        // shared counters, even if a hop errors out (or the deadline
        // fires) partway through.
        let mut probe = view.probe_guard();
        let mut t2_ns = 0u64;
        let mut traverse = obs.span("ni.traverse", "query");
        let mut visited: HashSet<(ProcessorName, Arc<str>, Index)> = HashSet::new();
        let mut stack: Vec<(ProcessorName, Arc<str>, Index, u64)> = vec![(
            query.target.processor.clone(),
            query.target.port.clone(),
            query.index.clone(),
            0,
        )];
        let mut bindings: Vec<Binding> = Vec::new();
        let mut trace_queries = 0usize;
        let mut max_depth = 0u64;

        while let Some((processor, port, index, depth)) = stack.pop() {
            if !visited.insert((processor.clone(), port.clone(), index.clone())) {
                continue;
            }
            if let Some(c) = ctx {
                if c.deadline_exceeded() {
                    return Err(CoreError::DeadlineExceeded { query: c.query.clone() });
                }
            }
            let hop_start = ctx.map(|_| std::time::Instant::now());
            max_depth = max_depth.max(depth);
            let mut hop = obs.span("ni.hop", "t2");
            hop.arg("depth", depth);

            // xform case: the node as an invocation output.
            trace_queries += 1;
            let producers = view.xforms_producing(&processor, &port, &index, &mut probe);
            let focused = query.focus.contains(&processor);
            for rec in &producers {
                for input in rec.inputs() {
                    if focused {
                        bindings.push(view.resolve(&prov_store::StoredBinding {
                            run,
                            processor: processor.clone(),
                            port: input.port.clone(),
                            index: input.index.clone(),
                            value: input.value,
                        })?);
                    }
                    stack.push((
                        processor.clone(),
                        input.port.clone(),
                        input.index.clone(),
                        depth + 1,
                    ));
                }
            }

            // xfer case: the node as an arc destination.
            trace_queries += 1;
            let incoming = view.xfers_into(&processor, &port, &index, &mut probe);
            for rec in &incoming {
                stack.push((
                    rec.src_processor.clone(),
                    rec.src_port.clone(),
                    rec.src_index.clone(),
                    depth + 1,
                ));
            }

            // Workflow-scope input ports exist in the trace only as xfer
            // *sources*: top-level inputs are true sources (no producers,
            // no incoming transfers), and a nested scope's inputs forward
            // into its own inner processors (names under `scope/`).
            // Collect their bindings when the scope is interesting.
            if focused && producers.is_empty() {
                let is_source = incoming.is_empty();
                let is_scope_input = if is_source {
                    false // already conclusive
                } else {
                    trace_queries += 1;
                    let scope_prefix = format!("{processor}/");
                    view.xfers_from(&processor, &port, &index, &mut probe).iter().any(|r| {
                        r.dst_processor.as_str().starts_with(&scope_prefix)
                            || r.dst_processor == processor
                    })
                };
                if is_source || is_scope_input {
                    trace_queries += 1;
                    for b in view.xfer_src_bindings(&processor, &port, &index, &mut probe) {
                        bindings.push(view.resolve(&b)?);
                    }
                }
            }
            hop.stop();
            if let Some(t) = hop_start {
                t2_ns += t.elapsed().as_nanos() as u64;
            }
        }

        traverse.arg("nodes", visited.len() as u64);
        traverse.arg("max_depth", max_depth);
        traverse.stop();
        if let Some(c) = ctx {
            let dur = started.elapsed();
            let dur_ns = dur.as_nanos() as u64;
            let totals = probe.so_far();
            let actual_rows = totals.records_read + totals.rows_scanned;
            let drift = match (c.predicted_lookups, c.predicted_rows) {
                (Some(lookups), Some(rows)) => {
                    let est = crate::CostEstimate {
                        per_step: vec![],
                        index_lookups: lookups,
                        rows_scanned: rows,
                        grounded: c.rows_grounded,
                    };
                    !est.check(totals.index_lookups, actual_rows, c.tolerance).ok
                }
                _ => false,
            };
            obs.journal.record(JournalEvent::QueryFinished {
                trace: c.trace,
                run: run.0,
                fingerprint: c.fingerprint,
                steps: trace_queries as u32,
                bindings: bindings.len() as u64,
                t1_ns: dur_ns.saturating_sub(t2_ns),
                t2_ns,
                dur_ns,
                index_lookups: totals.index_lookups,
                records_read: totals.records_read,
                rows_scanned: totals.rows_scanned,
                predicted_lookups: c.predicted_lookups,
                predicted_rows: c.predicted_rows,
                drift,
                slow: c.is_slow(dur),
            });
        }
        Ok(LineageAnswer::new(run, bindings, trace_queries, visited.len()))
    }

    /// Answers `query` over several runs. NI shares nothing between runs:
    /// each run costs one full provenance-graph traversal (the behaviour
    /// Fig. 4 contrasts with INDEXPROJ's shared phase s1). Runs are
    /// traversed in order on the calling thread; answers come back in run
    /// order.
    pub fn run_multi(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
    ) -> Result<Vec<LineageAnswer>> {
        self.run_multi_inner(store, runs, query, &Obs::disabled(), None)
    }

    /// [`NaiveLineage::run_multi`] under a [`QueryCtx`]: the traversal's
    /// trace accesses accumulate into query-local counters (journalled as
    /// one `QueryFinished` per run with exact totals — per-hop events
    /// would swamp the ring on deep graphs), the deadline is enforced
    /// between hops, and every run's `QueryStarted`/`QueryFinished` pair
    /// shares the trace id, so per-query totals reassemble from the
    /// journal alone.
    pub fn run_multi_ctx(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<Vec<LineageAnswer>> {
        self.run_multi_inner(store, runs, query, obs, Some(ctx))
    }

    /// Each run's snapshot is pinned once and traversed lock-free.
    fn run_multi_inner(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
        obs: &Obs,
        ctx: Option<&QueryCtx>,
    ) -> Result<Vec<LineageAnswer>> {
        runs.iter().map(|&r| self.run_pinned_inner(&store.pin(r), query, obs, ctx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_engine::{BehaviorRegistry, Engine, TraceSink};
    use prov_model::{PortRef, Value};

    /// in:list → A → B → out, identity stages.
    fn chain_setup() -> (TraceStore, RunId) {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        for name in ["A", "B"] {
            b.processor_with_behavior(name, "identity")
                .in_port("x", PortType::atom(BaseType::String))
                .out_port("y", PortType::atom(BaseType::String));
        }
        b.arc_from_input("in", "A", "x").unwrap();
        b.arc("A", "y", "B", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("B", "y", "out").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let run = Engine::new(BehaviorRegistry::new().with_builtins())
            .execute(&df, vec![("in".into(), Value::from(vec!["u", "v", "w"]))], &store)
            .unwrap()
            .run_id;
        (store, run)
    }

    #[test]
    fn fine_grained_lineage_reaches_the_right_input_element() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert_eq!(ans.bindings.len(), 1);
        assert_eq!(ans.bindings[0].port, PortRef::new("wf", "in"));
        assert_eq!(ans.bindings[0].index, Index::single(1));
        assert_eq!(ans.bindings[0].value, Value::str("v"));
    }

    #[test]
    fn focusing_an_intermediate_processor_collects_its_inputs() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(2),
            [ProcessorName::from("B")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert_eq!(ans.bindings.len(), 1);
        assert_eq!(ans.bindings[0].port, PortRef::new("B", "x"));
        assert_eq!(ans.bindings[0].value, Value::str("w"));
    }

    #[test]
    fn coarse_query_collects_all_elements() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::empty(),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        // All three input elements are in the lineage of the whole output.
        assert_eq!(ans.bindings.len(), 3);
    }

    #[test]
    fn empty_focus_returns_no_bindings_but_still_traverses() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(PortRef::new("wf", "out"), Index::single(0), []);
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert!(ans.bindings.is_empty());
        assert!(ans.nodes_visited > 1);
        assert!(ans.trace_queries > 1);
    }

    #[test]
    fn multi_run_traverses_each_run_independently() {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("A", "identity")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "A", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("A", "y", "out").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let engine = Engine::new(BehaviorRegistry::new().with_builtins());
        let mut runs = Vec::new();
        for tag in ["r0", "r1"] {
            runs.push(
                engine
                    .execute(&df, vec![("in".into(), Value::from(vec![tag]))], &store)
                    .unwrap()
                    .run_id,
            );
        }
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        let answers = NaiveLineage::new().run_multi(&store, &runs, &q).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].bindings[0].value, Value::str("r0"));
        assert_eq!(answers[1].bindings[0].value, Value::str("r1"));
    }

    #[test]
    fn profiled_run_records_traverse_and_hop_spans() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let obs = prov_obs::Obs::enabled();
        let plain = NaiveLineage::new().run(&store, run, &q).unwrap();
        let profiled = NaiveLineage::new().run_pinned(&store.pin(run), &q, &obs).unwrap();
        assert_eq!(plain.bindings, profiled.bindings);
        let spans = obs.profiler.spans();
        let traverses = spans.iter().filter(|s| s.name == "ni.traverse").count();
        let hops: Vec<_> = spans.iter().filter(|s| s.name == "ni.hop").collect();
        assert_eq!(traverses, 1);
        // One hop per visited provenance-graph node.
        assert_eq!(hops.len(), profiled.nodes_visited);
        // Depth args grow from the target (0) along the upstream path.
        let depths: Vec<u64> = hops
            .iter()
            .filter_map(|s| s.args.iter().find(|(k, _)| *k == "depth").map(|(_, v)| *v))
            .collect();
        assert_eq!(depths.len(), hops.len());
        assert!(depths.contains(&0));
        assert!(depths.iter().max().unwrap() >= &2, "chain is at least 3 nodes deep");
    }

    #[test]
    fn querying_a_run_with_no_trace_returns_empty() {
        let (store, _) = chain_setup();
        let ghost = store.begin_run(&"wf".into());
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, ghost, &q).unwrap();
        assert!(ans.bindings.is_empty());
    }
}
