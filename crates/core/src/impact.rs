//! Forward (impact) queries — an extension beyond the paper.
//!
//! Lineage asks *"where did this come from?"*; impact asks the dual:
//! *"which downstream data were derived from this element?"*. This is the
//! other standard provenance-challenge question shape (e.g. "which results
//! are tainted by this bad input file?").
//!
//! The implementation mirrors the **NI** baseline, traversing the
//! provenance graph *forwards*: xform events are matched on their input
//! bindings, xfer events followed source→destination. An intensional
//! (INDEXPROJ-style) forward algorithm would need index *patterns*
//! (fragments constrained at statically known offsets, wildcards
//! elsewhere); the backward algorithm suffices for the paper's claims, so
//! the forward direction is provided extensionally only.

use std::collections::HashSet;
use std::sync::Arc;

use prov_model::{Binding, Index, PortRef, ProcessorName, RunId};
use prov_obs::{JournalEvent, Obs, QueryCtx};
use prov_store::{ReadView, TraceStore};

use crate::{CoreError, FocusSet, LineageAnswer, Result};

/// A forward query: starting from element `index` of the value on
/// `source`, collect the bindings at the interesting processors along
/// every *downstream* path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImpactQuery {
    /// The port whose value's downstream impact is asked for (typically a
    /// workflow input).
    pub source: PortRef,
    /// Position within the source value; empty = the whole value.
    pub index: Index,
    /// The interesting processors (bindings are collected on their
    /// *output* side; the workflow name collects workflow outputs).
    pub focus: FocusSet,
}

impl ImpactQuery {
    /// Builds a focused impact query.
    pub fn focused(
        source: PortRef,
        index: Index,
        focus: impl IntoIterator<Item = ProcessorName>,
    ) -> Self {
        ImpactQuery { source, index, focus: FocusSet::from_names(focus) }
    }
}

impl std::fmt::Display for ImpactQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "impact(⟨{}{}⟩, {})", self.source, self.index, self.focus)
    }
}

/// The forward-traversal query processor.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveImpact;

impl NaiveImpact {
    /// A query processor.
    pub fn new() -> Self {
        NaiveImpact
    }

    /// Answers `query` over one run.
    pub fn run(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &ImpactQuery,
    ) -> Result<LineageAnswer> {
        self.run_pinned(&store.pin(run), query)
    }

    /// Answers `query` against an already-pinned read snapshot; the whole
    /// forward traversal is lock-free after the pin.
    pub fn run_pinned(&self, view: &ReadView, query: &ImpactQuery) -> Result<LineageAnswer> {
        self.run_pinned_inner(view, query, &Obs::disabled(), None)
    }

    /// [`NaiveImpact::run`] under a [`QueryCtx`]: journals
    /// `QueryStarted`/`QueryFinished` with the traversal's exact probe
    /// totals and enforces the deadline between hops.
    pub fn run_ctx(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &ImpactQuery,
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<LineageAnswer> {
        self.run_pinned_inner(&store.pin(run), query, obs, Some(ctx))
    }

    fn run_pinned_inner(
        &self,
        view: &ReadView,
        query: &ImpactQuery,
        obs: &Obs,
        ctx: Option<&QueryCtx>,
    ) -> Result<LineageAnswer> {
        let started = std::time::Instant::now();
        let run = view.run();
        if let Some(c) = ctx {
            obs.journal
                .record(JournalEvent::QueryStarted { trace: c.trace, query: c.query.clone() });
        }
        let mut probe = view.probe_guard();
        let mut visited: HashSet<(ProcessorName, Arc<str>, Index)> = HashSet::new();
        let mut stack =
            vec![(query.source.processor.clone(), query.source.port.clone(), query.index.clone())];
        let mut bindings: Vec<Binding> = Vec::new();
        let mut trace_queries = 0usize;

        while let Some(node) = stack.pop() {
            if !visited.insert(node.clone()) {
                continue;
            }
            if let Some(c) = ctx {
                if c.deadline_exceeded() {
                    return Err(CoreError::DeadlineExceeded { query: c.query.clone() });
                }
            }
            let (processor, port, index) = node;
            let focused = query.focus.contains(&processor);

            // Forward xform case: invocations that consumed this binding;
            // their outputs are impacted.
            trace_queries += 1;
            let consumers = view.xforms_consuming(&processor, &port, &index, &mut probe);
            for rec in &consumers {
                // Only invocations whose THIS-port input actually overlaps.
                for output in rec.outputs() {
                    stack.push((processor.clone(), output.port.clone(), output.index.clone()));
                }
            }

            // Forward xfer case: transfers leaving this binding.
            trace_queries += 1;
            let outgoing = view.xfers_from(&processor, &port, &index, &mut probe);
            for rec in &outgoing {
                if query.focus.contains(&rec.dst_processor) {
                    // Collect the impacted element at the destination when
                    // the destination is interesting and is a sink-style
                    // port (workflow outputs never feed an xform).
                    bindings.push(view.resolve(&prov_store::StoredBinding {
                        run,
                        processor: rec.dst_processor.clone(),
                        port: rec.dst_port.clone(),
                        index: rec.dst_index.clone(),
                        value: rec.value,
                    })?);
                }
                stack.push((
                    rec.dst_processor.clone(),
                    rec.dst_port.clone(),
                    rec.dst_index.clone(),
                ));
            }

            // Focused intermediate outputs: collect the produced elements.
            if focused {
                for rec in &consumers {
                    for output in rec.outputs() {
                        bindings.push(view.resolve(&prov_store::StoredBinding {
                            run,
                            processor: processor.clone(),
                            port: output.port.clone(),
                            index: output.index.clone(),
                            value: output.value,
                        })?);
                    }
                }
            }
        }

        if let Some(c) = ctx {
            let dur = started.elapsed();
            let totals = probe.so_far();
            obs.journal.record(JournalEvent::QueryFinished {
                trace: c.trace,
                run: run.0,
                fingerprint: c.fingerprint,
                steps: trace_queries as u32,
                bindings: bindings.len() as u64,
                // The forward traversal interleaves graph bookkeeping and
                // trace access; all time is charged to t2 (trace work
                // dominates, as in the NI baseline).
                t1_ns: 0,
                t2_ns: dur.as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                index_lookups: totals.index_lookups,
                records_read: totals.records_read,
                rows_scanned: totals.rows_scanned,
                predicted_lookups: c.predicted_lookups,
                predicted_rows: c.predicted_rows,
                drift: false,
                slow: c.is_slow(dur),
            });
        }
        Ok(LineageAnswer::new(run, bindings, trace_queries, visited.len()))
    }

    /// Answers `query` over several runs.
    pub fn run_multi(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &ImpactQuery,
    ) -> Result<Vec<LineageAnswer>> {
        runs.iter().map(|&r| self.run(store, r, query)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_engine::{BehaviorRegistry, Engine};
    use prov_model::Value;

    /// in:list → A(atom→atom) → out, plus a second output via count.
    fn setup() -> (prov_dataflow::Dataflow, TraceStore, RunId) {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("A", "string_upper")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.processor_with_behavior("N", "list_length")
            .in_port("xs", PortType::list(BaseType::String))
            .out_port("n", PortType::atom(BaseType::Int));
        b.arc_from_input("in", "A", "x").unwrap();
        b.arc("A", "y", "N", "xs").unwrap();
        b.output("upper", PortType::list(BaseType::String));
        b.output("count", PortType::atom(BaseType::Int));
        b.arc_to_output("A", "y", "upper").unwrap();
        b.arc_to_output("N", "n", "count").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let run = Engine::new(BehaviorRegistry::new().with_builtins())
            .execute(&df, vec![("in".into(), Value::from(vec!["a", "b", "c"]))], &store)
            .unwrap()
            .run_id;
        (df, store, run)
    }

    #[test]
    fn impact_of_one_element_reaches_its_derivatives_and_aggregates() {
        let (_, store, run) = setup();
        // impact(in[1]) focused on the workflow: the derived upper[1] and
        // the aggregate count (derived from all elements) are impacted.
        let q = ImpactQuery::focused(
            PortRef::new("wf", "in"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveImpact::new().run(&store, run, &q).unwrap();
        let upper = ans.bindings.iter().find(|b| b.port == PortRef::new("wf", "upper")).unwrap();
        assert_eq!(upper.index, Index::single(1));
        assert_eq!(upper.value, Value::str("B"));
        assert!(ans.bindings.iter().any(|b| b.port == PortRef::new("wf", "count")));
    }

    #[test]
    fn impact_respects_element_granularity_through_one_to_one_stages() {
        let (_, store, run) = setup();
        let q = ImpactQuery::focused(
            PortRef::new("wf", "in"),
            Index::single(0),
            [ProcessorName::from("A")],
        );
        let ans = NaiveImpact::new().run(&store, run, &q).unwrap();
        // Only A's invocation 0 output is collected for A.
        let a_outputs: Vec<&Binding> =
            ans.bindings.iter().filter(|b| b.port == PortRef::new("A", "y")).collect();
        assert_eq!(a_outputs.len(), 1);
        assert_eq!(a_outputs[0].value, Value::str("A"));
        assert_eq!(a_outputs[0].index, Index::single(0));
    }

    #[test]
    fn impact_and_lineage_are_mutually_consistent() {
        // If x ∈ lin(y) then y ∈ impact(x), at workflow granularity.
        let (df, store, run) = setup();
        let lineage_q = crate::LineageQuery::focused(
            PortRef::new("wf", "upper"),
            Index::single(2),
            [ProcessorName::from("wf")],
        );
        let lin = crate::IndexProj::new(&df).run(&store, run, &lineage_q).unwrap();
        assert_eq!(lin.bindings.len(), 1);
        let src = &lin.bindings[0];
        assert_eq!(src.port, PortRef::new("wf", "in"));

        let impact_q =
            ImpactQuery::focused(src.port.clone(), src.index.clone(), [ProcessorName::from("wf")]);
        let imp = NaiveImpact::new().run(&store, run, &impact_q).unwrap();
        assert!(
            imp.bindings
                .iter()
                .any(|b| b.port == PortRef::new("wf", "upper") && b.index == Index::single(2)),
            "{imp}"
        );
    }

    #[test]
    fn whole_value_impact_covers_everything_downstream() {
        let (_, store, run) = setup();
        let q = ImpactQuery::focused(
            PortRef::new("wf", "in"),
            Index::empty(),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveImpact::new().run(&store, run, &q).unwrap();
        // Three upper elements + one count.
        assert_eq!(ans.bindings.len(), 4);
    }
}
