//! Parallel execution end-to-end: the trace recorded under the parallel
//! scheduler must answer lineage queries identically to the sequential
//! one (schedule independence of provenance, §2.1's pure dataflow model).
//! Plus: a multi-run query is exactly its per-run executions — answers,
//! store counters and span totals of one `execute_multi_ctx` /
//! `run_multi_ctx` call equal those of running the plan run by run — and
//! every plan step is accounted once.

use std::collections::BTreeMap;

use proptest::prelude::*;
use prov_engine::ExecutionMode;
use prov_obs::QueryCtx;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

#[test]
fn parallel_testbed_run_supports_identical_lineage_answers() {
    let df = testbed::generate(10);

    let seq_store = TraceStore::in_memory();
    let seq = Engine::new(testbed::registry())
        .execute(&df, vec![("ListSize".into(), Value::int(6))], &seq_store)
        .unwrap();

    let par_store = TraceStore::in_memory();
    let par = Engine::new(testbed::registry())
        .with_mode(ExecutionMode::Parallel)
        .execute(&df, vec![("ListSize".into(), Value::int(6))], &par_store)
        .unwrap();

    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq_store.trace_record_count(seq.run_id), par_store.trace_record_count(par.run_id));

    // Same lineage answers from both traces, via both algorithms.
    for idx in [[0u32, 0], [3, 5], [5, 2]] {
        let q = testbed::focused_query(&idx);
        let a = IndexProj::new(&df).run(&seq_store, seq.run_id, &q).unwrap();
        let b = IndexProj::new(&df).run(&par_store, par.run_id, &q).unwrap();
        assert!(a.same_bindings(&b), "indexproj diverged at {idx:?}");
        let a = NaiveLineage::new().run(&seq_store, seq.run_id, &q).unwrap();
        let b = NaiveLineage::new().run(&par_store, par.run_id, &q).unwrap();
        assert!(a.same_bindings(&b), "ni diverged at {idx:?}");
    }

    // Parallel traces audit clean too.
    assert!(prov_core::audit_run(&df, &par_store, par.run_id).unwrap().is_clean());
}

#[test]
fn parallel_mode_handles_nested_workflows() {
    use std::sync::Arc;
    let mut inner = DataflowBuilder::new("inner");
    inner.input("a", PortType::atom(BaseType::String));
    inner
        .processor_with_behavior("T", "string_upper")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    inner.arc_from_input("a", "T", "x").unwrap();
    inner.output("b", PortType::atom(BaseType::String));
    inner.arc_to_output("T", "y", "b").unwrap();
    let inner = Arc::new(inner.build().unwrap());

    let mut outer = DataflowBuilder::new("outer");
    outer.input("xs", PortType::list(BaseType::String));
    outer.nested("sub", inner);
    outer.arc_from_input("xs", "sub", "a").unwrap();
    outer.output("ys", PortType::list(BaseType::String));
    outer.arc_to_output("sub", "b", "ys").unwrap();
    let df = outer.build().unwrap();

    let store = TraceStore::in_memory();
    let run = Engine::new(BehaviorRegistry::new().with_builtins())
        .with_mode(ExecutionMode::Parallel)
        .execute(&df, vec![("xs".into(), Value::from(vec!["a", "b", "c"]))], &store)
        .unwrap();
    assert_eq!(run.output("ys"), Some(&Value::from(vec!["A", "B", "C"])));

    let q = LineageQuery::focused(
        PortRef::new("outer", "ys"),
        Index::single(2),
        [ProcessorName::from("outer")],
    );
    let ni = NaiveLineage::new().run(&store, run.run_id, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run.run_id, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    assert_eq!(ni.bindings.len(), 1);
    assert_eq!(ni.bindings[0].value, Value::str("c"));
}

/// Per-span-name `(count, Σ rows-arg)` totals of a profiler — the
/// schedule-invariant view of a recorded timeline (start order and thread
/// assignment may differ between executions).
fn span_totals(profiler: &Profiler) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in profiler.spans() {
        let rows: u64 = s.args.iter().filter(|(k, _)| *k == "rows").map(|(_, v)| *v).sum();
        let e = totals.entry(s.name.to_string()).or_insert((0, 0));
        e.0 += 1;
        e.1 += rows;
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-run ≡ per-run: executing a shared plan run by run under one
    /// profiler and as one multi-run query under another yields identical
    /// answers, identical store-counter deltas, and identical per-span-name
    /// totals — the multi-run path neither loses nor invents work.
    #[test]
    fn multi_run_observability_matches_per_run(
        l in 1usize..6, d in 2usize..5, n in 4usize..8,
    ) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let runs: Vec<RunId> = (0..n).map(|_| testbed::run(&df, d, &store).run_id).collect();
        let query = testbed::focused_query(&[0, d as u32 - 1]);
        let plan = IndexProj::new(&df).plan(&query).unwrap();

        let seq_obs = Obs::enabled();
        let before = store.stats().snapshot();
        let seq_answers: Vec<_> = runs
            .iter()
            .map(|&r| plan.execute_pinned(&store.pin(r), &seq_obs).unwrap())
            .collect();
        let seq_work = store.stats().snapshot().since(before);

        let par_obs = Obs::enabled();
        let before = store.stats().snapshot();
        let par_answers = plan.execute_multi_ctx(&store, &runs, &par_obs, &QueryCtx::new("multi")).unwrap();
        let par_work = store.stats().snapshot().since(before);

        prop_assert_eq!(seq_answers.len(), par_answers.len());
        for (a, b) in seq_answers.iter().zip(&par_answers) {
            prop_assert!(a.same_bindings(b));
        }
        prop_assert_eq!(seq_work, par_work);
        prop_assert_eq!(span_totals(&seq_obs.profiler), span_totals(&par_obs.profiler));

        // NI's multi-run traversal spans equal its per-run ones the same way.
        let seq_ni = Obs::enabled();
        for &r in &runs {
            NaiveLineage::new().run_pinned(&store.pin(r), &query, &seq_ni).unwrap();
        }
        let par_ni = Obs::enabled();
        NaiveLineage::new().run_multi_ctx(&store, &runs, &query, &par_ni, &QueryCtx::new("multi")).unwrap();
        prop_assert_eq!(span_totals(&seq_ni.profiler), span_totals(&par_ni.profiler));
    }

    /// Large plans (an unfocused plan has ≥ 2l steps, so ≥ 16 at l ≥ 8):
    /// one `indexproj.step` span is recorded per plan step and their
    /// `rows` arguments account for every returned binding exactly once.
    #[test]
    fn plan_steps_account_all_rows(l in 8usize..12, d in 2usize..4) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let run = testbed::run(&df, d, &store).run_id;
        let query = testbed::unfocused_query(&df, &[0, d as u32 - 1]);

        let obs = Obs::enabled();
        let plan = IndexProj::new(&df).plan_with(&query, &obs).unwrap();
        prop_assert!(plan.steps.len() >= 16, "plan too small to fan out: {}", plan.steps.len());
        let answer = plan.execute_pinned(&store.pin(run), &obs).unwrap();

        let totals = span_totals(&obs.profiler);
        let (step_count, step_rows) = totals["indexproj.step"];
        prop_assert_eq!(step_count, plan.steps.len() as u64);
        prop_assert_eq!(step_rows, answer.bindings.len() as u64);
        prop_assert_eq!(totals["indexproj.plan"].0, 1);
        prop_assert_eq!(totals["indexproj.assemble"].0, 1);
    }
}
