//! Lineage over *partial* traces: a cross-product in which one element
//! fails. The failed invocation emits an error token, its siblings
//! complete, and both query algorithms — NI walking the trace, INDEXPROJ
//! projecting through the spec — must (a) still agree everywhere, (b)
//! leave sibling lineage bit-identical to a fault-free run, and (c) trace
//! the error output back to the originating input element, with the
//! attempt count preserved in the stored token.

use prov_core::{IndexProj, LineageQuery, NaiveLineage};
use prov_dataflow::{BaseType, Dataflow, DataflowBuilder, PortType};
use prov_engine::{
    builtin, Backoff, BehaviorRegistry, Engine, RetryPolicy, RunStatus, VirtualClock,
};
use prov_model::{Index, PortRef, ProcessorName, RunId, Value};
use prov_obs::Obs;
use prov_store::TraceStore;
use std::sync::Arc;

/// Two lists joined by a cross product: a(3) × b(2) → 6 output elements.
fn cross_df() -> Dataflow {
    let mut b = DataflowBuilder::new("wf");
    b.input("a", PortType::list(BaseType::String));
    b.input("b", PortType::list(BaseType::String));
    b.processor_with_behavior("LA", "la")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("LB", "tag_b")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("J", "pair")
        .in_port("x", PortType::atom(BaseType::String))
        .in_port("y", PortType::atom(BaseType::String))
        .out_port("z", PortType::atom(BaseType::String));
    b.arc_from_input("a", "LA", "x").unwrap();
    b.arc_from_input("b", "LB", "x").unwrap();
    b.arc("LA", "y", "J", "x").unwrap();
    b.arc("LB", "y", "J", "y").unwrap();
    b.output("out", PortType::nested(BaseType::String, 2));
    b.arc_to_output("J", "z", "out").unwrap();
    b.build().unwrap()
}

/// A registry whose "la" stage fails on the given element value (never,
/// when `poison` is `None`) and tags "-a" otherwise.
fn registry(poison: Option<&str>) -> BehaviorRegistry {
    let poison = poison.map(str::to_string);
    let mut r = BehaviorRegistry::new().with_builtins();
    r.register("tag_b", builtin::tagger("-b"));
    r.register_fn("pair", |inputs| {
        let a = builtin::expect_str(&inputs[0])?;
        let b = builtin::expect_str(&inputs[1])?;
        Ok(vec![Value::str(&format!("{a}+{b}"))])
    });
    r.register_fn("la", move |inputs: &[Value]| {
        let s = builtin::expect_str(&inputs[0])?;
        if Some(s) == poison.as_deref() {
            return Err(format!("no tag for {s}"));
        }
        Ok(vec![Value::str(&format!("{s}-a"))])
    });
    r
}

fn inputs() -> Vec<(String, Value)> {
    vec![
        ("a".into(), Value::from(vec!["a0", "a1", "a2"])),
        ("b".into(), Value::from(vec!["b0", "b1"])),
    ]
}

fn run_with(engine: Engine) -> (TraceStore, prov_engine::RunOutcome) {
    let store = TraceStore::in_memory();
    let outcome = engine.execute(&cross_df(), inputs(), &store).unwrap();
    (store, outcome)
}

/// NI and INDEXPROJ must agree; returns the (normalised) answer.
fn check(
    df: &Dataflow,
    store: &TraceStore,
    run: RunId,
    q: &LineageQuery,
) -> prov_core::LineageAnswer {
    let ni = NaiveLineage::new().run(store, run, q).unwrap();
    let ip = IndexProj::new(df).run(store, run, q).unwrap();
    assert!(ni.same_bindings(&ip), "divergence on {q}:\nNI: {ni}\nIP: {ip}");
    ni
}

fn out_query(i: u32, j: u32, focus: &str) -> LineageQuery {
    LineageQuery::focused(
        PortRef::new("wf", "out"),
        Index::from_slice(&[i, j]),
        [ProcessorName::from(focus)],
    )
}

#[test]
fn failed_element_isolates_and_lineage_stays_equivalent() {
    let df = cross_df();
    let (clean_store, clean) = run_with(Engine::new(registry(None)));
    assert_eq!(clean.status, RunStatus::Completed);
    let (store, outcome) = run_with(Engine::new(registry(Some("a1"))));

    // Element k = 1 of input `a` failed; its cross-product row carries
    // error tokens, every sibling completed.
    let failed = outcome.failed_xforms();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].processor, ProcessorName::from("LA"));
    assert_eq!(failed[0].index, Index::single(1));
    assert_eq!(failed[0].attempts, 1);
    let out = outcome.output("out").unwrap();
    let clean_out = clean.output("out").unwrap();
    for i in 0..3u32 {
        for j in 0..2u32 {
            let idx = Index::from_slice(&[i, j]);
            let elem = out.enumerate_at(2).into_iter().find(|(q, _)| *q == idx).unwrap().1;
            if i == 1 {
                let tok = elem.first_error().unwrap();
                assert_eq!(&*tok.origin, "LA");
                assert_eq!(tok.attempts, 1);
                assert!(tok.message.contains("no tag for a1"));
            } else {
                let clean_elem =
                    clean_out.enumerate_at(2).into_iter().find(|(q, _)| *q == idx).unwrap().1;
                assert_eq!(elem, clean_elem, "sibling [{i},{j}] diverged");
            }
        }
    }

    // Lineage of every element: NI ≡ INDEXPROJ on the partial trace, and
    // sibling answers are identical to the fault-free run's.
    for i in 0..3u32 {
        for j in 0..2u32 {
            let q = out_query(i, j, "wf");
            let ans = check(&df, &store, RunId(0), &q);
            let a = ans.bindings.iter().find(|b| b.port == PortRef::new("wf", "a")).unwrap();
            assert_eq!(a.value, Value::str(&format!("a{i}")));
            let bb = ans.bindings.iter().find(|b| b.port == PortRef::new("wf", "b")).unwrap();
            assert_eq!(bb.value, Value::str(&format!("b{j}")));
            if i != 1 {
                let clean_ans = check(&df, &clean_store, RunId(0), &q);
                assert!(ans.same_bindings(&clean_ans), "sibling lineage [{i},{j}] diverged");
            }
        }
    }

    // The error output's lineage, focused on the failing processor itself,
    // resolves to exactly element k of the iteration.
    let ans = check(&df, &store, RunId(0), &out_query(1, 0, "LA"));
    let la_in = ans.bindings.iter().find(|b| b.port == PortRef::new("LA", "x")).unwrap();
    assert_eq!(la_in.index, Index::single(1));
    assert_eq!(la_in.value, Value::str("a1"));
}

#[test]
fn stored_error_token_carries_origin_and_attempt_count() {
    // Exhaust a 3-attempt policy: the trace must answer "which element
    // caused this error and after how many attempts" from the stored
    // xform row alone.
    let clock = Arc::new(VirtualClock::new());
    let engine = Engine::new(registry(Some("a1")))
        .with_retry_for("LA", RetryPolicy::attempts(3).with_backoff(Backoff::Fixed { micros: 50 }))
        .with_clock(clock.clone());
    let (store, outcome) = run_with(engine);
    assert_eq!(outcome.failed_xforms().len(), 1);
    assert_eq!(outcome.failed_xforms()[0].attempts, 3);
    assert_eq!(clock.sleeps(), vec![50, 50]);

    let view = store.pin(RunId(0));
    let rows = view.xforms_producing(&"LA".into(), "y", &Index::single(1), &mut view.probe_guard());
    assert_eq!(rows.len(), 1);
    let out_port = rows[0].ports.iter().find(|p| &*p.port == "y").unwrap();
    let stored = store.value(out_port.value).unwrap();
    let tok = stored.first_error().unwrap();
    assert_eq!(&*tok.origin, "LA");
    assert_eq!(tok.attempts, 3);

    // Downstream J consumed the token and short-circuited: its error
    // output still traces back through the join to a[1] AND b[j].
    let df = cross_df();
    for j in 0..2u32 {
        let ans = check(&df, &store, RunId(0), &out_query(1, j, "wf"));
        assert!(ans.bindings.iter().any(|b| b.value == Value::str("a1")));
        assert!(ans.bindings.iter().any(|b| b.value == Value::str(&format!("b{j}"))));
    }
}

#[test]
fn retry_metrics_match_injected_flake_count() {
    // A flake that fails exactly twice, a policy allowing three attempts:
    // the run completes, `engine.retries` equals the injected flake count,
    // and the trace is indistinguishable from a fault-free run's.
    let mut reg = registry(None);
    reg.register("la", builtin::flaky(2, builtin::tagger("-a")));
    let obs = Obs::enabled();
    let clock = Arc::new(VirtualClock::new());
    let engine = Engine::new(reg)
        .with_obs(obs.clone())
        .with_retry(RetryPolicy::attempts(3))
        .with_clock(clock);
    let (store, outcome) = run_with(engine);
    assert_eq!(outcome.status, RunStatus::Completed);
    let snap = obs.metrics.snapshot();
    assert_eq!(snap.counter("engine.retries"), 2);
    assert_eq!(snap.counter("engine.failed_invocations"), 0);

    let (clean_store, _) = run_with(Engine::new(registry(None)));
    let df = cross_df();
    for i in 0..3u32 {
        for j in 0..2u32 {
            let q = out_query(i, j, "wf");
            let ans = check(&df, &store, RunId(0), &q);
            let clean_ans = check(&df, &clean_store, RunId(0), &q);
            assert!(ans.same_bindings(&clean_ans));
        }
    }
}
