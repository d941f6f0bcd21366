//! The benchmark's own tests, at the smallest workload size.

use perfbench::env::TempDir;
use perfbench::metrics::{result_line, MetricDef, END_TO_END, PER_LAYER};
use perfbench::plan::{expected_records, Params, QueryGen, QueryKind, QuerySpec, RunGen, Workload};
use perfbench::query::{QuerySample, Verifier};
use perfbench::replay::residual_ns;
use perfbench::runner;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Uint(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
    let json = benchmark_json();
    let list = json.get(section).and_then(Value::as_array).expect("metric list");
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (s("name"), s("unit"), s("better"), m.get("bound").map(num))
        })
        .collect()
}

fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string(), d.bound))
        .collect()
}

/// Name and unit of every metric in a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let json: Value = serde_json::from_str(line).expect("result line is JSON");
    let Some(Value::Object(metrics)) = json.get("metrics") else { panic!("no metrics: {line}") };
    metrics
        .iter()
        .map(|(name, m)| {
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_string())
        })
        .collect()
}

#[test]
fn metric_catalog_matches_benchmark_json() {
    assert_eq!(catalog(END_TO_END), declared("end_to_end"));
    assert_eq!(catalog(PER_LAYER), declared("per_layer"));
    let json = benchmark_json();
    let workloads = json.get("workloads").and_then(Value::as_array).expect("workloads");
    // Every declared workload runs; `mixed_rw` runs but is not declared
    // (see README.md).
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "declared workload {name} does not run");
    }
}

#[test]
fn printed_metrics_and_units_match_benchmark_json() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let params = Params::smallest(workload, 7);
            let report = runner::run(&params, traced).expect("smallest run succeeds");
            assert!(report.correct, "{} traced={traced}: wrong answers", workload.name());
            assert_eq!(report.failed, 0, "{} traced={traced}", workload.name());
            assert!(report.attempted > 0);
            let defs = if traced { PER_LAYER } else { END_TO_END };
            let line = result_line(true, report.attempted, 0, defs, &report.values)
                .expect("every metric measured");
            let want: Vec<(String, String)> =
                declared(if traced { "per_layer" } else { "end_to_end" })
                    .into_iter()
                    .map(|(n, u, _, _)| (n, u))
                    .collect();
            assert_eq!(printed(&line), want, "{} traced={traced}", workload.name());
            if !traced {
                for (name, _) in &want {
                    let v = report.values.get(name).expect("measured");
                    assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", workload.name());
                }
            }
        }
    }
}

#[test]
fn the_same_seed_generates_the_same_runs_and_queries() {
    let runs = vec![(0, 50), (1, 50), (2, 50), (3, 50)];
    let take = |seed: u64| -> (Vec<QuerySpec>, Vec<usize>) {
        let mut q = QueryGen::new(seed, 1, runs.clone());
        let mut r = RunGen::new(seed, 0, &[5, 10, 20]);
        ((0..300).map(|_| q.next_query()).collect(), (0..100).map(|_| r.next_d()).collect())
    };
    assert_eq!(take(42), take(42));
    assert_ne!(take(42), take(43));
    // Equal shares: every block of three holds each type once.
    let (queries, _) = take(42);
    for block in queries.chunks(3) {
        let mut kinds: Vec<QueryKind> = block.iter().map(|q| q.kind).collect();
        kinds.sort();
        assert_eq!(kinds, QueryKind::ALL.to_vec());
    }
}

#[test]
fn replay_stages_plus_residual_equal_the_round_trip() {
    let report = runner::run(&Params::smallest(Workload::QueryFig6, 3), true).expect("traced run");
    assert!(!report.replays.is_empty());
    for kind in QueryKind::ALL {
        assert!(report.replays.iter().any(|r| r.kind == kind), "no {kind:?} replay");
    }
    for r in &report.replays {
        assert_eq!(r.residual_ns, residual_ns(r.rt_ns, &r.stages));
        assert_eq!(r.stages.sum() as i64 + r.residual_ns, r.rt_ns as i64, "{r:?}");
        assert!(r.stages.parse_ns > 0 && r.stages.execute_ns > 0, "{r:?}");
        if r.kind == QueryKind::Ni {
            assert_eq!((r.stages.load_ns, r.stages.plan_ns), (0, 0), "NI has no load or plan");
        } else {
            assert!(r.stages.load_ns > 0 && r.stages.plan_ns > 0, "{r:?}");
        }
    }
}

#[test]
fn the_checker_rejects_a_wrong_answer() {
    let store = prov_store::TraceStore::in_memory();
    let df = prov_workgen::testbed::generate(2);
    let run = prov_workgen::testbed::run(&df, 3, &store).run_id.0;
    assert_eq!(store.trace_record_count(prov_model::RunId(run)), expected_records(2, 3));
    let mut verifier = Verifier::new(&store, vec![run]);
    let spec = QuerySpec { kind: QueryKind::Ni, run, p: (1, 2) };
    let query = prov_workgen::testbed::focused_query(&[1, 2]);
    let right = prov_core::NaiveLineage::new().run(&store, prov_model::RunId(run), &query).unwrap();
    let good = QuerySample {
        spec: spec.clone(),
        rt_ns: 1,
        answers: Ok(vec![right.to_string()]),
        slice: 0,
    };
    assert!(verifier.is_correct(&good));
    // Every position's lineage on {LISTGEN_1} is the list generator's
    // input, so a wrong answer is a wrong binding value.
    let tampered = right.to_string().replace(", 3⟩", ", 4⟩");
    assert_ne!(tampered, right.to_string());
    let bad = QuerySample { spec: spec.clone(), rt_ns: 1, answers: Ok(vec![tampered]), slice: 0 };
    assert!(!verifier.is_correct(&bad));
    let missing = QuerySample { spec, rt_ns: 1, answers: Ok(Vec::new()), slice: 0 };
    assert!(!verifier.is_correct(&missing));
}

#[test]
fn temp_dirs_are_private_and_removed_on_drop() {
    let a = TempDir::new("same-name").unwrap();
    let b = TempDir::new("same-name").unwrap();
    assert_ne!(a.path(), b.path());
    let path = a.path().to_path_buf();
    std::fs::write(path.join("f"), b"x").unwrap();
    drop(a);
    assert!(!path.exists());
    assert!(b.path().exists());
}
