//! Resume torture: crash a run at an arbitrary byte offset of its durable
//! trace — including mid-compaction and mid-snapshot, via the per-handle
//! fault budgets — then reopen the store and `Engine::resume`. The resumed
//! run must be indistinguishable from an uninterrupted one:
//!
//! * bit-identical outputs, status, and failed-invocation accounting;
//! * bit-identical NI **and** INDEXPROJ lineage answers;
//! * recovery bounded by the compaction policy (`recovery_replayed_frames
//!   <= max_frames`).
//!
//! Two drivers share one oracle, mirroring `crash_torture.rs`: a fixed
//! offset sweep and a randomized pass seeded from `CRASH_TORTURE_SEED`
//! (printed, so failures replay).

use std::sync::Arc;

use prov_engine::{Backoff, RetryPolicy, VirtualClock};
use prov_store::{CompactionPolicy, FaultPlan};
use taverna_prov::prelude::*;

mod common;
use common::TempDir;

const MAX_FRAMES: u64 = 4;

/// The workload: tag each element, pass it through a nested scope, then a
/// flaky processor that exhausts its retries on "bad" elements. Covers
/// iteration, nested-scope qualified names, xfer chains, and error tokens.
fn workflow() -> prov_dataflow::Dataflow {
    let mut inner = DataflowBuilder::new("subwf");
    inner.input("v", PortType::atom(BaseType::String));
    inner
        .processor_with_behavior("Q", "q_tag")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    inner.arc_from_input("v", "Q", "x").unwrap();
    inner.output("w", PortType::atom(BaseType::String));
    inner.arc_to_output("Q", "y", "w").unwrap();
    let inner = Arc::new(inner.build().unwrap());

    let mut b = DataflowBuilder::new("wf");
    b.input("xs", PortType::list(BaseType::String));
    b.processor_with_behavior("A", "tag")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.arc_from_input("xs", "A", "x").unwrap();
    b.nested("sub", inner);
    b.arc("A", "y", "sub", "v").unwrap();
    b.processor_with_behavior("B", "maybe_fail")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.arc("sub", "w", "B", "x").unwrap();
    b.output("ys", PortType::list(BaseType::String));
    b.arc_to_output("B", "y", "ys").unwrap();
    b.build().unwrap()
}

fn registry() -> BehaviorRegistry {
    let mut reg = BehaviorRegistry::new();
    let tag = |inputs: &[Value]| -> Result<Vec<Value>, String> {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        Ok(vec![Value::str(&format!("{s}!"))])
    };
    reg.register_fn("tag", tag);
    reg.register_fn("q_tag", |inputs| {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        Ok(vec![Value::str(&format!("{s}-q"))])
    });
    reg.register_fn("maybe_fail", |inputs| {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        if s.contains("bad") {
            Err(format!("rejected {s:?}"))
        } else {
            Ok(vec![Value::str(&format!("{s}?"))])
        }
    });
    reg
}

fn engine() -> Engine {
    // Deterministic retry with seeded jitter under a virtual clock: the
    // schedule replays identically on resume without real sleeping.
    Engine::new(registry()).with_clock(Arc::new(VirtualClock::new())).with_retry_for(
        "B",
        RetryPolicy::attempts(2).with_backoff(Backoff::Fixed { micros: 50 }).with_jitter(0xDECAF),
    )
}

fn inputs() -> Vec<(String, Value)> {
    vec![("xs".into(), Value::from(vec!["ok-0", "bad-1", "ok-2", "ok-3", "bad-4"]))]
}

fn queries() -> Vec<LineageQuery> {
    let mut qs = Vec::new();
    for i in 0..5u32 {
        // Full-depth lineage of each workflow output element, focused on
        // every recording scope, including the nested one.
        qs.push(LineageQuery::focused(
            PortRef::new("wf", "ys"),
            Index::single(i),
            [
                ProcessorName::from("wf"),
                ProcessorName::from("A"),
                ProcessorName::from("sub/Q"),
                ProcessorName::from("B"),
            ],
        ));
    }
    qs
}

/// The uninterrupted run every crashed case must be indistinguishable
/// from: outcome, lineage answers (both algorithms), and the cumulative
/// WAL bytes the workload writes (scales crash offsets).
struct Reference {
    df: prov_dataflow::Dataflow,
    outcome: RunOutcome,
    ni: Vec<LineageAnswer>,
    ip: Vec<LineageAnswer>,
    wal_bytes: u64,
    records: u64,
}

fn reference() -> Reference {
    let df = workflow();
    let dir = TempDir::new("resume-reference");
    let path = dir.db();
    let store = TraceStore::open(&path).unwrap();
    store.set_compaction_policy(Some(CompactionPolicy::frames(MAX_FRAMES)));
    let outcome = engine().execute(&df, inputs(), &store).unwrap();
    store.durability().unwrap();
    assert!(
        store.wal_metrics().compactions.get() > 0,
        "the workload must be big enough to compact at least once"
    );
    let (ni, ip) = answers(&df, &store, outcome.run_id);
    let wal_bytes = store.wal_metrics().bytes_written.get();
    let records = store.trace_record_count(outcome.run_id);
    Reference { df, outcome, ni, ip, wal_bytes, records }
}

fn answers(
    df: &prov_dataflow::Dataflow,
    store: &TraceStore,
    run: RunId,
) -> (Vec<LineageAnswer>, Vec<LineageAnswer>) {
    let ni: Vec<LineageAnswer> =
        queries().iter().map(|q| NaiveLineage::new().run(store, run, q).unwrap()).collect();
    let ip: Vec<LineageAnswer> =
        queries().iter().map(|q| IndexProj::new(df).run(store, run, q).unwrap()).collect();
    (ni, ip)
}

/// The oracle: run under a fault plan, "crash" (drop the store), reopen,
/// resume, and compare everything against the uninterrupted reference.
fn torture_case(reference: &Reference, tag: &str, plan: FaultPlan) {
    let dir = TempDir::new(tag);
    let path = dir.db();

    // Crashed attempt. The engine itself always finishes (durability
    // failures poison the store, they don't abort execution) — the crash
    // is simulated by dropping the store, leaving only the durable prefix.
    {
        match TraceStore::open_with_fault(&path, plan) {
            Ok(store) => {
                store.set_compaction_policy(Some(CompactionPolicy::frames(MAX_FRAMES)));
                let _ = engine().execute(&reference.df, inputs(), &store);
            }
            Err(_) => {
                // The budget tripped before the store finished opening:
                // equivalent to a crash before the first write.
            }
        }
    }

    // Reopen healthy and resume (or start fresh when not even BeginRun
    // survived — the trace then has no run 0 to pick up).
    let store = TraceStore::open(&path).unwrap();
    assert!(
        store.wal_metrics().recovery_replayed_frames.get() <= MAX_FRAMES,
        "{tag}: recovery replayed {} frames, policy allows {MAX_FRAMES}",
        store.wal_metrics().recovery_replayed_frames.get()
    );
    let run0 = store.runs().iter().any(|i| i.id == RunId(0));
    let outcome = if run0 {
        engine().resume(&reference.df, inputs(), &store, RunId(0)).unwrap()
    } else {
        engine().execute(&reference.df, inputs(), &store).unwrap()
    };
    store.durability().unwrap();

    // Bit-identical outcome: outputs, status, failure accounting, run id.
    assert_eq!(outcome, reference.outcome, "{tag}: resumed outcome diverged");

    // Exactly the reference's rows: nothing lost, and — because resume
    // suppresses already-durable xform/xfer records — nothing duplicated.
    assert_eq!(
        store.trace_record_count(outcome.run_id),
        reference.records,
        "{tag}: resumed trace row count diverged"
    );

    // Bit-identical lineage answers, both algorithms.
    let (ni, ip) = answers(&reference.df, &store, outcome.run_id);
    assert_eq!(ni, reference.ni, "{tag}: NI answers diverged");
    assert_eq!(ip, reference.ip, "{tag}: INDEXPROJ answers diverged");

    // And the resumed trace is internally consistent.
    assert!(prov_core::audit_run(&reference.df, &store, outcome.run_id).unwrap().is_clean());
}

#[test]
fn fixed_crash_offsets_resume_bit_identically() {
    let r = reference();
    let total = r.wal_bytes;
    assert!(total > 64, "workload too small to be interesting");
    // Fault budgets are per file handle, so one offset exercises different
    // phases on different handles: small ones tear the first WAL handle,
    // mid-range ones crash snapshot writes or post-compaction WAL tails,
    // and out-of-range ones never fire (a finished run is resumed as-is).
    let offsets =
        [0, 1, 7, 13, total / 4, total / 2, (total * 3) / 4, total - 1, total, total + 64];
    for (i, &offset) in offsets.iter().enumerate() {
        torture_case(&r, &format!("fixed-{i}-{offset}"), FaultPlan::crash_at(offset));
    }
    // A failed fsync poisons the writer without tearing bytes: everything
    // flushed is durable, nothing was confirmed — resume must still agree.
    torture_case(&r, "fsync", FaultPlan::fail_sync(1));
}

/// Splitmix64 — deterministic offsets for the seeded pass.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn seeded_crash_offsets_resume_bit_identically() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("resume-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let r = reference();
    let mut rng = Rng(seed);
    for case in 0..8 {
        let offset = rng.next() % (r.wal_bytes + 65);
        torture_case(&r, &format!("seed-{case}-{offset}"), FaultPlan::crash_at(offset));
    }
}
