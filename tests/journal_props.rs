//! Property test for the event journal's attribution contract: the typed
//! event stream reassembles into per-query totals that agree exactly with
//! (a) each query's own `QueryFinished` summary and (b) the store's
//! aggregate counters, and every `QueryFinished` splits its duration
//! exactly into t1 (graph work) and t2 (trace access). This is what makes
//! `tprov tail`/`tprov slow` trustworthy: counters never leak between
//! queries, and the stage times add up to the end-to-end time.

use std::collections::HashMap;

use proptest::prelude::*;

use prov_obs::{Journal, JournalEvent, Obs, QueryCtx};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

/// Probe totals reassembled from journal events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    index_lookups: u64,
    records_read: u64,
    rows_scanned: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Testbed workloads at random size, queried by INDEXPROJ with the
    /// journal on. For every trace id: Σ `PlanStep` counters == the
    /// `QueryFinished` totals; across all traces the journal accounts for
    /// the store's whole counter delta — per-query attribution loses and
    /// invents nothing; and every `QueryFinished` has t1 + t2 == dur.
    #[test]
    fn journal_events_reassemble_into_store_counters(
        l in 2usize..=3,
        d in 2usize..=4,
        n_runs in 1usize..=5,
    ) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let runs: Vec<RunId> = (0..n_runs).map(|_| testbed::run(&df, d, &store).run_id).collect();

        let journal = Journal::new(1 << 16);
        store.attach_journal(&journal);
        let obs = Obs::disabled().with_journal(journal.clone());
        let ip = IndexProj::new(&df);
        let before = store.stats().snapshot();

        // Four distinct point queries, each under its own trace id, each
        // executed over every run.
        let mut wanted = Vec::new();
        for (i, j) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
            let q = LineageQuery::focused(
                PortRef::new("testbed", "product"),
                Index::from(vec![i, j]),
                [ProcessorName::from("LISTGEN_1")],
            );
            let raw = format!("lin(<testbed:product[{i},{j}]>, {{LISTGEN_1}})");
            let ctx = QueryCtx::new(raw).with_fingerprint(PlanCache::fingerprint(&q));
            wanted.push(ctx.trace);
            let plan = ip.plan(&q).unwrap();
            plan.execute_multi_ctx(&store, &runs, &obs, &ctx).unwrap();
        }
        let delta = store.stats().snapshot().since(before);

        let events = journal.drain();
        prop_assert_eq!(journal.dropped(), 0, "ring must not overflow in this workload");

        let mut step_totals: HashMap<u64, Totals> = HashMap::new();
        let mut finished_totals: HashMap<u64, Totals> = HashMap::new();
        for e in &events {
            match &e.event {
                JournalEvent::PlanStep {
                    trace, index_lookups, records_read, rows_scanned, ..
                } => {
                    let t = step_totals.entry(trace.0).or_default();
                    t.index_lookups += index_lookups;
                    t.records_read += records_read;
                    t.rows_scanned += rows_scanned;
                }
                JournalEvent::QueryFinished {
                    trace, index_lookups, records_read, rows_scanned, t1_ns, t2_ns, dur_ns, ..
                } => {
                    // Stages add up: graph work + trace access == the
                    // query's wall time.
                    prop_assert_eq!(t1_ns + t2_ns, *dur_ns, "trace {} t1 + t2 != dur", trace.0);
                    let t = finished_totals.entry(trace.0).or_default();
                    t.index_lookups += index_lookups;
                    t.records_read += records_read;
                    t.rows_scanned += rows_scanned;
                }
                _ => {}
            }
        }

        // Every query journalled, and only the queries we issued.
        let mut traces: Vec<u64> = finished_totals.keys().copied().collect();
        traces.sort_unstable();
        let mut expected: Vec<u64> = wanted.iter().map(|t| t.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(traces, expected);

        // (a) Per-trace: step events reassemble into the finished totals.
        for (trace, fin) in &finished_totals {
            let steps = step_totals.get(trace).copied().unwrap_or_default();
            prop_assert_eq!(steps, *fin, "trace {} steps vs finished", trace);
        }

        // (b) Across traces: the journal accounts for the store's whole
        // counter movement during the queries.
        let sum = finished_totals.values().fold(Totals::default(), |a, t| Totals {
            index_lookups: a.index_lookups + t.index_lookups,
            records_read: a.records_read + t.records_read,
            rows_scanned: a.rows_scanned + t.rows_scanned,
        });
        prop_assert_eq!(sum.index_lookups, delta.index_lookups);
        prop_assert_eq!(sum.records_read, delta.records_read);
        prop_assert_eq!(sum.rows_scanned, delta.rows_scanned);
    }
}
