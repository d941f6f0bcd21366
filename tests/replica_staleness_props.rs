//! Property test for the replication staleness contract: a follower
//! paused at **any** frame boundary is not "wrong", it is *earlier* — its
//! store is exactly the state reached by replaying the durable prefix,
//! and on that partial trace the two lineage algorithms still agree
//! bit-for-bit (NI ≡ INDEXPROJ). This is what makes `--max-lag` a purely
//! quantitative knob: bounded staleness never changes *which* answer you
//! get for a prefix, only how old that prefix is allowed to be.

use proptest::prelude::*;

use prov_store::WalCursor;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

mod common;
use common::TempDir;

/// Reads every frame payload from a (marker-less) primary WAL.
fn payloads(path: &std::path::Path) -> Vec<Vec<u8>> {
    let mut cursor = WalCursor::open(path).unwrap();
    let mut out = Vec::new();
    while cursor.next_frame().unwrap().is_some() {
        out.push(cursor.payload().to_vec());
    }
    out
}

fn point_queries() -> Vec<LineageQuery> {
    [(0u32, 0u32), (0, 1), (1, 0), (1, 1)]
        .into_iter()
        .map(|(i, j)| {
            LineageQuery::focused(
                PortRef::new("testbed", "product"),
                Index::from(vec![i, j]),
                [ProcessorName::from("LISTGEN_1")],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A testbed primary of random size is cut at a random frame boundary
    /// `k`; the first `k` payloads are replayed through the follower's
    /// apply path into a fresh store. On that prefix store, for every
    /// point query and every run the prefix knows, NI and INDEXPROJ
    /// produce identical `LineageAnswer`s — and at `k = total` they both
    /// equal the primary's full answers.
    #[test]
    fn any_frame_prefix_answers_consistently(
        l in 2usize..=3,
        d in 2usize..=3,
        n_runs in 1usize..=3,
        cut_pct in 0u32..=100,
    ) {
        let dir = TempDir::new(&format!("repl-prefix-{l}-{d}-{n_runs}"));
        let path = dir.db();
        let df = testbed::generate(l);
        let store = TraceStore::open(&path).unwrap();
        store.register_workflow(
            &ProcessorName::from("testbed"),
            serde_json::to_string(&df).unwrap(),
        );
        let runs: Vec<RunId> =
            (0..n_runs).map(|_| testbed::run(&df, d, &store).run_id).collect();
        store.sync_wal().unwrap();

        let frames = payloads(&path);
        prop_assert!(!frames.is_empty());
        let k = (frames.len() * cut_pct as usize).div_ceil(100).min(frames.len());

        // The follower's replay path, paused after exactly k frames.
        let partial = TraceStore::in_memory();
        for payload in &frames[..k] {
            partial.apply_replicated(payload).unwrap();
        }

        // The prefix may know only some runs, and at most one of them is
        // mid-flight (its BeginRun is inside the prefix, its completion
        // past the cut). Lineage over a mid-flight run is legitimately
        // algorithm-dependent — NI needs the derivation chain up to the
        // queried output, while INDEXPROJ projects over the spec graph and
        // can see the focus binding before the output exists — so the
        // contract is stated over *finished* runs: every run the prefix
        // has seen complete answers exactly as it does on the primary.
        let mut known: Vec<RunId> =
            partial.runs().iter().filter(|r| r.finished).map(|r| r.id).collect();
        known.sort_unstable_by_key(|r| r.0);
        prop_assert!(known.iter().all(|r| runs.contains(r)));

        // Cross-algorithm equality is over the semantic answer (run +
        // bindings); the algorithms legitimately differ in traversal
        // counters (`trace_queries`, `nodes_visited`).
        let semantic = |answers: &[LineageAnswer]| {
            answers
                .iter()
                .map(|a| (a.run, a.bindings.clone()))
                .collect::<Vec<_>>()
        };
        let ip = IndexProj::new(&df);
        for q in point_queries() {
            let ni = NaiveLineage::new().run_multi(&partial, &known, &q).unwrap();
            let proj = ip.run_multi(&partial, &known, &q).unwrap();
            prop_assert_eq!(
                semantic(&ni),
                semantic(&proj),
                "NI and INDEXPROJ diverged at prefix {}",
                k
            );

            // The full prefix *is* the primary: answers must be identical
            // within the same algorithm, counters and all.
            if k == frames.len() {
                let full_ni = NaiveLineage::new().run_multi(&store, &runs, &q).unwrap();
                prop_assert_eq!(&ni, &full_ni, "full prefix diverged from primary");
            }
        }
    }
}
