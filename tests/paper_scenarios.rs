//! Scenario tests pinned to the paper's own worked examples: the Fig. 1
//! workflow story, the Fig. 2 partial trace, the Fig. 3 abstract workflow,
//! and the evaluation's structural claims.

use std::sync::Arc;

use prov_workgen::bio::{self, KeggDb};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

#[test]
fn fig1_story_why_is_this_pathway_in_the_output() {
    // "which of the input lists of genes is involved in this pathway?"
    let wf = bio::genes2kegg_workflow();
    let db = Arc::new(KeggDb::small(7));
    let store = TraceStore::in_memory();
    let input = Value::from(vec![vec!["mmu:20816", "mmu:26416"], vec!["mmu:328788"]]);
    let outcome = bio::run_genes2kegg(&wf, db, input, &store);

    // paths_per_gene has one sub-list per input gene list.
    let per = outcome.output("paths_per_gene").unwrap();
    assert_eq!(per.len(), 2);

    // lin(paths_per_gene[1]) = [mmu:328788] — the second gene list only.
    let q = LineageQuery::focused(
        PortRef::new("genes2Kegg", "paths_per_gene"),
        Index::single(1),
        [ProcessorName::from("genes2Kegg")],
    );
    let ans = IndexProj::new(&wf).run(&store, outcome.run_id, &q).unwrap();
    let genes: Vec<&Value> = ans
        .bindings
        .iter()
        .filter(|b| b.port == PortRef::new("genes2Kegg", "list_of_geneIDList"))
        .map(|b| &b.value)
        .collect();
    assert_eq!(genes, vec![&Value::str("mmu:328788")]);

    // While every pathway in commonPathways depends on ALL input genes.
    let q = LineageQuery::focused(
        PortRef::new("genes2Kegg", "commonPathways"),
        Index::single(0),
        [ProcessorName::from("genes2Kegg")],
    );
    let ans = IndexProj::new(&wf).run(&store, outcome.run_id, &q).unwrap();
    assert_eq!(ans.bindings.len(), 3); // all three genes
}

#[test]
fn fig2_trace_events_have_matching_indices_per_branch_stage() {
    // Fig. 2 shows: genes_id_list[i] → return[i] for both left-branch
    // processors, and return[i] → workflow:paths_per_gene[i].
    let wf = bio::genes2kegg_workflow();
    let db = Arc::new(KeggDb::small(7));
    let store = TraceStore::in_memory();
    let input = bio::sample_gene_lists(2, 2, 1);
    let run = bio::run_genes2kegg(&wf, db, input, &store).run_id;

    let view = store.pin(run);
    for proc in ["get_pathways_by_genes", "getPathwayDescriptions"] {
        let p = ProcessorName::from(proc);
        let recs = view.xforms_producing(&p, "return", &Index::empty(), &mut view.probe_guard());
        assert_eq!(recs.len(), 2, "{proc} iterates once per sub-list");
        for rec in recs {
            let input_idx = &rec.inputs().next().unwrap().index;
            let output_idx = &rec.outputs().next().unwrap().index;
            assert_eq!(input_idx, output_idx, "one-to-one iteration: same index");
            assert_eq!(input_idx.len(), 1);
        }
    }

    // Transfers into the workflow output preserve the sub-list indices.
    let xfers = view.xfers_into(
        &ProcessorName::from("genes2Kegg"),
        "paths_per_gene",
        &Index::empty(),
        &mut view.probe_guard(),
    );
    assert!(!xfers.is_empty());
    for x in xfers {
        assert_eq!(x.src_index, x.dst_index);
        assert_eq!(x.src_processor, ProcessorName::from("getPathwayDescriptions"));
    }
}

#[test]
fn fig3_trace_has_n_by_m_events_for_the_cross_product() {
    // Fig. 3: P consumes one element of a, the whole of c, one element of
    // b — |a|·|b| xform events, with q = p1 · p3.
    let mut b = DataflowBuilder::new("wf");
    b.input("v", PortType::list(BaseType::String));
    b.input("w", PortType::atom(BaseType::String));
    b.input("c", PortType::list(BaseType::String));
    b.processor("Q")
        .in_port("X", PortType::atom(BaseType::String))
        .out_port("Y", PortType::atom(BaseType::String));
    b.processor("R")
        .in_port("X", PortType::atom(BaseType::String))
        .out_port("Y", PortType::list(BaseType::String));
    b.processor("P")
        .in_port("X1", PortType::atom(BaseType::String))
        .in_port("X2", PortType::list(BaseType::String))
        .in_port("X3", PortType::atom(BaseType::String))
        .out_port("Y", PortType::atom(BaseType::String));
    b.arc_from_input("v", "Q", "X").unwrap();
    b.arc_from_input("w", "R", "X").unwrap();
    b.arc_from_input("c", "P", "X2").unwrap();
    b.arc("Q", "Y", "P", "X1").unwrap();
    b.arc("R", "Y", "P", "X3").unwrap();
    b.output("y", PortType::nested(BaseType::String, 2));
    b.arc_to_output("P", "Y", "y").unwrap();
    let wf = b.build().unwrap();

    let mut reg = BehaviorRegistry::new();
    reg.register_fn("Q", |i| Ok(vec![i[0].clone()]));
    reg.register_fn("R", |_| {
        Ok(vec![Value::from(vec!["b1", "b2", "b3"])]) // |b| = m = 3
    });
    reg.register_fn("P", |i| {
        let a = i[0].as_atom().and_then(Atom::as_str).unwrap_or("?");
        let b = i[2].as_atom().and_then(Atom::as_str).unwrap_or("?");
        Ok(vec![Value::str(&format!("{a}|{b}"))])
    });

    let store = TraceStore::in_memory();
    let run = Engine::new(reg)
        .execute(
            &wf,
            vec![
                ("v".into(), Value::from(vec!["a1", "a2"])), // |a| = n = 2
                ("w".into(), Value::str("w")),
                ("c".into(), Value::from(vec!["c1", "c2"])),
            ],
            &store,
        )
        .unwrap()
        .run_id;

    let view = store.pin(run);
    let (p, r) = (ProcessorName::from("P"), ProcessorName::from("R"));
    let p_events = view.xforms_producing(&p, "Y", &Index::empty(), &mut view.probe_guard());
    assert_eq!(p_events.len(), 2 * 3); // n · m
    for rec in &p_events {
        let x1 = rec.input("X1").unwrap();
        let x2 = rec.input("X2").unwrap();
        let x3 = rec.input("X3").unwrap();
        let y = rec.output("Y").unwrap();
        assert_eq!(x1.index.len(), 1);
        assert!(x2.index.is_empty(), "X2 consumes the whole of c");
        assert_eq!(x3.index.len(), 1);
        assert_eq!(x1.index.concat(&x3.index), y.index, "q = p1 · p3");
    }

    // R's single event consumed w whole: ⟨R:X[], w⟩ → ⟨R:Y[], b⟩.
    let r_events = view.xforms_producing(&r, "Y", &Index::empty(), &mut view.probe_guard());
    assert_eq!(r_events.len(), 1);
    assert!(r_events[0].inputs().next().unwrap().index.is_empty());
}

#[test]
fn evaluation_shape_ni_grows_with_l_indexproj_does_not() {
    // The structural claim behind Fig. 9, asserted on machine-independent
    // record-access counts rather than wall time.
    let d = 10usize;
    let mut ni_reads = Vec::new();
    let mut ip_reads = Vec::new();
    for l in [10usize, 40] {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let run = testbed::run(&df, d, &store).run_id;
        let query = testbed::focused_query(&[3, 4]);

        let before = store.stats().snapshot();
        NaiveLineage::new().run(&store, run, &query).unwrap();
        ni_reads.push(store.stats().snapshot().since(before).records_read);

        let before = store.stats().snapshot();
        IndexProj::new(&df).run(&store, run, &query).unwrap();
        ip_reads.push(store.stats().snapshot().since(before).records_read);
    }
    assert!(ni_reads[1] > ni_reads[0] * 3, "NI reads grow with l: {ni_reads:?}");
    assert_eq!(ip_reads[0], ip_reads[1], "INDEXPROJ reads constant in l: {ip_reads:?}");
}

#[test]
fn evaluation_shape_trace_size_matches_paper_growth_law() {
    // Table 1's structure: records ≈ a·l·d + b·d² + c. Fit on three cells
    // and predict a fourth.
    let count = |l: usize, d: usize| {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let run = testbed::run(&df, d, &store).run_id;
        store.trace_record_count(run) as f64
    };
    let f_10_10 = count(10, 10);
    let f_20_10 = count(20, 10);
    let f_10_20 = count(10, 20);
    let f_20_20 = count(20, 20);
    // Linear-in-l at fixed d: the l-increment is the same at d=10.
    let dl = f_20_10 - f_10_10;
    // Predict (20,20) from the growth law: base + l-term scales with d,
    // plus the d² final-product term.
    let predicted = f_10_20 + dl * 2.0;
    assert!(
        (predicted - f_20_20).abs() / f_20_20 < 0.05,
        "growth law violated: predicted {predicted}, got {f_20_20}"
    );
}
