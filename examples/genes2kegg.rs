//! The paper's running example (Fig. 1): the `genes2Kegg` bioinformatics
//! workflow, answering the motivating question *"why is this particular
//! pathway in the output?"*.
//!
//! The KEGG web services are simulated by a deterministic synthetic
//! database (see DESIGN.md §3); the workflow shape, port names and
//! collection structure follow the paper.
//!
//! ```sh
//! cargo run --example genes2kegg
//! ```

use std::sync::Arc;

use prov_workgen::bio::{self, KeggDb};
use taverna_prov::prelude::*;

fn main() {
    let wf = bio::genes2kegg_workflow();
    let db = Arc::new(KeggDb::small(7));
    let store = TraceStore::in_memory();

    // The paper's example input shape: v = [[20816, 26416], [328788]].
    let input = Value::from(vec![vec!["mmu:20816", "mmu:26416"], vec!["mmu:328788"]]);
    println!("input  list_of_geneIDList = {input}");

    let outcome = bio::run_genes2kegg(&wf, Arc::clone(&db), input, &store);
    println!("\noutputs:");
    for (port, value) in &outcome.outputs {
        println!("  {port} = {value}");
    }

    // A partial fine-grained trace, in the notation of the paper's Fig. 2.
    println!("\npartial provenance trace (xform events of the left branch):");
    let view = store.pin(outcome.run_id);
    for rec in view.xforms_producing(
        &ProcessorName::from("get_pathways_by_genes"),
        "return",
        &Index::empty(),
        &mut view.probe_guard(),
    ) {
        let inp = rec.input("genes_id_list").unwrap();
        let out = rec.output("return").unwrap();
        println!(
            "  ⟨get_pathways_by_genes:genes_id_list{}, {}⟩ → ⟨get_pathways_by_genes:return{}, {}⟩",
            inp.index,
            store.value(inp.value).unwrap(),
            out.index,
            store.value(out.value).unwrap(),
        );
    }

    // "Why is this pathway in the output?" — fine-grained lineage of each
    // sub-list of paths_per_gene. The paper's claim: sub-list i depends
    // ONLY on the genes of input sub-list i.
    for i in 0..2u32 {
        let q = LineageQuery::focused(
            PortRef::new("genes2Kegg", "paths_per_gene"),
            Index::single(i),
            [ProcessorName::from("genes2Kegg")],
        );
        let ans = IndexProj::new(&wf).run(&store, outcome.run_id, &q).unwrap();
        println!("\n{q}");
        for b in &ans.bindings {
            println!("  depends on {b}");
        }
    }

    // While commonPathways depends on ALL the input genes.
    let q = LineageQuery::focused(
        PortRef::new("genes2Kegg", "commonPathways"),
        Index::single(0),
        [ProcessorName::from("genes2Kegg")],
    );
    let ni = NaiveLineage::new().run(&store, outcome.run_id, &q).unwrap();
    let ip = IndexProj::new(&wf).run(&store, outcome.run_id, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    println!("\n{q}");
    for b in &ip.bindings {
        println!("  depends on {b}");
    }
}
