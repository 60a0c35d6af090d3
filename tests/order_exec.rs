//! Acceptance gates for order-aware execution (PR 5): merge joins over
//! sorted index scans and sort elimination behind the delivered order, on
//! benchmark-shaped BSBM templates.
//!
//! Asserted:
//! * the star-shaped BI-Q4 template, planned with merge joins, reports
//!   **zero hash-build rows** and a strictly lower `peak_tuples` than the
//!   forced hash lowering of the *same* prepared plan — with rows, row
//!   order, `Cout` and `scanned` bit-identical;
//! * the ORDER-BY-matching templates execute with the sort provably
//!   skipped (`ExecStats::sorted_rows == 0`), bit-identical to the forced
//!   sorting run.

use parambench::datagen::{bsbm::schema, Bsbm, BsbmConfig};
use parambench::rdf::Term;
use parambench::sparql::{Binding, Engine, ExecConfig, OrderExec};

fn root_binding() -> Binding {
    Binding::new().with("type", Term::iri(schema::product_type(0)))
}

fn off_cfg() -> ExecConfig {
    ExecConfig { order_exec: OrderExec::Off, ..Default::default() }
}

#[test]
fn star_template_merge_plan_builds_nothing_and_peaks_lower() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    // Force order-based planning so the whole star zips on ?p.
    let exec = ExecConfig { order_exec: OrderExec::Force, ..Default::default() };
    let engine = Engine::with_exec_config(&data.dataset, exec);
    let template = Bsbm::q4_feature_price_by_type();
    let prepared = engine.prepare_template(&template, &root_binding()).unwrap();
    assert!(
        prepared.signature.0.contains("MJ("),
        "the star must plan as merge joins: {}",
        prepared.signature
    );

    let merged = engine.execute(&prepared).unwrap();
    let hashed = engine.execute_with(&prepared, &off_cfg()).unwrap();

    // Bit-identical semantics and instrumentation (aggregation drains the
    // pipeline fully, so even `scanned` matches).
    assert_eq!(merged.results, hashed.results, "merge vs hash lowering diverged");
    assert_eq!(merged.cout, hashed.cout);
    assert_eq!(merged.stats.scanned, hashed.stats.scanned);

    // The acceptance gate: zero hash-build rows, strictly lower peak.
    assert_eq!(merged.stats.build_rows, 0, "merge-join plan must build nothing");
    assert!(hashed.stats.build_rows > 0, "the hash lowering must build a side");
    assert!(
        merged.stats.peak_tuples < hashed.stats.peak_tuples,
        "merge peak {} must be strictly below hash peak {}",
        merged.stats.peak_tuples,
        hashed.stats.peak_tuples
    );
}

#[test]
fn order_matching_templates_skip_the_sort_entirely() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = Engine::new(&data.dataset); // Auto: cost-guided planning
    for template in [Bsbm::q_cheapest_products_of_type(), Bsbm::q_catalog_of_type()] {
        let prepared = engine.prepare_template(&template, &root_binding()).unwrap();
        let eliminated = engine.execute(&prepared).unwrap();
        let sorted = engine.execute_with(&prepared, &off_cfg()).unwrap();
        assert_eq!(
            eliminated.results,
            sorted.results,
            "{}: eliminated sort changed the output",
            template.name()
        );
        assert_eq!(
            eliminated.stats.sorted_rows,
            0,
            "{}: the sort must be provably skipped",
            template.name()
        );
        assert!(
            sorted.stats.sorted_rows > 0,
            "{}: the forced-off run must actually sort",
            template.name()
        );
        // (No peak comparison here: under a forced SPARQL_MEM_BUDGET_ROWS
        // the Off run's *external* sort is budget-bounded, which can
        // legitimately undercut the streamed-but-materialized output.)
        let explain = engine.explain_physical(&prepared);
        assert!(explain.contains("sort: eliminated"), "{}: {explain}", template.name());
    }
}

#[test]
fn descending_order_on_an_index_served_key_always_sorts() {
    use parambench::rdf::store::StoreBuilder;
    use parambench::sparql::parse_query;

    // The price index delivers ?price ascending; ORDER BY DESC is never
    // served by the index, so even this bare scan sorts.
    let mut b = StoreBuilder::new();
    let price = Term::iri("p/price");
    for i in 0..500i64 {
        b.insert(Term::iri(format!("prod/{i:04}")), price.clone(), Term::integer(i));
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    let query =
        parse_query("SELECT ?prod ?price WHERE { ?prod <p/price> ?price } ORDER BY DESC(?price)")
            .unwrap();
    let prepared = engine.prepare(&query).unwrap();

    let auto = engine.execute(&prepared).unwrap();
    let off = engine.execute_with(&prepared, &off_cfg()).unwrap();
    assert_eq!(auto.results, off.results, "order mode changed the output");
    assert!(auto.stats.sorted_rows > 0, "ORDER BY DESC must sort");

    // Oracle: the rows really are strictly descending on ?price.
    let col = auto.results.col("price").expect("projected column");
    let prices: Vec<f64> =
        auto.results.rows.iter().map(|r| r[col].as_num().expect("integer price")).collect();
    assert_eq!(prices.len(), 500);
    assert!(prices.windows(2).all(|w| w[0] > w[1]), "rows must arrive strictly descending");

    let explain = engine.explain_physical(&prepared);
    assert!(!explain.contains("descending"), "{explain}");
}

#[test]
fn cheapest_template_early_exits_behind_the_eliminated_sort() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q_cheapest_products_of_type();
    let prepared = engine.prepare_template(&template, &root_binding()).unwrap();
    let eliminated = engine.execute(&prepared).unwrap();
    let sorted = engine.execute_with(&prepared, &off_cfg()).unwrap();
    assert_eq!(eliminated.results, sorted.results);
    assert_eq!(eliminated.results.len(), 10);
    // ORDER BY ASC(?price) LIMIT 10 over the price index: the Slice stops
    // after a handful of batches while the TopK drains every product.
    assert!(
        eliminated.stats.scanned < sorted.stats.scanned,
        "eliminated-sort LIMIT must scan less ({} vs {})",
        eliminated.stats.scanned,
        sorted.stats.scanned
    );
}
