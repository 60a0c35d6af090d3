//! Acceptance gates for order-aware execution: sorted index scans and sort
//! elimination behind the delivered order, on benchmark-shaped BSBM and
//! SNB templates.
//!
//! Asserted:
//! * the physical pass serves ORDER BY and group clustering wherever the
//!   `Cout` tree allows it at a fair price, binds from a small type scan
//!   instead of streaming a whole price index, and never streams the whole
//!   `knows` extent on LDBC-Q3;
//! * the ORDER-BY-matching templates execute with the sort provably
//!   skipped (`ExecStats::sorted_rows == 0`), bit-identical to the sorting
//!   reference (`Engine::execute_unpushed`).

use parambench::curation::ParameterDomain;
use parambench::datagen::{bsbm::schema, snb, Bsbm, BsbmConfig, Snb, SnbConfig};
use parambench::rdf::index::IndexOrder;
use parambench::rdf::{Dataset, Term};
use parambench::sparql::{
    Binding, Engine, ExecConfig, Fold, JoinMethod, PhysNode, PhysicalPlan, Prepared, Sort,
};

fn root_binding() -> Binding {
    Binding::new().with("type", Term::iri(schema::product_type(0)))
}

#[test]
fn order_matching_templates_skip_the_sort_entirely() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    for template in [Bsbm::q_cheapest_products_of_type(), Bsbm::q_catalog_of_type()] {
        let prepared = engine.prepare_template(&template, &root_binding()).unwrap();
        let eliminated = engine.execute(&prepared).unwrap();
        let sorted = engine.execute_unpushed(&prepared).unwrap();
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
            "{}: the reference must actually sort",
            template.name()
        );
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

    let out = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(out.results, unpushed.results, "the reference's sort disagrees");
    assert!(out.stats.sorted_rows > 0, "ORDER BY DESC must sort");

    // Oracle: the rows really are strictly descending on ?price.
    let col = out.results.col("price").expect("projected column");
    let prices: Vec<f64> =
        out.results.rows.iter().map(|r| r[col].as_num().expect("integer price")).collect();
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
    let sorted = engine.execute_unpushed(&prepared).unwrap();
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

/// An engine with no memory budget (so ordered folds can be recorded),
/// whatever the suite's environment says.
fn unbudgeted(ds: &Dataset) -> Engine<'_> {
    Engine::with_exec_config(ds, ExecConfig { mem_budget_rows: None, ..Default::default() })
}

/// The physical plan `engine` records for one of its own executions.
fn recorded<'p>(engine: &Engine<'_>, prepared: &'p Prepared) -> PhysicalPlan<'p> {
    engine.physical_plan(prepared, &engine.exec_config())
}

/// The products of a type, and the binding selecting it.
fn typed(data: &Bsbm) -> Vec<(usize, Binding)> {
    let ty = data.dataset.lookup(&Term::iri(schema::RDF_TYPE));
    data.type_iris()
        .into_iter()
        .map(|t| {
            let n = data.dataset.count([None, ty, data.dataset.lookup(&t)]);
            (n, Binding::new().with("type", t))
        })
        .collect()
}

#[test]
fn catalog_and_rating_keep_their_order_service_on_every_type() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = unbudgeted(&data.dataset);
    let (catalog, rating) = (Bsbm::q_catalog_of_type(), Bsbm::q_rating_by_type());
    for (n, binding) in typed(&data) {
        let prepared = engine.prepare_template(&catalog, &binding).unwrap();
        let plan = recorded(&engine, &prepared);
        assert_eq!(plan.sort, Sort::Eliminated, "CATALOG {binding} ({n} products)");
        let prepared = engine.prepare_template(&rating, &binding).unwrap();
        let plan = recorded(&engine, &prepared);
        assert_eq!(plan.fold, Some(Fold::Ordered), "RATING {binding} ({n} products)");
    }
}

/// The driving scan and the join method of a two-pattern plan's root.
fn root_join<'a>(plan: &'a PhysicalPlan<'_>) -> (JoinMethod, &'a PhysNode) {
    match plan.bgp.as_ref() {
        Some(PhysNode::Join { method, left, .. }) => (*method, left),
        other => panic!("expected a join root, got {other:?}"),
    }
}

/// The pattern index and index order of a recorded scan.
fn scan_of(node: &PhysNode) -> (usize, Option<IndexOrder>) {
    match node {
        PhysNode::Scan { pattern, order, .. } => (pattern.idx, *order),
        other => panic!("expected a scan, got {other:?}"),
    }
}

#[test]
fn cheapest_over_a_small_type_binds_from_the_type_scan() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = unbudgeted(&data.dataset);
    let template = Bsbm::q_cheapest_products_of_type();
    let small: Vec<_> = typed(&data).into_iter().filter(|(n, _)| (8..=12).contains(n)).collect();
    assert!(small.len() >= 10, "{} small types", small.len());
    for (n, binding) in small {
        let prepared = engine.prepare_template(&template, &binding).unwrap();
        let plan = recorded(&engine, &prepared);
        let (method, driver) = root_join(&plan);
        // Bind the type's ~10 products to their prices and keep the ten
        // cheapest in a heap, rather than stream the whole price index.
        assert_eq!(method, JoinMethod::Bind, "{binding} ({n} products)");
        assert_eq!(scan_of(driver).0, 0, "{binding}: the type scan drives");
        assert_eq!(plan.sort, Sort::TopK, "{binding}");
        let out = engine.execute(&prepared).unwrap();
        assert!(out.stats.scanned <= 2 * n as u64, "{binding}: scanned {}", out.stats.scanned);
        let unpushed = engine.execute_unpushed(&prepared).unwrap();
        assert_eq!(out.results, unpushed.results, "{binding}");
    }
}

#[test]
fn cheapest_streams_the_price_index_where_the_limit_stops_it_early() {
    let data = Bsbm::generate(BsbmConfig { products: 3000, ..Default::default() });
    let engine = unbudgeted(&data.dataset);
    let template = Bsbm::q_cheapest_products_of_type();

    // The root type: the price-ordered driver, sort eliminated, and the
    // LIMIT stops the scan early — within twice the 2 048 rows this plan
    // scanned when the optimizer itself chose index orders.
    let root = engine.prepare_template(&template, &root_binding()).unwrap();
    let plan = recorded(&engine, &root);
    assert_eq!(scan_of(root_join(&plan).1), (1, Some(IndexOrder::Pos)), "price-ordered driver");
    assert_eq!(plan.sort, Sort::Eliminated);
    let out = engine.execute(&root).unwrap();
    assert!(out.stats.scanned <= 2 * 2048, "scanned {}", out.stats.scanned);

    // Mid-size types too: a LIMIT 10 over a type of a few hundred
    // products stops the price scan after ~10·3000/n rows, which beats
    // sorting the type's products — but only with the early exit priced
    // in (without it the whole 3 000-row index would look dearer).
    let mid: Vec<_> = typed(&data).into_iter().filter(|(n, _)| (200..=700).contains(n)).collect();
    assert!(mid.len() >= 3, "{} mid-size types", mid.len());
    for (n, binding) in mid {
        let prepared = engine.prepare_template(&template, &binding).unwrap();
        let plan = recorded(&engine, &prepared);
        assert_eq!(scan_of(root_join(&plan).1).0, 1, "{binding} ({n} products)");
        assert_eq!(plan.sort, Sort::Eliminated, "{binding} ({n} products)");
    }
}

#[test]
fn ldbc_q3_never_streams_the_whole_knows_extent() {
    let social = Snb::generate(SnbConfig { persons: 600, ..Default::default() });
    let ds = &social.dataset;
    let knows = ds.lookup(&Term::iri(snb::schema::KNOWS));
    let extent = ds.count([None, knows, None]) as u64;
    let engine = unbudgeted(ds);
    let template = Snb::q3_two_countries();
    let domain = ParameterDomain::new()
        .with("person", social.person_iris())
        .with("countryX", social.country_iris())
        .with("countryY", social.country_iris());
    let bindings = domain.enumerate(96, 3);
    assert!(bindings.len() >= 64);
    for binding in bindings {
        let prepared = engine.prepare_template(&template, &binding).unwrap();
        let plan = recorded(&engine, &prepared);
        // `?f knows ?other` (pattern 1) is only ever probed per friend.
        let mut nodes: Vec<(&PhysNode, bool)> = vec![(plan.bgp.as_ref().unwrap(), false)];
        while let Some((node, probed)) = nodes.pop() {
            match node {
                PhysNode::Scan { pattern, .. } => {
                    assert!(pattern.idx != 1 || probed, "{binding}: knows scanned whole")
                }
                PhysNode::Join { method, left, right, .. } => {
                    nodes.push((left, false));
                    nodes.push((right, *method == JoinMethod::Bind));
                }
            }
        }
        let out = engine.execute(&prepared).unwrap();
        assert!(out.stats.scanned < extent, "{binding}: scanned {} ≥ {extent}", out.stats.scanned);
    }
}
