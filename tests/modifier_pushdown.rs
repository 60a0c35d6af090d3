//! End-to-end acceptance gates for the modifier pushdown: the streaming
//! pipeline with pushed modifiers (`Engine::execute`) against the
//! materialize-then-modify baseline (`Engine::execute_unpushed`) on
//! benchmark-shaped BSBM templates.
//!
//! Asserted per template class:
//! * identical result sets (tie-breaking is pinned, so row-for-row);
//! * strictly lower `peak_tuples` for the streaming TopK and the streaming
//!   aggregation;
//! * strictly less scanned data under LIMIT early exit;
//! * for TopK vs materialize-and-sort, the structural facts a wall-clock
//!   win stands for (no sort, no more scanning or join work) — wall time
//!   itself is measured by `benchmark/`, not raced inside tier-1.

use parambench::datagen::{bsbm::schema, Bsbm, BsbmConfig};
use parambench::rdf::Term;
use parambench::sparql::{Binding, Engine, QueryOutput};

fn root_binding() -> Binding {
    // The root product type selects every product: the worst case for the
    // materializing baseline, which holds the full join result.
    Binding::new().with("type", Term::iri(schema::product_type(0)))
}

#[test]
fn topk_template_has_strictly_lower_peak_and_does_no_more_work() {
    let data = Bsbm::generate(BsbmConfig { products: 4000, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q_cheapest_products_of_type();
    let prepared = engine.prepare_template(&template, &root_binding()).unwrap();

    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();

    assert_eq!(
        pushed.results, unpushed.results,
        "pushed TopK must reproduce the stable-sort prefix exactly"
    );
    // Since PR 5 the optimizer serves ORDER BY ASC(?price) straight from
    // the POS index: the delivered order eliminates the sort entirely
    // (sorted_rows == 0) and the Slice early-exits, so the pushed plan may
    // do strictly *less* join work than the draining baseline.
    assert_eq!(pushed.stats.sorted_rows, 0, "order-compatible scan should eliminate the sort");
    assert!(
        pushed.cout <= unpushed.cout,
        "early exit may only reduce join work (pushed {} vs unpushed {})",
        pushed.cout,
        unpushed.cout
    );
    assert!(
        pushed.stats.peak_tuples < unpushed.stats.peak_tuples,
        "streaming TopK peak {} must be strictly below the materialized sort peak {}",
        pushed.stats.peak_tuples,
        unpushed.stats.peak_tuples
    );

    // What "faster than materialize+sort" rests on: the baseline scans and
    // sorts every product of the type, the pushed plan stops after 10 rows.
    assert!(
        pushed.stats.scanned <= unpushed.stats.scanned,
        "the pushed plan must scan no more ({} vs {})",
        pushed.stats.scanned,
        unpushed.stats.scanned
    );
    assert!(unpushed.stats.sorted_rows > 0, "the baseline really sorts");
}

#[test]
fn aggregation_template_streams_groups_with_lower_peak() {
    let data = Bsbm::generate(BsbmConfig { products: 1500, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q4_feature_price_by_type();
    let prepared = engine.prepare_template(&template, &root_binding()).unwrap();

    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();

    assert_eq!(pushed.results, unpushed.results, "result sets must be identical");
    assert_eq!(pushed.cout, unpushed.cout, "aggregation consumes the whole input");
    assert_eq!(pushed.stats.cout, unpushed.stats.cout);
    assert_eq!(pushed.stats.cout_optional, unpushed.stats.cout_optional);
    assert!(
        pushed.stats.peak_tuples < unpushed.stats.peak_tuples,
        "streaming aggregation peak {} must be strictly below the materialized peak {}",
        pushed.stats.peak_tuples,
        unpushed.stats.peak_tuples
    );
}

#[test]
fn limit_without_order_stops_scanning_early() {
    let data = Bsbm::generate(BsbmConfig { products: 2000, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    let text = format!(
        "SELECT ?p ?f WHERE {{ ?p <{ty}> <{root}> . ?p <{pf}> ?f }} LIMIT 25",
        ty = schema::RDF_TYPE,
        root = schema::product_type(0),
        pf = schema::PRODUCT_FEATURE
    );
    let query = parambench::sparql::parse_query(&text).unwrap();
    let prepared = engine.prepare(&query).unwrap();

    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();

    assert_eq!(pushed.results, unpushed.results, "LIMIT takes the same prefix");
    assert_eq!(pushed.results.len(), 25);
    assert!(
        pushed.stats.scanned < unpushed.stats.scanned,
        "early exit must scan strictly less: pushed {} vs unpushed {}",
        pushed.stats.scanned,
        unpushed.stats.scanned
    );
    assert!(
        pushed.cout <= unpushed.cout,
        "early exit may only reduce join output: {} vs {}",
        pushed.cout,
        unpushed.cout
    );
    // Per-join accounting must stay consistent with total Cout even when
    // the LIMIT abandons joins mid-flight (no OPTIONAL in this query, so
    // every counted tuple belongs to a join_cards entry).
    let per_join: u64 = pushed.stats.join_cards.iter().map(|(_, n)| n).sum();
    assert_eq!(per_join, pushed.stats.cout, "join_cards diverged from Cout under early exit");
    assert!(
        pushed.stats.peak_tuples < unpushed.stats.peak_tuples,
        "bounded prefix must beat full materialization: {} vs {}",
        pushed.stats.peak_tuples,
        unpushed.stats.peak_tuples
    );
}

#[test]
fn optional_and_distinct_agree_end_to_end() {
    let data = Bsbm::generate(BsbmConfig { products: 400, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    // Products with their type, optionally a feature, deduplicated —
    // OPTIONAL exercises UNBOUND rows flowing through streaming DISTINCT.
    let text = format!(
        "SELECT DISTINCT ?t ?f WHERE {{ ?p <{ty}> ?t OPTIONAL {{ ?p <{pf}> ?f }} }}",
        ty = schema::RDF_TYPE,
        pf = schema::PRODUCT_FEATURE
    );
    let query = parambench::sparql::parse_query(&text).unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    let norm = |out: &QueryOutput| {
        let mut rows: Vec<String> = out.results.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    assert_eq!(norm(&pushed), norm(&unpushed));
    assert_eq!(pushed.cout, unpushed.cout);
}
