//! `TemplatePlan::bind` against a cold plan of the instantiated query.
//!
//! One template plan per template is bound across a shuffled sequence of
//! bindings that repeats each of them, so every bind reuses the tables the
//! bindings before it left behind. Each bound plan must equal
//! `Engine::prepare(&template.instantiate(b))`, which plans every
//! parameter as a constant of the query: the same signature, the same
//! bits of `est_cout`, `est_card` and `est_result_card`, and the same
//! logical and physical EXPLAIN. The templates are the twelve shipped ones
//! on their generators' stores — LUBM-PEOPLE is a UNION — plus an
//! OPTIONAL and a joined UNION with parameters inside the scoped groups.
//! Random BGPs are `proptest_engine`'s `bound_template_plans_match_cold_plans`.

#[path = "common/templates.rs"]
mod templates;

use parambench_datagen::bsbm::schema;
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::template::{Binding, QueryTemplate};
use templates::{families, Family};

const TRIPLES: usize = 12_000;

/// `bindings` three times over, in a fixed pseudo-random order.
fn shuffled_with_repeats(bindings: &[Binding], seed: u64) -> Vec<Binding> {
    let mut out: Vec<Binding> = bindings.iter().cycle().take(3 * bindings.len()).cloned().collect();
    let mut x = seed | 1;
    for i in (1..out.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.swap(i, (x % (i as u64 + 1)) as usize);
    }
    out
}

/// Binds one template plan across `bindings` (shuffled, with repeats) and
/// compares every bound plan with the cold plan of the instantiated query.
fn assert_binds_like_cold_plans(ds: &Dataset, template: &QueryTemplate, bindings: &[Binding]) {
    let engine = Engine::new(ds);
    let mut plan = engine.template_plan(template).expect("plans");
    for (i, b) in
        shuffled_with_repeats(bindings, 0x9e37_79b9 + bindings.len() as u64).iter().enumerate()
    {
        let what = format!("{} #{i} {b}", template.name());
        let bound = plan.bind(b).expect("binds");
        let cold = engine.prepare(&template.instantiate(b).expect("instantiates")).expect("plans");
        assert_eq!(bound.signature, cold.signature, "{what}");
        assert_eq!(bound.est_cout.to_bits(), cold.est_cout.to_bits(), "{what}");
        assert_eq!(bound.est_card.to_bits(), cold.est_card.to_bits(), "{what}");
        assert_eq!(bound.est_result_card.to_bits(), cold.est_result_card.to_bits(), "{what}");
        assert_eq!(bound.explain(), cold.explain(), "{what}");
        assert_eq!(engine.explain_physical(&bound), engine.explain_physical(&cold), "{what}");
    }
}

#[test]
fn every_shipped_template_binds_like_its_cold_plan() {
    for Family { ds, requests, .. } in families(TRIPLES) {
        for (template, bindings) in &requests {
            assert_binds_like_cold_plans(&ds, template, bindings);
        }
    }
}

#[test]
fn scoped_parameters_bind_like_their_cold_plans() {
    let Family { ds, requests, .. } = families(TRIPLES).swap_remove(0);
    let iri = |s: &str| Term::iri(s.to_string());
    let types: Vec<Term> =
        requests[1].1.iter().map(|b| b.get("type").expect("a type").clone()).collect();
    let features: Vec<Term> =
        requests[5].1.iter().map(|b| b.get("feature").expect("a feature").clone()).collect();
    let text = |body: &str| {
        body.replace("TYPE", schema::RDF_TYPE)
            .replace("FEATURE", schema::PRODUCT_FEATURE)
            .replace("PRICE", schema::PRICE)
    };
    let optional = QueryTemplate::parse(
        "OPTIONAL",
        &text(
            "SELECT ?p ?c WHERE { ?p <TYPE> %type . \
             OPTIONAL { ?p <FEATURE> %feature . ?p <PRICE> ?c . FILTER(?c != %price) } } \
             ORDER BY ?c LIMIT 20",
        ),
    )
    .unwrap();
    let union = QueryTemplate::parse(
        "UNION",
        &text(
            "SELECT DISTINCT ?p WHERE { ?p <PRICE> ?c . \
             { ?p <TYPE> %type } UNION { ?p <FEATURE> %feature . FILTER(?p != %product) } }",
        ),
    )
    .unwrap();
    let absent = iri("http://bsbm.example/never-seen");
    let mut bindings = Vec::new();
    for (i, (t, f)) in types.iter().zip(&features).enumerate() {
        // A parameter bound to a term the store lacks plans as `Absent`.
        let f = if i == 2 { absent.clone() } else { f.clone() };
        bindings.push(
            Binding::new()
                .with("type", t.clone())
                .with("feature", f)
                .with("price", Term::integer(i as i64))
                .with("product", iri(&schema::product(i))),
        );
    }
    let only = |b: &Binding, names: &[&str]| {
        Binding::from_pairs(names.iter().map(|&n| (n, b.get(n).expect("bound").clone())))
    };
    let optional_bindings: Vec<Binding> =
        bindings.iter().map(|b| only(b, &["type", "feature", "price"])).collect();
    let union_bindings: Vec<Binding> =
        bindings.iter().map(|b| only(b, &["type", "feature", "product"])).collect();
    assert_binds_like_cold_plans(&ds, &optional, &optional_bindings);
    assert_binds_like_cold_plans(&ds, &union, &union_bindings);
}
