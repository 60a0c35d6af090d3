//! End-to-end integration: BSBM generation → engine → curation →
//! validation, asserting the paper's E1/E3 effects and their resolution.

mod common;

use parambench::curation::{
    curate, run_workload, validate_workload, ClusterConfig, CurationConfig, Metric,
    ParameterDomain, RunConfig, ValidationConfig,
};
use parambench::datagen::{bsbm::schema, Bsbm, BsbmConfig};
use parambench::rdf::Term;
use parambench::sparql::{Binding, Engine};
use parambench::stats::Summary;

fn small_bsbm() -> Bsbm {
    Bsbm::generate(BsbmConfig { products: 800, ..Default::default() })
}

#[test]
fn e3_uniform_type_sampling_is_bimodal_and_unrepresentative() {
    let data = small_bsbm();
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q4_feature_price_by_type();
    let domain = ParameterDomain::single("type", data.type_iris());
    let bindings = domain.enumerate(usize::MAX, 0);
    let ms = run_workload(&engine, &template, &bindings, &RunConfig::default()).unwrap();
    let cout = Summary::new(&Metric::Cout.series(&ms)).unwrap();
    // The paper's E3: mean far above median, high dispersion.
    assert!(cout.mean() / cout.median() >= 2.0, "mean {} median {}", cout.mean(), cout.median());
    assert!(cout.coeff_of_variation() > 1.0, "cv = {}", cout.coeff_of_variation());
}

#[test]
fn curated_q4_classes_satisfy_p1_p2_p3() {
    let data = small_bsbm();
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q4_feature_price_by_type();
    let domain = ParameterDomain::single("type", data.type_iris());
    let workload = curate(
        &engine,
        &template,
        &domain,
        &CurationConfig {
            cluster: ClusterConfig { epsilon: 1.0, min_class_size: 5 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(workload.classes().len() >= 2, "{}", workload.describe());

    let cfg = ValidationConfig { sample_size: 30, metric: Metric::Cout, ..Default::default() };
    let report = validate_workload(&engine, &workload, &cfg).unwrap();
    for v in &report {
        assert!(v.p1_ok, "class {} P1 cv {}", v.class_id, v.p1_cv);
        assert!(v.p3_ok, "class {} has {} plans", v.class_id, v.p3_distinct_plans);
    }
    common::assert_physical_recount(&data.dataset, &workload, &cfg, &report);
    // P2 can flip on borderline classes; the majority must hold.
    let p2_ok = report.iter().filter(|v| v.p2_ok).count();
    assert!(p2_ok * 2 > report.len(), "P2 failed on most classes");
}

#[test]
fn class_costs_are_ordered_and_disjoint_within_signature() {
    let data = small_bsbm();
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q4_feature_price_by_type();
    let domain = ParameterDomain::single("type", data.type_iris());
    let workload = curate(&engine, &template, &domain, &CurationConfig::default()).unwrap();
    let classes = workload.classes();
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            if a.signature == b.signature {
                assert!(
                    a.cost_hi < b.cost_lo || b.cost_hi < a.cost_lo,
                    "overlapping same-plan classes"
                );
            }
        }
    }
}

#[test]
fn q2_similarity_respects_shared_features() {
    let data = small_bsbm();
    let ds = &data.dataset;
    let engine = Engine::new(ds);
    let template = Bsbm::q2_similar_products();
    let product = Term::iri(schema::product(3));
    let out =
        engine.run_template(&template, &Binding::new().with("product", product.clone())).unwrap();
    let pf = ds.lookup(&Term::iri(schema::PRODUCT_FEATURE)).unwrap();
    let pid = ds.lookup(&product).unwrap();
    let my_features: std::collections::HashSet<_> =
        ds.scan([Some(pid), Some(pf), None]).map(|t| t[2]).collect();
    for row in &out.results.rows {
        let other = ds.lookup(row[0].as_term().unwrap()).unwrap();
        assert_ne!(other, pid, "FILTER(?other != %product) violated");
        let shared =
            ds.scan([Some(other), Some(pf), None]).filter(|t| my_features.contains(&t[2])).count();
        assert_eq!(shared as f64, row[1].as_num().unwrap(), "shared-feature count wrong");
    }
}

#[test]
fn rating_aggregate_matches_manual_computation() {
    let data = small_bsbm();
    let ds = &data.dataset;
    let engine = Engine::new(ds);
    let template = Bsbm::q_rating_by_type();
    let ty = Term::iri(schema::product_type(0)); // root: all products
    let out = engine.run_template(&template, &Binding::new().with("type", ty)).unwrap();
    assert_eq!(out.results.len(), 1);
    let avg = out.results.rows[0][0].as_num().unwrap();
    let n = out.results.rows[0][1].as_num().unwrap();

    // Manual: every review (all products are typed with the root).
    let rf = ds.lookup(&Term::iri(schema::REVIEW_FOR)).unwrap();
    let rt = ds.lookup(&Term::iri(schema::RATING)).unwrap();
    let mut total = 0.0;
    let mut count = 0.0;
    for rev in ds.scan([None, Some(rf), None]) {
        for r in ds.scan([Some(rev[0]), Some(rt), None]) {
            total += ds.dict().numeric(r[2]).unwrap();
            count += 1.0;
        }
    }
    assert_eq!(n, count);
    assert!((avg - total / count).abs() < 1e-9);
}

#[test]
fn two_parameter_template_curates() {
    let data = Bsbm::generate(BsbmConfig { products: 400, ..Default::default() });
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q_type_feature_offers();
    // Correlated two-dimensional domain: types × a sample of features.
    let features: Vec<Term> = (0..60).map(|i| Term::iri(schema::feature(i))).collect();
    let domain = ParameterDomain::new().with("type", data.type_iris()).with("feature", features);
    let workload = curate(
        &engine,
        &template,
        &domain,
        &CurationConfig {
            cluster: ClusterConfig { epsilon: 1.0, min_class_size: 5 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!workload.classes().is_empty());
    // Every sampled binding carries both parameters.
    let sample = workload.sample_class(0, 10, 1).unwrap();
    for b in sample {
        assert!(b.get("type").is_some() && b.get("feature").is_some());
    }
}
