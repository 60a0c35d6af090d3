//! End-to-end integration: the curation pipeline generalizes beyond the
//! paper's two benchmarks to a LUBM-like workload (related-work claim:
//! "the problem of finding the parameter domains is relevant for all of
//! them").

mod common;

use parambench::curation::{
    curate, run_workload, validate_workload, ClusterConfig, CurationConfig, Metric,
    ParameterDomain, RunConfig, ValidationConfig,
};
use parambench::datagen::{Lubm, LubmConfig};
use parambench::sparql::Engine;
use parambench::stats::Summary;

fn small_lubm() -> Lubm {
    Lubm::generate(LubmConfig { universities: 8, ..Default::default() })
}

#[test]
fn university_domain_is_skewed_under_uniform_sampling() {
    let g = small_lubm();
    let engine = Engine::new(&g.dataset);
    let template = Lubm::q_university_staff();
    let domain = ParameterDomain::single("univ", g.university_iris());
    let bindings = domain.sample_uniform(40, 5);
    let ms = run_workload(&engine, &template, &bindings, &RunConfig::default()).unwrap();
    let s = Summary::new(&Metric::Cout.series(&ms)).unwrap();
    assert!(
        s.coeff_of_variation() > 0.5,
        "university size skew should inflate variance (cv {})",
        s.coeff_of_variation()
    );
}

#[test]
fn curated_lubm_staff_classes_validate() {
    let g = small_lubm();
    let engine = Engine::new(&g.dataset);
    let template = Lubm::q_university_staff();
    let domain = ParameterDomain::single("univ", g.university_iris());
    let workload = curate(
        &engine,
        &template,
        &domain,
        &CurationConfig {
            cluster: ClusterConfig { epsilon: 1.0, min_class_size: 1 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(workload.classes().len() >= 2, "{}", workload.describe());
    let cfg = ValidationConfig { sample_size: 15, metric: Metric::Cout, ..Default::default() };
    let report = validate_workload(&engine, &workload, &cfg).unwrap();
    for v in &report {
        assert!(v.p1_ok, "class {} cv {}", v.class_id, v.p1_cv);
        assert!(v.p3_ok, "class {} plans {}", v.class_id, v.p3_distinct_plans);
    }
    common::assert_physical_recount(&g.dataset, &workload, &cfg, &report);
}

#[test]
fn union_template_curates_on_departments() {
    let g = small_lubm();
    let engine = Engine::new(&g.dataset);
    let template = Lubm::q_department_people();
    let domain = ParameterDomain::single("dept", g.department_iris());
    let workload = curate(
        &engine,
        &template,
        &domain,
        &CurationConfig {
            cluster: ClusterConfig { epsilon: 1.0, min_class_size: 3 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!workload.classes().is_empty());
    // Union plans carry a UNION signature.
    assert!(
        workload.classes()[0].signature.0.contains("UNION"),
        "{}",
        workload.classes()[0].signature
    );
}

#[test]
fn professor_template_runs_over_whole_domain() {
    let g = small_lubm();
    let engine = Engine::new(&g.dataset);
    let template = Lubm::q_students_of_professor();
    let domain = ParameterDomain::single("prof", g.professor_iris());
    let bindings = domain.enumerate(50, 2);
    let ms = run_workload(&engine, &template, &bindings, &RunConfig::default()).unwrap();
    assert_eq!(ms.len(), 50);
    assert!(ms.iter().any(|m| m.rows > 0), "some professor has enrolled students");
}
