//! Checks shared by the pipeline integration tests.

use std::collections::BTreeSet;

use parambench::curation::{ClassValidation, CuratedWorkload, ValidationConfig};
use parambench::rdf::Dataset;
use parambench::sparql::{Engine, ExecConfig};

/// Checks every class's `p3_physical_plans` against a recount made without
/// the validation's code: the class's two samples, each binding printed by
/// `Engine::explain_physical` on an engine run at the validation's thread
/// count, with the `(est …)` annotations cut off each line.
pub fn assert_physical_recount(
    ds: &Dataset,
    workload: &CuratedWorkload,
    cfg: &ValidationConfig,
    report: &[ClassValidation],
) {
    let exec = ExecConfig { threads: cfg.threads, ..ExecConfig::default() };
    let engine = Engine::with_exec_config(ds, exec);
    for v in report {
        let mut shapes = BTreeSet::new();
        for seed in [cfg.seed, cfg.seed.wrapping_add(1)] {
            for binding in workload.sample_class(v.class_id, cfg.sample_size, seed).unwrap() {
                let prepared = engine.prepare_template(workload.template(), &binding).unwrap();
                let explain = engine.explain_physical(&prepared);
                let lines = explain.lines().map(|l| l.split(" (est ").next().unwrap_or(l));
                shapes.insert(lines.collect::<Vec<_>>().join("\n"));
            }
        }
        assert_eq!(v.p3_physical_plans, shapes.len(), "class {}: {shapes:#?}", v.class_id);
    }
}
