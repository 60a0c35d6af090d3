//! P1–P3 validation of parameter classes.
//!
//! The paper's §I requirements for a useful parameter-selection scheme:
//!
//! * **P1** — bounded variance: "the average runtime should correspond to
//!   the behavior of the majority of the queries". Checked as a bound on
//!   the coefficient of variation of the per-class metric.
//! * **P2** — stable distribution: "a different sample of 100 parameter
//!   bindings should result in an identical runtime distribution". Checked
//!   by a two-sample Kolmogorov–Smirnov test between two independently
//!   drawn within-class samples.
//! * **P3** — plan stability: "the query plan for all the parameters is the
//!   same". Checked by counting distinct logical plan signatures; the
//!   number of distinct physical plans the engine records for the same
//!   bindings is reported beside it.
//!
//! Validation measures (never estimates), so it is the honest check that
//! the cheap plan/cost clustering delivered the promised behaviour. How
//! much of a query it runs depends on the metric: under [`Metric::Cout`]
//! each binding's measured `Cout` comes from [`Engine::measure_cout_with`]
//! over the physical plan recorded for P3, through one set of count tables
//! per [`validate_workload`] call: it counts the pattern part (or, where it
//! cannot, runs it — no modifiers, no decode, no result table) and yields
//! the integer a full execution reports; the timed
//! metrics, [`Metric::WallMillis`] and [`Metric::PeakTuples`], execute
//! every binding in full through [`run_workload`].

use std::collections::BTreeSet;

use parambench_sparql::engine::Engine;
use parambench_sparql::plan::PlanSignature;
use parambench_sparql::template::{Binding, QueryTemplate};
use parambench_sparql::CoutTables;
use parambench_stats::ks::ks_two_sample;
use parambench_stats::mannwhitney::mann_whitney_u;
use parambench_stats::summary::Summary;

use crate::curation::CuratedWorkload;
use crate::error::CurationError;
use crate::workload::{run_workload, Metric, RunConfig};

/// The statistical test backing the P2 stability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StabilityTest {
    /// Two-sample Kolmogorov–Smirnov (the paper's distribution-distance
    /// view; sensitive everywhere, including the tails).
    #[default]
    KolmogorovSmirnov,
    /// Mann–Whitney U rank-sum (robust to the heavy tails of runtime
    /// distributions; tests location shift rather than the full shape).
    MannWhitney,
}

/// Validation configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidationConfig {
    /// Bindings per independent sample (the paper uses 100).
    pub sample_size: usize,
    /// Metric to validate on (wall time for reports, `Cout` for
    /// deterministic CI).
    pub metric: Metric,
    /// P1 bound on the coefficient of variation.
    pub cv_bound: f64,
    /// P2 significance level: a p-value below this rejects stability.
    pub ks_alpha: f64,
    /// Which two-sample test implements P2.
    pub stability_test: StabilityTest,
    /// Seed for the two independent samples.
    pub seed: u64,
    /// Warm-up executions per binding. Read by the metrics that execute
    /// in full, [`Metric::WallMillis`] and [`Metric::PeakTuples`].
    pub warmup: usize,
    /// Worker threads for the validation runs (default: available
    /// parallelism). Keep it equal to the measured workload's thread count
    /// so wall-time validation sees the same execution it validates. Only
    /// [`Metric::WallMillis`] and [`Metric::PeakTuples`] run with it; the
    /// physical plans P3 reports are recorded under it on every metric.
    pub threads: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            sample_size: 50,
            metric: Metric::Cout,
            cv_bound: 0.5,
            ks_alpha: 0.05,
            stability_test: StabilityTest::KolmogorovSmirnov,
            seed: 42,
            warmup: 0,
            threads: parambench_sparql::available_parallelism(),
        }
    }
}

/// Validation verdict for one parameter class.
#[derive(Debug, Clone)]
pub struct ClassValidation {
    /// The validated class id.
    pub class_id: usize,
    /// Metric summary over both samples pooled.
    pub summary: Summary,
    /// P1: coefficient of variation of the pooled metric.
    pub p1_cv: f64,
    /// P1 verdict.
    pub p1_ok: bool,
    /// P2: KS p-value between the two independent samples (None when a
    /// sample was degenerate — trivially stable).
    pub p2_ks_p: Option<f64>,
    /// P2 verdict.
    pub p2_ok: bool,
    /// P3: number of distinct logical plan signatures.
    pub p3_distinct_plans: usize,
    /// P3 verdict (on the logical signatures).
    pub p3_ok: bool,
    /// Number of distinct physical plans ([`PhysicalPlan::shape`]) the
    /// engine records for the sampled bindings under the validation's
    /// execution configuration: join methods, index orders and modifier
    /// strategy, estimates stripped. Reported only; it fails nothing.
    ///
    /// [`PhysicalPlan::shape`]: parambench_sparql::plan::PhysicalPlan::shape
    pub p3_physical_plans: usize,
}

impl ClassValidation {
    /// True when all three properties hold.
    pub fn all_ok(&self) -> bool {
        self.p1_ok && self.p2_ok && self.p3_ok
    }
}

/// Validates every class of a curated workload.
pub fn validate_workload(
    engine: &Engine<'_>,
    workload: &CuratedWorkload,
    config: &ValidationConfig,
) -> Result<Vec<ClassValidation>, CurationError> {
    let mut tables = CoutTables::new(engine.dataset());
    let mut out = Vec::with_capacity(workload.classes().len());
    for class in workload.classes() {
        out.push(validate_class_with(engine, workload, class.id, config, &mut tables)?);
    }
    Ok(out)
}

/// Validates one class: draws two independent samples, measures both,
/// checks P1 on the pooled metric, P2 across the samples, P3 on signatures.
pub fn validate_class(
    engine: &Engine<'_>,
    workload: &CuratedWorkload,
    class_id: usize,
    config: &ValidationConfig,
) -> Result<ClassValidation, CurationError> {
    validate_class_with(engine, workload, class_id, config, &mut CoutTables::new(engine.dataset()))
}

/// [`validate_class`], measuring `Cout` through the caller's `tables`.
fn validate_class_with(
    engine: &Engine<'_>,
    workload: &CuratedWorkload,
    class_id: usize,
    config: &ValidationConfig,
    tables: &mut CoutTables<'_>,
) -> Result<ClassValidation, CurationError> {
    let sample_a = workload.sample_class(class_id, config.sample_size, config.seed)?;
    let sample_b =
        workload.sample_class(class_id, config.sample_size, config.seed.wrapping_add(1))?;
    let a = observe(engine, workload.template(), &sample_a, config, tables)?;
    let b = observe(engine, workload.template(), &sample_b, config, tables)?;

    let (series_a, series_b) = (&a.series, &b.series);
    let pooled: Vec<f64> = series_a.iter().chain(series_b.iter()).copied().collect();
    let summary = Summary::new(&pooled)
        .ok_or_else(|| CurationError::EmptyDomain("no measurements".into()))?;

    let p1_cv = summary.coeff_of_variation();
    let p1_ok = p1_cv <= config.cv_bound;

    // A degenerate (constant) sample is trivially stable.
    let degenerate = series_a.windows(2).all(|w| w[0] == w[1])
        && series_b.windows(2).all(|w| w[0] == w[1])
        && series_a.first() == series_b.first();
    let (p2_ks_p, p2_ok) = if degenerate {
        (None, true)
    } else {
        let p = match config.stability_test {
            StabilityTest::KolmogorovSmirnov => {
                ks_two_sample(series_a, series_b).map(|r| r.p_value)
            }
            StabilityTest::MannWhitney => mann_whitney_u(series_a, series_b).map(|r| r.p_value),
        };
        match p {
            Some(p) => (Some(p), p >= config.ks_alpha),
            None => (None, true),
        }
    };

    let p3_distinct_plans = a.signatures.iter().chain(&b.signatures).collect::<BTreeSet<_>>().len();
    let p3_ok = p3_distinct_plans == 1;
    let p3_physical_plans = a.shapes.iter().chain(&b.shapes).collect::<BTreeSet<_>>().len();

    Ok(ClassValidation {
        class_id,
        summary,
        p1_cv,
        p1_ok,
        p2_ks_p,
        p2_ok,
        p3_distinct_plans,
        p3_ok,
        p3_physical_plans,
    })
}

/// One sample as validation reads it, per binding in sample order.
struct Observed {
    /// The metric's value.
    series: Vec<f64>,
    /// The logical plan signature.
    signatures: Vec<PlanSignature>,
    /// The physical plan's shape.
    shapes: Vec<String>,
}

/// Measures one sample. The template is planned once
/// ([`Engine::template_plan`]); each binding is bound once and its
/// physical plan recorded under the configuration [`run_workload`]
/// executes with.
/// Under [`Metric::Cout`] the value is [`Engine::measure_cout_with`] of
/// that plan, the integer a full execution reports, obtained without one
/// and without a second physical pass; the timed
/// metrics need the whole run, so they execute the sample through
/// [`run_workload`].
fn observe(
    engine: &Engine<'_>,
    template: &QueryTemplate,
    bindings: &[Binding],
    config: &ValidationConfig,
    tables: &mut CoutTables<'_>,
) -> Result<Observed, CurationError> {
    let run_cfg =
        RunConfig { warmup: config.warmup, threads: config.threads, ..RunConfig::default() };
    let exec = run_cfg.exec_config(engine);
    let n = bindings.len();
    let mut seen = Observed {
        series: Vec::with_capacity(n),
        signatures: Vec::with_capacity(n),
        shapes: Vec::with_capacity(n),
    };
    let mut template_plan = engine.template_plan(template)?;
    for binding in bindings {
        let prepared = template_plan.bind(binding)?;
        let plan = engine.physical_plan(&prepared, &exec);
        seen.shapes.push(plan.shape());
        if config.metric == Metric::Cout {
            seen.series.push(engine.measure_cout_with(&plan, &exec, tables)? as f64);
        }
        seen.signatures.push(prepared.signature);
    }
    if config.metric != Metric::Cout {
        seen.series = config.metric.series(&run_workload(engine, template, bindings, &run_cfg)?);
    }
    Ok(seen)
}

/// Renders validations as an aligned report table.
pub fn render_report(validations: &[ClassValidation]) -> String {
    let mut out = String::from(
        "class |   n  | median       | mean         | P1 cv   | P1 | P2 ks-p  | P2 | plans | P3  | physical\n",
    );
    for v in validations {
        out.push_str(&format!(
            "{:>5} | {:>4} | {:>12.2} | {:>12.2} | {:>7.3} | {} | {} | {} | {:>5} | {} | {:>8}\n",
            v.class_id,
            v.summary.len(),
            v.summary.median(),
            v.summary.mean(),
            v.p1_cv,
            tick(v.p1_ok),
            match v.p2_ks_p {
                Some(p) => format!("{p:>8.4}"),
                None => "   const".to_string(),
            },
            tick(v.p2_ok),
            v.p3_distinct_plans,
            tick(v.p3_ok),
            v.p3_physical_plans,
        ));
    }
    out
}

fn tick(ok: bool) -> &'static str {
    if ok {
        "ok "
    } else {
        "FAIL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::curation::{curate, CurationConfig};
    use crate::domain::ParameterDomain;
    use parambench_datagen::{Bsbm, BsbmConfig};
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;
    use parambench_sparql::template::QueryTemplate;

    /// Two populations of types: "small" types with ~5 products each and
    /// "large" types with ~200 each. Within a class, behaviour is uniform.
    fn bimodal_dataset() -> parambench_rdf::store::Dataset {
        let mut b = StoreBuilder::new();
        let mut prod = 0;
        for ty in 0..10 {
            let count = if ty < 5 { 5 } else { 200 };
            for _ in 0..count {
                let p = Term::iri(format!("prod/{prod}"));
                prod += 1;
                b.insert(p.clone(), Term::iri("type"), Term::iri(format!("class/{ty}")));
                b.insert(p.clone(), Term::iri("feature"), Term::iri(format!("f/{}", prod % 13)));
                b.insert(p, Term::iri("price"), Term::integer((prod % 90) as i64));
            }
        }
        b.freeze()
    }

    fn template() -> QueryTemplate {
        QueryTemplate::parse(
            "t",
            "SELECT ?f (AVG(?price) AS ?a) WHERE { ?p <type> %type . ?p <feature> ?f . ?p <price> ?price } GROUP BY ?f",
        )
        .unwrap()
    }

    /// The bimodal fixture curated into classes of at least two members.
    fn bimodal_workload(engine: &Engine<'_>) -> CuratedWorkload {
        let domain =
            ParameterDomain::from_objects(engine.dataset(), "type", &Term::iri("type")).unwrap();
        let cluster = ClusterConfig { epsilon: 1.0, min_class_size: 2 };
        curate(engine, &template(), &domain, &CurationConfig { cluster, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn curated_classes_pass_p1_p2_p3_on_cout() {
        let ds = bimodal_dataset();
        let engine = Engine::new(&ds);
        let workload = bimodal_workload(&engine);
        let cfg = ValidationConfig { sample_size: 20, ..Default::default() };
        let report = validate_workload(&engine, &workload, &cfg).unwrap();
        assert!(!report.is_empty());
        for v in &report {
            assert!(v.p1_ok, "P1 failed for class {}: cv={}", v.class_id, v.p1_cv);
            assert!(v.p2_ok, "P2 failed for class {}: p={:?}", v.class_id, v.p2_ks_p);
            assert!(v.p3_ok, "P3 failed for class {}: {} plans", v.class_id, v.p3_distinct_plans);
        }
        let text = render_report(&report);
        assert!(text.contains("class"));
    }

    #[test]
    fn mann_whitney_stability_test_also_passes() {
        let ds = bimodal_dataset();
        let engine = Engine::new(&ds);
        let workload = bimodal_workload(&engine);
        let cfg = ValidationConfig {
            sample_size: 20,
            stability_test: StabilityTest::MannWhitney,
            ..Default::default()
        };
        let report = validate_workload(&engine, &workload, &cfg).unwrap();
        for v in &report {
            assert!(v.p2_ok, "MWU P2 failed for class {}: p={:?}", v.class_id, v.p2_ks_p);
        }
    }

    /// `tests/pipeline_bsbm.rs`'s setup: BSBM-Q4 over 800 products, classes
    /// of at least five members.
    fn bsbm_workload(engine: &Engine<'_>, data: &Bsbm) -> CuratedWorkload {
        let domain = ParameterDomain::single("type", data.type_iris());
        let cluster = ClusterConfig { epsilon: 1.0, min_class_size: 5 };
        let config = CurationConfig { cluster, ..Default::default() };
        curate(engine, &Bsbm::q4_feature_price_by_type(), &domain, &config).unwrap()
    }

    /// Checks every class's validation against P1–P3 recomputed from the
    /// full executions of the same two samples: the pooled series, the CV
    /// and the KS p-value bit for bit, and the signature count.
    fn assert_matches_full_execution(
        engine: &Engine<'_>,
        workload: &CuratedWorkload,
        cfg: &ValidationConfig,
    ) {
        assert_eq!(cfg.metric, Metric::Cout);
        let run_cfg = RunConfig { threads: cfg.threads, ..RunConfig::default() };
        for class in workload.classes() {
            let got = validate_class(engine, workload, class.id, cfg).unwrap();
            let run = |seed| {
                let sample = workload.sample_class(class.id, cfg.sample_size, seed).unwrap();
                run_workload(engine, workload.template(), &sample, &run_cfg).unwrap()
            };
            let (ma, mb) = (run(cfg.seed), run(cfg.seed.wrapping_add(1)));
            let (a, b) = (Metric::Cout.series(&ma), Metric::Cout.series(&mb));
            let pooled = Summary::new(&[a.clone(), b.clone()].concat()).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let id = class.id;
            assert_eq!(bits(got.summary.sorted()), bits(pooled.sorted()), "class {id} series");
            assert_eq!(got.p1_cv.to_bits(), pooled.coeff_of_variation().to_bits(), "class {id}");
            let constant = a.iter().chain(&b).all(|&x| x == a[0]);
            let p2 = if constant { None } else { ks_two_sample(&a, &b).map(|r| r.p_value) };
            assert_eq!(got.p2_ks_p.map(f64::to_bits), p2.map(f64::to_bits), "class {id} P2");
            let signatures: BTreeSet<_> = ma.iter().chain(&mb).map(|m| &m.signature).collect();
            assert_eq!(got.p3_distinct_plans, signatures.len(), "class {id} P3");
        }
    }

    #[test]
    fn cout_validation_equals_full_execution_reference() {
        let ds = bimodal_dataset();
        let engine = Engine::new(&ds);
        let cfg = ValidationConfig { sample_size: 20, ..Default::default() };
        assert_matches_full_execution(&engine, &bimodal_workload(&engine), &cfg);

        let data = Bsbm::generate(BsbmConfig { products: 800, ..Default::default() });
        let engine = Engine::new(&data.dataset);
        let cfg = ValidationConfig { sample_size: 30, ..Default::default() };
        let workload = bsbm_workload(&engine, &data);
        assert!(workload.classes().len() >= 2, "{}", workload.describe());
        assert_matches_full_execution(&engine, &workload, &cfg);
    }

    /// Products of six types (21–40 each) point at one of 20 makers, each
    /// in three countries. Every type's plan joins its products to their
    /// makers first, then to the countries (one logical tree). That last
    /// join reads 3 rows per product: the physical pass probes the country
    /// index per row (bind) up to 30 products, and above that builds the
    /// 60 country rows once (hash) — one class, two physical plans.
    #[test]
    fn one_signature_two_physical_plans_is_reported_not_failed() {
        let mut b = StoreBuilder::new();
        let mut prod = 0;
        for (ty, count) in [(0, 21), (1, 22), (2, 24), (3, 36), (4, 38), (5, 40)] {
            for _ in 0..count {
                let p = Term::iri(format!("prod/{prod}"));
                b.insert(p.clone(), Term::iri("type"), Term::iri(format!("class/{ty}")));
                b.insert(p, Term::iri("maker"), Term::iri(format!("maker/{}", prod % 20)));
                prod += 1;
            }
        }
        for m in 0..20 {
            for c in 0..3 {
                let (maker, country) = (format!("maker/{m}"), format!("c/{c}"));
                b.insert(Term::iri(maker), Term::iri("country"), Term::iri(country));
            }
        }
        let ds = b.freeze();
        let engine = Engine::new(&ds);
        let t = QueryTemplate::parse(
            "t",
            "SELECT ?p ?c WHERE { ?p <type> %type . ?p <maker> ?m . ?m <country> ?c }",
        )
        .unwrap();
        let domain = ParameterDomain::from_objects(&ds, "type", &Term::iri("type")).unwrap();
        let cluster = ClusterConfig { epsilon: 1.0, min_class_size: 2 };
        let workload =
            curate(&engine, &t, &domain, &CurationConfig { cluster, ..Default::default() })
                .unwrap();
        assert_eq!(workload.classes().len(), 1, "{}", workload.describe());
        assert_eq!(workload.classes()[0].len(), 6, "{}", workload.describe());

        let cfg = ValidationConfig { sample_size: 20, threads: 1, ..Default::default() };
        let report = validate_workload(&engine, &workload, &cfg).unwrap();
        let (v, text) = (&report[0], render_report(&report));
        assert_eq!(v.p3_distinct_plans, 1, "{text}");
        assert!(v.p3_ok && v.all_ok(), "{text}");
        assert_eq!(v.p3_physical_plans, 2, "{text}");
    }

    #[test]
    fn uniform_baseline_fails_p1_on_bimodal_data() {
        let ds = bimodal_dataset();
        let engine = Engine::new(&ds);
        let domain = ParameterDomain::from_objects(&ds, "type", &Term::iri("type")).unwrap();
        // Uniform sample across ALL types — the broken baseline.
        let bindings = domain.sample_uniform(40, 9);
        let ms = run_workload(&engine, &template(), &bindings, &RunConfig::default()).unwrap();
        let s = Summary::new(&Metric::Cout.series(&ms)).unwrap();
        assert!(
            s.coeff_of_variation() > 0.5,
            "uniform sampling over bimodal types should violate P1 (cv={})",
            s.coeff_of_variation()
        );
    }
}
