//! Criterion benchmarks of the curation pipeline itself: how expensive is
//! parameter curation compared to the benchmark it stabilizes?
//!
//! Includes the ablation DESIGN.md calls out: estimated-cost profiling (one
//! optimizer probe per binding, the paper's formulation) vs measured-cost
//! profiling (one `Engine::measure_cout` per binding, the LDBC production
//! variant), on BSBM-BI-Q4. `curation/profile_measured_ldbc_q2` is the
//! measured profile the `curate` workload runs: LDBC-Q2 over every person
//! of a 150k-triple SNB store, one set of count tables per call;
//! `curation/profile_estimated_ldbc_q3` is the estimated profile it runs,
//! LDBC-Q3 over 2 000 person × country-pair bindings of the same store.
//! `curation/bind_<template>` binds a template plan built once
//! (`Engine::template_plan`) to 512 bindings of each template `curate`
//! profiles, on 150k-triple stores: the per-binding planning floor of
//! profiling. The validation pair prices P1–P3 on `Metric::Cout`
//! (`curation/validate_cout`) against fully executing the same two samples
//! per class (`curation/run_workload`), one thread each.

use criterion::{criterion_group, criterion_main, Criterion};
use parambench_core::{
    cluster, curate, profile_domain, run_workload, validate_workload, ClusterConfig, CostSource,
    CurationConfig, Metric, ParameterDomain, ProfileConfig, RunConfig, ValidationConfig,
};
use parambench_datagen::{Bsbm, BsbmConfig, Snb, SnbConfig};
use parambench_sparql::Engine;
use std::hint::black_box;

fn curation_benches(c: &mut Criterion) {
    let data = Bsbm::generate(BsbmConfig::with_scale(50_000));
    let engine = Engine::new(&data.dataset);
    let template = Bsbm::q4_feature_price_by_type();
    let domain = ParameterDomain::single("type", data.type_iris());

    c.bench_function("curation/profile_estimated", |b| {
        b.iter(|| {
            black_box(
                profile_domain(
                    &engine,
                    &template,
                    &domain,
                    &ProfileConfig { cost_source: CostSource::EstimatedCout, ..Default::default() },
                )
                .unwrap(),
            )
        })
    });

    c.bench_function("curation/profile_measured", |b| {
        b.iter(|| {
            black_box(
                profile_domain(
                    &engine,
                    &template,
                    &domain,
                    &ProfileConfig { cost_source: CostSource::MeasuredCout, ..Default::default() },
                )
                .unwrap(),
            )
        })
    });

    let snb = Snb::generate(SnbConfig::with_scale(150_000));
    let snb_engine = Engine::new(&snb.dataset);
    let persons = ParameterDomain::single("person", snb.person_iris());
    let measured = ProfileConfig { cost_source: CostSource::MeasuredCout, ..Default::default() };
    c.bench_function("curation/profile_measured_ldbc_q2", |b| {
        b.iter(|| {
            black_box(
                profile_domain(&snb_engine, &Snb::q2_friend_posts(), &persons, &measured).unwrap(),
            )
        })
    });

    let pairs = ParameterDomain::new()
        .with("person", snb.person_iris())
        .with("countryX", snb.country_iris())
        .with("countryY", snb.country_iris());
    let estimated = ProfileConfig::default();
    c.bench_function("curation/profile_estimated_ldbc_q3", |b| {
        b.iter(|| {
            black_box(
                profile_domain(&snb_engine, &Snb::q3_two_countries(), &pairs, &estimated).unwrap(),
            )
        })
    });

    let bsbm = Bsbm::generate(BsbmConfig::with_scale(150_000));
    let bsbm_engine = Engine::new(&bsbm.dataset);
    let binds = [
        (
            "bi_q4",
            &bsbm_engine,
            Bsbm::q4_feature_price_by_type(),
            ParameterDomain::single("type", bsbm.type_iris()),
        ),
        (
            "bi_q2",
            &bsbm_engine,
            Bsbm::q2_similar_products(),
            ParameterDomain::single("product", bsbm.product_iris()),
        ),
        ("ldbc_q2", &snb_engine, Snb::q2_friend_posts(), persons.clone()),
        ("ldbc_q3", &snb_engine, Snb::q3_two_countries(), pairs),
    ];
    for (name, engine, template, domain) in &binds {
        let bindings = domain.enumerate(512, 26);
        let mut plan = engine.template_plan(template).unwrap();
        c.bench_function(&format!("curation/bind_{name}"), |b| {
            b.iter(|| {
                for binding in &bindings {
                    black_box(plan.bind(binding).unwrap());
                }
            })
        });
    }

    let profiles = profile_domain(&engine, &template, &domain, &ProfileConfig::default()).unwrap();
    c.bench_function("curation/cluster_only", |b| {
        b.iter(|| black_box(cluster(&profiles, &ClusterConfig::default()).unwrap()))
    });

    c.bench_function("curation/curate_end_to_end", |b| {
        b.iter(|| {
            black_box(curate(&engine, &template, &domain, &CurationConfig::default()).unwrap())
        })
    });

    let workload = curate(&engine, &template, &domain, &CurationConfig::default()).unwrap();
    let validation = ValidationConfig { metric: Metric::Cout, threads: 1, ..Default::default() };
    c.bench_function("curation/validate_cout", |b| {
        b.iter(|| black_box(validate_workload(&engine, &workload, &validation).unwrap()))
    });

    let samples: Vec<_> = workload
        .classes()
        .iter()
        .flat_map(|class| [validation.seed, validation.seed.wrapping_add(1)].map(|s| (class.id, s)))
        .map(|(id, seed)| workload.sample_class(id, validation.sample_size, seed).unwrap())
        .collect();
    let run = RunConfig { threads: 1, ..Default::default() };
    c.bench_function("curation/run_workload", |b| {
        b.iter(|| {
            for sample in &samples {
                black_box(run_workload(&engine, &template, sample, &run).unwrap());
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = curation_benches
}
criterion_main!(benches);
