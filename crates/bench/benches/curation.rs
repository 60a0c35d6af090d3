//! Criterion benchmarks of the curation pipeline itself: how expensive is
//! parameter curation compared to the benchmark it stabilizes?
//!
//! Includes the ablation DESIGN.md calls out: estimated-cost profiling (one
//! optimizer probe per binding, the paper's formulation) vs measured-cost
//! profiling (one `Engine::measure_cout` per binding, the LDBC production
//! variant), on BSBM-BI-Q4. `curation/profile_measured_ldbc_q2` is the
//! measured profile the `curate` workload runs: LDBC-Q2 over every person
//! of a 150k-triple SNB store, one set of count tables per call. The
//! validation pair prices P1–P3 on `Metric::Cout`
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
