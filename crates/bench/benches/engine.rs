//! Criterion micro-benchmarks of the engine substrate: index scans, exact
//! counts, optimizer (prepare) latency — the cost of one curation probe —
//! full query execution at the two extremes of the E3 parameter space, the
//! modifier pushdown (streaming aggregation, bounded-heap TopK) against
//! the materialize-then-modify baseline, the out-of-core GROUP BY
//! (spill-to-disk under a memory budget) against the in-memory fold, one
//! bind join's index probes with the left rows in key order and shuffled,
//! snapshot save / load of the `serve_read` store with the checksum pass
//! that dominates both, and the GROUP BY fold over the root type in its
//! clustered (RATING) and hash (BI-Q4) mode.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use parambench_core::ParameterDomain;
use parambench_datagen::{Bsbm, BsbmConfig, Snb, SnbConfig};
use parambench_rdf::format::checksum;
use parambench_rdf::{Dataset, Id, Term};
use parambench_sparql::physical::BindJoin;
use parambench_sparql::plan::{PlannedPattern, Slot};
use parambench_sparql::{
    Batch, Binding, CoutBucket, Engine, ExecConfig, ExecError, ExecStats, Fold, Operator,
    BATCH_SIZE,
};
use std::hint::black_box;

fn engine_benches(c: &mut Criterion) {
    let data = Bsbm::generate(BsbmConfig::with_scale(50_000));
    let ds = &data.dataset;
    let engine = Engine::new(ds);
    let rdf_type = ds.lookup(&Term::iri(parambench_datagen::bsbm::schema::RDF_TYPE)).unwrap();
    let root = ds.lookup(&Term::iri(parambench_datagen::bsbm::schema::product_type(0))).unwrap();

    c.bench_function("store/count_pattern", |b| {
        b.iter(|| black_box(ds.count([None, Some(rdf_type), Some(root)])))
    });

    c.bench_function("store/scan_pattern_full", |b| {
        b.iter(|| black_box(ds.scan([None, Some(rdf_type), Some(root)]).count()))
    });

    let q4 = Bsbm::q4_feature_price_by_type();
    let root_binding =
        Binding::new().with("type", Term::iri(parambench_datagen::bsbm::schema::product_type(0)));
    let leaf = *data.types.leaves().last().unwrap();
    let leaf_binding = Binding::new()
        .with("type", Term::iri(parambench_datagen::bsbm::schema::product_type(leaf)));

    c.bench_function("optimizer/prepare_q4", |b| {
        b.iter(|| black_box(engine.prepare_template(&q4, &root_binding).unwrap()))
    });

    let prepared_root = engine.prepare_template(&q4, &root_binding).unwrap();
    let prepared_leaf = engine.prepare_template(&q4, &leaf_binding).unwrap();
    c.bench_function("exec/q4_generic_type", |b| {
        b.iter(|| black_box(engine.execute(&prepared_root).unwrap().cout))
    });
    c.bench_function("exec/q4_leaf_type", |b| {
        b.iter(|| black_box(engine.execute(&prepared_leaf).unwrap().cout))
    });

    // Pushed modifiers vs the materialize-then-modify baseline on the
    // aggregating BSBM template: same measured Cout by construction; the
    // peak-intermediate-tuple gap is what the streaming aggregation buys.
    // The strictly-lower gates themselves are asserted (at fixed scale) by
    // tests/modifier_pushdown.rs; the bench only reports the gap so
    // PARAMBENCH_TRIPLES experiments at tiny scales cannot abort the run.
    let streamed = engine.execute(&prepared_root).unwrap();
    let unpushed = engine.execute_unpushed(&prepared_root).unwrap();
    println!(
        "q4 generic type: Cout {} | peak tuples pushed {} vs unpushed {}",
        streamed.cout, streamed.stats.peak_tuples, unpushed.stats.peak_tuples
    );
    c.bench_function("exec/q4_generic_type_unpushed", |b| {
        b.iter(|| black_box(engine.execute_unpushed(&prepared_root).unwrap().cout))
    });
    c.bench_function("exec/q4_leaf_type_unpushed", |b| {
        b.iter(|| black_box(engine.execute_unpushed(&prepared_leaf).unwrap().cout))
    });

    // ORDER BY + LIMIT (no aggregation): the bounded-heap TopK against the
    // full decode-and-sort of every product of the root type.
    let topk = Bsbm::q_cheapest_products_of_type();
    let prepared_topk = engine.prepare_template(&topk, &root_binding).unwrap();
    let topk_pushed = engine.execute(&prepared_topk).unwrap();
    let topk_unpushed = engine.execute_unpushed(&prepared_topk).unwrap();
    println!(
        "cheapest-of-type: rows {} | peak tuples topk {} vs full sort {}",
        topk_pushed.results.len(),
        topk_pushed.stats.peak_tuples,
        topk_unpushed.stats.peak_tuples
    );
    c.bench_function("exec/order_by_limit_topk", |b| {
        b.iter(|| black_box(engine.execute(&prepared_topk).unwrap().results.len()))
    });
    c.bench_function("exec/order_by_limit_full_sort", |b| {
        b.iter(|| black_box(engine.execute_unpushed(&prepared_topk).unwrap().results.len()))
    });

    // Out-of-core aggregation: the same grouped template executed with an
    // unlimited memory budget (everything in accumulators) and with a
    // budget small enough that most groups hash-partition to spill files.
    // Results are bit-identical by contract (the external fold preserves
    // per-group fold order exactly); the printed ratio is the price of
    // degrading gracefully to disk instead of falling over.
    {
        let inmem_cfg = ExecConfig { mem_budget_rows: None, ..ExecConfig::default() };
        let spill_cfg = ExecConfig { mem_budget_rows: Some(16), ..ExecConfig::default() };
        let inmem = engine.execute_with(&prepared_root, &inmem_cfg).unwrap();
        let spill = engine.execute_with(&prepared_root, &spill_cfg).unwrap();
        assert_eq!(inmem.results, spill.results, "spilling changed aggregate results");
        assert!(spill.stats.spilled_rows > 0, "budget 16 should spill this template");
        let wall = |cfg: &ExecConfig| {
            (0..5)
                .map(|_| engine.execute_with(&prepared_root, cfg).unwrap().wall_time)
                .min()
                .expect("five runs")
        };
        let (t_mem, t_spill) = (wall(&inmem_cfg), wall(&spill_cfg));
        println!(
            "q4 group-by out-of-core: inmem {t_mem:?} vs spill {t_spill:?} — {:.2}x overhead \
             ({} rows spilled over {} runs, {} bytes)",
            t_spill.as_secs_f64() / t_mem.as_secs_f64(),
            spill.stats.spilled_rows,
            spill.stats.spill_runs,
            spill.stats.spill_bytes,
        );
        c.bench_function("exec/group_by_inmem", |b| {
            b.iter(|| black_box(engine.execute_with(&prepared_root, &inmem_cfg).unwrap().cout))
        });
        c.bench_function("exec/group_by_spill", |b| {
            b.iter(|| black_box(engine.execute_with(&prepared_root, &spill_cfg).unwrap().cout))
        });
    }

    // Order-aware execution: the ORDER-BY-matching template with the sort
    // eliminated behind the delivered order, against the sorting reference.
    {
        let catalog = Bsbm::q_catalog_of_type();
        let prepared_cat = engine.prepare_template(&catalog, &root_binding).unwrap();
        let eliminated = engine.execute(&prepared_cat).unwrap();
        let sorted = engine.execute_unpushed(&prepared_cat).unwrap();
        assert_eq!(eliminated.results, sorted.results, "sort elimination changed results");
        println!(
            "catalog-of-type: sorted_rows eliminated {} vs unpushed {} (rows {})",
            eliminated.stats.sorted_rows,
            sorted.stats.sorted_rows,
            eliminated.results.len(),
        );
        c.bench_function("exec/order_by_eliminated", |b| {
            b.iter(|| black_box(engine.execute(&prepared_cat).unwrap().results.len()))
        });
    }

    // Morsel-driven parallel execution: the BSBM Q4 template, a bind-join
    // spine, at 1 / 2 / 4 worker threads, on a catalog big enough that the
    // driving type scan (one row per product) crosses the morselization
    // threshold.
    // Every thread count executes the identical morselized plan (the
    // lowering decision reads estimates, never the thread count), so the
    // spread is pure threading gain; bit-for-bit correctness is pinned by
    // the differential suite. On multi-core hardware the 4-vs-1 ratio is
    // the PR's ≥1.8× target; the measured ratio is printed so a 1-core
    // container reports ~1.0× honestly instead of aborting the run.
    {
        let big = Bsbm::generate(BsbmConfig { products: 40_000, ..Default::default() });
        let big_engine = Engine::new(&big.dataset);
        let prepared = big_engine.prepare_template(&q4, &root_binding).unwrap();
        // Finer morsels than the default give a 4-worker pool enough
        // chunks of the 40k-row driving scan to balance.
        let exec = |threads| ExecConfig { threads, morsel_rows: 4096, ..ExecConfig::default() };
        // Same geometry ⇒ bit-identical output at any thread count (the
        // engine's determinism contract; float-aggregate *values* may
        // differ in rounding only across different morsel geometries).
        let one = big_engine.execute_with(&prepared, &exec(1)).unwrap();
        let par = big_engine.execute_with(&prepared, &exec(4)).unwrap();
        assert_eq!(one.results, par.results, "thread count changed morselized results");
        assert_eq!(one.cout, par.cout, "thread count changed morselized Cout");
        let wall = |threads: usize| {
            let cfg = exec(threads);
            (0..5)
                .map(|_| big_engine.execute_with(&prepared, &cfg).unwrap().wall_time)
                .min()
                .expect("five runs")
        };
        let (t1, t4) = (wall(1), wall(4));
        println!(
            "q4 parallel (40k products): 1 thread {t1:?} vs 4 threads {t4:?} — {:.2}x \
             ({} hardware threads available)",
            t1.as_secs_f64() / t4.as_secs_f64(),
            parambench_sparql::available_parallelism(),
        );
        for threads in [1usize, 2, 4] {
            let cfg = exec(threads);
            c.bench_function(&format!("exec/q4_parallel_{threads}threads"), |b| {
                b.iter(|| black_box(big_engine.execute_with(&prepared, &cfg).unwrap().cout))
            });
        }
    }

    // One uniform workload iteration (100 template instantiations) — the
    // unit of the paper's E1/E2 measurements.
    let domain = ParameterDomain::single("type", data.type_iris());
    c.bench_function("workload/q4_100_uniform_bindings", |b| {
        b.iter_batched(
            || domain.sample_uniform(100, 5),
            |bindings| {
                for binding in &bindings {
                    let p = engine.prepare_template(&q4, binding).unwrap();
                    black_box(engine.execute(&p).unwrap().cout);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// One LDBC-Q3 optimizer run (`prepare_template`, the unit of one curation
/// probe) on the `curate` workload's SNB store, then the physical pass
/// every execution runs (`Engine::physical_plan`) over that plan and over a
/// BSBM-CHEAPEST plan on the full-scale BSBM store.
fn prepare_benches(c: &mut Criterion) {
    use parambench_datagen::snb::schema;
    let snb = Snb::generate(SnbConfig::with_scale(150_000));
    let q3 = Snb::q3_two_countries();
    let binding = Binding::new()
        .with("person", Term::iri(schema::person(0)))
        .with("countryX", Term::iri(schema::country("Germany")))
        .with("countryY", Term::iri(schema::country("France")));
    let engine = Engine::new(&snb.dataset);
    c.bench_function("optimizer/prepare_ldbc_q3", |b| {
        b.iter(|| black_box(engine.prepare_template(&q3, &binding).unwrap().est_cout))
    });

    let bsbm = Bsbm::generate(BsbmConfig::with_scale(150_000));
    let cheapest = Bsbm::q_cheapest_products_of_type();
    let root_type =
        Binding::new().with("type", Term::iri(parambench_datagen::bsbm::schema::product_type(0)));
    let exec = ExecConfig::default();
    for (name, ds, template, binding) in [
        ("ldbc_q3", &snb.dataset, &q3, &binding),
        ("cheapest", &bsbm.dataset, &cheapest, &root_type),
    ] {
        let engine = Engine::with_exec_config(ds, exec);
        let prepared = engine.prepare_template(template, binding).unwrap();
        c.bench_function(&format!("engine/physical_plan_{name}"), |b| {
            b.iter(|| black_box(engine.physical_plan(&prepared, &exec).morselized))
        });
    }
}

/// Replays prepared batches, last first: the left side of a bind join
/// whose rows are fixed in advance, so the bench times the join's probes
/// and nothing upstream of them.
struct Replay {
    schema: Vec<usize>,
    batches: Vec<Batch>,
}

impl Operator for Replay {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let batch = self.batches.pop();
        stats.grow(batch.as_ref().map_or(0, Batch::len));
        Ok(batch)
    }
}

/// One bind join probing `?p <price> ?x` once per left row of `left`
/// (column 0 = `?p`), drained; returns its `Cout`.
fn bind_join_cout(ds: &Dataset, price: Id, left: &[Batch]) -> u64 {
    let replay = Replay { schema: vec![0], batches: left.iter().rev().cloned().collect() };
    let pattern =
        PlannedPattern { idx: 1, slots: [Slot::Var(0), Slot::Bound(price), Slot::Var(1)] };
    let mut join = BindJoin::new(
        ds,
        Box::new(replay),
        pattern,
        &[0],
        "BJ(S0,S1)".into(),
        CoutBucket::Required,
    );
    let mut stats = ExecStats::default();
    while let Some(batch) = join.next_batch(&mut stats).unwrap() {
        stats.shrink(batch.len());
    }
    stats.cout
}

/// The same bind join over the same left rows — every product of the root
/// type on the `serve_read` store — in probe-key order (how a scan of the
/// type delivers them) and shuffled: what galloping forward from the
/// previous probe saves when the keys ascend, and what it costs when they
/// do not.
fn probe_benches(c: &mut Criterion) {
    use parambench_datagen::bsbm::schema;
    let bsbm = Bsbm::generate(BsbmConfig::with_scale(150_000));
    let ds = &bsbm.dataset;
    let id = |iri: String| ds.lookup(&Term::iri(iri)).unwrap();
    let (rdf_type, price) = (id(schema::RDF_TYPE.into()), id(schema::PRICE.into()));
    let root = id(schema::product_type(0));
    let sorted: Vec<Id> = ds.scan([None, Some(rdf_type), Some(root)]).map(|t| t[0]).collect();
    let mut shuffled = sorted.clone();
    // Fisher-Yates over a fixed 64-bit LCG: the same permutation every run.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for i in (1..shuffled.len()).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    let batches = |ids: &[Id]| -> Vec<Batch> {
        ids.chunks(BATCH_SIZE)
            .map(|chunk| {
                let mut batch = Batch::with_schema(vec![0]);
                chunk.iter().for_each(|&p| batch.push_row(&[p]));
                batch
            })
            .collect()
    };
    let (sorted, shuffled) = (batches(&sorted), batches(&shuffled));
    let cout = bind_join_cout(ds, price, &sorted);
    assert_eq!(cout, bind_join_cout(ds, price, &shuffled), "probe order changed the join's Cout");
    println!(
        "bind probes: {} left rows, Cout {cout}",
        sorted.iter().map(Batch::len).sum::<usize>()
    );
    for (name, left) in [("sorted", &sorted), ("shuffled", &shuffled)] {
        c.bench_function(&format!("engine/bind_probe_{name}"), |b| {
            b.iter(|| black_box(bind_join_cout(ds, price, left)))
        });
    }
}

/// `Dataset::save` and `Dataset::load` of the BSBM store `serve_read`
/// opens (150 000 triples, ~12 MB), and the checksum that both run over
/// every byte, on 16 MiB. Save includes its fsyncs, so its line moves with
/// the disk; load runs from the page cache.
fn snapshot_benches(c: &mut Criterion) {
    let bsbm = Bsbm::generate(BsbmConfig::with_scale(150_000));
    let dir = std::env::temp_dir().join(format!("parambench-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates the bench directory");
    let path = dir.join("bsbm.pbsnap");
    c.bench_function("snapshot/save_bsbm", |b| b.iter(|| bsbm.dataset.save(&path).unwrap()));
    c.bench_function("snapshot/load_bsbm", |b| {
        b.iter(|| black_box(Dataset::load(&path).unwrap().len()))
    });
    std::fs::remove_dir_all(&dir).ok();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let bytes: Vec<u8> = (0..16 << 20)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    c.bench_function("checksum/16mib", |b| b.iter(|| black_box(checksum(black_box(&bytes)))));
}

/// One execution each of two aggregating templates over the root type of
/// the `serve_read` store: RATING, whose input arrives clustered by its
/// (implicit) group, folds in clustered mode (`Fold::Ordered`); BI-Q4
/// folds through the hash map (`Fold::Hash`).
fn fold_benches(c: &mut Criterion) {
    let bsbm = Bsbm::generate(BsbmConfig::with_scale(150_000));
    let root_type =
        Binding::new().with("type", Term::iri(parambench_datagen::bsbm::schema::product_type(0)));
    let exec = ExecConfig { mem_budget_rows: None, ..ExecConfig::default() };
    let engine = Engine::with_exec_config(&bsbm.dataset, exec);
    for (name, template, fold) in [
        ("ordered_rating", Bsbm::q_rating_by_type(), Fold::Ordered),
        ("hash_bi_q4", Bsbm::q4_feature_price_by_type(), Fold::Hash),
    ] {
        let prepared = engine.prepare_template(&template, &root_type).unwrap();
        assert_eq!(engine.physical_plan(&prepared, &exec).fold, Some(fold), "{name}");
        c.bench_function(&format!("engine/fold_{name}"), |b| {
            b.iter(|| black_box(engine.execute(&prepared).unwrap().cout))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = engine_benches
}
// Microsecond-scale: enough iterations that the mean is stable.
criterion_group! {
    name = prepare;
    config = Criterion::default().sample_size(2000);
    targets = prepare_benches
}
// A bind join of a few thousand probes: ~0.1–1 ms per iteration.
criterion_group! {
    name = probe;
    config = Criterion::default().sample_size(200);
    targets = probe_benches
}
// Milliseconds per iteration.
criterion_group! {
    name = snapshot;
    config = Criterion::default().sample_size(30);
    targets = snapshot_benches
}
// One query execution: a few milliseconds.
criterion_group! {
    name = fold;
    config = Criterion::default().sample_size(50);
    targets = fold_benches
}
criterion_main!(prepare, probe, snapshot, fold, benches);
