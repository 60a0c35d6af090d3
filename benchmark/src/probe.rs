//! The layer probe: every per-layer metric, measured the same way on
//! every workload's own store.
//!
//! Spans recorded by the harness stop at the public call — what happens
//! inside `SparqlServer::run` or `profile_domain` is invisible to them
//! until the program records spans itself (ROADMAP item 1). The probe
//! fills that gap from outside: after a traced run it calls each layer's
//! public entry point directly, a few times, over the store the workload
//! just used, and reports the median. Where the workload has a counter of
//! its own for a metric (the server's cache hits on `serve_read`, the
//! overlay's peak on `serve_mixed`) that counter replaces the probe's.
//!
//! The scale probe then repeats the O(store) suspects — freeze, load,
//! clone, one 25-triple batch — at three store sizes and prints the
//! log-log slope: a cost proportional to the store shows as 1, a cost
//! proportional to the batch as 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use parambench_core::{
    cluster, curate, profile_domain, run_workload, validate_workload, ClusterConfig, CostSource,
    CurationConfig, Metric, ProfileConfig, RunConfig, ValidationConfig,
};
use parambench_datagen::bsbm::schema;
use parambench_datagen::Bsbm;
use parambench_rdf::{Dataset, IoOp, IoSeam, LoggedOp, Term, Wal};
use parambench_sparql::exec::WorkerPool;
use parambench_sparql::{parse_query, Engine, ExecConfig, ServeConfig, SparqlServer};

use crate::cells::{self, Cell};
use crate::cli::{RunArgs, Size};
use crate::data::{self, ms_since, LayerLog};
use crate::env;
use crate::metrics::median;
use crate::rng::derive;
use crate::trace;
use crate::workloads::Timed;

/// Triples in the probe's write batch.
const BATCH_TRIPLES: usize = 25;

/// Repetitions of the cheap probes.
const REPS: usize = 7;

/// A batch of `BATCH_TRIPLES` new offer triples (fresh IRIs, so every one
/// of them changes the store).
fn fresh_batch(tag: usize) -> Vec<(Term, Term, Term)> {
    (0..BATCH_TRIPLES)
        .map(|i| {
            (
                Term::iri(format!("{}ProbeOffer{tag}-{i}", schema::NS)),
                Term::iri(schema::OFFER_PRICE),
                Term::double(100.0 + i as f64),
            )
        })
        .collect()
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

/// Milliseconds `f` takes.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// `freeze`, `clone`, `apply` (one batch), `compact` and `load` on `ds`.
struct StoreCosts {
    freeze_ms: f64,
    clone_ms: f64,
    apply_ms: f64,
    compact_ms: f64,
    load_ms: f64,
    overlay_entries: f64,
}

fn store_costs(ds: &Dataset, dir: &Path, reps: usize) -> Result<StoreCosts, String> {
    let builder = data::rebuild(ds);
    let (frozen, freeze_ms) = time_ms(|| builder.freeze());
    if frozen.len() != ds.len() {
        return Err("a re-frozen store lost triples".into());
    }
    let clone_ms = median_of(reps, || time_ms(|| std::hint::black_box(ds.clone())).1);
    let mut tag = 0;
    let mut overlay_entries = 0.0;
    let mut updated = None;
    let apply_ms = median_of(reps, || {
        let mut copy = ds.clone();
        tag += 1;
        let batch = fresh_batch(tag);
        let (changed, ms) = time_ms(|| copy.insert_batch(batch));
        assert_eq!(changed, BATCH_TRIPLES, "the probe batch is all new triples");
        overlay_entries = (copy.overlay().adds_len() + copy.overlay().dels_len()) as f64;
        updated = Some(copy);
        ms
    });
    let mut updated = updated.expect("at least one repetition");
    let ((), compact_ms) = time_ms(|| updated.compact());
    let path = dir.join("costs.pbsnap");
    frozen.save(&path).map_err(|e| e.to_string())?;
    let load_ms = median_of(reps.min(3), || time_ms(|| Dataset::load(&path).map(|d| d.len())).1);
    Ok(StoreCosts { freeze_ms, clone_ms, apply_ms, compact_ms, load_ms, overlay_entries })
}

/// Least-squares slope of `ln y` over `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) =
        points.iter().map(|(x, y)| (x.ln(), y.max(1e-9).ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

fn cell<'a>(cells: &'a [Cell], name: &str) -> Result<&'a Cell, String> {
    cells.iter().find(|c| c.line.name == name).ok_or_else(|| format!("no {name} cell"))
}

/// Runs every probe and fills `layers` with one value per per-layer
/// metric.
#[allow(clippy::too_many_arguments)]
pub fn run(
    args: &RunArgs,
    bsbm: &Bsbm,
    dir: &Path,
    untraced: &Timed,
    traced: &Timed,
    log: &mut LayerLog,
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let ds = &bsbm.dataset;
    let e = |err: parambench_sparql::QueryError| err.to_string();

    // --- datagen, rdf::snapshot: timed by the set-ups -------------------
    // (and one more save here: the serving probe below reopens it, and a
    // workload that only ever saved through `create_durable` has no save
    // of its own on record)
    let snapshot = dir.join("probe.pbsnap");
    data::save(ds, &snapshot, log)?;
    let gen_ms = log.median("gen_ms");
    layers.insert("gen_ms", gen_ms);
    layers.insert("gen_triples_per_s", log.median("gen_triples") / (gen_ms / 1e3).max(1e-9));
    layers.insert("save_ms", log.median("save_ms"));
    layers.insert("snapshot_bytes_per_triple", log.median("snapshot_bytes_per_triple"));

    // --- rdf::store ------------------------------------------------------
    let costs = store_costs(ds, dir, REPS)?;
    layers.insert("freeze_ms", costs.freeze_ms);
    layers.insert("clone_ms", costs.clone_ms);
    layers.insert("apply_ms", costs.apply_ms);
    layers.insert("compact_ms", costs.compact_ms);
    layers.insert("overlay_peak_entries", costs.overlay_entries);
    layers.insert(
        "load_ms",
        if log.get("load_ms").is_empty() { costs.load_ms } else { log.median("load_ms") },
    );

    // --- rdf::wal: the same ops on a scratch journal ---------------------
    let seam = IoSeam::none();
    let (mut wal, _) =
        Wal::open_with_seam(&dir.join("probe.wal"), &seam).map_err(|e| e.to_string())?;
    let ops_before = seam.log().len();
    let bytes_before = wal.committed_len();
    let mut appends = Vec::new();
    for i in 0..REPS {
        let ops = [LoggedOp::Insert(fresh_batch(1000 + i))];
        let (r, ms) = time_ms(|| wal.append(&ops));
        r.map_err(|e| e.to_string())?;
        appends.push(ms);
    }
    let io = &seam.log()[ops_before..];
    let count = |op: IoOp| io.iter().filter(|o| **o == op).count() as f64 / REPS as f64;
    layers.insert("journal_append_ms", median(&appends));
    layers.insert(
        "journal_bytes_per_triple",
        (wal.committed_len() - bytes_before) as f64 / (REPS * BATCH_TRIPLES) as f64,
    );
    layers.insert("wal_writes_per_commit", count(IoOp::Write));
    layers.insert("wal_fsyncs_per_commit", count(IoOp::Sync));
    drop(wal);

    // --- sparql::parser, optimizer, physical, results, spill -------------
    let cells = cells::build(bsbm, args.seed)?;
    let engine = Engine::new(ds);
    let q4 = cell(&cells, "BI-Q4")?;
    // The costliest member of the generic-type class: the root type.
    let heavy =
        (0..q4.bindings.len()).max_by_key(|&i| q4.expected[i].cout).expect("cells have members");
    let binding = &q4.bindings[heavy];
    let text = q4.template.query().to_string();
    let parse_us = median_of(REPS, || {
        let t = Instant::now();
        let parsed = parse_query(&text).is_ok();
        let inst = q4.template.instantiate(binding).is_ok();
        assert!(parsed && inst, "the template's own text parses and instantiates");
        ms_since(t) * 1e3
    });
    layers.insert("parse_us", parse_us);

    let mut prepares = Vec::new();
    let mut classes = Vec::new();
    let mut rebinds = Vec::new();
    // One engine over 64 types of the domain, as `profile_domain` uses it:
    // the median is a warm prepare (the estimator's caches are per engine).
    let q4_domain = cells::domain_of(&q4.template, bsbm)?;
    for b in &q4_domain.enumerate(64, derive(args.seed, "probe-prepare")) {
        let (p, ms) = time_ms(|| engine.prepare_template(&q4.template, b));
        let p = p.map_err(e)?;
        prepares.push(ms * 1e3);
        classes.push(time_ms(|| engine.plan_class(&q4.template, b)).1 * 1e3);
        // Rebinding a plan to its own binding is the cache-hit path with
        // the class equality it needs given for free.
        let (r, ms) = time_ms(|| engine.rebind(&p, &q4.template, b));
        r.map_err(e)?;
        rebinds.push(ms * 1e3);
    }
    layers.insert("prepare_us", median(&prepares));
    layers.insert("plan_class_us", median(&classes));
    layers.insert("rebind_us", median(&rebinds));

    let prepared = engine.prepare_template(&q4.template, binding).map_err(e)?;
    let threads = env::threads();
    let pool = WorkerPool::leak(threads - 1);
    let config = |threads| ExecConfig { threads, pool: Some(pool), ..ExecConfig::default() };
    let mut counts = (0u64, 0u64, 0usize);
    let exec_ms = median_of(REPS, || {
        let (out, ms) = time_ms(|| engine.execute_with(&prepared, &ExecConfig::default()));
        let out = out.expect("the heavy cell executes");
        counts = (out.stats.scanned, out.cout, out.results.rows.len());
        ms
    });
    layers.insert("exec_ms", exec_ms);
    layers.insert("exec_ns_per_tuple", exec_ms * 1e6 / (counts.0 + counts.1).max(1) as f64);
    layers.insert("scanned_per_row", counts.0 as f64 / counts.2.max(1) as f64);
    let t1 = median_of(REPS, || time_ms(|| engine.execute_with(&prepared, &config(1)).is_ok()).1);
    let tn =
        median_of(REPS, || time_ms(|| engine.execute_with(&prepared, &config(threads)).is_ok()).1);
    layers.insert("exec_t1_ms", t1);
    layers.insert("exec_tn_ms", tn);
    let granted = pool.stats().granted;

    let catalog = cell(&cells, "CATALOG")?;
    let big = (0..catalog.bindings.len())
        .max_by_key(|&i| catalog.expected[i].rows)
        .expect("cells have members");
    let listing = engine.prepare_template(&catalog.template, &catalog.bindings[big]).map_err(e)?;
    let mut first = Vec::new();
    let mut per_row = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let mut stream = engine.stream(&listing, &ExecConfig::default()).map_err(e)?;
        let mut rows = usize::from(stream.next_row().map_err(e)?.is_some());
        first.push(ms_since(t));
        let t = Instant::now();
        while stream.next_row().map_err(e)?.is_some() {
            rows += 1;
        }
        per_row.push(ms_since(t) * 1e6 / rows.max(1) as f64);
        if rows != catalog.expected[big].rows {
            return Err("the streamed catalog lost rows".into());
        }
    }
    layers.insert("first_row_ms", median(&first));
    layers.insert("drain_ns_per_row", median(&per_row));

    // One budgeted run: BI-Q4 groups by feature and the root type has far
    // more than 64 of them, so the fold must spill. Counts must not move;
    // rows are compared value by value and the differing ones counted (the
    // engine promises none: a budget may move state to disk, not change
    // an answer).
    let budgeted = ExecConfig { mem_budget_rows: Some(64), ..ExecConfig::default() };
    let plain = engine.execute_with(&prepared, &ExecConfig::default()).map_err(e)?;
    let (spilled, spill_ms) = time_ms(|| engine.execute_with(&prepared, &budgeted));
    let spilled = spilled.map_err(e)?;
    if !q4.expected[heavy].counts_match(&spilled) {
        return Err("the budgeted run changed BI-Q4's row count, Cout or scanned".into());
    }
    let changed =
        plain.results.rows.iter().zip(&spilled.results.rows).filter(|(a, b)| a != b).count();
    if changed > 0 {
        notes.push(format!(
            "spill probe: {changed} of {} BI-Q4 rows differ between the budgeted and the unbudgeted run (same counts; the folds sum in different orders)",
            plain.results.rows.len()
        ));
    }
    layers.insert("spilled_rows", spilled.stats.spilled_rows as f64);
    layers.insert("spill_slowdown", spill_ms / exec_ms.max(1e-9));
    layers.insert("spill_rows_changed", changed as f64);

    // --- sparql::serve: one client over the reopened snapshot ------------
    let server = SparqlServer::open(&snapshot, ServeConfig::default()).map_err(e)?;
    let light = cell(&cells, "CHEAPEST")?;
    let direct = Engine::with_exec_config(server.dataset(), ExecConfig::default());
    let mut served = Vec::new();
    let mut parts = Vec::new();
    for round in 0..4 {
        for b in &light.bindings {
            let (out, ms) = time_ms(|| server.run(&light.template, b));
            out.map_err(e)?;
            if round > 0 {
                served.push(ms * 1e3);
            }
            let skeleton = direct.prepare_template(&light.template, b).map_err(e)?;
            let (r, ms) = time_ms(|| {
                direct
                    .plan_class(&light.template, b)
                    .and_then(|_| direct.rebind(&skeleton, &light.template, b))
                    .and_then(|p| direct.execute_with(&p, &ExecConfig::default()))
            });
            r.map_err(e)?;
            if round > 0 {
                parts.push(ms * 1e3);
            }
        }
    }
    layers.insert("serve_overhead_us", median(&served) - median(&parts));
    let stats = server.stats();
    let requests = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    layers.insert("cache_hit_ratio", stats.cache_hits as f64 / requests);
    layers.insert("queue_wait_ms", stats.queue_wait.as_secs_f64() * 1e3 / requests);
    layers.insert("admissions_deferred", stats.admissions_deferred as f64);
    layers.insert("pool_granted", granted as f64);
    layers.insert("pool_capacity", pool.capacity() as f64);
    drop(server);

    // --- core: one BI-Q4 curation, call by call --------------------------
    let domain = q4_domain;
    let profile = ProfileConfig {
        max_bindings: 256,
        seed: derive(args.seed, "probe-core"),
        cost_source: CostSource::EstimatedCout,
    };
    let cluster_config = ClusterConfig { epsilon: 1.0, min_class_size: 3 };
    let (profiles, profile_ms) =
        time_ms(|| profile_domain(&engine, &q4.template, &domain, &profile));
    let profiles = profiles.map_err(|e| e.to_string())?;
    layers.insert("profile_us_per_binding", profile_ms * 1e3 / profiles.len().max(1) as f64);
    let (clustering, cluster_ms) = time_ms(|| cluster(&profiles, &cluster_config));
    let clustering = clustering.map_err(|e| e.to_string())?;
    layers.insert("cluster_ms", cluster_ms);
    layers.insert("classes_kept", clustering.classes.len() as f64);
    layers.insert("profiles_dropped", clustering.dropped.len() as f64);
    let curated = curate(
        &engine,
        &q4.template,
        &domain,
        &CurationConfig { profile, cluster: cluster_config },
    )
    .map_err(|e| e.to_string())?;
    let (samples, sample_ms) = time_ms(|| {
        curated
            .classes()
            .iter()
            .map(|c| curated.sample_class(c.id, 3, profile.seed))
            .collect::<Result<Vec<_>, _>>()
    });
    let samples = samples.map_err(|e| e.to_string())?;
    layers.insert("sample_ms", sample_ms);
    let run_config = RunConfig { warmup: 0, threads: 1, mem_budget_rows: None };
    let (ran, run_ms) = time_ms(|| {
        samples
            .iter()
            .try_for_each(|s| run_workload(&engine, &q4.template, s, &run_config).map(|_| ()))
    });
    ran.map_err(|e| e.to_string())?;
    layers.insert("run_workload_ms", run_ms);
    let (validation, validate_ms) = time_ms(|| {
        validate_workload(
            &engine,
            &curated,
            &ValidationConfig {
                sample_size: 3,
                metric: Metric::Cout,
                seed: profile.seed,
                threads: 1,
                ..ValidationConfig::default()
            },
        )
    });
    let validation = validation.map_err(|e| e.to_string())?;
    layers.insert("validate_ms", validate_ms);
    layers.insert(
        "classes_passing_ratio",
        validation.iter().filter(|c| c.all_ok()).count() as f64 / validation.len().max(1) as f64,
    );

    // --- the workload's own counters replace the probe's -----------------
    let served = traced.counter("served");
    if served > 0.0 {
        layers.insert("cache_hit_ratio", traced.counter("cache_hits") / served);
        layers.insert("queue_wait_ms", traced.counter("queue_wait_total_ms") / served);
        layers.insert("admissions_deferred", traced.counter("admissions_deferred"));
    }
    if let Some(v) = traced.counters.get("pool_granted") {
        layers.insert("pool_granted", *v);
    }
    for name in ["pool_capacity", "overlay_peak_entries"] {
        if let Some(v) = traced.gauges.get(name) {
            layers.insert(name, *v);
        }
    }

    // --- harness: what tracing cost and what the spans cover -------------
    let by_name = trace::self_times(&traced.spans);
    let self_ms: f64 = by_name.values().map(|t| t.self_ms).sum();
    let recording_threads = traced.spans.len().max(1) as f64;
    layers.insert(
        "span_coverage_pct",
        100.0 * self_ms / (traced.wall_s * 1e3 * recording_threads).max(1e-9),
    );
    let (plain, with_spans) = (untraced.throughput(), traced.throughput());
    layers.insert(
        "trace_overhead_pct",
        if plain > 0.0 { 100.0 * (1.0 - with_spans / plain) } else { 0.0 },
    );

    // --- scale probe -----------------------------------------------------
    let base = data::scale(args.size);
    let mut points: Vec<(f64, StoreCosts)> = Vec::new();
    for triples in [base / 4, base, base * 4] {
        let mut scratch_log = LayerLog::default();
        let store = data::bsbm(triples, &mut scratch_log);
        let reps = if args.size == Size::Smoke { 1 } else { 3 };
        points.push((store.dataset.len() as f64, store_costs(&store.dataset, dir, reps)?));
    }
    let slope = |f: fn(&StoreCosts) -> f64| {
        loglog_slope(&points.iter().map(|(n, c)| (*n, f(c))).collect::<Vec<_>>())
    };
    layers.insert("freeze_scale_exp", slope(|c| c.freeze_ms));
    layers.insert("load_scale_exp", slope(|c| c.load_ms));
    layers.insert("clone_scale_exp", slope(|c| c.clone_ms));
    layers.insert("apply_scale_exp", slope(|c| c.apply_ms));
    notes
        .push("scale probe (a cost proportional to the store has slope 1, to the batch 0):".into());
    notes.push(format!(
        "  {:>9} {:>11} {:>9} {:>9} {:>9}",
        "triples", "freeze_ms", "load_ms", "clone_ms", "apply_ms"
    ));
    for (n, c) in &points {
        notes.push(format!(
            "  {:>9} {:>11.3} {:>9.3} {:>9.3} {:>9.3}",
            *n as u64, c.freeze_ms, c.load_ms, c.clone_ms, c.apply_ms
        ));
    }
    notes.push(format!(
        "  {:>9} {:>11.2} {:>9.2} {:>9.2} {:>9.2}",
        "slope",
        layers["freeze_scale_exp"],
        layers["load_scale_exp"],
        layers["clone_scale_exp"],
        layers["apply_scale_exp"]
    ));
    if env::may_state_speedup(threads, granted) {
        notes.push(format!(
            "parallel probe: BI-Q4 t1 {t1:.3} ms, t{threads} {tn:.3} ms, {granted} workers granted, ratio t1/t{threads} {:.2} (base t1 {t1:.3} ms)",
            t1 / tn.max(1e-9)
        ));
    } else {
        notes.push(format!(
            "parallel probe: BI-Q4 t1 {t1:.3} ms, t{threads} {tn:.3} ms, nproc {}, {granted} workers granted: no speed-up is stated",
            env::nproc()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_reads_linear_and_constant_costs() {
        let linear = [(1e4, 2.0), (1e5, 20.0), (1e6, 200.0)];
        let constant = [(1e4, 3.0), (1e5, 3.0), (1e6, 3.0)];
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
        assert!(loglog_slope(&constant).abs() < 1e-9);
    }
}
