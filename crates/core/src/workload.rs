//! Workload execution and measurement.
//!
//! Runs a list of parameter bindings against a template and records, per
//! run: wall-clock time, measured `Cout` (sum of join output cardinalities)
//! and the executed plan's signature. These measurements feed every
//! experiment table (E1–E3), the §III correlation (C1) and the P1–P3
//! validation on the timed metrics (validation on [`Metric::Cout`] measures
//! without a full execution; see [`crate::validate`]).

use std::sync::Arc;
use std::time::Instant;

use parambench_rdf::store::Dataset;
use parambench_sparql::engine::Engine;
use parambench_sparql::plan::PlanSignature;
use parambench_sparql::serve::{drive_clients, ServeConfig, ServeStats, SparqlServer};
use parambench_sparql::template::{Binding, QueryTemplate};
use parambench_sparql::ExecConfig;
use parambench_stats::summary::Summary;

use crate::error::CurationError;

/// One executed query instance.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The parameter binding used.
    pub binding: Binding,
    /// Wall-clock execution time in milliseconds.
    pub millis: f64,
    /// Measured `Cout` (total intermediate join tuples).
    pub cout: u64,
    /// Peak intermediate tuples resident at once during execution — the
    /// memory-side companion of `Cout` (streaming keeps it near the hash
    /// build sides; materialized execution near `Cout` itself).
    pub peak_tuples: u64,
    /// Estimated `Cout` the optimizer predicted.
    pub est_cout: f64,
    /// Result rows returned.
    pub rows: usize,
    /// Signature of the executed plan.
    pub signature: PlanSignature,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Untimed warm-up executions before the measured run (amortizes
    /// allocator/cache effects like a real benchmark driver would).
    pub warmup: usize,
    /// Worker-pool size for morsel-driven parallel execution. Defaults to
    /// the machine's available parallelism. Measured `Cout`, rows and row
    /// order are identical at any value (the engine's determinism
    /// guarantee); only wall-clock measurements change.
    pub threads: usize,
    /// Out-of-core memory budget (resident rows for GROUP BY accumulators
    /// and LIMIT-less sorts; `None` = unlimited). Defaults to the
    /// `SPARQL_MEM_BUDGET_ROWS` environment override. Like `threads`,
    /// this knob cannot change measured `Cout`, rows or row order — only
    /// wall time and spill volume.
    pub mem_budget_rows: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 0,
            threads: parambench_sparql::available_parallelism(),
            mem_budget_rows: parambench_sparql::env_mem_budget_rows(),
        }
    }
}

impl RunConfig {
    /// The configuration [`run_workload`] executes under: the engine's
    /// own, with this run's thread count and memory budget.
    pub(crate) fn exec_config(&self, engine: &Engine<'_>) -> ExecConfig {
        ExecConfig {
            threads: self.threads.max(1),
            mem_budget_rows: self.mem_budget_rows,
            ..engine.exec_config()
        }
    }
}

/// Runs every binding once (after `warmup` untimed runs each) and collects
/// measurements in input order. The template is planned once
/// ([`Engine::template_plan`]) and bound per binding.
pub fn run_workload(
    engine: &Engine<'_>,
    template: &QueryTemplate,
    bindings: &[Binding],
    config: &RunConfig,
) -> Result<Vec<Measurement>, CurationError> {
    let exec = config.exec_config(engine);
    let mut out = Vec::with_capacity(bindings.len());
    let mut plan = engine.template_plan(template)?;
    for b in bindings {
        let prepared = plan.bind(b)?;
        for _ in 0..config.warmup {
            let _ = engine.execute_with(&prepared, &exec)?;
        }
        let result = engine.execute_with(&prepared, &exec)?;
        out.push(Measurement {
            binding: b.clone(),
            millis: result.wall_time.as_secs_f64() * 1e3,
            cout: result.cout,
            peak_tuples: result.stats.peak_tuples,
            est_cout: prepared.est_cout,
            rows: result.results.len(),
            signature: prepared.signature,
        });
    }
    Ok(out)
}

/// Per-template latency digest from a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentTemplateStats {
    /// Template report label.
    pub template: String,
    /// Requests served for this template.
    pub requests: usize,
    /// Total result rows across those requests.
    pub rows: usize,
    /// Requests served from the plan cache (rebind, no prepare).
    pub cache_hits: usize,
    /// Median per-query wall time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query wall time, milliseconds.
    pub p99_ms: f64,
}

/// Result of a multi-client concurrent run ([`run_concurrent`]).
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// Client threads used.
    pub clients: usize,
    /// Total requests served.
    pub requests: usize,
    /// End-to-end wall time of the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate throughput, queries per second.
    pub throughput_qps: f64,
    /// Per-template latency digests, in first-appearance order.
    pub templates: Vec<ConcurrentTemplateStats>,
    /// Serving-layer counters (plan cache, admission, worker pool).
    pub serve: ServeStats,
}

/// Serves `requests` from `clients` in-process client threads against one
/// shared-store [`SparqlServer`] and digests the result: throughput,
/// per-template p50/p99 latency and serving-layer counters — the CI
/// stress entry point.
pub fn run_concurrent(
    ds: Arc<Dataset>,
    requests: &[(QueryTemplate, Binding)],
    clients: usize,
    config: ServeConfig,
) -> Result<ConcurrentRun, CurationError> {
    let server = SparqlServer::new(ds, config);
    let t0 = Instant::now();
    let outputs = drive_clients(&server, clients, requests)?;
    let elapsed = t0.elapsed();

    let mut order: Vec<&str> = Vec::new();
    for (t, _) in requests {
        if !order.contains(&t.name()) {
            order.push(t.name());
        }
    }
    let templates = order
        .iter()
        .map(|name| {
            let mut millis = Vec::new();
            let (mut rows, mut hits) = (0, 0);
            for ((t, _), out) in requests.iter().zip(&outputs) {
                if t.name() == *name {
                    millis.push(out.output.wall_time.as_secs_f64() * 1e3);
                    rows += out.output.results.len();
                    hits += out.cache_hit as usize;
                }
            }
            let digest = Summary::new(&millis).expect("template appears in requests");
            ConcurrentTemplateStats {
                template: name.to_string(),
                requests: millis.len(),
                rows,
                cache_hits: hits,
                p50_ms: digest.median(),
                p99_ms: digest.quantile(0.99),
            }
        })
        .collect();

    Ok(ConcurrentRun {
        clients: clients.max(1),
        requests: requests.len(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_qps: requests.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        templates,
        serve: server.stats(),
    })
}

/// Wall-clock runtimes (ms) of a measurement batch.
pub fn runtimes_ms(measurements: &[Measurement]) -> Vec<f64> {
    measurements.iter().map(|m| m.millis).collect()
}

/// Measured `Cout` values of a batch (deterministic runtime proxy).
pub fn couts(measurements: &[Measurement]) -> Vec<f64> {
    measurements.iter().map(|m| m.cout as f64).collect()
}

/// Peak intermediate-tuple counts of a batch (deterministic memory proxy).
pub fn peaks(measurements: &[Measurement]) -> Vec<f64> {
    measurements.iter().map(|m| m.peak_tuples as f64).collect()
}

/// The metric a validation or experiment aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Wall-clock milliseconds — what the paper reports, noisy on shared
    /// hardware.
    WallMillis,
    /// Measured `Cout` — the paper's runtime proxy (≈85% Pearson), exactly
    /// reproducible; used by deterministic tests. A count the engine
    /// produces without building the result: validation reads it from
    /// [`Engine::measure_cout`], which returns the integer a full
    /// execution reports, so P1–P3 on this metric execute nothing in full.
    Cout,
    /// Peak intermediate tuples resident at once — the memory-side metric
    /// the streaming executor minimizes; also exactly reproducible.
    PeakTuples,
}

impl Metric {
    /// Extracts the metric series from measurements.
    pub fn series(self, measurements: &[Measurement]) -> Vec<f64> {
        match self {
            Metric::WallMillis => runtimes_ms(measurements),
            Metric::Cout => couts(measurements),
            Metric::PeakTuples => peaks(measurements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    fn data() -> parambench_rdf::store::Dataset {
        let mut b = StoreBuilder::new();
        for i in 0..50 {
            b.insert(
                Term::iri(format!("s/{i}")),
                Term::iri("p"),
                Term::iri(format!("o/{}", i % 5)),
            );
            b.insert(Term::iri(format!("s/{i}")), Term::iri("q"), Term::integer(i as i64));
        }
        b.freeze()
    }

    #[test]
    fn measurements_align_with_bindings() {
        let ds = data();
        let engine = Engine::new(&ds);
        let t = QueryTemplate::parse("t", "SELECT ?s ?v WHERE { ?s <p> %o . ?s <q> ?v }").unwrap();
        let bindings: Vec<Binding> =
            (0..5).map(|i| Binding::new().with("o", Term::iri(format!("o/{i}")))).collect();
        let ms = run_workload(&engine, &t, &bindings, &RunConfig::default()).unwrap();
        assert_eq!(ms.len(), 5);
        for (m, b) in ms.iter().zip(&bindings) {
            assert_eq!(&m.binding, b);
            assert_eq!(m.rows, 10);
            assert!(m.millis >= 0.0);
            assert!(m.peak_tuples > 0, "executions hold at least one tuple");
        }
        // Cout and peak tuples are deterministic across repeated runs.
        let again =
            run_workload(&engine, &t, &bindings, &RunConfig { warmup: 1, ..Default::default() })
                .unwrap();
        assert_eq!(couts(&ms), couts(&again));
        assert_eq!(peaks(&ms), peaks(&again));
    }

    #[test]
    fn metric_series_shapes() {
        let ds = data();
        let engine = Engine::new(&ds);
        let t = QueryTemplate::parse("t", "SELECT ?s WHERE { ?s <p> %o }").unwrap();
        let bindings = vec![Binding::new().with("o", Term::iri("o/0"))];
        let ms = run_workload(&engine, &t, &bindings, &RunConfig::default()).unwrap();
        assert_eq!(Metric::WallMillis.series(&ms).len(), 1);
        assert_eq!(Metric::Cout.series(&ms).len(), 1);
        assert_eq!(Metric::PeakTuples.series(&ms).len(), 1);
    }

    #[test]
    fn concurrent_run_matches_serial_and_digests_per_template() {
        let ds = Arc::new(data());
        let t = QueryTemplate::parse("t", "SELECT ?s ?v WHERE { ?s <p> %o . ?s <q> ?v }").unwrap();
        let requests: Vec<(QueryTemplate, Binding)> = (0..10)
            .map(|i| (t.clone(), Binding::new().with("o", Term::iri(format!("o/{}", i % 5)))))
            .collect();
        let run = run_concurrent(Arc::clone(&ds), &requests, 3, ServeConfig::default()).unwrap();
        assert_eq!(run.requests, 10);
        assert_eq!(run.templates.len(), 1);
        assert_eq!(run.templates[0].requests, 10);
        assert_eq!(run.templates[0].rows, 100, "10 requests x 10 rows");
        // 5 distinct bindings of one class: one cold prepare, the rest hits.
        // Exact with one client; with three, a client that looks the key up
        // before the first plan is published prepares too (once per client
        // at most; which ones is a matter of scheduling).
        let serial_clients =
            run_concurrent(Arc::clone(&ds), &requests, 1, ServeConfig::default()).unwrap();
        assert_eq!(serial_clients.serve.cache_misses, 1);
        assert_eq!(serial_clients.serve.cache_hits, 9);
        assert_eq!(serial_clients.templates[0].cache_hits, 9);
        assert_eq!(serial_clients.templates[0].rows, 100);
        assert!((1..=3).contains(&run.serve.cache_misses), "{:?}", run.serve);
        assert_eq!(run.serve.cache_hits + run.serve.cache_misses, 10);
        assert!(run.throughput_qps > 0.0);
        // Concurrent service returns the same row counts as a serial private
        // engine (row-level equality is pinned by the sparql stress suite).
        let engine = Engine::new(&ds);
        let serial = run_workload(
            &engine,
            &t,
            &requests.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>(),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(serial.iter().map(|m| m.rows).sum::<usize>(), 100);
    }

    #[test]
    fn bad_binding_is_reported() {
        let ds = data();
        let engine = Engine::new(&ds);
        let t = QueryTemplate::parse("t", "SELECT ?s WHERE { ?s <p> %o }").unwrap();
        let bad = vec![Binding::new().with("wrong", Term::iri("o/0"))];
        assert!(run_workload(&engine, &t, &bad, &RunConfig::default()).is_err());
    }
}
