//! Streaming-output contract: for every modifier epilogue shape the
//! engine can produce, draining [`parambench_sparql::RowStream`] row by
//! row yields exactly the rows and order of the reference implementation
//! (`Engine::execute_unpushed`: the same pattern part, every modifier
//! applied after materialization) — and, where no LIMIT may cut execution
//! short, the same `Cout`. `execute` *is* the stream drained by
//! `collect_output`, so comparing those two would compare a thing with
//! itself.

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::{parse_query, ExecConfig, OutVal};

/// Rows with a sortable rank, a low-cardinality group and duplicates —
/// enough to exercise DISTINCT, TopK, external sort and aggregation.
fn dataset(n: usize) -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..n {
        let s = Term::iri(format!("s/{i:04}"));
        b.insert(s.clone(), Term::iri("grp"), Term::iri(format!("g/{}", i % 7)));
        b.insert(s.clone(), Term::iri("rank"), Term::integer((i * 31 % n) as i64));
        b.insert(s, Term::iri("dup"), Term::iri(format!("d/{}", i % 5)));
    }
    b.freeze()
}

/// Every epilogue shape the streaming path must reproduce bit-identically:
/// plain pipelines, slices, sort elimination, sorted DISTINCT, TopK,
/// external sort, in-memory sort, DISTINCT after a real sort and pushed
/// aggregation.
const SHAPES: &[(&str, &str)] = &[
    ("plain", "SELECT ?s ?g WHERE { ?s <grp> ?g }"),
    ("slice", "SELECT ?s ?r WHERE { ?s <rank> ?r } LIMIT 17 OFFSET 5"),
    ("sort_elim", "SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY ?s"),
    ("distinct_sorted", "SELECT DISTINCT ?d WHERE { ?s <dup> ?d } ORDER BY ?d"),
    ("topk", "SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY DESC(?r) ?s LIMIT 9"),
    ("full_sort", "SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY DESC(?r) ?s"),
    ("join_sort", "SELECT ?s ?g ?r WHERE { ?s <grp> ?g . ?s <rank> ?r } ORDER BY ?g DESC(?r) ?s"),
    (
        "distinct_after_sort",
        "SELECT DISTINCT ?g WHERE { ?s <grp> ?g . ?s <rank> ?r } ORDER BY DESC(?r) LIMIT 5 OFFSET 1",
    ),
    (
        "aggregate",
        "SELECT ?g (COUNT(?s) AS ?n) (SUM(?r) AS ?t) WHERE { ?s <grp> ?g . ?s <rank> ?r } \
         GROUP BY ?g ORDER BY ?g",
    ),
    ("limit_zero", "SELECT ?s WHERE { ?s <grp> ?g } LIMIT 0"),
];

/// The execution configs the differential runs under: serial in-memory,
/// tiny memory budget (external-sort / spill path), and tiny-morsel
/// parallel (streaming over a gathered parallel source).
fn configs() -> Vec<(&'static str, ExecConfig)> {
    vec![
        ("serial", ExecConfig::default()),
        ("budget4", ExecConfig { mem_budget_rows: Some(4), ..ExecConfig::default() }),
        (
            "parallel",
            ExecConfig {
                threads: 4,
                morsel_rows: 5,
                min_driver_rows: 1,
                min_est_cost: 0.0,
                ..ExecConfig::default()
            },
        ),
    ]
}

#[test]
fn stream_matches_the_unpushed_reference_for_every_epilogue_shape() {
    let ds = dataset(300);
    for (shape, text) in SHAPES {
        for (cfg_name, exec) in configs() {
            let ctx = format!("shape {shape}, config {cfg_name}");
            let engine = Engine::with_exec_config(&ds, exec);
            let prepared = engine.prepare(&parse_query(text).unwrap()).unwrap();
            let want = engine.execute_unpushed(&prepared).unwrap();

            // Row-by-row drain.
            let mut stream = engine.stream(&prepared, &exec).unwrap();
            assert_eq!(stream.columns(), &want.results.columns[..], "{ctx}");
            let mut rows: Vec<Vec<OutVal>> = Vec::new();
            while let Some(row) = stream.next_row().unwrap_or_else(|e| panic!("{ctx}: {e}")) {
                rows.push(row);
            }
            assert_eq!(rows, want.results.rows, "streamed rows diverge: {ctx}");
            let end = stream.finish();
            if prepared.modifiers.limit.is_none() {
                assert_eq!(end.cout, want.cout, "streamed Cout diverges: {ctx}");
                assert_eq!(end.stats.scanned, want.stats.scanned, "streamed scan count: {ctx}");
            } else {
                assert!(end.cout <= want.cout, "early exit may only do less join work: {ctx}");
            }

            // Materializing drain (what `execute` and the serving layer use).
            let collected = engine.stream(&prepared, &exec).unwrap().collect_output().unwrap();
            assert_eq!(collected.results, want.results, "collect_output diverges: {ctx}");
            assert_eq!(collected.cout, end.cout, "{ctx}");
        }
    }
}

#[test]
fn stream_is_an_iterator_and_supports_early_drop() {
    let ds = dataset(120);
    let engine = Engine::new(&ds);
    let prepared = engine
        .prepare(&parse_query("SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY ?s").unwrap())
        .unwrap();
    let exec = ExecConfig::default();
    let want = engine.execute_with(&prepared, &exec).unwrap();

    // Iterator interface yields the same rows.
    let rows: Vec<_> = engine.stream(&prepared, &exec).unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(rows, want.results.rows);

    // A partially drained stream can be dropped without finishing: the
    // serving layer relies on this to cancel slow clients cheaply.
    let mut partial = engine.stream(&prepared, &exec).unwrap();
    for _ in 0..10 {
        assert!(partial.next_row().unwrap().is_some());
    }
    drop(partial);

    // The stream borrows only the dataset, not the engine: results can be
    // drained after the preparing engine value is gone.
    let stream = {
        let scoped = Engine::new(&ds);
        let p =
            scoped.prepare(&parse_query("SELECT ?s WHERE { ?s <grp> <g/0> }").unwrap()).unwrap();
        scoped.stream(&p, &exec).unwrap()
    };
    assert_eq!(stream.count(), 18, "120 subjects, every 7th in g/0");
}
