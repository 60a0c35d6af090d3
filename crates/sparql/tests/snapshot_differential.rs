//! Differential suite for the persistent snapshot path: every query must
//! produce **bit-identical** output — rows, row order, measured `Cout`,
//! `scanned`, `peak_tuples` — whether the engine runs over the freshly
//! frozen in-memory store or over the same store saved to disk and
//! reloaded ([`Dataset::save`] / [`Dataset::load`], zero-copy mapped
//! scans). The loaded store's results are additionally checked against
//! the independent naive oracle, and the load is asserted to perform no
//! index builds and no dictionary reorders (`parambench_rdf::diag`) — the
//! structural proof that snapshots reload without rebuilding.

mod common;
#[path = "common/stores.rs"]
mod stores;

use common::oracle;
use proptest::prelude::*;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::parse_query;

/// Same small-vocabulary random dataset the streaming differential suite
/// uses: predicate 3 carries small integers so ORDER BY sees numerics.
fn dataset(triples: &[(u8, u8, u8)]) -> Dataset {
    let mut b = StoreBuilder::new();
    for &(s, p, o) in triples {
        let object = if p % 4 == 3 {
            Term::integer((o % 8) as i64)
        } else {
            Term::iri(format!("o/{}", o % 12))
        };
        b.insert(Term::iri(format!("s/{}", s % 12)), Term::iri(format!("p/{}", p % 4)), object);
    }
    b.freeze()
}

/// Serializes the tests in this binary: the zero-rebuild assertions read
/// the process-global `diag` counters before and after a load, and a
/// concurrent test thread freezing its own dataset would move them.
static DIAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Saves `built` to a temp snapshot and loads it back, asserting the
/// round trip performed zero rebuild work.
fn reload(built: &Dataset) -> Dataset {
    let builds = parambench_rdf::diag::index_builds();
    let reorders = parambench_rdf::diag::dict_reorders();
    let loaded = stores::reload(built);
    assert_eq!(parambench_rdf::diag::index_builds(), builds, "load must not build indexes");
    assert_eq!(parambench_rdf::diag::dict_reorders(), reorders, "load must not reorder the dict");
    loaded
}

/// Runs `text` on both stores and demands bit-identical output, then
/// cross-checks the loaded store against the oracle.
fn check_case(built: &Dataset, loaded: &Dataset, text: &str) {
    let query = parse_query(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
    let run = |ds: &Dataset| {
        let engine = Engine::new(ds);
        let prepared = engine.prepare(&query).unwrap_or_else(|e| panic!("prepare {text:?}: {e}"));
        engine.execute(&prepared).unwrap_or_else(|e| panic!("execute {text:?}: {e}"))
    };
    let mem = run(built);
    let snap = run(loaded);
    assert_eq!(mem.results, snap.results, "rows diverge for {text}");
    assert_eq!(mem.cout, snap.cout, "Cout diverges for {text}");
    assert_eq!(mem.stats.scanned, snap.stats.scanned, "scanned diverges for {text}");
    assert_eq!(mem.stats.peak_tuples, snap.stats.peak_tuples, "peak diverges for {text}");
    let reference = oracle::evaluate(loaded, &query);
    oracle::assert_matches(&snap.results, &reference, text);
}

/// The query mix: joins, a numeric filter, DISTINCT, ORDER BY (IRI-valued
/// and numeric-valued keys), aggregation, LIMIT/OFFSET — enough shape
/// variety that a subtly wrong mapped scan or dictionary cannot hide.
fn query_mix() -> Vec<String> {
    vec![
        "SELECT ?s ?v WHERE { ?s <p/0> ?v . }".into(),
        "SELECT ?s ?u ?v WHERE { ?s <p/0> ?u . ?s <p/1> ?v . }".into(),
        "SELECT DISTINCT ?v WHERE { ?s <p/2> ?v . } ORDER BY ASC(?v)".into(),
        "SELECT ?s ?n WHERE { ?s <p/3> ?n . FILTER(?n >= 3) } ORDER BY DESC(?n) ASC(?s)".into(),
        "SELECT ?s ?n WHERE { ?s <p/0> ?u . ?s <p/3> ?n . } ORDER BY ASC(?n) LIMIT 5".into(),
        "SELECT ?s (COUNT(?v) AS ?c) (SUM(?n) AS ?t) WHERE { ?s <p/0> ?v . ?s <p/3> ?n . } \
         GROUP BY ?s ORDER BY DESC(?c) ASC(?s)"
            .into(),
        "SELECT ?s ?v WHERE { ?s <p/1> ?v . OPTIONAL { ?s <p/3> ?n . FILTER(?n > 4) } } \
         ORDER BY ASC(?s) LIMIT 4 OFFSET 2"
            .into(),
    ]
}

#[test]
fn fixed_mix_is_bit_identical_on_a_loaded_snapshot() {
    let _guard = DIAG_LOCK.lock().unwrap();
    let triples: Vec<(u8, u8, u8)> =
        (0u8..60).map(|i| (i % 11, i % 5, i.wrapping_mul(7) % 13)).collect();
    let built = dataset(&triples);
    let loaded = reload(&built);
    assert!(loaded.is_loaded());
    for text in query_mix() {
        check_case(&built, &loaded, &text);
    }
}

#[test]
fn empty_store_snapshot_serves_queries() {
    let _guard = DIAG_LOCK.lock().unwrap();
    let built = dataset(&[]);
    let loaded = reload(&built);
    for text in query_mix() {
        check_case(&built, &loaded, &text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random datasets through the full mix: freeze → save → load → every
    /// query bit-identical and oracle-clean.
    #[test]
    fn random_datasets_round_trip_bit_identically(
        triples in prop::collection::vec((0u8..12, 0u8..5, 0u8..16), 0..120),
    ) {
        let _guard = DIAG_LOCK.lock().unwrap();
        let built = dataset(&triples);
        let loaded = reload(&built);
        for text in query_mix() {
            check_case(&built, &loaded, &text);
        }
    }
}
