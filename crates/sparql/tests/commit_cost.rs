//! The structural proof that a commit is `O(delta)`, in the style of the
//! zero-rebuild assertions around `Dataset::load`: the process-global
//! `parambench_rdf::diag` counters say that a `try_update` batch builds no
//! index, reorders no dictionary and runs no full statistics computation,
//! and `Dataset::shares_base_with` says that the published store reads the
//! very base the pre-commit store reads. Compaction is the counter-proof:
//! it moves every counter and shares nothing. Recovery replays a journal
//! through the same batch APIs, so it performs no full computation either.
//! Wall time is `benchmark/`'s job.
//!
//! One test, alone in its binary: the counters are process-global.

#[path = "common/stores.rs"]
mod stores;

use std::sync::Arc;

use parambench_rdf::diag;
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::serve::{ServeConfig, SparqlServer};

type Triple = (Term, Term, Term);

fn iri(s: String) -> Term {
    Term::iri(s)
}

/// The base triple `(s/i, p/(i % 3), o/(i % 10))`.
fn base_triple(i: usize) -> Triple {
    (iri(format!("s/{i}")), iri(format!("p/{}", i % 3)), iri(format!("o/{}", i % 10)))
}

/// The base triple `(s/i, p/num, i % 7)`.
fn num_triple(i: usize) -> Triple {
    (iri(format!("s/{i}")), iri("p/num".into()), Term::integer((i % 7) as i64))
}

/// The overflow-term triple batch `i` inserts (new subject, new object).
fn new_triple(i: usize) -> Triple {
    (iri(format!("new/s{i}")), iri("p/0".into()), iri(format!("new/o{i}")))
}

fn base() -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for i in 0..40 {
        let (s, p, o) = base_triple(i);
        b.insert(s, p, o);
        let (s, p, o) = num_triple(i);
        b.insert(s, p, o);
    }
    b
}

/// Batch `i` of the 20: `(insert?, triples)`, every triple effective.
/// Cycles through inserts with new terms (subject, predicate and object
/// overflow ids), deletes of base triples, a tombstone lift beside an
/// insert over existing terms, and the delete of an earlier overflow insert.
fn batch(i: usize) -> (bool, Vec<Triple>) {
    match i % 4 {
        0 => (
            true,
            vec![
                new_triple(i),
                (
                    iri(format!("new/s{i}")),
                    iri(format!("p/new{i}")),
                    Term::integer(1000 + i as i64),
                ),
                (iri(format!("s/{i}")), iri("p/1".into()), iri(format!("new/o{i}"))),
            ],
        ),
        1 => (false, vec![base_triple(i), num_triple(i)]),
        2 => (
            true,
            vec![base_triple(i - 1), (iri(format!("s/{i}")), iri("p/0".into()), iri("o/9".into()))],
        ),
        _ => (false, vec![new_triple(i - 3), base_triple(i)]),
    }
}

fn apply(ds: &mut Dataset, (insert, triples): (bool, Vec<Triple>)) -> usize {
    if insert {
        ds.insert_batch(triples)
    } else {
        ds.delete_batch(triples)
    }
}

/// `(index builds, dictionary reorders, full statistics computations)`.
fn counters() -> (u64, u64, u64) {
    (diag::index_builds(), diag::dict_reorders(), diag::stats_computes())
}

#[test]
fn a_commit_costs_the_batch_and_only_compaction_rebuilds_the_base() {
    let heap = base().freeze();
    let loaded = stores::reload(&heap);
    assert!(loaded.is_loaded() && !heap.is_loaded());
    for (kind, ds) in [("heap", heap), ("loaded", loaded)] {
        let mut server = SparqlServer::new(Arc::new(ds), ServeConfig::default());
        for i in 0..20 {
            let before = server.dataset().clone();
            let (insert, triples) = batch(i);
            let want = triples.len();
            let at = counters();
            let changed = server.try_update(|ds| apply(ds, (insert, triples))).unwrap();
            assert_eq!(counters(), at, "[{kind}] batch {i} did O(store) work");
            assert_eq!(changed, want, "[{kind}] batch {i} must be all effective");
            let after = server.dataset();
            assert!(!Arc::ptr_eq(after, &before), "[{kind}] a new store version is published");
            assert!(after.shares_base_with(&before), "[{kind}] batch {i} copied the base");
            if i % 4 == 2 {
                assert_eq!(
                    after.overlay().dels_len() + 1,
                    before.overlay().dels_len(),
                    "[{kind}] batch {i} lifts a tombstone"
                );
            }
        }
        assert!(server.dataset().dict().len() > server.dataset().frozen_terms());

        // The counter-proof: compaction is where the base is rebuilt.
        let before = server.dataset().clone();
        let (builds, reorders, computes) = counters();
        server.try_update(|ds| ds.compact()).unwrap();
        assert_eq!(
            counters(),
            (builds + 6, reorders + 1, computes + 2),
            "[{kind}] compaction re-freezes: six indexes, one reorder, both statistics"
        );
        assert!(!server.dataset().shares_base_with(&before), "[{kind}] compaction builds a base");
        assert_eq!(server.dataset().len(), before.len());
    }

    // Recovery: load + O(journal). Twenty records replay through the same
    // batch APIs and leave the counters where they were.
    let dir = std::env::temp_dir().join(format!("parambench-commitcost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(base().freeze());
    let mut server =
        SparqlServer::create_durable(store, &dir, ServeConfig::default()).expect("creates");
    for i in 0..20 {
        server.try_update(|ds| apply(ds, batch(i))).unwrap();
    }
    let live = server.dataset().clone();
    drop(server);
    let at = counters();
    let recovered = SparqlServer::open_durable(&dir, ServeConfig::default()).expect("recovers");
    assert_eq!(counters(), at, "recovery did O(store) work beyond the load");
    assert_eq!(recovered.recovered_records(), 20);
    assert_eq!(recovered.dataset().stats(), live.stats(), "recovered statistics");
    assert_eq!(recovered.dataset().char_sets(), live.char_sets(), "recovered characteristic sets");
    assert_eq!(recovered.dataset().len(), live.len());
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
