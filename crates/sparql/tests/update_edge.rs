//! Edge cases of the live-update overlay at the query-engine level:
//! the empty-overlay fast path really merges nothing (`ExecStats::
//! overlay_rows == 0`), overflow terms force real sorts instead of
//! misordered "eliminated" ones, a non-overflow overlay keeps sort
//! elimination, and `SparqlServer` invalidates cached plans across an
//! update epoch (the stale-plan regression: a cached sort-eliminated plan
//! must not survive an update that breaks the order invariant).
//!
//! (Store-level edge cases — delete of a never-inserted triple, re-insert
//! after delete, delete-then-compact — live in `rdf::store`'s unit tests.)

use std::sync::Arc;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::parse_query;
use parambench_sparql::serve::{ServeConfig, SparqlServer};
use parambench_sparql::template::{Binding, QueryTemplate};

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

fn run(ds: &Dataset, text: &str) -> parambench_sparql::engine::QueryOutput {
    let engine = Engine::new(ds);
    let query = parse_query(text).unwrap();
    engine.execute(&engine.prepare(&query).unwrap()).unwrap()
}

/// Base store: `s/i --p--> o/…` plus numeric prices.
fn base_store() -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..20u32 {
        b.insert(iri(&format!("s/{i:02}")), iri("p"), iri(&format!("o/{:02}", i % 7)));
        b.insert(iri(&format!("s/{i:02}")), iri("price"), Term::integer((i as i64 * 13) % 50));
    }
    b.freeze()
}

#[test]
fn empty_overlay_scans_report_zero_merge_overhead() {
    let mut ds = base_store();
    let text = "SELECT ?s ?v WHERE { ?s <p> ?v . }";
    let out = run(&ds, text);
    assert_eq!(out.stats.overlay_rows, 0, "frozen store must take the overlay-free fast path");
    assert_eq!(out.results.len(), 20);

    // The counter is live, not vacuous: the same scan over a non-empty
    // overlay reports the delta entries it merged.
    assert!(ds.insert(iri("s/99"), iri("p"), iri("o/00")));
    assert!(ds.delete(&iri("s/00"), &iri("p"), &iri("o/00")));
    let out = run(&ds, text);
    assert!(out.stats.overlay_rows >= 2, "overlay scan must report its delta entries");
    assert_eq!(out.results.len(), 20);

    // And compaction folds the deltas back in: fast path again.
    ds.compact();
    let out = run(&ds, text);
    assert_eq!(out.stats.overlay_rows, 0, "compacted store must take the fast path again");
}

#[test]
fn overflow_term_order_by_sorts_correctly_between_frozen_ids() {
    let mut ds = base_store();
    // `o/031` did not exist at freeze: it gets an overflow id, but sorts
    // between the frozen terms `o/03` and `o/04` by value.
    assert!(ds.insert(iri("s/00"), iri("p"), iri("o/031")));
    assert!(!ds.order_by_value_intact());

    let text = "SELECT ?v WHERE { ?s <p> ?v . } ORDER BY ASC(?v) LIMIT 30";
    let out = run(&ds, text);
    assert!(out.stats.sorted_rows > 0, "order service must decline under overflow: sort runs");

    // Reference: the same visible set frozen from scratch (value-ordered
    // dictionary includes the new term at its proper rank).
    let mut b = StoreBuilder::new();
    for t in ds.scan([None, None, None]).collect::<Vec<_>>() {
        b.insert(ds.decode(t[0]).clone(), ds.decode(t[1]).clone(), ds.decode(t[2]).clone());
    }
    let fresh = b.freeze();
    let fresh_out = run(&fresh, text);
    assert_eq!(out.results, fresh_out.results, "overflow ORDER BY must deliver value order");

    // Compaction restores the invariant and sort elimination.
    ds.compact();
    assert!(ds.order_by_value_intact());
    let out = run(&ds, text);
    assert_eq!(out.stats.sorted_rows, 0, "compacted store eliminates the sort again");
    assert_eq!(out.results, fresh_out.results);
}

#[test]
fn non_overflow_overlay_keeps_sort_elimination() {
    let mut ds = base_store();
    let text = "SELECT ?v WHERE { ?s <p> ?v . } ORDER BY ASC(?v) LIMIT 30";
    let baseline = run(&ds, text);
    assert_eq!(baseline.stats.sorted_rows, 0, "base store eliminates this sort");

    // Updates over *existing* terms only: merged scans stay id-ordered and
    // ids still mean values, so elimination remains sound and active.
    assert!(ds.insert(iri("s/01"), iri("p"), iri("o/05")));
    assert!(ds.delete(&iri("s/02"), &iri("p"), &iri("o/02")));
    assert!(ds.order_by_value_intact());
    let out = run(&ds, text);
    assert_eq!(out.stats.sorted_rows, 0, "non-overflow overlay must keep the elimination");
    assert!(out.stats.overlay_rows > 0, "and the scan really merged overlay entries");

    // Cross-check the order against a from-scratch freeze.
    let mut b = StoreBuilder::new();
    for t in ds.scan([None, None, None]).collect::<Vec<_>>() {
        b.insert(ds.decode(t[0]).clone(), ds.decode(t[1]).clone(), ds.decode(t[2]).clone());
    }
    let fresh_out = run(&b.freeze(), text);
    assert_eq!(out.results, fresh_out.results);
}

/// The stale-plan regression: a plan cached before an update must not be
/// served after it. The scenario is chosen so a stale plan would return
/// *wrong* results, not just stale statistics: the cached plan eliminated
/// its ORDER BY (valid at epoch 0), then the update introduces an
/// overflow term that breaks id-order ⇒ value-order — replaying the
/// cached plan would emit the new term last instead of value-sorted.
#[test]
fn server_invalidates_cached_plans_across_epoch_bump() {
    let template = QueryTemplate::parse(
        "catalog",
        "SELECT ?v WHERE { ?s <p> ?v . ?s <price> %min . } ORDER BY ASC(?v)",
    )
    .expect("template parses");
    let binding = Binding::new().with("min", Term::integer(0));

    let mut server = SparqlServer::new(Arc::new(base_store()), ServeConfig::default());
    let first = server.run(&template, &binding).expect("cold run");
    assert!(!first.cache_hit);
    let second = server.run(&template, &binding).expect("warm run");
    assert!(second.cache_hit, "repeat request must hit the plan cache");
    assert_eq!(server.stats().cache_misses, 1);
    assert_eq!(server.stats().epoch, 0);

    // The update: a brand-new object term (overflow id) on a subject with
    // price 0, so it lands in this template's result set.
    server
        .try_update(|ds| {
            assert!(ds.insert(iri("s/90"), iri("p"), iri("o/0a")));
            assert!(ds.insert(iri("s/90"), iri("price"), Term::integer(0)));
        })
        .unwrap();
    let stats = server.stats();
    assert_eq!(stats.epoch, 1);
    assert!(stats.plan_invalidations >= 1, "the cached plan must be discarded");

    let third = server.run(&template, &binding).expect("post-update run");
    assert!(!third.cache_hit, "post-update request must re-prepare, not reuse the stale plan");
    assert_eq!(server.stats().cache_misses, 2);

    // Correctness across the epoch: rows match a cold engine over a
    // from-scratch freeze of the updated visible set (value-sorted, the
    // new term at its proper rank — exactly what a stale sort-eliminated
    // plan would get wrong).
    let mut b = StoreBuilder::new();
    {
        let ds = server.dataset();
        for t in ds.scan([None, None, None]).collect::<Vec<_>>() {
            b.insert(ds.decode(t[0]).clone(), ds.decode(t[1]).clone(), ds.decode(t[2]).clone());
        }
    }
    let fresh = b.freeze();
    let engine = Engine::new(&fresh);
    let expected = engine.run_template(&template, &binding).expect("reference run");
    assert_eq!(third.output.results, expected.results, "rows diverge across the epoch bump");
    assert!(
        third.output.results.rows.iter().any(|r| format!("{:?}", r).contains("o/0a")),
        "the update's new term must appear in the post-update result"
    );

    // Compaction through the server restores order service; the cache is
    // invalidated again and subsequent plans eliminate the sort.
    server.try_update(|ds| ds.compact()).unwrap();
    assert_eq!(server.stats().epoch, 2);
    let fourth = server.run(&template, &binding).expect("post-compact run");
    assert!(!fourth.cache_hit);
    assert_eq!(fourth.output.results, expected.results);
    assert_eq!(fourth.output.stats.sorted_rows, 0, "compacted store eliminates the sort");
}
