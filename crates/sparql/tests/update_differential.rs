//! Differential suite for the live-update overlay: after any interleaving
//! of insert/delete batches, every query over the updated store must be
//! **bit-identical** — rows, row order, measured `Cout`, `scanned`, and
//! the prepared plan's signature — to the same query over a dataset
//! frozen *from scratch* with the same visible triples, swept over
//! thread counts {1, 4}. The updated store's results are additionally checked against the
//! independent naive oracle, and `compact()` must preserve all of it (the
//! re-freeze changes representation, never results or plans). Every
//! pre-interned interleaving runs twice: over a heap-built base and over
//! the same base reloaded from a snapshot — a mapped base under a live
//! overlay, which is what a durable server serves after recovery.
//!
//! The full term vocabulary is pre-interned in both builders, so the
//! update path never creates dictionary overflow ids and both stores
//! carry the *same* value-ordered dictionary — the precondition for
//! comparing rows at the id level and plans by signature. A second,
//! deliberately *non*-pre-interned variant re-runs the same
//! interleavings with overflow-id-creating batches and checks every
//! sweep config against the oracle: it exists to pin the engine's
//! `order_by_value_intact` gate — a seeded mutant dropping that gate in
//! `delivered_order` survives the pre-interned tests (ids there *are*
//! value-ordered) but is caught here, because the engine would then
//! claim id order as value order and skip sorts the overflow ids have
//! invalidated. Remaining overflow-id edge behaviour (explain output,
//! compaction re-interning) is covered in `update_edge.rs`.

mod common;
#[path = "common/explained.rs"]
mod explained;
#[path = "common/stores.rs"]
mod stores;

use std::collections::BTreeSet;

use common::oracle;
use explained::{assert_executed_as_explained, assert_morselized_iff_qualified};
use proptest::prelude::*;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::exec::ExecConfig;
use parambench_sparql::{parse_query, Dedup, Fold, Sort};

/// One encoded triple of the small test vocabulary.
type Triple = (u8, u8, u8);

/// One update batch: `true` = insert these, `false` = delete these.
type Batch = (bool, Vec<Triple>);

/// The decoded visible triple set a store must serve.
type Model = BTreeSet<(Term, Term, Term)>;

fn term_s(s: u8) -> Term {
    Term::iri(format!("s/{}", s % 12))
}

fn term_p(p: u8) -> Term {
    Term::iri(format!("p/{}", p % 4))
}

fn term_o(p: u8, o: u8) -> Term {
    // Predicate 3 carries small integers so ORDER BY sees numerics.
    if p % 4 == 3 {
        Term::integer((o % 8) as i64)
    } else {
        Term::iri(format!("o/{}", o % 12))
    }
}

fn terms_of(t: Triple) -> (Term, Term, Term) {
    (term_s(t.0), term_p(t.1), term_o(t.1, t.2))
}

/// A builder with the complete test vocabulary pre-interned, so the live
/// store and the from-scratch store end up with identical value-ordered
/// dictionaries no matter which triples each run inserts.
fn preinterned_builder() -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for s in 0..12 {
        b.dict_mut().encode(Term::iri(format!("s/{s}")));
    }
    for p in 0..4 {
        b.dict_mut().encode(Term::iri(format!("p/{p}")));
    }
    for o in 0..12 {
        b.dict_mut().encode(Term::iri(format!("o/{o}")));
    }
    for n in 0..8 {
        b.dict_mut().encode(Term::integer(n));
    }
    b
}

/// Applies the update batches live to `ds`.
fn apply_batches(ds: &mut Dataset, batches: &[Batch]) {
    for (insert, triples) in batches {
        let batch = triples.iter().map(|&t| terms_of(t));
        if *insert {
            ds.insert_batch(batch);
        } else {
            ds.delete_batch(batch);
        }
    }
}

/// What should be visible after `batches` ran over `base`.
fn model_of(base: &[Triple], batches: &[Batch]) -> Model {
    let mut model: Model = base.iter().map(|&t| terms_of(t)).collect();
    for (insert, triples) in batches {
        for t in triples.iter().map(|&t| terms_of(t)) {
            if *insert {
                model.insert(t);
            } else {
                model.remove(&t);
            }
        }
    }
    model
}

/// Freezes `base` over the pre-interned vocabulary and applies the update
/// batches live — once on the heap-built base, once on the same base
/// reloaded from a snapshot — returning both stores with the model of what
/// should now be visible.
fn live_stores(base: &[Triple], batches: &[Batch]) -> ([(&'static str, Dataset); 2], Model) {
    let mut b = preinterned_builder();
    for &t in base {
        let (s, p, o) = terms_of(t);
        b.insert(s, p, o);
    }
    let heap = b.freeze();
    let loaded = stores::reload(&heap);
    let mut legs = [("heap", heap), ("loaded", loaded)];
    for (_, ds) in &mut legs {
        apply_batches(ds, batches);
    }
    (legs, model_of(base, batches))
}

/// The non-pre-interned twin of [`live_stores`] (heap base only): the
/// builder interns only what the *base* triples mention, so any new term
/// an update batch introduces after `freeze()` gets a dictionary
/// **overflow id** — out of value order by construction. On such a store
/// the engine must decline the order service (`order_by_value_intact` is
/// false) and really sort.
fn live_store_raw(base: &[Triple], batches: &[Batch]) -> (Dataset, Model) {
    let mut b = StoreBuilder::new();
    for &t in base {
        let (s, p, o) = terms_of(t);
        b.insert(s, p, o);
    }
    let mut ds = b.freeze();
    apply_batches(&mut ds, batches);
    (ds, model_of(base, batches))
}

/// Freezes the model's visible set from scratch — the reference store.
fn fresh_store(model: &Model) -> Dataset {
    let mut b = preinterned_builder();
    for (s, p, o) in model {
        b.insert(s.clone(), p.clone(), o.clone());
    }
    b.freeze()
}

/// The sweep: serial and parallel execution. The parallel config forces
/// morselization down to toy sizes so the 4-thread leg actually runs the
/// parallel paths.
fn exec_sweep() -> Vec<(&'static str, ExecConfig)> {
    let parallel = ExecConfig {
        morsel_rows: 7,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        ..ExecConfig::with_threads(4)
    };
    vec![("t1", ExecConfig::with_threads(1)), ("t4", parallel)]
}

/// The 10-query mix: joins, a numeric filter, DISTINCT + ORDER BY,
/// multi-key ordering, ORDER + LIMIT, aggregation, OPTIONAL + FILTER with
/// LIMIT/OFFSET — enough shape variety that a subtly wrong overlay merge
/// (a dropped add, a leaked tombstone, a mis-ordered splice) cannot hide.
/// Two pin what EXPLAIN must say about the order service: an aggregate
/// whose group-clustered delivery eliminates the sort on the serial
/// configs but not on the morselized ones (worker-side fold), and an
/// `ORDER BY ... DESC` over a bare index scan, which always sorts. The
/// last deduplicates after a real sort: its DESC key is not projected.
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
        "SELECT ?s (COUNT(?v) AS ?c) WHERE { ?s <p/0> ?v . ?s <p/1> ?u . } \
         GROUP BY ?s ORDER BY ASC(?s)"
            .into(),
        "SELECT ?s ?n WHERE { ?s <p/3> ?n . } ORDER BY DESC(?n)".into(),
        "SELECT DISTINCT ?s WHERE { ?s <p/3> ?n . } ORDER BY DESC(?n) LIMIT 6 OFFSET 1".into(),
    ]
}

/// Runs the whole mix over the whole sweep on both stores and demands
/// bit-identical rows/order/Cout/scanned and equal plan signatures; the
/// live store is additionally oracle-checked per query. The `t1` leg
/// must take every order-based path somewhere in the mix: sort
/// elimination, the post-sort dedup and — without a memory budget, which
/// routes every fold through the external one — the ordered fold. Returns
/// whether the `t4` leg ran some bind-join spine over morsels: that needs
/// data under a spine's driving scan, so the callers that know their
/// store assert it.
fn check_differential(live: &Dataset, fresh: &Dataset, label: &str) -> bool {
    assert_eq!(live.len(), fresh.len(), "[{label}] visible counts diverge");
    let (mut eliminated, mut post_sort_dedup, mut ordered_fold) = (false, false, false);
    let mut morselized = false;
    for text in query_mix() {
        let query = parse_query(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        for (cfg_name, cfg) in exec_sweep() {
            let mut run = |ds: &Dataset| {
                let engine = Engine::with_exec_config(ds, cfg);
                let prepared = engine
                    .prepare(&query)
                    .unwrap_or_else(|e| panic!("[{label}/{cfg_name}] prepare {text:?}: {e}"));
                let sig = prepared.signature.clone();
                let ctx = format!("[{label}/{cfg_name}] {text}");
                let plan = engine.physical_plan(&prepared, &cfg);
                assert_morselized_iff_qualified(ds, &plan, &cfg, &ctx);
                let out = engine.execute(&prepared).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_executed_as_explained(&plan, &out, &cfg, &ctx);
                if cfg_name == "t1" {
                    eliminated |= plan.sort == Sort::Eliminated;
                    post_sort_dedup |= plan.dedup == Dedup::SortAware;
                    ordered_fold |=
                        plan.fold == Some(Fold::Ordered) || cfg.mem_budget_rows.is_some();
                }
                if cfg_name == "t4" {
                    morselized |= plan.morselized;
                }
                (sig, out)
            };
            let (live_sig, live_out) = run(live);
            let (fresh_sig, fresh_out) = run(fresh);
            assert_eq!(
                live_sig, fresh_sig,
                "[{label}/{cfg_name}] plan signatures diverge for {text}"
            );
            assert_eq!(
                live_out.results, fresh_out.results,
                "[{label}/{cfg_name}] rows diverge for {text}"
            );
            assert_eq!(
                live_out.cout, fresh_out.cout,
                "[{label}/{cfg_name}] Cout diverges for {text}"
            );
            assert_eq!(
                live_out.stats.scanned, fresh_out.stats.scanned,
                "[{label}/{cfg_name}] scanned diverges for {text}"
            );
        }
        // Independent semantics check of the overlay-merged store (the
        // oracle scans the dataset directly, so this exercises the merge
        // through a second, unrelated consumer).
        let engine = Engine::new(live);
        let out = engine.execute(&engine.prepare(&query).unwrap()).unwrap();
        let reference = oracle::evaluate(live, &query);
        oracle::assert_matches(&out.results, &reference, &format!("[{label}] {text}"));
    }
    assert!(eliminated, "[{label}] t1 eliminated no sort");
    assert!(post_sort_dedup, "[{label}] t1 deduplicated after no sort");
    assert!(ordered_fold, "[{label}] t1 folded nothing in order");
    morselized
}

/// Oracle check of a store whose dictionary may carry overflow ids: the
/// live and fresh dictionaries differ, so ids, plan signatures and
/// `scanned` are not comparable — but the *decoded* results under every
/// sweep config must still satisfy the oracle (ORDER BY compared tie
/// class by tie class, so genuinely sorted output is required wherever
/// the keys demand it).
fn check_against_oracle(live: &Dataset, label: &str) {
    for text in query_mix() {
        let query = parse_query(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        let reference = oracle::evaluate(live, &query);
        for (cfg_name, cfg) in exec_sweep() {
            let engine = Engine::with_exec_config(live, cfg);
            let prepared = engine
                .prepare(&query)
                .unwrap_or_else(|e| panic!("[{label}/{cfg_name}] prepare {text:?}: {e}"));
            let out = engine
                .execute(&prepared)
                .unwrap_or_else(|e| panic!("[{label}/{cfg_name}] execute {text:?}: {e}"));
            oracle::assert_matches(
                &out.results,
                &reference,
                &format!("[{label}/{cfg_name}] {text}"),
            );
        }
    }
}

#[test]
fn fixed_interleaving_matches_from_scratch_freeze() {
    let base: Vec<Triple> = (0u8..50).map(|i| (i % 11, i % 5, i.wrapping_mul(7) % 13)).collect();
    let batches: Vec<Batch> = vec![
        (true, (0u8..20).map(|i| (i % 9, (i + 1) % 5, i.wrapping_mul(3) % 14)).collect()),
        (false, (0u8..25).map(|i| (i % 11, i % 5, i.wrapping_mul(7) % 13)).collect()),
        (true, (0u8..10).map(|i| (i % 11, i % 5, i.wrapping_mul(7) % 13)).collect()),
        (false, (0u8..8).map(|i| ((i + 3) % 9, (i + 1) % 5, i.wrapping_mul(3) % 14)).collect()),
    ];
    let (legs, model) = live_stores(&base, &batches);
    let fresh = fresh_store(&model);
    for (kind, mut live) in legs {
        let morselized = check_differential(&live, &fresh, &format!("fixed/{kind}"));
        assert!(morselized, "[fixed/{kind}] t4 ran nothing over morsels");
        // Compaction changes representation, never results or plans.
        live.compact();
        assert!(live.overlay().is_empty());
        let morselized = check_differential(&live, &fresh, &format!("fixed-compacted/{kind}"));
        assert!(morselized, "[fixed-compacted/{kind}] t4 ran nothing over morsels");
    }
}

#[test]
fn deleting_everything_matches_an_empty_freeze() {
    let base: Vec<Triple> = (0u8..30).map(|i| (i % 7, i % 4, i % 10)).collect();
    let batches: Vec<Batch> = vec![(false, base.clone())];
    let (legs, model) = live_stores(&base, &batches);
    assert!(model.is_empty());
    let fresh = fresh_store(&model);
    for (kind, live) in legs {
        assert!(live.is_empty());
        // No driving scan has a row, so nothing runs over morsels.
        let morselized = check_differential(&live, &fresh, &format!("emptied/{kind}"));
        assert!(!morselized, "[emptied/{kind}] an empty store ran morsels");
    }
}

#[test]
fn overflow_id_updates_decline_the_order_service_and_stay_oracle_correct() {
    // Base covers only predicate 0; the batches introduce predicates 1–3
    // and fresh objects, all of which intern as overflow ids.
    let base: Vec<Triple> = (0u8..12).map(|i| (i % 7, 0, i % 5)).collect();
    let batches: Vec<Batch> = vec![
        (true, (0u8..24).map(|i| (i % 11, 1 + i % 3, i.wrapping_mul(5) % 16)).collect()),
        (false, (0u8..6).map(|i| (i % 7, 0, i % 5)).collect()),
        (true, (0u8..10).map(|i| ((i + 2) % 12, 3, i % 8)).collect()),
    ];
    let (live, model) = live_store_raw(&base, &batches);
    assert!(
        !live.order_by_value_intact(),
        "the batches must actually create overflow ids for this test to bite"
    );
    check_against_oracle(&live, "raw-fixed");
    // The decoded visible set still matches a from-scratch freeze.
    let fresh = fresh_store(&model);
    assert_eq!(live.len(), fresh.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Random base datasets through random insert/delete interleavings:
    /// the live overlay store — on a heap-built and on a snapshot-loaded
    /// base — and a from-scratch freeze of the same visible set are
    /// indistinguishable to every query in the mix, under every execution
    /// config in the sweep, before and after compaction.
    #[test]
    fn random_update_interleavings_are_bit_identical(
        base in prop::collection::vec((0u8..12, 0u8..5, 0u8..16), 0..60),
        batches in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u8..12, 0u8..5, 0u8..16), 1..12)),
            0..5,
        ),
        compact_at_end in any::<bool>(),
    ) {
        let (legs, model) = live_stores(&base, &batches);
        let fresh = fresh_store(&model);
        for (kind, mut live) in legs {
            check_differential(&live, &fresh, &format!("prop/{kind}"));
            if compact_at_end {
                live.compact();
                check_differential(&live, &fresh, &format!("prop-compacted/{kind}"));
            }
        }
    }

    /// The same random interleavings through the *non*-pre-interned
    /// builder: update batches intern overflow ids, the engine must
    /// decline the order service, and every sweep config must still
    /// produce oracle-correct (really sorted) decoded results.
    #[test]
    fn random_overflow_id_interleavings_stay_oracle_correct(
        base in prop::collection::vec((0u8..12, 0u8..5, 0u8..16), 0..40),
        batches in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u8..12, 0u8..5, 0u8..16), 1..12)),
            1..4,
        ),
    ) {
        let (live, _model) = live_store_raw(&base, &batches);
        check_against_oracle(&live, "raw-prop");
    }
}
