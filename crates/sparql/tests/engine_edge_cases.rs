//! Edge-case integration tests of the query engine: solution modifiers,
//! mixed-type ordering, OPTIONAL/UNION interplay, instrumentation
//! determinism — behaviours a downstream benchmark driver depends on.

#[path = "common/templates.rs"]
mod templates;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::error::QueryError;
use parambench_sparql::results::OutVal;
use parambench_sparql::{
    CoutTables, Dedup, ExecConfig, Fold, JoinMethod, PhysNode, Sort, MORSELS_PER_WAVE,
};

fn dataset() -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..10 {
        let s = Term::iri(format!("item/{i}"));
        b.insert(s.clone(), Term::iri("rank"), Term::integer(i as i64));
        b.insert(s.clone(), Term::iri("group"), Term::iri(format!("g/{}", i % 3)));
        if i % 2 == 0 {
            b.insert(s.clone(), Term::iri("label"), Term::literal(format!("label {i}")));
        }
        if i == 7 {
            b.insert(s, Term::iri("special"), Term::literal("yes"));
        }
    }
    b.freeze()
}

#[test]
fn offset_beyond_result_is_empty() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine.run_text("SELECT ?s WHERE { ?s <rank> ?r } OFFSET 100").unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn offset_and_limit_slice_sorted_output() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text("SELECT ?r WHERE { ?s <rank> ?r } ORDER BY ASC(?r) LIMIT 3 OFFSET 2")
        .unwrap();
    let vals: Vec<f64> = out.results.rows.iter().map(|r| r[0].as_num().unwrap()).collect();
    assert_eq!(vals, vec![2.0, 3.0, 4.0]);
}

#[test]
fn order_by_unbound_sorts_last() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text("SELECT ?s ?l WHERE { ?s <rank> ?r OPTIONAL { ?s <label> ?l } } ORDER BY ASC(?l)")
        .unwrap();
    let first = &out.results.rows[0][1];
    let last = &out.results.rows[out.results.len() - 1][1];
    assert!(matches!(first, OutVal::Term(_)));
    assert!(matches!(last, OutVal::Unbound));
}

#[test]
fn distinct_collapses_duplicates_after_projection() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let all = engine.run_text("SELECT ?g WHERE { ?s <group> ?g }").unwrap();
    assert_eq!(all.results.len(), 10);
    let distinct = engine.run_text("SELECT DISTINCT ?g WHERE { ?s <group> ?g }").unwrap();
    assert_eq!(distinct.results.len(), 3);
}

#[test]
fn count_distinct_vs_count() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text("SELECT (COUNT(?g) AS ?n) (COUNT(DISTINCT ?g) AS ?d) WHERE { ?s <group> ?g }")
        .unwrap();
    assert_eq!(out.results.rows[0][0].as_num(), Some(10.0));
    assert_eq!(out.results.rows[0][1].as_num(), Some(3.0));
}

#[test]
fn group_by_with_empty_input_yields_no_groups() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text(
            "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <group> ?g . ?s <rank> ?r . FILTER(?r > 99) } GROUP BY ?g",
        )
        .unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn optional_after_union_extends_rows() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text(
            "SELECT ?s ?l WHERE { { ?s <group> <g/0> } UNION { ?s <group> <g/1> } OPTIONAL { ?s <label> ?l } }",
        )
        .unwrap();
    // groups 0 and 1 cover items 0,1,3,4,6,7,9 → 7 rows.
    assert_eq!(out.results.len(), 7);
    let bound = out.results.rows.iter().filter(|r| matches!(r[1], OutVal::Term(_))).count();
    assert_eq!(bound, 3, "items 0, 4, 6 have labels");
}

#[test]
fn filter_on_optional_var_with_bound_guard() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    // Keep rows where the label is missing — the BOUND() idiom.
    let out = engine
        .run_text("SELECT ?s WHERE { ?s <rank> ?r OPTIONAL { ?s <label> ?l } FILTER(!BOUND(?l)) }")
        .unwrap();
    assert_eq!(out.results.len(), 5); // odd ranks have no label
}

/// A group-scoped FILTER is validated like a top-level one: a variable
/// bound nowhere is `UnknownVariable`, and a variable bound only outside
/// the group is a typed `Unsupported` naming both — the group's rows never
/// carry it, so the FILTER used to drop every match (UNION branch) or
/// leave every OPTIONAL side `UNDEF`, silently.
#[test]
fn scoped_filter_variables_are_validated() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    for text in [
        "SELECT ?s WHERE { ?s <rank> ?r OPTIONAL { ?s <label> ?l . FILTER(?zzz > 1) } }",
        "SELECT ?s WHERE { { ?s <rank> ?r . FILTER(?zzz > 1) } UNION { ?s <group> ?r } }",
    ] {
        let err = engine.run_text(text).unwrap_err();
        assert_eq!(err, QueryError::UnknownVariable("zzz".into()), "{text}");
    }
    for (text, group) in [
        ("SELECT ?s ?l WHERE { ?s <group> ?g OPTIONAL { ?s <label> ?l . FILTER(?g = <g/0>) } }", "OPTIONAL #0"),
        ("SELECT ?s WHERE { ?s <rank> ?r . { ?s <group> ?g . FILTER(?r > 1) } UNION { ?s <label> ?g } }", "UNION #0"),
    ] {
        let Err(QueryError::Unsupported(msg)) = engine.run_text(text) else {
            panic!("outer variable inside {group} must be rejected: {text}");
        };
        assert!(msg.contains(group) && (msg.contains("?g") || msg.contains("?r")), "{msg}");
    }
    // A FILTER over the group's own variables stays supported.
    let out = engine
        .run_text(
            "SELECT ?s ?r WHERE { ?s <group> <g/0> OPTIONAL { ?s <rank> ?r . FILTER(?r > 5) } }",
        )
        .unwrap();
    let bound = out.results.rows.iter().filter(|r| matches!(r[1], OutVal::Term(_))).count();
    assert_eq!((out.results.len(), bound), (4, 2), "items 0, 3, 6, 9; ranks 6 and 9 pass");
}

#[test]
fn cout_is_deterministic_across_runs() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?s WHERE { ?s <rank> ?r . ?s <group> ?g . ?s <label> ?l }",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let a = engine.execute(&prepared).unwrap();
    let b = engine.execute(&prepared).unwrap();
    assert_eq!(a.cout, b.cout);
    assert_eq!(a.results, b.results);
}

#[test]
fn est_cout_nonnegative_and_signature_nonempty() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    for text in [
        "SELECT ?s WHERE { ?s <rank> ?r }",
        "SELECT ?s WHERE { ?s <rank> ?r . ?s <group> ?g }",
        "SELECT ?s WHERE { { ?s <group> <g/0> } UNION { ?s <group> <g/2> } }",
        "SELECT ?s WHERE { ?s <special> ?x OPTIONAL { ?s <label> ?l } }",
    ] {
        let q = parambench_sparql::parse_query(text).unwrap();
        let p = engine.prepare(&q).unwrap();
        assert!(p.est_cout >= 0.0, "{text}");
        assert!(!p.signature.0.is_empty(), "{text}");
    }
}

#[test]
fn var_predicate_patterns_work() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine.run_text("SELECT DISTINCT ?p WHERE { <item/7> ?p ?o }").unwrap();
    assert_eq!(out.results.len(), 3); // rank, group, special
}

#[test]
fn fully_bound_pattern_acts_as_existence_check() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let hit =
        engine.run_text("SELECT ?s WHERE { ?s <rank> ?r . <item/7> <special> \"yes\" }").unwrap();
    assert_eq!(hit.results.len(), 10, "existence holds: join keeps all rows");
    let miss =
        engine.run_text("SELECT ?s WHERE { ?s <rank> ?r . <item/7> <special> \"no\" }").unwrap();
    assert!(miss.results.is_empty());
}

#[test]
fn order_by_var_not_in_projection() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out =
        engine.run_text("SELECT ?s WHERE { ?s <rank> ?r } ORDER BY DESC(?r) LIMIT 2").unwrap();
    let names: Vec<String> =
        out.results.rows.iter().map(|r| r[0].as_term().unwrap().to_string()).collect();
    assert_eq!(names, vec!["<item/9>", "<item/8>"]);
    assert_eq!(out.results.columns, vec!["s"]);
}

#[test]
fn limit_zero_is_empty_and_does_no_work() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query("SELECT ?s WHERE { ?s <rank> ?r } LIMIT 0").unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let out = engine.execute(&prepared).unwrap();
    assert!(out.results.is_empty());
    // The pushed pipeline never runs: nothing is ever scanned.
    assert_eq!(out.stats.scanned, 0, "LIMIT 0 must not touch the store");
    assert_eq!(out.stats.peak_tuples, 0);
    // The short-circuit covers the aggregate and ORDER BY shapes too.
    for text in [
        "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <group> ?g } GROUP BY ?g LIMIT 0",
        "SELECT ?s WHERE { ?s <rank> ?r } ORDER BY ASC(?r) LIMIT 0 OFFSET 5",
    ] {
        let q = parambench_sparql::parse_query(text).unwrap();
        let out = engine.execute(&engine.prepare(&q).unwrap()).unwrap();
        assert!(out.results.is_empty(), "{text}");
        assert_eq!(out.stats.scanned, 0, "LIMIT 0 must do no work: {text}");
    }
}

#[test]
fn offset_past_end_with_limit_is_empty() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine.run_text("SELECT ?s WHERE { ?s <rank> ?r } LIMIT 5 OFFSET 1000").unwrap();
    assert!(out.results.is_empty());
    let sorted = engine
        .run_text("SELECT ?s WHERE { ?s <rank> ?r } ORDER BY ASC(?r) LIMIT 5 OFFSET 1000")
        .unwrap();
    assert!(sorted.results.is_empty());
}

#[test]
fn distinct_over_union_duplicates() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    // Both branches produce the same subjects: UNION concatenates (bag
    // semantics), DISTINCT collapses the duplicates.
    let all = engine
        .run_text("SELECT ?s WHERE { { ?s <group> <g/0> } UNION { ?s <group> <g/0> } }")
        .unwrap();
    assert_eq!(all.results.len(), 8, "items 0,3,6,9 twice");
    let distinct = engine
        .run_text("SELECT DISTINCT ?s WHERE { { ?s <group> <g/0> } UNION { ?s <group> <g/0> } }")
        .unwrap();
    assert_eq!(distinct.results.len(), 4);
}

#[test]
fn ungrouped_aggregates_over_zero_rows_yield_one_row() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let out = engine
        .run_text(
            "SELECT (COUNT(?r) AS ?n) (SUM(?r) AS ?sum) (AVG(?r) AS ?avg) (MIN(?r) AS ?mn) \
             WHERE { ?s <rank> ?r . FILTER(?r > 99) }",
        )
        .unwrap();
    // SPARQL: the implicit group always yields one row; COUNT/SUM are 0,
    // value aggregates are unbound.
    assert_eq!(out.results.len(), 1);
    assert_eq!(out.results.rows[0][0].as_num(), Some(0.0));
    assert_eq!(out.results.rows[0][1].as_num(), Some(0.0));
    assert!(matches!(out.results.rows[0][2], OutVal::Unbound));
    assert!(matches!(out.results.rows[0][3], OutVal::Unbound));
}

#[test]
fn avg_and_min_on_non_numeric_values_are_unbound() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    // Labels are plain string literals: COUNT counts them, the numeric
    // folds find nothing to fold.
    let out = engine
        .run_text(
            "SELECT ?g (COUNT(?l) AS ?n) (AVG(?l) AS ?avg) (MIN(?l) AS ?mn) \
             WHERE { ?s <group> ?g . ?s <label> ?l } GROUP BY ?g ORDER BY DESC(?n)",
        )
        .unwrap();
    assert!(!out.results.is_empty());
    for row in &out.results.rows {
        assert!(row[1].as_num().unwrap() >= 1.0);
        assert!(matches!(row[2], OutVal::Unbound), "AVG of strings is unbound");
        assert!(matches!(row[3], OutVal::Unbound), "MIN of strings is unbound");
    }
}

#[test]
fn order_by_ties_keep_pipeline_order_and_topk_matches_full_sort() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    // ?g has only 3 distinct values over 10 rows: heavy ties.
    let full_q = parambench_sparql::parse_query(
        "SELECT ?s ?g WHERE { ?s <group> ?g . ?s <rank> ?r } ORDER BY ASC(?g)",
    )
    .unwrap();
    let full_prepared = engine.prepare(&full_q).unwrap();
    let full = engine.execute(&full_prepared).unwrap();
    // The pinned tie-break (pipeline row order) makes the pushed and the
    // materialize-then-sort paths produce the same sequence, not just the
    // same multiset.
    let unpushed = engine.execute_unpushed(&full_prepared).unwrap();
    assert_eq!(full.results, unpushed.results);

    // A LIMIT-ed run goes through the bounded-heap TopK instead of the
    // full sort — it must reproduce the stable sort's prefix exactly.
    for limit in [1, 4, 7, 10, 15] {
        let q = parambench_sparql::parse_query(&format!(
            "SELECT ?s ?g WHERE {{ ?s <group> ?g . ?s <rank> ?r }} ORDER BY ASC(?g) LIMIT {limit}"
        ))
        .unwrap();
        let limited = engine.execute(&engine.prepare(&q).unwrap()).unwrap();
        let want: Vec<_> = full.results.rows.iter().take(limit).cloned().collect();
        assert_eq!(limited.results.rows, want, "LIMIT {limit} breaks tie order");
    }
}

#[test]
fn topk_peak_is_strictly_below_full_sort_peak() {
    // Enough rows that the TopK heap (offset+limit rows) is visibly
    // smaller than the materialized sort input.
    let mut b = StoreBuilder::new();
    for i in 0..5000 {
        b.insert(
            Term::iri(format!("row/{i}")),
            Term::iri("score"),
            Term::integer(((i * 37) % 1000) as i64),
        );
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?v WHERE { ?s <score> ?v } ORDER BY DESC(?v) LIMIT 10",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results);
    assert!(
        pushed.stats.peak_tuples < unpushed.stats.peak_tuples,
        "TopK peak {} must be strictly below the materialized sort peak {}",
        pushed.stats.peak_tuples,
        unpushed.stats.peak_tuples
    );
    // And not just lower: bounded by the heap + one in-flight batch.
    assert!(
        pushed.stats.peak_tuples <= (10 + parambench_sparql::BATCH_SIZE) as u64,
        "TopK peak {} should be heap + batch bounded",
        pushed.stats.peak_tuples
    );
}

#[test]
fn parallel_limit_early_exit_stops_workers_promptly() {
    // Plain LIMIT queries are output-bound: the engine must not spawn a
    // worker pool it would immediately have to stop, so even under a
    // forced-parallel config the pipeline stays serial and the LIMIT exits
    // batch-granularly — scanned stays near one batch of driving rows, not
    // a whole wave (MORSELS_PER_WAVE × morsel_rows) of surplus work.
    let morsel_rows = 64;
    let n = MORSELS_PER_WAVE * morsel_rows * 4; // 4 waves' worth of rows
    let mut b = StoreBuilder::new();
    for i in 0..n {
        let s = Term::iri(format!("row/{i}"));
        b.insert(s.clone(), Term::iri("cat"), Term::iri(format!("c/{}", i % 7)));
        b.insert(s, Term::iri("val"), Term::integer(i as i64));
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?c ?v WHERE { ?s <cat> ?c . ?s <val> ?v } LIMIT 9",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let exec = ExecConfig {
        threads: 4,
        morsel_rows,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        mem_budget_rows: None,
        ..ExecConfig::default()
    };
    let out = engine.execute_with(&prepared, &exec).unwrap();
    assert_eq!(out.results.len(), 9);
    // Rows and order equal the default path's.
    let serial = engine.execute(&prepared).unwrap();
    assert_eq!(out.results, serial.results);
    assert_eq!(out.stats.scanned, serial.stats.scanned);
    assert_eq!(out.cout, serial.cout);
    // Batch-granular early exit: one lazily-built side (≤ n) plus a few
    // batches of driving rows — nowhere near the 2n of a full drain, and
    // strictly tighter than even one parallel wave of surplus driving rows.
    let bound = n as u64 + 4 * parambench_sparql::BATCH_SIZE as u64;
    assert!(
        out.stats.scanned <= bound,
        "LIMIT early exit did too much work: scanned {} (bound {bound}, total {})",
        out.stats.scanned,
        2 * n
    );
    // The same query WITH an ORDER BY drains everything and therefore does
    // use the pool — and stays bit-identical at any thread count.
    let sorted = parambench_sparql::parse_query(
        "SELECT ?s ?c ?v WHERE { ?s <cat> ?c . ?s <val> ?v } ORDER BY ASC(?v) LIMIT 9",
    )
    .unwrap();
    let prepared_sorted = engine.prepare(&sorted).unwrap();
    let par = engine.execute_with(&prepared_sorted, &exec).unwrap();
    let one = engine.execute_with(&prepared_sorted, &ExecConfig { threads: 1, ..exec }).unwrap();
    assert_eq!(par.results.len(), 9);
    assert_eq!(par.results, one.results);
    assert_eq!(par.cout, one.cout);
    assert_eq!(par.stats.scanned, one.stats.scanned);
}

/// Only bind-join spines run over morsels. Under a config forcing every
/// qualifying plan onto morsels, a plan whose pass records a hash join
/// lowers serially, with the default config's rows, order, `Cout` and
/// `scanned`; a bind spine on the same store still morselizes.
#[test]
fn hash_join_plans_stay_serial_under_forced_morsels() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let prepare =
        |text: &str| engine.prepare(&parambench_sparql::parse_query(text).unwrap()).unwrap();
    // ORDER BY ?r without a LIMIT: streaming the rank scan in value order
    // serves the sort, and its 10 rows exceed the 5-row label extent, so
    // the label side is hash-built.
    let hashed = prepare("SELECT ?s ?r ?l WHERE { ?s <rank> ?r . ?s <label> ?l } ORDER BY ?r");
    let spine = prepare("SELECT ?s ?g ?r WHERE { ?s <group> ?g . ?s <rank> ?r }");
    let serial = engine.execute(&hashed).unwrap();
    assert_eq!(serial.results.len(), 5);
    for threads in [1, 4] {
        let forced = ExecConfig {
            threads,
            morsel_rows: 5,
            min_driver_rows: 1,
            min_est_cost: 0.0,
            ..engine.exec_config()
        };
        let plan = engine.physical_plan(&hashed, &forced);
        let text = plan.render();
        assert!(
            matches!(plan.bgp, Some(PhysNode::Join { method: JoinMethod::Hash { .. }, .. })),
            "threads={threads}: expected a hash join:\n{text}"
        );
        assert!(!plan.morselized, "threads={threads}: hash join morselized:\n{text}");
        assert!(!text.contains("Morsels"), "threads={threads}:\n{text}");
        let out = engine.execute_with(&hashed, &forced).unwrap();
        assert_eq!(out.results, serial.results, "threads={threads}: rows or order");
        assert_eq!(out.cout, serial.cout, "threads={threads}: Cout");
        assert_eq!(out.stats.scanned, serial.stats.scanned, "threads={threads}: scanned");

        let plan = engine.physical_plan(&spine, &forced);
        assert!(plan.bgp.as_ref().is_some_and(PhysNode::is_bind_spine), "{}", plan.render());
        assert!(plan.morselized, "threads={threads}: bind spine not morselized");
        assert!(plan.render().contains("Morsels"));
    }
}

/// `n` rows spread over `groups` groups with integer ranks — enough group
/// cardinality to push any small memory budget onto the spill path.
fn grouped_dataset(n: usize, groups: usize) -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..n {
        let s = Term::iri(format!("row/{i}"));
        b.insert(s.clone(), Term::iri("grp"), Term::iri(format!("g/{}", i % groups)));
        b.insert(s, Term::iri("rank"), Term::integer(((i * 31) % 97) as i64));
    }
    b.freeze()
}

fn budget_cfg(budget: Option<usize>) -> ExecConfig {
    ExecConfig { mem_budget_rows: budget, ..ExecConfig::default() }
}

#[test]
fn group_by_exceeding_budget_spills_bit_identically_with_lower_peak() {
    let ds = grouped_dataset(4000, 400);
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?g (COUNT(?s) AS ?n) (SUM(?r) AS ?sum) (AVG(?r) AS ?avg) \
         WHERE { ?s <grp> ?g . ?s <rank> ?r } GROUP BY ?g ORDER BY DESC(?sum)",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let inmem = engine.execute_with(&prepared, &budget_cfg(None)).unwrap();
    assert_eq!(inmem.results.len(), 400);
    assert_eq!(inmem.stats.spilled_rows, 0);
    for budget in [2usize, 16, 64] {
        let spilled = engine.execute_with(&prepared, &budget_cfg(Some(budget))).unwrap();
        // The acceptance gate: identical rows/order/Cout/scanned, real
        // spill volume, and a strictly lower in-memory peak.
        assert_eq!(spilled.results, inmem.results, "budget {budget} changed results");
        assert_eq!(spilled.cout, inmem.cout, "budget {budget} changed Cout");
        assert_eq!(spilled.stats.scanned, inmem.stats.scanned, "budget {budget} changed scanned");
        assert!(spilled.stats.spilled_rows > 0, "budget {budget} did not spill");
        assert!(spilled.stats.spill_runs > 0);
        assert!(spilled.stats.spill_bytes > 0);
        assert!(
            spilled.stats.peak_tuples < inmem.stats.peak_tuples,
            "budget {budget}: spilled peak {} not below in-memory {}",
            spilled.stats.peak_tuples,
            inmem.stats.peak_tuples
        );
    }
}

#[test]
fn order_by_without_limit_spills_sorted_runs_bit_identically() {
    let ds = grouped_dataset(3000, 50);
    let engine = Engine::new(&ds);
    // DESC key: no index order can serve it (indexes only deliver
    // ascending), so the full sort — and with a budget the external merge
    // sort — must actually run even under the order-aware planner.
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?r WHERE { ?s <rank> ?r . ?s <grp> ?g } ORDER BY DESC(?r) OFFSET 7",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let inmem = engine.execute_with(&prepared, &budget_cfg(None)).unwrap();
    let spilled = engine.execute_with(&prepared, &budget_cfg(Some(16))).unwrap();
    assert!(inmem.stats.sorted_rows > 0, "a DESC key cannot be order-eliminated");
    assert_eq!(spilled.results, inmem.results);
    assert_eq!(spilled.cout, inmem.cout);
    assert_eq!(spilled.stats.scanned, inmem.stats.scanned);
    assert!(spilled.stats.spill_runs >= 2, "external sort must write several runs");
    assert!(
        spilled.stats.peak_tuples < inmem.stats.peak_tuples,
        "external sort peak {} not below in-memory {}",
        spilled.stats.peak_tuples,
        inmem.stats.peak_tuples
    );
}

#[test]
fn budget_of_zero_and_one_rows_complete_correctly() {
    let ds = grouped_dataset(300, 40);
    let engine = Engine::new(&ds);
    for text in [
        "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <grp> ?g } GROUP BY ?g ORDER BY DESC(?n)",
        "SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY DESC(?r)",
        "SELECT (COUNT(DISTINCT ?g) AS ?d) WHERE { ?s <grp> ?g }",
    ] {
        let q = parambench_sparql::parse_query(text).unwrap();
        let prepared = engine.prepare(&q).unwrap();
        let want = engine.execute_with(&prepared, &budget_cfg(None)).unwrap();
        for budget in [0usize, 1] {
            let got = engine.execute_with(&prepared, &budget_cfg(Some(budget))).unwrap();
            assert_eq!(got.results, want.results, "budget {budget} broke {text}");
            assert_eq!(got.cout, want.cout, "budget {budget} changed Cout of {text}");
        }
    }
}

#[test]
fn empty_input_aggregate_over_the_spill_path_yields_one_row() {
    let ds = grouped_dataset(100, 10);
    let engine = Engine::new(&ds);
    // The filter rejects every row; budget 0 arms the external fold
    // eagerly, so the implicit-group rule must hold on the spill path too.
    let q = parambench_sparql::parse_query(
        "SELECT (COUNT(?r) AS ?n) (SUM(?r) AS ?sum) (AVG(?r) AS ?avg) \
         WHERE { ?s <rank> ?r . FILTER(?r > 1000) }",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let out = engine.execute_with(&prepared, &budget_cfg(Some(0))).unwrap();
    assert_eq!(out.results.len(), 1);
    assert_eq!(out.results.rows[0][0].as_num(), Some(0.0));
    assert_eq!(out.results.rows[0][1].as_num(), Some(0.0));
    assert!(matches!(out.results.rows[0][2], OutVal::Unbound));
}

#[test]
fn spill_runs_are_cleaned_up_and_limit_exits_promptly_under_budget() {
    let morsel_rows = 64;
    let n = MORSELS_PER_WAVE * morsel_rows * 2;
    let ds = grouped_dataset(n, 300);
    let mut engine = Engine::new(&ds);
    assert_eq!(engine.spill_dir(), std::env::temp_dir());
    let spill_base = std::env::temp_dir().join(format!("parambench-test-{}", std::process::id()));
    engine.set_spill_dir(&spill_base);
    assert_eq!(engine.spill_dir(), spill_base);

    // A spilling GROUP BY + ORDER BY + LIMIT under a forced-parallel
    // config: workers drain (aggregation needs all input), the fold
    // spills, and every run file is gone once the query returns.
    let q = parambench_sparql::parse_query(
        "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <grp> ?g . ?s <rank> ?r } \
         GROUP BY ?g ORDER BY DESC(?n) LIMIT 5",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let exec = ExecConfig {
        threads: 4,
        morsel_rows,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        mem_budget_rows: Some(8),
        ..ExecConfig::default()
    };
    let spilled = engine.execute_with(&prepared, &exec).unwrap();
    let serial = engine.execute_with(&prepared, &budget_cfg(None)).unwrap();
    assert_eq!(spilled.results, serial.results);
    assert!(spilled.stats.spilled_rows > 0, "400 groups must overflow a budget of 8");
    let leftovers: Vec<_> = std::fs::read_dir(&spill_base)
        .map(|d| d.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "spill runs not cleaned up: {leftovers:?}");

    // A plain LIMIT under the same budget: output-bound queries never
    // block, so nothing spills and the early exit stays batch-granular —
    // upstream workers stop promptly instead of draining the scan.
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?g ?r WHERE { ?s <grp> ?g . ?s <rank> ?r } LIMIT 9",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let out = engine.execute_with(&prepared, &exec).unwrap();
    assert_eq!(out.results.len(), 9);
    assert_eq!(out.stats.spilled_rows, 0, "LIMIT early exit must not spill");
    let bound = n as u64 + 4 * parambench_sparql::BATCH_SIZE as u64;
    assert!(
        out.stats.scanned <= bound,
        "LIMIT early exit under a budget did too much work: scanned {} (bound {bound})",
        out.stats.scanned
    );
    let _ = std::fs::remove_dir_all(&spill_base);
}

#[test]
fn spill_write_failures_surface_as_query_error_exec() {
    let ds = grouped_dataset(500, 100);
    let mut engine = Engine::new(&ds);
    // Point the spill base at a regular file: creating the per-run spill
    // directory under it must fail, and the failure must come back as the
    // typed error — not a panic, not a generic Unsupported, not a clean end.
    let bogus = std::env::temp_dir().join(format!("parambench-not-a-dir-{}", std::process::id()));
    std::fs::write(&bogus, b"occupied").unwrap();
    engine.set_spill_dir(&bogus);
    let expect_spill_error = |err: QueryError, what: &str| match err {
        QueryError::Exec(e) => {
            assert_eq!(e.op, "create spill dir", "{what}");
            assert!(e.path.starts_with(&bogus), "{what}: path {:?} not under {bogus:?}", e.path);
            assert!(!e.message.is_empty(), "{what}");
        }
        other => panic!("{what}: expected QueryError::Exec, got {other:?}"),
    };
    // The stream API: the error comes from `stream` or from a pull, never
    // as a short, clean end of stream.
    fn streamed(
        engine: &Engine<'_>,
        prepared: &parambench_sparql::Prepared,
        cfg: &ExecConfig,
    ) -> Result<(), QueryError> {
        let mut rows = engine.stream(prepared, cfg)?;
        while rows.next_row()?.is_some() {}
        Ok(())
    }
    let cfg = budget_cfg(Some(4));
    for (what, text) in [
        ("external fold", "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <grp> ?g } GROUP BY ?g"),
        ("external sort", "SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY DESC(?r)"),
    ] {
        let prepared = engine.prepare(&parambench_sparql::parse_query(text).unwrap()).unwrap();
        let plan = engine.physical_plan(&prepared, &cfg);
        let external = matches!(plan.fold, Some(Fold::External { .. }))
            || matches!(plan.sort, Sort::Full { budget: Some(_) });
        assert!(external, "{what} must run out of core:\n{}", plan.render());
        expect_spill_error(engine.execute_with(&prepared, &cfg).unwrap_err(), what);
        expect_spill_error(streamed(&engine, &prepared, &cfg).unwrap_err(), what);
        // In-memory execution of the same prepared query is unaffected.
        assert!(engine.execute_with(&prepared, &budget_cfg(None)).is_ok(), "{what}");
    }
    let _ = std::fs::remove_file(&bogus);
}

#[test]
fn float_aggregates_are_bit_identical_per_fold_strategy_and_close_across_them() {
    // Non-integral values: float addition is not associative, so a SUM's
    // last digits depend on the order partial sums are combined in. (The
    // other suites use integral values precisely so this cannot show.)
    let mut b = StoreBuilder::new();
    for i in 0..600usize {
        let s = Term::iri(format!("row/{i:03}"));
        b.insert(s.clone(), Term::iri("grp"), Term::iri(format!("g/{}", i % 7)));
        b.insert(s, Term::iri("val"), Term::double(0.1 * ((i * 37) % 101) as f64 + 0.3));
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?g (SUM(?x) AS ?sum) (AVG(?x) AS ?avg) (COUNT(?r) AS ?n) \
         WHERE { ?r <grp> ?g . ?r <val> ?x } GROUP BY ?g ORDER BY ?g",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    // Tiny morsels, no qualification thresholds: unbudgeted runs fold
    // worker-side partials and merge them; any budget routes through the
    // sequential external fold — a different association of the same sum.
    let cfg = |threads, budget| ExecConfig {
        threads,
        morsel_rows: 16,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        mem_budget_rows: budget,
        ..ExecConfig::default()
    };
    let run = |cfg: ExecConfig| {
        let fold = engine.physical_plan(&prepared, &cfg).fold.expect("aggregate query");
        (fold, engine.execute_with(&prepared, &cfg).unwrap())
    };
    let (partials, base) = run(cfg(1, None));
    assert_eq!(partials, parambench_sparql::Fold::WorkerPartials);
    assert_eq!(base.results.len(), 7);

    // One strategy: bit-identical at any thread count and at any budget.
    assert_eq!(run(cfg(4, None)).1.results, base.results, "{partials:?}: threads changed bits");
    let (external, spilled) = run(cfg(1, Some(2)));
    assert!(matches!(external, parambench_sparql::Fold::External { .. }), "{external:?}");
    for (threads, budget) in [(4, 2), (1, 64), (4, 64)] {
        let (fold, out) = run(cfg(threads, Some(budget)));
        assert_eq!(out.results, spilled.results, "{fold:?} vs {external:?}: budget changed bits");
    }

    // Across strategies: same groups, order and counters; aggregates equal
    // up to float re-association (on this data 5 of the 7 rows differ in
    // the last digits — PR 11's `spill_rows_changed` finding).
    assert_eq!((spilled.cout, spilled.stats.scanned), (base.cout, base.stats.scanned));
    for (a, b) in base.results.rows.iter().zip(&spilled.results.rows) {
        assert_eq!(
            (&a[0], &a[3]),
            (&b[0], &b[3]),
            "group / COUNT under {partials:?} vs {external:?}"
        );
        for col in [1, 2] {
            let (x, y) = (a[col].as_num().unwrap(), b[col].as_num().unwrap());
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                "{:?}: {x} under {partials:?} vs {y} under {external:?}",
                a[0]
            );
        }
    }
}

#[test]
fn distinct_under_unprojected_sort_key_streams_with_bounded_peak() {
    // 6000 input rows collapse to 10 distinct groups; the sort key ?r is
    // not projected. The order-aware planner serves ASC(?r) straight from
    // the rank index, so the dedup streams behind the eliminated sort and
    // must reproduce the materializing reference row-for-row while holding
    // only the distinct values. (Under a real sort the dedup runs after
    // it and holds what the sort holds: see the DESC test below.)
    let ds = grouped_dataset(6000, 10);
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT DISTINCT ?g WHERE { ?s <grp> ?g . ?s <rank> ?r } ORDER BY ASC(?r)",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let plan = engine.physical_plan(&prepared, &engine.exec_config());
    assert_eq!(plan.sort, Sort::Eliminated, "{}", plan.render());
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results, "streaming dedup diverged from the reference");
    assert_eq!(pushed.results.len(), 10);
    assert_eq!(pushed.cout, unpushed.cout);
    // Regression gate: the streaming dedup holds one entry per distinct
    // value plus in-flight batches — nowhere near the 6000 materialized
    // rows of the reference.
    assert!(
        pushed.stats.peak_tuples <= (2 * 10 + 3 * parambench_sparql::BATCH_SIZE) as u64,
        "streaming DISTINCT peak {} should be bounded by distinct values + batches",
        pushed.stats.peak_tuples
    );
    assert!(
        pushed.stats.peak_tuples < unpushed.stats.peak_tuples,
        "streaming dedup peak {} not below materializing peak {}",
        pushed.stats.peak_tuples,
        unpushed.stats.peak_tuples
    );
}

#[test]
fn distinct_under_unprojected_desc_key_dedups_after_the_sort() {
    // A DESC key always sorts (indexes deliver ascending order only), so
    // DISTINCT over the projected ?g must run after the sort: each group
    // keeps its first row in (DESC ?r, arrival) order. Deduplicating
    // before the sort would keep each group's first-arriving row instead
    // and order the groups by that row's rank. OFFSET/LIMIT cut into the
    // sorted, deduplicated sequence.
    let ds = grouped_dataset(2000, 40);
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT DISTINCT ?g WHERE { ?s <grp> ?g . ?s <rank> ?r } \
         ORDER BY DESC(?r) LIMIT 10 OFFSET 3",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(unpushed.results.len(), 10);
    for budget in [None, Some(16)] {
        let cfg = budget_cfg(budget);
        let plan = engine.physical_plan(&prepared, &cfg);
        assert_eq!(plan.dedup, Dedup::SortAware, "{}", plan.render());
        assert_eq!(plan.sort, Sort::Full { budget }, "{}", plan.render());
        let pushed = engine.execute_with(&prepared, &cfg).unwrap();
        assert_eq!(pushed.results, unpushed.results, "budget {budget:?}");
        assert_eq!(pushed.cout, unpushed.cout, "budget {budget:?}");
        assert_eq!(pushed.stats.scanned, unpushed.stats.scanned, "budget {budget:?}");
        // Under a budget the sort below the dedup spills its input.
        assert_eq!(pushed.stats.spill_runs > 0, budget.is_some(), "budget {budget:?}");
    }
}

#[test]
fn error_messages_are_actionable() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let err = engine.run_text("SELECT ?s WHERE { }").unwrap_err();
    assert!(matches!(err, QueryError::Unsupported(_)));
    let err =
        engine.run_text("SELECT ?s WHERE { ?s <rank> ?r } ORDER BY ASC(?missing)").unwrap_err();
    assert!(matches!(err, QueryError::UnknownVariable(v) if v == "missing"));
    let err = engine
        .run_text("SELECT ?g (AVG(?r) AS ?a) WHERE { ?s <rank> ?r . ?s <group> ?g }")
        .unwrap_err();
    assert!(matches!(err, QueryError::Unsupported(_)), "projected var without GROUP BY");
}

// ---------------------------------------------------------------------------
// Order-aware execution: sort elimination, expr keys
// ---------------------------------------------------------------------------

/// Duplicate-heavy star: every subject repeats each predicate value pair
/// several times through multi-valued predicates.
fn duplicate_heavy_dataset(n: usize) -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..n {
        let s = Term::iri(format!("s/{i:05}"));
        for k in 0..4 {
            b.insert(s.clone(), Term::iri("a"), Term::integer(((i + k) % 7) as i64));
        }
        for k in 0..3 {
            b.insert(s.clone(), Term::iri("b"), Term::iri(format!("v/{}", (i * k) % 5)));
        }
        if i % 4 != 3 {
            b.insert(s, Term::iri("note"), Term::literal(format!("n{}", i % 6)));
        }
    }
    b.freeze()
}

/// Join cardinality of `?s <a> ?x . ?s <b> ?y` computed naively from the
/// store — the duplicate-expansion ground truth for the star tests.
fn star_rows(ds: &Dataset) -> usize {
    let a = ds.lookup(&Term::iri("a")).unwrap();
    let b = ds.lookup(&Term::iri("b")).unwrap();
    ds.scan([None, Some(a), None]).map(|t| ds.count([Some(t[0]), Some(b), None])).sum()
}

/// OPTIONAL over a duplicate-heavy star base: the engine and the sorting
/// reference agree on rows, order and both `Cout`s.
#[test]
fn optional_over_merge_joined_base_keeps_left_rows_and_order() {
    let ds = duplicate_heavy_dataset(120);
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?x ?y ?n WHERE { ?s <a> ?x . ?s <b> ?y OPTIONAL { ?s <note> ?n } }",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results);
    assert_eq!(pushed.cout, unpushed.cout);
    assert_eq!(pushed.stats.cout_optional, unpushed.stats.cout_optional);
    // Every base row survives the left-outer join; i % 4 == 3 subjects
    // (which carry no <note>) are padded with UNBOUND.
    assert_eq!(pushed.results.len(), star_rows(&ds));
    let unbound = pushed
        .results
        .rows
        .iter()
        .filter(|r| matches!(r[3], parambench_sparql::results::OutVal::Unbound))
        .count();
    assert!(unbound > 0, "note-less subjects must pad");
    assert!(unbound < pushed.results.len());
}

/// A join with a provably empty side: the engine and the sorting reference
/// scan exactly the same live side.
#[test]
fn merge_join_with_empty_side_at_engine_level() {
    let ds = duplicate_heavy_dataset(120);
    let engine = Engine::new(&ds);
    // <c> has no triples in the dictionary: the pattern is provably empty.
    let q =
        parambench_sparql::parse_query("SELECT ?s ?x ?c WHERE { ?s <a> ?x . ?s <c> ?c }").unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert!(pushed.results.is_empty());
    assert_eq!(pushed.results, unpushed.results);
    assert_eq!(pushed.stats.scanned, unpushed.stats.scanned);
}

#[test]
fn order_by_matching_index_eliminates_the_sort() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    // ORDER BY the subject: the default PSO scan already delivers it.
    let q = parambench_sparql::parse_query("SELECT ?s ?r WHERE { ?s <rank> ?r } ORDER BY ASC(?s)")
        .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let eliminated = engine.execute(&prepared).unwrap();
    let sorted = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(eliminated.results, sorted.results, "eliminated sort changed the output");
    assert_eq!(eliminated.stats.sorted_rows, 0, "sort must be provably skipped");
    assert!(sorted.stats.sorted_rows > 0, "the reference must really sort");
    let explain = engine.explain_physical(&prepared);
    assert!(explain.contains("sort: eliminated"), "{explain}");
}

#[test]
fn eliminated_sort_with_limit_exits_early() {
    // Extent far beyond one batch, so batch-granular early exit shows.
    let ds = duplicate_heavy_dataset(2000);
    let engine = Engine::new(&ds);
    let q =
        parambench_sparql::parse_query("SELECT ?s ?x WHERE { ?s <a> ?x } ORDER BY ASC(?s) LIMIT 5")
            .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let eliminated = engine.execute(&prepared).unwrap();
    let sorted = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(eliminated.results, sorted.results);
    assert_eq!(eliminated.stats.sorted_rows, 0);
    assert!(
        eliminated.stats.scanned < sorted.stats.scanned,
        "the eliminated sort must early-exit ({} vs {})",
        eliminated.stats.scanned,
        sorted.stats.scanned
    );
}

#[test]
fn order_by_expression_key_sorts_by_computed_value() {
    let mut b = StoreBuilder::new();
    for (i, (x, y)) in [(5i64, 1i64), (1, 2), (3, 3), (2, 9), (4, 0)].iter().enumerate() {
        let s = Term::iri(format!("e/{i}"));
        b.insert(s.clone(), Term::iri("x"), Term::integer(*x));
        b.insert(s, Term::iri("y"), Term::integer(*y));
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    // Sums: 6, 3, 6, 11, 4 → order by (x + y): e1(3), e4(4), e0(6), e2(6), e3(11)
    let out = engine
        .run_text("SELECT ?x ?y WHERE { ?s <x> ?x . ?s <y> ?y } ORDER BY ((?x + ?y))")
        .unwrap();
    let sums: Vec<f64> =
        out.results.rows.iter().map(|r| r[0].as_num().unwrap() + r[1].as_num().unwrap()).collect();
    assert_eq!(sums, vec![3.0, 4.0, 6.0, 6.0, 11.0]);
    // Ties keep pipeline arrival order (stable): e0 (x=5) before e2 (x=3)?
    // Arrival order is dictionary/value order of the subject-sorted scan.
    let unsorted = engine.run_text("SELECT ?x ?y WHERE { ?s <x> ?x . ?s <y> ?y }").unwrap();
    let mut expect: Vec<(f64, usize, Vec<String>)> = unsorted
        .results
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let sum = r[0].as_num().unwrap() + r[1].as_num().unwrap();
            (sum, i, r.iter().map(|v| v.to_string()).collect())
        })
        .collect();
    expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let got: Vec<Vec<String>> =
        out.results.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
    let want: Vec<Vec<String>> = expect.into_iter().map(|(_, _, r)| r).collect();
    assert_eq!(got, want, "expression sort must equal stable sort by computed value");
}

#[test]
fn order_by_expression_with_desc_topk_and_offset() {
    let mut b = StoreBuilder::new();
    for i in 0..50i64 {
        let s = Term::iri(format!("e/{i:02}"));
        b.insert(s.clone(), Term::iri("x"), Term::integer(i));
        b.insert(s, Term::iri("y"), Term::integer((i * 7) % 13));
    }
    let ds = b.freeze();
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?x WHERE { ?s <x> ?x . ?s <y> ?y } ORDER BY DESC((?x * ?y)) LIMIT 4 OFFSET 1",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results, "TopK expr keys diverge from fallback");
    assert_eq!(pushed.results.len(), 4);
    assert!(pushed.stats.sorted_rows > 0);
    // Products: i * ((7i) % 13); verify against a manual computation.
    let mut products: Vec<(i64, i64)> = (0..50).map(|i| (i * ((i * 7) % 13), i)).collect();
    products.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let want: Vec<f64> = products[1..5].iter().map(|&(_, i)| i as f64).collect();
    let got: Vec<f64> = pushed.results.rows.iter().map(|r| r[0].as_num().unwrap()).collect();
    assert_eq!(got, want);
}

#[test]
fn expression_key_under_aggregation_is_rejected() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let err = engine
        .run_text(
            "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <group> ?g . ?s <rank> ?r } \
             GROUP BY ?g ORDER BY ((?r + 1))",
        )
        .unwrap_err();
    assert!(matches!(err, QueryError::Unsupported(_)), "{err:?}");
}

#[test]
fn group_by_on_delivered_order_streams_one_group_at_a_time() {
    let ds = duplicate_heavy_dataset(120);
    let engine = Engine::new(&ds);
    // Group key = the subject the scan delivers sorted: the ordered fold
    // holds one group's DISTINCT values at a time. Results and Cout must
    // match the sorting reference bit for bit, and with ORDER BY ASC(?s)
    // the final sort disappears.
    let q = parambench_sparql::parse_query(
        "SELECT ?s (COUNT(?x) AS ?n) (SUM(?x) AS ?sum) (COUNT(DISTINCT ?x) AS ?d) \
         WHERE { ?s <a> ?x } GROUP BY ?s ORDER BY ASC(?s)",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    // The ordered one-group-at-a-time fold runs on the unbudgeted path
    // only (under a budget the spill-capable fold takes over), so pin the
    // budget regardless of any SPARQL_MEM_BUDGET_ROWS the suite runs with.
    let inmem = ExecConfig { mem_budget_rows: None, ..ExecConfig::default() };
    let ordered = engine.execute_with(&prepared, &inmem).unwrap();
    let sorted = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(ordered.results, sorted.results);
    assert_eq!(ordered.results.len(), 120);
    assert_eq!(ordered.stats.sorted_rows, 0, "group-key ORDER BY rides the delivered order");
    assert_eq!(ordered.cout, sorted.cout);
    assert!(sorted.stats.sorted_rows > 0);
    // Resident at once: the one input batch (all 480 <a> rows), the 120
    // finished group rows and one group's 4 distinct values. A hash fold
    // also keeps every group's distinct set, 480 more.
    let (rows, groups, distinct) = (120 * 4, 120, 4);
    assert!(
        ordered.stats.peak_tuples <= (rows + groups + distinct) as u64,
        "ordered fold peak {}",
        ordered.stats.peak_tuples
    );
}

#[test]
fn distinct_on_delivered_order_matches_the_reference() {
    // More distinct subjects than one batch holds.
    let ds = duplicate_heavy_dataset(2000);
    let engine = Engine::new(&ds);
    // DISTINCT ?s over the multi-valued <a>: 4 duplicates per subject,
    // delivered contiguously, deduplicated across batch boundaries.
    let q = parambench_sparql::parse_query("SELECT DISTINCT ?s WHERE { ?s <a> ?x }").unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results);
    assert_eq!(pushed.results.len(), 2000);
}

#[test]
fn multi_key_sort_elimination_declines_on_numeric_value_ties() {
    // Two DISTINCT ids with the SAME numeric value ("1"^^int vs
    // "1.0"^^double): under ORDER BY ?a ?b the baseline's stable sort
    // treats them as one tie group and reorders it by ?b, while id-ordered
    // delivery would pin them by lexical form. The engine must therefore
    // refuse multi-key elimination on tie-carrying dictionaries and sort
    // for real — producing exactly the baseline order.
    let mut b = StoreBuilder::new();
    let s1 = Term::iri("row/1");
    let s2 = Term::iri("row/2");
    b.insert(s1.clone(), Term::iri("a"), Term::integer(1));
    b.insert(s1, Term::iri("b"), Term::integer(5));
    b.insert(s2.clone(), Term::iri("a"), Term::double(1.0));
    b.insert(s2, Term::iri("b"), Term::integer(3));
    let ds = b.freeze();
    assert!(ds.dict().has_value_ties(), "1 and 1.0 must register as a value tie");
    let engine = Engine::new(&ds);
    let q = parambench_sparql::parse_query(
        "SELECT ?s ?a ?b WHERE { ?s <a> ?a . ?s <b> ?b } ORDER BY ASC(?a) ASC(?b)",
    )
    .unwrap();
    let prepared = engine.prepare(&q).unwrap();
    let pushed = engine.execute(&prepared).unwrap();
    let unpushed = engine.execute_unpushed(&prepared).unwrap();
    assert_eq!(pushed.results, unpushed.results, "tie-carrying multi-key order diverged");
    assert!(pushed.stats.sorted_rows > 0, "the engine must really sort here");
    // The equal-?a tie group is ordered by ?b: b=3 (the double row) first.
    assert_eq!(pushed.results.rows[0][2].as_num(), Some(3.0));
    assert_eq!(pushed.results.rows[1][2].as_num(), Some(5.0));

    // Single-key ORDER BY stays eliminable even with ties: sort-key ties
    // fall back to arrival order on both paths.
    let q1 = parambench_sparql::parse_query("SELECT ?s ?a WHERE { ?s <a> ?a } ORDER BY ASC(?a)")
        .unwrap();
    let p1 = engine.prepare(&q1).unwrap();
    let pushed1 = engine.execute(&p1).unwrap();
    let unpushed1 = engine.execute_unpushed(&p1).unwrap();
    assert_eq!(pushed1.results, unpushed1.results);
    assert_eq!(pushed1.stats.sorted_rows, 0, "single-key elimination stays sound");
}

// ---------------------------------------------------------------------------
// Measured Cout without running the result (Engine::measure_cout)
// ---------------------------------------------------------------------------

/// Prepares `text` and returns `measure_cout`'s answer, asserted equal to
/// the `Cout` of an execution of the same prepared query, plus that
/// execution.
fn measured(engine: &Engine<'_>, text: &str) -> (u64, parambench_sparql::QueryOutput) {
    let query = parambench_sparql::parse_query(text).unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let out = engine.execute(&prepared).unwrap();
    let cout = engine.measure_cout(&prepared, &mut CoutTables::new(engine.dataset())).unwrap();
    assert_eq!(cout, out.cout, "measure_cout diverges from execute for {text}");
    (cout, out)
}

/// Whether `measure_cout` counts `text` rather than running its plan.
fn counted(engine: &Engine<'_>, text: &str) -> bool {
    let prepared = engine.prepare(&parambench_sparql::parse_query(text).unwrap()).unwrap();
    let mut tables = CoutTables::new(engine.dataset());
    engine.measure_cout(&prepared, &mut tables).unwrap();
    assert_eq!(tables.counted() + tables.fallback(), 1, "{text}");
    tables.counted() == 1
}

/// The query position of the pattern the recorded plan's root probes,
/// when that root is a bind join.
fn bind_root_probe(engine: &Engine<'_>, text: &str) -> Option<usize> {
    let prepared = engine.prepare(&parambench_sparql::parse_query(text).unwrap()).unwrap();
    match engine.physical_plan(&prepared, &engine.exec_config()).bgp? {
        PhysNode::Join { method: JoinMethod::Bind, right, .. } => match *right {
            PhysNode::Scan { pattern, .. } => Some(pattern.idx),
            PhysNode::Join { .. } => None,
        },
        _ => None,
    }
}

#[test]
fn measure_cout_of_limit_zero_is_zero() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    for text in [
        "SELECT ?s WHERE { ?s <rank> ?r . ?s <group> ?g } LIMIT 0",
        "SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <group> ?g . ?s <rank> ?r } GROUP BY ?g LIMIT 0",
    ] {
        let (cout, out) = measured(&engine, text);
        assert_eq!((cout, out.stats.scanned), (0, 0), "{text}");
        assert!(counted(&engine, text), "{text}");
    }
}

/// A plain LIMIT stops the pipeline early, so the execution's `Cout`
/// depends on where its Slice stopped: `measure_cout` must report that
/// integer, not the full pattern part's.
#[test]
fn measure_cout_of_an_early_exit_limit_is_the_executions() {
    let ds = duplicate_heavy_dataset(2000);
    let engine = Engine::new(&ds);
    let text = "SELECT ?s ?x ?y WHERE { ?s <a> ?x . ?s <b> ?y } LIMIT 5";
    let (cout, _) = measured(&engine, text);
    assert!(!counted(&engine, text), "an early exit runs its plan");
    let query = parambench_sparql::parse_query(text).unwrap();
    let full = engine.execute_unpushed(&engine.prepare(&query).unwrap()).unwrap();
    assert_eq!(full.cout, star_rows(&ds) as u64);
    assert!(cout < full.cout, "the LIMIT must have exited early ({cout} vs {})", full.cout);
}

/// Nodes `n/0..n/19` in a ring under each of four predicates `p/k`, all
/// typed `<kind> <rel>`; node `i` also loops on itself under `p/k` when
/// `i % (k + 2) == 0` (10 + 7 + 5 + 4 = 26 self-loops). `<link>` points
/// five of the nodes at `n/5`, the only node with a `<self>` self-loop.
fn loop_dataset() -> Dataset {
    let mut b = StoreBuilder::new();
    let node = |i: usize| Term::iri(format!("n/{}", i % 20));
    for k in 0..4 {
        let p = Term::iri(format!("p/{k}"));
        b.insert(p.clone(), Term::iri("kind"), Term::iri("rel"));
        for i in 0..20 {
            b.insert(node(i), p.clone(), node(i + 1));
            if i % (k + 2) == 0 {
                b.insert(node(i), p.clone(), node(i));
            }
        }
    }
    for i in 0..20 {
        b.insert(node(i), Term::iri("link"), node(5 * (i % 4)));
        b.insert(node(i), Term::iri("self"), node(i + 7));
    }
    b.insert(node(5), Term::iri("self"), node(5));
    b.freeze()
}

/// `?y ?j ?y` probed with `?j` bound leaves the repeated `?y` as a
/// residual check on every probed triple: counting the probe's range
/// instead of its matches would report every `p/k` triple (106).
#[test]
fn measure_cout_applies_a_root_patterns_repeated_variable() {
    let ds = loop_dataset();
    let text = "SELECT * WHERE { ?j <kind> <rel> . ?y ?j ?y }";
    let engine = Engine::new(&ds);
    assert_eq!(bind_root_probe(&engine, text), Some(1));
    let (cout, out) = measured(&engine, text);
    assert_eq!((cout, out.results.len()), (26, 26), "one row per self-loop");
    assert!(counted(&engine, text));
}

/// `?x <self> ?x` with `?x` the join key binds both positions from the
/// left row: an exact count, no residual check.
#[test]
fn measure_cout_binds_a_join_variable_twice_in_the_root_pattern() {
    let ds = loop_dataset();
    let text = "SELECT * WHERE { ?s <link> ?x . ?x <self> ?x }";
    let engine = Engine::new(&ds);
    assert_eq!(bind_root_probe(&engine, text), Some(1));
    // Five of the twenty links target n/5, the only self-looped node.
    let (cout, out) = measured(&engine, text);
    assert_eq!((cout, out.results.len()), (5, 5));
    assert!(counted(&engine, text));
}

#[test]
fn measure_cout_counts_optional_joins() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let text = "SELECT * WHERE { ?s <rank> ?r OPTIONAL { ?s <label> ?l } }";
    let (cout, out) = measured(&engine, text);
    assert!(!counted(&engine, text), "an OPTIONAL runs its plan");
    assert_eq!(out.stats.cout, 0, "the required part is one scan");
    assert_eq!(cout, out.stats.cout_optional);
    assert!(cout >= 10, "every left row is kept");
}

#[test]
fn measure_cout_counts_union_joins() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    for text in [
        "SELECT * WHERE { ?s <rank> ?r . { ?s <group> ?g } UNION { ?s <label> ?g } }",
        "SELECT * WHERE { { ?s <group> <g/0> } UNION { ?s <group> <g/1> } ?s <rank> ?r }",
    ] {
        let (cout, _) = measured(&engine, text);
        assert!(cout > 0, "{text}");
        assert!(!counted(&engine, text), "a UNION runs its plan: {text}");
    }
}

#[test]
fn measure_cout_of_an_empty_left_side_is_zero() {
    let ds = dataset();
    // "label 2" is interned (item/2's label) but no <special> value.
    let text = "SELECT * WHERE { ?s <special> \"label 2\" . ?s <rank> ?r }";
    let engine = Engine::new(&ds);
    assert_eq!(bind_root_probe(&engine, text), Some(1));
    assert_eq!(measured(&engine, text).0, 0);
}

/// The root's probe counts are `Dataset::count` over a range the overlay
/// both adds to and tombstones inside: they must see the visible set,
/// exactly as the store frozen from that set does.
#[test]
fn measure_cout_counts_through_overlay_adds_and_tombstones() {
    let product = |i: usize| Term::iri(format!("prod/{i}"));
    let feature = |i: usize| Term::iri(format!("f/{}", i % 10));
    let feat = Term::iri("feat");
    let mut b = StoreBuilder::new();
    for i in 0..30 {
        for f in [i, i + 3, i * 7] {
            b.insert(product(i), feat.clone(), feature(f));
        }
    }
    let mut ds = b.freeze();
    // prod/0 has features f/0 and f/3: add into and tombstone inside the
    // (?, feat, f/0) and (?, feat, f/3) ranges the root probes.
    let adds = [(product(31), feat.clone(), feature(0)), (product(32), feat.clone(), feature(3))];
    assert_eq!(ds.insert_batch(adds), 2);
    let dels = [(product(10), feat.clone(), feature(0)), (product(3), feat.clone(), feature(3))];
    assert_eq!(ds.delete_batch(dels), 2);
    assert!(ds.overlay().adds_len() > 0 && ds.overlay().dels_len() > 0);

    let text = "SELECT ?other WHERE { <prod/0> <feat> ?f . ?other <feat> ?f }";
    let engine = Engine::new(&ds);
    assert_eq!(bind_root_probe(&engine, text), Some(1));
    let visible = |ds: &Dataset| {
        let f = ds.lookup(&feat).unwrap();
        let p0 = ds.lookup(&product(0)).unwrap();
        let feats: Vec<_> = ds.scan([Some(p0), Some(f), None]).map(|t| t[2]).collect();
        feats.iter().map(|&o| ds.count([None, Some(f), Some(o)]) as u64).sum::<u64>()
    };
    let mut frozen = StoreBuilder::new();
    for [s, p, o] in ds.scan([None, None, None]) {
        frozen.insert(ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone());
    }
    let frozen = frozen.freeze();
    let want = measured(&Engine::new(&frozen), text).0;
    assert_eq!(want, visible(&frozen));
    assert_eq!(measured(&engine, text).0, want);
}

/// A bind join's probes gallop forward from where its previous probe
/// landed in the base index, while the overlay runs are searched per
/// probe. Over a store whose overlay tombstones keys inside the probed
/// ranges and adds keys inside, between and past them, probes ascending
/// over the products must read exactly the visible set: the same rows, row
/// order and `Cout` as the store frozen from that set, through the engine
/// and through `Dataset::probe` itself.
#[test]
fn ascending_bind_probes_through_an_overlay_match_a_fresh_freeze() {
    let product = |i: usize| Term::iri(format!("prod/{i:04}"));
    let price = |i: usize, k: usize| Term::integer((i * 10 + k) as i64);
    let (kind, ty, cost) = (Term::iri("Kind"), Term::iri("type"), Term::iri("price"));
    let mut b = StoreBuilder::new();
    for i in 0..400 {
        b.insert(product(i), ty.clone(), kind.clone());
        for k in 0..i % 4 {
            b.insert(product(i), cost.clone(), price(i, k));
        }
    }
    // Interned before the freeze, so no update mints an out-of-order id and
    // the live store keeps the fresh freeze's ids and row order.
    for i in 0..410 {
        b.dict_mut().encode(product(i));
        for k in 0..6 {
            b.dict_mut().encode(price(i, k));
        }
    }
    let mut ds = b.freeze();
    let dels: Vec<_> = (0..400)
        .filter(|i| i % 3 == 1)
        .flat_map(|i| (0..i % 4).map(move |k| (i, k)))
        .map(|(i, k)| (product(i), cost.clone(), price(i, k)))
        .collect();
    assert_eq!(ds.delete_batch(dels.clone()), dels.len());
    // Adds into ranges that had keys (k = 4, 5), into empty ones (i % 4 ==
    // 0) and for products past the last base product.
    let adds: Vec<_> = (0..410)
        .filter(|i| i % 5 == 0)
        .flat_map(|i| [4, 5].map(|k| (product(i), cost.clone(), price(i, k))))
        .chain((400..410).map(|i| (product(i), ty.clone(), kind.clone())))
        .collect();
    assert_eq!(ds.insert_batch(adds.clone()), adds.len());
    assert!(ds.order_by_value_intact());

    let mut frozen = StoreBuilder::new();
    for id in 0..ds.dict().len() as u32 {
        frozen.dict_mut().encode(ds.decode(parambench_rdf::Id(id)).clone());
    }
    for [s, p, o] in ds.scan([None, None, None]) {
        frozen.insert(ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone());
    }
    let frozen = frozen.freeze();

    let text = "SELECT ?p ?x WHERE { ?p <type> <Kind> . ?p <price> ?x }";
    let engine = Engine::new(&ds);
    assert_eq!(bind_root_probe(&engine, text), Some(1), "the price pattern is probed per product");
    let (cout, out) = measured(&engine, text);
    let (want_cout, want) = measured(&Engine::new(&frozen), text);
    assert_eq!(cout, want_cout);
    assert_eq!(out.results, want.results, "rows and row order");
    assert_eq!(out.stats.scanned, want.stats.scanned);

    // The probes themselves: one hint over every product ascending, then
    // descending, against a scan of each pattern on both stores.
    let (t, c) = (ds.lookup(&ty).unwrap(), ds.lookup(&cost).unwrap());
    let k = ds.lookup(&kind).unwrap();
    let products: Vec<_> = ds.scan([None, Some(t), Some(k)]).map(|[p, _, _]| p).collect();
    assert_eq!(products.len(), 410);
    let mut hint = parambench_rdf::ProbeHint::default();
    for p in products.iter().chain(products.iter().rev()) {
        let pattern = [Some(*p), Some(c), None];
        let probe = ds.probe(pattern, &mut hint);
        assert_eq!(probe.len(), ds.count(pattern));
        let got: Vec<_> = probe.collect();
        assert_eq!(got, ds.scan(pattern).collect::<Vec<_>>(), "{}", ds.decode(*p));
        assert_eq!(got, frozen.scan(pattern).collect::<Vec<_>>(), "{}", ds.decode(*p));
    }
}

/// Every shipped template with four bindings spread over its domain, on its
/// generator's store and again after a write batch over the predicates it
/// reads: `measure_cout` is the execution's `Cout`, measured through one
/// set of count tables per template, as profiling measures a domain. Every
/// template is counted but the UNION (LUBM-PEOPLE) and BSBM-CHEAPEST,
/// whose LIMIT stops early wherever the physical pass eliminates its sort.
#[test]
fn measure_cout_matches_execute_on_every_shipped_template() {
    for templates::Family { name, mut ds, requests, inserts } in templates::families(12_000) {
        for pass in ["built", "updated"] {
            if pass == "updated" {
                assert_eq!(ds.insert_batch(inserts.clone()), inserts.len());
            }
            let engine = Engine::new(&ds);
            for (template, bindings) in &requests {
                let mut tables = CoutTables::new(&ds);
                for (i, binding) in bindings.iter().enumerate() {
                    let prepared = engine.prepare_template(template, binding).unwrap();
                    let out = engine.execute(&prepared).unwrap();
                    let cout = engine.measure_cout(&prepared, &mut tables).unwrap();
                    assert_eq!(cout, out.cout, "[{name}/{pass}] {} #{i}", template.name());
                }
                let (what, fallback) =
                    (format!("[{name}/{pass}] {}", template.name()), tables.fallback());
                match template.name() {
                    "LUBM-PEOPLE" => assert_eq!(fallback, 4, "{what}"),
                    "BSBM-CHEAPEST" => {}
                    _ => assert_eq!(fallback, 0, "{what}"),
                }
            }
        }
    }
}

/// Count tables borrow the dataset they count over; handed to an engine
/// over another store, `measure_cout` refuses them with a typed error
/// instead of counting one store's ranges as another's.
#[test]
fn count_tables_of_another_dataset_are_a_typed_error() {
    let (ds, other) = (dataset(), dataset());
    let engine = Engine::new(&ds);
    let query = parambench_sparql::parse_query("SELECT ?x WHERE { ?x ?p ?o }").unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let mut foreign = CoutTables::new(&other);
    let err = engine.measure_cout(&prepared, &mut foreign).unwrap_err();
    assert!(matches!(err, QueryError::DatasetMismatch(_)), "{err}");
    assert_eq!((foreign.counted(), foreign.fallback()), (0, 0), "nothing was measured");
    let plan = engine.physical_plan(&prepared, &engine.exec_config());
    let err = engine.measure_cout_with(&plan, &engine.exec_config(), &mut foreign).unwrap_err();
    assert!(matches!(err, QueryError::DatasetMismatch(_)), "{err}");
    let mut own = CoutTables::new(&ds);
    assert!(engine.measure_cout(&prepared, &mut own).is_ok());
}

/// A query over more than 64 variables is refused with a typed error: an
/// estimate's distinct counts and the optimizer's variable sets are 64
/// slots wide.
#[test]
fn more_than_64_variables_are_a_typed_error() {
    let ds = dataset();
    let engine = Engine::new(&ds);
    let body: String = (0..22).map(|i| format!("?s{i} ?p{i} ?o{i} . ")).collect();
    let query = parambench_sparql::parse_query(&format!("SELECT * WHERE {{ {body} }}")).unwrap();
    let err = engine.prepare(&query).unwrap_err();
    assert!(matches!(err, QueryError::Unsupported(_)), "{err}");
}
