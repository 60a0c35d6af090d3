//! The structural proof that planning a request walks no index extent, in
//! the style of `commit_cost.rs`: the process-global
//! `parambench_rdf::diag::distinct_walks` counter says that
//! `Engine::plan_class`, `Engine::prepare_template`, `TemplatePlan::bind`
//! and `SparqlServer::run` never call `Dataset::distinct_with` for any of
//! the twelve shipped
//! templates — every distinct count their patterns need is a field of the
//! statistics the store maintains — on a built, a snapshot-loaded and an
//! overlay-carrying (post-`try_update`) store. A `%s ?p ?o` template is the
//! counter-proof: a bound subject with two free positions does walk, over
//! that subject's own triples. That the statistics equal the walks they
//! replace is `rdf/tests/proptest_store.rs`'s contract, and that the
//! estimator reads the right field is `cardinality`'s unit tests'; wall time
//! is `benchmark/`'s job.
//!
//! One test, alone in its binary: the counter is process-global.

#[path = "common/stores.rs"]
mod stores;
#[path = "common/templates.rs"]
mod templates;

use std::sync::Arc;

use parambench_rdf::diag::distinct_walks;
use parambench_rdf::store::Dataset;
use parambench_sparql::engine::Engine;
use parambench_sparql::serve::{ServeConfig, SparqlServer};
use parambench_sparql::template::{Binding, QueryTemplate};
use templates::{families, Family};

const TRIPLES: usize = 12_000;

/// Runs the request-path entry points for every binding — a fresh engine
/// per request, as the server builds one, and one template plan per
/// template, bound per binding, as profiling does — and returns each
/// `(what, walks)` that moved the counter.
fn walks_of(
    kind: &str,
    server: &SparqlServer,
    requests: &[(QueryTemplate, Vec<Binding>)],
) -> Vec<(String, u64)> {
    let ds: &Dataset = server.dataset();
    let mut moved = Vec::new();
    let mut record = |what: String, at: u64| {
        let walks = distinct_walks() - at;
        if walks > 0 {
            moved.push((what, walks));
        }
    };
    for (template, bindings) in requests {
        let engine = Engine::new(ds);
        let at = distinct_walks();
        let mut plan = engine.template_plan(template).expect("plans");
        record(format!("[{kind}] {} template_plan", template.name()), at);
        for (i, binding) in bindings.iter().enumerate() {
            let name = template.name();
            let at = distinct_walks();
            Engine::new(ds).plan_class(template, binding).expect("plan class");
            record(format!("[{kind}] {name} #{i} plan_class"), at);
            let at = distinct_walks();
            Engine::new(ds).prepare_template(template, binding).expect("prepares");
            record(format!("[{kind}] {name} #{i} prepare_template"), at);
            let at = distinct_walks();
            plan.bind(binding).expect("binds");
            record(format!("[{kind}] {name} #{i} TemplatePlan::bind"), at);
            let at = distinct_walks();
            server.run(template, binding).expect("serves");
            record(format!("[{kind}] {name} #{i} SparqlServer::run"), at);
        }
    }
    moved
}

#[test]
fn planning_a_request_walks_no_index_extent() {
    let mut moved = Vec::new();
    for family in families(TRIPLES) {
        let Family { name, ds, requests, inserts } = family;
        let loaded = stores::reload(&ds);
        assert!(loaded.is_loaded());

        let server = SparqlServer::new(Arc::new(ds), ServeConfig::default());
        moved.extend(walks_of(&format!("{name}/built"), &server, &requests));

        let mut server = SparqlServer::new(Arc::new(loaded), ServeConfig::default());
        moved.extend(walks_of(&format!("{name}/loaded"), &server, &requests));

        // One commit: new overflow terms on the templates' predicates and
        // a tombstone on a base triple of one of them.
        let (s, p, o) = inserts[0].clone();
        let victim = {
            let ds = server.dataset();
            let p = ds.lookup(&p).expect("the templates' predicate is interned");
            let [s, p, o] = ds.scan([None, Some(p), None]).next().expect("it has triples");
            (ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone())
        };
        let changed = server
            .try_update(|ds| ds.insert_batch(inserts.clone()) + ds.delete_batch([victim]))
            .expect("commits");
        assert_eq!(changed, inserts.len() + 1, "[{name}] every write is effective");
        let after = server.dataset();
        assert!(after.overlay().adds_len() > 0 && after.overlay().dels_len() > 0);
        assert!(after.lookup(&s).is_some() && after.lookup(&o).is_some());
        moved.extend(walks_of(&format!("{name}/updated"), &server, &requests));

        // The counter-proof: a bound subject with predicate and object
        // free needs two distinct counts the statistics do not hold.
        let probe = QueryTemplate::parse("PROBE", "SELECT ?p ?o WHERE { %s ?p ?o }").unwrap();
        let at = distinct_walks();
        server.run(&probe, &Binding::new().with("s", s)).expect("serves");
        assert!(distinct_walks() > at, "[{name}] the counter is live");
    }
    let total: u64 = moved.iter().map(|(_, walks)| walks).sum();
    assert!(moved.is_empty(), "{total} extent walks on the request path: {moved:#?}");
}
