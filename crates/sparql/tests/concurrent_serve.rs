//! Serving-layer correctness: concurrent multi-client stress vs the serial
//! engine, structural plan-cache gating, cache-rebind vs cold-prepare
//! differentials (including a proptest sweep over random templates), and
//! stats-asserted admission / worker-pool accounting.
//!
//! Every assertion here is deterministic on a single-CPU host: concurrency
//! properties are checked through counters (`ServeStats`, `PoolStats`, the
//! admission `waiting` gauge), never through wall time.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::oracle;
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::serve::{drive_clients, ServeConfig, SparqlServer};
use parambench_sparql::template::{Binding, QueryTemplate};
use parambench_sparql::{ExecConfig, QueryOutput};

/// BSBM-flavoured inline dataset: products with evenly distributed types,
/// producers, features and numeric attributes, plus reviews with ratings.
/// Even distribution keeps all bindings of one template in one parameter
/// cardinality class (the prepare-once tests rely on that).
fn product_dataset(products: usize, reviews: usize) -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..products {
        let p = Term::iri(format!("prod/{i:04}"));
        b.insert(p.clone(), Term::iri("type"), Term::iri(format!("ptype/{}", i % 5)));
        b.insert(p.clone(), Term::iri("producer"), Term::iri(format!("producer/{}", i % 4)));
        b.insert(p.clone(), Term::iri("feature"), Term::iri(format!("feat/{}", i % 10)));
        b.insert(p, Term::iri("num"), Term::integer((i % 13) as i64));
    }
    for j in 0..reviews {
        let r = Term::iri(format!("rev/{j:04}"));
        b.insert(r.clone(), Term::iri("about"), Term::iri(format!("prod/{:04}", j % products)));
        b.insert(r, Term::iri("rating"), Term::integer((j % 10) as i64));
    }
    b.freeze()
}

/// The BSBM-style template mix the stress tests serve.
fn template_mix() -> Vec<QueryTemplate> {
    vec![
        QueryTemplate::parse("b1", "SELECT ?p ?n WHERE { ?p <type> %t . ?p <num> ?n }").unwrap(),
        QueryTemplate::parse(
            "b2",
            "SELECT ?p ?n WHERE { ?p <type> %t . ?p <producer> %pr . ?p <num> ?n . \
             FILTER(?n > %min) } ORDER BY ?p",
        )
        .unwrap(),
        QueryTemplate::parse(
            "b3",
            "SELECT ?r ?rt WHERE { ?r <about> %prod . ?r <rating> ?rt } \
             ORDER BY DESC(?rt) ?r LIMIT 5",
        )
        .unwrap(),
        QueryTemplate::parse(
            "b4",
            "SELECT ?t (COUNT(?p) AS ?c) WHERE { ?p <type> ?t . ?p <feature> %f } \
             GROUP BY ?t ORDER BY ?t",
        )
        .unwrap(),
    ]
}

/// One request per (template, variant) pair, round-robin over variants.
fn request_mix(templates: &[QueryTemplate], variants: usize) -> Vec<(QueryTemplate, Binding)> {
    let mut requests = Vec::new();
    for v in 0..variants {
        for t in templates {
            let b = match t.name() {
                "b1" => Binding::new().with("t", Term::iri(format!("ptype/{}", v % 5))),
                "b2" => Binding::new()
                    .with("t", Term::iri(format!("ptype/{}", v % 5)))
                    .with("pr", Term::iri(format!("producer/{}", v % 4)))
                    .with("min", Term::integer((v % 6) as i64)),
                "b3" => Binding::new().with("prod", Term::iri(format!("prod/{:04}", v % 40))),
                "b4" => Binding::new().with("f", Term::iri(format!("feat/{}", v % 10))),
                other => panic!("unknown template {other}"),
            };
            requests.push((t.clone(), b));
        }
    }
    requests
}

/// Serial reference run on a *private* engine: same order/budget knobs as
/// the server's per-query config, but one thread, no shared pool, no cache.
fn serial_reference(
    ds: &Dataset,
    server_exec: ExecConfig,
    requests: &[(QueryTemplate, Binding)],
) -> Vec<QueryOutput> {
    let exec = ExecConfig { threads: 1, pool: None, ..server_exec };
    let engine = Engine::with_exec_config(ds, exec);
    requests
        .iter()
        .map(|(t, b)| {
            let prepared = engine.prepare_template(t, b).expect("serial prepare");
            engine.execute_with(&prepared, &exec).expect("serial execute")
        })
        .collect()
}

/// Tentpole acceptance: N client threads over a BSBM template mix against
/// one shared server produce, per request, rows/order/`Cout`/`scanned`
/// bit-identical to a serial run on a private engine — through cold
/// prepares on the first pass and cache rebinds on the second.
#[test]
fn concurrent_clients_bit_identical_to_serial() {
    let ds = Arc::new(product_dataset(120, 240));
    let requests = request_mix(&template_mix(), 6);
    let server = SparqlServer::new(
        Arc::clone(&ds),
        ServeConfig { max_concurrent: 3, ..ServeConfig::default() },
    );
    let serial = serial_reference(&ds, server.exec_config(), &requests);

    for pass in 0..2 {
        let outputs = drive_clients(&server, 4, &requests).expect("concurrent run");
        assert_eq!(outputs.len(), requests.len());
        for (i, (out, want)) in outputs.iter().zip(&serial).enumerate() {
            let (t, b) = &requests[i];
            let ctx = format!("pass {pass}, request {i} ({} {b})", t.name());
            assert_eq!(out.output.results, want.results, "rows diverge: {ctx}");
            assert_eq!(out.output.cout, want.cout, "Cout diverges: {ctx}");
            assert_eq!(out.output.stats.scanned, want.stats.scanned, "scanned diverges: {ctx}");
        }
        // Second pass is served entirely from the plan cache.
        if pass == 1 {
            let stats = server.stats();
            assert_eq!(stats.cache_hits + stats.cache_misses, 2 * requests.len() as u64);
            assert!(
                stats.cache_hits >= requests.len() as u64,
                "warm pass must hit the cache: {stats:?}"
            );
        }
    }
}

/// Structural cache gating: K repeated instantiations of each template
/// (all bindings in one parameter class) trigger exactly one cold prepare
/// per template; every other request is a rebind that skips
/// parse/optimize/lower entirely.
#[test]
fn repeated_instantiations_prepare_exactly_once() {
    let ds = Arc::new(product_dataset(100, 200));
    let templates = template_mix();
    let requests = request_mix(&templates, 8);
    let server = SparqlServer::new(Arc::clone(&ds), ServeConfig::default());
    let outputs = drive_clients(&server, 2, &requests).expect("run");
    let stats = server.stats();
    assert_eq!(
        stats.cache_misses,
        templates.len() as u64,
        "one cold prepare per template: {stats:?}"
    );
    assert_eq!(stats.cache_hits, (requests.len() - templates.len()) as u64, "{stats:?}");
    assert_eq!(stats.prepares_avoided, stats.cache_hits);
    // Per-request flags agree with the aggregate counters.
    let hits = outputs.iter().filter(|o| o.cache_hit).count();
    assert_eq!(hits as u64, stats.cache_hits);
}

/// Constant-sensitivity rule: a binding whose constant changes the scan
/// cardinalities (here: a type IRI absent from the dictionary) lands in a
/// different [`parambench_sparql::PlanClass`] — a cache miss by
/// construction, never a wrong reuse of the populated plan.
#[test]
fn constant_sensitive_bindings_split_the_cache_key() {
    let ds = Arc::new(product_dataset(50, 0));
    let t = template_mix().remove(0); // b1
    let server = SparqlServer::new(Arc::clone(&ds), ServeConfig::default());
    let present = Binding::new().with("t", Term::iri("ptype/0"));
    let absent = Binding::new().with("t", Term::iri("ptype/nonexistent"));
    let a = server.run(&t, &present).expect("present");
    let b = server.run(&t, &absent).expect("absent");
    let c = server.run(&t, &present).expect("present again");
    assert_eq!(a.output.results.len(), 10);
    assert_eq!(b.output.results.len(), 0, "absent constant yields empty result");
    assert_eq!(a.output.results, c.output.results);
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 2, "present and absent classes each prepare once: {stats:?}");
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
}

/// Admission control, asserted through counters (not timing): with one
/// execution slot, a second request queues — visible in the `waiting`
/// gauge — and is admitted the moment the first stream is dropped.
#[test]
fn admission_defers_second_request_until_slot_frees() {
    let ds = Arc::new(product_dataset(60, 120));
    let t = template_mix().remove(0);
    let server = SparqlServer::new(
        Arc::clone(&ds),
        ServeConfig { max_concurrent: 1, ..ServeConfig::default() },
    );
    let binding = Binding::new().with("t", Term::iri("ptype/1"));
    let held = server.query(&t, &binding).expect("first admit");
    std::thread::scope(|scope| {
        let second = scope.spawn(|| server.run(&t, &binding).expect("second request"));
        // Deterministic rendezvous: wait for the gauge, not a sleep.
        while server.waiting() != 1 {
            std::thread::yield_now();
        }
        drop(held);
        let out = second.join().expect("second client");
        assert_eq!(out.output.results.len(), 12);
    });
    let stats = server.stats();
    assert_eq!(stats.admissions_deferred, 1, "{stats:?}");
    assert_eq!(server.waiting(), 0);
}

/// Global thread budget: concurrent parallel queries lease extra workers
/// from the server pool, and the pool's peak usage never exceeds its
/// capacity — asserted via [`parambench_sparql::PoolStats`], not wall
/// time, so it holds on a 1-CPU host.
#[test]
fn worker_pool_caps_aggregate_threads_across_queries() {
    let ds = Arc::new(product_dataset(200, 400));
    // Tiny morsel geometry so every query engages parallel lowering and
    // actually asks the pool for workers.
    let exec = ExecConfig {
        threads: 4,
        morsel_rows: 5,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        ..ExecConfig::default()
    };
    let config = ServeConfig { max_concurrent: 4, pool_capacity: 2, exec, mem_budget_rows: None };
    let server = SparqlServer::new(Arc::clone(&ds), config);
    let requests = request_mix(&template_mix(), 4);
    let serial = serial_reference(&ds, server.exec_config(), &requests);
    let outputs = drive_clients(&server, 4, &requests).expect("run");
    for (i, (out, want)) in outputs.iter().zip(&serial).enumerate() {
        assert_eq!(out.output.results, want.results, "request {i}");
        assert_eq!(out.output.cout, want.cout, "request {i}");
    }
    let pool = server.stats().pool;
    assert_eq!(pool.capacity, 2);
    assert!(pool.granted > 0, "parallel queries should lease workers: {pool:?}");
    assert!(
        pool.peak_in_use <= pool.capacity,
        "aggregate leased workers exceeded the global budget: {pool:?}"
    );
    assert_eq!(pool.in_use, 0, "all leases returned: {pool:?}");
}

// ---------------------------------------------------------------------------
// Plan-cache correctness sweep: cached-rebind vs cold-prepare on random
// templates (proptest corpus), plus the naive-evaluation oracle.
// ---------------------------------------------------------------------------

/// One position of a random template pattern. Each position kind has its
/// own parameter name (`%s` / `%p` / `%x`), so a subject or predicate
/// parameter is bound to a term of the matching kind and can really match.
#[derive(Debug, Clone)]
enum Pos {
    Var(u8),
    Const(u8),
    Param,
}

/// Triple patterns `(subject, predicate, object)` plus one scoped filter
/// `(variable pick, '=' instead of '!=')`: `FILTER(?var OP %x)` over one
/// of the variables the group itself binds.
#[derive(Debug, Clone)]
struct GroupSpec {
    patterns: Vec<(Pos, Pos, Pos)>,
    filter: Option<(u8, bool)>,
}

/// A random parameterized template: a required group (empty only under a
/// UNION — the bare-UNION body), an optional UNION group of one-pattern
/// branches binding one variable set, and an optional OPTIONAL group.
#[derive(Debug, Clone)]
struct TemplateSpec {
    required: GroupSpec,
    union: Option<Vec<GroupSpec>>,
    optional: Option<GroupSpec>,
}

fn arb_group(patterns: std::ops::Range<usize>) -> impl Strategy<Value = GroupSpec> {
    let (var, konst) = ((0u8..4).prop_map(Pos::Var), (0u8..12).prop_map(Pos::Const));
    // Subjects are mostly variables (so patterns join), predicates never.
    let pattern = (
        prop_oneof![8 => var.clone(), 4 => konst.clone(), 1 => Just(Pos::Param)],
        prop_oneof![4 => konst.clone(), 1 => Just(Pos::Param)],
        prop_oneof![4 => var, 4 => konst, 3 => Just(Pos::Param)],
    );
    let filter = prop_oneof![2 => Just(None), 1 => (0u8..8, any::<bool>()).prop_map(Some)];
    (prop::collection::vec(pattern, patterns), filter)
        .prop_map(|(patterns, filter)| GroupSpec { patterns, filter })
}

fn arb_template() -> impl Strategy<Value = TemplateSpec> {
    // UNION branches must bind the same variables: every branch gets the
    // subject variable `?s{subj}`, and either the object variable `?v{obj}`
    // or a non-variable object.
    let union = (prop::collection::vec(arb_group(1..2), 2..4), 0u8..4, prop::option::of(0u8..4))
        .prop_map(|(mut branches, subj, obj)| {
            for (s, _, o) in branches.iter_mut().flat_map(|b| &mut b.patterns) {
                *s = Pos::Var(subj);
                *o = match (obj, &*o) {
                    (Some(v), _) => Pos::Var(v),
                    (None, Pos::Var(c)) => Pos::Const(*c),
                    (None, other) => other.clone(),
                };
            }
            branches
        });
    (
        arb_group(0..4),
        prop_oneof![2 => Just(None), 1 => union.prop_map(Some)],
        prop_oneof![2 => Just(None), 1 => arb_group(1..3).prop_map(Some)],
    )
        .prop_map(|(required, union, optional)| {
            let mut spec = TemplateSpec { required, union, optional };
            if spec.union.is_none() && spec.required.patterns.is_empty() {
                spec.required.patterns.push((Pos::Var(0), Pos::Const(0), Pos::Param));
            }
            // At least one parameterized position, so rebinding is real.
            if !template_text(&spec).contains('%') {
                let first = spec.required.patterns.first_mut();
                let first = first.or_else(|| spec.union.as_mut()?[0].patterns.first_mut());
                first.expect("a body has a required pattern or a UNION").1 = Pos::Param;
            }
            spec
        })
}

fn spec_dataset(triples: &[(u8, u8, u8)]) -> Dataset {
    let mut b = StoreBuilder::new();
    for &(s, p, o) in triples {
        b.insert(
            Term::iri(format!("s/{}", s % 12)),
            Term::iri(format!("p/{}", p % 4)),
            Term::iri(format!("o/{}", o % 12)),
        );
    }
    b.freeze()
}

/// One group's patterns and its filter, as query text.
fn group_text(group: &GroupSpec) -> (String, String) {
    let mut body = String::new();
    let mut vars: Vec<String> = Vec::new();
    // (variable prefix, constant namespace, constant modulus, parameter)
    let kinds = [("s", "s", 12, "s"), ("", "p", 4, "p"), ("v", "o", 12, "x")];
    for (s, p, o) in &group.patterns {
        for (pos, (var, ns, modulus, param)) in [s, p, o].into_iter().zip(kinds) {
            body.push_str(&match pos {
                Pos::Var(v) => {
                    let name = format!("?{var}{v}");
                    if !vars.contains(&name) {
                        vars.push(name.clone());
                    }
                    name
                }
                Pos::Const(c) => format!("<{ns}/{}>", c % modulus),
                Pos::Param => format!("%{param}"),
            });
            body.push(' ');
        }
        body.push_str(". ");
    }
    let filter = match group.filter {
        Some((pick, eq)) if !vars.is_empty() => {
            let var = &vars[pick as usize % vars.len()];
            format!("FILTER({var} {} %x) ", if eq { "=" } else { "!=" })
        }
        _ => String::new(),
    };
    (body, filter)
}

fn template_text(spec: &TemplateSpec) -> String {
    // The required group's filter is the top-level one and goes last: the
    // variable it picks stays bound through every later group.
    let (mut body, top_filter) = group_text(&spec.required);
    let scoped = |g: &GroupSpec| {
        let (patterns, filter) = group_text(g);
        format!("{{ {patterns}{filter}}} ")
    };
    if let Some(branches) = &spec.union {
        body.push_str(&branches.iter().map(scoped).collect::<Vec<_>>().join("UNION "));
    }
    if let Some(optional) = &spec.optional {
        body.push_str(&format!("OPTIONAL {}", scoped(optional)));
    }
    format!("SELECT * WHERE {{ {body}{top_filter}}}")
}

/// A binding for exactly `template`'s parameters: `%x` is object `x`, and
/// `%s` / `%p` are subject / predicate `sp` (drawn apart, so two bindings
/// can differ in the object alone and still share a plan class).
fn spec_binding(template: &QueryTemplate, x: u8, sp: u8) -> Binding {
    Binding::from_pairs(template.params().iter().map(|name| {
        let term = match name.as_str() {
            "s" => format!("s/{}", sp % 12),
            "p" => format!("p/{}", sp % 4),
            _ => format!("o/{}", x % 12),
        };
        (name.clone(), Term::iri(term))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every random template and binding pair: when two bindings share
    /// a [`parambench_sparql::PlanClass`], the *rebound* cached plan is the
    /// cold prepare of the same instantiation — signature, both EXPLAIN
    /// renderings and every estimate bit-identical — executes to identical
    /// rows, order, `Cout` and `scanned`, and both match the naive oracle.
    /// Distinct classes simply decline reuse.
    #[test]
    fn cached_rebind_matches_cold_prepare(
        triples in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..60),
        spec in arb_template(),
        const_a in 0u8..12,
        const_b in 0u8..12,
        same_sp in any::<bool>(),
    ) {
        let ds = spec_dataset(&triples);
        let engine = Engine::new(&ds);
        let text = template_text(&spec);
        let template = QueryTemplate::parse("rand", &text).unwrap();
        let bind_a = spec_binding(&template, const_a, const_a);
        let bind_b = spec_binding(&template, const_b, if same_sp { const_a } else { const_b });

        let cold = |b: &Binding| {
            let q = template.instantiate(b).unwrap();
            let prepared = engine.prepare(&q).unwrap_or_else(|e| panic!("prepare {text}: {e}"));
            let out = engine.execute(&prepared).unwrap();
            (prepared, out, q)
        };
        let (prep_a, out_a, _) = cold(&bind_a);

        // Same-binding rebind must always be possible and bit-identical.
        let rebound_a = engine.rebind(&prep_a, &template, &bind_a).unwrap();
        let out_ra = engine.execute(&rebound_a).unwrap();
        prop_assert_eq!(&out_ra.results, &out_a.results, "{}", text);
        prop_assert_eq!(out_ra.cout, out_a.cout);
        prop_assert_eq!(out_ra.stats.scanned, out_a.stats.scanned);
        prop_assert_eq!(rebound_a.explain(), prep_a.explain(), "{}", text);

        // Cross-binding reuse, gated by the class key.
        let class_a = engine.plan_class(&template, &bind_a).unwrap();
        let class_b = engine.plan_class(&template, &bind_b).unwrap();
        if class_a == class_b {
            let rebound_b = engine.rebind(&prep_a, &template, &bind_b).unwrap();
            let (prep_b, out_b, q_b) = cold(&bind_b);
            let out_rb = engine.execute(&rebound_b).unwrap();
            prop_assert_eq!(&out_rb.results, &out_b.results, "rebind rows diverge: {}", text);
            prop_assert_eq!(out_rb.cout, out_b.cout);
            prop_assert_eq!(out_rb.stats.scanned, out_b.stats.scanned);
            prop_assert_eq!(&rebound_b.signature, &prep_b.signature, "{}", text);
            prop_assert_eq!(rebound_b.explain(), prep_b.explain(), "{}", text);
            prop_assert_eq!(
                engine.explain_physical(&rebound_b),
                engine.explain_physical(&prep_b),
                "{}", text
            );
            prop_assert_eq!(rebound_b.est_cout.to_bits(), prep_b.est_cout.to_bits());
            prop_assert_eq!(rebound_b.est_card.to_bits(), prep_b.est_card.to_bits());
            prop_assert_eq!(rebound_b.est_result_card.to_bits(), prep_b.est_result_card.to_bits());
            let exec = engine.exec_config();
            prop_assert_eq!(
                engine.physical_plan(&rebound_b, &exec).delivered_order,
                engine.physical_plan(&prep_b, &exec).delivered_order
            );
            // The class is a function of (template, binding, store) alone:
            // an engine that never planned anything computes the same key.
            let fresh = Engine::new(&ds).plan_class(&template, &bind_b).unwrap();
            prop_assert_eq!(&fresh, &class_b, "{}", text);
            let oracle_out = oracle::evaluate(&ds, &q_b);
            oracle::assert_matches(&out_rb.results, &oracle_out, "rebound plan vs oracle");
        }
    }
}
