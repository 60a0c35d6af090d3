//! The structural proof that planning a request walks no index extent, in
//! the style of `commit_cost.rs`: the process-global
//! `parambench_rdf::diag::distinct_walks` counter says that
//! `Engine::plan_class`, `Engine::prepare_template` and `SparqlServer::run`
//! never call `Dataset::distinct_with` for any of the twelve shipped
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

use std::sync::Arc;

use parambench_datagen::bsbm::{self, Bsbm, BsbmConfig};
use parambench_datagen::lubm::{Lubm, LubmConfig};
use parambench_datagen::snb::{self, Snb, SnbConfig};
use parambench_rdf::diag::distinct_walks;
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::serve::{ServeConfig, SparqlServer};
use parambench_sparql::template::{Binding, QueryTemplate};

const TRIPLES: usize = 12_000;

/// One generator family: its store, its templates with a few bindings each
/// spread over the parameter domain, and a write batch over predicates
/// those templates read.
struct Family {
    name: &'static str,
    ds: Dataset,
    requests: Vec<(QueryTemplate, Vec<Binding>)>,
    inserts: Vec<(Term, Term, Term)>,
}

/// First, middle and last value of a domain, plus the one after the first.
fn spread(domain: &[Term]) -> Vec<Term> {
    let n = domain.len();
    assert!(n >= 4, "domain too small to spread over");
    [0, 1, n / 2, n - 1].iter().map(|&i| domain[i].clone()).collect()
}

fn one_param(name: &str, domain: &[Term]) -> Vec<Binding> {
    spread(domain).into_iter().map(|v| Binding::new().with(name, v)).collect()
}

fn families() -> Vec<Family> {
    let iri = |s: &str| Term::iri(s.to_string());

    let b = Bsbm::generate(BsbmConfig::with_scale(TRIPLES));
    let types = b.type_iris();
    let feature_p = b.dataset.lookup(&iri(bsbm::schema::PRODUCT_FEATURE)).expect("features");
    let features: Vec<Term> =
        b.dataset.objects_of_iter(feature_p).map(|id| b.dataset.decode(id).clone()).collect();
    let type_feature = spread(&types)
        .into_iter()
        .zip(spread(&features))
        .map(|(t, f)| Binding::new().with("type", t).with("feature", f))
        .collect();
    let new_product = iri(&bsbm::schema::product(9_999_999));
    let bsbm_family = Family {
        name: "bsbm",
        requests: vec![
            (Bsbm::q2_similar_products(), one_param("product", &b.product_iris())),
            (Bsbm::q4_feature_price_by_type(), one_param("type", &types)),
            (Bsbm::q_cheapest_products_of_type(), one_param("type", &types)),
            (Bsbm::q_catalog_of_type(), one_param("type", &types)),
            (Bsbm::q_rating_by_type(), one_param("type", &types)),
            (Bsbm::q_type_feature_offers(), type_feature),
        ],
        inserts: vec![
            (new_product.clone(), iri(bsbm::schema::RDF_TYPE), types[types.len() - 1].clone()),
            (new_product.clone(), iri(bsbm::schema::PRODUCT_FEATURE), features[0].clone()),
            (new_product, iri(bsbm::schema::PRICE), Term::integer(1)),
        ],
        ds: b.dataset,
    };

    let s = Snb::generate(SnbConfig::with_scale(TRIPLES));
    let (persons, countries) = (s.person_iris(), s.country_iris());
    let q1 = spread(&s.name_literals())
        .into_iter()
        .zip(spread(&countries))
        .map(|(n, c)| Binding::new().with("name", n).with("country", c))
        .collect();
    let q3 = spread(&persons)
        .into_iter()
        .zip(spread(&countries))
        .map(|(p, c)| {
            Binding::new()
                .with("person", p)
                .with("countryX", c)
                .with("countryY", countries[0].clone())
        })
        .collect();
    let new_person = iri(&snb::schema::person(9_999_999));
    let snb_family = Family {
        name: "snb",
        requests: vec![
            (Snb::q1_name_country(), q1),
            (Snb::q2_friend_posts(), one_param("person", &persons)),
            (Snb::q3_two_countries(), q3),
        ],
        inserts: vec![
            (persons[0].clone(), iri(snb::schema::KNOWS), new_person.clone()),
            (new_person.clone(), iri(snb::schema::KNOWS), persons[1].clone()),
            (new_person, iri(snb::schema::HAS_BEEN_IN), countries[0].clone()),
        ],
        ds: s.dataset,
    };

    let l = Lubm::generate(LubmConfig::with_scale(TRIPLES));
    let departments = l.department_iris();
    let new_prof = iri(&parambench_datagen::lubm::schema::professor(9_999_999));
    let lubm_family = Family {
        name: "lubm",
        requests: vec![
            (Lubm::q_students_of_professor(), one_param("prof", &l.professor_iris())),
            (Lubm::q_university_staff(), one_param("univ", &l.university_iris())),
            (Lubm::q_department_people(), one_param("dept", &departments)),
        ],
        inserts: vec![(
            new_prof,
            iri(parambench_datagen::lubm::schema::WORKS_FOR),
            departments[0].clone(),
        )],
        ds: l.dataset,
    };

    vec![bsbm_family, snb_family, lubm_family]
}

/// Runs the three request-path entry points for every binding — a fresh
/// engine per request, as the server builds one — and returns each
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
        for (i, binding) in bindings.iter().enumerate() {
            let name = template.name();
            let at = distinct_walks();
            Engine::new(ds).plan_class(template, binding).expect("plan class");
            record(format!("[{kind}] {name} #{i} plan_class"), at);
            let at = distinct_walks();
            Engine::new(ds).prepare_template(template, binding).expect("prepares");
            record(format!("[{kind}] {name} #{i} prepare_template"), at);
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
    for family in families() {
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
