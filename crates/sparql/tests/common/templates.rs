//! The twelve shipped templates on their generators' stores, each with four
//! bindings spread over its parameter domain — the request mix the
//! per-template suites sweep. Included by `#[path]`.

#![allow(dead_code)]

use parambench_datagen::bsbm::{self, Bsbm, BsbmConfig};
use parambench_datagen::lubm::{self, Lubm, LubmConfig};
use parambench_datagen::snb::{self, Snb, SnbConfig};
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;
use parambench_sparql::template::{Binding, QueryTemplate};

/// One generator family: its store, its templates with a few bindings each
/// spread over the parameter domain, and a write batch over predicates
/// those templates read.
pub struct Family {
    pub name: &'static str,
    pub ds: Dataset,
    pub requests: Vec<(QueryTemplate, Vec<Binding>)>,
    pub inserts: Vec<(Term, Term, Term)>,
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

/// The BSBM, SNB and LUBM families, each generated at `triples` scale.
pub fn families(triples: usize) -> Vec<Family> {
    let iri = |s: &str| Term::iri(s.to_string());

    let b = Bsbm::generate(BsbmConfig::with_scale(triples));
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

    let s = Snb::generate(SnbConfig::with_scale(triples));
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

    let l = Lubm::generate(LubmConfig::with_scale(triples));
    let departments = l.department_iris();
    let new_prof = iri(&lubm::schema::professor(9_999_999));
    let lubm_family = Family {
        name: "lubm",
        requests: vec![
            (Lubm::q_students_of_professor(), one_param("prof", &l.professor_iris())),
            (Lubm::q_university_staff(), one_param("univ", &l.university_iris())),
            (Lubm::q_department_people(), one_param("dept", &departments)),
        ],
        inserts: vec![(new_prof, iri(lubm::schema::WORKS_FOR), departments[0].clone())],
        ds: l.dataset,
    };

    vec![bsbm_family, snb_family, lubm_family]
}
