//! Plan identity, pinned: a reduced `examples/plan_census`. Every shipped
//! template is planned over at most 64 bindings of its domain on ~10k-triple
//! BSBM, SNB and LUBM stores, one template plan per template bound per
//! binding, as profiling plans a domain. The test hashes each
//! (template, binding, signature, `est_cout` bits) line and asserts the
//! digest of them all: the paper's classes are functions of exactly those
//! values, so a change that moves any plan or any estimated cost — on
//! purpose or not — fails here, and only a change that means to move them
//! may regenerate the digest (and must say so).

use parambench::curation::ParameterDomain;
use parambench::datagen::bsbm::schema as bsbm_schema;
use parambench::datagen::{Bsbm, BsbmConfig, Lubm, LubmConfig, Snb, SnbConfig};
use parambench::rdf::{Dataset, Term};
use parambench::sparql::{Engine, QueryTemplate};

/// Store scale in triples.
const TRIPLES: usize = 10_000;
/// Bindings per template drawn from a larger domain.
const BINDINGS: usize = 64;
/// Seed of the binding draw.
const SEED: u64 = 26;

/// The FNV-1a digest of every census line, as computed when the plans
/// were last meant to change.
const DIGEST: u64 = 0xdaac_373b_f705_30f8;

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Feeds one line per (template, binding) of `cases` on `ds` to `h`;
/// returns the number of lines.
fn census(ds: &Dataset, cases: &[(QueryTemplate, ParameterDomain)], h: &mut Fnv) -> usize {
    let engine = Engine::new(ds);
    let mut lines = 0;
    for (template, domain) in cases {
        let mut plan = engine.template_plan(template).expect("plans");
        for binding in domain.enumerate(BINDINGS, SEED) {
            let prepared = plan.bind(&binding).expect("binds");
            let line = format!(
                "{}\t{binding}\t{}\t{:016x}\n",
                template.name(),
                prepared.signature,
                prepared.est_cout.to_bits()
            );
            h.write(line.as_bytes());
            lines += 1;
        }
    }
    lines
}

#[test]
fn plans_and_estimated_costs_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut lines = 0;

    let bsbm = Bsbm::generate(BsbmConfig::with_scale(TRIPLES));
    let types = ParameterDomain::single("type", bsbm.type_iris());
    let features = ParameterDomain::from_objects(
        &bsbm.dataset,
        "feature",
        &Term::iri(bsbm_schema::PRODUCT_FEATURE),
    )
    .expect("BSBM has product features");
    let type_feature = ParameterDomain::new()
        .with("type", bsbm.type_iris())
        .with("feature", features.values(0).to_vec());
    lines += census(
        &bsbm.dataset,
        &[
            (Bsbm::q2_similar_products(), ParameterDomain::single("product", bsbm.product_iris())),
            (Bsbm::q4_feature_price_by_type(), types.clone()),
            (Bsbm::q_cheapest_products_of_type(), types.clone()),
            (Bsbm::q_catalog_of_type(), types.clone()),
            (Bsbm::q_rating_by_type(), types),
            (Bsbm::q_type_feature_offers(), type_feature),
        ],
        &mut h,
    );

    let snb = Snb::generate(SnbConfig::with_scale(TRIPLES));
    lines += census(
        &snb.dataset,
        &[
            (
                Snb::q1_name_country(),
                ParameterDomain::new()
                    .with("name", snb.name_literals())
                    .with("country", snb.country_iris()),
            ),
            (Snb::q2_friend_posts(), ParameterDomain::single("person", snb.person_iris())),
            (
                Snb::q3_two_countries(),
                ParameterDomain::new()
                    .with("person", snb.person_iris())
                    .with("countryX", snb.country_iris())
                    .with("countryY", snb.country_iris()),
            ),
        ],
        &mut h,
    );

    let lubm = Lubm::generate(LubmConfig::with_scale(TRIPLES));
    lines += census(
        &lubm.dataset,
        &[
            (
                Lubm::q_students_of_professor(),
                ParameterDomain::single("prof", lubm.professor_iris()),
            ),
            (Lubm::q_university_staff(), ParameterDomain::single("univ", lubm.university_iris())),
            (Lubm::q_department_people(), ParameterDomain::single("dept", lubm.department_iris())),
        ],
        &mut h,
    );

    assert_eq!(
        h.0, DIGEST,
        "the plans or estimated costs of {lines} (template, binding) pairs moved. If that is \
         the change's purpose, set DIGEST to {:#018x}, say so in CHANGES.md, and compare \
         `examples/plan_census` output before and after to show which plans moved",
        h.0
    );
}
