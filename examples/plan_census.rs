//! Plan census: the optimizer's choice and the physical plan for every
//! binding of a fixed, spread set of (template, binding) pairs.
//!
//! Prints one line per (template, binding): the plan signature, the bit
//! pattern of the estimated `Cout`, then the physical EXPLAIN with its
//! lines joined by ` | `. The output is deterministic, so two builds plan
//! identically exactly when their outputs are byte-identical:
//!
//! ```text
//! cargo run --release --example plan_census > census.txt
//! cmp census-before.txt census-after.txt
//! ```
//!
//! The plan columns alone (template, binding, signature, `est_cout` bits:
//! `cut -f1-4`) come from the `Cout` DP; a change to the physical pass only
//! must leave them byte-identical, and may move the EXPLAIN column.
//!
//! The set covers every shipped template: the BSBM templates over all
//! product types, 512 spread products and 512 type × feature pairs; SNB-Q1
//! over 512 name × country pairs; LDBC-Q2 over 512 persons and LDBC-Q3
//! over 512 person × country-pair bindings; the LUBM templates over their
//! whole domains (at most 512 bindings each).
//!
//! Stderr gets two lines per template: how many of its bindings recorded
//! each morsel, fold, dedup and sort strategy (`PhysicalPlan::morselized`,
//! `fold`, `dedup`, `sort`), then how many had their measured `Cout`
//! counted and how many ran their plan, and how many lookups of memoised
//! subtree messages the counting made and how many of them hit
//! (`cout: counted N / fallback M, memo hits H / lookups L`, measured
//! through one `CoutTables` per template, as profiling measures a domain).
//! Each template is planned once and bound per binding, as profiling
//! plans a domain. It is the evidence for keeping or deleting a
//! specialised strategy, and it leaves stdout `cmp`-able:
//!
//! ```text
//! cargo run --release --example plan_census 2>&1 >/dev/null | grep LDBC-Q3
//! ```
//!
//! An optional argument sets the store scale in triples (default 150 000,
//! the benchmark's full scale). The `analytic` workload's 4× stores are
//! the only ones where plans run over morsels:
//!
//! ```text
//! cargo run --release --example plan_census -- 600000 | grep -c Morsels
//! ```

use std::collections::BTreeMap;

use parambench::curation::ParameterDomain;
use parambench::datagen::bsbm::schema as bsbm_schema;
use parambench::datagen::{Bsbm, BsbmConfig, Lubm, LubmConfig, Snb, SnbConfig};
use parambench::rdf::{Dataset, Term};
use parambench::sparql::{CoutTables, Engine, ExecConfig, QueryTemplate};

/// Default store scale of every generated dataset (the benchmark's full
/// scale).
const TRIPLES: usize = 150_000;
/// Bindings per template drawn from a domain larger than this.
const BINDINGS: usize = 512;
/// Seed of the binding draw.
const SEED: u64 = 26;

fn census(ds: &Dataset, cases: &[(QueryTemplate, ParameterDomain)]) {
    let exec = ExecConfig { mem_budget_rows: None, ..ExecConfig::default() };
    let engine = Engine::with_exec_config(ds, exec);
    for (template, domain) in cases {
        // Recorded strategy → bindings that recorded it.
        let mut tally: BTreeMap<String, usize> = BTreeMap::new();
        let mut tables = CoutTables::new(ds);
        let mut template_plan =
            engine.template_plan(template).unwrap_or_else(|e| panic!("{}: {e}", template.name()));
        for binding in domain.enumerate(BINDINGS, SEED) {
            let prepared = template_plan
                .bind(&binding)
                .unwrap_or_else(|e| panic!("{} {binding}: {e}", template.name()));
            let plan = engine.physical_plan(&prepared, &exec);
            engine
                .measure_cout_with(&plan, &exec, &mut tables)
                .unwrap_or_else(|e| panic!("{} {binding}: {e}", template.name()));
            let fold = plan.fold.map_or_else(|| "none".to_string(), |f| format!("{f:?}"));
            for strategy in [
                format!("morsels: {}", plan.morselized),
                format!("fold: {fold}"),
                format!("dedup: {:?}", plan.dedup),
                format!("sort: {:?}", plan.sort),
            ] {
                *tally.entry(strategy).or_default() += 1;
            }
            println!(
                "{}\t{binding}\t{}\t{:016x}\t{}",
                template.name(),
                prepared.signature,
                prepared.est_cout.to_bits(),
                plan.render().trim_end().replace('\n', " | ")
            );
        }
        let counts: Vec<String> = tally.iter().map(|(s, n)| format!("{s} ×{n}")).collect();
        eprintln!("{}\t{}", template.name(), counts.join(", "));
        let (counted, fallback) = (tables.counted(), tables.fallback());
        let (hits, lookups) = (tables.memo_hits(), tables.memo_lookups());
        eprintln!(
            "{}\tcout: counted {counted} / fallback {fallback}, memo hits {hits} / lookups {lookups}",
            template.name()
        );
    }
}

fn main() {
    let triples = match std::env::args().nth(1) {
        None => TRIPLES,
        Some(arg) => arg.parse().unwrap_or_else(|_| panic!("triple count expected, got {arg:?}")),
    };
    let bsbm = Bsbm::generate(BsbmConfig::with_scale(triples));
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
    census(
        &bsbm.dataset,
        &[
            (Bsbm::q2_similar_products(), ParameterDomain::single("product", bsbm.product_iris())),
            (Bsbm::q4_feature_price_by_type(), types.clone()),
            (Bsbm::q_cheapest_products_of_type(), types.clone()),
            (Bsbm::q_catalog_of_type(), types.clone()),
            (Bsbm::q_rating_by_type(), types),
            (Bsbm::q_type_feature_offers(), type_feature),
        ],
    );

    let snb = Snb::generate(SnbConfig::with_scale(triples));
    census(
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
    );

    let lubm = Lubm::generate(LubmConfig::with_scale(triples));
    census(
        &lubm.dataset,
        &[
            (
                Lubm::q_students_of_professor(),
                ParameterDomain::single("prof", lubm.professor_iris()),
            ),
            (Lubm::q_university_staff(), ParameterDomain::single("univ", lubm.university_iris())),
            (Lubm::q_department_people(), ParameterDomain::single("dept", lubm.department_iris())),
        ],
    );
}
