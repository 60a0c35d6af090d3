//! Plan explorer for LDBC Q3 (the paper's E4): show how the Cout-optimal
//! plan flips with the country-pair parameters.
//!
//! "the optimal plan [...] can start either with finding all the friends
//! within two steps from the given person, or from all the people that have
//! been to countries X and Y: if X and Y are Finland and Zimbabwe, there
//! are supposedly very few people that have been to both, but if X and Y
//! are USA and Canada, this intersection is very large."
//!
//! ```text
//! cargo run --release --example plan_explorer
//! ```

use parambench::datagen::snb::schema;
use parambench::datagen::{Snb, SnbConfig};
use parambench::rdf::Term;
use parambench::sparql::{Binding, Engine};

fn main() {
    let snb = Snb::generate(SnbConfig::with_scale(120_000));
    let engine = Engine::new(&snb.dataset);
    let template = Snb::q3_two_countries();

    let person = Term::iri(schema::person(0));
    let pairs = [
        ("USA", "Canada"),
        ("USA", "UK"),
        ("Germany", "France"),
        ("Finland", "Zimbabwe"),
        ("Chile", "Norway"),
        ("China", "Zimbabwe"),
    ];

    println!("LDBC Q3 optimal plans by country pair (person fixed):\n");
    let mut signatures = std::collections::BTreeMap::new();
    for (x, y) in pairs {
        let binding = Binding::new()
            .with("person", person.clone())
            .with("countryX", Term::iri(schema::country(x)))
            .with("countryY", Term::iri(schema::country(y)));
        let prepared = engine.prepare_template(&template, &binding).unwrap();
        let out = engine.execute(&prepared).unwrap();
        // est_result_card is the modifier-aware row estimate; printing it
        // next to the real row count makes the estimator inspectable.
        println!(
            "{x:>8} + {y:<9} plan {:<40} est Cout {:>12.1}  measured Cout {:>8}  \
             est rows {:>8.1}  rows {:>4}",
            prepared.signature.to_string(),
            prepared.est_cout,
            out.cout,
            prepared.est_result_card,
            out.results.len()
        );
        signatures
            .entry(prepared.signature.to_string())
            .or_insert_with(Vec::new)
            .push(format!("{x}+{y}"));
    }

    println!("\ndistinct optimal plans: {}", signatures.len());
    for (sig, pairs) in &signatures {
        println!("  {sig}  <-  {}", pairs.join(", "));
    }

    // Show the full EXPLAIN for the two extreme pairs — logical plan plus
    // the physical rendering: one line per operator with the chosen join
    // method (hash/bind), the scanned index and the delivered order.
    for (x, y) in [("USA", "Canada"), ("Finland", "Zimbabwe")] {
        let binding = Binding::new()
            .with("person", person.clone())
            .with("countryX", Term::iri(schema::country(x)))
            .with("countryY", Term::iri(schema::country(y)));
        let prepared = engine.prepare_template(&template, &binding).unwrap();
        println!("\nEXPLAIN {x}+{y}:\n{}", prepared.explain());
        println!("PHYSICAL {x}+{y}:\n{}", engine.explain_physical(&prepared));
    }

    // Order-aware execution on the BSBM side: an ORDER-BY-matching-index
    // template whose sort the engine eliminates behind the delivered
    // order, visible in the physical EXPLAIN's trailing `sort:` line.
    use parambench::datagen::{Bsbm, BsbmConfig};
    let bsbm = Bsbm::generate(BsbmConfig::with_scale(60_000));
    let bsbm_engine = Engine::new(&bsbm.dataset);
    let catalog = Bsbm::q_catalog_of_type();
    let binding =
        Binding::new().with("type", Term::iri(parambench::datagen::bsbm::schema::product_type(0)));
    let prepared = bsbm_engine.prepare_template(&catalog, &binding).unwrap();
    let out = bsbm_engine.execute(&prepared).unwrap();
    println!(
        "\nBSBM catalog-of-type (ORDER BY matching the index; sorted_rows = {}):\n{}",
        out.stats.sorted_rows,
        bsbm_engine.explain_physical(&prepared)
    );
}
