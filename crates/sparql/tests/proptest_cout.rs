//! Property test of measured `Cout` by counting (`sparql::cout`): on random
//! stores — heap-built, snapshot-loaded and overlay-carrying twins — random
//! basic graph patterns measured through `Engine::measure_cout` must report
//! exactly the `Cout` an execution of the same prepared query reports.
//!
//! Variables come from one namespace across subject, predicate and object,
//! and subjects and objects from one vocabulary, so the draws hold chains
//! (`?a p ?b . ?c q ?b . ?c r ?d`, LDBC-Q2's shape), stars, repeated
//! variables (`?a p ?a`), cross products and cycles (`?a p ?b . ?b q ?a`).
//! Each drawn BGP is a template: it is measured under four bindings of its
//! constants through one set of count tables per store, as profiling
//! measures a domain, so a memoised message served to the wrong binding
//! shows as a wrong count. Over the run both the counted path and the
//! fallback (a cyclic BGP, an early-stopping LIMIT) must have run.

#[path = "common/stores.rs"]
mod stores;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use parambench_rdf::store::StoreBuilder;
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::{parse_query, CoutTables};

/// Terms of the subject / object vocabulary.
const NODES: u8 = 6;
/// Predicates.
const PREDS: u8 = 3;
/// Variables of the one namespace.
const VARS: u8 = 4;
/// Random stores drawn; each carries one drawn template.
const CASES: u64 = 300;
/// Bindings each template is measured under.
const BINDINGS: u8 = 4;

/// A store over `NODES` nodes and `PREDS` predicates; a few triples name a
/// predicate as their object, so a predicate variable can join an object.
fn dataset(triples: &[(u8, u8, u8)]) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for &(s, p, o) in triples {
        let object = if o % 8 == 7 {
            Term::iri(format!("p/{}", o % PREDS))
        } else {
            Term::iri(format!("n/{}", o % NODES))
        };
        b.insert(
            Term::iri(format!("n/{}", s % NODES)),
            Term::iri(format!("p/{}", p % PREDS)),
            object,
        );
    }
    b
}

/// One position of a drawn pattern.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Var(u8),
    Const(u8),
}

impl Pos {
    /// The position's text under binding `k`: every constant shifts by `k`.
    fn render(self, kind: &str, modulus: u8, k: u8) -> String {
        match self {
            Pos::Var(v) => format!("?x{v}"),
            Pos::Const(c) => format!("<{kind}/{}>", (c % modulus + k) % modulus),
        }
    }
}

/// A variable in `fifths` of the draws out of five, else a constant.
fn arb_pos(fifths: u8) -> impl Strategy<Value = Pos> {
    (0u8..5, 0..VARS, any::<u8>())
        .prop_map(move |(r, v, c)| if r < fifths { Pos::Var(v) } else { Pos::Const(c) })
}

fn arb_pattern() -> impl Strategy<Value = [Pos; 3]> {
    (arb_pos(4), arb_pos(1), arb_pos(3)).prop_map(|(s, p, o)| [s, p, o])
}

/// The query text of `patterns` under binding `k`.
fn render(patterns: &[[Pos; 3]], limit: Option<u8>, k: u8) -> String {
    let mut text = String::from("SELECT * WHERE { ");
    for [s, p, o] in patterns {
        text.push_str(&format!(
            "{} {} {} . ",
            s.render("n", NODES, k),
            p.render("p", PREDS, k),
            o.render("n", NODES, k)
        ));
    }
    text.push('}');
    if let Some(l) = limit {
        text.push_str(&format!(" LIMIT {l}"));
    }
    text
}

#[test]
fn counted_cout_equals_execute_on_random_bgps() {
    let triples = prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..45);
    let patterns = prop::collection::vec(arb_pattern(), 1..5);
    let limit = prop_oneof![6 => Just(None), 1 => (0u8..6).prop_map(Some)];
    let (mut counted, mut fallback) = (0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::for_case("counted_cout_equals_execute_on_random_bgps", case);
        let (triples, patterns, limit) =
            (triples.generate(&mut rng), patterns.generate(&mut rng), limit.generate(&mut rng));
        for (kind, ds) in stores::twins(dataset(&triples)) {
            let engine = Engine::new(&ds);
            let mut tables = CoutTables::new(&ds);
            for k in 0..BINDINGS {
                let text = render(&patterns, limit, k);
                let query = parse_query(&text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
                let prepared = engine.prepare(&query).unwrap_or_else(|e| panic!("{text}: {e}"));
                let out = engine.execute(&prepared).unwrap_or_else(|e| panic!("{text}: {e}"));
                let cout = engine
                    .measure_cout(&prepared, &mut tables)
                    .unwrap_or_else(|e| panic!("measure_cout {text}: {e}"));
                assert_eq!(cout, out.cout, "[{kind}] case {case}: {text}");
            }
            counted += tables.counted();
            fallback += tables.fallback();
        }
    }
    assert!(counted > 0, "no BGP was counted");
    assert!(fallback > 0, "no BGP ran its plan");
}
