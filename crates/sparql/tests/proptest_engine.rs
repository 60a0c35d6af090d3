//! Property tests of the query engine:
//!
//! * end-to-end BGP evaluation equals a naive nested-loop evaluator on
//!   random data and random queries — the strongest correctness property
//!   of the executor (covering hash joins, bind joins and their adaptive
//!   selection);
//! * a template plan of a random BGP with random predicates and objects
//!   made parameters, bound across several bindings, plans each binding
//!   bit for bit as a cold plan of the instantiated query does.

use std::collections::BTreeMap;

use proptest::prelude::*;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::plan::{PlannedPattern, Slot};
use parambench_sparql::template::{Binding, QueryTemplate};

/// Builds a random dataset over small vocabularies.
fn dataset(triples: &[(u8, u8, u8)]) -> Dataset {
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

/// A random triple pattern description: (subject var, predicate index,
/// object choice). Object: var id or a constant.
#[derive(Debug, Clone)]
struct PatternSpec {
    s_var: u8,
    pred: u8,
    obj: Result<u8, u8>, // Ok(var), Err(const)
}

fn arb_pattern() -> impl Strategy<Value = PatternSpec> {
    (0u8..4, 0u8..4, prop_oneof![(0u8..4).prop_map(Ok), (0u8..12).prop_map(Err)])
        .prop_map(|(s_var, pred, obj)| PatternSpec { s_var, pred, obj })
}

fn lower(ds: &Dataset, specs: &[PatternSpec]) -> Vec<PlannedPattern> {
    specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let pred = ds.lookup(&Term::iri(format!("p/{}", spec.pred)));
            let p_slot = match pred {
                Some(id) => Slot::Bound(id),
                None => Slot::Absent,
            };
            let o_slot = match spec.obj {
                Ok(v) => Slot::Var(4 + v as usize),
                Err(c) => match ds.lookup(&Term::iri(format!("o/{c}"))) {
                    Some(id) => Slot::Bound(id),
                    None => Slot::Absent,
                },
            };
            PlannedPattern { idx, slots: [Slot::Var(spec.s_var as usize), p_slot, o_slot] }
        })
        .collect()
}

/// Naive evaluation: nested loops over full triple list, accumulating
/// consistent variable assignments. Returns sorted rows keyed by var slot.
fn naive_eval(
    ds: &Dataset,
    patterns: &[PlannedPattern],
) -> Vec<BTreeMap<usize, parambench_rdf::Id>> {
    let all: Vec<[parambench_rdf::Id; 3]> = ds.scan([None, None, None]).collect();
    let mut results: Vec<BTreeMap<usize, parambench_rdf::Id>> = vec![BTreeMap::new()];
    for pat in patterns {
        let mut next = Vec::new();
        for partial in &results {
            for t in &all {
                let mut candidate = partial.clone();
                let mut ok = true;
                for (pos, slot) in pat.slots.iter().enumerate() {
                    match slot {
                        Slot::Bound(id) => {
                            if t[pos] != *id {
                                ok = false;
                                break;
                            }
                        }
                        Slot::Absent => {
                            ok = false;
                            break;
                        }
                        Slot::Var(v) => match candidate.get(v) {
                            Some(&bound) => {
                                if bound != t[pos] {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                candidate.insert(*v, t[pos]);
                            }
                        },
                    }
                }
                if ok {
                    next.push(candidate);
                }
            }
        }
        results = next;
    }
    results.sort();
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_naive_evaluator(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..60),
        specs in prop::collection::vec(arb_pattern(), 1..4),
    ) {
        let ds = dataset(&triples);
        let engine = Engine::new(&ds);

        // Build query text: SELECT * over the patterns.
        let mut body = String::new();
        for spec in &specs {
            let obj = match spec.obj {
                Ok(v) => format!("?v{v}"),
                Err(c) => format!("<o/{c}>"),
            };
            body.push_str(&format!("?s{} <p/{}> {obj} . ", spec.s_var, spec.pred));
        }
        let text = format!("SELECT * WHERE {{ {body} }}");
        let out = engine.run_text(&text).unwrap();

        // Naive evaluation over lowered patterns.
        let patterns = lower(&ds, &specs);
        let naive = naive_eval(&ds, &patterns);

        prop_assert_eq!(out.results.len(), naive.len(), "row count mismatch for {}", text);

        // Compare full rows: map engine columns back to var slots.
        let col_slot: Vec<usize> = out.results.columns.iter().map(|c| {
            if let Some(v) = c.strip_prefix('s') { v.parse::<usize>().unwrap() }
            else { 4 + c.strip_prefix('v').unwrap().parse::<usize>().unwrap() }
        }).collect();
        let mut got: Vec<BTreeMap<usize, parambench_rdf::Id>> = out
            .results
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&col_slot)
                    .map(|(val, &slot)| {
                        let term = val.as_term().expect("BGP results are terms");
                        (slot, ds.lookup(term).expect("term from dataset"))
                    })
                    .collect()
            })
            .collect();
        got.sort();
        prop_assert_eq!(got, naive, "rows mismatch for {}", text);
    }

    #[test]
    fn bound_template_plans_match_cold_plans(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..60),
        specs in prop::collection::vec(arb_pattern(), 1..6),
        params in any::<u16>(),
        values in prop::collection::vec((0u8..5, 0u8..14), 4),
    ) {
        let ds = dataset(&triples);
        let engine = Engine::new(&ds);
        // Bit 2i makes pattern i's predicate a parameter, bit 2i+1 its
        // constant object.
        let mut body = String::new();
        for (i, spec) in specs.iter().enumerate() {
            let pred = if params >> (2 * i) & 1 == 1 {
                format!("%p{i}")
            } else {
                format!("<p/{}>", spec.pred)
            };
            let obj = match spec.obj {
                Ok(v) => format!("?v{v}"),
                Err(_) if params >> (2 * i + 1) & 1 == 1 => format!("%o{i}"),
                Err(c) => format!("<o/{c}>"),
            };
            body.push_str(&format!("?s{} {pred} {obj} . ", spec.s_var));
        }
        let template =
            QueryTemplate::parse("RANDOM", &format!("SELECT * WHERE {{ {body} }}")).unwrap();
        let mut plan = engine.template_plan(&template).unwrap();
        // `p/4`, `o/12` and `o/13` never occur: those parameters plan as
        // absent constants.
        for &(p, o) in &values {
            let binding = Binding::from_pairs(template.params().iter().map(|name| {
                let i: usize = name[1..].parse().unwrap();
                let term = if name.starts_with('p') {
                    Term::iri(format!("p/{}", (p as usize + i) % 5))
                } else {
                    Term::iri(format!("o/{}", (o as usize + i) % 14))
                };
                (name.clone(), term)
            }));
            let bound = plan.bind(&binding).unwrap();
            let cold = engine.prepare(&template.instantiate(&binding).unwrap()).unwrap();
            prop_assert_eq!(&bound.signature, &cold.signature, "{} {}", body, binding);
            prop_assert_eq!(bound.est_cout.to_bits(), cold.est_cout.to_bits());
            prop_assert_eq!(bound.est_card.to_bits(), cold.est_card.to_bits());
            prop_assert_eq!(bound.est_result_card.to_bits(), cold.est_result_card.to_bits());
            prop_assert_eq!(bound.explain(), cold.explain());
            prop_assert_eq!(engine.explain_physical(&bound), engine.explain_physical(&cold));
        }
    }
}
