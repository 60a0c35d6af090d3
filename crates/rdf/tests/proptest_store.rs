//! Property tests: the indexed store agrees with a naive triple list on
//! every access path, for arbitrary triple sets — and, under any
//! interleaving of live updates, the statistics the store maintains from
//! each delta equal a from-scratch computation over the visible triples —
//! on a heap-built, a snapshot-loaded and an overlay-carrying base.

#[path = "../../sparql/tests/common/stores.rs"]
mod stores;

use proptest::prelude::*;

use parambench_rdf::index::IndexOrder;
use parambench_rdf::stats::{CharacteristicSets, DatasetStats};
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_rdf::Id;

/// A small universe of terms so collisions/duplicates actually happen.
fn term(ix: u8) -> Term {
    match ix % 3 {
        0 => Term::iri(format!("http://t/{}", ix % 16)),
        1 => Term::literal(format!("lit{}", ix % 16)),
        _ => Term::integer((ix % 16) as i64),
    }
}

fn arb_triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120)
}

/// One encoded triple of the tiny update vocabulary.
type Triple = (u8, u8, u8);

/// 5 subjects × 3 predicates × 4 objects (half of them numeric): small
/// enough that random steps keep hitting the same subject, the same
/// `(s, p, ·)` group and the same predicate — collisions are the point.
fn tiny(t: Triple) -> (Term, Term, Term) {
    let o = t.2 % 4;
    (
        Term::iri(format!("s/{}", t.0 % 5)),
        Term::iri(format!("p/{}", t.1 % 3)),
        if o.is_multiple_of(2) { Term::integer(o as i64) } else { Term::iri(format!("o/{o}")) },
    )
}

/// One step of a random mutation interleaving.
#[derive(Debug, Clone)]
enum Step {
    Insert(Triple),
    Delete(Triple),
    InsertBatch(Vec<Triple>),
    DeleteBatch(Vec<Triple>),
    Compact,
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (any::<u8>(), any::<u8>(), any::<u8>())
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        3 => arb_triple().prop_map(Step::Insert),
        3 => arb_triple().prop_map(Step::Delete),
        2 => prop::collection::vec(arb_triple(), 0..6).prop_map(Step::InsertBatch),
        2 => prop::collection::vec(arb_triple(), 0..6).prop_map(Step::DeleteBatch),
        1 => Just(Step::Compact),
    ];
    prop::collection::vec(step, 1..24)
}

fn apply(ds: &mut Dataset, step: &Step) {
    match step {
        Step::Insert(t) => {
            let (s, p, o) = tiny(*t);
            ds.insert(s, p, o);
        }
        Step::Delete(t) => {
            let (s, p, o) = tiny(*t);
            ds.delete(&s, &p, &o);
        }
        Step::InsertBatch(ts) => {
            ds.insert_batch(ts.iter().map(|&t| tiny(t)));
        }
        Step::DeleteBatch(ts) => {
            ds.delete_batch(ts.iter().map(|&t| tiny(t)));
        }
        Step::Compact => ds.compact(),
    }
}

/// The reference: statistics and characteristic sets computed from
/// scratch over the visible PSO / SPO scans, the way `freeze` computes
/// them. Whatever the store maintains must equal this, whole.
fn assert_derived_exact(ds: &Dataset, when: &str) {
    let all = [None, None, None];
    let pso: Vec<[Id; 3]> =
        ds.scan_with(all, IndexOrder::Pso).map(|t| IndexOrder::Pso.key_of(t)).collect();
    assert_eq!(*ds.stats(), DatasetStats::compute_from_keys(&pso), "statistics {when}");
    let spo: Vec<[Id; 3]> = ds.scan_with(all, IndexOrder::Spo).collect();
    assert_eq!(
        *ds.char_sets(),
        CharacteristicSets::compute_from_keys(&spo),
        "characteristic sets {when}"
    );
    assert_distinct_counts_are_the_walks(ds, when);
}

/// The contract the estimator reads the statistics under: every distinct
/// count `DatasetStats` holds is what the galloping walk over the visible
/// extent returns — per predicate its subjects (`PSO`) and objects
/// (`POS`), globally the first key position of `SPO` / `PSO` / `OSP`.
fn assert_distinct_counts_are_the_walks(ds: &Dataset, when: &str) {
    let stats = ds.stats();
    for (p, ps) in stats.predicates() {
        assert_eq!(ps.distinct_subjects, ds.distinct_with(IndexOrder::Pso, &[p]), "{p:?} {when}");
        assert_eq!(ps.distinct_objects, ds.distinct_with(IndexOrder::Pos, &[p]), "{p:?} {when}");
    }
    assert_eq!(stats.distinct_subjects, ds.distinct_with(IndexOrder::Spo, &[]), "subjects {when}");
    assert_eq!(stats.distinct_predicates, ds.distinct_with(IndexOrder::Pso, &[]), "preds {when}");
    assert_eq!(stats.distinct_objects, ds.distinct_with(IndexOrder::Osp, &[]), "objects {when}");
}

fn builder_of(base: &[Triple]) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for &t in base {
        let (s, p, o) = tiny(t);
        b.insert(s, p, o);
    }
    b
}

/// The named edge cases of incremental maintenance, forced one by one on
/// a fixed store (the random interleavings below hit them too, but not by
/// name). After every step the whole statistics equal a from-scratch
/// compute, and the field the case is about has the value it must have.
#[test]
fn incremental_statistics_named_edge_cases() {
    let iri = |s: &str| Term::iri(s.to_string());
    let mut b = StoreBuilder::new();
    b.insert(iri("a"), iri("p"), Term::integer(1));
    b.insert(iri("a"), iri("p"), Term::integer(2));
    b.insert(iri("a"), iri("q"), Term::integer(1));
    b.insert(iri("b"), iri("p"), Term::integer(1));
    b.insert(iri("c"), iri("r"), Term::integer(9));
    for (kind, mut ds) in stores::twins(b) {
        let id = |ds: &Dataset, t: &str| ds.lookup(&iri(t)).expect("interned");
        assert_derived_exact(&ds, &format!("[{kind}] at freeze"));
        assert_eq!(ds.stats().distinct_predicates, 3);
        assert_eq!(ds.char_sets().len(), 3); // {p,q}, {p}, {r}

        // Duplicate insert / absent delete: nothing changes.
        let before = (ds.stats().clone(), ds.char_sets().clone());
        assert!(!ds.insert(iri("a"), iri("p"), Term::integer(1)));
        assert!(!ds.delete(&iri("b"), &iri("q"), &Term::integer(1)));
        assert_eq!(ds.insert_batch([(iri("a"), iri("q"), Term::integer(1))]), 0);
        assert_eq!(ds.delete_batch([(iri("zz"), iri("p"), Term::integer(1))]), 0);
        assert_eq!((ds.stats().clone(), ds.char_sets().clone()), before, "[{kind}] no-op steps");

        // One of two (a, p, ·) triples deleted: a keeps its set {p,q}, only
        // the multiplicity of p inside it drops.
        assert!(ds.delete(&iri("a"), &iri("p"), &Term::integer(2)));
        assert_derived_exact(&ds, &format!("[{kind}] after a multiplicity drop"));
        assert_eq!(ds.char_sets().len(), 3);
        assert_eq!(ds.stats().predicate(id(&ds, "p")).unwrap().distinct_subjects, 2);
        // Integer 2 was the object of that triple only.
        assert_eq!(ds.stats().distinct_objects, 2);

        // Last (a, q, ·) triple deleted: a moves from {p,q} to {p}; {p,q}
        // had one subject and is dropped; q leaves the predicate table.
        assert!(ds.delete(&iri("a"), &iri("q"), &Term::integer(1)));
        assert_derived_exact(&ds, &format!("[{kind}] after the last (s,p,·) triple"));
        assert_eq!(ds.char_sets().len(), 2);
        assert!(ds.stats().predicate(id(&ds, "q")).is_none());
        assert_eq!(ds.stats().distinct_predicates, 2);
        assert_eq!(ds.char_sets().star(&[id(&ds, "p")]).subjects, 2.0);

        // Last triple of predicate r, which is also the last triple of
        // subject c and of object 9.
        assert!(ds.delete(&iri("c"), &iri("r"), &Term::integer(9)));
        assert_derived_exact(&ds, &format!("[{kind}] after the last triple of a predicate"));
        assert!(ds.stats().predicate(id(&ds, "r")).is_none());
        assert_eq!(ds.stats().distinct_predicates, 1);
        assert_eq!(ds.stats().distinct_subjects, 2);
        assert_eq!(ds.stats().distinct_objects, 1);
        assert_eq!(ds.char_sets().len(), 1);

        // Tombstone lift: the deleted base triple comes back.
        let dels = ds.overlay().dels_len();
        assert!(ds.insert(iri("c"), iri("r"), Term::integer(9)));
        assert_eq!(ds.overlay().dels_len(), dels - 1, "[{kind}] the tombstone is lifted");
        assert_derived_exact(&ds, &format!("[{kind}] after a tombstone lift"));
        assert_eq!(ds.stats().distinct_predicates, 2);
        assert_eq!(ds.stats().distinct_subjects, 3);

        // Last triple of a subject deleted (its predicate lives on).
        assert!(ds.delete(&iri("b"), &iri("p"), &Term::integer(1)));
        assert_derived_exact(&ds, &format!("[{kind}] after the last triple of a subject"));
        assert_eq!(ds.stats().distinct_subjects, 2);
        assert_eq!(ds.stats().predicate(id(&ds, "p")).unwrap().distinct_subjects, 1);

        // Overflow terms (subject, predicate and object all new) added,
        // then deleted again: back to the statistics before them.
        let before = (ds.stats().clone(), ds.char_sets().clone());
        let frozen = ds.frozen_terms();
        assert!(ds.insert(iri("new/s"), iri("new/p"), iri("new/o")));
        assert!(id(&ds, "new/p").index() >= frozen);
        assert_derived_exact(&ds, &format!("[{kind}] after an overflow insert"));
        assert_eq!(ds.stats().distinct_predicates, 3);
        assert!(ds.delete(&iri("new/s"), &iri("new/p"), &iri("new/o")));
        assert_derived_exact(&ds, &format!("[{kind}] after the overflow delete"));
        assert_eq!((ds.stats().clone(), ds.char_sets().clone()), before);

        // Compaction re-freezes: still exact, nothing pending.
        ds.compact();
        assert!(ds.overlay().is_empty());
        assert_derived_exact(&ds, &format!("[{kind}] after compact"));
    }
}

/// `compact()` + `save` of a mutated store writes the bytes a from-scratch
/// freeze of its visible triples writes (every term still in use, so both
/// dictionaries hold the same terms): statistics sections included.
#[test]
fn compacted_store_saves_the_bytes_of_a_from_scratch_freeze() {
    let base: Vec<Triple> = (0..40u8).map(|i| (i, i / 2, i / 3)).collect();
    let saved = |ds: &Dataset, tag: &str| {
        let path = std::env::temp_dir()
            .join(format!("parambench-propstore-{}-{tag}.pbsnap", std::process::id()));
        ds.save(&path).expect("a compacted store saves");
        let bytes = std::fs::read(&path).expect("reads back");
        std::fs::remove_file(&path).ok();
        bytes
    };
    let mut ds = builder_of(&base).freeze();
    // Its three terms all stay in use by other base triples.
    assert_eq!(ds.delete_batch([tiny(base[0])]), 1);
    assert!(ds.insert_batch((0..15u8).map(|i| tiny((i, i, i)))) > 0);
    ds.compact();
    let mut scratch = StoreBuilder::new();
    for [s, p, o] in ds.scan([None, None, None]) {
        scratch.insert(ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone());
    }
    let scratch = scratch.freeze();
    assert_eq!(scratch.dict().len(), ds.dict().len(), "no term was orphaned");
    assert_eq!(saved(&ds, "compacted"), saved(&scratch, "scratch"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental = from-scratch, at every step of a random interleaving
    /// of `insert` / `delete` / `insert_batch` / `delete_batch` / `compact`
    /// — and replaying the captured `LoggedOp`s onto a clone of the
    /// pre-mutation store arrives at the same statistics.
    #[test]
    fn incremental_statistics_equal_from_scratch_at_every_step(
        base in prop::collection::vec(arb_triple(), 0..30),
        steps in arb_steps(),
    ) {
        for (kind, mut ds) in stores::twins(builder_of(&base)) {
            assert_derived_exact(&ds, &format!("[{kind}] at freeze"));
            let mut replayed = ds.clone();
            ds.begin_update_log();
            for (i, step) in steps.iter().enumerate() {
                apply(&mut ds, step);
                assert_derived_exact(&ds, &format!("[{kind}] after step {i} {step:?}"));
            }
            for op in &ds.take_update_log() {
                replayed.apply_logged(op);
            }
            assert_derived_exact(&replayed, &format!("[{kind}] after replay"));
            prop_assert_eq!(replayed.stats(), ds.stats(), "[{}] replayed statistics", kind);
            prop_assert_eq!(replayed.char_sets(), ds.char_sets(), "[{}] replayed sets", kind);
            prop_assert_eq!(replayed.len(), ds.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_and_count_agree_with_naive(triples in arb_triples(), mask in 0u8..8) {
        let mut builder = StoreBuilder::new();
        let mut naive: Vec<(Term, Term, Term)> = Vec::new();
        for &(s, p, o) in &triples {
            let (s, p, o) = (term(s), term(p), term(o));
            builder.insert(s.clone(), p.clone(), o.clone());
            naive.push((s, p, o));
        }
        naive.sort();
        naive.dedup();
        let ds = builder.freeze();
        prop_assert_eq!(ds.len(), naive.len());

        // Pick pattern constants from the data (or a missing term).
        let (ps, pp, po) = naive.first().cloned().unwrap_or((
            Term::iri("http://none"),
            Term::iri("http://none"),
            Term::iri("http://none"),
        ));
        let want_s = (mask & 1 != 0).then_some(ps);
        let want_p = (mask & 2 != 0).then_some(pp);
        let want_o = (mask & 4 != 0).then_some(po);

        let pattern = [
            want_s.as_ref().map(|t| ds.lookup(t)).unwrap_or(None).or(
                if want_s.is_some() { Some(parambench_rdf::Id(u32::MAX - 1)) } else { None }),
            want_p.as_ref().map(|t| ds.lookup(t)).unwrap_or(None).or(
                if want_p.is_some() { Some(parambench_rdf::Id(u32::MAX - 1)) } else { None }),
            want_o.as_ref().map(|t| ds.lookup(t)).unwrap_or(None).or(
                if want_o.is_some() { Some(parambench_rdf::Id(u32::MAX - 1)) } else { None }),
        ];

        let expected = naive
            .iter()
            .filter(|(s, p, o)| {
                want_s.as_ref().is_none_or(|w| w == s)
                    && want_p.as_ref().is_none_or(|w| w == p)
                    && want_o.as_ref().is_none_or(|w| w == o)
            })
            .count();
        prop_assert_eq!(ds.count(pattern), expected);
        prop_assert_eq!(ds.scan(pattern).count(), expected);
        prop_assert_eq!(ds.contains(pattern), expected > 0);
    }

    #[test]
    fn scans_return_matching_unique_triples(triples in arb_triples()) {
        let mut builder = StoreBuilder::new();
        for &(s, p, o) in &triples {
            builder.insert(term(s), term(p), term(o));
        }
        let ds = builder.freeze();
        let mut seen = std::collections::BTreeSet::new();
        for t in ds.scan([None, None, None]) {
            prop_assert!(seen.insert(t), "duplicate triple from scan");
        }
        prop_assert_eq!(seen.len(), ds.len());
    }

    #[test]
    fn stats_totals_match(triples in arb_triples()) {
        let mut builder = StoreBuilder::new();
        for &(s, p, o) in &triples {
            builder.insert(term(s), term(p), term(o));
        }
        let ds = builder.freeze();
        let stats = ds.stats();
        prop_assert_eq!(stats.total_triples, ds.len());
        let sum: usize = stats.predicates().map(|(_, s)| s.triples).sum();
        prop_assert_eq!(sum, ds.len());
        for (p, s) in stats.predicates() {
            prop_assert_eq!(s.triples, ds.count([None, Some(p), None]));
            prop_assert!(s.distinct_subjects <= s.triples);
            prop_assert!(s.distinct_objects <= s.triples);
            prop_assert!(s.distinct_subjects >= 1);
        }
    }

    #[test]
    fn ntriples_round_trip(triples in arb_triples()) {
        let mut builder = StoreBuilder::new();
        for &(s, p, o) in &triples {
            builder.insert(term(s), term(p), term(o));
        }
        let ds = builder.freeze();
        let mut buf = Vec::new();
        parambench_rdf::ntriples::write_dataset(&ds, &mut buf).unwrap();
        let mut b2 = StoreBuilder::new();
        parambench_rdf::ntriples::read_into(std::io::Cursor::new(&buf), &mut b2).unwrap();
        let ds2 = b2.freeze();
        prop_assert_eq!(ds2.len(), ds.len());
    }
}
