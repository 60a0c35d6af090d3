//! Property tests of the dictionary's term → id lookup: on a built, a
//! snapshot-loaded, a cloned-then-extended and a compacted store,
//! `lookup` equals a `HashMap` oracle of `iter()` for every frozen term,
//! every overflow term and terms the dictionary does not hold — and a
//! snapshot whose term blob repeats a term is refused on load.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;

use parambench_rdf::format::{
    checksum, decode_header_and_table, encode_header_and_table, SnapshotError, SEC_TERM_BLOB,
};
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::{Literal, Term};
use parambench_rdf::Id;

/// A universe of terms of every kind, with string lengths on both sides
/// of the hasher's eight-byte word boundary.
fn term(ix: u16) -> Term {
    let n = ix % 97;
    match ix % 7 {
        0 => Term::iri(format!("http://t/{n}")),
        1 => Term::iri(format!(
            "http://example.org/a/rather/long/iri/{}",
            "x".repeat(n as usize % 19)
        )),
        2 => Term::literal(format!("lit{n}")),
        3 => Term::Literal(Literal::lang(
            format!("word{n}"),
            if n.is_multiple_of(2) { "en" } else { "de" },
        )),
        4 => Term::integer(n as i64 - 40),
        5 => Term::double(n as f64 / 8.0),
        _ => Term::Blank(format!("b{n}")),
    }
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parambench-termindex-{}-{name}", std::process::id()))
}

/// `lookup` agrees with an oracle built from `iter()` on every held term
/// and on every probe term, held or not.
fn assert_lookup_is_the_oracle(ds: &Dataset, probes: &[Term], when: &str) {
    let dict = ds.dict();
    let oracle: HashMap<&Term, Id> = dict.iter().map(|(id, t)| (t, id)).collect();
    assert_eq!(oracle.len(), dict.len(), "{when}: iter() yields distinct terms");
    for (&t, &id) in &oracle {
        assert_eq!(dict.lookup(t), Some(id), "{when}: held term {t:?}");
    }
    for t in probes {
        assert_eq!(dict.lookup(t), oracle.get(t).copied(), "{when}: probe {t:?}");
    }
}

fn store_of(triples: &[(u16, u16, u16)]) -> Dataset {
    let mut b = StoreBuilder::new();
    for &(s, p, o) in triples {
        b.insert(term(s), Term::iri(format!("http://p/{}", p % 5)), term(o));
    }
    b.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookup_equals_a_hashmap_oracle_on_every_store_shape(
        base in prop::collection::vec((0u16..700, 0u16..700, 0u16..700), 0..80),
        extra in prop::collection::vec((0u16..1400, 0u16..1400, 0u16..1400), 0..20),
        probe_ixs in prop::collection::vec(0u16..1400, 0..40),
    ) {
        let mut probes: Vec<Term> = probe_ixs.iter().map(|&i| term(i)).collect();
        probes.push(Term::iri("http://absent/never-interned"));
        probes.push(Term::literal(""));

        let built = store_of(&base);
        assert_lookup_is_the_oracle(&built, &probes, "built");

        let path = temp("lookup.pbsnap");
        built.save(&path).expect("saves");
        let loaded = Dataset::load(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_lookup_is_the_oracle(&loaded, &probes, "loaded");
        for (id, t) in built.dict().iter() {
            prop_assert_eq!(loaded.lookup(t), Some(id));
        }

        // A clone interns new terms into its overflow region; the store it
        // was cloned from keeps answering from the shared frozen region.
        let mut extended = loaded.clone();
        for &(s, p, o) in &extra {
            extended.insert(term(s), Term::iri(format!("http://p/{}", p % 7)), term(o));
        }
        assert_lookup_is_the_oracle(&extended, &probes, "cloned then encoded");
        assert_lookup_is_the_oracle(&loaded, &probes, "the clone's source");
        for (_, t) in extended.dict().iter().skip(loaded.dict().len()) {
            prop_assert_eq!(loaded.lookup(t), None);
        }

        extended.compact();
        prop_assert_eq!(extended.dict().frozen_len(), extended.dict().len());
        assert_lookup_is_the_oracle(&extended, &probes, "compacted");
    }
}

/// A term blob that repeats a term is a corrupt snapshot even when every
/// checksum matches: `Dictionary::from_parts` rejects the duplicate.
#[test]
fn a_snapshot_repeating_a_term_is_refused() {
    let mut b = StoreBuilder::new();
    b.insert(Term::iri("http://e/a"), Term::iri("http://e/p"), Term::iri("http://e/b"));
    let path = temp("duplicate.pbsnap");
    b.freeze().save(&path).expect("saves");
    let mut bytes = std::fs::read(&path).expect("reads back");
    std::fs::remove_file(&path).ok();

    // Rewrite `http://e/b` as `http://e/a` in the blob, then re-seal the
    // blob's checksum and the table's so only the duplicate is wrong.
    let mut table = decode_header_and_table(&bytes).expect("valid header");
    let blob = table.iter_mut().find(|e| e.kind == SEC_TERM_BLOB).expect("a term blob");
    let range = blob.offset as usize..(blob.offset + blob.len) as usize;
    let at = bytes[range.clone()]
        .windows(10)
        .position(|w| w == b"http://e/b")
        .expect("the blob holds the term");
    bytes[range.start + at + 9] = b'a';
    blob.checksum = checksum(&bytes[range]);
    let head = encode_header_and_table(bytes.len() as u64, &table);
    bytes[..head.len()].copy_from_slice(&head);
    std::fs::write(&path, &bytes).expect("writes");

    let err = Dataset::load(&path).expect_err("a repeated term must be refused");
    std::fs::remove_file(&path).ok();
    match err {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("duplicate term"), "{msg}"),
        other => panic!("expected a corrupt-snapshot error, got {other}"),
    }
}
