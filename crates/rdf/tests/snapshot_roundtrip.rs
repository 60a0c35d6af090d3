//! Snapshot robustness suite: a saved dataset must reload bit-identically,
//! and every way a snapshot file can go wrong — truncation at any point,
//! a flipped payload byte, foreign magic, an unsupported version, trailing
//! garbage — must surface as a *typed* [`SnapshotError`], never a panic,
//! never a silently wrong store.

use parambench_rdf::format::{HEADER_LEN, MAGIC, SECTION_COUNT, TABLE_ENTRY_LEN, VERSION};
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::{Literal, Term};
use parambench_rdf::{Id, SnapshotError};

/// A small but representative dataset: IRIs, plain/lang/typed literals,
/// blanks, numerics (including NaN and negatives), several predicates.
fn sample() -> Dataset {
    let mut b = StoreBuilder::new();
    let p = |i: usize| Term::iri(format!("http://e/p{i}"));
    for i in 0..20 {
        let s = Term::iri(format!("http://e/s{}", i % 7));
        b.insert(s.clone(), p(i % 3), Term::integer(i as i64 - 10));
        b.insert(s.clone(), p(3), Term::literal(format!("label {i}")));
        if i % 4 == 0 {
            b.insert(s, p(4), Term::double(if i % 8 == 0 { f64::NAN } else { 0.5 * i as f64 }));
        }
    }
    b.insert(Term::Blank("b0".into()), p(0), Term::Literal(Literal::lang("hallo", "de")));
    b.insert(Term::iri("http://e/s0"), p(5), Term::Literal(Literal::boolean(true)));
    b.freeze()
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("parambench-snapcorrupt-{}-{name}", std::process::id()))
}

/// One shared save: tests in this binary run in parallel, so writing a
/// common temp path per call would race (saved bytes are deterministic,
/// caching loses nothing).
fn saved_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let path = temp("source.pbsnap");
            sample().save(&path).expect("saves");
            let bytes = std::fs::read(&path).expect("reads back");
            std::fs::remove_file(&path).ok();
            bytes
        })
        .clone()
}

fn load_bytes(name: &str, bytes: &[u8]) -> Result<Dataset, SnapshotError> {
    let path = temp(name);
    std::fs::write(&path, bytes).expect("writes corrupted file");
    let result = Dataset::load(&path);
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn round_trip_preserves_every_scan_and_term() {
    let ds = sample();
    let path = temp("roundtrip.pbsnap");
    ds.save(&path).expect("saves");
    let loaded = Dataset::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();

    assert_eq!(ds.len(), loaded.len());
    assert!(loaded.is_loaded());
    // Full scans over all six index orders agree.
    for order in parambench_rdf::index::IndexOrder::ALL {
        assert_eq!(
            ds.index(order).scan(&[]).collect::<Vec<_>>(),
            loaded.index(order).scan(&[]).collect::<Vec<_>>(),
            "{order:?} scan diverged"
        );
    }
    // Every term, numeric value (bit-exact, incl. NaN) and count agrees.
    for i in 0..ds.dict().len() as u32 {
        let id = Id(i);
        assert_eq!(ds.decode(id), loaded.decode(id));
        match (ds.dict().numeric(id), loaded.dict().numeric(id)) {
            (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            (x, y) => assert_eq!(x, y),
        }
        assert_eq!(ds.count([Some(id), None, None]), loaded.count([Some(id), None, None]));
        assert_eq!(ds.count([None, Some(id), None]), loaded.count([None, Some(id), None]));
        assert_eq!(ds.count([None, None, Some(id)]), loaded.count([None, None, Some(id)]));
    }
    assert_eq!(ds.stats().total_triples, loaded.stats().total_triples);
    assert_eq!(ds.stats().distinct_subjects, loaded.stats().distinct_subjects);
    assert_eq!(ds.stats().distinct_predicates, loaded.stats().distinct_predicates);
    assert_eq!(ds.char_sets().len(), loaded.char_sets().len());
}

#[test]
fn truncation_at_every_region_is_typed() {
    let bytes = saved_bytes();
    // Representative cut points: inside the header, inside the section
    // table, at the payload boundary, inside a payload, one byte short.
    let cuts = [
        0,
        HEADER_LEN - 1,
        HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT / 2,
        HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let err = load_bytes("truncated.pbsnap", &bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut at {cut}/{} gave {err:?}, expected Truncated",
            bytes.len()
        );
    }
}

#[test]
fn every_flipped_payload_byte_is_rejected() {
    let bytes = saved_bytes();
    // Flip one byte in each section's payload region: the per-section
    // checksum must catch it. (Zero padding bytes between sections are
    // unchecksummed by design, so flip within actual payloads — stride
    // through the payload region instead of exhaustively testing every
    // byte to keep the test fast.)
    let payload_start = HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT;
    let mut rejected = 0;
    for pos in (payload_start..bytes.len()).step_by(97) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x40;
        match load_bytes("flipped.pbsnap", &corrupted) {
            Err(SnapshotError::ChecksumMismatch { .. }) => rejected += 1,
            // A flip can land on inter-section zero padding; loading then
            // legitimately succeeds (padding is outside every checksum).
            Ok(_) => {}
            Err(other) => panic!("flip at {pos} gave {other:?}"),
        }
    }
    assert!(rejected > 10, "checksums caught only {rejected} flips");
}

#[test]
fn flipped_table_byte_is_rejected() {
    let bytes = saved_bytes();
    let mut corrupted = bytes.clone();
    corrupted[HEADER_LEN + 8] ^= 0x01; // a section-table offset byte
    let err = load_bytes("table-flip.pbsnap", &corrupted).unwrap_err();
    assert!(matches!(err, SnapshotError::ChecksumMismatch { section: "section-table" }), "{err:?}");
}

#[test]
fn foreign_magic_is_rejected() {
    let mut bytes = saved_bytes();
    bytes[0..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(load_bytes("magic.pbsnap", &bytes).unwrap_err(), SnapshotError::BadMagic));
    // Sanity: the real magic is what the file carries.
    assert_eq!(&saved_bytes()[0..8], &MAGIC);
}

#[test]
fn future_version_is_rejected_with_both_versions() {
    let mut bytes = saved_bytes();
    bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match load_bytes("version.pbsnap", &bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, VERSION + 1);
            assert_eq!(supported, VERSION);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = saved_bytes();
    bytes.extend_from_slice(b"garbage!");
    let err = load_bytes("trailing.pbsnap", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
}

#[test]
fn empty_and_tiny_files_are_typed() {
    for bytes in [&b""[..], &b"P"[..], &b"PBRDFSNP"[..]] {
        let err = load_bytes("tiny.pbsnap", bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err:?}");
    }
}

#[test]
fn errors_render_and_compare() {
    // SnapshotError is Clone + PartialEq and Display renders the context a
    // caller needs (section names, expected/actual sizes).
    let e = SnapshotError::ChecksumMismatch { section: "meta" };
    assert_eq!(e.clone(), e);
    assert!(e.to_string().contains("meta"), "{e}");
    let t = SnapshotError::Truncated { expected: 100, actual: 7 };
    assert!(t.to_string().contains("100") && t.to_string().contains('7'), "{t}");
}
