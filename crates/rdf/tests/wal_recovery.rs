//! Write-ahead journal crash-recovery suite: a journal must replay its
//! committed prefix exactly, tolerate a torn tail at *every* byte length,
//! surface every in-place corruption as a *typed* [`WalError`] (never a
//! panic, never a silent truncation of acknowledged writes), and — under
//! injected I/O faults — never acknowledge an append that did not reach
//! its fsync.

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_rdf::wal::{
    self, encode_record, scan_records, LoggedOp, Wal, WalError, WAL_HEADER_LEN,
};
use parambench_rdf::{Fault, IoOp, IoSeam};

fn iri(s: &str) -> Term {
    Term::iri(format!("http://e/{s}"))
}

fn triple(i: usize) -> (Term, Term, Term) {
    (iri(&format!("s{}", i % 5)), iri(&format!("p{}", i % 3)), Term::integer(i as i64))
}

/// A small frozen base store the journaled updates run on top of.
fn base() -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..12 {
        let (s, p, o) = triple(i);
        b.insert(s, p, o);
    }
    b.freeze()
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("parambench-walrec-{}-{name}", std::process::id()))
}

/// The decoded visible triple set, id-independent (live and recovered
/// stores may intern overflow terms in different orders only if their
/// update sequences diverged — equality here proves they did not).
fn visible(ds: &Dataset) -> std::collections::BTreeSet<String> {
    ds.scan([None, None, None])
        .map(|[s, p, o]| format!("{:?} {:?} {:?}", ds.decode(s), ds.decode(p), ds.decode(o)))
        .collect()
}

/// Applies a scripted update workload to `ds`, journaling each commit into
/// `wal`. Mix of inserts (some brand-new terms), deletes, and a compact.
fn scripted_workload(ds: &mut Dataset, wal: &mut Wal) -> usize {
    let mut commits = 0;
    let mut commit = |ds: &mut Dataset, f: &dyn Fn(&mut Dataset)| {
        ds.begin_update_log();
        f(ds);
        let ops = ds.take_update_log();
        if !ops.is_empty() {
            wal.append(&ops).expect("append commits");
            commits += 1;
        }
    };
    commit(ds, &|ds| {
        ds.insert_batch((20..26).map(triple));
    });
    commit(ds, &|ds| {
        ds.delete_batch((0..3).map(triple));
    });
    commit(ds, &|ds| {
        ds.insert_batch(vec![(iri("new-subj"), iri("p9"), Term::literal("fresh term"))]);
    });
    commit(ds, &|ds| ds.compact());
    commit(ds, &|ds| {
        ds.insert_batch((30..34).map(triple));
        ds.delete_batch((21..23).map(triple));
    });
    commits
}

/// Builds (base snapshot replayable state, journal file bytes) for the
/// corruption and crash sweeps. Deterministic, so each test builds its own
/// copy under its own temp path.
fn journaled_fixture(name: &str) -> (Dataset, Vec<u8>) {
    let path = temp(name);
    std::fs::remove_file(&path).ok();
    let (mut wal, records) = Wal::open(&path).expect("creates journal");
    assert!(records.is_empty());
    let mut live = base();
    scripted_workload(&mut live, &mut wal);
    drop(wal);
    let bytes = std::fs::read(&path).expect("journal bytes");
    std::fs::remove_file(&path).ok();
    (live, bytes)
}

#[test]
fn append_then_replay_reproduces_the_live_store_exactly() {
    let path = temp("roundtrip.wal");
    std::fs::remove_file(&path).ok();
    let (mut wal, _) = Wal::open(&path).expect("creates");
    let mut live = base();
    let commits = scripted_workload(&mut live, &mut wal);
    assert!(commits >= 5);
    assert_eq!(wal.next_lsn(), commits as u64 + 1);
    drop(wal);

    let (wal, records) = Wal::open(&path).expect("reopens");
    assert_eq!(records.len(), commits);
    let mut recovered = base();
    wal::replay(&mut recovered, &records);
    drop(wal);
    std::fs::remove_file(&path).ok();

    // Same update sequence through the same APIs: ids, not just terms,
    // must agree.
    assert_eq!(
        live.scan([None, None, None]).collect::<Vec<_>>(),
        recovered.scan([None, None, None]).collect::<Vec<_>>()
    );
    assert_eq!(visible(&live), visible(&recovered));
    assert_eq!(live.stats().total_triples, recovered.stats().total_triples);
    assert_eq!(
        live.overlay_entries([None, None, None]),
        recovered.overlay_entries([None, None, None])
    );
}

#[test]
fn empty_and_header_only_journals_recover_to_zero_records() {
    let path = temp("empty.wal");
    std::fs::remove_file(&path).ok();
    let (wal, records) = Wal::open(&path).expect("creates");
    assert!(records.is_empty());
    assert!(wal.is_empty());
    assert_eq!(wal.next_lsn(), 1);
    drop(wal);
    // Reopen the bare header.
    let (wal, records) = Wal::open(&path).expect("reopens");
    assert!(records.is_empty());
    assert_eq!(wal.committed_len(), WAL_HEADER_LEN as u64);
    drop(wal);
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_during_creation_leaves_recoverable_header_prefixes() {
    let header = wal::wal_file_header();
    for cut in 0..WAL_HEADER_LEN {
        let path = temp(&format!("created-{cut}.wal"));
        std::fs::write(&path, &header[..cut]).unwrap();
        let (mut wal, records) = Wal::open(&path).expect("partial header is a torn creation");
        assert!(records.is_empty(), "cut {cut}");
        // The header was rewritten whole and appends work.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN as u64);
        wal.append(&[LoggedOp::Compact]).expect("appends after repair");
        drop(wal);
        std::fs::remove_file(&path).ok();
    }
    // A short file that is NOT a header prefix is foreign, not torn.
    let path = temp("foreign-short.wal");
    std::fs::write(&path, b"NOTAWAL").unwrap();
    assert_eq!(Wal::open(&path).unwrap_err(), WalError::BadMagic);
    std::fs::remove_file(&path).ok();
}

/// The tentpole sweep: crash the journal at *every* byte length, reopen,
/// and require exactly the committed prefix back — no more (no invented
/// records), no less (no acknowledged record dropped), with the file
/// physically truncated to the record boundary and appendable again.
#[test]
fn torn_tail_at_every_byte_length_recovers_the_committed_prefix() {
    let (_, bytes) = journaled_fixture("torn-src.wal");
    assert!(bytes.len() > WAL_HEADER_LEN + 100, "fixture too small to be meaningful");
    for cut in WAL_HEADER_LEN..=bytes.len() {
        // Pure-scan oracle: scanning the prefix directly gives the
        // committed records this crash must recover.
        let oracle = scan_records(&bytes[..cut]).expect("any prefix of a valid journal scans");
        let path = temp("torn.wal");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (mut wal, records) = Wal::open(&path).expect("torn tails are tolerated");
        assert_eq!(records, oracle.records, "cut at {cut}");
        assert_eq!(wal.committed_len(), oracle.committed_len, "cut at {cut}");
        // Off-by-one in the truncation would leave stray bytes (or eat a
        // committed record): the file must end exactly at the boundary.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), oracle.committed_len, "cut at {cut}");
        // The repaired journal accepts the next commit and round-trips it.
        let lsn = wal.append(&[LoggedOp::Compact]).expect("appends after repair");
        assert_eq!(lsn, records.len() as u64 + 1);
        drop(wal);
        let (_, reread) = Wal::open(&path).expect("reopens after post-repair append");
        assert_eq!(reread.len(), records.len() + 1, "cut at {cut}");
        assert_eq!(reread.last().unwrap().ops, vec![LoggedOp::Compact]);
        std::fs::remove_file(&path).ok();
    }
}

/// In-place corruption is *not* a torn tail: flipping any single byte of a
/// complete journal must surface as a typed error — header checksums cover
/// the length/LSN fields, payload checksums cover the ops.
#[test]
fn every_flipped_byte_in_a_complete_journal_is_typed() {
    let (_, bytes) = journaled_fixture("flip-src.wal");
    let mut rejected = 0usize;
    for pos in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let err = scan_records(&corrupt)
                .expect_err(&format!("flip at {pos} mask {mask:#x} must not scan clean"));
            assert!(
                matches!(
                    err,
                    WalError::BadMagic
                        | WalError::UnsupportedVersion { .. }
                        | WalError::ChecksumMismatch { .. }
                        | WalError::Corrupt(_)
                ),
                "flip at {pos} mask {mask:#x} gave unexpected {err:?}"
            );
            rejected += 1;
        }
    }
    assert_eq!(rejected, bytes.len() * 2);
    // And through the file-level path too (spot checks: header, record
    // header, payload).
    for pos in [0, WAL_HEADER_LEN + 4, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        let path = temp("flip.wal");
        std::fs::write(&path, &corrupt).unwrap();
        assert!(Wal::open(&path).is_err(), "file-level flip at {pos} accepted");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn duplicate_and_reordered_lsns_are_rejected() {
    let ops = vec![LoggedOp::Insert(vec![triple(42)])];
    let mut dup = wal::wal_file_header().to_vec();
    dup.extend_from_slice(&encode_record(1, &ops));
    dup.extend_from_slice(&encode_record(1, &ops)); // duplicate
    assert!(matches!(scan_records(&dup), Err(WalError::OutOfOrder { expected: 2, found: 1, .. })));

    let mut skipped = wal::wal_file_header().to_vec();
    skipped.extend_from_slice(&encode_record(2, &ops)); // starts past 1
    assert!(matches!(
        scan_records(&skipped),
        Err(WalError::OutOfOrder { expected: 1, found: 2, .. })
    ));

    let mut swapped = wal::wal_file_header().to_vec();
    swapped.extend_from_slice(&encode_record(2, &ops));
    swapped.extend_from_slice(&encode_record(1, &ops));
    assert!(matches!(scan_records(&swapped), Err(WalError::OutOfOrder { .. })));
}

#[test]
fn trailing_garbage_is_typed_when_distinguishable_from_a_torn_header() {
    let (_, bytes) = journaled_fixture("garbage-src.wal");
    // >= 32 bytes of garbage after the valid tail: a complete (garbage)
    // record header whose checksum cannot verify — typed, not truncated.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0xAB; 40]);
    assert!(matches!(scan_records(&long), Err(WalError::ChecksumMismatch { .. })));

    // < 32 bytes of garbage is indistinguishable from a header torn
    // mid-write: the documented blind spot, tolerated as a torn tail with
    // the committed prefix intact.
    let mut short = bytes.clone();
    short.extend_from_slice(&[0xAB; 10]);
    let scan = scan_records(&short).expect("short garbage is treated as torn");
    assert!(scan.torn);
    assert_eq!(scan.committed_len, bytes.len() as u64);
    assert_eq!(scan.records, scan_records(&bytes).unwrap().records);
}

#[test]
fn wrong_version_and_reserved_word_are_typed() {
    let mut versioned = wal::wal_file_header().to_vec();
    versioned[8] = 9;
    assert_eq!(
        scan_records(&versioned),
        Err(WalError::UnsupportedVersion { found: 9, supported: wal::WAL_VERSION })
    );
    let mut reserved = wal::wal_file_header().to_vec();
    reserved[13] = 1;
    assert!(matches!(scan_records(&reserved), Err(WalError::Corrupt(_))));
}

/// The commit discipline, proven on the seam's operation log: an append is
/// acknowledged only after its fsync, and the fsync comes after the record
/// write. Skipping the fsync-before-ack (the seeded mutant) fails here.
#[test]
fn append_acks_only_after_fsync() {
    let path = temp("ack.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    let ops_before = seam.log();
    wal.append(&[LoggedOp::Insert(vec![triple(7)])]).expect("append acks");
    let ops: Vec<IoOp> = seam.log()[ops_before.len()..].to_vec();
    let last_write = ops.iter().rposition(|op| *op == IoOp::Write);
    let last_sync = ops.iter().rposition(|op| *op == IoOp::Sync);
    let (Some(w), Some(s)) = (last_write, last_sync) else {
        panic!("append must issue both a write and an fsync, saw {ops:?}");
    };
    assert!(s > w, "fsync must follow the record write before the append is acknowledged: {ops:?}");
    drop(wal);
    std::fs::remove_file(&path).ok();
}

/// A failed fsync must fail the append: the write may be in the page
/// cache, but it was never made durable, so acknowledging it would lose an
/// "acknowledged" write on power failure.
#[test]
fn failed_fsync_fails_the_append_and_rolls_back() {
    let path = temp("fsync-fail.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    // Sync #0 is the header-creation fsync; fail the first append's.
    seam.inject(IoOp::Sync, 1, Fault::Err("Input/output error"));
    let err = wal.append(&[LoggedOp::Insert(vec![triple(1)])]).unwrap_err();
    assert!(matches!(err, WalError::Io { op: "append", .. }));
    assert_eq!(seam.unfired(), 0);
    assert!(wal.is_empty(), "failed append must not advance the committed length");
    // The handle recovers: the next append commits at LSN 1.
    assert_eq!(wal.append(&[LoggedOp::Insert(vec![triple(2)])]).expect("retry commits"), 1);
    drop(wal);
    let (_, records) = Wal::open(&path).expect("reopens");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].ops, vec![LoggedOp::Insert(vec![triple(2)])]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn enospc_append_is_typed_rolled_back_and_recoverable() {
    let path = temp("enospc.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    let writes_so_far = seam.log().iter().filter(|op| **op == IoOp::Write).count();
    seam.inject(IoOp::Write, writes_so_far, Fault::Err("No space left on device"));
    let err = wal.append(&[LoggedOp::Insert(vec![triple(3)])]).unwrap_err();
    let WalError::Io { op: "append", message, .. } = &err else {
        panic!("expected append Io error, got {err:?}");
    };
    assert!(message.contains("No space left on device"));
    assert_eq!(seam.unfired(), 0);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN as u64);
    assert_eq!(wal.append(&[LoggedOp::Insert(vec![triple(4)])]).expect("space freed"), 1);
    drop(wal);
    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_append_succeeds_via_retry() {
    let path = temp("eintr.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    let writes_so_far = seam.log().iter().filter(|op| **op == IoOp::Write).count();
    seam.inject(IoOp::Write, writes_so_far, Fault::Interrupt);
    wal.append(&[LoggedOp::Insert(vec![triple(5)])]).expect("EINTR is retried, not fatal");
    assert_eq!(seam.unfired(), 0);
    drop(wal);
    let (_, records) = Wal::open(&path).expect("reopens");
    assert_eq!(records.len(), 1);
    std::fs::remove_file(&path).ok();
}

/// A torn write from a live handle (device failed mid-record) rolls the
/// file back to the committed prefix immediately — the journal never
/// carries a partial record while the handle is live.
#[test]
fn torn_live_append_rolls_back_to_the_committed_prefix() {
    let path = temp("torn-live.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    wal.append(&[LoggedOp::Insert(vec![triple(1)])]).expect("first commit");
    let committed = wal.committed_len();
    let writes_so_far = seam.log().iter().filter(|op| **op == IoOp::Write).count();
    seam.inject(IoOp::Write, writes_so_far, Fault::ShortWrite { keep: 11 });
    wal.append(&[LoggedOp::Insert(vec![triple(2)])]).unwrap_err();
    assert_eq!(seam.unfired(), 0);
    assert_eq!(wal.committed_len(), committed);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
    // And the next append lands cleanly on the boundary.
    assert_eq!(wal.append(&[LoggedOp::Insert(vec![triple(2)])]).expect("clean append"), 2);
    drop(wal);
    let (_, records) = Wal::open(&path).expect("reopens");
    assert_eq!(records.len(), 2);
    std::fs::remove_file(&path).ok();
}

/// Silent bit corruption on the way to the device (FlipBit reports
/// success) is the one fault an append cannot detect — but recovery must:
/// the flipped record fails its checksum as a typed error.
#[test]
fn silently_corrupted_append_is_caught_at_recovery() {
    let path = temp("flipbit.wal");
    std::fs::remove_file(&path).ok();
    let seam = IoSeam::none();
    let (mut wal, _) = Wal::open_with_seam(&path, &seam).expect("creates");
    let writes_so_far = seam.log().iter().filter(|op| **op == IoOp::Write).count();
    seam.inject(IoOp::Write, writes_so_far, Fault::FlipBit { offset: 40, mask: 0x10 });
    // The device lied: the append believes it succeeded.
    wal.append(&[LoggedOp::Insert(vec![triple(6)])]).expect("silent corruption acks");
    assert_eq!(seam.unfired(), 0);
    drop(wal);
    let err = Wal::open(&path).unwrap_err();
    assert!(matches!(err, WalError::ChecksumMismatch { .. }), "got {err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn reset_truncates_to_the_bare_header_and_restarts_the_lsn_sequence() {
    let path = temp("reset.wal");
    std::fs::remove_file(&path).ok();
    let (mut wal, _) = Wal::open(&path).expect("creates");
    let mut live = base();
    scripted_workload(&mut live, &mut wal);
    assert!(!wal.is_empty());
    wal.reset().expect("resets");
    assert!(wal.is_empty());
    assert_eq!(wal.next_lsn(), 1);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN as u64);
    // Post-reset appends restart at LSN 1 and round-trip.
    assert_eq!(wal.append(&[LoggedOp::Compact]).expect("appends"), 1);
    drop(wal);
    let (_, records) = Wal::open(&path).expect("reopens");
    assert_eq!(records.len(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_op_batches_are_not_journaled() {
    let path = temp("noop.wal");
    std::fs::remove_file(&path).ok();
    let (mut wal, _) = Wal::open(&path).expect("creates");
    wal.append(&[]).expect("no-op append");
    assert!(wal.is_empty());
    assert_eq!(wal.next_lsn(), 1);
    drop(wal);
    std::fs::remove_file(&path).ok();
}
