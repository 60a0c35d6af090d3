//! Server-level crash-recovery differential suite.
//!
//! A durable [`SparqlServer`] journals every update before publishing it;
//! these tests crash it at every journal record boundary and every torn-
//! tail byte length, reopen the store directory through
//! [`SparqlServer::open_durable`], and require the recovered server to be
//! **bit-identical** to an oracle that replays the committed prefix of
//! the same scripted workload from scratch: same rows, same row order,
//! same measured `Cout` and `scanned`, same plan signatures. They also
//! pin the commit discipline itself: a panicking update closure leaves
//! server and journal untouched, a failed checkpoint is recoverable at
//! whichever step it died, and an orphaned journal is a typed error.

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_rdf::wal::{scan_records, WalError, WAL_HEADER_LEN};
use parambench_rdf::{Fault, IoOp, IoSeam};
use parambench_sparql::engine::Engine;
use parambench_sparql::serve::{ServeConfig, SparqlServer, JOURNAL_FILE, SNAPSHOT_FILE};
use parambench_sparql::template::{Binding, QueryTemplate};
use parambench_sparql::QueryError;

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parambench-durab-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Small product/review base store: the saved snapshot and every
/// from-scratch oracle start from it.
fn base_dataset() -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..16 {
        let p = Term::iri(format!("prod/{i:02}"));
        b.insert(p.clone(), iri("type"), Term::iri(format!("ptype/{}", i % 4)));
        b.insert(p.clone(), iri("num"), Term::integer((i % 7) as i64));
        if i % 2 == 0 {
            b.insert(p, iri("feature"), Term::iri(format!("feat/{}", i % 5)));
        }
    }
    b.freeze()
}

/// One scripted update step. Every step changes the visible set, so each
/// maps to exactly one journal record — the boundary sweep relies on that.
enum Step {
    Insert(Vec<(Term, Term, Term)>),
    Delete(Vec<(Term, Term, Term)>),
    Compact,
}

fn product(i: usize) -> (Term, Term, Term) {
    (Term::iri(format!("prod/{i:02}")), iri("type"), Term::iri(format!("ptype/{}", i % 4)))
}

/// Mixed workload: inserts of brand-new subjects and terms (dictionary
/// overflow on the live side), deletes of frozen triples, a mid-script
/// compaction, and a delete of a previously-inserted triple.
fn script() -> Vec<Step> {
    vec![
        Step::Insert(vec![
            (Term::iri("prod/90"), iri("type"), Term::iri("ptype/1")),
            (Term::iri("prod/90"), iri("num"), Term::integer(42)),
        ]),
        Step::Delete(vec![product(0), product(1)]),
        Step::Insert(vec![
            (Term::iri("prod/91"), iri("feature"), Term::iri("feat/new")),
            (Term::iri("prod/91"), iri("num"), Term::integer(-3)),
        ]),
        Step::Compact,
        Step::Insert(vec![(Term::iri("prod/92"), iri("num"), Term::integer(5))]),
        Step::Delete(vec![(Term::iri("prod/90"), iri("num"), Term::integer(42))]),
        Step::Insert(vec![
            (Term::iri("prod/93"), iri("type"), Term::iri("ptype/0")),
            (Term::iri("prod/93"), iri("num"), Term::integer(99)),
        ]),
        Step::Delete(vec![product(2)]),
    ]
}

fn apply_step(ds: &mut Dataset, step: &Step) {
    match step {
        Step::Insert(t) => {
            ds.insert_batch(t.clone());
        }
        Step::Delete(t) => {
            ds.delete_batch(t.clone());
        }
        Step::Compact => ds.compact(),
    }
}

/// The query mix the differential runs: scans, a join, ORDER BY over
/// numerics, aggregation.
fn requests() -> Vec<(QueryTemplate, Binding)> {
    let mix = vec![
        ("q1", "SELECT ?p ?n WHERE { ?p <type> %t . ?p <num> ?n } ORDER BY ASC(?n) ?p"),
        ("q2", "SELECT ?p ?f WHERE { ?p <type> ?t . ?p <feature> ?f } ORDER BY ?p"),
        ("q3", "SELECT ?t (COUNT(?p) AS ?c) WHERE { ?p <type> ?t } GROUP BY ?t ORDER BY ?t"),
    ];
    let mut out = Vec::new();
    for (name, text) in mix {
        let template = QueryTemplate::parse(name, text).expect("template parses");
        for v in 0..2 {
            let binding = if name == "q1" {
                Binding::new().with("t", Term::iri(format!("ptype/{v}")))
            } else {
                Binding::new()
            };
            out.push((template.clone(), binding));
            if name != "q1" {
                break; // parameterless templates need one variant
            }
        }
    }
    out
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

/// Full bit-identity between two servers that followed the same update
/// sequence through the same APIs: rows, row order, Cout, scanned, and
/// the prepared plan's signature per request.
fn assert_bit_identical(a: &SparqlServer, b: &SparqlServer, label: &str) {
    for (template, binding) in requests() {
        let name = template.name().to_string();
        let oa = a.run(&template, &binding).unwrap_or_else(|e| panic!("[{label}] a/{name}: {e}"));
        let ob = b.run(&template, &binding).unwrap_or_else(|e| panic!("[{label}] b/{name}: {e}"));
        assert_eq!(oa.output.results, ob.output.results, "[{label}] rows diverge for {name}");
        assert_eq!(oa.output.cout, ob.output.cout, "[{label}] Cout diverges for {name}");
        assert_eq!(
            oa.output.stats.scanned, ob.output.stats.scanned,
            "[{label}] scanned diverges for {name}"
        );
        let sig = |server: &SparqlServer| {
            let engine = Engine::with_exec_config(server.dataset(), server.exec_config());
            let query = template.instantiate(&binding).expect("instantiates");
            engine.prepare(&query).expect("prepares").signature
        };
        assert_eq!(sig(a), sig(b), "[{label}] plan signatures diverge for {name}");
    }
}

/// Decoded visible triple set (id-independent).
fn visible(ds: &Dataset) -> BTreeSet<String> {
    ds.scan([None, None, None])
        .map(|[s, p, o]| format!("{:?} {:?} {:?}", ds.decode(s), ds.decode(p), ds.decode(o)))
        .collect()
}

/// Builds a durable store dir, applies the whole script through journaled
/// updates, and returns the dir (server dropped — a "crash" leaves exactly
/// the on-disk state behind).
fn journaled_dir(name: &str) -> PathBuf {
    let dir = temp_dir(name);
    let mut server = SparqlServer::create_durable(Arc::new(base_dataset()), &dir, config())
        .expect("creates durable store");
    for step in &script() {
        server.try_update(|ds| apply_step(ds, step)).expect("journaled update commits");
    }
    assert_eq!(server.journal_len(), std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len());
    drop(server);
    dir
}

/// The oracle for a crash after `committed` records: reload the same
/// snapshot and apply the first `committed` script steps from scratch
/// through a non-durable server (each step is exactly one record).
fn oracle_server(dir: &Path, committed: usize) -> SparqlServer {
    let ds = Dataset::load(&dir.join(SNAPSHOT_FILE)).expect("snapshot loads");
    let mut server = SparqlServer::new(Arc::new(ds), config());
    for step in script().iter().take(committed) {
        server.try_update(|ds| apply_step(ds, step)).unwrap();
    }
    server
}

/// Byte offset of each record boundary in the journal (offset `i` = end of
/// the first `i` records), derived by scanning every prefix — the same
/// pure oracle the rdf-level sweep uses.
fn record_boundaries(journal: &[u8]) -> Vec<u64> {
    let full = scan_records(journal).expect("journal scans clean");
    let mut boundaries = vec![WAL_HEADER_LEN as u64];
    for k in WAL_HEADER_LEN..=journal.len() {
        let scan = scan_records(&journal[..k]).expect("prefix scans");
        if !scan.torn && scan.records.len() == boundaries.len() && scan.committed_len == k as u64 {
            boundaries.push(k as u64);
        }
    }
    assert_eq!(boundaries.len(), full.records.len() + 1);
    boundaries
}

#[test]
fn crash_at_every_record_boundary_recovers_bit_identically() {
    let dir = journaled_dir("boundary");
    let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal bytes");
    let boundaries = record_boundaries(&journal);
    assert_eq!(boundaries.len(), script().len() + 1, "each step must journal exactly one record");
    for (committed, &end) in boundaries.iter().enumerate() {
        let crash = temp_dir(&format!("boundary-{committed}"));
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::copy(dir.join(SNAPSHOT_FILE), crash.join(SNAPSHOT_FILE)).unwrap();
        std::fs::write(crash.join(JOURNAL_FILE), &journal[..end as usize]).unwrap();
        let recovered =
            SparqlServer::open_durable(&crash, config()).expect("recovers at a record boundary");
        assert_eq!(recovered.recovered_records(), committed as u64);
        assert_eq!(recovered.journal_len(), end);
        let oracle = oracle_server(&dir, committed);
        assert_bit_identical(&recovered, &oracle, &format!("boundary {committed}"));
        drop(recovered);
        std::fs::remove_dir_all(&crash).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_every_torn_tail_length_recovers_the_committed_prefix() {
    let dir = journaled_dir("torn");
    let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal bytes");
    for cut in WAL_HEADER_LEN..=journal.len() {
        let prefix_oracle = scan_records(&journal[..cut]).expect("prefix scans");
        let crash = temp_dir("torn-crash");
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::copy(dir.join(SNAPSHOT_FILE), crash.join(SNAPSHOT_FILE)).unwrap();
        std::fs::write(crash.join(JOURNAL_FILE), &journal[..cut]).unwrap();
        let recovered =
            SparqlServer::open_durable(&crash, config()).expect("torn tails are tolerated");
        assert_eq!(recovered.recovered_records(), prefix_oracle.records.len() as u64, "cut {cut}");
        // The torn tail was physically truncated back to the boundary.
        assert_eq!(
            std::fs::metadata(crash.join(JOURNAL_FILE)).unwrap().len(),
            prefix_oracle.committed_len,
            "cut {cut}"
        );
        let oracle = oracle_server(&dir, prefix_oracle.records.len());
        assert_eq!(
            visible(recovered.dataset()),
            visible(oracle.dataset()),
            "visible set diverges at cut {cut}"
        );
        assert_eq!(
            recovered.dataset().stats().total_triples,
            oracle.dataset().stats().total_triples,
            "cut {cut}"
        );
        drop(recovered);
        std::fs::remove_dir_all(&crash).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn acknowledged_updates_survive_an_uncheckpointed_crash() {
    let dir = temp_dir("acked");
    let mut server = SparqlServer::create_durable(Arc::new(base_dataset()), &dir, config())
        .expect("creates durable store");
    for step in &script() {
        server.try_update(|ds| apply_step(ds, step)).expect("commits");
    }
    let live_visible = visible(server.dataset());
    let live_epochs = server.epoch();
    drop(server); // crash: no checkpoint, no save
    let recovered = SparqlServer::open_durable(&dir, config()).expect("recovers");
    assert_eq!(recovered.recovered_records(), live_epochs);
    assert_eq!(visible(recovered.dataset()), live_visible);
    let oracle = oracle_server(&dir, script().len());
    assert_bit_identical(&recovered, &oracle, "acked");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_update_closure_leaves_server_and_journal_untouched() {
    let dir = temp_dir("panic");
    let mut server = SparqlServer::create_durable(Arc::new(base_dataset()), &dir, config())
        .expect("creates durable store");
    server.try_update(|ds| apply_step(ds, &script()[0])).expect("first commit");
    let epoch = server.epoch();
    let journal_len = server.journal_len();
    let before = visible(server.dataset());
    let baseline: Vec<_> =
        requests().iter().map(|(t, b)| server.run(t, b).unwrap().output.results).collect();

    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
        server.try_update(|ds| {
            // Mutates the working clone, then dies mid-update.
            ds.insert_batch(vec![(Term::iri("prod/99"), iri("num"), Term::integer(1))]);
            panic!("client bug mid-update");
        })
    }));
    assert!(panicked.is_err());

    // Nothing published, nothing journaled, nothing invalidated.
    assert_eq!(server.epoch(), epoch);
    assert_eq!(server.journal_len(), journal_len);
    assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), journal_len);
    assert_eq!(visible(server.dataset()), before);
    let after: Vec<_> =
        requests().iter().map(|(t, b)| server.run(t, b).unwrap().output.results).collect();
    assert_eq!(baseline, after, "queries diverged after an aborted update");
    // And the server still commits cleanly afterwards.
    server.try_update(|ds| apply_step(ds, &script()[1])).expect("post-panic commit");
    assert_eq!(server.epoch(), epoch + 1);
    drop(server);
    let recovered = SparqlServer::open_durable(&dir, config()).expect("recovers");
    assert_eq!(recovered.recovered_records(), 2, "only the committed updates were journaled");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orphaned_journal_is_a_typed_error() {
    let dir = journaled_dir("orphan");
    std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
    let Err(err) = SparqlServer::open_durable(&dir, config()) else {
        panic!("orphan journal must not open");
    };
    let QueryError::Wal(WalError::OrphanJournal { journal, snapshot }) = err else {
        panic!("expected OrphanJournal, got {err:?}");
    };
    assert_eq!(journal, dir.join(JOURNAL_FILE));
    assert_eq!(snapshot, dir.join(SNAPSHOT_FILE));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_the_journal_and_preserves_the_store() {
    let dir = temp_dir("ckpt");
    let mut server = SparqlServer::create_durable(Arc::new(base_dataset()), &dir, config())
        .expect("creates durable store");
    for step in &script() {
        server.try_update(|ds| apply_step(ds, step)).expect("commits");
    }
    assert!(server.journal_len() > WAL_HEADER_LEN as u64);
    server.checkpoint().expect("checkpoints");
    assert_eq!(server.journal_len(), WAL_HEADER_LEN as u64);
    assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), WAL_HEADER_LEN as u64);
    let live_visible = visible(server.dataset());
    drop(server);
    let recovered = SparqlServer::open_durable(&dir, config()).expect("reopens");
    assert_eq!(recovered.recovered_records(), 0, "a checkpointed store replays nothing");
    assert_eq!(visible(recovered.dataset()), live_visible);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint dies *between* the snapshot publish and the journal
/// truncation (injected `set_len` failure). The stale journal replayed
/// over the already-updated snapshot must be idempotent: the reopened
/// store serves the same decoded rows as the live one. (Plan signatures
/// are not compared here: replaying inserts of since-deleted terms can
/// legitimately intern overflow ids the compacted live store lacks.)
#[test]
fn checkpoint_crash_after_snapshot_publish_recovers_idempotently() {
    let dir = temp_dir("ckpt-setlen");
    let seam = IoSeam::none();
    let mut server =
        SparqlServer::create_durable_with_seam(Arc::new(base_dataset()), &dir, config(), &seam)
            .expect("creates durable store");
    for step in &script() {
        server.try_update(|ds| apply_step(ds, step)).expect("commits");
    }
    // No set_len has run yet (appends only extend); the next one is the
    // checkpoint's journal reset.
    let setlens = seam.log().iter().filter(|op| **op == IoOp::SetLen).count();
    seam.inject(IoOp::SetLen, setlens, Fault::Err("Input/output error"));
    let err = server.checkpoint().expect_err("reset failure must surface");
    assert!(matches!(err, QueryError::Wal(WalError::Io { .. })), "got {err:?}");
    assert_eq!(seam.unfired(), 0);
    let live_rows: Vec<_> =
        requests().iter().map(|(t, b)| server.run(t, b).unwrap().output.results).collect();
    let live_visible = visible(server.dataset());
    drop(server);
    // The journal still holds every record; the snapshot already contains
    // their effects. Replay must converge to the same state anyway.
    assert!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() > WAL_HEADER_LEN as u64);
    let recovered = SparqlServer::open_durable(&dir, config()).expect("recovers");
    assert!(recovered.recovered_records() > 0);
    assert_eq!(visible(recovered.dataset()), live_visible);
    let recovered_rows: Vec<_> =
        requests().iter().map(|(t, b)| recovered.run(t, b).unwrap().output.results).collect();
    assert_eq!(recovered_rows, live_rows, "idempotent replay diverged");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint dies during the snapshot *save* (injected rename failure —
/// the atomic-publication step). The old snapshot must be intact, the
/// journal untruncated, and recovery must still reach the live state:
/// the serve-level regression for atomic snapshot replacement.
#[test]
fn checkpoint_crash_during_snapshot_save_keeps_old_snapshot_and_journal() {
    let dir = temp_dir("ckpt-save");
    let seam = IoSeam::none();
    let mut server =
        SparqlServer::create_durable_with_seam(Arc::new(base_dataset()), &dir, config(), &seam)
            .expect("creates durable store");
    for step in &script() {
        server.try_update(|ds| apply_step(ds, step)).expect("commits");
    }
    let old_snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let journal_len = server.journal_len();
    // Rename #0 was create_durable's initial snapshot publish; #1 is the
    // checkpoint's.
    seam.inject(IoOp::Rename, 1, Fault::Err("Input/output error"));
    let err = server.checkpoint().expect_err("failed snapshot publish must surface");
    assert!(matches!(err, QueryError::Snapshot(_)), "got {err:?}");
    assert_eq!(seam.unfired(), 0);
    // Old snapshot untouched byte-for-byte; journal still carries every
    // record (plus the checkpoint's compaction record).
    assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), old_snapshot);
    assert!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() > journal_len);
    let live_visible = visible(server.dataset());
    drop(server);
    let recovered = SparqlServer::open_durable(&dir, config()).expect("recovers");
    assert_eq!(visible(recovered.dataset()), live_visible);
    let oracle = oracle_server(&dir, script().len());
    // The failed checkpoint still committed its compaction record, so the
    // oracle needs the same compaction applied.
    let mut oracle = oracle;
    oracle.try_update(|ds| ds.compact()).unwrap();
    assert_bit_identical(&recovered, &oracle, "ckpt-save-crash");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn create_durable_discards_a_stale_journal() {
    let dir = journaled_dir("stale");
    assert!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() > WAL_HEADER_LEN as u64);
    let server = SparqlServer::create_durable(Arc::new(base_dataset()), &dir, config())
        .expect("re-creates over an existing dir");
    assert_eq!(server.journal_len(), WAL_HEADER_LEN as u64);
    assert_eq!(server.recovered_records(), 0);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
