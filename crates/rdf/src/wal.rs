//! Write-ahead journal for live updates: checksummed, crash-recoverable.
//!
//! The snapshot ([`crate::snapshot`]) persists a *compacted* store;
//! everything the overlay has absorbed since lives only in memory. The WAL
//! closes that gap: every committed update batch is appended to an
//! append-only journal — and fsynced — *before* it is published to
//! readers, so a process crash can lose at most the batch that was never
//! acknowledged. Recovery replays the journal over the reloaded snapshot
//! through the very same [`Dataset`] mutation APIs the live store used,
//! which makes the recovered store bit-identical to the pre-crash one by
//! construction (same dictionary interning order, same overlay state, same
//! derived statistics — hence identical plans and plan signatures).
//!
//! # File format
//!
//! A 16-byte file header (magic `PBRDFWAL`, format version, reserved
//! zero word) followed by back-to-back records. Each record is a 32-byte
//! header — payload length, LSN, payload checksum, and a header checksum
//! over the first 24 header bytes — followed by the payload: the encoded
//! [`LoggedOp`] batch of one commit. Checksums are the same word-parallel
//! [`crate::format::Checksum`] the snapshot container uses, and terms are
//! encoded with the snapshot's term codec, so the journal inherits the
//! format module's corruption discipline wholesale.
//!
//! # Torn-tail rule
//!
//! A crash can leave the journal with an *incomplete* final record: fewer
//! than 32 bytes of header, or a complete header whose payload is cut
//! short. That — and only that — is tolerated: recovery truncates the file
//! back to the last complete, checksum-valid record (the *committed
//! prefix*) and continues. Every other irregularity in a *complete* record
//! — a failed header or payload checksum, a non-sequential LSN, garbage
//! that does not decode — is a typed [`WalError`], never a panic and never
//! a silent truncation: a complete-but-invalid record means the file was
//! corrupted in place, not torn by a crash, and silently dropping it could
//! discard acknowledged writes. (One documented blind spot: fewer than 32
//! bytes of *garbage* after the valid tail is indistinguishable from a
//! torn header and is truncated like one.)

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::fault::{IoOp, IoSeam, SeamFile};
use crate::format::{checksum, decode_term, encode_term, Dec};
use crate::store::Dataset;
use crate::term::Term;

/// Journal file magic: first eight bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"PBRDFWAL";

/// Journal format version this build reads and writes. Version 2 replaced
/// the records' FNV-1a sums with [`crate::format::Checksum`].
pub const WAL_VERSION: u32 = 2;

/// Length of the journal file header (magic + version + reserved).
pub const WAL_HEADER_LEN: usize = 16;

/// Length of a record header (payload length, LSN, payload checksum,
/// header checksum).
pub const WAL_RECORD_HEADER_LEN: usize = 32;

/// The canonical 16-byte journal file header.
pub fn wal_file_header() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[0..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Everything that can go wrong opening, scanning or appending to a
/// journal. Mirrors [`crate::format::SnapshotError`]'s discipline: every
/// corruption is a typed, comparable value.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// An I/O operation failed (message retains the OS error text).
    Io {
        /// Which operation failed (e.g. `"append"`, `"open"`).
        op: &'static str,
        /// The journal path involved.
        path: PathBuf,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file does not start with [`WAL_MAGIC`] — not a journal.
    BadMagic,
    /// The journal was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A complete record's header or payload checksum did not verify.
    ChecksumMismatch {
        /// Byte offset of the record's header within the file.
        offset: u64,
    },
    /// A complete, checksum-valid record carries the wrong LSN (duplicate,
    /// reordered, or gapped) — the journal was tampered with or spliced.
    OutOfOrder {
        /// Byte offset of the record's header within the file.
        offset: u64,
        /// The LSN the sequence required.
        expected: u64,
        /// The LSN found in the record.
        found: u64,
    },
    /// Structurally invalid bytes (header fields or payload that do not
    /// decode despite valid checksums).
    Corrupt(String),
    /// A journal exists but the snapshot it was journaling against does
    /// not — recovery has nothing to replay onto, and guessing (e.g.
    /// starting empty) could silently resurrect a partial store.
    OrphanJournal {
        /// The orphaned journal file.
        journal: PathBuf,
        /// The missing snapshot file it expected.
        snapshot: PathBuf,
    },
    /// A previous failed append could not be rolled back; the journal
    /// handle refuses further writes (reopen to recover).
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, path, message } => {
                write!(f, "wal {op} failed for {}: {message}", path.display())
            }
            WalError::BadMagic => write!(f, "not a journal file (bad magic)"),
            WalError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported journal version {found} (this build supports {supported})")
            }
            WalError::ChecksumMismatch { offset } => {
                write!(f, "journal record at byte {offset} failed checksum verification")
            }
            WalError::OutOfOrder { offset, expected, found } => write!(
                f,
                "journal record at byte {offset} has LSN {found}, expected {expected} \
                 (duplicate, reordered or spliced record)"
            ),
            WalError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
            WalError::OrphanJournal { journal, snapshot } => write!(
                f,
                "journal {} present but its snapshot {} is missing",
                journal.display(),
                snapshot.display()
            ),
            WalError::Poisoned => {
                write!(f, "journal handle poisoned by an unrecoverable failed append")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// One journaled store operation, captured at the term level.
///
/// Term level matters: ids are assigned at *apply* time (a new term's
/// overflow id depends on interning order), so replaying the same terms
/// through the same mutation APIs reproduces the same ids — and with them
/// the same overlay, statistics and plans — exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum LoggedOp {
    /// A batch insert of the triples that actually changed the visible set.
    Insert(Vec<(Term, Term, Term)>),
    /// A batch delete of the triples that actually changed the visible set.
    Delete(Vec<(Term, Term, Term)>),
    /// A compaction that actually ran (the no-op fast path is not logged).
    Compact,
}

/// One committed journal record: the operations of one commit, with the
/// log sequence number they were committed under.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Sequence number: 1 for the first record after a (re)created or
    /// checkpoint-truncated journal, incrementing by exactly 1.
    pub lsn: u64,
    /// The operations of this commit, in application order.
    pub ops: Vec<LoggedOp>,
}

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_COMPACT: u8 = 3;

fn encode_ops(ops: &[LoggedOp]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            LoggedOp::Insert(triples) => {
                out.push(OP_INSERT);
                encode_triples(triples, &mut out);
            }
            LoggedOp::Delete(triples) => {
                out.push(OP_DELETE);
                encode_triples(triples, &mut out);
            }
            LoggedOp::Compact => out.push(OP_COMPACT),
        }
    }
    out
}

fn encode_triples(triples: &[(Term, Term, Term)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(triples.len() as u32).to_le_bytes());
    for (s, p, o) in triples {
        encode_term(s, out);
        encode_term(p, out);
        encode_term(o, out);
    }
}

/// Decodes one record payload back into its operations. Public so
/// corruption tests can round-trip hand-crafted payloads.
pub fn decode_ops(payload: &[u8]) -> Result<Vec<LoggedOp>, WalError> {
    let corrupt = |e: crate::format::SnapshotError| WalError::Corrupt(e.to_string());
    let mut dec = Dec::new(payload, "wal record payload");
    let count = dec.u32().map_err(corrupt)? as usize;
    let mut ops = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = dec.u8().map_err(corrupt)?;
        match tag {
            OP_INSERT | OP_DELETE => {
                let n = dec.u32().map_err(corrupt)? as usize;
                let mut triples = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    let s = decode_term(&mut dec).map_err(corrupt)?;
                    let p = decode_term(&mut dec).map_err(corrupt)?;
                    let o = decode_term(&mut dec).map_err(corrupt)?;
                    triples.push((s, p, o));
                }
                ops.push(if tag == OP_INSERT {
                    LoggedOp::Insert(triples)
                } else {
                    LoggedOp::Delete(triples)
                });
            }
            OP_COMPACT => ops.push(LoggedOp::Compact),
            other => {
                return Err(WalError::Corrupt(format!("unknown wal op tag {other}")));
            }
        }
    }
    dec.done().map_err(corrupt)?;
    Ok(ops)
}

/// Encodes one complete record (header + payload) for `lsn`. Public so
/// tests can craft journals with out-of-sequence LSNs byte-for-byte the
/// way the writer would.
pub fn encode_record(lsn: u64, ops: &[LoggedOp]) -> Vec<u8> {
    let payload = encode_ops(ops);
    let mut rec = Vec::with_capacity(WAL_RECORD_HEADER_LEN + payload.len());
    rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(&lsn.to_le_bytes());
    rec.extend_from_slice(&checksum(&payload).to_le_bytes());
    let header_sum = checksum(&rec[0..24]);
    rec.extend_from_slice(&header_sum.to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

/// The outcome of scanning a journal's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The committed records, in LSN order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the committed prefix (file header included).
    /// Everything past it is a tolerated torn tail.
    pub committed_len: u64,
    /// True when a torn tail was found (and must be truncated away).
    pub torn: bool,
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Scans raw journal bytes into the committed record sequence, applying
/// the torn-tail rule (see the module docs). Pure — no filesystem access —
/// so crash-simulation tests can run it over arbitrary prefixes.
pub fn scan_records(bytes: &[u8]) -> Result<WalScan, WalError> {
    if bytes.len() < WAL_HEADER_LEN {
        // A crash during journal creation can leave any prefix of the
        // 16-byte header; anything else this short is foreign.
        if bytes == &wal_file_header()[..bytes.len()] {
            return Ok(WalScan { records: Vec::new(), committed_len: 0, torn: !bytes.is_empty() });
        }
        return Err(WalError::BadMagic);
    }
    if bytes[0..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("four bytes"));
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion { found: version, supported: WAL_VERSION });
    }
    if bytes[12..16] != [0u8; 4] {
        return Err(WalError::Corrupt("nonzero reserved word in journal header".into()));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = false;
    let mut next_lsn = 1u64;
    while pos < bytes.len() {
        let rem = &bytes[pos..];
        if rem.len() < WAL_RECORD_HEADER_LEN {
            torn = true; // truncated mid-header
            break;
        }
        let header = &rem[..WAL_RECORD_HEADER_LEN];
        if checksum(&header[0..24]) != le_u64(&header[24..32]) {
            return Err(WalError::ChecksumMismatch { offset: pos as u64 });
        }
        let payload_len = le_u64(&header[0..8]) as usize;
        let lsn = le_u64(&header[8..16]);
        let payload_sum = le_u64(&header[16..24]);
        if rem.len() - WAL_RECORD_HEADER_LEN < payload_len {
            // Valid header, payload cut short: the classic torn write.
            torn = true;
            break;
        }
        let payload = &rem[WAL_RECORD_HEADER_LEN..WAL_RECORD_HEADER_LEN + payload_len];
        if checksum(payload) != payload_sum {
            return Err(WalError::ChecksumMismatch { offset: pos as u64 });
        }
        if lsn != next_lsn {
            return Err(WalError::OutOfOrder {
                offset: pos as u64,
                expected: next_lsn,
                found: lsn,
            });
        }
        let ops = decode_ops(payload)?;
        records.push(WalRecord { lsn, ops });
        next_lsn += 1;
        pos += WAL_RECORD_HEADER_LEN + payload_len;
    }
    Ok(WalScan { records, committed_len: pos as u64, torn })
}

/// Replays scanned records onto a dataset through the same mutation APIs
/// the live store used. Returns how many individual triples changed the
/// visible set.
pub fn replay(ds: &mut Dataset, records: &[WalRecord]) -> usize {
    let mut changed = 0;
    for record in records {
        for op in &record.ops {
            changed += ds.apply_logged(op);
        }
    }
    changed
}

/// An open journal handle: appends are atomic (all-or-nothing per commit)
/// and acknowledged only after fsync.
#[derive(Debug)]
pub struct Wal {
    file: SeamFile,
    path: PathBuf,
    seam: IoSeam,
    next_lsn: u64,
    committed_len: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (or creates) the journal at `path` and returns the handle
    /// together with the committed records recovered from it. A torn tail
    /// is physically truncated away before the handle is returned, so the
    /// file ends exactly at the committed prefix.
    pub fn open(path: &Path) -> Result<(Self, Vec<WalRecord>), WalError> {
        Self::open_with_seam(path, &IoSeam::none())
    }

    /// [`Wal::open`] with write-side I/O routed through a fault-injection
    /// seam.
    pub fn open_with_seam(path: &Path, seam: &IoSeam) -> Result<(Self, Vec<WalRecord>), WalError> {
        let io = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| WalError::Io { op, path, message: e.to_string() }
        };
        if !path.exists() {
            let mut file = SeamFile::create(path, seam).map_err(io("create", path))?;
            file.write_all(&wal_file_header()).map_err(io("create", path))?;
            file.sync().map_err(io("create", path))?;
            let wal = Wal {
                file,
                path: path.to_path_buf(),
                seam: seam.clone(),
                next_lsn: 1,
                committed_len: WAL_HEADER_LEN as u64,
                poisoned: false,
            };
            return Ok((wal, Vec::new()));
        }
        let bytes = std::fs::read(path).map_err(io("read", path))?;
        let scan = scan_records(&bytes)?;
        let mut file = SeamFile::open_rw(path, seam).map_err(io("open", path))?;
        let committed_len = if scan.committed_len < WAL_HEADER_LEN as u64 {
            // Crash during creation left a partial (or empty) header:
            // rewrite it whole.
            file.set_len(0).map_err(io("truncate", path))?;
            file.seek(SeekFrom::Start(0)).map_err(io("truncate", path))?;
            file.write_all(&wal_file_header()).map_err(io("create", path))?;
            file.sync().map_err(io("create", path))?;
            WAL_HEADER_LEN as u64
        } else {
            if scan.torn || scan.committed_len < bytes.len() as u64 {
                // Truncate the torn tail so the next append lands on a
                // clean record boundary.
                file.set_len(scan.committed_len).map_err(io("truncate", path))?;
                file.sync().map_err(io("truncate", path))?;
            }
            file.seek(SeekFrom::Start(scan.committed_len)).map_err(io("open", path))?;
            scan.committed_len
        };
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            seam: seam.clone(),
            next_lsn: scan.records.len() as u64 + 1,
            committed_len,
            poisoned: false,
        };
        Ok((wal, scan.records))
    }

    /// Appends one commit's operations as a single record and fsyncs it.
    /// Returns the record's LSN. On failure the journal is rolled back to
    /// the previous committed length — the commit is all-or-nothing — and
    /// a typed error is returned; the write must not be acknowledged.
    ///
    /// Empty batches are not journaled (no visible change to recover).
    pub fn append(&mut self, ops: &[LoggedOp]) -> Result<u64, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if ops.is_empty() {
            return Ok(self.next_lsn - 1);
        }
        let record = encode_record(self.next_lsn, ops);
        let commit = self.file.write_all(&record).and_then(|()| self.file.sync()).map_err(|e| {
            WalError::Io { op: "append", path: self.path.clone(), message: e.to_string() }
        });
        if let Err(err) = commit {
            // Roll the file back to the committed prefix so a partially
            // persisted record cannot linger (it would be truncated at the
            // next open anyway, but a live handle must not append after
            // garbage).
            let rollback = self
                .file
                .set_len(self.committed_len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.committed_len)).map(|_| ()));
            if rollback.is_err() {
                self.poisoned = true;
            }
            return Err(err);
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.committed_len += record.len() as u64;
        Ok(lsn)
    }

    /// Truncates the journal back to its bare file header — the checkpoint
    /// step after the snapshot has been durably re-saved — and restarts
    /// the LSN sequence.
    pub fn reset(&mut self) -> Result<(), WalError> {
        let io = |op: &'static str, path: &PathBuf| {
            let path = path.clone();
            move |e: std::io::Error| WalError::Io { op, path, message: e.to_string() }
        };
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        self.file.set_len(WAL_HEADER_LEN as u64).map_err(io("reset", &self.path))?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN as u64)).map_err(io("reset", &self.path))?;
        self.file.sync().map_err(io("reset", &self.path))?;
        self.committed_len = WAL_HEADER_LEN as u64;
        self.next_lsn = 1;
        Ok(())
    }

    /// Length in bytes of the committed journal (file header included).
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// True when no records are committed (bare header).
    pub fn is_empty(&self) -> bool {
        self.committed_len == WAL_HEADER_LEN as u64
    }

    /// The LSN the next committed record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-injection seam this journal's I/O runs through.
    pub fn seam(&self) -> &IoSeam {
        &self.seam
    }

    /// Asserts the commit discipline over the seam's operation log: every
    /// append's fsync happened after its last write. Returns the number of
    /// [`IoOp::Sync`] operations observed (tests assert it matches their
    /// append count).
    pub fn synced_appends(&self) -> usize {
        self.seam.log().iter().filter(|op| **op == IoOp::Sync).count()
    }
}
