//! The on-disk snapshot format: header, section table, checksums, codecs.
//!
//! A snapshot file is a fixed-width little-endian container:
//!
//! ```text
//! offset 0    header (32 bytes)
//!             0..8    magic  "PBRDFSNP"
//!             8..12   format version (u32, currently 3)
//!             12..16  section count (u32)
//!             16..24  total file length (u64)
//!             24..32  checksum of the section table (u64)
//! offset 32   section table (32 bytes per section)
//!             kind (u32) · reserved (u32, zero) · payload offset (u64)
//!             · payload length in bytes (u64) · checksum (u64)
//! then        payload sections, each starting on an 8-byte boundary
//!             (zero padding between sections is neither counted in a
//!             section's length nor checksummed)
//! ```
//!
//! Every sum in the file — the table's, each section's and each window's —
//! is a [`Checksum`].
//!
//! Every structural violation maps to a typed [`SnapshotError`] — loading
//! never panics and never interprets bytes it has not bounds-checked. The
//! per-section checksums are what lets [`crate::snapshot`] hand out
//! *zero-copy* views of the triple and bucket sections: once a section's
//! checksum verifies, its bytes are exactly what [`crate::store::Dataset::save`]
//! wrote, so reinterpreting them as `[Id; 3]` keys is sound without any
//! per-element validation.

use std::fmt;
use std::path::PathBuf;

use crate::term::{Literal, LiteralKind, Term};

/// File magic: identifies a parambench RDF store snapshot.
pub const MAGIC: [u8; 8] = *b"PBRDFSNP";

/// Current format version. Bumped on any layout change; loaders reject
/// other versions with [`SnapshotError::UnsupportedVersion`]. Version 2
/// added the per-window checksum section ([`SEC_WINDOW_SUMS`]); version 3
/// replaced FNV-1a with the word-parallel [`Checksum`] in every sum the
/// file carries (header table, sections, windows).
pub const VERSION: u32 = 3;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 32;

/// Byte length of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Dataset-wide metadata (term/triple counts, flags).
pub const SEC_META: u32 = 1;
/// `(term_count + 1)` u64 offsets into [`SEC_TERM_BLOB`].
pub const SEC_TERM_OFFSETS: u32 = 2;
/// Concatenated encoded terms (see [`encode_term`]).
pub const SEC_TERM_BLOB: u32 = 3;
/// Cached numeric value per term as `f64::to_bits` (u64 each) — bit
/// patterns, so NaN-valued literals round-trip exactly.
pub const SEC_NUMERIC: u32 = 4;
/// Presence bitmap of the numeric cache: `ceil(term_count / 64)` u64
/// words, bit `i % 64` of word `i / 64` set iff term `i` has a numeric
/// value. The explicit bitmap (rather than a NaN sentinel) is what keeps
/// genuinely NaN-valued literals numeric.
pub const SEC_NUMERIC_SET: u32 = 5;
/// Per-predicate and global statistics ([`crate::stats::DatasetStats`]).
pub const SEC_STATS: u32 = 6;
/// Characteristic sets ([`crate::stats::CharacteristicSets`]).
pub const SEC_CHAR_SETS: u32 = 7;
/// Per-window [`Checksum`] sums of every other section, enabling windowed
/// checksum verification on load (`Dataset::load_with_verify` with
/// `VerifyMode::Windowed`):
/// `window_size` u64, section count u64, then per section (in table
/// order) `kind` u32, zero pad u32, window count u64 and that many u64
/// sums — window `i` covering payload bytes `[i*w, min((i+1)*w, len))`.
pub const SEC_WINDOW_SUMS: u32 = 8;

/// Base kind of the six sorted triple-key sections (`+ IndexOrder::slot()`).
pub const SEC_TRIPLES_BASE: u32 = 16;
/// Base kind of the six per-index bucket-directory sections.
pub const SEC_BUCKETS_BASE: u32 = 32;

/// Section kind of the sorted key array of index `slot` (0..6).
pub const fn sec_triples(slot: usize) -> u32 {
    SEC_TRIPLES_BASE + slot as u32
}

/// Section kind of the bucket directory of index `slot` (0..6).
pub const fn sec_buckets(slot: usize) -> u32 {
    SEC_BUCKETS_BASE + slot as u32
}

/// Total number of sections a current-version snapshot carries (seven
/// metadata sections, the window-sums section, six key arrays and six
/// bucket directories).
pub const SECTION_COUNT: usize = 8 + 6 + 6;

/// Human-readable name of a section kind (for error messages).
pub fn section_name(kind: u32) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_TERM_OFFSETS => "term-offsets",
        SEC_TERM_BLOB => "term-blob",
        SEC_NUMERIC => "numeric-values",
        SEC_NUMERIC_SET => "numeric-bitmap",
        SEC_STATS => "stats",
        SEC_CHAR_SETS => "characteristic-sets",
        SEC_WINDOW_SUMS => "window-sums",
        k if (SEC_TRIPLES_BASE..SEC_TRIPLES_BASE + 6).contains(&k) => "triples",
        k if (SEC_BUCKETS_BASE..SEC_BUCKETS_BASE + 6).contains(&k) => "buckets",
        _ => "unknown",
    }
}

/// Meta-section flag: the dictionary observed value ties at freeze
/// ([`crate::dict::Dictionary::has_value_ties`]).
pub const FLAG_VALUE_TIES: u64 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed failure while saving or loading a snapshot. Corrupted,
/// truncated and mis-versioned files all surface here — never as a panic
/// or as undefined behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An I/O operation failed (`std::io::Error` is not `Clone`, so the
    /// message is captured as text).
    Io {
        /// What the snapshot layer was doing (e.g. `"create snapshot"`).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not the supported one.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file is shorter than its header claims (or than the header
    /// itself).
    Truncated {
        /// Bytes the header (or format) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's checksum does not match its bytes.
    ChecksumMismatch {
        /// Which section failed (see [`section_name`]).
        section: &'static str,
    },
    /// A structural invariant of the decoded content is violated.
    Corrupt(String),
    /// The dataset carries net overlay updates that a snapshot cannot
    /// represent (the format stores the frozen base only). Call
    /// `Dataset::compact` first.
    PendingUpdates {
        /// Pending overlay adds at save time.
        adds: usize,
        /// Pending overlay tombstones at save time.
        dels: usize,
    },
    /// The dictionary holds post-freeze overflow terms that are not in
    /// value order. The snapshot format has no overflow watermark — a
    /// loader treats *every* stored id as value-ordered — so saving would
    /// let the reloaded store serve order it cannot deliver. Call
    /// `Dataset::compact` first.
    OverflowTerms {
        /// Terms interned past the frozen value-ordered range.
        overflow: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, path, message } => {
                write!(f, "snapshot I/O: {} {}: {}", op, path.display(), message)
            }
            SnapshotError::BadMagic => write!(f, "not a store snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (this build reads {supported})")
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "truncated snapshot: need {expected} bytes, file has {actual}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in section `{section}`")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::PendingUpdates { adds, dels } => write!(
                f,
                "dataset has pending live updates ({adds} adds, {dels} deletes); \
                 compact() before save()"
            ),
            SnapshotError::OverflowTerms { overflow } => write!(
                f,
                "dataset dictionary holds {overflow} post-freeze overflow terms out of \
                 value order; compact() before save()"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// Streaming word-parallel checksum (dependency-free; detects the random
/// corruption and truncation a storage layer must catch — it is not a
/// cryptographic integrity guarantee).
///
/// Four independent 64-bit lanes consume the input in 32-byte blocks, one
/// little-endian word per lane, so the four multiply chains overlap and a
/// pass runs at memory speed rather than one dependent multiply per byte.
/// Each lane step `lane = ((lane ^ word) * K).rotate_left(R)` is a
/// bijection of the lane for a fixed word (`K` is odd), and so is each
/// step that folds the lanes, the tail words and the length into the sum
/// at [`Checksum::finish`]: two inputs of equal length that differ in one
/// word — in particular in one bit — always produce different sums.
///
/// [`Checksum::update`] accepts any chunking of the input: a partial block
/// is buffered until the next call completes it, so streaming a byte
/// sequence in pieces yields the sum of the whole.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// Bytes of the current partial block (`pending` of them are live).
    block: [u8; BLOCK],
    pending: usize,
    /// Bytes folded in so far, tail included.
    total: u64,
}

/// Bytes per block: one 64-bit word for each of the four lanes.
const BLOCK: usize = 32;
/// Odd multipliers (the 64-bit primes of xxHash).
const K1: u64 = 0x9e37_79b1_85eb_ca87;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;

#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K1).rotate_left(31)
}

#[inline(always)]
fn fold_step(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(K2).rotate_left(27)
}

#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// The final avalanche (MurmurHash3's `fmix64`, a bijection).
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl Checksum {
    /// A fresh checksum over the empty input.
    pub fn new() -> Self {
        Checksum {
            lanes: [K1, K2, K1.rotate_left(32), K2.rotate_left(32)],
            block: [0; BLOCK],
            pending: 0,
            total: 0,
        }
    }

    /// Folds `bytes` into the running state.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending > 0 {
            let take = (BLOCK - self.pending).min(bytes.len());
            self.block[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < BLOCK {
                return;
            }
            let block = self.block;
            self.blocks(&block);
            self.pending = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.blocks(&bytes[..whole]);
        let tail = &bytes[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }

    /// Runs the four lanes over whole blocks (`bytes.len()` is a multiple
    /// of [`BLOCK`]).
    #[inline]
    fn blocks(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in bytes.chunks_exact(BLOCK) {
            a = lane_step(a, word_at(block, 0));
            b = lane_step(b, word_at(block, 8));
            c = lane_step(c, word_at(block, 16));
            d = lane_step(d, word_at(block, 24));
        }
        self.lanes = [a, b, c, d];
    }

    /// The checksum of everything updated so far: the length, the four
    /// lanes and the zero-padded tail words, folded in that order.
    pub fn finish(&self) -> u64 {
        let mut h = fold_step(K2, self.total);
        for lane in self.lanes {
            h = fold_step(h, lane);
        }
        for word in self.block[..self.pending].chunks(8) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            h = fold_step(h, u64::from_le_bytes(padded));
        }
        avalanche(h)
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Checksum`] of a byte slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Checksum::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Header + section table
// ---------------------------------------------------------------------------

/// One section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section kind (`SEC_*`).
    pub kind: u32,
    /// Payload offset from the start of the file (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (excluding alignment padding).
    pub len: u64,
    /// [`Checksum`] of the payload bytes.
    pub checksum: u64,
}

fn encode_table(table: &[SectionEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.len() * TABLE_ENTRY_LEN);
    for e in table {
        out.extend_from_slice(&e.kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.checksum.to_le_bytes());
    }
    out
}

/// Encodes the header plus section table (the first
/// `HEADER_LEN + table.len() * TABLE_ENTRY_LEN` bytes of a snapshot).
pub fn encode_header_and_table(file_len: u64, table: &[SectionEntry]) -> Vec<u8> {
    let table_bytes = encode_table(table);
    let mut out = Vec::with_capacity(HEADER_LEN + table_bytes.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(&checksum(&table_bytes).to_le_bytes());
    out.extend_from_slice(&table_bytes);
    out
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// Parses and validates the header and section table of `bytes` (a whole
/// snapshot file). Checks, in order: minimum length, magic, version, the
/// stated file length against the actual one, table bounds, the table
/// checksum, and per-entry bounds/alignment. Payload checksums are *not*
/// verified here — the loader does that per section.
pub fn decode_header_and_table(bytes: &[u8]) -> Result<Vec<SectionEntry>, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32_at(bytes, 8);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let count = u32_at(bytes, 12) as usize;
    if count > 4096 {
        return Err(SnapshotError::Corrupt(format!("implausible section count {count}")));
    }
    let file_len = u64_at(bytes, 16);
    if (bytes.len() as u64) < file_len {
        return Err(SnapshotError::Truncated { expected: file_len, actual: bytes.len() as u64 });
    }
    if (bytes.len() as u64) > file_len {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes past the stated file length",
            bytes.len() as u64 - file_len
        )));
    }
    let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(SnapshotError::Truncated {
            expected: table_end as u64,
            actual: bytes.len() as u64,
        });
    }
    let table_bytes = &bytes[HEADER_LEN..table_end];
    if checksum(table_bytes) != u64_at(bytes, 24) {
        return Err(SnapshotError::ChecksumMismatch { section: "section-table" });
    }
    let mut table = Vec::with_capacity(count);
    for i in 0..count {
        let at = i * TABLE_ENTRY_LEN;
        let entry = SectionEntry {
            kind: u32_at(table_bytes, at),
            offset: u64_at(table_bytes, at + 8),
            len: u64_at(table_bytes, at + 16),
            checksum: u64_at(table_bytes, at + 24),
        };
        let end = entry.offset.checked_add(entry.len).ok_or_else(|| {
            SnapshotError::Corrupt(format!("section {} overflows", section_name(entry.kind)))
        })?;
        if entry.offset < table_end as u64 || end > bytes.len() as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "section {} [{}, {end}) out of file bounds",
                section_name(entry.kind),
                entry.offset,
            )));
        }
        if !entry.offset.is_multiple_of(8) {
            return Err(SnapshotError::Corrupt(format!(
                "section {} misaligned at offset {}",
                section_name(entry.kind),
                entry.offset
            )));
        }
        table.push(entry);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Little-endian decode cursor
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian decode cursor over one section's bytes.
/// Every read is checked; overruns surface as [`SnapshotError::Corrupt`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Dec<'a> {
    /// A cursor over `buf`; `what` names the section for error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Dec { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            SnapshotError::Corrupt(format!(
                "section {}: read of {n} bytes at {} overruns {}-byte payload",
                self.what,
                self.pos,
                self.buf.len()
            ))
        })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` that must fit in `usize` (section counts, offsets).
    pub fn ulen(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            SnapshotError::Corrupt(format!("section {}: length {v} exceeds usize", self.what))
        })
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Reads a UTF-8 string of `n` bytes.
    pub fn str(&mut self, n: usize) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.take(n)?).map_err(|e| {
            SnapshotError::Corrupt(format!("section {}: invalid UTF-8 ({e})", self.what))
        })
    }

    /// Asserts the cursor consumed the payload exactly.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "section {}: {} unread trailing bytes",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Term codec
// ---------------------------------------------------------------------------

const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_PLAIN: u8 = 2;
const TAG_LANG: u8 = 3;
const TAG_TYPED: u8 = 4;

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends the encoded form of `term` to `out`: a one-byte tag followed by
/// `u32`-length-prefixed UTF-8 strings.
pub fn encode_term(term: &Term, out: &mut Vec<u8>) {
    match term {
        Term::Iri(iri) => {
            out.push(TAG_IRI);
            push_str(out, iri);
        }
        Term::Blank(label) => {
            out.push(TAG_BLANK);
            push_str(out, label);
        }
        Term::Literal(lit) => match &lit.kind {
            LiteralKind::Plain => {
                out.push(TAG_PLAIN);
                push_str(out, &lit.lexical);
            }
            LiteralKind::Lang(lang) => {
                out.push(TAG_LANG);
                push_str(out, &lit.lexical);
                push_str(out, lang);
            }
            LiteralKind::Typed(dt) => {
                out.push(TAG_TYPED);
                push_str(out, &lit.lexical);
                push_str(out, dt);
            }
        },
    }
}

fn read_str<'a>(dec: &mut Dec<'a>) -> Result<&'a str, SnapshotError> {
    let len = dec.u32()? as usize;
    dec.str(len)
}

/// Decodes one term written by [`encode_term`].
pub fn decode_term(dec: &mut Dec<'_>) -> Result<Term, SnapshotError> {
    let tag = dec.u8()?;
    Ok(match tag {
        TAG_IRI => Term::Iri(read_str(dec)?.to_string()),
        TAG_BLANK => Term::Blank(read_str(dec)?.to_string()),
        TAG_PLAIN => Term::Literal(Literal::plain(read_str(dec)?)),
        TAG_LANG => {
            let lexical = read_str(dec)?.to_string();
            let lang = read_str(dec)?.to_string();
            Term::Literal(Literal::lang(lexical, lang))
        }
        TAG_TYPED => {
            let lexical = read_str(dec)?.to_string();
            let dt = read_str(dec)?.to_string();
            Term::Literal(Literal::typed(lexical, dt))
        }
        other => return Err(SnapshotError::Corrupt(format!("unknown term tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test bytes (a 64-bit LCG).
    fn lcg_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum_streaming_equals_one_shot_at_every_split() {
        let data = lcg_bytes(200, 1);
        for len in 0..=data.len() {
            let whole = checksum(&data[..len]);
            for split in 0..=len {
                let mut streaming = Checksum::new();
                streaming.update(&data[..split]);
                streaming.update(&data[split..len]);
                assert_eq!(streaming.finish(), whole, "len {len} split at {split}");
            }
        }
        // Random chunkings of 1 MiB, including empty chunks.
        let big = lcg_bytes(1 << 20, 2);
        let whole = checksum(&big);
        let mut state = 7u64;
        for _ in 0..8 {
            let mut streaming = Checksum::new();
            let mut rest = &big[..];
            while !rest.is_empty() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let take = (state % 5000) as usize % (rest.len() + 1);
                streaming.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(streaming.finish(), whole);
        }
    }

    #[test]
    fn checksum_changes_on_every_single_bit_flip() {
        let data = lcg_bytes(257, 3);
        let clean = checksum(&data);
        let mut flipped = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), clean, "flip of bit {bit} in byte {byte}");
                flipped[byte] ^= 1 << bit;
            }
        }
        // Length and order matter too.
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0; 32]), checksum(&[0; 33]));
    }

    /// Pinned values: the checksum is part of the on-disk format, so a
    /// change to it must come with a format (and journal) version bump.
    #[test]
    fn checksum_pins_known_values() {
        assert_eq!(checksum(b""), 0x9d91_394b_1191_47ac);
        assert_eq!(
            checksum(b"parambench snapshot checksum, format version 3"),
            0xdfad_b5e1_4e23_361e
        );
    }

    #[test]
    fn header_round_trip() {
        let table = vec![
            SectionEntry { kind: SEC_META, offset: 640, len: 24, checksum: 7 },
            SectionEntry { kind: sec_triples(3), offset: 664, len: 0, checksum: checksum(b"") },
        ];
        // Stated file length must cover the largest section end.
        let mut bytes = encode_header_and_table(664, &table);
        bytes.resize(664, 0);
        // Fix file_len to the padded size for the round trip.
        let mut bytes2 = encode_header_and_table(bytes.len() as u64, &table);
        bytes2.resize(bytes.len(), 0);
        let decoded = decode_header_and_table(&bytes2).expect("valid header");
        assert_eq!(decoded, table);
    }

    #[test]
    fn header_rejections_are_typed() {
        assert_eq!(
            decode_header_and_table(&[0u8; 8]),
            Err(SnapshotError::Truncated { expected: 32, actual: 8 })
        );
        let mut bad_magic = encode_header_and_table(32, &[]);
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_header_and_table(&bad_magic), Err(SnapshotError::BadMagic));

        let mut bad_version = encode_header_and_table(32, &[]);
        bad_version[8] = 99;
        // Re-stating file_len is unnecessary: version is checked before it.
        assert_eq!(
            decode_header_and_table(&bad_version),
            Err(SnapshotError::UnsupportedVersion { found: 99, supported: VERSION })
        );

        // A flipped table byte fails the table checksum.
        let table = vec![SectionEntry { kind: SEC_META, offset: 64, len: 8, checksum: 1 }];
        let mut bytes = encode_header_and_table(72, &table);
        bytes.resize(72, 0);
        let mut flipped = encode_header_and_table(72, &table);
        flipped.resize(72, 0);
        flipped[HEADER_LEN + 1] ^= 0x10;
        assert_eq!(
            decode_header_and_table(&flipped),
            Err(SnapshotError::ChecksumMismatch { section: "section-table" })
        );
        assert!(decode_header_and_table(&bytes).is_ok());
    }

    #[test]
    fn term_codec_round_trip() {
        let terms = vec![
            Term::iri("http://example.org/thing"),
            Term::Blank("b0".into()),
            Term::literal("plain \"text\"\n"),
            Term::Literal(Literal::lang("hola", "es")),
            Term::integer(-42),
            Term::double(f64::NAN),
        ];
        let mut blob = Vec::new();
        for t in &terms {
            encode_term(t, &mut blob);
        }
        let mut dec = Dec::new(&blob, "term-blob");
        for t in &terms {
            assert_eq!(&decode_term(&mut dec).expect("decodes"), t);
        }
        dec.done().expect("fully consumed");
    }

    #[test]
    fn term_decode_rejects_garbage() {
        let mut dec = Dec::new(&[9u8, 0, 0, 0, 0], "term-blob");
        assert!(matches!(decode_term(&mut dec), Err(SnapshotError::Corrupt(_))));
        // A length that overruns the payload is caught, not read.
        let mut blob = Vec::new();
        blob.push(0u8); // IRI tag
        blob.extend_from_slice(&100u32.to_le_bytes());
        blob.extend_from_slice(b"short");
        let mut dec = Dec::new(&blob, "term-blob");
        assert!(matches!(decode_term(&mut dec), Err(SnapshotError::Corrupt(_))));
    }
}
