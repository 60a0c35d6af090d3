//! Persistent store snapshots: `Dataset::save` / `Dataset::load`.
//!
//! A snapshot is a single file in the [`crate::format`] container holding
//! everything a frozen [`Dataset`] computed at freeze time: the
//! value-ordered dictionary (terms, numeric cache, presence bitmap), the
//! six sorted triple-key arrays with their bucket directories, the dataset
//! statistics and the characteristic sets. Loading therefore performs **no
//! rebuild work** — no [`crate::dict::Dictionary::reorder_by_value`], no
//! [`crate::index::PermIndex::build`], no sorting — which is the point:
//! the server layer can restart and admit its first query after a
//! checksum-verified read instead of a full freeze
//! (`crate::diag` counts both rebuild steps so tests can assert this
//! structurally).
//!
//! The triple and bucket sections are additionally **zero-copy**: on a
//! 64-bit unix little-endian host the file is `mmap`ed (a thin
//! `extern "C"` wrapper — the container has no `libc` crate) and scans
//! binary-search the mapped bytes directly, reinterpreted as `[Id; 3]`
//! keys via the crate-internal `SectionSlice`. Everywhere else — or when
//! the kernel refuses the mapping — the file is read into an
//! 8-byte-aligned arena and the same reinterpretation applies. Loading
//! still touches every byte once (the per-section checksums are always
//! verified, which doubles as page-cache warm-up); what it never does is
//! allocate, decode or sort per-triple state. The checksum is the
//! word-parallel [`crate::format::Checksum`], so that pass runs at memory
//! speed, and the only per-term allocations are the decoded terms
//! themselves: the dictionary's term → id index is a table of ids into
//! them, built in one pass.
//!
//! Robustness contract: truncated files, foreign files, unsupported
//! versions and flipped bytes surface as typed [`SnapshotError`]s — never
//! a panic, never undefined behaviour. One caveat inherent to file
//! mapping: the snapshot file must not be truncated by another process
//! *while a loaded dataset is live* (the OS would deliver SIGBUS on
//! access, as with any mapped file). Deleting it is fine — the mapping
//! keeps the inode alive.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

use crate::dict::{Dictionary, Id};
use crate::fault::{seam_rename, seam_sync_dir, temp_sibling, IoSeam, SeamFile};
use crate::format::{
    checksum, decode_header_and_table, decode_term, encode_header_and_table, encode_term,
    sec_buckets, sec_triples, section_name, Checksum, Dec, SectionEntry, SnapshotError,
    FLAG_VALUE_TIES, HEADER_LEN, SECTION_COUNT, SEC_CHAR_SETS, SEC_META, SEC_NUMERIC,
    SEC_NUMERIC_SET, SEC_STATS, SEC_TERM_BLOB, SEC_TERM_OFFSETS, SEC_WINDOW_SUMS, TABLE_ENTRY_LEN,
};
use crate::index::{Bucket, BucketStore, IndexOrder, KeyStore, PermIndex};
use crate::stats::{CharacteristicSets, CsEntry, DatasetStats, PredicateStats};
use crate::store::Dataset;
use crate::term::Term;

/// Window size (bytes) used when *writing* the per-window checksum
/// section. Verification reads the size from the file, so this can change
/// without a format bump.
pub const VERIFY_WINDOW_BYTES: usize = 1 << 20;

/// How a snapshot load verifies section payloads against their
/// checksums. [`Dataset::load`] always verifies [`VerifyMode::Full`];
/// [`Dataset::load_with_verify`] picks the mode explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Hash every section whole and compare with its table checksum.
    Full,
    /// Verify the window-sums section whole, then every section in
    /// fixed-size windows against its recorded per-window sums — same
    /// byte coverage, failure granularity of one window, and the shape
    /// that lets stores much larger than RAM skip the up-front sequential
    /// read one day.
    Windowed,
}

// ---------------------------------------------------------------------------
// Byte storage: mmap on 64-bit unix, aligned arena everywhere else
// ---------------------------------------------------------------------------

#[cfg(all(unix, target_pointer_width = "64"))]
mod mapping {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // POSIX values, stable across linux and the BSDs for these two flags.
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// A read-only, private, whole-file mapping. Thin `extern "C"` wrapper
    /// because the build is offline and carries no `libc` crate.
    pub(crate) struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // A PROT_READ + MAP_PRIVATE mapping is never written through, so
    // sharing the (page-aligned, immutable) bytes across threads is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file`; `None` when the kernel refuses
        /// (callers fall back to the arena path).
        pub(crate) fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None; // mmap(…, 0, …) is EINVAL
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            // MAP_FAILED is (void*)-1.
            if ptr.is_null() || ptr as usize == usize::MAX {
                None
            } else {
                Some(Mmap { ptr, len })
            }
        }

        pub(crate) fn as_slice(&self) -> &[u8] {
            // Sound: the mapping covers exactly `len` readable bytes and
            // lives until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // Failure is unrecoverable and harmless at this point (the
            // address range simply stays reserved until process exit).
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// The bytes of an opened snapshot: an OS file mapping on the zero-copy
/// fast path, or an 8-byte-aligned heap arena as the portable fallback.
/// [`SectionSlice`]s hold an `Arc` of this, so the bytes outlive every
/// view handed out of a loaded [`Dataset`].
pub(crate) enum SnapshotBytes {
    /// `mmap`ed file (64-bit unix only).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapping::Mmap),
    /// File contents copied into `u64` words: 8-byte base alignment for
    /// the same zero-copy section casts the mapping enjoys.
    Arena {
        /// Backing words; the first `len` bytes are the file image.
        words: Vec<u64>,
        /// Exact file length in bytes.
        len: usize,
    },
}

impl SnapshotBytes {
    /// Opens `path`, mapping it when possible.
    pub(crate) fn open(path: &Path) -> Result<Self, SnapshotError> {
        let io_err = |op: &'static str, e: std::io::Error| SnapshotError::Io {
            op,
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = File::open(path).map_err(|e| io_err("open snapshot", e))?;
            let len = file.metadata().map_err(|e| io_err("stat snapshot", e))?.len();
            let len = usize::try_from(len)
                .map_err(|_| SnapshotError::Corrupt(format!("file length {len} exceeds usize")))?;
            if let Some(m) = mapping::Mmap::map(&file, len) {
                return Ok(SnapshotBytes::Mapped(m));
            }
            // Zero-length or unmappable: fall through to the arena read.
        }
        let data = std::fs::read(path).map_err(|e| io_err("read snapshot", e))?;
        Ok(Self::arena(data))
    }

    /// Copies a raw file image into an aligned arena.
    pub(crate) fn arena(data: Vec<u8>) -> Self {
        let len = data.len();
        let mut words = Vec::with_capacity(len.div_ceil(8));
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            words.push(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            words.push(u64::from_ne_bytes(last));
        }
        SnapshotBytes::Arena { words, len }
    }

    /// The file image.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotBytes::Mapped(m) => m.as_slice(),
            SnapshotBytes::Arena { words, len } => {
                // Sound: `words` holds at least `len` initialized bytes and
                // u8 has no alignment requirement.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
        }
    }

    /// True for an OS file mapping (false for the arena fallback).
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotBytes::Mapped(_) => true,
            SnapshotBytes::Arena { .. } => false,
        }
    }
}

impl std::fmt::Debug for SnapshotBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnapshotBytes({} bytes, {})",
            self.as_slice().len(),
            if self.is_mapped() { "mapped" } else { "arena" }
        )
    }
}

// ---------------------------------------------------------------------------
// Zero-copy section views
// ---------------------------------------------------------------------------

/// Marker for fixed-layout types that may be reinterpreted directly from
/// snapshot bytes.
///
/// # Safety
/// Implementors must have a fully defined layout (`repr(C)` or
/// `repr(transparent)` down to primitives), no padding bytes, no alignment
/// above 8, and every bit pattern must be a valid value. The *semantic*
/// correctness of the cast additionally requires a little-endian host;
/// the loader only constructs mapped views under
/// `cfg(target_endian = "little")` and decodes to the heap otherwise.
pub(crate) unsafe trait Plain: Copy + 'static {}

// [Id; 3]: Id is repr(transparent) over u32; arrays have no padding.
unsafe impl Plain for [Id; 3] {}
// Bucket: repr(C) of two u32s — 8 bytes, align 4, no padding.
unsafe impl Plain for Bucket {}

/// A typed view over one section of a snapshot, keeping the underlying
/// bytes alive via `Arc`. Bounds, element-size divisibility and alignment
/// are all validated at construction, so [`SectionSlice::as_slice`] is
/// infallible.
#[derive(Debug, Clone)]
pub(crate) struct SectionSlice<T: Plain> {
    bytes: Arc<SnapshotBytes>,
    offset: usize,
    count: usize,
    _marker: PhantomData<T>,
}

impl<T: Plain> SectionSlice<T> {
    pub(crate) fn new(
        bytes: Arc<SnapshotBytes>,
        offset: usize,
        byte_len: usize,
    ) -> Result<Self, String> {
        let size = std::mem::size_of::<T>();
        let end = offset
            .checked_add(byte_len)
            .ok_or_else(|| format!("section [{offset}, +{byte_len}) overflows"))?;
        if end > bytes.as_slice().len() {
            return Err(format!(
                "section [{offset}, {end}) out of bounds of {} bytes",
                bytes.as_slice().len()
            ));
        }
        if !byte_len.is_multiple_of(size) {
            return Err(format!("section length {byte_len} not a multiple of {size}"));
        }
        let addr = bytes.as_slice().as_ptr() as usize + offset;
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!("section at address {addr:#x} misaligned for the element type"));
        }
        Ok(SectionSlice { bytes, offset, count: byte_len / size, _marker: PhantomData })
    }

    /// The section as a typed slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // Sound: construction validated bounds, size divisibility and
        // alignment, `T: Plain` guarantees every bit pattern is valid, and
        // the Arc keeps the bytes alive for `&self`'s lifetime.
        unsafe {
            std::slice::from_raw_parts(
                self.bytes.as_slice().as_ptr().add(self.offset).cast::<T>(),
                self.count,
            )
        }
    }

    /// True when the backing bytes are an OS file mapping.
    pub(crate) fn is_os_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// A checksumming, length-counting section writer that additionally folds
/// the bytes into fixed-size window hashes for the window-sums section.
struct Sink<'a, W: Write> {
    w: &'a mut W,
    hash: Checksum,
    written: u64,
    /// Window size in bytes (the save-time [`VERIFY_WINDOW_BYTES`], or a
    /// tiny test override).
    window: usize,
    /// Hash of the current (possibly partial) window.
    win_hash: Checksum,
    /// Bytes folded into `win_hash` so far.
    win_fill: usize,
    /// Completed window sums.
    sums: Vec<u64>,
}

impl<W: Write> Sink<'_, W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)?;
        self.hash.update(bytes);
        self.written += bytes.len() as u64;
        let mut rest = bytes;
        while !rest.is_empty() {
            let take = (self.window - self.win_fill).min(rest.len());
            self.win_hash.update(&rest[..take]);
            self.win_fill += take;
            rest = &rest[take..];
            if self.win_fill == self.window {
                self.sums.push(std::mem::take(&mut self.win_hash).finish());
                self.win_fill = 0;
            }
        }
        Ok(())
    }
}

/// Writes one section: runs `f` through a [`Sink`], records the table
/// entry and the section's per-window sums, and pads the stream to the
/// next 8-byte boundary (padding is neither counted nor checksummed).
fn emit<W: Write>(
    w: &mut W,
    pos: &mut u64,
    table: &mut Vec<SectionEntry>,
    window_sums: &mut Vec<(u32, Vec<u64>)>,
    window: usize,
    kind: u32,
    f: impl FnOnce(&mut Sink<'_, W>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut sink = Sink {
        w,
        hash: Checksum::new(),
        written: 0,
        window,
        win_hash: Checksum::new(),
        win_fill: 0,
        sums: Vec::new(),
    };
    f(&mut sink)?;
    let (hash, written) = (sink.hash, sink.written);
    let mut sums = sink.sums;
    if sink.win_fill > 0 {
        sums.push(sink.win_hash.finish());
    }
    table.push(SectionEntry { kind, offset: *pos, len: written, checksum: hash.finish() });
    window_sums.push((kind, sums));
    *pos += written;
    let pad = ((8 - (*pos % 8) as usize) % 8) as u64;
    w.write_all(&[0u8; 8][..pad as usize])?;
    *pos += pad;
    Ok(())
}

fn save_to(ds: &Dataset, path: &Path, window: usize, seam: &IoSeam) -> std::io::Result<()> {
    assert!(window > 0, "window size must be positive");
    let mut file = SeamFile::create(path, seam)?;
    let reserved = HEADER_LEN + SECTION_COUNT * TABLE_ENTRY_LEN;
    let mut pos = reserved as u64;
    let mut table: Vec<SectionEntry> = Vec::with_capacity(SECTION_COUNT);
    let mut window_sums: Vec<(u32, Vec<u64>)> = Vec::with_capacity(SECTION_COUNT);
    {
        let mut w = BufWriter::new(&mut file);
        w.write_all(&vec![0u8; reserved])?;

        let (terms, numeric, numeric_set, ties) = ds.dict.parts();
        let triple_count = ds.indexes[0].len() as u64;

        // META: term count, triple count, flags.
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_META, |s| {
            s.write(&(terms.len() as u64).to_le_bytes())?;
            s.write(&triple_count.to_le_bytes())?;
            s.write(&(if ties { FLAG_VALUE_TIES } else { 0u64 }).to_le_bytes())
        })?;

        // Dictionary: offsets + blob + numeric cache + presence bitmap.
        let mut blob = Vec::new();
        let mut offsets = Vec::with_capacity((terms.len() + 1) * 8);
        offsets.extend_from_slice(&0u64.to_le_bytes());
        for t in terms {
            encode_term(t, &mut blob);
            offsets.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        }
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_TERM_OFFSETS, |s| {
            s.write(&offsets)
        })?;
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_TERM_BLOB, |s| {
            s.write(&blob)
        })?;
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_NUMERIC, |s| {
            let mut buf = Vec::with_capacity(numeric.len() * 8);
            for v in numeric {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            s.write(&buf)
        })?;
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_NUMERIC_SET, |s| {
            let mut buf = Vec::with_capacity(numeric_set.len() * 8);
            for word in numeric_set {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            s.write(&buf)
        })?;

        // Statistics, sorted by predicate id for deterministic bytes.
        let stats = &ds.stats;
        let mut preds: Vec<Id> = stats.per_predicate().keys().copied().collect();
        preds.sort_unstable();
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_STATS, |s| {
            let mut buf = Vec::with_capacity(32 + preds.len() * 32);
            buf.extend_from_slice(&(stats.total_triples as u64).to_le_bytes());
            buf.extend_from_slice(&(stats.distinct_subjects as u64).to_le_bytes());
            buf.extend_from_slice(&(stats.distinct_objects as u64).to_le_bytes());
            buf.extend_from_slice(&(preds.len() as u64).to_le_bytes());
            for p in &preds {
                let ps = stats.per_predicate()[p];
                buf.extend_from_slice(&p.0.to_le_bytes());
                buf.extend_from_slice(&0u32.to_le_bytes());
                buf.extend_from_slice(&(ps.triples as u64).to_le_bytes());
                buf.extend_from_slice(&(ps.distinct_subjects as u64).to_le_bytes());
                buf.extend_from_slice(&(ps.distinct_objects as u64).to_le_bytes());
            }
            s.write(&buf)
        })?;

        // Characteristic sets (already sorted by predicate set).
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_CHAR_SETS, |s| {
            let entries = ds.char_sets.entries();
            let mut buf = Vec::new();
            buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (set_preds, entry) in entries {
                buf.extend_from_slice(&(set_preds.len() as u64).to_le_bytes());
                buf.extend_from_slice(&(entry.subjects as u64).to_le_bytes());
                for p in set_preds {
                    buf.extend_from_slice(&p.0.to_le_bytes());
                }
                if set_preds.len() % 2 == 1 {
                    buf.extend_from_slice(&0u32.to_le_bytes());
                }
                for p in set_preds {
                    buf.extend_from_slice(&(entry.triples[p] as u64).to_le_bytes());
                }
            }
            s.write(&buf)
        })?;

        // The six indexes: sorted key arrays + bucket directories, written
        // in bounded chunks so huge stores never buffer a whole section.
        for slot in 0..6 {
            let idx = &ds.indexes[slot];
            emit(&mut w, &mut pos, &mut table, &mut window_sums, window, sec_triples(slot), |s| {
                let mut buf = Vec::with_capacity(12 * 4096);
                for chunk in idx.keys().chunks(4096) {
                    buf.clear();
                    for key in chunk {
                        for id in key {
                            buf.extend_from_slice(&id.0.to_le_bytes());
                        }
                    }
                    s.write(&buf)?;
                }
                Ok(())
            })?;
            emit(&mut w, &mut pos, &mut table, &mut window_sums, window, sec_buckets(slot), |s| {
                let mut buf = Vec::with_capacity(8 * 4096);
                for chunk in idx.buckets().chunks(4096) {
                    buf.clear();
                    for b in chunk {
                        buf.extend_from_slice(&b.key.0.to_le_bytes());
                        buf.extend_from_slice(&b.start.to_le_bytes());
                    }
                    s.write(&buf)?;
                }
                Ok(())
            })?;
        }
        // The per-window checksum section, last: every *other* section's
        // window sums, in table order (its own whole-section checksum in
        // the table is what windowed verification checks it against).
        let mut sums_payload = Vec::new();
        sums_payload.extend_from_slice(&(window as u64).to_le_bytes());
        sums_payload.extend_from_slice(&(window_sums.len() as u64).to_le_bytes());
        for (kind, sums) in &window_sums {
            sums_payload.extend_from_slice(&kind.to_le_bytes());
            sums_payload.extend_from_slice(&0u32.to_le_bytes());
            sums_payload.extend_from_slice(&(sums.len() as u64).to_le_bytes());
            for sum in sums {
                sums_payload.extend_from_slice(&sum.to_le_bytes());
            }
        }
        emit(&mut w, &mut pos, &mut table, &mut window_sums, window, SEC_WINDOW_SUMS, |s| {
            s.write(&sums_payload)
        })?;
        w.flush()?;
    }
    assert_eq!(table.len(), SECTION_COUNT, "section layout drifted from SECTION_COUNT");
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&encode_header_and_table(pos, &table))?;
    file.flush()?;
    // The validating header is down before the save is reported complete;
    // the caller's rename-over-destination then makes publication atomic.
    file.sync()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

#[cfg(target_endian = "little")]
fn key_store(bytes: &Arc<SnapshotBytes>, e: SectionEntry) -> Result<KeyStore, SnapshotError> {
    SectionSlice::new(bytes.clone(), e.offset as usize, e.len as usize)
        .map(KeyStore::Mapped)
        .map_err(corrupt)
}

#[cfg(not(target_endian = "little"))]
fn key_store(bytes: &Arc<SnapshotBytes>, e: SectionEntry) -> Result<KeyStore, SnapshotError> {
    let p = &bytes.as_slice()[e.offset as usize..(e.offset + e.len) as usize];
    let keys = p
        .chunks_exact(12)
        .map(|c| {
            [
                Id(u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"))),
                Id(u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"))),
                Id(u32::from_le_bytes(c[8..12].try_into().expect("4 bytes"))),
            ]
        })
        .collect();
    Ok(KeyStore::Heap(keys))
}

#[cfg(target_endian = "little")]
fn bucket_store(bytes: &Arc<SnapshotBytes>, e: SectionEntry) -> Result<BucketStore, SnapshotError> {
    SectionSlice::new(bytes.clone(), e.offset as usize, e.len as usize)
        .map(BucketStore::Mapped)
        .map_err(corrupt)
}

#[cfg(not(target_endian = "little"))]
fn bucket_store(bytes: &Arc<SnapshotBytes>, e: SectionEntry) -> Result<BucketStore, SnapshotError> {
    let p = &bytes.as_slice()[e.offset as usize..(e.offset + e.len) as usize];
    let buckets = p
        .chunks_exact(8)
        .map(|c| Bucket {
            key: Id(u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"))),
            start: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
        })
        .collect();
    Ok(BucketStore::Heap(buckets))
}

/// Verifies every section in fixed-size windows against the window-sums
/// section (whose own whole-section checksum must already have been
/// verified). Byte coverage is identical to full verification; only the
/// unit of comparison differs.
fn verify_windowed(
    data: &[u8],
    table: &[SectionEntry],
    sums: SectionEntry,
) -> Result<(), SnapshotError> {
    let payload = &data[sums.offset as usize..(sums.offset + sums.len) as usize];
    let mut dec = Dec::new(payload, "window-sums");
    let window = dec.u64()? as usize;
    if window == 0 || window > 1 << 32 {
        return Err(corrupt(format!("implausible verification window size {window}")));
    }
    let listed = dec.u64()? as usize;
    if listed != table.len() - 1 {
        return Err(corrupt(format!(
            "window-sums lists {listed} sections, table holds {} others",
            table.len() - 1
        )));
    }
    for e in table.iter().filter(|e| e.kind != SEC_WINDOW_SUMS) {
        let kind = dec.u32()?;
        if kind != e.kind {
            return Err(corrupt(format!(
                "window-sums lists section {} where the table has {}",
                section_name(kind),
                section_name(e.kind)
            )));
        }
        if dec.u32()? != 0 {
            return Err(corrupt("window-sums padding must be zero"));
        }
        let count = dec.u64()? as usize;
        if count != (e.len as usize).div_ceil(window) {
            return Err(corrupt(format!(
                "section {} of {} bytes needs {} windows of {window}, sums list {count}",
                section_name(e.kind),
                e.len,
                (e.len as usize).div_ceil(window)
            )));
        }
        let section = &data[e.offset as usize..(e.offset + e.len) as usize];
        for win in section.chunks(window) {
            if checksum(win) != dec.u64()? {
                return Err(SnapshotError::ChecksumMismatch { section: section_name(e.kind) });
            }
        }
    }
    dec.done()
}

fn load_from(bytes: Arc<SnapshotBytes>, verify: VerifyMode) -> Result<Dataset, SnapshotError> {
    let data = bytes.as_slice();
    let table = decode_header_and_table(data)?;
    if table.len() != SECTION_COUNT {
        return Err(corrupt(format!(
            "snapshot must carry {SECTION_COUNT} sections, found {}",
            table.len()
        )));
    }
    let mut by_kind: HashMap<u32, SectionEntry> = HashMap::with_capacity(table.len());
    for e in &table {
        if by_kind.insert(e.kind, *e).is_some() {
            return Err(corrupt(format!("duplicate section {}", section_name(e.kind))));
        }
    }
    // Every payload byte is checksum-verified before any section is
    // interpreted — whole sections in full mode, fixed windows otherwise.
    match verify {
        VerifyMode::Full => {
            for e in &table {
                let payload = &data[e.offset as usize..(e.offset + e.len) as usize];
                if checksum(payload) != e.checksum {
                    return Err(SnapshotError::ChecksumMismatch { section: section_name(e.kind) });
                }
            }
        }
        VerifyMode::Windowed => {
            let sums = by_kind
                .get(&SEC_WINDOW_SUMS)
                .copied()
                .ok_or_else(|| corrupt("missing section window-sums"))?;
            let payload = &data[sums.offset as usize..(sums.offset + sums.len) as usize];
            if checksum(payload) != sums.checksum {
                return Err(SnapshotError::ChecksumMismatch { section: section_name(sums.kind) });
            }
            verify_windowed(data, &table, sums)?;
        }
    }
    let find = |kind: u32| -> Result<SectionEntry, SnapshotError> {
        by_kind
            .get(&kind)
            .copied()
            .ok_or_else(|| corrupt(format!("missing section {}", section_name(kind))))
    };
    let payload = |e: SectionEntry| &data[e.offset as usize..(e.offset + e.len) as usize];

    // META.
    let mut dec = Dec::new(payload(find(SEC_META)?), "meta");
    let term_count = dec.ulen()?;
    let triple_count = dec.ulen()?;
    let flags = dec.u64()?;
    dec.done()?;
    if flags & !FLAG_VALUE_TIES != 0 {
        return Err(corrupt(format!("unknown meta flag bits {:#x}", flags & !FLAG_VALUE_TIES)));
    }
    let ties = flags & FLAG_VALUE_TIES != 0;

    // Dictionary. The offsets section's length must agree with META's term
    // count *before* any term-sized allocation happens, so an implausible
    // count can never balloon memory.
    let offs_entry = find(SEC_TERM_OFFSETS)?;
    if offs_entry.len
        != (term_count as u64 + 1).checked_mul(8).ok_or_else(|| corrupt("term count overflows"))?
    {
        return Err(corrupt(format!(
            "term-offsets section holds {} bytes for {term_count} terms",
            offs_entry.len
        )));
    }
    let mut offsets = Dec::new(payload(offs_entry), "term-offsets");
    if offsets.u64()? != 0 {
        return Err(corrupt("term offsets must start at 0"));
    }
    let mut blob = Dec::new(payload(find(SEC_TERM_BLOB)?), "term-blob");
    let mut terms: Vec<Term> = Vec::with_capacity(term_count);
    for i in 0..term_count {
        let term = decode_term(&mut blob)?;
        let end = offsets.u64()? as usize;
        if end != blob.pos() {
            return Err(corrupt(format!(
                "term {i} ends at {} but offsets claim {end}",
                blob.pos()
            )));
        }
        terms.push(term);
    }
    blob.done()?;
    offsets.done()?;

    let num_entry = find(SEC_NUMERIC)?;
    if num_entry.len != term_count as u64 * 8 {
        return Err(corrupt(format!(
            "numeric section holds {} bytes for {term_count} terms",
            num_entry.len
        )));
    }
    let numeric: Vec<f64> = payload(num_entry)
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    let set_entry = find(SEC_NUMERIC_SET)?;
    if set_entry.len != term_count.div_ceil(64) as u64 * 8 {
        return Err(corrupt(format!(
            "numeric bitmap holds {} bytes for {term_count} terms",
            set_entry.len
        )));
    }
    let numeric_set: Vec<u64> = payload(set_entry)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let dict = Dictionary::from_parts(terms, numeric, numeric_set, ties).map_err(corrupt)?;

    // Statistics.
    let stats_entry = find(SEC_STATS)?;
    let mut dec = Dec::new(payload(stats_entry), "stats");
    let total_triples = dec.ulen()?;
    let distinct_subjects = dec.ulen()?;
    let distinct_objects = dec.ulen()?;
    let pred_count = dec.ulen()?;
    if stats_entry.len != 32 + pred_count as u64 * 32 {
        return Err(corrupt(format!(
            "stats section holds {} bytes for {pred_count} predicates",
            stats_entry.len
        )));
    }
    if total_triples != triple_count {
        return Err(corrupt(format!(
            "stats count {total_triples} disagrees with {triple_count} triples"
        )));
    }
    let mut per_predicate = HashMap::with_capacity(pred_count);
    let mut last_pred: Option<u32> = None;
    let mut pred_sum = 0u64;
    for _ in 0..pred_count {
        let p = dec.u32()?;
        if dec.u32()? != 0 {
            return Err(corrupt("stats reserved bytes must be zero"));
        }
        if last_pred.is_some_and(|prev| prev >= p) {
            return Err(corrupt("stats predicates not strictly ascending"));
        }
        last_pred = Some(p);
        if p as usize >= dict.len() {
            return Err(corrupt(format!("stats predicate #{p} out of {} terms", dict.len())));
        }
        let triples = dec.ulen()?;
        let ds = dec.ulen()?;
        let dobj = dec.ulen()?;
        pred_sum += triples as u64;
        per_predicate.insert(
            Id(p),
            PredicateStats { triples, distinct_subjects: ds, distinct_objects: dobj },
        );
    }
    dec.done()?;
    if pred_sum != triple_count as u64 {
        return Err(corrupt("per-predicate triple counts do not sum to the triple count"));
    }
    let stats =
        DatasetStats::from_parts(total_triples, distinct_subjects, distinct_objects, per_predicate);

    // Characteristic sets.
    let mut dec = Dec::new(payload(find(SEC_CHAR_SETS)?), "characteristic-sets");
    let set_count = dec.ulen()?;
    if set_count > dec.remaining() / 16 {
        return Err(corrupt(format!("implausible characteristic-set count {set_count}")));
    }
    let mut sets: Vec<(Vec<Id>, CsEntry)> = Vec::with_capacity(set_count);
    let mut cs_sum = 0u64;
    for _ in 0..set_count {
        let n_preds = dec.ulen()?;
        let subjects = dec.ulen()?;
        if n_preds > dec.remaining() / 12 {
            return Err(corrupt(format!("implausible characteristic-set width {n_preds}")));
        }
        let mut set_preds = Vec::with_capacity(n_preds);
        for _ in 0..n_preds {
            let p = dec.u32()?;
            if p as usize >= dict.len() {
                return Err(corrupt(format!(
                    "characteristic-set predicate #{p} out of {} terms",
                    dict.len()
                )));
            }
            set_preds.push(Id(p));
        }
        if n_preds % 2 == 1 && dec.u32()? != 0 {
            return Err(corrupt("characteristic-set padding must be zero"));
        }
        let mut triples = HashMap::with_capacity(n_preds);
        for &p in &set_preds {
            let c = dec.ulen()?;
            cs_sum += c as u64;
            triples.insert(p, c);
        }
        sets.push((set_preds, CsEntry { subjects, triples }));
    }
    dec.done()?;
    if cs_sum != triple_count as u64 {
        return Err(corrupt("characteristic-set triple counts do not sum to the triple count"));
    }
    let char_sets = CharacteristicSets::from_parts(sets).map_err(corrupt)?;

    // The six indexes: zero-copy views (or the big-endian heap decode),
    // validated structurally — never rebuilt.
    let mut indexes = Vec::with_capacity(6);
    for (slot, &order) in IndexOrder::ALL.iter().enumerate() {
        let trip = find(sec_triples(slot))?;
        if trip.len != triple_count as u64 * 12 {
            return Err(corrupt(format!(
                "{order:?} key section holds {} bytes for {triple_count} triples",
                trip.len
            )));
        }
        let buck = find(sec_buckets(slot))?;
        if buck.len % 8 != 0 {
            return Err(corrupt(format!(
                "{order:?} bucket section length {} not 8-aligned",
                buck.len
            )));
        }
        let keys = key_store(&bytes, trip)?;
        let buckets = bucket_store(&bytes, buck)?;
        indexes.push(PermIndex::from_parts(order, keys, buckets, dict.len()).map_err(corrupt)?);
    }
    let indexes: [PermIndex; 6] = indexes.try_into().expect("six index orders");

    Ok(Dataset {
        dict,
        indexes,
        stats,
        char_sets,
        overlay: crate::overlay::Overlay::default(),
        update_log: None,
    })
}

impl Dataset {
    /// Persists this dataset as a snapshot at `path`, atomically: the
    /// bytes are written and fsynced to a temp file in `path`'s directory
    /// (payload first, validating header last), renamed over the
    /// destination, and the directory is fsynced — a crash mid-save leaves
    /// the previous snapshot at `path` untouched, never a half-written
    /// file. Snapshot bytes are deterministic: the same dataset always
    /// serializes identically.
    ///
    /// The snapshot format stores the frozen base only, so a dataset with
    /// pending overlay updates is refused ([`SnapshotError::PendingUpdates`])
    /// — call [`Dataset::compact`] first. A dictionary that grew post-freeze
    /// overflow terms is refused even when the overlay cancelled back to
    /// empty ([`SnapshotError::OverflowTerms`]): the format has no overflow
    /// watermark, so [`Dataset::load`] would treat the out-of-value-order
    /// overflow ids as value-ordered and re-enable the sort elimination
    /// this store's [`Dataset::order_by_value_intact`] gate declines.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        self.save_with(path, &IoSeam::none())
    }

    /// [`Dataset::save`] with write-side I/O routed through a
    /// fault-injection seam ([`crate::fault::IoSeam`]), exposing every
    /// step of the atomic-publication protocol — temp-file writes, file
    /// fsync, rename, directory fsync — to scripted failures.
    pub fn save_with(&self, path: &Path, seam: &IoSeam) -> Result<(), SnapshotError> {
        if !self.overlay.is_empty() {
            return Err(SnapshotError::PendingUpdates {
                adds: self.overlay.adds_len(),
                dels: self.overlay.dels_len(),
            });
        }
        if self.dict.len() > self.frozen_terms() || !self.order_by_value_intact() {
            return Err(SnapshotError::OverflowTerms {
                overflow: self.dict.len() - self.frozen_terms(),
            });
        }
        let io_err = |op: &'static str, e: std::io::Error| SnapshotError::Io {
            op,
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        // Atomic publication: write and fsync a temp sibling, rename it
        // over the destination, fsync the directory. A crash at any point
        // leaves either the old complete snapshot or the new complete
        // snapshot at `path` — never a torn hybrid — and a stray temp file
        // at worst.
        let tmp = temp_sibling(path);
        if let Err(e) = save_to(self, &tmp, VERIFY_WINDOW_BYTES, seam) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err("write snapshot", e));
        }
        if let Err(e) = seam_rename(seam, &tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err("publish snapshot", e));
        }
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        seam_sync_dir(seam, dir).map_err(|e| io_err("sync snapshot directory", e))
    }

    /// Loads a dataset saved by [`Dataset::save`], verifying the magic,
    /// version and every section checksum ([`VerifyMode::Full`]), then
    /// serving scans zero-copy from the file bytes — no dictionary
    /// reorder, no index sort, no per-triple allocation (see the module
    /// docs for the exact contract and the arena fallback).
    pub fn load(path: &Path) -> Result<Dataset, SnapshotError> {
        Self::load_with_verify(path, VerifyMode::Full)
    }

    /// [`Dataset::load`] with the checksum [`VerifyMode`] chosen by the
    /// caller.
    pub fn load_with_verify(path: &Path, verify: VerifyMode) -> Result<Dataset, SnapshotError> {
        load_from(Arc::new(SnapshotBytes::open(path)?), verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;

    fn sample() -> Dataset {
        let mut b = StoreBuilder::new();
        b.insert(Term::iri("http://e/a"), Term::iri("http://e/p"), Term::integer(10));
        b.insert(Term::iri("http://e/a"), Term::iri("http://e/q"), Term::literal("x"));
        b.insert(Term::iri("http://e/b"), Term::iri("http://e/p"), Term::double(f64::NAN));
        b.insert(Term::iri("http://e/b"), Term::iri("http://e/p"), Term::integer(-3));
        b.freeze()
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("parambench-snaptest-{}-{name}", std::process::id()))
    }

    fn assert_same(a: &Dataset, b: &Dataset) {
        assert_eq!(a.len(), b.len());
        let all_a: Vec<[Id; 3]> = a.scan([None, None, None]).collect();
        let all_b: Vec<[Id; 3]> = b.scan([None, None, None]).collect();
        assert_eq!(all_a, all_b);
        for i in 0..a.dict().len() as u32 {
            assert_eq!(a.decode(Id(i)), b.decode(Id(i)));
            match (a.dict().numeric(Id(i)), b.dict().numeric(Id(i))) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "numeric bits of #{i}"),
                (x, y) => assert_eq!(x, y),
            }
        }
        assert_eq!(a.stats().total_triples, b.stats().total_triples);
        assert_eq!(a.char_sets().len(), b.char_sets().len());
        assert_eq!(a.dict().has_value_ties(), b.dict().has_value_ties());
    }

    #[test]
    fn save_load_round_trip_is_zero_rebuild() {
        let ds = sample();
        let path = temp("roundtrip.pbsnap");
        ds.save(&path).expect("saves");
        let loaded = Dataset::load(&path).expect("loads");
        // Structural zero-rebuild assertion: every index came out of
        // PermIndex::from_parts, never PermIndex::build. (The global
        // `diag` counter deltas are asserted by the integration suites,
        // which serialize themselves — here concurrent lib tests freeze
        // their own stores and would race the counters.)
        assert!(loaded.is_loaded());
        assert_same(&ds, &loaded);
        // The NaN-valued literal survives the round trip as a numeric.
        let nan_id = loaded.lookup(&Term::double(f64::NAN)).expect("NaN literal interned");
        assert!(loaded.dict().numeric(nan_id).is_some_and(f64::is_nan));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arena_fallback_serves_identical_results() {
        let ds = sample();
        let path = temp("arena.pbsnap");
        ds.save(&path).expect("saves");
        // Force the arena path directly.
        let raw = std::fs::read(&path).expect("reads back");
        let loaded =
            load_from(Arc::new(SnapshotBytes::arena(raw)), VerifyMode::Full).expect("arena load");
        assert!(loaded.is_loaded());
        assert!(!loaded.is_mapped(), "arena-backed store must not report an OS mapping");
        assert_same(&ds, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let ds = sample();
        let (p1, p2) = (temp("det1.pbsnap"), temp("det2.pbsnap"));
        ds.save(&p1).expect("saves");
        ds.save(&p2).expect("saves");
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = StoreBuilder::new().freeze();
        let path = temp("empty.pbsnap");
        ds.save(&path).expect("saves");
        let loaded = Dataset::load(&path).expect("loads");
        assert!(loaded.is_empty());
        assert_eq!(loaded.dict().len(), 0);
        assert_eq!(loaded.count([None, None, None]), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = Dataset::load(Path::new("/nonexistent/parambench.pbsnap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
    }

    /// Regression: `Dictionary::reorder_by_value` must round-trip through
    /// the snapshot path when the dictionary grew an overflow region after
    /// the original freeze. Live inserts intern post-freeze terms past the
    /// value-ordered watermark; `compact()` re-runs reorder_by_value over
    /// the enlarged dictionary, and the result must save/load bit-exactly
    /// with the invariant restored.
    #[test]
    fn compacted_overflow_store_round_trips() {
        let mut ds = sample();
        let frozen = ds.dict().len();
        // Overflow terms: an IRI sorting between existing IRIs, a numeric
        // sorting between existing numerics, and a fresh literal.
        assert!(ds.insert(Term::iri("http://e/ab"), Term::iri("http://e/p"), Term::integer(2)));
        assert!(ds.insert(Term::iri("http://e/a"), Term::iri("http://e/q"), Term::literal("w")));
        assert!(ds.delete(&Term::iri("http://e/a"), &Term::iri("http://e/p"), &Term::integer(10)));
        assert!(ds.dict().len() > frozen, "the inserts must have grown an overflow region");
        assert!(!ds.order_by_value_intact());

        ds.compact();
        assert!(ds.order_by_value_intact());
        assert!(ds.overlay().is_empty());

        let path = temp("overflow-compact.pbsnap");
        ds.save(&path).expect("compacted store saves");
        let loaded = Dataset::load(&path).expect("loads");
        assert!(loaded.is_loaded());
        assert_same(&ds, &loaded);
        assert!(loaded.order_by_value_intact());
        // The reloaded dictionary is value-ordered across the formerly
        // overflow terms: ascending id must mean ascending value.
        for i in 1..loaded.dict().len() as u32 {
            assert_ne!(
                loaded.dict().compare(Id(i - 1), Id(i)),
                std::cmp::Ordering::Greater,
                "ids #{} and #{i} out of value order after reload",
                i - 1
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Regression: `save` must refuse a store whose dictionary grew an
    /// overflow region even when the overlay cancelled back to net-empty
    /// (insert a triple with a brand-new term, then delete it). The old
    /// net-empty-only check let such a store save; reloading set
    /// `frozen_terms = dict.len()` and reported value order intact over
    /// ids that are NOT value-ordered, so sort elimination could silently
    /// misorder ORDER BY.
    #[test]
    fn save_refuses_cancelled_overflow_insert_until_compact() {
        let mut ds = sample();
        let frozen = ds.frozen_terms();
        // "http://e/aa" and integer(1) are new: two overflow terms.
        assert!(ds.insert(Term::iri("http://e/aa"), Term::iri("http://e/p"), Term::integer(1)));
        assert!(ds.delete(&Term::iri("http://e/aa"), &Term::iri("http://e/p"), &Term::integer(1)));
        assert!(ds.overlay().is_empty());
        assert!(ds.dict().len() > frozen);
        assert!(!ds.order_by_value_intact());
        let path = temp("cancelled-overflow.pbsnap");
        let err = ds.save(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::OverflowTerms { overflow: 2 }), "{err}");
        assert!(!path.exists(), "refused save must not leave a file behind");
        // Compaction re-sorts the dictionary; then the snapshot round
        // trips with real value order and an honest intact flag.
        ds.compact();
        assert!(ds.order_by_value_intact());
        ds.save(&path).expect("saves after compaction");
        let loaded = Dataset::load(&path).expect("loads");
        assert!(loaded.order_by_value_intact());
        for i in 1..loaded.dict().len() as u32 {
            assert_ne!(
                loaded.dict().compare(Id(i - 1), Id(i)),
                std::cmp::Ordering::Greater,
                "ids #{} and #{i} out of value order after reload",
                i - 1
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Windowed verification must catch a flipped byte even when the
    /// corrupted section spans many windows — and a tiny save-time window
    /// forces the multi-window path on a small fixture.
    #[test]
    fn windowed_verification_catches_flipped_bytes_across_small_windows() {
        let ds = sample();
        let path = temp("windowed.pbsnap");
        // A 32-byte window: the term blob and key sections span several.
        save_to(&ds, &path, 32, &IoSeam::none()).expect("saves");
        let clean = std::fs::read(&path).unwrap();
        let loaded = load_from(Arc::new(SnapshotBytes::arena(clean.clone())), VerifyMode::Windowed)
            .expect("clean windowed load");
        assert_same(&ds, &loaded);
        // Flip one byte in every section's payload (first byte and a byte
        // past the first window): windowed mode must reject each.
        let table = decode_header_and_table(&clean).unwrap();
        let mut rejected = 0;
        for e in &table {
            if e.len == 0 {
                continue;
            }
            for probe in [0u64, 40, e.len - 1] {
                if probe >= e.len {
                    continue;
                }
                let mut corrupt = clean.clone();
                corrupt[(e.offset + probe) as usize] ^= 0x20;
                let err = load_from(Arc::new(SnapshotBytes::arena(corrupt)), VerifyMode::Windowed)
                    .expect_err("flipped byte must be rejected in windowed mode");
                assert!(
                    matches!(
                        err,
                        SnapshotError::ChecksumMismatch { .. } | SnapshotError::Corrupt(_)
                    ),
                    "unexpected error class: {err}"
                );
                rejected += 1;
            }
        }
        assert!(rejected > 10, "the sweep must have exercised many sections ({rejected})");
        std::fs::remove_file(&path).ok();
    }

    /// The default-window save must also load under both verify modes.
    #[test]
    fn default_window_loads_under_both_verify_modes() {
        let ds = sample();
        let path = temp("verify-modes.pbsnap");
        ds.save(&path).expect("saves");
        let full = Dataset::load_with_verify(&path, VerifyMode::Full).expect("full");
        let windowed = Dataset::load_with_verify(&path, VerifyMode::Windowed).expect("windowed");
        assert_same(&full, &windowed);
        std::fs::remove_file(&path).ok();
    }

    /// Atomic save: a crash (injected fault) during the write, the rename
    /// or the directory fsync must leave the previous snapshot intact and
    /// loadable, and no temp file behind on the write/rename paths.
    #[test]
    fn failed_save_leaves_previous_snapshot_intact() {
        use crate::fault::{Fault, IoOp};
        let old = sample();
        let path = temp("atomic.pbsnap");
        old.save(&path).expect("baseline saves");
        let before = std::fs::read(&path).unwrap();

        let mut newer = sample();
        assert!(newer.insert(Term::iri("http://e/z"), Term::iri("http://e/p"), Term::integer(7)));
        newer.compact();

        for (op, at) in [(IoOp::Write, 0), (IoOp::Sync, 0), (IoOp::Rename, 0)] {
            let seam = IoSeam::none();
            seam.inject(op, at, Fault::Err("No space left on device"));
            let err = newer.save_with(&path, &seam).expect_err("injected fault must surface");
            assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
            assert_eq!(seam.unfired(), 0, "the scripted fault must have fired");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "a failed save must leave the previous snapshot byte-identical"
            );
            assert!(
                !temp_sibling(&path).exists(),
                "a failed save must not leave its temp file behind"
            );
            Dataset::load(&path).expect("previous snapshot still loads");
        }
        // And the subsequent clean save publishes the new store.
        newer.save(&path).expect("clean save succeeds");
        let loaded = Dataset::load(&path).expect("loads");
        assert_same(&newer, &loaded);
        std::fs::remove_file(&path).ok();
    }

    /// `save` refuses a store whose overlay holds real pending updates.
    #[test]
    fn save_refuses_pending_updates() {
        let mut ds = sample();
        assert!(ds.insert(Term::iri("http://e/c"), Term::iri("http://e/p"), Term::integer(1)));
        let path = temp("pending.pbsnap");
        let err = ds.save(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::PendingUpdates { adds: 1, dels: 0 }), "{err}");
        assert!(!path.exists(), "refused save must not leave a file behind");
        ds.compact();
        ds.save(&path).expect("saves after compaction");
        std::fs::remove_file(&path).ok();
    }
}
