//! The structural proof that opening a snapshot allocates nothing per term
//! beyond decoding the term: a counting global allocator, counting per
//! thread, compares `Dataset::load` with decoding the same snapshot's term
//! blob alone. Every term of the blob owns its strings, so decoding pays
//! one to three allocations a term; everything else `load` does — the
//! checksums, the numeric cache, the term → id index, the zero-copy index
//! views, the statistics — may add only a bounded number on top, whatever
//! the number of terms. A term index that copied or boxed each term, like
//! the `HashMap<Term, Id>` it replaced, would add one or more per term.
//! The speed of `load` is `benches/engine.rs`'s `snapshot/load_bsbm`; its
//! correctness is `snapshot_roundtrip.rs`'s and the proptests'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use parambench_datagen::{Bsbm, BsbmConfig};
use parambench_rdf::format::{decode_header_and_table, decode_term, Dec, SEC_TERM_BLOB};
use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::Term;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations `load` may make beyond decoding the terms, whatever the
/// store: the section table and its lookup map, the numeric cache and
/// bitmap, the shared slices, the term index, the six index views, the
/// statistics and the few characteristic sets. 23 on the small store and
/// 27 on the BSBM store when this gate was written; the `HashMap` term
/// index it replaced made 2 033 and 42 825 (one clone per term).
const SLACK: u64 = 64;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parambench-loadallocs-{}-{name}", std::process::id()))
}

/// Decodes every term of the snapshot at `path` into one vector, as
/// `load` does, and counts what that alone allocates.
fn term_decode_allocations(path: &PathBuf) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("reads the snapshot");
    let table = decode_header_and_table(&bytes).expect("valid header");
    let blob = table.iter().find(|e| e.kind == SEC_TERM_BLOB).expect("a term blob");
    let payload = &bytes[blob.offset as usize..(blob.offset + blob.len) as usize];
    let terms = payload.len(); // an upper bound on the term count
    let (decoded, allocs) = allocations(|| {
        let mut dec = Dec::new(payload, "term-blob");
        let mut out: Vec<Term> = Vec::with_capacity(terms.min(1 << 20));
        while dec.remaining() > 0 {
            out.push(decode_term(&mut dec).expect("decodes"));
        }
        out
    });
    (decoded.len(), allocs)
}

fn assert_load_allocates_only_decoding(ds: &Dataset, name: &str) {
    let path = temp(name);
    ds.save(&path).expect("saves");
    let (terms, decode) = term_decode_allocations(&path);
    assert_eq!(terms, ds.dict().len());
    let (loaded, load) = allocations(|| Dataset::load(&path).expect("loads"));
    assert_eq!(loaded.dict().len(), terms);
    assert!(
        load <= decode + SLACK,
        "{name}: load made {load} allocations for {terms} terms; decoding the terms alone \
         makes {decode}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn loading_a_small_store_allocates_only_for_decoding() {
    let mut b = StoreBuilder::new();
    for i in 0..500 {
        let s = Term::iri(format!("http://e/item/{i}"));
        b.insert(s.clone(), Term::iri("http://e/price"), Term::integer(i));
        b.insert(s.clone(), Term::iri("http://e/label"), Term::literal(format!("item {i}")));
        if i % 3 == 0 {
            b.insert(s, Term::iri("http://e/tag"), Term::iri(format!("http://e/tag/{}", i % 7)));
        }
    }
    assert_load_allocates_only_decoding(&b.freeze(), "small.pbsnap");
}

#[test]
fn loading_the_bsbm_store_allocates_only_for_decoding() {
    let data = Bsbm::generate(BsbmConfig::with_scale(150_000));
    assert!(data.dataset.dict().len() > 30_000, "the store must hold many terms");
    assert_load_allocates_only_decoding(&data.dataset, "bsbm.pbsnap");
}
