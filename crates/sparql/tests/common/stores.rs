//! The in-process store sweep of the differential suites: one visible
//! triple set, with one dictionary (the same ids), served by the three
//! store representations the engine has to be indistinguishable on —
//!
//! * `heap`: a plain [`StoreBuilder::freeze`], scans over heap-built
//!   indexes and an empty overlay;
//! * `loaded`: that store saved to a snapshot and loaded back, scans over
//!   the snapshot's mapped bytes;
//! * `overlay`: a base that differs from the visible set in both
//!   directions, corrected by a live overlay, so every scan runs the
//!   base + adds − tombstones merge.
//!
//! Included by `#[path]` (also from the `rdf` crate's tests); each suite
//! uses a subset of it.

#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::Id;

/// Saves `ds` to a unique temp snapshot, loads it back and deletes the
/// file (the mapping keeps the bytes alive).
pub fn reload(ds: &Dataset) -> Dataset {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "parambench-reload-{}-{}.pbsnap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    ds.save(&path).expect("snapshot saves");
    let loaded = Dataset::load(&path).expect("snapshot loads");
    std::fs::remove_file(&path).ok();
    loaded
}

/// The `heap`, `loaded` and `overlay` twins of the store `build` freezes
/// to, in that order.
pub fn twins(build: StoreBuilder) -> [(&'static str, Dataset); 3] {
    let heap = build.freeze();
    let loaded = reload(&heap);
    let overlay = overlay_twin(&heap);
    [("heap", heap), ("loaded", loaded), ("overlay", overlay)]
}

/// `heap`'s visible set and dictionary, reached through the batch update
/// APIs: the base holds two thirds of the visible triples plus *junk* —
/// for every predicate and every term, one invisible triple carrying both
/// — then `insert_batch` adds the other third and `delete_batch`
/// tombstones the junk. Every index order therefore carries real adds and
/// tombstones, and every `(?, p, ·)` and `(?, p, t)` range at least one
/// overlay entry. The whole vocabulary is interned before the freeze, so
/// no update mints an overflow id and the value-ordered ids are `heap`'s.
///
/// Junk is `|predicates| × |terms|` triples: meant for the small
/// vocabularies of the property suites.
fn overlay_twin(heap: &Dataset) -> Dataset {
    let decode = |[s, p, o]: [Id; 3]| {
        (heap.decode(s).clone(), heap.decode(p).clone(), heap.decode(o).clone())
    };
    let ids: Vec<Id> = (0..heap.dict().len() as u32).map(Id).collect();
    let visible: Vec<[Id; 3]> = heap.scan([None, None, None]).collect();
    let mut junk: Vec<[Id; 3]> = Vec::new();
    for (p, _) in heap.stats().predicates() {
        for &o in &ids {
            let free = ids.iter().find(|&&s| !heap.contains([Some(s), Some(p), Some(o)]));
            junk.extend(free.map(|&s| [s, p, o]));
        }
    }

    let mut b = StoreBuilder::new();
    for &id in &ids {
        b.dict_mut().encode(heap.decode(id).clone());
    }
    let mut held = Vec::new();
    for (i, &t) in visible.iter().enumerate() {
        if i % 3 == 2 {
            held.push(decode(t));
        } else {
            let (s, p, o) = decode(t);
            b.insert(s, p, o);
        }
    }
    for &t in &junk {
        let (s, p, o) = decode(t);
        b.insert(s, p, o);
    }
    let mut ds = b.freeze();
    let held_len = held.len();
    assert_eq!(ds.insert_batch(held), held_len, "the held-back third is added");
    assert_eq!(ds.delete_batch(junk.iter().map(|&t| decode(t))), junk.len(), "junk tombstoned");

    assert_eq!(ds.dict().len(), heap.dict().len(), "one vocabulary");
    assert!(ids.iter().all(|&id| ds.decode(id) == heap.decode(id)), "the same ids");
    assert!(ds.order_by_value_intact(), "no overflow id");
    assert_eq!(ds.stats(), heap.stats(), "statistics of the visible set");
    assert_eq!(ds.char_sets(), heap.char_sets(), "characteristic sets of the visible set");
    ds
}
