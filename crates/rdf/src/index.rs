//! Sorted permutation indexes over dictionary-encoded triples.
//!
//! The store keeps six copies of the triple set, each sorted by one of the
//! six orderings of (subject, predicate, object) — the classical RDF-3X /
//! Hexastore layout. Any triple pattern with any combination of bound
//! positions can then be answered by a binary-searched contiguous range of
//! exactly one index, which also gives *exact* pattern cardinalities in
//! `O(log n)` — the property the paper's `Cout` analysis relies on.
//!
//! Since PR 7 each index is generic over its **storage backend**: freshly
//! frozen stores keep keys on the heap, while snapshot-loaded stores serve
//! the same binary searches straight out of checksummed mapped file bytes
//! (see [`crate::snapshot`]) — the scan code cannot tell the difference.
//! Each index also carries a small **bucket directory** (one entry per
//! distinct leading key component) that both accelerates the common
//! single-bound lookups and persists as the per-index metadata section of
//! the snapshot format.

use std::sync::Arc;

use crate::dict::Id;
use crate::snapshot::SectionSlice;

/// One of the six orderings of (S, P, O).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    /// Subject, predicate, object.
    Spo,
    /// Subject, object, predicate.
    Sop,
    /// Predicate, subject, object.
    Pso,
    /// Predicate, object, subject.
    Pos,
    /// Object, subject, predicate.
    Osp,
    /// Object, predicate, subject.
    Ops,
}

impl IndexOrder {
    /// All six orders, in the order they are stored.
    pub const ALL: [IndexOrder; 6] = [
        IndexOrder::Spo,
        IndexOrder::Sop,
        IndexOrder::Pso,
        IndexOrder::Pos,
        IndexOrder::Osp,
        IndexOrder::Ops,
    ];

    /// `perm()[k]` is the SPO-position (0=s, 1=p, 2=o) stored at key
    /// position `k` of this index.
    #[inline]
    pub fn perm(self) -> [usize; 3] {
        match self {
            IndexOrder::Spo => [0, 1, 2],
            IndexOrder::Sop => [0, 2, 1],
            IndexOrder::Pso => [1, 0, 2],
            IndexOrder::Pos => [1, 2, 0],
            IndexOrder::Osp => [2, 0, 1],
            IndexOrder::Ops => [2, 1, 0],
        }
    }

    /// Index into [`IndexOrder::ALL`].
    #[inline]
    pub fn slot(self) -> usize {
        match self {
            IndexOrder::Spo => 0,
            IndexOrder::Sop => 1,
            IndexOrder::Pso => 2,
            IndexOrder::Pos => 3,
            IndexOrder::Osp => 4,
            IndexOrder::Ops => 5,
        }
    }

    /// Picks the index whose key prefix covers the bound positions of a
    /// pattern. `bound = (s?, p?, o?)`.
    pub fn for_bound(s: bool, p: bool, o: bool) -> IndexOrder {
        match (s, p, o) {
            (true, true, true)
            | (true, true, false)
            | (true, false, false)
            | (false, false, false) => IndexOrder::Spo,
            (true, false, true) => IndexOrder::Sop,
            (false, true, false) => IndexOrder::Pso,
            (false, true, true) => IndexOrder::Pos,
            (false, false, true) => IndexOrder::Osp,
        }
    }

    /// True when this index can serve a pattern with the given bound
    /// positions through one contiguous key range: the bound positions must
    /// occupy a prefix of the key permutation. `bound = (s?, p?, o?)`.
    pub fn covers_bound(self, s: bool, p: bool, o: bool) -> bool {
        let bound = [s, p, o];
        let n_bound = bound.iter().filter(|&&b| b).count();
        self.perm()[..n_bound].iter().all(|&pos| bound[pos])
    }

    /// Every index order that can serve the given bound positions (see
    /// [`IndexOrder::covers_bound`]), in [`IndexOrder::ALL`] order. The
    /// orders differ in which *unbound* position leads the delivered rows —
    /// the raw material of the optimizer's interesting-order exploration.
    pub fn all_for_bound(s: bool, p: bool, o: bool) -> impl Iterator<Item = IndexOrder> {
        IndexOrder::ALL.into_iter().filter(move |order| order.covers_bound(s, p, o))
    }

    /// Re-orders an SPO triple into this index's key order.
    #[inline]
    pub fn key_of(self, spo: [Id; 3]) -> [Id; 3] {
        let p = self.perm();
        [spo[p[0]], spo[p[1]], spo[p[2]]]
    }

    /// Inverse of [`IndexOrder::key_of`].
    #[inline]
    pub fn spo_of(self, key: [Id; 3]) -> [Id; 3] {
        let p = self.perm();
        let mut spo = [Id(0); 3];
        spo[p[0]] = key[0];
        spo[p[1]] = key[1];
        spo[p[2]] = key[2];
        spo
    }
}

/// One bucket-directory entry: the run of keys sharing leading component
/// `key` starts at key index `start`.
///
/// `repr(C)` with two `u32` fields gives the exact 8-byte little-endian
/// layout the snapshot's bucket sections use, so a mapped section can be
/// reinterpreted as `[Bucket]` without decoding.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bucket {
    /// The shared leading key component of this run.
    pub key: Id,
    /// Index of the run's first key; the run ends at the next bucket's
    /// `start` (or the key count, for the last bucket).
    pub start: u32,
}

/// Sorted `[Id; 3]` key storage: heap-built at freeze time, or a zero-copy
/// view over a checksummed snapshot section after [`crate::store::Dataset::load`].
/// Immutable either way, and shared either way: `clone` bumps a reference
/// count (the heap slice's, or the mapped snapshot's), never copies keys —
/// which is what makes cloning a [`crate::store::Dataset`] `O(delta)`.
#[derive(Debug, Clone)]
pub(crate) enum KeyStore {
    /// Keys on the heap (freshly frozen store, or the big-endian decode
    /// fallback of the loader).
    Heap(Arc<[[Id; 3]]>),
    /// Keys served directly from snapshot bytes.
    Mapped(SectionSlice<[Id; 3]>),
}

impl KeyStore {
    #[inline]
    fn as_slice(&self) -> &[[Id; 3]] {
        match self {
            KeyStore::Heap(v) => v,
            KeyStore::Mapped(s) => s.as_slice(),
        }
    }
}

/// Bucket-directory storage; mirrors [`KeyStore`].
#[derive(Debug, Clone)]
pub(crate) enum BucketStore {
    /// Directory on the heap.
    Heap(Arc<[Bucket]>),
    /// Directory served directly from snapshot bytes.
    Mapped(SectionSlice<Bucket>),
}

impl BucketStore {
    #[inline]
    fn as_slice(&self) -> &[Bucket] {
        match self {
            BucketStore::Heap(v) => v,
            BucketStore::Mapped(s) => s.as_slice(),
        }
    }
}

/// A single sorted permutation index. Immutable once built; `clone`
/// bumps the reference counts of its key and bucket arrays, never copies
/// them.
#[derive(Debug, Clone)]
pub struct PermIndex {
    order: IndexOrder,
    /// Triples re-ordered into key order and sorted lexicographically.
    keys: KeyStore,
    /// One entry per distinct leading key component, ascending.
    buckets: BucketStore,
}

impl PermIndex {
    /// Builds the index for `order` from a deduplicated SPO triple set.
    pub fn build(order: IndexOrder, spo_triples: &[[Id; 3]]) -> Self {
        crate::diag::count_index_build();
        assert!(
            spo_triples.len() <= u32::MAX as usize,
            "index of {} keys overflows the u32 bucket offsets",
            spo_triples.len()
        );
        // Collected straight into the shared slice (the iterator knows its
        // length) and sorted there: no second copy of the keys.
        let mut keys: Arc<[[Id; 3]]> = spo_triples.iter().map(|&t| order.key_of(t)).collect();
        Arc::get_mut(&mut keys).expect("a freshly collected slice has one owner").sort_unstable();
        let buckets = build_buckets(&keys);
        PermIndex { order, keys: KeyStore::Heap(keys), buckets: BucketStore::Heap(buckets.into()) }
    }

    /// Assembles an index from pre-built storage (the snapshot load path).
    ///
    /// Validates the bucket directory against the keys in `O(d)` for `d`
    /// distinct leading components: ascending bucket keys, strictly
    /// increasing in-bounds starts, and each bucket's key matching the key
    /// array at its start. Key *ids* are bounds-checked against
    /// `term_count` in `O(n)` so a well-checksummed but nonsensical file
    /// can never index the dictionary out of range. The keys' sort order
    /// itself is vouched for by the section checksum (binary search over a
    /// mis-sorted array would return wrong ranges, never unsafety).
    pub(crate) fn from_parts(
        order: IndexOrder,
        keys: KeyStore,
        buckets: BucketStore,
        term_count: usize,
    ) -> Result<Self, String> {
        let ks = keys.as_slice();
        let bs = buckets.as_slice();
        let name = format!("{order:?}");
        if ks.len() > u32::MAX as usize {
            return Err(format!("{name}: {} keys overflow u32 bucket offsets", ks.len()));
        }
        if ks.is_empty() {
            if !bs.is_empty() {
                return Err(format!("{name}: {} buckets over an empty key array", bs.len()));
            }
        } else {
            if bs.is_empty() {
                return Err(format!("{name}: empty bucket directory over {} keys", ks.len()));
            }
            if bs[0].start != 0 {
                return Err(format!("{name}: first bucket starts at {}", bs[0].start));
            }
            for w in bs.windows(2) {
                if w[0].key >= w[1].key || w[0].start >= w[1].start {
                    return Err(format!("{name}: bucket directory not strictly increasing"));
                }
            }
            for b in bs {
                let start = b.start as usize;
                if start >= ks.len() {
                    return Err(format!("{name}: bucket start {start} past {} keys", ks.len()));
                }
                if ks[start][0] != b.key {
                    return Err(format!(
                        "{name}: bucket key {} does not match key array at {start}",
                        b.key
                    ));
                }
            }
            for k in ks {
                for id in k {
                    if id.index() >= term_count {
                        return Err(format!("{name}: key id {id} out of {term_count} terms"));
                    }
                }
            }
        }
        Ok(PermIndex { order, keys, buckets })
    }

    /// True when the keys are served from mapped snapshot bytes.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(&self.keys, KeyStore::Mapped(s) if s.is_os_mapped())
    }

    /// True when the keys are served from a loaded snapshot (mapped or
    /// arena-backed), as opposed to a freeze-time heap build.
    pub(crate) fn is_loaded(&self) -> bool {
        matches!(self.keys, KeyStore::Mapped(_))
    }

    /// The sorted key array (for the snapshot writer).
    pub(crate) fn keys(&self) -> &[[Id; 3]] {
        self.keys.as_slice()
    }

    /// The bucket directory (for the snapshot writer).
    pub(crate) fn buckets(&self) -> &[Bucket] {
        self.buckets.as_slice()
    }

    /// The ordering of this index.
    pub fn order(&self) -> IndexOrder {
        self.order
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.keys.as_slice().len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.as_slice().is_empty()
    }

    /// The contiguous key range whose first `prefix.len()` key components
    /// equal `prefix` (at most 3 components). The leading component is
    /// resolved through the bucket directory (`O(log d)` over distinct
    /// values); the remaining components binary-search within the bucket.
    pub fn range(&self, prefix: &[Id]) -> &[[Id; 3]] {
        debug_assert!(prefix.len() <= 3);
        let keys = self.keys.as_slice();
        let Some((&first, rest)) = prefix.split_first() else {
            return keys;
        };
        let buckets = self.buckets.as_slice();
        let bi = buckets.partition_point(|b| b.key < first);
        if bi == buckets.len() || buckets[bi].key != first {
            return &keys[0..0];
        }
        let lo = buckets[bi].start as usize;
        let hi = buckets.get(bi + 1).map_or(keys.len(), |b| b.start as usize);
        let run = &keys[lo..hi];
        if rest.is_empty() {
            return run;
        }
        let lo2 = run.partition_point(|k| cmp_tail(k, rest) == std::cmp::Ordering::Less);
        let hi2 =
            run[lo2..].partition_point(|k| cmp_tail(k, rest) != std::cmp::Ordering::Greater) + lo2;
        &run[lo2..hi2]
    }

    /// Exact number of triples matching a bound key prefix, via the bucket
    /// directory plus binary search (no scan).
    pub fn count(&self, prefix: &[Id]) -> usize {
        self.range(prefix).len()
    }

    /// Iterates SPO triples matching the prefix.
    pub fn scan(&self, prefix: &[Id]) -> impl Iterator<Item = [Id; 3]> + '_ {
        let order = self.order;
        self.range(prefix).iter().map(move |&k| order.spo_of(k))
    }

    /// Number of *distinct* values in key position `prefix.len()` within the
    /// range selected by `prefix`. The root level is answered by the bucket
    /// directory in `O(1)`; deeper levels gallop over the sorted runs, so
    /// cost is `O(d log n)` for `d` distinct values rather than `O(range)`.
    pub fn distinct_after(&self, prefix: &[Id]) -> usize {
        let pos = prefix.len();
        if pos == 0 {
            return self.buckets.as_slice().len();
        }
        if pos >= 3 {
            return usize::from(!self.range(prefix).is_empty());
        }
        let range = self.range(prefix);
        let mut distinct = 0;
        let mut i = 0;
        while i < range.len() {
            let v = range[i][pos];
            distinct += 1;
            // Skip the run of keys sharing `v` at `pos` via binary search.
            i += range[i..].partition_point(|k| k[pos] == v);
        }
        distinct
    }
}

/// Builds the bucket directory of a sorted key array: one entry per
/// distinct leading component, found by galloping over the runs.
fn build_buckets(keys: &[[Id; 3]]) -> Vec<Bucket> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let key = keys[i][0];
        out.push(Bucket { key, start: i as u32 });
        i += keys[i..].partition_point(|k| k[0] == key);
    }
    out
}

/// Compares a key's components *after* the first against `rest`
/// (`rest.len() <= 2`); used for the in-bucket binary search once the
/// bucket directory has pinned the leading component.
fn cmp_tail(key: &[Id; 3], rest: &[Id]) -> std::cmp::Ordering {
    for (k, p) in key[1..].iter().zip(rest) {
        match k.cmp(p) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> Id {
        Id(v)
    }

    fn sample_triples() -> Vec<[Id; 3]> {
        // (s, p, o)
        vec![
            [id(1), id(10), id(100)],
            [id(1), id(10), id(101)],
            [id(1), id(11), id(100)],
            [id(2), id(10), id(100)],
            [id(2), id(11), id(102)],
            [id(3), id(12), id(103)],
        ]
    }

    #[test]
    fn perm_round_trip() {
        let t = [id(7), id(8), id(9)];
        for order in IndexOrder::ALL {
            assert_eq!(order.spo_of(order.key_of(t)), t, "{order:?}");
        }
    }

    #[test]
    fn for_bound_covers_all_masks() {
        for mask in 0..8u8 {
            let (s, p, o) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
            let order = IndexOrder::for_bound(s, p, o);
            // The bound positions must be a prefix of the permutation.
            let bound = [s, p, o];
            let n_bound = bound.iter().filter(|&&b| b).count();
            let perm = order.perm();
            for k in 0..n_bound {
                assert!(bound[perm[k]], "mask {mask:03b}: {order:?} prefix not bound");
            }
        }
    }

    #[test]
    fn range_and_count() {
        let idx = PermIndex::build(IndexOrder::Spo, &sample_triples());
        assert_eq!(idx.count(&[]), 6);
        assert_eq!(idx.count(&[id(1)]), 3);
        assert_eq!(idx.count(&[id(1), id(10)]), 2);
        assert_eq!(idx.count(&[id(1), id(10), id(100)]), 1);
        assert_eq!(idx.count(&[id(9)]), 0);
    }

    #[test]
    fn scan_returns_spo_triples() {
        let idx = PermIndex::build(IndexOrder::Pos, &sample_triples());
        let got: Vec<[Id; 3]> = idx.scan(&[id(10), id(100)]).collect();
        assert_eq!(got.len(), 2);
        for t in got {
            assert_eq!(t[1], id(10));
            assert_eq!(t[2], id(100));
        }
    }

    #[test]
    fn distinct_after_counts_runs() {
        let idx = PermIndex::build(IndexOrder::Pso, &sample_triples());
        // predicate 10 has subjects {1, 2}
        assert_eq!(idx.distinct_after(&[id(10)]), 2);
        // root level: distinct predicates {10, 11, 12}
        assert_eq!(idx.distinct_after(&[]), 3);
        // fully bound: existence
        assert_eq!(idx.distinct_after(&[id(10), id(1), id(100)]), 1);
        assert_eq!(idx.distinct_after(&[id(10), id(9), id(100)]), 0);
    }

    #[test]
    fn empty_index() {
        let idx = PermIndex::build(IndexOrder::Spo, &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.count(&[]), 0);
        assert_eq!(idx.distinct_after(&[]), 0);
    }

    #[test]
    fn bucket_directory_matches_leading_runs() {
        let idx = PermIndex::build(IndexOrder::Spo, &sample_triples());
        let buckets = idx.buckets();
        assert_eq!(buckets.len(), 3); // subjects {1, 2, 3}
        assert_eq!(buckets[0], Bucket { key: id(1), start: 0 });
        assert_eq!(buckets[1], Bucket { key: id(2), start: 3 });
        assert_eq!(buckets[2], Bucket { key: id(3), start: 5 });
        // Bucket-resolved ranges agree with a brute-force filter for every
        // prefix depth, including misses between and beyond bucket keys.
        let keys = idx.keys().to_vec();
        for lead in 0..6u32 {
            let expect: Vec<[Id; 3]> = keys.iter().copied().filter(|k| k[0] == id(lead)).collect();
            assert_eq!(idx.range(&[id(lead)]), &expect[..], "lead {lead}");
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_buckets() {
        let built = PermIndex::build(IndexOrder::Spo, &sample_triples());
        let keys = built.keys().to_vec();
        let buckets = built.buckets().to_vec();
        let ok = PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.clone().into()),
            BucketStore::Heap(buckets.clone().into()),
            200,
        )
        .expect("consistent parts");
        assert_eq!(ok.count(&[id(1)]), 3);

        // Wrong first start.
        let mut bad = buckets.clone();
        bad[0].start = 1;
        assert!(PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.clone().into()),
            BucketStore::Heap(bad.into()),
            200
        )
        .is_err());
        // Non-increasing keys.
        let mut bad = buckets.clone();
        bad[1].key = bad[0].key;
        assert!(PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.clone().into()),
            BucketStore::Heap(bad.into()),
            200
        )
        .is_err());
        // Bucket key disagreeing with the key array.
        let mut bad = buckets.clone();
        bad[2].key = id(99);
        assert!(PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.clone().into()),
            BucketStore::Heap(bad.into()),
            200
        )
        .is_err());
        // Empty directory over non-empty keys.
        assert!(PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.clone().into()),
            BucketStore::Heap(Vec::new().into()),
            200
        )
        .is_err());
        // Key ids out of the dictionary range.
        assert!(PermIndex::from_parts(
            IndexOrder::Spo,
            KeyStore::Heap(keys.into()),
            BucketStore::Heap(buckets.into()),
            5
        )
        .is_err());
    }
}
