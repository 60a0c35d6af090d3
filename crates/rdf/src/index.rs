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

use std::ops::Range;
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
    /// values); the remaining components binary-search within the bucket,
    /// comparing keys packed into one integer.
    pub fn range(&self, prefix: &[Id]) -> &[[Id; 3]] {
        &self.keys.as_slice()[self.span(prefix)]
    }

    /// [`PermIndex::range`] as key positions. A prefix no key carries
    /// yields the empty range at its insertion point.
    fn span(&self, prefix: &[Id]) -> Range<usize> {
        debug_assert!(prefix.len() <= 3);
        let keys = self.keys.as_slice();
        let Some(&first) = prefix.first() else {
            return 0..keys.len();
        };
        let buckets = self.buckets.as_slice();
        let bi = buckets.partition_point(|b| b.key < first);
        let lo = buckets.get(bi).map_or(keys.len(), |b| b.start as usize);
        if bi == buckets.len() || buckets[bi].key != first {
            return lo..lo;
        }
        let hi = buckets.get(bi + 1).map_or(keys.len(), |b| b.start as usize);
        if prefix.len() == 1 {
            return lo..hi;
        }
        let run = &keys[lo..hi];
        let (low, high) = (packed(prefix, 0), packed(prefix, u32::MAX));
        let lo2 = run.partition_point(|k| pack(k) < low);
        let hi2 = lo2 + run[lo2..].partition_point(|k| pack(k) <= high);
        lo + lo2..lo + hi2
    }

    /// The key positions of [`PermIndex::range`]`(prefix)`, found by
    /// galloping forward from position `from` — where the caller's
    /// previous probe landed — instead of from the bucket directory.
    ///
    /// The gallop runs only when it is known to be short and correct:
    /// every key before `from` sorts below `prefix`, and the range starts
    /// at most `SEEK_REACH` (1 024) keys past `from`. Each is one key
    /// comparison; when either fails, the directory search of
    /// [`PermIndex::range`] runs instead, so a useless `from` (0, past the
    /// end, behind the range, far before it) costs two comparisons over
    /// `range`. Probes arriving in ascending key order — a bind join whose
    /// left rows are sorted by the probe key — pay `O(log distance)` per
    /// probe.
    #[inline]
    pub fn seek(&self, prefix: &[Id], from: usize) -> Range<usize> {
        debug_assert!(prefix.len() <= 3);
        let keys = self.keys.as_slice();
        let from = from.min(keys.len());
        let reach = (from + SEEK_REACH).min(keys.len());
        // Keys sorting below `low` carry a smaller prefix; keys up to
        // `high` (from `low` on) carry `prefix` itself.
        let (low, high) = (packed(prefix, 0), packed(prefix, u32::MAX));
        let behind = from > 0 && pack(&keys[from - 1]) >= low;
        let beyond = reach < keys.len() && pack(&keys[reach]) < low;
        if prefix.is_empty() || behind || beyond {
            return self.span(prefix);
        }
        let lo = from + gallop(&keys[from..reach], |k| pack(k) < low);
        let hi = lo + gallop(&keys[lo..], |k| pack(k) <= high);
        lo..hi
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

/// How far past its `from` hint [`PermIndex::seek`] gallops: a range
/// starting further on is found through the bucket directory.
const SEEK_REACH: usize = 1024;

/// A key as one integer that sorts like the key: its three ids, most
/// significant first.
#[inline]
pub(crate) fn pack(key: &[Id; 3]) -> u128 {
    (u128::from(key[0].0) << 64) | (u128::from(key[1].0) << 32) | u128::from(key[2].0)
}

/// `prefix` extended to a full key with `fill`, packed: with 0 the
/// smallest key carrying `prefix`, with `u32::MAX` the largest.
#[inline]
pub(crate) fn packed(prefix: &[Id], fill: u32) -> u128 {
    let mut key = [Id(fill); 3];
    for (k, &id) in key.iter_mut().zip(prefix) {
        *k = id;
    }
    pack(&key)
}

/// `keys.partition_point(pred)` by exponential search from the front:
/// `O(log p)` comparisons for an answer `p`, whatever `keys.len()`.
#[inline]
fn gallop(keys: &[[Id; 3]], pred: impl Fn(&[Id; 3]) -> bool) -> usize {
    // Every key before `lo` satisfies `pred`.
    let mut lo = 0;
    let mut step = 1;
    while lo + step <= keys.len() && pred(&keys[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(keys.len());
    lo + keys[lo..hi].partition_point(pred)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The bucket-directory range of `prefix`, as positions, by brute force.
    fn brute_span(keys: &[[Id; 3]], prefix: &[Id]) -> Range<usize> {
        let n = prefix.len();
        let lo = keys.iter().take_while(|k| k[..n] < *prefix).count();
        let hi = lo + keys[lo..].iter().take_while(|k| k[..n] == *prefix).count();
        lo..hi
    }

    /// Key sets of up to 3000 keys over 3, 8 or 40 values per component:
    /// few wide buckets, many narrow ones, or runs longer than
    /// [`SEEK_REACH`] apart.
    fn arb_index() -> impl Strategy<Value = PermIndex> {
        let raw = prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3000);
        (0usize..3, raw).prop_map(|(width, raw)| {
            let k = [3, 8, 40][width];
            let mut spo: Vec<[Id; 3]> =
                raw.into_iter().map(|(s, p, o)| [id(s % k), id(p % k), id(o % k)]).collect();
            spo.sort_unstable();
            spo.dedup();
            PermIndex::build(IndexOrder::Spo, &spo)
        })
    }

    /// Prefix sequences of 0–3 components, one value past the widest key
    /// set so that some miss beyond the last bucket, delivered ascending,
    /// descending, each twice in a row, or as drawn.
    fn arb_prefixes() -> impl Strategy<Value = Vec<Vec<Id>>> {
        let one = (0usize..=3, any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(n, a, b, c)| [a, b, c][..n].iter().map(|&v| id(v % 41)).collect());
        (0usize..4, prop::collection::vec(one, 0..80)).prop_map(
            |(order, mut seq): (_, Vec<Vec<Id>>)| {
                match order {
                    0 => seq.sort(),
                    1 => seq.sort_by(|a, b| b.cmp(a)),
                    2 => seq = seq.into_iter().flat_map(|p| [p.clone(), p]).collect(),
                    _ => {}
                }
                seq
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `seek` returns exactly `range`'s positions whatever its hint:
        /// chained from the previous seek (also after a miss), 0, the key
        /// count, past it, or arbitrary.
        #[test]
        fn seek_equals_range_under_any_hint(
            idx in arb_index(),
            prefixes in arb_prefixes(),
            hints in prop::collection::vec((0usize..5, any::<u32>()), 80),
        ) {
            let keys = idx.keys();
            let mut chained = 0;
            for (prefix, &(mode, raw)) in prefixes.iter().zip(&hints) {
                let want = brute_span(keys, prefix);
                prop_assert_eq!(&keys[want.clone()], idx.range(prefix), "range {:?}", prefix);
                let from = match mode {
                    0 | 1 => chained,
                    2 => 0,
                    3 => keys.len() + (raw as usize % 3),
                    _ => raw as usize % (keys.len() + 1),
                };
                let got = idx.seek(prefix, from);
                prop_assert_eq!(got.clone(), want, "seek({:?}, {}) over {} keys", prefix, from, keys.len());
                chained = got.start;
            }
        }
    }

    #[test]
    fn seek_gallops_within_reach_and_searches_beyond_it() {
        // One bucket per subject, 3 keys each: subject s starts at 3s.
        let spo: Vec<[Id; 3]> =
            (0..2000u32).flat_map(|s| (0..3u32).map(move |o| [id(s), id(7), id(o)])).collect();
        let idx = PermIndex::build(IndexOrder::Spo, &spo);
        // Ascending, short hops, repeats, a miss (no predicate 8), a jump
        // past the reach, then behind the hint.
        let mut from = 0;
        for s in [0, 1, 1, 2, 5, 40, 41, 41, 1500, 1501, 1999, 3, 0] {
            for prefix in
                [vec![id(s)], vec![id(s), id(7)], vec![id(s), id(8)], vec![id(s), id(7), id(2)]]
            {
                let got = idx.seek(&prefix, from);
                assert_eq!(got, brute_span(idx.keys(), &prefix), "seek({prefix:?}, {from})");
                from = got.start;
            }
        }
        // Past the last key, and a hint past the key count.
        assert_eq!(idx.seek(&[id(2000)], 5999), 6000..6000);
        assert_eq!(idx.seek(&[id(1999)], 10_000), 5997..6000);
        assert_eq!(idx.seek(&[], 17), 0..6000);
    }
}
