//! The live-update delta overlay over a frozen [`crate::store::Dataset`].
//!
//! The store stays immutable-base-plus-novelty (the RDF-3X differential
//! index design): the six frozen permutation indexes are never touched by
//! an update. Instead the dataset carries an [`Overlay`] holding two small
//! sorted runs *per index order* — `adds` (triples inserted since freeze)
//! and `dels` (tombstones over base triples) — and every scan merges the
//! three sorted sources on the fly, preserving ascending-id key order so
//! delivered orders and morsel slicing keep working unchanged.
//!
//! Invariants (maintained by the mutation API in `store.rs`, the only
//! writer):
//!
//! * every tombstone refers to a triple present in the base indexes
//!   (`dels ⊆ base`);
//! * no added triple is a base triple (`adds ∩ base = ∅`): re-inserting a
//!   tombstoned triple lifts the tombstone, and deleting an added triple
//!   drops the add — so no triple ever sits in both runs;
//! * the visible triple set is `(base \ dels) ∪ adds`, and every run is
//!   strictly sorted in its order's key layout.
//!
//! New terms interned after freeze get ids past the frozen value-ordered
//! range (the *overflow region*, see `Dataset::frozen_terms`). The overlay
//! tracks whether any such id entered a run: while it has, ascending id no
//! longer implies ascending ORDER BY value, and the planner's order
//! service declines (see `PlanNode::physical` in the sparql crate).
//! `Dataset::compact` re-freezes base+delta and restores the invariant.

use crate::dict::Id;
use crate::index::{pack, packed, IndexOrder};

/// Sorted in-memory delta runs (adds + tombstones) over a frozen base.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    /// Added triples, one strictly-sorted run per index order, each entry
    /// in that order's key layout ([`IndexOrder::key_of`]).
    adds: [Vec<[Id; 3]>; 6],
    /// Tombstoned base triples, same layout as `adds`.
    dels: [Vec<[Id; 3]>; 6],
    /// Sticky: set when any run ever held an id at or past the frozen
    /// value-ordered range. Cleared only by compaction (which rebuilds the
    /// overlay empty). Sticky rather than recomputed on removal: once an
    /// overflow id was visible, cached order reasoning may already have
    /// been declined, and staying conservative costs only sort work.
    has_overflow: bool,
}

/// The subrange of a sorted key run whose leading `prefix.len()`
/// components equal `prefix`.
fn prefix_range<'a>(run: &'a [[Id; 3]], prefix: &[Id]) -> &'a [[Id; 3]] {
    let (low, high) = (packed(prefix, 0), packed(prefix, u32::MAX));
    let lo = run.partition_point(|k| pack(k) < low);
    let hi = lo + run[lo..].partition_point(|k| pack(k) <= high);
    &run[lo..hi]
}

impl Overlay {
    /// True when both runs are empty — every scan takes the zero-overhead
    /// base-only path.
    pub fn is_empty(&self) -> bool {
        self.adds[0].is_empty() && self.dels[0].is_empty()
    }

    /// Number of added triples.
    pub fn adds_len(&self) -> usize {
        self.adds[0].len()
    }

    /// Number of tombstoned base triples.
    pub fn dels_len(&self) -> usize {
        self.dels[0].len()
    }

    /// True while some run has ever held an overflow-region id (sticky;
    /// see the field doc).
    pub fn has_overflow(&self) -> bool {
        self.has_overflow
    }

    /// Records that an overflow-region id entered a run.
    pub(crate) fn mark_overflow(&mut self) {
        self.has_overflow = true;
    }

    /// The `(adds, dels)` subranges matching `prefix` in `order`'s key
    /// layout — the two overlay-side inputs of a merged scan. Two empty
    /// slices, at the cost of one check, when the overlay is empty.
    pub fn range(&self, order: IndexOrder, prefix: &[Id]) -> (&[[Id; 3]], &[[Id; 3]]) {
        if self.is_empty() {
            return (&[], &[]);
        }
        let slot = order.slot();
        (prefix_range(&self.adds[slot], prefix), prefix_range(&self.dels[slot], prefix))
    }

    /// True if the SPO triple is in the add runs.
    pub fn in_adds(&self, spo: [Id; 3]) -> bool {
        self.adds[IndexOrder::Spo.slot()].binary_search(&spo).is_ok()
    }

    /// True if the SPO triple is tombstoned.
    pub fn in_dels(&self, spo: [Id; 3]) -> bool {
        self.dels[IndexOrder::Spo.slot()].binary_search(&spo).is_ok()
    }

    /// Inserts `spo` into every add run (no-op when already present).
    pub(crate) fn insert_add(&mut self, spo: [Id; 3]) {
        Self::run_insert(&mut self.adds, spo);
    }

    /// Inserts `spo` into every tombstone run (no-op when already present).
    pub(crate) fn insert_del(&mut self, spo: [Id; 3]) {
        Self::run_insert(&mut self.dels, spo);
    }

    /// Removes `spo` from every add run (no-op when absent).
    pub(crate) fn remove_add(&mut self, spo: [Id; 3]) {
        Self::run_remove(&mut self.adds, spo);
    }

    /// Removes `spo` from every tombstone run (no-op when absent).
    pub(crate) fn remove_del(&mut self, spo: [Id; 3]) {
        Self::run_remove(&mut self.dels, spo);
    }

    fn run_insert(runs: &mut [Vec<[Id; 3]>; 6], spo: [Id; 3]) {
        for (slot, run) in runs.iter_mut().enumerate() {
            let key = IndexOrder::ALL[slot].key_of(spo);
            if let Err(at) = run.binary_search(&key) {
                run.insert(at, key);
            }
        }
    }

    fn run_remove(runs: &mut [Vec<[Id; 3]>; 6], spo: [Id; 3]) {
        for (slot, run) in runs.iter_mut().enumerate() {
            let key = IndexOrder::ALL[slot].key_of(spo);
            if let Ok(at) = run.binary_search(&key) {
                run.remove(at);
            }
        }
    }
}

/// A three-way merge of one index range with the overlay's matching
/// `adds`/`dels` subranges, emitting keys in ascending key order with
/// tombstoned base keys skipped — the scan-time realization of
/// `(base \ dels) ∪ adds`. Relies on the overlay's invariants: `dels ⊆
/// base` and `adds ∩ base = ∅`, so every key it emits is emitted once.
///
/// With empty overlay slices the merge degenerates to advancing the base
/// slice (the fast path every frozen-only dataset takes).
#[derive(Debug, Clone)]
pub(crate) struct MergedKeys<'a> {
    base: &'a [[Id; 3]],
    adds: &'a [[Id; 3]],
    dels: &'a [[Id; 3]],
}

impl<'a> MergedKeys<'a> {
    pub(crate) fn new(base: &'a [[Id; 3]], adds: &'a [[Id; 3]], dels: &'a [[Id; 3]]) -> Self {
        debug_assert!(dels.len() <= base.len(), "tombstones must refer to base triples");
        MergedKeys { base, adds, dels }
    }

    /// Number of keys the merge will emit.
    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.adds.len() - self.dels.len()
    }

    /// The next visible key, in ascending key order.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Option<[Id; 3]> {
        loop {
            let Some(&b) = self.base.first() else {
                // Base exhausted: every tombstone was consumed (dels ⊆
                // base), only adds remain.
                let (&a, rest) = self.adds.split_first()?;
                self.adds = rest;
                return Some(a);
            };
            if let Some(&a) = self.adds.first() {
                if a < b {
                    self.adds = &self.adds[1..];
                    return Some(a);
                }
            }
            // b <= every pending add, and b is no add (adds ∩ base = ∅).
            debug_assert!(self.adds.first() != Some(&b), "an add duplicates a base key");
            // Tombstone check: dels is sorted in the same key order and a
            // subset of base, so its front can only ever equal the base
            // front here.
            self.base = &self.base[1..];
            if self.dels.first() == Some(&b) {
                self.dels = &self.dels[1..];
                continue;
            }
            return Some(b);
        }
    }

    /// Skips the first `n` merged keys. Base segments between overlay
    /// entries are skipped in bulk (binary search), so the cost is
    /// `O(overlay-entries-in-range · log |base|)`, not `O(n)` — the
    /// property that keeps morsel-sliced parallel scans cheap.
    pub(crate) fn skip(&mut self, mut n: usize) {
        while n > 0 {
            if self.adds.is_empty() && self.dels.is_empty() {
                let k = n.min(self.base.len());
                self.base = &self.base[k..];
                return;
            }
            // The earliest overlay key still pending; base keys strictly
            // before it are all emitted verbatim.
            let next_overlay = match (self.adds.first(), self.dels.first()) {
                (Some(a), Some(d)) => {
                    if a < d {
                        a
                    } else {
                        d
                    }
                }
                (Some(a), None) => a,
                (None, Some(d)) => d,
                (None, None) => unreachable!("checked above"),
            };
            let plain = self.base.partition_point(|k| k < next_overlay);
            if plain > 0 {
                let k = n.min(plain);
                self.base = &self.base[k..];
                n -= k;
                continue;
            }
            if self.next_key().is_none() {
                return;
            }
            n -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> [Id; 3] {
        [Id(s), Id(p), Id(o)]
    }

    #[test]
    fn merge_emits_base_minus_dels_plus_adds_in_order() {
        let base = vec![t(0, 0, 0), t(0, 0, 2), t(1, 0, 0), t(2, 0, 0)];
        let adds = vec![t(0, 0, 1), t(3, 0, 0)];
        let dels = vec![t(1, 0, 0)];
        let mut m = MergedKeys::new(&base, &adds, &dels);
        assert_eq!(m.len(), 5);
        let mut out = Vec::new();
        while let Some(k) = m.next_key() {
            out.push(k);
        }
        assert_eq!(out, vec![t(0, 0, 0), t(0, 0, 1), t(0, 0, 2), t(2, 0, 0), t(3, 0, 0)]);
    }

    #[test]
    fn skip_matches_step_by_step_consumption() {
        let base: Vec<[Id; 3]> = (0..20).map(|i| t(i, 0, 0)).collect();
        let adds: Vec<[Id; 3]> = vec![t(3, 0, 1), t(10, 0, 1), t(25, 0, 0)];
        let dels: Vec<[Id; 3]> = vec![t(4, 0, 0), t(11, 0, 0), t(19, 0, 0)];
        let full = {
            let mut m = MergedKeys::new(&base, &adds, &dels);
            let mut v = Vec::new();
            while let Some(k) = m.next_key() {
                v.push(k);
            }
            v
        };
        assert_eq!(full.len(), MergedKeys::new(&base, &adds, &dels).len());
        for start in 0..=full.len() + 2 {
            let mut m = MergedKeys::new(&base, &adds, &dels);
            m.skip(start);
            let mut v = Vec::new();
            while let Some(k) = m.next_key() {
                v.push(k);
            }
            assert_eq!(v, full[start.min(full.len())..], "skip({start})");
        }
    }

    #[test]
    fn overlay_run_maintenance_keeps_all_orders_consistent() {
        let mut ov = Overlay::default();
        assert!(ov.is_empty());
        ov.insert_add(t(5, 1, 9));
        ov.insert_add(t(2, 1, 7));
        ov.insert_add(t(5, 1, 9)); // duplicate: no-op
        ov.insert_del(t(3, 1, 8));
        assert_eq!(ov.adds_len(), 2);
        assert_eq!(ov.dels_len(), 1);
        assert!(ov.in_adds(t(2, 1, 7)) && !ov.in_adds(t(3, 1, 8)));
        assert!(ov.in_dels(t(3, 1, 8)));
        // Every order's run is strictly sorted in its own key layout.
        for &order in &IndexOrder::ALL {
            let (adds, dels) = ov.range(order, &[]);
            assert!(adds.windows(2).all(|w| w[0] < w[1]), "{order:?} adds");
            assert!(dels.windows(2).all(|w| w[0] < w[1]), "{order:?} dels");
            assert_eq!(adds.len(), 2);
            assert_eq!(dels.len(), 1);
        }
        // Prefix ranges follow the order's key layout: Pos keyed by p first.
        let (adds, _) = ov.range(IndexOrder::Pos, &[Id(1)]);
        assert_eq!(adds.len(), 2);
        let (adds, _) = ov.range(IndexOrder::Spo, &[Id(5)]);
        assert_eq!(adds.len(), 1);
        ov.remove_add(t(2, 1, 7));
        ov.remove_del(t(3, 1, 8));
        ov.remove_del(t(3, 1, 8)); // absent: no-op
        assert_eq!(ov.adds_len(), 1);
        assert_eq!(ov.dels_len(), 0);
    }
}
