//! The triple store: a write-once builder, a frozen fully indexed dataset,
//! and a live-update path layered on top of it as a delta overlay
//! ([`crate::overlay`]): `insert`/`delete` accumulate sorted add/tombstone
//! runs that every scan merges with the frozen base in key order, and
//! [`Dataset::compact`] re-freezes base+delta back into a plain frozen
//! store.
//!
//! **Cost model.** The frozen base — the key and bucket arrays of the six
//! permutation indexes and the dictionary's frozen region — is written
//! only by freeze, load and compaction, and every array of it is shared by
//! reference count: cloning a [`Dataset`] (what every server commit does)
//! copies the overlay runs, the dictionary's overflow terms, the
//! statistics and the update log, never the base. A mutation
//! costs `O(log n)` probes plus the degree of the subject it touches.
//! What stays `O(store)` on purpose: [`Dataset::compact`] (the one place
//! the base is rebuilt) and [`Dataset::save`].

use crate::dict::{Dictionary, Id};
use crate::index::{IndexOrder, PermIndex};
use crate::overlay::{MergedKeys, Overlay};
use crate::stats::{Alone, CharacteristicSets, DatasetStats};
use crate::term::Term;
use crate::wal::LoggedOp;

/// A triple pattern at the id level: `None` = wildcard position.
pub type IdPattern = [Option<Id>; 3];

/// Accumulates triples (at the term level), then freezes into a [`Dataset`].
///
/// The builder is the bulk-load path: once [`StoreBuilder::freeze`] runs,
/// the dataset's base indexes are immutable and safe to share across
/// threads (`Dataset: Send + Sync`). Post-freeze mutation goes through the
/// dataset's own [`Dataset::insert`] / [`Dataset::delete`] overlay APIs.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    dict: Dictionary,
    triples: Vec<[Id; 3]>,
}

impl StoreBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (possibly duplicate) triples inserted so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if no triple was inserted.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Access to the dictionary being built (for pre-interning vocabulary).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Inserts a triple of terms.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) {
        let s = self.dict.encode(s);
        let p = self.dict.encode(p);
        let o = self.dict.encode(o);
        self.triples.push([s, p, o]);
    }

    /// Inserts a triple of already-interned ids.
    ///
    /// # Panics
    /// When any id was not handed out by this builder's dictionary. The
    /// check is unconditional: in a release build an out-of-range id would
    /// otherwise corrupt the frozen indexes silently (or panic much later,
    /// deep inside `reorder_by_value`, far from the culprit).
    pub fn insert_ids(&mut self, s: Id, p: Id, o: Id) {
        let n = self.dict.len();
        assert!(
            s.index() < n && p.index() < n && o.index() < n,
            "insert_ids([{s}, {p}, {o}]): id out of range for a dictionary of {n} terms"
        );
        self.triples.push([s, p, o]);
    }

    /// Deduplicates, builds all six permutation indexes and dataset
    /// statistics, and returns the immutable dataset.
    ///
    /// Freezing first rewrites the dictionary into *value order*
    /// ([`Dictionary::reorder_by_value`]): ascending ids then mean
    /// ascending ORDER BY values (numerics first by value, then term
    /// order), so every sorted permutation index doubles as a sorted
    /// result source and the executor can skip sorts behind an
    /// order-compatible scan.
    pub fn freeze(mut self) -> Dataset {
        let old_to_new = self.dict.reorder_by_value();
        for triple in &mut self.triples {
            for slot in triple.iter_mut() {
                *slot = Id(old_to_new[slot.index()]);
            }
        }
        self.triples.sort_unstable();
        self.triples.dedup();
        let indexes: Vec<PermIndex> =
            IndexOrder::ALL.iter().map(|&order| PermIndex::build(order, &self.triples)).collect();
        let indexes: [PermIndex; 6] = indexes.try_into().expect("six orders");
        let stats = DatasetStats::compute(&indexes[IndexOrder::Pso.slot()], &self.dict);
        let char_sets = CharacteristicSets::compute(&indexes[IndexOrder::Spo.slot()]);
        Dataset {
            dict: self.dict,
            indexes,
            stats,
            char_sets,
            overlay: Overlay::default(),
            update_log: None,
        }
    }
}

/// A fully indexed RDF dataset: an immutable frozen base plus a small
/// mutable delta overlay.
///
/// Datasets come into existence two ways: built in memory by
/// [`StoreBuilder::freeze`], or reloaded from a persistent snapshot by
/// [`Dataset::load`] — in which case the triple arrays and bucket
/// directories are served zero-copy from the snapshot's bytes (see
/// [`crate::snapshot`]). The query surface is identical either way.
///
/// Live updates ([`Dataset::insert`] / [`Dataset::delete`]) never touch
/// the frozen indexes: they maintain sorted add/tombstone runs in the
/// [`Overlay`], which every scan merges with the base in ascending key
/// order. Merged scans therefore still deliver their index order and
/// slice into morsels. What updates *can* break is the freeze-time
/// "ascending id ⇔ ascending ORDER BY value" dictionary invariant: a term
/// first interned after freeze gets an id past [`Dataset::frozen_terms`]
/// (the *overflow region*), and while any such id has entered the overlay,
/// [`Dataset::order_by_value_intact`] turns false so the query layer
/// declines value-order service (sorts actually run) instead of silently
/// returning misordered rows. [`Dataset::compact`] re-freezes base+delta
/// and restores the invariant.
///
/// `clone` is `O(delta)`: the frozen base is shared
/// ([`Dataset::shares_base_with`]), only the overlay runs, the overflow
/// terms, the statistics and the update log are copied.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Frozen region shared between clones, overflow region owned.
    pub(crate) dict: Dictionary,
    /// The six frozen permutation indexes. Nothing writes to them after
    /// freeze/load, and their storage — heap-built or mapped alike — is
    /// reference-counted, so clones share it.
    pub(crate) indexes: [PermIndex; 6],
    pub(crate) stats: DatasetStats,
    pub(crate) char_sets: CharacteristicSets,
    pub(crate) overlay: Overlay,
    /// When `Some`, every mutation that changes the visible set appends a
    /// term-level [`LoggedOp`] here — the write-ahead journal's capture
    /// channel (see [`Dataset::begin_update_log`]).
    pub(crate) update_log: Option<Vec<LoggedOp>>,
}

impl Dataset {
    /// True when this dataset was reloaded from a snapshot and serves its
    /// base scans from the snapshot's bytes (OS-mapped or arena-backed)
    /// rather than a freeze-time heap build.
    pub fn is_loaded(&self) -> bool {
        self.indexes.iter().all(PermIndex::is_loaded)
    }

    /// True when this dataset's base scans are served from an OS file
    /// mapping (the zero-copy fast path; false for heap builds and for the
    /// read-into-arena fallback of hosts without a 64-bit unix `mmap`, or
    /// of a mapping the kernel refused).
    pub fn is_mapped(&self) -> bool {
        self.indexes.iter().all(PermIndex::is_mapped)
    }
    /// The term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// True when `self` and `other` read the same frozen base in memory —
    /// the same six key arrays and the same frozen dictionary region, by
    /// pointer: one is a clone of the other and neither has been compacted
    /// since. The structural proof that a commit copied no base.
    pub fn shares_base_with(&self, other: &Dataset) -> bool {
        let same_keys = |(a, b): (&PermIndex, &PermIndex)| std::ptr::eq(a.keys(), b.keys());
        self.indexes.iter().zip(&other.indexes).all(same_keys)
            && self.dict.shares_frozen_with(&other.dict)
    }

    /// Dataset statistics — exact for the *visible* triple set: computed
    /// in full at freeze/compaction, then maintained by every mutation
    /// from the triples it changes (one `O(log n)` merged `count` probe per
    /// distinct count a triple can move), so the optimizer always sees the
    /// same numbers a from-scratch freeze of the visible set would produce.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// Characteristic sets (star-query statistics); exact for the visible
    /// set, like [`Dataset::stats`]: a mutation moves the one subject it
    /// touches between its old and new predicate set (`O(degree)` of that
    /// subject).
    pub fn char_sets(&self) -> &CharacteristicSets {
        &self.char_sets
    }

    /// The delta overlay (add/tombstone runs) over the frozen base.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Dictionary length at freeze/load time: the boundary of the
    /// value-ordered id range. Terms interned by later inserts get ids at
    /// or past it (the overflow region).
    pub fn frozen_terms(&self) -> usize {
        self.dict.frozen_len()
    }

    /// True while "ascending id ⇔ ascending ORDER BY value" holds for
    /// every id a scan can emit. Turns false (sticky, until
    /// [`Dataset::compact`]) once an overflow-region id enters the
    /// overlay; the planner then declines order service — merged scans are
    /// still perfectly id-sorted, but id order no longer implies value
    /// order, so sorts must actually run.
    pub fn order_by_value_intact(&self) -> bool {
        !self.overlay.has_overflow()
    }

    /// Total number of distinct *visible* triples
    /// (`base − tombstones + adds`).
    pub fn len(&self) -> usize {
        self.indexes[0].len() + self.overlay.adds_len() - self.overlay.dels_len()
    }

    /// True if the dataset holds no visible triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base index with the given ordering (frozen triples only — use
    /// the scan/count APIs for overlay-aware access).
    #[allow(clippy::should_implement_trait)] // domain term: a store "index", not ops::Index
    pub fn index(&self, order: IndexOrder) -> &PermIndex {
        &self.indexes[order.slot()]
    }

    /// The default index order serving an id-level pattern.
    pub fn default_order(pattern: IdPattern) -> IndexOrder {
        IndexOrder::for_bound(pattern[0].is_some(), pattern[1].is_some(), pattern[2].is_some())
    }

    /// Chooses the index and key prefix serving an id-level pattern.
    fn plan_access(&self, pattern: IdPattern) -> (&PermIndex, KeyPrefix) {
        self.plan_access_with(pattern, Self::default_order(pattern))
    }

    /// The index of `order` and the bound-key prefix for `pattern`.
    /// `order` must cover the pattern's bound positions
    /// ([`IndexOrder::covers_bound`]).
    fn plan_access_with(&self, pattern: IdPattern, order: IndexOrder) -> (&PermIndex, KeyPrefix) {
        debug_assert!(
            order.covers_bound(pattern[0].is_some(), pattern[1].is_some(), pattern[2].is_some()),
            "{order:?} does not cover the bound positions of {pattern:?}"
        );
        let mut prefix = KeyPrefix { ids: [Id(0); 3], len: 0 };
        for pos in order.perm() {
            let Some(id) = pattern[pos] else { break };
            prefix.ids[prefix.len] = id;
            prefix.len += 1;
        }
        (self.index(order), prefix)
    }

    /// Iterates all visible SPO triples matching `pattern`.
    pub fn scan(&self, pattern: IdPattern) -> Probe<'_> {
        self.scan_with(pattern, Self::default_order(pattern))
    }

    /// Iterates all visible SPO triples matching `pattern` out of the
    /// index with the given `order` (which must cover the pattern's bound
    /// positions), merged with the overlay's matching delta runs. The
    /// choice never changes *which* triples match — only the order they
    /// are delivered in: ascending by the unbound key positions of
    /// `order`, tombstoned base triples skipped, added triples spliced in
    /// at their sorted position.
    pub fn scan_with(&self, pattern: IdPattern, order: IndexOrder) -> Probe<'_> {
        let (idx, prefix) = self.plan_access_with(pattern, order);
        self.merged(idx, &prefix, idx.range(&prefix))
    }

    /// [`Dataset::scan`] for one probe of a sequence — a bind join's probe
    /// per left row: the same triples in the same order, with the base
    /// range found by [`PermIndex::seek`] from where the previous probe
    /// through `hint` landed, and `hint` moved to where this one lands.
    /// Probes whose keys ascend gallop a short way forward instead of
    /// searching the bucket directory; any other sequence costs what
    /// [`Dataset::scan`] costs plus two key comparisons. The overlay runs
    /// are binary-searched as a scan searches them. Allocates nothing.
    pub fn probe(&self, pattern: IdPattern, hint: &mut ProbeHint) -> Probe<'_> {
        let (idx, prefix) = self.plan_access(pattern);
        let span = idx.seek(&prefix, hint.from);
        hint.from = span.start;
        self.merged(idx, &prefix, &idx.keys()[span])
    }

    /// Iterates the sub-range `[start, end)` of the visible triples
    /// matching `pattern`, in the same order [`Dataset::scan`] uses — the
    /// morsel primitive of parallel scans: consecutive slices concatenated
    /// in order reproduce the full scan exactly. `end` is clamped to the
    /// match count; an inverted range (`end <= start`) yields nothing.
    pub fn scan_slice(&self, pattern: IdPattern, start: usize, end: usize) -> Probe<'_> {
        self.scan_slice_with(pattern, Self::default_order(pattern), start, end)
    }

    /// [`Dataset::scan_slice`] over an explicit index `order` — so morsels
    /// of an order-chosen scan concatenate to [`Dataset::scan_with`] of the
    /// same order exactly, overlay deltas included.
    pub fn scan_slice_with(
        &self,
        pattern: IdPattern,
        order: IndexOrder,
        start: usize,
        end: usize,
    ) -> Probe<'_> {
        let mut scan = self.scan_with(pattern, order);
        let start = start.min(scan.remaining);
        scan.keys.skip(start);
        // saturating: an inverted range (end < start) is an empty slice,
        // not an underflow.
        scan.remaining = end.min(scan.remaining).saturating_sub(start);
        scan
    }

    /// The merged scan of `base` — `prefix`'s key range in `idx` — with
    /// the overlay's runs matching `prefix`.
    fn merged<'s>(&'s self, idx: &PermIndex, prefix: &[Id], base: &'s [[Id; 3]]) -> Probe<'s> {
        let order = idx.order();
        let (adds, dels) = self.overlay.range(order, prefix);
        let keys = MergedKeys::new(base, adds, dels);
        Probe { order, remaining: keys.len(), keys }
    }

    /// Exact number of visible triples matching `pattern` (binary search
    /// on the base index and on the overlay runs).
    pub fn count(&self, pattern: IdPattern) -> usize {
        let (idx, prefix) = self.plan_access(pattern);
        let (adds, dels) = self.overlay.range(idx.order(), &prefix);
        idx.count(&prefix) + adds.len() - dels.len()
    }

    /// Number of overlay delta entries (adds + tombstones) a scan of
    /// `pattern` consults — 0 exactly when the scan takes the overlay-free
    /// fast path. The executor records this per scan so tests can prove
    /// the empty-overlay path really merges nothing.
    pub fn overlay_entries(&self, pattern: IdPattern) -> usize {
        let (idx, prefix) = self.plan_access(pattern);
        let (adds, dels) = self.overlay.range(idx.order(), &prefix);
        adds.len() + dels.len()
    }

    /// True if at least one visible triple matches `pattern`.
    pub fn contains(&self, pattern: IdPattern) -> bool {
        self.count(pattern) > 0
    }

    /// Exact number of distinct values of the *first unbound* position in
    /// index order for `pattern` — e.g. for `(?, p, o)` the number of
    /// distinct subjects. Overlay-aware.
    pub fn distinct_next(&self, pattern: IdPattern) -> usize {
        let (idx, prefix) = self.plan_access(pattern);
        self.distinct_with(idx.order(), &prefix)
    }

    /// Exact distinct count of the key position right after `prefix` in
    /// `order`, over the *visible* triples. The base answer is the frozen
    /// index's galloping [`PermIndex::distinct_after`], corrected for the
    /// overlay: a value disappears only when tombstones cover every base
    /// triple carrying it and no add re-supplies it; a value is new only
    /// when the base range never had it. `O(delta · log n)` on top of the
    /// base cost, which grows with the prefix's extent — counted by
    /// [`crate::diag::distinct_walks`]. For an empty or predicate-only
    /// prefix [`Dataset::stats`] holds the same number in `O(1)`.
    pub fn distinct_with(&self, order: IndexOrder, prefix: &[Id]) -> usize {
        crate::diag::count_distinct_walk();
        let idx = self.index(order);
        let base = idx.distinct_after(prefix);
        let (adds, dels) = self.overlay.range(order, prefix);
        if adds.is_empty() && dels.is_empty() {
            return base;
        }
        let k = prefix.len();
        debug_assert!(k < 3, "distinct_with needs an unbound key position");
        // Count of entries in a prefix-restricted run whose component `k`
        // equals `v` (the run is sorted by component `k` within the prefix).
        let value_run = |run: &[[Id; 3]], v: Id| -> usize {
            let lo = run.partition_point(|key| key[k] < v);
            let hi = run.partition_point(|key| key[k] <= v);
            hi - lo
        };
        let mut d = base as isize;
        let mut sub = [Id(0); 3];
        sub[..k].copy_from_slice(prefix);
        let sub_prefix = k + 1;
        let mut last: Option<Id> = None;
        for key in dels {
            let v = key[k];
            if last == Some(v) {
                continue;
            }
            last = Some(v);
            sub[k] = v;
            if value_run(dels, v) == idx.count(&sub[..sub_prefix]) && value_run(adds, v) == 0 {
                d -= 1;
            }
        }
        let mut last: Option<Id> = None;
        for key in adds {
            let v = key[k];
            if last == Some(v) {
                continue;
            }
            last = Some(v);
            sub[k] = v;
            if idx.count(&sub[..sub_prefix]) == 0 {
                d += 1;
            }
        }
        d.max(0) as usize
    }

    /// Looks up a term id.
    pub fn lookup(&self, term: &Term) -> Option<Id> {
        self.dict.lookup(term)
    }

    /// Decodes an id back to its term.
    pub fn decode(&self, id: Id) -> &Term {
        self.dict.decode(id)
    }

    /// Iterates the distinct objects of visible triples with predicate `p`
    /// (e.g. a parameter domain such as "all countries") in ascending id
    /// order, without allocating. Preferred over [`Dataset::objects_of`]
    /// on hot paths (domain extraction scans every value once per curation
    /// run).
    pub fn objects_of_iter(&self, p: Id) -> impl Iterator<Item = Id> + '_ {
        let mut last: Option<Id> = None;
        self.scan_with([None, Some(p), None], IndexOrder::Pos).filter_map(move |t| {
            let v = t[2];
            if last == Some(v) {
                None
            } else {
                last = Some(v);
                Some(v)
            }
        })
    }

    /// Iterates the distinct subjects of visible triples with predicate
    /// `p` in ascending id order, without allocating.
    pub fn subjects_of_iter(&self, p: Id) -> impl Iterator<Item = Id> + '_ {
        let mut last: Option<Id> = None;
        self.scan_with([None, Some(p), None], IndexOrder::Pso).filter_map(move |t| {
            let v = t[0];
            if last == Some(v) {
                None
            } else {
                last = Some(v);
                Some(v)
            }
        })
    }

    /// All distinct objects of visible triples with predicate `p`. Sorted
    /// by id. Thin allocating wrapper around [`Dataset::objects_of_iter`].
    pub fn objects_of(&self, p: Id) -> Vec<Id> {
        self.objects_of_iter(p).collect()
    }

    /// All distinct subjects of visible triples with predicate `p`. Sorted
    /// by id. Thin allocating wrapper around
    /// [`Dataset::subjects_of_iter`].
    pub fn subjects_of(&self, p: Id) -> Vec<Id> {
        self.subjects_of_iter(p).collect()
    }

    // ------------------------------------------------------------------
    // Live updates
    // ------------------------------------------------------------------

    /// Inserts one triple, interning any new terms (which land in the
    /// dictionary's overflow region and suspend value-order service until
    /// [`Dataset::compact`]). Returns `true` if the visible set changed
    /// (`false` = the triple was already visible).
    ///
    /// Statistics and characteristic sets are updated from this one
    /// triple and stay exact for the visible set. Cost: `O(log n)` probes
    /// plus the subject's degree — independent of the store size, so a
    /// batch costs what its triples cost one by one
    /// ([`Dataset::insert_batch`] only saves journal records).
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let logged = self.update_log.is_some().then(|| (s.clone(), p.clone(), o.clone()));
        let spo = [self.dict.encode(s), self.dict.encode(p), self.dict.encode(o)];
        let changed = self.insert_raw(spo);
        if let (true, Some(log), Some(triple)) = (changed, self.update_log.as_mut(), logged) {
            log.push(LoggedOp::Insert(vec![triple]));
        }
        changed
    }

    /// Deletes one triple (by term; unknown terms mean the triple cannot
    /// be visible — nothing is interned). Returns `true` if the visible
    /// set changed. Statistics are maintained and priced as for
    /// [`Dataset::insert`].
    pub fn delete(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(si), Some(pi), Some(oi)) =
            (self.dict.lookup(s), self.dict.lookup(p), self.dict.lookup(o))
        else {
            return false;
        };
        let changed = self.delete_raw([si, pi, oi]);
        if let (true, Some(log)) = (changed, self.update_log.as_mut()) {
            log.push(LoggedOp::Delete(vec![(s.clone(), p.clone(), o.clone())]));
        }
        changed
    }

    /// Inserts a batch of triples; returns how many changed the visible
    /// set. `O(batch)`: each triple pays what [`Dataset::insert`] pays, and
    /// the batch is captured as one [`LoggedOp`].
    pub fn insert_batch(&mut self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> usize {
        let logging = self.update_log.is_some();
        let mut logged = Vec::new();
        let mut changed = 0;
        for (s, p, o) in triples {
            let capture = logging.then(|| (s.clone(), p.clone(), o.clone()));
            let spo = [self.dict.encode(s), self.dict.encode(p), self.dict.encode(o)];
            if self.insert_raw(spo) {
                changed += 1;
                if let Some(triple) = capture {
                    logged.push(triple);
                }
            }
        }
        if !logged.is_empty() {
            if let Some(log) = self.update_log.as_mut() {
                log.push(LoggedOp::Insert(logged));
            }
        }
        changed
    }

    /// Deletes a batch of triples; returns how many changed the visible
    /// set. `O(batch)`, logged like [`Dataset::insert_batch`].
    pub fn delete_batch(&mut self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> usize {
        let logging = self.update_log.is_some();
        let mut logged = Vec::new();
        let mut changed = 0;
        for (s, p, o) in triples {
            let (Some(si), Some(pi), Some(oi)) =
                (self.dict.lookup(&s), self.dict.lookup(&p), self.dict.lookup(&o))
            else {
                continue;
            };
            if self.delete_raw([si, pi, oi]) {
                changed += 1;
                if logging {
                    logged.push((s, p, o));
                }
            }
        }
        if !logged.is_empty() {
            if let Some(log) = self.update_log.as_mut() {
                log.push(LoggedOp::Delete(logged));
            }
        }
        changed
    }

    /// Re-freezes base+delta into a plain frozen store: materializes the
    /// visible triple set, rebuilds the six permutation indexes and the
    /// statistics, and rewrites the *whole* dictionary (overflow region
    /// included — no term is ever dropped, so pre-interned vocabulary
    /// survives) back into value order. Afterwards the overlay is empty
    /// and [`Dataset::order_by_value_intact`] holds again. A compacted
    /// store can be re-saved with [`Dataset::save`].
    ///
    /// This is the one mutation that is `O(store)` on purpose — it builds a
    /// new base (six index sorts, a dictionary reorder, the full statistics
    /// computation), which the compacted store then shares with nobody
    /// until it is cloned again.
    ///
    /// The no-op fast path requires more than an empty overlay: a
    /// cancelled overflow insert (new term interned, triple deleted again)
    /// leaves the runs empty while the dictionary still holds
    /// out-of-value-order terms and the sticky overflow flag stands, so
    /// compaction must still re-sort to honour its postcondition.
    pub fn compact(&mut self) {
        if self.overlay.is_empty()
            && self.order_by_value_intact()
            && self.dict.len() == self.dict.frozen_len()
        {
            return;
        }
        let triples: Vec<[Id; 3]> = self.scan([None, None, None]).collect();
        let dict = std::mem::take(&mut self.dict);
        // The re-freeze replaces `self` wholesale; carry the update log
        // across it (with the compaction itself recorded, since replay
        // must compact at the same point to reproduce dictionary order).
        let mut log = self.update_log.take();
        if let Some(log) = log.as_mut() {
            log.push(LoggedOp::Compact);
        }
        *self = StoreBuilder { dict, triples }.freeze();
        self.update_log = log;
    }

    /// Starts capturing mutations as term-level [`LoggedOp`]s. While
    /// active, every mutation that changes the visible set appends the
    /// changed triples (and every real compaction a [`LoggedOp::Compact`])
    /// to the log, in application order. Replaying the captured ops via
    /// [`Dataset::apply_logged`] onto a copy of the pre-mutation store
    /// reproduces this store exactly — ids, overlay, statistics and all —
    /// which is what makes the write-ahead journal's recovery bit-exact.
    pub fn begin_update_log(&mut self) {
        self.update_log = Some(Vec::new());
    }

    /// Stops capturing and returns the ops logged since
    /// [`Dataset::begin_update_log`] (empty if capture was never started).
    pub fn take_update_log(&mut self) -> Vec<LoggedOp> {
        self.update_log.take().unwrap_or_default()
    }

    /// Applies one replayed operation through the same mutation APIs the
    /// live store used. Returns how many triples changed the visible set.
    pub fn apply_logged(&mut self, op: &LoggedOp) -> usize {
        match op {
            LoggedOp::Insert(triples) => self.insert_batch(triples.iter().cloned()),
            LoggedOp::Delete(triples) => self.delete_batch(triples.iter().cloned()),
            LoggedOp::Compact => {
                self.compact();
                0
            }
        }
    }

    /// Applies one insert to the overlay and, when the visible set
    /// changed, to the statistics. Returns whether it did.
    fn insert_raw(&mut self, spo: [Id; 3]) -> bool {
        if self.contains([Some(spo[0]), Some(spo[1]), Some(spo[2])]) {
            return false;
        }
        if self.overlay.in_dels(spo) {
            // A tombstoned base triple coming back: lift the tombstone
            // (cheaper than an add that would shadow it, and it keeps the
            // adds run free of visible-base duplicates).
            self.overlay.remove_del(spo);
        } else {
            self.overlay.insert_add(spo);
            if spo.iter().any(|id| id.index() >= self.dict.frozen_len()) {
                self.overlay.mark_overflow();
            }
        }
        // Probed with the triple visible: a group it is alone in, it opened.
        self.stats.add(spo[1], self.alone(spo));
        self.char_sets.add(&self.subject_profile(spo[0]), spo[1]);
        true
    }

    /// Applies one delete to the overlay and, when the visible set
    /// changed, to the statistics. Returns whether it did.
    fn delete_raw(&mut self, spo: [Id; 3]) -> bool {
        if !self.contains([Some(spo[0]), Some(spo[1]), Some(spo[2])]) {
            return false;
        }
        // Probed with the triple still visible: a group it is alone in
        // closes with it.
        self.stats.remove(spo[1], self.alone(spo));
        self.char_sets.remove(&self.subject_profile(spo[0]), spo[1]);
        if self.overlay.in_adds(spo) {
            // Visible via the adds run (a post-freeze insert): dropping
            // the add suffices.
            self.overlay.remove_add(spo);
        } else {
            self.overlay.insert_del(spo);
        }
        true
    }

    /// Which of its four groups the *visible* triple `spo` is alone in:
    /// four merged `count` probes (`O(log n)` each, base and overlay runs
    /// by binary search). "First of its group" after an insert and "last of
    /// its group" before a delete are the same question.
    fn alone(&self, [s, p, o]: [Id; 3]) -> Alone {
        let only = |pattern| self.count(pattern) == 1;
        Alone {
            sp: only([Some(s), Some(p), None]),
            po: only([None, Some(p), Some(o)]),
            s: only([Some(s), None, None]),
            o: only([None, None, Some(o)]),
        }
    }

    /// The visible predicates of subject `s`, ascending, each with its
    /// triple count — the subject's contribution to its characteristic
    /// set. `O(degree of s)`.
    fn subject_profile(&self, s: Id) -> Vec<(Id, usize)> {
        let mut profile: Vec<(Id, usize)> = Vec::new();
        for [_, p, _] in self.scan([Some(s), None, None]) {
            match profile.last_mut() {
                Some((last, count)) if *last == p => *count += 1,
                _ => profile.push((p, 1)),
            }
        }
        profile
    }
}

/// The bound-key prefix of a pattern in one index's key order: up to
/// three ids, held inline so that planning an access allocates nothing.
struct KeyPrefix {
    ids: [Id; 3],
    len: usize,
}

impl std::ops::Deref for KeyPrefix {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        &self.ids[..self.len]
    }
}

/// Where a sequence of [`Dataset::probe`]s last landed in the base index:
/// the next probe gallops forward from there when its keys ascend. One
/// per probing operator (each morsel pipeline builds its own), never
/// shared across threads. Any value is correct: a hint that is behind,
/// ahead or from another pattern only loses its speed-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeHint {
    from: usize,
}

/// The visible SPO triples of one index key range, in that index's key
/// order: the base range merged with the overlay's matching add and
/// tombstone runs. What every [`Dataset`] scan and probe returns; its
/// exact length is known up front ([`ExactSizeIterator::len`]).
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    order: IndexOrder,
    keys: MergedKeys<'a>,
    remaining: usize,
}

impl Iterator for Probe<'_> {
    type Item = [Id; 3];

    #[inline]
    fn next(&mut self) -> Option<[Id; 3]> {
        if self.remaining == 0 {
            return None;
        }
        let key = self.keys.next_key()?;
        self.remaining -= 1;
        Some(self.order.spo_of(key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Probe<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> Dataset {
        let mut b = StoreBuilder::new();
        let alice = Term::iri("http://e/alice");
        let bob = Term::iri("http://e/bob");
        let carol = Term::iri("http://e/carol");
        let knows = Term::iri("http://e/knows");
        let name = Term::iri("http://e/name");
        b.insert(alice.clone(), knows.clone(), bob.clone());
        b.insert(alice.clone(), knows.clone(), carol.clone());
        b.insert(bob.clone(), knows.clone(), carol.clone());
        b.insert(alice.clone(), name.clone(), Term::literal("Alice"));
        b.insert(bob.clone(), name.clone(), Term::literal("Bob"));
        // duplicate — must be removed by freeze
        b.insert(alice, knows, bob);
        b.freeze()
    }

    #[test]
    fn freeze_dedups() {
        let ds = build_sample();
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn scan_by_various_masks() {
        let ds = build_sample();
        let alice = ds.lookup(&Term::iri("http://e/alice")).unwrap();
        let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
        let carol = ds.lookup(&Term::iri("http://e/carol")).unwrap();

        assert_eq!(ds.count([None, None, None]), 5);
        assert_eq!(ds.count([Some(alice), None, None]), 3);
        assert_eq!(ds.count([None, Some(knows), None]), 3);
        assert_eq!(ds.count([None, None, Some(carol)]), 2);
        assert_eq!(ds.count([Some(alice), Some(knows), None]), 2);
        assert_eq!(ds.count([Some(alice), None, Some(carol)]), 1);
        assert_eq!(ds.count([None, Some(knows), Some(carol)]), 2);
        assert_eq!(ds.count([Some(alice), Some(knows), Some(carol)]), 1);

        // scans agree with counts for every mask
        for s in [None, Some(alice)] {
            for p in [None, Some(knows)] {
                for o in [None, Some(carol)] {
                    let pat = [s, p, o];
                    assert_eq!(ds.scan(pat).count(), ds.count(pat), "{pat:?}");
                    for t in ds.scan(pat) {
                        if let Some(sv) = s {
                            assert_eq!(t[0], sv);
                        }
                        if let Some(pv) = p {
                            assert_eq!(t[1], pv);
                        }
                        if let Some(ov) = o {
                            assert_eq!(t[2], ov);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn contains_and_distinct() {
        let ds = build_sample();
        let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
        let name = ds.lookup(&Term::iri("http://e/name")).unwrap();
        assert!(ds.contains([None, Some(knows), None]));
        // distinct subjects of `knows`: alice, bob
        assert_eq!(ds.distinct_next([None, Some(knows), None]), 2);
        // distinct subjects of `name`: alice, bob
        assert_eq!(ds.distinct_next([None, Some(name), None]), 2);
    }

    #[test]
    fn objects_and_subjects_of() {
        let ds = build_sample();
        let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
        assert_eq!(ds.objects_of(knows).len(), 2); // bob, carol
        assert_eq!(ds.subjects_of(knows).len(), 2); // alice, bob
    }

    #[test]
    fn iterator_variants_match_allocating_wrappers() {
        let ds = build_sample();
        for pred in ["http://e/knows", "http://e/name"] {
            let p = ds.lookup(&Term::iri(pred)).unwrap();
            let objs: Vec<Id> = ds.objects_of_iter(p).collect();
            assert_eq!(objs, ds.objects_of(p), "objects of {pred}");
            let subs: Vec<Id> = ds.subjects_of_iter(p).collect();
            assert_eq!(subs, ds.subjects_of(p), "subjects of {pred}");
            // Distinct and sorted.
            let mut dedup = objs.clone();
            dedup.dedup();
            assert_eq!(dedup, objs);
            assert!(objs.windows(2).all(|w| w[0] < w[1]));
        }
        // A predicate with no triples yields an empty iterator.
        let missing = Id(9999);
        assert_eq!(ds.objects_of_iter(missing).count(), 0);
    }

    #[test]
    fn scan_slices_concatenate_to_full_scan() {
        let ds = build_sample();
        let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
        for pat in [[None, None, None], [None, Some(knows), None]] {
            let full: Vec<[Id; 3]> = ds.scan(pat).collect();
            for step in 1..=full.len() {
                let mut pieced = Vec::new();
                let mut start = 0;
                while start < full.len() {
                    pieced.extend(ds.scan_slice(pat, start, start + step));
                    start += step;
                }
                assert_eq!(pieced, full, "step {step} over {pat:?}");
            }
            // Out-of-range slices clamp instead of panicking.
            assert_eq!(ds.scan_slice(pat, full.len() + 5, full.len() + 9).count(), 0);
            assert_eq!(ds.scan_slice(pat, 0, usize::MAX).count(), full.len());
        }
    }

    #[test]
    fn freeze_orders_ids_by_value() {
        let mut b = StoreBuilder::new();
        b.insert(Term::iri("s/z"), Term::iri("p"), Term::integer(30));
        b.insert(Term::iri("s/a"), Term::iri("p"), Term::integer(4));
        b.insert(Term::iri("s/m"), Term::iri("p"), Term::integer(200));
        let ds = b.freeze();
        // Ascending id ⇔ ascending value order, for every pair of ids.
        for a in 0..ds.dict().len() as u32 {
            for bb in (a + 1)..ds.dict().len() as u32 {
                assert_ne!(
                    ds.dict().compare(Id(a), Id(bb)),
                    std::cmp::Ordering::Greater,
                    "ids out of value order after freeze"
                );
            }
        }
        // Scanning (?, p, ?) therefore delivers objects sorted by VALUE
        // when subjects tie — and subjects sorted by term order overall.
        let p = ds.lookup(&Term::iri("p")).unwrap();
        let objs: Vec<f64> =
            ds.scan([None, Some(p), None]).map(|t| ds.dict().numeric(t[2]).unwrap()).collect();
        let subj: Vec<&Term> = ds.scan([None, Some(p), None]).map(|t| ds.decode(t[0])).collect();
        assert!(subj.windows(2).all(|w| w[0] <= w[1]), "subjects not in term order");
        assert_eq!(objs.len(), 3);
        // Per-subject numeric order holds trivially (one object each); the
        // POS index delivers prices in ascending numeric order.
        let by_obj: Vec<f64> = ds
            .scan_with([None, Some(p), None], IndexOrder::Pos)
            .map(|t| ds.dict().numeric(t[2]).unwrap())
            .collect();
        assert_eq!(by_obj, vec![4.0, 30.0, 200.0]);
    }

    #[test]
    fn scan_with_alternative_orders_matches_scan_set() {
        let ds = build_sample();
        let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
        let pat = [None, Some(knows), None];
        let mut base: Vec<[Id; 3]> = ds.scan(pat).collect();
        base.sort_unstable();
        for order in IndexOrder::all_for_bound(false, true, false) {
            let mut got: Vec<[Id; 3]> = ds.scan_with(pat, order).collect();
            // Same triple set, possibly different delivery order.
            got.sort_unstable();
            assert_eq!(got, base, "{order:?}");
            // Slices concatenate to the ordered scan exactly.
            let full: Vec<[Id; 3]> = ds.scan_with(pat, order).collect();
            let mut pieced = Vec::new();
            for start in (0..full.len()).step_by(2) {
                pieced.extend(ds.scan_slice_with(pat, order, start, start + 2));
            }
            assert_eq!(pieced, full, "{order:?}");
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = StoreBuilder::new().freeze();
        assert!(ds.is_empty());
        assert_eq!(ds.count([None, None, None]), 0);
        assert_eq!(ds.scan([None, None, None]).count(), 0);
    }

    /// Regression (PR 7): `insert_ids` only `debug_assert!`ed its ids, so a
    /// release build would let an out-of-range id corrupt the frozen
    /// indexes silently. The bound check is now unconditional.
    #[test]
    fn insert_ids_rejects_foreign_ids_unconditionally() {
        let mut b = StoreBuilder::new();
        let s = b.dict_mut().encode(Term::iri("http://e/s"));
        let p = b.dict_mut().encode(Term::iri("http://e/p"));
        let o = b.dict_mut().encode(Term::integer(1));
        b.insert_ids(s, p, o); // in-range: fine
        let out_of_range = Id(b.dict_mut().len() as u32);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.insert_ids(s, p, out_of_range);
        }));
        assert!(panicked.is_err(), "an id the dictionary never issued must be refused");
    }

    // ------------------------------------------------------------------
    // Live-update (overlay) behaviour
    // ------------------------------------------------------------------

    fn term(s: &str) -> Term {
        Term::iri(s.to_string())
    }

    /// Every pattern mask agrees between scan and count, and matches an
    /// independently maintained visible-set model.
    fn assert_consistent(ds: &Dataset, model: &std::collections::BTreeSet<(Term, Term, Term)>) {
        let visible: Vec<(Term, Term, Term)> = ds
            .scan([None, None, None])
            .map(|t| (ds.decode(t[0]).clone(), ds.decode(t[1]).clone(), ds.decode(t[2]).clone()))
            .collect();
        let as_set: std::collections::BTreeSet<_> = visible.iter().cloned().collect();
        assert_eq!(as_set, *model, "visible set diverged from model");
        assert_eq!(visible.len(), model.len(), "merged scan emitted duplicates");
        assert_eq!(ds.len(), model.len());
        // Counts agree with scans for per-triple masks.
        for (s, p, o) in model {
            let (s, p, o) = (ds.lookup(s).unwrap(), ds.lookup(p).unwrap(), ds.lookup(o).unwrap());
            assert!(ds.contains([Some(s), Some(p), Some(o)]));
        }
        // Statistics stayed exact.
        assert_eq!(ds.stats().total_triples, model.len());
        assert_derived_exact(ds);
    }

    /// Panics unless the maintained statistics and characteristic sets
    /// equal the full computation over the merged visible scans — the same
    /// computation freeze runs, so the optimizer's inputs on a mutated
    /// store are bit-identical to what a from-scratch freeze of the visible
    /// set would produce (the property the update differential suite
    /// pins). `O(store)`.
    fn assert_derived_exact(ds: &Dataset) {
        let all = [None, None, None];
        let pso: Vec<[Id; 3]> =
            ds.scan_with(all, IndexOrder::Pso).map(|t| IndexOrder::Pso.key_of(t)).collect();
        assert_eq!(
            ds.stats,
            DatasetStats::compute_from_keys(&pso),
            "incrementally maintained statistics diverged from a from-scratch compute"
        );
        let spo: Vec<[Id; 3]> = ds.scan_with(all, IndexOrder::Spo).collect();
        assert_eq!(
            ds.char_sets,
            CharacteristicSets::compute_from_keys(&spo),
            "incrementally maintained characteristic sets diverged from a from-scratch compute"
        );
    }

    #[test]
    fn insert_delete_roundtrip_updates_visible_set() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        b.insert(term("s/b"), term("p"), term("o/2"));
        let mut ds = b.freeze();
        let mut model: std::collections::BTreeSet<(Term, Term, Term)> =
            [(term("s/a"), term("p"), term("o/1")), (term("s/b"), term("p"), term("o/2"))]
                .into_iter()
                .collect();
        assert_consistent(&ds, &model);

        // Insert of a brand-new triple over existing terms.
        assert!(ds.insert(term("s/a"), term("p"), term("o/2")));
        model.insert((term("s/a"), term("p"), term("o/2")));
        assert_consistent(&ds, &model);
        // Re-insert of a visible triple: no-op.
        assert!(!ds.insert(term("s/a"), term("p"), term("o/2")));
        assert_consistent(&ds, &model);

        // Delete of a base triple (tombstone).
        assert!(ds.delete(&term("s/b"), &term("p"), &term("o/2")));
        model.remove(&(term("s/b"), term("p"), term("o/2")));
        assert_consistent(&ds, &model);
        // Delete of a never-inserted triple: no-op, nothing interned.
        let dict_before = ds.dict().len();
        assert!(!ds.delete(&term("s/zzz"), &term("p"), &term("o/1")));
        assert_eq!(ds.dict().len(), dict_before);
        assert_consistent(&ds, &model);

        // Re-insert after delete lifts the tombstone.
        assert!(ds.insert(term("s/b"), term("p"), term("o/2")));
        model.insert((term("s/b"), term("p"), term("o/2")));
        assert_consistent(&ds, &model);
        assert_eq!(ds.overlay().dels_len(), 0, "tombstone must be lifted, not shadowed");

        // Delete of an overlay add removes the add again.
        assert!(ds.delete(&term("s/a"), &term("p"), &term("o/2")));
        model.remove(&(term("s/a"), term("p"), term("o/2")));
        assert_consistent(&ds, &model);
        assert!(ds.overlay().is_empty(), "all deltas cancelled out");
        assert!(ds.order_by_value_intact());
    }

    #[test]
    fn overflow_terms_suspend_value_order_until_compact() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        let mut ds = b.freeze();
        assert!(ds.order_by_value_intact());
        let frozen = ds.frozen_terms();
        // A new term lands in the overflow region.
        assert!(ds.insert(term("s/new"), term("p"), term("o/1")));
        let new_id = ds.lookup(&term("s/new")).unwrap();
        assert!(new_id.index() >= frozen);
        assert!(!ds.order_by_value_intact());
        // Sticky even after the add is deleted again.
        assert!(ds.delete(&term("s/new"), &term("p"), &term("o/1")));
        assert!(!ds.order_by_value_intact());
        // Compact rebuilds value order; the overflow term keeps existing.
        assert!(ds.insert(term("s/new"), term("p"), term("o/1")));
        ds.compact();
        assert!(ds.order_by_value_intact());
        assert!(ds.overlay().is_empty());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.frozen_terms(), ds.dict().len());
        // Ascending id ⇔ ascending value again, overflow term included.
        for a in 0..ds.dict().len() as u32 {
            for bb in (a + 1)..ds.dict().len() as u32 {
                assert_ne!(ds.dict().compare(Id(a), Id(bb)), std::cmp::Ordering::Greater);
            }
        }
    }

    /// Regression: `compact()` used to early-return on an empty overlay
    /// even when a cancelled overflow insert had left the dictionary out
    /// of value order — the sticky overflow flag then stood forever and
    /// order service stayed disabled with no way back.
    #[test]
    fn compact_restores_value_order_after_cancelled_overflow_insert() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        let mut ds = b.freeze();
        assert!(ds.insert(term("s/new"), term("p"), term("o/1")));
        assert!(ds.delete(&term("s/new"), &term("p"), &term("o/1")));
        assert!(ds.overlay().is_empty());
        assert!(!ds.order_by_value_intact());
        assert!(ds.dict().len() > ds.frozen_terms());
        ds.compact();
        assert!(ds.order_by_value_intact());
        assert!(ds.overlay().is_empty());
        assert_eq!(ds.frozen_terms(), ds.dict().len());
        assert_eq!(ds.len(), 1);
        // The overflow term survived compaction, now in value order.
        assert!(ds.lookup(&term("s/new")).is_some());
        for a in 1..ds.dict().len() as u32 {
            assert_ne!(ds.dict().compare(Id(a - 1), Id(a)), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn scan_slice_with_degenerate_ranges_is_empty() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        b.insert(term("s/b"), term("p"), term("o/2"));
        let ds = b.freeze();
        let pat = [None, None, None];
        // Inverted range: empty, not an underflow.
        assert_eq!(ds.scan_slice(pat, 2, 1).count(), 0);
        // Empty range at a valid position.
        assert_eq!(ds.scan_slice(pat, 1, 1).count(), 0);
        // Range entirely past the match count.
        assert_eq!(ds.scan_slice(pat, 5, 9).count(), 0);
    }

    #[test]
    fn delete_then_compact_drops_triples_but_keeps_terms() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        b.insert(term("s/b"), term("p"), term("o/2"));
        let mut ds = b.freeze();
        assert!(ds.delete(&term("s/a"), &term("p"), &term("o/1")));
        ds.compact();
        assert_eq!(ds.len(), 1);
        assert!(ds.overlay().is_empty());
        // The now-unused terms survive compaction (pre-interned vocabulary
        // must never fall out of the dictionary).
        assert!(ds.lookup(&term("s/a")).is_some());
        assert!(ds.lookup(&term("o/1")).is_some());
        let model = [(term("s/b"), term("p"), term("o/2"))].into_iter().collect();
        assert_consistent(&ds, &model);
    }

    #[test]
    fn merged_scans_and_slices_agree_under_overlay() {
        let mut b = StoreBuilder::new();
        for i in 0..12u32 {
            b.insert(term(&format!("s/{i}")), term("p"), term(&format!("o/{}", i % 5)));
        }
        let mut ds = b.freeze();
        // Mix of tombstones, re-adds and fresh inserts.
        assert!(ds.delete(&term("s/3"), &term("p"), &term("o/3")));
        assert!(ds.delete(&term("s/7"), &term("p"), &term("o/2")));
        assert!(ds.insert(term("s/3"), term("p"), term("o/3")));
        assert!(ds.insert(term("s/1"), term("p"), term("o/4")));
        let pat = [None, Some(ds.lookup(&term("p")).unwrap()), None];
        for order in IndexOrder::all_for_bound(false, true, false) {
            let full: Vec<[Id; 3]> = ds.scan_with(pat, order).collect();
            assert_eq!(full.len(), ds.count(pat), "{order:?}");
            // Keys ascend strictly in the order's layout.
            let keys: Vec<[Id; 3]> = full.iter().map(|&t| order.key_of(t)).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{order:?} not sorted");
            // Every slicing reproduces the full scan.
            for step in 1..=full.len() {
                let mut pieced = Vec::new();
                let mut start = 0;
                while start < full.len() {
                    pieced.extend(ds.scan_slice_with(pat, order, start, start + step));
                    start += step;
                }
                assert_eq!(pieced, full, "{order:?} step {step}");
            }
        }
        // distinct_next stays exact under the overlay.
        let p = ds.lookup(&term("p")).unwrap();
        let mut subjects: Vec<Id> = ds.scan(pat).map(|t| t[0]).collect();
        subjects.sort_unstable();
        subjects.dedup();
        assert_eq!(ds.distinct_next([None, Some(p), None]), subjects.len());
        let mut objects: Vec<Id> = ds.scan(pat).map(|t| t[2]).collect();
        objects.sort_unstable();
        objects.dedup();
        assert_eq!(ds.objects_of(p), objects);
    }

    #[test]
    fn batch_apis_report_net_changes() {
        let mut b = StoreBuilder::new();
        b.insert(term("s/a"), term("p"), term("o/1"));
        let mut ds = b.freeze();
        let n = ds.insert_batch(vec![
            (term("s/a"), term("p"), term("o/1")), // already visible
            (term("s/a"), term("p"), term("o/2")),
            (term("s/c"), term("p"), term("o/1")),
        ]);
        assert_eq!(n, 2);
        assert_eq!(ds.len(), 3);
        let n = ds.delete_batch(vec![
            (term("s/a"), term("p"), term("o/2")),
            (term("s/missing"), term("p"), term("o/1")), // unknown term
        ]);
        assert_eq!(n, 1);
        assert_eq!(ds.len(), 2);
    }
}
