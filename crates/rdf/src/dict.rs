//! Dictionary encoding of RDF terms.
//!
//! Every distinct [`Term`] in a dataset is mapped to a dense 32-bit [`Id`].
//! The engine's indexes, operators and statistics all work on ids; the
//! dictionary is only consulted at the edges (loading data, binding query
//! constants, producing human-readable results).
//!
//! Besides the bijection itself, the dictionary caches the numeric
//! interpretation of each literal (see [`Term::numeric_value`]) so that
//! filters and ORDER BY never re-parse lexical forms on the hot path.
//!
//! A dictionary is two-level (see [`Dictionary`]): an immutable frozen
//! region shared between clones, and a small overflow region of terms
//! interned since the last freeze. Cloning a dictionary — which every
//! store commit does — copies the overflow region only.
//!
//! Invariant: `Id(u32::MAX)` is the engine-wide UNBOUND sentinel (an
//! OPTIONAL mismatch, not a term). The dictionary refuses to allocate it,
//! so no real term can ever collide with an unbound binding.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::term::Term;

/// A dense identifier for an interned term. `Id(0)` is the first term.
///
/// `repr(transparent)` over `u32` is load-bearing: the snapshot loader
/// reinterprets checksummed little-endian file bytes as `[Id; 3]` triple
/// keys (see [`crate::snapshot`]), which is only sound because an `Id` is
/// layout-identical to its `u32` and every bit pattern is a valid value.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub u32);

impl Id {
    /// The id as an index into dictionary-parallel arrays.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Id {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Total order over cached numeric values: non-NaN values compare by their
/// IEEE order (so `-0.0 == 0.0`, matching filter arithmetic), and NaN sorts
/// *after* every number and equal to itself. An explicit NaN-last rule
/// rather than `f64::total_cmp` because `total_cmp` distinguishes `-0.0`
/// from `0.0`, which would contradict the `==` the executor's filters use.
///
/// This is what keeps [`Dictionary::compare`] (and through it
/// [`Dictionary::reorder_by_value`] and every ORDER BY sort key) a strict
/// total order now that genuinely NaN-valued literals keep their
/// numeric-ness — the old code relied on NaN being pre-filtered by the
/// cache's NaN sentinel and fell back to `Ordering::Equal`.
#[inline]
pub fn cmp_numeric(x: f64, y: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (x.is_nan(), y.is_nan()) {
        (false, false) => x.partial_cmp(&y).expect("both non-NaN"),
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (true, true) => Ordering::Equal,
    }
}

/// The overflow region of a [`Dictionary`]: terms interned since the last
/// [`Dictionary::reorder_by_value`], in interning order. The only part
/// [`Dictionary::encode`] writes and `clone` copies.
#[derive(Debug, Default, Clone)]
struct Overflow {
    /// `terms[i]` has id `frozen_len() + i`.
    terms: Vec<Term>,
    /// Cached `numeric_value()` per overflow term; parallel to `terms`.
    numeric: Vec<Option<f64>>,
    by_term: HashMap<Term, Id>,
}

/// A word-at-a-time [`Hasher`] for [`TermIndex`]: a string folds in one
/// multiply per eight bytes (SipHash, `HashMap`'s default, spends several
/// rounds on each). It is not keyed, so terms crafted to collide can make
/// freezing or loading such a store slow — never a lookup wrong. Terms
/// that arrive while the store serves (live updates) go to the overflow
/// region, which keeps `HashMap`'s keyed hasher.
struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K).rotate_left(26);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// Multiplicative finish: [`TermIndex`] takes the top bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(Self::K)
    }
}

/// The frozen region's term → id index: an open-addressing table of ids
/// into the frozen `terms` slice, so it holds no second copy of any term.
/// A lookup hashes the term with [`WordHasher`], walks the linear probe
/// sequence from the slot the hash's top bits name, and compares
/// `terms[id] == *term` at each occupied slot until it matches or reaches
/// an empty one. The table has at least twice as many slots as terms.
#[derive(Debug, Default)]
struct TermIndex {
    /// A power-of-two number of slots (none for an empty region); each
    /// holds a frozen id or [`TermIndex::EMPTY`].
    slots: Box<[u32]>,
}

impl TermIndex {
    /// A free slot. `u32::MAX` is the UNBOUND sentinel, never a term id.
    const EMPTY: u32 = u32::MAX;

    /// Indexes `terms`, `terms[i]` under id `i`, in one pass. Fails with
    /// the id of the first term that repeats an earlier one.
    fn build(terms: &[Term]) -> Result<Self, usize> {
        if terms.is_empty() {
            return Ok(TermIndex::default());
        }
        let mut slots = vec![Self::EMPTY; (terms.len() * 2).next_power_of_two()].into_boxed_slice();
        let (shift, mask) = Self::geometry(slots.len());
        for (i, term) in terms.iter().enumerate() {
            let mut s = (hash_term(term) >> shift) as usize;
            loop {
                match slots[s] {
                    Self::EMPTY => break,
                    id if terms[id as usize] == *term => return Err(i),
                    _ => s = (s + 1) & mask,
                }
            }
            slots[s] = i as u32;
        }
        Ok(TermIndex { slots })
    }

    /// The id of `term` in `terms`, the slice this index was built over.
    #[inline]
    fn get(&self, terms: &[Term], term: &Term) -> Option<Id> {
        if self.slots.is_empty() {
            return None;
        }
        let (shift, mask) = Self::geometry(self.slots.len());
        let mut s = (hash_term(term) >> shift) as usize;
        loop {
            match self.slots[s] {
                Self::EMPTY => return None,
                id if terms[id as usize] == *term => return Some(Id(id)),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The hash shift that leaves a slot number, and the slot mask, of a
    /// table of `len` (a power of two, at least 2) slots.
    #[inline]
    fn geometry(len: usize) -> (u32, usize) {
        (64 - len.trailing_zeros(), len - 1)
    }
}

#[inline]
fn hash_term(term: &Term) -> u64 {
    let mut h = WordHasher(0);
    term.hash(&mut h);
    h.finish()
}

/// Bidirectional mapping between [`Term`]s and [`Id`]s.
///
/// Two levels. The **frozen region** (ids below
/// [`Dictionary::frozen_len`]) is what [`Dictionary::reorder_by_value`]
/// (freeze, compaction) or a snapshot load laid down, in value order.
/// Nothing writes to it afterwards, so each of its arrays is an `Arc`
/// slice: clones share them, and a read reaches the data exactly as it
/// would through a `Vec` (the slice pointer and length sit inline in the
/// dictionary — no extra hop on `decode` / `numeric`). Its term → id
/// index is an `Arc`ed table of ids into those terms, shared the same
/// way. The
/// **overflow region** (ids from `frozen_len` up) holds the terms interned
/// since, and is owned. A dictionary that was never frozen — a
/// [`crate::store::StoreBuilder`]'s — is all overflow; freezing moves every
/// term into a new frozen region. Every read tries the frozen region first
/// and falls through on one `id < frozen_len` branch.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Frozen terms; `terms[i]` has id `i`.
    terms: Arc<[Term]>,
    /// Cached `numeric_value()` per frozen id; parallel to `terms`. Whether
    /// id `i` *has* a numeric value lives in the `numeric_set` bitmap —
    /// absent entries hold `0.0`, never a sentinel, so a literal whose value
    /// is genuinely NaN (`"NaN"^^xsd:double`) stays numeric.
    numeric: Arc<[f64]>,
    /// Presence bitmap of `numeric`: bit `i % 64` of word `i / 64` is set
    /// iff frozen term `i` has a numeric value. Always
    /// `terms.len().div_ceil(64)` words long.
    numeric_set: Arc<[u64]>,
    /// Term → id for the frozen region: ids into `terms`, no term copies.
    index: Arc<TermIndex>,
    /// Set by [`Dictionary::reorder_by_value`] when two *distinct* ids
    /// carry the same numeric value (e.g. `"1"^^int` vs `"1.0"^^double`).
    /// When false, ascending id order is not merely consistent with but
    /// *equivalent to* the ORDER BY value order — the stronger property
    /// multi-key sort elimination needs (a value tie would let a secondary
    /// sort key reorder rows that id order pins by lexical form).
    value_ties: bool,
    overflow: Overflow,
}

impl Dictionary {
    /// Maximum number of terms a dictionary can hold.
    ///
    /// `Id(u32::MAX)` is reserved: the query executor uses it as the
    /// `UNBOUND` sentinel (OPTIONAL mismatches), so the dictionary must
    /// never hand it out as a real term id. Allocating ids `0..u32::MAX`
    /// (exclusive) keeps the sentinel unambiguous.
    pub const MAX_TERMS: usize = u32::MAX as usize;

    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len() + self.overflow.terms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the frozen region: ids below it are value-ordered and
    /// immutable, ids at or past it are overflow terms interned since the
    /// last [`Dictionary::reorder_by_value`].
    pub fn frozen_len(&self) -> usize {
        self.terms.len()
    }

    /// True when both dictionaries read the same frozen region in memory —
    /// one was cloned from the other and neither has been re-frozen since.
    pub(crate) fn shares_frozen_with(&self, other: &Dictionary) -> bool {
        Arc::ptr_eq(&self.terms, &other.terms) && Arc::ptr_eq(&self.index, &other.index)
    }

    /// True when frozen term index `i` has a cached numeric value.
    #[inline]
    fn has_numeric(&self, i: usize) -> bool {
        self.numeric_set[i / 64] >> (i % 64) & 1 == 1
    }

    /// Panics when a dictionary of `len` terms cannot accept another one.
    /// Factored out of [`Dictionary::encode`] so the guard is unit-testable
    /// without interning 2^32 terms.
    #[inline]
    fn check_capacity(len: usize) {
        assert!(
            len < Self::MAX_TERMS,
            "dictionary overflow: {} terms would allocate Id(u32::MAX), \
             which is reserved as the UNBOUND sentinel",
            len + 1
        );
    }

    /// Interns `term`, returning its id. Re-interning is idempotent. A new
    /// term is appended to the overflow region; the frozen region is never
    /// written.
    ///
    /// # Panics
    /// When the dictionary already holds [`Dictionary::MAX_TERMS`] terms:
    /// the next id would be `Id(u32::MAX)`, the executor's `UNBOUND`
    /// sentinel.
    pub fn encode(&mut self, term: Term) -> Id {
        if let Some(id) = self.lookup(&term) {
            return id;
        }
        let idx = self.len();
        Self::check_capacity(idx);
        let id = Id(idx as u32);
        self.overflow.numeric.push(term.numeric_value());
        self.overflow.by_term.insert(term.clone(), id);
        self.overflow.terms.push(term);
        id
    }

    /// Looks up the id of a term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<Id> {
        self.index.get(&self.terms, term).or_else(|| self.overflow.by_term.get(term).copied())
    }

    /// The term for `id`. Panics if the id is out of range (ids are only
    /// produced by this dictionary, so that is a logic error).
    #[inline]
    pub fn decode(&self, id: Id) -> &Term {
        let i = id.index();
        match self.terms.get(i) {
            Some(term) => term,
            None => &self.overflow.terms[i - self.terms.len()],
        }
    }

    /// The cached numeric value of `id`'s term, if it has one. Presence is
    /// tracked explicitly (a bitmap in the frozen region), so
    /// `Some(f64::NAN)` is a possible — and meaningful — answer for a
    /// NaN-valued literal.
    #[inline]
    pub fn numeric(&self, id: Id) -> Option<f64> {
        let i = id.index();
        if i < self.terms.len() {
            self.has_numeric(i).then(|| self.numeric[i])
        } else {
            self.overflow.numeric[i - self.terms.len()]
        }
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &Term)> {
        self.terms.iter().chain(&self.overflow.terms).enumerate().map(|(i, t)| (Id(i as u32), t))
    }

    /// Compares two ids by the RDF "benchmark order": numeric values first
    /// (by [`cmp_numeric`], NaN last among numerics), then lexical term
    /// order. Used by ORDER BY. This is a strict total order even when the
    /// dataset contains NaN-valued literals.
    pub fn compare(&self, a: Id, b: Id) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.numeric(a), self.numeric(b)) {
            (Some(x), Some(y)) => cmp_numeric(x, y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.decode(a).cmp(self.decode(b)),
        }
    }

    /// Reassigns every id so that ascending [`Id`] order coincides with the
    /// benchmark value order of [`Dictionary::compare`] (numeric values
    /// first by value, then lexical term order; numeric ties broken by term
    /// order so the permutation is total and deterministic). Returns the
    /// old-id → new-id mapping so callers can remap data encoded against
    /// the pre-reorder ids.
    ///
    /// This is the *order-preserving dictionary* step of
    /// `StoreBuilder::freeze`: once ids are value-ordered, the sorted
    /// permutation indexes deliver rows in exactly the order `ORDER BY`
    /// asks for, which is what lets the executor elide sorts behind an
    /// order-compatible index scan.
    ///
    /// Every term — the old frozen region and the overflow region alike —
    /// lands in a *new* frozen region, and the overflow region is left
    /// empty. This is where a frozen region is built (`O(n log n)` over all
    /// terms, the term index `O(n)`); clones of the pre-reorder dictionary
    /// keep reading the old one.
    pub fn reorder_by_value(&mut self) -> Vec<u32> {
        use std::cmp::Ordering;
        crate::diag::count_dict_reorder();
        let n = self.len();
        // new-id → old-id, sorted by (value order, term order).
        let mut by_value: Vec<u32> = (0..n as u32).collect();
        by_value.sort_by(|&a, &b| {
            self.compare(Id(a), Id(b)).then_with(|| {
                // Equal numeric values with different lexical forms (e.g.
                // "1"^^int vs "1.0"^^double): pin by term order.
                match self.decode(Id(a)).cmp(self.decode(Id(b))) {
                    Ordering::Equal => a.cmp(&b),
                    other => other,
                }
            })
        });
        let mut old_to_new = vec![0u32; n];
        for (new, &old) in by_value.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        // The overflow map holds an owned copy of every overflow term: those
        // move into the new region. Frozen terms are cloned, since a clone
        // of this dictionary may still read them. Collected straight into
        // the shared slices (the iterators know their length): no second
        // copy.
        let frozen_len = self.frozen_len();
        let mut owned: Vec<Option<Term>> = vec![None; n - frozen_len];
        for (term, id) in std::mem::take(&mut self.overflow.by_term) {
            owned[id.index() - frozen_len] = Some(term);
        }
        let terms: Arc<[Term]> = by_value
            .iter()
            .map(|&old| match (old as usize).checked_sub(frozen_len) {
                Some(i) => owned[i].take().expect("the overflow map holds every overflow term"),
                None => self.terms[old as usize].clone(),
            })
            .collect();
        let numeric: Arc<[f64]> =
            by_value.iter().map(|&old| self.numeric(Id(old)).unwrap_or(0.0)).collect();
        let mut numeric_set = vec![0u64; n.div_ceil(64)];
        for (new, &old) in by_value.iter().enumerate() {
            if self.numeric(Id(old)).is_some() {
                numeric_set[new / 64] |= 1 << (new % 64);
            }
        }
        let index = TermIndex::build(&terms).expect("interned terms are distinct");
        self.terms = terms;
        self.numeric = numeric;
        self.numeric_set = numeric_set.into();
        self.index = Arc::new(index);
        self.overflow = Overflow::default();
        // Value ties sit adjacent after the sort: one linear scan. Presence
        // comes from the bitmap, equality from cmp_numeric — two distinct
        // NaN-valued literals are a tie (they compare Equal), just like
        // `"1"^^int` vs `"1.0"^^double`.
        self.value_ties = (1..n).any(|i| {
            self.has_numeric(i - 1)
                && self.has_numeric(i)
                && cmp_numeric(self.numeric[i - 1], self.numeric[i]) == Ordering::Equal
        });
        old_to_new
    }

    /// True when two distinct frozen ids carry the same numeric value (see
    /// the `value_ties` field): id order then still *refines* the ORDER BY
    /// value order, but is not equivalent to it under secondary sort keys.
    pub fn has_value_ties(&self) -> bool {
        self.value_ties
    }

    /// The raw snapshot-serializable parts of the frozen region: `(terms,
    /// numeric values, numeric presence bitmap, value_ties)`. Only the
    /// snapshot writer should care about this shape, and it refuses a
    /// dictionary with overflow terms before it gets here.
    pub(crate) fn parts(&self) -> (&[Term], &[f64], &[u64], bool) {
        debug_assert!(self.overflow.terms.is_empty(), "the snapshot format has no overflow region");
        (&self.terms, &self.numeric, &self.numeric_set, self.value_ties)
    }

    /// Rebuilds a dictionary from snapshot parts, building the term → id
    /// index in `O(n)` without copying a term. Validates the
    /// parallel-array invariants, rejects duplicate terms, and requires
    /// ascending id order to be ascending value order (the snapshot loader
    /// treats every stored id as value-ordered, so an unordered dictionary
    /// would silently misorder ORDER BY); it does *not* re-derive the
    /// numeric cache from the lexical forms (that re-parse is exactly the
    /// freeze-time work the snapshot exists to skip — the per-section
    /// checksums vouch for the cached values instead).
    pub(crate) fn from_parts(
        terms: Vec<Term>,
        numeric: Vec<f64>,
        numeric_set: Vec<u64>,
        value_ties: bool,
    ) -> Result<Self, String> {
        let n = terms.len();
        if n >= Self::MAX_TERMS {
            return Err(format!("{n} terms exceed the dictionary id space"));
        }
        if numeric.len() != n {
            return Err(format!("numeric cache holds {} entries for {n} terms", numeric.len()));
        }
        if numeric_set.len() != n.div_ceil(64) {
            return Err(format!(
                "numeric bitmap holds {} words, expected {}",
                numeric_set.len(),
                n.div_ceil(64)
            ));
        }
        if !n.is_multiple_of(64) {
            if let Some(&last) = numeric_set.last() {
                if last >> (n % 64) != 0 {
                    return Err("numeric bitmap has bits set past the term count".into());
                }
            }
        }
        let index = TermIndex::build(&terms).map_err(|i| format!("duplicate term at id {i}"))?;
        let dict = Dictionary {
            terms: terms.into(),
            numeric: numeric.into(),
            numeric_set: numeric_set.into(),
            index: Arc::new(index),
            value_ties,
            overflow: Overflow::default(),
        };
        for i in 1..n as u32 {
            if dict.compare(Id(i - 1), Id(i)) == std::cmp::Ordering::Greater {
                return Err(format!("terms at ids {} and {i} are not in value order", i - 1));
            }
        }
        Ok(dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn encode_is_idempotent() {
        let mut dict = Dictionary::new();
        let a = dict.encode(Term::iri("http://e/a"));
        let b = dict.encode(Term::iri("http://e/b"));
        let a2 = dict.encode(Term::iri("http://e/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn decode_round_trip() {
        let mut dict = Dictionary::new();
        let terms = vec![
            Term::iri("http://e/a"),
            Term::literal("hello"),
            Term::integer(42),
            Term::Blank("b1".into()),
            Term::Literal(Literal::lang("hola", "es")),
        ];
        let ids: Vec<Id> = terms.iter().cloned().map(|t| dict.encode(t)).collect();
        for (id, term) in ids.iter().zip(&terms) {
            assert_eq!(dict.decode(*id), term);
            assert_eq!(dict.lookup(term), Some(*id));
        }
    }

    #[test]
    fn numeric_cache() {
        let mut dict = Dictionary::new();
        let i = dict.encode(Term::integer(7));
        let d = dict.encode(Term::double(-1.5));
        let s = dict.encode(Term::literal("7"));
        assert_eq!(dict.numeric(i), Some(7.0));
        assert_eq!(dict.numeric(d), Some(-1.5));
        assert_eq!(dict.numeric(s), None);
    }

    #[test]
    fn compare_orders_numerics_before_lexicals() {
        let mut dict = Dictionary::new();
        let two = dict.encode(Term::integer(2));
        let ten = dict.encode(Term::integer(10));
        let txt = dict.encode(Term::literal("аbc"));
        assert_eq!(dict.compare(two, ten), std::cmp::Ordering::Less);
        assert_eq!(dict.compare(ten, two), std::cmp::Ordering::Greater);
        assert_eq!(dict.compare(two, txt), std::cmp::Ordering::Less);
        assert_eq!(dict.compare(two, two), std::cmp::Ordering::Equal);
    }

    #[test]
    fn reorder_by_value_makes_id_order_the_value_order() {
        let mut dict = Dictionary::new();
        // Intern in deliberately scrambled value order.
        let terms = vec![
            Term::iri("z/last"),
            Term::integer(10),
            Term::literal("abc"),
            Term::integer(2),
            Term::double(2.5),
            Term::iri("a/first"),
        ];
        let olds: Vec<Id> = terms.iter().cloned().map(|t| dict.encode(t)).collect();
        let map = dict.reorder_by_value();
        // Round trip survives: every term still decodes and looks up.
        for (old, term) in olds.iter().zip(&terms) {
            let new = Id(map[old.index()]);
            assert_eq!(dict.decode(new), term);
            assert_eq!(dict.lookup(term), Some(new));
        }
        // Ascending ids now follow compare(): numerics by value, then terms.
        for a in 0..dict.len() as u32 {
            for b in (a + 1)..dict.len() as u32 {
                assert_ne!(
                    dict.compare(Id(a), Id(b)),
                    std::cmp::Ordering::Greater,
                    "Id({a}) vs Id({b}) out of value order"
                );
            }
        }
        assert_eq!(dict.numeric(Id(0)), Some(2.0));
        assert_eq!(dict.numeric(Id(1)), Some(2.5));
        assert_eq!(dict.numeric(Id(2)), Some(10.0));
    }

    /// Regression (PR 7): the numeric cache used `f64::NAN` as its "no
    /// value" sentinel, so `"NaN"^^xsd:double` silently lost its
    /// numeric-ness. With the presence bitmap it stays numeric.
    #[test]
    fn nan_literal_keeps_its_numeric_value() {
        let mut dict = Dictionary::new();
        let nan = dict.encode(Term::double(f64::NAN));
        let txt = dict.encode(Term::literal("zzz"));
        let one = dict.encode(Term::integer(1));
        assert!(dict.numeric(nan).is_some_and(f64::is_nan), "NaN literal must stay numeric");
        assert_eq!(dict.numeric(txt), None);
        // As a numeric, NaN orders after every number but before every
        // non-numeric term — and equal to itself, keeping the order total.
        assert_eq!(dict.compare(one, nan), std::cmp::Ordering::Less);
        assert_eq!(dict.compare(nan, txt), std::cmp::Ordering::Less);
        assert_eq!(dict.compare(nan, nan), std::cmp::Ordering::Equal);
    }

    #[test]
    fn cmp_numeric_is_a_total_order_with_nan_last() {
        use std::cmp::Ordering;
        assert_eq!(cmp_numeric(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_numeric(2.0, 1.0), Ordering::Greater);
        assert_eq!(cmp_numeric(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(cmp_numeric(f64::INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(cmp_numeric(f64::NAN, f64::NEG_INFINITY), Ordering::Greater);
        // Unlike f64::total_cmp, signed zeros stay equal — matching the
        // IEEE `==` the executor's filters evaluate.
        assert_eq!(cmp_numeric(-0.0, 0.0), Ordering::Equal);
        // Antisymmetry over a mixed sample (totality spot check).
        let sample = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.0, f64::INFINITY, f64::NAN];
        for &x in &sample {
            for &y in &sample {
                assert_eq!(cmp_numeric(x, y), cmp_numeric(y, x).reverse(), "{x} vs {y}");
            }
        }
    }

    /// After the bitmap fix, `reorder_by_value` must keep a strict total
    /// order in the presence of NaN — previously NaN routed through
    /// `partial_cmp(..).unwrap_or(Equal)`, which is not transitive.
    #[test]
    fn reorder_with_nan_keeps_total_order() {
        let mut dict = Dictionary::new();
        let terms = vec![
            Term::double(f64::NAN),
            Term::integer(5),
            Term::literal("text"),
            Term::double(f64::INFINITY),
            Term::iri("http://e/x"),
            Term::double(-1.0),
            // A second, lexically distinct NaN form ("NaN" vs "nan"): a
            // genuine value tie under the NaN-equal rule.
            Term::Literal(crate::term::Literal::typed("nan", crate::term::xsd::DOUBLE)),
        ];
        let olds: Vec<Id> = terms.iter().cloned().map(|t| dict.encode(t)).collect();
        let map = dict.reorder_by_value();
        for (old, term) in olds.iter().zip(&terms) {
            assert_eq!(dict.decode(Id(map[old.index()])), term);
        }
        // Ascending ids refine the value order for every pair.
        for a in 0..dict.len() as u32 {
            for b in (a + 1)..dict.len() as u32 {
                assert_ne!(
                    dict.compare(Id(a), Id(b)),
                    std::cmp::Ordering::Greater,
                    "Id({a}) vs Id({b}) out of value order"
                );
            }
        }
        // Numerics occupy the low ids: -1, 5, inf, then the two NaNs.
        assert_eq!(dict.numeric(Id(0)), Some(-1.0));
        assert_eq!(dict.numeric(Id(1)), Some(5.0));
        assert_eq!(dict.numeric(Id(2)), Some(f64::INFINITY));
        assert!(dict.numeric(Id(3)).is_some_and(f64::is_nan));
        assert!(dict.numeric(Id(4)).is_some_and(f64::is_nan));
        assert_eq!(dict.numeric(Id(5)), None);
        // The two NaN literals tie by value, so the ties flag is up.
        assert!(dict.has_value_ties());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let mut dict = Dictionary::new();
        for t in [Term::integer(3), Term::double(f64::NAN), Term::literal("x")] {
            dict.encode(t);
        }
        dict.reorder_by_value();
        let (terms, numeric, numeric_set, ties) = dict.parts();
        let rebuilt =
            Dictionary::from_parts(terms.to_vec(), numeric.to_vec(), numeric_set.to_vec(), ties)
                .expect("valid parts");
        for i in 0..dict.len() as u32 {
            assert_eq!(rebuilt.decode(Id(i)), dict.decode(Id(i)));
            match (rebuilt.numeric(Id(i)), dict.numeric(Id(i))) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
            assert_eq!(rebuilt.lookup(dict.decode(Id(i))), Some(Id(i)));
        }
        assert_eq!(rebuilt.has_value_ties(), ties);
        // Mismatched parallel arrays and duplicate terms are rejected.
        let (terms, numeric, numeric_set, ties) = dict.parts();
        assert!(Dictionary::from_parts(terms.to_vec(), vec![], numeric_set.to_vec(), ties).is_err());
        assert!(Dictionary::from_parts(terms.to_vec(), numeric.to_vec(), vec![], ties).is_err());
        let mut dup = terms.to_vec();
        dup[0] = dup[1].clone();
        assert!(Dictionary::from_parts(dup, numeric.to_vec(), numeric_set.to_vec(), ties).is_err());
        // Bitmap bits past the term count are rejected.
        let mut bad_set = numeric_set.to_vec();
        bad_set[0] |= 1 << (terms.len() % 64);
        assert!(Dictionary::from_parts(terms.to_vec(), numeric.to_vec(), bad_set, ties).is_err());
    }

    /// Regression: parts whose id order is not the value order must be
    /// rejected — the snapshot loader treats every stored id as
    /// value-ordered, so accepting an unordered dictionary would let sort
    /// elimination silently return misordered rows after a reload.
    #[test]
    fn from_parts_rejects_ids_out_of_value_order() {
        // Id 0 (value 10) sorts after id 1 (value 2).
        let terms = vec![Term::integer(10), Term::integer(2)];
        let err = Dictionary::from_parts(terms, vec![10.0, 2.0], vec![0b11], false).unwrap_err();
        assert!(err.contains("value order"), "{err}");
    }

    #[test]
    fn lookup_missing_is_none() {
        let dict = Dictionary::new();
        assert_eq!(dict.lookup(&Term::iri("http://nope")), None);
    }

    /// `Id(u32::MAX)` is the executor's `UNBOUND` sentinel; the dictionary
    /// must refuse to allocate it. The guard is exercised directly because
    /// interning 2^32 real terms is infeasible in a unit test.
    #[test]
    fn capacity_guard_reserves_unbound_sentinel() {
        // One below the cap: fine (the id handed out would be MAX_TERMS-1).
        Dictionary::check_capacity(Dictionary::MAX_TERMS - 1);
        // At the cap the next id would be Id(u32::MAX): must panic.
        let overflow = std::panic::catch_unwind(|| {
            Dictionary::check_capacity(Dictionary::MAX_TERMS);
        });
        assert!(overflow.is_err(), "allocating Id(u32::MAX) must be refused");
        assert_eq!(Dictionary::MAX_TERMS, u32::MAX as usize);
    }
}
