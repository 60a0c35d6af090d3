//! Cardinality estimation.
//!
//! The estimator drives the `Cout`-optimal join ordering. Its design point
//! mirrors production RDF optimizers (RDF-3X, Virtuoso):
//!
//! * **single-pattern cardinalities are exact** — the six permutation
//!   indexes answer any bound-prefix count in `O(log n)`;
//! * **per-variable distinct counts are exact** — the pattern's count for
//!   its only free position, the store's maintained statistics (`O(1)`)
//!   when no subject or object is bound, else a galloping run-count over
//!   the bound term's own triples;
//! * **join cardinalities use the independence assumption** with the
//!   containment-of-value-sets rule:
//!   `|A ⋈ B| = |A|·|B| / Π_v max(d_A(v), d_B(v))`.
//!
//! This is deliberately the textbook estimator: the paper's E4 argues that
//! parameter choices flip the *estimated* cheapest plan, and that effect
//! needs a reasonable (not oracle, not broken) estimator to manifest.

use parambench_rdf::dict::Id;
use parambench_rdf::index::IndexOrder;
use parambench_rdf::store::Dataset;

use crate::plan::{ModifierPlan, PlannedPattern, Slot};

/// The most variable slots one query may hold: an [`Estimate`]'s distinct
/// counts are indexed by slot up to it, and the optimizer's variable sets
/// are bitmasks of this width.
pub(crate) const MAX_VARS: usize = 64;

/// Star predicates held inline; a longer star keeps them on the heap.
const INLINE_PREDS: usize = 8;

/// The predicates of a star, as a multiset in pattern order (a predicate
/// queried twice, e.g. `hasBeenIn X` and `hasBeenIn Y`, appears twice).
/// Up to eight of them are held inline, so merging two stars of at most
/// eight patterns allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct StarPreds {
    len: usize,
    /// The predicates while they fit; unused entries stay `Id(0)`.
    inline: [Id; INLINE_PREDS],
    /// All the predicates once they do not fit.
    spilled: Vec<Id>,
}

impl StarPreds {
    fn one(p: Id) -> Self {
        let mut inline = [Id(0); INLINE_PREDS];
        inline[0] = p;
        StarPreds { len: 1, inline, spilled: Vec::new() }
    }

    /// `a`'s predicates followed by `b`'s.
    fn concat(a: &StarPreds, b: &StarPreds) -> Self {
        let len = a.len + b.len;
        let mut out = StarPreds { len, inline: [Id(0); INLINE_PREDS], spilled: Vec::new() };
        if len <= INLINE_PREDS {
            out.inline[..a.len].copy_from_slice(a.as_slice());
            out.inline[a.len..len].copy_from_slice(b.as_slice());
        } else {
            out.spilled = [a.as_slice(), b.as_slice()].concat();
        }
        out
    }

    /// The predicates, in pattern order.
    pub fn as_slice(&self) -> &[Id] {
        if self.len <= INLINE_PREDS {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

/// Star-shape bookkeeping: when a (sub)plan is a pure subject-star (every
/// pattern shares one subject variable, all predicates bound), the
/// characteristic-set statistics give a near-exact cardinality that the
/// independence assumption cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct StarInfo {
    /// The shared subject variable slot.
    pub var: usize,
    /// Predicates of the star.
    pub preds: StarPreds,
    /// Product of bound-object selectivities of the star's patterns.
    pub selectivity: f64,
}

/// Slots whose distinct counts are held inline; a query with a variable
/// at or past it keeps its counts on the heap.
const INLINE_VARS: usize = 16;

/// Per-variable distinct counts, dense by slot: iteration in slot order,
/// and no allocation while every slot is below 16. Only the slots in
/// `present` hold a count; every other entry stays 0.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctCounts {
    present: u64,
    counts: Counts,
}

/// The storage of [`DistinctCounts`], indexed by slot.
#[derive(Debug, Clone, PartialEq)]
enum Counts {
    Inline([f64; INLINE_VARS]),
    Spilled(Box<[f64; MAX_VARS]>),
}

impl Default for DistinctCounts {
    fn default() -> Self {
        DistinctCounts { present: 0, counts: Counts::Inline([0.0; INLINE_VARS]) }
    }
}

impl DistinctCounts {
    /// The count of slot `var`, if it has one.
    pub fn get(&self, var: usize) -> Option<f64> {
        (var < MAX_VARS && self.present >> var & 1 == 1).then(|| self.slots()[var])
    }

    fn slots(&self) -> &[f64] {
        match &self.counts {
            Counts::Inline(counts) => counts,
            Counts::Spilled(counts) => &counts[..],
        }
    }

    /// Sets the count of slot `var`.
    ///
    /// # Panics
    ///
    /// When `var` is not below [`MAX_VARS`] (a query planned through the
    /// engine has no such slot: it is refused with more variables).
    pub(crate) fn insert(&mut self, var: usize, d: f64) {
        assert!(var < MAX_VARS, "more than {MAX_VARS} variables in one query");
        if let Counts::Inline(inline) = &self.counts {
            if var >= INLINE_VARS {
                let mut spilled = Box::new([0.0; MAX_VARS]);
                spilled[..INLINE_VARS].copy_from_slice(inline);
                self.counts = Counts::Spilled(spilled);
            }
        }
        self.present |= 1 << var;
        match &mut self.counts {
            Counts::Inline(counts) => counts[var] = d,
            Counts::Spilled(counts) => counts[var] = d,
        }
    }

    /// Lowers the count of slot `var` to `d`, or sets it when absent.
    fn min_in(&mut self, var: usize, d: f64) {
        self.insert(var, self.get(var).map_or(d, |cur| cur.min(d)));
    }

    /// The counts of a join of sides counted `a` and `b` producing `card`
    /// rows: per slot the smaller side's count, capped by `card`.
    fn joined(a: &DistinctCounts, b: &DistinctCounts, card: f64) -> DistinctCounts {
        let mut out = a.clone();
        for (v, d) in b.iter() {
            out.min_in(v, d);
        }
        for v in slots_of(out.present) {
            out.insert(v, out.slots()[v].min(card));
        }
        out
    }

    /// The slots holding a count, with their counts, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        slots_of(self.present).map(|v| (v, self.slots()[v]))
    }
}

/// The set bits of `mask` (a variable set), lowest first.
pub(crate) fn slots_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let v = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(v)
    })
}

/// Cardinality and per-variable distinct-count estimate for a (sub)plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated number of rows.
    pub card: f64,
    /// Estimated number of distinct values per variable slot.
    pub distinct: DistinctCounts,
    /// Present while the subplan remains a pure subject-star.
    pub star: Option<StarInfo>,
}

impl Estimate {
    /// Distinct estimate for a var, defaulting to the row count.
    pub fn distinct_of(&self, var: usize) -> f64 {
        self.distinct.get(var).unwrap_or(self.card)
    }
}

/// Statistics-backed cardinality estimator over one dataset: stateless,
/// every probe is answered by the store's indexes and statistics.
pub struct Estimator<'a> {
    ds: &'a Dataset,
    /// Use characteristic sets for star joins (ablation switch).
    use_char_sets: bool,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator over a dataset (characteristic sets enabled).
    pub fn new(ds: &'a Dataset) -> Self {
        Estimator { ds, use_char_sets: true }
    }

    /// An estimator restricted to the plain independence assumption —
    /// the ablation baseline for the characteristic-set improvement.
    pub fn without_char_sets(ds: &'a Dataset) -> Self {
        Estimator { ds, use_char_sets: false }
    }

    /// The dataset this estimator reads.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Estimate for a single pattern scan. Exact cardinality; exact or
    /// near-exact per-var distinct counts.
    ///
    /// # Panics
    ///
    /// When a variable slot of `pattern` is 64 or more.
    pub fn scan(&self, pattern: &PlannedPattern) -> Estimate {
        let mut distinct = DistinctCounts::default();
        if pattern.has_absent() {
            return Estimate { card: 0.0, distinct, star: None };
        }
        let access = pattern.access();
        let card = self.ds.count(access) as f64;
        let free = pattern.slots.iter().filter(|s| s.as_var().is_some()).count();
        for (pos, slot) in pattern.slots.iter().enumerate() {
            let Slot::Var(var) = *slot else { continue };
            let d = if card == 0.0 {
                0.0
            } else if free == 1 {
                // Only free position: every matching triple has a distinct
                // value there (triples are unique).
                card
            } else {
                self.distinct_position(access, pos).min(card)
            };
            // A variable repeated within one pattern keeps the smaller count.
            distinct.min_in(var, d);
        }
        // Star bookkeeping: subject is a variable not reused elsewhere in
        // the pattern, predicate is bound.
        let star = match (pattern.slots[0], pattern.slots[1]) {
            (Slot::Var(sv), Slot::Bound(p)) if pattern.slots[2].as_var() != Some(sv) => {
                let selectivity = match pattern.slots[2] {
                    Slot::Bound(_) => {
                        let total =
                            self.ds.stats().predicate(p).map(|s| s.triples as f64).unwrap_or(0.0);
                        if total > 0.0 {
                            card / total
                        } else {
                            0.0
                        }
                    }
                    _ => 1.0,
                };
                Some(StarInfo { var: sv, preds: StarPreds::one(p), selectivity })
            }
            _ => None,
        };
        Estimate { card, distinct, star }
    }

    /// Exact distinct count of the value at `target_pos` over the triples
    /// matching `access`, which leaves that and one more position free
    /// ([`Estimator::scan`] asks in no other case): a field of the store's
    /// statistics unless a subject or object is bound, then a walk of the
    /// index keyed by that term and `target_pos` over its own triples.
    fn distinct_position(&self, access: [Option<Id>; 3], target_pos: usize) -> f64 {
        use IndexOrder::{Ops, Osp, Sop, Spo};
        let stats = self.ds.stats();
        let d = match access {
            [None, None, None] => {
                [stats.distinct_subjects, stats.distinct_predicates, stats.distinct_objects]
                    [target_pos]
            }
            [None, Some(p), None] => stats.predicate(p).map_or(0, |ps| match target_pos {
                0 => ps.distinct_subjects,
                _ => ps.distinct_objects,
            }),
            [Some(s), None, None] => {
                self.ds.distinct_with(if target_pos == 1 { Spo } else { Sop }, &[s])
            }
            [None, None, Some(o)] => {
                self.ds.distinct_with(if target_pos == 0 { Osp } else { Ops }, &[o])
            }
            _ => unreachable!("scan asks only while two positions are free"),
        };
        d as f64
    }

    /// Join estimate: characteristic sets for pure subject-star merges,
    /// independence + containment of value sets otherwise.
    ///
    /// A slot's count in the result is the minimum of its counts on the two
    /// sides, capped by the output cardinality: a `min`, so the result does
    /// not depend on the order the slots are visited in.
    pub fn join(&self, left: &Estimate, right: &Estimate, join_vars: &[usize]) -> Estimate {
        // Star merge: both sides are stars on the same variable, and that
        // variable is the only join key.
        let star = match (&left.star, &right.star, join_vars) {
            (Some(a), Some(b), [v]) if self.use_char_sets && a.var == *v && b.var == *v => {
                let preds = StarPreds::concat(&a.preds, &b.preds);
                Some(StarInfo { var: *v, preds, selectivity: a.selectivity * b.selectivity })
            }
            _ => None,
        };
        if let Some(info) = star {
            let est = self.ds.char_sets().star(info.preds.as_slice());
            let card = est.tuples * info.selectivity;
            let subjects = (est.subjects * info.selectivity.min(1.0)).min(card.max(0.0));
            let mut distinct = DistinctCounts::joined(&left.distinct, &right.distinct, card);
            distinct.insert(info.var, subjects.max(0.0));
            return Estimate { card, distinct, star: Some(info) };
        }

        let mut card = left.card * right.card;
        for &v in join_vars {
            let d = left.distinct_of(v).max(right.distinct_of(v)).max(1.0);
            card /= d;
        }
        let distinct = DistinctCounts::joined(&left.distinct, &right.distinct, card);
        Estimate { card, distinct, star: None }
    }

    /// Modifier-aware output estimate: the expected number of *result*
    /// rows after the solution modifiers of `m` have been applied to a
    /// pattern result with estimate `est`.
    ///
    /// * GROUP BY caps the output at the product of the group keys'
    ///   distinct counts (an ungrouped aggregate always yields one row);
    /// * DISTINCT caps it at the product of the projected variables'
    ///   distinct counts;
    /// * OFFSET/LIMIT clamp the final window.
    ///
    /// Like every estimate here this guides banding and plan diagnostics,
    /// not correctness.
    pub fn modifier_output_card(&self, est: &Estimate, m: &ModifierPlan) -> f64 {
        let mut card = est.card.max(0.0);
        if let Some(agg) = &m.aggregate {
            if agg.group_slots.is_empty() {
                // Implicit single group: exactly one row, even on empty input.
                card = 1.0;
            } else {
                let mut groups = 1.0;
                for &s in &agg.group_slots {
                    groups *= est.distinct_of(s).max(1.0);
                }
                card = groups.min(card);
            }
        } else if m.distinct {
            // DISTINCT applies after projection: only the projected slots
            // bound the number of distinct rows (helper sort columns are
            // dropped before deduplication).
            let mut combos = 1.0;
            for s in m.out_slots() {
                combos *= est.distinct_of(s).max(1.0);
            }
            card = combos.min(card);
        }
        let after_offset = (card - m.offset as f64).max(0.0);
        match m.limit {
            Some(l) => after_offset.min(l as f64),
            None => after_offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Slot;
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    fn dataset() -> Dataset {
        let mut b = StoreBuilder::new();
        let follows = Term::iri("p/follows");
        let lives = Term::iri("p/livesIn");
        // 10 people; person i follows persons (i+1)%10 and (i+2)%10;
        // people live in 2 countries, 5 each.
        for i in 0..10 {
            let pi = Term::iri(format!("person/{i}"));
            b.insert(pi.clone(), follows.clone(), Term::iri(format!("person/{}", (i + 1) % 10)));
            b.insert(pi.clone(), follows.clone(), Term::iri(format!("person/{}", (i + 2) % 10)));
            b.insert(pi, lives.clone(), Term::iri(format!("country/{}", i % 2)));
        }
        b.freeze()
    }

    fn pat(idx: usize, s: Slot, p: Slot, o: Slot) -> PlannedPattern {
        PlannedPattern { idx, slots: [s, p, o] }
    }

    #[test]
    fn scan_cardinality_is_exact() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let follows = ds.lookup(&Term::iri("p/follows")).unwrap();
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Bound(follows), Slot::Var(1)));
        assert_eq!(e.card, 20.0);
        assert_eq!(e.distinct_of(0), 10.0); // 10 distinct followers
        assert_eq!(e.distinct_of(1), 10.0); // everyone is followed
    }

    #[test]
    fn scan_single_free_position_distinct_equals_card() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let lives = ds.lookup(&Term::iri("p/livesIn")).unwrap();
        let c0 = ds.lookup(&Term::iri("country/0")).unwrap();
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Bound(lives), Slot::Bound(c0)));
        assert_eq!(e.card, 5.0);
        assert_eq!(e.distinct_of(0), 5.0);
    }

    #[test]
    fn scan_with_absent_constant_is_empty() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Absent, Slot::Var(1)));
        assert_eq!(e.card, 0.0);
    }

    #[test]
    fn join_independence_formula() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let follows = ds.lookup(&Term::iri("p/follows")).unwrap();
        let lives = ds.lookup(&Term::iri("p/livesIn")).unwrap();
        // ?x follows ?y (20 rows, d(x)=10) join ?x livesIn ?c (10 rows, d(x)=10)
        let a = est.scan(&pat(0, Slot::Var(0), Slot::Bound(follows), Slot::Var(1)));
        let b = est.scan(&pat(1, Slot::Var(0), Slot::Bound(lives), Slot::Var(2)));
        let j = est.join(&a, &b, &[0]);
        // 20 * 10 / max(10, 10) = 20: each follow-edge gets its one country.
        assert_eq!(j.card, 20.0);
        // True answer is also 20; distinct propagation capped by card.
        assert!(j.distinct_of(0) <= 10.0);
        assert!(j.distinct_of(2) <= 2.0 + 1e-9);
    }

    #[test]
    fn cross_product_when_no_join_vars() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let follows = ds.lookup(&Term::iri("p/follows")).unwrap();
        let a = est.scan(&pat(0, Slot::Var(0), Slot::Bound(follows), Slot::Var(1)));
        let b = est.scan(&pat(1, Slot::Var(2), Slot::Bound(follows), Slot::Var(3)));
        let j = est.join(&a, &b, &[]);
        assert_eq!(j.card, 400.0);
    }

    /// `livesIn` has 10 subjects and 2 objects: a predicate-only scan must
    /// read the right one of the two per-predicate counts, the all-free
    /// scan the right one of the three global counts, and a bound-subject
    /// scan still walks that subject's own triples.
    #[test]
    fn scan_distinct_counts_are_per_position() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let lives = ds.lookup(&Term::iri("p/livesIn")).unwrap();
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Bound(lives), Slot::Var(1)));
        assert_eq!((e.card, e.distinct_of(0), e.distinct_of(1)), (10.0, 10.0, 2.0));

        // 10 subjects, 2 predicates, 10 persons + 2 countries as objects.
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Var(1), Slot::Var(2)));
        assert_eq!(e.card, 30.0);
        assert_eq!((e.distinct_of(0), e.distinct_of(1), e.distinct_of(2)), (10.0, 2.0, 12.0));

        // person/0: follows ×2 + livesIn ×1 → 2 predicates, 3 objects.
        let p0 = ds.lookup(&Term::iri("person/0")).unwrap();
        let e = est.scan(&pat(0, Slot::Bound(p0), Slot::Var(0), Slot::Var(1)));
        assert_eq!((e.card, e.distinct_of(0), e.distinct_of(1)), (3.0, 2.0, 3.0));
        // country/0 as object: 5 residents, one predicate.
        let c0 = ds.lookup(&Term::iri("country/0")).unwrap();
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Var(1), Slot::Bound(c0)));
        assert_eq!((e.card, e.distinct_of(0), e.distinct_of(1)), (5.0, 5.0, 1.0));
    }

    #[test]
    fn star_join_uses_characteristic_sets() {
        // Correlated predicates: only persons 0..4 have BOTH p and q;
        // independence would overestimate badly.
        let mut b = StoreBuilder::new();
        for i in 0..20 {
            let s = Term::iri(format!("s/{i}"));
            if i < 10 {
                b.insert(s.clone(), Term::iri("p"), Term::integer(i));
            }
            if !(5..10).contains(&i) {
                b.insert(s, Term::iri("q"), Term::integer(i));
            }
        }
        let ds = b.freeze();
        let p = ds.lookup(&Term::iri("p")).unwrap();
        let q = ds.lookup(&Term::iri("q")).unwrap();
        let pa = pat(0, Slot::Var(0), Slot::Bound(p), Slot::Var(1));
        let pb = pat(1, Slot::Var(0), Slot::Bound(q), Slot::Var(2));

        let with_cs = Estimator::new(&ds);
        let a = with_cs.scan(&pa);
        let bb = with_cs.scan(&pb);
        assert!(a.star.is_some());
        let j = with_cs.join(&a, &bb, &[0]);
        // Exact: 5 subjects have both.
        assert_eq!(j.card, 5.0, "characteristic sets should be exact here");
        assert!(j.star.is_some());

        let without = Estimator::without_char_sets(&ds);
        let j0 = without.join(&without.scan(&pa), &without.scan(&pb), &[0]);
        // Independence: 10 * 15 / max(10, 15) = 10 — a 2x overestimate.
        assert!(j0.card > j.card, "independence {} vs char-sets {}", j0.card, j.card);
    }

    #[test]
    fn star_with_duplicate_predicate_multiset() {
        // LDBC Q3 shape: two bound-object patterns on the same predicate.
        let mut b = StoreBuilder::new();
        for i in 0..10 {
            let s = Term::iri(format!("s/{i}"));
            b.insert(s.clone(), Term::iri("visited"), Term::iri("X"));
            if i < 3 {
                b.insert(s, Term::iri("visited"), Term::iri("Y"));
            }
        }
        let ds = b.freeze();
        let visited = ds.lookup(&Term::iri("visited")).unwrap();
        let x = ds.lookup(&Term::iri("X")).unwrap();
        let y = ds.lookup(&Term::iri("Y")).unwrap();
        let est = Estimator::new(&ds);
        let a = est.scan(&pat(0, Slot::Var(0), Slot::Bound(visited), Slot::Bound(x)));
        let bb = est.scan(&pat(1, Slot::Var(0), Slot::Bound(visited), Slot::Bound(y)));
        let j = est.join(&a, &bb, &[0]);
        // Multiset star: the estimate stays finite and in a sane range.
        assert!(j.card > 0.0 && j.card <= 10.0, "card = {}", j.card);
    }

    #[test]
    fn non_star_joins_fall_back_to_independence() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let follows = ds.lookup(&Term::iri("p/follows")).unwrap();
        // Path join (?x follows ?y)(?y follows ?z): y is object on the left.
        let a = est.scan(&pat(0, Slot::Var(0), Slot::Bound(follows), Slot::Var(1)));
        let b = est.scan(&pat(1, Slot::Var(1), Slot::Bound(follows), Slot::Var(2)));
        let j = est.join(&a, &b, &[1]);
        assert!(j.star.is_none());
        assert_eq!(j.card, 20.0 * 20.0 / 10.0);
    }

    #[test]
    fn repeated_var_in_pattern() {
        let ds = dataset();
        let est = Estimator::new(&ds);
        let follows = ds.lookup(&Term::iri("p/follows")).unwrap();
        // ?x follows ?x — self-loops; estimator should not blow up.
        let e = est.scan(&pat(0, Slot::Var(0), Slot::Bound(follows), Slot::Var(0)));
        assert!(e.card >= 0.0);
        assert!(e.distinct_of(0) <= e.card.max(10.0));
    }
}
