//! Dataset statistics backing the query optimizer's cardinality estimator.
//!
//! The statistics are exact (computed from the frozen indexes at freeze
//! time, then maintained triple by triple under live updates — never
//! sampled): per-predicate triple counts and distinct subject/object
//! counts, plus global totals. The cardinality estimator combines them
//! with exact pattern counts from the indexes; the *estimation* part is
//! confined to join selectivities, mirroring what a production RDF
//! optimizer keeps in its aggregated indexes.

use std::collections::HashMap;

use crate::dict::{Dictionary, Id};
use crate::index::PermIndex;

/// Per-predicate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples with this predicate.
    pub triples: usize,
    /// Number of distinct subjects among those triples.
    pub distinct_subjects: usize,
    /// Number of distinct objects among those triples.
    pub distinct_objects: usize,
}

impl PredicateStats {
    /// Average number of triples per distinct subject.
    pub fn objects_per_subject(&self) -> f64 {
        if self.distinct_subjects == 0 {
            0.0
        } else {
            self.triples as f64 / self.distinct_subjects as f64
        }
    }

    /// Average number of triples per distinct object.
    pub fn subjects_per_object(&self) -> f64 {
        if self.distinct_objects == 0 {
            0.0
        } else {
            self.triples as f64 / self.distinct_objects as f64
        }
    }
}

/// Characteristic sets (Neumann & Moerkotte, ICDE 2011): subjects grouped
/// by their exact predicate set, with per-predicate triple multiplicities.
///
/// Enables near-exact cardinality estimates for *star* queries (all
/// patterns sharing the subject variable) — the shape of most benchmark
/// templates — where the independence assumption is weakest: predicates on
/// the same subject are strongly correlated in real data (a product that
/// has a price also has features).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CharacteristicSets {
    /// Each distinct predicate set (sorted) with its subject count and the
    /// total triple count per predicate within the group.
    sets: Vec<(Vec<Id>, CsEntry)>,
}

/// One characteristic set's payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsEntry {
    /// Number of subjects with exactly this predicate set.
    pub subjects: usize,
    /// Total triples per predicate over those subjects.
    pub triples: HashMap<Id, usize>,
}

/// Aggregate over all characteristic sets that cover a queried star.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarEstimate {
    /// Distinct subjects having *all* queried predicates.
    pub subjects: f64,
    /// Expected result tuples of the star join (product of per-predicate
    /// mean multiplicities, summed over covering sets).
    pub tuples: f64,
}

impl CharacteristicSets {
    /// Builds the characteristic sets from the SPO index (subject-grouped).
    pub fn compute(spo: &PermIndex) -> Self {
        Self::compute_from_keys(spo.range(&[]))
    }

    /// [`CharacteristicSets::compute`] over an explicit sorted SPO key
    /// slice: the full `O(n)` computation. Freeze and compaction run it;
    /// live updates instead move one subject at a time (see
    /// [`crate::store::Dataset::char_sets`]) and must arrive at exactly
    /// what this returns for the visible scan — which makes it the
    /// reference the update tests compare against. Counted by
    /// [`crate::diag::stats_computes`].
    pub fn compute_from_keys(all: &[[Id; 3]]) -> Self {
        crate::diag::count_stats_compute();
        let mut sets: HashMap<Vec<Id>, CsEntry> = HashMap::new();
        let mut i = 0;
        while i < all.len() {
            let s = all[i][0];
            let mut preds: Vec<Id> = Vec::new();
            let mut counts: HashMap<Id, usize> = HashMap::new();
            let mut j = i;
            while j < all.len() && all[j][0] == s {
                let p = all[j][1];
                if preds.last() != Some(&p) {
                    preds.push(p);
                }
                *counts.entry(p).or_default() += 1;
                j += 1;
            }
            // SPO order sorts predicates within a subject already.
            let entry = sets.entry(preds).or_default();
            entry.subjects += 1;
            for (p, c) in counts {
                *entry.triples.entry(p).or_default() += c;
            }
            i = j;
        }
        let mut sets: Vec<(Vec<Id>, CsEntry)> = sets.into_iter().collect();
        sets.sort_by(|a, b| a.0.cmp(&b.0));
        CharacteristicSets { sets }
    }

    /// One visible triple with predicate `p` was added to a subject.
    /// `with` is the subject's profile *including* that triple: its
    /// predicates ascending, each with its triple count. The subject moves
    /// from the set of its profile without the triple (none, if this is its
    /// first triple) to the set of `with`; when the predicate set did not
    /// change the two are the same entry and only `p`'s multiplicity moves.
    pub(crate) fn add(&mut self, with: &[(Id, usize)], p: Id) {
        // Enter before leaving, so a set this subject alone populates is
        // not dropped and re-created when only a multiplicity changes.
        self.enter(with);
        self.leave(&profile_without(with, p));
    }

    /// One visible triple with predicate `p` is being removed from a
    /// subject whose profile, still *including* that triple, is `with`:
    /// the mirror of [`CharacteristicSets::add`]. A set left with no
    /// subject is dropped, as a from-scratch compute would never list it.
    pub(crate) fn remove(&mut self, with: &[(Id, usize)], p: Id) {
        self.enter(&profile_without(with, p));
        self.leave(with);
    }

    /// Position of `profile`'s predicate set in the sorted `sets`.
    fn find(&self, profile: &[(Id, usize)]) -> Result<usize, usize> {
        self.sets.binary_search_by(|(set, _)| set.iter().cmp(profile.iter().map(|(p, _)| p)))
    }

    /// Adds one subject with `profile` to its set (created in sorted
    /// position if new). An empty profile is no subject at all.
    fn enter(&mut self, profile: &[(Id, usize)]) {
        if profile.is_empty() {
            return;
        }
        let at = self.find(profile).unwrap_or_else(|at| {
            let preds = profile.iter().map(|&(p, _)| p).collect();
            self.sets.insert(at, (preds, CsEntry::default()));
            at
        });
        let entry = &mut self.sets[at].1;
        entry.subjects += 1;
        for &(p, count) in profile {
            *entry.triples.entry(p).or_default() += count;
        }
    }

    /// Takes one subject with `profile` out of its set.
    fn leave(&mut self, profile: &[(Id, usize)]) {
        if profile.is_empty() {
            return;
        }
        let at = self.find(profile).expect("a visible subject's predicate set is recorded");
        let entry = &mut self.sets[at].1;
        entry.subjects -= 1;
        if entry.subjects == 0 {
            self.sets.remove(at);
            return;
        }
        for (p, count) in profile {
            *entry.triples.get_mut(p).expect("a set counts each of its predicates") -= count;
        }
    }

    /// The sorted `(predicate set, payload)` entries (snapshot writer).
    pub(crate) fn entries(&self) -> &[(Vec<Id>, CsEntry)] {
        &self.sets
    }

    /// Rebuilds characteristic sets from snapshot entries, validating the
    /// sorted-and-distinct invariant [`CharacteristicSets::compute`]
    /// establishes (the `star` lookup relies on per-set binary search).
    pub(crate) fn from_parts(sets: Vec<(Vec<Id>, CsEntry)>) -> Result<Self, String> {
        for (preds, entry) in &sets {
            if preds.is_empty() {
                return Err("characteristic set with no predicates".into());
            }
            if preds.windows(2).any(|w| w[0] >= w[1]) {
                return Err("characteristic set predicates not strictly ascending".into());
            }
            if entry.subjects == 0 {
                return Err("characteristic set with zero subjects".into());
            }
            if entry.triples.len() != preds.len()
                || preds.iter().any(|p| !entry.triples.contains_key(p))
            {
                return Err("characteristic set triple counts do not match its predicates".into());
            }
        }
        if sets.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("characteristic sets not sorted by predicate set".into());
        }
        Ok(CharacteristicSets { sets })
    }

    /// Number of distinct characteristic sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no subjects were observed.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Estimates a star query over `preds` (must be non-empty): subjects
    /// having all of them, and expected tuples when each predicate
    /// contributes one pattern with an unbound object.
    pub fn star(&self, preds: &[Id]) -> StarEstimate {
        let mut subjects = 0.0;
        let mut tuples = 0.0;
        for (set, entry) in &self.sets {
            if preds.iter().all(|p| set.binary_search(p).is_ok()) {
                subjects += entry.subjects as f64;
                let mut t = entry.subjects as f64;
                for p in preds {
                    let total = entry.triples.get(p).copied().unwrap_or(0) as f64;
                    t *= total / entry.subjects as f64;
                }
                tuples += t;
            }
        }
        StarEstimate { subjects, tuples }
    }
}

/// `with` minus one triple of predicate `p` (which `with` must list).
fn profile_without(with: &[(Id, usize)], p: Id) -> Vec<(Id, usize)> {
    let mut without = with.to_vec();
    let at = without
        .binary_search_by_key(&p, |&(q, _)| q)
        .expect("the subject's profile includes the triple");
    without[at].1 -= 1;
    if without[at].1 == 0 {
        without.remove(at);
    }
    without
}

/// Which of its four groups a visible triple `(s, p, o)` is alone in —
/// what decides whether inserting it raised, or deleting it lowers, a
/// distinct count. The store answers each with one `O(log n)` merged
/// `count` probe taken while the triple is visible.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Alone {
    /// The only visible `(s, p, ·)` triple.
    pub sp: bool,
    /// The only visible `(·, p, o)` triple.
    pub po: bool,
    /// The only visible `(s, ·, ·)` triple.
    pub s: bool,
    /// The only visible `(·, ·, o)` triple.
    pub o: bool,
}

/// Whole-dataset statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetStats {
    /// Total number of distinct triples.
    pub total_triples: usize,
    /// Number of distinct subjects in the dataset.
    pub distinct_subjects: usize,
    /// Number of distinct objects in the dataset.
    pub distinct_objects: usize,
    /// Number of distinct predicates.
    pub distinct_predicates: usize,
    per_predicate: HashMap<Id, PredicateStats>,
}

impl DatasetStats {
    /// Computes statistics from the PSO index (grouped by predicate) and the
    /// dictionary. `O(n)` over the triples, done once at freeze time.
    pub fn compute(pso: &PermIndex, _dict: &Dictionary) -> Self {
        Self::compute_from_keys(pso.range(&[]))
    }

    /// [`DatasetStats::compute`] over an explicit sorted PSO key slice
    /// (`[p, s, o]` layout): the full `O(n)` computation. Freeze and
    /// compaction run it; live updates instead apply one triple at a time
    /// (see [`crate::store::Dataset::stats`]) and must arrive at exactly
    /// what this returns for the visible scan — which makes it the
    /// reference the update tests compare against. Counted by
    /// [`crate::diag::stats_computes`].
    pub fn compute_from_keys(all: &[[Id; 3]]) -> Self {
        crate::diag::count_stats_compute();
        let mut per_predicate = HashMap::new();
        let total_triples = all.len();

        let mut i = 0;
        while i < all.len() {
            let p = all[i][0];
            // Find end of this predicate's run.
            let mut j = i;
            let mut distinct_subjects = 0;
            let mut last_s = None;
            let mut objects: Vec<Id> = Vec::new();
            while j < all.len() && all[j][0] == p {
                let s = all[j][1];
                if last_s != Some(s) {
                    distinct_subjects += 1;
                    last_s = Some(s);
                }
                objects.push(all[j][2]);
                j += 1;
            }
            objects.sort_unstable();
            objects.dedup();
            per_predicate.insert(
                p,
                PredicateStats {
                    triples: j - i,
                    distinct_subjects,
                    distinct_objects: objects.len(),
                },
            );
            i = j;
        }

        // Global distinct subject/object counts.
        let mut subjects: Vec<Id> = all.iter().map(|k| k[1]).collect();
        subjects.sort_unstable();
        subjects.dedup();
        let mut objects: Vec<Id> = all.iter().map(|k| k[2]).collect();
        objects.sort_unstable();
        objects.dedup();

        DatasetStats {
            total_triples,
            distinct_subjects: subjects.len(),
            distinct_objects: objects.len(),
            distinct_predicates: per_predicate.len(),
            per_predicate,
        }
    }

    /// A triple with predicate `p` entered the visible set; `alone` was
    /// probed right after, so a group it is alone in is a group it opened.
    pub(crate) fn add(&mut self, p: Id, alone: Alone) {
        self.total_triples += 1;
        self.distinct_subjects += usize::from(alone.s);
        self.distinct_objects += usize::from(alone.o);
        let stats = self.per_predicate.entry(p).or_default();
        stats.triples += 1;
        stats.distinct_subjects += usize::from(alone.sp);
        stats.distinct_objects += usize::from(alone.po);
        self.distinct_predicates = self.per_predicate.len();
    }

    /// A triple with predicate `p` is leaving the visible set; `alone` was
    /// probed right before, so a group it is alone in closes with it. A
    /// predicate left with no triple leaves the table, as a from-scratch
    /// compute would never list it.
    pub(crate) fn remove(&mut self, p: Id, alone: Alone) {
        self.total_triples -= 1;
        self.distinct_subjects -= usize::from(alone.s);
        self.distinct_objects -= usize::from(alone.o);
        let stats = self.per_predicate.get_mut(&p).expect("a visible triple's predicate is listed");
        stats.triples -= 1;
        stats.distinct_subjects -= usize::from(alone.sp);
        stats.distinct_objects -= usize::from(alone.po);
        if stats.triples == 0 {
            self.per_predicate.remove(&p);
        }
        self.distinct_predicates = self.per_predicate.len();
    }

    /// The per-predicate table (snapshot writer).
    pub(crate) fn per_predicate(&self) -> &HashMap<Id, PredicateStats> {
        &self.per_predicate
    }

    /// Rebuilds statistics from snapshot parts; `distinct_predicates` is
    /// derived from the table, as [`DatasetStats::compute`] does.
    pub(crate) fn from_parts(
        total_triples: usize,
        distinct_subjects: usize,
        distinct_objects: usize,
        per_predicate: HashMap<Id, PredicateStats>,
    ) -> Self {
        DatasetStats {
            total_triples,
            distinct_subjects,
            distinct_objects,
            distinct_predicates: per_predicate.len(),
            per_predicate,
        }
    }

    /// Statistics for one predicate, if it occurs in the dataset.
    pub fn predicate(&self, p: Id) -> Option<&PredicateStats> {
        self.per_predicate.get(&p)
    }

    /// Iterates `(predicate, stats)` pairs in arbitrary order.
    pub fn predicates(&self) -> impl Iterator<Item = (Id, &PredicateStats)> {
        self.per_predicate.iter().map(|(&p, s)| (p, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use crate::term::Term;

    #[test]
    fn per_predicate_counts() {
        let mut b = StoreBuilder::new();
        let knows = Term::iri("p/knows");
        let name = Term::iri("p/name");
        for i in 0..10 {
            b.insert(Term::iri(format!("s/{i}")), knows.clone(), Term::iri(format!("s/{}", i % 3)));
            b.insert(Term::iri(format!("s/{i}")), name.clone(), Term::literal(format!("n{i}")));
        }
        let ds = b.freeze();
        let knows_id = ds.lookup(&knows).unwrap();
        let name_id = ds.lookup(&name).unwrap();
        let ks = ds.stats().predicate(knows_id).unwrap();
        assert_eq!(ks.triples, 10);
        assert_eq!(ks.distinct_subjects, 10);
        assert_eq!(ks.distinct_objects, 3);
        let ns = ds.stats().predicate(name_id).unwrap();
        assert_eq!(ns.triples, 10);
        assert_eq!(ns.distinct_objects, 10);
        assert_eq!(ds.stats().distinct_predicates, 2);
        assert_eq!(ds.stats().total_triples, 20);
    }

    #[test]
    fn ratios() {
        let s = PredicateStats { triples: 12, distinct_subjects: 4, distinct_objects: 6 };
        assert!((s.objects_per_subject() - 3.0).abs() < 1e-12);
        assert!((s.subjects_per_object() - 2.0).abs() < 1e-12);
        let zero = PredicateStats { triples: 0, distinct_subjects: 0, distinct_objects: 0 };
        assert_eq!(zero.objects_per_subject(), 0.0);
        assert_eq!(zero.subjects_per_object(), 0.0);
    }

    #[test]
    fn missing_predicate_is_none() {
        let ds = StoreBuilder::new().freeze();
        assert!(ds.stats().predicate(Id(0)).is_none());
        assert_eq!(ds.stats().total_triples, 0);
    }

    #[test]
    fn characteristic_sets_group_subjects() {
        let mut b = StoreBuilder::new();
        // 5 subjects with {p, q}; 3 subjects with {p} only; one {p,q,r}.
        for i in 0..5 {
            b.insert(Term::iri(format!("a/{i}")), Term::iri("p"), Term::integer(i));
            b.insert(Term::iri(format!("a/{i}")), Term::iri("q"), Term::integer(i));
            b.insert(Term::iri(format!("a/{i}")), Term::iri("q"), Term::integer(i + 100));
        }
        for i in 0..3 {
            b.insert(Term::iri(format!("b/{i}")), Term::iri("p"), Term::integer(i));
        }
        b.insert(Term::iri("c"), Term::iri("p"), Term::integer(0));
        b.insert(Term::iri("c"), Term::iri("q"), Term::integer(0));
        b.insert(Term::iri("c"), Term::iri("r"), Term::integer(0));
        let ds = b.freeze();
        let cs = ds.char_sets();
        assert_eq!(cs.len(), 3);

        let p = ds.lookup(&Term::iri("p")).unwrap();
        let q = ds.lookup(&Term::iri("q")).unwrap();
        let r = ds.lookup(&Term::iri("r")).unwrap();

        // Subjects with p: all 9.
        assert_eq!(cs.star(&[p]).subjects, 9.0);
        // Subjects with p AND q: 6; tuples = 5 subjects * 1 * 2 + 1 * 1 * 1.
        let pq = cs.star(&[p, q]);
        assert_eq!(pq.subjects, 6.0);
        assert_eq!(pq.tuples, 11.0);
        // The full star.
        assert_eq!(cs.star(&[p, q, r]).subjects, 1.0);
        // Unsatisfiable star.
        assert_eq!(cs.star(&[Id(9999)]).subjects, 0.0);
    }

    #[test]
    fn characteristic_sets_empty_dataset() {
        let ds = StoreBuilder::new().freeze();
        assert!(ds.char_sets().is_empty());
        assert_eq!(ds.char_sets().star(&[Id(0)]).tuples, 0.0);
    }
}
