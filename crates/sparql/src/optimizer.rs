//! `Cout`-optimal join ordering.
//!
//! Implements dynamic programming over connected subsets (a bitset DP in the
//! DPsize/DPsub family) minimizing the paper's cost function
//!
//! ```text
//! Cout(T) = 0                                if T is a scan
//! Cout(T) = |T| + Cout(T1) + Cout(T2)        if T = T1 ⋈ T2
//! ```
//!
//! Cross products are considered only when no variable-sharing partition
//! exists (disconnected join graphs). Beyond [`EXACT_LIMIT`] patterns the
//! optimizer falls back to a greedy heuristic (cheapest-result-first), which
//! is also exposed for testing.
//!
//! The DP returns provably `Cout`-optimal bushy plans — the exact object the
//! paper's clustering conditions (a)/(b) are defined over — and plans
//! nothing else: index orders, join methods and sort elimination are chosen
//! per execution by the physical pass over the returned tree
//! (`Engine::physical_plan`), so the plan and its signature never depend
//! on them.

use crate::cardinality::{slots_of, Estimate, Estimator, MAX_VARS};
use crate::error::QueryError;
use crate::plan::{JoinMethod, PlanNode, PlannedPattern, Work};

/// Maximum number of patterns for the exact subset DP (3^16 ≈ 43M partition
/// enumerations is the practical ceiling; our workloads stay well below).
pub const EXACT_LIMIT: usize = 13;

/// Produces the `Cout`-optimal (or greedily approximated) join tree for a
/// set of required triple patterns.
///
/// Exact ties on `Cout` fall to the estimated hash-build rows (memory),
/// then the estimated scanned rows (I/O) of the tree's default lowering,
/// then a deterministic structural tiebreak.
pub fn optimize(patterns: &[PlannedPattern], est: &Estimator<'_>) -> Result<PlanNode, QueryError> {
    match patterns.len() {
        0 => Err(QueryError::Unsupported("empty basic graph pattern".into())),
        n if n <= EXACT_LIMIT => Ok(JoinDp::new(patterns, 0, est).plan(patterns)),
        _ => Ok(greedy(patterns, est)),
    }
}

/// Variable-slot bitmask (up to [`MAX_VARS`] variables per query).
fn var_mask(pattern: &PlannedPattern) -> u64 {
    let mut m = 0u64;
    for v in pattern.slots.iter().filter_map(|s| s.as_var()) {
        assert!(v < MAX_VARS, "more than {MAX_VARS} variables in one query");
        m |= 1 << v;
    }
    m
}

/// The DP's entry for one pattern subset: how its best tree splits, and the
/// properties the selection compares. `cost` is the paper's `Cout`; `work`
/// holds the tiebreaks — the estimated build and scanned rows of the tree
/// run as the default lowering would ([`JoinMethod::of_hash_join`] over the
/// tree's orientation), derived from the children's in O(1).
#[derive(Clone, Copy)]
struct Cand {
    split: Split,
    est_card: f64,
    cost: f64,
    work: Work,
}

/// How a subset's best tree is built.
#[derive(Clone, Copy)]
enum Split {
    /// A scan of `patterns[pat]`; `extent` is its exact row count (`None`
    /// for an absent constant) — what the bind rule compares against.
    Scan { pat: usize, extent: Option<usize> },
    /// A join of the best trees of the `left` and `right` subsets over the
    /// shared-variable bitmask `vars`.
    Join { left: usize, right: usize, vars: u64 },
}

/// The exact bitset DP over the pattern subsets of one group, keeping the
/// best tree per subset (see [`JoinDp::better`]), split in two stages.
///
/// `Cout(T) = Σ canonical-card(leafset(n))` over internal nodes `n`, so the
/// cost of a plan depends only on which subsets its joins materialize — the
/// textbook setting in which subset DP is provably optimal. A subset's
/// canonical estimate and best tree are functions of its own patterns, so
/// the entries of the subsets that hold no parameter are the same for every
/// binding of a template: [`JoinDp::new`] fills those once, and
/// [`JoinDp::bind`] refills only the subsets holding a parameter, in the
/// same tables, binding after binding.
pub(crate) struct JoinDp {
    /// The group positions of the patterns that hold a parameter.
    params: usize,
    /// Per subset bitmask: the union of its patterns' variable masks.
    subset_vars: Vec<u64>,
    /// Per subset: its best tree.
    best: Vec<Option<Cand>>,
    /// Per subset: its canonical estimate.
    est: Vec<Option<Estimate>>,
    /// Whether the full set's canonical estimate is the fold
    /// [`subset_estimate`] computes, operation for operation: every
    /// pattern's variables shared with the patterns before it are listed
    /// in ascending slot order, as the DP lists them.
    root_is_fold: bool,
    /// The two signature buffers of the last tiebreak, reused.
    sigs: (String, String),
    /// The shared variables of the last canonical join, reused.
    shared: Vec<usize>,
}

impl JoinDp {
    /// The template stage over `patterns` (at most [`EXACT_LIMIT`]): fills
    /// the entries of every subset that holds none of the patterns in
    /// `params` (group positions, a bit set). The other patterns' slots are
    /// not read here.
    pub(crate) fn new(patterns: &[PlannedPattern], params: usize, est: &Estimator<'_>) -> Self {
        let n = patterns.len();
        let full = (1usize << n) - 1;
        let masks: Vec<u64> = patterns.iter().map(var_mask).collect();
        let mut subset_vars = vec![0u64; full + 1];
        for s in 1..=full {
            let lsb = s & s.wrapping_neg();
            subset_vars[s] = subset_vars[s ^ lsb] | masks[lsb.trailing_zeros() as usize];
        }
        let root_is_fold = patterns.iter().enumerate().all(|(k, p)| {
            let before = subset_vars[(1 << k) - 1];
            let shared: Vec<usize> =
                p.var_slots().into_iter().filter(|&v| before >> v & 1 == 1).collect();
            shared.is_sorted()
        });
        let mut dp = JoinDp {
            params,
            subset_vars,
            best: vec![None; full + 1],
            est: vec![None; full + 1],
            root_is_fold,
            sigs: (String::new(), String::new()),
            shared: Vec::new(),
        };
        dp.run(patterns, est, |s| s & params == 0);
        dp
    }

    /// The bind stage: refills the entries of every subset holding a
    /// parameter, over `patterns` with their parameters resolved.
    pub(crate) fn bind(&mut self, patterns: &[PlannedPattern], est: &Estimator<'_>) {
        let params = self.params;
        if params != 0 {
            self.run(patterns, est, |s| s & params != 0);
        }
    }

    /// Fills the entries of the subsets `want` selects, in ascending order
    /// — so a subset's smaller subsets are filled first — from the leaves'
    /// scan estimates up.
    fn run(
        &mut self,
        patterns: &[PlannedPattern],
        est: &Estimator<'_>,
        want: impl Fn(usize) -> bool,
    ) {
        let full = self.best.len() - 1;
        for (pat, p) in patterns.iter().enumerate().filter(|&(pat, _)| want(1 << pat)) {
            let e = est.scan(p);
            // The scan's cardinality is the pattern's exact count.
            let extent = (!p.has_absent()).then_some(e.card as usize);
            self.best[1 << pat] = Some(Cand {
                split: Split::Scan { pat, extent },
                est_card: e.card,
                cost: 0.0,
                work: Work { build: 0.0, scan: extent.map_or(0.0, |n| n as f64) },
            });
            self.est[1 << pat] = Some(e);
        }

        for s in (1..=full).filter(|&s| s.count_ones() >= 2 && want(s)) {
            // Canonical estimate of s: fold in the highest-index pattern last,
            // which reproduces the ascending-index fold of `subset_estimate`.
            let hb = 1usize << (usize::BITS - 1 - s.leading_zeros());
            let rest = s ^ hb;
            let mut shared = std::mem::take(&mut self.shared);
            shared.clear();
            shared.extend(slots_of(self.subset_vars[rest] & self.subset_vars[hb]));
            let joined = est.join(self.estimate(rest), self.estimate(hb), &shared);
            self.shared = shared;
            let subset_card = joined.card;
            self.est[s] = Some(joined);

            // Enumerate proper non-empty subsets s1 of s; consider each
            // unordered partition once by requiring s1 to contain the lowest
            // bit of s. Cross-product partitions participate too (`Cout`
            // decides) so the DP is truly optimal, matching the exhaustive
            // oracle even on disconnected join graphs.
            let mut best: Option<Cand> = None;
            let low = s & s.wrapping_neg();
            let mut s1 = s;
            while s1 > 0 {
                s1 = (s1 - 1) & s;
                if s1 == 0 {
                    break;
                }
                if s1 & low == 0 {
                    continue;
                }
                let s2 = s ^ s1;
                let vars = self.subset_vars[s1] & self.subset_vars[s2];
                // Smaller-estimate side left; ties keep the lowest-bit side left.
                let (card1, card2) = (self.estimate(s1).card, self.estimate(s2).card);
                let split = if card1 <= card2 { (s1, s2) } else { (s2, s1) };
                let cand = self.join(split, vars, subset_card);
                if best.as_ref().is_none_or(|b| self.better(patterns, &cand, b)) {
                    best = Some(cand);
                }
            }
            self.best[s] = best;
        }
    }

    fn estimate(&self, subset: usize) -> &Estimate {
        self.est[subset].as_ref().expect("smaller subsets come first")
    }

    /// The canonical estimate of the full pattern set — the group's root
    /// estimate. It is the DP's own entry unless the fold
    /// [`subset_estimate`] computes lists a shared variable pair in another
    /// order than the DP; then that fold, whose operation order is the one
    /// every `est_card` and `est_cout` has always been computed in.
    pub(crate) fn root_estimate(
        &self,
        patterns: &[PlannedPattern],
        est: &Estimator<'_>,
    ) -> Estimate {
        if self.root_is_fold {
            self.estimate(self.est.len() - 1).clone()
        } else {
            subset_estimate(patterns, est)
        }
    }

    fn get(&self, subset: usize) -> &Cand {
        self.best[subset].as_ref().expect("smaller subsets come first")
    }

    /// The join of the best trees of `left` and `right` over the shared
    /// variables `vars`, producing `card` rows.
    fn join(&self, (left, right): (usize, usize), vars: u64, card: f64) -> Cand {
        let (l, r) = (self.get(left), self.get(right));
        let extent = match r.split {
            Split::Scan { extent, .. } => extent,
            Split::Join { .. } => None,
        };
        let method = JoinMethod::of_hash_join(l.est_card, r.est_card, extent, vars != 0);
        Cand {
            split: Split::Join { left, right, vars },
            est_card: card,
            cost: l.cost + r.cost + card,
            work: method.work((l.est_card, r.est_card), l.work, r.work, card),
        }
    }

    /// Appends the [`PlanSignature`](crate::plan::PlanSignature) text of
    /// the tree `c` heads to `out` (the rendering of
    /// [`PlanNode::signature`]).
    fn render_sig(&self, patterns: &[PlannedPattern], c: &Cand, out: &mut String) {
        use std::fmt::Write;
        match c.split {
            Split::Scan { pat, .. } => {
                write!(out, "S{}", patterns[pat].idx).expect("writing to a String");
            }
            Split::Join { left, right, .. } => {
                out.push_str("HJ(");
                self.render_sig(patterns, self.get(left), out);
                out.push(',');
                self.render_sig(patterns, self.get(right), out);
                out.push(')');
            }
        }
    }

    /// Whether `a` is strictly better than `b`: lower `Cout`, then fewer
    /// build rows, then fewer scanned rows, then — rendered only on an
    /// exact tie of everything else — the smaller signature text (so `S10`
    /// sorts before `S9`).
    fn better(&mut self, patterns: &[PlannedPattern], a: &Cand, b: &Cand) -> bool {
        use std::cmp::Ordering;
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(Ordering::Equal)
            .then(a.work.build.partial_cmp(&b.work.build).unwrap_or(Ordering::Equal))
            .then(a.work.scan.partial_cmp(&b.work.scan).unwrap_or(Ordering::Equal))
            .then_with(|| {
                let (mut sa, mut sb) = std::mem::take(&mut self.sigs);
                sa.clear();
                sb.clear();
                self.render_sig(patterns, a, &mut sa);
                self.render_sig(patterns, b, &mut sb);
                let ord = sa.cmp(&sb);
                self.sigs = (sa, sb);
                ord
            })
            .is_lt()
    }

    /// Materializes the best tree of the full pattern set.
    pub(crate) fn plan(&self, patterns: &[PlannedPattern]) -> PlanNode {
        self.plan_of(patterns, self.best.len() - 1)
    }

    /// Materializes the best tree of `subset`.
    fn plan_of(&self, patterns: &[PlannedPattern], subset: usize) -> PlanNode {
        let c = self.get(subset);
        let est_card = c.est_card;
        match c.split {
            Split::Scan { pat, .. } => PlanNode::Scan { pattern: patterns[pat].clone(), est_card },
            Split::Join { left, right, vars } => PlanNode::Join {
                left: Box::new(self.plan_of(patterns, left)),
                right: Box::new(self.plan_of(patterns, right)),
                join_vars: slots_of(vars).collect(),
                est_card,
            },
        }
    }
}

/// The canonical estimate of a pattern *subset*: scans folded in ascending
/// pattern-index order.
///
/// Making cardinality a function of the subset alone (not of the join tree
/// that produced it) is what keeps `Cout` well-defined and the subset DP
/// exactly optimal: with history-dependent estimates (e.g. the
/// characteristic-set star bonus surviving only along some join orders),
/// optimal substructure would not hold.
pub fn subset_estimate(patterns: &[PlannedPattern], est: &Estimator<'_>) -> Estimate {
    let mut sorted: Vec<&PlannedPattern> = patterns.iter().collect();
    sorted.sort_by_key(|p| p.idx);
    let mut acc: Option<(Estimate, Vec<usize>)> = None;
    for p in sorted {
        let scan = est.scan(p);
        acc = Some(match acc {
            None => {
                let vars = p.var_slots();
                (scan, vars)
            }
            Some((prev, mut vars)) => {
                let shared: Vec<usize> =
                    p.var_slots().into_iter().filter(|v| vars.contains(v)).collect();
                let joined = est.join(&prev, &scan, &shared);
                for v in p.var_slots() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                (joined, vars)
            }
        });
    }
    acc.expect("non-empty pattern set").0
}

/// Greedy join ordering: start from the smallest pattern, repeatedly join
/// the remaining pattern minimizing the resulting cardinality, preferring
/// var-sharing joins over cross products. Used beyond [`EXACT_LIMIT`] and as
/// a test oracle for "reasonable but not optimal".
pub fn greedy(patterns: &[PlannedPattern], est: &Estimator<'_>) -> PlanNode {
    assert!(!patterns.is_empty());
    let mut remaining: Vec<(PlannedPattern, Estimate)> =
        patterns.iter().map(|p| (p.clone(), est.scan(p))).collect();

    // Start from the smallest scan.
    let start = remaining
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.card.partial_cmp(&b.1 .1.card).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let (p0, e0) = remaining.swap_remove(start);
    let mut plan = PlanNode::Scan { pattern: p0, est_card: e0.card };
    let mut cur = e0;
    let mut cur_vars = plan.var_slots();

    while !remaining.is_empty() {
        let mut best_idx = None;
        let mut best_card = f64::INFINITY;
        let mut best_shared: Vec<usize> = Vec::new();
        for (i, (p, e)) in remaining.iter().enumerate() {
            let shared: Vec<usize> =
                p.var_slots().into_iter().filter(|v| cur_vars.contains(v)).collect();
            let j = est.join(&cur, e, &shared);
            // Prefer connected joins: penalize cross products heavily.
            let effective = if shared.is_empty() { j.card * 1e12 } else { j.card };
            if effective < best_card {
                best_card = effective;
                best_idx = Some(i);
                best_shared = shared;
            }
        }
        let (p, e) = remaining.swap_remove(best_idx.expect("non-empty remaining"));
        let joined = est.join(&cur, &e, &best_shared);
        for v in p.var_slots() {
            if !cur_vars.contains(&v) {
                cur_vars.push(v);
            }
        }
        plan = PlanNode::Join {
            left: Box::new(plan),
            right: Box::new(PlanNode::Scan { pattern: p, est_card: e.card }),
            join_vars: best_shared,
            est_card: joined.card,
        };
        cur = joined;
    }
    // Re-annotate with canonical subset estimates so greedy costs are
    // comparable with the DP's (same cost function).
    annotate_canonical(&mut plan, est);
    plan
}

/// Rewrites every node's `est_card` with the canonical estimate of its leaf
/// pattern set; returns those leaves.
pub fn annotate_canonical(plan: &mut PlanNode, est: &Estimator<'_>) -> Vec<PlannedPattern> {
    match plan {
        PlanNode::Scan { pattern, est_card, .. } => {
            *est_card = est.scan(pattern).card;
            vec![pattern.clone()]
        }
        PlanNode::Join { left, right, est_card, .. } => {
            let mut leaves = annotate_canonical(left, est);
            leaves.extend(annotate_canonical(right, est));
            *est_card = subset_estimate(&leaves, est).card;
            leaves
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Slot;
    use parambench_rdf::store::{Dataset, StoreBuilder};
    use parambench_rdf::term::Term;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Exhaustive plan enumeration (all bushy trees), used as a test oracle to
    /// verify DP optimality on small inputs. Costs use the same canonical
    /// per-subset cardinalities as the DP. Exponential.
    fn exhaustive_min_cout(
        patterns: &[PlannedPattern],
        est: &Estimator<'_>,
    ) -> Option<(f64, PlanNode)> {
        fn card_of(
            mask: usize,
            patterns: &[PlannedPattern],
            est: &Estimator<'_>,
            cache: &mut HashMap<usize, f64>,
        ) -> f64 {
            if let Some(&c) = cache.get(&mask) {
                return c;
            }
            let members: Vec<PlannedPattern> = (0..patterns.len())
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| patterns[i].clone())
                .collect();
            let c = subset_estimate(&members, est).card;
            cache.insert(mask, c);
            c
        }

        #[allow(clippy::too_many_arguments)]
        fn rec(
            items: Vec<(PlanNode, usize, f64)>, // (plan, leaf mask, cost)
            patterns: &[PlannedPattern],
            est: &Estimator<'_>,
            cache: &mut HashMap<usize, f64>,
            best: &mut Option<(f64, PlanNode)>,
        ) {
            if items.len() == 1 {
                let (plan, _, cost) = &items[0];
                if best.as_ref().is_none_or(|(c, _)| cost < c) {
                    *best = Some((*cost, plan.clone()));
                }
                return;
            }
            for i in 0..items.len() {
                for j in 0..items.len() {
                    if i == j {
                        continue;
                    }
                    let (pi, mi, ci) = &items[i];
                    let (pj, mj, cj) = &items[j];
                    let shared: Vec<usize> =
                        pi.var_slots().into_iter().filter(|v| pj.var_slots().contains(v)).collect();
                    let union = mi | mj;
                    let card = card_of(union, patterns, est, cache);
                    let cost = ci + cj + card;
                    let node = PlanNode::Join {
                        left: Box::new(pi.clone()),
                        right: Box::new(pj.clone()),
                        join_vars: shared,
                        est_card: card,
                    };
                    let mut rest: Vec<(PlanNode, usize, f64)> = items
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i && *k != j)
                        .map(|(_, it)| it.clone())
                        .collect();
                    rest.push((node, union, cost));
                    rec(rest, patterns, est, cache, best);
                }
            }
        }

        if patterns.is_empty() {
            return None;
        }
        let items: Vec<(PlanNode, usize, f64)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let e = est.scan(p);
                (PlanNode::Scan { pattern: p.clone(), est_card: e.card }, 1usize << i, 0.0)
            })
            .collect();
        if items.len() == 1 {
            return Some((0.0, items[0].0.clone()));
        }
        let mut best = None;
        let mut cache = HashMap::new();
        rec(items, patterns, est, &mut cache, &mut best);
        best
    }

    /// A store with strong selectivity skew: a huge `type` predicate, a
    /// mid-size `feature` predicate and a tiny `special` predicate.
    fn skewed_dataset() -> Dataset {
        let mut b = StoreBuilder::new();
        let ty = Term::iri("p/type");
        let feat = Term::iri("p/feature");
        let special = Term::iri("p/special");
        for i in 0..300 {
            let s = Term::iri(format!("prod/{i}"));
            b.insert(s.clone(), ty.clone(), Term::iri(format!("class/{}", i % 3)));
            b.insert(s.clone(), feat.clone(), Term::iri(format!("feat/{}", i % 30)));
            if i < 5 {
                b.insert(s, special.clone(), Term::iri("flag/on"));
            }
        }
        b.freeze()
    }

    fn pattern(
        ds: &Dataset,
        idx: usize,
        pred: &str,
        obj: Option<&str>,
        s_var: usize,
        o_var: usize,
    ) -> PlannedPattern {
        let p = ds.lookup(&Term::iri(pred)).unwrap();
        let o = match obj {
            Some(o) => Slot::Bound(ds.lookup(&Term::iri(o)).unwrap()),
            None => Slot::Var(o_var),
        };
        PlannedPattern { idx, slots: [Slot::Var(s_var), Slot::Bound(p), o] }
    }

    #[test]
    fn single_pattern_is_a_scan() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![pattern(&ds, 0, "p/type", None, 0, 1)];
        let plan = optimize(&pats, &est).unwrap();
        assert!(matches!(plan, PlanNode::Scan { .. }));
        assert_eq!(plan.est_cout(), 0.0);
    }

    #[test]
    fn empty_bgp_is_error() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        assert!(optimize(&[], &est).is_err());
    }

    #[test]
    fn dp_matches_exhaustive_on_small_queries() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        // Star query over ?x: type, feature, special.
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/0"), 0, 9),
            pattern(&ds, 1, "p/feature", None, 0, 1),
            pattern(&ds, 2, "p/special", Some("flag/on"), 0, 9),
        ];
        let dp = optimize(&pats, &est).unwrap();
        let (oracle_cost, _) = exhaustive_min_cout(&pats, &est).unwrap();
        assert!(
            (dp.est_cout() - oracle_cost).abs() < 1e-6,
            "dp {} vs oracle {oracle_cost}",
            dp.est_cout()
        );
    }

    #[test]
    fn dp_starts_from_most_selective_pattern() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/0"), 0, 9), // 100 rows
            pattern(&ds, 1, "p/special", Some("flag/on"), 0, 9), // 5 rows
        ];
        let plan = optimize(&pats, &est).unwrap();
        // The cheaper (special) scan should be the build side.
        if let PlanNode::Join { left, .. } = &plan {
            if let PlanNode::Scan { pattern, .. } = left.as_ref() {
                assert_eq!(pattern.idx, 1);
            } else {
                panic!("expected scan on the left");
            }
        } else {
            panic!("expected join");
        }
    }

    #[test]
    fn disconnected_patterns_get_cross_product() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/special", Some("flag/on"), 0, 9),
            pattern(&ds, 1, "p/special", Some("flag/on"), 1, 9), // different var!
        ];
        let plan = optimize(&pats, &est).unwrap();
        if let PlanNode::Join { join_vars, est_card, .. } = &plan {
            assert!(join_vars.is_empty());
            assert_eq!(*est_card, 25.0);
        } else {
            panic!("expected cross join");
        }
    }

    #[test]
    fn greedy_produces_valid_plan_with_all_leaves() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/1"), 0, 9),
            pattern(&ds, 1, "p/feature", None, 0, 1),
            pattern(&ds, 2, "p/special", Some("flag/on"), 0, 9),
            pattern(&ds, 3, "p/type", None, 2, 1_0), // disconnected from ?x via ?f? no: var 10
        ];
        let plan = greedy(&pats, &est);
        assert_eq!(plan.leaf_count(), 4);
        // Greedy cost is an upper bound on DP cost.
        let dp = optimize(&pats, &est).unwrap();
        assert!(dp.est_cout() <= plan.est_cout() + 1e-9);
    }

    #[test]
    fn chain_query_dp_optimal() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        // chain: ?a type ?c . ?b feature ?f . ?a feature ?f  (a–f–b chain)
        let pats = vec![
            pattern(&ds, 0, "p/type", None, 0, 2),
            pattern(&ds, 1, "p/feature", None, 1, 3),
            PlannedPattern {
                idx: 2,
                slots: [
                    Slot::Var(0),
                    Slot::Bound(ds.lookup(&Term::iri("p/feature")).unwrap()),
                    Slot::Var(3),
                ],
            },
        ];
        let dp = optimize(&pats, &est).unwrap();
        let (oracle, _) = exhaustive_min_cout(&pats, &est).unwrap();
        assert!((dp.est_cout() - oracle).abs() < 1e-6);
        assert_eq!(dp.leaf_count(), 3);
    }

    /// A multiplying star: every product carries several features, so the
    /// (type ⋈ feature) intermediate exceeds the price extent and the
    /// default lowering must hash-build.
    fn multiplying_star() -> Dataset {
        let mut b = StoreBuilder::new();
        for i in 0..200 {
            let s = Term::iri(format!("prod/{i:04}"));
            b.insert(s.clone(), Term::iri("p/type"), Term::iri("class/x"));
            for f in 0..5 {
                b.insert(
                    s.clone(),
                    Term::iri("p/feature"),
                    Term::iri(format!("feat/{}", (i + f) % 40)),
                );
            }
            b.insert(s, Term::iri("p/price"), Term::integer((i % 97) as i64));
        }
        b.freeze()
    }

    /// The root estimate re-derived as the canonical fold, and the one the
    /// DP keeps for the full set, both carry the plan's cardinality.
    #[test]
    fn reestimate_agrees_with_plan_cards() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/0"), 0, 9),
            pattern(&ds, 1, "p/feature", None, 0, 1),
        ];
        let plan = optimize(&pats, &est).unwrap();
        assert!((plan.est_card() - subset_estimate(&pats, &est).card).abs() < 1e-9);
        let root = JoinDp::new(&pats, 0, &est).root_estimate(&pats, &est);
        assert_eq!(root.card.to_bits(), plan.est_card().to_bits());
    }

    /// `(Cout summed in the DP's operand order, est_card, build rows,
    /// scanned rows)` of a subtree.
    type Props = (f64, f64, f64, f64);

    /// The extent of a scan of `pattern` (0 for an absent constant).
    fn extent(pattern: &PlannedPattern, ds: &Dataset) -> f64 {
        if pattern.has_absent() {
            0.0
        } else {
            ds.count(pattern.access()) as f64
        }
    }

    /// The properties of a join running as `method` over children with
    /// properties `l` and `r`, producing `card` rows.
    fn join_props(method: JoinMethod, l: Props, r: Props, card: f64) -> Props {
        let ((lc, lcard, lb, ls), (rc, rcard, rb, rs)) = (l, r);
        let (build, scan) = match method {
            JoinMethod::Bind => (lb, ls + card),
            JoinMethod::Hash { build_right: true } => (lb + rb + rcard, ls + rs),
            JoinMethod::Hash { build_right: false } => (lb + rb + lcard, ls + rs),
        };
        (lc + rc + card, card, build, scan)
    }

    /// The work the DP's tiebreaks assume, recomputed by one walk over the
    /// logical tree: its own orientation, default indexes, and each join
    /// by [`JoinMethod::of_hash_join`].
    fn default_props(node: &PlanNode, ds: &Dataset) -> Props {
        match node {
            PlanNode::Scan { pattern, est_card } => (0.0, *est_card, 0.0, extent(pattern, ds)),
            PlanNode::Join { left, right, join_vars, est_card } => {
                let right_extent = match right.as_ref() {
                    PlanNode::Scan { pattern, .. } if !pattern.has_absent() => {
                        Some(ds.count(pattern.access()))
                    }
                    _ => None,
                };
                let joined = !join_vars.is_empty();
                let method = JoinMethod::of_hash_join(
                    left.est_card(),
                    right.est_card(),
                    right_extent,
                    joined,
                );
                let (l, r) = (default_props(left, ds), default_props(right, ds));
                join_props(method, l, r, *est_card)
            }
        }
    }

    /// The same properties of a recorded physical tree — the join methods
    /// that actually run.
    fn recorded_props(node: &crate::plan::PhysNode, ds: &Dataset) -> Props {
        use crate::plan::PhysNode;
        match node {
            PhysNode::Scan { pattern, est_card, .. } => (0.0, *est_card, 0.0, extent(pattern, ds)),
            PhysNode::Join { method, left, right, est_card, .. } => {
                let (l, r) = (recorded_props(left, ds), recorded_props(right, ds));
                join_props(*method, l, r, *est_card)
            }
        }
    }

    /// The order a recorded tree delivers, re-derived from its structure:
    /// a scan its index's unbound variables, a join its streamed side's.
    fn recorded_order(node: &crate::plan::PhysNode) -> Vec<usize> {
        use crate::plan::PhysNode;
        match node {
            PhysNode::Scan { pattern, order, .. } => {
                let access = pattern.access();
                let index = order.unwrap_or_else(|| Dataset::default_order(access));
                let mut out = Vec::new();
                for pos in index.perm() {
                    if let (None, Slot::Var(v)) = (access[pos], pattern.slots[pos]) {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            }
            PhysNode::Join { method, left, right, .. } => {
                recorded_order(if method.streams_left() { left } else { right })
            }
        }
    }

    /// A deterministic random BGP of `n` patterns over `preds`, with
    /// variables drawn from a small pool (so most patterns connect),
    /// occasional constant objects from `objs` and occasional absent ones.
    fn random_bgp(
        ds: &Dataset,
        preds: &[&str],
        objs: &[&str],
        n: usize,
        rng: &mut u64,
    ) -> Vec<PlannedPattern> {
        let mut next = |m: usize| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            (*rng % m as u64) as usize
        };
        (0..n)
            .map(|idx| {
                let p = ds.lookup(&Term::iri(preds[next(preds.len())])).unwrap();
                let o = match next(8) {
                    0 => Slot::Absent,
                    1 | 2 => Slot::Bound(ds.lookup(&Term::iri(objs[next(objs.len())])).unwrap()),
                    _ => Slot::Var(3 + next(3)),
                };
                PlannedPattern { idx, slots: [Slot::Var(next(3)), Slot::Bound(p), o] }
            })
            .collect()
    }

    #[test]
    fn arena_properties_match_the_materialized_plan() {
        let skewed = (["p/type", "p/feature", "p/special"], ["class/0", "feat/3", "flag/on"]);
        let star = (["p/type", "p/feature", "p/price"], ["class/x", "feat/3", "feat/7"]);
        // The third store carries an overflow term in its overlay: id order
        // is no longer value order, so no scan may claim an order.
        let mut overflow = skewed_dataset();
        overflow.insert(Term::iri("prod/7"), Term::iri("p/feature"), Term::iri("feat/new"));
        assert!(!overflow.order_by_value_intact());
        let stores = [(skewed_dataset(), skewed), (multiplying_star(), star), (overflow, skewed)];
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        // Hash builds and delivered orders both occur.
        let mut seen = (false, false);
        for (ds, (preds, objs)) in &stores {
            let est = Estimator::new(ds);
            for n in 2..=8 {
                for _ in 0..4 {
                    let pats = random_bgp(ds, preds, objs, n, &mut rng);
                    let dp = JoinDp::new(&pats, 0, &est);
                    let (c, plan) = (*dp.get(dp.best.len() - 1), dp.plan(&pats));
                    let what = plan.signature().0;
                    let mut sig = String::new();
                    dp.render_sig(&pats, &c, &mut sig);
                    assert_eq!(sig, what);
                    // The DP's tiebreak work is the default lowering's,
                    // bit for bit.
                    let (cost, card, build, scan) = default_props(&plan, ds);
                    assert_eq!(c.cost.to_bits(), cost.to_bits(), "{what}");
                    assert_eq!(c.work.build.to_bits(), build.to_bits(), "{what}");
                    assert_eq!(c.work.scan.to_bits(), scan.to_bits(), "{what}");
                    assert_eq!(c.est_card.to_bits(), card.to_bits(), "{what}");
                    // `est_cout` sums the same cards with the node's own
                    // card first: equal up to rounding. And `Cout`-optimal.
                    let tol = 1e-12 * c.cost.abs().max(1.0);
                    assert!((c.cost - plan.est_cout()).abs() <= tol, "{what}");
                    if n <= 5 {
                        let oracle = exhaustive_min_cout(&pats, &est).unwrap().0;
                        let tol = 1e-9 * oracle.abs().max(1.0);
                        assert!((c.cost - oracle).abs() <= tol, "{what}: {oracle}");
                    }
                    // The pass runs the same tree: same `Cout`, and never
                    // more work than the default lowering, which is one of
                    // its alternatives.
                    let rec = plan.physical(ds, &crate::plan::RootGoal::default());
                    let (cost, card, build, scan) = recorded_props(&rec.node, ds);
                    assert_eq!(cost.to_bits(), c.cost.to_bits(), "{what}");
                    assert_eq!(card.to_bits(), c.est_card.to_bits(), "{what}");
                    assert!(build + scan <= c.work.build + c.work.scan, "{what}");
                    let intact = ds.order_by_value_intact();
                    let order = if intact { recorded_order(&rec.node) } else { Vec::new() };
                    assert_eq!(rec.order, order, "{what}");
                    seen.0 |= build > 0.0;
                    seen.1 |= !rec.order.is_empty();
                }
            }
        }
        assert_eq!(seen, (true, true));
    }

    /// A DP built over placeholders for the constants of the patterns in
    /// `params`, then bound to other constants and then to the real ones,
    /// keeps every entry a DP over the real patterns computes: the same
    /// tree and the same root estimate, on every mask.
    #[test]
    fn bound_dp_equals_a_fresh_dp() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let (preds, objs) =
            (["p/type", "p/feature", "p/special"], ["class/0", "feat/3", "flag/on"]);
        let constants = [Slot::Absent, Slot::Bound(ds.lookup(&Term::iri("class/1")).unwrap())];
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for n in 1..=5 {
            for _ in 0..6 {
                let real = random_bgp(&ds, &preds, &objs, n, &mut rng);
                let fresh = JoinDp::new(&real, 0, &est);
                let want = (fresh.plan(&real), fresh.root_estimate(&real, &est));
                for params in 0..1usize << n {
                    // `real` with every constant of a pattern in `params`
                    // replaced by `c`.
                    let rebound = |c: Slot| -> Vec<PlannedPattern> {
                        let mut out = real.clone();
                        let held = out.iter_mut().enumerate().filter(|(i, _)| params >> i & 1 == 1);
                        for (_, p) in held {
                            for slot in p.slots.iter_mut().filter(|s| s.as_var().is_none()) {
                                *slot = c;
                            }
                        }
                        out
                    };
                    let mut dp = JoinDp::new(&rebound(constants[0]), params, &est);
                    dp.bind(&rebound(constants[1]), &est);
                    dp.bind(&real, &est);
                    assert_eq!(dp.plan(&real), want.0, "params {params:b}");
                    assert_eq!(dp.root_estimate(&real, &est), want.1, "params {params:b}");
                }
            }
        }
    }

    /// A pattern sharing two variables with the patterns before it, listed
    /// in descending slot order: the root estimate is the fold's, which
    /// divides by the two distinct counts in that order — here 55 / 3 / 11,
    /// one ulp off the DP entry's 55 / 11 / 3.
    #[test]
    fn root_estimate_keeps_the_fold_order_of_shared_variables() {
        let mut b = StoreBuilder::new();
        for i in 0..11 {
            let (s, o) = (Term::iri(format!("s/{i}")), Term::iri(format!("o/{}", i % 3)));
            b.insert(s, Term::iri("p"), o);
        }
        for j in 0..5 {
            let (s, o) = (Term::iri(format!("o/{}", j % 3)), Term::iri(format!("s/{j}")));
            b.insert(s, Term::iri("q"), o);
        }
        let ds = b.freeze();
        let est = Estimator::new(&ds);
        let [p, q] = ["p", "q"].map(|t| Slot::Bound(ds.lookup(&Term::iri(t)).unwrap()));
        let pats = vec![
            PlannedPattern { idx: 0, slots: [Slot::Var(0), p, Slot::Var(1)] },
            PlannedPattern { idx: 1, slots: [Slot::Var(1), q, Slot::Var(0)] },
        ];
        let dp = JoinDp::new(&pats, 0, &est);
        assert!(!dp.root_is_fold);
        let fold = subset_estimate(&pats, &est);
        assert_eq!(fold.card.to_bits(), (55.0_f64 / 3.0 / 11.0).to_bits());
        assert_ne!(fold.card.to_bits(), dp.estimate(3).card.to_bits());
        assert_eq!(dp.root_estimate(&pats, &est), fold);
    }

    #[test]
    fn exact_ties_fall_to_the_textual_signature_order() {
        // Three disconnected five-row scans numbered 9, 10 and 11: every
        // (a × b) × c tree costs 25 + 125, builds 10 and scans 15, so all
        // three trees tie on everything but the signature, and the text
        // order picks the tree led by S10 (a numeric order would pick S9).
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats: Vec<PlannedPattern> =
            (0..3).map(|i| pattern(&ds, 9 + i, "p/special", Some("flag/on"), i, 0)).collect();
        let trees = ["HJ(S9,HJ(S10,S11))", "HJ(S11,HJ(S9,S10))", "HJ(S10,HJ(S9,S11))"];
        let textual_min = trees.iter().min().unwrap();
        assert_eq!(*textual_min, "HJ(S10,HJ(S9,S11))");
        let plan = optimize(&pats, &est).unwrap();
        assert_eq!(plan.signature().0, *textual_min);
        assert_eq!(plan.est_cout(), 150.0);
    }

    /// A random dataset over small vocabularies: 12 subjects, 4
    /// predicates, 12 objects.
    fn small_vocabulary_dataset(triples: &[(u8, u8, u8)]) -> Dataset {
        let mut b = StoreBuilder::new();
        for &(s, p, o) in triples {
            b.insert(
                Term::iri(format!("s/{}", s % 12)),
                Term::iri(format!("p/{}", p % 4)),
                Term::iri(format!("o/{}", o % 12)),
            );
        }
        b.freeze()
    }

    /// A random triple pattern description: (subject var, predicate index,
    /// object choice). Object: var id or a constant.
    #[derive(Debug, Clone)]
    struct PatternSpec {
        s_var: u8,
        pred: u8,
        obj: Result<u8, u8>, // Ok(var), Err(const)
    }

    fn arb_pattern() -> impl Strategy<Value = PatternSpec> {
        (0u8..4, 0u8..4, prop_oneof![(0u8..4).prop_map(Ok), (0u8..12).prop_map(Err)])
            .prop_map(|(s_var, pred, obj)| PatternSpec { s_var, pred, obj })
    }

    fn lower_specs(ds: &Dataset, specs: &[PatternSpec]) -> Vec<PlannedPattern> {
        specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let pred = ds.lookup(&Term::iri(format!("p/{}", spec.pred)));
                let p_slot = match pred {
                    Some(id) => Slot::Bound(id),
                    None => Slot::Absent,
                };
                let o_slot = match spec.obj {
                    Ok(v) => Slot::Var(4 + v as usize),
                    Err(c) => match ds.lookup(&Term::iri(format!("o/{c}"))) {
                        Some(id) => Slot::Bound(id),
                        None => Slot::Absent,
                    },
                };
                PlannedPattern { idx, slots: [Slot::Var(spec.s_var as usize), p_slot, o_slot] }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The DP always matches the exhaustive-enumeration oracle (true
        /// `Cout` optimality) on random small BGPs.
        #[test]
        fn dp_is_cout_optimal(
            triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 10..80),
            specs in prop::collection::vec(arb_pattern(), 2..5),
        ) {
            let ds = small_vocabulary_dataset(&triples);
            let est = Estimator::new(&ds);
            let patterns = lower_specs(&ds, &specs);
            let plan = optimize(&patterns, &est).unwrap();
            let (oracle_cost, _) = exhaustive_min_cout(&patterns, &est).unwrap();
            prop_assert!(
                (plan.est_cout() - oracle_cost).abs() <= 1e-6 * (1.0 + oracle_cost.abs()),
                "dp {} vs oracle {}", plan.est_cout(), oracle_cost
            );
            prop_assert_eq!(plan.leaf_count(), patterns.len());
        }
    }
}
