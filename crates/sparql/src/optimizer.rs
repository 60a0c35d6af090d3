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
//! paper's clustering conditions (a)/(b) are defined over.

use std::collections::HashMap;

use parambench_rdf::index::IndexOrder;
use parambench_rdf::store::Dataset;

use crate::cardinality::{Estimate, Estimator};
use crate::error::QueryError;
use crate::exec::OrderExec;
use crate::plan::{PlanNode, PlannedPattern};

/// Maximum number of patterns for the exact subset DP (3^16 ≈ 43M partition
/// enumerations is the practical ceiling; our workloads stay well below).
pub const EXACT_LIMIT: usize = 13;

/// Beyond this many patterns the DP keeps only one candidate per subset
/// (no interesting-order exploration): the Pareto sets multiply the 3^n
/// partition enumeration — and every candidate pays an O(subtree)
/// property derivation — which is only worth it on
/// realistic query sizes. Star/path templates stay well below this.
/// (The per-candidate derivation is `Cand::of_plan`, private.)
pub const ORDER_EXPLORE_LIMIT: usize = 8;

/// Per-subset candidate cap — a safety valve on Pareto-set growth. The
/// overall cheapest candidate always sorts first and is never dropped, so
/// `Cout` optimality is unaffected.
const MAX_CANDS: usize = 8;

/// What the caller would like the final plan's delivered order to look
/// like, plus how aggressively order-based operators may be chosen.
#[derive(Debug, Clone, Default)]
pub struct OrderPrefs {
    /// Desired delivered-order prefix (the ORDER BY slots when the keys
    /// are an ascending run of plain variables; empty = no preference).
    /// A root candidate delivering this prefix escapes the sort penalty.
    pub sort: Vec<usize>,
    /// Merge-join aggressiveness (see [`OrderExec`]). `Off` reproduces the
    /// pre-order-aware planner exactly.
    pub mode: OrderExec,
}

/// Produces the `Cout`-optimal (or greedily approximated) join tree for a
/// set of required triple patterns.
pub fn optimize(patterns: &[PlannedPattern], est: &Estimator<'_>) -> Result<PlanNode, QueryError> {
    optimize_with(patterns, est, &OrderPrefs::default())
}

/// [`optimize`] with explicit interesting-order preferences. The DP keeps
/// the cheapest plan **per delivered order**, not just overall, so an
/// order-producing plan (a sorted index scan feeding a merge join) can win
/// the root selection when it saves a downstream sort or hash build.
///
/// Selection is lexicographic: estimated `Cout` plus a sort penalty when
/// the delivered order misses `prefs.sort` (the paper's cost function stays
/// primary), then estimated hash-build rows (memory), then estimated
/// scanned rows (I/O), then a deterministic structural tiebreak.
pub fn optimize_with(
    patterns: &[PlannedPattern],
    est: &Estimator<'_>,
    prefs: &OrderPrefs,
) -> Result<PlanNode, QueryError> {
    match patterns.len() {
        0 => Err(QueryError::Unsupported("empty basic graph pattern".into())),
        1 => {
            let e = est.scan(&patterns[0]);
            let cands = leaf_cands(&patterns[0], e.card, est.dataset(), prefs);
            Ok(pick_root(cands, e.card, prefs).plan)
        }
        n if n <= EXACT_LIMIT => Ok(dp_optimal(patterns, est, prefs)),
        _ => Ok(greedy(patterns, est)),
    }
}

/// Variable-slot bitmask (up to 64 variables per query).
fn var_mask(pattern: &PlannedPattern) -> u64 {
    let mut m = 0u64;
    for v in pattern.var_slots() {
        assert!(v < 64, "more than 64 variables in one query");
        m |= 1 << v;
    }
    m
}

/// One Pareto candidate of a pattern subset: a plan plus the physical
/// properties the order-aware selection compares. `cost` is the paper's
/// `Cout`; `build`/`scan` are the memory/I/O tiebreaks; `order` is the
/// delivered variable-slot order; `hashish` counts non-merge joins (the
/// [`OrderExec::Force`] preference); `pref` is 0 for the legacy canonical
/// orientation so exact ties reproduce the pre-order-aware plans.
#[derive(Clone)]
struct Cand {
    cost: f64,
    build: f64,
    scan: f64,
    hashish: usize,
    pref: u8,
    order: Vec<usize>,
    sig: String,
    plan: PlanNode,
}

impl Cand {
    /// Builds a candidate around `plan`, deriving every physical property
    /// from the single source of truth in `plan.rs`
    /// (`delivered_order` / `est_build_rows` / `est_scan_rows`), so the
    /// DP's tiebreaks can never drift from what the lowering will do.
    fn of_plan(plan: PlanNode, cost: f64, pref: u8, ds: &Dataset) -> Cand {
        fn hashish(plan: &PlanNode) -> usize {
            match plan {
                PlanNode::Scan { .. } => 0,
                PlanNode::HashJoin { left, right, .. } => 1 + hashish(left) + hashish(right),
                PlanNode::MergeJoin { left, right, .. } => hashish(left) + hashish(right),
            }
        }
        Cand {
            cost,
            build: plan.est_build_rows(ds),
            scan: plan.est_scan_rows(ds),
            hashish: hashish(&plan),
            pref,
            order: plan.delivered_order(ds),
            sig: plan.signature().0,
            plan,
        }
    }
}

/// Total deterministic candidate order: better-first.
fn cmp_cands(a: &Cand, b: &Cand, force: bool) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    a.cost
        .partial_cmp(&b.cost)
        .unwrap_or(Ordering::Equal)
        .then(a.build.partial_cmp(&b.build).unwrap_or(Ordering::Equal))
        .then(if force { a.hashish.cmp(&b.hashish) } else { Ordering::Equal })
        .then(a.scan.partial_cmp(&b.scan).unwrap_or(Ordering::Equal))
        .then(a.pref.cmp(&b.pref))
        .then_with(|| a.sig.cmp(&b.sig))
}

/// Prunes a candidate list: sorted better-first, a candidate is dropped
/// when an already-kept (hence no-worse) candidate's order extends its
/// order — everything the dropped plan's order could later enable, the
/// kept plan enables at no extra cost. Capped at [`MAX_CANDS`]; the
/// overall best candidate always survives.
fn prune_cands(mut cands: Vec<Cand>, force: bool) -> Vec<Cand> {
    cands.sort_by(|a, b| cmp_cands(a, b, force));
    let mut kept: Vec<Cand> = Vec::new();
    for c in cands {
        if kept.len() >= MAX_CANDS {
            break;
        }
        if kept.iter().any(|k| k.order.starts_with(&c.order)) {
            continue;
        }
        kept.push(c);
    }
    kept
}

/// All scan candidates of one pattern: the default index plus (in
/// exploration mode) every alternative index whose delivered order
/// differs — same rows, different interesting order.
fn leaf_cands(pattern: &PlannedPattern, card: f64, ds: &Dataset, prefs: &OrderPrefs) -> Vec<Cand> {
    let mk = |order: Option<IndexOrder>, pref: u8| {
        Cand::of_plan(
            PlanNode::Scan { pattern: pattern.clone(), est_card: card, order },
            0.0,
            pref,
            ds,
        )
    };
    let mut cands = vec![mk(None, 0)];
    if prefs.mode != OrderExec::Off && !pattern.has_absent() {
        let access = pattern.access();
        let default = Dataset::default_order(access);
        for order in
            IndexOrder::all_for_bound(access[0].is_some(), access[1].is_some(), access[2].is_some())
        {
            if order == default {
                continue;
            }
            let cand = mk(Some(order), 1);
            if cands.iter().any(|c| c.order == cand.order) {
                continue;
            }
            cands.push(cand);
        }
    }
    cands
}

/// The root-candidate selection: minimum `Cout` plus the estimated cost of
/// the sort the plan would force (zero when its delivered order serves
/// `prefs.sort`), tie-broken like every other candidate comparison.
fn pick_root(cands: Vec<Cand>, card: f64, prefs: &OrderPrefs) -> Cand {
    let penalty = |c: &Cand| -> f64 {
        if prefs.sort.is_empty() || c.order.starts_with(&prefs.sort) {
            0.0
        } else {
            // n·log2(n) comparisons the avoided sort would have cost.
            card.max(1.0) * card.max(2.0).log2()
        }
    };
    let force = prefs.mode == OrderExec::Force;
    cands
        .into_iter()
        .min_by(|a, b| {
            use std::cmp::Ordering;
            // Penalized total first, then the shared candidate tiebreak
            // chain (whose leading raw-cost compare only matters on
            // equal penalized totals, where it stays deterministic).
            (a.cost + penalty(a))
                .partial_cmp(&(b.cost + penalty(b)))
                .unwrap_or(Ordering::Equal)
                .then_with(|| cmp_cands(a, b, force))
        })
        .expect("non-empty candidate set")
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

/// Exact bitset DP over all pattern subsets, keeping a pruned Pareto set
/// of candidates per subset — the cheapest overall plus the cheapest per
/// distinct *delivered order* (see [`Cand`] / [`prune_cands`]).
///
/// `Cout(T) = Σ canonical-card(leafset(n))` over internal nodes `n`, so the
/// cost of a plan depends only on which subsets its joins materialize — the
/// textbook setting in which subset DP is provably optimal. Every subset's
/// best-first candidate is exactly the old single-plan DP's entry, so
/// `Cout` optimality of the returned root is preserved; the extra
/// candidates only ever *win* the root selection through the sort penalty
/// or the build/scan tiebreaks.
fn dp_optimal(patterns: &[PlannedPattern], est: &Estimator<'_>, prefs: &OrderPrefs) -> PlanNode {
    let ds = est.dataset();
    let n = patterns.len();
    // Interesting-order exploration multiplies the partition enumeration;
    // above the limit (or when ordered execution is off) the DP keeps one
    // candidate per subset, which reproduces the legacy planner.
    let explore = prefs.mode != OrderExec::Off && n <= ORDER_EXPLORE_LIMIT;
    let force = prefs.mode == OrderExec::Force;
    let cap = if explore { MAX_CANDS } else { 1 };
    let full = (1usize << n) - 1;
    let masks: Vec<u64> = patterns.iter().map(var_mask).collect();
    let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); full + 1];
    let mut subset_est: Vec<Option<Estimate>> = vec![None; full + 1];

    // Leaves.
    for (i, p) in patterns.iter().enumerate() {
        let e = est.scan(p);
        let mut leaf = leaf_cands(p, e.card, ds, prefs);
        leaf.truncate(cap.max(1));
        cands[1 << i] = leaf;
        subset_est[1 << i] = Some(e);
    }

    // Subset var masks, for connectivity checks.
    let mut subset_vars = vec![0u64; full + 1];
    for s in 1..=full {
        let lsb = s & s.wrapping_neg();
        subset_vars[s] = subset_vars[s ^ lsb] | masks[lsb.trailing_zeros() as usize];
    }

    for s in 1..=full {
        if s.count_ones() < 2 {
            continue;
        }
        // Canonical estimate of s: fold in the highest-index pattern last,
        // which reproduces the ascending-index fold of `subset_estimate`.
        let hb = 1usize << (usize::BITS - 1 - s.leading_zeros());
        let rest = s ^ hb;
        let shared_hb = subset_vars[rest] & masks[hb.trailing_zeros() as usize];
        let hb_vars: Vec<usize> = (0..64).filter(|&v| shared_hb & (1 << v) != 0).collect();
        let joined = est.join(
            subset_est[rest].as_ref().expect("smaller subset computed"),
            subset_est[hb].as_ref().expect("leaf computed"),
            &hb_vars,
        );
        let subset_card = joined.card;
        subset_est[s] = Some(joined);

        // Enumerate proper non-empty subsets s1 of s; consider each
        // unordered partition once by requiring s1 to contain the lowest
        // bit of s. Cross-product partitions participate too (`Cout`
        // decides) so the DP is truly optimal, matching the exhaustive
        // oracle even on disconnected join graphs.
        let mut new_cands: Vec<Cand> = Vec::new();
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
            if cands[s1].is_empty() || cands[s2].is_empty() {
                continue;
            }
            let shared = subset_vars[s1] & subset_vars[s2];
            let join_vars: Vec<usize> = (0..64).filter(|&v| shared & (1 << v) != 0).collect();
            // Canonical orientation: smaller-estimate side left (ties keep
            // the lowest-bit side left), exactly like the legacy DP.
            let card1 = subset_est[s1].as_ref().expect("computed").card;
            let card2 = subset_est[s2].as_ref().expect("computed").card;
            let canonical = if card1 <= card2 { (s1, s2) } else { (s2, s1) };
            let orientations: Vec<(usize, usize)> =
                if explore { vec![(s1, s2), (s2, s1)] } else { vec![canonical] };
            for &(l, r) in &orientations {
                hash_cands(
                    &cands[l],
                    &cands[r],
                    &join_vars,
                    subset_card,
                    (l, r) == canonical,
                    ds,
                    &mut new_cands,
                );
                if explore && !join_vars.is_empty() {
                    merge_cands(&cands[l], &cands[r], &join_vars, subset_card, ds, &mut new_cands);
                }
            }
        }
        let mut pruned = prune_cands(new_cands, force);
        pruned.truncate(cap);
        cands[s] = pruned;
    }

    let root_card = subset_est[full].as_ref().map(|e| e.card).unwrap_or(0.0);
    pick_root(std::mem::take(&mut cands[full]), root_card, prefs).plan
}

/// Emits the hash/bind-join candidates of one oriented split. The stream
/// side's candidates each contribute their delivered order; the build side
/// uses its best candidate only (its order is destroyed by the build).
fn hash_cands(
    left: &[Cand],
    right: &[Cand],
    join_vars: &[usize],
    card: f64,
    canonical: bool,
    ds: &Dataset,
    out: &mut Vec<Cand>,
) {
    // Which side streams is a subset-level property (estimates and scan
    // extents), identical for every candidate pair.
    let streams_left =
        PlanNode::join_side(&left[0].plan, &right[0].plan, join_vars, ds).streams_left();
    let (stream_side, other_side) = if streams_left { (left, right) } else { (right, left) };
    for sc in stream_side {
        let oc = &other_side[0];
        let (lc, rc) = if streams_left { (sc, oc) } else { (oc, sc) };
        let plan = PlanNode::HashJoin {
            left: Box::new(lc.plan.clone()),
            right: Box::new(rc.plan.clone()),
            join_vars: join_vars.to_vec(),
            est_card: card,
        };
        let pref = if canonical { sc.pref } else { 1 };
        out.push(Cand::of_plan(plan, lc.cost + rc.cost + card, pref, ds));
    }
}

/// Emits the merge-join candidates of one oriented split: every candidate
/// pair whose delivered orders both start with the same permutation of the
/// join variables zips without a build phase, delivering the left order.
fn merge_cands(
    left: &[Cand],
    right: &[Cand],
    join_vars: &[usize],
    card: f64,
    ds: &Dataset,
    out: &mut Vec<Cand>,
) {
    for lc in left {
        if lc.order.len() < join_vars.len() {
            continue;
        }
        let key = &lc.order[..join_vars.len()];
        if !join_vars.iter().all(|v| key.contains(v)) {
            continue;
        }
        for rc in right {
            if !rc.order.starts_with(key) {
                continue;
            }
            let plan = PlanNode::MergeJoin {
                left: Box::new(lc.plan.clone()),
                right: Box::new(rc.plan.clone()),
                key: key.to_vec(),
                est_card: card,
            };
            out.push(Cand::of_plan(plan, lc.cost + rc.cost + card, 1, ds));
        }
    }
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
    let mut plan = PlanNode::Scan { pattern: p0, est_card: e0.card, order: None };
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
        plan = PlanNode::HashJoin {
            left: Box::new(plan),
            right: Box::new(PlanNode::Scan { pattern: p, est_card: e.card, order: None }),
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
        PlanNode::HashJoin { left, right, est_card, .. }
        | PlanNode::MergeJoin { left, right, est_card, .. } => {
            let mut leaves = annotate_canonical(left, est);
            leaves.extend(annotate_canonical(right, est));
            *est_card = subset_estimate(&leaves, est).card;
            leaves
        }
    }
}

/// Exhaustive plan enumeration (all bushy trees), used as a test oracle to
/// verify DP optimality on small inputs. Costs use the same canonical
/// per-subset cardinalities as the DP. Exponential — tests only.
pub fn exhaustive_min_cout(
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
                let node = PlanNode::HashJoin {
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
            (PlanNode::Scan { pattern: p.clone(), est_card: e.card, order: None }, 1usize << i, 0.0)
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

/// Recomputes the estimate of a plan tree bottom-up (used when a plan is
/// built or transplanted outside the DP).
pub fn reestimate(plan: &PlanNode, est: &Estimator<'_>) -> Estimate {
    fn leaves(plan: &PlanNode, out: &mut Vec<PlannedPattern>) {
        match plan {
            PlanNode::Scan { pattern, .. } => out.push(pattern.clone()),
            PlanNode::HashJoin { left, right, .. } | PlanNode::MergeJoin { left, right, .. } => {
                leaves(left, out);
                leaves(right, out);
            }
        }
    }
    let mut ps = Vec::new();
    leaves(plan, &mut ps);
    subset_estimate(&ps, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Slot;
    use parambench_rdf::store::{Dataset, StoreBuilder};
    use parambench_rdf::term::Term;

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
        if let PlanNode::HashJoin { left, .. } = &plan {
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
        if let PlanNode::HashJoin { join_vars, est_card, .. } = &plan {
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
    /// legacy planner must hash-build — exactly where the order-aware DP
    /// should find the all-merge plan instead.
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

    #[test]
    fn forced_order_mode_produces_an_all_merge_star_plan() {
        let ds = multiplying_star();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/x"), 0, 9),
            pattern(&ds, 1, "p/feature", None, 0, 1),
            pattern(&ds, 2, "p/price", None, 0, 2),
        ];
        let legacy =
            optimize_with(&pats, &est, &OrderPrefs { sort: vec![], mode: OrderExec::Off }).unwrap();
        let forced =
            optimize_with(&pats, &est, &OrderPrefs { sort: vec![], mode: OrderExec::Force })
                .unwrap();
        // Same Cout (the paper's cost is join-method blind)...
        assert!((forced.est_cout() - legacy.est_cout()).abs() < 1e-6);
        // ...but every join zips: all three scans deliver the shared
        // subject first, so the whole star runs merge-only, build-free.
        assert_eq!(forced.est_build_rows(&ds), 0.0, "plan: {}", forced.render(0));
        assert!(forced.signature().0.contains("MJ("), "{}", forced.signature());
        assert_eq!(forced.leaf_count(), 3);
        // The delivered order leads with the shared subject slot.
        assert_eq!(forced.delivered_order(&ds).first(), Some(&0));
        // Auto mode keeps the selective bind plan here (binds touch less
        // data than a full right-side zip) — merge never displaces a bind.
        let auto = optimize(&pats, &est).unwrap();
        assert!((auto.est_cout() - legacy.est_cout()).abs() < 1e-6);
        assert_eq!(auto.est_build_rows(&ds), 0.0);
    }

    #[test]
    fn sort_preference_flips_the_root_to_an_order_compatible_plan() {
        let ds = multiplying_star();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/x"), 0, 9),
            pattern(&ds, 1, "p/price", None, 0, 1),
        ];
        // Without preferences: some plan sorted by the subject.
        let plain = optimize(&pats, &est).unwrap();
        assert_eq!(plain.delivered_order(&ds).first(), Some(&0));
        // Preferring the price slot: the DP keeps the POS-scan candidate
        // per its distinct order and the root picks it (Cout ties).
        let prefs = OrderPrefs { sort: vec![1], mode: OrderExec::Auto };
        let by_price = optimize_with(&pats, &est, &prefs).unwrap();
        assert!(
            by_price.delivered_order(&ds).starts_with(&[1]),
            "expected a price-ordered plan, got {}",
            by_price.render(0)
        );
        assert!((by_price.est_cout() - plain.est_cout()).abs() < 1e-6, "Cout stays optimal");
    }

    #[test]
    fn reestimate_agrees_with_plan_cards() {
        let ds = skewed_dataset();
        let est = Estimator::new(&ds);
        let pats = vec![
            pattern(&ds, 0, "p/type", Some("class/0"), 0, 9),
            pattern(&ds, 1, "p/feature", None, 0, 1),
        ];
        let plan = optimize(&pats, &est).unwrap();
        assert!((plan.est_card() - reestimate(&plan, &est).card).abs() < 1e-9);
    }
}
