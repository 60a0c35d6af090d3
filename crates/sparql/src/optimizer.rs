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
use std::ops::Range;

use parambench_rdf::index::IndexOrder;
use parambench_rdf::store::Dataset;

use crate::cardinality::{Estimate, Estimator};
use crate::error::QueryError;
use crate::exec::OrderExec;
use crate::plan::{JoinMethod, PlanNode, PlannedPattern};

/// Maximum number of patterns for the exact subset DP (3^16 ≈ 43M partition
/// enumerations is the practical ceiling; our workloads stay well below).
pub const EXACT_LIMIT: usize = 13;

/// Beyond this many patterns the DP keeps only one candidate per subset
/// (no interesting-order exploration): the Pareto sets multiply the 3^n
/// partition enumeration by up to `MAX_CANDS`² candidate pairs per split
/// (each derived from its children in O(1)), which is only worth it on
/// realistic query sizes. Star/path templates stay well below this.
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
        n if n <= EXACT_LIMIT => {
            let (arena, root) = dp_optimal(patterns, est, prefs);
            Ok(arena.plan(root))
        }
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

/// The variable slots of a bitmask, ascending.
fn mask_slots(mask: u64) -> Vec<usize> {
    (0..64).filter(|&v| mask & (1 << v) != 0).collect()
}

/// A delivered order: at most three variable slots, because every node
/// delivers the order of one of its scans (see
/// [`PlanNode::delivered_order`]) and a scan orders by its distinct
/// unbound positions.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Order {
    slots: [usize; 3],
    len: usize,
}

impl Order {
    fn of(slots: &[usize]) -> Order {
        let mut order = Order { len: slots.len(), ..Order::default() };
        order.slots[..slots.len()].copy_from_slice(slots);
        order
    }

    fn as_slice(&self) -> &[usize] {
        &self.slots[..self.len]
    }
}

/// What a [`Cand`] is: a scan, or an oriented join of two earlier arena
/// entries over the shared-variable bitmask `vars`.
#[derive(Clone, Copy)]
enum Shape {
    /// `patterns[pat]` scanned through `order` (`None` = the default
    /// index); `extent` is its exact row count, `None` for an absent
    /// constant.
    Leaf { pat: usize, order: Option<IndexOrder>, extent: Option<usize> },
    /// A [`PlanNode::HashJoin`] (which may run as a bind join).
    Hash { left: usize, right: usize, vars: u64 },
    /// A [`PlanNode::MergeJoin`] on the first `vars.count_ones()` slots of
    /// the left child's order.
    Merge { left: usize, right: usize, vars: u64 },
}

/// One Pareto candidate of a pattern subset, as an entry of the DP's
/// [`Arena`]: its shape plus the properties the order-aware selection
/// compares. `cost` is the paper's `Cout`; `build`/`scan` are the
/// memory/I/O tiebreaks (estimated hash-build rows and scanned rows over
/// the subtree); `order` is the delivered variable-slot order; `hashish`
/// counts non-merge joins (the [`OrderExec::Force`] preference); `pref` is
/// 0 for the legacy canonical orientation so exact ties reproduce the
/// pre-order-aware plans.
///
/// A join's properties are derived from its two children's in O(1) (see
/// [`Cand::hash`] / [`Cand::merge`]) — the one home of the build and scan
/// formulas — so a candidate never re-walks its subtree.
#[derive(Clone, Copy)]
struct Cand {
    shape: Shape,
    est_card: f64,
    cost: f64,
    build: f64,
    scan: f64,
    hashish: usize,
    pref: u8,
    order: Order,
}

impl Cand {
    /// The hash join of arena entries `ids = (left, right)` running as
    /// `method`. It delivers the streaming side's order; a bind join
    /// builds nothing and scans only what its streamed rows select (≈ its
    /// output), any other hash join builds one side and reads both.
    fn hash(
        arena: &[Cand],
        ids: (usize, usize),
        method: JoinMethod,
        vars: u64,
        card: f64,
        pref: u8,
    ) -> Cand {
        let (l, r) = (&arena[ids.0], &arena[ids.1]);
        let build = match method {
            JoinMethod::Hash { build_right: true } => l.build + r.build + r.est_card,
            JoinMethod::Hash { build_right: false } => l.build + r.build + l.est_card,
            JoinMethod::Bind | JoinMethod::Merge => l.build,
        };
        let scan = if method == JoinMethod::Bind { l.scan + card } else { l.scan + r.scan };
        Cand {
            shape: Shape::Hash { left: ids.0, right: ids.1, vars },
            est_card: card,
            cost: l.cost + r.cost + card,
            build,
            scan,
            hashish: 1 + l.hashish + r.hashish,
            pref,
            order: if method.streams_left() { l.order } else { r.order },
        }
    }

    /// The merge join of arena entries `ids = (left, right)`: builds
    /// nothing, reads both sides, delivers the left order.
    fn merge(arena: &[Cand], ids: (usize, usize), vars: u64, card: f64) -> Cand {
        let (l, r) = (&arena[ids.0], &arena[ids.1]);
        Cand {
            shape: Shape::Merge { left: ids.0, right: ids.1, vars },
            est_card: card,
            cost: l.cost + r.cost + card,
            build: l.build + r.build,
            scan: l.scan + r.scan,
            hashish: l.hashish + r.hashish,
            pref: 1,
            order: l.order,
        }
    }
}

/// The DP's candidates: every kept [`Cand`] of every subset, children
/// before parents, so a join names its children by index. Only the
/// winning root ever becomes a [`PlanNode`] ([`Arena::plan`]).
struct Arena<'p> {
    patterns: &'p [PlannedPattern],
    cands: Vec<Cand>,
    /// The two signature buffers of the last tiebreak, reused.
    sigs: (String, String),
}

impl Arena<'_> {
    /// Appends `c`'s [`PlanSignature`](crate::plan::PlanSignature) text to
    /// `out` (the rendering of [`PlanNode::signature`]).
    fn render_sig(&self, c: &Cand, out: &mut String) {
        use std::fmt::Write;
        let (tag, left, right) = match c.shape {
            Shape::Leaf { pat, .. } => {
                write!(out, "S{}", self.patterns[pat].idx).expect("writing to a String");
                return;
            }
            Shape::Hash { left, right, .. } => ("HJ(", left, right),
            Shape::Merge { left, right, .. } => ("MJ(", left, right),
        };
        out.push_str(tag);
        self.render_sig(&self.cands[left], out);
        out.push(',');
        self.render_sig(&self.cands[right], out);
        out.push(')');
    }

    /// Total deterministic candidate order: better-first. The structural
    /// tiebreak — the two signatures compared as text, so `S10` sorts
    /// before `S9` — is rendered only on an exact tie of everything else.
    fn cmp_cands(&mut self, a: &Cand, b: &Cand, force: bool) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(Ordering::Equal)
            .then(a.build.partial_cmp(&b.build).unwrap_or(Ordering::Equal))
            .then(if force { a.hashish.cmp(&b.hashish) } else { Ordering::Equal })
            .then(a.scan.partial_cmp(&b.scan).unwrap_or(Ordering::Equal))
            .then(a.pref.cmp(&b.pref))
            .then_with(|| {
                let (mut sa, mut sb) = std::mem::take(&mut self.sigs);
                sa.clear();
                sb.clear();
                self.render_sig(a, &mut sa);
                self.render_sig(b, &mut sb);
                let ord = sa.cmp(&sb);
                self.sigs = (sa, sb);
                ord
            })
    }

    /// Prunes one subset's candidate list into the arena and returns the
    /// range it occupies: sorted better-first, a candidate is dropped when
    /// an already-kept (hence no-worse) candidate's order extends its
    /// order — everything the dropped plan's order could later enable, the
    /// kept plan enables at no extra cost. At most `cap` (≤ [`MAX_CANDS`])
    /// survive; the overall best candidate always does.
    fn prune_cands(&mut self, cands: &mut [Cand], cap: usize, force: bool) -> Range<usize> {
        let start = self.cands.len();
        cands.sort_by(|a, b| self.cmp_cands(a, b, force));
        for c in cands.iter() {
            if self.cands.len() - start >= cap {
                break;
            }
            let kept = &self.cands[start..];
            if !kept.iter().any(|k| k.order.as_slice().starts_with(c.order.as_slice())) {
                self.cands.push(*c);
            }
        }
        start..self.cands.len()
    }

    /// Appends the scan candidates of `patterns[pat]`: the default index
    /// plus (in exploration mode) every alternative index whose delivered
    /// order differs — same rows, different interesting order. No order at
    /// all is claimed while the store's id order is not value order
    /// ([`Dataset::order_by_value_intact`]); joins inherit their children's
    /// orders, so then no candidate delivers one.
    fn leaf_cands(&mut self, pat: usize, card: f64, ds: &Dataset, prefs: &OrderPrefs, cap: usize) {
        let patterns = self.patterns;
        let pattern = &patterns[pat];
        let extent = (!pattern.has_absent()).then(|| ds.count(pattern.access()));
        let intact = ds.order_by_value_intact();
        let start = self.cands.len();
        let push = |cands: &mut Vec<Cand>, order: Option<IndexOrder>, pref: u8| {
            let order_slots = if intact {
                Order::of(&PlanNode::scan_order_slots(pattern, order))
            } else {
                Order::default()
            };
            if cands[start..].iter().any(|c| c.order == order_slots) {
                return;
            }
            cands.push(Cand {
                shape: Shape::Leaf { pat, order, extent },
                est_card: card,
                cost: 0.0,
                build: 0.0,
                scan: extent.map_or(0.0, |n| n as f64),
                hashish: 0,
                pref,
                order: order_slots,
            });
        };
        push(&mut self.cands, None, 0);
        if prefs.mode != OrderExec::Off && !pattern.has_absent() {
            let access = pattern.access();
            let default = Dataset::default_order(access);
            let [s, p, o] = access.map(|a| a.is_some());
            for order in IndexOrder::all_for_bound(s, p, o) {
                if order != default {
                    push(&mut self.cands, Some(order), 1);
                }
            }
        }
        self.cands.truncate(start + cap);
    }

    /// The root-candidate selection among `ids`: minimum `Cout` plus the
    /// estimated cost of the sort the plan would force (zero when its
    /// delivered order serves `prefs.sort`), tie-broken like every other
    /// candidate comparison.
    fn pick_root(&mut self, ids: Range<usize>, card: f64, prefs: &OrderPrefs) -> usize {
        let penalty = |c: &Cand| -> f64 {
            if prefs.sort.is_empty() || c.order.as_slice().starts_with(&prefs.sort) {
                0.0
            } else {
                // n·log2(n) comparisons the avoided sort would have cost.
                card.max(1.0) * card.max(2.0).log2()
            }
        };
        let force = prefs.mode == OrderExec::Force;
        // `Iterator::min_by`: the first minimum wins.
        ids.reduce(|best, id| {
            use std::cmp::Ordering;
            let (a, b) = (self.cands[best], self.cands[id]);
            // Penalized total first, then the shared candidate tiebreak
            // chain (whose leading raw-cost compare only matters on equal
            // penalized totals, where it stays deterministic).
            let ord = (a.cost + penalty(&a))
                .partial_cmp(&(b.cost + penalty(&b)))
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.cmp_cands(&a, &b, force));
            if ord.is_gt() {
                id
            } else {
                best
            }
        })
        .expect("non-empty candidate set")
    }

    /// Materializes arena entry `id` as a plan tree.
    fn plan(&self, id: usize) -> PlanNode {
        let c = &self.cands[id];
        let est_card = c.est_card;
        match c.shape {
            Shape::Leaf { pat, order, .. } => {
                PlanNode::Scan { pattern: self.patterns[pat].clone(), est_card, order }
            }
            Shape::Hash { left, right, vars } => PlanNode::HashJoin {
                left: Box::new(self.plan(left)),
                right: Box::new(self.plan(right)),
                join_vars: mask_slots(vars),
                est_card,
            },
            Shape::Merge { left, right, vars } => PlanNode::MergeJoin {
                left: Box::new(self.plan(left)),
                right: Box::new(self.plan(right)),
                key: self.cands[left].order.as_slice()[..vars.count_ones() as usize].to_vec(),
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

/// Exact bitset DP over all pattern subsets, keeping a pruned Pareto set
/// of candidates per subset — the cheapest overall plus the cheapest per
/// distinct *delivered order* (see [`Cand`] / [`Arena::prune_cands`]).
/// Returns the arena of every kept candidate and the chosen root's entry.
///
/// `Cout(T) = Σ canonical-card(leafset(n))` over internal nodes `n`, so the
/// cost of a plan depends only on which subsets its joins materialize — the
/// textbook setting in which subset DP is provably optimal. Every subset's
/// best-first candidate is exactly the old single-plan DP's entry, so
/// `Cout` optimality of the returned root is preserved; the extra
/// candidates only ever *win* the root selection through the sort penalty
/// or the build/scan tiebreaks.
///
/// Candidates live in one per-DP arena: a subset's list is a range of
/// entries, a join entry names its two children, and its properties come
/// from theirs in O(1). New candidates of a subset are built in one reused
/// scratch list and only the pruned survivors enter the arena.
fn dp_optimal<'p>(
    patterns: &'p [PlannedPattern],
    est: &Estimator<'_>,
    prefs: &OrderPrefs,
) -> (Arena<'p>, usize) {
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
    let mut arena = Arena { patterns, cands: Vec::new(), sigs: (String::new(), String::new()) };
    let mut lists: Vec<Range<usize>> = vec![0..0; full + 1];
    let mut subset_est: Vec<Option<Estimate>> = vec![None; full + 1];

    // Leaves.
    for (i, p) in patterns.iter().enumerate() {
        let e = est.scan(p);
        let start = arena.cands.len();
        arena.leaf_cands(i, e.card, ds, prefs, cap);
        lists[1 << i] = start..arena.cands.len();
        subset_est[1 << i] = Some(e);
    }

    // Subset var masks, for connectivity checks.
    let mut subset_vars = vec![0u64; full + 1];
    for s in 1..=full {
        let lsb = s & s.wrapping_neg();
        subset_vars[s] = subset_vars[s ^ lsb] | masks[lsb.trailing_zeros() as usize];
    }

    let mut new_cands: Vec<Cand> = Vec::new();
    for s in 1..=full {
        if s.count_ones() < 2 {
            continue;
        }
        // Canonical estimate of s: fold in the highest-index pattern last,
        // which reproduces the ascending-index fold of `subset_estimate`.
        let hb = 1usize << (usize::BITS - 1 - s.leading_zeros());
        let rest = s ^ hb;
        let hb_vars = mask_slots(subset_vars[rest] & masks[hb.trailing_zeros() as usize]);
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
        new_cands.clear();
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
            if lists[s1].is_empty() || lists[s2].is_empty() {
                continue;
            }
            let vars = subset_vars[s1] & subset_vars[s2];
            // Canonical orientation: smaller-estimate side left (ties keep
            // the lowest-bit side left), exactly like the legacy DP.
            let card1 = subset_est[s1].as_ref().expect("computed").card;
            let card2 = subset_est[s2].as_ref().expect("computed").card;
            let canonical = if card1 <= card2 { (s1, s2) } else { (s2, s1) };
            let both = [(s1, s2), (s2, s1)];
            let orientations = if explore { &both[..] } else { std::slice::from_ref(&canonical) };
            for &(l, r) in orientations {
                let split = (lists[l].clone(), lists[r].clone());
                hash_cands(
                    &arena.cands,
                    split.clone(),
                    vars,
                    subset_card,
                    (l, r) == canonical,
                    &mut new_cands,
                );
                if explore && vars != 0 {
                    merge_cands(&arena.cands, split, vars, subset_card, &mut new_cands);
                }
            }
        }
        lists[s] = arena.prune_cands(&mut new_cands, cap, force);
    }

    let root_card = subset_est[full].as_ref().map(|e| e.card).unwrap_or(0.0);
    let root = arena.pick_root(lists[full].clone(), root_card, prefs);
    (arena, root)
}

/// Emits the hash/bind-join candidates of one oriented split of arena
/// ranges `(left, right)`. Which side streams is a subset-level property
/// (estimates and scan extents), identical for every candidate pair. The
/// stream side's candidates each contribute their delivered order; the
/// build side uses its best candidate only (its order is destroyed by the
/// build).
fn hash_cands(
    arena: &[Cand],
    (left, right): (Range<usize>, Range<usize>),
    vars: u64,
    card: f64,
    canonical: bool,
    out: &mut Vec<Cand>,
) {
    let (l, r) = (&arena[left.start], &arena[right.start]);
    let right_extent = match r.shape {
        Shape::Leaf { extent, .. } => extent,
        _ => None,
    };
    let method = JoinMethod::of_hash_join(l.est_card, r.est_card, right_extent, vars != 0);
    let (stream_side, other) =
        if method.streams_left() { (left, right.start) } else { (right, left.start) };
    for sc in stream_side {
        let ids = if method.streams_left() { (sc, other) } else { (other, sc) };
        let pref = if canonical { arena[sc].pref } else { 1 };
        out.push(Cand::hash(arena, ids, method, vars, card, pref));
    }
}

/// Emits the merge-join candidates of one oriented split of arena ranges
/// `(left, right)`: every candidate pair whose delivered orders both start
/// with the same permutation of the join variables `vars` zips without a
/// build phase, delivering the left order.
fn merge_cands(
    arena: &[Cand],
    (left, right): (Range<usize>, Range<usize>),
    vars: u64,
    card: f64,
    out: &mut Vec<Cand>,
) {
    let k = vars.count_ones() as usize;
    for li in left {
        // Orders hold distinct slots, so a k-slot key made of join
        // variables is a permutation of all k of them.
        let Some(key) = arena[li].order.as_slice().get(..k) else { continue };
        if !key.iter().all(|&v| vars & (1 << v) != 0) {
            continue;
        }
        for ri in right.clone() {
            if arena[ri].order.as_slice().starts_with(key) {
                out.push(Cand::merge(arena, (li, ri), vars, card));
            }
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

    /// The DP's chosen root entry.
    fn root_cand(pats: &[PlannedPattern], est: &Estimator<'_>, prefs: &OrderPrefs) -> Cand {
        let (arena, root) = dp_optimal(pats, est, prefs);
        arena.cands[root]
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
        let force = OrderPrefs { sort: vec![], mode: OrderExec::Force };
        assert_eq!(root_cand(&pats, &est, &force).build, 0.0, "plan: {}", forced.render(0));
        assert!(forced.signature().0.contains("MJ("), "{}", forced.signature());
        assert_eq!(forced.leaf_count(), 3);
        // The delivered order leads with the shared subject slot.
        assert_eq!(forced.delivered_order(&ds).first(), Some(&0));
        // Auto mode keeps the selective bind plan here (binds touch less
        // data than a full right-side zip) — merge never displaces a bind.
        let auto = optimize(&pats, &est).unwrap();
        assert!((auto.est_cout() - legacy.est_cout()).abs() < 1e-6);
        assert_eq!(root_cand(&pats, &est, &OrderPrefs::default()).build, 0.0);
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

    /// The properties the arena caches, recomputed by one walk over the
    /// physical plan the engine records for the materialized root — the
    /// join methods that actually run: `(cost summed in the DP's operand
    /// order, est_card, build rows, scanned rows, non-merge joins)`.
    fn recorded_props(node: &crate::plan::PhysNode, ds: &Dataset) -> (f64, f64, f64, f64, usize) {
        use crate::plan::PhysNode;
        match node {
            PhysNode::Scan { pattern, est_card, .. } => {
                let scan =
                    if pattern.has_absent() { 0.0 } else { ds.count(pattern.access()) as f64 };
                (0.0, *est_card, 0.0, scan, 0)
            }
            PhysNode::Join { method, left, right, est_card, .. } => {
                let (lc, lcard, lb, ls, lh) = recorded_props(left, ds);
                let (rc, rcard, rb, rs, rh) = recorded_props(right, ds);
                let (build, scan, hashish) = match method {
                    JoinMethod::Bind => (lb, ls + est_card, 1 + lh + rh),
                    JoinMethod::Hash { build_right: true } => {
                        (lb + rb + rcard, ls + rs, 1 + lh + rh)
                    }
                    JoinMethod::Hash { build_right: false } => {
                        (lb + rb + lcard, ls + rs, 1 + lh + rh)
                    }
                    JoinMethod::Merge => (lb + rb, ls + rs, lh + rh),
                };
                (lc + rc + est_card, *est_card, build, scan, hashish)
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
        // is no longer value order, so no candidate may claim an order.
        let mut overflow = skewed_dataset();
        overflow.insert(Term::iri("prod/7"), Term::iri("p/feature"), Term::iri("feat/new"));
        assert!(!overflow.order_by_value_intact());
        let stores = [(skewed_dataset(), skewed), (multiplying_star(), star), (overflow, skewed)];
        let record = crate::exec::ExecConfig {
            order_exec: OrderExec::Auto,
            ..crate::exec::ExecConfig::default()
        };
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        // Merge roots, hash builds and delivered orders all occur.
        let mut seen = (false, false, false);
        for (ds, (preds, objs)) in &stores {
            let est = Estimator::new(ds);
            for n in 2..=8 {
                for _ in 0..4 {
                    let pats = random_bgp(ds, preds, objs, n, &mut rng);
                    // An order preference on some variable, half the time.
                    let sort = if n % 2 == 0 { vec![pats[0].var_slots()[0]] } else { vec![] };
                    let oracle = (n <= 5).then(|| exhaustive_min_cout(&pats, &est).unwrap().0);
                    for mode in [OrderExec::Off, OrderExec::Auto, OrderExec::Force] {
                        let prefs = OrderPrefs { sort: sort.clone(), mode };
                        let (arena, root) = dp_optimal(&pats, &est, &prefs);
                        let (c, plan) = (arena.cands[root], arena.plan(root));
                        let (cost, card, build, scan, hashish) =
                            recorded_props(&plan.physical(ds, &record, false).0, ds);
                        let what = format!("{mode:?} {}", plan.signature());
                        seen.0 |= what.contains("MJ(");
                        seen.1 |= build > 0.0;
                        seen.2 |= !c.order.as_slice().is_empty();
                        assert_eq!(c.cost.to_bits(), cost.to_bits(), "{what}");
                        assert_eq!(c.build.to_bits(), build.to_bits(), "{what}");
                        assert_eq!(c.scan.to_bits(), scan.to_bits(), "{what}");
                        assert_eq!(c.hashish, hashish, "{what}");
                        assert_eq!(c.est_card.to_bits(), card.to_bits(), "{what}");
                        assert_eq!(c.order.as_slice(), plan.delivered_order(ds), "{what}");
                        let mut sig = String::new();
                        arena.render_sig(&c, &mut sig);
                        assert_eq!(sig, plan.signature().0);
                        if !ds.order_by_value_intact() {
                            assert!(c.order.as_slice().is_empty(), "{what}");
                        }
                        // `est_cout` sums the same cards with the node's
                        // own card first: equal up to rounding.
                        let tol = 1e-12 * c.cost.abs().max(1.0);
                        assert!((c.cost - plan.est_cout()).abs() <= tol, "{what}");
                        // `Cout`-optimal, unless a sort preference buys a
                        // costlier root that saves the sort.
                        if let Some(oracle) = oracle {
                            let tol = 1e-9 * oracle.abs().max(1.0);
                            assert!(c.cost >= oracle - tol, "{what}: {oracle}");
                            if sort.is_empty() {
                                assert!(c.cost <= oracle + tol, "{what}: {oracle}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen, (true, true, true));
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
        for mode in [OrderExec::Off, OrderExec::Auto, OrderExec::Force] {
            let prefs = OrderPrefs { sort: vec![], mode };
            let plan = optimize_with(&pats, &est, &prefs).unwrap();
            assert_eq!(plan.signature().0, *textual_min, "{mode:?}");
            assert_eq!(plan.est_cout(), 150.0);
        }
    }
}
