//! Logical join trees, the physical pass over them, recorded physical
//! plans and plan signatures.
//!
//! The paper's formal problem is stated in terms of the *optimal plan w.r.t.
//! `Cout`*; two parameter bindings belong to the same class only if they
//! yield the same optimal plan (condition a) and different classes must have
//! different plans (condition c). [`PlanSignature`] is the canonical
//! structural identity used for those comparisons: it captures join tree
//! shape and leaf (pattern) identity, but *not* the concrete parameter ids,
//! so two instantiations of a template compare equal iff their optimal join
//! trees match.

use std::collections::HashMap;
use std::ops::Range;

use parambench_rdf::dict::Id;
use parambench_rdf::index::IndexOrder;
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;

use crate::ast::{AggFunc, BinOp, Expr, OrderTarget, Projection, SelectQuery};
use crate::error::QueryError;
use crate::exec::{self, ExecConfig, Value, UNBOUND};
use crate::physical::{
    BindJoin, BoxedOperator, CoutBucket, HashJoinProbe, IndexScan, ParallelSource, SpineStep,
};

/// One S/P/O slot of a planned pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Bound to a dictionary id.
    Bound(Id),
    /// A query variable, identified by its slot in the variable table.
    Var(usize),
    /// A constant term that is absent from the dictionary: the pattern can
    /// never match (the scan is provably empty).
    Absent,
}

impl Slot {
    /// The variable slot, if this is a variable.
    pub fn as_var(&self) -> Option<usize> {
        match self {
            Slot::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// The bound id, if any.
    pub fn as_bound(&self) -> Option<Id> {
        match self {
            Slot::Bound(id) => Some(*id),
            _ => None,
        }
    }
}

/// A triple pattern lowered to the id level, ready for scanning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlannedPattern {
    /// Index of this pattern in the query's pattern list — the stable
    /// identity that plan signatures are built from.
    pub idx: usize,
    /// Subject, predicate, object slots.
    pub slots: [Slot; 3],
}

impl PlannedPattern {
    /// The id-level access pattern for the store (vars and absents → wildcard;
    /// an absent constant makes the scan empty, handled by the executor).
    pub fn access(&self) -> [Option<Id>; 3] {
        [self.slots[0].as_bound(), self.slots[1].as_bound(), self.slots[2].as_bound()]
    }

    /// True if some constant was missing from the dictionary.
    pub fn has_absent(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, Slot::Absent))
    }

    /// Distinct variable slots of the pattern, in S-P-O order.
    pub fn var_slots(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(3);
        for s in &self.slots {
            if let Slot::Var(v) = s {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }
}

/// A node of the logical join tree for a basic graph pattern — the
/// `Cout`-optimal object the optimizer returns and the paper's classes are
/// defined over. How it runs (index orders, which side streams, bind vs
/// hash) is decided per execution by the physical pass
/// (`Engine::physical_plan`).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// A scan of one triple pattern. Scans contribute zero to `Cout`.
    Scan {
        /// The scanned pattern.
        pattern: PlannedPattern,
        /// Estimated output cardinality.
        est_card: f64,
    },
    /// A join; `join_vars` are the shared variable slots (empty for a
    /// cross product). The join's output cardinality is what `Cout` sums.
    Join {
        /// Left operand (the smaller estimate, as the optimizer orients).
        left: Box<PlanNode>,
        /// Right operand.
        right: Box<PlanNode>,
        /// Shared variable slots (empty = cross product).
        join_vars: Vec<usize>,
        /// Estimated output cardinality.
        est_card: f64,
    },
}

impl PlanNode {
    /// Estimated output cardinality of this node.
    pub fn est_card(&self) -> f64 {
        match self {
            PlanNode::Scan { est_card, .. } | PlanNode::Join { est_card, .. } => *est_card,
        }
    }

    /// Estimated `Cout` of the subtree: sum of estimated cardinalities of
    /// all join results (scans cost 0) — the paper's cost function, which
    /// counts what a plan *produces*, not how.
    pub fn est_cout(&self) -> f64 {
        match self {
            PlanNode::Scan { .. } => 0.0,
            PlanNode::Join { left, right, est_card, .. } => {
                est_card + left.est_cout() + right.est_cout()
            }
        }
    }

    /// Number of scan leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => left.leaf_count() + right.leaf_count(),
        }
    }

    /// Visits every scan leaf's pattern mutably — the plan-cache rebind
    /// hook: a cached plan skeleton has its parameter constants swapped in
    /// place (keyed by `PlannedPattern::idx`) without re-optimizing.
    pub(crate) fn patterns_mut(&mut self, f: &mut dyn FnMut(&mut PlannedPattern)) {
        match self {
            PlanNode::Scan { pattern, .. } => f(pattern),
            PlanNode::Join { left, right, .. } => {
                left.patterns_mut(f);
                right.patterns_mut(f);
            }
        }
    }

    /// Collects the distinct variable slots produced by the subtree.
    pub fn var_slots(&self) -> Vec<usize> {
        fn walk(node: &PlanNode, out: &mut Vec<usize>) {
            match node {
                PlanNode::Scan { pattern, .. } => {
                    for v in pattern.var_slots() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                PlanNode::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The structural signature of this subtree (see [`PlanSignature`]):
    /// the logical join tree, `S<idx>` per scan and `HJ(left,right)` per
    /// join. No physical choice participates, so the paper's conditions
    /// (a)/(c) see the same optimum whatever the physical pass records.
    pub fn signature(&self) -> PlanSignature {
        let mut text = String::new();
        fn walk(node: &PlanNode, out: &mut String) {
            match node {
                PlanNode::Scan { pattern, .. } => {
                    use std::fmt::Write;
                    write!(out, "S{}", pattern.idx).expect("writing to a String");
                }
                PlanNode::Join { left, right, .. } => {
                    out.push_str("HJ(");
                    walk(left, out);
                    out.push(',');
                    walk(right, out);
                    out.push(')');
                }
            }
        }
        walk(self, &mut text);
        PlanSignature(text)
    }

    /// The parallel-qualification cost test, robust to adversarial
    /// estimates: IEEE addition of finite non-negative terms saturates to
    /// `+∞` rather than wrapping, and a `NaN` sum (degenerate statistics)
    /// is treated as unboundedly expensive — it qualifies — instead of
    /// silently flunking every comparison the way raw `NaN < threshold`
    /// would.
    fn cost_qualifies(est_cout: f64, est_card: f64, min_est_cost: f64) -> bool {
        let total = est_cout + est_card;
        total.is_nan() || total >= min_est_cost
    }

    /// The physical pass: one bottom-up interesting-order walk over this
    /// fixed tree, the single place its join methods are chosen. Every node
    /// keeps at most one cheapest alternative per delivered order; the cost
    /// is estimated rows scanned plus rows built ([`JoinMethod::work`]).
    /// It chooses each scan's index order, which side of each join streams,
    /// and bind vs hash: besides the tree's orientation and default indexes
    /// (each join by [`JoinMethod::of_hash_join`]) it tries the other
    /// orientation and every index order, and keeps the cheapest.
    ///
    /// At the root `goal` adds the modifier cost of ORDER BY `goal.sort`:
    ///
    /// * under `LIMIT k` a sort the delivered order does not serve costs
    ///   `card·log2(k)` (a bounded heap); where the order serves it, the
    ///   streamed driver is charged `min(extent, k·extent/card)` rows
    ///   instead of its extent, for the early exit;
    /// * without a LIMIT a sort is a pipeline breaker holding every row:
    ///   any alternative whose order serves ORDER BY beats every one that
    ///   does not, and among those that do not the sort costs
    ///   `card·log2(card)`.
    ///
    /// The pass reads estimates and exact extents (`ds.count`), never an
    /// extent's rows.
    pub(crate) fn physical(&self, ds: &Dataset, goal: &RootGoal) -> Physical {
        let claim = ds.order_by_value_intact();
        let leaves = self.leaf_count();
        let alts = Vec::with_capacity(8 * leaves);
        let mut pass = Pass { ds, claim, alts };
        let range = pass.alts(self);
        let root = pass.pick_root(range, self.est_card(), goal);
        let (order, driver) = (&pass.alts[root].order, pass.alts[root].driver);
        let order = order.as_slice().to_vec();
        let node = pass.record(root);
        Physical { node, order, driver_rows: driver as usize }
    }

    /// Whether this tree, as the physical pass recorded it (`rec`), runs
    /// over morsels: at least two leaves, every recorded join a bind join
    /// (so the spine shares nothing between workers but the dataset),
    /// estimated cost (`est_cout + est_card`, the optimizer's own numbers)
    /// of at least `cfg.min_est_cost`, and a driving scan of at least
    /// `cfg.min_driver_rows` rows. The decision reads only estimates and
    /// exact extents — never `cfg.threads` — so the same plan runs at every
    /// thread count and results stay bit-identical.
    pub(crate) fn morselizes(&self, cfg: &ExecConfig, rec: &Physical) -> bool {
        self.leaf_count() >= 2
            && rec.node.is_bind_spine()
            && Self::cost_qualifies(self.est_cout(), self.est_card(), cfg.min_est_cost)
            && rec.driver_rows >= cfg.min_driver_rows.max(1)
    }

    /// Pretty multi-line rendering with estimates, for EXPLAIN output.
    pub fn render(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::Scan { pattern, est_card } => {
                format!("{pad}Scan p{} {:?} (est {est_card:.1})\n", pattern.idx, pattern.slots)
            }
            PlanNode::Join { left, right, join_vars, est_card } => {
                let mut out = format!("{pad}Join on {join_vars:?} (est {est_card:.1})\n");
                out.push_str(&left.render(indent + 1));
                out.push_str(&right.render(indent + 1));
                out
            }
        }
    }
}

/// What the physical pass serves at the root of a required BGP.
#[derive(Debug, Clone, Default)]
pub(crate) struct RootGoal {
    /// The ORDER BY slot sequence a delivered order can satisfy (empty
    /// when no delivered order can).
    pub(crate) sort: Vec<usize>,
    /// `offset + limit` when the pipeline stops early once that many rows
    /// passed (a LIMIT with no aggregation).
    pub(crate) limit: Option<usize>,
}

/// What [`PlanNode::physical`] recorded for one tree.
#[derive(Debug, Clone)]
pub(crate) struct Physical {
    /// The recorded join tree.
    pub(crate) node: PhysNode,
    /// The slot sequence its output arrives sorted by (lexicographically,
    /// ascending ids — which, with the value-ordered dictionary built at
    /// `freeze`, is exactly ascending ORDER BY value order).
    pub(crate) order: Vec<usize>,
    /// The extent of the scan feeding the streaming spine (0 for a scan of
    /// an absent constant).
    pub(crate) driver_rows: usize,
}

/// A delivered order: at most three variable slots, because every node
/// delivers the order of one of its scans and a scan orders by its
/// distinct unbound positions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Order {
    slots: [usize; 3],
    len: usize,
}

impl Order {
    /// The order a scan of `pattern` through `order` (`None` = the default
    /// index) delivers: its distinct variable slots at unbound positions,
    /// in the index's key order.
    fn of_scan(pattern: &PlannedPattern, order: Option<IndexOrder>) -> Order {
        let access = pattern.access();
        let index = order.unwrap_or_else(|| Dataset::default_order(access));
        let mut out = Order::default();
        for pos in index.perm() {
            if let (None, Slot::Var(v)) = (access[pos], pattern.slots[pos]) {
                // A repeated variable keeps its first key position: rows
                // sorted by that position are sorted by the variable.
                if !out.as_slice().contains(&v) {
                    out.slots[out.len] = v;
                    out.len += 1;
                }
            }
        }
        out
    }

    fn as_slice(&self) -> &[usize] {
        &self.slots[..self.len]
    }
}

/// How a pass alternative runs.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A scan through `order` (`None` = the default index).
    Scan { order: Option<IndexOrder> },
    /// A join of two earlier alternatives, `left` and `right` in the
    /// physical orientation (which may swap the logical one).
    Join { method: JoinMethod, left: usize, right: usize },
}

/// One alternative of a subtree in the physical pass: an entry of the
/// pass's arena, naming its children by index.
#[derive(Debug, Clone, Copy)]
struct Alt<'p> {
    node: &'p PlanNode,
    shape: Shape,
    work: Work,
    order: Order,
    /// Extent of the scan the streaming spine starts at.
    driver: f64,
}

impl Alt<'_> {
    /// Rows scanned plus rows built.
    fn cost(&self) -> f64 {
        self.work.scan + self.work.build
    }
}

/// The state of one [`PlanNode::physical`] run: every kept alternative of
/// every node, children before parents.
struct Pass<'d, 'p> {
    ds: &'d Dataset,
    /// Whether scans claim their delivered order (not while the store's id
    /// order is not value order, [`Dataset::order_by_value_intact`]) —
    /// without a claimed order no sort elimination is possible.
    claim: bool,
    alts: Vec<Alt<'p>>,
}

/// Better-first order of two alternatives costing `a` and `b`; ties keep
/// generation order (the tree's orientation and default indexes come
/// first).
fn cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

impl<'p> Pass<'_, 'p> {
    /// The alternatives of `node`'s subtree: a range of the arena, cheapest
    /// first, one per delivered order.
    fn alts(&mut self, node: &'p PlanNode) -> Range<usize> {
        match node {
            PlanNode::Scan { pattern, .. } => self.scan_alts(node, pattern),
            PlanNode::Join { left, right, join_vars, .. } => {
                let (l, r) = (self.alts(left), self.alts(right));
                let start = self.alts.len();
                let joined = !join_vars.is_empty();
                let tree = (left.as_ref(), l);
                let swapped = (right.as_ref(), r);
                let method = self.hash_alts(node, tree.clone(), swapped.clone(), joined, None);
                self.hash_alts(node, swapped, tree, joined, Some(method));
                self.prune(start)
            }
        }
    }

    /// A scan through its default index and, when orders are claimed,
    /// through every other index delivering a different order.
    fn scan_alts(&mut self, node: &'p PlanNode, pattern: &PlannedPattern) -> Range<usize> {
        let start = self.alts.len();
        let extent =
            if pattern.has_absent() { 0.0 } else { self.ds.count(pattern.access()) as f64 };
        let push = |alts: &mut Vec<Alt<'p>>, order: Option<IndexOrder>| {
            let delivered =
                if self.claim { Order::of_scan(pattern, order) } else { Order::default() };
            if alts[start..].iter().all(|a| a.order != delivered) {
                alts.push(Alt {
                    node,
                    shape: Shape::Scan { order },
                    work: Work { build: 0.0, scan: extent },
                    order: delivered,
                    driver: extent,
                });
            }
        };
        push(&mut self.alts, None);
        if self.claim && !pattern.has_absent() {
            let access = pattern.access();
            let default = Dataset::default_order(access);
            let [s, p, o] = access.map(|a| a.is_some());
            for order in IndexOrder::all_for_bound(s, p, o).filter(|&o| o != default) {
                push(&mut self.alts, Some(order));
            }
        }
        start..self.alts.len()
    }

    /// The bind or hash join of `a` and `b` — [`JoinMethod::of_hash_join`]
    /// with `a` as the physical left — over every alternative of its
    /// streamed side; the probed or built side uses its cheapest one.
    /// Returns the method. `mirror` is the method of the other orientation
    /// when that was generated first: a hash join building the same side
    /// as the mirror's is the same plan with its output columns swapped, so
    /// it adds nothing.
    fn hash_alts(
        &mut self,
        node: &'p PlanNode,
        (a_node, a): (&PlanNode, Range<usize>),
        (b_node, b): (&PlanNode, Range<usize>),
        joined: bool,
        mirror: Option<JoinMethod>,
    ) -> JoinMethod {
        // A scan's alternatives all carry its exact extent as their work.
        let b_extent = match b_node {
            PlanNode::Scan { pattern, .. } if !pattern.has_absent() => {
                Some(self.alts[b.start].work.scan as usize)
            }
            _ => None,
        };
        let method =
            JoinMethod::of_hash_join(a_node.est_card(), b_node.est_card(), b_extent, joined);
        if let (JoinMethod::Hash { build_right }, Some(JoinMethod::Hash { build_right: other })) =
            (method, mirror)
        {
            if build_right != other {
                return method;
            }
        }
        let streamed = if method.streams_left() { a.clone() } else { b.clone() };
        for s in streamed {
            let (left, right) = if method.streams_left() { (s, b.start) } else { (a.start, s) };
            let alt = self.join(node, method, left, right);
            self.alts.push(alt);
        }
        method
    }

    /// The join of arena entries `left` and `right` running as `method`:
    /// its work by [`JoinMethod::work`], the streamed side's order and
    /// driver.
    fn join(&self, node: &'p PlanNode, method: JoinMethod, left: usize, right: usize) -> Alt<'p> {
        let (l, r) = (&self.alts[left], &self.alts[right]);
        let cards = (l.node.est_card(), r.node.est_card());
        let streamed = if method.streams_left() { l } else { r };
        Alt {
            node,
            shape: Shape::Join { method, left, right },
            work: method.work(cards, l.work, r.work, node.est_card()),
            order: streamed.order,
            driver: streamed.driver,
        }
    }

    /// Sorts one node's candidates — the arena's tail from `start` —
    /// better-first and keeps the first of each delivered order.
    fn prune(&mut self, start: usize) -> Range<usize> {
        self.alts[start..].sort_by(|a, b| cmp(a.cost(), b.cost()));
        let mut end = start;
        for i in start..self.alts.len() {
            let alt = self.alts[i];
            if self.alts[start..end].iter().all(|k| k.order != alt.order) {
                self.alts[end] = alt;
                end += 1;
            }
        }
        self.alts.truncate(end);
        start..end
    }

    /// The root alternative: cheapest once the modifier cost of `goal` is
    /// added (see [`PlanNode::physical`]); the first minimum wins. An
    /// alternative left with a blocking full sort loses to every one that
    /// serves ORDER BY.
    fn pick_root(&self, ids: Range<usize>, card: f64, goal: &RootGoal) -> usize {
        // (loses to every alternative serving ORDER BY, cost with the sort)
        let key = |alt: &Alt<'_>| -> (bool, f64) {
            if goal.sort.is_empty() {
                return (false, alt.cost());
            }
            let served = alt.order.as_slice().starts_with(&goal.sort);
            let extent = alt.driver;
            match goal.limit {
                Some(k) if served => {
                    (false, alt.cost() - extent + extent.min(k as f64 * extent / card))
                }
                None if served => (false, alt.cost()),
                Some(k) => {
                    let heap = card.min(k as f64).max(2.0);
                    (false, alt.cost() + card.max(1.0) * heap.log2())
                }
                None => (true, alt.cost() + card.max(1.0) * card.max(2.0).log2()),
            }
        };
        ids.reduce(|best, id| {
            let ((a_loses, a_total), (b_loses, b_total)) =
                (key(&self.alts[best]), key(&self.alts[id]));
            if b_loses.cmp(&a_loses).then_with(|| cmp(b_total, a_total)).is_lt() {
                id
            } else {
                best
            }
        })
        .expect("every node has an alternative")
    }

    /// Materializes arena entry `id` as a recorded tree.
    fn record(&self, id: usize) -> PhysNode {
        let alt = &self.alts[id];
        let est_card = alt.node.est_card();
        let (method, left, right, join_vars, logical_left) = match (alt.shape, alt.node) {
            (Shape::Scan { order }, PlanNode::Scan { pattern, .. }) => {
                return PhysNode::Scan { pattern: pattern.clone(), order, est_card };
            }
            (Shape::Join { method, left, right }, PlanNode::Join { join_vars, left: l, .. }) => {
                (method, left, right, join_vars, l.as_ref())
            }
            _ => unreachable!("an alternative has its node's shape"),
        };
        let swapped = !std::ptr::eq(self.alts[left].node, logical_left);
        let (left, right) = (Box::new(self.record(left)), Box::new(self.record(right)));
        // The logical subtree's signature, from the children's: what
        // `PlanNode::signature` renders, without re-walking the subtree.
        let (first, second) = if swapped { (&right, &left) } else { (&left, &right) };
        let mut signature = String::from("HJ(");
        first.push_signature(&mut signature);
        signature.push(',');
        second.push_signature(&mut signature);
        signature.push(')');
        PhysNode::Join { method, left, right, on: join_vars.clone(), signature, est_card }
    }
}

/// How a recorded join runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Index nested-loop join: probes the right child's pattern once per
    /// streamed left row.
    Bind,
    /// Hash join materializing one side and streaming the other.
    Hash {
        /// Whether the right (else the left) side is built.
        build_right: bool,
    },
}

impl JoinMethod {
    /// The one home of the bind rule and of the build-side comparison of a
    /// hash join whose children estimate `left_card` and `right_card` rows.
    /// It runs as an index nested-loop [`BindJoin`] probing its right child
    /// when that child is a leaf scan (`right_extent` is its exact extent;
    /// `None` for a join or a scan of an absent constant), the children
    /// share a variable (`joined`), and the left estimate does not exceed
    /// the extent. Otherwise the child with the smaller estimate builds.
    /// Every choice produces the same logical output, so measured `Cout` is
    /// independent of it — only wall-clock time and touched data volume
    /// change.
    pub(crate) fn of_hash_join(
        left_card: f64,
        right_card: f64,
        right_extent: Option<usize>,
        joined: bool,
    ) -> JoinMethod {
        match right_extent {
            Some(extent) if joined && left_card <= extent as f64 => JoinMethod::Bind,
            _ => JoinMethod::Hash { build_right: right_card <= left_card },
        }
    }

    /// The estimated work of this join over children estimating `cards`
    /// rows and doing `left`/`right` work, producing `card` rows — the one
    /// home of the build and scan formulas (the optimizer's tiebreaks and
    /// the physical pass's cost both read it). A bind join builds nothing
    /// and reads only what its streamed rows select (≈ its output); a hash
    /// join builds one side and reads both.
    pub(crate) fn work(self, cards: (f64, f64), left: Work, right: Work, card: f64) -> Work {
        let (l, r) = (left, right);
        match self {
            JoinMethod::Bind => Work { build: l.build, scan: l.scan + card },
            JoinMethod::Hash { build_right: true } => {
                Work { build: l.build + r.build + cards.1, scan: l.scan + r.scan }
            }
            JoinMethod::Hash { build_right: false } => {
                Work { build: l.build + r.build + cards.0, scan: l.scan + r.scan }
            }
        }
    }

    /// Whether the left input is the streamed side, whose delivered order
    /// survives the join (all but a hash join building its left).
    pub fn streams_left(self) -> bool {
        self != JoinMethod::Hash { build_right: false }
    }
}

/// Estimated work of a physical subtree: rows its hash joins build and
/// rows its scans and bind probes read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Work {
    /// Estimated hash-build rows.
    pub(crate) build: f64,
    /// Estimated scanned rows.
    pub(crate) scan: f64,
}

/// One node of a *recorded* physical join tree: plain data whose structure
/// is the decision. The physical pass builds it once per execution
/// (the bind rule reads exact extents, which depend on the binding); the
/// engine then both lowers it ([`PhysNode::lower`],
/// [`PhysNode::lower_morsels`]) and prints it ([`PhysNode::render`]), so
/// EXPLAIN shows what ran.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// Index scan of one pattern.
    Scan {
        /// The scanned pattern.
        pattern: PlannedPattern,
        /// The permutation index (`None` = default for the bound positions).
        order: Option<IndexOrder>,
        /// Estimated output cardinality.
        est_card: f64,
    },
    /// A join.
    Join {
        /// The chosen operator.
        method: JoinMethod,
        /// Left operand in the physical orientation (the streamed side of
        /// a bind join).
        left: Box<PhysNode>,
        /// Right operand (a [`PhysNode::Scan`] under [`JoinMethod::Bind`]:
        /// the probed pattern).
        right: Box<PhysNode>,
        /// Shared variable slots, empty for a cross product.
        on: Vec<usize>,
        /// Signature path of the logical join (the
        /// `ExecStats::join_cards` key).
        signature: String,
        /// Estimated output cardinality.
        est_card: f64,
    },
}

impl PhysNode {
    /// Appends the signature of the logical subtree this node runs (see
    /// [`PlanNode::signature`]).
    fn push_signature(&self, out: &mut String) {
        match self {
            PhysNode::Scan { pattern, .. } => {
                use std::fmt::Write;
                write!(out, "S{}", pattern.idx).expect("writing to a String");
            }
            PhysNode::Join { signature, .. } => out.push_str(signature),
        }
    }

    /// The operator this node runs as, as EXPLAIN names it.
    pub fn method(&self) -> &'static str {
        match self {
            PhysNode::Scan { .. } => "IndexScan",
            PhysNode::Join { method: JoinMethod::Bind, .. } => "BindJoin",
            PhysNode::Join { method: JoinMethod::Hash { build_right: true }, .. } => {
                "HashJoin[build=right]"
            }
            PhysNode::Join { method: JoinMethod::Hash { build_right: false }, .. } => {
                "HashJoin[build=left]"
            }
        }
    }

    /// Lowers the recorded tree to a serial operator pipeline over `ds`.
    /// `bucket` routes the joins' output cardinalities into the required
    /// or OPTIONAL `Cout` accumulator of [`exec::ExecStats`].
    pub fn lower<'a>(&self, ds: &'a Dataset, bucket: CoutBucket) -> BoxedOperator<'a> {
        match self {
            PhysNode::Scan { pattern, order, .. } => {
                Box::new(IndexScan::with_order(ds, pattern, *order))
            }
            PhysNode::Join { method, left, right, on, signature, .. } => {
                let (left, sig) = (left.lower(ds, bucket), signature.clone());
                match (method, right.as_ref()) {
                    (JoinMethod::Bind, PhysNode::Scan { pattern, .. }) => {
                        Box::new(BindJoin::new(ds, left, pattern.clone(), on, sig, bucket))
                    }
                    (JoinMethod::Bind, _) => unreachable!("bind joins probe a scan"),
                    (JoinMethod::Hash { build_right }, right) => {
                        let (right, on) = (right.lower(ds, bucket), on.clone());
                        Box::new(HashJoinProbe::new(left, right, on, *build_right, sig, bucket))
                    }
                }
            }
        }
    }

    /// Whether every join of this tree is a bind join: a chain of index
    /// nested-loop probes over one driving scan, the only shape that runs
    /// over morsels.
    pub fn is_bind_spine(&self) -> bool {
        match self {
            PhysNode::Scan { .. } => true,
            PhysNode::Join { method: JoinMethod::Bind, left, .. } => left.is_bind_spine(),
            PhysNode::Join { .. } => false,
        }
    }

    /// Morsel-driven lowering of a bind spine ([`PhysNode::is_bind_spine`]):
    /// partitions the driving scan into morsels and returns a
    /// [`ParallelSource`] whose workers each run the spine's bind joins over
    /// one morsel. Nothing is built, so nothing is shared between workers
    /// but the dataset.
    ///
    /// # Panics
    ///
    /// On a tree holding a hash join.
    pub fn lower_morsels<'a>(
        &self,
        ds: &'a Dataset,
        bucket: CoutBucket,
        cfg: &ExecConfig,
    ) -> ParallelSource<'a> {
        // Record the spine steps top-down, then flip to bottom-up
        // assembly order.
        let mut steps: Vec<SpineStep> = Vec::new();
        let mut node = self;
        let (driver, driver_order) = loop {
            match node {
                PhysNode::Scan { pattern, order, .. } => break (pattern, *order),
                PhysNode::Join { method: JoinMethod::Bind, left, right, on, signature, .. } => {
                    let PhysNode::Scan { pattern, .. } = right.as_ref() else {
                        unreachable!("bind joins probe a scan")
                    };
                    let (pattern, signature) = (pattern.clone(), signature.clone());
                    steps.push(SpineStep { pattern, join_vars: on.clone(), signature });
                    node = left;
                }
                PhysNode::Join { .. } => panic!("only bind spines run over morsels"),
            }
        };
        steps.reverse();
        ParallelSource::new(ds, driver.clone(), driver_order, steps, cfg, bucket)
    }

    /// EXPLAIN rendering: one line per operator with the chosen join
    /// method and the scanned index, and the estimated output cardinality
    /// when `est`.
    pub fn render(&self, indent: usize, est: bool) -> String {
        let (pad, method) = ("  ".repeat(indent), self.method());
        let note = |card: f64| if est { format!(" (est {card:.1})") } else { String::new() };
        match self {
            PhysNode::Scan { pattern, order, est_card } => {
                let idx = order.unwrap_or_else(|| Dataset::default_order(pattern.access()));
                format!("{pad}{method} p{} idx={idx:?}{}\n", pattern.idx, note(*est_card))
            }
            PhysNode::Join { left, right, on, est_card, .. } => {
                format!("{pad}{method} on {on:?}{}\n", note(*est_card))
                    + &left.render(indent + 1, est)
                    + &right.render(indent + 1, est)
            }
        }
    }
}

/// A scalar expression lowered to the variable-slot level — the execution
/// form of ORDER BY expression keys (`ORDER BY (?a + ?b)`). Mirrors
/// [`Expr`] with variables resolved to slots at prepare time, so per-row
/// evaluation never touches names.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotExpr {
    /// A variable slot reference.
    Slot(usize),
    /// A constant term.
    Const(Term),
    /// `BOUND(slot)`.
    Bound(usize),
    /// Logical negation.
    Not(Box<SlotExpr>),
    /// Binary operation.
    Binary(BinOp, Box<SlotExpr>, Box<SlotExpr>),
}

impl SlotExpr {
    /// Lowers an AST expression, resolving variable names through `slot`.
    /// Parameters must already be substituted (templates resolve them
    /// before prepare).
    pub fn lower(
        expr: &Expr,
        slot: &dyn Fn(&str) -> Result<usize, QueryError>,
    ) -> Result<SlotExpr, QueryError> {
        Ok(match expr {
            Expr::Var(v) => SlotExpr::Slot(slot(v)?),
            Expr::Const(t) => SlotExpr::Const(t.clone()),
            Expr::Param(p) => return Err(QueryError::UnboundParameter(p.clone())),
            Expr::Bound(v) => SlotExpr::Bound(slot(v)?),
            Expr::Not(e) => SlotExpr::Not(Box::new(Self::lower(e, slot)?)),
            Expr::Binary(op, a, b) => SlotExpr::Binary(
                *op,
                Box::new(Self::lower(a, slot)?),
                Box::new(Self::lower(b, slot)?),
            ),
        })
    }

    /// Collects the distinct slots the expression reads.
    pub fn collect_slots(&self, out: &mut Vec<usize>) {
        match self {
            SlotExpr::Slot(s) | SlotExpr::Bound(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            SlotExpr::Const(_) => {}
            SlotExpr::Not(e) => e.collect_slots(out),
            SlotExpr::Binary(_, a, b) => {
                a.collect_slots(out);
                b.collect_slots(out);
            }
        }
    }

    /// Evaluates over one row whose columns carry the slots listed in
    /// `schema` (a pipeline batch schema or a bindings column list).
    /// Errors and missing slots evaluate like SPARQL expression errors —
    /// the resulting sort key orders them with the unbound values, last.
    pub(crate) fn eval(&self, row: &[Id], schema: &[usize], ds: &Dataset) -> Value {
        match self {
            SlotExpr::Slot(s) => match schema.iter().position(|&c| c == *s) {
                Some(c) if row[c] != UNBOUND => Value::Term(row[c]),
                Some(_) => Value::Unbound,
                None => Value::Error,
            },
            SlotExpr::Const(term) => match term.numeric_value() {
                Some(n) => Value::Num(n),
                None => match ds.lookup(term) {
                    Some(id) => Value::Term(id),
                    None => Value::Error,
                },
            },
            SlotExpr::Bound(s) => match schema.iter().position(|&c| c == *s) {
                Some(c) => Value::Bool(row[c] != UNBOUND),
                None => Value::Bool(false),
            },
            SlotExpr::Not(e) => match e.eval(row, schema, ds) {
                Value::Bool(b) => Value::Bool(!b),
                _ => Value::Error,
            },
            SlotExpr::Binary(op, a, b) => {
                let va = a.eval(row, schema, ds);
                let vb = b.eval(row, schema, ds);
                exec::eval_binary(*op, va, vb, ds)
            }
        }
    }
}

/// Where a solution-table column's value comes from once the pipeline has
/// produced its final bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableColSource {
    /// A variable slot of the binding pipeline (plain vars, group keys).
    Slot(usize),
    /// The `i`-th aggregate of the enclosing [`AggregatePlan`].
    Agg(usize),
    /// The `i`-th ORDER BY expression of [`ModifierPlan::order_exprs`],
    /// computed per row from slot values (helper columns only — never
    /// projected).
    Expr(usize),
}

/// One column of the solution table the modifier stack operates on.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCol {
    /// Output name (variable name or aggregate alias).
    pub name: String,
    /// Where the column's values come from.
    pub source: TableColSource,
}

/// One aggregate projection, lowered to the slot level.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input variable slot; `None` for `COUNT(*)`.
    pub slot: Option<usize>,
    /// `FUNC(DISTINCT ?x)`: fold each distinct input id once per group.
    pub distinct: bool,
}

/// GROUP BY + aggregate projections, lowered to the slot level.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatePlan {
    /// Grouping key slots, in GROUP BY order (empty = one implicit group).
    pub group_slots: Vec<usize>,
    /// Aggregate projections, in projection order.
    pub specs: Vec<AggSpec>,
}

/// The query's solution modifiers (DISTINCT, GROUP BY/aggregation,
/// ORDER BY, LIMIT/OFFSET), lowered and validated against the variable
/// slot table at prepare time.
///
/// The *solution table* the plan describes has `table` columns: the
/// declared projections first (`out_width` of them), then helper columns
/// for ORDER BY keys that are not projected (dropped after sorting).
/// Modifier semantics over that table, in order: sort by `order_by`
/// (stable: ties keep pipeline row order), project to the first
/// `out_width` columns, DISTINCT (first occurrence wins), then
/// OFFSET/LIMIT. [`crate::engine::Engine::execute`] pushes as much of
/// this stack as possible into streaming physical operators
/// ([`crate::modifiers`]); the rest runs at the result boundary
/// ([`crate::results`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModifierPlan {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Rows to skip (`OFFSET`; 0 when absent).
    pub offset: usize,
    /// Row cap (`LIMIT`).
    pub limit: Option<usize>,
    /// Solution-table columns: projections, then ORDER BY helper columns.
    pub table: Vec<TableCol>,
    /// Number of declared output columns (prefix of `table`).
    pub out_width: usize,
    /// Sort keys: (table column, descending).
    pub order_by: Vec<(usize, bool)>,
    /// ORDER BY expression keys, slot-lowered; referenced by
    /// [`TableColSource::Expr`] helper columns.
    pub order_exprs: Vec<SlotExpr>,
    /// Present when any projection is an aggregate.
    pub aggregate: Option<AggregatePlan>,
}

impl ModifierPlan {
    /// Lowers and validates the modifier clauses of `query` against the
    /// prepared variable table. All modifier shape errors (unknown ORDER BY
    /// variables, ungrouped projections, GROUP BY without aggregates) are
    /// raised here, at prepare time, instead of during execution.
    pub fn lower(
        query: &SelectQuery,
        slot_of: &HashMap<String, usize>,
    ) -> Result<Self, QueryError> {
        let slot = |name: &str| -> Result<usize, QueryError> {
            slot_of.get(name).copied().ok_or_else(|| QueryError::UnknownVariable(name.to_string()))
        };

        let mut table: Vec<TableCol> = Vec::new();
        let aggregate = if query.has_aggregates() {
            let mut specs: Vec<AggSpec> = Vec::new();
            for p in &query.projections {
                match p {
                    Projection::Var(v) => {
                        if !query.group_by.iter().any(|g| g == v) {
                            return Err(QueryError::Unsupported(format!(
                                "projected variable ?{v} must appear in GROUP BY"
                            )));
                        }
                        table.push(TableCol {
                            name: v.clone(),
                            source: TableColSource::Slot(slot(v)?),
                        });
                    }
                    Projection::Aggregate { func, var, distinct, alias } => {
                        let in_slot = match var {
                            Some(v) => Some(slot(v)?),
                            None => None,
                        };
                        table.push(TableCol {
                            name: alias.clone(),
                            source: TableColSource::Agg(specs.len()),
                        });
                        specs.push(AggSpec { func: *func, slot: in_slot, distinct: *distinct });
                    }
                }
            }
            let group_slots =
                query.group_by.iter().map(|g| slot(g)).collect::<Result<Vec<_>, _>>()?;
            Some(AggregatePlan { group_slots, specs })
        } else {
            if !query.group_by.is_empty() {
                return Err(QueryError::Unsupported("GROUP BY without aggregates".into()));
            }
            for p in &query.projections {
                if let Projection::Var(v) = p {
                    table
                        .push(TableCol { name: v.clone(), source: TableColSource::Slot(slot(v)?) });
                }
            }
            None
        };
        let out_width = table.len();

        // ORDER BY keys: reuse a projected column when one carries the
        // variable/alias; otherwise append a helper column (which must be
        // a pattern variable — a group variable under aggregation).
        // Expression keys lower to slot expressions evaluated per row into
        // the same precomputed-sort-key path plain keys use.
        let mut order_by: Vec<(usize, bool)> = Vec::new();
        let mut order_exprs: Vec<SlotExpr> = Vec::new();
        for k in &query.order_by {
            let col = match &k.target {
                OrderTarget::Var(var) => match table.iter().position(|c| c.name == *var) {
                    Some(c) => c,
                    None => {
                        if aggregate.is_some() && !query.group_by.iter().any(|g| g == var) {
                            return Err(QueryError::Unsupported(format!(
                                "ORDER BY ?{var} must be a group variable or aggregate alias"
                            )));
                        }
                        table.push(TableCol {
                            name: var.clone(),
                            source: TableColSource::Slot(slot(var)?),
                        });
                        table.len() - 1
                    }
                },
                OrderTarget::Expr(expr) => {
                    if aggregate.is_some() {
                        return Err(QueryError::Unsupported(
                            "expression ORDER BY keys under aggregation".into(),
                        ));
                    }
                    let lowered = SlotExpr::lower(expr, &slot)?;
                    table.push(TableCol {
                        name: format!("({expr})"),
                        source: TableColSource::Expr(order_exprs.len()),
                    });
                    order_exprs.push(lowered);
                    table.len() - 1
                }
            };
            order_by.push((col, k.descending));
        }

        Ok(ModifierPlan {
            distinct: query.distinct,
            offset: query.offset.unwrap_or(0),
            limit: query.limit,
            table,
            out_width,
            order_by,
            order_exprs,
            aggregate,
        })
    }

    /// True when the table carries helper (unprojected ORDER BY) columns.
    pub fn has_helper_cols(&self) -> bool {
        self.table.len() > self.out_width
    }

    /// Output column names, in projection order.
    pub fn out_names(&self) -> Vec<String> {
        self.table[..self.out_width].iter().map(|c| c.name.clone()).collect()
    }

    /// Distinct variable slots referenced by the solution table, in table
    /// column order (the plain path's pipeline projection). Slots read by
    /// ORDER BY expression keys are included — the pipeline must still
    /// carry them to the key evaluation.
    pub fn table_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for c in &self.table {
            match c.source {
                TableColSource::Slot(s) => {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
                TableColSource::Expr(i) => self.order_exprs[i].collect_slots(&mut out),
                TableColSource::Agg(_) => {}
            }
        }
        out
    }

    /// Distinct variable slots of the *projected* columns only (what
    /// DISTINCT deduplicates on — helper sort columns excluded).
    pub fn out_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for c in &self.table[..self.out_width] {
            if let TableColSource::Slot(s) = c.source {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Every variable slot the pipeline must still carry at the modifier
    /// boundary: table slots plus aggregate input slots.
    pub fn input_slots(&self) -> Vec<usize> {
        let mut out = self.table_slots();
        if let Some(agg) = &self.aggregate {
            for &s in &agg.group_slots {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
            for spec in &agg.specs {
                if let Some(s) = spec.slot {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    /// One-line summary for EXPLAIN output.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.distinct {
            parts.push("DISTINCT".into());
        }
        if let Some(agg) = &self.aggregate {
            parts.push(format!(
                "AGGREGATE({} specs, {} group keys)",
                agg.specs.len(),
                agg.group_slots.len()
            ));
        }
        if !self.order_by.is_empty() {
            parts.push(format!("ORDER({} keys)", self.order_by.len()));
        }
        if self.offset > 0 {
            parts.push(format!("OFFSET {}", self.offset));
        }
        if let Some(l) = self.limit {
            parts.push(format!("LIMIT {l}"));
        }
        if parts.is_empty() {
            parts.push("none".into());
        }
        parts.join(" ")
    }
}

/// How grouped aggregation folds its input (recorded in [`PhysicalPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Group-clustered delivery on a serial, unbudgeted pipeline: the
    /// fold runs in clustered mode, one open group at a time, no hash map.
    Ordered,
    /// Serial hash-map fold.
    Hash,
    /// Every morsel folds into a private hash map on its worker; the
    /// partials merge in morsel-index order.
    WorkerPartials,
    /// Any memory budget: the serial spill-capable fold, partitioning
    /// overflow groups to disk — from the first row when `eager` (the
    /// estimated result already exceeds the budget).
    External {
        /// [`ExecConfig::mem_budget_rows`].
        budget: usize,
        /// Spill from the first row instead of once the budget trips.
        eager: bool,
    },
}

/// How DISTINCT deduplicates (recorded in [`PhysicalPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// No DISTINCT.
    None,
    /// Hash set over the projected columns (streaming before any sort on
    /// the plain path, at the result boundary under aggregation).
    Hash,
    /// Unprojected sort keys under a real sort: the same hash dedup on the
    /// projected columns, after the sort, so each value keeps its first
    /// occurrence in `(sort keys, arrival order)`.
    SortAware,
}

/// How ORDER BY is served (recorded in [`PhysicalPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sort {
    /// No ORDER BY.
    None,
    /// Rows already arrive in final order: the delivered order satisfies
    /// the (ascending) keys. `ExecStats::sorted_rows` stays 0; a LIMIT
    /// becomes an early exit.
    Eliminated,
    /// ORDER BY + LIMIT: bounded heap of `offset + limit` rows.
    TopK,
    /// Every other ORDER BY: a blocking stable sort. On the plain path the
    /// [`crate::modifiers::Sort`] operator, an external merge sort that
    /// spills sorted runs only under a `budget`; under aggregation the
    /// in-memory sort of the group table (`budget` is `None`).
    Full {
        /// [`ExecConfig::mem_budget_rows`] on the plain path.
        budget: Option<usize>,
    },
}

/// One recorded group — a UNION branch or an OPTIONAL: its join tree, its
/// scoped FILTERs and the slots it joins on.
#[derive(Debug, Clone)]
pub struct PhysGroup<'p> {
    /// Recorded join tree.
    pub node: PhysNode,
    /// FILTERs scoped to the group.
    pub filters: &'p [Expr],
    /// Variable slots shared with the part evaluated before the group
    /// (the same for every branch of one UNION).
    pub join_vars: &'p [usize],
}

/// The recorded physical plan of one execution: every physical choice the
/// engine makes for a (prepared query, [`ExecConfig`], dataset) triple,
/// decided once by `Engine::physical_plan` and then both lowered
/// (`Engine::stream`) and printed ([`PhysicalPlan::render`]). Plain data:
/// no operators, only borrows of the prepared query's logical content.
#[derive(Debug, Clone)]
pub struct PhysicalPlan<'p> {
    /// Slot sequence the pattern part delivers its rows sorted by: the
    /// recorded BGP's (filters, OPTIONAL joins and base-side UNION joins
    /// all stream the base, so its order survives to the modifier
    /// boundary); empty for a bare UNION and while the store's id order
    /// is not value order.
    pub delivered_order: Vec<usize>,
    /// The required BGP (absent when the body is a bare UNION).
    pub bgp: Option<PhysNode>,
    /// The BGP, a bind-join spine ([`PhysNode::is_bind_spine`]), runs over
    /// morsels of its driving scan.
    pub morselized: bool,
    /// UNION groups, a [`PhysGroup`] per branch: the first is the base when
    /// there is no BGP, every other one is hash-joined (union side built)
    /// onto what precedes it.
    pub unions: Vec<Vec<PhysGroup<'p>>>,
    /// OPTIONAL groups, each a left outer join (optional side built).
    pub optionals: Vec<PhysGroup<'p>>,
    /// Top-level FILTERs, applied last.
    pub filters: &'p [Expr],
    /// Variable name per slot.
    pub var_names: &'p [String],
    /// The logical modifier stack the strategy below implements.
    pub modifiers: &'p ModifierPlan,
    /// `PlannedPattern::idx` bit set of the patterns that hold a template
    /// parameter (0 for a concrete query): measured `Cout` memoises only
    /// the messages of subtrees outside it.
    pub param_patterns: u64,
    /// `LIMIT 0`: provably empty, nothing is lowered or scanned.
    pub limit_zero: bool,
    /// Aggregation strategy (`None` = no aggregation).
    pub fold: Option<Fold>,
    /// DISTINCT strategy.
    pub dedup: Dedup,
    /// ORDER BY strategy.
    pub sort: Sort,
}

impl PhysicalPlan<'_> {
    /// Multi-line EXPLAIN rendering of exactly what `Engine::stream`
    /// lowers: the operator tree, then the modifier strategy.
    pub fn render(&self) -> String {
        self.render_with(true)
    }

    /// The plan's shape: [`PhysicalPlan::render`] without the estimates
    /// the choices were made on. Two executions that ran the same
    /// operators over the same indexes, with the same modifier strategy,
    /// have equal shapes whatever their bindings — P3's physical identity.
    pub fn shape(&self) -> String {
        self.render_with(false)
    }

    /// [`PhysicalPlan::render`], with the operators' `(est …)` annotations
    /// only when `est`.
    fn render_with(&self, est: bool) -> String {
        let mut out = format!("delivered order: {:?}\n", self.delivered_order);
        if self.limit_zero {
            out.push_str("LIMIT 0: nothing below runs\n");
        }
        if let Some(bgp) = &self.bgp {
            if self.morselized {
                out.push_str("Morsels (spine below runs per morsel of its driving scan)\n");
            }
            out.push_str(&bgp.render(usize::from(self.morselized), est));
        }
        for (i, u) in self.unions.iter().enumerate() {
            let how = if i == 0 && self.bgp.is_none() { "base" } else { "hash join, union built" };
            out.push_str(&format!("UNION #{i} ({how}, on {:?})\n", u[0].join_vars));
            for (b, branch) in u.iter().enumerate() {
                out.push_str(&format!("  branch {b} ({} filters):\n", branch.filters.len()));
                out.push_str(&branch.node.render(2, est));
            }
        }
        for (i, o) in self.optionals.iter().enumerate() {
            out.push_str(&format!(
                "OPTIONAL #{i} (left outer join on {:?}, {} filters)\n",
                o.join_vars,
                o.filters.len()
            ));
            out.push_str(&o.node.render(1, est));
        }
        if !self.filters.is_empty() {
            out.push_str(&format!("FILTER ({} expressions)\n", self.filters.len()));
        }
        let fold = match self.fold {
            None => "none".to_string(),
            Some(Fold::Ordered) => "ordered (one group at a time)".into(),
            Some(Fold::Hash) => "hash".into(),
            Some(Fold::WorkerPartials) => "worker-partials (merged in morsel order)".into(),
            Some(Fold::External { budget, eager }) => {
                format!("external (budget {budget} rows, {})", if eager { "eager" } else { "lazy" })
            }
        };
        let dedup = match self.dedup {
            Dedup::None => "none",
            Dedup::Hash => "hash",
            Dedup::SortAware => "sort-aware",
        };
        let sort = match self.sort {
            Sort::None => "none".to_string(),
            Sort::Eliminated => "eliminated (delivered order satisfies ORDER BY)".into(),
            Sort::TopK => "topk (bounded heap)".into(),
            Sort::Full { budget: None } => "full sort".into(),
            Sort::Full { budget: Some(budget) } => {
                format!("external merge sort (budget {budget} rows)")
            }
        };
        out.push_str(&format!(
            "modifiers: {} | fold: {fold} | dedup: {dedup} | sort: {sort}\n",
            self.modifiers.render()
        ));
        out
    }
}

/// Canonical structural identity of a plan: join tree shape over pattern
/// indexes. Parameter *values* do not participate, so signatures compare
/// plans across bindings of the same template — exactly the identity that
/// conditions (a)/(c) of the paper's clustering problem need.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanSignature(pub String);

impl std::fmt::Display for PlanSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(idx: usize, card: f64) -> PlanNode {
        PlanNode::Scan {
            pattern: PlannedPattern {
                idx,
                slots: [Slot::Var(0), Slot::Bound(Id(1)), Slot::Var(1)],
            },
            est_card: card,
        }
    }

    #[test]
    fn cost_gate_is_robust_near_extreme_estimates() {
        // Adding two near-MAX finite estimates saturates to +inf under IEEE
        // arithmetic — it must qualify, never wrap to something tiny.
        assert!(PlanNode::cost_qualifies(f64::MAX, f64::MAX, 4096.0));
        assert!(PlanNode::cost_qualifies(f64::MAX, 1.0, 4096.0));
        // A poisoned estimate (NaN) must not silently disqualify the plan:
        // every comparison with NaN is false, so the gate treats it as
        // qualifying rather than letting `total >= min` quietly fail.
        assert!(PlanNode::cost_qualifies(f64::NAN, 10.0, 4096.0));
        // The ordinary case still filters cheap plans out.
        assert!(!PlanNode::cost_qualifies(0.0, 0.0, 4096.0));
        assert!(PlanNode::cost_qualifies(4000.0, 96.0, 4096.0));
    }

    #[test]
    fn cout_sums_join_cards_only() {
        let plan = PlanNode::Join {
            left: Box::new(PlanNode::Join {
                left: Box::new(scan(0, 100.0)),
                right: Box::new(scan(1, 50.0)),
                join_vars: vec![0],
                est_card: 20.0,
            }),
            right: Box::new(scan(2, 10.0)),
            join_vars: vec![1],
            est_card: 5.0,
        };
        assert_eq!(plan.est_cout(), 25.0);
        assert_eq!(plan.leaf_count(), 3);
    }

    #[test]
    fn signature_ignores_bound_values_but_not_structure() {
        let a = PlanNode::Join {
            left: Box::new(scan(0, 1.0)),
            right: Box::new(scan(1, 2.0)),
            join_vars: vec![0],
            est_card: 1.0,
        };
        // Same structure, different cardinalities / bound ids inside: equal.
        let mut b = a.clone();
        if let PlanNode::Join { left, .. } = &mut b {
            if let PlanNode::Scan { pattern, est_card, .. } = left.as_mut() {
                pattern.slots[1] = Slot::Bound(Id(99));
                *est_card = 777.0;
            }
        }
        assert_eq!(a.signature(), b.signature());

        // Swapped children: different signature (different build/probe roles).
        let c = PlanNode::Join {
            left: Box::new(scan(1, 2.0)),
            right: Box::new(scan(0, 1.0)),
            join_vars: vec![0],
            est_card: 1.0,
        };
        assert_ne!(a.signature(), c.signature());
        assert_eq!(a.signature().to_string(), "HJ(S0,S1)");
    }

    #[test]
    fn var_slots_deduplicated() {
        let plan = PlanNode::Join {
            left: Box::new(scan(0, 1.0)),
            right: Box::new(scan(1, 1.0)),
            join_vars: vec![0],
            est_card: 1.0,
        };
        assert_eq!(plan.var_slots(), vec![0, 1]);
    }

    #[test]
    fn pattern_helpers() {
        let p = PlannedPattern { idx: 3, slots: [Slot::Var(2), Slot::Bound(Id(5)), Slot::Absent] };
        assert!(p.has_absent());
        assert_eq!(p.access(), [None, Some(Id(5)), None]);
        assert_eq!(p.var_slots(), vec![2]);
        let rep = PlannedPattern { idx: 0, slots: [Slot::Var(1), Slot::Var(1), Slot::Var(0)] };
        assert_eq!(rep.var_slots(), vec![1, 0]);
    }

    #[test]
    fn render_contains_structure() {
        let plan = PlanNode::Join {
            left: Box::new(scan(0, 1.0)),
            right: Box::new(scan(1, 1.0)),
            join_vars: vec![0],
            est_card: 4.0,
        };
        let text = plan.render(0);
        assert!(text.contains("Join on [0]"));
        assert!(text.contains("Scan p0"));
        assert!(text.lines().count() == 3);
    }
}
