//! Measured `Cout` by counting instead of joining.
//!
//! A plan's measured `Cout` is Σ|J| over the join nodes J of its recorded
//! BGP tree, and each |J| is the number of solutions of J's triple
//! patterns: a count, which needs no joined row. When the pattern–variable
//! incidence graph of the BGP is a forest (each pattern linked to each of
//! its distinct variables; every sub-BGP's graph is then a forest too),
//! each |J| is a sum of products of index counts, by message passing
//! toward one root pattern per connected component of J:
//!
//! * the root is the component's pattern with the fewest matches; each of
//!   its triples contributes the product, over its join variables, of the
//!   messages of the patterns hanging off that variable;
//! * a message is a function of one joining value. From a single pattern
//!   it is the exact length of one overlay-aware index probe with the
//!   value bound ([`Dataset::probe`], the range [`Dataset::count`]
//!   counts), or a scan of that range when a repeated variable leaves a
//!   residual check — until the pattern has been probed as often as it
//!   has matches: then one scan of its matches fills its table, and every
//!   later message is a lookup. From a subtree of two or more patterns it
//!   is the same sum of products over the subtree's top pattern, memoised
//!   per joining value unless the subtree holds a template parameter
//!   (`PhysicalPlan::param_patterns`), whose messages change with every
//!   binding. Both kinds of table live in the caller's [`CoutTables`],
//!   keyed by the subtree's patterns with their constants included — so a
//!   subtree that holds no parameter has one table for a whole template
//!   domain (LDBC's precomputed count tables);
//! * a disconnected J is the product of its components.
//!
//! Components of different join nodes that share their root are counted
//! in one pass: one walk from the root carries a message per component,
//! so the nested joins of a left-deep tree scan each range once, not once
//! per join. A variable repeated inside one pattern is one incidence plus
//! a residual check. A cyclic BGP, or one of more than 64 patterns, is not
//! counted: its plan runs instead.

use std::collections::HashMap;
use std::ops::Range;

use parambench_rdf::dict::Id;
use parambench_rdf::store::{Dataset, ProbeHint};

use crate::plan::{PhysNode, PlannedPattern, Slot};

/// Count tables for [`crate::Engine::measure_cout`]: the memoised messages
/// of subtrees that bindings of a template share, plus how many
/// measurements were counted and how many ran their plan.
///
/// Owned by the caller, one per run over a template's domain (or a whole
/// validation). It borrows the dataset, so the store cannot change while
/// tables built over it live. A message is memoised under its subtree's
/// patterns with their constants, so one value serves any mix of templates
/// and bindings over that dataset; it saves work when bindings of one
/// template have parameter-free subtrees that share joining values.
#[derive(Debug)]
pub struct CoutTables<'a> {
    ds: &'a Dataset,
    /// A memoised subtree's key ([`CoutTables::table`]) → its table.
    keys: HashMap<Box<[[u64; 3]]>, usize>,
    /// Per memoised subtree: its messages.
    tables: Vec<Table>,
    /// The walk being counted, in pre-order, so a node's subtree is a
    /// contiguous run starting at it.
    nodes: Vec<Node>,
    /// Child edges of `nodes`: (position of the joining variable in the
    /// parent's triple, child node).
    edges: Vec<(usize, usize)>,
    /// Memoised messages of `nodes`: (component, table).
    memos: Vec<(usize, usize)>,
    /// One probe hint per node.
    hints: Vec<ProbeHint>,
    /// Per-component message frames of the walk.
    stack: Vec<u64>,
    /// The key being looked up.
    key: Vec<[u64; 3]>,
    /// The leaf-order positions of the patterns of the measurement being
    /// counted that hold a template parameter (a bit set): a subtree
    /// holding one is not memoised, since its messages change with the
    /// binding.
    params: u64,
    /// The buffers of one measurement, kept for the next.
    scratch: Scratch,
    counted: u64,
    fallback: u64,
    lookups: u64,
    hits: u64,
}

/// The per-measurement buffers of [`CoutTables::count`], reused from one
/// measurement to the next so that a warm measurement allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The plan's leaf patterns in tree order.
    patterns: Vec<PlannedPattern>,
    /// Per join node, the range of `patterns` its subtree covers.
    joins: Vec<Range<usize>>,
    /// Each pattern's matches.
    extents: Vec<u64>,
    /// Every join's components: (join, patterns as a bit set, root).
    components: Vec<(usize, u64, usize)>,
    /// Per join node, its size.
    sizes: Vec<u64>,
    /// The components of one walk, as bit sets of patterns.
    members: Vec<u64>,
    /// Union-find parents of [`is_forest`].
    parent: Vec<usize>,
    /// Variables of [`is_forest`], in first-seen order.
    vars: Vec<usize>,
}

/// The memoised messages of one subtree, by joining value. A subtree of
/// two or more patterns holds the values met so far. A single pattern's
/// table is empty until the pattern has been probed as often as it has
/// matches; then one scan of its matches fills in every value (absent
/// ones: 0), and each later message is a lookup instead of a probe.
#[derive(Debug, Default)]
struct Table {
    messages: HashMap<Id, u64>,
    /// A single pattern's probes, until its table is filled.
    probes: u64,
    filled: bool,
}

/// One pattern of a walk, entered through its parent's joining variable
/// (the root: through none). Bit `i` of a component set stands for the
/// walk's `i`-th component.
#[derive(Debug, Clone)]
struct Node {
    /// The pattern's position in the plan's leaf order.
    pattern: usize,
    /// The pattern's slots.
    slots: [Slot; 3],
    /// The pattern's matches.
    extent: u64,
    /// The table of the pattern alone, entered as this node is (the root:
    /// none).
    leaf: Option<usize>,
    /// The positions the joining value binds.
    entry: [bool; 3],
    /// Residual checks: bit `k` set when both positions of `PAIRS[k]` hold
    /// one variable the joining value does not bind.
    residual: u8,
    /// The components holding the pattern.
    within: u64,
    /// The components in which the pattern has a child.
    inner: u64,
    /// The node's range of `CoutTables::edges`.
    children: Range<usize>,
    /// The node's range of `CoutTables::memos`.
    memos: Range<usize>,
}

/// The position pairs a residual check compares.
const PAIRS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

/// Whether `triple` passes the residual checks `residual`.
fn passes(residual: u8, triple: &[Id; 3]) -> bool {
    PAIRS.iter().enumerate().all(|(k, &(i, j))| residual >> k & 1 == 0 || triple[i] == triple[j])
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(i)
    })
}

impl<'a> CoutTables<'a> {
    /// Empty tables over `ds`.
    pub fn new(ds: &'a Dataset) -> Self {
        CoutTables {
            ds,
            keys: HashMap::new(),
            tables: Vec::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            memos: Vec::new(),
            hints: Vec::new(),
            stack: Vec::new(),
            key: Vec::new(),
            params: 0,
            scratch: Scratch::default(),
            counted: 0,
            fallback: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// The dataset the tables count over.
    pub(crate) fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Measurements answered without running an operator: counted, or a
    /// `LIMIT 0`.
    pub fn counted(&self) -> u64 {
        self.counted
    }

    /// Measurements that ran their plan's operators: a cyclic BGP, UNION,
    /// OPTIONAL or an early-stopping LIMIT.
    pub fn fallback(&self) -> u64 {
        self.fallback
    }

    /// Lookups of a memoised message of a subtree of two or more patterns.
    pub fn memo_lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found the message ([`CoutTables::memo_lookups`]).
    pub fn memo_hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn note_counted(&mut self) {
        self.counted += 1;
    }

    pub(crate) fn note_fallback(&mut self) {
        self.fallback += 1;
    }

    /// Σ|J| over the join nodes J of `root`, or `None` (nothing noted) when
    /// its patterns' incidence graph holds a cycle or they are more than
    /// 64. `params` is the `PlannedPattern::idx` bit set of the patterns
    /// holding a template parameter.
    pub(crate) fn count(&mut self, root: &PhysNode, params: u64) -> Option<u64> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let cout = self.count_in(&mut scratch, root, params);
        self.scratch = scratch;
        cout
    }

    /// [`CoutTables::count`] through the buffers `s`.
    fn count_in(&mut self, s: &mut Scratch, root: &PhysNode, params: u64) -> Option<u64> {
        s.patterns.clear();
        s.joins.clear();
        collect(root, &mut s.patterns, &mut s.joins);
        if s.patterns.len() > 64 || !is_forest(&s.patterns, &mut s.parent, &mut s.vars) {
            return None;
        }
        self.params = (s.patterns.iter().enumerate())
            .filter(|(_, p)| p.idx < 64 && params >> p.idx & 1 == 1)
            .fold(0, |m, (i, _)| m | 1 << i);
        s.extents.clear();
        s.extents.extend(s.patterns.iter().map(|p| {
            if p.has_absent() {
                0
            } else {
                self.ds.count(p.access()) as u64
            }
        }));
        s.components.clear();
        s.sizes.clear();
        s.sizes.resize(s.joins.len(), 1);
        for (j, range) in s.joins.iter().enumerate() {
            if s.patterns[range.clone()].iter().any(|p| p.has_absent()) {
                s.sizes[j] = 0;
                continue;
            }
            let mut rest = range.clone().fold(0u64, |m, p| m | 1 << p);
            while rest != 0 {
                let root =
                    bits(rest).min_by_key(|&p| (s.extents[p], p)).expect("rest is non-empty");
                let members = component(&s.patterns, root, rest);
                s.components.push((j, members, root));
                rest &= !members;
            }
        }
        // One walk per root, over every component rooted there (the two
        // components of one join have different roots, so the key is
        // unique).
        s.components.sort_unstable_by_key(|&(j, _, root)| (root, j));
        for group in s.components.chunk_by(|a, b| a.2 == b.2) {
            s.members.clear();
            s.members.extend(group.iter().map(|&(_, m, _)| m));
            let messages = self.walk(&s.patterns, &s.extents, &s.members, group[0].2);
            for (&(j, _, _), m) in group.iter().zip(messages) {
                s.sizes[j] = s.sizes[j].saturating_mul(*m);
            }
        }
        self.note_counted();
        Some(s.sizes.iter().fold(0u64, |a, &b| a.saturating_add(b)))
    }

    /// The counts of the components `members` (bit sets of patterns),
    /// which share their root `root`: one walk from the root over all of
    /// them.
    fn walk(
        &mut self,
        patterns: &[PlannedPattern],
        extents: &[u64],
        members: &[u64],
        root: usize,
    ) -> &[u64] {
        self.nodes.clear();
        self.edges.clear();
        self.memos.clear();
        self.stack.clear();
        let node = self.plan((patterns, extents), members, root, None);
        self.hints.resize(self.nodes.len(), ProbeHint::default());
        self.stack.resize(members.len(), 0);
        self.weight(node, None, u64::MAX >> (64 - members.len()), 0);
        &self.stack[..members.len()]
    }

    /// Appends the walk below `patterns[pat]` (`extents`: each pattern's
    /// matches), entered through variable `entry`, over the components
    /// `members` (each a bit set of patterns); returns its node.
    fn plan(
        &mut self,
        (patterns, extents): (&[PlannedPattern], &[u64]),
        members: &[u64],
        pat: usize,
        entry: Option<usize>,
    ) -> usize {
        let slots = patterns[pat].slots;
        let is_entry = |s: Slot| entry.is_some() && s.as_var() == entry;
        let residual = PAIRS.iter().enumerate().fold(0u8, |bits, (k, &(i, j))| {
            let repeated = slots[i].as_var().is_some() && slots[i] == slots[j];
            bits | (u8::from(repeated && !is_entry(slots[i])) << k)
        });
        let union = members.iter().fold(0u64, |u, m| u | m);
        let start = self.edges.len();
        for (pos, w) in distinct_vars(&slots) {
            if Some(w) == entry {
                continue;
            }
            for q in bits(union) {
                if q != pat && patterns[q].slots.iter().any(|s| s.as_var() == Some(w)) {
                    self.edges.push((pos, q));
                }
            }
        }
        let children = start..self.edges.len();
        let node = self.nodes.len();
        let within = members.iter().enumerate().fold(0u64, |w, (i, m)| w | (m >> pat & 1) << i);
        self.nodes.push(Node {
            pattern: pat,
            slots,
            extent: extents[pat],
            leaf: None,
            entry: slots.map(is_entry),
            residual,
            within,
            inner: 0,
            children: children.clone(),
            memos: 0..0,
        });
        let mut inner = 0;
        for e in children {
            let (pos, q) = self.edges[e];
            let child = self.plan((patterns, extents), members, q, slots[pos].as_var());
            self.edges[e].1 = child;
            inner |= self.nodes[child].within;
        }
        // A message is memoised where the component's subtree below this
        // node holds two or more patterns, none of them a parameter's; the
        // pattern alone has its table.
        let start = self.memos.len();
        if let Some(v) = entry {
            let subtree = self.nodes[node..].iter().fold(0u64, |m, n| m | 1 << n.pattern);
            let params = self.params;
            for i in bits(inner).filter(|&i| subtree & members[i] & params == 0) {
                let table = self.table(v, node, members[i]);
                self.memos.push((i, table));
            }
            self.nodes[node].leaf = Some(self.table(v, node, 1 << pat));
        }
        self.nodes[node].inner = inner;
        self.nodes[node].memos = start..self.memos.len();
        node
    }

    /// The table of the subtree from `node` to the end of `nodes`, cut to
    /// the patterns in `members`, entered through variable `entry`;
    /// created empty if new. Its key is the patterns' slots, sorted, then
    /// the entry variable. The subtree meets the rest of its component
    /// only at `entry`, so equal keys are equal message functions whatever
    /// query or binding they come from.
    fn table(&mut self, entry: usize, node: usize, members: u64) -> usize {
        let code = |s: &Slot| match *s {
            Slot::Bound(id) => u64::from(id.0) << 2,
            Slot::Var(v) => (v as u64) << 2 | 1,
            Slot::Absent => 2,
        };
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(
            self.nodes[node..]
                .iter()
                .filter(|n| members >> n.pattern & 1 == 1)
                .map(|n| [0, 1, 2].map(|i| code(&n.slots[i]))),
        );
        key.sort_unstable();
        key.push([entry as u64, 0, 0]);
        let table = match self.keys.get(key.as_slice()) {
            Some(&table) => table,
            None => {
                self.keys.insert(key.as_slice().into(), self.tables.len());
                self.tables.push(Table::default());
                self.tables.len() - 1
            }
        };
        self.key = key;
        table
    }

    /// Writes to `stack[out + i]`, for every component `i` in `want`, the
    /// message of `node`'s subtree in that component for joining value
    /// `value` (the root: none) — the sum, over the pattern's triples with
    /// `value` bound that pass its residual checks, of the product of its
    /// children's messages in the component. `stack[out..]` is the top
    /// frame, one slot per component of the walk; the children's frames
    /// are pushed above it and popped before returning.
    fn weight(&mut self, node: usize, value: Option<Id>, want: u64, out: usize) {
        let Node { slots, entry, residual, inner, leaf, ref children, ref memos, .. } =
            self.nodes[node];
        let (children, memos) = (children.clone(), memos.clone());
        let mut need = want;
        if let Some(x) = value {
            for &(i, t) in &self.memos[memos.clone()] {
                if need >> i & 1 == 0 {
                    continue;
                }
                self.lookups += 1;
                if let Some(&m) = self.tables[t].messages.get(&x) {
                    self.hits += 1;
                    self.stack[out + i] = m;
                    need &= !(1 << i);
                }
            }
        }
        // The components where the pattern is a leaf share one message.
        let leafy = need & !inner;
        let filled = leaf.zip(value).filter(|_| leafy != 0);
        if let Some(m) = filled.and_then(|(t, x)| self.leaf_message(node, t, x)) {
            for i in bits(leafy) {
                self.stack[out + i] = m;
            }
            need &= inner;
        }
        if need == 0 {
            return;
        }
        let mut access = slots.map(|s| s.as_bound());
        if let Some(x) = value {
            for (slot, bound) in access.iter_mut().zip(entry) {
                if bound {
                    *slot = Some(x);
                }
            }
        }
        let ds = self.ds;
        let probe = ds.probe(access, &mut self.hints[node]);
        let computed = need;
        if residual == 0 {
            // Components where the pattern is a leaf: the probe's length.
            for i in bits(need & !inner) {
                self.stack[out + i] = probe.len() as u64;
            }
            need &= inner;
        }
        if need != 0 {
            for i in bits(need) {
                self.stack[out + i] = 0;
            }
            let (k, product) = (self.stack.len() - out, self.stack.len());
            self.stack.resize(product + 2 * k, 0);
            let frame = product + k;
            for triple in probe {
                if !passes(residual, &triple) {
                    continue;
                }
                let mut live = need;
                for i in bits(need) {
                    self.stack[product + i] = 1;
                }
                for e in children.clone() {
                    let (pos, child) = self.edges[e];
                    let asked = live & self.nodes[child].within;
                    if asked == 0 {
                        continue;
                    }
                    self.weight(child, Some(triple[pos]), asked, frame);
                    for i in bits(asked) {
                        let m = self.stack[product + i].saturating_mul(self.stack[frame + i]);
                        self.stack[product + i] = m;
                        if m == 0 {
                            live &= !(1 << i);
                        }
                    }
                    if live == 0 {
                        break;
                    }
                }
                for i in bits(live) {
                    self.stack[out + i] =
                        self.stack[out + i].saturating_add(self.stack[product + i]);
                }
            }
            self.stack.truncate(product);
        }
        if let Some(x) = value {
            for &(i, t) in &self.memos[memos] {
                if computed >> i & 1 == 1 {
                    self.tables[t].messages.insert(x, self.stack[out + i]);
                }
            }
        }
    }

    /// The message of `node`'s pattern alone for joining value `value`,
    /// from its table `t` once that is filled; `None` while probing is
    /// still cheaper. The table fills when the pattern has been probed as
    /// often as it has matches: one scan of its matches then costs no more
    /// than the probes already made, and every later message is a lookup.
    fn leaf_message(&mut self, node: usize, t: usize, value: Id) -> Option<u64> {
        let (n, table) = (&self.nodes[node], &mut self.tables[t]);
        if !table.filled {
            table.probes += 1;
            if table.probes < n.extent {
                return None;
            }
            let first = n.entry.iter().position(|&e| e).expect("a child has an entry position");
            for triple in self.ds.scan(n.slots.map(|s| s.as_bound())) {
                let v = triple[first];
                let entered = (0..3).all(|i| !n.entry[i] || triple[i] == v);
                if entered && passes(n.residual, &triple) {
                    *table.messages.entry(v).or_default() += 1;
                }
            }
            table.filled = true;
        }
        Some(table.messages.get(&value).copied().unwrap_or(0))
    }
}

/// The leaf patterns of `node` in tree order into `patterns`, and, per join
/// node, the range of `patterns` its subtree covers into `joins`.
fn collect(node: &PhysNode, patterns: &mut Vec<PlannedPattern>, joins: &mut Vec<Range<usize>>) {
    match node {
        PhysNode::Scan { pattern, .. } => patterns.push(pattern.clone()),
        PhysNode::Join { left, right, .. } => {
            let start = patterns.len();
            collect(left, patterns, joins);
            collect(right, patterns, joins);
            joins.push(start..patterns.len());
        }
    }
}

/// Each distinct variable of `slots` with its first position.
fn distinct_vars(slots: &[Slot; 3]) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..3).filter_map(move |i| {
        let v = slots[i].as_var()?;
        (!slots[..i].contains(&slots[i])).then_some((i, v))
    })
}

/// The patterns of `within` (a bit set) connected to `root` through shared
/// variables, as a bit set.
fn component(patterns: &[PlannedPattern], root: usize, within: u64) -> u64 {
    let mut found = 1u64 << root;
    let mut frontier = found;
    while let Some(p) = bits(frontier).next() {
        frontier &= !(1 << p);
        for (_, v) in distinct_vars(&patterns[p].slots) {
            for q in bits(within & !found) {
                if patterns[q].slots.iter().any(|s| s.as_var() == Some(v)) {
                    found |= 1 << q;
                    frontier |= 1 << q;
                }
            }
        }
    }
    found
}

/// Whether the pattern–variable incidence graph of `patterns` is a forest
/// (`parent` and `vars`: buffers).
fn is_forest(patterns: &[PlannedPattern], parent: &mut Vec<usize>, vars: &mut Vec<usize>) -> bool {
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Union-find over the patterns, then the variables in first-seen order.
    parent.clear();
    parent.extend(0..patterns.len());
    vars.clear();
    for (p, pattern) in patterns.iter().enumerate() {
        for (_, v) in distinct_vars(&pattern.slots) {
            let node = match vars.iter().position(|&w| w == v) {
                Some(i) => patterns.len() + i,
                None => {
                    vars.push(v);
                    parent.push(parent.len());
                    parent.len() - 1
                }
            };
            let (a, b) = (root(parent, p), root(parent, node));
            if a == b {
                return false;
            }
            parent[a] = b;
        }
    }
    true
}
