//! Streaming solution-modifier operators for the batched Volcano pipeline:
//! the solution modifiers run inside the physical layer, not in the result
//! layer after full materialization. The plain (non-aggregate) epilogue is
//! one stack of them — project → [`Distinct`] → [`TopK`] or [`Sort`] →
//! [`Distinct`] → [`Slice`] — with each stage present only where the
//! recorded plan says so.
//!
//! * [`Distinct`] — hash-set deduplication on the projected columns over
//!   raw `Id` rows, before any dictionary decode;
//! * [`Slice`] — OFFSET/LIMIT with **early termination**: once the limit is
//!   satisfied it stops pulling upstream batches, so scans and joins above
//!   it simply never run their remaining work;
//! * [`TopK`] — ORDER BY + LIMIT as a bounded max-heap of the best
//!   `offset + limit` rows, with per-row sort keys
//!   ([`crate::results::SortAtom`]) computed **once** on arrival instead of
//!   decoded on every comparison;
//! * [`Sort`] — every other ORDER BY: a blocking stable sort over the
//!   external merge sort ([`crate::spill::ExternalSorter`]), which spills
//!   sorted runs only under a memory budget;
//! * [`GroupFold`] — streaming GROUP BY/aggregation, through a hash map or,
//!   over group-clustered input, one open group at a time: only the groups,
//!   never the (potentially huge) join input, are ever resident.
//!
//! Tie-breaking is pinned everywhere: rows are ordered by their sort keys,
//! then by pipeline arrival order, which makes [`TopK`] and [`Sort`] output
//! identical to a stable full sort (followed by `skip/take`) — the
//! property the differential suites rely on.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::PathBuf;

use parambench_rdf::dict::Id;
use parambench_rdf::store::Dataset;

use crate::error::ExecError;
use crate::exec::{ExecStats, UNBOUND};
use crate::physical::{Batch, BoxedOperator, Operator};
use crate::plan::{AggregatePlan, ModifierPlan, SlotExpr, TableColSource};
use crate::results::{cmp_atoms, group_row, SolVal, SortAtom};
use crate::spill::{ExternalSorter, SortedRows};

// ---------------------------------------------------------------------------
// RowKeys (shared precomputed-sort-key layout)
// ---------------------------------------------------------------------------

/// One resolved ORDER BY key over the pipeline schema: a column read or a
/// per-row evaluated expression.
pub(crate) enum KeyCol {
    /// Read pipeline column directly.
    Col(usize),
    /// Evaluate a slot expression over the row.
    Expr(SlotExpr),
}

/// The ORDER BY keys of one pipeline, resolved against its schema once —
/// shared by TopK and the external merge sort behind [`Sort`] so their key
/// layout (columns, expressions, directions) can never diverge.
/// Key atoms are resolved once per row; comparisons never touch the
/// dictionary again.
pub(crate) struct RowKeys<'a> {
    ds: &'a Dataset,
    /// Pipeline schema (variable slot per column) for expression keys.
    schema: Vec<usize>,
    keys: Vec<(KeyCol, bool)>,
}

impl<'a> RowKeys<'a> {
    /// Resolves `m`'s ORDER BY table columns against a pipeline `schema`.
    pub fn resolve(m: &ModifierPlan, schema: &[usize], ds: &'a Dataset) -> RowKeys<'a> {
        let keys = m
            .order_by
            .iter()
            .map(|&(table_col, desc)| {
                let col = match m.table[table_col].source {
                    TableColSource::Slot(s) => KeyCol::Col(
                        schema.iter().position(|&v| v == s).expect("order slot in pipeline schema"),
                    ),
                    TableColSource::Expr(i) => KeyCol::Expr(m.order_exprs[i].clone()),
                    TableColSource::Agg(_) => {
                        unreachable!("aggregate column on the plain path")
                    }
                };
                (col, desc)
            })
            .collect();
        RowKeys { ds, schema: schema.to_vec(), keys }
    }

    /// Plain column keys over an explicit dataset — the unit-test
    /// constructor ((column, descending) pairs).
    #[cfg(test)]
    pub fn cols(ds: &'a Dataset, keys: Vec<(usize, bool)>) -> RowKeys<'a> {
        RowKeys {
            ds,
            schema: Vec::new(),
            keys: keys.into_iter().map(|(c, d)| (KeyCol::Col(c), d)).collect(),
        }
    }

    /// Per-key descending flags.
    pub fn descs(&self) -> Vec<bool> {
        self.keys.iter().map(|&(_, d)| d).collect()
    }

    /// Resolves one row's key atoms (dictionary touched here, never in
    /// comparisons).
    pub fn atoms(&self, row: &[Id]) -> Vec<SortAtom<'a>> {
        self.keys
            .iter()
            .map(|(k, _)| match k {
                KeyCol::Col(c) => SortAtom::of_id(row[*c], self.ds),
                KeyCol::Expr(e) => SortAtom::of_value(&e.eval(row, &self.schema, self.ds), self.ds),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

/// Streams only the first occurrence of each dedup tuple — the values of
/// a column subset, compared as raw `Id`s before any decode — through a
/// hash set of the tuples seen. The engine dedups on the projected
/// columns while helper sort columns ride along: before the sort, or
/// after it when unprojected sort keys must pick each value's
/// representative.
///
/// Retained state is counted into [`ExecStats::peak_tuples`] alongside the
/// emitted copy; rows already emitted flow on unchanged.
pub struct Distinct<'a> {
    child: BoxedOperator<'a>,
    /// Child columns forming the dedup tuple.
    cols: Vec<usize>,
    seen: HashSet<Vec<Id>>,
}

impl<'a> Distinct<'a> {
    /// Wraps `child`, deduplicating on the given child columns (first
    /// arrival's full row survives).
    pub fn on_cols(child: BoxedOperator<'a>, cols: Vec<usize>) -> Self {
        Distinct { child, cols, seen: HashSet::new() }
    }
}

impl Operator for Distinct<'_> {
    fn schema(&self) -> &[usize] {
        self.child.schema()
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let width = self.child.schema().len();
        let mut row_buf = vec![UNBOUND; width];
        // Scratch dedup tuple, reused per row: duplicates (the common case
        // this operator exists for) pay no allocation; only rows actually
        // retained clone it.
        let mut tuple: Vec<Id> = Vec::with_capacity(self.cols.len());
        while let Some(batch) = self.child.next_batch(stats)? {
            let mut out = Batch::with_schema(batch.schema().to_vec());
            for r in 0..batch.len() {
                batch.read_row(r, &mut row_buf);
                tuple.clear();
                tuple.extend(self.cols.iter().map(|&c| row_buf[c]));
                // contains-then-insert keeps the miss path cheap.
                if !self.seen.contains(tuple.as_slice()) {
                    self.seen.insert(tuple.clone());
                    out.push_row(&row_buf);
                }
            }
            stats.shrink(batch.len());
            if !out.is_empty() {
                // One tuple stays retained per emitted row for the rest of
                // the query.
                stats.grow(2 * out.len());
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Slice (OFFSET / LIMIT with early exit)
// ---------------------------------------------------------------------------

/// OFFSET/LIMIT over the stream. Once `limit` rows have been emitted the
/// operator is done and **never pulls its child again** — the "done" signal
/// the pull model gives for free: upstream scans and joins simply stop
/// producing, which is what makes LIMIT-bearing queries cheap.
pub struct Slice<'a> {
    child: BoxedOperator<'a>,
    skip: usize,
    /// Rows still to emit; `None` = unlimited.
    take: Option<usize>,
    done: bool,
}

impl<'a> Slice<'a> {
    /// Wraps `child`, skipping `offset` rows and emitting at most `limit`.
    pub fn new(child: BoxedOperator<'a>, offset: usize, limit: Option<usize>) -> Self {
        Slice { child, skip: offset, take: limit, done: limit == Some(0) }
    }
}

impl Operator for Slice<'_> {
    fn schema(&self) -> &[usize] {
        self.child.schema()
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if self.done {
            return Ok(None);
        }
        let width = self.child.schema().len();
        let mut row_buf = vec![UNBOUND; width];
        loop {
            let Some(batch) = self.child.next_batch(stats)? else {
                self.done = true;
                return Ok(None);
            };
            let total = batch.len();
            let drop_front = self.skip.min(total);
            self.skip -= drop_front;
            let available = total - drop_front;
            let emit = match self.take {
                Some(t) => t.min(available),
                None => available,
            };
            if let Some(t) = &mut self.take {
                *t -= emit;
                if *t == 0 {
                    self.done = true;
                }
            }
            stats.shrink(total);
            if emit == 0 {
                if self.done {
                    return Ok(None);
                }
                continue;
            }
            let mut out = Batch::with_schema(batch.schema().to_vec());
            for r in drop_front..drop_front + emit {
                batch.read_row(r, &mut row_buf);
                out.push_row(&row_buf);
            }
            stats.grow(out.len());
            return Ok(Some(out));
        }
    }
}

// ---------------------------------------------------------------------------
// TopK (ORDER BY + LIMIT as a bounded heap)
// ---------------------------------------------------------------------------

/// One sort-key atom with its sort direction baked in, so heap ordering
/// needs no side-table of directions. Atoms of the same key position always
/// carry the same variant.
enum KeyAtom<'a> {
    Asc(SortAtom<'a>),
    Desc(SortAtom<'a>),
}

impl KeyAtom<'_> {
    fn cmp_atom(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (KeyAtom::Asc(a), KeyAtom::Asc(b)) => cmp_atoms(a, b),
            (KeyAtom::Desc(a), KeyAtom::Desc(b)) => cmp_atoms(b, a),
            // Mixed variants cannot occur: keys compare position-wise.
            _ => std::cmp::Ordering::Equal,
        }
    }
}

/// A buffered row: sort key, arrival sequence (tie-break), then payload.
struct HeapRow<'a> {
    key: Vec<KeyAtom<'a>>,
    seq: u64,
    row: Vec<Id>,
}

impl HeapRow<'_> {
    fn cmp_row(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.key.iter().zip(&other.key) {
            let ord = a.cmp_atom(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.seq.cmp(&other.seq)
    }
}

impl PartialEq for HeapRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_row(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapRow<'_> {}
impl PartialOrd for HeapRow<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRow<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_row(other)
    }
}

/// ORDER BY paired with LIMIT: keeps the best `offset + limit` rows in a
/// bounded max-heap (the heap top is the current *worst* kept row, popped
/// whenever a better row arrives), then emits the survivors past `offset`
/// in final sorted order. Peak resident rows: `offset + limit`, not the
/// full input — the memory win `ExecStats::peak_tuples` records.
///
/// Sort keys are resolved once per arriving row (numeric value or decoded
/// term reference); comparisons never touch the dictionary again.
pub struct TopK<'a> {
    child: BoxedOperator<'a>,
    /// Resolved ORDER BY keys (columns, expressions, directions).
    keys: RowKeys<'a>,
    offset: usize,
    /// Heap capacity: `offset + limit`.
    k: usize,
    heap: BinaryHeap<HeapRow<'a>>,
    /// Sorted survivors, filled when the input is exhausted.
    emit: Option<std::vec::IntoIter<Vec<Id>>>,
    seq: u64,
    schema: Vec<usize>,
}

impl<'a> TopK<'a> {
    /// Wraps `child`, keeping the best `offset + limit` rows under `keys`
    /// and emitting those past `offset`.
    pub(crate) fn new(
        child: BoxedOperator<'a>,
        keys: RowKeys<'a>,
        offset: usize,
        limit: usize,
    ) -> Self {
        let schema = child.schema().to_vec();
        let k = offset.saturating_add(limit);
        TopK { child, keys, offset, k, heap: BinaryHeap::new(), emit: None, seq: 0, schema }
    }

    fn make_key(&self, row: &[Id]) -> Vec<KeyAtom<'a>> {
        self.keys
            .atoms(row)
            .into_iter()
            .zip(self.keys.descs())
            .map(|(atom, desc)| if desc { KeyAtom::Desc(atom) } else { KeyAtom::Asc(atom) })
            .collect()
    }
}

impl Operator for TopK<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if self.emit.is_none() {
            let width = self.schema.len();
            let mut row_buf = vec![UNBOUND; width];
            if self.k > 0 {
                while let Some(batch) = self.child.next_batch(stats)? {
                    stats.sorted_rows += batch.len() as u64;
                    for r in 0..batch.len() {
                        batch.read_row(r, &mut row_buf);
                        let key = self.make_key(&row_buf);
                        let seq = self.seq;
                        self.seq += 1;
                        if self.heap.len() < self.k {
                            self.heap.push(HeapRow { key, seq, row: row_buf.clone() });
                            stats.grow(1);
                            continue;
                        }
                        // At capacity: admit only rows that beat the worst
                        // kept row *on keys* — an equal key always loses
                        // (the kept row arrived earlier), so the row
                        // payload is cloned only for actual insertions.
                        let worst = self.heap.peek().expect("heap at capacity is non-empty");
                        let beats = key
                            .iter()
                            .zip(&worst.key)
                            .map(|(a, b)| a.cmp_atom(b))
                            .find(|o| *o != std::cmp::Ordering::Equal)
                            == Some(std::cmp::Ordering::Less);
                        if beats {
                            self.heap.pop();
                            self.heap.push(HeapRow { key, seq, row: row_buf.clone() });
                        }
                    }
                    stats.shrink(batch.len());
                }
            }
            let sorted: Vec<Vec<Id>> = std::mem::take(&mut self.heap)
                .into_sorted_vec()
                .into_iter()
                .map(|h| h.row)
                .collect();
            let skipped = self.offset.min(sorted.len());
            let past_offset: Vec<Vec<Id>> = sorted.into_iter().skip(self.offset).collect();
            stats.shrink(skipped);
            self.emit = Some(past_offset.into_iter());
        }
        let emit = self.emit.as_mut().expect("filled above");
        let mut out = Batch::with_schema(self.schema.clone());
        while !out.is_full() {
            match emit.next() {
                // Accounting transfer: rows were grown on heap insertion
                // and stay resident until the pipeline finishes.
                Some(row) => out.push_row(&row),
                None => break,
            }
        }
        if out.is_empty() {
            return Ok(None);
        }
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Sort (ORDER BY without a usable LIMIT)
// ---------------------------------------------------------------------------

/// Effective comparison of two precomputed key vectors under per-key sort
/// directions, ties broken by row sequence — the total order every sort
/// path of the engine (the group-table sort, TopK, the external merge)
/// agrees on.
pub(crate) fn cmp_keyed(
    a_key: &[SortAtom<'_>],
    a_seq: u64,
    b_key: &[SortAtom<'_>],
    b_seq: u64,
    descs: &[bool],
) -> std::cmp::Ordering {
    for (i, &desc) in descs.iter().enumerate() {
        let ord = cmp_atoms(&a_key[i], &b_key[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a_seq.cmp(&b_seq)
}

/// ORDER BY that neither a delivered order nor a bounded heap serves: a
/// blocking stable sort under `(sort keys, arrival order)`. The first pull
/// drains the child into an [`ExternalSorter`] — in memory without a
/// budget, spilling a sorted run whenever `budget` rows are buffered —
/// and every pull then emits the next [`crate::physical::BATCH_SIZE`]
/// rows in sorted order.
pub struct Sort<'a> {
    child: BoxedOperator<'a>,
    /// The sorter the child drains into, until the first pull.
    sorter: Option<ExternalSorter<'a>>,
    /// The sorted rows, from the first pull on.
    sorted: Option<SortedRows<'a>>,
}

impl<'a> Sort<'a> {
    /// Wraps `child`, sorting its rows under `keys`; with a `budget`, run
    /// files go to a fresh [`crate::spill::SpillSpace`] under `spill_base`
    /// (`None`: the system temp dir).
    pub(crate) fn new(
        child: BoxedOperator<'a>,
        keys: RowKeys<'a>,
        budget: Option<usize>,
        spill_base: Option<PathBuf>,
    ) -> Self {
        let width = child.schema().len();
        let sorter = ExternalSorter::new(keys, width, budget.unwrap_or(usize::MAX), spill_base);
        Sort { child, sorter: Some(sorter), sorted: None }
    }
}

impl Operator for Sort<'_> {
    fn schema(&self) -> &[usize] {
        self.child.schema()
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if let Some(mut sorter) = self.sorter.take() {
            let mut row = vec![UNBOUND; self.child.schema().len()];
            while let Some(batch) = self.child.next_batch(stats)? {
                for r in 0..batch.len() {
                    batch.read_row(r, &mut row);
                    sorter.push_row(&row, stats)?;
                }
                stats.shrink(batch.len());
            }
            self.sorted = Some(sorter.finish(stats)?);
        }
        // A failed drain leaves nothing to emit; the pipeline is not
        // pulled again after an `Err`.
        let Some(sorted) = self.sorted.as_mut() else {
            return Ok(None);
        };
        let mut out = Batch::with_schema(self.child.schema().to_vec());
        while !out.is_full() {
            match sorted.next_row()? {
                Some(row) => out.push_row(&row),
                None => break,
            }
        }
        if out.is_empty() {
            return Ok(None);
        }
        // In-memory rows were registered on arrival and move into the
        // batch as they are; rows merged back from disk register here.
        if matches!(sorted, SortedRows::Merge(_)) {
            stats.grow(out.len());
        }
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// GroupFold (streaming GROUP BY / aggregation)
// ---------------------------------------------------------------------------

/// Per-group accumulator of one aggregate projection.
#[derive(Debug, Clone)]
pub(crate) struct AggState {
    /// Bound input values folded (after DISTINCT filtering).
    pub count: u64,
    /// Of those, how many had a numeric interpretation.
    pub num_count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Ids already folded, for `FUNC(DISTINCT ?x)`.
    seen: HashSet<u32>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            num_count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            seen: HashSet::new(),
        }
    }

    /// Folds one bound input value — the one accumulate step of the row
    /// fold and of [`GroupFold::merge`]'s DISTINCT re-fold, so float
    /// results cannot drift between them. False when a DISTINCT aggregate
    /// has already folded `id`; true otherwise, and then a DISTINCT
    /// aggregate retains `id`.
    fn fold(&mut self, id: Id, distinct: bool, ds: &Dataset) -> bool {
        if distinct && !self.seen.insert(id.0) {
            return false;
        }
        self.count += 1;
        if let Some(n) = ds.dict().numeric(id) {
            self.num_count += 1;
            self.sum += n;
            self.min = self.min.min(n);
            self.max = self.max.max(n);
        }
        true
    }
}

/// Streaming GROUP BY fold: rows are folded into per-group `AggState`s
/// as they arrive, so only the groups — never the grouped input — are ever
/// resident. Groups are kept in first-seen order (the pipeline's row
/// order), which pins the pre-sort output order.
///
/// A fold runs in one of two modes. In hash mode a row finds its group
/// through a hash map over the group keys. In clustered mode the input
/// delivers each group's rows contiguously (the group slots are a prefix
/// of the delivered order), so a row joins the last group when its key
/// equals that group's key and no map exists; a key change closes the
/// last group, whose DISTINCT id sets are dropped then, not at the end.
/// Both modes fold every row in the same sequence, so their tables are
/// bit-identical, floats included.
///
/// Aggregation subset semantics (shared by the oracle in the test suite):
/// COUNT counts bound values; SUM adds the numeric values and is 0 when
/// none exist; AVG divides by the *numeric* count and is unbound for a
/// group without numeric values; MIN/MAX fold numeric values only and are
/// unbound for a group without any.
pub struct GroupFold<'a> {
    ds: &'a Dataset,
    /// Input column per group key.
    group_cols: Vec<usize>,
    /// Input column per aggregate (`None` = COUNT(*)), plus DISTINCT flag.
    spec_cols: Vec<(Option<usize>, bool)>,
    /// Group index per key in hash mode; `None` in clustered mode.
    groups: Option<HashMap<Vec<Id>, usize>>,
    /// Group keys in first-seen order.
    order: Vec<Vec<Id>>,
    states: Vec<Vec<AggState>>,
    /// Per group: the sequence number of the row that created it (the
    /// group's *birth*). Serial folds assign sequence numbers internally
    /// (so birth = first-seen pipeline row index); the out-of-core fold
    /// ([`crate::spill::ExternalGroupFold`]) passes explicit global
    /// sequence numbers through [`GroupFold::add_row_at`] and later sorts
    /// re-folded spill partitions back into global first-seen order by
    /// birth. Morsel-local folds never read births (their merge order
    /// already pins the group order).
    births: Vec<u64>,
    /// Next internal row sequence number (used when the caller does not
    /// provide one).
    next_seq: u64,
    /// Resident accumulator entries registered with `ExecStats` so far
    /// (one per group row, one per retained DISTINCT input id): the fold's
    /// memory is counted *while* input batches are still live, not after.
    resident: usize,
    /// The group key of the row being looked up, refilled in place so a
    /// row of an existing group allocates nothing.
    key: Vec<Id>,
}

impl<'a> GroupFold<'a> {
    /// A fold of rows with slot list `schema` (a batch schema or a
    /// bindings column list), in clustered mode when `clustered`: only
    /// when the input delivers each group's rows contiguously.
    pub fn new(agg: &AggregatePlan, schema: &[usize], ds: &'a Dataset, clustered: bool) -> Self {
        let col_of = |slot: usize| {
            schema.iter().position(|&v| v == slot).expect("modifier slot in pipeline schema")
        };
        GroupFold {
            ds,
            group_cols: agg.group_slots.iter().map(|&s| col_of(s)).collect(),
            spec_cols: agg
                .specs
                .iter()
                .map(|spec| (spec.slot.map(col_of), spec.distinct))
                .collect(),
            groups: (!clustered).then(HashMap::new),
            order: Vec::new(),
            states: Vec::new(),
            births: Vec::new(),
            next_seq: 0,
            resident: 0,
            key: Vec::with_capacity(agg.group_slots.len()),
        }
    }

    /// Folds one row into its group's accumulators, registering newly
    /// retained state (group rows, DISTINCT input ids) with `stats` so
    /// `peak_tuples` sees the fold's memory concurrently with the live
    /// input batch.
    pub fn add_row(&mut self, row: &[Id], stats: &mut ExecStats) {
        let seq = self.next_seq;
        self.add_row_at(row, seq, stats);
    }

    /// The group key of `row` (group-column values, in GROUP BY order), in
    /// a buffer the next call overwrites.
    pub(crate) fn key_of(&mut self, row: &[Id]) -> &[Id] {
        self.key.clear();
        self.key.extend(self.group_cols.iter().map(|&c| row[c]));
        &self.key
    }

    /// The accumulator index of `row`'s group, if the fold holds one. In
    /// clustered mode only the last group can match.
    pub(crate) fn group_of(&mut self, row: &[Id]) -> Option<usize> {
        if self.groups.is_none() {
            let last = self.order.last()?;
            let same = self.group_cols.iter().zip(last).all(|(&c, &k)| row[c] == k);
            return same.then(|| self.order.len() - 1);
        }
        self.key_of(row);
        self.groups.as_ref().and_then(|groups| groups.get(self.key.as_slice()).copied())
    }

    /// Opens the group of `row`, born at `seq`. In clustered mode the last
    /// group closes first: its DISTINCT id sets are dropped and released.
    fn open(&mut self, row: &[Id], seq: u64, stats: &mut ExecStats) -> usize {
        if self.groups.is_none() {
            if let Some(states) = self.states.last_mut() {
                let released: usize =
                    states.iter_mut().map(|s| std::mem::take(&mut s.seen).len()).sum();
                stats.shrink(released);
                self.resident -= released;
            }
        }
        let gi = self.order.len();
        let key: Vec<Id> = self.group_cols.iter().map(|&c| row[c]).collect();
        if let Some(groups) = &mut self.groups {
            groups.insert(key.clone(), gi);
        }
        self.order.push(key);
        self.states.push(vec![AggState::new(); self.spec_cols.len()]);
        self.births.push(seq);
        stats.grow(1);
        self.resident += 1;
        gi
    }

    /// [`GroupFold::add_row`] with an explicit row sequence number — used
    /// by the out-of-core fold, which re-folds spilled rows with their
    /// original global sequence so group births stay comparable across
    /// spill partitions.
    pub(crate) fn add_row_at(&mut self, row: &[Id], seq: u64, stats: &mut ExecStats) {
        self.next_seq = seq + 1;
        let gi = match self.group_of(row) {
            Some(gi) => gi,
            None => self.open(row, seq, stats),
        };
        for (&(col, distinct), state) in self.spec_cols.iter().zip(&mut self.states[gi]) {
            match col {
                None => state.count += 1, // COUNT(*)
                Some(c) => {
                    let id = row[c];
                    if id != UNBOUND && state.fold(id, distinct, self.ds) && distinct {
                        stats.grow(1);
                        self.resident += 1;
                    }
                }
            }
        }
    }

    /// Merges a partial fold into `self` — the gather step of parallel
    /// aggregation, where each morsel folded its rows into a private
    /// accumulator. Partials MUST be merged in morsel-index order: group
    /// first-seen order across the merged sequence then equals the serial
    /// fold's pipeline row order, which pins the pre-sort output order.
    /// (The accumulators are morsel-local rather than thread-local for
    /// exactly this reason — thread-local arrival order would race.)
    ///
    /// Collapsed duplicate state (group rows and DISTINCT input ids both
    /// sides retained) is released from `stats`. DISTINCT aggregates are
    /// re-folded id-by-id over the incoming `seen` set (in sorted-id order
    /// for a deterministic float fold), so cross-morsel duplicates are
    /// counted once, exactly like the serial fold.
    pub(crate) fn merge(&mut self, other: GroupFold<'a>, stats: &mut ExecStats) {
        debug_assert_eq!(self.group_cols, other.group_cols);
        debug_assert_eq!(self.spec_cols.len(), other.spec_cols.len());
        let groups = self.groups.as_mut().expect("partial folds run in hash mode");
        self.resident += other.resident;
        for ((key, src_states), src_birth) in
            other.order.into_iter().zip(other.states).zip(other.births)
        {
            match groups.get(&key) {
                None => {
                    groups.insert(key.clone(), self.order.len());
                    self.order.push(key);
                    // The partial's state (and its stats registration)
                    // moves over wholesale.
                    self.states.push(src_states);
                    self.births.push(src_birth);
                }
                Some(&gi) => {
                    // Duplicate group row: one of the two collapses.
                    stats.shrink(1);
                    self.resident -= 1;
                    for (&(_, distinct), (dst, src)) in
                        self.spec_cols.iter().zip(self.states[gi].iter_mut().zip(src_states))
                    {
                        if distinct {
                            // Re-fold the incoming distinct ids; sorted so
                            // the float fold order is deterministic.
                            let mut ids: Vec<u32> = src.seen.into_iter().collect();
                            ids.sort_unstable();
                            for raw in ids {
                                if !dst.fold(Id(raw), true, self.ds) {
                                    stats.shrink(1);
                                    self.resident -= 1;
                                }
                            }
                        } else {
                            dst.count += src.count;
                            dst.num_count += src.num_count;
                            dst.sum += src.sum;
                            dst.min = dst.min.min(src.min);
                            dst.max = dst.max.max(src.max);
                        }
                    }
                }
            }
        }
    }

    /// Resident accumulator entries registered so far.
    pub(crate) fn resident(&self) -> usize {
        self.resident
    }

    /// Number of groups so far (used by the unit tests; production code
    /// tracks `resident()` instead).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Finishes the fold into the solution-table rows of `m`, in group
    /// first-seen order, and releases its resident state from `stats`. A
    /// grouped query over empty input has no groups; an *ungrouped*
    /// aggregate query (implicit single group) always yields exactly one
    /// row, per SPARQL — COUNT 0, SUM 0, AVG/MIN/MAX unbound — registered
    /// like any other group row.
    pub(crate) fn finish(mut self, m: &ModifierPlan, stats: &mut ExecStats) -> Vec<Vec<SolVal>> {
        if self.group_cols.is_empty() && self.order.is_empty() {
            self.open(&[], 0, stats);
        }
        self.finish_with_births(m, stats).0
    }

    /// [`GroupFold::finish`] with each row's group birth, and *without*
    /// the implicit group: the out-of-core drain interleaves several
    /// folds by birth, and one of them holds the group of any row.
    pub(crate) fn finish_with_births(
        self,
        m: &ModifierPlan,
        stats: &mut ExecStats,
    ) -> (Vec<Vec<SolVal>>, Vec<u64>) {
        let rows = self
            .order
            .iter()
            .zip(&self.states)
            .map(|(key, states)| group_row(key, states, m))
            .collect();
        stats.shrink(self.resident);
        (rows, self.births)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggFunc;
    use crate::physical::{drain, IndexScan, BATCH_SIZE};
    use crate::plan::{AggSpec, PlannedPattern, Slot};
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    /// `n` subjects with value i%5 under p/val, plus a p/tag per subject.
    fn dataset(n: usize) -> Dataset {
        let mut b = StoreBuilder::new();
        for i in 0..n {
            let s = Term::iri(format!("s/{i}"));
            b.insert(s.clone(), Term::iri("p/val"), Term::integer((i % 5) as i64));
            b.insert(s, Term::iri("p/tag"), Term::iri(format!("t/{}", i % 3)));
        }
        b.freeze()
    }

    fn scan<'a>(ds: &'a Dataset, pred: &str, s: usize, o: usize) -> BoxedOperator<'a> {
        let p = ds.lookup(&Term::iri(pred)).unwrap();
        let pat = PlannedPattern { idx: 0, slots: [Slot::Var(s), Slot::Bound(p), Slot::Var(o)] };
        Box::new(IndexScan::new(ds, &pat))
    }

    #[test]
    fn distinct_dedups_across_batches() {
        let n = 2 * BATCH_SIZE + 100;
        let ds = dataset(n);
        // Project to the value column only: 5 distinct values survive.
        let op = Box::new(crate::physical::Project::new(scan(&ds, "p/val", 0, 1), &[1]));
        let mut stats = ExecStats::default();
        let out = drain(Box::new(Distinct::on_cols(op, vec![0])), &mut stats).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn slice_stops_pulling_after_limit() {
        let n = 4 * BATCH_SIZE;
        let ds = dataset(n);
        let mut stats = ExecStats::default();
        let sliced = Slice::new(scan(&ds, "p/val", 0, 1), 3, Some(10));
        let out = drain(Box::new(sliced), &mut stats).unwrap();
        assert_eq!(out.len(), 10);
        // Early exit: only the first batch was ever scanned.
        assert!(
            stats.scanned <= BATCH_SIZE as u64,
            "scanned {} rows for a LIMIT 10",
            stats.scanned
        );
    }

    #[test]
    fn slice_limit_zero_never_pulls() {
        let ds = dataset(100);
        let mut stats = ExecStats::default();
        let out =
            drain(Box::new(Slice::new(scan(&ds, "p/val", 0, 1), 0, Some(0))), &mut stats).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.scanned, 0);
    }

    #[test]
    fn slice_offset_past_end_is_empty() {
        let ds = dataset(50);
        let mut stats = ExecStats::default();
        let out =
            drain(Box::new(Slice::new(scan(&ds, "p/val", 0, 1), 1000, None)), &mut stats).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn topk_equals_stable_sort_prefix() {
        let n = 3 * BATCH_SIZE + 7;
        let ds = dataset(n);
        // Sort ascending by value (heavy ties: values are i % 5).
        let mut stats = ExecStats::default();
        let full = drain(scan(&ds, "p/val", 0, 1), &mut stats).unwrap();
        let mut expected: Vec<(Id, usize)> = Vec::new();
        for (i, row) in full.iter().enumerate() {
            expected.push((row[1], i));
        }
        let cmp_ids = |a: Id, b: Id| cmp_atoms(&SortAtom::of_id(a, &ds), &SortAtom::of_id(b, &ds));
        expected.sort_by(|a, b| cmp_ids(a.0, b.0).then(a.1.cmp(&b.1)));

        let (offset, limit) = (5, 40);
        let mut tk_stats = ExecStats::default();
        let topk = TopK::new(
            scan(&ds, "p/val", 0, 1),
            RowKeys::cols(&ds, vec![(1, false)]),
            offset,
            limit,
        );
        let got = drain(Box::new(topk), &mut tk_stats).unwrap();
        assert_eq!(got.len(), limit);
        for (g, (id, i)) in got.iter().zip(expected.iter().skip(offset).take(limit)) {
            assert_eq!(g[1], *id);
            assert_eq!(g[0], full.row(*i)[0], "tie-break must follow arrival order");
        }
        // Bounded memory: the heap held at most offset+limit rows on top of
        // one in-flight batch.
        assert!(
            tk_stats.peak_tuples <= (offset + limit + BATCH_SIZE) as u64,
            "peak {}",
            tk_stats.peak_tuples
        );
    }

    #[test]
    fn sort_equals_stable_sort_and_spills_only_under_a_budget() {
        let n = 3 * BATCH_SIZE + 7;
        let ds = dataset(n);
        let full = drain(scan(&ds, "p/val", 0, 1), &mut ExecStats::default()).unwrap();
        let cmp_ids = |a: Id, b: Id| cmp_atoms(&SortAtom::of_id(a, &ds), &SortAtom::of_id(b, &ds));
        // Descending by value (heavy ties), ties in arrival order.
        let mut expected: Vec<usize> = (0..full.len()).collect();
        expected.sort_by(|&a, &b| cmp_ids(full.row(b)[1], full.row(a)[1]).then(a.cmp(&b)));
        for budget in [None, Some(100)] {
            let mut stats = ExecStats::default();
            let keys = RowKeys::cols(&ds, vec![(1, true)]);
            let sort = Sort::new(scan(&ds, "p/val", 0, 1), keys, budget, None);
            let got = drain(Box::new(sort), &mut stats).unwrap();
            assert_eq!(got.len(), n);
            for (r, &i) in expected.iter().enumerate() {
                assert_eq!(got.row(r), full.row(i), "row {r} under budget {budget:?}");
            }
            assert_eq!(stats.sorted_rows, n as u64);
            assert_eq!(stats.spill_runs > 0, budget.is_some(), "budget {budget:?}");
        }
    }

    /// The solution table of `agg`: its group keys, then its aggregates.
    fn table_of(agg: &AggregatePlan) -> ModifierPlan {
        use crate::plan::{TableCol, TableColSource};
        let keys = agg.group_slots.iter().map(|&s| TableColSource::Slot(s));
        let aggs = (0..agg.specs.len()).map(TableColSource::Agg);
        let table: Vec<TableCol> =
            keys.chain(aggs).map(|source| TableCol { name: String::new(), source }).collect();
        ModifierPlan {
            distinct: false,
            offset: 0,
            limit: None,
            out_width: table.len(),
            table,
            order_by: vec![],
            order_exprs: vec![],
            aggregate: Some(agg.clone()),
        }
    }

    /// Folds `rows` (schema `[0, 1]`) and returns the table rows and the
    /// peak the fold registered.
    fn fold_rows(
        ds: &Dataset,
        agg: &AggregatePlan,
        rows: &[Vec<Id>],
        clustered: bool,
    ) -> (Vec<Vec<SolVal>>, u64) {
        let mut stats = ExecStats::default();
        let mut fold = GroupFold::new(agg, &[0, 1], ds, clustered);
        for row in rows {
            fold.add_row(row, &mut stats);
        }
        (fold.finish(&table_of(agg), &mut stats), stats.peak_tuples)
    }

    #[test]
    fn group_fold_streams_groups() {
        let n = 1000;
        let ds = dataset(n);
        let agg = AggregatePlan {
            group_slots: vec![1],
            specs: vec![
                AggSpec { func: AggFunc::Count, slot: Some(0), distinct: false },
                AggSpec { func: AggFunc::Count, slot: Some(0), distinct: true },
            ],
        };
        let mut op = scan(&ds, "p/val", 0, 1);
        let mut fold = GroupFold::new(&agg, op.schema(), &ds, false);
        let mut stats = ExecStats::default();
        let mut row = vec![UNBOUND; 2];
        while let Some(batch) = op.next_batch(&mut stats).unwrap() {
            for r in 0..batch.len() {
                batch.read_row(r, &mut row);
                fold.add_row(&row, &mut stats);
            }
            stats.shrink(batch.len());
        }
        assert_eq!(fold.len(), 5);
        // Resident accounting: 5 group rows + 1000 retained distinct ids.
        assert_eq!(fold.resident(), 5 + n);
        let table = fold.finish(&table_of(&agg), &mut stats);
        assert_eq!(table.len(), 5);
        for row in &table {
            assert_eq!(row[1], SolVal::Num(200.0));
            assert_eq!(row[2], SolVal::Num(200.0), "subjects are distinct");
        }
    }

    /// Random group-clustered rows through the clustered and the hash fold:
    /// the same table bit for bit, and a clustered peak that holds only
    /// the open group's DISTINCT ids.
    #[test]
    fn clustered_fold_matches_hash_fold_on_random_clustered_rows() {
        let ds = dataset(300);
        let id = |t: Term| ds.lookup(&t).expect("term in the dataset");
        // Numeric values, non-numeric terms and unbound values.
        let mut values: Vec<Id> = (0..5).map(|v| id(Term::integer(v))).collect();
        values.extend((0..3).map(|t| id(Term::iri(format!("t/{t}")))));
        values.push(UNBOUND);
        let v = Some(1);
        let spec = |func, distinct| AggSpec { func, slot: v, distinct };
        let agg = AggregatePlan {
            group_slots: vec![0],
            specs: vec![
                AggSpec { func: AggFunc::Count, slot: None, distinct: false },
                spec(AggFunc::Count, false),
                spec(AggFunc::Sum, false),
                spec(AggFunc::Avg, false),
                spec(AggFunc::Min, false),
                spec(AggFunc::Max, false),
                spec(AggFunc::Count, true),
                spec(AggFunc::Avg, true),
            ],
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..20 {
            let mut rows: Vec<Vec<Id>> = Vec::new();
            // The clustered peak: at the close of group g, g + 1 group rows
            // and g's distinct bound values under each DISTINCT aggregate.
            let mut expected_peak = 0;
            for g in 0..1 + next(40) {
                let key = id(Term::iri(format!("s/{g}")));
                let group: Vec<Id> =
                    (0..1 + next(30)).map(|_| values[next(values.len())]).collect();
                let distinct: HashSet<Id> =
                    group.iter().copied().filter(|&x| x != UNBOUND).collect();
                expected_peak = expected_peak.max(g + 1 + 2 * distinct.len());
                rows.extend(group.into_iter().map(|x| vec![key, x]));
            }
            let (hash, hash_peak) = fold_rows(&ds, &agg, &rows, false);
            let (clustered, clustered_peak) = fold_rows(&ds, &agg, &rows, true);
            assert_eq!(format!("{hash:?}"), format!("{clustered:?}"), "round {round}");
            assert!(clustered_peak <= hash_peak, "round {round}");
            assert_eq!(clustered_peak, expected_peak as u64, "round {round}");
        }
    }

    #[test]
    fn ungrouped_fold_of_empty_input_yields_one_group() {
        let ds = dataset(10);
        let agg = AggregatePlan {
            group_slots: vec![],
            specs: vec![
                AggSpec { func: AggFunc::Count, slot: None, distinct: false },
                AggSpec { func: AggFunc::Sum, slot: Some(1), distinct: false },
                AggSpec { func: AggFunc::Avg, slot: Some(1), distinct: true },
            ],
        };
        let implicit = vec![SolVal::Num(0.0), SolVal::Num(0.0), SolVal::Unbound];
        for clustered in [false, true] {
            assert_eq!(fold_rows(&ds, &agg, &[], clustered), (vec![implicit.clone()], 1));
        }
        for eager in [false, true] {
            let mut stats = ExecStats::default();
            let fold = crate::spill::ExternalGroupFold::new(&agg, &[0, 1], &ds, 1, eager, None);
            let table = fold.finish(&table_of(&agg), &mut stats).unwrap();
            assert_eq!((table, stats.peak_tuples), (vec![implicit.clone()], 1), "eager {eager}");
        }
    }
}
