//! The batched Volcano execution pipeline: pull-based physical operators
//! over fixed-size columnar [`Id`] batches.
//!
//! This is the engine's only execution substrate. Instead of building a
//! full [`Bindings`] table per plan node — memory scaling with exactly the
//! `Cout` quantity the paper studies — the pipeline holds only hash-join
//! build sides plus one in-flight batch per operator, and the peak
//! intermediate-tuple count recorded in [`ExecStats::peak_tuples`]
//! measures the difference against the materialize-then-modify baseline
//! (`Engine::execute_unpushed`).
//!
//! Operator inventory (joins report their output cardinality into
//! [`ExecStats`] per emitted batch, so measured `Cout` stays consistent
//! even when a downstream LIMIT stops the pipeline early):
//!
//! * [`IndexScan`] — one triple pattern over the permutation indexes;
//! * [`HashJoinBuild`] / [`HashJoinProbe`] — inner hash join; the build
//!   side is chosen by the optimizer's cardinality estimates;
//! * [`BindJoin`] — index nested-loop join probing the permutation indexes
//!   once per left row (selective joins);
//! * [`LeftOuterJoin`] — OPTIONAL semantics, right side built;
//! * [`FilterEval`] — row-level FILTER evaluation;
//! * [`Project`] — late materialization: drops every column the result
//!   does not need before the final decode;
//! * [`UnionAll`] — concatenation of same-schema branches.
//!
//! Solution-modifier operators (DISTINCT, TopK, Slice, streaming
//! aggregation) live in [`crate::modifiers`]. Operator trees are lowered
//! from a recorded [`crate::plan::PhysNode`] tree by
//! [`crate::plan::PhysNode::lower`] (serial) or
//! [`crate::plan::PhysNode::lower_morsels`] (morsel-driven).
//!
//! # Morsel-driven parallelism
//!
//! The [`Exchange`]/[`Gather`] pair parallelizes qualifying plans across a
//! `std::thread` worker pool. Only a bind-join spine qualifies: a chain of
//! [`BindJoin`]s over one driving [`IndexScan`], so a worker shares nothing
//! with the others but the read-only dataset. [`Exchange`] partitions the
//! driving scan's range into fixed-size morsels; each worker instantiates
//! its own copy of the spine over one morsel at a time, and [`Gather`]
//! re-emits the per-morsel batches **in morsel-index order** — never in
//! worker arrival order. Together with the fixed wave size
//! ([`MORSELS_PER_WAVE`], deliberately *not* derived from the thread
//! count) this makes rows, row order, measured `Cout` and `scanned`
//! bit-identical at any thread count; only wall-clock time changes. A
//! worker's `Err` reaches the consumer in the same morsel-index order.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use parambench_rdf::dict::Id;
use parambench_rdf::index::IndexOrder;
use parambench_rdf::store::{Dataset, Probe, ProbeHint};

use crate::ast::Expr;
use crate::error::ExecError;
use crate::exec::{row_passes, Bindings, ExecConfig, ExecStats, WorkerPool, UNBOUND};
use crate::plan::{PlannedPattern, Slot};

/// Rows per batch. Large enough to amortize per-batch dispatch, small
/// enough that in-flight data stays cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// Which `Cout` accumulator an operator's join output counts into:
/// joins of the required BGP feed [`ExecStats::cout`], joins inside
/// OPTIONAL groups feed [`ExecStats::cout_optional`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoutBucket {
    /// Joins of the required BGP.
    Required,
    /// Joins inside OPTIONAL groups.
    Optional,
}

impl CoutBucket {
    #[inline]
    fn bump(self, stats: &mut ExecStats, n: u64) {
        match self {
            CoutBucket::Required => stats.cout += n,
            CoutBucket::Optional => stats.cout_optional += n,
        }
    }
}

/// A fixed-capacity columnar chunk of bindings: `schema[c]` is the variable
/// slot stored in column `c`. Zero-column batches carry an explicit row
/// count (existence checks).
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Vec<usize>,
    columns: Vec<Vec<Id>>,
    rows: usize,
}

impl Batch {
    /// An empty batch with the given column schema.
    pub fn with_schema(schema: Vec<usize>) -> Self {
        let columns = schema.iter().map(|_| Vec::with_capacity(BATCH_SIZE)).collect();
        Batch { schema, columns, rows: 0 }
    }

    /// The variable slot of each column.
    pub fn schema(&self) -> &[usize] {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// True once the batch reached [`BATCH_SIZE`].
    pub fn is_full(&self) -> bool {
        self.rows >= BATCH_SIZE
    }

    /// Column `c` as a contiguous slice.
    pub fn column(&self, c: usize) -> &[Id] {
        &self.columns[c]
    }

    /// The value at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Id {
        self.columns[col][row]
    }

    /// Appends one row (must match the schema width).
    #[inline]
    pub fn push_row(&mut self, row: &[Id]) {
        debug_assert_eq!(row.len(), self.schema.len());
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Copies row `row` into `buf` (which must match the schema width).
    #[inline]
    pub fn read_row(&self, row: usize, buf: &mut [Id]) {
        for (c, col) in self.columns.iter().enumerate() {
            buf[c] = col[row];
        }
    }
}

/// A pull-based physical operator producing columnar batches.
///
/// Contract: `next_batch` returns `Ok(Some(..))` of a **non-empty** batch,
/// or `Ok(None)` once the operator is exhausted (and stays `Ok(None)`). A
/// failure — spill I/O — is `Err`; operators propagate a child's `Err`
/// unchanged, and a pipeline that returned one is not pulled again.
/// Operators register
/// emitted batches with [`ExecStats::grow`] and release consumed input
/// batches with [`ExecStats::shrink`], so `stats.peak_tuples` tracks the
/// real high-water mark of resident intermediate tuples.
pub trait Operator {
    /// The variable slot of each output column.
    fn schema(&self) -> &[usize];

    /// Produces the next batch of bindings.
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError>;
}

/// A boxed operator tied to the dataset lifetime.
pub type BoxedOperator<'a> = Box<dyn Operator + 'a>;

/// Position pairs a scanned triple must match for the pattern's repeated
/// variables (e.g. `?x <p> ?x` yields `(0, 2)`). Shared by every operator
/// that scans triples against a [`PlannedPattern`].
fn eq_pairs(pattern: &PlannedPattern) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..3 {
        for j in (i + 1)..3 {
            if let (Slot::Var(a), Slot::Var(b)) = (pattern.slots[i], pattern.slots[j]) {
                if a == b {
                    out.push((i, j));
                }
            }
        }
    }
    out
}

/// Runs a pipeline to completion, materializing its output only once, at
/// the result boundary.
pub fn drain(mut op: BoxedOperator<'_>, stats: &mut ExecStats) -> Result<Bindings, ExecError> {
    let mut out = Bindings::empty(op.schema().to_vec());
    let width = op.schema().len();
    let mut row_buf = vec![UNBOUND; width];
    while let Some(batch) = op.next_batch(stats)? {
        for r in 0..batch.len() {
            batch.read_row(r, &mut row_buf);
            out.push_row(&row_buf);
        }
        // Accounting transfer: the batch's tuples (already grown by the
        // producer) now live on in `out`, so no grow/shrink is needed.
    }
    Ok(out)
}

/// Pulls `op` to exhaustion, releasing every batch unread: work that runs
/// only for its counters — the side of a join that outlives its partner,
/// a probe side facing an empty build, a measured run — still reports
/// `Cout` and `scanned` exactly as a full execution does.
pub(crate) fn drain_rest(
    op: &mut BoxedOperator<'_>,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    while let Some(batch) = op.next_batch(stats)? {
        stats.shrink(batch.len());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// IndexScan
// ---------------------------------------------------------------------------

/// Scans one triple pattern out of the store's permutation indexes.
pub struct IndexScan<'a> {
    schema: Vec<usize>,
    /// `None` when the pattern contains an absent constant (provably empty)
    /// or the scan is exhausted.
    state: Option<ScanState<'a>>,
}

struct ScanState<'a> {
    iter: Probe<'a>,
    /// Triple position feeding each output column.
    col_pos: Vec<usize>,
    /// Repeated-variable equality constraints within the pattern.
    eq_pairs: Vec<(usize, usize)>,
    /// Overlay delta entries this scan's pattern range consults, flushed
    /// into [`ExecStats::overlay_rows`] on the first batch. Charged once
    /// per logical scan: morsels other than the first report 0 so the
    /// total is independent of how many morsels a wave used.
    overlay_entries: u64,
}

impl<'a> IndexScan<'a> {
    /// Scans the pattern's full index range (default index order).
    pub fn new(ds: &'a Dataset, pattern: &PlannedPattern) -> Self {
        Self::over(ds, pattern, None, None)
    }

    /// Scans the pattern out of an explicitly chosen permutation index
    /// (`None` = default): same rows, delivered sorted by that index's
    /// unbound key positions — the order the physical pass
    /// (`PlanNode::physical`) advertises for it.
    pub fn with_order(
        ds: &'a Dataset,
        pattern: &PlannedPattern,
        order: Option<IndexOrder>,
    ) -> Self {
        Self::over(ds, pattern, order, None)
    }

    /// Scans only rows `[start, end)` of the pattern's index range — one
    /// morsel of a parallel scan. Consecutive morsels concatenated in
    /// index order reproduce [`IndexScan::with_order`] of the same order
    /// exactly. The morsel starting at row 0 charges the logical scan's
    /// overlay entries (exactly one driver morsel starts there).
    pub fn morsel(
        ds: &'a Dataset,
        pattern: &PlannedPattern,
        order: Option<IndexOrder>,
        start: usize,
        end: usize,
    ) -> Self {
        Self::over(ds, pattern, order, Some((start, end)))
    }

    fn over(
        ds: &'a Dataset,
        pattern: &PlannedPattern,
        order: Option<IndexOrder>,
        slice: Option<(usize, usize)>,
    ) -> Self {
        let schema = pattern.var_slots();
        if pattern.has_absent() {
            return IndexScan { schema, state: None };
        }
        let access = pattern.access();
        let order = order.unwrap_or_else(|| Dataset::default_order(access));
        let charge_overlay = slice.is_none_or(|(start, _)| start == 0);
        let overlay_entries = if charge_overlay { ds.overlay_entries(access) as u64 } else { 0 };
        let iter = match slice {
            None => ds.scan_with(access, order),
            Some((start, end)) => ds.scan_slice_with(access, order, start, end),
        };
        let col_pos: Vec<usize> = schema
            .iter()
            .map(|&v| {
                pattern
                    .slots
                    .iter()
                    .position(|s| s.as_var() == Some(v))
                    .expect("var comes from this pattern")
            })
            .collect();
        let eq_pairs = eq_pairs(pattern);
        IndexScan { schema, state: Some(ScanState { iter, col_pos, eq_pairs, overlay_entries }) }
    }
}

impl Operator for IndexScan<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let Some(state) = self.state.as_mut() else {
            return Ok(None);
        };
        stats.overlay_rows += std::mem::take(&mut state.overlay_entries);
        let mut out = Batch::with_schema(self.schema.clone());
        let mut row = vec![UNBOUND; self.schema.len()];
        while !out.is_full() {
            let Some(triple) = state.iter.next() else {
                self.state = None;
                break;
            };
            stats.scanned += 1;
            if state.eq_pairs.iter().any(|&(i, j)| triple[i] != triple[j]) {
                continue;
            }
            for (c, &pos) in state.col_pos.iter().enumerate() {
                row[c] = triple[pos];
            }
            out.push_row(&row);
        }
        if out.is_empty() {
            self.state = None;
            return Ok(None);
        }
        stats.grow(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Hash join (build + probe)
// ---------------------------------------------------------------------------

/// Per-batch output accounting shared by the inner join operators: counts
/// emitted tuples into the `Cout` bucket and into a lazily created
/// `ExecStats::join_cards` entry, in lockstep. Keeping both per batch
/// (rather than at operator finish) preserves the invariant
/// `cout == sum(join_cards)` even when a downstream LIMIT abandons the
/// join mid-flight.
struct JoinCardRecorder {
    signature: String,
    bucket: CoutBucket,
    /// Index of this join's entry in `ExecStats::join_cards`, created on
    /// first use (entries are append-only, so the index stays valid).
    cards_ix: Option<usize>,
}

impl JoinCardRecorder {
    fn new(signature: String, bucket: CoutBucket) -> Self {
        JoinCardRecorder { signature, bucket, cards_ix: None }
    }

    /// Counts `n` output tuples; call with 0 at finish so completed joins
    /// report themselves even when they never emitted.
    fn record(&mut self, stats: &mut ExecStats, n: u64) {
        let ix = match self.cards_ix {
            Some(ix) => ix,
            None => {
                stats.join_cards.push((self.signature.clone(), 0));
                let ix = stats.join_cards.len() - 1;
                self.cards_ix = Some(ix);
                ix
            }
        };
        stats.join_cards[ix].1 += n;
        self.bucket.bump(stats, n);
    }
}

/// The materialized side of a hash join: row storage plus the key index.
/// Stays resident (and counted in [`ExecStats::peak_tuples`]) until the
/// owning [`HashJoinProbe`] finishes. Row indices are assigned in the build
/// input's row order, so a key's match list — and with it the probe
/// output's order — follows that order.
pub struct HashJoinBuild {
    rows: Bindings,
    /// Key → row indices, in build-row order.
    table: HashMap<Vec<Id>, Vec<usize>>,
}

impl HashJoinBuild {
    /// Drains `child` and indexes its rows on `join_vars`.
    ///
    /// The drained batches' residency accounting transfers to the build
    /// table (which is not released until the join finishes), so the build
    /// side shows up in the peak exactly as long as it is live.
    pub fn build(
        mut child: BoxedOperator<'_>,
        join_vars: &[usize],
        stats: &mut ExecStats,
    ) -> Result<HashJoinBuild, ExecError> {
        let mut rows = Bindings::empty(child.schema().to_vec());
        let key_cols: Vec<usize> =
            join_vars.iter().map(|&v| rows.col_of(v).expect("join var in build side")).collect();
        let mut table: HashMap<Vec<Id>, Vec<usize>> = HashMap::new();
        let width = rows.cols().len();
        let mut row_buf = vec![UNBOUND; width];
        // The current row's key, refilled in place: an owned key is
        // allocated only for a key the table has not seen.
        let mut key: Vec<Id> = Vec::with_capacity(key_cols.len());
        while let Some(batch) = child.next_batch(stats)? {
            for r in 0..batch.len() {
                batch.read_row(r, &mut row_buf);
                key.clear();
                key.extend(key_cols.iter().map(|&c| row_buf[c]));
                match table.get_mut(key.as_slice()) {
                    Some(matches) => matches.push(rows.len()),
                    None => {
                        table.insert(key.clone(), vec![rows.len()]);
                    }
                }
                rows.push_row(&row_buf);
            }
        }
        stats.build_rows += rows.len() as u64;
        Ok(HashJoinBuild { rows, table })
    }

    /// Number of build rows (the table's contribution to `peak_tuples`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the build side produced no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row indices matching `key`, in build-row order.
    fn matches(&self, key: &[Id]) -> Option<&Vec<usize>> {
        self.table.get(key)
    }
}

/// Where an output column's value comes from during probe-side assembly.
#[derive(Debug, Clone, Copy)]
enum ColSource {
    Probe(usize),
    Build(usize),
}

/// Inner hash join: builds one side on the first pull, then streams the
/// probe child against it. `build_right` says which *semantic* side (left =
/// first operand, whose columns lead the output schema) is materialized —
/// the physical pass picks the side with the smaller estimated cardinality.
/// Hash joins always run serially: only bind-join spines run over morsels.
pub struct HashJoinProbe<'a> {
    schema: Vec<usize>,
    /// The build child and the join variables, waiting for the first pull
    /// to build; `None` once built.
    pending: Option<(BoxedOperator<'a>, Vec<usize>)>,
    /// The built side, released when the join finishes.
    build: Option<HashJoinBuild>,
    probe: BoxedOperator<'a>,
    probe_key_cols: Vec<usize>,
    /// The current probe row's join key, refilled in place per row.
    key: Vec<Id>,
    sources: Vec<ColSource>,
    recorder: JoinCardRecorder,
    /// In-progress probe batch: (batch, row index, match offset).
    cursor: Option<(Batch, usize, usize)>,
    done: bool,
}

impl<'a> HashJoinProbe<'a> {
    /// An inner hash join of `left ⋈ right` on `join_vars`; `build_right`
    /// selects which semantic side is materialized. The output schema
    /// leads with the semantic left's columns, whichever side builds.
    pub fn new(
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        join_vars: Vec<usize>,
        build_right: bool,
        signature: String,
        bucket: CoutBucket,
    ) -> Self {
        let mut schema: Vec<usize> = left.schema().to_vec();
        for &v in right.schema() {
            if !schema.contains(&v) {
                schema.push(v);
            }
        }
        let (build, probe) = if build_right { (right, left) } else { (left, right) };
        let col_in = |s: &[usize], v: usize| s.iter().position(|&c| c == v);
        let sources: Vec<ColSource> = schema
            .iter()
            .map(|&v| match col_in(probe.schema(), v) {
                Some(c) => ColSource::Probe(c),
                None => ColSource::Build(col_in(build.schema(), v).expect("var from one side")),
            })
            .collect();
        let probe_key_cols: Vec<usize> = join_vars
            .iter()
            .map(|&v| col_in(probe.schema(), v).expect("join var in probe side"))
            .collect();
        HashJoinProbe {
            schema,
            pending: Some((build, join_vars)),
            build: None,
            probe,
            key: Vec::with_capacity(probe_key_cols.len()),
            probe_key_cols,
            sources,
            recorder: JoinCardRecorder::new(signature, bucket),
            cursor: None,
            done: false,
        }
    }

    fn finish(&mut self, stats: &mut ExecStats) {
        // A join that completed without emitting still reports itself.
        self.recorder.record(stats, 0);
        // Release the build side: the join output has been handed on.
        if let Some(build) = self.build.take() {
            stats.shrink(build.len());
        }
        self.done = true;
    }
}

impl Operator for HashJoinProbe<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    /// Probes the build with rows pulled from the probe child, resuming
    /// mid-batch across calls; finishes (and releases the build) when the
    /// probe side is exhausted.
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if let Some((build_child, join_vars)) = self.pending.take() {
            self.build = Some(HashJoinBuild::build(build_child, &join_vars, stats)?);
        }
        if self.done {
            return Ok(None);
        }
        let mut out = Batch::with_schema(self.schema.clone());
        {
            let build = self.build.as_ref().expect("built on the first pull");
            if build.is_empty() {
                // Empty build side: the join is empty, but the probe subtree
                // must still run so its joins contribute to measured `Cout`
                // exactly as in the materializing executor.
                drain_rest(&mut self.probe, stats)?;
                self.finish(stats);
                return Ok(None);
            }
            let mut probe_buf = vec![UNBOUND; self.probe.schema().len()];
            let mut row_buf = vec![UNBOUND; self.schema.len()];
            'fill: while !out.is_full() {
                let (batch, mut row, mut offset) = match self.cursor.take() {
                    Some(c) => c,
                    None => match self.probe.next_batch(stats)? {
                        Some(b) => (b, 0, 0),
                        None => break 'fill,
                    },
                };
                while row < batch.len() {
                    batch.read_row(row, &mut probe_buf);
                    self.key.clear();
                    self.key.extend(self.probe_key_cols.iter().map(|&c| probe_buf[c]));
                    if let Some(matches) = build.matches(&self.key) {
                        while offset < matches.len() {
                            if out.is_full() {
                                self.cursor = Some((batch, row, offset));
                                break 'fill;
                            }
                            let brow = build.rows.row(matches[offset]);
                            for (k, src) in self.sources.iter().enumerate() {
                                row_buf[k] = match *src {
                                    ColSource::Probe(c) => probe_buf[c],
                                    ColSource::Build(c) => brow[c],
                                };
                            }
                            out.push_row(&row_buf);
                            offset += 1;
                        }
                    }
                    offset = 0;
                    row += 1;
                }
                stats.shrink(batch.len());
            }
        }
        if self.cursor.is_none() && out.is_empty() {
            self.finish(stats);
            return Ok(None);
        }
        if self.cursor.is_none() && !out.is_full() {
            // Probe exhausted with a final partial batch: account now so a
            // trailing next_batch call just returns None.
            self.finish(stats);
        }
        // Report Cout per emitted batch (not at finish): a downstream LIMIT
        // may stop pulling before exhaustion, and already-produced tuples
        // must still be counted.
        self.recorder.record(stats, out.len() as u64);
        stats.grow(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Bind join (index nested-loop into the permutation indexes)
// ---------------------------------------------------------------------------

/// How a bind join probes its pattern for one left row: the pattern's
/// access mask with the row's join keys bound in, plus the residual checks
/// every probed triple must pass. Each probe goes through
/// [`Dataset::probe`] with the join's own [`ProbeHint`]: left rows sorted
/// by the probe key gallop forward from the previous probe.
struct BindProbe {
    /// The pattern's constants; a probe binds the join keys into a copy.
    access: [Option<Id>; 3],
    /// Per triple position: the left column that binds it, if any.
    left_col_of: [Option<usize>; 3],
    /// Repeated-variable position pairs no left column fixes (e.g. `?y`
    /// in `?y ?p ?y` probed on `?p`): residual checks on every probed
    /// triple. A repeated join variable is bound at both positions.
    eq_pairs: Vec<(usize, usize)>,
    /// Where the previous probe landed in the base index.
    hint: ProbeHint,
}

impl BindProbe {
    fn new(pattern: &PlannedPattern, left_schema: &[usize], join_vars: &[usize]) -> Self {
        let left_col_of = std::array::from_fn(|pos| match pattern.slots[pos] {
            Slot::Var(v) if join_vars.contains(&v) => left_schema.iter().position(|&c| c == v),
            _ => None,
        });
        let eq_pairs =
            eq_pairs(pattern).into_iter().filter(|&(i, _)| left_col_of[i].is_none()).collect();
        BindProbe { access: pattern.access(), left_col_of, eq_pairs, hint: ProbeHint::default() }
    }

    /// The triples `left_row`'s probe reads, before the residual checks,
    /// or `None` when a join key is unbound (from OPTIONAL): such a row
    /// never matches.
    #[inline]
    fn probe<'a>(&mut self, ds: &'a Dataset, left_row: &[Id]) -> Option<Probe<'a>> {
        let mut access = self.access;
        for (slot, &col) in access.iter_mut().zip(&self.left_col_of) {
            if let Some(c) = col {
                let v = left_row[c];
                if v == UNBOUND {
                    return None;
                }
                *slot = Some(v);
            }
        }
        Some(ds.probe(access, &mut self.hint))
    }

    /// Whether a probed triple passes the residual checks.
    #[inline]
    fn passes(&self, triple: &[Id; 3]) -> bool {
        self.eq_pairs.iter().all(|&(i, j)| triple[i] == triple[j])
    }
}

/// For every left row, binds the shared variables into the triple pattern
/// and probes the store's indexes — the streaming equivalent of the legacy
/// adaptive bind join. Output equals `HashJoinProbe(left, IndexScan(pat))`
/// but touches only the index ranges the left rows select.
pub struct BindJoin<'a> {
    ds: &'a Dataset,
    left: BoxedOperator<'a>,
    probe: BindProbe,
    schema: Vec<usize>,
    /// (output column, triple position) for columns new to this pattern.
    new_cols: Vec<(usize, usize)>,
    recorder: JoinCardRecorder,
    cursor: Option<BindCursor<'a>>,
    done: bool,
}

struct BindCursor<'a> {
    batch: Batch,
    row: usize,
    /// Active index probe for the current left row.
    scan: Option<Probe<'a>>,
}

impl<'a> BindJoin<'a> {
    /// An index nested-loop join probing `pattern` once per `left` row.
    pub fn new(
        ds: &'a Dataset,
        left: BoxedOperator<'a>,
        pattern: PlannedPattern,
        join_vars: &[usize],
        signature: String,
        bucket: CoutBucket,
    ) -> Self {
        let mut schema: Vec<usize> = left.schema().to_vec();
        for v in pattern.var_slots() {
            if !schema.contains(&v) {
                schema.push(v);
            }
        }
        let new_cols: Vec<(usize, usize)> = schema
            .iter()
            .enumerate()
            .skip(left.schema().len())
            .map(|(k, &v)| {
                let pos = pattern
                    .slots
                    .iter()
                    .position(|s| s.as_var() == Some(v))
                    .expect("new column from this pattern");
                (k, pos)
            })
            .collect();
        BindJoin {
            ds,
            probe: BindProbe::new(&pattern, left.schema(), join_vars),
            left,
            schema,
            new_cols,
            recorder: JoinCardRecorder::new(signature, bucket),
            cursor: None,
            done: false,
        }
    }

    fn finish(&mut self, stats: &mut ExecStats) {
        self.recorder.record(stats, 0);
        self.done = true;
    }
}

impl Operator for BindJoin<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if self.done {
            return Ok(None);
        }
        let ds = self.ds;
        let left_width = self.left.schema().len();
        let mut out = Batch::with_schema(self.schema.clone());
        let mut row_buf = vec![UNBOUND; self.schema.len()];
        'fill: while !out.is_full() {
            if self.cursor.is_none() {
                match self.left.next_batch(stats)? {
                    Some(batch) => self.cursor = Some(BindCursor { batch, row: 0, scan: None }),
                    None => break 'fill,
                }
            }
            let cursor = self.cursor.as_mut().expect("ensured above");
            if cursor.row >= cursor.batch.len() {
                let released = cursor.batch.len();
                self.cursor = None;
                stats.shrink(released);
                continue 'fill;
            }
            cursor.batch.read_row(cursor.row, &mut row_buf[..left_width]);
            if cursor.scan.is_none() {
                let Some(probe) = self.probe.probe(ds, &row_buf[..left_width]) else {
                    cursor.row += 1;
                    continue 'fill;
                };
                cursor.scan = Some(probe);
            }
            let scan = cursor.scan.as_mut().expect("opened above");
            let mut scan_exhausted = false;
            while !out.is_full() {
                let Some(triple) = scan.next() else {
                    scan_exhausted = true;
                    break;
                };
                stats.scanned += 1;
                if !self.probe.passes(&triple) {
                    continue;
                }
                for &(k, pos) in &self.new_cols {
                    row_buf[k] = triple[pos];
                }
                out.push_row(&row_buf);
            }
            if scan_exhausted {
                cursor.scan = None;
                cursor.row += 1;
            }
        }
        if self.cursor.is_none() {
            self.finish(stats);
        }
        if out.is_empty() {
            return Ok(None);
        }
        // Per-batch Cout reporting: survives downstream LIMIT early exit.
        self.recorder.record(stats, out.len() as u64);
        stats.grow(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Left outer join (OPTIONAL)
// ---------------------------------------------------------------------------

/// Left-outer hash join: every left row survives; matching right rows
/// extend it, otherwise right-only columns are [`UNBOUND`]. The right
/// (optional) side is built; the left streams.
pub struct LeftOuterJoin<'a> {
    schema: Vec<usize>,
    join_vars: Vec<usize>,
    left: BoxedOperator<'a>,
    right: Option<BoxedOperator<'a>>,
    build: Option<HashJoinBuild>,
    left_key_cols: Vec<usize>,
    /// The current left row's join key, refilled in place per row.
    key: Vec<Id>,
    /// (output column, build column) pairs for right-only columns.
    right_only: Vec<(usize, usize)>,
    /// In-progress left batch: (batch, row, match offset).
    cursor: Option<(Batch, usize, usize)>,
    done: bool,
}

impl<'a> LeftOuterJoin<'a> {
    /// A left-outer join of `left ⟕ right` on `join_vars` (right is built).
    pub fn new(left: BoxedOperator<'a>, right: BoxedOperator<'a>, join_vars: Vec<usize>) -> Self {
        let mut schema: Vec<usize> = left.schema().to_vec();
        for &v in right.schema() {
            if !schema.contains(&v) {
                schema.push(v);
            }
        }
        let left_key_cols: Vec<usize> = join_vars
            .iter()
            .map(|&v| left.schema().iter().position(|&c| c == v).expect("join var in left"))
            .collect();
        let right_only: Vec<(usize, usize)> = schema
            .iter()
            .enumerate()
            .skip(left.schema().len())
            .map(|(k, &v)| {
                let rc = right
                    .schema()
                    .iter()
                    .position(|&c| c == v)
                    .expect("right-only var from right side");
                (k, rc)
            })
            .collect();
        LeftOuterJoin {
            schema,
            join_vars,
            left,
            right: Some(right),
            build: None,
            key: Vec::with_capacity(left_key_cols.len()),
            left_key_cols,
            right_only,
            cursor: None,
            done: false,
        }
    }

    fn finish(&mut self, stats: &mut ExecStats) {
        if let Some(build) = self.build.take() {
            stats.shrink(build.len());
        }
        self.done = true;
    }
}

impl Operator for LeftOuterJoin<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        if self.done {
            return Ok(None);
        }
        if let Some(right) = self.right.take() {
            self.build = Some(HashJoinBuild::build(right, &self.join_vars, stats)?);
        }
        let build = self.build.as_ref().expect("built above");
        let left_width = self.left.schema().len();

        let mut out = Batch::with_schema(self.schema.clone());
        let mut row_buf = vec![UNBOUND; self.schema.len()];
        'fill: while !out.is_full() {
            let (batch, mut row, mut offset) = match self.cursor.take() {
                Some(c) => c,
                None => match self.left.next_batch(stats)? {
                    Some(b) => (b, 0, 0),
                    None => break 'fill,
                },
            };
            while row < batch.len() {
                batch.read_row(row, &mut row_buf[..left_width]);
                self.key.clear();
                self.key.extend(self.left_key_cols.iter().map(|&c| row_buf[c]));
                let matches = if self.key.contains(&UNBOUND) {
                    None
                } else {
                    build.matches(&self.key).filter(|m| !m.is_empty())
                };
                match matches {
                    Some(matches) => {
                        while offset < matches.len() {
                            if out.is_full() {
                                self.cursor = Some((batch, row, offset));
                                break 'fill;
                            }
                            let rrow = build.rows.row(matches[offset]);
                            for &(k, rc) in &self.right_only {
                                row_buf[k] = rrow[rc];
                            }
                            out.push_row(&row_buf);
                            offset += 1;
                        }
                    }
                    None => {
                        if out.is_full() {
                            self.cursor = Some((batch, row, 0));
                            break 'fill;
                        }
                        for &(k, _) in &self.right_only {
                            row_buf[k] = UNBOUND;
                        }
                        out.push_row(&row_buf);
                    }
                }
                offset = 0;
                row += 1;
            }
            stats.shrink(batch.len());
        }
        if self.cursor.is_none() && out.is_empty() {
            self.finish(stats);
            return Ok(None);
        }
        if self.cursor.is_none() && !out.is_full() {
            self.finish(stats);
        }
        // Per-batch Cout reporting: survives downstream LIMIT early exit.
        stats.cout_optional += out.len() as u64;
        stats.grow(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// FilterEval
// ---------------------------------------------------------------------------

/// Drops rows on which any FILTER expression does not evaluate to true.
pub struct FilterEval<'a> {
    child: BoxedOperator<'a>,
    filters: Vec<Expr>,
    var_col: HashMap<String, usize>,
    ds: &'a Dataset,
}

impl<'a> FilterEval<'a> {
    /// `var_names` maps variable slots to names (the engine's table); the
    /// filter evaluator wants name → column for the child schema.
    pub fn new(
        child: BoxedOperator<'a>,
        filters: Vec<Expr>,
        var_names: &[String],
        ds: &'a Dataset,
    ) -> Self {
        let var_col = child
            .schema()
            .iter()
            .enumerate()
            .map(|(col, &slot)| (var_names[slot].clone(), col))
            .collect();
        FilterEval { child, filters, var_col, ds }
    }
}

impl Operator for FilterEval<'_> {
    fn schema(&self) -> &[usize] {
        self.child.schema()
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let width = self.child.schema().len();
        let mut row_buf = vec![UNBOUND; width];
        while let Some(batch) = self.child.next_batch(stats)? {
            let mut out = Batch::with_schema(batch.schema().to_vec());
            for r in 0..batch.len() {
                batch.read_row(r, &mut row_buf);
                if row_passes(&row_buf, &self.filters, &self.var_col, self.ds) {
                    out.push_row(&row_buf);
                }
            }
            stats.shrink(batch.len());
            if !out.is_empty() {
                stats.grow(out.len());
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// Late materialization: keeps only the columns whose variable slots the
/// result actually needs, so the final drain (and the dictionary decode in
/// the results layer) never touches dead columns.
pub struct Project<'a> {
    child: BoxedOperator<'a>,
    /// Child column index per output column.
    keep: Vec<usize>,
    schema: Vec<usize>,
}

impl<'a> Project<'a> {
    /// Projects `child` onto `slots` (slots absent from the child schema
    /// are ignored; duplicates are dropped).
    pub fn new(child: BoxedOperator<'a>, slots: &[usize]) -> Self {
        let mut keep = Vec::new();
        let mut schema = Vec::new();
        for &slot in slots {
            if schema.contains(&slot) {
                continue;
            }
            if let Some(c) = child.schema().iter().position(|&v| v == slot) {
                keep.push(c);
                schema.push(slot);
            }
        }
        Project { child, keep, schema }
    }
}

impl Operator for Project<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let Some(batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let mut out = Batch::with_schema(self.schema.clone());
        for (k, &c) in self.keep.iter().enumerate() {
            out.columns[k].extend_from_slice(batch.column(c));
        }
        out.rows = batch.len();
        stats.shrink(batch.len());
        stats.grow(out.len());
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// UnionAll
// ---------------------------------------------------------------------------

/// Concatenates branches that bind the same variable set (validated at
/// prepare time); columns are remapped onto the first branch's order.
pub struct UnionAll<'a> {
    branches: Vec<(BoxedOperator<'a>, Vec<usize>)>,
    current: usize,
    schema: Vec<usize>,
}

impl<'a> UnionAll<'a> {
    /// Concatenates `branches` (all binding the same variable set).
    pub fn new(branches: Vec<BoxedOperator<'a>>) -> Self {
        assert!(!branches.is_empty(), "UNION with no branches");
        let schema: Vec<usize> = branches[0].schema().to_vec();
        let branches = branches
            .into_iter()
            .map(|b| {
                let mapping: Vec<usize> = schema
                    .iter()
                    .map(|&slot| {
                        b.schema().iter().position(|&v| v == slot).expect("same-var union branches")
                    })
                    .collect();
                (b, mapping)
            })
            .collect();
        UnionAll { branches, current: 0, schema }
    }
}

impl Operator for UnionAll<'_> {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        while self.current < self.branches.len() {
            let (branch, mapping) = &mut self.branches[self.current];
            match branch.next_batch(stats)? {
                Some(batch) => {
                    let mut out = Batch::with_schema(self.schema.clone());
                    for (k, &c) in mapping.iter().enumerate() {
                        out.columns[k].extend_from_slice(batch.column(c));
                    }
                    out.rows = batch.len();
                    // Straight transfer: same tuple count in, same out.
                    return Ok(Some(out));
                }
                None => self.current += 1,
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution: Exchange / ParallelSource / Gather
// ---------------------------------------------------------------------------

/// Morsels dispatched per wave. Deliberately a fixed constant — *not*
/// derived from the thread count — so the amount of work completed before
/// a downstream LIMIT stops pulling (and with it measured `Cout` and
/// `scanned`) is identical at any thread count. Early exit is therefore
/// wave-granular under parallel execution: at most one wave of surplus
/// work, bounded by `MORSELS_PER_WAVE × ExecConfig::morsel_rows` driving
/// rows.
pub const MORSELS_PER_WAVE: usize = 32;

/// One contiguous chunk of the driving scan's index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First driving-scan row (inclusive).
    pub start: usize,
    /// Last driving-scan row (exclusive).
    pub end: usize,
}

/// Partitions a scan extent into fixed-size [`Morsel`]s. The geometry
/// depends only on the extent and `morsel_rows`, never on the thread count
/// — the root of the engine's any-thread-count determinism.
#[derive(Debug, Clone)]
pub struct Exchange {
    extent: usize,
    morsel_rows: usize,
}

impl Exchange {
    /// An exchange over `extent` driving rows in chunks of `morsel_rows`.
    pub fn new(extent: usize, morsel_rows: usize) -> Self {
        Exchange { extent, morsel_rows: morsel_rows.max(1) }
    }

    /// Total number of morsels.
    pub fn morsel_count(&self) -> usize {
        self.extent.div_ceil(self.morsel_rows)
    }

    /// The `index`-th morsel (the last one may be short).
    pub fn morsel(&self, index: usize) -> Morsel {
        let start = index * self.morsel_rows;
        Morsel { start, end: (start + self.morsel_rows).min(self.extent) }
    }
}

/// Runs `job(0..count)` across the calling thread plus extra workers
/// claiming indexes from a shared cursor, and returns the results in index
/// order. This is the executor's only thread-spawn site: the extra workers
/// (at most `threads.min(count) - 1`) are leased non-blockingly from
/// `pool`, so concurrent queries share one process-wide thread budget. The
/// caller always participates in the schedule, so progress never depends
/// on pool availability — with no lease (or one thread, or one job)
/// everything runs inline through the same index schedule. Results land in
/// per-index slots, so output order is identical at any lease size.
fn scatter<T: Send>(
    count: usize,
    threads: usize,
    pool: &WorkerPool,
    job: &(dyn Fn(usize) -> T + Sync),
) -> Vec<T> {
    if threads <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let extra = pool.try_acquire(threads.min(count) - 1);
    if extra == 0 {
        return (0..count).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let v = job(i);
        *slots[i].lock().expect("result slot poisoned") = Some(v);
    };
    std::thread::scope(|scope| {
        for _ in 0..extra {
            scope.spawn(work);
        }
        work();
    });
    pool.release(extra);
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

/// One bind join of a parallel plan's streaming spine, bottom-up from the
/// driving scan: every worker stacks the same steps over its morsel.
pub struct SpineStep {
    /// The triple pattern probed per streamed row.
    pub pattern: PlannedPattern,
    /// Shared variable slots.
    pub join_vars: Vec<usize>,
    /// Plan signature path for `ExecStats::join_cards`.
    pub signature: String,
}

/// A morsel-parallel pipeline: the driving scan's [`Exchange`] plus the
/// bind-join steps every worker stacks on top of its morsel. Consumed
/// either through [`Gather`] (an [`Operator`] that merges worker batches in
/// morsel order) or through [`ParallelSource::process`] (per-morsel
/// folding for parallel aggregation).
pub struct ParallelSource<'a> {
    ds: &'a Dataset,
    driver: PlannedPattern,
    /// Index order of the driving scan (`None` = default): morsels are
    /// slices of *this* order, so their in-order concatenation reproduces
    /// the serial ordered scan exactly.
    driver_order: Option<IndexOrder>,
    steps: Vec<SpineStep>,
    exchange: Exchange,
    threads: usize,
    /// Pool the wave workers are leased from (resolved from the config at
    /// construction).
    pool: &'static WorkerPool,
    bucket: CoutBucket,
    schema: Vec<usize>,
}

impl<'a> ParallelSource<'a> {
    /// Assembles a source from the driving pattern and its spine steps.
    pub fn new(
        ds: &'a Dataset,
        driver: PlannedPattern,
        driver_order: Option<IndexOrder>,
        steps: Vec<SpineStep>,
        cfg: &ExecConfig,
        bucket: CoutBucket,
    ) -> Self {
        let extent = if driver.has_absent() { 0 } else { ds.count(driver.access()) };
        let exchange = Exchange::new(extent, cfg.morsel_rows);
        // A bind join appends its pattern's new columns to the left's
        // (`BindJoin::new`); the debug assertion pins the two together.
        let mut schema = driver.var_slots();
        for v in steps.iter().flat_map(|step| step.pattern.var_slots()) {
            if !schema.contains(&v) {
                schema.push(v);
            }
        }
        debug_assert_eq!(
            schema,
            Self::assemble(ds, &driver, driver_order, &steps, bucket, Morsel { start: 0, end: 0 })
                .schema(),
            "the spine schema must mirror the assembled operators' layout"
        );
        ParallelSource {
            ds,
            driver,
            driver_order,
            steps,
            exchange,
            threads: cfg.threads.max(1),
            pool: cfg.worker_pool(),
            bucket,
            schema,
        }
    }

    /// Output schema (identical to the serial lowering's root schema).
    pub fn schema(&self) -> &[usize] {
        &self.schema
    }

    /// One worker pipeline over one morsel.
    fn assemble(
        ds: &'a Dataset,
        driver: &PlannedPattern,
        driver_order: Option<IndexOrder>,
        steps: &[SpineStep],
        bucket: CoutBucket,
        m: Morsel,
    ) -> BoxedOperator<'a> {
        let scan: BoxedOperator<'a> =
            Box::new(IndexScan::morsel(ds, driver, driver_order, m.start, m.end));
        steps.iter().fold(scan, |op, step| {
            let (pattern, sig) = (step.pattern.clone(), step.signature.clone());
            Box::new(BindJoin::new(ds, op, pattern, &step.join_vars, sig, bucket))
        })
    }

    /// The wave of morsels starting at `next`, or `None` once every morsel
    /// has run.
    fn wave(&self, next: usize) -> Option<Range<usize>> {
        let count = self.exchange.morsel_count();
        (next < count).then(|| next..(next + MORSELS_PER_WAVE).min(count))
    }

    /// Runs one wave of morsels across the pool, each through `job` over a
    /// fresh pipeline with private [`ExecStats`]. The workers' stats are
    /// absorbed into `stats` and the results returned in morsel-index
    /// order; the first `Err` in that order wins, so which error surfaces
    /// is independent of the thread count.
    fn run_wave<T: Send>(
        &self,
        wave: Range<usize>,
        stats: &mut ExecStats,
        job: &(dyn Fn(BoxedOperator<'a>, &mut ExecStats) -> Result<T, ExecError> + Sync),
    ) -> Result<Vec<T>, ExecError> {
        let base = wave.start;
        let parts = scatter(wave.len(), self.threads, self.pool, &|i| {
            let m = self.exchange.morsel(base + i);
            let op = Self::assemble(
                self.ds,
                &self.driver,
                self.driver_order,
                &self.steps,
                self.bucket,
                m,
            );
            let mut st = ExecStats::default();
            (job(op, &mut st), st)
        });
        let (values, worker_stats): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        stats.absorb_workers(worker_stats);
        values.into_iter().collect()
    }

    /// Drains every morsel through `job` (a fresh pipeline per morsel with
    /// its own stats), wave by wave, handing each result to `sink` in
    /// morsel-index order — the parallel-aggregation driver: `job` folds a
    /// morsel into a partial accumulator, `sink` merges partials in the
    /// deterministic order.
    pub fn process<T: Send>(
        self,
        stats: &mut ExecStats,
        job: impl Fn(BoxedOperator<'a>, &mut ExecStats) -> Result<T, ExecError> + Sync,
        mut sink: impl FnMut(T, &mut ExecStats),
    ) -> Result<(), ExecError> {
        let mut next = 0;
        while let Some(wave) = self.wave(next) {
            next = wave.end;
            for v in self.run_wave(wave, stats, &job)? {
                sink(v, stats);
            }
        }
        Ok(())
    }
}

/// The consumer end of a morsel-parallel pipeline: pulls like any other
/// [`Operator`], internally dispatching waves of morsels to the pool and
/// re-emitting their batches **by morsel index** (never worker arrival
/// order), so downstream operators observe exactly the serial row order.
/// A downstream LIMIT that stops pulling stops the workers at the next
/// wave boundary.
pub struct Gather<'a> {
    source: ParallelSource<'a>,
    next_morsel: usize,
    buffer: VecDeque<Batch>,
}

impl<'a> Gather<'a> {
    /// Wraps a parallel source for pull-based consumption.
    pub fn new(source: ParallelSource<'a>) -> Self {
        Gather { source, next_morsel: 0, buffer: VecDeque::new() }
    }
}

impl Operator for Gather<'_> {
    fn schema(&self) -> &[usize] {
        self.source.schema()
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        loop {
            if let Some(b) = self.buffer.pop_front() {
                return Ok(Some(b));
            }
            let Some(wave) = self.source.wave(self.next_morsel) else {
                return Ok(None);
            };
            self.next_morsel = wave.end;
            let per_morsel = self.source.run_wave(wave, stats, &|mut op, st| {
                let mut batches = Vec::new();
                while let Some(b) = op.next_batch(st)? {
                    batches.push(b);
                }
                Ok(batches)
            })?;
            self.buffer.extend(per_morsel.into_iter().flatten());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Physical, PlanNode, RootGoal};
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    /// A chain dataset big enough to cross batch boundaries.
    fn chain_dataset(n: usize) -> Dataset {
        let mut b = StoreBuilder::new();
        let next = Term::iri("p/next");
        let label = Term::iri("p/label");
        for i in 0..n {
            b.insert(Term::iri(format!("n/{i}")), next.clone(), Term::iri(format!("n/{}", i + 1)));
            if i % 2 == 0 {
                b.insert(Term::iri(format!("n/{i}")), label.clone(), Term::integer(i as i64));
            }
        }
        b.freeze()
    }

    fn pattern(ds: &Dataset, pred: &str, s: usize, o: usize, idx: usize) -> PlannedPattern {
        let p = ds.lookup(&Term::iri(pred)).unwrap();
        PlannedPattern { idx, slots: [Slot::Var(s), Slot::Bound(p), Slot::Var(o)] }
    }

    fn sorted_rows(b: &Bindings) -> Vec<Vec<Id>> {
        let mut rows: Vec<Vec<Id>> = b.iter().map(|r| r.to_vec()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn index_scan_batches_cover_all_rows() {
        let n = 3 * BATCH_SIZE + 17;
        let ds = chain_dataset(n);
        let mut stats = ExecStats::default();
        let mut scan = IndexScan::new(&ds, &pattern(&ds, "p/next", 0, 1, 0));
        let mut total = 0;
        let mut batches = 0;
        while let Some(batch) = scan.next_batch(&mut stats).unwrap() {
            assert!(!batch.is_empty());
            assert!(batch.len() <= BATCH_SIZE);
            total += batch.len();
            batches += 1;
        }
        assert_eq!(total, n);
        assert!(batches >= 4, "expected multiple batches, got {batches}");
        assert_eq!(stats.scanned, n as u64);
        assert_eq!(stats.cout, 0);
        // Exhausted operators stay exhausted.
        assert!(scan.next_batch(&mut stats).unwrap().is_none());
    }

    #[test]
    fn hash_join_produces_expected_chain_rows() {
        let n = 500;
        let ds = chain_dataset(n);
        let scan = |s, o, idx| {
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/next", s, o, idx))) as BoxedOperator<'_>
        };
        let mut stats = ExecStats::default();
        let join = HashJoinProbe::new(
            scan(0, 1, 0),
            scan(1, 2, 1),
            vec![1],
            true,
            "HJ(S0,S1)".into(),
            CoutBucket::Required,
        );
        let got = drain(Box::new(join), &mut stats).unwrap();
        // Chain i→i+1 for i in 0..n: two-hop paths exist for i in 0..n-1.
        assert_eq!(got.cols(), &[0, 1, 2]);
        assert_eq!(got.len(), n - 1);
        assert_eq!(stats.cout, (n - 1) as u64);
        assert_eq!(stats.join_cards.len(), 1);
        assert_eq!(stats.join_cards[0].1, (n - 1) as u64);
    }

    #[test]
    fn hash_join_build_side_choice_is_transparent() {
        let ds = chain_dataset(300);
        let scan = |s, o, idx| {
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/next", s, o, idx))) as BoxedOperator<'_>
        };
        for build_right in [false, true] {
            let mut stats = ExecStats::default();
            let join = HashJoinProbe::new(
                scan(0, 1, 0),
                scan(1, 2, 1),
                vec![1],
                build_right,
                "sig".into(),
                CoutBucket::Required,
            );
            let out = drain(Box::new(join), &mut stats).unwrap();
            assert_eq!(out.cols(), &[0, 1, 2], "build_right={build_right}");
            assert_eq!(out.len(), 299, "build_right={build_right}");
            assert_eq!(stats.cout, 299);
        }
    }

    #[test]
    fn bind_join_matches_hash_join() {
        let ds = chain_dataset(400);
        let scan = |s, o, idx| {
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/next", s, o, idx))) as BoxedOperator<'_>
        };
        let mut hash_stats = ExecStats::default();
        let via_hash = drain(
            Box::new(HashJoinProbe::new(
                scan(0, 1, 0),
                scan(1, 2, 1),
                vec![1],
                true,
                "sig".into(),
                CoutBucket::Required,
            )),
            &mut hash_stats,
        )
        .unwrap();
        let mut bind_stats = ExecStats::default();
        let via_bind = drain(
            Box::new(BindJoin::new(
                &ds,
                scan(0, 1, 0),
                pattern(&ds, "p/next", 1, 2, 1),
                &[1],
                "sig".into(),
                CoutBucket::Required,
            )),
            &mut bind_stats,
        )
        .unwrap();
        assert_eq!(via_bind.cols(), via_hash.cols());
        assert_eq!(sorted_rows(&via_bind), sorted_rows(&via_hash));
        assert_eq!(bind_stats.cout, hash_stats.cout);
        // The bind join only touches the ranges its left rows select, so it
        // scans fewer (or equal) triples than materializing the full scan.
        assert!(bind_stats.scanned <= hash_stats.scanned);
    }

    /// Fails on its first pull: the stand-in for any operator whose
    /// execution errors (spill I/O is the only real source).
    struct FailingInput {
        schema: Vec<usize>,
    }

    impl Operator for FailingInput {
        fn schema(&self) -> &[usize] {
            &self.schema
        }

        fn next_batch(&mut self, _stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
            Err(ExecError {
                op: "read spill run",
                path: "run-0".into(),
                message: "injected failure".into(),
            })
        }
    }

    /// A [`FailingInput`] over slots 0, 1, 3.
    fn failing_input<'a>() -> BoxedOperator<'a> {
        Box::new(FailingInput { schema: vec![0, 1, 3] })
    }

    #[test]
    fn errors_cross_every_streaming_operator_unchanged() {
        use crate::modifiers::{Distinct, RowKeys, Slice, Sort, TopK};
        let ds = chain_dataset(50);
        let want = drain(failing_input(), &mut ExecStats::default()).unwrap_err();
        let failing = failing_input;
        // `p/label` on slots 0, 2: joins the failing side on slot 0.
        let labels = || {
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/label", 0, 2, 1))) as BoxedOperator<'_>
        };
        let sig = || "sig".to_string();
        let req = CoutBucket::Required;
        // A healthy UNION branch over the failing side's slots {0, 1, 3}.
        let healthy_branch = || {
            let next = Box::new(IndexScan::new(&ds, &pattern(&ds, "p/next", 0, 1, 0)));
            let label = Box::new(IndexScan::new(&ds, &pattern(&ds, "p/label", 0, 3, 1)));
            Box::new(HashJoinProbe::new(next, label, vec![0], true, sig(), req))
                as BoxedOperator<'_>
        };
        let var_names: Vec<String> = (0..4).map(|v| format!("v{v}")).collect();
        let cases: Vec<(&str, BoxedOperator<'_>)> = vec![
            ("FilterEval", Box::new(FilterEval::new(failing(), Vec::new(), &var_names, &ds))),
            ("Project", Box::new(Project::new(failing(), &[0]))),
            ("Distinct", Box::new(Distinct::on_cols(failing(), vec![0, 1, 2]))),
            ("Slice", Box::new(Slice::new(failing(), 0, Some(10)))),
            ("TopK", Box::new(TopK::new(failing(), RowKeys::cols(&ds, vec![(0, false)]), 0, 5))),
            (
                "Sort",
                Box::new(Sort::new(failing(), RowKeys::cols(&ds, vec![(0, false)]), None, None)),
            ),
            (
                "HashJoinProbe (build child)",
                Box::new(HashJoinProbe::new(labels(), failing(), vec![0], true, sig(), req)),
            ),
            (
                "HashJoinProbe (probe child)",
                Box::new(HashJoinProbe::new(failing(), labels(), vec![0], true, sig(), req)),
            ),
            (
                "BindJoin (left child)",
                Box::new(BindJoin::new(
                    &ds,
                    failing(),
                    pattern(&ds, "p/label", 0, 2, 1),
                    &[0],
                    sig(),
                    req,
                )),
            ),
            ("LeftOuterJoin (left)", Box::new(LeftOuterJoin::new(failing(), labels(), vec![0]))),
            ("LeftOuterJoin (right)", Box::new(LeftOuterJoin::new(labels(), failing(), vec![0]))),
            ("UnionAll (a branch)", Box::new(UnionAll::new(vec![healthy_branch(), failing()]))),
        ];
        for (name, op) in cases {
            let got = drain(op, &mut ExecStats::default());
            assert_eq!(got.err().as_ref(), Some(&want), "{name} must hand the error up unchanged");
        }
    }

    #[test]
    fn index_scan_with_order_delivers_alternative_sort() {
        let ds = chain_dataset(500);
        let pat = pattern(&ds, "p/next", 0, 1, 0);
        // Default (Pso): sorted by subject column; Pos: sorted by object.
        let mut stats = ExecStats::default();
        let mut scan = IndexScan::with_order(&ds, &pat, Some(IndexOrder::Pos));
        let mut last: Option<Id> = None;
        while let Some(batch) = scan.next_batch(&mut stats).unwrap() {
            let obj_col = batch.schema().iter().position(|&v| v == 1).unwrap();
            for r in 0..batch.len() {
                let v = batch.value(r, obj_col);
                if let Some(prev) = last {
                    assert!(prev <= v, "POS scan must deliver objects ascending");
                }
                last = Some(v);
            }
        }
        assert_eq!(stats.scanned, 500);
    }

    #[test]
    fn left_outer_join_pads_unmatched() {
        let ds = chain_dataset(10);
        let people =
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/next", 0, 1, 0))) as BoxedOperator<'_>;
        let labels =
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/label", 0, 2, 1))) as BoxedOperator<'_>;
        let mut stats = ExecStats::default();
        let out = drain(Box::new(LeftOuterJoin::new(people, labels, vec![0])), &mut stats).unwrap();
        assert_eq!(out.len(), 10); // every left row survives
        let label_col = out.col_of(2).unwrap();
        let unbound = out.iter().filter(|r| r[label_col] == UNBOUND).count();
        assert_eq!(unbound, 5); // odd nodes have no label
        assert_eq!(stats.cout_optional, 10);
        assert_eq!(stats.cout, 0);
    }

    #[test]
    fn filter_and_project_stream_through() {
        let ds = chain_dataset(50);
        let labels =
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/label", 0, 1, 0))) as BoxedOperator<'_>;
        let var_names = vec!["n".to_string(), "l".to_string()];
        let filter = crate::ast::Expr::Binary(
            crate::ast::BinOp::Ge,
            Box::new(crate::ast::Expr::Var("l".into())),
            Box::new(crate::ast::Expr::Const(Term::integer(20))),
        );
        let filtered = Box::new(FilterEval::new(labels, vec![filter], &var_names, &ds));
        let projected = Box::new(Project::new(filtered, &[1]));
        let mut stats = ExecStats::default();
        let out = drain(projected, &mut stats).unwrap();
        assert_eq!(out.cols(), &[1]);
        // labels 20, 22, ..., 48 → 15 rows
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn union_all_concatenates_and_remaps() {
        let ds = chain_dataset(20);
        let a =
            Box::new(IndexScan::new(&ds, &pattern(&ds, "p/label", 0, 1, 0))) as BoxedOperator<'_>;
        // Same variable set, but the pattern binds them in reversed slot roles.
        let p = ds.lookup(&Term::iri("p/label")).unwrap();
        let rev = PlannedPattern { idx: 1, slots: [Slot::Var(1), Slot::Bound(p), Slot::Var(0)] };
        let b = Box::new(IndexScan::new(&ds, &rev)) as BoxedOperator<'_>;
        let mut stats = ExecStats::default();
        let union = UnionAll::new(vec![a, b]);
        assert_eq!(union.schema(), &[0, 1]);
        let out = drain(Box::new(union), &mut stats).unwrap();
        assert_eq!(out.len(), 20);
    }

    /// What the physical pass records for `plan` with no modifier goal.
    fn recorded(plan: &PlanNode, ds: &Dataset) -> Physical {
        plan.physical(ds, &RootGoal::default())
    }

    /// The serial lowering of `plan`'s recorded tree.
    fn serial_op<'a>(plan: &PlanNode, ds: &'a Dataset) -> BoxedOperator<'a> {
        recorded(plan, ds).node.lower(ds, CoutBucket::Required)
    }

    /// The morsel lowering of `plan`'s recorded tree, when its spine
    /// qualifies for morsels under `cfg`.
    fn morsel_source<'a>(
        plan: &PlanNode,
        ds: &'a Dataset,
        cfg: &ExecConfig,
    ) -> Option<ParallelSource<'a>> {
        let rec = recorded(plan, ds);
        plan.morselizes(cfg, &rec).then(|| rec.node.lower_morsels(ds, CoutBucket::Required, cfg))
    }

    /// Forces morselization regardless of extent/estimate size.
    fn tiny_morsel_cfg(threads: usize, morsel_rows: usize) -> ExecConfig {
        ExecConfig {
            threads,
            morsel_rows,
            min_driver_rows: 1,
            min_est_cost: 0.0,
            mem_budget_rows: None,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn exchange_partitions_cover_extent_exactly() {
        let ex = Exchange::new(100, 32);
        assert_eq!(ex.morsel_count(), 4);
        let mut covered = 0;
        for i in 0..ex.morsel_count() {
            let m = ex.morsel(i);
            assert_eq!(m.start, covered);
            covered = m.end;
        }
        assert_eq!(covered, 100);
        assert_eq!(Exchange::new(0, 32).morsel_count(), 0);
        // Degenerate morsel size clamps to 1 row per morsel.
        assert_eq!(Exchange::new(3, 0).morsel_count(), 3);
    }

    #[test]
    fn gather_reproduces_serial_rows_order_and_cout_at_any_thread_count() {
        let n = 3 * BATCH_SIZE + 311;
        let ds = chain_dataset(n);
        let scan_node = |s, o, idx| PlanNode::Scan {
            pattern: pattern(&ds, "p/next", s, o, idx),
            est_card: n as f64,
        };
        // Two-join chain: the pass records two bind joins over the driving
        // scan, a spine of two steps.
        let plan = PlanNode::Join {
            left: Box::new(PlanNode::Join {
                left: Box::new(scan_node(0, 1, 0)),
                right: Box::new(scan_node(1, 2, 1)),
                join_vars: vec![1],
                est_card: n as f64,
            }),
            right: Box::new(scan_node(2, 3, 2)),
            join_vars: vec![2],
            est_card: n as f64,
        };
        let mut serial_stats = ExecStats::default();
        let serial = drain(serial_op(&plan, &ds), &mut serial_stats).unwrap();

        let mut reference: Option<(Vec<Vec<Id>>, u64, u64)> = None;
        for threads in [1, 2, 4] {
            let cfg = tiny_morsel_cfg(threads, 97);
            let mut stats = ExecStats::default();
            let src = morsel_source(&plan, &ds, &cfg).expect("forced config qualifies");
            let got = drain(Box::new(Gather::new(src)), &mut stats).unwrap();
            // Bit-identical to the serial pipeline: same rows, same order.
            let rows: Vec<Vec<Id>> = got.iter().map(|r| r.to_vec()).collect();
            let serial_rows: Vec<Vec<Id>> = serial.iter().map(|r| r.to_vec()).collect();
            assert_eq!(rows, serial_rows, "threads={threads}");
            assert_eq!(stats.cout, serial_stats.cout, "threads={threads}");
            assert_eq!(stats.scanned, serial_stats.scanned, "threads={threads}");
            // And identical across thread counts, peak included.
            let key = (rows, stats.cout, stats.peak_tuples);
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn gather_stops_dispatching_waves_when_not_pulled() {
        // Every even node carries a label: 4 waves of 64-row morsels.
        let n = MORSELS_PER_WAVE * 64 * 8;
        let ds = chain_dataset(n);
        let plan = PlanNode::Join {
            left: Box::new(PlanNode::Scan {
                pattern: pattern(&ds, "p/label", 0, 1, 0),
                est_card: (n / 2) as f64,
            }),
            right: Box::new(PlanNode::Scan {
                pattern: pattern(&ds, "p/next", 0, 2, 1),
                est_card: n as f64,
            }),
            join_vars: vec![0],
            est_card: (n / 2) as f64,
        };
        let cfg = tiny_morsel_cfg(4, 64);
        let mut stats = ExecStats::default();
        let src = morsel_source(&plan, &ds, &cfg).expect("forced config qualifies");
        let mut gather = Gather::new(src);
        // Pull one batch, then stop — as a satisfied LIMIT would.
        assert!(gather.next_batch(&mut stats).unwrap().is_some());
        // At most one wave of driving rows was scanned, each probing its
        // one `p/next` triple — a quarter of a full drain's `n`.
        let wave_rows = (MORSELS_PER_WAVE * 64) as u64;
        assert!(
            stats.scanned <= 2 * wave_rows,
            "scanned {} exceeds one wave of {wave_rows} driving rows and their probes",
            stats.scanned
        );
    }

    #[test]
    fn pipeline_peak_stays_below_materialization_on_multi_join() {
        let n = 4000usize;
        let ds = chain_dataset(n);
        let scan_node = |s, o, idx| PlanNode::Scan {
            pattern: pattern(&ds, "p/next", s, o, idx),
            est_card: n as f64,
        };
        // Three-hop chain join: two intermediate results of ~n rows each.
        let plan = PlanNode::Join {
            left: Box::new(PlanNode::Join {
                left: Box::new(scan_node(0, 1, 0)),
                right: Box::new(scan_node(1, 2, 1)),
                join_vars: vec![1],
                est_card: n as f64,
            }),
            right: Box::new(scan_node(2, 3, 2)),
            join_vars: vec![2],
            est_card: n as f64,
        };
        let mut stream_stats = ExecStats::default();
        let got = drain(serial_op(&plan, &ds), &mut stream_stats).unwrap();

        // Three-hop paths exist for i in 0..n-2; Cout sums both joins.
        assert_eq!(got.len(), n - 2);
        assert_eq!(stream_stats.cout, ((n - 1) + (n - 2)) as u64);
        // A materializing executor would hold at least both scan outputs
        // plus both join outputs (~4n tuples) at its peak; the streaming
        // pipeline (estimate-selected bind joins + batches) must stay well
        // below even a single materialized intermediate, excluding the
        // drained output rows themselves (which any executor must hold).
        let output_rows = got.len() as u64;
        assert!(
            stream_stats.peak_tuples < output_rows + (n as u64) / 2,
            "streaming peak {} should stay below output ({output_rows}) + n/2",
            stream_stats.peak_tuples,
        );
    }
}
