//! Shared execution substrate: binding tables, per-run instrumentation and
//! row-level filter evaluation.
//!
//! The batched Volcano pipeline in [`crate::physical`] (and its modifier
//! operators in [`crate::modifiers`]) builds on this module. Execution is
//! fully instrumented: every join reports its output cardinality into
//! [`ExecStats`], whose sum is the *measured* `Cout` of the run — the
//! quantity the paper correlates with wall-clock time (§III, ≈85% Pearson)
//! — alongside the peak number of intermediate tuples resident at once,
//! the memory-side metric that distinguishes streaming from materializing
//! execution.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use parambench_rdf::dict::Id;
use parambench_rdf::store::Dataset;

use crate::ast::{BinOp, Expr};

/// Sentinel id marking an unbound value (from OPTIONAL mismatches).
pub const UNBOUND: Id = Id(u32::MAX);

/// Configuration of the morsel-driven parallel execution layer
/// ([`crate::physical::Gather`]) and the out-of-core memory budget
/// ([`crate::spill`]).
///
/// Only a bind-join spine runs over morsels (a chain of bind joins over
/// one driving scan, [`crate::plan::PhysNode::is_bind_spine`]); a plan
/// holding a hash join always lowers serially. `threads` is purely an
/// *execution* knob: the decision to morselize a plan, the morsel geometry
/// and therefore the produced rows, their order and every deterministic
/// counter (`cout`, `scanned`) are identical at any thread count — only
/// wall-clock time changes. The *lowering* decision is taken from the
/// recorded join methods, cardinality estimates and exact scan extents
/// (`min_driver_rows`, `min_est_cost`), never from `threads`, so a run at
/// 1 thread and a run at 8 threads execute the same physical plan.
///
/// `mem_budget_rows` extends the same contract to memory: rows, row order
/// and every deterministic counter are identical at any budget — a tighter
/// budget only moves blocking modifier state (GROUP BY accumulators, the
/// `Sort` operator's buffer) to disk. Float SUM/AVG *values* are bit-identical
/// across thread counts, and across budgets **for one fold strategy**
/// ([`crate::plan::Fold`]): the spill layer preserves per-group fold order
/// at any budget, but setting a budget at all swaps the worker-side
/// partial fold of a morselized plan for the sequential external fold —
/// a different association of the same sum, so such a pair of runs may
/// differ in the last digits (equal within 1e-9 relative; integral values
/// are unaffected).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Per-query worker cap. `1` runs the morsels inline on the calling
    /// thread (no spawning) but through the same morsel schedule. Values
    /// above 1 are a *cap*, not a reservation: the extra workers beyond the
    /// calling thread are leased non-blockingly from [`ExecConfig::pool`],
    /// so concurrent queries share one process-wide thread budget instead
    /// of multiplying it.
    pub threads: usize,
    /// Driving-scan rows per morsel.
    pub morsel_rows: usize,
    /// Minimum driving-scan extent before a plan is morselized; below it
    /// the exact serial lowering runs (fan-out would cost more than it
    /// buys, and batch-granular LIMIT early exit is tighter than
    /// wave-granular).
    pub min_driver_rows: usize,
    /// Minimum estimated plan cost (`est_cout + est_card`) before
    /// parallel lowering is considered.
    pub min_est_cost: f64,
    /// Memory budget, in resident rows, for blocking modifier state:
    /// GROUP BY accumulator entries and the `Sort` operator's buffer rows.
    /// `None` means unlimited (everything stays in memory). When the
    /// budget is exceeded, grouped aggregation hash-partitions overflow
    /// groups to spill files and a real sort writes sorted runs and
    /// merges them (loser-tree k-way merge) — see [`crate::spill`]. The default reads the [`MEM_BUDGET_ENV`]
    /// environment variable, so a whole test suite can be forced onto the
    /// spill path without code changes.
    ///
    /// Two scope notes. State bounded by *output* cardinality stays in
    /// memory regardless: the TopK heap (`offset + limit` rows), DISTINCT
    /// value sets, and the retained-id sets of `FUNC(DISTINCT ?x)`
    /// aggregates on groups that are already resident. A DISTINCT under
    /// unprojected sort keys dedups after the sort, so its input is the
    /// sort's and spills with it. And setting any
    /// budget routes grouped aggregation through the serial budgeted fold
    /// instead of the worker-side parallel fold merge (whose master holds
    /// every group — exactly what the budget must bound); a bind spine
    /// still fans out, so prefer `None` when memory is genuinely
    /// unconstrained.
    pub mem_budget_rows: Option<usize>,
    /// The worker pool extra execution threads are leased from. `None`
    /// (the default) means the process-wide [`global_pool`]; the serving
    /// layer installs its own pool so a whole server shares one thread
    /// budget. Like `threads`, the pool never changes produced rows or
    /// deterministic counters — an exhausted pool only means morsels run
    /// on fewer workers (down to the calling thread alone).
    pub pool: Option<&'static WorkerPool>,
}

/// Environment variable overriding the default
/// [`ExecConfig::mem_budget_rows`] (e.g. `SPARQL_MEM_BUDGET_ROWS=8` forces
/// tiny budgets — the CI job that exercises the spill path on every push).
/// Unset or unparsable values mean unlimited.
pub const MEM_BUDGET_ENV: &str = "SPARQL_MEM_BUDGET_ROWS";

/// The default memory budget, read fresh from [`MEM_BUDGET_ENV`] on every
/// call. Each [`ExecConfig`] construction therefore observes the
/// environment as it stands *then*, so engines built at different times in
/// one process can carry different budgets (a process-wide cache would
/// freeze the first reading and make test outcomes depend on execution
/// order).
pub fn env_mem_budget_rows() -> Option<usize> {
    std::env::var(MEM_BUDGET_ENV).ok().and_then(|v| v.parse().ok())
}

impl Default for ExecConfig {
    /// Serial by default: one worker, morselization only for plans whose
    /// driving scan and estimated cost are large enough to amortize the
    /// wave machinery, memory budget from [`MEM_BUDGET_ENV`] (unlimited
    /// when unset).
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            morsel_rows: 8192,
            min_driver_rows: 16384,
            min_est_cost: 4096.0,
            mem_budget_rows: env_mem_budget_rows(),
            pool: None,
        }
    }
}

impl ExecConfig {
    /// The default geometry with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads: threads.max(1), ..ExecConfig::default() }
    }

    /// The default geometry with one worker per available hardware thread.
    pub fn parallel() -> Self {
        Self::with_threads(available_parallelism())
    }

    /// The pool extra workers are leased from: the configured one, or the
    /// process-wide [`global_pool`] when none was installed.
    pub fn worker_pool(&self) -> &'static WorkerPool {
        self.pool.unwrap_or_else(global_pool)
    }
}

/// Hardware threads available to this process (1 when undetectable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A process-wide budget of *extra* worker threads for morsel execution.
///
/// Every thread-spawn site in the executor (`physical::scatter`) leases its
/// workers from a pool before spawning, so N concurrent queries share one
/// budget instead of each spawning `threads - 1` workers of their own. The
/// lease is non-blocking and the calling thread always participates in the
/// morsel schedule, so an exhausted pool degrades a query to fewer workers
/// (down to fully inline) — it never deadlocks or queues work. Because
/// morsel geometry and result assembly are thread-count-independent (see
/// [`ExecConfig::threads`]), the lease size never changes produced rows or
/// deterministic counters, only wall-clock time.
///
/// Accounting is tracked for observability and tests: `peak_in_use` proves
/// (without timing) that aggregate concurrent workers never exceeded the
/// capacity, and `deferred` counts leases that got fewer workers than
/// requested.
#[derive(Debug)]
pub struct WorkerPool {
    capacity: usize,
    state: Mutex<PoolState>,
}

#[derive(Debug, Default)]
struct PoolState {
    in_use: usize,
    peak_in_use: usize,
    granted: u64,
    deferred: u64,
}

/// A snapshot of a [`WorkerPool`]'s accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Maximum extra workers that may be leased at once.
    pub capacity: usize,
    /// Extra workers currently leased.
    pub in_use: usize,
    /// Peak of `in_use` over the pool's lifetime — the stats-side proof
    /// that concurrent queries never exceeded the thread budget.
    pub peak_in_use: usize,
    /// Total workers granted across all leases.
    pub granted: u64,
    /// Leases that received fewer workers than requested (including zero)
    /// because the pool was partly or fully exhausted.
    pub deferred: u64,
}

impl WorkerPool {
    /// A pool allowing up to `capacity` extra workers at once. Capacity 0
    /// is valid: every query runs inline on its calling thread.
    pub fn new(capacity: usize) -> Self {
        WorkerPool { capacity, state: Mutex::new(PoolState::default()) }
    }

    /// A leaked (`'static`) pool — the form [`ExecConfig::pool`] accepts.
    /// Intended for long-lived servers and tests; each call leaks one
    /// small allocation for the rest of the process.
    pub fn leak(capacity: usize) -> &'static WorkerPool {
        Box::leak(Box::new(WorkerPool::new(capacity)))
    }

    /// Maximum extra workers that may be leased at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Leases up to `want` extra workers without blocking, returning the
    /// grant (possibly 0). Each granted worker must be returned with
    /// [`WorkerPool::release`].
    pub fn try_acquire(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut st = self.state();
        let grant = want.min(self.capacity - st.in_use);
        if grant < want {
            st.deferred += 1;
        }
        st.in_use += grant;
        st.peak_in_use = st.peak_in_use.max(st.in_use);
        st.granted += grant as u64;
        grant
    }

    /// Returns `n` previously leased workers to the pool.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut st = self.state();
        debug_assert!(n <= st.in_use, "released more workers than leased");
        st.in_use = st.in_use.saturating_sub(n);
    }

    /// The accounting, recovered from poisoning: every update leaves it
    /// consistent, so a panic while the lock is held (the `debug_assert!`
    /// in [`WorkerPool::release`]) must not fail every later morselized
    /// query in the process.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the pool's accounting.
    pub fn stats(&self) -> PoolStats {
        let st = self.state();
        PoolStats {
            capacity: self.capacity,
            in_use: st.in_use,
            peak_in_use: st.peak_in_use,
            granted: st.granted,
            deferred: st.deferred,
        }
    }
}

/// The process-wide default [`WorkerPool`], sized to the hardware
/// parallelism (minimum 2 so parallel code paths stay exercised even on
/// single-CPU machines). Used by every [`ExecConfig`] that doesn't install
/// its own pool.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(available_parallelism().max(2)))
}

/// A table of variable bindings: `cols[i]` is the variable slot stored in
/// column `i`; rows are flattened row-major.
///
/// Zero-column tables are meaningful: a fully bound triple pattern (an
/// existence check) produces a table with no columns and 0 or more abstract
/// rows, and joining with it keeps or clears the other side — so the row
/// count is tracked explicitly rather than derived from the data length.
#[derive(Debug, Clone, PartialEq)]
pub struct Bindings {
    cols: Vec<usize>,
    data: Vec<Id>,
    rows: usize,
}

impl Bindings {
    /// An empty table with the given column schema.
    pub fn empty(cols: Vec<usize>) -> Self {
        Bindings { cols, data: Vec::new(), rows: 0 }
    }

    /// The variable slot of each column.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice (empty slice for zero-column tables).
    pub fn row(&self, i: usize) -> &[Id] {
        debug_assert!(i < self.rows);
        let w = self.cols.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Column index of variable slot `var`, if present.
    pub fn col_of(&self, var: usize) -> Option<usize> {
        self.cols.iter().position(|&c| c == var)
    }

    /// Appends a row (must match the schema width).
    pub fn push_row(&mut self, row: &[Id]) {
        debug_assert_eq!(row.len(), self.cols.len());
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Iterates rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Id]> {
        (0..self.rows).map(|i| self.row(i))
    }
}

/// Per-execution counters — nothing else: an execution failure is never
/// recorded here but returned as `Err` by the pull that hit it
/// ([`crate::physical::Operator::next_batch`]).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Sum of output cardinalities of all inner joins of the required BGP —
    /// the measured `Cout` of the plan.
    pub cout: u64,
    /// Additional intermediate tuples from OPTIONAL (left-outer) joins.
    pub cout_optional: u64,
    /// Output cardinality of every join, paired with the join's signature
    /// path (for debugging plan behaviour).
    pub join_cards: Vec<(String, u64)>,
    /// Rows scanned out of the store (sum over scans).
    pub scanned: u64,
    /// Rows that passed through a *sorting* stage (the TopK heap, the
    /// `Sort` operator, the sort of an aggregate's group table). Zero
    /// proves the run's delivered order made every sort
    /// unnecessary — the order-elimination acceptance metric.
    pub sorted_rows: u64,
    /// Rows materialized into hash-join build tables (shared parallel
    /// builds and the OPTIONAL build side included). Zero proves the plan
    /// ran entirely on streaming merge/bind joins.
    pub build_rows: u64,
    /// Peak number of intermediate tuples resident at once (materialized
    /// tables, hash-join build sides, in-flight batches). `Cout` measures
    /// how many intermediate tuples a plan *produces*; this measures how
    /// many it must *hold* — the quantity streaming execution minimizes.
    pub peak_tuples: u64,
    /// Rows written to spill files by the out-of-core layer
    /// ([`crate::spill`]): overflow GROUP BY input rows plus external-sort
    /// run rows. Zero when the run stayed within its memory budget.
    pub spilled_rows: u64,
    /// Spill run files written (group partitions + sort runs).
    pub spill_runs: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Live-update overlay delta entries (adds + tombstones) consulted by
    /// the run's index scans. Zero proves every scan took the
    /// overlay-free fast path — the empty-overlay zero-overhead metric.
    pub overlay_rows: u64,
    /// Currently resident intermediate tuples (bookkeeping for the peak).
    live_tuples: u64,
}

impl ExecStats {
    /// Registers `n` intermediate tuples becoming resident.
    #[inline]
    pub fn grow(&mut self, n: usize) {
        self.live_tuples += n as u64;
        if self.live_tuples > self.peak_tuples {
            self.peak_tuples = self.live_tuples;
        }
    }

    /// Registers `n` intermediate tuples being released.
    #[inline]
    pub fn shrink(&mut self, n: usize) {
        self.live_tuples = self.live_tuples.saturating_sub(n as u64);
    }

    /// Folds the per-morsel stats of one parallel wave, in morsel-index
    /// order. Counters (`cout`, `scanned`, `join_cards`) are plain sums,
    /// so the merged totals equal the serial run's bit-for-bit regardless
    /// of thread count. The workers ran concurrently, so the wave's peak
    /// is bounded by the *sum* of the per-morsel peaks on top of what was
    /// already live downstream — a deterministic, thread-count-independent
    /// upper bound.
    pub fn absorb_workers(&mut self, parts: impl IntoIterator<Item = ExecStats>) {
        let mut wave_peak = 0u64;
        let mut wave_live = 0u64;
        for p in parts {
            self.cout += p.cout;
            self.cout_optional += p.cout_optional;
            self.scanned += p.scanned;
            self.sorted_rows += p.sorted_rows;
            self.build_rows += p.build_rows;
            self.spilled_rows += p.spilled_rows;
            self.spill_runs += p.spill_runs;
            self.spill_bytes += p.spill_bytes;
            self.overlay_rows += p.overlay_rows;
            self.join_cards.extend(p.join_cards);
            wave_peak += p.peak_tuples;
            wave_live += p.live_tuples;
        }
        self.peak_tuples = self.peak_tuples.max(self.live_tuples + wave_peak);
        self.live_tuples += wave_live;
    }
}

/// A value during filter evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A dictionary term.
    Term(Id),
    /// A numeric value (from arithmetic or a numeric constant).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An unbound variable (OPTIONAL mismatch).
    Unbound,
    /// SPARQL expression error: propagates and makes the filter reject.
    Error,
}

/// Evaluates a filter expression over one row. `col_of` maps variable names
/// to column positions (resolved once per query by the engine).
pub fn eval_expr(expr: &Expr, row: &[Id], var_col: &HashMap<String, usize>, ds: &Dataset) -> Value {
    match expr {
        Expr::Var(name) => match var_col.get(name) {
            Some(&c) => {
                let id = row[c];
                if id == UNBOUND {
                    Value::Unbound
                } else {
                    Value::Term(id)
                }
            }
            None => Value::Error,
        },
        Expr::Const(term) => match term.numeric_value() {
            Some(n) => Value::Num(n),
            None => match ds.lookup(term) {
                Some(id) => Value::Term(id),
                // Constant not in the dictionary: it can still be compared
                // for (in)equality with terms — it equals nothing.
                None => Value::Error,
            },
        },
        Expr::Param(_) => Value::Error,
        Expr::Bound(name) => match var_col.get(name) {
            Some(&c) => Value::Bool(row[c] != UNBOUND),
            None => Value::Bool(false),
        },
        Expr::Not(inner) => match eval_expr(inner, row, var_col, ds) {
            Value::Bool(b) => Value::Bool(!b),
            Value::Error => Value::Error,
            _ => Value::Error,
        },
        Expr::Binary(op, a, b) => {
            let va = eval_expr(a, row, var_col, ds);
            let vb = eval_expr(b, row, var_col, ds);
            eval_binary(*op, va, vb, ds)
        }
    }
}

fn numeric_of(v: Value, ds: &Dataset) -> Option<f64> {
    match v {
        Value::Num(n) => Some(n),
        Value::Term(id) => ds.dict().numeric(id),
        Value::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

pub(crate) fn eval_binary(op: BinOp, a: Value, b: Value, ds: &Dataset) -> Value {
    use BinOp::*;
    match op {
        And => match (truth(a), truth(b)) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Error,
        },
        Or => match (truth(a), truth(b)) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Error,
        },
        Add | Sub | Mul | Div => {
            let (Some(x), Some(y)) = (numeric_of(a, ds), numeric_of(b, ds)) else {
                return Value::Error;
            };
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Value::Error;
                    }
                    x / y
                }
                _ => unreachable!(),
            };
            Value::Num(r)
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            if matches!(a, Value::Unbound | Value::Error)
                || matches!(b, Value::Unbound | Value::Error)
            {
                return Value::Error;
            }
            // Numeric comparison when both sides are numeric...
            if let (Some(x), Some(y)) = (numeric_of(a, ds), numeric_of(b, ds)) {
                let r = match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                };
                return Value::Bool(r);
            }
            // ...otherwise compare terms.
            match (a, b) {
                (Value::Term(x), Value::Term(y)) => {
                    let ord = ds.dict().compare(x, y);
                    let r = match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => ord == std::cmp::Ordering::Less,
                        Le => ord != std::cmp::Ordering::Greater,
                        Gt => ord == std::cmp::Ordering::Greater,
                        Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    Value::Bool(r)
                }
                (Value::Bool(x), Value::Bool(y)) => {
                    let r = match op {
                        Eq => x == y,
                        Ne => x != y,
                        _ => return Value::Error,
                    };
                    Value::Bool(r)
                }
                _ => Value::Error,
            }
        }
    }
}

fn truth(v: Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(b),
        _ => None,
    }
}

/// True when every filter evaluates to boolean true on the row.
pub fn row_passes(
    row: &[Id],
    filters: &[Expr],
    var_col: &HashMap<String, usize>,
    ds: &Dataset,
) -> bool {
    filters.iter().all(|f| matches!(eval_expr(f, row, var_col, ds), Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{drain, IndexScan};
    use crate::plan::{PlannedPattern, Slot};
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    fn dataset() -> Dataset {
        let mut b = StoreBuilder::new();
        let knows = Term::iri("p/knows");
        let age = Term::iri("p/age");
        b.insert(Term::iri("a"), knows.clone(), Term::iri("b"));
        b.insert(Term::iri("a"), knows.clone(), Term::iri("c"));
        b.insert(Term::iri("b"), knows.clone(), Term::iri("c"));
        b.insert(Term::iri("a"), age.clone(), Term::integer(30));
        b.insert(Term::iri("b"), age.clone(), Term::integer(40));
        b.freeze()
    }

    fn scan_all(ds: &Dataset, pred: &str, s: usize, o: usize) -> Bindings {
        let p = ds.lookup(&Term::iri(pred)).unwrap();
        let pat = PlannedPattern { idx: 0, slots: [Slot::Var(s), Slot::Bound(p), Slot::Var(o)] };
        drain(Box::new(IndexScan::new(ds, &pat)), &mut ExecStats::default()).unwrap()
    }

    #[test]
    fn worker_pool_survives_a_thread_dying_with_its_lock() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.try_acquire(1), 1);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = pool.state.lock().unwrap();
                panic!("worker died holding the pool lock");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(pool.state.is_poisoned());
        // Leasing, returning and reporting all keep working.
        assert_eq!(pool.try_acquire(2), 1);
        pool.release(2);
        let s = pool.stats();
        assert_eq!((s.capacity, s.in_use, s.peak_in_use, s.granted), (2, 0, 2, 2));
    }

    #[test]
    fn worker_pool_grants_clamp_to_capacity_and_track_peak() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.try_acquire(2), 2);
        assert_eq!(pool.try_acquire(2), 1); // only 1 left → partial grant
        assert_eq!(pool.try_acquire(1), 0); // exhausted → zero grant
        let s = pool.stats();
        assert_eq!((s.in_use, s.peak_in_use, s.granted, s.deferred), (3, 3, 3, 2));
        pool.release(3);
        let s = pool.stats();
        assert_eq!((s.in_use, s.peak_in_use), (0, 3));
        assert_eq!(pool.try_acquire(5), 3); // full again, capped at capacity
        pool.release(3);
        // Zero-capacity pool: everything runs inline, every lease deferred.
        let none = WorkerPool::new(0);
        assert_eq!(none.try_acquire(4), 0);
        assert_eq!(none.stats().deferred, 1);
    }

    #[test]
    fn stats_track_peak_of_grow_shrink_sequences() {
        let mut stats = ExecStats::default();
        stats.grow(10);
        stats.grow(5);
        stats.shrink(10);
        stats.grow(3);
        assert_eq!(stats.peak_tuples, 15);
        stats.grow(20);
        assert_eq!(stats.peak_tuples, 28);
        // Shrinking below zero saturates instead of wrapping.
        stats.shrink(10_000);
        stats.grow(1);
        assert_eq!(stats.peak_tuples, 28);
    }

    #[test]
    fn filter_numeric_comparison() {
        let ds = dataset();
        let ages = scan_all(&ds, "p/age", 0, 1);
        let mut var_col = HashMap::new();
        var_col.insert("person".to_string(), ages.col_of(0).unwrap());
        var_col.insert("age".to_string(), ages.col_of(1).unwrap());
        let filter = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Var("age".into())),
            Box::new(Expr::Const(Term::integer(35))),
        );
        let filters = [filter];
        assert_eq!(ages.iter().filter(|r| row_passes(r, &filters, &var_col, &ds)).count(), 1);
    }

    #[test]
    fn filter_term_inequality() {
        let ds = dataset();
        let knows = scan_all(&ds, "p/knows", 0, 1);
        let mut var_col = HashMap::new();
        var_col.insert("x".to_string(), knows.col_of(0).unwrap());
        var_col.insert("y".to_string(), knows.col_of(1).unwrap());
        let filter = Expr::Binary(
            BinOp::Ne,
            Box::new(Expr::Var("y".into())),
            Box::new(Expr::Const(Term::iri("c"))),
        );
        let filters = [filter];
        // Only "a knows b" survives.
        assert_eq!(knows.iter().filter(|r| row_passes(r, &filters, &var_col, &ds)).count(), 1);
    }

    #[test]
    fn bound_and_logic() {
        let ds = dataset();
        let mut var_col = HashMap::new();
        var_col.insert("x".to_string(), 0);
        let row_bound = vec![Id(1)];
        let row_unbound = vec![UNBOUND];
        assert_eq!(
            eval_expr(&Expr::Bound("x".into()), &row_bound, &var_col, &ds),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(&Expr::Bound("x".into()), &row_unbound, &var_col, &ds),
            Value::Bool(false)
        );
        let not = Expr::Not(Box::new(Expr::Bound("x".into())));
        assert_eq!(eval_expr(&not, &row_unbound, &var_col, &ds), Value::Bool(true));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let ds = dataset();
        let var_col = HashMap::new();
        let expr = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Binary(
                BinOp::Div,
                Box::new(Expr::Const(Term::integer(10))),
                Box::new(Expr::Const(Term::integer(4))),
            )),
            Box::new(Expr::Const(Term::double(2.0))),
        );
        assert_eq!(eval_expr(&expr, &[], &var_col, &ds), Value::Bool(true));
        let div0 = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::Const(Term::integer(1))),
            Box::new(Expr::Const(Term::integer(0))),
        );
        assert_eq!(eval_expr(&div0, &[], &var_col, &ds), Value::Error);
    }

    #[test]
    fn comparison_with_unbound_is_error_and_filters_out() {
        let ds = dataset();
        let mut var_col = HashMap::new();
        var_col.insert("x".to_string(), 0);
        let expr = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Const(Term::integer(1))),
        );
        assert_eq!(eval_expr(&expr, &[UNBOUND], &var_col, &ds), Value::Error);
    }
}
