//! Result-boundary finalization: decoding, precomputed sort keys, and the
//! solution table of aggregate results.
//!
//! Every plain (non-aggregate) modifier runs *inside* the physical
//! pipeline ([`crate::modifiers`]): DISTINCT, LIMIT/OFFSET early exit,
//! TopK and the sort all run over raw `Id` batches. What remains here is
//! (a) decoding `Id` rows to terms, (b) laying out aggregate results as a
//! solution table and running the modifiers over it, and (c) the same over
//! drained bindings for the unpushed reference.
//!
//! Sorting always precomputes one [`SortAtom`] key vector per row — the
//! dictionary is consulted O(n) times, never inside the O(n log n)
//! comparator — and breaks ties by input row order, the same pinned order
//! the streaming [`crate::modifiers::TopK`] and [`crate::modifiers::Sort`]
//! operators use.

use std::cmp::Ordering;
use std::collections::HashSet;

use parambench_rdf::dict::Id;
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;

use crate::ast::AggFunc;
use crate::error::QueryError;
use crate::exec::{Bindings, UNBOUND};
use crate::modifiers::{cmp_keyed, AggState, GroupFold};
use crate::plan::{ModifierPlan, TableColSource};

/// A value in a (pre-decoding) solution table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SolVal {
    Id(Id),
    Num(f64),
    Unbound,
}

/// A decoded output value.
#[derive(Debug, Clone, PartialEq)]
pub enum OutVal {
    /// An RDF term from the dataset.
    Term(Term),
    /// A computed numeric value (aggregate result).
    Num(f64),
    /// No binding (OPTIONAL mismatch).
    Unbound,
}

impl OutVal {
    /// Numeric view of the value, when it has one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            OutVal::Num(n) => Some(*n),
            OutVal::Term(t) => t.numeric_value(),
            OutVal::Unbound => None,
        }
    }

    /// The term, if this is one.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            OutVal::Term(t) => Some(t),
            _ => None,
        }
    }
}

impl std::fmt::Display for OutVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutVal::Term(t) => write!(f, "{t}"),
            OutVal::Num(n) => write!(f, "{n}"),
            OutVal::Unbound => write!(f, "UNDEF"),
        }
    }
}

/// The decoded result table of a query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (projection order).
    pub columns: Vec<String>,
    /// Rows of decoded values.
    pub rows: Vec<Vec<OutVal>>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Renders a bar-separated table (for examples and reports).
    pub fn render(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        for row in self.rows.iter().take(max_rows) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - max_rows));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sort keys
// ---------------------------------------------------------------------------

/// One precomputed sort-key atom. Resolving a value to its atom touches
/// the dictionary (numeric cache + decode) exactly once; comparing two
/// atoms never does.
///
/// Ordering mirrors the engine's "benchmark order": numeric values first
/// (by value, regardless of lexical form), then non-numeric terms in
/// [`Term`] order, unbound last.
#[derive(Debug, Clone, Copy)]
pub enum SortAtom<'a> {
    /// A numeric value (sorts first, by value).
    Num(f64),
    /// A non-numeric term (sorts after numerics, in [`Term`] order).
    Term(&'a Term),
    /// Unbound (sorts last).
    Unbound,
}

impl<'a> SortAtom<'a> {
    /// Resolves an id (or the UNBOUND sentinel) to its sort atom.
    pub fn of_id(id: Id, ds: &'a Dataset) -> SortAtom<'a> {
        if id == UNBOUND {
            return SortAtom::Unbound;
        }
        match ds.dict().numeric(id) {
            Some(n) => SortAtom::Num(n),
            None => SortAtom::Term(ds.decode(id)),
        }
    }

    pub(crate) fn of_solval(v: &SolVal, ds: &'a Dataset) -> SortAtom<'a> {
        match v {
            SolVal::Num(n) => SortAtom::Num(*n),
            SolVal::Id(id) => SortAtom::of_id(*id, ds),
            SolVal::Unbound => SortAtom::Unbound,
        }
    }

    /// Sort atom of an evaluated ORDER BY expression: numbers by value,
    /// terms in term order, booleans as 0/1, unbound and errors last —
    /// the documented expression-key ordering.
    pub(crate) fn of_value(v: &crate::exec::Value, ds: &'a Dataset) -> SortAtom<'a> {
        match v {
            crate::exec::Value::Num(n) => SortAtom::Num(*n),
            crate::exec::Value::Term(id) => SortAtom::of_id(*id, ds),
            crate::exec::Value::Bool(b) => SortAtom::Num(if *b { 1.0 } else { 0.0 }),
            crate::exec::Value::Unbound | crate::exec::Value::Error => SortAtom::Unbound,
        }
    }
}

/// The [`SolVal`] of an evaluated ORDER BY expression (the solution-table
/// materialization of [`SortAtom::of_value`]).
pub(crate) fn solval_of_value(v: &crate::exec::Value) -> SolVal {
    match v {
        crate::exec::Value::Num(n) => SolVal::Num(*n),
        crate::exec::Value::Term(id) => SolVal::Id(*id),
        crate::exec::Value::Bool(b) => SolVal::Num(if *b { 1.0 } else { 0.0 }),
        crate::exec::Value::Unbound | crate::exec::Value::Error => SolVal::Unbound,
    }
}

/// Total order over sort atoms (see [`SortAtom`]).
pub fn cmp_atoms(a: &SortAtom<'_>, b: &SortAtom<'_>) -> Ordering {
    match (a, b) {
        // NaN-last total order: `unwrap_or(Equal)` would make NaN compare
        // equal to everything, which is not transitive and lets sort
        // results depend on the algorithm's comparison order.
        (SortAtom::Num(x), SortAtom::Num(y)) => parambench_rdf::cmp_numeric(*x, *y),
        (SortAtom::Num(_), _) => Ordering::Less,
        (_, SortAtom::Num(_)) => Ordering::Greater,
        (SortAtom::Term(x), SortAtom::Term(y)) => x.cmp(y),
        (SortAtom::Term(_), SortAtom::Unbound) => Ordering::Less,
        (SortAtom::Unbound, SortAtom::Term(_)) => Ordering::Greater,
        (SortAtom::Unbound, SortAtom::Unbound) => Ordering::Equal,
    }
}

/// Hashable identity of a solution value, for DISTINCT over mixed
/// id/numeric rows.
fn solval_key(v: &SolVal) -> u64 {
    match v {
        SolVal::Id(id) => (id.0 as u64) | (1 << 40),
        SolVal::Num(n) => n.to_bits(),
        SolVal::Unbound => u64::MAX - 1,
    }
}

// ---------------------------------------------------------------------------
// Solution tables
// ---------------------------------------------------------------------------

/// Builds the solution table (in [`ModifierPlan::table`] column order) from
/// fully materialized bindings — the non-aggregate fallback path. ORDER BY
/// expression helper columns are evaluated here, once per row.
pub(crate) fn table_from_bindings(
    bindings: &Bindings,
    m: &ModifierPlan,
    ds: &Dataset,
) -> Result<Vec<Vec<SolVal>>, QueryError> {
    enum Col {
        Bind(usize),
        Expr(usize),
    }
    let cols: Vec<Col> = m
        .table
        .iter()
        .map(|c| match c.source {
            TableColSource::Slot(slot) => bindings
                .col_of(slot)
                .map(Col::Bind)
                .ok_or_else(|| QueryError::UnknownVariable(c.name.clone())),
            TableColSource::Expr(i) => Ok(Col::Expr(i)),
            TableColSource::Agg(_) => unreachable!("aggregate column on the plain path"),
        })
        .collect::<Result<_, _>>()?;
    Ok(bindings
        .iter()
        .map(|row| {
            cols.iter()
                .map(|col| match col {
                    Col::Bind(c) => {
                        let id = row[*c];
                        if id == UNBOUND {
                            SolVal::Unbound
                        } else {
                            SolVal::Id(id)
                        }
                    }
                    Col::Expr(i) => {
                        solval_of_value(&m.order_exprs[*i].eval(row, bindings.cols(), ds))
                    }
                })
                .collect()
        })
        .collect())
}

/// Lays out one finished group's accumulators as a solution-table row
/// (see [`GroupFold::finish`]).
pub(crate) fn group_row(key: &[Id], states: &[AggState], m: &ModifierPlan) -> Vec<SolVal> {
    let agg = m.aggregate.as_ref().expect("group rows exist only under aggregation");
    m.table
        .iter()
        .map(|c| match c.source {
            TableColSource::Slot(slot) => {
                let gi = agg
                    .group_slots
                    .iter()
                    .position(|&g| g == slot)
                    .expect("table slot is a group slot under aggregation");
                let id = key[gi];
                if id == UNBOUND {
                    SolVal::Unbound
                } else {
                    SolVal::Id(id)
                }
            }
            TableColSource::Agg(i) => fold_result(agg.specs[i].func, &states[i]),
            TableColSource::Expr(_) => {
                unreachable!("expression ORDER BY keys are rejected under aggregation")
            }
        })
        .collect()
}

/// The final value of one aggregate accumulator (see [`GroupFold`] for the
/// subset semantics).
pub(crate) fn fold_result(func: AggFunc, st: &AggState) -> SolVal {
    match func {
        AggFunc::Count => SolVal::Num(st.count as f64),
        AggFunc::Sum => SolVal::Num(st.sum),
        AggFunc::Avg => {
            if st.num_count == 0 {
                SolVal::Unbound
            } else {
                SolVal::Num(st.sum / st.num_count as f64)
            }
        }
        AggFunc::Min => {
            if st.num_count == 0 {
                SolVal::Unbound
            } else {
                SolVal::Num(st.min)
            }
        }
        AggFunc::Max => {
            if st.num_count == 0 {
                SolVal::Unbound
            } else {
                SolVal::Num(st.max)
            }
        }
    }
}

/// Runs the modifier stack over a solution table and decodes the result:
/// stable sort by precomputed keys → project to the declared outputs →
/// DISTINCT → OFFSET/LIMIT → decode. `already_sorted` skips the sort (and
/// its `sorted_rows` accounting) when the caller proved the rows arrive in
/// final order — the clustered fold behind an order-compatible index scan.
pub(crate) fn finalize_table(
    rows: Vec<Vec<SolVal>>,
    m: &ModifierPlan,
    ds: &Dataset,
    already_sorted: bool,
    stats: &mut crate::exec::ExecStats,
) -> ResultSet {
    let mut rows = rows;
    if !m.order_by.is_empty() && !already_sorted {
        stats.sorted_rows += rows.len() as u64;
        // Precompute per-row sort keys once: the dictionary (numeric cache
        // + decode) is touched n·k times total, not inside the comparator.
        let keyed: Vec<Vec<SortAtom<'_>>> = rows
            .iter()
            .map(|row| {
                m.order_by.iter().map(|&(col, _)| SortAtom::of_solval(&row[col], ds)).collect()
            })
            .collect();
        let descs: Vec<bool> = m.order_by.iter().map(|&(_, desc)| desc).collect();
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        // Pinned tie-break: input (pipeline) row order.
        idx.sort_unstable_by(|&a, &b| cmp_keyed(&keyed[a], a as u64, &keyed[b], b as u64, &descs));
        let mut reordered: Vec<Vec<SolVal>> = Vec::with_capacity(rows.len());
        let mut taken: Vec<Option<Vec<SolVal>>> = rows.into_iter().map(Some).collect();
        for i in idx {
            reordered.push(taken[i].take().expect("each index visited once"));
        }
        rows = reordered;
    }

    // Project to the declared outputs (drops helper sort columns).
    if m.has_helper_cols() {
        for row in &mut rows {
            row.truncate(m.out_width);
        }
    }

    if m.distinct {
        let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(rows.len());
        rows.retain(|row| seen.insert(row.iter().map(solval_key).collect()));
    }

    let sliced: Vec<Vec<SolVal>> =
        rows.into_iter().skip(m.offset).take(m.limit.unwrap_or(usize::MAX)).collect();

    let decoded = sliced
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| match v {
                    SolVal::Id(id) => OutVal::Term(ds.decode(id).clone()),
                    SolVal::Num(n) => OutVal::Num(n),
                    SolVal::Unbound => OutVal::Unbound,
                })
                .collect()
        })
        .collect();
    ResultSet { columns: m.out_names(), rows: decoded }
}

/// The materialize-then-modify reference: applies the full modifier stack
/// of `m` to drained bindings (`Engine::execute_unpushed`, the baseline
/// the pushed path is compared against).
pub(crate) fn finalize_bindings(
    bindings: &Bindings,
    m: &ModifierPlan,
    ds: &Dataset,
    stats: &mut crate::exec::ExecStats,
) -> Result<ResultSet, QueryError> {
    let rows = match &m.aggregate {
        Some(agg) => {
            let mut fold = GroupFold::new(agg, bindings.cols(), ds, false);
            for row in bindings.iter() {
                fold.add_row(row, stats);
            }
            fold.finish(m, stats)
        }
        None => table_from_bindings(bindings, m, ds)?,
    };
    Ok(finalize_table(rows, m, ds, false, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outval_display_and_views() {
        assert_eq!(OutVal::Num(2.5).to_string(), "2.5");
        assert_eq!(OutVal::Unbound.to_string(), "UNDEF");
        assert_eq!(OutVal::Term(Term::iri("http://x")).to_string(), "<http://x>");
        assert_eq!(OutVal::Num(3.0).as_num(), Some(3.0));
        assert_eq!(OutVal::Term(Term::integer(4)).as_num(), Some(4.0));
        assert!(OutVal::Unbound.as_num().is_none());
    }

    #[test]
    fn resultset_render_truncates() {
        let rs = ResultSet {
            columns: vec!["a".into()],
            rows: vec![vec![OutVal::Num(1.0)], vec![OutVal::Num(2.0)], vec![OutVal::Num(3.0)]],
        };
        let text = rs.render(2);
        assert!(text.contains("1 more rows"));
        assert_eq!(rs.col("a"), Some(0));
        assert_eq!(rs.col("b"), None);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn sort_atoms_order_numerics_terms_unbound() {
        let n = SortAtom::Num(3.0);
        let n2 = SortAtom::Num(10.0);
        let ta = Term::iri("a");
        let tb = Term::iri("b");
        let t1 = SortAtom::Term(&ta);
        let t2 = SortAtom::Term(&tb);
        let u = SortAtom::Unbound;
        assert_eq!(cmp_atoms(&n, &n2), Ordering::Less);
        assert_eq!(cmp_atoms(&n2, &t1), Ordering::Less, "numerics before terms");
        assert_eq!(cmp_atoms(&t1, &t2), Ordering::Less);
        assert_eq!(cmp_atoms(&t2, &u), Ordering::Less, "unbound last");
        assert_eq!(cmp_atoms(&u, &u), Ordering::Equal);
    }
}
