//! The query engine facade: prepare (lower + optimize) and execute.
//!
//! `prepare` is deliberately cheap relative to `execute`: the parameter
//! curation pipeline calls it once per candidate binding to obtain the
//! `Cout`-optimal plan and its estimated cost *without* running the query
//! (§III of the paper defines parameter classes purely over optimal plans
//! and their costs). `execute` then runs the chosen plan with full
//! instrumentation: wall time and measured `Cout`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parambench_rdf::dict::Id;
use parambench_rdf::store::Dataset;
use parambench_rdf::term::Term;

use crate::ast::{Element, Expr, Projection, SelectQuery, TriplePattern, VarOrTerm};
use crate::cardinality::{Estimate, Estimator, MAX_VARS};
use crate::cout::CoutTables;
use crate::error::{ExecError, QueryError};
use crate::exec::{ExecConfig, ExecStats, UNBOUND};
use crate::modifiers::{self, Distinct, GroupFold, RowKeys, Slice, TopK};
use crate::optimizer::{greedy, subset_estimate, JoinDp, EXACT_LIMIT};
use crate::physical::{
    self, Batch, BoxedOperator, CoutBucket, FilterEval, Gather, HashJoinProbe, LeftOuterJoin,
    Project, UnionAll,
};
use crate::plan::{
    Dedup, Fold, ModifierPlan, PhysGroup, PhysNode, PhysicalPlan, PlanNode, PlanSignature,
    PlannedPattern, RootGoal, Slot, Sort, TableColSource,
};
use crate::results::{finalize_bindings, finalize_table, OutVal, ResultSet};
use crate::spill::ExternalGroupFold;
use crate::template::{instantiate_expr, Binding, QueryTemplate};

/// One planned UNION branch or OPTIONAL group: its own `Cout`-optimal join
/// tree, the FILTERs scoped to it, and the variable slots it shares with
/// the part of the query evaluated before it (the join keys — the same for
/// every branch of one UNION, whose branches bind one variable set).
#[derive(Debug, Clone)]
struct GroupPlan {
    plan: PlanNode,
    filters: Vec<Expr>,
    join_vars: Vec<usize>,
}

/// A fully prepared (lowered + optimized) query, ready to execute: the
/// planned groups of the where clause — required BGP, UNION branches,
/// OPTIONALs, in `PlannedPattern::idx` order, which is how
/// [`Engine::rebind`] finds them again — the lowered modifier stack, and
/// the signature and estimates the paper's parameter classes are defined
/// over.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Variable name per slot (shared by every binding of a template).
    var_names: Arc<[String]>,
    /// The required basic graph pattern (absent when the query body is a
    /// bare UNION).
    bgp_plan: Option<PlanNode>,
    /// UNION groups, one [`GroupPlan`] per branch.
    unions: Vec<Vec<GroupPlan>>,
    optionals: Vec<GroupPlan>,
    /// Top-level FILTERs (applied last, over the whole pattern part).
    filters: Vec<Expr>,
    /// The lowered solution-modifier stack (DISTINCT, aggregation,
    /// ORDER BY, LIMIT/OFFSET), validated at prepare time and shared by
    /// every binding of a template.
    pub modifiers: Arc<ModifierPlan>,
    /// `PlannedPattern::idx` bit set of the patterns that hold a template
    /// parameter (0 for a concrete query; patterns from idx 64 on are not
    /// recorded).
    param_patterns: u64,
    /// Structural signature of the full plan (required + optional parts).
    pub signature: PlanSignature,
    /// Estimated `Cout` of the plan (required BGP + optional BGPs + outer joins).
    pub est_cout: f64,
    /// Estimated cardinality of the required BGP result.
    pub est_card: f64,
    /// Estimated number of *result* rows after all solution modifiers
    /// (grouping, DISTINCT, OFFSET/LIMIT) — the modifier-aware companion
    /// of `est_card`.
    pub est_result_card: f64,
}

impl Prepared {
    /// Multi-line EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "signature: {}\nest_cout: {:.1}\nest_card: {:.1}\nest_result_card: {:.1}\nmodifiers: {}\n",
            self.signature,
            self.est_cout,
            self.est_card,
            self.est_result_card,
            self.modifiers.render()
        );
        if let Some(plan) = &self.bgp_plan {
            out.push_str(&plan.render(0));
        }
        for (i, u) in self.unions.iter().enumerate() {
            out.push_str(&format!("UNION #{i} (join on {:?})\n", u[0].join_vars));
            for (b, branch) in u.iter().enumerate() {
                out.push_str(&format!("  branch {b}:\n"));
                out.push_str(&branch.plan.render(2));
            }
        }
        for (i, opt) in self.optionals.iter().enumerate() {
            out.push_str(&format!("OPTIONAL #{i} (join on {:?})\n", opt.join_vars));
            out.push_str(&opt.plan.render(1));
        }
        out
    }
}

/// Result of executing a prepared query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The decoded result table.
    pub results: ResultSet,
    /// Wall-clock execution time (plan execution + modifiers, not prepare).
    pub wall_time: Duration,
    /// Measured `Cout`: total intermediate tuples produced by all joins.
    pub cout: u64,
    /// Full operator instrumentation.
    pub stats: ExecStats,
}

/// An incrementally drained query result: the serving layer's per-client
/// output. Every plain (non-aggregate) query streams straight off the
/// batched Volcano pipeline as the consumer pulls — a client reading the
/// first rows of a large result never decodes the rest, and a blocking
/// stage (TopK, a real sort) does its work on the first pull. Aggregation
/// alone computes its (group) table at construction and streams the
/// finished rows out.
///
/// [`Engine::execute`] is this stream drained by
/// [`RowStream::collect_output`]: there is one pushed execution path.
pub struct RowStream<'a> {
    ds: &'a Dataset,
    columns: Vec<String>,
    inner: StreamInner<'a>,
    stats: ExecStats,
    started: Instant,
}

enum StreamInner<'a> {
    /// Decode rows straight off pipeline batches.
    Pipeline {
        op: BoxedOperator<'a>,
        /// Pipeline-schema column per output column.
        cols: Vec<usize>,
        batch: Option<Batch>,
        /// Next row within `batch`.
        next: usize,
        /// Reusable row buffer (pipeline schema width).
        row: Vec<Id>,
        done: bool,
    },
    /// Materialized rows (aggregation; trivially empty for LIMIT 0).
    Table(std::vec::IntoIter<Vec<OutVal>>),
}

/// Final accounting of a drained [`RowStream`] (see [`RowStream::finish`]).
#[derive(Debug, Clone)]
pub struct StreamEnd {
    /// Full operator instrumentation for the work performed so far.
    pub stats: ExecStats,
    /// Measured `Cout` (required + optional join outputs) so far.
    pub cout: u64,
    /// Wall-clock time from stream construction to `finish`.
    pub wall_time: Duration,
}

impl<'a> RowStream<'a> {
    /// Output column names, in projection order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Pulls the next result row, or `None` when the stream is exhausted.
    pub fn next_row(&mut self) -> Result<Option<Vec<OutVal>>, QueryError> {
        let RowStream { ds, inner, stats, .. } = self;
        match inner {
            StreamInner::Table(rows) => Ok(rows.next()),
            StreamInner::Pipeline { op, cols, batch, next, row, done } => loop {
                if *done {
                    return Ok(None);
                }
                if let Some(b) = batch {
                    if *next < b.len() {
                        b.read_row(*next, row);
                        *next += 1;
                        return Ok(Some(Engine::decode_cols(cols, row, ds)));
                    }
                    stats.shrink(b.len());
                    *batch = None;
                }
                // Exhaustion and failure both end the stream: a pipeline
                // that returned `Err` is never pulled again.
                match op.next_batch(stats) {
                    Ok(Some(b)) => {
                        *next = 0;
                        *batch = Some(b);
                    }
                    end => {
                        *done = true;
                        end?;
                    }
                }
            },
        }
    }

    /// Ends the stream and returns its accounting. Counters reflect the
    /// work performed up to this point — call after draining (or after
    /// abandoning early: an early finish simply stops pulling upstream,
    /// which is exactly the streaming win).
    pub fn finish(self) -> StreamEnd {
        let cout = self.stats.cout + self.stats.cout_optional;
        StreamEnd { cout, wall_time: self.started.elapsed(), stats: self.stats }
    }

    /// Drains every remaining row into a [`QueryOutput`] — the
    /// materialized API ([`Engine::execute`]). Pipeline batches are
    /// released as their rows are decoded, never held as a whole.
    pub fn collect_output(mut self) -> Result<QueryOutput, QueryError> {
        let mut rows = Vec::new();
        // Whole pipeline batches decode in one tight loop: on large plain
        // results the per-row `next_row` state machine costs measurably
        // more (CATALOG at 20k rows: +18 %). Same accounting as `next_row`.
        if let StreamInner::Pipeline { op, cols, batch: None, row, done: false, .. } =
            &mut self.inner
        {
            while let Some(b) = op.next_batch(&mut self.stats)? {
                rows.extend((0..b.len()).map(|r| {
                    b.read_row(r, row);
                    Engine::decode_cols(cols, row, self.ds)
                }));
                self.stats.shrink(b.len());
            }
        }
        // Whatever remains (a table; an exhausted pipeline just reports its
        // end again).
        while let Some(r) = self.next_row()? {
            rows.push(r);
        }
        let columns = std::mem::take(&mut self.columns);
        let end = self.finish();
        Ok(QueryOutput {
            results: ResultSet { columns, rows },
            wall_time: end.wall_time,
            cout: end.cout,
            stats: end.stats,
        })
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<Vec<OutVal>, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}

/// The parameter **cardinality class** of one (template, binding) pair —
/// the plan cache's constant-sensitivity key.
///
/// A cached plan skeleton may only be reused for a binding when every
/// input the optimizer's choices were derived from is unchanged. All such
/// constant-sensitive inputs flow through per-pattern scan statistics, so
/// the key records, per triple pattern (in `PlannedPattern::idx` order):
///
/// * the *shape* of each parameterized position (bound id vs
///   dictionary-absent term),
/// * the exact scan cardinality of the pattern under this binding,
/// * the distinct-value count of each free (variable) position,
/// * the bound predicate id when the predicate itself is parameterized
///   (character-set star statistics and predicate totals depend on the
///   predicate's identity, not just its counts).
///
/// Bound subject/object ids are deliberately *excluded*: only the
/// statistics they induce matter to the optimizer, so bindings with
/// equivalent statistics share one cache entry. Key equality therefore
/// implies identical scan estimates, identical DP join order and
/// join-method choices, identical estimate fields and identical adaptive
/// bind-join decisions at lowering — which is why a cached-rebind run is
/// bit-identical to a cold prepare (pinned by the differential sweep in
/// `tests/concurrent_serve.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanClass(Vec<u64>);

/// One group of a where clause in normal form: its triple patterns — the
/// i-th carries `PlannedPattern::idx == first_idx + i` — and the FILTERs
/// scoped to it.
#[derive(Debug, Default)]
struct Group<'q> {
    /// Keyword and ordinal of a UNION / OPTIONAL group (for error
    /// messages); `None` for the top-level group.
    scope: Option<(&'static str, usize)>,
    first_idx: usize,
    patterns: Vec<&'q TriplePattern>,
    filters: Vec<&'q Expr>,
}

impl Group<'_> {
    /// The group's FILTERs with `binding`'s terms substituted for their
    /// parameters (a plain clone for a concrete query).
    fn filters_under(&self, binding: &Binding) -> Vec<Expr> {
        self.filters.iter().map(|f| instantiate_expr(f, binding)).collect()
    }
}

/// The **where-clause normal form**: a borrowed view of a query (concrete,
/// or a template still carrying `%parameters`) as the groups the engine
/// plans separately, numbered required group first, then UNION branches
/// (group by group, branch by branch), then OPTIONALs. Plan signatures,
/// [`PlanClass`] keys and hence the paper's parameter classes are
/// functions of that numbering, so `prepare`, `plan_class` and `rebind`
/// all read it from here and nowhere else.
#[derive(Debug, Default)]
struct NormalForm<'q> {
    /// Top-level triples and FILTERs (no triples under a bare UNION body).
    required: Group<'q>,
    unions: Vec<Vec<Group<'q>>>,
    optionals: Vec<Group<'q>>,
}

impl<'q> NormalForm<'q> {
    /// Splits and numbers `query`'s where clause, rejecting every shape
    /// outside the supported subset: a group nested inside a group, a group
    /// without triple patterns, a body with nothing required to start from.
    fn of(query: &'q SelectQuery) -> Result<Self, QueryError> {
        fn flat<'q>(
            kw: &'static str,
            n: usize,
            els: &'q [Element],
        ) -> Result<Group<'q>, QueryError> {
            let mut group = Group { scope: Some((kw, n)), ..Group::default() };
            for el in els {
                match el {
                    Element::Triple(t) => group.patterns.push(t),
                    Element::Filter(f) => group.filters.push(f),
                    _ => return Err(QueryError::Unsupported(format!("nested groups inside {kw}"))),
                }
            }
            if group.patterns.is_empty() {
                return Err(QueryError::Unsupported(format!("empty {kw} group")));
            }
            Ok(group)
        }

        let mut nf = NormalForm::default();
        for el in &query.where_clause {
            match el {
                Element::Triple(t) => nf.required.patterns.push(t),
                Element::Filter(f) => nf.required.filters.push(f),
                Element::Optional(inner) => {
                    nf.optionals.push(flat("OPTIONAL", nf.optionals.len(), inner)?);
                }
                Element::Union(branches) if branches.is_empty() => {
                    return Err(QueryError::Unsupported("empty UNION group".into()));
                }
                Element::Union(branches) => {
                    let n = nf.unions.len();
                    let flat: Result<_, _> = branches.iter().map(|b| flat("UNION", n, b)).collect();
                    nf.unions.push(flat?);
                }
            }
        }
        if nf.required.patterns.is_empty() && nf.unions.is_empty() {
            return Err(QueryError::Unsupported("query has no required triple patterns".into()));
        }
        let mut next_idx = nf.required.patterns.len();
        for group in nf.unions.iter_mut().flatten().chain(&mut nf.optionals) {
            group.first_idx = next_idx;
            next_idx += group.patterns.len();
        }
        Ok(nf)
    }

    /// The UNION-branch and OPTIONAL groups, in idx order — the order
    /// [`Prepared`] stores their plans in.
    fn scoped(&self) -> impl Iterator<Item = &Group<'q>> {
        self.unions.iter().flatten().chain(&self.optionals)
    }

    /// Every group, in idx order.
    fn groups(&self) -> impl Iterator<Item = &Group<'q>> {
        std::iter::once(&self.required).chain(self.scoped())
    }

    /// Every FILTER variable must be bound by a pattern: anywhere for a
    /// top-level FILTER (it runs last, over everything), inside its own
    /// group for a scoped one — that FILTER sees its group's rows alone,
    /// where an outer variable reads as an error and drops every row.
    fn validate_filters(&self, vars: &VarTable) -> Result<(), QueryError> {
        for group in self.groups() {
            let mut names = Vec::new();
            for f in &group.filters {
                f.collect_vars(&mut names);
            }
            for v in names {
                if !vars.slot_of.contains_key(&v) {
                    return Err(QueryError::UnknownVariable(v));
                }
                let outer = !group.patterns.iter().any(|t| t.vars().any(|x| x == v));
                if let (Some((kw, n)), true) = (group.scope, outer) {
                    return Err(QueryError::Unsupported(format!(
                        "FILTER inside {kw} #{n} references ?{v}, bound only outside that group"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The query's variable table: one slot per variable, in first-mention
/// order over the normal form's patterns.
#[derive(Default)]
struct VarTable {
    names: Vec<String>,
    slot_of: HashMap<String, usize>,
}

impl VarTable {
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slot_of.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.to_string());
        self.slot_of.insert(name.to_string(), s);
        s
    }
}

/// The estimate-combination phase of [`TemplatePlan::bind`]: the running
/// estimate as planned groups are stacked in evaluation order — required
/// BGP, each UNION joined onto what precedes it, each OPTIONAL left-joined
/// onto the result. The order of the floating-point additions is contract:
/// `est_cout` is compared bit for bit across prepare paths and commits.
#[derive(Default)]
struct Combined {
    est_cout: f64,
    sig: String,
    /// Estimate of everything stacked so far (`None` until a base exists).
    running: Option<Estimate>,
    /// Variable slots bound so far.
    seen_vars: Vec<usize>,
}

impl Combined {
    fn base(&mut self, (group, est): (GroupPlan, Estimate)) -> GroupPlan {
        self.est_cout += group.plan.est_cout();
        self.sig = group.plan.signature().0;
        self.seen_vars = group.plan.var_slots();
        self.running = Some(est);
        group
    }

    /// Stacks one UNION group: its branches concatenate (so they must bind
    /// one variable set), and the result joins what precedes it on the
    /// variables already seen.
    fn union(
        &mut self,
        estimator: &Estimator<'_>,
        branches: Vec<(GroupPlan, Estimate)>,
    ) -> Vec<GroupPlan> {
        // Every branch binds this set (`TemplatePlan::new` checked it).
        let mut vars =
            branches.first().expect("normal form: a UNION has branches").0.plan.var_slots();
        vars.sort_unstable();
        let mut sigs = Vec::with_capacity(branches.len());
        let mut card = 0.0;
        let mut widest: Option<&Estimate> = None;
        for (group, est) in &branches {
            self.est_cout += group.plan.est_cout();
            card += est.card;
            // Approximate the union's distinct counts by the larger branch
            // (costs only guide banding, not correctness).
            widest = match widest {
                Some(prev) if prev.card >= est.card => Some(prev),
                _ => Some(est),
            };
            sigs.push(group.plan.signature().0);
        }
        let mut est = widest.expect("normal form: a UNION has branches").clone();
        est.card = card;
        let join_vars: Vec<usize> =
            vars.iter().copied().filter(|v| self.seen_vars.contains(v)).collect();
        self.running = Some(match self.running.take() {
            Some(base) => {
                let joined = estimator.join(&base, &est, &join_vars);
                self.est_cout += joined.card;
                joined
            }
            None => est,
        });
        for v in vars {
            if !self.seen_vars.contains(&v) {
                self.seen_vars.push(v);
            }
        }
        if !self.sig.is_empty() {
            self.sig.push('+');
        }
        self.sig.push_str(&format!("UNION({})", sigs.join("|")));
        let with_keys = |(group, _)| GroupPlan { join_vars: join_vars.clone(), ..group };
        branches.into_iter().map(with_keys).collect()
    }

    /// Stacks one OPTIONAL onto the finished required part (BGP + UNIONs:
    /// OPTIONALs join on its variables only, and do not feed each other).
    fn optional(
        &mut self,
        estimator: &Estimator<'_>,
        (group, est): (GroupPlan, Estimate),
    ) -> GroupPlan {
        let base = self.running.as_ref().expect("normal form: a base precedes every OPTIONAL");
        let join_vars: Vec<usize> =
            group.plan.var_slots().into_iter().filter(|v| self.seen_vars.contains(v)).collect();
        self.est_cout += group.plan.est_cout();
        // The outer join's output is at least the required side; count the
        // expected matched rows like an inner join.
        self.est_cout += estimator.join(base, &est, &join_vars).card.max(base.card);
        self.sig.push_str(&format!("+OPT({})", group.plan.signature()));
        GroupPlan { join_vars, ..group }
    }
}

/// A query planned as far as it can be without a binding: the first of
/// the two planning stages. [`Engine::template_plan`] builds it once per
/// template; [`TemplatePlan::bind`] then plans one binding at a time. It
/// holds everything that no binding changes:
///
/// * the where-clause normal form, the variable table, the validated
///   FILTER and projection variables and the lowered [`ModifierPlan`];
/// * every pattern with its constants resolved to ids, and which patterns
///   hold a parameter;
/// * per group, the join-ordering DP's subset variable masks, and the scan
///   estimates, subset estimates and best trees of every subset of
///   parameter-free patterns.
///
/// `bind` resolves the parameter positions alone, estimates only the
/// subsets that hold a parameter, and runs the DP over them in the same
/// tables, binding after binding. [`Engine::prepare`] and
/// [`Engine::prepare_template`] are this plan built and bound once, so
/// there is one planning path: a bound plan is exactly what they return.
pub struct TemplatePlan<'p> {
    engine: &'p Engine<'p>,
    /// The template whose bindings `bind` validates (`None`: a concrete
    /// query, bound to the empty binding).
    template: Option<&'p QueryTemplate>,
    nf: NormalForm<'p>,
    var_names: Arc<[String]>,
    modifiers: Arc<ModifierPlan>,
    /// Per group of the normal form, in idx order.
    groups: Vec<GroupTemplate>,
    /// See [`Prepared`]'s field of the same name.
    param_patterns: u64,
}

/// One group's share of a [`TemplatePlan`].
struct GroupTemplate {
    /// The group's patterns, in idx order, with variables and constants
    /// resolved; a parameter position holds [`Slot::Absent`] until a
    /// binding resolves it.
    patterns: Vec<PlannedPattern>,
    /// The two-stage DP; `None` beyond [`EXACT_LIMIT`] patterns, where the
    /// greedy heuristic plans each binding from scratch.
    dp: Option<JoinDp>,
}

impl GroupTemplate {
    /// Plans the group under `binding`: resolves its parameter positions,
    /// finds the `Cout`-optimal join tree and its root estimate.
    fn bind(
        &mut self,
        group: &Group<'_>,
        binding: &Binding,
        engine: &Engine<'_>,
    ) -> (GroupPlan, Estimate) {
        for (pattern, t) in self.patterns.iter_mut().zip(&group.patterns) {
            for (slot, pos) in pattern.slots.iter_mut().zip(t.positions()) {
                if let VarOrTerm::Param(p) = pos {
                    *slot = engine.resolve_term(binding.get(p).expect("binding validated"));
                }
            }
        }
        let (patterns, est) = (&self.patterns, &engine.est);
        let (plan, root) = match &mut self.dp {
            Some(dp) => {
                dp.bind(patterns, est);
                (dp.plan(patterns), dp.root_estimate(patterns, est))
            }
            None => (greedy(patterns, est), subset_estimate(patterns, est)),
        };
        let filters = group.filters_under(binding);
        (GroupPlan { plan, filters, join_vars: Vec::new() }, root)
    }
}

impl<'p> TemplatePlan<'p> {
    /// The template stage over `query`, in phases: **normal form**
    /// ([`NormalForm::of`]), **lowering** (variables take their slots in
    /// first-mention order over the groups in idx order, constants their
    /// ids), **validation** of UNION branch, FILTER and projection
    /// variables, **modifiers** ([`ModifierPlan::lower`]), then each
    /// group's parameter-free DP entries.
    fn new(
        engine: &'p Engine<'p>,
        query: &'p SelectQuery,
        template: Option<&'p QueryTemplate>,
    ) -> Result<Self, QueryError> {
        let nf = NormalForm::of(query)?;
        let mut vars = VarTable::default();
        let mut param_patterns = 0u64;
        let mut lowered: Vec<(Vec<PlannedPattern>, usize)> = Vec::new();
        for group in nf.groups() {
            let mut patterns = Vec::with_capacity(group.patterns.len());
            let mut params = 0usize;
            for (i, t) in group.patterns.iter().enumerate() {
                let idx = group.first_idx + i;
                if t.params().next().is_some() {
                    params |= 1usize.checked_shl(i as u32).unwrap_or(0);
                    param_patterns |= 1u64.checked_shl(idx as u32).unwrap_or(0);
                }
                let slots = t.positions().map(|pos| match pos {
                    VarOrTerm::Var(v) => Slot::Var(vars.slot(v)),
                    VarOrTerm::Term(term) => engine.resolve_term(term),
                    VarOrTerm::Param(_) => Slot::Absent,
                });
                patterns.push(PlannedPattern { idx, slots });
            }
            lowered.push((patterns, params));
        }
        if vars.names.len() > MAX_VARS {
            return Err(QueryError::Unsupported(format!("more than {MAX_VARS} variables")));
        }
        // The branches of one UNION concatenate, so they must bind one
        // variable set.
        let mut branches = lowered[1..].iter().map(|(patterns, _)| {
            let mut bound: Vec<usize> = patterns.iter().flat_map(|p| p.var_slots()).collect();
            bound.sort_unstable();
            bound.dedup();
            bound
        });
        for union in &nf.unions {
            let sets: Vec<Vec<usize>> = branches.by_ref().take(union.len()).collect();
            if sets.windows(2).any(|w| w[0] != w[1]) {
                return Err(QueryError::Unsupported(
                    "UNION branches must bind the same variables".into(),
                ));
            }
        }
        nf.validate_filters(&vars)?;
        // Plain projected variables must exist (aggregate shapes are
        // validated by the modifier lowering below).
        for p in &query.projections {
            if let Projection::Var(v) = p {
                if !vars.slot_of.contains_key(v) {
                    return Err(QueryError::UnknownVariable(v.clone()));
                }
            }
        }
        let modifiers = Arc::new(ModifierPlan::lower(query, &vars.slot_of)?);

        let groups = lowered
            .into_iter()
            .map(|(patterns, params)| {
                let n = patterns.len();
                let dp = (n > 0 && n <= EXACT_LIMIT)
                    .then(|| JoinDp::new(&patterns, params, &engine.est));
                GroupTemplate { patterns, dp }
            })
            .collect();
        Ok(TemplatePlan {
            engine,
            template,
            nf,
            var_names: vars.names.into(),
            modifiers,
            groups,
            param_patterns,
        })
    }

    /// The bind stage: plans `binding` (which must bind exactly the
    /// template's parameters) — each group in idx order
    /// (`GroupTemplate::bind`), then the **estimate combination**
    /// (`Combined`, stacking each group as it is planned: a UNION's join
    /// keys are the variables seen *so far*). The result is what a cold
    /// [`Engine::prepare_template`] returns, bit for bit.
    pub fn bind(&mut self, binding: &Binding) -> Result<Prepared, QueryError> {
        if let Some(template) = self.template {
            template.check_binding(binding)?;
        }
        let (engine, nf) = (self.engine, &self.nf);
        let mut planned = self.groups.iter_mut().zip(nf.groups());
        let mut acc = Combined::default();
        let (required, group) = planned.next().expect("normal form: a required group");
        let (bgp_plan, filters) = if group.patterns.is_empty() {
            (None, group.filters_under(binding))
        } else {
            let required = acc.base(required.bind(group, binding, engine));
            (Some(required.plan), required.filters)
        };
        let mut unions = Vec::with_capacity(nf.unions.len());
        for branches in &nf.unions {
            let planned: Vec<_> = planned
                .by_ref()
                .take(branches.len())
                .map(|(t, group)| t.bind(group, binding, engine))
                .collect();
            unions.push(acc.union(&engine.est, planned));
        }
        let optionals: Vec<GroupPlan> = planned
            .map(|(t, group)| acc.optional(&engine.est, t.bind(group, binding, engine)))
            .collect();
        let Combined { est_cout, sig, running, .. } = acc;
        let bgp_est = running.expect("normal form: a required BGP or a UNION is the base");
        Ok(Prepared {
            var_names: Arc::clone(&self.var_names),
            est_card: bgp_est.card,
            bgp_plan,
            unions,
            optionals,
            filters,
            est_result_card: engine.est.modifier_output_card(&bgp_est, &self.modifiers),
            modifiers: Arc::clone(&self.modifiers),
            param_patterns: self.param_patterns,
            signature: PlanSignature(sig),
            est_cout,
        })
    }
}

/// The query engine over one frozen dataset.
///
/// # Quickstart
///
/// The front-door flow — build a dataset, prepare a parameterized
/// template, execute with instrumentation. This is a doc-test, so
/// `cargo test` exercises exactly the snippet shown here;
/// `examples/quickstart.rs` extends it with dataset generation and
/// parameter curation, which live in downstream crates.
///
/// ```
/// use parambench_rdf::{StoreBuilder, Term};
/// use parambench_sparql::{Binding, Engine, QueryTemplate};
///
/// // 1. A tiny product catalog (write-once: freeze() makes it immutable).
/// let mut b = StoreBuilder::new();
/// for i in 0..4i64 {
///     let p = Term::iri(format!("product/{i}"));
///     let ty = if i < 3 { "t/a" } else { "t/b" };
///     b.insert(p.clone(), Term::iri("type"), Term::iri(ty));
///     b.insert(p, Term::iri("price"), Term::integer(10 * (i + 1)));
/// }
/// let ds = b.freeze();
///
/// // 2. One engine per dataset. `prepare` finds the Cout-optimal plan
/// //    without running it (the curation pipeline's cheap probe);
/// //    `execute` then streams it with full instrumentation.
/// let engine = Engine::new(&ds);
/// let template = QueryTemplate::parse(
///     "cheapest-of-type",
///     "SELECT ?p ?c WHERE { ?p <type> %type . ?p <price> ?c } \
///      ORDER BY ASC(?c) LIMIT 2",
/// )
/// .unwrap();
/// let binding = Binding::new().with("type", Term::iri("t/a"));
/// let prepared = engine.prepare_template(&template, &binding).unwrap();
/// assert!(prepared.est_result_card <= 2.0); // modifier-aware estimate
///
/// let out = engine.execute(&prepared).unwrap();
/// assert_eq!(out.results.len(), 2);
/// assert_eq!(out.results.rows[0][1].as_num(), Some(10.0)); // cheapest
/// assert!(out.cout >= 1); // measured Cout: total join output tuples
/// ```
pub struct Engine<'a> {
    ds: &'a Dataset,
    est: Estimator<'a>,
    exec: ExecConfig,
    /// Base directory of the per-run [`crate::spill::SpillSpace`]s; unset:
    /// the system temp dir, resolved when a run spills or a caller asks.
    spill_base: OnceLock<PathBuf>,
}

impl<'a> Engine<'a> {
    /// Creates an engine (references and configuration only: one per
    /// request is free) with the default (single-worker) [`ExecConfig`].
    pub fn new(ds: &'a Dataset) -> Self {
        Self::with_exec_config(ds, ExecConfig::default())
    }

    /// Creates an engine with an explicit parallel-execution configuration.
    pub fn with_exec_config(ds: &'a Dataset, exec: ExecConfig) -> Self {
        Engine { ds, est: Estimator::new(ds), exec, spill_base: OnceLock::new() }
    }

    /// The engine's default parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// The directory spill files are created under (the system temp dir
    /// by default). Each spilling execution makes its own uniquely-named
    /// subdirectory there and removes it when the run finishes.
    pub fn spill_dir(&self) -> &Path {
        self.spill_base.get_or_init(std::env::temp_dir)
    }

    /// Redirects spill files to `dir`. The directory itself need not
    /// exist yet; an unusable path surfaces as
    /// [`QueryError::Exec`] from the first execution that actually spills.
    pub fn set_spill_dir(&mut self, dir: impl Into<PathBuf>) {
        self.spill_base = OnceLock::from(dir.into());
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Lowers and optimizes a concrete query: [`Engine::prepare_template`]
    /// under the empty binding. A query that still carries a `%parameter`
    /// is [`QueryError::UnboundParameter`].
    pub fn prepare(&self, query: &SelectQuery) -> Result<Prepared, QueryError> {
        if let Some(p) = query.params().first() {
            return Err(QueryError::UnboundParameter(p.clone()));
        }
        TemplatePlan::new(self, query, None)?.bind(&Binding::new())
    }

    /// Plans `template` as far as no binding is needed — the first of the
    /// two planning stages ([`TemplatePlan`]). Bind it once per binding:
    /// the curation pipeline builds one per template and profiles a whole
    /// domain through it.
    pub fn template_plan<'p>(
        &'p self,
        template: &'p QueryTemplate,
    ) -> Result<TemplatePlan<'p>, QueryError> {
        TemplatePlan::new(self, template.query(), Some(template))
    }

    /// Resolves one pattern position under `binding` — a variable takes
    /// the slot `var` assigns it; a constant, or the term a `%parameter` is
    /// bound to, becomes its id ([`Engine::resolve_term`]).
    fn resolve(&self, pos: &VarOrTerm, binding: &Binding, var: impl FnOnce(&str) -> usize) -> Slot {
        match pos {
            VarOrTerm::Var(v) => Slot::Var(var(v)),
            VarOrTerm::Term(term) => self.resolve_term(term),
            VarOrTerm::Param(p) => self.resolve_term(binding.get(p).expect("binding validated")),
        }
    }

    /// The only place a term meets the dictionary: its id, or
    /// [`Slot::Absent`] when the store has never seen it.
    fn resolve_term(&self, term: &Term) -> Slot {
        self.ds.lookup(term).map_or(Slot::Absent, Slot::Bound)
    }

    /// Records the physical plan of one execution: **the only place** the
    /// engine's physical choices are made. Index orders, join methods,
    /// morselization and the modifier strategy are decided here from
    /// `(prepared, exec, dataset)` and returned as plain data, which
    /// [`Engine::stream`] lowers and [`Engine::explain_physical`] prints —
    /// so what is explained is what runs. Built per execution (the pass
    /// reads exact scan extents, which depend on the binding); it is one
    /// walk over each group's fixed `Cout`-optimal tree, cheap next to any
    /// execution.
    pub fn physical_plan<'p>(&self, prepared: &'p Prepared, exec: &ExecConfig) -> PhysicalPlan<'p> {
        let m = &prepared.modifiers;
        let goal = RootGoal {
            sort: self.servable_order(m),
            limit: m.limit.filter(|_| m.aggregate.is_none()).map(|limit| m.offset + limit),
        };
        let bgp = prepared.bgp_plan.as_ref().map(|plan| (plan, plan.physical(self.ds, &goal)));
        // Order-aware eliminations all derive from the *plan's* delivered
        // order (never from thread count or budget): with the value-ordered
        // dictionary, ascending-id delivery IS ascending ORDER BY order.
        let delivered = bgp.as_ref().map_or_else(Vec::new, |(_, rec)| rec.order.clone());
        // The delivered order satisfies the full ORDER BY. (Value semantics
        // hold because the dictionary is value-ordered at freeze: ascending
        // ids are ascending ORDER BY values, unbound ids sort last both ways.)
        let in_order = !goal.sort.is_empty() && delivered.starts_with(&goal.sort);
        let budget = exec.mem_budget_rows;

        // Plain LIMIT queries (no aggregation, no surviving sort) are
        // output-bound: the serial Slice stops batch-granularly after
        // ~`limit` rows, while parallel early exit is wave-granular — up to
        // a whole wave of surplus scans for zero win. They stay serial.
        // Aggregation and real sorts drain the pipeline fully, so for them
        // the fan-out is pure gain. (Shape-and-config derived,
        // thread-independent: the determinism guarantee is unaffected.)
        let output_bound =
            m.aggregate.is_none() && m.limit.is_some() && (m.order_by.is_empty() || in_order);
        let (bgp, morselized) = match bgp {
            None => (None, false),
            Some((plan, rec)) => {
                let morselized = !output_bound && plan.morselizes(exec, &rec);
                (Some(rec.node), morselized)
            }
        };
        let serial = |g: &'p GroupPlan| PhysGroup {
            node: g.plan.physical(self.ds, &RootGoal::default()).node,
            filters: &g.filters,
            join_vars: &g.join_vars,
        };
        let unions: Vec<Vec<PhysGroup<'p>>> =
            prepared.unions.iter().map(|u| u.iter().map(serial).collect()).collect();
        let optionals: Vec<PhysGroup<'p>> = prepared.optionals.iter().map(serial).collect();
        // With nothing stacked on a morselized BGP the parallel source
        // reaches the epilogue un-gathered and can be folded worker-side.
        let worker_side =
            morselized && unions.is_empty() && optionals.is_empty() && prepared.filters.is_empty();

        let (fold, dedup, sort) = match &m.aggregate {
            Some(agg) => {
                // Group-clustered delivery folds one group at a time and
                // skips the final sort when ORDER BY follows the same
                // prefix. Serial, unbudgeted pipelines only: the fan-out is
                // worth more than the one-group residency win, and a budget
                // must bound the groups the other folds hold.
                let ordered = budget.is_none()
                    && !worker_side
                    && Self::clustered(&delivered, &agg.group_slots);
                let fold = match budget {
                    _ if ordered => Fold::Ordered,
                    // Spilling from the first row avoids a pointless
                    // in-memory warm-up when the estimate already predicts
                    // the overflow; rows and counters are identical either
                    // way.
                    Some(budget) => {
                        Fold::External { budget, eager: prepared.est_result_card > budget as f64 }
                    }
                    None if worker_side => Fold::WorkerPartials,
                    None => Fold::Hash,
                };
                let sort = if m.order_by.is_empty() {
                    Sort::None
                } else if ordered && in_order {
                    Sort::Eliminated
                } else {
                    Sort::Full { budget: None }
                };
                (Some(fold), if m.distinct { Dedup::Hash } else { Dedup::None }, sort)
            }
            None => {
                // DISTINCT streams before any sort unless unprojected sort
                // keys must pick each value's representative: rows equal on
                // all projected columns otherwise share their sort keys.
                let dedup = if !m.distinct {
                    Dedup::None
                } else if m.has_helper_cols() && !in_order {
                    Dedup::SortAware
                } else {
                    Dedup::Hash
                };
                // A dedup after the sort leaves no LIMIT a bounded heap can
                // hold.
                let sort = if m.order_by.is_empty() {
                    Sort::None
                } else if in_order {
                    Sort::Eliminated
                } else if m.limit.is_some() && dedup != Dedup::SortAware {
                    Sort::TopK
                } else {
                    Sort::Full { budget }
                };
                (None, dedup, sort)
            }
        };
        PhysicalPlan {
            delivered_order: delivered,
            bgp,
            morselized,
            unions,
            optionals,
            filters: &prepared.filters,
            var_names: &prepared.var_names,
            modifiers: m,
            param_patterns: prepared.param_patterns,
            limit_zero: m.limit == Some(0),
            fold,
            dedup,
            sort,
        }
    }

    /// Lowers the recorded pattern part (BGP + UNION + OPTIONAL + FILTER)
    /// to the streaming operator pipeline, without any modifier operators.
    /// A morselized BGP is pulled through a [`Gather`], which merges worker
    /// batches in morsel order.
    fn lower_patterns(&self, plan: &PhysicalPlan<'_>, exec: &ExecConfig) -> BoxedOperator<'a> {
        let ds = self.ds;
        let mut op = plan.bgp.as_ref().map(|root| self.lower_bgp(root, plan.morselized, exec));
        let filtered = |op: BoxedOperator<'a>, filters: &[Expr]| -> BoxedOperator<'a> {
            if filters.is_empty() {
                op
            } else {
                Box::new(FilterEval::new(op, filters.to_vec(), plan.var_names, ds))
            }
        };
        for u in &plan.unions {
            let branches = u
                .iter()
                .map(|b| filtered(b.node.lower(ds, CoutBucket::Required), b.filters))
                .collect();
            let union: BoxedOperator<'a> = Box::new(UnionAll::new(branches));
            let join_vars = u[0].join_vars;
            op = Some(match op {
                None => union,
                // Build the (bounded) union side, stream the base past it.
                Some(base) => Box::new(HashJoinProbe::new(
                    base,
                    union,
                    join_vars.to_vec(),
                    true,
                    format!("UNION⋈{join_vars:?}"),
                    CoutBucket::Required,
                )),
            });
        }
        let mut op = op.expect("prepare guarantees a base");
        for o in &plan.optionals {
            let right = filtered(o.node.lower(ds, CoutBucket::Optional), o.filters);
            op = Box::new(LeftOuterJoin::new(op, right, o.join_vars.to_vec()));
        }
        filtered(op, plan.filters)
    }

    /// Lowers a recorded BGP tree (or subtree): serially, or, for a
    /// morselized bind spine, through a [`Gather`] merging worker batches
    /// in morsel order.
    fn lower_bgp(&self, root: &PhysNode, morselized: bool, exec: &ExecConfig) -> BoxedOperator<'a> {
        if morselized {
            Box::new(Gather::new(root.lower_morsels(self.ds, CoutBucket::Required, exec)))
        } else {
            root.lower(self.ds, CoutBucket::Required)
        }
    }

    /// Executes a prepared query with the solution modifiers **pushed into
    /// the physical layer** wherever the recorded plan
    /// ([`Engine::physical_plan`]) allows — [`Engine::stream`] drained by
    /// [`RowStream::collect_output`].
    pub fn execute(&self, prepared: &Prepared) -> Result<QueryOutput, QueryError> {
        self.stream(prepared, &self.exec)?.collect_output()
    }

    /// Executes with an explicit [`ExecConfig`], overriding the engine's
    /// default for this run — how the benchmark driver applies its
    /// thread-count knob without rebuilding the engine. Rows, row order
    /// and measured `Cout` are identical at every `threads` value (see
    /// [`ExecConfig`]); only wall time changes.
    pub fn execute_with(
        &self,
        prepared: &Prepared,
        exec: &ExecConfig,
    ) -> Result<QueryOutput, QueryError> {
        self.stream(prepared, exec)?.collect_output()
    }

    /// The reference implementation the differential suites compare the
    /// pushed path against, row for row and on `Cout`: the same recorded
    /// pattern part, drained in full, with every solution modifier applied
    /// **after** materialization (`results::finalize_bindings`).
    pub fn execute_unpushed(&self, prepared: &Prepared) -> Result<QueryOutput, QueryError> {
        let start = Instant::now();
        let mut stats = ExecStats::default();
        let plan = self.physical_plan(prepared, &self.exec);
        let op = self.lower_patterns(&plan, &self.exec);
        let op = Self::projected(op, &prepared.modifiers.input_slots());
        let bindings = physical::drain(op, &mut stats)?;
        let results = finalize_bindings(&bindings, &prepared.modifiers, self.ds, &mut stats)?;
        let cout = stats.cout + stats.cout_optional;
        Ok(QueryOutput { results, wall_time: start.elapsed(), cout, stats })
    }

    /// The measured `Cout` of `prepared` — the integer [`Engine::execute`]
    /// reports as [`QueryOutput::cout`] under the engine's configuration —
    /// without the modifiers, decode and [`ResultSet`] an execution builds
    /// around it: the curation pipeline's measured cost source. `tables`
    /// holds the count tables of earlier measurements over the same
    /// dataset (one value per template domain: see [`CoutTables`]).
    ///
    /// Branches on the physical plan [`Engine::stream`] would lower
    /// ([`Engine::physical_plan`]):
    ///
    /// * `LIMIT 0` runs nothing: 0;
    /// * a plan that can stop early (a LIMIT behind no fold and no real
    ///   sort, so its `Slice` stops pulling) has the `Cout` of wherever it
    ///   stopped, so it is executed;
    /// * a plain BGP (no UNION, no OPTIONAL) whose patterns' incidence
    ///   graph is a forest is counted, not run: Σ|J| over the recorded
    ///   tree's join nodes by message passing over index counts
    ///   ([`crate::cout`]). The top-level FILTERs sit above every join, so
    ///   they never change `Cout`;
    /// * anything else (a cyclic BGP, UNION, OPTIONAL) drains the pattern
    ///   part, with no projection, modifier or decode stage above it.
    ///
    /// [`QueryError::DatasetMismatch`] when `tables` count over another
    /// dataset than the engine's.
    pub fn measure_cout(
        &self,
        prepared: &Prepared,
        tables: &mut CoutTables<'_>,
    ) -> Result<u64, QueryError> {
        self.measure_cout_with(&self.physical_plan(prepared, &self.exec), &self.exec, tables)
    }

    /// [`Engine::measure_cout`] of a plan the caller already recorded
    /// ([`Engine::physical_plan`] under `exec`), run under `exec`: no
    /// second physical pass. Measured `Cout` does not depend on the
    /// configuration's thread count or memory budget, so this is the
    /// integer `measure_cout` returns whatever `exec` the plan was
    /// recorded under.
    ///
    /// [`QueryError::DatasetMismatch`] when `tables` count over another
    /// dataset than the engine's.
    pub fn measure_cout_with(
        &self,
        plan: &PhysicalPlan<'_>,
        exec: &ExecConfig,
        tables: &mut CoutTables<'_>,
    ) -> Result<u64, QueryError> {
        if !std::ptr::eq(tables.dataset(), self.ds) {
            return Err(QueryError::DatasetMismatch(
                "count tables built over another dataset than the engine's".into(),
            ));
        }
        if plan.limit_zero {
            tables.note_counted();
            return Ok(0);
        }
        let stops_early = plan.fold.is_none()
            && plan.modifiers.limit.is_some()
            && matches!(plan.sort, Sort::None | Sort::Eliminated);
        let plain = plan.unions.is_empty() && plan.optionals.is_empty();
        if let Some(root) = plan.bgp.as_ref().filter(|_| plain && !stops_early) {
            if let Some(cout) = tables.count(root, plan.param_patterns) {
                return Ok(cout);
            }
        }
        tables.note_fallback();
        let stats = if stops_early {
            self.stream_planned(plan, exec, Instant::now())?.collect_output()?.stats
        } else {
            let mut stats = ExecStats::default();
            let mut op = self.lower_patterns(plan, exec);
            physical::drain_rest(&mut op, &mut stats)?;
            stats
        };
        Ok(stats.cout + stats.cout_optional)
    }

    /// Executes a prepared query as an incrementally drained [`RowStream`]
    /// — the one pushed execution path. It records the physical plan
    /// ([`Engine::physical_plan`]) and lowers exactly that value:
    ///
    /// * aggregation folds batches into per-group accumulators as they
    ///   stream ([`Fold`]) — the grouped input is never materialized;
    /// * DISTINCT deduplicates raw `Id` rows pre-decode ([`Dedup`]);
    /// * ORDER BY + LIMIT becomes a bounded-heap [`TopK`], any other real
    ///   ORDER BY a blocking [`modifiers::Sort`], and a LIMIT a [`Slice`]
    ///   that stops pulling upstream batches once satisfied, so behind no
    ///   or an eliminated sort scans and joins cease early;
    /// * under a memory budget the blocking stages run external
    ///   ([`crate::spill`]) with identical rows, order and counters.
    ///
    /// Aggregation computes its group table here and streams the finished
    /// rows; every other query is one operator pipeline, pulled as the
    /// stream is. The stream borrows only the dataset, not the engine or
    /// the `Prepared` — a per-request engine value can be dropped while its
    /// stream is still being drained.
    pub fn stream(
        &self,
        prepared: &Prepared,
        exec: &ExecConfig,
    ) -> Result<RowStream<'a>, QueryError> {
        let started = Instant::now();
        self.stream_planned(&self.physical_plan(prepared, exec), exec, started)
    }

    /// [`Engine::stream`] of an already recorded plan; the stream's wall
    /// time counts from `started`.
    fn stream_planned(
        &self,
        plan: &PhysicalPlan<'_>,
        exec: &ExecConfig,
        started: Instant,
    ) -> Result<RowStream<'a>, QueryError> {
        let mut stats = ExecStats::default();
        let columns = plan.modifiers.out_names();
        let inner = if plan.limit_zero {
            // Provably empty: no pipeline ever exists, so nothing is
            // scanned.
            StreamInner::Table(Vec::new().into_iter())
        } else {
            match plan.fold {
                Some(fold) => {
                    let results = self.fold_groups(plan, fold, exec, &mut stats)?;
                    StreamInner::Table(results.rows.into_iter())
                }
                None => {
                    let op = self.plain_epilogue(plan, self.lower_patterns(plan, exec));
                    let cols = Self::out_cols(plan.modifiers, op.schema());
                    let row = vec![UNBOUND; op.schema().len()];
                    StreamInner::Pipeline { op, cols, batch: None, next: 0, row, done: false }
                }
            }
        };
        Ok(RowStream { ds: self.ds, columns, inner, stats, started })
    }

    /// The aggregation path: lowers the pattern part and folds it by the
    /// recorded strategy, then sorts / dedups / slices the (small) group
    /// table at the result boundary.
    fn fold_groups(
        &self,
        plan: &PhysicalPlan<'_>,
        fold: Fold,
        exec: &ExecConfig,
        stats: &mut ExecStats,
    ) -> Result<ResultSet, QueryError> {
        let (m, ds) = (plan.modifiers, self.ds);
        let agg = m.aggregate.as_ref().expect("a fold is recorded only under aggregation");
        // Every fold registers new group state with `stats` while the
        // input batch is still live; the batch's tuples then collapse into
        // the accumulators, released once the table is laid out.
        let fold_rows = |clustered: bool| {
            move |mut op: BoxedOperator<'a>, st: &mut ExecStats| {
                let mut fold = GroupFold::new(agg, op.schema(), ds, clustered);
                Self::for_each_row(&mut op, st, |row, st| {
                    fold.add_row(row, st);
                    Ok(())
                })?;
                Ok(fold)
            }
        };
        // The serial folds consume one row stream (a morselized BGP goes
        // through its Gather, so rows arrive in the serial order),
        // projected to the group + aggregate input columns.
        let input = || Self::projected(self.lower_patterns(plan, exec), &m.input_slots());
        let rows = match fold {
            // Recorded only for a morselized BGP with nothing stacked on
            // it, so the fold itself fans out: every morsel folds into a
            // private GroupFold on its worker, and the partials merge at
            // gather time in morsel-index order — so group first-seen
            // order (and with it the pre-sort output order) matches the
            // serial fold.
            Fold::WorkerPartials => {
                let root = plan.bgp.as_ref().expect("worker-side folds run over a BGP");
                let src = root.lower_morsels(ds, CoutBucket::Required, exec);
                let mut master: Option<GroupFold<'_>> = None;
                src.process(stats, fold_rows(false), |partial, stats| match &mut master {
                    None => master = Some(partial),
                    Some(fold) => fold.merge(partial, stats),
                })?;
                master.expect("morselized plans have at least one morsel").finish(m, stats)
            }
            Fold::Hash | Fold::Ordered => {
                fold_rows(fold == Fold::Ordered)(input(), stats)?.finish(m, stats)
            }
            Fold::External { budget, eager } => {
                let mut op = input();
                let dir = self.spill_base.get().cloned();
                let mut fold = ExternalGroupFold::new(agg, op.schema(), ds, budget, eager, dir);
                Self::for_each_row(&mut op, stats, |row, st| fold.add_row(row, st))?;
                fold.finish(m, stats)?
            }
        };
        let sorted = matches!(plan.sort, Sort::Eliminated);
        Ok(finalize_table(rows, m, ds, sorted, stats))
    }

    /// The non-aggregate epilogue: the recorded modifier operators stacked
    /// on the pattern part, in one order — project → DISTINCT (pre-sort) →
    /// [`TopK`] or [`modifiers::Sort`] → DISTINCT (post-sort) → [`Slice`].
    /// A stage the plan does not record is absent; [`TopK`] applies the
    /// OFFSET/LIMIT itself.
    fn plain_epilogue(&self, plan: &PhysicalPlan<'_>, op: BoxedOperator<'a>) -> BoxedOperator<'a> {
        let (m, ds) = (plan.modifiers, self.ds);
        // DISTINCT compares the projected output columns; the first
        // arrival survives.
        let distinct = |op: BoxedOperator<'a>| -> BoxedOperator<'a> {
            let col = |slot| op.schema().iter().position(|&v| v == slot).expect("out slot");
            let cols = m.out_slots().into_iter().map(col).collect();
            Box::new(Distinct::on_cols(op, cols))
        };
        let mut op = Self::projected(op, &m.table_slots());
        if plan.dedup == Dedup::Hash {
            op = distinct(op);
        }
        match plan.sort {
            Sort::None | Sort::Eliminated => {}
            Sort::TopK => {
                let limit = m.limit.expect("top-k is recorded only under a LIMIT");
                let keys = RowKeys::resolve(m, op.schema(), ds);
                return Box::new(TopK::new(op, keys, m.offset, limit));
            }
            Sort::Full { budget } => {
                let keys = RowKeys::resolve(m, op.schema(), ds);
                let dir = self.spill_base.get().cloned();
                op = Box::new(modifiers::Sort::new(op, keys, budget, dir));
            }
        }
        if plan.dedup == Dedup::SortAware {
            op = distinct(op);
        }
        if m.offset > 0 || m.limit.is_some() {
            op = Box::new(Slice::new(op, m.offset, m.limit));
        }
        op
    }

    /// `op` narrowed to `slots` when it carries more columns than that.
    fn projected(op: BoxedOperator<'a>, slots: &[usize]) -> BoxedOperator<'a> {
        if slots.len() < op.schema().len() {
            Box::new(Project::new(op, slots))
        } else {
            op
        }
    }

    /// The deduplicated slot sequence of the ORDER BY keys that a delivered
    /// order can serve, empty when none can: every key must be an
    /// ascending plain-variable column (not a descending key, an
    /// expression or an aggregate alias). With more than one effective key,
    /// id order must also be *equivalent* to value order, not merely a
    /// refinement: two distinct ids with equal numeric value ("1"^^int vs
    /// "1.0"^^double) form a sort-key tie the baseline's stable sort
    /// reorders by the next key, while id-ordered delivery pins them by
    /// lexical form. The dictionary records at freeze whether any such tie
    /// exists; a single key is always safe (ties fall back to arrival order
    /// on both paths).
    fn servable_order(&self, m: &ModifierPlan) -> Vec<usize> {
        let mut seq: Vec<usize> = Vec::new();
        for &(col, desc) in &m.order_by {
            match m.table[col].source {
                TableColSource::Slot(s) if !desc => {
                    if !seq.contains(&s) {
                        seq.push(s);
                    }
                }
                _ => return Vec::new(),
            }
        }
        if seq.len() > 1 && self.ds.dict().has_value_ties() {
            seq.clear();
        }
        seq
    }

    /// Whether the delivered order makes rows equal on `slots` contiguous:
    /// the distinct slots are exactly the leading `k` delivered slots (in
    /// any permutation). Empty slot sets are trivially clustered.
    fn clustered(delivered: &[usize], slots: &[usize]) -> bool {
        let mut set: Vec<usize> = Vec::new();
        for &s in slots {
            if !set.contains(&s) {
                set.push(s);
            }
        }
        set.len() <= delivered.len() && delivered[..set.len()].iter().all(|v| set.contains(v))
    }

    /// Streams every row of `op` into `consume`, releasing each batch's
    /// residency once its rows are handed over — the shared drain
    /// scaffolding of the serial folds, kept in one place so the
    /// batch/stats protocol cannot diverge between them.
    fn for_each_row(
        op: &mut BoxedOperator<'_>,
        stats: &mut ExecStats,
        mut consume: impl FnMut(&[Id], &mut ExecStats) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let mut row = vec![UNBOUND; op.schema().len()];
        while let Some(batch) = op.next_batch(stats)? {
            for r in 0..batch.len() {
                batch.read_row(r, &mut row);
                consume(&row, stats)?;
            }
            stats.shrink(batch.len());
        }
        Ok(())
    }

    /// Pipeline-schema column of each declared output column — resolved
    /// once, so per-row decoding never scans the schema.
    fn out_cols(m: &ModifierPlan, schema: &[usize]) -> Vec<usize> {
        m.table[..m.out_width]
            .iter()
            .map(|c| {
                let slot = match c.source {
                    TableColSource::Slot(s) => s,
                    TableColSource::Agg(_) => {
                        unreachable!("aggregate column on the plain path")
                    }
                    TableColSource::Expr(_) => {
                        unreachable!("expression keys are never projected")
                    }
                };
                schema.iter().position(|&v| v == slot).expect("projected slot in schema")
            })
            .collect()
    }

    /// Decodes one pipeline row through a precomputed [`Self::out_cols`]
    /// mapping.
    fn decode_cols(cols: &[usize], row: &[Id], ds: &Dataset) -> Vec<OutVal> {
        cols.iter()
            .map(|&col| {
                let id = row[col];
                if id == UNBOUND {
                    OutVal::Unbound
                } else {
                    OutVal::Term(ds.decode(id).clone())
                }
            })
            .collect()
    }

    /// EXPLAIN of the *physical* plan [`Engine::execute`] would run under
    /// the engine's execution configuration — the rendering of the same
    /// [`PhysicalPlan`] value [`Engine::stream`] lowers.
    pub fn explain_physical(&self, prepared: &Prepared) -> String {
        self.physical_plan(prepared, &self.exec).render()
    }

    /// Parses, prepares and executes query text in one call.
    pub fn run_text(&self, text: &str) -> Result<QueryOutput, QueryError> {
        let query = crate::parser::parse_query(text)?;
        let prepared = self.prepare(&query)?;
        self.execute(&prepared)
    }

    /// Instantiates a template with a binding, prepares and executes it.
    pub fn run_template(
        &self,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<QueryOutput, QueryError> {
        self.execute(&self.prepare_template(template, binding)?)
    }

    /// Prepares a template under a binding without executing — the
    /// curation pipeline's profiling path, one optimizer run per candidate
    /// binding. The template is planned directly (a `%parameter` resolves
    /// through `binding`); the result is what [`Engine::prepare`] yields
    /// for [`QueryTemplate::instantiate`]`(binding)`.
    pub fn prepare_template(
        &self,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<Prepared, QueryError> {
        template.check_binding(binding)?;
        self.template_plan(template)?.bind(binding)
    }

    /// Computes the [`PlanClass`] of a (template, binding) pair — the
    /// plan cache's key — without optimizing or lowering anything: one
    /// walk over the template's normal form (the same pattern order
    /// [`Engine::prepare_template`] numbers), costing one exact index
    /// count per triple pattern, plus the distinct counts of
    /// [`Estimator::scan`] — none of which grows with a predicate's extent.
    pub fn plan_class(
        &self,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<PlanClass, QueryError> {
        template.check_binding(binding)?;
        let nf = NormalForm::of(template.query())?;
        let mut words: Vec<u64> = Vec::new();
        for t in nf.groups().flat_map(|g| &g.patterns) {
            // Synthetic probe pattern: real ids for constants and bound
            // parameters, one distinct variable per free position — its
            // scan estimate captures every statistic the real pattern's
            // estimate (including repeated-variable minima) derives from.
            let positions = t.positions();
            let slots: [Slot; 3] =
                std::array::from_fn(|i| self.resolve(positions[i], binding, |_| i));
            // Per position: variable, constant, parameter bound to a known
            // term, parameter bound to a term the store has never seen.
            let code = |(pos, slot): (&VarOrTerm, &Slot)| match (pos, slot) {
                (VarOrTerm::Var(_), _) => 0u64,
                (VarOrTerm::Term(_), _) => 1,
                (VarOrTerm::Param(_), Slot::Absent) => 3,
                (VarOrTerm::Param(_), _) => 2,
            };
            words.push(positions.into_iter().zip(&slots).fold(0, |w, p| w << 2 | code(p)));
            let est = self.est.scan(&PlannedPattern { idx: 0, slots });
            words.push(est.card as u64);
            words.extend(slots.iter().filter_map(|s| Some(est.distinct_of(s.as_var()?).to_bits())));
            if let (true, Slot::Bound(id)) = (t.predicate.is_param(), slots[1]) {
                words.push(id.0 as u64);
            }
        }
        Ok(PlanClass(words))
    }

    /// Rebinds a cached [`Prepared`] plan skeleton to a new binding of the
    /// same template **without re-optimizing**: the template's normal form
    /// is zipped with the cached groups; every scan leaf re-resolves its
    /// parameterized positions (found through `PlannedPattern::idx`) and
    /// every group's FILTERs are re-instantiated from the template's.
    /// Estimates, signature and modifier plan carry over from the cache.
    ///
    /// Only valid when the new binding's [`PlanClass`] equals the cached
    /// plan's — the caller (the serving layer's plan cache) keys its
    /// entries by class, so a class change is a cache miss, never a wrong
    /// reuse. Under class equality the rebound plan is exactly what a cold
    /// [`Engine::prepare_template`] of the binding would produce.
    pub fn rebind(
        &self,
        cached: &Prepared,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<Prepared, QueryError> {
        template.check_binding(binding)?;
        let nf = NormalForm::of(template.query())?;
        let rebind_plan = |plan: &mut PlanNode, group: &Group<'_>| {
            plan.patterns_mut(&mut |pat| {
                let positions = group.patterns[pat.idx - group.first_idx].positions();
                for (slot, pos) in pat.slots.iter_mut().zip(positions) {
                    if pos.is_param() {
                        *slot = self.resolve(pos, binding, |_| unreachable!("not a variable"));
                    }
                }
            });
        };

        let mut out = cached.clone();
        if let Some(plan) = &mut out.bgp_plan {
            rebind_plan(plan, &nf.required);
        }
        out.filters = nf.required.filters_under(binding);
        let cached_groups = out.unions.iter_mut().flatten().chain(&mut out.optionals);
        for (group, cached) in nf.scoped().zip(cached_groups) {
            rebind_plan(&mut cached.plan, group);
            cached.filters = group.filters_under(binding);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    /// Small social dataset: people, names, friendships, posts with dates.
    fn dataset() -> Dataset {
        let mut b = StoreBuilder::new();
        let knows = Term::iri("p/knows");
        let name = Term::iri("p/name");
        let wrote = Term::iri("p/wrote");
        let date = Term::iri("p/date");
        for i in 0..6 {
            let person = Term::iri(format!("person/{i}"));
            b.insert(person.clone(), name.clone(), Term::literal(format!("Name{i}")));
            // Ring of friendships.
            b.insert(person.clone(), knows.clone(), Term::iri(format!("person/{}", (i + 1) % 6)));
            // Two posts each.
            for k in 0..2 {
                let post = Term::iri(format!("post/{i}-{k}"));
                b.insert(person.clone(), wrote.clone(), post.clone());
                b.insert(post, date.clone(), Term::integer((i * 10 + k) as i64));
            }
        }
        b.freeze()
    }

    #[test]
    fn simple_join_query() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text("SELECT ?n WHERE { <person/0> <p/knows> ?f . ?f <p/name> ?n }")
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results.rows[0][0], crate::results::OutVal::Term(Term::literal("Name1")));
        assert!(out.cout >= 1);
    }

    #[test]
    fn order_by_desc_limit() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text(
                "SELECT ?post ?d WHERE { <person/2> <p/wrote> ?post . ?post <p/date> ?d } ORDER BY DESC(?d) LIMIT 1",
            )
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results.rows[0][1].as_num(), Some(21.0));
    }

    #[test]
    fn filter_and_distinct() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text(
                "SELECT DISTINCT ?p WHERE { ?p <p/wrote> ?post . ?post <p/date> ?d . FILTER(?d >= 20) }",
            )
            .unwrap();
        // dates 20,21 (person 2), 30..51 for persons 3..5 → persons 2..5
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn optional_keeps_all_left_rows() {
        let mut b = StoreBuilder::new();
        b.insert(Term::iri("a"), Term::iri("p/knows"), Term::iri("b"));
        b.insert(Term::iri("a"), Term::iri("p/knows"), Term::iri("c"));
        b.insert(Term::iri("b"), Term::iri("p/name"), Term::literal("B"));
        let ds = b.freeze();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text("SELECT ?f ?n WHERE { <a> <p/knows> ?f OPTIONAL { ?f <p/name> ?n } }")
            .unwrap();
        assert_eq!(out.results.len(), 2);
        let unbound = out
            .results
            .rows
            .iter()
            .filter(|r| matches!(r[1], crate::results::OutVal::Unbound))
            .count();
        assert_eq!(unbound, 1);
    }

    #[test]
    fn aggregation_group_by() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text(
                "SELECT ?p (COUNT(?post) AS ?n) (MAX(?d) AS ?newest) WHERE { ?p <p/wrote> ?post . ?post <p/date> ?d } GROUP BY ?p ORDER BY DESC(?newest)",
            )
            .unwrap();
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.results.rows[0][1].as_num(), Some(2.0));
        assert_eq!(out.results.rows[0][2].as_num(), Some(51.0));
    }

    #[test]
    fn unknown_projection_var_is_error() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let err = engine.run_text("SELECT ?nope WHERE { ?p <p/name> ?n }").unwrap_err();
        assert!(matches!(err, QueryError::UnknownVariable(_)));
    }

    #[test]
    fn template_with_unbound_param_is_error() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let q = crate::parser::parse_query("SELECT ?p WHERE { ?p <p/name> %name }").unwrap();
        let err = engine.prepare(&q).unwrap_err();
        assert!(matches!(err, QueryError::UnboundParameter(_)));
    }

    #[test]
    fn term_not_in_dataset_yields_empty_not_error() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine.run_text("SELECT ?x WHERE { ?x <p/knows> <person/unknown-xyz> }").unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn signature_stable_across_bindings_with_same_plan() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let t =
            QueryTemplate::parse("q", "SELECT ?n WHERE { %person <p/knows> ?f . ?f <p/name> ?n }")
                .unwrap();
        let p0 = engine
            .prepare_template(&t, &Binding::new().with("person", Term::iri("person/0")))
            .unwrap();
        let p3 = engine
            .prepare_template(&t, &Binding::new().with("person", Term::iri("person/3")))
            .unwrap();
        assert_eq!(p0.signature, p3.signature);
    }

    #[test]
    fn explain_renders() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let q = crate::parser::parse_query(
            "SELECT ?f WHERE { <person/0> <p/knows> ?f OPTIONAL { ?f <p/name> ?n } }",
        )
        .unwrap();
        let p = engine.prepare(&q).unwrap();
        let text = p.explain();
        assert!(text.contains("signature:"));
        assert!(text.contains("OPTIONAL #0"));
    }

    #[test]
    fn union_concatenates_branches() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        // Friends of person/0 OR friends of person/3 — bare UNION body.
        let out = engine
            .run_text(
                "SELECT ?f WHERE { { <person/0> <p/knows> ?f } UNION { <person/3> <p/knows> ?f } }",
            )
            .unwrap();
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn union_joined_with_required_part() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        // Names of (friends of 0) ∪ (friends of 3).
        let out = engine
            .run_text(
                "SELECT ?f ?n WHERE { ?f <p/name> ?n . { <person/0> <p/knows> ?f } UNION { <person/3> <p/knows> ?f } }",
            )
            .unwrap();
        assert_eq!(out.results.len(), 2);
        for row in &out.results.rows {
            assert!(matches!(row[1], crate::results::OutVal::Term(_)));
        }
    }

    #[test]
    fn union_branch_filters_are_scoped() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let out = engine
            .run_text(
                "SELECT ?p ?d WHERE { { ?p <p/wrote> ?x . ?x <p/date> ?d . FILTER(?d < 1) } UNION { ?p <p/wrote> ?x . ?x <p/date> ?d . FILTER(?d >= 50) } }",
            )
            .unwrap();
        // dates: 0,1 for person 0 ... 50,51 for person 5 → d=0, d=50, d=51.
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn union_with_mismatched_vars_is_unsupported() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let err = engine
            .run_text("SELECT ?a WHERE { { ?a <p/knows> ?b } UNION { ?a <p/name> ?c } }")
            .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)), "{err}");
    }

    #[test]
    fn union_signature_lists_branches() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        let q = crate::parser::parse_query(
            "SELECT ?f WHERE { { <person/0> <p/knows> ?f } UNION { <person/3> <p/knows> ?f } }",
        )
        .unwrap();
        let p = engine.prepare(&q).unwrap();
        assert!(p.signature.0.starts_with("UNION("), "{}", p.signature);
        assert!(p.explain().contains("UNION #0"));
        // Pattern numbering is part of the signature: required patterns,
        // then UNION branches, then OPTIONALs — whatever the clause order.
        let q = crate::parser::parse_query(
            "SELECT ?f WHERE { OPTIONAL { ?f <p/name> ?n } \
             { ?f <p/wrote> ?x } UNION { ?x <p/wrote> ?f } ?f <p/knows> <person/0> }",
        )
        .unwrap();
        assert_eq!(engine.prepare(&q).unwrap().signature.0, "S0+UNION(S1|S2)+OPT(S3)");
    }

    #[test]
    fn measured_cout_counts_join_outputs() {
        let ds = dataset();
        let engine = Engine::new(&ds);
        // Two joins: friends-of-friends.
        let out = engine
            .run_text(
                "SELECT ?c WHERE { <person/0> <p/knows> ?b . ?b <p/knows> ?c . ?c <p/name> ?n }",
            )
            .unwrap();
        assert_eq!(out.results.len(), 1); // ring: 0→1→2
        assert!(out.cout >= 2, "cout = {}", out.cout);
        assert_eq!(out.stats.join_cards.len(), 2);
    }
}
