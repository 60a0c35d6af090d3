//! Differential property tests of the streaming engine against two
//! references:
//!
//! * `Engine::execute_unpushed` — the same join pipeline with every
//!   solution modifier applied after full materialization. Because the
//!   engine pins tie-breaking to pipeline row order, the pushed result
//!   must be **identical row-for-row**, and measured `Cout` must match
//!   exactly whenever no LIMIT can cut execution short.
//! * the naive oracle in `common/oracle.rs` — an independent nested-loop
//!   evaluator whose modifiers run over decoded terms. Comparison is
//!   order-aware modulo unordered prefixes under ties (see
//!   `oracle::assert_matches`).
//!
//! The generators draw random BGP + OPTIONAL + FILTER bodies and random
//! modifier stacks: DISTINCT, GROUP BY + COUNT/SUM/AVG/MIN/MAX (with
//! DISTINCT and COUNT(*) variants), multi-key ORDER BY (including keys
//! that are not projected), and LIMIT/OFFSET (including LIMIT 0 and
//! offsets past the end).

//! Every differential case additionally re-executes through the
//! morsel-driven parallel path at `threads ∈ {1, 2, 4}` (with tiny morsels
//! forced, so even these small datasets split into many morsels): the
//! engine guarantees rows, row order and measured `Cout` are bit-identical
//! at any thread count, and — absent a LIMIT that legitimizes wave-granular
//! early exit — equal to the serial pipeline's too.
//!
//! Finally, every case sweeps the out-of-core layer: memory budgets of
//! {2, 16} rows × {1, 4} threads force the GROUP BY fold and the
//! full-sort fallback onto the spill path (partitioned run files,
//! loser-tree merge), asserting rows, row order, `Cout` and `scanned`
//! stay bit-identical to the unlimited in-memory run.
//!
//! Every one of those runs is also checked against the physical plan
//! recorded for it (`explained::assert_executed_as_explained`): what
//! EXPLAIN says must be what the counters show ran, and the plan must
//! morselize exactly when the rules allow it
//! (`explained::assert_morselized_iff_qualified`, checked before it runs) — and
//! `Engine::measure_cout` under the same configuration must return that
//! run's `Cout`, the integer curation's measured cost source records.
//!
//! And every case runs all of the above on the three store twins of
//! `common/stores.rs` — heap-built, snapshot-loaded and overlay-carrying —
//! whose rows, row order, `Cout`, `scanned`, `peak_tuples` and plan
//! signature must be identical to the heap store's.

mod common;
#[path = "common/explained.rs"]
mod explained;
#[path = "common/stores.rs"]
mod stores;

use common::oracle;
use explained::{assert_executed_as_explained, assert_morselized_iff_qualified};
use proptest::prelude::*;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::term::Term;
use parambench_sparql::engine::Engine;
use parambench_sparql::{parse_query, CoutTables, ExecConfig, PlanSignature, QueryOutput};

/// Builds a random dataset over small vocabularies so joins actually hit.
/// Predicate 3 carries small-integer objects, so aggregates and ORDER BY
/// see numeric values (kept integral: the oracle and the engine then
/// compute bit-identical sums/averages regardless of fold order).
fn dataset(triples: &[(u8, u8, u8)]) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for &(s, p, o) in triples {
        let object = if p % 4 == 3 {
            Term::integer((o % 8) as i64)
        } else {
            Term::iri(format!("o/{}", o % 12))
        };
        b.insert(Term::iri(format!("s/{}", s % 12)), Term::iri(format!("p/{}", p % 4)), object);
    }
    b
}

/// One random triple pattern: subject var, predicate index, object var or
/// constant (integer constant on the numeric predicate).
#[derive(Debug, Clone)]
struct PatternSpec {
    s_var: u8,
    pred: u8,
    obj: Result<u8, u8>, // Ok(var), Err(const)
}

impl PatternSpec {
    fn to_text(&self) -> String {
        let obj = match self.obj {
            Ok(v) => format!("?v{v}"),
            Err(c) if self.pred % 4 == 3 => format!("{}", c % 8),
            Err(c) => format!("<o/{}>", c % 12),
        };
        format!("?s{} <p/{}> {obj} . ", self.s_var, self.pred % 4)
    }

    fn var_names(&self) -> Vec<String> {
        let mut out = vec![format!("s{}", self.s_var)];
        if let Ok(v) = self.obj {
            out.push(format!("v{v}"));
        }
        out
    }
}

fn arb_pattern() -> impl Strategy<Value = PatternSpec> {
    (0u8..4, 0u8..4, prop_oneof![(0u8..4).prop_map(Ok), (0u8..12).prop_map(Err)])
        .prop_map(|(s_var, pred, obj)| PatternSpec { s_var, pred, obj })
}

/// A random FILTER over one of the query's variables.
#[derive(Debug, Clone)]
enum FilterSpec {
    Compare { var_ix: u8, op: &'static str, constant: u8, numeric: bool },
    Bound { var_ix: u8, negated: bool },
}

fn arb_filter() -> impl Strategy<Value = FilterSpec> {
    prop_oneof![
        (
            0u8..8,
            prop_oneof![Just("="), Just("!="), Just("<"), Just(">"), Just("<="), Just(">=")],
            0u8..12,
            any::<bool>(),
        )
            .prop_map(|(var_ix, op, constant, numeric)| FilterSpec::Compare {
                var_ix,
                op,
                constant,
                numeric
            }),
        (0u8..8, any::<bool>()).prop_map(|(var_ix, negated)| FilterSpec::Bound { var_ix, negated }),
    ]
}

impl FilterSpec {
    fn to_text(&self, vars: &[String]) -> String {
        match self {
            FilterSpec::Compare { var_ix, op, constant, numeric } => {
                let var = &vars[*var_ix as usize % vars.len()];
                if *numeric {
                    format!("FILTER(?{var} {op} {}) ", constant % 8)
                } else {
                    format!("FILTER(?{var} {op} <o/{constant}>) ")
                }
            }
            FilterSpec::Bound { var_ix, negated } => {
                let var = &vars[*var_ix as usize % vars.len()];
                if *negated {
                    format!("FILTER(!bound(?{var})) ")
                } else {
                    format!("FILTER(bound(?{var})) ")
                }
            }
        }
    }
}

/// A random solution-modifier stack.
#[derive(Debug, Clone)]
enum ModSpec {
    Plain {
        distinct: bool,
        /// Indices (mod var count) of the projected variables.
        project: Vec<u8>,
        /// ORDER BY keys: (var index, descending) — keys may land outside
        /// the projection, exercising helper columns.
        order: Vec<(u8, bool)>,
        limit: Option<u8>,
        offset: Option<u8>,
    },
    Agg {
        /// Group-variable indices (empty = implicit single group).
        group: Vec<u8>,
        /// (func 0..5, input var index, distinct); func 0 with input 255
        /// renders COUNT(*).
        aggs: Vec<(u8, u8, bool)>,
        /// ORDER BY keys: (use alias?, index, descending).
        order: Vec<(bool, u8, bool)>,
        limit: Option<u8>,
        offset: Option<u8>,
    },
}

fn arb_mods() -> impl Strategy<Value = ModSpec> {
    let plain = (
        any::<bool>(),
        prop::collection::vec(0u8..8, 1..4),
        prop::collection::vec((0u8..8, any::<bool>()), 0..3),
        prop::option::of(0u8..12),
        prop::option::of(0u8..7),
    )
        .prop_map(|(distinct, project, order, limit, offset)| ModSpec::Plain {
            distinct,
            project,
            order,
            limit,
            offset,
        });
    let agg = (
        prop::collection::vec(0u8..8, 0..3),
        prop::collection::vec(
            (0u8..5, prop_oneof![1 => Just(255u8), 5 => 0u8..8], any::<bool>()),
            1..3,
        ),
        prop::collection::vec((any::<bool>(), 0u8..4, any::<bool>()), 0..3),
        prop::option::of(0u8..12),
        prop::option::of(0u8..7),
    )
        .prop_map(|(group, aggs, order, limit, offset)| ModSpec::Agg {
            group,
            aggs,
            order,
            limit,
            offset,
        });
    prop_oneof![3 => plain, 2 => agg]
}

const FUNCS: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];

impl ModSpec {
    /// Renders SELECT clause + trailing modifiers around a WHERE body.
    /// Returns None when the drawn spec cannot form a valid query.
    fn render(&self, vars: &[String], body: &str) -> Option<String> {
        match self {
            ModSpec::Plain { distinct, project, order, limit, offset } => {
                let mut proj: Vec<&String> = Vec::new();
                for &p in project {
                    let v = &vars[p as usize % vars.len()];
                    if !proj.contains(&v) {
                        proj.push(v);
                    }
                }
                let mut text = String::from("SELECT ");
                if *distinct {
                    text.push_str("DISTINCT ");
                }
                for v in &proj {
                    text.push_str(&format!("?{v} "));
                }
                text.push_str(&format!("WHERE {{ {body}}}"));
                if !order.is_empty() {
                    text.push_str(" ORDER BY");
                    for &(ix, desc) in order {
                        let v = &vars[ix as usize % vars.len()];
                        text.push_str(if desc { " DESC(?" } else { " ASC(?" });
                        text.push_str(v);
                        text.push(')');
                    }
                }
                Self::push_slice(&mut text, *limit, *offset);
                Some(text)
            }
            ModSpec::Agg { group, aggs, order, limit, offset } => {
                let mut gvars: Vec<&String> = Vec::new();
                for &g in group {
                    let v = &vars[g as usize % vars.len()];
                    if !gvars.contains(&v) {
                        gvars.push(v);
                    }
                }
                let mut text = String::from("SELECT ");
                for v in &gvars {
                    text.push_str(&format!("?{v} "));
                }
                let mut aliases: Vec<String> = Vec::new();
                for (i, &(func, input, distinct)) in aggs.iter().enumerate() {
                    let func_ix = (func as usize) % FUNCS.len();
                    let alias = format!("a{i}");
                    let inner = if input == 255 {
                        if func_ix != 0 {
                            // Only COUNT(*) is part of the subset.
                            return None;
                        }
                        "*".to_string()
                    } else {
                        format!(
                            "{}?{}",
                            if distinct { "DISTINCT " } else { "" },
                            &vars[input as usize % vars.len()]
                        )
                    };
                    text.push_str(&format!("({}({inner}) AS ?{alias}) ", FUNCS[func_ix]));
                    aliases.push(alias);
                }
                text.push_str(&format!("WHERE {{ {body}}}"));
                if !gvars.is_empty() {
                    text.push_str(" GROUP BY");
                    for v in &gvars {
                        text.push_str(&format!(" ?{v}"));
                    }
                }
                if !order.is_empty() {
                    text.push_str(" ORDER BY");
                    for &(use_alias, ix, desc) in order {
                        let name = if use_alias || gvars.is_empty() {
                            aliases[ix as usize % aliases.len()].clone()
                        } else {
                            (*gvars[ix as usize % gvars.len()]).clone()
                        };
                        text.push_str(if desc { " DESC(?" } else { " ASC(?" });
                        text.push_str(&name);
                        text.push(')');
                    }
                }
                Self::push_slice(&mut text, *limit, *offset);
                Some(text)
            }
        }
    }

    fn push_slice(text: &mut String, limit: Option<u8>, offset: Option<u8>) {
        if let Some(l) = limit {
            text.push_str(&format!(" LIMIT {l}"));
        }
        if let Some(o) = offset {
            text.push_str(&format!(" OFFSET {o}"));
        }
    }

    fn has_limit(&self) -> bool {
        matches!(self, ModSpec::Plain { limit: Some(_), .. } | ModSpec::Agg { limit: Some(_), .. })
    }
}

/// Builds the WHERE body and variable list from pattern/filter specs.
fn build_body(
    required: &[PatternSpec],
    optional: &Option<Vec<PatternSpec>>,
    filters: &[FilterSpec],
) -> (String, Vec<String>) {
    let mut body = String::new();
    let mut vars: Vec<String> = Vec::new();
    for spec in required {
        body.push_str(&spec.to_text());
        for v in spec.var_names() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    if let Some(opt) = optional {
        body.push_str("OPTIONAL { ");
        for spec in opt {
            body.push_str(&spec.to_text());
            for v in spec.var_names() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        body.push_str("} ");
    }
    for f in filters {
        body.push_str(&f.to_text(&vars));
    }
    (body, vars)
}

/// Runs one differential case on each store twin and demands the heap
/// twin's plan and output from the other two.
fn check_twins(triples: &[(u8, u8, u8)], text: &str, limit_present: bool) {
    let mut heap: Option<(PlanSignature, QueryOutput)> = None;
    for (kind, ds) in stores::twins(dataset(triples)) {
        let (sig, out) = check_case(&ds, text, limit_present);
        let Some((heap_sig, heap_out)) = &heap else {
            heap = Some((sig, out));
            continue;
        };
        assert_eq!(&sig, heap_sig, "[{kind}] plan signature diverges for {text}");
        assert_eq!(out.results, heap_out.results, "[{kind}] rows/order diverge for {text}");
        assert_eq!(out.cout, heap_out.cout, "[{kind}] Cout diverges for {text}");
        assert_eq!(out.stats.scanned, heap_out.stats.scanned, "[{kind}] scanned diverges");
        assert_eq!(out.stats.peak_tuples, heap_out.stats.peak_tuples, "[{kind}] peak diverges");
        if kind == "overlay" && heap_out.stats.scanned > 0 {
            // Every predicate-bound range carries an overlay entry, so the
            // first scan pulled merged some.
            assert!(out.stats.overlay_rows > 0, "[overlay] no scan merged the overlay: {text}");
        }
    }
}

/// The sweeps' forced-morsel config: tiny morsels and no qualification
/// thresholds, so every bind-join spine runs over morsels even on these
/// small datasets.
fn forced_morsels(threads: usize, mem_budget_rows: Option<usize>) -> ExecConfig {
    ExecConfig {
        threads,
        morsel_rows: 5,
        min_driver_rows: 1,
        min_est_cost: 0.0,
        mem_budget_rows,
        ..ExecConfig::default()
    }
}

/// Runs one differential case: pushed vs unpushed vs oracle. Returns the
/// plan signature and the default configuration's output.
fn check_case(ds: &Dataset, text: &str, limit_present: bool) -> (PlanSignature, QueryOutput) {
    let engine = Engine::new(ds);
    let query = parse_query(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
    let prepared = engine.prepare(&query).unwrap_or_else(|e| panic!("prepare {text:?}: {e}"));
    // Every execution below is checked against the physical plan recorded
    // for it: the morsel rule before the plan runs, the counters after.
    let run = |exec: &ExecConfig| {
        let ctx = format!("{text} under {exec:?}");
        let plan = engine.physical_plan(&prepared, exec);
        assert_morselized_iff_qualified(ds, &plan, exec, &ctx);
        let out = engine.execute_with(&prepared, exec).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_executed_as_explained(&plan, &out, exec, &ctx);
        out
    };
    let pushed = run(&engine.exec_config());
    // The measured-cost path curation profiles with must return the very
    // integer the execution it stands in for reports — LIMIT early exit
    // included — under every configuration swept below, through count
    // tables shared across them.
    let mut tables = CoutTables::new(ds);
    let mut measured = |exec: &ExecConfig, out: &QueryOutput| {
        let cout = Engine::with_exec_config(ds, *exec)
            .measure_cout(&prepared, &mut tables)
            .unwrap_or_else(|e| panic!("measure_cout {text:?} under {exec:?}: {e}"));
        assert_eq!(cout, out.cout, "measure_cout diverges from execute for {text} under {exec:?}");
        // Validation's form: a plan recorded under `exec`, measured by an
        // engine configured otherwise.
        let cout = engine
            .measure_cout_with(&engine.physical_plan(&prepared, exec), exec, &mut tables)
            .unwrap_or_else(|e| panic!("measure_cout_with {text:?} under {exec:?}: {e}"));
        assert_eq!(cout, out.cout, "measure_cout_with diverges from execute for {text}");
    };
    measured(&engine.exec_config(), &pushed);
    let unpushed = engine
        .execute_unpushed(&prepared)
        .unwrap_or_else(|e| panic!("execute_unpushed {text:?}: {e}"));

    // Pinned tie-breaking makes the pushed pipeline bit-identical to the
    // materialize-then-modify baseline — including row order.
    assert_eq!(pushed.results, unpushed.results, "pushed and unpushed results diverge for {text}");
    if limit_present {
        // Early exit may only ever do *less* join work.
        assert!(
            pushed.cout <= unpushed.cout,
            "pushed Cout {} exceeds unpushed {} for {text}",
            pushed.cout,
            unpushed.cout
        );
    } else {
        assert_eq!(pushed.cout, unpushed.cout, "Cout diverges for {text}");
        assert_eq!(
            pushed.stats.cout_optional, unpushed.stats.cout_optional,
            "optional Cout diverges for {text}"
        );
    }

    // Independent oracle: naive evaluation + modifiers over decoded terms.
    let want = oracle::evaluate(ds, &query);
    oracle::assert_matches(&pushed.results, &want, text);

    // Morsel-parallel determinism: force morselization (tiny morsels, no
    // qualification thresholds) and run at several thread counts. Rows and
    // row order must equal the serial pipeline's bit-for-bit; Cout and
    // scanned must be identical across thread counts (the fixed morsel/wave
    // geometry guarantee), and equal to serial when no LIMIT allows
    // wave-granular early exit to complete extra work.
    let mut reference: Option<(u64, u64, u64)> = None;
    for threads in [1usize, 2, 4] {
        let exec = forced_morsels(threads, None);
        let par = run(&exec);
        measured(&exec, &par);
        assert_eq!(
            par.results, pushed.results,
            "parallel ({threads} threads) rows/order diverge from serial for {text}"
        );
        let key = (par.cout, par.stats.scanned, par.stats.peak_tuples);
        match &reference {
            None => {
                reference = Some(key);
                if limit_present {
                    assert!(
                        par.cout <= unpushed.cout,
                        "parallel Cout {} exceeds unpushed {} for {text}",
                        par.cout,
                        unpushed.cout
                    );
                } else {
                    assert_eq!(par.cout, pushed.cout, "parallel Cout diverges for {text}");
                }
            }
            Some(r) => {
                assert_eq!(*r, key, "thread count {threads} changed Cout/scanned/peak for {text}")
            }
        }
    }

    // Budget sweep: the out-of-core guarantee. At memory budgets of 2 and
    // 16 rows (forcing the GROUP BY fold and the full-sort fallback onto
    // the spill path for nearly every case) × 1 and 4 threads, rows, row
    // order, Cout and scanned must all be bit-identical to the unlimited
    // run — spilling may only move state to disk, never change a result
    // or a deterministic counter. The unlimited combos above anchor the
    // (cout, scanned) reference; peak_tuples is deliberately excluded
    // here (a tighter budget legitimately lowers it).
    let (ref_cout, ref_scanned, _) = reference.expect("thread sweep ran");
    for budget in [Some(2), Some(16)] {
        for threads in [1usize, 4] {
            let exec = forced_morsels(threads, budget);
            let out = run(&exec);
            measured(&exec, &out);
            assert_eq!(
                out.results, pushed.results,
                "budget {budget:?} × {threads} threads changed rows/order for {text}"
            );
            assert_eq!(
                (out.cout, out.stats.scanned),
                (ref_cout, ref_scanned),
                "budget {budget:?} × {threads} threads changed Cout/scanned for {text}"
            );
        }
    }
    (prepared.signature, pushed)
}

/// The thread sweep really runs the morsel path: a bind-join spine goes
/// through the whole differential case, and its recorded plan is
/// morselized at every thread count the sweep runs.
#[test]
fn thread_sweep_runs_a_bind_spine_over_morsels() {
    let triples: Vec<(u8, u8, u8)> = (0..48u8).map(|i| (i / 2 % 12, i % 2, i % 12)).collect();
    let text = "SELECT * WHERE { ?s0 <p/0> ?v0 . ?s0 <p/1> ?v1 . }";
    check_twins(&triples, text, false);
    let ds = dataset(&triples).freeze();
    let engine = Engine::new(&ds);
    let prepared = engine.prepare(&parse_query(text).unwrap()).unwrap();
    for threads in [1usize, 2, 4] {
        let plan = engine.physical_plan(&prepared, &forced_morsels(threads, None));
        assert!(plan.morselized, "threads={threads}: not morselized:\n{}", plan.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Modifier-free pipelines (the PR-1 property, now against the oracle):
    /// identical rows, identical `Cout` between pushed and unpushed.
    #[test]
    fn streaming_equals_oracle_on_bgp_optional_filter(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..60),
        required in prop::collection::vec(arb_pattern(), 1..4),
        optional in prop::option::of(prop::collection::vec(arb_pattern(), 1..3)),
        filters in prop::collection::vec(arb_filter(), 0..3),
    ) {
        let (body, _vars) = build_body(&required, &optional, &filters);
        let text = format!("SELECT * WHERE {{ {body}}}");
        check_twins(&triples, &text, false);
    }

    /// UNION bodies (with branch-scoped filters) stay equivalent too.
    #[test]
    fn streaming_equals_oracle_with_union(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..50),
        pred_a in 0u8..3,
        pred_b in 0u8..3,
        constant in 0u8..12,
        limit in prop::option::of(0u8..9),
    ) {
        let mut text = format!(
            "SELECT * WHERE {{ ?s0 <p/{pred_a}> ?v0 . \
             {{ ?s0 <p/{pred_b}> ?v1 . FILTER(?v1 != <o/{constant}>) }} \
             UNION {{ ?v1 <p/{pred_a}> ?s0 }} }}"
        );
        if let Some(l) = limit {
            text.push_str(&format!(" LIMIT {l}"));
        }
        check_twins(&triples, &text, limit.is_some());
    }
}

/// A triple pattern with a variable object: with no constant to miss, the
/// body of a draw has rows on nearly every store.
fn arb_var_pattern() -> impl Strategy<Value = PatternSpec> {
    (0u8..4, 0u8..3, 0u8..4).prop_map(|(s_var, pred, v)| PatternSpec { s_var, pred, obj: Ok(v) })
}

/// `SELECT DISTINCT` of the drawn variables outside the ORDER BY keys,
/// under those keys (at least one descending); `None` when every variable
/// is a key.
fn render_hidden_keys(
    vars: &[String],
    body: &str,
    project: &[u8],
    order: &[(u8, bool)],
    limit: Option<u8>,
) -> Option<String> {
    let keys: Vec<(&String, bool)> =
        order.iter().map(|&(ix, desc)| (&vars[ix as usize % vars.len()], desc)).collect();
    let hidden = |v: &String| keys.iter().any(|(k, _)| *k == v);
    let mut proj: Vec<&String> = Vec::new();
    for v in project.iter().map(|&p| &vars[p as usize % vars.len()]) {
        if !hidden(v) && !proj.contains(&v) {
            proj.push(v);
        }
    }
    if proj.is_empty() {
        proj.push(vars.iter().find(|v| !hidden(v))?);
    }
    let mut text = String::from("SELECT DISTINCT ");
    for v in &proj {
        text.push_str(&format!("?{v} "));
    }
    text.push_str(&format!("WHERE {{ {body}}} ORDER BY"));
    for (i, (v, desc)) in keys.iter().enumerate() {
        let desc = *desc || i == 0;
        text.push_str(&format!(" {}(?{v})", if desc { "DESC" } else { "ASC" }));
    }
    ModSpec::push_slice(&mut text, limit, None);
    Some(text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// DISTINCT under ORDER BY keys it does not project keeps, per
    /// projected value, the row that sorts first — not the one that
    /// arrives first. Arrival is in index order, ascending, so a
    /// descending unprojected key orders a value's duplicates against
    /// arrival: a dedup run before the sort picks the wrong representative
    /// and the values come out in another order. Dense bodies (variable
    /// objects, no FILTER, no OPTIONAL) make such duplicates common.
    #[test]
    fn distinct_under_unprojected_sort_keys_matches_oracle(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 20..60),
        required in prop::collection::vec(arb_var_pattern(), 1..3),
        project in prop::collection::vec(0u8..8, 1..3),
        order in prop::collection::vec((0u8..8, any::<bool>()), 1..3),
        limit in prop::option::of(1u8..12),
    ) {
        let (body, vars) = build_body(&required, &None, &[]);
        let Some(text) = render_hidden_keys(&vars, &body, &project, &order, limit) else {
            return Ok(());
        };
        check_twins(&triples, &text, limit.is_some());
    }
}

proptest! {
    // The acceptance gate asks for 200+ random modifier-bearing queries;
    // a small fraction of draws renders an unsupported spec and is
    // skipped, so run comfortably more.
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// The modifier differential suite: random DISTINCT / GROUP BY +
    /// aggregate / ORDER BY (incl. unprojected keys) / LIMIT + OFFSET
    /// stacks over random BGP + OPTIONAL + FILTER bodies.
    #[test]
    fn modifiers_match_oracle(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 5..60),
        required in prop::collection::vec(arb_pattern(), 1..4),
        optional in prop::option::of(prop::collection::vec(arb_pattern(), 1..3)),
        filters in prop::collection::vec(arb_filter(), 0..2),
        mods in arb_mods(),
    ) {
        let (body, vars) = build_body(&required, &optional, &filters);
        let Some(text) = mods.render(&vars, &body) else {
            // Invalid spec draw (e.g. SUM(*)); skip without consuming a case.
            return Ok(());
        };
        check_twins(&triples, &text, mods.has_limit());
    }
}
