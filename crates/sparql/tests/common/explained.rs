//! "Executed = explained": the counters of a finished run must agree with
//! the [`PhysicalPlan`] recorded for it, and the rendered EXPLAIN must name
//! what the plan records; and a plan must be morselized exactly when the
//! rules allow it. Included (by `#[path]`) by the sweeps that call it, so
//! every query × config they already run is also checked here.

use parambench_rdf::store::Dataset;
use parambench_sparql::{ExecConfig, Fold, JoinMethod, PhysNode, PhysicalPlan, QueryOutput, Sort};

fn collect<'a>(node: &'a PhysNode, out: &mut Vec<&'a PhysNode>) {
    out.push(node);
    if let PhysNode::Join { left, right, .. } = node {
        collect(left, out);
        collect(right, out);
    }
}

/// Asserts that `out` — the result of executing under `exec` the query
/// `plan` was recorded for — ran exactly as `plan` (and its rendering) say.
pub fn assert_executed_as_explained(
    plan: &PhysicalPlan<'_>,
    out: &QueryOutput,
    exec: &ExecConfig,
    ctx: &str,
) {
    let (stats, m, text) = (&out.stats, plan.modifiers, plan.render());
    let mut nodes: Vec<&PhysNode> = Vec::new();
    let groups = plan.unions.iter().flatten().chain(&plan.optionals);
    for tree in plan.bgp.iter().chain(groups.map(|g| &g.node)) {
        collect(tree, &mut nodes);
    }

    // The recorded sort is the sort that ran.
    match plan.sort {
        Sort::None | Sort::Eliminated => {
            assert_eq!(stats.sorted_rows, 0, "{ctx}: recorded {:?} but rows were sorted", plan.sort)
        }
        Sort::TopK | Sort::Full { .. } => assert!(
            out.results.is_empty() || stats.sorted_rows > 0,
            "{ctx}: recorded {:?} but nothing was sorted",
            plan.sort
        ),
    }
    assert_eq!(
        text.contains("sort: eliminated") || text.contains("sort: none"),
        matches!(plan.sort, Sort::None | Sort::Eliminated),
        "{ctx}: rendered sort disagrees with {:?}:\n{text}",
        plan.sort
    );

    // A real sort carries the budget on the plain path, and only there.
    if let Sort::Full { budget } = plan.sort {
        assert_eq!(
            budget,
            exec.mem_budget_rows.filter(|_| m.aggregate.is_none()),
            "{ctx}: recorded {:?} under budget {:?}",
            plan.sort,
            exec.mem_budget_rows
        );
    }

    // Only recorded hash joins, OPTIONALs and joined UNIONs build tables.
    let hash_join =
        |n: &&PhysNode| matches!(n, PhysNode::Join { method: JoinMethod::Hash { .. }, .. });
    let union_joins = plan.unions.len() > usize::from(plan.bgp.is_none());
    if !nodes.iter().any(hash_join) && plan.optionals.is_empty() && !union_joins {
        assert_eq!(stats.build_rows, 0, "{ctx}: no build recorded, yet rows were built:\n{text}");
    }

    // The external fold is what a budget does to aggregation, and only that.
    assert_eq!(
        matches!(plan.fold, Some(Fold::External { .. })),
        exec.mem_budget_rows.is_some() && m.aggregate.is_some(),
        "{ctx}: recorded fold {:?} under budget {:?}",
        plan.fold,
        exec.mem_budget_rows
    );

    // The operator tree names every recorded node by the method it ran as.
    for label in ["IndexScan", "BindJoin", "HashJoin[build=right]", "HashJoin[build=left]"] {
        let recorded = nodes.iter().filter(|n| n.method() == label).count();
        assert_eq!(text.matches(label).count(), recorded, "{ctx}: {label} in:\n{text}");
    }
}

/// Asserts that `plan`, recorded under `exec`, is morselized exactly when
/// its required BGP qualifies, and that its rendering says so. Reads the
/// plan alone, so the sweeps check it before the plan runs.
pub fn assert_morselized_iff_qualified(
    ds: &Dataset,
    plan: &PhysicalPlan<'_>,
    exec: &ExecConfig,
    ctx: &str,
) {
    let (m, text) = (plan.modifiers, plan.render());
    // `morselized` ⇔ the plan qualifies, re-derived from the recorded tree:
    // only a bind-join spine runs over morsels, so follow the left side of
    // every bind join down to the driving scan; any hash join disqualifies.
    let output_bound = plan.fold.is_none()
        && m.limit.is_some()
        && matches!(plan.sort, Sort::None | Sort::Eliminated);
    let mut node = plan.bgp.as_ref();
    let driver = loop {
        match node {
            None => break None,
            Some(PhysNode::Scan { pattern, .. }) => break Some(pattern),
            Some(PhysNode::Join { method: JoinMethod::Bind, left, .. }) => node = Some(left),
            Some(PhysNode::Join { .. }) => break None,
        }
    };
    let joins = matches!(plan.bgp, Some(PhysNode::Join { .. }));
    let driver_ok = driver
        .is_some_and(|p| !p.has_absent() && ds.count(p.access()) >= exec.min_driver_rows.max(1));
    if plan.morselized {
        assert!(joins && driver_ok && !output_bound, "{ctx}: morselized, not qualified:\n{text}");
    } else if exec.min_est_cost <= 0.0 {
        assert!(
            !(joins && driver_ok && !output_bound),
            "{ctx}: qualified, not morselized:\n{text}"
        );
    }
    assert_eq!(text.contains("Morsels"), plan.morselized, "{ctx}:\n{text}");
}
