//! The printed report and the result line.

use std::fmt::Write as _;

use crate::cli::RunArgs;
use crate::env;
use crate::json::{obj, Json};
use crate::metrics::{Digest, MetricDef, END_TO_END, PER_LAYER};
use crate::trace;
use crate::workloads::{Outcome, Timed, Workload};

fn digest_line(out: &mut String, name: &str, unit: &str, values: &[f64], seed: u64) {
    match Digest::of(values, seed) {
        Some(d) => {
            let _ = writeln!(
                out,
                "  {name:<24} {unit:>5}  n {:>7}  median {:>12.4} [{:.4}, {:.4}]  q1 {:>11.4}  q3 {:>11.4}  p{:<4} {:>11.4}",
                d.n,
                d.median,
                d.ci.0,
                d.ci.1,
                d.q1,
                d.q3,
                d.tail_pct * 100.0,
                d.tail
            );
        }
        None => {
            let _ = writeln!(out, "  {name:<24} {unit:>5}  n       0");
        }
    }
}

fn metric_line(out: &mut String, def: &MetricDef, value: f64, note: &str) {
    let bound = if def.bound > 0.0 { format!("bound {:.2}", def.bound) } else { String::new() };
    let _ = writeln!(
        out,
        "  {:<26} {:>16.6} {:<6} {:<7} {:<11} {note}",
        def.name,
        value,
        def.unit,
        def.better.as_str(),
        bound
    );
}

/// Self time per layer and per span of one traced section.
fn trace_section(out: &mut String, workload: Workload, o: &Outcome, traced: &Timed) {
    let by_name = trace::self_times(&traced.spans);
    let total: f64 = by_name.values().map(|t| t.self_ms).sum();
    let layer = |name: &str| o.layers.get(name).copied().unwrap_or(0.0);
    let _ = writeln!(
        out,
        "traced section: {:.3} s wall x {} recording thread(s); span self times sum to {total:.1} ms = {:.1}% of it",
        traced.wall_s,
        traced.spans.len().max(1),
        layer("span_coverage_pct"),
    );
    let _ = writeln!(out, "  self time per layer:");
    for (layer, ms) in trace::layer_self_times(&by_name) {
        let _ =
            writeln!(out, "    {layer:<22} {ms:>12.3} ms  {:>5.1}%", 100.0 * ms / total.max(1e-9));
    }
    let _ = writeln!(out, "  per span (name, count, total ms, self ms):");
    for (name, t) in &by_name {
        let _ =
            writeln!(out, "    {name:<40} {:>8} {:>12.3} {:>12.3}", t.count, t.total_ms, t.self_ms);
    }
    let _ = writeln!(
        out,
        "  tracing overhead: {} {:.3}/s untraced, {:.3}/s traced, {:.2}% lost (base: untraced)",
        workload.roles().rate_name,
        o.timed.throughput(),
        traced.throughput(),
        layer("trace_overhead_pct"),
    );
}

/// The printed report (everything above the result line).
pub fn render(args: &RunArgs, o: &Outcome) -> String {
    let w = args.workload;
    let roles = w.roles();
    let t = &o.timed;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parambench benchmark: workload {}, seed {}, {} s timed, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace { "on (timed section split: half untraced, half traced)" } else { "off" }
    );
    let _ = writeln!(out, "machine: {}", env::machine());
    let _ = writeln!(out, "why: {}", w.why());
    out.push_str(&o.description);

    let _ = writeln!(out, "roles on this workload:");
    let _ = writeln!(out, "  primary   = {} [{}]", roles.primary, roles.rate_name);
    let _ = writeln!(out, "  tail      = p{} of the primary operation", roles.tail_pct * 100.0);
    let _ = writeln!(out, "  secondary = {}", roles.secondary);
    let _ = writeln!(out, "  restart   = {}", roles.restart);

    let _ = writeln!(
        out,
        "end-to-end metrics (untraced: {:.3} s wall in {} section(s); rates and latencies are medians over the sections):",
        t.wall_s,
        o.sections.len()
    );
    let e2e = o.end_to_end();
    for def in END_TO_END {
        let note = match def.name {
            "throughput_per_s" => format!("{} units of work in {:.3} s busy", t.work, t.busy_s),
            _ => String::new(),
        };
        metric_line(&mut out, def, e2e[def.name], &note);
    }
    for (i, s) in o.sections.iter().enumerate() {
        let _ = writeln!(
            out,
            "  section {i}: throughput {:.4}/s  p50 {:.4} ms  tail {:.4} ms  second p50 {:.4} ms",
            s.throughput, s.p50, s.tail, s.second_p50
        );
    }
    let _ = writeln!(out, "samples of the whole run (median with 95% bootstrap interval, quartiles, highest percentile with >= 10 samples beyond it):");
    digest_line(&mut out, "primary latency", "ms", &t.primary_ms, args.seed);
    digest_line(&mut out, "secondary latency", "ms", &t.secondary_ms, args.seed);
    digest_line(&mut out, "restart", "ms", &o.restart_ms, args.seed);
    digest_line(&mut out, "setup", "s", &o.setup_s, args.seed);
    if !t.samples.is_empty() {
        let _ = writeln!(out, "other samples of the section:");
        for (name, v) in &t.samples {
            digest_line(&mut out, name, "", v, args.seed);
        }
    }
    if !t.counters.is_empty() || !t.gauges.is_empty() {
        let _ = writeln!(out, "counters of the section:");
        for (name, v) in t.counters.iter().chain(&t.gauges) {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    if w == Workload::Curate {
        let (q, s) = (t.counter("validate_queries"), t.counter("validate_s"));
        let _ = writeln!(
            out,
            "  curate_bindings_per_s {:.3} | validate_queries_per_s {:.3} ({q} queries in {s:.3} s)",
            t.throughput(),
            if s > 0.0 { q / s } else { 0.0 }
        );
    }
    if w == Workload::Analytic {
        let (tn, t1) =
            (crate::metrics::median(&t.primary_ms), crate::metrics::median(&t.secondary_ms));
        let granted = t.counter("pool_granted");
        let threads = t.gauges.get("threads").copied().unwrap_or(1.0);
        if env::may_state_speedup(threads as usize, granted as u64) && tn > 0.0 {
            let _ = writeln!(
                out,
                "  t1 {t1:.4} ms, t{threads} {tn:.4} ms, nproc {}, {granted} workers granted: t1/t{threads} = {:.3} (base t1)",
                env::nproc(),
                t1 / tn
            );
        } else {
            let _ = writeln!(
                out,
                "  t1 {t1:.4} ms, t{threads} {tn:.4} ms, nproc {}, {granted} workers granted: effective capacity 1, no speed-up is stated",
                env::nproc()
            );
        }
    }

    if let Some(traced) = &o.traced {
        trace_section(&mut out, w, o, traced);
        let _ = writeln!(out, "per-layer metrics (layer probe over this workload's store; the workload's own counters where it has them):");
        let mut layer = "";
        for def in PER_LAYER {
            if def.layer != layer {
                layer = def.layer;
                let _ = writeln!(out, " {layer}");
            }
            metric_line(&mut out, def, o.layers.get(def.name).copied().unwrap_or(0.0), def.what);
        }
        for line in &o.probe_notes {
            let _ = writeln!(out, "{line}");
        }
    }

    let _ = writeln!(out, "failed / attempted: {} / {}", t.failed, t.attempted);
    for f in &t.failures {
        let _ = writeln!(out, "  failure: {f}");
    }
    out
}

/// The result object: `correct`, `attempted`, `failed`, `metrics` — the
/// end-to-end metrics of an untraced run, the per-layer metrics of a
/// traced one.
pub fn result(args: &RunArgs, o: &Outcome) -> Json {
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|d| (d, o.layers.get(d.name).copied().unwrap_or(0.0)))
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
                )
            })
            .collect()
    } else {
        let e2e = o.end_to_end();
        END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    obj([("value", Json::Num(e2e[d.name])), ("unit", Json::Str(d.unit.into()))]),
                )
            })
            .collect()
    };
    obj([
        ("correct", Json::Bool(o.timed.failed == 0)),
        ("attempted", Json::Num(o.timed.attempted as f64)),
        ("failed", Json::Num(o.timed.failed as f64)),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ])
}

/// The record `--out` appends: the result plus what identifies the run.
pub fn record(args: &RunArgs, result: &Json) -> Json {
    let mut members = result.as_obj().cloned().unwrap_or_default();
    members.insert("workload".into(), Json::Str(args.workload.name().into()));
    members.insert("seed".into(), Json::Num(args.seed as f64));
    members.insert("seconds".into(), Json::Num(args.seconds));
    members.insert("trace".into(), Json::Bool(args.trace));
    Json::Obj(members)
}
