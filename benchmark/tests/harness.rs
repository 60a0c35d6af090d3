//! The benchmark's own tests: scripts are deterministic, the smoke size
//! runs every workload with verification on, the mix keeps its shares,
//! the stress knobs are refused, and `BENCHMARK.json` says what the
//! harness does.

use std::sync::Mutex;

use parambench_benchmark::cells::{self, mix_shares, MIX};
use parambench_benchmark::cli::{RunArgs, Size};
use parambench_benchmark::data::{self, LayerLog};
use parambench_benchmark::json::{self, Json};
use parambench_benchmark::metrics::{END_TO_END, PER_LAYER};
use parambench_benchmark::workloads::{serve_mixed, serve_read, Workload};

/// A run points `TMPDIR` at its scratch directory and writes
/// `out/trace-<workload>.json`: one run at a time per process.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs { workload, seed, seconds: 1.0, trace, size: Size::Smoke, out: None }
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing from {}", result.render()))
}

#[test]
fn smoke_size_runs_all_four_workloads_with_verification_on() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let (report, result) = parambench_benchmark::run(&smoke(workload, 5, false))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{report}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{report}");
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        // Every end-to-end metric, none of them zero, and nothing else.
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for def in END_TO_END {
            let v = metric(&result, def.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}\n{report}", workload.name(), def.name);
            assert!(report.contains(def.name));
        }
        assert!(report.contains("failed / attempted: 0 /"));
        // The result round-trips as the last line the driver parses.
        assert_eq!(json::parse(&result.render()).unwrap(), result);
    }
}

#[test]
fn traced_smoke_runs_report_every_per_layer_metric() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let (report, result) = parambench_benchmark::run(&smoke(workload, 6, true))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{report}");
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        for def in PER_LAYER {
            assert!(metric(&result, def.name).is_finite(), "{} {}", workload.name(), def.name);
        }
        for positive in [
            "gen_ms",
            "freeze_ms",
            "clone_ms",
            "apply_ms",
            "save_ms",
            "load_ms",
            "prepare_us",
            "exec_ms",
            "journal_append_ms",
            "wal_fsyncs_per_commit",
            "span_coverage_pct",
        ] {
            assert!(metric(&result, positive) > 0.0, "{} {positive}\n{report}", workload.name());
        }
        assert!(metric(&result, "spilled_rows") > 0.0, "the budgeted probe must spill\n{report}");
        assert!(report.contains("self time per layer"));
        assert!(report.contains("tracing overhead"));
        let trace =
            parambench_benchmark::env::out_dir().join(format!("trace-{}.json", workload.name()));
        let spans = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(spans.get("spans_recorded").and_then(Json::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn analytic_states_no_speed_up_it_could_not_have_measured() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (report, _) = parambench_benchmark::run(&smoke(Workload::Analytic, 7, false)).unwrap();
    assert!(report.contains("nproc"), "{report}");
    assert!(report.contains("workers granted"), "{report}");
    if parambench_benchmark::env::nproc() == 1 {
        assert!(report.contains("no speed-up is stated"), "{report}");
    }
}

#[test]
fn scripts_are_byte_identical_for_equal_seeds_and_differ_otherwise() {
    let text = |seed: u64| {
        let bsbm = data::bsbm(data::scale(Size::Smoke), &mut LayerLog::default());
        let cells = cells::build(&bsbm, seed).unwrap();
        let reads = cells::script_text(&cells, &serve_read::client_script(&cells, seed, 0));
        let other_client = cells::script_text(&cells, &serve_read::client_script(&cells, seed, 1));
        let mixed = serve_mixed::script_text(&bsbm, &cells, seed, 300).unwrap();
        (reads, other_client, mixed)
    };
    let (a, b, c) = (text(11), text(11), text(12));
    assert_eq!(a, b, "equal seeds, equal bytes");
    assert_ne!(a.0, c.0, "another seed, another read script");
    assert_ne!(a.2, c.2, "another seed, another mixed script");
    assert_ne!(a.0, a.1, "each client has its own script");
    assert!(a.0.lines().count() >= 8192 && a.2.contains("read ") && a.2.contains("write "));
}

#[test]
fn the_mix_keeps_its_light_and_heavy_shares() {
    let (light, heavy) = mix_shares();
    assert_eq!(light + heavy, 100);
    assert!(light >= 70, "light cells are {light}% of the mix");
    assert!(heavy >= 10, "heavy cells are {heavy}% of the mix");
    for name in ["BI-Q2", "CHEAPEST", "TYPE-FEATURE"] {
        assert!(MIX.iter().any(|m| m.name == name && !m.heavy));
    }
    for name in ["BI-Q4", "RATING", "CATALOG"] {
        assert!(MIX.iter().any(|m| m.name == name && m.heavy));
    }
    // And a drawn script keeps them too.
    let bsbm = data::bsbm(data::scale(Size::Smoke), &mut LayerLog::default());
    let cells = cells::build(&bsbm, 3).unwrap();
    let script = serve_read::client_script(&cells, 3, 0);
    let heavy_drawn = script.iter().filter(|(c, _)| cells[*c as usize].line.heavy).count();
    let share = 100.0 * heavy_drawn as f64 / script.len() as f64;
    assert!((10.0..=30.0).contains(&share), "heavy share drawn: {share:.1}%");
}

#[test]
fn the_stress_knobs_are_refused_at_start() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_parambench-benchmark"))
        .args(["--workload", "curate", "--seed", "1", "--smoke"])
        .env("PARAMBENCH_OVERLAY_STRESS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("refusing to start") && err.contains("PARAMBENCH_OVERLAY_STRESS"),
        "{err}"
    );
}

#[test]
fn benchmark_json_says_what_the_harness_does() {
    let path = parambench_benchmark::env::package_dir().join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        // The benchmark directory may be checked out on its own.
        return;
    };
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let Some(Json::Arr(paths)) = doc.get("paths") else { panic!("paths") };
    assert_eq!(paths, &[Json::Str("benchmark".into())]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("workloads") };
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (w, listed) in Workload::ALL.iter().zip(workloads) {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(w.name()));
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why()));
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    for (key, defs, bounded) in [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
    {
        let Some(Json::Arr(listed)) = doc.get(key) else { panic!("{key}") };
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (def, m) in defs.iter().zip(listed) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit), "{}", def.name);
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                bounded.then_some(def.bound),
                "{}",
                def.name
            );
        }
    }
}
