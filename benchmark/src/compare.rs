//! `--compare a b`: two sets of run records, metric by metric.
//!
//! Each file holds one JSON record per line, as `--out` appends them. For
//! every workload × metric the comparison prints both medians, the ratio
//! with its base, the spread between each side's own runs (distance
//! between the quartiles as a share of the median), the metric's bound,
//! and a verdict: `same`, `worse` or `better` by more than the bound, or
//! `unresolved` when a side's own spread is wider than the bound — a
//! difference that the runs cannot resolve is not reported as "no change".

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{self, median, quartile_spread, Better};

/// One side's values: (workload, metric) → one value per run.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// A parsed record file.
#[derive(Debug, Default)]
pub struct Records {
    /// The metric values.
    pub values: RunSet,
    /// Runs read.
    pub runs: usize,
    /// Operations failed over all runs.
    pub failed: u64,
    /// Operations attempted over all runs.
    pub attempted: u64,
}

/// Reads a file of run records.
pub fn read(path: &Path) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_records(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses run records, one JSON object per non-empty line.
pub fn parse_records(text: &str) -> Result<Records, String> {
    let mut out = Records::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.values.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
        out.runs += 1;
        out.failed += rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        out.attempted += rec.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    }
    if out.runs == 0 {
        return Err("no run records".into());
    }
    Ok(out)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A side's own spread exceeds the bound.
    Unresolved,
    /// Only one side has the metric, or it has no bound (per-layer).
    NotJudged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        }
    }
}

/// Judges B against A for a metric with direction `better` and `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || bound <= 0.0 {
        return Verdict::NotJudged;
    }
    if quartile_spread(a) > bound || quartile_spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::NotJudged;
    }
    // Positive when B is worse.
    let loss = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if loss > bound {
        Verdict::Worse
    } else if loss < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; returns whether every end-to-end metric is
/// `same` or `better` and no operation failed.
pub fn compare(
    a: &Records,
    b: &Records,
    out: &mut impl std::fmt::Write,
) -> Result<bool, std::fmt::Error> {
    writeln!(out, "A: {} runs, failed/attempted {}/{}", a.runs, a.failed, a.attempted)?;
    writeln!(out, "B: {} runs, failed/attempted {}/{}", b.runs, b.failed, b.attempted)?;
    writeln!(
        out,
        "{:<12} {:<26} {:>6} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "median A",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    )?;
    let keys: std::collections::BTreeSet<&(String, String)> =
        a.values.keys().chain(b.values.keys()).collect();
    let mut ok = a.failed == 0 && b.failed == 0;
    for key in keys {
        let (workload, name) = key;
        let empty = Vec::new();
        let va = a.values.get(key).unwrap_or(&empty);
        let vb = b.values.get(key).unwrap_or(&empty);
        let def = metrics::find(name);
        let (unit, better, bound) =
            def.map_or(("?", Better::Lower, 0.0), |d| (d.unit, d.better, d.bound));
        let verdict = judge(va, vb, better, bound);
        if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
            ok = false;
        }
        let (ma, mb) = (median(va), median(vb));
        let ratio =
            if ma != 0.0 && !vb.is_empty() { format!("{:.4}", mb / ma) } else { "-".into() };
        let bound_text = if bound > 0.0 { format!("{bound:.2}") } else { "-".into() };
        writeln!(
            out,
            "{workload:<12} {name:<26} {unit:>6} {ma:>14.6} {mb:>14.6} {ratio:>9} {:>8.4} {:>8.4} {bound_text:>6}  {}",
            quartile_spread(va),
            quartile_spread(vb),
            verdict.as_str()
        )?;
    }
    writeln!(
        out,
        "(B/A has A's median as its base; spread = (q3 - q1) / median over a side's runs)"
    )?;
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"failed\": 0, \"attempted\": 10, \
             \"metrics\": {{\"latency_p50_ms\": {{\"value\": {value}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(judge(&slower, &steady, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(judge(&steady, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&steady, &[], Better::Lower, 0.1), Verdict::NotJudged);
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.0), Verdict::NotJudged);
    }

    #[test]
    fn compares_two_record_files() {
        let a: String = [10.0, 10.1, 9.9].iter().map(|v| record("serve_read", *v)).collect();
        let b: String = [13.0, 13.1, 12.9].iter().map(|v| record("serve_read", *v)).collect();
        let (a, b) = (parse_records(&a).unwrap(), parse_records(&b).unwrap());
        assert_eq!(a.runs, 3);
        let mut text = String::new();
        assert!(!compare(&a, &b, &mut text).unwrap(), "a 30 % slower median is a regression");
        assert!(text.contains("worse"), "{text}");
        let mut text = String::new();
        assert!(compare(&a, &a, &mut text).unwrap());
        assert!(text.contains("same"));
        assert!(parse_records("").is_err());
        assert!(parse_records("{\"metrics\": {}}").is_err());
    }
}
