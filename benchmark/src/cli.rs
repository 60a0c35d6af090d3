//! Command line.

use crate::env::StartError;
use crate::workloads::Workload;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// About two seconds per workload, verification still on (`--smoke`).
    Smoke,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload.
    Run(RunArgs),
    /// Compare two files of run records.
    Compare(std::path::PathBuf, std::path::PathBuf),
    /// Print the usage text.
    Help,
}

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Append the run record to this file (for `--compare`).
    pub out: Option<std::path::PathBuf>,
}

/// The usage text.
pub const USAGE: &str = "\
usage: parambench-benchmark --workload <curate|serve_read|serve_mixed|analytic> --seed <u64>
                            [--seconds <n>] [--trace [0|1]] [--smoke] [--out <records.jsonl>]
       parambench-benchmark --compare <a.jsonl> <b.jsonl>

Generates the workload's inputs from the seed, runs it for --seconds (default 20),
verifies its outputs, prints every metric, and ends with one JSON result line.
--trace 1 repeats the timed section with spans on and prints the per-layer metrics.";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, StartError> {
    let usage = |m: String| StartError::Usage(format!("{m}\n{USAGE}"));
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, StartError> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| usage(format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => {
                let v = value(&mut i, "--workload")?;
                workload = Some(
                    Workload::parse(&v).ok_or_else(|| usage(format!("unknown workload {v}")))?,
                );
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| usage(format!("bad --seed {v}")))?);
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| usage(format!("bad --seconds {v}")))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        trace = true;
                        i += 1;
                    }
                    _ => trace = true,
                }
            }
            "--smoke" => size = Size::Smoke,
            "--out" => out = Some(value(&mut i, "--out")?.into()),
            other => return Err(usage(format!("unknown argument {other}"))),
        }
        i += 1;
    }
    let workload = workload.ok_or_else(|| usage("--workload is required".into()))?;
    let seed = seed.ok_or_else(|| usage("--seed is required".into()))?;
    if size == Size::Smoke {
        seconds = seconds.min(2.0);
    }
    Ok(Command::Run(RunArgs { workload, seed, seconds, trace, size, out }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let c = parse(&args("--workload serve_read --seed 7 --seconds 10 --trace 0")).unwrap();
        let Command::Run(r) = c else { panic!("run expected") };
        assert_eq!(r.workload, Workload::ServeRead);
        assert_eq!((r.seed, r.seconds, r.trace), (7, 10.0, false));
        let c = parse(&args("--workload analytic --seed 1 --trace 1")).unwrap();
        let Command::Run(r) = c else { panic!("run expected") };
        assert!(r.trace);
        let c = parse(&args("--workload curate --trace --seed 3 --smoke")).unwrap();
        let Command::Run(r) = c else { panic!("run expected") };
        assert!(r.trace && r.size == Size::Smoke && r.seconds <= 2.0);
    }

    #[test]
    fn rejects_bad_input_with_usage() {
        for bad in
            ["", "--workload nope --seed 1", "--workload curate", "--seed x --workload curate"]
        {
            let e = parse(&args(bad)).unwrap_err();
            assert!(matches!(e, StartError::Usage(ref m) if m.contains("usage:")), "{bad}: {e}");
        }
        assert_eq!(
            parse(&args("--compare a b")).unwrap(),
            Command::Compare("a".into(), "b".into())
        );
    }
}
