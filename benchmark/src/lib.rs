//! The repository's benchmark: four named workloads that measure the
//! paper's curation pipeline, the server, the durable write path and the
//! parallel engine — end to end (what a user of the system waits for) and
//! layer by layer (which module the time went to).
//!
//! See `README.md` in this directory for the users, the metrics and how to
//! read the output, and `../BENCHMARK.json` for the contract the driver
//! checks. The harness calls only public functions the ROADMAP keeps, so
//! later changes can be measured without editing it.

pub mod cells;
pub mod cli;
pub mod compare;
pub mod data;
pub mod env;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workloads;

use cli::{Command, RunArgs};
use env::Scratch;

/// Runs one workload and returns the printed report and the result line.
pub fn run(args: &RunArgs) -> Result<(String, json::Json), String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    // The library keeps its own temporary files (spill runs) under the
    // system temporary directory; point that inside the checkout too.
    std::env::set_var("TMPDIR", scratch.path());
    let outcome = workloads::run(args, &scratch)?;
    if let Some(traced) = &outcome.traced {
        let path = env::out_dir().join(format!("trace-{}.json", args.workload.name()));
        trace::write_json(&path, args.workload.name(), &traced.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = report::result(args, &outcome);
    if let Some(path) = &args.out {
        use std::io::Write;
        let line = report::record(args, &result).render();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((report::render(args, &outcome), result))
}

/// The whole program: returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let command = match cli::parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            0
        }
        Command::Compare(a, b) => match (compare::read(&a), compare::read(&b)) {
            (Ok(a), Ok(b)) => {
                let mut text = String::new();
                let ok = compare::compare(&a, &b, &mut text).expect("writing to a string");
                print!("{text}");
                i32::from(!ok)
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                2
            }
        },
        Command::Run(run_args) => {
            if let Err(e) = env::check_hermetic(std::env::vars()) {
                eprintln!("{e}");
                return 2;
            }
            match run(&run_args) {
                Ok((report, result)) => {
                    print!("{report}");
                    println!("{}", result.render());
                    0
                }
                Err(e) => {
                    // No result line: a run that could not be set up or
                    // probed has measured nothing.
                    eprintln!("benchmark failed: {e}");
                    1
                }
            }
        }
    }
}
