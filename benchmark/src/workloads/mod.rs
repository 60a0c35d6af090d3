//! The four workloads and what they share: the result of a timed section,
//! the roles each workload's operations play in the end-to-end metrics,
//! and the driver that sets a workload up, times it, verifies it and
//! turns its samples into metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use parambench_datagen::Bsbm;

use crate::cli::{RunArgs, Size};
use crate::data::LayerLog;
use crate::env::Scratch;
use crate::metrics::{median, percentile};
use crate::trace::Span;

pub mod analytic;
pub mod curate;
pub mod serve_mixed;
pub mod serve_read;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper's product: the curation pipeline.
    Curate,
    /// The server's product, warm and read-only.
    ServeRead,
    /// Durable writes beside reads, crashes and recoveries.
    ServeMixed,
    /// One heavy query at a time on all cores.
    Analytic,
}

/// What fills each end-to-end role on one workload.
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    /// The primary operation (`throughput_per_s`, `latency_p50_ms`, `latency_tail_ms`).
    pub primary: &'static str,
    /// The issue's name for the primary rate.
    pub rate_name: &'static str,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
    /// Length of the sections the timed time is cut into, seconds. Every
    /// throughput and latency metric is computed per section and reported
    /// as the median over the sections, so a few seconds of interference
    /// from a neighbour on the machine moves one section, not the result.
    /// A section must still hold enough operations for the tail
    /// percentile.
    pub section_s: f64,
    /// The secondary operation (`second_p50_ms`).
    pub secondary: &'static str,
    /// What `restart_ms` times.
    pub restart: &'static str,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Curate, Workload::ServeRead, Workload::ServeMixed, Workload::Analytic];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Curate => "curate",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
            Workload::Analytic => "analytic",
        }
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Curate => {
                "the paper's product: profile, cluster, sample, run and validate four BSBM/SNB templates, one thread; bound by one optimizer run per binding"
            }
            Workload::ServeRead => {
                "warm read-only serving of curated BSBM classes from an mmap snapshot, closed loop, min(nproc,4) clients; bound by execute and decode, bypasses prepare"
            }
            Workload::ServeMixed => {
                "durable commits beside reads with crash, recovery and checkpoint every 20 commits, one client; bound by store clone and apply, every commit empties the plan cache"
            }
            Workload::Analytic => {
                "heavy generic-type queries one at a time on a 4x store at threads=min(nproc,4) and at 1; the only workload where intra-query parallelism can show"
            }
        }
    }

    /// Which operation fills which end-to-end role.
    pub fn roles(self) -> Roles {
        match self {
            Workload::Curate => Roles {
                primary: "curate stage of one round (curate + sample_class over four templates); rate counts bindings",
                rate_name: "curate_bindings_per_s",
                tail_pct: 0.75,
                // Three rounds: a round takes about 0.9 s and the last one
                // that starts inside the section finishes.
                section_s: 2.5,
                secondary: "validate stage per executed query (run_workload + validate_workload)",
                restart: "Dataset::load of the BSBM and SNB snapshots",
            },
            Workload::ServeRead => Roles {
                primary: "one SparqlServer::run request, any cell",
                rate_name: "read_qps",
                tail_pct: 0.95,
                section_s: 2.0,
                secondary: "one heavy-cell request",
                restart: "SparqlServer::open of the snapshot",
            },
            Workload::ServeMixed => Roles {
                primary: "one durable try_update batch, call to ack; rate counts commits and reads",
                rate_name: "mixed_ops_per_s",
                tail_pct: 0.90,
                section_s: 4.0,
                secondary: "first read after a commit (cold prepare over the overlay)",
                restart: "SparqlServer::open_durable after a crash, 20-commit journal (recovery_ms)",
            },
            Workload::Analytic => Roles {
                primary: "one heavy query at threads = min(nproc, 4)",
                rate_name: "analytic_qps",
                tail_pct: 0.90,
                section_s: 2.5,
                secondary: "the same query at threads = 1",
                restart: "Dataset::load of the 4x snapshot",
            },
        }
    }
}

/// What one timed section produced.
#[derive(Debug, Default)]
pub struct Timed {
    /// Operations attempted (every kind).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Latency of each primary operation, milliseconds.
    pub primary_ms: Vec<f64>,
    /// Latency of each secondary operation, milliseconds.
    pub secondary_ms: Vec<f64>,
    /// Restart times measured inside the section, milliseconds.
    pub restart_ms: Vec<f64>,
    /// Units of primary work done (bindings, requests, steps, queries).
    pub work: f64,
    /// Seconds that work took (elapsed for concurrent clients, the sum of
    /// the call times for a single closed-loop client).
    pub busy_s: f64,
    /// Wall time of the whole section, seconds.
    pub wall_s: f64,
    /// Other named samples, printed with their digests.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Named counters (they add up over sections).
    pub counters: BTreeMap<&'static str, f64>,
    /// Named gauges (over sections the largest value is kept).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Spans, one vector per recording thread.
    pub spans: Vec<Vec<Span>>,
}

/// Failure descriptions kept per section.
const FAILURES_KEPT: usize = 8;

impl Timed {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(what());
        }
    }

    /// Records a named sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds to a named counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Raises a named gauge to `value`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        let g = self.gauges.entry(name).or_insert(value);
        *g = g.max(value);
    }

    /// A counter's value (0 when it was never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Primary work per busy second.
    pub fn throughput(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.work / self.busy_s
        } else {
            0.0
        }
    }

    /// Folds another section's failures and counts into this one.
    pub fn absorb_failures(&mut self, other: &Timed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(f.clone());
            }
        }
    }

    /// Appends a later section to this one.
    pub fn append(&mut self, other: Timed) {
        self.absorb_failures(&other);
        self.primary_ms.extend(other.primary_ms);
        self.secondary_ms.extend(other.secondary_ms);
        self.restart_ms.extend(other.restart_ms);
        self.work += other.work;
        self.busy_s += other.busy_s;
        self.wall_s += other.wall_s;
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
        for (name, v) in other.counters {
            self.count(name, v);
        }
        for (name, v) in other.gauges {
            self.gauge(name, v);
        }
        self.spans.extend(other.spans);
    }
}

/// A workload, set up.
pub trait Bench: Sized {
    /// Builds every input from `seed` under `dir`, logging the layer calls
    /// it makes. Everything here is `setup_s`.
    fn setup(seed: u64, size: Size, dir: &Path, log: &mut LayerLog) -> Result<Self, String>;

    /// Runs the closed loop for `seconds`. May be called again: the script
    /// continues where it stopped.
    fn run(&mut self, seconds: f64, trace: bool) -> Timed;

    /// Checks made once, after the last timed section; failures are
    /// counted into `timed`.
    fn finish(&mut self, timed: &mut Timed);

    /// The BSBM store the layer probe runs over.
    fn store(&self) -> &Bsbm;

    /// Lines for the printed report (cells, scale, clients).
    fn describe(&self) -> String;
}

/// The throughput and latency metrics of one section.
#[derive(Debug, Clone, Copy)]
pub struct SectionMetrics {
    /// Primary work per busy second.
    pub throughput: f64,
    /// Median primary latency.
    pub p50: f64,
    /// Tail primary latency (the workload's fixed percentile).
    pub tail: f64,
    /// Median secondary latency.
    pub second_p50: f64,
}

impl SectionMetrics {
    fn of(t: &Timed, tail_pct: f64) -> Self {
        SectionMetrics {
            throughput: t.throughput(),
            p50: median(&t.primary_ms),
            tail: percentile(&t.primary_ms, tail_pct),
            second_p50: median(&t.secondary_ms),
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The untraced timed sections joined (with the final checks folded in).
    pub timed: Timed,
    /// The metrics of each untraced section; the result is their median.
    pub sections: Vec<SectionMetrics>,
    /// The traced timed section, when `--trace` was given.
    pub traced: Option<Timed>,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Restart samples of the whole run (set-up and timed section).
    pub restart_ms: Vec<f64>,
    /// The workload's description of itself.
    pub description: String,
    /// Per-layer metric values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Report lines produced by the probes.
    pub probe_notes: Vec<String>,
}

impl Outcome {
    /// The end-to-end metric values, by name: throughput and latencies are
    /// medians over the sections, restart and set-up medians over the run.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let over = |f: fn(&SectionMetrics) -> f64| {
            median(&self.sections.iter().map(f).filter(|v| *v > 0.0).collect::<Vec<_>>())
        };
        let mut m = BTreeMap::new();
        m.insert("throughput_per_s", over(|s| s.throughput));
        m.insert("latency_p50_ms", over(|s| s.p50));
        m.insert("latency_tail_ms", over(|s| s.tail));
        m.insert("second_p50_ms", over(|s| s.second_p50));
        m.insert("restart_ms", median(&self.restart_ms));
        m.insert("setup_s", median(&self.setup_s));
        m
    }
}

/// Restarts timed per set-up (each is a few tens of milliseconds), so
/// `restart_ms` is the median of three times as many.
pub const RESTARTS: usize = 7;

/// Set-ups per run: `setup_s` is their median.
fn setups(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Smoke => 1,
    }
}

fn run_bench<B: Bench>(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let mut log = LayerLog::default();
    let mut setup_s = Vec::new();
    let mut bench: Option<B> = None;
    for i in 0..setups(args.size) {
        // Drop the previous set-up first: two stores alive at once would
        // make the later set-ups pay for the earlier ones' memory.
        drop(bench.take());
        let dir = scratch.sub(&format!("setup-{i}"));
        let t = Instant::now();
        let b = B::setup(args.seed, args.size, &dir, &mut log)?;
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    // With --trace the time is split: first half untraced (the reference),
    // second half with spans on; their difference is the tracing overhead.
    let roles = args.workload.roles();
    let untraced_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let section_s = if args.size == Size::Smoke { untraced_s } else { roles.section_s };
    let mut timed = Timed::default();
    let mut sections = Vec::new();
    let start = Instant::now();
    loop {
        let remaining = untraced_s - start.elapsed().as_secs_f64();
        // A last sliver of a section would hold too few operations.
        if remaining <= 0.0 || (!sections.is_empty() && remaining < section_s / 2.0) {
            break;
        }
        let part = bench.run(section_s.min(remaining), false);
        sections.push(SectionMetrics::of(&part, roles.tail_pct));
        timed.append(part);
    }
    let traced = args.trace.then(|| bench.run(args.seconds - untraced_s, true));
    if let Some(t) = &traced {
        timed.absorb_failures(t);
    }
    bench.finish(&mut timed);

    let mut restart_ms = log.get("restart_ms").to_vec();
    restart_ms.extend_from_slice(&timed.restart_ms);

    let mut layers = BTreeMap::new();
    let mut probe_notes = Vec::new();
    if let Some(traced) = &traced {
        let probe_dir = scratch.sub("probe");
        crate::probe::run(
            args,
            bench.store(),
            &probe_dir,
            &timed,
            traced,
            &mut log,
            &mut layers,
            &mut probe_notes,
        )?;
    }
    Ok(Outcome {
        description: bench.describe(),
        timed,
        sections,
        traced,
        setup_s,
        restart_ms,
        layers,
        probe_notes,
    })
}

/// Sets the workload up, times it, verifies it.
pub fn run(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    match args.workload {
        Workload::Curate => run_bench::<curate::Curate>(args, scratch),
        Workload::ServeRead => run_bench::<serve_read::ServeRead>(args, scratch),
        Workload::ServeMixed => run_bench::<serve_mixed::ServeMixed>(args, scratch),
        Workload::Analytic => run_bench::<analytic::Analytic>(args, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(latencies: &[f64], work: f64, busy_s: f64) -> Timed {
        let mut t = Timed {
            primary_ms: latencies.to_vec(),
            work,
            busy_s,
            wall_s: busy_s,
            ..Timed::default()
        };
        t.attempted = latencies.len() as u64;
        t.count("commits", work);
        t.gauge("overlay_peak_entries", work);
        t
    }

    #[test]
    fn sections_join_and_the_result_is_their_median() {
        let parts = [
            section(&[1.0, 1.0, 1.0], 30.0, 1.0),
            section(&[1.1, 1.1, 1.1], 28.0, 1.0),
            // A neighbour stole the machine for this one.
            section(&[9.0, 9.0, 9.0], 3.0, 1.0),
        ];
        let sections: Vec<SectionMetrics> =
            parts.iter().map(|p| SectionMetrics::of(p, 0.9)).collect();
        let mut timed = Timed::default();
        for p in parts {
            timed.append(p);
        }
        assert_eq!((timed.attempted, timed.work, timed.busy_s), (9, 61.0, 3.0));
        assert_eq!(timed.counter("commits"), 61.0, "counters add up");
        assert_eq!(timed.gauges["overlay_peak_entries"], 30.0, "gauges keep the largest value");
        let outcome = Outcome {
            timed,
            sections,
            traced: None,
            setup_s: vec![1.0, 2.0, 3.0],
            restart_ms: vec![5.0],
            description: String::new(),
            layers: BTreeMap::new(),
            probe_notes: Vec::new(),
        };
        let m = outcome.end_to_end();
        assert_eq!(m["throughput_per_s"], 28.0);
        assert_eq!(m["latency_p50_ms"], 1.1);
        assert_eq!(m["setup_s"], 2.0);
    }

    #[test]
    fn every_workload_is_named_and_explained_in_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            let r = w.roles();
            assert!(r.section_s > 0.0 && (0.5..1.0).contains(&r.tail_pct));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
