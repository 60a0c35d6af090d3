//! `analytic` — one heavy query at a time, all cores.
//!
//! BSBM at four times the default scale (the default parallel gate,
//! `min_driver_rows = 16384`, never opens at the default scale — which is
//! why earlier "parallel" numbers measured nothing), direct
//! `Engine::execute_with`, one client, heavy cells only (BI-Q4, RATING,
//! CATALOG over the generic-type class). Every query runs once at
//! `threads = min(nproc, 4)` and once at `threads = 1`; both are reported,
//! with `nproc` and the worker-pool slots actually granted, and a speed-up
//! is printed only when the machine could have produced one.

use std::path::Path;
use std::time::Instant;

use parambench_datagen::Bsbm;
use parambench_sparql::exec::WorkerPool;
use parambench_sparql::{Engine, ExecConfig, Prepared};

use super::{Bench, Timed, RESTARTS};
use crate::cells::{self, Cell, Request};
use crate::cli::Size;
use crate::data::{self, ms_since, LayerLog};
use crate::env;
use crate::trace::Tracer;

/// Scale factor over the default store.
pub const SCALE_FACTOR: usize = 4;

/// The set-up `analytic` workload.
pub struct Analytic {
    bsbm: Bsbm,
    /// The heavy cells of the mix, re-weighted 3 : 4 : 3.
    cells: Vec<Cell>,
    script: Vec<Request>,
    cursor: usize,
    threads: usize,
    /// The pool the parallel runs lease their extra workers from: the
    /// harness's own, so the grants it reports are this workload's.
    pool: &'static WorkerPool,
}

/// Requests scripted (the client wraps around).
const SCRIPT_LEN: usize = 4096;

impl Analytic {
    fn config(&self, threads: usize) -> ExecConfig {
        ExecConfig { threads, pool: Some(self.pool), ..ExecConfig::default() }
    }
}

impl Bench for Analytic {
    fn setup(seed: u64, size: Size, dir: &Path, log: &mut LayerLog) -> Result<Self, String> {
        let bsbm = data::bsbm(data::scale(size) * SCALE_FACTOR, log);
        let path = dir.join("bsbm-4x.pbsnap");
        data::save(&bsbm.dataset, &path, log)?;
        for _ in 0..RESTARTS {
            let t = Instant::now();
            let loaded = data::load(&path, log)?;
            log.add("restart_ms", ms_since(t));
            if loaded.len() != bsbm.dataset.len() {
                return Err("the reloaded snapshot lost triples".into());
            }
        }
        let mut cells: Vec<Cell> =
            cells::build(&bsbm, seed)?.into_iter().filter(|c| c.line.heavy).collect();
        // 3 : 4 : 3 from the cheapest cell to the dearest: the median falls
        // in the middle of the middle cell's mode and the 90th percentile
        // well inside the dearest cell's.
        for c in &mut cells {
            c.line.weight = match c.line.name {
                "RATING" => 4,
                _ => 3,
            };
        }
        let script = cells::script(&cells, seed, "analytic", SCRIPT_LEN);
        let threads = env::threads();
        let pool = WorkerPool::leak(threads - 1);
        let this = Analytic { bsbm, cells, script, cursor: 0, threads, pool };
        // Warm-up: every member once at both thread counts, checked.
        let engine = Engine::new(&this.bsbm.dataset);
        for cell in &this.cells {
            for (b, want) in cell.bindings.iter().zip(&cell.expected) {
                let p = engine.prepare_template(&cell.template, b).map_err(|e| e.to_string())?;
                for threads in [1, this.threads] {
                    let out = engine
                        .execute_with(&p, &this.config(threads))
                        .map_err(|e| e.to_string())?;
                    if !want.matches(&out) {
                        return Err(format!(
                            "warm-up: {} at {threads} threads differs from the serial run",
                            cell.line.name
                        ));
                    }
                }
            }
        }
        Ok(this)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Timed {
        let start = Instant::now();
        let mut tracer = if trace { Tracer::on(start, 0) } else { Tracer::off() };
        let mut out = Timed::default();
        let engine = Engine::new(&self.bsbm.dataset);
        // Prepared once per member: this workload measures execution.
        let prepared: Vec<Vec<Option<Prepared>>> = self
            .cells
            .iter()
            .map(|c| {
                c.bindings.iter().map(|b| engine.prepare_template(&c.template, b).ok()).collect()
            })
            .collect();
        let granted_before = self.pool.stats().granted;
        let (tn, t1) = (self.config(self.threads), self.config(1));
        let mut request = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let (ci, bi) = self.script[self.cursor % self.script.len()];
            self.cursor += 1;
            request += 1;
            let cell = &self.cells[ci as usize];
            let want = &cell.expected[bi as usize];
            let Some(plan) = &prepared[ci as usize][bi as usize] else {
                out.attempted += 1;
                out.fail(|| format!("{}: prepare failed", cell.line.name));
                continue;
            };
            tracer.span("harness query", request, |t| {
                for (config, parallel) in [(&tn, true), (&t1, false)] {
                    out.attempted += 1;
                    let t0 = Instant::now();
                    let name = if parallel {
                        "sparql::physical execute_with tN"
                    } else {
                        "sparql::physical execute_with t1"
                    };
                    let ran = t.span(name, request, |_| engine.execute_with(plan, config));
                    let ms = ms_since(t0);
                    match ran {
                        Ok(o) if want.counts_match(&o) => {
                            if parallel {
                                out.primary_ms.push(ms);
                                out.work += 1.0;
                                out.busy_s += ms / 1e3;
                                out.samples.entry(cell.line.name).or_default().push(ms);
                            } else {
                                out.secondary_ms.push(ms);
                            }
                        }
                        Ok(_) => {
                            out.fail(|| format!("{}: wrong rows, Cout or scanned", cell.line.name))
                        }
                        Err(e) => out.fail(|| format!("{}: {e}", cell.line.name)),
                    }
                }
            });
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.gauge("threads", self.threads as f64);
        out.gauge("pool_capacity", self.pool.capacity() as f64);
        out.count("pool_granted", (self.pool.stats().granted - granted_before) as f64);
        out.spans = vec![tracer.into_spans()];
        out
    }

    fn finish(&mut self, timed: &mut Timed) {
        // Full row digests, at both thread counts.
        let engine = Engine::new(&self.bsbm.dataset);
        for cell in &self.cells {
            for (b, want) in cell.bindings.iter().zip(&cell.expected) {
                for threads in [1, self.threads] {
                    timed.attempted += 1;
                    let ran = engine
                        .prepare_template(&cell.template, b)
                        .and_then(|p| engine.execute_with(&p, &self.config(threads)));
                    match ran {
                        Ok(o) if want.matches(&o) => {}
                        Ok(_) => timed.fail(|| {
                            format!(
                                "{} at {threads} threads: rows differ from the serial run",
                                cell.line.name
                            )
                        }),
                        Err(e) => timed.fail(|| format!("{}: {e}", cell.line.name)),
                    }
                }
            }
        }
    }

    fn store(&self) -> &Bsbm {
        &self.bsbm
    }

    fn describe(&self) -> String {
        format!(
            "  store: BSBM {} triples (heap-built, {SCALE_FACTOR}x), direct Engine::execute_with\n  \
             load: 1 closed-loop client, each query at threads = {} and at threads = 1; nproc {}, pool capacity {}\n{}",
            self.bsbm.dataset.len(),
            self.threads,
            env::nproc(),
            self.pool.capacity(),
            cells::describe(&self.cells),
        )
    }
}
