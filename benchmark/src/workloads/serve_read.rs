//! `serve_read` — the server's product, warm.
//!
//! BSBM at the default scale, saved and reopened with
//! `SparqlServer::open` (mmap-backed store, default `ServeConfig`),
//! `min(nproc, 4)` in-process clients in a closed loop, read-only, plan
//! cache warmed in set-up. Requests are drawn from curated classes in the
//! fixed proportions of [`crate::cells::MIX`]. Execute- and decode-bound:
//! the plan cache answers (almost) every request, so prepare is bypassed.

use std::path::Path;
use std::time::Instant;

use parambench_datagen::Bsbm;
use parambench_sparql::{ServeConfig, SparqlServer};

use super::{Bench, Timed, RESTARTS};
use crate::cells::{self, Cell, Request};
use crate::cli::Size;
use crate::data::{self, ms_since, LayerLog};
use crate::env;
use crate::trace::Tracer;

/// The set-up `serve_read` workload.
pub struct ServeRead {
    bsbm: Bsbm,
    server: SparqlServer,
    cells: Vec<Cell>,
    /// One script per client; a client wraps around its own.
    scripts: Vec<Vec<Request>>,
    /// Where each client continues.
    cursors: Vec<usize>,
    /// Request ids handed out so far.
    next_request: u64,
}

/// Requests scripted per client (a client that finishes them starts over).
const SCRIPT_LEN: usize = 8192;

/// The request script of client `client`.
pub fn client_script(cells: &[Cell], seed: u64, client: usize) -> Vec<Request> {
    cells::script(cells, seed, &format!("serve_read-client-{client}"), SCRIPT_LEN)
}

impl Bench for ServeRead {
    fn setup(seed: u64, size: Size, dir: &Path, log: &mut LayerLog) -> Result<Self, String> {
        let bsbm = data::bsbm(data::scale(size), log);
        let path = dir.join("bsbm.pbsnap");
        data::save(&bsbm.dataset, &path, log)?;
        let mut server = None;
        for _ in 0..RESTARTS {
            let t = Instant::now();
            let s = SparqlServer::open(&path, ServeConfig::default()).map_err(|e| e.to_string())?;
            log.add("restart_ms", ms_since(t));
            server = Some(s);
        }
        let server = server.expect("opened");
        let cells = cells::build(&bsbm, seed)?;
        // Warm the plan cache: every member of every cell once. Members of
        // one curated class can still differ in exact cardinalities, so
        // each may have its own cache key.
        for cell in &cells {
            for (b, want) in cell.bindings.iter().zip(&cell.expected) {
                let out = server.run(&cell.template, b).map_err(|e| e.to_string())?;
                if !want.matches(&out.output) {
                    return Err(format!(
                        "warm-up: {} over the snapshot differs from the direct run",
                        cell.line.name
                    ));
                }
            }
        }
        let clients = env::threads();
        let scripts = (0..clients).map(|c| client_script(&cells, seed, c)).collect();
        Ok(ServeRead { bsbm, server, cells, scripts, cursors: vec![0; clients], next_request: 0 })
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Timed {
        let start = Instant::now();
        let before = self.server.stats();
        let clients = self.scripts.len();
        let (server, cells) = (&self.server, &self.cells);
        let base_request = self.next_request;
        let per_client: Vec<(Timed, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .scripts
                .iter()
                .zip(&self.cursors)
                .enumerate()
                .map(|(c, (script, &cursor))| {
                    scope.spawn(move || {
                        let mut tracer =
                            if trace { Tracer::on(start, c as u32) } else { Tracer::off() };
                        let mut out = Timed::default();
                        let mut at = cursor;
                        let mut n = 0u64;
                        while start.elapsed().as_secs_f64() < seconds {
                            let (ci, bi) = script[at % script.len()];
                            at += 1;
                            let cell = &cells[ci as usize];
                            let request = base_request + n * clients as u64 + c as u64;
                            n += 1;
                            out.attempted += 1;
                            tracer.span("harness request", request, |t| {
                                let binding = &cell.bindings[bi as usize];
                                let t0 = Instant::now();
                                let served = t.span("sparql::serve run", request, |_| {
                                    server.run(&cell.template, binding)
                                });
                                let ms = ms_since(t0);
                                match served {
                                    Ok(s) if cell.expected[bi as usize].counts_match(&s.output) => {
                                        out.primary_ms.push(ms);
                                        if cell.line.heavy {
                                            out.secondary_ms.push(ms);
                                        }
                                        out.samples.entry(cell.line.name).or_default().push(ms);
                                    }
                                    Ok(_) => out.fail(|| {
                                        format!("{}: wrong rows, Cout or scanned", cell.line.name)
                                    }),
                                    Err(e) => out.fail(|| format!("{}: {e}", cell.line.name)),
                                }
                            });
                        }
                        out.spans = vec![tracer.into_spans()];
                        (out, at)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut out = Timed { wall_s, busy_s: wall_s, ..Timed::default() };
        for (c, (t, at)) in per_client.into_iter().enumerate() {
            self.cursors[c] = at;
            self.next_request += t.attempted;
            out.absorb_failures(&t);
            out.primary_ms.extend(t.primary_ms);
            out.secondary_ms.extend(t.secondary_ms);
            for (name, v) in t.samples {
                out.samples.entry(name).or_default().extend(v);
            }
            out.spans.extend(t.spans);
        }
        out.work = out.primary_ms.len() as f64;
        let after = self.server.stats();
        out.count(
            "served",
            (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses)
                as f64,
        );
        out.count("cache_hits", (after.cache_hits - before.cache_hits) as f64);
        out.count(
            "queue_wait_total_ms",
            (after.queue_wait - before.queue_wait).as_secs_f64() * 1e3,
        );
        out.count(
            "admissions_deferred",
            (after.admissions_deferred - before.admissions_deferred) as f64,
        );
        out.count("pool_granted", (after.pool.granted - before.pool.granted) as f64);
        out.gauge("pool_capacity", after.pool.capacity as f64);
        out.gauge("clients", clients as f64);
        out
    }

    fn finish(&mut self, timed: &mut Timed) {
        // The per-request check compares counts; here every member of every
        // cell is checked once more with its full row digest.
        for cell in &self.cells {
            for (b, want) in cell.bindings.iter().zip(&cell.expected) {
                timed.attempted += 1;
                match self.server.run(&cell.template, b) {
                    Ok(out) if want.matches(&out.output) => {}
                    Ok(_) => timed
                        .fail(|| format!("{}: rows differ from the direct run", cell.line.name)),
                    Err(e) => timed.fail(|| format!("{}: {e}", cell.line.name)),
                }
            }
        }
    }

    fn store(&self) -> &Bsbm {
        &self.bsbm
    }

    fn describe(&self) -> String {
        let (light, heavy) = cells::mix_shares();
        format!(
            "  store: BSBM {} triples, mmap snapshot behind SparqlServer::open, default ServeConfig\n  \
             load: {} closed-loop clients, read-only, {light}% light / {heavy}% heavy requests\n{}",
            self.server.dataset().len(),
            self.scripts.len(),
            cells::describe(&self.cells),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scratch;

    #[test]
    fn a_wrong_expected_row_count_is_reported_not_passed() {
        let scratch = Scratch::create_in(&env::out_dir(), "wrong-rows").unwrap();
        let mut log = LayerLog::default();
        let mut bench = ServeRead::setup(3, Size::Smoke, scratch.path(), &mut log).unwrap();
        // A verifier that cannot fail verifies nothing: claim one more row
        // than each query returns and every request must count as failed.
        for cell in &mut bench.cells {
            for want in &mut cell.expected {
                want.rows += 1;
            }
        }
        let mut timed = bench.run(0.2, false);
        assert!(timed.attempted > 0);
        assert_eq!(timed.failed, timed.attempted, "every request answers with the wrong row count");
        assert!(timed.primary_ms.is_empty(), "a wrong answer contributes no latency sample");
        assert!(timed.failures[0].contains("wrong rows"));
        let before = timed.failed;
        bench.finish(&mut timed);
        assert!(timed.failed > before, "the full-digest pass fails too");
    }
}
