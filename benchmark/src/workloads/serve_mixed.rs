//! `serve_mixed` — writes beside reads, durable.
//!
//! BSBM at the default scale behind `SparqlServer::create_durable`; one
//! client replays a mixed script (two write batches of eight offers, then
//! one read from the curated cells) through `try_update` / `run`. Every
//! [`CYCLE`] commits the server is dropped without a checkpoint, the
//! journal file cut back to the last acknowledged `journal_len()` (what a
//! real crash could lose is discarded), and the store reopened with
//! `open_durable` — timed as the recovery — then verified and
//! checkpointed, so every recovery replays a journal of the same length.
//!
//! Store-bound: a commit clones the store, applies the batch and
//! recomputes the derived statistics; the journal append is a small share.
//! And it uses the serving layer the opposite way to `serve_read`: every
//! commit empties the plan cache, so each read pays a cold prepare over an
//! overlay-merged scan.

use std::path::{Path, PathBuf};
use std::time::Instant;

use parambench_datagen::bsbm::schema;
use parambench_datagen::Bsbm;
use parambench_rdf::Term;
use parambench_sparql::serve::JOURNAL_FILE;
use parambench_sparql::{Engine, ExecConfig, ServeConfig, SparqlServer};

use super::{Bench, Timed};
use crate::cells::{self, Cell};
use crate::cli::Size;
use crate::data::{self, ms_since, LayerLog};
use crate::rng::Rng;
use crate::trace::Tracer;

type Triple = (Term, Term, Term);

/// Commits between two simulated crashes — the journal length every
/// recovery replays.
pub const CYCLE: usize = 20;

/// Offers per insert batch (three triples each).
const BATCH: usize = 8;

/// Vendors new offers point at.
const VENDORS: usize = 20;

/// One scripted step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Insert these triples in one commit; all of them are new.
    Insert(Vec<Triple>),
    /// Delete these triples in one commit; all of them are present.
    Delete(Vec<Triple>),
    /// Read: cell and member.
    Read(u16, u16),
}

/// The seeded step generator (in the style of `datagen::MixedWorkload`:
/// inserts of fresh offers, deletes of live offers and of base labels,
/// tombstone lifts — but endless, and reading from curated cells).
pub struct Script {
    rng: Rng,
    products: Vec<Term>,
    labels: Vec<Triple>,
    live_offers: Vec<Vec<Triple>>,
    retracted: Vec<Triple>,
    next_offer: usize,
    step: u64,
    cell_weights: Vec<(u32, usize)>,
}

impl Script {
    /// A script over `bsbm`'s products and labels, reading from `cells`.
    pub fn new(bsbm: &Bsbm, cells: &[Cell], seed: u64) -> Result<Self, String> {
        let ds = &bsbm.dataset;
        let label = ds
            .lookup(&Term::iri(schema::LABEL))
            .ok_or("the store has no label predicate to tombstone")?;
        let labels: Vec<Triple> = ds
            .scan([None, Some(label), None])
            .map(|[s, p, o]| (ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone()))
            .collect();
        if labels.is_empty() {
            return Err("the store has no label triples to tombstone".into());
        }
        Ok(Script {
            rng: Rng::stream(seed, "serve_mixed-script"),
            products: bsbm.product_iris(),
            labels,
            live_offers: Vec::new(),
            retracted: Vec::new(),
            next_offer: 0,
            step: 0,
            cell_weights: cells.iter().map(|c| (c.line.weight, c.bindings.len())).collect(),
        })
    }

    fn offer(&mut self) -> Vec<Triple> {
        let offer = Term::iri(format!("{}LiveOffer{}", schema::NS, self.next_offer));
        self.next_offer += 1;
        let product = self.products[self.rng.below(self.products.len())].clone();
        vec![
            (offer.clone(), Term::iri(schema::OFFER_PRODUCT), product),
            (
                offer.clone(),
                Term::iri(schema::OFFER_VENDOR),
                Term::iri(schema::vendor(self.rng.below(VENDORS))),
            ),
            (
                offer,
                Term::iri(schema::OFFER_PRICE),
                Term::double((50 + self.rng.below(450)) as f64),
            ),
        ]
    }

    /// The next step.
    pub fn next_step(&mut self) -> Step {
        self.step += 1;
        if self.step.is_multiple_of(3) {
            let cell = self.rng.pick_weighted(self.cell_weights.iter().map(|w| w.0));
            return Step::Read(cell as u16, self.rng.below(self.cell_weights[cell].1) as u16);
        }
        // Lean toward inserts so the overlay grows within a cycle.
        if !self.live_offers.is_empty() && self.rng.below(3) == 0 {
            let mut batch = Vec::new();
            for _ in 0..BATCH.min(self.live_offers.len()) {
                let i = self.rng.below(self.live_offers.len());
                batch.extend(self.live_offers.swap_remove(i));
            }
            for _ in 0..2 {
                let label = self.labels[self.rng.below(self.labels.len())].clone();
                if !self.retracted.contains(&label) && !batch.contains(&label) {
                    batch.push(label.clone());
                    self.retracted.push(label);
                }
            }
            Step::Delete(batch)
        } else {
            let mut batch = Vec::new();
            for _ in 0..BATCH {
                let triples = self.offer();
                self.live_offers.push(triples.clone());
                batch.extend(triples);
            }
            if !self.retracted.is_empty() && self.rng.below(2) == 0 {
                batch.push(self.retracted.swap_remove(0));
            }
            Step::Insert(batch)
        }
    }
}

/// The first `n` steps of the script for `seed`, as text (the script test
/// compares these bytes).
pub fn script_text(bsbm: &Bsbm, cells: &[Cell], seed: u64, n: usize) -> Result<String, String> {
    let mut script = Script::new(bsbm, cells, seed)?;
    let mut out = String::new();
    for _ in 0..n {
        match script.next_step() {
            Step::Read(c, b) => out.push_str(&format!("read {c} {b}\n")),
            Step::Insert(t) | Step::Delete(t) => {
                for (s, p, o) in t {
                    out.push_str(&format!("write {s} {p} {o}\n"));
                }
            }
        }
    }
    Ok(out)
}

/// The set-up `serve_mixed` workload.
pub struct ServeMixed {
    bsbm: Bsbm,
    dir: PathBuf,
    server: Option<SparqlServer>,
    cells: Vec<Cell>,
    script: Script,
    /// Triples the store must hold, by the acknowledged commits.
    expected_triples: usize,
    /// Commits acknowledged since the last checkpoint.
    since_checkpoint: u64,
    /// This cycle's acknowledged triples and whether each must be visible.
    acked: Vec<(Triple, bool)>,
    /// Step ids handed out so far.
    steps: u64,
}

impl ServeMixed {
    fn server(&self) -> &SparqlServer {
        self.server.as_ref().expect("server is up between crashes")
    }

    /// Drops the server without a checkpoint, discards what a crash could
    /// lose, reopens and verifies. Returns the recovery time.
    fn crash_and_recover(&mut self, tracer: &mut Tracer, out: &mut Timed) -> Option<f64> {
        let id = self.steps;
        out.attempted += 1;
        let acked_len = self.server().journal_len();
        self.server = None;
        let journal = self.dir.join(JOURNAL_FILE);
        let cut = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .and_then(|f| f.set_len(acked_len).and_then(|()| f.sync_all()));
        if let Err(e) = cut {
            out.fail(|| format!("cutting the journal to {acked_len} bytes: {e}"));
        }
        let t = Instant::now();
        let opened = tracer.span("sparql::serve open_durable", id, |_| {
            SparqlServer::open_durable(&self.dir, ServeConfig::default())
        });
        let recovery_ms = ms_since(t);
        let server = match opened {
            Ok(s) => s,
            Err(e) => {
                out.fail(|| format!("open_durable after a crash: {e}"));
                return None;
            }
        };
        tracer.span("harness verify", id, |_| {
            if server.recovered_records() != self.since_checkpoint {
                out.fail(|| {
                    format!(
                        "recovery replayed {} records, {} commits were acknowledged",
                        server.recovered_records(),
                        self.since_checkpoint
                    )
                });
            }
            let ds = server.dataset();
            if ds.stats().total_triples != self.expected_triples
                || ds.len() != self.expected_triples
            {
                out.fail(|| {
                    format!(
                        "after recovery the store holds {} triples, acknowledged commits make {}",
                        ds.stats().total_triples,
                        self.expected_triples
                    )
                });
            }
            // A lost acknowledged write is a failure: every triple a
            // commit of this cycle acknowledged must be as the last
            // commit that touched it left it.
            let mut last: std::collections::HashMap<&Triple, bool> =
                std::collections::HashMap::new();
            for (t, present) in &self.acked {
                last.insert(t, *present);
            }
            let lost = last
                .iter()
                .filter(|((s, p, o), present)| {
                    let ids = (ds.lookup(s), ds.lookup(p), ds.lookup(o));
                    let visible = match ids {
                        (Some(s), Some(p), Some(o)) => ds.contains([Some(s), Some(p), Some(o)]),
                        _ => false,
                    };
                    visible != **present
                })
                .count();
            if lost > 0 {
                out.fail(|| format!("{lost} acknowledged triples lost or resurrected by recovery"));
            }
        });
        self.server = Some(server);
        Some(recovery_ms)
    }

    fn checkpoint(&mut self, tracer: &mut Tracer, out: &mut Timed) {
        let id = self.steps;
        out.attempted += 1;
        let t = Instant::now();
        let server = self.server.as_mut().expect("server is up");
        match tracer.span("sparql::serve checkpoint", id, |_| server.checkpoint()) {
            Ok(()) => {
                out.sample("checkpoint_ms", ms_since(t));
                self.since_checkpoint = 0;
                self.acked.clear();
            }
            Err(e) => out.fail(|| format!("checkpoint: {e}")),
        }
    }

    fn write(&mut self, step: &Step, tracer: &mut Tracer, out: &mut Timed) {
        let id = self.steps;
        let (triples, insert) = match step {
            Step::Insert(t) => (t, true),
            Step::Delete(t) => (t, false),
            Step::Read(..) => unreachable!("write() takes write steps"),
        };
        out.attempted += 1;
        let server = self.server.as_mut().expect("server is up");
        let t0 = Instant::now();
        let changed = tracer.span("sparql::serve try_update", id, |t| {
            server.try_update(|ds| {
                if insert {
                    t.span("rdf::store insert_batch", id, |_| {
                        ds.insert_batch(triples.iter().cloned())
                    })
                } else {
                    t.span("rdf::store delete_batch", id, |_| {
                        ds.delete_batch(triples.iter().cloned())
                    })
                }
            })
        });
        let ms = ms_since(t0);
        match changed {
            Ok(n) if n == triples.len() => {
                // Acknowledged: from here on the triples must survive.
                out.primary_ms.push(ms);
                out.work += 1.0;
                out.busy_s += ms / 1e3;
                out.count("commits", 1.0);
                out.count("triples_committed", n as f64);
                self.since_checkpoint += 1;
                self.expected_triples =
                    if insert { self.expected_triples + n } else { self.expected_triples - n };
                self.acked.extend(triples.iter().map(|t| (t.clone(), insert)));
            }
            Ok(n) => {
                // The script only inserts absent and deletes present
                // triples, so a different count is a wrong answer. Keep the
                // model in step with what the store said it did.
                self.since_checkpoint += 1;
                self.expected_triples =
                    if insert { self.expected_triples + n } else { self.expected_triples - n };
                out.fail(|| format!("commit changed {n} triples, the batch has {}", triples.len()));
            }
            Err(e) => out.fail(|| format!("try_update: {e}")),
        }
        let overlay = self.server().dataset().overlay();
        out.gauge("overlay_peak_entries", (overlay.adds_len() + overlay.dels_len()) as f64);
    }

    fn read(&mut self, cell: u16, member: u16, tracer: &mut Tracer, out: &mut Timed) {
        let id = self.steps;
        let cell = &self.cells[cell as usize];
        let binding = &cell.bindings[member as usize];
        let server = self.server.as_ref().expect("server is up");
        out.attempted += 1;
        let t0 = Instant::now();
        let served = tracer.span("sparql::serve run", id, |_| server.run(&cell.template, binding));
        let ms = ms_since(t0);
        // The store changes under the script, so the expected answer is a
        // direct engine run over the same published store.
        let direct = tracer.span("harness verify", id, |_| {
            let engine = Engine::new(server.dataset());
            engine
                .prepare_template(&cell.template, binding)
                .and_then(|p| engine.execute_with(&p, &ExecConfig::default()))
        });
        match (served, direct) {
            (Ok(s), Ok(d))
                if s.output.results == d.results
                    && s.output.cout == d.cout
                    && s.output.stats.scanned == d.stats.scanned =>
            {
                out.secondary_ms.push(ms);
                out.sample(cell.line.name, ms);
                out.work += 1.0;
                out.busy_s += ms / 1e3;
                out.count("reads", 1.0);
                out.count("read_cache_hits", s.cache_hit as u64 as f64);
            }
            (Ok(_), Ok(_)) => {
                out.fail(|| format!("{}: served rows differ from a direct run", cell.line.name))
            }
            (Err(e), _) | (_, Err(e)) => out.fail(|| format!("{}: {e}", cell.line.name)),
        }
    }
}

impl Bench for ServeMixed {
    fn setup(seed: u64, size: Size, dir: &Path, log: &mut LayerLog) -> Result<Self, String> {
        let bsbm = data::bsbm(data::scale(size), log);
        let cells = cells::build(&bsbm, seed)?;
        let script = Script::new(&bsbm, &cells, seed)?;
        let store_dir = dir.join("durable");
        let served = std::sync::Arc::new(bsbm.dataset.clone());
        let server = log
            .time("create_durable_ms", || {
                SparqlServer::create_durable(served, &store_dir, ServeConfig::default())
            })
            .map_err(|e| e.to_string())?;
        // Warm-up: one read per cell (page cache, allocator).
        for cell in &cells {
            let out = server.run(&cell.template, &cell.bindings[0]).map_err(|e| e.to_string())?;
            if !cell.expected[0].matches(&out.output) {
                return Err(format!("warm-up: {} differs from the direct run", cell.line.name));
            }
        }
        let expected_triples = bsbm.dataset.len();
        Ok(ServeMixed {
            bsbm,
            dir: store_dir,
            server: Some(server),
            cells,
            script,
            expected_triples,
            since_checkpoint: 0,
            acked: Vec::new(),
            steps: 0,
        })
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Timed {
        let start = Instant::now();
        let mut tracer = if trace { Tracer::on(start, 0) } else { Tracer::off() };
        let mut out = Timed::default();
        while start.elapsed().as_secs_f64() < seconds && self.server.is_some() {
            let step = self.script.next_step();
            self.steps += 1;
            let id = self.steps;
            tracer.span("harness step", id, |t| match &step {
                Step::Read(c, m) => self.read(*c, *m, t, &mut out),
                write => self.write(write, t, &mut out),
            });
            if self.since_checkpoint as usize >= CYCLE {
                tracer.span("harness step", id, |t| {
                    if let Some(ms) = self.crash_and_recover(t, &mut out) {
                        out.restart_ms.push(ms);
                        self.checkpoint(t, &mut out);
                    }
                });
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.spans = vec![tracer.into_spans()];
        out
    }

    fn finish(&mut self, timed: &mut Timed) {
        if self.server.is_none() {
            return;
        }
        // The last, partial cycle crashes too: its acknowledged commits
        // must survive like any other (the recovery is not sampled, its
        // journal is shorter).
        if self.crash_and_recover(&mut Tracer::off(), timed).is_none() {
            return;
        }
        // The final store must answer like a from-scratch freeze of its
        // visible triples.
        let live = self.server().dataset().clone();
        let fresh = data::rebuild(&live).freeze();
        let (a, b) = (Engine::new(&live), Engine::new(&fresh));
        for cell in &self.cells {
            for binding in cell.bindings.iter().take(2) {
                timed.attempted += 1;
                let run = |e: &Engine<'_>| {
                    e.prepare_template(&cell.template, binding)
                        .and_then(|p| e.execute_with(&p, &ExecConfig::default()))
                };
                match (run(&a), run(&b)) {
                    (Ok(x), Ok(y)) if x.results == y.results && x.cout == y.cout => {}
                    (Ok(_), Ok(_)) => timed.fail(|| {
                        format!(
                            "{}: the updated store and a fresh freeze of it disagree",
                            cell.line.name
                        )
                    }),
                    (Err(e), _) | (_, Err(e)) => timed.fail(|| format!("{}: {e}", cell.line.name)),
                }
            }
        }
    }

    fn store(&self) -> &Bsbm {
        &self.bsbm
    }

    fn describe(&self) -> String {
        format!(
            "  store: BSBM {} triples behind SparqlServer::create_durable, default ServeConfig\n  \
             load: 1 closed-loop client; per 3 steps 2 commits of {BATCH} offers (or deletes) and 1 read; \
             crash, open_durable, verify and checkpoint every {CYCLE} commits\n{}",
            self.bsbm.dataset.len(),
            cells::describe(&self.cells),
        )
    }
}
