//! The serving layer: many concurrent clients over one shared store.
//!
//! [`SparqlServer`] wraps an [`Arc<Dataset>`] and serves template
//! instantiations from any number of client threads, coordinating three
//! pieces (`vendor/` is offline, so the client interface is the in-process
//! multi-client driver [`drive_clients`], not HTTP):
//!
//! * a **prepared-plan cache** keyed by `(template name, PlanClass)`: the
//!   optimized + lowered plan skeleton is prepared once per parameter
//!   cardinality class and *rebound* per request ([`Engine::rebind`]) —
//!   the hit path never parses, optimizes or lowers. The [`PlanClass`]
//!   key carries every constant-sensitive optimizer input, so a binding
//!   that would change the join order is a cache miss by construction,
//!   never a wrong reuse.
//! * **admission control and a per-server worker pool**: at most
//!   `max_concurrent` queries execute at once (excess requests queue —
//!   deterministically counted, FIFO-woken), every per-query [`ExecConfig`]
//!   draws its extra execution threads from one shared [`WorkerPool`], and
//!   a global memory budget is divided across the admitted slots — so N
//!   concurrent clients cannot multiply resource use by N.
//! * **streaming results**: each request returns a [`ServedQuery`] wrapping
//!   a [`RowStream`], drained row by row per client; its admission slot is
//!   released when the stream is dropped.
//!
//! Execution remains deterministic per query: rows, row order and every
//! deterministic counter are independent of thread count, pool pressure
//! and concurrent load (see [`ExecConfig`]), which is what the concurrent
//! differential suite asserts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use parambench_rdf::fault::IoSeam;
use parambench_rdf::store::Dataset;
use parambench_rdf::wal::{self, Wal, WalError};

use crate::engine::{Engine, PlanClass, Prepared, QueryOutput, RowStream};
use crate::error::QueryError;
use crate::exec::{ExecConfig, PoolStats, WorkerPool};
use crate::template::{Binding, QueryTemplate};

/// Snapshot file name inside a durable store directory.
pub const SNAPSHOT_FILE: &str = "store.pbsnap";

/// Write-ahead journal file name inside a durable store directory.
pub const JOURNAL_FILE: &str = "store.wal";

/// Configuration of a [`SparqlServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queries executing at once; further requests wait in
    /// admission (their wait is measured and counted).
    pub max_concurrent: usize,
    /// Capacity of the server's [`WorkerPool`]: the total *extra*
    /// execution threads all admitted queries may hold at once, on top of
    /// their own client threads.
    pub pool_capacity: usize,
    /// Per-query execution template (thread cap, morsel geometry and
    /// qualification thresholds). Its `pool` and `mem_budget_rows` fields
    /// are overridden by
    /// the server: the pool with the server's own, the budget with
    /// `mem_budget_rows / max_concurrent`.
    pub exec: ExecConfig,
    /// *Global* memory budget (in resident rows) shared by all admitted
    /// queries; divided evenly across the `max_concurrent` slots. `None`
    /// means unlimited.
    pub mem_budget_rows: Option<usize>,
}

impl Default for ServeConfig {
    /// Four admission slots over a hardware-sized worker pool, parallel
    /// per-query execution, memory budget from the environment (see
    /// [`crate::exec::MEM_BUDGET_ENV`]).
    fn default() -> Self {
        let exec = ExecConfig::parallel();
        ServeConfig {
            max_concurrent: 4,
            pool_capacity: crate::exec::available_parallelism(),
            mem_budget_rows: exec.mem_budget_rows,
            exec,
        }
    }
}

/// Counters of the serving layer (see [`ServeStats`]).
#[derive(Debug, Default)]
struct Counters {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_wait_nanos: AtomicU64,
    admissions_deferred: AtomicU64,
    plan_invalidations: AtomicU64,
}

/// Admission gate state, guarded by one mutex so the running/waiting
/// counts move atomically with respect to each other.
#[derive(Debug, Default)]
struct Gate {
    running: usize,
    waiting: usize,
}

/// The durable half of a server: its write-ahead journal, the snapshot
/// it replays over, and the I/O seam both write through.
struct Durability {
    wal: Wal,
    snapshot: PathBuf,
    dir: PathBuf,
    seam: IoSeam,
}

/// A shared-store query server: one dataset, one plan cache, one worker
/// pool, any number of client threads. See the [module docs](self).
pub struct SparqlServer {
    ds: Arc<Dataset>,
    /// Store generation: bumped by every [`SparqlServer::try_update`]. A plan
    /// prepared under epoch `e` is only ever served while the store is
    /// still at epoch `e` — updates clear the cache wholesale.
    epoch: AtomicU64,
    /// Resolved per-query execution config: caller's template with the
    /// server's pool installed and the divided memory budget applied.
    exec: ExecConfig,
    max_concurrent: usize,
    pool: &'static WorkerPool,
    cache: Mutex<HashMap<(String, PlanClass), Arc<Prepared>>>,
    gate: Mutex<Gate>,
    admitted: Condvar,
    counters: Counters,
    /// `Some` on a durable server ([`SparqlServer::open_durable`] /
    /// [`SparqlServer::create_durable`]): updates journal through it
    /// before they are published.
    durability: Option<Durability>,
    /// Journal records replayed by [`SparqlServer::open_durable`].
    recovered: u64,
}

impl SparqlServer {
    /// Builds a (non-durable) server over a shared dataset.
    pub fn new(ds: Arc<Dataset>, config: ServeConfig) -> Self {
        let max_concurrent = config.max_concurrent.max(1);
        let pool = WorkerPool::leak(config.pool_capacity);
        let exec = ExecConfig {
            pool: Some(pool),
            mem_budget_rows: config.mem_budget_rows.map(|b| (b / max_concurrent).max(1)),
            ..config.exec
        };
        SparqlServer {
            ds,
            epoch: AtomicU64::new(0),
            exec,
            max_concurrent,
            pool,
            cache: Mutex::new(HashMap::new()),
            gate: Mutex::new(Gate::default()),
            admitted: Condvar::new(),
            counters: Counters::default(),
            durability: None,
            recovered: 0,
        }
    }

    /// Builds a server directly over a persisted store snapshot
    /// ([`Dataset::save`]): the warm-start path. The snapshot is
    /// checksum-verified and served zero-copy from the file bytes — no
    /// dictionary reorder, no index build — so a restarted server reaches
    /// its first query without repeating any freeze-time work. Corrupted
    /// or foreign files surface as [`QueryError::Snapshot`].
    pub fn open(path: &std::path::Path, config: ServeConfig) -> Result<Self, QueryError> {
        let ds = Dataset::load(path)?;
        Ok(Self::new(Arc::new(ds), config))
    }

    /// Creates a durable store directory from a dataset and serves it:
    /// saves the snapshot (`store.pbsnap`), starts an empty journal
    /// (`store.wal`), and journals every subsequent update before
    /// publishing it. A stale journal left in the directory is discarded —
    /// `create` means "this dataset is the new truth".
    pub fn create_durable(
        ds: Arc<Dataset>,
        dir: &Path,
        config: ServeConfig,
    ) -> Result<Self, QueryError> {
        Self::create_durable_with_seam(ds, dir, config, &IoSeam::none())
    }

    /// [`SparqlServer::create_durable`] with an injectable I/O seam
    /// ([`IoSeam`]) — the fault-injection entry point the crash-recovery
    /// suite drives.
    pub fn create_durable_with_seam(
        ds: Arc<Dataset>,
        dir: &Path,
        config: ServeConfig,
        seam: &IoSeam,
    ) -> Result<Self, QueryError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            QueryError::Snapshot(parambench_rdf::SnapshotError::Io {
                op: "create store directory",
                path: dir.to_path_buf(),
                message: e.to_string(),
            })
        })?;
        let snapshot = dir.join(SNAPSHOT_FILE);
        let journal = dir.join(JOURNAL_FILE);
        if journal.exists() {
            std::fs::remove_file(&journal).map_err(|e| {
                QueryError::Wal(WalError::Io {
                    op: "discard stale journal",
                    path: journal.clone(),
                    message: e.to_string(),
                })
            })?;
        }
        ds.save_with(&snapshot, seam)?;
        let (wal, _) = Wal::open_with_seam(&journal, seam)?;
        let durability = Durability { wal, snapshot, dir: dir.to_path_buf(), seam: seam.clone() };
        Ok(Self { durability: Some(durability), ..Self::new(ds, config) })
    }

    /// Reopens a durable store directory after a shutdown or crash: maps
    /// the snapshot, scans the journal (truncating a torn tail to the last
    /// committed record — see [`parambench_rdf::wal`]), and replays every
    /// committed record over the snapshot. The reopened server is
    /// bit-identical to the pre-crash live store for every committed
    /// update: same rows, same row order, same deterministic counters,
    /// same plan signatures.
    ///
    /// A journal without its snapshot is typed
    /// ([`WalError::OrphanJournal`]), not silently treated as empty: the
    /// journal only makes sense relative to the snapshot it was logged
    /// against. Any non-torn journal corruption also surfaces as a typed
    /// [`QueryError::Wal`] — never a panic, never silent data loss.
    pub fn open_durable(dir: &Path, config: ServeConfig) -> Result<Self, QueryError> {
        Self::open_durable_with_seam(dir, config, &IoSeam::none())
    }

    /// [`SparqlServer::open_durable`] with an injectable I/O seam.
    pub fn open_durable_with_seam(
        dir: &Path,
        config: ServeConfig,
        seam: &IoSeam,
    ) -> Result<Self, QueryError> {
        let snapshot = dir.join(SNAPSHOT_FILE);
        let journal = dir.join(JOURNAL_FILE);
        if !snapshot.exists() && journal.exists() {
            return Err(QueryError::Wal(WalError::OrphanJournal { journal, snapshot }));
        }
        let mut ds = Dataset::load(&snapshot)?;
        let (wal, records) = Wal::open_with_seam(&journal, seam)?;
        let recovered = records.len() as u64;
        wal::replay(&mut ds, &records);
        let durability = Durability { wal, snapshot, dir: dir.to_path_buf(), seam: seam.clone() };
        Ok(Self { durability: Some(durability), recovered, ..Self::new(Arc::new(ds), config) })
    }

    /// The shared dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.ds
    }

    /// The per-query execution configuration requests run under.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// The store's current epoch (how many committed
    /// [`SparqlServer::try_update`] calls it has absorbed).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The plan cache, recovered if a client thread panicked while holding
    /// the lock: the map holds immutable `Arc<Prepared>` values and every
    /// operation on it is a single `get` / `insert` / `clear`, so it is
    /// consistent whenever the lock is free — one panicking client must
    /// not fail every later request.
    fn plans(&self) -> MutexGuard<'_, HashMap<(String, PlanClass), Arc<Prepared>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission gate, recovered the same way: [`AdmissionPermit`]'s
    /// `Drop` takes it while unwinding, where a panic aborts the process.
    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies a store mutation — insert/delete batches,
    /// [`Dataset::compact`], any combination — with full commit
    /// discipline. The only write entry point: on a non-durable server it
    /// cannot fail; on a durable server a journal append failure is
    /// returned as [`QueryError::Wal`] and the update never happened.
    ///
    /// A commit then bumps the store epoch and invalidates the whole
    /// prepared-plan cache: every cached skeleton was optimized against
    /// the pre-update statistics, cardinalities and (possibly) dictionary
    /// ids, so none may be rebound afterwards. The next request per
    /// `(template, class)` key re-prepares against the updated store.
    ///
    /// The closure runs against a **private clone** of the served dataset,
    /// never the served dataset itself. The clone shares the frozen base
    /// (indexes, frozen dictionary region) with the served store and copies
    /// only the overlay runs, the overflow terms and the statistics, so
    /// taking it — like the statistics maintenance inside the batch APIs —
    /// costs `O(delta)`, not `O(store)`; only a closure that calls
    /// [`Dataset::compact`] pays for a new base. The clone is
    /// published — and the epoch bumped, the plan cache invalidated — only
    /// after everything succeeded, which yields two guarantees:
    ///
    /// * **Panic safety**: if the closure panics, the clone is dropped
    ///   mid-unwind and the server still serves the pre-update store, with
    ///   its plan cache, epoch and journal untouched.
    /// * **Journal-before-publish** (durable servers): the ops the closure
    ///   actually performed (captured term-level by the store's update
    ///   log) are appended to the write-ahead journal and fsynced *before*
    ///   the clone is published. If the append fails, the error is
    ///   returned and neither the served store nor the journal changed —
    ///   an acknowledged update is on disk, a failed one never happened.
    ///
    /// Requires `&mut self`, which statically excludes in-flight
    /// [`ServedQuery`] streams (they borrow the server) — an update can
    /// never mutate a dataset a running query is scanning. External
    /// holders of the dataset `Arc` keep the pre-update store either way.
    pub fn try_update<R>(&mut self, f: impl FnOnce(&mut Dataset) -> R) -> Result<R, QueryError> {
        let mut next = Arc::new((*self.ds).clone());
        let working = Arc::get_mut(&mut next).expect("freshly cloned Arc is unique");
        if self.durability.is_some() {
            working.begin_update_log();
        }
        let result = f(working);
        let ops = working.take_update_log();
        if let Some(d) = self.durability.as_mut() {
            d.wal.append(&ops)?;
        }
        self.ds = next;
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let invalidated = {
            let mut cache = self.plans();
            let n = cache.len() as u64;
            cache.clear();
            n
        };
        self.counters.plan_invalidations.fetch_add(invalidated, Ordering::Relaxed);
        Ok(result)
    }

    /// Checkpoints a durable server: compacts the overlay into the frozen
    /// store (journaled like any update, so a crash mid-checkpoint still
    /// replays to the right state), atomically replaces the snapshot with
    /// the compacted store, and truncates the journal back to its header.
    /// After a checkpoint, reopening the directory replays zero records.
    /// `O(store)` on purpose: the re-freeze and the save are the two places
    /// the whole base is rebuilt and rewritten.
    ///
    /// Crash safety between the snapshot publish and the journal
    /// truncation: the new snapshot already *contains* every journaled
    /// update, and replay is idempotent (per-triple last-op semantics), so
    /// replaying the stale journal over the new snapshot reproduces the
    /// same visible set.
    ///
    /// On a non-durable server this is just a compaction.
    pub fn checkpoint(&mut self) -> Result<(), QueryError> {
        self.try_update(|ds| ds.compact())?;
        let Some(d) = self.durability.as_mut() else { return Ok(()) };
        self.ds.save_with(&d.snapshot, &d.seam)?;
        d.wal.reset()?;
        Ok(())
    }

    /// Whether updates on this server are journaled (see
    /// [`SparqlServer::open_durable`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable store directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Committed journal length in bytes (the file header counts; an empty
    /// journal is 16 bytes). Zero on a non-durable server.
    pub fn journal_len(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal.committed_len())
    }

    /// Journal records replayed when this server was opened with
    /// [`SparqlServer::open_durable`] (zero for every other constructor).
    pub fn recovered_records(&self) -> u64 {
        self.recovered
    }

    /// Serves one template instantiation, returning a streaming result.
    ///
    /// Flow: wait for an admission slot (bounded concurrency), look up the
    /// plan cache under the binding's [`PlanClass`] — a hit rebinds the
    /// cached skeleton ([`Engine::rebind`], no parse/optimize/lower), a
    /// miss prepares cold and populates the cache — then start the
    /// streaming pipeline. The admission slot is held by the returned
    /// [`ServedQuery`] and released when it is dropped, so a slow reader
    /// holds its slot (that is the point of admission control), and
    /// callers should drain or drop promptly.
    pub fn query(
        &self,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<ServedQuery<'_>, QueryError> {
        let t0 = Instant::now();
        let permit = self.admit();
        let queue_wait = t0.elapsed();
        self.counters.queue_wait_nanos.fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);

        // Per-request engine over the shared store: references only, and
        // no probe of the class key grows with a predicate's extent.
        let engine = Engine::with_exec_config(&self.ds, self.exec);
        let class = engine.plan_class(template, binding)?;
        let key = (template.name().to_string(), class);
        let cached = self.plans().get(&key).cloned();
        let (prepared, cache_hit) = match cached {
            Some(skeleton) => {
                let prepared = engine.rebind(&skeleton, template, binding)?;
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                (prepared, true)
            }
            None => {
                let prepared = engine.prepare_template(template, binding)?;
                self.plans().insert(key, Arc::new(prepared.clone()));
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                (prepared, false)
            }
        };
        let rows = engine.stream(&prepared, &self.exec)?;
        Ok(ServedQuery { rows, cache_hit, queue_wait, _permit: permit })
    }

    /// Serves one request and drains it to a materialized output — the
    /// convenience form (and the one [`drive_clients`] uses).
    pub fn run(
        &self,
        template: &QueryTemplate,
        binding: &Binding,
    ) -> Result<ServedOutput, QueryError> {
        self.query(template, binding)?.collect()
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            prepares_avoided: self.counters.cache_hits.load(Ordering::Relaxed),
            queue_wait: Duration::from_nanos(
                self.counters.queue_wait_nanos.load(Ordering::Relaxed),
            ),
            admissions_deferred: self.counters.admissions_deferred.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            plan_invalidations: self.counters.plan_invalidations.load(Ordering::Relaxed),
            pool: self.pool.stats(),
        }
    }

    /// Number of requests currently waiting in admission (exposed so
    /// tests can synchronize on "a request is queued" without timing).
    pub fn waiting(&self) -> usize {
        self.gate().waiting
    }

    /// Blocks until an execution slot is free.
    fn admit(&self) -> AdmissionPermit<'_> {
        let mut gate = self.gate();
        if gate.running >= self.max_concurrent {
            self.counters.admissions_deferred.fetch_add(1, Ordering::Relaxed);
            gate.waiting += 1;
            while gate.running >= self.max_concurrent {
                gate = self.admitted.wait(gate).unwrap_or_else(PoisonError::into_inner);
            }
            gate.waiting -= 1;
        }
        gate.running += 1;
        AdmissionPermit { server: self }
    }
}

/// RAII admission slot: releasing it (on drop) wakes one queued request.
struct AdmissionPermit<'s> {
    server: &'s SparqlServer,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.server.gate().running -= 1;
        self.server.admitted.notify_one();
    }
}

/// One served request: a streaming result plus its serving metadata. Holds
/// the request's admission slot until dropped.
pub struct ServedQuery<'s> {
    rows: RowStream<'s>,
    cache_hit: bool,
    queue_wait: Duration,
    _permit: AdmissionPermit<'s>,
}

impl ServedQuery<'_> {
    /// Output column names, in projection order.
    pub fn columns(&self) -> &[String] {
        self.rows.columns()
    }

    /// Whether this request was served from the plan cache (rebind) rather
    /// than a cold prepare.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Time spent waiting for an admission slot.
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Pulls the next result row (see [`RowStream::next_row`]).
    pub fn next_row(&mut self) -> Result<Option<Vec<crate::results::OutVal>>, QueryError> {
        self.rows.next_row()
    }

    /// Drains the remaining rows into a materialized [`ServedOutput`],
    /// releasing the admission slot.
    pub fn collect(self) -> Result<ServedOutput, QueryError> {
        let ServedQuery { rows, cache_hit, queue_wait, _permit } = self;
        let output = rows.collect_output()?;
        Ok(ServedOutput { output, cache_hit, queue_wait })
    }
}

/// A fully drained served request.
#[derive(Debug, Clone)]
pub struct ServedOutput {
    /// The query result with full instrumentation (identical to what
    /// [`Engine::execute`] would produce for the same query).
    pub output: QueryOutput,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Time spent waiting for an admission slot.
    pub queue_wait: Duration,
}

/// Snapshot of a server's serving-layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests served by rebinding a cached plan skeleton.
    pub cache_hits: u64,
    /// Requests that prepared cold (and populated the cache).
    pub cache_misses: u64,
    /// Full parse→optimize→lower passes avoided (every cache hit is one).
    pub prepares_avoided: u64,
    /// Total time requests spent waiting in admission.
    pub queue_wait: Duration,
    /// Requests that found all execution slots busy and had to wait.
    pub admissions_deferred: u64,
    /// Store epoch: number of committed [`SparqlServer::try_update`] calls.
    pub epoch: u64,
    /// Cached plan skeletons discarded by store updates (each was prepared
    /// against a pre-update epoch and must not be rebound).
    pub plan_invalidations: u64,
    /// The server worker pool's accounting ([`WorkerPool::stats`]):
    /// `pool.peak_in_use <= pool.capacity` is the stats-side proof that
    /// concurrent queries never exceeded the thread budget.
    pub pool: PoolStats,
}

/// The in-process multi-client driver: `clients` threads round-robin over
/// `requests` (client `i` takes requests `i`, `i + clients`, …) against
/// one shared server, each draining its results independently. Outputs
/// come back in request order regardless of completion order; the first
/// error (if any) is returned after all clients finish.
///
/// Each individual query's rows are bit-identical to a serial run on a
/// private engine — concurrency changes only scheduling, never results —
/// which is exactly what the concurrent differential suite asserts.
pub fn drive_clients(
    server: &SparqlServer,
    clients: usize,
    requests: &[(QueryTemplate, Binding)],
) -> Result<Vec<ServedOutput>, QueryError> {
    let clients = clients.max(1);
    let slots: Vec<Mutex<Option<Result<ServedOutput, QueryError>>>> =
        requests.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for c in 0..clients.min(requests.len().max(1)) {
            let slots = &slots;
            scope.spawn(move || {
                let mut i = c;
                while i < requests.len() {
                    let (template, binding) = &requests[i];
                    let result = server.run(template, binding);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                    i += clients;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("client filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    /// A client thread that dies holding the server's locks poisons them;
    /// later requests — admission, the plan cache, and the permit release
    /// in `Drop` — carry on over the still-consistent state.
    #[test]
    fn poisoned_locks_do_not_fail_later_requests() {
        let mut b = StoreBuilder::new();
        b.insert(Term::iri("s"), Term::iri("p"), Term::integer(1));
        let server = SparqlServer::new(Arc::new(b.freeze()), ServeConfig::default());
        let template = QueryTemplate::parse("t", "SELECT ?o WHERE { %s <p> ?o }").unwrap();
        let binding = Binding::new().with("s", Term::iri("s"));
        std::thread::scope(|scope| {
            let dying = scope.spawn(|| {
                let _gate = server.gate.lock().unwrap();
                let _plans = server.cache.lock().unwrap();
                panic!("a client dies holding both locks");
            });
            assert!(dying.join().is_err());
        });
        assert!(server.gate.is_poisoned() && server.cache.is_poisoned());
        assert_eq!(server.waiting(), 0);
        for hit in [false, true] {
            let out = server.run(&template, &binding).unwrap();
            assert_eq!((out.output.results.len(), out.cache_hit), (1, hit));
        }
    }
}
