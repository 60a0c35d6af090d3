//! Out-of-core execution: run files, the external GROUP BY fold and the
//! external merge sort behind [`crate::exec::ExecConfig::mem_budget_rows`].
//!
//! The streaming pipeline bounds *intermediate* state, but two
//! modifier operators are inherently blocking and hold state proportional
//! to their input: the GROUP BY accumulators of `GroupFold` and the row
//! buffer of the `Sort` operator (ORDER BY that neither a delivered order
//! nor a LIMIT's bounded heap serves). This module
//! lets both degrade gracefully to disk once a memory budget is exceeded:
//!
//! * **Run files** ([`RunWriter`]/[`RunReader`]) — flat buffered files of
//!   fixed-width `Id` rows, each prefixed with its global pipeline
//!   sequence number (the engine's pinned tie-break). Runs live in a
//!   [`SpillSpace`], a unique temp directory removed when the run
//!   finishes (or fails).
//! * **External GROUP BY** (`ExternalGroupFold`) — wraps the in-memory
//!   `GroupFold`. Rows of groups that are already resident keep folding
//!   in place; once the budget trips, rows of *new* groups hash-partition
//!   by group key into spill files. Because a group's rows all land in
//!   one partition file in arrival order, re-folding a partition on drain
//!   replays exactly the serial per-group fold order — so even float
//!   SUM/AVG values are bit-identical at any budget. Partitions re-fold
//!   one at a time (peak memory ≈ one partition's groups) and the groups
//!   interleave back into global first-seen order by their recorded
//!   *birth* sequence.
//! * **External merge sort** ([`ExternalSorter`]) — buffers at most
//!   `budget` rows, sorting and spilling them as a run whenever the
//!   buffer fills, then merges the sorted runs with a [`LoserTree`]
//!   (tournament tree of losers) over per-row precomputed
//!   [`SortAtom`] keys, ties pinned to the
//!   pipeline row order carried in each record. The merged sequence is
//!   bit-identical to the in-memory stable sort.
//!
//! All I/O failures surface as the typed [`ExecError`] — never a panic —
//! and [`crate::exec::ExecStats`] records `spilled_rows`, `spill_runs`
//! and `spill_bytes` for every spilling run.

use std::cmp::Ordering;
use std::fs::{self, File};
use std::hash::{BuildHasher, RandomState};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use parambench_rdf::dict::Id;
use parambench_rdf::store::Dataset;

use crate::error::ExecError;
use crate::exec::{ExecStats, UNBOUND};
use crate::modifiers::{cmp_keyed, GroupFold, RowKeys};
use crate::plan::{AggregatePlan, ModifierPlan};
use crate::results::{SolVal, SortAtom};

/// Hash partitions the external GROUP BY fold scatters overflow groups
/// into. A fixed constant: partition assignment affects only which file a
/// group's rows land in, never the output (groups re-interleave by birth),
/// so there is nothing to tune for correctness; 8 keeps per-partition
/// refold memory near `groups / 8` with a handful of open files.
pub const SPILL_PARTITIONS: usize = 8;

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> ExecError {
    ExecError { op, path: path.to_path_buf(), message: e.to_string() }
}

// ---------------------------------------------------------------------------
// SpillSpace (per-run temp directory)
// ---------------------------------------------------------------------------

/// A unique directory for one spilling execution's run files, created
/// under the engine's spill base directory and removed (best-effort,
/// recursively) on drop — run files never outlive the query that wrote
/// them, even when it fails mid-way.
#[derive(Debug)]
pub struct SpillSpace {
    dir: PathBuf,
}

impl SpillSpace {
    /// Creates a fresh uniquely-named directory under `base` (`None`: system temp dir).
    pub fn create_under(base: Option<&Path>) -> Result<SpillSpace, ExecError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = base.map_or_else(std::env::temp_dir, Path::to_path_buf).join(format!(
            "parambench-spill-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        fs::create_dir_all(&dir).map_err(|e| io_err("create spill dir", &dir, e))?;
        Ok(SpillSpace { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A file path inside the space.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for SpillSpace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// Run files
// ---------------------------------------------------------------------------

/// Bytes per run record: an 8-byte sequence number plus `width` 4-byte ids.
fn record_bytes(width: usize) -> u64 {
    8 + 4 * width as u64
}

/// Buffered writer of one run file: fixed-width `Id` rows, each prefixed
/// with its global pipeline sequence number.
pub struct RunWriter {
    w: BufWriter<File>,
    path: PathBuf,
    width: usize,
    rows: u64,
}

impl RunWriter {
    /// Creates the run file (truncating any leftover).
    pub fn create(path: PathBuf, width: usize) -> Result<RunWriter, ExecError> {
        let file = File::create(&path).map_err(|e| io_err("create spill run", &path, e))?;
        Ok(RunWriter { w: BufWriter::new(file), path, width, rows: 0 })
    }

    /// Appends one record. Writes go straight into the `BufWriter` — no
    /// per-record allocation on the spill hot path.
    pub fn push(&mut self, seq: u64, row: &[Id]) -> Result<(), ExecError> {
        debug_assert_eq!(row.len(), self.width);
        let path = &self.path;
        self.w.write_all(&seq.to_le_bytes()).map_err(|e| io_err("write spill run", path, e))?;
        for id in row {
            self.w
                .write_all(&id.0.to_le_bytes())
                .map_err(|e| io_err("write spill run", path, e))?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flushes and seals the run.
    pub fn finish(mut self) -> Result<RunFile, ExecError> {
        self.w.flush().map_err(|e| io_err("flush spill run", &self.path, e))?;
        Ok(RunFile { path: self.path, width: self.width, rows: self.rows })
    }
}

/// A sealed run file, ready for reading.
#[derive(Debug, Clone)]
pub struct RunFile {
    path: PathBuf,
    width: usize,
    rows: u64,
}

impl RunFile {
    /// Rows in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes the run occupies on disk.
    pub fn bytes(&self) -> u64 {
        self.rows * record_bytes(self.width)
    }

    /// Opens the run for sequential reading.
    pub fn open(&self) -> Result<RunReader, ExecError> {
        let file = File::open(&self.path).map_err(|e| io_err("open spill run", &self.path, e))?;
        RunReader::new(BufReader::new(file), self.path.clone(), self.width, self.rows)
    }
}

/// Buffered sequential reader of one run file.
pub struct RunReader {
    r: BufReader<File>,
    path: PathBuf,
    width: usize,
    remaining: u64,
}

impl RunReader {
    fn new(
        r: BufReader<File>,
        path: PathBuf,
        width: usize,
        remaining: u64,
    ) -> Result<RunReader, ExecError> {
        Ok(RunReader { r, path, width, remaining })
    }

    /// Reads the next record into `row` (which must match the run width),
    /// returning its sequence number, or `None` once the run is drained.
    pub fn next(&mut self, row: &mut [Id]) -> Result<Option<u64>, ExecError> {
        debug_assert_eq!(row.len(), self.width);
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf8 = [0u8; 8];
        self.r.read_exact(&mut buf8).map_err(|e| io_err("read spill run", &self.path, e))?;
        let seq = u64::from_le_bytes(buf8);
        let mut buf4 = [0u8; 4];
        for slot in row.iter_mut() {
            self.r.read_exact(&mut buf4).map_err(|e| io_err("read spill run", &self.path, e))?;
            *slot = Id(u32::from_le_bytes(buf4));
        }
        self.remaining -= 1;
        Ok(Some(seq))
    }
}

// ---------------------------------------------------------------------------
// Loser tree (tournament k-way merge selector)
// ---------------------------------------------------------------------------

/// A tournament tree of losers over `k` contestants. `node[0]` holds the
/// overall winner, `node[1..k]` the losers of the internal matches; leaves
/// are implicit at positions `k..2k-1`. After the winner's input advances,
/// [`LoserTree::replay`] walks only the winner's leaf-to-root path —
/// `O(log k)` comparisons per emitted row, the property that makes k-way
/// merge linear in total comparisons per level.
pub struct LoserTree {
    k: usize,
    node: Vec<usize>,
}

impl LoserTree {
    /// Builds the tree; `cmp(a, b)` compares contestants (smaller wins).
    pub fn new(k: usize, mut cmp: impl FnMut(usize, usize) -> Ordering) -> LoserTree {
        assert!(k > 0, "loser tree over zero runs");
        let mut tree = LoserTree { k, node: vec![0; k] };
        if k > 1 {
            tree.node[0] = tree.build(1, &mut cmp);
        }
        tree
    }

    /// Plays out the subtree rooted at array position `pos`, storing
    /// losers; returns the subtree winner.
    fn build(&mut self, pos: usize, cmp: &mut impl FnMut(usize, usize) -> Ordering) -> usize {
        if pos >= self.k {
            return pos - self.k;
        }
        let a = self.build(2 * pos, cmp);
        let b = self.build(2 * pos + 1, cmp);
        let (winner, loser) = if cmp(a, b) != Ordering::Greater { (a, b) } else { (b, a) };
        self.node[pos] = loser;
        winner
    }

    /// The current overall winner.
    pub fn winner(&self) -> usize {
        self.node[0]
    }

    /// Re-plays the matches on `leaf`'s path to the root after its input
    /// changed (advanced or exhausted).
    pub fn replay(&mut self, leaf: usize, mut cmp: impl FnMut(usize, usize) -> Ordering) {
        if self.k <= 1 {
            return;
        }
        let mut candidate = leaf;
        let mut t = (leaf + self.k) / 2;
        while t > 0 {
            if cmp(self.node[t], candidate) == Ordering::Less {
                std::mem::swap(&mut self.node[t], &mut candidate);
            }
            t /= 2;
        }
        self.node[0] = candidate;
    }
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Out-of-core stable sort of `Id` rows under `(sort keys, arrival order)`
/// — the sorter behind the `Sort` operator. Rows are buffered up to the
/// memory budget; each overflow sorts the buffer (keys precomputed once
/// per row, never inside the comparator) and writes it as one sorted run. [`ExternalSorter::finish`] merges the runs with a [`LoserTree`];
/// with no spilled run it degenerates to the plain in-memory sort, so the
/// output sequence is identical either way.
pub struct ExternalSorter<'a> {
    /// Resolved sort keys (columns, expressions, directions).
    keys: RowKeys<'a>,
    descs: Vec<bool>,
    width: usize,
    /// Max buffered rows before a run is spilled.
    buffer_rows: usize,
    rows: Vec<Vec<Id>>,
    seqs: Vec<u64>,
    runs: Vec<RunFile>,
    base: Option<PathBuf>,
    space: Option<SpillSpace>,
    next_seq: u64,
}

impl<'a> ExternalSorter<'a> {
    /// A sorter over `width`-column rows under `keys`, spilling runs into
    /// a fresh [`SpillSpace`] under `base` once more than `budget` rows
    /// are buffered.
    pub(crate) fn new(
        keys: RowKeys<'a>,
        width: usize,
        budget: usize,
        base: Option<PathBuf>,
    ) -> ExternalSorter<'a> {
        let descs = keys.descs();
        ExternalSorter {
            keys,
            descs,
            width,
            buffer_rows: budget.max(1),
            rows: Vec::new(),
            seqs: Vec::new(),
            runs: Vec::new(),
            base,
            space: None,
            next_seq: 0,
        }
    }

    /// Buffers one row (registered with `stats`), spilling a sorted run
    /// when the buffer reaches the budget.
    pub fn push_row(&mut self, row: &[Id], stats: &mut ExecStats) -> Result<(), ExecError> {
        debug_assert_eq!(row.len(), self.width);
        self.rows.push(row.to_vec());
        self.seqs.push(self.next_seq);
        self.next_seq += 1;
        stats.grow(1);
        stats.sorted_rows += 1;
        if self.rows.len() >= self.buffer_rows {
            self.spill(stats)?;
        }
        Ok(())
    }

    /// Buffer indices in final sorted order: stable under
    /// `(keys, arrival seq)` with one key resolution per row.
    fn sorted_order(&self) -> Vec<usize> {
        let keyed: Vec<Vec<SortAtom<'_>>> =
            self.rows.iter().map(|row| self.keys.atoms(row)).collect();
        let mut idx: Vec<usize> = (0..self.rows.len()).collect();
        idx.sort_unstable_by(|&a, &b| {
            cmp_keyed(&keyed[a], self.seqs[a], &keyed[b], self.seqs[b], &self.descs)
        });
        idx
    }

    fn spill(&mut self, stats: &mut ExecStats) -> Result<(), ExecError> {
        if self.rows.is_empty() {
            return Ok(());
        }
        if self.space.is_none() {
            self.space = Some(SpillSpace::create_under(self.base.as_deref())?);
        }
        let space = self.space.as_ref().expect("created above");
        let order = self.sorted_order();
        let mut writer =
            RunWriter::create(space.file(&format!("sort-{}.run", self.runs.len())), self.width)?;
        for &i in &order {
            writer.push(self.seqs[i], &self.rows[i])?;
        }
        let run = writer.finish()?;
        stats.spilled_rows += run.rows();
        stats.spill_runs += 1;
        stats.spill_bytes += run.bytes();
        stats.shrink(self.rows.len());
        self.rows.clear();
        self.seqs.clear();
        self.runs.push(run);
        Ok(())
    }

    /// Seals the sorter into the final sorted row sequence: a plain
    /// in-memory sort when nothing spilled, a loser-tree merge over the
    /// sorted runs otherwise.
    pub fn finish(mut self, stats: &mut ExecStats) -> Result<SortedRows<'a>, ExecError> {
        if self.runs.is_empty() {
            let order = self.sorted_order();
            let mut taken: Vec<Option<Vec<Id>>> = self.rows.into_iter().map(Some).collect();
            let sorted: Vec<Vec<Id>> =
                order.into_iter().map(|i| taken[i].take().expect("each index once")).collect();
            // The sorted rows stay registered with `stats` (pushed rows
            // were grown on arrival) until the caller has consumed them.
            return Ok(SortedRows::Mem(sorted.into_iter()));
        }
        self.spill(stats)?;
        let mut cursors: Vec<Option<MergeCursor<'a>>> = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let mut reader = run.open()?;
            let mut row = vec![UNBOUND; self.width];
            let cursor = match reader.next(&mut row)? {
                Some(seq) => Some(MergeCursor { key: self.keys.atoms(&row), seq, row, reader }),
                None => None,
            };
            cursors.push(cursor);
        }
        let descs = self.descs.clone();
        let tree = LoserTree::new(cursors.len(), |a, b| cursor_cmp(&cursors, &descs, a, b));
        Ok(SortedRows::Merge(Box::new(KWayMerge {
            keys: self.keys,
            descs,
            width: self.width,
            cursors,
            tree,
            _space: self.space,
        })))
    }
}

/// The head of one sorted run during the k-way merge.
struct MergeCursor<'a> {
    key: Vec<SortAtom<'a>>,
    seq: u64,
    row: Vec<Id>,
    reader: RunReader,
}

fn cursor_cmp(cursors: &[Option<MergeCursor<'_>>], descs: &[bool], a: usize, b: usize) -> Ordering {
    match (&cursors[a], &cursors[b]) {
        (Some(x), Some(y)) => cmp_keyed(&x.key, x.seq, &y.key, y.seq, descs),
        // Exhausted runs rank last, so live cursors always win matches.
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// Loser-tree merge over sorted spill runs, emitting rows in global
/// `(keys, arrival seq)` order. Holds one row per run (the merge
/// frontier) plus the run files' [`SpillSpace`], which is removed when
/// the merge is dropped.
pub struct KWayMerge<'a> {
    keys: RowKeys<'a>,
    descs: Vec<bool>,
    width: usize,
    cursors: Vec<Option<MergeCursor<'a>>>,
    tree: LoserTree,
    _space: Option<SpillSpace>,
}

impl KWayMerge<'_> {
    /// The next merged row, or `None` when every run is drained.
    pub fn next_row(&mut self) -> Result<Option<Vec<Id>>, ExecError> {
        let w = self.tree.winner();
        let out = {
            let Some(cursor) = self.cursors[w].as_mut() else {
                return Ok(None);
            };
            let mut next = vec![UNBOUND; self.width];
            match cursor.reader.next(&mut next)? {
                Some(seq) => {
                    let out = std::mem::replace(&mut cursor.row, next);
                    cursor.key = self.keys.atoms(&cursor.row);
                    cursor.seq = seq;
                    out
                }
                None => {
                    let exhausted = self.cursors[w].take().expect("checked above");
                    exhausted.row
                }
            }
        };
        let (cursors, descs) = (&self.cursors, &self.descs);
        self.tree.replay(w, |a, b| cursor_cmp(cursors, descs, a, b));
        Ok(Some(out))
    }
}

/// The output of [`ExternalSorter::finish`]: the fully sorted row
/// sequence, pulled one row at a time.
pub enum SortedRows<'a> {
    /// Nothing spilled: the in-memory sorted buffer.
    Mem(std::vec::IntoIter<Vec<Id>>),
    /// Spilled: a loser-tree merge over the sorted runs.
    Merge(Box<KWayMerge<'a>>),
}

impl SortedRows<'_> {
    /// The next row in final sorted order.
    pub fn next_row(&mut self) -> Result<Option<Vec<Id>>, ExecError> {
        match self {
            SortedRows::Mem(iter) => Ok(iter.next()),
            SortedRows::Merge(merge) => merge.next_row(),
        }
    }
}

// ---------------------------------------------------------------------------
// External GROUP BY fold
// ---------------------------------------------------------------------------

/// Out-of-core GROUP BY/aggregation: the budgeted wrapper around the
/// streaming `GroupFold`.
///
/// Absorption keeps the serial fold's exact per-group arithmetic: a row
/// whose group already holds an accumulator folds straight into it; once
/// the budget has tripped, rows of *new* groups are written to one of
/// [`SPILL_PARTITIONS`] files chosen by a hash of the group key. A
/// group's rows therefore either all fold in memory or all land — in
/// arrival order — in exactly one partition file, and re-folding that
/// file on drain replays the serial fold order (bit-identical results,
/// floats included, at any budget). `eager` mode (chosen by the lowering
/// when the estimated group count already exceeds the budget) skips the
/// in-memory phase and spills from the first row.
///
/// Drain re-folds partitions one at a time (peak ≈ one partition's
/// groups, not the total) and merges the partition-local folds with the
/// in-memory master by group *birth* — the global sequence number of each
/// group's first row — restoring exactly the serial first-seen group
/// order that pins the pre-sort output order.
pub(crate) struct ExternalGroupFold<'a> {
    inner: GroupFold<'a>,
    ds: &'a Dataset,
    schema: Vec<usize>,
    budget: usize,
    spilling: bool,
    base: Option<PathBuf>,
    space: Option<SpillSpace>,
    writers: Vec<Option<RunWriter>>,
    hasher: RandomState,
    next_seq: u64,
}

impl<'a> ExternalGroupFold<'a> {
    /// A budgeted fold over rows of `schema` (the pipeline's projected
    /// input columns). `eager` starts in spill mode immediately.
    pub fn new(
        agg: &AggregatePlan,
        schema: &[usize],
        ds: &'a Dataset,
        budget: usize,
        eager: bool,
        base: Option<PathBuf>,
    ) -> Self {
        ExternalGroupFold {
            inner: GroupFold::new(agg, schema, ds, false),
            ds,
            schema: schema.to_vec(),
            budget,
            spilling: eager,
            base,
            space: None,
            writers: (0..SPILL_PARTITIONS).map(|_| None).collect(),
            hasher: RandomState::new(),
            next_seq: 0,
        }
    }

    /// Folds one row: in memory when its group is resident (or the budget
    /// has not tripped yet), to its group's spill partition otherwise.
    pub fn add_row(&mut self, row: &[Id], stats: &mut ExecStats) -> Result<(), ExecError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.spilling && self.inner.group_of(row).is_none() {
            return self.spill_row(row, seq, stats);
        }
        self.inner.add_row_at(row, seq, stats);
        self.spilling |= self.inner.resident() > self.budget;
        Ok(())
    }

    fn spill_row(&mut self, row: &[Id], seq: u64, stats: &mut ExecStats) -> Result<(), ExecError> {
        if self.space.is_none() {
            self.space = Some(SpillSpace::create_under(self.base.as_deref())?);
        }
        let space = self.space.as_ref().expect("created above");
        let p = self.hasher.hash_one(self.inner.key_of(row)) as usize % SPILL_PARTITIONS;
        if self.writers[p].is_none() {
            let path = space.file(&format!("group-{p}.run"));
            self.writers[p] = Some(RunWriter::create(path, self.schema.len())?);
        }
        self.writers[p].as_mut().expect("created above").push(seq, row)?;
        stats.spilled_rows += 1;
        Ok(())
    }

    /// Drains the fold into the solution-table rows of `m`, in the serial
    /// fold's group order. Releases all tracked fold residency and removes
    /// the spill files.
    pub fn finish(
        self,
        m: &ModifierPlan,
        stats: &mut ExecStats,
    ) -> Result<Vec<Vec<SolVal>>, ExecError> {
        let ExternalGroupFold { inner, ds, schema, mut writers, space, .. } = self;

        let mut runs: Vec<RunFile> = Vec::new();
        for writer in writers.iter_mut() {
            if let Some(writer) = writer.take() {
                let run = writer.finish()?;
                stats.spill_runs += 1;
                stats.spill_bytes += run.bytes();
                runs.push(run);
            }
        }

        if runs.is_empty() {
            // Nothing spilled: identical to the plain in-memory fold
            // (including the implicit-group rule for ungrouped queries).
            return Ok(inner.finish(m, stats));
        }

        // Master groups first (they were all born before any spilled
        // group), then each partition re-folded in file order — which is
        // arrival order, so per-group arithmetic replays exactly. A
        // spilled row opens its group in its partition's fold, so no
        // implicit group is ever missing here.
        let mut out: Vec<(u64, Vec<SolVal>)> = Vec::new();
        let (rows, births) = inner.finish_with_births(m, stats);
        out.extend(births.into_iter().zip(rows));

        for run in &runs {
            let mut reader = run.open()?;
            let agg = m.aggregate.as_ref().expect("a fold runs under aggregation");
            let mut fold = GroupFold::new(agg, &schema, ds, false);
            let mut row = vec![UNBOUND; schema.len()];
            while let Some(seq) = reader.next(&mut row)? {
                fold.add_row_at(&row, seq, stats);
            }
            let (rows, births) = fold.finish_with_births(m, stats);
            out.extend(births.into_iter().zip(rows));
        }

        // Births are unique (each row creates at most one group; master
        // and partition groups are disjoint), so this restores exactly the
        // global first-seen order.
        out.sort_unstable_by_key(|&(birth, _)| birth);
        drop(space); // remove the run files
        Ok(out.into_iter().map(|(_, row)| row).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggFunc;
    use crate::plan::AggSpec;
    use parambench_rdf::store::StoreBuilder;
    use parambench_rdf::term::Term;

    fn dataset(n: usize) -> Dataset {
        let mut b = StoreBuilder::new();
        for i in 0..n {
            let s = Term::iri(format!("s/{i}"));
            b.insert(s.clone(), Term::iri("p/val"), Term::integer((i % 7) as i64));
            b.insert(s, Term::iri("p/grp"), Term::iri(format!("g/{}", i % 23)));
        }
        b.freeze()
    }

    #[test]
    fn run_files_round_trip_rows_and_seqs() {
        let space = SpillSpace::create_under(None).unwrap();
        let path = space.file("t.run");
        let mut w = RunWriter::create(path, 3).unwrap();
        for i in 0..100u32 {
            w.push(1000 + i as u64, &[Id(i), Id(i * 2), Id(u32::MAX)]).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 100);
        assert_eq!(run.bytes(), 100 * (8 + 12));
        let mut r = run.open().unwrap();
        let mut row = vec![Id(0); 3];
        for i in 0..100u32 {
            let seq = r.next(&mut row).unwrap().expect("row present");
            assert_eq!(seq, 1000 + i as u64);
            assert_eq!(row, vec![Id(i), Id(i * 2), Id(u32::MAX)]);
        }
        assert!(r.next(&mut row).unwrap().is_none());
    }

    #[test]
    fn spill_space_removes_itself() {
        let dir;
        {
            let space = SpillSpace::create_under(None).unwrap();
            dir = space.path().to_path_buf();
            let mut w = RunWriter::create(space.file("x.run"), 1).unwrap();
            w.push(0, &[Id(1)]).unwrap();
            w.finish().unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must vanish on drop");
    }

    #[test]
    fn loser_tree_merges_in_order() {
        // 5 "runs" of pre-sorted numbers; merge must emit globally sorted.
        let runs: Vec<Vec<u32>> =
            vec![vec![1, 4, 7, 10], vec![2, 2, 2], vec![], vec![0, 9, 9, 11, 30], vec![5]];
        let mut heads: Vec<Option<u32>> = runs.iter().map(|r| r.first().copied()).collect();
        let mut pos = vec![0usize; runs.len()];
        let cmp = |heads: &Vec<Option<u32>>, a: usize, b: usize| match (&heads[a], &heads[b]) {
            (Some(x), Some(y)) => x.cmp(y).then(a.cmp(&b)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        };
        let mut tree = LoserTree::new(runs.len(), |a, b| cmp(&heads, a, b));
        let mut got = Vec::new();
        loop {
            let w = tree.winner();
            let Some(v) = heads[w] else { break };
            got.push(v);
            pos[w] += 1;
            heads[w] = runs[w].get(pos[w]).copied();
            tree.replay(w, |a, b| cmp(&heads, a, b));
        }
        let mut want: Vec<u32> = runs.concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn external_sorter_matches_in_memory_sort_at_any_budget() {
        let ds = dataset(500);
        // Rows (val, grp-ish): sort ascending by column 0 with heavy ties,
        // tie-break = arrival order.
        let rows: Vec<Vec<Id>> = (0..500u32).map(|i| vec![Id(i % 7 + 1), Id(i)]).collect();
        let reference: Vec<Vec<Id>> = {
            let mut idx: Vec<usize> = (0..rows.len()).collect();
            let keyed: Vec<SortAtom<'_>> =
                rows.iter().map(|r| SortAtom::of_id(r[0], &ds)).collect();
            idx.sort_by(|&a, &b| crate::results::cmp_atoms(&keyed[a], &keyed[b]).then(a.cmp(&b)));
            idx.into_iter().map(|i| rows[i].clone()).collect()
        };
        for budget in [1usize, 3, 64, 100_000] {
            let mut stats = ExecStats::default();
            let mut sorter =
                ExternalSorter::new(RowKeys::cols(&ds, vec![(0, false)]), 2, budget, None);
            for row in &rows {
                sorter.push_row(row, &mut stats).unwrap();
            }
            let mut merged = sorter.finish(&mut stats).unwrap();
            let mut got = Vec::new();
            while let Some(row) = merged.next_row().unwrap() {
                got.push(row);
            }
            assert_eq!(got, reference, "budget {budget}");
            if budget < rows.len() {
                assert!(stats.spilled_rows > 0, "budget {budget} must spill");
                assert!(stats.spill_runs >= 2, "budget {budget} must write several runs");
                // Budgeted buffer: the peak stays near the budget, far
                // below the 500 resident rows of an in-memory sort.
                assert!(
                    stats.peak_tuples <= budget as u64 + 1,
                    "budget {budget}: peak {}",
                    stats.peak_tuples
                );
            } else {
                assert_eq!(stats.spilled_rows, 0);
            }
        }
    }

    fn fold_all(
        ds: &Dataset,
        agg: &AggregatePlan,
        schema: &[usize],
        rows: &[Vec<Id>],
        budget: usize,
        eager: bool,
        m: &ModifierPlan,
    ) -> (Vec<Vec<SolVal>>, ExecStats) {
        let mut stats = ExecStats::default();
        let mut fold = ExternalGroupFold::new(agg, schema, ds, budget, eager, None);
        for row in rows {
            fold.add_row(row, &mut stats).unwrap();
        }
        (fold.finish(m, &mut stats).unwrap(), stats)
    }

    #[test]
    fn external_fold_matches_in_memory_fold_at_any_budget() {
        let ds = dataset(700);
        let agg = AggregatePlan {
            group_slots: vec![1],
            specs: vec![
                AggSpec { func: AggFunc::Count, slot: Some(0), distinct: false },
                AggSpec { func: AggFunc::Sum, slot: Some(0), distinct: false },
                AggSpec { func: AggFunc::Count, slot: Some(0), distinct: true },
            ],
        };
        // A minimal ModifierPlan describing the table: group key + aggs.
        let m = ModifierPlan {
            distinct: false,
            offset: 0,
            limit: None,
            table: vec![
                crate::plan::TableCol {
                    name: "g".into(),
                    source: crate::plan::TableColSource::Slot(1),
                },
                crate::plan::TableCol {
                    name: "a0".into(),
                    source: crate::plan::TableColSource::Agg(0),
                },
                crate::plan::TableCol {
                    name: "a1".into(),
                    source: crate::plan::TableColSource::Agg(1),
                },
                crate::plan::TableCol {
                    name: "a2".into(),
                    source: crate::plan::TableColSource::Agg(2),
                },
            ],
            out_width: 4,
            order_by: vec![],
            order_exprs: vec![],
            aggregate: Some(agg.clone()),
        };
        let schema = [0usize, 1usize];
        // 23 groups, values 0..7: enough rows that tiny budgets spill.
        let rows: Vec<Vec<Id>> = (0..700u32).map(|i| vec![Id(i % 7 + 1), Id(i % 23)]).collect();

        let (reference, ref_stats) = fold_all(&ds, &agg, &schema, &rows, usize::MAX, false, &m);
        assert_eq!(ref_stats.spilled_rows, 0);
        for (budget, eager) in [(0, false), (1, false), (5, false), (5, true), (0, true)] {
            let (got, stats) = fold_all(&ds, &agg, &schema, &rows, budget, eager, &m);
            assert_eq!(got, reference, "budget {budget} eager {eager} diverged");
            assert!(stats.spilled_rows > 0, "budget {budget} eager {eager} must spill");
            assert!(
                stats.peak_tuples < ref_stats.peak_tuples,
                "budget {budget} eager {eager}: spilled peak {} not below in-memory {}",
                stats.peak_tuples,
                ref_stats.peak_tuples
            );
        }
    }
}
