//! Inputs: the stores, their on-disk copies, and the log of how long each
//! set-up step took (the set-up steps are layer calls too, so their
//! timings feed the per-layer metrics).
//!
//! The stores are the repository's standard BSBM and SNB instances (the
//! generators' default seed) at a stated scale — a benchmark's dataset is
//! fixed by its scale factor. `--seed` draws what varies between two runs
//! of a real driver: which members of each parameter class are requested,
//! in which order, which triples a write batch touches, and which domain
//! sample a curation round profiles. Were the store drawn from the seed
//! too, the parameter classes themselves (their cost bands, their sizes)
//! would change from run to run, and two runs would not measure the same
//! thing.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use parambench_datagen::{Bsbm, BsbmConfig, Snb, SnbConfig};
use parambench_rdf::{Dataset, StoreBuilder};

use crate::cli::Size;

/// Approximate triples of the default store (the repository's standard
/// experiment scale) and of the smoke store.
pub fn scale(size: Size) -> usize {
    match size {
        Size::Full => 150_000,
        Size::Smoke => 15_000,
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Named timing samples collected outside the timed section.
#[derive(Debug, Default, Clone)]
pub struct LayerLog(pub BTreeMap<&'static str, Vec<f64>>);

impl LayerLog {
    /// Records one sample.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Runs `f`, recording its wall time in milliseconds under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms_since(t));
        out
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `name` (0 when there are none).
    pub fn median(&self, name: &str) -> f64 {
        crate::metrics::median(self.get(name))
    }
}

/// A builder holding every visible triple of `ds` (frozen, it is the
/// from-scratch store an updated one must agree with).
pub fn rebuild(ds: &Dataset) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for [s, p, o] in ds.scan([None, None, None]) {
        b.insert(ds.decode(s).clone(), ds.decode(p).clone(), ds.decode(o).clone());
    }
    b
}

/// Generates the BSBM store at `triples` (timed as `gen_ms`).
pub fn bsbm(triples: usize, log: &mut LayerLog) -> Bsbm {
    let data = log.time("gen_ms", || Bsbm::generate(BsbmConfig::with_scale(triples)));
    log.add("gen_triples", data.dataset.len() as f64);
    data
}

/// Generates the SNB store at `triples` (timed as `gen_snb_ms`).
pub fn snb(triples: usize, log: &mut LayerLog) -> Snb {
    log.time("gen_snb_ms", || Snb::generate(SnbConfig::with_scale(triples)))
}

/// Saves `ds` to `path` (timed as `save_ms`) and records the snapshot's
/// bytes per triple.
pub fn save(ds: &Dataset, path: &Path, log: &mut LayerLog) -> Result<(), String> {
    log.time("save_ms", || ds.save(path)).map_err(|e| format!("save {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    log.add("snapshot_bytes_per_triple", bytes as f64 / ds.len().max(1) as f64);
    Ok(())
}

/// Loads the snapshot at `path` (timed as `load_ms`).
pub fn load(path: &Path, log: &mut LayerLog) -> Result<Dataset, String> {
    log.time("load_ms", || Dataset::load(path)).map_err(|e| format!("load {}: {e}", path.display()))
}
