//! Process-wide build diagnostics.
//!
//! Tiny monotonic counters incremented by the expensive freeze-time steps
//! ([`crate::index::PermIndex::build`],
//! [`crate::dict::Dictionary::reorder_by_value`] and the two full
//! statistics computations, `compute_from_keys` in [`crate::stats`]) and by
//! the one read-side call that walks an index extent
//! ([`crate::store::Dataset::distinct_with`]). They exist so tests can
//! assert *structurally* that [`crate::store::Dataset::load`] performs no
//! rebuild work — the zero-copy contract of the snapshot path — that a
//! commit or a journal replay performs none either — the `O(delta)`
//! contract of the write path — and that planning a served request walks no
//! extent, instead of relying on timing. The counters are process-global and
//! monotonically increasing; assertions should compare deltas, not
//! absolute values.

use std::sync::atomic::{AtomicU64, Ordering};

static INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);
static DICT_REORDERS: AtomicU64 = AtomicU64::new(0);
static STATS_COMPUTES: AtomicU64 = AtomicU64::new(0);
static DISTINCT_WALKS: AtomicU64 = AtomicU64::new(0);

/// Number of [`crate::index::PermIndex::build`] calls so far in this process.
pub fn index_builds() -> u64 {
    INDEX_BUILDS.load(Ordering::Relaxed)
}

/// Number of [`crate::dict::Dictionary::reorder_by_value`] calls so far in
/// this process.
pub fn dict_reorders() -> u64 {
    DICT_REORDERS.load(Ordering::Relaxed)
}

/// Number of full `O(n)` derived-statistics computations
/// ([`crate::stats::DatasetStats::compute_from_keys`] and
/// [`crate::stats::CharacteristicSets::compute_from_keys`], one each per
/// freeze or compaction) so far in this process.
pub fn stats_computes() -> u64 {
    STATS_COMPUTES.load(Ordering::Relaxed)
}

/// Number of [`crate::store::Dataset::distinct_with`] calls — each a
/// galloping run-count over the extent of its prefix — so far in this
/// process.
pub fn distinct_walks() -> u64 {
    DISTINCT_WALKS.load(Ordering::Relaxed)
}

pub(crate) fn count_index_build() {
    INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_dict_reorder() {
    DICT_REORDERS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_stats_compute() {
    STATS_COMPUTES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_distinct_walk() {
    DISTINCT_WALKS.fetch_add(1, Ordering::Relaxed);
}
