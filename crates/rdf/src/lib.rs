//! # parambench-rdf
//!
//! The RDF substrate of the *parambench* reproduction of
//! "How to generate query parameters in RDF benchmarks?"
//! (Gubichev, Angles, Boncz — ICDE 2014).
//!
//! This crate provides an in-memory, dictionary-encoded triple store with
//! the six classical SPO-permutation indexes (Hexastore / RDF-3X layout),
//! exact pattern cardinalities in `O(log n)`, per-predicate statistics for
//! the optimizer, and a small N-Triples reader/writer.
//!
//! The store is write-once: a [`store::StoreBuilder`] accumulates triples
//! and [`store::StoreBuilder::freeze`] produces an immutable
//! [`store::Dataset`] that is cheap to share across threads.
//!
//! A frozen dataset can be persisted with [`store::Dataset::save`] and
//! reloaded with [`store::Dataset::load`], which maps the checksummed
//! snapshot file and serves scans zero-copy from the mapped bytes — no
//! dictionary reorder, no index sort, no per-triple decode (see the
//! [`snapshot`] and [`mod@format`] modules). Live updates on top of the
//! snapshot are made durable by the write-ahead journal ([`wal`]), whose
//! commit/recovery protocol is exercised under injected I/O faults via
//! the [`fault`] seam.
//!
//! ```
//! use parambench_rdf::store::StoreBuilder;
//! use parambench_rdf::term::Term;
//!
//! let mut b = StoreBuilder::new();
//! b.insert(Term::iri("http://e/alice"), Term::iri("http://e/knows"), Term::iri("http://e/bob"));
//! let ds = b.freeze();
//! let knows = ds.lookup(&Term::iri("http://e/knows")).unwrap();
//! assert_eq!(ds.count([None, Some(knows), None]), 1);
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod dict;
pub mod error;
pub mod fault;
pub mod format;
pub mod index;
pub mod ntriples;
pub mod overlay;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod term;
pub mod wal;

pub use dict::{cmp_numeric, Dictionary, Id};
pub use error::RdfError;
pub use fault::{Fault, IoOp, IoSeam};
pub use format::SnapshotError;
pub use snapshot::VerifyMode;
pub use store::{Dataset, IdPattern, Probe, ProbeHint, StoreBuilder};
pub use term::{Literal, LiteralKind, Term};
pub use wal::{LoggedOp, Wal, WalError, WalRecord};
