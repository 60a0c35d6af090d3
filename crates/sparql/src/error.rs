//! Error type for the query engine.
//!
//! All query-shape problems (parse errors, unknown variables, unsupported
//! constructs, unbound `%parameters`, invalid modifier combinations) are
//! raised at parse or prepare time; in-memory execution never fails
//! — a missing constant just yields an empty scan. This split is what lets
//! the curation pipeline probe thousands of candidate bindings cheaply
//! without running them. Execution fails only through out-of-core
//! spilling ([`crate::spill`]: a temp-dir or run-file I/O problem), and
//! that failure takes one channel: a typed [`ExecError`] returned by the
//! failing call, carried up every operator pull
//! ([`crate::physical::Operator::next_batch`]) with `?` and handed to the
//! caller as [`QueryError::Exec`]. Never a panic, and never a run that
//! looks short and clean.

use std::fmt;
use std::path::PathBuf;

/// A runtime failure of execution: out-of-core spill I/O (directory
/// creation, run-file writes/reads). Carries the operation, the path
/// involved and the rendered cause (`std::io::Error` is not `Clone`, so
/// the message is captured as text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// What the engine was doing (e.g. `"create spill dir"`).
    pub op: &'static str,
    /// The file or directory involved.
    pub path: PathBuf,
    /// The cause, rendered: the I/O error.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.message)
    }
}

impl std::error::Error for ExecError {}

/// Errors raised while parsing, planning or executing queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Query text could not be parsed.
    Parse(String),
    /// A template was planned/executed with unsubstituted parameters.
    UnboundParameter(String),
    /// A projection, order key or filter references an unknown variable.
    UnknownVariable(String),
    /// Query shape not supported by the engine (documented subset).
    Unsupported(String),
    /// Instantiation was given a binding for a parameter the template lacks,
    /// or lacked a binding for one it has.
    BindingMismatch(String),
    /// Execution failed: spill I/O (see [`ExecError`]). The run's rows and
    /// counters are not reported.
    Exec(ExecError),
    /// Two values meant to work over one dataset were built over two: the
    /// count tables passed to `Engine::measure_cout` and the engine.
    DatasetMismatch(String),
    /// Opening a persisted store snapshot failed (missing file, foreign
    /// bytes, checksum mismatch — see [`parambench_rdf::SnapshotError`]).
    Snapshot(parambench_rdf::SnapshotError),
    /// The write-ahead journal failed (append I/O, corrupt record on
    /// recovery, orphaned journal — see [`parambench_rdf::WalError`]). An
    /// update that surfaces this was **not** committed: the served store
    /// and the journal are both unchanged.
    Wal(parambench_rdf::WalError),
}

impl From<ExecError> for QueryError {
    fn from(e: ExecError) -> Self {
        QueryError::Exec(e)
    }
}

impl From<parambench_rdf::SnapshotError> for QueryError {
    fn from(e: parambench_rdf::SnapshotError) -> Self {
        QueryError::Snapshot(e)
    }
}

impl From<parambench_rdf::WalError> for QueryError {
    fn from(e: parambench_rdf::WalError) -> Self {
        QueryError::Wal(e)
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
            QueryError::UnboundParameter(p) => write!(f, "unbound parameter %{p}"),
            QueryError::UnknownVariable(v) => write!(f, "unknown variable ?{v}"),
            QueryError::Unsupported(msg) => write!(f, "unsupported query shape: {msg}"),
            QueryError::BindingMismatch(msg) => write!(f, "binding mismatch: {msg}"),
            QueryError::Exec(e) => write!(f, "execution error: {e}"),
            QueryError::DatasetMismatch(msg) => write!(f, "dataset mismatch: {msg}"),
            QueryError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            QueryError::Wal(e) => write!(f, "journal error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}
