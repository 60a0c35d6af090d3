//! The run's surroundings: the hermetic-environment check, the scratch
//! directory every file of a run lives in, and the machine description
//! printed with every result.

use std::path::{Path, PathBuf};

/// Environment variables that silently change what the library does (the
/// suite-wide stress knobs and scale overrides). A benchmark number taken
/// under any of them measures something else, so the harness refuses to
/// start while one is set.
pub const FORBIDDEN_ENV: &[&str] = &[
    "PARAMBENCH_SNAPSHOT_FREEZE",
    "PARAMBENCH_OVERLAY_STRESS",
    "PARAMBENCH_WAL",
    "PARAMBENCH_SNAPSHOT_VERIFY",
    "PARAMBENCH_SNAPSHOT_MMAP",
    "SPARQL_ORDER_EXEC",
    "SPARQL_MEM_BUDGET_ROWS",
    "PARAMBENCH_TRIPLES",
];

/// The harness's typed start-up failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartError {
    /// A stress or scale knob is set in the environment.
    NotHermetic(Vec<String>),
    /// The scratch directory cannot be created.
    Scratch(String),
    /// The command line is wrong.
    Usage(String),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NotHermetic(vars) => write!(
                f,
                "refusing to start: {} set in the environment; these knobs change what the \
                 library executes, so a number taken under them is not a benchmark result",
                vars.join(", ")
            ),
            StartError::Scratch(e) => write!(f, "cannot create the scratch directory: {e}"),
            StartError::Usage(e) => write!(f, "{e}"),
        }
    }
}

/// Checks the environment (given as an iterator so tests need not mutate
/// the process environment).
pub fn check_hermetic(vars: impl Iterator<Item = (String, String)>) -> Result<(), StartError> {
    let mut set: Vec<String> =
        vars.map(|(k, _)| k).filter(|k| FORBIDDEN_ENV.contains(&k.as_str())).collect();
    set.sort();
    if set.is_empty() {
        Ok(())
    } else {
        Err(StartError::NotHermetic(set))
    }
}

/// The benchmark package's directory: where `cargo run` says the manifest
/// is, else where it was at build time.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out`: trace files and run records land here.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// A fresh `benchmark/out/tmp-<pid>[-<tag>]`, removed when dropped. Every
/// snapshot, journal and spill file of a run lives under it; `TMPDIR` is
/// pointed at it too so the library's own temporary files (spill runs)
/// stay inside the checkout.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates the run's directory under [`out_dir`]: `tmp-<pid>`, and
    /// `tmp-<pid>-<n>` for the n-th further run of the same process (the
    /// tests run several).
    pub fn create() -> Result<Self, StartError> {
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tag = if n == 0 { String::new() } else { n.to_string() };
        Self::create_in(&out_dir(), &tag)
    }

    /// Creates the directory under `base`.
    pub fn create_in(base: &Path, tag: &str) -> Result<Self, StartError> {
        let sep = if tag.is_empty() { "" } else { "-" };
        let root = base.join(format!("tmp-{}{sep}{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| StartError::Scratch(format!("{}: {e}", root.display())))?;
        Ok(Scratch { root })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh sub-directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("scratch sub-directory");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Client and worker threads a workload may use: never more than the
/// machine has, never more than four.
pub fn threads() -> usize {
    nproc().min(4)
}

/// Whether a parallel speed-up may be stated: only when the machine has a
/// second core, the query was allowed a second thread, and the pool
/// actually granted one. Otherwise `t1` and `tN` ran on one thread each and
/// their ratio says nothing about parallelism.
pub fn may_state_speedup(threads: usize, granted: u64) -> bool {
    nproc() > 1 && threads > 1 && granted > 0
}

/// `nproc`, CPU model and kernel, for the result header.
pub fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown kernel".into());
    format!("nproc {} | {cpu} | kernel {kernel}", nproc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_knobs_are_refused_by_name() {
        let env = vec![
            ("PATH".to_string(), "/bin".to_string()),
            ("PARAMBENCH_WAL".to_string(), "1".to_string()),
            ("SPARQL_ORDER_EXEC".to_string(), "force".to_string()),
        ];
        let err = check_hermetic(env.into_iter()).unwrap_err();
        assert_eq!(
            err,
            StartError::NotHermetic(vec!["PARAMBENCH_WAL".into(), "SPARQL_ORDER_EXEC".into()])
        );
        assert!(err.to_string().contains("PARAMBENCH_WAL"));
        assert!(check_hermetic(vec![("HOME".to_string(), "/".to_string())].into_iter()).is_ok());
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let base = out_dir().join("test-scratch");
        let path = {
            let s = Scratch::create_in(&base, "unit").unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
            assert!(s.sub("d").is_dir());
            s.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
