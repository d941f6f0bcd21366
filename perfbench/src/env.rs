//! The run's surroundings: private scratch directories, the machine
//! description recorded with every result, and process memory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where scratch directories live: inside the benchmark's own directory,
/// so a run reads and writes nothing outside its checkout.
pub fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp")
}

/// Where traced runs write their spans.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A directory no other workload, test or process shares: its name joins
/// the process id, a process-wide counter and the owner's name. It is
/// removed (with everything in it) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory for `name`.
    pub fn new(name: &str) -> Result<TempDir, String> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `PERFBENCH_COMMIT` if the launcher set it,
/// else `"unknown"` (a source tree need not be a git checkout).
pub fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT")
        .ok()
        .filter(|c| !c.trim().is_empty())
        .unwrap_or_else(|| "unknown".into())
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Restarts the peak-resident-set count (`VmHWM`) from the current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
/// Free heap memory left by earlier phases (building and reopening the
/// database) is first returned to the kernel: a daemon restarted on the
/// same database would not hold it, and how much of it stays resident
/// varies from run to run. Has no effect where `/proc/self/clear_refs`
/// is unavailable.
pub fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Returns the heap memory the allocator holds free to the kernel.
pub fn release_free_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
