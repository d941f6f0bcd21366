//! Helpers shared by the root integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory no other test can share: its name joins the test's
/// tag, the process id and a process-wide counter, so tests running in
/// parallel in one harness process (or in concurrent processes) never
/// collide. Dropping it removes the directory and everything in it — the
/// WAL, its snapshot generations and every sidecar.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join("tprov-tests")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// The database (WAL) path inside the directory.
    pub fn db(&self) -> PathBuf {
        self.0.join("db.wal")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
