//! A scratch directory that removes itself: the one helper every test
//! that touches disk uses.
//!
//! The name carries the process id and a process-wide counter, so two
//! tests in one binary that pick the same tag still get two directories,
//! and two test binaries running at once never share one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, removed (with
/// everything in it) on drop. Derefs to its [`Path`].
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<tmp>/tpc-<tag>-<pid>-<n>`, where `n` is unique within
    /// the process. Panics if the directory cannot be created: a test
    /// without its scratch space cannot run.
    pub fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tpc-{tag}-{}-{n}", std::process::id()));
        // A leftover from a crashed run with a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create temp dir {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gives_distinct_dirs_removed_on_drop() {
        let a = TempDir::new("temp-self");
        let b = TempDir::new("temp-self");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropped dir and its contents are gone");
        assert!(b.path().is_dir());
    }
}
