//! A counting, timing [`Vfs`] over the real filesystem.
//!
//! It is how the benchmark sees the storage layer from outside: every call
//! the engine makes to write, append or fsync is counted and timed here,
//! and the length each file had at its last fsync is remembered so that
//! [`CountFs::crash`] can discard exactly the bytes a power cut would.
//! (Killing a process keeps the operating system's cache, so a benchmark
//! that only kills never loses an unflushed byte.)

use mammoth_storage::{RealFs, Vfs};
use mammoth_types::Result;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Monotonic counters; subtract two snapshots to get a phase's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    /// `write_file` calls (checkpoint files, WAL headers, `CURRENT`).
    pub writes: u64,
    pub write_bytes: u64,
    /// File and directory fsyncs.
    pub syncs: u64,
    pub sync_ns: u64,
}

impl FsCounts {
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FileLen {
    len: u64,
    synced: u64,
}

#[derive(Default)]
struct State {
    counts: FsCounts,
    /// Ordered so a directory's files are one contiguous key range.
    files: BTreeMap<PathBuf, FileLen>,
}

#[derive(Default)]
pub struct CountFs {
    inner: RealFs,
    state: Mutex<State>,
}

impl CountFs {
    pub fn new() -> CountFs {
        CountFs::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no CountFs critical section can panic")
    }

    pub fn counts(&self) -> FsCounts {
        self.state().counts
    }

    /// Simulate a power cut: cut every file this Vfs wrote back to the
    /// length it had when it was last fsynced. Renames are taken as
    /// durable once made, which the engine ensures by syncing the
    /// directory. Returns the number of bytes discarded.
    pub fn crash(&self) -> std::io::Result<u64> {
        let mut lost = 0;
        for (path, f) in self.state().files.iter_mut() {
            if f.len > f.synced && path.exists() {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(f.synced)?;
                lost += f.len - f.synced;
                f.len = f.synced;
            }
        }
        Ok(lost)
    }

    fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_nanos() as u64)
    }
}

impl Vfs for CountFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.inner.write_file(path, bytes)?;
        let mut s = self.state();
        s.counts.writes += 1;
        s.counts.write_bytes += bytes.len() as u64;
        s.files.insert(
            path.to_path_buf(),
            FileLen {
                len: bytes.len() as u64,
                synced: 0,
            },
        );
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let (res, ns) = CountFs::timed(|| self.inner.append(path, bytes));
        res?;
        let mut s = self.state();
        s.counts.appends += 1;
        s.counts.append_bytes += bytes.len() as u64;
        s.counts.append_ns += ns;
        s.files.entry(path.to_path_buf()).or_default().len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<()> {
        let (res, ns) = CountFs::timed(|| self.inner.sync(path));
        res?;
        let mut s = self.state();
        s.counts.syncs += 1;
        s.counts.sync_ns += ns;
        if let Some(f) = s.files.get_mut(path) {
            f.synced = f.len;
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)?;
        let mut s = self.state();
        let moved: Vec<PathBuf> = s
            .files
            .keys()
            .filter(|p| p.starts_with(from))
            .cloned()
            .collect();
        for old in moved {
            let f = s.files.remove(&old).expect("key was just listed");
            let rest = old.strip_prefix(from).expect("filtered on this prefix");
            let new = if rest.as_os_str().is_empty() {
                to.to_path_buf()
            } else {
                to.join(rest)
            };
            s.files.insert(new, f);
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.inner.remove_file(path)?;
        self.state().files.remove(path);
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.remove_dir_all(path)?;
        self.state().files.retain(|p, _| !p.starts_with(path));
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        let (res, ns) = CountFs::timed(|| self.inner.sync_dir(path));
        res?;
        let mut s = self.state();
        s.counts.syncs += 1;
        s.counts.sync_ns += ns;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_cuts_files_back_to_their_last_fsync() {
        let dir = crate::out_dir().join(format!("countfs-test-{}", std::process::id()));
        let fs = CountFs::new();
        fs.create_dir_all(&dir).unwrap();
        let (log, tmp) = (dir.join("log"), dir.join("snap.tmp"));
        fs.append(&log, b"durable").unwrap();
        fs.sync(&log).unwrap();
        fs.append(&log, b"-lost").unwrap();
        fs.write_file(&tmp, b"never synced").unwrap();
        fs.rename(&tmp, &dir.join("snap")).unwrap();
        let c = fs.counts();
        assert_eq!(
            (c.appends, c.append_bytes, c.writes, c.write_bytes, c.syncs),
            (2, 12, 1, 12, 1)
        );
        assert_eq!(fs.crash().unwrap(), 5 + 12);
        assert_eq!(std::fs::read(&log).unwrap(), b"durable");
        assert_eq!(std::fs::read(dir.join("snap")).unwrap(), b"");
        assert_eq!(fs.crash().unwrap(), 0, "a second crash loses nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
