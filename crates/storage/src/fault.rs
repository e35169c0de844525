//! The virtual file system and deterministic fault injection.
//!
//! Every durability-critical file operation — WAL appends, checkpoint
//! writes, renames, fsyncs — goes through the [`Vfs`] trait instead of
//! `std::fs` directly. Production uses [`RealFs`]; the crash-matrix tests
//! use [`FaultFs`], which wraps a real filesystem with a *scripted fault
//! schedule*: fail the nth mutating operation, write only the first `k`
//! bytes of it (a torn write), or complete it and then "crash". After the
//! injected fault, every further mutating operation fails — the process is
//! considered dead — so a test can reopen the directory and assert what
//! recovery reconstructs from exactly the bytes that made it to disk.
//!
//! Simplification (documented in docs/durability.md): the injector models
//! torn and failed writes but not loss of *unsynced* page-cache data — an
//! operation that completed is on "disk". The write ordering the WAL and
//! checkpoint protocols rely on is therefore exercised, while sync-versus-
//! write reordering is not.

use mammoth_types::{Error, Result};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The file operations the durability layer needs, in injectable form.
///
/// Mutating operations (everything except `read`, `exists`, `read_dir`)
/// count against a [`FaultFs`] schedule.
pub trait Vfs: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Create-or-truncate `path` with `bytes` (no implicit fsync).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Append `bytes` to `path`, creating it if missing (no implicit fsync).
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// fsync a file's contents and metadata.
    fn sync(&self, path: &Path) -> Result<()>;
    /// Atomically rename `from` to `to` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Remove one file; missing files are not an error.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Remove a directory tree; missing directories are not an error.
    fn remove_dir_all(&self, path: &Path) -> Result<()>;
    /// fsync a directory (making renames/creates within it durable).
    fn sync_dir(&self, path: &Path) -> Result<()>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Entries of a directory (empty when the directory is missing).
    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>>;
}

/// The production [`Vfs`]: plain `std::fs` with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(fs::read(path)?)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.flush()?;
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<()> {
        fs::OpenOptions::new().read(true).open(path)?.sync_all()?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        Ok(fs::rename(from, to)?)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        Ok(fs::create_dir_all(path)?)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        match fs::remove_dir_all(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        // Directory fsync is how rename durability is guaranteed on POSIX;
        // opening a directory read-only and calling sync works on Linux.
        // Platforms where it fails get best-effort semantics.
        if let Ok(d) = fs::File::open(path) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        match fs::read_dir(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
            Ok(rd) => {
                for e in rd {
                    out.push(e?.path());
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// What happens when the scheduled operation number is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with no on-disk effect; the process is dead.
    Fail,
    /// A write/append puts only the first `k` bytes on disk, then fails
    /// (a torn write). Non-write operations degrade to [`FaultKind::Fail`].
    ShortWrite(usize),
    /// The operation completes normally; every *subsequent* operation
    /// fails (crash immediately after).
    CrashAfter,
}

/// A scripted fault: trigger [`FaultKind`] on mutating operation `at_op`
/// (0-based). `at_op == u64::MAX` never fires, which turns [`FaultFs`]
/// into a pure operation counter.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub at_op: u64,
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A plan that never fires (operation counting only).
    pub fn none() -> FaultPlan {
        FaultPlan {
            at_op: u64::MAX,
            kind: FaultKind::Fail,
        }
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    crashed: bool,
    /// Description of the op the fault fired on (for diagnostics).
    fired_on: Option<String>,
}

/// A [`Vfs`] delegating to [`RealFs`] under a deterministic fault schedule.
pub struct FaultFs {
    inner: RealFs,
    ops: AtomicU64,
    state: Mutex<FaultState>,
}

impl FaultFs {
    pub fn new(plan: FaultPlan) -> FaultFs {
        FaultFs {
            inner: RealFs,
            ops: AtomicU64::new(0),
            state: Mutex::new(FaultState {
                plan,
                crashed: false,
                fired_on: None,
            }),
        }
    }

    /// Mutating operations issued so far (including the faulted one).
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Description of the operation the fault fired on, if it fired.
    pub fn fired_on(&self) -> Option<String> {
        self.state.lock().unwrap().fired_on.clone()
    }

    /// Die now, whatever the plan says: every later mutating op fails.
    pub fn crash_now(&self) {
        let mut st = self.state.lock().unwrap();
        st.crashed = true;
        st.fired_on.get_or_insert_with(|| "crash_now".into());
    }

    fn injected(&self, what: &str) -> Error {
        Error::Io(format!("injected fault: {what}"))
    }

    /// Gatekeeper for each mutating op. Returns `Ok(short_write_limit)`:
    /// `None` = run normally, `Some(k)` = write only `k` bytes then die.
    fn admit(&self, what: &str) -> Result<Option<usize>> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(self.injected(&format!("process dead before op {n} ({what})")));
        }
        if n != st.plan.at_op {
            return Ok(None);
        }
        st.fired_on = Some(format!("op {n}: {what}"));
        st.crashed = true; // every later op fails
        match st.plan.kind {
            FaultKind::Fail => Err(self.injected(&format!("op {n} failed ({what})"))),
            FaultKind::ShortWrite(k) => Ok(Some(k)),
            FaultKind::CrashAfter => Ok(None), // this one still runs
        }
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.admit(&format!("write_file {}", path.display()))? {
            None => self.inner.write_file(path, bytes),
            Some(k) => {
                let k = k.min(bytes.len());
                self.inner.write_file(path, &bytes[..k])?;
                Err(self.injected(&format!(
                    "short write {}/{} bytes to {}",
                    k,
                    bytes.len(),
                    path.display()
                )))
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.admit(&format!("append {}", path.display()))? {
            None => self.inner.append(path, bytes),
            Some(k) => {
                let k = k.min(bytes.len());
                self.inner.append(path, &bytes[..k])?;
                Err(self.injected(&format!(
                    "short append {}/{} bytes to {}",
                    k,
                    bytes.len(),
                    path.display()
                )))
            }
        }
    }

    fn sync(&self, path: &Path) -> Result<()> {
        match self.admit(&format!("sync {}", path.display()))? {
            None => self.inner.sync(path),
            Some(_) => Err(self.injected(&format!("sync {} failed", path.display()))),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        match self.admit(&format!("rename {} -> {}", from.display(), to.display()))? {
            None => self.inner.rename(from, to),
            // rename is atomic: a "torn" rename simply does not happen
            Some(_) => Err(self.injected("rename failed")),
        }
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        match self.admit(&format!("create_dir_all {}", path.display()))? {
            None => self.inner.create_dir_all(path),
            Some(_) => Err(self.injected("create_dir_all failed")),
        }
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match self.admit(&format!("remove_file {}", path.display()))? {
            None => self.inner.remove_file(path),
            Some(_) => Err(self.injected("remove_file failed")),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        match self.admit(&format!("remove_dir_all {}", path.display()))? {
            None => self.inner.remove_dir_all(path),
            Some(_) => Err(self.injected("remove_dir_all failed")),
        }
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        match self.admit(&format!("sync_dir {}", path.display()))? {
            None => self.inner.sync_dir(path),
            Some(_) => Err(self.injected("sync_dir failed")),
        }
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

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mammoth-fault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn realfs_roundtrip() {
        let d = tmp("real");
        let fs = RealFs;
        let p = d.join("x");
        fs.write_file(&p, b"ab").unwrap();
        fs.append(&p, b"cd").unwrap();
        fs.sync(&p).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"abcd");
        assert!(fs.exists(&p));
        let q = d.join("y");
        fs.rename(&p, &q).unwrap();
        assert!(!fs.exists(&p));
        assert_eq!(fs.read_dir(&d).unwrap(), vec![q.clone()]);
        fs.remove_file(&q).unwrap();
        fs.remove_file(&q).unwrap(); // idempotent
        fs.remove_dir_all(&d).unwrap();
        assert_eq!(fs.read_dir(&d).unwrap(), Vec::<PathBuf>::new());
    }

    #[test]
    fn fault_counts_ops() {
        let d = tmp("count");
        let fs = FaultFs::new(FaultPlan::none());
        fs.write_file(&d.join("a"), b"1").unwrap();
        fs.append(&d.join("a"), b"2").unwrap();
        fs.sync(&d.join("a")).unwrap();
        assert_eq!(fs.op_count(), 3);
        assert!(fs.fired_on().is_none());
        fs.crash_now();
        assert!(fs.sync(&d.join("a")).is_err(), "dead once crashed");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fail_op_kills_everything_after() {
        let d = tmp("fail");
        let fs = FaultFs::new(FaultPlan {
            at_op: 1,
            kind: FaultKind::Fail,
        });
        fs.write_file(&d.join("a"), b"1").unwrap();
        let e = fs.write_file(&d.join("b"), b"2").unwrap_err();
        assert!(e.to_string().contains("injected"), "{e}");
        assert!(!fs.exists(&d.join("b")), "no on-disk effect on Fail");
        // everything after the fault fails too
        assert!(fs.sync(&d.join("a")).is_err());
        assert!(fs.fired_on().unwrap().contains("op 1"));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn short_write_tears() {
        let d = tmp("short");
        let fs = FaultFs::new(FaultPlan {
            at_op: 0,
            kind: FaultKind::ShortWrite(3),
        });
        assert!(fs.append(&d.join("w"), b"abcdef").is_err());
        assert_eq!(RealFs.read(&d.join("w")).unwrap(), b"abc");
        assert!(fs.append(&d.join("w"), b"gh").is_err(), "dead after fault");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_after_completes_the_op() {
        let d = tmp("after");
        let fs = FaultFs::new(FaultPlan {
            at_op: 0,
            kind: FaultKind::CrashAfter,
        });
        fs.write_file(&d.join("a"), b"whole").unwrap();
        assert_eq!(RealFs.read(&d.join("a")).unwrap(), b"whole");
        assert!(fs.write_file(&d.join("b"), b"x").is_err());
        let _ = fs::remove_dir_all(&d);
    }
}
