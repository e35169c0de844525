//! The virtual file system, an in-memory disk that can lose power, and
//! deterministic fault injection.
//!
//! Every durability-critical file operation — WAL appends, checkpoint
//! writes, renames, fsyncs — goes through the [`Vfs`] trait instead of
//! `std::fs` directly. Production uses [`RealFs`]. The crash tests run the
//! engine on [`MemFs`], a disk that forgets what was never synced, under a
//! [`FaultFs`] schedule: fail the nth mutating operation, or complete it
//! and then "crash". After the fault every further mutating operation
//! fails — the process is dead — and a test recovers twice: from the disk
//! as the process left it (the page cache survived), and from
//! [`MemFs::crash`], one state the disk may be in after a power loss.
//!
//! ## The crash model
//!
//! Every [`MemFs`] file and directory has a durable state, as of its last
//! `sync` / `sync_dir`, and a volatile one. (`sync` and `sync_dir` are one
//! fsync: either settles a file's bytes or a directory's entries.)
//!
//! * **Files.** `write_file` and `append` change only the volatile bytes.
//!   `sync(path)` makes the file's bytes durable, but not its directory
//!   entry. A crash keeps the durable bytes plus a seeded prefix of the
//!   writes made since; the last write kept may be cut to a byte prefix,
//!   which is the torn tail.
//! * **Directories.** A directory records its creates (a first write to a
//!   missing path, or `create_dir_all`), renames and unlinks since its
//!   last `sync_dir`, in order, and a crash keeps a seeded prefix of that
//!   list. This is the strict POSIX reading: a rename, or a new file's
//!   entry, is durable only after `sync_dir` of its directory.
//! * **Renames stay in one directory.** Every rename the engine makes
//!   does; `MemFs` refuses one across directories rather than model it.
//! * **Reads see the volatile view**: `read`, `exists` and `read_dir`.
//! * **One seeded RNG.** [`MemFs::crash`] is deterministic in its seed and
//!   draws from `mammoth_types::retry::splitmix_next`.
//!
//! Each file and each directory is cut on its own: the model keeps order
//! within one file or one directory, not across them. The root directory
//! is the disk itself: it always exists, and its entries follow the rules
//! above.

use mammoth_types::retry::splitmix_next;
use mammoth_types::{Error, Result};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// Make the directory entry of `path` durable: fsync the directory that
/// holds it. A bare relative name's entry lives in `.` (`Path::parent`
/// gives `""` there); `/` has no entry.
pub(crate) fn sync_entry(fs: &dyn Vfs, path: &Path) -> Result<()> {
    match path.parent() {
        Some(dir) if dir.as_os_str().is_empty() => fs.sync_dir(Path::new(".")),
        Some(dir) => fs.sync_dir(dir),
        None => Ok(()),
    }
}

/// Create directory `dir` and its missing ancestors, and make the entry of
/// each one it creates durable, up to the first ancestor that already
/// existed: one `sync_dir` in the usual case, none when `dir` exists.
pub fn create_dir_durable(fs: &dyn Vfs, dir: &Path) -> Result<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !fs.exists(d))
        .collect();
    fs.create_dir_all(dir)?;
    missing.iter().rev().try_for_each(|d| sync_entry(fs, d))
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

/// A state as of its last fsync (`durable`), the changes made since, in
/// order, and the state they lead to (`now`): a [`MemFs`] file's bytes or
/// a directory's entries.
struct Logged<S, C> {
    now: S,
    durable: S,
    log: Vec<C>,
}

/// One change a [`Logged`] state records.
trait Change<S> {
    fn apply(&self, state: &mut S);
}

impl<S: Clone, C: Change<S>> Logged<S, C> {
    fn settled(state: S) -> Self {
        Logged {
            durable: state.clone(),
            now: state,
            log: Vec::new(),
        }
    }

    fn change(&mut self, c: C) {
        c.apply(&mut self.now);
        self.log.push(c);
    }

    /// The fsync: the volatile state becomes the durable one.
    fn settle(&mut self) {
        self.durable.clone_from(&self.now);
        self.log.clear();
    }

    /// What a power loss leaves: the durable state plus a seeded prefix
    /// of the log, the last change kept passed through `cut`.
    fn survive(&self, rng: &mut u64, cut: impl FnOnce(&C, &mut u64) -> C) -> S {
        let mut state = self.durable.clone();
        if let Some((last, kept)) = self.log[..draw(rng, self.log.len() + 1)].split_last() {
            kept.iter().for_each(|c| c.apply(&mut state));
            cut(last, rng).apply(&mut state);
        }
        state
    }
}

fn draw(rng: &mut u64, n: usize) -> usize {
    (splitmix_next(rng) % n as u64) as usize
}

/// One write to a [`MemFs`] file: the file becomes its first `at` bytes
/// followed by `bytes` (`at` is 0 for `write_file`, the length for
/// `append`).
struct FileWrite {
    at: usize,
    bytes: Vec<u8>,
}

impl Change<Vec<u8>> for FileWrite {
    fn apply(&self, file: &mut Vec<u8>) {
        file.truncate(self.at);
        file.extend_from_slice(&self.bytes);
    }
}

/// One change to a [`MemFs`] directory's entries.
#[derive(Clone)]
enum DirOp {
    Link(String, usize),
    Unlink(String),
    Rename(String, String),
}

impl Change<BTreeMap<String, usize>> for DirOp {
    fn apply(&self, entries: &mut BTreeMap<String, usize>) {
        match self {
            DirOp::Link(name, id) => {
                entries.insert(name.clone(), *id);
            }
            DirOp::Unlink(name) => {
                entries.remove(name);
            }
            DirOp::Rename(from, to) => {
                if let Some(id) = entries.remove(from) {
                    entries.insert(to.clone(), id);
                }
            }
        }
    }
}

enum Node {
    File(Logged<Vec<u8>, FileWrite>),
    Dir(Logged<BTreeMap<String, usize>, DirOp>),
}

/// An in-memory [`Vfs`] that forgets what was never synced; the model is
/// in the module doc. Its nodes live in one arena — node 0 is the root —
/// and an unlinked node stays there, since a crash may bring its entry
/// back.
pub struct MemFs {
    nodes: Mutex<Vec<Node>>,
}

impl Default for MemFs {
    fn default() -> MemFs {
        MemFs {
            nodes: Mutex::new(vec![Node::Dir(Logged::settled(BTreeMap::new()))]),
        }
    }
}

fn io(path: &Path, what: &str) -> Error {
    Error::Io(format!("{}: {what}", path.display()))
}

/// The names along `path`, from the root.
fn names(path: &Path) -> Result<Vec<&str>> {
    let mut out = Vec::new();
    for c in path.components() {
        match c {
            Component::Normal(n) => out.push(n.to_str().ok_or_else(|| io(path, "not utf8"))?),
            Component::RootDir | Component::CurDir => {}
            _ => return Err(io(path, "unsupported path")),
        }
    }
    Ok(out)
}

fn child(nodes: &[Node], dir: usize, name: &str) -> Option<usize> {
    match &nodes[dir] {
        Node::Dir(d) => d.now.get(name).copied(),
        Node::File(_) => None,
    }
}

fn walk(nodes: &[Node], names: &[&str]) -> Option<usize> {
    names.iter().try_fold(0, |at, name| child(nodes, at, name))
}

fn lookup(nodes: &[Node], path: &Path) -> Result<Option<usize>> {
    Ok(walk(nodes, &names(path)?))
}

/// The directory holding `path`, and `path`'s name in it.
fn parent(nodes: &[Node], path: &Path) -> Result<(usize, String)> {
    let names = names(path)?;
    let (name, up) = names.split_last().ok_or_else(|| io(path, "is the root"))?;
    match walk(nodes, up) {
        Some(d) if matches!(nodes[d], Node::Dir(_)) => Ok((d, name.to_string())),
        _ => Err(io(path, "no such directory")),
    }
}

/// Add `node` to the arena and link it into directory `dir` as `name`.
fn link(nodes: &mut Vec<Node>, dir: usize, name: String, node: Node) -> usize {
    let id = nodes.len();
    nodes.push(node);
    if let Node::Dir(d) = &mut nodes[dir] {
        d.change(DirOp::Link(name, id));
    }
    id
}

/// Append to `out` what a power loss leaves of node `id` — and, for a
/// directory, of the nodes its surviving entries name — and return its
/// place there.
fn survive(nodes: &[Node], id: usize, rng: &mut u64, out: &mut Vec<Node>) -> usize {
    let at = out.len();
    out.push(Node::File(Logged::settled(Vec::new()))); // keeps the root at 0
    out[at] = match &nodes[id] {
        Node::File(f) => Node::File(Logged::settled(f.survive(rng, |w, rng| {
            // the torn tail: half the time the last write kept is cut
            let cut = match draw(rng, 2) {
                0 => draw(rng, w.bytes.len().max(1)),
                _ => w.bytes.len(),
            };
            FileWrite {
                at: w.at,
                bytes: w.bytes[..cut].to_vec(),
            }
        }))),
        Node::Dir(d) => {
            let mut entries = d.survive(rng, |op, _| op.clone());
            for id in entries.values_mut() {
                *id = survive(nodes, *id, rng, out);
            }
            Node::Dir(Logged::settled(entries))
        }
    };
    at
}

impl MemFs {
    fn nodes(&self) -> std::sync::MutexGuard<'_, Vec<Node>> {
        self.nodes
            .lock()
            .expect("a thread panicked holding the MemFs")
    }

    /// One state a power loss now may leave the disk in: a new disk,
    /// wholly durable, the same for the same `seed`.
    pub fn crash(&self, seed: u64) -> MemFs {
        let nodes = self.nodes();
        let mut out = Vec::new();
        survive(&nodes, 0, &mut { seed }, &mut out);
        MemFs {
            nodes: Mutex::new(out),
        }
    }

    /// `write_file` (`append` false) or `append` (true).
    fn write(&self, path: &Path, bytes: &[u8], append: bool) -> Result<()> {
        let nodes = &mut *self.nodes();
        let id = match lookup(nodes, path)? {
            Some(id) => id,
            None => {
                let (dir, name) = parent(nodes, path)?;
                link(nodes, dir, name, Node::File(Logged::settled(Vec::new())))
            }
        };
        let Node::File(f) = &mut nodes[id] else {
            return Err(io(path, "is a directory"));
        };
        let at = if append { f.now.len() } else { 0 };
        f.change(FileWrite {
            at,
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    /// `remove_file` and `remove_dir_all`: a missing path is not an error.
    fn unlink(&self, path: &Path) -> Result<()> {
        let nodes = &mut *self.nodes();
        if let Ok((dir, name)) = parent(nodes, path) {
            if let (Some(_), Node::Dir(d)) = (child(nodes, dir, &name), &mut nodes[dir]) {
                d.change(DirOp::Unlink(name));
            }
        }
        Ok(())
    }

    /// `sync` and `sync_dir`; `Ok(false)` when `path` is missing.
    fn settle(&self, path: &Path) -> Result<bool> {
        let nodes = &mut *self.nodes();
        let id = lookup(nodes, path)?;
        match id.map(|id| &mut nodes[id]) {
            Some(Node::File(f)) => f.settle(),
            Some(Node::Dir(d)) => d.settle(),
            None => {}
        }
        Ok(id.is_some())
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let nodes = self.nodes();
        match lookup(&nodes, path)?.map(|id| &nodes[id]) {
            Some(Node::File(f)) => Ok(f.now.clone()),
            _ => Err(io(path, "no such file")),
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.write(path, bytes, false)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.write(path, bytes, true)
    }

    fn sync(&self, path: &Path) -> Result<()> {
        match self.settle(path)? {
            true => Ok(()),
            false => Err(io(path, "no such file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let nodes = &mut *self.nodes();
        let ((dir, a), (to_dir, b)) = (parent(nodes, from)?, parent(nodes, to)?);
        if dir != to_dir {
            return Err(io(from, "a rename across directories is not modelled"));
        }
        let (Some(_), Node::Dir(d)) = (child(nodes, dir, &a), &mut nodes[dir]) else {
            return Err(io(from, "no such file"));
        };
        d.change(DirOp::Rename(a, b));
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let nodes = &mut *self.nodes();
        let mut at = 0;
        for name in names(path)? {
            at = match child(nodes, at, name) {
                Some(id) if matches!(nodes[id], Node::Dir(_)) => id,
                Some(_) => return Err(io(path, "not a directory")),
                None => link(
                    nodes,
                    at,
                    name.into(),
                    Node::Dir(Logged::settled(BTreeMap::new())),
                ),
            };
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.unlink(path)
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.unlink(path)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.settle(path).map(|_| ())
    }

    fn exists(&self, path: &Path) -> bool {
        let nodes = self.nodes();
        matches!(lookup(&nodes, path), Ok(Some(_)))
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        let nodes = self.nodes();
        match lookup(&nodes, path)?.map(|id| &nodes[id]) {
            None => Ok(Vec::new()),
            Some(Node::Dir(d)) => Ok(d.now.keys().map(|n| path.join(n)).collect()),
            Some(Node::File(_)) => Err(io(path, "not a directory")),
        }
    }
}

/// What happens when the scheduled operation number is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with no effect; the process is dead.
    Fail,
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

/// A [`Vfs`] delegating to another under a deterministic fault schedule.
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    ops: AtomicU64,
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// `inner` under `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> FaultFs {
        FaultFs {
            inner,
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

    /// Gatekeeper for each mutating op: `Ok` lets it through to `inner`.
    fn admit(&self, op: &str, path: &Path) -> Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        let injected =
            |what: &str| Error::Io(format!("injected fault: {what} ({op} {})", path.display()));
        if st.crashed {
            return Err(injected(&format!("process dead before op {n}")));
        }
        if n != st.plan.at_op {
            return Ok(());
        }
        st.fired_on = Some(format!("op {n}: {op} {}", path.display()));
        st.crashed = true; // every later op fails
        match st.plan.kind {
            FaultKind::Fail => Err(injected(&format!("op {n} failed"))),
            FaultKind::CrashAfter => Ok(()), // this one still runs
        }
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.admit("write_file", path)?;
        self.inner.write_file(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.admit("append", path)?;
        self.inner.append(path, bytes)
    }

    fn sync(&self, path: &Path) -> Result<()> {
        self.admit("sync", path)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.admit("rename", from)?;
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.admit("create_dir_all", path)?;
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.admit("remove_file", path)?;
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.admit("remove_dir_all", path)?;
        self.inner.remove_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.admit("sync_dir", path)?;
        self.inner.sync_dir(path)
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
    use std::collections::BTreeSet;

    const SEEDS: std::ops::Range<u64> = 0..64;

    fn p(s: &str) -> &Path {
        Path::new(s)
    }

    /// Every file of `fs` with its bytes, for comparing two disks.
    fn image(fs: &MemFs, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for e in fs.read_dir(dir).unwrap() {
            match fs.read(&e) {
                Ok(bytes) => out.push((e, bytes)),
                Err(_) => image(fs, &e, out),
            }
        }
    }

    /// A store directory `/d` that is itself durable.
    fn disk() -> Arc<MemFs> {
        let fs = Arc::new(MemFs::default());
        fs.create_dir_all(p("/d")).unwrap();
        fs.sync_dir(p("/")).unwrap();
        fs
    }

    #[test]
    fn realfs_roundtrip() {
        let d = std::env::temp_dir().join(format!("mammoth-fault-real-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
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
    fn memfs_reads_the_volatile_view() {
        let fs = disk();
        fs.write_file(p("/d/x"), b"ab").unwrap();
        fs.append(p("/d/x"), b"cd").unwrap();
        assert_eq!(fs.read(p("/d/x")).unwrap(), b"abcd");
        fs.rename(p("/d/x"), p("/d/y")).unwrap();
        assert!(!fs.exists(p("/d/x")));
        assert_eq!(fs.read_dir(p("/d")).unwrap(), vec![PathBuf::from("/d/y")]);
        fs.create_dir_all(p("/e")).unwrap();
        assert!(
            fs.rename(p("/d/y"), p("/e/y")).is_err(),
            "across directories"
        );
        fs.remove_file(p("/d/y")).unwrap();
        fs.remove_file(p("/d/y")).unwrap(); // idempotent
        assert!(fs.read(p("/d/y")).is_err());
        assert!(fs.sync(p("/d/y")).is_err());
        assert!(fs.write_file(p("/nowhere/z"), b"1").is_err());
        fs.remove_dir_all(p("/d")).unwrap();
        assert_eq!(fs.read_dir(p("/d")).unwrap(), Vec::<PathBuf>::new());
    }

    #[test]
    fn synced_bytes_survive_every_crash() {
        let fs = disk();
        fs.write_file(p("/d/x"), b"ab").unwrap();
        fs.append(p("/d/x"), b"cd").unwrap();
        fs.sync(p("/d/x")).unwrap();
        fs.sync_dir(p("/d")).unwrap();
        for seed in SEEDS {
            assert_eq!(
                fs.crash(seed).read(p("/d/x")).unwrap(),
                b"abcd",
                "seed {seed}"
            );
        }
    }

    /// A completed but unsynced append is what a torn write was: across
    /// crash seeds it survives whole, cut, or not at all, always as a
    /// prefix of itself.
    #[test]
    fn an_unsynced_append_survives_as_a_prefix() {
        let fs = disk();
        fs.write_file(p("/d/w"), b"abc").unwrap();
        fs.sync(p("/d/w")).unwrap();
        fs.sync_dir(p("/d")).unwrap();
        let faulty = FaultFs::new(
            fs.clone(),
            FaultPlan {
                at_op: 0,
                kind: FaultKind::CrashAfter,
            },
        );
        faulty.append(p("/d/w"), b"defgh").unwrap();
        assert!(faulty.sync(p("/d/w")).is_err(), "dead after the append");
        let lens: BTreeSet<usize> = SEEDS
            .map(|seed| {
                let got = fs.crash(seed).read(p("/d/w")).unwrap();
                assert!(
                    b"abcdefgh".starts_with(&got) && got.len() >= 3,
                    "seed {seed}"
                );
                got.len()
            })
            .collect();
        assert!(lens.contains(&8), "the whole append survives: {lens:?}");
        assert!(
            lens.iter().any(|n| (4..8).contains(n)),
            "a torn tail: {lens:?}"
        );
    }

    #[test]
    fn a_create_needs_its_directory_synced() {
        let fs = disk();
        fs.write_file(p("/d/new"), b"x").unwrap();
        fs.sync(p("/d/new")).unwrap();
        assert!(
            SEEDS
                .clone()
                .any(|seed| !fs.crash(seed).exists(p("/d/new"))),
            "a synced file without its directory entry can vanish"
        );
        fs.sync_dir(p("/d")).unwrap();
        for seed in SEEDS {
            assert_eq!(
                fs.crash(seed).read(p("/d/new")).unwrap(),
                b"x",
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_rename_needs_its_directory_synced() {
        let fs = disk();
        fs.write_file(p("/d/tmp"), b"new").unwrap();
        fs.sync(p("/d/tmp")).unwrap();
        fs.sync_dir(p("/d")).unwrap();
        fs.rename(p("/d/tmp"), p("/d/cur")).unwrap();
        let reverted = |fs: &MemFs| {
            SEEDS
                .clone()
                .filter(|&seed| fs.crash(seed).exists(p("/d/tmp")))
                .count()
        };
        assert!(reverted(&fs) > 0, "an unsynced rename can revert");
        fs.sync_dir(p("/d")).unwrap();
        assert_eq!(reverted(&fs), 0);
        assert_eq!(fs.crash(1).read(p("/d/cur")).unwrap(), b"new");
    }

    #[test]
    fn the_same_seed_gives_the_same_disk() {
        let fs = disk();
        for i in 0..6 {
            let f = PathBuf::from(format!("/d/f{i}"));
            fs.write_file(&f, b"0123").unwrap();
            fs.append(&f, b"4567").unwrap();
            if i % 2 == 0 {
                fs.sync(&f).unwrap();
            }
        }
        fs.rename(p("/d/f0"), p("/d/g0")).unwrap();
        let disk = |seed| {
            let mut out = Vec::new();
            image(&fs.crash(seed), p("/"), &mut out);
            out
        };
        assert_eq!(disk(7), disk(7));
        let distinct: BTreeSet<_> = SEEDS.map(disk).collect();
        assert!(distinct.len() > 1, "the seed chooses among states");
    }

    #[test]
    fn fault_counts_ops() {
        let fs = FaultFs::new(disk(), FaultPlan::none());
        fs.write_file(p("/d/a"), b"1").unwrap();
        fs.append(p("/d/a"), b"2").unwrap();
        fs.sync(p("/d/a")).unwrap();
        assert_eq!(fs.op_count(), 3);
        assert!(fs.fired_on().is_none());
        fs.crash_now();
        assert!(fs.sync(p("/d/a")).is_err(), "dead once crashed");
    }

    #[test]
    fn fail_op_kills_everything_after() {
        let fs = FaultFs::new(
            disk(),
            FaultPlan {
                at_op: 1,
                kind: FaultKind::Fail,
            },
        );
        fs.write_file(p("/d/a"), b"1").unwrap();
        let e = fs.write_file(p("/d/b"), b"2").unwrap_err();
        assert!(e.to_string().contains("injected"), "{e}");
        assert!(!fs.exists(p("/d/b")), "no effect on Fail");
        // everything after the fault fails too
        assert!(fs.sync(p("/d/a")).is_err());
        assert!(fs.fired_on().unwrap().contains("op 1"));
    }

    #[test]
    fn crash_after_completes_the_op() {
        let mem = disk();
        let fs = FaultFs::new(
            mem.clone(),
            FaultPlan {
                at_op: 0,
                kind: FaultKind::CrashAfter,
            },
        );
        fs.write_file(p("/d/a"), b"whole").unwrap();
        assert_eq!(mem.read(p("/d/a")).unwrap(), b"whole");
        assert!(fs.write_file(p("/d/b"), b"x").is_err());
    }
}
