//! The replica-side applier: staging shipped bytes into a local mirror of
//! the primary's durable directory.
//!
//! The applier owns the replica's on-disk state and the streaming cursor
//! over its WAL. It is deliberately session-agnostic — it stages bytes and
//! parses committed statement groups; the caller (the [`crate::replica`]
//! puller) decides how to fold those groups into the serving session.
//!
//! Two offsets matter and they are not the same thing mid-batch:
//!
//! * [`Applier::offset`] — bytes of the WAL *on disk* (including the
//!   8-byte file header). This is what the next `Subscribe` asks from:
//!   the primary ships file bytes, so file length is the resume point.
//! * the cursor's parsed offset — whole frames consumed. A `WalChunk`
//!   boundary may split a frame (chunking is by size, not by frame), so
//!   the cursor can trail the file length within a batch; the remainder
//!   arrives with the next chunk or the next poll and the cursor catches
//!   up. At *rest* the two must agree — a resting gap is a torn tail,
//!   and [`Applier::open`] treats it as divergence.

use mammoth_server::ServerMsg;
use mammoth_storage::persist::{checkpoint_dir_name, read_current, wal_file_name, write_current};
use mammoth_storage::wal::{WalCursor, WalRecord};
use mammoth_storage::{create_dir_durable, Vfs};
use mammoth_types::{Error, Result};
use std::path::PathBuf;
use std::sync::Arc;

/// What one subscription batch did to the local state.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// The batch re-anchored: local state was wiped and re-imaged. The
    /// caller must rebuild its serving session from disk (the staged WAL
    /// chunks are part of the recovered state, so `groups` is empty).
    pub bootstrapped: bool,
    /// Committed statement groups completed by this batch's WAL chunks,
    /// ready to apply to a live session (empty after a bootstrap).
    pub groups: Vec<Vec<WalRecord>>,
    /// The primary's durable tip from the closing `CaughtUp`, as
    /// `(generation, wal_byte_length)`.
    pub tip: Option<(u64, u64)>,
}

/// Stages subscription batches into a byte-for-byte mirror of the
/// primary's durable directory.
pub struct Applier {
    fs: Arc<dyn Vfs>,
    root: PathBuf,
    gen: u64,
    /// Bytes of `wal-<gen>` on disk — the `Subscribe` resume offset.
    local_len: u64,
    cursor: WalCursor,
}

impl Applier {
    /// Open (and validate) the local mirror. Returns the applier and
    /// whether the directory had to be wiped: an undecodable record, a
    /// bad CRC, or a torn tail in the local WAL all mean the mirror can
    /// no longer be proven a prefix of the primary's history, so the
    /// divergence discipline starts it over from nothing — the next poll
    /// re-bootstraps from the primary's current image.
    pub fn open(fs: Arc<dyn Vfs>, root: impl Into<PathBuf>) -> Result<(Applier, bool)> {
        let mut a = Applier {
            fs,
            root: root.into(),
            gen: 0,
            local_len: 0,
            cursor: WalCursor::new(),
        };
        // a power loss must not take the whole mirror away
        create_dir_durable(a.fs.as_ref(), &a.root)?;
        let clean = a.resync()?;
        if !clean {
            a.reset()?;
        }
        Ok((a, !clean))
    }

    /// Generation of the local mirror.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Byte length of the local WAL file — what the next poll asks from.
    pub fn offset(&self) -> u64 {
        self.local_len
    }

    /// Rebuild cursor state from the files on disk. `Ok(true)` when the
    /// local WAL parses end to end; `Ok(false)` when it is divergent
    /// (undecodable, corrupt, or torn at rest) and must be wiped.
    pub fn resync(&mut self) -> Result<bool> {
        self.gen = read_current(self.fs.as_ref(), &self.root)?.unwrap_or(0);
        self.cursor = WalCursor::new();
        self.local_len = 0;
        let wal = self.root.join(wal_file_name(self.gen));
        if !self.fs.exists(&wal) {
            return Ok(true);
        }
        let bytes = self.fs.read(&wal)?;
        self.local_len = bytes.len() as u64;
        if self.cursor.feed(&bytes).is_err() {
            return Ok(false);
        }
        Ok(self.cursor.offset() == self.local_len)
    }

    /// Wipe every local file and forget all progress. The next
    /// `Subscribe{0, 0}` makes the primary ship a full re-anchor.
    pub fn reset(&mut self) -> Result<()> {
        self.fs.remove_dir_all(&self.root)?;
        create_dir_durable(self.fs.as_ref(), &self.root)?;
        self.gen = 0;
        self.local_len = 0;
        self.cursor = WalCursor::new();
        Ok(())
    }

    /// Append `bytes` to the local log of the current generation. The
    /// append that creates the log also syncs its directory entry, once per
    /// log, as `Wal::write_header` does; syncing the bytes is the caller's.
    pub(crate) fn append_wal(&mut self, bytes: &[u8]) -> Result<()> {
        self.fs
            .append(&self.root.join(wal_file_name(self.gen)), bytes)?;
        if self.local_len == 0 {
            self.fs.sync_dir(&self.root)?;
        }
        self.local_len += bytes.len() as u64;
        Ok(())
    }

    /// Stage one subscription batch (everything between `Subscribe` and
    /// `CaughtUp` inclusive). On error the local state must be treated as
    /// divergent: call [`Applier::reset`] and re-poll from `(0, 0)`.
    pub fn apply_batch(&mut self, batch: &[ServerMsg]) -> Result<BatchOutcome> {
        let mut out = BatchOutcome::default();
        for msg in batch {
            match msg {
                ServerMsg::CheckpointImage {
                    generation,
                    name,
                    last,
                    bytes,
                } => {
                    if !out.bootstrapped {
                        // Any image message means "re-anchor": drop what we
                        // have before staging the replacement.
                        self.reset()?;
                        out.bootstrapped = true;
                    }
                    self.gen = *generation;
                    if *generation == 0 {
                        // The empty-image marker: generation 0 has no
                        // checkpoint by construction; nothing to stage and
                        // no CURRENT to write (0 is the default).
                        continue;
                    }
                    valid_image_name(name)?;
                    let dir = self.root.join(checkpoint_dir_name(*generation));
                    self.fs.create_dir_all(&dir)?;
                    let path = dir.join(name);
                    self.fs.append(&path, bytes)?;
                    self.fs.sync(&path)?;
                    if *last {
                        // Every image file and its entry is on disk:
                        // commit the anchor.
                        self.fs.sync_dir(&dir)?;
                        write_current(self.fs.as_ref(), &self.root, *generation)?;
                    }
                }
                ServerMsg::WalChunk {
                    generation,
                    offset,
                    bytes,
                } => {
                    if *generation != self.gen || *offset != self.local_len {
                        return Err(Error::Corrupt(format!(
                            "wal chunk for generation {generation} at byte {offset} does not \
                             extend local generation {} at byte {}",
                            self.gen, self.local_len
                        )));
                    }
                    self.append_wal(bytes)?;
                    out.groups.append(&mut self.cursor.feed(bytes)?);
                }
                ServerMsg::CaughtUp { generation, offset } => {
                    out.tip = Some((*generation, *offset));
                }
                other => {
                    return Err(Error::Corrupt(format!(
                        "unexpected message in subscription batch: {other:?}"
                    )))
                }
            }
        }
        // One durability point per batch: the WAL bytes this poll staged.
        let wal = self.root.join(wal_file_name(self.gen));
        if self.fs.exists(&wal) {
            self.fs.sync(&wal)?;
        }
        if out.bootstrapped {
            // The serving session will be rebuilt by recovery, which
            // replays the staged WAL itself — returning the groups too
            // would double-apply them.
            out.groups.clear();
        }
        Ok(out)
    }
}

/// Image file names come off the wire; confine them to the checkpoint
/// directory.
fn valid_image_name(name: &str) -> Result<()> {
    if name.is_empty()
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
    {
        return Err(Error::Corrupt(format!(
            "illegal checkpoint image file name {name:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_storage::{FaultFs, FaultKind, FaultPlan, MemFs};
    use std::path::Path;

    #[test]
    fn image_names_are_confined() {
        for bad in ["", ".", "..", "a/b", "a\\b", "x\0y"] {
            assert!(valid_image_name(bad).is_err(), "{bad:?} accepted");
        }
        assert!(valid_image_name("catalog.mmth").is_ok());
    }

    #[test]
    fn relative_root_syncs_the_working_directory() {
        // op 0 creates `mirror`, op 1 syncs the directory holding its entry
        let plan = FaultPlan {
            at_op: 1,
            kind: FaultKind::Fail,
        };
        let fs = Arc::new(FaultFs::new(Arc::new(MemFs::default()), plan));
        assert!(Applier::open(fs.clone(), "mirror").is_err());
        assert_eq!(fs.fired_on().as_deref(), Some("op 1: sync_dir ."));
    }

    #[test]
    fn mismatched_chunks_are_divergence() {
        let (mut a, wiped) = Applier::open(Arc::new(MemFs::default()), "/mirror").unwrap();
        assert!(!wiped, "fresh directory is clean");
        // A chunk that does not start at our local length cannot be
        // appended — the stream no longer extends what we hold.
        let err = a
            .apply_batch(&[ServerMsg::WalChunk {
                generation: 0,
                offset: 8,
                bytes: vec![1, 2, 3],
            }])
            .unwrap_err();
        assert!(err.to_string().contains("does not extend"), "{err}");
        a.reset().unwrap();
        assert_eq!((a.generation(), a.offset()), (0, 0));
    }

    #[test]
    fn torn_local_tail_wipes_on_open() {
        let fs = Arc::new(MemFs::default());
        let wal = Path::new("/mirror").join(wal_file_name(0));
        fs.create_dir_all(Path::new("/mirror")).unwrap();
        // A header plus half a frame: valid prefix, torn at rest.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MWAL1\n");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[9, 0, 0, 0]); // claims 9 payload bytes, none follow
        fs.write_file(&wal, &bytes).unwrap();
        let (a, wiped) = Applier::open(fs.clone(), "/mirror").unwrap();
        assert!(wiped, "torn tail at rest must wipe");
        assert_eq!((a.generation(), a.offset()), (0, 0));
        assert!(!fs.exists(&wal), "wal removed");
    }
}
