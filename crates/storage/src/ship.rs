//! The primary side of WAL shipping: reading a durable directory *as a
//! stream source*.
//!
//! Replication ships the log, not the statements: the WAL file is already
//! a CRC32-framed sequence of committed statement groups (it always ends
//! at a statement boundary — `Wal::commit` appends whole sealed
//! statements), so a subscriber can be fed raw byte ranges of
//! `wal-<generation>` and apply them through the same replay machinery
//! recovery uses. This module is deliberately server-agnostic: the
//! network layer calls it per `Subscribe` poll, and promotion calls it
//! locally to drain a dead primary's surviving directory.
//!
//! Concurrency note: the functions here read files the primary is
//! actively appending to. That is safe by construction — the primary
//! appends whole frames and a reader that catches a partially-written
//! tail simply ships bytes the subscriber's cursor will buffer until the
//! rest arrives. The race that needs care is the *checkpoint flip*: the
//! checkpointer deletes `wal-<g>` after committing generation `g+1`, so a
//! read of a vanished range returns `None` and the caller re-images from
//! the new current generation.

use crate::fault::Vfs;
use crate::persist::{checkpoint_dir_name, read_current, wal_file_name};
use mammoth_types::{Error, Result};
use std::path::Path;

/// The durable tip of a primary's directory: its committed generation and
/// the current byte length of that generation's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tip {
    pub gen: u64,
    pub wal_len: u64,
}

/// Read the durable tip, or `None` for a directory no generation has ever
/// committed in (fresh primary before its first write: generation 0 with
/// no WAL file yet still reports a tip of `(0, 0)` only once the root
/// exists).
pub fn durable_tip(fs: &dyn Vfs, root: &Path) -> Result<Option<Tip>> {
    if !fs.exists(root) {
        return Ok(None);
    }
    let gen = read_current(fs, root)?.unwrap_or(0);
    let wal = root.join(wal_file_name(gen));
    let wal_len = if fs.exists(&wal) {
        fs.read(&wal)?.len() as u64
    } else {
        0
    };
    Ok(Some(Tip { gen, wal_len }))
}

/// Read `wal-<gen>` from byte `from` to its current end.
///
/// * `Some(bytes)` — the range (possibly empty when `from` equals the
///   current length: the subscriber is caught up on this generation).
/// * `None` — the range is gone or never existed: the WAL file is missing
///   (checkpoint flip deleted it) or shorter than `from` (the subscriber
///   is ahead of this file, which after a flip means it was tailing the
///   previous generation). The caller must re-anchor, normally by
///   shipping a full image of the *current* generation.
pub fn read_wal_range(fs: &dyn Vfs, root: &Path, gen: u64, from: u64) -> Result<Option<Vec<u8>>> {
    let wal = root.join(wal_file_name(gen));
    if !fs.exists(&wal) {
        // a fresh generation's WAL appears with the first commit; offset 0
        // on a missing file is "nothing yet", not "gone"
        return Ok(if from == 0 { Some(Vec::new()) } else { None });
    }
    let buf = fs.read(&wal)?;
    let from = from as usize;
    if from > buf.len() {
        return Ok(None);
    }
    Ok(Some(buf[from..].to_vec()))
}

/// Read every file of generation `gen`'s checkpoint image as
/// `(file_name, bytes)` pairs, `catalog.mmth` manifest first (the order
/// `read_dir` yields is stable but irrelevant — the applier writes all
/// files before committing `CURRENT`). Generation 0 has no image by
/// construction; the caller ships the empty-image marker instead.
pub fn export_image(fs: &dyn Vfs, root: &Path, gen: u64) -> Result<Vec<(String, Vec<u8>)>> {
    let dir = root.join(checkpoint_dir_name(gen));
    if !fs.exists(&dir) {
        return Err(Error::Corrupt(format!(
            "checkpoint image for generation {gen} is missing"
        )));
    }
    let mut out = Vec::new();
    for path in fs.read_dir(&dir)? {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| Error::Corrupt("unnameable checkpoint file".into()))?
            .to_string();
        out.push((name, fs.read(&path)?));
    }
    if out.is_empty() {
        return Err(Error::Corrupt(format!(
            "checkpoint image for generation {gen} is empty"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RealFs;
    use crate::persist::{checkpoint_image, recover_vfs};
    use crate::wal::{Wal, WalRecord};
    use crate::Catalog;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mammoth-ship-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_stmt(wal: &mut Wal, table: &str, v: i32) {
        wal.append(&WalRecord::Insert {
            table: table.into(),
            row: vec![Value::I32(v)],
        })
        .unwrap();
        wal.statement_boundary().unwrap();
    }

    #[test]
    fn tip_and_ranges_track_the_live_wal() {
        let d = tmp("tip");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        assert_eq!(
            durable_tip(fs.as_ref(), &d.join("nope")).unwrap(),
            None,
            "missing root has no tip"
        );
        let mut wal = Wal::open(Arc::clone(&fs), d.join(wal_file_name(0))).unwrap();
        let t0 = durable_tip(fs.as_ref(), &d).unwrap().unwrap();
        assert_eq!(t0.gen, 0);
        assert_eq!(t0.wal_len, 8, "header only");
        write_stmt(&mut wal, "t", 1);
        let t1 = durable_tip(fs.as_ref(), &d).unwrap().unwrap();
        assert!(t1.wal_len > t0.wal_len);
        // the shipped range is verbatim file bytes
        let full = fs.read(&d.join(wal_file_name(0))).unwrap();
        assert_eq!(
            read_wal_range(fs.as_ref(), &d, 0, 0).unwrap().unwrap(),
            full
        );
        assert_eq!(
            read_wal_range(fs.as_ref(), &d, 0, t0.wal_len)
                .unwrap()
                .unwrap(),
            full[8..].to_vec()
        );
        assert_eq!(
            read_wal_range(fs.as_ref(), &d, 0, t1.wal_len)
                .unwrap()
                .unwrap(),
            Vec::<u8>::new(),
            "caught up"
        );
        // past the end or a vanished generation: re-anchor
        assert_eq!(
            read_wal_range(fs.as_ref(), &d, 0, t1.wal_len + 1).unwrap(),
            None
        );
        assert_eq!(read_wal_range(fs.as_ref(), &d, 7, 8).unwrap(), None);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn exported_image_recovers_identically() {
        let d = tmp("image");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                crate::Table::new(TableSchema::new(
                    "t",
                    vec![ColumnDef::new("a", LogicalType::I32)],
                ))
                .unwrap(),
            )
            .unwrap();
        catalog
            .table_mut("t")
            .unwrap()
            .insert_row(&[Value::I32(7)])
            .unwrap();
        let (gen, _walp) = checkpoint_image(fs.as_ref(), &catalog.image(), &d).unwrap();
        let files = export_image(fs.as_ref(), &d, gen).unwrap();
        assert!(files.iter().any(|(n, _)| n == "catalog.mmth"));
        // replant the files under a new root and recover from them
        let d2 = tmp("image-dst");
        fs.create_dir_all(&d2.join(checkpoint_dir_name(gen)))
            .unwrap();
        for (name, bytes) in &files {
            fs.write_file(&d2.join(checkpoint_dir_name(gen)).join(name), bytes)
                .unwrap();
        }
        crate::persist::write_current(fs.as_ref(), &d2, gen).unwrap();
        let rec = recover_vfs(fs.as_ref(), &d2).unwrap();
        assert_eq!(rec.gen, gen);
        assert_eq!(
            rec.catalog.table("t").unwrap().rows(),
            vec![vec![Value::I32(7)]]
        );
        assert_eq!(
            export_image(fs.as_ref(), &d, gen + 1)
                .unwrap_err()
                .to_string(),
            Error::Corrupt(format!(
                "checkpoint image for generation {} is missing",
                gen + 1
            ))
            .to_string()
        );
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
