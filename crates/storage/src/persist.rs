//! Raw-heap persistence and atomic checkpoints.
//!
//! MonetDB stores columns as memory-mapped files whose on-disk bytes *are*
//! the in-memory array. We reproduce the same philosophy with an explicit
//! little-endian raw-heap format plus a small descriptor, and a directory
//! layout of one `.bat` file per column plus a `catalog.mmth` manifest.
//! (Substitution documented in DESIGN.md: explicit I/O instead of mmap.)
//!
//! ## Integrity
//!
//! Files written through `save_bat_vfs`/[`checkpoint_image`] are
//! *sealed*: the serialized payload is wrapped in
//! `"MCRC1\n" || crc32(payload) || payload` so that any truncation or bit
//! flip of a stored image is detected as [`Error::Corrupt`] instead of
//! being decoded into plausible-but-wrong data. Unsealed legacy files
//! (pre-seal format) are still readable.
//!
//! ## Durable layout
//!
//! The crash-safe layout managed by [`checkpoint_image`]/[`recover_vfs`]
//! is versioned by a *generation* number `g`:
//!
//! ```text
//! root/CURRENT        "ckpt-<g>\n"   (atomically replaced; the commit point)
//! root/ckpt-<g>/      catalog.mmth + one .bat per column (sealed)
//! root/wal-<g>        redo records since checkpoint g (see crate::wal)
//! ```
//!
//! A checkpoint writes `ckpt-<g+1>` into a temp dir, fsyncs every file,
//! renames the dir into place, and only then flips `CURRENT` (again via
//! write-temp + rename + dir fsync). The WAL is *per generation*: flipping
//! `CURRENT` implicitly discards `wal-<g>`, so there is no window where
//! replaying the log would double-apply records already folded into the
//! checkpoint. Every crash point leaves the store either wholly on
//! generation `g` (old checkpoint + old WAL) or wholly on `g+1`.

use crate::bat::{Bat, HeadColumn};
use crate::catalog::{Catalog, Table, TableImage};
use crate::fault::{create_dir_durable, RealFs, Vfs};
use crate::heap::TailHeap;
use crate::properties::Properties;
use crate::strheap::StrHeap;
use crate::wal::{self, WalRecord};
use mammoth_types::codec::{
    put_column, put_fixed, put_str, put_ty, put_u32, put_u64, put_u8, Reader,
};
use mammoth_types::{crc32, Error, LogicalType, Result, TableSchema};
use std::path::{Path, PathBuf};

const BAT_MAGIC: &[u8; 6] = b"MBAT1\n";
const CATALOG_MAGIC: &[u8; 6] = b"MCAT1\n";
const SEAL_MAGIC: &[u8; 6] = b"MCRC1\n";

/// Name of the commit-point file in a durable root directory.
pub(crate) const CURRENT_FILE: &str = "CURRENT";
/// Name of the manifest file inside a checkpoint directory.
pub(crate) const MANIFEST_FILE: &str = "catalog.mmth";

/// Checkpoint directory name for generation `g`.
pub fn checkpoint_dir_name(g: u64) -> String {
    format!("ckpt-{g}")
}

/// WAL file name for generation `g`.
pub fn wal_file_name(g: u64) -> String {
    format!("wal-{g}")
}

// --------------------------------------------------------------------------
// Sealed (CRC-protected) file images.
// --------------------------------------------------------------------------

/// Wrap `payload` in a seal frame: magic, CRC-32 of the payload, payload.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    out.extend_from_slice(SEAL_MAGIC);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify and strip a seal frame. Files from before sealing (raw `MBAT1`
/// or `MCAT1` images) are passed through unverified for compatibility.
fn unseal(buf: &[u8]) -> Result<&[u8]> {
    if buf.len() >= 6 && (&buf[0..6] == BAT_MAGIC || &buf[0..6] == CATALOG_MAGIC) {
        return Ok(buf); // legacy unsealed image
    }
    if buf.len() < 10 || &buf[0..6] != SEAL_MAGIC {
        return Err(Error::Corrupt("bad seal magic".into()));
    }
    let want = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
    let payload = &buf[10..];
    if crc32(payload) != want {
        return Err(Error::Corrupt("seal checksum mismatch".into()));
    }
    Ok(payload)
}

/// Serialize a BAT into `out`.
pub(crate) fn write_bat(bat: &Bat, out: &mut Vec<u8>) {
    out.extend_from_slice(BAT_MAGIC);
    put_ty(bat.ty(), out);
    // properties: a conservative bitmask (min/max are recomputed on demand)
    let p = bat.props();
    let flags = (p.sorted as u8)
        | ((p.revsorted as u8) << 1)
        | ((p.key as u8) << 2)
        | ((p.nonil as u8) << 3);
    put_u8(flags, out);
    match bat.head() {
        HeadColumn::Void { seqbase } => {
            put_u8(0, out);
            put_u64(*seqbase, out);
        }
        HeadColumn::Oids(v) => {
            put_u8(1, out);
            put_fixed(v, out);
        }
    }
    match bat.tail() {
        TailHeap::Bool(v) => put_fixed(v, out),
        TailHeap::I8(v) => put_fixed(v, out),
        TailHeap::I16(v) => put_fixed(v, out),
        TailHeap::I32(v) => put_fixed(v, out),
        TailHeap::I64(v) => put_fixed(v, out),
        TailHeap::F64(v) => put_fixed(v, out),
        TailHeap::Oid(v) => put_fixed(v, out),
        TailHeap::Str(h) => h.write_to(out),
    }
}

/// Deserialize a BAT; returns the BAT and bytes consumed.
pub(crate) fn read_bat(buf: &[u8]) -> Result<(Bat, usize)> {
    let mut r = Reader::new(buf);
    if r.bytes(BAT_MAGIC.len()).ok() != Some(&BAT_MAGIC[..]) {
        return Err(Error::Corrupt("bad BAT magic".into()));
    }
    let ty = r.ty()?;
    let flags = r.u8()?;
    let head = match r.u8()? {
        0 => HeadColumn::Void { seqbase: r.u64()? },
        1 => HeadColumn::Oids(r.fixed()?),
        t => return Err(Error::Corrupt(format!("unknown head tag {t}"))),
    };
    let tail = match ty {
        LogicalType::Bool => TailHeap::Bool(r.fixed()?),
        LogicalType::I8 => TailHeap::I8(r.fixed()?),
        LogicalType::I16 => TailHeap::I16(r.fixed()?),
        LogicalType::I32 => TailHeap::I32(r.fixed()?),
        LogicalType::I64 => TailHeap::I64(r.fixed()?),
        LogicalType::F64 => TailHeap::F64(r.fixed()?),
        LogicalType::Oid => TailHeap::Oid(r.fixed()?),
        LogicalType::Str => TailHeap::Str(StrHeap::read_from(&mut r)?),
    };
    let bat = match head {
        HeadColumn::Void { seqbase } => Bat::dense(seqbase, tail),
        HeadColumn::Oids(v) => Bat::with_head(v, tail)?,
    };
    let props = Properties {
        sorted: flags & 1 != 0,
        revsorted: flags & 2 != 0,
        key: flags & 4 != 0,
        nonil: flags & 8 != 0,
        min: None,
        max: None,
    };
    Ok((bat.with_props(props), buf.len() - r.remaining()))
}

/// Save one BAT to a file (sealed) through a [`Vfs`].
pub(crate) fn save_bat_vfs(fs: &dyn Vfs, bat: &Bat, path: &Path) -> Result<()> {
    let mut buf = Vec::with_capacity(bat.tail().byte_size() + 64);
    write_bat(bat, &mut buf);
    fs.write_file(path, &seal(&buf))
}

/// Load one BAT from a file (sealed or legacy raw image).
pub(crate) fn load_bat_vfs(fs: &dyn Vfs, path: &Path) -> Result<Bat> {
    let buf = fs.read(path)?;
    let payload = unseal(&buf)?;
    let (bat, used) = read_bat(payload)?;
    if used != payload.len() {
        return Err(Error::Corrupt("trailing bytes after BAT".into()));
    }
    Ok(bat)
}

/// Persist a catalog image into `dir` (created if missing) through a
/// [`Vfs`]: one sealed, fsync'd `.bat` file per compacted column plus the
/// manifest naming them.
pub(crate) fn save_image_vfs(fs: &dyn Vfs, image: &[TableImage], dir: &Path) -> Result<()> {
    fs.create_dir_all(dir)?;
    let mut manifest = CATALOG_MAGIC.to_vec();
    put_u32(image.len() as u32, &mut manifest);
    for t in image {
        put_str(&t.schema.name, &mut manifest);
        put_u32(t.schema.columns.len() as u32, &mut manifest);
        for (i, (c, bat)) in t.schema.columns.iter().zip(&t.columns).enumerate() {
            put_column(c, &mut manifest);
            let file = format!("{}.{}.bat", t.name, i);
            put_str(&file, &mut manifest);
            let path = dir.join(file);
            save_bat_vfs(fs, bat, &path)?;
            fs.sync(&path)?;
        }
    }
    let mpath = dir.join(MANIFEST_FILE);
    fs.write_file(&mpath, &seal(&manifest))?;
    fs.sync(&mpath)
}

/// Load a catalog image written by [`save_image_vfs`] through a [`Vfs`].
pub(crate) fn load_catalog_vfs(fs: &dyn Vfs, dir: &Path) -> Result<Catalog> {
    let raw = fs.read(&dir.join(MANIFEST_FILE))?;
    let mut r = Reader::new(unseal(&raw)?);
    if r.bytes(CATALOG_MAGIC.len()).ok() != Some(&CATALOG_MAGIC[..]) {
        return Err(Error::Corrupt("bad catalog magic".into()));
    }
    let mut catalog = Catalog::new();
    // a table takes at least its name and column count, a column at least
    // its definition and file name
    for _ in 0..r.count(8)? {
        let name = r.str()?;
        let ncols = r.count(10)?;
        let mut defs = Vec::with_capacity(ncols);
        let mut bats = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            defs.push(r.column()?);
            let file = r.str()?;
            // the manifest names bare files inside `dir`; reject anything
            // that would escape it (a corrupt or hostile manifest), or that
            // is not there
            let path = dir.join(&file);
            if file.contains('/') || file.contains('\\') || file.contains("..") || !fs.exists(&path)
            {
                return Err(Error::Corrupt(format!(
                    "unsafe or missing bat file {file:?}"
                )));
            }
            bats.push(load_bat_vfs(fs, &path)?);
        }
        // the files a corrupt manifest names may not make up its table
        Table::from_bats(TableSchema::new(name, defs), bats)
            .and_then(|t| catalog.create_table(t))
            .map_err(|e| Error::Corrupt(format!("manifest disagrees with its files: {e}")))?;
    }
    r.finish()?;
    Ok(catalog)
}

// --------------------------------------------------------------------------
// Atomic checkpoints and crash recovery.
// --------------------------------------------------------------------------

/// Read the committed generation from `root/CURRENT`, if any.
pub fn read_current(fs: &dyn Vfs, root: &Path) -> Result<Option<u64>> {
    let p = root.join(CURRENT_FILE);
    if !fs.exists(&p) {
        return Ok(None);
    }
    let buf = fs.read(&p)?;
    let s = std::str::from_utf8(&buf)
        .map_err(|_| Error::Corrupt("CURRENT is not utf8".into()))?
        .trim();
    let g = s
        .strip_prefix("ckpt-")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| Error::Corrupt(format!("CURRENT does not name a checkpoint: {s:?}")))?;
    Ok(Some(g))
}

/// Atomically point `root/CURRENT` at generation `g` (tmp + rename +
/// dir-fsync). Public for the replication applier, which commits a
/// received checkpoint image the same way the checkpointer commits a
/// locally-written one.
pub fn write_current(fs: &dyn Vfs, root: &Path, g: u64) -> Result<()> {
    let tmp = root.join(format!("{CURRENT_FILE}.tmp"));
    let fin = root.join(CURRENT_FILE);
    fs.write_file(&tmp, format!("ckpt-{g}\n").as_bytes())?;
    fs.sync(&tmp)?;
    fs.rename(&tmp, &fin)?;
    fs.sync_dir(root)
}

/// Write an atomic checkpoint of `image` (a catalog's compacted tables,
/// [`Catalog::image`]) under `root` and commit it.
///
/// Returns the new generation and the path of its (not yet existing) WAL
/// file; the caller reopens its [`crate::wal::Wal`] there and may fold its
/// live tables onto the image ([`Catalog::adopt_image`]). The sequence is
/// crash-safe at every step: the store flips from generation `g` to `g+1`
/// exactly when the `CURRENT` rename lands, and the per-generation WAL
/// naming means the old log can never be replayed on top of the new image.
pub fn checkpoint_image(fs: &dyn Vfs, image: &[TableImage], root: &Path) -> Result<(u64, PathBuf)> {
    create_dir_durable(fs, root)?;
    let next = read_current(fs, root)?.map_or(1, |g| g + 1);
    let tmp = root.join(format!("{}.tmp", checkpoint_dir_name(next)));
    let fin = root.join(checkpoint_dir_name(next));
    // clear orphans of a previous crashed attempt at this generation
    fs.remove_dir_all(&tmp)?;
    fs.remove_dir_all(&fin)?;
    fs.remove_file(&root.join(wal_file_name(next)))?;
    save_image_vfs(fs, image, &tmp)?;
    fs.sync_dir(&tmp)?;
    fs.rename(&tmp, &fin)?;
    fs.sync_dir(root)?;
    write_current(fs, root, next)?; // commit point
                                    // cleanup of the previous generation; a crash here leaves harmless
                                    // orphans that the next checkpoint at that name would clear anyway
    if next > 0 {
        fs.remove_dir_all(&root.join(checkpoint_dir_name(next - 1)))?;
        fs.remove_file(&root.join(wal_file_name(next - 1)))?;
    }
    Ok((next, root.join(wal_file_name(next))))
}

/// Load the checkpoint that `CURRENT` names under `root`, with its
/// generation; `None` when `root` holds no committed checkpoint.
pub fn load_current(fs: &dyn Vfs, root: &Path) -> Result<Option<(Catalog, u64)>> {
    let Some(g) = read_current(fs, root)? else {
        return Ok(None);
    };
    let cat = load_catalog_vfs(fs, &root.join(checkpoint_dir_name(g)))
        .map_err(|e| Error::Recovery(format!("loading checkpoint ckpt-{g}: {e}")))?;
    Ok(Some((cat, g)))
}

/// The result of [`recover_vfs`].
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed catalog: last committed checkpoint plus the
    /// committed WAL prefix.
    pub catalog: Catalog,
    /// The committed generation (0 for a fresh directory).
    pub gen: u64,
    /// The WAL file the session should continue appending to.
    pub wal_path: PathBuf,
    /// Redo records replayed on top of the checkpoint.
    pub wal_records: usize,
    /// Whether a torn WAL tail was discarded during replay.
    pub tail_discarded: bool,
}

/// Apply one redo record to a catalog (replay path).
pub fn apply_wal_record(catalog: &mut Catalog, rec: &WalRecord) -> Result<()> {
    let res: Result<()> = match rec {
        WalRecord::CreateTable { schema } => {
            Table::new(schema.clone()).and_then(|t| catalog.create_table(t))
        }
        WalRecord::DropTable { name } => catalog.drop_table(name).map(|_| ()),
        WalRecord::Insert { table, row } => catalog
            .table_mut(table)
            .and_then(|t| t.insert_row(row))
            .map(|_| ()),
        WalRecord::Delete { table, pos } => catalog.table_mut(table).map(|t| {
            t.delete_row(*pos);
        }),
        WalRecord::Merge { table } => catalog.table_mut(table).map(Table::merge_all),
        // commit markers delimit statements in the log; replay filters them
        // out before records reach this function, so nothing to apply
        WalRecord::Commit => Ok(()),
    };
    res.map_err(|e| Error::Recovery(format!("cannot replay {rec:?}: {e}")))
}

/// Reconstruct the database state under `root` after a crash (or a clean
/// shutdown — the same path serves both).
///
/// Creates a missing `root` durably, loads the checkpoint named by
/// `CURRENT` (or starts from an empty catalog) and replays the matching
/// WAL. A torn or checksum-broken final record is the expected signature
/// of a crash mid-append and is discarded silently; a checkpoint that
/// `CURRENT` names but that cannot be read, or a WAL record that does not
/// apply, is [`Error::Recovery`].
pub fn recover_vfs(fs: &dyn Vfs, root: &Path) -> Result<Recovered> {
    create_dir_durable(fs, root)?;
    let (mut catalog, gen) = load_current(fs, root)?.unwrap_or_else(|| (Catalog::new(), 0));
    let wal_path = root.join(wal_file_name(gen));
    let replayed = wal::replay(fs, &wal_path)?;
    for rec in &replayed.records {
        apply_wal_record(&mut catalog, rec)?;
    }
    Ok(Recovered {
        catalog,
        gen,
        wal_path,
        wal_records: replayed.records.len(),
        tail_discarded: replayed.tail_discarded,
    })
}

/// [`recover_vfs`] on the real filesystem.
pub fn recover(root: &Path) -> Result<Recovered> {
    recover_vfs(&RealFs, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MemFs;
    use crate::wal::Wal;
    use mammoth_types::{netfault, Value};
    use std::fs;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mammoth-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn bat_roundtrip_fixed() {
        let mut b = Bat::from_vec(vec![1i32, 5, 3]);
        b.compute_props();
        let mut buf = Vec::new();
        write_bat(&b, &mut buf);
        let (back, used) = read_bat(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back.tail_slice::<i32>().unwrap(), &[1, 5, 3]);
        assert!(back.props().nonil);
        assert!(!back.props().sorted);
    }

    #[test]
    fn bat_roundtrip_strings_and_heads() {
        let b = Bat::with_head(
            vec![7, 3, 9],
            TailHeap::from_strings([Some("x"), None, Some("x")]),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_bat(&b, &mut buf);
        let (back, _) = read_bat(&buf).unwrap();
        assert_eq!(back.oid_at(1), 3);
        assert_eq!(back.value_at(0), Value::Str("x".into()));
        assert_eq!(back.value_at(1), Value::Null);
    }

    #[test]
    fn corrupt_bat_rejected() {
        assert!(read_bat(b"nonsense").is_err());
        let b = Bat::from_vec(vec![1i64, 2]);
        let mut buf = Vec::new();
        write_bat(&b, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(read_bat(&buf).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let fs = MemFs::default();
        let p = Path::new("/x.bat");
        save_bat_vfs(&fs, &Bat::from_vec(vec![2.5f64, 3.5]), p).unwrap();
        let back = load_bat_vfs(&fs, p).unwrap();
        assert_eq!(back.tail_slice::<f64>().unwrap(), &[2.5, 3.5]);
    }

    #[test]
    fn sealed_file_detects_any_flip() {
        let fs = MemFs::default();
        let p = Path::new("/x.bat");
        save_bat_vfs(&fs, &Bat::from_vec(vec![41i32, 42, 43]), p).unwrap();
        let img = fs.read(p).unwrap();
        assert_eq!(&img[0..6], SEAL_MAGIC);
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x01;
            fs.write_file(p, &bad).unwrap();
            assert!(
                load_bat_vfs(&fs, p).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for cut in 0..img.len() {
            fs.write_file(p, &img[..cut]).unwrap();
            assert!(
                load_bat_vfs(&fs, p).is_err(),
                "truncation to {cut} went undetected"
            );
        }
    }

    #[test]
    fn legacy_unsealed_bat_still_loads() {
        let fs = MemFs::default();
        let mut raw = Vec::new();
        write_bat(&Bat::from_vec(vec![7i64, 8]), &mut raw);
        fs.write_file(Path::new("/x.bat"), &raw).unwrap(); // pre-seal format
        let back = load_bat_vfs(&fs, Path::new("/x.bat")).unwrap();
        assert_eq!(back.tail_slice::<i64>().unwrap(), &[7, 8]);
    }

    fn demo_catalog() -> Catalog {
        use mammoth_types::{ColumnDef, LogicalType};
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "actors",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("born", LogicalType::I32).not_null(),
            ],
        ))
        .unwrap();
        t.insert_row(&[Value::Str("John Wayne".into()), Value::I32(1907)])
            .unwrap();
        t.insert_row(&[Value::Str("Bob Fosse".into()), Value::I32(1927)])
            .unwrap();
        t.delete_row(0);
        cat.create_table(t).unwrap();
        cat
    }

    #[test]
    fn catalog_roundtrip() {
        let fs = MemFs::default();
        save_image_vfs(&fs, &demo_catalog().image(), Path::new("/cat")).unwrap();
        let back = load_catalog_vfs(&fs, Path::new("/cat")).unwrap();
        let t = back.table("actors").unwrap();
        assert_eq!(t.live_len(), 1);
        assert_eq!(
            t.get_row(0),
            Some(vec![Value::Str("Bob Fosse".into()), Value::I32(1927)])
        );
        assert!(!t.schema.columns[1].nullable);
    }

    #[test]
    fn checkpoint_and_recover_roundtrip() {
        let d = tmpdir("ckpt");
        let fs_: Arc<dyn Vfs> = Arc::new(RealFs);
        let cat = demo_catalog();
        let (g1, wal1) = checkpoint_image(fs_.as_ref(), &cat.image(), &d).unwrap();
        assert_eq!(g1, 1);

        // append DML to the generation-1 WAL
        let mut w = Wal::open(Arc::clone(&fs_), wal1).unwrap();
        w.append(&WalRecord::Insert {
            table: "actors".into(),
            row: vec![Value::Str("Roger Moore".into()), Value::I32(1927)],
        })
        .unwrap();
        w.statement_boundary().unwrap();

        let rec = recover(&d).unwrap();
        assert_eq!(rec.gen, 1);
        assert_eq!(rec.wal_records, 1);
        assert!(!rec.tail_discarded);
        let t = rec.catalog.table("actors").unwrap();
        assert_eq!(t.live_len(), 2);

        // a second checkpoint folds the WAL in and retires generation 1
        let (g2, _) = checkpoint_image(fs_.as_ref(), &rec.catalog.image(), &d).unwrap();
        assert_eq!(g2, 2);
        assert!(!d.join(checkpoint_dir_name(1)).exists());
        assert!(!d.join(wal_file_name(1)).exists());
        let rec2 = recover(&d).unwrap();
        assert_eq!(rec2.wal_records, 0);
        assert_eq!(rec2.catalog.table("actors").unwrap().live_len(), 2);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recovery_creates_a_missing_root_durably() {
        let fs = MemFs::default();
        let root = Path::new("/a/b/store");
        let rec = recover_vfs(&fs, root).unwrap();
        assert_eq!(rec.gen, 0);
        assert_eq!(rec.catalog.table_names().count(), 0);
        // every directory the recovery made survives any power loss
        for seed in 0..16 {
            assert!(
                fs.crash(seed).exists(root),
                "crash seed {seed} lost {root:?}"
            );
        }
    }

    #[test]
    fn recovery_errors_are_reported_not_panicked() {
        let d = tmpdir("badcur");
        fs::write(d.join(CURRENT_FILE), "ckpt-7\n").unwrap();
        match recover(&d) {
            Err(Error::Recovery(m)) => assert!(m.contains("ckpt-7"), "{m}"),
            other => panic!("expected Recovery error, got {other:?}"),
        }
        fs::write(d.join(CURRENT_FILE), "garbage").unwrap();
        assert!(matches!(recover(&d), Err(Error::Corrupt(_))));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn replay_applies_merge_records() {
        let mut cat = Catalog::new();
        let schema = TableSchema::new(
            "t",
            vec![mammoth_types::ColumnDef::new("a", LogicalType::I64)],
        );
        apply_wal_record(&mut cat, &WalRecord::CreateTable { schema }).unwrap();
        for i in 0..4 {
            apply_wal_record(
                &mut cat,
                &WalRecord::Insert {
                    table: "t".into(),
                    row: vec![Value::I64(i)],
                },
            )
            .unwrap();
        }
        apply_wal_record(
            &mut cat,
            &WalRecord::Delete {
                table: "t".into(),
                pos: 1,
            },
        )
        .unwrap();
        apply_wal_record(&mut cat, &WalRecord::Merge { table: "t".into() }).unwrap();
        // post-merge, positions are renumbered: a delete of pos 1 now hits
        // the row that held value 2
        apply_wal_record(
            &mut cat,
            &WalRecord::Delete {
                table: "t".into(),
                pos: 1,
            },
        )
        .unwrap();
        let t = cat.table("t").unwrap();
        assert_eq!(t.live_len(), 2);
        assert_eq!(t.column(0).pending_inserts(), 0);
        assert_eq!(t.get_row(0), Some(vec![Value::I64(0)]));
        assert_eq!(t.get_row(2), Some(vec![Value::I64(3)]));
        // replaying a record against a missing table is a Recovery error
        let e = apply_wal_record(
            &mut cat,
            &WalRecord::Merge {
                table: "nope".into(),
            },
        )
        .unwrap_err();
        assert!(matches!(e, Error::Recovery(_)));
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_bat_roundtrip_i64(vals in proptest::collection::vec(-1000i64..1000, 0..64)) {
            let mut b = Bat::from_vec(vals.clone());
            b.compute_props();
            let mut buf = Vec::new();
            write_bat(&b, &mut buf);
            let (back, used) = read_bat(&buf).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(back.tail_slice::<i64>().unwrap(), &vals[..]);
        }

        #[test]
        fn prop_bat_roundtrip_strings(strings in proptest::collection::vec(
            proptest::option::of("[a-z]{0,8}"), 0..48)
        ) {
            let b = Bat::from_strings(strings.iter().map(|s| s.as_deref()));
            let mut buf = Vec::new();
            write_bat(&b, &mut buf);
            let (back, _) = read_bat(&buf).unwrap();
            prop_assert_eq!(back.len(), strings.len());
            for (i, s) in strings.iter().enumerate() {
                let want = match s {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                };
                prop_assert_eq!(back.value_at(i), want);
            }
        }

        // Any truncation of a valid image is an `Err`, never a panic or a
        // wild allocation.
        #[test]
        fn prop_truncated_bat_never_panics(
            vals in proptest::collection::vec(-50i64..50, 1..32),
            frac in 0u32..1000,
        ) {
            let b = Bat::from_vec(vals);
            let mut buf = Vec::new();
            write_bat(&b, &mut buf);
            let cut = (buf.len() * frac as usize) / 1000;
            // read_bat on a clean prefix may legitimately succeed only at
            // the full length; any shorter prefix must report Corrupt
            if cut < buf.len() {
                prop_assert!(read_bat(&buf[..cut]).is_err());
            }
        }

        // Any single-byte flip is either detected or yields a structurally
        // valid BAT — never a panic. (Unsealed `write_bat` images carry no
        // checksum; the seal layer detects every flip, tested above.)
        #[test]
        fn prop_flipped_bat_never_panics(
            vals in proptest::collection::vec(-50i64..50, 1..32),
            pos in 0usize..4096,
            bit in 0u8..8,
        ) {
            let b = Bat::from_vec(vals);
            let mut buf = Vec::new();
            write_bat(&b, &mut buf);
            let pos = pos % buf.len();
            buf[pos] ^= 1 << bit;
            let _ = read_bat(&buf); // must return, not panic
        }

        // Sealed (checksummed) images detect every corruption: truncation
        // or flip of a `save_bat_vfs` file always surfaces `Err`.
        #[test]
        fn prop_sealed_corruption_always_detected(
            vals in proptest::collection::vec(-50i64..50, 1..32),
            pos in 0usize..4096,
            bit in 0u8..8,
        ) {
            let b = Bat::from_vec(vals);
            let mut buf = Vec::new();
            write_bat(&b, &mut buf);
            let mut img = seal(&buf);
            let pos = pos % img.len();
            img[pos] ^= 1 << bit;
            prop_assert!(unseal(&img).and_then(read_bat).is_err());
        }

        // A legacy unsealed `MCAT1` manifest skips the CRC, so the decoder
        // itself meets the damage: torn, flipped, or both, it loads or is
        // `Corrupt` — never a panic, an over-allocation, or a path outside
        // the directory.
        #[test]
        fn prop_mangled_legacy_manifest_loads_or_is_corrupt(seed in 0u64..1 << 20) {
            let (fs, d) = (MemFs::default(), Path::new("/cat"));
            save_image_vfs(&fs, &demo_catalog().image(), d).unwrap();
            let sealed = fs.read(&d.join(MANIFEST_FILE)).unwrap();
            let legacy = &sealed[SEAL_MAGIC.len() + 4..];
            prop_assert_eq!(&legacy[..CATALOG_MAGIC.len()], CATALOG_MAGIC);
            fs.write_file(&d.join(MANIFEST_FILE), &netfault::mangle(legacy, seed)).unwrap();
            match load_catalog_vfs(&fs, d) {
                Ok(_) | Err(Error::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "seed {}: {}", seed, e),
            }
        }
    }
}
