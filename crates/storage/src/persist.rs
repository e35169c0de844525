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
//! Files written through [`save_bat`]/[`save_catalog`] are *sealed*: the
//! serialized payload is wrapped in `"MCRC1\n" || crc32(payload) || payload`
//! so that any truncation or bit flip of a stored image is detected as
//! [`Error::Corrupt`] instead of being decoded into plausible-but-wrong
//! data. Unsealed legacy files (pre-seal format) are still readable.
//!
//! ## Durable layout
//!
//! The crash-safe layout managed by [`checkpoint_catalog`]/[`recover_vfs`]
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
use crate::fault::{RealFs, Vfs};
use crate::heap::TailHeap;
use crate::properties::Properties;
use crate::strheap::StrHeap;
use crate::wal::{self, crc32, WalRecord};
use mammoth_types::{ColumnDef, Error, LogicalType, NativeType, Oid, Result, TableSchema};
use std::path::{Path, PathBuf};

const BAT_MAGIC: &[u8; 6] = b"MBAT1\n";
const CATALOG_MAGIC: &[u8; 6] = b"MCAT1\n";
const SEAL_MAGIC: &[u8; 6] = b"MCRC1\n";

/// Name of the commit-point file in a durable root directory.
pub const CURRENT_FILE: &str = "CURRENT";
/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "catalog.mmth";

/// Checkpoint directory name for generation `g`.
pub fn checkpoint_dir_name(g: u64) -> String {
    format!("ckpt-{g}")
}

/// WAL file name for generation `g`.
pub fn wal_file_name(g: u64) -> String {
    format!("wal-{g}")
}

fn ty_tag(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Bool => 0,
        LogicalType::I8 => 1,
        LogicalType::I16 => 2,
        LogicalType::I32 => 3,
        LogicalType::I64 => 4,
        LogicalType::F64 => 5,
        LogicalType::Str => 6,
        LogicalType::Oid => 7,
    }
}

fn tag_ty(tag: u8) -> Result<LogicalType> {
    Ok(match tag {
        0 => LogicalType::Bool,
        1 => LogicalType::I8,
        2 => LogicalType::I16,
        3 => LogicalType::I32,
        4 => LogicalType::I64,
        5 => LogicalType::F64,
        6 => LogicalType::Str,
        7 => LogicalType::Oid,
        t => return Err(Error::Corrupt(format!("unknown type tag {t}"))),
    })
}

fn write_fixed<T: NativeType>(v: &[T], out: &mut Vec<u8>) {
    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
    for x in v {
        x.write_le(out);
    }
}

fn read_fixed<T: NativeType>(buf: &[u8]) -> Result<(Vec<T>, usize)> {
    if buf.len() < 8 {
        return Err(Error::Corrupt("truncated heap length".into()));
    }
    let mut lenb = [0u8; 8];
    lenb.copy_from_slice(&buf[0..8]);
    let n = usize::try_from(u64::from_le_bytes(lenb))
        .map_err(|_| Error::Corrupt("heap length exceeds address space".into()))?;
    // the element count is untrusted input: every arithmetic step is checked
    // against overflow and against the bytes actually present before any
    // allocation is sized from it
    let need = n
        .checked_mul(T::WIDTH)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| Error::Corrupt("heap byte size overflows".into()))?;
    if buf.len() < need {
        return Err(Error::Corrupt("truncated heap data".into()));
    }
    let mut v = Vec::with_capacity(n);
    let mut pos = 8;
    for _ in 0..n {
        v.push(T::read_le(&buf[pos..]));
        pos += T::WIDTH;
    }
    Ok((v, pos))
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
pub fn write_bat(bat: &Bat, out: &mut Vec<u8>) {
    out.extend_from_slice(BAT_MAGIC);
    out.push(ty_tag(bat.ty()));
    // properties: a conservative bitmask (min/max are recomputed on demand)
    let p = bat.props();
    let flags = (p.sorted as u8)
        | ((p.revsorted as u8) << 1)
        | ((p.key as u8) << 2)
        | ((p.nonil as u8) << 3);
    out.push(flags);
    match bat.head() {
        HeadColumn::Void { seqbase } => {
            out.push(0);
            out.extend_from_slice(&seqbase.to_le_bytes());
        }
        HeadColumn::Oids(v) => {
            out.push(1);
            write_fixed(v, out);
        }
    }
    match bat.tail() {
        TailHeap::Bool(v) => write_fixed(v, out),
        TailHeap::I8(v) => write_fixed(v, out),
        TailHeap::I16(v) => write_fixed(v, out),
        TailHeap::I32(v) => write_fixed(v, out),
        TailHeap::I64(v) => write_fixed(v, out),
        TailHeap::F64(v) => write_fixed(v, out),
        TailHeap::Oid(v) => write_fixed(v, out),
        TailHeap::Str(h) => h.write_to(out),
    }
}

/// Deserialize a BAT; returns the BAT and bytes consumed.
pub fn read_bat(buf: &[u8]) -> Result<(Bat, usize)> {
    if buf.len() < 9 || &buf[0..6] != BAT_MAGIC {
        return Err(Error::Corrupt("bad BAT magic".into()));
    }
    let ty = tag_ty(buf[6])?;
    let flags = buf[7];
    let head_tag = buf[8];
    let mut pos = 9;
    let head = match head_tag {
        0 => {
            if buf.len() < pos + 8 {
                return Err(Error::Corrupt("truncated seqbase".into()));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[pos..pos + 8]);
            pos += 8;
            HeadColumn::Void {
                seqbase: u64::from_le_bytes(b),
            }
        }
        1 => {
            let (v, used) = read_fixed::<Oid>(&buf[pos..])?;
            pos += used;
            HeadColumn::Oids(v)
        }
        t => return Err(Error::Corrupt(format!("unknown head tag {t}"))),
    };
    let tail = match ty {
        LogicalType::Bool => {
            let (v, used) = read_fixed::<bool>(&buf[pos..])?;
            pos += used;
            TailHeap::Bool(v)
        }
        LogicalType::I8 => {
            let (v, used) = read_fixed::<i8>(&buf[pos..])?;
            pos += used;
            TailHeap::I8(v)
        }
        LogicalType::I16 => {
            let (v, used) = read_fixed::<i16>(&buf[pos..])?;
            pos += used;
            TailHeap::I16(v)
        }
        LogicalType::I32 => {
            let (v, used) = read_fixed::<i32>(&buf[pos..])?;
            pos += used;
            TailHeap::I32(v)
        }
        LogicalType::I64 => {
            let (v, used) = read_fixed::<i64>(&buf[pos..])?;
            pos += used;
            TailHeap::I64(v)
        }
        LogicalType::F64 => {
            let (v, used) = read_fixed::<f64>(&buf[pos..])?;
            pos += used;
            TailHeap::F64(v)
        }
        LogicalType::Oid => {
            let (v, used) = read_fixed::<Oid>(&buf[pos..])?;
            pos += used;
            TailHeap::Oid(v)
        }
        LogicalType::Str => {
            let (h, used) = StrHeap::read_from(&buf[pos..])?;
            pos += used;
            TailHeap::Str(h)
        }
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
    Ok((bat.with_props(props), pos))
}

/// Save one BAT to a file (sealed) through a [`Vfs`].
pub fn save_bat_vfs(fs: &dyn Vfs, bat: &Bat, path: &Path) -> Result<()> {
    let mut buf = Vec::with_capacity(bat.tail().byte_size() + 64);
    write_bat(bat, &mut buf);
    fs.write_file(path, &seal(&buf))
}

/// Save one BAT to a file.
pub fn save_bat(bat: &Bat, path: &Path) -> Result<()> {
    save_bat_vfs(&RealFs, bat, path)
}

/// Load one BAT from a file (sealed or legacy raw image).
pub fn load_bat_vfs(fs: &dyn Vfs, path: &Path) -> Result<Bat> {
    let buf = fs.read(path)?;
    let payload = unseal(&buf)?;
    let (bat, used) = read_bat(payload)?;
    if used != payload.len() {
        return Err(Error::Corrupt("trailing bytes after BAT".into()));
    }
    Ok(bat)
}

/// Load one BAT from a file.
pub fn load_bat(path: &Path) -> Result<Bat> {
    load_bat_vfs(&RealFs, path)
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let hdr_end = pos
        .checked_add(4)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::Corrupt("truncated string".into()))?;
    let mut lenb = [0u8; 4];
    lenb.copy_from_slice(&buf[*pos..hdr_end]);
    let n = u32::from_le_bytes(lenb) as usize;
    let end = hdr_end
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::Corrupt("truncated string body".into()))?;
    let s = std::str::from_utf8(&buf[hdr_end..end])
        .map_err(|_| Error::Corrupt("invalid utf8 in catalog".into()))?
        .to_string();
    *pos = end;
    Ok(s)
}

/// Persist a catalog image into `dir` (created if missing) through a
/// [`Vfs`]: one sealed `.bat` file per compacted column plus the manifest
/// naming them. When `sync` is set every file is fsync'd — required on the
/// checkpoint path, skippable for throwaway exports.
pub fn save_image_vfs(fs: &dyn Vfs, image: &[TableImage], dir: &Path, sync: bool) -> Result<()> {
    fs.create_dir_all(dir)?;
    let mut manifest = Vec::new();
    manifest.extend_from_slice(CATALOG_MAGIC);
    manifest.extend_from_slice(&(image.len() as u32).to_le_bytes());
    for t in image {
        write_str(&t.schema.name, &mut manifest);
        manifest.extend_from_slice(&(t.schema.columns.len() as u32).to_le_bytes());
        for (i, (c, bat)) in t.schema.columns.iter().zip(&t.columns).enumerate() {
            write_str(&c.name, &mut manifest);
            manifest.push(ty_tag(c.ty));
            manifest.push(c.nullable as u8);
            let file = format!("{}.{}.bat", t.name, i);
            write_str(&file, &mut manifest);
            let path = dir.join(file);
            save_bat_vfs(fs, bat, &path)?;
            if sync {
                fs.sync(&path)?;
            }
        }
    }
    let mpath = dir.join(MANIFEST_FILE);
    fs.write_file(&mpath, &seal(&manifest))?;
    if sync {
        fs.sync(&mpath)?;
    }
    Ok(())
}

/// Persist a whole catalog into `dir` through a [`Vfs`]. Tables are
/// compacted: deltas are merged into the stored base.
pub fn save_catalog_vfs(fs: &dyn Vfs, catalog: &Catalog, dir: &Path, sync: bool) -> Result<()> {
    save_image_vfs(fs, &catalog.image(), dir, sync)
}

/// Persist a whole catalog into `dir` (created if missing).
pub fn save_catalog(catalog: &Catalog, dir: &Path) -> Result<()> {
    save_catalog_vfs(&RealFs, catalog, dir, false)
}

/// Load a catalog previously written by [`save_catalog`] through a [`Vfs`].
pub fn load_catalog_vfs(fs: &dyn Vfs, dir: &Path) -> Result<Catalog> {
    let raw = fs.read(&dir.join(MANIFEST_FILE))?;
    let buf = unseal(&raw)?;
    if buf.len() < 10 || &buf[0..6] != CATALOG_MAGIC {
        return Err(Error::Corrupt("bad catalog magic".into()));
    }
    let ntables = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if ntables > buf.len() {
        return Err(Error::Corrupt("catalog table count overruns".into()));
    }
    let mut pos = 10;
    let mut catalog = Catalog::new();
    for _ in 0..ntables {
        let tname = read_str(buf, &mut pos)?;
        if buf.len() < pos + 4 {
            return Err(Error::Corrupt("truncated column count".into()));
        }
        let ncols =
            u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        if ncols > buf.len() {
            return Err(Error::Corrupt("catalog column count overruns".into()));
        }
        pos += 4;
        let mut defs = Vec::with_capacity(ncols);
        let mut bats = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = read_str(buf, &mut pos)?;
            if buf.len() < pos + 2 {
                return Err(Error::Corrupt("truncated column def".into()));
            }
            let ty = tag_ty(buf[pos])?;
            let nullable = buf[pos + 1] != 0;
            pos += 2;
            let file = read_str(buf, &mut pos)?;
            // the manifest names bare files inside `dir`; reject anything
            // that would escape it (a corrupt or hostile manifest)
            if file.contains('/') || file.contains('\\') || file.contains("..") {
                return Err(Error::Corrupt(format!("unsafe bat file name {file:?}")));
            }
            let mut def = ColumnDef::new(cname, ty);
            def.nullable = nullable;
            defs.push(def);
            bats.push(load_bat_vfs(fs, &dir.join(file))?);
        }
        let table = Table::from_bats(TableSchema::new(tname, defs), bats)?;
        catalog.create_table(table)?;
    }
    Ok(catalog)
}

/// Load a catalog previously written by [`save_catalog`].
pub fn load_catalog(dir: &Path) -> Result<Catalog> {
    load_catalog_vfs(&RealFs, dir)
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

/// Write an atomic checkpoint of `catalog` under `root` and commit it.
///
/// Returns the new generation and the path of its (not yet existing) WAL
/// file; the caller reopens its [`crate::wal::Wal`] there. The sequence is
/// crash-safe at every step: the store flips from generation `g` to `g+1`
/// exactly when the `CURRENT` rename lands, and the per-generation WAL
/// naming means the old log can never be replayed on top of the new image.
pub fn checkpoint_catalog(fs: &dyn Vfs, catalog: &Catalog, root: &Path) -> Result<(u64, PathBuf)> {
    checkpoint_image_with(fs, &catalog.image(), root, &[])
}

/// [`checkpoint_catalog`] of an image the caller already holds (and goes
/// on to fold the live tables onto, [`Catalog::adopt_image`]), plus sealed
/// *sidecar* files: each `(name, bytes)` pair is written into the
/// checkpoint directory before the atomic rename, so the sidecars commit
/// (and replicate — the image shipper enumerates every file of the
/// generation directory) exactly with the data they describe. Used by the
/// SQL session to persist the planner's statistics catalog.
pub fn checkpoint_image_with(
    fs: &dyn Vfs,
    image: &[TableImage],
    root: &Path,
    sidecars: &[(String, Vec<u8>)],
) -> Result<(u64, PathBuf)> {
    fs.create_dir_all(root)?;
    let next = read_current(fs, root)?.map_or(1, |g| g + 1);
    let tmp = root.join(format!("{}.tmp", checkpoint_dir_name(next)));
    let fin = root.join(checkpoint_dir_name(next));
    // clear orphans of a previous crashed attempt at this generation
    fs.remove_dir_all(&tmp)?;
    fs.remove_dir_all(&fin)?;
    fs.remove_file(&root.join(wal_file_name(next)))?;
    save_image_vfs(fs, image, &tmp, true)?;
    for (name, bytes) in sidecars {
        let p = tmp.join(name);
        fs.write_file(&p, bytes)?;
        fs.sync(&p)?;
    }
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

/// Read a sidecar file from the *committed* checkpoint generation (the
/// one `CURRENT` names). Returns `Ok(None)` when there is no committed
/// checkpoint or the sidecar was never written — absence is normal
/// (pre-sidecar images, fresh stores), not corruption.
pub fn read_sidecar(fs: &dyn Vfs, root: &Path, name: &str) -> Result<Option<Vec<u8>>> {
    let Some(g) = read_current(fs, root)? else {
        return Ok(None);
    };
    let p = root.join(checkpoint_dir_name(g)).join(name);
    if !fs.exists(&p) {
        return Ok(None);
    }
    fs.read(&p).map(Some)
}

/// The result of [`recover_vfs`].
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed catalog: last committed checkpoint plus the
    /// committed WAL prefix.
    pub catalog: Catalog,
    /// The committed generation (0 for a fresh or legacy directory).
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
/// Loads the checkpoint named by `CURRENT` (falling back to a legacy
/// non-generational `catalog.mmth`, then to an empty catalog) and replays
/// the matching WAL. A torn or checksum-broken final record is the
/// expected signature of a crash mid-append and is discarded silently; a
/// checkpoint that `CURRENT` names but that cannot be read, or a WAL
/// record that does not apply, is [`Error::Recovery`].
pub fn recover_vfs(fs: &dyn Vfs, root: &Path) -> Result<Recovered> {
    fs.create_dir_all(root)?;
    let (mut catalog, gen) = match read_current(fs, root)? {
        Some(g) => {
            let dir = root.join(checkpoint_dir_name(g));
            let cat = load_catalog_vfs(fs, &dir)
                .map_err(|e| Error::Recovery(format!("loading checkpoint ckpt-{g}: {e}")))?;
            (cat, g)
        }
        None if fs.exists(&root.join(MANIFEST_FILE)) => {
            // a directory written by the non-durable save_catalog path
            (load_catalog_vfs(fs, root)?, 0)
        }
        None => (Catalog::new(), 0),
    };
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
    use crate::wal::Wal;
    use mammoth_types::Value;
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
        let d = tmpdir("file");
        let b = Bat::from_vec(vec![2.5f64, 3.5]);
        let p = d.join("x.bat");
        save_bat(&b, &p).unwrap();
        let back = load_bat(&p).unwrap();
        assert_eq!(back.tail_slice::<f64>().unwrap(), &[2.5, 3.5]);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sealed_file_detects_any_flip() {
        let d = tmpdir("seal");
        let b = Bat::from_vec(vec![41i32, 42, 43]);
        let p = d.join("x.bat");
        save_bat(&b, &p).unwrap();
        let img = fs::read(&p).unwrap();
        assert_eq!(&img[0..6], SEAL_MAGIC);
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x01;
            fs::write(&p, &bad).unwrap();
            assert!(load_bat(&p).is_err(), "flip at byte {i} went undetected");
        }
        for cut in 0..img.len() {
            fs::write(&p, &img[..cut]).unwrap();
            assert!(load_bat(&p).is_err(), "truncation to {cut} went undetected");
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn legacy_unsealed_bat_still_loads() {
        let d = tmpdir("legacy");
        let b = Bat::from_vec(vec![7i64, 8]);
        let mut raw = Vec::new();
        write_bat(&b, &mut raw);
        fs::write(d.join("x.bat"), &raw).unwrap(); // pre-seal format
        let back = load_bat(&d.join("x.bat")).unwrap();
        assert_eq!(back.tail_slice::<i64>().unwrap(), &[7, 8]);
        fs::remove_dir_all(&d).unwrap();
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
        let d = tmpdir("cat");
        let cat = demo_catalog();
        save_catalog(&cat, &d).unwrap();
        let back = load_catalog(&d).unwrap();
        let t = back.table("actors").unwrap();
        assert_eq!(t.live_len(), 1);
        assert_eq!(
            t.get_row(0),
            Some(vec![Value::Str("Bob Fosse".into()), Value::I32(1927)])
        );
        assert!(!t.schema.columns[1].nullable);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn checkpoint_and_recover_roundtrip() {
        let d = tmpdir("ckpt");
        let fs_: Arc<dyn Vfs> = Arc::new(RealFs);
        let cat = demo_catalog();
        let (g1, wal1) = checkpoint_catalog(fs_.as_ref(), &cat, &d).unwrap();
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
        let (g2, _) = checkpoint_catalog(fs_.as_ref(), &rec.catalog, &d).unwrap();
        assert_eq!(g2, 2);
        assert!(!d.join(checkpoint_dir_name(1)).exists());
        assert!(!d.join(wal_file_name(1)).exists());
        let rec2 = recover(&d).unwrap();
        assert_eq!(rec2.wal_records, 0);
        assert_eq!(rec2.catalog.table("actors").unwrap().live_len(), 2);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recover_fresh_and_legacy_dirs() {
        let d = tmpdir("fresh");
        let rec = recover(&d).unwrap();
        assert_eq!(rec.gen, 0);
        assert_eq!(rec.catalog.table_names().count(), 0);

        // legacy layout: catalog.mmth in the root, no CURRENT
        save_catalog(&demo_catalog(), &d).unwrap();
        let rec = recover(&d).unwrap();
        assert_eq!(rec.gen, 0);
        assert_eq!(rec.catalog.table("actors").unwrap().live_len(), 1);
        fs::remove_dir_all(&d).unwrap();
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
    }
}
